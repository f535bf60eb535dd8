//! [`LossyLink`]: deterministic byte-level link faults over any [`Link`].
//!
//! Wraps a transport and mangles traffic in both directions — bit flips,
//! drops, duplication, truncation — using two independent seeded PRNG
//! streams from `hx-fault`. Because the faults are a pure function of the
//! seed and the byte stream, a "flaky serial cable" session is exactly
//! reproducible: the same seed mangles the same bytes the same way, which is
//! what lets the survivability campaign replay link-fault runs and lets the
//! proptest in `debugger.rs` shrink on failure.

use crate::debugger::Link;
use hx_fault::{LinkFaultConfig, LinkFaults, LinkStats};

/// Salt for the host→target fault stream (distinct from target→host so the
/// two directions fail independently).
const TO_TARGET_SALT: u64 = 0x746f_5f74_6172_6765; // "to_targe"

/// Salt for the target→host fault stream.
const TO_HOST_SALT: u64 = 0x746f_5f68_6f73_7400; // "to_host"

/// A [`Link`] decorator that applies deterministic faults to every byte
/// crossing it, in both directions.
#[derive(Debug)]
pub struct LossyLink<L> {
    inner: L,
    to_target: LinkFaults,
    to_host: LinkFaults,
}

impl<L: Link> LossyLink<L> {
    /// Wraps `inner`; both directions draw from `cfg` with direction-salted
    /// seeds.
    pub fn new(inner: L, cfg: LinkFaultConfig) -> LossyLink<L> {
        let salted = |salt: u64| LinkFaultConfig {
            seed: cfg.seed ^ salt,
            ..cfg
        };
        LossyLink {
            inner,
            to_target: LinkFaults::new(salted(TO_TARGET_SALT)),
            to_host: LinkFaults::new(salted(TO_HOST_SALT)),
        }
    }

    /// Fault counters for the host→target direction.
    pub fn to_target_stats(&self) -> LinkStats {
        self.to_target.stats
    }

    /// Fault counters for the target→host direction.
    pub fn to_host_stats(&self) -> LinkStats {
        self.to_host.stats
    }
}

impl<L: Link> Link for LossyLink<L> {
    fn send(&mut self, bytes: &[u8]) {
        let mangled = self.to_target.mangle(bytes);
        if !mangled.is_empty() {
            self.inner.send(&mangled);
        }
    }

    fn pump(&mut self) -> Vec<u8> {
        let bytes = self.inner.pump();
        self.to_host.mangle(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A loopback link: everything sent comes back on the next pump.
    struct Loopback {
        queue: VecDeque<Vec<u8>>,
    }

    impl Link for Loopback {
        fn send(&mut self, bytes: &[u8]) {
            self.queue.push_back(bytes.to_vec());
        }
        fn pump(&mut self) -> Vec<u8> {
            self.queue.pop_front().unwrap_or_default()
        }
    }

    fn loopback() -> Loopback {
        Loopback {
            queue: VecDeque::new(),
        }
    }

    #[test]
    fn clean_config_is_transparent() {
        let mut link = LossyLink::new(loopback(), LinkFaultConfig::clean(1));
        link.send(b"hello $#} world");
        assert_eq!(link.pump(), b"hello $#} world");
        assert_eq!(link.to_target_stats().bytes, 15);
        assert_eq!(link.to_target_stats().flipped, 0);
        assert_eq!(link.to_host_stats().dropped, 0);
    }

    #[test]
    fn lossy_mangling_is_deterministic() {
        let run = || {
            let mut link = LossyLink::new(loopback(), LinkFaultConfig::lossy(42));
            let mut out = Vec::new();
            for _ in 0..200 {
                link.send(b"the quick brown fox jumps over the lazy dog");
                out.push(link.pump());
            }
            (out, link.to_target_stats(), link.to_host_stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn directions_fail_independently() {
        let mut link = LossyLink::new(loopback(), LinkFaultConfig::lossy(7));
        let payload = vec![b'x'; 4096];
        link.send(&payload);
        let back = link.pump();
        let (tx, rx) = (link.to_target_stats(), link.to_host_stats());
        let tx_faults = tx.flipped + tx.dropped + tx.duplicated + tx.truncated;
        let rx_faults = rx.flipped + rx.dropped + rx.duplicated + rx.truncated;
        assert!(tx_faults > 0, "host→target stream must fault at this size");
        assert!(rx_faults > 0, "target→host stream must fault at this size");
        // Different salts → the two directions fault at different points.
        assert_ne!(tx, rx);
        assert_ne!(back, payload);
    }
}
