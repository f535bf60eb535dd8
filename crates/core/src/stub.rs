//! Debug-stub state: watchpoints, stop bookkeeping and the wire-protocol
//! parser.
//!
//! The stub's *state* lives here, in monitor memory (plain Rust fields —
//! unreachable from the guest by construction of the shadow tables).
//! Breakpoints, their conditions and logpoints live beside it in the
//! machine's monitor-side hook table ([`hx_machine::Machine::hook`]),
//! checked at fetch: guest RAM is never patched. The stub's *behaviour* — executing
//! commands against the guest — is implemented on [`crate::LvmmPlatform`],
//! which owns both the machine and this state.

use hx_query::{Expr, ParseError};
use rdbg::msg::{StopReason, WatchKind};
use rdbg::wire::PacketParser;

/// Stub error codes carried in `E..` replies.
pub mod err {
    /// Unparseable command payload.
    pub const PARSE: u8 = 1;
    /// Bad register selector.
    pub const REG: u8 = 2;
    /// Guest memory unreachable (unmapped, outside guest RAM, …).
    pub const MEM: u8 = 3;
    /// Command requires a stopped guest.
    pub const NOT_STOPPED: u8 = 4;
    /// Breakpoint/watchpoint already exists or is missing.
    pub const BP: u8 = 5;
    /// Flight recorder unavailable, or the request fell off the recorded
    /// timeline (no checkpoint at or before the target cycle).
    pub const RECORDER: u8 = 6;
    /// No profiler enabled on the target.
    pub const PROFILER: u8 = 7;
    /// Malformed condition/query expression.
    pub const QUERY: u8 = 8;
    /// No host-time metrics available on the target (the host profiler is
    /// not enabled, or the stub has no host clock at all — the in-kernel
    /// stub answers `qMetrics` with this code unconditionally). Code 9 is
    /// the embedded stub's generic "unsupported command" and is skipped
    /// here deliberately.
    pub const METRICS: u8 = 10;
    /// Thread (core) selector out of range, or the selected core has not
    /// been started.
    pub const CORE: u8 = 11;
    /// No causal-flow tracker enabled on the target.
    pub const CAUSAL: u8 = 12;
}

/// One armed data watchpoint.
#[derive(Debug, Clone)]
pub struct Watchpoint {
    /// Watched guest virtual address.
    pub addr: u32,
    /// Watched range length in bytes.
    pub len: u32,
    /// Which access directions trigger it.
    pub kind: WatchKind,
    /// Optional condition: the stop fires only when it evaluates nonzero
    /// (an unevaluable condition stops too — fail safe).
    pub cond: Option<Expr>,
}

/// Parses the optional condition of a `Qb`, `Qw` or `Ql` command: empty
/// text means no condition (an unconditional stop, an always-firing
/// logpoint).
pub(crate) fn parse_condition(expr: &str) -> Result<Option<Expr>, ParseError> {
    (!expr.is_empty()).then(|| Expr::parse(expr)).transpose()
}

/// What the stub armed single-step for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepIntent {
    /// Host asked for one instruction: stop and report after it.
    Step,
    /// Stepping off a breakpoint on the way to `continue`.
    Resume,
}

/// Stub statistics, for the debug-latency experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StubStats {
    /// Commands executed.
    pub commands: u64,
    /// Bytes received from the host.
    pub bytes_in: u64,
    /// Bytes sent to the host.
    pub bytes_out: u64,
    /// Break-in requests honoured.
    pub break_ins: u64,
    /// Packets retransmitted after a host NAK.
    pub retransmits: u64,
}

/// The monitor-resident debug stub state.
#[derive(Debug, Clone)]
pub struct Stub {
    /// Wire-protocol parser over the UART byte stream.
    pub parser: PacketParser,
    /// Armed data watchpoints.
    pub watchpoints: Vec<Watchpoint>,
    /// Is the guest currently stopped under debugger control?
    pub stopped: bool,
    /// The most recent stop reason (valid while `stopped`).
    pub last_stop: Option<StopReason>,
    /// Why the real single-step flag is armed, if it is.
    pub step_intent: Option<StepIntent>,
    /// The last packet sent, kept until the host ACKs it so a NAK (or a
    /// host-side timeout turned into a NAK) can be answered by
    /// retransmission instead of wedging the session.
    pub last_tx: Option<Vec<u8>>,
    /// Retransmissions of the current `last_tx` so far; bounded by
    /// [`Stub::RESEND_LIMIT`] so a hard-broken line cannot loop forever.
    pub resends: u8,
    /// The core (GDB "thread") the host has selected with `Hg`; register
    /// and memory commands answer against this core's view. Always a valid
    /// index — `Hg` rejects out-of-range selectors.
    pub sel_core: u32,
    /// Statistics.
    pub stats: StubStats,
}

impl Default for Stub {
    fn default() -> Self {
        Self::new()
    }
}

impl Stub {
    /// Most retransmissions of one packet before the stub gives up on it.
    pub const RESEND_LIMIT: u8 = 8;

    /// Creates an idle stub with the guest running.
    pub fn new() -> Stub {
        Stub {
            parser: PacketParser::new(),
            watchpoints: Vec::new(),
            stopped: false,
            last_stop: None,
            step_intent: None,
            last_tx: None,
            resends: 0,
            sel_core: 0,
            stats: StubStats::default(),
        }
    }

    /// Does any *write-sensitive* watchpoint overlap the 4 KiB page
    /// containing `va`? Such pages must never get a writable shadow
    /// mapping.
    pub fn watch_overlaps_page_write(&self, va: u32) -> bool {
        self.watch_overlaps_page(va, |k| k.watches_write())
    }

    /// Does any *read-sensitive* watchpoint overlap the 4 KiB page
    /// containing `va`? Such pages must never get a readable shadow
    /// mapping.
    pub fn watch_overlaps_page_read(&self, va: u32) -> bool {
        self.watch_overlaps_page(va, |k| k.watches_read())
    }

    fn watch_overlaps_page(&self, va: u32, dir: impl Fn(WatchKind) -> bool) -> bool {
        let page = va & !0xfff;
        self.watchpoints.iter().any(|w| {
            dir(w.kind)
                && w.addr < page.saturating_add(0x1000)
                && w.addr.saturating_add(w.len) > page
        })
    }

    /// Does an access to `[va, va+len)` hit a watchpoint exactly?
    /// `is_store` selects the direction the watchpoint must be sensitive
    /// to.
    pub fn watch_hit(&self, va: u32, len: u32, is_store: bool) -> Option<&Watchpoint> {
        self.watchpoints.iter().find(|w| {
            let dir = if is_store {
                w.kind.watches_write()
            } else {
                w.kind.watches_read()
            };
            dir && w.addr < va.saturating_add(len) && w.addr.saturating_add(w.len) > va
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(addr: u32, len: u32, kind: WatchKind) -> Watchpoint {
        Watchpoint {
            addr,
            len,
            kind,
            cond: None,
        }
    }

    #[test]
    fn watch_overlap_logic() {
        let mut s = Stub::new();
        // Straddles a page boundary.
        s.watchpoints.push(wp(0x2ffc, 8, WatchKind::Write));
        assert!(s.watch_overlaps_page_write(0x2000));
        assert!(s.watch_overlaps_page_write(0x3000));
        assert!(!s.watch_overlaps_page_write(0x4000));
        assert!(!s.watch_overlaps_page_read(0x3000), "write-only watch");
        assert_eq!(s.watch_hit(0x3000, 4, true).map(|w| w.addr), Some(0x2ffc));
        assert!(s.watch_hit(0x2ff8, 4, true).is_none());
        assert_eq!(s.watch_hit(0x2ff8, 5, true).map(|w| w.addr), Some(0x2ffc));
        assert!(s.watch_hit(0x3004, 4, true).is_none());
        assert!(s.watch_hit(0x3000, 4, false).is_none(), "loads not watched");
    }

    #[test]
    fn watch_kinds_select_directions() {
        let mut s = Stub::new();
        s.watchpoints.push(wp(0x1000, 4, WatchKind::Read));
        s.watchpoints.push(wp(0x5000, 4, WatchKind::Access));
        assert!(s.watch_overlaps_page_read(0x1000));
        assert!(!s.watch_overlaps_page_write(0x1000));
        assert!(s.watch_overlaps_page_read(0x5000));
        assert!(s.watch_overlaps_page_write(0x5000));
        assert!(s.watch_hit(0x1000, 4, true).is_none());
        assert!(s.watch_hit(0x1000, 4, false).is_some());
        assert!(s.watch_hit(0x5000, 4, true).is_some());
        assert!(s.watch_hit(0x5000, 4, false).is_some());
    }

    #[test]
    fn default_state() {
        let s = Stub::new();
        assert!(!s.stopped);
        assert!(s.watchpoints.is_empty());
        assert!(s.last_stop.is_none());
    }

    #[test]
    fn err_names_cover_all_stub_codes() {
        // The host-side decoder must know every code the stub can emit.
        for code in [
            err::PARSE,
            err::REG,
            err::MEM,
            err::NOT_STOPPED,
            err::BP,
            err::RECORDER,
            err::PROFILER,
            err::QUERY,
            err::METRICS,
            err::CORE,
            err::CAUSAL,
        ] {
            assert!(
                rdbg::err_name(code).is_some(),
                "stub error code {code} has no host-side name"
            );
        }
    }
}
