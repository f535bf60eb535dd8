//! Bounded trace-event ring with drop accounting.
//!
//! The ring never reallocates past its capacity and never blocks the
//! simulation: when full it wraps around, overwriting the *oldest* events
//! and counting each overwrite as a drop. Keeping the newest events is the
//! flight-recorder contract — after a crash, the tail of the trace is what
//! explains it — and the `dropped` counter tells the reader exactly how
//! much history fell off the front.

use crate::event::TraceEvent;

#[derive(Clone, Debug, Default)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next write position once the ring is full (index of the oldest
    /// retained event).
    head: usize,
    /// Events overwritten after the ring filled up.
    dropped: u64,
    /// Every event ever offered, kept or not.
    total: u64,
}

impl TraceRing {
    /// Default capacity: generous enough for a bench window at full
    /// instrumentation, small enough to stay cache-friendly.
    pub const DEFAULT_CAPACITY: usize = 1 << 18;

    pub fn new(cap: usize) -> Self {
        TraceRing {
            buf: Vec::new(),
            cap,
            head: 0,
            dropped: 0,
            total: 0,
        }
    }

    pub fn push(&mut self, ev: TraceEvent) {
        self.total += 1;
        if self.cap == 0 {
            self.dropped += 1;
        } else if self.buf.len() < self.cap {
            if self.buf.is_empty() {
                // Defer the big allocation until tracing actually happens.
                self.buf.reserve_exact(self.cap.min(1 << 12));
            }
            self.buf.push(ev);
        } else {
            // Wrap: the oldest event is overwritten and counted as dropped.
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (newer, older) = self.buf.split_at(self.head.min(self.buf.len()));
        older.iter().chain(newer.iter())
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn total_offered(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Dev, EventKind};

    fn ev(at: u64) -> TraceEvent {
        TraceEvent {
            at,
            kind: EventKind::Irq {
                dev: Dev::Nic,
                irq: 5,
            },
        }
    }

    #[test]
    fn wraps_keeping_newest_and_counts_drops() {
        let mut r = TraceRing::new(4);
        for i in 0..10 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.total_offered(), 10);
        let kept: Vec<u64> = r.iter().map(|e| e.at).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn drop_accounting_is_exact_across_many_wraps() {
        let mut r = TraceRing::new(3);
        for i in 0..1000 {
            r.push(ev(i));
            // Invariant at every step: kept + dropped == offered, and the
            // ring holds exactly the newest `min(i+1, cap)` events in order.
            assert_eq!(r.len() as u64 + r.dropped(), r.total_offered());
            let kept: Vec<u64> = r.iter().map(|e| e.at).collect();
            let lo = (i + 1).saturating_sub(r.capacity() as u64);
            let want: Vec<u64> = (lo..=i).collect();
            assert_eq!(kept, want);
        }
        assert_eq!(r.dropped(), 997);
    }

    #[test]
    fn partial_fill_iterates_in_order() {
        let mut r = TraceRing::new(8);
        for i in 0..3 {
            r.push(ev(i));
        }
        assert_eq!(r.dropped(), 0);
        let kept: Vec<u64> = r.iter().map(|e| e.at).collect();
        assert_eq!(kept, vec![0, 1, 2]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut r = TraceRing::new(0);
        r.push(ev(1));
        assert_eq!((r.len(), r.dropped(), r.total_offered()), (0, 1, 1));
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn clear_resets_accounting() {
        let mut r = TraceRing::new(1);
        r.push(ev(0));
        r.push(ev(1));
        r.clear();
        assert_eq!((r.len(), r.dropped(), r.total_offered()), (0, 0, 0));
        r.push(ev(7));
        assert_eq!(r.iter().map(|e| e.at).collect::<Vec<_>>(), vec![7]);
    }
}
