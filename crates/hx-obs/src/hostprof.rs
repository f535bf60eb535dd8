//! Host-time self-profiler: where does the *host's* wall-clock go?
//!
//! Everything else in this crate measures simulated cycles. This module is
//! the one deliberate exception: it attributes real host nanoseconds across
//! the monitor's execution phases (guest execution, per-cause exit handling,
//! per-device MMIO emulation, checkpoint/journal work, debug-link I/O) so
//! the "where would a fast path help?" question has data behind it.
//!
//! The exception is **simulation-invisible by construction**: wall-clock
//! reads flow only *into* the profiler's own accumulators, never into
//! machine state, cycle accounting, traces, or journals. Enabling it cannot
//! change a run — a property the differential tests in `tests/metrics.rs`
//! pin down on every platform.
//!
//! ## The mark model
//!
//! Instrumentation sites call [`HostProf::mark`] with the phase that *just
//! ended*; the profiler charges the nanoseconds since the previous mark to
//! that phase and moves the fence forward. Consecutive marks therefore form
//! an exact partition of wall-clock time from creation to the latest mark —
//! attributed time can never double-count or invent time, and "unattributed"
//! is exactly the tail after the last mark.
//!
//! To keep the hot loop hot, guest execution is *not* marked per
//! instruction or per batch: the engine marks [`HostPhase::GuestExec`] only
//! when leaving guest execution for a handler (trap, interrupt, idle), so a
//! long exit-free stretch costs zero `Instant` reads and its whole duration
//! is charged to `GuestExec` at the next exit. One mark is one raw clock
//! read plus a handful of relaxed atomic operations — the accumulator is
//! lock-free, so marking never blocks and costs the same whether or not
//! snapshot clones share it.
//!
//! On x86-64 the raw clock is `rdtsc` (a few ns, several times cheaper
//! than `clock_gettime` under a hypervisor); the accumulators hold TSC
//! ticks and are converted to nanoseconds with a ratio calibrated against
//! `Instant` once, at the first snapshot taken at least one millisecond
//! in. The frozen ratio makes the conversion deterministic for a given
//! tick count, so republishing an unchanged phase never moves a counter.
//! Other architectures read `Instant` directly (ticks *are* nanoseconds).

use crate::event::{Dev, ExitCause};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// A host-time attribution phase. `Exit` covers the monitor's dispatch and
/// handling of one guest exit (everything `record_exit` closes); `Device`
/// covers the MMIO emulation body for one device model; `Journal` covers
/// flight-recorder checkpoint capture; `DebugLink` covers wire parsing and
/// draining outside command execution (command execution itself lands in
/// `Exit(Debug)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostPhase {
    /// Guest instruction fetch/decode/execute plus engine loop overhead.
    GuestExec,
    /// Exit dispatch + handling for one cause.
    Exit(ExitCause),
    /// MMIO/device-emulation body for one device model.
    Device(Dev),
    /// Flight-recorder checkpoint capture (snapshot + digest).
    Journal,
    /// Debug-link wire I/O outside command execution.
    DebugLink,
    /// Virtually-idle guest: event-queue skips.
    Idle,
    /// Anything an instrumentation site cannot classify better.
    Other,
}

impl HostPhase {
    pub const ALL: [HostPhase; 18] = [
        HostPhase::GuestExec,
        HostPhase::Exit(ExitCause::Privileged),
        HostPhase::Exit(ExitCause::Mmio),
        HostPhase::Exit(ExitCause::Shadow),
        HostPhase::Exit(ExitCause::IrqReflect),
        HostPhase::Exit(ExitCause::IrqInject),
        HostPhase::Exit(ExitCause::Protection),
        HostPhase::Exit(ExitCause::Debug),
        HostPhase::Exit(ExitCause::HostRelay),
        HostPhase::Device(Dev::Nic),
        HostPhase::Device(Dev::Hdc),
        HostPhase::Device(Dev::Pit),
        HostPhase::Device(Dev::Uart),
        HostPhase::Device(Dev::Pic),
        HostPhase::Journal,
        HostPhase::DebugLink,
        HostPhase::Idle,
        HostPhase::Other,
    ];

    pub const COUNT: usize = Self::ALL.len();

    pub fn index(self) -> usize {
        match self {
            HostPhase::GuestExec => 0,
            HostPhase::Exit(c) => 1 + c.index(),
            HostPhase::Device(d) => 1 + ExitCause::COUNT + d.index(),
            HostPhase::Journal => 1 + ExitCause::COUNT + Dev::COUNT,
            HostPhase::DebugLink => 2 + ExitCause::COUNT + Dev::COUNT,
            HostPhase::Idle => 3 + ExitCause::COUNT + Dev::COUNT,
            HostPhase::Other => 4 + ExitCause::COUNT + Dev::COUNT,
        }
    }

    /// Stable label, used as the metrics/JSON phase key.
    pub fn label(self) -> String {
        match self {
            HostPhase::GuestExec => "guest-exec".to_string(),
            HostPhase::Exit(c) => format!("exit-{}", c.label()),
            HostPhase::Device(d) => format!("device-{}", d.label()),
            HostPhase::Journal => "journal".to_string(),
            HostPhase::DebugLink => "debug-link".to_string(),
            HostPhase::Idle => "idle".to_string(),
            HostPhase::Other => "other".to_string(),
        }
    }
}

/// Plain-data attribution snapshot — no `Instant`s, safe to ship over a
/// wire or into JSON. Indexed by [`HostPhase::index`]. The `qMetrics`
/// reply (`rdbg::Reply::Metrics`) carries it as is.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HostAttribution {
    /// Wall-clock nanoseconds from profiler creation to the snapshot.
    pub wall_ns: u64,
    /// Number of marks taken so far.
    pub marks: u64,
    /// Nanoseconds attributed to each phase.
    pub phase_ns: [u64; HostPhase::COUNT],
}

impl HostAttribution {
    /// Total attributed nanoseconds (sum over phases).
    pub fn attributed_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Fraction of wall-clock covered by attribution, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.attributed_ns() as f64 / self.wall_ns as f64
        }
    }

    /// `(label, ns)` per phase in canonical order.
    pub fn phases(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        HostPhase::ALL
            .iter()
            .map(move |&p| (p.label(), self.phase_ns[p.index()]))
    }
}

/// Reads the cheapest monotonic-enough raw clock the host offers. Units
/// are opaque "ticks" — only tick *differences* scaled by the calibrated
/// ratio ever leave this module.
#[inline]
fn raw_now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` is unprivileged and always available on x86-64.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // Fallback tick unit: nanoseconds since an arbitrary process-wide
        // epoch, so the calibrated ratio degenerates to 1.0.
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Converts raw ticks to nanoseconds with a calibrated ratio. Truncating
/// (`floor`) so `ticks_a <= ticks_b` implies `to_ns(a) <= to_ns(b)`.
#[inline]
fn to_ns(ticks: u64, ratio: f64) -> u64 {
    (ticks as f64 * ratio) as u64
}

/// The accumulator. One per process-side machine; shared across snapshot
/// clones behind a plain `Arc` (see `Recorder`) so host totals stay
/// monotonic even when time-travel debugging restores old machine state.
/// All state is relaxed atomics: `mark` takes `&self`, never blocks, and
/// the per-mark cost is one raw clock read plus three atomic RMWs.
#[derive(Debug)]
pub struct HostProf {
    start: Instant,
    /// Raw-clock reading at creation.
    start_raw: u64,
    /// Raw-clock reading at the latest mark (the fence).
    last_raw: AtomicU64,
    marks: AtomicU64,
    /// Per-phase totals, in raw ticks.
    totals: [AtomicU64; HostPhase::COUNT],
    /// Nanoseconds per raw tick, frozen at the first conversion taken at
    /// least one millisecond after creation (earlier conversions compute
    /// a throwaway ratio — too little elapsed time to calibrate against).
    ns_per_tick: OnceLock<f64>,
}

impl Default for HostProf {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProf {
    pub fn new() -> HostProf {
        let start_raw = raw_now();
        HostProf {
            start: Instant::now(),
            start_raw,
            last_raw: AtomicU64::new(start_raw),
            marks: AtomicU64::new(0),
            totals: std::array::from_fn(|_| AtomicU64::new(0)),
            ns_per_tick: OnceLock::new(),
        }
    }

    /// Charges the ticks since the previous mark to `phase` and advances
    /// the fence. One raw clock read per call; lock-free.
    pub fn mark(&self, phase: HostPhase) {
        let now = raw_now();
        let prev = self.last_raw.swap(now, Relaxed);
        self.totals[phase.index()].fetch_add(now.saturating_sub(prev), Relaxed);
        self.marks.fetch_add(1, Relaxed);
    }

    /// The calibrated tick→ns ratio. Measures elapsed `Instant` time
    /// against elapsed raw ticks; freezes the ratio once at least 1 ms
    /// has passed (relative calibration error is then well under 0.1 %).
    fn ns_ratio(&self) -> f64 {
        if let Some(&r) = self.ns_per_tick.get() {
            return r;
        }
        let elapsed_ns = self.start.elapsed().as_nanos() as u64;
        let elapsed_ticks = raw_now().saturating_sub(self.start_raw).max(1);
        let r = elapsed_ns as f64 / elapsed_ticks as f64;
        if elapsed_ns >= 1_000_000 {
            let _ = self.ns_per_tick.set(r);
            return *self.ns_per_tick.get().unwrap();
        }
        r
    }

    /// Wall-clock nanoseconds since the profiler was created. Derived
    /// from the raw clock with the same frozen ratio as the phase totals,
    /// so `attributed_ns() <= wall_ns()` holds exactly.
    pub fn wall_ns(&self) -> u64 {
        to_ns(raw_now().saturating_sub(self.start_raw), self.ns_ratio())
    }

    /// Total attributed nanoseconds across all phases.
    pub fn attributed_ns(&self) -> u64 {
        let ticks: u64 = self.totals.iter().map(|t| t.load(Relaxed)).sum();
        to_ns(ticks, self.ns_ratio())
    }

    /// Nanoseconds attributed to one phase.
    pub fn total_ns(&self, phase: HostPhase) -> u64 {
        to_ns(self.totals[phase.index()].load(Relaxed), self.ns_ratio())
    }

    pub fn marks(&self) -> u64 {
        self.marks.load(Relaxed)
    }

    /// Plain-data snapshot for reporting. Phase totals are read before
    /// the wall clock so attribution can never exceed it.
    pub fn snapshot(&self) -> HostAttribution {
        let ratio = self.ns_ratio();
        let phase_ns = std::array::from_fn(|i| to_ns(self.totals[i].load(Relaxed), ratio));
        HostAttribution {
            wall_ns: to_ns(raw_now().saturating_sub(self.start_raw), ratio),
            marks: self.marks.load(Relaxed),
            phase_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_index_is_a_bijection() {
        for (i, &p) in HostPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?}");
        }
        let labels: Vec<String> = HostPhase::ALL.iter().map(|p| p.label()).collect();
        let mut deduped = labels.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), labels.len(), "labels must be unique");
    }

    #[test]
    fn marks_partition_time_exactly() {
        let p = HostProf::new();
        p.mark(HostPhase::GuestExec);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.mark(HostPhase::Exit(ExitCause::Mmio));
        p.mark(HostPhase::Device(Dev::Nic));
        let snap = p.snapshot();
        assert_eq!(snap.marks, 3);
        // The partition property: attributed == sum of per-phase totals,
        // and nothing exceeds wall-clock.
        assert_eq!(snap.attributed_ns(), snap.phase_ns.iter().sum::<u64>());
        assert!(snap.attributed_ns() <= p.wall_ns());
        assert!(snap.phase_ns[HostPhase::Exit(ExitCause::Mmio).index()] >= 1_000_000);
        assert_eq!(
            p.total_ns(HostPhase::Exit(ExitCause::Mmio)),
            snap.phase_ns[2]
        );
        assert!(snap.coverage() > 0.0 && snap.coverage() <= 1.0);
    }

    #[test]
    fn snapshot_phases_follow_canonical_order() {
        let p = HostProf::new();
        p.mark(HostPhase::Journal);
        let snap = p.snapshot();
        let phases: Vec<(String, u64)> = snap.phases().collect();
        assert_eq!(phases.len(), HostPhase::COUNT);
        assert_eq!(phases[0].0, "guest-exec");
        assert_eq!(phases[14].0, "journal");
        assert_eq!(phases[14].1, snap.phase_ns[HostPhase::Journal.index()]);
        assert_eq!(phases[17].0, "other");
    }
}
