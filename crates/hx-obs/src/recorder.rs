//! The recorder: one per machine/platform, threaded through the simulation.
//!
//! Three cost tiers:
//!
//! - **Metrics** (exit histograms) are always on — O(1) array updates with
//!   no allocation, replacing the monitors' old flat counters.
//! - **Tracing** (event ring + span track) is off by default and enabled
//!   explicitly (`--trace` in the bench binaries). When disabled, event
//!   and span calls are a branch and return.
//! - **Journaling** (flight-recorder record mode) is off by default and
//!   captures the *complete* nondeterministic history of the run — every
//!   external input payload plus an unbounded device-event stream — into a
//!   [`Journal`] that replay and divergence audits consume. Unlike the
//!   ring, the journal never drops.
//!
//! Every observed event enters through one method, [`Recorder::emit`],
//! as one [`EventKind`]; its single match decides which subscribers see
//! it — the exit histograms, the ring, the journal and the causal
//! tracker, each an optional field behind that match. Input payloads take
//! the separate [`Recorder::journal_input`] path (they are not events),
//! and cycle charges take [`Recorder::charge`].
//!
//! Nothing in here mutates simulation state, so a recorder can never
//! perturb determinism — it only observes it. The opt-in host-time
//! self-profiler ([`HostProf`]) is the one piece that reads host clocks;
//! its readings flow only into its own accumulators (see
//! [`crate::hostprof`]), never back into the simulation.

use crate::causal::CausalTracker;
use crate::event::{EventKind, TraceEvent};
use crate::hist::ExitHists;
use crate::hostprof::{HostAttribution, HostPhase, HostProf};
use crate::journal::{Journal, JournalInput};
use crate::prof::Profiler;
use crate::ring::TraceRing;
use crate::span::{SpanTrack, Track};
use std::sync::Arc;

#[derive(Clone, Debug)]
pub struct Recorder {
    tracing: bool,
    /// Core currently executing; stays 0 forever on a single-core machine,
    /// so nothing downstream (journal text, profiler folds) changes shape.
    active_core: u8,
    pub ring: TraceRing,
    pub exits: ExitHists,
    /// Exit count per core, indexed by core id and grown lazily — stays
    /// `[total]`-shaped on a single-core machine.
    core_exits: Vec<u64>,
    pub spans: SpanTrack,
    /// Boxed so an idle recorder stays one pointer wide; `None` unless
    /// record mode was enabled.
    journal: Option<Box<Journal>>,
    /// Guest-aware profiler; `None` unless profiling was enabled.
    prof: Option<Box<Profiler>>,
    /// Causal flow tracker; `None` unless causal tracing was enabled.
    /// Plain data, so flight-recorder snapshots rewind it with the machine.
    causal: Option<Box<CausalTracker>>,
    /// Host-time self-profiler; `None` unless enabled. Shared behind an
    /// `Arc` so snapshot clones (flight recorder, time travel) keep feeding
    /// the *same* accumulator — host time already spent never rewinds.
    hostprof: Option<Arc<HostProf>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            tracing: false,
            active_core: 0,
            ring: TraceRing::new(TraceRing::DEFAULT_CAPACITY),
            exits: ExitHists::default(),
            core_exits: Vec::new(),
            spans: SpanTrack::new(SpanTrack::DEFAULT_CAPACITY),
            journal: None,
            prof: None,
            causal: None,
            hostprof: None,
        }
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes a vCPU-scheduler switch: journal events recorded and guest
    /// cycles charged from here on belong to core `core`.
    pub fn set_active_core(&mut self, core: u8) {
        self.active_core = core;
        if let Some(p) = self.prof.as_deref_mut() {
            p.set_core(core);
        }
    }

    /// The core the recorder currently attributes to.
    pub fn active_core(&self) -> u8 {
        self.active_core
    }

    /// Exit counts per core (indexed by core id; a core with no exits yet
    /// may be beyond the end). Single-core machines see one entry equal to
    /// the total.
    pub fn core_exit_counts(&self) -> &[u64] {
        &self.core_exits
    }

    /// Exit count for core `i` (0 when the core has recorded none).
    pub fn core_exit_count(&self, i: usize) -> u64 {
        self.core_exits.get(i).copied().unwrap_or(0)
    }

    /// Turn event/span tracing on (metrics are always on).
    pub fn enable_tracing(&mut self) {
        self.tracing = true;
    }

    /// Start flight-recorder record mode: inputs and device events are
    /// journaled from this point on, under a header naming the platform
    /// and the machine's core count. A one-core journal keeps the pre-SMP
    /// form (`cores` 0, no header line), so its text parses back equal.
    pub fn enable_journal(&mut self, platform: &str, cores: usize) {
        self.journal = Some(Box::new(Journal {
            cores: if cores > 1 { cores as u32 } else { 0 },
            ..Journal::new(platform)
        }));
    }

    pub fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_deref()
    }

    pub fn journal_mut(&mut self) -> Option<&mut Journal> {
        self.journal.as_deref_mut()
    }

    /// Detach the journal, ending record mode.
    pub fn take_journal(&mut self) -> Option<Journal> {
        self.journal.take().map(|b| *b)
    }

    /// Turn on the guest-aware profiler: from this point every guest-track
    /// cycle charge is attributed to the symbol of the current instruction
    /// boundary. Platforms disable instruction batching while a profiler is
    /// installed, so boundaries arrive per instruction.
    pub fn enable_profiler(&mut self, prof: Profiler) {
        self.prof = Some(Box::new(prof));
    }

    pub fn profiling(&self) -> bool {
        self.prof.is_some()
    }

    pub fn prof(&self) -> Option<&Profiler> {
        self.prof.as_deref()
    }

    /// Turn on causal flow tracking: from this point every asynchronous
    /// handoff (IRQ raise→ISR entry→EOI, IPI send→delivery, disk/NIC
    /// command→completion, guest tracepoint begin→end) is connected into a
    /// flow and fed to per-class latency histograms. Pure observation —
    /// the tracker never touches simulation state.
    pub fn enable_causal(&mut self) {
        self.causal = Some(Box::new(CausalTracker::new()));
    }

    pub fn causal_tracking(&self) -> bool {
        self.causal.is_some()
    }

    pub fn causal(&self) -> Option<&CausalTracker> {
        self.causal.as_deref()
    }

    /// Turn on the host-time self-profiler: from this point,
    /// [`Recorder::host_mark`] calls charge wall-clock nanoseconds to the
    /// named phase. Unlike the guest profiler this does **not** disable
    /// instruction batching — marks are taken only at phase boundaries, so
    /// the hot loop stays hot.
    pub fn enable_hostprof(&mut self) {
        self.hostprof = Some(Arc::new(HostProf::new()));
    }

    pub fn host_profiling(&self) -> bool {
        self.hostprof.is_some()
    }

    /// Charges host time since the previous mark to `phase`. A single
    /// `Option` branch when the profiler is off.
    pub fn host_mark(&self, phase: HostPhase) {
        if let Some(hp) = &self.hostprof {
            hp.mark(phase);
        }
    }

    /// Plain-data host-attribution snapshot, `None` when disabled.
    pub fn host_attribution(&self) -> Option<HostAttribution> {
        self.hostprof.as_ref().map(|hp| hp.snapshot())
    }

    /// Re-anchors profiler attribution to the instruction at `pc` (called
    /// by the engine before that instruction's cycles are charged).
    pub fn instr_boundary(&mut self, pc: u32) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.instr_boundary(pc);
        }
    }

    /// Journal one nondeterministic input applied at cycle `at`.
    pub fn journal_input(&mut self, at: u64, input: JournalInput) {
        if let Some(j) = self.journal.as_deref_mut() {
            j.input(at, input);
        }
    }

    /// Record one observed event at simulated cycle `at`. This one match
    /// is the whole routing table:
    ///
    /// - a `VmExit` always reaches the exit histograms and the per-core
    ///   exit counts;
    /// - every kind but the IPI pair reaches the ring while tracing;
    /// - every kind but `VmExit`, `ShadowFault` and the IPI pair is
    ///   journaled while journaling — tracepoints included, with or
    ///   without causal tracking;
    /// - `Inta` and `Eoi` reach nothing unless causal tracking is on, so
    ///   traces and journals recorded without it keep their bytes;
    /// - the IPI pair reaches only the causal tracker: the send is already
    ///   journaled as a PIC doorbell and the delivery as a PIC IRQ.
    ///
    /// The causal tracker, when on, sees every event that gets past the
    /// match and ignores the kinds that carry no handoff.
    pub fn emit(&mut self, at: u64, ev: EventKind) {
        let (ringed, journaled) = match ev {
            EventKind::VmExit { cause, cycles } => {
                self.exits.record(cause, cycles);
                let core = self.active_core as usize;
                if core >= self.core_exits.len() {
                    self.core_exits.resize(core + 1, 0);
                }
                self.core_exits[core] += 1;
                (true, false)
            }
            EventKind::ShadowFault { .. } => (true, false),
            EventKind::Inta { .. } | EventKind::Eoi if self.causal.is_none() => return,
            EventKind::IpiSend { .. } | EventKind::IpiDeliver { .. } => (false, false),
            _ => (true, true),
        };
        if ringed && self.tracing {
            self.ring.push(TraceEvent { at, kind: ev });
        }
        if let Some(c) = self.causal.as_deref_mut() {
            c.observe(at, self.active_core, &ev);
        }
        if journaled {
            if let Some(j) = self.journal.as_deref_mut() {
                j.event_on(at, ev, self.active_core);
            }
        }
    }

    /// Attribute `cycles` to a time bucket on the span timeline (and, for
    /// guest cycles, to the profiler's current symbol). Because the span
    /// track and the profiler are fed from this one funnel, per-symbol
    /// totals reconcile exactly with the guest-track total.
    pub fn charge(&mut self, track: Track, cycles: u64) {
        if self.tracing {
            self.spans.charge(track, cycles);
        }
        if track == Track::Guest {
            if let Some(p) = self.prof.as_deref_mut() {
                p.charge_guest(cycles);
            }
        }
    }

    /// Reset all recorded data (ring, spans, histograms, profiler counts,
    /// causal flows) but keep the tracing flag, the profiler's
    /// configuration and the journal — the journal must span a whole run,
    /// warmup included, or replay would miss early inputs.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.spans.clear();
        self.exits = ExitHists::default();
        self.core_exits.clear();
        if let Some(p) = self.prof.as_deref_mut() {
            p.reset_counts();
        }
        if let Some(c) = self.causal.as_deref_mut() {
            *c = CausalTracker::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::TraceOp;
    use crate::event::{Dev, ExitCause};

    fn exit(cause: ExitCause, cycles: u64) -> EventKind {
        EventKind::VmExit { cause, cycles }
    }

    const NIC_IRQ: EventKind = EventKind::Irq {
        dev: Dev::Nic,
        irq: 5,
    };

    #[test]
    fn disabled_recorder_keeps_metrics_but_no_events() {
        let mut r = Recorder::new();
        r.emit(100, exit(ExitCause::Mmio, 990));
        r.emit(120, NIC_IRQ);
        r.charge(Track::Guest, 50);
        assert_eq!(r.exits.get(ExitCause::Mmio).count(), 1);
        assert!(r.ring.is_empty());
        assert!(r.spans.spans().is_empty());
    }

    #[test]
    fn exits_attribute_to_the_active_core() {
        let mut r = Recorder::new();
        r.emit(10, exit(ExitCause::Mmio, 5));
        r.set_active_core(2);
        r.emit(20, exit(ExitCause::Privileged, 5));
        r.emit(30, exit(ExitCause::Mmio, 5));
        assert_eq!(r.core_exit_counts(), &[1, 0, 2]);
        assert_eq!(r.core_exit_count(1), 0);
        assert_eq!(r.core_exit_count(7), 0);
        r.reset();
        assert!(r.core_exit_counts().is_empty());
    }

    #[test]
    fn enabled_recorder_captures_everything() {
        let mut r = Recorder::new();
        r.enable_tracing();
        r.emit(100, exit(ExitCause::Mmio, 990));
        r.emit(120, NIC_IRQ);
        r.charge(Track::Guest, 50);
        assert_eq!(r.ring.len(), 2);
        assert_eq!(r.spans.grand_total(), 50);
    }

    #[test]
    fn journal_captures_events_independent_of_tracing() {
        let mut r = Recorder::new();
        assert!(!r.journaling());
        r.emit(10, NIC_IRQ); // before enable: not journaled
        r.enable_journal("lvmm", 1);
        r.emit(120, NIC_IRQ);
        let dma = EventKind::Dma {
            dev: Dev::Hdc,
            bytes: 512,
            digest: 0xdead,
        };
        r.emit(130, dma);
        r.emit(
            140,
            EventKind::Doorbell {
                dev: Dev::Nic,
                reg: 4,
            },
        );
        r.emit(150, EventKind::DebugCommand { code: b'g' });
        // Exits and shadow faults are never journaled.
        r.emit(155, exit(ExitCause::Shadow, 9));
        r.emit(156, EventKind::ShadowFault { vaddr: 0x4000 });
        r.journal_input(160, JournalInput::UartRx(vec![0x24]));
        // Tracing stayed off: ring empty, but journal has everything.
        assert!(r.ring.is_empty());
        let j = r.journal().unwrap();
        assert_eq!(j.events.len(), 4);
        assert_eq!(j.inputs.len(), 1);
        assert_eq!(j.events[1].ev, dma);
        // Reset keeps the journal; take detaches it.
        r.reset();
        assert!(r.journaling());
        let j = r.take_journal().unwrap();
        assert_eq!(j.events.len(), 4);
        assert!(!r.journaling());
    }

    #[test]
    fn causal_events_are_gated_and_feed_tracker_and_journal() {
        use crate::causal::FlowClass;
        let mut r = Recorder::new();
        r.enable_tracing();
        r.enable_journal("lvmm", 1);
        let trace = |op, id| EventKind::Trace { op, id };
        // Causal off: inta/eoi reach nothing, so pre-causal trace and
        // journal bytes are preserved.
        r.emit(10, EventKind::Inta { irq: 0 });
        r.emit(20, EventKind::Eoi);
        assert_eq!(r.journal().unwrap().events.len(), 0);
        assert!(r.ring.is_empty());
        // Tracepoints are guest-driven: journaled even without causal.
        r.emit(30, trace(TraceOp::Instant, 9));
        assert_eq!(r.journal().unwrap().events.len(), 1);

        r.enable_causal();
        let pit = EventKind::Irq {
            dev: Dev::Pit,
            irq: 0,
        };
        r.emit(100, pit);
        r.emit(150, EventKind::Inta { irq: 0 });
        r.emit(200, EventKind::Eoi);
        r.set_active_core(1);
        r.emit(250, trace(TraceOp::Begin, 7));
        r.emit(300, trace(TraceOp::End, 7));
        let c = r.causal().unwrap();
        assert_eq!(c.flows().len(), 3);
        assert_eq!(c.hist(FlowClass::IrqDispatch).max(), 50);
        assert_eq!(c.flows()[2].begin_core, 1);
        // irq + inta + eoi + 2 tracepoints journaled after enable.
        assert_eq!(r.journal().unwrap().events.len(), 6);
        assert_eq!(r.ring.len(), 6);

        // Reset clears flows but keeps the tracker installed.
        r.reset();
        assert!(r.causal_tracking());
        assert!(r.causal().unwrap().flows().is_empty());
    }

    #[test]
    fn ipis_reach_only_the_causal_tracker() {
        use crate::causal::FlowClass;
        let mut r = Recorder::new();
        r.enable_tracing();
        r.enable_journal("lvmm", 1);
        r.enable_causal();
        r.emit(500, EventKind::IpiSend { target: 1, line: 0 });
        r.emit(564, EventKind::IpiDeliver { target: 1, line: 0 });
        assert!(r.ring.is_empty());
        assert!(r.journal().unwrap().events.is_empty());
        let f = r.causal().unwrap().flows()[0];
        assert_eq!(f.class, FlowClass::Ipi);
        assert_eq!((f.begin_core, f.end_core, f.latency()), (0, 1, 64));
    }

    #[test]
    fn hostprof_is_shared_across_clones_and_survives_reset() {
        use crate::hostprof::HostPhase;
        let mut r = Recorder::new();
        assert!(!r.host_profiling());
        r.host_mark(HostPhase::GuestExec); // disabled: a branch and return
        assert!(r.host_attribution().is_none());
        r.enable_hostprof();
        r.host_mark(HostPhase::GuestExec);
        // A snapshot clone (what the flight recorder stores) feeds the SAME
        // accumulator: restoring old machine state must not rewind host time.
        let snap = r.clone();
        snap.host_mark(HostPhase::Journal);
        assert_eq!(r.host_attribution().unwrap().marks, 2);
        r.reset();
        assert!(r.host_profiling(), "reset keeps the host profiler");
        assert_eq!(r.host_attribution().unwrap().marks, 2);
    }

    #[test]
    fn profiler_receives_guest_charges_independent_of_tracing() {
        use crate::prof::{Profiler, SymbolMap};
        let mut r = Recorder::new();
        assert!(!r.profiling());
        let map = SymbolMap::from_ranges([("f".to_string(), 0x100, 0x200)]);
        r.enable_profiler(Profiler::new(map, 1000));
        assert!(r.profiling());
        r.instr_boundary(0x104);
        r.charge(Track::Guest, 40);
        r.charge(Track::Monitor, 7); // not guest: not attributed
        assert_eq!(r.prof().unwrap().total_cycles(), 40);
        assert_eq!(r.prof().unwrap().top(1), vec![("f", 40, 0)]);
        // Tracing stayed off: spans empty, profiler still fed.
        assert!(r.spans.spans().is_empty());
        // Reset zeroes counts but keeps the profiler installed.
        r.reset();
        assert!(r.profiling());
        assert_eq!(r.prof().unwrap().total_cycles(), 0);
        assert_eq!(r.prof().unwrap().interval(), 1000);
    }
}
