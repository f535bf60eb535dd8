//! # hx-obs — deterministic, cycle-attributed observability
//!
//! The measurement substrate for the lightweight-VMM reproduction. Every
//! number the benches report (Fig. 3.1 CPU loads, exit-cost ablations,
//! debug-latency tables) flows through this crate, which guarantees two
//! properties end to end:
//!
//! 1. **Simulated time only.** All timestamps in traces, journals and
//!    histograms are simulated cycles. The one deliberate exception is the
//!    host-time self-profiler ([`HostProf`]), whose totals the metrics
//!    snapshot ([`MetricsSnapshot`]) copies out: it *does* read host
//!    clocks, but those reads flow only into its own side buffers — never
//!    into machine state, cycle accounting, traces or journals — so every
//!    deterministic export stays a pure function of the run.
//! 2. **Observation never perturbs.** Recording writes only to side
//!    buffers; enabling or disabling tracing cannot change simulation
//!    state, so determinism is preserved — and *testable*, because two
//!    identical runs must export byte-identical traces.
//!
//! ## Event taxonomy
//!
//! [`EventKind`] is the one event type: the trace ring, the journal and the
//! causal tracker all hold it, and [`Recorder::emit`] routes each kind with
//! one match. The ring records while tracing is on, the journal while
//! journaling is on; "causal only" kinds reach nothing unless causal
//! tracking is on, so runs without it keep their trace and journal bytes.
//!
//! | variant | payload | ring | journal token | causal |
//! |---|---|---|---|---|
//! | `VmExit` | [`ExitCause`] + monitor cycles | yes | — | — |
//! | `ShadowFault` | guest virtual address | yes | — | — |
//! | `Irq` | [`Dev`] + irq line | yes | `irq` | ends `disk`/`nic-tx`, begins `irq-dispatch` |
//! | `Dma` | [`Dev`] + byte count + FNV-1a payload digest | yes | `dma` | — |
//! | `Doorbell` | [`Dev`] + register offset | yes | `bell` | begins `disk`/`nic-tx` |
//! | `DebugCommand` | command byte | yes | `cmd` | — |
//! | `Fault` | fault-class code + class detail | yes | `fault` | — |
//! | `Log` | instruction address + condition value | yes | `log` | — |
//! | `Inta` | irq line | causal only | `inta`, causal only | ends `irq-dispatch`, begins `irq-service` |
//! | `Eoi` | — | causal only | `eoi`, causal only | ends `irq-service` |
//! | `Trace` | [`TraceOp`] + tracepoint id | yes | `trace` | begins/ends `span` |
//! | `IpiSend` | target core + line | — | — | begins `ipi` |
//! | `IpiDeliver` | target core + line | — | — | ends `ipi` |
//!
//! A `VmExit` also feeds the exit histograms and per-core exit counts,
//! whatever is enabled. The IPI pair stays out of the ring and the journal
//! because the send is already a PIC `Doorbell` and the delivery a PIC
//! `Irq`.
//!
//! Exit causes: `privileged`, `mmio`, `shadow`, `irq-reflect`,
//! `irq-inject`, `protection`, `debug`, and (hosted monitor only)
//! `host-relay`.
//!
//! ## Pieces
//!
//! - [`Recorder`] — one per machine; histograms always on, event ring and
//!   span track opt-in (`--trace`), journal opt-in (record mode).
//! - [`CausalTracker`]/[`Flow`]/[`FlowClass`] — deterministic causal
//!   tracing: flow IDs across asynchronous handoffs (IRQ raise→ISR→EOI,
//!   IPI send→delivery, disk/NIC command→completion, guest tracepoint
//!   spans) with per-class end-to-end latency histograms. Opt-in
//!   (`enable_causal`), fed by [`Recorder::emit`]; one `Option` check when off.
//!   [`CausalTracker::summary`] snapshots its counters and per-class
//!   percentiles as a [`FlowSummary`], the one shape every reader (the
//!   `qFlow` reply, `dbgctl`, `lwvmm-run --causal`) prints from.
//! - [`TraceRing`] — bounded event buffer that wraps keeping the newest
//!   events, with exact drop accounting.
//! - [`CycleHist`]/[`ExitHists`] — log2-bucket histograms with
//!   p50/p99/p99.9, replacing the monitors' flat exit counters.
//! - [`SpanTrack`] — guest/monitor/host-model/idle timeline whose totals
//!   reconcile exactly with the platform `TimeStats`.
//! - [`Profiler`]/[`SymbolMap`] — guest-aware deterministic profiler:
//!   per-symbol exact cycle attribution of the guest track, cycle-driven
//!   PC sampling and collapsed-stack flamegraph output.
//! - [`ChromeTrace`] — Perfetto-compatible JSON exporter.
//! - [`Report`] — the one table formatter (text + CSV) all bench binaries
//!   share.
//! - [`HostProf`]/[`HostPhase`] — host wall-clock self-profiler: attributes
//!   real nanoseconds across monitor phases (guest execution, per-cause
//!   exits, per-device emulation, journal, debug link) without ever feeding
//!   a host-time value back into the simulation.
//! - [`MetricsSnapshot`] — the counters, gauges and histograms a platform
//!   publishes, with Prometheus text exposition.
//!
//! ## Flight recorder
//!
//! - [`Journal`] — the record/replay journal: every nondeterministic input
//!   (UART bytes, NIC RX frames) with payloads, plus an unbounded stream of
//!   the journaled [`EventKind`]s (see the table above) for divergence
//!   auditing. Text-serializable.
//! - [`audit`]/[`first_divergence`] — per-device-stream comparison of two
//!   journals, reporting the first point where runs disagree.
//!
//! Replaying a journal and time travel need a live platform, so they live
//! with the lightweight monitor (`lvmm::replay`): its `ReplayDriver`
//! re-injects a journal's inputs, and its `FlightRecorder` keeps the
//! full-state checkpoints that seeks restore.

pub mod causal;
pub mod chrome;
pub mod event;
pub mod hist;
pub mod hostprof;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod recorder;
pub mod report;
pub mod ring;
pub mod span;

pub use causal::{CausalTracker, Flow, FlowClass, FlowSummary, TraceOp};
pub use chrome::ChromeTrace;
pub use event::{Dev, EventKind, ExitCause, TraceEvent};
pub use hist::{CycleHist, ExitHists};
pub use hostprof::{HostAttribution, HostPhase, HostProf};
pub use journal::{
    audit, digest, first_divergence, fnv1a, Divergence, DivergenceMode, EventRecord, InputRecord,
    Journal, JournalInput, JournalParseError, StreamAudit,
};
pub use metrics::MetricsSnapshot;
pub use prof::{Profiler, SymbolMap};
pub use recorder::Recorder;
pub use report::{Align, Report};
pub use ring::TraceRing;
pub use span::{Span, SpanTrack, Track};

/// Compile-time proof the observability state stays [`Send`]: recorders,
/// journals and causal trackers ride inside machines that the debug farm
/// moves across worker threads.
#[allow(dead_code)]
fn assert_send_types() {
    fn is_send<T: Send>() {}
    is_send::<Recorder>();
    is_send::<Journal>();
    is_send::<CausalTracker>();
    is_send::<Profiler>();
    is_send::<HostProf>();
}
