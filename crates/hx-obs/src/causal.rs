//! Deterministic causal tracing: flow IDs across asynchronous handoffs.
//!
//! A **flow** connects the two ends of one asynchronous handoff in the
//! machine — a device raising an interrupt line and the guest entering the
//! ISR, an IPI send on one core and its delivery on another, a disk command
//! doorbell and the completion interrupt, a guest tracepoint `begin` and its
//! matching `end`. Each completed flow carries a monotonically assigned ID,
//! both endpoints' cycles and cores, and feeds a per-class end-to-end
//! latency histogram.
//!
//! Everything here is a pure function of the simulated run: flow IDs are
//! assigned in observation order, timestamps are simulated cycles, and no
//! collection iterates in nondeterministic order — so two identical runs
//! (or a recording and its replay) produce byte-identical flow exports.
//! The tracker is plain data and clones with the recorder, which is what
//! lets flight-recorder time travel rewind causal state along with the
//! machine.
//!
//! ## Flow classes and their assignment rules
//!
//! | class | begins at | ends at | key |
//! |---|---|---|---|
//! | `irq-dispatch` | device asserts a PIC line | guest ISR entry (INTA) | IRQ line |
//! | `irq-service` | guest ISR entry | guest EOI write | IRQ line (LIFO) |
//! | `ipi` | IPI send MMIO write | delivery on the target core | target·line |
//! | `disk` | disk `CMD` doorbell | completion IRQ assert | IRQ line of the unit |
//! | `nic-tx` | NIC `TX_TAIL` doorbell | TX-done IRQ assert (drains all) | — |
//! | `span` | guest `TRACE` begin | guest `TRACE` end (LIFO per id) | tracepoint id |
//!
//! Re-assertion of an already-pending IRQ line keeps the *earliest* raise
//! (dispatch latency is measured from the first assertion); a TX-done
//! interrupt completes *every* pending `nic-tx` flow, because interrupt
//! moderation deliberately coalesces completions. Ends without a matching
//! begin (an EOI with an empty service stack, a span `end` with no `begin`)
//! are counted as orphans, never recorded as flows.

use crate::event::{Dev, EventKind};
use crate::hist::CycleHist;

/// IRQ-line and register constants mirrored from the machine's memory map.
/// `hx-obs` sits below `hx-machine` in the crate graph, so it cannot import
/// `hx_machine::map` — but the line assignments are part of the frozen
/// platform contract (guest kernels hard-code them too), so mirroring them
/// here is mirroring an ABI, not duplicating a tunable.
mod contract {
    /// First disk unit's completion line (`map::irq::HDC0`).
    pub const HDC0_LINE: u32 = 2;
    /// NIC transmit-completion line (`map::irq::NIC_TX`).
    pub const NIC_TX_LINE: u32 = 5;
    /// NIC TX doorbell register offset (`nic::reg::TX_TAIL`).
    pub const NIC_TX_TAIL: u32 = 0x0c;
    /// Byte stride between disk-unit register blocks.
    pub const HDC_UNIT_STRIDE: u32 = 0x40;
}

/// The kind of asynchronous handoff a flow spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowClass {
    /// Device IRQ assert → guest ISR entry.
    IrqDispatch,
    /// Guest ISR entry → guest EOI write.
    IrqService,
    /// IPI send → delivery on the target core.
    Ipi,
    /// Disk command doorbell → completion IRQ assert.
    Disk,
    /// NIC TX doorbell → TX-done IRQ assert.
    NicTx,
    /// Guest tracepoint begin → end.
    Span,
}

impl FlowClass {
    pub const ALL: [FlowClass; 6] = [
        FlowClass::IrqDispatch,
        FlowClass::IrqService,
        FlowClass::Ipi,
        FlowClass::Disk,
        FlowClass::NicTx,
        FlowClass::Span,
    ];

    pub const COUNT: usize = Self::ALL.len();

    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).unwrap()
    }

    pub fn label(self) -> &'static str {
        match self {
            FlowClass::IrqDispatch => "irq-dispatch",
            FlowClass::IrqService => "irq-service",
            FlowClass::Ipi => "ipi",
            FlowClass::Disk => "disk",
            FlowClass::NicTx => "nic-tx",
            FlowClass::Span => "span",
        }
    }
}

/// A guest tracepoint operation (the three registers of the `TRACE` page).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// Opens a span for the written id.
    Begin,
    /// Closes the most recent open span with the written id.
    End,
    /// A point event; never opens or closes a flow.
    Instant,
}

impl TraceOp {
    /// One-character journal code.
    pub fn code(self) -> &'static str {
        match self {
            TraceOp::Begin => "b",
            TraceOp::End => "e",
            TraceOp::Instant => "i",
        }
    }

    pub fn parse(s: &str) -> Option<TraceOp> {
        match s {
            "b" => Some(TraceOp::Begin),
            "e" => Some(TraceOp::End),
            "i" => Some(TraceOp::Instant),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            TraceOp::Begin => "begin",
            TraceOp::End => "end",
            TraceOp::Instant => "instant",
        }
    }
}

/// One completed flow: both endpoints of a single asynchronous handoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flow {
    /// Monotonic id, assigned at the flow's *begin* in observation order.
    pub id: u64,
    pub class: FlowClass,
    /// Class-specific key: IRQ line, `target<<8|line` for IPIs, tracepoint
    /// id for spans, 0 for `nic-tx`.
    pub key: u32,
    /// Simulated cycle of the begin endpoint.
    pub begin: u64,
    /// Simulated cycle of the end endpoint (`>= begin`).
    pub end: u64,
    /// Core the begin endpoint was observed on.
    pub begin_core: u8,
    /// Core the end endpoint was observed on.
    pub end_core: u8,
}

impl Flow {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> u64 {
        self.end - self.begin
    }
}

/// Plain-data snapshot of a [`CausalTracker`]'s counters and per-class
/// latencies. Every value is a pure function of the simulated run, so it
/// can ship over a wire (the `qFlow` reply, `rdbg::Reply::Flow`, carries
/// it as is) without leaking host nondeterminism.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowSummary {
    /// Completed flows across all classes (histograms also count the flows
    /// whose records were dropped past [`CausalTracker::MAX_FLOWS`]).
    pub completed: u64,
    /// Completed flows dropped after the flow buffer filled.
    pub dropped: u64,
    /// Ends that arrived with nothing pending to close.
    pub orphan_ends: u64,
    /// Guest instant tracepoints observed.
    pub instants: u64,
    /// Per-class `(n, p50, p99, max)` latency in cycles, in
    /// [`FlowClass::ALL`] order.
    pub classes: [(u64, u64, u64, u64); FlowClass::COUNT],
}

/// A begin endpoint waiting for its end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pending {
    id: u64,
    at: u64,
    core: u8,
}

/// The causal tracker: pending begin endpoints, completed flows, and
/// per-class latency histograms. One per [`crate::Recorder`], enabled
/// explicitly and fed through [`CausalTracker::observe`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CausalTracker {
    next_id: u64,
    flows: Vec<Flow>,
    /// Completed flows beyond [`CausalTracker::MAX_FLOWS`] (histograms
    /// still record them; only the per-flow record is dropped).
    dropped_flows: u64,
    /// Ends that arrived with no matching begin, out of order (before
    /// their begin), or with an unpackable IPI key.
    orphan_ends: u64,
    /// Begins evicted because a pending set hit its cap.
    dropped_pending: u64,
    /// Instant tracepoints observed (never flows).
    instants: u64,
    hists: [CycleHist; FlowClass::COUNT],
    /// Pending IRQ raises, keyed by line; at most one per line (the
    /// earliest assertion wins).
    irq_pending: Vec<(u32, Pending)>,
    /// In-service IRQs, a LIFO stack: EOI closes the most recent entry.
    service: Vec<(u32, Pending)>,
    /// In-flight IPIs, FIFO per `target<<8|line` key.
    ipi_pending: Vec<(u32, Pending)>,
    /// In-flight disk commands, FIFO per completion-line key.
    disk_pending: Vec<(u32, Pending)>,
    /// In-flight TX doorbells; a TX-done interrupt drains all of them.
    nic_tx_pending: Vec<Pending>,
    /// Open tracepoint spans; `end` closes the most recent with its id.
    span_pending: Vec<(u32, Pending)>,
}

impl CausalTracker {
    /// Completed-flow records kept; beyond this, histograms keep counting
    /// but per-flow records are dropped (and counted).
    pub const MAX_FLOWS: usize = 65_536;
    /// Cap on each pending set; the oldest entry is evicted past it.
    const MAX_PENDING: usize = 1_024;

    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, at: u64, core: u8) -> Pending {
        let id = self.next_id;
        self.next_id += 1;
        Pending { id, at, core }
    }

    fn finish(&mut self, class: FlowClass, key: u32, p: Pending, at: u64, core: u8) {
        // An end landing *before* its begin can only come from a
        // non-monotonic caller; clamping it to a 0-cycle latency would
        // silently poison the histograms (and `Flow::latency`'s `end >=
        // begin` contract), so the pairing is discarded and counted as an
        // orphan instead.
        if at < p.at {
            self.orphan_ends += 1;
            return;
        }
        self.hists[class.index()].record(at - p.at);
        if self.flows.len() < Self::MAX_FLOWS {
            self.flows.push(Flow {
                id: p.id,
                class,
                key,
                begin: p.at,
                end: at,
                begin_core: p.core,
                end_core: core,
            });
        } else {
            self.dropped_flows += 1;
        }
    }

    fn push_pending(vec: &mut Vec<(u32, Pending)>, key: u32, p: Pending, dropped: &mut u64) {
        if vec.len() >= Self::MAX_PENDING {
            vec.remove(0);
            *dropped += 1;
        }
        vec.push((key, p));
    }

    /// Observes one event on `core` at cycle `at`. Only the kinds that
    /// open or close a handoff do anything; the rest (exits, DMA, stub
    /// commands, faults, logpoints) carry none and are ignored.
    pub fn observe(&mut self, at: u64, core: u8, ev: &EventKind) {
        match *ev {
            EventKind::Irq { dev, irq } => self.device_irq(at, core, dev, irq),
            EventKind::Doorbell { dev, reg } => self.doorbell(at, core, dev, reg),
            EventKind::Inta { irq } => self.inta(at, core, irq),
            EventKind::Eoi => self.eoi(at, core),
            EventKind::IpiSend { target, line } => self.ipi_send(at, core, target, line),
            EventKind::IpiDeliver { target, line } => self.ipi_deliver(at, target, line),
            EventKind::Trace { op, id } => self.tracepoint(at, core, op, id),
            _ => {}
        }
    }

    /// A device asserted IRQ line `irq`: ends any disk/NIC command flow the
    /// assertion completes, then opens an `irq-dispatch` flow for the line
    /// (unless one is already pending — the earliest raise wins).
    fn device_irq(&mut self, at: u64, core: u8, dev: Dev, irq: u32) {
        match dev {
            // PIC "raises" are IPI deliveries or injected bursts; IPIs are
            // tracked by their own events and bursts have no device cause.
            Dev::Pic => return,
            Dev::Hdc => {
                if let Some(i) = self.disk_pending.iter().position(|(k, _)| *k == irq) {
                    let (key, p) = self.disk_pending.remove(i);
                    self.finish(FlowClass::Disk, key, p, at, core);
                }
            }
            Dev::Nic if irq == contract::NIC_TX_LINE => {
                // Interrupt moderation coalesces completions: one TX-done
                // interrupt retires every in-flight TX doorbell.
                for p in std::mem::take(&mut self.nic_tx_pending) {
                    self.finish(FlowClass::NicTx, 0, p, at, core);
                }
            }
            _ => {}
        }
        if !self.irq_pending.iter().any(|(k, _)| *k == irq) {
            let p = self.begin(at, core);
            Self::push_pending(&mut self.irq_pending, irq, p, &mut self.dropped_pending);
        }
    }

    /// The guest rang a device doorbell: disk `CMD` writes open a `disk`
    /// flow keyed by the unit's completion line, NIC `TX_TAIL` writes open
    /// a `nic-tx` flow. Other doorbells carry no tracked handoff.
    fn doorbell(&mut self, at: u64, core: u8, dev: Dev, reg: u32) {
        match dev {
            Dev::Hdc => {
                let key = contract::HDC0_LINE + reg / contract::HDC_UNIT_STRIDE;
                let p = self.begin(at, core);
                Self::push_pending(&mut self.disk_pending, key, p, &mut self.dropped_pending);
            }
            Dev::Nic if reg == contract::NIC_TX_TAIL => {
                if self.nic_tx_pending.len() >= Self::MAX_PENDING {
                    self.nic_tx_pending.remove(0);
                    self.dropped_pending += 1;
                }
                let p = self.begin(at, core);
                self.nic_tx_pending.push(p);
            }
            _ => {}
        }
    }

    /// The guest entered the ISR for line `irq` (architectural INTA on raw
    /// hardware, virtual-PIC INTA at injection under a monitor): completes
    /// the line's `irq-dispatch` flow and opens its `irq-service` flow.
    fn inta(&mut self, at: u64, core: u8, irq: u32) {
        if let Some(i) = self.irq_pending.iter().position(|(k, _)| *k == irq) {
            let (key, p) = self.irq_pending.remove(i);
            self.finish(FlowClass::IrqDispatch, key, p, at, core);
        }
        let p = self.begin(at, core);
        Self::push_pending(&mut self.service, irq, p, &mut self.dropped_pending);
    }

    /// The guest wrote the PIC EOI register: completes the most recent
    /// `irq-service` flow (ISRs nest LIFO).
    fn eoi(&mut self, at: u64, core: u8) {
        match self.service.pop() {
            Some((key, p)) => self.finish(FlowClass::IrqService, key, p, at, core),
            None => self.orphan_ends += 1,
        }
    }

    /// Packs an IPI `(target, line)` pair into a flow key. The key layout
    /// is `target << 8 | line`, so `line` must fit in 8 bits — a wider
    /// value would silently alias another pair's key and cross-match
    /// unrelated sends and deliveries. Out-of-range lines are rejected
    /// (`None`); release builds degrade gracefully while debug builds trap
    /// the programming error at the source.
    fn ipi_key(target: u8, line: u32) -> Option<u32> {
        if line > 0xff {
            debug_assert!(false, "IPI line {line} does not fit the 8-bit key field");
            return None;
        }
        Some(((target as u32) << 8) | line)
    }

    /// An IPI send was issued toward `target`, line `line`. A line that
    /// cannot be packed into the key is counted as a dropped begin rather
    /// than aliased onto another `(target, line)` pair.
    fn ipi_send(&mut self, at: u64, core: u8, target: u8, line: u32) {
        let Some(key) = Self::ipi_key(target, line) else {
            self.dropped_pending += 1;
            return;
        };
        let p = self.begin(at, core);
        Self::push_pending(&mut self.ipi_pending, key, p, &mut self.dropped_pending);
    }

    /// An IPI was delivered to `target` (startup or pending-mask latch):
    /// completes the oldest in-flight send with the same target and line.
    /// An unpackable line is counted as an orphan end.
    fn ipi_deliver(&mut self, at: u64, target: u8, line: u32) {
        let Some(key) = Self::ipi_key(target, line) else {
            self.orphan_ends += 1;
            return;
        };
        match self.ipi_pending.iter().position(|(k, _)| *k == key) {
            Some(i) => {
                let (key, p) = self.ipi_pending.remove(i);
                self.finish(FlowClass::Ipi, key, p, at, target);
            }
            None => self.orphan_ends += 1,
        }
    }

    /// The guest wrote a `TRACE`-page register: `begin` opens a span for
    /// `id`, `end` closes the most recent open span with that id, and
    /// `instant` is counted but never opens a flow.
    fn tracepoint(&mut self, at: u64, core: u8, op: TraceOp, id: u32) {
        match op {
            TraceOp::Begin => {
                let p = self.begin(at, core);
                Self::push_pending(&mut self.span_pending, id, p, &mut self.dropped_pending);
            }
            TraceOp::End => match self.span_pending.iter().rposition(|(k, _)| *k == id) {
                Some(i) => {
                    let (key, p) = self.span_pending.remove(i);
                    self.finish(FlowClass::Span, key, p, at, core);
                }
                None => self.orphan_ends += 1,
            },
            TraceOp::Instant => self.instants += 1,
        }
    }

    /// Completed flows, in completion order.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Latency histogram for one flow class.
    pub fn hist(&self, class: FlowClass) -> &CycleHist {
        &self.hists[class.index()]
    }

    /// The counters and per-class latencies, as one plain-data snapshot.
    pub fn summary(&self) -> FlowSummary {
        FlowSummary {
            completed: self.hists.iter().map(|h| h.count()).sum(),
            dropped: self.dropped_flows,
            orphan_ends: self.orphan_ends,
            instants: self.instants,
            classes: self
                .hists
                .each_ref()
                .map(|h| (h.count(), h.p50(), h.p99(), h.max())),
        }
    }

    /// Begins evicted by a full pending set or rejected outright (e.g. an
    /// IPI line that does not fit the key field).
    pub fn dropped_pending(&self) -> u64 {
        self.dropped_pending
    }

    /// The causal chain ending at `flow`: walks begin→end adjacency
    /// backwards, collecting every flow whose end coincides (same cycle)
    /// with the current flow's begin — e.g. a disk completion IRQ assert
    /// ends the `disk` flow at the exact cycle the `irq-dispatch` flow
    /// begins. Returns the chain oldest-first, `flow` last.
    pub fn chain_to(&self, flow: &Flow) -> Vec<Flow> {
        let mut chain = vec![*flow];
        let mut cursor = *flow;
        // Bounded by the chain length; each step moves strictly back in time
        // or stops.
        while let Some(prev) = self
            .flows
            .iter()
            .find(|f| f.end == cursor.begin && f.id != cursor.id && f.begin <= cursor.begin)
        {
            if chain.iter().any(|c| c.id == prev.id) {
                break;
            }
            chain.push(*prev);
            cursor = *prev;
        }
        chain.reverse();
        chain
    }

    /// The last flow whose end is at or before `cycle` (what `dbgctl flow
    /// --at` anchors its chain on).
    pub fn flow_ending_by(&self, cycle: u64) -> Option<&Flow> {
        self.flows
            .iter()
            .filter(|f| f.end <= cycle)
            .max_by_key(|f| (f.end, f.id))
    }

    /// One-line text summary per non-empty class (the `lwvmm-run --causal`
    /// report body).
    pub fn summary_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for class in FlowClass::ALL {
            let h = self.hist(class);
            if h.count() == 0 {
                continue;
            }
            out.push(format!(
                "{:<12} n={:<6} min={:<6} p50={:<6} p99={:<8} max={:<8} mean={}",
                class.label(),
                h.count(),
                h.min(),
                h.p50(),
                h.p99(),
                h.max(),
                h.mean()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irq_raise_to_inta_to_eoi_makes_two_chained_flows() {
        let mut c = CausalTracker::new();
        c.device_irq(100, 0, Dev::Pit, 0);
        c.device_irq(110, 0, Dev::Pit, 0); // re-assert: earliest raise wins
        c.inta(150, 0, 0);
        c.eoi(200, 0);
        let flows = c.flows();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].class, FlowClass::IrqDispatch);
        assert_eq!((flows[0].begin, flows[0].end), (100, 150));
        assert_eq!(flows[1].class, FlowClass::IrqService);
        assert_eq!((flows[1].begin, flows[1].end), (150, 200));
        assert_eq!(c.hist(FlowClass::IrqDispatch).max(), 50);
        assert_eq!(c.hist(FlowClass::IrqService).max(), 50);
        assert_eq!(c.summary().orphan_ends, 0);
        // The chain from the service flow walks back through the dispatch.
        let chain = c.chain_to(&flows[1]);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].class, FlowClass::IrqDispatch);
    }

    #[test]
    fn nested_isrs_are_serviced_lifo() {
        let mut c = CausalTracker::new();
        c.inta(1000, 0, 0);
        c.inta(1200, 0, 5); // nested: entered later, EOI'd first
        c.eoi(1300, 0);
        c.eoi(1900, 0);
        c.eoi(2000, 0); // spurious: an orphan end, not a flow
        let service: Vec<(u32, u64)> = c
            .flows()
            .iter()
            .filter(|f| f.class == FlowClass::IrqService)
            .map(|f| (f.key, f.latency()))
            .collect();
        assert_eq!(service, vec![(5, 100), (0, 900)]);
        assert_eq!(c.summary().orphan_ends, 1);
    }

    #[test]
    fn disk_command_chains_into_its_completion_irq() {
        let mut c = CausalTracker::new();
        c.doorbell(1_000, 0, Dev::Hdc, 0x4c); // unit 1 CMD
        c.device_irq(9_000, 0, Dev::Hdc, 3); // unit 1 completion line
        c.inta(9_040, 0, 3);
        let flows = c.flows();
        assert_eq!(flows[0].class, FlowClass::Disk);
        assert_eq!(flows[0].key, 3);
        assert_eq!(flows[0].latency(), 8_000);
        assert_eq!(flows[1].class, FlowClass::IrqDispatch);
        // disk.end == irq-dispatch.begin: the chain links them.
        let chain = c.chain_to(&flows[1]);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].class, FlowClass::Disk);
    }

    #[test]
    fn tx_done_drains_all_moderated_doorbells() {
        let mut c = CausalTracker::new();
        c.doorbell(10, 0, Dev::Nic, 0x0c);
        c.doorbell(20, 0, Dev::Nic, 0x0c);
        c.doorbell(30, 0, Dev::Nic, 0x2c); // RX_TAIL: not a TX flow
        c.device_irq(90, 0, Dev::Nic, 5);
        let tx: Vec<_> = c
            .flows()
            .iter()
            .filter(|f| f.class == FlowClass::NicTx)
            .collect();
        assert_eq!(tx.len(), 2);
        assert!(tx.iter().all(|f| f.end == 90));
    }

    #[test]
    fn ipi_send_completes_on_target_core() {
        let mut c = CausalTracker::new();
        c.ipi_send(500, 0, 1, 0);
        c.ipi_deliver(564, 1, 0);
        let f = c.flows()[0];
        assert_eq!(f.class, FlowClass::Ipi);
        assert_eq!((f.begin_core, f.end_core), (0, 1));
        assert_eq!(f.latency(), 64);
        // Unmatched delivery is an orphan, not a flow.
        c.ipi_deliver(600, 1, 3);
        assert_eq!(c.summary().orphan_ends, 1);
    }

    #[test]
    fn out_of_order_end_is_an_orphan_not_a_zero_latency() {
        let mut c = CausalTracker::new();
        c.device_irq(100, 0, Dev::Pit, 5);
        // The INTA claims to happen *before* the raise. The old code
        // clamped this to a 0-cycle latency; it must instead be counted
        // and kept out of the histograms entirely.
        c.inta(40, 0, 5);
        assert_eq!(c.hist(FlowClass::IrqDispatch).count(), 0);
        assert_eq!(c.summary().orphan_ends, 1);
        assert!(c.flows().is_empty());
        // The service flow the INTA opened still pairs normally.
        c.eoi(90, 0);
        assert_eq!(c.hist(FlowClass::IrqService).count(), 1);
        assert_eq!(c.hist(FlowClass::IrqService).min(), 50);
        // The reconciliation invariant survives the rejection.
        let s = c.summary();
        assert_eq!(s.completed, c.flows().len() as u64 + s.dropped);
    }

    #[test]
    fn ipi_key_packs_target_and_line() {
        assert_eq!(CausalTracker::ipi_key(2, 0xff), Some(0x2ff));
        assert_eq!(CausalTracker::ipi_key(0, 0), Some(0));
        assert_eq!(CausalTracker::ipi_key(3, 7), Some(0x307));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "8-bit key field"))]
    fn ipi_line_out_of_range_is_rejected_not_aliased() {
        let mut c = CausalTracker::new();
        // Unchecked packing would turn (1, 0x200) into key 0x300 — the
        // same key as (3, 0). Debug builds trap the bad line at the send;
        // release builds drop it and never cross-match the (3, 0) deliver.
        c.ipi_send(10, 0, 1, 0x200);
        assert_eq!(c.dropped_pending(), 1);
        c.ipi_deliver(20, 3, 0);
        assert!(c.flows().is_empty());
        assert_eq!(c.hist(FlowClass::Ipi).count(), 0);
        assert_eq!(c.summary().orphan_ends, 1);
        // An out-of-range line on the deliver side is an orphan too.
        c.ipi_deliver(30, 1, 0x200);
        assert_eq!(c.summary().orphan_ends, 2);
    }

    #[test]
    fn spans_nest_lifo_per_id_and_instants_never_flow() {
        let mut c = CausalTracker::new();
        c.tracepoint(10, 0, TraceOp::Begin, 7);
        c.tracepoint(20, 0, TraceOp::Begin, 7);
        c.tracepoint(25, 0, TraceOp::Instant, 9);
        c.tracepoint(30, 1, TraceOp::End, 7); // closes the 20-begin
        c.tracepoint(40, 0, TraceOp::End, 7); // closes the 10-begin
        c.tracepoint(50, 0, TraceOp::End, 7); // orphan
        let spans: Vec<_> = c
            .flows()
            .iter()
            .filter(|f| f.class == FlowClass::Span)
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].begin, spans[0].end, spans[0].end_core),
            (20, 30, 1)
        );
        assert_eq!((spans[1].begin, spans[1].end), (10, 40));
        assert_eq!(c.summary().instants, 1);
        assert_eq!(c.summary().orphan_ends, 1);
    }

    #[test]
    fn flow_ending_by_anchors_on_the_latest_completed_flow() {
        let mut c = CausalTracker::new();
        c.device_irq(100, 0, Dev::Pit, 0);
        c.inta(150, 0, 0);
        c.eoi(220, 0);
        assert!(c.flow_ending_by(99).is_none());
        assert_eq!(c.flow_ending_by(150).unwrap().class, FlowClass::IrqDispatch);
        assert_eq!(
            c.flow_ending_by(10_000).unwrap().class,
            FlowClass::IrqService
        );
    }

    #[test]
    fn summary_lists_only_non_empty_classes() {
        let mut c = CausalTracker::new();
        assert!(c.summary_lines().is_empty());
        c.device_irq(100, 0, Dev::Pit, 0);
        c.inta(150, 0, 0);
        let lines = c.summary_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("irq-dispatch"));
    }

    #[test]
    fn summary_snapshots_counters_and_per_class_latency() {
        let mut c = CausalTracker::new();
        assert_eq!(c.summary(), FlowSummary::default());
        c.device_irq(100, 0, Dev::Pit, 0);
        c.inta(150, 0, 0);
        c.eoi(400, 0);
        c.eoi(500, 0);
        c.tracepoint(600, 0, TraceOp::Instant, 1);
        let s = c.summary();
        assert_eq!(
            (s.completed, s.dropped, s.orphan_ends, s.instants),
            (2, 0, 1, 1)
        );
        for class in FlowClass::ALL {
            let h = c.hist(class);
            assert_eq!(
                s.classes[class.index()],
                (h.count(), h.p50(), h.p99(), h.max()),
                "{}",
                class.label()
            );
        }
        assert_eq!(s.classes[FlowClass::IrqDispatch.index()].0, 1);
        assert_eq!(s.classes[FlowClass::IrqService.index()].0, 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_event() -> impl Strategy<Value = EventKind> {
            let dev =
                || proptest::sample::select(&[Dev::Nic, Dev::Hdc, Dev::Pit, Dev::Uart, Dev::Pic]);
            let op = proptest::sample::select(&[TraceOp::Begin, TraceOp::End, TraceOp::Instant]);
            prop_oneof![
                (dev(), 0u32..8).prop_map(|(dev, irq)| EventKind::Irq { dev, irq }),
                (dev(), 0u32..0x100).prop_map(|(dev, reg)| EventKind::Doorbell { dev, reg }),
                (0u32..8).prop_map(|irq| EventKind::Inta { irq }),
                Just(EventKind::Eoi),
                (0u8..4, 0u32..8).prop_map(|(target, line)| EventKind::IpiSend { target, line }),
                (0u8..4, 0u32..8).prop_map(|(target, line)| EventKind::IpiDeliver { target, line }),
                (op, 0u32..16).prop_map(|(op, id)| EventKind::Trace { op, id }),
            ]
        }

        proptest! {
            // Every emitted flow is well-formed: begin <= end, unique ids,
            // and the histogram counts reconcile with the flow records.
            #[test]
            fn flows_are_well_formed(
                events in proptest::collection::vec((arb_event(), 0u64..100, 0u8..4), 0..200),
            ) {
                let mut c = CausalTracker::new();
                let mut now = 0u64;
                for (ev, dt, core) in events {
                    now += dt;
                    c.observe(now, core, &ev);
                }
                let mut seen = std::collections::HashSet::new();
                for f in c.flows() {
                    prop_assert!(f.begin <= f.end, "flow {f:?} ends before it begins");
                    prop_assert!(seen.insert(f.id), "duplicate flow id {}", f.id);
                    prop_assert!(f.latency() == f.end - f.begin);
                }
                prop_assert_eq!(
                    c.summary().completed,
                    c.flows().len() as u64 + c.summary().dropped
                );
                // Determinism: rebuilding from the same calls is identical.
                // (Cheap to assert here because the tracker is PartialEq.)
                prop_assert_eq!(&c, &c.clone());
            }
        }
    }
}
