//! Causal-tracing end-to-end tests: flow events and latency histograms are
//! a pure function of the simulated run — byte-identical between record and
//! replay on every platform at every core count — and the guest-visible
//! machine is bit-identical whether or not a tracker is watching.

use lwvmm::guest::{apps, kernel::layout, Workload};
use lwvmm::machine::{Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::{LvmmPlatform, ReplayDriver, UartLink};
use lwvmm::obs::{ChromeTrace, FlowClass, Journal};

const KINDS: [&str; 3] = ["real-hw", "lvmm", "hosted"];

/// A `kind` platform running the single-core streaming workload (1 core)
/// or the cross-core tracepoint demo guest (2+ cores), with causal-flow
/// tracking optionally enabled.
fn platform(kind: &str, cores: usize, causal: bool) -> Box<dyn Platform> {
    let mut machine = Machine::new(MachineConfig {
        num_cores: cores,
        ..MachineConfig::default()
    });
    let (program, entry) = if cores > 1 {
        let p = apps::smp_trace_guest();
        let e = p.symbols.get("start").unwrap();
        (p, e)
    } else {
        (Workload::new(100).build(&machine).unwrap(), layout::ENTRY)
    };
    machine.load_program(&program);
    if causal {
        machine.obs.enable_tracing();
        machine.obs.enable_causal();
    }
    match kind {
        "real-hw" => Box::new(RawPlatform::new(machine)),
        "lvmm" => Box::new(LvmmPlatform::new(machine, entry)),
        "hosted" => Box::new(lwvmm::hosted::HostedPlatform::new(machine, entry)),
        other => panic!("unknown platform {other}"),
    }
}

/// Everything causal a run produced, as comparable bytes: the flow list,
/// the per-class histogram summaries, and the full Chrome trace.
fn causal_bytes(p: &dyn Platform) -> (String, String, String) {
    let c = p.machine().obs.causal().expect("causal enabled");
    let mut chrome = ChromeTrace::new();
    chrome.add_platform(1, "run", &p.machine().obs);
    (
        format!("{:?}", c.flows()),
        c.summary_lines().join("\n"),
        chrome.finish(),
    )
}

/// The tentpole acceptance check: on all three platforms, at one and two
/// cores, replaying a recorded journal on a fresh causal-enabled platform
/// reproduces byte-identical flows, histograms and Chrome trace — and the
/// same guest RAM.
#[test]
fn flows_replay_byte_identically_on_all_platforms_and_core_counts() {
    for kind in KINDS {
        for cores in [1usize, 2] {
            let mut rec = platform(kind, cores, true);
            let cores = rec.machine().num_cores();
            rec.machine_mut().obs.enable_journal(kind, cores);
            let per_ms = rec.machine().config().clock_hz / 1_000;
            rec.run_for(10 * per_ms);
            let end = rec.machine().now();
            let mut journal: Journal = rec.machine().obs.journal().cloned().unwrap();
            journal.seal(end);
            let (flows_a, hists_a, chrome_a) = causal_bytes(rec.as_ref());
            assert!(
                !rec.machine().obs.causal().unwrap().flows().is_empty(),
                "{kind}/{cores}: the run produced flows"
            );

            let mut rep = platform(kind, cores, true);
            let reached = ReplayDriver::new(&journal).run(rep.as_mut());
            assert_eq!(reached, end, "{kind}/{cores}: replay reaches the end");
            let (flows_b, hists_b, chrome_b) = causal_bytes(rep.as_ref());
            assert_eq!(flows_a, flows_b, "{kind}/{cores}: flow bytes");
            assert_eq!(hists_a, hists_b, "{kind}/{cores}: histogram bytes");
            assert_eq!(chrome_a, chrome_b, "{kind}/{cores}: chrome trace bytes");
            assert_eq!(
                rec.machine().mem.as_bytes(),
                rep.machine().mem.as_bytes(),
                "{kind}/{cores}: guest RAM"
            );
        }
    }
}

/// Causal tracking is observation-only: with the tracker on or off, the
/// guest retires the same instructions into the same RAM image, and the
/// tracepoint-emitting guest makes the same progress. (The journal gains
/// ISR records when the tracker is on — that is recorded *output*, not a
/// perturbation; this test pins the machine itself.)
#[test]
fn causal_tracking_is_simulation_invisible() {
    for kind in KINDS {
        for cores in [1usize, 2] {
            let run = |causal: bool| {
                let mut p = platform(kind, cores, causal);
                let per_ms = p.machine().config().clock_hz / 1_000;
                p.run_for(10 * per_ms);
                (
                    p.machine().now(),
                    p.machine().total_instret(),
                    p.machine().mem.as_bytes().to_vec(),
                )
            };
            let (now_off, instret_off, ram_off) = run(false);
            let (now_on, instret_on, ram_on) = run(true);
            assert_eq!(now_off, now_on, "{kind}/{cores}: clock");
            assert_eq!(instret_off, instret_on, "{kind}/{cores}: instructions");
            assert_eq!(ram_off, ram_on, "{kind}/{cores}: guest RAM");
        }
    }
}

/// Guest tracepoints are plain journaled MMIO: a causal-off recording of
/// the tracepoint guest replays to an identical RAM image on a causal-off
/// platform, and its journal carries the trace stream for offline queries.
#[test]
fn tracepoints_record_and_replay_without_a_tracker() {
    let mut rec = platform("lvmm", 2, false);
    let cores = rec.machine().num_cores();
    rec.machine_mut().obs.enable_journal("lvmm", cores);
    let per_ms = rec.machine().config().clock_hz / 1_000;
    rec.run_for(10 * per_ms);
    let end = rec.machine().now();
    let mut journal = rec.machine().obs.journal().cloned().unwrap();
    journal.seal(end);
    let text = journal.save();
    assert!(
        text.contains(" trace b ") && text.contains(" trace e "),
        "guest tracepoints are journaled"
    );
    let acks = rec.machine().mem.word(apps::smp_layout::TRACE_ACK);
    assert!(acks > 0, "the demo guest made progress");

    let mut rep = platform("lvmm", 2, false);
    let reached = ReplayDriver::new(&journal).run(rep.as_mut());
    assert_eq!(reached, end);
    assert_eq!(rep.machine().mem.as_bytes(), rec.machine().mem.as_bytes());
}

/// Every flow a real run emits is well-formed, and the tracker's own
/// accounting reconciles: completions = kept flows + dropped flows.
#[test]
fn real_runs_emit_well_formed_flows() {
    for kind in KINDS {
        let mut p = platform(kind, 2, true);
        let per_ms = p.machine().config().clock_hz / 1_000;
        p.run_for(10 * per_ms);
        let c = p.machine().obs.causal().unwrap();
        let flows = c.flows();
        assert!(!flows.is_empty(), "{kind}: flows completed");
        for f in flows {
            assert!(f.begin <= f.end, "{kind}: start before end: {f:?}");
        }
        let mut ids: Vec<u64> = flows.iter().map(|f| f.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), flows.len(), "{kind}: flow ids unique");
        let s = c.summary();
        assert_eq!(
            s.completed,
            flows.len() as u64 + s.dropped,
            "{kind}: accounting reconciles"
        );
        // The demo guest's spans all cross from core 0 to core 1.
        assert!(
            flows
                .iter()
                .filter(|f| f.class == FlowClass::Span)
                .all(|f| (f.begin_core, f.end_core) == (0, 1)),
            "{kind}: spans cross cores"
        );
        assert!(c.hist(FlowClass::Ipi).count() > 0, "{kind}: IPI flows");
    }
}

/// `qFlow` over the live wire reports exactly what the tracker holds.
#[test]
fn qflow_samples_the_live_tracker() {
    assert_eq!(FlowClass::ALL.len(), FlowClass::COUNT);
    // Canonical order is schema on every surface (wire vector, JSON,
    // prometheus `class` label) — pin its head and tail.
    assert_eq!(FlowClass::ALL[0].label(), "irq-dispatch");
    assert_eq!(FlowClass::ALL[FlowClass::COUNT - 1].label(), "span");

    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    machine.obs.enable_tracing();
    machine.obs.enable_causal();
    let vmm = LvmmPlatform::new(machine, layout::ENTRY);
    let mut dbg = lwvmm::debugger::Debugger::new(UartLink::new(vmm));
    let per_ms = dbg.link_ref().platform.machine().config().clock_hz / 1_000;
    dbg.link_mut().platform.run_for(10 * per_ms);

    // Servicing the wire keeps the simulated clock ticking, so park the
    // guest first: no guest progress means no new flow completions between
    // the sample and the direct tracker read below.
    dbg.halt().expect("halt");
    let (now, s) = dbg.query_flow().expect("qFlow answers live");
    let machine = dbg.link_ref().platform.machine();
    assert!(now <= machine.now());
    let c = machine.obs.causal().unwrap();
    assert_eq!(s, c.summary());
    assert!(s.completed > 0, "the streaming run completed flows");
    for (i, &(n, p50, p99, max)) in s.classes.iter().enumerate() {
        let h = c.hist(FlowClass::ALL[i]);
        assert_eq!((n, p50, p99, max), (h.count(), h.p50(), h.p99(), h.max()));
    }
}

/// Without a tracker the stub answers `qFlow` with the dedicated error
/// code instead of wedging the session.
#[test]
fn qflow_without_tracker_is_rejected() {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    let vmm = LvmmPlatform::new(machine, layout::ENTRY);
    let mut dbg = lwvmm::debugger::Debugger::new(UartLink::new(vmm));
    dbg.link_mut().platform.run_for(50_000);
    // err::CAUSAL = 12.
    assert_eq!(
        dbg.query_flow().unwrap_err(),
        lwvmm::debugger::DbgError::Target(12)
    );
}
