//! SMP end-to-end tests: multi-core determinism and record/replay identity
//! on all three platforms, IPI delivery ordering, time travel over
//! multi-core state, and the cross-core race demo.

use lwvmm::debugger::{Debugger, StopReason};
use lwvmm::fault::{FaultKind, FaultPlan};
use lwvmm::guest::apps::{self, smp_layout};
use lwvmm::hosted::HostedPlatform;
use lwvmm::machine::{smp, Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::{LvmmPlatform, ReplayDriver, UartLink};
use lwvmm::obs::Journal;
use proptest::prelude::*;

const PLATFORMS: [&str; 3] = ["raw", "lvmm", "hosted"];

fn smp_machine(program: &lwvmm::asm::Program, cores: usize, quantum: u64) -> Machine {
    let mut m = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        num_cores: cores,
        sched_quantum: quantum,
        ..MachineConfig::default()
    });
    m.load_program(program);
    m
}

fn boot(
    kind: &str,
    program: &lwvmm::asm::Program,
    cores: usize,
    quantum: u64,
) -> Box<dyn Platform> {
    let machine = smp_machine(program, cores, quantum);
    let entry = program.symbols.get("start").expect("start symbol");
    match kind {
        "raw" => Box::new(RawPlatform::new(machine)),
        "lvmm" => Box::new(LvmmPlatform::new(machine, entry)),
        "hosted" => Box::new(HostedPlatform::new(machine, entry)),
        other => panic!("unknown platform {other}"),
    }
}

/// Per-core architectural state: pc, instret, register file.
type CoreState = (u32, u64, Vec<u32>);

/// Everything a run can influence: time, per-core architectural state and
/// the full RAM image (hashed down so failures print something readable).
fn fingerprint(p: &dyn Platform, cores: usize) -> (u64, Vec<CoreState>, u64) {
    use lwvmm::obs::journal::{fnv1a, FNV_OFFSET};
    let m = p.machine();
    let per_core = (0..cores)
        .map(|i| {
            let c = m.core(i);
            (c.pc(), c.instret(), c.regs().to_vec())
        })
        .collect();
    let ram = fnv1a(FNV_OFFSET, m.mem.as_bytes());
    (m.now(), per_core, ram)
}

fn word(p: &dyn Platform, addr: u32) -> u32 {
    p.machine().mem.word(addr)
}

// ------------------------------------------------------------------------
/// A recording names its machine's core count: every platform's record
/// path writes a `cores N` header into a multi-core journal (none into a
/// one-core journal, whose text predates SMP), and parsing the saved text
/// gives the same journal back.
#[test]
fn multi_core_journals_record_their_core_count() {
    use lwvmm::farm::{guest_machine, GuestSpec, PlatformKind};
    for kind in PlatformKind::ALL {
        for cores in [1, 2] {
            let spec = GuestSpec {
                platform: kind,
                cores,
                ..GuestSpec::default()
            };
            let (machine, entry, _) = guest_machine(&spec).expect("guest boots");
            let mut p = kind.boot(machine, entry, Some(100_000_000));
            p.run_for(50_000);
            let mut journal = p.machine().obs.journal().cloned().expect("recording");
            journal.seal(p.machine().now());
            let text = journal.save();
            let label = format!("{} at {cores} cores", kind.label());
            assert_eq!(text.contains("\ncores 2\n"), cores == 2, "{label}");
            let parsed = Journal::parse(&text).expect("saved text parses");
            assert_eq!(parsed, journal, "{label}");
            assert_eq!(parsed.cores, if cores == 2 { 2 } else { 0 }, "{label}");
        }
    }
}

// Determinism: two fresh runs are byte-identical at every core count.

#[test]
fn smp_runs_are_deterministic_on_every_platform() {
    let program = apps::smp_ping_guest();
    for kind in PLATFORMS {
        for cores in [2, 4] {
            let run = || {
                let mut p = boot(kind, &program, cores, 5_000);
                p.machine_mut().obs.enable_journal(kind, cores);
                p.run_for(400_000);
                let journal = p.machine().obs.journal().cloned().unwrap().save();
                (fingerprint(p.as_ref(), cores), journal)
            };
            let (fp_a, j_a) = run();
            let (fp_b, j_b) = run();
            assert_eq!(fp_a, fp_b, "{kind} at {cores} cores: state");
            assert_eq!(j_a, j_b, "{kind} at {cores} cores: journal bytes");
        }
    }
}

// ------------------------------------------------------------------------
// Record/replay identity: a recorded multi-core journal replayed on a
// fresh platform reproduces the exact end state.

#[test]
fn smp_record_replay_identity_on_every_platform() {
    let program = apps::smp_ping_guest();
    for kind in PLATFORMS {
        for cores in [2, 4] {
            let mut rec = boot(kind, &program, cores, 5_000);
            rec.machine_mut().obs.enable_journal(kind, cores);
            rec.run_for(400_000);
            let end = rec.machine().now();
            let mut journal: Journal = rec.machine().obs.journal().cloned().unwrap();
            journal.seal(end);

            let mut rep = boot(kind, &program, cores, 5_000);
            let reached = ReplayDriver::new(&journal).run(rep.as_mut());
            assert_eq!(reached, end, "{kind} at {cores} cores: replay end");
            assert_eq!(
                fingerprint(rep.as_ref(), cores),
                fingerprint(rec.as_ref(), cores),
                "{kind} at {cores} cores: replayed state"
            );
            assert_eq!(
                rep.machine().mem.as_bytes(),
                rec.machine().mem.as_bytes(),
                "{kind} at {cores} cores: RAM image"
            );
        }
    }
}

// ------------------------------------------------------------------------
// IPI semantics: simultaneously pending lines drain lowest-first, and the
// delivered vectors are identical on raw hardware and under both monitors.

#[test]
fn ipi_delivery_drains_lowest_line_first_on_every_platform() {
    let program = apps::smp_ping_guest();
    for kind in PLATFORMS {
        let mut p = boot(kind, &program, 2, 5_000);
        let mut budget = 40;
        while word(p.as_ref(), smp_layout::PING_COUNT) < 3 && budget > 0 {
            p.run_for(100_000);
            budget -= 1;
        }
        assert_eq!(
            word(p.as_ref(), smp_layout::PING_COUNT),
            3,
            "{kind}: all three IPIs delivered"
        );
        // Lines 3, 1, 2 were sent back-to-back; they must deliver in line
        // order as vectors VECTOR_BASE+1, +2, +3.
        let log: Vec<u32> = (0..3)
            .map(|i| word(p.as_ref(), smp_layout::PING_LOG + 4 * i))
            .collect();
        let base = smp::VECTOR_BASE as u32;
        assert_eq!(log, vec![base + 1, base + 2, base + 3], "{kind}: order");
    }
}

// ------------------------------------------------------------------------
// Time travel over multi-core state: `seek` rewinds every core and the
// shared RAM to their exact earlier values.

#[test]
fn seek_rewinds_multicore_state_exactly() {
    let program = apps::racy_counter_guest();
    let machine = smp_machine(&program, 2, 5_000);
    let entry = program.symbols.get("start").unwrap();
    let mut platform = LvmmPlatform::new(machine, entry);
    platform.enable_flight_recorder(50_000);
    let mut dbg = Debugger::new(UartLink::new(platform));

    dbg.link_mut().platform.run_for(300_000);
    dbg.halt().unwrap();
    let early_cycle = dbg.link_ref().platform.machine().now();
    let early_counter = word(&dbg.link_ref().platform, smp_layout::COUNTER);
    let early_cores: Vec<(u32, u64)> = (0..2)
        .map(|i| {
            let c = dbg.link_ref().platform.machine().core(i);
            (c.pc(), c.instret())
        })
        .collect();
    assert!(early_counter > 0, "counter is running");
    assert!(early_cores[1].1 > 0, "core 1 started and ran");

    dbg.resume().unwrap();
    dbg.link_mut().platform.run_for(500_000);
    dbg.halt().unwrap();
    assert!(word(&dbg.link_ref().platform, smp_layout::COUNTER) > early_counter);

    let stop = dbg.seek(early_cycle).expect("seek back");
    match stop {
        StopReason::TimeTravel { cycle, .. } => assert_eq!(cycle, early_cycle),
        other => panic!("expected time-travel stop, got {other:?}"),
    }
    assert_eq!(
        word(&dbg.link_ref().platform, smp_layout::COUNTER),
        early_counter,
        "shared counter rewound"
    );
    let rewound: Vec<(u32, u64)> = (0..2)
        .map(|i| {
            let c = dbg.link_ref().platform.machine().core(i);
            (c.pc(), c.instret())
        })
        .collect();
    assert_eq!(rewound, early_cores, "per-core state rewound");
}

// ------------------------------------------------------------------------
// Breakpoints at two cores: stepping the parked core off a breakpoint must
// not let its sibling run through it.

#[test]
fn stepping_off_a_breakpoint_never_lets_a_sibling_through() {
    let program = apps::smp_spin_guest();
    let machine = smp_machine(&program, 2, 5_000);
    let entry = program.symbols.get("start").unwrap();
    let tick = program.symbols.get("tick").unwrap();
    let mut dbg = Debugger::new(UartLink::new(LvmmPlatform::new(machine, entry)));
    dbg.link_mut().platform.run_for(200_000);
    dbg.halt().unwrap();
    dbg.set_breakpoint(tick).unwrap();
    let tallies = |dbg: &Debugger<UartLink<LvmmPlatform>>| -> Vec<u32> {
        (0..2)
            .map(|i| word(&dbg.link_ref().platform, smp_layout::TALLY + 4 * i))
            .collect()
    };
    assert_eq!(
        dbg.continue_until_stop().unwrap(),
        StopReason::Breakpoint { pc: tick }
    );
    let start = tallies(&dbg);
    let mut prev = start.clone();
    let mut cores_stopped = [0; 2];
    for n in 0..40 {
        let stop = dbg.continue_until_stop().unwrap();
        assert_eq!(stop, StopReason::Breakpoint { pc: tick });
        cores_stopped[dbg.last_stop_core() as usize] += 1;
        let now = tallies(&dbg);
        for core in 0..2 {
            assert!(
                now[core] - prev[core] <= 1,
                "stop {n}: core {core}'s tally went {} -> {}",
                prev[core],
                now[core]
            );
        }
        prev = now;
    }
    assert!(
        cores_stopped.iter().all(|&n| n > 0),
        "both cores reached the breakpoint: {cores_stopped:?}"
    );
    assert!(prev.iter().zip(&start).all(|(now, then)| now > then));
}

// ------------------------------------------------------------------------
// The cross-core race: lost updates on the shared counter are caught by
// seeking the flight recording to the first cycle the per-core-tally
// invariant breaks.

#[test]
fn cross_core_race_is_caught_at_first_divergent_cycle() {
    let program = apps::racy_counter_guest();
    let mut machine = smp_machine(&program, 2, 50_000);
    // Guarantee at least one lost update even if no quantum switch happens
    // to split a read-modify-write in this window.
    machine.enable_fault_injection(
        FaultPlan::new(42)
            .only(FaultKind::RacyIncrement)
            .race(smp_layout::COUNTER)
            .period(150_000),
    );
    let entry = program.symbols.get("start").unwrap();
    let mut platform = LvmmPlatform::new(machine, entry);
    platform.enable_flight_recorder(100_000);
    let mut dbg = Debugger::new(UartLink::new(platform));

    dbg.link_mut().platform.run_for(1_200_000);
    dbg.halt().unwrap();
    let faults = dbg.link_ref().platform.machine().fault_stats().unwrap();
    assert!(
        faults.injected_for(FaultKind::RacyIncrement) > 0,
        "campaign injected at least one lost update"
    );

    let expr = format!(
        "[{c:#x}] < [{t0:#x}] + [{t1:#x}]",
        c = smp_layout::COUNTER,
        t0 = smp_layout::TALLY,
        t1 = smp_layout::TALLY + 4
    );
    let hit = dbg.query_first(&expr).expect("query runs");
    let (cycle, stop) = hit.expect("the lost update is on the recording");
    match stop {
        StopReason::TimeTravel { cycle: at, .. } => assert_eq!(at, cycle),
        other => panic!("expected time-travel stop, got {other:?}"),
    }
    // Ground truth: single-step an identical fresh platform and find the
    // first boundary where the invariant ever breaks. The query must land
    // there — not merely on some later checkpoint that happens to satisfy
    // the predicate.
    let mut truth_machine = smp_machine(&program, 2, 50_000);
    truth_machine.enable_fault_injection(
        FaultPlan::new(42)
            .only(FaultKind::RacyIncrement)
            .race(smp_layout::COUNTER)
            .period(150_000),
    );
    let mut truth = LvmmPlatform::new(truth_machine, entry);
    truth.enable_flight_recorder(100_000);
    let expected = loop {
        let counter = truth.machine().mem.word(smp_layout::COUNTER);
        let sum = truth.machine().mem.word(smp_layout::TALLY)
            + truth.machine().mem.word(smp_layout::TALLY + 4);
        if counter < sum {
            break truth.machine().now();
        }
        assert!(
            truth.machine().now() < 1_200_000,
            "ground truth: invariant breaks inside the recorded window"
        );
        truth.run_for(1);
    };
    assert_eq!(cycle, expected, "query lands on the first divergent cycle");
    // Parked at the divergence: the invariant is visibly broken there.
    let counter = word(&dbg.link_ref().platform, smp_layout::COUNTER);
    let sum = word(&dbg.link_ref().platform, smp_layout::TALLY)
        + word(&dbg.link_ref().platform, smp_layout::TALLY + 4);
    assert!(
        counter < sum,
        "at cycle {cycle}: counter {counter} fell behind the {sum} increments performed"
    );
}

// ------------------------------------------------------------------------
// Single-core stays bit-identical: a 1-core machine built through the SMP
// config produces the same journal as the classic default-config machine.

#[test]
fn single_core_smp_config_matches_classic_machine() {
    use lwvmm::guest::{kernel::layout, Workload};
    let run = |cfg: MachineConfig| {
        let mut machine = Machine::new(cfg);
        let program = Workload::new(100).build(&machine).unwrap();
        machine.load_program(&program);
        machine.obs.enable_journal("lvmm", machine.num_cores());
        let mut p = LvmmPlatform::new(machine, layout::ENTRY);
        p.run_for(2_000_000);
        let journal = p.machine().obs.journal().cloned().unwrap().save();
        (fingerprint(&p, 1), journal)
    };
    let classic = run(MachineConfig::default());
    // An exotic quantum must be invisible on one core (it is ignored).
    let smp_built = run(MachineConfig {
        num_cores: 1,
        sched_quantum: 777,
        ..MachineConfig::default()
    });
    assert_eq!(classic, smp_built);
}

// ------------------------------------------------------------------------
// Scheduler-interleaving determinism, property-style: random quantum and
// core count always give byte-identical journals across two fresh runs.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scheduler_interleaving_is_deterministic(
        params in (500u64..20_000, 1usize..5, 0u8..2)
    ) {
        let (quantum, cores, racy) = params;
        let program = if racy == 0 {
            apps::smp_ping_guest()
        } else {
            apps::racy_counter_guest()
        };
        let run = || {
            let mut p = boot("lvmm", &program, cores, quantum);
            p.machine_mut().obs.enable_journal("lvmm", cores);
            p.run_for(300_000);
            let journal = p.machine().obs.journal().cloned().unwrap().save();
            (fingerprint(p.as_ref(), cores), journal)
        };
        prop_assert_eq!(run(), run());
    }
}
