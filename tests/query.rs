//! End-to-end tests for the trace-query engine: conditional breakpoints,
//! kind-aware watchpoints, logpoints and the `Qq` timeline search — with
//! the record/replay and non-perturbation guarantees the design demands.

use lwvmm::debugger::{Debugger, StopReason, WatchKind};
use lwvmm::guest::{apps, kernel::layout, GuestStats, Workload};
use lwvmm::hosted::HostedPlatform;
use lwvmm::machine::{Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::{LvmmPlatform, ReplayDriver, UartLink};
use lwvmm::obs::{audit, ChromeTrace, Journal};

/// The streaming workload booted on one of the three platforms.
fn streaming_platform(kind: &str) -> Box<dyn Platform> {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    match kind {
        "raw" => Box::new(RawPlatform::new(machine)),
        "lvmm" => Box::new(LvmmPlatform::new(machine, layout::ENTRY)),
        "hosted" => Box::new(HostedPlatform::new(machine, layout::ENTRY)),
        other => panic!("unknown platform {other}"),
    }
}

fn chrome(platform: &dyn Platform) -> String {
    let mut t = ChromeTrace::new();
    t.add_platform(1, platform.name(), &platform.machine().obs);
    t.finish()
}

fn sealed_journal(platform: &dyn Platform) -> Journal {
    let mut journal = platform.machine().obs.journal().cloned().unwrap();
    journal.seal(platform.machine().now());
    journal
}

/// Logpoints are part of recorded machine state: a run with an armed
/// (conditional) logpoint journals its hit stream, and replaying the
/// journal on a fresh platform with the same logpoint armed reproduces the
/// trace — including every logpoint event — byte-identically. Holds on all
/// three platforms.
#[test]
fn logpoint_sessions_replay_byte_identically() {
    for kind in ["raw", "lvmm", "hosted"] {
        let arm = |p: &mut dyn Platform| {
            // Fire in the timer ISR once at least one tick was handled.
            p.machine_mut().add_logpoint(
                0x15ac,
                "tick",
                Some(lwvmm::query::Expr::parse("[0x90c] > 0").unwrap()),
            );
        };
        let mut rec = streaming_platform(kind);
        rec.machine_mut().obs.enable_tracing();
        let cores = rec.machine().num_cores();
        rec.machine_mut().obs.enable_journal(kind, cores);
        arm(rec.as_mut());
        let per_ms = rec.machine().config().clock_hz / 1_000;
        rec.run_for(10 * per_ms);
        let journal = sealed_journal(rec.as_ref());
        let hits = journal
            .events
            .iter()
            .filter(|e| matches!(e.ev, lwvmm::obs::EventKind::Log { .. }))
            .count();
        assert!(hits > 0, "{kind}: logpoint never fired");

        let mut rep = streaming_platform(kind);
        rep.machine_mut().obs.enable_tracing();
        let cores = rep.machine().num_cores();
        rep.machine_mut().obs.enable_journal(kind, cores);
        arm(rep.as_mut());
        let reached = ReplayDriver::new(&journal).run(rep.as_mut());

        assert_eq!(reached, journal.end, "{kind}: replay reaches the end");
        assert_eq!(
            chrome(rep.as_ref()),
            chrome(rec.as_ref()),
            "{kind}: trace bytes (logpoint hits included)"
        );
        let replayed = sealed_journal(rep.as_ref());
        assert!(
            audit(&journal, &replayed).iter().all(|s| s.clean()),
            "{kind}: replayed journal streams diverge"
        );
        assert_eq!(
            rep.machine().mem.as_bytes(),
            rec.machine().mem.as_bytes(),
            "{kind}: guest RAM image"
        );
    }
}

/// Arming a logpoint disables instruction batching, which must be
/// simulation-invisible: with and without a (never-firing) logpoint the
/// run reaches the identical cycle with identical guest statistics, on all
/// three platforms. This is the mechanism that keeps logpoints out of
/// `BENCH_fig3_1.json`'s cycle counts.
#[test]
fn logpoints_do_not_perturb_cycle_counts() {
    for kind in ["raw", "lvmm", "hosted"] {
        let run = |with_logpoint: bool| {
            let mut p = streaming_platform(kind);
            if with_logpoint {
                p.machine_mut().add_logpoint(
                    0x15ac,
                    "tick",
                    Some(lwvmm::query::Expr::parse("[0x90c] > 100000").unwrap()),
                );
            }
            let per_ms = p.machine().config().clock_hz / 1_000;
            p.run_for(15 * per_ms);
            (
                p.machine().now(),
                p.machine().cpu.instret(),
                GuestStats::read(p.machine()).unwrap(),
            )
        };
        let (now_a, instret_a, stats_a) = run(false);
        let (now_b, instret_b, stats_b) = run(true);
        assert_eq!(now_a, now_b, "{kind}: cycle count perturbed");
        assert_eq!(instret_a, instret_b, "{kind}: instruction count perturbed");
        assert_eq!(stats_a, stats_b, "{kind}: guest stats perturbed");
    }
}

/// A full wire session — read watchpoint, conditional breakpoint, memory
/// inspection — is itself journaled (every host UART byte is an input), so
/// replaying the journal on a fresh monitor reproduces the identical trace
/// without a debugger attached.
#[test]
fn watchpoint_and_conditional_breakpoint_session_replays() {
    let record = || {
        let mut machine = Machine::new(MachineConfig::default());
        let program = Workload::new(100).build(&machine).unwrap();
        machine.load_program(&program);
        let mut vmm = LvmmPlatform::new(machine, layout::ENTRY);
        vmm.machine_mut().obs.enable_tracing();
        let cores = vmm.machine().num_cores();
        vmm.machine_mut().obs.enable_journal("lvmm", cores);
        vmm
    };

    let mut dbg = Debugger::new(UartLink {
        platform: record(),
        slice: 2_000,
    });
    // Read watchpoint on the tick counter: the timer ISR's load stops the
    // guest even though nothing wrote the watched word.
    dbg.halt().unwrap();
    dbg.set_watchpoint_kind(0x90c, 4, WatchKind::Read).unwrap();
    let stop = dbg.continue_until_stop().unwrap();
    assert!(
        matches!(stop, StopReason::Watchpoint { addr: 0x90c, .. }),
        "expected read-watchpoint stop, got {stop:?}"
    );
    dbg.clear_watchpoint(0x90c).unwrap();

    // Conditional breakpoint in build_frame: only stops once three frames
    // are out; the monitor silently steps over earlier hits.
    dbg.set_breakpoint(0x123c).unwrap();
    dbg.set_break_condition(0x123c, "[0x908] >= 3").unwrap();
    let stop = dbg.continue_until_stop().unwrap();
    assert!(
        matches!(stop, StopReason::Breakpoint { pc: 0x123c }),
        "expected conditional breakpoint stop, got {stop:?}"
    );
    let frames = dbg.read_memory(0x908, 4).unwrap();
    assert!(u32::from_le_bytes(frames.try_into().unwrap()) >= 3);
    dbg.clear_breakpoint(0x123c).unwrap();
    dbg.resume().unwrap();

    let link = dbg.into_link();
    let mut rec = link.platform;
    let per_ms = rec.machine().config().clock_hz / 1_000;
    rec.run_for(5 * per_ms);
    let journal = sealed_journal(&rec);

    // Replay: the journal carries the whole wire dialogue as UART inputs.
    let mut rep = record();
    let reached = ReplayDriver::new(&journal).run(&mut rep);
    assert_eq!(reached, journal.end, "replay reaches the end");
    assert_eq!(
        chrome(&rep),
        chrome(&rec),
        "session trace bytes (watchpoint + conditional breakpoint)"
    );
    assert_eq!(
        rep.machine().mem.as_bytes(),
        rec.machine().mem.as_bytes(),
        "guest RAM image"
    );
}

/// The `Qq` timeline search over the wire: on the counter guest, the first
/// cycle at which `counter >= 5` is found by checkpoint scan + replay, the
/// guest parks there, and the watched word reads exactly 5. A second,
/// independent session lands on the identical cycle.
#[test]
fn query_first_finds_and_seeks_first_satisfying_cycle() {
    let session = || {
        let program = apps::counter_guest();
        let counter = program.symbols.get("counter").unwrap();
        let mut machine = Machine::new(MachineConfig::default());
        machine.load_program(&program);
        let mut vmm = LvmmPlatform::new(machine, program.base());
        vmm.enable_flight_recorder(10_000);
        vmm.run_for(200_000);
        let mut dbg = Debugger::new(UartLink {
            platform: vmm,
            slice: 2_000,
        });
        dbg.halt().unwrap();
        let expr = format!("[0x{counter:x}] >= 5");
        let (cycle, stop) = dbg
            .query_first(&expr)
            .expect("query runs")
            .expect("counter reaches 5 well before the halt");
        assert!(
            matches!(stop, StopReason::TimeTravel { cycle: c, .. } if c == cycle),
            "parked at the satisfying cycle, got {stop:?}"
        );
        let word = dbg.read_memory(counter, 4).unwrap();
        assert_eq!(
            u32::from_le_bytes(word.try_into().unwrap()),
            5,
            "at the *first* satisfying cycle the counter is exactly 5"
        );
        cycle
    };
    assert_eq!(session(), session(), "query result is deterministic");
}

/// A query whose predicate never holds leaves the target parked (new-branch
/// semantics) and reports a miss rather than an error.
#[test]
fn query_first_miss_reports_not_found() {
    let program = apps::counter_guest();
    let mut machine = Machine::new(MachineConfig::default());
    machine.load_program(&program);
    let mut vmm = LvmmPlatform::new(machine, program.base());
    vmm.enable_flight_recorder(10_000);
    vmm.run_for(100_000);
    let mut dbg = Debugger::new(UartLink {
        platform: vmm,
        slice: 2_000,
    });
    dbg.halt().unwrap();
    assert_eq!(dbg.query_first("pc == 0xdead0000").unwrap(), None);
    // Consume the park notification; the target is still debuggable.
    let stop = dbg.wait_stop().unwrap();
    assert!(matches!(stop, StopReason::TimeTravel { .. }), "{stop:?}");
    dbg.read_registers().unwrap();
}

/// A logpoint on an instruction a monitor completes on the guest's behalf
/// — a device-register store or a privileged CSR write — fires exactly as
/// often as on raw hardware, on all three platforms.
#[test]
fn logpoints_fire_on_monitor_emulated_instructions() {
    let program = lwvmm::asm::assemble(&format!(
        "        .org 0x1000
         start:  li   t0, {pic:#x}
                 li   t1, 10
         loop:
         imr:    sw   t1, {imr}(t0)      ; emulated device register
         scr:    csrw scratch, t1       ; emulated privileged instruction
                 addi t1, t1, -1
                 bnez t1, loop
         halt:   j halt
        ",
        pic = lwvmm::machine::map::PIC_BASE,
        imr = lwvmm::machine::pic::reg::IMR,
    ))
    .unwrap();
    let at = |label: &str| program.symbols.get(label).unwrap();
    for kind in ["raw", "lvmm", "hosted"] {
        let mut machine = Machine::new(MachineConfig {
            ram_size: 8 << 20,
            ..MachineConfig::default()
        });
        machine.load_program(&program);
        machine.obs.enable_journal(kind, machine.num_cores());
        machine.add_logpoint(at("imr"), "imr", None);
        machine.add_logpoint(at("scr"), "scr", None);
        let mut p: Box<dyn Platform> = match kind {
            "raw" => Box::new(RawPlatform::new(machine)),
            "lvmm" => Box::new(LvmmPlatform::new(machine, at("start"))),
            _ => Box::new(HostedPlatform::new(machine, at("start"))),
        };
        if kind == "raw" {
            p.machine_mut().cpu.set_pc(at("start"));
        }
        p.run_for(200_000);
        let journal = sealed_journal(p.as_ref());
        let hits = |addr: u32| {
            journal
                .events
                .iter()
                .filter(|e| matches!(e.ev, lwvmm::obs::EventKind::Log { addr: a, .. } if a == addr))
                .count()
        };
        assert_eq!(hits(at("imr")), 10, "{kind}: device-register logpoint");
        assert_eq!(
            hits(at("scr")),
            10,
            "{kind}: privileged-instruction logpoint"
        );
    }
}
