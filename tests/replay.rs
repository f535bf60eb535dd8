//! Flight-recorder end-to-end tests: record/replay fidelity, time-travel
//! debugging over the wire protocol, and cross-platform divergence audits.

use lwvmm::debugger::{DbgError, Debugger, StopReason};
use lwvmm::guest::{apps, kernel::layout, GuestStats, Workload};
use lwvmm::machine::{Machine, MachineConfig, Platform};
use lwvmm::monitor::{LvmmPlatform, ReplayDriver, UartLink};
use lwvmm::obs::{audit, ChromeTrace, Journal};

fn streaming_platform() -> Box<dyn Platform> {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    Box::new(LvmmPlatform::new(machine, layout::ENTRY))
}

fn chrome(platform: &dyn Platform) -> String {
    let mut t = ChromeTrace::new();
    t.add_platform(1, "lvmm", &platform.machine().obs);
    t.finish()
}

/// The tentpole acceptance check: replaying a recorded streaming-workload
/// journal on a freshly booted platform reproduces a byte-identical Chrome
/// trace, identical guest statistics and an identical RAM image.
#[test]
fn replay_reproduces_trace_stats_and_ram() {
    let mut rec = streaming_platform();
    rec.machine_mut().obs.enable_tracing();
    let cores = rec.machine().num_cores();
    rec.machine_mut().obs.enable_journal("lvmm", cores);
    let per_ms = rec.machine().config().clock_hz / 1_000;
    rec.run_for(20 * per_ms);
    let end = rec.machine().now();
    let mut journal: Journal = rec.machine().obs.journal().cloned().unwrap();
    journal.seal(end);
    assert!(!journal.events.is_empty(), "streaming run produced events");

    let mut rep = streaming_platform();
    rep.machine_mut().obs.enable_tracing();
    let reached = ReplayDriver::new(&journal).run(rep.as_mut());

    assert_eq!(reached, end, "replay reaches the recorded end cycle");
    assert_eq!(chrome(rep.as_ref()), chrome(rec.as_ref()), "trace bytes");
    assert_eq!(
        GuestStats::read(rep.machine()).unwrap(),
        GuestStats::read(rec.machine()).unwrap(),
        "guest statistics"
    );
    assert_eq!(
        rep.machine().mem.as_bytes(),
        rec.machine().mem.as_bytes(),
        "guest RAM image"
    );
}

/// The journal text format survives a save/parse round trip with inputs
/// and events intact, so recordings can be shipped as artifacts.
#[test]
fn journal_round_trips_through_text() {
    let mut rec = streaming_platform();
    let cores = rec.machine().num_cores();
    rec.machine_mut().obs.enable_journal("lvmm", cores);
    rec.machine_mut().uart_input(b"\x03"); // journaled host input
    let per_ms = rec.machine().config().clock_hz / 1_000;
    rec.run_for(5 * per_ms);
    let mut journal = rec.machine().obs.journal().cloned().unwrap();
    journal.seal(rec.machine().now());

    let parsed = Journal::parse(&journal.save()).expect("parses");
    assert_eq!(parsed, journal);
}

/// Acceptance: a wild guest write faults, and `reverse-step` over the wire
/// lands exactly on the faulting instruction — parked at its cycle, PC on
/// the store, one instant before the damage.
#[test]
fn reverse_step_lands_on_faulting_instruction() {
    // The guest spins for a while, then stores into monitor memory (a wild
    // write through a corrupted pointer). No trap vector is installed, so
    // the monitor's debug-on-fault policy stops it in the debugger.
    let program = hx_asm::assemble(
        "start:  li   t0, 500
         spin:   addi t0, t0, -1
                 bnez t0, spin
                 li   t1, 0x600000      ; monitor base for 8 MiB RAM
         wild:   sw   t0, 0(t1)
         halt:   j    halt
        ",
    )
    .unwrap();
    let wild = program.symbols.get("wild").unwrap();
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    machine.load_program(&program);
    let mut platform = LvmmPlatform::new(machine, program.base());
    platform.enable_flight_recorder(100_000);
    let mut dbg = Debugger::new(UartLink::new(platform));

    let stop = dbg.wait_stop().expect("guest faults into the debugger");
    assert!(
        matches!(stop, StopReason::Fault { pc, .. } if pc == wild),
        "expected fault at wild store, got {stop:?}"
    );
    let fault_seen_at = dbg.link_ref().platform.machine().now();

    let stop = dbg.reverse_step().expect("reverse step");
    match stop {
        StopReason::TimeTravel { pc, cycle } => {
            assert_eq!(pc, wild, "parked on the faulting instruction");
            assert!(cycle < fault_seen_at, "landed before the fault");
        }
        other => panic!("expected time-travel stop, got {other:?}"),
    }
    assert_eq!(dbg.link_ref().platform.machine().cpu.pc(), wild);
    assert!(dbg.link_ref().platform.guest_stopped());

    // Re-executing the instruction reproduces the fault deterministically.
    let again = dbg.step().expect("step over the wild write");
    assert!(
        matches!(again, StopReason::Fault { pc, .. } if pc == wild),
        "re-running the store faults again, got {again:?}"
    );
}

/// `seek` rewinds guest memory to its exact earlier contents; the rewound
/// timeline then diverges freely (new-branch semantics).
#[test]
fn seek_restores_earlier_guest_memory() {
    let program = apps::counter_guest();
    let counter = program.symbols.get("counter").unwrap();
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    machine.load_program(&program);
    let mut platform = LvmmPlatform::new(machine, program.base());
    platform.enable_flight_recorder(100_000);
    let mut dbg = Debugger::new(UartLink::new(platform));

    dbg.link_mut().platform.run_for(80_000);
    dbg.halt().unwrap();
    let early_cycle = dbg.link_ref().platform.machine().now();
    let early_count = dbg.link_ref().platform.machine().mem.word(counter);
    assert!(early_count > 0, "counter running");

    dbg.resume().unwrap();
    dbg.link_mut().platform.run_for(400_000);
    dbg.halt().unwrap();
    let late_count = dbg.link_ref().platform.machine().mem.word(counter);
    assert!(late_count > early_count, "counter advanced");

    let stop = dbg.seek(early_cycle).expect("seek back");
    match stop {
        StopReason::TimeTravel { cycle, .. } => assert_eq!(cycle, early_cycle),
        other => panic!("expected time-travel stop, got {other:?}"),
    }
    assert_eq!(
        dbg.link_ref().platform.machine().mem.word(counter),
        early_count,
        "guest memory rewound to its exact earlier value"
    );
}

/// `reverse-continue` returns to the previous debugger stop on the recorded
/// timeline (here: the last breakpoint hit).
#[test]
fn reverse_continue_returns_to_previous_stop() {
    let program = apps::counter_guest();
    let bump = program.symbols.get("bump").unwrap();
    let counter = program.symbols.get("counter").unwrap();
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    machine.load_program(&program);
    let mut platform = LvmmPlatform::new(machine, program.base());
    platform.enable_flight_recorder(100_000);
    let mut dbg = Debugger::new(UartLink::new(platform));

    dbg.halt().unwrap();
    dbg.set_breakpoint(bump).unwrap();
    dbg.continue_until_stop().unwrap();
    let count_first = dbg.link_ref().platform.machine().mem.word(counter);
    dbg.continue_until_stop().unwrap();
    let count_second = dbg.link_ref().platform.machine().mem.word(counter);
    assert!(count_second > count_first);

    let stop = dbg.reverse_continue().expect("reverse continue");
    match stop {
        StopReason::TimeTravel { pc, .. } => assert_eq!(pc, bump, "back on the breakpoint"),
        other => panic!("expected time-travel stop, got {other:?}"),
    }
    assert_eq!(
        dbg.link_ref().platform.machine().mem.word(counter),
        count_first,
        "guest state matches the earlier stop"
    );
}

/// Time-travel commands require the flight recorder; without it they fail
/// with a clean target error instead of corrupting the session.
#[test]
fn time_travel_without_recorder_is_rejected() {
    let program = apps::counter_guest();
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    machine.load_program(&program);
    let platform = LvmmPlatform::new(machine, program.base());
    let mut dbg = Debugger::new(UartLink::new(platform));
    dbg.link_mut().platform.run_for(50_000);
    dbg.halt().unwrap();
    // err::RECORDER = 6.
    assert_eq!(dbg.reverse_step().unwrap_err(), DbgError::Target(6));
    assert_eq!(dbg.seek(0).unwrap_err(), DbgError::Target(6));
}

/// Divergence auditing: a same-platform replay's device-event streams are
/// identical to the recording's; the hosted baseline replaying the same
/// journal produces a strict prefix on the passthrough-I/O streams (it
/// moves less data in the same simulated time — the paper's headline).
#[test]
fn divergence_audit_same_platform_clean_cross_platform_prefix() {
    let per_ms;
    let journal_a = {
        let mut rec = streaming_platform();
        let cores = rec.machine().num_cores();
        rec.machine_mut().obs.enable_journal("lvmm", cores);
        per_ms = rec.machine().config().clock_hz / 1_000;
        rec.run_for(10 * per_ms);
        let mut j = rec.machine().obs.journal().cloned().unwrap();
        j.seal(rec.machine().now());
        j
    };

    // Same platform: every stream must match exactly.
    let mut same = streaming_platform();
    let cores = same.machine().num_cores();
    same.machine_mut().obs.enable_journal("lvmm", cores);
    ReplayDriver::new(&journal_a).run(same.as_mut());
    let mut journal_same = same.machine().obs.journal().cloned().unwrap();
    journal_same.seal(same.machine().now());
    for s in audit(&journal_a, &journal_same) {
        assert!(
            s.clean(),
            "stream {} diverged on same-platform replay",
            s.name
        );
    }

    // Hosted baseline: the NIC stream is a strict prefix (fewer events, no
    // reordering or payload corruption).
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    let mut hosted: Box<dyn Platform> =
        Box::new(lwvmm::hosted::HostedPlatform::new(machine, layout::ENTRY));
    let cores = hosted.machine().num_cores();
    hosted.machine_mut().obs.enable_journal("hosted", cores);
    ReplayDriver::new(&journal_a).run(hosted.as_mut());
    let mut journal_b = hosted.machine().obs.journal().cloned().unwrap();
    journal_b.seal(hosted.machine().now());

    let audits = audit(&journal_a, &journal_b);
    let nic = audits.iter().find(|s| s.name == "nic").unwrap();
    assert!(nic.len_b < nic.len_a, "hosted moves less NIC data");
    let d = nic.divergence.as_ref().expect("lengths differ");
    assert!(
        d.is_length_only(),
        "hosted NIC stream is a strict prefix, but diverged at {}: {:?} vs {:?}",
        d.index,
        d.a,
        d.b
    );
}
