//! Survivability end-to-end tests: the deterministic fault-injection
//! campaign (tentpole of the debug-link hardening work) exercised over the
//! full stack.
//!
//! The claims under test, straight from the paper's debugging story:
//!
//! - the LVMM-resident stub answers `?`/`g`/`m` after **every** guest-side
//!   fault class, even when the guest itself is wrecked;
//! - raw hardware has no such safety net — a wild-kernel-write campaign
//!   kills the guest;
//! - a faulty run is a pure function of `(program, seed)`: re-running and
//!   replaying the flight-recorder journal are both byte-identical;
//! - a real debug session over a lossy serial link (drops, duplicates,
//!   truncations) completes via retransmission instead of wedging.

use lwvmm::debugger::{DbgError, Debugger, LossyLink};
use lwvmm::fault::{FaultKind, FaultPlan, LinkFaultConfig};
use lwvmm::guest::{kernel::layout, GuestStats, Workload};
use lwvmm::hosted::HostedPlatform;
use lwvmm::machine::{Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::{LvmmConfig, LvmmPlatform, ReplayDriver, UartLink};
use lwvmm::obs::Journal;

const PER_MS: u64 = 150_000; // cycles per simulated ms at the default clock

fn faulty_machine(plan: FaultPlan) -> Machine {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    machine.enable_fault_injection(plan);
    machine
}

fn campaign_plan(seed: u64, limit_monitor: bool) -> FaultPlan {
    let ram = MachineConfig::default().ram_size as u32;
    let limit = if limit_monitor {
        ram - LvmmConfig::default().monitor_mem
    } else {
        ram
    };
    FaultPlan::new(seed)
        .period(30_000)
        .initial_delay(2 * PER_MS)
        .wild(ram, limit)
}

/// A reply is "answered" when the stub produced something well-formed —
/// `Ok` or a target error code. Only timeouts / protocol violations count
/// as a dead stub.
fn answered<T>(r: Result<T, DbgError>) -> bool {
    !matches!(r, Err(DbgError::Timeout) | Err(DbgError::Protocol(_)))
}

/// The survivability headline: for each fault class, wreck the guest under
/// the lightweight monitor for 12 simulated ms, then demand `?`/`g`/`m`
/// service from the stub.
#[test]
fn lvmm_stub_answers_after_every_fault_class() {
    for fault in FaultKind::ALL {
        let plan = campaign_plan(0xfa + fault.code() as u64, true).only(fault);
        let machine = faulty_machine(plan);
        let mut platform = LvmmPlatform::new(machine, layout::ENTRY);
        platform.run_for(12 * PER_MS);
        assert!(
            platform
                .machine()
                .fault_stats()
                .is_some_and(|f| f.total() > 0),
            "{}: campaign never fired",
            fault.label()
        );

        let mut dbg = Debugger::new(UartLink {
            platform,
            slice: 2_000,
        });
        dbg.set_pump_budget(2_000);
        assert!(
            answered(dbg.halt()),
            "{}: break-in unanswered",
            fault.label()
        );
        assert!(
            answered(dbg.query_stop()),
            "{}: `?` unanswered",
            fault.label()
        );
        assert!(
            answered(dbg.read_registers()),
            "{}: `g` unanswered",
            fault.label()
        );
        assert!(
            answered(dbg.read_memory(layout::ENTRY, 16)),
            "{}: `m` unanswered",
            fault.label()
        );
    }
}

/// The contrast case: the same wild-kernel-write campaign on raw hardware
/// (no monitor, nothing blocked) corrupts the kernel image and the guest
/// stops making progress.
#[test]
fn raw_platform_dies_under_wild_kernel_writes() {
    let plan = campaign_plan(0xdead, false)
        .only(FaultKind::WildWriteKernel)
        .period(10_000);
    let mut platform = RawPlatform::new(faulty_machine(plan));
    platform.run_for(30 * PER_MS);
    let before = GuestStats::read(platform.machine()).ok();
    platform.run_for(10 * PER_MS);
    let after = GuestStats::read(platform.machine()).ok();
    let died = match (before, after) {
        // Stats block unreadable: the guest shredded its own bookkeeping.
        (None, _) | (_, None) => true,
        (Some(b), Some(a)) => a.fault_cause != 0 || (a.ticks == b.ticks && a.frames == b.frames),
    };
    assert!(
        died,
        "raw guest survived ~450 kernel wild writes: {after:?}"
    );
}

/// Faulty runs are deterministic at the platform level: two boots with the
/// same plan agree on every byte of RAM, the clock, and the fault counters.
#[test]
fn faulty_lvmm_runs_are_bit_identical() {
    let run = || {
        let machine = faulty_machine(campaign_plan(77, true));
        let mut platform = LvmmPlatform::new(machine, layout::ENTRY);
        platform.run_for(15 * PER_MS);
        (
            platform.machine().now(),
            platform.machine().cpu.instret(),
            lwvmm::obs::digest(platform.machine().mem.as_bytes()),
            platform.machine().fault_stats().copied(),
        )
    };
    assert_eq!(run(), run());
}

/// Replaying a recorded faulty run through the flight recorder is
/// byte-identical to the live run — on all three platforms.
#[test]
fn faulty_runs_replay_identically_on_all_platforms() {
    for which in ["raw", "lvmm", "hosted"] {
        let build = |plan: FaultPlan| -> Box<dyn Platform> {
            let machine = faulty_machine(plan);
            match which {
                "raw" => Box::new(RawPlatform::new(machine)),
                "lvmm" => Box::new(LvmmPlatform::new(machine, layout::ENTRY)),
                _ => Box::new(HostedPlatform::new(machine, layout::ENTRY)),
            }
        };
        let plan = campaign_plan(99, which != "raw");

        let mut rec = build(plan.clone());
        let cores = rec.machine().num_cores();
        rec.machine_mut().obs.enable_journal(which, cores);
        rec.run_for(10 * PER_MS);
        let end = rec.machine().now();
        let mut journal: Journal = rec.machine().obs.journal().cloned().unwrap();
        journal.seal(end);
        assert!(
            rec.machine().fault_stats().unwrap().total() > 0,
            "{which}: campaign never fired"
        );

        let mut rep = build(plan);
        let reached = ReplayDriver::new(&journal).run(rep.as_mut());
        assert_eq!(reached, end, "{which}: replay end cycle");
        assert_eq!(
            rep.machine().mem.as_bytes(),
            rec.machine().mem.as_bytes(),
            "{which}: RAM image"
        );
        assert_eq!(
            rep.machine().fault_stats(),
            rec.machine().fault_stats(),
            "{which}: fault counters"
        );
    }
}

/// A full debug session against the *real* stub over a lossy line: bytes
/// are dropped, duplicated and truncated in both directions, and the
/// bounded retransmission policy still lands every command. (Bit flips are
/// left out here: the 8-bit additive checksum can be fooled by flip pairs,
/// which is a protocol property, not a wedge — the rdbg proptest covers
/// that envelope.)
#[test]
fn debug_session_completes_over_lossy_uart() {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    let mut platform = LvmmPlatform::new(machine, layout::ENTRY);
    platform.run_for(5 * PER_MS);

    // Harsher than `lossy()`: the whole session is only a few hundred bytes,
    // so the per-byte rates must be high enough that faults certainly fire.
    let cfg = LinkFaultConfig {
        seed: 0x11_4b,
        flip_bp: 0,
        drop_bp: 150,
        dup_bp: 150,
        trunc_bp: 30,
    };
    let link = LossyLink::new(
        UartLink {
            platform,
            slice: 2_000,
        },
        cfg,
    );
    let mut dbg = Debugger::new(link);
    dbg.set_pump_budget(4_000);

    // Short-packet commands only: at these loss rates a ~25-byte frame
    // retransmits its way through, while a ~270-byte `g` reply would be
    // mangled almost every transmission — that envelope (and `g` itself)
    // is covered by the rdbg lossy proptest at gentler rates.
    dbg.halt().expect("halt over lossy line");
    dbg.query_stop().expect("query stop");
    dbg.write_memory(0x2000, &[0xaa, 0xbb, 0xcc, 0xdd])
        .expect("write memory");
    assert_eq!(
        dbg.read_memory(0x2000, 4).expect("read memory"),
        vec![0xaa, 0xbb, 0xcc, 0xdd]
    );
    dbg.resume().expect("resume");

    // The line really was lossy in at least one direction.
    let faults = |s: lwvmm::fault::LinkStats| s.dropped + s.duplicated + s.truncated;
    let tx = dbg.link_ref().to_target_stats();
    let rx = dbg.link_ref().to_host_stats();
    assert!(
        faults(tx) + faults(rx) > 0,
        "no link faults fired: {tx:?} {rx:?}"
    );
}
