//! Cross-platform and whole-system determinism tests, plus watchpoint
//! corner cases that need the full stack.

use lwvmm::debugger::{Debugger, StopReason};
use lwvmm::guest::{kernel::layout, GuestStats, Workload};
use lwvmm::hosted::HostedPlatform;
use lwvmm::machine::{Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::{LvmmPlatform, UartLink};

fn boot_workload(rate: u64) -> Machine {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(rate).build(&machine).unwrap();
    machine.load_program(&program);
    machine
}

#[test]
fn full_stack_determinism_per_platform() {
    // Two identical runs of the full streaming stack produce bit-identical
    // simulation results on every platform.
    fn fingerprint(platform: &mut dyn Platform, clock: u64) -> (u64, u64, u64, u64, u32) {
        platform.run_for(clock / 50);
        let n = platform.machine().nic.counters();
        let s = GuestStats::read(platform.machine()).expect("guest stats");
        (
            platform.machine().now(),
            platform.machine().cpu.cycles(),
            n.tx_checksum,
            n.tx_frames,
            s.frames,
        )
    }
    let clock = MachineConfig::default().clock_hz;

    let runs: Vec<_> = (0..2)
        .map(|_| {
            let mut raw = RawPlatform::new(boot_workload(80));
            let mut lv = LvmmPlatform::new(boot_workload(80), layout::ENTRY);
            let mut ho = HostedPlatform::new(boot_workload(80), layout::ENTRY);
            (
                fingerprint(&mut raw, clock),
                fingerprint(&mut lv, clock),
                fingerprint(&mut ho, clock),
            )
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn stuck_guest_stops_run_for_on_every_platform() {
    // A `wfi` with no timer programmed and no pending device events can
    // never wake: every platform must detect the stuck machine through the
    // shared engine and return early from `run_for`, whether the `wfi` was
    // executed architecturally (raw) or emulated as a virtual idle (both
    // monitors).
    let program = hx_asm::assemble("start: wfi\nhalt: j halt\n").unwrap();
    let boot = || {
        let mut machine = Machine::new(MachineConfig {
            ram_size: 8 << 20,
            ..Default::default()
        });
        machine.load_program(&program);
        machine
    };
    let entry = program.symbols.get("start").unwrap_or(program.base());
    let mut platforms: Vec<Box<dyn Platform>> = vec![
        Box::new(RawPlatform::new(boot())),
        Box::new(LvmmPlatform::new(boot(), entry)),
        Box::new(HostedPlatform::new(boot(), entry)),
    ];
    for platform in &mut platforms {
        let ran = platform.run_for(1_000_000);
        assert!(
            ran < 1_000_000,
            "{}: wfi with no wake source must get stuck, ran {ran}",
            platform.name()
        );
    }
}

#[test]
fn debug_session_is_deterministic() {
    // Even a full debugger session (break-in timing included) replays
    // identically: the whole stack is wall-clock-free.
    fn session() -> (u32, Vec<u32>, u64) {
        let program = lwvmm::guest::apps::counter_guest();
        let mut machine = Machine::new(MachineConfig {
            ram_size: 8 << 20,
            ..Default::default()
        });
        machine.load_program(&program);
        let platform = LvmmPlatform::new(machine, program.base());
        let mut dbg = Debugger::new(UartLink::new(platform));
        dbg.link_mut().platform.run_for(123_456);
        let stop = dbg.halt().unwrap();
        let regs = dbg.read_registers().unwrap();
        let now = dbg.link_ref().platform.machine().now();
        (stop.pc(), regs.gprs.to_vec(), now)
    }
    assert_eq!(session(), session());
}

#[test]
fn watchpoint_adjacent_stores_are_emulated_not_trapped() {
    // A watchpoint write-protects its whole page; stores to *other* bytes
    // of that page must be completed transparently by the monitor (counted
    // as emulated stores), not reported to the debugger.
    let src = "
        start:  li   t0, 0x9000
                li   t1, 0x111
                sw   t1, 0x100(t0)     ; same page, NOT watched
                li   t2, 0x222
                sw   t2, 0x200(t0)     ; same page, NOT watched
                li   s0, 1
        halt:   j halt
    ";
    let program = hx_asm::assemble(src).unwrap();
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    machine.load_program(&program);
    let platform = LvmmPlatform::new(machine, program.base());
    let mut dbg = Debugger::new(UartLink::new(platform));

    dbg.halt().unwrap();
    dbg.set_watchpoint(0x9000, 4).unwrap(); // watch only the first word
    dbg.resume().unwrap();
    dbg.link_mut().platform.run_for(500_000);

    let platform = &dbg.link_ref().platform;
    assert!(!platform.guest_stopped(), "no false watchpoint hit");
    assert_eq!(
        platform.machine().cpu.reg(hx_cpu::Reg::R18),
        1,
        "guest completed"
    );
    assert_eq!(platform.machine().mem.word(0x9100), 0x111);
    assert_eq!(platform.machine().mem.word(0x9200), 0x222);
    assert!(
        platform.monitor_stats().emulated_stores >= 2,
        "adjacent stores must take the emulation path: {:?}",
        platform.monitor_stats()
    );
}

#[test]
fn watchpoint_in_page_with_code_still_fires_exactly() {
    let src = "
        start:  li   t0, 0x9000
                li   t1, 0xaa
                sw   t1, 8(t0)         ; adjacent (emulated)
                sw   t1, 0(t0)         ; the watched word
                li   s0, 1
        halt:   j halt
    ";
    let program = hx_asm::assemble(src).unwrap();
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    machine.load_program(&program);
    let platform = LvmmPlatform::new(machine, program.base());
    let mut dbg = Debugger::new(UartLink::new(platform));

    dbg.halt().unwrap();
    dbg.set_watchpoint(0x9000, 4).unwrap();
    let stop = dbg.continue_until_stop().unwrap();
    match stop {
        StopReason::Watchpoint { addr, .. } => assert_eq!(addr, 0x9000),
        other => panic!("expected the watchpoint, got {other:?}"),
    }
    // s0 not yet set: we stopped before the store retired.
    assert_eq!(
        dbg.link_ref().platform.machine().cpu.reg(hx_cpu::Reg::R18),
        0
    );
    // The adjacent store already landed.
    assert_eq!(dbg.link_ref().platform.machine().mem.word(0x9008), 0xaa);
}

#[test]
fn guest_stats_agree_across_platforms_at_same_point() {
    // Pause each platform at (approximately) the same number of emitted
    // frames and compare guest-visible statistics: the virtualized worlds
    // must be indistinguishable to the guest.
    fn stats_at_frames(mut platform: Box<dyn Platform>, target: u32) -> GuestStats {
        for _ in 0..100_000 {
            platform.run_for(20_000);
            // Before boot the stats block is not meaningful yet.
            if let Ok(s) = GuestStats::read(platform.machine()) {
                if s.frames >= target {
                    return s;
                }
            }
        }
        panic!("never reached {target} frames");
    }
    let raw = stats_at_frames(Box::new(RawPlatform::new(boot_workload(50))), 120);
    let lv = stats_at_frames(
        Box::new(LvmmPlatform::new(boot_workload(50), layout::ENTRY)),
        120,
    );
    // Bytes-per-frame accounting must agree exactly for equal frame counts.
    assert_eq!(raw.fault_cause, 0);
    assert_eq!(lv.fault_cause, 0);
    let per_frame_raw = raw.bytes / raw.frames as u64;
    let per_frame_lv = lv.bytes / lv.frames as u64;
    assert_eq!(per_frame_raw, per_frame_lv);
}

/// Retired instructions (all cores), NIC bytes on the wire, the
/// guest/monitor/host/idle cycle split and the per-cause exit counts after
/// running `p` for `cycles`.
type ExitPathPin = (u64, u64, [u64; 4], Vec<u64>);

fn exit_path_pin(p: &mut dyn Platform, cycles: u64) -> ExitPathPin {
    p.run_for(cycles);
    let m = p.machine();
    let t = p.time_stats();
    (
        (0..m.num_cores()).map(|i| m.core(i).instret()).sum(),
        m.nic.counters().tx_bytes,
        [t.guest, t.monitor, t.host_model, t.idle],
        m.obs.exits.counts().to_vec(),
    )
}

/// The streaming workload on a `cores`-core machine (secondaries stay
/// parked: the kernel never sends a startup IPI).
fn boot_streaming(cores: usize) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        num_cores: cores,
        ..MachineConfig::default()
    });
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    machine
}

/// The cross-core tracepoint guest on two cores: an IPI per round trip,
/// so the per-core virtual CPU swap and the virtual-IPI latch run hot.
fn boot_ipi_rounds() -> (Machine, u32) {
    let program = lwvmm::guest::apps::smp_trace_guest();
    let mut machine = Machine::new(MachineConfig {
        num_cores: 2,
        ..MachineConfig::default()
    });
    machine.load_program(&program);
    (machine, program.symbols.get("start").unwrap())
}

/// Exact numbers for both monitors' exit paths, captured before the two
/// monitors shared one trap-and-emulate core: any change to exit costs,
/// routing, counters or the SMP virtual-CPU/IPI paths shows up here. The
/// streaming run is identical at one and two cores (the second core never
/// starts); the IPI guest keeps both cores busy.
#[test]
fn monitor_exit_paths_are_pinned_at_one_and_two_cores() {
    use lwvmm::hosted::HostedStats;
    use lwvmm::monitor::LvmmStats;
    let window = MachineConfig::default().clock_hz / 50;

    let lv_stream: ExitPathPin = (
        300_173,
        245_746,
        [578_727, 1_595_410, 0, 842_916],
        vec![1313, 194, 66, 191, 191, 0, 0, 0],
    );
    let lv_stream_counters = LvmmStats {
        exits_privileged: 1313,
        exits_mmio: 194,
        exits_shadow: 66,
        exits_irq_reflect: 191,
        exits_debug: 0,
        faults_injected: 0,
        irqs_injected: 191,
        protection_violations: 0,
        emulated_stores: 0,
        emulated_loads: 0,
    };
    let ho_stream: ExitPathPin = (
        62_839,
        46_438,
        [147_150, 586_150, 1_920_608, 375_184],
        vec![348, 180, 17, 56, 56, 0, 0, 75],
    );
    let ho_stream_counters = HostedStats {
        exits_privileged: 348,
        exits_mmio: 180,
        exits_shadow: 17,
        exits_irq: 56,
        irqs_injected: 56,
        faults_injected: 0,
        host_relay_ops: 75,
        protection_violations: 0,
    };
    for cores in [1, 2] {
        let mut lv = LvmmPlatform::new(boot_streaming(cores), layout::ENTRY);
        assert_eq!(exit_path_pin(&mut lv, window), lv_stream, "lvmm/{cores}");
        assert_eq!(lv.monitor_stats(), lv_stream_counters, "lvmm/{cores}");
        assert_eq!(lv.shadow_stats().fills, 66, "lvmm/{cores}");
        let mut ho = HostedPlatform::new(boot_streaming(cores), layout::ENTRY);
        assert_eq!(exit_path_pin(&mut ho, window), ho_stream, "hosted/{cores}");
        assert_eq!(ho.hosted_stats(), ho_stream_counters, "hosted/{cores}");
    }

    let (machine, entry) = boot_ipi_rounds();
    let mut lv = LvmmPlatform::new(machine, entry);
    assert_eq!(
        exit_path_pin(&mut lv, window),
        (
            1_198_541,
            0,
            [2_893_628, 106_430, 0, 0],
            vec![32, 32, 3, 30, 30, 0, 0, 0]
        )
    );
    assert_eq!(
        lv.monitor_stats(),
        LvmmStats {
            exits_privileged: 32,
            exits_mmio: 32,
            exits_shadow: 3,
            exits_irq_reflect: 30,
            irqs_injected: 30,
            ..LvmmStats::default()
        }
    );
    let (machine, entry) = boot_ipi_rounds();
    let mut ho = HostedPlatform::new(machine, entry);
    assert_eq!(
        exit_path_pin(&mut ho, window),
        (
            1_159_127,
            0,
            [2_797_333, 202_700, 0, 0],
            vec![32, 122, 2, 30, 30, 0, 0, 0]
        )
    );
    assert_eq!(
        ho.hosted_stats(),
        HostedStats {
            exits_privileged: 32,
            exits_mmio: 122,
            exits_shadow: 2,
            exits_irq: 30,
            irqs_injected: 30,
            ..HostedStats::default()
        }
    );
}
