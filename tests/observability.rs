//! End-to-end invariants of the observability layer (`hx-obs`): traces are
//! a pure function of the run, span accounting reconciles with the flat
//! time stats, and `qStats` samples the monitor live over the debug wire
//! without halting the guest.

use lwvmm::debugger::{encode_packet, DbgError, Debugger, Reply};
use lwvmm::guest::{kernel, kernel::layout, GuestStats, Workload};
use lwvmm::hosted::HostedPlatform;
use lwvmm::machine::{Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::{LvmmPlatform, ReplayDriver, UartLink};
use lwvmm::obs::{ChromeTrace, ExitCause, Profiler, SymbolMap, Track};

fn streaming_machine(rate_mbps: u64, tracing: bool) -> Machine {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(rate_mbps)
        .build(&machine)
        .expect("kernel assembles");
    machine.load_program(&program);
    if tracing {
        machine.obs.enable_tracing();
    }
    machine
}

fn export(platform: &dyn Platform) -> String {
    let mut t = ChromeTrace::new();
    t.add_platform(1, platform.name(), &platform.machine().obs);
    t.finish()
}

#[test]
fn identical_runs_produce_identical_traces_and_histograms() {
    let run = || {
        let machine = streaming_machine(100, true);
        let mut vmm = LvmmPlatform::new(machine, layout::ENTRY);
        let clock = vmm.machine().config().clock_hz;
        vmm.run_for(clock / 25);
        vmm
    };
    let (a, b) = (run(), run());
    let (ja, jb) = (export(&a), export(&b));
    assert!(ja.contains("\"traceEvents\""));
    assert_eq!(ja, jb, "trace bytes must be a pure function of the run");

    for cause in ExitCause::ALL {
        let (ha, hb) = (
            a.machine().obs.exits.get(cause),
            b.machine().obs.exits.get(cause),
        );
        assert_eq!(
            (ha.count(), ha.p50(), ha.p99(), ha.mean()),
            (hb.count(), hb.p50(), hb.p99(), hb.mean()),
            "{} histogram must be deterministic",
            cause.label()
        );
    }
    assert!(
        a.machine().obs.exits.total_count() > 0,
        "streaming run must record exits"
    );
}

#[test]
fn spans_reconcile_with_time_stats_on_all_platforms() {
    let platforms: Vec<Box<dyn Platform>> = vec![
        Box::new(RawPlatform::new(streaming_machine(100, true))),
        Box::new(LvmmPlatform::new(
            streaming_machine(100, true),
            layout::ENTRY,
        )),
        Box::new(HostedPlatform::new(
            streaming_machine(100, true),
            layout::ENTRY,
        )),
    ];
    for mut platform in platforms {
        let clock = platform.machine().config().clock_hz;
        platform.run_for(clock / 50);
        let stats = *platform.time_stats();
        let obs = &platform.machine().obs;
        // Guest + monitor + host-model + idle spans cover the whole run.
        assert_eq!(
            obs.spans.grand_total(),
            stats.total(),
            "{}: span cycles == accounted cycles",
            platform.name()
        );
        for (track, bucket) in [
            (Track::Guest, stats.guest),
            (Track::Monitor, stats.monitor),
            (Track::HostModel, stats.host_model),
            (Track::Idle, stats.idle),
        ] {
            assert_eq!(
                obs.spans.total(track),
                bucket,
                "{}: {} track == flat bucket",
                platform.name(),
                track.label()
            );
        }
    }
}

#[test]
fn qstats_samples_live_without_stopping_the_stream() {
    let machine = streaming_machine(100, false);
    let mut vmm = LvmmPlatform::new(machine, layout::ENTRY);
    let clock = vmm.machine().config().clock_hz;
    vmm.run_for(clock / 10); // reach steady state

    let mut dbg = Debugger::new(UartLink {
        platform: vmm,
        slice: 2_000,
    });
    let s1 = dbg.query_stats().expect("first qStats");
    dbg.link_mut().platform.run_for(clock / 50);
    let s2 = dbg.query_stats().expect("second qStats");

    // The guest never stopped, and time kept flowing between samples.
    assert!(!dbg.link_ref().platform.guest_stopped());
    assert!(s2.now > s1.now);
    assert!(s2.guest > s1.guest, "guest kept executing between samples");
    assert_eq!(s1.exits.len(), ExitCause::COUNT);
    // Cycle attribution in the sample is complete and self-consistent.
    assert_eq!(s1.guest + s1.monitor + s1.host + s1.idle, s1.now);
    assert_eq!(s2.guest + s2.monitor + s2.host + s2.idle, s2.now);
    // Exit counters only ever grow.
    for (c1, c2) in s1.exits.iter().zip(&s2.exits) {
        assert!(c2 >= c1);
    }
    // A streaming guest takes privileged and IRQ-virtualization exits.
    let count = |cause: ExitCause| s2.exits[cause.index()];
    assert!(count(ExitCause::Privileged) > 0);
    assert!(count(ExitCause::IrqInject) > 0);

    let platform = dbg.into_link().platform;
    let stats = GuestStats::read(platform.machine()).expect("guest stats");
    assert_eq!(stats.fault_cause, 0);
}

#[test]
fn malformed_qstats_packets_never_kill_the_stub() {
    let machine = streaming_machine(100, false);
    let mut vmm = LvmmPlatform::new(machine, layout::ENTRY);
    let clock = vmm.machine().config().clock_hz;
    vmm.run_for(clock / 10);

    // Near-miss and garbage payloads go straight down the wire.
    for bad in ["qStat", "qStatsX", "q", "S1;g:zz", "qStats,extra"] {
        vmm.machine_mut().uart_input(&encode_packet(bad));
    }
    vmm.run_for(200_000);
    // Discard the stub's error replies to the garbage above.
    let _ = vmm.machine_mut().uart_output();

    // The stub answered every one with a parse error, not a panic, and the
    // guest kept streaming. A well-formed qStats still works afterwards.
    let mut dbg = Debugger::new(UartLink {
        platform: vmm,
        slice: 2_000,
    });
    let s = dbg
        .query_stats()
        .expect("stub alive after malformed traffic");
    assert!(s.now > 0);
    assert!(!dbg.link_ref().platform.guest_stopped());
}

#[test]
fn ring_overflow_is_counted_and_surfaced_in_the_export() {
    use lwvmm::obs::{Dev, EventKind, Recorder, TraceRing};
    let mut rec = Recorder::new();
    rec.enable_tracing();
    rec.ring = TraceRing::new(2);
    for i in 0..10 {
        rec.emit(
            i,
            EventKind::Irq {
                dev: Dev::Nic,
                irq: 5,
            },
        );
    }
    assert_eq!(rec.ring.len(), 2);
    assert_eq!(rec.ring.dropped(), 8);
    assert_eq!(rec.ring.total_offered(), 10);
    let mut t = ChromeTrace::new();
    t.add_platform(1, "tiny", &rec);
    let json = t.finish();
    assert!(json.contains("\"truncated\""));
    assert!(json.contains("\"events_dropped\":8"));
}

/// Streaming machine with tracing *and* the deterministic profiler enabled
/// (kernel function symbols, default 997-cycle sampling interval).
fn profiled_machine(rate_mbps: u64) -> Machine {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(rate_mbps)
        .build(&machine)
        .expect("kernel assembles");
    machine.load_program(&program);
    machine.obs.enable_tracing();
    machine.obs.enable_profiler(Profiler::new(
        SymbolMap::from_ranges(kernel::profile_symbols(&program)),
        Profiler::DEFAULT_INTERVAL,
    ));
    machine
}

type PlatformCtor = fn() -> Box<dyn Platform>;

fn profiled_platforms() -> Vec<(&'static str, PlatformCtor)> {
    fn raw() -> Box<dyn Platform> {
        Box::new(RawPlatform::new(profiled_machine(100)))
    }
    fn lvmm() -> Box<dyn Platform> {
        Box::new(LvmmPlatform::new(profiled_machine(100), layout::ENTRY))
    }
    fn hosted() -> Box<dyn Platform> {
        Box::new(HostedPlatform::new(profiled_machine(100), layout::ENTRY))
    }
    vec![("raw", raw), ("lvmm", lvmm), ("hosted", hosted)]
}

/// The profiler's cycle total is fed by the same `charge(Guest, ..)` calls
/// as the span track, so the two must agree *exactly* — any drift means a
/// code path charged guest cycles outside `Recorder::charge`.
#[test]
fn profile_cycles_reconcile_exactly_with_guest_track_on_all_platforms() {
    for (name, make) in profiled_platforms() {
        let mut platform = make();
        let clock = platform.machine().config().clock_hz;
        platform.run_for(clock / 50);
        let obs = &platform.machine().obs;
        let prof = obs.prof().expect("profiler enabled");
        assert!(prof.total_cycles() > 0, "{name}: guest cycles attributed");
        assert!(prof.total_samples() > 0, "{name}: sampler fired");
        assert_eq!(
            prof.total_cycles(),
            obs.spans.total(Track::Guest),
            "{name}: profiler cycle total == guest span track, exactly"
        );
        let folded = prof.fold();
        assert!(
            folded.contains("guest;build_frame "),
            "{name}: the hot loop is symbolized:\n{folded}"
        );
    }
}

/// The tentpole acceptance check: sampling rides simulated cycles, so
/// recording a run and replaying its journal on a fresh boot produce
/// byte-identical collapsed-stack output on every platform.
#[test]
fn recorded_and_replayed_profiles_are_byte_identical_on_all_platforms() {
    for (name, make) in profiled_platforms() {
        let mut rec = make();
        let cores = rec.machine().num_cores();
        rec.machine_mut().obs.enable_journal(name, cores);
        let per_ms = rec.machine().config().clock_hz / 1_000;
        rec.run_for(10 * per_ms);
        let end = rec.machine().now();
        let mut journal = rec.machine().obs.journal().cloned().unwrap();
        journal.seal(end);
        let recorded = rec.machine().obs.prof().unwrap().fold();
        assert!(!recorded.is_empty(), "{name}: profile captured");

        let mut rep = make();
        let reached = ReplayDriver::new(&journal).run(rep.as_mut());
        assert_eq!(reached, end, "{name}: replay reaches the recorded end");
        let replayed = rep.machine().obs.prof().unwrap().fold();
        assert_eq!(
            replayed, recorded,
            "{name}: .folded bytes identical under replay"
        );

        let obs = &rep.machine().obs;
        assert_eq!(
            obs.prof().unwrap().total_cycles(),
            obs.spans.total(Track::Guest),
            "{name}: reconciliation holds on the replayed timeline too"
        );
    }
}

/// `qProf` is to the profiler what `qStats` is to the metrics: answered by
/// the monitor-resident stub without stopping the guest.
#[test]
fn qprof_samples_the_profiler_live_without_stopping_the_stream() {
    let mut vmm = LvmmPlatform::new(profiled_machine(100), layout::ENTRY);
    let clock = vmm.machine().config().clock_hz;
    vmm.run_for(clock / 10); // reach steady state

    let mut dbg = Debugger::new(UartLink {
        platform: vmm,
        slice: 2_000,
    });
    let s1 = dbg.query_prof(5).expect("first qProf");
    dbg.link_mut().platform.run_for(clock / 50);
    let s2 = dbg.query_prof(5).expect("second qProf");

    assert!(!dbg.link_ref().platform.guest_stopped());
    assert_eq!(s1.interval, Profiler::DEFAULT_INTERVAL);
    assert!(s2.now > s1.now);
    assert!(
        s2.total_cycles > s1.total_cycles,
        "guest kept being profiled between samples"
    );
    assert!(!s1.top.is_empty() && s1.top.len() <= 5);
    assert!(
        s1.top.iter().any(|(name, _, _)| name == "build_frame"),
        "hot symbol in the top list: {:?}",
        s1.top
    );
    // Top list is sorted by descending cycle count.
    for pair in s2.top.windows(2) {
        assert!(pair[0].1 >= pair[1].1);
    }
}

/// Without an enabled profiler the stub answers `qProf` with a clean
/// `err::PROFILER` target error instead of stalling the session.
#[test]
fn qprof_without_profiler_is_a_clean_error() {
    let machine = streaming_machine(100, false);
    let mut vmm = LvmmPlatform::new(machine, layout::ENTRY);
    let clock = vmm.machine().config().clock_hz;
    vmm.run_for(clock / 20);
    let mut dbg = Debugger::new(UartLink {
        platform: vmm,
        slice: 2_000,
    });
    // err::PROFILER = 7.
    assert_eq!(dbg.query_prof(5).unwrap_err(), DbgError::Target(7));
    // The stub (and the guest) survive to answer a well-formed qStats.
    assert!(dbg.query_stats().expect("stub alive").now > 0);
    assert!(!dbg.link_ref().platform.guest_stopped());
}

#[test]
fn stats_reply_wire_roundtrip() {
    // The exact payload the stub emits parses back to the same sample.
    let machine = streaming_machine(100, false);
    let mut vmm = LvmmPlatform::new(machine, layout::ENTRY);
    let clock = vmm.machine().config().clock_hz;
    vmm.run_for(clock / 20);
    let mut dbg = Debugger::new(UartLink {
        platform: vmm,
        slice: 2_000,
    });
    let s = dbg.query_stats().expect("qStats");
    let reply = Reply::Stats(s.clone());
    assert_eq!(Reply::parse(&reply.format()), Some(reply));
}

/// The bytes every observation sink produces, pinned: for fixed runs, the
/// FNV-1a digest of the saved journal text and of the Chrome trace, plus
/// the ring's offered-event count and the journal's event count. Record
/// and replay (and reruns) change together, so only a pin catches a
/// routing change that sends an event to one sink too many or too few.
#[test]
fn event_sinks_are_pinned_byte_for_byte() {
    use lwvmm::farm::{guest_machine, GuestSpec, PlatformKind};
    use lwvmm::obs::digest;

    // Journal, tracing and causal tracking all on; 20 simulated ms.
    fn sinks(spec: GuestSpec) -> (u64, u64, u64, usize) {
        let spec = GuestSpec {
            causal: true,
            ..spec
        };
        let (mut machine, entry, program) = guest_machine(&spec).expect("guest boots");
        if spec.fault.is_some() {
            let isr = program.symbols.get("isr_timer").expect("timer ISR symbol");
            machine.add_logpoint(isr, "tick", None);
        }
        // Checkpoints far apart: the pin is about the event sinks.
        let mut platform = spec.platform.boot(machine, entry, Some(100_000_000));
        let per_ms = platform.machine().config().clock_hz / 1_000;
        platform.run_for(20 * per_ms);
        let obs = &platform.machine().obs;
        let mut journal = obs.journal().cloned().expect("journal recorded");
        journal.seal(platform.machine().now());
        let text = journal.save();
        if spec.fault.is_some() {
            assert!(text.contains(" fault ") && text.contains(" log "));
        }
        (
            digest(text.as_bytes()),
            digest(export(platform.as_ref()).as_bytes()),
            obs.ring.total_offered(),
            journal.events.len(),
        )
    }
    let streaming = |platform, cores| GuestSpec {
        platform,
        cores,
        rate_mbps: 950,
        ..GuestSpec::default()
    };
    let smp_trace = lwvmm::guest::apps::smp_trace_guest();
    // The streaming kernel leaves a second core parked, so its sinks match
    // the one-core run except for the journal's `cores 2` header line.
    const LVMM: (u64, u64, u64, usize) = (0xbbff1504f89628fa, 0x93916e09a45baf14, 3594, 1062);
    let cases = [
        ("lvmm/1", streaming(PlatformKind::Lvmm, 1), LVMM),
        (
            "lvmm/2",
            streaming(PlatformKind::Lvmm, 2),
            (0x137cae49d704122a, LVMM.1, LVMM.2, LVMM.3),
        ),
        (
            "hosted/1",
            streaming(PlatformKind::Hosted, 1),
            (0xeff4314de03e7d0e, 0xc50d0403ec09f31a, 1174, 245),
        ),
        (
            "real-hw/1",
            streaming(PlatformKind::RawHw, 1),
            (0x0367b2aec8815977, 0x55c4bd46d142b384, 4155, 4155),
        ),
        (
            "lvmm/1 fault+logpoint",
            GuestSpec {
                fault: Some(("all".to_string(), 42)),
                ..streaming(PlatformKind::Lvmm, 1)
            },
            (0x4741ff7d25d4fdf5, 0x4db68e536bf28af6, 4069, 1214),
        ),
        // IPIs and tracepoints: the SMP demo guest on two cores.
        (
            "lvmm/2 smp-trace",
            GuestSpec {
                image: Some(smp_trace),
                ..streaming(PlatformKind::Lvmm, 2)
            },
            (0x49531fd336a98324, 0x99a1ba7b08ed0e31, 283, 121),
        ),
    ];
    let mut failures = Vec::new();
    for (name, spec, want) in cases {
        let got = sinks(spec);
        if got != want {
            failures.push(format!(
                "{name}: got (0x{:016x}, 0x{:016x}, {}, {})",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Every `qStats` reply byte costs the monitor simulated cycles, so the
/// reply must carry nothing that depends on host-side engine state: with
/// the predecoded-instruction cache on or off, the same session samples
/// the same cycles and halts at the same cycle.
#[test]
fn qstats_replies_do_not_depend_on_the_decode_cache() {
    let session = |cache: bool| {
        let program = lwvmm::guest::apps::counter_guest();
        let mut machine = Machine::new(MachineConfig {
            ram_size: 8 << 20,
            ..Default::default()
        });
        machine.load_program(&program);
        machine.cpu.set_decode_cache(cache);
        let platform = LvmmPlatform::new(machine, program.base());
        let mut dbg = Debugger::new(UartLink::new(platform));
        dbg.link_mut().platform.run_for(200_000);
        let first = dbg.query_stats().expect("first qStats").now;
        dbg.link_mut().platform.run_for(100_000);
        let second = dbg.query_stats().expect("second qStats").now;
        dbg.halt().expect("halt");
        (first, second, dbg.link_ref().platform.machine().now())
    };
    assert_eq!(session(true), session(false));
}
