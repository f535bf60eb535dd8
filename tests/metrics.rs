//! Host-side self-observability end-to-end tests: metrics publication and
//! the host-time profiler are **simulation-invisible by construction** —
//! wall clock readings flow out of the simulation, never back in — so
//! enabling them (or publishing after every heartbeat-style slice) cannot
//! change a single journal byte on any platform. The exposition bytes of
//! fixed profiler-off runs are pinned too.

use lwvmm::guest::{kernel::layout, GuestStats, Workload};
use lwvmm::machine::{Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::{LvmmPlatform, ReplayDriver};
use lwvmm::obs::{HostPhase, MetricsSnapshot};

const KINDS: [&str; 3] = ["real-hw", "lvmm", "hosted"];

fn platform(kind: &str, metrics: bool) -> Box<dyn Platform> {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    if metrics {
        machine.obs.enable_hostprof();
    }
    match kind {
        "real-hw" => Box::new(RawPlatform::new(machine)),
        "lvmm" => Box::new(LvmmPlatform::new(machine, layout::ENTRY)),
        "hosted" => Box::new(lwvmm::hosted::HostedPlatform::new(machine, layout::ENTRY)),
        other => panic!("unknown platform {other}"),
    }
}

/// One publication of `p`'s metrics, rendered as Prometheus text.
fn exposition(p: &dyn Platform) -> String {
    let mut s = MetricsSnapshot::default();
    p.publish_metrics(&mut s);
    s.prometheus()
}

/// Records 10 simulated milliseconds of the streaming workload and returns
/// the sealed journal text plus the final guest RAM image. `slices > 1`
/// runs in chunks, publishing metrics into one snapshot after each one.
fn record(kind: &str, metrics: bool, slices: u64) -> (String, Vec<u8>) {
    let mut p = platform(kind, metrics);
    let cores = p.machine().num_cores();
    p.machine_mut().obs.enable_journal(kind, cores);
    let per_ms = p.machine().config().clock_hz / 1_000;
    let total = 10 * per_ms;
    if slices > 1 {
        let mut s = MetricsSnapshot::default();
        let slice = (total / slices).max(1);
        let mut done = 0;
        while done < total {
            let chunk = slice.min(total - done);
            let ran = p.run_for(chunk);
            p.publish_metrics(&mut s);
            done += ran;
            if ran < chunk {
                break; // stuck — mirrors `lwvmm-run`'s heartbeat loop
            }
        }
    } else {
        p.run_for(total);
    }
    let mut j = p.machine().obs.journal().cloned().unwrap();
    j.seal(p.machine().now());
    (j.save(), p.machine().mem.as_bytes().to_vec())
}

/// The invariant the whole subsystem rests on: with the host profiler on
/// AND heartbeat-style sliced execution with periodic metric publication,
/// every platform produces byte-identical journals and RAM images to a
/// plain metrics-off run.
#[test]
fn metrics_and_heartbeat_are_simulation_invisible_on_all_platforms() {
    for kind in KINDS {
        let (journal_off, ram_off) = record(kind, false, 1);
        let (journal_on, ram_on) = record(kind, true, 1);
        assert_eq!(
            journal_off, journal_on,
            "{kind}: metrics changed journal bytes"
        );
        assert_eq!(ram_off, ram_on, "{kind}: metrics changed guest RAM");

        let (journal_hb, ram_hb) = record(kind, true, 7);
        assert_eq!(
            journal_off, journal_hb,
            "{kind}: heartbeat changed journal bytes"
        );
        assert_eq!(ram_off, ram_hb, "{kind}: heartbeat changed guest RAM");
    }
}

/// A journal recorded with metrics on replays cleanly on a metrics-off
/// platform (and vice versa): the recording carries no trace of the host
/// instrumentation.
#[test]
fn metrics_on_recording_replays_on_metrics_off_platform() {
    let mut rec = platform("lvmm", true);
    let cores = rec.machine().num_cores();
    rec.machine_mut().obs.enable_journal("lvmm", cores);
    let per_ms = rec.machine().config().clock_hz / 1_000;
    rec.run_for(10 * per_ms);
    let end = rec.machine().now();
    let mut journal = rec.machine().obs.journal().cloned().unwrap();
    journal.seal(end);

    let mut rep = platform("lvmm", false);
    let reached = ReplayDriver::new(&journal).run(rep.as_mut());
    assert_eq!(reached, end);
    assert_eq!(
        GuestStats::read(rep.machine()).unwrap(),
        GuestStats::read(rec.machine()).unwrap()
    );
    assert_eq!(rep.machine().mem.as_bytes(), rec.machine().mem.as_bytes());
}

/// The published view of a run: `publish_metrics` exports instruction and
/// cycle totals, per-cause exit counters and — with the profiler on — the
/// host-time phases, all under the platform label, and the attribution
/// accounts for (nearly) the whole wall clock.
#[test]
fn published_registry_covers_counters_and_host_phases() {
    for kind in KINDS {
        let mut p = platform(kind, true);
        let per_ms = p.machine().config().clock_hz / 1_000;
        p.run_for(10 * per_ms);
        p.machine().obs.host_mark(HostPhase::GuestExec); // close deferred window
        let mut s = MetricsSnapshot::default();
        p.publish_metrics(&mut s);

        let name = |metric: &str| format!("{metric}{{platform=\"{kind}\"}}");
        assert!(s.counter(&name("lwvmm_instructions_total")) > 0, "{kind}");
        assert!(s.counter(&name("lwvmm_guest_cycles_total")) > 0, "{kind}");
        let wall = s.counter(&name("lwvmm_host_wall_ns_total"));
        assert!(wall > 0, "{kind}: wall clock published");
        assert!(s.counter(&name("lwvmm_host_marks_total")) > 0, "{kind}");
        let attributed: u64 = HostPhase::ALL
            .iter()
            .map(|ph| {
                s.counter(&format!(
                    "lwvmm_host_phase_ns_total{{platform=\"{kind}\",phase=\"{}\"}}",
                    ph.label()
                ))
            })
            .sum();
        assert!(attributed <= wall, "{kind}: attribution cannot exceed wall");
        assert!(
            attributed as f64 >= wall as f64 * 0.5,
            "{kind}: marks explain most of the wall clock \
             ({attributed} of {wall} ns)"
        );

        // The exposition renders every family deterministically.
        let text = s.prometheus();
        assert!(text.contains("# TYPE lwvmm_instructions_total counter"));
        assert!(text.contains(&format!(
            "lwvmm_host_phase_ns_total{{platform=\"{kind}\",phase=\"guest-exec\"}}"
        )));
    }
}

/// On a multi-core machine the platform-wide instruction counter is the
/// sum over every core, not the count of whichever core happened to be
/// active at publication.
#[test]
fn instructions_total_sums_every_core() {
    let spin = lwvmm::guest::apps::smp_spin_guest();
    let entry = spin.symbols.get("start").expect("start symbol");
    for kind in lwvmm::farm::PlatformKind::ALL {
        let mut machine = lwvmm::farm::new_machine(2);
        machine.load_program(&spin);
        let mut p = kind.boot(machine, entry, None);
        // Two scheduler quanta: both cores have run, core 1 is active.
        p.run_for(2 * 37_123);
        let mut s = MetricsSnapshot::default();
        p.publish_metrics(&mut s);
        let label = kind.label();
        let total = s.counter(&format!("lwvmm_instructions_total{{platform=\"{label}\"}}"));
        let per_core: Vec<u64> = (0..2)
            .map(|n| {
                s.counter(&format!(
                    "lwvmm_core_instructions_total{{platform=\"{label}\",core=\"{n}\"}}"
                ))
            })
            .collect();
        assert!(per_core.iter().all(|&n| n > 0), "{label}: both cores ran");
        assert_eq!(total, per_core.iter().sum::<u64>(), "{label}");
        assert_eq!(total, p.machine().total_instret(), "{label}");
    }
}

/// The exposition bytes of fixed runs, pinned by digest and line count:
/// the streaming workload for 10 simulated ms on every platform at one and
/// two cores, host profiler off, so every series is a pure function of the
/// simulated run.
#[test]
fn exposition_is_pinned_per_platform_and_core_count() {
    let mut got = Vec::new();
    for cores in [1, 2] {
        for kind in lwvmm::farm::PlatformKind::ALL {
            let spec = lwvmm::farm::GuestSpec {
                platform: kind,
                cores,
                record: false,
                ..Default::default()
            };
            let (machine, entry, _) = lwvmm::farm::guest_machine(&spec).unwrap();
            let mut p = kind.boot(machine, entry, None);
            let per_ms = p.machine().config().clock_hz / 1_000;
            p.run_for(10 * per_ms);
            let text = exposition(p.as_ref());
            got.push((
                kind.label(),
                cores,
                lwvmm::obs::digest(text.as_bytes()),
                text.lines().count(),
            ));
        }
    }
    let want = [
        ("real-hw", 1, 2117171031455812350, 60),
        ("lvmm", 1, 14118688662092009612, 65),
        ("hosted", 1, 14334343796026635382, 68),
        ("real-hw", 2, 5622361221689258552, 62),
        ("lvmm", 2, 2597400997394658684, 67),
        ("hosted", 2, 14336772918326587920, 70),
    ];
    assert_eq!(got, want);
}

/// The `qMetrics` reply carries the profiler's own `HostAttribution`, so
/// its phase vector is `HostPhase::COUNT` wide by construction; what is
/// left to pin is the canonical order.
#[test]
fn wire_phase_width_matches_profiler_phase_count() {
    assert_eq!(HostPhase::ALL.len(), HostPhase::COUNT);
    // Canonical order is part of every surface's schema (JSON key order,
    // wire vector, prometheus series) — pin its head and tail.
    assert_eq!(HostPhase::ALL[0].label(), "guest-exec");
    assert_eq!(HostPhase::ALL[HostPhase::COUNT - 1].label(), "other");
}

/// Publishing after each of five slices into one snapshot equals one
/// publication of the whole run: every series is a cumulative total, so a
/// later publication overwrites an earlier one — what makes periodic
/// publication safe.
#[test]
fn sliced_publication_merges_to_the_whole() {
    let mut p = platform("lvmm", true);
    let per_ms = p.machine().config().clock_hz / 1_000;

    let mut sliced = MetricsSnapshot::default();
    for _ in 0..5 {
        p.run_for(2 * per_ms);
        p.publish_metrics(&mut sliced);
    }
    let mut whole = MetricsSnapshot::default();
    p.publish_metrics(&mut whole);

    // The wall clock keeps ticking between the two publish calls, so it
    // alone may differ.
    let wall = "lwvmm_host_wall_ns_total{platform=\"lvmm\"}";
    let w_sliced = sliced.counters.remove(wall).unwrap();
    let w_whole = whole.counters.remove(wall).unwrap();
    assert!(
        w_sliced <= w_whole,
        "wall clock is monotonic across publishes"
    );
    assert_eq!(sliced, whole);
}
