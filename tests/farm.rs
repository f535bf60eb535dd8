//! Debug-farm end-to-end tests: N guests in one process, concurrent debug
//! sessions over TCP, fleet aggregation, fault isolation — and the
//! non-negotiable determinism claim, proven differentially: a farm-served
//! guest's sealed journal is byte-identical to the same guest run
//! standalone.

use lwvmm::debugger::Debugger;
use lwvmm::farm::{
    control_request, Farm, FarmConfig, GuestHealth, GuestSpec, PlatformKind, TcpLink,
};
use lwvmm::guest::{kernel::layout, Workload};
use lwvmm::machine::{Machine, MachineConfig, Platform};
use lwvmm::monitor::LvmmPlatform;
use lwvmm::obs::json::{parse, Json};
use lwvmm::obs::HostPhase;
use std::time::Duration;

/// A short horizon keeps debug-build runtime in check: ten simulated
/// milliseconds at the default 150 MHz clock.
const HORIZON: u64 = 1_500_000;

fn farm_config(guests: Vec<GuestSpec>, horizon: Option<u64>) -> FarmConfig {
    FarmConfig {
        guests,
        workers: 2,
        horizon,
        ..FarmConfig::default()
    }
}

/// The exact standalone recipe a farm lvmm guest must match: same machine
/// config, same workload, same flight-recorder cadence, sealed at wherever
/// `run_for(horizon)` actually stopped.
fn standalone_lvmm_journal(rate: u64, horizon: u64, every: u64) -> String {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(rate).build(&machine).unwrap();
    machine.load_program(&program);
    let mut vmm = LvmmPlatform::new(machine, layout::ENTRY);
    vmm.enable_flight_recorder(every);
    vmm.run_for(horizon);
    let now = vmm.machine().now();
    let obs = &mut vmm.machine_mut().obs;
    obs.journal_mut().unwrap().seal(now);
    obs.journal().unwrap().save()
}

/// Every numeric value for `key` in a (flat, deterministic) JSON line, in
/// order of appearance. Enough of a parser for the farm's control replies.
fn all_u64s(json: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        let tail = &rest[i + pat.len()..];
        let end = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        out.push(tail[..end].parse().expect("numeric value"));
        rest = &tail[end..];
    }
    out
}

/// The acceptance test for the determinism claim: the journal a farm guest
/// seals at the horizon is byte-for-byte the journal a standalone run of
/// the same guest produces — even with a debug client connected (a silent
/// connection injects no bytes, so the simulation never sees it), and
/// identically across every guest of the fleet.
#[test]
fn farm_journal_is_byte_identical_to_standalone() {
    let guests = vec![GuestSpec::default(); 3];
    let farm = Farm::launch(farm_config(guests, Some(HORIZON))).expect("launch");

    // Connect to guest 0 and say nothing. Determinism must survive the
    // socket being open.
    let silent = TcpLink::connect(&format!("127.0.0.1:{}", farm.ports()[0])).expect("connect");
    assert!(farm.wait_settled(Duration::from_secs(120)), "fleet settles");
    drop(silent);

    let expected = standalone_lvmm_journal(100, HORIZON, FarmConfig::default().record_every);
    let reports = farm.shutdown();
    assert_eq!(reports.len(), 3);
    for r in &reports {
        assert_eq!(r.health, GuestHealth::Done, "guest {} settled", r.id);
        let journal = r.journal.as_ref().expect("recorded guest has a journal");
        assert_eq!(
            journal, &expected,
            "guest {}: farm journal differs from standalone",
            r.id
        );
    }
}

/// Two concurrent debug sessions on different guests of the same farm,
/// commands interleaved: each stub answers independently, and the fleet
/// status counts both sessions.
#[test]
fn concurrent_sessions_interleave_across_guests() {
    let guests = vec![GuestSpec::default(); 3];
    let farm = Farm::launch(farm_config(guests, None)).expect("launch");

    let link =
        |id: usize| TcpLink::connect(&format!("127.0.0.1:{}", farm.ports()[id])).expect("connect");
    let mut a = Debugger::new(link(0));
    let mut b = Debugger::new(link(2));

    // Interleave: halt both, inspect both, breakpoint both, resume both.
    a.halt().expect("halt guest 0");
    b.halt().expect("halt guest 2");
    let ra = a.read_registers().expect("regs guest 0");
    let rb = b.read_registers().expect("regs guest 2");
    assert_ne!(ra.pc, 0, "guest 0 is executing kernel code");
    assert_ne!(rb.pc, 0, "guest 2 is executing kernel code");
    a.set_breakpoint(layout::ENTRY).expect("break guest 0");
    b.set_breakpoint(layout::ENTRY).expect("break guest 2");
    let ma = a.read_memory(layout::ENTRY, 8).expect("mem guest 0");
    assert_eq!(ma.len(), 8);
    a.clear_breakpoint(layout::ENTRY).expect("clear guest 0");
    b.clear_breakpoint(layout::ENTRY).expect("clear guest 2");
    a.resume().expect("resume guest 0");
    b.resume().expect("resume guest 2");

    let status = control_request(farm.control_port(), "status").expect("status");
    let sessions = all_u64s(&status, "sessions");
    assert_eq!(
        sessions,
        vec![1, 0, 1],
        "one session each on guests 0 and 2"
    );
    farm.shutdown();
}

/// Back-to-back sessions: a client that disconnects and reconnects at once
/// gets a new session, even before the farm has read the previous session's
/// end. The pump budget is bounded, so a refused connection fails the test
/// instead of hanging it.
#[test]
fn back_to_back_reconnects_are_all_served() {
    let farm = Farm::launch(farm_config(vec![GuestSpec::default()], None)).expect("launch");
    let addr = format!("127.0.0.1:{}", farm.ports()[0]);
    for i in 0..20 {
        let mut dbg = Debugger::new(TcpLink::connect(&addr).expect("connect"));
        dbg.set_pump_budget(2_000);
        if i == 0 {
            // `?` answers with a stop only while the guest is stopped.
            dbg.halt().expect("halt");
        }
        dbg.query_stop()
            .unwrap_or_else(|e| panic!("session {i}: no stop reply: {e}"));
    }
    let status = control_request(farm.control_port(), "status").expect("status");
    assert_eq!(all_u64s(&status, "sessions"), vec![20]);
    farm.shutdown();
}

/// Fleet aggregation: the `qstats` totals object equals the field-wise sum
/// of the per-guest objects — re-derived here externally, the same check
/// the farm-smoke CI job performs.
#[test]
fn control_stats_totals_equal_sum_of_per_guest() {
    let guests = vec![GuestSpec::default(); 3];
    let farm = Farm::launch(farm_config(guests, Some(HORIZON))).expect("launch");
    assert!(farm.wait_settled(Duration::from_secs(120)), "fleet settles");

    let stats = control_request(farm.control_port(), "stats").expect("stats");
    for key in [
        "instret",
        "guest_cycles",
        "monitor_cycles",
        "host_model_cycles",
        "idle_cycles",
        "frames",
        "stream_bytes",
        "journal_payload_bytes",
        "sessions",
    ] {
        let vals = all_u64s(&stats, key);
        assert_eq!(vals.len(), 4, "{key}: totals plus three guests");
        assert_eq!(
            vals[0],
            vals[1..].iter().sum::<u64>(),
            "{key}: total equals sum of per-guest"
        );
    }
    // Identical guests simulate identically — instret agrees across the
    // fleet (determinism seen through the aggregation endpoint).
    let instret = all_u64s(&stats, "instret");
    assert_eq!(instret[1], instret[2]);
    assert_eq!(instret[2], instret[3]);

    // Per-guest drill-down returns exactly that guest, and its totals are
    // its own values.
    let one = control_request(farm.control_port(), "stats 1").expect("stats 1");
    let vals = all_u64s(&one, "instret");
    assert_eq!(vals.len(), 2, "totals plus exactly one guest");
    assert_eq!(vals[0], vals[1]);
    farm.shutdown();
}

/// A number member of a parsed control reply.
fn num(j: &Json, key: &str) -> u64 {
    match j.get(key) {
        Some(Json::Num(n)) => n.parse().expect("integer"),
        other => panic!("{key}: not a number: {other:?}"),
    }
}

/// The `metrics` and `prof` control verbs over a settled fleet: host-time
/// phases print in the canonical `HostPhase::ALL` order like every other
/// surface, the fleet's counters are the sum of each guest's, and fleet
/// profile symbols sort by cycles descending, then by name.
#[test]
fn control_metrics_and_prof_aggregate_the_fleet() {
    let spec = GuestSpec {
        hostprof: true,
        profile: true,
        ..GuestSpec::default()
    };
    let farm = Farm::launch(farm_config(vec![spec; 3], Some(HORIZON))).expect("launch");
    assert!(farm.wait_settled(Duration::from_secs(120)), "fleet settles");
    let port = farm.control_port();
    let reply = |cmd: &str| {
        let text = control_request(port, cmd).expect(cmd);
        let doc = parse(&text).expect("control reply is JSON");
        (text, doc)
    };

    // Settled guests take no more phase marks, so phase totals and mark
    // counts hold still between the requests (wall time does not).
    let (text, fleet) = reply("metrics");
    assert_eq!(num(&fleet, "profiled_guests"), 3);
    let labels: Vec<String> = HostPhase::ALL.iter().map(|p| p.label()).collect();
    let at: Vec<usize> = labels
        .iter()
        .map(|l| text.find(&format!("\"{l}\":")).expect(l))
        .collect();
    assert!(
        at.windows(2).all(|w| w[0] < w[1]),
        "canonical order: {text}"
    );
    let guests: Vec<Json> = (0..3).map(|i| reply(&format!("metrics {i}")).1).collect();
    for g in &guests {
        assert_eq!(num(g, "profiled_guests"), 1);
    }
    let sum = |f: &dyn Fn(&Json) -> u64| guests.iter().map(f).sum::<u64>();
    assert_eq!(num(&fleet, "marks"), sum(&|g| num(g, "marks")));
    assert!(num(&fleet, "wall_ns") <= sum(&|g| num(g, "wall_ns")));
    let phases = fleet.get("phase_ns").unwrap();
    for l in &labels {
        assert_eq!(
            num(phases, l),
            sum(&|g| num(g.get("phase_ns").unwrap(), l)),
            "{l}"
        );
    }

    let (_, prof) = reply("prof");
    assert_eq!(num(&prof, "profiled_guests"), 3);
    let Some(Json::Arr(symbols)) = prof.get("symbols") else {
        panic!("no symbol list: {prof:?}");
    };
    assert!(symbols.len() > 1, "{symbols:?}");
    let rows: Vec<(u64, String)> = symbols
        .iter()
        .map(|s| match s.get("symbol") {
            Some(Json::Str(name)) => (num(s, "cycles"), name.clone()),
            other => panic!("symbol name: {other:?}"),
        })
        .collect();
    assert!(
        rows.windows(2)
            .all(|w| w[0].0 > w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1)),
        "cycles descending, then name: {rows:?}"
    );
    // Identical guests profile identically: each symbol's fleet cycles
    // are three times one guest's.
    let (_, one) = reply("prof 0");
    let Some(Json::Arr(one)) = one.get("symbols") else {
        panic!("no symbol list");
    };
    assert_eq!(one.len(), symbols.len());
    for (f, g) in symbols.iter().zip(one) {
        assert_eq!(f.get("symbol"), g.get("symbol"));
        assert_eq!(num(f, "cycles"), 3 * num(g, "cycles"));
    }
    farm.shutdown();
}

/// Fault isolation: a guest running a fault campaign shares the farm with
/// healthy neighbors. The neighbors must reach the horizon and keep
/// answering their debug stubs no matter what the campaign does to guest 0.
#[test]
fn fault_campaign_guest_does_not_stall_neighbors() {
    let campaign = GuestSpec {
        fault: Some(("all".into(), 42)),
        ..GuestSpec::default()
    };
    let guests = vec![campaign, GuestSpec::default(), GuestSpec::default()];
    let farm = Farm::launch(farm_config(guests, Some(HORIZON))).expect("launch");
    assert!(
        farm.wait_settled(Duration::from_secs(120)),
        "a wedged campaign guest must not keep the fleet from settling"
    );

    // A neighbor's stub still answers after the fleet settled.
    let link = TcpLink::connect(&format!("127.0.0.1:{}", farm.ports()[1])).expect("connect");
    let mut dbg = Debugger::new(link);
    dbg.halt().expect("halt neighbor");
    dbg.read_registers().expect("regs neighbor");
    dbg.resume().expect("resume neighbor");

    let reports = farm.shutdown();
    for r in &reports[1..] {
        assert_eq!(r.health, GuestHealth::Done, "neighbor {} settled", r.id);
        assert!(r.now >= HORIZON, "neighbor {} reached the horizon", r.id);
    }
    // The campaign guest ends wherever the faults left it — done if it
    // survived, parked if it wedged — but never still running.
    assert_ne!(reports[0].health, GuestHealth::Running);
}

/// Operator eviction: `evict` removes one guest from service while its
/// shard keeps simulating and serving the rest.
#[test]
fn evicted_guest_leaves_neighbors_serving() {
    let guests = vec![GuestSpec::default(), GuestSpec::default()];
    let mut cfg = farm_config(guests, None);
    cfg.workers = 1; // both guests on one shard: eviction must free it, not wedge it
    let farm = Farm::launch(cfg).expect("launch");

    let reply = control_request(farm.control_port(), "evict 0").expect("evict");
    assert_eq!(reply, r#"{"evicted":0}"#);

    // The survivor keeps advancing while the evicted guest's clock stands
    // still.
    let status = control_request(farm.control_port(), "status").expect("status");
    let before = all_u64s(&status, "now");
    std::thread::sleep(Duration::from_millis(300));
    let status = control_request(farm.control_port(), "status").expect("status");
    let after = all_u64s(&status, "now");
    assert_eq!(after[0], before[0], "evicted guest stopped simulating");
    assert!(after[1] > before[1], "neighbor still simulating");
    assert!(status.contains(r#""health":"evicted""#));

    // And the survivor's stub still answers on the shared shard.
    let link = TcpLink::connect(&format!("127.0.0.1:{}", farm.ports()[1])).expect("connect");
    let mut dbg = Debugger::new(link);
    dbg.halt().expect("halt survivor");
    dbg.resume().expect("resume survivor");

    let reports = farm.shutdown();
    assert_eq!(reports[0].health, GuestHealth::Evicted);
    assert_ne!(reports[1].health, GuestHealth::Evicted);
}

/// A mixed fleet — raw hardware, the lightweight monitor, the hosted full
/// monitor — boots, settles, and every recorded guest seals a journal that
/// names its own platform.
#[test]
fn mixed_platform_fleet_settles_and_records() {
    let guests = vec![
        GuestSpec {
            platform: PlatformKind::RawHw,
            ..GuestSpec::default()
        },
        GuestSpec::default(),
        GuestSpec {
            platform: PlatformKind::Hosted,
            ..GuestSpec::default()
        },
    ];
    let farm = Farm::launch(farm_config(guests, Some(HORIZON))).expect("launch");
    assert!(farm.wait_settled(Duration::from_secs(120)), "fleet settles");
    let reports = farm.shutdown();
    let platforms: Vec<&str> = reports.iter().map(|r| r.platform).collect();
    assert_eq!(platforms, vec!["real-hw", "lvmm", "hosted"]);
    for r in &reports {
        assert_eq!(r.health, GuestHealth::Done, "guest {} settled", r.id);
        let journal = r.journal.as_ref().expect("recorded guest has a journal");
        assert!(
            journal.contains(&format!("platform {}", r.platform)),
            "guest {}: journal names its platform",
            r.id
        );
    }
}

/// Debug sessions outlive the horizon: a `Done` guest's stub (including
/// time travel over its flight recording) keeps answering — that is the
/// whole point of keeping retired guests on their sockets.
#[test]
fn done_guest_still_serves_time_travel() {
    let farm =
        Farm::launch(farm_config(vec![GuestSpec::default()], Some(HORIZON))).expect("launch");
    assert!(farm.wait_settled(Duration::from_secs(120)), "guest settles");

    let link = TcpLink::connect(&format!("127.0.0.1:{}", farm.ports()[0])).expect("connect");
    let mut dbg = Debugger::new(link);
    dbg.halt().expect("halt done guest");
    let stop = dbg.seek(HORIZON / 2).expect("seek into the recording");
    match stop {
        lwvmm::debugger::StopReason::TimeTravel { cycle, .. } => {
            // The replay parks at the first step boundary at or after the
            // requested cycle.
            assert!(
                (HORIZON / 2..HORIZON).contains(&cycle),
                "parked near the target, got cycle {cycle}"
            );
        }
        other => panic!("expected a time-travel stop, got {other:?}"),
    }
    dbg.read_registers().expect("regs at the seek target");
    farm.shutdown();
}

/// A seek serviced mid-slice rewinds the clock, and the slice's budget
/// counts only forward progress, so the service loop sees a full slice,
/// not the short return that means `Stuck`: a running guest that is
/// sought stays `running`, and after `continue` it executes again.
#[test]
fn seek_keeps_a_running_farm_guest_running() {
    let farm = Farm::launch(farm_config(vec![GuestSpec::default()], None)).expect("launch");
    let link = TcpLink::connect(&format!("127.0.0.1:{}", farm.ports()[0])).expect("connect");
    let mut dbg = Debugger::new(link);
    std::thread::sleep(Duration::from_millis(200));
    dbg.halt().expect("halt");
    let now = dbg.query_stats().expect("stats").now;
    dbg.seek(now / 2).expect("seek back");

    let status = control_request(farm.control_port(), "status").expect("status");
    assert!(status.contains(r#""health":"running""#), "{status}");
    dbg.resume().expect("resume");
    let instret = || {
        let stats = control_request(farm.control_port(), "stats 0").expect("stats");
        all_u64s(&stats, "instret")[1]
    };
    let before = instret();
    std::thread::sleep(Duration::from_millis(300));
    assert!(instret() > before, "the guest executes after `continue`");
    let status = control_request(farm.control_port(), "status").expect("status");
    assert!(status.contains(r#""health":"running""#), "{status}");
    farm.shutdown();
}
