//! Measurement harness shared by the benchmark binaries.
//!
//! This is the code that regenerates the paper's evaluation: it boots the
//! HiTactix-like streaming guest on each of the three platforms, sweeps the
//! requested transfer rate, and measures achieved rate and CPU load over a
//! steady-state window — exactly the procedure behind Fig. 3.1.

use hitactix::{GuestStats, Workload};
use hx_farm::Flags;
use hx_machine::{Platform, TimeStats};
use hx_obs::json::{self, Json, JsonObj};
use hx_obs::{report, Align, ChromeTrace, ExitCause, ExitHists, HostAttribution, Report};

pub mod farm;
pub mod survivability;

pub use farm::{farm_report, farm_section, run_farm_bench, FarmBenchConfig, FleetPoint};
pub use hx_farm::PlatformKind;
pub use survivability::{
    run_matrix, survivability_section, survival_report, SurvivalConfig, SurvivalMatrix,
};

/// Boots the streaming workload on the requested platform.
///
/// # Panics
///
/// Panics if the kernel fails to assemble (a bug, covered by tests).
pub fn build_platform(kind: PlatformKind, workload: &Workload) -> Box<dyn Platform> {
    let (machine, _) = hx_farm::load_workload(workload, 1).expect("kernel assembles");
    kind.boot(machine, hitactix::kernel::layout::ENTRY, None)
}

/// One measured point of the rate sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Requested payload rate (Mbit/s).
    pub requested_mbps: f64,
    /// Achieved payload rate at the NIC (Mbit/s) over the window.
    pub achieved_mbps: f64,
    /// CPU load in `[0, 1]` over the window.
    pub cpu_load: f64,
    /// Cycle-attribution deltas over the window.
    pub window: TimeStats,
    /// Guest statistics at the end of the run.
    pub guest: GuestStats,
    /// Wire frames over the window.
    pub frames: u64,
    /// Per-cause exit histograms, cumulative over the whole run.
    pub exits: ExitHists,
}

/// Runs the platform for `warmup_ms` of simulated time, then measures a
/// `window_ms` steady-state window.
///
/// # Panics
///
/// Panics if the guest never boots, its stats block is unreadable, or it
/// faults during the run (integrity violation).
pub fn measure(platform: &mut dyn Platform, warmup_ms: u64, window_ms: u64) -> Measurement {
    let clock = platform.machine().config().clock_hz;
    let per_ms = clock / 1_000;
    platform.run_for(warmup_ms * per_ms);

    let t0 = platform.machine().now();
    let stats0 = *platform.time_stats();
    let bytes0 = platform.machine().nic.counters().tx_bytes;
    let frames0 = platform.machine().nic.counters().tx_frames;

    platform.run_for(window_ms * per_ms);

    let elapsed = platform.machine().now() - t0;
    let window = platform.time_stats().since(&stats0);
    let bytes = platform.machine().nic.counters().tx_bytes - bytes0;
    let frames = platform.machine().nic.counters().tx_frames - frames0;
    let guest = GuestStats::read(platform.machine())
        .unwrap_or_else(|e| panic!("guest stats on {}: {e}", platform.name()));
    assert_eq!(
        guest.fault_cause,
        0,
        "guest took an unexpected fault at {:#x} on {}",
        guest.fault_pc,
        platform.name()
    );

    let seconds = elapsed as f64 / clock as f64;
    Measurement {
        requested_mbps: 0.0, // caller fills in
        achieved_mbps: bytes as f64 * 8.0 / 1e6 / seconds,
        cpu_load: window.cpu_load(),
        window,
        guest,
        frames,
        exits: platform.machine().obs.exits.clone(),
    }
}

/// Convenience: build, warm up and measure one `(platform, rate)` point.
pub fn measure_point(
    kind: PlatformKind,
    rate_mbps: u64,
    warmup_ms: u64,
    window_ms: u64,
) -> Measurement {
    let workload = Workload::new(rate_mbps);
    let mut platform = build_platform(kind, &workload);
    let mut m = measure(platform.as_mut(), warmup_ms, window_ms);
    m.requested_mbps = rate_mbps as f64;
    m
}

/// Host-side simulation speed: how fast the *simulator* runs on the host,
/// as guest instructions retired per host wall-clock second. This is the
/// engine's own performance figure (batching + predecoded-instruction
/// cache); unlike everything else in this crate it reads the host clock,
/// so it is NOT deterministic and must never feed a determinism gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpeed {
    /// Guest instructions retired during the timed run.
    pub instructions: u64,
    /// Host wall-clock seconds the run took.
    pub host_seconds: f64,
    /// Instructions per host second (`instructions / host_seconds`).
    pub instr_per_host_sec: f64,
}

/// Times `ms` simulated milliseconds of an already-booted platform under
/// the host wall clock. Callers enable what they measure (tracing, the host
/// profiler, extra cores) before the call; instructions are totalled
/// across every core.
pub fn time_run(platform: &mut dyn Platform, ms: u64) -> SimSpeed {
    let per_ms = platform.machine().config().clock_hz / 1_000;
    let i0 = platform.machine().total_instret();
    let t = std::time::Instant::now();
    platform.run_for(ms * per_ms);
    let host_seconds = t.elapsed().as_secs_f64();
    let instructions = platform.machine().total_instret() - i0;
    SimSpeed {
        instructions,
        host_seconds,
        instr_per_host_sec: instructions as f64 / host_seconds.max(1e-9),
    }
}

/// Compares fresh sim-speed measurements against the `sim_speed` section
/// of a committed `BENCH_fig3_1.json` document. Returns one human-readable
/// message per platform whose fresh speed fell below `(1 - tolerance) *`
/// baseline (empty means no regression), or an error when the document
/// has no `sim_speed` rows. `tolerance` is fractional (`0.5` tolerates a
/// 2× slowdown) — wall-clock speed varies across host machines, so gates
/// should be generous.
pub fn check_sim_speed(
    baseline: &Json,
    fresh: &[(PlatformKind, SimSpeed)],
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let rows = match baseline.get("sim_speed") {
        Some(Json::Arr(rows)) if !rows.is_empty() => rows,
        _ => return Err("no sim_speed section".into()),
    };
    let mut failures = Vec::new();
    for (kind, s) in fresh {
        let row = rows
            .iter()
            .find(|r| r.get("name") == Some(&kind.label().into()));
        let Some(Json::Num(base)) = row.and_then(|r| r.get("instr_per_host_sec")) else {
            continue;
        };
        let base: f64 = base.parse().map_err(|_| format!("bad baseline {base}"))?;
        let floor = base * (1.0 - tolerance);
        if s.instr_per_host_sec < floor {
            failures.push(format!(
                "{}: {:.0} instr/s is below {:.0} ({}% of baseline {:.0})",
                kind.label(),
                s.instr_per_host_sec,
                floor,
                ((1.0 - tolerance) * 100.0).round(),
                base
            ));
        }
    }
    Ok(failures)
}

/// Renders a simple ASCII scatter of (rate, load) series, mirroring the
/// layout of the paper's Fig. 3.1.
pub fn ascii_plot(series: &[(PlatformKind, Vec<(f64, f64)>)]) -> String {
    const W: usize = 72;
    const H: usize = 20;
    let mut grid = vec![vec![' '; W + 1]; H + 1];
    let max_x = 750.0f64;
    for (kind, pts) in series {
        let ch = match kind {
            PlatformKind::RawHw => 'R',
            PlatformKind::Lvmm => 'L',
            PlatformKind::Hosted => 'V',
        };
        for &(x, y) in pts {
            let cx = ((x / max_x) * W as f64).round() as usize;
            let cy = H - ((y.clamp(0.0, 1.0)) * H as f64).round() as usize;
            if cx <= W {
                grid[cy][cx] = ch;
            }
        }
    }
    let mut out = String::new();
    out.push_str("CPU load (%) vs transfer rate (Mbps)   R=real-hw  L=lvmm  V=hosted\n");
    for (i, row) in grid.iter().enumerate() {
        let label = 100 - i * 100 / H;
        out.push_str(&format!("{label:3} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("    +");
    out.push_str(&"-".repeat(W));
    out.push('\n');
    out.push_str("     0        100       200       300       400       500       600       700\n");
    out
}

/// The bench's command line, parsed by the shared parser against the value
/// flags and switches it declares (no positional arguments).
pub fn flags(values: &[&'static str], switches: &[&'static str]) -> Flags {
    or_exit(Flags::from_env(values, switches, 0))
}

/// The value of `r`; an error is a clean user-facing message and exit 1,
/// not a panic, so a long run's tables aren't drowned in a backtrace.
pub fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// Writes an output artifact (trace JSON, CSV); a bad path is an
/// [`or_exit`] error.
pub fn write_output(path: &str, contents: String) {
    or_exit(std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}")));
}

/// Builds the Fig. 3.1 sweep table (one row per measured point, one block
/// per platform) from the measurement series — the single source for both
/// the terminal rendering and `fig3_1.csv`.
pub fn sweep_report(window_ms: u64, series: &[(PlatformKind, Vec<Measurement>)]) -> Report {
    let mut report = Report::new(format!(
        "Fig 3.1 reproduction — CPU load vs transfer rate ({window_ms} ms simulated per point)"
    ))
    .column("platform", Align::Left)
    .column("req Mbps", Align::Right)
    .column("achieved Mbps", Align::Right)
    .column("CPU load", Align::Right)
    .column("guest%", Align::Right)
    .column("mon%", Align::Right)
    .column("host%", Align::Right)
    .column("idle%", Align::Right);
    for (kind, ms) in series {
        for m in ms {
            let total = m.window.total().max(1) as f64;
            let pct = |c: u64| format!("{:.1}", c as f64 / total * 100.0);
            report.row([
                kind.label().to_string(),
                format!("{:.0}", m.requested_mbps),
                format!("{:.1}", m.achieved_mbps),
                format!("{:.1}%", m.cpu_load * 100.0),
                pct(m.window.guest),
                pct(m.window.monitor),
                pct(m.window.host_model),
                pct(m.window.idle),
            ]);
        }
        report.gap();
    }
    report
}

/// Per-exit-cause histogram table (count, min, p50, p99, p99.9, max, mean)
/// from a platform's recorder.
pub fn exit_report(title: impl Into<String>, platform: &dyn Platform) -> Report {
    let mut r = Report::new(title)
        .column("exit cause", Align::Left)
        .column("count", Align::Right)
        .column("min cyc", Align::Right)
        .column("p50 cyc", Align::Right)
        .column("p99 cyc", Align::Right)
        .column("p99.9 cyc", Align::Right)
        .column("max cyc", Align::Right)
        .column("mean cyc", Align::Right);
    let exits = &platform.machine().obs.exits;
    for cause in ExitCause::ALL {
        let h = exits.get(cause);
        if h.count() == 0 {
            continue;
        }
        let [count, min, p50, p99, p999, max, mean] = report::hist_row(h);
        r.row([
            cause.label().to_string(),
            count,
            min,
            p50,
            p99,
            p999,
            max,
            mean,
        ]);
    }
    let obs = &platform.machine().obs;
    if obs.ring.total_offered() > 0 {
        r.note(format!(
            "trace ring: {} events offered, {} overwritten (capacity {})",
            obs.ring.total_offered(),
            obs.ring.dropped(),
            obs.ring.capacity()
        ));
    }
    if obs.spans.dropped() > 0 {
        r.note(format!(
            "span track: {} spans dropped after capacity",
            obs.spans.dropped()
        ));
    }
    r
}

/// One profiled run's row of the `profile` section: the hottest `top_n`
/// guest symbols, plus the totals that let a reader check the attribution
/// sums up.
///
/// # Panics
///
/// Panics if the platform has no profiler enabled.
pub fn profile_row(kind: PlatformKind, platform: &dyn Platform, top_n: usize) -> Json {
    let obs = &platform.machine().obs;
    let prof = obs.prof().expect("platform was built without a profiler");
    let symbols = prof.top(top_n).into_iter().map(|(name, cycles, samples)| {
        let mut sym = JsonObj::new();
        sym.set("symbol", name)
            .set("cycles", cycles)
            .set("samples", samples);
        Json::from(sym)
    });
    let mut row = JsonObj::new();
    row.set("name", kind.label())
        .set("total_cycles", prof.total_cycles())
        .set("total_samples", prof.total_samples())
        .set("symbols", symbols.collect::<Vec<_>>());
    row.into()
}

/// One [`time_run`] result as a document row; SMP rows carry `cores`.
fn speed_row(kind: PlatformKind, cores: Option<usize>, s: &SimSpeed) -> Json {
    let mut row = JsonObj::new();
    row.set("name", kind.label());
    if let Some(c) = cores {
        row.set("cores", c as u64);
    }
    row.set("instructions", s.instructions)
        .set("host_seconds", Json::fixed(s.host_seconds, 4))
        .set("instr_per_host_sec", Json::fixed(s.instr_per_host_sec, 0));
    row.into()
}

/// Builds the machine-readable companion of `fig3_1.csv`: per-platform
/// sweep points (CPU load, attribution, achieved rate) plus the cumulative
/// exit histograms of each platform's highest-rate run, and the two
/// headline ratios.
#[allow(clippy::too_many_arguments)] // one slot per top-level JSON section
pub fn fig3_1_json(
    warmup_ms: u64,
    window_ms: u64,
    series: &[(PlatformKind, Vec<Measurement>)],
    sim_speed: &[(PlatformKind, SimSpeed)],
    smp_speed: &[(PlatformKind, usize, SimSpeed)],
    causal_speed: &[(PlatformKind, SimSpeed)],
    attributions: &[(PlatformKind, SimSpeed, HostAttribution)],
    profiles: &[Json],
) -> JsonObj {
    let sat = |kind: PlatformKind| {
        let ms = series
            .iter()
            .filter(|(k, _)| *k == kind)
            .flat_map(|(_, ms)| ms);
        ms.map(|m| m.achieved_mbps).fold(0.0, f64::max)
    };
    let mut doc = JsonObj::new();
    doc.set("bench", "fig3_1")
        .set("warmup_ms", warmup_ms)
        .set("window_ms", window_ms);
    let platforms = series.iter().map(|(kind, ms)| {
        let points = ms.iter().map(|m| {
            let mut p = JsonObj::new();
            p.set("requested_mbps", Json::fixed(m.requested_mbps, 3))
                .set("achieved_mbps", Json::fixed(m.achieved_mbps, 3))
                .set("cpu_load", Json::fixed(m.cpu_load, 4))
                .set("guest_cycles", m.window.guest)
                .set("monitor_cycles", m.window.monitor)
                .set("host_cycles", m.window.host_model)
                .set("idle_cycles", m.window.idle);
            Json::from(p)
        });
        let mut exits = JsonObj::new();
        for h in ms.last().iter().flat_map(|m| m.exits.iter()) {
            if h.1.count() > 0 {
                exits.set(h.0.label(), report::hist_json(h.1));
            }
        }
        let mut p = JsonObj::new();
        p.set("name", kind.label())
            .set("saturation_mbps", Json::fixed(sat(*kind), 3))
            .set("points", points.collect::<Vec<_>>())
            .set("exits", exits);
        Json::from(p)
    });
    doc.set("platforms", platforms.collect::<Vec<_>>());
    let rows = |rows: &[(PlatformKind, SimSpeed)]| -> Vec<Json> {
        rows.iter().map(|(k, s)| speed_row(*k, None, s)).collect()
    };
    doc.set("sim_speed", rows(sim_speed));
    if !causal_speed.is_empty() {
        // The same workload with tracing + causal-flow tracking on: the CI
        // overhead gate divides these by the plain `sim_speed` figures.
        doc.set("sim_speed_causal", rows(causal_speed));
    }
    if !smp_speed.is_empty() {
        // Multi-core scaling of the engine itself: the all-cores spin guest
        // at each swept core count. Kept in a section of its own so the
        // CI speed gate (which reads `sim_speed`) is unaffected.
        let smp = smp_speed.iter().map(|(k, c, s)| speed_row(*k, Some(*c), s));
        doc.set("smp_sim_speed", smp.collect::<Vec<_>>());
    }
    if !attributions.is_empty() {
        // The same runs measured twice over: their speed (to gate metrics
        // overhead against the plain sim_speed above) and where the
        // monitor's host time went, phase by phase.
        let speeds = attributions.iter().map(|(k, s, _)| speed_row(*k, None, s));
        doc.set("sim_speed_metrics", speeds.collect::<Vec<_>>());
        let rows = attributions.iter().map(|(kind, _, a)| {
            let mut phases = JsonObj::new();
            for (phase, ns) in a.phases() {
                phases.set(&phase, ns);
            }
            let mut row = JsonObj::new();
            row.set("name", kind.label())
                .set("wall_ns", a.wall_ns)
                .set("marks", a.marks)
                .set("attributed_ns", a.attributed_ns())
                .set("coverage", Json::fixed(a.coverage(), 4))
                .set("phases", phases);
            Json::from(row)
        });
        doc.set("host_attribution", rows.collect::<Vec<_>>());
    }
    if !profiles.is_empty() {
        doc.set("profile", profiles.to_vec());
    }
    let raw = sat(PlatformKind::RawHw).max(f64::MIN_POSITIVE);
    let ho = sat(PlatformKind::Hosted).max(f64::MIN_POSITIVE);
    let lv = sat(PlatformKind::Lvmm);
    let mut headlines = JsonObj::new();
    headlines
        .set("lvmm_vs_hosted", Json::fixed(lv / ho, 3))
        .set("lvmm_vs_real_pct", Json::fixed(lv / raw * 100.0, 3));
    doc.set("headlines", headlines);
    doc
}

/// Sets the top-level `key` of the `BENCH_*.json` document text `doc` to
/// `value` and prints the result: the section is replaced in place, or
/// appended when absent, and every other section is kept. A `doc` that is
/// not a JSON object (say, an empty string) yields a standalone
/// `{"bench": key, key: value}` document.
pub fn set_section(doc: &str, key: &str, value: impl Into<Json>) -> String {
    let mut obj = match json::parse(doc) {
        Ok(Json::Obj(obj)) => obj,
        _ => JsonObj::new().set("bench", key).clone(),
    };
    obj.set(key, value);
    Json::from(obj).pretty()
}

/// Writes a bench's `key` section as a standalone document to `--json
/// PATH`, and sets it in the document at `--merge PATH`.
pub fn write_section(flags: &Flags, key: &str, value: impl Into<Json>) {
    let value = value.into();
    if let Some(path) = flags.get("--json") {
        write_output(path, set_section("", key, value.clone()));
        println!("wrote {path}");
    }
    if let Some(path) = flags.get("--merge") {
        let existing = std::fs::read_to_string(path).unwrap_or_default();
        write_output(path, set_section(&existing, key, value));
        println!("merged {key} section into {path}");
    }
}

/// Builds the Chrome trace-event JSON document for one or more traced
/// platform runs (one process per platform, in the order given).
pub fn chrome_trace(platforms: &[(&str, &dyn Platform)]) -> String {
    let mut trace = ChromeTrace::new();
    for (pid0, (name, platform)) in platforms.iter().enumerate() {
        trace.add_platform(pid0 as u32 + 1, name, &platform.machine().obs);
    }
    trace.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_kinds() {
        assert_eq!(PlatformKind::ALL.len(), 3);
        assert_eq!(PlatformKind::Lvmm.label(), "lvmm");
    }

    #[test]
    fn fig3_1_json_is_balanced_and_complete() {
        let m = Measurement {
            requested_mbps: 100.0,
            achieved_mbps: 99.5,
            cpu_load: 0.25,
            window: TimeStats {
                guest: 10,
                monitor: 5,
                host_model: 0,
                idle: 85,
            },
            guest: GuestStats::default(),
            frames: 7,
            exits: {
                let mut e = ExitHists::default();
                e.record(ExitCause::Mmio, 400);
                e
            },
        };
        let series = vec![
            (PlatformKind::RawHw, vec![m.clone()]),
            (PlatformKind::Lvmm, vec![m.clone()]),
            (PlatformKind::Hosted, vec![m]),
        ];
        let speed = SimSpeed {
            instructions: 1_000_000,
            host_seconds: 0.05,
            instr_per_host_sec: 20_000_000.0,
        };
        let profiles = vec![json::parse(
            r#"{"name": "lvmm", "total_cycles": 900, "total_samples": 9, "symbols": [
                {"symbol": "build_frame", "cycles": 800, "samples": 8},
                {"symbol": "[unknown]", "cycles": 100, "samples": 1}]}"#,
        )
        .unwrap()];
        let att = (
            PlatformKind::Lvmm,
            SimSpeed {
                instructions: 990_000,
                host_seconds: 0.051,
                instr_per_host_sec: 19_411_764.0,
            },
            HostAttribution {
                wall_ns: 51_000_000,
                marks: 1_234,
                phase_ns: [2_816_666; hx_obs::HostPhase::COUNT],
            },
        );
        let doc = Json::from(fig3_1_json(
            40,
            120,
            &series,
            &[(PlatformKind::Lvmm, speed)],
            &[(PlatformKind::Lvmm, 2, speed)],
            &[(PlatformKind::Lvmm, speed)],
            std::slice::from_ref(&att),
            &profiles,
        ));
        let json = doc.pretty();
        for key in [
            "\"bench\"",
            "\"platforms\"",
            "\"lvmm\"",
            "\"cpu_load\"",
            "\"mmio\"",
            "\"p999\"",
            "\"sim_speed\"",
            "\"instr_per_host_sec\"",
            "\"smp_sim_speed\"",
            "\"cores\"",
            "\"sim_speed_causal\"",
            "\"sim_speed_metrics\"",
            "\"host_attribution\"",
            "\"wall_ns\"",
            "\"coverage\"",
            "\"guest-exec\"",
            "\"exit-mmio\"",
            "\"journal\"",
            "\"profile\"",
            "\"build_frame\"",
            "\"total_cycles\"",
            "\"headlines\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON: {json}");
        // Without profiled or metrics-enabled runs those sections are
        // absent and the schema the CI checker reads is unchanged.
        let bare = Json::from(fig3_1_json(
            40,
            120,
            &series,
            &[(PlatformKind::Lvmm, speed)],
            &[],
            &[],
            &[],
            &[],
        ))
        .pretty();
        assert!(!bare.contains("\"profile\""));
        assert!(!bare.contains("\"host_attribution\""));
        assert!(!bare.contains("\"sim_speed_metrics\""));
        assert!(!bare.contains("\"sim_speed_causal\""));
        assert!(!bare.contains("\"smp_sim_speed\""));
        // The speed gate reads back what the writer emitted — and only
        // from the plain sim_speed section (20M), not the metrics-on one
        // (19.41M): 19.5M passes against the latter but not the former.
        let at = |instr_per_host_sec| {
            [(
                PlatformKind::Lvmm,
                SimSpeed {
                    instr_per_host_sec,
                    ..speed
                },
            )]
        };
        assert_eq!(check_sim_speed(&doc, &at(20_000_000.0), 0.0), Ok(vec![]));
        assert_eq!(
            check_sim_speed(&doc, &at(19_500_000.0), 0.0).map(|f| f.len()),
            Ok(1)
        );
        assert!(check_sim_speed(&json::parse("{}").unwrap(), &at(1.0), 0.5).is_err());
    }

    #[test]
    fn committed_document_prints_back_byte_for_byte() {
        let text = include_str!("../../../BENCH_fig3_1.json");
        let doc = json::parse(text).expect("the committed document parses");
        assert_eq!(doc.pretty(), text);
    }

    #[test]
    fn set_section_keeps_every_other_section() {
        let fig = "{\n  \"bench\": \"fig3_1\",\n  \"headlines\": {\"x\": 1.0}\n}\n";
        let value = |text: &str| json::parse(text).unwrap();
        let surv = value(r#"{"seed": 42, "replay": [{"identical": true}]}"#);
        let farm = value(r#"{"points": [{"guests": 1}]}"#);
        let section = |doc: &str, key: &str| json::parse(doc).ok()?.get(key).cloned();
        let both = set_section(
            &set_section(fig, "survivability", surv.clone()),
            "farm",
            farm.clone(),
        );
        assert_eq!(section(&both, "survivability"), Some(surv.clone()));
        assert_eq!(section(&both, "farm"), Some(farm.clone()));
        assert_eq!(section(&both, "headlines"), Some(value(r#"{"x": 1.0}"#)));
        // Merging either section into a document that has both keeps both,
        // in place, and merging twice changes nothing.
        for (key, v) in [("survivability", &surv), ("farm", &farm)] {
            let once = set_section(&both, key, v.clone());
            assert_eq!(once, both, "re-merging {key} is a no-op");
            assert_eq!(set_section(&once, key, v.clone()), once);
            let fresh = set_section(&both, key, value(r#"{"new": 1}"#));
            for k in ["bench", "headlines", "survivability", "farm"] {
                assert!(section(&fresh, k).is_some(), "{key}: lost {k}");
            }
            assert_eq!(section(&fresh, key), Some(value(r#"{"new": 1}"#)));
        }
        // The order of sections is kept: survivability before farm.
        let s = both.find("\"survivability\"").unwrap();
        assert!(s < both.find("\"farm\"").unwrap());
        // Not a JSON object: a standalone document.
        let standalone = "{\n  \"bench\": \"farm\",\n  \"farm\": {\n    \"points\": [\n      \
                          {\"guests\":1}\n    ]\n  }\n}\n";
        assert_eq!(set_section("", "farm", farm.clone()), standalone);
        assert_eq!(set_section("not json", "farm", farm), standalone);
        assert_eq!(section("not json", "farm"), None);
    }

    #[test]
    fn sim_speed_gate_flags_only_regressions() {
        let baseline = json::parse(
            r#"{"sim_speed": [{"name": "lvmm", "instructions": 1, "instr_per_host_sec": 20000000}]}"#,
        )
        .unwrap();
        let ok = SimSpeed {
            instructions: 1,
            host_seconds: 1.0,
            instr_per_host_sec: 11_000_000.0,
        };
        let slow = SimSpeed {
            instructions: 1,
            host_seconds: 1.0,
            instr_per_host_sec: 9_000_000.0,
        };
        // 50% tolerance: the floor is 10M instr/s.
        assert_eq!(
            check_sim_speed(&baseline, &[(PlatformKind::Lvmm, ok)], 0.5),
            Ok(vec![])
        );
        let fails = check_sim_speed(&baseline, &[(PlatformKind::Lvmm, slow)], 0.5).unwrap();
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("lvmm"), "{fails:?}");
        // Platforms absent from the baseline are not gated.
        assert_eq!(
            check_sim_speed(&baseline, &[(PlatformKind::RawHw, slow)], 0.5),
            Ok(vec![])
        );
    }

    #[test]
    fn sweep_report_renders_series() {
        let m = Measurement {
            requested_mbps: 100.0,
            achieved_mbps: 99.5,
            cpu_load: 0.25,
            window: TimeStats {
                guest: 10,
                monitor: 5,
                host_model: 0,
                idle: 85,
            },
            guest: GuestStats::default(),
            frames: 7,
            exits: ExitHists::default(),
        };
        let r = sweep_report(120, &[(PlatformKind::Lvmm, vec![m])]);
        let text = r.to_text();
        assert!(text.contains("lvmm"));
        assert!(text.contains("99.5"));
        assert!(text.contains("25.0%"));
        assert!(r.to_csv().starts_with("platform,req Mbps"));
    }

    #[test]
    fn ascii_plot_renders() {
        let s = ascii_plot(&[(PlatformKind::RawHw, vec![(100.0, 0.2), (700.0, 0.9)])]);
        assert!(s.contains('R'));
        assert!(s.lines().count() > 20);
    }
}
