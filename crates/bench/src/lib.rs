//! Measurement harness shared by the benchmark binaries.
//!
//! This is the code that regenerates the paper's evaluation: it boots the
//! HiTactix-like streaming guest on each of the three platforms, sweeps the
//! requested transfer rate, and measures achieved rate and CPU load over a
//! steady-state window — exactly the procedure behind Fig. 3.1.

use hitactix::{GuestStats, Workload};
use hx_machine::{Platform, TimeStats};
use hx_obs::{report, Align, ChromeTrace, ExitCause, ExitHists, HostPhase, Report};

pub mod farm;
pub mod survivability;

pub use farm::{farm_json, farm_report, merge_farm, run_farm_bench, FarmBenchConfig, FleetPoint};
pub use hx_farm::PlatformKind;
pub use survivability::{
    merge_survivability, run_matrix, survivability_json, survival_report, SurvivalConfig,
    SurvivalMatrix,
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

/// Finds the saturation (maximum achieved) rate for a platform by asking
/// for far more than it can deliver.
pub fn saturation_mbps(kind: PlatformKind, warmup_ms: u64, window_ms: u64) -> f64 {
    measure_point(kind, 950, warmup_ms, window_ms).achieved_mbps
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

/// Host-time attribution of one metrics-enabled run: where the monitor's
/// own wall-clock went, per phase, plus the run's simulation speed — the
/// data behind the `host_attribution` section of `BENCH_fig3_1.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct HostAttributionSummary {
    /// Which platform ran.
    pub kind: PlatformKind,
    /// The run's simulation speed (with the host profiler enabled).
    pub speed: SimSpeed,
    /// Host wall-clock nanoseconds from profiler enable to the last mark.
    pub wall_ns: u64,
    /// Phase-boundary marks taken.
    pub marks: u64,
    /// Host nanoseconds attributed to any phase.
    pub attributed_ns: u64,
    /// Per-phase host nanoseconds, in canonical `HostPhase::ALL` order.
    pub phases: Vec<(String, u64)>,
}

impl HostAttributionSummary {
    /// Reads the attribution of a [`time_run`] that ran with the host
    /// profiler enabled; without it the attribution fields are zero and
    /// `phases` is empty.
    pub fn read(kind: PlatformKind, speed: SimSpeed, platform: &dyn Platform) -> Self {
        // Deferred guest-execution time is charged at the next phase
        // boundary; force one so the run's trailing guest stretch is
        // attributed too.
        platform.machine().obs.host_mark(HostPhase::GuestExec);
        let att = platform.machine().obs.host_attribution();
        let (wall_ns, marks, attributed_ns, phases) = match att {
            Some(a) => (a.wall_ns, a.marks, a.attributed_ns(), a.phases().collect()),
            None => (0, 0, 0, Vec::new()),
        };
        HostAttributionSummary {
            kind,
            speed,
            wall_ns,
            marks,
            attributed_ns,
            phases,
        }
    }

    /// Fraction of wall-clock the marks explain, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.attributed_ns as f64 / (self.wall_ns as f64).max(1.0)
    }
}

/// Extracts the `(name, instr_per_host_sec)` pairs from the `sim_speed`
/// section of a committed `BENCH_fig3_1.json` — the hand-rolled companion
/// of [`fig3_1_json`], kept parser-free like the writer. Returns an empty
/// vector if the section is missing or malformed.
pub fn baseline_sim_speed(json: &str) -> Vec<(String, f64)> {
    let Some(section) = json_section(json, "sim_speed") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in section.split('{').skip(1) {
        let name = entry
            .split("\"name\": \"")
            .nth(1)
            .and_then(|s| s.split('"').next());
        let speed = entry
            .split("\"instr_per_host_sec\": ")
            .nth(1)
            .and_then(|s| {
                s.split(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                    .next()
            })
            .and_then(|s| s.parse::<f64>().ok());
        if let (Some(name), Some(speed)) = (name, speed) {
            out.push((name.to_string(), speed));
        }
    }
    out
}

/// Compares fresh sim-speed measurements against a committed baseline.
/// Returns one human-readable message per platform whose fresh speed fell
/// below `(1 - tolerance) *` baseline; empty means no regression.
/// `tolerance` is fractional (`0.5` tolerates a 2× slowdown) — wall-clock
/// speed varies across host machines, so gates should be generous.
pub fn check_sim_speed(
    baseline: &[(String, f64)],
    fresh: &[(PlatformKind, SimSpeed)],
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (kind, s) in fresh {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == kind.label()) else {
            continue;
        };
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
    failures
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

/// Returns the value following `--flag` on the command line, if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Writes an output artifact (trace JSON, CSV); a bad path is a clean
/// user-facing error, not a panic, so a long run's tables aren't drowned
/// in a backtrace.
pub fn write_output(path: &str, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// True if `--flag` appears on the command line.
pub fn arg_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
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

/// Per-platform profile summary destined for `BENCH_fig3_1.json`: the
/// hottest guest symbols of one profiled run, plus the totals that let a
/// reader check the attribution sums up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Which platform the profiled run used.
    pub kind: PlatformKind,
    /// Guest cycles attributed across all symbols (incl. `[unknown]`).
    pub total_cycles: u64,
    /// Deterministic PC samples taken.
    pub total_samples: u64,
    /// Hottest symbols: `(name, cycles, samples)`, descending cycles.
    pub top: Vec<(String, u64, u64)>,
}

impl ProfileSummary {
    /// Extracts the summary from a profiled platform's recorder.
    ///
    /// # Panics
    ///
    /// Panics if the platform has no profiler enabled.
    pub fn read(kind: PlatformKind, platform: &dyn Platform, top_n: usize) -> ProfileSummary {
        let prof = platform
            .machine()
            .obs
            .prof()
            .expect("platform was built without a profiler");
        ProfileSummary {
            kind,
            total_cycles: prof.total_cycles(),
            total_samples: prof.total_samples(),
            top: prof
                .top(top_n)
                .into_iter()
                .map(|(name, cycles, samples)| (name.to_string(), cycles, samples))
                .collect(),
        }
    }
}

/// Writes one `"key": [...]` section of [`time_run`] results, one row per
/// run; a row with a core count carries `"cores"`.
fn push_speed_rows(out: &mut String, key: &str, rows: &[(PlatformKind, Option<usize>, SimSpeed)]) {
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, (kind, cores, s)) in rows.iter().enumerate() {
        let cores = cores.map_or(String::new(), |c| format!("\"cores\": {c}, "));
        out.push_str(&format!(
            "    {{\"name\": \"{}\", {cores}\"instructions\": {}, \"host_seconds\": {:.4}, \
             \"instr_per_host_sec\": {:.0}}}{}\n",
            kind.label(),
            s.instructions,
            s.host_seconds,
            s.instr_per_host_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
}

/// Builds the machine-readable companion of `fig3_1.csv`: per-platform
/// sweep points (CPU load, attribution, achieved rate) plus the cumulative
/// exit histograms of each platform's highest-rate run, and the two
/// headline ratios. Hand-rolled JSON — the workspace has no serializer
/// dependency and the schema is small.
#[allow(clippy::too_many_arguments)] // one slot per top-level JSON section
pub fn fig3_1_json(
    warmup_ms: u64,
    window_ms: u64,
    series: &[(PlatformKind, Vec<Measurement>)],
    sim_speed: &[(PlatformKind, SimSpeed)],
    smp_speed: &[(PlatformKind, usize, SimSpeed)],
    causal_speed: &[(PlatformKind, SimSpeed)],
    attributions: &[HostAttributionSummary],
    profiles: &[ProfileSummary],
) -> String {
    let sat = |kind: PlatformKind| {
        series
            .iter()
            .find(|&&(k, _)| k == kind)
            .map_or(0.0, |(_, ms)| {
                ms.iter().map(|m| m.achieved_mbps).fold(0.0, f64::max)
            })
    };
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fig3_1\",\n");
    out.push_str(&format!("  \"warmup_ms\": {warmup_ms},\n"));
    out.push_str(&format!("  \"window_ms\": {window_ms},\n"));
    out.push_str("  \"platforms\": [\n");
    for (pi, (kind, ms)) in series.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"saturation_mbps\": {:.3}, \"points\": [\n",
            kind.label(),
            sat(*kind)
        ));
        for (i, m) in ms.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"requested_mbps\": {:.3}, \"achieved_mbps\": {:.3}, \
                 \"cpu_load\": {:.4}, \"guest_cycles\": {}, \"monitor_cycles\": {}, \
                 \"host_cycles\": {}, \"idle_cycles\": {}}}{}\n",
                m.requested_mbps,
                m.achieved_mbps,
                m.cpu_load,
                m.window.guest,
                m.window.monitor,
                m.window.host_model,
                m.window.idle,
                if i + 1 < ms.len() { "," } else { "" }
            ));
        }
        out.push_str("    ], \"exits\": {");
        let exits = ms.last().map(|m| &m.exits);
        let mut first = true;
        if let Some(exits) = exits {
            for cause in ExitCause::ALL {
                let h = exits.get(cause);
                if h.count() == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("\"{}\": {}", cause.label(), report::hist_json(h)));
            }
        }
        out.push_str("}}");
        out.push_str(if pi + 1 < series.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let plain = |rows: &[(PlatformKind, SimSpeed)]| -> Vec<_> {
        rows.iter().map(|&(kind, s)| (kind, None, s)).collect()
    };
    push_speed_rows(&mut out, "sim_speed", &plain(sim_speed));
    if !causal_speed.is_empty() {
        // The same workload with tracing + causal-flow tracking on: the CI
        // overhead gate divides these by the plain `sim_speed` figures.
        push_speed_rows(&mut out, "sim_speed_causal", &plain(causal_speed));
    }
    if !smp_speed.is_empty() {
        // Multi-core scaling of the engine itself: the all-cores spin guest
        // at each swept core count. Kept in a section of its own so the
        // CI speed gate (which reads `sim_speed`) is unaffected.
        let rows: Vec<_> = smp_speed.iter().map(|&(k, c, s)| (k, Some(c), s)).collect();
        push_speed_rows(&mut out, "smp_sim_speed", &rows);
    }
    if !attributions.is_empty() {
        // The same runs measured twice over: their speed (to gate metrics
        // overhead against the plain sim_speed above) and where the
        // monitor's host time went, phase by phase.
        let rows: Vec<_> = attributions
            .iter()
            .map(|a| (a.kind, None, a.speed))
            .collect();
        push_speed_rows(&mut out, "sim_speed_metrics", &rows);
        out.push_str("  \"host_attribution\": [\n");
        for (i, a) in attributions.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ns\": {}, \"marks\": {}, \
                 \"attributed_ns\": {}, \"coverage\": {:.4}, \"phases\": {{",
                a.kind.label(),
                a.wall_ns,
                a.marks,
                a.attributed_ns,
                a.coverage()
            ));
            for (j, (phase, ns)) in a.phases.iter().enumerate() {
                out.push_str(&format!(
                    "{}\"{phase}\": {ns}",
                    if j > 0 { ", " } else { "" }
                ));
            }
            out.push_str("}}");
            out.push_str(if i + 1 < attributions.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
    }
    if !profiles.is_empty() {
        out.push_str("  \"profile\": [\n");
        for (i, p) in profiles.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"total_cycles\": {}, \"total_samples\": {}, \
                 \"symbols\": [",
                p.kind.label(),
                p.total_cycles,
                p.total_samples
            ));
            for (j, (name, cycles, samples)) in p.top.iter().enumerate() {
                out.push_str(&format!(
                    "{}{{\"symbol\": \"{}\", \"cycles\": {cycles}, \"samples\": {samples}}}",
                    if j > 0 { ", " } else { "" },
                    name.replace('\\', "\\\\").replace('"', "\\\"")
                ));
            }
            out.push_str("]}");
            out.push_str(if i + 1 < profiles.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
    }
    let raw = sat(PlatformKind::RawHw).max(f64::MIN_POSITIVE);
    let ho = sat(PlatformKind::Hosted).max(f64::MIN_POSITIVE);
    let lv = sat(PlatformKind::Lvmm);
    out.push_str(&format!(
        "  \"headlines\": {{\"lvmm_vs_hosted\": {:.3}, \"lvmm_vs_real_pct\": {:.3}}}\n",
        lv / ho,
        lv / raw * 100.0
    ));
    out.push_str("}\n");
    out
}

/// The top-level members of a `BENCH_*.json` document as this crate's
/// writers format it, in order: `(key, "  \"key\": value")`. Members start
/// on lines indented by exactly two spaces; nested lines are indented
/// deeper. `None` when `doc` is not a JSON object.
fn top_level_members(doc: &str) -> Option<Vec<(&str, &str)>> {
    let body = doc.trim().strip_prefix('{')?.strip_suffix('}')?;
    let starts: Vec<usize> = body.match_indices("\n  \"").map(|(i, _)| i + 1).collect();
    let mut members = Vec::with_capacity(starts.len());
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(body.len());
        let text = body[start..end].trim_end().trim_end_matches(',');
        members.push((text[3..].split('"').next()?, text));
    }
    Some(members)
}

/// The value of the top-level `key` of a `BENCH_*.json` document.
pub fn json_section<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let (_, text) = top_level_members(doc)?
        .into_iter()
        .find(|&(k, _)| k == key)?;
    Some(text.split_once(": ")?.1)
}

/// Sets the top-level `key` of a `BENCH_*.json` document to `value`: the
/// section is replaced in place, or appended when absent, and every other
/// section is kept. A `doc` that is not a JSON object (say, an empty
/// string) yields a standalone `{"bench": key, key: value}` document.
pub fn merge_section(doc: &str, key: &str, value: &str) -> String {
    let member = format!("  \"{key}\": {value}");
    let Some(mut members) = top_level_members(doc) else {
        return format!("{{\n  \"bench\": \"{key}\",\n{member}\n}}\n");
    };
    match members.iter_mut().find(|(k, _)| *k == key) {
        Some(m) => m.1 = &member,
        None => members.push((key, &member)),
    }
    let texts: Vec<&str> = members.iter().map(|&(_, text)| text).collect();
    format!("{{\n{}\n}}\n", texts.join(",\n"))
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
        let profiles = vec![ProfileSummary {
            kind: PlatformKind::Lvmm,
            total_cycles: 900,
            total_samples: 9,
            top: vec![("build_frame".into(), 800, 8), ("[unknown]".into(), 100, 1)],
        }];
        let att = HostAttributionSummary {
            kind: PlatformKind::Lvmm,
            speed: SimSpeed {
                instructions: 990_000,
                host_seconds: 0.051,
                instr_per_host_sec: 19_411_764.0,
            },
            wall_ns: 51_000_000,
            marks: 1_234,
            attributed_ns: 50_700_000,
            phases: HostPhase::ALL
                .iter()
                .map(|p| (p.label(), 2_816_666))
                .collect(),
        };
        let json = fig3_1_json(
            40,
            120,
            &series,
            &[(PlatformKind::Lvmm, speed)],
            &[(PlatformKind::Lvmm, 2, speed)],
            &[(PlatformKind::Lvmm, speed)],
            std::slice::from_ref(&att),
            &profiles,
        );
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
        let bare = fig3_1_json(
            40,
            120,
            &series,
            &[(PlatformKind::Lvmm, speed)],
            &[],
            &[],
            &[],
            &[],
        );
        assert!(!bare.contains("\"profile\""));
        assert!(!bare.contains("\"host_attribution\""));
        assert!(!bare.contains("\"sim_speed_metrics\""));
        assert!(!bare.contains("\"sim_speed_causal\""));
        assert!(!bare.contains("\"smp_sim_speed\""));
        // The baseline extractor reads back what the writer emitted — and
        // only from the plain sim_speed section, not the metrics-on one.
        let base = baseline_sim_speed(&json);
        assert_eq!(base, vec![("lvmm".to_string(), 20_000_000.0)]);
        assert!(baseline_sim_speed("{}").is_empty());
    }

    #[test]
    fn merge_section_keeps_every_other_section() {
        let fig = "{\n  \"bench\": \"fig3_1\",\n  \"headlines\": {\"x\": 1.0}\n}\n";
        let surv =
            "{\n    \"seed\": 42,\n    \"replay\": [\n      {\"identical\": true}\n    ]\n  }";
        let farm = "{\n    \"points\": [\n      {\"guests\": 1}\n    ]\n  }";
        let both = merge_section(&merge_section(fig, "survivability", surv), "farm", farm);
        assert_eq!(json_section(&both, "survivability"), Some(surv));
        assert_eq!(json_section(&both, "farm"), Some(farm));
        assert_eq!(json_section(&both, "headlines"), Some("{\"x\": 1.0}"));
        // Merging either section into a document that has both keeps both,
        // in place, and merging twice changes nothing.
        for (key, value) in [("survivability", surv), ("farm", farm)] {
            let once = merge_section(&both, key, value);
            assert_eq!(once, both, "re-merging {key} is a no-op");
            assert_eq!(merge_section(&once, key, value), once);
            let fresh = merge_section(&both, key, "{\"new\": 1}");
            for k in ["bench", "headlines", "survivability", "farm"] {
                assert!(json_section(&fresh, k).is_some(), "{key}: lost {k}");
            }
            assert_eq!(json_section(&fresh, key), Some("{\"new\": 1}"));
        }
        // The order of sections is kept: survivability before farm.
        let s = both.find("\"survivability\"").unwrap();
        assert!(s < both.find("\"farm\"").unwrap());
        // Not a JSON object: a standalone document.
        assert_eq!(
            merge_section("", "farm", farm),
            format!("{{\n  \"bench\": \"farm\",\n  \"farm\": {farm}\n}}\n")
        );
        assert_eq!(json_section("not json", "farm"), None);
    }

    #[test]
    fn sim_speed_gate_flags_only_regressions() {
        let baseline = vec![("lvmm".to_string(), 20_000_000.0)];
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
        assert!(check_sim_speed(&baseline, &[(PlatformKind::Lvmm, ok)], 0.5).is_empty());
        let fails = check_sim_speed(&baseline, &[(PlatformKind::Lvmm, slow)], 0.5);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("lvmm"), "{fails:?}");
        // Platforms absent from the baseline are not gated.
        assert!(check_sim_speed(&baseline, &[(PlatformKind::RawHw, slow)], 0.5).is_empty());
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
