//! Regenerates **Fig. 3.1** of the paper: CPU load vs transfer rate for the
//! HiTactix streaming workload on real hardware, the lightweight monitor,
//! and the hosted full monitor — plus the two headline numbers (the
//! lightweight monitor transfers ≈5.4× as fast as the conventional monitor,
//! and reaches ≈26 % of real hardware).
//!
//! Usage: `cargo run --release -p lwvmm-bench --bin fig3_1 [--fast]
//!         [--trace out.json] [--metrics out.prom] [--profile out.folded]
//!         [--check-speed baseline.json]`
//!
//! * `--trace out.json` additionally runs one traced point per platform at
//!   100 Mbit/s and writes a Chrome trace-event JSON (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>). The file is
//!   byte-identical across runs.
//! * `--metrics out.prom` prints the per-cause exit histograms of those
//!   runs and writes the full metrics registry (counters, exit histograms,
//!   host-time attribution) in Prometheus text exposition format.
//! * `--profile out.folded` profiles those runs with the deterministic PC
//!   sampler, writes collapsed flamegraph stacks (one `platform;guest;symbol`
//!   block per platform — feed to `flamegraph.pl` or speedscope), and adds
//!   per-symbol hot-path data to `BENCH_fig3_1.json`. Also byte-identical
//!   across runs.
//! * `--check-speed baseline.json` compares the fresh sim-speed numbers
//!   against the `sim_speed` section of a committed `BENCH_fig3_1.json`
//!   and exits nonzero on a regression beyond `LWVMM_SPEED_TOLERANCE`
//!   (fractional, default 0.75 — wall clocks differ across machines).
//!
//! Prints the measured series as a table and an ASCII plot, and writes
//! `fig3_1.csv` plus the machine-readable `BENCH_fig3_1.json` (per-platform
//! sweep points, exit histograms, sim speed with and without metrics, and
//! per-phase host-time attribution) into the current directory. The
//! `survivability` and `farm` sections of an existing `BENCH_fig3_1.json`
//! (merged in by their own benches) are kept.

use hitactix::Workload;
use hx_farm::{boot_guest, new_machine, GuestSpec};
use hx_obs::json::{self, Json};
use hx_obs::{HostPhase, MetricsRegistry};
use lwvmm_bench::{
    ascii_plot, build_platform, check_sim_speed, chrome_trace, exit_report, measure, measure_point,
    profile_row, sweep_report, time_run, PlatformKind, SimSpeed,
};

/// The run with the median host speed.
fn median<T>(mut runs: Vec<T>, speed: fn(&T) -> f64) -> T {
    runs.sort_by(|x, y| speed(x).total_cmp(&speed(y)));
    runs.swap_remove(runs.len() / 2)
}

fn main() {
    let flags = lwvmm_bench::flags(
        &["--trace", "--profile", "--metrics", "--check-speed"],
        &["--fast"],
    );
    let fast = flags.has("--fast");
    let trace_path = flags.get("--trace");
    let profile_path = flags.get("--profile");
    let metrics_path = flags.get("--metrics");
    let check_speed = flags.get("--check-speed");
    let (warmup_ms, window_ms) = if fast { (40, 120) } else { (80, 400) };
    let rates: &[u64] = if fast {
        &[50, 150, 300, 500, 700, 950]
    } else {
        &[25, 50, 100, 150, 200, 300, 400, 500, 600, 700, 950]
    };

    let mut series = Vec::new();
    let mut measurements = Vec::new();
    let mut saturation = Vec::new();

    for kind in PlatformKind::ALL {
        let mut pts = Vec::new();
        let mut ms = Vec::new();
        let mut max_achieved = 0.0f64;
        for &rate in rates {
            let m = measure_point(kind, rate, warmup_ms, window_ms);
            max_achieved = max_achieved.max(m.achieved_mbps);
            pts.push((m.achieved_mbps, m.cpu_load));
            ms.push(m);
        }
        saturation.push((kind, max_achieved));
        series.push((kind, pts));
        measurements.push((kind, ms));
    }

    let report = sweep_report(window_ms, &measurements);
    println!("{}", report.to_text());
    println!("{}", ascii_plot(&series));

    // Host-side simulation speed (wall clock — the only nondeterministic
    // number in this benchmark; recorded in the JSON, never in the traces).
    let speed_ms = if fast { 100 } else { 400 };
    let mut sim_speed = Vec::new();
    let mut causal_speed = Vec::new();
    let mut attributions = Vec::new();
    for kind in PlatformKind::ALL {
        // Median of seven, metrics-off and metrics-on interleaved:
        // wall-clock speed is the one nondeterministic number in this
        // bench, and the metrics-overhead gate compares the two. The
        // interleaving means host load hits both series alike, and the
        // median (unlike a best-of maximum) stays put when a few samples
        // are throttled — so scheduler noise cancels out of the ratio
        // instead of masquerading as instrumentation cost. The hosted
        // baseline retires far fewer instructions per simulated ms (it
        // idles while the relay thrashes), so give it a 4x longer window
        // to keep the timed region long enough to measure.
        let ms = if kind == PlatformKind::Hosted {
            speed_ms * 4
        } else {
            speed_ms
        };
        let mut offs = Vec::new();
        let mut ons = Vec::new();
        let mut causals = Vec::new();
        let boot = || build_platform(kind, &Workload::new(300));
        for _ in 0..7 {
            offs.push(time_run(boot().as_mut(), ms));
            let mut p = boot();
            p.machine_mut().obs.enable_hostprof();
            let speed = time_run(p.as_mut(), ms);
            // Deferred guest-execution time is charged at the next phase
            // boundary; force one so the trailing guest stretch counts too.
            p.machine().obs.host_mark(HostPhase::GuestExec);
            ons.push((
                speed,
                p.machine().obs.host_attribution().expect("profiler on"),
            ));
            // Causal flows ride the event ring, so tracing comes with them.
            let mut p = boot();
            p.machine_mut().obs.enable_tracing();
            p.machine_mut().obs.enable_causal();
            causals.push(time_run(p.as_mut(), ms));
        }
        let s = median(offs, |s| s.instr_per_host_sec);
        let (a_speed, a) = median(ons, |(s, _)| s.instr_per_host_sec);
        let c = median(causals, |c| c.instr_per_host_sec);
        println!(
            "Sim speed on {:8}: {:5.1} M guest instr / host sec ({} instr in {:.3} s)",
            kind.label(),
            s.instr_per_host_sec / 1e6,
            s.instructions,
            s.host_seconds
        );
        println!(
            "  with metrics on : {:5.1} M guest instr / host sec ({:+5.1}% overhead, \
             {:.1}% of host time attributed across {} marks)",
            a_speed.instr_per_host_sec / 1e6,
            (s.instr_per_host_sec / a_speed.instr_per_host_sec.max(1.0) - 1.0) * 100.0,
            a.coverage() * 100.0,
            a.marks
        );
        println!(
            "  with causal on  : {:5.1} M guest instr / host sec ({:+5.1}% overhead)",
            c.instr_per_host_sec / 1e6,
            (s.instr_per_host_sec / c.instr_per_host_sec.max(1.0) - 1.0) * 100.0,
        );
        sim_speed.push((kind, s));
        causal_speed.push((kind, c));
        attributions.push((kind, a_speed, a));
    }

    // Multi-core scaling: the all-cores spin guest at 1, 2 and 4 cores on
    // each platform, instructions totalled across cores (median of three —
    // wall clock again). Shows what the deterministic round-robin vCPU
    // scheduler costs as the core count grows.
    let smp_ms = if fast { 60 } else { 200 };
    let spin = hitactix::apps::smp_spin_guest();
    let entry = spin.symbols.get("start").expect("start symbol");
    let mut smp_speed = Vec::new();
    for kind in PlatformKind::ALL {
        for cores in [1usize, 2, 4] {
            let runs: Vec<SimSpeed> = (0..3)
                .map(|_| {
                    let mut machine = new_machine(cores);
                    machine.load_program(&spin);
                    time_run(kind.boot(machine, entry, None).as_mut(), smp_ms)
                })
                .collect();
            let s = median(runs, |s| s.instr_per_host_sec);
            println!(
                "SMP sim speed on {:8} x{cores}: {:5.1} M guest instr / host sec \
                 ({} instr in {:.3} s)",
                kind.label(),
                s.instr_per_host_sec / 1e6,
                s.instructions,
                s.host_seconds
            );
            smp_speed.push((kind, cores, s));
        }
    }

    let sat = |k: PlatformKind| saturation.iter().find(|&&(kk, _)| kk == k).unwrap().1;
    let raw = sat(PlatformKind::RawHw);
    let lv = sat(PlatformKind::Lvmm);
    let ho = sat(PlatformKind::Hosted);
    println!("Saturation rates:  real-hw {raw:.0} Mbps   lvmm {lv:.0} Mbps   hosted {ho:.0} Mbps");
    println!(
        "Headline A — lvmm vs hosted monitor:   {:.1}x   (paper: 5.4x)",
        lv / ho
    );
    println!(
        "Headline B — lvmm vs real hardware:    {:.0}%   (paper: ~26%)",
        lv / raw * 100.0
    );

    // One traced (and optionally profiled) run per platform at a fixed
    // representative rate. Tracing and profiling are observational only, so
    // these runs behave identically to the untraced sweep above.
    let mut profiles = Vec::new();
    if trace_path.is_some() || profile_path.is_some() || metrics_path.is_some() {
        let mut traced = Vec::new();
        for kind in PlatformKind::ALL {
            let spec = GuestSpec {
                platform: kind,
                record: false,
                profile: profile_path.is_some(),
                hostprof: metrics_path.is_some(),
                ..GuestSpec::default()
            };
            let mut platform = boot_guest(&spec, 0).expect("kernel assembles");
            platform.machine_mut().obs.enable_tracing();
            measure(platform.as_mut(), warmup_ms, window_ms);
            traced.push((kind, platform));
        }

        if let Some(path) = &metrics_path {
            let reg = MetricsRegistry::global();
            for (kind, platform) in &traced {
                let r = exit_report(
                    format!("Exit histograms — {} at 100 Mbps", kind.label()),
                    platform.as_ref(),
                );
                if !r.is_empty() {
                    println!("{}", r.to_text());
                }
                // Close the deferred guest-execution window so the
                // exposition attributes the trailing guest stretch too.
                platform.machine().obs.host_mark(HostPhase::GuestExec);
                platform.publish_metrics(reg);
            }
            lwvmm_bench::write_output(path, reg.snapshot().prometheus());
            println!("wrote {path} (Prometheus text exposition)");
        }

        if let Some(path) = &profile_path {
            let mut folded = String::new();
            for (kind, platform) in &traced {
                let prof = platform.machine().obs.prof().expect("profiler enabled");
                folded.push_str(&prof.fold_prefixed(&format!("{};", kind.label())));
                profiles.push(profile_row(*kind, platform.as_ref(), 10));
            }
            lwvmm_bench::write_output(path, folded);
            println!("wrote {path} (collapsed stacks; feed to flamegraph.pl or speedscope)");
        }

        if let Some(path) = trace_path {
            let named: Vec<(&str, &dyn hx_machine::Platform)> = traced
                .iter()
                .map(|(k, p)| (k.label(), p.as_ref()))
                .collect();
            lwvmm_bench::write_output(path, chrome_trace(&named));
            println!("wrote {path} (open in chrome://tracing or ui.perfetto.dev)");
        }
    }

    let mut doc = lwvmm_bench::fig3_1_json(
        warmup_ms,
        window_ms,
        &measurements,
        &sim_speed,
        &smp_speed,
        &causal_speed,
        &attributions,
        &profiles,
    );
    // The survivability and farm benches merge their own sections into this
    // document; a rerun carries them over rather than dropping them.
    let previous = std::fs::read_to_string("BENCH_fig3_1.json").unwrap_or_default();
    let previous = json::parse(&previous).unwrap_or(Json::Null);
    for key in ["survivability", "farm"] {
        if let Some(section) = previous.get(key) {
            doc.set(key, section.clone());
        }
    }
    lwvmm_bench::write_output("fig3_1.csv", report.to_csv());
    lwvmm_bench::write_output("BENCH_fig3_1.json", Json::from(doc).pretty());
    println!("\nwrote fig3_1.csv and BENCH_fig3_1.json");

    if let Some(path) = check_speed {
        let tolerance = std::env::var("LWVMM_SPEED_TOLERANCE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.75);
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check-speed: cannot read {path}: {e}"));
        let baseline = json::parse(&baseline)
            .unwrap_or_else(|e| panic!("--check-speed: {path} is not JSON: {e}"));
        let failures = check_sim_speed(&baseline, &sim_speed, tolerance)
            .unwrap_or_else(|e| panic!("--check-speed: {e} in {path}"));
        if failures.is_empty() {
            println!("sim-speed check vs {path}: OK (tolerance {tolerance})");
        } else {
            for f in &failures {
                eprintln!("sim-speed regression: {f}");
            }
            std::process::exit(1);
        }
    }
}
