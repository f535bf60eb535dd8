//! Farm scaling bench: sessions/sec, per-guest sim-speed degradation vs
//! fleet size, and memory per guest.
//!
//! Usage: `cargo run --release -p lwvmm-bench --bin farm
//!         [--fast] [--json out.json] [--merge BENCH_fig3_1.json]`
//!
//! `--merge` sets the `"farm"` section of an existing Fig. 3.1 document
//! (replacing a previous section, keeping every other); `--json` writes a
//! standalone document. Exits non-zero when any fleet failed to settle or the session
//! storm completed no sessions, so CI can gate on it directly.

use lwvmm_bench::{
    farm_report, farm_section, flags, run_farm_bench, write_section, FarmBenchConfig,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let flags = flags(&["--json", "--merge"], &["--fast"]);
    let cfg = if flags.has("--fast") {
        FarmBenchConfig::fast()
    } else {
        FarmBenchConfig::new()
    };
    println!(
        "farm scaling bench: fleets {:?}, {} simulated ms each, {:.0} s session window",
        cfg.fleet_sizes,
        cfg.horizon_ms,
        cfg.session_window.as_secs_f64()
    );

    let points = run_farm_bench(&cfg);
    println!("\n{}", farm_report(&cfg, &points).to_text());

    write_section(&flags, "farm", farm_section(&cfg, &points));

    let all_settled = points.iter().all(|p| p.settled);
    let sessions_served = points.iter().all(|p| p.sessions > 0);
    println!(
        "\nall fleets settled: {all_settled}   sessions served at every size: {sessions_served}"
    );
    if all_settled && sessions_served {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
