//! Survivability campaign: fault matrix across all three platforms.
//!
//! Boots the streaming guest on each platform, injects every fault class
//! (deterministically, riding the simulation clock), then proves the
//! lightweight monitor's debug stub still answers `?`/`g`/`m` while the raw
//! platform's guest dies and the hosted monitor pays its emulation
//! overhead. Also records one all-classes campaign per platform and replays
//! it byte-identically through the flight recorder.
//!
//! Usage: `cargo run --release -p lwvmm-bench --bin survivability
//!         [--fast] [--seed N] [--json out.json] [--merge BENCH_fig3_1.json]`
//!
//! `--merge` sets the `"survivability"` section of an existing Fig. 3.1
//! document (replacing a previous section, keeping every other); `--json`
//! writes a standalone document. Exits non-zero when the LVMM stub row is not
//! all-alive or any replay diverged, so CI can gate on it directly.

use lwvmm_bench::{
    flags, or_exit, run_matrix, survivability_section, survival_report, write_section,
    SurvivalConfig,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let flags = flags(&["--seed", "--json", "--merge"], &["--fast"]);
    let seed = or_exit(flags.num("--seed")).unwrap_or(42);
    let cfg = if flags.has("--fast") {
        SurvivalConfig::fast(seed)
    } else {
        SurvivalConfig::new(seed)
    };

    println!(
        "survivability campaign: seed {seed}, {} ms warmup + {} ms campaign + {} ms probe per \
         cell, one fault every ~{} cycles",
        cfg.warmup_ms, cfg.campaign_ms, cfg.probe_ms, cfg.period
    );
    let matrix = run_matrix(&cfg);
    println!("\n{}", survival_report(&matrix).to_text());

    write_section(
        &flags,
        "survivability",
        survivability_section(&cfg, &matrix),
    );

    let stub_ok = matrix.lvmm_stub_all_alive();
    let replay_ok = matrix.replays_identical();
    println!("\nlvmm stub all-alive: {stub_ok}   replays byte-identical: {replay_ok}");
    if stub_ok && replay_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
