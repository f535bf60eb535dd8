//! **Table A** (ablation): where the lightweight monitor's overhead goes.
//!
//! Runs the streaming workload under the lightweight monitor at a fixed
//! rate and breaks the monitor's exits down by cause — counts plus
//! *measured* per-exit cycle distributions (p50/p99/mean) from the
//! monitor's always-on histograms, not the static cost model. This
//! quantifies the paper's implicit claim: the residual overhead of the
//! lightweight approach is the privileged-instruction and
//! interrupt-virtualization tax, *not* device emulation.
//!
//! Usage: `cargo run --release -p lwvmm-bench --bin ablation_exits
//!         [rate_mbps] [--trace out.json] [--metrics]`
//!
//! (`--metrics` is implied — this binary *is* the metrics view; the flag is
//! accepted for symmetry with `fig3_1`.)

use hx_farm::{guest_machine, parse_num64, Flags, GuestSpec};
use hx_machine::Platform;
use hx_obs::{Align, Report};
use lvmm::LvmmPlatform;
use lwvmm_bench::{chrome_trace, exit_report, or_exit};

fn main() {
    let flags = or_exit(Flags::from_env(&["--trace"], &["--metrics"], 1));
    let rate = flags.positional.first().map(|r| parse_num64(r));
    let rate = or_exit(rate.transpose()).unwrap_or(100);
    let trace_path = flags.get("--trace");
    let (mut machine, entry, _) = or_exit(guest_machine(&GuestSpec {
        rate_mbps: rate,
        ..GuestSpec::default()
    }));
    let clock = machine.config().clock_hz;
    if trace_path.is_some() {
        machine.obs.enable_tracing();
    }
    let mut vmm = LvmmPlatform::new(machine, entry);

    // Warm up, then measure a 400 ms window.
    vmm.run_for(clock / 10);
    let m0 = vmm.monitor_stats();
    let s0 = vmm.shadow_stats();
    let t0 = *vmm.time_stats();
    let f0 = vmm.machine().nic.counters().tx_frames;
    vmm.run_for(clock * 2 / 5);
    let m = vmm.monitor_stats();
    let s = vmm.shadow_stats();
    let t = vmm.time_stats().since(&t0);
    let frames = vmm.machine().nic.counters().tx_frames - f0;

    let stats = hitactix::GuestStats::read(vmm.machine()).expect("guest stats");
    assert_eq!(stats.fault_cause, 0, "guest fault at {:#x}", stats.fault_pc);

    let mut counts = Report::new(format!(
        "Table A — lightweight-monitor exit breakdown at {rate} Mbps\n\
         window: 400 ms simulated, {frames} frames, CPU load {:.1}%",
        t.cpu_load() * 100.0
    ))
    .column("exit class", Align::Left)
    .column("count", Align::Right)
    .column("per frame", Align::Right);
    let rows: &[(&str, u64)] = &[
        (
            "privileged instruction",
            m.exits_privileged - m0.exits_privileged,
        ),
        ("emulated MMIO (vPIC/vPIT)", m.exits_mmio - m0.exits_mmio),
        ("IRQ reflection", m.exits_irq_reflect - m0.exits_irq_reflect),
        ("virtual IRQ injection", m.irqs_injected - m0.irqs_injected),
        ("shadow page fill", m.exits_shadow - m0.exits_shadow),
        (
            "guest fault re-injection",
            m.faults_injected - m0.faults_injected,
        ),
    ];
    for (label, count) in rows {
        counts.row([
            label.to_string(),
            count.to_string(),
            format!("{:.2}", *count as f64 / frames.max(1) as f64),
        ]);
    }
    println!("{}", counts.to_text());

    // Measured cycle distributions per cause, from boot (same workload
    // throughout, so warmup does not skew the shape).
    println!(
        "{}",
        exit_report("Measured per-exit cycle cost (since boot)", &vmm).to_text()
    );

    println!(
        "monitor cycles total: {} ({:.1}% of window)",
        t.monitor,
        t.monitor as f64 / t.total() as f64 * 100.0
    );
    println!(
        "guest cycles total:   {} ({:.1}% of window)",
        t.guest,
        t.guest as f64 / t.total() as f64 * 100.0
    );
    println!(
        "shadow stats: {} fills, {} flushes, {} contexts, {} violations",
        s.fills - s0.fills,
        s.flushes - s0.flushes,
        s.contexts - s0.contexts,
        s.protection_violations - s0.protection_violations
    );
    println!("\nReading: device passthrough leaves *zero* per-byte monitor work;");
    println!("the residual tax is interrupt virtualization + privileged emulation.");

    if let Some(path) = trace_path {
        lwvmm_bench::write_output(path, chrome_trace(&[("lvmm", &vmm)]));
        println!("\nwrote {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
}
