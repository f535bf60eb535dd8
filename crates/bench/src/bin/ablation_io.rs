//! **Table B** (ablation): interrupt moderation and the passthrough design.
//!
//! Sweeps the NIC's TX interrupt moderation (frames per completion
//! interrupt) on all three platforms and reports the saturation rate. Since
//! per-frame interrupts are the lightweight monitor's main residual cost
//! (each one is reflect + inject + emulated EOI), moderation recovers a
//! large fraction of the gap to real hardware — an extension the paper's
//! design permits without giving up passthrough.
//!
//! Usage: `cargo run --release -p lwvmm-bench --bin ablation_io`

use hitactix::Workload;
use hx_obs::{Align, Report};
use lwvmm_bench::{build_platform, flags, measure, PlatformKind};

fn main() {
    flags(&[], &[]); // takes none, so any argument is an error
    let moderations = [1u32, 4, 16];
    let mut table = Report::new("Table B — saturation rate (Mbps) vs NIC TX interrupt moderation")
        .column("platform", Align::Left)
        .column("mod=1", Align::Right)
        .column("mod=4", Align::Right)
        .column("mod=16", Align::Right);
    for kind in PlatformKind::ALL {
        let mut row = vec![kind.label().to_string()];
        for &m in &moderations {
            let workload = Workload::new(950).moderation(m);
            let mut platform = build_platform(kind, &workload);
            let meas = measure(platform.as_mut(), 60, 250);
            row.push(format!("{:.1}", meas.achieved_mbps));
        }
        table.row(row);
    }
    table.note("\nReading: moderation shrinks the interrupt-virtualization tax, so the");
    table.note("lightweight monitor gains the most; the hosted monitor stays dominated");
    table.note("by its per-packet host-OS relay, and real hardware barely moves.");
    println!("{}", table.to_text());
}
