//! Cross-platform divergence auditor: records the streaming workload under
//! the lightweight monitor, replays the same journaled inputs on the hosted
//! full monitor for the same simulated duration, and reports — per device —
//! where the two platforms' event streams (IRQ order, DMA payload digests,
//! doorbells) first part ways.
//!
//! Absolute cycle counts differ across platforms by design (that difference
//! *is* the paper's result), so streams are compared per device in sequence
//! order, not by global timestamp interleaving.
//!
//! Usage: `cargo run --release -p lwvmm-bench --bin divergence [--ms N]`

use hitactix::Workload;
use hx_obs::{audit, Journal};
use hx_obs::{Align, Report};
use lvmm::ReplayDriver;
use lwvmm_bench::{build_platform, flags, or_exit, PlatformKind};

fn main() {
    let ms = or_exit(flags(&["--ms"], &[]).num("--ms")).unwrap_or(60);
    let workload = Workload::new(100);

    let record = |kind: PlatformKind, driver: Option<&Journal>| -> Journal {
        let mut p = build_platform(kind, &workload);
        let cores = p.machine().num_cores();
        p.machine_mut().obs.enable_journal(kind.label(), cores);
        let per_ms = p.machine().config().clock_hz / 1_000;
        match driver {
            None => {
                p.run_for(ms * per_ms);
            }
            Some(j) => {
                ReplayDriver::new(j).run(p.as_mut());
            }
        }
        let end = p.machine().now();
        let mut j = p.machine().obs.journal().cloned().expect("journaling");
        j.seal(end);
        j
    };

    let a = record(PlatformKind::Lvmm, None);
    let b = record(PlatformKind::Hosted, Some(&a));
    println!(
        "lvmm:   {} events over {} cycles\nhosted: {} events over {} cycles\n",
        a.events.len(),
        a.end,
        b.events.len(),
        b.end
    );

    let mut r = Report::new("Per-device event-stream audit — lvmm vs hosted")
        .column("stream", Align::Left)
        .column("lvmm", Align::Right)
        .column("hosted", Align::Right)
        .column("verdict", Align::Left);
    for s in audit(&a, &b) {
        let verdict = match &s.divergence {
            None => "identical".to_string(),
            Some(d) if d.is_length_only() => {
                format!("prefix match; lengths differ at index {}", d.index)
            }
            Some(d) => format!("diverges at index {}: {:?} vs {:?}", d.index, d.a, d.b),
        };
        r.row([
            s.name.to_string(),
            s.len_a.to_string(),
            s.len_b.to_string(),
            verdict,
        ]);
    }
    println!("{}", r.to_text());
}
