//! Record/replay self-check: runs the streaming workload under the
//! lightweight monitor with the flight recorder on (journal plus periodic
//! checkpoints), then replays the sealed journal on a freshly booted
//! platform without a recorder and verifies the replay is *byte-identical*
//! — same Chrome trace, same final guest statistics, same guest memory
//! image. So it also proves that capturing checkpoints never perturbs the
//! run.
//!
//! Usage: `cargo run --release -p lwvmm-bench --bin record_replay
//!         [--ms N] [--trace out.json] [--journal out.journal]`
//!
//! Exits non-zero on any mismatch, so CI can use it as a determinism gate.

use hitactix::kernel::layout;
use hitactix::{GuestStats, Workload};
use hx_machine::Platform;
use hx_obs::Journal;
use lvmm::{FlightRecorder, ReplayDriver};
use lwvmm_bench::{build_platform, chrome_trace, flags, or_exit, write_output, PlatformKind};

struct RunResult {
    trace: String,
    stats: GuestStats,
    ram_digest: u64,
    end: u64,
}

fn finish(platform: &mut dyn Platform) -> RunResult {
    let trace = chrome_trace(&[("lvmm", &*platform)]);
    let stats = GuestStats::read(platform.machine()).expect("guest stats readable");
    RunResult {
        trace,
        stats,
        ram_digest: hx_obs::digest(platform.machine().mem.as_bytes()),
        end: platform.machine().now(),
    }
}

fn main() {
    let flags = flags(&["--ms", "--trace", "--journal"], &[]);
    let ms = or_exit(flags.num("--ms")).unwrap_or(60);
    let workload = Workload::new(100);

    // Record.
    let (machine, _) = hx_farm::load_workload(&workload, 1).expect("kernel assembles");
    let every = Some(FlightRecorder::DEFAULT_EVERY);
    let mut rec = PlatformKind::Lvmm.boot(machine, layout::ENTRY, every);
    rec.machine_mut().obs.enable_tracing();
    let per_ms = rec.machine().config().clock_hz / 1_000;
    let t_rec = std::time::Instant::now();
    rec.run_for(ms * per_ms);
    let rec_secs = t_rec.elapsed().as_secs_f64();
    let rec_instr = rec.machine().cpu.instret();
    let end = rec.machine().now();
    let mut journal: Journal = rec
        .machine()
        .obs
        .journal()
        .cloned()
        .expect("journal enabled");
    journal.seal(end);
    let original = finish(rec.as_mut());

    // Replay on a fresh boot.
    let mut rep = build_platform(PlatformKind::Lvmm, &workload);
    rep.machine_mut().obs.enable_tracing();
    let t_rep = std::time::Instant::now();
    let reached = ReplayDriver::new(&journal).run(rep.as_mut());
    let rep_secs = t_rep.elapsed().as_secs_f64();
    let rep_instr = rep.machine().cpu.instret();
    let replayed = finish(rep.as_mut());

    if let Some(path) = flags.get("--trace") {
        write_output(path, original.trace.clone());
        println!("wrote {path}");
    }
    if let Some(path) = flags.get("--journal") {
        write_output(path, journal.save());
        println!("wrote {path}");
    }

    println!(
        "recorded {} cycles, {} journal inputs, {} journal events",
        end,
        journal.inputs.len(),
        journal.events.len()
    );
    // Host-side speed of both directions: record may batch instructions,
    // replay runs the precise per-instruction path.
    println!(
        "sim speed: record {:.1} M instr/host-sec, replay {:.1} M instr/host-sec",
        rec_instr as f64 / rec_secs.max(1e-9) / 1e6,
        rep_instr as f64 / rep_secs.max(1e-9) / 1e6
    );
    let mut ok = true;
    let mut check = |what: &str, same: bool| {
        println!("  {what:20} {}", if same { "match" } else { "MISMATCH" });
        ok &= same;
    };
    check("end cycle", reached == original.end);
    check("chrome trace", replayed.trace == original.trace);
    check("guest stats", replayed.stats == original.stats);
    check("guest RAM", replayed.ram_digest == original.ram_digest);
    if ok {
        println!("replay is byte-identical");
    } else {
        println!("replay DIVERGED from the recording");
        std::process::exit(1);
    }
}
