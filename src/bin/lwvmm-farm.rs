//! `lwvmm-farm` — one host process serving N concurrent guests.
//!
//! ```console
//! $ lwvmm-farm --guests 32 --port 7700
//! $ lwvmm-farm --guests 8 --ms 200 --fault all --fault-guest 0
//! ```
//!
//! Boots `--guests` independent machines (any `--platform`, any `--cores`,
//! the streaming workload at `--workload` Mbit/s), shards them across
//! `--workers` threads, and serves each machine's debug stub on its own TCP
//! port (`--port base`: control on `base`, guest *i* on `base+1+i`; without
//! `--port`, ephemeral ports are printed at startup). The guest flags are
//! the ones `lwvmm-run` and `dbgctl` take, parsed by the same parser, and a
//! misspelled or valueless flag is an error.
//! Attach any rdbg client — `dbgctl session --connect 127.0.0.1:PORT` — to
//! as many guests at once as you like; each lvmm guest records a flight
//! recorder, so sessions can time-travel independently.
//!
//! The control port answers line commands with one JSON line each:
//! `status`, `stats [id]`, `prof [id]`, `metrics [id]` (fleet totals plus
//! per-guest drill-down), `evict <id>`, `shutdown`.
//!
//! With `--ms` the fleet simulates that many milliseconds and exits,
//! printing per-guest reports; the journal each guest seals at the horizon
//! is byte-identical to a standalone run of the same guest (`tests/farm.rs`
//! proves it differentially).

use lwvmm::cli::{parse_dump, Flags};
use lwvmm::farm::{control_request, Farm, FarmConfig, GuestSpec};
use lwvmm::machine::timing;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: lwvmm-farm [--guests N] [--platform raw|lvmm|hosted] [--cores N] \
     [--workload MBPS] [--workers W] [--ms SIM_MS] [--no-record] [--profile] \
     [--hostprof] [--fault all|CLASS] [--fault-guest ID] [--fault-seed N] \
     [--port BASE] [--slice CYCLES] [--dump 0xADDR:LEN]";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lwvmm-farm: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let values = [
        &GuestSpec::FLAGS[..],
        &[
            "--guests",
            "--workers",
            "--ms",
            "--fault-guest",
            "--port",
            "--slice",
            "--dump",
        ],
    ]
    .concat();
    let switches = ["--no-record", "--profile", "--hostprof", "--help", "-h"];
    let f = Flags::from_env(&values, &switches, 0)?;
    if f.has("--help") || f.has("-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let spec = GuestSpec {
        record: !f.has("--no-record"),
        profile: f.has("--profile"),
        hostprof: f.has("--hostprof"),
        ..GuestSpec::from_flags(&f)?
    };
    let n = f.num("--guests")?.unwrap_or(4);
    let fault_guest = f.num("--fault-guest")?.unwrap_or(0);
    let ms: Option<u64> = f.num("--ms")?;
    let dump = f.get("--dump").map(parse_dump).transpose()?;
    if n == 0 {
        return Err("--guests must be at least 1".into());
    }
    if spec.fault.is_some() && fault_guest >= n {
        return Err(format!(
            "--fault-guest {fault_guest} out of range (guests: {n})"
        ));
    }
    // Only guest `fault_guest` runs the campaign.
    let guests = (0..n)
        .map(|i| GuestSpec {
            fault: spec.fault.clone().filter(|_| i == fault_guest),
            ..spec.clone()
        })
        .collect::<Vec<_>>();
    let workers = f.num("--workers")?.filter(|&w| w > 0).unwrap_or(n.min(4));
    let farm = Farm::launch(FarmConfig {
        guests,
        workers,
        slice: f.num("--slice")?.unwrap_or(20_000),
        horizon: ms.map(|ms| timing::DEFAULT_CLOCK_HZ / 1_000 * ms),
        base_port: f.num("--port")?,
        ..FarmConfig::default()
    })?;
    println!("farm up: {n} guest(s) on {workers} worker thread(s)");
    println!("control: 127.0.0.1:{}", farm.control_port());
    for (i, port) in farm.ports().iter().enumerate() {
        println!("guest {i}: 127.0.0.1:{port}");
    }

    if let Some(ms) = ms {
        // Bounded run: simulate to the horizon, report, exit. Allow ample
        // wall time — a loaded machine may be 10x slower than sim speed.
        let timeout = Duration::from_secs(30 + ms / 10);
        if !farm.wait_settled(timeout) {
            eprintln!("lwvmm-farm: fleet did not settle within {timeout:?}");
        }
        match control_request(farm.control_port(), "stats") {
            Ok(stats) => println!("{stats}"),
            Err(e) => eprintln!("lwvmm-farm: stats request failed: {e}"),
        }
        if let Some((addr, len)) = dump {
            for i in 0..n {
                let bytes = farm.with_guest(i, |p| {
                    (0..len)
                        .map(|o| {
                            p.machine_mut()
                                .bus_read(addr + o, lwvmm::cpu::MemSize::Byte)
                                .map(|b| format!("{b:02x}"))
                                .unwrap_or_else(|_| "??".into())
                        })
                        .collect::<Vec<_>>()
                        .join(" ")
                });
                println!("guest {i} memory at {addr:#010x}: {}", bytes.unwrap());
            }
        }
        for r in farm.shutdown() {
            println!(
                "guest {}: platform={} health={} now={} instret={} sessions={} journal_bytes={}",
                r.id,
                r.platform,
                r.health.label(),
                r.now,
                r.instret,
                r.sessions,
                r.journal.as_ref().map_or(0, String::len)
            );
        }
    } else {
        // Serve until a control `shutdown` arrives.
        while farm.serving() {
            std::thread::sleep(Duration::from_millis(100));
        }
        let n = farm.shutdown().len();
        println!("farm down: {n} guest(s) retired");
    }
    Ok(())
}
