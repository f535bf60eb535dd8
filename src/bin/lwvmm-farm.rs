//! `lwvmm-farm` — one host process serving N concurrent guests.
//!
//! ```console
//! $ lwvmm-farm --guests 32 --port 7700
//! $ lwvmm-farm --guests 8 --ms 200 --fault all --fault-guest 0
//! ```
//!
//! Boots `--guests` independent machines (any `--platform`, any `--cores`),
//! shards them across `--workers` threads, and serves each machine's debug
//! stub on its own TCP port (`--port base`: control on `base`, guest *i* on
//! `base+1+i`; without `--port`, ephemeral ports are printed at startup).
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

use lwvmm::farm::{control_request, Farm, FarmConfig, GuestSpec, PlatformKind};
use lwvmm::machine::timing;
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    guests: usize,
    platform: PlatformKind,
    cores: usize,
    rate: u64,
    workers: usize,
    ms: Option<u64>,
    record: bool,
    profile: bool,
    hostprof: bool,
    fault: Option<String>,
    fault_guest: usize,
    fault_seed: u64,
    port: Option<u16>,
    slice: u64,
    dump: Option<(u32, u32)>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        guests: 4,
        platform: PlatformKind::Lvmm,
        cores: 1,
        rate: 100,
        workers: 0,
        ms: None,
        record: true,
        profile: false,
        hostprof: false,
        fault: None,
        fault_guest: 0,
        fault_seed: 42,
        port: None,
        slice: 20_000,
        dump: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |what: &str| args.next().ok_or(format!("missing {what} value"));
        match arg.as_str() {
            "--guests" => {
                opts.guests = val("--guests")?
                    .parse()
                    .map_err(|_| "--guests expects a number")?
            }
            "--platform" => opts.platform = val("--platform")?.parse()?,
            "--cores" => {
                opts.cores = val("--cores")?
                    .parse()
                    .map_err(|_| "--cores expects a number")?
            }
            "--rate" => {
                opts.rate = val("--rate")?
                    .parse()
                    .map_err(|_| "--rate expects Mbit/s")?
            }
            "--workers" => {
                opts.workers = val("--workers")?
                    .parse()
                    .map_err(|_| "--workers expects a number")?
            }
            "--ms" => {
                opts.ms = Some(
                    val("--ms")?
                        .parse()
                        .map_err(|_| "--ms expects simulated milliseconds")?,
                )
            }
            "--no-record" => opts.record = false,
            "--profile" => opts.profile = true,
            "--hostprof" => opts.hostprof = true,
            "--fault" => opts.fault = Some(val("--fault")?),
            "--fault-guest" => {
                opts.fault_guest = val("--fault-guest")?
                    .parse()
                    .map_err(|_| "--fault-guest expects a guest id")?
            }
            "--fault-seed" => {
                opts.fault_seed = val("--fault-seed")?
                    .parse()
                    .map_err(|_| "--fault-seed expects a number")?
            }
            "--port" => {
                opts.port = Some(
                    val("--port")?
                        .parse()
                        .map_err(|_| "--port expects a TCP port")?,
                )
            }
            "--slice" => {
                opts.slice = val("--slice")?
                    .parse()
                    .map_err(|_| "--slice expects cycles")?
            }
            "--dump" => {
                let spec = val("--dump")?;
                let (addr, len) = spec.split_once(':').ok_or("--dump expects addr:len")?;
                // Shared strict parser: single 0x/0X prefix only.
                let addr = lwvmm::cli::parse_hex32(addr)?;
                let len: u32 = len.parse().map_err(|_| "--dump length must be decimal")?;
                opts.dump = Some((addr, len));
            }
            "--help" | "-h" => {
                println!(
                    "usage: lwvmm-farm [--guests N] [--platform raw|lvmm|hosted] [--cores N] \
                     [--rate MBPS] [--workers W] [--ms SIM_MS] [--no-record] [--profile] \
                     [--hostprof] [--fault all|CLASS] [--fault-guest ID] [--fault-seed N] \
                     [--port BASE] [--slice CYCLES] [--dump 0xADDR:LEN]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.guests == 0 {
        return Err("--guests must be at least 1".into());
    }
    if opts.fault.is_some() && opts.fault_guest >= opts.guests {
        return Err(format!(
            "--fault-guest {} out of range (guests: {})",
            opts.fault_guest, opts.guests
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lwvmm-farm: {e}");
            return ExitCode::FAILURE;
        }
    };
    let guests = (0..opts.guests)
        .map(|i| GuestSpec {
            platform: opts.platform,
            cores: opts.cores,
            rate_mbps: opts.rate,
            record: opts.record,
            profile: opts.profile,
            hostprof: opts.hostprof,
            fault: opts
                .fault
                .clone()
                .filter(|_| i == opts.fault_guest)
                .map(|class| (class, opts.fault_seed)),
        })
        .collect::<Vec<_>>();
    let workers = if opts.workers == 0 {
        opts.guests.min(4)
    } else {
        opts.workers
    };
    let horizon = opts.ms.map(|ms| timing::DEFAULT_CLOCK_HZ / 1_000 * ms);
    let cfg = FarmConfig {
        guests,
        workers,
        slice: opts.slice,
        horizon,
        base_port: opts.port,
        ..FarmConfig::default()
    };

    let farm = match Farm::launch(cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lwvmm-farm: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "farm up: {} guest(s) on {} worker thread(s)",
        opts.guests, workers
    );
    println!("control: 127.0.0.1:{}", farm.control_port());
    for (i, port) in farm.ports().iter().enumerate() {
        println!("guest {i}: 127.0.0.1:{port}");
    }

    if let Some(ms) = opts.ms {
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
        if let Some((addr, len)) = opts.dump {
            for i in 0..opts.guests {
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
    ExitCode::SUCCESS
}
