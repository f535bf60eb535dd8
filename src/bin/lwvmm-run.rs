//! `lwvmm-run` — boot an HX32 guest (assembly source) on a chosen platform
//! and report what happened.
//!
//! ```console
//! $ lwvmm-run guest.s --platform lvmm --ms 200
//! $ lwvmm-run guest.s --platform raw --ms 50 --dump 0x900:16
//! $ lwvmm-run --workload 100 --platform hosted --ms 250
//! ```
//!
//! `--workload <mbps>` runs the built-in HiTactix streaming kernel instead
//! of a source file. Platforms: `raw` (real hardware), `lvmm` (the paper's
//! lightweight monitor, default), `hosted` (the conventional full monitor).
//!
//! `--fault all` (or a single class such as `--fault wild-write-kernel`)
//! arms the deterministic fault injector: the campaign is a pure function
//! of `--fault-seed` and the simulated clock, so the same invocation always
//! wrecks the guest the same way.
//!
//! `--logpoint 0xADDR[:label[:expr]]` (repeatable) arms a logpoint: every
//! retirement of the instruction at `ADDR` where `expr` (condition grammar
//! of `hx-query`; absent means "always") evaluates nonzero records a hit
//! without stopping the guest. `--query-json` switches the whole run report
//! to JSON lines — one object per line, deterministic across reruns — for
//! scripting against.
//!
//! `--causal out.json` turns on causal-flow tracking (IRQ dispatch/service,
//! IPI delivery, device command→completion, guest tracepoint spans), writes
//! the run as a Chrome/Perfetto trace with flow arrows, and prints per-class
//! latency histograms. The trace bytes are a pure function of the simulated
//! run, so identical invocations produce identical files.

use lwvmm::farm::{new_machine, PlatformKind};
use lwvmm::fault::FaultKind;
use lwvmm::guest::{GuestStats, Workload};
use lwvmm::machine::Platform;
use lwvmm::obs::json::JsonObj;
use lwvmm::obs::{ChromeTrace, EventKind, MetricsRegistry, Profiler, SymbolMap};
use lwvmm::query::Expr;
use std::process::ExitCode;

struct Options {
    input: Option<String>,
    workload: Option<u64>,
    platform: PlatformKind,
    cores: usize,
    ms: u64,
    dump: Option<(u32, u32)>,
    engine_stats: bool,
    no_decode_cache: bool,
    profile: Option<String>,
    fault: Option<String>,
    fault_seed: u64,
    logpoints: Vec<(u32, String, Option<String>)>,
    query_json: bool,
    metrics: Option<String>,
    heartbeat: Option<u64>,
    causal: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        input: None,
        workload: None,
        platform: PlatformKind::Lvmm,
        cores: 1,
        ms: 100,
        dump: None,
        engine_stats: false,
        no_decode_cache: false,
        profile: None,
        fault: None,
        fault_seed: 42,
        logpoints: Vec::new(),
        query_json: false,
        metrics: None,
        heartbeat: None,
        causal: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--platform" => {
                opts.platform = args.next().ok_or("missing --platform value")?.parse()?
            }
            "--cores" => {
                let v = args.next().ok_or("missing --cores value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--cores expects a number, got `{v}`"))?;
                if n == 0 || n > lwvmm::machine::smp::MAX_CORES {
                    return Err(format!(
                        "--cores must be between 1 and {}, got {n}",
                        lwvmm::machine::smp::MAX_CORES
                    ));
                }
                opts.cores = n;
            }
            "--ms" => {
                opts.ms = args
                    .next()
                    .ok_or("missing --ms value")?
                    .parse()
                    .map_err(|_| "--ms expects a number")?
            }
            "--workload" => {
                opts.workload = Some(
                    args.next()
                        .ok_or("missing --workload value")?
                        .parse()
                        .map_err(|_| "--workload expects Mbit/s")?,
                )
            }
            "--dump" => {
                let spec = args.next().ok_or("missing --dump value")?;
                let (addr, len) = spec.split_once(':').ok_or("--dump expects addr:len")?;
                let addr = lwvmm::cli::parse_hex32(addr)?;
                let len: u32 = len.parse().map_err(|_| "--dump length must be decimal")?;
                opts.dump = Some((addr, len));
            }
            "--engine-stats" => opts.engine_stats = true,
            "--fault" => opts.fault = Some(args.next().ok_or("missing --fault value")?),
            "--fault-seed" => {
                opts.fault_seed = args
                    .next()
                    .ok_or("missing --fault-seed value")?
                    .parse()
                    .map_err(|_| "--fault-seed expects a number")?
            }
            "--profile" => opts.profile = Some(args.next().ok_or("missing --profile value")?),
            "--logpoint" => {
                let spec = args.next().ok_or("missing --logpoint value")?;
                // addr[:label[:expr]] — the expression may itself contain
                // no colons (the grammar has none), but splitn keeps any
                // future ones intact anyway.
                let mut parts = spec.splitn(3, ':');
                let addr = parts.next().unwrap_or("");
                let addr = lwvmm::cli::parse_hex32(addr)?;
                let label = match parts.next() {
                    Some(l) if !l.is_empty() => l.to_string(),
                    _ => format!("lp@{addr:#x}"),
                };
                let expr = parts.next().map(str::to_string);
                opts.logpoints.push((addr, label, expr));
            }
            "--query-json" => opts.query_json = true,
            "--metrics" => opts.metrics = Some(args.next().ok_or("missing --metrics value")?),
            "--causal" => opts.causal = Some(args.next().ok_or("missing --causal value")?),
            "--heartbeat" => {
                let ms: u64 = args
                    .next()
                    .ok_or("missing --heartbeat value")?
                    .parse()
                    .map_err(|_| "--heartbeat expects milliseconds")?;
                if ms == 0 {
                    return Err("--heartbeat expects a nonzero interval".into());
                }
                opts.heartbeat = Some(ms);
            }
            "--no-decode-cache" => opts.no_decode_cache = true,
            "-h" | "--help" => return Err(String::new()),
            other if opts.input.is_none() => opts.input = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if opts.input.is_none() && opts.workload.is_none() {
        return Err("need an input file or --workload".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("lwvmm-run: {e}");
            }
            eprintln!(
                "usage: lwvmm-run [guest.s | --workload <mbps>] [--platform raw|lvmm|hosted] \
                 [--cores N] [--ms <simulated ms>] [--dump 0xADDR:LEN] [--engine-stats] \
                 [--profile out.folded] [--fault all|<class>] [--fault-seed N] \
                 [--logpoint 0xADDR[:label[:expr]]]... [--query-json] \
                 [--metrics out.prom] [--causal out.json] \
                 [--heartbeat <host report interval, simulated ms>]"
            );
            return if e.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    let mut machine = new_machine(opts.cores);
    if opts.no_decode_cache {
        // Must be bit-identical to the default; kept for A/B timing and
        // determinism checks.
        machine.cpu.set_decode_cache(false);
    }
    let clock = machine.config().clock_hz;
    let (program, is_workload) = if let Some(rate) = opts.workload {
        (
            Workload::new(rate)
                .build(&machine)
                .expect("built-in kernel assembles"),
            true,
        )
    } else {
        let path = opts.input.as_ref().unwrap();
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lwvmm-run: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match hx_asm::assemble(&source) {
            Ok(p) => (p, false),
            Err(e) => {
                eprintln!("{path}:{e}");
                return ExitCode::FAILURE;
            }
        }
    };
    machine.load_program(&program);
    let entry = program.symbols.get("start").unwrap_or(program.base());

    if opts.profile.is_some() {
        // Curated function-level ranges for the built-in kernel; every
        // in-image label for ad-hoc guests.
        let ranges = if is_workload {
            lwvmm::guest::kernel::profile_symbols(&program)
        } else {
            program.code_symbols()
        };
        machine.obs.enable_profiler(Profiler::new(
            SymbolMap::from_ranges(ranges),
            Profiler::DEFAULT_INTERVAL,
        ));
    }

    if !opts.logpoints.is_empty() {
        // Hits are read back from the trace ring after the run.
        machine.obs.enable_tracing();
        for (addr, label, expr) in &opts.logpoints {
            let cond = match expr {
                None => None,
                Some(src) => match Expr::parse(src) {
                    Ok(e) => Some(e),
                    Err(e) => {
                        eprintln!("lwvmm-run: bad --logpoint condition `{src}`: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            machine.add_logpoint(*addr, label, cond);
        }
    }

    if let Some(class) = &opts.fault {
        let ram_size = machine.config().ram_size as u32;
        match opts.platform.fault_plan(ram_size, class, opts.fault_seed) {
            Ok(plan) => machine.enable_fault_injection(plan),
            Err(e) => {
                eprintln!("lwvmm-run: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.causal.is_some() {
        // Flow endpoints ride the event ring, so the causal exporter needs
        // tracing on as well. Both are observation-only: the simulated run
        // is bit-identical with or without them.
        machine.obs.enable_tracing();
        machine.obs.enable_causal();
    }

    if opts.metrics.is_some() || opts.heartbeat.is_some() {
        // Host-time attribution is simulation-invisible: wall-clock reads
        // never feed guest state, so enabling it (and the heartbeat's
        // sliced run loop) keeps record/replay byte-identical.
        machine.obs.enable_hostprof();
    }

    let mut platform = opts.platform.boot(machine, entry, None);

    if !opts.query_json {
        println!(
            "running {} ({} bytes at {:#x}) on {} for {} simulated ms",
            opts.input
                .as_deref()
                .unwrap_or("<built-in streaming workload>"),
            program.bytes().len(),
            program.base(),
            platform.name(),
            opts.ms
        );
    }
    let target = clock / 1_000 * opts.ms;
    let ran = match opts.heartbeat {
        Some(hb) => {
            // Slicing is simulation-invisible: `run_for(a); run_for(b)` is
            // identical to `run_for(a+b)` (the engine loops on the clock,
            // not on call boundaries), and the report goes to stderr so
            // stdout stays deterministic across reruns.
            let slice = (clock / 1_000 * hb).max(1);
            let reg = MetricsRegistry::global();
            let name = platform.name().to_string();
            let mut ran = 0u64;
            let mut prev_instr = 0u64;
            let mut prev_exits = 0u64;
            while ran < target {
                let chunk = slice.min(target - ran);
                let t0 = std::time::Instant::now();
                let step = platform.run_for(chunk);
                let host_s = t0.elapsed().as_secs_f64().max(1e-9);
                ran += step;
                platform.publish_metrics(reg);
                let snap = reg.snapshot();
                let instr =
                    snap.counter(&format!("lwvmm_instructions_total{{platform=\"{name}\"}}"));
                let exit_prefix = format!("lwvmm_exits_total{{platform=\"{name}\"");
                let exits: u64 = snap
                    .counters
                    .iter()
                    .filter(|(k, _)| k.starts_with(&exit_prefix))
                    .map(|(_, v)| *v)
                    .sum();
                let journal = snap.counter(&format!(
                    "lwvmm_journal_payload_bytes_total{{platform=\"{name}\"}}"
                ));
                eprintln!(
                    "heartbeat: sim {:.1}/{} ms  {:.2} Minstr/s  {:.0} exits/s  journal {journal} B",
                    ran as f64 * 1e3 / clock as f64,
                    opts.ms,
                    (instr - prev_instr) as f64 / host_s / 1e6,
                    (exits - prev_exits) as f64 / host_s,
                );
                prev_instr = instr;
                prev_exits = exits;
                if step < chunk {
                    break; // stuck: no event can ever wake the guest
                }
            }
            ran
        }
        None => platform.run_for(target),
    };
    if let Some(path) = &opts.metrics {
        platform.publish_metrics(MetricsRegistry::global());
        let text = MetricsRegistry::global().snapshot().prometheus();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("lwvmm-run: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.causal {
        let mut trace = ChromeTrace::new();
        trace.add_platform(1, platform.name(), &platform.machine().obs);
        if let Err(e) = std::fs::write(path, trace.finish()) {
            eprintln!("lwvmm-run: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if opts.query_json {
        return emit_json(&opts, platform.as_mut(), ran, clock, is_workload);
    }
    let t = platform.time_stats();
    println!(
        "\nsimulated {:.3} ms   cpu load {:.1}%  (guest {:.1}%, monitor {:.1}%, host {:.1}%, idle {:.1}%)",
        ran as f64 * 1e3 / clock as f64,
        t.cpu_load() * 100.0,
        t.guest as f64 / t.total().max(1) as f64 * 100.0,
        t.monitor as f64 / t.total().max(1) as f64 * 100.0,
        t.host_model as f64 / t.total().max(1) as f64 * 100.0,
        t.idle as f64 / t.total().max(1) as f64 * 100.0,
    );
    let m = platform.machine();
    println!(
        "cpu: pc={:#010x}  {} instructions retired, {} cycles",
        m.cpu.pc(),
        m.total_instret(),
        m.cpu.cycles()
    );
    let nic = m.nic.counters();
    if nic.tx_frames > 0 {
        let mbps = nic.tx_bytes as f64 * 8.0 / (m.now() as f64 / clock as f64) / 1e6;
        println!(
            "nic: {} frames, {} payload bytes ({mbps:.1} Mbit/s)",
            nic.tx_frames, nic.tx_bytes
        );
    }
    if let Some(f) = m.fault_stats() {
        let classes: Vec<String> = FaultKind::ALL
            .iter()
            .filter(|&&k| f.injected_for(k) > 0)
            .map(|&k| format!("{} {}", f.injected_for(k), k.label()))
            .collect();
        println!(
            "faults: {} injected, {} wild attempts blocked by protection ({})",
            f.total(),
            f.blocked,
            if classes.is_empty() {
                "none".to_string()
            } else {
                classes.join(", ")
            }
        );
    }
    let hdc = m.hdc.stats();
    if hdc.commands > 0 {
        println!(
            "disk: {} commands, {} bytes, {} errors",
            hdc.commands, hdc.bytes, hdc.errors
        );
    }
    if is_workload {
        match GuestStats::read(m) {
            Ok(stats) => println!(
                "guest: {} frames, {} bytes, {} ticks, {} underruns, fault={}",
                stats.frames, stats.bytes, stats.ticks, stats.underruns, stats.fault_cause
            ),
            Err(e) => println!("guest: stats unavailable ({e})"),
        }
    }
    if opts.engine_stats {
        let d = m.cpu.decode_stats();
        let (tlb_hits, tlb_misses) = m.cpu.tlb_stats();
        println!(
            "engine: decode cache {:.1}% hit ({} hits, {} misses), \
             {} fast-path fetches, {} invalidations",
            d.hit_rate() * 100.0,
            d.hits,
            d.misses,
            d.fast_fetches,
            d.invalidations
        );
        println!("engine: tlb {tlb_hits} hits, {tlb_misses} misses");
    }
    if let Some(path) = &opts.profile {
        let obs = &platform.machine().obs;
        let Some(prof) = obs.prof() else {
            eprintln!("lwvmm-run: profiler vanished (internal error)");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(path, prof.fold()) {
            eprintln!("lwvmm-run: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        let total = prof.total_cycles().max(1);
        println!(
            "\nprofile: {} guest cycles, {} samples (interval {}), hottest symbols:",
            prof.total_cycles(),
            prof.total_samples(),
            prof.interval()
        );
        println!("  {:>12}  {:>6}  {:>8}  symbol", "cycles", "%", "samples");
        for (name, cycles, samples) in prof.top(10) {
            println!(
                "  {cycles:>12}  {:>5.1}%  {samples:>8}  {name}",
                cycles as f64 / total as f64 * 100.0
            );
        }
        println!("profile written to {path}");
    }
    if let Some(path) = &opts.causal {
        let Some(c) = platform.machine().obs.causal() else {
            eprintln!("lwvmm-run: causal tracker vanished (internal error)");
            return ExitCode::FAILURE;
        };
        println!(
            "\ncausal: {} flows ({} dropped, {} orphan ends, {} instants), trace written to {path}",
            c.completed(),
            c.dropped_flows(),
            c.orphan_ends(),
            c.instants()
        );
        for line in c.summary_lines() {
            println!("  {line}");
        }
    }
    if let Some((addr, len)) = opts.dump {
        print!("memory at {addr:#010x}:");
        for i in 0..len {
            if i % 16 == 0 {
                print!("\n  {:#010x}: ", addr + i);
            }
            match platform
                .machine_mut()
                .bus_read(addr + i, hx_cpu::MemSize::Byte)
            {
                Ok(b) => print!("{b:02x} "),
                Err(_) => print!("?? "),
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}

/// The `--query-json` report: one JSON object per line, every value taken
/// from simulated state so identical invocations print identical bytes.
fn emit_json(
    opts: &Options,
    platform: &mut dyn Platform,
    ran: u64,
    clock: u64,
    is_workload: bool,
) -> ExitCode {
    let m = platform.machine();
    let nic = m.nic.counters();
    let mut run = JsonObj::new();
    run.set("event", "run")
        .set("platform", platform.name())
        .set("clock_hz", clock)
        .set("ran_cycles", ran)
        .set("now", m.now())
        .hex("pc", m.cpu.pc() as u64)
        .set("instret", m.total_instret())
        .set("tx_frames", nic.tx_frames)
        .set("tx_bytes", nic.tx_bytes);
    println!("{}", run.finish());

    if is_workload {
        let mut o = JsonObj::new();
        o.set("event", "guest");
        match GuestStats::read(m) {
            Ok(s) => {
                o.set("frames", s.frames as u64)
                    .set("bytes", s.bytes)
                    .set("ticks", s.ticks as u64)
                    .set("underruns", s.underruns as u64)
                    .set("fault_cause", s.fault_cause as u64);
            }
            Err(e) => {
                o.set("error", &e.to_string());
            }
        }
        println!("{}", o.finish());
    }

    if let Some(f) = m.fault_stats() {
        let mut o = JsonObj::new();
        o.set("event", "faults");
        o.u64_list("attempted", &f.injected);
        o.set("blocked", f.blocked);
        println!("{}", o.finish());
    }

    // Logpoint hits, oldest surviving first (the ring may have dropped the
    // earliest ones on very long runs — say so rather than lie by omission).
    if !opts.logpoints.is_empty() {
        let label_of = |addr: u32| {
            m.logpoints()
                .iter()
                .find(|lp| lp.addr == addr)
                .map(|lp| lp.label.clone())
                .unwrap_or_default()
        };
        if m.obs.ring.dropped() > 0 {
            let mut o = JsonObj::new();
            o.set("event", "ring-dropped")
                .set("events", m.obs.ring.dropped());
            println!("{}", o.finish());
        }
        for ev in m.obs.ring.iter() {
            if let EventKind::Logpoint { addr, value } = ev.kind {
                let mut o = JsonObj::new();
                o.set("event", "logpoint")
                    .set("at", ev.at)
                    .hex("addr", addr as u64)
                    .set("label", &label_of(addr))
                    .set("value", value);
                println!("{}", o.finish());
            }
        }
    }

    if let Some((addr, len)) = opts.dump {
        let mut bytes = String::with_capacity(len as usize * 2);
        for i in 0..len {
            match platform
                .machine_mut()
                .bus_read(addr + i, hx_cpu::MemSize::Byte)
            {
                Ok(b) => bytes.push_str(&format!("{b:02x}")),
                Err(_) => bytes.push_str("??"),
            }
        }
        let mut o = JsonObj::new();
        o.set("event", "memory")
            .hex("addr", addr as u64)
            .set("len", len as u64)
            .set("bytes", &bytes);
        println!("{}", o.finish());
    }

    if let Some(path) = &opts.profile {
        let Some(prof) = platform.machine().obs.prof() else {
            eprintln!("lwvmm-run: profiler vanished (internal error)");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(path, prof.fold()) {
            eprintln!("lwvmm-run: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        let mut o = JsonObj::new();
        o.set("event", "profile")
            .set("path", path)
            .set("samples", prof.total_samples());
        println!("{}", o.finish());
    }

    if let Some(path) = &opts.causal {
        let Some(c) = platform.machine().obs.causal() else {
            eprintln!("lwvmm-run: causal tracker vanished (internal error)");
            return ExitCode::FAILURE;
        };
        let mut o = JsonObj::new();
        o.set("event", "causal")
            .set("path", path)
            .set("flows", c.completed())
            .set("dropped", c.dropped_flows())
            .set("orphan_ends", c.orphan_ends())
            .set("instants", c.instants());
        println!("{}", o.finish());
    }
    ExitCode::SUCCESS
}
