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
//! The guest flags (`--platform`, `--cores`, `--workload`, `--fault`,
//! `--fault-seed`) are the ones `dbgctl` and `lwvmm-farm` take, and every
//! flag goes through the same parser (`lwvmm::cli::Flags`) into the same
//! boot recipe (`lwvmm::farm::GuestSpec`): a misspelled flag, a flag
//! without its value, a malformed number or a `--cores` outside 1..=8 is an
//! error naming the flag.
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

use lwvmm::cli::{parse_dump, parse_hex32, Flags};
use lwvmm::farm::{guest_machine, GuestSpec};
use lwvmm::fault::FaultKind;
use lwvmm::guest::GuestStats;
use lwvmm::machine::Platform;
use lwvmm::obs::json::JsonObj;
use lwvmm::obs::{CausalTracker, ChromeTrace, EventKind, MetricsSnapshot, Profiler};
use lwvmm::query::Expr;
use std::process::ExitCode;

struct Options {
    /// The guest; its `image` is assembled from `input` once the file is read.
    spec: GuestSpec,
    input: Option<String>,
    ms: u64,
    dump: Option<(u32, u32)>,
    engine_stats: bool,
    no_decode_cache: bool,
    profile: Option<String>,
    logpoints: Vec<(u32, String, Option<Expr>)>,
    query_json: bool,
    metrics: Option<String>,
    heartbeat: Option<u64>,
    causal: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let values = [
        &GuestSpec::FLAGS[..],
        &[
            "--ms",
            "--dump",
            "--profile",
            "--logpoint",
            "--metrics",
            "--causal",
            "--heartbeat",
        ],
    ]
    .concat();
    let switches = [
        "--engine-stats",
        "--query-json",
        "--no-decode-cache",
        "-h",
        "--help",
    ];
    let f = Flags::from_env(&values, &switches, 1)?;
    if f.has("-h") || f.has("--help") {
        return Err(String::new());
    }
    // `--workload` wins over a source file.
    let input = f
        .positional
        .first()
        .cloned()
        .filter(|_| f.get("--workload").is_none());
    if input.is_none() && f.get("--workload").is_none() {
        return Err("need an input file or --workload".into());
    }
    let mut logpoints = Vec::new();
    for spec in f.all("--logpoint") {
        // addr[:label[:expr]] — the expression grammar has no colons, but
        // splitn keeps any future ones intact anyway.
        let mut parts = spec.splitn(3, ':');
        let addr = parse_hex32(parts.next().unwrap_or(""))?;
        if addr & 3 != 0 {
            return Err(format!("--logpoint {addr:#x} is not word-aligned"));
        }
        let label = match parts.next() {
            Some(l) if !l.is_empty() => l.to_string(),
            _ => format!("lp@{addr:#x}"),
        };
        let cond = parts.next().map(Expr::parse).transpose();
        let cond = cond.map_err(|e| format!("bad --logpoint condition in `{spec}`: {e}"))?;
        logpoints.push((addr, label, cond));
    }
    let heartbeat = f.num("--heartbeat")?;
    if heartbeat == Some(0) {
        return Err("--heartbeat expects a nonzero interval".into());
    }
    let metrics = f.get("--metrics").map(str::to_string);
    let profile = f.get("--profile").map(str::to_string);
    let causal = f.get("--causal").map(str::to_string);
    let spec = GuestSpec {
        record: false,
        profile: profile.is_some(),
        // Host-time attribution is simulation-invisible: wall-clock reads
        // never feed guest state, so enabling it keeps record/replay
        // byte-identical.
        hostprof: metrics.is_some(),
        // Observation-only: the simulated run is bit-identical with or
        // without the tracker.
        causal: causal.is_some(),
        ..GuestSpec::from_flags(&f)?
    };
    Ok(Options {
        spec,
        input,
        ms: f.num("--ms")?.unwrap_or(100),
        dump: f.get("--dump").map(parse_dump).transpose()?,
        engine_stats: f.has("--engine-stats"),
        no_decode_cache: f.has("--no-decode-cache"),
        profile,
        logpoints,
        query_json: f.has("--query-json"),
        metrics,
        heartbeat,
        causal,
    })
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
                 [--heartbeat <host report interval, simulated ms>] [--no-decode-cache]"
            );
            return if e.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    match run(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lwvmm-run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(mut opts: Options) -> Result<(), String> {
    if let Some(path) = &opts.input {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let program = hx_asm::assemble(&source).map_err(|e| format!("{path}:{e}"))?;
        opts.spec.image = Some(program);
    }
    let is_workload = opts.spec.image.is_none();
    let (mut machine, entry, program) = guest_machine(&opts.spec)?;
    if opts.no_decode_cache {
        // Must be bit-identical to the default; kept for A/B timing and
        // determinism checks.
        machine.cpu.set_decode_cache(false);
    }
    let clock = machine.config().clock_hz;
    if !opts.logpoints.is_empty() {
        // Hits are read back from the trace ring after the run.
        machine.obs.enable_tracing();
        for (addr, label, cond) in &opts.logpoints {
            machine.add_logpoint(*addr, label, cond.clone());
        }
    }
    let mut platform = opts.spec.platform.boot(machine, entry, None);

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
            let mut ran = 0u64;
            let mut prev_instr = 0u64;
            let mut prev_exits = 0u64;
            while ran < target {
                let chunk = slice.min(target - ran);
                let t0 = std::time::Instant::now();
                let step = platform.run_for(chunk);
                let host_s = t0.elapsed().as_secs_f64().max(1e-9);
                ran += step;
                let m = platform.machine();
                let (instr, exits) = (m.total_instret(), m.obs.exits.total_count());
                eprintln!(
                    "heartbeat: sim {:.1}/{} ms  {:.2} Minstr/s  {:.0} exits/s",
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
    // Every artifact is on disk before either report prints.
    let mut files = Vec::new();
    if let Some(path) = &opts.metrics {
        let mut snapshot = MetricsSnapshot::default();
        platform.publish_metrics(&mut snapshot);
        files.push((path, snapshot.prometheus()));
    }
    if let Some(path) = &opts.causal {
        let mut trace = ChromeTrace::new();
        trace.add_platform(1, platform.name(), &platform.machine().obs);
        files.push((path, trace.finish()));
    }
    if let Some(path) = &opts.profile {
        files.push((path, profiler(platform.as_ref()).fold()));
    }
    for (path, text) in files {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let dump = opts.dump.map(|(addr, len)| {
        let m = platform.machine_mut();
        let bytes = (0..len).map(|i| m.bus_read(addr + i, hx_cpu::MemSize::Byte).ok());
        (addr, bytes.collect::<Vec<_>>())
    });
    if opts.query_json {
        emit_json(&opts, platform.as_ref(), ran, clock, is_workload, dump);
        return Ok(());
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
        let prof = profiler(platform.as_ref());
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
        let c = tracker(platform.as_ref());
        let s = c.summary();
        println!(
            "\ncausal: {} flows ({} dropped, {} orphan ends, {} instants), trace written to {path}",
            s.completed, s.dropped, s.orphan_ends, s.instants
        );
        for line in c.summary_lines() {
            println!("  {line}");
        }
    }
    if let Some((addr, bytes)) = dump {
        print!("memory at {addr:#010x}:");
        for (i, b) in bytes.iter().enumerate() {
            if i % 16 == 0 {
                print!("\n  {:#010x}: ", addr + i as u32);
            }
            match b {
                Some(b) => print!("{b:02x} "),
                None => print!("?? "),
            }
        }
        println!();
    }
    Ok(())
}

/// The guest profiler `--profile` switched on through the spec.
fn profiler(platform: &dyn Platform) -> &Profiler {
    platform
        .machine()
        .obs
        .prof()
        .expect("--profile enables the profiler")
}

/// The causal tracker `--causal` switched on through the spec.
fn tracker(platform: &dyn Platform) -> &CausalTracker {
    platform
        .machine()
        .obs
        .causal()
        .expect("--causal enables the tracker")
}

/// The `--query-json` report: one JSON object per line, every value taken
/// from simulated state so identical invocations print identical bytes.
fn emit_json(
    opts: &Options,
    platform: &dyn Platform,
    ran: u64,
    clock: u64,
    is_workload: bool,
    dump: Option<(u32, Vec<Option<u32>>)>,
) {
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
            opts.logpoints
                .iter()
                .find(|lp| lp.0 == addr)
                .map(|lp| lp.1.clone())
                .unwrap_or_default()
        };
        if m.obs.ring.dropped() > 0 {
            let mut o = JsonObj::new();
            o.set("event", "ring-dropped")
                .set("events", m.obs.ring.dropped());
            println!("{}", o.finish());
        }
        for ev in m.obs.ring.iter() {
            if let EventKind::Log { addr, value } = ev.kind {
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

    if let Some((addr, bytes)) = dump {
        let hex: String = bytes
            .iter()
            .map(|b| b.map_or("??".to_string(), |b| format!("{b:02x}")))
            .collect();
        let mut o = JsonObj::new();
        o.set("event", "memory")
            .hex("addr", addr as u64)
            .set("len", bytes.len() as u64)
            .set("bytes", &hex);
        println!("{}", o.finish());
    }

    if let Some(path) = &opts.profile {
        let mut o = JsonObj::new();
        o.set("event", "profile")
            .set("path", path)
            .set("samples", profiler(platform).total_samples());
        println!("{}", o.finish());
    }

    if let Some(path) = &opts.causal {
        let s = tracker(platform).summary();
        let mut o = JsonObj::new();
        o.set("event", "causal")
            .set("path", path)
            .set("flows", s.completed)
            .set("dropped", s.dropped)
            .set("orphan_ends", s.orphan_ends)
            .set("instants", s.instants);
        println!("{}", o.finish());
    }
}
