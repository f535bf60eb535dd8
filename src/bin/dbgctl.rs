//! `dbgctl` — machine-readable debug control for scripted and CI use.
//!
//! Every subcommand prints JSON lines (one object per line, deterministic
//! across reruns) so transcripts can be diffed byte-for-byte:
//!
//! ```console
//! $ dbgctl run --platform lvmm --ms 100 --journal lvmm.jnl
//! $ dbgctl run --platform hosted --ms 100 --journal hosted.jnl
//! $ dbgctl audit lvmm.jnl hosted.jnl
//! $ dbgctl query lvmm.jnl "irq 3 in 0..0x100000"
//! $ dbgctl session script.dbg
//! $ dbgctl diverge --symbol frames --ms 60
//! ```
//!
//! `session` drives a remote-debugger session against a freshly booted
//! lightweight-monitor guest from a line-oriented script (file argument or
//! stdin); see [`session_line`] for the command set. `diverge` is the
//! end-to-end "find the first cycle a kernel counter went wrong" recipe:
//! it samples a named guest symbol under both the hosted and the
//! lightweight monitor, finds the first sample where the two runs
//! disagree, refines that to an exact cycle with a `Qq` timeline query
//! over the lvmm flight recording, seeks the replay there, and dumps
//! state.
//!
//! Each subcommand takes only the flags its usage line lists, parsed by the
//! shared parser (`lwvmm::cli::Flags`), and boots its guest through
//! `lwvmm::farm::GuestSpec` like `lwvmm-run` and `lwvmm-farm` do. A
//! misspelled flag, a flag without its value (`--journal --ms 5`) or a
//! malformed number is an error naming the flag; numbers are decimal or
//! `0x` hex.

use lwvmm::cli::{parse_hex32, parse_num64, Flags};
use lwvmm::farm::{boot_guest, guest_machine, GuestSpec, PlatformKind};
use lwvmm::fault::{FaultKind, FaultPlan};
use lwvmm::guest::{apps, kernel::layout};
use lwvmm::machine::{Machine, Platform};
use lwvmm::monitor::{LvmmPlatform, UartLink};
use lwvmm::obs::json::JsonObj;
use lwvmm::obs::{audit, FlowClass, FlowSummary, HostAttribution, Journal};
use lwvmm::query::{first_divergent_event, JournalQuery};
use rdbg::{DbgError, Debugger, StopReason, WatchKind};
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let r = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("session") => cmd_session(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("flow") => cmd_flow(&args[1..]),
        Some("diverge") => cmd_diverge(&args[1..]),
        _ => Err(
            "usage: dbgctl <run|audit|query|session|metrics|flow|diverge> [args]\n\
                  run     [--platform raw|lvmm|hosted] [--ms N] [--workload MBPS] [--cores N] [--journal PATH]\n\
                  audit   A.jnl B.jnl\n\
                  query   JOURNAL.jnl \"<irq N [in A..B] | first-event STREAM | logs [ADDR] | irqlat N [over K] | trace [ID]>\"\n\
                  session [--cores N] [--connect HOST:PORT] [SCRIPT]   (stdin when omitted)\n\
                  metrics [--ms N] [--workload MBPS] [--cores N]\n\
                  flow    [--cycle N] [--ms N] [--workload MBPS] [--cores N] [--seek]\n\
                  diverge [--symbol NAME|0xADDR] [--ms N]\n\
                  diverge --race [--cores N] [--ms N] [--fault-seed N]"
                .to_string(),
        ),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dbgctl: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Boots the lightweight monitor on the machine `spec` describes, for the
/// subcommands that drive a concrete [`LvmmPlatform`]; `record` turns on
/// the flight recorder with a checkpoint every 100k cycles.
fn boot_lvmm(spec: &GuestSpec, record: bool) -> Result<LvmmPlatform, String> {
    let (machine, entry, _) = guest_machine(spec)?;
    let mut vmm = LvmmPlatform::new(machine, entry);
    if record {
        vmm.enable_flight_recorder(100_000);
    }
    Ok(vmm)
}

type LvmmDebugger = Debugger<UartLink<LvmmPlatform>>;

/// A debugger attached to `vmm`'s stub over the simulated UART.
fn debugger(vmm: LvmmPlatform) -> LvmmDebugger {
    Debugger::new(UartLink {
        platform: vmm,
        slice: 2_000,
    })
}

// ---------------------------------------------------------------- run ----

fn cmd_run(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        args.to_vec(),
        &["--platform", "--cores", "--workload", "--ms", "--journal"],
        &[],
        0,
    )?;
    let ms = f.num("--ms")?.unwrap_or(100);
    let journal_path = f.get("--journal");
    let spec = GuestSpec {
        record: false,
        ..GuestSpec::from_flags(&f)?
    };

    let mut platform = boot_guest(&spec, 0)?;
    if journal_path.is_some() {
        let cores = platform.machine().num_cores();
        platform
            .machine_mut()
            .obs
            .enable_journal(spec.platform.label(), cores);
    }
    let clock = platform.machine().config().clock_hz;
    let ran = platform.run_for(clock / 1_000 * ms);

    let m = platform.machine();
    let mut o = JsonObj::new();
    o.set("event", "run")
        .set("platform", platform.name())
        .set("ran_cycles", ran)
        .set("now", m.now())
        .hex("pc", m.cpu.pc() as u64)
        .set("instret", m.total_instret())
        .set("tx_frames", m.nic.counters().tx_frames);
    println!("{}", o.finish());

    if let Some(path) = journal_path {
        let now = m.now();
        let mut journal = m.obs.journal().cloned().expect("journal enabled above");
        journal.seal(now);
        std::fs::write(path, journal.save()).map_err(|e| format!("cannot write {path}: {e}"))?;
        let mut o = JsonObj::new();
        o.set("event", "journal")
            .set("path", path)
            .set("events", journal.events.len() as u64);
        println!("{}", o.finish());
    }
    Ok(())
}

// -------------------------------------------------------------- audit ----

fn load_journal(path: &str) -> Result<Journal, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Journal::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

fn cmd_audit(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("audit expects exactly two journal paths".into());
    };
    let a = load_journal(a_path)?;
    let b = load_journal(b_path)?;
    for s in audit(&a, &b) {
        let mut o = JsonObj::new();
        o.set("event", "stream")
            .set("name", &s.name)
            .set("len_a", s.len_a as u64)
            .set("len_b", s.len_b as u64)
            .set("clean", s.clean());
        o.set("divergence_index", s.divergence.map(|d| d.index as u64));
        println!("{}", o.finish());
    }
    let mut o = JsonObj::new();
    o.set("event", "first-divergence");
    match first_divergent_event(&a, &b) {
        Some(d) => {
            o.set("found", true)
                .set("stream", &d.stream)
                .set("index", d.index as u64);
            o.set("at_a", d.at_a).set("at_b", d.at_b);
        }
        None => {
            o.set("found", false);
        }
    }
    println!("{}", o.finish());
    Ok(())
}

// -------------------------------------------------------------- query ----

fn cmd_query(args: &[String]) -> Result<(), String> {
    let [path, text] = args else {
        return Err("query expects a journal path and a query string".into());
    };
    let j = load_journal(path)?;
    let q = JournalQuery::parse(text).ok_or(format!("bad query `{text}`"))?;
    println!("{}", q.run(&j).to_json());
    Ok(())
}

// ------------------------------------------------------------ session ----

fn stop_json(event: &str, stop: &StopReason) -> String {
    let mut o = JsonObj::new();
    o.set("event", event);
    let (reason, pc) = match *stop {
        StopReason::Halted { pc } => ("halted", pc),
        StopReason::Breakpoint { pc } => ("breakpoint", pc),
        StopReason::Step { pc } => ("step", pc),
        StopReason::Watchpoint { pc, addr } => {
            o.set("reason", "watchpoint").hex("pc", pc as u64);
            o.hex("addr", addr as u64);
            return o.finish();
        }
        StopReason::Fault { pc, cause } => {
            o.set("reason", "fault").hex("pc", pc as u64);
            o.set("cause", cause as u64);
            return o.finish();
        }
        StopReason::TimeTravel { pc, cycle } => {
            o.set("reason", "time-travel").hex("pc", pc as u64);
            o.set("cycle", cycle);
            return o.finish();
        }
    };
    o.set("reason", reason).hex("pc", pc as u64);
    o.finish()
}

fn dbg_json(cmd: &str, err: &DbgError) {
    let mut o = JsonObj::new();
    o.set("event", "error")
        .set("cmd", cmd)
        .set("error", &err.to_string());
    println!("{}", o.finish());
}

/// How `run MS` advances simulated time for a session; returns the guest's
/// new `now` cycle (local sessions drive the platform, remote ones reject).
type RunMs<'a, L> = &'a mut dyn FnMut(&mut Debugger<L>, u64) -> Result<u64, String>;

/// Runs one script line and prints its JSON line(s), skipping `#` comments
/// and blank lines. The script language, one command per line:
///
/// ```text
/// run MS                          let the guest run MS simulated ms (local only)
/// halt | step | resume
/// continue                        resume and wait for the next stop
/// reverse-step | reverse-continue
/// seek CYCLE
/// break 0xADDR [EXPR...]          breakpoint, optionally conditional
/// clear-break 0xADDR
/// watch 0xADDR LEN [w|r|rw] [EXPR...]
/// clear-watch 0xADDR
/// logpoint 0xADDR LABEL [EXPR...]
/// clear-logpoint 0xADDR
/// query EXPR...                   Qq: seek to first cycle EXPR holds
/// regs | mem 0xADDR LEN | stats | metrics | flow
/// ```
///
/// Generic over the [`rdbg::Link`] so the same script language drives both a
/// locally booted guest (`UartLink`) and a farm guest over TCP
/// (`lwvmm::farm::TcpLink`). `run_ms` is how `run MS` advances time: local
/// sessions drive the platform directly; remote guests run continuously in
/// the farm, so their `run_ms` rejects the command.
fn session_line<L: rdbg::Link>(
    dbg: &mut Debugger<L>,
    run_ms: RunMs<'_, L>,
    line: &str,
) -> Result<(), String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    if words.first().is_none_or(|w| w.starts_with('#')) {
        return Ok(());
    }
    let ok = |cmd: &str| {
        let mut o = JsonObj::new();
        o.set("event", "ok").set("cmd", cmd);
        println!("{}", o.finish());
    };
    // One closure per reply shape keeps every arm a one-liner below.
    let cmd = words[0];
    let stop = |r: Result<StopReason, DbgError>| match r {
        Ok(s) => println!("{}", stop_json("stop", &s)),
        Err(e) => dbg_json(cmd, &e),
    };
    let unit = |r: Result<(), DbgError>| match r {
        Ok(()) => ok(cmd),
        Err(e) => dbg_json(cmd, &e),
    };
    match words.as_slice() {
        ["run", ms] => {
            let ms = parse_num64(ms)?;
            let now = run_ms(dbg, ms)?;
            let mut o = JsonObj::new();
            o.set("event", "ran").set("ms", ms).set("now", now);
            println!("{}", o.finish());
        }
        ["halt"] => stop(dbg.halt()),
        ["step"] => stop(dbg.step()),
        ["resume"] => unit(dbg.resume()),
        ["continue"] => stop(dbg.continue_until_stop()),
        ["reverse-step"] => stop(dbg.reverse_step()),
        ["reverse-continue"] => stop(dbg.reverse_continue()),
        ["seek", cycle] => stop(dbg.seek(parse_num64(cycle)?)),
        ["break", addr] => unit(dbg.set_breakpoint(parse_hex32(addr)?)),
        ["break", addr, expr @ ..] => {
            let addr = parse_hex32(addr)?;
            unit(
                dbg.set_breakpoint(addr)
                    .and_then(|()| dbg.set_break_condition(addr, &expr.join(" "))),
            );
        }
        ["clear-break", addr] => unit(dbg.clear_breakpoint(parse_hex32(addr)?)),
        ["watch", addr, len, rest @ ..] => {
            let addr = parse_hex32(addr)?;
            let len = parse_num64(len)? as u32;
            let (kind, expr) = match rest {
                ["w", e @ ..] => (WatchKind::Write, e),
                ["r", e @ ..] => (WatchKind::Read, e),
                ["rw", e @ ..] => (WatchKind::Access, e),
                e => (WatchKind::Write, e),
            };
            let mut r = dbg.set_watchpoint_kind(addr, len, kind);
            if r.is_ok() && !expr.is_empty() {
                r = dbg.set_watch_condition(addr, &expr.join(" "));
            }
            unit(r);
        }
        ["clear-watch", addr] => unit(dbg.clear_watchpoint(parse_hex32(addr)?)),
        ["logpoint", addr, label, expr @ ..] => {
            unit(dbg.set_logpoint(parse_hex32(addr)?, label, &expr.join(" ")));
        }
        ["clear-logpoint", addr] => unit(dbg.clear_logpoint(parse_hex32(addr)?)),
        ["query", expr @ ..] if !expr.is_empty() => match dbg.query_first(&expr.join(" ")) {
            Ok(Some((cycle, s))) => {
                let mut o = JsonObj::new();
                o.set("event", "query-first")
                    .set("found", true)
                    .set("cycle", cycle);
                println!("{}", o.finish());
                println!("{}", stop_json("stop", &s));
            }
            Ok(None) => {
                let mut o = JsonObj::new();
                o.set("event", "query-first").set("found", false);
                println!("{}", o.finish());
            }
            Err(e) => dbg_json(cmd, &e),
        },
        ["regs"] => match dbg.read_registers() {
            Ok(r) => {
                let gprs: Vec<u64> = r.gprs.iter().map(|&v| v as u64).collect();
                let mut o = JsonObj::new();
                o.set("event", "regs").hex("pc", r.pc as u64);
                o.u64_list("gprs", &gprs);
                println!("{}", o.finish());
            }
            Err(e) => dbg_json(cmd, &e),
        },
        ["mem", addr, len] => {
            let addr = parse_hex32(addr)?;
            match dbg.read_memory(addr, parse_num64(len)? as u32) {
                Ok(bytes) => {
                    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
                    let mut o = JsonObj::new();
                    o.set("event", "mem").hex("addr", addr as u64);
                    o.set("len", bytes.len() as u64).set("bytes", &hex);
                    println!("{}", o.finish());
                }
                Err(e) => dbg_json(cmd, &e),
            }
        }
        ["metrics"] => match dbg.query_metrics() {
            Ok((now, att)) => println!("{}", metrics_json(now, &att)),
            Err(e) => dbg_json(cmd, &e),
        },
        // Every value in the flow summary is simulation-derived, so the
        // transcript stays byte-identical across reruns.
        ["flow"] => match dbg.query_flow() {
            Ok((now, summary)) => {
                let mut o = JsonObj::new();
                o.set("event", "flow").set("now", now);
                print_flow(o, &summary);
            }
            Err(e) => dbg_json(cmd, &e),
        },
        ["stats"] => match dbg.query_stats() {
            Ok(s) => {
                let mut o = JsonObj::new();
                o.set("event", "stats")
                    .set("now", s.now)
                    .set("guest", s.guest)
                    .set("monitor", s.monitor)
                    .set("idle", s.idle);
                o.u64_list("exits", &s.exits);
                o.u64_list("faults", &s.faults)
                    .set("blocked", s.fault_blocked);
                // SMP keys appear only on multi-core targets so single-core
                // session transcripts stay byte-identical to the golden.
                if s.cores > 1 {
                    o.set("cores", s.cores);
                    o.u64_list("core_instret", &s.core_instret);
                    o.u64_list("core_exits", &s.core_exits);
                }
                println!("{}", o.finish());
            }
            Err(e) => dbg_json(cmd, &e),
        },
        other => return Err(format!("bad session command `{}`", other.join(" "))),
    }
    Ok(())
}

fn cmd_session(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args.to_vec(), &["--cores", "--connect"], &[], 1)?;
    let spec = GuestSpec {
        // Host-time attribution for the `metrics` script command; simulation-
        // invisible, so the session transcript stays deterministic.
        hostprof: true,
        // Causal flows for the `flow` script command. Observation-only: it
        // adds recorded events, never perturbs the simulated run.
        causal: true,
        ..GuestSpec::from_flags(&f)?
    };
    let script = match f.positional.first() {
        None => {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            s
        }
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
    };

    if let Some(addr) = f.get("--connect") {
        // Remote session: attach to a guest an `lwvmm-farm` process is
        // already serving. The farm owns the simulation, so `run MS` is
        // rejected — everything else in the script language works as-is.
        let link = lwvmm::farm::TcpLink::connect(addr)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let mut dbg = Debugger::new(link);
        let mut o = JsonObj::new();
        o.set("event", "session")
            .set("platform", "remote")
            .set("target", addr);
        println!("{}", o.finish());
        let mut run_ms = |_: &mut Debugger<lwvmm::farm::TcpLink>, _: u64| {
            Err("`run` is local-only: farm guests run continuously (use `continue`)".to_string())
        };
        for line in script.lines() {
            session_line(&mut dbg, &mut run_ms, line)?;
        }
        return Ok(());
    }

    let mut dbg = debugger(boot_lvmm(&spec, true)?);
    let clock = dbg.link_ref().platform.machine().config().clock_hz;
    let mut o = JsonObj::new();
    o.set("event", "session")
        .set("platform", "lvmm")
        .set("clock_hz", clock);
    println!("{}", o.finish());

    let mut run_ms = |dbg: &mut LvmmDebugger, ms: u64| {
        dbg.link_mut().platform.run_for(clock / 1_000 * ms);
        Ok(dbg.link_ref().platform.machine().now())
    };
    for line in script.lines() {
        session_line(&mut dbg, &mut run_ms, line)?;
    }
    Ok(())
}

// ------------------------------------------------------------ metrics ----

/// Renders a host-time metrics sample as one JSON line. The *values* are
/// host-clock-derived and vary run to run; the *schema* — key set and key
/// order (the canonical `HostPhase::ALL` order) — is fixed, so scripts can
/// parse any run's output the same way.
fn metrics_json(now: u64, att: &HostAttribution) -> String {
    let mut o = JsonObj::new();
    o.set("event", "metrics")
        .set("now", now)
        .set("wall_ns", att.wall_ns)
        .set("marks", att.marks)
        .set("attributed_ns", att.attributed_ns());
    for (label, ns) in att.phases() {
        o.set(&label, ns);
    }
    o.finish()
}

/// `dbgctl metrics` — boot the lightweight monitor with the host profiler
/// on, run the streaming workload, and report where the monitor's own
/// wall-clock went, sampled live over the debug wire (`qMetrics`).
fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args.to_vec(), &["--ms", "--workload", "--cores"], &[], 0)?;
    let ms = f.num("--ms")?.unwrap_or(50);
    let spec = GuestSpec {
        hostprof: true,
        ..GuestSpec::from_flags(&f)?
    };
    let mut dbg = debugger(boot_lvmm(&spec, false)?);
    let clock = dbg.link_ref().platform.machine().config().clock_hz;
    dbg.link_mut().platform.run_for(clock / 1_000 * ms);
    let (now, att) = dbg.query_metrics().map_err(|e| format!("qMetrics: {e}"))?;
    println!("{}", metrics_json(now, &att));
    // Per-core work grouped under the host-time report, mirroring the
    // `core="N"`-labeled Prometheus series the platforms publish. The wire
    // carries the per-core vectors only for multi-core targets (single-core
    // samples stay byte-identical to the pre-SMP encoding), so a 1-core run
    // prints no per-core lines rather than inventing zeros.
    let stats = dbg.query_stats().map_err(|e| format!("qStats: {e}"))?;
    for core in 0..stats.core_instret.len() {
        let mut o = JsonObj::new();
        o.set("event", "core-metrics")
            .set("core", core as u64)
            .set("instret", stats.core_instret[core])
            .set("exits", stats.core_exits.get(core).copied().unwrap_or(0));
        println!("{}", o.finish());
    }
    Ok(())
}

// --------------------------------------------------------------- flow ----

/// Prints a causal-flow summary: `head` completed with the counters, then
/// one `flow-class` line per class that completed a flow, in
/// `FlowClass::ALL` order. `session`'s `flow` and `dbgctl flow` both print
/// through here.
fn print_flow(mut head: JsonObj, s: &FlowSummary) {
    head.set("completed", s.completed)
        .set("dropped", s.dropped)
        .set("orphan_ends", s.orphan_ends)
        .set("instants", s.instants);
    println!("{}", head.finish());
    for (class, &(n, p50, p99, max)) in FlowClass::ALL.iter().zip(&s.classes) {
        if n == 0 {
            continue;
        }
        let mut o = JsonObj::new();
        o.set("event", "flow-class")
            .set("class", class.label())
            .set("n", n)
            .set("p50", p50)
            .set("p99", p99)
            .set("max", max);
        println!("{}", o.finish());
    }
}

/// `dbgctl flow` — boot the lightweight monitor with causal tracing and the
/// flight recorder on, run the streaming workload, and print the causal
/// chain that leads to a given cycle (default: the end of the run): the
/// flow completing most recently at or before it, then each upstream flow
/// whose completion triggered it. With `--seek`, park the time-travel
/// debugger at the chain head's completion cycle and dump registers —
/// "show me the state at the end of the causal story".
fn cmd_flow(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        args.to_vec(),
        &["--cycle", "--ms", "--workload", "--cores"],
        &["--seek"],
        0,
    )?;
    let ms = f.num("--ms")?.unwrap_or(50);
    let spec = GuestSpec {
        causal: true,
        ..GuestSpec::from_flags(&f)?
    };
    let mut vmm = boot_lvmm(&spec, true)?;
    let clock = vmm.machine().config().clock_hz;
    vmm.run_for(clock / 1_000 * ms);

    let now = vmm.machine().now();
    let cycle = f.num("--cycle")?.unwrap_or(now);

    let c = vmm.machine().obs.causal().expect("causal enabled above");
    let mut o = JsonObj::new();
    o.set("event", "flow-summary")
        .set("now", now)
        .set("cycle", cycle);
    print_flow(o, &c.summary());

    let Some(head) = c.flow_ending_by(cycle) else {
        let mut o = JsonObj::new();
        o.set("event", "flow-chain").set("found", false);
        println!("{}", o.finish());
        return Ok(());
    };
    // Own the chain before the platform moves into the debugger below.
    let chain = c.chain_to(head);
    let mut o = JsonObj::new();
    o.set("event", "flow-chain")
        .set("found", true)
        .set("len", chain.len() as u64);
    println!("{}", o.finish());
    // `chain_to` returns oldest cause first, so the chain reads as a story
    // ending at `cycle`.
    for (depth, f) in chain.iter().enumerate() {
        let mut o = JsonObj::new();
        o.set("event", "flow")
            .set("depth", depth as u64)
            .set("class", f.class.label())
            .set("key", f.key as u64)
            .set("begin", f.begin)
            .set("end", f.end)
            .set("latency", f.latency())
            .set("begin_core", f.begin_core as u64)
            .set("end_core", f.end_core as u64);
        println!("{}", o.finish());
    }

    if f.has("--seek") {
        // Ride the existing time-travel machinery: halt, seek the replay to
        // the chain's final completion, and dump state there.
        let target = chain.last().expect("chain is never empty").end;
        let mut dbg = debugger(vmm);
        dbg.halt().map_err(|e| format!("halt: {e}"))?;
        let stop = dbg
            .seek(target)
            .map_err(|e| format!("seek {target}: {e}"))?;
        println!("{}", stop_json("seek", &stop));
        let regs = dbg.read_registers().map_err(|e| format!("regs: {e}"))?;
        let gprs: Vec<u64> = regs.gprs.iter().map(|&v| v as u64).collect();
        let mut o = JsonObj::new();
        o.set("event", "state")
            .set("cycle", target)
            .hex("pc", regs.pc as u64);
        o.u64_list("gprs", &gprs);
        println!("{}", o.finish());
    }
    Ok(())
}

// ------------------------------------------------------------ diverge ----

/// Known guest data symbols (the workload kernel's stats block plus its
/// globals page); a bare hex address works for anything else.
fn resolve_symbol(name: &str) -> Option<u32> {
    Some(match name {
        "bytes" => layout::STATS,
        "frames" => layout::STATS + 8,
        "ticks" => layout::STATS + 12,
        "underruns" => layout::STATS + 16,
        "glob" => layout::GLOB,
        hex => return parse_hex32(hex).ok(),
    })
}

/// Reads the 32-bit little-endian word at physical `addr`.
fn read_word(m: &mut Machine, addr: u32) -> u32 {
    let mut v = 0u32;
    for i in 0..4 {
        let b = m.bus_read(addr + i, lwvmm::cpu::MemSize::Byte).unwrap_or(0);
        v |= b << (8 * i);
    }
    v
}

fn cmd_diverge(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--race") {
        return cmd_diverge_race(args);
    }
    let f = Flags::parse(args.to_vec(), &["--symbol", "--ms"], &[], 0)?;
    let symbol = f.get("--symbol").unwrap_or("frames");
    let ms = f.num("--ms")?.unwrap_or(60);
    let addr = resolve_symbol(symbol).ok_or(format!(
        "unknown symbol `{symbol}` (bytes|frames|ticks|underruns|glob|0xADDR)"
    ))?;

    let spec = GuestSpec::default();
    let (machine, entry, _) = guest_machine(&spec)?;
    let clock = machine.config().clock_hz;
    let interval = clock / 10_000; // sample every 100 simulated µs
    let steps = ms * clock / 1_000 / interval;

    // Trajectory of the symbol's word under each monitor, sampled on the
    // same simulated-time grid.
    let sample = |platform: &mut dyn Platform| -> Vec<(u64, u32)> {
        (0..steps)
            .map(|_| {
                platform.run_for(interval);
                let m = platform.machine_mut();
                (m.now(), read_word(m, addr))
            })
            .collect()
    };
    let hosted_track = sample(PlatformKind::Hosted.boot(machine, entry, None).as_mut());
    let mut vmm = boot_lvmm(&spec, true)?;
    let lvmm_track = sample(&mut vmm);

    let mut o = JsonObj::new();
    o.set("event", "samples")
        .set("symbol", symbol)
        .hex("addr", addr as u64)
        .set("interval", interval)
        .set("count", steps);
    println!("{}", o.finish());

    // First sample index where the two runs disagree on the value.
    let Some(i) = (0..steps as usize).find(|&i| hosted_track[i].1 != lvmm_track[i].1) else {
        let mut o = JsonObj::new();
        o.set("event", "diverge").set("found", false);
        println!("{}", o.finish());
        return Ok(());
    };
    let (prev_cycle, prev_val) = if i == 0 { (0, 0) } else { lvmm_track[i - 1] };
    let mut o = JsonObj::new();
    o.set("event", "first-differing-sample")
        .set("index", i as u64)
        .set("hosted_value", hosted_track[i].1 as u64)
        .set("lvmm_value", lvmm_track[i].1 as u64)
        .set("agreed_value", prev_val as u64)
        .set("agreed_cycle", prev_cycle);
    println!("{}", o.finish());

    // Refine on the lvmm timeline: the first recorded cycle after the last
    // agreement at which the symbol no longer holds the agreed value.
    let expr = format!("cycle > {prev_cycle} && [0x{addr:x}] != {prev_val}");
    let Some((mut dbg, cycle)) = refine_and_park(vmm, &expr)? else {
        return Ok(());
    };

    // Parked at the divergence: dump state, then prove single-stepping
    // works from here.
    let regs = dbg.read_registers().map_err(|e| format!("regs: {e}"))?;
    let gprs: Vec<u64> = regs.gprs.iter().map(|&v| v as u64).collect();
    let mut o = JsonObj::new();
    // `cycle` is the parked replay position; the machine's own clock keeps
    // ticking while the stub services the wire, so `now()` would mislead.
    o.set("event", "state")
        .set("cycle", cycle)
        .hex("pc", regs.pc as u64)
        .set(
            "value",
            read_word(dbg.link_mut().platform.machine_mut(), addr) as u64,
        );
    o.u64_list("gprs", &gprs);
    println!("{}", o.finish());
    let stepped = dbg.step().map_err(|e| format!("step: {e}"))?;
    println!("{}", stop_json("step", &stepped));
    Ok(())
}

/// The tail both `diverge` modes share: halt the recorded guest, seek its
/// replay to the first cycle `expr` holds, and print the `diverge` and
/// `seek` events. Returns the debugger parked there and the cycle, or
/// `None` (having printed `"found":false`) when `expr` never holds.
fn refine_and_park(vmm: LvmmPlatform, expr: &str) -> Result<Option<(LvmmDebugger, u64)>, String> {
    let mut dbg = debugger(vmm);
    dbg.halt().map_err(|e| format!("halt: {e}"))?;
    let hit = dbg
        .query_first(expr)
        .map_err(|e| format!("query `{expr}`: {e}"))?;
    let mut o = JsonObj::new();
    o.set("event", "diverge").set("expr", expr);
    let Some((cycle, stop)) = hit else {
        o.set("found", false);
        println!("{}", o.finish());
        return Ok(None);
    };
    o.set("found", true).set("cycle", cycle);
    println!("{}", o.finish());
    println!("{}", stop_json("seek", &stop));
    Ok(Some((dbg, cycle)))
}

/// `dbgctl diverge --race` — the cross-core race demo. Boots the two-core
/// racy-counter guest under the lightweight monitor with the
/// `racy-increment` fault class armed, samples the shared counter against
/// the per-core tallies on a fixed simulated-time grid, and then seeks the
/// flight recording to the exact cycle the invariant
/// `counter >= tally0 + tally1` first breaks — the first lost update,
/// whether a quantum switch split a read-modify-write or the fault
/// injector replayed a stale value.
fn cmd_diverge_race(args: &[String]) -> Result<(), String> {
    use apps::smp_layout::{COUNTER, TALLY};
    let f = Flags::parse(
        args.to_vec(),
        &["--cores", "--ms", "--fault-seed"],
        &["--race"],
        0,
    )?;
    let ms = f.num("--ms")?.unwrap_or(40);
    let seed = f.num("--fault-seed")?.unwrap_or(42);
    let spec = GuestSpec {
        cores: f.num("--cores")?.unwrap_or(2),
        image: Some(apps::racy_counter_guest()),
        ..GuestSpec::default()
    };
    if spec.cores < 2 {
        return Err("--race needs --cores of at least 2".into());
    }
    let cores = spec.cores;

    let (mut machine, entry, _) = guest_machine(&spec)?;
    // The plan races on the shared counter, which no `--fault` class
    // expresses, so it is armed here rather than through the spec.
    machine.enable_fault_injection(
        FaultPlan::new(seed)
            .only(FaultKind::RacyIncrement)
            .race(COUNTER)
            .period(200_000),
    );
    let clock = machine.config().clock_hz;
    let mut vmm = LvmmPlatform::new(machine, entry);
    vmm.enable_flight_recorder(100_000);

    let interval = clock / 10_000; // sample every 100 simulated µs
    let steps = ms * clock / 1_000 / interval;
    let mut track = Vec::new();
    for _ in 0..steps {
        vmm.run_for(interval);
        let m = vmm.machine_mut();
        let counter = read_word(m, COUNTER);
        let sum = read_word(m, TALLY) + read_word(m, TALLY + 4);
        track.push((m.now(), counter, sum));
    }
    let mut o = JsonObj::new();
    o.set("event", "samples")
        .set("invariant", "counter >= tally0 + tally1")
        .hex("addr", COUNTER as u64)
        .set("cores", cores as u64)
        .set("interval", interval)
        .set("count", steps);
    println!("{}", o.finish());

    // First sample where the shared counter has fallen behind the work the
    // cores actually performed — some increments are gone.
    let Some(i) = track.iter().position(|&(_, counter, sum)| counter < sum) else {
        let mut o = JsonObj::new();
        o.set("event", "diverge").set("found", false);
        println!("{}", o.finish());
        return Ok(());
    };
    let prev_cycle = if i == 0 { 0 } else { track[i - 1].0 };
    let mut o = JsonObj::new();
    o.set("event", "first-lost-update-sample")
        .set("index", i as u64)
        .set("counter", track[i].1 as u64)
        .set("expected", track[i].2 as u64)
        .set("agreed_cycle", prev_cycle);
    println!("{}", o.finish());

    // Refine on the recording: the first cycle after the last healthy
    // sample at which the invariant no longer holds.
    let expr = format!(
        "cycle > {prev_cycle} && [{COUNTER:#x}] < [{TALLY:#x}] + [{t1:#x}]",
        t1 = TALLY + 4
    );
    let Some((mut dbg, cycle)) = refine_and_park(vmm, &expr)? else {
        return Ok(());
    };

    // Parked at the first lost update: name the core that was running and
    // dump its view of the evidence.
    let core = dbg.last_stop_core();
    dbg.set_thread(core as u32)
        .map_err(|e| format!("Hg{core}: {e}"))?;
    let regs = dbg.read_registers().map_err(|e| format!("regs: {e}"))?;
    let m = dbg.link_mut().platform.machine_mut();
    let counter = read_word(m, COUNTER) as u64;
    let tallies: Vec<u64> = (0..2).map(|i| read_word(m, TALLY + 4 * i) as u64).collect();
    let mut o = JsonObj::new();
    o.set("event", "state")
        .set("cycle", cycle)
        .set("core", core as u64)
        .hex("pc", regs.pc as u64)
        .set("counter", counter)
        .u64_list("tallies", &tallies);
    println!("{}", o.finish());
    Ok(())
}
