//! The farm leg: whole debug sessions over TCP against an in-process farm.
//!
//! A `Farm` with 2 workers serves 4 default guests (lvmm, flight recorder
//! on, 100 Mbit/s) to a fixed horizon — what `lwvmm-farm --guests 4`
//! boots. Once the fleet settles, one closed-loop client runs complete
//! `ci/farm_session.dbg` sessions (connect, halt, regs, break, clear-break,
//! mem, stats, resume, disconnect) against guests picked in a seeded order
//! that often returns to the guest it just left, the way
//! `dbgctl session --connect` is used. The farm is then shut down and
//! every guest's sealed journal is compared with a standalone boot.
//!
//! Rounds of launch, sessions and shutdown repeat until the budget is
//! spent; each round's launch-to-settled time is a set-up sample.
//!
//! A client that reconnects to the guest it just left is often dropped by
//! the farm before the farm has seen the previous session end. Such a
//! refused session is retried and counted in `hx-farm.refused_sessions`;
//! only a session that still fails after retries is a failed operation.

use crate::metrics::Out;
use crate::stats::{self, Rng};
use crate::{Budget, Ctx};
use hitactix::kernel::layout;
use hitactix::Workload;
use hx_farm::{control_request, Farm, FarmConfig, GuestHealth, GuestSpec, TcpLink};
use hx_machine::timing::DEFAULT_CLOCK_HZ;
use hx_machine::{Machine, MachineConfig, Platform};
use lvmm::LvmmPlatform;
use rdbg::{DbgError, Debugger};
use std::time::{Duration, Instant};

const GUESTS: usize = 4;
const WORKERS: usize = 2;
/// Simulated horizon per guest, 40 ms.
const HORIZON: u64 = DEFAULT_CLOCK_HZ / 1_000 * 40;
const SESSIONS_PER_ROUND: usize = 14;
/// Chance (in 1/100) that the next session returns to the same guest.
const BACK_TO_BACK_PCT: u64 = 35;
/// Attempts per session before it counts as failed.
const ATTEMPTS: usize = 3;
/// Rounds the leg runs at least (three set-up samples for `setup_s`).
const MIN_ROUNDS: usize = 3;

#[derive(Default)]
struct Samples {
    session_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    halt_ms: Vec<f64>,
    cmd_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    refused: u64,
}

/// The standalone recipe a farm guest must match byte for byte; also the
/// single-guest speed the fleet is compared against.
fn standalone(ctx: &mut Ctx) -> (String, f64) {
    ctx.spans.time("setup.farm.standalone", |_| {
        let t = Instant::now();
        let mut machine = Machine::new(MachineConfig::default());
        let program = Workload::new(GuestSpec::default().rate_mbps)
            .build(&machine)
            .expect("kernel assembles");
        machine.load_program(&program);
        let mut vmm = LvmmPlatform::new(machine, layout::ENTRY);
        vmm.enable_flight_recorder(FarmConfig::default().record_every);
        vmm.run_for(HORIZON);
        let mips = vmm.machine().total_instret() as f64 / t.elapsed().as_secs_f64() / 1e6;
        let now = vmm.machine().now();
        let obs = &mut vmm.machine_mut().obs;
        obs.journal_mut().expect("recorder on").seal(now);
        (obs.journal().expect("recorder on").save(), mips)
    })
}

/// Per-guest accepted-session counts from the control socket's `status`.
fn sessions_by_guest(control: u16) -> Vec<u64> {
    let status = control_request(control, "status").unwrap_or_default();
    status
        .split("\"sessions\":")
        .skip(1)
        .map(|s| {
            let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
            s[..end].parse().unwrap_or(0)
        })
        .collect()
}

enum SessionEnd {
    Done,
    /// The farm dropped the connection before the session started.
    Refused,
    Failed(String),
}

/// One whole session; pushes its step timings only when it completes.
fn session(ctx: &mut Ctx, port: u16, s: &mut Samples) -> SessionEnd {
    fn ms(t: Instant) -> f64 {
        t.elapsed().as_secs_f64() * 1e3
    }
    ctx.spans.open("rdbg.session");
    let t0 = Instant::now();
    let r = (|| -> Result<[f64; 4], (bool, String)> {
        let t = Instant::now();
        let link = ctx
            .spans
            .time("hx-farm.connect", |_| {
                TcpLink::connect(&format!("127.0.0.1:{port}"))
            })
            .map_err(|e| (false, e.to_string()))?;
        let connect = ms(t);
        let mut dbg = Debugger::new(link);
        let t = Instant::now();
        ctx.spans
            .time("rdbg.halt", |_| dbg.halt())
            .map_err(|e| (e == DbgError::Timeout, e.to_string()))?;
        let halt = ms(t);
        let t = Instant::now();
        let mut step = |f: &mut dyn FnMut(&mut Debugger<TcpLink>) -> Result<(), DbgError>| {
            ctx.spans
                .time("rdbg.cmd", |_| f(&mut dbg))
                .map_err(|e| (false, e.to_string()))
        };
        step(&mut |d| d.read_registers().map(drop))?;
        step(&mut |d| d.set_breakpoint(layout::ENTRY))?;
        step(&mut |d| d.clear_breakpoint(layout::ENTRY))?;
        step(&mut |d| {
            d.read_memory(layout::ENTRY, 16).and_then(|m| {
                if m.len() == 16 {
                    Ok(())
                } else {
                    Err(DbgError::Protocol(format!(
                        "mem returned {} bytes",
                        m.len()
                    )))
                }
            })
        })?;
        step(&mut |d| d.query_stats().map(drop))?;
        let cmds = ms(t) / 5.0;
        let t = Instant::now();
        ctx.spans
            .time("rdbg.resume", |_| dbg.resume())
            .map_err(|e| (false, e.to_string()))?;
        Ok([connect, halt, cmds, ms(t)])
    })();
    let total = ms(t0);
    ctx.spans.close();
    match r {
        Ok([connect, halt, cmds, resume]) => {
            s.session_ms.push(total);
            s.connect_ms.push(connect);
            s.halt_ms.push(halt);
            s.cmd_ms.push(cmds);
            s.resume_ms.push(resume);
            SessionEnd::Done
        }
        Err((true, _)) => SessionEnd::Refused,
        Err((false, e)) => SessionEnd::Failed(e),
    }
}

/// One launch → settle → sessions → shutdown round. Returns the set-up
/// seconds, fleet speed and resident memory per guest.
fn round(
    ctx: &mut Ctx,
    out: &mut Out,
    rng: &mut Rng,
    expected_journal: &str,
    s: &mut Samples,
) -> (f64, f64, f64) {
    let rss0 = stats::rss_mib();
    let spec = GuestSpec {
        hostprof: ctx.traced,
        ..GuestSpec::default()
    };
    let t = Instant::now();
    let farm = ctx.spans.time("hx-farm.launch", |_| {
        Farm::launch(FarmConfig {
            guests: vec![spec; GUESTS],
            workers: WORKERS,
            horizon: Some(HORIZON),
            ..FarmConfig::default()
        })
    });
    let farm = match farm {
        Ok(f) => f,
        Err(e) => {
            out.ops(1, 1);
            out.check(&format!("farm: launch failed: {e}"), false);
            return (0.0, 0.0, 0.0);
        }
    };
    let settled = ctx.spans.time("hx-farm.settle", |_| {
        farm.wait_settled(Duration::from_secs(120))
    });
    let setup = t.elapsed().as_secs_f64();
    out.ops(1, u64::from(!settled));
    out.check("farm: the fleet settles at the horizon", settled);
    let instret: u64 = (0..GUESTS)
        .filter_map(|g| farm.with_guest(g, |p| p.machine().total_instret()))
        .sum();
    let rss_per_guest = (stats::rss_mib() - rss0) / GUESTS as f64;

    let ports = farm.ports().to_vec();
    let mut accepted = [0u64; GUESTS];
    let mut guest = rng.below(GUESTS as u64) as usize;
    for _ in 0..SESSIONS_PER_ROUND {
        if rng.below(100) >= BACK_TO_BACK_PCT {
            guest = (guest + 1 + rng.below(GUESTS as u64 - 1) as usize) % GUESTS;
        }
        let mut end = SessionEnd::Failed("no attempt".into());
        for _ in 0..ATTEMPTS {
            end = session(ctx, ports[guest], s);
            if let SessionEnd::Refused = end {
                // A refusal leaves the farm's session count unchanged;
                // anything else that timed out is a real failure.
                if sessions_by_guest(farm.control_port()).get(guest) == Some(&accepted[guest]) {
                    s.refused += 1;
                    continue;
                }
                end = SessionEnd::Failed("halt timed out".into());
            }
            break;
        }
        accepted[guest] = sessions_by_guest(farm.control_port())
            .get(guest)
            .copied()
            .unwrap_or(accepted[guest]);
        out.ops(1, u64::from(!matches!(end, SessionEnd::Done)));
        match end {
            SessionEnd::Done => {}
            SessionEnd::Refused => out.check("farm: session refused on every attempt", false),
            SessionEnd::Failed(e) => out.check(&format!("farm: session failed: {e}"), false),
        }
    }

    let clocks: Vec<u64> = (0..GUESTS)
        .filter_map(|g| farm.with_guest(g, |p| p.machine().now()))
        .collect();
    println!(
        "  round: settled in {setup:.3} s, guest clocks after sessions {clocks:?}, resident {:.1} MiB",
        stats::rss_mib()
    );
    let reports = ctx.spans.time("hx-farm.shutdown", |_| farm.shutdown());
    for r in &reports {
        out.check(
            &format!("farm: guest {} reached the horizon", r.id),
            r.health == GuestHealth::Done,
        );
        out.check(
            &format!(
                "farm: guest {} journal is byte-identical to a standalone boot",
                r.id
            ),
            r.journal.as_deref() == Some(expected_journal),
        );
    }
    (setup, instret as f64 / 1e6 / setup, rss_per_guest)
}

pub fn run(ctx: &mut Ctx, budget: Budget, out: &mut Out) -> Vec<f64> {
    let (journal, standalone_mips) = standalone(ctx);
    let mut rng = Rng::new(ctx.seed ^ 0xfa_0003);
    let mut s = Samples::default();
    let mut setups = Vec::new();
    let mut fleet = Vec::new();
    let mut rss = Vec::new();
    let deadline = Instant::now() + budget.measure;
    while setups.len() < MIN_ROUNDS || Instant::now() < deadline {
        let (setup, mips, per_guest) = round(ctx, out, &mut rng, &journal, &mut s);
        setups.push(setup);
        fleet.push(mips);
        rss.push(per_guest);
    }
    let fleet_mips = stats::median(&fleet).unwrap_or(0.0);
    out.e2e("fleet_mips", "Minstr/s", fleet_mips);
    out.e2e_series("session_ms", "ms", &s.session_ms);
    let attempts = s.session_ms.len() as u64 + s.refused;
    println!(
        "  {} rounds; {} of {attempts} session attempts refused on reconnect (retried, not failed)",
        setups.len(),
        s.refused
    );
    if ctx.traced {
        println!("  farm layers are split from the benchmark's own spans only: a worker's host-profiler marks cannot see slice waits");
        let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
        out.layer("hx-farm.connect_ms", med(&s.connect_ms));
        out.layer("hx-farm.halt_ms", med(&s.halt_ms));
        out.layer("hx-farm.cmd_ms", med(&s.cmd_ms));
        out.layer("hx-farm.resume_ms", med(&s.resume_ms));
        out.layer(
            "hx-farm.fleet_efficiency",
            fleet_mips / (GUESTS.min(WORKERS) as f64 * standalone_mips),
        );
        out.layer("hx-farm.rss_mb_per_guest", med(&rss));
        out.layer("hx-farm.refused_sessions", s.refused as f64);
    }
    setups
}
