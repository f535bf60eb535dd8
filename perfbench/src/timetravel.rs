//! The time-travel leg: seeks and stub commands on a recorded lvmm guest.
//!
//! One lvmm guest streams at 100 Mbit/s with the flight recorder at its
//! default 2M-cycle cadence and records a fixed 40 ms window; one
//! closed-loop debugger then halts it and works through a sweep. A sweep
//! seeks to a seeded random cycle in each eighth of the window, latest
//! first, so every seek restores a checkpoint of the recording and
//! re-executes history; after each seek it runs the stub command mix of
//! `ci/farm_session.dbg` (regs, break/clear, mem, stats), and now and then
//! seeks to the same cycle again to check the registers read back
//! identically. Each sweep starts from a fresh recording, so every
//! recording is the same simulated work and is timed as `record_mips`.
//!
//! A seek over `UartLink` costs more than the restore and re-execution:
//! the link's `run_for` slice was aimed before the seek rewound the clock,
//! so the pump then runs the stopped guest back up to the pre-seek cycle,
//! capturing checkpoints on the way. `seek_ms` measures all of it, as a
//! `dbgctl` user sees it.

use crate::metrics::{phase_per, Out};
use crate::stats::{self, Rng};
use crate::{Budget, Ctx};
use hitactix::kernel::layout;
use hitactix::Workload;
use hx_machine::{Machine, MachineConfig, Platform};
use hx_obs::{ExitCause, HostAttribution, HostPhase};
use lvmm::{LvmmPlatform, UartLink};
use rdbg::{DbgError, Debugger, Registers, StopReason};
use std::time::Instant;

const RATE_MBPS: u64 = 100;
/// Checkpoint cadence: `CheckpointStore::DEFAULT_EVERY`.
const EVERY: u64 = 2_000_000;
/// The recorded window, 40 simulated milliseconds.
const WINDOW: u64 = 6_000_000;
/// Seek targets per sweep, one per stratum of the window.
const SWEEP: usize = 8;
/// Chance (1 in N) that a seek is followed by a revisit of its cycle.
const REVISIT_ONE_IN: u64 = 3;
/// Simulated cycles the UART link runs per debugger pump (as `dbgctl`).
const SLICE: u64 = 2_000;
const LEAD_SETUPS: usize = 5;
/// Seeks the leg makes at least, so `seek_ms.tail` is p75 ...
const MIN_SEEKS: usize = 40;
/// ... and at most, so it stays p75 on faster hosts.
const MAX_SEEKS: usize = 99;

type Dbg = Debugger<UartLink<LvmmPlatform>>;

fn vmm(dbg: &Dbg) -> &LvmmPlatform {
    &dbg.link_ref().platform
}

/// Closes the host profiler's current window (the benchmark's own time
/// goes to `other`) and snapshots it.
fn attribution(p: &LvmmPlatform) -> Option<HostAttribution> {
    p.machine().obs.host_mark(HostPhase::Other);
    p.machine().obs.host_attribution()
}

/// Everything the leg accumulates across recordings and sweeps.
#[derive(Default)]
struct Acc {
    /// Per seek: cycles re-executed from the restored checkpoint, cycles
    /// the link then re-ran back up to the pre-seek clock, host ms.
    seeks: Vec<(f64, f64, f64)>,
    rtt_us: Vec<f64>,
    record_mips: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    /// Host ns of the `journal` phase per checkpoint captured while
    /// recording.
    journal_ns: Vec<f64>,
    /// Over stub command mixes only: no seek runs inside a mix, so the
    /// monitor's counters are not rewound under the measurement.
    commands: u64,
    bytes: u64,
    debug_exits: u64,
    debug_exit_ns: f64,
    link_ns: f64,
    coverage: Vec<f64>,
    /// Per recording: checkpoints held, shadow fills, journal inputs.
    checkpoints: u64,
    shadow_fills: u64,
    journal_inputs: u64,
}

struct Leg<'a> {
    ctx: &'a mut Ctx,
    out: &'a mut Out,
    acc: Acc,
}

impl Leg<'_> {
    /// Boots, records the window and halts: the leg's set-up, and the
    /// start of every sweep.
    fn record(&mut self) -> Dbg {
        self.ctx.spans.open("setup.timetravel");
        let mut machine = Machine::new(MachineConfig::default());
        let program = Workload::new(RATE_MBPS)
            .build(&machine)
            .expect("kernel assembles");
        machine.load_program(&program);
        let mut vmm = LvmmPlatform::new(machine, layout::ENTRY);
        if self.ctx.traced {
            vmm.machine_mut().obs.enable_hostprof();
        }
        let t = Instant::now();
        self.ctx.spans.time("hx-obs.enable_flight_recorder", |_| {
            vmm.enable_flight_recorder(EVERY)
        });
        self.acc.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let a0 = attribution(&vmm);
        let cp0 = vmm.checkpoint_count();
        let t = Instant::now();
        let ran = self.ctx.spans.time("lvmm.record", |_| vmm.run_for(WINDOW));
        let secs = t.elapsed().as_secs_f64();
        self.out.ops(1, u64::from(ran < WINDOW));
        self.acc
            .record_mips
            .push(vmm.machine().total_instret() as f64 / secs.max(1e-9) / 1e6);
        let captured = vmm.checkpoint_count() - cp0;
        if let (Some(a0), Some(a1)) = (a0, attribution(&vmm)) {
            self.acc.journal_ns.push(phase_per(
                &a0,
                &a1,
                HostPhase::Journal,
                captured.max(1) as f64,
            ));
        }
        self.acc.checkpoints = vmm.checkpoint_count() as u64;
        self.acc.shadow_fills = vmm.shadow_stats().fills;
        let mut dbg = Debugger::new(UartLink {
            platform: vmm,
            slice: SLICE,
        });
        let halted = self.ctx.spans.time("rdbg.halt", |_| dbg.halt());
        self.out.ops(1, u64::from(halted.is_err()));
        self.out.check(
            "timetravel: the recorded guest halts",
            matches!(halted, Ok(StopReason::Halted { .. })),
        );
        self.ctx.spans.close();
        dbg
    }

    /// Final bookkeeping for a recording about to be dropped.
    fn retire(&mut self, dbg: Dbg) {
        let p = vmm(&dbg);
        self.acc.journal_inputs = p
            .machine()
            .obs
            .journal()
            .map_or(0, |j| j.inputs.len() as u64);
        if let Some(a) = attribution(p) {
            self.acc.coverage.push(a.coverage() * 100.0);
        }
    }

    /// One timed seek; returns the landing cycle and PC.
    fn seek(&mut self, dbg: &mut Dbg, target: u64) -> Option<(u64, u32)> {
        let now = vmm(dbg).machine().now();
        let from = if target < now {
            target / EVERY * EVERY
        } else {
            now
        };
        self.ctx.spans.open("rdbg.seek");
        let t = Instant::now();
        let stop = dbg.seek(target);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.ctx.spans.close();
        let landed = match stop {
            Ok(StopReason::TimeTravel { pc, cycle }) if cycle >= target => Some((cycle, pc)),
            _ => None,
        };
        self.out.ops(1, u64::from(landed.is_none()));
        match landed {
            Some((cycle, _)) => {
                self.acc
                    .seeks
                    .push(((target - from) as f64, now.saturating_sub(cycle) as f64, ms))
            }
            None => self.out.check(
                &format!("timetravel: seek to {target} parks there ({stop:?})"),
                false,
            ),
        }
        landed
    }

    /// Times one stub command round trip.
    fn cmd<R>(
        &mut self,
        dbg: &mut Dbg,
        f: impl FnOnce(&mut Dbg) -> Result<R, DbgError>,
    ) -> Option<R> {
        self.ctx.spans.open("rdbg.cmd");
        let t = Instant::now();
        let r = f(dbg);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.ctx.spans.close();
        self.out.ops(1, u64::from(r.is_err()));
        match r {
            Ok(v) => {
                self.acc.rtt_us.push(us);
                Some(v)
            }
            Err(e) => {
                self.out
                    .check(&format!("timetravel: stub command failed: {e}"), false);
                None
            }
        }
    }

    /// The `ci/farm_session.dbg` command mix; returns the registers read.
    fn command_mix(&mut self, dbg: &mut Dbg) -> Option<Registers> {
        let p = vmm(dbg);
        let s0 = p.stub_stats();
        let e0 = p.machine().obs.exits.get(ExitCause::Debug).count();
        let a0 = attribution(p);
        let regs = self.cmd(dbg, |d| d.read_registers());
        self.cmd(dbg, |d| d.set_breakpoint(layout::ENTRY));
        self.cmd(dbg, |d| d.clear_breakpoint(layout::ENTRY));
        let mem = self.cmd(dbg, |d| d.read_memory(layout::ENTRY, 16));
        if mem.is_some_and(|m| m.len() != 16) {
            self.out.check("timetravel: mem returns 16 bytes", false);
        }
        self.cmd(dbg, |d| d.query_stats());
        let p = vmm(dbg);
        let s1 = p.stub_stats();
        let e1 = p.machine().obs.exits.get(ExitCause::Debug).count();
        let acc = &mut self.acc;
        acc.commands += s1.commands - s0.commands;
        acc.bytes += (s1.bytes_in + s1.bytes_out) - (s0.bytes_in + s0.bytes_out);
        acc.debug_exits += e1 - e0;
        if let (Some(a0), Some(a1)) = (a0, attribution(p)) {
            acc.debug_exit_ns += phase_per(&a0, &a1, HostPhase::Exit(ExitCause::Debug), 1.0);
            acc.link_ns += phase_per(&a0, &a1, HostPhase::DebugLink, 1.0);
        }
        regs
    }

    /// Descending seeks over a fresh recording, each followed by the
    /// command mix and sometimes by a revisit.
    fn sweep(&mut self, dbg: &mut Dbg, rng: &mut Rng) {
        // One target in each equal stratum of the window, so every sweep
        // covers the window evenly and the seek-time mix repeats between
        // runs; visited latest first.
        let stratum = (WINDOW - 1) / SWEEP as u64;
        for k in (0..SWEEP as u64).rev() {
            let t = 1 + k * stratum + rng.below(stratum);
            let Some(landed) = self.seek(dbg, t) else {
                continue;
            };
            let regs = self.command_mix(dbg);
            if rng.below(REVISIT_ONE_IN) == 0 {
                let again = self.seek(dbg, t);
                let regs_again = self.cmd(dbg, |d| d.read_registers());
                if again != Some(landed) || regs.is_none() || regs_again != regs {
                    self.out.check(
                        &format!("timetravel: revisiting cycle {t} reads back identically"),
                        false,
                    );
                }
            }
        }
    }
}

pub fn run(ctx: &mut Ctx, budget: Budget, out: &mut Out) -> Vec<f64> {
    let mut leg = Leg {
        ctx,
        out,
        acc: Acc::default(),
    };
    let reps = if budget.lead { LEAD_SETUPS } else { 1 };
    let mut setups = Vec::new();
    let mut dbg = None;
    for _ in 0..reps {
        if let Some(d) = dbg.take() {
            leg.retire(d);
        }
        let t = Instant::now();
        dbg = Some(leg.record());
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut rng = Rng::new(leg.ctx.seed ^ 0x77_0002);
    let deadline = Instant::now() + budget.measure;
    let mut sweeps = 0;
    loop {
        let mut d = match dbg.take() {
            Some(d) => d,
            None => leg.record(),
        };
        leg.sweep(&mut d, &mut rng);
        leg.retire(d);
        sweeps += 1;
        let n = leg.acc.seeks.len();
        if n + SWEEP * 2 > MAX_SEEKS || (Instant::now() >= deadline && n >= MIN_SEEKS) {
            break;
        }
    }

    let Leg { ctx, out, acc } = leg;
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    out.e2e("record_mips", "Minstr/s", med(&acc.record_mips));
    let seek_ms: Vec<f64> = acc.seeks.iter().map(|s| s.2).collect();
    out.e2e_series("seek_ms", "ms", &seek_ms);
    out.e2e_series("stub_rtt_us", "us", &acc.rtt_us);
    println!(
        "  {sweeps} sweeps over {} recordings; {} stub commands",
        acc.record_mips.len(),
        acc.commands
    );
    if ctx.traced {
        let n = acc.commands.max(1) as f64;
        out.layer("hx-obs.checkpoints", acc.checkpoints as f64);
        out.layer("hx-obs.checkpoint_ms", med(&acc.checkpoint_ms));
        out.layer("hx-obs.journal_ns", med(&acc.journal_ns));
        out.layer("hx-obs.journal_inputs", acc.journal_inputs as f64);
        let (fixed_ms, replay, catch_up) = stats::plane_fit(&acc.seeks).unwrap_or_default();
        println!(
            "  seek fit: {fixed_ms:.2} ms + {:.2} ns per re-executed cycle + {:.2} ns per catch-up cycle",
            replay * 1e6,
            catch_up * 1e6
        );
        out.layer("hx-obs.seek_fixed_ms", fixed_ms);
        out.layer("hx-obs.replay_ns_per_cycle", replay * 1e6);
        out.layer("lvmm.shadow_fills", acc.shadow_fills as f64);
        out.layer("lvmm.exits.debug", acc.debug_exits as f64);
        out.layer(
            "lvmm.exit_ns.debug",
            acc.debug_exit_ns / acc.debug_exits.max(1) as f64,
        );
        out.layer("rdbg.cmds", acc.commands as f64);
        out.layer("rdbg.bytes_per_cmd", acc.bytes as f64 / n);
        out.layer("rdbg.debug_link_ns", acc.link_ns / n);
        let shown: Vec<String> = acc.coverage.iter().map(|c| format!("{c:.2}")).collect();
        println!(
            "  hostprof coverage per recording (%): [{}]",
            shown.join(", ")
        );
        out.coverage(&acc.coverage);
    }
    setups
}
