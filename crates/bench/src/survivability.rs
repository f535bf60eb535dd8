//! The survivability campaign: does the debug stub stay usable while the
//! guest is being actively wrecked?
//!
//! This is the paper's core debugging claim turned into a benchmark. For
//! every `(platform, fault class)` pair we boot the streaming guest, arm the
//! deterministic fault injector (`hx-fault` via the machine's event queue),
//! let the campaign run, and then ask two questions:
//!
//! 1. **Is the guest still alive?** (Did it keep making progress through the
//!    probe window without taking an unrecovered fault?) On real hardware a
//!    wild kernel write usually kills it — that is the point.
//! 2. **Is the stub still alive?** On LVMM that is the monitor-resident
//!    stub; on real hardware it is the conventional baseline, a stub
//!    embedded in the guest OS (`hitactix::embedded`). We attach the host
//!    debugger over the simulated UART and require well-formed answers to
//!    `?` (query stop), `g` (read registers) and `m` (read memory). A
//!    *target error* reply still counts as alive — a guest with shredded
//!    page tables may legitimately refuse a virtual-address read — but a
//!    timeout or protocol violation means the stub is gone. The hosted
//!    platform carries no stub.
//!
//! A separate pass records one all-classes campaign per platform through the
//! flight recorder and replays it on a fresh boot, asserting the faulty run
//! is byte-identical — fault injection rides the simulation clock, so it
//! must be.

use crate::{build_platform, PlatformKind};
use hitactix::{embedded::EmbeddedStubPlatform, kernel::layout, GuestStats, Workload};
use hx_fault::{FaultKind, FaultPlan};
use hx_machine::{Machine, Platform};
use hx_obs::json::{Json, JsonObj};
use hx_obs::{Align, ExitCause, Report};
use lvmm::{LvmmPlatform, ReplayDriver, UartLink};
use rdbg::{DbgError, Debugger};

/// Campaign shape: how long to run, how often to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurvivalConfig {
    /// PRNG seed; each `(platform, fault)` cell derives its own stream.
    pub seed: u64,
    /// Streaming workload rate (Mbit/s).
    pub rate_mbps: u64,
    /// Simulated ms before the first fault (guest boots and reaches steady
    /// state).
    pub warmup_ms: u64,
    /// Simulated ms of active fault injection.
    pub campaign_ms: u64,
    /// Simulated ms after the campaign used to measure guest progress.
    pub probe_ms: u64,
    /// Mean cycles between injections.
    pub period: u64,
}

impl SurvivalConfig {
    /// The full matrix shape used for `BENCH_fig3_1.json`.
    pub fn new(seed: u64) -> SurvivalConfig {
        SurvivalConfig {
            seed,
            rate_mbps: 100,
            warmup_ms: 20,
            campaign_ms: 60,
            probe_ms: 20,
            period: 100_000,
        }
    }

    /// A CI-sized campaign (`--fast`): same matrix, shorter windows.
    pub fn fast(seed: u64) -> SurvivalConfig {
        SurvivalConfig {
            seed,
            rate_mbps: 100,
            warmup_ms: 5,
            campaign_ms: 15,
            probe_ms: 5,
            period: 50_000,
        }
    }
}

/// One `(platform, fault class)` campaign outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalCell {
    /// Which platform ran the campaign.
    pub platform: PlatformKind,
    /// Which fault class was injected.
    pub fault: FaultKind,
    /// Faults applied.
    pub injected: u64,
    /// Wild attempts blocked by the protection model.
    pub blocked: u64,
    /// Protection exits the monitor recorded (0 on raw hardware).
    pub protection_exits: u64,
    /// Guest kept making progress through the probe window with no
    /// unrecovered fault.
    pub guest_alive: bool,
    /// Guest-reported fault cause (0 = none; `u32::MAX` = stats block
    /// unreadable, i.e. the guest corrupted itself beyond recognition).
    pub guest_fault_cause: u32,
    /// Stub answered `?`/`g`/`m` after the campaign: the monitor's stub on
    /// LVMM, the OS-embedded one on raw hardware (`None` on hosted, which
    /// carries no stub — nothing to probe).
    pub stub_alive: Option<bool>,
    /// Fraction of total cycles spent outside the guest (monitor plus
    /// host-OS model) — the hosted platform's emulation-overhead contrast.
    pub overhead_frac: f64,
}

/// One record/replay identity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayCheck {
    /// Which platform was recorded and replayed.
    pub platform: PlatformKind,
    /// Final cycle of the recorded run.
    pub end_cycle: u64,
    /// Total faults the recorded campaign applied.
    pub injected: u64,
    /// Replay reached the same cycle with identical RAM, instret and fault
    /// counters.
    pub identical: bool,
}

/// The whole campaign: 3 platforms × 6 fault classes, plus one replay
/// identity check per platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalMatrix {
    /// Base seed the cells derive from.
    pub seed: u64,
    /// Row-major cells (platform outer, fault class inner).
    pub cells: Vec<SurvivalCell>,
    /// Per-platform replay identity checks.
    pub replays: Vec<ReplayCheck>,
}

impl SurvivalMatrix {
    /// The headline claim: the LVMM stub answered after every fault class.
    pub fn lvmm_stub_all_alive(&self) -> bool {
        let lvmm: Vec<_> = self
            .cells
            .iter()
            .filter(|c| c.platform == PlatformKind::Lvmm)
            .collect();
        !lvmm.is_empty() && lvmm.iter().all(|c| c.stub_alive == Some(true))
    }

    /// All replay checks came back byte-identical.
    pub fn replays_identical(&self) -> bool {
        !self.replays.is_empty() && self.replays.iter().all(|r| r.identical)
    }
}

/// The fault plan for one campaign cell. Each `(platform, fault)` pair gets
/// its own seed stream so cells are independent experiments; attempts span
/// all of RAM so the monitors have something to block.
pub fn cell_plan(
    kind: PlatformKind,
    fault: FaultKind,
    cfg: &SurvivalConfig,
    ram_size: u32,
    warmup_cycles: u64,
) -> FaultPlan {
    let salt = (kind.label().len() as u64) << 32 | (fault.code() as u64 + 1);
    FaultPlan::new(cfg.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .only(fault)
        .period(cfg.period)
        .initial_delay(warmup_cycles)
        .wild(ram_size, kind.wild_limit(ram_size))
}

fn progress(machine: &Machine) -> Option<(u32, u32)> {
    GuestStats::read(machine).ok().map(|s| (s.ticks, s.frames))
}

/// Runs the campaign window on an already-armed platform and reads the cell
/// back (stub probe excluded; the caller owns that).
fn run_campaign(
    platform: &mut dyn Platform,
    kind: PlatformKind,
    fault: FaultKind,
    cfg: &SurvivalConfig,
) -> SurvivalCell {
    let per_ms = platform.machine().config().clock_hz / 1_000;
    platform.run_for((cfg.warmup_ms + cfg.campaign_ms) * per_ms);
    let before = progress(platform.machine());
    platform.run_for(cfg.probe_ms * per_ms);
    let after = progress(platform.machine());

    let stats = platform
        .machine()
        .fault_stats()
        .copied()
        .unwrap_or_default();
    let guest_fault_cause =
        GuestStats::read(platform.machine()).map_or(u32::MAX, |s| s.fault_cause);
    let moved = match (before, after) {
        (Some((t0, f0)), Some((t1, f1))) => t1 > t0 || f1 > f0,
        _ => false,
    };
    let t = platform.time_stats();
    SurvivalCell {
        platform: kind,
        fault,
        injected: stats.total(),
        blocked: stats.blocked,
        protection_exits: platform
            .machine()
            .obs
            .exits
            .get(ExitCause::Protection)
            .count(),
        guest_alive: moved && guest_fault_cause == 0,
        guest_fault_cause,
        stub_alive: None,
        overhead_frac: (t.monitor + t.host_model) as f64 / t.total().max(1) as f64,
    }
}

/// `true` when the stub produced a well-formed reply: `Ok` or a target
/// error code. Timeouts and protocol violations mean the stub (or the
/// monitor under it) is dead.
fn answered<T>(r: &Result<T, DbgError>) -> bool {
    !matches!(r, Err(DbgError::Timeout) | Err(DbgError::Protocol(_)))
}

/// Attaches the host debugger to a post-campaign platform and probes
/// `?`/`g`/`m`. Consumes the platform (the UART link owns it).
pub fn probe_stub<P: Platform>(platform: P) -> bool {
    let mut dbg = Debugger::new(UartLink {
        platform,
        slice: 2_000,
    });
    // Bounded: 4 attempts × ~2k pumps × 2k cycles each is still only a few
    // simulated ms if the stub really is dead.
    dbg.set_pump_budget(2_000);
    let halted = dbg.halt();
    let q = dbg.query_stop();
    let g = dbg.read_registers();
    let m = dbg.read_memory(0, 16);
    answered(&halted) && answered(&q) && answered(&g) && answered(&m)
}

/// [`run_campaign`] on a platform that carries a debug stub, then
/// [`probe_stub`] (concrete, so the probe can wrap it in a UART link).
fn run_probed<P: Platform>(
    mut platform: P,
    kind: PlatformKind,
    fault: FaultKind,
    cfg: &SurvivalConfig,
) -> SurvivalCell {
    let mut cell = run_campaign(&mut platform, kind, fault, cfg);
    cell.stub_alive = Some(probe_stub(platform));
    cell
}

/// Runs one `(platform, fault)` campaign cell: the stub probed is the
/// OS-embedded one on raw hardware and the monitor's on LVMM.
pub fn run_cell(kind: PlatformKind, fault: FaultKind, cfg: &SurvivalConfig) -> SurvivalCell {
    let (mut machine, _) =
        hx_farm::load_workload(&Workload::new(cfg.rate_mbps), 1).expect("kernel assembles");
    let ram_size = machine.config().ram_size as u32;
    let warmup = cfg.warmup_ms * machine.config().clock_hz / 1_000;
    machine.enable_fault_injection(cell_plan(kind, fault, cfg, ram_size, warmup));
    match kind {
        PlatformKind::RawHw => run_probed(EmbeddedStubPlatform::new(machine), kind, fault, cfg),
        PlatformKind::Lvmm => {
            run_probed(LvmmPlatform::new(machine, layout::ENTRY), kind, fault, cfg)
        }
        PlatformKind::Hosted => {
            let mut platform = kind.boot(machine, layout::ENTRY, None);
            run_campaign(platform.as_mut(), kind, fault, cfg)
        }
    }
}

/// Records one all-classes campaign through the flight recorder and replays
/// it on a fresh boot with the same plan; the two runs must agree on end
/// cycle, instret, RAM image and fault counters.
pub fn replay_check(kind: PlatformKind, cfg: &SurvivalConfig) -> ReplayCheck {
    // Both runs boot fresh and arm the same campaign.
    let boot = || {
        let mut p = build_platform(kind, &Workload::new(cfg.rate_mbps));
        let ram_size = p.machine().config().ram_size as u32;
        let warmup = cfg.warmup_ms * p.machine().config().clock_hz / 1_000;
        p.machine_mut().enable_fault_injection(
            FaultPlan::new(cfg.seed)
                .period(cfg.period)
                .initial_delay(warmup)
                .wild(ram_size, kind.wild_limit(ram_size)),
        );
        p
    };

    let mut rec = boot();
    let cores = rec.machine().num_cores();
    rec.machine_mut().obs.enable_journal(kind.label(), cores);
    let per_ms = rec.machine().config().clock_hz / 1_000;
    rec.run_for((cfg.warmup_ms + cfg.campaign_ms) * per_ms);
    let end = rec.machine().now();
    let mut journal = rec
        .machine()
        .obs
        .journal()
        .cloned()
        .expect("journal enabled");
    journal.seal(end);
    let digest = hx_obs::digest(rec.machine().mem.as_bytes());
    let instret = rec.machine().cpu.instret();
    let fstats = rec.machine().fault_stats().copied();

    let mut rep = boot();
    let reached = ReplayDriver::new(&journal).run(rep.as_mut());
    let identical = reached == end
        && hx_obs::digest(rep.machine().mem.as_bytes()) == digest
        && rep.machine().cpu.instret() == instret
        && rep.machine().fault_stats().copied() == fstats;
    ReplayCheck {
        platform: kind,
        end_cycle: end,
        injected: fstats.map_or(0, |s| s.total()),
        identical,
    }
}

/// Runs the full matrix: every fault class on every platform, then one
/// replay identity check per platform.
pub fn run_matrix(cfg: &SurvivalConfig) -> SurvivalMatrix {
    let mut cells = Vec::with_capacity(PlatformKind::ALL.len() * FaultKind::COUNT);
    for kind in PlatformKind::ALL {
        for fault in FaultKind::ALL {
            cells.push(run_cell(kind, fault, cfg));
        }
    }
    let replays = PlatformKind::ALL
        .iter()
        .map(|&k| replay_check(k, cfg))
        .collect();
    SurvivalMatrix {
        seed: cfg.seed,
        cells,
        replays,
    }
}

/// Renders the matrix as a terminal table.
pub fn survival_report(matrix: &SurvivalMatrix) -> Report {
    let mut r = Report::new(format!(
        "Survivability matrix — seed {} (stub column: did `?`/`g`/`m` answer?)",
        matrix.seed
    ))
    .column("platform", Align::Left)
    .column("fault", Align::Left)
    .column("injected", Align::Right)
    .column("blocked", Align::Right)
    .column("prot exits", Align::Right)
    .column("guest", Align::Left)
    .column("stub", Align::Left)
    .column("ovh%", Align::Right);
    let mut last = None;
    for c in &matrix.cells {
        if last.is_some() && last != Some(c.platform) {
            r.gap();
        }
        last = Some(c.platform);
        r.row([
            c.platform.label().to_string(),
            c.fault.label().to_string(),
            c.injected.to_string(),
            c.blocked.to_string(),
            c.protection_exits.to_string(),
            if c.guest_alive { "alive" } else { "dead" }.to_string(),
            match c.stub_alive {
                Some(true) => "alive",
                Some(false) => "DEAD",
                None => "-",
            }
            .to_string(),
            format!("{:.1}", c.overhead_frac * 100.0),
        ]);
    }
    for rep in &matrix.replays {
        r.note(format!(
            "replay {}: {} faults over {} cycles — {}",
            rep.platform.label(),
            rep.injected,
            rep.end_cycle,
            if rep.identical {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        ));
    }
    r
}

/// The `survivability` section of the bench document.
pub fn survivability_section(cfg: &SurvivalConfig, matrix: &SurvivalMatrix) -> JsonObj {
    let mut s = JsonObj::new();
    s.set("seed", cfg.seed)
        .set("warmup_ms", cfg.warmup_ms)
        .set("campaign_ms", cfg.campaign_ms)
        .set("probe_ms", cfg.probe_ms)
        .set("period_cycles", cfg.period);
    let rows = PlatformKind::ALL.map(|kind| {
        let cells = matrix.cells.iter().filter(|c| c.platform == kind).map(|c| {
            let mut cell = JsonObj::new();
            cell.set("fault", c.fault.label())
                .set("injected", c.injected)
                .set("blocked", c.blocked)
                .set("protection_exits", c.protection_exits)
                .set("guest_alive", c.guest_alive)
                .set("guest_fault_cause", u64::from(c.guest_fault_cause))
                .set("stub_alive", c.stub_alive)
                .set("overhead_frac", Json::fixed(c.overhead_frac, 4));
            Json::from(cell)
        });
        let mut row = JsonObj::new();
        row.set("platform", kind.label())
            .set("cells", cells.collect::<Vec<_>>());
        Json::from(row)
    });
    s.set("matrix", Vec::from(rows));
    let replays = matrix.replays.iter().map(|rep| {
        let mut row = JsonObj::new();
        row.set("platform", rep.platform.label())
            .set("end_cycle", rep.end_cycle)
            .set("injected", rep.injected)
            .set("identical", rep.identical);
        Json::from(row)
    });
    s.set("replay", replays.collect::<Vec<_>>())
        .set("lvmm_stub_all_alive", matrix.lvmm_stub_all_alive())
        .set("replays_identical", matrix.replays_identical());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SurvivalConfig {
        SurvivalConfig {
            seed: 7,
            rate_mbps: 100,
            warmup_ms: 2,
            campaign_ms: 5,
            probe_ms: 2,
            period: 30_000,
        }
    }

    fn fake_matrix() -> (SurvivalConfig, SurvivalMatrix) {
        let cfg = tiny();
        let cells = PlatformKind::ALL
            .iter()
            .flat_map(|&p| {
                FaultKind::ALL.map(|f| SurvivalCell {
                    platform: p,
                    fault: f,
                    injected: 3,
                    blocked: 1,
                    protection_exits: 1,
                    guest_alive: p != PlatformKind::RawHw,
                    guest_fault_cause: 0,
                    stub_alive: (p == PlatformKind::Lvmm).then_some(true),
                    overhead_frac: 0.25,
                })
            })
            .collect();
        let replays = PlatformKind::ALL
            .iter()
            .map(|&p| ReplayCheck {
                platform: p,
                end_cycle: 1_000_000,
                injected: 40,
                identical: true,
            })
            .collect();
        let matrix = SurvivalMatrix {
            seed: cfg.seed,
            cells,
            replays,
        };
        (cfg, matrix)
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let (cfg, matrix) = fake_matrix();
        assert!(matrix.lvmm_stub_all_alive());
        assert!(matrix.replays_identical());
        let json = crate::set_section("", "survivability", survivability_section(&cfg, &matrix));
        for key in [
            "\"survivability\"",
            "\"matrix\"",
            "\"wild-write-kernel\"",
            "\"stub_alive\":null",
            "\"stub_alive\":true",
            "\"replay\"",
            "\"lvmm_stub_all_alive\": true",
            "\"replays_identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON: {json}");
    }

    #[test]
    fn merge_inserts_and_replaces_section() {
        let (cfg, matrix) = fake_matrix();
        let fig = "{\n  \"bench\": \"fig3_1\",\n  \"headlines\": {\"x\": 1.0}\n}\n";
        let merge = |doc: &str| {
            crate::set_section(doc, "survivability", survivability_section(&cfg, &matrix))
        };
        let merged = merge(fig);
        assert!(merged.contains("\"headlines\""));
        assert!(merged.contains("\"survivability\""));
        let opens = merged.matches(['{', '[']).count();
        let closes = merged.matches(['}', ']']).count();
        assert_eq!(opens, closes, "unbalanced JSON: {merged}");
        // Merging again replaces, not duplicates.
        let again = merge(&merged);
        assert_eq!(again.matches("\"survivability\"").count(), 1);
        assert_eq!(again, merged);
        // Non-object input falls back to a standalone document.
        let standalone = merge("not json");
        assert!(standalone.starts_with("{\n  \"bench\": \"survivability\""));
    }

    #[test]
    fn report_renders_matrix() {
        let (_, matrix) = fake_matrix();
        let text = survival_report(&matrix).to_text();
        assert!(text.contains("irq-storm"));
        assert!(text.contains("byte-identical"));
    }

    #[test]
    fn lvmm_disk_error_cell_keeps_stub_and_guest_alive() {
        // Cheapest end-to-end cell: spurious disk error completions do not
        // corrupt memory, so both the guest and the stub must survive.
        let cell = run_cell(PlatformKind::Lvmm, FaultKind::DiskError, &tiny());
        assert!(cell.injected > 0, "campaign must inject: {cell:?}");
        assert_eq!(cell.stub_alive, Some(true), "stub died: {cell:?}");
        assert!(cell.guest_alive, "guest died: {cell:?}");
    }
}
