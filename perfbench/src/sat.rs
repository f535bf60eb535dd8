//! The saturation leg: the paper's Fig 3.1 saturation point.
//!
//! The HiTactix streaming guest asks for 950 Mbit/s — far more than any
//! platform delivers — on real-hw, lvmm and hosted. After a simulated
//! warm-up, the three platforms run fixed slices of simulated time in a
//! seeded order, round after round, and each slice yields one simulator
//! speed sample. No flight recorder, debugger or farm is involved: the
//! interpreter and the monitors' exit paths do almost all the host work.
//!
//! The first 120 simulated milliseconds after warm-up are the check
//! window: their retired instructions, NIC bytes and cycle attribution are
//! deterministic and must equal the committed values below.

use crate::metrics::{phase_per, Out, DEVICES, HOSTED_CAUSES, LVMM_CAUSES};
use crate::stats::{self, Rng};
use crate::{Budget, Ctx};
use hitactix::{GuestStats, Workload};
use hx_machine::timing::DEFAULT_CLOCK_HZ;
use hx_machine::{Platform, TimeStats};
use hx_obs::{Dev, ExitCause, HostAttribution, HostPhase};
use lwvmm_bench::{build_platform, PlatformKind};
use std::time::Instant;

const RATE_MBPS: u64 = 950;
const PER_MS: u64 = DEFAULT_CLOCK_HZ / 1_000;
const WARMUP: u64 = 40 * PER_MS;
const WINDOW: u64 = 120 * PER_MS;
/// Set-ups the lead leg repeats; `setup_s` is their median.
const LEAD_SETUPS: usize = 9;
/// Speed samples every lane collects at least, however short the budget.
const MIN_CHUNKS: usize = 20;
/// The slice-speed percentile reported as a lane's speed. The host
/// alternates between a slower and a faster state for seconds at a time;
/// the slower one shows up in every run, so its speed repeats from run to
/// run, while the median moves with the share of time spent in each.
const SPEED_PERCENTILE: f64 = 10.0;

/// Window counters: instret, NIC TX bytes, guest, monitor, host, idle
/// cycles. Any change here is a change to the simulation.
const EXPECTED: [(&str, [u64; 6]); 3] = [
    ("raw", [10_404_010, 8_631_718, 18_001_964, 0, 0, 0]),
    ("lvmm", [2_650_677, 2_206_314, 5_052_954, 12_950_900, 0, 0]),
    (
        "hosted",
        [487_491, 403_184, 856_017, 4_124_300, 13_091_236, 0],
    ),
];

/// The paper's headline numbers (DATE 2005, Fig 3.1).
const PAPER_LVMM_VS_HOSTED: f64 = 5.4;
const PAPER_LVMM_VS_REAL_PCT: f64 = 26.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    /// One of the three Fig 3.1 platforms.
    Main,
    /// Raw with the predecoded-instruction cache off (traced run only).
    NoCache,
    /// Lvmm with event tracing and causal tracking on (traced run only).
    Causal,
    /// Lvmm without the host profiler, the overhead baseline (traced run
    /// only).
    Untraced,
}

/// Cumulative counters of one platform at one instant.
#[derive(Debug, Clone)]
struct Snap {
    now: u64,
    instret: u64,
    tx_bytes: u64,
    time: TimeStats,
    decode_hits: u64,
    decode_misses: u64,
    invalidations: u64,
    exits: [u64; ExitCause::COUNT],
}

impl Snap {
    fn of(p: &dyn Platform) -> Snap {
        let m = p.machine();
        let d = m.cpu.decode_stats();
        Snap {
            now: m.now(),
            instret: m.total_instret(),
            tx_bytes: m.nic.counters().tx_bytes,
            time: *p.time_stats(),
            decode_hits: d.hits,
            decode_misses: d.misses,
            invalidations: d.invalidations,
            exits: m.obs.exits.counts(),
        }
    }
}

struct Lane {
    label: &'static str,
    role: Role,
    platform: Box<dyn Platform>,
    /// Simulated cycles per timed slice (about 10 ms of host time).
    chunk: u64,
    window_chunks: usize,
    mips: Vec<f64>,
    warm: Snap,
    window: Option<Snap>,
    prof0: Option<HostAttribution>,
}

impl Lane {
    fn boot(kind: PlatformKind, role: Role, traced: bool) -> Lane {
        let mut platform = build_platform(kind, &Workload::new(RATE_MBPS));
        match role {
            Role::NoCache => platform.machine_mut().cpu.set_decode_cache(false),
            Role::Causal => {
                platform.machine_mut().obs.enable_tracing();
                platform.machine_mut().obs.enable_causal();
            }
            Role::Main | Role::Untraced => {}
        }
        if traced && role != Role::Untraced {
            platform.machine_mut().obs.enable_hostprof();
        }
        platform.run_for(WARMUP);
        let (label, chunk) = match kind {
            PlatformKind::RawHw => ("raw", 450_000),
            PlatformKind::Lvmm => ("lvmm", 1_500_000),
            PlatformKind::Hosted => ("hosted", 6_000_000),
        };
        let warm = Snap::of(platform.as_ref());
        Lane {
            label,
            role,
            platform,
            chunk,
            window_chunks: (WINDOW / chunk) as usize,
            mips: Vec::new(),
            warm,
            window: None,
            prof0: None,
        }
    }

    /// Simulator speed: the [`SPEED_PERCENTILE`] of the slice speeds.
    fn speed(&self) -> f64 {
        stats::percentile(&self.mips, SPEED_PERCENTILE).unwrap_or(0.0)
    }

    fn span_name(&self) -> &'static str {
        match (self.role, self.label) {
            (Role::Main, "raw") => "hx-machine.run_for.raw",
            (Role::Main, "lvmm") => "lvmm.run_for",
            (Role::Main, _) => "hosted-vmm.run_for",
            (Role::NoCache, _) => "hx-cpu.run_for.nocache",
            (Role::Causal, _) => "hx-obs.run_for.causal",
            (Role::Untraced, _) => "lvmm.run_for.untraced",
        }
    }

    /// Closes the host profiler's current window so the benchmark's own
    /// time between slices is charged to `other`, not to the guest.
    fn fence(&self, phase: HostPhase) {
        self.platform.machine().obs.host_mark(phase);
    }

    fn slice(&mut self, ctx: &mut Ctx, out: &mut Out) {
        let i0 = self.platform.machine().total_instret();
        self.fence(HostPhase::Other);
        ctx.spans.open(self.span_name());
        let t = Instant::now();
        let ran = self.platform.run_for(self.chunk);
        let dt = t.elapsed().as_secs_f64();
        ctx.spans.close();
        self.fence(HostPhase::GuestExec);
        out.ops(1, u64::from(ran < self.chunk));
        let instr = self.platform.machine().total_instret() - i0;
        self.mips.push(instr as f64 / dt.max(1e-9) / 1e6);
        if self.mips.len() == self.window_chunks {
            self.window = Some(Snap::of(self.platform.as_ref()));
        }
    }
}

fn boot_main(traced: bool) -> Vec<Lane> {
    PlatformKind::ALL
        .into_iter()
        .map(|k| Lane::boot(k, Role::Main, traced))
        .collect()
}

pub fn run(ctx: &mut Ctx, budget: Budget, out: &mut Out) -> Vec<f64> {
    let reps = if budget.lead { LEAD_SETUPS } else { 1 };
    let mut setups = Vec::new();
    let mut lanes = Vec::new();
    for _ in 0..reps {
        drop(std::mem::take(&mut lanes));
        let t = Instant::now();
        lanes = ctx.spans.time("setup.saturate", |_| boot_main(ctx.traced));
        setups.push(t.elapsed().as_secs_f64());
    }
    if ctx.traced {
        lanes.push(Lane::boot(PlatformKind::RawHw, Role::NoCache, true));
        lanes.push(Lane::boot(PlatformKind::Lvmm, Role::Causal, true));
        lanes.push(Lane::boot(PlatformKind::Lvmm, Role::Untraced, true));
    }
    for lane in &mut lanes {
        lane.fence(HostPhase::Other);
        lane.prof0 = lane.platform.machine().obs.host_attribution();
    }

    let mut rng = Rng::new(ctx.seed ^ 0x5a7_0001);
    let mut order: Vec<usize> = (0..lanes.len()).collect();
    let deadline = Instant::now() + budget.measure;
    loop {
        let pending = lanes
            .iter()
            .any(|l| l.window.is_none() || l.mips.len() < MIN_CHUNKS);
        if !pending && Instant::now() >= deadline {
            break;
        }
        rng.shuffle(&mut order);
        for &i in &order {
            lanes[i].slice(ctx, out);
        }
    }

    check_and_report(&lanes, out);
    if ctx.traced {
        layers(&lanes, out);
    }
    setups
}

fn check_and_report(lanes: &[Lane], out: &mut Out) {
    let mut mbps = Vec::new();
    for lane in lanes.iter().filter(|l| l.role == Role::Main) {
        let w = lane
            .window
            .as_ref()
            .expect("window closes before the loop ends");
        let got = [
            w.instret - lane.warm.instret,
            w.tx_bytes - lane.warm.tx_bytes,
            w.time.guest - lane.warm.time.guest,
            w.time.monitor - lane.warm.time.monitor,
            w.time.host_model - lane.warm.time.host_model,
            w.time.idle - lane.warm.time.idle,
        ];
        let want = EXPECTED
            .iter()
            .find(|(l, _)| *l == lane.label)
            .map(|(_, v)| *v);
        let same = want == Some(got);
        if !same {
            println!(
                "  {} window: instret, tx_bytes, guest, monitor, host, idle = {got:?} (committed {want:?})",
                lane.label
            );
        }
        out.check(
            &format!(
                "saturate {}: window counters equal the committed values",
                lane.label
            ),
            same,
        );
        let seconds = (w.now - lane.warm.now) as f64 / DEFAULT_CLOCK_HZ as f64;
        mbps.push(got[1] as f64 * 8.0 / 1e6 / seconds);
        let guest = GuestStats::read(lane.platform.machine());
        out.check(
            &format!("saturate {}: guest booted and took no fault", lane.label),
            guest.is_ok_and(|g| g.booted && g.fault_cause == 0),
        );
        out.e2e(
            &format!("sim_mips.{}", lane.label),
            "Minstr/s",
            lane.speed(),
        );
    }
    if let [raw, lvmm, hosted] = mbps[..] {
        println!(
            "  achieved Mbit/s at 950 requested: real-hw {raw:.1}, lvmm {lvmm:.1}, hosted {hosted:.1}"
        );
        println!(
            "  lvmm_vs_hosted {:.3} (paper {PAPER_LVMM_VS_HOSTED}x), lvmm_vs_real_pct {:.2} (paper ~{PAPER_LVMM_VS_REAL_PCT}%)",
            lvmm / hosted.max(f64::MIN_POSITIVE),
            lvmm / raw.max(f64::MIN_POSITIVE) * 100.0
        );
    }
    for lane in lanes {
        let q = |p| stats::percentile(&lane.mips, p).unwrap_or(0.0);
        println!(
            "  {:<7} {:?}: {} slices of {} cycles, Minstr/s p10 {:.2} p50 {:.2} p90 {:.2}",
            lane.label,
            lane.role,
            lane.mips.len(),
            lane.chunk,
            q(10.0),
            q(50.0),
            q(90.0)
        );
    }
}

fn layers(lanes: &[Lane], out: &mut Out) {
    let find = |label: &str, role: Role| {
        lanes
            .iter()
            .find(|l| l.label == label && l.role == role)
            .expect("lane booted")
    };
    let mut coverage: Vec<f64> = Vec::new();
    for lane in lanes.iter().filter(|l| l.role != Role::Untraced) {
        let (Some(a0), Some(a1)) = (&lane.prof0, lane.platform.machine().obs.host_attribution())
        else {
            continue;
        };
        let cov = (a1.attributed_ns() - a0.attributed_ns()) as f64
            / (a1.wall_ns - a0.wall_ns).max(1) as f64;
        println!(
            "  hostprof coverage {} {:?}: {:.2}%",
            lane.label,
            lane.role,
            cov * 100.0
        );
        coverage.push(cov * 100.0);
        if lane.role != Role::Main {
            continue;
        }
        let p = lane.label;
        let end = Snap::of(lane.platform.as_ref());
        let w = lane.window.as_ref().expect("window closed");
        let sim_ms = (end.now - lane.warm.now) as f64 / PER_MS as f64;
        let instr = (end.instret - lane.warm.instret) as f64;
        let exec = phase_per(a0, &a1, HostPhase::GuestExec, 1.0);
        out.layer(
            &format!("hx-cpu.instret.{p}"),
            (w.instret - lane.warm.instret) as f64,
        );
        out.layer(&format!("hx-cpu.exec_ns.{p}"), exec / sim_ms);
        out.layer(&format!("hx-cpu.ns_per_instr.{p}"), exec / instr.max(1.0));
        let hits = (end.decode_hits - lane.warm.decode_hits) as f64;
        let misses = (end.decode_misses - lane.warm.decode_misses) as f64;
        out.layer(
            &format!("hx-cpu.decode_hit_ratio.{p}"),
            hits / (hits + misses).max(1.0),
        );
        out.layer(
            &format!("hx-cpu.decode_invalidations.{p}"),
            (w.invalidations - lane.warm.invalidations) as f64,
        );
        for d in DEVICES {
            let dev = Dev::ALL
                .into_iter()
                .find(|x| x.label() == d)
                .expect("device");
            out.layer(
                &format!("hx-machine.device_ns.{d}.{p}"),
                phase_per(a0, &a1, HostPhase::Device(dev), sim_ms),
            );
        }
        out.layer(
            &format!("hx-machine.idle_ns.{p}"),
            phase_per(a0, &a1, HostPhase::Idle, sim_ms),
        );
        let (layer, causes): (&str, &[&str]) = match p {
            "lvmm" => ("lvmm", &LVMM_CAUSES),
            "hosted" => ("hosted-vmm", &HOSTED_CAUSES),
            _ => continue,
        };
        for &c in causes {
            // Debug exits only happen under a debugger: the time-travel
            // leg reports them.
            if c == "debug" {
                continue;
            }
            let cause = ExitCause::ALL
                .into_iter()
                .find(|x| x.label() == c)
                .expect("exit cause");
            let i = cause.index();
            out.layer(
                &format!("{layer}.exits.{c}"),
                (w.exits[i] - lane.warm.exits[i]) as f64,
            );
            let n = (end.exits[i] - lane.warm.exits[i]) as f64;
            out.layer(
                &format!("{layer}.exit_ns.{c}"),
                phase_per(a0, &a1, HostPhase::Exit(cause), n.max(1.0)),
            );
        }
    }
    out.layer("hx-cpu.mips_nocache", find("raw", Role::NoCache).speed());
    out.layer("hx-obs.mips_causal", find("lvmm", Role::Causal).speed());
    let traced = find("lvmm", Role::Main).speed();
    let untraced = find("lvmm", Role::Untraced).speed();
    out.layer(
        "hx-obs.hostprof_overhead_pct",
        (1.0 - traced / untraced.max(f64::MIN_POSITIVE)) * 100.0,
    );
    out.coverage(&coverage);
}
