//! The platform abstraction shared by the three evaluated systems, plus the
//! real-hardware baseline.
//!
//! A *platform* is a way of running the guest OS on the machine:
//!
//! * [`RawPlatform`] (this module) — the guest owns the hardware; every trap
//!   and interrupt is delivered architecturally. This is the paper's "real
//!   hardware" curve.
//! * `lvmm::LvmmPlatform` — the lightweight monitor intercepts traps,
//!   emulates the PIC/PIT/CPU resources, passes the disks and NIC through,
//!   and hosts the debug stub.
//! * `hosted_vmm::HostedPlatform` — the VMware-Workstation-style baseline
//!   that emulates *every* device through a modeled host OS.
//!
//! All platforms account time into a [`TimeStats`], whose
//! [`TimeStats::cpu_load`] is the y-axis of the paper's Fig. 3.1.

use crate::machine::Machine;
use core::fmt;
use hx_cpu::trap::Trap;
use hx_obs::{ExitCause, MetricsSnapshot, Track};

/// The span-track lane a [`TimeBucket`] maps to in the trace exporter.
pub fn track_of(bucket: TimeBucket) -> Track {
    match bucket {
        TimeBucket::Guest => Track::Guest,
        TimeBucket::Monitor => Track::Monitor,
        TimeBucket::HostModel => Track::HostModel,
        TimeBucket::Idle => Track::Idle,
    }
}

/// Attribution bucket for consumed cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeBucket {
    /// The guest OS (and its applications) executing instructions.
    Guest,
    /// The virtual machine monitor itself.
    Monitor,
    /// The modeled host OS of the hosted-VMM baseline.
    HostModel,
    /// Nothing to do (`wfi`).
    Idle,
}

/// Cycle totals per [`TimeBucket`].
///
/// `guest + monitor + host_model + idle` equals the simulation time spanned
/// by the measurement; platforms keep this invariant (tests check it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeStats {
    /// Cycles spent executing guest instructions.
    pub guest: u64,
    /// Cycles spent in the monitor.
    pub monitor: u64,
    /// Cycles spent in the modeled host OS.
    pub host_model: u64,
    /// Cycles spent idle.
    pub idle: u64,
}

impl TimeStats {
    /// Creates zeroed stats.
    pub fn new() -> TimeStats {
        TimeStats::default()
    }

    /// Adds `cycles` to a bucket.
    pub fn charge(&mut self, bucket: TimeBucket, cycles: u64) {
        match bucket {
            TimeBucket::Guest => self.guest += cycles,
            TimeBucket::Monitor => self.monitor += cycles,
            TimeBucket::HostModel => self.host_model += cycles,
            TimeBucket::Idle => self.idle += cycles,
        }
    }

    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.guest + self.monitor + self.host_model + self.idle
    }

    /// Non-idle cycles.
    pub fn busy(&self) -> u64 {
        self.guest + self.monitor + self.host_model
    }

    /// CPU load in `[0, 1]` — the quantity on the paper's y-axis.
    pub fn cpu_load(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.busy() as f64 / total as f64
        }
    }

    /// Difference since an earlier snapshot (for windowed measurements).
    #[must_use]
    pub fn since(&self, earlier: &TimeStats) -> TimeStats {
        TimeStats {
            guest: self.guest - earlier.guest,
            monitor: self.monitor - earlier.monitor,
            host_model: self.host_model - earlier.host_model,
            idle: self.idle - earlier.idle,
        }
    }
}

impl fmt::Display for TimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "guest={} monitor={} host={} idle={} load={:.1}%",
            self.guest,
            self.monitor,
            self.host_model,
            self.idle,
            self.cpu_load() * 100.0
        )
    }
}

/// Outcome of one [`Platform::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformStep {
    /// Progress was made (instruction, idle skip, trap handling, …).
    Running,
    /// The machine can never make progress again (idle with no events, or a
    /// fatal guest/monitor condition). `run_for` stops on this.
    Stuck,
}

/// A way of running the guest OS on a [`Machine`].
///
/// This trait is object-safe so harnesses can sweep over
/// `Box<dyn Platform>` values of all three systems.
///
/// `Send` is a supertrait: a platform owns its whole machine (no shared
/// host state), so it can be handed to another thread — the debug farm
/// shards dozens of platforms across worker threads, and the supertrait
/// makes `Box<dyn Platform>` itself `Send` without per-call-site `+ Send`
/// bounds.
pub trait Platform: Send {
    /// Short platform name, used in reports ("real-hw", "lvmm", "hosted").
    fn name(&self) -> &'static str;

    /// Shared access to the machine.
    fn machine(&self) -> &Machine;

    /// Exclusive access to the machine.
    fn machine_mut(&mut self) -> &mut Machine;

    /// Executes one unit of progress.
    fn step(&mut self) -> PlatformStep;

    /// Like [`Platform::step`], but guaranteed to execute at most one guest
    /// instruction, so the caller can interleave external actions (journal
    /// input injection, exact-cycle probes) at every instruction boundary.
    /// Platforms that batch instructions in `step` override this with the
    /// unbatched path; the behaviours are simulation-identical.
    fn step_precise(&mut self) -> PlatformStep {
        self.step()
    }

    /// The platform's cycle attribution so far.
    fn time_stats(&self) -> &TimeStats;

    /// Runs until this call has consumed at least `cycles` of simulation
    /// time (or the machine gets stuck). Returns the cycles consumed, which
    /// is short of `cycles` exactly when the machine got stuck.
    ///
    /// A step that rewinds the clock (a time-travel command serviced
    /// mid-slice) consumes nothing: the budget counts forward progress in
    /// this call, so a rewound guest runs out the rest of its slice from
    /// the landing cycle, not back up to the cycle it left.
    fn run_for(&mut self, cycles: u64) -> u64 {
        let mut ran = 0;
        let mut now = self.machine().now();
        while ran < cycles {
            if self.step() == PlatformStep::Stuck {
                break;
            }
            let after = self.machine().now();
            ran += after.saturating_sub(now);
            now = after;
        }
        ran
    }

    /// Delivers a received network frame to the guest by whatever path this
    /// platform uses (direct RX ring for passthrough, virtual NIC for the
    /// hosted monitor). Replay drivers use this to re-inject journaled
    /// frames without knowing the platform's device topology.
    fn inject_rx_frame(&mut self, frame: &[u8]) {
        self.machine_mut().nic_inject_rx(frame.to_vec());
    }

    /// Publishes the platform's cumulative totals into `out`, labelled by
    /// platform name. Pure read of simulation state (plus the host-time
    /// self-profiler's accumulators when enabled): every series is a
    /// cumulative total, so publishing into the same snapshot again
    /// overwrites it with the newer totals, and it cannot perturb the run.
    fn publish_metrics(&self, out: &mut MetricsSnapshot) {
        let name = self.name();
        let m = self.machine();
        let t = self.time_stats();
        let key = |metric: &str| format!("{metric}{{platform=\"{name}\"}}");
        let counters = &mut out.counters;
        counters.insert(key("lwvmm_instructions_total"), m.total_instret());
        counters.insert(key("lwvmm_guest_cycles_total"), t.guest);
        counters.insert(key("lwvmm_monitor_cycles_total"), t.monitor);
        counters.insert(key("lwvmm_host_model_cycles_total"), t.host_model);
        counters.insert(key("lwvmm_idle_cycles_total"), t.idle);
        out.gauges.insert(key("lwvmm_cpu_load"), t.cpu_load());
        out.gauges
            .insert(key("lwvmm_sim_now_cycles"), m.now() as f64);
        for (metric, v) in m.cpu.decode_stats().kv() {
            counters.insert(key(metric), v);
        }
        for cause in ExitCause::ALL {
            let h = m.obs.exits.get(cause);
            let labels = format!("platform=\"{name}\",cause=\"{}\"", cause.label());
            counters.insert(format!("lwvmm_exits_total{{{labels}}}"), h.count());
            out.hists
                .insert(format!("lwvmm_exit_cycles{{{labels}}}"), h.clone());
        }
        // Per-core breakdown: instructions retired and exits serviced under a
        // `core` label, so SMP dashboards can spot load imbalance. Core 0
        // alone on single-core machines keeps the schema uniform.
        for n in 0..m.num_cores() {
            let labels = format!("platform=\"{name}\",core=\"{n}\"");
            counters.insert(
                format!("lwvmm_core_instructions_total{{{labels}}}"),
                m.core(n).instret(),
            );
            let exits = m.obs.core_exit_counts().get(n).copied().unwrap_or(0);
            counters.insert(format!("lwvmm_core_exits_total{{{labels}}}"), exits);
        }
        if let Some(c) = m.obs.causal() {
            for class in hx_obs::FlowClass::ALL {
                let h = c.hist(class);
                let labels = format!("platform=\"{name}\",class=\"{}\"", class.label());
                counters.insert(format!("lwvmm_flows_total{{{labels}}}"), h.count());
                out.hists
                    .insert(format!("lwvmm_flow_latency_cycles{{{labels}}}"), h.clone());
            }
        }
        if let Some(j) = m.obs.journal() {
            counters.insert(key("lwvmm_journal_inputs_total"), j.inputs.len() as u64);
            counters.insert(key("lwvmm_journal_events_total"), j.events.len() as u64);
            counters.insert(key("lwvmm_journal_payload_bytes_total"), j.payload_bytes());
        }
        if let Some(att) = m.obs.host_attribution() {
            counters.insert(key("lwvmm_host_wall_ns_total"), att.wall_ns);
            counters.insert(key("lwvmm_host_marks_total"), att.marks);
            for (label, ns) in att.phases() {
                counters.insert(
                    format!("lwvmm_host_phase_ns_total{{platform=\"{name}\",phase=\"{label}\"}}"),
                    ns,
                );
            }
        }
    }
}

/// The real-hardware baseline: no monitor, architectural trap delivery.
///
/// The guest kernel runs in supervisor mode with the chipset to itself —
/// the fastest and least debuggable of the paper's three configurations.
#[derive(Debug)]
pub struct RawPlatform {
    machine: Machine,
    stats: TimeStats,
}

impl RawPlatform {
    /// Wraps a machine (guest image already loaded).
    pub fn new(machine: Machine) -> RawPlatform {
        RawPlatform {
            machine,
            stats: TimeStats::new(),
        }
    }
}

impl crate::engine::ExitPolicy for RawPlatform {
    fn mach(&self) -> &Machine {
        &self.machine
    }

    fn mach_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn time_stats_mut(&mut self) -> &mut TimeStats {
        &mut self.stats
    }

    fn handle_trap(&mut self, trap: Trap) {
        // No monitor: every trap is delivered architecturally to the guest.
        let c = self.machine.deliver_trap(trap);
        self.charge(TimeBucket::Guest, c);
    }

    fn handle_interrupt(&mut self, irq: u8, vector: u8) {
        // Architectural INTA: acknowledging the line and entering the ISR
        // happen in the same step on raw hardware. IPI lines are excluded —
        // their delivery is tracked by the machine's own IPI hook.
        if irq < crate::smp::IRQ_BASE {
            let at = self.machine.now();
            let irq = irq as u32;
            self.machine.obs.emit(at, hx_obs::EventKind::Inta { irq });
        }
        let trap = self.machine.interrupt_trap(vector);
        let c = self.machine.deliver_trap(trap);
        self.charge(TimeBucket::Guest, c);
    }
}

impl Platform for RawPlatform {
    fn name(&self) -> &'static str {
        "real-hw"
    }

    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn time_stats(&self) -> &TimeStats {
        &self.stats
    }

    fn step(&mut self) -> PlatformStep {
        // The profiler needs per-instruction PC boundaries.
        let batch = !self.machine.obs.profiling();
        crate::engine::ExitPolicy::guest_step(self, batch)
    }

    fn step_precise(&mut self) -> PlatformStep {
        crate::engine::ExitPolicy::guest_step(self, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::map;

    #[test]
    fn time_stats_arithmetic() {
        let mut s = TimeStats::new();
        s.charge(TimeBucket::Guest, 60);
        s.charge(TimeBucket::Monitor, 20);
        s.charge(TimeBucket::HostModel, 10);
        s.charge(TimeBucket::Idle, 10);
        assert_eq!(s.total(), 100);
        assert_eq!(s.busy(), 90);
        assert!((s.cpu_load() - 0.9).abs() < 1e-12);
        let snap = s;
        s.charge(TimeBucket::Idle, 100);
        let d = s.since(&snap);
        assert_eq!(d.idle, 100);
        assert_eq!(d.guest, 0);
        assert!(!format!("{s}").is_empty());
        assert_eq!(TimeStats::new().cpu_load(), 0.0);
    }

    #[test]
    fn raw_platform_accounts_all_time() {
        let src = format!(
            "        .org 0x100
             handler:
                     addi s0, s0, 1
                     li   k0, {pic:#x}
                     sw   zero, 0xc(k0)     ; EOI irq 0
                     tret
             start:  la   t0, handler
                     csrw tvec, t0
                     li   t0, {pit:#x}
                     li   t1, 2000
                     sw   t1, 4(t0)
                     li   t1, 3
                     sw   t1, 0(t0)
                     csrw status, 1
             idle:   wfi
                     j    idle
            ",
            pic = map::PIC_BASE,
            pit = map::PIT_BASE,
        );
        let program = hx_asm::assemble(&src).unwrap();
        let mut machine = Machine::new(MachineConfig {
            ram_size: 1 << 20,
            ..MachineConfig::default()
        });
        program.load_into(machine.mem.as_bytes_mut());
        machine.cpu.set_pc(program.symbols.get("start").unwrap());
        let mut hw = RawPlatform::new(machine);
        let start_now = hw.machine().now();
        let ran = hw.run_for(250_000);
        assert!(ran >= 250_000);
        let s = *hw.time_stats();
        // Every simulated cycle is attributed to a bucket.
        assert_eq!(s.total(), hw.machine().now() - start_now);
        // A timer-tick-only workload is mostly idle.
        assert!(s.cpu_load() < 0.2, "load={}", s.cpu_load());
        assert!(s.idle > s.guest);
        assert!(hw.machine().pit.ticks() >= 100);
        assert_eq!(s.monitor, 0);
        assert_eq!(s.host_model, 0);
        assert_eq!(hw.name(), "real-hw");
    }

    #[test]
    fn run_for_stops_when_stuck() {
        let program = hx_asm::assemble("wfi\n").unwrap();
        let mut machine = Machine::new(MachineConfig {
            ram_size: 1 << 20,
            ..MachineConfig::default()
        });
        machine.load_program(&program);
        let mut hw = RawPlatform::new(machine);
        let ran = hw.run_for(1_000_000);
        assert!(
            ran < 1_000_000,
            "wfi with no timer must get stuck, ran {ran}"
        );
    }
}
