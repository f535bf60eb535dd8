//! The machine: CPU + RAM + devices + event scheduler, stepped one
//! instruction at a time with monitor-friendly trap surfacing.

use crate::disk::Hdc;
use crate::event::{Event, EventQueue};
use crate::nic::Nic;
use crate::pic::Hpic;
use crate::pit::Hpit;
use crate::ram::Ram;
use crate::smp::{self, IpiBlock};
use crate::timing;
use crate::uart::Huart;
use hx_asm::Program;
use hx_cpu::trap::{Cause, Trap};
use hx_cpu::{Bus, BusFault, Cpu, MemSize, StepOutcome};
use hx_fault::{FaultInjector, FaultOp, FaultPlan, FaultStats};
use hx_obs::{Dev, EventKind, ExitCause, Recorder, TraceOp};
use std::collections::BTreeMap;

/// Construction parameters for a [`Machine`].
///
/// The defaults model the scaled-down PC documented in `DESIGN.md` §6; all
/// three evaluated platforms must share one config for their CPU loads to be
/// comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Physical RAM size in bytes.
    pub ram_size: usize,
    /// CPU clock in Hz (the unit of all cycle counts).
    pub clock_hz: u64,
    /// Ethernet wire rate in bits/second.
    pub wire_bps: u64,
    /// Per-disk media rate in bytes/second.
    pub disk_bps: u64,
    /// Fixed disk command overhead in cycles.
    pub hdc_cmd_overhead: u64,
    /// NIC TX descriptor fetch delay in cycles.
    pub nic_tx_fetch: u64,
    /// Extra cycles per MMIO register access.
    pub mmio_access_cycles: u64,
    /// Number of vCPUs the machine time-multiplexes (see [`crate::smp`]).
    /// `1` is the bit-identical classic configuration; secondaries start
    /// parked until a startup IPI.
    pub num_cores: usize,
    /// Round-robin scheduler quantum in simulated cycles (multi-core only;
    /// ignored when `num_cores == 1`).
    pub sched_quantum: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            ram_size: 24 * 1024 * 1024,
            clock_hz: timing::DEFAULT_CLOCK_HZ,
            wire_bps: timing::DEFAULT_WIRE_BPS,
            disk_bps: timing::DEFAULT_DISK_BPS,
            hdc_cmd_overhead: timing::DEFAULT_HDC_CMD_OVERHEAD,
            nic_tx_fetch: timing::DEFAULT_NIC_TX_FETCH,
            mmio_access_cycles: timing::MMIO_ACCESS_CYCLES,
            num_cores: 1,
            sched_quantum: Machine::DEFAULT_SCHED_QUANTUM,
        }
    }
}

/// One core's seat at the machine: its parked vCPU plus the per-core run
/// flags the scheduler consults. The *active* core's `Vcpu` lives in
/// [`Machine::cpu`] (swapped in), so `cpu` here is stale for that seat;
/// `waiting`/`started` are authoritative for every core at all times.
#[derive(Debug, Clone)]
struct CoreSeat {
    cpu: Cpu,
    /// The core executed `wfi` (or was parked by a monitor emulating one)
    /// and sleeps until an interrupt or IPI targets it.
    waiting: bool,
    /// Secondaries start unstarted and join at the first startup IPI.
    started: bool,
}

/// What one [`Machine::step`] did.
///
/// Interrupts and traps are surfaced **undelivered**: real hardware
/// ([`crate::RawPlatform`]) vectors them architecturally with
/// [`Machine::deliver_trap`]; a virtual machine monitor intercepts them
/// instead. This is the seam the paper's architecture lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineStep {
    /// One instruction retired (`cycles` includes MMIO penalties).
    Executed {
        /// Cycles the instruction consumed.
        cycles: u64,
    },
    /// The PIC won arbitration: the interrupt was acknowledged (IRR → ISR)
    /// and awaits delivery.
    Interrupt {
        /// The winning request line.
        irq: u8,
        /// The vector the PIC supplied.
        vector: u8,
    },
    /// The instruction raised a trap; not yet delivered.
    Trapped {
        /// The raised trap.
        trap: Trap,
        /// Cycles consumed before recognition.
        cycles: u64,
    },
    /// The CPU was idle (`wfi`) and the clock jumped to the next device
    /// event.
    Idle {
        /// Idle cycles skipped.
        cycles: u64,
    },
    /// The CPU is idle and **no event is pending**: nothing can ever wake
    /// it. Platforms treat this as a hang.
    Stuck,
}

/// Result of one [`Machine::run_batch`]: a run of normally-retired
/// instructions, optionally ended early by something that needs the
/// platform's attention.
///
/// The batch is simulation-equivalent to the same number of individual
/// [`Machine::step`] calls — cycle counts, event firing times, interrupt
/// recognition points and device behaviour are bit-identical — it only
/// amortises the per-step host overhead (event-queue polls, interrupt
/// arbitration, bus construction) over up to [`Machine::BATCH_INSTRS`]
/// instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// Cycles consumed by instructions that retired normally (including the
    /// trailing `wfi` of an idle transition, as in [`MachineStep::Executed`]).
    pub executed: u64,
    /// What ended the batch before the quantum, if anything. Never
    /// [`MachineStep::Executed`].
    pub end: Option<MachineStep>,
}

/// Everything a debugger hooks on one instruction, in
/// the machine's hook table ([`Machine::hook`]): a breakpoint and its
/// condition, and logpoints.
#[derive(Debug, Clone, Default)]
pub struct Hook {
    /// A breakpoint is armed here.
    pub brk: bool,
    /// The breakpoint's condition; `None` stops unconditionally.
    pub cond: Option<hx_query::Expr>,
    /// Logpoints, each firing independently.
    pub logpoints: Vec<Logpoint>,
}

/// A logpoint: when its instruction retires and `cond` (absent: always)
/// is nonzero, a [`hx_obs::EventKind::Log`] event records the value.
#[derive(Debug, Clone)]
pub struct Logpoint {
    /// Free-form label for reports (not journaled).
    pub label: String,
    /// Condition over machine state; `None` fires unconditionally.
    pub cond: Option<hx_query::Expr>,
}

/// The simulated machine.
///
/// Fields are public: monitors legitimately reach into the chipset (that is
/// their job), and tests assert on device state directly.
#[derive(Debug, Clone)]
pub struct Machine {
    /// The processor.
    pub cpu: Cpu,
    /// Physical memory.
    pub mem: Ram,
    /// Interrupt controller.
    pub pic: Hpic,
    /// Interval timer.
    pub pit: Hpit,
    /// Debug-channel UART.
    pub uart: Huart,
    /// Disk controller.
    pub hdc: Hdc,
    /// Network controller.
    pub nic: Nic,
    /// Observability recorder: devices and monitors log trace events and
    /// cycle attribution here. Purely an observer — never feeds back into
    /// simulation state.
    pub obs: Recorder,
    events: EventQueue,
    now: u64,
    /// One seat per core; `seats[active].cpu` is a stale placeholder while
    /// that core's state is swapped into `self.cpu`.
    seats: Vec<CoreSeat>,
    /// Index of the core currently executing (owning `self.cpu`).
    active: usize,
    /// Cycle at which the round-robin scheduler next rotates;
    /// `u64::MAX` for single-core machines (never).
    next_switch_at: u64,
    /// Inter-processor-interrupt block (see [`crate::smp`]).
    ipi: IpiBlock,
    cfg: MachineConfig,
    /// Deterministic fault-injection campaign; `None` unless enabled. Lives
    /// on the machine (and is `Clone`) so flight-recorder snapshots capture
    /// the PRNG mid-campaign and replay the remaining faults identically.
    fault: Option<FaultInjector>,
    /// Campaign gate: while true, due [`Event::FaultInject`] events defer
    /// instead of firing. Monitors raise it while the guest is parked for
    /// debugging — the campaign models faults of a *running* guest, and an
    /// injection landing in a halted one would mutate the exact state the
    /// debugger is inspecting.
    fault_paused: bool,
    /// Breakpoints, their conditions and logpoints by guest virtual
    /// address, checked as the active core fetches ([`Machine::step`]):
    /// guest RAM is never patched. Only the hook operations below edit it.
    hooks: BTreeMap<u32, Hook>,
    /// Per core, the breakpoint it is stepping off, which every other core
    /// still stops on ([`Machine::step_off_breakpoint`]).
    hook_skips: BTreeMap<usize, u32>,
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// The CPU's predecoded-instruction cache is enabled: the machine bus
    /// tracks per-page write generations (stores and DMA), so cached decodes
    /// can never go stale. Results are bit-identical with the cache off.
    pub fn new(cfg: MachineConfig) -> Machine {
        let cores = cfg.num_cores.clamp(1, smp::MAX_CORES);
        let mut cpu = Cpu::new();
        cpu.set_decode_cache(true);
        let seats = (0..cores)
            .map(|i| {
                let mut c = Cpu::new();
                c.set_decode_cache(true);
                CoreSeat {
                    cpu: c,
                    waiting: false,
                    started: i == 0,
                }
            })
            .collect();
        Machine {
            cpu,
            mem: Ram::new(cfg.ram_size),
            pic: Hpic::new(),
            pit: Hpit::new(),
            uart: Huart::new(),
            hdc: Hdc::new(cfg.clock_hz, cfg.disk_bps, cfg.hdc_cmd_overhead),
            nic: Nic::new(cfg.clock_hz, cfg.wire_bps, cfg.nic_tx_fetch),
            obs: Recorder::new(),
            events: EventQueue::new(),
            now: 0,
            seats,
            active: 0,
            next_switch_at: if cores > 1 {
                cfg.sched_quantum.max(1)
            } else {
                u64::MAX
            },
            ipi: IpiBlock::new(cores),
            cfg,
            fault: None,
            fault_paused: false,
            hooks: BTreeMap::new(),
            hook_skips: BTreeMap::new(),
        }
    }

    /// Default round-robin scheduler quantum: long enough that per-switch
    /// bookkeeping is negligible, short enough that cross-core interleaving
    /// is fine-grained relative to device timings (~0.3 ms at 150 MHz).
    pub const DEFAULT_SCHED_QUANTUM: u64 = 50_000;

    /// Number of configured cores.
    pub fn num_cores(&self) -> usize {
        self.seats.len()
    }

    /// Index of the core currently executing.
    pub fn active_core(&self) -> usize {
        self.active
    }

    /// Core `i`'s vCPU state (the active core reads through
    /// [`Machine::cpu`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_cores()`.
    pub fn core(&self, i: usize) -> &Cpu {
        if i == self.active {
            &self.cpu
        } else {
            &self.seats[i].cpu
        }
    }

    /// Mutable access to core `i`'s vCPU state.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_cores()`.
    pub fn core_mut(&mut self, i: usize) -> &mut Cpu {
        if i == self.active {
            &mut self.cpu
        } else {
            &mut self.seats[i].cpu
        }
    }

    /// Whether core `i` has been started (core 0 always; secondaries join
    /// at their first startup IPI).
    pub fn core_started(&self, i: usize) -> bool {
        self.seats[i].started
    }

    /// Instructions retired across every core.
    pub fn total_instret(&self) -> u64 {
        (0..self.seats.len()).map(|i| self.core(i).instret()).sum()
    }

    /// The IPI block (pending masks, entry register).
    pub fn ipi(&self) -> &IpiBlock {
        &self.ipi
    }

    /// Sends an IPI exactly as a guest `IPI_SEND` store would: delivery is
    /// scheduled [`smp::LATENCY`] cycles out on the event queue. Monitors
    /// emulating the IPI registers for a deprivileged guest route through
    /// here so virtual and raw timing agree. Returns `false` (and does
    /// nothing) for an invalid target or line.
    pub fn ipi_send(&mut self, target: u8, line: u8) -> bool {
        if (target as usize) >= self.seats.len() || line >= 8 {
            return false;
        }
        let ev = EventKind::IpiSend {
            target,
            line: line.into(),
        };
        self.obs.emit(self.now, ev);
        self.events
            .schedule(self.now + smp::LATENCY, Event::Ipi { target, line });
        true
    }

    /// The startup-entry register (`IPI_ENTRY`).
    pub fn ipi_entry(&self) -> u32 {
        self.ipi.entry
    }

    /// Sets the startup-entry register (monitor emulation of `IPI_ENTRY`).
    pub fn set_ipi_entry(&mut self, entry: u32) {
        self.ipi.entry = entry;
    }

    /// Parks the **active** core as if it executed `wfi` — monitors use
    /// this when emulating a guest `wfi` on a multi-core machine so the
    /// scheduler runs the remaining cores instead of idling the clock.
    pub fn park_active(&mut self) {
        self.seats[self.active].waiting = true;
    }

    /// Clears core `i`'s parked state (monitor-side virtual wake).
    pub fn wake_core(&mut self, i: usize) {
        self.seats[i].waiting = false;
    }

    /// Resets the SMP bookkeeping to its power-on state: core 0 active and
    /// started, secondaries stopped, no IPIs pending, the scheduler quantum
    /// restarted from now. Per-core register state is the caller's to
    /// rebuild (monitors recreate their vCPUs on a guest reset).
    pub fn smp_reset(&mut self) {
        // Swap core 0 back into the execution seat first: `seats[active]`
        // holds a stale placeholder while that core's state is in
        // `self.cpu`, so flag surgery below must happen with the seats
        // coherent.
        self.switch_to(0);
        for (i, seat) in self.seats.iter_mut().enumerate() {
            seat.started = i == 0;
            seat.waiting = false;
        }
        let n = self.seats.len();
        self.ipi = IpiBlock::new(n);
        self.next_switch_at = if n > 1 {
            self.now + self.cfg.sched_quantum.max(1)
        } else {
            u64::MAX
        };
    }

    /// True when the active core should not execute instructions.
    fn waiting(&self) -> bool {
        self.seats[self.active].waiting
    }

    /// Wake condition for a parked core: the global PIC only reaches core 0
    /// (board wiring); IPIs reach their target.
    fn wake_condition(&self, i: usize) -> bool {
        (i == 0 && self.pic.line_asserted()) || self.ipi.pending[i] != 0
    }

    /// Swaps core `to` into the execution seat.
    fn switch_to(&mut self, to: usize) {
        if to == self.active {
            return;
        }
        let from = self.active;
        std::mem::swap(&mut self.cpu, &mut self.seats[from].cpu);
        std::mem::swap(&mut self.cpu, &mut self.seats[to].cpu);
        self.active = to;
        self.obs.set_active_core(to as u8);
    }

    /// Rotates to the next runnable core once the quantum expires. The
    /// quantum restarts whether or not another core was runnable, so a lone
    /// runnable core re-checks its siblings every quantum.
    fn maybe_rotate(&mut self) {
        if self.now < self.next_switch_at {
            return;
        }
        self.next_switch_at = self.now + self.cfg.sched_quantum.max(1);
        let n = self.seats.len();
        for k in 1..n {
            let i = (self.active + k) % n;
            if self.seats[i].started && !self.seats[i].waiting {
                self.switch_to(i);
                return;
            }
        }
    }

    /// Interrupt arbitration for the active core: local IPIs first (higher
    /// priority, they model the APIC), then the global PIC on core 0 only.
    fn poll_interrupt(&mut self) -> Option<(u8, u8)> {
        let pend = self.ipi.pending[self.active];
        if pend != 0 {
            let line = pend.trailing_zeros() as u8;
            self.ipi.pending[self.active] &= !(1 << line);
            self.ipi.delivered += 1;
            return Some((smp::IRQ_BASE + line, smp::VECTOR_BASE + line));
        }
        if self.active == 0 {
            self.pic.inta()
        } else {
            None
        }
    }

    /// The common preamble of [`Machine::step`] and [`Machine::run_batch`]:
    /// fire due events, rotate cores at quantum boundaries, resolve the
    /// parked state, and arbitrate interrupts. Returns `Some` when the step
    /// is already decided without executing an instruction.
    fn schedule_point(&mut self) -> Option<MachineStep> {
        self.process_due_events();
        self.maybe_rotate();

        if self.waiting() {
            if self.wake_condition(self.active) {
                self.seats[self.active].waiting = false;
            } else if let Some(other) = self.next_runnable_other() {
                // The active core sleeps but a sibling can run: hand the
                // seat over immediately instead of idling the clock.
                self.switch_to(other);
                self.next_switch_at = self.now + self.cfg.sched_quantum.max(1);
            } else {
                let Some(due) = self.events.next_due() else {
                    return Some(MachineStep::Stuck);
                };
                let idle = due - self.now;
                self.now = due;
                self.cpu.add_cycles(idle);
                self.process_due_events();
                return Some(MachineStep::Idle { cycles: idle });
            }
        }

        if self.cpu.interrupts_enabled() {
            if let Some((irq, vector)) = self.poll_interrupt() {
                return Some(MachineStep::Interrupt { irq, vector });
            }
        }
        None
    }

    /// A started, non-waiting core other than the active one, in
    /// round-robin order.
    fn next_runnable_other(&self) -> Option<usize> {
        let n = self.seats.len();
        (1..n)
            .map(|k| (self.active + k) % n)
            .find(|&i| self.seats[i].started && !self.seats[i].waiting)
    }

    /// Delivers one due [`Event::Ipi`]: line 0 starts (or wakes) the
    /// target; other lines latch into its pending mask. Either way the
    /// target leaves `wfi`.
    fn ipi_deliver(&mut self, at: u64, target: u8, line: u8) {
        let t = target as usize;
        if t >= self.seats.len() {
            return;
        }
        if line == 0 {
            if !self.seats[t].started {
                self.seats[t].started = true;
                let entry = self.ipi.entry;
                self.core_mut(t).set_pc(entry);
            }
        } else {
            self.ipi.pending[t] |= 1 << line;
        }
        self.seats[t].waiting = false;
        let irq = ((t as u32) << 8) | (smp::IRQ_BASE + line) as u32;
        self.obs.emit(at, EventKind::Irq { dev: Dev::Pic, irq });
        let line = line as u32;
        self.obs.emit(at, EventKind::IpiDeliver { target, line });
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulation time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Pending event count (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Loads an assembled image into RAM and points the CPU at its base.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in RAM.
    pub fn load_program(&mut self, program: &Program) {
        program.load_into(self.mem.as_bytes_mut());
        self.cpu.set_pc(program.base());
    }

    /// Host → target bytes on the debug UART.
    pub fn uart_input(&mut self, bytes: &[u8]) {
        if self.obs.journaling() {
            self.obs
                .journal_input(self.now, hx_obs::JournalInput::UartRx(bytes.to_vec()));
        }
        self.uart.push_rx(bytes, &mut self.pic);
        if self.uart.rx_irq_enabled() {
            let (dev, irq) = (Dev::Uart, crate::map::irq::UART as u32);
            self.obs.emit(self.now, EventKind::Irq { dev, irq });
        }
        self.seats[0].waiting = false; // UART IRQ is wired to core 0: wake it
    }

    /// Target → host bytes on the debug UART.
    pub fn uart_output(&mut self) -> Vec<u8> {
        self.uart.drain_tx()
    }

    /// Injects a received network frame (delivered via the RX ring).
    pub fn nic_inject_rx(&mut self, frame: Vec<u8>) {
        if self.obs.journaling() {
            self.obs
                .journal_input(self.now, hx_obs::JournalInput::NicRx(frame.clone()));
        }
        self.nic.inject_rx(frame, self.now, &mut self.events);
    }

    /// Default IRQ-storm line set: every device line except the debug UART
    /// (storming the stub's own channel would conflate link faults with
    /// guest faults).
    pub const STORM_LINES_DEFAULT: u8 = 0b0111_1101;

    /// The exit recorded per blocked wild attempt: 96 monitor-side cycles,
    /// the cost of the protection fault the attempt would raise under a
    /// monitor.
    const PROTECTION_EXIT: EventKind = EventKind::VmExit {
        cause: ExitCause::Protection,
        cycles: 96,
    };

    /// Re-poll cadence for a fault campaign held by [`Machine::pause_faults`].
    const FAULT_PAUSE_RETRY: u64 = 1_024;

    /// Arms a deterministic fault-injection campaign.
    ///
    /// Faults fire as [`Event::FaultInject`] on the machine's own event
    /// queue, so an injected run is still a pure function of (program, plan)
    /// and batched vs single-stepped execution stays bit-identical. A
    /// `storm_lines` of 0 in the plan is replaced with
    /// [`Machine::STORM_LINES_DEFAULT`].
    pub fn enable_fault_injection(&mut self, mut plan: FaultPlan) {
        if plan.storm_lines == 0 {
            plan.storm_lines = Self::STORM_LINES_DEFAULT;
        }
        let mut inj = FaultInjector::new(plan);
        self.events
            .schedule(self.now + inj.first_delay(), Event::FaultInject);
        self.fault = Some(inj);
    }

    /// Campaign counters, when fault injection is armed.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault.as_ref().map(|f| &f.stats)
    }

    /// Gates the fault campaign. While paused, due injection events defer
    /// (without consuming the plan's PRNG) until the campaign is resumed —
    /// monitors pause it whenever they park the guest so that inspecting a
    /// stopped machine never mutates it.
    pub fn pause_faults(&mut self, paused: bool) {
        self.fault_paused = paused;
    }

    /// The hook armed at `addr`, if any. Batches end before such a slot.
    pub fn hook(&self, addr: u32) -> Option<&Hook> {
        self.hooks.get(&addr)
    }

    /// Is a breakpoint armed at `addr`?
    pub fn has_breakpoint(&self, addr: u32) -> bool {
        self.hooks.get(&addr).is_some_and(|h| h.brk)
    }

    /// Arms a breakpoint at `addr` that stops when `cond` holds (`None`:
    /// always), replacing the condition of one already armed there.
    pub fn set_breakpoint(&mut self, addr: u32, cond: Option<hx_query::Expr>) {
        let hook = self.hooks.entry(addr).or_default();
        (hook.brk, hook.cond) = (true, cond);
    }

    /// Disarms the breakpoint at `addr` with its condition and any core's
    /// pending step-off; false if none is armed there.
    pub fn clear_breakpoint(&mut self, addr: u32) -> bool {
        let Some(hook) = self.hooks.get_mut(&addr).filter(|h| h.brk) else {
            return false;
        };
        (hook.brk, hook.cond) = (false, None);
        self.hook_skips.retain(|_, at| *at != addr);
        self.prune_hooks();
        true
    }

    /// Arms a logpoint at `addr` in the hook table. Multiple logpoints may
    /// share an address; each fires independently.
    pub fn add_logpoint(&mut self, addr: u32, label: &str, cond: Option<hx_query::Expr>) {
        let (hook, label) = (self.hooks.entry(addr).or_default(), label.into());
        hook.logpoints.push(Logpoint { label, cond });
    }

    /// Disarms every logpoint at `addr`; false if none is armed there.
    pub fn clear_logpoints(&mut self, addr: u32) -> bool {
        let hook = self.hooks.get_mut(&addr);
        let Some(hook) = hook.filter(|h| !h.logpoints.is_empty()) else {
            return false;
        };
        hook.logpoints.clear();
        self.prune_hooks();
        true
    }

    /// Drops entries with nothing hooked: they would only slow batches.
    fn prune_hooks(&mut self) {
        self.hooks.retain(|_, h| h.brk || !h.logpoints.is_empty());
    }

    /// Lets the active core pass the breakpoint under its PC, if any, until
    /// it retires an instruction or fetches another PC: an instruction that
    /// faults and is retried in place (a shadow fill) has not left yet.
    pub fn step_off_breakpoint(&mut self) {
        let pc = self.cpu.pc();
        if self.has_breakpoint(pc) {
            self.hook_skips.insert(self.active, pc);
        }
    }

    /// Evaluates armed logpoints against the instruction at `pc` that just
    /// retired. A hit (condition absent or nonzero) records a trace/journal
    /// event carrying the condition value; an unmapped memory operand is a
    /// silent miss. Pure observation — no machine state changes.
    pub fn note_logpoints(&mut self, pc: u32) {
        let Some(hook) = self.hooks.get(&pc) else {
            return;
        };
        let mut ctx = hx_query::SliceCtx::new(self.mem.as_bytes(), self.cpu.regs(), pc, self.now);
        for lp in &hook.logpoints {
            let value = match &lp.cond {
                None => 1,
                Some(e) => match e.eval(&mut ctx) {
                    Some(v) => v,
                    None => continue,
                },
            };
            if value != 0 {
                self.obs.emit(self.now, EventKind::Log { addr: pc, value });
            }
        }
    }

    /// Handles one due [`Event::FaultInject`]: draws the next planned fault,
    /// applies it against the devices/RAM, and schedules the next one.
    fn apply_fault(&mut self, at: u64) {
        let Some(inj) = self.fault.as_mut() else {
            return;
        };
        if self.fault_paused {
            // Parked guest: hold the campaign without advancing its PRNG so
            // the post-resume schedule stays a pure function of the plan.
            self.events
                .schedule(at + Self::FAULT_PAUSE_RETRY, Event::FaultInject);
            return;
        }
        let planned = inj.next_fault();
        let delay = inj.next_delay();
        self.events.schedule(at + delay, Event::FaultInject);
        let Some(pf) = planned else {
            return;
        };
        let code = pf.kind.code();
        match pf.op {
            FaultOp::WildWrite { addr, val } => {
                self.obs.emit(at, EventKind::Fault { code, arg: addr });
                if self.fault.as_mut().unwrap().check_wild(addr) {
                    let _ = self.mem.dma_write(addr, &val.to_le_bytes());
                } else {
                    self.obs.emit(at, Self::PROTECTION_EXIT);
                }
            }
            FaultOp::IrqBurst { lines } => {
                let arg = u32::from(lines);
                self.obs.emit(at, EventKind::Fault { code, arg });
                for irq in 0..8u8 {
                    if lines & (1 << irq) != 0 {
                        self.pic.assert_irq(irq);
                        let irq = irq as u32;
                        self.obs.emit(at, EventKind::Irq { dev: Dev::Pic, irq });
                    }
                }
            }
            FaultOp::DmaSplat { addr, seed } => {
                self.obs.emit(at, EventKind::Fault { code, arg: addr });
                if self.fault.as_mut().unwrap().check_wild(addr) {
                    let _ = self.mem.dma_write(addr, &hx_fault::splat_pattern(seed));
                } else {
                    self.obs.emit(at, Self::PROTECTION_EXIT);
                }
            }
            FaultOp::DiskError { unit } => {
                let arg = u32::from(unit);
                self.obs.emit(at, EventKind::Fault { code, arg });
                self.hdc
                    .inject_error_completion(unit, at, &mut self.pic, &mut self.obs);
            }
            FaultOp::NicError => {
                self.obs.emit(at, EventKind::Fault { code, arg: 0 });
                self.nic
                    .inject_error_completion(at, &mut self.pic, &mut self.obs);
            }
            FaultOp::RacyIncrement { addr } => {
                // A lost update: write back the counter's previous value, as
                // if another core's stale read-modify-write landed after the
                // owner's increment. Silent — no trap, no protection exit —
                // so only replay divergence can catch it.
                self.obs.emit(at, EventKind::Fault { code, arg: addr });
                let a = addr as usize;
                let bytes = self.mem.as_bytes();
                if a + 4 <= bytes.len() {
                    let val = u32::from_le_bytes(bytes[a..a + 4].try_into().unwrap());
                    if val != 0 {
                        let _ = self.mem.dma_write(addr, &val.wrapping_sub(1).to_le_bytes());
                    }
                }
            }
        }
    }

    fn process_due_events(&mut self) {
        while let Some((at, ev)) = self.events.pop_due(self.now) {
            match ev {
                Event::PitTick => {
                    self.pit
                        .on_tick(at, &mut self.pic, &mut self.events, &mut self.obs)
                }
                Event::HdcComplete { unit } => {
                    self.hdc
                        .on_complete(unit, at, &mut self.mem, &mut self.pic, &mut self.obs)
                }
                Event::NicTxKick => self.nic.on_tx_kick(
                    self.now,
                    &mut self.mem,
                    &mut self.pic,
                    &mut self.events,
                    &mut self.obs,
                ),
                Event::NicTxDone => self.nic.on_tx_done(
                    self.now,
                    &mut self.mem,
                    &mut self.pic,
                    &mut self.events,
                    &mut self.obs,
                ),
                Event::NicRxDeliver => {
                    self.nic
                        .on_rx_deliver(self.now, &mut self.mem, &mut self.pic, &mut self.obs)
                }
                Event::FaultInject => self.apply_fault(at),
                Event::Ipi { target, line } => self.ipi_deliver(at, target, line),
            }
        }
    }

    /// Advances the clock by externally-accounted cycles (monitor or
    /// host-model execution time) and lets device events that became due
    /// fire. The guest-visible cycle counter advances too — the monitor runs
    /// on the same CPU.
    pub fn consume(&mut self, cycles: u64) {
        self.now += cycles;
        self.cpu.add_cycles(cycles);
        self.process_due_events();
    }

    /// Jumps the clock to the next pending device event and processes it,
    /// without executing guest instructions — used by monitors emulating a
    /// guest `wfi`. Returns the idle cycles skipped, or `None` when no event
    /// is pending (the machine can never wake on its own).
    pub fn skip_to_next_event(&mut self) -> Option<u64> {
        let due = self.events.next_due()?;
        let dt = due.saturating_sub(self.now);
        self.now = due;
        self.cpu.add_cycles(dt);
        self.process_due_events();
        Some(dt)
    }

    /// Delivers a trap architecturally through the CPU and advances time by
    /// the trap-entry cost. Returns the cycles charged.
    pub fn deliver_trap(&mut self, trap: Trap) -> u64 {
        self.seats[self.active].waiting = false;
        let c = self.cpu.take_trap(trap);
        self.now += c;
        self.process_due_events();
        c
    }

    /// Builds the interrupt trap for a vector produced by
    /// [`MachineStep::Interrupt`].
    pub fn interrupt_trap(&self, vector: u8) -> Trap {
        Trap::new(Cause::Interrupt, self.cpu.pc(), vector as u32)
    }

    /// Executes one machine step. See [`MachineStep`] for the contract.
    ///
    /// A breakpoint armed at the PC raises its trap
    /// ([`hx_cpu::Cpu::hook_trap`]) unless this core is stepping off it
    /// ([`Machine::step_off_breakpoint`]).
    pub fn step(&mut self) -> MachineStep {
        if let Some(decided) = self.schedule_point() {
            return decided;
        }
        let pc = self.cpu.pc();
        let skipped = self.hook_skips.get(&self.active) == Some(&pc);
        if !skipped {
            self.hook_skips.remove(&self.active);
        }
        let hook = !skipped && self.has_breakpoint(pc);
        let instret = self.cpu.instret();

        let mut bus = MachineBus {
            mem: &mut self.mem,
            pic: &mut self.pic,
            pit: &mut self.pit,
            uart: &mut self.uart,
            hdc: &mut self.hdc,
            nic: &mut self.nic,
            events: &mut self.events,
            obs: &mut self.obs,
            ipi: &mut self.ipi,
            active: self.active as u32,
            num_cores: self.seats.len() as u32,
            now: self.now,
            mmio_extra: 0,
            mmio_cost: self.cfg.mmio_access_cycles,
        };
        let outcome = if hook {
            self.cpu.hook_trap(&mut bus)
        } else {
            self.cpu.step(&mut bus)
        };
        let extra = bus.mmio_extra;
        if extra > 0 {
            self.cpu.add_cycles(extra);
        }
        if skipped && self.cpu.instret() != instret {
            self.hook_skips.remove(&self.active);
        }
        match outcome {
            StepOutcome::Executed { cycles } => {
                self.now += cycles + extra;
                self.process_due_events();
                MachineStep::Executed {
                    cycles: cycles + extra,
                }
            }
            StepOutcome::Wfi { cycles } => {
                self.now += cycles + extra;
                self.seats[self.active].waiting = true;
                self.process_due_events();
                MachineStep::Executed {
                    cycles: cycles + extra,
                }
            }
            StepOutcome::Trapped { trap, cycles } => {
                self.now += cycles + extra;
                self.process_due_events();
                MachineStep::Trapped {
                    trap,
                    cycles: cycles + extra,
                }
            }
        }
    }

    /// Instructions per [`Machine::run_batch`] quantum.
    ///
    /// Bounds how far a batch can overrun a `run_for` target (a few hundred
    /// cycles — well under a microsecond of simulated time), while amortising
    /// per-step polling enough that larger quanta stop paying.
    pub const BATCH_INSTRS: u32 = 64;

    /// Executes up to [`Machine::BATCH_INSTRS`] instructions as one batch.
    /// See [`Batch`] for the contract.
    ///
    /// A batch ends early — with `end` set — for exactly the conditions a
    /// per-instruction loop would have had to notice between steps:
    /// an interrupt won arbitration, an instruction trapped, the CPU went
    /// idle, or the machine is stuck. It also ends (with `end == None`)
    /// whenever something could invalidate the once-per-batch polls: a
    /// pending device event coming due, or any MMIO access (which can change
    /// interrupt and event state). While the PIC's INTR line is latched,
    /// batching is disabled entirely — a single instruction can turn
    /// interrupts on and make the request deliverable. It also ends before
    /// fetching any hooked slot ([`Machine::hook`]), for [`Machine::step`].
    pub fn run_batch(&mut self) -> Batch {
        if let Some(decided) = self.schedule_point() {
            return Batch {
                executed: 0,
                end: Some(decided),
            };
        }

        // IRR/IMR/ISR only change through MMIO, device events or external
        // injection — never through plain instructions — so `line_asserted`
        // cannot *rise* inside a batch. It can already be up with interrupts
        // masked, though, and any instruction may unmask them: single-step
        // through that window. Same for a pending IPI on the active core.
        let quantum = if (self.active == 0 && self.pic.line_asserted())
            || self.ipi.pending[self.active] != 0
        {
            1
        } else {
            Self::BATCH_INSTRS
        };
        // The batch must also break at the scheduler's next rotation point so
        // batched and single-stepped runs switch cores at the same cycle.
        let mut horizon = self.events.next_due();
        if self.next_switch_at != u64::MAX {
            horizon = Some(horizon.map_or(self.next_switch_at, |h| h.min(self.next_switch_at)));
        }

        let mut bus = MachineBus {
            mem: &mut self.mem,
            pic: &mut self.pic,
            pit: &mut self.pit,
            uart: &mut self.uart,
            hdc: &mut self.hdc,
            nic: &mut self.nic,
            events: &mut self.events,
            obs: &mut self.obs,
            ipi: &mut self.ipi,
            active: self.active as u32,
            num_cores: self.seats.len() as u32,
            now: self.now,
            mmio_extra: 0,
            mmio_cost: self.cfg.mmio_access_cycles,
        };
        let mut executed = 0u64;
        let mut end = None;
        let hooked = !self.hooks.is_empty();
        for _ in 0..quantum {
            if hooked {
                if self.hooks.contains_key(&self.cpu.pc()) {
                    break;
                }
                // An unhooked PC is not a step-off's address: the core left.
                self.hook_skips.remove(&self.active);
            }
            bus.now = self.now;
            let outcome = self.cpu.step(&mut bus);
            let extra = bus.mmio_extra;
            bus.mmio_extra = 0;
            if extra > 0 {
                self.cpu.add_cycles(extra);
            }
            match outcome {
                StepOutcome::Executed { cycles } => {
                    self.now += cycles + extra;
                    executed += cycles + extra;
                    // MMIO may have scheduled events, raised interrupt
                    // lines or changed masks; a due event must fire before
                    // the next instruction. Either way the batch polls are
                    // stale: hand back to the platform.
                    if extra > 0 || horizon.is_some_and(|due| self.now >= due) {
                        break;
                    }
                }
                StepOutcome::Wfi { cycles } => {
                    self.now += cycles + extra;
                    executed += cycles + extra;
                    self.seats[self.active].waiting = true;
                    break;
                }
                StepOutcome::Trapped { trap, cycles } => {
                    self.now += cycles + extra;
                    end = Some(MachineStep::Trapped {
                        trap,
                        cycles: cycles + extra,
                    });
                    break;
                }
            }
        }
        self.process_due_events();
        Batch { executed, end }
    }

    /// Performs a bus read the way the CPU would (monitor emulation and
    /// debugger use). MMIO side effects apply; no cycles are charged.
    ///
    /// # Errors
    ///
    /// Propagates the device's [`BusFault`].
    pub fn bus_read(&mut self, paddr: u32, size: MemSize) -> Result<u32, BusFault> {
        let mut bus = MachineBus {
            mem: &mut self.mem,
            pic: &mut self.pic,
            pit: &mut self.pit,
            uart: &mut self.uart,
            hdc: &mut self.hdc,
            nic: &mut self.nic,
            events: &mut self.events,
            obs: &mut self.obs,
            ipi: &mut self.ipi,
            active: self.active as u32,
            num_cores: self.seats.len() as u32,
            now: self.now,
            mmio_extra: 0,
            mmio_cost: 0,
        };
        bus.read(paddr, size)
    }

    /// Performs a bus write the way the CPU would. See [`Machine::bus_read`].
    ///
    /// # Errors
    ///
    /// Propagates the device's [`BusFault`].
    pub fn bus_write(&mut self, paddr: u32, val: u32, size: MemSize) -> Result<(), BusFault> {
        let mut bus = MachineBus {
            mem: &mut self.mem,
            pic: &mut self.pic,
            pit: &mut self.pit,
            uart: &mut self.uart,
            hdc: &mut self.hdc,
            nic: &mut self.nic,
            events: &mut self.events,
            obs: &mut self.obs,
            ipi: &mut self.ipi,
            active: self.active as u32,
            num_cores: self.seats.len() as u32,
            now: self.now,
            mmio_extra: 0,
            mmio_cost: 0,
        };
        bus.write(paddr, val, size)
    }

    /// A [`Bus`] view over this machine, for code that needs to run CPU
    /// steps manually (the monitors' single-step paths).
    pub fn bus(&mut self) -> MachineBus<'_> {
        MachineBus {
            mem: &mut self.mem,
            pic: &mut self.pic,
            pit: &mut self.pit,
            uart: &mut self.uart,
            hdc: &mut self.hdc,
            nic: &mut self.nic,
            events: &mut self.events,
            obs: &mut self.obs,
            ipi: &mut self.ipi,
            active: self.active as u32,
            num_cores: self.seats.len() as u32,
            now: self.now,
            mmio_extra: 0,
            mmio_cost: self.cfg.mmio_access_cycles,
        }
    }
}

/// The system bus: routes physical accesses to RAM or device registers.
#[derive(Debug)]
pub struct MachineBus<'a> {
    mem: &'a mut Ram,
    pic: &'a mut Hpic,
    pit: &'a mut Hpit,
    uart: &'a mut Huart,
    hdc: &'a mut Hdc,
    nic: &'a mut Nic,
    events: &'a mut EventQueue,
    obs: &'a mut Recorder,
    ipi: &'a mut IpiBlock,
    /// Index of the core issuing accesses (answers `CORE_ID` reads).
    active: u32,
    num_cores: u32,
    now: u64,
    mmio_extra: u64,
    mmio_cost: u64,
}

impl MachineBus<'_> {
    /// Extra cycles accumulated by MMIO accesses since construction.
    pub fn mmio_extra(&self) -> u64 {
        self.mmio_extra
    }

    fn device_page(paddr: u32) -> Option<(u32, u32)> {
        use crate::map::*;
        if paddr < MMIO_BASE {
            return None;
        }
        let page = paddr & !(DEV_PAGE - 1);
        let offset = paddr & (DEV_PAGE - 1);
        Some((page, offset))
    }
}

impl Bus for MachineBus<'_> {
    fn read(&mut self, paddr: u32, size: MemSize) -> Result<u32, BusFault> {
        if (paddr as usize) < self.mem.len() {
            return self.mem.read(paddr, size);
        }
        let (page, off) = Self::device_page(paddr).ok_or(BusFault::Unmapped)?;
        self.mmio_extra += self.mmio_cost;
        use crate::map::*;
        match page {
            // The IPI block shares the PIC's page, above the 8259 registers.
            PIC_BASE if off >= smp::reg::SEND => {
                if size != MemSize::Word {
                    return Err(BusFault::Denied);
                }
                match off {
                    smp::reg::ENTRY => Ok(self.ipi.entry),
                    smp::reg::CORE_ID => Ok(self.active),
                    smp::reg::NUM_CORES => Ok(self.num_cores),
                    _ => Err(BusFault::Denied),
                }
            }
            PIC_BASE => self.pic.read_reg(off, size),
            PIT_BASE => self.pit.read_reg(off, size, self.now),
            UART_BASE => self.uart.read_reg(off, size),
            HDC_BASE => self.hdc.read_reg(off, size),
            NIC_BASE => self.nic.read_reg(off, size),
            // Tracepoint registers are write-only; reads see zero so probing
            // code can run unchanged with or without a consumer attached.
            TRACE_BASE if off <= trace::INSTANT => {
                if size == MemSize::Word {
                    Ok(0)
                } else {
                    Err(BusFault::Denied)
                }
            }
            _ => Err(BusFault::Unmapped),
        }
    }

    fn write(&mut self, paddr: u32, val: u32, size: MemSize) -> Result<(), BusFault> {
        if (paddr as usize) < self.mem.len() {
            return self.mem.write(paddr, val, size);
        }
        let (page, off) = Self::device_page(paddr).ok_or(BusFault::Unmapped)?;
        self.mmio_extra += self.mmio_cost;
        use crate::map::*;
        let res = match page {
            PIC_BASE if off >= smp::reg::SEND => {
                if size != MemSize::Word {
                    Err(BusFault::Denied)
                } else {
                    match off {
                        smp::reg::SEND => {
                            let target = val & 0xff;
                            let line = (val >> 8) & 0xff;
                            if target >= self.num_cores || line >= 8 {
                                Err(BusFault::Denied)
                            } else {
                                let target = target as u8;
                                self.obs.emit(self.now, EventKind::IpiSend { target, line });
                                let line = line as u8;
                                self.events
                                    .schedule(self.now + smp::LATENCY, Event::Ipi { target, line });
                                Ok(())
                            }
                        }
                        smp::reg::ENTRY => {
                            self.ipi.entry = val;
                            Ok(())
                        }
                        _ => Err(BusFault::Denied),
                    }
                }
            }
            PIC_BASE => self.pic.write_reg(off, val, size),
            PIT_BASE => self.pit.write_reg(off, val, size, self.now, self.events),
            UART_BASE => self.uart.write_reg(off, val, size),
            HDC_BASE => self.hdc.write_reg(off, val, size, self.now, self.events),
            NIC_BASE => self.nic.write_reg(off, val, size, self.now, self.events),
            TRACE_BASE if off <= trace::INSTANT => {
                if size == MemSize::Word {
                    Ok(())
                } else {
                    Err(BusFault::Denied)
                }
            }
            _ => Err(BusFault::Unmapped),
        };
        if res.is_ok() {
            // Doorbell writes (registers that kick a device into action) are
            // trace-worthy: they delimit guest I/O submissions.
            let ev = match (page, off) {
                (NIC_BASE, crate::nic::reg::TX_TAIL | crate::nic::reg::RX_TAIL) => {
                    EventKind::Doorbell {
                        dev: Dev::Nic,
                        reg: off,
                    }
                }
                (HDC_BASE, _) if off % 0x40 == crate::disk::reg::CMD => EventKind::Doorbell {
                    dev: Dev::Hdc,
                    reg: off,
                },
                (PIC_BASE, smp::reg::SEND) => EventKind::Doorbell {
                    dev: Dev::Pic,
                    reg: off,
                },
                // Retiring an ISR closes the INTA→EOI service flow.
                (PIC_BASE, crate::pic::reg::EOI) => EventKind::Eoi,
                (TRACE_BASE, _) => {
                    let op = match off {
                        trace::BEGIN => TraceOp::Begin,
                        trace::END => TraceOp::End,
                        _ => TraceOp::Instant,
                    };
                    EventKind::Trace { op, id: val }
                }
                _ => return res,
            };
            self.obs.emit(self.now, ev);
        }
        res
    }

    fn fetch_page_generation(&mut self, paddr: u32) -> Option<u64> {
        // Only RAM fetches are cacheable; device pages (which can have fetch
        // side effects and extra MMIO cycles) stay on the slow path.
        self.mem.page_generation(paddr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map;

    fn machine_with(src: &str) -> Machine {
        let program = hx_asm::assemble(src).expect("test program assembles");
        let mut m = Machine::new(MachineConfig {
            ram_size: 1 << 20,
            ..MachineConfig::default()
        });
        m.load_program(&program);
        m
    }

    /// Steps, delivering traps/interrupts architecturally (raw-hardware
    /// behaviour), until `pred` or a step budget runs out.
    fn run_until(m: &mut Machine, budget: usize, mut pred: impl FnMut(&Machine) -> bool) {
        for _ in 0..budget {
            if pred(m) {
                return;
            }
            match m.step() {
                MachineStep::Executed { .. } | MachineStep::Idle { .. } => {}
                MachineStep::Interrupt { vector, .. } => {
                    let t = m.interrupt_trap(vector);
                    m.deliver_trap(t);
                }
                MachineStep::Trapped { trap, .. } => {
                    m.deliver_trap(trap);
                }
                MachineStep::Stuck => panic!("machine stuck"),
            }
        }
        panic!("predicate not reached within budget");
    }

    #[test]
    fn mmio_access_costs_more() {
        let mut m = machine_with(
            "li t0, 0xf0000008\n lw t1, 0(t0)\n lw t2, 0x100(zero)\n", // PIC IMR read then RAM read
        );
        m.step(); // lui
        m.step(); // ori
        let c_mmio = match m.step() {
            MachineStep::Executed { cycles } => cycles,
            other => panic!("{other:?}"),
        };
        let c_ram = match m.step() {
            MachineStep::Executed { cycles } => cycles,
            other => panic!("{other:?}"),
        };
        assert!(c_mmio > c_ram, "MMIO {c_mmio} vs RAM {c_ram}");
    }

    #[test]
    fn timer_interrupt_reaches_handler() {
        // Handler increments s0 and retires; main programs the PIT and idles.
        let src = format!(
            "        .org 0x100
             handler:
                     addi s0, s0, 1
                     li   k0, {pic:#x}
                     li   k1, {pit_irq}
                     sw   k1, 0xc(k0)      ; EOI
                     tret
             start:  la   t0, handler
                     csrw tvec, t0
                     li   t0, {pit:#x}
                     li   t1, 500
                     sw   t1, 4(t0)        ; reload
                     li   t1, 3
                     sw   t1, 0(t0)        ; enable periodic
                     csrw status, 1        ; IE
             idle:   wfi
                     j    idle
            ",
            pic = map::PIC_BASE,
            pit = map::PIT_BASE,
            pit_irq = map::irq::PIT,
        );
        let program = hx_asm::assemble(&src).unwrap();
        let mut m = Machine::new(MachineConfig {
            ram_size: 1 << 20,
            ..MachineConfig::default()
        });
        program.load_into(m.mem.as_bytes_mut());
        m.cpu.set_pc(program.symbols.get("start").unwrap());
        run_until(&mut m, 100_000, |m| m.cpu.reg(hx_cpu::Reg::R18) >= 3);
        assert!(m.pit.ticks() >= 3);
        assert!(m.now() >= 1500, "three 500-cycle periods must elapse");
    }

    #[test]
    fn a_breakpoint_hook_traps_where_a_planted_ebreak_would() {
        let program = hx_asm::assemble(
            "start:  li   t0, 40
             spin:   addi t0, t0, -1
                     bnez t0, spin
             target: addi s0, s0, 1
                     j    start
            ",
        )
        .unwrap();
        let target = program.symbols.get("target").unwrap();
        let build = || {
            let mut m = Machine::new(MachineConfig {
                ram_size: 1 << 20,
                ..MachineConfig::default()
            });
            m.load_program(&program);
            m
        };
        let trap_of = |m: &mut Machine, step: MachineStep| match step {
            MachineStep::Trapped { trap, cycles } => Some((trap, cycles, m.now())),
            _ => None,
        };
        let mut patched = build();
        let word = hx_cpu::isa::EBREAK_WORD;
        patched.mem.write(target, word, MemSize::Word).unwrap();
        let planted = loop {
            let step = patched.step();
            if let Some(t) = trap_of(&mut patched, step) {
                break t;
            }
        };
        assert!(!planted.0.is_hook(), "the guest's own ebreak");
        for batch in [false, true] {
            let mut hooked = build();
            let image = hooked.mem.as_bytes().to_vec();
            hooked.set_breakpoint(target, None);
            if batch {
                // Batches end before the hooked slot, never fetching it.
                while hooked.cpu.pc() != target {
                    assert_eq!(hooked.run_batch().end, None);
                }
                assert_eq!(hooked.run_batch().executed, 0);
            }
            let hit = loop {
                let step = hooked.step();
                if let Some(t) = trap_of(&mut hooked, step) {
                    break t;
                }
            };
            assert!(hit.0.is_hook());
            assert_eq!((hit.0.cause, hit.0.epc), (planted.0.cause, planted.0.epc));
            assert_eq!(
                (hit.1, hit.2),
                (planted.1, planted.2),
                "same cost, same cycle"
            );
            assert_eq!(hooked.cpu.instret(), patched.cpu.instret());
            assert_eq!(hooked.mem.as_bytes(), &image[..], "guest RAM untouched");
        }
    }

    #[test]
    fn run_batch_matches_single_stepping() {
        // A workload that exercises every batch-break condition: a long
        // computational stretch (full 64-instruction quanta), PIT MMIO
        // programming (mid-batch MMIO break), periodic interrupts (latched
        // INTR line), and a wfi idle loop.
        let src = format!(
            "        .org 0x100
             handler:
                     addi s0, s0, 1
                     li   k0, {pic:#x}
                     li   k1, {pit_irq}
                     sw   k1, 0xc(k0)      ; EOI
                     tret
             start:  la   t0, handler
                     csrw tvec, t0
                     li   t2, 1000
             spin:   addi t2, t2, -1
                     bne  t2, zero, spin
                     li   t0, {pit:#x}
                     li   t1, 700
                     sw   t1, 4(t0)
                     li   t1, 3
                     sw   t1, 0(t0)        ; enable periodic
                     csrw status, 1        ; IE
             idle:   wfi
                     j    idle
            ",
            pic = map::PIC_BASE,
            pit = map::PIT_BASE,
            pit_irq = map::irq::PIT,
        );
        let program = hx_asm::assemble(&src).unwrap();
        let build = || {
            let mut m = Machine::new(MachineConfig {
                ram_size: 1 << 20,
                ..MachineConfig::default()
            });
            m.load_program(&program);
            m.cpu.set_pc(program.symbols.get("start").unwrap());
            m
        };
        let mut stepped = build();
        let mut batched = build();

        // Drive one machine in batches past a target...
        let target = 200_000;
        while batched.now() < target {
            let batch = batched.run_batch();
            match batch.end {
                Some(MachineStep::Interrupt { vector, .. }) => {
                    let t = batched.interrupt_trap(vector);
                    batched.deliver_trap(t);
                }
                Some(MachineStep::Trapped { trap, .. }) => {
                    batched.deliver_trap(trap);
                }
                Some(MachineStep::Stuck) => panic!("machine stuck"),
                _ => {}
            }
        }

        // ...then single-step the other to the exact same simulated time.
        // Batches only stop on instruction boundaries, so the stepped
        // machine must land on `batched.now()` precisely, with identical
        // state throughout.
        while stepped.now() < batched.now() {
            match stepped.step() {
                MachineStep::Interrupt { vector, .. } => {
                    let t = stepped.interrupt_trap(vector);
                    stepped.deliver_trap(t);
                }
                MachineStep::Trapped { trap, .. } => {
                    stepped.deliver_trap(trap);
                }
                MachineStep::Stuck => panic!("machine stuck"),
                _ => {}
            }
        }
        assert_eq!(stepped.now(), batched.now(), "same instruction boundary");
        assert_eq!(stepped.cpu.pc(), batched.cpu.pc());
        assert_eq!(stepped.cpu.cycles(), batched.cpu.cycles());
        assert_eq!(stepped.cpu.instret(), batched.cpu.instret());
        assert_eq!(stepped.cpu.tlb_stats(), batched.cpu.tlb_stats());
        for i in 0..32 {
            let r = hx_cpu::Reg::new(i).unwrap();
            assert_eq!(stepped.cpu.reg(r), batched.cpu.reg(r), "{r:?}");
        }
        assert_eq!(stepped.pit.ticks(), batched.pit.ticks());
        assert_eq!(stepped.mem, batched.mem);
        assert!(
            stepped.cpu.reg(hx_cpu::Reg::R18) >= 3,
            "interrupts were taken"
        );
    }

    #[test]
    fn idle_skips_to_next_event() {
        let src = format!(
            "start:  li   t0, {pit:#x}
                     li   t1, 10000
                     sw   t1, 4(t0)
                     li   t1, 1
                     sw   t1, 0(t0)       ; one-shot
                     csrw status, 1
                     wfi
             after:  ebreak
            ",
            pit = map::PIT_BASE
        );
        let mut m = machine_with(&src);
        let mut idle_total = 0;
        loop {
            match m.step() {
                MachineStep::Idle { cycles } => idle_total += cycles,
                MachineStep::Interrupt { vector, .. } => {
                    let t = m.interrupt_trap(vector);
                    m.deliver_trap(t);
                    break;
                }
                MachineStep::Executed { .. } => {}
                other => panic!("{other:?}"),
            }
        }
        assert!(
            idle_total > 9_000,
            "most of the 10k-cycle wait must be idle, got {idle_total}"
        );
    }

    #[test]
    fn stuck_when_idle_with_no_events() {
        let mut m = machine_with("wfi\n");
        loop {
            match m.step() {
                MachineStep::Executed { .. } => {}
                MachineStep::Stuck => return,
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn uart_input_wakes_idle_cpu() {
        let src = format!(
            "start:  li   t0, {uart:#x}
                     li   t1, 1
                     sw   t1, 8(t0)     ; rx irq enable
                     csrw status, 1
                     wfi
                     j    start
            ",
            uart = map::UART_BASE
        );
        let mut m = machine_with(&src);
        // Run until the CPU idles (no events → Stuck).
        loop {
            match m.step() {
                MachineStep::Stuck => break,
                MachineStep::Executed { .. } => {}
                other => panic!("{other:?}"),
            }
        }
        m.uart_input(b"x");
        match m.step() {
            MachineStep::Interrupt { irq, .. } => assert_eq!(irq, map::irq::UART),
            other => panic!("expected interrupt, got {other:?}"),
        }
    }

    #[test]
    fn disk_to_memory_via_guest_driver() {
        let src = format!(
            "start:  li   t0, {hdc:#x}
                     li   t1, 5
                     sw   t1, 0(t0)       ; lba
                     li   t1, 1
                     sw   t1, 4(t0)       ; count
                     li   t1, 0x9000
                     sw   t1, 8(t0)       ; dma
                     li   t1, 1
                     sw   t1, 0xc(t0)     ; read doorbell
             poll:   lw   t2, 0x10(t0)
                     andi t2, t2, 2       ; done?
                     beqz t2, poll
                     ebreak
            ",
            hdc = map::HDC_BASE
        );
        let mut m = machine_with(&src);
        loop {
            match m.step() {
                MachineStep::Trapped { trap, .. } if trap.cause == Cause::Breakpoint => break,
                MachineStep::Executed { .. } => {}
                MachineStep::Trapped { trap, .. } => panic!("unexpected trap {trap}"),
                other => panic!("{other:?}"),
            }
        }
        let mut expect = vec![0u8; 512];
        crate::disk::fill_expected(0, 5, &mut expect);
        assert_eq!(&m.mem.as_bytes()[0x9000..0x9200], &expect[..]);
    }

    #[test]
    fn determinism_two_runs_identical() {
        let src = format!(
            "start:  li   t0, {pit:#x}
                     li   t1, 300
                     sw   t1, 4(t0)
                     li   t1, 3
                     sw   t1, 0(t0)
                     csrw status, 1
             spin:   addi s1, s1, 1
                     j    spin
            ",
            pit = map::PIT_BASE
        );
        let run = || {
            let mut m = machine_with(&src);
            // Trap handler not set; deliver interrupts to vector 0 and stop
            // after a fixed number of steps.
            let mut log = Vec::new();
            for _ in 0..5000 {
                let s = m.step();
                if let MachineStep::Interrupt { vector, .. } = s {
                    let t = m.interrupt_trap(vector);
                    m.deliver_trap(t);
                }
                log.push((m.now(), format!("{s:?}")));
            }
            (m.now(), m.cpu.cycles(), log)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unmapped_addresses_fault() {
        let mut m = machine_with("li t0, 0xe0000000\nlw t1, 0(t0)\n");
        m.step();
        m.step();
        match m.step() {
            MachineStep::Trapped { trap, .. } => {
                assert_eq!(trap.cause, Cause::LoadAccessFault);
            }
            other => panic!("{other:?}"),
        }
    }

    /// Steps `n` times delivering traps/interrupts architecturally, logging
    /// each step — tolerant of corrupted programs (fault-injection runs).
    fn run_logged(m: &mut Machine, n: usize) -> Vec<(u64, String)> {
        let mut log = Vec::new();
        for _ in 0..n {
            let s = m.step();
            match s {
                MachineStep::Interrupt { vector, .. } => {
                    let t = m.interrupt_trap(vector);
                    m.deliver_trap(t);
                }
                MachineStep::Trapped { trap, .. } => {
                    m.deliver_trap(trap);
                }
                MachineStep::Stuck => break,
                _ => {}
            }
            log.push((m.now(), format!("{s:?}")));
        }
        log
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = || {
            let mut m = machine_with("spin:  addi s1, s1, 1\n j spin\n");
            m.enable_fault_injection(hx_fault::FaultPlan::new(7).period(2_000));
            let log = run_logged(&mut m, 20_000);
            let stats = *m.fault_stats().unwrap();
            (m.now(), stats, log, m.mem.clone())
        };
        let (now_a, stats_a, log_a, mem_a) = run();
        let (now_b, stats_b, log_b, mem_b) = run();
        assert_eq!(now_a, now_b);
        assert_eq!(stats_a, stats_b);
        assert_eq!(log_a, log_b);
        assert_eq!(mem_a, mem_b);
        assert!(stats_a.total() > 0, "campaign must actually fire");
    }

    #[test]
    fn wild_limit_zero_blocks_everything() {
        let mut m = machine_with("spin:  j spin\n");
        let before = m.mem.clone();
        m.enable_fault_injection(
            hx_fault::FaultPlan::new(3)
                .only(hx_fault::FaultKind::WildWriteApp)
                .period(1_000)
                .wild(1 << 20, 0),
        );
        run_logged(&mut m, 50_000);
        let stats = *m.fault_stats().unwrap();
        assert!(stats.total() > 0);
        assert_eq!(stats.blocked, stats.total(), "limit 0 blocks every attempt");
        assert_eq!(m.mem, before, "blocked attempts must not touch RAM");
        assert_eq!(
            m.obs.exits.get(ExitCause::Protection).count(),
            stats.blocked,
            "each blocked attempt surfaces as one protection exit"
        );
    }

    #[test]
    fn disk_and_nic_error_injection_reach_devices() {
        let mut m = machine_with("spin:  j spin\n");
        m.enable_fault_injection(
            hx_fault::FaultPlan::new(11)
                .only(hx_fault::FaultKind::DiskError)
                .period(1_000),
        );
        run_logged(&mut m, 20_000);
        assert!(m.hdc.stats().errors > 0);
        let mut m = machine_with("spin:  j spin\n");
        m.enable_fault_injection(
            hx_fault::FaultPlan::new(11)
                .only(hx_fault::FaultKind::NicError)
                .period(1_000),
        );
        run_logged(&mut m, 20_000);
        assert!(m.nic.counters().tx_errors > 0);
    }

    #[test]
    fn irq_storm_avoids_uart_line_by_default() {
        let mut m = machine_with("spin:  j spin\n");
        m.enable_fault_injection(
            hx_fault::FaultPlan::new(5)
                .only(hx_fault::FaultKind::IrqStorm)
                .period(1_000),
        );
        run_logged(&mut m, 20_000);
        assert!(m.fault_stats().unwrap().total() > 0);
        let (raised, _) = m.pic.stats();
        assert_eq!(raised[map::irq::UART as usize], 0, "UART spared by default");
        assert!(raised[map::irq::PIT as usize] > 0);
        assert!(raised[map::irq::NIC_RX as usize] > 0);
    }

    /// A 2-core workload: core 0 programs the IPI entry, starts core 1,
    /// then counts in s0; core 1 counts in s1 and mirrors it to RAM.
    fn smp_src() -> String {
        format!(
            "start:  li   t0, {entry:#x}
                     la   t1, side
                     sw   t1, 0(t0)
                     li   t0, {send:#x}
                     li   t1, 1            ; line 0 -> core 1
                     sw   t1, 0(t0)
             main:   addi s0, s0, 1
                     j    main
             side:   addi s1, s1, 1
                     sw   s1, 0x900(zero)
                     j    side
            ",
            entry = map::PIC_BASE + crate::smp::reg::ENTRY,
            send = map::PIC_BASE + crate::smp::reg::SEND,
        )
    }

    fn smp_machine(cores: usize) -> Machine {
        let program = hx_asm::assemble(&smp_src()).expect("smp program assembles");
        let mut m = Machine::new(MachineConfig {
            ram_size: 1 << 20,
            num_cores: cores,
            sched_quantum: 1_000,
            ..MachineConfig::default()
        });
        m.load_program(&program);
        m
    }

    #[test]
    fn startup_ipi_brings_second_core_online() {
        let mut m = smp_machine(2);
        run_until(&mut m, 100_000, |m| {
            m.core(0).reg(hx_cpu::Reg::R18) > 10 && m.core(1).reg(hx_cpu::Reg::R19) > 10
        });
        assert!(m.core_started(1));
        assert!(m.mem.as_bytes()[0x900] > 0, "core 1 stored to RAM");
        assert!(m.total_instret() > m.core(0).instret());
    }

    #[test]
    fn second_core_stays_parked_without_ipi() {
        // Same config but the program never sends the startup IPI.
        let program = hx_asm::assemble("main: addi s0, s0, 1\n j main\n").unwrap();
        let mut m = Machine::new(MachineConfig {
            ram_size: 1 << 20,
            num_cores: 2,
            sched_quantum: 500,
            ..MachineConfig::default()
        });
        m.load_program(&program);
        for _ in 0..5_000 {
            m.step();
        }
        assert!(!m.core_started(1));
        assert_eq!(m.core(1).instret(), 0);
    }

    #[test]
    fn smp_determinism_two_runs_identical() {
        let run = || {
            let mut m = smp_machine(4);
            let log = run_logged(&mut m, 30_000);
            let regs: Vec<Vec<u32>> = (0..4).map(|i| m.core(i).regs().to_vec()).collect();
            (m.now(), regs, log, m.mem.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn smp_run_batch_matches_single_stepping() {
        let mut stepped = smp_machine(2);
        let mut batched = smp_machine(2);

        let target = 300_000;
        while batched.now() < target {
            let batch = batched.run_batch();
            match batch.end {
                Some(MachineStep::Interrupt { vector, .. }) => {
                    let t = batched.interrupt_trap(vector);
                    batched.deliver_trap(t);
                }
                Some(MachineStep::Trapped { trap, .. }) => {
                    batched.deliver_trap(trap);
                }
                Some(MachineStep::Stuck) => panic!("machine stuck"),
                _ => {}
            }
        }
        while stepped.now() < batched.now() {
            match stepped.step() {
                MachineStep::Interrupt { vector, .. } => {
                    let t = stepped.interrupt_trap(vector);
                    stepped.deliver_trap(t);
                }
                MachineStep::Trapped { trap, .. } => {
                    stepped.deliver_trap(trap);
                }
                MachineStep::Stuck => panic!("machine stuck"),
                _ => {}
            }
        }
        assert_eq!(stepped.now(), batched.now(), "same instruction boundary");
        assert_eq!(stepped.active_core(), batched.active_core());
        for c in 0..2 {
            assert_eq!(stepped.core(c).pc(), batched.core(c).pc(), "core {c} pc");
            assert_eq!(stepped.core(c).instret(), batched.core(c).instret());
            for i in 0..32 {
                let r = hx_cpu::Reg::new(i).unwrap();
                assert_eq!(stepped.core(c).reg(r), batched.core(c).reg(r));
            }
        }
        assert_eq!(stepped.mem, batched.mem);
        assert!(
            stepped.core(1).instret() > 0,
            "core 1 actually ran in the comparison window"
        );
    }

    #[test]
    fn non_startup_ipi_interrupts_target_core() {
        // Core 0 starts core 1 at `side`, which enables interrupts with a
        // handler that bumps s2, then spins; core 0 fires IPI line 2 at it.
        let src = format!(
            "        .org 0x100
             handler:
                     addi s2, s2, 1
                     tret
             start:  li   t0, {entry:#x}
                     la   t1, side
                     sw   t1, 0(t0)
                     li   t0, {send:#x}
                     li   t1, 1            ; startup -> core 1
                     sw   t1, 0(t0)
                     li   t2, 2000
             delay:  addi t2, t2, -1
                     bnez t2, delay
                     li   t1, 0x201        ; line 2 -> core 1
                     sw   t1, 0(t0)
             main:   j    main
             side:   la   t0, handler
                     csrw tvec, t0
                     csrw status, 1        ; IE
             spin:   addi s1, s1, 1
                     j    spin
            ",
            entry = map::PIC_BASE + crate::smp::reg::ENTRY,
            send = map::PIC_BASE + crate::smp::reg::SEND,
        );
        let program = hx_asm::assemble(&src).unwrap();
        let mut m = Machine::new(MachineConfig {
            ram_size: 1 << 20,
            num_cores: 2,
            sched_quantum: 500,
            ..MachineConfig::default()
        });
        program.load_into(m.mem.as_bytes_mut());
        m.cpu.set_pc(program.symbols.get("start").unwrap());
        run_until(&mut m, 200_000, |m| m.core(1).reg(hx_cpu::Reg::R20) >= 1);
        assert_eq!(m.ipi().delivered, 1, "one non-startup IPI was delivered");
        assert_eq!(m.core(0).reg(hx_cpu::Reg::R20), 0, "core 0 untouched");
    }

    #[test]
    fn ipi_registers_validate_and_read_back() {
        let mut m = smp_machine(2);
        let send = map::PIC_BASE + crate::smp::reg::SEND;
        // Invalid target / line are denied.
        assert_eq!(
            m.bus_write(send, 7, MemSize::Word),
            Err(BusFault::Denied),
            "target beyond num_cores"
        );
        assert_eq!(
            m.bus_write(send, (9 << 8) | 1, MemSize::Word),
            Err(BusFault::Denied),
            "line beyond 7"
        );
        assert_eq!(
            m.bus_write(send, 1, MemSize::Byte),
            Err(BusFault::Denied),
            "sub-word access"
        );
        // CORE_ID / NUM_CORES / ENTRY read back.
        m.bus_write(
            map::PIC_BASE + crate::smp::reg::ENTRY,
            0x1234,
            MemSize::Word,
        )
        .unwrap();
        assert_eq!(
            m.bus_read(map::PIC_BASE + crate::smp::reg::ENTRY, MemSize::Word)
                .unwrap(),
            0x1234
        );
        assert_eq!(
            m.bus_read(map::PIC_BASE + crate::smp::reg::CORE_ID, MemSize::Word)
                .unwrap(),
            0
        );
        assert_eq!(
            m.bus_read(map::PIC_BASE + crate::smp::reg::NUM_CORES, MemSize::Word)
                .unwrap(),
            2
        );
    }

    #[test]
    fn single_core_config_ignores_smp_fields() {
        // A 1-core machine built with an SMP-era config behaves exactly like
        // the classic one: the scheduler never rotates.
        let src = format!(
            "start:  li   t0, {pit:#x}
                     li   t1, 300
                     sw   t1, 4(t0)
                     li   t1, 3
                     sw   t1, 0(t0)
                     csrw status, 1
             spin:   addi s1, s1, 1
                     j    spin
            ",
            pit = map::PIT_BASE
        );
        let run = |quantum| {
            let program = hx_asm::assemble(&src).unwrap();
            let mut m = Machine::new(MachineConfig {
                ram_size: 1 << 20,
                num_cores: 1,
                sched_quantum: quantum,
                ..MachineConfig::default()
            });
            m.load_program(&program);
            let log = run_logged(&mut m, 5_000);
            (m.now(), m.cpu.regs().to_vec(), log)
        };
        assert_eq!(run(64), run(1_000_000), "quantum is inert on one core");
    }

    #[test]
    fn bus_read_write_helpers() {
        let mut m = machine_with("nop\n");
        m.bus_write(map::PIC_BASE + crate::pic::reg::IMR, 0x55, MemSize::Word)
            .unwrap();
        assert_eq!(
            m.bus_read(map::PIC_BASE + crate::pic::reg::IMR, MemSize::Word)
                .unwrap(),
            0x55
        );
        assert_eq!(
            m.bus_read(0xe000_0000, MemSize::Word),
            Err(BusFault::Unmapped)
        );
    }
}
