//! `LvmmPlatform`: the guest OS running deprivileged under the lightweight
//! monitor.
//!
//! The monitor intercepts every trap and interrupt at the machine boundary
//! ([`hx_machine::MachineStep`]), and:
//!
//! * emulates the guest kernel's privileged instructions against the
//!   virtual CPU ([`crate::VCpu`]);
//! * resolves shadow page faults by walking the *guest's* page tables and
//!   filling the active shadow table ([`crate::ShadowPager`]);
//! * emulates guest accesses to the interrupt controller and timer
//!   ([`crate::chipset::VChipset`]) while passing the disk controller and
//!   NIC straight through;
//! * reflects real device interrupts into the virtual PIC and injects them
//!   when the guest's virtual interrupt window opens;
//! * runs the debug stub ([`rdbg::stub`]) whenever UART traffic arrives —
//!   including while the guest streams I/O at full rate, and including when
//!   the guest has destroyed its own memory.
//!
//! The trap-and-emulate paths themselves live in [`crate::virt`], shared
//! with the hosted monitor; this module supplies the lightweight monitor's
//! policy: device passthrough and the debug stub.

use crate::costs;
use crate::replay::{reexecute, FlightRecorder};
use crate::shadow::{GuestRam, ShadowStats};
use crate::stub::{parse_condition, Watchpoint, Watchpoints};
use crate::vcpu::VCpu;
use crate::virt::{ExitCosts, ExitStats, RunState, VirtCore, VirtPolicy};
use hx_cpu::csr::Status;
use hx_cpu::isa::Instr;
use hx_cpu::mmu::{self, pte, Access};
use hx_cpu::trap::{Cause, Trap};
use hx_cpu::{Bus, MemSize};
use hx_machine::engine::ExitPolicy;
use hx_machine::platform::PlatformStep;
use hx_machine::{map, Machine, Platform, TimeBucket, TimeStats};
use hx_obs::{EventKind, ExitCause, HostPhase};
use hx_query::{Expr, SliceCtx};
use rdbg::err;
use rdbg::msg::{Reply, StatsSample, StopReason, WatchKind};
use rdbg::stub::{resume, service, stop, StepIntent, Stub, StubStats, Target};

/// Monitor configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LvmmConfig {
    /// Bytes of RAM reserved at the top of memory for the monitor (shadow
    /// tables and headroom).
    pub monitor_mem: u32,
}

impl Default for LvmmConfig {
    fn default() -> Self {
        LvmmConfig {
            monitor_mem: 2 * 1024 * 1024,
        }
    }
}

/// The lightweight monitor's exit counters (shared with the hosted
/// monitor's core).
pub type LvmmStats = ExitStats;

/// Everything that changes as the platform runs — the restorable part of a
/// flight-recorder checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct LvmmSnapshot {
    core: VirtCore,
    stub: Stub,
    watches: Watchpoints,
}

/// The lightweight-VMM platform (see the [module docs](self)).
///
/// The run loop, cycle charging and instruction batching come from the
/// shared [`ExitPolicy`] engine and the exit paths from the shared
/// [`VirtPolicy`] core; this type adds device passthrough, the debug stub
/// and the time-travel [`FlightRecorder`] (boxed so a platform without the
/// recorder pays one pointer of overhead).
#[derive(Debug)]
pub struct LvmmPlatform {
    core: VirtCore,
    stub: Stub,
    watches: Watchpoints,
    entry: u32,
    pub(crate) flight: Option<Box<FlightRecorder>>,
}
impl LvmmPlatform {
    /// Installs the monitor on `machine` and prepares the guest to boot at
    /// `entry` (image already loaded). The guest starts in *virtual*
    /// supervisor mode with paging off — exactly what it would see on real
    /// hardware — while the real CPU runs it in user mode behind an
    /// identity shadow table.
    ///
    /// # Panics
    ///
    /// Panics if the machine's RAM is too small for the configured monitor
    /// region.
    pub fn new(machine: Machine, entry: u32) -> LvmmPlatform {
        Self::with_config(machine, entry, LvmmConfig::default())
    }

    /// [`LvmmPlatform::new`] with an explicit [`LvmmConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the machine's RAM is too small for the monitor region.
    pub fn with_config(machine: Machine, entry: u32, cfg: LvmmConfig) -> LvmmPlatform {
        let ram_size = machine.config().ram_size as u32;
        assert!(cfg.monitor_mem < ram_size, "monitor region exceeds RAM");
        let monitor_base = ram_size - cfg.monitor_mem;
        let mut core = VirtCore::new(machine, entry, monitor_base, ram_size);
        // The monitor listens to the real UART.
        core.machine
            .bus_write(
                map::UART_BASE + hx_machine::uart::reg::CTRL,
                1,
                MemSize::Word,
            )
            .expect("UART present");
        LvmmPlatform {
            core,
            stub: Stub::default(),
            watches: Watchpoints::default(),
            entry,
            flight: None,
        }
    }

    /// Turns on the flight recorder: every nondeterministic input and device
    /// event is journaled from this point on, and a full machine snapshot is
    /// taken every `every` cycles ([`FlightRecorder::DEFAULT_EVERY`] is a
    /// reasonable cadence). An initial checkpoint is taken immediately so the
    /// whole recorded window is reachable by `seek`.
    ///
    /// Enable this *before* running the workload — a journal that misses
    /// early inputs cannot reproduce the run.
    pub fn enable_flight_recorder(&mut self, every: u64) {
        let cores = self.core.machine.num_cores();
        self.core.machine.obs.enable_journal(self.name(), cores);
        let now = self.core.machine.now();
        let snap = self.snapshot();
        self.flight = Some(Box::new(FlightRecorder::new(every, now, snap)));
    }

    /// Number of checkpoints currently held (diagnostics and tests).
    pub fn checkpoint_count(&self) -> usize {
        self.flight.as_ref().map_or(0, |f| f.len())
    }

    pub(crate) fn snapshot(&self) -> LvmmSnapshot {
        LvmmSnapshot {
            core: self.core.clone(),
            stub: self.stub.clone(),
            watches: self.watches.clone(),
        }
    }

    /// Takes a checkpoint when one is due. Runs during replay too: a seek
    /// rewinds the recorder to its restore point and the re-run rebuilds
    /// the later checkpoints on the (identical) new timeline.
    fn maybe_checkpoint(&mut self) {
        let now = self.core.machine.now();
        if !self.flight.as_ref().is_some_and(|f| f.due(now)) {
            return;
        }
        // Checkpoint capture is heavy host work (a full-state clone) that
        // happens *after* deferred guest-execution time; close the guest
        // window first so the clone is charged to Journal, not GuestExec.
        self.core.machine.obs.host_mark(HostPhase::GuestExec);
        let snap = self.snapshot();
        if let Some(f) = &mut self.flight {
            f.record(now, snap);
        }
        self.core.machine.obs.host_mark(HostPhase::Journal);
    }

    /// Restores the nearest checkpoint at or before `restore` (if given),
    /// then deterministically re-executes history — re-injecting journaled
    /// UART bytes and NIC frames at their recorded cycles — until `done`
    /// holds, and parks the guest there with a [`StopReason::TimeTravel`]
    /// stop. Returns the landing cycle; `None` when the flight recorder
    /// cannot serve the request.
    fn replay(&mut self, restore: Option<u64>, done: impl FnMut(&mut Self) -> bool) -> Option<u64> {
        let fr = self.flight.as_deref_mut()?;
        if fr.replaying {
            return None;
        }
        // The pre-seek journal is the re-run script. The restore replaces
        // it with the checkpoint's own prefix, so it is moved out, not
        // copied; re-injection re-records the segment up to the landing
        // cycle identically. A forward seek restores nothing and has no
        // input left to inject.
        let mut script = None;
        if let Some(at) = restore {
            let snap = fr.rewind(at)?;
            script = self.core.machine.obs.take_journal();
            self.core = snap.core;
            self.stub = snap.stub;
            self.watches = snap.watches;
        }
        // Inputs already baked into the restored state are exactly the ones
        // its own journal holds — skip by count, not by cycle, so records
        // tied with the checkpoint cycle (e.g. a break byte journaled before
        // the initial cycle-0 checkpoint existed) are not wrongly dropped.
        let baked = self
            .core
            .machine
            .obs
            .journal()
            .map_or(0, |j| j.inputs.len());
        let inputs = script.as_ref().and_then(|j| j.inputs.get(baked..));
        self.flight.as_mut()?.replaying = true;
        reexecute(self, inputs.unwrap_or_default(), done);
        // Stub replies regenerated during the re-run were already delivered
        // on the original timeline; the host must not see them twice.
        let _ = self.core.machine.uart_output();
        self.flight.as_mut()?.replaying = false;
        let pc = self.core.machine.cpu.pc();
        let cycle = self.core.machine.now();
        stop(self, StopReason::TimeTravel { pc, cycle });
        Some(cycle)
    }

    /// Monitor exit/injection counters.
    pub fn monitor_stats(&self) -> LvmmStats {
        self.core.exits
    }

    /// Shadow-paging counters.
    pub fn shadow_stats(&self) -> ShadowStats {
        self.core.shadow.stats
    }

    /// Debug-stub counters.
    pub fn stub_stats(&self) -> StubStats {
        self.stub.stats
    }

    /// The guest's virtual CPU state (diagnostics and tests).
    pub fn vcpu(&self) -> &VCpu {
        &self.core.vcpu
    }

    /// Is the guest currently stopped under debugger control?
    pub fn guest_stopped(&self) -> bool {
        self.stub.stopped
    }

    /// Base of the monitor-reserved memory region.
    pub fn monitor_base(&self) -> u32 {
        self.core.monitor_base
    }

    fn handle_debug_step(&mut self, trap: Trap) {
        // The intercepted DebugStep did not clear the real TF (no take_trap
        // ran); drop it before deciding what to do next.
        self.core.machine.cpu.set_status_bit(Status::TF, false);

        match self.stub.step_intent.take() {
            Some(StepIntent::Step) => {
                self.core.exits.exits_debug += 1;
                stop(self, StopReason::Step { pc: trap.epc });
            }
            Some(StepIntent::Resume) => {
                self.sync_tf(); // guest's own vTF may still want stepping
            }
            None => {
                if self.core.vcpu.status.tf() {
                    // The guest is single-stepping its own code.
                    self.inject_guest_trap(Cause::DebugStep, trap.epc, 0);
                }
            }
        }
    }

    /// Completes one guest load or store that faulted only because a
    /// watchpoint shares its page.
    fn emulate_guest_access(&mut self, trap: Trap, gpa: u32, access: Access) {
        self.consume_monitor(costs::EMUL_ACCESS);
        let is_store = access == Access::Store;
        if is_store {
            self.core.exits.emulated_stores += 1;
        } else {
            self.core.exits.emulated_loads += 1;
        }
        let Some(instr) = self.core.fetch_guest_instr(trap.epc) else {
            self.inject_guest_trap(Cause::InstrPageFault, trap.epc, trap.epc);
            return;
        };
        let c = &mut self.core;
        let mut ram = GuestRam::new(&mut c.machine.mem, c.monitor_base);
        let cpu = &mut c.machine.cpu;
        let done = match instr {
            Instr::Load { kind, rd, .. } if !is_store => ram
                .read(gpa, kind.size())
                .map(|raw| cpu.set_reg(rd, kind.extend(raw)))
                .is_ok(),
            Instr::Store { kind, rs2, .. } if is_store => {
                ram.write(gpa, cpu.reg(rs2), kind.size()).is_ok()
            }
            _ => false,
        };
        if done {
            self.retire_emulated(trap.epc, trap.epc.wrapping_add(4));
        } else {
            self.inject_guest_trap(access.fault_cause(), trap.epc, trap.tval);
        }
    }

    /// Does the condition attached to the breakpoint at `pc` hold?
    /// Unconditional breakpoints and unevaluable conditions stop — fail
    /// safe.
    fn bp_condition_holds(&mut self, pc: u32) -> bool {
        let hook = self.core.machine.hook(pc);
        let Some(cond) = hook.and_then(|h| h.cond.clone()) else {
            return true;
        };
        cond.eval(self).is_none_or(|v| v != 0)
    }

    /// Evaluates a query predicate against the live machine state, in the
    /// same physical-address view the checkpoint scan uses.
    fn eval_pred(&mut self, expr: &Expr) -> bool {
        let pc = self.core.machine.cpu.pc();
        let now = self.core.machine.now();
        let mut ctx = SliceCtx::new(
            self.core.machine.mem.as_bytes(),
            self.core.machine.cpu.regs(),
            pc,
            now,
        );
        expr.eval(&mut ctx).is_some_and(|v| v != 0)
    }

    /// Drops every shadow mapping so the pages of a changed watchpoint set
    /// fault again.
    fn refault_watched(&mut self) -> Reply {
        self.core.shadow.flush_all(&mut self.core.machine.mem);
        self.core.activate_shadow();
        self.core.machine.cpu.tlb_flush();
        Reply::Ok
    }

    /// Translates a guest virtual address for debugger access through
    /// `core`'s address space: its guest page tables (if paging is on) are
    /// honoured but permission bits are not (the debugger may read
    /// execute-only pages). Only guest RAM is reachable.
    fn translate_for_debug(&mut self, core: u32, va: u32) -> Option<u32> {
        let core = core as usize;
        let v = if core == self.core.cur_core {
            &self.core.vcpu
        } else {
            &self.core.vcpus[core]
        };
        let (paging, root) = (v.paging_enabled(), v.page_table_root());
        let mut ram = self.core.guest_ram();
        let gpa = if paging {
            mmu::walk_tables(&mut ram, root, va).ok()?.paddr
        } else {
            va
        };
        ram.contains(gpa).then_some(gpa)
    }
}

/// The live-guest evaluation context for breakpoint and watchpoint
/// conditions: registers and PC come from the real CPU, memory operands go
/// through the debugger's address translation (guest page tables honoured,
/// permission bits ignored), so conditions see the same world the host's
/// `m` command shows.
impl hx_query::EvalCtx for LvmmPlatform {
    fn reg(&mut self, idx: u8) -> u32 {
        self.core
            .machine
            .cpu
            .regs()
            .get(idx as usize)
            .copied()
            .unwrap_or(0)
    }

    fn pc(&mut self) -> u32 {
        self.core.machine.cpu.pc()
    }

    fn cycle(&mut self) -> u64 {
        self.core.machine.now()
    }

    /// Through the *active* core's address space: the core that hit.
    fn load(&mut self, addr: u32, size: u8) -> Option<u32> {
        let core = self.core.cur_core as u32;
        let mut v = 0u32;
        for i in 0..size as u32 {
            v |= u32::from(self.read_byte(core, addr.wrapping_add(i))?) << (8 * i);
        }
        Some(v)
    }
}

/// The monitor-resident stub. Its deliberate differences from the
/// OS-embedded one: breakpoints live in the monitor's hook table, memory is
/// seen through the selected core's guest page tables with monitor memory
/// refused, every core is selectable, and its work costs monitor cycles
/// (`STUB_BYTE` per packet byte, `STUB_COMMAND` per command) recorded as
/// `Debug` exits. It also serves every optional verb.
impl Target for LvmmPlatform {
    fn stub(&mut self) -> &mut Stub {
        &mut self.stub
    }

    fn recv_byte(&mut self) -> Option<u8> {
        self.core.machine.uart.pop_rx()
    }

    fn transmit(&mut self, bytes: &[u8]) {
        self.core.machine.uart.push_tx(bytes);
    }

    /// Stub servicing is host work after (possibly deferred) guest
    /// execution: close the guest window first. Whatever the per-packet
    /// `record_exit(Debug)` marks then do not claim (byte draining,
    /// parsing, ACK/NAK handling) is debug-link I/O.
    fn serve(&mut self, pass: impl FnOnce(&mut Self)) {
        self.core.machine.obs.host_mark(HostPhase::GuestExec);
        pass(self);
        self.core.machine.obs.host_mark(HostPhase::DebugLink);
    }

    fn charge_bytes(&mut self, n: usize) {
        self.consume_monitor(costs::STUB_BYTE * n as u64);
    }

    fn stub_exit(&mut self, command: Option<u8>, run: impl FnOnce(&mut Self)) {
        let monitor_before = self.core.stats.monitor;
        match command {
            None => self.core.exits.exits_debug += 1,
            Some(code) => {
                self.consume_monitor(costs::STUB_COMMAND);
                let m = &mut self.core.machine;
                m.obs.emit(m.now(), EventKind::DebugCommand { code });
            }
        }
        run(self);
        // Saturating: a time-travel command may have rewound `stats` to
        // before this exit began.
        let delta = self.core.stats.monitor.saturating_sub(monitor_before);
        self.record_exit(ExitCause::Debug, delta);
    }

    fn cores(&self) -> u32 {
        self.core.machine.num_cores() as u32
    }

    fn core_started(&self, core: u32) -> bool {
        self.core.machine.core_started(core as usize)
    }

    fn pc(&self) -> u32 {
        self.core.machine.cpu.pc()
    }

    fn register(&self, core: u32, index: u8) -> u32 {
        let cpu = self.core.machine.core(core as usize);
        match hx_cpu::Reg::new(index) {
            Some(reg) => cpu.reg(reg),
            None => cpu.pc(),
        }
    }

    fn set_register(&mut self, core: u32, index: u8, value: u32) {
        let cpu = self.core.machine.core_mut(core as usize);
        match hx_cpu::Reg::new(index) {
            Some(reg) => cpu.set_reg(reg, value),
            None => cpu.set_pc(value),
        }
    }

    fn read_byte(&mut self, core: u32, addr: u32) -> Option<u8> {
        let pa = self.translate_for_debug(core, addr)?;
        let b = self.core.guest_ram().read(pa, MemSize::Byte).ok()?;
        Some(b as u8)
    }

    fn write_byte(&mut self, core: u32, addr: u32, byte: u8) -> bool {
        let pa = self.translate_for_debug(core, addr);
        let mut ram = self.core.guest_ram();
        pa.is_some_and(|pa| ram.write(pa, byte as u32, MemSize::Byte).is_ok())
    }

    fn has_breakpoint(&self, addr: u32) -> bool {
        self.core.machine.has_breakpoint(addr)
    }

    fn set_breakpoint(&mut self, core: u32, addr: u32) -> Result<(), u8> {
        self.translate_for_debug(core, addr).ok_or(err::MEM)?;
        self.core.machine.set_breakpoint(addr, None);
        Ok(())
    }

    fn clear_breakpoint(&mut self, addr: u32) -> bool {
        self.core.machine.clear_breakpoint(addr)
    }

    fn park(&mut self, reason: &StopReason) -> u8 {
        // A stop can originate outside the exit path (break-in, reset);
        // make sure the stop report names the core actually parked.
        self.core.sync_core();
        // Organic stops become reverse-continue targets; time-travel
        // landings do not (they are already the result of one).
        if !matches!(reason, StopReason::TimeTravel { .. }) {
            let now = self.core.machine.now();
            if let Some(fr) = &mut self.flight {
                fr.note_stop(now);
            }
        }
        self.core.state = RunState::Stopped;
        // Hold the fault campaign while parked: injections model faults of
        // a running guest, and firing one into a halted machine would
        // corrupt the state the debugger is inspecting.
        self.core.machine.pause_faults(true);
        // Disarm the hardware single-step flag while stopped.
        self.core.machine.cpu.set_status_bit(Status::TF, false);
        self.core.cur_core as u8
    }

    /// The parked core passes a breakpoint under its PC until it leaves
    /// it; every other core still stops there.
    fn unpark(&mut self, _intent: Option<StepIntent>) {
        self.core.machine.step_off_breakpoint();
        self.core.state = RunState::Running;
        self.core.machine.pause_faults(false);
        self.sync_tf();
    }

    fn set_watchpoint(&mut self, addr: u32, len: u32, kind: WatchKind) -> Reply {
        if len == 0 {
            return Reply::Error(err::PARSE);
        }
        self.watches.0.push(Watchpoint {
            addr,
            len,
            kind,
            cond: None,
        });
        self.refault_watched()
    }

    fn clear_watchpoint(&mut self, addr: u32) -> Reply {
        let before = self.watches.0.len();
        self.watches.0.retain(|w| w.addr != addr);
        if self.watches.0.len() == before {
            return Reply::Error(err::BP);
        }
        self.refault_watched()
    }

    fn set_break_condition(&mut self, addr: u32, expr: &str) -> Reply {
        if !self.core.machine.has_breakpoint(addr) {
            return Reply::Error(err::BP);
        }
        let Ok(cond) = parse_condition(expr) else {
            return Reply::Error(err::QUERY);
        };
        self.core.machine.set_breakpoint(addr, cond);
        Reply::Ok
    }

    fn set_watch_condition(&mut self, addr: u32, expr: &str) -> Reply {
        let Ok(cond) = parse_condition(expr) else {
            return Reply::Error(err::QUERY);
        };
        let mut any = false;
        for w in &mut self.watches.0 {
            if w.addr == addr {
                w.cond = cond.clone();
                any = true;
            }
        }
        if any {
            Reply::Ok
        } else {
            Reply::Error(err::BP)
        }
    }

    fn set_logpoint(&mut self, addr: u32, label: &str, expr: &str) -> Reply {
        if addr & 3 != 0 {
            return Reply::Error(err::PARSE);
        }
        let Ok(cond) = parse_condition(expr) else {
            return Reply::Error(err::QUERY);
        };
        self.core.machine.add_logpoint(addr, label, cond);
        Reply::Ok
    }

    fn clear_logpoint(&mut self, addr: u32) -> Reply {
        if self.core.machine.clear_logpoints(addr) {
            Reply::Ok
        } else {
            Reply::Error(err::BP)
        }
    }

    fn reset(&mut self) -> Reply {
        self.core.reset(self.entry);
        stop(self, StopReason::Halted { pc: self.entry });
        Reply::Ok
    }

    fn reverse_step(&mut self) -> Reply {
        let Some(fr) = self.flight.as_deref() else {
            return Reply::Error(err::RECORDER);
        };
        self.seek(fr.last_instr_at)
    }

    fn reverse_continue(&mut self) -> Reply {
        let Some(fr) = self.flight.as_deref() else {
            return Reply::Error(err::RECORDER);
        };
        // Anchor on the cycle of the stop we are parked at (`now` keeps
        // advancing while stopped), then rewind to the latest stop strictly
        // before it.
        let anchor = match self.stub.last_stop {
            Some(StopReason::TimeTravel { cycle, .. }) => cycle,
            _ => fr
                .stop_history
                .last()
                .copied()
                .unwrap_or_else(|| self.core.machine.now()),
        };
        let target = fr
            .stop_history
            .iter()
            .copied()
            .filter(|&c| c < anchor)
            .max();
        match target {
            Some(t) => self.seek(t),
            None => Reply::Error(err::RECORDER),
        }
    }

    /// Moves the platform to `target` on the recorded timeline.
    ///
    /// Backward: restores the nearest checkpoint at or before `target` and
    /// re-executes history up to it (see `replay`). Forward:
    /// free-runs to `target`. Either way the guest parks there with a
    /// [`StopReason::TimeTravel`] stop, and subsequent execution rewrites
    /// the future (new-branch semantics: the journal, checkpoints and stop
    /// history beyond the restore point are truncated and rebuilt).
    fn seek(&mut self, target: u64) -> Reply {
        let restore = (target < self.core.machine.now()).then_some(target);
        match self.replay(restore, |p| p.core.machine.now() >= target) {
            Some(_) => Reply::Ok,
            None => Reply::Error(err::RECORDER),
        }
    }

    /// `Qq`: finds the earliest recorded instruction boundary at which
    /// `expr` evaluates nonzero and parks the guest there by time travel.
    ///
    /// The earliest checkpoint is restored and history re-executed one
    /// instruction at a time, evaluating the predicate at every boundary,
    /// until it holds. A checkpoint scan cannot prune windows here: a
    /// predicate over shared state can flicker (a cross-core counter
    /// deficit is masked whenever a sibling core sits between two of its
    /// own updates), so `expr` being false at both checkpoints bracketing
    /// a window says nothing about the boundaries in between. Exact
    /// first-hit semantics therefore costs a replay from the start of the
    /// recording. A miss replays back to the original cycle (state
    /// byte-identical) and reports `found = 0`.
    fn query_first(&mut self, expr: &str) -> Reply {
        let Ok(expr) = Expr::parse(expr) else {
            return Reply::Error(err::QUERY);
        };
        let original = self.core.machine.now();
        let first = self.flight.as_deref().and_then(|f| f.first_at());
        let restore = first.unwrap_or(original);
        let mut found = None;
        let landed = self.replay(Some(restore), |p| {
            let now = p.core.machine.now();
            if p.eval_pred(&expr) {
                found = Some(now);
            }
            found.is_some() || now >= original
        });
        match (landed, found) {
            (None, _) => Reply::Error(err::RECORDER),
            (Some(_), Some(cycle)) => Reply::Query { found: true, cycle },
            (Some(cycle), None) => Reply::Query {
                found: false,
                cycle,
            },
        }
    }

    /// Answered whether or not the guest is stopped — the whole point is
    /// sampling the monitor live, without a halt.
    fn query_stats(&mut self) -> Reply {
        let (m, t) = (&self.core.machine, &self.core.stats);
        let faults = m.fault_stats();
        let n = m.num_cores();
        Reply::Stats(StatsSample {
            now: m.now(),
            guest: t.guest,
            monitor: t.monitor,
            host: t.host_model,
            idle: t.idle,
            exits: m.obs.exits.counts().to_vec(),
            faults: faults.map(|f| f.injected.to_vec()).unwrap_or_default(),
            fault_blocked: faults.map_or(0, |f| f.blocked),
            cores: n as u64,
            core_instret: (0..n).map(|i| m.core(i).instret()).collect(),
            core_exits: (0..n).map(|i| m.obs.core_exit_count(i)).collect(),
        })
    }

    fn recorder(&self) -> Option<(u64, &hx_obs::Recorder)> {
        Some((self.core.machine.now(), &self.core.machine.obs))
    }
}

impl VirtPolicy for LvmmPlatform {
    const COSTS: ExitCosts = ExitCosts {
        exit: costs::EXIT_BASE,
        reflect_irq: costs::REFLECT_IRQ,
        dev_reg: costs::EMUL_MMIO,
    };
    const PASSTHROUGH: bool = true;

    fn core(&self) -> &VirtCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut VirtCore {
        &mut self.core
    }

    fn route_irq(&mut self, irq: u8) {
        if irq == map::irq::UART {
            // Host debugger traffic — the monitor's own business.
            service(self);
        } else {
            // Timer and passthrough-device interrupts belong to the guest:
            // latch them in the virtual PIC.
            self.core.chipset.vpic.assert_irq(irq);
        }
    }

    /// Double fault: a synchronous fault raised *at the handler entry
    /// itself* means the guest's handler is gone (e.g. overwritten by the
    /// bug under investigation). A real kernel would triple-fault and
    /// reset; the monitor parks the guest for debugging instead — the
    /// stability story of the paper. So does a fault with no handler.
    fn park_on_fault(&mut self, cause: Cause, epc: u32) -> bool {
        let tvec = self.core.vcpu.tvec;
        let double_fault =
            epc == tvec && !matches!(cause, Cause::Interrupt | Cause::EcallU | Cause::EcallS);
        let park = tvec == 0 || double_fault;
        if park {
            stop(
                self,
                StopReason::Fault {
                    pc: epc,
                    cause: cause.code(),
                },
            );
        }
        park
    }

    fn park_on_livelock(&mut self, trap: Trap) -> bool {
        stop(
            self,
            StopReason::Fault {
                pc: trap.epc,
                cause: trap.cause.code(),
            },
        );
        true
    }

    fn debug_exit(&mut self, trap: Trap) -> Option<ExitCause> {
        match trap.cause {
            Cause::Breakpoint if trap.is_hook() => {
                self.core.exits.exits_debug += 1;
                if self.bp_condition_holds(trap.epc) {
                    stop(self, StopReason::Breakpoint { pc: trap.epc });
                } else {
                    // Condition false: silently step off the breakpoint and
                    // keep running — the guest never observes the stop.
                    resume(self, Some(StepIntent::Resume));
                }
            }
            // The guest's own `ebreak` (e.g. its embedded debugger).
            Cause::Breakpoint => self.inject_guest_trap(Cause::Breakpoint, trap.epc, trap.tval),
            Cause::DebugStep => self.handle_debug_step(trap),
            _ => return None,
        }
        Some(ExitCause::Debug)
    }

    /// Watchpoints: accesses into a watched page never get a shadow mapping
    /// in the watched direction, so every one of them faults into the
    /// monitor for inspection.
    fn fill_watch(
        &mut self,
        trap: Trap,
        va: u32,
        gpa: u32,
        access: Access,
    ) -> Result<u32, ExitCause> {
        let withheld = self.watches.withheld(va);
        let is_store = access == Access::Store;
        let needed = match access {
            Access::Store => pte::W,
            Access::Load => pte::R,
            Access::Fetch => 0,
        };
        if withheld & needed == 0 {
            return Ok(withheld);
        }
        if let Some(w) = self.watches.watch_hit(va, 4, is_store) {
            let fire = match w.cond.clone() {
                None => true,
                // Unevaluable conditions stop too — fail safe.
                Some(c) => c.eval(self).is_none_or(|v| v != 0),
            };
            if fire {
                self.core.exits.exits_debug += 1;
                stop(
                    self,
                    StopReason::Watchpoint {
                        pc: trap.epc,
                        addr: va,
                    },
                );
                return Err(ExitCause::Debug);
            }
        }
        // Unwatched (or condition-false) access that merely shares the
        // page: the monitor completes it on the guest's behalf.
        self.emulate_guest_access(trap, gpa, access);
        Err(ExitCause::Debug)
    }

    fn stub_stepping(&self) -> bool {
        self.stub.step_intent.is_some()
    }

    fn stopped_step(&mut self) -> PlatformStep {
        // While stopped the monitor polls its UART; device events keep
        // firing (real time does not stop for the debugger).
        if self.core.machine.uart.rx_pending() == 0 {
            // Advance a polling quantum so the host's pump loop sees
            // progress.
            self.consume(TimeBucket::Idle, costs::STUB_POLL);
            return PlatformStep::Running;
        }
        service(self);
        PlatformStep::Running
    }
}

impl ExitPolicy for LvmmPlatform {
    fn mach(&self) -> &Machine {
        &self.core.machine
    }

    fn mach_mut(&mut self) -> &mut Machine {
        &mut self.core.machine
    }

    fn time_stats_mut(&mut self) -> &mut TimeStats {
        &mut self.core.stats
    }

    fn handle_trap(&mut self, trap: Trap) {
        self.dispatch_trap(trap);
    }

    fn handle_interrupt(&mut self, irq: u8, _vector: u8) {
        self.take_interrupt(irq);
    }

    /// Remembers the boundary cycle at which the latest guest instruction
    /// started — seeking there lands *before* that instruction executes,
    /// which is what `reverse-step` wants (e.g. parked on the faulting
    /// store, one instant before the damage).
    fn on_instr_boundary(&mut self, at: u64) {
        if let Some(fr) = &mut self.flight {
            fr.last_instr_at = at;
        }
    }
}

impl Platform for LvmmPlatform {
    fn name(&self) -> &'static str {
        "lvmm"
    }

    fn machine(&self) -> &Machine {
        &self.core.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.core.machine
    }

    fn time_stats(&self) -> &TimeStats {
        &self.core.stats
    }

    fn step(&mut self) -> PlatformStep {
        // The flight recorder needs per-instruction boundaries (its
        // `reverse-step` anchor and checkpoint cadence), and so does the
        // profiler (its PC attribution anchor); batching is only enabled
        // when both are off.
        let batch = self.flight.is_none() && !self.core.machine.obs.profiling();
        self.maybe_checkpoint();
        self.step_state(batch)
    }

    fn step_precise(&mut self) -> PlatformStep {
        self.maybe_checkpoint();
        self.step_state(false)
    }
}

/// A [`rdbg::Link`] that connects the host debugger to any platform's UART,
/// running the platform while the debugger waits for replies.
#[derive(Debug)]
pub struct UartLink<P> {
    /// The platform under debug.
    pub platform: P,
    /// Simulation cycles to run per pump.
    pub slice: u64,
}

impl<P: Platform> UartLink<P> {
    /// Wraps a platform with a default pump slice.
    pub fn new(platform: P) -> UartLink<P> {
        UartLink {
            platform,
            slice: 5_000,
        }
    }
}

impl<P: Platform> rdbg::Link for UartLink<P> {
    fn send(&mut self, bytes: &[u8]) {
        self.platform.machine_mut().uart_input(bytes);
    }

    fn pump(&mut self) -> Vec<u8> {
        self.platform.run_for(self.slice);
        self.platform.machine_mut().uart_output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hx_cpu::csr::Csr;
    use hx_cpu::Mode;
    use hx_machine::MachineConfig;
    use rdbg::msg::Command;
    use rdbg::stub::dispatch;

    fn boot(src: &str) -> LvmmPlatform {
        let program = hx_asm::assemble(src).expect("guest assembles");
        let mut machine = Machine::new(MachineConfig {
            ram_size: 8 << 20,
            ..MachineConfig::default()
        });
        machine.load_program(&program);
        let entry = program.symbols.get("start").unwrap_or(program.base());
        LvmmPlatform::new(machine, entry)
    }

    #[test]
    fn guest_csr_access_is_virtualized() {
        let mut vmm = boot(
            "start:  csrw tvec, 0x2000
                     csrr a0, tvec
             halt:   j halt
            ",
        );
        vmm.run_for(50_000);
        assert_eq!(vmm.machine().cpu.reg(hx_cpu::Reg::R4), 0x2000);
        assert_eq!(vmm.vcpu().tvec, 0x2000);
        // The *real* trap vector never changed.
        assert_eq!(vmm.machine().cpu.read_csr(Csr::Tvec), 0);
        assert!(vmm.monitor_stats().exits_privileged >= 2);
    }

    #[test]
    fn query_metrics_needs_the_host_profiler() {
        let mut vmm = boot("start: j start\n");
        assert_eq!(
            dispatch(&mut vmm, Command::QueryMetrics),
            Reply::Error(err::METRICS),
            "no host profiler enabled => the stable metrics error code"
        );
        assert_eq!(rdbg::err_name(err::METRICS), Some("metrics unavailable"));

        vmm.machine_mut().obs.enable_hostprof();
        vmm.run_for(50_000);
        let first = dispatch(&mut vmm, Command::QueryMetrics);
        let Reply::Metrics { attribution: s, .. } = &first else {
            panic!("expected a metrics sample, got {first:?}");
        };
        assert!(s.wall_ns > 0, "wall clock advanced");
        assert!(s.marks > 0, "phase boundaries were marked");
        assert!(s.attributed_ns() <= s.wall_ns);
        // Fixed-width: two samples taken at different host times must
        // serialize to the same number of bytes.
        let again = dispatch(&mut vmm, Command::QueryMetrics);
        assert_eq!(again.format().len(), first.format().len());
    }

    #[test]
    fn guest_runs_in_hardware_user_mode_but_virtual_supervisor() {
        let vmm = boot("start: j start\n");
        assert_eq!(vmm.machine().cpu.mode(), Mode::User);
        assert_eq!(vmm.vcpu().vmode, Mode::Supervisor);
    }

    #[test]
    fn ecall_from_virtual_kernel_reaches_guest_handler_as_ecalls() {
        let mut vmm = boot(
            "        .org 0x100
             handler:
                     csrr a1, cause
             hh:     j hh
             start:  csrw tvec, handler
                     ecall
             halt:   j halt
            ",
        );
        vmm.run_for(100_000);
        assert_eq!(vmm.machine().cpu.reg(hx_cpu::Reg::R5), Cause::EcallS.code());
        assert_eq!(vmm.vcpu().vmode, Mode::Supervisor);
        assert!(vmm.monitor_stats().faults_injected >= 1);
    }

    #[test]
    fn timer_interrupt_reflected_and_injected() {
        let mut vmm = boot(&format!(
            "        .org 0x100
             handler:
                     addi s0, s0, 1
                     li   k0, {pic:#x}
                     sw   zero, 0xc(k0)      ; EOI virtual irq 0
                     tret
             start:  csrw tvec, handler
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
        ));
        vmm.run_for(200_000);
        let ticks = vmm.machine().cpu.reg(hx_cpu::Reg::R18);
        assert!(
            ticks >= 3,
            "guest must have handled several virtual timer ticks, got {ticks}"
        );
        let ms = vmm.monitor_stats();
        assert!(ms.irqs_injected >= 3);
        assert!(ms.exits_irq_reflect >= 3);
        assert!(ms.exits_mmio >= 3, "virtual EOIs are emulated MMIO");
        // The virtual wfi idles the machine.
        assert!(vmm.time_stats().idle > 0);
    }

    #[test]
    fn monitor_memory_is_unreachable_from_guest_kernel() {
        let mut vmm = boot(
            "start:  csrw tvec, fault        ; catch our own fault
                     li   t0, 0x600000       ; inside the monitor region (8MB-2MB)
                     li   t1, 0xdeadbeef
                     sw   t1, 0(t0)          ; must NOT reach monitor memory
                     li   s1, 1              ; (skipped: fault taken first)
             halt:   j halt
             fault:  li   s2, 1
             fh:     j fh
            ",
        );
        let monitor_base = vmm.monitor_base();
        let probe = 0x60_0000u32;
        assert!(
            probe >= monitor_base,
            "probe must target the monitor region"
        );
        vmm.run_for(100_000);
        // The guest's fault handler ran instead of the store landing.
        assert_eq!(
            vmm.machine().cpu.reg(hx_cpu::Reg::R20),
            1,
            "fault handler (s2) ran"
        );
        assert_eq!(
            vmm.machine().cpu.reg(hx_cpu::Reg::R19),
            0,
            "post-store code (s1) skipped"
        );
        assert!(vmm.monitor_stats().protection_violations >= 1);
        // The guest's value never landed in monitor memory (the word there
        // belongs to the shadow pager, not the guest).
        assert_ne!(vmm.machine().mem.word(probe), 0xdead_beef);
    }

    #[test]
    fn three_level_protection_with_guest_paging() {
        // Guest kernel builds page tables: kernel code RWX (no U) mapped at
        // identity, a user page with U. The user task tries to write a
        // kernel page -> guest page fault handled by guest kernel.
        let mut vmm = boot(
            "        .equ PT_ROOT, 0x100000
                     .equ PT_L2,   0x101000
                     .equ USERPG,  0x102000
             start:  csrw tvec, ktrap
                     ; L1[0] -> L2 table
                     li   t0, PT_ROOT
                     li   t1, PT_L2 + 1          ; V
                     sw   t1, 0(t0)
                     ; identity-map first 16 pages RWX kernel-only
                     li   t0, PT_L2
                     li   t1, 0x0000000f          ; V|R|W|X
                     li   t2, 16
             lp:     sw   t1, 0(t0)
                     addi t0, t0, 4
                     li   t3, 0x1000
                     add  t1, t1, t3
                     addi t2, t2, -1
                     bnez t2, lp
                     ; map PT pages + user page
                     li   t0, PT_L2 + 0x400       ; entries for 0x100000..
                     li   t1, PT_ROOT + 0xf       ; V|R|W|X
                     sw   t1, 0(t0)
                     li   t1, PT_L2 + 0xf
                     sw   t1, 4(t0)
                     li   t1, USERPG + 0x1f       ; V|R|W|X|U
                     sw   t1, 8(t0)
                     ; enable guest paging
                     li   t0, PT_ROOT + 1
                     csrw ptbr, t0
                     tlbflush
                     ; write user code: sw t1, 0(zero) then spin
                     li   t0, USERPG
                     li   t1, 0x68000000          ; sw r0, 0(r0): opcode SW=0x1a<<26
                     lui  t1, 0x6800
                     sw   t1, 0(t0)
                     li   t1, 0x0
                     ; enter user mode at USERPG: set vEPC, clear PMODE
                     csrw epc, t0
                     csrw status, 0               ; PMODE=0 -> user
                     tret
             ktrap:  csrr s3, cause               ; guest kernel sees the fault
             done:   j done
            ",
        );
        vmm.run_for(400_000);
        // The user store to VA 0 (kernel page, no U bit) faulted into the
        // guest kernel with a store page fault.
        assert_eq!(
            vmm.machine().cpu.reg(hx_cpu::Reg::R21),
            Cause::StorePageFault.code(),
            "vcpu: {:?}, pc={:#x}",
            vmm.vcpu(),
            vmm.machine().cpu.pc()
        );
        assert!(vmm.shadow_stats().fills > 0);
    }

    #[test]
    fn passthrough_disk_io_runs_without_mmio_exits() {
        let mut vmm = boot(&format!(
            "start:  li   t0, {hdc:#x}
                     li   t1, 9
                     sw   t1, 0(t0)
                     li   t1, 1
                     sw   t1, 4(t0)
                     li   t1, 0x9000
                     sw   t1, 8(t0)
                     li   t1, 1
                     sw   t1, 0xc(t0)
             poll:   lw   t2, 0x10(t0)
                     andi t2, t2, 2
                     beqz t2, poll
                     li   s0, 1
             halt:   j halt
            ",
            hdc = map::HDC_BASE
        ));
        vmm.run_for(500_000);
        assert_eq!(
            vmm.machine().cpu.reg(hx_cpu::Reg::R18),
            1,
            "transfer completed"
        );
        let mut expect = vec![0u8; 512];
        hx_machine::disk::fill_expected(0, 9, &mut expect);
        assert_eq!(&vmm.machine().mem.as_bytes()[0x9000..0x9200], &expect[..]);
        let ms = vmm.monitor_stats();
        assert_eq!(
            ms.exits_mmio, 0,
            "disk registers are passthrough — no emulation exits"
        );
        // Exactly one shadow fill for the device page (plus code/data pages).
        assert!(ms.exits_shadow >= 1);
    }

    #[test]
    fn time_accounting_is_complete() {
        let mut vmm = boot(
            "start:  csrw tvec, h
                     li t0, 100
             l:      addi t0, t0, -1
                     bnez t0, l
             halt:   j halt
             h:      j h
            ",
        );
        let t0 = vmm.machine().now();
        vmm.run_for(30_000);
        let elapsed = vmm.machine().now() - t0;
        assert_eq!(vmm.time_stats().total(), elapsed);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut vmm = boot(
                "start:  csrw tvec, h
                         li  t0, 500
                 l:      addi t0, t0, -1
                         bnez t0, l
                         ecall
                 h:      csrr a0, cause
                 hh:     j hh
                ",
            );
            vmm.run_for(100_000);
            (
                vmm.machine().now(),
                *vmm.time_stats(),
                vmm.monitor_stats(),
                vmm.machine().cpu.regs().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }
}
