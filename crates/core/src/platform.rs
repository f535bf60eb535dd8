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
//! * runs the debug stub ([`crate::Stub`]) whenever UART traffic arrives —
//!   including while the guest streams I/O at full rate, and including when
//!   the guest has destroyed its own memory.
//!
//! The trap-and-emulate paths themselves live in [`crate::virt`], shared
//! with the hosted monitor; this module supplies the lightweight monitor's
//! policy: device passthrough and the debug stub.

use crate::costs;
use crate::replay::{reexecute, FlightRecorder};
use crate::shadow::ShadowStats;
use crate::stub::{err, parse_condition, StepIntent, Stub, StubStats, Watchpoint};
use crate::vcpu::VCpu;
use crate::virt::{ExitCosts, ExitStats, RunState, VirtCore, VirtPolicy};
use hx_cpu::csr::{Csr, Status};
use hx_cpu::isa::{Instr, LoadKind, StoreKind};
use hx_cpu::mmu::{pte, Access, PAGE_MASK};
use hx_cpu::trap::{Cause, Trap};
use hx_cpu::MemSize;
use hx_machine::engine::ExitPolicy;
use hx_machine::platform::PlatformStep;
use hx_machine::{map, Machine, Platform, TimeBucket, TimeStats};
use hx_obs::{EventKind, ExitCause, HostPhase};
use hx_query::{Expr, SliceCtx};
use rdbg::msg::{Command, ProfSample, Reply, StatsSample, StopReason};
use rdbg::wire::{self, WireEvent};

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
            stub: Stub::new(),
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

    /// Moves the platform to `target` on the recorded timeline.
    ///
    /// Backward: restores the nearest checkpoint at or before `target` and
    /// re-executes history up to it (see [`Self::replay`]). Forward:
    /// free-runs to `target`. Either way the guest parks there with a
    /// [`StopReason::TimeTravel`] stop, and subsequent execution rewrites
    /// the future (new-branch semantics: the journal, checkpoints and stop
    /// history beyond the restore point are truncated and rebuilt).
    fn seek_to(&mut self, target: u64) -> Reply {
        let restore = (target < self.core.machine.now()).then_some(target);
        match self.replay(restore, |p| p.core.machine.now() >= target) {
            Some(_) => Reply::Ok,
            None => Reply::Error(err::RECORDER),
        }
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
        self.stub_stop(StopReason::TimeTravel { pc, cycle });
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
        let s = Status(self.core.machine.cpu.read_csr(Csr::Status));
        self.core
            .machine
            .cpu
            .write_csr(Csr::Status, s.with(Status::TF, false).0);

        match self.stub.step_intent.take() {
            Some(StepIntent::Step) => {
                self.core.exits.exits_debug += 1;
                self.stub_stop(StopReason::Step { pc: trap.epc });
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

    /// Completes one guest store that faulted only because a watchpoint
    /// shares its page.
    fn emulate_guest_store(&mut self, trap: Trap, gpa: u32) {
        self.consume_monitor(costs::EMUL_ACCESS);
        self.core.exits.emulated_stores += 1;
        let Some(instr) = self.core.fetch_guest_instr(trap.epc) else {
            self.inject_guest_trap(Cause::InstrPageFault, trap.epc, trap.epc);
            return;
        };
        if let Instr::Store { kind, rs2, .. } = instr {
            let size = match kind {
                StoreKind::B => MemSize::Byte,
                StoreKind::H => MemSize::Half,
                StoreKind::W => MemSize::Word,
            };
            let val = self.core.machine.cpu.reg(rs2);
            if self.core.machine.mem.write(gpa, val, size).is_ok() {
                self.retire_emulated(trap.epc, trap.epc.wrapping_add(4));
                return;
            }
        }
        self.inject_guest_trap(Cause::StoreAccessFault, trap.epc, trap.tval);
    }

    /// Completes one guest load that faulted only because a read
    /// watchpoint shares its page.
    fn emulate_guest_load(&mut self, trap: Trap, gpa: u32) {
        self.consume_monitor(costs::EMUL_ACCESS);
        self.core.exits.emulated_loads += 1;
        let Some(instr) = self.core.fetch_guest_instr(trap.epc) else {
            self.inject_guest_trap(Cause::InstrPageFault, trap.epc, trap.epc);
            return;
        };
        if let Instr::Load { kind, rd, .. } = instr {
            let size = match kind {
                LoadKind::B | LoadKind::Bu => MemSize::Byte,
                LoadKind::H | LoadKind::Hu => MemSize::Half,
                LoadKind::W => MemSize::Word,
            };
            if let Ok(raw) = self.core.machine.mem.read(gpa, size) {
                // Same extension rules as the CPU's own load path.
                let val = match kind {
                    LoadKind::B => raw as u8 as i8 as i32 as u32,
                    LoadKind::Bu => raw & 0xff,
                    LoadKind::H => raw as u16 as i16 as i32 as u32,
                    LoadKind::Hu => raw & 0xffff,
                    LoadKind::W => raw,
                };
                self.core.machine.cpu.set_reg(rd, val);
                self.retire_emulated(trap.epc, trap.epc.wrapping_add(4));
                return;
            }
        }
        self.inject_guest_trap(Cause::LoadAccessFault, trap.epc, trap.tval);
    }

    // ------------------------------------------------------------------
    // Debug stub behaviour
    // ------------------------------------------------------------------

    fn stub_stop(&mut self, reason: StopReason) {
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
        self.stub.stopped = true;
        self.stub.last_stop = Some(reason);
        self.stub.step_intent = None;
        // Disarm the hardware single-step flag while stopped.
        let s = Status(self.core.machine.cpu.read_csr(Csr::Status));
        self.core
            .machine
            .cpu
            .write_csr(Csr::Status, s.with(Status::TF, false).0);
        // `;c:` appears only for nonzero cores, so single-core stop packets
        // are byte-identical to the pre-SMP wire format.
        let core = self.core.cur_core as u8;
        self.send_packet(&reason.format_on(core));
    }

    fn send_packet(&mut self, payload: &str) {
        let bytes = wire::encode_packet(payload);
        self.stub.stats.bytes_out += bytes.len() as u64;
        self.consume_monitor(costs::STUB_BYTE * bytes.len() as u64);
        self.core.machine.uart.push_tx(&bytes);
        // Keep the packet until the host ACKs it, so a NAK can be answered
        // by retransmission (a lossy line must not wedge the session).
        self.stub.last_tx = Some(bytes);
        self.stub.resends = 0;
    }

    /// Retransmits the unacknowledged packet after a host NAK, bounded by
    /// [`Stub::RESEND_LIMIT`].
    fn resend_packet(&mut self) {
        let Some(bytes) = self.stub.last_tx.clone() else {
            return;
        };
        if self.stub.resends >= Stub::RESEND_LIMIT {
            self.stub.last_tx = None;
            return;
        }
        self.stub.resends += 1;
        self.stub.stats.retransmits += 1;
        self.stub.stats.bytes_out += bytes.len() as u64;
        self.consume_monitor(costs::STUB_BYTE * bytes.len() as u64);
        self.core.machine.uart.push_tx(&bytes);
    }

    fn send_reply(&mut self, reply: &Reply) {
        self.send_packet(&reply.format());
    }

    /// Drains host bytes from the UART and executes any complete commands.
    fn service_uart(&mut self) {
        let mut bytes = Vec::new();
        while let Some(b) = self.core.machine.uart.pop_rx() {
            bytes.push(b);
        }
        if bytes.is_empty() {
            return;
        }
        // Stub servicing is host work after (possibly deferred) guest
        // execution; close the guest window before attributing it.
        self.core.machine.obs.host_mark(HostPhase::GuestExec);
        self.stub.stats.bytes_in += bytes.len() as u64;
        self.consume_monitor(costs::STUB_BYTE * bytes.len() as u64);
        self.stub.parser.push(&bytes);
        while let Some(event) = self.stub.parser.next_event() {
            match event {
                WireEvent::BreakIn => {
                    self.stub.stats.break_ins += 1;
                    self.core.exits.exits_debug += 1;
                    let monitor_before = self.core.stats.monitor;
                    let pc = self.core.machine.cpu.pc();
                    self.stub_stop(StopReason::Halted { pc });
                    // Saturating: a time-travel command may have rewound
                    // `stats` to before this exit began.
                    let delta = self.core.stats.monitor.saturating_sub(monitor_before);
                    self.record_exit(ExitCause::Debug, delta);
                }
                WireEvent::Packet(p) => {
                    self.core.machine.uart.push_tx(&[wire::ACK]);
                    let monitor_before = self.core.stats.monitor;
                    self.consume_monitor(costs::STUB_COMMAND);
                    self.stub.stats.commands += 1;
                    {
                        let now = self.core.machine.now();
                        let code = p.as_bytes().first().copied().unwrap_or(0);
                        self.core
                            .machine
                            .obs
                            .emit(now, EventKind::DebugCommand { code });
                    }
                    let reply = match Command::parse(&p) {
                        Some(cmd) => self.exec_command(cmd),
                        None => Reply::Error(err::PARSE),
                    };
                    self.send_reply(&reply);
                    // Saturating: a time-travel command may have rewound
                    // `stats` to before this exit began.
                    let delta = self.core.stats.monitor.saturating_sub(monitor_before);
                    self.record_exit(ExitCause::Debug, delta);
                }
                WireEvent::Corrupt => {
                    self.core.machine.uart.push_tx(&[wire::NAK]);
                }
                WireEvent::Ack => {
                    // Delivery confirmed: drop the retransmission cache.
                    self.stub.last_tx = None;
                    self.stub.resends = 0;
                }
                WireEvent::Nak => self.resend_packet(),
            }
        }
        // Whatever the per-packet `record_exit(Debug)` marks did not claim
        // (byte draining, parsing, ACK/NAK handling) is debug-link I/O.
        self.core.machine.obs.host_mark(HostPhase::DebugLink);
    }

    fn exec_command(&mut self, cmd: Command) -> Reply {
        match cmd {
            Command::Halt => {
                let pc = self.core.machine.cpu.pc();
                self.stub_stop(StopReason::Halted { pc });
                Reply::Ok
            }
            Command::QueryStop => match self.stub.last_stop {
                Some(r) if self.stub.stopped => Reply::Stopped(r),
                _ => Reply::Error(err::NOT_STOPPED),
            },
            Command::SetThread { core } => {
                if (core as usize) < self.core.machine.num_cores() {
                    self.stub.sel_core = core;
                    Reply::Ok
                } else {
                    Reply::Error(err::CORE)
                }
            }
            Command::ThreadAlive { core } => {
                if (core as usize) < self.core.machine.num_cores()
                    && self.core.machine.core_started(core as usize)
                {
                    Reply::Ok
                } else {
                    Reply::Error(err::CORE)
                }
            }
            Command::ReadRegisters => {
                let cpu = self.core.machine.core(self.stub.sel_core as usize);
                let mut bytes = Vec::with_capacity(33 * 4);
                for r in cpu.regs() {
                    bytes.extend_from_slice(&r.to_le_bytes());
                }
                bytes.extend_from_slice(&cpu.pc().to_le_bytes());
                Reply::Hex(bytes)
            }
            Command::WriteRegister { index, value } => {
                let sel = self.stub.sel_core as usize;
                if index < 32 {
                    let reg = hx_cpu::Reg::new(index).unwrap();
                    self.core.machine.core_mut(sel).set_reg(reg, value);
                    Reply::Ok
                } else if index as u32 == rdbg::msg::REG_PC as u32 {
                    self.core.machine.core_mut(sel).set_pc(value);
                    Reply::Ok
                } else {
                    Reply::Error(err::REG)
                }
            }
            Command::ReadMemory { addr, len } => {
                if len > rdbg::msg::MEM_CHUNK {
                    return Reply::Error(err::PARSE);
                }
                let mut out = Vec::with_capacity(len as usize);
                for i in 0..len {
                    let va = addr.wrapping_add(i);
                    let Some(pa) = self.sel_translate(va) else {
                        return Reply::Error(err::MEM);
                    };
                    match self.core.machine.mem.read(pa, MemSize::Byte) {
                        Ok(b) => out.push(b as u8),
                        Err(_) => return Reply::Error(err::MEM),
                    }
                }
                Reply::Hex(out)
            }
            Command::WriteMemory { addr, data } => {
                for (i, &b) in data.iter().enumerate() {
                    let va = addr.wrapping_add(i as u32);
                    let Some(pa) = self.sel_translate(va) else {
                        return Reply::Error(err::MEM);
                    };
                    if self
                        .core
                        .machine
                        .mem
                        .write(pa, b as u32, MemSize::Byte)
                        .is_err()
                    {
                        return Reply::Error(err::MEM);
                    }
                }
                Reply::Ok
            }
            Command::SetBreakpoint { addr } => {
                // A misaligned hook could never meet a fetch.
                if addr & 3 != 0 {
                    return Reply::Error(err::PARSE);
                }
                if self.core.machine.has_breakpoint(addr) {
                    return Reply::Error(err::BP);
                }
                if self.sel_translate(addr).is_none() {
                    return Reply::Error(err::MEM);
                }
                self.core.machine.set_breakpoint(addr, None);
                Reply::Ok
            }
            Command::ClearBreakpoint { addr } => {
                if self.core.machine.clear_breakpoint(addr) {
                    Reply::Ok
                } else {
                    Reply::Error(err::BP)
                }
            }
            Command::SetWatchpoint { addr, len, kind } => {
                if len == 0 {
                    return Reply::Error(err::PARSE);
                }
                self.stub.watchpoints.push(Watchpoint {
                    addr,
                    len,
                    kind,
                    cond: None,
                });
                // Drop mappings so watched pages re-fault.
                self.core.shadow.flush_all(&mut self.core.machine.mem);
                self.core.activate_shadow();
                self.core.machine.cpu.tlb_flush();
                Reply::Ok
            }
            Command::ClearWatchpoint { addr } => {
                let before = self.stub.watchpoints.len();
                self.stub.watchpoints.retain(|w| w.addr != addr);
                if self.stub.watchpoints.len() == before {
                    return Reply::Error(err::BP);
                }
                self.core.shadow.flush_all(&mut self.core.machine.mem);
                self.core.activate_shadow();
                self.core.machine.cpu.tlb_flush();
                Reply::Ok
            }
            Command::SetBreakCondition { addr, expr } => {
                if !self.core.machine.has_breakpoint(addr) {
                    return Reply::Error(err::BP);
                }
                let Ok(cond) = parse_condition(&expr) else {
                    return Reply::Error(err::QUERY);
                };
                self.core.machine.set_breakpoint(addr, cond);
                Reply::Ok
            }
            Command::SetWatchCondition { addr, expr } => {
                let Ok(cond) = parse_condition(&expr) else {
                    return Reply::Error(err::QUERY);
                };
                let mut any = false;
                for w in &mut self.stub.watchpoints {
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
            Command::SetLogpoint { addr, label, expr } => {
                if addr & 3 != 0 {
                    return Reply::Error(err::PARSE);
                }
                let Ok(cond) = parse_condition(&expr) else {
                    return Reply::Error(err::QUERY);
                };
                self.core.machine.add_logpoint(addr, &label, cond);
                Reply::Ok
            }
            Command::ClearLogpoint { addr } => {
                if self.core.machine.clear_logpoints(addr) {
                    Reply::Ok
                } else {
                    Reply::Error(err::BP)
                }
            }
            Command::QueryFirst { expr } => {
                if !self.stub.stopped {
                    return Reply::Error(err::NOT_STOPPED);
                }
                match Expr::parse(&expr) {
                    Ok(e) => self.query_first(&e),
                    Err(_) => Reply::Error(err::QUERY),
                }
            }
            Command::Step => {
                if !self.stub.stopped {
                    return Reply::Error(err::NOT_STOPPED);
                }
                self.arm_resume(Some(StepIntent::Step));
                Reply::Ok
            }
            Command::Continue => {
                if !self.stub.stopped {
                    return Reply::Error(err::NOT_STOPPED);
                }
                // Step off a breakpoint we are parked on, then run.
                let on_bp = self.core.machine.has_breakpoint(self.core.machine.cpu.pc());
                self.arm_resume(on_bp.then_some(StepIntent::Resume));
                Reply::Ok
            }
            Command::Reset => {
                self.core.reset(self.entry);
                self.stub.step_intent = None;
                self.stub_stop(StopReason::Halted { pc: self.entry });
                Reply::Ok
            }
            Command::ReverseStep => {
                if !self.stub.stopped {
                    return Reply::Error(err::NOT_STOPPED);
                }
                let Some(fr) = self.flight.as_deref() else {
                    return Reply::Error(err::RECORDER);
                };
                self.seek_to(fr.last_instr_at)
            }
            Command::ReverseContinue => {
                if !self.stub.stopped {
                    return Reply::Error(err::NOT_STOPPED);
                }
                let Some(fr) = self.flight.as_deref() else {
                    return Reply::Error(err::RECORDER);
                };
                // Anchor on the cycle of the stop we are parked at (`now`
                // keeps advancing while stopped), then rewind to the
                // latest stop strictly before it.
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
                    Some(t) => self.seek_to(t),
                    None => Reply::Error(err::RECORDER),
                }
            }
            Command::Seek { cycle } => {
                if !self.stub.stopped {
                    return Reply::Error(err::NOT_STOPPED);
                }
                self.seek_to(cycle)
            }
            Command::QueryStats => {
                // Answered whether or not the guest is stopped — the whole
                // point is sampling the monitor live, without a halt.
                let faults = self
                    .core
                    .machine
                    .fault_stats()
                    .map(|f| f.injected.to_vec())
                    .unwrap_or_default();
                let fault_blocked = self.core.machine.fault_stats().map_or(0, |f| f.blocked);
                let n = self.core.machine.num_cores();
                Reply::Stats(StatsSample {
                    now: self.core.machine.now(),
                    guest: self.core.stats.guest,
                    monitor: self.core.stats.monitor,
                    host: self.core.stats.host_model,
                    idle: self.core.stats.idle,
                    exits: self.core.machine.obs.exits.counts().to_vec(),
                    faults,
                    fault_blocked,
                    cores: n as u64,
                    core_instret: (0..n)
                        .map(|i| self.core.machine.core(i).instret())
                        .collect(),
                    core_exits: (0..n)
                        .map(|i| self.core.machine.obs.core_exit_count(i))
                        .collect(),
                })
            }
            Command::QueryProf { max } => {
                // Like `qStats`: answered live, without stopping the guest.
                let Some(prof) = self.core.machine.obs.prof() else {
                    return Reply::Error(err::PROFILER);
                };
                Reply::Prof(ProfSample {
                    now: self.core.machine.now(),
                    interval: prof.interval(),
                    total_cycles: prof.total_cycles(),
                    total_samples: prof.total_samples(),
                    top: prof
                        .top(max as usize)
                        .into_iter()
                        .map(|(name, cycles, samples)| (name.to_string(), cycles, samples))
                        .collect(),
                })
            }
            Command::QueryFlow => {
                // Like `qStats`: answered live, without stopping the guest.
                // Every value is simulation-deterministic, so the reply's
                // byte cost is a pure function of the run.
                let Some(c) = self.core.machine.obs.causal() else {
                    return Reply::Error(err::CAUSAL);
                };
                Reply::Flow {
                    now: self.core.machine.now(),
                    summary: c.summary(),
                }
            }
            Command::QueryMetrics => {
                // Like `qStats`: answered live, without stopping the guest.
                // The reply's wire encoding is fixed-width, so its simulated
                // byte cost never depends on the host-clock values it
                // carries — replay stays byte-identical.
                let Some(attribution) = self.core.machine.obs.host_attribution() else {
                    return Reply::Error(err::METRICS);
                };
                Reply::Metrics {
                    now: self.core.machine.now(),
                    attribution,
                }
            }
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
    fn query_first(&mut self, expr: &Expr) -> Reply {
        let original = self.core.machine.now();
        let first = self.flight.as_deref().and_then(|f| f.first_at());
        let restore = first.unwrap_or(original);
        let mut found = None;
        let landed = self.replay(Some(restore), |p| {
            let now = p.core.machine.now();
            if p.eval_pred(expr) {
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

    /// Resumes the guest, arming a single step first for `intent`. The
    /// parked core passes a breakpoint under its PC until it leaves it;
    /// every other core still stops there.
    fn arm_resume(&mut self, intent: Option<StepIntent>) {
        self.core.machine.step_off_breakpoint();
        self.stub.step_intent = intent;
        self.stub.stopped = false;
        self.core.state = RunState::Running;
        self.core.machine.pause_faults(false);
        self.sync_tf();
    }

    /// [`Self::translate_for_debug`] through the `Hg`-selected core's
    /// address space — what the host's register/memory commands look
    /// through.
    fn sel_translate(&mut self, va: u32) -> Option<u32> {
        let v = self.sel_vcpu();
        let root = v.paging_enabled().then(|| v.page_table_root());
        self.translate_for_debug(root, va)
    }

    /// The `Hg`-selected core's virtual CPU.
    fn sel_vcpu(&self) -> &VCpu {
        let sel = self.stub.sel_core as usize;
        if sel == self.core.cur_core {
            &self.core.vcpu
        } else {
            &self.core.vcpus[sel]
        }
    }

    /// Translates a guest virtual address for debugger access: guest page
    /// tables (at `paging_root`, if paging is on) are honoured but
    /// permission bits are not (the debugger may read execute-only pages).
    /// Only guest RAM is reachable.
    fn translate_for_debug(&mut self, paging_root: Option<u32>, va: u32) -> Option<u32> {
        let gpa = if let Some(root) = paging_root {
            let l1_addr = root + hx_cpu::mmu::l1_index(va) * 4;
            if l1_addr + 4 > self.core.monitor_base {
                return None;
            }
            let l1e = self.core.machine.mem.read(l1_addr, MemSize::Word).ok()?;
            if l1e & pte::V == 0 || l1e & (pte::R | pte::W | pte::X) != 0 {
                return None;
            }
            let l2_addr = (l1e & pte::PPN_MASK) + hx_cpu::mmu::l2_index(va) * 4;
            if l2_addr + 4 > self.core.monitor_base {
                return None;
            }
            let leaf = self.core.machine.mem.read(l2_addr, MemSize::Word).ok()?;
            if leaf & pte::V == 0 {
                return None;
            }
            (leaf & pte::PPN_MASK) | (va & PAGE_MASK)
        } else {
            va
        };
        (gpa < self.core.monitor_base).then_some(gpa)
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
        let vcpu = &self.core.vcpu;
        let root = vcpu.paging_enabled().then(|| vcpu.page_table_root());
        let mut v = 0u32;
        for i in 0..size as u32 {
            let pa = self.translate_for_debug(root, addr.wrapping_add(i))?;
            let b = self.core.machine.mem.read(pa, MemSize::Byte).ok()?;
            v |= (b & 0xff) << (8 * i);
        }
        Some(v)
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
            self.service_uart();
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
            self.stub_stop(StopReason::Fault {
                pc: epc,
                cause: cause.code(),
            });
        }
        park
    }

    fn park_on_livelock(&mut self, trap: Trap) -> bool {
        self.stub_stop(StopReason::Fault {
            pc: trap.epc,
            cause: trap.cause.code(),
        });
        true
    }

    fn debug_exit(&mut self, trap: Trap) -> Option<ExitCause> {
        match trap.cause {
            Cause::Breakpoint if trap.is_hook() => {
                self.core.exits.exits_debug += 1;
                if self.bp_condition_holds(trap.epc) {
                    self.stub_stop(StopReason::Breakpoint { pc: trap.epc });
                } else {
                    // Condition false: silently step off the breakpoint and
                    // keep running — the guest never observes the stop.
                    self.arm_resume(Some(StepIntent::Resume));
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
        let is_store = access == Access::Store;
        let watched_page = if is_store {
            self.stub.watch_overlaps_page_write(va)
        } else {
            access == Access::Load && self.stub.watch_overlaps_page_read(va)
        };
        if !watched_page {
            let mut withheld = 0;
            if self.stub.watch_overlaps_page_read(va) {
                withheld |= pte::R;
            }
            if self.stub.watch_overlaps_page_write(va) {
                withheld |= pte::W;
            }
            return Ok(withheld);
        }
        if let Some(w) = self.stub.watch_hit(va, 4, is_store) {
            let stop = match w.cond.clone() {
                None => true,
                // Unevaluable conditions stop too — fail safe.
                Some(c) => c.eval(self).is_none_or(|v| v != 0),
            };
            if stop {
                self.core.exits.exits_debug += 1;
                self.stub_stop(StopReason::Watchpoint {
                    pc: trap.epc,
                    addr: va,
                });
                return Err(ExitCause::Debug);
            }
        }
        // Unwatched (or condition-false) access that merely shares the
        // page: the monitor completes it on the guest's behalf.
        if is_store {
            self.emulate_guest_store(trap, gpa);
        } else {
            self.emulate_guest_load(trap, gpa);
        }
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
            self.core.machine.consume(costs::STUB_POLL);
            self.charge(TimeBucket::Idle, costs::STUB_POLL);
            return PlatformStep::Running;
        }
        self.service_uart();
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
    use hx_cpu::Mode;
    use hx_machine::MachineConfig;

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
            vmm.exec_command(Command::QueryMetrics),
            Reply::Error(err::METRICS),
            "no host profiler enabled => the stable metrics error code"
        );
        assert_eq!(rdbg::err_name(err::METRICS), Some("metrics unavailable"));

        vmm.machine_mut().obs.enable_hostprof();
        vmm.run_for(50_000);
        let first = vmm.exec_command(Command::QueryMetrics);
        let Reply::Metrics { attribution: s, .. } = &first else {
            panic!("expected a metrics sample, got {first:?}");
        };
        assert!(s.wall_ns > 0, "wall clock advanced");
        assert!(s.marks > 0, "phase boundaries were marked");
        assert!(s.attributed_ns() <= s.wall_ns);
        // Fixed-width: two samples taken at different host times must
        // serialize to the same number of bytes.
        let again = vmm.exec_command(Command::QueryMetrics);
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
