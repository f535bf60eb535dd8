//! The trap-and-emulate core both monitors share.
//!
//! The lightweight monitor and the hosted full monitor virtualize the CPU
//! the same way (the paper's Fig. 2.1 and §3): ring compression, virtual
//! CSRs, shadow paging, a virtual PIC and virtual IPIs. [`VirtCore`] holds
//! that per-guest state, and the default methods of [`VirtPolicy`] handle
//! every exit once. A platform supplies only what really differs:
//!
//! * its exit costs, as data ([`VirtPolicy::COSTS`]);
//! * device routing: whether device pages the virtual chipset does not own
//!   are mapped straight through ([`VirtPolicy::PASSTHROUGH`]) or emulated
//!   and relayed ([`VirtPolicy::relay_read`], [`VirtPolicy::relay_write`]),
//!   and who owns each real interrupt ([`VirtPolicy::route_irq`]);
//! * the debug stub's hooks, which only the lightweight monitor has.
//!
//! Every trap cause is routed once, in [`VirtPolicy::dispatch_trap`]:
//!
//! | cause | handled by |
//! |-------|------------|
//! | privileged instruction | [`VirtPolicy::emulate_privileged`] |
//! | instruction/load/store page fault | [`VirtPolicy::handle_shadow_fault`] |
//! | breakpoint, single step | [`VirtPolicy::debug_exit`], else reflected |
//! | anything else | reflected to the guest's virtual handler |
//!
//! Dispatch is static: the default methods monomorphize per platform.

use crate::chipset::VChipset;
use crate::costs;
use crate::shadow::{classify, GuestRam, PageClass, ShadowPager};
use crate::vcpu::VCpu;
use hx_cpu::csr::{Csr, Status};
use hx_cpu::isa::{CsrOp, Instr, LoadKind, StoreKind, SysOp};
use hx_cpu::mmu::{self, pte, Access, TranslateErr, PAGE_MASK};
use hx_cpu::trap::{Cause, Trap};
use hx_cpu::{Bus, MemSize, Mode, Reg};
use hx_machine::engine::{ExitPolicy, ProgressGuard};
use hx_machine::platform::PlatformStep;
use hx_machine::{map, smp, Machine, TimeBucket, TimeStats};
use hx_obs::{EventKind, ExitCause, HostPhase};

/// The exit costs in which the two monitors differ (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitCosts {
    /// World switch into the monitor and back, charged on every exit.
    pub exit: u64,
    /// Reflecting a real interrupt, on top of `exit`.
    pub reflect_irq: u64,
    /// Emulating one device-register access.
    pub dev_reg: u64,
}

/// What the virtual CPU is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Executing guest instructions.
    Running,
    /// Waiting for an interrupt after an emulated `wfi` (single core).
    GuestIdle,
    /// Parked under debugger control (only a debug stub stops the guest).
    Stopped,
}

/// Exit counters — the paper-adjacent ablation data (Table A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExitStats {
    /// Privileged-instruction emulations (CSR, `tret`, `wfi`, `tlbflush`).
    pub exits_privileged: u64,
    /// Emulated device-register accesses.
    pub exits_mmio: u64,
    /// Shadow page-table fills.
    pub exits_shadow: u64,
    /// Real interrupts (device or IPI) reflected into the guest's virtual
    /// interrupt state.
    pub exits_irq_reflect: u64,
    /// Debug exits (breakpoints, single steps, watchpoints, break-ins).
    pub exits_debug: u64,
    /// Guest faults re-injected to the guest's own handler.
    pub faults_injected: u64,
    /// Virtual interrupts injected.
    pub irqs_injected: u64,
    /// Guest attempts to reach monitor memory or page tables outside guest
    /// RAM — all blocked.
    pub protection_violations: u64,
    /// Single guest stores emulated because a watchpoint shares their page.
    pub emulated_stores: u64,
    /// Single guest loads emulated because a read watchpoint shares their
    /// page.
    pub emulated_loads: u64,
}

/// The per-guest virtualization state both monitors keep.
#[derive(Debug, Clone)]
pub struct VirtCore {
    /// The machine the guest runs on.
    pub machine: Machine,
    /// Guest/monitor/host/idle cycle attribution.
    pub stats: TimeStats,
    /// Exit counters.
    pub exits: ExitStats,
    /// The active core's virtual CPU.
    pub vcpu: VCpu,
    /// Seat storage for every core's virtual CPU; `vcpus[cur_core]` holds a
    /// stale placeholder while that core's state lives in `vcpu` (mirrors
    /// how [`Machine`] seats its real CPUs).
    pub(crate) vcpus: Vec<VCpu>,
    /// The core whose virtual CPU is in `vcpu`.
    pub(crate) cur_core: usize,
    /// Per-core pending *virtual* IPI line masks: the monitor consumed the
    /// real IPI and owes the guest core an injected vector.
    pub(crate) vipi: Vec<u8>,
    /// Shadow page tables.
    pub(crate) shadow: ShadowPager,
    /// Virtual PIC, PIT and UART.
    pub chipset: VChipset,
    /// Run state of the virtual CPU.
    pub(crate) state: RunState,
    /// Base of the monitor-reserved RAM region.
    pub(crate) monitor_base: u32,
    /// RAM size.
    pub(crate) ram_size: u32,
    /// Livelock guard: identical consecutive shadow faults indicate a bug.
    pub(crate) progress: ProgressGuard,
    /// The exit being handled began with the guest's virtual single-step
    /// flag set.
    step_due: bool,
}

impl VirtCore {
    /// Deprivileges `machine`'s guest to boot at `entry` (image already
    /// loaded), with the shadow pool `[monitor_base, shadow_end)`.
    pub fn new(machine: Machine, entry: u32, monitor_base: u32, shadow_end: u32) -> VirtCore {
        let cores = machine.num_cores();
        let mut core = VirtCore {
            stats: TimeStats::new(),
            exits: ExitStats::default(),
            vcpu: VCpu::new(),
            vcpus: vec![VCpu::new(); cores],
            cur_core: 0,
            vipi: vec![0; cores],
            shadow: ShadowPager::new(monitor_base, shadow_end),
            chipset: VChipset::new(),
            state: RunState::Running,
            monitor_base,
            ram_size: machine.config().ram_size as u32,
            progress: ProgressGuard::new(),
            step_due: false,
            machine,
        };
        core.boot_cores(entry);
        core
    }

    /// Powers the guest back on at `entry`: fresh real and virtual CPUs, no
    /// pending virtual interrupts, a fresh virtual chipset and empty shadow
    /// tables. The exit counters and the cycle split keep counting.
    pub fn reset(&mut self, entry: u32) {
        // Power-on SMP state first: core 0 back in the seat, secondaries
        // stopped until their next startup IPI.
        self.machine.smp_reset();
        for i in 0..self.machine.num_cores() {
            *self.machine.core_mut(i) = hx_cpu::Cpu::new();
        }
        self.cur_core = 0;
        self.vcpu = VCpu::new();
        self.vcpus.fill(VCpu::new());
        self.vipi.fill(0);
        self.chipset = VChipset::new();
        self.shadow.flush_all(&mut self.machine.mem);
        self.boot_cores(entry);
    }

    /// Deprivileges every real core: the guest starts in *virtual*
    /// supervisor mode with paging off, while the real cores run in user
    /// mode behind the identity shadow context's kernel view. The active
    /// core starts at `entry`; secondaries get their PC from the startup
    /// IPI.
    fn boot_cores(&mut self, entry: u32) {
        let root = self
            .shadow
            .root_for(&mut self.machine.mem, 0, Mode::Supervisor);
        for i in 0..self.machine.num_cores() {
            let c = self.machine.core_mut(i);
            c.set_mode(Mode::User);
            c.write_csr(Csr::Status, Status::IE);
            c.write_csr(Csr::Ptbr, root | 1);
        }
        self.machine.cpu.set_pc(entry);
    }

    /// The shadow context of the guest's current address space.
    pub fn shadow_key(&self) -> u32 {
        if self.vcpu.paging_enabled() {
            self.vcpu.ptbr
        } else {
            0
        }
    }

    /// Activates the shadow view matching the guest's current virtual mode
    /// and address space.
    pub fn activate_shadow(&mut self) {
        let key = self.shadow_key();
        let root = self
            .shadow
            .root_for(&mut self.machine.mem, key, self.vcpu.vmode);
        self.machine.cpu.write_csr(Csr::Ptbr, root | 1);
    }

    /// Aligns the per-core virtual CPU with the machine's active core. The
    /// machine rotates cores at its own quantum boundaries; the monitor
    /// only observes the outcome at its next exit, so every exit entry
    /// point calls this first. No-op (and byte-free) on single-core.
    pub fn sync_core(&mut self) {
        let active = self.machine.active_core();
        if active == self.cur_core {
            return;
        }
        let prev = self.cur_core;
        std::mem::swap(&mut self.vcpu, &mut self.vcpus[prev]);
        std::mem::swap(&mut self.vcpu, &mut self.vcpus[active]);
        self.cur_core = active;
        // The real Ptbr travels with the core's seat, but the shadow tables
        // may have been flushed while another core held the seat.
        self.activate_shadow();
    }

    /// Emulates a guest read of the IPI registers (the block above the
    /// 8259 registers on the PIC page), so the deprivileged guest sees
    /// exactly what a raw guest would.
    pub fn ipi_mmio_read(&mut self, offset: u32) -> u32 {
        match offset {
            smp::reg::ENTRY => self.machine.ipi_entry(),
            smp::reg::CORE_ID => self.cur_core as u32,
            smp::reg::NUM_CORES => self.machine.num_cores() as u32,
            _ => {
                self.chipset.bad_accesses += 1;
                0
            }
        }
    }

    /// Emulates a guest write to the IPI registers: sends route through the
    /// machine's own delivery path so virtual and raw IPI timing agree.
    pub fn ipi_mmio_write(&mut self, offset: u32, val: u32) {
        match offset {
            smp::reg::SEND => {
                let target = (val & 0xff) as u8;
                let line = ((val >> 8) & 0xff) as u8;
                if !self.machine.ipi_send(target, line) {
                    self.chipset.bad_accesses += 1;
                }
            }
            smp::reg::ENTRY => self.machine.set_ipi_entry(val),
            _ => self.chipset.bad_accesses += 1,
        }
    }

    /// The guest RAM the monitor may touch on the guest's behalf.
    pub(crate) fn guest_ram(&mut self) -> GuestRam<'_> {
        GuestRam::new(&mut self.machine.mem, self.monitor_base)
    }

    /// Fetches the instruction at a guest virtual PC through the guest's
    /// own page tables, as the hardware fetch that trapped saw it. `None`
    /// when the guest's tables deny the fetch or lead out of guest RAM.
    pub fn fetch_guest_instr(&mut self, pc: u32) -> Option<Instr> {
        let v = &self.vcpu;
        let (paging, root, vmode) = (v.paging_enabled(), v.page_table_root(), v.vmode);
        let mut ram = self.guest_ram();
        let gpa = if paging {
            mmu::walk(&mut ram, root, pc, Access::Fetch, vmode, false)
                .ok()?
                .paddr
        } else {
            pc
        };
        Instr::decode(ram.read(gpa, MemSize::Word).ok()?).ok()
    }
}

/// One monitor's exit handling: required hooks for what differs between
/// the monitors, default methods for everything they share (see the
/// [module docs](self)).
pub trait VirtPolicy: ExitPolicy + Sized {
    /// This monitor's exit costs.
    const COSTS: ExitCosts;

    /// Whether device pages the virtual chipset does not own (disk, NIC,
    /// tracepoints) are mapped straight into the guest. When `false` every
    /// access to them is emulated through [`Self::relay_read`] and
    /// [`Self::relay_write`].
    const PASSTHROUGH: bool;

    /// The shared virtualization state.
    fn core(&self) -> &VirtCore;

    /// Exclusive access to the shared virtualization state.
    fn core_mut(&mut self) -> &mut VirtCore;

    /// Delivers a real device interrupt, already retired at the real PIC,
    /// to whoever owns the device.
    fn route_irq(&mut self, irq: u8);

    /// Emulated word read of a device register the virtual chipset does not
    /// own; `None` leaves the access to the chipset.
    fn relay_read(&mut self, _page: u32, _offset: u32, _gpa: u32) -> Option<u32> {
        None
    }

    /// Emulated word write counterpart of [`Self::relay_read`]; `false`
    /// leaves the access to the chipset.
    fn relay_write(&mut self, _page: u32, _offset: u32, _gpa: u32, _val: u32) -> bool {
        false
    }

    /// Debug stub: parks the guest instead of injecting `cause` at `epc`
    /// (an unhandled or double fault). Returns whether it parked.
    fn park_on_fault(&mut self, _cause: Cause, _epc: u32) -> bool {
        false
    }

    /// Debug stub: parks the guest on a shadow-fill livelock. Returns
    /// whether it parked; otherwise the fault is reflected to the guest.
    fn park_on_livelock(&mut self, _trap: Trap) -> bool {
        false
    }

    /// Debug stub: handles a breakpoint or single-step trap, returning the
    /// exit's cause; `None` reflects the trap to the guest.
    fn debug_exit(&mut self, _trap: Trap) -> Option<ExitCause> {
        None
    }

    /// Debug stub: watchpoint check before a guest-RAM shadow fill. `Err`
    /// means the access was handled (with that exit cause); `Ok` carries
    /// the PTE permission bits to withhold from the new mapping.
    fn fill_watch(&mut self, _: Trap, _va: u32, _gpa: u32, _: Access) -> Result<u32, ExitCause> {
        Ok(0)
    }

    /// Debug stub: whether it is single-stepping the guest.
    fn stub_stepping(&self) -> bool {
        false
    }

    /// One unit of progress while the guest is [`RunState::Stopped`]. Only
    /// a debug stub stops the guest, so without one nothing can resume it.
    fn stopped_step(&mut self) -> PlatformStep {
        PlatformStep::Stuck
    }

    /// Advances the platform by one step of its current run state.
    fn step_state(&mut self, batch: bool) -> PlatformStep {
        match self.core().state {
            RunState::Running => self.guest_step(batch),
            RunState::GuestIdle => self.guest_idle_step(),
            RunState::Stopped => self.stopped_step(),
        }
    }

    /// Charges monitor cycles.
    fn consume_monitor(&mut self, cycles: u64) {
        self.consume(TimeBucket::Monitor, cycles);
    }

    /// Mirrors the *virtual* single-step flag and any stub stepping intent
    /// onto the real `STATUS.TF`.
    fn sync_tf(&mut self) {
        let want = self.stub_stepping() || self.core().vcpu.status.tf();
        let cpu = &mut self.core_mut().machine.cpu;
        cpu.set_status_bit(Status::TF, want);
    }

    /// Enters the guest's virtual trap handler (the virtual side of trap
    /// entry plus the switch to the kernel's shadow view).
    fn enter_virtual_trap(&mut self, cause: Cause, epc: u32, tval: u32) {
        let c = self.core_mut();
        let handler = c.vcpu.enter_trap(cause, epc, tval);
        c.activate_shadow();
        c.machine.cpu.set_pc(handler);
        self.sync_tf();
        self.consume_monitor(costs::INJECT_TRAP);
    }

    /// Injects a virtual trap into the guest (its handler runs next).
    fn inject_guest_trap(&mut self, cause: Cause, epc: u32, tval: u32) {
        if self.park_on_fault(cause, epc) {
            return;
        }
        let vcause = self.core().vcpu.virtual_cause(cause);
        self.enter_virtual_trap(vcause, epc, tval);
        self.core_mut().exits.faults_injected += 1;
    }

    /// Completes a guest instruction the monitor executed on the guest's
    /// behalf: moves on to `next`, fires logpoints at `epc`, and raises the
    /// virtual single-step trap hardware raises after an instruction that
    /// began with `STATUS.TF` set.
    fn retire_emulated(&mut self, epc: u32, next: u32) {
        let c = self.core_mut();
        c.machine.cpu.set_pc(next);
        c.machine.note_logpoints(epc);
        if std::mem::take(&mut c.step_due) {
            self.inject_guest_trap(Cause::DebugStep, next, 0);
        }
    }

    /// Opens the virtual interrupt window if possible: injects the highest
    /// priority pending virtual interrupt. Virtual IPIs outrank the virtual
    /// PIC (they model the local APIC), matching the machine's own
    /// arbitration order; the virtual PIC wires to core 0 only, like the
    /// real one.
    fn maybe_inject_irq(&mut self) {
        let c = self.core_mut();
        if c.state == RunState::Stopped || !c.vcpu.interrupts_enabled() {
            return;
        }
        let core = c.cur_core;
        let ipi = c.vipi[core] != 0;
        let vector = if ipi {
            let line = c.vipi[core].trailing_zeros() as u8;
            c.vipi[core] &= !(1 << line);
            smp::VECTOR_BASE + line
        } else if core != 0 {
            return;
        } else {
            let Some((irq, vector)) = c.chipset.vpic.inta() else {
                return;
            };
            let now = c.machine.now();
            // Virtual-PIC INTA is the guest's ISR entry under a monitor —
            // the causal dispatch flow ends here, not at the monitor's
            // earlier receipt of the real interrupt.
            let irq = irq as u32;
            c.machine.obs.emit(now, EventKind::Inta { irq });
            vector
        };
        let epc = c.machine.cpu.pc();
        self.enter_virtual_trap(Cause::Interrupt, epc, vector as u32);
        self.record_exit(ExitCause::IrqInject, costs::INJECT_TRAP);
        let c = self.core_mut();
        c.exits.irqs_injected += 1;
        // The injected vector is the core's wake event if it parked.
        if ipi || c.machine.num_cores() > 1 {
            c.machine.wake_core(core);
        }
        c.state = RunState::Running;
    }

    /// Handles a real interrupt that won arbitration.
    fn take_interrupt(&mut self, irq: u8) {
        self.core_mut().sync_core();
        if irq >= smp::IRQ_BASE {
            self.handle_ipi(irq - smp::IRQ_BASE);
        } else {
            self.handle_real_irq(irq);
        }
    }

    /// Charges and counts one interrupt-reflection exit.
    fn reflect_exit(&mut self) {
        let cycles = Self::COSTS.exit + Self::COSTS.reflect_irq;
        self.consume_monitor(cycles);
        self.record_exit(ExitCause::IrqReflect, cycles);
        self.core_mut().exits.exits_irq_reflect += 1;
    }

    /// Re-latches a real IPI, consumed at the machine boundary, as a
    /// *virtual* IPI to inject when the guest's window opens.
    fn handle_ipi(&mut self, line: u8) {
        self.reflect_exit();
        let c = self.core_mut();
        c.vipi[c.cur_core] |= 1 << line;
        self.maybe_inject_irq();
    }

    /// Retires a real device interrupt (the monitor owns the real PIC) and
    /// routes it to its owner.
    fn handle_real_irq(&mut self, irq: u8) {
        self.core_mut().machine.pic.eoi(irq);
        self.reflect_exit();
        self.route_irq(irq);
        self.maybe_inject_irq();
    }

    /// Routes one guest trap (see the table in the [module docs](self)).
    fn dispatch_trap(&mut self, trap: Trap) {
        let c = self.core_mut();
        c.sync_core();
        c.step_due = c.vcpu.status.tf();
        // Measure the monitor cycles this exit costs, end to end, and
        // attribute them to one cause in the exit histograms. The trailing
        // interrupt-window check accounts separately (as `irq-inject`).
        let monitor_before = c.stats.monitor;
        self.consume_monitor(Self::COSTS.exit);
        let cause = match trap.cause {
            Cause::PrivilegedInstruction => {
                self.core_mut().exits.exits_privileged += 1;
                self.emulate_privileged(trap);
                ExitCause::Privileged
            }
            Cause::InstrPageFault | Cause::LoadPageFault | Cause::StorePageFault => {
                self.handle_shadow_fault(trap)
            }
            // Ecall, misalignments, access faults, illegal instructions and
            // debug traps no stub claims: the guest's business.
            other => self.debug_exit(trap).unwrap_or_else(|| {
                self.inject_guest_trap(other, trap.epc, trap.tval);
                ExitCause::IrqInject
            }),
        };
        let c = self.core_mut();
        c.step_due = false;
        let delta = c.stats.monitor - monitor_before;
        self.record_exit(cause, delta);
        self.maybe_inject_irq();
    }

    /// Emulates a privileged instruction of the deprivileged guest kernel
    /// against the virtual CPU (the "CPU-resources emulator").
    fn emulate_privileged(&mut self, trap: Trap) {
        let pc = trap.epc;
        let illegal = |p: &mut Self| p.inject_guest_trap(Cause::IllegalInstruction, pc, trap.tval);
        let Ok(instr) = Instr::decode(trap.tval) else {
            return illegal(self);
        };
        match instr {
            Instr::Csr { op, rd, rs1, csr } => {
                self.consume_monitor(costs::EMUL_CSR);
                let Some(c) = Csr::from_number(csr) else {
                    return illegal(self);
                };
                let core = self.core_mut();
                let old = core.vcpu.read_csr(c, &core.machine.cpu);
                if op == CsrOp::Rw || rs1 != Reg::R0 {
                    if c.is_read_only() {
                        return illegal(self);
                    }
                    let src = core.machine.cpu.reg(rs1);
                    let new = match op {
                        CsrOp::Rw => src,
                        CsrOp::Rs => old | src,
                        CsrOp::Rc => old & !src,
                    };
                    if core.vcpu.write_csr(c, new) && c == Csr::Ptbr {
                        // Guest address-space switch: activate (and possibly
                        // build) the matching shadow context.
                        self.consume_monitor(costs::SHADOW_FLUSH);
                        self.core_mut().activate_shadow();
                    }
                    if c == Csr::Status {
                        self.sync_tf();
                    }
                }
                self.core_mut().machine.cpu.set_reg(rd, old);
                self.retire_emulated(pc, pc.wrapping_add(4));
            }
            Instr::Sys { op: SysOp::Tret } => {
                self.consume_monitor(costs::EMUL_TRET);
                let c = self.core_mut();
                let resume = c.vcpu.leave_trap();
                c.activate_shadow();
                self.sync_tf();
                self.retire_emulated(pc, resume);
            }
            Instr::Sys { op: SysOp::Wfi } => {
                self.consume_monitor(costs::EMUL_WFI);
                // A stepped `wfi` traps instead of idling, as on hardware.
                let stepped = self.core().step_due;
                self.retire_emulated(pc, pc.wrapping_add(4));
                let c = self.core_mut();
                if !stepped && c.machine.num_cores() > 1 {
                    // Park just this core at the machine level so the
                    // scheduler hands the seat to a runnable sibling; the
                    // platform state stays Running for the others.
                    c.machine.park_active();
                } else if !stepped {
                    c.state = RunState::GuestIdle;
                }
            }
            Instr::Sys {
                op: SysOp::TlbFlush,
            } => {
                self.consume_monitor(costs::SHADOW_FLUSH);
                let c = self.core_mut();
                let key = c.shadow_key();
                c.shadow.flush_context(&mut c.machine.mem, key);
                c.machine.cpu.tlb_flush();
                self.retire_emulated(pc, pc.wrapping_add(4));
            }
            _ => illegal(self),
        }
    }

    /// Resolves a shadow page fault: fills the shadow table from the
    /// guest's own page tables, emulates device registers, and enforces
    /// level-3 protection (the monitor is untouchable).
    fn handle_shadow_fault(&mut self, trap: Trap) -> ExitCause {
        let va = trap.tval;
        let access = Access::from_fault(trap.cause);
        let c = self.core_mut();
        let vmode = c.vcpu.vmode;
        let now = c.machine.now();
        c.machine
            .obs
            .emit(now, EventKind::ShadowFault { vaddr: va });
        // Guest-physical address and guest PTE; `None` when the guest's
        // tables themselves leave guest RAM.
        let resolved = if c.vcpu.paging_enabled() {
            let root = c.vcpu.page_table_root();
            match mmu::walk(&mut c.guest_ram(), root, va, access, vmode, true) {
                Ok(w) => Some((w.paddr, w.leaf)),
                Err(TranslateErr::PageFault) => {
                    self.inject_guest_trap(trap.cause, trap.epc, va);
                    return ExitCause::Shadow;
                }
                Err(TranslateErr::Bus(_)) => None,
            }
        } else {
            // Identity: kernel-era physical addressing.
            let all = pte::V | pte::R | pte::W | pte::X | pte::U | pte::A | pte::D;
            Some((va, all))
        };
        let class = resolved.map_or(PageClass::Monitor, |(gpa, _)| {
            classify(gpa, c.monitor_base, c.ram_size)
        });
        let (gpa, gflags) = resolved.unwrap_or_default();
        match class {
            PageClass::Monitor => {
                let c = self.core_mut();
                c.exits.protection_violations += 1;
                c.shadow.stats.protection_violations += 1;
                self.inject_guest_trap(trap.cause, trap.epc, va);
                ExitCause::Protection
            }
            PageClass::Unmapped => {
                self.inject_guest_trap(access.fault_cause(), trap.epc, va);
                ExitCause::Shadow
            }
            PageClass::PassthroughMmio if Self::PASSTHROUGH => {
                let flags = pte::V | pte::R | pte::W | pte::U | pte::A | pte::D;
                self.livelock_exit(trap)
                    .unwrap_or_else(|| self.fill_shadow(va, gpa, flags))
            }
            PageClass::EmulatedMmio | PageClass::PassthroughMmio => {
                self.core_mut().exits.exits_mmio += 1;
                self.emulate_mmio(trap, va, gpa, access);
                ExitCause::Mmio
            }
            PageClass::GuestRam => {
                if let Some(cause) = self.livelock_exit(trap) {
                    return cause;
                }
                let withheld = match self.fill_watch(trap, va, gpa, access) {
                    Ok(bits) => bits,
                    // The monitor emulated the access or stopped on it: a
                    // loop storing next to a watch repeats this fault by
                    // design, like emulated MMIO, and is no livelock.
                    Err(cause) => {
                        self.core_mut().progress.reset();
                        return cause;
                    }
                };
                let mut flags = pte::V | pte::U | pte::A | pte::D;
                flags |= gflags & (pte::R | pte::X);
                if gflags & pte::W != 0 && gflags & pte::D != 0 {
                    flags |= pte::W;
                }
                self.fill_shadow(va, gpa, flags & !withheld)
            }
        }
    }

    /// The livelock guard of the fill paths (emulated-MMIO faults repeat by
    /// design and never reach it): `Some` when the same fault keeps coming
    /// back, after parking the guest or reflecting the fault to it.
    fn livelock_exit(&mut self, trap: Trap) -> Option<ExitCause> {
        if !self.core_mut().progress.no_progress(&trap) {
            return None;
        }
        if self.park_on_livelock(trap) {
            return Some(ExitCause::Debug);
        }
        self.inject_guest_trap(trap.cause, trap.epc, trap.tval);
        self.core_mut().progress.reset();
        Some(ExitCause::Shadow)
    }

    /// Maps the page of `va` to the page of `gpa` in the active shadow
    /// context.
    fn fill_shadow(&mut self, va: u32, gpa: u32, flags: u32) -> ExitCause {
        self.consume_monitor(costs::SHADOW_FILL);
        let c = self.core_mut();
        c.exits.exits_shadow += 1;
        let key = c.shadow_key();
        let vmode = c.vcpu.vmode;
        c.shadow.map(
            &mut c.machine.mem,
            key,
            vmode,
            va & !PAGE_MASK,
            gpa & !PAGE_MASK,
            flags,
        );
        ExitCause::Shadow
    }

    /// Decodes and completes the guest's faulting word load/store to a
    /// device register ("partial hardware emulation"). The IPI block and
    /// the virtual chipset are handled here; other device pages go through
    /// the platform's relay.
    fn emulate_mmio(&mut self, trap: Trap, va: u32, gpa: u32, access: Access) {
        self.consume_monitor(Self::COSTS.dev_reg);
        let Some(instr) = self.core_mut().fetch_guest_instr(trap.epc) else {
            self.inject_guest_trap(Cause::InstrPageFault, trap.epc, trap.epc);
            return;
        };
        let page = gpa & !(map::DEV_PAGE - 1);
        let offset = gpa & (map::DEV_PAGE - 1);
        let ipi = page == map::PIC_BASE && offset >= smp::reg::SEND;
        let next = trap.epc.wrapping_add(4);
        match (instr, access) {
            (
                Instr::Load {
                    kind: LoadKind::W,
                    rd,
                    ..
                },
                Access::Load,
            ) => {
                let val = if ipi {
                    self.core_mut().ipi_mmio_read(offset)
                } else if let Some(v) = self.relay_read(page, offset, gpa) {
                    v
                } else {
                    let c = self.core_mut();
                    c.chipset.mmio_read(&mut c.machine, page, offset)
                };
                self.core_mut().machine.cpu.set_reg(rd, val);
                self.retire_emulated(trap.epc, next);
            }
            (
                Instr::Store {
                    kind: StoreKind::W,
                    rs2,
                    ..
                },
                Access::Store,
            ) => {
                let c = self.core_mut();
                let val = c.machine.cpu.reg(rs2);
                if page == map::PIC_BASE && offset == hx_machine::pic::reg::EOI {
                    // The guest is retiring a virtual interrupt: close the
                    // causal ISR-service flow. The monitor's own retirement
                    // of the *real* PIC goes through the device directly, so
                    // this is the only EOI the causal layer sees.
                    let now = c.machine.now();
                    c.machine.obs.emit(now, EventKind::Eoi);
                }
                if ipi {
                    c.ipi_mmio_write(offset, val);
                } else if !self.relay_write(page, offset, gpa, val) {
                    let c = self.core_mut();
                    c.chipset.mmio_write(&mut c.machine, page, offset, val);
                }
                self.retire_emulated(trap.epc, next);
            }
            // Sub-word or executable access to a device page: reflect as an
            // access fault, like real hardware would.
            _ => self.inject_guest_trap(access.fault_cause(), trap.epc, va),
        }
        // Attribute the emulation's host time to the device itself; the
        // trailing `record_exit(Mmio)` then covers only exit bookkeeping.
        if let Some(dev) = map::dev_of(gpa) {
            self.core().machine.obs.host_mark(HostPhase::Device(dev));
        }
    }
}
