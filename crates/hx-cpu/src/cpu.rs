//! The HX32 interpreter: fetch, decode, execute, translate, trap.

use crate::cost;
use crate::csr::{Csr, Status};
use crate::decode::{DecodeCache, DecodeStats};
use crate::isa::{CsrOp, Instr, LoadKind, Reg, StoreKind, SysOp};
use crate::mmu::{self, Access, Tlb, TranslateErr};
use crate::trap::{Cause, Trap};
use crate::{Bus, MemSize, Mode};

/// Result of one [`Cpu::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired normally.
    Executed {
        /// Cycles consumed.
        cycles: u64,
    },
    /// A trap was raised and **not yet delivered**; the platform decides
    /// between [`Cpu::take_trap`] (architectural delivery) and monitor
    /// interception. Architectural state of the faulting instruction is
    /// uncommitted, except for [`Cause::DebugStep`] which fires after
    /// completion.
    Trapped {
        /// The raised trap.
        trap: Trap,
        /// Cycles consumed before the trap was recognized.
        cycles: u64,
    },
    /// A `wfi` retired; the CPU is idle until an interrupt is pending.
    Wfi {
        /// Cycles consumed.
        cycles: u64,
    },
}

enum Flow {
    Next,
    Jump(u32),
    Wfi,
}

/// One virtual CPU: the per-core HX32 processor state — registers, CSRs,
/// privilege mode, TLB and predecoded-instruction cache.
///
/// Everything in this struct is private to one core. State shared between
/// cores (physical RAM with its per-page write generations, devices, the
/// event queue) lives behind the [`Bus`] in `hx-machine`, so a
/// machine can time-multiplex any number of `Vcpu`s over one memory image
/// without aliasing hazards. [`Cpu`] remains as an alias for the common
/// single-core case.
///
/// See the [crate documentation](crate) for an execution example.
#[derive(Debug, Clone)]
pub struct Vcpu {
    regs: [u32; 32],
    pc: u32,
    mode: Mode,
    status: Status,
    tvec: u32,
    epc: u32,
    cause: u32,
    tval: u32,
    ptbr: u32,
    scratch: u32,
    cycles: u64,
    instret: u64,
    traps_taken: u64,
    tlb: Tlb,
    decode_cache: Option<Box<DecodeCache>>,
}

/// The historical name for [`Vcpu`]: a machine with one core just has one
/// of them. Kept as the public spelling for single-core code.
pub type Cpu = Vcpu;

impl Default for Vcpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Vcpu {
    /// Creates a CPU in supervisor mode at PC 0 with paging disabled and
    /// interrupts masked — the architectural reset state.
    pub fn new() -> Vcpu {
        Vcpu {
            regs: [0; 32],
            pc: 0,
            mode: Mode::Supervisor,
            status: Status::default(),
            tvec: 0,
            epc: 0,
            cause: 0,
            tval: 0,
            ptbr: 0,
            scratch: 0,
            cycles: 0,
            instret: 0,
            traps_taken: 0,
            tlb: Tlb::new(),
            decode_cache: None,
        }
    }

    /// Enables or disables the predecoded-instruction cache
    /// ([`crate::decode`]). Disabled at reset; `hx-machine` enables it on
    /// buses that track per-page write generations. Toggling resets the
    /// cache and its statistics. Simulation results are bit-identical either
    /// way — only host-side speed changes.
    pub fn set_decode_cache(&mut self, enabled: bool) {
        self.decode_cache = enabled.then(|| Box::new(DecodeCache::new()));
    }

    /// Decode-cache and fetch fast-path counters (all zero when disabled).
    pub fn decode_stats(&self) -> DecodeStats {
        self.decode_cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Reads a general-purpose register (`r0` always reads zero).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a general-purpose register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, val: u32) {
        if r != Reg::R0 {
            self.regs[r.index()] = val;
        }
    }

    /// All 32 registers, for debugger snapshots.
    pub fn regs(&self) -> &[u32; 32] {
        &self.regs
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Current privilege mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Forces the privilege mode (platform/monitor use).
    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
    }

    /// Total cycles consumed since reset.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Adds externally-accounted cycles (e.g. monitor execution time) to the
    /// cycle counter so guest-visible `cycle` reads stay monotonic with wall
    /// simulation time.
    pub fn add_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Instructions retired since reset.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Traps delivered via [`Cpu::take_trap`] since reset.
    pub fn traps_taken(&self) -> u64 {
        self.traps_taken
    }

    /// Are interrupts enabled (`STATUS.IE`)?
    pub fn interrupts_enabled(&self) -> bool {
        self.status.ie()
    }

    /// Reads a CSR by name. Counter CSRs reflect the live counters.
    pub fn read_csr(&self, csr: Csr) -> u32 {
        match csr {
            Csr::Status => self.status.0,
            Csr::Tvec => self.tvec,
            Csr::Epc => self.epc,
            Csr::Cause => self.cause,
            Csr::Tval => self.tval,
            Csr::Ptbr => self.ptbr,
            Csr::Scratch => self.scratch,
            Csr::Cycle => self.cycles as u32,
            Csr::Cycleh => (self.cycles >> 32) as u32,
            Csr::Instret => self.instret as u32,
            Csr::Instreth => (self.instret >> 32) as u32,
        }
    }

    /// Writes a CSR by name. Writes to read-only counters are ignored here;
    /// the *instruction* path raises an illegal-instruction trap instead.
    pub fn write_csr(&mut self, csr: Csr, val: u32) {
        match csr {
            Csr::Status => self.status = Status::written(val),
            Csr::Tvec => self.tvec = val & !3,
            Csr::Epc => self.epc = val & !3,
            Csr::Cause => self.cause = val,
            Csr::Tval => self.tval = val,
            Csr::Ptbr => {
                self.ptbr = val & (mmu::pte::PPN_MASK | 1);
                self.tlb.flush();
            }
            Csr::Scratch => self.scratch = val,
            Csr::Cycle | Csr::Cycleh | Csr::Instret | Csr::Instreth => {}
        }
    }

    /// Flushes the TLB (the platform/monitor equivalent of `tlbflush`).
    pub fn tlb_flush(&mut self) {
        self.tlb.flush();
    }

    /// `(hits, misses)` of the TLB since reset.
    pub fn tlb_stats(&self) -> (u64, u64) {
        self.tlb.stats()
    }

    /// Is paging currently enabled?
    pub fn paging_enabled(&self) -> bool {
        self.ptbr & 1 != 0
    }

    /// Physical base address of the live level-1 page table.
    pub fn page_table_root(&self) -> u32 {
        self.ptbr & mmu::pte::PPN_MASK
    }

    /// Delivers a trap architecturally: saves `IE`/`TF`/mode into the status
    /// word, enters supervisor mode with interrupts masked, loads
    /// `EPC`/`CAUSE`/`TVAL` and jumps to the trap vector.
    ///
    /// Returns the cycles charged for trap entry.
    pub fn take_trap(&mut self, trap: Trap) -> u64 {
        let s = self.status;
        self.status = s
            .with(Status::PIE, s.ie())
            .with(Status::IE, false)
            .with(Status::PMODE, self.mode == Mode::Supervisor)
            .with(Status::PTF, s.tf())
            .with(Status::TF, false);
        self.mode = Mode::Supervisor;
        self.epc = trap.epc;
        self.cause = trap.cause.code();
        self.tval = trap.tval;
        self.pc = self.tvec;
        self.cycles += cost::TRAP_ENTRY;
        self.traps_taken += 1;
        cost::TRAP_ENTRY
    }

    /// Translates a virtual address for the given access, charging TLB-miss
    /// cycles into `extra`.
    fn translate<B: Bus + ?Sized>(
        &mut self,
        bus: &mut B,
        va: u32,
        access: Access,
        extra: &mut u64,
    ) -> Result<u32, Trap> {
        if !self.paging_enabled() {
            return Ok(va);
        }
        if let Some(pa) = self.tlb.lookup(va, access, self.mode) {
            return Ok(pa);
        }
        match mmu::walk(bus, self.page_table_root(), va, access, self.mode, true) {
            Ok(w) => {
                *extra += cost::TLB_MISS_WALK;
                if w.updated_ad {
                    *extra += cost::TLB_AD_UPDATE;
                }
                self.tlb.insert(va, w.leaf);
                Ok((w.leaf & mmu::pte::PPN_MASK) | (va & mmu::PAGE_MASK))
            }
            Err(TranslateErr::PageFault) => {
                let cause = match access {
                    Access::Fetch => Cause::InstrPageFault,
                    Access::Load => Cause::LoadPageFault,
                    Access::Store => Cause::StorePageFault,
                };
                Err(Trap::new(cause, self.pc, va))
            }
            Err(TranslateErr::Bus(_)) => {
                let cause = match access {
                    Access::Fetch => Cause::InstrAccessFault,
                    Access::Load => Cause::LoadAccessFault,
                    Access::Store => Cause::StoreAccessFault,
                };
                Err(Trap::new(cause, self.pc, va))
            }
        }
    }

    /// Executes one instruction.
    ///
    /// Returns [`StepOutcome::Trapped`] without vectoring — delivery is the
    /// platform's decision (see [`Cpu::take_trap`]).
    pub fn step<B: Bus + ?Sized>(&mut self, bus: &mut B) -> StepOutcome {
        let mut cycles = cost::BASE;
        let tf_at_entry = self.status.tf();
        match self.step_inner(bus, &mut cycles) {
            Ok(flow) => {
                self.instret += 1;
                match flow {
                    Flow::Next => self.pc = self.pc.wrapping_add(4),
                    Flow::Jump(target) => self.pc = target,
                    Flow::Wfi => {
                        self.pc = self.pc.wrapping_add(4);
                        self.cycles += cycles;
                        return if tf_at_entry {
                            StepOutcome::Trapped {
                                trap: Trap::new(Cause::DebugStep, self.pc, 0),
                                cycles,
                            }
                        } else {
                            StepOutcome::Wfi { cycles }
                        };
                    }
                }
                self.cycles += cycles;
                if tf_at_entry {
                    StepOutcome::Trapped {
                        trap: Trap::new(Cause::DebugStep, self.pc, 0),
                        cycles,
                    }
                } else {
                    StepOutcome::Executed { cycles }
                }
            }
            Err(trap) => {
                self.cycles += cycles;
                StepOutcome::Trapped { trap, cycles }
            }
        }
    }

    /// Raises the [`Cause::Breakpoint`] trap an `ebreak` at the (aligned)
    /// PC would, marked by [`Trap::is_hook`], without executing the
    /// instruction there. The fetch is still translated, so the trap costs
    /// what the `ebreak` would, TLB walk included.
    pub fn hook_trap<B: Bus + ?Sized>(&mut self, bus: &mut B) -> StepOutcome {
        let mut cycles = cost::BASE;
        let trap = match self.translate(bus, self.pc, Access::Fetch, &mut cycles) {
            Ok(_) => Trap::new(Cause::Breakpoint, self.pc, Trap::HOOK_TVAL),
            Err(fault) => fault,
        };
        self.cycles += cycles;
        StepOutcome::Trapped { trap, cycles }
    }

    /// Fetches and decodes the instruction at `pc`, through the predecoded
    /// cache when enabled. Returns `(word, instr)` — the raw word is needed
    /// for `tval` in privileged/illegal traps.
    fn fetch_decode<B: Bus + ?Sized>(
        &mut self,
        bus: &mut B,
        pc: u32,
        cycles: &mut u64,
    ) -> Result<(u32, Instr), Trap> {
        let Some(mut cache) = self.decode_cache.take() else {
            let pa = self.translate(bus, pc, Access::Fetch, cycles)?;
            let word = bus
                .fetch(pa)
                .map_err(|_| Trap::new(Cause::InstrAccessFault, pc, pc))?;
            let instr =
                Instr::decode(word).map_err(|_| Trap::new(Cause::IllegalInstruction, pc, word))?;
            return Ok((word, instr));
        };
        // The cache box is taken out for the duration of the step so the
        // slow paths below can borrow `self` freely; put it back whatever
        // happens.
        let result = self.fetch_decode_cached(bus, &mut cache, pc, cycles);
        self.decode_cache = Some(cache);
        result
    }

    fn fetch_decode_cached<B: Bus + ?Sized>(
        &mut self,
        bus: &mut B,
        cache: &mut DecodeCache,
        pc: u32,
        cycles: &mut u64,
    ) -> Result<(u32, Instr), Trap> {
        let pa = if !self.paging_enabled() {
            pc
        } else if let Some(pa) = cache.fetch_pa(pc, self.mode, self.tlb.generation()) {
            // The slow path would have answered this from the TLB; replay
            // the hit so TLB statistics are identical with the cache off.
            self.tlb.note_hit();
            cache.stats.fast_fetches += 1;
            pa
        } else {
            let pa = self.translate(bus, pc, Access::Fetch, cycles)?;
            cache.remember_fetch(pc, pa, self.mode, self.tlb.generation());
            pa
        };
        match bus.fetch_page_generation(pa) {
            Some(gen) => cache.lookup_or_fill(bus, pa, gen, pc),
            None => {
                // Uncacheable page (device memory): always go to the bus.
                let word = bus
                    .fetch(pa)
                    .map_err(|_| Trap::new(Cause::InstrAccessFault, pc, pc))?;
                let instr = Instr::decode(word)
                    .map_err(|_| Trap::new(Cause::IllegalInstruction, pc, word))?;
                Ok((word, instr))
            }
        }
    }

    fn step_inner<B: Bus + ?Sized>(&mut self, bus: &mut B, cycles: &mut u64) -> Result<Flow, Trap> {
        let pc = self.pc;
        if pc & 3 != 0 {
            return Err(Trap::new(Cause::InstrAddrMisaligned, pc, pc));
        }
        let (word, instr) = self.fetch_decode(bus, pc, cycles)?;

        if instr.is_privileged() && self.mode == Mode::User {
            return Err(Trap::new(Cause::PrivilegedInstruction, pc, word));
        }

        match instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                use crate::isa::AluOp;
                *cycles += match op {
                    AluOp::Mul | AluOp::Mulhu => cost::MUL_EXTRA,
                    AluOp::Div | AluOp::Rem | AluOp::Divu | AluOp::Remu => cost::DIV_EXTRA,
                    _ => 0,
                };
                let v = op.apply(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                Ok(Flow::Next)
            }
            Instr::Addi { rd, rs1, imm } => {
                self.set_reg(rd, self.reg(rs1).wrapping_add(imm as i32 as u32));
                Ok(Flow::Next)
            }
            Instr::Andi { rd, rs1, imm } => {
                self.set_reg(rd, self.reg(rs1) & (imm as u16 as u32));
                Ok(Flow::Next)
            }
            Instr::Ori { rd, rs1, imm } => {
                self.set_reg(rd, self.reg(rs1) | (imm as u16 as u32));
                Ok(Flow::Next)
            }
            Instr::Xori { rd, rs1, imm } => {
                self.set_reg(rd, self.reg(rs1) ^ (imm as u16 as u32));
                Ok(Flow::Next)
            }
            Instr::Slti { rd, rs1, imm } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) < imm as i32) as u32);
                Ok(Flow::Next)
            }
            Instr::Sltiu { rd, rs1, imm } => {
                self.set_reg(rd, (self.reg(rs1) < imm as i32 as u32) as u32);
                Ok(Flow::Next)
            }
            Instr::Slli { rd, rs1, shamt } => {
                self.set_reg(rd, self.reg(rs1).wrapping_shl(shamt as u32));
                Ok(Flow::Next)
            }
            Instr::Srli { rd, rs1, shamt } => {
                self.set_reg(rd, self.reg(rs1).wrapping_shr(shamt as u32));
                Ok(Flow::Next)
            }
            Instr::Srai { rd, rs1, shamt } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) >> shamt) as u32);
                Ok(Flow::Next)
            }
            Instr::Lui { rd, imm } => {
                self.set_reg(rd, (imm as u32) << 16);
                Ok(Flow::Next)
            }
            Instr::Auipc { rd, imm } => {
                self.set_reg(rd, pc.wrapping_add((imm as u32) << 16));
                Ok(Flow::Next)
            }
            Instr::Load {
                kind,
                rd,
                rs1,
                offset,
            } => {
                *cycles += cost::MEM_EXTRA;
                let va = self.reg(rs1).wrapping_add(offset as i32 as u32);
                let size = match kind {
                    LoadKind::B | LoadKind::Bu => MemSize::Byte,
                    LoadKind::H | LoadKind::Hu => MemSize::Half,
                    LoadKind::W => MemSize::Word,
                };
                if va & (size.bytes() - 1) != 0 {
                    return Err(Trap::new(Cause::LoadAddrMisaligned, pc, va));
                }
                let pa = self.translate(bus, va, Access::Load, cycles)?;
                let raw = bus
                    .read(pa, size)
                    .map_err(|_| Trap::new(Cause::LoadAccessFault, pc, va))?;
                let v = match kind {
                    LoadKind::B => raw as u8 as i8 as i32 as u32,
                    LoadKind::Bu => raw & 0xff,
                    LoadKind::H => raw as u16 as i16 as i32 as u32,
                    LoadKind::Hu => raw & 0xffff,
                    LoadKind::W => raw,
                };
                self.set_reg(rd, v);
                Ok(Flow::Next)
            }
            Instr::Store {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                *cycles += cost::MEM_EXTRA;
                let va = self.reg(rs1).wrapping_add(offset as i32 as u32);
                let size = match kind {
                    StoreKind::B => MemSize::Byte,
                    StoreKind::H => MemSize::Half,
                    StoreKind::W => MemSize::Word,
                };
                if va & (size.bytes() - 1) != 0 {
                    return Err(Trap::new(Cause::StoreAddrMisaligned, pc, va));
                }
                let pa = self.translate(bus, va, Access::Store, cycles)?;
                bus.write(pa, self.reg(rs2), size)
                    .map_err(|_| Trap::new(Cause::StoreAccessFault, pc, va))?;
                Ok(Flow::Next)
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                if cond.holds(self.reg(rs1), self.reg(rs2)) {
                    *cycles += cost::BRANCH_TAKEN_EXTRA;
                    Ok(Flow::Jump(pc.wrapping_add(offset as i32 as u32)))
                } else {
                    Ok(Flow::Next)
                }
            }
            Instr::Jal { rd, offset } => {
                *cycles += cost::BRANCH_TAKEN_EXTRA;
                self.set_reg(rd, pc.wrapping_add(4));
                Ok(Flow::Jump(pc.wrapping_add(offset as u32)))
            }
            Instr::Jalr { rd, rs1, offset } => {
                *cycles += cost::BRANCH_TAKEN_EXTRA;
                let target = self.reg(rs1).wrapping_add(offset as i32 as u32) & !3;
                self.set_reg(rd, pc.wrapping_add(4));
                Ok(Flow::Jump(target))
            }
            Instr::Sys { op } => match op {
                SysOp::Ecall => {
                    let cause = if self.mode == Mode::User {
                        Cause::EcallU
                    } else {
                        Cause::EcallS
                    };
                    Err(Trap::new(cause, pc, 0))
                }
                SysOp::Ebreak => Err(Trap::new(Cause::Breakpoint, pc, 0)),
                SysOp::Tret => {
                    *cycles += cost::TRET - cost::BASE;
                    let s = self.status;
                    self.mode = if s.pmode_supervisor() {
                        Mode::Supervisor
                    } else {
                        Mode::User
                    };
                    self.status = s.with(Status::IE, s.pie()).with(Status::TF, s.ptf());
                    Ok(Flow::Jump(self.epc))
                }
                SysOp::Wfi => {
                    *cycles += cost::WFI_ENTER - cost::BASE;
                    Ok(Flow::Wfi)
                }
                SysOp::TlbFlush => {
                    *cycles += cost::TLB_FLUSH - cost::BASE;
                    self.tlb.flush();
                    Ok(Flow::Next)
                }
            },
            Instr::Csr { op, rd, rs1, csr } => {
                *cycles += cost::CSR_EXTRA;
                let Some(c) = Csr::from_number(csr) else {
                    return Err(Trap::new(Cause::IllegalInstruction, pc, word));
                };
                let old = self.read_csr(c);
                let writes = match op {
                    CsrOp::Rw => true,
                    CsrOp::Rs | CsrOp::Rc => rs1 != Reg::R0,
                };
                if writes {
                    if c.is_read_only() {
                        return Err(Trap::new(Cause::IllegalInstruction, pc, word));
                    }
                    let src = self.reg(rs1);
                    let new = match op {
                        CsrOp::Rw => src,
                        CsrOp::Rs => old | src,
                        CsrOp::Rc => old & !src,
                    };
                    self.write_csr(c, new);
                }
                self.set_reg(rd, old);
                Ok(Flow::Next)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, BranchCond};
    use crate::mmu::pte;
    use crate::FlatRam;

    fn run_program(words: &[u32], steps: usize) -> (Cpu, FlatRam) {
        let mut ram = FlatRam::new(64 * 1024);
        for (i, w) in words.iter().enumerate() {
            ram.store_word((i * 4) as u32, *w);
        }
        let mut cpu = Cpu::new();
        for _ in 0..steps {
            match cpu.step(&mut ram) {
                StepOutcome::Executed { .. } => {}
                other => panic!("unexpected outcome {other:?} at pc={:#x}", cpu.pc()),
            }
        }
        (cpu, ram)
    }

    #[test]
    fn arithmetic_and_registers() {
        let (cpu, _) = run_program(
            &[
                Instr::Addi {
                    rd: Reg::R1,
                    rs1: Reg::R0,
                    imm: 100,
                }
                .encode(),
                Instr::Addi {
                    rd: Reg::R2,
                    rs1: Reg::R1,
                    imm: -58,
                }
                .encode(),
                Instr::Alu {
                    op: AluOp::Add,
                    rd: Reg::R3,
                    rs1: Reg::R1,
                    rs2: Reg::R2,
                }
                .encode(),
                Instr::Addi {
                    rd: Reg::R0,
                    rs1: Reg::R1,
                    imm: 0,
                }
                .encode(), // write to r0
            ],
            4,
        );
        assert_eq!(cpu.reg(Reg::R1), 100);
        assert_eq!(cpu.reg(Reg::R2), 42);
        assert_eq!(cpu.reg(Reg::R3), 142);
        assert_eq!(cpu.reg(Reg::R0), 0);
        assert_eq!(cpu.instret(), 4);
    }

    #[test]
    fn loads_and_stores_with_extension() {
        let (cpu, ram) = run_program(
            &[
                Instr::Lui {
                    rd: Reg::R1,
                    imm: 0x8000,
                }
                .encode(), // r1 = 0x8000_0000? out of ram
                Instr::Addi {
                    rd: Reg::R1,
                    rs1: Reg::R0,
                    imm: 0x1000,
                }
                .encode(),
                Instr::Addi {
                    rd: Reg::R2,
                    rs1: Reg::R0,
                    imm: -1,
                }
                .encode(),
                Instr::Store {
                    kind: StoreKind::W,
                    rs1: Reg::R1,
                    rs2: Reg::R2,
                    offset: 0,
                }
                .encode(),
                Instr::Load {
                    kind: LoadKind::B,
                    rd: Reg::R3,
                    rs1: Reg::R1,
                    offset: 0,
                }
                .encode(),
                Instr::Load {
                    kind: LoadKind::Bu,
                    rd: Reg::R4,
                    rs1: Reg::R1,
                    offset: 0,
                }
                .encode(),
                Instr::Load {
                    kind: LoadKind::H,
                    rd: Reg::R5,
                    rs1: Reg::R1,
                    offset: 0,
                }
                .encode(),
                Instr::Load {
                    kind: LoadKind::Hu,
                    rd: Reg::R6,
                    rs1: Reg::R1,
                    offset: 2,
                }
                .encode(),
                Instr::Store {
                    kind: StoreKind::B,
                    rs1: Reg::R1,
                    rs2: Reg::R0,
                    offset: 1,
                }
                .encode(),
            ],
            9,
        );
        assert_eq!(cpu.reg(Reg::R3), 0xffff_ffff);
        assert_eq!(cpu.reg(Reg::R4), 0xff);
        assert_eq!(cpu.reg(Reg::R5), 0xffff_ffff);
        assert_eq!(cpu.reg(Reg::R6), 0xffff);
        assert_eq!(ram.load_word(0x1000), 0xffff_00ff);
    }

    #[test]
    fn branches_and_jumps() {
        // r1 = 3; loop: r2 += r1; r1 -= 1; bne r1, r0, loop
        let prog = [
            Instr::Addi {
                rd: Reg::R1,
                rs1: Reg::R0,
                imm: 3,
            }
            .encode(),
            Instr::Alu {
                op: AluOp::Add,
                rd: Reg::R2,
                rs1: Reg::R2,
                rs2: Reg::R1,
            }
            .encode(),
            Instr::Addi {
                rd: Reg::R1,
                rs1: Reg::R1,
                imm: -1,
            }
            .encode(),
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::R1,
                rs2: Reg::R0,
                offset: -8,
            }
            .encode(),
            Instr::Jal {
                rd: Reg::RA,
                offset: 8,
            }
            .encode(),
            0, // skipped
            Instr::Jalr {
                rd: Reg::R5,
                rs1: Reg::RA,
                offset: 4,
            }
            .encode(),
        ];
        let (cpu, _) = run_program(&prog, 1 + 3 * 3 + 2);
        assert_eq!(cpu.reg(Reg::R2), 6);
        assert_eq!(cpu.reg(Reg::RA), 20);
        // jalr jumped to ra+4 = 24 and linked 28.
        assert_eq!(cpu.pc(), 24);
        assert_eq!(cpu.reg(Reg::R5), 28);
    }

    #[test]
    fn jalr_same_source_and_dest() {
        let (cpu, _) = run_program(
            &[
                Instr::Addi {
                    rd: Reg::R1,
                    rs1: Reg::R0,
                    imm: 0x40,
                }
                .encode(),
                Instr::Jalr {
                    rd: Reg::R1,
                    rs1: Reg::R1,
                    offset: 0,
                }
                .encode(),
            ],
            2,
        );
        assert_eq!(cpu.pc(), 0x40);
        assert_eq!(cpu.reg(Reg::R1), 8);
    }

    #[test]
    fn ecall_and_ebreak_trap_without_vectoring() {
        let mut ram = FlatRam::new(4096);
        ram.store_word(0, Instr::Sys { op: SysOp::Ecall }.encode());
        let mut cpu = Cpu::new();
        match cpu.step(&mut ram) {
            StepOutcome::Trapped { trap, .. } => {
                assert_eq!(trap.cause, Cause::EcallS);
                assert_eq!(trap.epc, 0);
            }
            other => panic!("{other:?}"),
        }
        // PC unchanged: trap not delivered yet.
        assert_eq!(cpu.pc(), 0);
        assert_eq!(cpu.instret(), 0);
    }

    #[test]
    fn take_trap_and_tret_roundtrip() {
        let mut ram = FlatRam::new(4096);
        ram.store_word(0x100, Instr::Sys { op: SysOp::Tret }.encode());
        let mut cpu = Cpu::new();
        cpu.write_csr(Csr::Tvec, 0x100);
        cpu.write_csr(Csr::Status, Status::IE);
        cpu.set_mode(Mode::User);
        cpu.set_pc(0x40);

        let t = Trap::new(Cause::EcallU, 0x40, 0);
        cpu.take_trap(t);
        assert_eq!(cpu.pc(), 0x100);
        assert_eq!(cpu.mode(), Mode::Supervisor);
        assert!(!cpu.interrupts_enabled());
        assert_eq!(cpu.read_csr(Csr::Cause), Cause::EcallU.code());
        assert_eq!(cpu.read_csr(Csr::Epc), 0x40);
        assert_eq!(cpu.traps_taken(), 1);

        // tret returns to user mode at EPC with IE restored.
        match cpu.step(&mut ram) {
            StepOutcome::Executed { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(cpu.pc(), 0x40);
        assert_eq!(cpu.mode(), Mode::User);
        assert!(cpu.interrupts_enabled());
    }

    #[test]
    fn privileged_instruction_traps_in_user_mode() {
        let mut ram = FlatRam::new(4096);
        let word = Instr::Csr {
            op: CsrOp::Rw,
            rd: Reg::R1,
            rs1: Reg::R0,
            csr: 0,
        }
        .encode();
        ram.store_word(0, word);
        let mut cpu = Cpu::new();
        cpu.set_mode(Mode::User);
        match cpu.step(&mut ram) {
            StepOutcome::Trapped { trap, .. } => {
                assert_eq!(trap.cause, Cause::PrivilegedInstruction);
                assert_eq!(trap.tval, word);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wfi_reports_idle() {
        let mut ram = FlatRam::new(4096);
        ram.store_word(0, Instr::Sys { op: SysOp::Wfi }.encode());
        let mut cpu = Cpu::new();
        match cpu.step(&mut ram) {
            StepOutcome::Wfi { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(cpu.pc(), 4); // resumes after the wfi
    }

    #[test]
    fn illegal_and_misaligned() {
        let mut ram = FlatRam::new(4096);
        ram.store_word(0, 0xffff_ffff);
        let mut cpu = Cpu::new();
        match cpu.step(&mut ram) {
            StepOutcome::Trapped { trap, .. } => assert_eq!(trap.cause, Cause::IllegalInstruction),
            other => panic!("{other:?}"),
        }
        cpu.set_pc(2);
        match cpu.step(&mut ram) {
            StepOutcome::Trapped { trap, .. } => {
                assert_eq!(trap.cause, Cause::InstrAddrMisaligned)
            }
            other => panic!("{other:?}"),
        }
        // Misaligned load.
        cpu.set_pc(4);
        ram.store_word(
            4,
            Instr::Load {
                kind: LoadKind::W,
                rd: Reg::R1,
                rs1: Reg::R0,
                offset: 2,
            }
            .encode(),
        );
        match cpu.step(&mut ram) {
            StepOutcome::Trapped { trap, .. } => {
                assert_eq!(trap.cause, Cause::LoadAddrMisaligned);
                assert_eq!(trap.tval, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn access_fault_outside_ram() {
        let mut ram = FlatRam::new(4096);
        ram.store_word(
            0,
            Instr::Load {
                kind: LoadKind::W,
                rd: Reg::R1,
                rs1: Reg::R0,
                offset: 0x4000,
            }
            .encode(),
        );
        let mut cpu = Cpu::new();
        match cpu.step(&mut ram) {
            StepOutcome::Trapped { trap, .. } => {
                assert_eq!(trap.cause, Cause::LoadAccessFault);
                assert_eq!(trap.tval, 0x4000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn single_step_flag_fires_after_one_instruction() {
        let mut ram = FlatRam::new(4096);
        ram.store_word(
            0,
            Instr::Addi {
                rd: Reg::R1,
                rs1: Reg::R0,
                imm: 1,
            }
            .encode(),
        );
        let mut cpu = Cpu::new();
        cpu.write_csr(Csr::Status, Status::TF);
        match cpu.step(&mut ram) {
            StepOutcome::Trapped { trap, .. } => {
                assert_eq!(trap.cause, Cause::DebugStep);
                assert_eq!(trap.epc, 4); // after the instruction
            }
            other => panic!("{other:?}"),
        }
        // The instruction itself retired.
        assert_eq!(cpu.reg(Reg::R1), 1);
        assert_eq!(cpu.instret(), 1);
        // Delivering the trap clears TF into PTF.
        let t = Trap::new(Cause::DebugStep, 4, 0);
        cpu.take_trap(t);
        let s = Status(cpu.read_csr(Csr::Status));
        assert!(!s.tf());
        assert!(s.ptf());
    }

    #[test]
    fn faulting_instruction_suppresses_debug_step() {
        let mut ram = FlatRam::new(4096);
        ram.store_word(0, 0xffff_ffff);
        let mut cpu = Cpu::new();
        cpu.write_csr(Csr::Status, Status::TF);
        match cpu.step(&mut ram) {
            StepOutcome::Trapped { trap, .. } => {
                assert_eq!(trap.cause, Cause::IllegalInstruction)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn csr_read_only_counters() {
        let mut ram = FlatRam::new(4096);
        // csrrs r1, cycle, r0  — read allowed (no write since rs1 == r0)
        ram.store_word(
            0,
            Instr::Csr {
                op: CsrOp::Rs,
                rd: Reg::R1,
                rs1: Reg::R0,
                csr: Csr::Cycle.number(),
            }
            .encode(),
        );
        // csrrw r0, cycle, r1 — write to RO csr must trap
        ram.store_word(
            4,
            Instr::Csr {
                op: CsrOp::Rw,
                rd: Reg::R0,
                rs1: Reg::R1,
                csr: Csr::Cycle.number(),
            }
            .encode(),
        );
        let mut cpu = Cpu::new();
        assert!(matches!(cpu.step(&mut ram), StepOutcome::Executed { .. }));
        match cpu.step(&mut ram) {
            StepOutcome::Trapped { trap, .. } => {
                assert_eq!(trap.cause, Cause::IllegalInstruction)
            }
            other => panic!("{other:?}"),
        }
        // Unknown CSR number also traps.
        cpu.set_pc(8);
        ram.store_word(
            8,
            Instr::Csr {
                op: CsrOp::Rw,
                rd: Reg::R0,
                rs1: Reg::R0,
                csr: 0xff,
            }
            .encode(),
        );
        match cpu.step(&mut ram) {
            StepOutcome::Trapped { trap, .. } => {
                assert_eq!(trap.cause, Cause::IllegalInstruction)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paged_execution_and_page_fault() {
        let mut ram = FlatRam::new(256 * 1024);
        // Code at PA 0x0000, mapped at VA 0x0040_0000, executable+readable.
        ram.store_word(
            0,
            Instr::Addi {
                rd: Reg::R1,
                rs1: Reg::R0,
                imm: 7,
            }
            .encode(),
        );
        // Store to unmapped VA 0x0080_0000 should page-fault.
        ram.store_word(
            4,
            Instr::Store {
                kind: StoreKind::W,
                rs1: Reg::R2,
                rs2: Reg::R1,
                offset: 0,
            }
            .encode(),
        );
        let root = 0x1_0000u32;
        let mut alloc = 0x1_1000u32;
        crate::mmu::map_page(
            &mut ram,
            root,
            &mut alloc,
            0x0040_0000,
            0,
            pte::V | pte::R | pte::X,
        )
        .unwrap();

        let mut cpu = Cpu::new();
        cpu.write_csr(Csr::Ptbr, root | 1);
        cpu.set_pc(0x0040_0000);
        cpu.set_reg(Reg::R2, 0x0080_0000);
        assert!(matches!(cpu.step(&mut ram), StepOutcome::Executed { .. }));
        assert_eq!(cpu.reg(Reg::R1), 7);
        match cpu.step(&mut ram) {
            StepOutcome::Trapped { trap, .. } => {
                assert_eq!(trap.cause, Cause::StorePageFault);
                assert_eq!(trap.tval, 0x0080_0000);
                assert_eq!(trap.epc, 0x0040_0004);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tlb_miss_then_hit_costs_differ() {
        let mut ram = FlatRam::new(256 * 1024);
        ram.store_word(
            0,
            Instr::Load {
                kind: LoadKind::W,
                rd: Reg::R1,
                rs1: Reg::R2,
                offset: 0,
            }
            .encode(),
        );
        ram.store_word(
            4,
            Instr::Load {
                kind: LoadKind::W,
                rd: Reg::R1,
                rs1: Reg::R2,
                offset: 4,
            }
            .encode(),
        );
        let root = 0x1_0000u32;
        let mut alloc = 0x1_1000u32;
        crate::mmu::map_page(&mut ram, root, &mut alloc, 0, 0, pte::V | pte::R | pte::X).unwrap();
        crate::mmu::map_page(&mut ram, root, &mut alloc, 0x5000, 0x2000, pte::V | pte::R).unwrap();
        let mut cpu = Cpu::new();
        cpu.write_csr(Csr::Ptbr, root | 1);
        cpu.set_reg(Reg::R2, 0x5000);
        let c1 = match cpu.step(&mut ram) {
            StepOutcome::Executed { cycles } => cycles,
            other => panic!("{other:?}"),
        };
        let c2 = match cpu.step(&mut ram) {
            StepOutcome::Executed { cycles } => cycles,
            other => panic!("{other:?}"),
        };
        assert!(
            c1 > c2,
            "first access (TLB miss) must cost more: {c1} vs {c2}"
        );
    }

    #[test]
    fn ptbr_write_flushes_tlb() {
        let mut cpu = Cpu::new();
        // Seed a TLB entry manually via a paged load, then change PTBR.
        let mut ram = FlatRam::new(256 * 1024);
        let root = 0x1_0000u32;
        let mut alloc = 0x1_1000u32;
        crate::mmu::map_page(&mut ram, root, &mut alloc, 0, 0, pte::V | pte::R | pte::X).unwrap();
        ram.store_word(
            0,
            Instr::Addi {
                rd: Reg::R1,
                rs1: Reg::R0,
                imm: 1,
            }
            .encode(),
        );
        cpu.write_csr(Csr::Ptbr, root | 1);
        assert!(matches!(cpu.step(&mut ram), StepOutcome::Executed { .. }));
        let (h0, m0) = cpu.tlb_stats();
        cpu.write_csr(Csr::Ptbr, root | 1); // rewrite flushes
        cpu.set_pc(0);
        assert!(matches!(cpu.step(&mut ram), StepOutcome::Executed { .. }));
        let (h1, m1) = cpu.tlb_stats();
        assert_eq!(h1, h0, "no new hit after flush");
        assert_eq!(m1, m0 + 1, "flush forces a re-walk");
    }

    /// A [`FlatRam`] that tracks per-page write generations, enabling the
    /// predecoded-instruction cache (the machine-level bus in `hx-machine`
    /// does the same for real RAM).
    struct GenRam {
        ram: FlatRam,
        gens: Vec<u64>,
    }

    impl GenRam {
        fn new(len: usize) -> GenRam {
            GenRam {
                ram: FlatRam::new(len),
                gens: vec![0; len.div_ceil(4096)],
            }
        }
    }

    impl Bus for GenRam {
        fn read(&mut self, paddr: u32, size: MemSize) -> Result<u32, crate::BusFault> {
            self.ram.read(paddr, size)
        }
        fn write(&mut self, paddr: u32, val: u32, size: MemSize) -> Result<(), crate::BusFault> {
            self.ram.write(paddr, val, size)?;
            self.gens[(paddr >> 12) as usize] += 1;
            Ok(())
        }
        fn fetch_page_generation(&mut self, paddr: u32) -> Option<u64> {
            self.gens.get((paddr >> 12) as usize).copied()
        }
    }

    /// Same loop, cache on vs cache off: identical architectural state,
    /// cycles and TLB statistics; the cached run mostly hits.
    #[test]
    fn decode_cache_is_invisible_to_the_simulation() {
        let loop_prog = [
            Instr::Addi {
                rd: Reg::R1,
                rs1: Reg::R0,
                imm: 50,
            }
            .encode(),
            Instr::Addi {
                rd: Reg::R2,
                rs1: Reg::R2,
                imm: 3,
            }
            .encode(),
            Instr::Addi {
                rd: Reg::R1,
                rs1: Reg::R1,
                imm: -1,
            }
            .encode(),
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::R1,
                rs2: Reg::R0,
                offset: -8,
            }
            .encode(),
        ];
        let run = |cached: bool| {
            let mut bus = GenRam::new(64 * 1024);
            for (i, w) in loop_prog.iter().enumerate() {
                bus.ram.store_word((i * 4) as u32, *w);
            }
            let mut cpu = Cpu::new();
            cpu.set_decode_cache(cached);
            for _ in 0..151 {
                match cpu.step(&mut bus) {
                    StepOutcome::Executed { .. } => {}
                    other => panic!("{other:?}"),
                }
            }
            let stats = cpu.decode_stats();
            cpu.set_decode_cache(false);
            (cpu, stats)
        };
        let (base, _) = run(false);
        let (cached, stats) = run(true);
        assert_eq!(base.regs(), cached.regs());
        assert_eq!(base.pc(), cached.pc());
        assert_eq!(base.cycles(), cached.cycles());
        assert_eq!(base.instret(), cached.instret());
        assert_eq!(base.tlb_stats(), cached.tlb_stats());
        assert!(
            stats.hits > 100 && stats.misses <= 4,
            "loop must be served predecoded: {stats:?}"
        );
    }

    /// Self-modifying code: a store into a predecoded page must drop the
    /// stale decode.
    #[test]
    fn decode_cache_invalidated_by_store() {
        let mut bus = GenRam::new(64 * 1024);
        let old = Instr::Addi {
            rd: Reg::R1,
            rs1: Reg::R0,
            imm: 1,
        }
        .encode();
        let new = Instr::Addi {
            rd: Reg::R1,
            rs1: Reg::R0,
            imm: 99,
        }
        .encode();
        bus.ram.store_word(0, old);
        bus.ram.store_word(
            4,
            Instr::Store {
                kind: StoreKind::W,
                rs1: Reg::R2,
                rs2: Reg::R3,
                offset: 0,
            }
            .encode(),
        );
        let mut cpu = Cpu::new();
        cpu.set_decode_cache(true);
        cpu.set_reg(Reg::R3, new);
        assert!(matches!(cpu.step(&mut bus), StepOutcome::Executed { .. }));
        assert_eq!(cpu.reg(Reg::R1), 1);
        // Overwrite the first instruction, loop back and re-execute it.
        assert!(matches!(cpu.step(&mut bus), StepOutcome::Executed { .. }));
        cpu.set_pc(0);
        assert!(matches!(cpu.step(&mut bus), StepOutcome::Executed { .. }));
        assert_eq!(cpu.reg(Reg::R1), 99, "stale predecode must not survive");
        assert!(cpu.decode_stats().invalidations >= 1);
    }

    /// Paged fetches: the fast-path line must keep cycle costs and TLB
    /// statistics identical, and a `ptbr` rewrite (shadow activation) must
    /// kill both the line and nothing else.
    #[test]
    fn decode_cache_paged_fetch_matches_uncached() {
        let run = |cached: bool| {
            let mut bus = GenRam::new(256 * 1024);
            let root = 0x1_0000u32;
            let mut alloc = 0x1_1000u32;
            crate::mmu::map_page(
                &mut bus,
                root,
                &mut alloc,
                0x0040_0000,
                0,
                pte::V | pte::R | pte::X,
            )
            .unwrap();
            for i in 0..4u32 {
                bus.ram.store_word(
                    i * 4,
                    Instr::Addi {
                        rd: Reg::R4,
                        rs1: Reg::R4,
                        imm: 1,
                    }
                    .encode(),
                );
            }
            bus.ram.store_word(
                16,
                Instr::Jal {
                    rd: Reg::R0,
                    offset: -16,
                }
                .encode(),
            );
            let mut cpu = Cpu::new();
            cpu.set_decode_cache(cached);
            cpu.write_csr(Csr::Ptbr, root | 1);
            cpu.set_pc(0x0040_0000);
            for _ in 0..40 {
                match cpu.step(&mut bus) {
                    StepOutcome::Executed { .. } => {}
                    other => panic!("{other:?}"),
                }
            }
            // Re-activating the page table flushes the TLB; both runs must
            // pay the re-walk identically.
            cpu.write_csr(Csr::Ptbr, root | 1);
            for _ in 0..10 {
                match cpu.step(&mut bus) {
                    StepOutcome::Executed { .. } => {}
                    other => panic!("{other:?}"),
                }
            }
            let stats = cpu.decode_stats();
            (cpu.cycles(), cpu.tlb_stats(), cpu.reg(Reg::R4), stats)
        };
        let (c0, t0, r0, _) = run(false);
        let (c1, t1, r1, stats) = run(true);
        assert_eq!(c0, c1);
        assert_eq!(t0, t1);
        assert_eq!(r0, r1);
        assert!(stats.fast_fetches > 30, "{stats:?}");
    }

    #[test]
    fn cycle_csr_tracks_cycles() {
        let mut ram = FlatRam::new(4096);
        for i in 0..4 {
            ram.store_word(
                i * 4,
                Instr::Addi {
                    rd: Reg::R1,
                    rs1: Reg::R1,
                    imm: 1,
                }
                .encode(),
            );
        }
        let mut cpu = Cpu::new();
        for _ in 0..4 {
            cpu.step(&mut ram);
        }
        assert_eq!(cpu.read_csr(Csr::Cycle) as u64, cpu.cycles());
        assert_eq!(cpu.read_csr(Csr::Instret), 4);
    }
}
