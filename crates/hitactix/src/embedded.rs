//! The conventional baseline from the paper's introduction: a **debugger
//! embedded in the operating system under development**.
//!
//! The stub is just another part of the kernel. Its protocol handling is
//! the same [`rdbg::stub`] dispatcher the monitor-resident stub in the
//! `lvmm` crate runs; this module is only the other [`Target`], and the
//! differences are all residency:
//!
//! * **Breakpoints live in guest RAM.** The breakpoint table sits in a
//!   state block at a fixed address *inside guest memory* ([`STATE_BASE`]),
//!   guarded by a magic word, and an armed breakpoint is an `ebreak`
//!   patched over the instruction — so `m` over it shows the `ebreak`.
//! * **Liveness.** The stub answers only while its magic word survives and
//!   the kernel still takes UART interrupts (the kernel's UART ISR is the
//!   stub).
//! * **Address view.** Memory commands address physical RAM, and only the
//!   CPU the stub runs on can be selected.
//! * **Costs.** Each UART interrupt costs a fixed ISR charge and each poll
//!   while stopped a fixed poll charge, all of it guest time.
//!
//! The consequence the paper builds on: when the OS under development
//! scribbles over memory, it scribbles over its own debugger, and the
//! host-side session goes dead. The monitor-resident stub keeps answering.

use hx_cpu::csr::Status;
use hx_cpu::isa::EBREAK_WORD;
use hx_cpu::trap::{Cause, Trap};
use hx_cpu::{MemSize, Reg};
use hx_machine::engine::ExitPolicy;
use hx_machine::platform::PlatformStep;
use hx_machine::{map, Machine, Platform, TimeBucket, TimeStats};
use rdbg::err;
use rdbg::msg::StopReason;
use rdbg::stub::{service, stop, StepIntent, Stub, Target};

/// Guest-physical base of the embedded stub's state block.
pub const STATE_BASE: u32 = 0xe000;
/// Magic word marking the state block as intact.
pub const STATE_MAGIC: u32 = 0x5afe_57ab;
/// Maximum breakpoints in the guest-resident table.
pub const MAX_BREAKPOINTS: u32 = 16;

const OFF_MAGIC: u32 = 0;
const OFF_COUNT: u32 = 4;
const OFF_TABLE: u32 = 8; // MAX_BREAKPOINTS × (addr, orig)

/// Guest cycles the kernel's UART ISR (the stub) costs per interrupt.
const ISR_CYCLES: u64 = 300;
/// Guest cycles one UART poll costs while the stub holds the guest stopped.
const POLL_CYCLES: u64 = 200;

/// The real-hardware platform with an OS-embedded debug stub.
#[derive(Debug)]
pub struct EmbeddedStubPlatform {
    machine: Machine,
    stats: TimeStats,
    stub: Stub,
    /// The breakpoint whose original instruction is back in place while
    /// the guest single-steps off it.
    lifted: Option<u32>,
}

impl EmbeddedStubPlatform {
    /// Wraps a machine whose guest image is already loaded, and initializes
    /// the stub state block in guest memory (as the kernel's boot code
    /// would).
    pub fn new(mut machine: Machine) -> EmbeddedStubPlatform {
        let mem = &mut machine.mem;
        for (off, word) in [(OFF_MAGIC, STATE_MAGIC), (OFF_COUNT, 0)] {
            mem.write(STATE_BASE + off, word, MemSize::Word).unwrap();
        }
        // The kernel's boot code would install the stub ISR: receive
        // interrupts on, CPU interrupts enabled.
        machine
            .bus_write(
                map::UART_BASE + hx_machine::uart::reg::CTRL,
                1,
                MemSize::Word,
            )
            .expect("UART present");
        machine.cpu.set_status_bit(Status::IE, true);
        EmbeddedStubPlatform {
            machine,
            stats: TimeStats::new(),
            stub: Stub::default(),
            lifted: None,
        }
    }

    /// Is the stub's guest-resident state still intact?
    pub fn stub_alive(&self) -> bool {
        self.machine.mem.word(STATE_BASE + OFF_MAGIC) == STATE_MAGIC
    }

    /// The breakpoint count, clamped to the table's size: it lives in guest
    /// RAM, where the guest can store anything.
    fn bp_count(&self) -> u32 {
        let count = self.machine.mem.word(STATE_BASE + OFF_COUNT);
        count.min(MAX_BREAKPOINTS)
    }

    /// The table slot and original instruction of the breakpoint at `addr`.
    fn bp_slot(&self, addr: u32) -> Option<(u32, u32)> {
        let mem = &self.machine.mem;
        (0..self.bp_count()).find_map(|i| {
            let entry = STATE_BASE + OFF_TABLE + i * 8;
            (mem.word(entry) == addr).then(|| (i, mem.word(entry + 4)))
        })
    }

    /// Puts the lifted breakpoint's `ebreak` back, if the stub still lives.
    fn replant(&mut self) {
        if let Some(addr) = self.lifted.take() {
            if self.stub_alive() {
                let _ = self.machine.mem.write(addr, EBREAK_WORD, MemSize::Word);
            }
        }
    }

    fn step_state(&mut self, batch: bool) -> PlatformStep {
        if !self.stub.stopped {
            return self.guest_step(batch);
        }
        // Guest frozen; the stub (kernel code) polls the UART.
        self.consume(TimeBucket::Guest, POLL_CYCLES);
        service(self);
        PlatformStep::Running
    }
}

/// The OS-embedded stub (see the [module docs](self) for how it differs
/// from the monitor-resident one). It serves none of the optional verbs.
impl Target for EmbeddedStubPlatform {
    fn stub(&mut self) -> &mut Stub {
        &mut self.stub
    }

    fn recv_byte(&mut self) -> Option<u8> {
        self.machine.uart.pop_rx()
    }

    fn transmit(&mut self, bytes: &[u8]) {
        self.machine.uart.push_tx(bytes);
    }

    /// With its state block corrupt the stub died with its OS: the broken
    /// kernel consumes the bytes and no reply ever comes.
    fn serve(&mut self, pass: impl FnOnce(&mut Self)) {
        if self.stub_alive() {
            pass(self);
        }
    }

    /// The in-kernel stub debugs the one CPU it runs on.
    fn cores(&self) -> u32 {
        1
    }

    fn pc(&self) -> u32 {
        self.machine.cpu.pc()
    }

    fn register(&self, _core: u32, index: u8) -> u32 {
        match Reg::new(index) {
            Some(reg) => self.machine.cpu.reg(reg),
            None => self.machine.cpu.pc(),
        }
    }

    fn set_register(&mut self, _core: u32, index: u8, value: u32) {
        match Reg::new(index) {
            Some(reg) => self.machine.cpu.set_reg(reg, value),
            None => self.machine.cpu.set_pc(value),
        }
    }

    fn read_byte(&mut self, _core: u32, addr: u32) -> Option<u8> {
        let b = self.machine.mem.read(addr, MemSize::Byte).ok()?;
        Some(b as u8)
    }

    fn write_byte(&mut self, _core: u32, addr: u32, byte: u8) -> bool {
        let mem = &mut self.machine.mem;
        mem.write(addr, byte.into(), MemSize::Byte).is_ok()
    }

    fn has_breakpoint(&self, addr: u32) -> bool {
        self.bp_slot(addr).is_some()
    }

    fn set_breakpoint(&mut self, _core: u32, addr: u32) -> Result<(), u8> {
        let count = self.bp_count();
        if count >= MAX_BREAKPOINTS {
            return Err(err::BP);
        }
        let mem = &mut self.machine.mem;
        let orig = mem.read(addr, MemSize::Word).map_err(|_| err::MEM)?;
        let entry = STATE_BASE + OFF_TABLE + count * 8;
        let ok = mem.write(entry, addr, MemSize::Word).is_ok()
            && mem.write(entry + 4, orig, MemSize::Word).is_ok()
            && mem.write(addr, EBREAK_WORD, MemSize::Word).is_ok()
            && mem
                .write(STATE_BASE + OFF_COUNT, count + 1, MemSize::Word)
                .is_ok();
        ok.then_some(()).ok_or(err::MEM)
    }

    fn clear_breakpoint(&mut self, addr: u32) -> bool {
        let Some((slot, orig)) = self.bp_slot(addr) else {
            return false;
        };
        // Move the last entry into the vacated slot (`slot < count`).
        let count = self.bp_count();
        let mem = &mut self.machine.mem;
        let last = STATE_BASE + OFF_TABLE + (count - 1) * 8;
        let slot_addr = STATE_BASE + OFF_TABLE + slot * 8;
        let (la, lo) = (mem.word(last), mem.word(last + 4));
        let _ = mem.write(slot_addr, la, MemSize::Word);
        let _ = mem.write(slot_addr + 4, lo, MemSize::Word);
        let _ = mem.write(STATE_BASE + OFF_COUNT, count - 1, MemSize::Word);
        let _ = mem.write(addr, orig, MemSize::Word);
        true
    }

    fn park(&mut self, _reason: &StopReason) -> u8 {
        self.machine.cpu.set_status_bit(Status::TF, false);
        self.replant();
        0
    }

    fn unpark(&mut self, intent: Option<StepIntent>) {
        if intent.is_none() {
            return;
        }
        // Single-step the original instruction from under a breakpoint.
        let pc = self.machine.cpu.pc();
        if let Some((_, orig)) = self.bp_slot(pc) {
            let _ = self.machine.mem.write(pc, orig, MemSize::Word);
            self.lifted = Some(pc);
        }
        self.machine.cpu.set_status_bit(Status::TF, true);
    }
}

impl ExitPolicy for EmbeddedStubPlatform {
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
        match trap.cause {
            Cause::Breakpoint if self.stub_alive() && self.has_breakpoint(trap.epc) => {
                stop(self, StopReason::Breakpoint { pc: trap.epc });
            }
            Cause::DebugStep if self.stub.step_intent.is_some() => {
                let intent = self.stub.step_intent.take();
                self.machine.cpu.set_status_bit(Status::TF, false);
                self.replant();
                if intent == Some(StepIntent::Step) {
                    stop(self, StopReason::Step { pc: trap.epc });
                }
            }
            _ => {
                let c = self.machine.deliver_trap(trap);
                self.charge(TimeBucket::Guest, c);
            }
        }
    }

    fn handle_interrupt(&mut self, irq: u8, vector: u8) {
        if irq == map::irq::UART {
            // The kernel's UART ISR is the stub.
            self.machine.pic.eoi(irq);
            self.consume(TimeBucket::Guest, ISR_CYCLES);
            service(self);
        } else {
            let trap = self.machine.interrupt_trap(vector);
            let c = self.machine.deliver_trap(trap);
            self.charge(TimeBucket::Guest, c);
        }
    }
}

impl Platform for EmbeddedStubPlatform {
    fn name(&self) -> &'static str {
        "embedded-stub"
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
        self.step_state(batch)
    }

    fn step_precise(&mut self) -> PlatformStep {
        self.step_state(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use hx_machine::MachineConfig;
    use lvmm::UartLink;
    use rdbg::Debugger;

    fn boot(program: &hx_asm::Program) -> EmbeddedStubPlatform {
        let mut machine = Machine::new(MachineConfig {
            ram_size: 1 << 20,
            ..MachineConfig::default()
        });
        machine.load_program(program);
        EmbeddedStubPlatform::new(machine)
    }

    #[test]
    fn debug_session_works_while_guest_is_healthy() {
        let program = apps::counter_guest();
        let bump = program.symbols.get("bump").unwrap();
        let counter = program.symbols.get("counter").unwrap();
        let platform = boot(&program);
        let mut dbg = Debugger::new(UartLink::new(platform));

        let stop = dbg.halt().unwrap();
        assert!(matches!(stop, StopReason::Halted { .. }));
        dbg.set_breakpoint(bump).unwrap();
        let stop = dbg.continue_until_stop().unwrap();
        assert_eq!(stop, StopReason::Breakpoint { pc: bump });
        let regs = dbg.read_registers().unwrap();
        assert_eq!(regs.pc, bump);
        let stop = dbg.step().unwrap();
        assert_eq!(stop.pc(), bump + 4);
        let mem = dbg.read_memory(counter, 4).unwrap();
        let count0 = u32::from_le_bytes(mem.try_into().unwrap());
        dbg.clear_breakpoint(bump).unwrap();
        dbg.resume().unwrap();
        let mut link = dbg.into_link();
        link.platform.run_for(50_000);
        let count1 = link.platform.machine().mem.word(counter);
        assert!(count1 > count0);
        assert!(link.platform.stub_alive());
    }

    #[test]
    fn embedded_stub_rejects_metrics_with_the_named_code() {
        let program = apps::counter_guest();
        let platform = boot(&program);
        let mut dbg = Debugger::new(UartLink::new(platform));
        dbg.halt().unwrap();
        // No host clock in an in-kernel stub: `qMetrics` must fail with
        // the *stable, named* code the host can explain — not a generic
        // unsupported-command error.
        let err = dbg.query_metrics().unwrap_err();
        assert_eq!(err, rdbg::DbgError::Target(err::METRICS));
        assert_eq!(rdbg::err_name(err::METRICS), Some("metrics unavailable"));
    }

    #[test]
    fn embedded_stub_refuses_oversized_memory_reads() {
        use rdbg::Link;
        let platform = boot(&apps::counter_guest());
        let mut dbg = Debugger::new(UartLink::new(platform));
        dbg.halt().unwrap();
        let link = dbg.link_mut();
        link.send(&rdbg::encode_packet("m0,ffffffff"));
        let mut out = Vec::new();
        for _ in 0..100 {
            out.extend(link.pump());
        }
        link.send(b"+");
        let out = String::from_utf8_lossy(&out);
        assert!(out.contains("$E01#"), "reply: {out}");
        assert!(matches!(dbg.query_stop(), Ok(StopReason::Halted { .. })));
    }

    #[test]
    fn clearing_a_breakpoint_survives_a_guest_scribbled_count() {
        // The guest stores a huge breakpoint count into the stub's state
        // block (it is guest RAM) and then hits the armed breakpoint.
        let program = hx_asm::assemble(&format!(
            "        .org 0x1000
             start:  li   t0, {count:#x}
                     li   t1, 0x40000000
             main:   j    main
             wreck:  sw   t1, 0(t0)
                     j    main
            ",
            count = STATE_BASE + OFF_COUNT,
        ))
        .unwrap();
        let main = program.symbols.get("main").unwrap();
        let wreck = program.symbols.get("wreck").unwrap();
        let orig = {
            let mut p = boot(&program);
            p.run_for(1_000);
            p.machine().mem.word(main)
        };
        let mut dbg = Debugger::new(UartLink::new(boot(&program)));
        dbg.link_mut().platform.run_for(1_000);
        dbg.halt().unwrap();
        dbg.set_breakpoint(main).unwrap();
        dbg.write_register(rdbg::msg::REG_PC, wreck).unwrap();
        let stop = dbg.continue_until_stop().unwrap();
        assert_eq!(stop, StopReason::Breakpoint { pc: main });
        let count = dbg
            .link_ref()
            .platform
            .machine()
            .mem
            .word(STATE_BASE + OFF_COUNT);
        assert_eq!(count, 0x4000_0000, "the guest's store landed");
        // The count is read clamped: no overflow, and the original
        // instruction goes back.
        dbg.clear_breakpoint(main).unwrap();
        assert_eq!(dbg.link_ref().platform.machine().mem.word(main), orig);
    }

    #[test]
    fn embedded_stub_dies_with_the_guest() {
        let program = apps::buggy_guest(50);
        let mut platform = boot(&program);
        // Let the guest rampage (it wipes the first 64 KiB, including
        // the stub state at STATE_BASE).
        platform.run_for(3_000_000);
        assert!(!platform.stub_alive(), "state block must be destroyed");
        // The host now tries to debug: no reply ever comes.
        let mut dbg = Debugger::new(UartLink::new(platform));
        assert_eq!(dbg.halt(), Err(rdbg::DbgError::Timeout));
    }
}
