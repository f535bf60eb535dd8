//! The conventional baseline from the paper's introduction: a **debugger
//! embedded in the operating system under development**.
//!
//! The stub's working state — a magic word and the breakpoint table — lives
//! at a fixed address *inside guest memory* ([`STATE_BASE`]), and every stub
//! operation goes through it, because the stub is just another part of the
//! kernel. The consequence the paper builds on: when the OS under
//! development scribbles over memory, it scribbles over its own debugger,
//! and the host-side session goes dead. Contrast with the monitor-resident
//! stub in the `lvmm` crate, which keeps answering.

use hx_cpu::csr::{Csr, Status};
use hx_cpu::isa::EBREAK_WORD;
use hx_cpu::trap::Cause;
use hx_cpu::MemSize;
use hx_machine::platform::PlatformStep;
use hx_machine::{map, Machine, MachineStep, Platform, TimeBucket, TimeStats};
use rdbg::msg::{Command, Reply, StopReason};
use rdbg::wire::{self, PacketParser, WireEvent};

/// Guest-physical base of the embedded stub's state block.
pub const STATE_BASE: u32 = 0xe000;
/// Magic word marking the state block as intact.
pub const STATE_MAGIC: u32 = 0x5afe_57ab;
/// Maximum breakpoints in the guest-resident table.
pub const MAX_BREAKPOINTS: u32 = 16;

const OFF_MAGIC: u32 = 0;
const OFF_COUNT: u32 = 4;
const OFF_TABLE: u32 = 8; // MAX_BREAKPOINTS × (addr, orig)

/// The real-hardware platform with an OS-embedded debug stub.
#[derive(Debug)]
pub struct EmbeddedStubPlatform {
    machine: Machine,
    stats: TimeStats,
    parser: PacketParser,
    stopped: bool,
    last_stop: Option<StopReason>,
    lifted: Option<u32>,
    step_then_stop: bool,
    stepping: bool,
}

impl EmbeddedStubPlatform {
    /// Wraps a machine whose guest image is already loaded, and initializes
    /// the stub state block in guest memory (as the kernel's boot code
    /// would).
    pub fn new(mut machine: Machine) -> EmbeddedStubPlatform {
        machine
            .mem
            .write(STATE_BASE + OFF_MAGIC, STATE_MAGIC, MemSize::Word)
            .unwrap();
        machine
            .mem
            .write(STATE_BASE + OFF_COUNT, 0, MemSize::Word)
            .unwrap();
        // The kernel's boot code would install the stub ISR: receive
        // interrupts on, CPU interrupts enabled.
        machine
            .bus_write(
                map::UART_BASE + hx_machine::uart::reg::CTRL,
                1,
                MemSize::Word,
            )
            .expect("UART present");
        let s = Status(machine.cpu.read_csr(Csr::Status));
        machine
            .cpu
            .write_csr(Csr::Status, s.with(Status::IE, true).0);
        EmbeddedStubPlatform {
            machine,
            stats: TimeStats::new(),
            parser: PacketParser::new(),
            stopped: false,
            last_stop: None,
            lifted: None,
            step_then_stop: false,
            stepping: false,
        }
    }

    /// Is the guest stopped under the stub?
    pub fn guest_stopped(&self) -> bool {
        self.stopped
    }

    /// Is the stub's guest-resident state still intact?
    pub fn stub_alive(&self) -> bool {
        self.machine.mem.read(STATE_BASE + OFF_MAGIC, MemSize::Word) == Ok(STATE_MAGIC)
    }

    fn bp_lookup(&self, addr: u32) -> Option<(u32, u32)> {
        let count = self
            .machine
            .mem
            .read(STATE_BASE + OFF_COUNT, MemSize::Word)
            .ok()?
            .min(MAX_BREAKPOINTS);
        for i in 0..count {
            let a = self
                .machine
                .mem
                .read(STATE_BASE + OFF_TABLE + i * 8, MemSize::Word)
                .ok()?;
            if a == addr {
                let orig = self
                    .machine
                    .mem
                    .read(STATE_BASE + OFF_TABLE + i * 8 + 4, MemSize::Word)
                    .ok()?;
                return Some((i, orig));
            }
        }
        None
    }

    fn send_packet(&mut self, payload: &str) {
        self.machine.uart.push_tx(&wire::encode_packet(payload));
    }

    fn stop(&mut self, reason: StopReason) {
        self.stopped = true;
        self.last_stop = Some(reason);
        let s = Status(self.machine.cpu.read_csr(Csr::Status));
        self.machine
            .cpu
            .write_csr(Csr::Status, s.with(Status::TF, false).0);
        self.send_packet(&reason.format());
    }

    /// Services host bytes. If the stub state in guest memory is corrupt,
    /// the stub is dead: bytes are consumed by the broken kernel and no
    /// reply ever comes.
    fn service_uart(&mut self) {
        let mut bytes = Vec::new();
        while let Some(b) = self.machine.uart.pop_rx() {
            bytes.push(b);
        }
        if bytes.is_empty() {
            return;
        }
        if !self.stub_alive() {
            return; // the embedded stub died with its OS
        }
        self.parser.push(&bytes);
        while let Some(ev) = self.parser.next_event() {
            match ev {
                WireEvent::BreakIn => {
                    let pc = self.machine.cpu.pc();
                    self.stop(StopReason::Halted { pc });
                }
                WireEvent::Packet(p) => {
                    self.machine.uart.push_tx(&[wire::ACK]);
                    let reply = match Command::parse(&p) {
                        Some(cmd) => self.exec(cmd),
                        None => Reply::Error(1),
                    };
                    self.send_packet(&reply.format());
                }
                WireEvent::Corrupt => self.machine.uart.push_tx(&[wire::NAK]),
                WireEvent::Ack | WireEvent::Nak => {}
            }
        }
    }

    fn exec(&mut self, cmd: Command) -> Reply {
        match cmd {
            Command::Halt => {
                let pc = self.machine.cpu.pc();
                self.stop(StopReason::Halted { pc });
                Reply::Ok
            }
            Command::QueryStop => match self.last_stop {
                Some(r) if self.stopped => Reply::Stopped(r),
                _ => Reply::Error(4),
            },
            Command::ReadRegisters => {
                let mut bytes = Vec::with_capacity(33 * 4);
                for r in self.machine.cpu.regs() {
                    bytes.extend_from_slice(&r.to_le_bytes());
                }
                bytes.extend_from_slice(&self.machine.cpu.pc().to_le_bytes());
                Reply::Hex(bytes)
            }
            Command::WriteRegister { index, value } => {
                if index < 32 {
                    self.machine
                        .cpu
                        .set_reg(hx_cpu::Reg::new(index).unwrap(), value);
                    Reply::Ok
                } else if index == rdbg::msg::REG_PC {
                    self.machine.cpu.set_pc(value);
                    Reply::Ok
                } else {
                    Reply::Error(2)
                }
            }
            Command::ReadMemory { addr, len } => {
                if len > rdbg::msg::MEM_CHUNK {
                    return Reply::Error(1);
                }
                let mut out = Vec::with_capacity(len as usize);
                for i in 0..len {
                    match self.machine.mem.read(addr.wrapping_add(i), MemSize::Byte) {
                        Ok(b) => out.push(b as u8),
                        Err(_) => return Reply::Error(3),
                    }
                }
                Reply::Hex(out)
            }
            Command::WriteMemory { addr, data } => {
                for (i, &b) in data.iter().enumerate() {
                    if self
                        .machine
                        .mem
                        .write(addr.wrapping_add(i as u32), b as u32, MemSize::Byte)
                        .is_err()
                    {
                        return Reply::Error(3);
                    }
                }
                Reply::Ok
            }
            Command::SetBreakpoint { addr } => {
                if self.bp_lookup(addr).is_some() {
                    return Reply::Error(5);
                }
                let Ok(count) = self.machine.mem.read(STATE_BASE + OFF_COUNT, MemSize::Word) else {
                    return Reply::Error(3);
                };
                if count >= MAX_BREAKPOINTS {
                    return Reply::Error(5);
                }
                let Ok(orig) = self.machine.mem.read(addr, MemSize::Word) else {
                    return Reply::Error(3);
                };
                let e = STATE_BASE + OFF_TABLE + count * 8;
                let ok = self.machine.mem.write(e, addr, MemSize::Word).is_ok()
                    && self.machine.mem.write(e + 4, orig, MemSize::Word).is_ok()
                    && self
                        .machine
                        .mem
                        .write(addr, EBREAK_WORD, MemSize::Word)
                        .is_ok()
                    && self
                        .machine
                        .mem
                        .write(STATE_BASE + OFF_COUNT, count + 1, MemSize::Word)
                        .is_ok();
                if ok {
                    Reply::Ok
                } else {
                    Reply::Error(3)
                }
            }
            Command::ClearBreakpoint { addr } => {
                let Some((slot, orig)) = self.bp_lookup(addr) else {
                    return Reply::Error(5);
                };
                let count = self
                    .machine
                    .mem
                    .read(STATE_BASE + OFF_COUNT, MemSize::Word)
                    .unwrap_or(0);
                // Move the last entry into the vacated slot.
                let last = STATE_BASE + OFF_TABLE + (count - 1) * 8;
                let slot_addr = STATE_BASE + OFF_TABLE + slot * 8;
                let la = self.machine.mem.read(last, MemSize::Word).unwrap_or(0);
                let lo = self.machine.mem.read(last + 4, MemSize::Word).unwrap_or(0);
                let _ = self.machine.mem.write(slot_addr, la, MemSize::Word);
                let _ = self.machine.mem.write(slot_addr + 4, lo, MemSize::Word);
                let _ = self
                    .machine
                    .mem
                    .write(STATE_BASE + OFF_COUNT, count - 1, MemSize::Word);
                let _ = self.machine.mem.write(addr, orig, MemSize::Word);
                Reply::Ok
            }
            Command::Step => {
                if !self.stopped {
                    return Reply::Error(4);
                }
                self.arm_step(true);
                Reply::Ok
            }
            Command::Continue => {
                if !self.stopped {
                    return Reply::Error(4);
                }
                let pc = self.machine.cpu.pc();
                if self.bp_lookup(pc).is_some() {
                    self.arm_step(false);
                } else {
                    self.stopped = false;
                }
                Reply::Ok
            }
            Command::SetWatchpoint { .. }
            | Command::ClearWatchpoint { .. }
            | Command::SetBreakCondition { .. }
            | Command::SetWatchCondition { .. }
            | Command::SetLogpoint { .. }
            | Command::ClearLogpoint { .. } => {
                // No MMU tricks or condition evaluator available to an
                // in-kernel stub on this hardware; watchpoints, conditions
                // and logpoints are monitor-only features.
                Reply::Error(9)
            }
            Command::Reset => Reply::Error(9),
            Command::SetThread { core } | Command::ThreadAlive { core } => {
                // The in-kernel stub debugs the one CPU it runs on: thread
                // 0 exists, everything else is "no such core" (11).
                if core == 0 {
                    Reply::Ok
                } else {
                    Reply::Error(11)
                }
            }
            Command::QueryStats | Command::QueryProf { .. } => {
                // An in-kernel stub has no monitor accounting or profiler
                // to report.
                Reply::Error(9)
            }
            Command::QueryFlow => {
                // No causal tracker lives inside the kernel; answer with
                // the *named* code (`lvmm::stub::err::CAUSAL` = 12) so the
                // host prints what is missing instead of a bare number.
                Reply::Error(12)
            }
            Command::QueryMetrics => {
                // An in-kernel stub has no host clock, so host-time
                // metrics can never exist here. Answer with the *named*
                // code (`lvmm::stub::err::METRICS` = 10, "metrics
                // unavailable") rather than the generic 9, so the host
                // prints what is missing instead of a bare number.
                Reply::Error(10)
            }
            Command::ReverseStep
            | Command::ReverseContinue
            | Command::Seek { .. }
            | Command::QueryFirst { .. } => {
                // Time travel needs the monitor's flight recorder; an
                // in-kernel stub cannot rewind the machine it runs on.
                Reply::Error(9)
            }
        }
    }

    fn arm_step(&mut self, then_stop: bool) {
        let pc = self.machine.cpu.pc();
        if let Some((_, orig)) = self.bp_lookup(pc) {
            let _ = self.machine.mem.write(pc, orig, MemSize::Word);
            self.lifted = Some(pc);
        }
        let s = Status(self.machine.cpu.read_csr(Csr::Status));
        self.machine
            .cpu
            .write_csr(Csr::Status, s.with(Status::TF, true).0);
        self.stepping = true;
        self.step_then_stop = then_stop;
        self.stopped = false;
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
        if self.stopped {
            // Guest frozen; the stub (kernel code) polls the UART.
            self.machine.consume(200);
            self.stats.charge(TimeBucket::Guest, 200);
            self.service_uart();
            return PlatformStep::Running;
        }
        match self.machine.step() {
            MachineStep::Executed { cycles } => {
                self.stats.charge(TimeBucket::Guest, cycles);
                PlatformStep::Running
            }
            MachineStep::Idle { cycles } => {
                self.stats.charge(TimeBucket::Idle, cycles);
                PlatformStep::Running
            }
            MachineStep::Interrupt { irq, vector } => {
                if irq == map::irq::UART {
                    // The kernel's UART ISR is the stub.
                    self.machine.pic.eoi(irq);
                    self.machine.consume(300);
                    self.stats.charge(TimeBucket::Guest, 300);
                    self.service_uart();
                } else {
                    let trap = self.machine.interrupt_trap(vector);
                    let c = self.machine.deliver_trap(trap);
                    self.stats.charge(TimeBucket::Guest, c);
                }
                PlatformStep::Running
            }
            MachineStep::Trapped { trap, cycles } => {
                self.stats.charge(TimeBucket::Guest, cycles);
                match trap.cause {
                    Cause::Breakpoint
                        if self.stub_alive() && self.bp_lookup(trap.epc).is_some() =>
                    {
                        self.stop(StopReason::Breakpoint { pc: trap.epc });
                    }
                    Cause::DebugStep if self.stepping => {
                        self.stepping = false;
                        let s = Status(self.machine.cpu.read_csr(Csr::Status));
                        self.machine
                            .cpu
                            .write_csr(Csr::Status, s.with(Status::TF, false).0);
                        if let Some(addr) = self.lifted.take() {
                            if self.stub_alive() {
                                let _ = self.machine.mem.write(addr, EBREAK_WORD, MemSize::Word);
                            }
                        }
                        if self.step_then_stop {
                            self.stop(StopReason::Step { pc: trap.epc });
                        }
                    }
                    _ => {
                        let c = self.machine.deliver_trap(trap);
                        self.stats.charge(TimeBucket::Guest, c);
                    }
                }
                PlatformStep::Running
            }
            MachineStep::Stuck => PlatformStep::Stuck,
        }
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
        assert_eq!(err, rdbg::DbgError::Target(lvmm::stub::err::METRICS));
        assert_eq!(
            rdbg::err_name(lvmm::stub::err::METRICS),
            Some("metrics unavailable")
        );
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
