//! Small auxiliary guest programs for the debugging examples and tests.

use hx_asm::{assemble, Program};

/// A well-behaved counting kernel with a subroutine — the standard target
/// for breakpoint/step/inspect sessions.
///
/// Symbols: `start`, `main_loop`, `bump` (the subroutine), `counter` (a
/// word in memory incremented once per loop), `message` (a string).
pub fn counter_guest() -> Program {
    assemble(
        "        .org 0x1000
         start:  li   sp, 0x8000
                 la   s0, counter
         main_loop:
                 jal  bump
                 j    main_loop
         bump:   lw   t0, 0(s0)
                 addi t0, t0, 1
                 sw   t0, 0(s0)
                 ret
                 .align 4
         counter:
                 .word 0
         message:
                 .asciz \"hitactix counter guest\"
        ",
    )
    .expect("counter guest assembles")
}

/// A kernel with a latent bug: after `trigger` iterations it scribbles over
/// its **own** memory — data, then its trap vector, then its code — and
/// finally jumps into the wreckage.
///
/// On the lightweight monitor the debug stub keeps answering afterwards
/// (its state lives in monitor memory); with an OS-embedded stub the
/// debugger goes silent. This is the paper's stability claim in executable
/// form.
///
/// Symbols: `start`, `main_loop`, `rampage`, `counter`.
pub fn buggy_guest(trigger: u32) -> Program {
    assemble(&format!(
        "        .org 0x1000
         start:  li   sp, 0x8000
                 la   t0, handler
                 csrw tvec, t0
                 la   s0, counter
                 li   s1, {trigger}
         main_loop:
                 lw   t0, 0(s0)
                 addi t0, t0, 1
                 sw   t0, 0(s0)
                 blt  t0, s1, main_loop
         rampage:
                 ; wipe the first 64 KiB top-down: stack, any embedded
                 ; debugger state, the vectors, and finally this very code
                 li   t0, 0x10000
                 li   t2, 0xdeadbeef
         wipe:   addi t0, t0, -4
                 sw   t2, 0(t0)
                 bnez t0, wipe
                 jr   t2                 ; wild jump (if the loop survives)
         handler:
                 j    handler
                 .align 4
         counter:
                 .word 0
        ",
    ))
    .expect("buggy guest assembles")
}

/// A kernel that builds page tables, drops to user mode, and lets the user
/// task attempt an illegal write — the three-level-protection demo.
///
/// The kernel records the fault cause it observes at `observed` (offset
/// `0x900`), mirroring the protection test in the `lvmm` crate.
///
/// Symbols: `start`, `ktrap`, `user_code`.
pub fn protection_guest() -> Program {
    assemble(
        "        .equ PT_ROOT, 0x100000
                 .equ PT_L2,   0x101000
                 .equ USERPG,  0x102000
                 .equ OBSERVED, 0x900
                 .org 0x1000
         start:  li   sp, 0x8000
                 la   t0, ktrap
                 csrw tvec, t0
                 li   t0, PT_ROOT
                 li   t1, PT_L2 + 1
                 sw   t1, 0(t0)
                 li   t0, PT_L2
                 li   t1, 0x0000000f
                 li   t2, 16
         lp:     sw   t1, 0(t0)
                 addi t0, t0, 4
                 li   t3, 0x1000
                 add  t1, t1, t3
                 addi t2, t2, -1
                 bnez t2, lp
                 li   t0, PT_L2 + 0x400
                 li   t1, PT_ROOT + 0xf
                 sw   t1, 0(t0)
                 li   t1, PT_L2 + 0xf
                 sw   t1, 4(t0)
                 li   t1, USERPG + 0x1f
                 sw   t1, 8(t0)
                 li   t0, PT_ROOT + 1
                 csrw ptbr, t0
                 tlbflush
                 ; user code: sw zero, 0(zero); spin
                 li   t0, USERPG
                 lui  t1, 0x6800          ; sw r0, 0(r0)
                 sw   t1, 0(t0)
                 csrw epc, t0
                 csrw status, 0           ; previous mode = user
                 tret
         ktrap:  csrr t0, cause
                 sw   t0, OBSERVED(zero)
         done:   j    done
         user_code:
        ",
    )
    .expect("protection guest assembles")
}

/// Fixed data addresses of the SMP demo guests, shared with the tooling
/// (`dbgctl diverge --race`) and the SMP tests.
pub mod smp_layout {
    /// The racy shared counter — deliberately equal to the default
    /// [`FaultPlan::race_addr`](hx_machine::Machine::enable_fault_injection)
    /// so `--fault racy-increment` clobbers the word the demo watches.
    pub const COUNTER: u32 = 0x900;
    /// Per-core private tallies: core `i` owns `TALLY + 4 * i` and nobody
    /// else writes it, so `sum(tallies)` is the increment count actually
    /// performed. The racy `COUNTER` can only fall *behind* that sum.
    pub const TALLY: u32 = 0x910;
    /// IPI ping log (`smp_ping_guest` only): delivered vectors, in order.
    pub const PING_COUNT: u32 = 0x920;
    /// Base of the delivered-vector log, one word per delivery.
    pub const PING_LOG: u32 = 0x930;
    /// `smp_trace_guest` only: IPIs acknowledged by core 1, bumped by its
    /// handler after it closes the cross-core tracepoint span.
    pub const TRACE_ACK: u32 = 0x940;
    /// Tracepoint id of the cross-core span `smp_trace_guest` measures
    /// (begun on core 0 at IPI send, ended on core 1 in the handler).
    pub const TRACE_SPAN_ID: u32 = 7;
    /// Tracepoint id of the instant mark core 1's handler emits.
    pub const TRACE_MARK_ID: u32 = 9;
}

/// A two-core IPI bring-up guest: core 0 publishes the secondary entry
/// point, fires IPI lines 3, 1, 2 at the still-parked core 1 (they latch
/// in its pending mask), then wakes it with a startup IPI. Core 1 logs
/// each delivered vector (in delivery order) at [`smp_layout::PING_LOG`]
/// and counts them at [`smp_layout::PING_COUNT`] — so a test can assert
/// that simultaneously pending lines drain lowest-first (vectors 49, 50,
/// 51) on every platform.
///
/// Symbols: `start`, `main`, `side`, `handler`.
pub fn smp_ping_guest() -> Program {
    use hx_machine::{map, smp};
    assemble(&format!(
        "        .org 0x1000
         start:  li   t0, {entry:#x}
                 la   t1, side
                 sw   t1, 0(t0)
                 li   t0, {send:#x}
                 li   t1, 0x301         ; line 3 -> core 1 (latches: parked)
                 sw   t1, 0(t0)
                 li   t1, 0x101         ; line 1 -> core 1
                 sw   t1, 0(t0)
                 li   t1, 0x201         ; line 2 -> core 1
                 sw   t1, 0(t0)
                 li   t1, 1             ; line 0: start core 1
                 sw   t1, 0(t0)
         main:   addi s0, s0, 1
                 j    main
         side:   la   t0, handler
                 csrw tvec, t0
                 csrw status, 1         ; IE
         spin:   addi s1, s1, 1
                 j    spin
         handler:
                 csrr t0, tval          ; delivered vector
                 lw   t1, {count:#x}(zero)
                 add  t2, t1, t1
                 add  t2, t2, t2        ; count * 4
                 li   t3, {log:#x}
                 add  t3, t3, t2
                 sw   t0, 0(t3)
                 addi t1, t1, 1
                 sw   t1, {count:#x}(zero)
                 tret
        ",
        entry = map::PIC_BASE + smp::reg::ENTRY,
        send = map::PIC_BASE + smp::reg::SEND,
        count = smp_layout::PING_COUNT,
        log = smp_layout::PING_LOG,
    ))
    .expect("smp ping guest assembles")
}

/// The guest-tracepoint SMP demo: core 0 opens tracepoint span
/// [`smp_layout::TRACE_SPAN_ID`] on the paravirtual `TRACE` page, fires an
/// IPI at core 1, and waits for the acknowledge count at
/// [`smp_layout::TRACE_ACK`] to advance before opening the next span. Core
/// 1's IPI handler emits instant mark [`smp_layout::TRACE_MARK_ID`],
/// *closes* the span — so every span begins on core 0 and ends on core 1,
/// and its duration is the guest-observed IPI round latency — and then
/// bumps the acknowledge count.
///
/// With causal tracing on, each iteration contributes one `ipi` flow
/// (monitor-observed send→delivery) and one cross-core `span` flow
/// (guest-observed send→handler); the gap between the two latencies is the
/// interrupt-entry cost the kernel actually paid. Without a tracker the
/// `TRACE` stores are plain journaled MMIO writes — the run is identical.
///
/// Needs at least 2 cores. Symbols: `start`, `main`, `wait`, `side`,
/// `handler`.
pub fn smp_trace_guest() -> Program {
    use hx_machine::{map, smp};
    assemble(&format!(
        "        .org 0x1000
         start:  li   t0, {entry:#x}
                 la   t1, side
                 sw   t1, 0(t0)
                 li   t3, {send:#x}
                 li   t1, 1             ; line 0: start core 1
                 sw   t1, 0(t3)
                 li   s0, {tbegin:#x}
                 li   s1, {span}
                 li   s3, 0             ; last-seen ack count
         main:   sw   s1, 0(s0)         ; begin span (core 0)
                 li   t1, 0x101         ; line 1 -> core 1
                 sw   t1, 0(t3)
         wait:   lw   t2, {ack:#x}(zero)
                 beq  t2, s3, wait      ; spin until core 1 acknowledges
                 add  s3, t2, zero
                 j    main
         side:   la   t0, handler
                 csrw tvec, t0
                 csrw status, 1         ; IE
         spin:   addi s2, s2, 1
                 j    spin
         handler:
                 li   t3, {tmark:#x}
                 li   t0, {mark}
                 sw   t0, 0(t3)         ; instant mark (core 1)
                 li   t3, {tend:#x}
                 li   t0, {span}
                 sw   t0, 0(t3)         ; end span (core 1)
                 lw   t1, {ack:#x}(zero)
                 addi t1, t1, 1
                 sw   t1, {ack:#x}(zero)
                 tret
        ",
        entry = map::PIC_BASE + smp::reg::ENTRY,
        send = map::PIC_BASE + smp::reg::SEND,
        tbegin = map::TRACE_BASE + map::trace::BEGIN,
        tend = map::TRACE_BASE + map::trace::END,
        tmark = map::TRACE_BASE + map::trace::INSTANT,
        span = smp_layout::TRACE_SPAN_ID,
        mark = smp_layout::TRACE_MARK_ID,
        ack = smp_layout::TRACE_ACK,
    ))
    .expect("smp trace guest assembles")
}

/// An all-cores bring-up guest for throughput ablations: core 0 publishes
/// the shared secondary entry point, sends a startup IPI to every other
/// core, and then every core — core 0 included — spins incrementing its
/// private tally at [`smp_layout::TALLY`]` + 4 * core_id`. Total retired
/// instructions across cores measure how simulation speed scales with the
/// core count (the benchmark's `smp_sim_speed` sweep).
///
/// Runs unchanged at any core count, including one (no secondaries to
/// wake, the bring-up loop falls straight through).
///
/// Symbols: `start`, `bring`, `work`, `tick`.
pub fn smp_spin_guest() -> Program {
    use hx_machine::{map, smp};
    assemble(&format!(
        "        .org 0x1000
         start:  li   t0, {entry:#x}
                 la   t1, work
                 sw   t1, 0(t0)
                 li   t0, {ncores:#x}
                 lw   t1, 0(t0)         ; t1 = core count
                 li   t2, 1
                 li   t3, {send:#x}
         bring:  blt  t2, t1, wake
                 j    work
         wake:   sw   t2, 0(t3)         ; line 0 -> core t2
                 addi t2, t2, 1
                 j    bring
         work:   li   t0, {coreid:#x}
                 lw   t1, 0(t0)
                 add  t1, t1, t1
                 add  t1, t1, t1        ; core_id * 4
                 li   t2, {tally:#x}
                 add  t2, t2, t1        ; this core's tally
         tick:   lw   t0, 0(t2)
                 addi t0, t0, 1
                 sw   t0, 0(t2)
                 j    tick
        ",
        entry = map::PIC_BASE + smp::reg::ENTRY,
        ncores = map::PIC_BASE + smp::reg::NUM_CORES,
        send = map::PIC_BASE + smp::reg::SEND,
        coreid = map::PIC_BASE + smp::reg::CORE_ID,
        tally = smp_layout::TALLY,
    ))
    .expect("smp spin guest assembles")
}

/// The cross-core race demo: every core increments the shared word at
/// [`smp_layout::COUNTER`] with an unsynchronized load/add/store, *and*
/// its own private tally at [`smp_layout::TALLY`]` + 4 * core_id`. Because
/// each core bumps the shared counter before its tally, the invariant
/// `counter >= sum(tallies)` holds on every correct interleaving — a lost
/// update (a quantum switch splitting the read-modify-write, or the
/// `racy-increment` fault class replaying a stale value) is the only thing
/// that can break it. `dbgctl diverge --race` seeks to the first cycle it
/// breaks.
///
/// On a single-core machine the guest skips the IPI bring-up (it reads
/// `NUM_CORES` first) and just counts — no race is possible, which is what
/// makes the 1-core run the control.
///
/// Symbols: `start`, `loop0`, `side`.
pub fn racy_counter_guest() -> Program {
    use hx_machine::{map, smp};
    assemble(&format!(
        "        .org 0x1000
         start:  li   t0, {ncores:#x}
                 lw   t1, 0(t0)
                 li   t2, 2
                 blt  t1, t2, loop0     ; single-core control run
                 li   t0, {entry:#x}
                 la   t1, side
                 sw   t1, 0(t0)
                 li   t0, {send:#x}
                 li   t1, 1             ; line 0: start core 1
                 sw   t1, 0(t0)
         loop0:  lw   t0, {counter:#x}(zero)
                 addi t0, t0, 1
                 sw   t0, {counter:#x}(zero)
                 lw   t1, {tally:#x}(zero)
                 addi t1, t1, 1
                 sw   t1, {tally:#x}(zero)
                 j    loop0
         side:   lw   t0, {counter:#x}(zero)
                 addi t0, t0, 1
                 sw   t0, {counter:#x}(zero)
                 lw   t1, {tally1:#x}(zero)
                 addi t1, t1, 1
                 sw   t1, {tally1:#x}(zero)
                 j    side
        ",
        ncores = map::PIC_BASE + smp::reg::NUM_CORES,
        entry = map::PIC_BASE + smp::reg::ENTRY,
        send = map::PIC_BASE + smp::reg::SEND,
        counter = smp_layout::COUNTER,
        tally = smp_layout::TALLY,
        tally1 = smp_layout::TALLY + 4,
    ))
    .expect("racy counter guest assembles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guests_assemble_with_symbols() {
        let c = counter_guest();
        assert!(c.symbols.get("bump").is_some());
        assert!(c.symbols.get("counter").is_some());
        let b = buggy_guest(100);
        assert!(b.symbols.get("rampage").is_some());
        let p = protection_guest();
        assert!(p.symbols.get("ktrap").is_some());
        let s = smp_ping_guest();
        assert!(s.symbols.get("side").is_some());
        assert!(s.symbols.get("handler").is_some());
        let r = racy_counter_guest();
        assert!(r.symbols.get("loop0").is_some());
        assert!(r.symbols.get("side").is_some());
        let w = smp_spin_guest();
        assert!(w.symbols.get("work").is_some());
        assert!(w.symbols.get("tick").is_some());
        let t = smp_trace_guest();
        assert!(t.symbols.get("main").is_some());
        assert!(t.symbols.get("handler").is_some());
    }

    #[test]
    fn trace_guest_emits_cross_core_spans() {
        use hx_machine::{Machine, MachineConfig, Platform, RawPlatform};
        let program = smp_trace_guest();
        let mut machine = Machine::new(MachineConfig {
            num_cores: 2,
            ..MachineConfig::default()
        });
        machine.load_program(&program);
        machine.obs.enable_tracing();
        machine.obs.enable_causal();
        let mut hw = RawPlatform::new(machine);
        hw.run_for(2_000_000);
        let m = hw.machine();
        let acks = m.mem.word(smp_layout::TRACE_ACK);
        assert!(acks > 2, "core 1 acknowledged IPIs (got {acks})");
        let c = m.obs.causal().unwrap();
        let spans: Vec<_> = c
            .flows()
            .iter()
            .filter(|f| f.class == hx_obs::FlowClass::Span)
            .collect();
        assert!(!spans.is_empty(), "guest spans completed");
        // Every span opens on core 0 (the sender) and closes on core 1
        // (the handler) — the whole point of the demo.
        assert!(spans
            .iter()
            .all(|f| f.key == smp_layout::TRACE_SPAN_ID && f.begin_core == 0 && f.end_core == 1));
        assert!(
            c.summary().instants >= acks as u64,
            "handler marks recorded"
        );
        // The guest-observed round trip can never beat the monitor-observed
        // IPI delivery it contains.
        let ipi = c.hist(hx_obs::FlowClass::Ipi);
        let span = c.hist(hx_obs::FlowClass::Span);
        assert!(ipi.count() > 0, "ipi flows tracked");
        assert!(span.p50() >= ipi.p50());
    }

    #[test]
    fn counter_guest_counts_on_raw_hardware() {
        use hx_machine::{Machine, MachineConfig, Platform, RawPlatform};
        let program = counter_guest();
        let mut machine = Machine::new(MachineConfig {
            ram_size: 1 << 20,
            ..MachineConfig::default()
        });
        machine.load_program(&program);
        let mut hw = RawPlatform::new(machine);
        hw.run_for(20_000);
        let counter = program.symbols.get("counter").unwrap();
        assert!(hw.machine().mem.word(counter) > 10);
    }

    #[test]
    fn buggy_guest_destroys_itself() {
        use hx_machine::{Machine, MachineConfig, Platform};
        let program = buggy_guest(10);
        let mut machine = Machine::new(MachineConfig {
            ram_size: 8 << 20,
            ..MachineConfig::default()
        });
        machine.load_program(&program);
        // Run under the lightweight monitor: the rampage must not escape
        // the guest, and the monitor must survive.
        let mut vmm = lvmm::LvmmPlatform::new(machine, 0x1000);
        vmm.run_for(5_000_000);
        // Guest memory is trashed (including where an embedded debugger
        // would keep its state)...
        assert_eq!(
            vmm.machine().mem.word(crate::embedded::STATE_BASE),
            0xdead_beef
        );
        // ...but the monitor noticed and parked the guest for debugging.
        assert!(vmm.guest_stopped(), "monitor catches the runaway guest");
    }
}
