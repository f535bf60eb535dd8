//! End-to-end remote-debugging tests over the full stack: host `Debugger`
//! → wire protocol → simulated UART → monitor-resident stub → guest.

use lwvmm::debugger::{encode_packet, DbgError, Debugger, Link, StopReason};
use lwvmm::guest::{apps, kernel::layout, Workload};
use lwvmm::machine::{Machine, MachineConfig, Platform};
use lwvmm::monitor::{LvmmPlatform, UartLink};

type Dbg = Debugger<UartLink<LvmmPlatform>>;

fn counter_session() -> (Dbg, hx_asm::Program) {
    let program = apps::counter_guest();
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    machine.load_program(&program);
    let platform = LvmmPlatform::new(machine, program.base());
    (Debugger::new(UartLink::new(platform)), program)
}

#[test]
fn halt_inspect_resume() {
    let (mut dbg, program) = counter_session();
    dbg.link_mut().platform.run_for(50_000);
    let stop = dbg.halt().expect("halt");
    assert!(matches!(stop, StopReason::Halted { .. }));
    assert!(dbg.link_ref().platform.guest_stopped());

    let regs = dbg.read_registers().expect("regs");
    assert_eq!(regs.gprs[0], 0, "r0 reads zero");
    // s0 holds the counter address the guest loaded at boot.
    assert_eq!(regs.gpr(18), program.symbols.get("counter").unwrap());

    dbg.resume().expect("resume");
    assert!(!dbg.link_ref().platform.guest_stopped());
    // Guest keeps making progress.
    let counter = program.symbols.get("counter").unwrap();
    let before = dbg.link_ref().platform.machine().mem.word(counter);
    dbg.link_mut().platform.run_for(50_000);
    let after = dbg.link_ref().platform.machine().mem.word(counter);
    assert!(after > before);
}

#[test]
fn breakpoint_hits_exactly_at_symbol() {
    let (mut dbg, program) = counter_session();
    let bump = program.symbols.get("bump").unwrap();
    dbg.halt().unwrap();
    dbg.set_breakpoint(bump).unwrap();
    for _ in 0..3 {
        let stop = dbg.continue_until_stop().expect("hit");
        assert_eq!(stop, StopReason::Breakpoint { pc: bump });
    }
    // Memory reads show the original instruction: nothing is patched.
    let word = dbg.read_memory(bump, 4).unwrap();
    let instr = hx_cpu::Instr::decode(u32::from_le_bytes(word.try_into().unwrap())).unwrap();
    assert!(
        matches!(instr, hx_cpu::Instr::Load { .. }),
        "original instruction visible"
    );
    // Clearing restores the original word physically.
    dbg.clear_breakpoint(bump).unwrap();
    let raw = dbg.link_ref().platform.machine().mem.word(bump);
    assert!(matches!(
        hx_cpu::Instr::decode(raw),
        Ok(hx_cpu::Instr::Load { .. })
    ));
}

#[test]
fn single_step_walks_instructions() {
    let (mut dbg, program) = counter_session();
    let bump = program.symbols.get("bump").unwrap();
    dbg.halt().unwrap();
    dbg.set_breakpoint(bump).unwrap();
    dbg.continue_until_stop().unwrap();
    // Step through lw, addi, sw, ret — and land back in main_loop.
    let pcs: Vec<u32> = (0..4).map(|_| dbg.step().unwrap().pc()).collect();
    assert_eq!(pcs[0], bump + 4);
    assert_eq!(pcs[1], bump + 8);
    assert_eq!(pcs[2], bump + 12);
    // `ret` jumps back to the caller.
    let main_loop = program.symbols.get("main_loop").unwrap();
    assert_eq!(pcs[3], main_loop + 4);
}

#[test]
fn watchpoint_fires_on_guest_store() {
    let (mut dbg, program) = counter_session();
    let counter = program.symbols.get("counter").unwrap();
    dbg.halt().unwrap();
    dbg.set_watchpoint(counter, 4).unwrap();
    let stop = dbg.continue_until_stop().expect("watch");
    match stop {
        StopReason::Watchpoint { addr, pc } => {
            assert_eq!(addr, counter);
            // The faulting store is the `sw` in bump.
            assert_eq!(pc, program.symbols.get("bump").unwrap() + 8);
        }
        other => panic!("expected watchpoint, got {other:?}"),
    }
    dbg.clear_watchpoint(counter).unwrap();
    dbg.resume().unwrap();
    dbg.link_mut().platform.run_for(50_000);
    assert!(!dbg.link_ref().platform.guest_stopped());
}

/// An empty `Qb` condition clears the breakpoint's condition: after a
/// never-true condition kept the guest running through `bump`, the next
/// pass stops unconditionally.
#[test]
fn an_empty_condition_makes_a_breakpoint_unconditional() {
    let (mut dbg, program) = counter_session();
    let bump = program.symbols.get("bump").unwrap();
    dbg.halt().unwrap();
    dbg.set_breakpoint(bump).unwrap();
    dbg.set_break_condition(bump, "0").unwrap();
    dbg.resume().unwrap();
    dbg.link_mut().platform.run_for(50_000);
    assert!(
        !dbg.link_ref().platform.guest_stopped(),
        "condition holds off"
    );
    dbg.halt().unwrap();
    dbg.set_break_condition(bump, "")
        .expect("empty condition clears");
    let stop = dbg.continue_until_stop().expect("hit");
    assert_eq!(stop, StopReason::Breakpoint { pc: bump });
}

/// An empty `Qw` condition clears the watchpoint's condition the same way.
#[test]
fn an_empty_condition_makes_a_watchpoint_unconditional() {
    let (mut dbg, program) = counter_session();
    let counter = program.symbols.get("counter").unwrap();
    dbg.halt().unwrap();
    dbg.set_watchpoint(counter, 4).unwrap();
    dbg.set_watch_condition(counter, "0").unwrap();
    dbg.resume().unwrap();
    dbg.link_mut().platform.run_for(50_000);
    assert!(
        !dbg.link_ref().platform.guest_stopped(),
        "condition holds off"
    );
    dbg.halt().unwrap();
    dbg.set_watch_condition(counter, "")
        .expect("empty condition clears");
    match dbg.continue_until_stop().expect("hit") {
        StopReason::Watchpoint { addr, .. } => assert_eq!(addr, counter),
        other => panic!("expected watchpoint, got {other:?}"),
    }
}

#[test]
fn register_and_pc_writes() {
    let (mut dbg, _program) = counter_session();
    dbg.halt().unwrap();
    dbg.write_register(5, 0x1234_5678).unwrap();
    assert_eq!(dbg.read_registers().unwrap().gpr(5), 0x1234_5678);
    // Writing r0 is accepted and discarded.
    dbg.write_register(0, 0xffff_ffff).unwrap();
    assert_eq!(dbg.read_registers().unwrap().gpr(0), 0);
    // Bad register selector is a target error.
    assert_eq!(dbg.write_register(99, 1), Err(DbgError::Target(2)));
}

#[test]
fn memory_errors_are_reported() {
    let (mut dbg, _program) = counter_session();
    dbg.halt().unwrap();
    // Reads beyond guest RAM (into the monitor or off the end) fail.
    let monitor_base = dbg.link_ref().platform.monitor_base();
    assert_eq!(dbg.read_memory(monitor_base, 4), Err(DbgError::Target(3)));
    assert_eq!(dbg.read_memory(0xffff_f000, 4), Err(DbgError::Target(3)));
    assert_eq!(
        dbg.write_memory(monitor_base, &[0]),
        Err(DbgError::Target(3))
    );
}

#[test]
fn step_and_continue_require_stopped_guest() {
    let (mut dbg, _program) = counter_session();
    // Guest is running: flow-control commands are rejected, inspection
    // works live (the paper's monitoring-during-I/O requirement).
    assert!(dbg.read_registers().is_ok());
    assert!(matches!(
        dbg.resume(),
        Err(DbgError::Target(code)) if code == 4
    ));
}

/// `?` on a running guest is refused at once with `E04`, not left to time
/// out; once the guest is stopped it reports why.
#[test]
fn query_stop_on_a_running_guest_is_refused_at_once() {
    let (mut dbg, _program) = counter_session();
    let start = dbg.link_ref().platform.machine().now();
    assert_eq!(dbg.query_stop(), Err(DbgError::Target(4)));
    let spent = dbg.link_ref().platform.machine().now() - start;
    assert!(
        spent < 100_000,
        "answered within a few pumps, not {spent} cycles"
    );
    dbg.halt().unwrap();
    assert!(matches!(dbg.query_stop(), Ok(StopReason::Halted { .. })));
}

#[test]
fn debugging_while_streaming_at_full_rate() {
    // The paper's core scenario: debug commands served while the guest
    // drives high-throughput I/O.
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    let platform = LvmmPlatform::new(machine, layout::ENTRY);
    let mut dbg = Debugger::new(UartLink {
        platform,
        slice: 5_000,
    });

    dbg.link_mut().platform.run_for(2_000_000);
    let frames0 = dbg.link_ref().platform.machine().nic.counters().tx_frames;
    assert!(frames0 > 0, "stream running");

    // Live inspection without stopping.
    let regs = dbg.read_registers().expect("live regs");
    assert_ne!(regs.pc, 0);
    let stats_mem = dbg.read_memory(layout::STATS, 32).expect("live stats read");
    let frames_guest = u32::from_le_bytes(stats_mem[8..12].try_into().unwrap());
    assert!(frames_guest > 0);

    // The stream continued throughout.
    dbg.link_mut().platform.run_for(2_000_000);
    let frames1 = dbg.link_ref().platform.machine().nic.counters().tx_frames;
    assert!(frames1 > frames0, "stream must keep flowing while debugged");
    assert!(!dbg.link_ref().platform.guest_stopped());
}

#[test]
fn break_in_halts_streaming_guest_and_reset_restarts_it() {
    let mut machine = Machine::new(MachineConfig::default());
    let program = Workload::new(100).build(&machine).unwrap();
    machine.load_program(&program);
    let platform = LvmmPlatform::new(machine, layout::ENTRY);
    let mut dbg = Debugger::new(UartLink {
        platform,
        slice: 5_000,
    });

    dbg.link_mut().platform.run_for(2_000_000);
    let stop = dbg.halt().expect("break-in during streaming");
    assert!(matches!(stop, StopReason::Halted { .. }));
    let frames_at_halt = dbg.link_ref().platform.machine().nic.counters().tx_frames;

    // While stopped, the stream is frozen.
    dbg.link_mut().platform.run_for(1_000_000);
    let frames_later = dbg.link_ref().platform.machine().nic.counters().tx_frames;
    // In-flight frames may drain, but no new work is submitted.
    assert!(frames_later <= frames_at_halt + 130, "guest must be frozen");

    // Reset restarts the guest from its entry point.
    dbg.reset().expect("reset");
    let stop = dbg.query_stop().expect("stopped after reset");
    assert_eq!(stop.pc(), layout::ENTRY);
    dbg.resume().expect("resume after reset");
    dbg.link_mut().platform.run_for(4_000_000);
    let stats = lwvmm::guest::GuestStats::read(dbg.link_ref().platform.machine())
        .expect("guest re-booted after reset");
    assert!(stats.booted, "guest re-booted after reset");
    assert_eq!(stats.fault_cause, 0);
}

#[test]
fn stub_survives_protocol_garbage() {
    let (mut dbg, _program) = counter_session();
    // Inject garbage and malformed packets directly.
    dbg.link_mut()
        .platform
        .machine_mut()
        .uart_input(b"\xff\x00garbage$bad#zz$x#00");
    dbg.link_mut().platform.run_for(200_000);
    // The stub still answers properly afterwards.
    dbg.halt().expect("stub alive after garbage");
    assert!(dbg.read_registers().is_ok());
}

/// Boots `src` (entered at `start`) under the lightweight monitor with a
/// debugger attached.
fn asm_session(src: &str) -> (Dbg, hx_asm::Program) {
    let program = hx_asm::assemble(src).expect("guest assembles");
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    machine.load_program(&program);
    let entry = program.symbols.get("start").unwrap();
    let platform = LvmmPlatform::new(machine, entry);
    (Debugger::new(UartLink::new(platform)), program)
}

/// Breakpoints live in the monitor, not in guest RAM: a guest that loads
/// the code word under a breakpoint reads its own instruction.
#[test]
fn guest_reads_its_own_code_under_a_breakpoint() {
    let (mut dbg, program) = asm_session(
        "        .org 0x1000
         start:  la   t0, target
         loop:   lw   s1, 0(t0)
         target: addi s0, s0, 1
                 j    loop
        ",
    );
    let target = program.symbols.get("target").unwrap();
    let orig = dbg.link_ref().platform.machine().mem.word(target);
    dbg.link_mut().platform.run_for(20_000);
    dbg.halt().unwrap();
    dbg.set_breakpoint(target).unwrap();
    for _ in 0..3 {
        let stop = dbg.continue_until_stop().unwrap();
        assert_eq!(stop, StopReason::Breakpoint { pc: target });
        let loaded = dbg.read_registers().unwrap().gpr(19);
        assert_eq!(loaded, orig, "the guest's load saw {loaded:#010x}");
        assert_eq!(dbg.link_ref().platform.machine().mem.word(target), orig);
    }
}

/// A debugger write over a breakpoint lands in guest RAM and stays there:
/// `m` shows it and clearing the breakpoint does not undo it.
#[test]
fn memory_writes_over_a_breakpoint_are_kept() {
    let (mut dbg, program) = counter_session();
    let bump = program.symbols.get("bump").unwrap();
    dbg.halt().unwrap();
    dbg.set_breakpoint(bump).unwrap();
    // Any other valid instruction: the `addi` that follows the `lw`.
    let new = dbg.link_ref().platform.machine().mem.word(bump + 4);
    dbg.write_memory(bump, &new.to_le_bytes()).unwrap();
    let shown = dbg.read_memory(bump, 4).unwrap();
    assert_eq!(shown, new.to_le_bytes(), "`m` shows the debugger's word");
    dbg.clear_breakpoint(bump).unwrap();
    assert_eq!(dbg.link_ref().platform.machine().mem.word(bump), new);
}

/// A breakpoint on the guest's own `ebreak`: every `continue` from it
/// delivers that `ebreak` to the guest's trap handler exactly once, and
/// the next pass stops on the breakpoint again.
#[test]
fn breakpoint_on_a_guest_ebreak_delivers_the_trap() {
    let (mut dbg, program) = asm_session(
        "        .org 0x1000
         start:  csrw tvec, handler
         loop:   addi s1, s1, 1
         brk:    ebreak
                 j    loop
         handler:
                 addi s0, s0, 1
                 csrr t0, epc
                 addi t0, t0, 4
                 csrw epc, t0
                 tret
        ",
    );
    let brk = program.symbols.get("brk").unwrap();
    dbg.link_mut().platform.run_for(20_000);
    dbg.halt().unwrap();
    let handled = |dbg: &mut Dbg| dbg.read_registers().unwrap().gpr(18);
    assert!(handled(&mut dbg) > 0, "the guest handles its own ebreaks");
    dbg.set_breakpoint(brk).unwrap();
    let stop = dbg.continue_until_stop().unwrap();
    assert_eq!(stop, StopReason::Breakpoint { pc: brk });
    let first = handled(&mut dbg);
    for i in 1..=3 {
        let stop = dbg.continue_until_stop().unwrap();
        assert_eq!(stop, StopReason::Breakpoint { pc: brk });
        assert_eq!(handled(&mut dbg), first + i, "continue #{i}");
    }
}

/// Breakpoints are keyed by virtual address: when the guest remaps the
/// page under one, it fires through the new mapping, and neither frame's
/// bytes ever change.
#[test]
fn breakpoint_follows_a_guest_remap() {
    let (mut dbg, program) = asm_session(
        "        .equ PT_ROOT, 0x100000
                 .equ PT_L2,   0x101000
                 .equ WIN,     0x20000
                 .org 0x1000
         start:  csrw tvec, fault
                 li   t0, PT_ROOT
                 li   t1, PT_L2 + 1          ; V: L1[0] -> L2
                 sw   t1, 0(t0)
                 li   t0, PT_L2              ; identity-map 16 pages RWX
                 li   t1, 0x0000000f
                 li   t2, 16
         map:    sw   t1, 0(t0)
                 addi t0, t0, 4
                 li   t3, 0x1000
                 add  t1, t1, t3
                 addi t2, t2, -1
                 bnez t2, map
                 li   t0, PT_L2 + 0x400      ; the page tables themselves
                 li   t1, PT_ROOT + 0xf
                 sw   t1, 0(t0)
                 li   t1, PT_L2 + 0xf
                 sw   t1, 4(t0)
                 li   s2, PT_L2 + 0x80       ; the PTE of WIN
                 li   t1, frame_a + 0xf
                 sw   t1, 0(s2)
                 li   t0, PT_ROOT + 1
                 csrw ptbr, t0
                 tlbflush
         loop:   li   t1, frame_a + 0xf
                 sw   t1, 0(s2)
                 tlbflush
                 li   t0, WIN
                 jalr t0
                 li   t1, frame_b + 0xf
                 sw   t1, 0(s2)
                 tlbflush
                 li   t0, WIN
                 jalr t0
                 j    loop
         fault:  j    fault
                 .org 0x3000
         frame_a:
                 addi s0, s0, 1
                 ret
                 .org 0x4000
         frame_b:
                 addi s1, s1, 1
                 ret
        ",
    );
    let win = 0x20000;
    let frame = |name: &str| program.symbols.get(name).unwrap();
    let bytes = |dbg: &Dbg, at: u32| {
        dbg.link_ref().platform.machine().mem.as_bytes()[at as usize..at as usize + 8].to_vec()
    };
    let (orig_a, orig_b) = (bytes(&dbg, frame("frame_a")), bytes(&dbg, frame("frame_b")));
    dbg.link_mut().platform.run_for(100_000);
    dbg.halt().unwrap();
    dbg.set_breakpoint(win).unwrap();
    let mut hits = [0; 2];
    for _ in 0..4 {
        let stop = dbg.continue_until_stop().unwrap();
        assert_eq!(stop, StopReason::Breakpoint { pc: win });
        assert_eq!(bytes(&dbg, frame("frame_a")), orig_a);
        assert_eq!(bytes(&dbg, frame("frame_b")), orig_b);
        // Step the first instruction: which frame's counter moved?
        let before = dbg.read_registers().unwrap();
        dbg.step().unwrap();
        let after = dbg.read_registers().unwrap();
        hits[0] += after.gpr(18) - before.gpr(18);
        hits[1] += after.gpr(19) - before.gpr(19);
    }
    assert_eq!(hits, [2, 2], "stops alternate between the two frames");
    dbg.clear_breakpoint(win).unwrap();
    assert_eq!(bytes(&dbg, frame("frame_a")), orig_a);
    assert_eq!(bytes(&dbg, frame("frame_b")), orig_b);
}

/// The debugger's address view: under guest paging `m`/`M`/`Z0` go through
/// the guest's own page tables, ignore the leaf's permission bits, and
/// refuse with `E03` any address whose leaf or level-1 pointer lands in
/// monitor memory; with paging off `m` reads physical memory.
#[test]
fn debugger_sees_guest_virtual_memory_and_never_the_monitor() {
    let (mut dbg, program) = asm_session(
        "        .equ PT_ROOT, 0x100000
                 .equ PT_L2,   0x101000
                 .equ MON,     0x600000       ; monitor base of an 8 MiB machine
                 .org 0x1000
         start:  csrw tvec, fault
                 li   t0, PT_ROOT
                 li   t1, PT_L2 + 1          ; V: L1[0] -> L2
                 sw   t1, 0(t0)
                 li   t1, MON + 1            ; V: L1[1] -> a table in the monitor
                 sw   t1, 4(t0)
                 li   t0, PT_L2              ; identity-map 16 pages RWX
                 li   t1, 0x0000000f
                 li   t2, 16
         map:    sw   t1, 0(t0)
                 addi t0, t0, 4
                 li   t3, 0x1000
                 add  t1, t1, t3
                 addi t2, t2, -1
                 bnez t2, map
                 li   t0, PT_L2 + 0x400      ; the page tables themselves
                 li   t1, PT_ROOT + 0xf
                 sw   t1, 0(t0)
                 li   t1, PT_L2 + 0xf
                 sw   t1, 4(t0)
                 li   t0, PT_L2 + 0x84       ; 0x21000 -> secret, execute-only
                 li   t1, secret + 9         ; V|X
                 sw   t1, 0(t0)
                 li   t1, MON + 0xf          ; 0x22000 -> monitor memory
                 sw   t1, 4(t0)
                 li   t0, PT_ROOT + 1
                 csrw ptbr, t0
                 tlbflush
         loop:   addi s0, s0, 1
                 j    loop
         fault:  j    fault
                 .org 0x5000
         secret: .word 0xc0de600d
        ",
    );
    let (xo, leaf_in_monitor, l1_in_monitor) = (0x21000, 0x22000, 0x40_0000);
    dbg.link_mut().platform.run_for(100_000);
    dbg.halt().unwrap();
    let platform = &dbg.link_ref().platform;
    assert!(
        platform.vcpu().paging_enabled(),
        "the guest turned paging on"
    );
    assert_eq!(platform.monitor_base(), 0x60_0000);
    assert_eq!(program.symbols.get("secret"), Some(0x5000));
    assert_eq!(platform.machine().mem.word(xo), 0, "physically blank");
    assert_eq!(
        dbg.read_memory(xo, 4).unwrap(),
        0xc0de_600du32.to_le_bytes(),
        "an execute-only page reads through its mapping"
    );
    assert_eq!(dbg.read_memory(0x1000, 4).unwrap(), {
        let mem = &dbg.link_ref().platform.machine().mem;
        mem.word(0x1000).to_le_bytes()
    });
    let monitor =
        |dbg: &Dbg| dbg.link_ref().platform.machine().mem.as_bytes()[0x60_0000..].to_vec();
    let before = monitor(&dbg);
    for va in [leaf_in_monitor, l1_in_monitor] {
        assert_eq!(
            dbg.read_memory(va, 4),
            Err(DbgError::Target(3)),
            "m {va:#x}"
        );
        assert_eq!(
            dbg.write_memory(va, &[0xa5; 4]),
            Err(DbgError::Target(3)),
            "M {va:#x}"
        );
        assert_eq!(
            dbg.set_breakpoint(va),
            Err(DbgError::Target(3)),
            "Z0 {va:#x}"
        );
    }
    assert!(monitor(&dbg) == before, "monitor memory untouched");

    // Paging off: addresses are physical.
    let (mut dbg, program) = counter_session();
    dbg.link_mut().platform.run_for(20_000);
    dbg.halt().unwrap();
    assert!(!dbg.link_ref().platform.vcpu().paging_enabled());
    let counter = program.symbols.get("counter").unwrap();
    let word = dbg.link_ref().platform.machine().mem.word(counter);
    assert_ne!(word, 0, "the guest has counted");
    assert_eq!(dbg.read_memory(counter, 4).unwrap(), word.to_le_bytes());
}

/// The monitor completes an unwatched store that shares a watched page by
/// fetching it through the guest's tables, but only from guest RAM: a
/// guest that points its code page's PTE at monitor memory (no
/// `tlbflush`, so it keeps running the old page) gets an instruction page
/// fault, and the word planted at the monitor-side target is never decoded.
#[test]
fn watch_page_emulation_fetches_only_guest_ram() {
    const TARGET: u32 = 0x70_0000;
    let (mut dbg, program) = asm_session(&format!(
        "        .equ PT_ROOT, 0x100000
                 .equ PT_L2,   0x101000
                 .org 0x1000
         start:  csrw tvec, caught
                 li   t0, PT_ROOT
                 li   t1, PT_L2 + 1          ; V: L1[0] -> L2
                 sw   t1, 0(t0)
                 li   t0, PT_L2              ; identity-map 16 pages RWX
                 li   t1, 0x0000000f
                 li   t2, 16
         map:    sw   t1, 0(t0)
                 addi t0, t0, 4
                 li   t3, 0x1000
                 add  t1, t1, t3
                 addi t2, t2, -1
                 bnez t2, map
                 li   t0, PT_L2 + 0x400      ; the page tables themselves
                 li   t1, PT_ROOT + 0xf
                 sw   t1, 0(t0)
                 li   t1, PT_L2 + 0xf
                 sw   t1, 4(t0)
                 li   t0, PT_ROOT + 1
                 csrw ptbr, t0
                 tlbflush
                 la   s5, data
                 li   t1, 0x1234
         wait:   beqz s6, wait               ; until the debugger sets s6
                 li   t0, PT_L2 + 4          ; this code page's PTE
                 li   t2, {TARGET:#x} + 0xf
                 sw   t2, 0(t0)              ; retarget it; no tlbflush
         store:  sw   t1, 4(s5)              ; unwatched, on the watched page
                 li   s0, 1
         halt:   j    halt
         caught: csrr s3, cause
                 csrr s4, epc
         spin:   j    spin
                 .org 0x5000
         data:   .word 0, 0
        "
    ));
    let sym = |name: &str| program.symbols.get(name).unwrap();
    let planted = hx_asm::assemble("sw s5, 4(s5)").unwrap();
    let at = TARGET + (sym("store") & 0xfff);
    let mem = &mut dbg.link_mut().platform.machine_mut().mem;
    mem.write(at, planted.word_at(planted.base()), hx_cpu::MemSize::Word)
        .unwrap();
    dbg.link_mut().platform.run_for(50_000);
    dbg.halt().unwrap();
    dbg.set_watchpoint(sym("data"), 4).unwrap();
    dbg.write_register(24, 1).unwrap();
    dbg.resume().unwrap();
    dbg.link_mut().platform.run_for(100_000);
    let platform = &dbg.link_ref().platform;
    assert!(!platform.guest_stopped(), "no watch hit, no park");
    assert_eq!(platform.monitor_stats().emulated_stores, 1);
    assert_eq!(platform.machine().mem.word(sym("data") + 4), 0);
    let regs = dbg.read_registers().unwrap();
    assert_eq!(regs.gpr(18), 0, "the store must not retire");
    assert_eq!(regs.gpr(21), hx_cpu::Cause::InstrPageFault.code());
    assert_eq!(regs.gpr(22), sym("store"));
}

/// A hook on a misaligned address could never meet a fetch: `Z0` and `Ql`
/// refuse it as malformed, and guest RAM is untouched.
#[test]
fn misaligned_breakpoints_and_logpoints_are_refused() {
    let (mut dbg, program) = counter_session();
    let bump = program.symbols.get("bump").unwrap();
    let ram = |dbg: &Dbg| dbg.link_ref().platform.machine().mem.as_bytes().to_vec();
    dbg.halt().unwrap();
    let before = ram(&dbg);
    assert_eq!(dbg.set_breakpoint(bump + 2), Err(DbgError::Target(1)));
    assert_eq!(
        dbg.set_logpoint(bump + 2, "lp", ""),
        Err(DbgError::Target(1))
    );
    assert_eq!(ram(&dbg), before);
    dbg.set_breakpoint(bump).unwrap();
    dbg.set_logpoint(bump, "lp", "").unwrap();
    assert_eq!(ram(&dbg), before, "aligned hooks do not patch RAM either");
}

/// An `m` longer than one host chunk is refused from the wire, before the
/// stub sizes a buffer from it, and the stub keeps answering.
#[test]
fn oversized_memory_reads_are_refused() {
    let (mut dbg, _program) = counter_session();
    dbg.halt().unwrap();
    let link = dbg.link_mut();
    link.send(&encode_packet("m0,ffffffff"));
    let mut out = Vec::new();
    for _ in 0..100 {
        out.extend(link.pump());
    }
    link.send(b"+");
    let out = String::from_utf8_lossy(&out);
    assert!(out.contains("$E01#"), "reply: {out}");
    assert!(matches!(dbg.query_stop(), Ok(StopReason::Halted { .. })));
    assert_eq!(dbg.read_memory(0x1000, 300).unwrap().len(), 300);
}

/// Stepping off a breakpoint lasts until the instruction really retires:
/// a `lw` right after a `tlbflush` first takes a shadow fault, the monitor
/// fills the entry and retries it in place, and the retry must not stop
/// on the same breakpoint again.
#[test]
fn stepping_off_a_breakpoint_survives_a_shadow_fill() {
    let (mut dbg, program) = asm_session(
        "        .org 0x1000
         start:  la   t0, data
         loop:   tlbflush
         ld:     lw   s1, 0(t0)
                 addi s0, s0, 1
                 j    loop
                 .org 0x3000
         data:   .word 0x600d
        ",
    );
    let ld = program.symbols.get("ld").unwrap();
    dbg.link_mut().platform.run_for(20_000);
    dbg.halt().unwrap();
    dbg.set_breakpoint(ld).unwrap();
    let count = |dbg: &mut Dbg| dbg.read_registers().unwrap().gpr(18);
    assert_eq!(
        dbg.continue_until_stop().unwrap(),
        StopReason::Breakpoint { pc: ld }
    );
    for i in 0..3 {
        let before = count(&mut dbg);
        let stop = dbg.continue_until_stop().unwrap();
        assert_eq!(stop, StopReason::Breakpoint { pc: ld });
        assert_eq!(count(&mut dbg), before + 1, "continue #{i} made one pass");
    }
    let stop = dbg.step().unwrap();
    assert_eq!(stop, StopReason::Step { pc: ld + 4 });
    assert_eq!(dbg.read_registers().unwrap().gpr(19), 0x600d);
}
