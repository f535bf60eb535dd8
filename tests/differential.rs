//! Differential testing: the lightweight monitor must be **transparent**.
//!
//! For randomly generated guest programs, the architectural state a guest
//! computes under the monitor (deprivileged, shadow-paged, trap-emulated)
//! must equal the state it computes on raw hardware. This is the deepest
//! correctness property of the reproduction — the paper's monitor promises
//! to run "any OSs running on PC/AT architectures" unmodified.

use hx_cpu::isa::{AluOp, BranchCond, Instr, LoadKind, Reg, StoreKind};
use lwvmm::hosted::HostedPlatform;
use lwvmm::machine::{Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::LvmmPlatform;
use proptest::prelude::*;

/// Sandbox data region the generated programs may address.
const DATA_BASE: u32 = 0x8000;
const CODE_BASE: u32 = 0x1000;

/// A safely executable random instruction: ALU ops, sandboxed memory
/// accesses, and strictly forward branches (no loops, no privileged ops).
fn arb_safe_instr() -> impl Strategy<Value = Instr> {
    let reg = || (1u8..16).prop_map(|n| Reg::new(n).unwrap());
    prop_oneof![
        4 => (proptest::sample::select(&AluOp::ALL[..]), reg(), reg(), reg())
            .prop_map(|(op, rd, rs1, rs2)| Instr::Alu { op, rd, rs1, rs2 }),
        4 => (reg(), reg(), any::<i16>()).prop_map(|(rd, rs1, imm)| Instr::Addi { rd, rs1, imm }),
        2 => (reg(), any::<u16>()).prop_map(|(rd, imm)| Instr::Lui { rd, imm }),
        2 => (reg(), reg(), 0u8..32).prop_map(|(rd, rs1, shamt)| Instr::Srli { rd, rs1, shamt }),
        // Loads/stores: base register is r20 (pinned to DATA_BASE by the
        // prologue), offsets word-aligned within the sandbox.
        2 => (reg(), (0i16..1024).prop_map(|o| o * 4 % 4096)).prop_map(|(rd, offset)| {
            Instr::Load { kind: LoadKind::W, rd, rs1: Reg::R20, offset }
        }),
        2 => (reg(), (0i16..1024).prop_map(|o| o * 4 % 4096)).prop_map(|(rs2, offset)| {
            Instr::Store { kind: StoreKind::W, rs1: Reg::R20, rs2, offset }
        }),
        // Forward-only short branches: always make progress.
        1 => (
            prop_oneof![Just(BranchCond::Eq), Just(BranchCond::Ne), Just(BranchCond::Ltu)],
            reg(),
            reg(),
            (1i16..4)
        )
            .prop_map(|(cond, rs1, rs2, skip)| Instr::Branch {
                cond,
                rs1,
                rs2,
                offset: (skip + 1) * 4,
            }),
    ]
}

/// Builds the test image: pin r20 to the sandbox, seed some registers,
/// run the random body, then `ebreak`.
fn build_image(body: &[Instr]) -> Vec<u32> {
    let mut words = Vec::new();
    words.push(
        Instr::Lui {
            rd: Reg::R20,
            imm: 0,
        }
        .encode(),
    );
    words.push(
        Instr::Ori {
            rd: Reg::R20,
            rs1: Reg::R20,
            imm: DATA_BASE as i16,
        }
        .encode(),
    );
    for i in 1..16u8 {
        words.push(
            Instr::Addi {
                rd: Reg::new(i).unwrap(),
                rs1: Reg::R0,
                imm: (i as i16) * 257 - 2048,
            }
            .encode(),
        );
    }
    words.extend(body.iter().map(|i| i.encode()));
    // Terminator, padded so a trailing forward branch (max skip 3) still
    // lands on an ebreak.
    for _ in 0..5 {
        words.push(
            Instr::Sys {
                op: hx_cpu::isa::SysOp::Ebreak,
            }
            .encode(),
        );
    }
    words
}

fn load_machine(words: &[u32]) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    for (i, w) in words.iter().enumerate() {
        machine
            .mem
            .write(CODE_BASE + (i as u32) * 4, *w, hx_cpu::MemSize::Word)
            .unwrap();
    }
    // Seed the sandbox with a recognizable pattern so loads see data.
    for i in 0..1024u32 {
        machine
            .mem
            .write(
                DATA_BASE + i * 4,
                i.wrapping_mul(0x9e37_79b9),
                hx_cpu::MemSize::Word,
            )
            .unwrap();
    }
    machine.cpu.set_pc(CODE_BASE);
    machine
}

/// Final architectural state: registers + PC + the data sandbox.
fn snapshot(machine: &Machine) -> (Vec<u32>, u32, Vec<u8>) {
    (
        machine.cpu.regs().to_vec(),
        machine.cpu.pc(),
        machine.mem.as_bytes()[DATA_BASE as usize..(DATA_BASE + 4096) as usize].to_vec(),
    )
}

/// Runs on raw hardware until the terminating `ebreak` trap. The stop PC
/// is taken from the EPC csr (architectural delivery moved the live PC to
/// the trap vector).
fn run_raw(words: &[u32]) -> (Vec<u32>, u32, Vec<u8>) {
    let mut hw = RawPlatform::new(load_machine(words));
    for _ in 0..1_000_000 {
        hw.step();
        if hw.machine().cpu.read_csr(hx_cpu::Csr::Cause) == hx_cpu::Cause::Breakpoint.code() {
            let (regs, _, mem) = snapshot(hw.machine());
            return (regs, hw.machine().cpu.read_csr(hx_cpu::Csr::Epc), mem);
        }
    }
    panic!("raw run did not terminate");
}

/// Runs under a monitor until the guest's unhandled `ebreak` parks it.
fn run_lvmm(words: &[u32]) -> (Vec<u32>, u32, Vec<u8>) {
    let mut vmm = LvmmPlatform::new(load_machine(words), CODE_BASE);
    for _ in 0..1_000_000 {
        vmm.step();
        if vmm.guest_stopped() {
            return snapshot(vmm.machine());
        }
    }
    panic!("lvmm run did not terminate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Register file and data memory after a random program are identical
    /// on raw hardware and under the lightweight monitor.
    #[test]
    fn lvmm_is_transparent(body in proptest::collection::vec(arb_safe_instr(), 1..60)) {
        let words = build_image(&body);
        let (raw_regs, raw_pc, raw_mem) = run_raw(&words);
        let (lv_regs, lv_pc, lv_mem) = run_lvmm(&words);
        // The stop PC is the ebreak address in both worlds.
        prop_assert_eq!(raw_pc, lv_pc);
        prop_assert_eq!(raw_regs, lv_regs);
        prop_assert_eq!(raw_mem, lv_mem);
    }
}

/// The predecoded-instruction cache must be *simulation-invisible*: a full
/// streaming run with the cache on and off produces identical machine
/// state, guest statistics, exit histograms and trace spans on every
/// platform. Only host-side speed may differ.
#[test]
fn decode_cache_is_simulation_invisible_on_every_platform() {
    use lwvmm::guest::{kernel::layout, GuestStats, Workload};
    use lwvmm::obs::journal::{fnv1a, FNV_OFFSET};

    fn boot_workload() -> Machine {
        let mut machine = Machine::new(MachineConfig::default());
        let program = Workload::new(80).build(&machine).unwrap();
        machine.load_program(&program);
        machine
    }

    #[allow(clippy::type_complexity)]
    fn run(
        mut platform: Box<dyn Platform>,
        cache: bool,
    ) -> (
        u64,
        u64,
        u32,
        Vec<u32>,
        u64,
        GuestStats,
        Vec<lwvmm::obs::Span>,
        Vec<u64>,
    ) {
        platform.machine_mut().cpu.set_decode_cache(cache);
        platform.machine_mut().obs.enable_tracing();
        platform.run_for(MachineConfig::default().clock_hz / 50);
        let m = platform.machine();
        let decode = m.cpu.decode_stats();
        if cache {
            assert!(decode.hits > 0, "cache on but never hit");
        } else {
            assert_eq!(decode.hits, 0, "cache off but hit");
            assert_eq!(decode.fast_fetches, 0, "cache off but fast-fetched");
        }
        (
            m.now(),
            m.cpu.cycles(),
            m.cpu.pc(),
            m.cpu.regs().to_vec(),
            fnv1a(FNV_OFFSET, m.mem.as_bytes()),
            GuestStats::read(m).expect("guest stats"),
            m.obs.spans.spans().to_vec(),
            m.obs.exits.counts().to_vec(),
        )
    }

    let platforms: [fn() -> Box<dyn Platform>; 3] = [
        || Box::new(RawPlatform::new(boot_workload())),
        || Box::new(LvmmPlatform::new(boot_workload(), layout::ENTRY)),
        || Box::new(HostedPlatform::new(boot_workload(), layout::ENTRY)),
    ];
    for make in platforms {
        let on = run(make(), true);
        let off = run(make(), false);
        assert_eq!(on, off);
    }
}

#[test]
fn hosted_monitor_is_transparent_on_a_fixed_program() {
    // The hosted monitor shares the CPU-virtualization machinery; one
    // deterministic spot check keeps it honest too.
    let body: Vec<Instr> = (0..40)
        .map(|i| {
            if i % 3 == 0 {
                Instr::Addi {
                    rd: Reg::R5,
                    rs1: Reg::R5,
                    imm: 7,
                }
            } else if i % 3 == 1 {
                Instr::Store {
                    kind: StoreKind::W,
                    rs1: Reg::R20,
                    rs2: Reg::R5,
                    offset: (i * 4) as i16,
                }
            } else {
                Instr::Alu {
                    op: AluOp::Xor,
                    rd: Reg::R6,
                    rs1: Reg::R6,
                    rs2: Reg::R5,
                }
            }
        })
        .collect();
    let words = build_image(&body);
    let raw = run_raw(&words);

    let mut ho = HostedPlatform::new(load_machine(&words), CODE_BASE);
    for _ in 0..1_000_000 {
        ho.step();
        // The hosted monitor reflects the unhandled breakpoint into the
        // guest (tvec = 0): the guest parks at PC 0 with CAUSE set in the
        // virtual CPU.
        if ho.vcpu().cause == hx_cpu::Cause::Breakpoint.code() {
            break;
        }
    }
    assert_eq!(ho.vcpu().cause, hx_cpu::Cause::Breakpoint.code());
    // EPC points at the ebreak, like the raw CAUSE/EPC pair.
    assert_eq!(ho.vcpu().epc, raw.1);
    assert_eq!(ho.machine().cpu.regs().to_vec(), raw.0);
    let mem = ho.machine().mem.as_bytes()[DATA_BASE as usize..(DATA_BASE + 4096) as usize].to_vec();
    assert_eq!(mem, raw.2);
}

/// Boots `src` (assembled, entry `start`) on `kind` with 8 MiB of RAM.
fn boot_asm(kind: &str, src: &str) -> Box<dyn Platform> {
    let program = lwvmm::asm::assemble(src).expect("guest assembles");
    let entry = program.symbols.get("start").unwrap();
    let mut machine = Machine::new(MachineConfig {
        ram_size: 8 << 20,
        ..Default::default()
    });
    machine.load_program(&program);
    match kind {
        "raw" => {
            let mut raw = RawPlatform::new(machine);
            raw.machine_mut().cpu.set_pc(entry);
            Box::new(raw)
        }
        "lvmm" => Box::new(LvmmPlatform::new(machine, entry)),
        _ => Box::new(HostedPlatform::new(machine, entry)),
    }
}

/// The `n` words a guest logged at `base`, `n` read from `count`.
fn guest_log(p: &dyn Platform, count: u32, base: u32, words_per_entry: u32) -> Vec<u32> {
    let n = p.machine().mem.word(count) * words_per_entry;
    (0..n).map(|i| p.machine().mem.word(base + 4 * i)).collect()
}

/// A guest single-stepping its own code with the (virtual) `STATUS.TF`
/// takes the same step traps at the same EPCs under both monitors as on
/// raw hardware — including the trailing step after the privileged
/// instruction that clears the flag, which the monitor completes itself.
#[test]
fn guest_single_step_traps_match_raw_hardware() {
    let src = "
                .org 0x1000
        start:  csrw tvec, h
                csrs status, 8       ; TF: trap after every instruction
                addi s0, s0, 1
                addi s0, s0, 1
                addi s0, s0, 1
                addi s0, s0, 1
                csrc status, 8       ; stepped too: it began with TF set
                li   s1, 1
        halt:   j halt
        h:      lw   a0, 0x900(zero) ; log the step trap's EPC
                slli a1, a0, 2
                csrr a2, epc
                sw   a2, 0xa00(a1)
                addi a0, a0, 1
                sw   a0, 0x900(zero)
                tret
    ";
    let run = |kind: &str| {
        let mut p = boot_asm(kind, src);
        p.run_for(500_000);
        let cpu = &p.machine().cpu;
        assert_eq!(
            (cpu.reg(Reg::R18), cpu.reg(Reg::R19)),
            (4, 1),
            "{kind}: guest ran to completion"
        );
        guest_log(p.as_ref(), 0x900, 0xa00, 1)
    };
    let raw = run("raw");
    // Four `addi`s plus the three instructions `csrc status, 8` expands to.
    assert_eq!(raw.len(), 7, "raw step EPCs: {raw:x?}");
    assert_eq!(run("lvmm"), raw, "lvmm step EPCs");
    assert_eq!(run("hosted"), raw, "hosted step EPCs");
}

/// A fixed mix of traps under both monitors: the guest sees the same
/// machine (same registers, same trap log) and the monitors take the same
/// exits, except for the deliberate differences, which are named here:
///
/// * the guest's own `ebreak` is a `debug` exit under lvmm (its stub checks
///   for a planted breakpoint first) but an `irq-inject` exit under the
///   hosted monitor, which has no stub;
/// * on a shadow-fill livelock lvmm parks the guest for the debugger while
///   the hosted monitor reflects the fault to the guest's handler.
///
/// (The fault park on an unhandled trap is pinned by `lvmm_is_transparent`
/// and `hosted_monitor_is_transparent_on_a_fixed_program`.)
#[test]
fn monitors_differ_only_in_named_ways_on_a_trap_mix() {
    use lwvmm::monitor::virt::VirtPolicy;
    use lwvmm::obs::ExitCause;
    let src = format!(
        "        .org 0x1000
         start:  csrw tvec, h
                 li   s0, {pic:#x}
                 ecall                   ; reflected system call
                 csrw cycle, t0          ; read-only CSR: illegal
                 lw   t1, 2(zero)        ; misaligned load
                 ebreak                  ; the guest's own breakpoint
                 li   t1, 0x5a
                 sw   t1, {imr}(s0)      ; emulated device register
                 lw   t2, {imr}(s0)
                 sb   t1, {imr}(s0)      ; sub-word device access
                 lw   t3, {core_id}(s0)  ; IPI block
                 li   t4, 0x7ffffc
                 lw   t5, 0(t4)          ; monitor memory: blocked
                 li   t4, 0xe0000000
                 lw   t5, 0(t4)          ; nothing there
                 csrw scratch, t1
                 csrr t6, scratch
                 tlbflush
                 li   s1, 1
         halt:   j halt
         h:      lw   a0, 0x900(zero)    ; log (cause, epc), skip the instruction
                 slli a1, a0, 3
                 csrr a2, cause
                 sw   a2, 0xa00(a1)
                 csrr a2, epc
                 sw   a2, 0xa04(a1)
                 addi a0, a0, 1
                 sw   a0, 0x900(zero)
                 addi a2, a2, 4
                 csrw epc, a2
                 tret
        ",
        pic = lwvmm::machine::map::PIC_BASE,
        imr = lwvmm::machine::pic::reg::IMR,
        core_id = lwvmm::machine::smp::reg::CORE_ID,
    );
    let run = |kind: &str| {
        let mut p = boot_asm(kind, &src);
        p.run_for(1_000_000);
        let m = p.machine();
        assert_eq!(m.cpu.reg(Reg::R19), 1, "{kind}: guest ran to completion");
        (
            m.cpu.regs().to_vec(),
            guest_log(p.as_ref(), 0x900, 0xa00, 2),
            m.obs.exits.counts().to_vec(),
        )
    };
    let (lv_regs, lv_log, lv_exits) = run("lvmm");
    let (ho_regs, ho_log, ho_exits) = run("hosted");
    assert_eq!(lv_regs, ho_regs, "guest registers");
    assert_eq!(lv_log, ho_log, "guest trap log (cause, epc)");
    assert_eq!(lv_log.len(), 2 * 7, "seven reflected traps: {lv_log:x?}");
    let (debug, inject) = (ExitCause::Debug.index(), ExitCause::IrqInject.index());
    assert_eq!((lv_exits[debug], ho_exits[debug]), (1, 0), "ebreak exit");
    assert_eq!(ho_exits[inject], lv_exits[inject] + 1, "ebreak exit");
    for cause in ExitCause::ALL {
        if cause != ExitCause::Debug && cause != ExitCause::IrqInject {
            let i = cause.index();
            assert_eq!(lv_exits[i], ho_exits[i], "{} exits", cause.label());
        }
    }

    // Shadow-fill livelock: the same fill fault keeps coming back.
    let fault = hx_cpu::Trap::new(hx_cpu::Cause::LoadPageFault, 0x1000, 0x8000);
    let mut lv = LvmmPlatform::new(load_machine(&[0]), CODE_BASE);
    let mut ho = HostedPlatform::new(load_machine(&[0]), CODE_BASE);
    for _ in 0..10 {
        lv.dispatch_trap(fault);
        ho.dispatch_trap(fault);
    }
    assert!(lv.guest_stopped(), "lvmm parks on a livelock");
    assert_eq!(lv.monitor_stats().faults_injected, 0);
    assert_eq!(ho.hosted_stats().faults_injected, 1, "hosted reflects it");
    assert_eq!(ho.vcpu().cause, hx_cpu::Cause::LoadPageFault.code());
}
