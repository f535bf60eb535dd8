//! Three-level memory-protection tests (the paper's §2 mechanism): the
//! application, the guest OS, and the monitor are isolated from one another
//! even though the hardware has only two privilege levels.

use lwvmm::guest::apps;
use lwvmm::hosted::HostedPlatform;
use lwvmm::machine::{Machine, MachineConfig, Platform, RawPlatform};
use lwvmm::monitor::{LvmmConfig, LvmmPlatform};

fn machine_with(program: &hx_asm::Program) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        ram_size: 16 << 20,
        ..Default::default()
    });
    machine.load_program(program);
    machine
}

/// Address where the protection guest records the fault cause it observed.
const OBSERVED: u32 = 0x900;

#[test]
fn level1_app_cannot_touch_kernel_pages_lvmm() {
    let program = apps::protection_guest();
    let mut vmm = LvmmPlatform::new(machine_with(&program), program.base());
    vmm.run_for(3_000_000);
    // The user task's store to a kernel page page-faulted into the *guest*
    // kernel (not the monitor, not the host).
    assert_eq!(
        vmm.machine().mem.word(OBSERVED),
        hx_cpu::Cause::StorePageFault.code(),
        "guest kernel observed the app's fault"
    );
    assert_eq!(vmm.vcpu().vmode, hx_cpu::Mode::Supervisor);
}

#[test]
fn level1_app_cannot_touch_kernel_pages_raw() {
    // Two-level protection also works on bare hardware (the baseline the
    // paper starts from): same guest, same observed fault.
    let program = apps::protection_guest();
    let mut hw = RawPlatform::new(machine_with(&program));
    hw.run_for(3_000_000);
    assert_eq!(
        hw.machine().mem.word(OBSERVED),
        hx_cpu::Cause::StorePageFault.code()
    );
}

#[test]
fn level1_app_cannot_touch_kernel_pages_hosted() {
    let program = apps::protection_guest();
    let mut vmm = HostedPlatform::new(machine_with(&program), program.base());
    vmm.run_for(6_000_000);
    assert_eq!(
        vmm.machine().mem.word(OBSERVED),
        hx_cpu::Cause::StorePageFault.code()
    );
}

#[test]
fn level3_kernel_cannot_touch_monitor_memory() {
    // A guest kernel (virtual supervisor!) attacking the monitor region
    // directly: blocked, counted, and survivable.
    let src = "
        start:  csrw tvec, caught
                li   t0, 0xe80000      ; inside the monitor region (16MB-2MB+)
                li   t1, 0x41414141
                sw   t1, 0(t0)
                li   s0, 1             ; never reached
        halt:   j halt
        caught: csrr s1, cause
        spin:   j spin
    ";
    let program = hx_asm::assemble(src).unwrap();
    let mut vmm = LvmmPlatform::new(machine_with(&program), program.base());
    let probe = 0xe8_0000u32;
    assert!(probe >= vmm.monitor_base());
    vmm.run_for(1_000_000);
    assert_eq!(
        vmm.machine().cpu.reg(hx_cpu::Reg::R18),
        0,
        "store must not retire"
    );
    assert_eq!(
        vmm.machine().cpu.reg(hx_cpu::Reg::R19),
        hx_cpu::Cause::StorePageFault.code(),
        "guest sees an ordinary page fault"
    );
    assert!(vmm.monitor_stats().protection_violations >= 1);
    assert_ne!(vmm.machine().mem.word(probe), 0x4141_4141);
}

#[test]
fn level3_kernel_cannot_map_monitor_memory_via_page_tables() {
    // Subtler attack: the guest builds a page table whose leaf points into
    // the monitor region, then dereferences it. The shadow pager must
    // refuse to materialize the mapping.
    let src = "
        .equ PT_ROOT, 0x100000
        .equ PT_L2,   0x101000
        start:  csrw tvec, caught
                ; L1[0] -> L2
                li   t0, PT_ROOT
                li   t1, PT_L2 + 1
                sw   t1, 0(t0)
                ; identity map our code/data pages (16 pages, RWX)
                li   t0, PT_L2
                li   t1, 0xf
                li   t2, 16
        lp:     sw   t1, 0(t0)
                addi t0, t0, 4
                li   t3, 0x1000
                add  t1, t1, t3
                addi t2, t2, -1
                bnez t2, lp
                ; map the page-table pages themselves
                li   t0, PT_L2 + 0x400
                li   t1, PT_ROOT + 0xf
                sw   t1, 0(t0)
                li   t1, PT_L2 + 0xf
                sw   t1, 4(t0)
                ; VA 0x5000 -> monitor memory, guest-RWX
                li   t0, PT_L2 + 5*4
                li   t1, 0xe80000 + 0xf
                sw   t1, 0(t0)
                li   t0, PT_ROOT + 1
                csrw ptbr, t0
                tlbflush
                ; dereference the treacherous mapping
                li   t0, 0x5000
                li   t1, 0x42424242
                sw   t1, 0(t0)
                li   s0, 1             ; never reached
        halt:   j halt
        caught: csrr s1, cause
        spin:   j spin
    ";
    let program = hx_asm::assemble(src).unwrap();
    let mut vmm = LvmmPlatform::new(machine_with(&program), program.base());
    vmm.run_for(2_000_000);
    assert_eq!(
        vmm.machine().cpu.reg(hx_cpu::Reg::R18),
        0,
        "store must not retire"
    );
    assert_eq!(
        vmm.machine().cpu.reg(hx_cpu::Reg::R19),
        hx_cpu::Cause::StorePageFault.code()
    );
    assert!(vmm.monitor_stats().protection_violations >= 1);
    assert_ne!(vmm.machine().mem.word(0xe8_0000), 0x4242_4242);
}

#[test]
fn guest_page_tables_pointing_into_monitor_are_rejected() {
    // Even the page-table *pointers* are validated: a root or L1 entry in
    // monitor memory is a protection violation, not a monitor read.
    let src = "
        start:  csrw tvec, caught
                li   t0, 0xe80001      ; PTBR root inside the monitor + enable
                csrw ptbr, t0
                tlbflush
                lw   t1, 0(zero)       ; any access now walks the evil root
                li   s0, 1
        halt:   j halt
        caught: csrr s1, cause
        spin:   j spin
    ";
    let program = hx_asm::assemble(src).unwrap();
    let mut vmm = LvmmPlatform::new(machine_with(&program), program.base());
    vmm.run_for(1_000_000);
    assert_eq!(vmm.machine().cpu.reg(hx_cpu::Reg::R18), 0);
    assert!(vmm.monitor_stats().protection_violations >= 1);
}

#[test]
fn monitor_region_size_is_configurable() {
    let program = apps::counter_guest();
    let machine = machine_with(&program);
    let vmm = LvmmPlatform::with_config(
        machine,
        program.base(),
        LvmmConfig {
            monitor_mem: 4 << 20,
        },
    );
    assert_eq!(vmm.monitor_base(), (16 << 20) - (4 << 20));
}
