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

/// Guest code page retargeted into monitor memory, without a `tlbflush`.
const STALE_TARGET: u32 = 0xf0_0000;

/// A guest that points its own code page's PTE at monitor memory without a
/// `tlbflush` keeps running the old page through the stale shadow entry;
/// then it reads an emulated device register.
fn stale_code_mapping_guest() -> hx_asm::Program {
    let src = format!(
        "        .equ PT_ROOT, 0x100000
                 .equ PT_L2,   0x101000
                 .org 0x1000
         start:  csrw tvec, caught
                 li   t0, PT_ROOT
                 li   t1, PT_L2 + 1
                 sw   t1, 0(t0)
                 li   t0, PT_L2            ; identity-map 16 pages RWX
                 li   t1, 0xf
                 li   t2, 16
         lp:     sw   t1, 0(t0)
                 addi t0, t0, 4
                 li   t3, 0x1000
                 add  t1, t1, t3
                 addi t2, t2, -1
                 bnez t2, lp
                 li   t0, PT_L2 + 0x400    ; the page tables themselves
                 li   t1, PT_ROOT + 0xf
                 sw   t1, 0(t0)
                 li   t1, PT_L2 + 0xf
                 sw   t1, 4(t0)
                 li   t0, PT_L2 + 0x80     ; VA 0x20000 -> the PIC, RW
                 li   t1, {pic:#x} + 7
                 sw   t1, 0(t0)
                 li   t0, PT_ROOT + 1
                 csrw ptbr, t0
                 tlbflush
                 li   t0, 0x20000
                 li   t1, PT_L2 + 4        ; this code page's PTE
                 li   t2, {target:#x} + 0xf
                 sw   t2, 0(t1)            ; retarget it; no tlbflush
         mmio:   lw   s1, 0(t0)            ; emulated: the monitor fetches it
                 li   s0, 1
         halt:   j    halt
         caught: csrr s3, cause
                 csrr s4, epc
         spin:   j    spin
        ",
        pic = lwvmm::machine::map::PIC_BASE,
        target = STALE_TARGET,
    );
    hx_asm::assemble(&src).unwrap()
}

/// The monitor fetches an instruction it emulates through the guest's
/// tables but only from guest RAM: a leaf aimed at monitor memory makes
/// that fetch fault like a fetch the guest's tables deny, and the word
/// planted there is never decoded.
fn stale_code_mapping_faults_the_fetch<P: Platform>(boot: impl FnOnce(Machine, u32) -> P) {
    let program = stale_code_mapping_guest();
    let mmio = program.symbols.get("mmio").unwrap();
    let planted = hx_asm::assemble("lw s5, 0(t0)").unwrap();
    let mut machine = machine_with(&program);
    let at = STALE_TARGET + (mmio & 0xfff);
    machine
        .mem
        .write(at, planted.word_at(planted.base()), hx_cpu::MemSize::Word)
        .unwrap();
    let mut vmm = boot(machine, program.symbols.get("start").unwrap());
    vmm.run_for(2_000_000);
    let reg = |r| vmm.machine().cpu.reg(r);
    assert_eq!(reg(hx_cpu::Reg::R18), 0, "the access must not retire");
    assert_eq!(reg(hx_cpu::Reg::R23), 0, "the planted lw never ran");
    assert_eq!(
        reg(hx_cpu::Reg::R21),
        hx_cpu::Cause::InstrPageFault.code(),
        "the guest sees an instruction page fault"
    );
    assert_eq!(reg(hx_cpu::Reg::R22), mmio, "at the emulated access");
}

#[test]
fn emulated_fetch_stays_in_guest_ram_lvmm() {
    stale_code_mapping_faults_the_fetch(|m, entry| {
        let vmm = LvmmPlatform::new(m, entry);
        assert!(STALE_TARGET >= vmm.monitor_base());
        vmm
    });
}

#[test]
fn emulated_fetch_stays_in_guest_ram_hosted() {
    // The hosted monitor's region starts at 12 MiB of this 16 MiB machine.
    stale_code_mapping_faults_the_fetch(HostedPlatform::new);
}
