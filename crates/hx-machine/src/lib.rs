//! A PC/AT-like machine model around the HX32 CPU: physical memory, a system
//! bus, an interrupt controller, a timer, a UART, a multi-unit SCSI-like disk
//! controller and a gigabit-class NIC — everything the DATE 2005 paper's
//! target machine exposes to the OS under debug.
//!
//! The crate provides:
//!
//! * [`Machine`] — CPU + devices + deterministic event scheduler, stepped
//!   one instruction at a time. [`Machine::step`] surfaces interrupts and
//!   traps to the caller *without* delivering them, which is exactly the
//!   hook a virtual machine monitor needs (see [`MachineStep`]).
//! * [`Platform`] — the common driver interface implemented by the three
//!   evaluated systems (real hardware here as [`RawPlatform`]; the
//!   lightweight monitor in the `lvmm` crate; the hosted full monitor in
//!   `hosted-vmm`).
//! * [`TimeStats`] — cycle attribution (guest / monitor / host-model /
//!   idle), the quantity plotted in the paper's Fig. 3.1.
//!
//! # Example: boot a bare program on "real hardware"
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use hx_machine::{Machine, MachineConfig, Platform, RawPlatform};
//!
//! let program = hx_asm::assemble(
//!     "        li   t0, 5\n\
//!      loop:   addi t0, t0, -1\n\
//!              bnez t0, loop\n\
//!      halt:   wfi\n\
//!              j halt\n",
//! )?;
//! let mut machine = Machine::new(MachineConfig::default());
//! machine.load_program(&program);
//! let mut hw = RawPlatform::new(machine);
//! // The loop runs, then `wfi` parks the CPU; with no timer programmed the
//! // machine reports itself stuck and `run_for` returns early.
//! let ran = hw.run_for(2_000);
//! assert!(ran < 2_000);
//! assert!(hw.time_stats().guest > 0, "the countdown loop executed");
//! # Ok(())
//! # }
//! ```

pub mod disk;
pub mod engine;
pub mod event;
pub mod machine;
pub mod nic;
pub mod pic;
pub mod pit;
pub mod platform;
pub mod ram;
pub mod smp;
pub mod timing;
pub mod uart;

pub use engine::{ExitPolicy, ProgressGuard};
pub use event::{Event, EventQueue};
pub use machine::{Batch, Hook, Logpoint, Machine, MachineConfig, MachineStep};
pub use nic::{Nic, NicCounters};
pub use pic::Hpic;
pub use pit::Hpit;
pub use platform::{Platform, RawPlatform, TimeBucket, TimeStats};
pub use ram::Ram;
pub use uart::Huart;

/// Physical memory map of the machine.
///
/// RAM occupies `[0, ram_size)`; devices live in a fixed MMIO window far
/// above it. The layout is part of the platform contract — guest kernels
/// and monitors both hard-code it, as PC/AT software hard-codes the chipset.
pub mod map {
    /// Base of the memory-mapped I/O window.
    pub const MMIO_BASE: u32 = 0xf000_0000;
    /// Interrupt controller registers.
    pub const PIC_BASE: u32 = 0xf000_0000;
    /// Timer registers.
    pub const PIT_BASE: u32 = 0xf000_1000;
    /// UART (debug channel) registers.
    pub const UART_BASE: u32 = 0xf000_2000;
    /// Disk-controller registers (three units, 0x40 bytes apart).
    pub const HDC_BASE: u32 = 0xf000_3000;
    /// Network-controller registers.
    pub const NIC_BASE: u32 = 0xf000_4000;
    /// Paravirtual tracepoint page: write-only registers the guest kernel
    /// stores tracepoint ids to. Reads return 0. Stores are journaled like
    /// doorbells, so recordings replay byte-identically.
    pub const TRACE_BASE: u32 = 0xf000_5000;
    /// Size of each device's register page.
    pub const DEV_PAGE: u32 = 0x1000;

    /// The device owning the MMIO page that contains `gpa`, if any — the
    /// host profiler's attribution key for device-emulation time.
    pub fn dev_of(gpa: u32) -> Option<hx_obs::Dev> {
        match gpa & !(DEV_PAGE - 1) {
            PIC_BASE => Some(hx_obs::Dev::Pic),
            PIT_BASE => Some(hx_obs::Dev::Pit),
            UART_BASE => Some(hx_obs::Dev::Uart),
            HDC_BASE => Some(hx_obs::Dev::Hdc),
            NIC_BASE => Some(hx_obs::Dev::Nic),
            _ => None,
        }
    }

    /// Tracepoint-page register offsets (relative to [`TRACE_BASE`]).
    /// The stored word is the tracepoint id; the register selects the
    /// operation. `BEGIN`/`END` ids pair LIFO per core to form spans.
    pub mod trace {
        /// Open a tracepoint span with the stored id.
        pub const BEGIN: u32 = 0x0;
        /// Close the innermost open span with the stored id.
        pub const END: u32 = 0x4;
        /// A point event with the stored id (no pairing).
        pub const INSTANT: u32 = 0x8;
    }

    /// Interrupt request lines.
    pub mod irq {
        /// Timer tick.
        pub const PIT: u8 = 0;
        /// UART receive.
        pub const UART: u8 = 1;
        /// Disk unit 0 completion.
        pub const HDC0: u8 = 2;
        /// Disk unit 1 completion.
        pub const HDC1: u8 = 3;
        /// Disk unit 2 completion.
        pub const HDC2: u8 = 4;
        /// NIC transmit completion.
        pub const NIC_TX: u8 = 5;
        /// NIC receive.
        pub const NIC_RX: u8 = 6;
    }
}

/// Compile-time proof that the machine and platform types stay [`Send`]:
/// the debug farm moves whole machines across worker threads, so a
/// non-`Send` field sneaking in (an `Rc`, a raw pointer) must fail the
/// build here rather than at a distant farm call site.
#[allow(dead_code)]
fn assert_send_types() {
    fn is_send<T: Send>() {}
    is_send::<Machine>();
    is_send::<RawPlatform>();
    is_send::<Box<dyn Platform>>();
}
