//! The **lightweight virtual machine monitor** — the primary contribution of
//! *"OS Debugging Method Using a Lightweight Virtual Machine Monitor"*
//! (Takeuchi, DATE 2005), reproduced on the HX32 machine model.
//!
//! The monitor sits between the guest OS under debug and the hardware, and
//! does exactly — and *only* — what the paper's Fig. 2.1 shows:
//!
//! * **Remote debugging functions**: the `rdbg` debug stub living in
//!   monitor memory ([`LvmmPlatform`] is its monitor-resident
//!   `rdbg::stub::Target`, [`stub`] its watchpoints), speaking the `rdbg`
//!   protocol over the UART it owns.
//!   Because the stub and its state are unreachable by the guest, debugging
//!   keeps working no matter how badly the guest misbehaves.
//! * **Partial hardware emulation** ([`chipset`] and the trap-and-emulate
//!   core in [`virt`], shared with the hosted baseline): only the
//!   interrupt controller, the timer and the CPU resources (status word,
//!   trap vector, page tables) are virtualized. The guest kernel is
//!   **deprivileged to user mode** (ring compression); its privileged
//!   instructions trap and are emulated against a virtual CPU ([`vcpu`]).
//! * **Direct I/O access**: the SCSI-like disk controller and the NIC are
//!   passed straight through — the guest driver touches real (simulated)
//!   registers and devices DMA into guest memory with zero monitor
//!   involvement. This is where the paper's 5.4× advantage over a full
//!   hosted monitor comes from.
//! * **Three-level memory protection** ([`shadow`]): two shadow page tables
//!   per guest address space (kernel view / user view) built on two-level
//!   hardware. Monitor memory is never mapped; kernel pages are absent from
//!   the user view. A wild guest write cannot reach the monitor.
//!
//! The monitor itself executes as host-level Rust at the machine's trap
//! boundary, charging calibrated cycle costs ([`costs`]) for every exit —
//! see `DESIGN.md` §2 for why this substitution preserves the paper's
//! performance structure.
//!
//! # Example
//!
//! Boot a tiny guest under the monitor and observe that a privileged
//! instruction of the deprivileged kernel is emulated, not executed:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use hx_machine::{Machine, MachineConfig, Platform};
//! use lvmm::LvmmPlatform;
//!
//! let program = hx_asm::assemble(
//!     "        .org 0x1000
//!      start:  csrw  tvec, zero     ; privileged: traps into the monitor
//!              li    t0, 42
//!      halt:   j     halt
//!     ",
//! )?;
//! let mut machine = Machine::new(MachineConfig::default());
//! machine.load_program(&program);
//! let mut vmm = LvmmPlatform::new(machine, 0x1000);
//! vmm.run_for(20_000);
//! assert_eq!(vmm.machine().cpu.reg(hx_cpu::Reg::R10), 42);
//! assert!(vmm.monitor_stats().exits_privileged > 0);
//! # Ok(())
//! # }
//! ```

pub mod chipset;
pub mod costs;
pub mod platform;
pub mod replay;
pub mod shadow;
pub mod stub;
pub mod vcpu;
pub mod virt;

pub use platform::{LvmmConfig, LvmmPlatform, LvmmStats, UartLink};
pub use replay::{FlightRecorder, ReplayDriver};
pub use shadow::ShadowPager;
pub use stub::{Watchpoint, Watchpoints};
pub use vcpu::VCpu;

/// Compile-time proof the lightweight monitor (with its flight recorder,
/// shadow pager and stub) stays [`Send`] — the debug farm owns dozens of
/// these behind worker threads.
#[allow(dead_code)]
fn assert_send_types() {
    fn is_send<T: Send>() {}
    is_send::<LvmmPlatform>();
    is_send::<UartLink<LvmmPlatform>>();
}
