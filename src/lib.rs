//! **lwvmm** — OS debugging with a lightweight virtual machine monitor.
//!
//! This is the umbrella crate of the reproduction of *"OS Debugging Method
//! Using a Lightweight Virtual Machine Monitor"* (Tadashi Takeuchi, DATE
//! 2005). It re-exports every component so examples, integration tests and
//! downstream users can depend on one crate:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`cpu`] | `hx-cpu` | HX32 CPU: two privilege modes, paged MMU, precise traps |
//! | [`asm`] | `hx-asm` | assembler / disassembler for HX32 |
//! | [`machine`] | `hx-machine` | bus, RAM, PIC, PIT, UART, SCSI-like disks, gigabit NIC |
//! | [`monitor`] | `lvmm` | **the paper's contribution**: the lightweight monitor |
//! | [`hosted`] | `hosted-vmm` | VMware-Workstation-style hosted full monitor (baseline) |
//! | [`guest`] | `hitactix` | HiTactix-like guest RTOS + streaming workload |
//! | [`debugger`] | `rdbg` | wire protocol + host-side remote debugger |
//!
//! # Quick start
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use lwvmm::guest::Workload;
//! use lwvmm::machine::{Machine, MachineConfig, Platform};
//! use lwvmm::monitor::LvmmPlatform;
//!
//! // Boot the streaming guest under the lightweight monitor.
//! let mut machine = Machine::new(MachineConfig::default());
//! let program = Workload::new(100).build(&machine)?;
//! machine.load_program(&program);
//! let mut vmm = LvmmPlatform::new(machine, lwvmm::guest::kernel::layout::ENTRY);
//!
//! // Run 100 simulated milliseconds.
//! vmm.run_for(machine_clock(&vmm) / 10);
//! let stats = lwvmm::guest::GuestStats::read(vmm.machine())?;
//! assert!(stats.frames > 0);
//! # fn machine_clock(p: &impl Platform) -> u64 { p.machine().config().clock_hz }
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` / `EXPERIMENTS.md`
//! for the system inventory and the paper-vs-measured record.

/// The HX32 processor model (re-export of `hx-cpu`).
pub use hx_cpu as cpu;

/// Assembler and disassembler (re-export of `hx-asm`).
pub use hx_asm as asm;

/// The machine model: devices, bus, platforms (re-export of `hx-machine`).
pub use hx_machine as machine;

/// The lightweight virtual machine monitor (re-export of `lvmm`).
pub use lvmm as monitor;

/// The hosted full-VMM baseline (re-export of `hosted-vmm`).
pub use hosted_vmm as hosted;

/// The guest RTOS and workloads (re-export of `hitactix`).
pub use hitactix as guest;

/// The remote-debugging protocol and host client (re-export of `rdbg`).
pub use rdbg as debugger;

/// Cycle-attributed tracing and metrics (`hx-obs`).
pub use hx_obs as obs;

/// Deterministic fault injection: guest fault campaigns and lossy-link
/// mangling (`hx-fault`).
pub use hx_fault as fault;

/// Trace queries, condition expressions and JSON-line output (`hx-query`).
pub use hx_query as query;

/// Debug farm: one host process serving N concurrent guests over per-guest
/// debug sockets plus a fleet control endpoint.
pub use hx_farm as farm;

/// The shared flag parser and strict number/address grammars every
/// `lwvmm-*` binary parses its command line through.
pub mod cli;
