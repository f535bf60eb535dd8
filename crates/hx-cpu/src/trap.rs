//! Trap causes and the trap descriptor exchanged between the CPU and the
//! platform.
//!
//! HX32 traps are **precise**: when [`crate::Cpu::step`] reports a trap, no
//! architectural state of the faulting instruction has been committed (except
//! for [`Cause::DebugStep`], which by definition fires *after* an instruction
//! completes). The CPU does **not** vector automatically — the platform
//! decides whether to deliver the trap architecturally
//! ([`crate::Cpu::take_trap`], what real hardware does) or to hand it to a
//! virtual machine monitor first. That decision point is exactly where the
//! paper's lightweight monitor sits.

use core::fmt;

/// Architectural trap causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// External interrupt; `tval` carries the vector supplied by the
    /// interrupt controller.
    Interrupt,
    /// Instruction fetch from a non-word-aligned PC.
    InstrAddrMisaligned,
    /// Instruction fetch hit an unmapped/refused physical address.
    InstrAccessFault,
    /// Undefined instruction word; `tval` carries the word.
    IllegalInstruction,
    /// `ebreak` executed.
    Breakpoint,
    /// Load from a misaligned address.
    LoadAddrMisaligned,
    /// Load hit an unmapped/refused physical address.
    LoadAccessFault,
    /// Store to a misaligned address.
    StoreAddrMisaligned,
    /// Store hit an unmapped/refused physical address.
    StoreAccessFault,
    /// `ecall` from user mode.
    EcallU,
    /// `ecall` from supervisor mode.
    EcallS,
    /// Instruction fetch failed translation; `tval` carries the virtual PC.
    InstrPageFault,
    /// Load failed translation; `tval` carries the virtual address.
    LoadPageFault,
    /// Store failed translation; `tval` carries the virtual address.
    StorePageFault,
    /// A privileged instruction was executed in user mode; `tval` carries
    /// the instruction word. The lightweight monitor lives off this trap.
    PrivilegedInstruction,
    /// Single-step trap (`STATUS.TF`); fires after the stepped instruction.
    DebugStep,
}

impl Cause {
    /// All causes, in code order.
    pub const ALL: [Cause; 16] = [
        Cause::Interrupt,
        Cause::InstrAddrMisaligned,
        Cause::InstrAccessFault,
        Cause::IllegalInstruction,
        Cause::Breakpoint,
        Cause::LoadAddrMisaligned,
        Cause::LoadAccessFault,
        Cause::StoreAddrMisaligned,
        Cause::StoreAccessFault,
        Cause::EcallU,
        Cause::EcallS,
        Cause::InstrPageFault,
        Cause::LoadPageFault,
        Cause::StorePageFault,
        Cause::PrivilegedInstruction,
        Cause::DebugStep,
    ];

    /// The numeric code stored in the `CAUSE` CSR.
    pub fn code(self) -> u32 {
        Cause::ALL.iter().position(|&c| c == self).unwrap() as u32
    }

    /// Looks a cause up by its code.
    pub fn from_code(code: u32) -> Option<Cause> {
        Cause::ALL.get(code as usize).copied()
    }

    /// Returns `true` for the three page-fault causes.
    pub fn is_page_fault(self) -> bool {
        matches!(
            self,
            Cause::InstrPageFault | Cause::LoadPageFault | Cause::StorePageFault
        )
    }

    /// Returns `true` for causes produced by the debug facilities
    /// (`ebreak`, single step).
    pub fn is_debug(self) -> bool {
        matches!(self, Cause::Breakpoint | Cause::DebugStep)
    }
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cause::Interrupt => "external interrupt",
            Cause::InstrAddrMisaligned => "instruction address misaligned",
            Cause::InstrAccessFault => "instruction access fault",
            Cause::IllegalInstruction => "illegal instruction",
            Cause::Breakpoint => "breakpoint",
            Cause::LoadAddrMisaligned => "load address misaligned",
            Cause::LoadAccessFault => "load access fault",
            Cause::StoreAddrMisaligned => "store address misaligned",
            Cause::StoreAccessFault => "store access fault",
            Cause::EcallU => "environment call from user mode",
            Cause::EcallS => "environment call from supervisor mode",
            Cause::InstrPageFault => "instruction page fault",
            Cause::LoadPageFault => "load page fault",
            Cause::StorePageFault => "store page fault",
            Cause::PrivilegedInstruction => "privileged instruction in user mode",
            Cause::DebugStep => "single step",
        };
        f.write_str(s)
    }
}

/// A raised trap, not yet delivered.
///
/// `epc` is the PC the trap handler should see in the `EPC` CSR: the faulting
/// instruction for synchronous faults, the *next* instruction for
/// [`Cause::DebugStep`], and the interrupted instruction for interrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Trap {
    /// Why the trap was raised.
    pub cause: Cause,
    /// Value for the `EPC` CSR.
    pub epc: u32,
    /// Value for the `TVAL` CSR (faulting address, instruction word or
    /// interrupt vector, depending on `cause`).
    pub tval: u32,
}

impl Trap {
    /// `tval` of a [`Cause::Breakpoint`] raised by a monitor-side hook
    /// ([`crate::Cpu::hook_trap`]); an `ebreak` reports 0.
    pub const HOOK_TVAL: u32 = 1;

    /// Convenience constructor.
    pub fn new(cause: Cause, epc: u32, tval: u32) -> Trap {
        Trap { cause, epc, tval }
    }

    /// Was this trap raised by a monitor-side hook rather than the guest's
    /// own `ebreak`?
    pub fn is_hook(&self) -> bool {
        self.cause == Cause::Breakpoint && self.tval == Trap::HOOK_TVAL
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at pc={:#010x} (tval={:#010x})",
            self.cause, self.epc, self.tval
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_code_roundtrip() {
        for c in Cause::ALL {
            assert_eq!(Cause::from_code(c.code()), Some(c));
        }
        assert_eq!(Cause::from_code(16), None);
        assert_eq!(Cause::Interrupt.code(), 0);
    }

    #[test]
    fn classification() {
        assert!(Cause::LoadPageFault.is_page_fault());
        assert!(!Cause::LoadAccessFault.is_page_fault());
        assert!(Cause::Breakpoint.is_debug());
        assert!(Cause::DebugStep.is_debug());
        assert!(!Cause::EcallU.is_debug());
    }

    #[test]
    fn display_nonempty() {
        for c in Cause::ALL {
            assert!(!format!("{c}").is_empty());
        }
        let t = Trap::new(Cause::Breakpoint, 0x100, 0);
        assert!(format!("{t}").contains("breakpoint"));
    }
}
