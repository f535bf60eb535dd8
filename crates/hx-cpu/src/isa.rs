//! HX32 instruction-set definition: registers, instruction forms, and the
//! binary encoding.
//!
//! Every instruction is one little-endian 32-bit word. Bits `[31:26]` hold
//! the opcode; the remaining fields depend on the format:
//!
//! | format | fields |
//! |--------|--------|
//! | R | `op rd[25:21] rs1[20:16] rs2[15:11] funct[10:0]` |
//! | I | `op rd[25:21] rs1[20:16] imm16[15:0]` |
//! | B | `op rs1[25:21] rs2[20:16] imm16[15:0]` (stores and branches) |
//! | J | `op rd[25:21] imm21[20:0]` |
//!
//! Branch and jump immediates are in **bytes**, PC-relative from the address
//! of the instruction itself, and must be multiples of four.

use crate::MemSize;
use core::fmt;

/// A general-purpose register index (`r0`–`r31`).
///
/// `r0` is hardwired to zero: writes are discarded, reads return `0`.
///
/// # Example
///
/// ```
/// use hx_cpu::isa::Reg;
/// assert_eq!(Reg::new(5), Some(Reg::R5));
/// assert_eq!(Reg::new(32), None);
/// assert_eq!(Reg::SP.index(), 2);
/// assert_eq!(Reg::SP.abi_name(), "sp");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(u8);

macro_rules! reg_consts {
    ($($name:ident = $n:expr;)*) => {
        impl Reg {
            $(
                #[doc = concat!("Register r", stringify!($n), ".")]
                pub const $name: Reg = Reg($n);
            )*
        }
    };
}

reg_consts! {
    R0 = 0; R1 = 1; R2 = 2; R3 = 3; R4 = 4; R5 = 5; R6 = 6; R7 = 7;
    R8 = 8; R9 = 9; R10 = 10; R11 = 11; R12 = 12; R13 = 13; R14 = 14; R15 = 15;
    R16 = 16; R17 = 17; R18 = 18; R19 = 19; R20 = 20; R21 = 21; R22 = 22; R23 = 23;
    R24 = 24; R25 = 25; R26 = 26; R27 = 27; R28 = 28; R29 = 29; R30 = 30; R31 = 31;
}

impl Reg {
    /// The hardwired-zero register (alias of [`Reg::R0`]).
    pub const ZERO: Reg = Reg(0);
    /// Link register (alias of `r1`).
    pub const RA: Reg = Reg(1);
    /// Stack pointer (alias of `r2`).
    pub const SP: Reg = Reg(2);
    /// Global pointer (alias of `r3`).
    pub const GP: Reg = Reg(3);
    /// First kernel-scratch register (alias of `r28`).
    pub const K0: Reg = Reg(28);
    /// Second kernel-scratch register (alias of `r29`).
    pub const K1: Reg = Reg(29);
    /// Frame pointer (alias of `r30`).
    pub const FP: Reg = Reg(30);
    /// Assembler temporary (alias of `r31`).
    pub const AT: Reg = Reg(31);

    /// Creates a register from its index, rejecting indices ≥ 32.
    pub fn new(index: u8) -> Option<Reg> {
        (index < 32).then_some(Reg(index))
    }

    /// The register index, `0..32`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn from_field(bits: u32) -> Reg {
        Reg((bits & 0x1f) as u8)
    }

    /// The ABI name used by the assembler (`zero`, `ra`, `sp`, `a0`…`a5`,
    /// `t0`…`t7`, `s0`…`s9`, `k0`, `k1`, `fp`, `at`).
    pub fn abi_name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "zero", "ra", "sp", "gp", "a0", "a1", "a2", "a3", "a4", "a5", "t0", "t1", "t2", "t3",
            "t4", "t5", "t6", "t7", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9",
            "k0", "k1", "fp", "at",
        ];
        NAMES[self.index()]
    }

    /// Looks a register up by either ABI name (`sp`) or raw name (`r2`).
    pub fn from_name(name: &str) -> Option<Reg> {
        for i in 0..32u8 {
            if Reg(i).abi_name() == name {
                return Some(Reg(i));
            }
        }
        let rest = name.strip_prefix('r')?;
        let n: u8 = rest.parse().ok()?;
        Reg::new(n)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.abi_name())
    }
}

/// Register-register ALU operation selector (the `funct` field of an R-format
/// instruction with opcode [`op::ALU`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical left shift by `rs2 & 31`.
    Sll,
    /// Logical right shift by `rs2 & 31`.
    Srl,
    /// Arithmetic right shift by `rs2 & 31`.
    Sra,
    /// Signed set-less-than (1 or 0).
    Slt,
    /// Unsigned set-less-than (1 or 0).
    Sltu,
    /// Low 32 bits of the product.
    Mul,
    /// High 32 bits of the unsigned product.
    Mulhu,
    /// Signed division (`-1` on divide-by-zero, like RISC-V).
    Div,
    /// Signed remainder (`rs1` on divide-by-zero).
    Rem,
    /// Unsigned division (all-ones on divide-by-zero).
    Divu,
    /// Unsigned remainder (`rs1` on divide-by-zero).
    Remu,
}

impl AluOp {
    /// All ALU operations, in `funct` order.
    pub const ALL: [AluOp; 16] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Mul,
        AluOp::Mulhu,
        AluOp::Div,
        AluOp::Rem,
        AluOp::Divu,
        AluOp::Remu,
    ];

    /// The `funct` encoding of this operation.
    pub fn funct(self) -> u32 {
        AluOp::ALL.iter().position(|&o| o == self).unwrap() as u32
    }

    fn from_funct(f: u32) -> Option<AluOp> {
        AluOp::ALL.get(f as usize).copied()
    }

    /// Applies the operation to two operand values.
    ///
    /// This is also the reference semantics used by property tests.
    #[allow(
        clippy::manual_div_ceil,
        clippy::if_then_some_else_none,
        clippy::manual_checked_ops
    )]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
            AluOp::Div => {
                if b == 0 {
                    u32::MAX
                } else {
                    (a as i32).wrapping_div(b as i32) as u32
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i32).wrapping_rem(b as i32) as u32
                }
            }
            AluOp::Divu => {
                if b == 0 {
                    u32::MAX
                } else {
                    a / b
                }
            }
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Mul => "mul",
            AluOp::Mulhu => "mulhu",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::Divu => "divu",
            AluOp::Remu => "remu",
        }
    }
}

/// Branch comparison selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on two register values.
    pub fn holds(self, a: u32, b: u32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i32) < (b as i32),
            BranchCond::Ge => (a as i32) >= (b as i32),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }

    /// Assembler mnemonic (`beq`, `bne`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }
}

/// Width + extension selector for loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadKind {
    /// Sign-extended byte.
    B,
    /// Zero-extended byte.
    Bu,
    /// Sign-extended halfword.
    H,
    /// Zero-extended halfword.
    Hu,
    /// Word.
    W,
}

impl LoadKind {
    /// Access width.
    #[inline]
    pub fn size(self) -> MemSize {
        match self {
            LoadKind::B | LoadKind::Bu => MemSize::Byte,
            LoadKind::H | LoadKind::Hu => MemSize::Half,
            LoadKind::W => MemSize::Word,
        }
    }

    /// Sign- or zero-extends the low [`Self::size`] bytes of `raw`, the
    /// value the bus read, into the register value.
    #[inline]
    pub fn extend(self, raw: u32) -> u32 {
        match self {
            LoadKind::B => raw as u8 as i8 as i32 as u32,
            LoadKind::Bu => raw & 0xff,
            LoadKind::H => raw as u16 as i16 as i32 as u32,
            LoadKind::Hu => raw & 0xffff,
            LoadKind::W => raw,
        }
    }
}

/// Width selector for stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// Byte.
    B,
    /// Halfword.
    H,
    /// Word.
    W,
}

impl StoreKind {
    /// Access width.
    #[inline]
    pub fn size(self) -> MemSize {
        match self {
            StoreKind::B => MemSize::Byte,
            StoreKind::H => MemSize::Half,
            StoreKind::W => MemSize::Word,
        }
    }
}

/// Zero-operand system operation (`SYS` opcode, selector in the `imm16`
/// field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysOp {
    /// Environment call: traps with [`crate::Cause::EcallU`] or
    /// [`crate::Cause::EcallS`] depending on the current mode.
    Ecall,
    /// Breakpoint: traps with [`crate::Cause::Breakpoint`]. The debug stub
    /// plants these.
    Ebreak,
    /// Trap return (privileged): restores mode, interrupt-enable and
    /// single-step state and jumps to `EPC`.
    Tret,
    /// Wait for interrupt (privileged): idles until an interrupt is pending.
    Wfi,
    /// Flush the entire TLB (privileged). Required after page-table edits.
    TlbFlush,
}

impl SysOp {
    const ALL: [SysOp; 5] = [
        SysOp::Ecall,
        SysOp::Ebreak,
        SysOp::Tret,
        SysOp::Wfi,
        SysOp::TlbFlush,
    ];

    /// Selector value stored in the `imm16` field.
    pub fn selector(self) -> u32 {
        SysOp::ALL.iter().position(|&o| o == self).unwrap() as u32
    }

    fn from_selector(s: u32) -> Option<SysOp> {
        SysOp::ALL.get(s as usize).copied()
    }

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            SysOp::Ecall => "ecall",
            SysOp::Ebreak => "ebreak",
            SysOp::Tret => "tret",
            SysOp::Wfi => "wfi",
            SysOp::TlbFlush => "tlbflush",
        }
    }
}

/// CSR access kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// Atomic swap: `rd = csr; csr = rs1`.
    Rw,
    /// Atomic set bits: `rd = csr; csr |= rs1`.
    Rs,
    /// Atomic clear bits: `rd = csr; csr &= !rs1`.
    Rc,
}

/// Opcode byte values, bits `[31:26]` of the instruction word.
pub mod op {
    /// Register-register ALU (R format, `funct` = [`super::AluOp`]).
    pub const ALU: u32 = 0x00;
    /// Add immediate.
    pub const ADDI: u32 = 0x01;
    /// AND immediate.
    pub const ANDI: u32 = 0x02;
    /// OR immediate.
    pub const ORI: u32 = 0x03;
    /// XOR immediate.
    pub const XORI: u32 = 0x04;
    /// Signed set-less-than immediate.
    pub const SLTI: u32 = 0x05;
    /// Unsigned set-less-than immediate.
    pub const SLTIU: u32 = 0x06;
    /// Shift left logical immediate.
    pub const SLLI: u32 = 0x07;
    /// Shift right logical immediate.
    pub const SRLI: u32 = 0x08;
    /// Shift right arithmetic immediate.
    pub const SRAI: u32 = 0x09;
    /// Load upper immediate (`rd = imm16 << 16`).
    pub const LUI: u32 = 0x0a;
    /// Add upper immediate to PC (`rd = pc + (imm16 << 16)`).
    pub const AUIPC: u32 = 0x0b;
    /// Load signed byte.
    pub const LB: u32 = 0x10;
    /// Load unsigned byte.
    pub const LBU: u32 = 0x11;
    /// Load signed halfword.
    pub const LH: u32 = 0x12;
    /// Load unsigned halfword.
    pub const LHU: u32 = 0x13;
    /// Load word.
    pub const LW: u32 = 0x14;
    /// Store byte.
    pub const SB: u32 = 0x18;
    /// Store halfword.
    pub const SH: u32 = 0x19;
    /// Store word.
    pub const SW: u32 = 0x1a;
    /// Branch if equal.
    pub const BEQ: u32 = 0x20;
    /// Branch if not equal.
    pub const BNE: u32 = 0x21;
    /// Branch if signed less-than.
    pub const BLT: u32 = 0x22;
    /// Branch if signed greater-or-equal.
    pub const BGE: u32 = 0x23;
    /// Branch if unsigned less-than.
    pub const BLTU: u32 = 0x24;
    /// Branch if unsigned greater-or-equal.
    pub const BGEU: u32 = 0x25;
    /// Jump and link (J format, PC-relative).
    pub const JAL: u32 = 0x28;
    /// Jump and link register (I format).
    pub const JALR: u32 = 0x29;
    /// System operation (selector in `imm16`).
    pub const SYS: u32 = 0x30;
    /// CSR read-write.
    pub const CSRRW: u32 = 0x31;
    /// CSR read-set.
    pub const CSRRS: u32 = 0x32;
    /// CSR read-clear.
    pub const CSRRC: u32 = 0x33;
}

/// A decoded HX32 instruction.
///
/// `Instr` is the exchange type between the decoder ([`Instr::decode`]), the
/// interpreter, the assembler and the disassembler. [`Instr::encode`] is the
/// exact inverse of `decode` for every value constructible from safe code
/// (verified by property tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Register-register ALU operation.
    Alu {
        /// Operation selector.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd = rs1 + imm` (wrapping).
    Addi {
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// Sign-extended immediate.
        imm: i16,
    },
    /// `rd = rs1 & imm` (immediate **zero**-extended, MIPS-style, so `lui`+`ori` pairs build arbitrary 32-bit constants).
    Andi {
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// Sign-extended immediate.
        imm: i16,
    },
    /// `rd = rs1 | imm` (immediate zero-extended).
    Ori {
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// Sign-extended immediate.
        imm: i16,
    },
    /// `rd = rs1 ^ imm` (immediate zero-extended).
    Xori {
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// Sign-extended immediate.
        imm: i16,
    },
    /// `rd = (rs1 <s imm) ? 1 : 0`.
    Slti {
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// Sign-extended immediate.
        imm: i16,
    },
    /// `rd = (rs1 <u imm) ? 1 : 0` (immediate sign-extended, then compared
    /// unsigned, like RISC-V `sltiu`).
    Sltiu {
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// Sign-extended immediate.
        imm: i16,
    },
    /// `rd = rs1 << shamt`.
    Slli {
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// Shift amount, `0..32`.
        shamt: u8,
    },
    /// `rd = rs1 >>u shamt`.
    Srli {
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// Shift amount, `0..32`.
        shamt: u8,
    },
    /// `rd = rs1 >>s shamt`.
    Srai {
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// Shift amount, `0..32`.
        shamt: u8,
    },
    /// `rd = imm << 16`.
    Lui {
        /// Destination.
        rd: Reg,
        /// Upper immediate.
        imm: u16,
    },
    /// `rd = pc + (imm << 16)`.
    Auipc {
        /// Destination.
        rd: Reg,
        /// Upper immediate.
        imm: u16,
    },
    /// Memory load: `rd = mem[rs1 + offset]`.
    Load {
        /// Width/extension.
        kind: LoadKind,
        /// Destination.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Sign-extended byte offset.
        offset: i16,
    },
    /// Memory store: `mem[rs1 + offset] = rs2`.
    Store {
        /// Width.
        kind: StoreKind,
        /// Base address register.
        rs1: Reg,
        /// Source register.
        rs2: Reg,
        /// Sign-extended byte offset.
        offset: i16,
    },
    /// Conditional PC-relative branch.
    Branch {
        /// Comparison.
        cond: BranchCond,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Byte offset from this instruction; multiple of 4.
        offset: i16,
    },
    /// `rd = pc + 4; pc += offset`.
    Jal {
        /// Link destination (`r0` discards the link).
        rd: Reg,
        /// Byte offset from this instruction; multiple of 4, ±4 MiB reach.
        offset: i32,
    },
    /// `rd = pc + 4; pc = (rs1 + offset) & !3`.
    Jalr {
        /// Link destination.
        rd: Reg,
        /// Target base register.
        rs1: Reg,
        /// Sign-extended byte offset.
        offset: i16,
    },
    /// System operation (`ecall`, `ebreak`, `tret`, `wfi`, `tlbflush`).
    Sys {
        /// Which operation.
        op: SysOp,
    },
    /// CSR access (privileged): `rd = csr` combined with write/set/clear of
    /// `rs1`.
    Csr {
        /// Access kind.
        op: CsrOp,
        /// Destination for the old CSR value.
        rd: Reg,
        /// Source operand.
        rs1: Reg,
        /// CSR number (see [`crate::csr`]).
        csr: u16,
    },
}

/// Error returned by [`Instr::decode`] on an undefined instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The word that failed to decode.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "undefined instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

fn field_rd(w: u32) -> Reg {
    Reg::from_field(w >> 21)
}
fn field_rs1_i(w: u32) -> Reg {
    Reg::from_field(w >> 16)
}
fn field_rs2_r(w: u32) -> Reg {
    Reg::from_field(w >> 11)
}
fn field_imm16(w: u32) -> i16 {
    (w & 0xffff) as u16 as i16
}

impl Instr {
    /// Decodes one instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the opcode or a sub-selector is
    /// undefined; the CPU turns this into an illegal-instruction trap.
    ///
    /// # Example
    ///
    /// ```
    /// use hx_cpu::isa::{Instr, Reg};
    /// let i = Instr::Addi { rd: Reg::R1, rs1: Reg::R0, imm: -4 };
    /// assert_eq!(Instr::decode(i.encode()), Ok(i));
    /// ```
    pub fn decode(w: u32) -> Result<Instr, DecodeError> {
        let opcode = w >> 26;
        let err = Err(DecodeError { word: w });
        Ok(match opcode {
            op::ALU => match AluOp::from_funct(w & 0x7ff) {
                Some(a) => Instr::Alu {
                    op: a,
                    rd: field_rd(w),
                    rs1: field_rs1_i(w),
                    rs2: field_rs2_r(w),
                },
                None => return err,
            },
            op::ADDI => Instr::Addi {
                rd: field_rd(w),
                rs1: field_rs1_i(w),
                imm: field_imm16(w),
            },
            op::ANDI => Instr::Andi {
                rd: field_rd(w),
                rs1: field_rs1_i(w),
                imm: field_imm16(w),
            },
            op::ORI => Instr::Ori {
                rd: field_rd(w),
                rs1: field_rs1_i(w),
                imm: field_imm16(w),
            },
            op::XORI => Instr::Xori {
                rd: field_rd(w),
                rs1: field_rs1_i(w),
                imm: field_imm16(w),
            },
            op::SLTI => Instr::Slti {
                rd: field_rd(w),
                rs1: field_rs1_i(w),
                imm: field_imm16(w),
            },
            op::SLTIU => Instr::Sltiu {
                rd: field_rd(w),
                rs1: field_rs1_i(w),
                imm: field_imm16(w),
            },
            op::SLLI | op::SRLI | op::SRAI => {
                if w & 0xffff >= 32 {
                    return err;
                }
                let (rd, rs1, shamt) = (field_rd(w), field_rs1_i(w), (w & 0x1f) as u8);
                match opcode {
                    op::SLLI => Instr::Slli { rd, rs1, shamt },
                    op::SRLI => Instr::Srli { rd, rs1, shamt },
                    _ => Instr::Srai { rd, rs1, shamt },
                }
            }
            op::LUI => Instr::Lui {
                rd: field_rd(w),
                imm: (w & 0xffff) as u16,
            },
            op::AUIPC => Instr::Auipc {
                rd: field_rd(w),
                imm: (w & 0xffff) as u16,
            },
            op::LB | op::LBU | op::LH | op::LHU | op::LW => {
                let kind = match opcode {
                    op::LB => LoadKind::B,
                    op::LBU => LoadKind::Bu,
                    op::LH => LoadKind::H,
                    op::LHU => LoadKind::Hu,
                    _ => LoadKind::W,
                };
                Instr::Load {
                    kind,
                    rd: field_rd(w),
                    rs1: field_rs1_i(w),
                    offset: field_imm16(w),
                }
            }
            op::SB | op::SH | op::SW => {
                let kind = match opcode {
                    op::SB => StoreKind::B,
                    op::SH => StoreKind::H,
                    _ => StoreKind::W,
                };
                Instr::Store {
                    kind,
                    rs1: field_rd(w),
                    rs2: field_rs1_i(w),
                    offset: field_imm16(w),
                }
            }
            op::BEQ | op::BNE | op::BLT | op::BGE | op::BLTU | op::BGEU => {
                let cond = match opcode {
                    op::BEQ => BranchCond::Eq,
                    op::BNE => BranchCond::Ne,
                    op::BLT => BranchCond::Lt,
                    op::BGE => BranchCond::Ge,
                    op::BLTU => BranchCond::Ltu,
                    _ => BranchCond::Geu,
                };
                Instr::Branch {
                    cond,
                    rs1: field_rd(w),
                    rs2: field_rs1_i(w),
                    offset: field_imm16(w),
                }
            }
            op::JAL => {
                let raw = w & 0x1f_ffff;
                let offset = ((raw << 11) as i32) >> 11;
                Instr::Jal {
                    rd: field_rd(w),
                    offset,
                }
            }
            op::JALR => Instr::Jalr {
                rd: field_rd(w),
                rs1: field_rs1_i(w),
                offset: field_imm16(w),
            },
            op::SYS => match SysOp::from_selector(w & 0xffff) {
                Some(s) => Instr::Sys { op: s },
                None => return err,
            },
            op::CSRRW | op::CSRRS | op::CSRRC => {
                let csr_op = match opcode {
                    op::CSRRW => CsrOp::Rw,
                    op::CSRRS => CsrOp::Rs,
                    _ => CsrOp::Rc,
                };
                Instr::Csr {
                    op: csr_op,
                    rd: field_rd(w),
                    rs1: field_rs1_i(w),
                    csr: (w & 0xffff) as u16,
                }
            }
            _ => return err,
        })
    }

    /// Encodes the instruction into its 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if a [`Instr::Jal`] offset does not fit in the signed 21-bit
    /// field (±4 MiB) — the assembler checks reach before encoding.
    pub fn encode(self) -> u32 {
        fn r(opc: u32, rd: Reg, rs1: Reg, rs2: Reg, funct: u32) -> u32 {
            (opc << 26)
                | ((rd.index() as u32) << 21)
                | ((rs1.index() as u32) << 16)
                | ((rs2.index() as u32) << 11)
                | (funct & 0x7ff)
        }
        fn i(opc: u32, rd: Reg, rs1: Reg, imm: u32) -> u32 {
            (opc << 26)
                | ((rd.index() as u32) << 21)
                | ((rs1.index() as u32) << 16)
                | (imm & 0xffff)
        }
        match self {
            Instr::Alu { op, rd, rs1, rs2 } => r(op::ALU, rd, rs1, rs2, op.funct()),
            Instr::Addi { rd, rs1, imm } => i(op::ADDI, rd, rs1, imm as u16 as u32),
            Instr::Andi { rd, rs1, imm } => i(op::ANDI, rd, rs1, imm as u16 as u32),
            Instr::Ori { rd, rs1, imm } => i(op::ORI, rd, rs1, imm as u16 as u32),
            Instr::Xori { rd, rs1, imm } => i(op::XORI, rd, rs1, imm as u16 as u32),
            Instr::Slti { rd, rs1, imm } => i(op::SLTI, rd, rs1, imm as u16 as u32),
            Instr::Sltiu { rd, rs1, imm } => i(op::SLTIU, rd, rs1, imm as u16 as u32),
            Instr::Slli { rd, rs1, shamt } => i(op::SLLI, rd, rs1, (shamt & 31) as u32),
            Instr::Srli { rd, rs1, shamt } => i(op::SRLI, rd, rs1, (shamt & 31) as u32),
            Instr::Srai { rd, rs1, shamt } => i(op::SRAI, rd, rs1, (shamt & 31) as u32),
            Instr::Lui { rd, imm } => i(op::LUI, rd, Reg::R0, imm as u32),
            Instr::Auipc { rd, imm } => i(op::AUIPC, rd, Reg::R0, imm as u32),
            Instr::Load {
                kind,
                rd,
                rs1,
                offset,
            } => {
                let opc = match kind {
                    LoadKind::B => op::LB,
                    LoadKind::Bu => op::LBU,
                    LoadKind::H => op::LH,
                    LoadKind::Hu => op::LHU,
                    LoadKind::W => op::LW,
                };
                i(opc, rd, rs1, offset as u16 as u32)
            }
            Instr::Store {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let opc = match kind {
                    StoreKind::B => op::SB,
                    StoreKind::H => op::SH,
                    StoreKind::W => op::SW,
                };
                i(opc, rs1, rs2, offset as u16 as u32)
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let opc = match cond {
                    BranchCond::Eq => op::BEQ,
                    BranchCond::Ne => op::BNE,
                    BranchCond::Lt => op::BLT,
                    BranchCond::Ge => op::BGE,
                    BranchCond::Ltu => op::BLTU,
                    BranchCond::Geu => op::BGEU,
                };
                i(opc, rs1, rs2, offset as u16 as u32)
            }
            Instr::Jal { rd, offset } => {
                assert!(
                    (-(1 << 20)..(1 << 20)).contains(&offset),
                    "jal offset {offset} out of 21-bit range"
                );
                (op::JAL << 26) | ((rd.index() as u32) << 21) | ((offset as u32) & 0x1f_ffff)
            }
            Instr::Jalr { rd, rs1, offset } => i(op::JALR, rd, rs1, offset as u16 as u32),
            Instr::Sys { op: s } => (op::SYS << 26) | s.selector(),
            Instr::Csr {
                op: c,
                rd,
                rs1,
                csr,
            } => {
                let opc = match c {
                    CsrOp::Rw => op::CSRRW,
                    CsrOp::Rs => op::CSRRS,
                    CsrOp::Rc => op::CSRRC,
                };
                i(opc, rd, rs1, csr as u32)
            }
        }
    }

    /// Returns `true` for instructions that only execute in supervisor mode.
    ///
    /// In user mode these raise [`crate::Cause::PrivilegedInstruction`] —
    /// the hook the lightweight monitor uses to emulate a deprivileged guest
    /// kernel's CPU resources.
    pub fn is_privileged(self) -> bool {
        matches!(
            self,
            Instr::Csr { .. }
                | Instr::Sys { op: SysOp::Tret }
                | Instr::Sys { op: SysOp::Wfi }
                | Instr::Sys {
                    op: SysOp::TlbFlush
                }
        )
    }
}

/// The `ebreak` instruction word, used by debug stubs to plant breakpoints.
pub const EBREAK_WORD: u32 = (op::SYS << 26) | 1;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reg_names_roundtrip() {
        for i in 0..32 {
            let r = Reg::new(i).unwrap();
            assert_eq!(Reg::from_name(r.abi_name()), Some(r));
            assert_eq!(Reg::from_name(&format!("r{i}")), Some(r));
        }
        assert_eq!(Reg::from_name("r32"), None);
        assert_eq!(Reg::from_name("bogus"), None);
    }

    #[test]
    fn ebreak_word_decodes_to_ebreak() {
        assert_eq!(
            Instr::decode(EBREAK_WORD),
            Ok(Instr::Sys { op: SysOp::Ebreak })
        );
    }

    #[test]
    fn undefined_opcode_is_error() {
        assert!(Instr::decode(0x3f << 26).is_err());
        assert!(Instr::decode((op::SYS << 26) | 99).is_err());
        assert!(Instr::decode(0x7ff).is_err()); // ALU funct out of range
    }

    #[test]
    fn jal_range_asserts() {
        let ok = Instr::Jal {
            rd: Reg::RA,
            offset: -(1 << 20),
        };
        assert_eq!(Instr::decode(ok.encode()), Ok(ok));
        let r = std::panic::catch_unwind(|| {
            Instr::Jal {
                rd: Reg::RA,
                offset: 1 << 20,
            }
            .encode()
        });
        assert!(r.is_err());
    }

    #[test]
    fn privileged_classification() {
        assert!(Instr::Sys { op: SysOp::Tret }.is_privileged());
        assert!(Instr::Sys { op: SysOp::Wfi }.is_privileged());
        assert!(Instr::Sys {
            op: SysOp::TlbFlush
        }
        .is_privileged());
        assert!(Instr::Csr {
            op: CsrOp::Rw,
            rd: Reg::R0,
            rs1: Reg::R0,
            csr: 0
        }
        .is_privileged());
        assert!(!Instr::Sys { op: SysOp::Ecall }.is_privileged());
        assert!(!Instr::Sys { op: SysOp::Ebreak }.is_privileged());
        assert!(!Instr::Addi {
            rd: Reg::R0,
            rs1: Reg::R0,
            imm: 0
        }
        .is_privileged());
    }

    #[test]
    fn div_by_zero_semantics() {
        assert_eq!(AluOp::Div.apply(7, 0), u32::MAX);
        assert_eq!(AluOp::Divu.apply(7, 0), u32::MAX);
        assert_eq!(AluOp::Rem.apply(7, 0), 7);
        assert_eq!(AluOp::Remu.apply(7, 0), 7);
        // i32::MIN / -1 must not panic.
        assert_eq!(AluOp::Div.apply(i32::MIN as u32, u32::MAX), i32::MIN as u32);
        assert_eq!(AluOp::Rem.apply(i32::MIN as u32, u32::MAX), 0);
    }

    pub(crate) fn arb_reg() -> impl Strategy<Value = Reg> {
        (0u8..32).prop_map(|n| Reg::new(n).unwrap())
    }

    fn arb_instr() -> impl Strategy<Value = Instr> {
        let reg = arb_reg;
        prop_oneof![
            (
                proptest::sample::select(&AluOp::ALL[..]),
                reg(),
                reg(),
                reg()
            )
                .prop_map(|(op, rd, rs1, rs2)| Instr::Alu { op, rd, rs1, rs2 }),
            (reg(), reg(), any::<i16>()).prop_map(|(rd, rs1, imm)| Instr::Addi { rd, rs1, imm }),
            (reg(), reg(), any::<i16>()).prop_map(|(rd, rs1, imm)| Instr::Andi { rd, rs1, imm }),
            (reg(), reg(), any::<i16>()).prop_map(|(rd, rs1, imm)| Instr::Ori { rd, rs1, imm }),
            (reg(), reg(), any::<i16>()).prop_map(|(rd, rs1, imm)| Instr::Xori { rd, rs1, imm }),
            (reg(), reg(), any::<i16>()).prop_map(|(rd, rs1, imm)| Instr::Slti { rd, rs1, imm }),
            (reg(), reg(), any::<i16>()).prop_map(|(rd, rs1, imm)| Instr::Sltiu { rd, rs1, imm }),
            (reg(), reg(), 0u8..32).prop_map(|(rd, rs1, shamt)| Instr::Slli { rd, rs1, shamt }),
            (reg(), reg(), 0u8..32).prop_map(|(rd, rs1, shamt)| Instr::Srli { rd, rs1, shamt }),
            (reg(), reg(), 0u8..32).prop_map(|(rd, rs1, shamt)| Instr::Srai { rd, rs1, shamt }),
            (reg(), any::<u16>()).prop_map(|(rd, imm)| Instr::Lui { rd, imm }),
            (reg(), any::<u16>()).prop_map(|(rd, imm)| Instr::Auipc { rd, imm }),
            (
                prop_oneof![
                    Just(LoadKind::B),
                    Just(LoadKind::Bu),
                    Just(LoadKind::H),
                    Just(LoadKind::Hu),
                    Just(LoadKind::W)
                ],
                reg(),
                reg(),
                any::<i16>()
            )
                .prop_map(|(kind, rd, rs1, offset)| Instr::Load {
                    kind,
                    rd,
                    rs1,
                    offset
                }),
            (
                prop_oneof![Just(StoreKind::B), Just(StoreKind::H), Just(StoreKind::W)],
                reg(),
                reg(),
                any::<i16>()
            )
                .prop_map(|(kind, rs1, rs2, offset)| Instr::Store {
                    kind,
                    rs1,
                    rs2,
                    offset
                }),
            (
                prop_oneof![
                    Just(BranchCond::Eq),
                    Just(BranchCond::Ne),
                    Just(BranchCond::Lt),
                    Just(BranchCond::Ge),
                    Just(BranchCond::Ltu),
                    Just(BranchCond::Geu)
                ],
                reg(),
                reg(),
                any::<i16>()
            )
                .prop_map(|(cond, rs1, rs2, offset)| Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    offset
                }),
            (reg(), -(1i32 << 20)..(1i32 << 20)).prop_map(|(rd, offset)| Instr::Jal { rd, offset }),
            (reg(), reg(), any::<i16>()).prop_map(|(rd, rs1, offset)| Instr::Jalr {
                rd,
                rs1,
                offset
            }),
            proptest::sample::select(&SysOp::ALL[..]).prop_map(|op| Instr::Sys { op }),
            (
                prop_oneof![Just(CsrOp::Rw), Just(CsrOp::Rs), Just(CsrOp::Rc)],
                reg(),
                reg(),
                any::<u16>()
            )
                .prop_map(|(op, rd, rs1, csr)| Instr::Csr { op, rd, rs1, csr }),
        ]
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(instr in arb_instr()) {
            prop_assert_eq!(Instr::decode(instr.encode()), Ok(instr));
        }

        #[test]
        fn decode_is_idempotent(word in any::<u32>()) {
            // decode(word) may fail; when it succeeds, re-encoding and
            // re-decoding yields the same instruction.
            if let Ok(instr) = Instr::decode(word) {
                prop_assert_eq!(Instr::decode(instr.encode()), Ok(instr));
            }
        }

        #[test]
        fn alu_shift_masks(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(AluOp::Sll.apply(a, b), a.wrapping_shl(b & 31));
            prop_assert_eq!(AluOp::Srl.apply(a, b), a.wrapping_shr(b & 31));
        }

        #[test]
        fn alu_add_sub_inverse(a in any::<u32>(), b in any::<u32>()) {
            prop_assert_eq!(AluOp::Sub.apply(AluOp::Add.apply(a, b), b), a);
        }

        #[test]
        fn alu_divmod_identity(a in any::<u32>(), b in 1u32..) {
            let q = AluOp::Divu.apply(a, b);
            let r = AluOp::Remu.apply(a, b);
            prop_assert_eq!(q * b + r, a);
            prop_assert!(r < b);
        }
    }
}
