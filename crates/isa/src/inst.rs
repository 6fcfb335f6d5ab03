//! Instruction forms.

use crate::Reg;
use std::fmt;

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemWidth {
    /// One byte.
    Byte,
    /// Two bytes (halfword), address must be 2-aligned.
    Half,
    /// Four bytes (word), address must be 4-aligned.
    Word,
}

impl MemWidth {
    /// Access size in bytes.
    #[inline]
    pub const fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }

    /// Access size in bits.
    #[inline]
    pub const fn bits(self) -> u32 {
        self.bytes() * 8
    }
}

/// Numeric opcode used by the binary encoding.
///
/// Kept in its own enum (rather than implicit in [`Inst`]) so the encoder,
/// decoder and assembler agree on a single authoritative list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // the variants name the mnemonics themselves
pub enum Opcode {
    Add = 0,
    Sub = 1,
    And = 2,
    Or = 3,
    Xor = 4,
    Sll = 5,
    Srl = 6,
    Sra = 7,
    Slt = 8,
    Sltu = 9,
    Mul = 10,
    Addi = 16,
    Andi = 17,
    Ori = 18,
    Xori = 19,
    Slti = 20,
    Slli = 21,
    Srli = 22,
    Srai = 23,
    Lui = 24,
    Lb = 32,
    Lbu = 33,
    Lh = 34,
    Lhu = 35,
    Lw = 36,
    Sb = 40,
    Sh = 41,
    Sw = 42,
    Beq = 48,
    Bne = 49,
    Blt = 50,
    Bge = 51,
    Bltu = 52,
    Bgeu = 53,
    Jal = 56,
    Jalr = 57,
    Halt = 63,
}

impl Opcode {
    /// Decodes a raw 6-bit opcode field.
    pub fn from_u8(v: u8) -> Option<Opcode> {
        use Opcode::*;
        Some(match v {
            0 => Add,
            1 => Sub,
            2 => And,
            3 => Or,
            4 => Xor,
            5 => Sll,
            6 => Srl,
            7 => Sra,
            8 => Slt,
            9 => Sltu,
            10 => Mul,
            16 => Addi,
            17 => Andi,
            18 => Ori,
            19 => Xori,
            20 => Slti,
            21 => Slli,
            22 => Srli,
            23 => Srai,
            24 => Lui,
            32 => Lb,
            33 => Lbu,
            34 => Lh,
            35 => Lhu,
            36 => Lw,
            40 => Sb,
            41 => Sh,
            42 => Sw,
            48 => Beq,
            49 => Bne,
            50 => Blt,
            51 => Bge,
            52 => Bltu,
            53 => Bgeu,
            56 => Jal,
            57 => Jalr,
            63 => Halt,
            _ => return None,
        })
    }
}

/// A decoded machine instruction.
///
/// Every instruction executes in exactly one CPU cycle (paper §II-C).
/// Branch offsets are in *instructions* relative to the next instruction;
/// `Jal` targets are absolute instruction indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operand fields follow the conventional rd/rs/imm names
pub enum Inst {
    /// `rd = rs1 + rs2` (wrapping).
    Add { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 - rs2` (wrapping).
    Sub { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 & rs2`.
    And { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 | rs2`.
    Or { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 ^ rs2`.
    Xor { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 << (rs2 & 31)`.
    Sll { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 >> (rs2 & 31)` (logical).
    Srl { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = (rs1 as i32) >> (rs2 & 31)` (arithmetic).
    Sra { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = (rs1 as i32) < (rs2 as i32)`.
    Slt { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 < rs2` (unsigned).
    Sltu { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 * rs2` (wrapping, low 32 bits).
    Mul { rd: Reg, rs1: Reg, rs2: Reg },

    /// `rd = rs1 + imm` (wrapping, sign-extended immediate).
    Addi { rd: Reg, rs1: Reg, imm: i16 },
    /// `rd = rs1 & zext(imm)` — the immediate is **zero-extended**
    /// (MIPS-style), so `lui` + `ori` composes 32-bit constants.
    Andi { rd: Reg, rs1: Reg, imm: i16 },
    /// `rd = rs1 | zext(imm)` (zero-extended immediate).
    Ori { rd: Reg, rs1: Reg, imm: i16 },
    /// `rd = rs1 ^ zext(imm)` (zero-extended immediate).
    Xori { rd: Reg, rs1: Reg, imm: i16 },
    /// `rd = (rs1 as i32) < imm`.
    Slti { rd: Reg, rs1: Reg, imm: i16 },
    /// `rd = rs1 << shamt`.
    Slli { rd: Reg, rs1: Reg, shamt: u8 },
    /// `rd = rs1 >> shamt` (logical).
    Srli { rd: Reg, rs1: Reg, shamt: u8 },
    /// `rd = (rs1 as i32) >> shamt` (arithmetic).
    Srai { rd: Reg, rs1: Reg, shamt: u8 },
    /// `rd = imm << 16`.
    Lui { rd: Reg, imm: u16 },

    /// Load from `rs1 + offset`, sign- or zero-extended per `width`/`signed`.
    Load {
        rd: Reg,
        base: Reg,
        offset: i16,
        width: MemWidth,
        signed: bool,
    },
    /// Store the low `width` bytes of `rs` to `base + offset`.
    Store {
        rs: Reg,
        base: Reg,
        offset: i16,
        width: MemWidth,
    },

    /// Branch if the comparison holds; `offset` is in instructions relative
    /// to the *next* instruction.
    Branch {
        kind: BranchKind,
        rs1: Reg,
        rs2: Reg,
        offset: i16,
    },

    /// `rd = pc + 1; pc = target` (absolute instruction index).
    Jal { rd: Reg, target: u32 },
    /// `rd = pc + 1; pc = rs1 + offset` (register value is an instruction index).
    Jalr { rd: Reg, rs1: Reg, offset: i16 },

    /// Stop the machine with an exit code (`0` = success by convention;
    /// workloads use nonzero codes for self-detected unrecoverable errors).
    Halt { code: u16 },
}

/// Branch comparison kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// `rs1 == rs2`
    Eq,
    /// `rs1 != rs2`
    Ne,
    /// signed `rs1 < rs2`
    Lt,
    /// signed `rs1 >= rs2`
    Ge,
    /// unsigned `rs1 < rs2`
    Ltu,
    /// unsigned `rs1 >= rs2`
    Geu,
}

/// The architectural register operands of one instruction: up to two
/// source registers and at most one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegOps {
    /// Source registers, deduplicated (`None` slots unused).
    pub reads: [Option<Reg>; 2],
    /// Destination register, if any.
    pub write: Option<Reg>,
}

impl RegOps {
    fn new(reads: &[Reg], write: Option<Reg>) -> RegOps {
        let mut ops = RegOps {
            reads: [None, None],
            write,
        };
        for &r in reads {
            if ops.reads[0] == Some(r) || ops.reads[1] == Some(r) {
                continue; // deduplicate (e.g. `add r1, r2, r2`)
            }
            if ops.reads[0].is_none() {
                ops.reads[0] = Some(r);
            } else {
                ops.reads[1] = Some(r);
            }
        }
        ops
    }

    /// Iterates over the distinct source registers.
    pub fn reads(&self) -> impl Iterator<Item = Reg> + '_ {
        self.reads.iter().flatten().copied()
    }
}

impl Inst {
    /// Canonical no-operation (`addi r0, r0, 0`).
    pub const NOP: Inst = Inst::Addi {
        rd: Reg::R0,
        rs1: Reg::R0,
        imm: 0,
    };

    /// The register operands this instruction reads and writes, exactly as
    /// the datapath accesses them. This drives def/use analysis of the
    /// *register-file* fault space (the paper's §VI-B generalization).
    pub fn reg_ops(&self) -> RegOps {
        use Inst::*;
        match *self {
            Add { rd, rs1, rs2 }
            | Sub { rd, rs1, rs2 }
            | And { rd, rs1, rs2 }
            | Or { rd, rs1, rs2 }
            | Xor { rd, rs1, rs2 }
            | Sll { rd, rs1, rs2 }
            | Srl { rd, rs1, rs2 }
            | Sra { rd, rs1, rs2 }
            | Slt { rd, rs1, rs2 }
            | Sltu { rd, rs1, rs2 }
            | Mul { rd, rs1, rs2 } => RegOps::new(&[rs1, rs2], Some(rd)),
            Addi { rd, rs1, .. }
            | Andi { rd, rs1, .. }
            | Ori { rd, rs1, .. }
            | Xori { rd, rs1, .. }
            | Slti { rd, rs1, .. }
            | Slli { rd, rs1, .. }
            | Srli { rd, rs1, .. }
            | Srai { rd, rs1, .. } => RegOps::new(&[rs1], Some(rd)),
            Lui { rd, .. } => RegOps::new(&[], Some(rd)),
            Load { rd, base, .. } => RegOps::new(&[base], Some(rd)),
            Store { rs, base, .. } => RegOps::new(&[rs, base], None),
            Branch { rs1, rs2, .. } => RegOps::new(&[rs1, rs2], None),
            Jal { rd, .. } => RegOps::new(&[], Some(rd)),
            Jalr { rd, rs1, .. } => RegOps::new(&[rs1], Some(rd)),
            Halt { .. } => RegOps::default(),
        }
    }

    /// Returns `true` if this instruction may divert control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Halt { .. }
        )
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Inst::*;
        match *self {
            Add { rd, rs1, rs2 } => write!(f, "add {rd}, {rs1}, {rs2}"),
            Sub { rd, rs1, rs2 } => write!(f, "sub {rd}, {rs1}, {rs2}"),
            And { rd, rs1, rs2 } => write!(f, "and {rd}, {rs1}, {rs2}"),
            Or { rd, rs1, rs2 } => write!(f, "or {rd}, {rs1}, {rs2}"),
            Xor { rd, rs1, rs2 } => write!(f, "xor {rd}, {rs1}, {rs2}"),
            Sll { rd, rs1, rs2 } => write!(f, "sll {rd}, {rs1}, {rs2}"),
            Srl { rd, rs1, rs2 } => write!(f, "srl {rd}, {rs1}, {rs2}"),
            Sra { rd, rs1, rs2 } => write!(f, "sra {rd}, {rs1}, {rs2}"),
            Slt { rd, rs1, rs2 } => write!(f, "slt {rd}, {rs1}, {rs2}"),
            Sltu { rd, rs1, rs2 } => write!(f, "sltu {rd}, {rs1}, {rs2}"),
            Mul { rd, rs1, rs2 } => write!(f, "mul {rd}, {rs1}, {rs2}"),
            Addi { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Andi { rd, rs1, imm } => write!(f, "andi {rd}, {rs1}, {imm}"),
            Ori { rd, rs1, imm } => write!(f, "ori {rd}, {rs1}, {imm}"),
            Xori { rd, rs1, imm } => write!(f, "xori {rd}, {rs1}, {imm}"),
            Slti { rd, rs1, imm } => write!(f, "slti {rd}, {rs1}, {imm}"),
            Slli { rd, rs1, shamt } => write!(f, "slli {rd}, {rs1}, {shamt}"),
            Srli { rd, rs1, shamt } => write!(f, "srli {rd}, {rs1}, {shamt}"),
            Srai { rd, rs1, shamt } => write!(f, "srai {rd}, {rs1}, {shamt}"),
            Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Load {
                rd,
                base,
                offset,
                width,
                signed,
            } => {
                let op = match (width, signed) {
                    (MemWidth::Byte, true) => "lb",
                    (MemWidth::Byte, false) => "lbu",
                    (MemWidth::Half, true) => "lh",
                    (MemWidth::Half, false) => "lhu",
                    (MemWidth::Word, _) => "lw",
                };
                write!(f, "{op} {rd}, {offset}({base})")
            }
            Store {
                rs,
                base,
                offset,
                width,
            } => {
                let op = match width {
                    MemWidth::Byte => "sb",
                    MemWidth::Half => "sh",
                    MemWidth::Word => "sw",
                };
                write!(f, "{op} {rs}, {offset}({base})")
            }
            Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let op = match kind {
                    BranchKind::Eq => "beq",
                    BranchKind::Ne => "bne",
                    BranchKind::Lt => "blt",
                    BranchKind::Ge => "bge",
                    BranchKind::Ltu => "bltu",
                    BranchKind::Geu => "bgeu",
                };
                write!(f, "{op} {rs1}, {rs2}, {offset:+}")
            }
            Jal { rd, target } => write!(f, "jal {rd}, {target}"),
            Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Halt { code } => write!(f, "halt {code}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_width_sizes() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Half.bytes(), 2);
        assert_eq!(MemWidth::Word.bytes(), 4);
        assert_eq!(MemWidth::Word.bits(), 32);
    }

    #[test]
    fn opcode_round_trip() {
        for v in 0..64u8 {
            if let Some(op) = Opcode::from_u8(v) {
                assert_eq!(op as u8, v);
            }
        }
    }

    #[test]
    fn classification() {
        let ld = Inst::Load {
            rd: Reg::R1,
            base: Reg::R0,
            offset: 0,
            width: MemWidth::Word,
            signed: false,
        };
        let st = Inst::Store {
            rs: Reg::R1,
            base: Reg::R0,
            offset: 0,
            width: MemWidth::Byte,
        };
        assert!(!ld.is_control() && !st.is_control());
        assert!(Inst::Halt { code: 0 }.is_control());
        assert!(!Inst::NOP.is_control());
    }

    #[test]
    fn reg_ops_cover_all_forms() {
        let ops = Inst::Add {
            rd: Reg::R1,
            rs1: Reg::R2,
            rs2: Reg::R3,
        }
        .reg_ops();
        assert_eq!(ops.reads().collect::<Vec<_>>(), vec![Reg::R2, Reg::R3]);
        assert_eq!(ops.write, Some(Reg::R1));

        // Duplicate sources are reported once.
        let ops = Inst::Add {
            rd: Reg::R1,
            rs1: Reg::R2,
            rs2: Reg::R2,
        }
        .reg_ops();
        assert_eq!(ops.reads().collect::<Vec<_>>(), vec![Reg::R2]);

        let ops = Inst::Store {
            rs: Reg::R4,
            base: Reg::R5,
            offset: 0,
            width: MemWidth::Byte,
        }
        .reg_ops();
        assert_eq!(ops.reads().count(), 2);
        assert_eq!(ops.write, None);

        let ops = Inst::Halt { code: 0 }.reg_ops();
        assert_eq!(ops.reads().count(), 0);
        assert_eq!(ops.write, None);

        // Read-modify-write of the same register: both a read and a write.
        let ops = Inst::Load {
            rd: Reg::R1,
            base: Reg::R1,
            offset: 0,
            width: MemWidth::Word,
            signed: true,
        }
        .reg_ops();
        assert_eq!(ops.reads().collect::<Vec<_>>(), vec![Reg::R1]);
        assert_eq!(ops.write, Some(Reg::R1));
    }

    #[test]
    fn display_smoke() {
        assert_eq!(
            Inst::Add {
                rd: Reg::R1,
                rs1: Reg::R2,
                rs2: Reg::R3
            }
            .to_string(),
            "add r1, r2, r3"
        );
        assert_eq!(
            Inst::Load {
                rd: Reg::R1,
                base: Reg::R2,
                offset: -4,
                width: MemWidth::Byte,
                signed: false
            }
            .to_string(),
            "lbu r1, -4(r2)"
        );
        assert_eq!(Inst::NOP.to_string(), "addi r0, r0, 0");
    }
}
