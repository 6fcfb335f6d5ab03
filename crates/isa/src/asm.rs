//! Programmatic assembler.
//!
//! [`Asm`] builds a [`Program`] from method calls: one method per
//! instruction, label handles for control flow, and a data-section builder.
//! The workload and hardening crates generate all benchmark variants through
//! this interface.

use crate::error::AsmError;
use crate::inst::{BranchKind, Inst, MemWidth};
use crate::program::{CodeImmFixup, Program};
use crate::{Reg, MMIO_CYCLE, MMIO_DETECT, MMIO_INPUT, MMIO_SERIAL};

/// Handle to a code position, resolved when [`Asm::build`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Handle to a data-section address.
///
/// # Examples
///
/// ```
/// use sofi_isa::{Asm, Reg};
/// let mut a = Asm::new();
/// let buf = a.data_space("buf", 8);
/// a.lw(Reg::R1, Reg::R0, buf.offset());
/// a.halt(0);
/// let p = a.build().unwrap();
/// assert_eq!(buf.addr(), 0);
/// assert_eq!(p.ram_size, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataLabel(u32);

impl DataLabel {
    /// Absolute RAM address.
    pub fn addr(self) -> u32 {
        self.0
    }

    /// The address as a load/store offset from `r0`.
    ///
    /// # Panics
    ///
    /// Panics if the address exceeds `i16::MAX` (32 KiB); address such data
    /// through a base register instead.
    pub fn offset(self) -> i16 {
        i16::try_from(self.0).expect("data address exceeds direct-offset range")
    }

    /// The address shifted by `delta` bytes (for field access).
    pub fn at(self, delta: u32) -> DataLabel {
        DataLabel(self.0 + delta)
    }
}

#[derive(Debug, Clone, Copy)]
enum Item {
    Fixed(Inst),
    Branch(BranchKind, Reg, Reg, Label),
    Jal(Reg, Label),
}

/// Builder assembling a [`Program`].
///
/// Instruction methods append one machine instruction each (the machine
/// executes every instruction in one cycle, so instruction count equals
/// cycle cost on a straight-line path). `li` may expand to two instructions
/// for immediates outside the 16-bit signed range.
#[derive(Debug, Clone)]
pub struct Asm {
    name: String,
    items: Vec<Item>,
    labels: Vec<Option<u32>>,
    label_names: Vec<Option<String>>,
    data: Vec<u8>,
    symbols: Vec<(String, u32)>,
    ram_size: Option<u32>,
    code_fixups: Vec<(usize, Option<usize>, Label)>,
}

impl Default for Asm {
    fn default() -> Self {
        Self::new()
    }
}

impl Asm {
    /// Creates an empty assembler for a program named `"unnamed"`.
    pub fn new() -> Self {
        Asm {
            name: "unnamed".to_owned(),
            items: Vec::new(),
            labels: Vec::new(),
            label_names: Vec::new(),
            data: Vec::new(),
            symbols: Vec::new(),
            ram_size: None,
            code_fixups: Vec::new(),
        }
    }

    /// Creates an empty assembler for a program with the given name.
    pub fn with_name(name: impl Into<String>) -> Self {
        let mut a = Asm::new();
        a.name = name.into();
        a
    }

    /// Sets the RAM size explicitly (bytes). Without this, RAM is sized to
    /// the data section. The fault-space memory extent `Δm` is
    /// `ram_size * 8` bits, so benchmarks fix this deliberately.
    pub fn set_ram_size(&mut self, bytes: u32) -> &mut Self {
        self.ram_size = Some(bytes);
        self
    }

    /// Current instruction index (where the next instruction will go).
    pub fn here(&self) -> u32 {
        self.items.len() as u32
    }

    // ---- labels ------------------------------------------------------

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        self.label_names.push(None);
        Label(self.labels.len() - 1)
    }

    /// Creates a fresh named label (names only aid error messages).
    pub fn new_named_label(&mut self, name: impl Into<String>) -> Label {
        let l = self.new_label();
        self.label_names[l.0] = Some(name.into());
        l
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.here());
        self
    }

    /// Convenience: creates a label bound to the current position.
    pub fn label_here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    // ---- data section --------------------------------------------------

    /// Appends raw bytes to the data section, returning their address.
    pub fn data_bytes(&mut self, name: impl Into<String>, bytes: &[u8]) -> DataLabel {
        let addr = self.data.len() as u32;
        self.data.extend_from_slice(bytes);
        self.symbols.push((name.into(), addr));
        DataLabel(addr)
    }

    /// Appends `n` zero bytes, returning their address.
    pub fn data_space(&mut self, name: impl Into<String>, n: u32) -> DataLabel {
        let addr = self.data.len() as u32;
        self.data.resize(self.data.len() + n as usize, 0);
        self.symbols.push((name.into(), addr));
        DataLabel(addr)
    }

    /// Appends a little-endian 32-bit word (aligning to 4 first).
    pub fn data_word(&mut self, name: impl Into<String>, value: u32) -> DataLabel {
        self.data_align(4);
        let addr = self.data.len() as u32;
        self.data.extend_from_slice(&value.to_le_bytes());
        self.symbols.push((name.into(), addr));
        DataLabel(addr)
    }

    /// Appends a sequence of little-endian words (aligning to 4 first).
    pub fn data_words(&mut self, name: impl Into<String>, values: &[u32]) -> DataLabel {
        self.data_align(4);
        let addr = self.data.len() as u32;
        for v in values {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        self.symbols.push((name.into(), addr));
        DataLabel(addr)
    }

    /// Bytes in the data section so far.
    pub(crate) fn data_len(&self) -> usize {
        self.data.len()
    }

    /// Data symbols defined so far, as `(name, address)` pairs.
    pub(crate) fn symbols(&self) -> &[(String, u32)] {
        &self.symbols
    }

    /// Pads the data section to an `n`-byte boundary (`0` pads nothing).
    pub fn data_align(&mut self, n: u32) -> &mut Self {
        let len = self.data.len().next_multiple_of(n.max(1) as usize);
        self.data.resize(len, 0);
        self
    }

    // ---- raw emission ----------------------------------------------------

    /// Appends an already-constructed instruction.
    pub fn emit(&mut self, inst: Inst) -> &mut Self {
        self.items.push(Item::Fixed(inst));
        self
    }

    // ---- ALU -------------------------------------------------------------

    /// `rd = rs1 + rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Inst::Add { rd, rs1, rs2 })
    }
    /// `rd = rs1 - rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Inst::Sub { rd, rs1, rs2 })
    }
    /// `rd = rs1 & rs2`
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Inst::And { rd, rs1, rs2 })
    }
    /// `rd = rs1 | rs2`
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Inst::Or { rd, rs1, rs2 })
    }
    /// `rd = rs1 ^ rs2`
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Inst::Xor { rd, rs1, rs2 })
    }
    /// `rd = rs1 << rs2`
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Inst::Sll { rd, rs1, rs2 })
    }
    /// `rd = rs1 >> rs2` (logical)
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Inst::Srl { rd, rs1, rs2 })
    }
    /// `rd = rs1 >> rs2` (arithmetic)
    pub fn sra(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Inst::Sra { rd, rs1, rs2 })
    }
    /// `rd = (rs1 < rs2)` signed
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Inst::Slt { rd, rs1, rs2 })
    }
    /// `rd = (rs1 < rs2)` unsigned
    pub fn sltu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Inst::Sltu { rd, rs1, rs2 })
    }
    /// `rd = rs1 * rs2`
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.emit(Inst::Mul { rd, rs1, rs2 })
    }
    /// `rd = rs1 + imm`
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Self {
        self.emit(Inst::Addi { rd, rs1, imm })
    }
    /// `rd = rs1 & zext(imm)`
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Self {
        self.emit(Inst::Andi { rd, rs1, imm })
    }
    /// `rd = rs1 | zext(imm)`
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Self {
        self.emit(Inst::Ori { rd, rs1, imm })
    }
    /// `rd = rs1 ^ zext(imm)`
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Self {
        self.emit(Inst::Xori { rd, rs1, imm })
    }
    /// `rd = (rs1 < imm)` signed
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i16) -> &mut Self {
        self.emit(Inst::Slti { rd, rs1, imm })
    }
    /// `rd = rs1 << shamt`
    pub fn slli(&mut self, rd: Reg, rs1: Reg, shamt: u8) -> &mut Self {
        self.emit(Inst::Slli { rd, rs1, shamt })
    }
    /// `rd = rs1 >> shamt` (logical)
    pub fn srli(&mut self, rd: Reg, rs1: Reg, shamt: u8) -> &mut Self {
        self.emit(Inst::Srli { rd, rs1, shamt })
    }
    /// `rd = rs1 >> shamt` (arithmetic)
    pub fn srai(&mut self, rd: Reg, rs1: Reg, shamt: u8) -> &mut Self {
        self.emit(Inst::Srai { rd, rs1, shamt })
    }
    /// `rd = imm << 16`
    pub fn lui(&mut self, rd: Reg, imm: u16) -> &mut Self {
        self.emit(Inst::Lui { rd, imm })
    }

    /// Loads a 32-bit constant: one `addi` when `v` fits 16 signed bits,
    /// otherwise `lui` + `ori` (two cycles).
    pub fn li(&mut self, rd: Reg, v: i32) -> &mut Self {
        if (i16::MIN as i32..=i16::MAX as i32).contains(&v) {
            self.addi(rd, Reg::R0, v as i16)
        } else {
            let u = v as u32;
            self.lui(rd, (u >> 16) as u16);
            self.ori(rd, rd, (u & 0xFFFF) as u16 as i16)
        }
    }

    /// Loads a data address into `rd`.
    pub fn la(&mut self, rd: Reg, label: DataLabel) -> &mut Self {
        self.li(rd, label.addr() as i32)
    }

    /// Loads a *code* address (instruction index) into `rd`, recording a
    /// relocation so [`Program::prepend_insts`] keeps it valid. Always emits
    /// exactly one `addi` when the program stays under 32 Ki instructions
    /// (guaranteed here: we reserve a two-instruction slot only above that).
    pub fn li_code(&mut self, rd: Reg, label: Label) -> &mut Self {
        // Emit a placeholder addi; build() patches the target and records
        // the fixup in the Program. Workload ROMs stay far below 2^15
        // instructions, so the single-instruction form always suffices.
        let idx = self.items.len();
        self.emit(Inst::Addi {
            rd,
            rs1: Reg::R0,
            imm: 0,
        });
        self.code_fixups.push((idx, None, label));
        self
    }

    /// `rd = r0 + rs` (register move).
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.add(rd, rs, Reg::R0)
    }

    /// No-operation (one cycle).
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Inst::NOP)
    }

    // ---- memory ------------------------------------------------------

    /// Signed byte load.
    pub fn lb(&mut self, rd: Reg, base: Reg, offset: i16) -> &mut Self {
        self.emit(Inst::Load {
            rd,
            base,
            offset,
            width: MemWidth::Byte,
            signed: true,
        })
    }
    /// Unsigned byte load.
    pub fn lbu(&mut self, rd: Reg, base: Reg, offset: i16) -> &mut Self {
        self.emit(Inst::Load {
            rd,
            base,
            offset,
            width: MemWidth::Byte,
            signed: false,
        })
    }
    /// Signed halfword load.
    pub fn lh(&mut self, rd: Reg, base: Reg, offset: i16) -> &mut Self {
        self.emit(Inst::Load {
            rd,
            base,
            offset,
            width: MemWidth::Half,
            signed: true,
        })
    }
    /// Unsigned halfword load.
    pub fn lhu(&mut self, rd: Reg, base: Reg, offset: i16) -> &mut Self {
        self.emit(Inst::Load {
            rd,
            base,
            offset,
            width: MemWidth::Half,
            signed: false,
        })
    }
    /// Word load.
    pub fn lw(&mut self, rd: Reg, base: Reg, offset: i16) -> &mut Self {
        self.emit(Inst::Load {
            rd,
            base,
            offset,
            width: MemWidth::Word,
            signed: true,
        })
    }
    /// Byte store.
    pub fn sb(&mut self, rs: Reg, base: Reg, offset: i16) -> &mut Self {
        self.emit(Inst::Store {
            rs,
            base,
            offset,
            width: MemWidth::Byte,
        })
    }
    /// Halfword store.
    pub fn sh(&mut self, rs: Reg, base: Reg, offset: i16) -> &mut Self {
        self.emit(Inst::Store {
            rs,
            base,
            offset,
            width: MemWidth::Half,
        })
    }
    /// Word store.
    pub fn sw(&mut self, rs: Reg, base: Reg, offset: i16) -> &mut Self {
        self.emit(Inst::Store {
            rs,
            base,
            offset,
            width: MemWidth::Word,
        })
    }

    // ---- MMIO ------------------------------------------------------------

    /// Emits the low byte of `rs` on the serial interface (one cycle; the
    /// MMIO page is reached through a negative offset from `r0`).
    pub fn serial_out(&mut self, rs: Reg) -> &mut Self {
        self.sb(rs, Reg::R0, mmio_offset(MMIO_SERIAL))
    }

    /// Signals a detected-and-corrected error to the experiment observer.
    pub fn detect_signal(&mut self, rs: Reg) -> &mut Self {
        self.sw(rs, Reg::R0, mmio_offset(MMIO_DETECT))
    }

    /// Reads the current cycle counter into `rd`.
    pub fn read_cycle(&mut self, rd: Reg) -> &mut Self {
        self.lw(rd, Reg::R0, mmio_offset(MMIO_CYCLE))
    }

    /// Reads the external input latch into `rd` (the last replayed
    /// external event's value; see `sofi-machine`'s `ExternalEvent`).
    pub fn read_input(&mut self, rd: Reg) -> &mut Self {
        self.lw(rd, Reg::R0, mmio_offset(MMIO_INPUT))
    }

    // ---- control flow -----------------------------------------------

    /// Branch if equal.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.items
            .push(Item::Branch(BranchKind::Eq, rs1, rs2, target));
        self
    }
    /// Branch if not equal.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.items
            .push(Item::Branch(BranchKind::Ne, rs1, rs2, target));
        self
    }
    /// Branch if signed less-than.
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.items
            .push(Item::Branch(BranchKind::Lt, rs1, rs2, target));
        self
    }
    /// Branch if signed greater-or-equal.
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.items
            .push(Item::Branch(BranchKind::Ge, rs1, rs2, target));
        self
    }
    /// Branch if unsigned less-than.
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.items
            .push(Item::Branch(BranchKind::Ltu, rs1, rs2, target));
        self
    }
    /// Branch if unsigned greater-or-equal.
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, target: Label) -> &mut Self {
        self.items
            .push(Item::Branch(BranchKind::Geu, rs1, rs2, target));
        self
    }

    /// Jump and link to a label.
    pub fn jal(&mut self, rd: Reg, target: Label) -> &mut Self {
        self.items.push(Item::Jal(rd, target));
        self
    }
    /// Unconditional jump (`jal r0`).
    pub fn j(&mut self, target: Label) -> &mut Self {
        self.jal(Reg::R0, target)
    }
    /// Call: `jal ra, target`.
    pub fn call(&mut self, target: Label) -> &mut Self {
        self.jal(Reg::RA, target)
    }
    /// Return: `jalr r0, 0(ra)`.
    pub fn ret(&mut self) -> &mut Self {
        self.jalr(Reg::R0, Reg::RA, 0)
    }
    /// Indirect jump and link.
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, offset: i16) -> &mut Self {
        self.emit(Inst::Jalr { rd, rs1, offset })
    }
    /// Stop the machine with `code`.
    pub fn halt(&mut self, code: u16) -> &mut Self {
        self.emit(Inst::Halt { code })
    }

    // ---- build -------------------------------------------------------

    /// Resolves labels and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] if a referenced label is unbound or a branch
    /// target lies outside the 14-bit offset range.
    pub fn build(&self) -> Result<Program, AsmError> {
        let resolve = |label: Label| -> Result<u32, AsmError> {
            self.labels[label.0].ok_or_else(|| {
                AsmError::UndefinedLabel(
                    self.label_names[label.0]
                        .clone()
                        .unwrap_or_else(|| format!("L{}", label.0)),
                )
            })
        };

        let mut insts = Vec::with_capacity(self.items.len());
        for (idx, item) in self.items.iter().enumerate() {
            let inst = match *item {
                Item::Fixed(i) => i,
                Item::Branch(kind, rs1, rs2, target) => {
                    let dest = resolve(target)? as i64;
                    let offset = dest - (idx as i64 + 1);
                    let offset = i16::try_from(offset).map_err(|_| AsmError::BranchOutOfRange {
                        target: format!("L{}", target.0),
                        offset,
                    })?;
                    if !((-(1 << 13))..(1 << 13)).contains(&(offset as i32)) {
                        return Err(AsmError::BranchOutOfRange {
                            target: format!("L{}", target.0),
                            offset: offset as i64,
                        });
                    }
                    Inst::Branch {
                        kind,
                        rs1,
                        rs2,
                        offset,
                    }
                }
                Item::Jal(rd, target) => {
                    let dest = resolve(target)?;
                    if dest > crate::encode::JAL_MAX {
                        return Err(AsmError::JumpOutOfRange(dest));
                    }
                    Inst::Jal { rd, target: dest }
                }
            };
            insts.push(inst);
        }

        // Patch li_code placeholders and collect relocation records.
        let mut fixups = Vec::with_capacity(self.code_fixups.len());
        for &(idx, lo, label) in &self.code_fixups {
            let target = resolve(label)?;
            fixups.push(CodeImmFixup {
                inst_idx: idx,
                lo_idx: lo,
                target,
            });
        }

        let ram_size = self.ram_size.unwrap_or(self.data.len() as u32);
        if (self.data.len() as u32) > ram_size {
            return Err(AsmError::DataTooLarge {
                need: self.data.len() as u32,
                ram: ram_size,
            });
        }

        let mut program = Program::new(self.name.clone(), insts, self.data.clone(), ram_size);
        program.symbols = self.symbols.clone();
        program.code_fixups = fixups;
        program.apply_code_fixups();
        Ok(program)
    }
}

/// Converts an MMIO address to its signed offset from `r0`.
fn mmio_offset(addr: u32) -> i16 {
    (addr as i32 - (1i64 << 32) as i32) as i16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmio_offsets_fit_i16() {
        // MMIO page lives in the top 256 bytes of the address space, so all
        // device registers are reachable from r0 with a negative offset.
        assert_eq!(mmio_offset(MMIO_SERIAL), -256);
        assert_eq!(mmio_offset(MMIO_DETECT), -252);
        assert_eq!(mmio_offset(MMIO_CYCLE), -248);
        assert_eq!(mmio_offset(MMIO_INPUT), -244);
    }

    #[test]
    fn forward_and_backward_branches() {
        let mut a = Asm::new();
        let top = a.label_here();
        let end = a.new_label();
        a.beq(Reg::R1, Reg::R0, end);
        a.j(top);
        a.bind(end);
        a.halt(0);
        let p = a.build().unwrap();
        assert_eq!(
            p.insts[0],
            Inst::Branch {
                kind: BranchKind::Eq,
                rs1: Reg::R1,
                rs2: Reg::R0,
                offset: 1
            }
        );
        assert_eq!(
            p.insts[1],
            Inst::Jal {
                rd: Reg::R0,
                target: 0
            }
        );
    }

    #[test]
    fn unbound_label_is_error() {
        let mut a = Asm::new();
        let l = a.new_named_label("nowhere");
        a.j(l);
        assert_eq!(
            a.build().unwrap_err(),
            AsmError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn li_small_and_large() {
        let mut a = Asm::new();
        a.li(Reg::R1, 5); // 1 inst
        a.li(Reg::R2, -5); // 1 inst
        a.li(Reg::R3, 0x12345678); // 2 insts
        let p = a.build().unwrap();
        assert_eq!(p.insts.len(), 4);
        assert_eq!(
            p.insts[2],
            Inst::Lui {
                rd: Reg::R3,
                imm: 0x1234
            }
        );
        assert_eq!(
            p.insts[3],
            Inst::Ori {
                rd: Reg::R3,
                rs1: Reg::R3,
                imm: 0x5678
            }
        );
    }

    #[test]
    fn data_section_layout() {
        let mut a = Asm::new();
        let b = a.data_bytes("b", &[1, 2, 3]);
        let w = a.data_word("w", 0xAABBCCDD);
        let s = a.data_space("s", 5);
        a.halt(0);
        let p = a.build().unwrap();
        assert_eq!(b.addr(), 0);
        assert_eq!(w.addr(), 4); // aligned
        assert_eq!(s.addr(), 8);
        assert_eq!(p.data.len(), 13);
        assert_eq!(&p.data[4..8], &[0xDD, 0xCC, 0xBB, 0xAA]);
        assert_eq!(p.ram_size, 13);
    }

    #[test]
    fn explicit_ram_size_too_small() {
        let mut a = Asm::new();
        a.data_space("big", 100);
        a.set_ram_size(10);
        assert!(matches!(
            a.build().unwrap_err(),
            AsmError::DataTooLarge { need: 100, ram: 10 }
        ));
    }

    #[test]
    fn data_align_zero_pads_nothing() {
        let mut a = Asm::new();
        a.data_bytes("x", &[1]);
        a.data_align(0).data_align(1);
        assert_eq!(a.build().unwrap().data, vec![1]);
    }

    #[test]
    fn data_label_arithmetic() {
        let l = DataLabel(8);
        assert_eq!(l.at(4).addr(), 12);
        assert_eq!(l.offset(), 8);
    }

    #[test]
    fn builder_is_cloneable_for_variants() {
        // Hardened variants are built by cloning a half-finished builder.
        let mut a = Asm::with_name("base");
        a.li(Reg::R1, 1);
        let mut b = a.clone();
        a.halt(0);
        b.nop();
        b.halt(0);
        assert_eq!(a.build().unwrap().insts.len(), 2);
        assert_eq!(b.build().unwrap().insts.len(), 3);
    }
}
