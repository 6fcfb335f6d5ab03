//! Linked programs: instruction ROM plus initial RAM image.

use crate::inst::Inst;

/// A fix-up record for an immediate that materializes a *code* address
/// (an instruction index) into a register.
///
/// The machine model executes from fault-immune ROM, but program
/// transformations such as NOP dilution (§IV-B of the paper) prepend
/// instructions and thereby shift all absolute code addresses. Relative
/// branches survive this untouched and `jal` targets are rewritten directly,
/// but an address materialized through `li` (e.g. a thread entry point
/// stored into a task control block) is invisible to a naive shifter.
/// [`crate::Asm::li_code`] therefore records one of these so
/// [`Program::prepend_insts`] can relocate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeImmFixup {
    /// Index of the instruction carrying the immediate: an `Addi` (small
    /// target) or a `Lui` whose partner `Ori` is at `lo_idx`.
    pub inst_idx: usize,
    /// Index of the `Ori` carrying the low half, if the target needed a
    /// two-instruction sequence.
    pub lo_idx: Option<usize>,
    /// The absolute instruction index being materialized.
    pub target: u32,
}

/// A fully assembled program: the contents of the instruction ROM, the
/// initial RAM image, and the RAM size that defines the memory extent
/// `Δm` of the fault space.
///
/// # Examples
///
/// ```
/// use sofi_isa::{Asm, Reg};
/// let mut a = Asm::new();
/// a.li(Reg::R1, 42);
/// a.halt(0);
/// let p = a.build().unwrap();
/// assert_eq!(p.insts.len(), 2);
/// assert_eq!(p.ram_size, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Human-readable program name (used in reports).
    pub name: String,
    /// Instruction ROM. Execution starts at index 0; running past the end
    /// is a normal run-to-completion halt with exit code 0.
    pub insts: Vec<Inst>,
    /// Initial contents of RAM starting at address 0. May be shorter than
    /// [`Program::ram_size`]; the remainder is zero-initialized.
    pub data: Vec<u8>,
    /// RAM size in bytes. The fault-space memory extent is `ram_size * 8`
    /// bits. Always `>= data.len()`.
    pub ram_size: u32,
    /// Symbol table for the data section: `(name, address)` pairs.
    pub symbols: Vec<(String, u32)>,
    /// Relocation records for code addresses materialized as immediates.
    pub code_fixups: Vec<CodeImmFixup>,
}

impl Program {
    /// Creates a program from raw parts with an empty symbol table.
    pub fn new(name: impl Into<String>, insts: Vec<Inst>, data: Vec<u8>, ram_size: u32) -> Self {
        let ram_size = ram_size.max(data.len() as u32);
        Program {
            name: name.into(),
            insts,
            data,
            ram_size,
            symbols: Vec::new(),
            code_fixups: Vec::new(),
        }
    }

    /// Looks up a data symbol's address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, a)| *a)
    }

    /// Prepends `insts` to the instruction ROM, relocating all absolute
    /// code references (`jal` targets and recorded `li_code` immediates).
    ///
    /// This is the primitive underlying the paper's "Dilution Fault
    /// Tolerance" transformations (§IV-B): the program's observable
    /// behaviour is unchanged as long as the prepended instructions have no
    /// architectural effect on the original code.
    pub fn prepend_insts(&mut self, prepend: Vec<Inst>) {
        let k = prepend.len() as u32;
        if k == 0 {
            return;
        }
        for inst in &mut self.insts {
            if let Inst::Jal { target, .. } = inst {
                *target += k;
            }
        }
        let shift = prepend.len();
        for fix in &mut self.code_fixups {
            fix.inst_idx += shift;
            if let Some(lo) = &mut fix.lo_idx {
                *lo += shift;
            }
            fix.target += k;
        }
        let mut new_insts = prepend;
        new_insts.append(&mut self.insts);
        self.insts = new_insts;
        self.apply_code_fixups();
    }

    /// Rewrites the immediates recorded in [`Program::code_fixups`] to match
    /// their current `target` values.
    ///
    /// # Panics
    ///
    /// Panics if a fix-up record points at an instruction that is not the
    /// `Addi`/`Lui`/`Ori` shape `li_code` emitted (which would indicate the
    /// ROM was edited without maintaining the records).
    pub fn apply_code_fixups(&mut self) {
        for fix in &self.code_fixups {
            let target = fix.target;
            match fix.lo_idx {
                None => match &mut self.insts[fix.inst_idx] {
                    Inst::Addi { imm, .. } => {
                        assert!(
                            target <= i16::MAX as u32,
                            "li_code target grew past addi range"
                        );
                        *imm = target as i16;
                    }
                    other => panic!("code fixup expected addi, found {other}"),
                },
                Some(lo) => {
                    match &mut self.insts[fix.inst_idx] {
                        Inst::Lui { imm, .. } => *imm = (target >> 16) as u16,
                        other => panic!("code fixup expected lui, found {other}"),
                    }
                    match &mut self.insts[lo] {
                        Inst::Ori { imm, .. } => *imm = (target & 0xFFFF) as u16 as i16,
                        other => panic!("code fixup expected ori, found {other}"),
                    }
                }
            }
        }
    }

    /// Grows RAM to `bytes` (no-op if already at least that large). Used by
    /// the memory-dilution transformation: extra never-touched RAM enlarges
    /// the fault space without changing program behaviour.
    pub fn grow_ram(&mut self, bytes: u32) {
        self.ram_size = self.ram_size.max(bytes);
    }

    /// Renders the program as assembly source that
    /// [`crate::assemble_text`] re-assembles into a program with
    /// identical instructions, initial data and RAM size — the three
    /// inputs that determine execution and both fault-space extents.
    /// Symbol names and [`Program::code_fixups`] are *not* preserved
    /// (branches and `jal` targets are already resolved to numeric
    /// offsets, and data labels become anonymous), so the round trip is
    /// behavioural, not syntactic.
    ///
    /// This is how programs constructed through the [`crate::Asm`]
    /// builder (e.g. the built-in workload suite) travel to the serve
    /// daemon, whose job specs carry assembly text.
    pub fn to_source(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, ".ram {}", self.ram_size);
        if !self.data.is_empty() {
            out.push_str(".data\n");
            for chunk in self.data.chunks(16) {
                out.push_str(".byte ");
                for (i, b) in chunk.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{b:#04x}");
                }
                out.push('\n');
            }
        }
        out.push_str(".text\n");
        for inst in &self.insts {
            let _ = writeln!(out, "{inst}");
        }
        out
    }

    /// Serializes the ROM to its 32-bit binary form.
    pub fn encode_rom(&self) -> Vec<u32> {
        self.insts.iter().map(|&i| crate::encode(i)).collect()
    }

    /// Reconstructs the instruction list from binary words.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::DecodeError`] encountered.
    pub fn decode_rom(words: &[u32]) -> Result<Vec<Inst>, crate::DecodeError> {
        words.iter().map(|&w| crate::decode(w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asm, Reg};

    #[test]
    fn to_source_round_trips_insts_data_and_ram() {
        let mut a = Asm::with_name("rt");
        let buf = a.data_space("buf", 8);
        a.data_bytes("msg", b"Hi");
        a.li(Reg::R1, 42);
        a.sw(Reg::R1, Reg::R0, buf.offset());
        let skip = a.new_label();
        a.beq(Reg::R1, Reg::R2, skip);
        a.serial_out(Reg::R1);
        a.bind(skip);
        a.halt(0);
        let mut p = a.build().unwrap();
        p.grow_ram(64);
        let q = crate::assemble_text("rt", &p.to_source()).unwrap();
        assert_eq!(q.insts, p.insts);
        assert_eq!(q.data, p.data);
        assert_eq!(q.ram_size, p.ram_size);
    }

    #[test]
    fn ram_size_covers_data() {
        let p = Program::new("t", vec![], vec![1, 2, 3], 0);
        assert_eq!(p.ram_size, 3);
        let p = Program::new("t", vec![], vec![1, 2, 3], 16);
        assert_eq!(p.ram_size, 16);
    }

    #[test]
    fn prepend_shifts_jal() {
        let mut p = Program::new(
            "t",
            vec![Inst::Jal {
                rd: Reg::R0,
                target: 0,
            }],
            vec![],
            0,
        );
        p.prepend_insts(vec![Inst::NOP, Inst::NOP]);
        assert_eq!(p.insts.len(), 3);
        assert_eq!(
            p.insts[2],
            Inst::Jal {
                rd: Reg::R0,
                target: 2
            }
        );
    }

    #[test]
    fn prepend_relocates_li_code() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.li_code(Reg::R1, l);
        a.bind(l);
        a.halt(0);
        let mut p = a.build().unwrap();
        // Target was instruction index 1 (the halt).
        assert_eq!(
            p.insts[0],
            Inst::Addi {
                rd: Reg::R1,
                rs1: Reg::R0,
                imm: 1
            }
        );
        p.prepend_insts(vec![Inst::NOP; 3]);
        assert_eq!(
            p.insts[3],
            Inst::Addi {
                rd: Reg::R1,
                rs1: Reg::R0,
                imm: 4
            }
        );
    }

    #[test]
    fn grow_ram_never_shrinks() {
        let mut p = Program::new("t", vec![], vec![0; 8], 8);
        p.grow_ram(4);
        assert_eq!(p.ram_size, 8);
        p.grow_ram(32);
        assert_eq!(p.ram_size, 32);
    }

    #[test]
    fn rom_round_trip() {
        let mut a = Asm::new();
        a.li(Reg::R3, -5);
        a.add(Reg::R4, Reg::R3, Reg::R3);
        a.halt(7);
        let p = a.build().unwrap();
        let words = p.encode_rom();
        assert_eq!(Program::decode_rom(&words).unwrap(), p.insts);
    }

    #[test]
    fn symbol_lookup() {
        let mut a = Asm::new();
        a.data_bytes("greeting", b"Hi");
        a.halt(0);
        let p = a.build().unwrap();
        assert_eq!(p.symbol("greeting"), Some(0));
        assert_eq!(p.symbol("missing"), None);
    }
}
