//! Two-pass text assembler.
//!
//! Accepts a conventional `.s`-style syntax:
//!
//! ```text
//! ; Example program
//! .data
//! msg:  .byte 'H', 'i'
//! cnt:  .word 3
//! buf:  .space 8
//! .ram 32            ; explicit RAM size (optional)
//!
//! .text
//! main:
//!     lw   r1, cnt(r0)
//! loop:
//!     lb   r2, msg(r0)
//!     serial r2
//!     addi r1, r1, -1
//!     bne  r1, r0, loop
//!     halt 0
//! ```
//!
//! Comments start with `;` or `#`. Character literals (`'H'`), decimal and
//! `0x` hexadecimal immediates are accepted. Data symbols may be used as
//! load/store offsets (`msg(r0)`, `msg+4(r0)`) and as `li`/`la` operands.
//!
//! Branch targets and `jal`/`j` targets may be labels or numbers: a
//! numeric branch operand (e.g. `beq r1, r2, +3`) is a relative offset in
//! instructions exactly as [`crate::Inst`] stores (and displays) it, and a
//! numeric jump operand is an absolute instruction index. This makes the
//! assembler a left inverse of the instruction [`std::fmt::Display`] form
//! (see `tests/roundtrip.rs`).

use crate::asm::{Asm, Label};
use crate::encode::{BRANCH_MAX, BRANCH_MIN, JAL_MAX};
use crate::error::AsmError;
use crate::inst::{BranchKind, Inst};
use crate::program::Program;
use crate::{Reg, MAX_RAM_BYTES};
use std::collections::HashMap;

/// Assembles `.s`-style source text into a [`Program`].
///
/// # Errors
///
/// Returns [`AsmError::Parse`] for syntax problems (with the 1-based source
/// line) and the usual assembler errors for unresolved or out-of-range
/// labels. A size beyond [`crate::MAX_RAM_BYTES`] is a parse error too:
/// a `.space`, `.align` or `.ram` argument, or a data section that grows
/// past it. `.align` takes a power of two.
///
/// # Examples
///
/// ```
/// let src = "
///     .data
///     msg: .byte 'H', 'i'
///     .text
///     lb r1, msg(r0)
///     serial r1
///     halt 0
/// ";
/// let p = sofi_isa::assemble_text("hello", src).unwrap();
/// assert_eq!(p.insts.len(), 3);
/// assert_eq!(p.data, vec![b'H', b'i']);
/// ```
pub fn assemble_text(name: &str, source: &str) -> Result<Program, AsmError> {
    let mut asm = Asm::with_name(name);

    // Pass 1: lay out the data section so symbols can be used as immediates.
    let mut section = Section::Text;
    for (lineno, raw) in source.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        match directive(line) {
            Some(("data", _)) => section = Section::Data,
            Some(("text", _)) => section = Section::Text,
            Some(("ram", arg)) => {
                asm.set_ram_size(ram_bytes(arg).map_err(|msg| perr(lineno, msg))?);
            }
            Some(("align", arg)) => {
                if section == Section::Data {
                    let n = ram_bytes(arg).map_err(|msg| perr(lineno, msg))?;
                    if !n.is_power_of_two() {
                        return Err(perr(lineno, format!(".align {n} is not a power of two")));
                    }
                    asm.data_align(n);
                }
            }
            Some((other, _)) if !matches!(other, "byte" | "word" | "space") => {
                return Err(perr(lineno, format!("unknown directive .{other}")));
            }
            _ => {
                if section == Section::Data {
                    parse_data_line(&mut asm, line).map_err(|msg| perr(lineno, msg))?;
                }
            }
        }
        if asm.data_len() > MAX_RAM_BYTES as usize {
            return Err(perr(
                lineno,
                format!("data section exceeds {MAX_RAM_BYTES} bytes"),
            ));
        }
    }

    let data_syms: HashMap<String, u32> = asm.symbols().iter().cloned().collect();

    // Pass 2: emit code.
    let mut code_labels: HashMap<String, Label> = HashMap::new();
    let mut bound_labels: std::collections::HashSet<String> = std::collections::HashSet::new();
    section = Section::Text;
    for (lineno, raw) in source.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some((d, _)) = directive(line) {
            match d {
                "data" => section = Section::Data,
                "text" => section = Section::Text,
                _ => {}
            }
            continue;
        }
        if section != Section::Text {
            continue;
        }
        let mut rest = line;
        // Labels (possibly several) at line start.
        while let Some(colon) = rest.find(':') {
            let (lbl, tail) = rest.split_at(colon);
            let lbl = lbl.trim();
            if !is_ident(lbl) {
                break;
            }
            let label = *code_labels
                .entry(lbl.to_owned())
                .or_insert_with(|| asm.new_named_label(lbl));
            if !bound_labels.insert(lbl.to_owned()) {
                return Err(AsmError::DuplicateLabel(lbl.to_owned()));
            }
            asm.bind(label);
            rest = tail[1..].trim_start();
        }
        if rest.is_empty() {
            continue;
        }
        parse_inst(&mut asm, rest, &data_syms, &mut code_labels)
            .map_err(|msg| perr(lineno, msg))?;
    }

    asm.build()
}

#[derive(PartialEq, Clone, Copy)]
enum Section {
    Text,
    Data,
}

fn perr(lineno: usize, msg: impl Into<String>) -> AsmError {
    AsmError::Parse {
        line: lineno + 1,
        msg: msg.into(),
    }
}

fn strip_comment(line: &str) -> &str {
    // Character literals never contain ';' or '#' in our sources, so a
    // simple scan suffices.
    match line.find([';', '#']) {
        Some(i) => &line[..i],
        None => line,
    }
}

fn directive(line: &str) -> Option<(&str, &str)> {
    let rest = line.strip_prefix('.')?;
    let (word, arg) = match rest.split_once(char::is_whitespace) {
        Some((w, a)) => (w, a.trim()),
        None => (rest, ""),
    };
    Some((word, arg))
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_data_line(asm: &mut Asm, line: &str) -> Result<(), String> {
    let (label, rest) = match line.split_once(':') {
        Some((l, r)) => (l.trim(), r.trim()),
        None => ("", line),
    };
    if !label.is_empty() && !is_ident(label) {
        return Err(format!("bad data label `{label}`"));
    }
    let (dir, args) = match directive(rest) {
        Some(x) => x,
        None => return Err(format!("expected data directive, found `{rest}`")),
    };
    let name = if label.is_empty() {
        format!("__anon_{}", asm.symbols().len())
    } else {
        label.to_owned()
    };
    match dir {
        "byte" => {
            let mut bytes = Vec::new();
            for part in split_args(args) {
                let v = parse_imm_str(&part, &HashMap::new())?;
                bytes.push(v as u8);
            }
            asm.data_bytes(name, &bytes);
        }
        "word" => {
            let mut words = Vec::new();
            for part in split_args(args) {
                words.push(parse_imm_str(&part, &HashMap::new())? as u32);
            }
            asm.data_words(name, &words);
        }
        "space" => {
            asm.data_space(name, ram_bytes(args)?);
        }
        other => return Err(format!("unknown data directive .{other}")),
    }
    Ok(())
}

/// A `.space`, `.align` or `.ram` size: from 0 to [`MAX_RAM_BYTES`].
fn ram_bytes(arg: &str) -> Result<u32, String> {
    let n = parse_imm_str(arg, &HashMap::new())?;
    u32::try_from(n)
        .ok()
        .filter(|&n| n <= MAX_RAM_BYTES)
        .ok_or_else(|| format!("size {n} is outside 0..={MAX_RAM_BYTES} bytes"))
}

fn split_args(s: &str) -> Vec<String> {
    s.split(',')
        .map(|p| p.trim().to_owned())
        .filter(|p| !p.is_empty())
        .collect()
}

fn parse_imm_str(s: &str, syms: &HashMap<String, u32>) -> Result<i64, String> {
    let s = s.trim();
    if let Some(stripped) = s.strip_prefix('\'') {
        let inner = stripped
            .strip_suffix('\'')
            .ok_or_else(|| format!("unterminated char literal `{s}`"))?;
        let c = match inner {
            "\\n" => b'\n',
            "\\t" => b'\t',
            "\\0" => 0,
            "\\\\" => b'\\',
            _ if inner.len() == 1 => inner.as_bytes()[0],
            _ => return Err(format!("bad char literal `{s}`")),
        };
        return Ok(c as i64);
    }
    // symbol, symbol+imm, symbol-imm
    if s.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
    {
        let (sym, delta) = if let Some(plus) = s.find('+') {
            (&s[..plus], parse_imm_str(&s[plus + 1..], syms)?)
        } else if let Some(minus) = s.find('-') {
            (&s[..minus], -parse_imm_str(&s[minus + 1..], syms)?)
        } else {
            (s, 0)
        };
        let base = syms
            .get(sym.trim())
            .copied()
            .ok_or_else(|| format!("unknown symbol `{sym}`"))?;
        return (base as i64)
            .checked_add(delta)
            .ok_or_else(|| format!("immediate `{s}` overflows"));
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        // Branch offsets display with an explicit sign (`{:+}`), so a
        // leading `+` must parse — including before a hex body.
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| format!("bad immediate `{s}`"))?;
    Ok(if neg { -v } else { v })
}

fn parse_reg(s: &str) -> Result<Reg, String> {
    Reg::parse(s.trim()).ok_or_else(|| format!("bad register `{s}`"))
}

fn parse_mem_operand(s: &str, syms: &HashMap<String, u32>) -> Result<(Reg, i16), String> {
    // forms: off(base)  |  sym(base)  |  sym+off(base)
    let open = s
        .find('(')
        .ok_or_else(|| format!("expected `offset(base)`, found `{s}`"))?;
    let close = s
        .rfind(')')
        .ok_or_else(|| format!("missing `)` in `{s}`"))?;
    let off_str = s[..open].trim();
    let base = parse_reg(&s[open + 1..close])?;
    let off = if off_str.is_empty() {
        0
    } else {
        parse_imm_str(off_str, syms)?
    };
    let off = i16::try_from(off).map_err(|_| format!("offset {off} out of range"))?;
    Ok((base, off))
}

fn imm16(v: i64) -> Result<i16, String> {
    i16::try_from(v).map_err(|_| format!("immediate {v} out of i16 range"))
}

/// A numeric `jal`/`j` operand: an absolute instruction index.
fn jal_target(s: &str, syms: &HashMap<String, u32>) -> Result<u32, String> {
    let v = parse_imm_str(s, syms)?;
    if !(0..=JAL_MAX as i64).contains(&v) {
        return Err(format!("jal target {v} out of range"));
    }
    Ok(v as u32)
}

#[allow(clippy::too_many_lines)]
fn parse_inst(
    asm: &mut Asm,
    line: &str,
    syms: &HashMap<String, u32>,
    code_labels: &mut HashMap<String, Label>,
) -> Result<(), String> {
    let (mn, args_str) = match line.split_once(char::is_whitespace) {
        Some((m, a)) => (m, a.trim()),
        None => (line, ""),
    };
    let args = split_args(args_str);
    let reg = |i: usize| -> Result<Reg, String> {
        args.get(i)
            .ok_or_else(|| format!("missing operand {i} for {mn}"))
            .and_then(|s| parse_reg(s))
    };
    let imm = |i: usize| -> Result<i64, String> {
        args.get(i)
            .ok_or_else(|| format!("missing operand {i} for {mn}"))
            .and_then(|s| parse_imm_str(s, syms))
    };
    let mem = |i: usize| -> Result<(Reg, i16), String> {
        args.get(i)
            .ok_or_else(|| format!("missing operand {i} for {mn}"))
            .and_then(|s| parse_mem_operand(s, syms))
    };
    let mut label = |i: usize| -> Result<Label, String> {
        let name = args
            .get(i)
            .ok_or_else(|| format!("missing label operand for {mn}"))?;
        if !is_ident(name) {
            return Err(format!("bad label `{name}`"));
        }
        Ok(*code_labels
            .entry(name.clone())
            .or_insert_with(|| asm.new_named_label(name.as_str())))
    };

    match mn {
        "add" => asm.add(reg(0)?, reg(1)?, reg(2)?),
        "sub" => asm.sub(reg(0)?, reg(1)?, reg(2)?),
        "and" => asm.and(reg(0)?, reg(1)?, reg(2)?),
        "or" => asm.or(reg(0)?, reg(1)?, reg(2)?),
        "xor" => asm.xor(reg(0)?, reg(1)?, reg(2)?),
        "sll" => asm.sll(reg(0)?, reg(1)?, reg(2)?),
        "srl" => asm.srl(reg(0)?, reg(1)?, reg(2)?),
        "sra" => asm.sra(reg(0)?, reg(1)?, reg(2)?),
        "slt" => asm.slt(reg(0)?, reg(1)?, reg(2)?),
        "sltu" => asm.sltu(reg(0)?, reg(1)?, reg(2)?),
        "mul" => asm.mul(reg(0)?, reg(1)?, reg(2)?),
        "addi" => asm.addi(reg(0)?, reg(1)?, imm16(imm(2)?)?),
        "andi" => asm.andi(reg(0)?, reg(1)?, imm16(imm(2)?)?),
        "ori" => asm.ori(reg(0)?, reg(1)?, imm16(imm(2)?)?),
        "xori" => asm.xori(reg(0)?, reg(1)?, imm16(imm(2)?)?),
        "slti" => asm.slti(reg(0)?, reg(1)?, imm16(imm(2)?)?),
        "slli" => asm.slli(reg(0)?, reg(1)?, imm(2)? as u8),
        "srli" => asm.srli(reg(0)?, reg(1)?, imm(2)? as u8),
        "srai" => asm.srai(reg(0)?, reg(1)?, imm(2)? as u8),
        "lui" => asm.lui(reg(0)?, imm(1)? as u16),
        "li" => asm.li(reg(0)?, imm(1)? as i32),
        "la" => asm.li(reg(0)?, imm(1)? as i32),
        "mv" => asm.mv(reg(0)?, reg(1)?),
        "nop" => asm.nop(),
        "lb" => {
            let (b, o) = mem(1)?;
            asm.lb(reg(0)?, b, o)
        }
        "lbu" => {
            let (b, o) = mem(1)?;
            asm.lbu(reg(0)?, b, o)
        }
        "lh" => {
            let (b, o) = mem(1)?;
            asm.lh(reg(0)?, b, o)
        }
        "lhu" => {
            let (b, o) = mem(1)?;
            asm.lhu(reg(0)?, b, o)
        }
        "lw" => {
            let (b, o) = mem(1)?;
            asm.lw(reg(0)?, b, o)
        }
        "sb" => {
            let (b, o) = mem(1)?;
            asm.sb(reg(0)?, b, o)
        }
        "sh" => {
            let (b, o) = mem(1)?;
            asm.sh(reg(0)?, b, o)
        }
        "sw" => {
            let (b, o) = mem(1)?;
            asm.sw(reg(0)?, b, o)
        }
        "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" | "bgt" | "ble" => {
            // `bgt`/`ble` are aliases with swapped sources.
            let (kind, swap) = match mn {
                "beq" => (BranchKind::Eq, false),
                "bne" => (BranchKind::Ne, false),
                "blt" => (BranchKind::Lt, false),
                "bge" => (BranchKind::Ge, false),
                "bltu" => (BranchKind::Ltu, false),
                "bgeu" => (BranchKind::Geu, false),
                "bgt" => (BranchKind::Lt, true),
                _ => (BranchKind::Ge, true),
            };
            let (a, b) = (reg(0)?, reg(1)?);
            let (rs1, rs2) = if swap { (b, a) } else { (a, b) };
            let target = args
                .get(2)
                .ok_or_else(|| format!("missing target operand for {mn}"))?;
            if is_ident(target) {
                let l = label(2)?;
                match kind {
                    BranchKind::Eq => asm.beq(rs1, rs2, l),
                    BranchKind::Ne => asm.bne(rs1, rs2, l),
                    BranchKind::Lt => asm.blt(rs1, rs2, l),
                    BranchKind::Ge => asm.bge(rs1, rs2, l),
                    BranchKind::Ltu => asm.bltu(rs1, rs2, l),
                    BranchKind::Geu => asm.bgeu(rs1, rs2, l),
                }
            } else {
                let offset = parse_imm_str(target, syms)?;
                if !((BRANCH_MIN as i64)..=(BRANCH_MAX as i64)).contains(&offset) {
                    return Err(format!("branch offset {offset} out of range"));
                }
                asm.emit(Inst::Branch {
                    kind,
                    rs1,
                    rs2,
                    offset: offset as i16,
                })
            }
        }
        "j" => {
            let target = args
                .first()
                .ok_or_else(|| format!("missing target operand for {mn}"))?;
            if is_ident(target) {
                let l = label(0)?;
                asm.j(l)
            } else {
                let target = jal_target(target, syms)?;
                asm.emit(Inst::Jal {
                    rd: Reg::R0,
                    target,
                })
            }
        }
        "jal" => {
            let (rd, i) = if args.len() == 1 {
                (Reg::RA, 0)
            } else {
                (reg(0)?, 1)
            };
            let target = args
                .get(i)
                .ok_or_else(|| format!("missing target operand for {mn}"))?;
            if is_ident(target) {
                let l = label(i)?;
                asm.jal(rd, l)
            } else {
                let target = jal_target(target, syms)?;
                asm.emit(Inst::Jal { rd, target })
            }
        }
        "call" => {
            let l = label(0)?;
            asm.call(l)
        }
        "ret" => asm.ret(),
        "jalr" => {
            let (b, o) = mem(1)?;
            asm.jalr(reg(0)?, b, o)
        }
        "serial" => asm.serial_out(reg(0)?),
        "detect" => asm.detect_signal(reg(0)?),
        "rdcycle" => asm.read_cycle(reg(0)?),
        "halt" => {
            let code = if args.is_empty() { 0 } else { imm(0)? };
            asm.halt(code as u16)
        }
        other => return Err(format!("unknown mnemonic `{other}`")),
    };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn hello_assembles() {
        let p = assemble_text(
            "hello",
            "
            .data
            msg: .byte 'H', 'i'
            .text
            lb r1, msg(r0)
            serial r1
            lb r1, msg+1(r0)
            serial r1
            ",
        )
        .unwrap();
        assert_eq!(p.insts.len(), 4);
        assert_eq!(p.data, vec![b'H', b'i']);
    }

    #[test]
    fn loops_and_labels() {
        let p = assemble_text(
            "loop",
            "
            li r1, 3
            loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt 0
            ",
        )
        .unwrap();
        assert_eq!(p.insts.len(), 4);
        assert!(matches!(p.insts[2], Inst::Branch { offset: -2, .. }));
    }

    #[test]
    fn forward_reference() {
        let p = assemble_text(
            "fwd",
            "
            j end
            nop
            end: halt 0
            ",
        )
        .unwrap();
        assert!(matches!(p.insts[0], Inst::Jal { target: 2, .. }));
    }

    #[test]
    fn ram_directive() {
        let p = assemble_text("r", ".ram 64\nhalt 0\n").unwrap();
        assert_eq!(p.ram_size, 64);
    }

    #[test]
    fn unknown_mnemonic_is_parse_error() {
        let err = assemble_text("bad", "frobnicate r1\n").unwrap_err();
        assert!(matches!(err, AsmError::Parse { line: 1, .. }));
    }

    #[test]
    fn undefined_code_label_reported() {
        let err = assemble_text("bad", "j nowhere\n").unwrap_err();
        assert_eq!(err, AsmError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn unknown_data_symbol_reported() {
        let err = assemble_text("bad", "lw r1, nosym(r0)\n").unwrap_err();
        assert!(matches!(err, AsmError::Parse { .. }));
    }

    #[test]
    fn char_and_hex_literals() {
        let p = assemble_text(
            "lit",
            "
            .data
            d: .byte '\\n', 0x41, 'z'
            .text
            li r1, 0x7fff
            li r2, -0x10
            halt
            ",
        )
        .unwrap();
        assert_eq!(p.data, vec![b'\n', 0x41, b'z']);
        assert_eq!(
            p.insts[0],
            Inst::Addi {
                rd: Reg::R1,
                rs1: Reg::R0,
                imm: 0x7fff
            }
        );
        assert_eq!(
            p.insts[1],
            Inst::Addi {
                rd: Reg::R2,
                rs1: Reg::R0,
                imm: -16
            }
        );
    }

    #[test]
    fn words_and_space() {
        let p = assemble_text(
            "d",
            "
            .data
            a: .word 1, 2
            b: .space 3
            c: .byte 9
            .text
            halt
            ",
        )
        .unwrap();
        assert_eq!(p.symbol("a"), Some(0));
        assert_eq!(p.symbol("b"), Some(8));
        assert_eq!(p.symbol("c"), Some(11));
        assert_eq!(p.data.len(), 12);
    }

    #[test]
    fn comments_stripped() {
        let p = assemble_text(
            "c",
            "; full line\nnop ; trailing\n# hash comment\nhalt 0 # end\n",
        )
        .unwrap();
        assert_eq!(p.insts.len(), 2);
    }

    #[test]
    fn numeric_branch_offsets_and_jump_targets() {
        let p = assemble_text(
            "num",
            "
            beq r1, r2, +2
            bne r3, r4, -1
            bgt r5, r6, +0
            j 0
            jal r5, 3
            halt 0
            ",
        )
        .unwrap();
        use crate::inst::BranchKind;
        assert_eq!(
            p.insts[0],
            Inst::Branch {
                kind: BranchKind::Eq,
                rs1: Reg::R1,
                rs2: Reg::R2,
                offset: 2
            }
        );
        assert!(matches!(p.insts[1], Inst::Branch { offset: -1, .. }));
        // bgt swaps sources and keeps the numeric offset.
        assert_eq!(
            p.insts[2],
            Inst::Branch {
                kind: BranchKind::Lt,
                rs1: Reg::R6,
                rs2: Reg::R5,
                offset: 0
            }
        );
        assert!(matches!(
            p.insts[3],
            Inst::Jal {
                rd: Reg::R0,
                target: 0
            }
        ));
        assert!(matches!(
            p.insts[4],
            Inst::Jal {
                rd: Reg::R5,
                target: 3
            }
        ));
    }

    #[test]
    fn numeric_branch_and_jump_range_checked() {
        let err = assemble_text("bad", "beq r1, r2, 8192\n").unwrap_err();
        assert!(matches!(err, AsmError::Parse { line: 1, .. }));
        let err = assemble_text("bad", "beq r1, r2, -8193\n").unwrap_err();
        assert!(matches!(err, AsmError::Parse { line: 1, .. }));
        let err = assemble_text("bad", "j -1\n").unwrap_err();
        assert!(matches!(err, AsmError::Parse { line: 1, .. }));
        let err = assemble_text("bad", "jal r1, 0x400000\n").unwrap_err();
        assert!(matches!(err, AsmError::Parse { line: 1, .. }));
        // The extremes themselves are accepted.
        assert!(assemble_text("ok", "beq r1, r2, 8191\nbeq r1, r2, -8192\n").is_ok());
        assert!(assemble_text("ok", "jal r1, 0x3fffff\n").is_ok());
    }

    #[test]
    fn plus_prefixed_immediates_parse() {
        let p = assemble_text("plus", "addi r1, r0, +12\nli r2, +0x10\n").unwrap();
        assert!(matches!(p.insts[0], Inst::Addi { imm: 12, .. }));
        assert!(matches!(p.insts[1], Inst::Addi { imm: 16, .. }));
    }

    /// A hostile directive is a parse error naming its line: it never
    /// loops, and never asks for more memory than the RAM bound.
    fn refused_at(source: &str, line: usize) {
        match assemble_text("hostile", source) {
            Err(AsmError::Parse { line: at, .. }) if at == line => {}
            other => panic!("{source:?}: expected a parse error at line {line}, got {other:?}"),
        }
    }

    #[test]
    fn hostile_align_zero_is_refused() {
        refused_at(".data\nx: .byte 1\n.align 0\n", 3);
    }

    #[test]
    fn hostile_negative_space_is_refused() {
        refused_at(".data\nx: .space -1\n", 2);
    }

    #[test]
    fn hostile_huge_align_is_refused() {
        refused_at(".data\nx: .byte 1\n.align 0x80000000\n", 3);
    }

    #[test]
    fn hostile_huge_ram_is_refused() {
        refused_at(".ram 0x40000000\nhalt 0\n", 1);
    }

    #[test]
    fn hostile_symbol_offset_overflow_is_refused() {
        refused_at(
            ".data\npad: .byte 0\nx: .byte 1\n.text\nli r1, x+9223372036854775807\n",
            5,
        );
    }

    #[test]
    fn data_beyond_ram_is_reported_as_such() {
        let source = ".ram 1\n.data\nx: .byte 1, 2\n.text\nlb r1, x(r0)\n";
        let err = assemble_text("small", source).unwrap_err();
        assert_eq!(err, AsmError::DataTooLarge { need: 2, ram: 1 });
    }

    #[test]
    fn hostile_sizes_stop_at_the_ram_bound() {
        let bound = MAX_RAM_BYTES;
        let p =
            assemble_text("edge", &format!(".ram {bound}\n.data\nx: .space {bound}\n")).unwrap();
        assert_eq!((p.ram_size, p.data.len()), (bound, bound as usize));
        refused_at(&format!(".ram {}\n", bound + 1), 1);
        refused_at(&format!(".data\nx: .space {}\n", bound + 1), 2);
        refused_at(&format!(".data\nx: .space {bound}\ny: .byte 1\n"), 3);
        refused_at(".data\nx: .byte 1\n.align 3\n", 3);
        refused_at(".ram -1\n", 1);
    }

    #[test]
    fn hostile_anonymous_data_lines_assemble_in_linear_time() {
        // Numbering an anonymous data line must not cost a pass over
        // everything assembled before it.
        let source = format!(".data\n{}.text\nhalt 0\n", ".byte 1\n".repeat(20_000));
        let p = assemble_text("anon", &source).unwrap();
        assert_eq!(p.data.len(), 20_000);
        assert_eq!(p.symbol("__anon_0"), Some(0));
        assert_eq!(p.symbol("__anon_19999"), Some(19_999));
    }

    #[test]
    fn jal_one_or_two_operands() {
        let p = assemble_text(
            "j",
            "
            jal helper
            jal r5, helper
            halt
            helper: ret
            ",
        )
        .unwrap();
        assert!(matches!(
            p.insts[0],
            Inst::Jal {
                rd: Reg::R15,
                target: 3
            }
        ));
        assert!(matches!(
            p.insts[1],
            Inst::Jal {
                rd: Reg::R5,
                target: 3
            }
        ));
    }
}
