#![warn(missing_docs)]

//! Instruction-set architecture for the `sofi` machine model.
//!
//! The DSN'15 pitfalls paper (§II-C) assumes "a simple RISC CPU with classic
//! in-order execution, without any cache levels on the way to a wait-free
//! main memory, and with a timing of one cycle per CPU instruction", executing
//! programs from fault-immune read-only memory. This crate defines that CPU's
//! instruction set plus the tooling to produce programs for it:
//!
//! * [`Reg`] and [`Inst`] — the architectural register file and instruction
//!   forms (a small 32-bit RISC: ALU, loads/stores, branches, `halt`),
//! * [`encode`]/[`decode`] — a fixed 32-bit binary encoding,
//! * [`Asm`] — a programmatic assembler (label fix-ups, data section) used by
//!   the workload and hardening crates,
//! * [`assemble_text`] — a two-pass text assembler for `.s`-style sources,
//! * [`Program`] — the linked output: instruction ROM plus initial RAM image.
//!
//! # Examples
//!
//! ```
//! use sofi_isa::{Asm, Reg};
//!
//! let mut a = Asm::new();
//! let msg = a.data_bytes("msg", b"Hi");
//! a.lb(Reg::R2, Reg::R0, msg.offset());
//! a.serial_out(Reg::R2);
//! a.halt(0);
//! let program = a.build().unwrap();
//! assert_eq!(program.insts.len(), 3);
//! ```

mod asm;
mod encode;
mod error;
mod inst;
mod parse;
mod program;
mod reg;

pub use asm::{Asm, DataLabel, Label};
pub use encode::{decode, encode, BRANCH_MAX, BRANCH_MIN, JAL_MAX};
pub use error::{AsmError, DecodeError};
pub use inst::{BranchKind, Inst, MemWidth, Opcode, RegOps};
pub use parse::assemble_text;
pub use program::Program;
pub use reg::Reg;

/// The largest RAM a program may declare, in bytes. The text assembler
/// refuses a data section, `.space`, `.align` or `.ram` beyond it, and
/// `sofi-lang` a larger stack, so no source text can make the machine and
/// the fault-space analyses allocate gigabytes. The largest shipped
/// workload declares 432 bytes.
pub const MAX_RAM_BYTES: u32 = 64 * 1024;

/// Memory-mapped I/O base address. Accesses at or above this address do not
/// touch RAM and are therefore outside the fault space. The page occupies
/// the top 256 bytes of the address space so every device register is
/// reachable in one instruction via a negative offset from `r0`.
pub const MMIO_BASE: u32 = 0xFFFF_FF00;

/// Writing a byte here emits it on the serial interface (the observable
/// program output used for failure classification).
pub const MMIO_SERIAL: u32 = 0xFFFF_FF00;

/// Writing here signals "an error was detected and corrected" by a
/// software fault-tolerance mechanism (the benign `Detected & Corrected`
/// outcome of §II-D).
pub const MMIO_DETECT: u32 = 0xFFFF_FF04;

/// Reading a word from here yields the current cycle count (low 32 bits).
pub const MMIO_CYCLE: u32 = 0xFFFF_FF08;

/// Reading a word from here yields the external input latch: the value of
/// the most recent replayed external event (§II-C's deterministic
/// "external events ... replayed at the exact same point in time during
/// each run"), or 0 before the first event.
pub const MMIO_INPUT: u32 = 0xFFFF_FF0C;
