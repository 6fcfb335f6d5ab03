//! Memory-access observation hooks.
//!
//! The def/use pruning of §III-C needs the exact cycle of every RAM read and
//! write in the golden run. Rather than baking trace collection into the CPU
//! (and paying for it in the hot campaign loop), the machine's step function
//! is generic over a [`MemObserver`]; the default [`NullObserver`] compiles
//! to nothing.

use sofi_isa::{MemWidth, Reg};

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load ("use" in def/use terms).
    Read,
    /// A store ("def" in def/use terms).
    Write,
}

/// One RAM access in a program run. MMIO accesses are *not* reported: the
/// device page is outside the fault space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Cycle of the access (1-based: the n-th executed instruction runs in
    /// cycle n).
    pub cycle: u64,
    /// Byte address of the access.
    pub addr: u32,
    /// Access width.
    pub width: MemWidth,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemAccess {
    /// Iterates over the flat bit indices (`addr * 8 + bit`) this access
    /// touches, lowest first.
    pub fn bits(&self) -> impl Iterator<Item = u64> {
        let start = self.addr as u64 * 8;
        start..start + self.width.bits() as u64
    }
}

/// One register-file access in a program run. The zero register is never
/// reported (it is hard-wired and fault-immune).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegAccess {
    /// Cycle of the access (1-based).
    pub cycle: u64,
    /// The register (never `Reg::R0`).
    pub reg: Reg,
    /// Read or write. All register accesses are full-width (32 bit).
    pub kind: AccessKind,
}

impl RegAccess {
    /// Flat register-fault-space bit indices of this access:
    /// `(reg − 1) · 32 + bit` over `r1..r15` (480 bits total).
    pub fn bits(&self) -> impl Iterator<Item = u64> {
        let start = (self.reg.index() as u64 - 1) * 32;
        start..start + 32
    }
}

/// Total size in bits of the register fault-space axis (`r1..r15`).
pub const REG_FILE_BITS: u64 = 15 * 32;

/// Outcome of one executed conditional branch. The control-flow fault
/// domains partition `ForceBranch` equivalence classes by (PC, golden
/// outcome), so the golden capture must record both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// Cycle the branch executed in (1-based).
    pub cycle: u64,
    /// ROM index of the branch instruction.
    pub pc: u32,
    /// Whether the branch was taken in this run.
    pub taken: bool,
}

/// Receives RAM access events during execution.
pub trait MemObserver {
    /// Whether this observer consumes register-access events. The block
    /// engine's µop loop uses this to *statically* skip its precomputed
    /// register-event bookkeeping: on the monomorphized
    /// [`NullObserver`] path (`OBSERVES == false`) the branch folds to
    /// nothing at compile time. Memory-access events are cheap enough to
    /// leave to ordinary inlining. Observers that override
    /// [`MemObserver::on_reg_access`] must leave this `true`.
    const OBSERVES: bool = true;

    /// Called for every RAM access, in execution order.
    fn on_access(&mut self, access: MemAccess);

    /// Called for every register-file access, in execution order (reads
    /// of an instruction before its write). Default: ignored, so
    /// memory-only observers pay nothing.
    #[inline(always)]
    fn on_reg_access(&mut self, _access: RegAccess) {}

    /// Called once per retired instruction with the cycle it executed in
    /// and the ROM index it was fetched from. The control-flow fault
    /// analyses use the golden fetch trace to build skip/corrupt
    /// equivalence classes. Default: ignored.
    #[inline(always)]
    fn on_fetch(&mut self, _cycle: u64, _pc: u32) {}

    /// Called for every executed conditional branch with its resolved
    /// outcome. Default: ignored.
    #[inline(always)]
    fn on_branch(&mut self, _rec: BranchRecord) {}
}

/// Observer that discards everything (zero-cost in the campaign hot loop).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl MemObserver for NullObserver {
    const OBSERVES: bool = false;

    #[inline(always)]
    fn on_access(&mut self, _access: MemAccess) {}
}

/// Observer that records every access in order.
///
/// # Examples
///
/// ```
/// use sofi_machine::{Machine, RecordingObserver, AccessKind};
/// use sofi_isa::{Asm, Reg};
///
/// let mut a = Asm::new();
/// let x = a.data_word("x", 7);
/// a.lw(Reg::R1, Reg::R0, x.offset());
/// let p = a.build().unwrap();
///
/// let mut obs = RecordingObserver::default();
/// let mut m = Machine::new(&p);
/// m.run_observed(100, &mut obs);
/// assert_eq!(obs.accesses.len(), 1);
/// assert_eq!(obs.accesses[0].kind, AccessKind::Read);
/// assert_eq!(obs.accesses[0].cycle, 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct RecordingObserver {
    /// All RAM accesses in execution order.
    pub accesses: Vec<MemAccess>,
    /// All register-file accesses in execution order.
    pub reg_accesses: Vec<RegAccess>,
    /// ROM index of every retired instruction, in execution order
    /// (`pc_trace[c - 1]` is the instruction that ran in cycle `c`).
    pub pc_trace: Vec<u32>,
    /// Every executed conditional branch with its resolved outcome.
    pub branches: Vec<BranchRecord>,
}

impl MemObserver for RecordingObserver {
    fn on_access(&mut self, access: MemAccess) {
        self.accesses.push(access);
    }

    fn on_reg_access(&mut self, access: RegAccess) {
        self.reg_accesses.push(access);
    }

    fn on_fetch(&mut self, _cycle: u64, pc: u32) {
        self.pc_trace.push(pc);
    }

    fn on_branch(&mut self, rec: BranchRecord) {
        self.branches.push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_enumeration() {
        let a = MemAccess {
            cycle: 1,
            addr: 2,
            width: MemWidth::Half,
            kind: AccessKind::Read,
        };
        assert_eq!(
            a.bits().collect::<Vec<_>>(),
            vec![16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31]
        );
    }

    #[test]
    fn byte_bits() {
        let a = MemAccess {
            cycle: 1,
            addr: 1,
            width: MemWidth::Byte,
            kind: AccessKind::Write,
        };
        let bits: Vec<_> = a.bits().collect();
        assert_eq!(bits, vec![8, 9, 10, 11, 12, 13, 14, 15]);
    }
}
