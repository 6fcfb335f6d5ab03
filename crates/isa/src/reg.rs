//! Architectural registers.

use std::fmt;

/// One of the sixteen general-purpose registers.
///
/// `R0` is hard-wired to zero: reads yield `0` and writes are discarded,
/// following the classic RISC convention.
///
/// # Examples
///
/// ```
/// use sofi_isa::Reg;
/// assert_eq!(Reg::R3.index(), 3);
/// assert_eq!(Reg::from_index(3), Some(Reg::R3));
/// assert_eq!(Reg::R0.to_string(), "r0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // r0..r15 are self-describing
pub enum Reg {
    R0 = 0,
    R1 = 1,
    R2 = 2,
    R3 = 3,
    R4 = 4,
    R5 = 5,
    R6 = 6,
    R7 = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Reg {
    /// All registers in index order.
    pub const ALL: [Reg; 16] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// The conventional link register used by `call`/`ret` pseudo-ops.
    pub const RA: Reg = Reg::R15;

    /// The conventional stack pointer used by the workload runtime.
    pub const SP: Reg = Reg::R14;

    /// Returns the register's index in `0..16`.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Returns the register with the given index, or `None` if `idx >= 16`.
    #[inline]
    pub fn from_index(idx: usize) -> Option<Reg> {
        Reg::ALL.get(idx).copied()
    }

    /// Parses a register name (`r0`–`r15`, or the aliases `zero`, `ra`, `sp`).
    pub fn parse(name: &str) -> Option<Reg> {
        match name {
            "zero" => return Some(Reg::R0),
            "ra" => return Some(Reg::RA),
            "sp" => return Some(Reg::SP),
            _ => {}
        }
        let rest = name.strip_prefix('r')?;
        let idx: usize = rest.parse().ok()?;
        Reg::from_index(idx)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Reg::from_index(i), Some(*r));
        }
        assert_eq!(Reg::from_index(16), None);
    }

    #[test]
    fn parse_names() {
        assert_eq!(Reg::parse("r0"), Some(Reg::R0));
        assert_eq!(Reg::parse("r15"), Some(Reg::R15));
        assert_eq!(Reg::parse("zero"), Some(Reg::R0));
        assert_eq!(Reg::parse("ra"), Some(Reg::R15));
        assert_eq!(Reg::parse("sp"), Some(Reg::R14));
        assert_eq!(Reg::parse("r16"), None);
        assert_eq!(Reg::parse("x1"), None);
        assert_eq!(Reg::parse(""), None);
    }

    #[test]
    fn display() {
        assert_eq!(Reg::R7.to_string(), "r7");
        assert_eq!(Reg::R15.to_string(), "r15");
    }

    #[test]
    fn conventions() {
        assert_eq!(Reg::RA, Reg::R15);
        assert_eq!(Reg::SP, Reg::R14);
    }
}
