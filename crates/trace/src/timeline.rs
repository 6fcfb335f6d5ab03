//! Per-bit access timelines.
//!
//! The def/use analysis of §III-C works bit-by-bit along the memory axis of
//! the fault space: for each RAM bit it needs the ordered sequence of
//! *defs* (writes) and *uses* (reads) touching that bit. [`Timelines`]
//! expands the byte/half/word access trace into exactly that.

use sofi_machine::{AccessKind, MemAccess, RegAccess, REG_FILE_BITS};

/// One event on a single bit's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitEvent {
    /// Cycle of the access (1-based).
    pub cycle: u64,
    /// Read ("use") or write ("def").
    pub kind: AccessKind,
}

/// Ordered access events for every RAM bit.
///
/// # Examples
///
/// ```
/// use sofi_machine::{MemAccess, AccessKind};
/// use sofi_isa::MemWidth;
/// use sofi_trace::Timelines;
///
/// let trace = vec![MemAccess {
///     cycle: 2,
///     addr: 0,
///     width: MemWidth::Byte,
///     kind: AccessKind::Write,
/// }];
/// let tl = Timelines::build(&trace, 16);
/// assert_eq!(tl.events(0).len(), 1);
/// assert!(tl.events(8).is_empty()); // second byte untouched
/// ```
#[derive(Debug, Clone)]
pub struct Timelines {
    per_bit: Vec<Vec<BitEvent>>,
}

impl Timelines {
    /// Expands an access trace into per-bit event lists.
    ///
    /// Events arrive in execution order from the machine, so each bit's
    /// list is sorted by cycle without further work.
    ///
    /// # Panics
    ///
    /// Panics if an access touches a bit at or beyond `ram_bits` (the
    /// machine bounds-checks accesses, so this indicates trace corruption).
    pub fn build(trace: &[MemAccess], ram_bits: u64) -> Timelines {
        let mut per_bit: Vec<Vec<BitEvent>> = vec![Vec::new(); ram_bits as usize];
        for access in trace {
            for bit in access.bits() {
                per_bit[bit as usize].push(BitEvent {
                    cycle: access.cycle,
                    kind: access.kind,
                });
            }
        }
        Timelines { per_bit }
    }

    /// Expands a register-file access trace into per-bit event lists
    /// (`(reg − 1) · 32 + bit` over `r1..r15`). Unlike RAM, a single
    /// instruction may read *and* write the same register, producing two
    /// same-cycle events in read-before-write order — the def/use
    /// analysis handles this explicitly.
    pub fn build_registers(trace: &[RegAccess]) -> Timelines {
        let mut per_bit: Vec<Vec<BitEvent>> = vec![Vec::new(); REG_FILE_BITS as usize];
        for access in trace {
            for bit in access.bits() {
                per_bit[bit as usize].push(BitEvent {
                    cycle: access.cycle,
                    kind: access.kind,
                });
            }
        }
        Timelines { per_bit }
    }

    /// Builds timelines directly from per-bit event lists (each already
    /// sorted by cycle). The control-flow fault analyses use this to feed
    /// *synthetic* timelines — e.g. one "bit" per ROM slot whose events
    /// are the golden fetch cycles — through the same interval algorithm
    /// as the RAM and register axes.
    pub fn from_per_bit(per_bit: Vec<Vec<BitEvent>>) -> Timelines {
        debug_assert!(per_bit
            .iter()
            .all(|evs| evs.windows(2).all(|w| w[0].cycle <= w[1].cycle)));
        Timelines { per_bit }
    }

    /// Number of RAM bits covered (`Δm`).
    pub fn ram_bits(&self) -> u64 {
        self.per_bit.len() as u64
    }

    /// Events for one bit, in cycle order.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= ram_bits()`.
    pub fn events(&self, bit: u64) -> &[BitEvent] {
        &self.per_bit[bit as usize]
    }

    /// Iterates over `(bit, events)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[BitEvent])> {
        self.per_bit
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_isa::MemWidth;

    fn acc(cycle: u64, addr: u32, width: MemWidth, kind: AccessKind) -> MemAccess {
        MemAccess {
            cycle,
            addr,
            width,
            kind,
        }
    }

    #[test]
    fn word_access_touches_32_bits() {
        let tl = Timelines::build(&[acc(1, 4, MemWidth::Word, AccessKind::Read)], 64);
        for bit in 0..32 {
            assert!(tl.events(bit).is_empty());
        }
        for bit in 32..64 {
            assert_eq!(
                tl.events(bit),
                &[BitEvent {
                    cycle: 1,
                    kind: AccessKind::Read
                }]
            );
        }
        assert_eq!(tl.per_bit.iter().map(Vec::len).sum::<usize>(), 32);
    }

    #[test]
    fn events_stay_in_cycle_order() {
        let tl = Timelines::build(
            &[
                acc(1, 0, MemWidth::Byte, AccessKind::Write),
                acc(5, 0, MemWidth::Byte, AccessKind::Read),
                acc(9, 0, MemWidth::Byte, AccessKind::Write),
            ],
            8,
        );
        let cycles: Vec<u64> = tl.events(3).iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 5, 9]);
    }

    #[test]
    fn overlapping_widths_compose() {
        // A word write then a byte read of its third byte.
        let tl = Timelines::build(
            &[
                acc(1, 0, MemWidth::Word, AccessKind::Write),
                acc(2, 2, MemWidth::Byte, AccessKind::Read),
            ],
            32,
        );
        assert_eq!(tl.events(16).len(), 2); // byte 2 sees both
        assert_eq!(tl.events(8).len(), 1); // byte 1 sees only the write
    }

    #[test]
    fn iter_covers_all_bits() {
        let tl = Timelines::build(&[], 24);
        assert_eq!(tl.iter().count(), 24);
        assert_eq!(tl.ram_bits(), 24);
    }
}
