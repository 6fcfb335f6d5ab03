//! Fault-space geometry.

use std::fmt;

/// One fault-space coordinate: "flip memory bit `bit` at the beginning of
/// cycle `cycle`" (the instruction executing in that cycle already sees the
/// flipped value).
///
/// Cycles are 1-based (`1..=Δt`), bits are 0-based (`0..Δm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultCoord {
    /// Injection cycle, `1..=Δt`.
    pub cycle: u64,
    /// Flat memory bit index, `addr * 8 + bit_in_byte`, in `0..Δm`.
    pub bit: u64,
}

impl FaultCoord {
    /// The number of cycles to execute before applying this coordinate's
    /// flip: `cycle - 1`, saturating at zero.
    ///
    /// Coordinates inside a valid [`FaultSpace`] always have
    /// `cycle ≥ 1`, but executors also accept raw coordinates (e.g. from
    /// a remote client), and a `cycle: 0` coordinate must mean "flip
    /// before the first instruction" — identical to `cycle: 1` — rather
    /// than underflow `u64` and run the pristine machine for 2⁶⁴−1
    /// cycles. Every pre-injection `run_to` in the campaign crate goes
    /// through this accessor.
    pub fn pre_injection_cycle(&self) -> u64 {
        self.cycle.saturating_sub(1)
    }
}

impl fmt::Display for FaultCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(cycle {}, bit {})", self.cycle, self.bit)
    }
}

/// The fault-space extent of one benchmark run: `Δt` cycles × `Δm` bits.
///
/// # Examples
///
/// ```
/// use sofi_space::{FaultSpace, FaultCoord};
/// let space = FaultSpace::new(12, 9); // Figure 1a of the paper
/// assert_eq!(space.size(), 108);
/// let c = FaultCoord { cycle: 3, bit: 4 };
/// assert_eq!(space.coord_of_index(space.index_of(c)), c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpace {
    /// Benchmark runtime in cycles (`Δt`).
    pub cycles: u64,
    /// RAM size in bits (`Δm`).
    pub bits: u64,
}

impl FaultSpace {
    /// Creates a fault space of `cycles × bits` coordinates.
    pub fn new(cycles: u64, bits: u64) -> FaultSpace {
        FaultSpace { cycles, bits }
    }

    /// Total coordinate count `w = Δt · Δm`.
    pub fn size(&self) -> u64 {
        self.cycles * self.bits
    }

    /// `true` if `coord` lies inside the space.
    pub fn contains(&self, coord: FaultCoord) -> bool {
        (1..=self.cycles).contains(&coord.cycle) && coord.bit < self.bits
    }

    /// Linearizes a coordinate into `0..size()` (bit-major within a cycle).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the space.
    pub fn index_of(&self, coord: FaultCoord) -> u64 {
        assert!(self.contains(coord), "{coord} outside {self:?}");
        (coord.cycle - 1) * self.bits + coord.bit
    }

    /// Inverse of [`FaultSpace::index_of`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= size()`.
    pub fn coord_of_index(&self, index: u64) -> FaultCoord {
        assert!(index < self.size(), "index {index} outside fault space");
        FaultCoord {
            cycle: index / self.bits + 1,
            bit: index % self.bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_rng::{DefaultRng, Rng};

    #[test]
    fn size_and_contains() {
        let s = FaultSpace::new(8, 16); // the "Hi" benchmark, Figure 3a
        assert_eq!(s.size(), 128);
        assert!(s.contains(FaultCoord { cycle: 1, bit: 0 }));
        assert!(s.contains(FaultCoord { cycle: 8, bit: 15 }));
        assert!(!s.contains(FaultCoord { cycle: 0, bit: 0 }));
        assert!(!s.contains(FaultCoord { cycle: 9, bit: 0 }));
        assert!(!s.contains(FaultCoord { cycle: 1, bit: 16 }));
    }

    #[test]
    fn linearization_round_trips() {
        // Deterministic seeded sweep over random geometries and indices.
        let mut rng = DefaultRng::seed_from_u64(0xC0_0D);
        for _ in 0..256 {
            let space = FaultSpace::new(rng.gen_range(1u64..100), rng.gen_range(1u64..100));
            let index = rng.gen_range(0..space.size());
            let coord = space.coord_of_index(index);
            assert!(space.contains(coord), "{coord} outside {space:?}");
            assert_eq!(space.index_of(coord), index);
        }
    }

    #[test]
    #[should_panic(expected = "outside fault space")]
    fn index_bound_checked() {
        FaultSpace::new(2, 2).coord_of_index(4);
    }

    #[test]
    fn pre_injection_cycle_saturates_at_zero() {
        // A raw cycle-0 coordinate means "flip before the first
        // instruction" — same as cycle 1 — never a u64 underflow.
        assert_eq!(FaultCoord { cycle: 0, bit: 3 }.pre_injection_cycle(), 0);
        assert_eq!(FaultCoord { cycle: 1, bit: 3 }.pre_injection_cycle(), 0);
        assert_eq!(FaultCoord { cycle: 9, bit: 0 }.pre_injection_cycle(), 8);
    }
}
