//! Def/use equivalence-class analysis (§III-C of the paper).
//!
//! For every RAM bit, the golden-run access timeline partitions the bit's
//! column of the fault space into maximal intervals delimited by accesses:
//!
//! * an interval ending in a **read** ("use") is one equivalence class: a
//!   flip anywhere in it is first activated by that read, so a single
//!   experiment — injected directly before the read — stands for the whole
//!   interval (weight = interval length);
//! * an interval ending in a **write** ("def") is known *benign* without
//!   any experiment: the flip is overwritten before it can be read;
//! * the interval after the last access (or a whole never-accessed column)
//!   is likewise benign: the flip is never read (dormant fault).
//!
//! The class weights are exactly the "data life-cycle lengths" that
//! Pitfall 1 requires every result to be weighted with.

use crate::coord::{FaultCoord, FaultSpace};
use sofi_machine::AccessKind;
use sofi_trace::{GoldenRun, Timelines};

/// How an equivalence class's outcome is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassKind {
    /// The class ends with a read: one FI experiment (at the read cycle)
    /// determines the outcome of every coordinate in the class.
    Experiment,
    /// The outcome is known a priori to be "No Effect" — the fault is
    /// overwritten or never activated. No experiment is conducted.
    KnownBenign,
}

/// One def/use equivalence class: the coordinates
/// `(first_cycle..=last_cycle) × {bit}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivClass {
    /// The memory bit this class lives on.
    pub bit: u64,
    /// First cycle of the interval (inclusive, 1-based).
    pub first_cycle: u64,
    /// Last cycle of the interval (inclusive). For `Experiment` classes
    /// this is the activating read's cycle — the canonical injection point.
    pub last_cycle: u64,
    /// Experiment or known-benign.
    pub kind: ClassKind,
}

impl EquivClass {
    /// Number of fault-space coordinates in the class (its weight).
    pub fn weight(&self) -> u64 {
        self.last_cycle - self.first_cycle + 1
    }

    /// The representative injection coordinate (latest cycle in the class,
    /// i.e. directly before the activating read — the black dot of
    /// Figure 1b).
    pub fn representative(&self) -> FaultCoord {
        FaultCoord {
            cycle: self.last_cycle,
            bit: self.bit,
        }
    }

    /// `true` if `coord` lies inside this class.
    pub fn contains(&self, coord: FaultCoord) -> bool {
        coord.bit == self.bit && (self.first_cycle..=self.last_cycle).contains(&coord.cycle)
    }
}

/// Distribution of data lifetimes (experiment-class sizes).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LifetimeStats {
    /// Number of experiment classes.
    pub classes: u64,
    /// Shortest lifetime (cycles).
    pub min: u64,
    /// Median lifetime (midpoint of the two middle elements for
    /// even-sized populations).
    pub median: f64,
    /// Longest lifetime.
    pub max: u64,
    /// Mean lifetime.
    pub mean: f64,
    /// Population standard deviation of lifetimes.
    pub std_dev: f64,
    /// Class counts per log₂ bucket: `histogram[k]` counts lifetimes in
    /// `[2^k, 2^(k+1))` (the last bucket is open-ended).
    pub histogram: [u64; 24],
}

/// Complete def/use partitioning of a benchmark's fault space.
#[derive(Debug, Clone, PartialEq)]
pub struct DefUseAnalysis {
    /// The fault space being partitioned.
    pub space: FaultSpace,
    /// All classes, grouped by bit and ordered by cycle within each bit.
    pub classes: Vec<EquivClass>,
}

impl DefUseAnalysis {
    /// Runs the analysis on a golden run's trace.
    pub fn from_golden(golden: &GoldenRun) -> DefUseAnalysis {
        Self::from_timelines(&golden.timelines(), golden.cycles)
    }

    /// Runs the analysis on pre-digested timelines.
    pub fn from_timelines(timelines: &Timelines, cycles: u64) -> DefUseAnalysis {
        let space = FaultSpace::new(cycles, timelines.ram_bits());
        let mut classes = Vec::new();
        for (bit, events) in timelines.iter() {
            let mut prev = 0u64; // last access cycle (0 = start of run)
            for ev in events {
                debug_assert!(ev.cycle >= prev, "events must be ordered");
                if ev.cycle == prev {
                    // Same-cycle read-modify-write (register files only:
                    // `add r1, r1, r2`): the read already closed this
                    // bit's class, and the write re-defines it from the
                    // next cycle on — no additional class.
                    debug_assert_eq!(ev.kind, AccessKind::Write);
                    continue;
                }
                let kind = match ev.kind {
                    AccessKind::Read => ClassKind::Experiment,
                    AccessKind::Write => ClassKind::KnownBenign,
                };
                classes.push(EquivClass {
                    bit,
                    first_cycle: prev + 1,
                    last_cycle: ev.cycle,
                    kind,
                });
                prev = ev.cycle;
            }
            if prev < cycles {
                // Tail after the last access (or the whole column when the
                // bit is never accessed): dormant, benign.
                classes.push(EquivClass {
                    bit,
                    first_cycle: prev + 1,
                    last_cycle: cycles,
                    kind: ClassKind::KnownBenign,
                });
            }
        }
        DefUseAnalysis { space, classes }
    }

    /// Classes requiring an FI experiment.
    pub fn experiment_classes(&self) -> impl Iterator<Item = &EquivClass> {
        self.classes
            .iter()
            .filter(|c| c.kind == ClassKind::Experiment)
    }

    /// Total weight of known-benign coordinates (a-priori "No Effect").
    pub fn known_benign_weight(&self) -> u64 {
        self.classes
            .iter()
            .filter(|c| c.kind == ClassKind::KnownBenign)
            .map(EquivClass::weight)
            .sum()
    }

    /// Builds the pruned injection plan (experiments sorted by cycle).
    pub fn plan(&self) -> crate::plan::InjectionPlan {
        crate::plan::InjectionPlan::from_analysis(self)
    }

    /// Statistics over the *data lifetimes* (experiment-class sizes) of
    /// this fault space — the quantity Pitfall 1's weighting is about.
    /// The larger the spread, the larger the bias of unweighted
    /// accounting (§III-D).
    pub fn lifetime_stats(&self) -> LifetimeStats {
        lifetime_stats_of(self.experiment_classes().map(EquivClass::weight).collect())
    }

    /// Checks the partition invariant: class weights sum to `w` and classes
    /// within one bit tile the cycle axis without gaps or overlaps.
    /// Primarily used by tests and debug assertions.
    pub fn is_exact_partition(&self) -> bool {
        let total: u64 = self.classes.iter().map(EquivClass::weight).sum();
        if total != self.space.size() {
            return false;
        }
        // Per-bit tiling check.
        let mut next_expected: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        for c in &self.classes {
            let expected = next_expected.entry(c.bit).or_insert(1);
            if c.first_cycle != *expected || c.last_cycle > self.space.cycles {
                return false;
            }
            *expected = c.last_cycle + 1;
        }
        next_expected
            .values()
            .all(|&next| next == self.space.cycles + 1)
            && next_expected.len() as u64 == self.space.bits
    }
}

/// [`LifetimeStats`] over a raw multiset of lifetimes.
fn lifetime_stats_of(mut weights: Vec<u64>) -> LifetimeStats {
    weights.sort_unstable();
    if weights.is_empty() {
        return LifetimeStats::default();
    }
    let n = weights.len();
    let total: u64 = weights.iter().sum();
    let mean = total as f64 / n as f64;
    let variance = weights
        .iter()
        .map(|&w| {
            let d = w as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n as f64;
    let mut histogram = [0u64; 24];
    for &w in &weights {
        let bucket = (63 - w.leading_zeros() as usize).min(23);
        histogram[bucket] += 1;
    }
    LifetimeStats {
        classes: n as u64,
        min: weights[0],
        // Conventional midpoint: for odd n both indices coincide; for
        // even n this averages the two middle elements.
        median: (weights[(n - 1) / 2] + weights[n / 2]) as f64 / 2.0,
        max: weights[n - 1],
        mean,
        std_dev: variance.sqrt(),
        histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_isa::{Asm, Reg};

    fn analyze(f: impl FnOnce(&mut Asm)) -> (GoldenRun, DefUseAnalysis) {
        let mut a = Asm::new();
        f(&mut a);
        let g = GoldenRun::capture(&a.build().unwrap(), 100_000).unwrap();
        let d = DefUseAnalysis::from_golden(&g);
        (g, d)
    }

    #[test]
    fn hi_benchmark_class_structure() {
        // The paper's Figure 3a: W@2, W@4, R@5, R@7 over two bytes.
        let (g, d) = analyze(|a| {
            let msg = a.data_space("msg", 2);
            a.li(Reg::R1, 'H' as i32); // cycle 1
            a.sb(Reg::R1, Reg::R0, msg.offset()); // cycle 2: W byte 0
            a.li(Reg::R1, 'i' as i32); // cycle 3
            a.sb(Reg::R1, Reg::R0, msg.at(1).offset()); // cycle 4: W byte 1
            a.lb(Reg::R2, Reg::R0, msg.offset()); // cycle 5: R byte 0
            a.serial_out(Reg::R2); // cycle 6
            a.lb(Reg::R2, Reg::R0, msg.at(1).offset()); // cycle 7: R byte 1
            a.serial_out(Reg::R2); // cycle 8
        });
        assert_eq!(g.cycles, 8);
        assert_eq!(g.ram_bits, 16);
        assert!(d.is_exact_partition());

        // Each byte-0 bit: benign [1,2], experiment [3,5], benign [6,8].
        let byte0: Vec<_> = d.classes.iter().filter(|c| c.bit == 0).collect();
        assert_eq!(byte0.len(), 3);
        assert_eq!(
            (byte0[0].kind, byte0[0].first_cycle, byte0[0].last_cycle),
            (ClassKind::KnownBenign, 1, 2)
        );
        assert_eq!(
            (byte0[1].kind, byte0[1].first_cycle, byte0[1].last_cycle),
            (ClassKind::Experiment, 3, 5)
        );
        assert_eq!(byte0[1].weight(), 3);
        assert_eq!(
            (byte0[2].kind, byte0[2].first_cycle, byte0[2].last_cycle),
            (ClassKind::KnownBenign, 6, 8)
        );

        // 16 experiments (8 bits × 2 bytes), total failure-candidate weight
        // 3 · 8 · 2 = 48 — exactly the paper's F for the baseline.
        assert_eq!(d.experiment_classes().count(), 16);
        let weight: u64 = d.experiment_classes().map(EquivClass::weight).sum();
        assert_eq!(weight, 48);
        assert_eq!(d.known_benign_weight(), 128 - 48);
    }

    #[test]
    fn untouched_bits_are_fully_benign() {
        let (_, d) = analyze(|a| {
            a.data_space("pad", 4);
            a.nop();
            a.nop();
        });
        assert_eq!(d.experiment_classes().count(), 0);
        assert_eq!(d.known_benign_weight(), 2 * 32);
        assert!(d.is_exact_partition());
    }

    #[test]
    fn read_of_initialized_data_starts_at_cycle_one() {
        // Data that is live from reset (a .data value) is vulnerable from
        // cycle 1 until its first read.
        let (_, d) = analyze(|a| {
            let x = a.data_bytes("x", &[1]);
            a.nop(); // cycle 1
            a.nop(); // cycle 2
            a.lb(Reg::R1, Reg::R0, x.offset()); // cycle 3
        });
        let exp: Vec<_> = d.experiment_classes().collect();
        assert_eq!(exp.len(), 8);
        assert_eq!(exp[0].first_cycle, 1);
        assert_eq!(exp[0].last_cycle, 3);
        assert_eq!(exp[0].weight(), 3);
    }

    #[test]
    fn back_to_back_reads_form_separate_classes() {
        let (_, d) = analyze(|a| {
            let x = a.data_bytes("x", &[1]);
            a.lb(Reg::R1, Reg::R0, x.offset()); // cycle 1
            a.lb(Reg::R2, Reg::R0, x.offset()); // cycle 2
        });
        let exp: Vec<_> = d.experiment_classes().collect();
        assert_eq!(exp.len(), 16); // 8 bits × 2 reads
        assert_eq!(exp.iter().map(|c| c.weight()).sum::<u64>(), 16);
    }

    #[test]
    fn representative_is_the_read_cycle() {
        let c = EquivClass {
            bit: 3,
            first_cycle: 2,
            last_cycle: 9,
            kind: ClassKind::Experiment,
        };
        assert_eq!(c.representative(), FaultCoord { cycle: 9, bit: 3 });
        assert_eq!(c.weight(), 8);
        assert!(c.contains(FaultCoord { cycle: 2, bit: 3 }));
        assert!(!c.contains(FaultCoord { cycle: 1, bit: 3 }));
        assert!(!c.contains(FaultCoord { cycle: 5, bit: 4 }));
    }

    #[test]
    fn lifetime_stats_on_hi() {
        // "Hi": 16 experiment classes, all of weight 3.
        let (_, d) = analyze(|a| {
            let msg = a.data_space("msg", 2);
            a.li(Reg::R1, 'H' as i32);
            a.sb(Reg::R1, Reg::R0, msg.offset());
            a.li(Reg::R1, 'i' as i32);
            a.sb(Reg::R1, Reg::R0, msg.at(1).offset());
            a.lb(Reg::R2, Reg::R0, msg.offset());
            a.serial_out(Reg::R2);
            a.lb(Reg::R2, Reg::R0, msg.at(1).offset());
            a.serial_out(Reg::R2);
        });
        let s = d.lifetime_stats();
        assert_eq!(s.classes, 16);
        assert_eq!((s.min, s.max), (3, 3));
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std_dev, 0.0);
        // All lifetimes land in the [2, 4) bucket.
        assert_eq!(s.histogram[1], 16);
        assert_eq!(s.histogram.iter().sum::<u64>(), 16);
    }

    #[test]
    fn median_is_the_conventional_midpoint() {
        // Odd count: the middle element.
        let odd = lifetime_stats_of(vec![9, 1, 5]);
        assert_eq!(odd.median, 5.0);
        // Even count: the mean of the two middle elements, not the
        // upper-middle one.
        let even = lifetime_stats_of(vec![8, 1, 2, 100]);
        assert_eq!(even.median, 5.0);
        let even = lifetime_stats_of(vec![3, 4]);
        assert_eq!(even.median, 3.5);
        // Degenerate cases.
        assert_eq!(lifetime_stats_of(vec![7]).median, 7.0);
        assert_eq!(lifetime_stats_of(Vec::new()).median, 0.0);
    }

    #[test]
    fn lifetime_stats_spread() {
        // One short-lived and one long-lived datum.
        let (_, d) = analyze(|a| {
            let x = a.data_space("x", 2);
            a.li(Reg::R1, 1);
            a.sb(Reg::R1, Reg::R0, x.offset());
            a.lb(Reg::R2, Reg::R0, x.offset()); // weight 1
            a.sb(Reg::R1, Reg::R0, x.at(1).offset());
            for _ in 0..20 {
                a.nop();
            }
            a.lb(Reg::R3, Reg::R0, x.at(1).offset()); // weight 21
        });
        let s = d.lifetime_stats();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 21);
        assert!(s.std_dev > 5.0);
    }

    #[test]
    fn empty_analysis_has_default_stats() {
        let (_, d) = analyze(|a| {
            a.nop();
        });
        assert_eq!(d.lifetime_stats(), LifetimeStats::default());
    }

    #[test]
    fn figure_1b_example_counts() {
        // Reconstruct the paper's Figure 1 setting: 12 cycles × 9 bits,
        // with an 8-bit store at cycle 4 and load at cycle 11 (bit 9 of the
        // figure's axis is never accessed). 108 coordinates collapse to 8
        // experiments.
        use sofi_isa::MemWidth;
        use sofi_machine::{AccessKind, MemAccess};
        let trace = vec![
            MemAccess {
                cycle: 4,
                addr: 0,
                width: MemWidth::Byte,
                kind: AccessKind::Write,
            },
            MemAccess {
                cycle: 11,
                addr: 0,
                width: MemWidth::Byte,
                kind: AccessKind::Read,
            },
        ];
        let tl = Timelines::build(&trace, 9);
        let d = DefUseAnalysis::from_timelines(&tl, 12);
        assert_eq!(d.space.size(), 108);
        assert_eq!(d.experiment_classes().count(), 8);
        // Each experiment class spans cycles 5..=11: weight 7, exactly the
        // "weight of 7" the paper uses in §III-D.
        for c in d.experiment_classes() {
            assert_eq!(c.weight(), 7);
        }
        assert!(d.is_exact_partition());
    }
}
