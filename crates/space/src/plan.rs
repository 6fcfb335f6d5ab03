//! Pruned injection plans.

use crate::coord::{FaultCoord, FaultSpace};
use crate::defuse::{ClassKind, DefUseAnalysis, EquivClass};

/// One planned FI experiment: the representative injection of a def/use
/// equivalence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// Stable identifier (index into the plan).
    pub id: u32,
    /// Injection coordinate (the cycle of the activating read).
    pub coord: FaultCoord,
    /// Equivalence-class size: the number of raw fault-space coordinates
    /// this experiment stands for. **Results must be weighted by this**
    /// (Pitfall 1).
    pub weight: u64,
}

/// The executable outcome of def/use pruning: every experiment to run, plus
/// the bookkeeping needed for correct (weighted) result accounting.
///
/// # Examples
///
/// ```
/// use sofi_isa::{Asm, Reg};
/// use sofi_trace::GoldenRun;
/// use sofi_space::DefUseAnalysis;
///
/// let mut a = Asm::new();
/// let x = a.data_bytes("x", &[1]);
/// a.lb(Reg::R1, Reg::R0, x.offset());
/// let golden = GoldenRun::capture(&a.build()?, 100)?;
/// let plan = DefUseAnalysis::from_golden(&golden).plan();
/// // 8 experiments cover the whole 1-cycle × 8-bit space.
/// assert_eq!(plan.experiments.len(), 8);
/// assert_eq!(plan.known_benign_weight, 0);
/// assert_eq!(plan.total_weight(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionPlan {
    /// The fault space the plan covers.
    pub space: FaultSpace,
    /// Experiments sorted by injection cycle (the campaign executor
    /// exploits this ordering to reuse a forward-running pristine machine).
    pub experiments: Vec<Experiment>,
    /// Combined weight of all coordinates known benign without experiments.
    pub known_benign_weight: u64,
}

impl InjectionPlan {
    /// Builds the plan from a def/use analysis.
    pub fn from_analysis(analysis: &DefUseAnalysis) -> InjectionPlan {
        let mut classes: Vec<&EquivClass> = analysis
            .classes
            .iter()
            .filter(|c| c.kind == ClassKind::Experiment)
            .collect();
        classes.sort_by_key(|c| (c.last_cycle, c.bit));
        let experiments = classes
            .iter()
            .enumerate()
            .map(|(id, c)| Experiment {
                id: id as u32,
                coord: c.representative(),
                weight: c.weight(),
            })
            .collect();
        InjectionPlan {
            space: analysis.space,
            experiments,
            known_benign_weight: analysis.known_benign_weight(),
        }
    }

    /// A brute-force plan with one experiment per raw coordinate (weight 1
    /// each). Only tractable for tiny programs; used to validate pruning
    /// soundness and to demonstrate that pruning is a pure optimization.
    pub fn full_scan(space: FaultSpace) -> InjectionPlan {
        let mut experiments = Vec::with_capacity(space.size() as usize);
        let mut id = 0;
        for cycle in 1..=space.cycles {
            for bit in 0..space.bits {
                experiments.push(Experiment {
                    id,
                    coord: FaultCoord { cycle, bit },
                    weight: 1,
                });
                id += 1;
            }
        }
        InjectionPlan {
            space,
            experiments,
            known_benign_weight: 0,
        }
    }

    /// Total covered weight: experiments + known-benign. Always equals the
    /// fault-space size `w` — pruning must not lose coordinates.
    pub fn total_weight(&self) -> u64 {
        self.experiment_weight() + self.known_benign_weight
    }

    /// Combined weight of all experiments.
    pub fn experiment_weight(&self) -> u64 {
        self.experiments.iter().map(|e| e.weight).sum()
    }

    /// The pruning factor: raw coordinates per conducted experiment.
    pub fn reduction_factor(&self) -> f64 {
        if self.experiments.is_empty() {
            f64::INFINITY
        } else {
            self.space.size() as f64 / self.experiments.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_isa::{Asm, Reg};
    use sofi_trace::GoldenRun;

    #[test]
    fn experiments_sorted_by_cycle() {
        let mut a = Asm::new();
        let x = a.data_bytes("x", &[1, 2]);
        a.lb(Reg::R1, Reg::R0, x.at(1).offset()); // read byte 1 first
        a.lb(Reg::R2, Reg::R0, x.offset()); // then byte 0
        let g = GoldenRun::capture(&a.build().unwrap(), 100).unwrap();
        let plan = DefUseAnalysis::from_golden(&g).plan();
        let cycles: Vec<u64> = plan.experiments.iter().map(|e| e.coord.cycle).collect();
        let mut sorted = cycles.clone();
        sorted.sort_unstable();
        assert_eq!(cycles, sorted);
        assert_eq!(plan.experiments.len(), 16);
        // ids are positional
        for (i, e) in plan.experiments.iter().enumerate() {
            assert_eq!(e.id as usize, i);
        }
    }

    #[test]
    fn full_scan_covers_every_coordinate() {
        let plan = InjectionPlan::full_scan(FaultSpace::new(3, 4));
        assert_eq!(plan.experiments.len(), 12);
        assert_eq!(plan.total_weight(), 12);
        assert_eq!(plan.known_benign_weight, 0);
        assert!((plan.reduction_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plan_weight_partitions_space() {
        let mut a = Asm::new();
        let buf = a.data_space("buf", 4);
        a.li(Reg::R1, 9);
        a.sw(Reg::R1, Reg::R0, buf.offset());
        a.nop();
        a.nop();
        a.lw(Reg::R2, Reg::R0, buf.offset());
        let g = GoldenRun::capture(&a.build().unwrap(), 100).unwrap();
        let plan = DefUseAnalysis::from_golden(&g).plan();
        assert_eq!(plan.total_weight(), g.fault_space_size());
        assert!(plan.reduction_factor() > 1.0);
    }
}
