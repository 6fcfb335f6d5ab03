//! Absolute failure counts — the paper's sound comparison metric (§V).
//!
//! By Eq. 5/6 the ground-truth failure probability of a benchmark run is
//! proportional to its absolute failure count `F` over the full fault
//! space (`P(Failure) ≈ F · g`, with `e^{-gw} ≈ 1`). `F` comes either
//! exactly from a weighted full scan, or extrapolated from samples:
//! `F_ext = population · F_sampled / N_sampled` (Pitfall 3, Corollary 2 —
//! raw sample counts are *not* comparable across benchmarks because
//! `N_sampled` is chosen by the experimenter).

use crate::confidence::wilson_interval;
use sofi_campaign::{CampaignResult, SampledResult};

/// An absolute failure count, exact or estimated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEstimate {
    /// The failure count `F` (extrapolated to the population for sampled
    /// campaigns).
    pub failures: f64,
    /// Confidence bounds on `failures` (equal to the point value for exact
    /// scans).
    pub ci: (f64, f64),
    /// `true` if this is an exact full-scan count.
    pub exact: bool,
}

/// Exact weighted failure count from a full fault-space scan.
///
/// # Examples
///
/// ```
/// # use sofi_isa::{Asm, Reg};
/// # use sofi_campaign::{Campaign, FaultDomain};
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
/// let f = sofi_metrics::exact_failures(&result);
/// assert_eq!(f.failures, 48.0); // the paper's "Hi" benchmark
/// assert!(f.exact);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn exact_failures(result: &CampaignResult) -> FailureEstimate {
    let f = result.failure_weight() as f64;
    FailureEstimate {
        failures: f,
        ci: (f, f),
        exact: true,
    }
}

/// Extrapolates a sampled failure count to the population
/// (`F_ext = population · F_sampled / N_sampled`), with a Wilson interval
/// scaled by the same factor.
///
/// The `population` recorded in the [`SampledResult`] is `w` for raw-space
/// samples and `w'` for weight-proportional class samples; in both cases
/// the extrapolated value estimates the same full-space `F` (known-benign
/// coordinates contribute zero failures by construction, §V-C).
///
/// # Panics
///
/// Panics if the sample is empty.
pub fn extrapolated_failures(sampled: &SampledResult, confidence: f64) -> FailureEstimate {
    assert!(sampled.draws > 0, "cannot extrapolate an empty sample");
    let pop = sampled.population as f64;
    let fails = sampled.failure_hits();
    let (lo, hi) = wilson_interval(fails, sampled.draws, confidence);
    FailureEstimate {
        failures: pop * fails as f64 / sampled.draws as f64,
        ci: (pop * lo, pop * hi),
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_campaign::{Campaign, FaultDomain, SamplingMode};
    use sofi_isa::{Asm, Reg};
    use sofi_rng::DefaultRng;

    fn hi_campaign() -> Campaign {
        let mut a = Asm::with_name("hi");
        let msg = a.data_space("msg", 2);
        a.li(Reg::R1, 'H' as i32);
        a.sb(Reg::R1, Reg::R0, msg.offset());
        a.li(Reg::R1, 'i' as i32);
        a.sb(Reg::R1, Reg::R0, msg.at(1).offset());
        a.lb(Reg::R2, Reg::R0, msg.offset());
        a.serial_out(Reg::R2);
        a.lb(Reg::R2, Reg::R0, msg.at(1).offset());
        a.serial_out(Reg::R2);
        Campaign::new(&a.build().unwrap()).unwrap()
    }

    #[test]
    fn raw_space_extrapolation_recovers_exact_f() {
        let c = hi_campaign();
        let exact = exact_failures(&c.run_full_defuse_in(FaultDomain::Memory));
        let mut rng = DefaultRng::seed_from_u64(21);
        let s = c.run_sampled_in(
            FaultDomain::Memory,
            40_000,
            SamplingMode::UniformRaw,
            &mut rng,
        );
        let est = extrapolated_failures(&s, 0.95);
        assert!(!est.exact);
        assert!(
            (est.failures - exact.failures).abs() < 3.0,
            "estimate {} vs exact {}",
            est.failures,
            exact.failures
        );
        assert!(est.ci.0 <= exact.failures && exact.failures <= est.ci.1);
    }

    #[test]
    fn weighted_class_extrapolation_recovers_exact_f() {
        let c = hi_campaign();
        let exact = exact_failures(&c.run_full_defuse_in(FaultDomain::Memory));
        let mut rng = DefaultRng::seed_from_u64(22);
        let s = c.run_sampled_in(
            FaultDomain::Memory,
            5_000,
            SamplingMode::WeightedClasses,
            &mut rng,
        );
        let est = extrapolated_failures(&s, 0.95);
        // Every "hi" class fails, so the w'-restricted estimate is exact.
        assert_eq!(est.failures, exact.failures);
    }

    #[test]
    fn raw_sample_counts_are_not_comparable() {
        // Pitfall 3 Corollary 2: the raw F_sampled depends on N_sampled,
        // the extrapolated value does not.
        let c = hi_campaign();
        let s_small = c.run_sampled_in(
            FaultDomain::Memory,
            1_000,
            SamplingMode::UniformRaw,
            &mut DefaultRng::seed_from_u64(1),
        );
        let s_big = c.run_sampled_in(
            FaultDomain::Memory,
            32_000,
            SamplingMode::UniformRaw,
            &mut DefaultRng::seed_from_u64(2),
        );
        // Raw counts differ by ~32×…
        assert!(s_big.failure_hits() > s_small.failure_hits() * 20);
        // …extrapolated counts agree.
        let f_small = extrapolated_failures(&s_small, 0.95).failures;
        let f_big = extrapolated_failures(&s_big, 0.95).failures;
        assert!((f_small - f_big).abs() < 6.0, "{f_small} vs {f_big}");
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let s = SampledResult {
            benchmark: "t".into(),
            domain: sofi_campaign::FaultDomain::Memory,
            mode: SamplingMode::UniformRaw,
            draws: 0,
            population: 10,
            benign_draws: 0,
            outcomes: vec![],
        };
        extrapolated_failures(&s, 0.95);
    }
}
