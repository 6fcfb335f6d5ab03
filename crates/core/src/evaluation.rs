//! End-to-end baseline-vs-hardened evaluation.

use sofi_campaign::{Campaign, CampaignResult, FaultDomain, SampledResult, SamplingMode};
use sofi_isa::Program;
use sofi_metrics::{
    compare_failures, exact_failures, extrapolated_failures, fault_coverage, Comparison, Weighting,
};
use sofi_trace::GoldenError;

/// A completed baseline-vs-hardened comparison: both campaigns' results
/// plus the metric computations, correct and (for demonstration) wrong.
///
/// See the [crate docs](crate) for a quickstart.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Full-scan result of the baseline variant.
    pub baseline: CampaignResult,
    /// Full-scan result of the hardened variant.
    pub hardened: CampaignResult,
}

impl Evaluation {
    /// Runs full def/use fault-space scans on both variants.
    ///
    /// # Errors
    ///
    /// Returns [`GoldenError`] if either program's fault-free run fails.
    pub fn full_scan(baseline: &Program, hardened: &Program) -> Result<Evaluation, GoldenError> {
        let cb = Campaign::new(baseline)?;
        let ch = Campaign::new(hardened)?;
        Ok(Evaluation {
            baseline: cb.run_full_defuse_in(FaultDomain::Memory),
            hardened: ch.run_full_defuse_in(FaultDomain::Memory),
        })
    }

    /// The paper's sound comparison: `r = F_hardened / F_baseline`
    /// over weighted absolute failure counts (`r < 1` ⇔ improvement).
    ///
    /// # Panics
    ///
    /// Panics if the baseline has zero failures (ratio undefined).
    pub fn comparison(&self) -> Comparison {
        compare_failures(
            &exact_failures(&self.baseline),
            &exact_failures(&self.hardened),
        )
    }

    /// Fault coverages `(baseline, hardened)` — **not** a valid comparison
    /// metric (Pitfall 3); exposed for demonstrating exactly that.
    pub fn coverages(&self, weighting: Weighting) -> (f64, f64) {
        (
            fault_coverage(&self.baseline, weighting),
            fault_coverage(&self.hardened, weighting),
        )
    }

    /// Weighted absolute failure counts `(baseline, hardened)`.
    pub fn failure_counts(&self) -> (u64, u64) {
        (
            self.baseline.failure_weight(),
            self.hardened.failure_weight(),
        )
    }
}

/// Compares two independently obtained sampling campaigns by extrapolated
/// failure counts (§V-C, avoiding Pitfall 3's corollaries). The sample
/// sizes may differ — extrapolation normalizes them.
///
/// # Panics
///
/// Panics if either sample is empty or the baseline extrapolates to zero
/// failures.
pub fn compare_sampled(
    baseline: &SampledResult,
    hardened: &SampledResult,
    confidence: f64,
) -> Comparison {
    compare_failures(
        &extrapolated_failures(baseline, confidence),
        &extrapolated_failures(hardened, confidence),
    )
}

/// Convenience re-run of a pair of sampling campaigns with a common setup.
///
/// # Errors
///
/// Returns [`GoldenError`] if either program's fault-free run fails.
pub fn sampled_pair<R: sofi_rng::Rng + ?Sized>(
    baseline: &Program,
    hardened: &Program,
    draws: u64,
    mode: SamplingMode,
    rng: &mut R,
) -> Result<(SampledResult, SampledResult), GoldenError> {
    let cb = Campaign::new(baseline)?;
    let ch = Campaign::new(hardened)?;
    Ok((
        cb.run_sampled_in(FaultDomain::Memory, draws, mode, rng),
        ch.run_sampled_in(FaultDomain::Memory, draws, mode, rng),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_metrics::Weighting;
    use sofi_workloads::{fib, hi, hi_dft, hi_dft_prime, Variant};

    #[test]
    fn dilution_fools_coverage_but_not_failure_counts() {
        let eval = Evaluation::full_scan(&hi(), &hi_dft(4)).unwrap();
        let (cb, ch) = eval.coverages(Weighting::Weighted);
        assert_eq!(cb, 0.625);
        assert_eq!(ch, 0.75);
        assert_eq!(eval.failure_counts(), (48, 48));
        let cmp = eval.comparison();
        assert_eq!(cmp.ratio, 1.0);
        assert!(!cmp.improves());
    }

    #[test]
    fn dft_prime_equally_futile() {
        let eval = Evaluation::full_scan(&hi(), &hi_dft_prime(4)).unwrap();
        let (_, ch) = eval.coverages(Weighting::Weighted);
        assert_eq!(ch, 0.75);
        assert_eq!(eval.comparison().ratio, 1.0);
    }

    #[test]
    fn real_protection_actually_improves() {
        let eval = Evaluation::full_scan(&fib(Variant::Baseline), &fib(Variant::SumDmr)).unwrap();
        let cmp = eval.comparison();
        assert!(
            cmp.improves(),
            "SUM+DMR fib should reduce failures, got r = {}",
            cmp.ratio
        );
    }
}
