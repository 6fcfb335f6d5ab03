//! Benchmark comparison (§I, §V).
//!
//! The ground truth for "does hardening help?" is the ratio of absolute
//! failure probabilities, which by Eq. 6 reduces to the ratio of absolute
//! (extrapolated) failure counts:
//!
//! ```text
//! r = P(Failure)_hardened / P(Failure)_baseline
//!   = (w_h · F_h,sampled / N_h,sampled) / (w_b · F_b,sampled / N_b,sampled)
//! ```
//!
//! with `r < 1` iff the hardened variant improves. For full scans the
//! formula collapses to `r = F_hardened / F_baseline`.

use crate::coverage::{fault_coverage, Weighting};
use crate::failure::FailureEstimate;
use sofi_campaign::CampaignResult;
use std::fmt;

/// Result of comparing a hardened variant against its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The ratio `r = F_hardened / F_baseline`.
    pub ratio: f64,
    /// Conservative bounds on `r` from the operands' confidence intervals
    /// (`[F_h.lo / F_b.hi, F_h.hi / F_b.lo]`).
    pub ci: (f64, f64),
}

impl Comparison {
    /// `true` iff the hardened variant reduces the failure count
    /// (`r < 1`).
    pub fn improves(&self) -> bool {
        self.ratio < 1.0
    }

    /// `true` if the confidence interval excludes 1 (the verdict is
    /// statistically unambiguous at the interval's level).
    pub fn conclusive(&self) -> bool {
        self.ci.1 < 1.0 || self.ci.0 > 1.0
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.ratio < 1.0 {
            "improves"
        } else if self.ratio == 1.0 {
            "no change"
        } else {
            "worsens"
        };
        write!(
            f,
            "r = {:.3} [{:.3}, {:.3}] ({verdict})",
            self.ratio, self.ci.0, self.ci.1
        )
    }
}

/// Compares two failure estimates: the paper's sound metric.
///
/// # Panics
///
/// Panics if the baseline estimate is zero — a benchmark without any
/// failing coordinate cannot be improved upon and the ratio is undefined.
pub fn compare_failures(baseline: &FailureEstimate, hardened: &FailureEstimate) -> Comparison {
    assert!(
        baseline.failures > 0.0,
        "baseline failure count is zero; ratio undefined"
    );
    let ratio = hardened.failures / baseline.failures;
    let lo = if baseline.ci.1 > 0.0 {
        hardened.ci.0 / baseline.ci.1
    } else {
        f64::INFINITY
    };
    let hi = if baseline.ci.0 > 0.0 {
        hardened.ci.1 / baseline.ci.0
    } else {
        f64::INFINITY
    };
    Comparison {
        ratio,
        ci: (lo, hi),
    }
}

/// **The defective comparison of §IV** — compares fault coverages and
/// declares the higher-coverage variant better. Provided only to
/// demonstrate the Fault-Space Dilution Delusion: any program can raise
/// its coverage arbitrarily by padding runtime or memory, without removing
/// a single failure.
///
/// Returns `(coverage_baseline, coverage_hardened, "hardened wins?")`.
pub fn compare_coverage_wrong(
    baseline: &CampaignResult,
    hardened: &CampaignResult,
    weighting: Weighting,
) -> (f64, f64, bool) {
    let cb = fault_coverage(baseline, weighting);
    let ch = fault_coverage(hardened, weighting);
    (cb, ch, ch > cb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(f: f64, lo: f64, hi: f64) -> FailureEstimate {
        FailureEstimate {
            failures: f,
            ci: (lo, hi),
            exact: false,
        }
    }

    #[test]
    fn ratio_and_verdict() {
        let c = compare_failures(&est(100.0, 90.0, 110.0), &est(20.0, 15.0, 25.0));
        assert!((c.ratio - 0.2).abs() < 1e-12);
        assert!(c.improves());
        assert!(c.conclusive()); // 25/90 < 1
    }

    #[test]
    fn worsening_detected() {
        let c = compare_failures(&est(100.0, 95.0, 105.0), &est(520.0, 500.0, 540.0));
        assert!(c.ratio > 5.0);
        assert!(!c.improves());
        assert!(c.conclusive());
    }

    #[test]
    fn overlapping_intervals_are_inconclusive() {
        let c = compare_failures(&est(100.0, 60.0, 140.0), &est(95.0, 55.0, 135.0));
        assert!(!c.conclusive());
    }

    #[test]
    fn exact_comparison_has_tight_ci() {
        let b = FailureEstimate {
            failures: 48.0,
            ci: (48.0, 48.0),
            exact: true,
        };
        let h = FailureEstimate {
            failures: 12.0,
            ci: (12.0, 12.0),
            exact: true,
        };
        let c = compare_failures(&b, &h);
        assert_eq!(c.ratio, 0.25);
        assert_eq!(c.ci, (0.25, 0.25));
    }

    #[test]
    #[should_panic(expected = "ratio undefined")]
    fn zero_baseline_panics() {
        compare_failures(&est(0.0, 0.0, 0.0), &est(1.0, 1.0, 1.0));
    }

    #[test]
    fn display_format() {
        let c = compare_failures(&est(10.0, 10.0, 10.0), &est(5.0, 5.0, 5.0));
        assert_eq!(c.to_string(), "r = 0.500 [0.500, 0.500] (improves)");
    }
}
