//! The Poisson fault-count model (§III-A, Table I).
//!
//! With uniformly distributed independent single-bit flips at per-bit rate
//! `g`, the number of faults hitting one benchmark run of fault-space size
//! `w = Δt · Δm` is Poisson-distributed with `λ = g·w` (Eq. 1):
//!
//! ```text
//! P_λ(k) = λ^k / k! · e^{-λ}
//! ```
//!
//! For realistic DRAM soft-error rates λ is tiny, which justifies the
//! single-fault-per-experiment methodology: `P(k ≥ 2)` is negligible
//! relative to `P(1)`.

/// Published DRAM soft-error rates in FIT/Mbit the paper averages:
/// 0.061 \[Sridharan & Liberty], 0.066 \[Sridharan et al.], 0.044
/// \[the 2013 large-scale field study].
pub const DRAM_FIT_RATES: [f64; 3] = [0.061, 0.066, 0.044];

/// Mean of [`DRAM_FIT_RATES`]: 0.057 FIT/Mbit, the paper's working value.
pub const MEAN_FIT_PER_MBIT: f64 =
    (DRAM_FIT_RATES[0] + DRAM_FIT_RATES[1] + DRAM_FIT_RATES[2]) / 3.0;

/// Converts a FIT/Mbit rate into the per-bit per-nanosecond rate `g`
/// (1 FIT = one failure per 10⁹ hours; 1 Mbit = 10⁶ bits).
///
/// For 0.057 FIT/Mbit this yields ≈ 1.6 · 10⁻²⁹ /(ns·bit), matching the
/// paper's derivation in §III-A.
///
/// # Examples
///
/// ```
/// let g = sofi_metrics::poisson::fit_per_mbit_to_per_bit_ns(sofi_metrics::MEAN_FIT_PER_MBIT);
/// assert!((g - 1.58e-29).abs() < 0.05e-29);
/// ```
pub fn fit_per_mbit_to_per_bit_ns(fit_per_mbit: f64) -> f64 {
    // failures / (1e9 h · 1e6 bit) → h = 3600e9 ns
    fit_per_mbit / (1e9 * 3600.0 * 1e9 * 1e6)
}

/// The Poisson fault-occurrence model for one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonModel {
    /// Per-bit per-cycle fault rate `g` (the simplistic CPU runs at
    /// 1 GHz, so cycles and nanoseconds coincide).
    pub g: f64,
}

impl Default for PoissonModel {
    /// The paper's working model: `g` from the mean DRAM FIT rate.
    fn default() -> Self {
        PoissonModel {
            g: fit_per_mbit_to_per_bit_ns(MEAN_FIT_PER_MBIT),
        }
    }
}

impl PoissonModel {
    /// Creates a model with an explicit rate.
    pub fn new(g: f64) -> PoissonModel {
        PoissonModel { g }
    }

    /// The Poisson parameter `λ = g · w` for fault-space size `w`.
    pub fn lambda(&self, fault_space: f64) -> f64 {
        self.g * fault_space
    }

    /// `P_λ(k)`: probability of exactly `k` independent faults hitting a
    /// run with fault-space size `fault_space` (Eq. 1).
    pub fn p_faults(&self, k: u32, fault_space: f64) -> f64 {
        let lambda = self.lambda(fault_space);
        poisson_pmf(k, lambda)
    }

    /// The paper's single-fault approximation of the failure probability
    /// (Eq. 5): `P(Failure) ≈ F · g · e^{-g·w}` where `F` is the absolute
    /// (weighted or extrapolated) failure count.
    pub fn failure_probability(&self, failures: f64, fault_space: f64) -> f64 {
        failures * self.g * (-self.lambda(fault_space)).exp()
    }
}

/// Poisson probability mass function, numerically stable for tiny λ.
pub fn poisson_pmf(k: u32, lambda: f64) -> f64 {
    if lambda == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    // ln P = k·ln λ − λ − ln k!
    let mut ln_fact = 0.0;
    for i in 2..=k {
        ln_fact += (i as f64).ln();
    }
    ((k as f64) * lambda.ln() - lambda - ln_fact).exp()
}

/// One row of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Fault count `k`.
    pub k: u32,
    /// `P_λ(k Faults)`.
    pub probability: f64,
}

/// Regenerates Table I: Poisson probabilities for `k = 0..=k_max` faults
/// hitting one run of the paper's example benchmark (`Δt` = 10⁹ cycles,
/// i.e. 1 s at 1 GHz; `Δm` = 1 MiB = 2²³ bits).
///
/// # Examples
///
/// ```
/// let rows = sofi_metrics::table1(5);
/// assert!(rows[0].probability > 0.999_999_999);          // k = 0 dominates
/// assert!(rows[1].probability < 2e-13);                  // one fault: ~1.3e-13
/// assert!(rows[2].probability < rows[1].probability * 1e-12); // k = 2 negligible
/// ```
pub fn table1(k_max: u32) -> Vec<Table1Row> {
    let model = PoissonModel::default();
    // Δt = 1 s = 1e9 cycles; Δm = 1 MiB = 8 Mibit = 2^23 bits.
    let w = 1e9 * (8.0 * 1024.0 * 1024.0);
    (0..=k_max)
        .map(|k| Table1Row {
            k,
            probability: model.p_faults(k, w),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_conversion_matches_paper() {
        // The paper derives g ≈ 1.6e-29 per ns·bit from 0.057 FIT/Mbit.
        let g = fit_per_mbit_to_per_bit_ns(MEAN_FIT_PER_MBIT);
        assert!((g / 1.6e-29 - 1.0).abs() < 0.02, "g = {g:e}");
    }

    #[test]
    fn pmf_sums_to_one() {
        for &lambda in &[0.1, 1.0, 5.0] {
            let total: f64 = (0..200).map(|k| poisson_pmf(k, lambda)).sum();
            assert!((total - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn pmf_edge_cases() {
        assert_eq!(poisson_pmf(0, 0.0), 1.0);
        assert_eq!(poisson_pmf(3, 0.0), 0.0);
        assert!((poisson_pmf(0, 1.0) - (-1.0f64).exp()).abs() < 1e-15);
        assert!((poisson_pmf(1, 1.0) - (-1.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn table1_shape_matches_paper() {
        let rows = table1(5);
        assert_eq!(rows.len(), 6);
        // k = 0 is overwhelmingly likely.
        assert!(rows[0].probability > 0.999_999_999_999);
        // λ ≈ 1.33e-13 for 1 s × 1 MiB at g = 1.583e-29.
        let lambda = PoissonModel::default().lambda(1e9 * 8_388_608.0);
        assert!((lambda / 1.33e-13 - 1.0).abs() < 0.02, "λ = {lambda:e}");
        assert!((rows[1].probability / lambda - 1.0).abs() < 1e-9);
        // Each further fault is ~13 orders of magnitude less likely: the
        // justification for single-fault injection (§III-A).
        for pair in rows.windows(2).skip(1) {
            assert!(pair[1].probability < pair[0].probability * 1e-12);
        }
    }

    #[test]
    fn failure_probability_proportional_to_f() {
        // Eq. 6: P(Failure) ∝ F for fixed g (e^{-gw} ≈ 1).
        let m = PoissonModel::default();
        let w = 1e6 * 8192.0;
        let p1 = m.failure_probability(100.0, w);
        let p2 = m.failure_probability(500.0, w);
        assert!((p2 / p1 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn exp_correction_is_negligible() {
        // §V-A: 1 − e^{-gw} < 1e-12 for the example magnitudes.
        let m = PoissonModel::default();
        let w = 1e9 * 8_388_608.0;
        assert!(1.0 - (-m.lambda(w)).exp() < 1e-12);
    }
}
