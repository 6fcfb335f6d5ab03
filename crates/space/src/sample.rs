//! Fault sampling strategies (§III-B, §III-E, §V-C).
//!
//! Three samplers, two of them correct and one deliberately wrong:
//!
//! * [`draw_uniform`] — the textbook approach: coordinates drawn uniformly
//!   (with replacement) from the **raw** fault space. Combined with a
//!   [`crate::ClassIndex`], several draws landing in one def/use class cost
//!   a single conducted experiment while each draw still counts in the
//!   estimate — the practice §III-E prescribes.
//! * [`draw_weighted_experiments`] — uniform sampling restricted to the
//!   non-benign population `w' ≤ w` (§V-C: known "No Effect" classes need
//!   not be sampled when only failure counts matter). Classes are drawn
//!   with probability proportional to their *weight*.
//! * [`draw_biased_per_class`] — **Pitfall 2**: draws uniformly from the
//!   pruned experiment *list*, ignoring weights. Every class is equally
//!   likely regardless of how many raw coordinates it represents, which
//!   skews any estimate computed from the samples. Provided so the bias
//!   can be demonstrated and regression-tested.

use crate::coord::{FaultCoord, FaultSpace};
use crate::index::{ClassIndex, ClassRef};
use crate::plan::InjectionPlan;
use sofi_rng::Rng;
use std::collections::HashMap;

/// A batch of raw-fault-space sample draws resolved to their classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleBatch {
    /// Number of draws (`N_sampled`).
    pub draws: u64,
    /// Draws per experiment class (`id → hits`). Only classes with at
    /// least one hit appear; one experiment per key must be conducted.
    pub experiment_hits: HashMap<u32, u64>,
    /// Draws that landed on known-benign coordinates (no experiments).
    pub benign_hits: u64,
}

/// Draws `n` coordinates uniformly (with replacement) from the raw fault
/// space.
pub fn draw_uniform<R: Rng + ?Sized>(space: FaultSpace, n: u64, rng: &mut R) -> Vec<FaultCoord> {
    let size = space.size();
    assert!(size > 0, "cannot sample an empty fault space");
    (0..n)
        .map(|_| space.coord_of_index(rng.gen_range(0..size)))
        .collect()
}

/// Resolves raw draws into a [`SampleBatch`] via the class index.
pub fn resolve_draws(coords: &[FaultCoord], index: &ClassIndex) -> SampleBatch {
    let mut experiment_hits: HashMap<u32, u64> = HashMap::new();
    let mut benign_hits = 0;
    for &coord in coords {
        match index.lookup(coord) {
            ClassRef::Experiment(id) => *experiment_hits.entry(id).or_default() += 1,
            ClassRef::KnownBenign => benign_hits += 1,
        }
    }
    SampleBatch {
        draws: coords.len() as u64,
        experiment_hits,
        benign_hits,
    }
}

/// Draws `n` experiment classes with probability proportional to their
/// weight — equivalent to uniform raw-space sampling conditioned on hitting
/// a non-benign coordinate (population `w'`, §V-C).
pub fn draw_weighted_experiments<R: Rng + ?Sized>(
    plan: &InjectionPlan,
    n: u64,
    rng: &mut R,
) -> SampleBatch {
    assert!(
        !plan.experiments.is_empty(),
        "plan has no experiment classes to sample"
    );
    // Cumulative weights for binary search.
    let mut cum = Vec::with_capacity(plan.experiments.len());
    let mut total = 0u64;
    for e in &plan.experiments {
        total += e.weight;
        cum.push(total);
    }
    let mut experiment_hits: HashMap<u32, u64> = HashMap::new();
    for _ in 0..n {
        let x = rng.gen_range(0..total);
        let pos = cum.partition_point(|&c| c <= x);
        *experiment_hits.entry(plan.experiments[pos].id).or_default() += 1;
    }
    SampleBatch {
        draws: n,
        experiment_hits,
        benign_hits: 0,
    }
}

/// **Pitfall 2 (biased sampling)**: draws `n` classes uniformly from the
/// pruned experiment list, ignoring class weights. The returned batch looks
/// like a legitimate sample but its distribution is skewed toward
/// short-lived data. Never use this for real estimates.
pub fn draw_biased_per_class<R: Rng + ?Sized>(
    plan: &InjectionPlan,
    n: u64,
    rng: &mut R,
) -> SampleBatch {
    assert!(
        !plan.experiments.is_empty(),
        "plan has no experiment classes to sample"
    );
    let mut experiment_hits: HashMap<u32, u64> = HashMap::new();
    for _ in 0..n {
        let pos = rng.gen_range(0..plan.experiments.len());
        *experiment_hits.entry(plan.experiments[pos].id).or_default() += 1;
    }
    SampleBatch {
        draws: n,
        experiment_hits,
        benign_hits: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defuse::DefUseAnalysis;
    use sofi_isa::{Asm, Reg};
    use sofi_rng::DefaultRng;
    use sofi_trace::GoldenRun;

    fn fixture() -> (DefUseAnalysis, InjectionPlan, ClassIndex) {
        // One short-lived and one long-lived byte: weights differ 1 : 13.
        let mut a = Asm::new();
        let x = a.data_space("x", 2);
        a.li(Reg::R1, 1); // 1
        a.sb(Reg::R1, Reg::R0, x.offset()); // 2  W b0
        a.lb(Reg::R2, Reg::R0, x.offset()); // 3  R b0  (weight 1)
        a.sb(Reg::R1, Reg::R0, x.at(1).offset()); // 4  W b1
        for _ in 0..11 {
            a.nop(); // 5..=15
        }
        a.lb(Reg::R3, Reg::R0, x.at(1).offset()); // 16 R b1 (weight 12)
        let g = GoldenRun::capture(&a.build().unwrap(), 1_000).unwrap();
        let analysis = DefUseAnalysis::from_golden(&g);
        let plan = analysis.plan();
        let index = ClassIndex::new(&analysis, &plan);
        (analysis, plan, index)
    }

    #[test]
    fn uniform_draws_stay_in_space() {
        let (analysis, _, _) = fixture();
        let mut rng = DefaultRng::seed_from_u64(1);
        for c in draw_uniform(analysis.space, 1_000, &mut rng) {
            assert!(analysis.space.contains(c));
        }
    }

    #[test]
    fn resolve_accounts_every_draw() {
        let (analysis, _, index) = fixture();
        let mut rng = DefaultRng::seed_from_u64(2);
        let coords = draw_uniform(analysis.space, 5_000, &mut rng);
        let batch = resolve_draws(&coords, &index);
        let exp_total: u64 = batch.experiment_hits.values().sum();
        assert_eq!(exp_total + batch.benign_hits, batch.draws);
        assert!(batch.experiment_hits.len() <= 16);
    }

    #[test]
    fn uniform_hit_rates_follow_weights() {
        let (analysis, plan, index) = fixture();
        let mut rng = DefaultRng::seed_from_u64(3);
        let n = 200_000;
        let coords = draw_uniform(analysis.space, n, &mut rng);
        let batch = resolve_draws(&coords, &index);
        // Expected fraction of non-benign draws = w_exp / w.
        let w = analysis.space.size() as f64;
        let w_exp = plan.experiment_weight() as f64;
        let got = (n - batch.benign_hits) as f64 / n as f64;
        assert!((got - w_exp / w).abs() < 0.01, "got {got}");
    }

    #[test]
    fn weighted_sampler_respects_weights() {
        let (_, plan, _) = fixture();
        let mut rng = DefaultRng::seed_from_u64(4);
        let n = 100_000;
        let batch = draw_weighted_experiments(&plan, n, &mut rng);
        // Long-lived classes (weight 12) get ~12× the hits of weight-1 ones.
        let total_w = plan.experiment_weight() as f64;
        for e in &plan.experiments {
            let hits = batch.experiment_hits.get(&e.id).copied().unwrap_or(0) as f64;
            let expect = n as f64 * e.weight as f64 / total_w;
            assert!(
                (hits - expect).abs() < expect * 0.25 + 30.0,
                "class {} hits {hits} expect {expect}",
                e.id
            );
        }
        assert_eq!(batch.benign_hits, 0);
    }

    #[test]
    fn biased_sampler_is_uniform_per_class() {
        let (_, plan, _) = fixture();
        let mut rng = DefaultRng::seed_from_u64(5);
        let n = 100_000;
        let batch = draw_biased_per_class(&plan, n, &mut rng);
        let expect = n as f64 / plan.experiments.len() as f64;
        for e in &plan.experiments {
            let hits = batch.experiment_hits.get(&e.id).copied().unwrap_or(0) as f64;
            assert!(
                (hits - expect).abs() < expect * 0.2,
                "class {} hits {hits} expect {expect}",
                e.id
            );
        }
    }

    #[test]
    fn biased_and_weighted_disagree() {
        // The essence of Pitfall 2: with unequal weights the two samplers
        // produce measurably different hit distributions.
        let (_, plan, _) = fixture();
        let mut rng = DefaultRng::seed_from_u64(6);
        let n = 50_000;
        let biased = draw_biased_per_class(&plan, n, &mut rng);
        let weighted = draw_weighted_experiments(&plan, n, &mut rng);
        // Compare hits on a weight-12 class.
        let heavy = plan
            .experiments
            .iter()
            .find(|e| e.weight == 12)
            .expect("fixture has a weight-12 class");
        let hb = biased.experiment_hits.get(&heavy.id).copied().unwrap_or(0) as f64;
        let hw = weighted
            .experiment_hits
            .get(&heavy.id)
            .copied()
            .unwrap_or(0) as f64;
        // Weighted expectation: n·12/104 ≈ 5769; biased: n/16 = 3125.
        assert!(hw > hb * 1.5, "weighted {hw} vs biased {hb}");
    }

    #[test]
    #[should_panic(expected = "empty fault space")]
    fn sampling_empty_space_panics() {
        let mut rng = DefaultRng::seed_from_u64(0);
        draw_uniform(FaultSpace::new(0, 8), 1, &mut rng);
    }
}
