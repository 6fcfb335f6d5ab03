//! Sampling-based campaigns (§III-B, §III-E, §V-C).

use crate::executor::Campaign;
use crate::outcome::{Outcome, OutcomeClass};
use crate::result::FaultDomain;
use sofi_rng::Rng;
use sofi_space::sample::{self, SampleBatch};
use sofi_space::{ClassIndex, Experiment};

/// How samples are drawn from the fault space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplingMode {
    /// Uniform over the raw fault space `w` (the textbook procedure of
    /// §III-B). Draws landing on known-benign coordinates are counted
    /// without running experiments; several draws in one class share one
    /// conducted experiment (§III-E done right).
    UniformRaw,
    /// Uniform over the non-benign population `w' ≤ w` — classes drawn
    /// proportionally to their weight (§V-C: sound when only failure
    /// counts are extrapolated).
    WeightedClasses,
    /// **Pitfall 2**: classes drawn uniformly from the pruned experiment
    /// list, ignoring weights. Produces biased estimates; retained so the
    /// bias is demonstrable.
    BiasedPerClass,
}

/// One sampled class outcome: the experiment, how many draws hit it, and
/// what the conducted injection observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledOutcome {
    /// The class representative that was injected.
    pub experiment: Experiment,
    /// Number of sample draws that landed in this class.
    pub hits: u64,
    /// The observed outcome (shared by all hits of the class).
    pub outcome: Outcome,
}

/// Result of a sampling campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Which machine component was injected into.
    pub domain: FaultDomain,
    /// How the samples were drawn.
    pub mode: SamplingMode,
    /// Total draws (`N_sampled`).
    pub draws: u64,
    /// The population the draws came from: `w` for [`SamplingMode::UniformRaw`],
    /// `w'` (total experiment-class weight) for the class-based modes.
    /// Extrapolation (Pitfall 3, Corollary 2) multiplies by this.
    pub population: u64,
    /// Draws that hit known-benign coordinates (only nonzero for
    /// [`SamplingMode::UniformRaw`]).
    pub benign_draws: u64,
    /// Outcomes of the classes that were hit.
    pub outcomes: Vec<SampledOutcome>,
}

impl SampledResult {
    /// Number of draws whose class outcome satisfies `pred`.
    pub fn hits_matching(&self, pred: impl Fn(Outcome) -> bool) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| pred(o.outcome))
            .map(|o| o.hits)
            .sum()
    }

    /// Raw sampled failure count `F_sampled` (draws, not experiments).
    pub fn failure_hits(&self) -> u64 {
        self.hits_matching(|o| o.class() == OutcomeClass::Failure)
    }

    /// Number of experiments actually conducted (unique classes hit).
    pub fn experiments_run(&self) -> u64 {
        self.outcomes.len() as u64
    }
}

impl Campaign {
    /// Runs a sampling campaign of `n` draws in the given mode over
    /// `domain`'s fault space ([`FaultDomain::RegisterFile`] samples the
    /// §VI-B register space).
    ///
    /// Only one experiment per *hit class* is conducted; every draw counts
    /// toward the estimate, which is exactly the correct combination of
    /// def/use pruning and sampling prescribed in §III-E.
    pub fn run_sampled_in<R: Rng + ?Sized>(
        &self,
        domain: FaultDomain,
        n: u64,
        mode: SamplingMode,
        rng: &mut R,
    ) -> SampledResult {
        let (plan, analysis) = (self.plan_for(domain), self.analysis_for(domain));
        let batch: SampleBatch = match mode {
            SamplingMode::UniformRaw => {
                let coords = sample::draw_uniform(plan.space, n, rng);
                let index = ClassIndex::new(analysis, plan);
                sample::resolve_draws(&coords, &index)
            }
            SamplingMode::WeightedClasses => sample::draw_weighted_experiments(plan, n, rng),
            SamplingMode::BiasedPerClass => sample::draw_biased_per_class(plan, n, rng),
        };
        let population = match mode {
            SamplingMode::UniformRaw => plan.space.size(),
            SamplingMode::WeightedClasses | SamplingMode::BiasedPerClass => {
                plan.experiment_weight()
            }
        };

        // Conduct one experiment per distinct class hit. An experiment's
        // id is its index into the plan.
        let mut ids: Vec<u32> = batch.experiment_hits.keys().copied().collect();
        ids.sort_unstable();
        let experiments: Vec<Experiment> = ids
            .iter()
            .map(|&id| match plan.experiments.get(id as usize) {
                Some(&e) if e.id == id => e,
                _ => panic!("sampled class id {id} is not in the plan"),
            })
            .collect();
        let (results, _) = self.run_experiments_stats(domain, &experiments);
        let outcomes = results
            .into_iter()
            .map(|r| SampledOutcome {
                experiment: r.experiment,
                hits: batch.experiment_hits[&r.experiment.id],
                outcome: r.outcome,
            })
            .collect();

        SampledResult {
            benchmark: self.program().name.clone(),
            domain,
            mode,
            draws: batch.draws,
            population,
            benign_draws: batch.benign_hits,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn uniform_sampling_estimates_failure_fraction() {
        let c = hi_campaign();
        let mut rng = DefaultRng::seed_from_u64(11);
        let s = c.run_sampled_in(
            FaultDomain::Memory,
            20_000,
            SamplingMode::UniformRaw,
            &mut rng,
        );
        assert_eq!(s.population, 128);
        let accounted: u64 = s.benign_draws + s.outcomes.iter().map(|o| o.hits).sum::<u64>();
        assert_eq!(accounted, s.draws);
        // True failure fraction is 48/128 = 0.375.
        let est = s.failure_hits() as f64 / s.draws as f64;
        assert!((est - 0.375).abs() < 0.02, "estimate {est}");
        // At most 16 experiments were conducted for 20k draws.
        assert!(s.experiments_run() <= 16);
    }

    #[test]
    fn weighted_sampling_uses_reduced_population() {
        let c = hi_campaign();
        let mut rng = DefaultRng::seed_from_u64(12);
        let s = c.run_sampled_in(
            FaultDomain::Memory,
            5_000,
            SamplingMode::WeightedClasses,
            &mut rng,
        );
        assert_eq!(s.population, 48); // w' = experiment weight only
        assert_eq!(s.benign_draws, 0);
        // Every class of "hi" fails, so all draws are failures.
        assert_eq!(s.failure_hits(), 5_000);
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let c = hi_campaign();
        let s1 = c.run_sampled_in(
            FaultDomain::Memory,
            500,
            SamplingMode::UniformRaw,
            &mut DefaultRng::seed_from_u64(7),
        );
        let s2 = c.run_sampled_in(
            FaultDomain::Memory,
            500,
            SamplingMode::UniformRaw,
            &mut DefaultRng::seed_from_u64(7),
        );
        assert_eq!(s1, s2);
    }

    #[test]
    fn biased_mode_reports_class_population() {
        let c = hi_campaign();
        let mut rng = DefaultRng::seed_from_u64(13);
        let s = c.run_sampled_in(
            FaultDomain::Memory,
            100,
            SamplingMode::BiasedPerClass,
            &mut rng,
        );
        assert_eq!(s.population, 48);
        assert_eq!(s.draws, 100);
    }
}
