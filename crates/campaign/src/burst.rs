//! Multi-bit (burst) fault model — §VIII future work.
//!
//! The paper restricts itself to independent single-bit flips but names
//! "different fault models" as the natural next step. Adjacent multi-bit
//! upsets are the most common non-single-bit DRAM event, so this module
//! adds *burst* campaigns: one fault flips `width` adjacent bits at the
//! same cycle.
//!
//! Def/use equivalence no longer collapses the space (the burst spans
//! several per-bit classes), so burst campaigns are sampling-only, with
//! one conservative optimization retained: a burst whose member bits are
//! *all* known-benign (each overwritten or never read) is benign without
//! an experiment — overwriting or never reading a bit masks it regardless
//! of what happened to its neighbours. Every other draw is one experiment
//! of the executor, which injects the burst and runs it on the path every
//! plan scan takes, held to naive replay at the same width.

use crate::executor::{Campaign, Fault};
use crate::outcome::{Outcome, OutcomeClass};
use crate::result::FaultDomain;
use sofi_rng::Rng;
use sofi_space::{ClassIndex, ClassRef, Experiment, FaultCoord, FaultSpace};

/// Result of a burst-fault sampling campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSampledResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Which machine component the bursts were injected into.
    pub domain: FaultDomain,
    /// Bits flipped per fault (1 = the paper's base model).
    pub width: u32,
    /// Total draws.
    pub draws: u64,
    /// Population size: `Δt · (Δm − width + 1)` burst anchor positions.
    pub population: u64,
    /// Draws skipped as a-priori benign (every member bit known-benign).
    pub benign_skips: u64,
    /// Draws whose experiment produced a failure.
    pub failure_draws: u64,
    /// Per-outcome-kind draw counts (indexed as `Outcome::KINDS`).
    pub by_kind: [u64; 8],
}

impl BurstSampledResult {
    /// Extrapolated absolute failure count
    /// (`F_ext = population · failures / draws`, Pitfall 3 Corollary 2 —
    /// it applies to any fault model).
    pub fn extrapolated_failures(&self) -> f64 {
        self.population as f64 * self.failure_draws as f64 / self.draws.max(1) as f64
    }
}

impl Campaign {
    /// Runs a sampling campaign under the burst fault model: each of the
    /// `n` draws picks a uniform (cycle, anchor-bit) coordinate of
    /// `domain` and flips `width` adjacent bits at once.
    ///
    /// `width = 1` reproduces the single-bit model (useful for validating
    /// the estimator against [`Campaign::run_sampled_in`]).
    ///
    /// Adjacency is defined per domain: [`FaultDomain::Memory`] and
    /// [`FaultDomain::RegisterFile`] flip `width` adjacent bits of the
    /// flat bit axis; [`FaultDomain::OpcodeBit`] corrupts `width`
    /// adjacent bits *within one fetched instruction word* (windows never
    /// straddle two instructions, matching how a multi-bit upset hits one
    /// 32-bit ROM word), so the anchor population is
    /// `slots · (33 − width)` per cycle.
    ///
    /// The draws that are not known benign run as one list of
    /// experiments through the executor, like any plan: on
    /// [`CampaignConfig::threads`](crate::CampaignConfig::threads)
    /// workers, with convergence termination and the campaign's memo, so
    /// the outcomes are those of [`Campaign::run_experiments_naive`]
    /// replaying each burst from cycle 0.
    ///
    /// # Panics
    ///
    /// Panics for [`FaultDomain::InstrSkip`] and
    /// [`FaultDomain::BranchInvert`] — those faults are whole events, not
    /// bit patterns, so "adjacent bits" is undefined. Also panics if
    /// `width` is 0 or exceeds the domain's bit axis (32 for
    /// [`FaultDomain::OpcodeBit`]), or if the fault space is empty.
    pub fn run_burst_sampled_in<R: Rng + ?Sized>(
        &self,
        domain: FaultDomain,
        n: u64,
        width: u32,
        rng: &mut R,
    ) -> BurstSampledResult {
        let (population, experiments) = self.draw_bursts(domain, n, width, rng);
        let (results, _) = self.run_experiments_with(Fault { domain, width }, &experiments);
        let benign_skips = n - experiments.len() as u64;
        let mut by_kind = [0; 8];
        by_kind[Outcome::NoEffect.kind_index()] = benign_skips;
        let mut failure_draws = 0;
        for r in &results {
            by_kind[r.outcome.kind_index()] += 1;
            failure_draws += u64::from(r.outcome.class() == OutcomeClass::Failure);
        }
        BurstSampledResult {
            benchmark: self.program().name.clone(),
            domain,
            width,
            draws: n,
            population,
            benign_skips,
            failure_draws,
            by_kind,
        }
    }

    /// Draws `n` uniform burst anchors of `domain` and returns the anchor
    /// population and one experiment per draw that is not known benign:
    /// its id is the draw's position, its coordinate the burst's first
    /// member bit.
    fn draw_bursts<R: Rng + ?Sized>(
        &self,
        domain: FaultDomain,
        n: u64,
        width: u32,
        rng: &mut R,
    ) -> (u64, Vec<Experiment>) {
        let (analysis, plan) = (self.analysis_for(domain), self.plan_for(domain));
        let space = plan.space;
        assert!(width >= 1, "burst width must be at least 1");
        // Anchor positions per cycle, and the per-slot anchor count for
        // domains whose windows must stay inside one instruction word.
        let (anchors, per_slot) = match domain {
            FaultDomain::OpcodeBit => {
                assert!(
                    width <= 32,
                    "burst width {width} exceeds the 32-bit instruction word"
                );
                let per_slot = 33 - width as u64;
                ((space.bits / 32) * per_slot, Some(per_slot))
            }
            FaultDomain::Memory | FaultDomain::RegisterFile => {
                assert!(
                    (width as u64) <= space.bits,
                    "burst width {width} exceeds the {domain} axis ({} bits)",
                    space.bits
                );
                (space.bits - width as u64 + 1, None)
            }
            FaultDomain::InstrSkip | FaultDomain::BranchInvert => panic!(
                "burst model is undefined for {domain}: the fault is a whole \
                 event, not a bit pattern"
            ),
        };
        let anchor_space = FaultSpace::new(space.cycles, anchors);
        let population = anchor_space.size();
        assert!(population > 0, "cannot sample an empty fault space");
        // Maps an anchor index to the first member bit of its window.
        let first_bit = |anchor: u64| match per_slot {
            Some(p) => (anchor / p) * 32 + anchor % p,
            None => anchor,
        };

        let index = ClassIndex::new(analysis, plan);
        let mut experiments = Vec::new();
        for draw in 0..n {
            let anchor = anchor_space.coord_of_index(rng.gen_range(0..population));
            let coord = FaultCoord {
                cycle: anchor.cycle,
                bit: first_bit(anchor.bit),
            };
            // Conservative pruning: skip only if every member bit is
            // known-benign on its own.
            let all_benign = (coord.bit..coord.bit + u64::from(width)).all(|bit| {
                matches!(
                    index.lookup(FaultCoord {
                        cycle: coord.cycle,
                        bit
                    }),
                    ClassRef::KnownBenign
                )
            });
            if !all_benign {
                experiments.push(Experiment {
                    id: u32::try_from(draw).expect("burst draw count exceeds u32"),
                    coord,
                    weight: 1,
                });
            }
        }
        (population, experiments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignConfig;
    use sofi_isa::{Asm, Program, Reg};
    use sofi_rng::DefaultRng;
    use sofi_workloads::{bin_sem2, fib, Variant};

    fn hi_campaign() -> Campaign {
        Campaign::new(&hi_program()).unwrap()
    }

    fn hi_program() -> Program {
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
        a.build().unwrap()
    }

    /// The burst oracle: seeded burst draws run through the executor at
    /// one and two threads give naive replay's result vector at the same
    /// width, in draw order, in every domain bursts support. Each
    /// program's two campaigns serve every domain and width in turn, so
    /// the memo is warm with other widths' trajectories by the end.
    #[test]
    fn bursts_through_the_executor_match_naive_replay() {
        const DRAWS: u64 = 32;
        let programs = [
            hi_program(),
            fib(Variant::SumDmr),
            bin_sem2(Variant::Baseline),
            bin_sem2(Variant::SumDmr),
        ];
        let cases: [(FaultDomain, &[u32]); 3] = [
            (FaultDomain::Memory, &[1, 2, 4, 8]),
            (FaultDomain::RegisterFile, &[1, 2, 4, 8]),
            (FaultDomain::OpcodeBit, &[1, 4, 32]),
        ];
        for program in &programs {
            let campaigns = [1, 2].map(|threads| {
                let config = CampaignConfig {
                    threads,
                    ..CampaignConfig::default()
                };
                Campaign::with_config(program, config).unwrap()
            });
            for (domain, widths) in cases {
                for &width in widths {
                    let fault = Fault { domain, width };
                    let mut rng = DefaultRng::seed_from_u64(u64::from(width) << 8 | domain as u64);
                    let (_, experiments) = campaigns[0].draw_bursts(domain, DRAWS, width, &mut rng);
                    let naive = campaigns[0].run_experiments_naive_with(fault, &experiments);
                    for campaign in &campaigns {
                        let (results, _) = campaign.run_experiments_with(fault, &experiments);
                        assert_eq!(
                            results,
                            naive,
                            "{} {domain} width {width} threads {}",
                            program.name,
                            campaign.config().threads
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn width_one_matches_single_bit_model() {
        let c = hi_campaign();
        let mut rng = DefaultRng::seed_from_u64(31);
        let b = c.run_burst_sampled_in(FaultDomain::Memory, 20_000, 1, &mut rng);
        assert_eq!(b.population, 128);
        // True failure fraction 48/128 = 0.375.
        let frac = b.failure_draws as f64 / b.draws as f64;
        assert!((frac - 0.375).abs() < 0.02, "fraction {frac}");
        assert!((b.extrapolated_failures() - 48.0).abs() < 3.0);
    }

    #[test]
    fn wider_bursts_fail_at_least_as_often() {
        let c = hi_campaign();
        let mut fractions = Vec::new();
        for width in [1u32, 2, 4, 8] {
            let mut rng = DefaultRng::seed_from_u64(32);
            let b = c.run_burst_sampled_in(FaultDomain::Memory, 8_000, width, &mut rng);
            fractions.push(b.failure_draws as f64 / b.draws as f64);
        }
        // A wider burst covers a superset of vulnerable windows (minus
        // edge effects); the failure fraction must grow.
        assert!(fractions[1] >= fractions[0] - 0.02, "{fractions:?}");
        assert!(fractions[3] > fractions[0], "{fractions:?}");
    }

    #[test]
    fn accounting_is_complete() {
        let c = hi_campaign();
        let mut rng = DefaultRng::seed_from_u64(33);
        let b = c.run_burst_sampled_in(FaultDomain::Memory, 2_000, 3, &mut rng);
        assert_eq!(b.by_kind.iter().sum::<u64>(), b.draws);
        assert!(b.benign_skips > 0);
    }

    #[test]
    #[should_panic(expected = "burst width")]
    fn oversized_width_panics() {
        let c = hi_campaign();
        let mut rng = DefaultRng::seed_from_u64(34);
        c.run_burst_sampled_in(FaultDomain::Memory, 10, 17, &mut rng);
    }

    #[test]
    fn opcode_bursts_stay_within_one_word() {
        let c = hi_campaign();
        let mut rng = DefaultRng::seed_from_u64(35);
        let b = c.run_burst_sampled_in(FaultDomain::OpcodeBit, 2_000, 4, &mut rng);
        assert_eq!(b.domain, FaultDomain::OpcodeBit);
        // 8 instruction slots × (33 − 4) anchors × 8 cycles.
        let space = c.plan_for(FaultDomain::OpcodeBit).space;
        assert_eq!(b.population, space.cycles * (space.bits / 32) * 29);
        assert_eq!(b.by_kind.iter().sum::<u64>(), b.draws);
        // Corrupting 4 opcode bits of a live instruction must break
        // something at least once in 2000 draws.
        assert!(b.failure_draws > 0);
    }

    #[test]
    fn opcode_full_word_burst_is_accepted() {
        // width = 32 exercises the mask edge case (`u32::MAX >> 0`).
        let c = hi_campaign();
        let mut rng = DefaultRng::seed_from_u64(36);
        let b = c.run_burst_sampled_in(FaultDomain::OpcodeBit, 200, 32, &mut rng);
        let space = c.plan_for(FaultDomain::OpcodeBit).space;
        assert_eq!(b.population, space.cycles * (space.bits / 32));
        assert_eq!(b.by_kind.iter().sum::<u64>(), b.draws);
    }

    #[test]
    fn register_bursts_run() {
        let c = hi_campaign();
        let mut rng = DefaultRng::seed_from_u64(37);
        let b = c.run_burst_sampled_in(FaultDomain::RegisterFile, 1_000, 2, &mut rng);
        assert_eq!(b.domain, FaultDomain::RegisterFile);
        assert_eq!(b.by_kind.iter().sum::<u64>(), b.draws);
    }

    #[test]
    #[should_panic(expected = "burst model is undefined")]
    fn instr_skip_bursts_are_rejected() {
        let c = hi_campaign();
        let mut rng = DefaultRng::seed_from_u64(38);
        c.run_burst_sampled_in(FaultDomain::InstrSkip, 10, 2, &mut rng);
    }
}
