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
//! of what happened to its neighbours.

use crate::executor::Campaign;
use crate::outcome::{Outcome, OutcomeClass};
use crate::result::FaultDomain;
use sofi_machine::CfFault;
use sofi_rng::Rng;
use sofi_space::{ClassIndex, ClassRef, FaultCoord};

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
        let population = space.cycles * anchors;
        assert!(population > 0, "cannot sample an empty fault space");
        // Maps an anchor index to the first member bit of its window.
        let first_bit = |anchor: u64| match per_slot {
            Some(p) => (anchor / p) * 32 + anchor % p,
            None => anchor,
        };

        // Draw all coordinates first and sort by cycle so a single
        // pristine machine can stream forward (same trick as the plan
        // executor; bursts cannot share experiments, so each non-skipped
        // draw costs one run). `coord.bit` holds the *anchor* index.
        let index = ClassIndex::new(analysis, plan);
        let mut draws: Vec<FaultCoord> = (0..n)
            .map(|_| {
                let flat = rng.gen_range(0..population);
                FaultCoord {
                    cycle: flat / anchors + 1,
                    bit: flat % anchors,
                }
            })
            .collect();
        draws.sort_unstable();

        let budget = crate::config::cycle_budget(self.golden().cycles);
        let mut pristine = self.fresh_machine();
        let mut result = BurstSampledResult {
            benchmark: self.program().name.clone(),
            domain,
            width,
            draws: n,
            population,
            benign_skips: 0,
            failure_draws: 0,
            by_kind: [0; 8],
        };

        for coord in draws {
            let base = first_bit(coord.bit);
            // Conservative pruning: skip only if every member bit is
            // known-benign on its own.
            let all_benign = (0..width as u64).all(|d| {
                matches!(
                    index.lookup(FaultCoord {
                        cycle: coord.cycle,
                        bit: base + d,
                    }),
                    ClassRef::KnownBenign
                )
            });
            if all_benign {
                result.benign_skips += 1;
                result.by_kind[Outcome::NoEffect.kind_index()] += 1;
                continue;
            }
            if pristine.cycle() > coord.pre_injection_cycle() {
                pristine = self.fresh_machine();
            }
            let early = pristine.run_to(coord.pre_injection_cycle());
            assert!(early.is_none(), "draw outlived the program");
            let mut m = pristine.clone();
            match domain {
                FaultDomain::Memory => {
                    for d in 0..width as u64 {
                        m.flip_bit(base + d);
                    }
                }
                FaultDomain::RegisterFile => {
                    for d in 0..width as u64 {
                        m.flip_reg_bit(base + d);
                    }
                }
                FaultDomain::OpcodeBit => {
                    let wb = (base % 32) as u32;
                    m.arm_cf_fault(CfFault::CorruptAt {
                        slot: (base / 32) as u32,
                        mask: (u32::MAX >> (32 - width)) << wb,
                    });
                }
                FaultDomain::InstrSkip | FaultDomain::BranchInvert => unreachable!(),
            }
            let status = m.run(budget);
            let outcome = Outcome::classify(status, m.serial(), m.detect_count(), self.golden());
            result.by_kind[outcome.kind_index()] += 1;
            if outcome.class() == OutcomeClass::Failure {
                result.failure_draws += 1;
            }
        }
        result
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
