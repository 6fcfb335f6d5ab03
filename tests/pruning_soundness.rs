//! The defining property of def/use pruning (§III-C): it is a pure
//! optimization. For *random programs*, a pruned campaign expanded by its
//! equivalence classes must classify every raw fault-space coordinate
//! exactly like a brute-force scan that injects at each coordinate
//! individually.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain, Outcome, OutcomeClass};
use sofi::isa::{Asm, MemWidth, Program, Reg};
use sofi::space::{ClassIndex, ClassRef};
use sofi_rng::{DefaultRng, Rng};
use std::collections::HashMap;

/// One step of a random straight-line program over a 8-byte RAM.
#[derive(Debug, Clone)]
enum Step {
    Alu(u8, usize, usize, usize),
    Li(usize, i16),
    LoadB(usize, u8),
    LoadW(usize, u8),
    StoreB(usize, u8),
    StoreW(usize, u8),
    Out(usize),
}

fn any_step(rng: &mut impl Rng) -> Step {
    fn reg<R: Rng + ?Sized>(rng: &mut R) -> usize {
        rng.gen_range(1usize..8) // r1..r7
    }
    match rng.gen_range(0u32..7) {
        0 => Step::Alu(rng.gen_range(0u8..6), reg(rng), reg(rng), reg(rng)),
        1 => Step::Li(reg(rng), rng.next_u64() as i16),
        2 => Step::LoadB(reg(rng), rng.gen_range(0u8..8)),
        3 => Step::LoadW(reg(rng), rng.gen_range(0u8..2)),
        4 => Step::StoreB(reg(rng), rng.gen_range(0u8..8)),
        5 => Step::StoreW(reg(rng), rng.gen_range(0u8..2)),
        _ => Step::Out(reg(rng)),
    }
}

fn build(steps: &[Step]) -> Program {
    let mut a = Asm::with_name("random");
    a.data_space("ram", 8);
    for step in steps {
        match *step {
            Step::Alu(op, d, x, y) => {
                let (d, x, y) = (reg(d), reg(x), reg(y));
                match op {
                    0 => a.add(d, x, y),
                    1 => a.sub(d, x, y),
                    2 => a.xor(d, x, y),
                    3 => a.and(d, x, y),
                    4 => a.or(d, x, y),
                    _ => a.mul(d, x, y),
                };
            }
            Step::Li(d, v) => {
                a.li(reg(d), v as i32);
            }
            Step::LoadB(d, addr) => {
                a.lbu(reg(d), Reg::R0, addr as i16);
            }
            Step::LoadW(d, word) => {
                a.lw(reg(d), Reg::R0, word as i16 * 4);
            }
            Step::StoreB(s, addr) => {
                a.sb(reg(s), Reg::R0, addr as i16);
            }
            Step::StoreW(s, word) => {
                a.sw(reg(s), Reg::R0, word as i16 * 4);
            }
            Step::Out(s) => {
                a.serial_out(reg(s));
            }
        }
    }
    // Always observable: dump RAM at the end through word loads.
    for w in 0..2 {
        a.lw(Reg::R1, Reg::R0, w * 4);
        a.serial_out(Reg::R1);
    }
    a.build().unwrap()
}

fn reg(i: usize) -> Reg {
    Reg::from_index(i).unwrap()
}

/// Checks `MemWidth` is exported (compile-time smoke for the public API).
#[allow(dead_code)]
fn width_is_public(_w: MemWidth) {}

/// A tiny counted loop with a data dependence and serial output: small
/// enough for an exhaustive control-flow scan, and its conditional
/// back-edge gives [`FaultDomain::BranchInvert`] a non-empty plan.
fn tiny_loop_program(seed: u64) -> Program {
    let mut rng = DefaultRng::seed_from_u64(seed);
    let mut a = Asm::with_name(format!("cf-loop-{seed}"));
    a.data_space("ram", 4);
    a.li(Reg::R1, rng.gen_range(1i32..5));
    a.li(Reg::R2, 0);
    a.li(Reg::R8, rng.gen_range(2i32..4));
    let top = a.label_here();
    a.add(Reg::R2, Reg::R2, Reg::R1);
    a.sb(Reg::R2, Reg::R0, 0);
    a.addi(Reg::R8, Reg::R8, -1);
    a.bne(Reg::R8, Reg::R0, top);
    a.lbu(Reg::R3, Reg::R0, 0);
    a.serial_out(Reg::R3);
    a.serial_out(Reg::R2);
    a.build().unwrap()
}

/// The §III-C soundness property carried over to the control-flow fault
/// domains: for each of instruction-skip, opcode-corruption and
/// branch-inversion, a trace-pruned campaign expanded by its equivalence
/// classes must reproduce the exhaustive per-coordinate scan — same
/// outcome histogram, same detailed outcome at every raw coordinate, no
/// coordinate lost.
#[test]
fn cf_pruned_scans_equal_brute_force() {
    let mut rng = DefaultRng::seed_from_u64(0xCF0D);
    let mut programs: Vec<Program> = Vec::new();
    // Tiny straight-line programs (branch-free: BranchInvert must prove
    // the whole space benign)...
    for _ in 0..6 {
        let len = rng.gen_range(1usize..10);
        let steps: Vec<Step> = (0..len).map(|_| any_step(&mut rng)).collect();
        programs.push(build(&steps));
    }
    // ...plus counted loops whose back-edge exercises the branch domain.
    for seed in 0..3u64 {
        programs.push(tiny_loop_program(seed));
    }

    for program in &programs {
        let campaign =
            Campaign::with_config(program, CampaignConfig::sequential()).expect("golden run");
        for domain in [
            FaultDomain::InstrSkip,
            FaultDomain::OpcodeBit,
            FaultDomain::BranchInvert,
        ] {
            let pruned = campaign.run_full_defuse_in(domain);
            let brute = campaign.run_brute_force_in(domain);

            // No lost coordinates on either side, identical histograms.
            assert!(pruned.covers_space(), "{}/{domain}", program.name);
            assert!(brute.covers_space(), "{}/{domain}", program.name);
            assert_eq!(
                brute.weighted_by_kind(),
                pruned.weighted_by_kind(),
                "{}/{domain}",
                program.name
            );

            // Identical *detailed* outcome at every raw coordinate: the
            // latched-fault classes claim architectural equivalence, so
            // even trap subtypes must match, not just the benign/failure
            // split.
            let index = ClassIndex::new(campaign.analysis_for(domain), campaign.plan_for(domain));
            let by_id: HashMap<u32, Outcome> = pruned
                .results
                .iter()
                .map(|r| (r.experiment.id, r.outcome))
                .collect();
            for br in &brute.results {
                let expected = match index.lookup(br.experiment.coord) {
                    ClassRef::Experiment(id) => by_id[&id],
                    ClassRef::KnownBenign => Outcome::NoEffect,
                };
                assert_eq!(
                    br.outcome, expected,
                    "coordinate {} of {} under {domain}",
                    br.experiment.coord, program.name
                );
            }
        }
    }
}

#[test]
fn pruned_scan_equals_brute_force() {
    // Deterministic seeded sweep: 24 random straight-line programs.
    let mut rng = DefaultRng::seed_from_u64(0x50FD);
    for _ in 0..24 {
        let len = rng.gen_range(1usize..24);
        let steps: Vec<Step> = (0..len).map(|_| any_step(&mut rng)).collect();
        let program = build(&steps);
        let campaign =
            Campaign::with_config(&program, CampaignConfig::sequential()).expect("golden run");

        let pruned = campaign.run_full_defuse_in(FaultDomain::Memory);
        let brute = campaign.run_brute_force_in(FaultDomain::Memory);

        // Identical aggregate accounting...
        assert_eq!(brute.failure_weight(), pruned.failure_weight());
        assert_eq!(brute.benign_weight(), pruned.benign_weight());

        // ...and identical per-coordinate classification.
        let index = ClassIndex::new(
            campaign.analysis_for(FaultDomain::Memory),
            campaign.plan_for(FaultDomain::Memory),
        );
        let by_id: HashMap<u32, OutcomeClass> = pruned
            .results
            .iter()
            .map(|r| (r.experiment.id, r.outcome.class()))
            .collect();
        for br in &brute.results {
            let expected = match index.lookup(br.experiment.coord) {
                ClassRef::Experiment(id) => by_id[&id],
                ClassRef::KnownBenign => OutcomeClass::NoEffect,
            };
            assert_eq!(
                br.outcome.class(),
                expected,
                "coordinate {} of program {:?}",
                br.experiment.coord,
                steps
            );
        }
    }
}
