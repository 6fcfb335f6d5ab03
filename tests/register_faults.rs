//! The §VI-B register-file fault model, end to end: trace capture,
//! def/use pruning over register bits, campaign execution — including the
//! pruning-soundness property against a brute-force register scan.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain, OutcomeClass};
use sofi::isa::{Asm, Program, Reg};
use sofi::machine::{Machine, REG_FILE_BITS};
use sofi::space::{ClassIndex, ClassRef};
use sofi_rng::{DefaultRng, Rng};
use std::collections::HashMap;

#[test]
fn flip_reg_bit_changes_the_right_register() {
    let mut a = Asm::new();
    a.li(Reg::R3, 0);
    a.serial_out(Reg::R3);
    let p = a.build().unwrap();
    let mut m = Machine::new(&p);
    m.run_to(1);
    m.flip_reg_bit((3 - 1) * 32 + 4); // r3, bit 4
    m.run(100);
    assert_eq!(m.serial(), &[16]);
}

#[test]
fn register_plan_covers_the_register_space() {
    let c = Campaign::new(&sofi::workloads::fib(sofi::workloads::Variant::Baseline)).unwrap();
    let plan = c.plan_for(FaultDomain::RegisterFile);
    assert_eq!(plan.space.bits, REG_FILE_BITS);
    assert_eq!(plan.space.cycles, c.golden().cycles);
    assert_eq!(plan.total_weight(), plan.space.size());
    assert!(c
        .analysis_for(FaultDomain::RegisterFile)
        .is_exact_partition());
}

#[test]
fn register_campaign_finds_failures() {
    // fib keeps its working set in registers between memory accesses;
    // register flips must produce failures.
    let c = Campaign::new(&sofi::workloads::fib(sofi::workloads::Variant::Baseline)).unwrap();
    let r = c.run_full_defuse_in(FaultDomain::RegisterFile);
    assert_eq!(r.domain, FaultDomain::RegisterFile);
    assert!(r.covers_space());
    assert!(r.failure_weight() > 0);
    // Unused registers' columns are entirely benign: r9..r13 are never
    // touched by fib, so well under half the space can fail.
    assert!(r.failure_weight() < r.space.size() / 2);
}

#[test]
fn read_modify_write_registers_prune_correctly() {
    // `addi r1, r1, 1` reads and writes r1 in the same cycle — the
    // def/use edge case the register domain introduces.
    let mut a = Asm::new();
    a.li(Reg::R1, 1);
    for _ in 0..5 {
        a.addi(Reg::R1, Reg::R1, 1);
    }
    a.serial_out(Reg::R1);
    let p = a.build().unwrap();
    let c = Campaign::with_config(&p, CampaignConfig::sequential()).unwrap();
    assert!(c
        .analysis_for(FaultDomain::RegisterFile)
        .is_exact_partition());
    let pruned = c.run_full_defuse_in(FaultDomain::RegisterFile);
    let brute = c.run_brute_force_in(FaultDomain::RegisterFile);
    assert_eq!(pruned.failure_weight(), brute.failure_weight());
}

#[test]
fn register_sampling_extrapolates_to_exact() {
    use sofi::campaign::SamplingMode;
    use sofi::metrics::extrapolated_failures;
    let c = Campaign::new(&sofi::workloads::crc32()).unwrap();
    let exact = c
        .run_full_defuse_in(FaultDomain::RegisterFile)
        .failure_weight() as f64;
    let mut rng = sofi_rng::DefaultRng::seed_from_u64(17);
    let s = c.run_sampled_in(
        FaultDomain::RegisterFile,
        60_000,
        SamplingMode::UniformRaw,
        &mut rng,
    );
    assert_eq!(s.domain, FaultDomain::RegisterFile);
    let est = extrapolated_failures(&s, 0.99);
    assert!(
        est.ci.0 <= exact && exact <= est.ci.1,
        "exact {exact} outside CI {:?}",
        est.ci
    );
}

// --- property: register pruning is outcome-preserving -------------------

#[derive(Debug, Clone)]
enum Step {
    Alu(u8, usize, usize, usize),
    Li(usize, i16),
    Rmw(usize, i16),
    Out(usize),
}

fn any_step(rng: &mut impl Rng) -> Step {
    fn reg<R: Rng + ?Sized>(rng: &mut R) -> usize {
        rng.gen_range(1usize..6)
    }
    match rng.gen_range(0u32..4) {
        0 => Step::Alu(rng.gen_range(0u8..4), reg(rng), reg(rng), reg(rng)),
        1 => Step::Li(reg(rng), rng.next_u64() as i16),
        2 => Step::Rmw(reg(rng), rng.gen_range(-5i16..5)),
        _ => Step::Out(reg(rng)),
    }
}

fn build(steps: &[Step]) -> Program {
    let mut a = Asm::with_name("random-reg");
    for step in steps {
        match *step {
            Step::Alu(op, d, x, y) => {
                let (d, x, y) = (reg(d), reg(x), reg(y));
                match op {
                    0 => a.add(d, x, y),
                    1 => a.sub(d, x, y),
                    2 => a.xor(d, x, y),
                    _ => a.mul(d, x, y),
                };
            }
            Step::Li(d, v) => {
                a.li(reg(d), v as i32);
            }
            Step::Rmw(d, v) => {
                a.addi(reg(d), reg(d), v);
            }
            Step::Out(s) => {
                a.serial_out(reg(s));
            }
        }
    }
    a.serial_out(Reg::R1);
    a.build().unwrap()
}

fn reg(i: usize) -> Reg {
    Reg::from_index(i).unwrap()
}

#[test]
fn register_pruning_equals_brute_force() {
    // Deterministic seeded sweep: 12 random register-churning programs.
    let mut rng = DefaultRng::seed_from_u64(0x4E6);
    for _ in 0..12 {
        let len = rng.gen_range(1usize..12);
        let steps: Vec<Step> = (0..len).map(|_| any_step(&mut rng)).collect();
        let program = build(&steps);
        let campaign =
            Campaign::with_config(&program, CampaignConfig::sequential()).expect("golden run");
        let pruned = campaign.run_full_defuse_in(FaultDomain::RegisterFile);
        let brute = campaign.run_brute_force_in(FaultDomain::RegisterFile);

        assert_eq!(brute.failure_weight(), pruned.failure_weight());
        assert_eq!(brute.benign_weight(), pruned.benign_weight());

        let index = ClassIndex::new(
            campaign.analysis_for(FaultDomain::RegisterFile),
            campaign.plan_for(FaultDomain::RegisterFile),
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
                "register coordinate {} of {:?}",
                br.experiment.coord,
                steps
            );
        }
    }
}
