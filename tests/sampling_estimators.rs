//! Statistical behaviour of the sampling estimators across crates:
//! unbiased samplers converge on full-scan ground truth, the Pitfall-2
//! sampler diverges when class weight correlates with outcome, and
//! extrapolated counts are invariant to the sample size.

use sofi::campaign::{Campaign, FaultDomain, SamplingMode};
use sofi::isa::{Asm, Program, Reg};
use sofi::metrics::extrapolated_failures;
use sofi::workloads::{crc32, strrev};
use sofi_rng::DefaultRng;

/// Long-lived failing config bytes + masses of short-lived masked scratch
/// traffic: maximal weight/outcome correlation.
fn skewed_program() -> Program {
    let mut a = Asm::with_name("skewed");
    let config = a.data_bytes("config", &[11, 22, 33, 44]);
    let scratch = a.data_word("scratch", 0);
    a.li(Reg::R4, 60);
    let top = a.label_here();
    a.sw(Reg::R4, Reg::R0, scratch.offset());
    a.lw(Reg::R5, Reg::R0, scratch.offset());
    a.and(Reg::R5, Reg::R5, Reg::R0); // discard: always masked
    a.addi(Reg::R4, Reg::R4, -1);
    a.bne(Reg::R4, Reg::R0, top);
    for i in 0..4 {
        a.lbu(Reg::R6, Reg::R0, config.at(i).offset());
        a.serial_out(Reg::R6);
    }
    a.build().unwrap()
}

#[test]
fn estimators_converge_to_exact_counts() {
    for program in [crc32(), strrev()] {
        let campaign = Campaign::new(&program).unwrap();
        let exact = campaign
            .run_full_defuse_in(FaultDomain::Memory)
            .failure_weight() as f64;
        let mut rng = DefaultRng::seed_from_u64(99);
        for mode in [SamplingMode::UniformRaw, SamplingMode::WeightedClasses] {
            let sampled = campaign.run_sampled_in(FaultDomain::Memory, 60_000, mode, &mut rng);
            let est = extrapolated_failures(&sampled, 0.99);
            assert!(
                est.ci.0 <= exact && exact <= est.ci.1,
                "{} / {mode:?}: exact {exact} outside CI {:?}",
                program.name,
                est.ci
            );
            assert!(
                (est.failures - exact).abs() / exact < 0.05,
                "{} / {mode:?}: {} vs {exact}",
                program.name,
                est.failures
            );
        }
    }
}

#[test]
fn biased_sampler_is_demonstrably_biased() {
    let campaign = Campaign::new(&skewed_program()).unwrap();
    let full = campaign.run_full_defuse_in(FaultDomain::Memory);
    let truth = full.failure_weight() as f64
        / campaign.plan_for(FaultDomain::Memory).experiment_weight() as f64;

    let mut rng = DefaultRng::seed_from_u64(5);
    let fair = campaign.run_sampled_in(
        FaultDomain::Memory,
        40_000,
        SamplingMode::WeightedClasses,
        &mut rng,
    );
    let biased = campaign.run_sampled_in(
        FaultDomain::Memory,
        40_000,
        SamplingMode::BiasedPerClass,
        &mut rng,
    );

    let fair_frac = fair.failure_hits() as f64 / fair.draws as f64;
    let biased_frac = biased.failure_hits() as f64 / biased.draws as f64;

    assert!(
        (fair_frac - truth).abs() < 0.02,
        "fair {fair_frac} vs {truth}"
    );
    assert!(
        (biased_frac - truth).abs() > 0.3,
        "the biased sampler should be far off: {biased_frac} vs {truth}"
    );
}

#[test]
fn extrapolation_is_sample_size_invariant() {
    let campaign = Campaign::new(&crc32()).unwrap();
    let mut estimates = Vec::new();
    for (seed, draws) in [(1u64, 20_000u64), (2, 60_000), (3, 120_000)] {
        let mut rng = DefaultRng::seed_from_u64(seed);
        let s = campaign.run_sampled_in(
            FaultDomain::Memory,
            draws,
            SamplingMode::UniformRaw,
            &mut rng,
        );
        estimates.push(extrapolated_failures(&s, 0.95).failures);
    }
    let spread = estimates
        .iter()
        .fold(0.0f64, |m, &e| m.max((e - estimates[0]).abs()));
    assert!(
        spread / estimates[0] < 0.06,
        "extrapolated estimates should agree: {estimates:?}"
    );
}
