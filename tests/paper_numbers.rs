//! The concrete numbers the paper derives, regenerated end to end.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::metrics::{
    compare_failures, exact_failures, fault_coverage, table1, PoissonModel, Weighting,
};
use sofi::workloads::{bin_sem2, hi, hi_dft, hi_dft_prime, sync2, Variant};

/// §IV-A: "Hi" has w = 128, F = 48, coverage 62.5 %.
#[test]
fn hi_baseline_numbers() {
    let c = Campaign::new(&hi()).unwrap();
    assert_eq!(c.golden().serial, b"Hi");
    let r = c.run_full_defuse_in(FaultDomain::Memory);
    assert_eq!(r.space.size(), 128);
    assert_eq!(r.failure_weight(), 48);
    assert_eq!(fault_coverage(&r, Weighting::Weighted), 0.625);
}

/// §IV-B: DFT raises coverage to exactly 75 % without touching F.
#[test]
fn dft_dilution_numbers() {
    let r = Campaign::new(&hi_dft(4))
        .unwrap()
        .run_full_defuse_in(FaultDomain::Memory);
    assert_eq!(r.space.size(), 192);
    assert_eq!(r.failure_weight(), 48);
    assert_eq!(fault_coverage(&r, Weighting::Weighted), 0.75);
}

/// §IV-B: DFT′ (activated faults) behaves identically.
#[test]
fn dft_prime_numbers() {
    let r = Campaign::new(&hi_dft_prime(4))
        .unwrap()
        .run_full_defuse_in(FaultDomain::Memory);
    assert_eq!(r.space.size(), 192);
    assert_eq!(r.failure_weight(), 48);
    assert_eq!(fault_coverage(&r, Weighting::Weighted), 0.75);
}

/// §III-A / Table I: λ ≈ 1.33e-13 for 1 s × 1 MiB at the mean DRAM rate,
/// and multi-fault probabilities are negligible.
#[test]
fn table1_poisson_magnitudes() {
    let rows = table1(2);
    assert!((rows[1].probability / 1.328e-13 - 1.0).abs() < 5e-3);
    assert!(rows[2].probability < 1e-26);
    // The single-fault restriction is sound even at hypothetically raised
    // rates (§III-A footnote: g = 1e-20 keeps a 1e4 separation).
    let hot = PoissonModel::new(1e-20);
    let w = 1e9 * 8_388_608.0;
    assert!(hot.p_faults(1, w) / hot.p_faults(2, w) > 1e4);
}

/// Figure 2 / §V-B: the headline verdicts. bin_sem2's protection pays off
/// (r well below 1); sync2's hardening *worsens* its susceptibility by
/// more than a factor of five while its fault coverage still improves —
/// the wrong-design-decision trap.
#[test]
fn figure2_verdicts() {
    // bin_sem2: genuinely improves.
    let cb = Campaign::new(&bin_sem2(Variant::Baseline)).unwrap();
    let ch = Campaign::new(&bin_sem2(Variant::SumDmr)).unwrap();
    let fb = cb.run_full_defuse_in(FaultDomain::Memory);
    let fh = ch.run_full_defuse_in(FaultDomain::Memory);
    let cmp = compare_failures(&exact_failures(&fb), &exact_failures(&fh));
    assert!(cmp.ratio < 0.5, "bin_sem2 should improve strongly: {cmp}");
    assert!(
        fault_coverage(&fh, Weighting::Weighted) > fault_coverage(&fb, Weighting::Weighted),
        "coverage agrees for bin_sem2"
    );

    // sync2: coverage improves, failure count worsens > 5x.
    let cb = Campaign::new(&sync2(Variant::Baseline)).unwrap();
    let ch = Campaign::new(&sync2(Variant::SumDmr)).unwrap();
    let fb = cb.run_full_defuse_in(FaultDomain::Memory);
    let fh = ch.run_full_defuse_in(FaultDomain::Memory);
    assert!(
        fault_coverage(&fh, Weighting::Weighted) > fault_coverage(&fb, Weighting::Weighted),
        "sync2's coverage must (misleadingly) improve"
    );
    let cmp = compare_failures(&exact_failures(&fb), &exact_failures(&fh));
    assert!(
        cmp.ratio > 5.0,
        "sync2 must worsen by more than 5x (paper §V-B), got {cmp}"
    );
}

/// §III-D / Figure 2a vs 2b: unweighted accounting severely distorts the
/// coverages of the baseline benchmarks.
#[test]
fn weighting_changes_coverage_substantially() {
    for program in [bin_sem2(Variant::Baseline), sync2(Variant::Baseline)] {
        let r = Campaign::new(&program)
            .unwrap()
            .run_full_defuse_in(FaultDomain::Memory);
        let unweighted = fault_coverage(&r, Weighting::Unweighted);
        let weighted = fault_coverage(&r, Weighting::Weighted);
        assert!(
            weighted - unweighted > 0.05,
            "{}: unweighted {unweighted:.3} vs weighted {weighted:.3}",
            program.name
        );
    }
}

/// §III-C: pruning effectiveness on the real benchmarks (the paper's eCos
/// sync2 shrinks by four orders of magnitude; ours by two-plus).
#[test]
fn pruning_reduction_factor() {
    let c = Campaign::new(&sync2(Variant::Baseline)).unwrap();
    assert!(c.plan_for(FaultDomain::Memory).reduction_factor() > 50.0);
}
