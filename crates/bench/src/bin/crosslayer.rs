//! §VI-C: cross-layer comparisons and the invalidity of comparing fault
//! coverages across simulators with different fault-space sizes.
//!
//! Cho et al. and Wei et al. validated high-level FI against low-level
//! simulators and reported errors "by more than an order of magnitude" —
//! measured with the coverage metric over *different* fault-space sizes.
//! The paper suggests much of that error is the metric's fault, not the
//! high-level FI's.
//!
//! We reproduce the setting with two "simulators" for the same program:
//!
//! * **fine** — our cycle-accurate machine: injections possible at every
//!   cycle (fault space `Δt · Δm`);
//! * **coarse** — a model of a higher-level tool that can only pause at
//!   every `k`-th cycle (fault space `(Δt/k) · Δm`, each injection
//!   standing for `k` cycles of exposure).
//!
//! Both observe the *same* physical machine, so the coarse results are
//! derived exactly by restricting the fine scan to granule coordinates.
//! Comparing the two layers by coverage yields large spurious "errors";
//! comparing extrapolated absolute failure counts (each coarse result
//! weighted by its granule) agrees within the aliasing error.

use sofi::campaign::{Campaign, FaultDomain, OutcomeClass};
use sofi::space::{ClassIndex, ClassRef, FaultCoord};
use sofi::workloads::{bin_sem2, fib, Variant};
use sofi_bench::save_artifact;
use std::collections::HashMap;

struct LayerRow {
    benchmark: String,
    granule: u64,
    fine_coverage: f64,
    coarse_coverage: f64,
    coverage_error_pp: f64,
    fine_failures: u64,
    coarse_failures_extrapolated: f64,
    failure_ratio: f64,
}
sofi::report::impl_to_json!(LayerRow {
    benchmark,
    granule,
    fine_coverage,
    coarse_coverage,
    coverage_error_pp,
    fine_failures,
    coarse_failures_extrapolated,
    failure_ratio
});

fn evaluate(program: &sofi::isa::Program, granule: u64) -> LayerRow {
    let campaign = Campaign::new(program).expect("golden run");
    let fine = campaign.run_full_defuse_in(FaultDomain::Memory);
    let index = ClassIndex::new(
        campaign.analysis_for(FaultDomain::Memory),
        campaign.plan_for(FaultDomain::Memory),
    );
    let class_of: HashMap<u32, OutcomeClass> = fine
        .results
        .iter()
        .map(|r| (r.experiment.id, r.outcome.class()))
        .collect();

    // The coarse simulator scans cycles k, 2k, 3k, ... — every bit, each
    // result standing for k cycles of exposure.
    let space = campaign.plan_for(FaultDomain::Memory).space;
    let mut coarse_fail_points = 0u64;
    let mut coarse_points = 0u64;
    let mut cycle = granule;
    while cycle <= space.cycles {
        for bit in 0..space.bits {
            let class = index.lookup(FaultCoord { cycle, bit });
            let failed = match class {
                ClassRef::Experiment(id) => class_of[&id] == OutcomeClass::Failure,
                ClassRef::KnownBenign => false,
            };
            coarse_points += 1;
            coarse_fail_points += failed as u64;
        }
        cycle += granule;
    }

    let fine_cov = 1.0 - fine.failure_weight() as f64 / space.size() as f64;
    let coarse_cov = 1.0 - coarse_fail_points as f64 / coarse_points as f64;
    // Pitfall-3-aware cross-layer comparison: extrapolate the coarse
    // counts to the *physical* fault space (weight k per coarse point).
    let coarse_f_ext = coarse_fail_points as f64 * granule as f64;

    LayerRow {
        benchmark: program.name.clone(),
        granule,
        fine_coverage: fine_cov,
        coarse_coverage: coarse_cov,
        coverage_error_pp: (coarse_cov - fine_cov) * 100.0,
        fine_failures: fine.failure_weight(),
        coarse_failures_extrapolated: coarse_f_ext,
        failure_ratio: coarse_f_ext / fine.failure_weight().max(1) as f64,
    }
}

fn main() {
    let mut rows = Vec::new();
    for program in [fib(Variant::Baseline), bin_sem2(Variant::Baseline)] {
        for granule in [4u64, 16, 64] {
            eprintln!("evaluating {} at granule {granule} ...", program.name);
            rows.push(evaluate(&program, granule));
        }
    }

    println!("== §VI-C: fine (cycle-accurate) vs coarse (granule-k) simulators ==");
    let mut t = sofi::report::Table::new(vec![
        "benchmark",
        "k",
        "c_fine",
        "c_coarse",
        "cov err [pp]",
        "F_fine",
        "F_coarse_ext",
        "F ratio",
    ]);
    for r in &rows {
        t.row(vec![
            r.benchmark.clone(),
            r.granule.to_string(),
            format!("{:.2}%", r.fine_coverage * 100.0),
            format!("{:.2}%", r.coarse_coverage * 100.0),
            format!("{:+.2}", r.coverage_error_pp),
            r.fine_failures.to_string(),
            format!("{:.0}", r.coarse_failures_extrapolated),
            format!("{:.3}", r.failure_ratio),
        ]);
    }
    println!("{t}");
    println!("Extrapolated absolute failure counts stay near ratio 1 across layers");
    println!("(residual deviation = genuine temporal aliasing of the coarse tool),");
    println!("while raw coverage comparisons mix in the fault-space-size quotient.");

    save_artifact("crosslayer.json", &rows);
}
