//! Figure 3 and §IV: the "Hi" benchmark and the Fault-Space Dilution
//! Delusion.
//!
//! Runs full fault-space scans of the 8-instruction "Hi" program and its
//! DFT (NOP-diluted) and DFT′ (load-diluted) variants, reproducing the
//! §IV numbers: coverage rises from 62.5 % to 75.0 % (and arbitrarily
//! further with more padding) while the absolute failure count stays at
//! exactly 48 — the proof that coverage cannot compare programs.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::metrics::{fault_coverage, Weighting};
use sofi::report::outcome_diagram;
use sofi::workloads::{hi, hi_dft, hi_dft_prime};
use sofi_bench::save_artifact;

struct Fig3Row {
    variant: String,
    fault_space: u64,
    failures_weighted: u64,
    coverage: f64,
}
sofi::report::impl_to_json!(Fig3Row {
    variant,
    fault_space,
    failures_weighted,
    coverage
});

fn scan(program: &sofi::isa::Program, draw: bool) -> Fig3Row {
    let campaign = Campaign::new(program).expect("golden run");
    let result = campaign.run_full_defuse_in(FaultDomain::Memory);
    if draw {
        println!(
            "{}",
            outcome_diagram(campaign.analysis_for(FaultDomain::Memory), &result)
                .expect("small space")
        );
    }
    Fig3Row {
        variant: program.name.clone(),
        fault_space: result.space.size(),
        failures_weighted: result.failure_weight(),
        coverage: fault_coverage(&result, Weighting::Weighted),
    }
}

fn main() {
    println!("== Figure 3a: the \"Hi\" benchmark (x = failing class member) ==");
    let base = scan(&hi(), true);
    println!("== Figure 3b: \"Hi\" + DFT (4 NOPs prepended) ==");
    let dft = scan(&hi_dft(4), true);
    println!("== \"Hi\" + DFT' (4 discarded loads prepended, §IV-B) ==");
    let dft_p = scan(&hi_dft_prime(4), true);

    let mut rows = vec![base, dft, dft_p];
    // Coverage can be pushed arbitrarily close to 100 % (§IV-B).
    for nops in [16, 64, 256] {
        rows.push(scan(&hi_dft(nops), false));
    }

    println!("== §IV: the numbers ==");
    let mut t = sofi::report::Table::new(vec!["variant", "w", "F", "coverage"]);
    for r in &rows {
        t.row(vec![
            r.variant.clone(),
            r.fault_space.to_string(),
            r.failures_weighted.to_string(),
            format!("{:.2}%", r.coverage * 100.0),
        ]);
    }
    println!("{t}");

    assert!(
        rows.iter().all(|r| r.failures_weighted == 48),
        "dilution must never change the absolute failure count"
    );
    println!("=> every variant fails in exactly F = 48 coordinates;");
    println!("   the coverage 'improvement' is pure fault-space dilution.");

    save_artifact("fig3.json", &rows);
}
