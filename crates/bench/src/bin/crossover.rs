//! Ablation: where does hardening flip from win to loss?
//!
//! The paper's sync2 worsens because the protection's runtime overhead
//! inflates the exposure of data the mechanism does not cover. This
//! experiment sweeps the overhead knob — a per-pass scrub pool added to
//! the (normally winning) hardened bin_sem2 — and locates the *crossover*
//! where `r = F_hardened / F_baseline` passes 1: to the left the
//! protection pays off, to the right it is a net loss, while the (bogus)
//! coverage verdict stays "improved" across the whole sweep.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::metrics::{fault_coverage, Weighting};
use sofi::report::{bar_chart, Table};
use sofi::workloads::{bin_sem2_param, Variant};
use sofi_bench::save_artifact;

struct SweepRow {
    scrub_pool: usize,
    runtime_ratio: f64,
    r: f64,
    coverage_baseline: f64,
    coverage_hardened: f64,
    coverage_says_improved: bool,
}
sofi::report::impl_to_json!(SweepRow {
    scrub_pool,
    runtime_ratio,
    r,
    coverage_baseline,
    coverage_hardened,
    coverage_says_improved
});

fn main() {
    let baseline = bin_sem2_param(Variant::Baseline, 0);
    let cb = Campaign::new(&baseline).expect("golden run");
    let fb = cb.run_full_defuse_in(FaultDomain::Memory);
    let f_base = fb.failure_weight() as f64;
    let c_base = fault_coverage(&fb, Weighting::Weighted);

    let mut rows = Vec::new();
    for scrub_pool in [0usize, 1, 2, 4, 8, 16, 24, 32] {
        eprintln!("scrub pool {scrub_pool} ...");
        let hardened = bin_sem2_param(Variant::SumDmr, scrub_pool);
        let ch = Campaign::new(&hardened).expect("golden run");
        let fh = ch.run_full_defuse_in(FaultDomain::Memory);
        rows.push(SweepRow {
            scrub_pool,
            runtime_ratio: ch.golden().cycles as f64 / cb.golden().cycles as f64,
            r: fh.failure_weight() as f64 / f_base,
            coverage_baseline: c_base,
            coverage_hardened: fault_coverage(&fh, Weighting::Weighted),
            coverage_says_improved: fault_coverage(&fh, Weighting::Weighted) > c_base,
        });
    }

    println!("== crossover sweep: bin_sem2 SUM+DMR with growing scrub overhead ==");
    let mut t = Table::new(vec![
        "scrub pool",
        "runtime x",
        "r = F_h/F_b",
        "c_hardened",
        "coverage verdict",
        "true verdict",
    ]);
    for r in &rows {
        t.row(vec![
            r.scrub_pool.to_string(),
            format!("{:.2}", r.runtime_ratio),
            format!("{:.3}", r.r),
            format!("{:.1}%", r.coverage_hardened * 100.0),
            if r.coverage_says_improved {
                "improved"
            } else {
                "worsened"
            }
            .into(),
            if r.r < 1.0 { "improves" } else { "WORSENS" }.into(),
        ]);
    }
    println!("{t}");
    println!(
        "(baseline coverage: {:.1}%)",
        rows[0].coverage_baseline * 100.0
    );

    println!("r vs overhead:");
    println!(
        "{}",
        bar_chart(
            &rows
                .iter()
                .map(|r| (format!("pool {:>2}", r.scrub_pool), r.r))
                .collect::<Vec<_>>(),
            50
        )
    );

    let crossover = rows.windows(2).find(|w| w[0].r < 1.0 && w[1].r >= 1.0);
    match crossover {
        Some(w) => println!(
            "crossover between pool sizes {} and {} (runtime x{:.2} → x{:.2})",
            w[0].scrub_pool, w[1].scrub_pool, w[0].runtime_ratio, w[1].runtime_ratio
        ),
        None => println!("no crossover inside the sweep range"),
    }
    println!("The coverage metric calls every point an improvement; the absolute");
    println!("failure count locates exactly where the mechanism stops paying off.");

    save_artifact("crossover.json", &rows);
}
