//! §V summary: comparison ratios r = F_hardened / F_baseline for every
//! benchmark pair, computed from full scans and — to validate Pitfall 3's
//! corollaries — re-estimated from sampling with *different* sample sizes
//! per variant (extrapolation makes them comparable anyway).

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain, SamplingMode};
use sofi::metrics::{compare_failures, exact_failures, extrapolated_failures};
use sofi::report::Table;
use sofi_bench::save_artifact;
use sofi_rng::DefaultRng;

struct SummaryRow {
    benchmark: String,
    f_baseline: u64,
    f_hardened: u64,
    ratio_full_scan: f64,
    ratio_sampled: f64,
    ratio_sampled_ci: (f64, f64),
    improves: bool,
}
sofi::report::impl_to_json!(SummaryRow {
    benchmark,
    f_baseline,
    f_hardened,
    ratio_full_scan,
    ratio_sampled,
    ratio_sampled_ci,
    improves
});

fn main() {
    let mut rows = Vec::new();
    let mut exec_rows = Vec::new();
    // A fixed thread count, not the host's: the executor counters in the
    // table below depend on how the plan is split between workers.
    let config = CampaignConfig {
        threads: 2,
        ..CampaignConfig::default()
    };
    for (name, base, hard) in sofi::workloads::benchmark_pairs() {
        eprintln!("evaluating {name} ...");
        let cb = Campaign::with_config(&base, config).expect("golden run");
        let ch = Campaign::with_config(&hard, config).expect("golden run");
        let (fb, sb_stats) =
            cb.run_plan_stats(FaultDomain::Memory, cb.plan_for(FaultDomain::Memory));
        let (fh, sh_stats) =
            ch.run_plan_stats(FaultDomain::Memory, ch.plan_for(FaultDomain::Memory));
        exec_rows.push((format!("{name} (base)"), sb_stats));
        exec_rows.push((format!("{name} (hard)"), sh_stats));
        let exact = compare_failures(&exact_failures(&fb), &exact_failures(&fh));

        // Deliberately different sample sizes: extrapolation (Pitfall 3,
        // Corollary 2) makes the counts comparable regardless.
        let mut rng = DefaultRng::seed_from_u64(0x5EED);
        let sb = cb.run_sampled_in(
            FaultDomain::Memory,
            30_000,
            SamplingMode::UniformRaw,
            &mut rng,
        );
        let sh = ch.run_sampled_in(
            FaultDomain::Memory,
            80_000,
            SamplingMode::UniformRaw,
            &mut rng,
        );
        let sampled = compare_failures(
            &extrapolated_failures(&sb, 0.95),
            &extrapolated_failures(&sh, 0.95),
        );

        rows.push(SummaryRow {
            benchmark: name.to_string(),
            f_baseline: fb.failure_weight(),
            f_hardened: fh.failure_weight(),
            ratio_full_scan: exact.ratio,
            ratio_sampled: sampled.ratio,
            ratio_sampled_ci: sampled.ci,
            improves: exact.improves(),
        });
    }

    println!("== §V: r = F_hardened / F_baseline (r < 1 <=> hardening improves) ==");
    let mut t = Table::new(vec![
        "benchmark",
        "F_base",
        "F_hard",
        "r (exact)",
        "r (sampled)",
        "95% CI",
        "verdict",
    ]);
    for r in &rows {
        t.row(vec![
            r.benchmark.clone(),
            r.f_baseline.to_string(),
            r.f_hardened.to_string(),
            format!("{:.3}", r.ratio_full_scan),
            format!("{:.3}", r.ratio_sampled),
            format!("[{:.2}, {:.2}]", r.ratio_sampled_ci.0, r.ratio_sampled_ci.1),
            if r.improves { "improves" } else { "WORSENS" }.to_string(),
        ]);
    }
    println!("{t}");
    println!("The fault-coverage metric would have called every variant an improvement;");
    println!("the absolute-failure-count metric exposes the ones that are not (§V-B).");

    println!();
    println!("== Executor counters (full def/use scans, convergence + memoization on) ==");
    let mut e = Table::new(vec![
        "campaign",
        "experiments",
        "pristine cyc",
        "faulted cyc",
        "early-term",
        "cyc saved",
        "memo hits",
        "memo misses",
        "memo cyc saved",
    ]);
    for (name, s) in &exec_rows {
        e.row(vec![
            name.clone(),
            s.experiments.to_string(),
            s.pristine_cycles.to_string(),
            s.faulted_cycles.to_string(),
            format!(
                "{} ({:.0}%)",
                s.converged_early,
                s.early_termination_rate() * 100.0
            ),
            s.faulted_cycles_saved.to_string(),
            format!("{} ({:.0}%)", s.memo_hits, s.memo_hit_rate() * 100.0),
            s.memo_misses.to_string(),
            s.memoized_cycles_saved.to_string(),
        ]);
    }
    println!("{e}");

    save_artifact("summary.json", &rows);
}
