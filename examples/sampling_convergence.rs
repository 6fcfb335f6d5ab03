//! Sampling convergence: how the extrapolated failure count approaches
//! the exact full-scan value as the sample grows, and why raw sample
//! counts (Pitfall 3, Corollary 2) are meaningless across sample sizes.
//!
//! ```sh
//! cargo run --release --example sampling_convergence
//! ```

use sofi::prelude::*;
use sofi::workloads::{bin_sem2, Variant};
use sofi_rng::DefaultRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = bin_sem2(Variant::Baseline);
    let campaign = Campaign::new(&program)?;
    let exact = campaign
        .run_full_defuse_in(FaultDomain::Memory)
        .failure_weight();
    println!("exact weighted failure count (full scan): {exact}");
    println!();
    println!("   draws   F_raw (useless)   F_extrapolated   95% CI               experiments run");
    println!("  ------------------------------------------------------------------------------");

    for draws in [100u64, 1_000, 10_000, 100_000] {
        let mut rng = DefaultRng::seed_from_u64(2024);
        let sampled = campaign.run_sampled_in(
            FaultDomain::Memory,
            draws,
            SamplingMode::UniformRaw,
            &mut rng,
        );
        let est = extrapolated_failures(&sampled, 0.95);
        let hit = est.ci.0 <= exact as f64 && exact as f64 <= est.ci.1;
        println!(
            "  {draws:>6}   {:>15}   {:>14.0}   [{:>8.0}, {:>8.0}]{}  {:>10}",
            sampled.failure_hits(),
            est.failures,
            est.ci.0,
            est.ci.1,
            if hit { " " } else { "!" },
            sampled.experiments_run(),
        );
    }
    println!();
    println!("F_raw grows with the sample size (it measures the experimenter's budget,");
    println!("not the program); the extrapolated count converges on the true value, and");
    println!("thanks to def/use pruning even 100k draws cost only a few thousand");
    println!("conducted experiments.");
    Ok(())
}
