//! `BENCH_campaign.json`: the default executor against the naive-replay
//! oracle, both sequential, on every baseline workload in the two data
//! fault domains, plus the default executor's telemetry-enabled twin.
//!
//! The run fails when the default path loses to naive replay (below
//! 0.9×) or live telemetry costs more than 5 % over the disabled path,
//! each with 10 ms of absolute slack. `SOFI_BENCH_SMOKE=1` restricts the
//! sweep to the `hi` workload.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi::workloads::hi;

/// One `BENCH_campaign.json` record: a (workload, domain) comparison of
/// the default executor (pristine forking, checkpoint convergence,
/// cost-gated fault-equivalence memoization, µop engine) against the
/// naive-replay oracle, both sequential on the default machine, plus the
/// default executor's telemetry-enabled twin. The default timings reset
/// the memo before every sample so they measure a cold-cache campaign,
/// not a warm replay.
struct BenchRow {
    workload: String,
    domain: String,
    experiments: u64,
    golden_cycles: u64,
    naive_secs: f64,
    default_secs: f64,
    naive_exp_per_sec: f64,
    default_exp_per_sec: f64,
    speedup_default_vs_naive: f64,
    pristine_cycles: u64,
    faulted_cycles: u64,
    converged_early: u64,
    faulted_cycles_saved: u64,
    early_termination_rate: f64,
    memo_hits: u64,
    memo_misses: u64,
    memo_hit_rate: f64,
    memoized_cycles_saved: u64,
    gate_shards_on: u64,
    gate_shards_off: u64,
    block_cycles: u64,
    step_cycles: u64,
    block_cycle_fraction: f64,
    telemetry_secs: f64,
    telemetry_overhead_pct: f64,
}
sofi::report::impl_to_json!(BenchRow {
    workload,
    domain,
    experiments,
    golden_cycles,
    naive_secs,
    default_secs,
    naive_exp_per_sec,
    default_exp_per_sec,
    speedup_default_vs_naive,
    pristine_cycles,
    faulted_cycles,
    converged_early,
    faulted_cycles_saved,
    early_termination_rate,
    memo_hits,
    memo_misses,
    memo_hit_rate,
    memoized_cycles_saved,
    gate_shards_on,
    gate_shards_off,
    block_cycles,
    step_cycles,
    block_cycle_fraction,
    telemetry_secs,
    telemetry_overhead_pct
});

/// Minimum wall time of `f` over `samples` runs (plus one warm-up).
fn time_min(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..samples)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Minimum wall times of `a` and `b`, *interleaved* (a, b, a, b, …) so a
/// noisy-neighbor or frequency-scaling episode hits both measurands
/// instead of biasing whichever ran during it. Used for the
/// telemetry-overhead guard, which compares two nearly identical code
/// paths and would otherwise be dominated by time-locality noise.
fn time_min_pair(samples: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let mut min_a = f64::INFINITY;
    let mut min_b = f64::INFINITY;
    for _ in 0..samples {
        let start = std::time::Instant::now();
        a();
        min_a = min_a.min(start.elapsed().as_secs_f64());
        let start = std::time::Instant::now();
        b();
        min_b = min_b.min(start.elapsed().as_secs_f64());
    }
    (min_a, min_b)
}

fn main() {
    // The default executor against the naive-replay oracle, recorded
    // machine-readably. `SOFI_BENCH_SMOKE=1` restricts the sweep to the
    // smallest workload so CI can exercise the whole path in seconds.
    let smoke = std::env::var_os("SOFI_BENCH_SMOKE").is_some();
    let workloads = if smoke {
        vec![hi()]
    } else {
        sofi::workloads::all_baselines()
    };
    let samples = if smoke { 3 } else { 5 };

    println!("campaign/executor (sequential; times are min of {samples} runs)");
    let mut rows = Vec::new();
    for program in workloads {
        let default = Campaign::with_config(&program, CampaignConfig::sequential()).unwrap();
        // Telemetry-enabled twin of `default`: every counter, histogram
        // and span record site live. `default_secs` doubles as the
        // telemetry-disabled baseline — identical config except for one
        // never-taken branch per record site.
        let telemetered = Campaign::with_config(
            &program,
            CampaignConfig {
                telemetry: true,
                ..CampaignConfig::sequential()
            },
        )
        .unwrap();
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let experiments = &default.plan_for(domain).experiments;
            let naive_secs = time_min(samples, || {
                drop(default.run_experiments_naive(domain, experiments))
            });
            // Cold-cache timings, interleaved: the memo survives between
            // samples (and between domains) otherwise, which would
            // measure a warm replay instead of a fresh campaign.
            let (default_secs, telemetry_secs) = time_min_pair(
                samples,
                || {
                    default.reset_memo();
                    drop(default.run_experiments_stats(domain, experiments))
                },
                || {
                    telemetered.reset_memo();
                    drop(telemetered.run_experiments_stats(domain, experiments))
                },
            );
            // Overhead guard: live telemetry must stay within 5% of the
            // disabled path. Interleaved min-of-N timing suppresses
            // scheduler and frequency-scaling noise (shared-CPU runners
            // show double-digit swings between back-to-back identical
            // runs); the 10ms absolute slack keeps sub-millisecond smoke
            // workloads (where 5% is far below timer noise) meaningful.
            let overhead_budget = default_secs * 1.05 + 0.010;
            assert!(
                telemetry_secs <= overhead_budget,
                "telemetry overhead guard: {} {:?} enabled {telemetry_secs:.4}s vs \
                 disabled {default_secs:.4}s (budget {overhead_budget:.4}s)",
                program.name,
                domain,
            );
            default.reset_memo();
            let (_, stats) = default.run_experiments_stats(domain, experiments);
            // Engine dispatch mix, accumulated by the telemetered twin
            // across its timed samples (evidence that faulted work
            // actually retires through the µop loop).
            let engine = telemetered.telemetry().snapshot();
            let block_cycles = engine.counter(sofi::campaign::telemetry_names::BLOCK_CYCLES);
            let step_cycles = engine.counter(sofi::campaign::telemetry_names::STEP_CYCLES);

            let n = experiments.len() as f64;
            let row = BenchRow {
                workload: program.name.clone(),
                domain: format!("{domain:?}"),
                experiments: experiments.len() as u64,
                golden_cycles: default.golden().cycles,
                naive_secs,
                default_secs,
                naive_exp_per_sec: n / naive_secs,
                default_exp_per_sec: n / default_secs,
                speedup_default_vs_naive: naive_secs / default_secs,
                pristine_cycles: stats.pristine_cycles,
                faulted_cycles: stats.faulted_cycles,
                converged_early: stats.converged_early,
                faulted_cycles_saved: stats.faulted_cycles_saved,
                early_termination_rate: stats.early_termination_rate(),
                memo_hits: stats.memo_hits,
                memo_misses: stats.memo_misses,
                memo_hit_rate: stats.memo_hit_rate(),
                memoized_cycles_saved: stats.memoized_cycles_saved,
                gate_shards_on: stats.gate_shards_on,
                gate_shards_off: stats.gate_shards_off,
                block_cycles,
                step_cycles,
                block_cycle_fraction: if block_cycles + step_cycles > 0 {
                    block_cycles as f64 / (block_cycles + step_cycles) as f64
                } else {
                    0.0
                },
                telemetry_secs,
                telemetry_overhead_pct: (telemetry_secs / default_secs - 1.0) * 100.0,
            };
            // The default path must never lose to the oracle it replaces:
            // ≥0.9× naive everywhere. The 10ms absolute slack keeps
            // sub-millisecond smoke workloads (where timer noise dwarfs
            // 10%) meaningful.
            assert!(
                row.default_secs <= row.naive_secs / 0.9 + 0.010,
                "executor bench guard: {} {} default {:.4}s is below 0.9x naive ({:.4}s)",
                row.workload,
                row.domain,
                row.default_secs,
                row.naive_secs,
            );
            println!(
                "  {:<12} {:<12} naive {:>9.1} exp/s  default {:>9.1} exp/s ({:.2}x), \
                 gate {}",
                row.workload,
                row.domain,
                row.naive_exp_per_sec,
                row.default_exp_per_sec,
                row.speedup_default_vs_naive,
                if row.gate_shards_off > 0 { "off" } else { "on" },
            );
            println!(
                "  {:<12} {:<12} {:.0}% early, {:.0}% memo hits, {:.0}% µop cycles, \
                 telemetry on {:>9.1} exp/s ({:+.1}% vs disabled)",
                row.workload,
                row.domain,
                row.early_termination_rate * 100.0,
                row.memo_hit_rate * 100.0,
                row.block_cycle_fraction * 100.0,
                n / row.telemetry_secs,
                row.telemetry_overhead_pct
            );
            rows.push(row);
        }
    }
    println!();
    sofi_bench::save_artifact("BENCH_campaign.json", &rows);
}
