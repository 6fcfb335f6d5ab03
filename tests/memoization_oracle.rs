//! Oracle for fault-equivalence outcome memoization: on every benchmark's
//! def/use plan, in both data fault domains, the memoizing executor must
//! produce results bit-identical to naive replay, which simulates every
//! experiment to completion with no checkpoint, convergence or memo
//! involved.
//!
//! Memoization always runs composed with convergence termination. The
//! first test forces every experiment's injection-point probe through
//! warm-store harvest mode ([`Campaign::set_memo_harvest`]) and runs each
//! plan twice — cold, then warm with the cache fully populated — because
//! the warm pass exercises the injection-time hit branch for every
//! single experiment. The second
//! test holds the default executor, behind the cost gate that prices
//! probes and re-hashed pages in simulated cycles, to the same reference.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::workloads::all_baselines;

#[test]
fn memoized_executor_matches_naive_on_every_workload() {
    let mut total_hits = 0u64;
    let mut total_saved = 0u64;
    for program in all_baselines() {
        let campaign = Campaign::new(&program).expect("golden run");
        // Harvest mode probes every experiment at its injection point
        // regardless of the cost gate; the warm pass's 100% hit rate
        // depends on it.
        campaign.set_memo_harvest();
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let experiments = &campaign.plan_for(domain).experiments;
            let expected = campaign.run_experiments_naive(domain, experiments);

            campaign.reset_memo();
            let (cold, cold_stats) = campaign.run_experiments_stats(domain, experiments);
            assert_eq!(
                cold, expected,
                "{}/{domain:?}: cold-cache memoization changed outcomes",
                program.name
            );

            let (warm, warm_stats) = campaign.run_experiments_stats(domain, experiments);
            assert_eq!(
                warm, expected,
                "{}/{domain:?}: warm-cache memoization changed outcomes",
                program.name
            );
            // Warm pass: every experiment must be answered from the cache.
            assert_eq!(
                warm_stats.memo_hits, warm_stats.experiments,
                "{}/{domain:?}: warm cache missed",
                program.name
            );
            assert_eq!(warm_stats.faulted_cycles, 0);

            total_hits += cold_stats.memo_hits;
            total_saved += cold_stats.memoized_cycles_saved;
        }
    }
    // The equivalence above must not hold vacuously: even with a cold
    // cache, pristine-checkpoint pre-seeding and trajectory convergence
    // have to produce hits somewhere across the suite.
    assert!(total_hits > 0, "memoization never hit on a cold cache");
    assert!(total_saved > 0, "memoization never saved any cycles");
}

#[test]
fn memoized_executor_matches_naive_composed_with_convergence() {
    // The default executor, with the cost gate deciding per shard whether
    // to probe: convergence can terminate a run before a
    // checkpoint-crossing lookup fires, so the gated composition must be
    // outcome-identical to naive replay too, and memo hits must still
    // occur somewhere across the suite.
    let mut total_hits = 0u64;
    let mut total_saved = 0u64;
    for program in all_baselines() {
        let campaign = Campaign::new(&program).expect("golden run");
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let experiments = &campaign.plan_for(domain).experiments;
            let (results, stats) = campaign.run_experiments_stats(domain, experiments);
            let naive = campaign.run_experiments_naive(domain, experiments);
            assert_eq!(
                results, naive,
                "{}/{domain:?}: memoization + convergence changed outcomes",
                program.name
            );
            total_hits += stats.memo_hits;
            total_saved += stats.memoized_cycles_saved;
        }
    }
    assert!(total_hits > 0, "the default executor never hit the memo");
    assert!(
        total_saved > 0,
        "the default executor's memo never saved any cycles"
    );
}
