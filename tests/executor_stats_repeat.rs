//! Repeatability of the executor's counters: at one thread the memo cost
//! gate decides from counts (probes, re-hashed pages, simulated and saved
//! cycles), never from the clock, so two identical campaigns must agree
//! on every `ExecutorStats` field, not only on outcomes — however busy
//! the host is while they run.

use sofi::campaign::{Campaign, CampaignConfig, ExecutorStats, FaultDomain};
use sofi::workloads::{binsearch, fib, matmul, rle, strrev, Variant};

#[test]
fn executor_stats_repeat_at_one_thread() {
    let mut total = ExecutorStats::default();
    for program in [
        fib(Variant::Baseline),
        strrev(),
        rle(),
        binsearch(),
        matmul(),
    ] {
        // Each campaign runs the five domains in order over its one
        // shared memo, so later domains also start from a warm cache.
        let first = Campaign::with_config(&program, CampaignConfig::sequential()).unwrap();
        let second = Campaign::with_config(&program, CampaignConfig::sequential()).unwrap();
        for domain in FaultDomain::ALL {
            let (a, a_stats) = first.run_plan_stats(domain, first.plan_for(domain));
            let (b, b_stats) = second.run_plan_stats(domain, second.plan_for(domain));
            assert_eq!(a, b, "{}/{domain:?}: results differ", program.name);
            assert_eq!(
                a_stats, b_stats,
                "{}/{domain:?}: executor stats differ between identical runs",
                program.name
            );
            total.absorb(&a_stats);
        }
    }
    // Not vacuous: the sweep exercises both gate verdicts and memo hits.
    assert!(
        total.gate_shards_on > 0 && total.gate_shards_off > 0,
        "{total:?}"
    );
    assert!(total.memo_hits > 0, "{total:?}");
}
