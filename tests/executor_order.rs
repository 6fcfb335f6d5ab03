//! The executor's order oracle: whatever order a list arrives in —
//! reversed, shuffled, with repeats, or empty — and whatever the thread
//! count, `run_experiments_stats` returns the results of naive replay as
//! the same vector, and two identical campaigns count the same
//! `ExecutorStats`. Each campaign runs its lists one after another over
//! its one memo, so later lists also start from what earlier ones left.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi::workloads::{fib, strrev, Variant};
use sofi_rng::{DefaultRng, Rng};
use sofi_space::Experiment;

/// The lists every campaign runs, in this order.
fn lists(plan: &[Experiment], seed: u64) -> [(&'static str, Vec<Experiment>); 4] {
    let reversed: Vec<Experiment> = plan.iter().rev().copied().collect();
    let mut shuffled = plan.to_vec();
    DefaultRng::seed_from_u64(seed).shuffle(&mut shuffled);
    // Every experiment twice, the second copy in reverse order.
    let duplicated = plan.iter().chain(plan.iter().rev()).copied().collect();
    [
        ("reversed", reversed),
        ("shuffled", shuffled),
        ("duplicated", duplicated),
        ("empty", Vec::new()),
    ]
}

#[test]
fn executor_returns_the_callers_order_and_repeats_its_counters() {
    for program in [fib(Variant::Baseline), strrev()] {
        let oracle = Campaign::with_config(&program, CampaignConfig::sequential()).unwrap();
        for domain in FaultDomain::ALL {
            let lists = lists(&oracle.plan_for(domain).experiments, domain as u64);
            let naive: Vec<_> = lists
                .iter()
                .map(|(_, list)| oracle.run_experiments_naive(domain, list))
                .collect();
            for threads in [1, 2, 3] {
                let config = CampaignConfig {
                    threads,
                    ..CampaignConfig::default()
                };
                let first = Campaign::with_config(&program, config).unwrap();
                let second = Campaign::with_config(&program, config).unwrap();
                for ((name, list), naive) in lists.iter().zip(&naive) {
                    let case = format!("{}/{domain:?}/{name} at {threads} threads", program.name);
                    let (results, stats) = first.run_experiments_stats(domain, list);
                    assert_eq!(&results, naive, "{case}: not naive replay's vector");
                    assert_eq!(stats.experiments, list.len() as u64, "{case}");
                    let (again, again_stats) = second.run_experiments_stats(domain, list);
                    assert_eq!(again, results, "{case}: results differ between campaigns");
                    assert_eq!(
                        again_stats, stats,
                        "{case}: executor stats differ between identical campaigns"
                    );
                }
            }
        }
    }
}
