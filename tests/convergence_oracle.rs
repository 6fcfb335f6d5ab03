//! Oracle for convergence termination: on every benchmark's def/use plan,
//! in both data fault domains, the default executor — forking from
//! pristine checkpoints and stopping a faulted run as soon as its state
//! converges back onto the golden run — must produce results identical
//! to naive replay, which simulates every experiment to completion.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::workloads::all_baselines;

#[test]
fn converging_executor_matches_naive_on_every_workload() {
    let mut total_converged = 0u64;
    let mut total_saved = 0u64;
    for program in all_baselines() {
        let campaign = Campaign::new(&program).expect("golden run");
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let experiments = &campaign.plan_for(domain).experiments;
            let (results, stats) = campaign.run_experiments_stats(domain, experiments);
            let naive = campaign.run_experiments_naive(domain, experiments);
            assert_eq!(
                results, naive,
                "{}/{domain:?}: convergence termination changed outcomes",
                program.name
            );
            total_converged += stats.converged_early;
            total_saved += stats.faulted_cycles_saved;
        }
    }
    // The equivalence above must not hold vacuously: across the suite the
    // optimization has to actually fire and skip simulation work.
    assert!(total_converged > 0, "no experiment ever converged early");
    assert!(total_saved > 0, "convergence never saved any cycles");
}
