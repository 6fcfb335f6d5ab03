//! End-to-end pipeline invariants across every benchmark in the suite.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi::workloads::all_baselines;

#[test]
fn every_baseline_campaign_upholds_invariants() {
    for program in all_baselines() {
        let campaign = Campaign::new(&program).expect("golden run");
        // The plan partitions the fault space exactly.
        assert!(
            campaign
                .analysis_for(FaultDomain::Memory)
                .is_exact_partition(),
            "{}: def/use classes must tile the fault space",
            program.name
        );
        assert_eq!(
            campaign.plan_for(FaultDomain::Memory).total_weight(),
            campaign.golden().fault_space_size(),
            "{}: plan must cover w",
            program.name
        );

        let result = campaign.run_full_defuse_in(FaultDomain::Memory);
        assert!(result.covers_space(), "{}", program.name);
        // Weighted failure count never exceeds the experiment weight.
        assert!(
            result.failure_weight() <= campaign.plan_for(FaultDomain::Memory).experiment_weight(),
            "{}",
            program.name
        );
        // Benign + failure weights account for every coordinate.
        assert_eq!(
            result.benign_weight() + result.failure_weight(),
            result.space.size(),
            "{}",
            program.name
        );
    }
}

#[test]
fn campaigns_are_deterministic() {
    let program = sofi::workloads::crc32();
    let campaign = Campaign::new(&program).unwrap();
    let r1 = campaign.run_full_defuse_in(FaultDomain::Memory);
    let r2 = campaign.run_full_defuse_in(FaultDomain::Memory);
    assert_eq!(r1, r2);
}

#[test]
fn thread_count_does_not_change_results() {
    let program = sofi::workloads::fib(sofi::workloads::Variant::Baseline);
    let mut results = Vec::new();
    for threads in [1, 2, 8] {
        let config = CampaignConfig {
            threads,
            ..CampaignConfig::default()
        };
        let campaign = Campaign::with_config(&program, config).unwrap();
        results.push(campaign.run_full_defuse_in(FaultDomain::Memory));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

#[test]
fn golden_runs_match_direct_execution() {
    use sofi::machine::Machine;
    for program in all_baselines() {
        let campaign = Campaign::new(&program).unwrap();
        let mut m = Machine::new(&program);
        m.run(sofi::campaign::GOLDEN_CYCLE_LIMIT);
        assert_eq!(campaign.golden().serial, m.serial(), "{}", program.name);
        assert_eq!(campaign.golden().cycles, m.cycle(), "{}", program.name);
    }
}
