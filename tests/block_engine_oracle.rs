//! Oracle for the pre-decoded basic-block execution engine: on every
//! benchmark, in both data fault domains, a campaign executing through
//! the µop engine (the default) must be bit-identical to one forced onto
//! the cycle-exact single-step interpreter (`MachineConfig::block_engine:
//! false`) — identical golden runs (including the full memory- and
//! register-access traces, so observed execution is covered too),
//! identical outcomes from naive replay, and identical outcomes from the
//! default executor (pristine forking, checkpoint convergence and
//! fault-equivalence memoization), whose checkpoint probes and injection
//! cycles are exactly the boundaries the engine must not blur. Naive
//! replay on the stepping interpreter is the reference every other path
//! is compared against.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi::trace::GoldenRun;
use sofi::workloads::{all_baselines, sensor, sensor_events};

/// The same campaign configuration with the block engine forced off.
fn stepping(mut config: CampaignConfig) -> CampaignConfig {
    config.machine.block_engine = false;
    config
}

/// Field-by-field golden-run equality (the struct holds the complete
/// observable behaviour plus both access traces).
fn assert_golden_eq(blocks: &GoldenRun, steps: &GoldenRun, name: &str) {
    assert_eq!(blocks.cycles, steps.cycles, "{name}: golden cycle count");
    assert_eq!(blocks.ram_bits, steps.ram_bits, "{name}: golden ram bits");
    assert_eq!(blocks.serial, steps.serial, "{name}: golden serial output");
    assert_eq!(
        blocks.exit_code, steps.exit_code,
        "{name}: golden exit code"
    );
    assert_eq!(
        blocks.detect_count, steps.detect_count,
        "{name}: golden detections"
    );
    assert_eq!(blocks.trace, steps.trace, "{name}: golden memory trace");
    assert_eq!(
        blocks.reg_trace, steps.reg_trace,
        "{name}: golden register trace"
    );
}

/// Both campaigns of one program, both data domains, both executor
/// paths on both engines, compared experiment-by-experiment.
fn assert_campaigns_identical(blocks: &Campaign, steps: &Campaign, name: &str) {
    assert_golden_eq(blocks.golden(), steps.golden(), name);
    for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
        let experiments = &blocks.plan_for(domain).experiments;
        let step_naive = steps.run_experiments_naive(domain, experiments);
        let block_naive = blocks.run_experiments_naive(domain, experiments);
        assert_eq!(
            block_naive, step_naive,
            "{name}/{domain:?}: block engine changed naive-replay outcomes"
        );
        let (block_default, _) = blocks.run_experiments_stats(domain, experiments);
        assert_eq!(
            block_default, step_naive,
            "{name}/{domain:?}: block engine changed default-executor outcomes"
        );
        let (step_default, _) = steps.run_experiments_stats(domain, experiments);
        assert_eq!(
            step_default, step_naive,
            "{name}/{domain:?}: stepping default executor self-check failed"
        );
    }
}

#[test]
fn block_engine_matches_step_interpreter_on_every_workload() {
    for program in all_baselines() {
        let blocks = Campaign::with_config(&program, CampaignConfig::default()).expect("golden");
        let steps =
            Campaign::with_config(&program, stepping(CampaignConfig::default())).expect("golden");
        assert_campaigns_identical(&blocks, &steps, &program.name);
    }
}

#[test]
fn block_engine_matches_step_interpreter_with_external_events() {
    // External-event latch cycles are the one boundary the dispatcher
    // must fall back to single-stepping for even mid-run; the sensor
    // workload's schedule exercises every delivery.
    let program = sensor();
    let blocks = Campaign::with_events(&program, CampaignConfig::default(), sensor_events())
        .expect("golden");
    let steps = Campaign::with_events(
        &program,
        stepping(CampaignConfig::default()),
        sensor_events(),
    )
    .expect("golden");
    assert_campaigns_identical(&blocks, &steps, "sensor");
}
