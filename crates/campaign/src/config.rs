//! Campaign configuration and the limits that decide outcomes.
//!
//! The limits are constants, not options: comparing a baseline with its
//! hardened variant by absolute failure counts (timeouts and output
//! floods included) is sound only when every experiment of both runs
//! under one cycle budget and one serial limit
//! ([`sofi_machine::SERIAL_LIMIT`]).

use sofi_machine::MachineConfig;

/// The cycle budget of a faulted run, as a multiple of the golden
/// runtime: a run exceeding `golden_cycles * TIMEOUT_FACTOR +
/// TIMEOUT_SLACK` is classified as a timeout.
pub const TIMEOUT_FACTOR: u64 = 3;

/// Constant slack added to the cycle budget (covers very short
/// benchmarks where a small absolute overrun is plausible).
pub const TIMEOUT_SLACK: u64 = 1_000;

// The executor classifies a run that converged onto a pristine
// checkpoint as if it had run the golden tail, which is sound only while
// every budget covers the golden runtime.
const _: () = assert!(TIMEOUT_FACTOR >= 1);

/// The cycle limit golden runs are captured under: a program that does
/// not finish within it cannot be the subject of a campaign.
pub const GOLDEN_CYCLE_LIMIT: u64 = 50_000_000;

/// The experiment cycle budget for a benchmark of `golden_cycles`.
pub(crate) fn cycle_budget(golden_cycles: u64) -> u64 {
    golden_cycles
        .saturating_mul(TIMEOUT_FACTOR)
        .saturating_add(TIMEOUT_SLACK)
}

/// How a campaign runs — never what an experiment returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Worker threads. `0` selects the available parallelism.
    pub threads: usize,
    /// Record runtime telemetry (`sofi-telemetry` counters, histograms
    /// and phase spans) while the campaign runs. Off by default: the
    /// disabled registry hands out no-op handles, so the executor's hot
    /// paths pay a single never-taken branch per record site.
    pub telemetry: bool,
    /// How experiment runs execute (the engine oracles' hook).
    pub machine: MachineConfig,
}

impl CampaignConfig {
    /// Single-threaded configuration. Results, their order and every
    /// executor counter are the same at any thread count; this avoids
    /// thread start-up for tiny plans.
    pub fn sequential() -> Self {
        CampaignConfig {
            threads: 1,
            ..Self::default()
        }
    }

    /// Resolves the worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_math() {
        assert_eq!(cycle_budget(100), 1_300);
        assert_eq!(cycle_budget(u64::MAX), u64::MAX); // saturates
    }

    #[test]
    fn thread_resolution() {
        assert!(CampaignConfig::default().effective_threads() >= 1);
        assert_eq!(CampaignConfig::sequential().effective_threads(), 1);
    }
}
