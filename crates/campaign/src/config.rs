//! Campaign configuration.

use sofi_machine::MachineConfig;

/// Execution parameters of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Worker threads. `0` selects the available parallelism.
    pub threads: usize,
    /// Experiment cycle budget as a multiple of the golden runtime. A
    /// faulted run exceeding `golden_cycles * timeout_factor +
    /// timeout_slack` is classified as a timeout.
    pub timeout_factor: u64,
    /// Constant slack added to the cycle budget (covers very short
    /// benchmarks where a small absolute overrun is plausible).
    pub timeout_slack: u64,
    /// Record runtime telemetry (`sofi-telemetry` counters, histograms
    /// and phase spans) while the campaign runs. Off by default: the
    /// disabled registry hands out no-op handles, so the executor's hot
    /// paths pay a single never-taken branch per record site.
    pub telemetry: bool,
    /// Machine limits used for experiment runs.
    pub machine: MachineConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            threads: 0,
            timeout_factor: 3,
            timeout_slack: 1_000,
            telemetry: false,
            machine: MachineConfig::default(),
        }
    }
}

impl CampaignConfig {
    /// Single-threaded configuration (deterministic result ordering is
    /// guaranteed either way; this avoids thread startup for tiny plans).
    pub fn sequential() -> Self {
        CampaignConfig {
            threads: 1,
            ..Self::default()
        }
    }

    /// The experiment cycle budget for a benchmark of `golden_cycles`.
    pub fn cycle_budget(&self, golden_cycles: u64) -> u64 {
        golden_cycles
            .saturating_mul(self.timeout_factor)
            .saturating_add(self.timeout_slack)
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

    /// Packs the configuration into a fixed array of words for wire and
    /// journal serialization (`sofi-serve` job specs). [`CampaignConfig::unpack`]
    /// is its inverse on these words; the field order is part of the
    /// `sofi-serve` protocol version. Only fields a client chooses travel:
    /// [`MachineConfig::block_engine`] is an in-process hook for the
    /// engine oracles, so it is not packed and unpacks to the default.
    pub fn pack(&self) -> [u64; 5] {
        [
            self.threads as u64,
            self.timeout_factor,
            self.timeout_slack,
            self.machine.serial_limit as u64,
            u64::from(self.telemetry),
        ]
    }

    /// Rebuilds a configuration from [`CampaignConfig::pack`]ed words.
    pub fn unpack(words: [u64; 5]) -> CampaignConfig {
        CampaignConfig {
            threads: words[0] as usize,
            timeout_factor: words[1],
            timeout_slack: words[2],
            telemetry: words[4] != 0,
            machine: MachineConfig {
                serial_limit: words[3] as usize,
                ..MachineConfig::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_math() {
        let c = CampaignConfig::default();
        assert_eq!(c.cycle_budget(100), 1_300);
        let c = CampaignConfig {
            timeout_factor: 2,
            timeout_slack: 0,
            ..c
        };
        assert_eq!(c.cycle_budget(u64::MAX), u64::MAX); // saturates
    }

    #[test]
    fn thread_resolution() {
        assert!(CampaignConfig::default().effective_threads() >= 1);
        assert_eq!(CampaignConfig::sequential().effective_threads(), 1);
    }

    #[test]
    fn pack_unpack_round_trips() {
        let configs = [
            CampaignConfig::default(),
            CampaignConfig::sequential(),
            CampaignConfig {
                threads: 7,
                timeout_factor: 9,
                timeout_slack: 123,
                telemetry: true,
                machine: MachineConfig {
                    serial_limit: 42,
                    ..MachineConfig::default()
                },
            },
        ];
        for c in configs {
            assert_eq!(CampaignConfig::unpack(c.pack()), c);
        }
    }

    #[test]
    fn block_engine_stays_off_the_wire() {
        let mut stepping = CampaignConfig::default();
        stepping.machine.block_engine = false;
        assert_eq!(stepping.pack(), CampaignConfig::default().pack());
        assert!(CampaignConfig::unpack(stepping.pack()).machine.block_engine);
    }
}
