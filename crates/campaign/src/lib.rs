#![warn(missing_docs)]

//! Fault-injection campaign execution.
//!
//! A *campaign* executes an [`sofi_space::InjectionPlan`] against a program:
//! for every planned experiment the machine is forked at the injection
//! cycle, the bit is flipped, execution resumes, and the run's observable
//! behaviour is classified against the golden run (§II-D of the paper).
//!
//! The executor exploits four properties of the setup:
//!
//! * plans are sorted by injection cycle, so a single *pristine* machine is
//!   advanced monotonically and cheaply forked at each injection point
//!   (machine RAM is copy-on-write, so a fork costs a page-table clone,
//!   not a memcpy — and no per-experiment replay from cycle 0);
//! * experiments are independent, so the cycle-sorted list is split into
//!   one contiguous cycle-span chunk per worker thread, each worker
//!   starting from a pristine checkpoint near its chunk — total pristine
//!   forward simulation stays close to the sequential executor's instead
//!   of growing with the thread count;
//! * the machine is deterministic, so a faulted run whose live
//!   architectural state matches a pristine checkpoint has provably the
//!   same remaining behaviour as the golden run — the executor compares
//!   state at each checkpoint crossed and classifies such runs
//!   immediately instead of simulating the tail;
//! * for the same reason two injections that reach the same architectural
//!   state at the same cycle share one outcome, so a per-campaign memo
//!   keyed on state digests answers repeats without simulating them.
//!
//! Every faulted run takes this one path: plan scans, samples, the
//! daemon's shards and burst draws ([`Campaign::run_burst_sampled_in`],
//! whose faults flip several adjacent bits at once). Outcomes stay
//! bit-identical to [`Campaign::run_experiments_naive`], which replays
//! every experiment from cycle 0 with the same fault and is the one
//! oracle the optimizations are held to.
//!
//! # Examples
//!
//! ```
//! use sofi_isa::{Asm, Reg};
//! use sofi_trace::GoldenRun;
//! use sofi_space::DefUseAnalysis;
//! use sofi_campaign::{Campaign, FaultDomain, Outcome};
//!
//! let mut a = Asm::new();
//! let x = a.data_bytes("x", &[7]);
//! a.lb(Reg::R1, Reg::R0, x.offset());
//! a.serial_out(Reg::R1);
//! let program = a.build()?;
//!
//! let campaign = Campaign::new(&program)?;
//! let result = campaign.run_full_defuse_in(FaultDomain::Memory);
//! // Flipping any of the 8 bits of `x` before the read corrupts output.
//! assert_eq!(result.results.len(), 8);
//! assert!(result
//!     .results
//!     .iter()
//!     .all(|r| r.outcome == Outcome::SilentDataCorruption));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod burst;
mod config;
mod executor;
mod outcome;
mod result;
pub mod resume;
mod sampling;

pub use burst::BurstSampledResult;
pub use config::{CampaignConfig, GOLDEN_CYCLE_LIMIT, TIMEOUT_FACTOR, TIMEOUT_SLACK};
pub use executor::{Campaign, ExecutorStats, MemoRecord};
pub use outcome::{Outcome, OutcomeClass, ABORT_CODE};
pub use result::{CampaignResult, ExperimentResult, FaultDomain, ParseDomainError};
pub use sampling::{SampledOutcome, SampledResult, SamplingMode};
/// Metric names recorded by the executor into [`Campaign::telemetry`],
/// re-exported so downstream consumers (CLI, benches) can look counters
/// up in a [`sofi_telemetry::Snapshot`] without a direct telemetry
/// dependency.
pub use sofi_telemetry::names as telemetry_names;
