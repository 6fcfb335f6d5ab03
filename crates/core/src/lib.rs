#![warn(missing_docs)]

//! # sofi — sound fault-injection comparison of programs
//!
//! A complete implementation of the methodology from *"Avoiding Pitfalls
//! in Fault-Injection Based Comparison of Program Susceptibility to Soft
//! Errors"* (DSN 2015): a deterministic machine model, def/use fault-space
//! pruning, parallel FI campaign execution, and — crucially — result
//! accounting that avoids the paper's three pitfalls:
//!
//! 1. **Unweighted result accounting** — def/use-pruned results must be
//!    weighted by equivalence-class size (data lifetime);
//! 2. **Biased sampling** — samples must be drawn from the raw fault
//!    space, not uniformly from the pruned class list;
//! 3. **Fault coverage as a comparison metric** — programs must be
//!    compared by *extrapolated absolute failure counts*, never by
//!    coverage percentages (which any runtime/memory padding inflates).
//!
//! ## Quickstart
//!
//! ```
//! use sofi::prelude::*;
//!
//! // The paper's "Hi" micro-benchmark vs its NOP-diluted "DFT" variant.
//! let baseline = sofi::workloads::hi();
//! let diluted = sofi::workloads::hi_dft(4);
//!
//! let eval = Evaluation::full_scan(&baseline, &diluted)?;
//!
//! // Pitfall 3: coverage "improves" from 62.5 % to 75.0 %...
//! let (cb, ch) = eval.coverages(Weighting::Weighted);
//! assert_eq!((cb, ch), (0.625, 0.75));
//!
//! // ...but the sound metric sees through the dilution: r = 1.
//! let cmp = eval.comparison();
//! assert_eq!(cmp.ratio, 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`isa`] | instruction set, assembler, programs |
//! | [`machine`] | the deterministic CPU/RAM simulator |
//! | [`trace`] | golden runs and access traces |
//! | [`space`] | fault space, def/use pruning, samplers |
//! | [`campaign`] | experiment execution |
//! | [`metrics`] | coverage, failure counts, Poisson model, comparison |
//! | [`harden`] | SUM+DMR, TMR, and the DFT dilution cheats |
//! | [`workloads`] | benchmark programs (hi, bin_sem2, sync2, ...) |
//! | [`report`] | ASCII diagrams, tables, JSON export |

pub use sofi_campaign as campaign;
pub use sofi_harden as harden;
pub use sofi_isa as isa;
pub use sofi_machine as machine;
pub use sofi_metrics as metrics;
pub use sofi_report as report;
pub use sofi_space as space;
pub use sofi_trace as trace;
pub use sofi_workloads as workloads;

pub mod cli;
mod evaluation;

pub use evaluation::{compare_sampled, sampled_pair, Evaluation};

/// The types most programs need.
pub mod prelude {
    pub use crate::evaluation::Evaluation;
    pub use sofi_campaign::{
        Campaign, CampaignConfig, FaultDomain, Outcome, OutcomeClass, SamplingMode,
    };
    pub use sofi_isa::{Asm, Program, Reg};
    pub use sofi_machine::{Machine, RunStatus};
    pub use sofi_metrics::{
        compare_failures, exact_failures, extrapolated_failures, fault_coverage, Comparison,
        Weighting,
    };
    pub use sofi_space::{DefUseAnalysis, FaultCoord, FaultSpace, InjectionPlan};
    pub use sofi_trace::GoldenRun;
    pub use sofi_workloads::Variant;
}
