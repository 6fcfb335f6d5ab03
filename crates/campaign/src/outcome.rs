//! Experiment-outcome taxonomy.
//!
//! §II-D of the paper distinguishes eight experiment-outcome types, of
//! which two — "No Effect" and "Detected & Corrected" — are benign. For the
//! paper's analyses everything else is coalesced into a single "Failure"
//! class ([`OutcomeClass`]); the detailed taxonomy is retained because the
//! generalization in §VI-B extrapolates each effective outcome type
//! separately.

use sofi_machine::{RunStatus, Trap};
use sofi_trace::GoldenRun;
use std::fmt;

/// Halt code a hardened program uses to signal "error detected, cannot
/// correct — aborting". Classified as [`Outcome::DetectedUnrecoverable`]:
/// still a failure (the run did not produce its output), but a *detected*
/// one (fail-stop behaviour rather than silent corruption).
pub const ABORT_CODE: u16 = 0xDE;

/// Detailed outcome of one FI experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Output, exit status and detection count match the golden run: the
    /// fault was masked or stayed dormant.
    NoEffect,
    /// Output matches, but the fault-tolerance mechanism reported at least
    /// one correction: benign, the mechanism worked.
    DetectedCorrected,
    /// The run halted cleanly but produced wrong output.
    SilentDataCorruption,
    /// The program detected an uncorrectable error and aborted fail-stop
    /// (halt with [`ABORT_CODE`]).
    DetectedUnrecoverable,
    /// The run halted with an unexpected nonzero exit code.
    AbnormalHalt {
        /// The exit code observed.
        code: u16,
    },
    /// A CPU exception (trap) stopped the machine.
    CpuException(Trap),
    /// The run exceeded its cycle budget.
    Timeout,
    /// The run flooded the serial interface past the configured limit.
    OutputFlood,
}

impl Outcome {
    /// `true` for the two benign outcome types of §II-D.
    pub fn is_benign(self) -> bool {
        matches!(self, Outcome::NoEffect | Outcome::DetectedCorrected)
    }

    /// Coalesces into the paper's two-way classification.
    pub fn class(self) -> OutcomeClass {
        if self.is_benign() {
            OutcomeClass::NoEffect
        } else {
            OutcomeClass::Failure
        }
    }

    /// Classifies a finished experiment run against the golden run.
    ///
    /// `status` must not be `RunStatus::Halted`-pending — i.e. the machine
    /// has stopped or hit its limit.
    pub fn classify(status: RunStatus, serial: &[u8], detects: u64, golden: &GoldenRun) -> Outcome {
        match status {
            RunStatus::Halted { code: 0 } => {
                if serial == golden.serial.as_slice() {
                    if detects > golden.detect_count {
                        Outcome::DetectedCorrected
                    } else {
                        Outcome::NoEffect
                    }
                } else {
                    Outcome::SilentDataCorruption
                }
            }
            RunStatus::Halted { code: ABORT_CODE } => Outcome::DetectedUnrecoverable,
            RunStatus::Halted { code } => Outcome::AbnormalHalt { code },
            RunStatus::Trapped(Trap::SerialOverflow) => Outcome::OutputFlood,
            RunStatus::Trapped(t) => Outcome::CpuException(t),
            RunStatus::CycleLimit => Outcome::Timeout,
        }
    }

    /// All detailed outcome variants that can occur (trap subtypes
    /// collapsed), for table headers and exhaustive accounting.
    pub const KINDS: [&'static str; 8] = [
        "No Effect",
        "Detected & Corrected",
        "SDC",
        "Detected Unrecoverable",
        "Abnormal Halt",
        "CPU Exception",
        "Timeout",
        "Output Flood",
    ];

    /// Index into [`Outcome::KINDS`] for aggregation.
    pub fn kind_index(self) -> usize {
        match self {
            Outcome::NoEffect => 0,
            Outcome::DetectedCorrected => 1,
            Outcome::SilentDataCorruption => 2,
            Outcome::DetectedUnrecoverable => 3,
            Outcome::AbnormalHalt { .. } => 4,
            Outcome::CpuException(_) => 5,
            Outcome::Timeout => 6,
            Outcome::OutputFlood => 7,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::CpuException(t) => write!(f, "CPU Exception ({t})"),
            Outcome::AbnormalHalt { code } => write!(f, "Abnormal Halt (code {code})"),
            other => f.write_str(Self::KINDS[other.kind_index()]),
        }
    }
}

/// The paper's two-way coalescing: benign vs failure (§II-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeClass {
    /// No externally visible effect (includes detected-and-corrected).
    NoEffect,
    /// Any externally visible deviation from the golden run.
    Failure,
}

impl fmt::Display for OutcomeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OutcomeClass::NoEffect => "No Effect",
            OutcomeClass::Failure => "Failure",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_isa::MemWidth;

    fn golden() -> GoldenRun {
        GoldenRun {
            cycles: 10,
            ram_bits: 8,
            serial: vec![1, 2],
            exit_code: 0,
            detect_count: 0,
            trace: vec![],
            reg_trace: vec![],
            pc_trace: vec![],
            branches: vec![],
        }
    }

    #[test]
    fn classification_matrix() {
        let g = golden();
        let h0 = RunStatus::Halted { code: 0 };
        assert_eq!(Outcome::classify(h0, &[1, 2], 0, &g), Outcome::NoEffect);
        assert_eq!(
            Outcome::classify(h0, &[1, 2], 3, &g),
            Outcome::DetectedCorrected
        );
        assert_eq!(
            Outcome::classify(h0, &[1, 3], 0, &g),
            Outcome::SilentDataCorruption
        );
        assert_eq!(
            Outcome::classify(RunStatus::Halted { code: ABORT_CODE }, &[], 1, &g),
            Outcome::DetectedUnrecoverable
        );
        assert_eq!(
            Outcome::classify(RunStatus::Halted { code: 9 }, &[1, 2], 0, &g),
            Outcome::AbnormalHalt { code: 9 }
        );
        assert_eq!(
            Outcome::classify(RunStatus::CycleLimit, &[1], 0, &g),
            Outcome::Timeout
        );
        assert_eq!(
            Outcome::classify(RunStatus::Trapped(Trap::SerialOverflow), &[1], 0, &g),
            Outcome::OutputFlood
        );
        assert_eq!(
            Outcome::classify(
                RunStatus::Trapped(Trap::Misaligned {
                    addr: 1,
                    width: MemWidth::Word
                }),
                &[],
                0,
                &g
            ),
            Outcome::CpuException(Trap::Misaligned {
                addr: 1,
                width: MemWidth::Word
            })
        );
    }

    #[test]
    fn benign_and_failure_split() {
        assert!(Outcome::NoEffect.is_benign());
        assert!(Outcome::DetectedCorrected.is_benign());
        assert_eq!(Outcome::NoEffect.class(), OutcomeClass::NoEffect);
        for failure in [
            Outcome::SilentDataCorruption,
            Outcome::DetectedUnrecoverable,
            Outcome::AbnormalHalt { code: 1 },
            Outcome::Timeout,
            Outcome::OutputFlood,
        ] {
            assert!(!failure.is_benign());
            assert_eq!(failure.class(), OutcomeClass::Failure);
        }
    }

    #[test]
    fn truncated_output_is_sdc() {
        // A shorter-but-prefix output is still a deviation.
        let g = golden();
        assert_eq!(
            Outcome::classify(RunStatus::Halted { code: 0 }, &[1], 0, &g),
            Outcome::SilentDataCorruption
        );
    }

    #[test]
    fn kind_indices_are_dense() {
        let outcomes = [
            Outcome::NoEffect,
            Outcome::DetectedCorrected,
            Outcome::SilentDataCorruption,
            Outcome::DetectedUnrecoverable,
            Outcome::AbnormalHalt { code: 1 },
            Outcome::CpuException(Trap::SerialOverflow),
            Outcome::Timeout,
            Outcome::OutputFlood,
        ];
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.kind_index(), i);
        }
    }

    #[test]
    fn display_strings() {
        assert_eq!(Outcome::NoEffect.to_string(), "No Effect");
        assert_eq!(OutcomeClass::Failure.to_string(), "Failure");
        assert_eq!(
            Outcome::AbnormalHalt { code: 3 }.to_string(),
            "Abnormal Halt (code 3)"
        );
    }
}
