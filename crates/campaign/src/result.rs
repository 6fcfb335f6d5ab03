//! Campaign result data.

use crate::outcome::{Outcome, OutcomeClass};
use sofi_space::{Experiment, FaultSpace};

/// Which machine component the faults were injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// Main memory — the paper's primary fault model (§II-C).
    Memory,
    /// The general-purpose register file `r1..r15` — the §VI-B
    /// generalization ("every bit in ... the CPU registers ... could be
    /// part of the fault space").
    RegisterFile,
    /// Instruction skip at the decode/execute boundary: the next
    /// execution of a chosen ROM slot retires as a one-cycle no-op
    /// (`sofi_machine::CfFault::SkipAt`). Fault-space bit = ROM slot.
    InstrSkip,
    /// Opcode corruption: one bit of the fetched instruction word is
    /// flipped before decode (`sofi_machine::CfFault::CorruptAt`).
    /// Fault-space bit = `slot · 32 + word_bit`.
    OpcodeBit,
    /// Branch inversion: the next conditional branch resolves to the
    /// inverted outcome (`sofi_machine::CfFault::InvertBranch`). A
    /// single fault-space column over the cycle axis.
    BranchInvert,
}

impl FaultDomain {
    /// Every fault domain, in canonical order.
    pub const ALL: [FaultDomain; 5] = [
        FaultDomain::Memory,
        FaultDomain::RegisterFile,
        FaultDomain::InstrSkip,
        FaultDomain::OpcodeBit,
        FaultDomain::BranchInvert,
    ];

    /// The canonical name (also what [`std::fmt::Display`] prints and
    /// what report artifacts carry).
    pub fn name(self) -> &'static str {
        match self {
            FaultDomain::Memory => "Memory",
            FaultDomain::RegisterFile => "RegisterFile",
            FaultDomain::InstrSkip => "InstrSkip",
            FaultDomain::OpcodeBit => "OpcodeBit",
            FaultDomain::BranchInvert => "BranchInvert",
        }
    }
}

impl std::fmt::Display for FaultDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`FaultDomain`] name, carrying the rejected input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDomainError(pub String);

impl std::fmt::Display for ParseDomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown fault domain '{}' (expected one of: memory, register-file, \
             instr-skip, opcode-bit, branch-invert)",
            self.0
        )
    }
}

impl std::error::Error for ParseDomainError {}

impl std::str::FromStr for FaultDomain {
    type Err = ParseDomainError;

    /// Accepts the canonical names case-insensitively plus kebab-case
    /// aliases (`memory`, `registers`/`register-file`, `instr-skip`,
    /// `opcode-bit`, `branch-invert`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "memory" => Ok(FaultDomain::Memory),
            "registerfile" | "register-file" | "registers" => Ok(FaultDomain::RegisterFile),
            "instrskip" | "instr-skip" => Ok(FaultDomain::InstrSkip),
            "opcodebit" | "opcode-bit" => Ok(FaultDomain::OpcodeBit),
            "branchinvert" | "branch-invert" => Ok(FaultDomain::BranchInvert),
            _ => Err(ParseDomainError(s.to_owned())),
        }
    }
}

/// Outcome of one executed experiment (one def/use class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentResult {
    /// The planned experiment (coordinate + class weight).
    pub experiment: Experiment,
    /// The observed outcome.
    pub outcome: Outcome,
}

/// Complete results of a (full fault-space) campaign.
///
/// Raw material for all metric computations: every experiment's outcome
/// together with its class weight and the weight of the known-benign
/// remainder of the fault space. The accounting itself — weighted coverage,
/// failure counts, extrapolation — lives in `sofi-metrics` so correct and
/// deliberately wrong variants can be compared side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Benchmark name (from the program).
    pub benchmark: String,
    /// Which component was injected into.
    pub domain: FaultDomain,
    /// The fault space scanned.
    pub space: FaultSpace,
    /// Weight of coordinates known benign without experiments.
    pub known_benign_weight: u64,
    /// Golden runtime in cycles.
    pub golden_cycles: u64,
    /// Per-experiment outcomes, in plan order.
    pub results: Vec<ExperimentResult>,
}

impl CampaignResult {
    /// Raw (unweighted) number of conducted experiments, `N` in the wrong
    /// accounting of Pitfall 1.
    pub fn experiments_run(&self) -> u64 {
        self.results.len() as u64
    }

    /// Unweighted count of experiments whose outcome satisfies `pred`.
    pub fn count_raw(&self, pred: impl Fn(Outcome) -> bool) -> u64 {
        self.results.iter().filter(|r| pred(r.outcome)).count() as u64
    }

    /// Weighted count: each matching experiment contributes its class
    /// weight (data-lifetime length), per Pitfall 1's requirement.
    pub fn count_weighted(&self, pred: impl Fn(Outcome) -> bool) -> u64 {
        self.results
            .iter()
            .filter(|r| pred(r.outcome))
            .map(|r| r.experiment.weight)
            .sum()
    }

    /// Weighted failure count `F`: the paper's sound comparison metric
    /// (§V). Known-benign coordinates contribute nothing by construction.
    pub fn failure_weight(&self) -> u64 {
        self.count_weighted(|o| o.class() == OutcomeClass::Failure)
    }

    /// Unweighted failure count (the Pitfall-1 mistake, kept for
    /// demonstration).
    pub fn failure_raw(&self) -> u64 {
        self.count_raw(|o| o.class() == OutcomeClass::Failure)
    }

    /// Weighted benign count including the pruned known-benign weight.
    pub fn benign_weight(&self) -> u64 {
        self.count_weighted(Outcome::is_benign) + self.known_benign_weight
    }

    /// Weighted tally per detailed outcome kind, indexed per
    /// [`Outcome::KINDS`]. The known-benign weight is folded into
    /// "No Effect" (index 0).
    pub fn weighted_by_kind(&self) -> [u64; 8] {
        let mut tally = [0u64; 8];
        for r in &self.results {
            tally[r.outcome.kind_index()] += r.experiment.weight;
        }
        tally[0] += self.known_benign_weight;
        tally
    }

    /// Consistency check: weights plus known-benign cover the fault space.
    pub fn covers_space(&self) -> bool {
        let experiment_weight: u64 = self.results.iter().map(|r| r.experiment.weight).sum();
        experiment_weight + self.known_benign_weight == self.space.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_space::FaultCoord;

    fn res(id: u32, cycle: u64, weight: u64, outcome: Outcome) -> ExperimentResult {
        ExperimentResult {
            experiment: Experiment {
                id,
                coord: FaultCoord { cycle, bit: 0 },
                weight,
            },
            outcome,
        }
    }

    fn fixture() -> CampaignResult {
        CampaignResult {
            benchmark: "t".into(),
            domain: FaultDomain::Memory,
            space: FaultSpace::new(10, 2),
            known_benign_weight: 11,
            golden_cycles: 10,
            results: vec![
                res(0, 3, 3, Outcome::SilentDataCorruption),
                res(1, 5, 1, Outcome::NoEffect),
                res(2, 9, 4, Outcome::Timeout),
                res(3, 10, 1, Outcome::DetectedCorrected),
            ],
        }
    }

    #[test]
    fn weighted_and_raw_counts() {
        let r = fixture();
        assert_eq!(r.experiments_run(), 4);
        assert_eq!(r.failure_raw(), 2);
        assert_eq!(r.failure_weight(), 7);
        assert_eq!(r.benign_weight(), 1 + 1 + 11);
        assert!(r.covers_space()); // 3+1+4+1+11 = 20 = 10·2
    }

    #[test]
    fn domain_display_from_str_round_trip() {
        for d in FaultDomain::ALL {
            assert_eq!(d.to_string().parse::<FaultDomain>(), Ok(d), "{d}");
            // Case-insensitive on the canonical name too.
            assert_eq!(
                d.to_string().to_ascii_lowercase().parse::<FaultDomain>(),
                Ok(d)
            );
        }
        assert_eq!(
            "instr-skip".parse::<FaultDomain>(),
            Ok(FaultDomain::InstrSkip)
        );
        assert_eq!(
            "opcode-bit".parse::<FaultDomain>(),
            Ok(FaultDomain::OpcodeBit)
        );
        assert_eq!(
            "branch-invert".parse::<FaultDomain>(),
            Ok(FaultDomain::BranchInvert)
        );
        assert_eq!(
            "registers".parse::<FaultDomain>(),
            Ok(FaultDomain::RegisterFile)
        );
        let err = "sram".parse::<FaultDomain>().unwrap_err();
        assert_eq!(err.0, "sram");
        assert!(err.to_string().contains("unknown fault domain 'sram'"));
    }

    #[test]
    fn kind_tally_folds_known_benign() {
        let tally = fixture().weighted_by_kind();
        assert_eq!(tally[0], 1 + 11); // NoEffect + known benign
        assert_eq!(tally[1], 1); // DetectedCorrected
        assert_eq!(tally[2], 3); // SDC
        assert_eq!(tally[6], 4); // Timeout
        assert_eq!(tally.iter().sum::<u64>(), 20);
    }
}
