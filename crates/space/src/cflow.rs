//! Trace-based equivalence analysis for the control-flow fault domains.
//!
//! The control-flow faults (`sofi_machine::CfFault`) are *latched*: armed
//! at a cycle, they fire on the first matching fetch at or after that
//! cycle, then clear. That makes their fault spaces prunable with exactly
//! the def/use interval argument of §III-C, re-read on a synthetic
//! timeline:
//!
//! * **Instruction skip** — one fault-space "bit" per ROM slot. The
//!   golden run's fetch of slot `p` in cycle `c` is a *use* of that slot:
//!   a skip armed anywhere in `(c_prev, c]` (where `c_prev` is the
//!   previous golden fetch of `p`, or the run start) fires at exactly the
//!   same fetch and the machine states at arming time are identical along
//!   the golden path, so the whole interval is one equivalence class with
//!   the fetch cycle as its representative. A skip armed after the last
//!   fetch of `p` never fires — known-benign, no experiment.
//! * **Opcode-bit corruption** — 32 fault-space bits per ROM slot (one
//!   per bit of the encoded instruction word, `bit = slot · 32 +
//!   word_bit`). The firing condition depends only on the slot, so every
//!   word bit shares the slot's fetch timeline; the *outcomes* differ per
//!   word bit, hence 32 separate columns.
//! * **Branch inversion** — a single fault-space column: the fault fires
//!   at the first conditional branch at or after the arming cycle,
//!   whichever PC it is at. Each golden branch cycle is a use; the
//!   interval between consecutive branches is one class. Because every
//!   class ends at exactly one golden branch — which has one PC and one
//!   golden outcome — this per-branch-cycle partition is a sound
//!   *refinement* of the coarser (PC, golden outcome) partition; the
//!   coarser grouping is exposed as reporting metadata by
//!   [`branch_profile`].
//!
//! All three analyses return an ordinary [`DefUseAnalysis`], so the
//! executor's planning, sampling, convergence, memoization and warm-store
//! machinery work on them unchanged.

use crate::defuse::DefUseAnalysis;
use sofi_machine::AccessKind;
use sofi_trace::{BitEvent, GoldenRun, Timelines};

/// Builds the instruction-skip fault space: one column per ROM slot,
/// cycle axis = golden run length. Experiment classes end at golden
/// fetch cycles of the slot; the tail after the last fetch (or the whole
/// column for never-executed slots) is known-benign.
pub fn instr_skip_analysis(golden: &GoldenRun, rom_len: usize) -> DefUseAnalysis {
    DefUseAnalysis::from_timelines(&fetch_timelines(golden, rom_len, 1), golden.cycles)
}

/// Builds the opcode-bit-corruption fault space: 32 columns per ROM slot
/// (`bit = slot · 32 + word_bit`), each sharing the slot's golden fetch
/// timeline.
pub fn opcode_bit_analysis(golden: &GoldenRun, rom_len: usize) -> DefUseAnalysis {
    DefUseAnalysis::from_timelines(&fetch_timelines(golden, rom_len, 32), golden.cycles)
}

/// Builds the branch-inversion fault space: a single column whose uses
/// are the golden run's conditional-branch cycles.
pub fn branch_invert_analysis(golden: &GoldenRun) -> DefUseAnalysis {
    let mut events = Vec::with_capacity(golden.branches.len());
    for b in &golden.branches {
        events.push(BitEvent {
            cycle: b.cycle,
            kind: AccessKind::Read,
        });
    }
    DefUseAnalysis::from_timelines(&Timelines::from_per_bit(vec![events]), golden.cycles)
}

/// Expands the golden fetch trace into per-slot timelines, replicated
/// `per_slot` times (1 for skip, 32 for opcode bits).
fn fetch_timelines(golden: &GoldenRun, rom_len: usize, per_slot: usize) -> Timelines {
    let mut per_bit: Vec<Vec<BitEvent>> = vec![Vec::new(); rom_len * per_slot];
    for (idx, &pc) in golden.pc_trace.iter().enumerate() {
        let ev = BitEvent {
            cycle: idx as u64 + 1,
            kind: AccessKind::Read,
        };
        let base = pc as usize * per_slot;
        for col in &mut per_bit[base..base + per_slot] {
            col.push(ev);
        }
    }
    Timelines::from_per_bit(per_bit)
}

/// One (PC, golden outcome) group of conditional-branch executions — the
/// coarse partition the branch-inversion classes refine. Reporting
/// metadata only; the executor plans on [`branch_invert_analysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchSite {
    /// ROM index of the branch instruction.
    pub pc: u32,
    /// The golden (fault-free) outcome of these executions.
    pub taken: bool,
    /// How many golden executions of `pc` resolved to `taken`.
    pub executions: u64,
}

/// Groups the golden run's conditional-branch executions by (PC, golden
/// outcome), sorted by PC then outcome (not-taken first).
pub fn branch_profile(golden: &GoldenRun) -> Vec<BranchSite> {
    let mut counts: std::collections::BTreeMap<(u32, bool), u64> =
        std::collections::BTreeMap::new();
    for b in &golden.branches {
        *counts.entry((b.pc, b.taken)).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .map(|((pc, taken), executions)| BranchSite {
            pc,
            taken,
            executions,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defuse::ClassKind;
    use sofi_isa::{Asm, Reg};

    /// A two-iteration counted loop: branch at a fixed PC, taken once,
    /// not taken once.
    fn looped() -> (GoldenRun, usize) {
        let mut a = Asm::new();
        a.li(Reg::R1, 2); // cycle 1: pc 0
        let top = a.label_here();
        a.addi(Reg::R1, Reg::R1, -1); // cycles 2, 4: pc 1
        a.bne(Reg::R1, Reg::R0, top); // cycles 3, 5: pc 2
        a.serial_out(Reg::R1); // cycle 6: pc 3
        let p = a.build().unwrap();
        let rom_len = p.insts.len();
        (GoldenRun::capture(&p, 1_000).unwrap(), rom_len)
    }

    #[test]
    fn skip_classes_follow_the_fetch_trace() {
        let (g, rom_len) = looped();
        assert_eq!(g.pc_trace, vec![0, 1, 2, 1, 2, 3]);
        let d = instr_skip_analysis(&g, rom_len);
        assert_eq!(d.space.cycles, 6);
        assert_eq!(d.space.bits, rom_len as u64);
        assert!(d.is_exact_partition());
        // Slot 1 executes in cycles 2 and 4: classes [1,2], [3,4], then a
        // benign tail [5,6].
        let slot1: Vec<_> = d.classes.iter().filter(|c| c.bit == 1).collect();
        assert_eq!(slot1.len(), 3);
        assert_eq!(
            (slot1[0].kind, slot1[0].first_cycle, slot1[0].last_cycle),
            (ClassKind::Experiment, 1, 2)
        );
        assert_eq!(
            (slot1[1].kind, slot1[1].first_cycle, slot1[1].last_cycle),
            (ClassKind::Experiment, 3, 4)
        );
        assert_eq!(
            (slot1[2].kind, slot1[2].first_cycle, slot1[2].last_cycle),
            (ClassKind::KnownBenign, 5, 6)
        );
    }

    #[test]
    fn opcode_bits_replicate_the_slot_timeline() {
        let (g, rom_len) = looped();
        let d = opcode_bit_analysis(&g, rom_len);
        assert_eq!(d.space.bits, rom_len as u64 * 32);
        assert!(d.is_exact_partition());
        // Every word bit of slot 2 has the same interval structure.
        let per_bit_classes = |bit: u64| {
            d.classes
                .iter()
                .filter(|c| c.bit == bit)
                .map(|c| (c.kind, c.first_cycle, c.last_cycle))
                .collect::<Vec<_>>()
        };
        let first = per_bit_classes(2 * 32);
        for wb in 1..32 {
            assert_eq!(per_bit_classes(2 * 32 + wb), first, "word bit {wb}");
        }
    }

    #[test]
    fn branch_invert_is_one_column_over_branch_cycles() {
        let (g, _) = looped();
        let d = branch_invert_analysis(&g);
        assert_eq!(d.space.bits, 1);
        assert!(d.is_exact_partition());
        // Branches at cycles 3 and 5: classes [1,3], [4,5], benign [6,6].
        let kinds: Vec<_> = d
            .classes
            .iter()
            .map(|c| (c.kind, c.first_cycle, c.last_cycle))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (ClassKind::Experiment, 1, 3),
                (ClassKind::Experiment, 4, 5),
                (ClassKind::KnownBenign, 6, 6),
            ]
        );
    }

    #[test]
    fn branch_profile_groups_by_pc_and_outcome() {
        let (g, _) = looped();
        let sites = branch_profile(&g);
        assert_eq!(
            sites,
            vec![
                BranchSite {
                    pc: 2,
                    taken: false,
                    executions: 1
                },
                BranchSite {
                    pc: 2,
                    taken: true,
                    executions: 1
                },
            ]
        );
    }

    #[test]
    fn straight_line_program_has_no_branch_classes() {
        let mut a = Asm::new();
        a.li(Reg::R1, 7);
        a.serial_out(Reg::R1);
        let p = a.build().unwrap();
        let g = GoldenRun::capture(&p, 100).unwrap();
        let d = branch_invert_analysis(&g);
        assert_eq!(d.experiment_classes().count(), 0);
        assert_eq!(d.known_benign_weight(), d.space.size());
        assert!(branch_profile(&g).is_empty());
    }
}
