//! ASCII fault-space diagrams (Figures 1 and 3 of the paper).

use sofi_campaign::{CampaignResult, OutcomeClass};
use sofi_space::{ClassKind, DefUseAnalysis};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Upper bounds beyond which diagrams become unreadable.
const MAX_CYCLES: u64 = 160;
const MAX_BITS: u64 = 72;

/// Renders the def/use structure of a fault space (Figure 1b style).
///
/// One row per memory bit (bit 0 on top), one column per cycle:
///
/// * `W` / `R` — a write / read touches the bit in that cycle,
/// * `=` — member of an equivalence class that ends in a read (an
///   experiment covers it),
/// * `.` — known-benign coordinate (overwritten or never read).
///
/// Returns `None` if the space is too large to draw.
///
/// # Examples
///
/// ```
/// use sofi_isa::{Asm, Reg};
/// use sofi_trace::GoldenRun;
/// use sofi_space::DefUseAnalysis;
///
/// let mut a = Asm::new();
/// let x = a.data_space("x", 1);
/// a.li(Reg::R1, 1);
/// a.sb(Reg::R1, Reg::R0, x.offset());
/// a.nop();
/// a.lb(Reg::R2, Reg::R0, x.offset());
/// let g = GoldenRun::capture(&a.build()?, 100)?;
/// let d = DefUseAnalysis::from_golden(&g);
/// let art = sofi_report::fault_space_diagram(&d).unwrap();
/// assert!(art.lines().next().unwrap().contains('W'));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn fault_space_diagram(analysis: &DefUseAnalysis) -> Option<String> {
    render(analysis, None)
}

/// Renders the fault space with per-class campaign outcomes
/// (Figure 3 style): experiment-class members show as `x` (the class's
/// experiment failed) or `o` (no effect); accesses and known-benign
/// coordinates as in [`fault_space_diagram`].
pub fn outcome_diagram(analysis: &DefUseAnalysis, result: &CampaignResult) -> Option<String> {
    let mut by_coord = HashMap::new();
    for r in &result.results {
        by_coord.insert(
            (r.experiment.coord.cycle, r.experiment.coord.bit),
            r.outcome.class(),
        );
    }
    render(analysis, Some(&by_coord))
}

fn render(
    analysis: &DefUseAnalysis,
    outcomes: Option<&HashMap<(u64, u64), OutcomeClass>>,
) -> Option<String> {
    let space = analysis.space;
    if space.cycles > MAX_CYCLES || space.bits > MAX_BITS || space.size() == 0 {
        return None;
    }
    let w = space.cycles as usize;
    let h = space.bits as usize;
    let mut grid = vec![vec!['.'; w]; h];

    for class in &analysis.classes {
        if class.kind != ClassKind::Experiment {
            continue;
        }
        let row = class.bit as usize;
        let glyph = match outcomes {
            None => '=',
            Some(map) => match map.get(&(class.last_cycle, class.bit)) {
                Some(OutcomeClass::Failure) => 'x',
                Some(OutcomeClass::NoEffect) => 'o',
                None => '?',
            },
        };
        for cycle in class.first_cycle..=class.last_cycle {
            grid[row][cycle as usize - 1] = glyph;
        }
    }

    // Access markers overwrite class glyphs (drawn last, like the figures).
    for (bit, events) in analysis_events(analysis) {
        for (cycle, is_read) in events {
            grid[bit as usize][cycle as usize - 1] = if is_read { 'R' } else { 'W' };
        }
    }

    let mut out = String::new();
    for (bit, row) in grid.iter().enumerate() {
        let _ = write!(out, "bit {bit:>3} |");
        out.extend(row.iter());
        out.push('\n');
    }
    let _ = writeln!(out, "        +{}", "-".repeat(w));
    let _ = writeln!(out, "         cycles 1..{}", space.cycles);
    Some(out)
}

/// Reconstructs per-bit access events from the class structure (class
/// boundaries are exactly the accesses; a class ending in a read ends at
/// that read's cycle, one ending before a write ends at the write cycle).
fn analysis_events(analysis: &DefUseAnalysis) -> Vec<(u64, Vec<(u64, bool)>)> {
    let mut per_bit: HashMap<u64, Vec<(u64, bool)>> = HashMap::new();
    for class in &analysis.classes {
        // The access terminating this class is at `last_cycle` unless the
        // class runs to the end of the program without a closing access.
        let is_read = class.kind == ClassKind::Experiment;
        let terminated_by_access = is_read || class.last_cycle < analysis.space.cycles;
        if terminated_by_access {
            per_bit
                .entry(class.bit)
                .or_default()
                .push((class.last_cycle, is_read));
        }
    }
    let mut v: Vec<_> = per_bit.into_iter().collect();
    v.sort_by_key(|(bit, _)| *bit);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_campaign::{Campaign, FaultDomain};
    use sofi_isa::{Asm, Reg};
    use sofi_trace::GoldenRun;

    fn hi_analysis() -> (DefUseAnalysis, Campaign) {
        let p = sofi_workloads_hi();
        let c = Campaign::new(&p).unwrap();
        (c.analysis_for(FaultDomain::Memory).clone(), c)
    }

    /// Local copy of the "Hi" generator to avoid a dependency cycle.
    fn sofi_workloads_hi() -> sofi_isa::Program {
        let mut a = Asm::with_name("hi");
        let msg = a.data_space("msg", 2);
        a.li(Reg::R1, 'H' as i32);
        a.sb(Reg::R1, Reg::R0, msg.offset());
        a.li(Reg::R1, 'i' as i32);
        a.sb(Reg::R1, Reg::R0, msg.at(1).offset());
        a.lb(Reg::R2, Reg::R0, msg.offset());
        a.serial_out(Reg::R2);
        a.lb(Reg::R2, Reg::R0, msg.at(1).offset());
        a.serial_out(Reg::R2);
        a.build().unwrap()
    }

    #[test]
    fn hi_structure_diagram() {
        let (d, _) = hi_analysis();
        let art = fault_space_diagram(&d).unwrap();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 16 + 2); // 16 bit rows + axis + caption
                                         // Byte 0, bit 0: benign, W@2, class cycles 3-4, R@5, benign 6-8.
        assert_eq!(lines[0], "bit   0 |.W==R...");
        // Byte 1, bit 0: W@4, class 5-6, R@7.
        assert_eq!(lines[8], "bit   8 |...W==R.");
    }

    #[test]
    fn hi_outcome_diagram_marks_failures() {
        let (d, c) = hi_analysis();
        let r = c.run_full_defuse_in(FaultDomain::Memory);
        let art = outcome_diagram(&d, &r).unwrap();
        // Every experiment class of "hi" fails: 'x' everywhere, no 'o'.
        assert!(art.contains('x'));
        assert!(!art.contains('o'));
        assert_eq!(art.lines().next().unwrap(), "bit   0 |.WxxR...");
    }

    #[test]
    fn oversized_space_returns_none() {
        let mut a = Asm::new();
        let big = a.data_space("big", 1000);
        a.lb(Reg::R1, Reg::R0, big.offset());
        let g = GoldenRun::capture(&a.build().unwrap(), 100).unwrap();
        let d = DefUseAnalysis::from_golden(&g);
        assert!(fault_space_diagram(&d).is_none());
    }
}
