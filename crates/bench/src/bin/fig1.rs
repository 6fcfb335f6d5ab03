//! Figure 1: the fault space spanned by CPU cycles × memory bits, and its
//! def/use equivalence classes.
//!
//! Reproduces the paper's illustrative setting — a 12-cycle run over 9
//! memory bits with an 8-bit store in cycle 4 and a load in cycle 11 —
//! showing how 108 raw coordinates collapse to 8 experiments (§III-C),
//! and then shows the same analysis on the real `sync2` benchmark, whose
//! fault space shrinks from ~10⁶ coordinates to a few thousand
//! experiments.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::isa::MemWidth;
use sofi::machine::{AccessKind, MemAccess};
use sofi::report::fault_space_diagram;
use sofi::space::DefUseAnalysis;
use sofi::trace::Timelines;
use sofi::workloads::{sync2, Variant};
use sofi_bench::save_artifact;

struct Fig1Stats {
    raw_fault_space: u64,
    experiments_after_pruning: usize,
    known_benign_weight: u64,
    reduction_factor: f64,
}
sofi::report::impl_to_json!(Fig1Stats {
    raw_fault_space,
    experiments_after_pruning,
    known_benign_weight,
    reduction_factor
});

fn stats(analysis: &DefUseAnalysis) -> Fig1Stats {
    let plan = analysis.plan();
    Fig1Stats {
        raw_fault_space: analysis.space.size(),
        experiments_after_pruning: plan.experiments.len(),
        known_benign_weight: plan.known_benign_weight,
        reduction_factor: plan.reduction_factor(),
    }
}

fn main() {
    // --- Figure 1a/1b: the paper's illustrative 12 × 9 space. ---
    let trace = vec![
        MemAccess {
            cycle: 4,
            addr: 0,
            width: MemWidth::Byte,
            kind: AccessKind::Write,
        },
        MemAccess {
            cycle: 11,
            addr: 0,
            width: MemWidth::Byte,
            kind: AccessKind::Read,
        },
    ];
    let timelines = Timelines::build(&trace, 9);
    let analysis = DefUseAnalysis::from_timelines(&timelines, 12);
    let s = stats(&analysis);

    println!("== Figure 1: 12 cycles x 9 bits, W @ cycle 4, R @ cycle 11 ==");
    println!("{}", fault_space_diagram(&analysis).expect("small space"));
    println!(
        "raw coordinates: {}   experiments after def/use pruning: {}   (x{:.1} reduction)",
        s.raw_fault_space, s.experiments_after_pruning, s.reduction_factor
    );
    println!("each experiment stands for a class of weight 7 (cycles 5..=11)");
    println!();

    // --- The same pruning on a real benchmark (§III-C's sync2 numbers). ---
    let campaign = Campaign::new(&sync2(Variant::Baseline)).expect("golden run");
    let s2 = stats(campaign.analysis_for(FaultDomain::Memory));
    println!("== def/use pruning on the real sync2 benchmark ==");
    println!(
        "raw fault-space size w = {}   experiments = {}   reduction factor = {:.0}x",
        s2.raw_fault_space, s2.experiments_after_pruning, s2.reduction_factor
    );
    println!("(the paper reports w ~ 1.5e8 -> 19,553 experiments for its eCos sync2)");

    save_artifact("fig1.json", &[s, s2]);
}
