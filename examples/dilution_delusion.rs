//! The Fault-Space Dilution Delusion (§IV of the paper), step by step.
//!
//! Shows how an obviously useless "fault-tolerance mechanism" — padding a
//! program with NOPs or discarded loads — improves its fault-coverage
//! factor arbitrarily, and how the absolute-failure-count metric exposes
//! the cheat.
//!
//! ```sh
//! cargo run --release --example dilution_delusion
//! ```

use sofi::harden::{memory_dilution, nop_dilution};
use sofi::prelude::*;
use sofi::workloads::{hi, hi_dft_prime};

fn report(program: &sofi::isa::Program) -> Result<(u64, u64, f64), Box<dyn std::error::Error>> {
    let campaign = Campaign::new(program)?;
    let result = campaign.run_full_defuse_in(FaultDomain::Memory);
    Ok((
        result.space.size(),
        result.failure_weight(),
        fault_coverage(&result, Weighting::Weighted),
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("variant                    w      F   coverage");
    println!("-----------------------------------------------");
    let base = hi();
    for program in [
        base.clone(),
        nop_dilution(&base, 4),     // the paper's DFT
        hi_dft_prime(4),            // DFT': "activated" faults, same effect
        nop_dilution(&base, 56),    // dilute harder...
        memory_dilution(&base, 30), // ...or along the memory axis
    ] {
        let (w, f, c) = report(&program)?;
        println!(
            "{:<22} {:>6} {:>6}   {:>6.2}%",
            program.name,
            w,
            f,
            c * 100.0
        );
    }

    println!();
    println!("Every variant fails in exactly the same 48 fault-space coordinates —");
    println!("yet coverage climbs toward 100% with padding. That is why §IV abolishes");
    println!("the coverage metric for comparing programs.");

    // The sound comparison shrugs at the dilution:
    let eval = Evaluation::full_scan(&base, &nop_dilution(&base, 56))?;
    let cmp = eval.comparison();
    println!();
    println!("absolute-failure comparison vs +dft56: {cmp}");
    assert_eq!(cmp.ratio, 1.0);
    Ok(())
}
