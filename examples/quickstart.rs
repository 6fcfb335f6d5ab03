//! Quickstart: assemble a program, run a fault-injection campaign, and
//! read the numbers that matter.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sofi::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write a tiny benchmark with the programmatic assembler: it keeps
    //    a checksum in RAM, updates it over an input buffer, and prints it.
    let mut a = Asm::with_name("quickstart");
    let input = a.data_bytes("input", b"hello, soft errors");
    let sum = a.data_word("sum", 0);
    a.li(Reg::R4, 0); // index
    a.li(Reg::R5, input.addr() as i32 + 18); // end
    let top = a.label_here();
    a.addi(Reg::R2, Reg::R4, input.offset());
    a.lbu(Reg::R3, Reg::R2, 0);
    a.lw(Reg::R6, Reg::R0, sum.offset());
    a.add(Reg::R6, Reg::R6, Reg::R3);
    a.sw(Reg::R6, Reg::R0, sum.offset());
    a.addi(Reg::R4, Reg::R4, 1);
    a.bne(Reg::R4, Reg::R5, top);
    a.lw(Reg::R6, Reg::R0, sum.offset());
    a.serial_out(Reg::R6);
    let program = a.build()?;

    // 2. A fault-free run establishes the reference behaviour.
    let mut machine = Machine::new(&program);
    let status = machine.run(100_000);
    println!(
        "golden run: {status:?}, output {:?}, {} cycles",
        machine.serial(),
        machine.cycle()
    );

    // 3. Prepare the campaign: golden run + def/use pruning of the fault
    //    space (every (cycle, bit) coordinate of RAM over the runtime).
    let campaign = Campaign::new(&program)?;
    let plan = campaign.plan_for(FaultDomain::Memory);
    println!(
        "fault space: {} coordinates, pruned to {} experiments (x{:.0} reduction)",
        plan.space.size(),
        plan.experiments.len(),
        plan.reduction_factor()
    );

    // 4. Full fault-space scan: every experiment is one forked machine
    //    with one bit flipped, classified against the golden run.
    let result = campaign.run_full_defuse_in(FaultDomain::Memory);
    println!(
        "weighted failures F = {} of w = {} -> coverage {:.1}%",
        result.failure_weight(),
        result.space.size(),
        fault_coverage(&result, Weighting::Weighted) * 100.0
    );

    // 5. The same failure count, estimated from 10k random samples — with
    //    the extrapolation Pitfall 3 (Corollary 2) requires.
    let mut rng = sofi_rng::DefaultRng::seed_from_u64(42);
    let sampled = campaign.run_sampled_in(
        FaultDomain::Memory,
        10_000,
        SamplingMode::UniformRaw,
        &mut rng,
    );
    let estimate = extrapolated_failures(&sampled, 0.95);
    println!(
        "sampled estimate: F = {:.0}  (95% CI [{:.0}, {:.0}], {} experiments actually run)",
        estimate.failures,
        estimate.ci.0,
        estimate.ci.1,
        sampled.experiments_run()
    );
    Ok(())
}
