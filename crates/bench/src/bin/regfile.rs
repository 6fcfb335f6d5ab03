//! §VI-B: extending the fault space to the CPU register file.
//!
//! Runs full def/use scans of both domains — main memory and the
//! general-purpose register file — for every benchmark pair, and compares
//! susceptibility per domain. The methodology (pruning, weighting,
//! absolute failure counts) carries over unchanged; only the location
//! axis differs, exactly as the paper's generalization argues.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::metrics::{fault_coverage, Weighting};
use sofi::report::Table;
use sofi_bench::save_artifact;

struct DomainRow {
    variant: String,
    mem_space: u64,
    mem_failures: u64,
    mem_coverage: f64,
    reg_space: u64,
    reg_failures: u64,
    reg_coverage: f64,
}
sofi::report::impl_to_json!(DomainRow {
    variant,
    mem_space,
    mem_failures,
    mem_coverage,
    reg_space,
    reg_failures,
    reg_coverage
});

fn main() {
    let mut rows = Vec::new();
    for (_, base, hard) in sofi::workloads::benchmark_pairs() {
        for program in [base, hard] {
            eprintln!("scanning {} (memory + registers) ...", program.name);
            let campaign = Campaign::new(&program).expect("golden run");
            let mem = campaign.run_full_defuse_in(FaultDomain::Memory);
            let reg = campaign.run_full_defuse_in(FaultDomain::RegisterFile);
            rows.push(DomainRow {
                variant: program.name.clone(),
                mem_space: mem.space.size(),
                mem_failures: mem.failure_weight(),
                mem_coverage: fault_coverage(&mem, Weighting::Weighted),
                reg_space: reg.space.size(),
                reg_failures: reg.failure_weight(),
                reg_coverage: fault_coverage(&reg, Weighting::Weighted),
            });
        }
    }

    println!("== §VI-B: memory vs register-file susceptibility (weighted full scans) ==");
    let mut t = Table::new(vec![
        "variant",
        "F_mem",
        "c_mem",
        "F_reg",
        "c_reg",
        "F_reg/F_mem",
    ]);
    for r in &rows {
        t.row(vec![
            r.variant.clone(),
            r.mem_failures.to_string(),
            format!("{:.1}%", r.mem_coverage * 100.0),
            r.reg_failures.to_string(),
            format!("{:.1}%", r.reg_coverage * 100.0),
            format!(
                "{:.3}",
                r.reg_failures as f64 / r.mem_failures.max(1) as f64
            ),
        ]);
    }
    println!("{t}");

    // The §V comparison works identically in the register domain.
    println!("== hardening verdicts per domain (r = F_hardened / F_baseline) ==");
    let mut t = Table::new(vec!["benchmark", "r (memory)", "r (registers)"]);
    for pair in rows.chunks(2) {
        let (b, h) = (&pair[0], &pair[1]);
        t.row(vec![
            b.variant.clone(),
            format!(
                "{:.3}",
                h.mem_failures as f64 / b.mem_failures.max(1) as f64
            ),
            format!(
                "{:.3}",
                h.reg_failures as f64 / b.reg_failures.max(1) as f64
            ),
        ]);
    }
    println!("{t}");
    println!("Memory-targeting mechanisms (SUM+DMR) do not cover register faults;");
    println!("their register-domain ratio reflects only the runtime overhead.");

    save_artifact("regfile.json", &rows);
}
