//! Diagnostic: per-byte vulnerability hotspots of a benchmark variant.
//!
//! Usage: `vulnmap [benchmark]` where benchmark is one of the suite names
//! (default: all Figure 2 variants). Prints each RAM byte's weighted
//! failure fraction with its data-section symbol, highest first.

use sofi::campaign::{Campaign, FaultDomain};
use sofi::isa::Program;
use sofi::metrics::byte_vulnerability;
use sofi::report::Table;
use sofi::workloads::{bin_sem2, sync2, Variant};

fn symbol_for(program: &Program, addr: u32) -> String {
    // The symbol with the greatest address <= addr.
    let mut best: Option<(&str, u32)> = None;
    for (name, a) in &program.symbols {
        if *a <= addr && best.is_none_or(|(_, b)| *a >= b) {
            best = Some((name, *a));
        }
    }
    match best {
        Some((name, a)) => format!("{name}+{}", addr - a),
        None => "?".into(),
    }
}

fn report(program: &Program) {
    let campaign = Campaign::new(program).expect("golden run");
    let result = campaign.run_full_defuse_in(FaultDomain::Memory);
    let map = byte_vulnerability(&result);
    println!(
        "== {} (F_weighted = {}, w = {}) ==",
        program.name,
        result.failure_weight(),
        result.space.size()
    );
    let mut t = Table::new(vec!["addr", "symbol", "vulnerability", "failure weight"]);
    for (addr, v) in map.hotspots().into_iter().take(30) {
        if v == 0.0 {
            break;
        }
        let fail_w = (v * 8.0 * result.space.cycles as f64).round() as u64;
        t.row(vec![
            format!("{addr:#06x}"),
            symbol_for(program, addr),
            format!("{v:.3}"),
            fail_w.to_string(),
        ]);
    }
    println!("{t}");
}

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let all: Vec<Program> = vec![
        bin_sem2(Variant::Baseline),
        bin_sem2(Variant::SumDmr),
        sync2(Variant::Baseline),
        sync2(Variant::SumDmr),
    ];
    for p in all {
        if which.is_empty() || which.iter().any(|w| p.name.contains(w)) {
            report(&p);
        }
    }
}
