//! Hardening showdown under the control-flow fault domains.
//!
//! The data-flow hardening mechanisms (`sumdmr`, `hashdmr`, `tmr`,
//! `shield`) were designed against memory and register-file bit flips.
//! This battery asks the question the paper's methodology makes
//! answerable: do they *also* help against control-flow faults —
//! skipped instructions, corrupted opcodes, inverted branches — or do
//! the extra checking instructions merely enlarge the attack surface?
//!
//! The comparison follows the same sound recipe as the Figure-2
//! batteries: sampled campaigns in each domain, extrapolated to
//! *absolute* failure estimates (never coverage percentages —
//! Pitfall 3), compared as the ratio `r = F_hardened / F_baseline`
//! (Pitfall 1: absolute counts stay sound even though hardening grows
//! the fault space). The rows are exported as a
//! `sofi.susceptibility.comparison/v1` artifact
//! (`SUSCEPTIBILITY_cf.json` under `SOFI_RESULTS_DIR`, when set).
//!
//! Expected headline: the showdown records *negative results*. A
//! duplicated computation does not re-execute an instruction the fault
//! deleted, so instruction-skip susceptibility tracks program length —
//! hardened builds are often measurably *worse* in absolute terms. The
//! assertions below pin the measured shape, not a hoped-for win.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain, SamplingMode};
use sofi::metrics::{compare_failures, extrapolated_failures};
use sofi::report::{susceptibility_artifact, SusceptibilityRow, SUSCEPTIBILITY_SCHEMA};
use sofi_lang::lower::{compile_with, Harden, Options};
use sofi_rng::DefaultRng;

const SOURCES: [(&str, &str); 4] = [
    (
        "array_sum",
        include_str!("../workloads/lang/array_sum.sofi"),
    ),
    (
        "csv_count",
        include_str!("../workloads/lang/csv_count.sofi"),
    ),
    (
        "strsearch",
        include_str!("../workloads/lang/strsearch.sofi"),
    ),
    (
        "chacha_qr",
        include_str!("../workloads/lang/chacha_qr.sofi"),
    ),
];

/// 4 workloads × 4 mechanisms, instruction-skip domain: 16 rows of
/// extrapolated absolute failures, exported for the paper artifact.
#[test]
fn cf_hardening_showdown_produces_negative_results_artifact() {
    const DRAWS: u64 = 2_000;
    let domain = FaultDomain::InstrSkip;
    let mut rows = Vec::new();
    for (name, src) in SOURCES {
        let base = compile_with(
            name,
            src,
            &Options {
                harden: None,
                stack_bytes: 128,
            },
        )
        .unwrap();
        let cb = Campaign::with_config(&base, CampaignConfig::default()).unwrap();
        let mut rng = DefaultRng::seed_from_u64(0xCF5D ^ DRAWS);
        let sb = cb.run_sampled_in(domain, DRAWS, SamplingMode::WeightedClasses, &mut rng);
        let fb = extrapolated_failures(&sb, 0.95);
        assert!(
            fb.failures > 0.0,
            "{name}: an unhardened workload with zero instruction-skip \
             failures would make every comparison vacuous"
        );
        for h in Harden::ALL {
            let hard = compile_with(
                name,
                src,
                &Options {
                    harden: Some(h),
                    stack_bytes: 128,
                },
            )
            .unwrap();
            let ch = Campaign::with_config(&hard, CampaignConfig::default()).unwrap();
            let sh = ch.run_sampled_in(domain, DRAWS, SamplingMode::WeightedClasses, &mut rng);
            let fh = extrapolated_failures(&sh, 0.95);
            assert!(!fb.exact && !fh.exact, "sampled estimates must say so");
            let cmp = compare_failures(&fb, &fh);
            assert!(
                cmp.ratio.is_finite(),
                "{name}+{}: ratio not finite",
                h.name()
            );
            // Hardening inserts instructions, so the skip axis (one
            // fault per ROM slot per cycle) strictly grows — exactly
            // the Pitfall-1 situation where only absolute counts stay
            // comparable.
            rows.push(SusceptibilityRow {
                benchmark: format!("{name}+{}", h.name()),
                domain,
                baseline_space: cb.plan_for(domain).space.size(),
                hardened_space: ch.plan_for(domain).space.size(),
                baseline: fb,
                hardened: fh,
                comparison: cmp,
            });
            let row = rows.last().unwrap();
            assert!(
                row.hardened_space > row.baseline_space,
                "{}: hardening must enlarge the instruction-skip space",
                row.benchmark
            );
        }
    }
    assert_eq!(rows.len(), 16, "4 workloads x 4 mechanisms");

    // The measured negative result, pinned: against instruction skips
    // the data-flow mechanisms are no silver bullet. At least half the
    // rows must show hardening failing to help (r >= 1) — if this ever
    // breaks, a mechanism started actually protecting control flow and
    // the docs need rewriting, not the assertion.
    let not_helped = rows.iter().filter(|r| r.comparison.ratio >= 1.0).count();
    assert!(
        not_helped * 2 >= rows.len(),
        "expected a majority of negative results, got {not_helped}/{} \
         rows with r >= 1",
        rows.len()
    );

    let text = sofi::report::to_json(&susceptibility_artifact(&rows));
    assert!(text.contains(SUSCEPTIBILITY_SCHEMA), "{text}");
    let parsed = sofi::report::Json::parse(&text).unwrap();
    assert_eq!(
        parsed
            .get("rows")
            .and_then(|r| r.as_array())
            .map(<[sofi::report::Json]>::len),
        Some(16)
    );
    if let Ok(dir) = std::env::var("SOFI_RESULTS_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("SUSCEPTIBILITY_cf.json"), &text).unwrap();
    }
}

/// Branch inversion is the cheapest domain (one bit per cycle), so the
/// whole def/use-pruned space is affordable exhaustively: every
/// mechanism's absolute failure count is *exact*, and none of them
/// drives control-flow failures to zero.
#[test]
fn branch_inversion_defeats_every_mechanism_exhaustively() {
    let domain = FaultDomain::BranchInvert;
    for (name, src) in SOURCES {
        let base = compile_with(
            name,
            src,
            &Options {
                harden: None,
                stack_bytes: 128,
            },
        )
        .unwrap();
        let cb = Campaign::with_config(&base, CampaignConfig::default()).unwrap();
        let rb = cb.run_full_defuse_in(domain);
        assert!(rb.covers_space(), "{name}");
        let base_failures = rb.failure_weight();
        assert!(
            base_failures > 0,
            "{name}: inverting a branch must be able to break an \
             unhardened workload"
        );
        for h in Harden::ALL {
            let hard = compile_with(
                name,
                src,
                &Options {
                    harden: Some(h),
                    stack_bytes: 128,
                },
            )
            .unwrap();
            let ch = Campaign::with_config(&hard, CampaignConfig::default()).unwrap();
            let rh = ch.run_full_defuse_in(domain);
            assert!(rh.covers_space(), "{name}+{}", h.name());
            assert!(
                rh.failure_weight() > 0,
                "{name}+{}: no mechanism eliminates branch-inversion \
                 failures — each hardened build still has a breakable \
                 branch",
                h.name()
            );
        }
    }
}
