//! End-to-end evaluation of the `sofi-lang`-compiled workloads: the
//! compiled benchmark pairs behave exactly like the hand-written ones
//! under the full pipeline.
//!
//! * Figure-2-style susceptibility comparison for every compiled pair ×
//!   both fault domains, using the sound extrapolated absolute-failure
//!   metric (never coverage percentages — Pitfall 3). The rows are
//!   exported as a `sofi.susceptibility.comparison/v1` JSON artifact
//!   (`SUSCEPTIBILITY_lang.json` under `SOFI_RESULTS_DIR`, when set).
//! * Golden transparency for all four hardening mechanisms: a hardened
//!   compile must keep the fault-free output bit-identical while costing
//!   cycles — the invariant every comparison in the suite is built on.
//! * Serve-daemon round trip via [`Program::to_source`]: compiled
//!   programs travel to the coordinator as assembly text and the
//!   streamed result is bit-identical to the in-process campaign.

use sofi::campaign::{Campaign, CampaignConfig, FaultDomain, SamplingMode};
use sofi::isa::Program;
use sofi::machine::{Machine, RunStatus};
use sofi::metrics::{compare_failures, extrapolated_failures};
use sofi::report::{susceptibility_artifact, SusceptibilityRow, SUSCEPTIBILITY_SCHEMA};
use sofi::workloads::{lang_array_sum, lang_chacha_qr, lang_csv_count, lang_strsearch, Variant};
use sofi_lang::lower::{compile_with, Harden, Options};
use sofi_rng::DefaultRng;
use sofi_serve::{Client, JobSpec, ServeConfig, Server};

fn compiled_pairs() -> Vec<(&'static str, Program, Program)> {
    vec![
        (
            "lang_array_sum",
            lang_array_sum(Variant::Baseline),
            lang_array_sum(Variant::SumDmr),
        ),
        (
            "lang_csv_count",
            lang_csv_count(Variant::Baseline),
            lang_csv_count(Variant::SumDmr),
        ),
        (
            "lang_strsearch",
            lang_strsearch(Variant::Baseline),
            lang_strsearch(Variant::SumDmr),
        ),
        (
            "lang_chacha_qr",
            lang_chacha_qr(Variant::Baseline),
            lang_chacha_qr(Variant::SumDmr),
        ),
    ]
}

/// Figure-2 analogue over the compiled pairs: sampled campaigns in both
/// fault domains, extrapolated to sound absolute failure estimates, and
/// exported as a susceptibility-comparison artifact.
#[test]
fn figure2_susceptibility_comparison_for_compiled_pairs() {
    const DRAWS: u64 = 4_000;
    let mut rows = Vec::new();
    for (name, base, hard) in compiled_pairs() {
        let cb = Campaign::new(&base).unwrap();
        let ch = Campaign::new(&hard).unwrap();
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let mut rng = DefaultRng::seed_from_u64(0x5071 ^ DRAWS);
            let sb = cb.run_sampled_in(domain, DRAWS, SamplingMode::WeightedClasses, &mut rng);
            let sh = ch.run_sampled_in(domain, DRAWS, SamplingMode::WeightedClasses, &mut rng);
            let fb = extrapolated_failures(&sb, 0.95);
            let fh = extrapolated_failures(&sh, 0.95);
            assert!(
                fb.failures > 0.0,
                "{name} {domain:?}: baseline shows no failures at all — the \
                 comparison would be vacuous"
            );
            assert!(!fb.exact && !fh.exact, "sampled estimates must say so");
            assert!(fb.ci.0 <= fb.failures && fb.failures <= fb.ci.1);
            let cmp = compare_failures(&fb, &fh);
            assert!(cmp.ratio.is_finite(), "{name} {domain:?}: ratio not finite");
            rows.push(SusceptibilityRow {
                benchmark: name.to_owned(),
                domain,
                baseline_space: cb.plan_for(domain).space.size(),
                hardened_space: ch.plan_for(domain).space.size(),
                baseline: fb,
                hardened: fh,
                comparison: cmp,
            });
        }
        // The hardened build enlarges the fault space (more RAM and more
        // cycles) — absolute counts, not per-space rates, keep the
        // comparison sound regardless (Pitfall 1).
        let mem: Vec<_> = rows
            .iter()
            .filter(|r| r.benchmark == name && r.domain == FaultDomain::Memory)
            .collect();
        assert!(mem[0].hardened_space > mem[0].baseline_space, "{name}");
    }
    assert_eq!(rows.len(), 8, "4 pairs x 2 domains");

    let artifact = susceptibility_artifact(&rows);
    let text = artifact.pretty();
    assert!(text.contains(SUSCEPTIBILITY_SCHEMA), "{text}");
    let parsed = sofi::report::Json::parse(&text).unwrap();
    assert_eq!(
        parsed
            .get("rows")
            .and_then(|r| r.as_array())
            .map(<[sofi::report::Json]>::len),
        Some(8)
    );
    if let Ok(dir) = std::env::var("SOFI_RESULTS_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("SUSCEPTIBILITY_lang.json"), &text).unwrap();
    }
}

/// Every hardening mechanism must transform compiled output without
/// changing fault-free behaviour: identical serial stream, clean halt,
/// no spurious detections, strictly more cycles and at least as much RAM.
#[test]
fn all_mechanisms_keep_compiled_golden_runs_transparent() {
    let sources = [
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
    for (name, src) in sources {
        let plain = Options {
            harden: None,
            stack_bytes: 128,
        };
        let base = compile_with(name, src, &plain).unwrap();
        let mut mb = Machine::new(&base);
        assert_eq!(mb.run(1_000_000), RunStatus::Halted { code: 0 }, "{name}");

        for h in Harden::ALL {
            let opts = Options {
                harden: Some(h),
                stack_bytes: 128,
            };
            let hard = compile_with(name, src, &opts).unwrap();
            let mut mh = Machine::new(&hard);
            assert_eq!(
                mh.run(1_000_000),
                RunStatus::Halted { code: 0 },
                "{name}+{} did not halt cleanly",
                h.name()
            );
            assert_eq!(
                mh.serial(),
                mb.serial(),
                "{name}+{}: hardening changed golden output",
                h.name()
            );
            assert_eq!(
                mh.detect_count(),
                0,
                "{name}+{}: spurious detection on a fault-free run",
                h.name()
            );
            assert!(
                mh.cycle() > mb.cycle(),
                "{name}+{}: protected loads/stores must cost cycles",
                h.name()
            );
            assert!(
                hard.ram_size >= base.ram_size,
                "{name}+{}: replicas must cost memory",
                h.name()
            );
        }
    }
}

/// Compiled programs travel to the serve daemon as `to_source()` text and
/// come back with bit-identical campaign results.
#[test]
fn compiled_workloads_round_trip_through_the_serve_daemon() {
    let journal = std::env::temp_dir().join(format!(
        "sofi-lang-workloads-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let server = Server::bind("127.0.0.1:0", &journal, ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    for (program, domain) in [
        (lang_array_sum(Variant::Baseline), FaultDomain::Memory),
        (lang_chacha_qr(Variant::SumDmr), FaultDomain::RegisterFile),
    ] {
        let expected = {
            let campaign = Campaign::with_config(&program, CampaignConfig::default()).unwrap();
            campaign.run_full_defuse_in(domain)
        };
        let mut client = Client::connect(&addr).unwrap();
        let (job, result, stats) = client
            .submit_wait(
                JobSpec {
                    name: program.name.clone(),
                    source: program.to_source(),
                    domain,
                    config: CampaignConfig::default(),
                    warm_store: true,
                },
                |_, _, _| {},
            )
            .unwrap();
        assert!(job > 0);
        assert_eq!(stats.experiments, expected.results.len() as u64);
        // `to_source()` anonymizes the program name; everything that
        // determines execution and fault spaces must survive the trip.
        assert_eq!(result.domain, expected.domain, "{}", program.name);
        assert_eq!(result.space, expected.space, "{}", program.name);
        assert_eq!(result.golden_cycles, expected.golden_cycles);
        assert_eq!(result.results, expected.results, "{}", program.name);
    }

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_file(&journal);
}
