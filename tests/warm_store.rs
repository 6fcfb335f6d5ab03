//! Warm-store oracle: the persistent cross-campaign memo store must be
//! sound (never change outcomes), effective (a second submission of the
//! same workload hits persisted facts), and durable (facts survive a
//! daemon kill/restart, and a torn tail left by a crash mid-append is
//! truncated, not propagated).
//!
//! The sweep covers every workload in the suite × both fault domains:
//! a first daemon incarnation runs each campaign once and feeds the
//! store, is then dropped ("killed") with garbage appended to the store
//! file to simulate a write torn by the kill, and a second incarnation
//! re-submits every campaign. Each second run must return a
//! bit-identical [`sofi_campaign::CampaignResult`], report >0
//! persisted-store hits, and miss the memo nowhere.

use sofi::campaign::FaultDomain;
use sofi::workloads::all_baselines;
use sofi_campaign::{CampaignConfig, CampaignResult, ExecutorStats};
use sofi_isa::Program;
use sofi_serve::{Coordinator, JobSpec, JobState, ServeConfig, SubmitOutcome};
use std::collections::HashMap;
use std::path::PathBuf;

fn temp_path(tag: &str, ext: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sofi-warm-store-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{tag}.{ext}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn spec(program: &Program, domain: FaultDomain) -> JobSpec {
    JobSpec {
        name: program.name.clone(),
        source: program.to_source(),
        domain,
        config: CampaignConfig::default(),
        warm_store: true,
    }
}

/// Submits every workload × domain to the coordinator and returns each
/// job's final result + stats keyed by `(name, domain)`.
fn run_suite(
    sched: &Coordinator,
    programs: &[Program],
) -> HashMap<(String, FaultDomain), (CampaignResult, ExecutorStats)> {
    let mut jobs = Vec::new();
    for program in programs {
        for domain in [FaultDomain::Memory, FaultDomain::RegisterFile] {
            let SubmitOutcome::Accepted(id) = sched.submit(spec(program, domain)) else {
                panic!("daemon refused {}/{domain:?}", program.name);
            };
            jobs.push((program.name.clone(), domain, id));
        }
    }
    sched.wait_idle();
    let mut out = HashMap::new();
    for (name, domain, id) in jobs {
        let status = sched.status(Some(id)).unwrap().remove(0);
        assert_eq!(
            status.state,
            JobState::Done,
            "{name}/{domain:?}: {}",
            status.error
        );
        out.insert((name, domain), sched.result(id).unwrap());
    }
    out
}

#[test]
fn second_submission_hits_persisted_facts_across_daemon_restart() {
    let journal1 = temp_path("oracle-a", "journal");
    let journal2 = temp_path("oracle-b", "journal");
    let store = temp_path("oracle", "store");
    let programs = all_baselines();
    let config = || ServeConfig {
        workers: 2,
        queue_capacity: 64, // the whole 24-job sweep is queued up front
        batch_size: 256,
        warm_store: Some(store.clone()),
        ..ServeConfig::default()
    };

    // First incarnation: cold store. Every campaign runs in full and
    // feeds its fresh fault-equivalence facts into the store.
    let sched = Coordinator::open(&journal1, config()).unwrap();
    let t0 = std::time::Instant::now();
    let first = run_suite(&sched, &programs);
    let cold = t0.elapsed();
    for ((name, domain), (_, stats)) in &first {
        assert_eq!(
            stats.store_hits, 0,
            "{name}/{domain:?}: cold store cannot produce persisted hits"
        );
    }
    drop(sched); // "kill": the daemon process goes away

    // The kill may tear an in-flight store append: simulate it with half
    // a record (a plausible length prefix, then truncation). Recovery
    // must cut the tail and keep the valid prefix appendable.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&store)
            .unwrap();
        f.write_all(&[0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE])
            .unwrap();
    }

    // Second incarnation: fresh journal, same store. Every re-submission
    // must be answered partly from persisted facts and remain
    // bit-identical to the first run.
    let sched = Coordinator::open(&journal2, config()).unwrap();
    let t1 = std::time::Instant::now();
    let second = run_suite(&sched, &programs);
    eprintln!(
        "sweep wall-clock: cold {:.2?}, warm {:.2?}",
        cold,
        t1.elapsed()
    );
    assert_eq!(first.len(), second.len());
    for ((name, domain), (result, stats)) in &second {
        let (expected, _) = &first[&(name.clone(), *domain)];
        assert_eq!(
            result, expected,
            "{name}/{domain:?}: warm-store run changed outcomes"
        );
        assert!(
            stats.store_hits > 0,
            "{name}/{domain:?}: no persisted hits on a warmed store"
        );
        // The store holds every experiment's injection-point fact, which
        // the resubmission probes first: nothing may miss.
        assert_eq!(
            stats.memo_misses, 0,
            "{name}/{domain:?}: a warm resubmission missed the store"
        );
        // Visible with --nocapture: the measured warm-run hit profile.
        eprintln!(
            "warm {name}/{domain:?}: {}/{} experiments from the store ({} memo hits total)",
            stats.store_hits, stats.experiments, stats.memo_hits
        );
    }
    drop(sched);
    std::fs::remove_file(&journal1).unwrap();
    std::fs::remove_file(&journal2).unwrap();
    std::fs::remove_file(&store).unwrap();
}

#[test]
fn cold_submissions_bypass_the_store() {
    let journal = temp_path("cold", "journal");
    let store = temp_path("cold", "store");
    let program = &all_baselines()[0];
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            warm_store: Some(store.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Warm the store, then submit the same campaign with the spec's
    // warm_store cleared (`submit --cold`): outcomes stay identical but
    // nothing is preloaded, so zero persisted hits.
    let SubmitOutcome::Accepted(a) = sched.submit(spec(program, FaultDomain::Memory)) else {
        panic!("refused");
    };
    sched.wait_idle();
    let (warm_result, _) = sched.result(a).unwrap();

    let SubmitOutcome::Accepted(b) = sched.submit(JobSpec {
        warm_store: false,
        ..spec(program, FaultDomain::Memory)
    }) else {
        panic!("refused");
    };
    sched.wait_idle();
    let (cold_result, cold_stats) = sched.result(b).unwrap();
    assert_eq!(cold_result, warm_result);
    assert_eq!(
        cold_stats.store_hits, 0,
        "--cold submission consulted the store"
    );

    drop(sched);
    std::fs::remove_file(&journal).unwrap();
    std::fs::remove_file(&store).unwrap();
}
