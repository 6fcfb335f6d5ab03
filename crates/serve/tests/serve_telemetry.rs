//! End-to-end telemetry over the wire: start a daemon on an ephemeral
//! loopback port, run a campaign through it, and read the metrics back
//! via the versioned `Stats`/`Telemetry` frame pair — both the per-job
//! registry and the daemon-wide merge. When `SOFI_RESULTS_DIR` is set
//! (the CI serve-smoke step), the daemon-wide snapshot is exported as a
//! JSON artifact next to the bench results.

use sofi_campaign::{CampaignConfig, FaultDomain};
use sofi_serve::{Client, ClientError, JobSpec, ServeConfig, Server};
use sofi_telemetry::{names, Snapshot};
use std::path::PathBuf;

const PROG: &str = "
    .data
    msg: .space 2
    .text
    li r1, 'H'
    sb r1, msg(r0)
    li r1, 'i'
    sb r1, msg+1(r0)
    lb r2, msg(r0)
    serial r2
    lb r2, msg+1(r0)
    serial r2
";

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sofi-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

fn counter(snap: &Snapshot, name: &str) -> Option<u64> {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
}

fn histogram_count(snap: &Snapshot, name: &str) -> Option<u64> {
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h.count)
}

#[test]
fn daemon_exposes_job_and_daemon_wide_telemetry() {
    let journal = temp_path("telemetry.journal");
    let _ = std::fs::remove_file(&journal);
    let server = Server::bind(
        "127.0.0.1:0",
        &journal,
        ServeConfig {
            batch_size: 8, // several journal commits => several fsync spans
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(&addr).unwrap();
    let spec = JobSpec {
        name: "hi".into(),
        source: PROG.into(),
        domain: FaultDomain::Memory,
        config: CampaignConfig::default(),
        warm_store: true,
    };
    let (job, result, stats) = client.submit_wait(spec, |_, _, _| {}).unwrap();
    assert!(!result.results.is_empty());

    // Per-job registry: executor counters and the paper-relevant
    // histograms (faulted-run lengths, checkpoint-restore distances).
    let job_snap = client.stats(Some(job)).unwrap();
    assert_eq!(
        counter(&job_snap, names::EXPERIMENTS),
        Some(stats.experiments)
    );
    assert!(
        histogram_count(&job_snap, names::FAULTED_RUN_CYCLES).is_some_and(|n| n > 0),
        "faulted-run histogram missing: {job_snap:?}"
    );
    assert!(
        histogram_count(&job_snap, names::RESTORE_DISTANCE_CYCLES).is_some_and(|n| n > 0),
        "restore-distance histogram missing: {job_snap:?}"
    );

    // Daemon-wide snapshot: scheduler counters plus the journal fsync
    // histogram, merged with every job's registry.
    let daemon_snap = client.stats(None).unwrap();
    assert_eq!(counter(&daemon_snap, names::JOBS_SUBMITTED), Some(1));
    assert_eq!(counter(&daemon_snap, names::JOBS_FINISHED), Some(1));
    assert!(counter(&daemon_snap, names::BATCHES_COMMITTED).is_some_and(|n| n >= 2));
    assert!(
        histogram_count(&daemon_snap, names::JOURNAL_FSYNC_NS).is_some_and(|n| n > 0),
        "journal fsync histogram missing: {daemon_snap:?}"
    );
    assert_eq!(
        counter(&daemon_snap, names::EXPERIMENTS),
        Some(stats.experiments),
        "daemon-wide snapshot must absorb the job registry"
    );

    // Unknown job ids get the typed server error, not a hangup.
    assert!(matches!(
        client.stats(Some(999)),
        Err(ClientError::Server(_))
    ));

    // CI artifact: export the daemon-wide snapshot as schema-tagged JSON.
    if let Ok(dir) = std::env::var("SOFI_RESULTS_DIR") {
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = sofi_report::to_json(&sofi_report::telemetry_artifact(&daemon_snap));
        let path = std::path::Path::new(&dir).join("TELEMETRY_serve_smoke.json");
        std::fs::write(&path, artifact).unwrap();
    }

    client.shutdown().unwrap();
    daemon.join().unwrap();
    std::fs::remove_file(&journal).unwrap();
}
