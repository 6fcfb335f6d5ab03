//! Crash-recovery proof for the serve journal: a daemon killed
//! mid-campaign (after N journal commits) is restarted on the same
//! journal and must produce a merged result bit-identical to an
//! uninterrupted run — no duplicated experiment ids, none dropped, and
//! only the uncovered tail re-executed.
//!
//! the "kill" is the coordinator's `crash_after_commits` hook: after N
//! batch commits the workers stop dead — no end record, no state
//! update, the journal left exactly as `kill -9` would leave it (the
//! in-flight batch is lost). Threads can't be killed mid-instruction in
//! safe Rust, but every observable artifact of the crash (the journal
//! file) is identical, and recovery only ever sees the journal.

use sofi_campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi_isa::assemble_text;
use sofi_serve::wire::{self, Writer};
use sofi_serve::{Coordinator, JobSpec, JobState, ServeConfig, Server, SubmitOutcome};
use std::collections::HashSet;
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

fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sofi-recovery-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn spec(domain: FaultDomain) -> JobSpec {
    JobSpec {
        name: "hi".into(),
        source: PROG.into(),
        domain,
        config: CampaignConfig::default(),
        warm_store: true,
    }
}

/// Kills a daemon after `crash_after` batch commits, restarts on the
/// same journal, and checks the resumed job's merged result against an
/// uninterrupted in-process run.
fn crash_and_recover(domain: FaultDomain, batch_size: usize, crash_after: u64, tag: &str) {
    let journal = temp_journal(tag);

    // Reference: the uninterrupted run.
    let program = assemble_text("hi", PROG).unwrap();
    let campaign = Campaign::with_config(&program, CampaignConfig::default()).unwrap();
    let expected = campaign.run_full_defuse_in(domain);
    let total = expected.results.len();
    let committed = batch_size * crash_after as usize;
    assert!(
        committed + batch_size < total,
        "scenario must crash mid-campaign: {committed}+{batch_size} vs {total}"
    );

    // First incarnation: dies after `crash_after` journal commits.
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            batch_size,
            crash_after_commits: Some(crash_after),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let SubmitOutcome::Accepted(job) = sched.submit(spec(domain)) else {
        panic!("fresh daemon refused the job");
    };
    sched.wait_idle(); // returns once the crash hook fires
    assert!(sched.crashed(), "crash hook never fired");
    let status = sched.status(Some(job)).unwrap().remove(0);
    assert_eq!(status.state, JobState::Running, "died mid-flight");
    assert_eq!(
        status.done as usize, committed,
        "exactly the committed batches count as done"
    );
    assert!(sched.result(job).is_none());
    drop(sched); // "kill": nothing further reaches the journal

    // Second incarnation: same journal path, no crash hook. Recovery
    // re-queues the interrupted job automatically — no resubmission.
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            batch_size,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let replayed = sched.status(Some(job)).unwrap().remove(0);
    assert!(
        replayed.done as usize >= committed,
        "journal replay lost commits: {} < {committed}",
        replayed.done
    );
    sched.wait_idle();

    let status = sched.status(Some(job)).unwrap().remove(0);
    assert_eq!(status.state, JobState::Done, "{}", status.error);
    let (result, stats) = sched.result(job).unwrap();

    // The merged (replayed + re-run) result is bit-identical to the
    // uninterrupted run.
    assert_eq!(result, expected);

    // No duplicated or dropped experiment ids.
    let ids: Vec<u32> = result.results.iter().map(|r| r.experiment.id).collect();
    let unique: HashSet<u32> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "duplicated experiment ids");
    let expected_ids: HashSet<u32> = expected.results.iter().map(|r| r.experiment.id).collect();
    assert_eq!(unique, expected_ids, "dropped/invented experiment ids");

    // The second incarnation re-ran only the uncovered tail.
    assert_eq!(
        stats.experiments as usize,
        total - committed,
        "resume re-executed journaled experiments"
    );

    drop(sched);
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn memory_campaign_resumes_after_crash() {
    // 16-experiment plan, batches of 4: crash with 8 committed, 8 to go.
    crash_and_recover(FaultDomain::Memory, 4, 2, "mem");
}

#[test]
fn register_campaign_resumes_after_crash() {
    // 128-experiment plan, batches of 8: crash with 24 committed.
    crash_and_recover(FaultDomain::RegisterFile, 8, 3, "reg");
}

#[test]
fn finished_jobs_survive_restart_as_terminal() {
    let journal = temp_journal("terminal");
    let sched = Coordinator::open(&journal, ServeConfig::default()).unwrap();
    let SubmitOutcome::Accepted(job) = sched.submit(spec(FaultDomain::Memory)) else {
        panic!("refused");
    };
    sched.wait_idle();
    assert_eq!(
        sched.status(Some(job)).unwrap().remove(0).state,
        JobState::Done
    );
    drop(sched);

    // Restart: the job replays as Done with its full coverage count and
    // is NOT re-queued (no new experiments run).
    let sched = Coordinator::open(&journal, ServeConfig::default()).unwrap();
    let status = sched.status(Some(job)).unwrap().remove(0);
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.done, 16);
    sched.wait_idle(); // no queued work; returns immediately
    drop(sched);
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn journal_with_torn_tail_still_recovers() {
    let journal = temp_journal("torn");
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            batch_size: 4,
            crash_after_commits: Some(2),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let SubmitOutcome::Accepted(job) = sched.submit(spec(FaultDomain::Memory)) else {
        panic!("refused");
    };
    sched.wait_idle();
    drop(sched);

    // Simulate a torn write at the kill point: append half a record.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    f.write_all(&[0x44, 0x00, 0x00, 0x00, 0xAA, 0xBB]).unwrap();
    drop(f);

    let sched = Coordinator::open(&journal, ServeConfig::default()).unwrap();
    sched.wait_idle();
    let (result, _) = sched.result(job).unwrap();
    let program = assemble_text("hi", PROG).unwrap();
    let campaign = Campaign::with_config(&program, CampaignConfig::default()).unwrap();
    assert_eq!(result, campaign.run_full_defuse_in(FaultDomain::Memory));
    drop(sched);
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn journal_in_another_format_is_refused_not_truncated() {
    // Commit a job's start record and two batches, as a crash leaves them.
    let journal = temp_journal("v6");
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            batch_size: 4,
            crash_after_commits: Some(2),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let SubmitOutcome::Accepted(job) = sched.submit(spec(FaultDomain::Memory)) else {
        panic!("refused");
    };
    sched.wait_idle();
    drop(sched);

    // Rewrite the start record as a protocol-v6 daemon framed it: nine
    // packed config words (threads, timeouts, convergence, memoization,
    // serial limit, telemetry, block engine, memo gate).
    let bytes = std::fs::read(&journal).unwrap();
    let first_len = 8 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let mut w = Writer::new();
    w.u8(0);
    w.u64(job);
    w.str("hi");
    w.str(PROG);
    wire::put_domain(&mut w, FaultDomain::Memory);
    for word in [0, 3, 1_000, 1, 1, 64 * 1024, 0, 1, 1] {
        w.u64(word);
    }
    w.bool(true);
    let payload = w.finish();
    let mut v6 = Vec::new();
    v6.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    v6.extend_from_slice(&wire::fnv1a32(&payload).to_le_bytes());
    v6.extend_from_slice(&payload);
    v6.extend_from_slice(&bytes[first_len..]);
    std::fs::write(&journal, &v6).unwrap();

    let Err(err) = Server::bind("127.0.0.1:0", &journal, ServeConfig::default()) else {
        panic!("a v6 journal must be refused");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        v6,
        "the committed batches behind the v6 record must survive"
    );
    std::fs::remove_file(&journal).unwrap();
}

/// A v7 `JobStart` record whose packed config moves a fixed limit (the
/// timeout factor, the timeout slack or the serial limit, here to
/// `u64::MAX`) is refused as the v6 record above is: the daemon does not
/// start, and the file, committed batches included, is left untouched.
#[test]
fn a_start_record_with_another_limit_is_refused() {
    let journal = temp_journal("limit");
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            batch_size: 4,
            crash_after_commits: Some(2),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let SubmitOutcome::Accepted(_) = sched.submit(spec(FaultDomain::Memory)) else {
        panic!("refused");
    };
    sched.wait_idle();
    drop(sched);

    // The start record opens the journal: length, checksum, then tag 0,
    // the job id and the spec, whose config word 1 follows the name, the
    // source, the domain tag and the threads word.
    let bytes = std::fs::read(&journal).unwrap();
    let payload_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    for (index, what, fixed) in [
        (1, "timeout factor", 3u64),
        (2, "timeout slack", 1_000),
        (3, "serial limit", 64 * 1024),
    ] {
        let at = 8 + 1 + 8 + 4 + "hi".len() + 4 + PROG.len() + 1 + 8 * index;
        assert_eq!(bytes[at..at + 8], fixed.to_le_bytes(), "{what}");
        let mut edited = bytes.clone();
        edited[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let checksum = wire::fnv1a32(&edited[8..8 + payload_len]);
        edited[4..8].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&journal, &edited).unwrap();

        let Err(err) = Server::bind("127.0.0.1:0", &journal, ServeConfig::default()) else {
            panic!("{what} = u64::MAX must be refused");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(what), "{err}");
        assert_eq!(
            std::fs::read(&journal).unwrap(),
            edited,
            "the refused journal must be left as it was"
        );
    }
    std::fs::remove_file(&journal).unwrap();
}

/// A job cancelled while its shards stream commits nothing further: it
/// ends `Cancelled` with part of its plan done, and a restarted daemon
/// replays it as `Cancelled` with exactly the shards committed before.
#[test]
fn cancelled_stream_stops_and_replays_as_cancelled() {
    let journal = temp_journal("cancel-stream");
    let program = sofi::workloads::crc32();
    let sched = Coordinator::open(
        &journal,
        ServeConfig {
            workers: 1,
            batch_size: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let SubmitOutcome::Accepted(job) = sched.submit(JobSpec {
        name: program.name.clone(),
        source: program.to_source(),
        domain: FaultDomain::RegisterFile,
        config: CampaignConfig::default(),
        warm_store: false,
    }) else {
        panic!("refused");
    };
    let first = sched.wait_progress(job, 0).unwrap().status;
    assert_eq!(first.state, JobState::Running, "{}", first.error);
    assert!(first.done > 0);
    assert_eq!(
        sched.cancel(job),
        sofi_serve::CancelOutcome::Cancelled,
        "a running job is cancellable"
    );
    sched.wait_idle();
    let status = sched.status(Some(job)).unwrap().remove(0);
    assert_eq!(status.state, JobState::Cancelled);
    assert!(
        status.done < status.total,
        "the stream ran to the end: {} of {}",
        status.done,
        status.total
    );
    drop(sched);

    let sched = Coordinator::open(&journal, ServeConfig::default()).unwrap();
    let replayed = sched.status(Some(job)).unwrap().remove(0);
    assert_eq!(replayed.state, JobState::Cancelled);
    assert_eq!(replayed.done, status.done, "journaled work drifted");
    drop(sched);
    std::fs::remove_file(&journal).unwrap();
}
