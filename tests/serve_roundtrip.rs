//! End-to-end daemon test: start `sofi-serve` on an ephemeral loopback
//! port, submit campaigns for every fault domain — data *and*
//! control-flow — over the socket, and check the streamed results are
//! bit-identical to running the same campaign in-process. Also covers
//! status over the wire, warm-store replay of a control-flow job,
//! Unix-socket transport, idle-client timeouts, graceful protocol
//! shutdown, a drain that closes idle connections at once while
//! finishing a result stream in flight, and a refused submit whose spec
//! asks for another cycle budget.

use sofi_campaign::{Campaign, CampaignConfig, FaultDomain};
use sofi_isa::assemble_text;
use sofi_serve::protocol::{write_message, FrameReader, Message, ProtocolError, HEADER_LEN};
use sofi_serve::server::Conn;
use sofi_serve::wire;
use sofi_serve::{Client, ClientPool, JobSpec, JobState, ServeConfig, Server};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long a drain may take once nothing is left to run: far below
/// any idle timeout the drain tests configure.
const PROMPT_DRAIN: Duration = Duration::from_secs(5);

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

fn spec(domain: FaultDomain) -> JobSpec {
    JobSpec {
        name: "hi".into(),
        source: PROG.into(),
        domain,
        config: CampaignConfig::default(),
        warm_store: true,
    }
}

fn in_process(domain: FaultDomain) -> sofi_campaign::CampaignResult {
    let program = assemble_text("hi", PROG).unwrap();
    let campaign = Campaign::with_config(&program, CampaignConfig::default()).unwrap();
    campaign.run_full_defuse_in(domain)
}

#[test]
fn loopback_results_bit_identical_for_every_domain() {
    let journal = temp_path("roundtrip.journal");
    let _ = std::fs::remove_file(&journal);
    let server = Server::bind(
        "127.0.0.1:0",
        &journal,
        ServeConfig {
            batch_size: 8, // several Progress frames per campaign
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    for domain in FaultDomain::ALL {
        let mut client = Client::connect(&addr).unwrap();
        let mut progress = Vec::new();
        let mut live_experiments = Vec::new();
        let (job, result, stats) = client
            .submit_wait(spec(domain), |done, total, live| {
                progress.push((done, total));
                live_experiments.push(live.experiments);
            })
            .unwrap();
        assert!(job > 0);

        let expected = in_process(domain);
        assert_eq!(
            result, expected,
            "socket-streamed {domain:?} result differs from in-process run"
        );
        assert_eq!(stats.experiments, expected.results.len() as u64);

        // Progress stream: monotone, consistent total, ends complete.
        // Small plans (the control-flow domains of this 8-instruction
        // program; branch-invert is even empty) may fit one batch, so
        // the multi-frame requirement only binds past the batch size.
        let total = expected.results.len() as u64;
        if total > 8 {
            assert!(
                progress.len() >= 2,
                "batch size 8 must stream: {progress:?}"
            );
        }
        assert!(
            progress.windows(2).all(|w| w[0].0 <= w[1].0),
            "{progress:?}"
        );
        assert!(progress.iter().skip(1).all(|&(_, t)| t == total));
        match progress.last() {
            Some(&(done, _)) => assert_eq!(done, total),
            None => assert_eq!(total, 0, "{domain:?} streamed no progress"),
        }

        // Progress frames carry live executor stats: the per-batch merge
        // is monotone and ends at the final job-wide experiment count.
        assert!(
            live_experiments.windows(2).all(|w| w[0] <= w[1]),
            "{live_experiments:?}"
        );
        assert_eq!(*live_experiments.last().unwrap(), stats.experiments);
    }

    // Status over the wire: all jobs terminal and fully covered.
    let mut client = Client::connect(&addr).unwrap();
    let jobs = client.status(None).unwrap();
    assert_eq!(jobs.len(), FaultDomain::ALL.len());
    assert!(jobs.iter().all(|j| j.state == JobState::Done));
    // Every job fully covered; all but the (empty) branch-invert plan of
    // this branch-free program are non-trivial.
    assert!(jobs.iter().all(|j| j.done == j.total));
    assert_eq!(jobs.iter().filter(|j| j.total > 0).count(), 4);
    assert!(matches!(
        client.status(Some(999)),
        Err(sofi_serve::ClientError::Server(_))
    ));

    // Graceful drain via the protocol; the daemon thread exits.
    client.shutdown().unwrap();
    daemon.join().unwrap();
    std::fs::remove_file(&journal).unwrap();
}

/// A control-flow-domain job over the wire with the warm store enabled:
/// the first submission seeds the store with the campaign's
/// fault-equivalence facts, the resubmission is answered partly from
/// them, and both results stay bit-identical to the in-process run.
#[test]
fn cf_job_warm_store_replay_is_bit_identical() {
    let journal = temp_path("cfwarm.journal");
    let store = temp_path("cfwarm.store");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&store);
    let server = Server::bind(
        "127.0.0.1:0",
        &journal,
        ServeConfig {
            warm_store: Some(store.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(&addr).unwrap();
    let (_, first, first_stats) = client
        .submit_wait(spec(FaultDomain::InstrSkip), |_, _, _| {})
        .unwrap();
    assert_eq!(first_stats.store_hits, 0, "cold store cannot produce hits");
    assert_eq!(first, in_process(FaultDomain::InstrSkip));

    let (_, second, second_stats) = client
        .submit_wait(spec(FaultDomain::InstrSkip), |_, _, _| {})
        .unwrap();
    assert_eq!(second, first, "warm-store replay changed outcomes");
    assert!(
        second_stats.store_hits > 0,
        "no persisted hits on a warmed store"
    );
    // The first job's facts were appended before its result reached
    // us, so the resubmission probes every injection point warm.
    assert_eq!(
        second_stats.memo_misses, 0,
        "the resubmission missed the store"
    );

    client.shutdown().unwrap();
    daemon.join().unwrap();
    std::fs::remove_file(&journal).unwrap();
    std::fs::remove_file(&store).unwrap();
}

#[test]
fn unix_socket_transport_works() {
    let journal = temp_path("unix.journal");
    let socket = temp_path("unix.sock");
    let _ = std::fs::remove_file(&journal);
    let server = Server::bind(socket.to_str().unwrap(), &journal, ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    assert!(
        addr.contains('/'),
        "unix transport selected by path: {addr}"
    );
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(&addr).unwrap();
    let (_, result, _) = client
        .submit_wait(spec(FaultDomain::Memory), |_, _, _| {})
        .unwrap();
    assert_eq!(result, in_process(FaultDomain::Memory));

    client.shutdown().unwrap();
    daemon.join().unwrap();
    assert!(!socket.exists(), "socket file cleaned up on shutdown");
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn idle_clients_time_out_and_get_told() {
    let journal = temp_path("idle.journal");
    let _ = std::fs::remove_file(&journal);
    let server = Server::bind(
        "127.0.0.1:0",
        &journal,
        ServeConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    // Connect and send nothing: the daemon reports the timeout and
    // closes instead of leaking the handler thread.
    let mut conn = Conn::connect(&addr).unwrap();
    match FrameReader::new().read(&mut conn) {
        Ok(Some(Message::Error { message })) => {
            assert!(message.contains("idle timeout"), "{message}");
        }
        other => panic!("expected idle-timeout error, got {other:?}"),
    }
    assert!(matches!(
        FrameReader::new().read(&mut conn),
        Ok(None) | Err(_)
    ));

    // A malformed frame gets a protocol error back, not a hangup-only.
    let mut conn = Conn::connect(&addr).unwrap();
    use std::io::Write as _;
    conn.write_all(b"GARBAGEGARBAGEGARBAGE").unwrap();
    conn.flush().unwrap();
    match FrameReader::new().read(&mut conn) {
        Ok(Some(Message::Error { message })) => {
            assert!(message.contains("protocol error"), "{message}");
        }
        other => panic!("expected protocol error reply, got {other:?}"),
    }

    handle.shutdown();
    daemon.join().unwrap();
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn backpressure_and_drain_over_the_wire() {
    let journal = temp_path("busy.journal");
    let _ = std::fs::remove_file(&journal);
    let server = Server::bind(
        "127.0.0.1:0",
        &journal,
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    // Flood: with a single worker and capacity 1, some submission must
    // bounce with the typed Busy frame.
    let mut client = Client::connect(&addr).unwrap();
    let mut saw_busy = false;
    for _ in 0..32 {
        match client.submit(spec(FaultDomain::Memory)) {
            Ok(_) => {}
            Err(sofi_serve::ClientError::Busy { capacity, .. }) => {
                assert_eq!(capacity, 1);
                saw_busy = true;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(saw_busy, "32 rapid submissions never hit the bounded queue");

    // Shutdown drains: accepted jobs still finish (state visible in the
    // post-drain coordinator is impossible over the wire, so assert the
    // drain itself: submissions after shutdown are refused).
    client.shutdown().unwrap();
    let mut late = Client::connect(&addr);
    if let Ok(late) = late.as_mut() {
        match late.submit(spec(FaultDomain::Memory)) {
            Err(sofi_serve::ClientError::ShuttingDown)
            | Err(sofi_serve::ClientError::Protocol(_)) => {}
            Ok(id) => panic!("draining daemon accepted job {id}"),
            Err(_) => {} // connection refused once the listener is gone
        }
    }
    daemon.join().unwrap();
    std::fs::remove_file(&journal).unwrap();
}

/// A drain does not wait out the idle timeout: a pooled connection
/// parked after one request is closed at once, and the daemon exits.
#[test]
fn drain_closes_an_idle_pooled_connection_at_once() {
    let journal = temp_path("idledrain.journal");
    let _ = std::fs::remove_file(&journal);
    let server = Server::bind(
        "127.0.0.1:0",
        &journal,
        ServeConfig {
            idle_timeout: Duration::from_secs(60),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let pool = ClientPool::new(&addr);
    let jobs = pool.with(|client| client.status(None)).unwrap();
    assert!(jobs.is_empty());
    assert_eq!(pool.idle_count(), 1, "the connection is parked, still open");

    let t = Instant::now();
    handle.shutdown();
    daemon.join().unwrap();
    assert!(
        t.elapsed() < PROMPT_DRAIN,
        "drain waited {:?} on an idle connection",
        t.elapsed()
    );
    std::fs::remove_file(&journal).unwrap();
}

/// A drain that starts while a job streams to its client still delivers
/// the job's result, bit-identical to the in-process run, and then exits
/// promptly.
#[test]
fn drain_mid_stream_still_delivers_the_result() {
    let journal = temp_path("streamdrain.journal");
    let _ = std::fs::remove_file(&journal);
    let server = Server::bind(
        "127.0.0.1:0",
        &journal,
        ServeConfig {
            batch_size: 8,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let source = sofi_workloads::crc32().to_source();
    let expected = Campaign::with_config(
        &assemble_text("crc32", &source).unwrap(),
        CampaignConfig::default(),
    )
    .unwrap()
    .run_full_defuse_in(FaultDomain::Memory);
    assert!(
        expected.results.len() > 8,
        "the job must span several shards"
    );
    let job = JobSpec {
        name: "crc32".into(),
        source,
        domain: FaultDomain::Memory,
        config: CampaignConfig::default(),
        warm_store: true,
    };

    let mut client = Client::connect(&addr).unwrap();
    let mut frames = 0;
    let (_, result, stats) = client
        .submit_wait(job, |_, _, _| {
            frames += 1;
            if frames == 1 {
                handle.shutdown();
            }
        })
        .unwrap();
    assert!(frames >= 1);
    assert_eq!(result, expected, "a drain mid-stream changed the result");
    assert_eq!(stats.experiments, expected.results.len() as u64);

    let t = Instant::now();
    daemon.join().unwrap();
    assert!(
        t.elapsed() < PROMPT_DRAIN,
        "drain took {:?} after the result was delivered",
        t.elapsed()
    );
    std::fs::remove_file(&journal).unwrap();
}

/// The raw protocol functions work against a live daemon (not just the
/// Client wrapper) — a sanity check that the frame format on the socket
/// is exactly what `encode_frame` produces.
#[test]
fn raw_frames_on_the_socket() {
    let journal = temp_path("raw.journal");
    let _ = std::fs::remove_file(&journal);
    let server = Server::bind("127.0.0.1:0", &journal, ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let mut conn = Conn::connect(&addr).unwrap();
    write_message(&mut conn, &Message::Status { job: None }).unwrap();
    match FrameReader::new().read(&mut conn) {
        Ok(Some(Message::StatusReport { jobs })) => assert!(jobs.is_empty()),
        other => panic!("expected empty status report, got {other:?}"),
    }
    // A response kind sent *to* the daemon is rejected as unexpected.
    write_message(&mut conn, &Message::Accepted { job: 1 }).unwrap();
    match FrameReader::new().read(&mut conn) {
        Ok(Some(Message::Error { message })) => {
            assert!(message.contains("unexpected message"), "{message}");
        }
        other => panic!("expected error reply, got {other:?}"),
    }
    drop(conn);

    let mut conn = Conn::connect(&addr).unwrap();
    write_message(&mut conn, &Message::Shutdown).unwrap();
    match FrameReader::new().read(&mut conn) {
        Ok(Some(Message::ShuttingDown)) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    daemon.join().unwrap();
    let _ = std::fs::remove_file(&journal);
}

/// A `Submit` frame whose timeout-factor word asks for a cycle budget no
/// run reaches is answered with an `Error` frame: no job is queued, and
/// a drain returns at once. Once a flip makes `n` odd the program below
/// loops forever, so such a budget would have been its only bound.
#[test]
fn a_submit_with_an_unbounded_budget_is_refused() {
    const LOOPER: &str = "
        .data
        n: .word 4
        .text
        loop:
            lw r1, n(r0)
            beq r1, r0, done
            addi r1, r1, -2
            sw r1, n(r0)
            j loop
        done:
            li r2, '!'
            serial r2
            halt 0
    ";
    let journal = temp_path("unbounded.journal");
    let _ = std::fs::remove_file(&journal);
    let server = Server::bind("127.0.0.1:0", &journal, ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.run().unwrap());

    let spec = JobSpec {
        name: "looper".into(),
        source: LOOPER.into(),
        domain: FaultDomain::Memory,
        config: CampaignConfig::default(),
        warm_store: false,
    };
    let mut frame = Message::Submit {
        spec: spec.clone(),
        wait: false,
    }
    .encode_frame();
    // Config word 1 follows the name, the source, the domain tag and the
    // threads word; re-seal the checksum over the edited payload.
    let at = HEADER_LEN + 4 + spec.name.len() + 4 + spec.source.len() + 1 + 8;
    frame[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let checksum = wire::fnv1a32_update(wire::fnv1a32(&frame[..12]), &frame[HEADER_LEN..]);
    frame[12..16].copy_from_slice(&checksum.to_le_bytes());

    let mut conn = Conn::connect(&addr).unwrap();
    conn.write_all(&frame).unwrap();
    match FrameReader::new().read(&mut conn) {
        Ok(Some(Message::Error { message })) => {
            assert!(message.contains("timeout factor"), "{message}");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    drop(conn);
    let jobs = Client::connect(&addr).unwrap().status(None).unwrap();
    assert!(jobs.is_empty(), "a refused spec queued {jobs:?}");

    let t = Instant::now();
    handle.shutdown();
    daemon.join().unwrap();
    assert!(
        t.elapsed() < PROMPT_DRAIN,
        "drain took {:?} after a refused submit",
        t.elapsed()
    );
    std::fs::remove_file(&journal).unwrap();
}

/// Keep `ProtocolError` importable from the integration-test surface —
/// the fuzz suite in `crates/serve/tests` leans on it, and downstream
/// users match on it.
#[test]
fn protocol_error_is_matchable() {
    let e = ProtocolError::Truncated;
    assert_eq!(format!("{e}"), "stream ended mid-frame");
}
