//! The remote worker loop: the executing half of the distributed
//! campaign fabric.
//!
//! A worker dials the coordinator, registers itself (learning its
//! worker id and the coordinator's lease timeout), then loops: poll for
//! a shard lease, build a [`Campaign`] for the lease's job (or reuse the
//! one it holds, when the lease is for the same job), execute the shard
//! through
//! [`Campaign::run_experiments_stats`], and stream the outcomes back as
//! a partial upload. A dedicated heartbeat thread on its *own*
//! connection keeps leases renewed while the main thread is deep inside
//! a long shard execution — without it, any shard longer than the lease
//! timeout would be reclaimed mid-flight every time.
//!
//! Correctness leans entirely on coordinator-side invariants: uploads
//! are idempotent (keyed by lease + exact experiment-id set), expired
//! leases are re-queued, and stale uploads are rejected — so the worker
//! can crash, stall, reconnect, or double-send without corrupting the
//! merged result. The chaos knob on [`WorkerConfig`]
//! (`die_holding_lease_after`) lets the fabric tests crash a worker
//! holding a lease on purpose.

use crate::client::{Client, ClientError};
use crate::coordinator::LeaseOffer;
use sofi_campaign::Campaign;
use sofi_telemetry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Configuration for one worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (Unix socket path or TCP `host:port`).
    pub addr: String,
    /// Human-readable worker name, shown in `sofi status` tables.
    pub name: String,
    /// Sleep between `NoWork` polls.
    pub poll_interval: Duration,
    /// Exit after this many consecutive empty polls (`None` = poll
    /// until the coordinator drains).
    pub max_idle_polls: Option<u64>,
    /// Chaos: take a lease, *execute nothing*, and exit — simulating a
    /// worker crashing mid-shard with work checked out.
    pub die_holding_lease_after: Option<u64>,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            addr: String::new(),
            name: "worker".to_string(),
            poll_interval: Duration::from_millis(50),
            max_idle_polls: None,
            die_holding_lease_after: None,
        }
    }
}

/// What a worker accomplished before exiting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// The last worker id the coordinator assigned us (re-registration
    /// after a reconnect gets a fresh id).
    pub worker: u64,
    /// Shards whose upload was committed.
    pub shards: u64,
    /// Experiments inside those committed shards.
    pub experiments: u64,
    /// Uploads acknowledged as already-committed duplicates.
    pub duplicates: u64,
    /// Uploads rejected as stale (lease expired or superseded).
    pub stale: u64,
    /// Times the worker had to re-dial and re-register.
    pub reconnects: u64,
}

/// How many consecutive reconnect failures end the worker.
const MAX_RECONNECTS: u64 = 8;

/// Runs the worker loop until the coordinator drains, an idle/chaos
/// limit fires, or the connection is lost beyond repair.
pub fn run_worker(config: &WorkerConfig) -> Result<WorkerReport, ClientError> {
    let mut report = WorkerReport::default();
    // The current job's campaign: the assembly, golden run and def/use
    // plan happen once per run of one job's leases, not once per shard.
    // Only one is kept — the coordinator leases the lowest-id job's
    // shards first, so a lease for another job means the old one is
    // done with here, and its facts were already uploaded.
    let mut current: Option<(u64, Campaign)> = None;
    // The heartbeat thread reads the current worker id from here so a
    // re-registration after reconnect retargets it without a restart.
    let worker_id = Arc::new(AtomicU64::new(0));
    let mut heartbeat: Option<(mpsc::Sender<()>, thread::JoinHandle<()>)> = None;
    let mut consecutive_failures: u64 = 0;

    let result = 'outer: loop {
        let mut client = match Client::connect(&config.addr) {
            Ok(c) => c,
            Err(e) => {
                consecutive_failures += 1;
                if consecutive_failures > MAX_RECONNECTS {
                    break 'outer Err(e);
                }
                thread::sleep(config.poll_interval);
                continue;
            }
        };
        let (id, lease_ms) = match client.register(&config.name) {
            Ok(pair) => pair,
            Err(e) => {
                consecutive_failures += 1;
                if consecutive_failures > MAX_RECONNECTS {
                    break 'outer Err(e);
                }
                thread::sleep(config.poll_interval);
                continue;
            }
        };
        consecutive_failures = 0;
        report.worker = id;
        worker_id.store(id, Ordering::Relaxed);
        if heartbeat.is_none() {
            heartbeat = Some(spawn_heartbeat(
                config.addr.clone(),
                Arc::clone(&worker_id),
                Duration::from_millis((lease_ms / 3).max(10)),
            ));
        }

        let mut idle_polls: u64 = 0;
        loop {
            match client.request_lease(id) {
                Ok(LeaseOffer::Grant {
                    lease,
                    job,
                    shard,
                    spec,
                    experiments,
                }) => {
                    idle_polls = 0;
                    if let Some(limit) = config.die_holding_lease_after {
                        if report.shards >= limit {
                            // Crash with the lease checked out: the
                            // coordinator must reclaim it on expiry.
                            break 'outer Ok(());
                        }
                    }
                    let campaign = match &mut current {
                        Some((id, campaign)) if *id == job => campaign,
                        slot => {
                            // Drop the previous job's campaign first.
                            *slot = None;
                            // A warm job harvests injection-point facts
                            // so the upload can feed the coordinator's
                            // warm store.
                            let telemetry = Registry::with_enabled(spec.config.telemetry);
                            match spec.campaign(telemetry, spec.warm_store) {
                                Ok(c) => &mut slot.insert((job, c)).1,
                                Err(e) => break 'outer Err(ClientError::Server(e)),
                            }
                        }
                    };
                    let (results, stats) =
                        campaign.run_experiments_stats(spec.domain, &experiments);
                    // Only the facts this shard added: `export_memo`
                    // returns each fact once, so the uploads of one job
                    // do not grow with its shard count. Facts of a
                    // rejected upload are not re-sent — that costs the
                    // store warmth, never an outcome.
                    let memo = if spec.warm_store {
                        campaign.export_memo()
                    } else {
                        Vec::new()
                    };
                    let experiments_run = results.len() as u64;
                    match client.upload(id, lease, job, shard, results, stats, memo) {
                        Ok(outcome) => {
                            use crate::protocol::UploadOutcome;
                            match outcome {
                                UploadOutcome::Committed => {
                                    report.shards += 1;
                                    report.experiments += experiments_run;
                                }
                                UploadOutcome::Duplicate => report.duplicates += 1,
                                UploadOutcome::StaleLease => report.stale += 1,
                            }
                        }
                        Err(ClientError::Server(msg)) => {
                            break 'outer Err(ClientError::Server(msg));
                        }
                        Err(_) => {
                            // Transport died mid-upload; reconnect and
                            // re-register. The lease will expire and be
                            // re-queued — or our upload landed and a
                            // re-send would just be a duplicate.
                            report.reconnects += 1;
                            continue 'outer;
                        }
                    }
                }
                Ok(LeaseOffer::NoWork { draining }) => {
                    if draining {
                        break 'outer Ok(());
                    }
                    idle_polls += 1;
                    if let Some(max) = config.max_idle_polls {
                        if idle_polls >= max {
                            break 'outer Ok(());
                        }
                    }
                    thread::sleep(config.poll_interval);
                }
                Err(ClientError::Server(msg)) => {
                    break 'outer Err(ClientError::Server(msg));
                }
                Err(_) => {
                    report.reconnects += 1;
                    continue 'outer;
                }
            }
        }
    };

    // Dropping the sender stops the heartbeat at once, not at its next
    // beat.
    if let Some((stop, thread)) = heartbeat {
        drop(stop);
        thread.join().expect("the heartbeat thread panicked");
    }
    result.map(|()| report)
}

/// Heartbeats on a dedicated connection so lease renewal keeps flowing
/// while the main thread executes a long shard. Connection loss is
/// retried quietly — worst case the lease expires and the coordinator
/// re-queues the shard, which the upload path already tolerates. Between
/// beats the thread waits on the returned channel, so a message or a
/// disconnect ends it without waiting out the cadence.
fn spawn_heartbeat(
    addr: String,
    worker_id: Arc<AtomicU64>,
    cadence: Duration,
) -> (mpsc::Sender<()>, thread::JoinHandle<()>) {
    let (stop, stopped) = mpsc::channel();
    let thread = thread::spawn(move || {
        let mut client: Option<Client> = None;
        loop {
            let id = worker_id.load(Ordering::Relaxed);
            if id != 0 {
                if client.is_none() {
                    client = Client::connect(&addr).ok();
                }
                let beat = client.as_mut().and_then(|c| c.heartbeat(id).ok());
                match beat {
                    Some((draining, _known)) => {
                        if draining {
                            return;
                        }
                    }
                    None => client = None,
                }
            }
            if stopped.recv_timeout(cadence) != Err(RecvTimeoutError::Timeout) {
                return;
            }
        }
    });
    (stop, thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_stopped_heartbeat_exits_without_waiting_out_its_cadence() {
        // Worker id 0: the thread never dials, it only waits. The check
        // holds whenever the stop arrives; the pause only lets the thread
        // reach its wait first, where a sleeping loop would outlive the
        // stop by its whole cadence.
        let (stop, heartbeat) = spawn_heartbeat(
            "127.0.0.1:1".to_string(),
            Arc::new(AtomicU64::new(0)),
            Duration::from_secs(10),
        );
        thread::sleep(Duration::from_millis(50));
        let asked = Instant::now();
        drop(stop);
        heartbeat.join().unwrap();
        let waited = asked.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "the heartbeat outlived its stop by {waited:?}"
        );
    }
}
