//! The distributed campaign coordinator: job queue, shard leases and
//! the local driver pool.
//!
//! Jobs move `Queued → Running → Done | Failed | Cancelled`. A fixed pool
//! of driver threads pops queued jobs, rebuilds the campaign from the job
//! spec (assemble → golden run → def/use plan), and splits the uncovered
//! fault-list tail into fixed-size *shards* ([`sofi_campaign::resume`]).
//! Each shard is then executed under a **lease**:
//!
//! * the local driver claims pending shards itself (worker 0) — every
//!   pending shard while no remote worker is live, otherwise one per
//!   campaign thread — and streams them through one
//!   [`sofi_campaign::Campaign::run_shards`] call, whose finished shards
//!   a committer thread journals in groups;
//! * registered remote workers poll [`Coordinator::request_lease`], get a
//!   shard's experiment list plus the full spec, execute it with their
//!   own campaign instance, and stream the outcomes back through
//!   [`Coordinator::upload`].
//!
//! Both paths converge on one idempotent commit of a group of shards (an
//! upload is a group of one): a shard commit is valid only while the job
//! is `Running`, the shard is still leased under the uploaded lease id,
//! and the uploaded experiment ids are exactly the shard's ids.
//! Committed outcomes are journaled — one `Batch` record per shard, one
//! fsync per group — *before* progress advances, so a crash at any point
//! loses at most shards not yet journaled, never a reported one. A
//! remote lease lives as long as its holder: once a worker has sent no
//! request of any kind for the lease timeout (dead or partitioned), its
//! uncommitted shards are re-queued — the worker loses only its
//! uncommitted work. Duplicate uploads after a re-grant are detected by
//! the shard's phase and acknowledged without a second commit, so
//! outcomes are never double-counted.
//!
//! Every journal append — a job's start, a commit group's `Batch`
//! records, a job's `End` — goes through one call, and every job ends
//! exactly once, through one function that journals its `End` record
//! before the job is seen to end: a client hears `Cancelled` only once
//! the cancel is journaled. When the journal refuses an append, the
//! daemon stops exactly as the `crash_after_commits` hook stops it:
//! nothing more is journaled, the drivers stop, and no result, cancel
//! or failure is published beyond what the journal holds, so a restart
//! replays the committed prefix as it does after a kill. Lease grants
//! are not journaled: recovery derives progress from `Batch` records
//! alone.
//!
//! On startup the coordinator replays the journal: jobs with a terminal
//! record are kept for status queries; jobs interrupted mid-campaign
//! (start record, no end record) are re-queued with their committed
//! results pre-loaded, and only the uncovered tail of the fault list is
//! re-dispatched. Because `assemble_result` sorts outcomes by experiment
//! id, the merged result is bit-identical to a single-process run no
//! matter how shards were interleaved across workers, crashes and
//! restarts.

use crate::job::{JobSpec, JobState, JobStatus, WorkerStatus};
use crate::journal::{self, Journal, Record};
use crate::protocol::UploadOutcome;
use crate::store::{self, WarmStore};
use sofi_campaign::{
    resume, Campaign, CampaignResult, ExecutorStats, ExperimentResult, FaultDomain, MemoRecord,
};
use sofi_space::Experiment;
use sofi_telemetry::{names, Registry, Snapshot};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent local campaign drivers (each job additionally
    /// parallelizes internally per its own `CampaignConfig::threads`).
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it get a Busy response.
    pub queue_capacity: usize,
    /// Experiments per journaled shard: the unit of commit (one `Batch`
    /// record each, so also the progress granularity) and of the work
    /// leased to remote workers. A crash loses only shards not yet
    /// journaled.
    pub batch_size: usize,
    /// Idle-client read timeout on daemon connections.
    pub idle_timeout: Duration,
    /// How long a remote worker may stay silent — no heartbeat, lease
    /// request or upload — before every shard it holds is re-queued for
    /// someone else. Any request from the worker keeps all its leases
    /// alive.
    pub lease_timeout: Duration,
    /// When `true`, local drivers execute shards themselves only while
    /// *no* live remote worker is registered — the daemon becomes a pure
    /// coordinator as soon as workers attach (scaling benchmarks, or
    /// boxes that should only schedule). The local fallback keeps jobs
    /// live if every worker dies.
    pub remote_only: bool,
    /// Test hook: simulate the daemon being killed after this many shard
    /// commits in this process (counted per shard, also inside a commit
    /// group) — drivers stop dead, no end records are written, the
    /// journal is left exactly as a real kill would leave it. `None` (the
    /// default) in production.
    pub crash_after_commits: Option<u64>,
    /// Path of the persistent cross-campaign warm store
    /// ([`crate::store::WarmStore`]); `None` (the default) disables the
    /// store entirely — jobs neither preload nor persist memo facts.
    pub warm_store: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            batch_size: 32,
            idle_timeout: Duration::from_secs(30),
            lease_timeout: Duration::from_secs(10),
            remote_only: false,
            crash_after_commits: None,
            warm_store: None,
        }
    }
}

/// Outcome of a submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued under the given job id.
    Accepted(u64),
    /// Queue full — backpressure.
    Busy {
        /// Jobs currently queued.
        queued: u32,
        /// The configured capacity.
        capacity: u32,
    },
    /// The daemon is draining and accepts no new jobs.
    ShuttingDown,
}

/// Outcome of a cancellation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job will not (further) execute.
    Cancelled,
    /// The job had already reached a terminal state.
    AlreadyTerminal(JobState),
    /// No such job id.
    Unknown,
    /// The daemon has stopped — a refused journal append or the crash
    /// hook — and cancels nothing.
    ShuttingDown,
}

/// A progress snapshot returned by [`Coordinator::wait_progress`].
#[derive(Debug, Clone)]
pub struct JobUpdate {
    /// Point-in-time status.
    pub status: JobStatus,
    /// The final result + stats, present once the job is `Done`.
    pub outcome: Option<(CampaignResult, ExecutorStats)>,
}

/// What [`Coordinator::request_lease`] hands a polling worker.
#[derive(Debug, Clone)]
pub enum LeaseOffer {
    /// A shard to execute: rebuild the campaign from `spec`, run exactly
    /// `experiments`, upload under `lease`. The lease lasts while the
    /// worker sends some request within every lease timeout.
    Grant {
        /// Lease id; quote it verbatim in the upload.
        lease: u64,
        /// Job id.
        job: u64,
        /// Shard index within the job's dispatch tail.
        shard: u32,
        /// The job spec (program source, domain, config).
        spec: JobSpec,
        /// The shard's experiments.
        experiments: Vec<Experiment>,
    },
    /// Nothing to lease right now.
    NoWork {
        /// `true` once the daemon drains — workers should exit rather
        /// than keep polling.
        draining: bool,
    },
}

/// One shard's lifecycle within a running job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardPhase {
    /// Waiting to be claimed (locally or by a remote lease).
    Pending,
    /// Claimed under a lease that lives as long as its holder: the local
    /// driver (worker 0) never expires, and a remote worker's leases go
    /// back to `Pending` once it has been silent for the lease timeout.
    Leased {
        /// Lease id the commit must quote.
        lease: u64,
        /// Holder (0 = local driver).
        worker: u64,
    },
    /// Outcomes journaled; duplicate uploads are acknowledged as such.
    Committed,
}

#[derive(Debug)]
struct Shard {
    experiments: Vec<Experiment>,
    phase: ShardPhase,
}

/// A registered remote worker.
#[derive(Debug)]
struct WorkerInfo {
    name: String,
    /// When the worker last sent any request.
    last_seen: Instant,
    shards_committed: u64,
    experiments_committed: u64,
}

impl WorkerInfo {
    /// The one liveness test: a worker heard from within `timeout` is
    /// live and keeps every lease it holds; a silent one loses them.
    fn alive(&self, timeout: Duration) -> bool {
        self.last_seen.elapsed() < timeout
    }
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    done: u64,
    total: u64,
    /// Committed outcomes: journal-replayed results plus this
    /// incarnation's shards, in commit order. They move into `result`
    /// when the job is `Done`.
    results: Vec<ExperimentResult>,
    /// The merged result of a `Done` job.
    result: Option<CampaignResult>,
    error: String,
    /// Executor counters merged from every shard committed so far —
    /// the live figures behind mid-run status queries, and the final
    /// ones once the job is `Done`. Shards merge via
    /// [`ExecutorStats::absorb`] (counters sum, `workers` peaks).
    stats: ExecutorStats,
    /// The dispatch tail, populated by the driver once the plan is
    /// known; empty before that and after the job ends.
    shards: Vec<Shard>,
    /// Per-job telemetry registry, always enabled: the campaign records
    /// its spans and histograms here regardless of the spec's
    /// `telemetry` flag, so `Stats` queries work for every job.
    telemetry: Registry,
}

impl JobEntry {
    fn new(spec: JobSpec, state: JobState, results: Vec<ExperimentResult>) -> JobEntry {
        JobEntry {
            spec,
            state,
            done: results.len() as u64,
            total: 0,
            results,
            result: None,
            error: String::new(),
            stats: ExecutorStats::default(),
            shards: Vec::new(),
            telemetry: Registry::enabled(),
        }
    }

    /// A `Done` job's result and final counters.
    fn outcome(&self) -> Option<(CampaignResult, ExecutorStats)> {
        Some((self.result.clone()?, self.stats))
    }

    fn status(&self, id: u64) -> JobStatus {
        JobStatus {
            id,
            name: self.spec.name.clone(),
            domain: self.spec.domain,
            state: self.state,
            done: self.done,
            total: self.total,
            error: self.error.clone(),
            stats: self.stats,
        }
    }
}

#[derive(Debug)]
struct CoordState {
    journal: Journal,
    jobs: BTreeMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    next_id: u64,
    workers: HashMap<u64, WorkerInfo>,
    next_worker: u64,
    /// Lease ids are seeded from the journal commit count at open
    /// (shifted high), so a restarted coordinator practically never
    /// re-issues a lease id an old incarnation's worker might still
    /// quote. (Even a collision is harmless: a commit must also match
    /// the shard's exact experiment-id set, and outcomes are
    /// deterministic.)
    next_lease: u64,
    draining: bool,
    /// Set by the crash hook or a refused journal append: every driver
    /// stops dead, nothing further is journaled or published.
    crashed: bool,
    batch_commits: u64,
}

impl CoordState {
    /// Notes a request from `worker`, which keeps every lease it holds
    /// alive. Returns `false` for an id this coordinator never
    /// registered: it restarted since, or `worker` is the local
    /// driver's 0.
    fn heard_from(&mut self, worker: u64) -> bool {
        match self.workers.get_mut(&worker) {
            Some(w) => {
                w.last_seen = Instant::now();
                true
            }
            None => false,
        }
    }

    /// The holder of each leased shard, one item per lease (0 = the local
    /// driver).
    fn lease_holders(&self) -> impl Iterator<Item = u64> + '_ {
        self.jobs
            .values()
            .flat_map(|j| &j.shards)
            .filter_map(|s| match s.phase {
                ShardPhase::Leased { worker, .. } => Some(worker),
                _ => None,
            })
    }
}

#[derive(Debug)]
struct Inner {
    config: ServeConfig,
    state: Mutex<CoordState>,
    /// Wakes drivers (queue push, shard commit, lease re-queue, drain,
    /// crash).
    work_cv: Condvar,
    /// Wakes status watchers (progress, state transitions).
    watch_cv: Condvar,
    /// Daemon-wide telemetry: job lifecycle counters, queue-depth gauge,
    /// lease/upload counters, journal fsync latencies. Per-job
    /// registries live in [`JobEntry`].
    telemetry: Registry,
    /// The persistent cross-campaign warm store, when configured. Its
    /// own lock (not the coordinator state's): store appends fsync, and
    /// stalling status queries behind a disk flush would be rude. Where
    /// both are held, the store lock is taken first.
    store: Option<Mutex<WarmStore>>,
}

impl Inner {
    /// Journals a group of records with one fsync — every journal append
    /// goes through here — timing the write+fsync into the
    /// `serve.journal_fsync_ns` histogram. Call with the state lock held
    /// (the journal lives inside it). Returns `true` once the group is
    /// committed. A journal that refuses the group stops the daemon as
    /// the crash hook does: nothing more is journaled, the drivers stop,
    /// and nothing is published beyond what the journal holds, so a
    /// restart replays the committed prefix as it does after a kill.
    fn append(&self, st: &mut CoordState, records: &[Record]) -> bool {
        if st.crashed {
            return false;
        }
        let span = self.telemetry.span(names::JOURNAL_FSYNC_NS);
        let committed = st.journal.append(records).is_ok();
        span.finish();
        if !committed {
            st.crashed = true;
            self.work_cv.notify_all();
            self.watch_cv.notify_all();
        }
        committed
    }

    /// Re-queues every shard leased to a worker that is no longer live:
    /// the shard returns to `Pending` and the (dead or partitioned)
    /// worker loses credit for it. Local driver claims (worker 0) never
    /// expire — the driver thread is alive by construction while it
    /// holds one.
    fn reclaim_expired(&self, st: &mut CoordState) {
        let CoordState { jobs, workers, .. } = st;
        let mut requeued = 0;
        let live = |w: &WorkerInfo| w.alive(self.config.lease_timeout);
        for shard in jobs.values_mut().flat_map(|j| &mut j.shards) {
            if let ShardPhase::Leased { worker, .. } = shard.phase {
                if worker != 0 && !workers.get(&worker).is_some_and(live) {
                    shard.phase = ShardPhase::Pending;
                    requeued += 1;
                }
            }
        }
        if requeued > 0 {
            self.telemetry.counter(names::LEASES_REQUEUED).add(requeued);
        }
    }
}

/// The campaign coordinator: owns the journal, the job table, the lease
/// table and the local driver pool. All methods take `&self`; clone the
/// [`Arc`] wrapper to share it with server connection threads.
#[derive(Debug)]
pub struct Coordinator {
    inner: Arc<Inner>,
    drivers: Mutex<Vec<JoinHandle<()>>>,
}

impl Coordinator {
    /// Opens the journal at `path`, recovers interrupted jobs, and
    /// starts the driver pool.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O failures.
    pub fn open(path: &Path, config: ServeConfig) -> io::Result<Coordinator> {
        let (journal, records) = Journal::open(path)?;
        let recovered = journal::recover(records);
        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut next_id = 1;
        for job in recovered {
            next_id = next_id.max(job.job + 1);
            let interrupted = job.end.is_none();
            let state = if interrupted {
                JobState::Queued
            } else {
                job.end.unwrap()
            };
            jobs.insert(job.job, JobEntry::new(job.spec, state, job.results));
            if interrupted {
                queue.push_back(job.job);
            }
        }
        let store = match &config.warm_store {
            Some(path) => Some(Mutex::new(WarmStore::open(path)?)),
            None => None,
        };
        let next_lease = (journal.commits() << 32) | 1;
        let inner = Arc::new(Inner {
            config: config.clone(),
            state: Mutex::new(CoordState {
                journal,
                jobs,
                queue,
                next_id,
                workers: HashMap::new(),
                next_worker: 1,
                next_lease,
                draining: false,
                crashed: false,
                batch_commits: 0,
            }),
            work_cv: Condvar::new(),
            watch_cv: Condvar::new(),
            telemetry: Registry::enabled(),
            store,
        });
        let drivers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || driver_loop(&inner))
            })
            .collect();
        Ok(Coordinator {
            inner,
            drivers: Mutex::new(drivers),
        })
    }

    /// The daemon configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// Submits a job: journals the start record and queues it, or
    /// reports backpressure / drain. A refused start record stops the
    /// daemon, and the job is refused as during a drain.
    pub fn submit(&self, spec: JobSpec) -> SubmitOutcome {
        let mut st = self.inner.state.lock().unwrap();
        if st.draining || st.crashed {
            return SubmitOutcome::ShuttingDown;
        }
        if st.queue.len() >= self.inner.config.queue_capacity {
            return SubmitOutcome::Busy {
                queued: st.queue.len() as u32,
                capacity: self.inner.config.queue_capacity as u32,
            };
        }
        let id = st.next_id;
        // Commit the start record first: a job the client saw accepted
        // survives a crash.
        let start = Record::JobStart {
            job: id,
            spec: spec.clone(),
        };
        if !self.inner.append(&mut st, &[start]) {
            return SubmitOutcome::ShuttingDown;
        }
        st.next_id += 1;
        st.jobs
            .insert(id, JobEntry::new(spec, JobState::Queued, Vec::new()));
        st.queue.push_back(id);
        self.inner.telemetry.counter(names::JOBS_SUBMITTED).incr();
        drop(st);
        self.inner.work_cv.notify_one();
        SubmitOutcome::Accepted(id)
    }

    /// Status of one job (`None` if unknown) or of every known job.
    pub fn status(&self, job: Option<u64>) -> Option<Vec<JobStatus>> {
        let st = self.inner.state.lock().unwrap();
        match job {
            Some(id) => st.jobs.get(&id).map(|j| vec![j.status(id)]),
            None => Some(st.jobs.iter().map(|(&id, j)| j.status(id)).collect()),
        }
    }

    /// Cancels a queued or running job: its `End` record is journaled
    /// before the answer, so a job answered `Cancelled` stays cancelled
    /// across a restart. A running job commits nothing further — the
    /// check runs per commit group — and its workers stop at their next
    /// shard boundary. A refused append answers `ShuttingDown`.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let st = self.inner.state.lock().unwrap();
        if st.crashed {
            return CancelOutcome::ShuttingDown;
        }
        let Some(job) = st.jobs.get(&id) else {
            return CancelOutcome::Unknown;
        };
        if job.state.is_terminal() {
            return CancelOutcome::AlreadyTerminal(job.state);
        }
        if !end_job(&self.inner, st, id, JobState::Cancelled, |_| {}) {
            return CancelOutcome::ShuttingDown;
        }
        // Wake a driver waiting on this job's remote leases, so it sees
        // the job ended at once.
        self.inner.work_cv.notify_all();
        CancelOutcome::Cancelled
    }

    /// The final result of a `Done` job, if it finished in this daemon
    /// incarnation.
    pub fn result(&self, id: u64) -> Option<(CampaignResult, ExecutorStats)> {
        self.inner.state.lock().unwrap().jobs.get(&id)?.outcome()
    }

    /// A point-in-time telemetry snapshot: one job's registry, or (for
    /// `None`) the daemon-wide registry merged with every job's.
    /// Returns `None` only for an unknown job id.
    pub fn telemetry_snapshot(&self, job: Option<u64>) -> Option<Snapshot> {
        let st = self.inner.state.lock().unwrap();
        match job {
            Some(id) => st.jobs.get(&id).map(|j| j.telemetry.snapshot()),
            None => {
                // The daemon gauges are read from the state here, the one
                // place the daemon registry is read.
                let telemetry = &self.inner.telemetry;
                telemetry
                    .gauge(names::QUEUE_DEPTH)
                    .set(st.queue.len() as u64);
                let remote = st.lease_holders().filter(|&worker| worker != 0).count();
                telemetry.gauge(names::LEASES_ACTIVE).set(remote as u64);
                let mut snap = telemetry.snapshot();
                for j in st.jobs.values() {
                    snap.merge(&j.telemetry.snapshot());
                }
                Some(snap)
            }
        }
    }

    /// Registers a remote worker under a fresh id and returns
    /// `(worker_id, lease_timeout_ms)`. A worker that reconnects simply
    /// re-registers; the stale registration ages out of the live set and
    /// its leases expire back to the queue.
    pub fn register(&self, name: &str) -> (u64, u64) {
        let mut st = self.inner.state.lock().unwrap();
        let id = st.next_worker;
        st.next_worker += 1;
        st.workers.insert(
            id,
            WorkerInfo {
                name: name.to_string(),
                last_seen: Instant::now(),
                shards_committed: 0,
                experiments_committed: 0,
            },
        );
        self.inner
            .telemetry
            .counter(names::WORKERS_REGISTERED)
            .incr();
        (id, self.inner.config.lease_timeout.as_millis() as u64)
    }

    /// Worker liveness ping, which like any other request from the
    /// worker keeps every lease it holds alive. Returns `(draining,
    /// known)`; a worker seeing `known == false` (coordinator restarted)
    /// must re-register before its uploads can be credited.
    pub fn heartbeat(&self, worker: u64) -> (bool, bool) {
        let mut st = self.inner.state.lock().unwrap();
        self.inner.telemetry.counter(names::HEARTBEATS).incr();
        let known = st.heard_from(worker);
        (st.draining, known)
    }

    /// Offers the polling worker a shard lease: the first `Pending`
    /// shard of the lowest-id `Running` job, after expired leases have
    /// been re-queued. Jobs already accepted keep being dispatched
    /// during a drain — `NoWork { draining: true }` is returned only
    /// when the drain has nothing left to lease, telling workers to
    /// exit instead of poll.
    pub fn request_lease(&self, worker: u64) -> LeaseOffer {
        let mut st = self.inner.state.lock().unwrap();
        if st.crashed {
            return LeaseOffer::NoWork { draining: true };
        }
        if !st.heard_from(worker) {
            // Unregistered (coordinator restarted): heartbeats report
            // `known == false`, prompting re-registration.
            return LeaseOffer::NoWork {
                draining: st.draining,
            };
        }
        self.inner.reclaim_expired(&mut st);
        let found = st.jobs.iter().find_map(|(&jid, job)| {
            let idx = job
                .shards
                .iter()
                .position(|s| s.phase == ShardPhase::Pending)?;
            Some((jid, idx))
        });
        let Some((jid, idx)) = found else {
            return LeaseOffer::NoWork {
                draining: st.draining,
            };
        };
        let lease = st.next_lease;
        st.next_lease += 1;
        let job = st.jobs.get_mut(&jid).expect("job exists");
        let shard = &mut job.shards[idx];
        shard.phase = ShardPhase::Leased { lease, worker };
        let (spec, experiments) = (job.spec.clone(), shard.experiments.clone());
        self.inner.telemetry.counter(names::LEASES_GRANTED).incr();
        LeaseOffer::Grant {
            lease,
            job: jid,
            shard: idx as u32,
            spec,
            experiments,
        }
    }

    /// Accepts a shard's streamed results from a remote worker and
    /// merges them through the idempotent commit path. `Committed` means
    /// the outcomes are journaled and counted exactly once; `Duplicate`
    /// acknowledges a shard someone (possibly this worker, retrying)
    /// already committed; `StaleLease` rejects uploads whose lease
    /// expired, was re-granted, or whose contents do not match the
    /// shard.
    #[allow(clippy::too_many_arguments)]
    pub fn upload(
        &self,
        worker: u64,
        lease: u64,
        job: u64,
        shard: u32,
        results: Vec<ExperimentResult>,
        stats: &ExecutorStats,
        memo: &[MemoRecord],
    ) -> UploadOutcome {
        let upload = ShardCommit {
            shard,
            lease,
            results,
            stats: *stats,
        };
        let outcome = commit_group(&self.inner, worker, job, vec![upload])[0];
        match outcome {
            UploadOutcome::Committed => {
                self.inner.telemetry.counter(names::SHARDS_UPLOADED).incr();
                if !memo.is_empty() {
                    self.persist_remote_memo(job, memo);
                }
            }
            UploadOutcome::Duplicate => {
                self.inner
                    .telemetry
                    .counter(names::UPLOADS_DUPLICATE)
                    .incr();
            }
            UploadOutcome::StaleLease => {
                self.inner.telemetry.counter(names::UPLOADS_STALE).incr();
            }
        }
        outcome
    }

    /// Feeds memo facts harvested by a remote worker into the warm
    /// store under the job's context, so the coordinator's store keeps
    /// answering future submissions bit-identically whether the facts
    /// came from local or remote execution. Best-effort.
    fn persist_remote_memo(&self, job: u64, memo: &[MemoRecord]) {
        let Some(store) = &self.inner.store else {
            return;
        };
        let ctx = {
            let st = self.inner.state.lock().unwrap();
            let Some(entry) = st.jobs.get(&job) else {
                return;
            };
            if !entry.spec.warm_store {
                return;
            }
            store::context_key(&entry.spec.source, entry.spec.domain)
        };
        let span = self.inner.telemetry.span(names::STORE_APPEND_NS);
        let appended = store.lock().unwrap().append(ctx, memo);
        span.finish();
        if let Ok(n) = appended {
            self.inner.telemetry.counter(names::STORE_APPENDS).add(n);
        }
    }

    /// Point-in-time view of every registered worker, sorted by id.
    pub fn workers(&self) -> Vec<WorkerStatus> {
        let st = self.inner.state.lock().unwrap();
        let mut out: Vec<WorkerStatus> = st
            .workers
            .iter()
            .map(|(&id, w)| WorkerStatus {
                id,
                name: w.name.clone(),
                alive: w.alive(self.inner.config.lease_timeout),
                leases_active: st.lease_holders().filter(|&holder| holder == id).count() as u32,
                shards_committed: w.shards_committed,
                experiments_committed: w.experiments_committed,
                last_seen_ms: w.last_seen.elapsed().as_millis() as u64,
            })
            .collect();
        out.sort_by_key(|w| w.id);
        out
    }

    /// Blocks until `job` progresses past `last_done` committed
    /// experiments or reaches a terminal state, then returns a snapshot.
    /// Returns `None` for unknown jobs and when the daemon crash hook
    /// has tripped (no further progress will happen).
    pub fn wait_progress(&self, job: u64, last_done: u64) -> Option<JobUpdate> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if st.crashed {
                return None;
            }
            let entry = st.jobs.get(&job)?;
            if entry.state.is_terminal() || entry.done != last_done {
                return Some(JobUpdate {
                    status: entry.status(job),
                    outcome: entry.outcome(),
                });
            }
            st = self.inner.watch_cv.wait(st).unwrap();
        }
    }

    /// Blocks until every known job is terminal (or the crash hook
    /// tripped). Test/drain helper.
    pub fn wait_idle(&self) {
        let mut st = self.inner.state.lock().unwrap();
        while !st.crashed && st.jobs.values().any(|j| !j.state.is_terminal()) {
            st = self.inner.watch_cv.wait(st).unwrap();
        }
    }

    /// `true` once the daemon has stopped: the
    /// [`ServeConfig::crash_after_commits`] hook fired or the journal
    /// refused an append.
    pub fn crashed(&self) -> bool {
        self.inner.state.lock().unwrap().crashed
    }

    /// Flips the drain flag: every later submission is refused with
    /// [`SubmitOutcome::ShuttingDown`]. The cheap non-blocking first
    /// half of [`Coordinator::drain`], called by the server *before* it
    /// acknowledges a `Shutdown` request — otherwise a client that saw
    /// the acknowledgement could race a submission in through the
    /// window before the accept loop reaches the full drain.
    pub fn begin_drain(&self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.draining = true;
        }
        self.inner.work_cv.notify_all();
    }

    /// Graceful drain: stop accepting submissions, let queued and
    /// running jobs finish, then join the driver pool.
    pub fn drain(&self) {
        self.begin_drain();
        let handles: Vec<_> = self.drivers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.inner.watch_cv.notify_all();
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.drain();
    }
}

fn driver_loop(inner: &Inner) {
    loop {
        let (id, spec, recovered_ids, job_tel) = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if st.crashed {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    let job = st.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    let spec = job.spec.clone();
                    let ids: HashSet<u32> = job.results.iter().map(|r| r.experiment.id).collect();
                    break (id, spec, ids, job.telemetry.clone());
                }
                if st.draining {
                    return;
                }
                st = inner.work_cv.wait(st).unwrap();
            }
        };
        inner.watch_cv.notify_all();
        run_job(inner, id, &spec, &recovered_ids, job_tel);
        inner.watch_cv.notify_all();
    }
}

/// Ends job `id` in the terminal `state` — the one way a job ends, and
/// it ends once: a job that has already ended (a cancel that landed
/// while its driver assembled, planned or merged it) journals nothing
/// more. The `End` record is journaled first; only once it commits does
/// the job leave the queue, take `state`, drop its shards, get what
/// `publish` adds (a `Done` job's result, a `Failed` job's message) and
/// count as finished. Releases the state lock and wakes status watchers.
/// Returns `false` when the job had already ended, and when the journal
/// refused the record: the daemon has stopped, nothing was published,
/// and a restart replays the job from what the journal holds.
fn end_job(
    inner: &Inner,
    mut st: MutexGuard<'_, CoordState>,
    id: u64,
    state: JobState,
    publish: impl FnOnce(&mut JobEntry),
) -> bool {
    if st.jobs.get(&id).is_none_or(|job| job.state.is_terminal()) {
        return false;
    }
    if !inner.append(&mut st, &[Record::End { job: id, state }]) {
        return false;
    }
    st.queue.retain(|&q| q != id);
    let job = st.jobs.get_mut(&id).expect("checked above");
    job.state = state;
    job.shards = Vec::new();
    publish(job);
    inner.telemetry.counter(names::JOBS_FINISHED).incr();
    drop(st);
    inner.watch_cv.notify_all();
    true
}

/// Ends `id` as `Failed` with `message`.
fn fail_job(inner: &Inner, id: u64, message: String) {
    let st = inner.state.lock().unwrap();
    end_job(inner, st, id, JobState::Failed, |job| job.error = message);
}

/// One executed shard on its way to the journal.
struct ShardCommit {
    /// Shard index within the job's dispatch tail.
    shard: u32,
    /// The lease the shard was executed under.
    lease: u64,
    /// The shard's outcomes.
    results: Vec<ExperimentResult>,
    /// The shard's executor counter delta.
    stats: ExecutorStats,
}

/// Checks one shard commit against the job and its lease table:
/// `Committed` means it may be journaled. A commit is valid only while
/// the job is `Running`, the shard is `Leased` under exactly the
/// commit's lease, and the experiment ids are exactly the shard's ids —
/// so a late upload against a re-granted lease, a replay against a
/// restarted coordinator, or a mangled result set can never corrupt the
/// merged result. An already-committed shard is a
/// `Duplicate`.
fn validate(st: &CoordState, job_id: u64, commit: &ShardCommit) -> UploadOutcome {
    let Some(job) = st.jobs.get(&job_id) else {
        return UploadOutcome::StaleLease;
    };
    if job.state != JobState::Running {
        return UploadOutcome::StaleLease;
    }
    let Some(shard) = job.shards.get(commit.shard as usize) else {
        return UploadOutcome::StaleLease;
    };
    match shard.phase {
        ShardPhase::Committed => return UploadOutcome::Duplicate,
        ShardPhase::Leased { lease: held, .. } if held == commit.lease => {}
        _ => return UploadOutcome::StaleLease,
    }
    // Contents must cover the shard exactly: same cardinality, same
    // experiment id set. Outcomes are deterministic, so any upload
    // passing this check carries the shard's true outcomes.
    if commit.results.len() != shard.experiments.len() {
        return UploadOutcome::StaleLease;
    }
    let want: HashSet<u32> = shard.experiments.iter().map(|e| e.id).collect();
    let got: HashSet<u32> = commit.results.iter().map(|r| r.experiment.id).collect();
    if want != got {
        return UploadOutcome::StaleLease;
    }
    UploadOutcome::Committed
}

/// The single idempotent commit path every executed shard goes through:
/// a group of the shards the local stream finished since the last group
/// (`from_worker == 0`), or one remote upload. Each shard is checked by
/// [`validate`]; the valid ones are journaled as one `Batch` record each
/// under one fsync, and only then marked committed and counted as
/// progress. A refused append rolls the whole group back and stops the
/// daemon (see [`Inner::append`]); the committed shards before it stay
/// intact for the restart. Returns each shard's outcome, in group order.
fn commit_group(
    inner: &Inner,
    from_worker: u64,
    job_id: u64,
    group: Vec<ShardCommit>,
) -> Vec<UploadOutcome> {
    let mut outcomes = vec![UploadOutcome::StaleLease; group.len()];
    let mut st = inner.state.lock().unwrap();
    if st.crashed {
        return outcomes;
    }
    // An upload, whatever its fate, is a request that keeps the worker's
    // leases alive.
    st.heard_from(from_worker);
    let mut accepted = Vec::with_capacity(group.len());
    let mut crash = false;
    for (outcome, commit) in outcomes.iter_mut().zip(group) {
        *outcome = validate(&st, job_id, &commit);
        if *outcome != UploadOutcome::Committed {
            continue;
        }
        // The crash hook models a kill between two shard commits: this
        // shard and the rest of its group are lost, exactly like a real
        // crash mid-shard, while the shards before it still commit.
        let commits = st.batch_commits + accepted.len() as u64;
        if inner
            .config
            .crash_after_commits
            .is_some_and(|limit| commits >= limit)
        {
            *outcome = UploadOutcome::StaleLease;
            crash = true;
            break;
        }
        accepted.push(commit);
    }
    if !accepted.is_empty() {
        let records: Vec<Record> = accepted
            .iter()
            .map(|c| Record::Batch {
                job: job_id,
                results: c.results.clone(),
            })
            .collect();
        if !inner.append(&mut st, &records) {
            return vec![UploadOutcome::StaleLease; outcomes.len()];
        }
        st.batch_commits += accepted.len() as u64;
        inner
            .telemetry
            .counter(names::BATCHES_COMMITTED)
            .add(accepted.len() as u64);
        let CoordState { jobs, workers, .. } = &mut *st;
        let job = jobs.get_mut(&job_id).expect("validated above");
        for commit in accepted {
            let n = commit.results.len() as u64;
            job.shards[commit.shard as usize].phase = ShardPhase::Committed;
            job.done += n;
            job.stats.absorb(&commit.stats);
            job.results.extend(commit.results);
            if let Some(w) = workers.get_mut(&from_worker) {
                w.shards_committed += 1;
                w.experiments_committed += n;
            }
        }
    }
    st.crashed |= crash;
    drop(st);
    inner.work_cv.notify_all();
    inner.watch_cv.notify_all();
    outcomes
}

/// Leases up to `limit` pending shards of job `id` to the local driver
/// (worker 0), returning each one's index, lease and experiments. Local
/// claims never expire: the driver thread is alive for as long as it
/// holds one.
fn claim_local(st: &mut CoordState, id: u64, limit: usize) -> Vec<(u32, u64, Vec<Experiment>)> {
    let CoordState {
        jobs, next_lease, ..
    } = st;
    let Some(job) = jobs.get_mut(&id) else {
        return Vec::new();
    };
    job.shards
        .iter_mut()
        .enumerate()
        .filter(|(_, shard)| shard.phase == ShardPhase::Pending)
        .take(limit)
        .map(|(idx, shard)| {
            let lease = *next_lease;
            *next_lease += 1;
            shard.phase = ShardPhase::Leased { lease, worker: 0 };
            (idx as u32, lease, shard.experiments.clone())
        })
        .collect()
}

/// Runs the locally claimed shards of job `id` as one stream
/// ([`Campaign::run_shards`]) and group-commits them. The campaign's
/// workers hand each finished shard over a channel and go on computing;
/// one committer thread journals every shard queued since its last
/// fsync as one group ([`commit_group`]). When a group does not commit
/// whole — cancel, crash hook, refused journal write — the workers stop at
/// their next shard boundary, and claims the stream never committed go
/// back to pending.
fn stream_local(
    inner: &Inner,
    campaign: &Campaign,
    id: u64,
    domain: FaultDomain,
    claimed: Vec<(u32, u64, Vec<Experiment>)>,
) {
    let (leases, shards): (Vec<(u32, u64)>, Vec<Vec<Experiment>>) = claimed
        .into_iter()
        .map(|(shard, lease, experiments)| ((shard, lease), experiments))
        .unzip();
    let stop = &AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<ShardCommit>();
    std::thread::scope(|scope| {
        let committer = scope.spawn(move || {
            while let Ok(first) = rx.recv() {
                let mut group = vec![first];
                group.extend(rx.try_iter());
                // After a stop, drain what the workers still send.
                if stop.load(Ordering::Relaxed) {
                    continue;
                }
                let outcomes = commit_group(inner, 0, id, group);
                if outcomes.iter().any(|&o| o != UploadOutcome::Committed) {
                    stop.store(true, Ordering::Relaxed);
                }
            }
        });
        campaign.run_shards(domain, &shards, |i, results, stats| {
            let (shard, lease) = leases[i];
            let _ = tx.send(ShardCommit {
                shard,
                lease,
                results,
                stats,
            });
            !stop.load(Ordering::Relaxed)
        });
        drop(tx);
        committer.join().expect("shard committer panicked");
    });
    let mut st = inner.state.lock().unwrap();
    if let Some(job) = st.jobs.get_mut(&id) {
        for &(idx, lease) in &leases {
            if let Some(shard) = job.shards.get_mut(idx as usize) {
                if matches!(shard.phase, ShardPhase::Leased { lease: held, .. } if held == lease) {
                    shard.phase = ShardPhase::Pending;
                }
            }
        }
    }
}

fn run_job(inner: &Inner, id: u64, spec: &JobSpec, recovered: &HashSet<u32>, job_tel: Registry) {
    // A job that uses the store both consumes and feeds it: its campaign
    // probes every experiment at its injection point (even where the
    // cost gate cuts probing) so each fact is harvested for future
    // submissions over this context.
    let warm = spec.warm_store && inner.store.is_some();
    let campaign = match spec.campaign(job_tel, warm) {
        Ok(c) => c,
        Err(e) => return fail_job(inner, id, e),
    };
    // Warm-store preload: facts persisted by earlier jobs over the same
    // context answer this job's memo probes without simulation.
    let ctx = store::context_key(&spec.source, spec.domain);
    if let Some(store) = inner.store.as_ref().filter(|_| warm) {
        let facts = store.lock().unwrap().lookup(ctx);
        if !facts.is_empty() {
            campaign.preload_memo(&facts);
            inner
                .telemetry
                .counter(names::STORE_PRELOADS)
                .add(facts.len() as u64);
        }
    }
    let plan = campaign.plan_for(spec.domain);
    let tail = resume::unfinished(&plan.experiments, recovered);
    inner
        .telemetry
        .counter(names::EXPERIMENTS_RECOVERED)
        .add(resume::recovered_count(&plan.experiments, recovered));
    {
        let mut st = inner.state.lock().unwrap();
        // A job cancelled while it was being prepared gets no shards.
        let Some(job) = st
            .jobs
            .get_mut(&id)
            .filter(|job| job.state == JobState::Running)
        else {
            return;
        };
        job.total = plan.experiments.len() as u64;
        job.done = recovered.len() as u64;
        job.shards = resume::shards(&tail, inner.config.batch_size)
            .into_iter()
            .map(|experiments| Shard {
                experiments,
                phase: ShardPhase::Pending,
            })
            .collect();
    }
    inner.watch_cv.notify_all();

    // The drive loop: claim pending shards for local execution (unless
    // remote workers should get them) and stream them, wait for remote
    // commits, re-queue expired leases, and finish when every shard has
    // committed.
    let tick = (inner.config.lease_timeout / 8)
        .clamp(Duration::from_millis(5), Duration::from_millis(500));
    let threads = campaign.config().effective_threads();
    loop {
        let claimed = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if st.crashed {
                    return;
                }
                inner.reclaim_expired(&mut st);
                let Some(job) = st.jobs.get(&id) else {
                    return;
                };
                if job.state.is_terminal() {
                    return;
                }
                if job.shards.iter().all(|s| s.phase == ShardPhase::Committed) {
                    break None;
                }
                // With no live remote worker the local pool streams every
                // pending shard. Otherwise it takes one shard per campaign
                // thread, so workers keep a share — or none at all in
                // remote-only mode, which falls back to local execution
                // only when no worker is registered or all have gone
                // quiet.
                let live = st
                    .workers
                    .values()
                    .any(|w| w.alive(inner.config.lease_timeout));
                if !live || !inner.config.remote_only {
                    let limit = if live { threads } else { usize::MAX };
                    let claimed = claim_local(&mut st, id, limit);
                    if !claimed.is_empty() {
                        break Some(claimed);
                    }
                }
                // Nothing to run locally: wait for an upload, a lease
                // expiry, or a cancellation.
                let (guard, _) = inner.work_cv.wait_timeout(st, tick).unwrap();
                st = guard;
            }
        };
        let Some(claimed) = claimed else {
            break;
        };
        stream_local(inner, &campaign, id, spec.domain, claimed);
    }

    // All shards committed: merge (replayed + fresh + uploaded) into the
    // canonical result — bit-identical to an uninterrupted in-process
    // run, because `assemble_result` orders by experiment id.
    //
    // A warm job takes the store lock before its result becomes visible
    // and holds it until its facts are appended, so a resubmission that
    // follows the result (its preload takes the same lock) always sees
    // them. Lock order: store, then state.
    let store = match &inner.store {
        Some(store) if warm => Some(store.lock().unwrap()),
        _ => None,
    };
    let mut st = inner.state.lock().unwrap();
    let Some(job) = st.jobs.get_mut(&id) else {
        return;
    };
    let results = std::mem::take(&mut job.results);
    let result = campaign.assemble_result(spec.domain, plan, results);
    if !end_job(inner, st, id, JobState::Done, |job| {
        job.result = Some(result);
    }) {
        return;
    }

    // Persist the injection-point facts this job's local runs
    // established, so later jobs over the same context start warm.
    // (Remote workers' facts arrive incrementally with their uploads.)
    // Best-effort and after the result is already visible: a store
    // write failure can only cost future speed, never this job's
    // outcome.
    if let Some(mut store) = store {
        let fresh = campaign.export_memo();
        if !fresh.is_empty() {
            let span = inner.telemetry.span(names::STORE_APPEND_NS);
            let appended = store.append(ctx, &fresh);
            span.finish();
            if let Ok(n) = appended {
                inner.telemetry.counter(names::STORE_APPENDS).add(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofi_campaign::{CampaignConfig, FaultDomain};
    use sofi_isa::assemble_text;
    use std::path::PathBuf;

    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sofi-coord-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{name}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    const HI: &str = "
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

    fn hi_spec() -> JobSpec {
        JobSpec {
            name: "hi".into(),
            source: HI.into(),
            domain: FaultDomain::Memory,
            config: CampaignConfig::sequential(),
            warm_store: true,
        }
    }

    /// The in-process result every daemon run of `hi` must match.
    fn hi_in_process() -> CampaignResult {
        let program = assemble_text("hi", HI).unwrap();
        let campaign = Campaign::with_config(&program, CampaignConfig::sequential()).unwrap();
        campaign.run_full_defuse_in(FaultDomain::Memory)
    }

    type Grant = (u64, u64, u32, JobSpec, Vec<Experiment>);

    /// Polls for a lease as a remote worker would, until one is granted.
    fn grant(coord: &Coordinator, worker: u64) -> Grant {
        loop {
            match coord.request_lease(worker) {
                LeaseOffer::Grant {
                    lease,
                    job,
                    shard,
                    spec,
                    experiments,
                } => return (lease, job, shard, spec, experiments),
                LeaseOffer::NoWork { .. } => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Executes a granted shard and uploads it, as a remote worker would.
    fn upload(coord: &Coordinator, worker: u64, grant: Grant) -> UploadOutcome {
        let (lease, job, shard, spec, experiments) = grant;
        let campaign = spec.campaign(Registry::disabled(), false).unwrap();
        let (results, stats) = campaign.run_experiments_stats(spec.domain, &experiments);
        coord.upload(worker, lease, job, shard, results, &stats, &[])
    }

    /// A remote-only daemon with one registered worker: the local pool
    /// leaves a submitted job's shards to the worker, so the job stays
    /// `Running` with pending shards while the worker is live.
    fn remote_only(path: &Path, lease_timeout: Duration) -> (Coordinator, u64, u64) {
        let coord = Coordinator::open(
            path,
            ServeConfig {
                workers: 1,
                batch_size: 1,
                remote_only: true,
                lease_timeout,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let (worker, _) = coord.register("remote");
        let SubmitOutcome::Accepted(id) = coord.submit(hi_spec()) else {
            panic!("fresh queue refused a job");
        };
        (coord, worker, id)
    }

    #[test]
    fn submit_runs_to_done_and_matches_in_process() {
        let path = temp_journal("done");
        let coord = Coordinator::open(&path, ServeConfig::default()).unwrap();
        let SubmitOutcome::Accepted(id) = coord.submit(hi_spec()) else {
            panic!("fresh queue refused a job");
        };
        coord.wait_idle();
        let status = coord.status(Some(id)).unwrap().remove(0);
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.done, status.total);
        let (result, stats) = coord.result(id).unwrap();

        let program = assemble_text("hi", HI).unwrap();
        let campaign = Campaign::with_config(&program, CampaignConfig::sequential()).unwrap();
        assert_eq!(result, campaign.run_full_defuse_in(FaultDomain::Memory));
        assert_eq!(stats.experiments, result.results.len() as u64);
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_source_fails_cleanly() {
        let path = temp_journal("fail");
        let coord = Coordinator::open(&path, ServeConfig::default()).unwrap();
        let SubmitOutcome::Accepted(id) = coord.submit(JobSpec {
            source: "frobnicate r1\n".into(),
            ..hi_spec()
        }) else {
            panic!("refused");
        };
        coord.wait_idle();
        let status = coord.status(Some(id)).unwrap().remove(0);
        assert_eq!(status.state, JobState::Failed);
        assert!(status.error.contains("assembly failed"), "{}", status.error);
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    /// A source declaring more RAM than the bound fails like any other bad
    /// source, and the daemon runs the next job.
    #[test]
    fn oversized_ram_fails_cleanly() {
        let path = temp_journal("huge-ram");
        let coord = Coordinator::open(&path, ServeConfig::default()).unwrap();
        let SubmitOutcome::Accepted(huge) = coord.submit(JobSpec {
            source: format!(".ram 0x40000000\n{HI}"),
            ..hi_spec()
        }) else {
            panic!("refused");
        };
        coord.wait_idle();
        let status = coord.status(Some(huge)).unwrap().remove(0);
        assert_eq!(status.state, JobState::Failed);
        assert!(status.error.contains("assembly failed"), "{}", status.error);
        let SubmitOutcome::Accepted(hi) = coord.submit(hi_spec()) else {
            panic!("refused");
        };
        coord.wait_idle();
        assert_eq!(coord.result(hi).unwrap().0, hi_in_process());
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn queue_backpressure_reports_busy() {
        let path = temp_journal("busy");
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut accepted = 0;
        let mut busy = 0;
        for _ in 0..32 {
            match coord.submit(hi_spec()) {
                SubmitOutcome::Accepted(_) => accepted += 1,
                SubmitOutcome::Busy { capacity, .. } => {
                    assert_eq!(capacity, 1);
                    busy += 1;
                }
                SubmitOutcome::ShuttingDown => panic!("not draining"),
            }
        }
        assert!(accepted >= 1);
        assert!(busy >= 1, "32 instant submissions never hit capacity 1");
        coord.wait_idle();
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cancel_queued_job() {
        let path = temp_journal("cancel");
        // Zero-driver pools are floored to one driver; use a pool busy
        // with an earlier job so the second stays queued.
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let SubmitOutcome::Accepted(_first) = coord.submit(hi_spec()) else {
            panic!("refused");
        };
        let SubmitOutcome::Accepted(second) = coord.submit(hi_spec()) else {
            panic!("refused");
        };
        // Cancel the second job; whether it was still queued or already
        // running, it must end terminal without error.
        assert!(matches!(
            coord.cancel(second),
            CancelOutcome::Cancelled | CancelOutcome::AlreadyTerminal(_)
        ));
        coord.wait_idle();
        let state = coord.status(Some(second)).unwrap().remove(0).state;
        assert!(
            state == JobState::Cancelled || state == JobState::Done,
            "cancelled job ended {state:?}"
        );
        assert_eq!(coord.cancel(9999), CancelOutcome::Unknown);
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    /// The refused-append oracle. For every k up to the number of appends
    /// a small job needs, the journal refuses its k-th append: the
    /// daemon must stop as a kill stops it, publishing nothing the
    /// journal does not hold, and a restart on a working journal must
    /// finish the job bit-identical to the in-process campaign, with
    /// every experiment journaled exactly once.
    #[test]
    fn a_refused_append_stops_the_daemon_like_a_kill() {
        let program = assemble_text("hi", HI).unwrap();
        let campaign = Campaign::with_config(&program, CampaignConfig::sequential()).unwrap();
        let expected = campaign.run_full_defuse_in(FaultDomain::Memory);
        let config = ServeConfig {
            workers: 1,
            batch_size: 1,
            ..ServeConfig::default()
        };
        for k in 1.. {
            assert!(k < 64, "a one-shard-per-experiment job of `hi` ran away");
            let path = temp_journal(&format!("refuse-{k}"));
            let coord = Coordinator::open(&path, config.clone()).unwrap();
            coord.inner.state.lock().unwrap().journal.refuse_after = Some(k - 1);
            let submitted = coord.submit(hi_spec());
            coord.wait_idle();
            if !coord.crashed() {
                // The job needed fewer than k appends: every one was refused once.
                assert!(k > 3, "start, batch and end are at least three appends");
                drop(coord);
                std::fs::remove_file(&path).unwrap();
                break;
            }
            let before = match submitted {
                SubmitOutcome::Accepted(id) => {
                    assert_eq!(coord.cancel(id), CancelOutcome::ShuttingDown, "k={k}");
                    let state = coord.status(Some(id)).unwrap()[0].state;
                    Some((id, state, coord.result(id)))
                }
                _ => None,
            };
            drop(coord);
            let (_, records) = Journal::open(&path).unwrap();
            let done = records.iter().any(|r| {
                matches!(
                    r,
                    Record::End {
                        state: JobState::Done,
                        ..
                    }
                )
            });
            if let Some((id, state, result)) = &before {
                assert_eq!(result.is_some(), done, "k={k}: job {id} result");
                assert_eq!(state.is_terminal(), done, "k={k}: job {id} ended {state}");
            }

            let coord = Coordinator::open(&path, config.clone()).unwrap();
            let id = match before {
                Some((id, ..)) => id,
                None => match coord.submit(hi_spec()) {
                    SubmitOutcome::Accepted(id) => id,
                    other => panic!("k={k}: a working journal refused a job: {other:?}"),
                },
            };
            coord.wait_idle();
            let (result, _) = coord.result(id).expect("the restart finishes the job");
            assert_eq!(result, expected, "k={k}: restarted result drifted");
            drop(coord);
            let (_, records) = Journal::open(&path).unwrap();
            let mut ids: Vec<u32> = records
                .iter()
                .filter_map(|r| match r {
                    Record::Batch { job, results } if *job == id => Some(results),
                    _ => None,
                })
                .flatten()
                .map(|r| r.experiment.id)
                .collect();
            ids.sort_unstable();
            let want: Vec<u32> = expected.results.iter().map(|r| r.experiment.id).collect();
            assert_eq!(ids, want, "k={k}: every experiment exactly once");
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A cancel is journaled before it answers. With the journal refusing
    /// its next append, a cancel of a running job either answers
    /// `Cancelled`, and the job stays cancelled across a restart without
    /// ever running, or answers `ShuttingDown`, and the restart finishes
    /// the job bit-identical to the in-process campaign.
    #[test]
    fn a_cancel_is_journaled_before_it_answers() {
        let path = temp_journal("cancel-durable");
        let (coord, _, id) = remote_only(&path, Duration::from_secs(10));
        while coord.status(Some(id)).unwrap()[0].total == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        coord.inner.state.lock().unwrap().journal.refuse_after = Some(0);
        let answer = coord.cancel(id);
        drop(coord);

        let coord = Coordinator::open(&path, ServeConfig::default()).unwrap();
        coord.wait_idle();
        let status = coord.status(Some(id)).unwrap().remove(0);
        match answer {
            CancelOutcome::Cancelled => {
                assert_eq!(status.state, JobState::Cancelled, "answered Cancelled");
                assert_eq!(status.done, 0, "a cancelled job ran");
            }
            CancelOutcome::ShuttingDown => {
                let (result, _) = coord.result(id).expect("the restart finishes the job");
                assert_eq!(result, hi_in_process());
            }
            other => panic!("cancel of a running job answered {other:?}"),
        }
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    /// A cancel drops its job's leases: neither the worker that held one
    /// nor the `LEASES_ACTIVE` gauge counts it, before or after the
    /// worker's late upload bounces.
    #[test]
    fn a_cancel_releases_the_workers_leases() {
        let path = temp_journal("cancel-leases");
        let (coord, worker, id) = remote_only(&path, Duration::from_secs(10));
        let held = grant(&coord, worker);
        let leases = |coord: &Coordinator| {
            let gauge = coord.telemetry_snapshot(None).unwrap();
            (
                coord.workers()[0].leases_active,
                gauge.gauge(names::LEASES_ACTIVE),
            )
        };
        assert_eq!(leases(&coord), (1, 1));
        assert_eq!(coord.cancel(id), CancelOutcome::Cancelled);
        assert_eq!(leases(&coord), (0, 0), "after the cancel");
        assert_eq!(upload(&coord, worker, held), UploadOutcome::StaleLease);
        assert_eq!(leases(&coord), (0, 0), "after the late upload");
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    /// Every job ends once: ending a job that has already ended journals
    /// nothing.
    #[test]
    fn a_job_ends_once() {
        let path = temp_journal("end-once");
        let (coord, _, id) = remote_only(&path, Duration::from_secs(10));
        let end = |state| {
            let st = coord.inner.state.lock().unwrap();
            end_job(&coord.inner, st, id, state, |_| {})
        };
        let answers = [
            end(JobState::Cancelled),
            end(JobState::Done),
            end(JobState::Failed),
        ];
        coord.wait_idle();
        let state = coord.status(Some(id)).unwrap()[0].state;
        drop(coord);
        let (_, records) = Journal::open(&path).unwrap();
        let ends: Vec<JobState> = records
            .iter()
            .filter_map(|r| match r {
                Record::End { job, state } if *job == id => Some(*state),
                _ => None,
            })
            .collect();
        assert_eq!(ends, [JobState::Cancelled], "one End per job");
        assert_eq!(answers, [true, false, false]);
        assert_eq!(state, JobState::Cancelled);
        std::fs::remove_file(&path).unwrap();
    }

    /// A lease lives as long as its holder: a worker that never
    /// heartbeats, but asks for work or uploads within every lease
    /// timeout, keeps its first lease for two timeouts and more.
    #[test]
    fn any_request_keeps_a_workers_leases() {
        let path = temp_journal("lease-rule");
        let timeout = Duration::from_millis(400);
        let (coord, worker, id) = remote_only(&path, timeout);
        let mut held = vec![grant(&coord, worker)];
        let first = Instant::now();
        while first.elapsed() < 2 * timeout {
            std::thread::sleep(timeout / 4);
            // Alternate: upload the newest lease after the first, else
            // ask for another.
            if held.len() > 1 {
                let newest = held.pop().unwrap();
                assert_eq!(upload(&coord, worker, newest), UploadOutcome::Committed);
            } else if let LeaseOffer::Grant {
                lease,
                job,
                shard,
                spec,
                experiments,
            } = coord.request_lease(worker)
            {
                held.push((lease, job, shard, spec, experiments));
            }
            assert_eq!(coord.workers()[0].leases_active, held.len() as u32);
        }
        for lease in held {
            assert_eq!(
                upload(&coord, worker, lease),
                UploadOutcome::Committed,
                "a lease expired although its holder kept sending requests"
            );
        }
        // The worker falls silent; the local fallback finishes the job.
        coord.wait_idle();
        assert_eq!(coord.result(id).unwrap().0, hi_in_process());
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drain_refuses_new_work() {
        let path = temp_journal("drain");
        let coord = Coordinator::open(&path, ServeConfig::default()).unwrap();
        coord.drain();
        assert_eq!(coord.submit(hi_spec()), SubmitOutcome::ShuttingDown);
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    /// The worker RPC surface, exercised directly against the
    /// coordinator: register → lease → upload commits exactly once; a
    /// second upload of the same shard is a duplicate; a bogus lease is
    /// stale.
    #[test]
    fn lease_upload_commits_once_and_deduplicates() {
        let path = temp_journal("lease-rpc");
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                workers: 1,
                batch_size: 4,
                remote_only: true,
                lease_timeout: Duration::from_secs(5),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let (worker, lease_ms) = coord.register("test-worker");
        assert!(worker > 0);
        assert_eq!(lease_ms, 5000);
        let SubmitOutcome::Accepted(id) = coord.submit(hi_spec()) else {
            panic!("refused");
        };
        // Poll until the driver has populated the shard table.
        let (lease, job, shard, spec, experiments) = loop {
            match coord.request_lease(worker) {
                LeaseOffer::Grant {
                    lease,
                    job,
                    shard,
                    spec,
                    experiments,
                } => break (lease, job, shard, spec, experiments),
                LeaseOffer::NoWork { draining } => {
                    assert!(!draining);
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        assert_eq!(job, id);
        assert!(!experiments.is_empty());

        // Execute the shard exactly as a remote worker would.
        let campaign = spec.campaign(Registry::disabled(), false).unwrap();
        let (results, stats) = campaign.run_experiments_stats(spec.domain, &experiments);

        assert_eq!(
            coord.upload(worker, lease, job, shard, results.clone(), &stats, &[]),
            UploadOutcome::Committed
        );
        // Retrying the identical upload must acknowledge, not recommit.
        assert_eq!(
            coord.upload(worker, lease, job, shard, results.clone(), &stats, &[]),
            UploadOutcome::Duplicate
        );
        // A made-up lease id against a pending/other shard is stale.
        assert_eq!(
            coord.upload(worker, 0xDEAD_BEEF, job, shard + 1, results, &stats, &[]),
            UploadOutcome::StaleLease
        );
        let ws = coord.workers();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].shards_committed, 1);
        assert_eq!(ws[0].experiments_committed, experiments.len() as u64);

        // Keep servicing leases ourselves until the job completes, then
        // check the merged result is bit-identical to in-process.
        loop {
            match coord.request_lease(worker) {
                LeaseOffer::Grant {
                    lease,
                    job,
                    shard,
                    spec,
                    experiments,
                } => {
                    let campaign = spec.campaign(Registry::disabled(), false).unwrap();
                    let (results, stats) =
                        campaign.run_experiments_stats(spec.domain, &experiments);
                    assert_eq!(
                        coord.upload(worker, lease, job, shard, results, &stats, &[]),
                        UploadOutcome::Committed
                    );
                }
                LeaseOffer::NoWork { .. } => {
                    if coord
                        .status(Some(id))
                        .unwrap()
                        .remove(0)
                        .state
                        .is_terminal()
                    {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        let (result, _) = coord.result(id).unwrap();
        let program = assemble_text("hi", HI).unwrap();
        let campaign = Campaign::with_config(&program, CampaignConfig::sequential()).unwrap();
        assert_eq!(
            result,
            campaign.run_full_defuse_in(FaultDomain::Memory),
            "remote-shard result drifted"
        );
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    /// An expired lease is re-queued and the late upload bounces as
    /// stale (or duplicate, if the re-run already committed); either
    /// way the shard commits exactly once.
    #[test]
    fn expired_lease_requeues_and_rejects_late_upload() {
        let path = temp_journal("lease-expiry");
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                workers: 1,
                batch_size: 4,
                remote_only: true,
                lease_timeout: Duration::from_millis(80),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let (worker, _) = coord.register("flaky");
        let SubmitOutcome::Accepted(id) = coord.submit(hi_spec()) else {
            panic!("refused");
        };
        let (lease, job, shard, spec, experiments) = loop {
            match coord.request_lease(worker) {
                LeaseOffer::Grant {
                    lease,
                    job,
                    shard,
                    spec,
                    experiments,
                } => break (lease, job, shard, spec, experiments),
                LeaseOffer::NoWork { .. } => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        // Sit on the lease past the lease timeout without a request. The
        // local driver (fallback: the worker has gone quiet) reclaims
        // and eventually finishes the job.
        std::thread::sleep(Duration::from_millis(200));
        let campaign = spec.campaign(Registry::disabled(), false).unwrap();
        let (results, stats) = campaign.run_experiments_stats(spec.domain, &experiments);
        let late = coord.upload(worker, lease, job, shard, results, &stats, &[]);
        assert!(
            late == UploadOutcome::StaleLease || late == UploadOutcome::Duplicate,
            "late upload after expiry must not double-commit: {late:?}"
        );
        coord.wait_idle();
        let (result, _) = coord.result(id).unwrap();
        let campaign = Campaign::with_config(
            &assemble_text("hi", HI).unwrap(),
            CampaignConfig::sequential(),
        )
        .unwrap();
        assert_eq!(result, campaign.run_full_defuse_in(FaultDomain::Memory));
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    /// A spec's thread count is capped at the host's parallelism: a job
    /// asking for a million threads streams its shards on at most
    /// `available_parallelism()` workers, with the in-process result.
    #[test]
    fn a_jobs_threads_are_bounded_by_the_host() {
        let path = temp_journal("threads");
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                batch_size: 8,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let program = sofi_workloads::strrev();
        let spec = JobSpec {
            name: program.name.clone(),
            source: program.to_source(),
            domain: FaultDomain::InstrSkip,
            config: CampaignConfig {
                threads: 1_000_000,
                ..CampaignConfig::default()
            },
            warm_store: false,
        };
        let expected = Campaign::with_config(
            &assemble_text(&spec.name, &spec.source).unwrap(),
            CampaignConfig::default(),
        )
        .unwrap()
        .run_full_defuse_in(FaultDomain::InstrSkip);
        assert!(expected.results.len() > 8, "the job must span shards");
        let SubmitOutcome::Accepted(id) = coord.submit(spec) else {
            panic!("refused");
        };
        coord.wait_idle();
        let (result, stats) = coord.result(id).unwrap();
        assert_eq!(result, expected);
        let host = CampaignConfig::default().effective_threads();
        assert!(
            stats.workers <= host,
            "{} workers on a host of {host}",
            stats.workers
        );
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }

    /// Threads and telemetry stay out of the warm store's context: a
    /// resubmission that changes both is answered from the store.
    #[test]
    fn threads_and_telemetry_share_a_warm_context() {
        let path = temp_journal("warm-knobs");
        let store = path.with_extension("store");
        let _ = std::fs::remove_file(&store);
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                warm_store: Some(store.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let run = |config| {
            let SubmitOutcome::Accepted(id) = coord.submit(JobSpec {
                config,
                ..hi_spec()
            }) else {
                panic!("refused");
            };
            coord.wait_idle();
            coord.result(id).unwrap()
        };
        let (cold, _) = run(CampaignConfig::sequential());
        let (warm, stats) = run(CampaignConfig {
            threads: 2,
            telemetry: true,
            ..CampaignConfig::default()
        });
        assert_eq!(warm, cold);
        assert!(stats.store_hits > 0, "{stats:?}");
        assert_eq!(stats.memo_misses, 0, "{stats:?}");
        drop(coord);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&store).unwrap();
    }

    /// Heartbeats keep a slow worker's lease alive; unknown worker ids
    /// are reported as such.
    #[test]
    fn heartbeat_renews_and_reports_unknown() {
        let path = temp_journal("heartbeat");
        let coord = Coordinator::open(
            &path,
            ServeConfig {
                workers: 1,
                batch_size: 1024,
                remote_only: true,
                lease_timeout: Duration::from_millis(120),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(coord.heartbeat(777), (false, false), "unknown worker");
        let (worker, _) = coord.register("slowpoke");
        let SubmitOutcome::Accepted(id) = coord.submit(hi_spec()) else {
            panic!("refused");
        };
        let (lease, job, shard, spec, experiments) = loop {
            match coord.request_lease(worker) {
                LeaseOffer::Grant {
                    lease,
                    job,
                    shard,
                    spec,
                    experiments,
                } => break (lease, job, shard, spec, experiments),
                LeaseOffer::NoWork { .. } => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        // Outlive several lease timeouts, heartbeating the whole way.
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(60));
            let (draining, known) = coord.heartbeat(worker);
            assert!(known);
            assert!(!draining);
        }
        let campaign = spec.campaign(Registry::disabled(), false).unwrap();
        let (results, stats) = campaign.run_experiments_stats(spec.domain, &experiments);
        assert_eq!(
            coord.upload(worker, lease, job, shard, results, &stats, &[]),
            UploadOutcome::Committed,
            "heartbeats must have kept the lease alive"
        );
        coord.wait_idle();
        assert_eq!(
            coord.status(Some(id)).unwrap().remove(0).state,
            JobState::Done
        );
        drop(coord);
        std::fs::remove_file(&path).unwrap();
    }
}
