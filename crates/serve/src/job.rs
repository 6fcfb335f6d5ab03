//! Job specs and the per-job state machine.

use crate::wire::{self, Codec, Reader, WireError, Writer};
use sofi_campaign::{
    Campaign, CampaignConfig, ExecutorStats, FaultDomain, TIMEOUT_FACTOR, TIMEOUT_SLACK,
};
use sofi_isa::assemble_text;
use sofi_machine::SERIAL_LIMIT;
use sofi_telemetry::Registry;
use std::fmt;

/// Everything needed to reconstruct and run a campaign, carried in the
/// Submit request and persisted verbatim in the journal's job-start
/// record (so a restarted daemon can rebuild the identical campaign).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Benchmark name (defaults to the source file stem).
    pub name: String,
    /// Assembly source text; the daemon assembles it server-side, so the
    /// client needs no local toolchain state.
    pub source: String,
    /// Which fault space to scan.
    pub domain: FaultDomain,
    /// How the campaign runs: its thread count (bounded by the host that
    /// runs it) and its telemetry flag. Nothing here changes an outcome.
    pub config: CampaignConfig,
    /// Consult (and feed) the daemon's persistent cross-campaign warm
    /// store for this job: memoized outcome facts recorded by earlier
    /// jobs over the same program and domain are preloaded
    /// into the campaign's memo before execution, and fresh facts are
    /// persisted when the job completes. On by default; `submit --cold`
    /// clears it for benchmarking. Ignored when the daemon runs without a
    /// store.
    pub warm_store: bool,
}

impl JobSpec {
    /// Builds the job's campaign as the daemon and its remote workers run
    /// it: assembles the source, captures the golden run into
    /// `telemetry`, and caps the spec's thread count at this host's
    /// available parallelism (threads never change an outcome, and a
    /// spec must not start a thread per shard). `harvest` marks a
    /// campaign that feeds a warm store
    /// ([`Campaign::set_memo_harvest`]).
    ///
    /// # Errors
    ///
    /// The job's failure detail: "assembly failed: …" or "golden run
    /// failed: …".
    pub fn campaign(&self, telemetry: Registry, harvest: bool) -> Result<Campaign, String> {
        let program =
            assemble_text(&self.name, &self.source).map_err(|e| format!("assembly failed: {e}"))?;
        let host = CampaignConfig::default().effective_threads();
        let config = CampaignConfig {
            threads: self.config.threads.min(host),
            ..self.config
        };
        let campaign = Campaign::with_config_telemetry(&program, config, telemetry)
            .map_err(|e| format!("golden run failed: {e}"))?;
        if harvest {
            campaign.set_memo_harvest();
        }
        Ok(campaign)
    }
}

/// Words 1–3 of the packed config, in wire order: the cycle budget's
/// factor and slack, and the serial limit. They decide outcomes, so they
/// are constants; they stay on the wire only so that v7 peers, journals
/// and stores keep their bytes, and a spec holding any other value is
/// refused at decode.
const FIXED_CONFIG_WORDS: [(&str, u64); 3] = [
    ("timeout factor", TIMEOUT_FACTOR),
    ("timeout slack", TIMEOUT_SLACK),
    ("serial limit", SERIAL_LIMIT as u64),
];

impl Codec for JobSpec {
    /// Name and source lengths, domain tag, five config words (threads,
    /// the three fixed words, telemetry), store flag.
    const MIN_BYTES: usize = 4 + 4 + 1 + 5 * 8 + 1;

    fn put(&self, w: &mut Writer) {
        w.str(&self.name);
        w.str(&self.source);
        wire::put_domain(w, self.domain);
        w.u64(self.config.threads as u64);
        for (_, word) in FIXED_CONFIG_WORDS {
            w.u64(word);
        }
        w.u64(u64::from(self.config.telemetry));
        w.bool(self.warm_store);
    }

    fn take(r: &mut Reader<'_>) -> Result<JobSpec, WireError> {
        let name = r.str()?;
        let source = r.str()?;
        let domain = wire::take_domain(r)?;
        let threads = r.u64()? as usize;
        for (what, fixed) in FIXED_CONFIG_WORDS {
            let offset = r.offset();
            let word = r.u64()?;
            if word != fixed {
                return Err(WireError {
                    message: format!("config word `{what}` is {word}, not the fixed {fixed}"),
                    offset,
                });
            }
        }
        let config = CampaignConfig {
            threads,
            telemetry: r.u64()? != 0,
            ..CampaignConfig::default()
        };
        Ok(JobSpec {
            name,
            source,
            domain,
            config,
            warm_store: r.bool()?,
        })
    }
}

/// The job lifecycle: `Queued → Running → Done | Failed | Cancelled`.
///
/// `Running` is additionally the state a crashed daemon finds jobs in
/// after journal replay (start record, no end record); recovery re-queues
/// the uncovered tail rather than inventing a new state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing experiment batches.
    Running,
    /// All experiments executed; the result is available.
    Done,
    /// The campaign could not run (assembly error, golden run failed).
    Failed,
    /// Cancelled by request before completion.
    Cancelled,
}

impl JobState {
    /// `true` once the job will make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// One tag byte on the wire and in journal end records.
    pub fn encode(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Cancelled => 4,
        }
    }

    /// Inverse of [`JobState::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on an unknown tag.
    pub fn decode(r: &mut Reader<'_>) -> Result<JobState, WireError> {
        match r.u8()? {
            0 => Ok(JobState::Queued),
            1 => Ok(JobState::Running),
            2 => Ok(JobState::Done),
            3 => Ok(JobState::Failed),
            4 => Ok(JobState::Cancelled),
            t => Err(r.err(format!("bad job-state tag {t}"))),
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        })
    }
}

/// A point-in-time public view of one job, as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Daemon-assigned job id.
    pub id: u64,
    /// Benchmark name from the spec.
    pub name: String,
    /// Fault domain from the spec.
    pub domain: FaultDomain,
    /// Current lifecycle state.
    pub state: JobState,
    /// Experiments with committed outcomes so far.
    pub done: u64,
    /// Total experiments in the job's plan (0 until the golden run and
    /// def/use analysis have completed).
    pub total: u64,
    /// Failure detail for [`JobState::Failed`] jobs, empty otherwise.
    pub error: String,
    /// Live executor statistics merged from every batch committed so
    /// far (all-zero until the first batch lands). Derived figures like
    /// [`ExecutorStats::early_termination_rate`] are ratios of these
    /// merged counters, so they stay meaningful mid-run.
    pub stats: ExecutorStats,
}

impl Codec for JobStatus {
    /// Id, name length, domain and state tags, done, total, error
    /// length, stats.
    const MIN_BYTES: usize = 8 + 4 + 1 + 1 + 8 + 8 + 4 + ExecutorStats::MIN_BYTES;

    fn put(&self, w: &mut Writer) {
        w.u64(self.id);
        w.str(&self.name);
        wire::put_domain(w, self.domain);
        w.u8(self.state.encode());
        w.u64(self.done);
        w.u64(self.total);
        w.str(&self.error);
        self.stats.put(w);
    }

    fn take(r: &mut Reader<'_>) -> Result<JobStatus, WireError> {
        Ok(JobStatus {
            id: r.u64()?,
            name: r.str()?,
            domain: wire::take_domain(r)?,
            state: JobState::decode(r)?,
            done: r.u64()?,
            total: r.u64()?,
            error: r.str()?,
            stats: ExecutorStats::take(r)?,
        })
    }
}

/// A point-in-time public view of one registered remote worker, as
/// reported by the coordinator's `Workers` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatus {
    /// Coordinator-assigned worker id (unique per registration; a worker
    /// that reconnects re-registers under a fresh id).
    pub id: u64,
    /// Self-reported worker name from the Register request.
    pub name: String,
    /// `true` while the worker's last heartbeat (or any other request)
    /// is younger than the lease timeout — a stale worker's leases are
    /// eligible for re-queueing.
    pub alive: bool,
    /// Leases currently held.
    pub leases_active: u32,
    /// Shards this worker uploaded that were committed.
    pub shards_committed: u64,
    /// Experiments inside those committed shards.
    pub experiments_committed: u64,
    /// Milliseconds since the worker was last heard from.
    pub last_seen_ms: u64,
}

impl Codec for WorkerStatus {
    /// Id, name length, alive flag, leases, shards, experiments, last
    /// seen.
    const MIN_BYTES: usize = 8 + 4 + 1 + 4 + 8 + 8 + 8;

    fn put(&self, w: &mut Writer) {
        w.u64(self.id);
        w.str(&self.name);
        w.bool(self.alive);
        w.u32(self.leases_active);
        w.u64(self.shards_committed);
        w.u64(self.experiments_committed);
        w.u64(self.last_seen_ms);
    }

    fn take(r: &mut Reader<'_>) -> Result<WorkerStatus, WireError> {
        Ok(WorkerStatus {
            id: r.u64()?,
            name: r.str()?,
            alive: r.bool()?,
            leases_active: r.u32()?,
            shards_committed: r.u64()?,
            experiments_committed: r.u64()?,
            last_seen_ms: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_status_round_trips() {
        let ws = WorkerStatus {
            id: 3,
            name: "w-3".into(),
            alive: true,
            leases_active: 2,
            shards_committed: 40,
            experiments_committed: 1280,
            last_seen_ms: 17,
        };
        let mut w = Writer::new();
        ws.put(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(WorkerStatus::take(&mut r).unwrap(), ws);
        r.expect_end().unwrap();
    }

    #[test]
    fn spec_round_trips() {
        let spec = JobSpec {
            name: "fib".into(),
            source: ".text\nnop\n".into(),
            domain: FaultDomain::RegisterFile,
            config: CampaignConfig {
                threads: 3,
                telemetry: true,
                ..CampaignConfig::default()
            },
            warm_store: false,
        };
        let mut w = Writer::new();
        spec.put(&mut w);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(JobSpec::take(&mut r).unwrap(), spec);
        r.expect_end().unwrap();
    }

    /// The block engine is an in-process hook the spec does not carry:
    /// a stepping config encodes to the default bytes, and a decoded
    /// spec runs the µop engine.
    #[test]
    fn a_decoded_spec_runs_the_uop_engine() {
        let encode = |spec: &JobSpec| {
            let mut w = Writer::new();
            spec.put(&mut w);
            w.finish()
        };
        let mut spec = JobSpec {
            name: "hi".into(),
            source: ".text\nnop\n".into(),
            domain: FaultDomain::Memory,
            config: CampaignConfig::default(),
            warm_store: true,
        };
        let default_bytes = encode(&spec);
        spec.config.machine.block_engine = false;
        let buf = encode(&spec);
        assert_eq!(buf, default_bytes);
        let decoded = JobSpec::take(&mut Reader::new(&buf)).unwrap();
        assert!(decoded.config.machine.block_engine);
    }

    #[test]
    fn state_round_trips_and_terminality() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            let buf = [s.encode()];
            assert_eq!(JobState::decode(&mut Reader::new(&buf)).unwrap(), s);
        }
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::decode(&mut Reader::new(&[9])).is_err());
    }

    #[test]
    fn status_round_trips() {
        let st = JobStatus {
            id: 42,
            name: "hi".into(),
            domain: FaultDomain::Memory,
            state: JobState::Running,
            done: 10,
            total: 16,
            error: String::new(),
            stats: ExecutorStats {
                workers: 2,
                experiments: 10,
                converged_early: 4,
                ..ExecutorStats::default()
            },
        };
        let mut w = Writer::new();
        st.put(&mut w);
        let buf = w.finish();
        assert_eq!(JobStatus::take(&mut Reader::new(&buf)).unwrap(), st);
    }
}
