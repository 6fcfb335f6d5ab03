//! Well-known metric names, shared by the executor, the daemon and the
//! exporters so snapshots from different layers merge onto the same
//! keys.
//!
//! The convention is `<layer>.<metric>[_<unit>]`; durations are always
//! nanoseconds (`_ns`), simulation distances are cycles.

/// Histogram: total cycles each faulted run actually simulated, from
/// injection to classification (convergence and memoization shorten
/// these).
pub const FAULTED_RUN_CYCLES: &str = "executor.faulted_run_cycles";

/// Histogram: cycles of pristine re-simulation needed to reach an
/// injection point after restoring from the nearest checkpoint.
pub const RESTORE_DISTANCE_CYCLES: &str = "executor.restore_distance_cycles";

/// Histogram: wall-clock latency of one memo-cache probe.
pub const MEMO_PROBE_NS: &str = "executor.memo_probe_ns";

/// Histogram: wall-clock latency of one faulted-run dispatch (injection
/// to classification), sampled — the per-experiment cost the block
/// engine targets.
pub const DISPATCH_NS: &str = "executor.faulted_dispatch_ns";

/// Histogram: wall-clock latency of one journal append, dominated by
/// the per-record fsync.
pub const JOURNAL_FSYNC_NS: &str = "serve.journal_fsync_ns";

/// Span histogram: golden-run capture (trace + access masks).
pub const SPAN_GOLDEN_RUN_NS: &str = "span.golden_run_ns";

/// Span histogram: def/use analysis and plan pruning, both domains.
pub const SPAN_DEFUSE_NS: &str = "span.defuse_pruning_ns";

/// Span histogram: one worker shard's experiment loop.
pub const SPAN_SHARD_NS: &str = "span.shard_exec_ns";

/// Span histogram: merging worker stats and registries after join.
pub const SPAN_MERGE_NS: &str = "span.merge_ns";

/// Counter: experiments executed (mirrors `ExecutorStats::experiments`).
pub const EXPERIMENTS: &str = "executor.experiments";

/// Counter: faulted runs classified early at a convergence checkpoint.
pub const CONVERGED_EARLY: &str = "executor.converged_early";

/// Counter: memo-cache hits.
pub const MEMO_HITS: &str = "executor.memo_hits";

/// Counter: memo-cache misses.
pub const MEMO_MISSES: &str = "executor.memo_misses";

/// Counter: worker shards that finished with memo probing still enabled
/// (the cost-model gate judged probing profitable, or the gate was off).
pub const GATE_SHARDS_ON: &str = "executor.gate_shards_on";

/// Counter: worker shards where the cost-model gate disabled memo
/// probing — a priori (program too short to ever pay for a probe) or
/// after sampling showed measured probe cost dominating observed
/// savings.
pub const GATE_SHARDS_OFF: &str = "executor.gate_shards_off";

/// Counter: memo hits served from entries preloaded out of the daemon's
/// persistent cross-campaign warm store (a subset of
/// [`MEMO_HITS`]).
pub const STORE_HITS: &str = "executor.store_hits";

/// Counter: fresh memo entries appended to the daemon's persistent warm
/// store after a job completed.
pub const STORE_APPENDS: &str = "serve.store_appends";

/// Counter: memo entries preloaded from the warm store into a job's
/// campaign cache before execution.
pub const STORE_PRELOADS: &str = "serve.store_preloads";

/// Histogram: wall-clock latency of one warm-store batch append
/// (checksummed record + fsync, like the job journal).
pub const STORE_APPEND_NS: &str = "serve.store_append_ns";

/// Counter: instructions retired through the pre-decoded µop engine
/// during faulted runs.
pub const BLOCK_CYCLES: &str = "executor.block_cycles";

/// Counter: instructions retired by cycle-exact single-stepping during
/// faulted runs (boundary cycles, or the block engine disabled).
pub const STEP_CYCLES: &str = "executor.step_cycles";

/// Counter: straight-line µop segments executed during faulted runs.
pub const BLOCKS_EXECUTED: &str = "executor.blocks_executed";

/// Counter: jobs submitted to the daemon (accepted only).
pub const JOBS_SUBMITTED: &str = "serve.jobs_submitted";

/// Counter: jobs that reached a terminal state.
pub const JOBS_FINISHED: &str = "serve.jobs_finished";

/// Counter: experiment batches committed to the journal.
pub const BATCHES_COMMITTED: &str = "serve.batches_committed";

/// Counter: experiments skipped on resume because the journal already
/// covered them.
pub const EXPERIMENTS_RECOVERED: &str = "serve.experiments_recovered";

/// Gauge: jobs currently queued (peak across shards when merged).
pub const QUEUE_DEPTH: &str = "serve.queue_depth";

/// Counter: remote workers registered with the coordinator (each
/// re-registration after a reconnect counts again).
pub const WORKERS_REGISTERED: &str = "serve.workers_registered";

/// Counter: worker heartbeats received (each renews every lease the
/// worker holds).
pub const HEARTBEATS: &str = "serve.heartbeats";

/// Counter: fault-list shard leases granted to remote workers.
pub const LEASES_GRANTED: &str = "serve.leases_granted";

/// Counter: leases that expired (no upload, no heartbeat within the
/// lease timeout) and were re-queued for another worker — the shard a
/// dead or partitioned worker lost.
pub const LEASES_REQUEUED: &str = "serve.leases_requeued";

/// Counter: remote shard uploads committed to the journal.
pub const SHARDS_UPLOADED: &str = "serve.shards_uploaded";

/// Counter: uploads for an already-committed shard, dropped by the
/// idempotent merge (a worker re-sent after a lease re-grant raced it).
pub const UPLOADS_DUPLICATE: &str = "serve.uploads_duplicate";

/// Counter: uploads rejected because the lease no longer matches (it
/// expired and the shard was re-leased or re-queued).
pub const UPLOADS_STALE: &str = "serve.uploads_stale";

/// Gauge: remote leases currently outstanding across all running jobs.
pub const LEASES_ACTIVE: &str = "serve.leases_active";
