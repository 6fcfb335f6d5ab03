//! `sofi-serve`: the campaign service daemon and distributed fabric.
//!
//! A std-only (no external dependencies) client/server layer over the
//! `sofi-campaign` executor:
//!
//! - [`wire`] — the one binary codec: a `put_*`/`take_*` pair per tag
//!   enum and a [`wire::Codec`] impl per record type, whose minimum
//!   size bounds every sequence of it. Frames, journal records and
//!   warm-store batches are all built from it.
//! - [`protocol`] — a versioned, length-prefixed, checksummed binary
//!   frame format ([`protocol::Message`]), read by one resumable
//!   [`protocol::FrameReader`] on both ends; decoding is total and never
//!   panics.
//! - [`job`] — job specs (name + assembly source + fault domain +
//!   packed [`sofi_campaign::CampaignConfig`]) and the
//!   `Queued → Running → Done | Failed | Cancelled` state machine.
//! - [`journal`] — an append-only, per-record-checksummed, fsync'd
//!   result journal; a killed daemon replays the valid prefix on
//!   restart and resumes interrupted campaigns from the uncovered tail
//!   of their fault lists. A journal that refuses an append stops the
//!   daemon the same way a kill does.
//! - [`coordinator`] — the bounded in-memory job queue, the shard/lease
//!   table for remote workers, and the local driver pool streaming
//!   fault-list shards through [`sofi_campaign::Campaign::run_shards`]
//!   and group-committing them to the journal.
//! - [`worker`] — the remote worker loop: register, poll for shard
//!   leases, execute, heartbeat, and stream partial results back.
//! - [`store`] — the persistent cross-campaign warm store
//!   ([`store::WarmStore`]): an append-only, checksummed file of
//!   memoized outcome facts keyed by program and fault domain,
//!   preloaded into later campaigns over the same context.
//! - [`server`] / [`client`] — the TCP/Unix-socket daemon
//!   ([`server::Server`]) and the CLI-facing client ([`client::Client`]).
//!
//! The merged result of a journaled (even interrupted-and-resumed,
//! even remotely-sharded) campaign is bit-identical to an in-process
//! [`sofi_campaign::Campaign`] run of the same spec: the daemon replays
//! committed batches, re-runs only the missing experiments, and
//! reassembles through the same [`sofi_campaign::Campaign::assemble_result`]
//! path (proven in `tests/serve_roundtrip.rs`, `tests/serve_recovery.rs`
//! and `tests/fabric_recovery.rs`).

pub mod client;
pub mod coordinator;
pub mod job;
pub mod journal;
pub mod protocol;
mod record_log;
pub mod server;
pub mod store;
pub mod wire;
pub mod worker;

pub use client::{Client, ClientError, ClientPool};
pub use coordinator::{CancelOutcome, Coordinator, LeaseOffer, ServeConfig, SubmitOutcome};
pub use job::{JobSpec, JobState, JobStatus, WorkerStatus};
pub use journal::{Journal, Record, RecoveredJob};
pub use protocol::{Message, ProtocolError, UploadOutcome};
pub use server::{Server, ShutdownHandle};
pub use store::{context_key, WarmStore};
pub use worker::{run_worker, WorkerConfig, WorkerReport};
