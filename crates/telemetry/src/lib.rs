#![warn(missing_docs)]

//! Runtime observability for the sofi suite: a global-free [`Registry`]
//! of atomic [`Counter`]s, [`Gauge`]s and log-linear [`Histogram`]s,
//! plus lightweight [`Span`] timing for campaign phases.
//!
//! Not to be confused with `sofi-metrics`, which computes the *paper's*
//! result metrics (failure probabilities, fault coverage); this crate
//! measures the *harness itself* — faulted-run lengths,
//! checkpoint-restore distances, memo-probe latencies, journal fsync
//! times — while a campaign runs.
//!
//! # Design
//!
//! * **Global-free.** There is no process-wide singleton: every
//!   [`Registry`] is an explicit value, cloned (shared) along the
//!   ownership paths that need it. Registries kept apart combine through
//!   their [`Snapshot`]s — merging is associative and commutative, so
//!   how work was split does not affect totals.
//! * **Zero-cost when disabled.** A [`Registry::disabled`] registry
//!   hands out handles whose inner `Option<Arc<..>>` is `None`; every
//!   record call is a single never-taken branch, and span timing skips
//!   the `Instant::now()` clock read entirely — the same discipline as
//!   `NullObserver` in `sofi-machine`.
//! * **Lock-free on the hot path.** Handles are resolved by name once,
//!   up front (one mutex acquisition per handle); recording afterwards
//!   touches only relaxed atomics.
//! * **Log-linear histograms.** 256 buckets: values `0..16` are exact,
//!   larger values get four sub-buckets per power of two, bounding the
//!   relative bucket-width error at 25% over the full `u64` range (see
//!   [`histogram`]).
//!
//! # Examples
//!
//! ```
//! use sofi_telemetry::Registry;
//!
//! let reg = Registry::enabled();
//! let runs = reg.counter("executor.experiments");
//! let lens = reg.histogram("executor.faulted_run_cycles");
//! for len in [3u64, 900, 17] {
//!     runs.incr();
//!     lens.record(len);
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("executor.experiments"), 3);
//! assert_eq!(snap.histogram("executor.faulted_run_cycles").unwrap().count, 3);
//!
//! // The disabled registry accepts the same calls as no-ops.
//! let off = Registry::disabled();
//! off.counter("executor.experiments").incr();
//! assert!(off.snapshot().is_empty());
//! ```

pub mod histogram;
mod local;
pub mod names;
mod registry;
mod snapshot;
mod span;

pub use local::LocalHistogram;
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use snapshot::{Bucket, HistogramSnapshot, Snapshot};
pub use span::Span;
