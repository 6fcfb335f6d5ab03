//! The registry and its recording handles.

use crate::histogram::HistogramCore;
use crate::snapshot::Snapshot;
use crate::span::Span;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A named collection of counters, gauges and histograms.
///
/// Cloning a `Registry` shares the underlying state (both clones see
/// the same metrics); registries kept apart combine through their
/// [`Snapshot`]s ([`Snapshot::merge`]). The [`Registry::disabled`]
/// registry (also [`Default`]) hands out no-op handles — see the crate
/// docs for the zero-cost argument.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

impl Registry {
    /// A live registry.
    #[must_use]
    pub fn enabled() -> Registry {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A registry whose handles are all no-ops and whose snapshot is
    /// always empty.
    #[must_use]
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Builds an enabled or disabled registry from a flag.
    #[must_use]
    pub fn with_enabled(enabled: bool) -> Registry {
        if enabled {
            Registry::enabled()
        } else {
            Registry::disabled()
        }
    }

    /// Whether this registry records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) the counter `name`.
    /// Resolve once, outside hot loops: this takes a mutex; the handle
    /// afterwards is a relaxed atomic.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .counters
                    .lock()
                    .expect("telemetry lock")
                    .entry(name.to_owned())
                    .or_default(),
            )
        }))
    }

    /// Resolves (registering on first use) the gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .gauges
                    .lock()
                    .expect("telemetry lock")
                    .entry(name.to_owned())
                    .or_default(),
            )
        }))
    }

    /// Resolves (registering on first use) the histogram `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .histograms
                    .lock()
                    .expect("telemetry lock")
                    .entry(name.to_owned())
                    .or_insert_with(|| Arc::new(HistogramCore::new())),
            )
        }))
    }

    /// Starts a span recording elapsed nanoseconds into the histogram
    /// `name` when dropped (or [`Span::finish`]ed). On a disabled
    /// registry no clock is read.
    pub fn span(&self, name: &str) -> Span {
        if self.is_enabled() {
            Span::started(self.histogram(name), Instant::now())
        } else {
            Span::noop()
        }
    }

    /// The registry's current state as plain mergeable data. Disabled
    /// registries snapshot empty.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = self.inner.as_ref() else {
            return Snapshot::default();
        };
        Snapshot {
            counters: inner
                .counters
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(name, v)| (name.clone(), v.load(Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(name, v)| (name.clone(), v.load(Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A monotonically increasing counter handle. No-op when resolved from
/// a disabled registry.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(v) = &self.0 {
            v.fetch_add(n, Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A last-value gauge handle (merges as max across shards). No-op when
/// resolved from a disabled registry.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the current value.
    #[inline]
    pub fn set(&self, value: u64) {
        if let Some(v) = &self.0 {
            v.store(value, Relaxed);
        }
    }
}

/// A histogram handle. No-op when resolved from a disabled registry.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Whether recording does anything — gate clock reads and other
    /// observation *construction* costs on this, not just the record
    /// call.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The shared core, for the [`crate::LocalHistogram`] flush path.
    #[inline]
    pub(crate) fn core(&self) -> Option<&HistogramCore> {
        self.0.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_by_name() {
        let reg = Registry::enabled();
        reg.counter("c").add(2);
        reg.counter("c").incr();
        reg.gauge("g").set(7);
        reg.histogram("h").record(42);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 3);
        assert_eq!(snap.gauge("g"), 7);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn clones_share_forks_do_not() {
        let reg = Registry::enabled();
        let shared = reg.clone();
        shared.counter("c").incr();
        assert_eq!(reg.snapshot().counter("c"), 1);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        reg.counter("c").incr();
        reg.gauge("g").set(9);
        reg.histogram("h").record(1);
        reg.span("s").finish();
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let reg = Registry::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = reg.counter("c");
                let h = reg.histogram("h");
                scope.spawn(move || {
                    for v in 0..1_000u64 {
                        c.incr();
                        h.record(v);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 4_000);
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 4_000);
        assert_eq!((h.min, h.max), (0, 999));
    }

    #[test]
    fn span_records_elapsed_nanos() {
        let reg = Registry::enabled();
        {
            let _span = reg.span("phase");
            std::hint::black_box(());
        }
        reg.span("phase").finish();
        let h = reg.snapshot();
        assert_eq!(h.histogram("phase").unwrap().count, 2);
    }
}
