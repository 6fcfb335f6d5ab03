//! Unsynchronized write-behind buffering for hot recording loops.

use crate::histogram::{bucket_index, BUCKETS};
use crate::registry::Histogram;
use std::cell::Cell;

/// A single-threaded buffer in front of a shared [`Histogram`].
///
/// [`Histogram::record`] costs five relaxed atomic read-modify-writes;
/// fine for per-batch or per-span recording, too hot for a site hit
/// once per fault-injection experiment. A `LocalHistogram` accumulates
/// into plain [`Cell`]s (a handful of unsynchronized loads and stores)
/// and pushes the aggregate into its sink on [`LocalHistogram::flush`]
/// or drop — once per worker shard instead of once per observation.
///
/// Buffering is invisible in the totals: flushing adds the buffer
/// bucketwise, which is exact when the flusher has exclusive access to
/// the buffer (guaranteed here, `LocalHistogram` is `!Sync`).
#[derive(Debug)]
pub struct LocalHistogram {
    sink: Histogram,
    buckets: Box<[Cell<u64>; BUCKETS]>,
    count: Cell<u64>,
    sum: Cell<u64>,
    min: Cell<u64>,
    max: Cell<u64>,
}

impl LocalHistogram {
    /// Wraps `sink` in a local buffer. A disabled sink makes every
    /// record a single never-taken branch, same as the sink itself.
    #[must_use]
    pub fn new(sink: Histogram) -> LocalHistogram {
        LocalHistogram {
            sink,
            buckets: Box::new(std::array::from_fn(|_| Cell::new(0))),
            count: Cell::new(0),
            sum: Cell::new(0),
            min: Cell::new(u64::MAX),
            max: Cell::new(0),
        }
    }

    /// Whether recording does anything (forwards the sink's state).
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// Buffers one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if !self.sink.is_enabled() {
            return;
        }
        let bucket = &self.buckets[bucket_index(value)];
        bucket.set(bucket.get() + 1);
        self.count.set(self.count.get() + 1);
        self.sum.set(self.sum.get().wrapping_add(value));
        if value < self.min.get() {
            self.min.set(value);
        }
        if value > self.max.get() {
            self.max.set(value);
        }
    }

    /// Drains the buffer into the sink. Idempotent between records;
    /// also runs on drop, so an explicit call only matters when the
    /// sink is snapshotted while the buffer is still alive.
    pub fn flush(&self) {
        let Some(core) = self.sink.core() else {
            return;
        };
        if self.count.get() == 0 {
            return;
        }
        core.absorb_parts(
            self.buckets.iter().map(|b| b.replace(0)),
            self.count.replace(0),
            self.sum.replace(0),
            self.min.replace(u64::MAX),
            self.max.replace(0),
        );
    }
}

impl Drop for LocalHistogram {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn buffered_recording_matches_direct() {
        let direct = Registry::enabled();
        let buffered = Registry::enabled();
        let local = LocalHistogram::new(buffered.histogram("h"));
        for v in [0u64, 5, 5, 1_000, u64::MAX] {
            direct.histogram("h").record(v);
            local.record(v);
        }
        // Resolving the handle registered the name, but no observation
        // is visible in the sink until the buffer flushes.
        let before = buffered.snapshot();
        assert_eq!(before.histogram("h").map(|h| h.count), Some(0));
        local.flush();
        assert_eq!(direct.snapshot(), buffered.snapshot());
    }

    #[test]
    fn flush_is_idempotent_and_incremental() {
        let reg = Registry::enabled();
        let local = LocalHistogram::new(reg.histogram("h"));
        local.record(7);
        local.flush();
        local.flush(); // double flush adds nothing
        local.record(9);
        drop(local); // drop flushes the remainder
        let snap = reg.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!((h.count, h.min, h.max), (2, 7, 9));
    }

    #[test]
    fn disabled_sink_stays_inert() {
        let local = LocalHistogram::new(Registry::disabled().histogram("h"));
        assert!(!local.is_enabled());
        local.record(3);
        local.flush();
        assert_eq!(local.count.get(), 0, "disabled buffer must not fill");
    }
}
