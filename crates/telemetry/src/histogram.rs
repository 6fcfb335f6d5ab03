//! Log-linear bucket layout and the atomic histogram core.
//!
//! The layout is a fixed 256-bucket log-linear grid over all of `u64`:
//!
//! * values `0..16` land in their own exact bucket (indices `0..16`);
//! * a value `v >= 16` with magnitude `m = floor(log2 v)` lands in one
//!   of four equal-width sub-buckets of `[2^m, 2^(m+1))`, selected by
//!   the two bits below the leading one.
//!
//! Four sub-buckets per octave bound the relative bucket width at 25%
//! of the bucket's lower edge, which is plenty for latency and
//! run-length distributions, and the whole grid is
//! `16 + (63 - 4 + 1) * 4 = 256` buckets — 2 KiB of counters, cheap
//! enough to inline into every histogram.

use crate::snapshot::{Bucket, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Total number of buckets in the log-linear grid.
pub const BUCKETS: usize = 256;

/// Values below this threshold get an exact bucket each.
const EXACT: u64 = 16;

/// Maps a value to its bucket index. Total over `u64`.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value < EXACT {
        value as usize
    } else {
        let mag = 63 - u64::from(value.leading_zeros()); // 4..=63
        let sub = (value >> (mag - 2)) & 3;
        (EXACT + (mag - 4) * 4 + sub) as usize
    }
}

/// The smallest value mapped to `index`. Inverse of [`bucket_index`] on
/// bucket lower edges: `bucket_index(bucket_lo(i)) == i` for all `i`.
#[must_use]
pub fn bucket_lo(index: usize) -> u64 {
    let index = index as u64;
    if index < EXACT {
        index
    } else {
        let mag = (index - EXACT) / 4 + 4;
        let sub = (index - EXACT) % 4;
        (1u64 << mag) + sub * (1u64 << (mag - 2))
    }
}

/// The largest value mapped to `index`.
#[must_use]
pub fn bucket_hi(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lo(index + 1) - 1
    }
}

/// The shared atomic state behind a [`crate::Histogram`] handle.
///
/// All operations are relaxed atomics: recording never blocks, and
/// concurrent recorders only race benignly (bucket counts, count and
/// sum are each independently exact; `min`/`max` converge).
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.min.fetch_min(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// Adds pre-aggregated contents (bucket counts in grid order plus
    /// the scalar moments) — the flush path of
    /// [`crate::LocalHistogram`]. Exact because the caller owns the
    /// aggregate.
    pub(crate) fn absorb_parts(
        &self,
        buckets: impl Iterator<Item = u64>,
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) {
        for (mine, n) in self.buckets.iter().zip(buckets) {
            if n != 0 {
                mine.fetch_add(n, Relaxed);
            }
        }
        if count != 0 {
            self.count.fetch_add(count, Relaxed);
            self.sum.fetch_add(sum, Relaxed);
            self.min.fetch_min(min, Relaxed);
            self.max.fetch_max(max, Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Relaxed)
            },
            max: self.max.load(Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let count = b.load(Relaxed);
                    (count != 0).then(|| Bucket {
                        lo: bucket_lo(i),
                        hi: bucket_hi(i),
                        count,
                    })
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lo(v as usize), v);
            assert_eq!(bucket_hi(v as usize), v);
        }
    }

    #[test]
    fn lo_is_a_left_inverse_of_index() {
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i, "bucket {i}");
            assert_eq!(bucket_index(bucket_hi(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn grid_is_a_partition_of_u64() {
        // Adjacent buckets tile without gap or overlap, and the ends
        // pin to 0 and u64::MAX.
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_hi(BUCKETS - 1), u64::MAX);
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_hi(i) + 1, bucket_lo(i + 1), "seam at {i}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width never exceeds 25% of the bucket's lower edge
        // (for v >= 16; below that buckets are exact).
        for i in 16..BUCKETS - 1 {
            let lo = bucket_lo(i);
            let width = bucket_hi(i) - lo + 1;
            assert!(width * 4 <= lo, "bucket {i}: width {width} vs lo {lo}");
        }
    }

    #[test]
    fn index_total_on_extremes() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), BUCKETS - 4);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(19), 16);
        assert_eq!(bucket_index(20), 17);
    }

    #[test]
    fn record_and_snapshot() {
        let h = HistogramCore::new();
        for v in [0u64, 5, 5, 1_000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.sum, 1_010u64.wrapping_add(u64::MAX)); // sum wraps by design
        assert_eq!(s.buckets.iter().map(|b| b.count).sum::<u64>(), 5);
        // The value 5 landed twice in its exact bucket.
        assert!(s
            .buckets
            .iter()
            .any(|b| b.lo == 5 && b.hi == 5 && b.count == 2));
    }

    #[test]
    fn empty_snapshot_has_zero_min() {
        let s = HistogramCore::new().snapshot();
        assert_eq!((s.count, s.min, s.max), (0, 0, 0));
        assert!(s.buckets.is_empty());
    }
}
