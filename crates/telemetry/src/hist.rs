//! Log-bucketed latency histograms with fixed, deterministic bucket
//! boundaries.
//!
//! The design is HDR-histogram-like: each power-of-two octave of the
//! value range is split into [`SUB_BUCKETS`] linear sub-buckets, so the
//! relative bucket width is at most 1/16 (6.25%) everywhere. Bucket
//! boundaries are *fixed constants of the type* — they do not depend on
//! the recorded data — which makes merging two histograms an exact
//! elementwise count addition, so per-replica phase histograms pool
//! into fleet ones without the raw spans.
//!
//! Bucket indexing uses only f64 bit manipulation (exponent plus the
//! top four mantissa bits): no `log`, no libm, bit-identical on every
//! platform.
//!
//! Percentiles use the same ceil nearest-rank convention as
//! `LatencyStats::from_samples` in `ador-serving`, and return the
//! *upper edge* of the selected bucket (clamped to the recorded
//! maximum): the reported value is never below the exact percentile and
//! at most 6.25% above it.

use ador_units::conv::{f64_from_u64, f64_from_usize, u64_from_f64};
use ador_units::Seconds;
use serde::Serialize;

/// Linear sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 16;

/// Smallest distinguished octave: values below 2^-20 s (≈ 0.95 µs) land
/// in the first bucket. Sub-microsecond latencies are below the
/// resolution of the performance model.
const OCTAVE_FLOOR: f64 = 9.536_743_164_062_5e-7; // 2^-20, exact

/// Biased f64 exponent of [`OCTAVE_FLOOR`] (1023 − 20).
const BIASED_MIN: u64 = 1003;

/// Biased f64 exponent of the largest octave, 2^12 s ≈ 68 min
/// (1023 + 12). Values at or above 2^13 s clamp into the last bucket.
const BIASED_MAX: u64 = 1035;

/// Total bucket count: 33 octaves × 16 sub-buckets.
const BUCKETS: usize = 528;

/// A mergeable latency histogram over [`Seconds`] samples.
///
/// Exact zeros get a dedicated counter (a zero TBT is a real outcome
/// for single-token responses), and the exact minimum, maximum, count
/// and sum are carried alongside the buckets, so `mean()` and `max` are
/// exact while percentiles are bucket-resolution.
///
/// # Examples
///
/// ```
/// use ador_telemetry::LatencyHistogram;
/// use ador_units::Seconds;
///
/// let mut h = LatencyHistogram::new();
/// for ms in [10.0, 20.0, 30.0, 40.0] {
///     h.record(Seconds::from_millis(ms));
/// }
/// let p50 = h.percentile(0.5);
/// assert!(p50 >= Seconds::from_millis(20.0));
/// assert!(p50.get() <= 0.020 * 1.0625);
/// assert_eq!(h.max(), Seconds::from_millis(40.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    zeros: u64,
    count: u64,
    sum: Seconds,
    min: Seconds,
    max: Seconds,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            zeros: 0,
            count: 0,
            sum: Seconds::ZERO,
            min: Seconds::ZERO,
            max: Seconds::ZERO,
        }
    }

    /// Builds a histogram from a slice of samples.
    #[must_use]
    pub fn from_samples(samples: &[Seconds]) -> Self {
        let mut h = Self::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> Seconds {
        self.sum
    }

    /// Exact mean ([`Seconds::ZERO`] when empty).
    #[must_use]
    pub fn mean(&self) -> Seconds {
        if self.count == 0 {
            Seconds::ZERO
        } else {
            self.sum / f64_from_u64(self.count)
        }
    }

    /// Exact minimum recorded sample ([`Seconds::ZERO`] when empty).
    #[must_use]
    pub fn min(&self) -> Seconds {
        self.min
    }

    /// Exact maximum recorded sample ([`Seconds::ZERO`] when empty).
    #[must_use]
    pub fn max(&self) -> Seconds {
        self.max
    }

    /// Records one sample.
    pub fn record(&mut self, value: Seconds) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if value.is_zero() {
            self.zeros += 1;
        } else if let Some(slot) = self.counts.get_mut(bucket_index(value.get())) {
            *slot += 1;
        }
    }

    /// Folds `other` into `self`. Because bucket boundaries are fixed,
    /// the merge is exact: the result is identical to having recorded
    /// both sample populations into one histogram.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile by ceil nearest rank (`q` is clamped to
    /// `[0, 1]`), as the upper edge of the selected bucket, clamped to
    /// the exact recorded maximum. Returns [`Seconds::ZERO`] when
    /// empty.
    ///
    /// Guarantee: `exact ≤ percentile(q) ≤ exact × 1.0625`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Seconds {
        if self.count == 0 {
            return Seconds::ZERO;
        }
        let rank = (q.clamp(0.0, 1.0) * f64_from_u64(self.count)).ceil();
        let rank = u64_from_f64(rank).clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        let mut seen = self.zeros;
        if seen >= rank {
            return Seconds::ZERO;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The last bucket absorbs clamped out-of-range values,
                // so its edge does not bound them; fall back to the
                // exact maximum there.
                if i == BUCKETS - 1 {
                    return self.max;
                }
                return Seconds::new(bucket_upper_edge(i)).min(self.max);
            }
        }
        self.max
    }
}

/// Bucket index for a positive, finite value: the biased exponent
/// selects the octave, the top four mantissa bits the linear
/// sub-bucket. Out-of-range values clamp into the first or last bucket.
fn bucket_index(value: f64) -> usize {
    let bits = value.to_bits();
    let biased = (bits >> 52) & 0x7ff;
    if biased < BIASED_MIN {
        return 0;
    }
    if biased > BIASED_MAX {
        return BUCKETS - 1;
    }
    let sub = (bits >> 48) & 0xf;
    let index = (biased - BIASED_MIN) * 16 + sub;
    usize::try_from(index).unwrap_or(BUCKETS - 1)
}

/// Exclusive upper edge of bucket `index`:
/// `2^(octave) × (1 + (sub + 1) / 16)`. Computed by repeated doubling —
/// exact f64 arithmetic, no libm.
fn bucket_upper_edge(index: usize) -> f64 {
    let octave = index / SUB_BUCKETS;
    let sub = index % SUB_BUCKETS;
    let mut base = OCTAVE_FLOOR;
    for _ in 0..octave {
        base *= 2.0;
    }
    base * (1.0 + f64_from_usize(sub + 1) / 16.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn exact_percentile(sorted: &[Seconds], q: f64) -> Seconds {
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), Seconds::ZERO);
        assert_eq!(h.percentile(0.99), Seconds::ZERO);
    }

    #[test]
    fn zeros_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(Seconds::ZERO);
        h.record(Seconds::ZERO);
        h.record(Seconds::new(1.0));
        assert_eq!(h.percentile(0.5), Seconds::ZERO);
        assert_eq!(h.percentile(1.0), Seconds::new(1.0));
        assert_eq!(h.min(), Seconds::ZERO);
    }

    #[test]
    fn top_quantile_is_the_exact_max() {
        let h = LatencyHistogram::from_samples(&[
            Seconds::from_millis(3.0),
            Seconds::from_millis(17.0),
            Seconds::from_millis(250.0),
        ]);
        assert_eq!(h.percentile(1.0), Seconds::from_millis(250.0));
        assert_eq!(h.max(), Seconds::from_millis(250.0));
    }

    #[test]
    fn out_of_range_values_clamp_instead_of_panicking() {
        let mut h = LatencyHistogram::new();
        h.record(Seconds::new(1e-12)); // below the first octave
        h.record(Seconds::new(1e9)); // above the last octave
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(1.0), Seconds::new(1e9));
        // The tiny value's bucket edge upper-bounds it.
        assert!(h.percentile(0.25) >= Seconds::new(1e-12));
    }

    #[test]
    fn bucket_edges_are_monotone() {
        let mut prev = 0.0;
        for i in 0..BUCKETS {
            let edge = bucket_upper_edge(i);
            assert!(edge > prev, "bucket {i}: {edge} <= {prev}");
            prev = edge;
        }
    }

    proptest! {
        /// A percentile is never below the exact value and at most
        /// 6.25% above it, for any in-range sample population.
        #[test]
        fn percentile_brackets_exact(
            samples in proptest::collection::vec(1e-6f64..1e3, 1..200),
            q in 0.01f64..1.0,
        ) {
            let secs: Vec<Seconds> = samples.iter().map(|&x| Seconds::new(x)).collect();
            let h = LatencyHistogram::from_samples(&secs);
            let mut ordered = samples.clone();
            ordered.sort_by(f64::total_cmp);
            let sorted: Vec<Seconds> = ordered.iter().map(|&x| Seconds::new(x)).collect();
            let exact = exact_percentile(&sorted, q);
            let est = h.percentile(q);
            prop_assert!(est >= exact, "{est:?} < {exact:?}");
            prop_assert!(est.get() <= exact.get() * 1.0625 + 1e-12, "{est:?} vs {exact:?}");
        }

        /// Merging two histograms is exactly pooling their samples
        /// (the running sum may differ in FP rounding; everything
        /// bucket-derived is bit-equal).
        #[test]
        fn merge_equals_pooled(
            a in proptest::collection::vec(0.0f64..1e3, 0..80),
            b in proptest::collection::vec(0.0f64..1e3, 0..80),
        ) {
            let sa: Vec<Seconds> = a.iter().map(|&x| Seconds::new(x)).collect();
            let sb: Vec<Seconds> = b.iter().map(|&x| Seconds::new(x)).collect();
            let mut merged = LatencyHistogram::from_samples(&sa);
            merged.merge(&LatencyHistogram::from_samples(&sb));
            let pooled_samples: Vec<Seconds> = sa.iter().chain(&sb).copied().collect();
            let pooled = LatencyHistogram::from_samples(&pooled_samples);
            prop_assert_eq!(merged.count(), pooled.count());
            prop_assert_eq!(merged.min(), pooled.min());
            prop_assert_eq!(merged.max(), pooled.max());
            for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(merged.percentile(q), pooled.percentile(q));
            }
            let (s, p) = (merged.sum().get(), pooled.sum().get());
            prop_assert!((s - p).abs() <= 1e-9 * p.max(1.0));
        }
    }
}
