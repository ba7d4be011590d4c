//! HDR-style latency histogram: logarithmic buckets with a fixed relative
//! error, constant-time recording, and exact counts.
//!
//! Values are nanoseconds. Below `2^(P+1)` ns every value gets its own
//! bucket (exact); above, each power-of-two octave is split into `2^P`
//! sub-buckets, bounding the relative quantization error by `2^-P`
//! (≈ 3.1 % for the `P = 5` used here) — the classic HdrHistogram layout,
//! sized for values up to `u64::MAX` so no latency can overflow it.

/// Sub-bucket precision bits: 32 sub-buckets per octave, ≤ ~3.1 % error.
const PRECISION_BITS: u32 = 5;

/// Linear region size: values below this are recorded exactly.
const LINEAR: usize = 1 << (PRECISION_BITS + 1);

/// Bucket count covering the full `u64` range.
const BUCKETS: usize = LINEAR + (64 - PRECISION_BITS as usize) * (1 << PRECISION_BITS);

fn index_of(value: u64) -> usize {
    if value < LINEAR as u64 {
        // The linear region is bucket-per-value: `index_of` must be the
        // identity here or "exact below 2^(P+1)" is a lie. (An earlier
        // version computed `value | 1` to make `leading_zeros` safe on 0,
        // which silently bumped every *even* value below LINEAR into the
        // odd bucket above it — surfaced by the property test comparing
        // percentiles against the sorted raw stream, `tests/sharded_stats.rs`.)
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let shift = msb - PRECISION_BITS;
        let mantissa = (value >> shift) as usize; // in [2^P, 2^(P+1))
        LINEAR + (shift as usize - 1) * (1 << PRECISION_BITS) + (mantissa - (1 << PRECISION_BITS))
    }
}

/// Upper edge of bucket `idx` (the value reported for percentiles falling
/// into it; ≤ `2^-P` above the true value).
fn value_of(idx: usize) -> u64 {
    if idx < LINEAR {
        idx as u64
    } else {
        let rel = idx - LINEAR;
        let shift = (rel / (1 << PRECISION_BITS)) as u32 + 1;
        let mantissa = (1u128 << PRECISION_BITS) + (rel % (1 << PRECISION_BITS)) as u128;
        // u128 keeps the topmost octave's edge from overflowing u64.
        u64::try_from(((mantissa + 1) << shift) - 1).unwrap_or(u64::MAX)
    }
}

/// A latency histogram with HDR-style log bucketing.
///
/// # Examples
///
/// ```
/// use ucnn_serve::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for us in 1..=1000u64 {
///     h.record(us * 1_000); // 1..=1000 µs, uniformly
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(0.50) as f64 / 1_000.0;
/// assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 = {p50} µs");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of buckets in the fixed layout (shared with the lock-free atomic
/// histograms in [`crate::metrics`], which record into the same bucket
/// space and snapshot into a [`LatencyHistogram`]).
pub(crate) fn bucket_count() -> usize {
    BUCKETS
}

/// The bucket a value records into (shared with [`crate::metrics`]).
pub(crate) fn bucket_index(value_ns: u64) -> usize {
    index_of(value_ns)
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Rebuilds a histogram from raw parts — the snapshot path of the
    /// atomic histograms in [`crate::metrics`], which share this bucket
    /// layout. Normalizes the empty case so the `min` sentinel never leaks.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is not [`bucket_count`] long or its entries do
    /// not sum to `total`.
    pub(crate) fn from_parts(counts: Vec<u64>, total: u64, sum: u128, min: u64, max: u64) -> Self {
        assert_eq!(counts.len(), BUCKETS, "bucket layout mismatch");
        assert_eq!(counts.iter().sum::<u64>(), total, "bucket counts vs total");
        Self {
            counts,
            total,
            sum,
            min: if total == 0 { u64::MAX } else { min },
            max,
        }
    }

    /// Records one value (nanoseconds).
    pub fn record(&mut self, value_ns: u64) {
        self.counts[index_of(value_ns)] += 1;
        self.total += 1;
        self.sum += u128::from(value_ns);
        self.min = self.min.min(value_ns);
        self.max = self.max.max(value_ns);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact minimum recorded value, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]` (bucket upper edge, ≤ ~3.1 % above
    /// the true value; the exact max for `q = 1`). Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report beyond the exact max (q = 1 edge).
                return value_of(idx).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 5, 17, 63] {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.percentile(1.0), 63);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn even_linear_values_are_exact() {
        // Regression: `index_of` used to compute `value | 1`, bumping every
        // even value below LINEAR into the odd bucket above it, so a
        // histogram of {4, 10} reported p50 = 5. The linear region must be
        // bucket-per-value.
        for v in 0..LINEAR as u64 {
            assert_eq!(index_of(v), v as usize, "linear bucket for {v}");
            assert_eq!(value_of(index_of(v)), v, "linear edge for {v}");
        }
        let mut h = LatencyHistogram::new();
        h.record(4);
        h.record(10);
        assert_eq!(h.percentile(0.5), 4);
        assert_eq!(h.percentile(1.0), 10);
        // The octave path starts exactly at LINEAR and stays contiguous.
        assert_eq!(index_of(LINEAR as u64), LINEAR);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        for exp in 6..40u32 {
            let v = (1u64 << exp) + 12345 % (1 << exp);
            h.record(v);
            let reported = value_of(index_of(v));
            assert!(reported >= v, "bucket edge below value");
            assert!(
                (reported - v) as f64 / v as f64 <= 1.0 / 32.0 + 1e-9,
                "error too large at {v}: {reported}"
            );
        }
    }

    #[test]
    fn index_is_monotone_across_octave_boundaries() {
        let mut last = 0usize;
        for v in 1..10_000u64 {
            let idx = index_of(v);
            assert!(idx >= last, "index regressed at {v}");
            last = idx;
        }
        // Extremes stay in range.
        assert!(index_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let got = h.percentile(q) as f64;
            assert!(
                ((got - expect) / expect).abs() < 0.04,
                "p{q}: got {got}, expected ~{expect}"
            );
        }
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn bad_quantile_panics() {
        let _ = LatencyHistogram::new().percentile(1.5);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.percentile(q), 0, "q = {q}");
        }
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(37);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 37);
        assert_eq!(h.max(), 37);
        assert_eq!(h.mean(), 37.0);
        for q in [0.0, 0.001, 0.5, 0.999, 1.0] {
            assert_eq!(h.percentile(q), 37, "q = {q}");
        }
    }

    #[test]
    fn saturating_bucket_handles_u64_max() {
        // The topmost octave's bucket edge would overflow u64; recording
        // the maximum value must neither panic nor mis-bucket.
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(5);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
        // A low quantile lands in the small sample's bucket, not the
        // saturated top octave; the top-octave quantile is capped at the
        // exact max, never a (would-be overflowing) bucket edge beyond it.
        assert_eq!(h.percentile(0.1), 5);
        assert_eq!(h.percentile(0.9), u64::MAX);
        assert!(index_of(u64::MAX) < BUCKETS);
    }
}
