//! Property tests for latency recording: a histogram's percentiles must
//! track the true (sorted-stream) percentiles within the bucket resolution,
//! and the metrics registry's lock-free histogram, recorded from many
//! threads at once, must snapshot to the same buckets as one thread
//! recording the whole stream.
//!
//! The first is the test that caught the linear-region `index_of` bug:
//! with even values mis-bucketed, percentiles disagreed with the raw
//! stream.

use proptest::prelude::*;
use ucnn_serve::LatencyHistogram;

/// The true quantile of a value stream: the rank-`ceil(q·n)` order
/// statistic, matching the histogram's rank definition.
fn true_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

const QS: [f64; 7] = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];

proptest! {
    /// Percentiles track the true sorted-stream order statistics within
    /// the histogram's bucket resolution (exact below the linear region
    /// bound, ≤ 2^-5 relative above it).
    #[test]
    fn percentiles_track_true_percentiles(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..400),
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in QS {
            let truth = true_percentile(&sorted, q);
            let got = h.percentile(q);
            // Bucket edges only ever round *up*, capped at the exact max.
            prop_assert!(got >= truth, "q = {}: got {} < true {}", q, got, truth);
            let bound = truth + truth / 32 + 1;
            prop_assert!(got <= bound, "q = {}: got {} > bound {}", q, got, bound);
        }
        prop_assert_eq!(h.percentile(1.0), sorted[sorted.len() - 1]);
    }
}

#[test]
fn atomic_histogram_saturating_merge_across_shards() {
    // The metrics registry's lock-free histogram shares the bucket layout:
    // many threads hammering one atomic histogram — top (saturating)
    // bucket included — must snapshot to the same buckets as recording the
    // whole stream sequentially into a plain LatencyHistogram.
    use ucnn_serve::MetricsRegistry;

    let reg = MetricsRegistry::new(4);
    let h = reg.histogram("merge_ns");
    let per_shard: Vec<Vec<u64>> = (0..4)
        .map(|s| {
            (0..200)
                .map(|i| match (s + i) % 5 {
                    0 => u64::MAX - (i as u64 % 3),
                    1 => 1 << (s * 8 + i % 8),
                    _ => (s as u64 + 1) * 977 * (i as u64 + 1),
                })
                .collect()
        })
        .collect();
    std::thread::scope(|scope| {
        for values in &per_shard {
            let h = std::sync::Arc::clone(&h);
            scope.spawn(move || {
                for &v in values {
                    h.record(v);
                }
            });
        }
    });
    let mut plain = LatencyHistogram::new();
    for v in per_shard.iter().flatten() {
        plain.record(*v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count(), 800);
    assert_eq!(snap.max(), plain.max());
    assert_eq!(snap.min(), plain.min());
    assert_eq!(
        snap.percentile(1.0),
        u64::MAX,
        "saturating bucket caps at max"
    );
    for q in QS {
        assert_eq!(snap.percentile(q), plain.percentile(q), "q={q}");
    }
}
