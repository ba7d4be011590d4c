//! Per-layer execution counters: reuse telemetry collected from live
//! execution.
//!
//! The paper's headline claim is arithmetic *saved* — multiplies issued by
//! the factorized walk versus the dense-equivalent MAC count (§III). The
//! offline benches assert that ratio once; this module measures it from
//! whatever actually executes, aggregated per **network × layer × backend ×
//! batch-size bucket**, so the serving path can report how much reuse each
//! layer realizes under real traffic.
//!
//! The sink is disabled by default and every [`record`] call is gated on a
//! single relaxed atomic load, so the serving hot path pays one branch when
//! telemetry is off. Counts are *analytic*: they are derived from the
//! retained plan structure per layer of a forward (by the executed
//! [`BackendKind`](crate::backend::BackendKind)), never from instrumented
//! inner loops — which keeps recording O(tiles) per layer batch, and makes
//! totals independent of how the work was scheduled (the same calls record
//! the same analytic values, on whichever threads they ran).
//!
//! Recording is sharded: each thread hashes to one of a fixed set of
//! mutex-protected maps (one lock acquisition per executed layer batch, not
//! per entry), and [`snapshot`] merges the shards at read time.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Work accounted for one executed layer batch, and the additive unit the
/// sink aggregates. All fields are totals over the images of the batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerWork {
    /// Images executed.
    pub images: u64,
    /// Dense-equivalent multiplies: `out_w · out_h · K · R · S · C_group`
    /// per image — what a dense convolution would have issued.
    pub dense_multiplies: u64,
    /// Multiplies the factorized walk actually issues: one per non-zero
    /// activation group per output position — for the stream walkers
    /// [`GroupStream::multiplies`](crate::hierarchy::GroupStream::multiplies);
    /// for the flattened backend the groups of its lowered walks, ≤ the
    /// stream walkers' (sign-folding merges groups).
    pub multiplies_issued: u64,
    /// Indirection-table entries touched (gathers) per output position: one
    /// per retained stream entry for the stream walkers, one per lowered
    /// entry for the flattened backend (more only where a band is walked
    /// filter by filter).
    pub gather_entries: u64,
    /// Layer executions that found the flattened lowering already built.
    pub lowering_hits: u64,
    /// Layer executions that had to build (or wait for) the lowering.
    pub lowering_misses: u64,
    /// Lane chunks the flattened backends cut the batch into: whole strips
    /// of the tier's width, then 16, then 8 images, then the rest as one
    /// chunk. Each chunk walks the CSR indirection stream on its
    /// own, feeding up to [`lane_width`](LayerWork::lane_width) lanes per
    /// walk. Zero for backends that do not interleave.
    pub lane_strips: u64,
    /// Widest strip the dispatched kernel ran, in lanes — neighbouring
    /// output positions × the chunk's images behind one indirection read
    /// (at most the dispatched tier's
    /// [`SimdTier::strip_lanes`](crate::simd::SimdTier::strip_lanes); one
    /// position per strip on strided and fully connected layers; 0 when not
    /// applicable). Merged by `max`, so an
    /// aggregate row reports the widest strip that served it — the per-ISA
    /// issued-op profile.
    pub lane_width: u64,
}

impl LayerWork {
    /// Adds `other` into `self` field by field
    /// ([`lane_width`](LayerWork::lane_width) merges by `max` — it is a
    /// profile annotation, not a count).
    pub fn merge(&mut self, other: &LayerWork) {
        self.images += other.images;
        self.dense_multiplies += other.dense_multiplies;
        self.multiplies_issued += other.multiplies_issued;
        self.gather_entries += other.gather_entries;
        self.lowering_hits += other.lowering_hits;
        self.lowering_misses += other.lowering_misses;
        self.lane_strips += other.lane_strips;
        self.lane_width = self.lane_width.max(other.lane_width);
    }

    /// Multiplies issued over dense-equivalent multiplies — the paper's
    /// headline reuse ratio (≤ 1.0; lower is more reuse). 0.0 when nothing
    /// was recorded.
    #[must_use]
    pub fn reuse_ratio(&self) -> f64 {
        if self.dense_multiplies == 0 {
            0.0
        } else {
            self.multiplies_issued as f64 / self.dense_multiplies as f64
        }
    }
}

/// One merged row of a [`snapshot`]: the aggregation key plus its work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TallyRow {
    /// Compiled network name.
    pub net: String,
    /// Layer name within the network.
    pub layer: String,
    /// Backend that executed it ([`BackendKind::name`](crate::backend::BackendKind::name)).
    pub backend: &'static str,
    /// Power-of-two batch-size bucket ([`batch_bucket`]).
    pub batch_bucket: usize,
    /// Aggregated work.
    pub work: LayerWork,
}

type Key = (String, String, &'static str, usize);

const SHARDS: usize = 8;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn shards() -> &'static Vec<Mutex<BTreeMap<Key, LayerWork>>> {
    static SINK: OnceLock<Vec<Mutex<BTreeMap<Key, LayerWork>>>> = OnceLock::new();
    SINK.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(BTreeMap::new())).collect())
}

fn shard_of_thread() -> usize {
    thread_local! {
        static SHARD: usize = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            (h.finish() as usize) % SHARDS
        };
    }
    SHARD.with(|s| *s)
}

/// Turns recording on or off (process-wide). Off by default; when off,
/// [`record`] is a no-op behind one relaxed load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the sink is currently recording.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears every shard (typically paired with [`set_enabled`] at the start
/// of a measured run).
pub fn reset() {
    for shard in shards() {
        shard.lock().expect("counter shard poisoned").clear();
    }
}

/// The power-of-two bucket a batch size aggregates under (`3 → 4`,
/// `8 → 8`). Bucketing keeps the key space bounded under dynamic batching,
/// where every batch size between 1 and `max_batch` occurs.
///
/// # Panics
///
/// Panics if `batch == 0` (no executor runs empty batches through here).
#[must_use]
pub fn batch_bucket(batch: usize) -> usize {
    assert!(batch > 0, "batch bucket of an empty batch");
    batch.next_power_of_two()
}

/// Merges `work` into the calling thread's shard under
/// `(net, layer, backend, batch_bucket(batch))`. No-op while disabled.
pub fn record(net: &str, layer: &str, backend: &'static str, batch: usize, work: &LayerWork) {
    if !enabled() {
        return;
    }
    let key = (
        net.to_string(),
        layer.to_string(),
        backend,
        batch_bucket(batch),
    );
    let mut shard = shards()[shard_of_thread()]
        .lock()
        .expect("counter shard poisoned");
    shard.entry(key).or_default().merge(work);
}

/// Merges every shard into one sorted tally (net, layer, backend, bucket
/// order). Reads are exact: each shard is locked only long enough to copy.
#[must_use]
pub fn snapshot() -> Vec<TallyRow> {
    let mut merged: BTreeMap<Key, LayerWork> = BTreeMap::new();
    for shard in shards() {
        for (key, work) in shard.lock().expect("counter shard poisoned").iter() {
            merged.entry(key.clone()).or_default().merge(work);
        }
    }
    merged
        .into_iter()
        .map(|((net, layer, backend, batch_bucket), work)| TallyRow {
            net,
            layer,
            backend,
            batch_bucket,
            work,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global, so these tests key their records under
    // names no other test uses, filter snapshots down to them, and
    // serialize every test that toggles the enabled flag (a concurrent
    // disable would drop a sibling test's records mid-run).

    fn rows_for(net: &str) -> Vec<TallyRow> {
        snapshot().into_iter().filter(|r| r.net == net).collect()
    }

    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let work = LayerWork {
            images: 1,
            dense_multiplies: 10,
            multiplies_issued: 5,
            ..LayerWork::default()
        };
        let _guard = serialize();
        assert!(!enabled(), "sink must start disabled");
        record("counters-test-off", "conv1", "compiled", 1, &work);
        assert!(rows_for("counters-test-off").is_empty());
    }

    #[test]
    fn records_merge_under_one_key_and_buckets_by_power_of_two() {
        assert_eq!(batch_bucket(1), 1);
        assert_eq!(batch_bucket(2), 2);
        assert_eq!(batch_bucket(3), 4);
        assert_eq!(batch_bucket(8), 8);
        let work = LayerWork {
            images: 3,
            dense_multiplies: 300,
            multiplies_issued: 120,
            gather_entries: 60,
            ..LayerWork::default()
        };
        let _guard = serialize();
        set_enabled(true);
        record("counters-test-merge", "conv1", "compiled", 3, &work);
        record("counters-test-merge", "conv1", "compiled", 4, &work);
        record("counters-test-merge", "conv1", "flattened", 3, &work);
        set_enabled(false);
        let rows = rows_for("counters-test-merge");
        assert_eq!(rows.len(), 2);
        let compiled = rows.iter().find(|r| r.backend == "compiled").unwrap();
        // Batches 3 and 4 share the bucket-4 key and merge.
        assert_eq!(compiled.batch_bucket, 4);
        assert_eq!(compiled.work.images, 6);
        assert_eq!(compiled.work.dense_multiplies, 600);
        assert_eq!(compiled.work.multiplies_issued, 240);
        assert!((compiled.work.reuse_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn snapshot_is_sorted_and_reset_clears() {
        let work = LayerWork {
            images: 1,
            dense_multiplies: 2,
            multiplies_issued: 1,
            ..LayerWork::default()
        };
        let _guard = serialize();
        set_enabled(true);
        record("counters-test-sort", "b-layer", "compiled", 1, &work);
        record("counters-test-sort", "a-layer", "compiled", 1, &work);
        set_enabled(false);
        let rows = rows_for("counters-test-sort");
        assert_eq!(rows.len(), 2);
        assert!(rows[0].layer < rows[1].layer, "snapshot must be sorted");
        reset();
        assert!(rows_for("counters-test-sort").is_empty());
    }

    #[test]
    fn empty_work_reuse_ratio_is_zero() {
        assert_eq!(LayerWork::default().reuse_ratio(), 0.0);
    }

    #[test]
    fn simd_profile_fields_merge_additively_except_lane_width() {
        let mut a = LayerWork {
            lane_strips: 2,
            lane_width: 8,
            ..LayerWork::default()
        };
        let b = LayerWork {
            lane_strips: 3,
            lane_width: 32,
            ..LayerWork::default()
        };
        a.merge(&b);
        assert_eq!(a.lane_strips, 5);
        assert_eq!(a.lane_width, 32, "lane width reports the widest tier");
        // Merging a narrower record never shrinks the profile.
        a.merge(&LayerWork {
            lane_width: 1,
            ..LayerWork::default()
        });
        assert_eq!(a.lane_width, 32);
    }

    #[test]
    #[should_panic(expected = "batch bucket of an empty batch")]
    fn zero_batch_bucket_rejected() {
        let _ = batch_bucket(0);
    }
}
