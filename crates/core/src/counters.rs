//! Per-layer execution counters: reuse telemetry collected from live
//! execution.
//!
//! The paper's headline claim is arithmetic *saved* — multiplies issued by
//! the factorized walk versus the dense-equivalent MAC count (§III). The
//! offline benches assert that ratio once; this module measures it from
//! whatever actually executes, aggregated per **network × layer**, so a
//! caller can read how much reuse each layer realizes over the forwards it
//! ran.
//!
//! The sink is disabled by default and every [`record`] call is gated on a
//! single relaxed atomic load, so the serving hot path pays one branch when
//! telemetry is off. Counts are *analytic*: they are derived from the
//! retained plan structure per layer of a forward (by the executed
//! [`BackendKind`](crate::backend::BackendKind)), never from instrumented
//! inner loops — which keeps recording O(tiles) per layer batch, and makes
//! totals independent of how the work was scheduled (the same calls record
//! the same analytic values, on whichever threads they ran). Recording
//! takes one lock per executed layer batch, not per entry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

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
    /// activation group per output position — for the stream walker
    /// [`GroupStream::multiplies`](crate::hierarchy::GroupStream::multiplies);
    /// for the flattened backend the groups of its lowered walks, ≤ the
    /// stream walker's (sign-folding merges groups), and one per non-zero
    /// weight of a band lowered as a dense tile (more than the stream
    /// walker's groups: such a band's weights rarely repeat).
    pub multiplies_issued: u64,
    /// Indirection-table entries touched (gathers) per output position: one
    /// per retained stream entry for the stream walker, one per lowered
    /// entry for the flattened backend (more where a band is walked filter
    /// by filter), and one per pair-tap `(2c, 2c + 1, r, s)` of a dense
    /// tile, shared by its band's filters.
    pub gather_entries: u64,
}

impl LayerWork {
    /// Adds `other` into `self` field by field.
    pub fn merge(&mut self, other: &LayerWork) {
        self.images += other.images;
        self.dense_multiplies += other.dense_multiplies;
        self.multiplies_issued += other.multiplies_issued;
        self.gather_entries += other.gather_entries;
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
    /// Aggregated work.
    pub work: LayerWork,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

static SINK: Mutex<BTreeMap<(String, String), LayerWork>> = Mutex::new(BTreeMap::new());

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

/// Clears the tally (typically paired with [`set_enabled`] at the start of
/// a measured run).
pub fn reset() {
    SINK.lock().expect("counter sink poisoned").clear();
}

/// Merges `work` into the tally under `(net, layer)`. No-op while
/// disabled.
pub fn record(net: &str, layer: &str, work: &LayerWork) {
    if !enabled() {
        return;
    }
    let key = (net.to_string(), layer.to_string());
    let mut sink = SINK.lock().expect("counter sink poisoned");
    sink.entry(key).or_default().merge(work);
}

/// The tally, one row per `(net, layer)`, sorted by net then layer.
#[must_use]
pub fn snapshot() -> Vec<TallyRow> {
    let sink = SINK.lock().expect("counter sink poisoned");
    sink.iter()
        .map(|((net, layer), work)| TallyRow {
            net: net.clone(),
            layer: layer.clone(),
            work: *work,
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
        record("counters-test-off", "conv1", &work);
        assert!(rows_for("counters-test-off").is_empty());
    }

    #[test]
    fn records_merge_under_one_key() {
        let work = LayerWork {
            images: 3,
            dense_multiplies: 300,
            multiplies_issued: 120,
            gather_entries: 60,
        };
        let _guard = serialize();
        set_enabled(true);
        record("counters-test-merge", "conv1", &work);
        record("counters-test-merge", "conv1", &work);
        record("counters-test-merge", "conv2", &work);
        set_enabled(false);
        let rows = rows_for("counters-test-merge");
        assert_eq!(rows.len(), 2);
        let conv1 = rows.iter().find(|r| r.layer == "conv1").unwrap();
        assert_eq!(conv1.work.images, 6);
        assert_eq!(conv1.work.dense_multiplies, 600);
        assert_eq!(conv1.work.multiplies_issued, 240);
        assert_eq!(conv1.work.gather_entries, 120);
        assert!((conv1.work.reuse_ratio() - 0.4).abs() < 1e-12);
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
        record("counters-test-sort", "b-layer", &work);
        record("counters-test-sort", "a-layer", &work);
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
}
