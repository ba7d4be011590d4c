//! Reuse-counter properties: the `counters` sink's dense-equivalent
//! multiply counts must match an independent calculation from layer
//! geometry for **every** registered backend, totals recorded by several
//! threads at once must be exactly the sum of their calls (the
//! analytic-accounting contract, over the sharded sink), and the flattened
//! lowering cache must tally exactly one miss then hits.
//!
//! The sink is process-global, so every test records under network names
//! unique to this file, filters snapshots down to them, and serializes
//! enable/disable windows behind one mutex.

use std::sync::{Barrier, Mutex};

use ucnn_core::backend::BackendKind;
use ucnn_core::compile::UcnnConfig;
use ucnn_core::counters::{self, LayerWork, TallyRow};
use ucnn_core::flatten::FlattenedTile;
use ucnn_core::plan::{CompiledNetwork, CompiledStage};
use ucnn_model::{forward, networks, ActivationGen, NetworkSpec, QuantScheme};
use ucnn_tensor::Tensor3;

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn rows_for(net: &str) -> Vec<TallyRow> {
    counters::snapshot()
        .into_iter()
        .filter(|r| r.net == net)
        .collect()
}

/// Compiles the tiny topology under `name` and returns the plan plus a few
/// valid inputs.
fn compiled(name: &str, seed: u64) -> (CompiledNetwork, Vec<Tensor3<i16>>) {
    let tiny = networks::tiny();
    let mut spec = NetworkSpec::new(name);
    for layer in tiny.layers() {
        spec.push(layer.clone());
    }
    let weights = forward::generate_network_weights(&spec, QuantScheme::inq(), seed, 0.85);
    let plan = CompiledNetwork::compile(&spec, &weights, &UcnnConfig::with_g(2));
    let mut agen = ActivationGen::new(seed ^ 0x7);
    let inputs: Vec<_> = (0..8)
        .map(|_| agen.generate_for(&spec.conv_layers()[0]))
        .collect();
    (plan, inputs)
}

/// Property: for every backend and batch size, the recorded
/// dense-equivalent multiplies equal `out_w · out_h · K · R · S · C_group`
/// per image, computed here independently from the layer geometry — and the
/// reuse ratio is in (0, 1] with multiplies actually issued.
#[test]
fn dense_equivalent_matches_geometry_for_every_backend() {
    let net = "counters-prop";
    let (plan, inputs) = compiled(net, 0x71);
    // Independent calculation straight from the spec's conv stages.
    let expected_per_image: Vec<(String, u64)> = plan
        .stages()
        .iter()
        .filter_map(|s| match s {
            CompiledStage::Conv { name, layer, .. } => {
                let g = layer.geom();
                let macs = g.out_w() * g.out_h() * g.k() * g.r() * g.s() * g.c();
                Some((name.clone(), macs as u64))
            }
            CompiledStage::Pool { .. } => None,
        })
        .collect();
    assert!(!expected_per_image.is_empty());

    let _guard = serialize();
    for kind in BackendKind::ALL {
        for batch in [1usize, 3, 8] {
            counters::reset();
            counters::set_enabled(true);
            let _ = plan.forward_batch_with(&inputs[..batch], kind);
            counters::set_enabled(false);
            let rows = rows_for(net);
            assert_eq!(
                rows.len(),
                expected_per_image.len(),
                "one row per conv stage ({kind}, B={batch})"
            );
            for row in &rows {
                let (_, macs) = expected_per_image
                    .iter()
                    .find(|(name, _)| *name == row.layer)
                    .unwrap_or_else(|| panic!("unexpected layer '{}'", row.layer));
                assert_eq!(row.backend, kind.name());
                assert_eq!(row.batch_bucket, counters::batch_bucket(batch));
                assert_eq!(row.work.images, batch as u64);
                assert_eq!(
                    row.work.dense_multiplies,
                    macs * batch as u64,
                    "dense-equivalent diverged from geometry ({kind}, B={batch}, {})",
                    row.layer
                );
                assert!(row.work.multiplies_issued > 0, "{kind} issued nothing");
                assert!(
                    row.work.multiplies_issued <= row.work.dense_multiplies,
                    "factorized walk must never issue more than dense ({kind})"
                );
                assert!(row.work.gather_entries > 0);
            }
        }
    }
}

/// Forwards on 1, 2 and 4 threads at once record exactly that many times
/// one forward's tally: the sink's shards lose and double nothing, and
/// the accounting is analytic, not scheduling-dependent instrumentation.
/// Across backends what is
/// bit-identical is the dense-equivalent and, between the two stream
/// walkers, every arithmetic field (same multiplies, only reordered); the
/// flattened backend — whose lowering owns the order of the walk — issues
/// at most their multiplies.
#[test]
fn tallies_are_bit_identical_across_backends_and_thread_counts() {
    let net = "counters-threads";
    let (plan, inputs) = compiled(net, 0x72);
    let _guard = serialize();
    let mut baseline: Option<Vec<TallyRow>> = None;
    for threads in [1usize, 2, 4] {
        counters::reset();
        counters::set_enabled(true);
        let start = Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    start.wait();
                    plan.forward_batch_with(&inputs, BackendKind::BatchThreads)
                });
            }
        });
        counters::set_enabled(false);
        let rows = rows_for(net);
        let once = baseline.get_or_insert_with(|| rows.clone());
        let times = |row: &TallyRow| {
            let mut work = LayerWork::default();
            (0..threads).for_each(|_| work.merge(&row.work));
            TallyRow {
                work,
                ..row.clone()
            }
        };
        let expected: Vec<TallyRow> = once.iter().map(times).collect();
        assert_eq!(rows, expected, "tally diverged at {threads} threads");
    }
    let mut walkers: Option<Vec<(String, u64, u64, u64)>> = None;
    for kind in BackendKind::ALL {
        counters::reset();
        counters::set_enabled(true);
        let _ = plan.forward_batch_with(&inputs[..4], kind);
        counters::set_enabled(false);
        let rows: Vec<(String, u64, u64, u64)> = rows_for(net)
            .into_iter()
            .map(|r| {
                (
                    r.layer,
                    r.work.dense_multiplies,
                    r.work.multiplies_issued,
                    r.work.gather_entries,
                )
            })
            .collect();
        match &walkers {
            None => walkers = Some(rows),
            Some(expected) if kind != BackendKind::FlattenedBatch => {
                assert_eq!(&rows, expected, "backend {kind} issues different work");
            }
            Some(expected) => {
                for (flat, stream) in rows.iter().zip(expected) {
                    assert_eq!((&flat.0, flat.1), (&stream.0, stream.1), "dense-equivalent");
                    assert!(flat.2 <= stream.2, "{}: folding only merges groups", flat.0);
                }
                // INQ is sign-symmetric: the convolutions fold.
                let issued =
                    |rows: &[(String, u64, u64, u64)]| -> u64 { rows.iter().map(|r| r.2).sum() };
                assert!(issued(&rows) < issued(expected));
            }
        }
    }
}

/// Flattened backends account CSR segments (their multiplies: one per
/// lowered group of a non-zero weight) and the lowering cache: first execution is a miss,
/// repeats are hits; stream-walking backends report neither.
#[test]
fn flattened_csr_and_lowering_cache_accounting() {
    let net = "counters-flat";
    let (plan, inputs) = compiled(net, 0x73);
    let _guard = serialize();
    counters::reset();
    counters::set_enabled(true);
    let _ = plan.forward_batch_with(&inputs[..2], BackendKind::FlattenedBatch);
    let _ = plan.forward_batch_with(&inputs[..2], BackendKind::FlattenedBatch);
    let _ = plan.forward_batch_with(&inputs[..2], BackendKind::BatchThreads);
    counters::set_enabled(false);
    for row in rows_for(net) {
        match row.backend {
            "flattened-batch" => {
                assert_eq!(
                    row.work.csr_segments, row.work.multiplies_issued,
                    "one multiply per CSR segment per output position"
                );
                assert_eq!(row.work.lowering_misses, 1, "first execution lowers");
                assert_eq!(row.work.lowering_hits, 1, "second execution hits");
            }
            "batch-threads" => {
                assert_eq!(row.work.csr_segments, 0);
                assert_eq!(row.work.lowering_hits + row.work.lowering_misses, 0);
            }
            other => panic!("unexpected backend '{other}'"),
        }
    }
}

/// The chunk-major pipeline records what the per-layer loop recorded: one
/// row per weight layer per call — not per lane chunk — equal field for
/// field to the whole batch's analytic work, computed here from the lowered
/// tiles and the chunk decomposition, with the lowering-cache state as it
/// was before the call. Below eight images the rest is one chunk, staged
/// eight lanes wide like a chunk of eight.
#[test]
fn pipeline_rows_equal_the_per_layer_loops() {
    let net = "counters-pipeline";
    let kind = BackendKind::FlattenedBatch;
    let tier = ucnn_core::simd::resolve_tier();
    let lane = tier.lane_width();
    let _guard = serialize();
    let mut arithmetic = Vec::new();
    for batch in [1usize, 3, 7, 9, 40] {
        let (plan, inputs) = compiled(net, 0x74);
        let inputs: Vec<_> = inputs.iter().cycle().take(batch).cloned().collect();
        // Tier-wide chunks, then 16, then 8, then the rest.
        let (mut rest, mut strips) = (batch, 0);
        for width in [lane, 16, 8, rest % 8] {
            if (1..=lane).contains(&width) {
                strips += rest / width;
                rest %= width;
            }
        }
        // tiny's convolutions have 12-position output rows: a chunk runs
        // strips of 8 positions × its pitch (eight lanes at least), as far
        // as the tier's registers go. Its FC layer has one position: the
        // pitch alone.
        let pitch = match batch {
            b if b >= lane => lane,
            b if b >= 16 => 16,
            _ => 8,
        };
        for lowered in [false, true] {
            counters::reset();
            counters::set_enabled(true);
            let _ = plan.forward_batch_with(&inputs, kind);
            counters::set_enabled(false);
            let row = |name: &String, layer: &ucnn_core::plan::CompiledLayer| {
                let (geom, tiles) = (layer.geom(), layer.flat_tiles());
                let walks = (geom.out_w() * geom.out_h() * batch) as u64;
                let count = |of: fn(&FlattenedTile) -> usize| {
                    tiles.iter().map(of).sum::<usize>() as u64 * walks
                };
                let widest = match name.as_str() {
                    "fc" => pitch,
                    _ => (8 * pitch).min(tier.strip_lanes()),
                };
                TallyRow {
                    net: net.to_string(),
                    layer: name.clone(),
                    backend: kind.name(),
                    batch_bucket: counters::batch_bucket(batch),
                    work: LayerWork {
                        images: batch as u64,
                        dense_multiplies: (geom.macs() * batch) as u64,
                        multiplies_issued: count(FlattenedTile::segment_count),
                        gather_entries: count(FlattenedTile::entry_count),
                        csr_segments: count(FlattenedTile::segment_count),
                        lowering_hits: u64::from(lowered),
                        lowering_misses: u64::from(!lowered),
                        lane_strips: strips as u64,
                        lane_width: widest as u64,
                    },
                }
            };
            let expected: Vec<TallyRow> = plan
                .stages()
                .iter()
                .filter_map(|s| match s {
                    CompiledStage::Conv { name, layer, .. } => Some(row(name, layer)),
                    CompiledStage::Pool { .. } => None,
                })
                .collect();
            let mut rows = rows_for(net);
            rows.sort_by_key(|r| expected.iter().position(|e| e.layer == r.layer));
            assert_eq!(rows, expected, "B={batch}, lowered before: {lowered}");
            for row in &rows {
                arithmetic.push((
                    row.layer.clone(),
                    row.work.dense_multiplies / batch as u64,
                    row.work.multiplies_issued / batch as u64,
                    row.work.gather_entries / batch as u64,
                ));
            }
        }
    }
    // The decomposition moves no arithmetic: per image the dense, issued and
    // gather counts are the same at every B.
    arithmetic.sort();
    arithmetic.dedup();
    assert_eq!(arithmetic.len(), 3, "one distinct row per layer");
}
