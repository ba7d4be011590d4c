//! Reuse-counter properties: the `counters` sink's dense-equivalent
//! multiply counts must match an independent calculation from layer
//! geometry for **every** registered backend, totals recorded by several
//! threads at once must be exactly the sum of their calls (the
//! analytic-accounting contract), and the flattened backend's rows must be
//! the counts of its lowered walks.
//!
//! The sink is process-global, so every test records under network names
//! unique to this file, filters snapshots down to them, and serializes
//! enable/disable windows behind one mutex.

use std::sync::{Barrier, Mutex};

use ucnn_core::backend::BackendKind;
use ucnn_core::compile::UcnnConfig;
use ucnn_core::counters::{self, LayerWork, TallyRow};
use ucnn_core::flatten::FlattenedTile;
use ucnn_core::hierarchy::ZERO_RANK;
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
    compiled_from(networks::tiny(), name, seed, 8)
}

/// Compiles `topology`'s layers under `name` (INQ weights, G = 2) and
/// returns the plan plus `images` valid inputs.
fn compiled_from(
    topology: NetworkSpec,
    name: &str,
    seed: u64,
    images: usize,
) -> (CompiledNetwork, Vec<Tensor3<i16>>) {
    let mut spec = NetworkSpec::new(name);
    for layer in topology.layers() {
        spec.push(layer.clone());
    }
    let weights = forward::generate_network_weights(&spec, QuantScheme::inq(), seed, 0.85);
    let plan = CompiledNetwork::compile(&spec, &weights, &UcnnConfig::with_g(2));
    let mut agen = ActivationGen::new(seed ^ 0x7);
    let inputs: Vec<_> = (0..images)
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
                "one row per conv stage ({kind:?}, B={batch})"
            );
            for row in &rows {
                let (_, macs) = expected_per_image
                    .iter()
                    .find(|(name, _)| *name == row.layer)
                    .unwrap_or_else(|| panic!("unexpected layer '{}'", row.layer));
                assert_eq!(row.work.images, batch as u64);
                assert_eq!(
                    row.work.dense_multiplies,
                    macs * batch as u64,
                    "dense-equivalent diverged from geometry ({kind:?}, B={batch}, {})",
                    row.layer
                );
                assert!(row.work.multiplies_issued > 0, "{kind:?} issued nothing");
                assert!(
                    row.work.multiplies_issued <= row.work.dense_multiplies,
                    "factorized walk must never issue more than dense ({kind:?})"
                );
                assert!(row.work.gather_entries > 0);
            }
        }
    }
}

/// Forwards on 1, 2 and 4 threads at once record exactly that many times
/// one forward's tally: the sink loses and doubles nothing, and the
/// accounting is analytic, not scheduling-dependent instrumentation.
///
/// Across backends on LeNet (INQ, G = 2) the dense-equivalent is
/// bit-identical. The flattened backend counts what its lowered tiles issue:
/// as many multiplies as the stream walker on the fully connected layers,
/// walked once in stream order, while every convolution's bands are dense
/// tiles, which issue one multiply per non-zero weight through one gather
/// per pair of channels and tap, shared by the band's filters: more
/// multiplies than the stream walker's groups, fewer gathers.
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
    // Across backends, on LeNet.
    let net = "counters-lenet";
    let (plan, inputs) = compiled_from(networks::lenet(), net, 0x73, 2);
    let tally = |kind| {
        counters::reset();
        counters::set_enabled(true);
        let _ = plan.forward_batch_with(&inputs, kind);
        counters::set_enabled(false);
        rows_for(net)
    };
    let stream = tally(BackendKind::BatchThreads);
    let flat = tally(BackendKind::FlattenedBatch);
    assert_eq!(flat.len(), 5);
    assert_eq!(flat.len(), stream.len());
    for (flat, stream) in flat.iter().zip(&stream) {
        let (name, work, walker) = (flat.layer.as_str(), &flat.work, &stream.work);
        assert_eq!(name, stream.layer);
        assert_eq!(work.dense_multiplies, walker.dense_multiplies);
        match name {
            "conv1" | "conv2" | "conv3" => {
                let layer = plan.stages().iter().find_map(|stage| match stage {
                    CompiledStage::Conv {
                        name: at, layer, ..
                    } if at == name => Some(layer),
                    _ => None,
                });
                let layer = layer.expect("a weight layer");
                let weights: usize = layer
                    .tiles()
                    .iter()
                    .flat_map(|tile| tile.stream().entries())
                    .map(|e| e.ranks.iter().filter(|&&r| r != ZERO_RANK).count())
                    .sum();
                let walks = layer.geom().out_w() * layer.geom().out_h() * inputs.len();
                assert_eq!(work.multiplies_issued, (weights * walks) as u64, "{name}");
                assert!(work.multiplies_issued > walker.multiplies_issued, "{name}");
                assert!(work.gather_entries < walker.gather_entries, "{name}");
            }
            _ => assert_eq!(work.multiplies_issued, walker.multiplies_issued, "{name}"),
        }
    }
}

/// The chunk-major pipeline records what the per-layer loop recorded: one
/// row per weight layer per call — not per lane chunk — equal field for
/// field to the whole batch's analytic work, computed here from the lowered
/// tiles, whether or not the call had to build the lowering.
#[test]
fn pipeline_rows_equal_the_per_layer_loops() {
    let net = "counters-pipeline";
    let kind = BackendKind::FlattenedBatch;
    let _guard = serialize();
    let mut arithmetic = Vec::new();
    for batch in [1usize, 3, 7, 9, 40] {
        let (plan, inputs) = compiled(net, 0x74);
        let inputs: Vec<_> = inputs.iter().cycle().take(batch).cloned().collect();
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
                TallyRow {
                    net: net.to_string(),
                    layer: name.clone(),
                    work: LayerWork {
                        images: batch as u64,
                        dense_multiplies: (geom.macs() * batch) as u64,
                        multiplies_issued: count(FlattenedTile::segment_count),
                        gather_entries: count(FlattenedTile::entry_count),
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
