//! The executor backends: two inner-loop shapes over the same retained
//! plans, dispatched by a `match` on [`BackendKind`].
//!
//! Every UCNN execution strategy computes the *same* arithmetic as the dense
//! convolution, only reordered around weight repetition (§III) — so an
//! executor is a swappable implementation detail, not a semantic choice.
//! This module makes that explicit: [`BackendKind::run_network`] executes a
//! whole [`CompiledNetwork`] over a batch of inputs (a layer alone is a
//! one-layer network), every kind in
//! [`BackendKind::ALL`] is **bit-identical** to the dense reference
//! (enforced by the golden conformance corpus in `tests/golden/` and the
//! seeded equivalence oracle), and callers select one with a [`BackendKind`]
//! passed end to end from the serving engine's config down to the inner loop.
//!
//! | kind | inner loop | where it wins |
//! |------|-----------|----------------|
//! | [`BackendKind::BatchThreads`] | retained-stream walk: per image at B = 1, batch-major at B ≥ 2 | nowhere on speed; it is the serving engine's default until the benchmark's memory accounting lets the engine switch (see `EngineConfig::backend` in `ucnn-serve`) |
//! | [`BackendKind::FlattenedBatch`] | branch-free flattened walk (one gather path for every geometry: padded layers are staged into a zero-haloed chunk; the innermost level multiplied in registers where its groups close, prefix rows kept only where an outer group closes) over SIMD lanes that are output positions × the chunk's images, a chunk of fewer than eight images filling eight lanes with row-shifted copies of itself, staged per filter band; a whole network runs chunk-major — each lane chunk stays batch-interleaved from the staged input to the last stage ([`BackendKind::run_network`]) | every measured cell; the library default ([`CompiledNetwork::DEFAULT_BACKEND`](crate::plan::CompiledNetwork::DEFAULT_BACKEND)) |
//!
//! Which ISA tier the flattened executor runs is not a choice at all: every
//! execution dispatches the widest tier the CPU has, [`SimdCaps::best`].
//! The paper's functional definition of factorized convolution (§III-A) is
//! not an executor: it is the free function
//! [`exec::factorized_conv`](crate::exec::factorized_conv), which sorts the
//! weights on every call.

use std::borrow::Cow;

use ucnn_model::{forward::flatten_for_fc, reference};
use ucnn_tensor::Tensor3;

use crate::counters::LayerWork;
use crate::exec::run_compiled_batch;
use crate::flatten::{run_stages, FlattenedTile};
use crate::hierarchy::GroupStream;
use crate::plan::{CompiledLayer, CompiledNetwork, CompiledStage};
use crate::simd::SimdCaps;

/// Selects one of the registered executor backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Retained-stream walk (`run_compiled_batch`): the scalar per-image
    /// walk at B = 1, one batch-major walk (each stream entry decoded once
    /// for the whole batch) at B ≥ 2. It runs on one thread, and only the
    /// serving engine's default still selects it.
    BatchThreads,
    /// Branch-free flattened execution — compile-time lowered gather
    /// offsets and CSR group ranges, no entry decode — over
    /// batch-interleaved SIMD lanes
    /// ([`run_stages`]): one indirection walk per lane
    /// chunk feeds a strip of contiguous image lanes as wide as the
    /// dispatched ISA tier allows (8 scalar, 16 AVX2, 32 AVX-512 —
    /// see [`SimdTier::lane_width`](crate::simd::SimdTier::lane_width)),
    /// through the `#[target_feature]` kernels of the widest tier the CPU
    /// has ([`SimdCaps::best`]). A chunk of fewer than eight images is
    /// staged at pitch 8 like a chunk of eight, in row-shifted copies of
    /// each image that walk a share of the output rows each, through the
    /// same kernels over the same lowered tiles.
    FlattenedBatch,
}

impl BackendKind {
    /// Every registered backend, in registry order.
    pub const ALL: [BackendKind; 2] = [BackendKind::BatchThreads, BackendKind::FlattenedBatch];
}

/// The executors, one `match` on the kind each.
///
/// # Contract
///
/// Outputs are **bit-identical** to the dense reference
/// (`ucnn_model::forward::dense_forward`) for every input and batch size —
/// the conformance corpus (`tests/conformance.rs`) and the equivalence
/// oracle (`crates/core/src/flatten/oracle.rs`) run every kind in
/// [`BackendKind::ALL`] against exactly that bar, a layer alone as a
/// one-layer network. An empty batch returns an empty vector. Every
/// executor runs on the calling thread.
impl BackendKind {
    /// Runs the whole of `net` over `inputs` with the wiring rule of
    /// `ucnn_model::forward::dense_forward`: ReLU-saturated `i16`
    /// activations between stages, the last stage's raw `i32` output
    /// returned (a trailing pool's activations widened).
    /// [`CompiledNetwork::forward_batch_with`] is the checked entry point: it
    /// holds the inputs to the network's input dims and records the reuse
    /// counters.
    ///
    /// The stream walker loops layer by layer over per-image tensors; the
    /// flattened executor runs chunk-major — every lane chunk runs the
    /// whole network batch-interleaved, transposed once on the way in and
    /// once on the way out ([`run_stages`]).
    ///
    /// # Panics
    ///
    /// Panics if the activations reaching a stage mismatch its geometry.
    #[must_use]
    pub fn run_network(self, net: &CompiledNetwork, inputs: &[Tensor3<i16>]) -> Vec<Tensor3<i32>> {
        match self {
            BackendKind::BatchThreads => layer_by_layer(net, inputs),
            BackendKind::FlattenedBatch => run_stages(net.stages(), inputs, SimdCaps::get().best()),
        }
    }

    /// Eagerly builds whatever lazily derived execution state this kind
    /// needs for `layer`, so the first request after deploy does not pay
    /// for it in its tail — see [`CompiledNetwork::warm`]: the stream
    /// walker's streams, or the flattened executor's lowering (which keeps
    /// no stream).
    pub(crate) fn warm(self, layer: &CompiledLayer) {
        match self {
            BackendKind::BatchThreads => {
                let _ = layer.tiles();
            }
            BackendKind::FlattenedBatch => {
                let _ = layer.flat_tiles();
            }
        }
    }

    /// The work `layer` performs in one `run_network` call with `batch`
    /// inputs, as reuse telemetry for [`counters`](crate::counters):
    /// analytic counts derived from the retained plan, **not** measured by
    /// instrumenting the inner loop — so the accounting is O(tiles). The
    /// stream walker reports the stream's counts; the flattened executor
    /// reports what its lowered tiles issue — at most the stream walker's
    /// multiplies and gathers on a walk (folding only merges groups), one
    /// multiply per non-zero weight and fewer gathers on a dense tile.
    pub(crate) fn work(self, layer: &CompiledLayer, batch: usize) -> LayerWork {
        match self {
            BackendKind::BatchThreads => stream_walk_work(layer, batch),
            BackendKind::FlattenedBatch => flattened_work(layer, batch),
        }
    }
}

/// The stream walker's network loop: every stage materializes its
/// per-image tensors — [`run_compiled_batch`], each `i32` output
/// consumed into its [`reference::relu_saturate`]d successor so the two
/// whole-batch tensors never coexist, [`reference::pool2d`] image by image.
fn layer_by_layer(net: &CompiledNetwork, inputs: &[Tensor3<i16>]) -> Vec<Tensor3<i32>> {
    let last = net.stages().len() - 1;
    // The first stage reads the caller's tensors in place; every later one
    // owns the previous stage's output.
    let mut acts: Cow<'_, [Tensor3<i16>]> = Cow::Borrowed(inputs);
    for (si, stage) in net.stages().iter().enumerate() {
        match stage {
            CompiledStage::Conv { layer, is_fc, .. } => {
                if *is_fc {
                    let flat = |a| flatten_for_fc(a, layer.geom().c());
                    acts = acts.into_owned().into_iter().map(flat).collect();
                }
                let sums = run_compiled_batch(layer, &acts);
                if si == last {
                    return sums;
                }
                let relu = |sums| reference::relu_saturate(&sums);
                acts = sums.into_iter().map(relu).collect();
            }
            CompiledStage::Pool {
                kind, size, stride, ..
            } => {
                let pool = |a| reference::pool2d(a, *kind, *size, *stride);
                acts = acts.iter().map(pool).collect();
                if si == last {
                    let widen = |a: &Tensor3<i16>| {
                        Tensor3::from_fn(a.c(), a.w(), a.h(), |c, x, y| i32::from(a[(c, x, y)]))
                    };
                    return acts.iter().map(widen).collect();
                }
            }
        }
    }
    unreachable!("stages is non-empty, so the loop always returns")
}

/// The analytic per-call work of the stream-walking backend: every tile's
/// stream is walked once per output position per image, issuing one
/// multiply per non-zero activation-group closure and one gather per
/// retained entry. The dense-equivalent count is pure geometry
/// ([`ConvGeom::macs`](ucnn_tensor::ConvGeom::macs): `out_w · out_h · K ·
/// R · S · C_group`, already whole-layer for grouped convolutions because
/// `K` is total while `C` is per-group).
fn stream_walk_work(layer: &CompiledLayer, batch: usize) -> LayerWork {
    let streams = || layer.tiles().iter().map(|tile| tile.stream());
    let multiplies = streams().map(GroupStream::multiplies).sum();
    let entries = streams().map(GroupStream::entry_count).sum();
    walk_work(layer, batch, multiplies, entries)
}

/// `multiplies` and gathered `entries` per output position per image, over
/// a batch, beside the layer's dense-equivalent count.
fn walk_work(layer: &CompiledLayer, batch: usize, multiplies: usize, entries: usize) -> LayerWork {
    let b = batch as u64;
    let walks = (layer.geom().out_w() * layer.geom().out_h()) as u64 * b;
    LayerWork {
        images: b,
        dense_multiplies: layer.geom().macs() as u64 * b,
        multiplies_issued: multiplies as u64 * walks,
        gather_entries: entries as u64 * walks,
    }
}

/// The analytic per-call work of the flattened backend, counted from the
/// lowered walks — lowering owns their order and their sharing, so they are
/// not the stream's: multiplies are the groups of a non-zero weight (outer
/// segments + non-zero-`|w|` innermost groups, each one CSR segment: ≤ the
/// stream walker's multiplies), gathers the lowered entries (the stream's).
/// A band lowered as one dense tile issues one multiply per non-zero weight
/// and one gather per pair-tap, which its filters share.
fn flattened_work(layer: &CompiledLayer, batch: usize) -> LayerWork {
    let tiles = layer.flat_tiles();
    let segments = tiles.iter().map(FlattenedTile::segment_count).sum();
    let entries = tiles.iter().map(FlattenedTile::entry_count).sum();
    walk_work(layer, batch, segments, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::UcnnConfig;
    use ucnn_model::{forward, ActivationGen, QuantScheme, WeightGen};
    use ucnn_model::{LayerSpec, NetworkSpec, PoolKind};
    use ucnn_tensor::ConvGeom;

    #[test]
    fn warm_forces_flattened_lowering_only_where_needed() {
        let geom = ConvGeom::new(5, 5, 3, 2, 3, 3);
        let mut wgen = WeightGen::new(QuantScheme::inq(), 19).with_density(0.8);
        let weights = wgen.generate_dims(2, 3, 3, 3);
        for kind in BackendKind::ALL {
            let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::with_g(2));
            assert!(!layer.flat_ready());
            kind.warm(&layer);
            assert_eq!(
                layer.flat_ready(),
                kind == BackendKind::FlattenedBatch,
                "backend {kind:?}"
            );
        }
    }

    #[test]
    fn every_backend_matches_dense_reference() {
        // One layer as a one-layer network, and a conv → conv → pool
        // network — layer by layer or chunk-major, the wiring is exactly
        // `dense_forward`'s.
        let c1 = ConvGeom::new(7, 6, 5, 4, 3, 3).with_pad(1);
        let mut net = NetworkSpec::new("pair");
        net.push(LayerSpec::conv("c1", c1));
        net.push(LayerSpec::conv(
            "c2",
            ConvGeom::new(7, 6, 4, 3, 3, 3).with_pad(1),
        ));
        net.push(LayerSpec::pool("p", PoolKind::Avg, 3, 2));
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 17, 0.8);
        let plan = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
        let mut alone = NetworkSpec::new("c1");
        alone.push(net.layers()[0].clone());
        let one = CompiledNetwork::compile(&alone, &weights[..1], &UcnnConfig::with_g(2));
        let mut agen = ActivationGen::new(18);
        let inputs: Vec<_> = (0..3).map(|_| agen.generate(5, 7, 6)).collect();
        let expected: Vec<_> = inputs
            .iter()
            .map(|i| reference::conv2d(&c1, 1, i, &weights[0]))
            .collect();
        let expected_net: Vec<_> = inputs
            .iter()
            .map(|i| forward::dense_forward(&net, &weights, i))
            .collect();
        for kind in BackendKind::ALL {
            let got = one.forward_batch_with(&inputs, kind);
            assert_eq!(got, expected, "backend {kind:?}");
            let got = kind.run_network(&plan, &inputs);
            assert_eq!(got, expected_net, "backend {kind:?} network");
            assert!(kind.run_network(&one, &[]).is_empty());
        }
    }
}
