//! Pluggable executor backends: one trait, three inner-loop shapes over the
//! same retained plans.
//!
//! Every UCNN execution strategy computes the *same* arithmetic as the dense
//! convolution, only reordered around weight repetition (§III) — so an
//! executor is a swappable implementation detail, not a semantic choice.
//! This module makes that explicit: a [`Backend`] executes a
//! [`CompiledLayer`] — or a whole [`CompiledNetwork`] — over a batch of
//! inputs, every registered backend is
//! **bit-identical** to the dense reference (enforced by the golden
//! conformance corpus in `tests/golden/` and the cross-backend property
//! test), and callers select one with a [`BackendKind`] threaded end to end
//! from the serving engine's config down to the inner loop.
//!
//! | kind | inner loop | where it wins |
//! |------|-----------|----------------|
//! | [`BackendKind::Factorized`] | re-sorts/factorizes per call | never — the paper's functional definition and the compile-amortization baseline |
//! | [`BackendKind::BatchThreads`] | retained-stream walk: per image at B = 1, batch-major at B ≥ 2, scoped threads over filter bands × batch chunks when `threads > 1` | nowhere on speed; it is the serving engine's default until the benchmark's memory accounting lets the engine switch (see `EngineConfig::backend` in `ucnn-serve`) |
//! | [`BackendKind::FlattenedBatch`] | branch-free flattened walk (one gather path for every geometry: padded layers are staged into a zero-haloed chunk; the innermost level multiplied in registers where its groups close, prefix rows kept only where an outer group closes) over SIMD lanes that are output positions × the chunk's images, a chunk of fewer than eight images filling eight lanes with row-shifted copies of itself, staged per filter band; a whole network runs chunk-major — each lane chunk stays batch-interleaved from the staged input to the last stage ([`Backend::run_network`]) | every measured cell; the library default ([`CompiledNetwork::DEFAULT_BACKEND`](crate::plan::CompiledNetwork::DEFAULT_BACKEND)) |
//!
//! Which ISA tier the flattened executor runs is not a backend choice: the
//! process works it out once from what it can observe
//! ([`SimdCaps`](crate::simd::SimdCaps)) in [`resolve_tier`].

use std::borrow::Cow;

use ucnn_model::{forward::flatten_for_fc, reference};
use ucnn_tensor::{Tensor3, Tensor4};

use crate::counters::LayerWork;
use crate::exec::{factorized_conv, run_compiled_batch_threads};
use crate::flatten::{run_layer, run_stages, FlattenedTile};
use crate::hierarchy::GroupStream;
use crate::plan::{CompiledLayer, CompiledNetwork, CompiledStage};
use crate::simd::resolve_tier;

/// Selects one of the registered executor backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Per-call re-factorization (`factorized_conv`): re-sorts the weights
    /// on every execution. The slow baseline that motivates retained plans.
    Factorized,
    /// Retained-stream walk (`run_compiled_batch_threads`): the scalar
    /// per-image walk at B = 1, one batch-major walk (each stream entry
    /// decoded once for the whole batch) at B ≥ 2, parallelized over filter
    /// bands × batch chunks with scoped threads when `threads > 1`.
    BatchThreads,
    /// Branch-free flattened execution — compile-time lowered gather
    /// offsets and CSR group ranges, no entry decode — over
    /// batch-interleaved SIMD lanes
    /// ([`run_stages`]): one indirection walk per lane
    /// chunk feeds a strip of contiguous image lanes as wide as the
    /// dispatched ISA tier allows (8 scalar/NEON, 16 AVX2, 32 AVX-512 —
    /// see [`SimdTier::lane_width`](crate::simd::SimdTier::lane_width)),
    /// through explicit `#[target_feature]` kernels picked once per
    /// process by [`resolve_tier`]. Below eight images the lanes are
    /// neighbouring output positions of one image instead (stride-1
    /// layers), through the same kernels over the same lowered tiles.
    FlattenedBatch,
}

impl BackendKind {
    /// Every registered backend, in registry order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Factorized,
        BackendKind::BatchThreads,
        BackendKind::FlattenedBatch,
    ];

    /// Stable CLI/config name of the backend.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Factorized => "factorized",
            BackendKind::BatchThreads => "batch-threads",
            BackendKind::FlattenedBatch => "flattened-batch",
        }
    }

    /// Parses a [`BackendKind::name`] (`_` is accepted for `-`).
    #[must_use]
    pub fn parse(name: &str) -> Option<BackendKind> {
        let name = name.replace('_', "-");
        BackendKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackendKind::parse(s).ok_or_else(|| {
            let names: Vec<&str> = BackendKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown backend '{s}'; choose from {}", names.join(", "))
        })
    }
}

/// An executor backend: runs a compiled layer over a batch of inputs.
///
/// # Contract
///
/// Outputs must be **bit-identical** to the dense reference
/// (`ucnn_model::reference::conv2d`) for every input, batch size, and
/// thread count — the conformance corpus (`tests/conformance.rs`) and the
/// cross-backend property test (`crates/core/tests/properties.rs`) run
/// every registered backend against exactly that bar. Backends that cannot
/// exploit `threads` simply ignore it; an empty batch returns an empty
/// vector.
pub trait Backend: Send + Sync {
    /// Which [`BackendKind`] this backend implements.
    fn kind(&self) -> BackendKind;

    /// Stable name (defaults to the kind's name).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Executes `layer` over `inputs`, using at most `threads` execution
    /// threads where the backend supports them.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or any input mismatches the layer geometry.
    fn run_layer(
        &self,
        layer: &CompiledLayer,
        inputs: &[Tensor3<i16>],
        threads: usize,
    ) -> Vec<Tensor3<i32>>;

    /// Runs the whole of `net` over `inputs` (already checked against its
    /// input dims, non-empty) with the wiring rule of
    /// `ucnn_model::forward::dense_forward`: ReLU-saturated `i16`
    /// activations between stages, the last stage's raw `i32` output
    /// returned (a trailing pool's activations widened).
    ///
    /// The default is the per-layer loop: every stage materializes its
    /// per-image tensors — [`Backend::run_layer`], each `i32` output
    /// consumed into its [`reference::relu_saturate`]d successor so the two
    /// whole-batch tensors never coexist, [`reference::pool2d`] image by
    /// image. A backend that can keep the batch in its own layout from
    /// stage to stage overrides it.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or the activations reaching a stage
    /// mismatch its geometry.
    fn run_network(
        &self,
        net: &CompiledNetwork,
        inputs: &[Tensor3<i16>],
        threads: usize,
    ) -> Vec<Tensor3<i32>> {
        let last = net.stages().len() - 1;
        // The first stage reads the caller's tensors in place; every later
        // one owns the previous stage's output.
        let mut acts: Cow<'_, [Tensor3<i16>]> = Cow::Borrowed(inputs);
        for (si, stage) in net.stages().iter().enumerate() {
            match stage {
                CompiledStage::Conv { layer, is_fc, .. } => {
                    if *is_fc {
                        let flat = |a| flatten_for_fc(a, layer.geom().c());
                        acts = acts.into_owned().into_iter().map(flat).collect();
                    }
                    let sums = self.run_layer(layer, &acts, threads);
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

    /// Eagerly builds whatever lazily derived execution state this backend
    /// needs for `layer` (a no-op for the stream walkers). The flattened
    /// backend forces the `OnceLock` lowering here so the first request
    /// after deploy does not pay lowering latency in its tail — see
    /// [`CompiledNetwork::warm`](crate::plan::CompiledNetwork::warm).
    fn warm(&self, layer: &CompiledLayer) {
        let _ = layer;
    }

    /// The work one `run_layer(layer, inputs, _)` call with `batch` inputs
    /// performs, as reuse telemetry for
    /// [`counters`](crate::counters): analytic counts derived from the
    /// retained plan, **not** measured by instrumenting the inner loop — so
    /// the accounting is O(tiles) and bit-identical at every thread count.
    /// The stream walkers report the stream's counts, equal between them;
    /// the flattened backend reports what its lowered walks issue — at
    /// most the stream walkers' multiplies (folding only merges groups), and
    /// more gathers only where a band is walked filter by filter.
    ///
    /// `lowering_was_ready` is whether the flattened lowering existed
    /// before the call (captured by the caller); backends without derived
    /// lowering state ignore it.
    fn work(&self, layer: &CompiledLayer, batch: usize, lowering_was_ready: bool) -> LayerWork {
        let _ = lowering_was_ready;
        stream_walk_work(layer, batch)
    }
}

/// The analytic per-call work of any stream-walking backend: every tile's
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
        ..LayerWork::default()
    }
}

/// The analytic per-call work of the flattened backend, counted from the
/// lowered walks — lowering owns their order and their sharing, so they are
/// not the stream's: multiplies are the groups of a non-zero weight (outer
/// segments + non-zero-`|w|` innermost groups, each one CSR segment: ≤ the
/// stream walkers' multiplies), gathers the lowered entries (more than the
/// stream's only on a band walked filter by filter). Beside them, whether
/// this call hit the cached lowering or had to build it, and the per-ISA
/// profile of the dispatched tier — how many lane chunks the batch
/// decomposed into and the widest strip (of images, or of one image's
/// output positions) that ran.
fn flattened_work(layer: &CompiledLayer, batch: usize, lowering_was_ready: bool) -> LayerWork {
    let tiles = layer.flat_tiles();
    let segments = tiles.iter().map(FlattenedTile::segment_count).sum();
    let entries = tiles.iter().map(FlattenedTile::entry_count).sum();
    let mut work = walk_work(layer, batch, segments, entries);
    work.csr_segments = work.multiplies_issued;
    if lowering_was_ready {
        work.lowering_hits = 1;
    } else {
        work.lowering_misses = 1;
    }
    let (chunks, widest) = crate::flatten::strip_profile(layer.geom(), batch, resolve_tier());
    work.lane_strips = chunks as u64;
    work.lane_width = widest as u64;
    work
}

struct FactorizedBackend;

impl Backend for FactorizedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Factorized
    }

    fn run_layer(
        &self,
        layer: &CompiledLayer,
        inputs: &[Tensor3<i16>],
        threads: usize,
    ) -> Vec<Tensor3<i32>> {
        assert!(threads > 0, "need at least one execution thread");
        // Plans retain only streams; the per-call baseline rebuilds the
        // dense weights from them (exact) and re-factorizes every call.
        let filters: Tensor4<i16> = layer.reconstruct_filters();
        inputs
            .iter()
            .map(|input| {
                factorized_conv(
                    layer.geom(),
                    layer.conv_groups(),
                    input,
                    &filters,
                    layer.config(),
                )
            })
            .collect()
    }
}

struct BatchThreadsBackend;

impl Backend for BatchThreadsBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::BatchThreads
    }

    fn run_layer(
        &self,
        layer: &CompiledLayer,
        inputs: &[Tensor3<i16>],
        threads: usize,
    ) -> Vec<Tensor3<i32>> {
        run_compiled_batch_threads(layer, inputs, threads)
    }
}

struct FlattenedBatchBackend;

impl Backend for FlattenedBatchBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::FlattenedBatch
    }

    fn run_layer(
        &self,
        layer: &CompiledLayer,
        inputs: &[Tensor3<i16>],
        threads: usize,
    ) -> Vec<Tensor3<i32>> {
        run_layer(layer, inputs, threads, resolve_tier())
    }

    /// Chunk-major: every lane chunk runs the whole network
    /// batch-interleaved, transposed once on the way in and once on the
    /// way out.
    fn run_network(
        &self,
        net: &CompiledNetwork,
        inputs: &[Tensor3<i16>],
        threads: usize,
    ) -> Vec<Tensor3<i32>> {
        run_stages(net.stages(), inputs, threads, resolve_tier())
    }

    fn warm(&self, layer: &CompiledLayer) {
        let _ = layer.flat_tiles();
    }

    fn work(&self, layer: &CompiledLayer, batch: usize, lowering_was_ready: bool) -> LayerWork {
        flattened_work(layer, batch, lowering_was_ready)
    }
}

/// Resolves a [`BackendKind`] to its (stateless, `'static`) implementation.
#[must_use]
pub fn backend(kind: BackendKind) -> &'static dyn Backend {
    match kind {
        BackendKind::Factorized => &FactorizedBackend,
        BackendKind::BatchThreads => &BatchThreadsBackend,
        BackendKind::FlattenedBatch => &FlattenedBatchBackend,
    }
}

/// Every registered backend, in [`BackendKind::ALL`] order — the set the
/// conformance suite iterates, so a new backend added here is tested for
/// free.
#[must_use]
pub fn all_backends() -> Vec<&'static dyn Backend> {
    BackendKind::ALL.into_iter().map(backend).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::UcnnConfig;
    use ucnn_model::{forward, ActivationGen, QuantScheme, WeightGen};
    use ucnn_model::{LayerSpec, NetworkSpec, PoolKind};
    use ucnn_tensor::ConvGeom;

    #[test]
    fn names_round_trip_and_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
        }
        assert_eq!(
            BackendKind::parse("batch_threads"),
            Some(BackendKind::BatchThreads)
        );
        assert_eq!(
            BackendKind::parse("flattened_batch"),
            Some(BackendKind::FlattenedBatch)
        );
        assert!(BackendKind::parse("nope").is_none());
        assert!("nope".parse::<BackendKind>().is_err());
    }

    #[test]
    fn warm_forces_flattened_lowering_only_where_needed() {
        let geom = ConvGeom::new(5, 5, 3, 2, 3, 3);
        let mut wgen = WeightGen::new(QuantScheme::inq(), 19).with_density(0.8);
        let weights = wgen.generate_dims(2, 3, 3, 3);
        for kind in BackendKind::ALL {
            let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::with_g(2));
            assert!(!layer.flat_ready());
            backend(kind).warm(&layer);
            assert_eq!(
                layer.flat_ready(),
                kind == BackendKind::FlattenedBatch,
                "backend {kind}"
            );
        }
    }

    #[test]
    fn registry_resolves_every_kind() {
        assert_eq!(all_backends().len(), BackendKind::ALL.len());
        for kind in BackendKind::ALL {
            assert_eq!(backend(kind).kind(), kind);
            assert_eq!(backend(kind).name(), kind.name());
        }
    }

    #[test]
    fn every_backend_matches_dense_reference() {
        // One layer through `run_layer`, and a conv → conv → pool network
        // through `run_network` — provided or overridden, the wiring is
        // exactly `dense_forward`'s.
        let mut net = NetworkSpec::new("pair");
        net.push(LayerSpec::conv(
            "c1",
            ConvGeom::new(7, 6, 5, 4, 3, 3).with_pad(1),
        ));
        net.push(LayerSpec::conv(
            "c2",
            ConvGeom::new(7, 6, 4, 3, 3, 3).with_pad(1),
        ));
        net.push(LayerSpec::pool("p", PoolKind::Avg, 3, 2));
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 17, 0.8);
        let plan = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
        let CompiledStage::Conv { layer, .. } = &plan.stages()[0] else {
            panic!("the network starts with a convolution");
        };
        let mut agen = ActivationGen::new(18);
        let inputs: Vec<_> = (0..3).map(|_| agen.generate(5, 7, 6)).collect();
        let expected: Vec<_> = inputs
            .iter()
            .map(|i| reference::conv2d(layer.geom(), 1, i, &weights[0]))
            .collect();
        let expected_net: Vec<_> = inputs
            .iter()
            .map(|i| forward::dense_forward(&net, &weights, i))
            .collect();
        for b in all_backends() {
            for threads in [1, 3] {
                assert_eq!(
                    b.run_layer(layer, &inputs, threads),
                    expected,
                    "backend {} at {threads} threads",
                    b.name()
                );
                assert_eq!(
                    b.run_network(&plan, &inputs, threads),
                    expected_net,
                    "backend {} network at {threads} threads",
                    b.name()
                );
                assert!(b.run_layer(layer, &[], threads).is_empty());
            }
        }
    }

    #[test]
    fn backends_are_object_safe_and_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Backend>();
    }
}
