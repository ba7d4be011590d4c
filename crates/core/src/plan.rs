//! Retained compilation: compile once, execute many times.
//!
//! [`compile_layer`](crate::compile::compile_layer) walks per-tile
//! [`GroupStream`]s and keeps only statistics, and
//! [`factorized_conv`](crate::exec::factorized_conv) rebuilds the streams on
//! every call — fine for analysis, wasteful for serving, where the paper's
//! whole premise is that factorization is paid **once per model** and
//! amortized over every inference (§IV: "the computation to set up these
//! tables is amortized across the lifetime of the DNN deployment").
//!
//! This module is that retained form: a [`CompiledLayer`] owns a layer's
//! weights plus the geometry needed to execute them, and builds from them,
//! each at most once and on first use, whichever of two forms an executor
//! walks: the hierarchically sorted streams for every (filter-group ×
//! channel-tile) work unit, which the stream walker keeps, or the flattened
//! lowering — which sorts a tile's stream only where it may walk it, and
//! keeps none: a lowered layer is its weights and its lowering. A
//! [`CompiledNetwork`] chains compiled layers with the wiring rule of
//! [`ucnn_model::forward`]. Both are immutable after compilation (their
//! lazy parts are `OnceLock`s) and `Send + Sync`, so a serving engine
//! shares one plan across worker threads behind an `Arc` without cloning;
//! [`CompiledNetwork::warm`] builds what an executor needs before the first
//! request. Execution goes through
//! [`run_compiled`](crate::exec::run_compiled()) /
//! [`CompiledNetwork::forward`] and stays bit-identical to the dense
//! reference. How a network's stages are chained is the backend's business
//! ([`BackendKind::run_network`]): the stream walker loops layer by layer
//! over per-image tensors, the flattened default keeps each lane chunk
//! batch-interleaved from the first stage to the last.

use std::ops::Range;
use std::sync::OnceLock;

use ucnn_model::{LayerKind, NetworkSpec, PoolKind};
use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};

use crate::backend::BackendKind;
use crate::compile::{canonical_of, tile_spans, UcnnConfig};
use crate::flatten::{lower_dense, lower_layer, walked_once, Dims, FlattenedTile};
use crate::hierarchy::{GroupStream, MAX_G};

/// One retained work unit of a compiled layer: the stream for a group of
/// `≤ G` filters over one channel tile, plus where it lands in the layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledTile {
    stream: GroupStream,
    k_first: usize,
    c_first: usize,
}

impl CompiledTile {
    /// The hierarchically sorted stream for this tile.
    #[must_use]
    pub fn stream(&self) -> &GroupStream {
        &self.stream
    }

    /// Absolute index of the first filter this tile contributes to.
    #[must_use]
    pub fn k_first(&self) -> usize {
        self.k_first
    }

    /// Absolute index of the first input channel this tile reads.
    #[must_use]
    pub fn c_first(&self) -> usize {
        self.c_first
    }
}

/// A layer compiled for repeated execution: its weights, the geometry and
/// config needed to run them, and, built from them on first use, the
/// per-tile streams the stream walker keeps or the flattened lowering.
///
/// Compilation checks the shapes and keeps the weights; the sort/factorize
/// work of [`factorized_conv`](crate::exec::factorized_conv) is done at
/// most once per plan for the stream walker
/// ([`run_compiled`](crate::exec::run_compiled()), warmed by
/// [`CompiledNetwork::warm`]), which retains the streams
/// ([`CompiledLayer::tiles`]) and on each subsequent call only walks them.
/// Lowering ([`CompiledLayer::flat_tiles`]) sorts the streams of a layer
/// whose walks it has to read one tile at a time and keeps none.
///
/// # Examples
///
/// ```
/// use ucnn_core::compile::UcnnConfig;
/// use ucnn_core::exec::run_compiled;
/// use ucnn_core::plan::CompiledLayer;
/// use ucnn_model::reference;
/// use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};
///
/// let geom = ConvGeom::new(6, 6, 4, 4, 3, 3);
/// let filters = Tensor4::from_fn(4, 4, 3, 3, |k, c, r, s| ((k + c + r + s) % 3) as i16 - 1);
/// let layer = CompiledLayer::compile(&geom, 1, &filters, &UcnnConfig::with_g(2));
///
/// let input = Tensor3::from_fn(4, 6, 6, |c, x, y| ((c + 2 * x + y) % 5) as i16);
/// let fast = run_compiled(&layer, &input);           // no re-factorization
/// assert_eq!(fast, reference::conv2d(&geom, 1, &input, &filters));
/// ```
#[derive(Clone, Debug)]
pub struct CompiledLayer {
    config: UcnnConfig,
    geom: ConvGeom,
    conv_groups: usize,
    /// Channels per channel tile: the config's [`UcnnConfig::effective_ct`],
    /// or a whole group's for a layer walked once.
    ct: usize,
    /// The weights, filter after filter, each `(c, r, s)` row-major.
    filters: Box<[i16]>,
    /// The per-tile streams, built from `filters` on first use by the
    /// stream walker, their one reader. A flattened deployment never fills
    /// it: lowering builds each tile's stream alone and drops it.
    tiles: OnceLock<Vec<CompiledTile>>,
    /// Branch-free lowering of the layer — its shared walks (one per tile)
    /// or its dense tiles (two filters each, whatever `G` is),
    /// whichever costs less over the layer (`lower_layer`) — built on the
    /// first flattened execution (or an explicit
    /// [`CompiledNetwork::warm`]) and cached. The library default
    /// ([`CompiledNetwork::DEFAULT_BACKEND`]) runs through it; a deployment
    /// pinned to a stream-walking backend — the serving engine's default is
    /// one — never builds it and pays neither the lowering work nor the
    /// extra resident memory. Lowering packs every layer's dense tiles
    /// from `filters`; a layer whose weights alone show them cheaper
    /// (`lower_layer`'s bound) reads nothing else, and any other sorts its
    /// streams one tile at a time, keeping none, and drops the dense tiles
    /// if its walks win.
    flat: OnceLock<Vec<FlattenedTile>>,
}

/// `tiles` and `flat` are derived from the other fields, so equality
/// ignores them (and `OnceLock` has no `PartialEq` anyway).
impl PartialEq for CompiledLayer {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.geom == other.geom
            && self.conv_groups == other.conv_groups
            && self.filters == other.filters
    }
}

impl CompiledLayer {
    /// Compiles a layer's weights for retained execution: checks them
    /// against `geom` and keeps them; their per-tile streams are built on
    /// first use ([`CompiledLayer::tiles`]).
    ///
    /// Filters are grouped by `config.g` (never spanning conv groups) and
    /// channels tiled by [`UcnnConfig::effective_ct`], as `factorized_conv`
    /// does — except a layer walked once per chunk (one output position:
    /// every FC layer), which is one tile: a CPU plan has no PE input buffer
    /// to fill, and such a layer's reuse is across its whole input.
    ///
    /// # Panics
    ///
    /// Panics if tensor shapes disagree with `geom`/`conv_groups`, if
    /// `config.g` is 0 or over 255, or if `config.ct == 0`.
    #[must_use]
    pub fn compile(
        geom: &ConvGeom,
        conv_groups: usize,
        filters: &Tensor4<i16>,
        config: &UcnnConfig,
    ) -> Self {
        let g = config.g;
        assert!(g > 0, "G must be positive");
        assert!(
            g <= MAX_G,
            "G = {g} exceeds {MAX_G}: a close level is a byte"
        );
        assert_eq!(filters.k(), geom.k(), "filter count mismatch");
        assert_eq!(filters.c(), geom.c(), "filter channel mismatch");
        assert!(
            filters.r() == geom.r() && filters.s() == geom.s(),
            "filter plane mismatch"
        );
        assert!(
            conv_groups > 0 && geom.k().is_multiple_of(conv_groups),
            "bad group count"
        );
        let ct = config.effective_ct(geom.c());
        Self {
            config: *config,
            geom: *geom,
            conv_groups,
            ct: if walked_once(geom) { geom.c() } else { ct },
            filters: filters.as_slice().into(),
            tiles: OnceLock::new(),
            flat: OnceLock::new(),
        }
    }

    /// Where each tile lies, in execution order ([`tile_spans`] at the
    /// layer's `G` and `Ct`).
    pub(crate) fn tile_spans(&self) -> impl Iterator<Item = (Range<usize>, Range<usize>, usize)> {
        let (k, c) = (self.geom.k(), self.geom.c());
        tile_spans(k, c, self.conv_groups, self.config.g, self.ct)
    }

    /// Filter `k`'s weights, `(c, r, s)` row-major.
    pub(crate) fn filter(&self, k: usize) -> &[i16] {
        let size = self.geom.c() * self.geom.r() * self.geom.s();
        &self.filters[k * size..][..size]
    }

    /// The configuration the layer was compiled with.
    #[must_use]
    pub fn config(&self) -> &UcnnConfig {
        &self.config
    }

    /// The layer geometry (per-group channel view, like [`ConvGeom`]).
    #[must_use]
    pub fn geom(&self) -> &ConvGeom {
        &self.geom
    }

    /// Number of channel groups (1 = ordinary convolution).
    #[must_use]
    pub fn conv_groups(&self) -> usize {
        self.conv_groups
    }

    /// The retained work units, in execution order: built on first use —
    /// every stream of the layer, from one canonical order — and cached for
    /// the stream walker, their one reader. Lowering and
    /// [`CompiledLayer::total_entries`] build their own and keep none.
    #[must_use]
    pub fn tiles(&self) -> &[CompiledTile] {
        self.tiles.get_or_init(|| self.streams().collect())
    }

    /// The layer's work units built one at a time, in execution order, from
    /// one canonical order; the caller owns each and nothing is cached.
    pub(crate) fn streams(&self) -> impl Iterator<Item = CompiledTile> + '_ {
        let rs = self.geom.r() * self.geom.s();
        let mut builder = canonical_of(&self.filters);
        let mut slices: Vec<&[i16]> = Vec::with_capacity(self.config.g);
        self.tile_spans().map(move |(ks, cs, c_first)| {
            slices.clear();
            let taps = cs.start * rs..cs.end * rs;
            slices.extend(ks.clone().map(|k| &self.filter(k)[taps.clone()]));
            CompiledTile {
                stream: builder.build(&slices),
                k_first: ks.start,
                c_first,
            }
        })
    }

    /// The branch-free flattened lowering of the layer (consumed by
    /// [`run_stages`](crate::flatten::run_stages)), whichever costs less of
    /// two: its shared walks, one per tile in the order of
    /// [`CompiledLayer::tiles`], whose order and sharing lowering owns; or
    /// its dense tiles, two filters of one conv group each, the layer's
    /// filters in order.
    ///
    /// Lowered on first use and cached; subsequent calls are a load. A
    /// layer that its weights alone show to be cheaper as dense tiles is
    /// lowered without building a stream; any other builds each tile's
    /// stream, lowers it and drops it, so lowering leaves
    /// [`CompiledLayer::tiles`] unbuilt.
    #[must_use]
    pub fn flat_tiles(&self) -> &[FlattenedTile] {
        // `tile_spans` runs band by band, the longest tile first.
        self.flat.get_or_init(|| lower_layer(self))
    }

    /// Bytes of heap the flattened lowering keeps resident (lowering it
    /// first if needed) — the plan-size figure `repro reuse` prints beside
    /// each lowered layer's time.
    #[must_use]
    pub fn flat_bytes(&self) -> usize {
        let tiles = self.flat_tiles().iter();
        tiles.map(FlattenedTile::resident_bytes).sum()
    }

    /// This layer lowered as its dense tiles — a walked-once layer too —
    /// whatever [`CompiledLayer::flat_tiles`] elects: the same tiles the
    /// election prices, and the same-datapath dense yardstick `repro reuse`
    /// times the elected lowering against. The lowering is built here, so
    /// the copy is [`flat_ready`](Self::flat_ready).
    #[doc(hidden)]
    #[must_use]
    pub fn dense_lowered(&self) -> CompiledLayer {
        self.lowered_as(lower_dense(self))
    }

    /// This layer with `flat` for its lowering, whatever it would elect.
    pub(crate) fn lowered_as(&self, flat: Vec<FlattenedTile>) -> CompiledLayer {
        Self {
            filters: self.filters.clone(),
            tiles: OnceLock::new(),
            flat: OnceLock::from(flat),
            ..*self
        }
    }

    /// Whether the flattened lowering has already been built (by a
    /// flattened-backend execution or an explicit
    /// [`CompiledNetwork::warm`]).
    #[must_use]
    pub fn flat_ready(&self) -> bool {
        self.flat.get().is_some()
    }

    /// Whether the streams have already been built.
    #[cfg(test)]
    pub(crate) fn streams_built(&self) -> bool {
        self.tiles.get().is_some()
    }

    /// Total stream entries across all tiles — a proxy for the plan's
    /// memory footprint under the stream walker. The streams are built for
    /// the count and dropped, whether or not [`CompiledLayer::tiles`] holds
    /// them.
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.streams().map(|t| t.stream.entry_count()).sum()
    }
}

/// One stage of a [`CompiledNetwork`].
#[derive(Clone, Debug, PartialEq)]
pub enum CompiledStage {
    /// A compiled weight-bearing layer (convolution, or a fully connected
    /// layer executed as a 1×1 convolution after flattening).
    Conv {
        /// Layer name from the network specification.
        name: String,
        /// The retained execution plan.
        layer: CompiledLayer,
        /// Whether the incoming activations must be flattened first.
        is_fc: bool,
    },
    /// A pooling stage (no weights; element for element the dense
    /// reference's `pool2d` on every backend).
    Pool {
        /// Layer name from the network specification.
        name: String,
        /// Max or average.
        kind: PoolKind,
        /// Window size.
        size: usize,
        /// Stride.
        stride: usize,
    },
}

impl CompiledStage {
    /// Zero padding the stage reads its input through (0 for pooling).
    pub(crate) fn pad(&self) -> usize {
        match self {
            CompiledStage::Conv { layer, .. } => layer.geom().pad(),
            CompiledStage::Pool { .. } => 0,
        }
    }

    /// `(kind, size, stride)` of a pooling stage.
    pub(crate) fn pool(&self) -> Option<(PoolKind, usize, usize)> {
        match self {
            CompiledStage::Conv { .. } => None,
            CompiledStage::Pool {
                kind, size, stride, ..
            } => Some((*kind, *size, *stride)),
        }
    }

    /// `(C, W, H)` of the stage's output for an input of `(c, w, h)` — a
    /// weight layer's own geometry, a pooling window's Caffe-style ceiling
    /// (the rule of `ucnn_model::reference::pool2d`, checked as there).
    pub(crate) fn out_dims(&self, (c, w, h): Dims) -> Dims {
        match self {
            CompiledStage::Conv { layer, .. } => {
                let geom = layer.geom();
                (geom.k(), geom.out_w(), geom.out_h())
            }
            CompiledStage::Pool { size, stride, .. } => {
                assert!(
                    *size > 0 && *stride > 0,
                    "pool size/stride must be positive"
                );
                assert!(*size <= w && *size <= h, "pool window exceeds input");
                let pooled = |dim: usize| (dim - size).div_ceil(*stride) + 1;
                (c, pooled(w), pooled(h))
            }
        }
    }
}

/// A whole network compiled front to back: the unit a serving engine
/// registers once and executes per request.
///
/// [`CompiledNetwork::forward`] follows the wiring rule of
/// [`ucnn_model::forward::dense_forward`] (ReLU between weight layers, raw
/// `i32` logits from the final layer) and is bit-identical to it.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledNetwork {
    name: String,
    stages: Vec<CompiledStage>,
    input_dims: (usize, usize, usize),
}

impl CompiledNetwork {
    /// Compiles every weight-bearing layer of `spec`, with `weights` in
    /// [`NetworkSpec::conv_layers`] order, under one shared `config`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` has no layers or does not start with a
    /// weight-bearing layer, if `weights` does not have one tensor per
    /// weight-bearing layer, or if any shape disagrees with the spec.
    #[must_use]
    pub fn compile(spec: &NetworkSpec, weights: &[Tensor4<i16>], config: &UcnnConfig) -> Self {
        let convs = spec.conv_layers();
        assert_eq!(
            weights.len(),
            convs.len(),
            "need one weight tensor per weight-bearing layer"
        );
        let first = spec
            .layers()
            .first()
            .and_then(|l| l.as_conv())
            .expect("network must start with a weight-bearing layer");
        let input_dims = (
            first.total_in_channels(),
            first.geom().in_w(),
            first.geom().in_h(),
        );

        let mut stages = Vec::with_capacity(spec.layers().len());
        let mut wi = 0usize;
        for layer in spec.layers() {
            match layer.kind() {
                LayerKind::Conv { .. } | LayerKind::FullyConnected { .. } => {
                    let conv = layer.as_conv().expect("weight-bearing layer");
                    stages.push(CompiledStage::Conv {
                        name: layer.name().to_string(),
                        layer: CompiledLayer::compile(
                            &conv.geom(),
                            conv.groups(),
                            &weights[wi],
                            config,
                        ),
                        is_fc: conv.is_fc(),
                    });
                    wi += 1;
                }
                LayerKind::Pool { kind, size, stride } => {
                    stages.push(CompiledStage::Pool {
                        name: layer.name().to_string(),
                        kind: *kind,
                        size: *size,
                        stride: *stride,
                    });
                }
            }
        }

        Self {
            name: spec.name().to_string(),
            stages,
            input_dims,
        }
    }

    /// Executor the `forward*` entry points run through unless a caller
    /// names another one ([`CompiledNetwork::forward_batch_with`]): the
    /// batch-interleaved flattened executor — the tables are lowered once
    /// (on [`CompiledNetwork::warm`] or the first forward) and every
    /// inference afterwards walks them on the widest vector unit the CPU
    /// has. The serving engine does **not** inherit this: `EngineConfig`
    /// names its own default.
    pub const DEFAULT_BACKEND: BackendKind = BackendKind::FlattenedBatch;

    /// Network name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The executor backend the `forward*` entry points use:
    /// [`CompiledNetwork::DEFAULT_BACKEND`]. A plan carries no backend
    /// choice of its own — a caller that wants another executor passes it
    /// to [`CompiledNetwork::forward_batch_with`], as the serving engine
    /// does with its one `EngineConfig::backend`.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        Self::DEFAULT_BACKEND
    }

    /// The compiled stages, in execution order.
    #[must_use]
    pub fn stages(&self) -> &[CompiledStage] {
        &self.stages
    }

    /// Input tensor dimensions `(C_total, W, H)` the network expects.
    #[must_use]
    pub fn input_dims(&self) -> (usize, usize, usize) {
        self.input_dims
    }

    /// Eagerly builds every lazily derived execution structure `kind` needs
    /// (for the stream walker, every layer's streams; for the flattened
    /// backend, the per-layer lowering, which keeps no stream), so the
    /// first request served after a deploy builds nothing in its tail.
    /// Idempotent and cheap to repeat. The serving registry calls this on
    /// insert and when an engine adopts it, for the engine's backend.
    pub fn warm(&self, kind: BackendKind) {
        for stage in &self.stages {
            if let CompiledStage::Conv { layer, .. } = stage {
                kind.warm(layer);
            }
        }
    }

    /// Total retained stream entries across all compiled layers.
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.stages
            .iter()
            .map(|s| match s {
                CompiledStage::Conv { layer, .. } => layer.total_entries(),
                CompiledStage::Pool { .. } => 0,
            })
            .sum()
    }

    /// Runs one inference through [`CompiledNetwork::DEFAULT_BACKEND`] with
    /// no per-call sorting or factorization (the first call lowers the plan
    /// unless it was [warmed](CompiledNetwork::warm)). Bit-identical to
    /// [`ucnn_model::forward::dense_forward`] on the same spec and weights.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match [`CompiledNetwork::input_dims`].
    #[must_use]
    pub fn forward(&self, input: &Tensor3<i16>) -> Tensor3<i32> {
        self.forward_batch_with(std::slice::from_ref(input), self.backend())
            .pop()
            .expect("a batch of one produces one output")
    }

    /// Runs a whole batch of inferences through
    /// [`CompiledNetwork::DEFAULT_BACKEND`].
    ///
    /// Bit-identical to calling [`CompiledNetwork::forward`] on each input
    /// independently; an empty batch returns an empty vector.
    ///
    /// # Panics
    ///
    /// Panics if any input does not match [`CompiledNetwork::input_dims`].
    #[must_use]
    pub fn forward_batch(&self, inputs: &[Tensor3<i16>]) -> Vec<Tensor3<i32>> {
        self.forward_batch_with(inputs, self.backend())
    }

    /// The fully explicit entry point every other `forward*` routes
    /// through: checks the inputs, hands the batch to
    /// [`BackendKind::run_network`] on the calling thread, and records the
    /// per-layer reuse counters. Every backend produces bit-identical
    /// outputs, so the choice only changes performance.
    ///
    /// # Panics
    ///
    /// Panics if any input mismatches [`CompiledNetwork::input_dims`].
    #[must_use]
    pub fn forward_batch_with(
        &self,
        inputs: &[Tensor3<i16>],
        kind: BackendKind,
    ) -> Vec<Tensor3<i32>> {
        for input in inputs {
            assert_eq!(
                (input.c(), input.w(), input.h()),
                self.input_dims,
                "input dims do not match the compiled network"
            );
        }
        if inputs.is_empty() {
            return Vec::new();
        }
        // Reuse telemetry: one gated load on the hot path.
        if !crate::counters::enabled() {
            return kind.run_network(self, inputs);
        }
        // The analytic work of every weight layer is recorded after
        // execution, so the flattened lowering, if this call built it, is
        // there to count the lowered walks from.
        let outs = kind.run_network(self, inputs);
        for stage in &self.stages {
            if let CompiledStage::Conv { name, layer, .. } = stage {
                crate::counters::record(&self.name, name, &kind.work(layer, inputs.len()));
            }
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucnn_model::{forward, networks, ActivationGen, LayerSpec, QuantScheme, WeightGen};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn plans_are_send_sync_for_worker_sharing() {
        // Compile-time audit: serving workers share plans via Arc, so the
        // whole plan tree must be Send + Sync without interior mutability.
        assert_send_sync::<GroupStream>();
        assert_send_sync::<CompiledTile>();
        assert_send_sync::<CompiledLayer>();
        assert_send_sync::<CompiledStage>();
        assert_send_sync::<CompiledNetwork>();
    }

    #[test]
    fn compiled_layer_mirrors_exec_tiling() {
        // 10 filters, G = 4 → groups of 4, 4, 2; C = 10, Ct = 4 → tiles of
        // 4, 4, 2 channels: 9 work units.
        let mut wgen = WeightGen::new(QuantScheme::inq(), 3).with_density(0.8);
        let w = wgen.generate_dims(10, 10, 3, 3);
        let geom = ConvGeom::new(8, 8, 10, 10, 3, 3);
        let cfg = UcnnConfig {
            g: 4,
            ct: 4,
            ..UcnnConfig::default()
        };
        let layer = CompiledLayer::compile(&geom, 1, &w, &cfg);
        assert_eq!(layer.tiles().len(), 9);
        assert_eq!(layer.tiles()[0].k_first(), 0);
        assert_eq!(layer.tiles()[2].c_first(), 8);
        assert!(layer.total_entries() > 0);
    }

    #[test]
    fn grouped_layer_tiles_stay_in_their_group() {
        // 2 conv groups × 2 filters, C = 4 per group: filter groups must
        // not span conv groups and channel bases must be per-group.
        let mut wgen = WeightGen::new(QuantScheme::ttq(), 5).with_density(0.9);
        let w = wgen.generate_dims(4, 4, 3, 3);
        let geom = ConvGeom::new(6, 6, 4, 4, 3, 3);
        let layer = CompiledLayer::compile(&geom, 2, &w, &UcnnConfig::with_g(4));
        // G is clamped to the 2 filters of each conv group → 2 tiles.
        assert_eq!(layer.tiles().len(), 2);
        assert_eq!(layer.tiles()[0].k_first(), 0);
        assert_eq!(layer.tiles()[0].c_first(), 0);
        assert_eq!(layer.tiles()[1].k_first(), 2);
        assert_eq!(layer.tiles()[1].c_first(), 4);
    }

    #[test]
    #[should_panic(expected = "filter plane mismatch")]
    fn compile_rejects_mismatched_filter_plane() {
        let w = Tensor4::from_fn(4, 4, 5, 5, |_, _, _, _| 1i16);
        let geom = ConvGeom::new(6, 6, 4, 4, 3, 3);
        let _ = CompiledLayer::compile(&geom, 1, &w, &UcnnConfig::default());
    }

    #[test]
    #[should_panic(expected = "G = 256 exceeds 255: a close level is a byte")]
    fn compile_rejects_g_over_255() {
        // At compile, not at stream build: a layer that elects its dense
        // tiles builds no stream.
        let w = Tensor4::from_fn(256, 2, 1, 1, |k, c, _, _| 1 + i16::from(k == 255 && c == 1));
        let geom = ConvGeom::new(3, 2, 2, 256, 1, 1);
        let _ = CompiledLayer::compile(&geom, 1, &w, &UcnnConfig::with_g(256));
    }

    #[test]
    #[should_panic(expected = "Ct = 0 cannot tile channels")]
    fn compile_rejects_zero_ct() {
        let w = Tensor4::from_vec(1, 1, 1, 1, vec![1i16]).unwrap();
        let geom = ConvGeom::new(2, 2, 1, 1, 1, 1);
        let _ = CompiledLayer::compile(
            &geom,
            1,
            &w,
            &UcnnConfig {
                ct: 0,
                ..UcnnConfig::default()
            },
        );
    }

    #[test]
    fn network_forward_matches_dense_reference() {
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 21, 0.85);
        let compiled = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
        let mut agen = ActivationGen::new(22);
        for _ in 0..3 {
            let input = agen.generate_for(&net.conv_layers()[0]);
            assert_eq!(
                compiled.forward(&input),
                forward::dense_forward(&net, &weights, &input),
                "compiled network diverged from dense forward"
            );
        }
    }

    #[test]
    fn forward_batch_matches_per_image_forward() {
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 31, 0.85);
        let compiled = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
        let mut agen = ActivationGen::new(32);
        let inputs: Vec<_> = (0..5)
            .map(|_| agen.generate_for(&net.conv_layers()[0]))
            .collect();
        let expected: Vec<_> = inputs.iter().map(|i| compiled.forward(i)).collect();
        assert_eq!(compiled.forward_batch(&inputs), expected);
        assert!(compiled.forward_batch(&[]).is_empty());
    }

    /// A network from `(name, layers)`.
    fn net_of(name: &str, layers: Vec<LayerSpec>) -> NetworkSpec {
        let mut net = NetworkSpec::new(name);
        for layer in layers {
            net.push(layer);
        }
        net
    }

    #[test]
    fn pipeline_matches_dense_forward_on_every_tier() {
        // The chunk-major pipeline against `dense_forward`, one network per
        // way a stage can hand its activations on, at batches that straddle
        // every strip width (full chunks, and residuals of fewer than eight
        // images in row-shifted copies at pitch 8).
        let (conv, pool) = (LayerSpec::conv, LayerSpec::pool);
        let mut nets = vec![
            // conv → padded conv: the epilogue writes at the consumer's
            // interior offset, inside the halo it zeroed.
            net_of(
                "pad-consumer",
                vec![
                    conv("c1", ConvGeom::new(7, 6, 3, 4, 3, 3).with_pad(1)),
                    conv(
                        "c2",
                        ConvGeom::new(7, 6, 4, 5, 3, 3).with_stride(2).with_pad(2),
                    ),
                ],
            ),
            // Avg-pool windows hanging over the edge in both axes
            // (6 → 3 at size 3 / stride 2: divisors 9, 6 and 4), read by a
            // fully connected layer as the flat plane it already is.
            net_of(
                "avg-overhang",
                vec![
                    conv("c1", ConvGeom::new(6, 6, 2, 3, 3, 3).with_pad(1)),
                    pool("avg", PoolKind::Avg, 3, 2),
                    LayerSpec::fully_connected("fc", 3 * 3 * 3, 4),
                ],
            ),
            // pool → pool, and a network that ends in one (widened there).
            net_of(
                "pool-pool",
                vec![
                    conv("c1", ConvGeom::new(8, 7, 2, 3, 3, 3).with_pad(1)),
                    pool("max", PoolKind::Max, 2, 2),
                    pool("avg", PoolKind::Avg, 3, 2),
                ],
            ),
            // Grouped convolution between two ordinary ones.
            net_of(
                "grouped",
                vec![
                    conv("c1", ConvGeom::new(6, 5, 3, 4, 3, 3).with_pad(1)),
                    LayerSpec::grouped_conv("c2", ConvGeom::new(6, 5, 2, 6, 3, 3).with_pad(1), 2),
                    conv("c3", ConvGeom::new(6, 5, 6, 2, 3, 3)),
                ],
            ),
            networks::tiny(),
            networks::lenet(),
        ];
        // conv → max-pool → conv at every halo width the pool can feed.
        for pad in 0..=2 {
            nets.push(net_of(
                &format!("pool-consumer-pad{pad}"),
                vec![
                    conv("c1", ConvGeom::new(8, 8, 2, 4, 3, 3).with_pad(1)),
                    pool("max", PoolKind::Max, 3, 2),
                    conv("c2", ConvGeom::new(4, 4, 4, 3, 3, 3).with_pad(pad)),
                ],
            ));
        }
        // Long output rows through conv → fused pool → padded conv: one
        // image's rows of 40 and 22 positions run as position-lane strips
        // (32 + 8, 16 + 6 on the widest tier; every tier splits its own
        // way), the pool drains each finished band, and the padded
        // consumer reads its halo around them.
        nets.push(net_of(
            "long-rows",
            vec![
                conv("c1", ConvGeom::new(5, 40, 2, 4, 3, 3).with_pad(1)),
                pool("max", PoolKind::Max, 2, 2),
                conv("c2", ConvGeom::new(3, 20, 4, 3, 3, 3).with_pad(2)),
            ],
        ));
        for (ni, net) in nets.iter().enumerate() {
            let seed = 500 + ni as u64;
            let weights = forward::generate_network_weights(net, QuantScheme::inq(), seed, 0.85);
            let plan = CompiledNetwork::compile(net, &weights, &UcnnConfig::with_g(2));
            // LeNet costs 0.2–0.4 s per image unoptimized: the small
            // networks cover the strip widths, it keeps a strip plus
            // residual there and adds the one-lane and 33-image cases where
            // the build is optimized (CI's release step).
            let batches: &[usize] = match (net.name(), cfg!(debug_assertions)) {
                ("LeNet", true) => &[9],
                ("LeNet", false) => &[1, 9, 33],
                _ => &[1, 2, 3, 7, 8, 9, 16, 17, 32, 33, 40],
            };
            let widest = *batches.iter().max().unwrap();
            // Distinct images per lane, so a lane mix-up cannot cancel.
            let mut agen = ActivationGen::new(seed ^ 0xF00D);
            let inputs: Vec<_> = (0..widest)
                .map(|_| agen.generate_for(&net.conv_layers()[0]))
                .collect();
            let expected: Vec<_> = inputs
                .iter()
                .map(|i| forward::dense_forward(net, &weights, i))
                .collect();
            for &tier in crate::simd::available_tiers() {
                for &b in batches {
                    let got = crate::flatten::run_stages(plan.stages(), &inputs[..b], tier);
                    let what = format!("{}, tier {}, B={b}", net.name(), tier.name());
                    assert_eq!(got, expected[..b], "{what}");
                }
            }
            // The public entry point reaches the same pipeline.
            assert_eq!(plan.forward_batch(&inputs[..2]), expected[..2]);
        }
    }

    #[test]
    fn fc_first_network_leaves_the_callers_inputs_intact() {
        // The first stage borrows the caller's tensors; an FC first stage
        // reshapes its activations by value, so it must take its own copy.
        let mut net = ucnn_model::NetworkSpec::new("mlp");
        net.push(ucnn_model::LayerSpec::fully_connected("ip1", 24, 6));
        net.push(ucnn_model::LayerSpec::fully_connected("ip2", 6, 3));
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 41, 0.9);
        let compiled = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
        let mut agen = ActivationGen::new(42);
        let inputs: Vec<_> = (0..3)
            .map(|_| agen.generate_for(&net.conv_layers()[0]))
            .collect();
        let before = inputs.clone();
        let expected: Vec<_> = inputs
            .iter()
            .map(|i| forward::dense_forward(&net, &weights, i))
            .collect();
        for kind in [CompiledNetwork::DEFAULT_BACKEND, BackendKind::BatchThreads] {
            assert_eq!(compiled.forward_batch_with(&inputs, kind), expected);
        }
        assert_eq!(inputs, before);
    }

    #[test]
    #[should_panic(expected = "input dims do not match")]
    fn forward_batch_rejects_wrong_input_shape() {
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 4, 0.9);
        let compiled = CompiledNetwork::compile(&net, &weights, &UcnnConfig::default());
        let _ = compiled.forward_batch(&[Tensor3::filled(3, 5, 5, 1i16)]);
    }

    #[test]
    fn warm_forces_lazy_lowering_for_flattened_backends_only() {
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 61, 0.85);
        let flat_ready = |plan: &CompiledNetwork| {
            plan.stages().iter().all(|s| match s {
                CompiledStage::Conv { layer, .. } => layer.flat_ready(),
                CompiledStage::Pool { .. } => true,
            })
        };
        let streams_built = |plan: &CompiledNetwork| {
            plan.stages().iter().all(|s| match s {
                CompiledStage::Conv { layer, .. } => layer.streams_built(),
                CompiledStage::Pool { .. } => true,
            })
        };
        let compiled = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
        assert!(!flat_ready(&compiled), "lowering must start lazy");
        assert!(!streams_built(&compiled), "streams must start lazy");
        compiled.warm(BackendKind::BatchThreads); // streams, no lowering
        assert!(!flat_ready(&compiled));
        assert!(
            streams_built(&compiled),
            "the stream walker's warm builds its streams"
        );
        compiled.warm(BackendKind::FlattenedBatch);
        assert!(flat_ready(&compiled), "warm must force the lowering");
        compiled.warm(BackendKind::FlattenedBatch); // idempotent
        assert!(flat_ready(&compiled));
    }

    #[test]
    fn a_flattened_warm_keeps_no_stream() {
        // INQ LeNet at G = 2 (every convolution elects its dense tiles from
        // its weights) and TTQ LeNet at G = 4 (conv2 and conv3 elect their
        // walks): after a flattened warm no layer holds a stream, the walked
        // ones included, and the lowering, equality and entry count are
        // those of a plan whose streams were built first.
        let spec = networks::lenet();
        let cases = [
            (QuantScheme::inq(), 0.9, 2, Some(71_984)),
            (QuantScheme::ttq(), 0.6, 4, None),
        ];
        fn layers(plan: &CompiledNetwork) -> Vec<(&str, &CompiledLayer)> {
            let stages = plan.stages().iter();
            stages
                .filter_map(|stage| match stage {
                    CompiledStage::Conv { name, layer, .. } => Some((name.as_str(), layer)),
                    CompiledStage::Pool { .. } => None,
                })
                .collect()
        }
        for (scheme, density, g, entries) in cases {
            let weights = forward::generate_network_weights(&spec, scheme, 0x1E7, density);
            let config = UcnnConfig::with_g(g);
            let lazy = CompiledNetwork::compile(&spec, &weights, &config);
            lazy.warm(BackendKind::FlattenedBatch);
            let eager = CompiledNetwork::compile(&spec, &weights, &config);
            for (_, layer) in layers(&eager) {
                let _ = layer.tiles();
            }
            eager.warm(BackendKind::FlattenedBatch);
            assert_eq!(lazy, eager);
            for ((name, lazy), (_, eager)) in layers(&lazy).into_iter().zip(layers(&eager)) {
                let what = format!("G = {g}, {name}");
                assert!(!lazy.streams_built(), "{what}");
                assert!(eager.streams_built(), "{what}");
                let flat = |layer: &CompiledLayer| format!("{:?}", layer.flat_tiles());
                assert!(flat(lazy) == flat(eager), "{what}");
            }
            assert_eq!(lazy.total_entries(), eager.total_entries());
            if let Some(entries) = entries {
                assert_eq!(lazy.total_entries(), entries);
            }
            let built = layers(&lazy).iter().any(|(_, layer)| layer.streams_built());
            assert!(!built, "counting the entries keeps no stream");
        }
    }

    #[test]
    fn network_metadata() {
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::ttq(), 4, 0.5);
        let compiled = CompiledNetwork::compile(&net, &weights, &UcnnConfig::default());
        assert_eq!(compiled.name(), "tiny");
        assert_eq!(compiled.input_dims(), (3, 12, 12));
        assert_eq!(compiled.stages().len(), 4);
        assert!(compiled.total_entries() > 0);
    }

    #[test]
    #[should_panic(expected = "input dims do not match")]
    fn forward_rejects_wrong_input_shape() {
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 4, 0.9);
        let compiled = CompiledNetwork::compile(&net, &weights, &UcnnConfig::default());
        let _ = compiled.forward(&Tensor3::filled(3, 5, 5, 1i16));
    }
}
