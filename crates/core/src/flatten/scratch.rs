//! Scratch: the cache-line-aligned row buffers the strip kernels walk, the
//! arena that holds them, and the calling thread's arena.

use std::cell::RefCell;

/// Bytes in a cache line — where every `LW`-wide row view starts.
const LINE: usize = 64;

/// A grow-only buffer whose row view starts on a cache-line boundary, so a
/// 32-lane row is exactly one line (`i16`) or two (`i32`) and no strip load
/// or store straddles a boundary. The allocator only promises 16 bytes, and
/// at any other offset every prefix-row access of the 32-lane kernel splits
/// in two (a third of its speed, by where the heap happened to land). The
/// buffer over-allocates one line and the view's start is recomputed from
/// the live pointer on every borrow, so it survives growth.
#[derive(Debug, Default)]
pub(super) struct Rows<T>(Vec<T>);

impl<T: Copy + Default> Rows<T> {
    /// Elements of slack that let the view start up to one line in.
    const SLACK: usize = LINE / std::mem::size_of::<T>();

    fn line_start(&self) -> usize {
        // `align_offset` may decline (`usize::MAX`); an unaligned view is
        // slower, not wrong.
        match self.0.as_ptr().align_offset(LINE) {
            at if at < Self::SLACK => at,
            _ => 0,
        }
    }

    /// The `len` elements from the line boundary, grown (exactly,
    /// zero-filled; never shrunk) to fit first. They hold whatever the last
    /// user left there.
    pub(super) fn rows_mut(&mut self, len: usize) -> &mut [T] {
        let need = len + Self::SLACK;
        if self.0.len() < need {
            self.0.reserve_exact(need - self.0.len());
            self.0.resize(need, T::default());
        }
        let at = self.line_start();
        &mut self.0[at..at + len]
    }

    /// The `len` elements a [`Rows::rows_mut`] of at least that size filled.
    pub(super) fn rows(&self, len: usize) -> &[T] {
        let at = self.line_start();
        &self.0[at..at + len]
    }
}

/// Reusable scratch for the flattened executors: two staged (zero-haloed,
/// batch-interleaved) activation planes, the `LW`-wide prefix lanes, and
/// the lane-major sums of the filter band being executed — each a
/// cache-line-aligned row view.
///
/// One arena serves any number of layers and chunk widths — buffers grow on
/// demand and never shrink. The entry points borrow the calling thread's
/// arena ([`with_thread_scratch`]), so each serving worker thread reuses its
/// own across requests.
#[derive(Debug, Default)]
pub(super) struct FlattenedScratch {
    /// Staged activations: `plane[off · LW + lane]`, `off` over a
    /// zero-haloed plane. A single layer stages into the first; the
    /// network pipeline ping-pongs, every stage reading one and writing
    /// its consumer's input into the other.
    pub(super) planes: [Rows<i16>; 2],
    /// Prefix-sum lanes: `rows · LW` values, row `j` = prefix at the `j`-th
    /// kept (outer-level) close (row 0 = zeros).
    pub(super) prefix: Rows<i32>,
    /// Lane-major sums of one filter band: `band_lanes[off · LW + lane]`,
    /// `off` counted from the band's first output plane. `G` planes, not
    /// the layer's `K` — a band leaves for its consumer before the next one
    /// starts.
    pub(super) band_lanes: Rows<i32>,
    /// The band's `relu_saturate`d activations, when a pool consumes them
    /// band by band instead of a plane.
    pub(super) band_acts: Rows<i16>,
    /// One row of a max pool's window, its rows reduced to one.
    pub(super) pool_row: Rows<i16>,
}

thread_local! {
    /// The arena behind the entry points, one per calling thread: serving
    /// workers are threads, so this is a per-worker arena without any API
    /// plumbing.
    static THREAD_SCRATCH: RefCell<FlattenedScratch> = RefCell::default();
}

/// Runs `f` with the calling thread's [`FlattenedScratch`] arena.
pub(super) fn with_thread_scratch<R>(f: impl FnOnce(&mut FlattenedScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::UcnnConfig;
    use crate::flatten::kernel::{chunk_widths, LANE_WIDTH};
    use crate::flatten::network::{haloed_len, run_network_chunk};
    use crate::flatten::oracle::alone;
    use crate::flatten::run_stages;
    use crate::plan::{CompiledLayer, CompiledNetwork};
    use crate::simd::{available_tiers, SimdCaps, SimdTier};
    use ucnn_model::{forward, reference, ActivationGen, QuantScheme, WeightGen};
    use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};

    /// A batch of one layer, as a one-stage list, on one explicit arena,
    /// chunk by chunk — what `run_stages` does with the calling thread's.
    fn run_on_arena(
        layer: &CompiledLayer,
        inputs: &[Tensor3<i16>],
        scratch: &mut FlattenedScratch,
        tier: SimdTier,
    ) -> Vec<Tensor3<i32>> {
        let geom = layer.geom();
        let mut outs: Vec<Tensor3<i32>> = inputs
            .iter()
            .map(|_| Tensor3::zeros(geom.k(), geom.out_w(), geom.out_h()))
            .collect();
        let (stages, tier) = (alone(layer.clone()), SimdCaps::get().probe(tier));
        let mut start = 0;
        for width in chunk_widths(inputs.len(), tier.tier().lane_width()) {
            let end = start + width;
            let (ins, outs) = (&inputs[start..end], &mut outs[start..end]);
            run_network_chunk(&stages, ins, outs, scratch, tier);
            start = end;
        }
        outs
    }

    /// Channels the staged input of `layer` holds: its own, and a zero one
    /// after an odd count where its bands are dense tiles (which read the
    /// channels in pairs).
    fn staged_channels(layer: &CompiledLayer) -> usize {
        let pair = if layer.flat_tiles()[0].is_dense() {
            2
        } else {
            1
        };
        layer.geom().c().next_multiple_of(pair)
    }

    /// Bytes of heap a row buffer holds (its capacity, slack included).
    fn bytes<T>(buf: &Rows<T>) -> usize {
        buf.0.capacity() * std::mem::size_of::<T>()
    }

    /// Bytes of heap the arena holds — what an executor thread keeps
    /// resident between calls.
    fn resident_bytes(scratch: &FlattenedScratch) -> usize {
        let [even, odd] = &scratch.planes;
        let lanes = bytes(&scratch.prefix) + bytes(&scratch.band_lanes);
        let acts = bytes(&scratch.band_acts) + bytes(&scratch.pool_row);
        bytes(even) + bytes(odd) + acts + lanes
    }

    /// Where each of the arena's six row buffers lives and how much it
    /// holds: any reallocation or growth changes it.
    fn arena_layout(scratch: &FlattenedScratch) -> [(usize, usize); 6] {
        fn at<T>(buf: &Rows<T>) -> (usize, usize) {
            (buf.0.as_ptr() as usize, buf.0.capacity())
        }
        let [even, odd] = &scratch.planes;
        let (acts, prefix) = (at(&scratch.band_acts), at(&scratch.prefix));
        let pool_row = at(&scratch.pool_row);
        [
            at(even),
            at(odd),
            acts,
            prefix,
            at(&scratch.band_lanes),
            pool_row,
        ]
    }

    /// Every allocated row buffer of the arena hands out its view at
    /// `addr % 64 == 0`.
    fn assert_aligned(scratch: &FlattenedScratch, what: &str) {
        fn starts<T: Copy + Default>(buf: &Rows<T>) -> usize {
            if buf.0.is_empty() {
                return 0;
            }
            buf.rows(buf.0.len() - Rows::<T>::SLACK).as_ptr() as usize % LINE
        }
        let [even, odd] = &scratch.planes;
        let (acts, prefix) = (starts(&scratch.band_acts), starts(&scratch.prefix));
        let lines = [
            starts(even),
            starts(odd),
            acts,
            prefix,
            starts(&scratch.band_lanes),
            starts(&scratch.pool_row),
        ];
        assert_eq!(lines, [0; 6], "{what}: a row view is off its cache line");
    }

    #[test]
    fn explicit_scratch_arena_is_reusable_across_layers_and_widths() {
        // One arena across different layers, chunk widths, and padded and
        // unpadded staging: buffers only grow, results stay exact.
        let mut scratch = FlattenedScratch::default();
        let geoms = [
            ConvGeom::new(1, 1, 32, 6, 1, 1),
            ConvGeom::new(6, 5, 4, 3, 3, 3).with_pad(1),
        ];
        let mut agen = ActivationGen::new(77);
        for (gi, geom) in geoms.iter().enumerate() {
            let mut wgen = WeightGen::new(QuantScheme::inq(), 70 + gi as u64).with_density(0.8);
            let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
            let layer = CompiledLayer::compile(geom, 1, &weights, &UcnnConfig::with_g(2));
            for b in [2usize, 8, 11] {
                let inputs: Vec<Tensor3<i16>> = (0..b)
                    .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                    .collect();
                let expected: Vec<Tensor3<i32>> = inputs
                    .iter()
                    .map(|i| reference::conv2d(geom, 1, i, &weights))
                    .collect();
                assert_eq!(
                    run_on_arena(&layer, &inputs, &mut scratch, SimdCaps::get().best()),
                    expected,
                    "layer {gi}, B={b}"
                );
            }
        }
    }

    #[test]
    fn scratch_capacity_follows_dispatch_width_across_mixed_width_layers() {
        // One arena alternating between layers run at every available tier
        // width (8/16/32 on full AVX-512 hardware). Once each layer has run
        // on the widest tier, the buffers never reallocate — pointers and
        // capacities stay put across every mixed-width run — and results
        // stay exact.
        let best = SimdCaps::get().best();
        let widest = best.lane_width();
        let geoms = [
            ConvGeom::new(1, 1, 48, 6, 1, 1),
            ConvGeom::new(5, 4, 3, 4, 3, 3).with_pad(1),
        ];
        let layers: Vec<(CompiledLayer, Tensor4<i16>)> = geoms
            .iter()
            .enumerate()
            .map(|(gi, geom)| {
                let mut wgen = WeightGen::new(QuantScheme::inq(), 90 + gi as u64).with_density(0.8);
                let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
                let layer = CompiledLayer::compile(geom, 1, &weights, &UcnnConfig::with_g(2));
                (layer, weights)
            })
            .collect();
        let mut scratch = FlattenedScratch::default();
        let mut agen = ActivationGen::new(91);
        let mut run = |scratch: &mut FlattenedScratch, tier: SimdTier, what: &str| {
            for ((layer, weights), geom) in layers.iter().zip(&geoms) {
                // A full-width chunk (on the conv: strips of four positions
                // × the chunk, capped by the tier), then a chunk of three at
                // pitch 8 (two copies of each image on the conv, idle lanes
                // on the FC layer).
                let b = tier.lane_width() + 3;
                let inputs: Vec<Tensor3<i16>> = (0..b)
                    .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                    .collect();
                let expected: Vec<Tensor3<i32>> = inputs
                    .iter()
                    .map(|i| reference::conv2d(geom, 1, i, weights))
                    .collect();
                let got = run_on_arena(layer, &inputs, scratch, tier);
                assert_eq!(got, expected, "{what}, tier {}", tier.name());
            }
        };
        run(&mut scratch, best, "growth");
        // The output staging holds one filter band (G = 2 planes of the
        // larger layer), not a layer (K = 6 / 4 planes); every buffer
        // carries one cache line of alignment slack on top of its rows.
        let band = geoms
            .iter()
            .map(|geom| 2 * geom.out_w() * geom.out_h())
            .max()
            .unwrap();
        let (i16_line, i32_line) = (Rows::<i16>::SLACK, Rows::<i32>::SLACK);
        assert_eq!(scratch.band_lanes.0.capacity(), band * widest + i32_line);
        // The staged chunk covers the padded conv's haloed plane (126
        // offsets, 168 with the zero channel of a dense layer: more than the
        // FC layer's 48). The second plane is the network pipeline's.
        assert_eq!(
            scratch.planes[0].0.capacity(),
            staged_channels(&layers[1].0) * (5 + 2) * (4 + 2) * widest + i16_line
        );
        assert_eq!(scratch.planes[1].0.capacity(), 0);
        // Each layer's rows are as wide as the widest strip a full chunk of
        // it runs on the widest tier: the chunk itself on the FC layer, four
        // positions (the conv's whole output row) × the chunk on the conv.
        let strips = [widest, (4 * widest).min(best.strip_lanes())];
        let prefix = layers.iter().zip(strips).map(|((layer, _), strip)| {
            layer.flat_tiles().iter().map(|t| t.rows).max().unwrap() * strip
        });
        assert_eq!(
            scratch.prefix.0.capacity(),
            prefix.max().unwrap() + i32_line
        );
        let grown = arena_layout(&scratch);
        for round in 0..2 {
            for &tier in available_tiers() {
                run(&mut scratch, tier, &format!("round {round}"));
            }
        }
        assert_eq!(
            arena_layout(&scratch),
            grown,
            "arena buffers grew or reallocated after the widest tier's run"
        );
    }

    #[test]
    fn every_row_view_starts_on_a_cache_line() {
        // After a run, and after growth to a larger layer, each of the
        // arena's row buffers hands out views at `addr % 64 == 0` at every
        // strip width, and holds its rows plus one line of slack. The prefix
        // rows are as wide as the widest strip a chunk of `lw` images runs —
        // positions × its pitch (eight lanes for one image): output rows of
        // 4 and 9 positions give strips 4 and 8 positions deep, as far as
        // the tier's `strip_lanes` allow — and there is one per *kept* close,
        // which the larger layer need not have more of: the arena only
        // grows, so the prefix holds the larger demand.
        let best = SimdCaps::get().best();
        let geoms = [
            (ConvGeom::new(5, 4, 3, 4, 3, 3).with_pad(1), 4),
            (ConvGeom::new(9, 7, 4, 6, 3, 3).with_pad(2), 8),
        ];
        let mut agen = ActivationGen::new(93);
        for lw in [1usize, 8, 16, 32] {
            let mut scratch = FlattenedScratch::default();
            let mut prefix = 0;
            for (gi, (geom, positions)) in geoms.iter().enumerate() {
                let mut wgen = WeightGen::new(QuantScheme::inq(), 92 + gi as u64).with_density(0.8);
                let weights = wgen.generate_dims(geom.k(), geom.c(), 3, 3);
                let layer = CompiledLayer::compile(geom, 1, &weights, &UcnnConfig::with_g(2));
                // `lw` images: one chunk on any tier that has it.
                let inputs: Vec<Tensor3<i16>> = (0..lw)
                    .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                    .collect();
                let got = run_on_arena(&layer, &inputs, &mut scratch, best);
                for (input, out) in inputs.iter().zip(&got) {
                    assert_eq!(out, &reference::conv2d(geom, 1, input, &weights));
                }
                assert_aligned(&scratch, &format!("LW {lw}, layer {gi}"));
                let rows = layer.flat_tiles().iter().map(|t| t.rows).max().unwrap();
                let pitch = lw.min(best.lane_width()).max(LANE_WIDTH);
                prefix = prefix.max(rows * (positions * pitch).min(best.strip_lanes()));
                let staged = (staged_channels(&layer), geom.in_w(), geom.in_h());
                let cells = haloed_len(staged, geom.pad());
                assert_eq!(
                    resident_bytes(&scratch),
                    (cells * 2 + 8 * geom.out_w() * geom.out_h()) * pitch + prefix * 4 + 3 * LINE,
                    "LW {lw}, layer {gi}: rows plus one line of slack per buffer"
                );
            }
        }
    }

    #[test]
    fn output_staging_is_one_filter_band_not_the_layer() {
        // K = 32 filters in bands of G = 2: after a 32-image forward the
        // arena's output staging holds one band (G planes × LW lanes), a
        // sixteenth of what staging the whole layer took.
        let (k, g) = (32usize, 2usize);
        let geom = ConvGeom::new(8, 8, 3, k, 3, 3).with_pad(1);
        let mut wgen = WeightGen::new(QuantScheme::inq(), 95).with_density(0.8);
        let weights = wgen.generate_dims(k, 3, 3, 3);
        let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::with_g(g));
        let mut agen = ActivationGen::new(96);
        let inputs: Vec<Tensor3<i16>> = (0..32).map(|_| agen.generate(3, 8, 8)).collect();

        let best = SimdCaps::get().best();
        let mut scratch = FlattenedScratch::default();
        assert_eq!(resident_bytes(&scratch), 0, "a new arena holds nothing");
        let got = run_on_arena(&layer, &inputs, &mut scratch, best);
        for (input, out) in inputs.iter().zip(&got) {
            assert_eq!(out, &reference::conv2d(&geom, 1, input, &weights));
        }

        // 32 images fill the widest tier's strip, so LW is the tier width.
        let lw = best.lane_width();
        let plane = geom.out_w() * geom.out_h();
        let staging = bytes(&scratch.band_lanes);
        assert!(
            staging <= g * plane * lw * 4 + LINE,
            "output staging {staging} B exceeds one band ({} B) and its slack",
            g * plane * lw * 4
        );
        // The 8-position output rows run as strips of as many positions ×
        // the chunk as the tier's registers hold.
        let strip = (8 * lw).min(best.strip_lanes());
        let max_rows = layer.flat_tiles().iter().map(|t| t.rows).max().unwrap();
        let staged = staged_channels(&layer) * (8 + 2) * (8 + 2) * lw * 2;
        assert_eq!(
            resident_bytes(&scratch),
            staged + max_rows * strip * 4 + staging + 2 * LINE,
            "the arena is the haloed staged input + kept-close prefix lanes + one band, \
             each with its line of alignment slack"
        );
        assert!(
            resident_bytes(&scratch) < k * plane * lw * 4,
            "the whole arena must be smaller than whole-layer staging alone"
        );
        // One image runs at pitch 8, eight copies of one output row each:
        // no wider than the strips that grew the arena.
        let grown = resident_bytes(&scratch);
        let got = run_on_arena(&layer, &inputs[..1], &mut scratch, best);
        assert_eq!(got[0], reference::conv2d(&geom, 1, &inputs[0], &weights));
        assert_eq!(resident_bytes(&scratch), grown);
    }

    #[test]
    fn threaded_calls_reuse_the_calling_threads_arena_pool() {
        // A one-layer call and two whole-network calls (a full batch, and
        // one image at pitch 8 out of the same buffers), twice, on each of
        // two threads at once — the way serving workers call. A thread's
        // first round grows its own arena; its second finds every buffer
        // where it was — same pointers, same capacities — so the steady
        // state allocates the output tensors and nothing else.
        let net = ucnn_model::networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 97, 0.85);
        let plan = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
        let tier = SimdCaps::get().best();
        let mut agen = ActivationGen::new(98);
        let inputs: Vec<Tensor3<i16>> = (0..2 * tier.lane_width())
            .map(|_| agen.generate_for(&net.conv_layers()[0]))
            .collect();
        let arena = || THREAD_SCRATCH.with(|cell| arena_layout(&cell.borrow()));
        let calls = || {
            (
                run_stages(&plan.stages()[..1], &inputs, tier),
                run_stages(plan.stages(), &inputs, tier),
                run_stages(plan.stages(), &inputs[..1], tier),
            )
        };
        // Both threads hold their grown arena until both have grown one.
        let both_grown = std::sync::Barrier::new(2);
        let worker = || {
            assert!(arena().iter().all(|&(_, capacity)| capacity == 0));
            let first = calls();
            let grown = arena();
            assert!(grown.iter().all(|&(_, capacity)| capacity > 0));
            let second = calls();
            assert_eq!(arena(), grown, "steady state must not touch the arena");
            assert_eq!(first, second);
            // The pipeline's own buffers exist now (tiny pools a band of its
            // second convolution): all six sit on a line.
            THREAD_SCRATCH.with(|cell| assert_aligned(&cell.borrow(), "after a network call"));
            both_grown.wait();
            (first, grown)
        };
        let (a, b) = std::thread::scope(|scope| {
            let (a, b) = (scope.spawn(worker), scope.spawn(worker));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.0, b.0);
        assert_ne!(a.1, b.1, "each thread grows an arena of its own");
    }
}
