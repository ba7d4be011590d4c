//! The chunk-major driver: staging into and out of the lane layout, filter
//! bands, the inter-layer epilogue, lane-major pooling, and the loop that
//! cuts a batch into lane chunks.
//!
//! A chunk runs at one compile-time pitch `LW` ([`run_chunk`]), and every
//! lane loop between the kernels — staging, channel pairing, the relu
//! epilogue and pooling — works on whole cells, `[T; LW]` arrays: a cell is
//! loaded whole into a local, combined lane by lane in a loop of `LW` trips
//! (a lane-wise max, a widening add, a saturating narrow, an interleave of
//! two channels) and stored whole ([`combine_cells`]). This code runs
//! outside the tiers' `#[target_feature]` kernels, under baseline codegen,
//! and that shape is what LLVM lowers to whole-register SSE2 there
//! (`pmaxsw`, `packssdw`, `punpcklwd`): the lanes of a local cannot alias
//! the buffer it is stored to, and the trip count is a constant. Three
//! shapes compiled to a scalar `cmovg`, `movswl` or `movzwl` per lane
//! instead (docs/LAB.md Part 24): a lane loop with a runtime bound (`for l
//! in 0..images`), an `array::map` (an out-of-line `try_map` per cell), and
//! a lane loop storing into a buffer LLVM cannot tell apart from the one it
//! reads. A cell built by `std::array::from_fn` left the channel interleave
//! and a 32-lane max scalar too. Staging is a transpose: it stores each
//! image's row into its lane of a staged row's cells, while they are in L1.

use std::array::from_fn;

use ucnn_model::PoolKind;
use ucnn_tensor::{ConvGeom, Tensor3};

use super::kernel::{accumulate_tile_lanes, chunk_widths, strip_runs, Lanes};
use super::kernel::{LANE_WIDTH, MAX_CHUNK};
use super::scratch::{with_thread_scratch, FlattenedScratch, Rows};
use crate::plan::{CompiledLayer, CompiledStage};
use crate::simd::{Probed, SimdCaps, SimdTier};

/// `(channels, width, height)` of an activation tensor.
pub(crate) type Dims = (usize, usize, usize);

/// Cells of a `dims` plane inside a `pad`-wide halo.
pub(super) fn haloed_len((c, w, h): Dims, pad: usize) -> usize {
    c * (w + 2 * pad) * (h + 2 * pad)
}

/// How many channels share a staged lane for `layer`: 2 where its bands are
/// dense tiles, which read `(x_2c, x_2c+1)` per lane — a channel pair's
/// cells are `2·pitch` values, lane `l` of channel `c` at `2l + c % 2`, and
/// an odd channel count is staged with a zero channel after it — else 1.
fn pair_of(layer: &CompiledLayer) -> usize {
    if layer.flat_tiles()[0].is_dense() {
        2
    } else {
        1
    }
}

/// `dims` with room for its channels staged `pair` to a lane.
fn paired((c, w, h): Dims, pair: usize) -> Dims {
    (c.next_multiple_of(pair), w, h)
}

/// Pairs the channels of a lane-major plane in place, as a dense layer reads
/// them ([`pair_of`]): `c` channels of `cells` cells of `LW` lanes, room for
/// one more after an odd `c`, become `(x_2c, x_2c+1)` per lane, the last
/// pair's second channel zero after an odd `c`. Each pair is copied whole
/// into `spare` (the zero channel written there) and interleaved out of it,
/// a cell of each channel into a cell of pairs.
fn pair_channels<const LW: usize>(
    plane: &mut [i16],
    c: usize,
    cells: usize,
    spare: &mut Rows<i16>,
) {
    let n = cells * LW;
    let spare = spare.rows_mut(2 * n);
    let pairs = plane[..c.next_multiple_of(2) * n].chunks_exact_mut(2 * n);
    for (p, pair) in pairs.enumerate() {
        spare.copy_from_slice(pair);
        if 2 * p + 1 == c {
            spare[n..].fill(0);
        }
        let (first, second) = spare.as_chunks::<LW>().0.split_at(cells);
        let out = pair.as_chunks_mut::<2>().0.as_chunks_mut::<LW>().0;
        for ((o, a), b) in out.iter_mut().zip(first).zip(second) {
            let (a, b) = (*a, *b);
            let mut pairs = [[0; 2]; LW];
            for l in 0..LW {
                pairs[l] = [a[l], b[l]];
            }
            *o = pairs;
        }
    }
}

/// [`Lanes::replicate`] over a plane staged `pair` channels to a lane.
fn replicate(lanes: Lanes, plane: &mut [i16], geom: &ConvGeom, pair: usize) {
    match pair {
        1 => lanes.replicate(plane, geom),
        _ => lanes.replicate(plane.as_chunks_mut::<2>().0, geom),
    }
}

/// Zeroes the `pad`-wide halo ring of a lane-major plane (`c` channels of
/// `(w + 2·pad) × (h + 2·pad)` cells, `lw` lanes each) and leaves the
/// interior alone: whoever fills the plane overwrites every interior cell,
/// so the ring is all that can leak what the buffer last held.
fn zero_halo(plane: &mut [i16], (_, w, h): Dims, pad: usize, lw: usize) {
    if pad == 0 {
        return;
    }
    let (pw, ph) = (w + 2 * pad, h + 2 * pad);
    for channel in plane.chunks_exact_mut(pw * ph * lw) {
        // The ring is the gaps between consecutive interior rows.
        let mut gap = 0;
        for x in 0..w {
            let row = ((x + pad) * ph + pad) * lw;
            channel[gap..row].fill(0);
            gap = row + h * lw;
        }
        channel[gap..].fill(0);
    }
}

/// The staging transpose behind [`stage_chunk`]: `images` (at most `LW`)
/// are `c × w × h` planes, `out` becomes their batch-interleaved copy inside
/// a `pad`-wide zero halo — cells of `LW` lanes of `P` channels over
/// `⌈c/P⌉ × (w + 2·pad) × (h + 2·pad)`, lane `l` image `l`, the lanes past
/// the images zero — its channels `P` to a lane ([`pair_of`]).
/// The halo ring is re-zeroed on every call ([`zero_halo`]), and so are the
/// lanes past the images and the zero channel after an odd `c` (the row's
/// cells are zeroed before the images' rows are stored into them), so an
/// arena that last held another layer's chunk leaks nothing into it.
fn stage_lanes<const LW: usize, const P: usize>(
    images: &[Tensor3<i16>],
    (c, w, h): Dims,
    pad: usize,
    out: &mut [i16],
) {
    let (b, pw, ph) = (images.len(), w + 2 * pad, h + 2 * pad);
    assert!(
        (1..=LW).contains(&b) && images.iter().all(|img| img.as_slice().len() == c * w * h),
        "interleaved images must be equally sized, at most a chunk"
    );
    zero_halo(out, (c, w, h), pad, LW * P);
    let out = out.as_chunks_mut::<P>().0.as_chunks_mut::<LW>().0;
    for (g, group) in out.chunks_exact_mut(pw * ph).enumerate() {
        // The group's real channels; a pair past them is the zero channel.
        let real = (c - g * P).min(P);
        for x in 0..w {
            let dst = &mut group[(x + pad) * ph + pad..][..h];
            if b < LW || real < P {
                dst.fill([[0; P]; LW]);
            }
            for (l, image) in images.iter().enumerate() {
                for p in 0..real {
                    let row = &image.as_slice()[((g * P + p) * w + x) * h..][..h];
                    for (cell, &v) in dst.iter_mut().zip(row) {
                        cell[l][p] = v;
                    }
                }
            }
        }
    }
}

/// The chunk as the strip kernels read it: staged `LW` lanes wide, its
/// channels `pair` to a lane, through [`stage_lanes`] into `staged`'s
/// cache-line-aligned rows, inside the `pad`-wide zero halo the gather
/// offsets are lowered against.
fn stage_chunk<'a, const LW: usize>(
    inputs: &[Tensor3<i16>],
    pad: usize,
    pair: usize,
    staged: &'a mut Rows<i16>,
) -> &'a mut [i16] {
    let first = &inputs[0];
    let dims = (first.c(), first.w(), first.h());
    let rows = staged.rows_mut(haloed_len(paired(dims, pair), pad) * LW);
    match pair {
        1 => stage_lanes::<LW, 1>(inputs, dims, pad, rows),
        _ => stage_lanes::<LW, 2>(inputs, dims, pad, rows),
    }
    rows
}

/// The de-interleaving transpose, the last stage's way out of the lane
/// layout, over rows of `h` cells of `lw` lanes:
/// `outs[i][at + r·h + y] = convert(cells[(kept·h + y)·lw + from + i])`,
/// row `r` kept at `stored(r) = (kept, from)`. A row stays in L1 while every
/// image visits it, so each output slice is written in contiguous runs.
fn scatter_lanes<T: Copy, U, O: AsMut<[U]>>(
    cells: &[T],
    (lw, h): (usize, usize),
    stored: impl Fn(usize) -> (usize, usize),
    outs: &mut [O],
    at: usize,
    convert: impl Fn(T) -> U,
) {
    for r in 0..cells.len() / (h * lw) {
        let (kept, from) = stored(r);
        let row = &cells[kept * h * lw..][..h * lw];
        for (i, out) in outs.iter_mut().enumerate() {
            let dst = &mut out.as_mut()[at + r * h..][..h];
            for (d, cell) in dst.iter_mut().zip(row.chunks_exact(lw)) {
                *d = convert(cell[from + i]);
            }
        }
    }
}

/// Walks `layer` over a chunk staged as `lanes` one filter band at a time:
/// zeroes the rows of the band's lane-major sums the copies walk,
/// accumulates the band's channel tiles into them (a dense tile stores
/// them, unzeroed) and hands them — each
/// real row where [`Lanes::stored`] says — to `sink(k_first, sums, prefix)`
/// while they are cache-resident, with the prefix rows it is done with.
fn run_bands(
    layer: &CompiledLayer,
    input: &[i16],
    lanes: Lanes,
    tier: Probed,
    prefix: &mut Rows<i32>,
    band_lanes: &mut Rows<i32>,
    mut sink: impl FnMut(usize, &[i32], &mut Rows<i32>),
) {
    debug_assert!(matches!(lanes.pitch, 8 | 16 | MAX_CHUNK), "{lanes:?}");
    let geom = layer.geom();
    let plane = geom.out_w() * geom.out_h();
    // `CompiledLayer::compile` emits tiles band by band, so the channel
    // tiles that accumulate into one filter band are adjacent.
    let mut rest = layer.flat_tiles();
    while let Some(first) = rest.first() {
        let (k_first, g) = (first.k_first, first.g);
        let tiles = rest.iter().take_while(|t| t.k_first == k_first).count();
        let (band, after) = rest.split_at(tiles);
        let sums = band_lanes.rows_mut(g * plane * lanes.pitch);
        // A dense tile stores every sum the copies walk; walks add.
        if !first.is_dense() {
            for plane in sums.chunks_exact_mut(plane * lanes.pitch) {
                plane[..lanes.rows * geom.out_h() * lanes.pitch].fill(0);
            }
        }
        for tile in band {
            for run in strip_runs(geom, lanes, tier.tier()) {
                let prefix = prefix.rows_mut(tile.rows * run.width);
                accumulate_tile_lanes(tile, input, sums, geom, prefix, &run, tier);
            }
        }
        sink(k_first, sums, prefix);
        rest = after;
    }
}

/// A lane-major activation plane while its producer fills it: `c × w × h`
/// cells of `LW` lanes inside the `pad`-wide zero halo its **consumer**
/// reads through — so a padded convolution finds its input already staged.
struct PlaneMut<'a, const LW: usize> {
    cells: &'a mut [[i16; LW]],
    dims: Dims,
    pad: usize,
}

impl<'a, const LW: usize> PlaneMut<'a, LW> {
    /// Claims `buf`'s aligned rows for the plane — with room for its
    /// channels `pair` to a lane, which its consumer pairs in place
    /// ([`pair_channels`]) — and zeroes its halo ring.
    fn new(buf: &'a mut Rows<i16>, dims: Dims, pad: usize, pair: usize) -> Self {
        let cells = buf.rows_mut(haloed_len(paired(dims, pair), pad) * LW);
        zero_halo(cells, dims, pad, LW);
        Self {
            cells: cells.as_chunks_mut::<LW>().0,
            dims,
            pad,
        }
    }

    /// Interior row `x` of channel `c`: `h` contiguous cells.
    fn row(&mut self, c: usize, x: usize) -> &mut [[i16; LW]] {
        let (_, w, h) = self.dims;
        let (pw, ph) = (w + 2 * self.pad, h + 2 * self.pad);
        let at = (c * pw + x + self.pad) * ph + self.pad;
        &mut self.cells[at..][..h]
    }

    /// The inter-layer epilogue: a finished band's sums (whole output
    /// planes from channel `c0`, walked as `lanes`) enter the plane through
    /// [`relu_row`], each real row at its place in the plane.
    fn write_relu(&mut self, c0: usize, sums: &[i32], lanes: Lanes) {
        let (_, w, h) = self.dims;
        let keep = images_mask::<LW>(lanes);
        for r in 0..sums.len() / (h * LW) {
            relu_row(
                self.row(c0 + r / w, r % w),
                real_row(sums, lanes, r, (w, h)),
                &keep,
            );
        }
    }
}

/// All ones on the lanes of `lanes`' images, zero past them.
fn images_mask<const LW: usize>(lanes: Lanes) -> [i32; LW] {
    from_fn(|l| -i32::from(l < lanes.images))
}

/// Real row `r` of a band's lane-major sums walked as `lanes` (planes of
/// `w` rows of `h` cells): the `h` cells that start at its copy's first lane
/// in the row [`Lanes::stored`] keeps it in. Past the images a cell's lanes
/// hold the next copy, or the start of the next stored row (a folded plane
/// keeps fewer rows than it has), for the caller to mask.
fn real_row<const LW: usize>(
    sums: &[i32],
    lanes: Lanes,
    r: usize,
    (w, h): (usize, usize),
) -> &[[i32; LW]] {
    let (kept, from) = lanes.stored(r, w);
    sums[kept * h * LW + from..][..h * LW].as_chunks::<LW>().0
}

/// `dst` ← [`relu`] of `sums`, cell by cell, the lanes `keep` clears zero
/// (masked as `i32`s: after the narrowing the mask cost a repack).
/// Out of line: inlined where `keep` is built, LLVM knew each lane of it
/// was 0 or -1, turned the mask into a select per lane and scalarized it.
#[inline(never)]
fn relu_row<const LW: usize>(dst: &mut [[i16; LW]], sums: &[[i32; LW]], keep: &[i32; LW]) {
    for (d, s) in dst.iter_mut().zip(sums) {
        let mut acts = [0; LW];
        for l in 0..LW {
            acts[l] = relu(s[l] & keep[l]);
        }
        *d = acts;
    }
}

/// A pool fused onto a convolution, over one finished band: its sums (whole
/// `w × h` output planes, walked as `lanes`) relu'd into `acts` real row by
/// real row — unfolded from their copies ([`real_row`]), the lanes past the
/// images zero — then pooled ([`pool_lanes`]) into `dst`'s channels from
/// `c0`.
fn relu_pool<const LW: usize>(
    sums: &[i32],
    (lanes, w, h): (Lanes, usize, usize),
    pool: (PoolKind, usize, usize),
    (acts, max_row, sum_row): (&mut Rows<i16>, &mut Rows<i16>, &mut Rows<i32>),
    dst: &mut PlaneMut<'_, LW>,
    c0: usize,
) {
    let keep = images_mask::<LW>(lanes);
    let acts = acts.rows_mut(sums.len()).as_chunks_mut::<LW>().0;
    if lanes.bands == 1 {
        // Every row is kept where it is: the band in one pass.
        relu_row(acts, sums.as_chunks::<LW>().0, &keep);
    } else {
        for (r, row) in acts.chunks_exact_mut(h).enumerate() {
            relu_row(row, real_row(sums, lanes, r, (w, h)), &keep);
        }
    }
    let band = (sums.len() / (w * h * LW), w, h);
    pool_lanes(acts, band, pool, (max_row, sum_row), dst, c0);
}

/// `reference::relu_saturate` of one sum: a saturating narrow, then the
/// floor — both have a baseline vector form (a clamp to `0..=i16::MAX` has
/// none below SSE4.1).
fn relu(s: i32) -> i16 {
    (s.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16).max(0)
}

/// `reference::pool2d` over lane-major cells, per lane element for element:
/// pools `src` (`c × w × h` cells, no halo) into `dst`'s channels from
/// `c0`. Separably — max and integer sums are associative: a window's rows
/// (clipped at the plane's far edge) into one row of `h` cells, `max_row`
/// or the widened `sum_row`, then each output cell from that row's cells
/// (clipped the same way).
fn pool_lanes<const LW: usize>(
    src: &[[i16; LW]],
    (c, w, h): Dims,
    (kind, size, stride): (PoolKind, usize, usize),
    (max_row, sum_row): (&mut Rows<i16>, &mut Rows<i32>),
    dst: &mut PlaneMut<'_, LW>,
    c0: usize,
) {
    let (_, out_w, _) = dst.dims;
    let max_row = max_row.rows_mut(h * LW).as_chunks_mut::<LW>().0;
    let sum_row = sum_row.rows_mut(h * LW).as_chunks_mut::<LW>().0;
    for ch in 0..c {
        for ox in 0..out_w {
            let (x0, x1) = (ox * stride, (ox * stride + size).min(w));
            let window = &src[(ch * w + x0) * h..][..(x1 - x0) * h];
            let (first, rest) = window.split_at(h);
            let cells = dst.row(c0 + ch, ox).iter_mut().enumerate();
            if kind == PoolKind::Max {
                max_row.copy_from_slice(first);
                for row in rest.chunks_exact(h) {
                    combine_cells(max_row, row, |m, v| m.max(v));
                }
                for (oy, cell) in cells {
                    let column = &max_row[oy * stride..(oy * stride + size).min(h)];
                    *cell = fold_cells(column[0], &column[1..], i16::max);
                }
                continue;
            }
            combine_cells(sum_row, first, |_, v| i32::from(v));
            for row in rest.chunks_exact(h) {
                combine_cells(sum_row, row, |s, v| s + i32::from(v));
            }
            for (oy, cell) in cells {
                let column = &sum_row[oy * stride..(oy * stride + size).min(h)];
                let sum = fold_cells(column[0], &column[1..], |s, v| s + v);
                // The window sizes a 2×2 or 3×3 pool meets (clipped at the
                // edges or not) divide by a constant — a multiply and
                // shifts, lane-wide — where `s / n` is an `idiv` per lane.
                match ((x1 - x0) * column.len()) as i32 {
                    1 => divide_lanes(cell, &sum, 1),
                    2 => divide_lanes(cell, &sum, 2),
                    3 => divide_lanes(cell, &sum, 3),
                    4 => divide_lanes(cell, &sum, 4),
                    6 => divide_lanes(cell, &sum, 6),
                    9 => divide_lanes(cell, &sum, 9),
                    n => divide_lanes(cell, &sum, n),
                }
            }
        }
    }
}

/// `acc[i] = f(acc[i], cells[i])` lane by lane: each cell loaded whole,
/// combined in a loop of `LW` trips, stored whole (see the module docs).
#[inline(always)]
fn combine_cells<A: Copy, T: Copy, const LW: usize>(
    acc: &mut [[A; LW]],
    cells: &[[T; LW]],
    f: impl Fn(A, T) -> A,
) {
    for (a, v) in acc.iter_mut().zip(cells) {
        let (mut lanes, v) = (*a, *v);
        for l in 0..LW {
            lanes[l] = f(lanes[l], v[l]);
        }
        *a = lanes;
    }
}

/// `cells` folded into `init` by `f`, lane by lane, as [`combine_cells`].
#[inline(always)]
fn fold_cells<A: Copy, T: Copy, const LW: usize>(
    init: [A; LW],
    cells: &[[T; LW]],
    f: impl Fn(A, T) -> A,
) -> [A; LW] {
    let mut acc = init;
    for v in cells {
        let v = *v;
        for l in 0..LW {
            acc[l] = f(acc[l], v[l]);
        }
    }
    acc
}

/// `cell[lane] = sum[lane] / n`, truncating toward zero as the reference's
/// average pool does; inlined so a literal `n` reaches the division.
#[inline(always)]
fn divide_lanes<const LW: usize>(cell: &mut [i16; LW], sum: &[i32; LW], n: i32) {
    for l in 0..LW {
        cell[l] = (sum[l] / n) as i16;
    }
}

/// A whole network over one lane chunk: [`run_chunk`] at the chunk's pitch.
pub(super) fn run_network_chunk(
    stages: &[CompiledStage],
    inputs: &[Tensor3<i16>],
    outs: &mut [Tensor3<i32>],
    scratch: &mut FlattenedScratch,
    tier: Probed,
) {
    // Every plane is `pitch` lanes a cell, the lanes past the images zero.
    match inputs.len().max(LANE_WIDTH) {
        8 => run_chunk::<8>(stages, inputs, outs, scratch, tier),
        16 => run_chunk::<16>(stages, inputs, outs, scratch, tier),
        MAX_CHUNK => run_chunk::<MAX_CHUNK>(stages, inputs, outs, scratch, tier),
        other => unreachable!("a chunk of {other} images"),
    }
}

/// A whole network over one lane chunk staged `LW` lanes wide, lane-major
/// from the staged input to the last stage: one transpose in
/// ([`stage_chunk`]), one transpose out ([`scatter_lanes`] into the
/// caller's `i32` tensors). In between the activations ping-pong between
/// the arena's two planes — a convolution's finished bands enter its
/// consumer's plane through [`PlaneMut::write_relu`] at the interior offset
/// (the halo the next padded convolution reads is already there), pooling
/// runs plane to plane ([`pool_lanes`]), and a fully connected layer reads
/// the unhaloed plane as it is: `flatten_for_fc` is the identity on
/// `off · LW + lane`.
///
/// A pool that directly follows a convolution runs on each finished band
/// instead (pooling is per channel and a band is `G` whole output planes),
/// so the convolution's full-resolution activation never exists: the band's
/// real rows are relu'd into the arena's band buffer, unfolded from their
/// copies ([`real_row`]), and pooled from there.
fn run_chunk<const LW: usize>(
    stages: &[CompiledStage],
    inputs: &[Tensor3<i16>],
    outs: &mut [Tensor3<i32>],
    scratch: &mut FlattenedScratch,
    tier: Probed,
) {
    let FlattenedScratch {
        planes: [even, odd],
        prefix,
        band_lanes,
        band_acts,
        pool_row,
    } = scratch;
    let images = inputs.len();
    let mut dims = (inputs[0].c(), inputs[0].w(), inputs[0].h());
    // How many channels a stage's input has to a lane, once staged for it.
    let pair_for = |stage: Option<&CompiledStage>| match stage {
        Some(CompiledStage::Conv { layer, .. }) => pair_of(layer),
        _ => 1,
    };
    stage_chunk::<LW>(inputs, stages[0].pad(), pair_for(stages.first()), even);
    let (mut si, mut flip) = (0, false);
    while let Some(stage) = stages.get(si) {
        let (src, dst) = if flip {
            (&mut *odd, &mut *even)
        } else {
            (&mut *even, &mut *odd)
        };
        let fused_pool = match stage {
            CompiledStage::Conv { .. } => stages.get(si + 1).and_then(CompiledStage::pool),
            CompiledStage::Pool { .. } => None,
        };
        let after = si + 1 + usize::from(fused_pool.is_some());
        let consumer = stages.get(after);
        let out_dims = stages[si..after].iter().fold(dims, |d, s| s.out_dims(d));
        let out_pad = consumer.map_or(0, CompiledStage::pad);
        match stage {
            CompiledStage::Conv { layer, is_fc, .. } => {
                let geom = layer.geom();
                if *is_fc {
                    dims = (dims.0 * dims.1 * dims.2, 1, 1);
                }
                let in_dims = (geom.c() * layer.conv_groups(), geom.in_w(), geom.in_h());
                assert_eq!(dims, in_dims, "activation dims do not match the layer");
                let (lanes, pair) = (Lanes::new(images, geom), pair_of(layer));
                let input = src.rows_mut(haloed_len(paired(dims, pair), geom.pad()) * LW);
                if pair > 1 && si > 0 {
                    // The producer wrote the plane a channel to a lane.
                    let cells = haloed_len((1, dims.1, dims.2), geom.pad());
                    pair_channels::<LW>(input, dims.0, cells, band_acts);
                }
                replicate(lanes, input, geom, pair);
                let (input, (w, h)) = (&*input, (geom.out_w(), geom.out_h()));
                if consumer.is_none() && fused_pool.is_none() {
                    // The last layer's raw sums leave the lane layout.
                    let sink = |k_first, sums: &[i32], _: &mut Rows<i32>| {
                        let stored = |r| lanes.stored(r, w);
                        scatter_lanes(sums, (LW, h), stored, outs, k_first * w * h, |v| v);
                    };
                    return run_bands(layer, input, lanes, tier, prefix, band_lanes, sink);
                }
                let mut dst = PlaneMut::<LW>::new(dst, out_dims, out_pad, pair_for(consumer));
                let sink = |k_first, sums: &[i32], prefix: &mut Rows<i32>| match fused_pool {
                    None => dst.write_relu(k_first, sums, lanes),
                    Some(pool) => {
                        let scratch = (&mut *band_acts, &mut *pool_row, prefix);
                        relu_pool(sums, (lanes, w, h), pool, scratch, &mut dst, k_first);
                    }
                };
                run_bands(layer, input, lanes, tier, prefix, band_lanes, sink);
            }
            CompiledStage::Pool { .. } => {
                let pool = stage.pool().expect("a pooling stage");
                let mut dst = PlaneMut::<LW>::new(dst, out_dims, out_pad, pair_for(consumer));
                let src = src.rows(haloed_len(dims, 0) * LW).as_chunks::<LW>().0;
                pool_lanes(src, dims, pool, (pool_row, prefix), &mut dst, 0);
            }
        }
        if consumer.is_none() {
            // The network ends in a pool: its plane widens on the way out.
            let pooled = if flip { &*even } else { &*odd };
            let cells = pooled.rows(haloed_len(out_dims, 0) * LW);
            scatter_lanes(cells, (LW, out_dims.2), |r| (r, 0), outs, 0, i32::from);
        }
        (dims, si, flip) = (out_dims, after, !flip);
    }
}

/// Runs `stages` over `inputs` on `tier` — the chunk-major network executor
/// behind [`BackendKind::FlattenedBatch`](crate::backend::BackendKind), and
/// the one entry point that forces a tier (the per-tier conformance tests,
/// `repro reuse`' `reuse@<tier>` and `dense@<tier>` rows). A layer alone is
/// a one-stage list.
///
/// The batch is cut into lane chunks at the widths `chunk_widths` emits
/// for it — the tier's interleave width, 16, 8, then the rest as one chunk
/// of row-shifted copies — and every chunk runs the whole of `stages`
/// batch-interleaved (see the module docs) on the calling thread, in its
/// arena, so steady-state serving allocates no scratch: staged once into
/// the zero-haloed lane layout, walked one filter band at a time through
/// the tier's `#[target_feature]` kernels, de-interleaved once into the
/// per-image outputs. `tier` is
/// clamped to the CPU's detected capabilities, so forcing an unavailable
/// one runs the best supported tier instead of faulting. Outputs are
/// **bit-identical** to the dense reference's wiring
/// (`ucnn_model::forward::dense_forward`) at every batch size and tier.
///
/// # Panics
///
/// Panics if `stages` is empty, if the inputs differ in dims, or if the
/// activations reaching a layer mismatch its geometry.
///
/// # Examples
///
/// ```
/// use ucnn_core::compile::UcnnConfig;
/// use ucnn_core::flatten::run_stages;
/// use ucnn_core::plan::{CompiledLayer, CompiledStage};
/// use ucnn_core::simd::available_tiers;
/// use ucnn_model::reference;
/// use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};
///
/// let geom = ConvGeom::new(1, 1, 16, 4, 1, 1);
/// let filters = Tensor4::from_fn(4, 16, 1, 1, |k, c, _, _| ((k + c) % 3) as i16 - 1);
/// let layer = CompiledLayer::compile(&geom, 1, &filters, &UcnnConfig::with_g(2));
/// let inputs: Vec<Tensor3<i16>> = (0..5)
///     .map(|b| Tensor3::from_fn(16, 1, 1, |c, _, _| ((b + c) % 7) as i16))
///     .collect();
/// let dense: Vec<_> = inputs.iter().map(|i| reference::conv2d(&geom, 1, i, &filters)).collect();
/// let stages = [CompiledStage::Conv { name: "fc".into(), layer, is_fc: false }];
/// for &tier in available_tiers() {
///     assert_eq!(run_stages(&stages, &inputs, tier), dense); // bit-identical
/// }
/// ```
#[must_use]
pub fn run_stages(
    stages: &[CompiledStage],
    inputs: &[Tensor3<i16>],
    tier: SimdTier,
) -> Vec<Tensor3<i32>> {
    assert!(!stages.is_empty(), "need at least one stage");
    let Some(first) = inputs.first() else {
        return Vec::new();
    };
    let in_dims = (first.c(), first.w(), first.h());
    let same = |i: &Tensor3<i16>| (i.c(), i.w(), i.h()) == in_dims;
    assert!(inputs.iter().all(same), "batch input dims differ");
    let (c, w, h) = stages.iter().fold(in_dims, |d, s| s.out_dims(d));
    // Clamping to the CPU mints the `Probed` token the kernels dispatch on.
    let tier = SimdCaps::get().probe(tier);
    let mut outs: Vec<Tensor3<i32>> = inputs.iter().map(|_| Tensor3::zeros(c, w, h)).collect();
    with_thread_scratch(|arena| {
        let mut start = 0;
        for width in chunk_widths(inputs.len(), tier.tier().lane_width()) {
            let end = start + width;
            run_network_chunk(
                stages,
                &inputs[start..end],
                &mut outs[start..end],
                arena,
                tier,
            );
            start = end;
        }
    });
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::UcnnConfig;
    use crate::flatten::oracle::{check_layer, Case};
    use crate::plan::CompiledNetwork;
    use ucnn_model::{forward, reference};
    use ucnn_model::{LayerSpec, NetworkSpec};
    use ucnn_tensor::{ConvGeom, Tensor4};

    #[test]
    fn band_staging_and_fused_epilogue_match_reference() {
        // (geometry, conv groups, G, Ct): each shape stresses one way a
        // band can be assembled or scattered wrongly — pinned cases of the
        // oracle.
        let shapes = [
            // Bands fed by three channel tiles (C = 10 > Ct = 4): the
            // staging buffer must accumulate across tiles, not overwrite.
            (ConvGeom::new(6, 6, 10, 6, 3, 3), 1usize, 2usize, 4usize),
            // Ragged last band (K = 7, G = 3 → bands of 3, 3, 1) over
            // ragged channel tiles (C = 5, Ct = 2).
            (ConvGeom::new(5, 6, 5, 7, 3, 3).with_pad(1), 1, 3, 2),
            // Grouped conv: bands never span a conv group, and K / groups
            // = 3 leaves a ragged band inside every group.
            (ConvGeom::new(6, 5, 4, 6, 3, 3).with_pad(1), 2, 2, 3),
            // Stride 2 with pad 2: reads land in the halo on all sides.
            (
                ConvGeom::new(7, 6, 3, 5, 3, 3).with_stride(2).with_pad(2),
                1,
                2,
                2,
            ),
        ];
        for (seed, (geom, conv_groups, g, ct)) in (300..).zip(shapes) {
            let pinned = Case::pinned(seed, geom, conv_groups, g, ct);
            for batch in [1, 5, 8, 16, 32, 35] {
                Case { batch, ..pinned }.check();
            }
        }
    }

    #[test]
    fn geometry_sweep_matches_reference_on_every_tier() {
        // Pinned oracle cases over stride × pad — including pad > r − 1,
        // where whole windows sit in the halo — on a non-square plane,
        // cycling grouped conv and G = 1..=4 through the cells (G = 1 has no
        // outer level and keeps no row; G = 4 leaves a ragged band), with
        // ragged channel tiles (C = 5, Ct = 2) and batches that straddle
        // every strip width; a rest of fewer than eight images runs at
        // pitch 8 in row-shifted copies.
        let grid = (1..=3).flat_map(|stride| {
            (0..=3).map(move |pad| {
                let geom = ConvGeom::new(7, 6, 5, 6, 3, 3).with_stride(stride);
                (geom.with_pad(pad), [1, 5, 8, 16, 32, 35])
            })
        });
        // Position lanes over output rows that hit every tail split of
        // every strip width, at pad 0/1/2, with a strided and a 1-position
        // row as the fallbacks, for chunks of 1–7, 8 and 32 images.
        let rows = [1usize, 2, 7, 8, 9, 12, 16, 17, 32, 33, 40].into_iter();
        let rows = rows.enumerate().map(|(ri, out_h)| {
            // `ConvGeom::new` wants the filter inside the unpadded plane.
            let pad = (ri % 3).min((out_h - 1) / 2);
            let geom = ConvGeom::new(4, out_h + 2 - 2 * pad, 5, 6, 3, 3).with_pad(pad);
            assert_eq!(geom.out_h(), out_h);
            (geom, [1, 2, 3, 7, 9, 33])
        });
        let strided = ConvGeom::new(4, 35, 5, 6, 3, 3).with_stride(2).with_pad(1);
        let cases = grid.chain(rows).chain([(strided, [1, 2, 3, 7, 9, 33])]);
        for (case, (geom, batches)) in cases.enumerate() {
            let pinned = Case::pinned(400 + case as u64, geom, 1 + case % 2, 1 + case % 4, 2);
            for batch in batches {
                Case { batch, ..pinned }.check();
            }
        }
    }

    #[test]
    fn staged_halo_is_rezeroed_after_a_wider_layer() {
        // Two networks back to back on this thread's arena. The wide
        // unpadded one leaves both planes full of non-zero activations
        // (all-ones weights over positive inputs); the small pad-2 one
        // staged and run next must read zero halos in both — the ring is
        // all that staging and the epilogue re-zero.
        let nets = [
            (
                ConvGeom::new(12, 12, 6, 4, 3, 3),
                ConvGeom::new(10, 10, 4, 2, 3, 3),
            ),
            (
                ConvGeom::new(4, 4, 2, 2, 3, 3).with_pad(2),
                ConvGeom::new(6, 6, 2, 2, 3, 3).with_pad(2),
            ),
        ];
        for b in [8usize, 1] {
            for (ni, (first, second)) in nets.iter().enumerate() {
                let mut net = NetworkSpec::new(format!("halo{ni}"));
                net.push(LayerSpec::conv("first", *first));
                net.push(LayerSpec::conv("second", *second));
                let weights = [first, second]
                    .map(|g| Tensor4::from_fn(g.k(), g.c(), 3, 3, |_, _, _, _| 1i16))
                    .to_vec();
                let plan = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
                let inputs: Vec<Tensor3<i16>> = (0..b)
                    .map(|lane| {
                        Tensor3::filled(first.c(), first.in_w(), first.in_h(), 100 + lane as i16)
                    })
                    .collect();
                let expected: Vec<Tensor3<i32>> = inputs
                    .iter()
                    .map(|i| forward::dense_forward(&net, &weights, i))
                    .collect();
                assert_eq!(plan.forward_batch(&inputs), expected, "net {ni}, B={b}");
            }
        }
    }

    #[test]
    fn fused_epilogue_pins_saturation_extremes() {
        // The epilogue itself, over the whole i32 range including both
        // ends: whatever a (possibly wrapped) sum is, it narrows exactly as
        // the reference does.
        let edge = [
            i32::MIN,
            i32::MIN + 1,
            -65_536,
            -32_769,
            -32_768,
            -1,
            0,
            1,
            32_766,
            32_767,
            32_768,
            65_535,
            65_536,
            i32::MAX - 1,
            i32::MAX,
        ];
        let n = edge.len();
        let sums = Tensor3::from_vec(n, 1, 1, edge.to_vec()).unwrap();
        let want = reference::relu_saturate(&sums);
        // Eight images, lane `l` of cell `i` holding edge value `i + l`.
        let lanes: Vec<i32> = (0..n * 8).map(|at| edge[(at / 8 + at % 8) % n]).collect();
        let mut buf = Rows::default();
        let mut plane = PlaneMut::<8>::new(&mut buf, (n, 1, 1), 0, 1);
        plane.write_relu(0, &lanes, Lanes::new(8, &ConvGeom::new(1, 1, 1, 1, 1, 1)));
        for (i, cell) in plane.cells.iter().enumerate() {
            let expected: [i16; 8] = from_fn(|l| want.as_slice()[(i + l) % n]);
            assert_eq!(*cell, expected, "cell {i}");
        }
        assert_eq!(plane.cells[n - 1][0], i16::MAX);
        assert_eq!(plane.cells[0][0], 0);

        // Through the executor: 1×1 filters that drive the sums to each
        // regime at every position of a 1×9 plane, so one image's output
        // row runs as position-lane strips (8 + 1) and a batch as image
        // lanes. Per cell, with activations a₀ = a₁ = A:
        //   k0 = 2·A·32767      (≈ 2³¹ at A = 32767: far above i16::MAX)
        //   k1 = 2·A·(−32768)   (≈ −2³¹: far below zero)
        //   k2 = A − A = 0, k3 = 2·A (just above i16::MAX at A = 16384),
        //   k4 = −2·A, k5 = A (exactly i16::MAX at A = 32767).
        // Without debug overflow checks (`cargo test --release`) a third
        // and fourth channel push k0/k1 past ±2³¹ so the i32 sums wrap —
        // in the executor and the reference alike.
        let wrap = !cfg!(debug_assertions);
        let c = if wrap { 4 } else { 2 };
        let rows: [[i16; 2]; 6] = [
            [i16::MAX, i16::MAX],
            [i16::MIN, i16::MIN],
            [1, -1],
            [1, 1],
            [-1, -1],
            [1, 0],
        ];
        let weights = Tensor4::from_fn(6, c, 1, 1, |k, ci, _, _| match (k, ci) {
            (0 | 1, _) => rows[k][0],
            (_, 0 | 1) => rows[k][ci],
            _ => 0,
        });
        let geom = ConvGeom::new(1, 9, c, 6, 1, 1);
        let levels = [i16::MAX, 16_384, 16_383, 1, 0];
        // Image `i` cycles the levels along its row from level `i`.
        let image = |i: usize| Tensor3::from_fn(c, 1, 9, |_, _, y| levels[(i + y) % levels.len()]);
        // At G = 2 k0 is an outer level (a kept-row difference in phase 2)
        // and k1 the fused innermost one; at G = 1 every filter wraps
        // through `inner += (run − prev)·w` in registers.
        for g in [1usize, 2] {
            let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::with_g(g));
            for b in [1usize, 5, 32, 35] {
                let inputs: Vec<Tensor3<i16>> = (0..b).map(image).collect();
                check_layer(&layer, &weights, &inputs, &format!("extremes, G {g}"));
            }
        }
        // The regimes were actually reached (image 0 starts at A = i16::MAX).
        let sums = reference::conv2d(&geom, 1, &image(0), &weights);
        if wrap {
            assert!(sums[(0, 0, 0)] < 0, "4·32767² must wrap negative");
            assert!(
                sums[(1, 0, 0)] >= 0,
                "4·32767·(−32768) must wrap non-negative"
            );
        } else {
            assert_eq!(sums[(0, 0, 0)], 2 * 32_767 * 32_767);
            assert_eq!(sums[(1, 0, 0)], 2 * 32_767 * -32_768);
        }
        assert_eq!(sums[(3, 0, 0)], 65_534);
        assert_eq!(sums[(5, 0, 0)], 32_767);
    }

    /// Deterministic values in `lo..hi`.
    fn noise(seed: u64, lo: i64, hi: i64) -> impl FnMut() -> i64 {
        let mut x = seed;
        move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + (x >> 33) as i64 % (hi - lo)
        }
    }

    /// Row buffers that last held garbage, as an arena's do.
    fn dirty<T: Copy + Default>(len: usize, garbage: T) -> Rows<T> {
        let mut rows = Rows::default();
        rows.rows_mut(len).fill(garbage);
        rows
    }

    /// The plane `pool_lanes` wrote: channel `c0 + ch`, lane `lane`, as a
    /// tensor.
    fn pooled<const LW: usize>(dst: &mut PlaneMut<'_, LW>, c0: usize, lane: usize) -> Tensor3<i16> {
        let (c, w, h) = dst.dims;
        Tensor3::from_fn(c - c0, w, h, |ch, x, y| dst.row(c0 + ch, x)[y][lane])
    }

    /// `pool_lanes` against `reference::pool2d`, lane by lane: from a plane
    /// (a pooling stage, any `i16`) and from a band's sums (a pool fused
    /// onto a convolution: relu'd, then pooled), over planes whose edge
    /// windows clip, into a haloed plane from channel 1, every buffer dirty.
    fn pooling_matches_reference<const LW: usize>(images: usize) {
        let mut next = noise(LW as u64 * 31 + images as u64, -70_000, 70_000);
        for (w, h) in [(7usize, 6usize), (5, 9), (4, 4)] {
            let geom = ConvGeom::new(w, h, 1, 1, 1, 1);
            let lanes = Lanes::new(images, &geom);
            assert_eq!(lanes.pitch, LW);
            for (size, stride) in [(2usize, 2usize), (3, 2)] {
                for kind in [PoolKind::Max, PoolKind::Avg] {
                    let (c, pool) = (3, (kind, size, stride));
                    let what = format!("{kind:?} {size}/{stride}, {w}x{h}, {images} of {LW}");
                    let planes: Vec<Vec<i64>> = (0..images)
                        .map(|_| (0..c * w * h).map(|_| next()).collect())
                        .collect();
                    let out = CompiledStage::Pool {
                        name: "pool".into(),
                        kind,
                        size,
                        stride,
                    }
                    .out_dims((c, w, h));
                    let (mut buf, mut acts) = (dirty(4096, 0x5A5Ai16), dirty(4096, -3i16));
                    let (mut max_row, mut sum_row) = (dirty(4096, 77i16), dirty(4096, -9i32));
                    let scratch = (&mut max_row, &mut sum_row);

                    // A pooling stage's plane: the images' `i16`s, whole lanes.
                    if images == LW {
                        let cells: Vec<[i16; LW]> = (0..c * w * h)
                            .map(|at| from_fn(|l| planes[l][at] as i16))
                            .collect();
                        let mut dst = PlaneMut::<LW>::new(&mut buf, (c + 1, out.1, out.2), 1, 1);
                        pool_lanes(&cells, (c, w, h), pool, scratch, &mut dst, 1);
                        for (l, plane) in planes.iter().enumerate() {
                            let input = Tensor3::from_fn(c, w, h, |ch, x, y| {
                                plane[(ch * w + x) * h + y] as i16
                            });
                            let want = reference::pool2d(&input, kind, size, stride);
                            assert_eq!(pooled(&mut dst, 1, l), want, "plane, lane {l}: {what}");
                        }
                    }

                    // A band's sums, each real row where `lanes` keeps it.
                    let mut sums = vec![i32::MIN + 5; c * w * h * LW];
                    for (i, plane) in planes.iter().enumerate() {
                        for (at, &v) in plane.iter().enumerate() {
                            let (kept, from) = lanes.stored(at / h, w);
                            sums[(kept * h + at % h) * LW + from + i] = v as i32;
                        }
                    }
                    let mut dst = PlaneMut::<LW>::new(&mut buf, (c + 1, out.1, out.2), 1, 1);
                    let scratch = (&mut acts, &mut max_row, &mut sum_row);
                    relu_pool(&sums, (lanes, w, h), pool, scratch, &mut dst, 1);
                    for l in 0..LW {
                        let want = match planes.get(l) {
                            Some(plane) => {
                                let sums = Tensor3::from_fn(c, w, h, |ch, x, y| {
                                    plane[(ch * w + x) * h + y] as i32
                                });
                                let acts = reference::relu_saturate(&sums);
                                reference::pool2d(&acts, kind, size, stride)
                            }
                            None => Tensor3::zeros(c, out.1, out.2),
                        };
                        assert_eq!(pooled(&mut dst, 1, l), want, "band, lane {l}: {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn pool_lanes_matches_reference_pool_lane_by_lane() {
        // Unfolded lanes at every pitch, and a small chunk's folded copies
        // (1 and 2 images: 8 and 4 copies; 5 images: one copy, 3 lanes
        // past the images).
        pooling_matches_reference::<8>(8);
        pooling_matches_reference::<16>(16);
        pooling_matches_reference::<MAX_CHUNK>(MAX_CHUNK);
        for images in [1, 2, 5] {
            pooling_matches_reference::<8>(images);
        }
    }

    /// `pair_channels` against a naive interleave over a dirty plane (the
    /// slot of the zero channel after an odd `c` holds garbage) and a dirty
    /// `spare`.
    fn pairing_matches_naive<const LW: usize>() {
        let mut next = noise(LW as u64, -32_768, 32_768);
        for c in 1usize..=5 {
            for cells in [1, 5] {
                let n = cells * LW;
                let plane: Vec<i16> = (0..c.next_multiple_of(2) * n)
                    .map(|_| next() as i16)
                    .collect();
                let want: Vec<i16> = (0..plane.len())
                    .map(|at| {
                        let (pair, i, q) = (at / (2 * n), at / 2 % n, at % 2);
                        let ch = 2 * pair + q;
                        if ch < c {
                            plane[ch * n + i]
                        } else {
                            0
                        }
                    })
                    .collect();
                let mut paired = plane.clone();
                let mut spare = dirty(4 * n, 0x7E7Ei16);
                pair_channels::<LW>(&mut paired, c, cells, &mut spare);
                assert_eq!(paired, want, "c = {c}, {cells} cells of {LW}");
            }
        }
    }

    #[test]
    fn pair_channels_matches_a_naive_interleave() {
        pairing_matches_naive::<8>();
        pairing_matches_naive::<16>();
        pairing_matches_naive::<MAX_CHUNK>();
    }

    /// `stage_lanes` against a naive transpose into a dirty buffer: `b`
    /// images of `c` channels, `P` to a lane, inside a 1-wide halo.
    fn staging_matches_naive<const LW: usize, const P: usize>(b: usize, c: usize) {
        let (w, h, pad) = (3, 5, 1);
        let (pw, ph) = (w + 2 * pad, h + 2 * pad);
        let mut next = noise((LW * P + b * 7 + c) as u64, -32_768, 32_768);
        let images: Vec<Tensor3<i16>> = (0..b)
            .map(|_| Tensor3::from_fn(c, w, h, |_, _, _| next() as i16))
            .collect();
        let len = haloed_len(paired((c, w, h), P), pad) * LW;
        let mut out = vec![0x3C3C; len];
        stage_lanes::<LW, P>(&images, (c, w, h), pad, &mut out);
        for (at, &v) in out.iter().enumerate() {
            let (cell, lane, p) = (at / (LW * P), at / P % LW, at % P);
            let (g, x, y) = (cell / (pw * ph), cell / ph % pw, cell % ph);
            let ch = g * P + p;
            let inside = (pad..w + pad).contains(&x) && (pad..h + pad).contains(&y);
            let want = match images.get(lane) {
                Some(image) if inside && ch < c => image[(ch, x - pad, y - pad)],
                _ => 0,
            };
            assert_eq!(v, want, "{b} images, c = {c}, P = {P}, LW = {LW}: at {at}");
        }
    }

    #[test]
    fn stage_lanes_matches_a_naive_transpose() {
        for c in [1, 2, 3] {
            for b in [1, 3, 8] {
                staging_matches_naive::<8, 1>(b, c);
                staging_matches_naive::<8, 2>(b, c);
            }
            staging_matches_naive::<16, 2>(16, c);
            staging_matches_naive::<MAX_CHUNK, 1>(MAX_CHUNK, c);
            staging_matches_naive::<MAX_CHUNK, 2>(MAX_CHUNK - 1, c);
        }
    }

    #[test]
    #[should_panic(expected = "need at least one stage")]
    fn run_stages_rejects_no_stages() {
        let input = Tensor3::filled(2, 4, 4, 1i16);
        let _ = run_stages(&[], &[input], SimdCaps::get().best());
    }
}
