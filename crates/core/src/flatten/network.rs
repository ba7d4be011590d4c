//! The chunk-major driver: staging into and out of the lane layout, filter
//! bands, the inter-layer epilogue, lane-major pooling, and the loop that
//! cuts a batch into lane chunks.

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
/// them ([`pair_of`]): `c` channels of `cells` cells of `lw` lanes, room for
/// one more after an odd `c`, become `(x_2c, x_2c+1)` per lane, the last
/// pair's second channel zero after an odd `c`. `spare` holds a pair's first
/// channel while both are interleaved over the pair's cells.
fn pair_channels(plane: &mut [i16], c: usize, cells: usize, lw: usize, spare: &mut Rows<i16>) {
    let n = cells * lw;
    let spare = spare.rows_mut(n);
    let pairs = plane[..c.next_multiple_of(2) * n].chunks_exact_mut(2 * n);
    for (p, pair) in pairs.enumerate() {
        spare.copy_from_slice(&pair[..n]);
        let second = 2 * p + 1 < c;
        // Front to back: step `i` reads value `i` of the second channel,
        // at `n + i`, before it writes `2i` and `2i + 1 ≤ n + i`.
        for (i, &first) in spare.iter().enumerate() {
            pair[2 * i + 1] = if second { pair[n + i] } else { 0 };
            pair[2 * i] = first;
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

/// The staging transpose behind [`stage_chunk`]: `images` are `c × w × h`
/// planes, `out` becomes their batch-interleaved copy inside a `pad`-wide
/// zero halo — `out[off · pitch + lane]` with `off` over
/// `c × (w + 2·pad) × (h + 2·pad)`, the lanes past the images zero — with
/// its channels `pair` to a lane ([`pair_of`]).
/// The halo ring is re-zeroed on every call ([`zero_halo`]), and so is the
/// zero channel after an odd `c`, so an arena that last held another
/// layer's chunk leaks nothing into it.
/// One contiguous run (an input row; a [`SCATTER_BLOCK`] of offsets when
/// no halo or pairing separates the rows) is filled by every lane while it
/// is cache-resident, mirroring [`scatter_lanes`].
fn stage_lanes(
    images: &[Tensor3<i16>],
    (c, w, h): Dims,
    pad: usize,
    (lw, pair): (usize, usize),
    out: &mut [i16],
) {
    let (len, pw, ph) = (c * w * h, w + 2 * pad, h + 2 * pad);
    assert!(
        images.iter().all(|img| img.as_slice().len() == len),
        "interleaved images must be equally sized"
    );
    if images.len() < lw {
        out.fill(0);
    }
    zero_halo(out, (c, w, h), pad, lw * pair);
    let run = if pad == 0 && pair == 1 {
        SCATTER_BLOCK
    } else {
        h
    };
    let step = lw * pair;
    for at in (0..len).step_by(run) {
        let n = run.min(len - at);
        let (row, ch) = (at / h, at / (w * h));
        let to = (ch / pair * pw + row % w + pad) * ph + pad + at % h;
        let dst = &mut out[to * step..][..n * step];
        let unpaired = pair == 2 && ch + 1 == c && c % 2 == 1;
        for (lane, img) in images.iter().enumerate() {
            let src = &img.as_slice()[at..][..n];
            let lane = lane * pair + ch % pair;
            for (d, &v) in dst[lane..].iter_mut().step_by(step).zip(src) {
                *d = v;
            }
            if unpaired {
                dst[lane + 1..]
                    .iter_mut()
                    .step_by(step)
                    .for_each(|d| *d = 0);
            }
        }
    }
}

/// The chunk as the strip kernels read it: staged `pitch` lanes wide, its
/// channels `pair` to a lane, through [`stage_lanes`] into `staged`'s
/// cache-line-aligned rows, inside the `pad`-wide zero halo the gather
/// offsets are lowered against.
fn stage_chunk<'a>(
    inputs: &[Tensor3<i16>],
    pad: usize,
    (pitch, pair): (usize, usize),
    staged: &'a mut Rows<i16>,
) -> &'a mut [i16] {
    let first = &inputs[0];
    let dims = (first.c(), first.w(), first.h());
    let rows = staged.rows_mut(haloed_len(paired(dims, pair), pad) * pitch);
    stage_lanes(inputs, dims, pad, (pitch, pair), rows);
    rows
}

/// Offsets per contiguous run of the staging transpose where no halo
/// separates the rows: a block of `LW`-wide rows (4 KB of `i32` at 32
/// lanes) stays in L1 while every lane visits it.
const SCATTER_BLOCK: usize = 32;

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
/// cells of `lw` lanes inside the `pad`-wide zero halo its **consumer**
/// reads through — so a padded convolution finds its input already staged.
struct PlaneMut<'a> {
    cells: &'a mut [i16],
    dims: Dims,
    pad: usize,
    lw: usize,
}

impl<'a> PlaneMut<'a> {
    /// Claims `buf`'s aligned rows for the plane — with room for its
    /// channels `pair` to a lane, which its consumer pairs in place
    /// ([`pair_channels`]) — and zeroes its halo ring.
    fn new(buf: &'a mut Rows<i16>, dims: Dims, pad: usize, (lw, pair): (usize, usize)) -> Self {
        let cells = buf.rows_mut(haloed_len(paired(dims, pair), pad) * lw);
        zero_halo(cells, dims, pad, lw);
        Self {
            cells,
            dims,
            pad,
            lw,
        }
    }

    /// Interior row `x` of channel `c`: `h · lw` contiguous values.
    fn row(&mut self, c: usize, x: usize) -> &mut [i16] {
        let (_, w, h) = self.dims;
        let (pw, ph) = (w + 2 * self.pad, h + 2 * self.pad);
        let at = ((c * pw + x + self.pad) * ph + self.pad) * self.lw;
        &mut self.cells[at..][..h * self.lw]
    }

    /// The inter-layer epilogue: a finished band's sums (whole output
    /// planes from channel `c0`, walked as `lanes`) enter the plane through
    /// [`relu`], each row at its real row: its copy moved to the images'
    /// lanes in place (each lane reads one not yet written), the rest zero.
    fn write_relu(&mut self, c0: usize, sums: &[i32], lanes: Lanes) {
        let (_, w, h) = self.dims;
        let (row, b) = (h * self.lw, lanes.images);
        let keep: [i16; LANE_WIDTH] = std::array::from_fn(|l| -i16::from(l < b));
        for r in 0..sums.len() / row {
            let (kept, from) = lanes.stored(r, w);
            let dst = self.row(c0 + r / w, r % w);
            for (d, &s) in dst.iter_mut().zip(&sums[kept * row..][..row]) {
                *d = relu(s);
            }
            if lanes.bands > 1 {
                let cells = dst.as_chunks_mut::<LANE_WIDTH>().0;
                for l in 0..b {
                    cells.iter_mut().for_each(|cell| cell[l] = cell[from + l]);
                }
                for cell in cells {
                    cell.iter_mut().zip(keep).for_each(|(lane, k)| *lane &= k);
                }
            }
        }
    }
}

/// `reference::relu_saturate` of one sum: a saturating narrow, then the
/// floor — both have a baseline vector form (a clamp to `0..=i16::MAX` has
/// none below SSE4.1).
fn relu(s: i32) -> i16 {
    (s.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16).max(0)
}

/// `reference::pool2d` over lane-major rows, per lane element for element:
/// pools `src` (`c × w × h` cells of `lw` lanes, no halo; a band's rows kept
/// as `folded` says) into `dst`'s channels from `c0`. Separably — max and
/// integer sums are associative: the window's rows first, whole, into its
/// first row of `src` (a max; no later window reads it) or into `acc` (a
/// sum, or a folded row's copy), then each output cell from strided columns.
fn pool_lanes(
    src: &mut [i16],
    dims: Dims,
    pool: (PoolKind, usize, usize),
    folded: Option<Lanes>,
    acc: &mut Rows<i32>,
    dst: &mut PlaneMut<'_>,
    c0: usize,
) {
    match dst.lw {
        8 => pool_rows::<8>(src, dims, pool, folded, acc, dst, c0),
        16 => pool_rows::<16>(src, dims, pool, folded, acc, dst, c0),
        _ => pool_rows::<MAX_CHUNK>(src, dims, pool, folded, acc, dst, c0),
    }
}

/// [`pool_lanes`] at a pitch of `LW` lanes.
fn pool_rows<const LW: usize>(
    src: &mut [i16],
    (c, w, h): Dims,
    (kind, size, stride): (PoolKind, usize, usize),
    folded: Option<Lanes>,
    acc: &mut Rows<i32>,
    dst: &mut PlaneMut<'_>,
    c0: usize,
) {
    let (_, out_w, _) = dst.dims;
    let (row, acc) = (h * LW, acc.rows_mut(h * LW));
    acc.fill(0); // of a folded band only the images' lanes are written
    for (ch, ox) in (0..c).flat_map(|ch| (0..out_w).map(move |ox| (ch, ox))) {
        let (x0, x1) = (ox * stride, (ox * stride + size).min(w));
        let cells = dst.row(c0 + ch, ox).as_chunks_mut::<LW>().0;
        if kind == PoolKind::Max && folded.is_none() {
            let window = &mut src[(ch * w + x0) * row..][..(x1 - x0) * row];
            let (first, rest) = window.split_at_mut(row);
            for later in rest.chunks_exact(row) {
                for (m, &v) in first.iter_mut().zip(later) {
                    *m = (*m).max(v);
                }
            }
            max_columns(first.as_chunks::<LW>().0, cells, size, stride, |v| v);
            continue;
        }
        for x in x0..x1 {
            let Some(lanes) = folded else {
                let pairs = acc.iter_mut().zip(&src[(ch * w + x) * row..][..row]);
                match x == x0 {
                    true => pairs.for_each(|(a, &v)| *a = i32::from(v)),
                    false => pairs.for_each(|(a, &v)| *a += i32::from(v)),
                }
                continue;
            };
            let (kept, from) = lanes.stored(ch * w + x, w);
            let kept = src[kept * row..][..row].as_chunks::<LW>().0;
            let acc = acc.as_chunks_mut::<LW>().0;
            for l in 0..lanes.images {
                let pairs = acc.iter_mut().zip(kept);
                match (x == x0, kind) {
                    (true, _) => pairs.for_each(|(a, v)| a[l] = i32::from(v[from + l])),
                    (_, PoolKind::Max) => {
                        pairs.for_each(|(a, v)| a[l] = a[l].max(v[from + l].into()))
                    }
                    (_, PoolKind::Avg) => pairs.for_each(|(a, v)| a[l] += i32::from(v[from + l])),
                }
            }
        }
        let columns = acc.as_chunks::<LW>().0;
        if kind == PoolKind::Max {
            // Relu'd: every value fits an `i16`.
            max_columns(columns, cells, size, stride, |v| v as i16);
            continue;
        }
        for (oy, cell) in cells.iter_mut().enumerate() {
            let window = &columns[oy * stride..(oy * stride + size).min(h)];
            let mut sum = window[0];
            for column in &window[1..] {
                for (s, &v) in sum.iter_mut().zip(column) {
                    *s += v;
                }
            }
            // The window sizes a 2×2 or 3×3 pool meets (clipped at the edges
            // or not) divide by a constant — a multiply and shifts, lane-wide
            // — where `s / n` is an `idiv` per lane.
            match ((x1 - x0) * window.len()) as i32 {
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

/// Each output cell the max of its window's columns, column `j` of every
/// window at once (a window clipped at the edge runs out first).
fn max_columns<T: Copy, const LW: usize>(
    columns: &[[T; LW]],
    cells: &mut [[i16; LW]],
    size: usize,
    stride: usize,
    narrow: impl Fn(T) -> i16,
) {
    for (cell, column) in cells.iter_mut().zip(columns.iter().step_by(stride)) {
        *cell = column.map(&narrow);
    }
    for j in 1..size {
        for (cell, column) in cells.iter_mut().zip(columns.iter().skip(j).step_by(stride)) {
            for (m, &v) in cell.iter_mut().zip(column) {
                *m = (*m).max(narrow(v));
            }
        }
    }
}

/// `cell[lane] = sum[lane] / n`, truncating toward zero as the reference's
/// average pool does; inlined so a literal `n` reaches the division.
#[inline(always)]
fn divide_lanes(cell: &mut [i16], sum: &[i32], n: i32) {
    for (d, &s) in cell.iter_mut().zip(sum) {
        *d = (s / n) as i16;
    }
}

/// A whole network over one lane chunk, lane-major from the staged input to
/// the last stage: one transpose in ([`stage_chunk`]), one transpose out
/// ([`scatter_lanes`] into the caller's `i32` tensors). In between the
/// activations ping-pong between the arena's two planes — a convolution's
/// finished bands enter its consumer's plane through
/// [`PlaneMut::write_relu`] at the interior offset (the halo the next
/// padded convolution reads is already there), pooling runs plane to plane
/// ([`pool_lanes`]), and a fully connected layer reads the unhaloed plane
/// as it is: `flatten_for_fc` is the identity on `off · LW + lane`.
///
/// A pool that directly follows a convolution runs on each finished band
/// instead (pooling is per channel and a band is `G` whole output planes),
/// so the convolution's full-resolution activation never exists.
pub(super) fn run_network_chunk(
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
    } = scratch;
    // Every plane is `pitch` lanes a cell, the lanes past the images zero.
    let (images, pitch) = (inputs.len(), inputs.len().max(LANE_WIDTH));
    let mut dims = (inputs[0].c(), inputs[0].w(), inputs[0].h());
    // How many channels a stage's input has to a lane, once staged for it.
    let pair_for = |stage: Option<&CompiledStage>| match stage {
        Some(CompiledStage::Conv { layer, .. }) => pair_of(layer),
        _ => 1,
    };
    stage_chunk(
        inputs,
        stages[0].pad(),
        (pitch, pair_for(stages.first())),
        even,
    );
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
                let input = src.rows_mut(haloed_len(paired(dims, pair), geom.pad()) * pitch);
                if pair > 1 && si > 0 {
                    // The producer wrote the plane a channel to a lane.
                    let cells = haloed_len((1, dims.1, dims.2), geom.pad());
                    pair_channels(input, dims.0, cells, pitch, band_acts);
                }
                replicate(lanes, input, geom, pair);
                let (input, (w, h)) = (&*input, (geom.out_w(), geom.out_h()));
                if consumer.is_none() && fused_pool.is_none() {
                    // The last layer's raw sums leave the lane layout.
                    let sink = |k_first, sums: &[i32], _: &mut Rows<i32>| {
                        let stored = |r| lanes.stored(r, w);
                        scatter_lanes(sums, (pitch, h), stored, outs, k_first * w * h, |v| v);
                    };
                    return run_bands(layer, input, lanes, tier, prefix, band_lanes, sink);
                }
                let mut dst = PlaneMut::new(dst, out_dims, out_pad, (pitch, pair_for(consumer)));
                let sink = |k_first, sums: &[i32], prefix: &mut Rows<i32>| match fused_pool {
                    None => dst.write_relu(k_first, sums, lanes),
                    Some(pool) => {
                        let band = (sums.len() / (w * h * pitch), w, h);
                        // The stored rows relu'd whole: every lane is a real value.
                        let (plane, kept) = (w * h * pitch, lanes.rows * h * pitch);
                        let acts = band_acts.rows_mut(sums.len());
                        for (a, s) in acts.chunks_exact_mut(plane).zip(sums.chunks_exact(plane)) {
                            a[..kept]
                                .iter_mut()
                                .zip(&s[..kept])
                                .for_each(|(a, &s)| *a = relu(s));
                        }
                        let folded = (lanes.bands > 1).then_some(lanes);
                        pool_lanes(acts, band, pool, folded, prefix, &mut dst, k_first);
                    }
                };
                run_bands(layer, input, lanes, tier, prefix, band_lanes, sink);
            }
            CompiledStage::Pool { .. } => {
                let pool = stage.pool().expect("a pooling stage");
                let mut dst = PlaneMut::new(dst, out_dims, out_pad, (pitch, pair_for(consumer)));
                let src = src.rows_mut(haloed_len(dims, 0) * pitch);
                pool_lanes(src, dims, pool, None, prefix, &mut dst, 0);
            }
        }
        if consumer.is_none() {
            // The network ends in a pool: its plane widens on the way out.
            let pooled = if flip { &*even } else { &*odd };
            let cells = pooled.rows(haloed_len(out_dims, 0) * pitch);
            scatter_lanes(cells, (pitch, out_dims.2), |r| (r, 0), outs, 0, i32::from);
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
        let sums = Tensor3::from_vec(edge.len(), 1, 1, edge.to_vec()).unwrap();
        let mut buf = Rows::default();
        let mut plane = PlaneMut::new(&mut buf, (edge.len(), 1, 1), 0, (1, 1));
        plane.write_relu(0, &edge, Lanes::new(1, &ConvGeom::new(1, 1, 1, 1, 1, 1)));
        assert_eq!(plane.cells, reference::relu_saturate(&sums).as_slice());
        assert_eq!(plane.cells[edge.len() - 1], i16::MAX);
        assert_eq!(plane.cells[0], 0);

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

    #[test]
    #[should_panic(expected = "need at least one stage")]
    fn run_stages_rejects_no_stages() {
        let input = Tensor3::filled(2, 4, 4, 1i16);
        let _ = run_stages(&[], &[input], SimdCaps::get().best());
    }
}
