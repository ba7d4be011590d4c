//! The datapath: the one strip body over a lowered tile, its
//! `#[target_feature]` tier kernels, and the strip shapes a chunk runs. The
//! only file of the crate with `unsafe` in it.

use std::ops::Range;

use ucnn_tensor::ConvGeom;

use super::{walked_once, FlattenedTile};
use crate::simd::{Probed, SimdTier};

/// The scalar tier's interleave width — and the narrowest pitch: a chunk of
/// fewer images fills it with copies of them (see the module docs). Eight
/// `i32` lanes fill two 128-bit registers on baseline x86-64; the
/// `avx2`/`avx512` tiers run 16- and 32-lane strips (see
/// [`SimdTier::lane_width`]), all through the same kernel set.
pub(super) const LANE_WIDTH: usize = 8;

/// The widest chunk of images interleaved: the widest tier's
/// [`SimdTier::lane_width`].
pub(super) const MAX_CHUNK: usize = SimdTier::Avx512.lane_width();

impl FlattenedTile {
    /// The shared strip kernel body: adds this tile's partial sums for `LW`
    /// lanes at once, over the positions `run.ys` of the output rows `run.xs`.
    /// `input` holds a chunk staged `PITCH` lanes wide, `input[off · PITCH + lane]`
    /// over the zero-haloed plane (see
    /// [`stage_chunk`](super::network::stage_chunk)), `out` is the
    /// lane-major accumulator of the tile's **filter band** — `g` output
    /// planes starting at the tile's first filter,
    /// `out[off · PITCH + lane]` with `off` counted from that filter's
    /// plane — and `prefix` is caller scratch of at least `rows · LW` prefix
    /// lanes, walked as `LW`-wide rows.
    ///
    /// The walk follows closes, not entries: the innermost level lives in
    /// two lane arrays (`run`, `inner`), prefix rows only where an outer
    /// level reads them. Fusing *all* levels so is in ROADMAP's do-not-rebuild.
    ///
    /// The `LW` lanes are `LW / PITCH` neighbouring output positions × the
    /// chunk's `PITCH` lanes (see [`strip_runs`]): at stride 1 those read
    /// `LW` contiguous staged values from `(base + delta) · PITCH` — with
    /// `PITCH == LW` one line-aligned row of the staged plane. A runtime
    /// pitch spilled phase 1's loop-invariant pointers in the wide kernels
    /// (+11–35 % per call, docs/LAB.md § `positions`); the one-check
    /// `as_chunks` row is kept where it applies and a flattened
    /// `as_chunks::<PITCH>` window measured no better elsewhere (§ `strips`).
    ///
    /// Per lane the i32 operation sequence is independent of `LW` and of
    /// the strip's shape: one indirection walk feeds all `LW` lanes, and
    /// every inner loop is a contiguous `LW`-wide strip the compiler lifts
    /// to SIMD at whatever register width the enclosing `#[target_feature]`
    /// wrapper enables. The const generic keeps the lane arrays on the
    /// stack and the strips fully unrolled at every monomorphized width.
    #[inline(always)]
    fn accumulate_lanes_body<const LW: usize, const PITCH: usize>(
        &self,
        input: &[i16],
        out: &mut [i32],
        geom: &ConvGeom,
        prefix: &mut [i32],
        run: &StripRun,
    ) {
        let (out_w, out_h) = (geom.out_w(), geom.out_h());
        let ph = geom.in_h() + 2 * geom.pad();
        let stride = geom.stride();
        let (prefix, _) = prefix[..self.rows * LW].as_chunks_mut::<LW>();
        prefix[0] = [0; LW];
        let once = walked_once(geom);

        for x in run.xs.clone() {
            for y in run.ys.clone().step_by(LW / PITCH) {
                // Phase 1: LW parallel running sums behind one offset
                // stream, a plus and a minus sub-run of entries per close,
                // where the running sum is multiplied (by `Δw`) and
                // accumulated. It is stored only where an outer group closes too — a
                // branch each position repeats, unlike a walked-once tile
                // (a branch-free cursor store is 4–6 % slower here).
                let delta = stride * (x * ph + y);
                let gather = |run: &mut [i32; LW], b: u32, minus: bool| {
                    let at = b as usize + delta;
                    let strip: &[i16] = if PITCH == LW {
                        &input.as_chunks::<LW>().0[at]
                    } else {
                        &input[at * PITCH..][..LW]
                    };
                    for (r, &v) in run.iter_mut().zip(strip) {
                        *r = if minus {
                            r.wrapping_sub(i32::from(v))
                        } else {
                            r.wrapping_add(i32::from(v))
                        };
                    }
                };
                // Telescoped, `run·Δw` is not a partial dot product: it may
                // leave `i32` where the sum it builds does not, so it wraps
                // by contract, in debug builds too.
                let close_block = |inner: &mut [i32; LW], run: &[i32; LW], dw: i32| {
                    for (a, &r) in inner.iter_mut().zip(run) {
                        *a = a.wrapping_add(r.wrapping_mul(dw));
                    }
                };
                let (mut run, mut inner) = ([0i32; LW], [0i32; LW]);
                if once {
                    // A row per entry (stream order: nothing subtracts),
                    // then one row per close.
                    for (&b, row) in self.base.iter().zip(&mut prefix[1..]) {
                        gather(&mut run, b, false);
                        *row = run;
                    }
                    let mut end = 0;
                    for close in &self.closes {
                        end += usize::from(close.plus);
                        close_block(&mut inner, &prefix[end], close.dw());
                    }
                } else {
                    let mut row = 1;
                    let mut rest = &self.base[..];
                    for close in &self.closes {
                        let (plus, after) = rest.split_at(close.plus.into());
                        let (minus, after) = after.split_at(close.minus.into());
                        rest = after;
                        for &b in plus {
                            gather(&mut run, b, false);
                        }
                        for &b in minus {
                            gather(&mut run, b, true);
                        }
                        close_block(&mut inner, &run, close.dw());
                        if close.keep() {
                            prefix[row] = run;
                            row += 1;
                        }
                    }
                }
                let mut add_to_plane = |level: usize, acc: &[i32; LW]| {
                    let at = (level * out_w + x) * out_h + y;
                    let dst: &mut [i32] = if PITCH == LW {
                        &mut out.as_chunks_mut::<LW>().0[at]
                    } else {
                        &mut out[at * PITCH..][..LW]
                    };
                    for (o, &a) in dst.iter_mut().zip(acc) {
                        *o += a;
                    }
                };
                add_to_plane(self.plane, &inner);
                // Phase 2, outer levels: segment ranges resolved once; each
                // segment is one row difference times one broadcast weight.
                for (level, bounds) in self.seg_ptr.windows(2).enumerate() {
                    let mut acc = [0i32; LW];
                    for seg in &self.segs[bounds[0] as usize..bounds[1] as usize] {
                        let hi = &prefix[seg.end as usize];
                        let lo = &prefix[seg.start as usize];
                        for (a, (&h, &l)) in acc.iter_mut().zip(hi.iter().zip(lo)) {
                            *a += (h - l) * seg.weight;
                        }
                    }
                    add_to_plane(level, &acc);
                }
            }
        }
    }
}

/// The `#[target_feature]`-gated tier kernels: each wrapper re-monomorphizes
/// the shared [`FlattenedTile::accumulate_lanes_body`] under a wider ISA so
/// the compiler emits full-width vector arithmetic for the strip loops. The
/// body is `#[inline(always)]`, so the feature gate reaches every inner
/// loop.
///
/// These functions are `unsafe` purely by the `#[target_feature]` language
/// rule; they have no other safety obligations.
///
/// # Safety
///
/// The CPU must have the enabled features: [`accumulate_width`] calls a
/// kernel only for the tier of a [`Probed`] token.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod tier_kernels {
    use super::{FlattenedTile, StripRun};
    use ucnn_tensor::ConvGeom;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_lanes_avx2<const LW: usize, const PITCH: usize>(
        tile: &FlattenedTile,
        input: &[i16],
        out: &mut [i32],
        geom: &ConvGeom,
        prefix: &mut [i32],
        run: &StripRun,
    ) {
        tile.accumulate_lanes_body::<LW, PITCH>(input, out, geom, prefix, run);
    }

    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub(super) unsafe fn tile_lanes_avx512<const LW: usize, const PITCH: usize>(
        tile: &FlattenedTile,
        input: &[i16],
        out: &mut [i32],
        geom: &ConvGeom,
        prefix: &mut [i32],
        run: &StripRun,
    ) {
        tile.accumulate_lanes_body::<LW, PITCH>(input, out, geom, prefix, run);
    }
}

/// NEON twin of the x86 tier kernels (NEON is baseline on aarch64, but the
/// explicit gate keeps the dispatch structure uniform).
///
/// # Safety
///
/// As for the x86 kernels: the caller holds a [`Probed`] NEON tier.
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod tier_kernels {
    use super::{FlattenedTile, StripRun};
    use ucnn_tensor::ConvGeom;

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn tile_lanes_neon<const LW: usize, const PITCH: usize>(
        tile: &FlattenedTile,
        input: &[i16],
        out: &mut [i32],
        geom: &ConvGeom,
        prefix: &mut [i32],
        run: &StripRun,
    ) {
        tile.accumulate_lanes_body::<LW, PITCH>(input, out, geom, prefix, run);
    }
}

/// Runs one monomorphized strip width through the selected tier kernel.
///
/// The `unsafe` blocks satisfy the `#[target_feature]` contract by type: a
/// [`Probed`] tier can only be minted by clamping to the CPU's detected
/// capabilities ([`SimdCaps::probe`](crate::simd::SimdCaps::probe), in
/// `run_chunked`), so a gated kernel only runs when its feature was
/// probed present. Foreign-architecture tiers fold into the scalar arm at
/// compile time via the `cfg`s.
#[allow(unsafe_code)]
fn accumulate_width<const LW: usize, const PITCH: usize>(
    tile: &FlattenedTile,
    input: &[i16],
    out: &mut [i32],
    geom: &ConvGeom,
    prefix: &mut [i32],
    run: &StripRun,
    tier: Probed,
) {
    match tier.tier() {
        // SAFETY: `tier` is `Probed`, so AVX2 was detected.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe {
            tier_kernels::tile_lanes_avx2::<LW, PITCH>(tile, input, out, geom, prefix, run);
        },
        // SAFETY: `tier` is `Probed`, so AVX-512 F/BW/DQ/VL were detected.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe {
            tier_kernels::tile_lanes_avx512::<LW, PITCH>(tile, input, out, geom, prefix, run);
        },
        // SAFETY: `tier` is `Probed`, so NEON was detected.
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => unsafe {
            tier_kernels::tile_lanes_neon::<LW, PITCH>(tile, input, out, geom, prefix, run);
        },
        _ => tile.accumulate_lanes_body::<LW, PITCH>(input, out, geom, prefix, run),
    }
}

/// One call of the strip kernel: `width` lanes at a time over the span
/// `ys` of the output rows `xs`, on a chunk staged `pitch` lanes wide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) struct StripRun {
    /// Lanes per strip — the monomorphized `LW`: `width / pitch`
    /// neighbouring output positions × `pitch` lanes.
    pub(super) width: usize,
    /// Lanes per staged cell (its row pitch).
    pitch: usize,
    /// The output rows walked: all of them, or one copy's band of them.
    xs: Range<usize>,
    /// The positions `y` of every output row, in steps of `width / pitch`.
    ys: Range<usize>,
}

/// How a chunk of `images` images lies in the `pitch` lanes of one layer's
/// staged cells (the images, at least [`LANE_WIDTH`]): lane `v·images + i`
/// is copy `v` of image `i`, moved up by `v·rows` output rows, for `bands`
/// copies, and every lane past them is zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Lanes {
    pub(super) images: usize,
    pub(super) pitch: usize,
    pub(super) bands: usize,
    pub(super) rows: usize,
}

impl Lanes {
    pub(super) fn new(images: usize, geom: &ConvGeom) -> Self {
        let pitch = images.max(LANE_WIDTH);
        let rows = geom.out_w().div_ceil(pitch / images);
        Self {
            images,
            pitch,
            bands: geom.out_w().div_ceil(rows),
            rows,
        }
    }

    /// Fills copies `1..bands` of a staged plane of `geom`'s input from copy
    /// 0, as many rows as a copy reads (past the plane its lanes stay zero),
    /// lane by lane: a cell-wide copy of `images` lanes is a `memcpy` call.
    pub(super) fn replicate(&self, plane: &mut [i16], geom: &ConvGeom) {
        let (b, stride) = (self.images, geom.stride());
        let row = (geom.in_h() + 2 * geom.pad()) * LANE_WIDTH;
        let channel = (geom.in_w() + 2 * geom.pad()) * row;
        for channel in plane.chunks_exact_mut(channel) {
            for v in 1..self.bands {
                for x in 0..(self.rows - 1) * stride + geom.r() {
                    let (head, tail) = channel.split_at_mut((x + 1) * row);
                    let from = (v * self.rows * stride - 1) * row;
                    let Some(src) = tail.get(from..).and_then(|src| src.get(..row)) else {
                        break;
                    };
                    let dst = head[x * row..].as_chunks_mut::<LANE_WIDTH>().0;
                    for l in 0..b {
                        for (d, s) in dst.iter_mut().zip(src.as_chunks::<LANE_WIDTH>().0) {
                            d[v * b + l] = s[l];
                        }
                    }
                }
            }
        }
    }

    /// Where real row `r` of a band of `w`-row planes walked this way is
    /// kept: its stored row, and the first lane of its copy.
    pub(super) fn stored(&self, r: usize, w: usize) -> (usize, usize) {
        let x = r % w;
        (r - x + x % self.rows, x / self.rows * self.images)
    }
}

/// The strip-kernel calls one tile makes for a chunk laid out as `lanes` on
/// `tier` — where a strip's shape (positions × lanes) is chosen, from the
/// chunk width and the layer's geometry alone.
///
/// At stride 1 the staged cells of neighbouring output positions are
/// contiguous, so a strip takes as many positions of an output row as the
/// tier's registers hold: it cascades through the powers of two from
/// [`SimdTier::strip_lanes`]` / pitch` positions down to one, one run per
/// width. Strided layers (a row's reads are not contiguous) and `out_h == 1`
/// (fully connected) take one position per strip.
pub(super) fn strip_runs(
    geom: &ConvGeom,
    lanes: Lanes,
    tier: SimdTier,
) -> impl Iterator<Item = StripRun> {
    let (out_h, lw) = (geom.out_h(), lanes.pitch);
    let row_lanes = geom.stride() == 1 && out_h > 1;
    let mut y = 0;
    std::iter::from_fn(move || {
        let rest = out_h - y;
        if rest == 0 {
            return None;
        }
        let width = match row_lanes {
            true => lw << rest.min(tier.strip_lanes() / lw).ilog2(),
            false => lw,
        };
        // Every strip of this width in one run, `width / lw` positions each.
        let ys = y..out_h - rest % (width / lw);
        y = ys.end;
        Some(StripRun {
            width,
            pitch: lw,
            xs: 0..lanes.rows,
            ys,
        })
    })
}

/// Declares the monomorphized `(width, pitch)` strip kernels: the dispatch
/// of one [`StripRun`] and the same list as data for the census test.
macro_rules! strip_kernels {
    ($(($lw:literal, $pitch:literal))*) => {
        #[cfg(test)]
        pub(super) const KERNELS: &[(usize, usize)] = &[$(($lw, $pitch)),*];

        /// Dispatches one [`StripRun`] to its monomorphized kernel.
        pub(super) fn accumulate_tile_lanes(
            tile: &FlattenedTile,
            input: &[i16],
            out: &mut [i32],
            geom: &ConvGeom,
            prefix: &mut [i32],
            run: &StripRun,
            tier: Probed,
        ) {
            match (run.width, run.pitch) {
                $(($lw, $pitch) => {
                    accumulate_width::<$lw, $pitch>(tile, input, out, geom, prefix, run, tier);
                })*
                other => unreachable!("strip {other:?} has no monomorphized kernel"),
            }
        }
    };
}

// The pitches [`chunk_widths`]' chunks stage at (8, 16, 32) at every
// power-of-two depth up to 128 lanes: 12 kernels per ISA tier, each one
// emitted by some tier and nothing else
// (`every_strip_has_a_kernel_and_every_kernel_a_strip`).
strip_kernels! {
    (8, 8) (16, 8) (32, 8) (64, 8) (128, 8)
    (16, 16) (32, 16) (64, 16) (128, 16)
    (32, 32) (64, 32) (128, 32)
}

/// The widths of the lane chunks a batch of `images` runs in, in order, when
/// the dispatched tier interleaves `lane_width` at once: whole tier-width
/// chunks first, then 16, then [`LANE_WIDTH`], then the rest as one chunk —
/// which fills the pitch it stages at with copies of its images ([`Lanes`]).
pub(super) fn chunk_widths(images: usize, lane_width: usize) -> impl Iterator<Item = usize> {
    let mut rest = images;
    std::iter::from_fn(move || {
        let width = match rest {
            0 => return None,
            r if r >= lane_width => lane_width,
            r if r >= 16 => 16,
            r => r.min(LANE_WIDTH),
        };
        rest -= width;
        Some(width)
    })
}

/// How a batch of `batch` images of a layer runs on `tier`: the lane chunks
/// [`chunk_widths`] cuts it into and the widest strip any of them runs
/// ([`strip_runs`]) — the analytic
/// [`LayerWork::lane_strips`](crate::counters::LayerWork::lane_strips) and
/// [`LayerWork::lane_width`](crate::counters::LayerWork::lane_width).
#[must_use]
pub(crate) fn strip_profile(geom: &ConvGeom, batch: usize, tier: SimdTier) -> (usize, usize) {
    chunk_widths(batch, tier.lane_width()).fold((0, 0), |(chunks, widest), lw| {
        (chunks + 1, widest.max(widest_strip(geom, lw, tier)))
    })
}

/// The widest strip a chunk of `lw` images runs: its first [`strip_runs`]
/// run — what sizes the prefix rows. Never narrower than a narrower chunk's,
/// or the same chunk's on a narrower tier.
fn widest_strip(geom: &ConvGeom, lw: usize, tier: SimdTier) -> usize {
    let lanes = Lanes::new(lw, geom);
    let first = strip_runs(geom, lanes, tier).next();
    first.map_or(lanes.pitch, |run| run.width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::compile::UcnnConfig;
    use crate::flatten::oracle::{Alphabet, Case};
    use crate::flatten::run_layer;
    use crate::plan::CompiledLayer;
    use crate::simd::SimdCaps;
    use ucnn_model::reference;
    use ucnn_tensor::{Tensor3, Tensor4};

    // Named cases of the oracle, pinned: a change of its generator can move
    // what the seeds draw, not these.

    /// `case` at one image (eight copies), two (four copies each), five
    /// (one copy), a chunk of eight, and eight and three.
    fn at_small_batches(case: Case) {
        for batch in [1, 2, 5, 8, 11] {
            Case { batch, ..case }.check();
        }
    }

    #[test]
    fn fc_shape_is_branch_free_and_exact() {
        let geom = ConvGeom::new(1, 1, 64, 10, 1, 1);
        at_small_batches(Case::pinned(3, geom, 1, 2, 16));
    }

    #[test]
    fn padded_strided_conv_takes_checked_path_and_stays_exact() {
        let geom = ConvGeom::new(11, 9, 5, 6, 3, 3).with_stride(2).with_pad(1);
        at_small_batches(Case::pinned(4, geom, 1, 2, 3));
    }

    #[test]
    fn halo_corners_with_pad2_stride_and_negative_deltas() {
        // pad = 2 with a 3×3 filter makes every tap delta non-positive
        // (r − pad ∈ {−2, −1, 0}), so reads leave the plane on ALL four
        // sides: ix < 0 and iy < 0 at the (0, 0) output corner, ix ≥ in_w /
        // iy ≥ in_h at the far corners once the stride pushes the gather
        // base past the plane. Non-square input (7×6) keeps the two axes
        // from masking each other's bugs.
        for (stride, seed) in [(1usize, 21u64), (2, 22), (3, 23)] {
            let geom = ConvGeom::new(7, 6, 3, 4, 3, 3)
                .with_stride(stride)
                .with_pad(2);
            at_small_batches(Case::pinned(seed, geom, 1, 2, 2));
        }
    }

    #[test]
    fn halo_corners_grouped_conv_pad2() {
        // Grouped conv + pad 2: the absolute-channel gather offsets must
        // stay inside each group's channel band of the haloed plane even
        // while the spatial deltas go negative.
        let geom = ConvGeom::new(6, 7, 3, 4, 3, 3).with_stride(2).with_pad(2);
        at_small_batches(Case::pinned(24, geom, 2, 2, 2));
    }

    #[test]
    fn corner_halo_reads_contribute_zero() {
        // Direct corner probe: an input of all ones with an all-ones filter
        // makes each output count exactly the in-bounds reads, so the four
        // corners of a pad-2 stride-2 layer quantify precisely how many
        // halo reads were clipped. out = (7+4−3)/2+1 = 5 wide, (6+4−3)/2+1
        // = 4 tall; corner (0,0) sees a 1×1 valid window (8 of 9 reads
        // clip), the bottom corners a 1×2 window (iy = 6 clips past
        // in_h = 6 while ix clips at −2/−1 or 7/8).
        let geom = ConvGeom::new(7, 6, 1, 1, 3, 3).with_stride(2).with_pad(2);
        let weights = Tensor4::from_fn(1, 1, 3, 3, |_, _, _, _| 1i16);
        let input = Tensor3::filled(1, 7, 6, 1i16);
        let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::default());
        let out = reference::conv2d(&geom, 1, &input, &weights);
        assert_eq!(out[(0, 0, 0)], 1, "top-left corner: 8 of 9 reads clip");
        assert_eq!(
            out[(0, geom.out_w() - 1, 0)],
            1,
            "top-right corner clips ix ≥ in_w and iy < 0"
        );
        assert_eq!(
            out[(0, 0, geom.out_h() - 1)],
            2,
            "bottom-left corner clips ix < 0 and iy ≥ in_h"
        );
        assert_eq!(
            out[(0, geom.out_w() - 1, geom.out_h() - 1)],
            2,
            "bottom-right corner clips ix ≥ in_w and iy ≥ in_h"
        );
        // The kernels read the same zero halo, one image or several.
        for batch in [1, 4] {
            for got in run_layer(&layer, &vec![input.clone(); batch], SimdCaps::get().best()) {
                assert_eq!(got, out);
            }
        }
    }

    #[test]
    fn grouped_conv_exact() {
        let geom = ConvGeom::new(7, 7, 4, 6, 3, 3).with_pad(1);
        at_small_batches(Case::pinned(5, geom, 2, 2, 4));
    }

    #[test]
    fn ragged_channel_tiles_exact() {
        // Every depth of hierarchy over the same ragged tiles: G = 1 is the
        // fused level alone, G = 4 three outer levels above it.
        let geom = ConvGeom::new(8, 8, 10, 4, 3, 3);
        for g in 1..=4 {
            at_small_batches(Case::pinned(6, geom, 1, g, 4));
        }
    }

    #[test]
    fn every_available_tier_is_bit_identical() {
        // An INQ FC, an INQ conv and a ternary-TTQ FC, each one chunk of
        // every tier's width and three more images.
        let fc = ConvGeom::new(1, 1, 64, 8, 1, 1);
        let conv = ConvGeom::new(4, 4, 3, 4, 3, 3).with_pad(1);
        for (seed, geom, alphabet) in [
            (50, fc, Alphabet::Inq),
            (51, conv, Alphabet::Inq),
            (52, fc, Alphabet::Ttq),
        ] {
            let case = Case {
                alphabet,
                ..Case::pinned(seed, geom, 1, 2, 64)
            };
            for batch in [11, 19, 35] {
                Case { batch, ..case }.check();
            }
        }
    }

    /// The census domain: every chunk width a tier cuts a batch into — 1–7
    /// images as well as 8, 16 and 32 — over output rows of 1…40 positions
    /// at stride 1 and 2, 1, 7 or 12 of them, with its strips.
    fn census() -> impl Iterator<Item = (ConvGeom, Lanes, SimdTier, Vec<StripRun>)> {
        let domain = SimdTier::ALL.into_iter().flat_map(|tier| {
            let chunks = [1usize, 2, 3, 5, 7, 8, 16, 32].into_iter();
            let chunks = chunks.filter(move |&lw| lw < LANE_WIDTH || lw <= tier.lane_width());
            chunks.flat_map(move |lw| {
                (1usize..=40).flat_map(move |out_h| [1usize, 2].map(|st| (tier, lw, out_h, st)))
            })
        });
        domain.map(|(tier, lw, out_h, stride)| {
            let (input, out_w) = (|out: usize| stride * (out - 1) + 1, [1, 7, 12][out_h % 3]);
            let geom = ConvGeom::new(input(out_w), input(out_h), 2, 2, 1, 1).with_stride(stride);
            assert_eq!((geom.out_w(), geom.out_h()), (out_w, out_h));
            let lanes = Lanes::new(lw, &geom);
            (geom, lanes, tier, strip_runs(&geom, lanes, tier).collect())
        })
    }

    #[test]
    fn chunk_decomposition_emits_only_kernel_widths() {
        for lane in [8usize, 16, 32] {
            for total in 1usize..=70 {
                let seen_widths: Vec<usize> = chunk_widths(total, lane).collect();
                let mut rest = total;
                for &w in &seen_widths {
                    assert!(w == rest || matches!(w, 8 | 16 | MAX_CHUNK), "width {w}");
                    assert!(w <= lane, "width {w} exceeds tier lane {lane}");
                    rest -= w;
                }
                assert_eq!(seen_widths.iter().sum::<usize>(), total);
                // Full tier-width chunks come first; widths never increase.
                for pair in seen_widths.windows(2) {
                    assert!(pair[0] >= pair[1], "widths must be non-increasing");
                }
                // Below eight images the rest is one chunk of its own.
                let small = seen_widths.iter().filter(|&&w| w < LANE_WIDTH).count();
                assert_eq!(small, usize::from(total % 8 > 0), "B={total}, {lane}");
            }
        }
        // The copies of a chunk cover its output rows once, and the strips
        // partition every output row exactly once, widest first, each a
        // whole number of positions × the pitch and no wider than the
        // tier's registers hold.
        for (geom, lanes, tier, runs) in census() {
            let what = format!("{} {geom:?} {lanes:?}: {runs:?}", tier.name());
            let (out_h, row_lanes) = (geom.out_h(), geom.stride() == 1 && geom.out_h() > 1);
            let lw = lanes.pitch;
            assert!(lw == lanes.images.max(LANE_WIDTH) && lanes.bands * lanes.images <= lw);
            let rows = (lanes.bands - 1) * lanes.rows..lanes.bands * lanes.rows;
            assert!(rows.contains(&(geom.out_w() - 1)), "{what}");
            let mut y = 0;
            for run in &runs {
                let shape = (run.ys.start, run.pitch, run.xs.clone());
                assert_eq!(shape, (y, lw, 0..lanes.rows), "{what}");
                assert_eq!(run.width % lw, 0, "{what}");
                let positions = run.width / lw;
                assert!(
                    !run.ys.is_empty() && run.ys.len() % positions == 0,
                    "{what}"
                );
                assert!(row_lanes || positions == 1, "{what}");
                assert!(run.width <= tier.strip_lanes().max(lw), "{what}");
                assert!(positions.is_power_of_two(), "{what}");
                y = run.ys.end;
            }
            assert_eq!(y, out_h, "{what}");
            assert!(runs.windows(2).all(|p| p[0].width > p[1].width), "{what}");
            // The widest strip comes first, and takes all the row offers.
            let widest = widest_strip(&geom, lanes.images, tier);
            assert_eq!(widest, runs[0].width, "{what}");
            assert!(!row_lanes || 2 * widest > (out_h * lw).min(tier.strip_lanes()));
            // The profile of one such chunk is one chunk of that strip.
            let profile = strip_profile(&geom, lanes.images, tier);
            assert_eq!(profile, (1, widest), "{what}");
        }
        // Two worked rows: LeNet's conv2 (16 positions) and a ragged 7, of
        // three output rows — one each for the copies of a single image.
        let geom = ConvGeom::new(3, 16, 2, 2, 1, 1);
        let runs = |geom: &ConvGeom, lw, tier| {
            let runs = strip_runs(geom, Lanes::new(lw, geom), tier);
            runs.map(|r| (r.width, r.pitch, r.xs, r.ys))
                .collect::<Vec<_>>()
        };
        assert_eq!(runs(&geom, 32, SimdTier::Avx512), [(128, 32, 0..3, 0..16)]);
        assert_eq!(runs(&geom, 8, SimdTier::Avx512), [(128, 8, 0..3, 0..16)]);
        assert_eq!(runs(&geom, 16, SimdTier::Avx2), [(32, 16, 0..3, 0..16)]);
        assert_eq!(runs(&geom, 1, SimdTier::Avx2), [(32, 8, 0..1, 0..16)]);
        let geom = ConvGeom::new(3, 7, 2, 2, 1, 1);
        let ragged = |xs: Range<usize>| {
            [(32, 0..4), (16, 4..6), (8, 6..7)].map(|(w, ys)| (w, 8, xs.clone(), ys))
        };
        assert_eq!(runs(&geom, 8, SimdTier::Scalar), ragged(0..3));
        assert_eq!(runs(&geom, 2, SimdTier::Scalar), ragged(0..1));
    }

    #[test]
    fn every_strip_has_a_kernel_and_every_kernel_a_strip() {
        // Both directions over the census domain: a strip without a kernel
        // is a panic waiting for its geometry, a kernel without a strip is
        // dead code monomorphized three times.
        let emitted: std::collections::BTreeSet<(usize, usize)> = census()
            .flat_map(|(.., runs)| runs)
            .map(|run| (run.width, run.pitch))
            .collect();
        let table: std::collections::BTreeSet<(usize, usize)> = KERNELS.iter().copied().collect();
        assert_eq!(table.len(), KERNELS.len(), "a kernel is listed twice");
        assert_eq!(KERNELS.len(), 12, "kernels per tier");
        let missing: Vec<_> = emitted.difference(&table).collect();
        assert!(missing.is_empty(), "strips with no kernel: {missing:?}");
        let dead: Vec<_> = table.difference(&emitted).collect();
        assert!(dead.is_empty(), "kernels nothing emits: {dead:?}");
    }

    #[test]
    #[should_panic(expected = "input plane mismatch")]
    fn rejects_mismatched_input() {
        let geom = ConvGeom::new(6, 6, 4, 4, 3, 3);
        let weights = Tensor4::from_fn(4, 4, 3, 3, |_, _, _, _| 1i16);
        let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::default());
        let bad = [Tensor3::filled(4, 5, 5, 1i16)];
        let _ = BackendKind::FlattenedBatch.run_layer(&layer, &bad);
    }
}
