//! The datapath: the shared strip body over a lowered tile, its
//! `#[target_feature]` tier kernels, the `avx512` tier's `vpdpwssd` body, and
//! the strip shapes a chunk runs. The only file of the crate with `unsafe`
//! in it.

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
    /// The `avx512` tier runs its strips of 32 lanes or more through
    /// [`vnni_body`](tier_kernels::vnni_body) instead: the same walk and the
    /// same per-lane sequence, its lanes held in another register order.
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

impl FlattenedTile {
    /// The dense strip body: writes a dense tile's band — every filter's sums
    /// for `LW` lanes at once, over the positions `run.ys` of the output rows
    /// `run.xs` — into `out` (laid out as for
    /// [`accumulate_lanes_body`](Self::accumulate_lanes_body)), storing each
    /// sum once: the band's planes need no zeroing first. `input` holds the
    /// chunk with its channels staged in pairs, `(x_2c, x_2c+1)` per lane
    /// (an `i32` of two `i16`), so a pair-tap's strip is `LW` such pairs and
    /// each lane adds `x_2c·w_2c + x_2c+1·w_2c+1` per filter — `pmaddwd`'s
    /// arithmetic, wrapping where both products are `2³⁰`, as that
    /// instruction does. One filter a pass over the pair-taps: a second
    /// filter's lane array would not fit baseline x86-64's sixteen registers
    /// beside the first. The `avx2` and `avx512` tiers run bodies of their
    /// own, [`dense_avx2_body`](tier_kernels::dense_avx2_body) and
    /// [`dense_vnni_body`](tier_kernels::dense_vnni_body): baseline codegen
    /// finds `pmaddwd` for the odd channel only, and multiplies the even
    /// one through `pmuludq`.
    #[inline(always)]
    fn dense_lanes_body<const LW: usize, const PITCH: usize>(
        &self,
        input: &[i16],
        out: &mut [i32],
        geom: &ConvGeom,
        run: &StripRun,
    ) {
        let (out_w, out_h) = (geom.out_w(), geom.out_h());
        let ph = geom.in_h() + 2 * geom.pad();
        let stride = geom.stride();
        let pairs = self.pairs.as_deref().expect("a dense tile");
        let per_tap = self.g.next_multiple_of(2);
        let (cells, _) = input.as_chunks::<2>();
        for x in run.xs.clone() {
            for y in run.ys.clone().step_by(LW / PITCH) {
                let delta = stride * (x * ph + y);
                for f in 0..self.g {
                    let mut acc = [0i32; LW];
                    for (&b, packed) in self.base.iter().zip(pairs.chunks_exact(per_tap)) {
                        let at = b as usize + delta;
                        let strip: &[[i16; 2]] = if PITCH == LW {
                            &cells.as_chunks::<LW>().0[at]
                        } else {
                            &cells[at * PITCH..][..LW]
                        };
                        let w = packed[f];
                        let (lo, hi) = (i32::from(w as i16), i32::from((w >> 16) as i16));
                        for (a, &[x0, x1]) in acc.iter_mut().zip(strip) {
                            let dot = (i32::from(x0) * lo).wrapping_add(i32::from(x1) * hi);
                            *a = a.wrapping_add(dot);
                        }
                    }
                    let at = (f * out_w + x) * out_h + y;
                    let dst: &mut [i32] = if PITCH == LW {
                        &mut out.as_chunks_mut::<LW>().0[at]
                    } else {
                        &mut out[at * PITCH..][..LW]
                    };
                    dst.copy_from_slice(&acc);
                }
            }
        }
    }

    /// The strip body of this tile's kind, for the tiers without a dense
    /// body of their own: [`Self::dense_lanes_body`] for a dense tile,
    /// [`Self::accumulate_lanes_body`] for every other walk.
    #[inline(always)]
    fn strip_body<const LW: usize, const PITCH: usize>(
        &self,
        input: &[i16],
        out: &mut [i32],
        geom: &ConvGeom,
        prefix: &mut [i32],
        run: &StripRun,
    ) {
        if self.is_dense() {
            self.dense_lanes_body::<LW, PITCH>(input, out, geom, run);
        } else {
            self.accumulate_lanes_body::<LW, PITCH>(input, out, geom, prefix, run);
        }
    }
}

/// The `#[target_feature]`-gated tier kernels: each wrapper re-monomorphizes
/// the shared bodies ([`FlattenedTile::strip_body`]) under a wider ISA so
/// the compiler emits full-width vector arithmetic for the strip loops. The
/// bodies are `#[inline(always)]`, so the feature gate reaches every inner
/// loop. The `avx512` tier runs strips of 32 lanes or more through a body of
/// its own, [`vnni_body`](tier_kernels::vnni_body), and a dense tile's strips
/// of 16 or more through [`dense_vnni_body`](tier_kernels::dense_vnni_body);
/// the `avx2` tier runs a dense tile's strips (and `avx512` its 8-lane ones)
/// through [`dense_avx2_body`](tier_kernels::dense_avx2_body): all three are
/// written in intrinsics.
///
/// The wrappers are `unsafe` purely by the `#[target_feature]` language
/// rule; the three intrinsic bodies also load and store through pointers,
/// each taken from a bounds-checked slice of exactly the 64 (or, in
/// `dense_avx2_body`, 32) bytes it moves.
///
/// # Safety
///
/// The CPU must have the enabled features: [`accumulate_width`] calls a
/// kernel only for the tier of a [`Probed`] token.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod tier_kernels {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm512_add_epi32, _mm512_dpwssd_epi32,
        _mm512_loadu_si512, _mm512_mullo_epi32, _mm512_permutex2var_epi32, _mm512_set1_epi32,
        _mm512_setr_epi32, _mm512_setzero_si512, _mm512_storeu_si512, _mm512_sub_epi32,
    };

    use super::{walked_once, FlattenedTile, StripRun};
    use crate::simd::SimdTier;
    use ucnn_tensor::ConvGeom;

    /// `i32` lanes in a `zmm`.
    const Z: usize = 16;
    /// `zmm` in the widest strip's lane array.
    const ZMM: usize = SimdTier::Avx512.strip_lanes() / Z;
    /// `i32` lanes in a `ymm`.
    const Y: usize = 8;
    /// `ymm` in the `avx2` tier's widest strip's lane array.
    const YMM: usize = SimdTier::Avx2.strip_lanes() / Y;

    /// Declares a dense tile's strip body over one register width: the
    /// walk of [`FlattenedTile::dense_lanes_body`], each load of a pair-tap's
    /// strip — `$lanes` lanes of `(x_2c, x_2c+1)`, one register — feeding
    /// the multiply-add `$mac` (`acc + x_2c·w_2c + x_2c+1·w_2c+1` per lane)
    /// once per filter of the pass, by that filter's broadcast pair. Two
    /// filters a pass, `$regs` registers each at the widest strip; the sums
    /// stay in lane order and are stored once. Written as a macro so that
    /// every intrinsic expands inside its `#[target_feature]` function.
    macro_rules! dense_body {
        (
            $(#[$attr:meta])*
            $name:ident: $lanes:ident * $regs:ident,
            $zero:ident, $set1:ident, $load:ident, $store:ident,
            |$acc:ident, $x:ident, $w:ident| $mac:expr
        ) => {
            $(#[$attr])*
            pub(super) unsafe fn $name<const LW: usize, const PITCH: usize>(
                tile: &FlattenedTile,
                input: &[i16],
                out: &mut [i32],
                geom: &ConvGeom,
                run: &StripRun,
            ) {
                let fits = LW.is_multiple_of($lanes) && LW <= $regs * $lanes;
                debug_assert!(fits, "a {LW}-lane strip");
                let (out_w, out_h) = (geom.out_w(), geom.out_h());
                let ph = geom.in_h() + 2 * geom.pad();
                let stride = geom.stride();
                let pairs = tile.pairs.as_deref().expect("a dense tile");
                let per_tap = tile.g.next_multiple_of(2);
                let (cells, _) = input.as_chunks::<2>();
                let zero = $zero();
                // Stores the registers `sums` into the band's plane `level`
                // at the strip's cell.
                macro_rules! store {
                    ($level:expr, $at_x:expr, $at_y:expr, $sums:expr) => {{
                        let at = ($level * out_w + $at_x) * out_h + $at_y;
                        let dst: &mut [i32] = if PITCH == LW {
                            &mut out.as_chunks_mut::<LW>().0[at]
                        } else {
                            &mut out[at * PITCH..][..LW]
                        };
                        let (lanes, _) = dst.as_chunks_mut::<$lanes>();
                        for (lanes, &sum) in lanes.iter_mut().zip($sums.iter()) {
                            // SAFETY: `lanes` is a checked `&mut [i32; $lanes]`.
                            $store(lanes.as_mut_ptr().cast(), sum);
                        }
                    }};
                }
                for x in run.xs.clone() {
                    for y in run.ys.clone().step_by(LW / PITCH) {
                        let delta = stride * (x * ph + y);
                        for f in (0..tile.g).step_by(2) {
                            let (mut first, mut second) = ([zero; $regs], [zero; $regs]);
                            let taps = tile.base.iter().zip(pairs.chunks_exact(per_tap));
                            for (&b, packed) in taps {
                                let at = b as usize + delta;
                                let strip: &[[i16; 2]] = if PITCH == LW {
                                    &cells.as_chunks::<LW>().0[at]
                                } else {
                                    &cells[at * PITCH..][..LW]
                                };
                                let w = &packed[f..f + 2];
                                let (w0, w1) = ($set1(w[0]), $set1(w[1]));
                                for (i, lanes) in strip.as_chunks::<$lanes>().0.iter().enumerate() {
                                    // SAFETY: `lanes` is a checked
                                    // `&[[i16; 2]; $lanes]`, the bytes loaded.
                                    let $x = $load(lanes.as_ptr().cast());
                                    first[i] = {
                                        let ($acc, $w) = (first[i], w0);
                                        $mac
                                    };
                                    second[i] = {
                                        let ($acc, $w) = (second[i], w1);
                                        $mac
                                    };
                                }
                            }
                            store!(f, x, y, first);
                            if f + 1 < tile.g {
                                store!(f + 1, x, y, second);
                            }
                        }
                    }
                }
            }
        };
    }

    dense_body! {
        /// The `avx2` tier's dense strip body, and the `avx512` tier's for
        /// strips of 8 lanes: per 32-byte load one `vpmaddwd` and one
        /// `vpaddd` per filter; two filters of 32 lanes are 8 accumulators.
        #[target_feature(enable = "avx2")]
        dense_avx2_body: Y * YMM,
        _mm256_setzero_si256, _mm256_set1_epi32, _mm256_loadu_si256, _mm256_storeu_si256,
        |acc, x, w| _mm256_add_epi32(acc, _mm256_madd_epi16(x, w))
    }

    dense_body! {
        /// The `avx512` tier's dense strip body, for strips of a multiple of
        /// 16 lanes: per 64-byte load one `vpdpwssd` per filter; two filters
        /// of 128 lanes are 16 accumulators, which the registers hold with
        /// the load and both broadcasts (CI disassembles this body, and
        /// fails on any `zmm` it moves through the stack).
        #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni")]
        dense_vnni_body: Z * ZMM,
        _mm512_setzero_si512, _mm512_set1_epi32, _mm512_loadu_si512, _mm512_storeu_si512,
        |acc, x, w| _mm512_dpwssd_epi32(acc, x, w)
    }

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

    /// The `avx512` tier's 8- and 16-lane strips (drains of fewer than 32
    /// images through a one-position layer).
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

    /// The `avx512` tier's strip body for strips of a multiple of 32 lanes:
    /// [`FlattenedTile::accumulate_lanes_body`]'s walk, with phase 1 on
    /// `vpdpwssd`. Each 32-lane `i16` slice of a gathered strip is one load
    /// that two `vpdpwssd` widen, multiply by the sub-run's sign `s = ±1` and
    /// add into two `i32` registers: the even lanes through the broadcast
    /// `i16` pair `(s, 0)`, the odd lanes through `(0, s)`. Each lane adds
    /// exactly `±x`, wrapping, as the shared body does — the per-lane `i32`
    /// sequence is the same, and `(−1)·i16::MIN` lands as `+32 768`.
    ///
    /// So the running sums hold each slice's lanes even ones first. The close
    /// block, the kept prefix rows and phase 2 are lane-wise and keep that
    /// order; a sum returns to lane order (two `vpermt2d` per slice) only
    /// where it is added to the band's plane.
    ///
    /// The intrinsics are written here, in the `#[target_feature]` function
    /// itself (the macros expand in place): an intrinsic is only sure to
    /// inline into a function that enables its feature, and in a closure or
    /// a helper its inlining would rest on the compiler's rules for those
    /// (docs/LAB.md Part 13).
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni")]
    pub(super) unsafe fn vnni_body<const LW: usize, const PITCH: usize>(
        tile: &FlattenedTile,
        input: &[i16],
        out: &mut [i32],
        geom: &ConvGeom,
        prefix: &mut [i32],
        run: &StripRun,
    ) {
        debug_assert!(
            LW.is_multiple_of(2 * Z) && LW <= ZMM * Z,
            "a {LW}-lane strip"
        );
        let (out_w, out_h) = (geom.out_w(), geom.out_h());
        let ph = geom.in_h() + 2 * geom.pad();
        let stride = geom.stride();
        let (prefix, _) = prefix[..tile.rows * LW].as_chunks_mut::<LW>();
        prefix[0] = [0; LW];
        let once = walked_once(geom);
        let zero = _mm512_setzero_si512();
        // The `i16` pairs `(s, 0)` and `(0, s)`, for `s = 1` and `s = −1`.
        let plus = [_mm512_set1_epi32(1), _mm512_set1_epi32(1 << 16)];
        let minus = [_mm512_set1_epi32(0xffff), _mm512_set1_epi32(-1 << 16)];
        // `vpermt2d` indices: lanes 0–15 and 16–31 of a slice, from its even
        // and odd registers.
        let low = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
        let high = _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);

        // Adds `sign ·` the strip at staged cell `at` into the registers `run`.
        macro_rules! gather {
            ($run:ident, $at:expr, $sign:ident) => {{
                let at = $at;
                let strip: &[i16] = if PITCH == LW {
                    &input.as_chunks::<LW>().0[at]
                } else {
                    &input[at * PITCH..][..LW]
                };
                let (slices, _) = strip.as_chunks::<{ 2 * Z }>();
                for (pair, slice) in $run.as_chunks_mut::<2>().0.iter_mut().zip(slices) {
                    // SAFETY: `slice` is a checked `&[i16; 32]`, the 64 bytes
                    // loaded.
                    let x = _mm512_loadu_si512(slice.as_ptr().cast());
                    pair[0] = _mm512_dpwssd_epi32(pair[0], x, $sign[0]);
                    pair[1] = _mm512_dpwssd_epi32(pair[1], x, $sign[1]);
                }
            }};
        }
        // Telescoped, `run·Δw` wraps by contract (see the shared body).
        macro_rules! close_block {
            ($inner:ident, $run:expr, $dw:expr) => {{
                let dw = _mm512_set1_epi32($dw);
                for (a, &r) in $inner.iter_mut().zip($run.iter()).take(LW / Z) {
                    *a = _mm512_add_epi32(*a, _mm512_mullo_epi32(r, dw));
                }
            }};
        }
        macro_rules! load_row {
            ($row:expr) => {{
                let mut regs = [zero; ZMM];
                for (reg, lanes) in regs.iter_mut().zip($row.as_chunks::<Z>().0) {
                    // SAFETY: `lanes` is a checked `&[i32; 16]`.
                    *reg = _mm512_loadu_si512(lanes.as_ptr().cast());
                }
                regs
            }};
        }
        macro_rules! store_row {
            ($row:expr, $regs:expr) => {{
                for (lanes, &reg) in $row.as_chunks_mut::<Z>().0.iter_mut().zip($regs.iter()) {
                    // SAFETY: `lanes` is a checked `&mut [i32; 16]`.
                    _mm512_storeu_si512(lanes.as_mut_ptr().cast(), reg);
                }
            }};
        }
        // Adds the registers `acc`, back in lane order, into the band's
        // plane at cell `at`.
        macro_rules! add_to_plane {
            ($at:expr, $acc:expr) => {{
                let at = $at;
                let dst: &mut [i32] = if PITCH == LW {
                    &mut out.as_chunks_mut::<LW>().0[at]
                } else {
                    &mut out[at * PITCH..][..LW]
                };
                let (halves, _) = dst.as_chunks_mut::<Z>();
                let (slices, _) = halves.as_chunks_mut::<2>();
                for (slice, &[even, odd]) in slices.iter_mut().zip($acc.as_chunks::<2>().0) {
                    for (lanes, order) in slice.iter_mut().zip([low, high]) {
                        // SAFETY: `lanes` is a checked `&mut [i32; 16]`.
                        let sum = _mm512_add_epi32(
                            _mm512_loadu_si512(lanes.as_ptr().cast()),
                            _mm512_permutex2var_epi32(even, order, odd),
                        );
                        _mm512_storeu_si512(lanes.as_mut_ptr().cast(), sum);
                    }
                }
            }};
        }

        for x in run.xs.clone() {
            for y in run.ys.clone().step_by(LW / PITCH) {
                // Phase 1, as in the shared body.
                let delta = stride * (x * ph + y);
                let (mut run, mut inner) = ([zero; ZMM], [zero; ZMM]);
                if once {
                    for (&b, row) in tile.base.iter().zip(&mut prefix[1..]) {
                        gather!(run, b as usize + delta, plus);
                        store_row!(row, run);
                    }
                    let mut end = 0;
                    for close in &tile.closes {
                        end += usize::from(close.plus);
                        close_block!(inner, load_row!(prefix[end]), close.dw());
                    }
                } else {
                    let mut row = 1;
                    let mut rest = &tile.base[..];
                    for close in &tile.closes {
                        let (plus_run, after) = rest.split_at(close.plus.into());
                        let (minus_run, after) = after.split_at(close.minus.into());
                        rest = after;
                        for &b in plus_run {
                            gather!(run, b as usize + delta, plus);
                        }
                        for &b in minus_run {
                            gather!(run, b as usize + delta, minus);
                        }
                        close_block!(inner, run, close.dw());
                        if close.keep() {
                            store_row!(prefix[row], run);
                            row += 1;
                        }
                    }
                }
                let cell = |level: usize| (level * out_w + x) * out_h + y;
                add_to_plane!(cell(tile.plane), inner);
                // Phase 2, as in the shared body, wrapping.
                for (level, bounds) in tile.seg_ptr.windows(2).enumerate() {
                    let mut acc = [zero; ZMM];
                    for seg in &tile.segs[bounds[0] as usize..bounds[1] as usize] {
                        let weight = _mm512_set1_epi32(seg.weight);
                        let hi = load_row!(prefix[seg.end as usize]);
                        let lo = load_row!(prefix[seg.start as usize]);
                        for (a, (&h, &l)) in acc.iter_mut().zip(hi.iter().zip(&lo)).take(LW / Z) {
                            let d = _mm512_sub_epi32(h, l);
                            *a = _mm512_add_epi32(*a, _mm512_mullo_epi32(d, weight));
                        }
                    }
                    add_to_plane!(cell(level), acc);
                }
            }
        }
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
        tile.strip_body::<LW, PITCH>(input, out, geom, prefix, run);
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
        // SAFETY: `tier` is `Probed`, so AVX-512 F/BW/DQ/VL and VNNI were
        // detected; every load and store reads or writes a checked slice.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 if tile.is_dense() && LW >= 16 => unsafe {
            tier_kernels::dense_vnni_body::<LW, PITCH>(tile, input, out, geom, run);
        },
        // SAFETY: `tier` is `Probed`, so AVX2 was detected (AVX-512 implies
        // it); every load and store reads or writes a checked slice.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 | SimdTier::Avx512 if tile.is_dense() => unsafe {
            tier_kernels::dense_avx2_body::<LW, PITCH>(tile, input, out, geom, run);
        },
        // SAFETY: `tier` is `Probed`, so AVX2 was detected.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe {
            tier_kernels::tile_lanes_avx2::<LW, PITCH>(tile, input, out, geom, prefix, run);
        },
        // SAFETY: `tier` is `Probed`, so AVX-512 F/BW/DQ/VL and VNNI were
        // detected; every load and store reads or writes a checked slice.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 if LW >= 32 => unsafe {
            tier_kernels::vnni_body::<LW, PITCH>(tile, input, out, geom, prefix, run);
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
        _ => tile.strip_body::<LW, PITCH>(input, out, geom, prefix, run),
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
    /// A lane is one `T`: an `i16`, or a pair of them where the plane holds
    /// two channels to a lane.
    pub(super) fn replicate<T: Copy>(&self, plane: &mut [T], geom: &ConvGeom) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::compile::UcnnConfig;
    use crate::flatten::oracle::{Alphabet, Case, Seen};
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

    #[test]
    fn sign_edge_is_exact_on_every_avx512_strip() {
        // ±1 weights, and images 0 and 1 all `i16::MAX` and all `i16::MIN`
        // (in every build: their sums stay in `i32`), the rest distinct: a
        // minus sub-run adds `(−1)·i16::MIN = +32 768` into an odd lane, and
        // a lane out of order swaps two images. The convolution's 31
        // positions per output row cascade through every strip width of
        // chunks of 32, 16 and 8 images and of 5 in copies; the fully
        // connected layer is walked once.
        let conv = ConvGeom::new(4, 33, 3, 4, 3, 3);
        let fc = ConvGeom::new(1, 1, 40, 6, 1, 1);
        let mut emitted = std::collections::BTreeSet::new();
        for (seed, geom, g) in [(70, conv, 1), (71, conv, 2), (72, fc, 2)] {
            for batch in [5, 56] {
                let case = Case {
                    alphabet: Alphabet::SignEdge,
                    batch,
                    ..Case::pinned(seed, geom, 1, g, 64)
                };
                let seen = case.check();
                let folded = seen.contains(&Seen::MinusSubRun);
                assert!(folded || walked_once(&geom), "{case:?}");
                let avx512 = SimdTier::Avx512;
                for images in chunk_widths(batch, avx512.lane_width()) {
                    let runs = strip_runs(&geom, Lanes::new(images, &geom), avx512);
                    emitted.extend(runs.map(|run| (run.width, run.pitch)));
                }
            }
        }
        assert_eq!(emitted, KERNELS.iter().copied().collect());
    }

    #[test]
    fn dense_tiles_pair_odd_channels_with_a_zero_channel() {
        // Three and five channels stage as two and three pairs, the last
        // pair's second channel the zero channel; pad 2 puts reads in the
        // halo on every side, stride 2 takes one position per strip, and the
        // batches walk copies of one image, five, a chunk of eight, and a
        // full chunk and three.
        for (seed, c, stride) in [(80, 3, 1), (81, 5, 1), (82, 3, 2), (83, 5, 2)] {
            let geom = ConvGeom::new(9, 8, c, 4, 3, 3)
                .with_stride(stride)
                .with_pad(2);
            for batch in [1, 5, 8, 35] {
                let case = Case {
                    batch,
                    ..Case::pinned(seed, geom, 1, 2, 64)
                };
                assert!(case.check().contains(&Seen::Walk("dense")), "{case:?}");
            }
        }
    }

    /// Release builds only: the reference's sum wraps, which a debug build
    /// refuses.
    #[cfg(not(debug_assertions))]
    #[test]
    fn one_vpdpwssd_wraps_where_both_products_are_two_to_the_thirty() {
        use crate::flatten::oracle::check_layer;
        // Filter 0 weighs both channels of tap (0, 0) `i16::MIN`; every other
        // weight is a distinct large negative, so the band un-shares and is
        // cheaper dense. On an image of all `i16::MIN` that pair-tap's two
        // products sum to 2³¹ in one multiply-add, which wraps, and so does
        // the whole sum, in the reference as in every kernel.
        let geom = ConvGeom::new(4, 5, 2, 2, 3, 3);
        let weights = Tensor4::from_fn(2, 2, 3, 3, |k, c, r, s| match (k, r, s) {
            (0, 0, 0) => i16::MIN,
            _ => -20_000 - (k * 18 + c * 9 + r * 3 + s) as i16,
        });
        let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::with_g(2));
        let [tile] = layer.flat_tiles() else {
            panic!("one dense tile");
        };
        let min = i32::from(i16::MIN as u16) | i32::from(i16::MIN) << 16;
        assert_eq!(tile.pairs.as_deref().map(|pairs| pairs[0]), Some(min));
        let (c, w, h) = (2, geom.in_w(), geom.in_h());
        let mut images = vec![
            Tensor3::filled(c, w, h, i16::MIN),
            Tensor3::filled(c, w, h, i16::MAX),
        ];
        images.extend((0..33).map(|i| Tensor3::from_fn(c, w, h, |c, x, y| (i + c + x * y) as i16)));
        let wrapped = reference::conv2d(&geom, 1, &images[0], &weights)[(0, 0, 0)];
        let filter = (0..18).map(|at| i64::from(weights.as_slice()[at]));
        let exact: i64 = filter.map(|w| w * i64::from(i16::MIN)).sum();
        assert!(
            exact > i64::from(i32::MAX) && wrapped == exact as i32,
            "the sum wraps"
        );
        for batch in [1, 2, 35] {
            check_layer(&layer, &weights, &images[..batch], "i16::MIN pairs");
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
            let widest = runs[0].width;
            assert!(!row_lanes || 2 * widest > (out_h * lw).min(tier.strip_lanes()));
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
