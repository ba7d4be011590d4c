//! Branch-free flattened lowering of retained streams — the compile-time
//! form behind [`BackendKind::FlattenedBatch`](crate::backend::BackendKind).
//!
//! [`run_compiled`](crate::exec::run_compiled()) walks a
//! [`GroupStream`] entry by entry: every
//! entry pays a position decode (two divisions), a padding bounds check, an
//! `Option` test on the closure level, and — on closures — a data-dependent
//! nested loop over levels. All of that control flow exists to recover two
//! static facts the stream already fixed at compile time:
//!
//! 1. **where each entry reads** — the input offset is an affine function of
//!    the output position, so it flattens to a per-entry base offset plus
//!    one per-position delta (`base[i] + stride·(x·H + y)`);
//! 2. **which contiguous entry runs feed which weight** — each level's
//!    activation groups are contiguous runs of a sorted walk: the innermost
//!    level (nearly all the groups) flattens to one record per group
//!    **close** — sub-run lengths and a weight — the outer levels to
//!    CSR-style `[start, end)` ranges with the weight (zero-weight groups
//!    dropped).
//!
//! The executor then needs no per-entry decode at all: phase one gathers
//! each run's activations through the precomputed offsets into a running
//! sum and — like the paper's PE (§IV, Fig. 7) — multiplies the innermost
//! level **where its groups close**, in registers, storing the sum as a
//! prefix row only where an outer group closes too; phase two forms every
//! outer group total as one difference of two such rows times the group's
//! weight. Both loops are pure index-stride arithmetic.
//!
//! # Lowering owns the order of the walk
//!
//! Lane sums are wrapping `i32` — a ring — so the walk need not be the
//! stream's: any order, grouping or sharing that keeps `Σ x·w` per filter
//! gives **bit-identical** outputs (the conformance corpus, the cross-backend
//! property test and `the_order_is_free_the_sum_is_not` pin this down), and
//! UCNN's argument (§III) — zero-skipping is only the special case of reusing
//! *repeated* weights — goes one step further than exact repetition.
//! `Lowering::lower_band` chooses, from counts alone:
//!
//! * **Sign-folded groups.** An entry enters the running sum as `s·x`, `s`
//!   the sign of its innermost weight; the innermost group is keyed by `|w|`
//!   and outer level `l` by `w_l·s` (`x·w_l = (s·x)·(w_l·s)`), so
//!   `(w_a, w_b)` and `(−w_a, −w_b)` are one group — a plus sub-run, then a
//!   minus sub-run. Never more innermost groups; up to half as many on a
//!   sign-symmetric alphabet (INQ). It can split outer groups, so a tile
//!   folds only when its closes + outer segments do not grow.
//! * **A telescoped close.** `Σ_j (R_j − R_{j−1})·w_j = Σ_j R_j·(w_j −
//!   w_{j+1})`: the record stores `Δw`, the close block is `inner += run·Δw`,
//!   and the previous close's sum is never needed (two lane arrays, not
//!   three). In registers only — a telescoped *phase 2* that re-loads a row
//!   per boundary is in ROADMAP's do-not-rebuild.
//! * **Un-shared bands.** A `G`-level hierarchy pays closes, kept rows and
//!   outer segments to share gathers; where that costs more than it shares
//!   (LeNet's conv1: 74 entries in 63 closes a tile) the band is walked
//!   filter by filter — `G` one-level folded walks, each adding into its
//!   own plane of the band.
//!
//! Tiles walked once per chunk (every fully connected layer) keep the
//! stream's order and sharing.
//!
//! Padding is not a hazard of the walk but a property of the staged input:
//! a layer with `pad > 0` is staged once per chunk into a **zero-haloed**
//! plane (`(in_w + 2·pad) × (in_h + 2·pad)` per channel) and the gather
//! offsets are lowered against that plane, so an edge position's
//! out-of-plane reads add literal zeros. Every geometry takes the same
//! branch-free gather, and the prefix sums are only *kept* where phase two
//! reads them: one row per **outer** close — not per entry, nor per close.
//!
//! # Batch-interleaved lanes and ISA tiers
//!
//! The paper's vector datapath amortizes one indirection stream across `VW`
//! lanes (§VI): the iterator walk is paid once, the arithmetic is wide. A
//! per-image walk ([`run_flattened`], kept as the tests' planar oracle) does
//! the opposite over a batch — every image re-pays every gather offset and
//! segment bound.
//! [`run_flattened_batch_interleaved`] is the software analog of the
//! hardware's lane sharing: the batch is cut into chunks of interleaved
//! images (`input[off · LW + lane]`, planar offset major, image lane
//! minor), and both phases run as straight-line loops over contiguous
//! `LW`-wide strips (`i16`→`i32` widening adds, one broadcast multiply per
//! close or segment). Every gather offset, close record and CSR segment
//! range is read **once per output position** and feeds all `LW` images.
//!
//! The chunk width and codegen follow the dispatched [`SimdTier`]
//! ([`simd`](crate::simd)): the `scalar` tier keeps the historical
//! [`LANE_WIDTH`]` = 8` chunks under baseline codegen, while the `avx2` /
//! `avx512` tiers interleave 16/32 images and run the same strip body
//! inside `#[target_feature]`-gated kernels so the compiler emits
//! full-width 256/512-bit arithmetic. Per lane the i32 operation sequence
//! is identical at every width and every tier, so outputs stay
//! bit-identical to [`run_flattened`] across all of them — the golden
//! conformance corpus is the referee.
//!
//! # A strip is positions × images
//!
//! One rule covers every strip: its lanes are `p` neighbouring output
//! positions of one row × the `pitch` images of the chunk, lane
//! `j·pitch + i` being image `i` at position `y + j`. At stride 1 entry `i`
//! of that strip reads the contiguous staged cells
//! `(base[i] + x·ph + y)·pitch ..` and the band row it adds into is
//! contiguous too, so one strip body runs over one [`FlattenedTile`] (no
//! second lowering, nothing extra resident) at any `p`: an indirection read
//! is paid once per `p` positions, the paper's `VW` spatial lanes (§IV).
//!
//! A batch is cut into chunks of the tier's width, then 16, then
//! [`LANE_WIDTH`] images, then the rest as one chunk of `b < 8`, staged at
//! pitch 8 like a chunk of eight: its lanes hold `⌊8/b⌋` copies of each
//! image, copy `v` moved up by `v·k` output rows, so every copy walks `k`
//! rows of the same plan and a band's sums return to their real rows on the
//! way into the consumer's plane (`Lanes`). A chunk takes as many positions
//! per strip as the tier's registers hold ([`SimdTier::strip_lanes`]: 128
//! lanes on `avx512`, so 4 positions × 32 images or 16 × 8; 32 lanes
//! elsewhere) and works down an output row by powers of two — a function of
//! the pitch and the layer's geometry alone (`strip_runs`); layers with
//! `stride > 1` (a row's reads are not contiguous) or one position per
//! output row (fully connected) take one position per strip.
//!
//! # Filter bands and the chunk-major pipeline
//!
//! The lane-major sums are staged one **filter band** at a time — the
//! channel tiles that share a `k_first`, i.e. `G · out_w · out_h · LW`
//! `i32`s rather than the whole layer's `K · …` — so a band stays
//! cache-resident between the kernel that fills it and whatever drains it.
//! A whole network ([`BackendKind::FlattenedBatch`](crate::backend::BackendKind)
//! through `CompiledNetwork::forward*`) runs **chunk-major**: each lane
//! chunk is transposed into the lane layout once, runs every stage there —
//! a finished band enters its consumer's zero-haloed plane clamped to
//! `0..=i16::MAX` and narrowed (the reference's `relu_saturate`), pooling is
//! an `LW`-wide max / widening sum over rows, a pool that directly follows
//! a convolution runs on each finished band — and is transposed out once,
//! into the caller's `i32` tensors. The per-layer entry points are the same
//! pieces for one layer: stage → bands → scatter.
//!
//! Scratch (two activation planes, the kept-close prefix lanes, the band's
//! lane-major sums) lives in a [`FlattenedScratch`] arena. Every buffer the
//! strip kernel walks as `LW`-wide rows starts its rows on a 64-byte
//! boundary, so a 32-lane row is whole cache lines by construction instead
//! of by where the allocator happened to put it. The module keeps a small
//! pool of arenas per calling thread — one per execution thread it has ever
//! fanned out to — so a serving worker's steady-state hot path allocates
//! its output tensors and nothing else at any thread budget.

use std::cell::RefCell;
use std::ops::Range;

use ucnn_model::PoolKind;
use ucnn_tensor::{ConvGeom, Tensor3};

use crate::hierarchy::{DigitSort, GroupStream, NO_CLOSE, ZERO_RANK};
use crate::plan::{CompiledLayer, CompiledStage, CompiledTile};
use crate::simd::{resolve_tier, SimdCaps, SimdTier};

/// The flattened, branch-free form of one walk of a retained tile: per-entry
/// gather offsets, one record per close, CSR-style group ranges per outer
/// level.
///
/// Built once per plan by `Lowering::lower_band` — lazily, on the
/// first [`CompiledLayer::flat_tiles`] call — then cached; executed by
/// [`run_flattened`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlattenedTile {
    /// Absolute output channel of the first filter of the tile's band.
    k_first: usize,
    /// Output planes of the band (`G` of the stream) — also for a
    /// single-filter walk of an un-shared band, which adds into one of them.
    g: usize,
    /// The band plane the innermost level adds into: the walk's last
    /// filter. Outer level `l` adds into plane `l`.
    plane: usize,
    /// Per entry: offset of its read for output position (0, 0) in the
    /// zero-haloed staged plane (`in_h + 2·pad` values per row), so
    /// `base[i] + stride·(x·(in_h + 2·pad) + y)` is the exact staged index
    /// for output `(x, y)` — in range for every position, halo included.
    base: Vec<u32>,
    /// One record per group close, in walk order: every close ends an
    /// innermost group, so the sub-run lengths partition `base`.
    closes: Vec<Close>,
    /// Prefix rows phase 1 fills: the zero row plus one per **kept** close
    /// (none on a one-level walk) — or, for a tile walked once, one per
    /// entry.
    rows: usize,
    /// Per outer level `l`: segments `seg_ptr[l]..seg_ptr[l + 1]`.
    seg_ptr: Vec<u32>,
    /// The outer-level activation groups that dispatch a multiply, level by
    /// level, each level in walk order — so `end` never decreases within
    /// a level and phase 2 reads the kept rows monotonically.
    segs: Vec<Segment>,
    /// Groups of a non-zero weight per walk: `segs` plus the innermost ones.
    multiplies: usize,
}

/// One group close. The innermost group that ends here is the `plus +
/// minus` entries since the previous close: the first `plus` enter the
/// running sum as `x`, the rest as `−x` (a sign-folded group holds both
/// signs of one magnitude). The running sum is multiplied where the group
/// closes — by `Δw`, this group's weight less the next one's, because
/// `Σ (R_j − R_{j−1})·w_j = Σ R_j·(w_j − w_{j+1})` with no weight after the
/// last: the kernel never needs the previous close's sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Close {
    plus: u16,
    minus: u16,
    /// `2·Δw + keep`. `Δw` reaches ±65 535 (an unfolded `i16` alphabet),
    /// so it is not an `i16`; `keep` is whether an outer group ends here
    /// too: only then does phase 2 read the running sum, so only then is
    /// its row kept.
    dw_keep: i32,
}

impl Close {
    fn new(plus: usize, minus: usize, dw: i32, keep: bool) -> Self {
        Self {
            plus: u16::try_from(plus).expect("Close::push cuts longer sub-runs"),
            minus: u16::try_from(minus).expect("Close::push cuts longer sub-runs"),
            dw_keep: 2 * dw + i32::from(keep),
        }
    }

    fn dw(self) -> i32 {
        self.dw_keep >> 1
    }

    fn keep(self) -> bool {
        self.dw_keep & 1 != 0
    }

    /// Appends the close of a group of `weight`, `plus` then `minus` entries
    /// long, and telescopes: the record before it gives up this weight. `Ct`
    /// is unbounded and a sub-run length is a `u16`, so a longer group is
    /// cut into pieces of the same weight — which telescopes to `Δw = 0` —
    /// of which only the last may keep its row.
    fn push(closes: &mut Vec<Close>, mut plus: usize, mut minus: usize, weight: i32, keep: bool) {
        const MAX: usize = u16::MAX as usize;
        let mut piece = |plus, minus, keep| {
            if let Some(before) = closes.last_mut() {
                before.dw_keep -= 2 * weight;
            }
            closes.push(Close::new(plus, minus, weight, keep));
        };
        while plus > MAX {
            piece(MAX, 0, false);
            plus -= MAX;
        }
        while minus > MAX {
            piece(plus, MAX, false);
            (plus, minus) = (0, minus - MAX);
        }
        piece(plus, minus, keep);
    }
}

/// One activation group of one outer level: its total is the difference of
/// two kept prefix rows, times its weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Segment {
    /// The kept row before the group's first entry (the outer close that
    /// precedes it; row 0 at the head of the walk).
    start: u32,
    /// The kept row of the group's own close.
    end: u32,
    /// The group's (non-zero) key: its weight, negated where the walk is
    /// sign-folded and the entries entered the running sum negated.
    weight: i32,
}

/// The key alphabet of a layer's walks: every canonical weight as a small
/// digit that survives negation, so a counting sort can group by `w·s`.
struct FoldKeys {
    /// The distinct magnitudes of the canonical weights, ascending.
    mags: Vec<u16>,
    /// Per canonical rank: `2 · (rank of |w| in mags) + (w < 0)`.
    signed: Vec<u32>,
}

impl FoldKeys {
    fn new(canonical: &[i16]) -> Self {
        let mut mags: Vec<u16> = canonical.iter().map(|w| w.unsigned_abs()).collect();
        mags.sort_unstable();
        mags.dedup();
        let digit = |w: &i16| {
            let mag = mags.binary_search(&w.unsigned_abs()).expect("a magnitude");
            2 * mag as u32 + u32::from(*w < 0)
        };
        let signed = canonical.iter().map(digit).collect();
        Self { mags, signed }
    }

    /// The digit of the zero weight — past every other.
    fn zero(&self) -> u32 {
        2 * self.mags.len() as u32
    }

    /// The digit of the weight of `rank`; its low bit flipped, of the
    /// negated weight (the zero's is even and stays).
    fn digit(&self, rank: u16) -> u32 {
        match rank {
            ZERO_RANK => self.zero(),
            rank => self.signed[rank as usize],
        }
    }

    fn value(&self, digit: u32) -> i32 {
        if digit == self.zero() {
            return 0;
        }
        let mag = i32::from(self.mags[digit as usize / 2]);
        if digit & 1 == 1 {
            -mag
        } else {
            mag
        }
    }
}

/// Where the positions of a channel tile read, in the zero-haloed staged
/// plane, for output position (0, 0) and a tile whose first channel is 0.
/// Staged coordinates already carry the halo: filter tap `(r, s)` of
/// channel `c` reads staged cell `(c, r, s)`, whatever the padding.
struct TileOffsets {
    /// Per tile position `(c · R + r) · S + s`, ascending.
    of: Vec<u32>,
    /// Cells of one staged channel: what a tile's first channel shifts by.
    channel: usize,
}

impl TileOffsets {
    /// The offsets of a tile of up to `tile_len` positions of `geom`.
    fn new(tile_len: usize, geom: &ConvGeom) -> Self {
        let (pw, ph) = (geom.in_w() + 2 * geom.pad(), geom.in_h() + 2 * geom.pad());
        let taps = || (0..geom.r()).flat_map(|r| (0..geom.s()).map(move |s| r * ph + s));
        let channels = 0..tile_len.div_ceil(geom.r() * geom.s());
        let cells = channels.flat_map(|c| taps().map(move |tap| c * pw * ph + tap));
        let of = cells.map(|off| u32::try_from(off).expect("input offset fits u32"));
        Self {
            of: of.collect(),
            channel: pw * ph,
        }
    }
}

/// What the walks of one layer share: whether its tiles are [`walked_once`],
/// the key alphabet of its canonical order, its tiles' offsets.
struct Layer {
    once: bool,
    keys: FoldKeys,
    offsets: TileOffsets,
}

/// One retained tile as lowering reads it: its stream cut into innermost
/// groups — the runs between closes, whose entries share every weight and
/// ascend by position — which are what a walk orders. A [`Lowering`] reads
/// tile after tile into the same one.
#[derive(Default)]
struct Source {
    /// An entry at tile position `p` reads `offsets.of[p] + shift`.
    shift: u32,
    /// Innermost group `j` of the stream is its entries
    /// `starts[j]..starts[j + 1]`.
    starts: Vec<u32>,
    /// The stream's own walk: every filter, the groups in their own order
    /// under the [`FoldKeys`] digit of each filter's weight, nothing
    /// negated, closing where the stream closes.
    stream_order: Walk,
}

impl Source {
    /// Reads `stream`, whose tile's absolute first channel is `c_first`.
    fn read(&mut self, stream: &GroupStream, c_first: usize, layer: &Layer) {
        let (g, zero) = (stream.g(), layer.keys.zero());
        let TileOffsets { of, channel } = &layer.offsets;
        // The offsets ascend: no read of the tile is past its last position's.
        let last = of.get(stream.tile_len() - 1).expect("a longer tile");
        self.shift = u32::try_from(c_first * channel).expect("input offset fits u32");
        last.checked_add(self.shift).expect("input offset fits u32");
        let walk = &mut self.stream_order;
        let (_, ranks, levels) = stream.columns();
        // Branch-free: a group per entry, kept where the entry closes one.
        self.starts.resize(levels.len() + 1, 0);
        walk.closes.resize(levels.len(), 0);
        let mut groups = 0;
        for (i, &level) in levels.iter().enumerate() {
            self.starts[groups + 1] = i as u32 + 1;
            walk.closes[groups] = level;
            groups += usize::from(level != NO_CLOSE);
        }
        self.starts.truncate(groups + 1);
        walk.closes.truncate(groups);
        // The stream has its closing levels ([`close_levels`] would derive
        // the same from the digits, a compare per level per group dearer).
        walk.keys.clear();
        walk.counts = WalkCounts::default();
        for (&end, &level) in self.starts[1..].iter().zip(&walk.closes) {
            let at = walk.keys.len();
            let ranks = &ranks[(end as usize - 1) * g..][..g];
            walk.keys
                .extend(ranks.iter().map(|&rank| layer.keys.digit(rank)));
            if usize::from(level) < g - 1 {
                walk.counts.kept += 1;
                let outer = &walk.keys[at + usize::from(level)..at + g - 1];
                walk.counts.segs += outer.iter().filter(|&&digit| digit != zero).count();
            }
        }
        (walk.counts.entries, walk.counts.closes) = (levels.len(), groups);
        walk.filters = 0..g;
        walk.order.clear();
        walk.order.extend(0..groups as u32);
    }

    /// The stream entries of innermost group `group`.
    fn entries(&self, group: u32) -> Range<usize> {
        let bounds = &self.starts[group as usize..][..2];
        bounds[0] as usize..bounds[1] as usize
    }

    /// What walking the `G` filters of `stream`, read here, apart, each
    /// folded, would issue — without ordering anything: a one-filter walk
    /// reads the filter's non-zero entries and closes once per distinct
    /// magnitude (the zero weight's digit halves to a slot past them, not
    /// counted). `seen` is scratch.
    fn apart_counts(
        &self,
        stream: &GroupStream,
        keys: &FoldKeys,
        seen: &mut Vec<bool>,
    ) -> WalkCounts {
        let (g, mags) = (stream.g(), keys.mags.len());
        seen.clear();
        seen.resize(g * (mags + 1), false);
        for digits in self.stream_order.keys.chunks_exact(g) {
            for (f, &digit) in digits.iter().enumerate() {
                seen[f * (mags + 1) + digit as usize / 2] = true;
            }
        }
        let closes = |seen: &[bool]| seen[..mags].iter().filter(|&&seen| seen).count();
        let (_, ranks, _) = stream.columns();
        WalkCounts {
            entries: ranks.iter().filter(|&&rank| rank != ZERO_RANK).count(),
            closes: seen.chunks_exact(mags + 1).map(closes).sum(),
            ..WalkCounts::default()
        }
    }
}

/// What one walk issues per output position — counted from its order,
/// never timed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct WalkCounts {
    entries: usize,
    closes: usize,
    kept: usize,
    segs: usize,
}

impl WalkCounts {
    /// Vector instructions per 16 lanes (docs/LAB.md § `fused` / § `order`):
    /// an entry is a widening load and an add, a close block a multiply, an
    /// add and the run loops' exits, a kept row a store, an outer segment
    /// two row loads, a subtract, a multiply and an add. The one place the
    /// constants of the un-share rule ([`Lowering::lower_band`]) live.
    fn cost(&self) -> usize {
        2 * self.entries + 3 * self.closes + self.kept + 5 * self.segs
    }
}

impl std::iter::Sum for WalkCounts {
    fn sum<I: Iterator<Item = Self>>(walks: I) -> Self {
        walks.fold(Self::default(), |a, b| Self {
            entries: a.entries + b.entries,
            closes: a.closes + b.closes,
            kept: a.kept + b.kept,
            segs: a.segs + b.segs,
        })
    }
}

/// Where a walk's groups close, from its `keys` (`levels` per walked group,
/// in walk order), into `closes`: per group the outermost level whose group
/// ends with it — the first at which the next one's key differs, level 0 at
/// the end of the walk, [`NO_CLOSE`] inside an innermost group — and what
/// that makes the walk issue (entries not counted here).
fn close_levels(keys: &[u32], levels: usize, zero: u32, closes: &mut Vec<u8>) -> WalkCounts {
    let inner = levels - 1;
    let mut counts = WalkCounts::default();
    closes.clear();
    closes.resize(keys.len() / levels, NO_CLOSE);
    let mut rows = keys.chunks_exact(levels).peekable();
    for close in closes {
        let here = rows.next().expect("a row per group");
        let level = match rows.peek() {
            None => Some(0),
            Some(next) => {
                let outer = here[..inner].iter().zip(*next).position(|(a, b)| a != b);
                outer.or(((here[inner] ^ next[inner]) & !MINUS != 0).then_some(inner))
            }
        };
        let Some(level) = level else { continue };
        *close = u8::try_from(level).expect("the stream's levels fit a u8");
        counts.closes += 1;
        counts.kept += usize::from(level < inner);
        let outer = &here[level..inner];
        counts.segs += outer.iter().filter(|&&key| key != zero).count();
    }
    counts
}

/// One way of walking (some filters of) a retained tile, before it is
/// lowered: which of the stream's innermost groups, in which order, under
/// which keys.
///
/// Lane sums are wrapping `i32` — a ring — so any order and any grouping
/// that keeps `Σ x·w` per filter gives bit-identical outputs. A **folded**
/// walk adds an entry as `s·x` with `s` the sign of its innermost weight,
/// groups the innermost level by `|w|` and outer level `l` by `w_l·s`
/// (`x·w_l = (s·x)·(w_l·s)`): `(w_a, w_b)` and `(−w_a, −w_b)` become one
/// group, a plus sub-run then a minus sub-run.
#[derive(Default)]
struct Walk {
    /// The stream's filter columns walked, outermost first.
    filters: Range<usize>,
    /// The walked innermost groups of the stream, in walk order.
    order: Vec<u32>,
    /// Per walked group, in walk order, what groups it at each walked
    /// level: the digit of the key `w·s`, at the innermost level with
    /// [`MINUS`] set where the group's entries enter the running sum
    /// negated (`s = −1`).
    keys: Vec<u32>,
    /// Per walked group, the outermost level whose group ends with it: the
    /// first at which the next one's key differs, level 0 at the end of
    /// the walk, [`NO_CLOSE`] inside an innermost group.
    closes: Vec<u8>,
    counts: WalkCounts,
    /// [`Walk::fold`]'s scratch: every group's folded keys, in stream order.
    unsorted: Vec<u32>,
}

/// Marks the innermost key of a group that enters the running sum negated.
const MINUS: u32 = 1 << 31;

impl Walk {
    /// Makes this the folded walk of `filters` over the groups of `source`
    /// where any of them has a weight: sorted by folded keys, then sign (the
    /// plus sub-run of a key before its minus sub-run), then stream order.
    fn fold(&mut self, source: &Source, filters: Range<usize>, zero: u32, sort: &mut DigitSort) {
        let g = source.stream_order.filters.len();
        let (levels, inner) = (filters.len(), filters.len() - 1);
        let unsorted = &mut self.unsorted;
        // A sort digit per level: the key then, at the innermost level, the
        // sign.
        let buckets = 2 * zero as usize + 2;
        let bucket = |key: u32, level| {
            let sign = if level == inner { key / MINUS } else { 0 };
            (2 * (key & !MINUS) + sign) as usize
        };
        let counts = sort.counts(levels, buckets);
        unsorted.clear();
        self.order.clear();
        for (group, digits) in source.stream_order.keys.chunks_exact(g).enumerate() {
            let digits = &digits[filters.clone()];
            // The zero weight's digit is even: it folds under `s = +1`.
            let minus = digits[inner] & 1;
            let key = |&digit: &u32| if digit == zero { zero } else { digit ^ minus };
            let at = unsorted.len();
            unsorted.extend(digits[..inner].iter().map(key));
            unsorted.push(key(&digits[inner]) | (minus * MINUS));
            if digits.iter().all(|&d| d == zero) {
                continue;
            }
            self.order.push(group as u32);
            for (level, &key) in unsorted[at..].iter().enumerate() {
                counts[level * buckets + bucket(key, level)] += 1;
            }
        }
        sort.sort(&mut self.order, |group, level| {
            bucket(unsorted[group as usize * levels + level], level)
        });
        self.keys.clear();
        for &group in &self.order {
            self.keys
                .extend_from_slice(&unsorted[group as usize * levels..][..levels]);
        }
        self.counts = close_levels(&self.keys, levels, zero, &mut self.closes);
        self.counts.entries = self.order.iter().map(|&g| source.entries(g).len()).sum();
        self.filters = filters;
    }

    /// Lowers the walk of `stream`, read into `source`: `k_first` is the
    /// absolute first filter of the tile's band.
    fn lower(
        &self,
        stream: &GroupStream,
        source: &Source,
        k_first: usize,
        layer: &Layer,
    ) -> FlattenedTile {
        let (once, keys, offsets) = (layer.once, &layer.keys, &layer.offsets);
        let (levels, inner) = (self.filters.len(), self.filters.len() - 1);
        let (indices, ..) = stream.columns();
        let read = |&index: &u32| offsets.of[index as usize] + source.shift;

        // The stream's own walk reads its entries as they come.
        let as_streamed = std::ptr::eq(self, &source.stream_order);
        let mut base = Vec::with_capacity(self.counts.entries);
        if as_streamed {
            base.extend(indices.iter().map(read));
        }
        let mut closes = Vec::with_capacity(self.counts.closes);
        let (mut plus, mut minus, mut multiplies) = (0, 0, 0);
        let walk = self.order.iter().zip(self.closes.iter());
        for ((&group, &level), keys_here) in walk.zip(self.keys.chunks_exact(levels)) {
            let entries = source.entries(group);
            if keys_here[inner] & MINUS != 0 {
                minus += entries.len();
            } else {
                plus += entries.len();
            }
            if !as_streamed {
                base.extend(indices[entries].iter().map(read));
            }
            if level == NO_CLOSE {
                continue;
            }
            if levels < stream.g() {
                // A sub-run of a one-filter walk is several of the stream's
                // groups: each ascends, their union need not.
                let run = base.len() - plus - minus;
                let (plus, minus) = base[run..].split_at_mut(plus);
                plus.sort_unstable();
                minus.sort_unstable();
            }
            let weight = keys.value(keys_here[inner] & !MINUS);
            multiplies += usize::from(weight != 0);
            Close::push(&mut closes, plus, minus, weight, usize::from(level) < inner);
            (plus, minus) = (0, 0);
        }
        // CSR group ranges of the outer levels over the prefix rows — a kept
        // row per outer close; an entry's, once: a group of level `l` ends
        // where the walk closes level `l` or any outer level, and starts at
        // the row of the previous such close. Groups whose key is zero
        // dispatch nothing and are dropped.
        let mut seg_ptr = Vec::with_capacity(levels);
        let mut segs = Vec::with_capacity(self.counts.segs);
        for l in 0..inner {
            seg_ptr.push(segs.len() as u32);
            let (mut start, mut end) = (0, 0);
            let outer = |&(_, &level): &(usize, &u8)| usize::from(level) < inner;
            for (at, &level) in self.closes.iter().enumerate().filter(outer) {
                // A tile walked once is walked in stream order: the entries
                // so far are the stream's up to this group's last.
                let streamed = source.entries(self.order[at]).end as u32;
                end = if once { streamed } else { end + 1 };
                if usize::from(level) <= l {
                    let weight = keys.value(self.keys[at * levels + l]);
                    if weight != 0 {
                        segs.push(Segment { start, end, weight });
                    }
                    start = end;
                }
            }
        }
        seg_ptr.push(u32::try_from(segs.len()).expect("segment count fits u32"));
        FlattenedTile {
            k_first,
            g: stream.g(),
            plane: self.filters.end - 1,
            rows: 1 + if once { base.len() } else { self.counts.kept },
            multiplies: multiplies + segs.len(),
            base,
            closes,
            seg_ptr,
            segs,
        }
    }
}

/// The tile of a band in hand: its stream as read, its folded `G`-level
/// walk where one was made, and whether that is the walk to lower.
#[derive(Default)]
struct BandTile {
    source: Source,
    folded: Walk,
    fold: bool,
}

impl BandTile {
    /// Reads `stream` and settles the `G`-level walk of the whole tile:
    /// folded when that does not add closes + outer segments (it never adds
    /// closes; on an alphabet that is not sign-symmetric it can split outer
    /// groups), else — and always for a tile walked once — the stream's own
    /// order.
    fn read(&mut self, stream: &GroupStream, c_first: usize, layer: &Layer, sort: &mut DigitSort) {
        self.source.read(stream, c_first, layer);
        self.fold = !layer.once && {
            let (folded, zero) = (&mut self.folded, layer.keys.zero());
            folded.fold(&self.source, 0..stream.g(), zero, sort);
            let work = |walk: &Walk| walk.counts.closes + walk.counts.segs;
            work(folded) <= work(&self.source.stream_order)
        };
    }

    fn shared(&self) -> &Walk {
        if self.fold {
            &self.folded
        } else {
            &self.source.stream_order
        }
    }
}

/// One layer's lowering: what its walks share, made once, and every buffer a
/// tile is read, ordered and counted in, reused from tile to tile — a
/// lowered tile allocates its own `base`, `closes`, `seg_ptr` and `segs`
/// and nothing else.
pub(crate) struct Lowering {
    layer: Layer,
    sort: DigitSort,
    /// [`Source::apart_counts`]' scratch.
    seen: Vec<bool>,
    /// As many as the longest band so far has tiles.
    band: Vec<BandTile>,
    /// The one-filter walk in hand, of a band walked filter by filter.
    single: Walk,
}

impl Lowering {
    /// The lowering of a layer of `geom` whose longest tile — any but the
    /// last channel tile of a band — is `longest`.
    pub(crate) fn new(longest: &GroupStream, geom: &ConvGeom) -> Self {
        Self {
            layer: Layer {
                once: walked_once(geom),
                keys: FoldKeys::new(longest.canonical()),
                offsets: TileOffsets::new(longest.tile_len(), geom),
            },
            sort: DigitSort::default(),
            seen: Vec::new(),
            band: Vec::new(),
            single: Walk::default(),
        }
    }

    /// Lowers one filter band — the channel tiles that share a `k_first` —
    /// onto `out`, choosing, from counts alone, between the `G`-level walk
    /// of every tile and `G` single-filter folded walks of it: a hierarchy
    /// is worth its closes, kept rows and outer segments only while it
    /// shares enough gathers ([`WalkCounts::cost`]; a tie keeps it). Either
    /// way the band is `G` planes. Tiles walked once keep the stream's order
    /// and its sharing, and one filter has nothing to un-share: neither is
    /// counted apart.
    ///
    /// # Panics
    ///
    /// Panics if `band` is empty.
    pub(crate) fn lower_band(&mut self, band: &[CompiledTile], out: &mut Vec<FlattenedTile>) {
        let (k_first, g, layer) = (band[0].k_first(), band[0].stream().g(), &self.layer);
        if self.band.len() < band.len() {
            self.band.resize_with(band.len(), BandTile::default);
        }
        let tiles = &mut self.band[..band.len()];
        for (tile, read) in band.iter().zip(tiles.iter_mut()) {
            read.read(tile.stream(), tile.c_first(), layer, &mut self.sort);
        }
        let apart = !layer.once && g > 1 && {
            let together: WalkCounts = tiles.iter().map(|tile| tile.shared().counts).sum();
            let apart = |(tile, read): (&CompiledTile, &BandTile)| {
                let seen = &mut self.seen;
                read.source.apart_counts(tile.stream(), &layer.keys, seen)
            };
            let split: WalkCounts = band.iter().zip(tiles.iter()).map(apart).sum();
            split.cost() < together.cost()
        };
        for (tile, read) in band.iter().zip(tiles.iter()) {
            let mut lower = |walk: &Walk| {
                out.push(walk.lower(tile.stream(), &read.source, k_first, layer));
            };
            if apart {
                for f in 0..g {
                    let single = &mut self.single;
                    single.fold(&read.source, f..f + 1, layer.keys.zero(), &mut self.sort);
                    lower(single);
                }
            } else {
                lower(read.shared());
            }
        }
    }
}

impl FlattenedTile {
    /// Lowers one retained stream as one `G`-level walk: sign-folded where
    /// that issues no more closes + outer segments, in stream order
    /// otherwise.
    ///
    /// `k_first`/`c_first` are the tile's absolute filter and channel bases
    /// (as in [`CompiledTile`]); `geom` is the layer geometry the offsets
    /// are computed against.
    #[must_use]
    pub fn lower(stream: &GroupStream, k_first: usize, c_first: usize, geom: &ConvGeom) -> Self {
        let mut lowering = Lowering::new(stream, geom);
        let mut tile = BandTile::default();
        tile.read(stream, c_first, &lowering.layer, &mut lowering.sort);
        let walk = tile.shared();
        walk.lower(stream, &tile.source, k_first, &lowering.layer)
    }

    /// Stream entries retained by the tile.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.base.len()
    }

    /// Groups of a non-zero weight per output position: outer segments plus
    /// the innermost groups whose `|w|` is not zero — at most the stream's
    /// [`multiplies`](GroupStream::multiplies), fewer where folding merged
    /// groups or the band is walked filter by filter. (The kernel multiplies
    /// at every close, by `Δw`; that is executed, not counted.)
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.multiplies
    }

    /// Bytes of heap the lowered tile keeps resident: 4 per entry (gather
    /// offset), 8 per close, 12 per outer segment, 4 per level bound.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        4 * (self.base.len() + self.seg_ptr.len())
            + std::mem::size_of_val(&self.closes[..])
            + std::mem::size_of_val(&self.segs[..])
    }

    /// The shared strip kernel body: adds this tile's partial sums for `LW`
    /// lanes at once, over the positions `run.ys` of the output rows `run.xs`.
    /// `input` holds a chunk staged `PITCH` lanes wide, `input[off · PITCH + lane]`
    /// over the zero-haloed plane (see [`stage_chunk`]), `out` is the
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
    /// `PITCH == LW` one line-aligned row of the staged plane — and
    /// `LW == PITCH == 1` **is** the planar walk, which is how
    /// [`run_flattened`] executes. A runtime pitch spilled phase 1's
    /// loop-invariant pointers in the wide kernels (+11–35 % per call,
    /// EXPERIMENTS § `positions`); the one-check `as_chunks` row is kept
    /// where it applies and a flattened `as_chunks::<PITCH>` window measured
    /// no better elsewhere (§ `strips`).
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

/// Whether a layer's tiles are walked once per chunk (one output position):
/// the predictor never sees a tile's run lengths twice (FC up to 2.6× slower), so
/// such a tile keeps a row per entry and no trip count depends on a run.
pub(crate) fn walked_once(geom: &ConvGeom) -> bool {
    geom.out_w() * geom.out_h() == 1
}

/// The `#[target_feature]`-gated tier kernels: each wrapper re-monomorphizes
/// the shared [`FlattenedTile::accumulate_lanes_body`] under a wider ISA so
/// the compiler emits full-width vector arithmetic for the strip loops. The
/// body is `#[inline(always)]`, so the feature gate reaches every inner
/// loop.
///
/// These functions are `unsafe` purely by the `#[target_feature]` language
/// rule; they have no other safety obligations. Callers must ensure the
/// feature is present — [`accumulate_width`] only reaches them through a
/// [`SimdTier`] clamped by [`SimdCaps`] detection.
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
/// The `unsafe` blocks satisfy the `#[target_feature]` contract by
/// construction: every [`SimdTier`] that reaches an executor has been
/// clamped to the CPU's detected capabilities ([`SimdCaps::clamp`] — by
/// [`resolve_tier`] on the default path, by [`run_chunked`] for a forced
/// tier), so a gated kernel only runs when its feature was probed present.
/// Foreign-architecture tiers fold into the scalar arm at compile time via
/// the `cfg`s.
#[allow(unsafe_code)]
fn accumulate_width<const LW: usize, const PITCH: usize>(
    tile: &FlattenedTile,
    input: &[i16],
    out: &mut [i32],
    geom: &ConvGeom,
    prefix: &mut [i32],
    run: &StripRun,
    tier: SimdTier,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe {
            tier_kernels::tile_lanes_avx2::<LW, PITCH>(tile, input, out, geom, prefix, run);
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe {
            tier_kernels::tile_lanes_avx512::<LW, PITCH>(tile, input, out, geom, prefix, run);
        },
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
struct StripRun {
    /// Lanes per strip — the monomorphized `LW`: `width / pitch`
    /// neighbouring output positions × `pitch` lanes.
    width: usize,
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
struct Lanes {
    images: usize,
    pitch: usize,
    bands: usize,
    rows: usize,
}

impl Lanes {
    fn new(images: usize, geom: &ConvGeom) -> Self {
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
    fn replicate(&self, plane: &mut [i16], geom: &ConvGeom) {
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
    fn stored(&self, r: usize, w: usize) -> (usize, usize) {
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
fn strip_runs(geom: &ConvGeom, lanes: Lanes, tier: SimdTier) -> impl Iterator<Item = StripRun> {
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
        const KERNELS: &[(usize, usize)] = &[$(($lw, $pitch)),*];

        /// Dispatches one [`StripRun`] to its monomorphized kernel.
        fn accumulate_tile_lanes(
            tile: &FlattenedTile,
            input: &[i16],
            out: &mut [i32],
            geom: &ConvGeom,
            prefix: &mut [i32],
            run: &StripRun,
            tier: SimdTier,
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

// The planar walk, and the pitches [`next_chunk_width`]'s chunks stage at
// (8, 16, 32) at every power-of-two depth up to 128 lanes: 13 kernels per
// ISA tier, each one emitted by some tier and nothing else
// (`every_strip_has_a_kernel_and_every_kernel_a_strip`).
strip_kernels! {
    (1, 1)
    (8, 8) (16, 8) (32, 8) (64, 8) (128, 8)
    (16, 16) (32, 16) (64, 16) (128, 16)
    (32, 32) (64, 32) (128, 32)
}

/// The width of the next lane chunk when `rest` images remain and the
/// dispatched tier interleaves `lane_width` at once: whole tier-width chunks
/// first, then 16, then [`LANE_WIDTH`], then the rest as one chunk — which
/// fills the pitch it stages at with copies of its images ([`Lanes`]).
fn next_chunk_width(rest: usize, lane_width: usize) -> usize {
    if rest >= lane_width {
        lane_width
    } else if rest >= 16 {
        16
    } else {
        rest.min(LANE_WIDTH)
    }
}

/// How a batch of `batch` images of a layer runs on `tier`: the lane chunks
/// [`next_chunk_width`] cuts it into and the widest strip any of them runs
/// ([`strip_runs`]) — the analytic
/// [`LayerWork::lane_strips`](crate::counters::LayerWork::lane_strips) and
/// [`LayerWork::lane_width`](crate::counters::LayerWork::lane_width).
#[must_use]
pub(crate) fn strip_profile(geom: &ConvGeom, batch: usize, tier: SimdTier) -> (usize, usize) {
    let (mut rest, mut chunks, mut widest) = (batch, 0, 0);
    while rest > 0 {
        let lw = next_chunk_width(rest, tier.lane_width());
        widest = widest.max(widest_strip(geom, lw, tier));
        rest -= lw;
        chunks += 1;
    }
    (chunks, widest)
}

/// The widest strip a chunk of `lw` images runs: its first [`strip_runs`]
/// run — what sizes the prefix rows. Never narrower than a narrower chunk's,
/// or the same chunk's on a narrower tier.
fn widest_strip(geom: &ConvGeom, lw: usize, tier: SimdTier) -> usize {
    let lanes = Lanes::new(lw, geom);
    let first = strip_runs(geom, lanes, tier).next();
    first.map_or(lanes.pitch, |run| run.width)
}

/// Executes a [`CompiledLayer`] through its flattened tiles — bit-identical
/// to [`run_compiled`](crate::exec::run_compiled()) with no per-entry
/// decode or closure branching in the inner loops.
///
/// # Panics
///
/// Panics if `input` does not match the compiled layer's geometry.
///
/// # Examples
///
/// ```
/// use ucnn_core::compile::UcnnConfig;
/// use ucnn_core::exec::run_compiled;
/// use ucnn_core::flatten::run_flattened;
/// use ucnn_core::plan::CompiledLayer;
/// use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};
///
/// let geom = ConvGeom::new(5, 5, 3, 2, 3, 3);
/// let filters = Tensor4::from_fn(2, 3, 3, 3, |k, c, r, s| ((k + c + r + s) % 3) as i16);
/// let input = Tensor3::from_fn(3, 5, 5, |c, x, y| ((c + x + 2 * y) % 7) as i16);
/// let layer = CompiledLayer::compile(&geom, 1, &filters, &UcnnConfig::with_g(2));
/// assert_eq!(run_flattened(&layer, &input), run_compiled(&layer, &input));
/// ```
#[must_use]
pub fn run_flattened(layer: &CompiledLayer, input: &Tensor3<i16>) -> Tensor3<i32> {
    let geom = layer.geom();
    let inputs = std::slice::from_ref(input);
    crate::exec::check_batch_inputs(layer, inputs);
    let tier = resolve_tier();
    let mut out = Tensor3::<i32>::zeros(geom.k(), geom.out_w(), geom.out_h());
    let plane = geom.out_w() * geom.out_h();
    let out_slice = out.as_mut_slice();
    with_thread_scratch(1, |arenas| {
        let FlattenedScratch {
            planes: [staged, _],
            prefix,
            ..
        } = &mut arenas[0];
        let staged = stage_chunk(inputs, geom.pad(), 1, staged);
        // The oracle keeps the one-position-per-walk form at every
        // geometry: it is what every wider strip is checked against.
        let (xs, ys) = (0..geom.out_w(), 0..geom.out_h());
        let run = StripRun {
            width: 1,
            pitch: 1,
            xs,
            ys,
        };
        for tile in layer.flat_tiles() {
            // Width 1 *is* the planar layout, so the tile's band is simply
            // its filters' planes of the output.
            let band = &mut out_slice[tile.k_first * plane..][..tile.g * plane];
            let prefix = prefix.rows_mut(tile.rows);
            accumulate_width::<1, 1>(tile, staged, band, geom, prefix, &run, tier);
        }
    });
    out
}

/// The scalar tier's interleave width — and the narrowest pitch: a chunk of
/// fewer images fills it with copies of them (see the module docs). Eight
/// `i32` lanes fill two 128-bit registers on baseline x86-64; the
/// `avx2`/`avx512` tiers run 16- and 32-lane strips (see
/// [`SimdTier::lane_width`]), all through the same kernel set.
pub const LANE_WIDTH: usize = 8;

/// The widest chunk of images interleaved: the widest tier's
/// [`SimdTier::lane_width`].
const MAX_CHUNK: usize = SimdTier::Avx512.lane_width();

/// `(channels, width, height)` of an activation tensor.
pub(crate) type Dims = (usize, usize, usize);

/// Cells of a `dims` plane inside a `pad`-wide halo.
fn haloed_len((c, w, h): Dims, pad: usize) -> usize {
    c * (w + 2 * pad) * (h + 2 * pad)
}

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
struct Rows<T>(Vec<T>);

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

    /// Grows (exactly, zero-filled) to hold `len` elements past the line
    /// boundary; never shrinks.
    fn reserve(&mut self, len: usize) {
        let need = len + Self::SLACK;
        if self.0.len() < need {
            self.0.reserve_exact(need - self.0.len());
            self.0.resize(need, T::default());
        }
    }

    /// The `len` elements from the line boundary, grown to fit first. They
    /// hold whatever the last user left there.
    fn rows_mut(&mut self, len: usize) -> &mut [T] {
        self.reserve(len);
        let at = self.line_start();
        &mut self.0[at..at + len]
    }

    /// The `len` elements a [`Rows::rows_mut`] of at least that size filled.
    fn rows(&self, len: usize) -> &[T] {
        let at = self.line_start();
        &self.0[at..at + len]
    }

    fn bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<T>()
    }
}

/// Reusable scratch for the flattened executors: two staged (zero-haloed,
/// batch-interleaved) activation planes, the `LW`-wide prefix lanes, and
/// the lane-major sums of the filter band being executed — each a
/// cache-line-aligned row view (one line of slack per buffer, counted by
/// [`FlattenedScratch::resident_bytes`]).
///
/// One arena serves any number of layers and chunk widths — buffers grow on
/// demand and never shrink, and [`FlattenedScratch::reserve_for`] pre-grows
/// them for a layer. The module keeps thread-local arenas that the entry
/// points borrow, so each serving worker thread reuses its own across
/// requests.
#[derive(Debug, Default)]
pub struct FlattenedScratch {
    /// Staged activations: `plane[off · LW + lane]`, `off` over a
    /// zero-haloed plane. The per-layer entry points stage into the first;
    /// the network pipeline ping-pongs, every stage reading one and writing
    /// its consumer's input into the other.
    planes: [Rows<i16>; 2],
    /// Prefix-sum lanes: `rows · LW` values, row `j` = prefix at the `j`-th
    /// kept (outer-level) close (row 0 = zeros).
    prefix: Rows<i32>,
    /// Lane-major sums of one filter band: `band_lanes[off · LW + lane]`,
    /// `off` counted from the band's first output plane. `G` planes, not
    /// the layer's `K` — a band leaves for its consumer before the next one
    /// starts.
    band_lanes: Rows<i32>,
    /// The band's `relu_saturate`d activations, when a pool consumes them
    /// band by band instead of a plane.
    band_acts: Rows<i16>,
}

impl FlattenedScratch {
    /// Creates an empty arena (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows the buffers the per-layer executors use for running
    /// `layer` at interleave width `lane_width`, so no chunk of that width
    /// (or narrower) reallocates. Idempotent and monotone — an arena
    /// reserved for a wide layer serves narrower ones for free. The output
    /// staging is sized for the layer's widest filter band
    /// (`G · out_w · out_h · lane_width`), independent of its filter count;
    /// the prefix rows are as wide as the widest strip such a chunk runs on
    /// the CPU's widest tier — positions × images, not the chunk width.
    pub fn reserve_for(&mut self, layer: &CompiledLayer, lane_width: usize) {
        let geom = layer.geom();
        let in_dims = (geom.c() * layer.conv_groups(), geom.in_w(), geom.in_h());
        let plane = geom.out_w() * geom.out_h();
        let tiles = layer.flat_tiles();
        let max_rows = tiles.iter().map(|t| t.rows).max().unwrap_or(0);
        let max_g = tiles.iter().map(|t| t.g).max().unwrap_or(0);
        let lanes = Lanes::new(lane_width, geom);
        self.planes[0].reserve(haloed_len(in_dims, geom.pad()) * lanes.pitch);
        let widest = widest_strip(geom, lane_width, SimdCaps::get().best());
        self.prefix.reserve(max_rows * widest);
        self.band_lanes.reserve(max_g * plane * lanes.pitch);
    }

    /// Bytes of heap the arena currently holds (capacities, not lengths,
    /// alignment slack included) — what an executor thread keeps resident
    /// between calls.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let planes: usize = self.planes.iter().map(Rows::bytes).sum();
        planes + self.band_acts.bytes() + self.prefix.bytes() + self.band_lanes.bytes()
    }
}

thread_local! {
    /// Per-thread arenas behind the plain entry points: serving workers are
    /// threads, so this is a per-worker pool without any API plumbing.
    /// Arena 0 serves the calling thread itself; the rest are lent to the
    /// scoped threads a multi-threaded batch call fans out to, so those
    /// short-lived threads never build (and throw away) an arena of their
    /// own.
    static THREAD_SCRATCH: RefCell<Vec<FlattenedScratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `n` of the calling thread's [`FlattenedScratch`] arenas.
fn with_thread_scratch<R>(n: usize, f: impl FnOnce(&mut [FlattenedScratch]) -> R) -> R {
    THREAD_SCRATCH.with(|cell| {
        let mut pool = cell.borrow_mut();
        if pool.len() < n {
            pool.resize_with(n, FlattenedScratch::new);
        }
        f(&mut pool[..n])
    })
}

/// Transposes a chunk of equally sized planar images into the
/// batch-interleaved lane layout: `out[off · LW + lane] = images[lane][off]`
/// where `LW == images.len()`.
///
/// The inverse is [`deinterleave_lanes`]; the round trip is exact for any
/// chunk width (pinned by a property test).
///
/// # Panics
///
/// Panics if `images` is empty or the images differ in length.
pub fn interleave_lanes<T: Copy + Default>(images: &[&[T]], out: &mut Vec<T>) {
    assert!(!images.is_empty(), "cannot interleave an empty chunk");
    let len = images[0].len();
    out.clear();
    out.resize(len * images.len(), T::default());
    stage_lanes(images, (1, 1, len), 0, images.len(), out);
}

/// Zeroes the `pad`-wide halo ring of a lane-major plane (`c` channels of
/// `(w + 2·pad) × (h + 2·pad)` cells, `lw` lanes each) and leaves the
/// interior alone: whoever fills the plane overwrites every interior cell,
/// so the ring is all that can leak what the buffer last held.
fn zero_halo<T: Copy + Default>(plane: &mut [T], (_, w, h): Dims, pad: usize, lw: usize) {
    if pad == 0 {
        return;
    }
    let (pw, ph) = (w + 2 * pad, h + 2 * pad);
    for channel in plane.chunks_exact_mut(pw * ph * lw) {
        // The ring is the gaps between consecutive interior rows.
        let mut gap = 0;
        for x in 0..w {
            let row = ((x + pad) * ph + pad) * lw;
            channel[gap..row].fill(T::default());
            gap = row + h * lw;
        }
        channel[gap..].fill(T::default());
    }
}

/// The staging transpose behind [`interleave_lanes`] and [`stage_chunk`]:
/// `images` are `c × w × h` planes, `out` becomes their batch-interleaved
/// copy inside a `pad`-wide zero halo — `out[off · pitch + lane]` with `off`
/// over `c × (w + 2·pad) × (h + 2·pad)`, the lanes past the images zero.
/// The halo ring is re-zeroed on every call ([`zero_halo`]), so an arena
/// that last held another layer's chunk leaks nothing into it.
/// One contiguous run (an input row; a [`SCATTER_BLOCK`] of offsets when
/// no halo separates the rows) is filled by every lane while it is
/// cache-resident, mirroring [`scatter_lanes`].
fn stage_lanes<T: Copy + Default, I: AsRef<[T]>>(
    images: &[I],
    (c, w, h): Dims,
    pad: usize,
    lw: usize,
    out: &mut [T],
) {
    let (len, pw, ph) = (c * w * h, w + 2 * pad, h + 2 * pad);
    assert!(
        images.iter().all(|img| img.as_ref().len() == len),
        "interleaved images must be equally sized"
    );
    if images.len() < lw {
        out.fill(T::default());
    }
    zero_halo(out, (c, w, h), pad, lw);
    let run = if pad == 0 { SCATTER_BLOCK } else { h };
    for at in (0..len).step_by(run) {
        let n = run.min(len - at);
        let row = at / h;
        let to = (row / w * pw + row % w + pad) * ph + pad + at % h;
        let dst = &mut out[to * lw..][..n * lw];
        for (lane, img) in images.iter().enumerate() {
            let src = &img.as_ref()[at..][..n];
            for (d, &v) in dst[lane..].iter_mut().step_by(lw).zip(src) {
                *d = v;
            }
        }
    }
}

/// The chunk as the strip kernels read it: staged `pitch` lanes wide
/// through [`stage_lanes`] into `staged`'s cache-line-aligned rows, inside
/// the `pad`-wide zero halo the gather offsets are lowered against.
fn stage_chunk<'a>(
    inputs: &[Tensor3<i16>],
    pad: usize,
    pitch: usize,
    staged: &'a mut Rows<i16>,
) -> &'a mut [i16] {
    let first = &inputs[0];
    let dims = (first.c(), first.w(), first.h());
    let rows = staged.rows_mut(haloed_len(dims, pad) * pitch);
    stage_lanes(inputs, dims, pad, pitch, rows);
    rows
}

/// Scatters a lane-major buffer (`lanes[off · LW + lane]`,
/// `LW == outs.len()`) back into planar per-image slices — the inverse of
/// [`interleave_lanes`].
///
/// # Panics
///
/// Panics if `outs` is empty or `lanes` is not exactly `LW` equally sized
/// planes.
pub fn deinterleave_lanes<T: Copy>(lanes: &[T], outs: &mut [&mut [T]]) {
    let lw = outs.len();
    assert!(lw > 0, "cannot deinterleave into an empty chunk");
    for out in outs.iter() {
        assert_eq!(out.len() * lw, lanes.len(), "lane buffer size mismatch");
    }
    scatter_lanes(lanes, (lw, 1), |r| (r, 0), outs, 0, |v| v);
}

/// Offsets per contiguous run of the staging transpose where no halo
/// separates the rows: a block of `LW`-wide rows (4 KB of `i32` at 32
/// lanes) stays in L1 while every lane visits it.
const SCATTER_BLOCK: usize = 32;

/// The de-interleaving transpose behind [`deinterleave_lanes`] and the last
/// stage's way out of the lane layout, over rows of `h` cells of `lw` lanes:
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
/// accumulates the band's channel tiles into them and hands them — each
/// real row where [`Lanes::stored`] says — to `sink(k_first, sums, prefix)`
/// while they are cache-resident, with the prefix rows it is done with.
fn run_bands(
    layer: &CompiledLayer,
    input: &[i16],
    lanes: Lanes,
    tier: SimdTier,
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
        for plane in sums.chunks_exact_mut(plane * lanes.pitch) {
            plane[..lanes.rows * geom.out_h() * lanes.pitch].fill(0);
        }
        for tile in band {
            for run in strip_runs(geom, lanes, tier) {
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
    /// Claims `buf`'s aligned rows for the plane and zeroes its halo ring.
    fn new(buf: &'a mut Rows<i16>, dims: Dims, pad: usize, lw: usize) -> Self {
        let cells = buf.rows_mut(haloed_len(dims, pad) * lw);
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

/// The batch driver behind the per-layer entry points and the network
/// pipeline: allocates the `out_dims` outputs, cuts the batch into lane
/// chunks at the widths [`next_chunk_width`] emits for the (clamped)
/// `tier`, and runs `chunk(inputs, outputs, arena, tier)` on each with an
/// arena from the calling thread's pool. `threads > 1` deals contiguous
/// runs of **whole tier-width chunks** to scoped threads: splitting finer
/// would narrow the SIMD width of every worker's kernel, costing more than
/// the extra thread buys.
fn run_chunked(
    inputs: &[Tensor3<i16>],
    (c, w, h): Dims,
    threads: usize,
    tier: SimdTier,
    chunk: impl Fn(&[Tensor3<i16>], &mut [Tensor3<i32>], &mut FlattenedScratch, SimdTier) + Sync,
) -> Vec<Tensor3<i32>> {
    assert!(threads > 0, "need at least one execution thread");
    if inputs.is_empty() {
        return Vec::new();
    }
    let tier = SimdCaps::get().clamp(tier);
    let lane = tier.lane_width();
    let mut outs: Vec<Tensor3<i32>> = inputs.iter().map(|_| Tensor3::zeros(c, w, h)).collect();
    let run = &|ins: &[Tensor3<i16>], outs: &mut [Tensor3<i32>], arena: &mut FlattenedScratch| {
        let mut start = 0;
        while start < ins.len() {
            let end = start + next_chunk_width(ins.len() - start, lane);
            chunk(&ins[start..end], &mut outs[start..end], arena, tier);
            start = end;
        }
    };
    let chunks = inputs.len().div_ceil(lane);
    let workers = threads.min(chunks);
    let per_worker = chunks.div_ceil(workers) * lane;
    with_thread_scratch(workers, |arenas| {
        if workers == 1 {
            return run(inputs, &mut outs, &mut arenas[0]);
        }
        std::thread::scope(|scope| {
            let dealt = inputs.chunks(per_worker).zip(outs.chunks_mut(per_worker));
            for ((ins, outs), arena) in dealt.zip(arenas.iter_mut()) {
                scope.spawn(move || run(ins, outs, arena));
            }
        });
    });
    outs
}

/// One layer over one lane chunk: stage → bands → scatter.
fn run_layer_chunk(
    layer: &CompiledLayer,
    inputs: &[Tensor3<i16>],
    outs: &mut [Tensor3<i32>],
    scratch: &mut FlattenedScratch,
    tier: SimdTier,
) {
    let FlattenedScratch {
        planes: [staged, _],
        prefix,
        band_lanes,
        ..
    } = scratch;
    let geom = layer.geom();
    let lanes = Lanes::new(inputs.len(), geom);
    let input = stage_chunk(inputs, geom.pad(), lanes.pitch, staged);
    lanes.replicate(input, geom);
    let (w, h) = (geom.out_w(), geom.out_h());
    let sink = |k_first, sums: &[i32], _: &mut Rows<i32>| {
        let stored = |r| lanes.stored(r, w);
        scatter_lanes(sums, (lanes.pitch, h), stored, outs, k_first * w * h, |v| v);
    };
    run_bands(layer, input, lanes, tier, prefix, band_lanes, sink);
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
fn run_network_chunk(
    stages: &[CompiledStage],
    inputs: &[Tensor3<i16>],
    outs: &mut [Tensor3<i32>],
    scratch: &mut FlattenedScratch,
    tier: SimdTier,
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
    stage_chunk(inputs, stages[0].pad(), pitch, even);
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
                let lanes = Lanes::new(images, geom);
                let input = src.rows_mut(haloed_len(dims, geom.pad()) * pitch);
                lanes.replicate(input, geom);
                let (input, (w, h)) = (&*input, (geom.out_w(), geom.out_h()));
                if consumer.is_none() && fused_pool.is_none() {
                    // The last layer's raw sums leave the lane layout.
                    let sink = |k_first, sums: &[i32], _: &mut Rows<i32>| {
                        let stored = |r| lanes.stored(r, w);
                        scatter_lanes(sums, (pitch, h), stored, outs, k_first * w * h, |v| v);
                    };
                    return run_bands(layer, input, lanes, tier, prefix, band_lanes, sink);
                }
                let mut dst = PlaneMut::new(dst, out_dims, out_pad, pitch);
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
                let mut dst = PlaneMut::new(dst, out_dims, out_pad, pitch);
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

/// The chunk-major network executor behind
/// [`BackendKind::FlattenedBatch`](crate::backend::BackendKind): every lane
/// chunk of the batch runs the whole of `stages` through
/// [`run_network_chunk`] on the (clamped) `tier`, dealt over `threads` as
/// [`run_flattened_batch_interleaved`] deals a layer's. Bit-identical to
/// the per-layer loop at every batch size, thread count and tier.
///
/// # Panics
///
/// Panics if `threads == 0`, if `stages` is empty, or if the activations
/// reaching a layer mismatch its geometry. The caller checks the inputs
/// against the network's input dims.
pub(crate) fn run_network_interleaved(
    stages: &[CompiledStage],
    inputs: &[Tensor3<i16>],
    threads: usize,
    tier: SimdTier,
) -> Vec<Tensor3<i32>> {
    let Some(first) = inputs.first() else {
        return Vec::new();
    };
    let in_dims = (first.c(), first.w(), first.h());
    let out_dims = stages.iter().fold(in_dims, |d, s| s.out_dims(d));
    run_chunked(inputs, out_dims, threads, tier, |ins, outs, arena, tier| {
        run_network_chunk(stages, ins, outs, arena, tier);
    })
}

/// Batch-interleaved execution of a [`CompiledLayer`]'s flattened tiles —
/// one layer of the [`BackendKind::FlattenedBatch`](crate::backend::BackendKind)
/// inner loop, as `repro backends`, the golden corpus and
/// [`Backend::run_layer`](crate::backend::Backend::run_layer) drive it.
///
/// The batch is cut into lane chunks for the process-wide [`resolve_tier`]
/// (see the module docs: the tier's interleave width, 16, 8, then the rest
/// as one chunk of row-shifted copies); each is staged once into the
/// zero-haloed layout, walked one filter band at a time through the tier's
/// `#[target_feature]` kernel and de-interleaved into the per-image outputs.
/// Per image the i32 operation sequence is identical to [`run_flattened`] at
/// every width, tier and strip shape, so outputs are **bit-identical** to it
/// at every batch size and thread count.
///
/// `threads > 1` splits the batch into contiguous runs of **whole
/// tier-width chunks** executed on scoped threads — never below the active
/// lane width per worker, so adding threads cannot narrow the SIMD width (a
/// batch of 32 on the `avx512` tier runs as one full-width chunk regardless
/// of the thread budget). Every worker borrows a [`FlattenedScratch`] from
/// the calling thread's pool, so steady-state serving does not allocate
/// scratch per request at any thread count.
///
/// # Panics
///
/// Panics if `threads == 0` or any input mismatches the layer geometry.
///
/// # Examples
///
/// ```
/// use ucnn_core::compile::UcnnConfig;
/// use ucnn_core::flatten::{run_flattened, run_flattened_batch_interleaved};
/// use ucnn_core::plan::CompiledLayer;
/// use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};
///
/// let geom = ConvGeom::new(1, 1, 16, 4, 1, 1);
/// let filters = Tensor4::from_fn(4, 16, 1, 1, |k, c, _, _| ((k + c) % 3) as i16 - 1);
/// let layer = CompiledLayer::compile(&geom, 1, &filters, &UcnnConfig::with_g(2));
/// let inputs: Vec<Tensor3<i16>> = (0..5)
///     .map(|b| Tensor3::from_fn(16, 1, 1, |c, _, _| ((b + c) % 7) as i16))
///     .collect();
/// let lanes = run_flattened_batch_interleaved(&layer, &inputs, 1);
/// for (input, out) in inputs.iter().zip(&lanes) {
///     assert_eq!(out, &run_flattened(&layer, input)); // bit-identical
/// }
/// ```
#[must_use]
pub fn run_flattened_batch_interleaved(
    layer: &CompiledLayer,
    inputs: &[Tensor3<i16>],
    threads: usize,
) -> Vec<Tensor3<i32>> {
    run_flattened_batch_interleaved_forced(layer, inputs, threads, resolve_tier())
}

/// [`run_flattened_batch_interleaved`] with an explicit [`SimdTier`]
/// instead of the process-wide one — the entry point for the per-tier
/// conformance tests and the per-tier rows of `repro backends`. The tier is
/// clamped to the CPU's detected capabilities, so forcing an unavailable
/// one runs the best supported tier instead of faulting.
///
/// # Panics
///
/// Panics if `threads == 0` or any input mismatches the layer geometry.
#[must_use]
pub fn run_flattened_batch_interleaved_forced(
    layer: &CompiledLayer,
    inputs: &[Tensor3<i16>],
    threads: usize,
    tier: SimdTier,
) -> Vec<Tensor3<i32>> {
    crate::exec::check_batch_inputs(layer, inputs);
    let geom = layer.geom();
    let out_dims = (geom.k(), geom.out_w(), geom.out_h());
    run_chunked(inputs, out_dims, threads, tier, |ins, outs, arena, tier| {
        run_layer_chunk(layer, ins, outs, arena, tier);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::UcnnConfig;
    use crate::exec::run_compiled;
    use crate::plan::CompiledNetwork;
    use crate::simd::available_tiers;
    use ucnn_model::{forward, reference, ActivationGen, QuantScheme, WeightGen};
    use ucnn_model::{LayerSpec, NetworkSpec};
    use ucnn_tensor::Tensor4;

    /// A batch of one layer on one explicit arena, chunk by chunk — what
    /// `run_chunked` does per worker.
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
        let mut start = 0;
        while start < inputs.len() {
            let end = start + next_chunk_width(inputs.len() - start, tier.lane_width());
            let (ins, outs) = (&inputs[start..end], &mut outs[start..end]);
            run_layer_chunk(layer, ins, outs, scratch, tier);
            start = end;
        }
        outs
    }

    /// Where each of the arena's five row buffers lives and how much it
    /// holds: any reallocation or growth changes it.
    fn arena_layout(scratch: &FlattenedScratch) -> [(usize, usize); 5] {
        fn at<T>(buf: &Rows<T>) -> (usize, usize) {
            (buf.0.as_ptr() as usize, buf.0.capacity())
        }
        let [even, odd] = &scratch.planes;
        let (acts, prefix) = (at(&scratch.band_acts), at(&scratch.prefix));
        [at(even), at(odd), acts, prefix, at(&scratch.band_lanes)]
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
        ];
        assert_eq!(lines, [0; 5], "{what}: a row view is off its cache line");
    }

    fn check(geom: ConvGeom, conv_groups: usize, g: usize, ct: usize, seed: u64) {
        let mut wgen = WeightGen::new(QuantScheme::inq(), seed).with_density(0.8);
        let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
        let mut agen = ActivationGen::new(seed ^ 0xF1A7);
        let input = agen.generate(geom.c() * conv_groups, geom.in_w(), geom.in_h());
        let cfg = UcnnConfig {
            g,
            ct,
            ..UcnnConfig::default()
        };
        let layer = CompiledLayer::compile(&geom, conv_groups, &weights, &cfg);
        let expected = reference::conv2d(&geom, conv_groups, &input, &weights);
        assert_eq!(run_compiled(&layer, &input), expected, "run_compiled");
        assert_eq!(run_flattened(&layer, &input), expected, "run_flattened");
        // The batch-interleaved executor must agree at every chunk width:
        // distinct images per lane so a lane mix-up cannot cancel out.
        let mut agen = ActivationGen::new(seed ^ 0x1A9E5);
        for b in [1usize, 2, 5, LANE_WIDTH, LANE_WIDTH + 3] {
            let batch: Vec<Tensor3<i16>> = (0..b)
                .map(|_| agen.generate(geom.c() * conv_groups, geom.in_w(), geom.in_h()))
                .collect();
            let per_image: Vec<Tensor3<i32>> =
                batch.iter().map(|i| run_flattened(&layer, i)).collect();
            for threads in [1usize, 2, 4] {
                assert_eq!(
                    run_flattened_batch_interleaved(&layer, &batch, threads),
                    per_image,
                    "interleaved B={b}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn fc_shape_is_branch_free_and_exact() {
        let geom = ConvGeom::new(1, 1, 64, 10, 1, 1);
        check(geom, 1, 2, 16, 3);
    }

    #[test]
    fn padded_strided_conv_takes_checked_path_and_stays_exact() {
        let geom = ConvGeom::new(11, 9, 5, 6, 3, 3).with_stride(2).with_pad(1);
        check(geom, 1, 2, 3, 4);
    }

    #[test]
    fn halo_corners_with_pad2_stride_and_negative_deltas() {
        // pad = 2 with a 3×3 filter makes every tap delta non-positive
        // (r − pad ∈ {−2, −1, 0}), so reads leave the plane on ALL four
        // sides: ix < 0 and iy < 0 at the (0, 0) output corner, ix ≥ in_w /
        // iy ≥ in_h at the far corners once the stride pushes the gather
        // base past the plane. Non-square input (7×6) keeps the two axes
        // from masking each other's bugs. Every corner output (where the
        // reads land in the halo) must agree with the dense reference bit
        // for bit.
        for (stride, seed) in [(1usize, 21u64), (2, 22), (3, 23)] {
            let geom = ConvGeom::new(7, 6, 3, 4, 3, 3)
                .with_stride(stride)
                .with_pad(2);
            check(geom, 1, 2, 2, seed);
        }
    }

    #[test]
    fn halo_corners_grouped_conv_pad2() {
        // Grouped conv + pad 2: the absolute-channel gather offsets must
        // stay inside each group's channel band of the haloed plane even
        // while the spatial deltas go negative.
        let geom = ConvGeom::new(6, 7, 3, 4, 3, 3).with_stride(2).with_pad(2);
        check(geom, 2, 2, 2, 24);
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
        let out = run_flattened(&layer, &input);
        let expected = reference::conv2d(&geom, 1, &input, &weights);
        assert_eq!(out, expected);
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
        // The interleaved kernel reads the same zero halo.
        let batch = vec![input; 4];
        for got in run_flattened_batch_interleaved(&layer, &batch, 1) {
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn interleave_deinterleave_round_trip() {
        let images: Vec<Vec<i16>> = (0..5)
            .map(|lane| (0..12).map(|i| (lane * 100 + i) as i16).collect())
            .collect();
        let refs: Vec<&[i16]> = images.iter().map(Vec::as_slice).collect();
        let mut lanes = Vec::new();
        interleave_lanes(&refs, &mut lanes);
        assert_eq!(lanes.len(), 5 * 12);
        assert_eq!(lanes[3], 300); // off 0, lane 3
        assert_eq!(lanes[7 * 5 + 1], 107); // off 7, lane 1
        let mut back: Vec<Vec<i16>> = vec![vec![0; 12]; 5];
        let mut outs: Vec<&mut [i16]> = back.iter_mut().map(Vec::as_mut_slice).collect();
        deinterleave_lanes(&lanes, &mut outs);
        assert_eq!(back, images);
    }

    #[test]
    fn explicit_scratch_arena_is_reusable_across_layers_and_widths() {
        // One arena across different layers, chunk widths, and padded and
        // unpadded staging: buffers only grow, results stay exact.
        let mut scratch = FlattenedScratch::new();
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
                let expected: Vec<Tensor3<i32>> =
                    inputs.iter().map(|i| run_flattened(&layer, i)).collect();
                assert_eq!(
                    run_on_arena(&layer, &inputs, &mut scratch, resolve_tier()),
                    expected,
                    "layer {gi}, B={b}"
                );
            }
        }
    }

    #[test]
    fn scratch_capacity_follows_dispatch_width_across_mixed_width_layers() {
        // Satellite regression: one arena alternating between layers run at
        // every available tier width (8/16/32 on full AVX-512 hardware).
        // After `reserve_for` at the widest width each layer will see, the
        // buffers must never reallocate — pointers and capacities stay put
        // across every mixed-width run — and results stay exact.
        let widest = SimdCaps::get().best().lane_width();
        let geoms = [
            ConvGeom::new(1, 1, 48, 6, 1, 1),
            ConvGeom::new(5, 4, 3, 4, 3, 3).with_pad(1),
        ];
        let layers: Vec<CompiledLayer> = geoms
            .iter()
            .enumerate()
            .map(|(gi, geom)| {
                let mut wgen = WeightGen::new(QuantScheme::inq(), 90 + gi as u64).with_density(0.8);
                let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
                CompiledLayer::compile(geom, 1, &weights, &UcnnConfig::with_g(2))
            })
            .collect();
        let mut scratch = FlattenedScratch::new();
        for layer in &layers {
            scratch.reserve_for(layer, widest);
        }
        // The output staging is reserved per filter band (G = 2 planes of
        // the larger layer), not per layer (K = 6 / 4 planes); every buffer
        // carries one cache line of alignment slack on top of its rows.
        let band = geoms
            .iter()
            .map(|geom| 2 * geom.out_w() * geom.out_h())
            .max()
            .unwrap();
        let (i16_line, i32_line) = (Rows::<i16>::SLACK, Rows::<i32>::SLACK);
        assert_eq!(scratch.band_lanes.0.capacity(), band * widest + i32_line);
        // The staged chunk covers the padded conv's haloed plane (126
        // offsets, more than the FC layer's 48). The second plane is the
        // network pipeline's.
        assert_eq!(
            scratch.planes[0].0.capacity(),
            3 * (5 + 2) * (4 + 2) * widest + i16_line
        );
        assert_eq!(scratch.planes[1].0.capacity(), 0);
        // Each layer's rows are as wide as the widest strip a full chunk of
        // it runs on the widest tier: the chunk itself on the FC layer, four
        // positions (the conv's whole output row) × the chunk on the conv.
        let best = SimdCaps::get().best();
        let strips = [widest, (4 * widest).min(best.strip_lanes())];
        let prefix = layers.iter().zip(strips).map(|(layer, strip)| {
            assert_eq!(widest_strip(layer.geom(), widest, best), strip);
            layer.flat_tiles().iter().map(|t| t.rows).max().unwrap() * strip
        });
        assert_eq!(
            scratch.prefix.0.capacity(),
            prefix.max().unwrap() + i32_line
        );
        let reserved = arena_layout(&scratch);
        let mut agen = ActivationGen::new(91);
        for round in 0..2 {
            for (layer, geom) in layers.iter().zip(&geoms) {
                for &tier in available_tiers() {
                    let lane = tier.lane_width();
                    // A full-width chunk (on the conv: strips of four
                    // positions × the chunk, capped by the tier), then a
                    // chunk of three at pitch 8 (two copies of each image on
                    // the conv, idle lanes on the FC layer).
                    let b = lane + 3;
                    let inputs: Vec<Tensor3<i16>> = (0..b)
                        .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                        .collect();
                    let expected: Vec<Tensor3<i32>> =
                        inputs.iter().map(|i| run_flattened(layer, i)).collect();
                    let got = run_on_arena(layer, &inputs, &mut scratch, tier);
                    assert_eq!(got, expected, "round {round}, tier {}", tier.name());
                }
            }
        }
        assert_eq!(
            arena_layout(&scratch),
            reserved,
            "arena buffers grew or reallocated after reserve_for"
        );
    }

    #[test]
    fn every_row_view_starts_on_a_cache_line() {
        // After `reserve_for`, after a run, and after growth to a larger
        // layer, each of the arena's row buffers hands out views at
        // `addr % 64 == 0` at every strip width, and `resident_bytes`
        // counts one line of slack per allocated buffer. The prefix rows
        // are as wide as the widest strip a chunk of `lw` images runs on the
        // widest tier — positions × its pitch (eight lanes for one image):
        // output rows of 4 and 9 positions give strips 4 and 8 positions
        // deep, as far as the tier's `strip_lanes` allow — and there is one
        // per *kept* close, which the larger layer need not have more of:
        // the arena only grows, so the prefix holds the larger demand.
        let best = SimdCaps::get().best();
        let geoms = [
            (ConvGeom::new(5, 4, 3, 4, 3, 3).with_pad(1), 4),
            (ConvGeom::new(9, 7, 4, 6, 3, 3).with_pad(2), 8),
        ];
        let mut agen = ActivationGen::new(93);
        for lw in [1usize, 8, 16, 32] {
            let mut scratch = FlattenedScratch::new();
            let mut prefix = 0;
            for (gi, (geom, positions)) in geoms.iter().enumerate() {
                let mut wgen = WeightGen::new(QuantScheme::inq(), 92 + gi as u64).with_density(0.8);
                let weights = wgen.generate_dims(geom.k(), geom.c(), 3, 3);
                let layer = CompiledLayer::compile(geom, 1, &weights, &UcnnConfig::with_g(2));
                scratch.reserve_for(&layer, lw);
                assert_aligned(&scratch, &format!("LW {lw}, layer {gi}, reserved"));
                let rows = layer.flat_tiles().iter().map(|t| t.rows).max().unwrap();
                let pitch = lw.max(LANE_WIDTH);
                prefix = prefix.max(rows * (positions * pitch).min(best.strip_lanes()));
                let cells = haloed_len((geom.c(), geom.in_w(), geom.in_h()), geom.pad());
                let reserved = scratch.resident_bytes();
                assert_eq!(
                    reserved,
                    (cells * 2 + 8 * geom.out_w() * geom.out_h()) * pitch + prefix * 4 + 3 * LINE,
                    "LW {lw}, layer {gi}: rows plus one line of slack per buffer"
                );
                // Exactly `lw` images: one chunk on any tier that has it.
                let inputs: Vec<Tensor3<i16>> = (0..lw)
                    .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                    .collect();
                let got = run_on_arena(&layer, &inputs, &mut scratch, best);
                for (input, out) in inputs.iter().zip(&got) {
                    assert_eq!(out, &reference::conv2d(geom, 1, input, &weights));
                }
                assert_aligned(&scratch, &format!("LW {lw}, layer {gi}, after a run"));
                assert_eq!(
                    scratch.resident_bytes(),
                    reserved,
                    "LW {lw}, layer {gi}: the run outgrew the reservation"
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

        let mut scratch = FlattenedScratch::new();
        assert_eq!(scratch.resident_bytes(), 0, "a new arena holds nothing");
        let got = run_on_arena(&layer, &inputs, &mut scratch, resolve_tier());
        for (input, out) in inputs.iter().zip(&got) {
            assert_eq!(out, &reference::conv2d(&geom, 1, input, &weights));
        }

        // 32 images fill the widest tier's strip, so LW is the tier width.
        let lw = resolve_tier().lane_width();
        let plane = geom.out_w() * geom.out_h();
        let staging = scratch.band_lanes.bytes();
        assert!(
            staging <= g * plane * lw * 4 + LINE,
            "output staging {staging} B exceeds one band ({} B) and its slack",
            g * plane * lw * 4
        );
        // The 8-position output rows run as strips of as many positions ×
        // the chunk as the tier's registers hold.
        let strip = (8 * lw).min(resolve_tier().strip_lanes());
        let max_rows = layer.flat_tiles().iter().map(|t| t.rows).max().unwrap();
        assert_eq!(
            scratch.resident_bytes(),
            3 * (8 + 2) * (8 + 2) * lw * 2 + max_rows * strip * 4 + staging + 2 * LINE,
            "resident_bytes is the haloed staged input + kept-close prefix lanes + one band, \
             each with its line of alignment slack"
        );
        assert!(
            scratch.resident_bytes() < k * plane * lw * 4,
            "the whole arena must be smaller than whole-layer staging alone"
        );
        // One image runs at pitch 8, eight copies of one output row each:
        // no wider than the strips that grew the arena.
        let grown = scratch.resident_bytes();
        let got = run_on_arena(&layer, &inputs[..1], &mut scratch, resolve_tier());
        assert_eq!(got[0], reference::conv2d(&geom, 1, &inputs[0], &weights));
        assert_eq!(scratch.resident_bytes(), grown);
    }

    #[test]
    fn threaded_calls_reuse_the_calling_threads_arena_pool() {
        // A one-layer call and a whole-network call, at one worker and at
        // two: the first call grows the caller's pool (one arena per
        // worker), the second finds every buffer where it was — same
        // pointers, same capacities — so the steady state allocates the
        // output tensors and nothing else. libtest runs each test on its
        // own thread, so the pool starts empty here.
        let net = ucnn_model::networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 97, 0.85);
        let plan = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
        let CompiledStage::Conv { layer, .. } = &plan.stages()[0] else {
            panic!("tiny starts with a convolution");
        };
        let tier = resolve_tier();
        let mut agen = ActivationGen::new(98);
        let inputs: Vec<Tensor3<i16>> = (0..2 * tier.lane_width())
            .map(|_| agen.generate_for(&net.conv_layers()[0]))
            .collect();
        let pool = || {
            THREAD_SCRATCH.with(|cell| cell.borrow().iter().map(arena_layout).collect::<Vec<_>>())
        };
        assert!(pool().is_empty());
        for threads in [1usize, 2] {
            // The single image runs at pitch 8 out of the same buffers the
            // full chunks grew.
            let first = (
                run_flattened_batch_interleaved(layer, &inputs, threads),
                run_network_interleaved(plan.stages(), &inputs, threads, tier),
                run_network_interleaved(plan.stages(), &inputs[..1], threads, tier),
            );
            let grown = pool();
            assert_eq!(grown.len(), threads, "one arena per worker");
            for arena in &grown {
                assert!(arena.iter().all(|&(_, capacity)| capacity > 0));
            }
            let second = (
                run_flattened_batch_interleaved(layer, &inputs, threads),
                run_network_interleaved(plan.stages(), &inputs, threads, tier),
                run_network_interleaved(plan.stages(), &inputs[..1], threads, tier),
            );
            assert_eq!(pool(), grown, "steady state must not touch the arenas");
            assert_eq!(first, second);
            // The pipeline's own buffers exist now (tiny pools a band of its
            // second convolution): all five sit on a line in every arena.
            THREAD_SCRATCH.with(|cell| {
                for arena in cell.borrow().iter() {
                    assert_aligned(arena, "after a network call");
                }
            });
        }
    }

    /// Runs `layer` over `inputs` on every available tier at both thread
    /// counts against the dense reference: raw sums through the per-layer
    /// entry point, and the inter-layer epilogue (`relu_saturate`) through
    /// the network pipeline — the layer followed by a 1×1 max-pool, which
    /// hands the narrowed activations back unchanged (widened to `i32`).
    fn check_bands_against_reference(
        layer: &CompiledLayer,
        weights: &Tensor4<i16>,
        inputs: &[Tensor3<i16>],
        what: &str,
    ) {
        let sums: Vec<Tensor3<i32>> = inputs
            .iter()
            .map(|i| reference::conv2d(layer.geom(), layer.conv_groups(), i, weights))
            .collect();
        let acts: Vec<Tensor3<i32>> = sums
            .iter()
            .map(|s| {
                let a = reference::relu_saturate(s);
                Tensor3::from_fn(a.c(), a.w(), a.h(), |c, x, y| i32::from(a[(c, x, y)]))
            })
            .collect();
        let stages = [
            CompiledStage::Conv {
                name: "layer".into(),
                layer: layer.clone(),
                is_fc: false,
            },
            CompiledStage::Pool {
                name: "identity".into(),
                kind: PoolKind::Max,
                size: 1,
                stride: 1,
            },
        ];
        for &tier in available_tiers() {
            for threads in [1usize, 2] {
                let label = format!(
                    "{what}, tier {}, B={}, {threads} threads",
                    tier.name(),
                    inputs.len()
                );
                assert_eq!(
                    run_flattened_batch_interleaved_forced(layer, inputs, threads, tier),
                    sums,
                    "raw sums: {label}"
                );
                assert_eq!(
                    run_network_interleaved(&stages, inputs, threads, tier),
                    acts,
                    "pipeline epilogue: {label}"
                );
            }
        }
    }

    #[test]
    fn band_staging_and_fused_epilogue_match_reference() {
        // (geometry, conv groups, G, Ct): each shape stresses one way a
        // band can be assembled or scattered wrongly.
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
        for (si, (geom, conv_groups, g, ct)) in shapes.into_iter().enumerate() {
            let seed = 300 + si as u64;
            let mut wgen = WeightGen::new(QuantScheme::inq(), seed).with_density(0.8);
            let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
            let cfg = UcnnConfig {
                g,
                ct,
                ..UcnnConfig::default()
            };
            let layer = CompiledLayer::compile(&geom, conv_groups, &weights, &cfg);
            let mut agen = ActivationGen::new(seed ^ 0xBA9D);
            for b in [1usize, 5, 8, 16, 32, 35] {
                // Distinct images per lane, so a lane mix-up cannot cancel.
                let inputs: Vec<Tensor3<i16>> = (0..b)
                    .map(|_| agen.generate(geom.c() * conv_groups, geom.in_w(), geom.in_h()))
                    .collect();
                check_bands_against_reference(&layer, &weights, &inputs, &format!("shape {si}"));
            }
        }
    }

    #[test]
    fn geometry_sweep_matches_reference_on_every_tier() {
        // The single gather path against the dense reference over stride ×
        // pad — including pad > r − 1, where whole windows sit in the halo —
        // on a non-square plane, cycling grouped conv and G = 1..=4 through
        // the cells (G = 1 has no outer level and keeps no row; G = 4 leaves
        // a ragged band), with ragged channel tiles (C = 5, Ct = 2) and
        // batches that straddle every strip width; a rest of fewer than
        // eight images runs at pitch 8 in row-shifted copies.
        let mut cases = Vec::new();
        for stride in 1..=3 {
            for pad in 0..=3 {
                let geom = ConvGeom::new(7, 6, 5, 6, 3, 3)
                    .with_stride(stride)
                    .with_pad(pad);
                cases.push((geom, [1usize, 5, 8, 16, 32, 35]));
            }
        }
        // Position lanes over output rows that hit every tail split of
        // every strip width, at pad 0/1/2, with a strided and a 1-position
        // row as the fallbacks, for chunks of 1–7, 8 and 32 images.
        for (ri, out_h) in [1usize, 2, 7, 8, 9, 12, 16, 17, 32, 33, 40]
            .into_iter()
            .enumerate()
        {
            // `ConvGeom::new` wants the filter inside the unpadded plane.
            let pad = (ri % 3).min((out_h - 1) / 2);
            let geom = ConvGeom::new(4, out_h + 2 - 2 * pad, 5, 6, 3, 3).with_pad(pad);
            assert_eq!(geom.out_h(), out_h);
            cases.push((geom, [1, 2, 3, 7, 9, 33]));
        }
        cases.push((
            ConvGeom::new(4, 35, 5, 6, 3, 3).with_stride(2).with_pad(1),
            [1, 2, 3, 7, 9, 33],
        ));
        for (case, (geom, batches)) in cases.into_iter().enumerate() {
            let (conv_groups, g) = (1 + case % 2, 1 + case % 4);
            let seed = 400 + case as u64;
            let mut wgen = WeightGen::new(QuantScheme::inq(), seed).with_density(0.8);
            let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
            let cfg = UcnnConfig {
                g,
                ct: 2,
                ..UcnnConfig::default()
            };
            let layer = CompiledLayer::compile(&geom, conv_groups, &weights, &cfg);
            let mut agen = ActivationGen::new(seed ^ 0x5EE9);
            for b in batches {
                let inputs: Vec<Tensor3<i16>> = (0..b)
                    .map(|_| agen.generate(geom.c() * conv_groups, geom.in_w(), geom.in_h()))
                    .collect();
                let what = format!(
                    "stride {}, pad {}, out row {}, groups {conv_groups}, G {g}",
                    geom.stride(),
                    geom.pad(),
                    geom.out_h()
                );
                check_bands_against_reference(&layer, &weights, &inputs, &what);
            }
        }
    }

    #[test]
    fn strips_of_positions_by_images_match_the_planar_walk() {
        // Every strip shape a chunk can take — the cascade over output rows
        // that are a power of two, one short, one over, and narrower than
        // any strip — against `run_flattened`, on every tier, with batches
        // that mix chunk widths (24 = 16 + 8, 40 = 32 + 8, 9 = 8 + 1) and
        // chunks of 1–7 images, whose copies split 1 + 2·pad output rows at
        // stride 1 in every cell and, in a twin alternating so each (groups,
        // G) meets both, 7 at stride 2 or 12 (no multiple of a band count).
        // One output position (pad 0, out row 1) is walked once. Release
        // builds (where `i32` sums wrap rather than panic) give the first two
        // filters (an outer level and, at G = 2, the fused innermost one) and
        // the first two images the extreme values: 18 taps of ±32767² wrap.
        let wrap = !cfg!(debug_assertions);
        let (mut case, mut ran) = (0u64, 0);
        for out_h in [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 33] {
            for pad in 0..=2usize {
                let pairs = [(1usize, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4)];
                for (j, (conv_groups, g)) in pairs.into_iter().enumerate() {
                    let twin = [(2, 7), (1, 12)][(out_h + pad + j) % 2];
                    for (stride, out_w) in [(1, 1 + 2 * pad), twin] {
                        case += 1;
                        // `validated` takes the filter against the padded plane.
                        let dim = |out: usize| (stride * (out - 1) + 3).checked_sub(2 * pad);
                        let (Some(w), Some(h @ 1..)) = (dim(out_w), dim(out_h)) else {
                            continue;
                        };
                        let geom = ConvGeom::validated(w, h, 2, 4, 3, 3, stride, pad).unwrap();
                        assert_eq!((geom.out_w(), geom.out_h()), (out_w, out_h));
                        ran += 1;
                        let mut wgen =
                            WeightGen::new(QuantScheme::inq(), 500 + case).with_density(0.8);
                        let drawn = wgen.generate_dims(4, 2, 3, 3);
                        let weights = Tensor4::from_fn(4, 2, 3, 3, |k, c, r, s| match k {
                            0 if wrap => i16::MAX,
                            1 if wrap => i16::MIN,
                            _ => drawn[(k, c, r, s)],
                        });
                        let cfg = UcnnConfig {
                            g,
                            ct: 2,
                            ..UcnnConfig::default()
                        };
                        let layer = CompiledLayer::compile(&geom, conv_groups, &weights, &cfg);
                        let mut agen = ActivationGen::new(case ^ 0x57A1);
                        let c = 2 * conv_groups;
                        let images: Vec<Tensor3<i16>> = (0..40)
                            .map(|i| match i {
                                0 if wrap => Tensor3::filled(c, w, h, i16::MAX),
                                1 if wrap => Tensor3::filled(c, w, h, i16::MIN),
                                _ => agen.generate(c, w, h),
                            })
                            .collect();
                        let planar: Vec<Tensor3<i32>> =
                            images.iter().map(|i| run_flattened(&layer, i)).collect();
                        for &tier in available_tiers() {
                            for b in [1usize, 2, 3, 5, 7, 8, 9, 16, 24, 32, 40] {
                                assert_eq!(
                                    run_flattened_batch_interleaved_forced(
                                        &layer,
                                        &images[..b],
                                        1,
                                        tier
                                    ),
                                    planar[..b],
                                    "{geom:?}, groups {conv_groups}, G {g}, tier {}, B={b}",
                                    tier.name()
                                );
                            }
                        }
                    }
                }
            }
        }
        // Stride 1 skips two unpaddable (out row, pad) blocks; of the twins,
        // stride 2 skips three and 12 columns six (out row ≤ 2, pad 2).
        assert_eq!(ran, (13 * 3 - 2) * 6 + 13 * 3 * 6 - 9);
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
    fn every_stream_ends_on_a_close_and_rows_count_the_closes() {
        // Phase 1 walks a plus and a minus sub-run of entries per close
        // record and stores the running sum at the kept ones: the sub-runs
        // must partition `base` (the last entry closes, or its adds would
        // never be multiplied), the last close must be kept when outer
        // levels exist (or a level's last group would have no row), and
        // `rows` must count the zero row plus the kept closes — nothing on
        // a one-level walk. A tile walked once (one output position: the
        // two FC shapes) keeps the stream's order and a row per entry
        // instead, and its outer segments index those.
        let shapes = [
            (ConvGeom::new(6, 5, 7, 6, 3, 3).with_pad(1), 1usize, 3usize),
            (
                ConvGeom::new(5, 5, 4, 4, 3, 3).with_stride(2).with_pad(2),
                2,
                2,
            ),
            (ConvGeom::new(1, 1, 96, 5, 1, 1), 1, 1),
            (ConvGeom::new(4, 4, 6, 8, 3, 3), 1, 4),
            (ConvGeom::new(1, 1, 40, 6, 1, 1), 1, 3),
        ];
        for (si, (geom, conv_groups, g)) in shapes.into_iter().enumerate() {
            let mut wgen = WeightGen::new(QuantScheme::inq(), 80 + si as u64).with_density(0.7);
            let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
            let cfg = UcnnConfig {
                g,
                ct: 3,
                ..UcnnConfig::default()
            };
            let layer = CompiledLayer::compile(&geom, conv_groups, &weights, &cfg);
            let once = walked_once(&geom);
            for flat in layer.flat_tiles() {
                let n = flat.entry_count();
                let (levels, runs) = (flat.seg_ptr.len(), flat.closes.iter());
                assert!(flat.closes.iter().all(|c| c.plus + c.minus >= 1), "{si}");
                let entries: usize = runs.map(|c| usize::from(c.plus + c.minus)).sum();
                assert_eq!(
                    entries, n,
                    "shape {si}: sub-runs must partition the entries"
                );
                assert!(!once || flat.closes.iter().all(|c| c.minus == 0), "{si}");
                // Shared, the band's `G` levels; apart, the filter's one.
                assert!(levels == flat.g && flat.plane == levels - 1 || levels == 1);
                let kept = flat.closes.iter().filter(|c| c.keep()).count();
                let last_kept = flat.closes.last().is_none_or(|c| c.keep());
                assert_eq!(last_kept, levels > 1 || n == 0, "shape {si}");
                let last_row = if once { n } else { kept };
                assert_eq!(flat.rows, 1 + last_row, "shape {si}");
                // Outer segments index kept rows only (entry rows, once),
                // in walk order within a level: phase 2 reads the kept rows
                // monotonically.
                for seg in &flat.segs {
                    assert!(seg.start < seg.end && seg.end as usize <= last_row);
                }
                for level in flat.seg_ptr.windows(2) {
                    let segs = &flat.segs[level[0] as usize..level[1] as usize];
                    assert!(
                        segs.windows(2).all(|p| p[0].end <= p[1].start),
                        "shape {si}: a level's segments must not step back"
                    );
                }
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
        let mut plane = PlaneMut::new(&mut buf, (edge.len(), 1, 1), 0, 1);
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
                check_bands_against_reference(
                    &layer,
                    &weights,
                    &inputs,
                    &format!("extremes, G {g}"),
                );
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
    fn every_available_tier_is_bit_identical() {
        // Cheap in-process tier sweep: full-width + residual batches per
        // tier, threaded and not, against the planar per-image walk and the
        // dense reference. An INQ FC, an INQ conv and a ternary-TTQ FC keep
        // `±2^k` alphabets checked on every tier. The conformance corpus
        // repeats this against golden vectors; this is the fast in-module
        // guard.
        let cases = [
            (ConvGeom::new(1, 1, 64, 8, 1, 1), QuantScheme::inq()),
            (
                ConvGeom::new(4, 4, 3, 4, 3, 3).with_pad(1),
                QuantScheme::inq(),
            ),
            (ConvGeom::new(1, 1, 64, 8, 1, 1), QuantScheme::ttq()),
        ];
        let mut agen = ActivationGen::new(55);
        for (ci, (geom, scheme)) in cases.into_iter().enumerate() {
            let mut wgen = WeightGen::new(scheme, 50 + ci as u64).with_density(0.8);
            let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
            let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::with_g(2));
            for &tier in available_tiers() {
                let lane = tier.lane_width();
                for b in [lane, lane + 3] {
                    let inputs: Vec<Tensor3<i16>> = (0..b)
                        .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                        .collect();
                    let expected: Vec<Tensor3<i32>> = inputs
                        .iter()
                        .map(|i| reference::conv2d(&geom, 1, i, &weights))
                        .collect();
                    let planar: Vec<Tensor3<i32>> =
                        inputs.iter().map(|i| run_flattened(&layer, i)).collect();
                    assert_eq!(planar, expected, "case {ci}: planar walk");
                    for threads in [1usize, 3] {
                        assert_eq!(
                            run_flattened_batch_interleaved_forced(&layer, &inputs, threads, tier),
                            expected,
                            "case {ci}, tier {}, B={b}, {threads} threads",
                            tier.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn grouped_conv_exact() {
        let geom = ConvGeom::new(7, 7, 4, 6, 3, 3).with_pad(1);
        check(geom, 2, 2, 4, 5);
    }

    #[test]
    fn ragged_channel_tiles_exact() {
        // Every depth of hierarchy over the same ragged tiles: G = 1 is the
        // fused level alone, G = 4 three outer levels above it.
        let geom = ConvGeom::new(8, 8, 10, 4, 3, 3);
        for g in 1..=4 {
            check(geom, 1, g, 4, 6);
        }
    }

    /// What a lowered walk (of a tile not walked once) issues, counted back
    /// from its records.
    fn lowered_counts(tile: &FlattenedTile) -> WalkCounts {
        WalkCounts {
            entries: tile.base.len(),
            closes: tile.closes.len(),
            kept: tile.rows - 1,
            segs: tile.segs.len(),
        }
    }

    /// One case of `the_order_is_free_the_sum_is_not`, a function of `seed`
    /// alone: the first 100 seeds are alphabet × G × geometry, later ones
    /// the same cells under other weights.
    fn order_case(seed: u64) {
        let what = format!("seed {seed}");
        let mut rng = ucnn_model::rng::SmallRng::seed_from_u64(seed);
        let (inq, fixed) = (QuantScheme::inq(), QuantScheme::fixed_bits(8));
        let alphabet: &[i16] = match seed % 5 {
            0 => inq.nonzero_values(),
            // Not sign-symmetric: folding merges nothing here.
            1 => &[-3, 5],
            2 => fixed.nonzero_values(),
            3 => &[],
            _ => &[i16::MIN, i16::MAX, 1, -1],
        };
        let g = 1 + (seed / 5 % 4) as usize;
        // Padded; strided; grouped; ragged channel tiles; a 2 × 2 output.
        let (geom, conv_groups, ct) = match seed / 20 % 5 {
            0 => (ConvGeom::new(6, 5, 4, 6, 3, 3).with_pad(1), 1, 64),
            1 => (ConvGeom::new(7, 7, 4, 6, 3, 3).with_stride(2), 1, 64),
            2 => (ConvGeom::new(5, 5, 2, 6, 3, 3), 2, 64),
            3 => (ConvGeom::new(5, 6, 5, 6, 3, 3), 1, 2),
            _ => (ConvGeom::new(4, 4, 4, 6, 3, 3), 1, 64),
        };
        let mut weight = |_, _, _, _| match rng.next_u64() % (alphabet.len() as u64 + 1) {
            0 => 0,
            pick => alphabet[pick as usize - 1],
        };
        let weights = Tensor4::from_fn(geom.k(), geom.c(), 3, 3, &mut weight);
        let cfg = UcnnConfig {
            g,
            ct,
            ..UcnnConfig::default()
        };
        let layer = CompiledLayer::compile(&geom, conv_groups, &weights, &cfg);
        let again = CompiledLayer::compile(&geom, conv_groups, &weights, &cfg);
        assert_eq!(
            layer.flat_tiles(),
            again.flat_tiles(),
            "{what}: equal weights, equal plans"
        );

        let (rs, pw, ph) = (
            9,
            geom.in_w() + 2 * geom.pad(),
            geom.in_h() + 2 * geom.pad(),
        );
        let mut flat = layer.flat_tiles().iter();
        for band in layer.tiles().chunk_by(|a, b| a.k_first() == b.k_first()) {
            let (k_first, levels) = (band[0].k_first(), band[0].stream().g());
            let walks: Vec<_> = flat.clone().take_while(|t| t.k_first == k_first).collect();
            flat.nth(walks.len() - 1);
            let apart = walks.len() == levels * band.len() && levels > 1;
            assert!(
                apart || walks.len() == band.len(),
                "{what}: a walk per tile or filter"
            );
            let mut costs = [WalkCounts::default(); 3];
            for (ti, tile) in band.iter().enumerate() {
                let stream = tile.stream();
                // The offsets of the entries where `filters` hold a weight.
                let offsets = |filters: Range<usize>| {
                    let walked = stream
                        .entries()
                        .filter(|e| e.ranks[filters.clone()].iter().any(|&r| r != ZERO_RANK));
                    let mut offsets: Vec<u32> = walked
                        .map(|e| {
                            let (c, rem) = (e.index as usize / rs, e.index as usize % rs);
                            (((tile.c_first() + c) * pw + rem / 3) * ph + rem % 3) as u32
                        })
                        .collect();
                    offsets.sort_unstable();
                    offsets
                };
                let per_tile = walks.len() / band.len();
                for (f, walk) in walks[ti * per_tile..][..per_tile].iter().enumerate() {
                    let filters = if apart { f..f + 1 } else { 0..levels };
                    let mut base = walk.base.clone();
                    base.sort_unstable();
                    assert_eq!(base, offsets(filters.clone()), "{what}: a permutation");
                    assert_eq!((walk.g, walk.plane), (levels, filters.end - 1), "{what}");
                    costs[0] = [costs[0], lowered_counts(walk)].into_iter().sum();
                }
                // Folding may not add closes + outer segments to the
                // stream's own, and the cheap count of the one-filter walks
                // is what ordering them gives.
                let shared = FlattenedTile::lower(stream, k_first, tile.c_first(), &geom);
                let inner = stream.entries().filter(|e| e.close_level.is_some());
                let inner = inner.filter(|e| e.ranks[levels - 1] != ZERO_RANK).count();
                assert!(
                    shared.closes.len() + shared.segs.len()
                        <= stream.closures_at_level(levels - 1) + stream.multiplies() - inner,
                    "{what}: folding added work"
                );
                costs[1] = [costs[1], lowered_counts(&shared)].into_iter().sum();
                let Lowering {
                    layer,
                    mut sort,
                    mut seen,
                    mut single,
                    ..
                } = Lowering::new(stream, &geom);
                let mut read = BandTile::default();
                read.read(stream, tile.c_first(), &layer, &mut sort);
                let ordered = (0..levels).map(|f| {
                    single.fold(&read.source, f..f + 1, layer.keys.zero(), &mut sort);
                    single.counts
                });
                let ordered: WalkCounts = ordered.sum();
                let counted = read.source.apart_counts(stream, &layer.keys, &mut seen);
                assert_eq!(counted, ordered, "{what}: the un-share count");
                costs[2] = [costs[2], ordered].into_iter().sum();
            }
            // The band took the cheaper walk; a tie keeps the hierarchy.
            let [lowered, shared, split] = costs.map(|c| c.cost());
            assert_eq!(
                apart,
                levels > 1 && split < shared,
                "{what}: the un-share rule"
            );
            assert_eq!(lowered, if apart { split } else { shared }, "{what}");
        }

        let mut agen = ActivationGen::new(seed ^ 0x0DE5);
        let inputs: Vec<Tensor3<i16>> = (0..9)
            .map(|_| agen.generate(geom.c() * conv_groups, geom.in_w(), geom.in_h()))
            .collect();
        let expected: Vec<Tensor3<i32>> = inputs.iter().map(|i| run_compiled(&layer, i)).collect();
        assert_eq!(
            run_flattened(&layer, &inputs[0]),
            expected[0],
            "{what}: planar"
        );
        for &tier in available_tiers() {
            assert_eq!(
                run_flattened_batch_interleaved_forced(&layer, &inputs, 1, tier),
                expected,
                "{what}: tier {}",
                tier.name()
            );
        }
    }

    #[test]
    fn the_order_is_free_the_sum_is_not() {
        // Lowering may reorder, regroup, negate and un-share a tile any way
        // that keeps `Σ x·w`. A failure names the one seed that replays it
        // (`PROPTEST_SEED`, the property tests' knob); otherwise the whole
        // alphabet × G × geometry product runs, then further seeds for a
        // second — the range is logged.
        if let Some(seed) = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            return order_case(seed);
        }
        let start = std::time::Instant::now();
        let mut seeds = 0;
        while seeds < 100 || (seeds < 1000 && start.elapsed().as_secs() < 1) {
            order_case(seeds);
            seeds += 1;
        }
        println!("the_order_is_free_the_sum_is_not: seeds 0..{seeds}");

        // A sub-run longer than a `u16` is cut into records that telescope
        // to `Δw = 0`: one group of (7, 7) then (−7, −7) entries, the plus
        // or the minus sub-run too long for one record, walked at two
        // positions (folded: two records) and, as a fully connected layer,
        // once (stream order: two groups, three records).
        let c = 70_000;
        let mut agen = ActivationGen::new(11);
        for flip in [1_000, 66_000] {
            let weights =
                Tensor4::from_fn(2, c, 1, 1, |_, ci, _, _| if ci < flip { 7i16 } else { -7 });
            for geom in [
                ConvGeom::new(1, 2, c, 2, 1, 1),
                ConvGeom::new(1, 1, c, 2, 1, 1),
            ] {
                let cfg = UcnnConfig {
                    g: 2,
                    ct: c,
                    ..UcnnConfig::default()
                };
                let layer = CompiledLayer::compile(&geom, 1, &weights, &cfg);
                let [tile] = layer.flat_tiles() else {
                    panic!("sharing every gather is cheaper");
                };
                let records = if walked_once(&geom) { 3 } else { 2 };
                assert_eq!(tile.closes.len(), records, "{geom:?}, flip {flip}");
                let input = agen.generate(c, geom.in_w(), geom.in_h());
                assert_eq!(run_flattened(&layer, &input), run_compiled(&layer, &input));
            }
        }
    }

    #[test]
    fn all_zero_tile_lowers_to_zero_work() {
        let stream = GroupStream::build(&[&[0i16; 9][..], &[0i16; 9][..]]);
        let geom = ConvGeom::new(5, 5, 1, 2, 3, 3);
        let tile = FlattenedTile::lower(&stream, 0, 0, &geom);
        assert_eq!(tile.entry_count(), 0);
        assert_eq!(tile.segment_count(), 0);
        // No closes, and no rows beyond the zero row.
        assert!(tile.closes.is_empty() && tile.segs.is_empty());
        assert_eq!(tile.rows, 1);
    }

    #[test]
    fn segment_counts_match_stream_multiplies() {
        // Multiplies per position never exceed the stream's uncapped count
        // — one per non-zero group, and folding only merges groups.
        let mut wgen = WeightGen::new(QuantScheme::inq(), 9).with_density(0.7);
        let w = wgen.generate_dims(2, 8, 3, 3);
        let stream = GroupStream::build(&[w.filter(0), w.filter(1)]);
        let geom = ConvGeom::new(5, 5, 8, 2, 3, 3);
        let tile = FlattenedTile::lower(&stream, 0, 0, &geom);
        assert!(tile.segment_count() < stream.multiplies(), "INQ folds");
        assert!(tile.closes.len() < stream.closures_at_level(1));
        // Nothing is resident beyond the gather stream, the close records,
        // the outer segments and the level bounds.
        let records = 8 * tile.closes.len() + 12 * tile.segs.len();
        let offsets = 4 * (tile.entry_count() + stream.g());
        assert_eq!(tile.resident_bytes(), offsets + records);

        // A hand-built tile (filter a over filter b, per channel) whose
        // first outer group is one zero-weight innermost group, whose second
        // merges both signs of one magnitude — (2, 3) and (−2, −3) — and
        // ends on a zero-weight group, and whose last is the outer level's
        // own zero group (dropped) under a negated entry. The closes'
        // weights 0 3 5 0 5 telescope to Δw = −3 −2 5 −5 5.
        let taps = vec![1i16, 1, 2, -2, 2, 2, 0, 0, 0, 3, -3, 5, 0, -5];
        let weights = Tensor4::from_vec(2, 7, 1, 1, taps).unwrap();
        let geom = ConvGeom::new(1, 9, 7, 2, 1, 1);
        let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::with_g(2));
        let stream = layer.tiles()[0].stream();
        let tile = FlattenedTile::lower(stream, 0, 0, &geom);
        let close = |plus, minus, dw, keep| Close::new(plus, minus, dw, keep);
        assert_eq!(tile.base, [0, 9, 18, 27, 36, 45, 54]);
        let [c0, c1, c2, c3, c4] = tile.closes[..] else {
            panic!("five closes");
        };
        assert_eq!([c0, c1], [close(2, 0, -3, true), close(1, 1, -2, false)]);
        assert_eq!([c2, c3], [close(1, 0, 5, false), close(1, 0, -5, true)]);
        assert_eq!(c4, close(0, 1, 5, true));
        let seg = |start, end, weight| Segment { start, end, weight };
        assert_eq!(tile.segs, [seg(0, 1, 1), seg(1, 2, 2)]);
        assert_eq!((tile.rows, tile.plane, tile.segment_count()), (4, 1, 5));
        assert_eq!(stream.multiplies(), 7);
        // The band itself is cheaper walked filter by filter (32 against
        // 42): two one-level walks of one tile, each into its own plane.
        let [a, b] = layer.flat_tiles() else {
            panic!("two walks of one tile");
        };
        assert_eq!(a.base, [0, 9, 18, 36, 45, 27]);
        assert_eq!(a.closes, [close(2, 0, -1, false), close(3, 1, 2, false)]);
        assert_eq!(b.base, [18, 27, 36, 54]);
        assert_eq!(b.closes, [close(1, 1, -2, false), close(1, 1, 5, false)]);
        for (plane, walk) in [a, b].into_iter().enumerate() {
            assert_eq!((walk.k_first, walk.g, walk.plane), (0, 2, plane));
            assert_eq!((walk.rows, walk.seg_ptr.len()), (1, 1));
            assert_eq!(walk.segment_count(), 2);
        }
        let mut agen = ActivationGen::new(10);
        for b in [1usize, 9, 32] {
            let inputs: Vec<Tensor3<i16>> = (0..b).map(|_| agen.generate(7, 1, 9)).collect();
            check_bands_against_reference(&layer, &weights, &inputs, "folded zero groups");
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
                let mut rest = total;
                let mut seen_widths = Vec::new();
                while rest > 0 {
                    let w = next_chunk_width(rest, lane);
                    assert!(w == rest || matches!(w, 8 | 16 | MAX_CHUNK), "width {w}");
                    assert!(w <= lane, "width {w} exceeds tier lane {lane}");
                    seen_widths.push(w);
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
        // Both directions over the census domain and the planar oracle: a
        // strip without a kernel is a panic waiting for its geometry, a
        // kernel without a strip is dead code monomorphized three times.
        let emitted: std::collections::BTreeSet<(usize, usize)> = census()
            .flat_map(|(.., runs)| runs)
            .map(|run| (run.width, run.pitch))
            .chain([(1, 1)])
            .collect();
        let table: std::collections::BTreeSet<(usize, usize)> = KERNELS.iter().copied().collect();
        assert_eq!(table.len(), KERNELS.len(), "a kernel is listed twice");
        assert_eq!(KERNELS.len(), 13, "kernels per tier");
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
        let _ = run_flattened(&layer, &Tensor3::filled(4, 5, 5, 1i16));
    }

    #[test]
    #[should_panic(expected = "need at least one execution thread")]
    fn rejects_zero_threads() {
        let geom = ConvGeom::new(4, 4, 2, 2, 3, 3);
        let weights = Tensor4::from_fn(2, 2, 3, 3, |_, _, _, _| 1i16);
        let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::default());
        let _ = run_flattened_batch_interleaved(&layer, &[], 0);
    }
}
