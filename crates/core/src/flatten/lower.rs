//! Lowering: a retained tile's stream becomes the walk the strip kernels
//! execute — gather offsets, close records, outer segments — in an order
//! chosen from counts alone.

use std::ops::Range;

use ucnn_tensor::ConvGeom;

use crate::hierarchy::{DigitSort, GroupStream, NO_CLOSE, ZERO_RANK};
use crate::plan::CompiledTile;

/// The flattened, branch-free form of one walk of a retained tile: per-entry
/// gather offsets, one record per close, CSR-style group ranges per outer
/// level — or, for a **dense** tile, a whole band's weights per pair of
/// channels.
///
/// Built once per plan by `Lowering::lower_band` — lazily, on the
/// first [`CompiledLayer::flat_tiles`](crate::plan::CompiledLayer::flat_tiles)
/// call — then cached; executed by the strip kernels behind
/// [`run_stages`](super::run_stages).
#[derive(Clone, PartialEq, Eq)]
pub struct FlattenedTile {
    /// Absolute output channel of the first filter of the tile's band.
    pub(super) k_first: usize,
    /// Output planes of the band (`G` of the stream) — also for a
    /// single-filter walk of an un-shared band, which adds into one of them.
    pub(super) g: usize,
    /// The band plane the innermost level adds into: the walk's last
    /// filter. Outer level `l` adds into plane `l`. (A dense tile stores
    /// every plane of its band; 0 there.)
    pub(super) plane: usize,
    /// Per entry: offset of its read for output position (0, 0) in the
    /// zero-haloed staged plane (`in_h + 2·pad` values per row), so
    /// `base[i] + stride·(x·(in_h + 2·pad) + y)` is the exact staged index
    /// for output `(x, y)` — in range for every position, halo included.
    pub(super) base: Vec<u32>,
    /// One record per group close, in walk order: every close ends an
    /// innermost group, so the sub-run lengths partition `base`.
    pub(super) closes: Vec<Close>,
    /// Prefix rows phase 1 fills: the zero row plus one per **kept** close
    /// (none on a one-level walk) — or, for a tile walked once, one per
    /// entry. A dense tile fills none, not even the zero row.
    pub(super) rows: usize,
    /// Per outer level `l`: segments `seg_ptr[l]..seg_ptr[l + 1]`.
    pub(super) seg_ptr: Vec<u32>,
    /// The outer-level activation groups that dispatch a multiply, level by
    /// level, each level in walk order — so `end` never decreases within
    /// a level and phase 2 reads the kept rows monotonically.
    pub(super) segs: Vec<Segment>,
    /// A dense tile's weights: per entry of `base` — a pair-tap
    /// `(2c, 2c + 1, r, s)` of the band's channels, its offset counted in
    /// the cells of a plane whose channels are staged in pairs — the band's
    /// filters' packed `(w_2c, w_2c+1)` `i16` pairs (low half first), `g`
    /// rounded up to even per pair-tap (the kernels take filters two at a
    /// time; the last of an odd band is a zero pair). A dense tile has no
    /// closes, rows or segments. `None` on every other walk.
    pub(super) pairs: Option<Vec<i32>>,
    /// Groups of a non-zero weight per walk: `segs` plus the innermost ones;
    /// a dense tile's non-zero weights.
    multiplies: usize,
}

/// The derived form, with `pairs` only on a dense tile: every other tile
/// prints as it did before dense tiles existed (`tests/plan_digest.rs`
/// hashes this form).
impl std::fmt::Debug for FlattenedTile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut tile = f.debug_struct("FlattenedTile");
        tile.field("k_first", &self.k_first)
            .field("g", &self.g)
            .field("plane", &self.plane)
            .field("base", &self.base)
            .field("closes", &self.closes)
            .field("rows", &self.rows)
            .field("seg_ptr", &self.seg_ptr)
            .field("segs", &self.segs);
        if let Some(pairs) = &self.pairs {
            tile.field("pairs", pairs);
        }
        tile.field("multiplies", &self.multiplies).finish()
    }
}

/// One group close. The innermost group that ends here is the `plus +
/// minus` entries since the previous close: the first `plus` enter the
/// running sum as `x`, the rest as `−x` (a sign-folded group holds both
/// signs of one magnitude). The running sum is multiplied where the group
/// closes — by `Δw`, this group's weight less the next one's, because
/// `Σ (R_j − R_{j−1})·w_j = Σ R_j·(w_j − w_{j+1})` with no weight after the
/// last: the kernel never needs the previous close's sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Close {
    pub(super) plus: u16,
    pub(super) minus: u16,
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

    pub(super) fn dw(self) -> i32 {
        self.dw_keep >> 1
    }

    pub(super) fn keep(self) -> bool {
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
pub(super) struct Segment {
    /// The kept row before the group's first entry (the outer close that
    /// precedes it; row 0 at the head of the walk).
    pub(super) start: u32,
    /// The kept row of the group's own close.
    pub(super) end: u32,
    /// The group's (non-zero) key: its weight, negated where the walk is
    /// sign-folded and the entries entered the running sum negated.
    pub(super) weight: i32,
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
/// the key alphabet of its canonical order, its tiles' offsets, its taps
/// per channel (`R·S`).
struct Layer {
    once: bool,
    keys: FoldKeys,
    offsets: TileOffsets,
    taps: usize,
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
    /// Vector instructions per 16 lanes, fitted to the shared strip body of
    /// docs/LAB.md § `fused` / § `order`: an entry a widening load and an
    /// add, a close block a multiply, an add and the run loops' exits, a
    /// kept row a store, an outer segment two row loads, a subtract, a
    /// multiply and an add. `vnni_body` (the `avx512` strips of ≥ 32 lanes)
    /// adds an entry in one `vpdpwssd`, which they do not price: ROADMAP
    /// item 14(a) refits them. The one place the constants of the un-share
    /// rule ([`Lowering::lower_band`]) live.
    fn cost(&self) -> usize {
        2 * self.entries + 3 * self.closes + self.kept + 5 * self.segs
    }

    /// What a dense tile of `taps` pair-taps over `g` filters costs in the
    /// same units: per pair-tap one load of 16 lanes' channel pairs, and one
    /// multiply-add of both channels per filter (`pmaddwd` / `vpdpwssd`).
    fn dense(taps: usize, g: usize) -> usize {
        taps * (1 + g)
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
            pairs: None,
        }
    }
}

/// A band's weights per pair-tap `(2c, 2c + 1, r, s)` over the pairs of
/// channels its tiles span: what its dense tile is cut from.
#[derive(Default)]
struct DenseTable {
    /// The absolute index of the band's first pair of channels.
    first_pair: usize,
    /// Packed pairs per pair-tap `(pair − first_pair) · R·S + r·S + s`, the
    /// band's `g` rounded up to even per pair-tap: the layout of
    /// [`FlattenedTile::pairs`].
    packed: Vec<u32>,
    /// Pair-taps with a non-zero weight.
    taps: usize,
    /// Non-zero weights.
    weights: usize,
}

impl DenseTable {
    /// Tabulates `band`, whose filters' streams are `g` wide.
    fn fill(&mut self, band: &[CompiledTile], g: usize, layer: &Layer) {
        let (rs, per_tap) = (layer.taps, g.next_multiple_of(2));
        let last = band.last().expect("a band has a tile");
        let end = last.c_first() + last.stream().tile_len() / rs;
        self.first_pair = band[0].c_first() / 2;
        self.packed.clear();
        self.packed
            .resize((end.div_ceil(2) - self.first_pair) * rs * per_tap, 0);
        self.weights = 0;
        for tile in band {
            let stream = tile.stream();
            let (indices, ranks, _) = stream.columns();
            for (&index, ranks) in indices.iter().zip(ranks.chunks_exact(g)) {
                let (c, tap) = (tile.c_first() + index as usize / rs, index as usize % rs);
                let at = ((c / 2 - self.first_pair) * rs + tap) * per_tap;
                let shift = 16 * (c % 2);
                for (slot, &rank) in self.packed[at..].iter_mut().zip(ranks) {
                    if rank != ZERO_RANK {
                        let w = stream.canonical()[usize::from(rank)];
                        *slot |= u32::from(w as u16) << shift;
                        self.weights += 1;
                    }
                }
            }
        }
        let held = |pairs: &&[u32]| pairs.iter().any(|&pair| pair != 0);
        self.taps = self.packed.chunks_exact(per_tap).filter(held).count();
    }

    /// The dense tile of the band of `g` filters from `k_first`: its
    /// pair-taps that hold a weight, ascending.
    fn lower(&self, k_first: usize, g: usize, layer: &Layer) -> FlattenedTile {
        let (rs, per_tap) = (layer.taps, g.next_multiple_of(2));
        let TileOffsets { of, channel } = &layer.offsets;
        let (mut base, mut pairs) = (Vec::with_capacity(self.taps), Vec::new());
        pairs.reserve_exact(self.taps * per_tap);
        for (at, packed) in self.packed.chunks_exact(per_tap).enumerate() {
            if packed.iter().all(|&pair| pair == 0) {
                continue;
            }
            let offset = (self.first_pair + at / rs) * channel + of[at % rs] as usize;
            base.push(u32::try_from(offset).expect("input offset fits u32"));
            pairs.extend(packed.iter().map(|&pair| pair as i32));
        }
        FlattenedTile {
            k_first,
            g,
            plane: 0,
            base,
            closes: Vec::new(),
            rows: 0,
            seg_ptr: Vec::new(),
            segs: Vec::new(),
            pairs: Some(pairs),
            multiplies: self.weights,
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

/// Lowers a layer's tiles — emitted band by band, the longest tile first
/// — band by band ([`Lowering::lower_band`]).
///
/// A layer's input has one staged layout, and a dense tile reads it with
/// its channels in pairs, so a layer is dense in every band or in none:
/// lowering starts dense (unless its tiles are walked once or its bands are
/// one filter wide) and, at the first band of several filters that declines
/// the dense tile, lowers the bands before it again, as they would be in a
/// layer without dense tiles.
pub(crate) fn lower_layer(tiles: &[CompiledTile], geom: &ConvGeom) -> Vec<FlattenedTile> {
    let mut lowering = Lowering::new(tiles[0].stream(), geom);
    let bands: Vec<_> = tiles.chunk_by(|a, b| a.k_first() == b.k_first()).collect();
    let mut flat = Vec::with_capacity(tiles.len());
    let mut dense = !lowering.layer.once && tiles[0].stream().g() > 1;
    for (at, band) in bands.iter().enumerate() {
        let lowered = flat.len();
        if !lowering.lower_band(band, dense, &mut flat) && dense {
            dense = false;
            let declined = flat.split_off(lowered);
            flat.clear();
            for band in &bands[..at] {
                lowering.lower_band(band, false, &mut flat);
            }
            flat.extend(declined);
        }
    }
    flat
}

/// Lowers every band of a layer as one dense tile — walked-once layers and
/// one-filter bands too — whatever [`lower_layer`] would elect: the
/// same-datapath dense yardstick the elected lowering is timed against.
pub(crate) fn lower_dense(tiles: &[CompiledTile], geom: &ConvGeom) -> Vec<FlattenedTile> {
    let Lowering {
        layer, mut table, ..
    } = Lowering::new(tiles[0].stream(), geom);
    let bands = tiles.chunk_by(|a, b| a.k_first() == b.k_first());
    let dense = |band: &[CompiledTile]| {
        let (k_first, g) = (band[0].k_first(), band[0].stream().g());
        table.fill(band, g, &layer);
        table.lower(k_first, g, &layer)
    };
    bands.map(dense).collect()
}

/// One layer's lowering: what its walks share, made once, and every buffer a
/// tile is read, ordered and counted in, reused from tile to tile — a
/// lowered tile allocates its own `base`, `closes`, `seg_ptr` and `segs`
/// (or `base` and `pairs`) and nothing else.
struct Lowering {
    layer: Layer,
    sort: DigitSort,
    /// [`Source::apart_counts`]' scratch.
    seen: Vec<bool>,
    /// As many as the longest band so far has tiles.
    band: Vec<BandTile>,
    /// The one-filter walk in hand, of a band walked filter by filter.
    single: Walk,
    /// The band in hand as a dense tile would hold it.
    table: DenseTable,
}

impl Lowering {
    /// The lowering of a layer of `geom` whose longest tile — any but the
    /// last channel tile of a band — is `longest`.
    fn new(longest: &GroupStream, geom: &ConvGeom) -> Self {
        Self {
            layer: Layer {
                once: walked_once(geom),
                keys: FoldKeys::new(longest.canonical()),
                offsets: TileOffsets::new(longest.tile_len(), geom),
                taps: geom.r() * geom.s(),
            },
            sort: DigitSort::default(),
            seen: Vec::new(),
            band: Vec::new(),
            single: Walk::default(),
            table: DenseTable::default(),
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
    /// In a `dense` layer ([`lower_layer`]) a band that un-shares is one
    /// dense tile over all of its channels instead, where that costs less
    /// than its walks apart ([`WalkCounts::dense`]); a band of one filter
    /// (a ragged last band) follows its layer. Returns whether the band was
    /// lowered dense: never outside a dense layer.
    ///
    /// # Panics
    ///
    /// Panics if `band` is empty.
    fn lower_band(
        &mut self,
        band: &[CompiledTile],
        dense: bool,
        out: &mut Vec<FlattenedTile>,
    ) -> bool {
        let (k_first, g, layer) = (band[0].k_first(), band[0].stream().g(), &self.layer);
        if self.band.len() < band.len() {
            self.band.resize_with(band.len(), BandTile::default);
        }
        let tiles = &mut self.band[..band.len()];
        for (tile, read) in band.iter().zip(tiles.iter_mut()) {
            read.read(tile.stream(), tile.c_first(), layer, &mut self.sort);
        }
        // What the band's walks apart cost, where that is less than sharing.
        let apart = (!layer.once && g > 1).then(|| {
            let apart = |(tile, read): (&CompiledTile, &BandTile)| {
                let seen = &mut self.seen;
                read.source.apart_counts(tile.stream(), &layer.keys, seen)
            };
            let split: WalkCounts = band.iter().zip(tiles.iter()).map(apart).sum();
            let together: WalkCounts = tiles.iter().map(|tile| tile.shared().counts).sum();
            Some(split.cost()).filter(|&split| split < together.cost())
        });
        let apart = apart.flatten();
        if dense && (g == 1 || apart.is_some()) {
            self.table.fill(band, g, layer);
            let cost = WalkCounts::dense(self.table.taps, g);
            if apart.is_none_or(|apart| cost < apart) {
                out.push(self.table.lower(k_first, g, layer));
                return true;
            }
        }
        for (tile, read) in band.iter().zip(tiles.iter()) {
            let mut lower = |walk: &Walk| {
                out.push(walk.lower(tile.stream(), &read.source, k_first, layer));
            };
            if apart.is_some() {
                for f in 0..g {
                    let single = &mut self.single;
                    single.fold(&read.source, f..f + 1, layer.keys.zero(), &mut self.sort);
                    lower(single);
                }
            } else {
                lower(read.shared());
            }
        }
        false
    }
}

impl FlattenedTile {
    /// Gathers per output position: the stream entries the walk retains —
    /// or, for a dense tile, its pair-taps, each one gather the band's
    /// filters share.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.base.len()
    }

    /// Multiplies per output position. A walk issues one per group of a
    /// non-zero weight: outer segments plus the innermost groups whose `|w|`
    /// is not zero — at most the stream's
    /// [`multiplies`](GroupStream::multiplies), fewer where folding merged
    /// groups or the band is walked filter by filter. (The kernel multiplies
    /// at every close, by `Δw`; that is executed, not counted.) A dense tile
    /// issues one per non-zero weight of its band.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.multiplies
    }

    /// Bytes of heap the lowered tile keeps resident: 4 per entry (gather
    /// offset), 8 per close, 12 per outer segment, 4 per level bound, and 4
    /// per packed pair of a dense tile.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        4 * (self.base.len() + self.seg_ptr.len() + self.pairs.as_ref().map_or(0, Vec::len))
            + std::mem::size_of_val(&self.closes[..])
            + std::mem::size_of_val(&self.segs[..])
    }

    /// Whether this is a band's dense tile, which reads its input with the
    /// channels staged in pairs.
    pub(super) fn is_dense(&self) -> bool {
        self.pairs.is_some()
    }
}

/// Whether a layer's tiles are walked once per chunk (one output position):
/// the predictor never sees a tile's run lengths twice (FC up to 2.6× slower), so
/// such a tile keeps a row per entry and no trip count depends on a run.
pub(crate) fn walked_once(geom: &ConvGeom) -> bool {
    geom.out_w() * geom.out_h() == 1
}

#[cfg(test)]
pub(super) mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::compile::UcnnConfig;
    use crate::flatten::oracle::check_layer;
    use crate::flatten::run_layer;
    use crate::plan::CompiledLayer;
    use crate::simd::SimdCaps;
    use ucnn_model::{reference, ActivationGen, QuantScheme, WeightGen};
    use ucnn_tensor::{Tensor3, Tensor4};

    /// Lowers one retained stream as one `G`-level walk: sign-folded where
    /// that issues no more closes + outer segments, in stream order
    /// otherwise. `k_first`/`c_first` are the tile's absolute filter and
    /// channel bases (as in [`CompiledTile`]).
    fn lower_shared(
        stream: &GroupStream,
        k_first: usize,
        c_first: usize,
        geom: &ConvGeom,
    ) -> FlattenedTile {
        let mut lowering = Lowering::new(stream, geom);
        let mut tile = BandTile::default();
        tile.read(stream, c_first, &lowering.layer, &mut lowering.sort);
        let walk = tile.shared();
        walk.lower(stream, &tile.source, k_first, &lowering.layer)
    }

    /// Lowers `layer` band by band as a layer without dense tiles is: its
    /// walks, whatever its bands would elect.
    fn lower_walks(layer: &CompiledLayer) -> Vec<FlattenedTile> {
        let mut lowering = Lowering::new(layer.tiles()[0].stream(), layer.geom());
        let mut walks = Vec::new();
        for band in layer.tiles().chunk_by(|a, b| a.k_first() == b.k_first()) {
            lowering.lower_band(band, false, &mut walks);
        }
        walks
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
            for flat in &lower_walks(&layer) {
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

    /// Checks the lowering of `layer` against its streams, band by band:
    /// each walk reads a permutation of the entries where its filters hold a
    /// weight, folding adds no closes + outer segments to the stream's own,
    /// the cheap count of the one-filter walks is what ordering them gives,
    /// and the band took the cheaper walk (a tie keeps the hierarchy). A
    /// dense tile holds its band's weights per pair-tap, tabulated here from
    /// the streams, and a layer is dense in every band or none: in all of
    /// them where no band of several filters declines the dense tile (it
    /// does not un-share, or the tile costs no less than its walks apart),
    /// and only then. Returns the kinds of walk it met: "walked once",
    /// "shared" (one walk of several filters), "filter by filter" and
    /// "dense".
    pub(in crate::flatten) fn check_lowering(
        layer: &CompiledLayer,
        what: &str,
    ) -> BTreeSet<&'static str> {
        let geom = layer.geom();
        let once = walked_once(geom);
        let (s, rs) = (geom.s(), geom.r() * geom.s());
        let (pw, ph) = (geom.in_w() + 2 * geom.pad(), geom.in_h() + 2 * geom.pad());
        let dense = layer.flat_tiles()[0].is_dense();
        let mut kinds = BTreeSet::new();
        let mut flat = layer.flat_tiles().iter();
        let mut declined = false;
        let bands: Vec<_> = layer
            .tiles()
            .chunk_by(|a, b| a.k_first() == b.k_first())
            .collect();
        for band in &bands {
            let (k_first, levels) = (band[0].k_first(), band[0].stream().g());
            let walks: Vec<_> = flat.clone().take_while(|t| t.k_first == k_first).collect();
            flat.nth(walks.len() - 1);
            let same = walks.iter().all(|walk| walk.is_dense() == dense);
            assert!(same, "{what}: a layer is dense in every band or none");
            let apart = !dense && walks.len() == levels * band.len() && levels > 1;
            assert!(
                apart || walks.len() == if dense { 1 } else { band.len() },
                "{what}: a walk per tile or filter, or a dense tile per band"
            );
            kinds.extend(match (once, dense, apart) {
                (true, ..) => Some("walked once"),
                (_, true, _) => Some("dense"),
                (_, _, true) => Some("filter by filter"),
                _ => (levels > 1).then_some("shared"),
            });
            // The band's weights per pair-tap, packed `g` rounded up to even
            // per pair-tap, and how many are not zero.
            let mut table: BTreeMap<(usize, usize), Vec<u32>> = BTreeMap::new();
            let mut weights = 0;
            for tile in *band {
                let stream = tile.stream();
                for e in stream.entries() {
                    let (c, tap) = (
                        tile.c_first() + e.index as usize / rs,
                        e.index as usize % rs,
                    );
                    for (f, &rank) in e.ranks.iter().enumerate().filter(|(_, &r)| r != ZERO_RANK) {
                        let w = stream.canonical()[usize::from(rank)] as u16;
                        let pairs = table.entry((c / 2, tap)).or_default();
                        pairs.resize(levels.next_multiple_of(2), 0);
                        pairs[f] |= u32::from(w) << (16 * (c % 2));
                        weights += 1;
                    }
                }
            }
            let mut costs = [WalkCounts::default(); 3];
            if dense {
                let [walk] = &walks[..] else {
                    unreachable!("one dense tile")
                };
                let offsets = table
                    .keys()
                    .map(|&(pair, tap)| ((pair * pw + tap / s) * ph + tap % s) as u32);
                assert_eq!(walk.base, offsets.collect::<Vec<_>>(), "{what}: pair-taps");
                let pairs = table.values().flatten().map(|&pair| pair as i32);
                assert_eq!(walk.pairs, Some(pairs.collect()), "{what}: packed pairs");
                assert_eq!(walk.segment_count(), weights, "{what}: the band's weights");
                assert_eq!((walk.g, walk.rows), (levels, 0), "{what}");
                assert!(walk.closes.is_empty() && walk.segs.is_empty(), "{what}");
            }
            for (ti, tile) in band.iter().enumerate() {
                let stream = tile.stream();
                // The offsets of the entries where `filters` hold a weight.
                let offsets = |filters: Range<usize>| {
                    let walked = stream
                        .entries()
                        .filter(|e| e.ranks[filters.clone()].iter().any(|&r| r != ZERO_RANK));
                    let mut offsets: Vec<u32> = walked
                        .map(|e| {
                            let (c, tap) = (e.index as usize / rs, e.index as usize % rs);
                            (((tile.c_first() + c) * pw + tap / s) * ph + tap % s) as u32
                        })
                        .collect();
                    offsets.sort_unstable();
                    offsets
                };
                let per_tile = walks.len() / band.len();
                let walks = if dense {
                    &[][..]
                } else {
                    &walks[ti * per_tile..][..per_tile]
                };
                for (f, walk) in walks.iter().enumerate() {
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
                let shared = lower_shared(stream, k_first, tile.c_first(), geom);
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
                } = Lowering::new(stream, geom);
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
            // The band took the cheaper walk; a tie keeps the hierarchy, and
            // a tile walked once keeps the stream's. Of a band that
            // un-shares, the dense tile is the cheaper walk where it costs
            // less than the walks apart.
            let [lowered, shared, split] = costs.map(|c| c.cost());
            let un_shares = !once && levels > 1 && split < shared;
            let elects = un_shares && WalkCounts::dense(table.len(), levels) < split;
            if dense {
                assert!(levels == 1 || elects, "{what}: the dense rule");
            } else {
                assert_eq!(apart, un_shares, "{what}: the un-share rule");
                assert_eq!(lowered, if apart { split } else { shared }, "{what}");
                declined |= levels > 1 && !elects;
            }
        }
        let one_wide = bands[0][0].stream().g() == 1;
        assert!(
            dense || once || one_wide || declined,
            "{what}: no band declined the dense tile"
        );
        kinds
    }

    #[test]
    fn the_order_is_free_the_sum_is_not() {
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
                let expected = reference::conv2d(&geom, 1, &input, &weights);
                let got = run_layer(&layer, &[input], SimdCaps::get().best());
                assert_eq!(got, [expected], "{geom:?}, flip {flip}");
            }
        }
    }

    #[test]
    fn all_zero_tile_lowers_to_zero_work() {
        let stream = GroupStream::build(&[&[0i16; 9][..], &[0i16; 9][..]]);
        let geom = ConvGeom::new(5, 5, 1, 2, 3, 3);
        let tile = lower_shared(&stream, 0, 0, &geom);
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
        let tile = lower_shared(&stream, 0, 0, &geom);
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
        let tile = lower_shared(stream, 0, 0, &geom);
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
        let walks = lower_walks(&layer);
        let [a, b] = &walks[..] else {
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
        // Cheaper still is one dense tile (12): four pair-taps of the
        // channels (0, 1) … (6, zero), each one load for both filters' pairs
        // (filter a's, then b's), multiplying the band's ten weights.
        let [dense] = layer.flat_tiles() else {
            panic!("one dense tile");
        };
        let pair = |lo: i16, hi: i16| i32::from(lo as u16) | i32::from(hi) << 16;
        assert_eq!(dense.base, [0, 9, 18, 27]);
        let pairs = [
            (1, 1),
            (0, 0),
            (2, -2),
            (3, -3),
            (2, 2),
            (5, 0),
            (0, 0),
            (-5, 0),
        ];
        let pairs: Vec<i32> = pairs.into_iter().map(|(lo, hi)| pair(lo, hi)).collect();
        assert_eq!(dense.pairs.as_deref(), Some(&pairs[..]));
        assert_eq!((dense.g, dense.segment_count()), (2, 10));
        let mut agen = ActivationGen::new(10);
        for b in [1usize, 9, 32] {
            let inputs: Vec<Tensor3<i16>> = (0..b).map(|_| agen.generate(7, 1, 9)).collect();
            check_layer(&layer, &weights, &inputs, "folded zero groups");
        }
    }
}
