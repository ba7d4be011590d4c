//! Lowering: a retained tile's stream becomes the walk the strip kernels
//! execute — gather offsets, close records, outer segments — in an order
//! chosen from counts alone, or a layer's weights become its dense tiles,
//! whichever costs less.
//!
//! A layer's walks are read by one [`Lowering`], a tile at a time: the
//! tile's stream is cut once into its innermost groups, and each of its
//! two walks — the stream's own order and the sign-folded one — is a key
//! tuple per group, in walk order, from which one rule, [`close_levels`],
//! derives where the walk closes and what it issues.

use std::ops::Range;

use ucnn_tensor::ConvGeom;

use crate::hierarchy::{DigitSort, GroupStream, NO_CLOSE, ZERO_RANK};
use crate::plan::CompiledLayer;

/// The flattened, branch-free form of one walk of a retained tile: per-entry
/// gather offsets, one record per close, CSR-style group ranges per outer
/// level — or, for a **dense** tile, two filters' weights per pair of
/// channels.
///
/// Built once per plan by `lower_layer` — lazily, on the first
/// [`CompiledLayer::flat_tiles`] call — then cached; executed by the strip
/// kernels behind [`run_stages`](super::run_stages).
#[derive(Clone, PartialEq, Eq)]
pub struct FlattenedTile {
    /// Absolute output channel of the first filter of the tile's band.
    pub(super) k_first: usize,
    /// Output planes of the band: a walk's `G` of the stream, its level `l`
    /// adding into plane `l` and its innermost level into plane `g − 1`; a
    /// dense tile's filters, two or a conv group's last odd one, whatever
    /// `G` is, each stored into its own plane.
    pub(super) g: usize,
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
    /// `(2c, 2c + 1, r, s)` of its conv group's channels, its offset
    /// counted in the cells of a plane whose channels are staged in pairs —
    /// its two filters' packed `(w_2c, w_2c+1)` `i16` pairs (low half
    /// first), a zero pair after a lone filter: the kernels take both in
    /// one pass. A dense tile has no closes, rows or segments. `None` on
    /// every other walk.
    pub(super) pairs: Option<Vec<i32>>,
    /// Groups of a non-zero weight per walk: `segs` plus the innermost ones;
    /// a dense tile's non-zero weights.
    multiplies: usize,
}

/// The derived form, with `pairs` only on a dense tile and the plane the
/// innermost level adds into (`g − 1`, a dense tile's 0) spelled out: every
/// tile prints as it did when walks could add into any plane
/// (`tests/plan_digest.rs` hashes this form).
impl std::fmt::Debug for FlattenedTile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let plane = if self.is_dense() { 0 } else { self.g - 1 };
        let mut tile = f.debug_struct("FlattenedTile");
        tile.field("k_first", &self.k_first)
            .field("g", &self.g)
            .field("plane", &plane)
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
    /// Vector instructions per 16 lanes of a walk of a tile walked `once`
    /// or not. With [`WalkCounts::dense`], the one place the constants of
    /// the walk-or-dense election ([`lower_layer`], summed over a layer's
    /// walks) live.
    ///
    /// A walk of several positions runs the shared strip body of
    /// docs/LAB.md § `fused` / § `order`: an entry a widening load and an
    /// add, a close block a multiply, an add and the run loops' exits, a
    /// kept row a store, an outer segment two row loads, a subtract, a
    /// multiply and an add. `vnni_body` (the `avx512` strips of ≥ 32 lanes)
    /// adds an entry in one `vpdpwssd`, which they do not price: ROADMAP
    /// item 14(a) refits them.
    ///
    /// A tile walked once runs the flat walk: an entry a gather and a row
    /// store, a close a row load and a multiply-add, an outer segment two
    /// row loads; its rows are the entries', so a kept row costs nothing
    /// more. Two each, fitted to the timed walks and dense tiles of
    /// fully connected layers on the best tier (docs/LAB.md Part 26).
    fn cost(&self, once: bool) -> usize {
        if once {
            2 * (self.entries + self.closes + self.segs)
        } else {
            2 * self.entries + 3 * self.closes + self.kept + 5 * self.segs
        }
    }

    /// What a dense tile of `taps` pair-taps over its `g` filters (two, or
    /// a group's last odd one) costs in the same units, summed over a
    /// layer's dense tiles by [`lower_layer`]: per pair-tap one load of 16
    /// lanes' channel pairs, and one multiply-add of both channels per
    /// filter (`pmaddwd` / `vpdpwssd`) — the kernels' one pass over the
    /// tile. (The intrinsic bodies multiply a lone filter's zero pair too,
    /// unpriced.)
    fn dense(taps: usize, g: usize) -> usize {
        taps * (1 + g)
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
    // Only an innermost key holds `MINUS`, and no level compares it.
    let differs = |(a, b): (&u32, &u32)| (a ^ b) & !MINUS != 0;
    let mut rows = keys.chunks_exact(levels).peekable();
    for close in closes {
        let here = rows.next().expect("a row per group");
        let level = match rows.peek() {
            None => Some(0),
            Some(next) => here.iter().zip(*next).position(differs),
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

/// One way of walking a retained tile, before it is lowered: which of the
/// stream's innermost groups, in which order, under which keys.
///
/// Lane sums are wrapping `i32` — a ring — so any order and any grouping
/// that keeps `Σ x·w` per filter gives bit-identical outputs. A **folded**
/// walk adds an entry as `s·x` with `s` the sign of its innermost weight,
/// groups the innermost level by `|w|` and outer level `l` by `w_l·s`
/// (`x·w_l = (s·x)·(w_l·s)`): `(w_a, w_b)` and `(−w_a, −w_b)` become one
/// group, a plus sub-run then a minus sub-run.
#[derive(Default)]
struct Walk {
    /// The walked innermost groups of the stream, in walk order.
    order: Vec<u32>,
    /// Per walked group, in walk order, what groups it at each level: the
    /// digit of the key `w·s`, at the innermost level with [`MINUS`] set
    /// where the group's entries enter the running sum negated (`s = −1`).
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
    /// Makes this the folded walk of the `levels` filters of `streamed`, the
    /// stream's own walk: its groups sorted by folded keys, then sign (the
    /// plus sub-run of a key before its minus sub-run), then stream order.
    /// It walks every group — a stream holds no position where every filter
    /// is zero — so it reads the stream's entries.
    fn fold(&mut self, streamed: &Walk, levels: usize, zero: u32, sort: &mut DigitSort) {
        let inner = levels - 1;
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
        for digits in streamed.keys.chunks_exact(levels) {
            // The zero weight's digit is even: it folds under `s = +1`.
            let minus = digits[inner] & 1;
            let key = |&digit: &u32| if digit == zero { zero } else { digit ^ minus };
            let at = unsorted.len();
            unsorted.extend(digits[..inner].iter().map(key));
            unsorted.push(key(&digits[inner]) | (minus * MINUS));
            for (level, &key) in unsorted[at..].iter().enumerate() {
                counts[level * buckets + bucket(key, level)] += 1;
            }
        }
        self.order.clone_from(&streamed.order);
        sort.sort(&mut self.order, |group, level| {
            bucket(unsorted[group as usize * levels + level], level)
        });
        self.keys.clear();
        for &group in &self.order {
            self.keys
                .extend_from_slice(&unsorted[group as usize * levels..][..levels]);
        }
        self.counts = close_levels(&self.keys, levels, zero, &mut self.closes);
        self.counts.entries = streamed.counts.entries;
    }
}

/// Lowers a layer as its walks — each tile's shared walk, in the order of
/// [`CompiledLayer::tiles`] — or as its dense tiles ([`lower_dense`]),
/// whichever costs less, from counts alone: the dense tiles'
/// [`WalkCounts::dense`] against the walks' [`WalkCounts::cost`], each
/// summed over the layer, a tie keeping the walks. A layer's input has one
/// staged layout, and a dense tile reads it with its channels in pairs, so
/// a layer is one or the other whole. Every layer is elected so, a layer
/// [`walked_once`] (a fully connected one) too, its walks priced by the
/// flat walk's terms.
///
/// The dense tiles are priced from the layer's weights, and so is a lower
/// bound on the walks' cost ([`walk_bound`]): a layer whose bound already
/// exceeds its dense tiles' price is its dense tiles, and neither reads
/// nor builds a stream. Otherwise each tile's stream is built, read,
/// priced, lowered and dropped in turn, and lowering stops at the first
/// tile that takes the walks' cost past the dense tiles': no tile is read
/// twice, no stream outlives its tile's walk, and a layer whose walks win
/// builds no dense tile. The walks cost at least the bound, so the bound
/// decides no layer the full read would not.
pub(crate) fn lower_layer(layer: &CompiledLayer) -> Vec<FlattenedTile> {
    let dense = PairTaps::of(layer);
    let price = dense.price();
    if walk_bound(layer) > price {
        return dense.tiles();
    }
    walks_within(layer, price).unwrap_or_else(|| dense.tiles())
}

/// The layer's walks, each tile's stream built, read, priced and lowered
/// in turn and then dropped, or `None` at the first tile that takes their
/// summed [`WalkCounts::cost`] past `budget` — so no stream of the layer is
/// sorted past that tile.
fn walks_within(layer: &CompiledLayer, budget: usize) -> Option<Vec<FlattenedTile>> {
    let mut tiles = layer.streams().peekable();
    let longest = tiles.peek().expect("a layer has a tile").stream();
    let mut lowering = Lowering::new(longest, layer.geom());
    let (mut walks, mut cost) = (Vec::with_capacity(layer.tile_spans().count()), 0);
    for tile in tiles {
        let counts = lowering.read(tile.stream(), tile.c_first());
        cost += counts.cost(lowering.once);
        if cost > budget {
            return None;
        }
        walks.push(lowering.lower(tile.stream(), tile.k_first()));
    }
    Some(walks)
}

/// A lower bound on the summed [`WalkCounts::cost`] of a layer's walks,
/// from its weights alone, under the terms its walks are priced by: each
/// tile's walk reads every position where a filter of its band has a
/// weight — its stream's entries, which folding keeps — and closes at
/// least once if it reads any.
fn walk_bound(layer: &CompiledLayer) -> usize {
    let once = walked_once(layer.geom());
    let rs = layer.geom().r() * layer.geom().s();
    let mut held = Vec::new();
    let mut bound = |(ks, cs, _): (Range<usize>, Range<usize>, usize)| {
        let taps = cs.start * rs..cs.end * rs;
        held.clear();
        held.resize(taps.len(), false);
        for k in ks {
            let weights = &layer.filter(k)[taps.clone()];
            held.iter_mut()
                .zip(weights)
                .for_each(|(h, &w)| *h |= w != 0);
        }
        let entries = held.iter().filter(|&&h| h).count();
        let closes = usize::from(entries > 0);
        WalkCounts {
            entries,
            closes,
            ..WalkCounts::default()
        }
        .cost(once)
    };
    layer.tile_spans().map(&mut bound).sum()
}

/// Lowers a layer as its dense tiles, whatever [`lower_layer`] elects: the
/// election's dense side — of every layer, one walked once too — and the
/// same-datapath dense yardstick the elected lowering is timed against.
pub(crate) fn lower_dense(layer: &CompiledLayer) -> Vec<FlattenedTile> {
    PairTaps::of(layer).tiles()
}

/// A layer's dense tiles as one table, filled from its weights. Each conv
/// group's filters are cut into tiles of two, the last of an odd group
/// alone, so no tile spans a group and `G` does not enter. A tile holds,
/// per pair-tap `(2c, 2c + 1, r, s)` of its group's channels — a group's
/// `C` channels span `⌈C/2⌉` pairs from pair `⌊cg·C/2⌋`, whichever channel
/// it starts at — both filters' packed pairs (a zero pair after a lone
/// filter); a pair-tap where neither filter has a weight is not lowered.
struct PairTaps {
    geom: ConvGeom,
    conv_groups: usize,
    /// Per tile, `span` pair-taps in ascending order, each its first
    /// filter's packed pair in the low half and its second's in the high.
    rows: Vec<u64>,
    span: usize,
    /// Per tile, its filters' non-zero weights.
    weights: Vec<usize>,
}

impl PairTaps {
    fn of(layer: &CompiledLayer) -> Self {
        let (geom, conv_groups) = (*layer.geom(), layer.conv_groups());
        let (c_dim, k_group, rs) = (geom.c(), geom.k() / conv_groups, geom.r() * geom.s());
        let (per_group, span) = (k_group.div_ceil(2), c_dim.div_ceil(2) * rs);
        let mut rows = vec![0u64; conv_groups * per_group * span];
        let mut weights = vec![0; conv_groups * per_group];
        for k in 0..geom.k() {
            let (cg, kg) = (k / k_group, k % k_group);
            let t = cg * per_group + kg / 2;
            let filter = layer.filter(k);
            weights[t] += filter.iter().filter(|&&w| w != 0).count();
            let pack = |lo: i16, hi: i16| {
                (u64::from(lo as u16) | u64::from(hi as u16) << 16) << (32 * (kg % 2))
            };
            // Channel `c` is the `c % 2` half of its pair's row, both
            // channels of a pair packed in one pass: a group's odd first
            // channel is the high half of its first row alone, an odd last
            // channel the low half of its last.
            let mut pair_rows = rows[t * span..][..span].chunks_exact_mut(rs);
            let (lead, rest) = filter.split_at(rs * (cg * c_dim % 2));
            let pairs = rest.chunks_exact(2 * rs);
            let last = pairs.remainder();
            if !lead.is_empty() {
                let row = pair_rows.next().expect("a row per pair");
                for (row, &hi) in row.iter_mut().zip(lead) {
                    *row |= pack(0, hi);
                }
            }
            // `pairs` leads, so the zip ends without taking the last row.
            for (pair, row) in pairs.zip(&mut pair_rows) {
                let (low, high) = pair.split_at(rs);
                for ((row, &lo), &hi) in row.iter_mut().zip(low).zip(high) {
                    *row |= pack(lo, hi);
                }
            }
            if let Some(row) = pair_rows.next() {
                for (row, &lo) in row.iter_mut().zip(last) {
                    *row |= pack(lo, 0);
                }
            }
        }
        Self {
            geom,
            conv_groups,
            rows,
            span,
            weights,
        }
    }

    /// Per tile, `(k_first, g, rows)`.
    fn each(&self) -> impl Iterator<Item = (usize, usize, &[u64])> + '_ {
        let k_group = self.geom.k() / self.conv_groups;
        let per_group = k_group.div_ceil(2);
        let tiles = self.rows.chunks_exact(self.span).enumerate();
        tiles.map(move |(t, rows)| {
            let (cg, k) = (t / per_group, 2 * (t % per_group));
            (cg * k_group + k, (k_group - k).min(2), rows)
        })
    }

    /// The pair-taps of a tile's `rows` where either filter has a weight.
    fn taps(rows: &[u64]) -> usize {
        rows.iter().filter(|&&pair| pair != 0).count()
    }

    /// The tiles' summed [`WalkCounts::dense`], counted from the table.
    fn price(&self) -> usize {
        let price = |(_, g, rows)| WalkCounts::dense(Self::taps(rows), g);
        self.each().map(price).sum()
    }

    /// The dense tiles.
    fn tiles(&self) -> Vec<FlattenedTile> {
        let geom = &self.geom;
        let (rs, s, ph) = (geom.r() * geom.s(), geom.s(), geom.in_h() + 2 * geom.pad());
        let channel = (geom.in_w() + 2 * geom.pad()) * ph;
        let k_group = geom.k() / self.conv_groups;
        // Per tap, its offset within a staged channel.
        let offsets: Vec<usize> = (0..rs).map(|tap| tap / s * ph + tap % s).collect();
        let tile = |((k_first, g, rows), &multiplies): ((usize, usize, &[u64]), &usize)| {
            let taps = Self::taps(rows);
            let (mut base, mut pairs) = (Vec::with_capacity(taps), Vec::with_capacity(2 * taps));
            let first_pair = k_first / k_group * geom.c() / 2;
            for (at, rows) in (first_pair..).zip(rows.chunks_exact(rs)) {
                for (&offset, &pair) in offsets.iter().zip(rows) {
                    if pair != 0 {
                        let offset = at * channel + offset;
                        base.push(u32::try_from(offset).expect("input offset fits u32"));
                        pairs.extend([pair as u32 as i32, (pair >> 32) as u32 as i32]);
                    }
                }
            }
            FlattenedTile {
                k_first,
                g,
                base,
                closes: Vec::new(),
                rows: 0,
                seg_ptr: Vec::new(),
                segs: Vec::new(),
                pairs: Some(pairs),
                multiplies,
            }
        };
        self.each().zip(&self.weights).map(tile).collect()
    }
}

/// One layer's lowering of its walks: what they share — whether its tiles
/// are [`walked_once`], the key alphabet of its canonical order, its tiles'
/// offsets — made once, and the tile in hand, read into buffers reused from
/// tile to tile: a lowered walk allocates its own `base`, `closes`,
/// `seg_ptr` and `segs` and nothing else.
///
/// A tile is read as its stream's innermost groups — the runs between
/// closes, whose entries share every weight and ascend by position — which
/// are what a walk orders. Both of its walks, the stream's own and the
/// folded one, are counted by one rule, [`close_levels`].
struct Lowering {
    once: bool,
    keys: FoldKeys,
    offsets: TileOffsets,
    sort: DigitSort,
    /// An entry of the tile in hand at tile position `p` reads
    /// `offsets.of[p] + shift`.
    shift: u32,
    /// Innermost group `j` of the tile's stream is its entries
    /// `starts[j]..starts[j + 1]`.
    starts: Vec<u32>,
    /// The stream's own walk: every filter, the groups in their own order
    /// under the [`FoldKeys`] digit of each filter's weight, nothing
    /// negated, closing where the stream closes.
    streamed: Walk,
    /// The folded walk, made for a tile not walked once.
    folded: Walk,
    /// Whether the folded walk is the one to lower.
    fold: bool,
}

impl Lowering {
    /// The lowering of a layer of `geom` whose longest tile — any but the
    /// last channel tile of a band — is `longest`.
    fn new(longest: &GroupStream, geom: &ConvGeom) -> Self {
        Self {
            once: walked_once(geom),
            keys: FoldKeys::new(longest.canonical()),
            offsets: TileOffsets::new(longest.tile_len(), geom),
            sort: DigitSort::default(),
            shift: 0,
            starts: Vec::new(),
            streamed: Walk::default(),
            folded: Walk::default(),
            fold: false,
        }
    }

    /// Reads `stream`, whose tile's absolute first channel is `c_first`, and
    /// settles the `G`-level walk of the whole tile: folded when that does
    /// not add closes + outer segments (it never adds closes; on an alphabet
    /// that is not sign-symmetric it can split outer groups), else — and
    /// always for a tile walked once — the stream's own order. Returns what
    /// that walk issues.
    fn read(&mut self, stream: &GroupStream, c_first: usize) -> WalkCounts {
        let (g, zero) = (stream.g(), self.keys.zero());
        let TileOffsets { of, channel } = &self.offsets;
        // The offsets ascend: no read of the tile is past its last position's.
        let last = of.get(stream.tile_len() - 1).expect("a longer tile");
        self.shift = u32::try_from(c_first * channel).expect("input offset fits u32");
        last.checked_add(self.shift).expect("input offset fits u32");
        let (_, ranks, levels) = stream.columns();
        // Branch-free: a group per entry, kept where the entry closes one.
        self.starts.resize(levels.len() + 1, 0);
        let mut groups = 0;
        for (i, &level) in levels.iter().enumerate() {
            self.starts[groups + 1] = i as u32 + 1;
            groups += usize::from(level != NO_CLOSE);
        }
        self.starts.truncate(groups + 1);
        // A group's keys are the digits of its entries' shared ranks.
        let walk = &mut self.streamed;
        walk.keys.clear();
        for &end in &self.starts[1..] {
            let ranks = &ranks[(end as usize - 1) * g..][..g];
            walk.keys
                .extend(ranks.iter().map(|&rank| self.keys.digit(rank)));
        }
        walk.counts = close_levels(&walk.keys, g, zero, &mut walk.closes);
        walk.counts.entries = levels.len();
        walk.order.clear();
        walk.order.extend(0..groups as u32);
        self.fold = !self.once && {
            self.folded.fold(walk, g, zero, &mut self.sort);
            let work = |walk: &Walk| walk.counts.closes + walk.counts.segs;
            work(&self.folded) <= work(walk)
        };
        self.shared().counts
    }

    /// The walk [`Lowering::read`] settled on.
    fn shared(&self) -> &Walk {
        if self.fold {
            &self.folded
        } else {
            &self.streamed
        }
    }

    /// The stream entries of innermost group `group` of the tile in hand.
    fn entries(&self, group: u32) -> Range<usize> {
        let bounds = &self.starts[group as usize..][..2];
        bounds[0] as usize..bounds[1] as usize
    }

    /// Lowers the tile read last, `stream`, as its shared walk: `k_first` is
    /// the absolute first filter of the tile's band.
    fn lower(&self, stream: &GroupStream, k_first: usize) -> FlattenedTile {
        let (walk, once, keys) = (self.shared(), self.once, &self.keys);
        let (levels, inner) = (stream.g(), stream.g() - 1);
        let (indices, ..) = stream.columns();
        let read = |&index: &u32| self.offsets.of[index as usize] + self.shift;

        // The stream's own walk reads its entries as they come.
        let mut base = Vec::with_capacity(walk.counts.entries);
        if !self.fold {
            base.extend(indices.iter().map(read));
        }
        let mut closes = Vec::with_capacity(walk.counts.closes);
        let (mut plus, mut minus, mut multiplies) = (0, 0, 0);
        let groups = walk.order.iter().zip(walk.closes.iter());
        for ((&group, &level), keys_here) in groups.zip(walk.keys.chunks_exact(levels)) {
            let entries = self.entries(group);
            if keys_here[inner] & MINUS != 0 {
                minus += entries.len();
            } else {
                plus += entries.len();
            }
            if self.fold {
                base.extend(indices[entries].iter().map(read));
            }
            if level == NO_CLOSE {
                continue;
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
        let mut segs = Vec::with_capacity(walk.counts.segs);
        for l in 0..inner {
            seg_ptr.push(segs.len() as u32);
            let (mut start, mut end) = (0, 0);
            let outer = |&(_, &level): &(usize, &u8)| usize::from(level) < inner;
            for (at, &level) in walk.closes.iter().enumerate().filter(outer) {
                // A tile walked once is walked in stream order: the entries
                // so far are the stream's up to this group's last.
                let streamed = self.entries(walk.order[at]).end as u32;
                end = if once { streamed } else { end + 1 };
                if usize::from(level) <= l {
                    let weight = keys.value(walk.keys[at * levels + l]);
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
            rows: 1 + if once { base.len() } else { walk.counts.kept },
            multiplies: multiplies + segs.len(),
            base,
            closes,
            seg_ptr,
            segs,
            pairs: None,
        }
    }
}

impl FlattenedTile {
    /// Gathers per output position: the stream entries the walk retains —
    /// or, for a dense tile, its pair-taps, each one gather its filters
    /// share.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.base.len()
    }

    /// Multiplies per output position. A walk issues one per group of a
    /// non-zero weight: outer segments plus the innermost groups whose `|w|`
    /// is not zero — at most the stream's
    /// [`multiplies`](GroupStream::multiplies), fewer where folding merged
    /// groups. (The kernel multiplies at every close, by `Δw`; that is
    /// executed, not counted.) A dense tile issues one per non-zero weight
    /// of its filters.
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

    /// Whether this is a dense tile, which reads its input with the
    /// channels staged in pairs.
    pub(super) fn is_dense(&self) -> bool {
        self.pairs.is_some()
    }
}

/// Whether a layer's tiles are walked once per chunk (one output position):
/// the predictor never sees a tile's run lengths twice (FC up to 2.6× slower), so
/// such a tile keeps a row per entry and no trip count depends on a run.
///
/// It decides how such a layer is cut and walked, not whether it is walked:
/// its one channel tile spans every channel (`Ct = C`, in
/// [`CompiledLayer::compile`]), its walk keeps the stream's order with a
/// row per entry (the kernels' flat walk), and that walk is priced by its
/// own terms ([`WalkCounts::cost`]) when [`lower_layer`] elects it or its
/// dense tiles.
pub(crate) fn walked_once(geom: &ConvGeom) -> bool {
    geom.out_w() * geom.out_h() == 1
}

#[cfg(test)]
pub(super) mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::compile::UcnnConfig;
    use crate::flatten::oracle::{alone, check_layer};
    use crate::flatten::run_stages;
    use crate::plan::{CompiledLayer, CompiledNetwork, CompiledStage, CompiledTile};
    use crate::simd::SimdCaps;
    use ucnn_model::{forward, networks, reference, ActivationGen, QuantScheme, WeightGen};
    use ucnn_tensor::{Tensor3, Tensor4};

    /// Lowers one retained stream as one `G`-level walk: sign-folded where
    /// that issues no more closes + outer segments, in stream order
    /// otherwise. `k_first`/`c_first` are the tile's absolute filter and
    /// channel bases (as in [`CompiledTile`](crate::plan::CompiledTile)).
    fn lower_shared(
        stream: &GroupStream,
        k_first: usize,
        c_first: usize,
        geom: &ConvGeom,
    ) -> FlattenedTile {
        let mut lowering = Lowering::new(stream, geom);
        lowering.read(stream, c_first);
        lowering.lower(stream, k_first)
    }

    /// Lowers `layer` as its walks, whatever it would elect.
    pub(in crate::flatten) fn lower_walks(layer: &CompiledLayer) -> Vec<FlattenedTile> {
        walks_within(layer, usize::MAX).expect("an unbounded walk")
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
                assert_eq!(levels, flat.g, "shape {si}: a level per filter");
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

    /// What a lowered walk issues, counted back from its records. A tile
    /// walked once keeps a row per entry, which its cost does not price.
    fn lowered_counts(tile: &FlattenedTile) -> WalkCounts {
        WalkCounts {
            entries: tile.base.len(),
            closes: tile.closes.len(),
            kept: tile.rows - 1,
            segs: tile.segs.len(),
        }
    }

    /// The referee of what [`Lowering::read`] counts: a tile's two walks,
    /// the stream's own and the folded one, counted from its weights alone
    /// and in no order. A walk's groups are the distinct prefixes of the
    /// tile's weight tuples (filter 0 outermost) over the positions where
    /// any filter has a weight: its closes are the distinct full tuples, its
    /// kept rows the distinct `(G − 1)`-prefixes (none at `G = 1`), and its
    /// outer segments, per outer level `m`, the distinct `(m + 1)`-prefixes
    /// whose weight `m` is not zero. The stream's walk counts the tuples as
    /// they are; the folded walk counts each one times the sign of its
    /// innermost weight, which it then holds as a magnitude.
    fn recount(layer: &CompiledLayer, ks: Range<usize>, cs: Range<usize>) -> [WalkCounts; 2] {
        let (rs, inner) = (layer.geom().r() * layer.geom().s(), ks.len() - 1);
        let tuples: Vec<Vec<i32>> = (cs.start * rs..cs.end * rs)
            .map(|p| ks.clone().map(|k| i32::from(layer.filter(k)[p])).collect())
            .filter(|tuple: &Vec<i32>| tuple.iter().any(|&w| w != 0))
            .collect();
        let fold = |tuple: &Vec<i32>| {
            let s = if tuple[inner] < 0 { -1 } else { 1 };
            tuple.iter().map(|w| w * s).collect()
        };
        let folded = tuples.iter().map(fold).collect();
        let count = |tuples: Vec<Vec<i32>>| {
            let mut prefixes = vec![BTreeSet::new(); inner + 1];
            let mut entries = 0;
            for tuple in tuples {
                entries += 1;
                for (m, prefixes) in prefixes.iter_mut().enumerate() {
                    prefixes.insert(tuple[..=m].to_vec());
                }
            }
            let outer = |m: usize| prefixes[m].iter().filter(|p| p[m] != 0).count();
            WalkCounts {
                entries,
                closes: prefixes[inner].len(),
                kept: inner.checked_sub(1).map_or(0, |m| prefixes[m].len()),
                segs: (0..inner).map(outer).sum(),
            }
        };
        [count(tuples), count(folded)]
    }

    /// Checks the lowering of `layer` against its weights and its streams.
    /// Each tile's read counts both its walks as the referee, [`recount`],
    /// does, and settles on the folded walk exactly when that adds no
    /// closes + outer segments (a tile walked once keeps the stream's).
    /// Each walk of a tile is that shared walk, which reads a permutation of
    /// the entries where the tile holds a weight and to which folding adds
    /// no closes + outer segments over the stream's own. The layer's dense
    /// tiles ([`CompiledLayer::dense_lowered`]) are two filters of one conv
    /// group each, the last of an odd group alone, holding their weights per
    /// pair-tap as tabulated here from the streams. A layer — walked once
    /// or not, each walk priced by the terms of its kind — is its dense
    /// tiles if and only if they cost less than its walks, summed over the
    /// layer; otherwise it is its walks. Returns the kinds of the two
    /// lowerings it checked, both of which [`check_layer`] runs: "walked
    /// once" or, for walks of several filters, "shared"; and "dense once"
    /// or "dense".
    pub(in crate::flatten) fn check_lowering(
        layer: &CompiledLayer,
        what: &str,
    ) -> BTreeSet<&'static str> {
        let geom = layer.geom();
        let once = walked_once(geom);
        let (s, rs) = (geom.s(), geom.r() * geom.s());
        let (pw, ph) = (geom.in_w() + 2 * geom.pad(), geom.in_h() + 2 * geom.pad());
        let offset = |c: usize, tap: usize| ((c * pw + tap / s) * ph + tap % s) as u32;
        let k_group = geom.k() / layer.conv_groups();

        // The dense tiles, from the streams: per tile (its first filter),
        // per pair-tap (pair, tap) holding a weight, both filters' packed
        // pairs; and per tile its non-zero weights.
        type Table = BTreeMap<(usize, usize), [u32; 2]>;
        let mut tables: BTreeMap<usize, (Table, usize)> = (0..geom.k())
            .filter(|k| (k % k_group).is_multiple_of(2))
            .map(|k| (k, Default::default()))
            .collect();
        let (mut walks, mut walk_cost) = (Vec::new(), 0);
        let mut lowering = Lowering::new(layer.tiles()[0].stream(), geom);
        for (tile, (ks, cs, _)) in layer.tiles().iter().zip(layer.tile_spans()) {
            let stream = tile.stream();
            let read = lowering.read(stream, tile.c_first());
            let [streamed, folded] = recount(layer, ks, cs);
            assert_eq!(
                lowering.streamed.counts, streamed,
                "{what}: the stream's walk"
            );
            let work = |counts: &WalkCounts| counts.closes + counts.segs;
            let elected = if once {
                streamed
            } else {
                assert_eq!(lowering.folded.counts, folded, "{what}: the folded walk");
                if work(&folded) <= work(&streamed) {
                    folded
                } else {
                    streamed
                }
            };
            assert_eq!(read, elected, "{what}: the shared walk");
            let levels = stream.g();
            for e in stream.entries() {
                let (c, tap) = (
                    tile.c_first() + e.index as usize / rs,
                    e.index as usize % rs,
                );
                for (f, &rank) in e.ranks.iter().enumerate().filter(|(_, &r)| r != ZERO_RANK) {
                    let k = tile.k_first() + f;
                    let slot = k % k_group % 2;
                    let w = stream.canonical()[usize::from(rank)] as u16;
                    let (table, weights) = tables.get_mut(&(k - slot)).expect("a tile");
                    table.entry((c / 2, tap)).or_default()[slot] |= u32::from(w) << (16 * (c % 2));
                    *weights += 1;
                }
            }
            // The offsets of the entries where the tile holds a weight.
            let walked = stream
                .entries()
                .filter(|e| e.ranks.iter().any(|&r| r != ZERO_RANK));
            let mut offsets: Vec<u32> = walked
                .map(|e| {
                    offset(
                        tile.c_first() + e.index as usize / rs,
                        e.index as usize % rs,
                    )
                })
                .collect();
            offsets.sort_unstable();
            let shared = lowering.lower(stream, tile.k_first());
            let mut base = shared.base.clone();
            base.sort_unstable();
            assert_eq!(base, offsets, "{what}: a permutation");
            // Folding may not add closes + outer segments to the stream's
            // own.
            let inner = stream.entries().filter(|e| e.close_level.is_some());
            let inner = inner.filter(|e| e.ranks[levels - 1] != ZERO_RANK).count();
            assert!(
                shared.closes.len() + shared.segs.len()
                    <= stream.closures_at_level(levels - 1) + stream.multiplies() - inner,
                "{what}: folding added work"
            );
            walk_cost += lowered_counts(&shared).cost(once);
            walks.push(shared);
        }

        let dense = layer.dense_lowered();
        let dense = dense.flat_tiles();
        assert_eq!(
            dense.len(),
            tables.len(),
            "{what}: a dense tile per two filters"
        );
        let mut dense_cost = 0;
        for (tile, (&k_first, (table, weights))) in dense.iter().zip(&tables) {
            let g = (k_group - k_first % k_group).min(2);
            assert_eq!((tile.k_first, tile.g, tile.rows), (k_first, g, 0), "{what}");
            let offsets = table.keys().map(|&(pair, tap)| offset(pair, tap));
            assert_eq!(tile.base, offsets.collect::<Vec<_>>(), "{what}: pair-taps");
            let pairs = table.values().flatten().map(|&pair| pair as i32);
            assert_eq!(tile.pairs, Some(pairs.collect()), "{what}: packed pairs");
            assert_eq!(tile.segment_count(), *weights, "{what}: the tile's weights");
            assert!(tile.closes.is_empty() && tile.segs.is_empty(), "{what}");
            dense_cost += WalkCounts::dense(table.len(), g);
        }

        // The election's inputs from the weights: the dense tiles' price as
        // the table from the streams prices them, and a bound the walks
        // never cost less than.
        assert_eq!(
            PairTaps::of(layer).price(),
            dense_cost,
            "{what}: dense price"
        );
        let bound = walk_bound(layer);
        assert!(
            bound <= walk_cost,
            "{what}: bound {bound} > walks {walk_cost}"
        );

        // Both directions of the election.
        if dense_cost < walk_cost {
            assert_eq!(layer.flat_tiles(), dense, "{what}: the dense tiles");
        } else {
            assert_eq!(layer.flat_tiles(), walks, "{what}: the shared walks");
        }
        let levels = layer.tiles()[0].stream().g();
        let walk = if once {
            Some("walked once")
        } else {
            (levels > 1).then_some("shared")
        };
        let dense = if once { "dense once" } else { "dense" };
        walk.into_iter().chain([dense]).collect()
    }

    #[test]
    fn the_order_is_free_the_sum_is_not() {
        // A sub-run longer than a `u16` is cut into records that telescope
        // to `Δw = 0`: four equal filters, one group of (7, 7, 7, 7) then
        // (−7, −7, −7, −7) entries, the plus or the minus sub-run too long
        // for one record, walked at two positions (folded: two records) and,
        // as a fully connected layer, once (stream order: two groups, three
        // records). Sharing every gather four ways costs less than the
        // dense tiles (140 009 against 210 000).
        let c = 70_000;
        let mut agen = ActivationGen::new(11);
        for flip in [1_000, 66_000] {
            let weights =
                Tensor4::from_fn(4, c, 1, 1, |_, ci, _, _| if ci < flip { 7i16 } else { -7 });
            for geom in [
                ConvGeom::new(1, 2, c, 4, 1, 1),
                ConvGeom::new(1, 1, c, 4, 1, 1),
            ] {
                let cfg = UcnnConfig {
                    g: 4,
                    ct: c,
                    ..UcnnConfig::default()
                };
                let layer = CompiledLayer::compile(&geom, 1, &weights, &cfg);
                let [tile] = layer.flat_tiles() else {
                    panic!("one walk shares every gather");
                };
                assert!(!tile.is_dense(), "{geom:?}, flip {flip}");
                let records = if walked_once(&geom) { 3 } else { 2 };
                assert_eq!(tile.closes.len(), records, "{geom:?}, flip {flip}");
                let input = agen.generate(c, geom.in_w(), geom.in_h());
                let expected = reference::conv2d(&geom, 1, &input, &weights);
                let got = run_stages(&alone(layer), &[input], SimdCaps::get().best());
                assert_eq!(got, [expected], "{geom:?}, flip {flip}");
            }
        }
    }

    /// Every weight layer of every plan `plan_digest` pins — LeNet and
    /// `tiny`, INQ and TTQ weights, `G ∈ {1, 2, 3}`, `Ct ∈ {16, 64}` — with
    /// its case spelled out, freshly compiled.
    fn each_digest_layer(mut check: impl FnMut(&str, &CompiledLayer)) {
        let nets = [
            ("lenet", networks::lenet(), 0x1E7),
            ("tiny", networks::tiny(), 0x717),
        ];
        let schemes = [
            ("inq", QuantScheme::inq(), 0.9),
            ("ttq", QuantScheme::ttq(), 0.6),
        ];
        for (net, spec, seed) in &nets {
            for (scheme_name, scheme, density) in &schemes {
                let weights =
                    forward::generate_network_weights(spec, scheme.clone(), *seed, *density);
                for (g, ct) in [1, 2, 3].into_iter().flat_map(|g| [(g, 16), (g, 64)]) {
                    let config = UcnnConfig {
                        ct,
                        ..UcnnConfig::with_g(g)
                    };
                    let plan = CompiledNetwork::compile(spec, &weights, &config);
                    for stage in plan.stages() {
                        if let CompiledStage::Conv { name, layer, .. } = stage {
                            let what = format!("{net} {scheme_name} G = {g}, Ct = {ct}, {name}");
                            check(&what, layer);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_walk_bound_is_a_bound_and_decides_as_the_walks_would() {
        // On every layer `plan_digest` pins, walked once or not, the bound
        // from the weights is at most what the full read of the walks
        // costs, and the layer elects what that read elects. A layer whose
        // bound exceeds its dense tiles' price is lowered without building
        // a stream — every INQ LeNet weight layer at G = 2, the fully
        // connected `ip1` and `ip2` too, among others — and no lowered layer
        // keeps one.
        let mut decided = BTreeSet::new();
        each_digest_layer(|what, layer| {
            let (bound, price) = (walk_bound(layer), PairTaps::of(layer).price());
            let flat = layer.flat_tiles().to_vec();
            let by_bound = bound > price;
            assert!(!layer.streams_built(), "{what}");
            let mut lowering = Lowering::new(layer.tiles()[0].stream(), layer.geom());
            let once = lowering.once;
            let tiles = layer.tiles().iter();
            let read = |tile: &CompiledTile| lowering.read(tile.stream(), tile.c_first());
            let cost: usize = tiles.map(read).map(|counts| counts.cost(once)).sum();
            assert!(bound <= cost, "{what}: bound {bound} > walks {cost}");
            let elected = if price < cost {
                lower_dense(layer)
            } else {
                lower_walks(layer)
            };
            assert!(flat == elected, "{what}: elected otherwise");
            if by_bound {
                decided.insert(what.to_string());
            }
        });
        for ct in [16, 64] {
            for layer in ["conv1", "conv2", "conv3", "ip1", "ip2"] {
                let what = format!("lenet inq G = 2, Ct = {ct}, {layer}");
                assert!(decided.contains(&what), "{what} was read");
            }
        }
    }

    #[test]
    fn the_flat_walk_terms_rank_both_reuse_fc_cells() {
        // `repro reuse`'s two fully connected cells, 1024 channels into 32
        // filters at density 0.9 on its seed, are priced by the flat walk's
        // terms: the ternary one at G = 8 shares enough to walk (21 414
        // against its dense tiles' 24 567), the INQ one at G = 2 does not
        // (41 434), and its bound alone (32 492 against 24 567) elects its
        // dense tiles without building a stream.
        let geom = ConvGeom::new(1, 1, 1024, 32, 1, 1);
        let cells = [
            ("fc ttq i8", QuantScheme::ttq(), 8, 21_414, false),
            ("fc 1x1", QuantScheme::inq(), 2, 41_434, true),
        ];
        for (what, scheme, g, walks, dense) in cells {
            let mut wgen = WeightGen::new(scheme, 0xC0FFEE ^ 0xBA).with_density(0.9);
            let weights = wgen.generate_dims(geom.k(), geom.c(), 1, 1);
            let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::with_g(g));
            let flat = layer.flat_tiles();
            assert!(flat.iter().all(|tile| tile.is_dense() == dense), "{what}");
            assert_eq!(PairTaps::of(&layer).price(), 24_567, "{what}");
            let cost: usize = lower_walks(&layer)
                .iter()
                .map(|tile| lowered_counts(tile).cost(true))
                .sum();
            assert_eq!(cost, walks, "{what}");
            assert_eq!(walk_bound(&layer) > 24_567, dense, "{what}");
            check_lowering(&layer, what);
        }
    }

    #[test]
    fn the_referee_counts_every_plan_digest_walk() {
        // Both walks of every tile of every layer `plan_digest` pins, as
        // read, equal the referee's count from the tile's weights alone
        // (`recount`), and the read settles on the walk the counts elect
        // (`check_lowering`).
        each_digest_layer(|what, layer| {
            check_lowering(layer, what);
        });
    }

    #[test]
    fn the_dense_lowering_does_not_depend_on_g() {
        // A dense tile is two filters of one conv group, whatever G is.
        // Every LeNet layer's dense tiles, on the INQ and TTQ weights
        // `plan_digest` pins, print the same at G = 1 … 4; so do those of a
        // grouped convolution of five filters and three channels a group,
        // whose second group starts inside a channel pair, and none of its
        // tiles spans a group.
        let spec = networks::lenet();
        for (scheme, density) in [(QuantScheme::inq(), 0.9), (QuantScheme::ttq(), 0.6)] {
            let weights = forward::generate_network_weights(&spec, scheme, 0x1E7, density);
            let dense_at = |g| {
                let plan = CompiledNetwork::compile(&spec, &weights, &UcnnConfig::with_g(g));
                let layers = plan.stages().iter().filter_map(|stage| match stage {
                    CompiledStage::Conv { layer, .. } => Some(layer.dense_lowered()),
                    _ => None,
                });
                layers
                    .map(|layer| format!("{:?}", layer.flat_tiles()))
                    .collect::<Vec<_>>()
            };
            let at_2 = dense_at(2);
            for g in [1, 3, 4] {
                assert!(dense_at(g) == at_2, "LeNet's dense tiles at G = {g}");
            }
        }
        let geom = ConvGeom::new(6, 5, 3, 10, 3, 3).with_pad(1);
        let mut wgen = WeightGen::new(QuantScheme::inq(), 0x1E7).with_density(0.9);
        let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
        let dense_at = |g| {
            let layer = CompiledLayer::compile(&geom, 2, &weights, &UcnnConfig::with_g(g));
            check_lowering(&layer, &format!("grouped, G = {g}"));
            layer.dense_lowered().flat_tiles().to_vec()
        };
        let at_2 = dense_at(2);
        let tiles: Vec<_> = at_2.iter().map(|t| (t.k_first, t.g)).collect();
        assert_eq!(tiles, [(0, 2), (2, 2), (4, 1), (5, 2), (7, 2), (9, 1)]);
        for g in [1, 3, 4] {
            assert_eq!(
                format!("{:?}", dense_at(g)),
                format!("{at_2:?}"),
                "grouped, G = {g}"
            );
        }
    }

    #[test]
    fn a_band_of_255_filters_is_exact_on_every_executor() {
        // A stream's close level is a byte and 255 marks no close, so 255
        // filters is the most a band holds. Every filter is (1, 1) over two
        // channels but the last, (1, 2): the band's two groups differ only
        // at its innermost level, whose close must not read as none — on
        // the paper's functional definition, the stream walker, the
        // flattened walks and the dense tiles, at several positions and at
        // one.
        let k = 255;
        let weights =
            Tensor4::from_fn(k, 2, 1, 1, |f, c, _, _| 1 + i16::from(f == k - 1 && c == 1));
        let mut agen = ActivationGen::new(0xFF);
        for geom in [
            ConvGeom::new(3, 2, 2, k, 1, 1),
            ConvGeom::new(1, 1, 2, k, 1, 1),
        ] {
            let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::with_g(k));
            let inputs: Vec<_> = (0..3)
                .map(|_| agen.generate(2, geom.in_w(), geom.in_h()))
                .collect();
            check_layer(&layer, &weights, &inputs, &format!("G = {k}, {geom:?}"));
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
        assert_eq!((tile.rows, tile.segment_count()), (4, 5));
        assert_eq!(stream.multiplies(), 7);
        // The band itself is cheaper as one dense tile (12 against the
        // walk's 42): four pair-taps of the channels (0, 1) … (6, zero),
        // each one load for both filters' pairs (filter a's, then b's),
        // multiplying the band's ten weights.
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
