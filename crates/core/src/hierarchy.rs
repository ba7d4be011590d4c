//! Activation-group reuse: the hierarchically sorted `G`-filter stream
//! (paper §III-B and §IV-C).
//!
//! A [`GroupStream`] is the joint `iiT`/`wiT` content for `G` filters that
//! share one input indirection table. Positions are sorted lexicographically
//! by the tuple of the filters' weight ranks (filter 1 outermost), so that:
//!
//! * filter 1's activation groups are contiguous runs,
//! * filter 2's **sub**-activation groups are contiguous within them, and so
//!   on recursively — the `T_g ∩ A(k_{g+1}, i')` intersections of §III-B;
//! * the per-filter weight sequence follows one canonical order (ascending
//!   weight value), which is what lets each `wiT` be one bit per entry.
//!
//! The zero weight sorts **last** at every level (rank [`ZERO_RANK`]):
//! positions where *all* `G` filters have zero weight are dropped from the
//! stream entirely, while positions where only some filters are zero remain
//! (the union rule of §IV-C — "we can only remove entries … if the
//! corresponding weight in filters k1 and k2 is 0") and simply dispatch no
//! multiply for the zero filters.
//!
//! Walking the stream top to bottom reproduces the paper's Figure 7
//! datapath: accumulator ② builds the innermost sub-group sum, accumulator ③
//! merges closed sums into the running sums of outer levels, and the MAC
//! unit ① fires once per (sub-)activation-group closure.

use std::collections::BTreeSet;
use std::sync::Arc;

/// Weight rank used for the zero weight: sorts after every real rank.
pub const ZERO_RANK: u16 = u16::MAX;

/// Sentinel for "no closure at this entry".
pub(crate) const NO_CLOSE: u8 = u8::MAX;

/// The most filters one stream holds: a close level is a byte below
/// [`NO_CLOSE`], and a band of `G` filters closes levels `0..G`.
pub(crate) const MAX_G: usize = NO_CLOSE as usize;

/// Borrowed view of one stream entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamEntry<'a> {
    /// Flattened tile position to read from the input buffer.
    pub index: u32,
    /// Per-filter weight ranks at this position (`ZERO_RANK` = zero weight).
    pub ranks: &'a [u16],
    /// Outermost level closing at this entry: levels `l..G` all end their
    /// current (sub-)activation group here. `None` while mid-group.
    pub close_level: Option<u8>,
}

/// The hierarchically sorted stream for a group of `G` filters over one
/// weight tile.
///
/// # Examples
///
/// ```
/// use ucnn_core::hierarchy::GroupStream;
///
/// // Two filters over a 4-weight tile; weight alphabet {1, 2}.
/// let k1 = [1i16, 1, 2, 2];
/// let k2 = [1i16, 2, 1, 2];
/// let stream = GroupStream::build(&[&k1, &k2]);
/// assert_eq!(stream.g(), 2);
/// assert_eq!(stream.entry_count(), 4);
/// // Both dot products from one walk:
/// let sums = stream.dot_group(&[10, 20, 30, 40]);
/// assert_eq!(sums, vec![10 + 20 + 2 * (30 + 40), 10 + 30 + 2 * (20 + 40)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupStream {
    g: usize,
    tile_len: usize,
    /// Shared with every other stream of the layer.
    canonical: Arc<[i16]>,
    /// Per entry: flattened tile position.
    indices: Vec<u32>,
    /// Per entry × filter: weight rank (row-major, `g` ranks per entry).
    ranks: Vec<u16>,
    /// Per entry: outermost closing level or `NO_CLOSE`.
    close_levels: Vec<u8>,
    /// Positions dropped because all `G` weights were zero.
    dropped_zero_positions: usize,
}

impl GroupStream {
    /// Builds the stream for `G = filters.len()` equally sized weight tiles,
    /// using the canonical weight order "ascending value over the distinct
    /// non-zero weights present in the group".
    ///
    /// # Panics
    ///
    /// Panics if `filters` is empty, tiles are empty, or tile lengths differ.
    #[must_use]
    pub fn build(filters: &[&[i16]]) -> Self {
        Self::build_with_canonical(filters, &canonical_weights(filters))
    }

    /// Builds the stream against an explicit canonical non-zero weight order
    /// (ascending, deduplicated). Weights present in `filters` but absent
    /// from `canonical` are not allowed.
    ///
    /// Using one canonical list for a whole layer keeps weight ranks
    /// consistent across tiles, which is what the hardware's `U`-entry
    /// weight buffer assumes. This is the one-shot form: a caller with a
    /// layer of tiles makes one [`StreamBuilder`] and builds them all.
    ///
    /// # Panics
    ///
    /// Panics on empty/ragged input or on a weight missing from `canonical`.
    #[must_use]
    pub fn build_with_canonical(filters: &[&[i16]], canonical: &[i16]) -> Self {
        StreamBuilder::new(canonical).build(filters)
    }

    /// Number of filters sharing this stream (`G`).
    #[must_use]
    pub fn g(&self) -> usize {
        self.g
    }

    /// Original tile length (`R·S·Ct`).
    #[must_use]
    pub fn tile_len(&self) -> usize {
        self.tile_len
    }

    /// Canonical non-zero weight order used for ranks.
    #[must_use]
    pub fn canonical(&self) -> &[i16] {
        &self.canonical
    }

    /// Number of stream (`iiT`) entries: the union of the filters' non-zero
    /// positions.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.indices.len()
    }

    /// Positions dropped because every filter's weight was zero there.
    #[must_use]
    pub fn dropped_zero_positions(&self) -> usize {
        self.dropped_zero_positions
    }

    /// Iterates over the stream entries in order.
    pub fn entries(&self) -> impl Iterator<Item = StreamEntry<'_>> + '_ {
        (0..self.indices.len()).map(move |i| self.entry(i))
    }

    /// Returns entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn entry(&self, i: usize) -> StreamEntry<'_> {
        StreamEntry {
            index: self.indices[i],
            ranks: &self.ranks[i * self.g..i * self.g + self.g],
            close_level: match self.close_levels[i] {
                NO_CLOSE => None,
                l => Some(l),
            },
        }
    }

    /// The stream as parallel per-entry slices — tile positions, weight
    /// ranks (`G` per entry) and closing levels ([`NO_CLOSE`] mid-group) —
    /// for lowering, which reads every entry of every tile of a plan.
    pub(crate) fn columns(&self) -> (&[u32], &[u16], &[u8]) {
        (&self.indices, &self.ranks, &self.close_levels)
    }

    /// Number of group closures at `level` (counting zero-group closures).
    #[must_use]
    pub fn closures_at_level(&self, level: usize) -> usize {
        assert!(level < self.g, "level out of range");
        self.close_levels
            .iter()
            .filter(|&&l| l != NO_CLOSE && (l as usize) <= level)
            .count()
    }

    /// Multiplies dispatched per walk: one per closure whose closing rank is
    /// non-zero, with groups longer than `cap` entries split into chunks
    /// that each need an early multiply (§IV-B, cap = 16 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    #[must_use]
    pub fn multiplies_with_cap(&self, cap: usize) -> usize {
        assert!(cap > 0, "cap must be positive");
        let g = self.g;
        let mut mults = 0usize;
        // Entries since the last closure *at each level* determine the
        // accumulation run lengths. Level `l`'s group length is the number
        // of entries since its last closure at level <= l.
        let mut run = vec![0usize; g];
        for i in 0..self.indices.len() {
            for r in &mut run {
                *r += 1;
            }
            let cl = self.close_levels[i];
            if cl == NO_CLOSE {
                continue;
            }
            for (level, r) in run.iter_mut().enumerate().skip(cl as usize) {
                let rank = self.ranks[i * g + level];
                if rank != ZERO_RANK {
                    mults += r.div_ceil(cap);
                }
                *r = 0;
            }
        }
        mults
    }

    /// Multiplies without the group-size cap: non-zero closures only.
    #[must_use]
    pub fn multiplies(&self) -> usize {
        let g = self.g;
        let mut mults = 0usize;
        for i in 0..self.indices.len() {
            let cl = self.close_levels[i];
            if cl == NO_CLOSE {
                continue;
            }
            for level in (cl as usize)..g {
                if self.ranks[i * g + level] != ZERO_RANK {
                    mults += 1;
                }
            }
        }
        mults
    }

    /// Evaluates all `G` dot products in a single walk, reproducing the
    /// Figure 6/7 datapath semantics (accumulators ②/③ and MAC unit ①).
    ///
    /// Bit-identical to `G` independent dense dot products.
    ///
    /// # Panics
    ///
    /// Panics if `activations.len() != tile_len`.
    #[must_use]
    pub fn dot_group(&self, activations: &[i16]) -> Vec<i32> {
        assert_eq!(
            activations.len(),
            self.tile_len,
            "activation tile length mismatch"
        );
        let g = self.g;
        let mut psum = vec![0i32; g];
        // Accumulator ②: innermost sub-group builder.
        let mut acc = 0i32;
        // Accumulator ③: running sums for levels 0..G-1 (outer levels).
        let mut reg = vec![0i32; g.saturating_sub(1)];
        for i in 0..self.indices.len() {
            acc += i32::from(activations[self.indices[i] as usize]);
            let cl = self.close_levels[i];
            if cl == NO_CLOSE {
                continue;
            }
            let l = cl as usize;
            let mut t = acc;
            acc = 0;
            for level in ((l)..g).rev() {
                if level < g - 1 {
                    reg[level] += t;
                    t = reg[level];
                    reg[level] = 0;
                }
                let rank = self.ranks[i * g + level];
                if rank != ZERO_RANK {
                    psum[level] += t * i32::from(self.canonical[rank as usize]);
                }
            }
            if l > 0 {
                reg[l - 1] += t;
            }
        }
        psum
    }

    /// Input-buffer reads saved versus `G` independent factorized walks:
    /// each shared entry is read once instead of up to `G` times.
    #[must_use]
    pub fn shared_reads_saved(&self) -> usize {
        let g = self.g;
        let mut independent = 0usize;
        for i in 0..self.indices.len() {
            independent += self.ranks[i * g..i * g + g]
                .iter()
                .filter(|&&r| r != ZERO_RANK)
                .count();
        }
        independent - self.entry_count()
    }
}

/// One layer's stream builds: its canonical weight order, shared by every
/// stream built here, the weight → rank table that order implies — a load
/// per weight where a search over the `U` values mispredicts — and the rank
/// matrix and sort buffers, reused from tile to tile so a build allocates
/// the stream's own three columns and nothing else. The table spans the
/// order's values (INQ's ±1…±128: 514 bytes; never over 128 KB); a builder
/// lives as long as one layer's compile.
pub struct StreamBuilder {
    canonical: Arc<[i16]>,
    /// Indexed by `w − canonical[0]`: the weight's rank, [`ZERO_RANK`] for
    /// zero and for every weight the canonical order does not hold — as is
    /// every weight outside the span.
    rank_of: Vec<u16>,
    /// Rank matrix of the tile in hand, a column of `tile_len` per filter.
    pos_ranks: Vec<u16>,
    order: Vec<u32>,
    sort: DigitSort,
}

impl StreamBuilder {
    /// A builder over `canonical`, the ascending distinct non-zero weights.
    pub(crate) fn new(canonical: &[i16]) -> Self {
        assert!(
            canonical.windows(2).all(|w| w[0] < w[1]),
            "canonical order must be strictly ascending"
        );
        let span = canonical
            .last()
            .map_or(0, |hi| usize::from(hi.abs_diff(canonical[0])) + 1);
        let mut rank_of = vec![ZERO_RANK; span];
        for (rank, &w) in canonical.iter().enumerate().filter(|(_, &w)| w != 0) {
            rank_of[usize::from(w.abs_diff(canonical[0]))] = rank as u16;
        }
        Self {
            canonical: canonical.into(),
            rank_of,
            pos_ranks: Vec::new(),
            order: Vec::new(),
            sort: DigitSort::default(),
        }
    }

    /// The canonical non-zero weight order every stream built here ranks by.
    #[must_use]
    pub fn canonical(&self) -> &[i16] {
        &self.canonical
    }

    /// Builds the stream for `G = filters.len()` equally sized weight tiles.
    ///
    /// # Panics
    ///
    /// Panics on empty/ragged input, on more than 255 filters, or on a
    /// weight missing from the canonical order.
    #[must_use]
    pub fn build(&mut self, filters: &[&[i16]]) -> GroupStream {
        assert!(!filters.is_empty(), "need at least one filter");
        let (g, tile_len) = (filters.len(), filters[0].len());
        assert!(
            g <= MAX_G,
            "G = {g} exceeds {MAX_G}: a close level is a byte"
        );
        assert!(tile_len > 0, "tiles must be non-empty");
        assert!(
            filters.iter().all(|f| f.len() == tile_len),
            "all filter tiles must have equal length"
        );
        let (pos_ranks, order) = (&mut self.pos_ranks, &mut self.order);
        // Below the span a weight wraps past its end: `hi − w < 2¹⁶`.
        let lo = self.canonical.first().copied().unwrap_or(0);
        let rank_of = |w: i16| {
            let at = usize::from(w.wrapping_sub(lo) as u16);
            self.rank_of.get(at).copied().unwrap_or(ZERO_RANK)
        };

        // Filter by filter: its column of the rank matrix, how many of each
        // rank it holds — the zero weight's is past every other, so it is
        // the last bucket — and, in `order`, which positions hold a weight.
        let zero = self.canonical.len();
        let counts = self.sort.counts(g, zero + 1);
        pos_ranks.resize(tile_len * g, 0);
        order.clear();
        order.resize(tile_len, 0);
        let mut stray = false;
        let columns = pos_ranks.chunks_exact_mut(tile_len);
        for ((column, f), counts) in columns.zip(filters).zip(counts.chunks_exact_mut(zero + 1)) {
            for ((rank, &w), weighted) in column.iter_mut().zip(*f).zip(order.iter_mut()) {
                *rank = rank_of(w);
                stray |= *rank == ZERO_RANK && w != 0;
                *weighted |= u32::from(*rank != ZERO_RANK);
                counts[usize::from(*rank).min(zero)] += 1;
            }
        }
        if stray {
            let held = |w: &&i16| **w != 0 && rank_of(**w) == ZERO_RANK;
            let w = filters.iter().flat_map(|f| f.iter()).find(held);
            panic!("weight {} missing from canonical order", w.expect("one"));
        }

        // Keep positions where at least one filter is non-zero: compacted in
        // place, a position's flag read before its slot can be written.
        let mut n = 0;
        for p in 0..tile_len {
            let weighted = order[p] as usize;
            order[n] = p as u32;
            n += weighted;
        }
        order.truncate(n);
        let dropped_zero_positions = tile_len - n;
        for counts in counts.chunks_exact_mut(zero + 1) {
            counts[zero] -= dropped_zero_positions as u32;
        }

        // Hierarchical sort: lexicographic over rank tuples (filter 1
        // outermost), ties broken by position for determinism — `order`
        // starts ascending by position and every pass is stable.
        self.sort.sort(order, |p, level| {
            usize::from(pos_ranks[level * tile_len + p as usize]).min(zero)
        });

        // Group-transition bits: the first level at which the next entry's
        // rank tuple differs closes this entry's groups at that level and all
        // deeper levels — so, column by column, the outermost written last.
        // The final entry closes level 0 ("filter done").
        let mut ranks = vec![0; n * g];
        let mut close_levels = vec![NO_CLOSE; n];
        for (level, column) in pos_ranks.chunks_exact(tile_len).enumerate().rev() {
            let rows = ranks.chunks_exact_mut(g).zip(&mut close_levels);
            let mut after = ZERO_RANK;
            for (&p, (row, close)) in order.iter().zip(rows).rev() {
                row[level] = column[p as usize];
                if row[level] != after {
                    *close = level as u8;
                }
                after = row[level];
            }
        }
        if let Some(last) = close_levels.last_mut() {
            *last = 0;
        }

        GroupStream {
            g,
            tile_len,
            canonical: Arc::clone(&self.canonical),
            indices: order.clone(),
            ranks,
            close_levels,
            dropped_zero_positions,
        }
    }
}

/// Stable LSD counting sort of items whose digits the caller has counted —
/// it reads every digit once already, to compute it — with the buffers it
/// reuses from call to call.
#[derive(Default)]
pub(crate) struct DigitSort {
    /// Per digit, most significant first: per bucket, the items that have it.
    counts: Vec<u32>,
    buckets: usize,
    sorted: Vec<u32>,
}

impl DigitSort {
    /// Zeroed counts for items of `digits` digits, each `< buckets`: before
    /// [`DigitSort::sort`], the caller adds one at `[d * buckets + digit]`
    /// for digit `d` of every item.
    pub(crate) fn counts(&mut self, digits: usize, buckets: usize) -> &mut [u32] {
        self.buckets = buckets;
        self.counts.clear();
        self.counts.resize(digits * buckets, 0);
        &mut self.counts
    }

    /// Reorders the counted items so they ascend by the tuple `digit(item,
    /// 0), digit(item, 1), …`, and ties keep the order they came in. One
    /// pass per digit of `O(order.len() + buckets)`, so it wants a digit
    /// alphabet no larger than the tile: the streams' is the layer's `U`.
    pub(crate) fn sort(&mut self, order: &mut Vec<u32>, digit: impl Fn(u32, usize) -> usize) {
        self.sorted.resize(order.len(), 0);
        for (d, starts) in self.counts.chunks_exact_mut(self.buckets).enumerate().rev() {
            let mut start = 0;
            for count in starts.iter_mut() {
                start += std::mem::replace(count, start);
            }
            for &item in order.iter() {
                let at = &mut starts[digit(item, d)];
                self.sorted[*at as usize] = item;
                *at += 1;
            }
            std::mem::swap(order, &mut self.sorted);
        }
    }
}

/// Computes the canonical non-zero weight order (ascending, deduplicated)
/// over a set of filter tiles.
#[must_use]
pub fn canonical_weights(filters: &[&[i16]]) -> Vec<i16> {
    let mut set = BTreeSet::new();
    for f in filters {
        for &w in *f {
            if w != 0 {
                set.insert(w);
            }
        }
    }
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_stream_is_send_sync() {
        // Compile-time audit: streams are embedded in serving plans shared
        // across worker threads, so they must stay free of interior
        // mutability and non-Send handles.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GroupStream>();
    }

    /// The exact example of the paper's Figure 7 (G = 2, weights {a, b}).
    ///
    /// Inputs x..n at positions 0..7; expected result: UCNN evaluates both
    /// filters in 6 multiplies where DCNN needs 16.
    #[test]
    fn figure7_walkthrough() {
        let (a, b) = (1i16, 2i16);
        // position:       x  y  z  k  h  l  m  n
        let k1 = [b, a, a, b, a, a, a, b];
        let k2 = [b, b, a, b, b, b, a, a];
        let stream = GroupStream::build(&[&k1, &k2]);

        assert_eq!(stream.entry_count(), 8);
        assert_eq!(stream.multiplies(), 6, "paper: 6 multiplies vs 16 for DCNN");

        // Outputs must equal the dense dot products.
        let acts: Vec<i16> = vec![3, 5, 7, 11, 13, 17, 19, 23]; // x..n
        let dense = |f: &[i16]| -> i32 {
            f.iter()
                .zip(&acts)
                .map(|(&w, &x)| i32::from(w) * i32::from(x))
                .sum()
        };
        assert_eq!(stream.dot_group(&acts), vec![dense(&k1), dense(&k2)]);

        // Filter k1 has 2 activation groups (a then b): 2 closures at level 0.
        assert_eq!(stream.closures_at_level(0), 2);
        // Filter k2 has 4 sub-activation groups: closures at level <= 1 is 4.
        assert_eq!(stream.closures_at_level(1), 4);
    }

    #[test]
    #[allow(clippy::identity_op)] // `1 * …` spells out the a=1 weight of the figure
    fn figure4_sub_activation_groups() {
        // Figure 4: filter k1 groups {x, h, y} under weight a and {g} under
        // b; filter k2 has the sub-activation group {x, h} (weight c) inside
        // k1's a-group, plus {y} under a and {g} under d. The shared x+h sum
        // is computed once.
        // Positions 0..3 = x, y, h, g; weights a=1, b=2, c=3, d=4.
        let k1 = [1i16, 1, 1, 2]; // a(x+y+h) + b(g)
        let k2 = [3i16, 1, 3, 4]; // c(x+h) + a(y) + d(g)
        let stream = GroupStream::build(&[&k1, &k2]);
        let acts = [10i16, 20, 30, 40];
        let sums = stream.dot_group(&acts);
        assert_eq!(sums[0], 1 * (10 + 20 + 30) + 2 * 40);
        assert_eq!(sums[1], 3 * (10 + 30) + 1 * 20 + 4 * 40);
        // Independent factorized walks would read x and h twice each (once
        // per filter); sharing saves those re-reads.
        assert!(stream.shared_reads_saved() >= 2);
    }

    #[test]
    fn zero_positions_dropped_only_when_zero_in_all_filters() {
        let k1 = [1i16, 0, 0, 2];
        let k2 = [0i16, 1, 0, 2];
        let stream = GroupStream::build(&[&k1, &k2]);
        // Position 2 is zero in both → dropped. Positions 0 and 1 stay.
        assert_eq!(stream.entry_count(), 3);
        assert_eq!(stream.dropped_zero_positions(), 1);
        let acts = [5i16, 7, 1000, 11];
        assert_eq!(stream.dot_group(&acts), vec![5 + 2 * 11, 7 + 2 * 11]);
    }

    #[test]
    fn g1_degenerates_to_plain_factorization() {
        let w = [3i16, 0, 3, 5, 0, 5, 5];
        let stream = GroupStream::build(&[&w]);
        assert_eq!(stream.entry_count(), 5);
        assert_eq!(stream.multiplies(), 2);
        let acts = [1i16, 2, 3, 4, 5, 6, 7];
        let expected: i32 = w
            .iter()
            .zip(&acts)
            .map(|(&a, &b)| i32::from(a) * i32::from(b))
            .sum();
        assert_eq!(stream.dot_group(&acts), vec![expected]);
    }

    #[test]
    fn g3_nested_grouping_matches_dense() {
        // Three filters over a 27-weight tile, alphabet {1,2,3}: recursion
        // depth 3.
        let mut k1 = Vec::new();
        let mut k2 = Vec::new();
        let mut k3 = Vec::new();
        for i in 0..27i32 {
            k1.push((i / 9 + 1) as i16);
            k2.push((i / 3 % 3 + 1) as i16);
            k3.push((i % 3 + 1) as i16);
        }
        let stream = GroupStream::build(&[&k1, &k2, &k3]);
        let acts: Vec<i16> = (0..27).map(|i| (i * 7 % 23) as i16).collect();
        let dense = |f: &[i16]| -> i32 {
            f.iter()
                .zip(&acts)
                .map(|(&w, &x)| i32::from(w) * i32::from(x))
                .sum()
        };
        assert_eq!(
            stream.dot_group(&acts),
            vec![dense(&k1), dense(&k2), dense(&k3)]
        );
        // k1 has 3 groups; k2 up to 9 sub-groups; k3 up to 27.
        assert_eq!(stream.closures_at_level(0), 3);
        assert_eq!(stream.closures_at_level(1), 9);
        assert_eq!(stream.closures_at_level(2), 27);
    }

    #[test]
    fn closures_nest() {
        // A closure at level l implies closures at all deeper levels: the
        // close_level encoding guarantees it; spot-check run lengths.
        let k1 = [1i16, 1, 2, 2, 3, 3];
        let k2 = [1i16, 2, 1, 2, 1, 2];
        let stream = GroupStream::build(&[&k1, &k2]);
        for e in stream.entries() {
            if let Some(l) = e.close_level {
                assert!(l as usize <= 1);
            }
        }
        // Last entry always closes level 0.
        let last = stream.entry(stream.entry_count() - 1);
        assert_eq!(last.close_level, Some(0));
    }

    #[test]
    fn multiplies_with_cap_splits_long_runs() {
        let w = vec![4i16; 64];
        let stream = GroupStream::build(&[&w]);
        assert_eq!(stream.multiplies(), 1);
        assert_eq!(stream.multiplies_with_cap(16), 4);
        assert_eq!(stream.multiplies_with_cap(64), 1);
    }

    #[test]
    fn canonical_weights_ascending_distinct() {
        let k1 = [5i16, -3, 0, 5];
        let k2 = [7i16, -3, 0, 0];
        assert_eq!(canonical_weights(&[&k1, &k2]), vec![-3, 5, 7]);
    }

    #[test]
    fn layer_wide_canonical_allows_absent_weights() {
        // A tile may not contain every canonical weight; ranks stay stable.
        let w = [2i16, 2, 8, 8];
        let stream = GroupStream::build_with_canonical(&[&w], &[2, 4, 8]);
        let acts = [1i16, 1, 1, 1];
        assert_eq!(stream.dot_group(&acts), vec![2 * 2 + 8 * 2]);

        // One builder, tile after tile — longer, shorter, other `G`s, the
        // ends of the `i16` range (the table is indexed by `w as u16`) —
        // builds what a fresh one does: nothing of a tile is left in the
        // reused rank matrix, order or counts.
        let canonical = [i16::MIN, -3, 2, 4, 8, i16::MAX];
        let k1 = [i16::MAX, 0, i16::MIN, 2, 2, -3, 0, 8, i16::MIN];
        let k2 = [0i16, 0, i16::MIN, 8, 2, -3, 0, 8, i16::MAX];
        let mut builder = StreamBuilder::new(&canonical);
        assert_eq!(builder.canonical(), canonical);
        let tiles: [&[&[i16]]; 5] = [
            &[&k1, &k2],
            &[&w],
            &[&k2[..3], &k1[..3], &k2[3..6]],
            &[&k2],
            &[&k1, &k2],
        ];
        for filters in tiles {
            let one_shot = GroupStream::build_with_canonical(filters, &canonical);
            assert_eq!(builder.build(filters), one_shot);
            let acts: Vec<i16> = (0..one_shot.tile_len() as i16).map(|i| 7 - 3 * i).collect();
            let dense = |f: &&[i16]| {
                let products = f
                    .iter()
                    .zip(&acts)
                    .map(|(&w, &x)| i32::from(w) * i32::from(x));
                products.fold(0i32, i32::wrapping_add)
            };
            let expected: Vec<i32> = filters.iter().map(dense).collect();
            assert_eq!(one_shot.dot_group(&acts), expected);
        }
    }

    #[test]
    #[should_panic(expected = "missing from canonical")]
    fn unknown_weight_panics() {
        // Through a builder that has built before: the table says so.
        let mut builder = StreamBuilder::new(&[1, 2]);
        assert_eq!(builder.build(&[&[2, 1]]).entry_count(), 2);
        let w = [1i16, 9];
        let _ = builder.build(&[&w]);
    }

    #[test]
    #[should_panic(expected = "G = 256 exceeds 255: a close level is a byte")]
    fn a_stream_of_256_filters_panics() {
        // Level 255 would be stored as `NO_CLOSE`: the innermost close of
        // a band of 256 filters would read as none.
        let mut filters = vec![&[1i16, 1][..]; MAX_G];
        filters.push(&[1, 2]);
        let _ = GroupStream::build(&filters);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_tiles_panic() {
        let k1 = [1i16, 2];
        let k2 = [1i16];
        let _ = GroupStream::build(&[&k1, &k2]);
    }

    #[test]
    fn all_zero_tile_yields_empty_stream() {
        let k1 = [0i16; 4];
        let k2 = [0i16; 4];
        let stream = GroupStream::build(&[&k1, &k2]);
        assert_eq!(stream.entry_count(), 0);
        assert_eq!(stream.dot_group(&[1, 2, 3, 4]), vec![0, 0]);
        // And after a tile that was not: every position is dropped again.
        let mut builder = StreamBuilder::new(&[5]);
        assert_eq!(
            builder.build(&[&[5, 0, 5, 5], &[0, 0, 5, 0]]).entry_count(),
            3
        );
        let empty = builder.build(&[&k1, &k2]);
        assert_eq!(empty, GroupStream::build_with_canonical(&[&k1, &k2], &[5]));
        assert_eq!(
            (empty.entry_count(), empty.dropped_zero_positions()),
            (0, 4)
        );
    }
}
