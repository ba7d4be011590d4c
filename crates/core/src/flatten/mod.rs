//! Branch-free flattened lowering of retained streams — the compile-time
//! form behind [`BackendKind::FlattenedBatch`](crate::backend::BackendKind).
//!
//! [`run_compiled`](crate::exec::run_compiled()) walks a
//! [`GroupStream`](crate::hierarchy::GroupStream) entry by entry: every
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
//! # Layout
//!
//! The tables are built once and walked by a separate datapath, as in the
//! paper (§IV):
//!
//! * `lower.rs` — lowering: a tile's stream becomes a [`FlattenedTile`]
//!   (gather offsets, close records, outer segments) in an order chosen
//!   from counts alone, or a layer's weights become its dense tiles.
//! * `kernel.rs` — the datapath: the shared strip bodies (walks and dense
//!   tiles), their `#[target_feature]` tier kernels and the `avx512` tier's
//!   two `vpdpwssd` bodies (the crate's only `unsafe`, reached through a
//!   tier token only detection can mint), and the strip shapes a chunk
//!   runs.
//! * `scratch.rs` — the cache-line-aligned row buffers, the arena that
//!   holds them and the calling thread's arena.
//! * `network.rs` — the chunk-major driver: staging in and out of the lane
//!   layout, filter bands, the epilogue, pooling, and [`run_stages`], the
//!   one entry point that takes a tier.
//! * `oracle.rs` (tests only) — the referee: layer cases drawn from one
//!   `u64` seed each, run through every backend and every tier, held to the
//!   dense reference (`reference::conv2d`, then `relu_saturate`).
//!
//! # Lowering owns the order of the walk
//!
//! Lane sums are wrapping `i32` — a ring — so the walk need not be the
//! stream's: any order, grouping or sharing that keeps `Σ x·w` per filter
//! gives **bit-identical** outputs (the conformance corpus and the seeded
//! equivalence oracle hold every walk to the dense reference), and
//! UCNN's argument (§III) — zero-skipping is only the special case of reusing
//! *repeated* weights — goes one step further than exact repetition.
//! `lower_layer` chooses, from counts alone:
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
//! * **Dense tiles.** A `G`-level hierarchy pays closes, kept rows and
//!   outer segments to share gathers. Where that costs more, summed over a
//!   layer, than its **dense tiles** (LeNet's conv1: 74 entries in 63
//!   closes a tile, R·S·C = 75 against INQ's U = 17), the layer is those
//!   tiles. A dense tile is two filters of one conv group (the last of an
//!   odd group alone), whatever `G` is: per pair-tap `(2c, 2c + 1, r, s)`
//!   where either holds a weight, one gather offset and both filters'
//!   packed `(w_2c, w_2c+1)` `i16` pairs, no closes, kept rows or segments
//!   — one load and one multiply-add per filter a pair-tap
//!   (`WalkCounts::dense`, in the same units as the walk's
//!   `WalkCounts::cost`). They are filled straight from the layer's
//!   weights, for the election and for the dense yardstick alike. A
//!   layer's input has one staged layout, so a layer is all walks or all
//!   dense tiles, one election per layer (a tie keeps the walks): `G`
//!   shapes only the walks. The same pass over the weights bounds the
//!   walks' cost from below (`2·entries` plus one close per tile that reads
//!   any), so a layer whose bound already exceeds its dense tiles' price
//!   elects them without building a stream; only where the bound does not
//!   settle it are the streams built and the walks read, priced and
//!   lowered until they lose, and a layer whose walks win builds no dense
//!   tile.
//!
//! Tiles walked once per chunk (every fully connected layer) keep the
//! stream's order and sharing.
//!
//! A tile is read once, into its stream's innermost groups, and both of its
//! walks are counted by one rule: per walk, a key tuple per group in walk
//! order, a close wherever the next group's tuple differs (at the first
//! level where it does), a kept row per close of an outer level, and an
//! outer segment per outer group whose key is not zero. Which prefixes of
//! a tile's weight tuples occur fixes those counts, whatever the order, so
//! the tests recount every tile from its weights alone (`check_lowering`).
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
//! per-image walk would do the opposite over a batch — every image re-paying
//! every gather offset and segment bound.
//! [`run_stages`] is the software analog of the hardware's lane sharing:
//! the batch is cut into chunks of interleaved images
//! (`input[off · LW + lane]`, planar offset major, image lane minor), and
//! both phases run as straight-line loops over contiguous `LW`-wide strips
//! (`i16`→`i32` widening adds, one broadcast multiply per close or
//! segment). Every gather offset, close record and CSR segment range is
//! read **once per output position** and feeds all `LW` images.
//!
//! On `avx512` a strip of 32 lanes or more gathers on `vpdpwssd` (AVX-512
//! VNNI): one instruction widens 32 staged `i16` lanes, multiplies them by
//! the sub-run's sign and adds them into two `i32` registers, even lanes in
//! one and odd lanes in the other. The sums keep that register order
//! through the close block, the kept prefix rows and phase 2, all
//! lane-wise, and return to lane order where they are added to the band.
//!
//! A dense layer's input is staged two channels to a lane: each `i32` lane
//! holds `(x_2c, x_2c+1)` of one image (a zero channel after an odd `C`),
//! in the arena's plane, at every chunk width and in every row-shifted
//! copy — a first layer straight from the images, a later one by pairing
//! its producer's plane in place. Each lane then adds
//! `x_2c·w_2c + x_2c+1·w_2c+1` per filter (`pmaddwd`'s arithmetic); on
//! `avx512` each 64-byte load of a pair-tap's strip feeds one `vpdpwssd` per
//! filter slot of the tile, both in one pass, and every sum is stored
//! once, so a dense tile's planes are not zeroed first.
//!
//! The chunk width and codegen follow the dispatched
//! [`SimdTier`](crate::simd::SimdTier) ([`simd`](crate::simd)): the
//! `scalar` tier keeps the historical 8-image chunks under baseline
//! codegen, while the `avx2` / `avx512` tiers interleave 16/32 images and
//! run the same walk inside `#[target_feature]`-gated kernels so the
//! compiler emits full-width 256/512-bit arithmetic. Per lane the i32
//! operation sequence is identical at every width and every tier, so
//! outputs stay bit-identical across all of them — the dense reference is
//! the referee, through the golden conformance corpus and the seeded
//! equivalence oracle.
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
//! A batch is cut into chunks of the tier's width, then 16, then 8 images,
//! then the rest as one chunk of `b < 8`, staged at pitch 8 like a chunk of
//! eight: its lanes hold `⌊8/b⌋` copies of each image, copy `v` moved up by
//! `v·k` output rows, so every copy walks `k` rows of the same plan and a
//! band's sums return to their real rows on the way into the consumer's
//! plane (`Lanes`). A chunk takes as many positions per strip as the tier's
//! registers hold
//! ([`SimdTier::strip_lanes`](crate::simd::SimdTier::strip_lanes): 128
//! lanes on `avx512`, so 4 positions × 32 images or 16 × 8; 32 lanes
//! elsewhere) and works down an output row by powers of two — a function of
//! the pitch and the layer's geometry alone (`strip_runs`); layers with
//! `stride > 1` (a row's reads are not contiguous) or one position per
//! output row (fully connected) take one position per strip.
//!
//! # Filter bands and the chunk-major pipeline
//!
//! The lane-major sums are staged one **filter band** at a time — the
//! tiles that share a `k_first`: a walk's channel tiles over `G` filters or
//! one dense tile's two, i.e. `g · out_w · out_h · LW` `i32`s rather than
//! the whole layer's `K · …` — so a band stays
//! cache-resident between the kernel that fills it and whatever drains it.
//! A whole network ([`BackendKind::FlattenedBatch`](crate::backend::BackendKind)
//! through `CompiledNetwork::forward*`) runs **chunk-major**: each lane
//! chunk is transposed into the lane layout once, runs every stage there —
//! a finished band enters its consumer's zero-haloed plane clamped to
//! `0..=i16::MAX` and narrowed (the reference's `relu_saturate`), pooling is
//! an `LW`-wide max / widening sum over rows, a pool that directly follows
//! a convolution runs on each finished band — and is transposed out once,
//! into the caller's `i32` tensors. A layer alone is a one-stage list, the
//! same pieces with nothing between them: stage → bands → scatter.
//!
//! Scratch (two activation planes, the kept-close prefix lanes, the band's
//! lane-major sums) lives in an arena. Every buffer the strip kernel walks
//! as `LW`-wide rows starts its rows on a 64-byte boundary, so a 32-lane row
//! is whole cache lines by construction instead of by where the allocator
//! happened to put it. Every calling thread keeps one arena, and a forward
//! runs on the thread that called it, so a serving worker's steady-state
//! hot path allocates its output tensors and nothing else.

mod kernel;
mod lower;
mod network;
#[cfg(test)]
mod oracle;
mod scratch;

pub use lower::FlattenedTile;
pub use network::run_stages;

pub(crate) use lower::{lower_dense, lower_layer, walked_once};
pub(crate) use network::Dims;
