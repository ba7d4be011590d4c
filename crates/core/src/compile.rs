//! Layer compiler: turns a layer's weight tensor into per-tile
//! [`GroupStream`]s and the aggregate statistics the accelerator simulator
//! consumes (entry counts, bubbles, multiplier dispatches, table bits).
//!
//! The PE dataflow (paper Figure 8) works on `R·S·Ct` channel tiles; this
//! module mirrors that: each *work unit* is a group of `G` filters, compiled
//! tile by tile. Streams are transient — only statistics are retained — so
//! compiling ResNet-50-sized layers stays cheap in memory.

use ucnn_tensor::Tensor4;

use crate::encoding::{table_cost, weight_value_bits, EncodingParams, TableCost};
use crate::hierarchy::{GroupStream, StreamBuilder, ZERO_RANK};

/// Compile-time configuration for UCNN layer plans.
///
/// Defaults follow the paper: channel tile `Ct = 64`, maximum activation
/// group size 16, pointer-encoded tables, 16-bit weights.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UcnnConfig {
    /// Filters sharing one input indirection table, `1 ≤ G ≤ 255`: a
    /// stream's close level is a byte, and compiling a plan or building a
    /// stream over more filters panics.
    pub g: usize,
    /// Channel tile size `Ct` — the PE's input buffer (§IV). Must be positive;
    /// values larger than a layer's `C` are clamped per layer (see
    /// [`UcnnConfig::effective_ct`]); a compiled plan's FC layers are one tile
    /// whatever `Ct` ([`CompiledLayer::compile`](crate::plan::CompiledLayer::compile)).
    pub ct: usize,
    /// Maximum activation-group size before an early multiply is forced
    /// (§IV-B; the paper provisions 16).
    pub group_cap: usize,
    /// Weight precision in bits (8 or 16 in the paper's evaluation).
    pub weight_bits: u32,
    /// Table encoding parameters.
    pub encoding: EncodingParams,
}

impl Default for UcnnConfig {
    fn default() -> Self {
        Self {
            g: 1,
            ct: 64,
            group_cap: 16,
            weight_bits: 16,
            encoding: EncodingParams::default(),
        }
    }
}

impl UcnnConfig {
    /// Convenience constructor for a given `G`.
    ///
    /// # Panics
    ///
    /// Panics if `g == 0`.
    #[must_use]
    pub fn with_g(g: usize) -> Self {
        assert!(g > 0, "G must be positive");
        Self {
            g,
            ..Self::default()
        }
    }

    /// The channel tile size actually used for a layer with `c` input
    /// channels: `ct` clamped down to `c`.
    ///
    /// Clamping is a contract, not an accident: one config is shared across
    /// a whole network, so the default `Ct = 64` must also work for a
    /// 3-channel first layer. Every compile/execute entry point routes its
    /// tiling through this method so the behavior stays uniform.
    ///
    /// # Panics
    ///
    /// Panics if `self.ct == 0` (a zero tile cannot cover any channel
    /// range) or if `c == 0`.
    #[must_use]
    pub fn effective_ct(&self, c: usize) -> usize {
        assert!(
            self.ct > 0,
            "UcnnConfig::ct must be positive: Ct = 0 cannot tile channels"
        );
        assert!(c > 0, "layer channel count must be positive");
        self.ct.min(c)
    }
}

/// Statistics for one compiled tile (also used as an accumulator across
/// tiles and units).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Real `iiT` entries (input-buffer reads; one PE cycle each).
    pub entries: usize,
    /// Bubble entries: weight-pointer skips plus jump hops.
    pub bubbles: usize,
    /// Multiplier dispatches (group-cap splits included).
    pub multiplies: usize,
    /// Stall cycles from >1 multiply dispatched in the same cycle against
    /// one shared per-lane multiplier.
    pub stall_cycles: usize,
    /// Group closures across all levels (zero-weight closures included).
    pub closures: usize,
    /// Weight-buffer reads (one per non-zero closure; §IV-B "each weight …
    /// read out once per activation group").
    pub weight_buffer_reads: usize,
    /// Accumulator additions (one per entry plus one per outer-level merge).
    pub adds: usize,
    /// Input-buffer reads saved versus `G` independent walks.
    pub shared_reads_saved: usize,
    /// Table storage bits for this tile (`iiT` + `wiT`, bubbles included).
    pub table_bits: usize,
}

impl TileStats {
    /// Cycles for one walk of this tile's stream by a UCNN lane:
    /// entries + bubbles + stalls.
    #[must_use]
    pub fn walk_cycles(&self) -> usize {
        self.entries + self.bubbles + self.stall_cycles
    }

    fn add(&mut self, other: &TileStats) {
        self.entries += other.entries;
        self.bubbles += other.bubbles;
        self.multiplies += other.multiplies;
        self.stall_cycles += other.stall_cycles;
        self.closures += other.closures;
        self.weight_buffer_reads += other.weight_buffer_reads;
        self.adds += other.adds;
        self.shared_reads_saved += other.shared_reads_saved;
        self.table_bits += other.table_bits;
    }
}

/// One work unit: a group of `G` (or fewer, for the ragged tail) filters,
/// aggregated over all channel tiles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitStats {
    /// First filter index of the group.
    pub first_filter: usize,
    /// Number of filters in this group (≤ `G`).
    pub filters: usize,
    /// Aggregated stream statistics.
    pub stats: TileStats,
}

/// A compiled layer: per-unit statistics plus totals, ready for the
/// performance/energy model.
///
/// # Examples
///
/// ```
/// use ucnn_core::compile::{compile_layer, UcnnConfig};
/// use ucnn_tensor::Tensor4;
///
/// let weights = Tensor4::from_fn(4, 8, 3, 3, |k, c, r, s| ((k + c + r + s) % 5) as i16);
/// let plan = compile_layer(&weights, &UcnnConfig::with_g(2));
/// assert_eq!(plan.units().len(), 2); // 4 filters / G=2
/// assert!(plan.bits_per_weight() > 0.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LayerPlan {
    config: UcnnConfig,
    k: usize,
    filter_size: usize,
    u_layer: usize,
    units: Vec<UnitStats>,
    totals: TileStats,
    nonzero_weights: usize,
    scale: f64,
}

impl LayerPlan {
    /// The configuration this plan was compiled with.
    #[must_use]
    pub fn config(&self) -> &UcnnConfig {
        &self.config
    }

    /// Filter count `K` of the layer.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Weights per filter (`R·S·C`).
    #[must_use]
    pub fn filter_size(&self) -> usize {
        self.filter_size
    }

    /// Unique weights in the layer, counting zero (`U`).
    #[must_use]
    pub fn u(&self) -> usize {
        self.u_layer
    }

    /// Per-work-unit statistics (one per filter group actually compiled).
    #[must_use]
    pub fn units(&self) -> &[UnitStats] {
        &self.units
    }

    /// Totals across units, scaled up if the plan was sampled.
    #[must_use]
    pub fn totals(&self) -> TileStats {
        if self.scale == 1.0 {
            self.totals
        } else {
            scale_stats(&self.totals, self.scale)
        }
    }

    /// Total dense weights `K·R·S·C`.
    #[must_use]
    pub fn dense_weights(&self) -> usize {
        self.k * self.filter_size
    }

    /// Non-zero weights in the layer (always exact, even when sampled).
    #[must_use]
    pub fn nonzero_weights(&self) -> usize {
        self.nonzero_weights
    }

    /// DRAM footprint of the compiled model for this layer, in bits:
    /// tables plus the unique weight values.
    #[must_use]
    pub fn model_bits(&self) -> usize {
        self.totals().table_bits
            + weight_value_bits(self.u_layer.saturating_sub(1), self.config.weight_bits)
    }

    /// Model bits normalized per dense weight — the y-axis of Figure 13.
    #[must_use]
    pub fn bits_per_weight(&self) -> f64 {
        self.model_bits() as f64 / self.dense_weights() as f64
    }

    /// Sampling factor applied to totals (1.0 = fully compiled).
    #[must_use]
    pub fn sample_scale(&self) -> f64 {
        self.scale
    }
}

fn scale_stats(s: &TileStats, f: f64) -> TileStats {
    let sc = |v: usize| (v as f64 * f).round() as usize;
    TileStats {
        entries: sc(s.entries),
        bubbles: sc(s.bubbles),
        multiplies: sc(s.multiplies),
        stall_cycles: sc(s.stall_cycles),
        closures: sc(s.closures),
        weight_buffer_reads: sc(s.weight_buffer_reads),
        adds: sc(s.adds),
        shared_reads_saved: sc(s.shared_reads_saved),
        table_bits: sc(s.table_bits),
    }
}

/// Compiles every filter group of a layer.
#[must_use]
pub fn compile_layer(weights: &Tensor4<i16>, config: &UcnnConfig) -> LayerPlan {
    compile_layer_sampled(weights, config, usize::MAX)
}

/// Compiles at most `max_units` filter groups and linearly extrapolates the
/// totals — used by the benchmark harness to keep full-network sweeps fast.
/// Per-unit statistics cover only the compiled prefix.
///
/// # Panics
///
/// Panics if `config.g == 0`, `config.ct == 0`, or `config.group_cap == 0`.
#[must_use]
pub fn compile_layer_sampled(
    weights: &Tensor4<i16>,
    config: &UcnnConfig,
    max_units: usize,
) -> LayerPlan {
    assert!(config.g > 0, "G must be positive");
    assert!(config.group_cap > 0, "group cap must be positive");

    let mut builder = canonical_of_tensor(weights);
    let u_layer = builder.canonical().len() + 1;
    let k = weights.k();
    let rs = weights.r() * weights.s();
    let c = weights.c();
    let ct = config.effective_ct(c);

    let total_units = k.div_ceil(config.g);
    let units_to_compile = total_units.min(max_units.max(1));

    let mut units = Vec::with_capacity(units_to_compile);
    let mut totals = TileStats::default();
    let mut slices: Vec<&[i16]> = Vec::with_capacity(config.g);
    for unit in 0..units_to_compile {
        let first = unit * config.g;
        let last = (first + config.g).min(k);
        let mut stats = TileStats::default();
        let mut c0 = 0usize;
        while c0 < c {
            let c1 = (c0 + ct).min(c);
            slices.clear();
            slices.extend((first..last).map(|ki| &weights.filter(ki)[c0 * rs..c1 * rs]));
            let stream = builder.build(&slices);
            let tile = tile_stats(&stream, config);
            stats.add(&tile);
            c0 = c1;
        }
        totals.add(&stats);
        units.push(UnitStats {
            first_filter: first,
            filters: last - first,
            stats,
        });
    }

    let compiled_filters: usize = units.iter().map(|u| u.filters).sum();
    let scale = k as f64 / compiled_filters as f64;
    // The non-zero count is exact regardless of sampling (cheap to compute).
    let nonzero_weights = weights.as_slice().iter().filter(|&&w| w != 0).count();

    LayerPlan {
        config: *config,
        k,
        filter_size: weights.filter_size(),
        u_layer,
        units,
        totals,
        nonzero_weights,
        scale,
    }
}

/// The stream builder of a whole tensor: its canonical non-zero weight
/// order (ascending) — computed with a flat presence table over the span of
/// values the tensor holds, for speed on multi-million-weight layers — and
/// the weight → rank table every tile is then built through.
#[must_use]
pub fn canonical_of_tensor(weights: &Tensor4<i16>) -> StreamBuilder {
    canonical_of(weights.as_slice())
}

/// [`canonical_of_tensor`] of a tensor's backing storage.
pub(crate) fn canonical_of(values: &[i16]) -> StreamBuilder {
    let (lo, hi) = values
        .iter()
        .fold((0i16, 0i16), |(lo, hi), &w| (lo.min(w), hi.max(w)));
    let mut present = vec![false; usize::from(hi.abs_diff(lo)) + 1];
    for &w in values {
        present[usize::from(w.abs_diff(lo))] = true;
    }
    present[usize::from(0i16.abs_diff(lo))] = false; // drop zero
    let held = (lo..=hi).zip(&present).filter(|(_, &p)| p);
    StreamBuilder::new(&held.map(|(w, _)| w).collect::<Vec<i16>>())
}

/// Walks one stream collecting the statistics the simulator needs.
///
/// Multiplier-dispatch timing model (for the stall count): a lane owns one
/// multiplier (§VI-E: "multiplexes a single MAC unit between G filters").
///
/// * Mid-group, the innermost accumulation dispatches an *early* multiply
///   each time its run crosses the group cap — alone in its cycle.
/// * At a closure entry, every closing level with a non-zero weight
///   dispatches one multiply (outer levels additionally dispatch their own
///   cap chunks there). More than one dispatch in the same cycle stalls the
///   entry stream by the excess.
fn tile_stats(stream: &GroupStream, config: &UcnnConfig) -> TileStats {
    let g = stream.g();
    let cap = config.group_cap;
    let cost: TableCost = table_cost(stream, &config.encoding);

    let mut multiplies = 0usize;
    let mut stall_cycles = 0usize;
    let mut closures = 0usize;
    let mut weight_buffer_reads = 0usize;
    let mut adds = 0usize;
    // run[level]: entries accumulated in the current level-`level` group.
    let mut run = vec![0usize; g];
    for i in 0..stream.entry_count() {
        let e = stream.entry(i);
        adds += 1; // accumulator ② add
        for r in &mut run {
            *r += 1;
        }
        let mut dispatches = 0usize;
        match e.close_level {
            None => {
                // Innermost early MAC when the run crosses the cap mid-group
                // (only meaningful if the group's weight is non-zero).
                if run[g - 1].is_multiple_of(cap) && e.ranks[g - 1] != ZERO_RANK {
                    dispatches += 1;
                    multiplies += 1;
                }
            }
            Some(cl) => {
                for (level, r) in run.iter_mut().enumerate().skip(cl as usize) {
                    closures += 1;
                    if level < g - 1 {
                        adds += 1; // accumulator ③ merge
                    }
                    if e.ranks[level] != ZERO_RANK {
                        weight_buffer_reads += 1;
                        let here = if level == g - 1 {
                            // Earlier chunks already dispatched mid-run;
                            // the final chunk fires now.
                            1
                        } else {
                            r.div_ceil(cap)
                        };
                        dispatches += here;
                        multiplies += here;
                    }
                    *r = 0;
                }
            }
        }
        if dispatches > 1 {
            stall_cycles += dispatches - 1;
        }
    }
    debug_assert_eq!(
        multiplies,
        stream.multiplies_with_cap(cap),
        "dispatch accounting must agree with the closed-form capped count"
    );

    TileStats {
        entries: stream.entry_count(),
        bubbles: cost.skip_entries + cost.hop_entries,
        multiplies,
        stall_cycles,
        closures,
        weight_buffer_reads,
        adds,
        shared_reads_saved: stream.shared_reads_saved(),
        table_bits: cost.table_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucnn_tensor::Tensor4;

    fn checker_weights(k: usize, c: usize, u: usize) -> Tensor4<i16> {
        Tensor4::from_fn(k, c, 3, 3, |ki, ci, r, s| {
            let v = (ki * 7 + ci * 3 + r * 5 + s) % u;
            v as i16 // 0 appears → sparsity
        })
    }

    #[test]
    fn unit_partitioning_handles_ragged_k() {
        let w = checker_weights(5, 4, 4);
        let plan = compile_layer(&w, &UcnnConfig::with_g(2));
        assert_eq!(plan.units().len(), 3);
        assert_eq!(plan.units()[2].filters, 1);
        assert_eq!(plan.sample_scale(), 1.0);
    }

    #[test]
    fn totals_accumulate_over_units_and_tiles() {
        let w = checker_weights(4, 8, 5);
        let cfg = UcnnConfig {
            ct: 4, // 2 channel tiles
            ..UcnnConfig::with_g(1)
        };
        let plan = compile_layer(&w, &cfg);
        let from_units: usize = plan.units().iter().map(|u| u.stats.entries).sum();
        assert_eq!(plan.totals().entries, from_units);
        // Entries = non-zero weights for G = 1.
        assert_eq!(plan.totals().entries, plan.nonzero_weights());
    }

    #[test]
    fn g2_entries_are_union_of_nonzeros() {
        // G=2 entries ≥ per-filter nonzeros/filter but ≤ sum.
        let w = checker_weights(4, 8, 5);
        let g1 = compile_layer(&w, &UcnnConfig::with_g(1));
        let g2 = compile_layer(&w, &UcnnConfig::with_g(2));
        assert!(g2.totals().entries <= g1.totals().entries);
        assert!(g2.totals().entries * 2 >= g1.totals().entries);
    }

    #[test]
    fn model_bits_shrink_with_g() {
        let w = checker_weights(8, 16, 9);
        let g1 = compile_layer(&w, &UcnnConfig::with_g(1));
        let g2 = compile_layer(&w, &UcnnConfig::with_g(2));
        let g4 = compile_layer(&w, &UcnnConfig::with_g(4));
        assert!(g2.bits_per_weight() < g1.bits_per_weight());
        assert!(g4.bits_per_weight() < g2.bits_per_weight());
    }

    #[test]
    fn u_counts_zero() {
        let w = checker_weights(2, 4, 6); // values 0..5
        let plan = compile_layer(&w, &UcnnConfig::default());
        assert_eq!(plan.u(), 6);
    }

    #[test]
    fn sampling_extrapolates_totals() {
        let w = checker_weights(8, 8, 5);
        let full = compile_layer(&w, &UcnnConfig::with_g(1));
        let sampled = compile_layer_sampled(&w, &UcnnConfig::with_g(1), 4);
        assert_eq!(sampled.units().len(), 4);
        assert!((sampled.sample_scale() - 2.0).abs() < 1e-12);
        // Extrapolated totals approximate the full compile (within a few %
        // for this near-uniform weight pattern).
        let ratio = sampled.totals().entries as f64 / full.totals().entries as f64;
        assert!((0.95..1.05).contains(&ratio), "ratio = {ratio}");
        // The non-zero weight count is exact regardless of sampling.
        assert_eq!(sampled.nonzero_weights(), full.nonzero_weights());
    }

    #[test]
    fn ct_larger_than_c_is_clamped() {
        // Ct beyond the layer's C compiles exactly like Ct = C: one tile.
        let w = checker_weights(2, 4, 4);
        let oversized = compile_layer(
            &w,
            &UcnnConfig {
                ct: 1024,
                ..UcnnConfig::default()
            },
        );
        let exact = compile_layer(
            &w,
            &UcnnConfig {
                ct: 4,
                ..UcnnConfig::default()
            },
        );
        assert!(oversized.totals().entries > 0);
        assert_eq!(oversized.totals(), exact.totals());
        assert_eq!(oversized.units(), exact.units());
    }

    #[test]
    fn effective_ct_clamps_to_c() {
        let cfg = UcnnConfig::default(); // ct = 64
        assert_eq!(cfg.effective_ct(3), 3);
        assert_eq!(cfg.effective_ct(64), 64);
        assert_eq!(cfg.effective_ct(200), 64);
    }

    #[test]
    #[should_panic(expected = "Ct = 0 cannot tile channels")]
    fn zero_ct_is_rejected() {
        let w = checker_weights(2, 4, 4);
        let _ = compile_layer(
            &w,
            &UcnnConfig {
                ct: 0,
                ..UcnnConfig::default()
            },
        );
    }

    #[test]
    fn dense_layer_has_no_bubbles_at_g1() {
        let w = Tensor4::from_fn(2, 8, 3, 3, |_, c, r, s| ((c + r + s) % 4 + 1) as i16);
        let plan = compile_layer(&w, &UcnnConfig::with_g(1));
        assert_eq!(plan.totals().bubbles, 0);
        assert_eq!(plan.totals().stall_cycles, 0); // one dispatch per closure
        assert_eq!(plan.totals().entries, plan.dense_weights());
    }

    #[test]
    fn g2_simultaneous_closures_cause_stalls() {
        // Filters identical → every k2 sub-closure coincides with nothing
        // extra... use differing filters so k1 closures coincide with k2's.
        let w = Tensor4::from_fn(2, 8, 3, 3, |ki, c, r, s| {
            if ki == 0 {
                ((c / 4) + 1) as i16
            } else {
                ((c + r + s) % 3 + 1) as i16
            }
        });
        let plan = compile_layer(&w, &UcnnConfig::with_g(2));
        // At each k1 group boundary both filters dispatch a multiply.
        assert!(plan.totals().stall_cycles > 0);
    }

    #[test]
    fn multiplies_bounded_by_u_and_cap() {
        let w = checker_weights(4, 16, 9);
        let plan = compile_layer(&w, &UcnnConfig::with_g(1));
        // Per filter: at most (U-1) groups × chunks; here groups ≤ 8 and
        // sizes ≤ 16·9/… — just check global sanity vs dense.
        assert!(plan.totals().multiplies < plan.dense_weights());
        assert!(plan.totals().multiplies >= 4 * 8 / 2);
    }

    #[test]
    fn canonical_of_tensor_matches_btree() {
        let w = checker_weights(3, 5, 7);
        let mut expect: Vec<i16> = w.as_slice().iter().copied().filter(|&v| v != 0).collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(canonical_of_tensor(&w).canonical(), expect);
    }

    #[test]
    fn negative_weights_roundtrip_canonical() {
        let w = Tensor4::from_vec(1, 1, 2, 2, vec![-5i16, 3, -5, 0]).unwrap();
        assert_eq!(canonical_of_tensor(&w).canonical(), [-5, 3]);
        let plan = compile_layer(&w, &UcnnConfig::default());
        assert_eq!(plan.u(), 3);
        assert_eq!(plan.totals().entries, 3);
    }
}
