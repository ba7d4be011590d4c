//! Chip-level cycle and energy model (paper §V, §VI): 32 PEs fed by a
//! shared L2 over multicast buses, with the Figure 8 dataflow —
//! weight-stationary at the L2, output-stationary at the PEs, PEs working on
//! columns of input with halos.
//!
//! ## Event model (per layer)
//!
//! **DRAM** — weights are always read once per layer (dense for DCNN,
//! RLE-compressed for DCNN_sp, indirection tables for UCNN). Activations
//! touch DRAM only when a layer's input or output does not fit the L2
//! activation region (§V-A: "we store all input activations in the L2"
//! whenever possible).
//!
//! **L2 + NoC** — weights stream L2→PE once (multicast across the PEs
//! sharing a filter); each input is re-read once per `Kc`-size filter chunk
//! and once per overlapping column halo (factor `min(R, W')`); outputs are
//! written once. The NoC charges a per-bit transfer cost plus a static
//! per-cycle cost (low-swing differential wires, §VI-A).
//!
//! **PE** — per-event L1/arithmetic counts:
//!
//! * DCNN: one weight-buffer read and one MAC per dense MAC; input reads
//!   amortized across `VK` lanes; DCNN_sp gates the arithmetic (not the
//!   buffer reads) when either operand is zero.
//! * UCNN: per stream entry one `iiT` read (amortized across `VW` lanes),
//!   `VW` banked input reads and `VW` accumulator adds; one weight-buffer
//!   read per activation group; one multiply per (chunked) group closure.
//!   Cycles add table bubbles and multiplier stalls, and the per-PE
//!   makespan accounts for load imbalance across filter groups.

use ucnn_core::compile::{compile_layer_sampled, LayerPlan};
use ucnn_core::encoding::rle_bits_capped;
use ucnn_model::ConvLayer;
use ucnn_tensor::Tensor4;

use crate::config::{ArchConfig, ArchKind};
use crate::energy::{EnergyBreakdown, EnergyModel};

/// Per-layer simulation result.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub layer: String,
    /// Design-point name.
    pub arch: String,
    /// Cycles to completion (load-balanced makespan across PEs).
    pub cycles: f64,
    /// Lower-bound cycles: data entries only, perfectly balanced (no
    /// bubbles, stalls or imbalance) — the "optimistic" model of §VI-C.
    pub ideal_cycles: f64,
    /// Energy broken down as in Figure 9.
    pub energy: EnergyBreakdown,
    /// DRAM bits moved for weights/tables.
    pub dram_weight_bits: f64,
    /// DRAM bits moved for activations (0 when everything fits on chip).
    pub dram_act_bits: f64,
    /// Dense MAC count of the layer.
    pub macs: f64,
    /// Weight-model storage bits (the Figure 13 numerator).
    pub model_bits: f64,
}

impl LayerReport {
    /// Model size in bits per dense weight.
    #[must_use]
    pub fn bits_per_weight(&self, dense_weights: usize) -> f64 {
        self.model_bits / dense_weights as f64
    }
}

/// Sums a set of layer reports into a network-level report.
#[must_use]
pub fn sum_reports(arch: &str, reports: &[LayerReport]) -> LayerReport {
    let mut total = LayerReport {
        layer: "total".to_string(),
        arch: arch.to_string(),
        cycles: 0.0,
        ideal_cycles: 0.0,
        energy: EnergyBreakdown::default(),
        dram_weight_bits: 0.0,
        dram_act_bits: 0.0,
        macs: 0.0,
        model_bits: 0.0,
    };
    for r in reports {
        total.cycles += r.cycles;
        total.ideal_cycles += r.ideal_cycles;
        total.energy = total.energy.plus(&r.energy);
        total.dram_weight_bits += r.dram_weight_bits;
        total.dram_act_bits += r.dram_act_bits;
        total.macs += r.macs;
        total.model_bits += r.model_bits;
    }
    total
}

/// The chip-level simulator for one design point.
#[derive(Clone, Debug)]
pub struct Simulator {
    arch: ArchConfig,
    energy: EnergyModel,
    sample_units: usize,
}

impl Simulator {
    /// Creates a simulator with the default energy model and exact (full)
    /// compilation.
    #[must_use]
    pub fn new(arch: ArchConfig) -> Self {
        Self {
            arch,
            energy: EnergyModel::default(),
            sample_units: usize::MAX,
        }
    }

    /// Limits UCNN compilation to `units` filter groups per layer,
    /// extrapolating totals — used by the sweep harness on large networks.
    #[must_use]
    pub fn with_sampling(mut self, units: usize) -> Self {
        self.sample_units = units.max(1);
        self
    }

    /// The design point being simulated.
    #[must_use]
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Simulates one layer given its weights and the input activation
    /// density (`0.35` is the paper's default).
    ///
    /// # Panics
    ///
    /// Panics if `weights` shape disagrees with `layer`.
    #[must_use]
    pub fn simulate_layer(
        &self,
        layer: &ConvLayer,
        weights: &Tensor4<i16>,
        act_density: f64,
    ) -> LayerReport {
        let geom = layer.geom();
        assert_eq!(weights.k(), geom.k(), "filter count mismatch");
        assert_eq!(weights.c(), geom.c(), "filter channel mismatch");

        match self.arch.kind {
            ArchKind::Dcnn | ArchKind::DcnnSp => self.simulate_dense(layer, weights, act_density),
            ArchKind::Ucnn => self.simulate_ucnn(layer, weights, act_density),
        }
    }

    /// Common traffic quantities shared by both PE families.
    fn traffic(&self, layer: &ConvLayer, weight_storage_bits: f64) -> Traffic {
        let a = &self.arch;
        let geom = layer.geom();
        let input_bits = layer.total_input_count() as f64 * f64::from(a.act_bits);
        let output_bits = layer.total_output_count() as f64 * f64::from(a.act_bits);
        let input_fits = input_bits / 8.0 <= a.l2_act_bytes as f64;
        let output_fits = output_bits / 8.0 <= a.l2_act_bytes as f64;

        // Kc: how many filters' worth of (stored) weights fit the L2 weight
        // region (Figure 8 step A).
        let bits_per_filter = weight_storage_bits / geom.k() as f64;
        let kc = ((a.l2_weight_bytes as f64 * 8.0 / bits_per_filter).floor() as usize)
            .clamp(1, geom.k());
        let k_chunks = geom.k().div_ceil(kc) as f64;

        let halo = geom.r().min(geom.out_w()) as f64;
        let l2_weight_read_bits = weight_storage_bits;
        let l2_input_read_bits = input_bits * halo * k_chunks;
        let l2_output_write_bits = output_bits;

        let dram_act_bits =
            if input_fits { 0.0 } else { input_bits } + if output_fits { 0.0 } else { output_bits };

        Traffic {
            l2_weight_read_bits,
            l2_input_read_bits,
            l2_output_write_bits,
            dram_act_bits,
        }
    }

    /// Folds traffic and PE events into the Figure 9 energy breakdown.
    fn energy_of(
        &self,
        t: &Traffic,
        pe: &PeEvents,
        dram_weight_bits: f64,
        cycles: f64,
    ) -> EnergyBreakdown {
        let a = &self.arch;
        let e = &self.energy;

        let dram_pj = e.dram_pj(dram_weight_bits + t.dram_act_bits);

        let l2_bits = t.l2_weight_read_bits + t.l2_input_read_bits + t.l2_output_write_bits;
        let l2_cap = a.l2_act_bytes + a.l2_weight_bytes;
        let l2_pj_per_bit = e.sram_access_pj(l2_cap, 128) / 128.0;
        let noc_pj = l2_bits * e.noc_pj_per_bit + cycles * e.noc_static_pj_per_cycle;
        let l2_noc_pj = l2_bits * l2_pj_per_bit + noc_pj;

        let input_rd = e.sram_access_pj(a.l1_input_bytes, a.act_bits);
        let weight_rd = e.sram_access_pj(a.l1_weight_bytes, a.weight_bits);
        let psum_rw = e.sram_access_pj(a.l1_psum_bytes, 32);
        let pe_pj = pe.l1_input_reads * input_rd
            + pe.l1_input_writes * input_rd
            + pe.l1_weight_reads * weight_rd
            + pe.l1_weight_writes * weight_rd
            + pe.l1_table_reads * weight_rd
            + pe.psum_accesses * psum_rw
            + pe.mults * e.mult_pj(a.weight_bits)
            + pe.adds * e.add_pj(a.act_bits)
            + pe.wide_adds * e.add_pj(32);

        EnergyBreakdown {
            dram_pj,
            l2_noc_pj,
            pe_pj,
        }
    }

    fn simulate_dense(
        &self,
        layer: &ConvLayer,
        weights: &Tensor4<i16>,
        act_density: f64,
    ) -> LayerReport {
        let a = &self.arch;
        let geom = layer.geom();
        let macs = layer.total_macs() as f64;
        let outputs = layer.total_output_count() as f64;
        let dense_bits = weights.len() as f64 * f64::from(a.weight_bits);
        let weight_density = weights.density();

        let (storage_bits, model_bits) = match a.kind {
            ArchKind::DcnnSp => {
                let bits = rle_bits_capped(weights.as_slice(), a.weight_bits, 5) as f64;
                (bits, bits)
            }
            _ => (dense_bits, dense_bits),
        };

        let t = self.traffic(layer, storage_bits);

        // Cycles: uniform units of (column × VK filters), dense walk.
        let units = geom.out_w() as f64 * (geom.k() as f64 / a.vk as f64).ceil();
        let unit_cost = (geom.filter_size() * geom.out_h()) as f64;
        let rounds = (units / a.pes as f64).ceil();
        let cycles = rounds * unit_cost;

        // Arithmetic gating for DCNN_sp (energy only; §VI-A).
        let gate = match a.kind {
            ArchKind::DcnnSp => weight_density * act_density,
            _ => 1.0,
        };

        let ct_passes = (geom.c() as f64 / a.ct as f64).ceil();
        let pe = PeEvents {
            l1_input_reads: macs / a.vk as f64,
            l1_input_writes: t.l2_input_read_bits / f64::from(a.act_bits),
            l1_weight_reads: macs,
            l1_weight_writes: t.l2_weight_read_bits / f64::from(a.weight_bits),
            l1_table_reads: 0.0,
            psum_accesses: 2.0 * outputs * ct_passes,
            mults: macs * gate,
            adds: 0.0,
            wide_adds: macs * gate,
        };

        let energy = self.energy_of(&t, &pe, storage_bits, cycles);
        LayerReport {
            layer: layer.name().to_string(),
            arch: a.name.clone(),
            cycles,
            ideal_cycles: cycles,
            energy,
            dram_weight_bits: storage_bits,
            dram_act_bits: t.dram_act_bits,
            macs,
            model_bits,
        }
    }

    fn simulate_ucnn(
        &self,
        layer: &ConvLayer,
        weights: &Tensor4<i16>,
        _act_density: f64,
    ) -> LayerReport {
        let a = &self.arch;
        let geom = layer.geom();
        let macs = layer.total_macs() as f64;
        let outputs = layer.total_output_count() as f64;

        // Channel tile: grow Ct for small filters (1×1 layers, FC) so tiles
        // stay ~512 positions — tiny tiles starve the sub-activation groups
        // and explode skip entries, which no real deployment would accept.
        let rs = geom.r() * geom.s();
        let mut cfg = a.ucnn_config();
        cfg.ct = cfg.ct.max((512 / rs).max(1));
        let plan: LayerPlan = compile_layer_sampled(weights, &cfg, self.sample_units);
        let totals = plan.totals();
        let model_bits = plan.model_bits() as f64;

        let t = self.traffic(layer, model_bits);

        // Fully connected layers have a single output position, so spatial
        // vectorization has nothing to feed the VW lanes; the PE instead
        // runs VW filter groups concurrently, one per lane (§IV-E:
        // "convolutions where input buffer slide reuse is disabled").
        let fc_mode = layer.is_fc();
        let vw = a.vw as f64;
        // Walks per (filter-group, tile): one per output position of its
        // VW-wide column group.
        let col_groups = geom.out_w().div_ceil(a.vw) as f64;
        let walks = if fc_mode {
            1.0
        } else {
            col_groups * geom.out_h() as f64
        };
        // Per-lane event expansion: in spatial mode every lane replays the
        // walk on its own column (sharing the iiT read); in FC mode each
        // lane owns a different filter group, so totals already count each
        // event once.
        let lane = if fc_mode { 1.0 } else { vw };

        let pe = PeEvents {
            l1_input_reads: totals.entries as f64 * walks * lane,
            l1_input_writes: t.l2_input_read_bits / f64::from(a.act_bits),
            l1_weight_reads: totals.weight_buffer_reads as f64 * walks,
            l1_weight_writes: t.l2_weight_read_bits / f64::from(a.weight_bits),
            // One iiT read per walk serves all VW lanes (spatial mode); in
            // FC mode each lane walks its own table, counted once in totals.
            l1_table_reads: (totals.entries + totals.bubbles) as f64 * walks,
            psum_accesses: 2.0 * outputs * (geom.c() as f64 / cfg.ct as f64).ceil(),
            mults: totals.multiplies as f64 * walks * lane,
            adds: totals.adds as f64 * walks * lane,
            wide_adds: totals.multiplies as f64 * walks * lane, // MAC accumulate
        };

        // Cycles: per-unit cost = that filter group's walk cycles × H'.
        // Units repeat per column group; distribute LPT over the PEs. In FC
        // mode VW filter groups run concurrently per PE, so the effective
        // unit count shrinks by VW.
        let unit_costs: Vec<f64> = plan
            .units()
            .iter()
            .map(|u| u.stats.walk_cycles() as f64 * geom.out_h() as f64)
            .collect();
        let n_fg = geom.k().div_ceil(a.g);
        let (eff_fg, copies) = if fc_mode {
            (n_fg.div_ceil(a.vw), 1)
        } else {
            (n_fg, col_groups as usize)
        };
        let cycles = lpt_makespan(&unit_costs, eff_fg, copies, a.pes);
        let ideal_cycles = if fc_mode {
            totals.entries as f64 / (vw * a.pes as f64)
        } else {
            totals.entries as f64 * walks / a.pes as f64
        };

        let energy = self.energy_of(&t, &pe, model_bits, cycles);
        LayerReport {
            layer: layer.name().to_string(),
            arch: a.name.clone(),
            cycles,
            ideal_cycles,
            energy,
            dram_weight_bits: model_bits,
            dram_act_bits: t.dram_act_bits,
            macs,
            model_bits,
        }
    }
}

/// L2/DRAM traffic quantities.
struct Traffic {
    l2_weight_read_bits: f64,
    l2_input_read_bits: f64,
    l2_output_write_bits: f64,
    dram_act_bits: f64,
}

/// PE-local event counts (fractional: sampled plans extrapolate).
struct PeEvents {
    l1_input_reads: f64,
    l1_input_writes: f64,
    l1_weight_reads: f64,
    l1_weight_writes: f64,
    l1_table_reads: f64,
    psum_accesses: f64,
    mults: f64,
    adds: f64,
    wide_adds: f64,
}

/// Longest-processing-time makespan of `n_fg` filter-group costs (cycled
/// from the possibly sampled `unit_costs`), each replicated `copies` times
/// (one per column group), across `pes` processors.
fn lpt_makespan(unit_costs: &[f64], n_fg: usize, copies: usize, pes: usize) -> f64 {
    if unit_costs.is_empty() || n_fg == 0 || copies == 0 {
        return 0.0;
    }
    // Expand per-filter-group costs (cycling over the compiled sample).
    let mut units: Vec<f64> = (0..n_fg)
        .map(|i| unit_costs[i % unit_costs.len()])
        .collect();
    units.sort_unstable_by(|x, y| y.partial_cmp(x).unwrap());
    // Each fg repeats `copies` times with identical cost; spreading copies
    // round-robin keeps loads near-equal, so assign in bulk:
    let mut loads = vec![0.0f64; pes];
    for &cost in &units {
        // `copies` identical units: give each PE floor(copies/pes), then the
        // remainder one-by-one to the least-loaded.
        let per_pe = (copies / pes) as f64 * cost;
        for l in &mut loads {
            *l += per_pe;
        }
        for _ in 0..(copies % pes) {
            let idx = loads
                .iter()
                .enumerate()
                .min_by(|x, y| x.1.partial_cmp(y.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            loads[idx] += cost;
        }
    }
    loads.into_iter().fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::evaluation_designs;
    use ucnn_model::{networks, QuantScheme, WeightGen};

    fn lenet_conv3_weights(u: usize, density: f64, seed: u64) -> (ConvLayer, Tensor4<i16>) {
        let net = networks::lenet();
        let layer = net.conv_layer("conv3").unwrap();
        let mut wgen = WeightGen::new(QuantScheme::uniform_unique(u), seed).with_density(density);
        let w = wgen.generate(&layer);
        (layer, w)
    }

    #[test]
    fn dense_cycles_are_macs_over_throughput() {
        let (layer, w) = lenet_conv3_weights(17, 0.9, 1);
        let sim = Simulator::new(ArchConfig::dcnn(16));
        let r = sim.simulate_layer(&layer, &w, 0.35);
        // units = 8 columns × 64/8 filters = 64 → 2 rounds of 32 PEs.
        let geom = layer.geom();
        let expected = 2.0 * (geom.filter_size() * geom.out_h()) as f64;
        assert_eq!(r.cycles, expected);
    }

    #[test]
    fn dcnn_sp_saves_energy_not_cycles() {
        let (layer, w) = lenet_conv3_weights(17, 0.5, 2);
        let dcnn = Simulator::new(ArchConfig::dcnn(16)).simulate_layer(&layer, &w, 0.35);
        let sp = Simulator::new(ArchConfig::dcnn_sp(16)).simulate_layer(&layer, &w, 0.35);
        assert_eq!(sp.cycles, dcnn.cycles, "zero gating saves no cycles");
        assert!(sp.energy.total_pj() < dcnn.energy.total_pj());
        assert!(
            sp.dram_weight_bits < dcnn.dram_weight_bits,
            "RLE compression"
        );
    }

    #[test]
    fn ucnn_beats_dcnn_sp_at_16bit() {
        let (layer, w) = lenet_conv3_weights(17, 0.9, 3);
        let sp = Simulator::new(ArchConfig::dcnn_sp(16)).simulate_layer(&layer, &w, 0.35);
        let ucnn = Simulator::new(ArchConfig::ucnn(17, 16)).simulate_layer(&layer, &w, 0.35);
        assert!(
            ucnn.energy.total_pj() < sp.energy.total_pj(),
            "UCNN {:.3e} vs DCNN_sp {:.3e}",
            ucnn.energy.total_pj(),
            sp.energy.total_pj()
        );
    }

    #[test]
    fn ucnn_cycles_track_weight_sparsity() {
        let (layer, w_dense) = lenet_conv3_weights(17, 1.0, 4);
        let (_, w_half) = lenet_conv3_weights(17, 0.5, 4);
        let sim = Simulator::new(ArchConfig::ucnn(64, 16)); // G = 1
        let dense = sim.simulate_layer(&layer, &w_dense, 0.35);
        let half = sim.simulate_layer(&layer, &w_half, 0.35);
        let ratio = half.cycles / dense.cycles;
        assert!((0.4..0.65).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn all_designs_produce_finite_positive_energy() {
        let (layer, w) = lenet_conv3_weights(17, 0.65, 5);
        for design in evaluation_designs(16)
            .into_iter()
            .chain(evaluation_designs(8))
        {
            let r = Simulator::new(design.clone()).simulate_layer(&layer, &w, 0.35);
            assert!(r.cycles > 0.0, "{}", design.name);
            assert!(
                r.energy.total_pj().is_finite() && r.energy.total_pj() > 0.0,
                "{}",
                design.name
            );
            assert!(r.energy.dram_pj > 0.0, "{}", design.name);
        }
    }

    #[test]
    fn sampling_approximates_full_compile() {
        let (layer, w) = lenet_conv3_weights(17, 0.9, 6);
        let full = Simulator::new(ArchConfig::ucnn(17, 16)).simulate_layer(&layer, &w, 0.35);
        let sampled = Simulator::new(ArchConfig::ucnn(17, 16))
            .with_sampling(8)
            .simulate_layer(&layer, &w, 0.35);
        let ratio = sampled.energy.total_pj() / full.energy.total_pj();
        assert!((0.93..1.07).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn fc_layer_simulates() {
        let net = networks::lenet();
        let fc = net.conv_layer("ip1").unwrap();
        let mut wgen = WeightGen::new(QuantScheme::inq(), 7).with_density(0.9);
        let w = wgen.generate(&fc);
        let r = Simulator::new(ArchConfig::ucnn(17, 16)).simulate_layer(&fc, &w, 0.35);
        assert!(r.cycles > 0.0 && r.energy.total_pj() > 0.0);
    }

    #[test]
    fn oversized_activations_hit_dram() {
        // AlexNet conv1 input (227×227×3 @16 bit ≈ 300 KB) exceeds 256 KB.
        let net = networks::alexnet();
        let conv1 = net.conv_layer("conv1").unwrap();
        let mut wgen = WeightGen::new(QuantScheme::inq(), 8).with_density(0.9);
        let w = wgen.generate(&conv1);
        let r = Simulator::new(ArchConfig::dcnn(16)).simulate_layer(&conv1, &w, 0.35);
        assert!(r.dram_act_bits > 0.0);
        // LeNet conv3 (8×8×32) fits easily.
        let (l3, w3) = lenet_conv3_weights(17, 0.9, 9);
        let r3 = Simulator::new(ArchConfig::dcnn(16)).simulate_layer(&l3, &w3, 0.35);
        assert_eq!(r3.dram_act_bits, 0.0);
    }

    #[test]
    fn lpt_makespan_basics() {
        // 4 fg costs × 1 copy on 2 PEs: {8,7,3,2} → LPT gives max(8+2, 7+3) = 10.
        assert_eq!(lpt_makespan(&[8.0, 7.0, 3.0, 2.0], 4, 1, 2), 10.0);
        // Uniform units divide evenly.
        assert_eq!(lpt_makespan(&[5.0], 4, 8, 16), 10.0);
        assert_eq!(lpt_makespan(&[], 0, 1, 4), 0.0);
    }

    #[test]
    fn report_sum_accumulates() {
        let (layer, w) = lenet_conv3_weights(17, 0.9, 10);
        let sim = Simulator::new(ArchConfig::dcnn(16));
        let r = sim.simulate_layer(&layer, &w, 0.35);
        let total = sum_reports("DCNN", &[r.clone(), r.clone()]);
        assert_eq!(total.cycles, 2.0 * r.cycles);
        assert!((total.energy.total_pj() - 2.0 * r.energy.total_pj()).abs() < 1e-6);
    }
}
