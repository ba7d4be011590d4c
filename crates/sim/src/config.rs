//! Architecture configurations — the design points of the paper's Table II,
//! plus knobs for ablations.
//!
//! All designs are throughput-normalized (§VI-A): every PE performs the work
//! of 8 dense multiplies per cycle — DCNN via `VK = 8` output-channel
//! lanes, UCNN via `G · VW = 8` (filters per table × spatial lanes).

use ucnn_core::compile::UcnnConfig;
use ucnn_core::encoding::EncodingParams;

/// Which microarchitecture a design point uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// Dense baseline PE (§IV-A): no sparsity or repetition optimizations.
    Dcnn,
    /// DCNN with Eyeriss-style sparsity: zero-operand multiply gating at the
    /// PE and run-length-encoded weights in DRAM (§VI-A).
    DcnnSp,
    /// The UCNN PE: factorized dot products, activation-group reuse, spatial
    /// vectorization (§IV).
    Ucnn,
}

/// A complete design point for the chip-level model.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchConfig {
    /// Display name (e.g. `"UCNN U17"`).
    pub name: String,
    /// Microarchitecture family.
    pub kind: ArchKind,
    /// Number of processing elements (`P`, Table II: 32).
    pub pes: usize,
    /// DCNN output-channel vector width (`VK`).
    pub vk: usize,
    /// UCNN spatial vector width (`VW`).
    pub vw: usize,
    /// UCNN filters per shared indirection table (`G`).
    pub g: usize,
    /// Channel tile `Ct`.
    pub ct: usize,
    /// Maximum activation-group size (§IV-B: 16).
    pub group_cap: usize,
    /// Weight precision (bits).
    pub weight_bits: u32,
    /// Activation precision (bits).
    pub act_bits: u32,
    /// Table encoding for UCNN DRAM storage and PE walks.
    pub encoding: EncodingParams,
    /// L1 input buffer capacity in bytes (Table II).
    pub l1_input_bytes: usize,
    /// L1 weight(+table) buffer capacity in bytes (Table II).
    pub l1_weight_bytes: usize,
    /// L1 partial-sum buffer capacity in bytes.
    pub l1_psum_bytes: usize,
    /// L2 (global buffer) capacity in bytes available for activations.
    pub l2_act_bytes: usize,
    /// L2 capacity in bytes available for weights (sets the `Kc` chunking).
    pub l2_weight_bytes: usize,
}

impl ArchConfig {
    /// The dense DCNN baseline (Table II row 1).
    #[must_use]
    pub fn dcnn(weight_bits: u32) -> Self {
        Self {
            name: "DCNN".to_string(),
            kind: ArchKind::Dcnn,
            pes: 32,
            vk: 8,
            vw: 1,
            g: 1,
            ct: 8,
            group_cap: 16,
            weight_bits,
            act_bits: weight_bits,
            encoding: EncodingParams::default(),
            l1_input_bytes: 144,
            l1_weight_bytes: 1152,
            l1_psum_bytes: 256,
            l2_act_bytes: 256 * 1024,
            l2_weight_bytes: 128 * 1024,
        }
    }

    /// DCNN with Eyeriss-style sparsity optimizations (Table II row 2).
    #[must_use]
    pub fn dcnn_sp(weight_bits: u32) -> Self {
        Self {
            name: "DCNN_sp".to_string(),
            kind: ArchKind::DcnnSp,
            ..Self::dcnn(weight_bits)
        }
    }

    /// A UCNN design point sized for `u` unique weights, choosing the
    /// Table II `G`/`VW` split: `U = 3 → (G 4, VW 2)`, `U = 17 → (G 2, VW
    /// 4)`, larger `U → (G 1, VW 8)`.
    #[must_use]
    pub fn ucnn(u: usize, weight_bits: u32) -> Self {
        let (g, vw, l1_input, l1_weight) = match u {
            0..=8 => (4, 2, 768, 129),
            9..=32 => (2, 4, 1152, 232),
            _ => (1, 8, 1920, 652),
        };
        Self {
            name: format!("UCNN U{u}"),
            kind: ArchKind::Ucnn,
            pes: 32,
            vk: 1,
            vw,
            g,
            ct: 64,
            group_cap: 16,
            weight_bits,
            act_bits: weight_bits,
            encoding: EncodingParams::default(),
            l1_input_bytes: l1_input,
            l1_weight_bytes: l1_weight,
            l1_psum_bytes: 256,
            l2_act_bytes: 256 * 1024,
            l2_weight_bytes: 128 * 1024,
        }
    }

    /// Overrides `G` (and resets `VW` to keep `G · VW = 8`).
    ///
    /// # Panics
    ///
    /// Panics unless `g ∈ {1, 2, 4, 8}`.
    #[must_use]
    pub fn with_g(mut self, g: usize) -> Self {
        assert!(
            matches!(g, 1 | 2 | 4 | 8),
            "G must divide the 8-wide budget"
        );
        self.g = g;
        self.vw = 8 / g;
        self
    }

    /// Dense multiply-equivalents this design retires per PE per cycle
    /// (the throughput-normalization invariant: 8 for all presets).
    #[must_use]
    pub fn work_per_cycle(&self) -> usize {
        match self.kind {
            ArchKind::Dcnn | ArchKind::DcnnSp => self.vk,
            ArchKind::Ucnn => self.g * self.vw,
        }
    }

    /// The compiler configuration matching this design point.
    #[must_use]
    pub fn ucnn_config(&self) -> UcnnConfig {
        UcnnConfig {
            g: self.g,
            ct: self.ct,
            group_cap: self.group_cap,
            weight_bits: self.weight_bits,
            encoding: self.encoding,
        }
    }
}

/// The evaluation's standard design points at a given precision:
/// `[DCNN, DCNN_sp, UCNN U3, UCNN U17, UCNN U64, UCNN U256]` (§VI-A).
#[must_use]
pub fn evaluation_designs(weight_bits: u32) -> Vec<ArchConfig> {
    vec![
        ArchConfig::dcnn(weight_bits),
        ArchConfig::dcnn_sp(weight_bits),
        ArchConfig::ucnn(3, weight_bits),
        ArchConfig::ucnn(17, weight_bits),
        ArchConfig::ucnn(64, weight_bits),
        ArchConfig::ucnn(256, weight_bits),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_are_throughput_normalized() {
        for d in evaluation_designs(16) {
            assert_eq!(d.work_per_cycle(), 8, "{}", d.name);
            assert_eq!(d.pes, 32, "{}", d.name);
        }
    }

    #[test]
    fn table2_g_vw_split() {
        let u3 = ArchConfig::ucnn(3, 16);
        assert_eq!((u3.g, u3.vw), (4, 2));
        let u17 = ArchConfig::ucnn(17, 16);
        assert_eq!((u17.g, u17.vw), (2, 4));
        let u64 = ArchConfig::ucnn(64, 16);
        assert_eq!((u64.g, u64.vw), (1, 8));
        let u256 = ArchConfig::ucnn(256, 16);
        assert_eq!((u256.g, u256.vw), (1, 8));
    }

    #[test]
    fn table2_l1_capacities() {
        assert_eq!(ArchConfig::dcnn(16).l1_input_bytes, 144);
        assert_eq!(ArchConfig::dcnn(16).l1_weight_bytes, 1152);
        assert_eq!(ArchConfig::ucnn(3, 16).l1_weight_bytes, 129);
        assert_eq!(ArchConfig::ucnn(17, 16).l1_input_bytes, 1152);
        assert_eq!(ArchConfig::ucnn(256, 16).l1_weight_bytes, 652);
    }

    #[test]
    fn with_g_keeps_budget() {
        let d = ArchConfig::ucnn(17, 16).with_g(4);
        assert_eq!(d.g * d.vw, 8);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn with_g_rejects_odd_split() {
        let _ = ArchConfig::ucnn(17, 16).with_g(3);
    }

    #[test]
    fn ucnn_config_propagates_knobs() {
        let d = ArchConfig::ucnn(17, 8);
        let cfg = d.ucnn_config();
        assert_eq!(cfg.g, 2);
        assert_eq!(cfg.weight_bits, 8);
        assert_eq!(cfg.ct, 64);
    }
}
