//! Runtime SIMD capability detection for the flattened backend.
//!
//! The flattened strip kernels ([`flatten`](crate::flatten)) are compiled
//! once per ISA tier behind `#[target_feature]` gates and picked at runtime:
//! a [`SimdCaps`] probe (via `is_x86_feature_detected!` /
//! `is_aarch64_feature_detected!`) decides which tiers this CPU can run, and
//! every flattened execution of the process dispatches to the widest of
//! them, [`SimdCaps::best`]. Nothing else chooses a tier: the narrower tiers
//! run only where a caller names one — [`run_stages`](crate::flatten::run_stages),
//! which the per-tier tests and `repro reuse`' per-tier rows drive.
//!
//! ReuseSense (arXiv:2311.10487) is the grounding: UCNN-style reuse pays off
//! most when the amortized gather/CSR index work feeds the widest contiguous
//! arithmetic the CPU has. The tier therefore sets the **interleave width**:
//! `scalar` keeps the historical 8-lane strips the autovectorizer turns into
//! baseline SSE2, `avx2` runs 16-wide strips, `avx512` 32-wide. The
//! `avx512` tier needs AVX-512 VNNI as well as F/BW/DQ/VL: its strips of 32
//! lanes or more gather on `vpdpwssd`, one instruction that widens each
//! `i16` and adds it times a sign. Each strip still performs the identical
//! per-lane i32 operation sequence, so every tier stays bit-identical to the
//! dense reference (the conformance corpus and the equivalence oracle run
//! every available tier in one process).

use std::sync::OnceLock;

/// Inert: nothing reads this variable; every process runs
/// [`SimdCaps::best`]. The name stays only because the benchmark package
/// imports it and may not change in the PR that retired the knob; the next
/// `[benchmark]` PR drops the import and this const.
pub const SIMD_ENV: &str = "UCNN_SIMD";
/// Inert: nothing reads this variable. The name stays only because the
/// benchmark package imports it and may not change in the PR that retired
/// the knob; the next `[benchmark]` PR drops the import and this const.
pub const SHIFT_ENV: &str = "UCNN_SIMD_SHIFT";

/// One dispatchable ISA tier. Every variant exists on every architecture
/// (so tier names read the same in bench artifacts everywhere); detection
/// simply never reports a foreign tier as available.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SimdTier {
    /// Baseline codegen, 8-lane strips — always available, the conformance
    /// referee every other tier must match bit for bit.
    Scalar,
    /// AVX2 (256-bit): 16-lane strips.
    Avx2,
    /// AVX-512 F/BW/DQ/VL and VNNI (512-bit): 32-lane chunks, whose strips
    /// of 32 lanes or more accumulate on `vpdpwssd`. A CPU with the first
    /// four and no VNNI (Skylake-SP) runs [`SimdTier::Avx2`].
    Avx512,
    /// NEON (128-bit, aarch64): 8-lane strips with NEON codegen.
    Neon,
}

impl SimdTier {
    /// Every tier, in detection/rank order.
    pub const ALL: [Self; 4] = [Self::Scalar, Self::Neon, Self::Avx2, Self::Avx512];

    /// Canonical lowercase name (stable: bench artifacts use it).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
            Self::Neon => "neon",
        }
    }

    /// The batch-interleave width the tier's strip kernels run at. Wider
    /// tiers amortize the same gather/CSR index stream over more images per
    /// strip; the per-lane arithmetic is identical at every width.
    #[must_use]
    pub const fn lane_width(self) -> usize {
        match self {
            Self::Scalar | Self::Neon => 8,
            Self::Avx2 => 16,
            Self::Avx512 => 32,
        }
    }

    /// The widest strip the tier's kernels run — neighbouring output
    /// positions × images of one chunk behind one indirection read
    /// ([`flatten`](crate::flatten)), sized so the kernel's lane arrays stay
    /// in registers. On `avx512` a 128-lane `i32` array is eight `zmm`, and
    /// phase 1 keeps the running sum (8), the inner sum (8), four sign
    /// vectors and a gathered slice live: 21 of 32, or 24 where the compiler
    /// issues a strip's four slice loads together. Elsewhere 32 lanes
    /// (measured: docs/LAB.md § `strips`).
    #[must_use]
    pub const fn strip_lanes(self) -> usize {
        match self {
            Self::Avx512 => 128,
            Self::Scalar | Self::Neon | Self::Avx2 => 32,
        }
    }

    /// Cross-architecture capability rank used by the downward clamp:
    /// `scalar` < {`neon`, `avx2`} < `avx512`. Forcing a foreign tier picks
    /// the best available tier of no higher rank.
    const fn rank(self) -> u8 {
        match self {
            Self::Scalar => 0,
            Self::Neon | Self::Avx2 => 1,
            Self::Avx512 => 2,
        }
    }
}

/// The CPU's detected SIMD capabilities: which [`SimdTier`]s can dispatch.
///
/// Probe once with [`SimdCaps::get`] (cached for the process); `scalar` is
/// always present and always last-resort.
#[derive(Clone, Copy, Debug)]
pub struct SimdCaps {
    tiers: &'static [SimdTier],
}

impl SimdCaps {
    /// The process-wide probe result (runs the feature detection once).
    #[must_use]
    pub fn get() -> Self {
        static TIERS: OnceLock<Vec<SimdTier>> = OnceLock::new();
        Self {
            tiers: TIERS.get_or_init(detect).as_slice(),
        }
    }

    /// Available tiers in ascending rank order; `[0]` is always `Scalar`.
    #[must_use]
    pub fn tiers(self) -> &'static [SimdTier] {
        self.tiers
    }

    /// The widest tier this CPU supports — the default dispatch.
    #[must_use]
    pub fn best(self) -> SimdTier {
        *self.tiers.last().expect("scalar tier is always available")
    }

    /// Whether `tier` can dispatch on this CPU.
    #[must_use]
    pub fn supports(self, tier: SimdTier) -> bool {
        self.tiers.contains(&tier)
    }

    /// Clamps a requested tier downward to this CPU: the requested tier if
    /// available, else the best available tier of no higher capability
    /// rank (`scalar` < {`neon`, `avx2`} < `avx512`). Never fails —
    /// `scalar` ranks lowest and is always available.
    #[must_use]
    pub fn clamp(self, requested: SimdTier) -> SimdTier {
        if self.supports(requested) {
            return requested;
        }
        *self
            .tiers
            .iter()
            .rfind(|t| t.rank() <= requested.rank())
            .expect("scalar tier is always available")
    }

    /// [`SimdCaps::clamp`], as the token a gated kernel dispatches on.
    pub(crate) fn probe(self, requested: SimdTier) -> Probed {
        Probed(self.clamp(requested))
    }
}

/// A [`SimdTier`] this CPU was probed to run. Its field is private to this
/// module and only [`SimdCaps::probe`] mints one, clamped to the detected
/// capabilities — outside this module every `SimdCaps` is the real probe's —
/// so a `#[target_feature]` kernel dispatched on it runs only where its
/// feature is present.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Probed(SimdTier);

impl Probed {
    pub(crate) fn tier(self) -> SimdTier {
        self.0
    }
}

/// Runs the actual feature probes. `scalar` first, then ascending width.
fn detect() -> Vec<SimdTier> {
    let mut tiers = vec![SimdTier::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        tiers.extend(x86_tiers(
            has!("avx2"),
            has!("avx512f") && has!("avx512bw") && has!("avx512dq") && has!("avx512vl"),
            has!("avx512vnni"),
        ));
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            tiers.push(SimdTier::Neon);
        }
    }
    tiers
}

/// The x86 tiers above `scalar` a CPU runs, from what it was probed to have:
/// AVX2, AVX-512 F/BW/DQ/VL, and AVX-512 VNNI. `avx512` needs all five of
/// the AVX-512 features — its wide strips accumulate on `vpdpwssd` — so a
/// CPU without VNNI (Skylake-SP) runs `avx2`.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn x86_tiers(avx2: bool, avx512: bool, vnni: bool) -> impl Iterator<Item = SimdTier> {
    let tiers = [(avx2, SimdTier::Avx2), (avx512 && vnni, SimdTier::Avx512)];
    tiers
        .into_iter()
        .filter_map(|(has, tier)| has.then_some(tier))
}

/// Available tiers on this CPU (shorthand for `SimdCaps::get().tiers()`).
#[must_use]
pub fn available_tiers() -> &'static [SimdTier] {
    SimdCaps::get().tiers()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available_and_first() {
        let caps = SimdCaps::get();
        assert_eq!(caps.tiers()[0], SimdTier::Scalar);
        assert!(caps.supports(SimdTier::Scalar));
        assert!(caps.supports(caps.best()));
    }

    #[test]
    fn lane_widths_are_multiples_of_the_scalar_width() {
        for tier in SimdTier::ALL {
            assert_eq!(tier.lane_width() % SimdTier::Scalar.lane_width(), 0);
        }
    }

    #[test]
    fn clamp_never_exceeds_requested_rank() {
        let caps = SimdCaps::get();
        for req in SimdTier::ALL {
            let got = caps.clamp(req);
            assert!(caps.supports(got), "clamp must return an available tier");
            assert!(
                got.rank() <= req.rank() || got == req,
                "clamp({:?}) = {:?} outranks the request",
                req,
                got
            );
        }
        // Scalar requests always resolve to scalar exactly.
        assert_eq!(caps.clamp(SimdTier::Scalar), SimdTier::Scalar);
    }

    #[test]
    fn avx512_needs_vnni_as_well_as_f_bw_dq_vl() {
        use SimdTier::{Avx2, Avx512};
        let tiers = |avx2, avx512, vnni| x86_tiers(avx2, avx512, vnni).collect::<Vec<_>>();
        assert_eq!(tiers(true, true, true), [Avx2, Avx512]);
        assert_eq!(tiers(true, true, false), [Avx2], "Skylake-SP");
        assert_eq!(tiers(true, false, true), [Avx2]);
        assert_eq!(tiers(false, false, false), []);
    }

    /// A tier request is a `SimdTier` value, clamped to the CPU; the only
    /// string match left is a bench row's tier name against `name()`, which
    /// is exact, so a misspelt name is no tier at all.
    #[test]
    fn tier_requests_parse_then_clamp_and_typos_are_not_a_tier() {
        use SimdTier::{Avx2, Avx512, Neon, Scalar};
        let avx2_box = SimdCaps {
            tiers: &[Scalar, Avx2],
        };
        let neon_box = SimdCaps {
            tiers: &[Scalar, Neon],
        };
        assert_eq!(avx2_box.best(), Avx2);
        assert_eq!(avx2_box.clamp(Scalar), Scalar);
        assert_eq!(avx2_box.clamp(Avx512), Avx2);
        assert_eq!(avx2_box.clamp(Neon), Avx2);
        assert_eq!(neon_box.clamp(Avx512), Neon);
        for typo in ["", "avx-512", "avx512 ", "AVX2", "sse9", "1"] {
            assert!(SimdTier::ALL.iter().all(|t| t.name() != typo), "{typo:?}");
        }
    }
}
