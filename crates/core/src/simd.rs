//! Runtime SIMD capability detection and tier selection for the flattened
//! backend.
//!
//! The flattened strip kernels ([`flatten`](crate::flatten)) are compiled
//! once per ISA tier behind `#[target_feature]` gates and picked at runtime:
//! a [`SimdCaps`] probe (via `is_x86_feature_detected!` /
//! `is_aarch64_feature_detected!`) decides which tiers this CPU can run, and
//! [`resolve_tier`] picks the one every plan in the process dispatches to.
//!
//! ReuseSense (arXiv:2311.10487) is the grounding: UCNN-style reuse pays off
//! most when the amortized gather/CSR index work feeds the widest contiguous
//! arithmetic the CPU has. The tier therefore sets the **interleave width**:
//! `scalar` keeps the historical 8-lane strips the autovectorizer turns into
//! baseline SSE2, `avx2` runs 16-wide strips, `avx512` 32-wide — each strip
//! still performs the identical per-lane i32 operation sequence, so every
//! tier stays bit-identical to the dense reference (the conformance corpus
//! and the equivalence oracle are the referees).
//!
//! # The `UCNN_SIMD` knob
//!
//! `UCNN_SIMD=scalar|avx2|avx512|neon` forces a tier for testing — the only
//! environment variable the program reads. Requests are **clamped
//! downward** to what the CPU actually supports (asking for `avx512` on an
//! AVX2-only box runs `avx2`; asking for `avx2` on aarch64 runs `neon`), so
//! CI legs can force any tier on any runner without crashing — the `scalar`
//! leg in particular exercises the fallback path everywhere. A value that
//! names no tier runs the widest one and says so on stderr. The variable is
//! read once, on the first flattened execution of the process.

use std::env;
use std::sync::OnceLock;

/// Env var forcing a dispatch tier (`scalar|avx2|avx512|neon`).
pub const SIMD_ENV: &str = "UCNN_SIMD";
/// Inert: nothing reads this variable. The name stays only because the
/// benchmark package imports it and may not change in the PR that retired
/// the knob; the next `[benchmark]` PR drops the import and this const.
pub const SHIFT_ENV: &str = "UCNN_SIMD_SHIFT";

/// One dispatchable ISA tier. Every variant exists on every architecture
/// (so tier names parse portably in configs and bench artifacts); detection
/// simply never reports a foreign tier as available.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SimdTier {
    /// Baseline codegen, 8-lane strips — always available, the conformance
    /// referee every other tier must match bit for bit.
    Scalar,
    /// AVX2 (256-bit): 16-lane strips.
    Avx2,
    /// AVX-512 F/BW/DQ/VL (512-bit): 32-lane strips.
    Avx512,
    /// NEON (128-bit, aarch64): 8-lane strips with NEON codegen.
    Neon,
}

impl SimdTier {
    /// Every tier, in detection/rank order.
    pub const ALL: [Self; 4] = [Self::Scalar, Self::Neon, Self::Avx2, Self::Avx512];

    /// Canonical lowercase name (stable: bench artifacts and `UCNN_SIMD`
    /// values use it).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
            Self::Neon => "neon",
        }
    }

    /// Parses a canonical tier name (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Self::Scalar),
            "avx2" => Some(Self::Avx2),
            "avx512" => Some(Self::Avx512),
            "neon" => Some(Self::Neon),
            _ => None,
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
    /// ([`flatten`](crate::flatten)), sized so the kernel's three lane arrays
    /// stay in registers: four `zmm` each on `avx512` (24 of 32; eight
    /// spill), and 32 lanes elsewhere (measured: docs/LAB.md § `strips`).
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
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(SimdTier::Avx2);
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            tiers.push(SimdTier::Avx512);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            tiers.push(SimdTier::Neon);
        }
    }
    tiers
}

/// Available tiers on this CPU (shorthand for `SimdCaps::get().tiers()`).
#[must_use]
pub fn available_tiers() -> &'static [SimdTier] {
    SimdCaps::get().tiers()
}

/// The tier every flattened execution in this process dispatches to: the
/// `UCNN_SIMD` request clamped to this CPU, or the widest available tier when
/// unset. Resolved once and cached beside [`SimdCaps`]; a value that names no
/// tier runs the widest one and is reported on stderr, so a typo in a CI leg
/// cannot pass for the tier it meant.
#[must_use]
pub fn resolve_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let caps = SimdCaps::get();
        let value = env::var_os(SIMD_ENV).map(|v| v.to_string_lossy().into_owned());
        tier_for_request(value.as_deref(), caps).unwrap_or_else(|| {
            let best = caps.best();
            let names: Vec<&str> = SimdTier::ALL.iter().map(|t| t.name()).collect();
            eprintln!(
                "ucnn: {SIMD_ENV}={:?} names no SIMD tier (accepted: {}); running {}",
                value.unwrap_or_default(),
                names.join(", "),
                best.name()
            );
            best
        })
    })
}

/// The parse/clamp step of [`resolve_tier`], free of process state: the
/// widest tier of `caps` when nothing is requested, the requested tier
/// clamped to `caps` when `value` names one, `None` when it names none.
fn tier_for_request(value: Option<&str>, caps: SimdCaps) -> Option<SimdTier> {
    match value {
        None => Some(caps.best()),
        Some(v) => SimdTier::parse(v).map(|t| caps.clamp(t)),
    }
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
    fn names_round_trip() {
        for tier in SimdTier::ALL {
            assert_eq!(SimdTier::parse(tier.name()), Some(tier));
            assert_eq!(SimdTier::parse(&tier.name().to_uppercase()), Some(tier));
        }
        assert_eq!(SimdTier::parse("sse9"), None);
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
    fn tier_requests_parse_then_clamp_and_typos_are_not_a_tier() {
        use SimdTier::{Avx2, Neon, Scalar};
        let avx2_box = SimdCaps {
            tiers: &[Scalar, Avx2],
        };
        let neon_box = SimdCaps {
            tiers: &[Scalar, Neon],
        };
        assert_eq!(tier_for_request(None, avx2_box), Some(Avx2));
        assert_eq!(tier_for_request(Some("scalar"), avx2_box), Some(Scalar));
        assert_eq!(tier_for_request(Some("AVX2"), avx2_box), Some(Avx2));
        assert_eq!(tier_for_request(Some("avx512"), avx2_box), Some(Avx2));
        assert_eq!(tier_for_request(Some("neon"), avx2_box), Some(Avx2));
        assert_eq!(tier_for_request(Some("avx512"), neon_box), Some(Neon));
        // What used to run the widest tier without a word.
        for typo in ["", "avx-512", "avx512 ", "sse9", "1"] {
            assert_eq!(tier_for_request(Some(typo), avx2_box), None, "{typo:?}");
        }
    }
}
