//! Runtime SIMD capability detection and per-plan kernel selection for the
//! flattened backends.
//!
//! The flattened strip kernels ([`flatten`](crate::flatten)) are compiled
//! once per ISA tier behind `#[target_feature]` gates and picked at runtime:
//! a [`SimdCaps`] probe (via `is_x86_feature_detected!` /
//! `is_aarch64_feature_detected!`) decides which tiers this CPU can run, and
//! each compiled plan caches one [`KernelSel`] — the dispatched tier plus
//! whether the plan's weight alphabet admits the i8-style shift-add phase-2
//! kernel — in a `OnceLock` next to the flattened lowering itself
//! ([`CompiledLayer::kernel_sel`](crate::plan::CompiledLayer::kernel_sel)).
//!
//! ReuseSense (arXiv:2311.10487) is the grounding: UCNN-style reuse pays off
//! most when the amortized gather/CSR index work feeds the widest contiguous
//! arithmetic the CPU has. The tier therefore sets the **interleave width**:
//! `scalar` keeps the historical 8-lane strips the autovectorizer turns into
//! baseline SSE2, `avx2` runs 16-wide strips, `avx512` 32-wide — each strip
//! still performs the identical per-lane i32 operation sequence, so every
//! tier stays bit-identical to the planar walk (the conformance corpus is
//! the referee).
//!
//! # Env knobs
//!
//! * `UCNN_SIMD=scalar|avx2|avx512|neon` forces a tier for testing. Requests
//!   are **clamped downward** to what the CPU actually supports (asking for
//!   `avx512` on an AVX2-only box runs `avx2`; asking for `avx2` on aarch64
//!   runs `neon`), so CI legs can force any tier on any runner without
//!   crashing — the `scalar` leg in particular exercises the fallback path
//!   everywhere.
//! * `UCNN_SIMD_SHIFT` steers the shift-add quantized kernel on
//!   power-of-two alphabets: `off` (also `0`/`false`) pins the broadcast
//!   multiply path, `on` (also `1`/`true`) forces shift-add, and unset
//!   leaves the choice to the plan's run-length profitability heuristic
//!   ([`SHIFT_MIN_AVG_RUN`]).
//!
//! Both knobs are read when a plan first resolves its selection (once per
//! `CompiledLayer`, cached), not at process start — a benchmark can flip
//! them between plan compilations in one process.

use std::env;
use std::sync::OnceLock;

/// Env var forcing a dispatch tier (`scalar|avx2|avx512|neon`).
pub const SIMD_ENV: &str = "UCNN_SIMD";
/// Env var steering the shift-add quantized kernel (`off`/`0`/`false`
/// forbids, `on`/`1`/`true` forces, unset defers to the run-length
/// heuristic).
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

/// The tier a freshly resolved plan dispatches to: the `UCNN_SIMD` request
/// clamped to this CPU, or the widest available tier when unset (an
/// unparseable value also falls back to the widest — it is reported by the
/// bench tables, not silently distinct).
#[must_use]
pub fn resolve_tier() -> SimdTier {
    let caps = SimdCaps::get();
    match env::var(SIMD_ENV) {
        Ok(v) => SimdTier::parse(&v).map_or_else(|| caps.best(), |t| caps.clamp(t)),
        Err(_) => caps.best(),
    }
}

/// The `UCNN_SIMD_SHIFT` request: `Some(false)` (`off|0|false`) forbids the
/// shift-add quantized kernel, `Some(true)` (`on|1|true`) forces it onto any
/// `±2^k` plan regardless of profitability, `None` (unset or unrecognized)
/// leaves the choice to the plan's run-length heuristic.
#[must_use]
pub fn shift_env_mode() -> Option<bool> {
    match env::var(SHIFT_ENV) {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "off" | "0" | "false" => Some(false),
            "on" | "1" | "true" => Some(true),
            _ => None,
        },
        Err(_) => None,
    }
}

/// Minimum average segments-per-run for the shift-add kernel to be elected
/// by default. The shift kernel hoists the shift and sign out of each
/// equal-code run, so its win over the broadcast multiply scales with run
/// length; at run length ≈ 1 (an alphabet so wide that neighbouring
/// segments rarely share a code, e.g. INQ over many magnitudes) the extra
/// per-run bookkeeping loses to a plain `vpmulld` and the multiply kernel
/// is the right default. Measured crossover on AVX-512: a dense INQ FC
/// layer at ≈ 2.2 segments/run loses ~1.8× under shift, while a conv layer
/// at ≈ 3.5 and a ternary layer at ≈ 16 both win — hence 3.
/// `UCNN_SIMD_SHIFT=on|off` overrides in either direction.
pub const SHIFT_MIN_AVG_RUN: usize = 3;

/// One plan's cached kernel selection: the dispatched ISA tier plus whether
/// phase 2 runs the shift-add quantized kernel (possible only when every
/// segment weight in the plan's flattened lowering is `±2^k` — INQ and
/// ternary TTQ alphabets qualify by construction).
///
/// Resolved once per [`CompiledLayer`](crate::plan::CompiledLayer) and
/// cached in a `OnceLock` exactly like the flattened lowering itself, so
/// steady-state dispatch is a field read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelSel {
    /// The ISA tier the strip kernels dispatch to.
    pub tier: SimdTier,
    /// Phase 2 replaces the per-segment broadcast multiply with shift-add
    /// accumulation (bit-identical for `±2^k` weights).
    pub shift_add: bool,
}

impl KernelSel {
    /// Resolves a fresh selection from the environment and two properties
    /// of the plan's flattened lowering: the alphabet classification
    /// (`pow2_alphabet` = every segment weight in every flattened tile is
    /// `±2^k`, a hard eligibility gate) and the profitability signal
    /// (`shift_profitable` = the average equal-code run is long enough —
    /// [`SHIFT_MIN_AVG_RUN`] segments — for the hoisted shift to beat the
    /// broadcast multiply). `UCNN_SIMD_SHIFT=on|off` overrides the
    /// heuristic in either direction; eligibility is never overridable.
    #[must_use]
    pub fn resolve(pow2_alphabet: bool, shift_profitable: bool) -> Self {
        Self {
            tier: resolve_tier(),
            shift_add: pow2_alphabet && shift_env_mode().unwrap_or(shift_profitable),
        }
    }

    /// The same selection forced onto another tier (alphabet classification
    /// is a property of the plan and carries over).
    #[must_use]
    pub fn with_tier(self, tier: SimdTier) -> Self {
        Self { tier, ..self }
    }

    /// The selection with its tier clamped to this CPU's detected
    /// capabilities — the executors apply this before dispatching, so a
    /// hand-built selection can never reach a `#[target_feature]` kernel
    /// the CPU lacks.
    #[must_use]
    pub fn clamped(self) -> Self {
        Self {
            tier: SimdCaps::get().clamp(self.tier),
            ..self
        }
    }

    /// Human/bench label naming the exact kernel: the tier plus the phase-2
    /// mode — `+shift` when the quantized shift-add kernel is active,
    /// `+mult` for the i16 broadcast multiply (e.g. `avx512+shift`,
    /// `scalar+mult`).
    #[must_use]
    pub fn label(self) -> String {
        if self.shift_add {
            format!("{}+shift", self.tier.name())
        } else {
            format!("{}+mult", self.tier.name())
        }
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
    fn kernel_sel_labels() {
        let sel = KernelSel {
            tier: SimdTier::Avx2,
            shift_add: true,
        };
        assert_eq!(sel.label(), "avx2+shift");
        assert_eq!(sel.with_tier(SimdTier::Scalar).label(), "scalar+shift");
        let mult = KernelSel {
            tier: SimdTier::Avx512,
            shift_add: false,
        };
        assert_eq!(mult.label(), "avx512+mult");
    }
}
