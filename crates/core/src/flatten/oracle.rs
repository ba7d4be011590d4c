//! The equivalence oracle: one generator of layer cases, each a function of
//! one `u64` seed ([`Case::from_seed`]: the seed seeds a generator, the
//! generator draws every axis, then the weights and the images), and one
//! check that runs a case every way the crate runs a layer and holds it to
//! the dense reference — `reference::conv2d`, and `relu_saturate` after it.
//!
//! The seeds `0..PREFIX` run on every test run, and a tally of what they ran
//! — every strip kernel on every tier, every copy count of a small chunk,
//! every kind of walk, every value of every axis — fails the test when a
//! change of the generator stops reaching any of it. The tally counts the
//! layer under test alone, and reads its chunks and strips off the functions
//! the executor cuts them with (`chunk_widths`, `strip_runs`) rather than
//! recording the kernel calls. Further seeds run for
//! [`TIME_BOX`], and the range is printed. A failing case names its seed,
//! and `PROPTEST_SEED=<seed>` (the property tests' knob) runs that case
//! alone, in the same build profile: release builds give
//! [`Alphabet::MaxMagnitude`] its wrapping images.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use ucnn_model::rng::SmallRng;
use ucnn_model::{reference, LayerSpec, NetworkSpec, PoolKind, QuantScheme};
use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};

use super::kernel::{chunk_widths, strip_runs, Lanes, KERNELS, LANE_WIDTH};
use super::lower::tests::{check_lowering, lower_walks};
use super::run_stages;
use crate::backend::BackendKind;
use crate::compile::UcnnConfig;
use crate::exec::factorized_conv;
use crate::plan::{CompiledLayer, CompiledNetwork, CompiledStage};
use crate::simd::{available_tiers, SimdTier};

/// Seeds every run checks, whatever the clock says: one walk of the small
/// chunk × output column grid of [`Case::from_seed`].
const PREFIX: u64 = 64;

/// How long further seeds run after the prefix.
const TIME_BOX: Duration = Duration::from_secs(1);

/// The weights a case draws from, each with zero beside them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Alphabet {
    /// `±2^k`, sign-symmetric: folding halves the innermost groups.
    Inq,
    Ttq,
    Fixed8,
    /// `{−3, 5}`: not sign-symmetric, so folding merges nothing.
    NonSymmetric,
    AllZero,
    /// `{i16::MIN, i16::MAX, ±1}`. In release builds a case's first two
    /// images are all `i16::MAX` and all `i16::MIN`, so its sums wrap.
    MaxMagnitude,
    /// `±1`, pinned cases only (not drawn): in every build a case's first
    /// two images are all `i16::MAX` and all `i16::MIN`, whose sums stay in
    /// `i32`, so a minus sub-run adds `(−1)·i16::MIN` exactly.
    SignEdge,
}

impl Alphabet {
    const ALL: [Self; 6] = [
        Self::Inq,
        Self::Ttq,
        Self::Fixed8,
        Self::NonSymmetric,
        Self::AllZero,
        Self::MaxMagnitude,
    ];

    fn values(self) -> Vec<i16> {
        match self {
            Self::Inq => QuantScheme::inq().nonzero_values().to_vec(),
            Self::Ttq => QuantScheme::ttq().nonzero_values().to_vec(),
            Self::Fixed8 => QuantScheme::fixed_bits(8).nonzero_values().to_vec(),
            Self::NonSymmetric => vec![-3, 5],
            Self::AllZero => Vec::new(),
            Self::MaxMagnitude => vec![i16::MIN, i16::MAX, 1, -1],
            Self::SignEdge => vec![1, -1],
        }
    }
}

/// One layer, its tiling and the batch it runs: every axis the executors
/// branch on. The weights and images are drawn from `seed` when the case is
/// checked.
#[derive(Clone, Copy, Debug)]
pub(super) struct Case {
    pub(super) seed: u64,
    pub(super) geom: ConvGeom,
    pub(super) conv_groups: usize,
    pub(super) alphabet: Alphabet,
    pub(super) g: usize,
    pub(super) ct: usize,
    pub(super) batch: usize,
}

/// One thing a case ran, for the prefix's tally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Seen {
    /// A `(width, pitch)` strip kernel on a tier.
    Kernel(SimdTier, usize, usize),
    /// A chunk of fewer than eight images, walked in this many copies.
    Copies(usize),
    /// A kind of lowering run ([`check_lowering`]): "walked once", "shared",
    /// "dense once" or "dense".
    Walk(&'static str),
    Alphabet(Alphabet),
    G(usize),
    ConvGroups(usize),
    Stride(usize),
    Pad(usize),
    /// Padding the filter cannot span: whole windows read only the halo.
    PadPastFilter,
    /// A sign-folded group with a minus sub-run, in the walks run.
    MinusSubRun,
}

/// One of `of`, drawn from `rng`.
fn pick<T: Copy>(rng: &mut SmallRng, of: &[T]) -> T {
    of[(rng.next_u64() % of.len() as u64) as usize]
}

impl Case {
    /// The case of `seed`. Its low six bits walk the images of the small
    /// chunk (0–7) × the output columns (1–8), so every 64 seeds take every
    /// copy count of every small chunk; the rest is drawn from a generator
    /// the seed seeds.
    pub(super) fn from_seed(seed: u64) -> Self {
        let (small, out_w) = ((seed % 8) as usize, (seed / 8 % 8) as usize + 1);
        let rng = &mut SmallRng::seed_from_u64(seed);
        let (r, s) = pick(rng, &[(3, 3), (3, 3), (1, 1), (3, 2), (2, 3)]);
        let (stride, pad) = (pick(rng, &[1, 1, 2, 3]), pick(rng, &[0, 1, 2, 3]));
        // Half the one-column layers have one output position, a fully
        // connected layer's shape; the rest take output rows through every
        // tail split of every strip width.
        let once = out_w == 1 && pick(rng, &[true, false]);
        let (pad, out_h) = match once {
            true => (pad.min((r.min(s) - 1) / 2), 1),
            false => (
                pad,
                pick(rng, &[1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 33]),
            ),
        };
        // Inputs too small for the output asked for are one cell (the pad
        // then reaches past the filter and more positions come out).
        let dim = |out: usize, f: usize| (stride * (out - 1) + f).saturating_sub(2 * pad).max(1);
        let c = match once {
            true => pick(rng, &[3, 16, 40]),
            false => pick(rng, &[1, 2, 3, 4, 5]),
        };
        let conv_groups = pick(rng, &[1, 2]);
        let k = pick(rng, &[1, 2, 3, 4, 5]) * conv_groups;
        let (w, h) = (dim(out_w, r), dim(out_h, s));
        // Each chunk width a tier cuts a batch into, or not, then the small
        // chunk.
        let full = [32, 16, 8].map(|chunk| chunk * pick(rng, &[0, 0, 1]));
        Case {
            seed,
            geom: ConvGeom::validated(w, h, c, k, r, s, stride, pad).expect("a valid geometry"),
            conv_groups,
            alphabet: pick(rng, &Alphabet::ALL),
            g: pick(rng, &[1, 2, 3, 4]),
            ct: pick(rng, &[1, 2, 3, 64]),
            batch: (full.iter().sum::<usize>() + small).max(1),
        }
    }

    /// A case pinned by hand around `geom`: INQ weights, one image. A named
    /// test sets its batches and whatever else it is about.
    pub(super) fn pinned(seed: u64, geom: ConvGeom, groups: usize, g: usize, ct: usize) -> Self {
        Case {
            seed,
            geom,
            conv_groups: groups,
            alphabet: Alphabet::Inq,
            g,
            ct,
            batch: 1,
        }
    }

    /// Draws the weights and images, checks the lowering
    /// ([`check_lowering`]) and every execution ([`check_layer`]), and
    /// returns what the case ran.
    pub(super) fn check(&self) -> BTreeSet<Seen> {
        let (geom, batch, what) = (self.geom, self.batch, format!("{self:?}"));
        let rng = &mut SmallRng::seed_from_u64(self.seed ^ 0x0DE5);
        let values = self.alphabet.values();
        let mut weight = |_, _, _, _| match rng.next_u64() % (values.len() as u64 + 1) {
            0 => 0,
            at => values[at as usize - 1],
        };
        let weights = Tensor4::from_fn(geom.k(), geom.c(), geom.r(), geom.s(), &mut weight);
        let cfg = UcnnConfig {
            g: self.g,
            ct: self.ct,
            ..UcnnConfig::default()
        };
        let compile = || CompiledLayer::compile(&geom, self.conv_groups, &weights, &cfg);
        let layer = compile();
        // Equal weights, equal plans.
        assert_eq!(layer.flat_tiles(), compile().flat_tiles(), "{what}");
        let walks = check_lowering(&layer, &what);

        // Distinct images per lane, so a lane mix-up cannot cancel out; the
        // two extreme images first where the alphabet asks for them.
        let extremes = match self.alphabet {
            Alphabet::MaxMagnitude => !cfg!(debug_assertions),
            Alphabet::SignEdge => true,
            _ => false,
        };
        let (c, w, h) = (geom.c() * self.conv_groups, geom.in_w(), geom.in_h());
        let mut image = |i| match i {
            0 if extremes => Tensor3::filled(c, w, h, i16::MAX),
            1 if extremes => Tensor3::filled(c, w, h, i16::MIN),
            _ => Tensor3::from_fn(c, w, h, |_, _, _| match rng.next_u64() % 2 {
                0 => 0,
                _ => rng.gen_range_i16(-127, 127),
            }),
        };
        let inputs: Vec<Tensor3<i16>> = (0..batch).map(&mut image).collect();
        check_layer(&layer, &weights, &inputs, &what);

        let mut seen: BTreeSet<Seen> = walks.into_iter().map(Seen::Walk).collect();
        seen.extend([
            Seen::Alphabet(self.alphabet),
            Seen::G(self.g),
            Seen::ConvGroups(self.conv_groups),
            Seen::Stride(geom.stride()),
            Seen::Pad(geom.pad()),
        ]);
        if geom.pad() >= geom.r().min(geom.s()) {
            seen.insert(Seen::PadPastFilter);
        }
        // `check_layer` ran the walks, elected or not.
        let walks = lower_walks(&layer);
        let mut closes = walks.iter().flat_map(|t| &t.closes);
        if closes.any(|close| close.minus > 0) {
            seen.insert(Seen::MinusSubRun);
        }
        // The layer's chunks and strips on each tier, from the two
        // functions the executor cuts them with: `run_stages` takes its
        // chunks from `chunk_widths`, `run_bands` its strips from
        // `strip_runs`.
        for &tier in available_tiers() {
            for images in chunk_widths(batch, tier.lane_width()) {
                let lanes = Lanes::new(images, &geom);
                let runs = strip_runs(&geom, lanes, tier);
                seen.extend(runs.map(|run| Seen::Kernel(tier, run.width, lanes.pitch)));
                if images < LANE_WIDTH {
                    seen.insert(Seen::Copies(lanes.bands));
                }
            }
        }
        seen
    }
}

/// `layer` alone: the one-stage list a layer runs as.
pub(super) fn alone(layer: CompiledLayer) -> [CompiledStage; 1] {
    let name = "layer".into();
    [CompiledStage::Conv {
        name,
        layer,
        is_fc: false,
    }]
}

/// Runs `layer`, compiled from `weights`, over `inputs` through every
/// [`BackendKind`] as a one-layer network (the widest tier), image by image
/// through the paper's functional definition ([`factorized_conv`]), and on
/// every available tier through [`run_stages`] three ways, one for each
/// way the layer's finished bands leave it: alone (its raw sums scattered
/// out), followed by a 1×1 max-pool (fused onto the layer's bands), and
/// followed by an identity 1×1 convolution (the bands enter its plane
/// through the relu epilogue). Both chains hand the `relu_saturate`d
/// activations on unchanged. The per-tier runs are made twice: with the
/// elected lowering and with the one it did not elect — the layer's dense
/// tiles ([`CompiledLayer::dense_lowered`]) or its walks — so both run
/// whichever the counts favour. Each is held to the dense reference; the
/// plan is shared by every per-tier run, so a run that changed it fails a
/// later one.
pub(super) fn check_layer(
    layer: &CompiledLayer,
    weights: &Tensor4<i16>,
    inputs: &[Tensor3<i16>],
    what: &str,
) {
    let geom = layer.geom();
    let sums: Vec<Tensor3<i32>> = inputs
        .iter()
        .map(|i| reference::conv2d(geom, layer.conv_groups(), i, weights))
        .collect();
    let widen =
        |a: Tensor3<i16>| Tensor3::from_fn(a.c(), a.w(), a.h(), |c, x, y| i32::from(a[(c, x, y)]));
    let acts: Vec<Tensor3<i32>> = sums
        .iter()
        .map(|s| widen(reference::relu_saturate(s)))
        .collect();
    let mut spec = NetworkSpec::new("alone");
    spec.push(LayerSpec::grouped_conv("layer", *geom, layer.conv_groups()));
    let net = CompiledNetwork::compile(&spec, std::slice::from_ref(weights), layer.config());
    for kind in BackendKind::ALL {
        let got = net.forward_batch_with(inputs, kind);
        assert_eq!(got, sums, "{what}: backend {kind:?}");
    }
    for (i, input) in inputs.iter().enumerate() {
        let got = factorized_conv(geom, layer.conv_groups(), input, weights, layer.config());
        assert_eq!(got, sums[i], "{what}: factorized_conv, image {i}");
    }
    let k = geom.k();
    let identity = Tensor4::from_fn(k, k, 1, 1, |o, i, _, _| i16::from(o == i));
    let id_geom = ConvGeom::new(geom.out_w(), geom.out_h(), k, k, 1, 1);
    let conv = |name: &str, layer: CompiledLayer| CompiledStage::Conv {
        name: name.into(),
        layer,
        is_fc: false,
    };
    let max = CompiledStage::Pool {
        name: "max 1×1".into(),
        kind: PoolKind::Max,
        size: 1,
        stride: 1,
    };
    let relay = conv(
        "identity",
        CompiledLayer::compile(&id_geom, 1, &identity, &UcnnConfig::with_g(2)),
    );
    let other = if layer.flat_tiles()[0].is_dense() {
        ("walks", layer.lowered_as(lower_walks(layer)))
    } else {
        ("dense", layer.dense_lowered())
    };
    for (lowering, layer) in [("elected", layer), (other.0, &other.1)] {
        let stage = conv("layer", layer.clone());
        let chains = [
            ("pooled", [stage.clone(), max.clone()]),
            ("relayed", [stage.clone(), relay.clone()]),
        ];
        for &tier in available_tiers() {
            let tier_what = format!("{what}: {lowering}, tier {}", tier.name());
            let raw = run_stages(std::slice::from_ref(&stage), inputs, tier);
            assert_eq!(raw, sums, "{tier_what}: raw sums");
            for (chain, stages) in &chains {
                let got = run_stages(stages, inputs, tier);
                assert_eq!(got, acts, "{tier_what}: {chain}");
            }
        }
    }
}

/// Everything the prefix must run: each kernel on each tier that can emit
/// it (`width ≤ strip_lanes`, `pitch ≤ lane_width`), each copy count, each
/// kind of walk and each value of each axis.
fn expected() -> BTreeSet<Seen> {
    let tiers = available_tiers().iter().copied();
    let kernels = tiers.flat_map(|tier| {
        let emits = move |&&(width, pitch): &&(usize, usize)| {
            pitch <= tier.lane_width() && width <= tier.strip_lanes().max(pitch)
        };
        let kernels = KERNELS.iter().filter(emits);
        kernels.map(move |&(width, pitch)| Seen::Kernel(tier, width, pitch))
    });
    let walks = ["walked once", "shared", "dense", "dense once"].map(Seen::Walk);
    kernels
        .chain((1..=8).map(Seen::Copies))
        .chain(walks)
        .chain(Alphabet::ALL.map(Seen::Alphabet))
        .chain((1..=4).map(Seen::G))
        .chain((1..=2).map(Seen::ConvGroups))
        .chain((1..=3).map(Seen::Stride))
        .chain((0..=3).map(Seen::Pad))
        .chain([Seen::PadPastFilter, Seen::MinusSubRun])
        .collect()
}

/// Checks the case of `seed`; if it fails, says which seed replays it.
fn replay(seed: u64) -> BTreeSet<Seen> {
    std::panic::catch_unwind(|| Case::from_seed(seed).check()).unwrap_or_else(|panic| {
        eprintln!("flatten::oracle: seed {seed} failed; PROPTEST_SEED={seed} replays it");
        std::panic::resume_unwind(panic)
    })
}

#[test]
fn every_seed_matches_the_dense_reference() {
    if let Some(seed) = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        replay(seed);
        return;
    }
    let mut seen = BTreeSet::new();
    for seed in 0..PREFIX {
        seen.extend(replay(seed));
    }
    let missing: Vec<_> = expected().difference(&seen).copied().collect();
    assert!(
        missing.is_empty(),
        "seeds 0..{PREFIX} never ran {missing:?}"
    );
    let start = Instant::now();
    let mut seed = PREFIX;
    while start.elapsed() < TIME_BOX {
        replay(seed);
        seed += 1;
    }
    println!("flatten::oracle: seeds 0..{seed}");
}
