//! The plans are pinned: an FNV-1a digest of every retained stream and every
//! lowered tile of each weight layer of LeNet and `networks::tiny()` — INQ
//! and TTQ weights, `G ∈ {1, 2, 3}`, `Ct ∈ {16, 64}`, fixed seeds — against
//! constants recorded on the parent's tree before the change that moves
//! them. A change to *how* a plan is built (rank tables, reused scratch,
//! shared canonical orders) must leave every row alone; a change to *what*
//! is built moves only its own layers' rows and has to name them.
//!
//! Streams are read through their public surface (tile placement,
//! `canonical`, and every entry's position, ranks and closing level —
//! `columns()` row by row). A lowered tile has no public field, so its
//! digest is of its `Debug` form, which spells out `k_first`, `g`, `plane`,
//! `base`, `closes`, `rows`, `seg_ptr`, `segs`, a dense tile's packed pairs
//! and the multiply count.
//! Lowering does not depend on the SIMD tier, so one run pins the plan
//! every tier executes.

use std::fmt::{self, Write};

use ucnn_core::compile::UcnnConfig;
use ucnn_core::plan::{CompiledNetwork, CompiledStage};
use ucnn_model::{forward, networks, NetworkSpec, QuantScheme};

/// 64-bit FNV-1a, fed bytes directly or through `write!`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// `(layer, streams, lowered tiles)` of each weight layer of a compiled
/// network.
fn digests(plan: &CompiledNetwork) -> Vec<(String, u64, u64)> {
    let mut rows = Vec::new();
    for stage in plan.stages() {
        let CompiledStage::Conv { name, layer, .. } = stage else {
            continue;
        };
        let (mut streams, mut lowered) = (Fnv::new(), Fnv::new());
        for tile in layer.tiles() {
            let stream = tile.stream();
            for v in [
                tile.k_first(),
                tile.c_first(),
                stream.g(),
                stream.tile_len(),
            ] {
                streams.word(v as u64);
            }
            for &w in stream.canonical() {
                streams.bytes(&w.to_le_bytes());
            }
            for e in stream.entries() {
                streams.bytes(&e.index.to_le_bytes());
                for &rank in e.ranks {
                    streams.bytes(&rank.to_le_bytes());
                }
                streams.bytes(&[e.close_level.unwrap_or(u8::MAX)]);
            }
        }
        for tile in layer.flat_tiles() {
            write!(lowered, "{tile:?}").expect("hashing cannot fail");
        }
        rows.push((name.clone(), streams.0, lowered.0));
    }
    rows
}

/// `(net, scheme, G, Ct, layer, streams, lowered)`, recorded at commit
/// 6dc94df (PR 24). The rows marked re-recorded are the walked-once layers
/// PR 25 tiled as one channel tile (`ip1`, `fc`, and `ip2` at Ct = 16; at
/// Ct = 64 `ip2`'s 64 channels were one tile already); every convolution's
/// row is as recorded.
///
/// The rows marked `dense` were re-recorded when bands that walked each
/// filter on its own became one dense tile where that costs less: LeNet's
/// `conv1` at G = 2 and 3 and its `conv3` at G = 3, and both `tiny`
/// convolutions at G = 2 and 3, all on INQ weights.
///
/// The rows marked `walk → dense` were re-recorded when every band became
/// the cheaper of its shared walk and its dense tile, and walking a band
/// one filter at a time went; each such layer's bands are now dense tiles:
/// LeNet's INQ `conv2` and `conv3` at G = 2 and its `conv2` at G = 3,
/// LeNet's TTQ `conv1`–`conv3` at G = 2 and at G = 3 (`conv2` and `conv3`
/// at Ct = 16 only), and both TTQ `tiny` convolutions at G = 2 and 3. The
/// streams of every row are as recorded, and every other row is unchanged.
///
/// The rows marked `two-filter dense` and `dense → walk` were re-recorded
/// when a dense tile became two filters of one conv group whatever G is,
/// and a layer became dense when its dense tiles cost less than its walks
/// summed over the layer, at G = 1 too. The `two-filter dense` rows are
/// every LeNet and `tiny` convolution, INQ and TTQ, at G = 1 (walked before)
/// and at G = 3 (dense before, in tiles of three filters), except LeNet's
/// TTQ `conv2` and `conv3` at G = 3; each one's lowered digest is now its
/// G = 2 row's. The `dense → walk` rows are LeNet's TTQ `conv2` and
/// `conv3` at G = 3, Ct = 16: a three-filter tile was priced one load per
/// pair-tap for its two passes, and at the price of what the kernel
/// issues the shared walks win, as they already did at Ct = 64. Every G = 2
/// row and every streams column is unchanged.
///
/// The rows marked `walk → dense (FC election)` were re-recorded when a
/// layer walked once — a fully connected one — stopped being always walked
/// and became, like every other layer, its dense tiles where they cost less
/// than its walks, priced by the flat walk's own terms: LeNet's `ip1` and
/// `ip2` on INQ weights at G = 1, 2 and 3 and on TTQ at G = 1 and 2, its
/// TTQ `ip2` at G = 3, and `tiny`'s `fc` on INQ at G = 1, 2 and 3 and on
/// TTQ at G = 1 and 2, each at both Ct; each lowered digest is now the
/// layer's dense tiles, the same at every G. LeNet's TTQ `ip1` and `tiny`'s
/// TTQ `fc` at G = 3 still walk, and their rows, every convolution's row
/// and every streams column are unchanged.
#[rustfmt::skip]
const RECORDED: &[(&str, &str, usize, usize, &str, u64, u64)] = &[
    ("lenet", "inq", 1, 16, "conv1", 0x7ceadc3d0634f29d, 0xd7ee2993681de869), // re-recorded: two-filter dense
    ("lenet", "inq", 1, 16, "conv2", 0x7dd2c830e03fb277, 0xec85cae9d0afe5c9), // re-recorded: two-filter dense
    ("lenet", "inq", 1, 16, "conv3", 0x0c05419ad51ccb84, 0x49995d79aa68a84a), // re-recorded: two-filter dense
    ("lenet", "inq", 1, 16, "ip1", 0x0273fdc84f00f802, 0xa3d0b97ace4006b8), // re-recorded: walk → dense (FC election)
    ("lenet", "inq", 1, 16, "ip2", 0xa889adf4265c795f, 0x9a18b79ad5532b8a), // re-recorded: walk → dense (FC election)
    ("lenet", "inq", 1, 64, "conv1", 0x7ceadc3d0634f29d, 0xd7ee2993681de869), // re-recorded: two-filter dense
    ("lenet", "inq", 1, 64, "conv2", 0x68101acd6e03a53d, 0xec85cae9d0afe5c9), // re-recorded: two-filter dense
    ("lenet", "inq", 1, 64, "conv3", 0x2c282b1455ffc5ee, 0x49995d79aa68a84a), // re-recorded: two-filter dense
    ("lenet", "inq", 1, 64, "ip1", 0x0273fdc84f00f802, 0xa3d0b97ace4006b8), // re-recorded: walk → dense (FC election)
    ("lenet", "inq", 1, 64, "ip2", 0xa889adf4265c795f, 0x9a18b79ad5532b8a), // re-recorded: walk → dense (FC election)
    ("lenet", "inq", 2, 16, "conv1", 0x6989f6db809c75fd, 0xd7ee2993681de869), // re-recorded: dense
    ("lenet", "inq", 2, 16, "conv2", 0x93eecd8e41310594, 0xec85cae9d0afe5c9), // re-recorded: walk → dense
    ("lenet", "inq", 2, 16, "conv3", 0x2232da1387ccefd7, 0x49995d79aa68a84a), // re-recorded: walk → dense
    ("lenet", "inq", 2, 16, "ip1", 0x2074e54b29df21bb, 0xa3d0b97ace4006b8), // re-recorded: walk → dense (FC election)
    ("lenet", "inq", 2, 16, "ip2", 0xde72b039b0275425, 0x9a18b79ad5532b8a), // re-recorded: walk → dense (FC election)
    ("lenet", "inq", 2, 64, "conv1", 0x6989f6db809c75fd, 0xd7ee2993681de869), // re-recorded: dense
    ("lenet", "inq", 2, 64, "conv2", 0x24583f6d0cb59691, 0xec85cae9d0afe5c9), // re-recorded: walk → dense
    ("lenet", "inq", 2, 64, "conv3", 0xa6f7ee4c4f4cf6df, 0x49995d79aa68a84a), // re-recorded: walk → dense
    ("lenet", "inq", 2, 64, "ip1", 0x2074e54b29df21bb, 0xa3d0b97ace4006b8), // re-recorded: walk → dense (FC election)
    ("lenet", "inq", 2, 64, "ip2", 0xde72b039b0275425, 0x9a18b79ad5532b8a), // re-recorded: walk → dense (FC election)
    ("lenet", "inq", 3, 16, "conv1", 0xe3ec9d0c2a5a0277, 0xd7ee2993681de869), // re-recorded: two-filter dense
    ("lenet", "inq", 3, 16, "conv2", 0xd875a749622a2783, 0xec85cae9d0afe5c9), // re-recorded: two-filter dense
    ("lenet", "inq", 3, 16, "conv3", 0x07077e345db7caec, 0x49995d79aa68a84a), // re-recorded: two-filter dense
    ("lenet", "inq", 3, 16, "ip1", 0xb2ff2abfb16f6a59, 0xa3d0b97ace4006b8), // re-recorded: walk → dense (FC election)
    ("lenet", "inq", 3, 16, "ip2", 0xd547900283359995, 0x9a18b79ad5532b8a), // re-recorded: walk → dense (FC election)
    ("lenet", "inq", 3, 64, "conv1", 0xe3ec9d0c2a5a0277, 0xd7ee2993681de869), // re-recorded: two-filter dense
    ("lenet", "inq", 3, 64, "conv2", 0x78a148163ca7735a, 0xec85cae9d0afe5c9), // re-recorded: two-filter dense
    ("lenet", "inq", 3, 64, "conv3", 0x1b7c4336a2e3fc37, 0x49995d79aa68a84a), // re-recorded: two-filter dense
    ("lenet", "inq", 3, 64, "ip1", 0xb2ff2abfb16f6a59, 0xa3d0b97ace4006b8), // re-recorded: walk → dense (FC election)
    ("lenet", "inq", 3, 64, "ip2", 0xd547900283359995, 0x9a18b79ad5532b8a), // re-recorded: walk → dense (FC election)
    ("lenet", "ttq", 1, 16, "conv1", 0x8941ab03c5833d44, 0x248dbeae0332f2aa), // re-recorded: two-filter dense
    ("lenet", "ttq", 1, 16, "conv2", 0x965b261bfb51e016, 0x6875c4cc71d7ae78), // re-recorded: two-filter dense
    ("lenet", "ttq", 1, 16, "conv3", 0xb3c794d596cf53a1, 0xcbcdfc7b8182623c), // re-recorded: two-filter dense
    ("lenet", "ttq", 1, 16, "ip1", 0x2e0c044183eb6915, 0x18ab0c0c25dbf20d), // re-recorded: walk → dense (FC election)
    ("lenet", "ttq", 1, 16, "ip2", 0x0b9b359558f775aa, 0xf1d24d65b0e11e1c), // re-recorded: walk → dense (FC election)
    ("lenet", "ttq", 1, 64, "conv1", 0x8941ab03c5833d44, 0x248dbeae0332f2aa), // re-recorded: two-filter dense
    ("lenet", "ttq", 1, 64, "conv2", 0xba47f758d8bf77b9, 0x6875c4cc71d7ae78), // re-recorded: two-filter dense
    ("lenet", "ttq", 1, 64, "conv3", 0x7d94bcea077415e8, 0xcbcdfc7b8182623c), // re-recorded: two-filter dense
    ("lenet", "ttq", 1, 64, "ip1", 0x2e0c044183eb6915, 0x18ab0c0c25dbf20d), // re-recorded: walk → dense (FC election)
    ("lenet", "ttq", 1, 64, "ip2", 0x0b9b359558f775aa, 0xf1d24d65b0e11e1c), // re-recorded: walk → dense (FC election)
    ("lenet", "ttq", 2, 16, "conv1", 0xb9bf67bf1fb6ffe5, 0x248dbeae0332f2aa), // re-recorded: walk → dense
    ("lenet", "ttq", 2, 16, "conv2", 0xb3971382f864ad9e, 0x6875c4cc71d7ae78), // re-recorded: walk → dense
    ("lenet", "ttq", 2, 16, "conv3", 0xafdc1039d5fa6b0d, 0xcbcdfc7b8182623c), // re-recorded: walk → dense
    ("lenet", "ttq", 2, 16, "ip1", 0x6332f2a87854a055, 0x18ab0c0c25dbf20d), // re-recorded: walk → dense (FC election)
    ("lenet", "ttq", 2, 16, "ip2", 0xaddb712222d58a02, 0xf1d24d65b0e11e1c), // re-recorded: walk → dense (FC election)
    ("lenet", "ttq", 2, 64, "conv1", 0xb9bf67bf1fb6ffe5, 0x248dbeae0332f2aa), // re-recorded: walk → dense
    ("lenet", "ttq", 2, 64, "conv2", 0x0c673e2f039b9a0c, 0x6875c4cc71d7ae78), // re-recorded: walk → dense
    ("lenet", "ttq", 2, 64, "conv3", 0xd9974b5d2fc0be94, 0xcbcdfc7b8182623c), // re-recorded: walk → dense
    ("lenet", "ttq", 2, 64, "ip1", 0x6332f2a87854a055, 0x18ab0c0c25dbf20d), // re-recorded: walk → dense (FC election)
    ("lenet", "ttq", 2, 64, "ip2", 0xaddb712222d58a02, 0xf1d24d65b0e11e1c), // re-recorded: walk → dense (FC election)
    ("lenet", "ttq", 3, 16, "conv1", 0x818c71e911296e31, 0x248dbeae0332f2aa), // re-recorded: two-filter dense
    ("lenet", "ttq", 3, 16, "conv2", 0x16ad1351a1956298, 0xb3c95e32d458f183), // re-recorded: dense → walk
    ("lenet", "ttq", 3, 16, "conv3", 0x5a58a633562a54f2, 0x516acaacb9ce3232), // re-recorded: dense → walk
    ("lenet", "ttq", 3, 16, "ip1", 0x50a43fd50c7e04cf, 0xf344f3e0355828bf), // re-recorded
    ("lenet", "ttq", 3, 16, "ip2", 0xda39a313d55c9e3d, 0xf1d24d65b0e11e1c), // re-recorded: walk → dense (FC election)
    ("lenet", "ttq", 3, 64, "conv1", 0x818c71e911296e31, 0x248dbeae0332f2aa), // re-recorded: two-filter dense
    ("lenet", "ttq", 3, 64, "conv2", 0x5065ba7f9f4b7fd9, 0xe808ca4c528b22c1),
    ("lenet", "ttq", 3, 64, "conv3", 0xff46fbc1ba738399, 0xe540bc0a6749ea87),
    ("lenet", "ttq", 3, 64, "ip1", 0x50a43fd50c7e04cf, 0xf344f3e0355828bf), // re-recorded
    ("lenet", "ttq", 3, 64, "ip2", 0xda39a313d55c9e3d, 0xf1d24d65b0e11e1c), // re-recorded: walk → dense (FC election)
    ("tiny", "inq", 1, 16, "conv1", 0xf79757f47fc2e009, 0xd61f84d0bc21d2be), // re-recorded: two-filter dense
    ("tiny", "inq", 1, 16, "conv2", 0x99a45af56e456221, 0x1498aa8aebe49bc0), // re-recorded: two-filter dense
    ("tiny", "inq", 1, 16, "fc", 0x1abf339e8c282ec4, 0x1b2f9f0c8b1ab11b), // re-recorded: walk → dense (FC election)
    ("tiny", "inq", 1, 64, "conv1", 0xf79757f47fc2e009, 0xd61f84d0bc21d2be), // re-recorded: two-filter dense
    ("tiny", "inq", 1, 64, "conv2", 0x99a45af56e456221, 0x1498aa8aebe49bc0), // re-recorded: two-filter dense
    ("tiny", "inq", 1, 64, "fc", 0x1abf339e8c282ec4, 0x1b2f9f0c8b1ab11b), // re-recorded: walk → dense (FC election)
    ("tiny", "inq", 2, 16, "conv1", 0xb56c7bed08a5b8c8, 0xd61f84d0bc21d2be), // re-recorded: dense
    ("tiny", "inq", 2, 16, "conv2", 0xa9f4102be6b9f215, 0x1498aa8aebe49bc0), // re-recorded: dense
    ("tiny", "inq", 2, 16, "fc", 0x7d63251e44774711, 0x1b2f9f0c8b1ab11b), // re-recorded: walk → dense (FC election)
    ("tiny", "inq", 2, 64, "conv1", 0xb56c7bed08a5b8c8, 0xd61f84d0bc21d2be), // re-recorded: dense
    ("tiny", "inq", 2, 64, "conv2", 0xa9f4102be6b9f215, 0x1498aa8aebe49bc0), // re-recorded: dense
    ("tiny", "inq", 2, 64, "fc", 0x7d63251e44774711, 0x1b2f9f0c8b1ab11b), // re-recorded: walk → dense (FC election)
    ("tiny", "inq", 3, 16, "conv1", 0xeb9eb5c163b6bed9, 0xd61f84d0bc21d2be), // re-recorded: two-filter dense
    ("tiny", "inq", 3, 16, "conv2", 0x3dc5b6be33f8cc8e, 0x1498aa8aebe49bc0), // re-recorded: two-filter dense
    ("tiny", "inq", 3, 16, "fc", 0x7a5ed739b244aa98, 0x1b2f9f0c8b1ab11b), // re-recorded: walk → dense (FC election)
    ("tiny", "inq", 3, 64, "conv1", 0xeb9eb5c163b6bed9, 0xd61f84d0bc21d2be), // re-recorded: two-filter dense
    ("tiny", "inq", 3, 64, "conv2", 0x3dc5b6be33f8cc8e, 0x1498aa8aebe49bc0), // re-recorded: two-filter dense
    ("tiny", "inq", 3, 64, "fc", 0x7a5ed739b244aa98, 0x1b2f9f0c8b1ab11b), // re-recorded: walk → dense (FC election)
    ("tiny", "ttq", 1, 16, "conv1", 0x3aa72b8ae1e0aa3d, 0xa98a796f191f09b3), // re-recorded: two-filter dense
    ("tiny", "ttq", 1, 16, "conv2", 0x457b263a6a165cf3, 0x8c1d628422fc6698), // re-recorded: two-filter dense
    ("tiny", "ttq", 1, 16, "fc", 0x6a8004654dd5ef44, 0x7eb77cc4949df464), // re-recorded: walk → dense (FC election)
    ("tiny", "ttq", 1, 64, "conv1", 0x3aa72b8ae1e0aa3d, 0xa98a796f191f09b3), // re-recorded: two-filter dense
    ("tiny", "ttq", 1, 64, "conv2", 0x457b263a6a165cf3, 0x8c1d628422fc6698), // re-recorded: two-filter dense
    ("tiny", "ttq", 1, 64, "fc", 0x6a8004654dd5ef44, 0x7eb77cc4949df464), // re-recorded: walk → dense (FC election)
    ("tiny", "ttq", 2, 16, "conv1", 0xaef8106a4a3b5bb0, 0xa98a796f191f09b3), // re-recorded: walk → dense
    ("tiny", "ttq", 2, 16, "conv2", 0xe3043bc45841c853, 0x8c1d628422fc6698), // re-recorded: walk → dense
    ("tiny", "ttq", 2, 16, "fc", 0xc2b03bb918c75526, 0x7eb77cc4949df464), // re-recorded: walk → dense (FC election)
    ("tiny", "ttq", 2, 64, "conv1", 0xaef8106a4a3b5bb0, 0xa98a796f191f09b3), // re-recorded: walk → dense
    ("tiny", "ttq", 2, 64, "conv2", 0xe3043bc45841c853, 0x8c1d628422fc6698), // re-recorded: walk → dense
    ("tiny", "ttq", 2, 64, "fc", 0xc2b03bb918c75526, 0x7eb77cc4949df464), // re-recorded: walk → dense (FC election)
    ("tiny", "ttq", 3, 16, "conv1", 0x62a51de228208dde, 0xa98a796f191f09b3), // re-recorded: two-filter dense
    ("tiny", "ttq", 3, 16, "conv2", 0x2cad4d171bb86070, 0x8c1d628422fc6698), // re-recorded: two-filter dense
    ("tiny", "ttq", 3, 16, "fc", 0x13924e53aef8ba43, 0xd1b8e757d7a4a0ff), // re-recorded
    ("tiny", "ttq", 3, 64, "conv1", 0x62a51de228208dde, 0xa98a796f191f09b3), // re-recorded: two-filter dense
    ("tiny", "ttq", 3, 64, "conv2", 0x2cad4d171bb86070, 0x8c1d628422fc6698), // re-recorded: two-filter dense
    ("tiny", "ttq", 3, 64, "fc", 0x13924e53aef8ba43, 0xd1b8e757d7a4a0ff), // re-recorded
];

#[test]
fn every_stream_and_every_lowered_tile_is_the_recorded_one() {
    let nets: [(&str, NetworkSpec, u64); 2] = [
        ("lenet", networks::lenet(), 0x1E7),
        ("tiny", networks::tiny(), 0x717),
    ];
    let schemes = [
        ("inq", QuantScheme::inq(), 0.9),
        ("ttq", QuantScheme::ttq(), 0.6),
    ];
    let mut rows = Vec::new();
    for (net, spec, seed) in &nets {
        for (scheme_name, scheme, density) in &schemes {
            let weights = forward::generate_network_weights(spec, scheme.clone(), *seed, *density);
            for g in [1usize, 2, 3] {
                for ct in [16usize, 64] {
                    let config = UcnnConfig {
                        ct,
                        ..UcnnConfig::with_g(g)
                    };
                    let plan = CompiledNetwork::compile(spec, &weights, &config);
                    for (layer, streams, lowered) in digests(&plan) {
                        rows.push((*net, *scheme_name, g, ct, layer, streams, lowered));
                    }
                }
            }
        }
    }
    let listing: String = rows
        .iter()
        .map(|(net, scheme, g, ct, layer, s, l)| {
            format!("    ({net:?}, {scheme:?}, {g}, {ct}, {layer:?}, {s:#018x}, {l:#018x}),\n")
        })
        .collect();
    let read = rows
        .iter()
        .map(|(n, sc, g, ct, layer, s, l)| (*n, *sc, *g, *ct, layer.as_str(), *s, *l));
    assert!(
        read.eq(RECORDED.iter().copied()),
        "a plan differs from the recorded one; this run read\n{listing}"
    );
}
