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
//! Lowering does not depend on the SIMD tier, so CI's forced-tier matrix
//! does not repeat this file.

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
/// The rows marked `dense` were re-recorded when bands that walk filter by
/// filter became one dense tile where that costs less: LeNet's `conv1` at
/// G = 2 and 3 and its `conv3` at G = 3, and both `tiny` convolutions at
/// G = 2 and 3, all on INQ weights. Their streams are as recorded, and every
/// other row is unchanged.
#[rustfmt::skip]
const RECORDED: &[(&str, &str, usize, usize, &str, u64, u64)] = &[
    ("lenet", "inq", 1, 16, "conv1", 0x7ceadc3d0634f29d, 0x572aa0498a568018),
    ("lenet", "inq", 1, 16, "conv2", 0x7dd2c830e03fb277, 0x3d0d6bb6b2385c9a),
    ("lenet", "inq", 1, 16, "conv3", 0x0c05419ad51ccb84, 0x1e67d11f8e37a7bc),
    ("lenet", "inq", 1, 16, "ip1", 0x0273fdc84f00f802, 0xbb59b9a6017d270f), // re-recorded
    ("lenet", "inq", 1, 16, "ip2", 0xa889adf4265c795f, 0xda84bc191573a59e), // re-recorded
    ("lenet", "inq", 1, 64, "conv1", 0x7ceadc3d0634f29d, 0x572aa0498a568018),
    ("lenet", "inq", 1, 64, "conv2", 0x68101acd6e03a53d, 0x17ef598f5633cca1),
    ("lenet", "inq", 1, 64, "conv3", 0x2c282b1455ffc5ee, 0xfdc89c4c1abcfaa1),
    ("lenet", "inq", 1, 64, "ip1", 0x0273fdc84f00f802, 0xbb59b9a6017d270f), // re-recorded
    ("lenet", "inq", 1, 64, "ip2", 0xa889adf4265c795f, 0xda84bc191573a59e),
    ("lenet", "inq", 2, 16, "conv1", 0x6989f6db809c75fd, 0xd7ee2993681de869), // re-recorded: dense
    ("lenet", "inq", 2, 16, "conv2", 0x93eecd8e41310594, 0xf0dff19519b68558),
    ("lenet", "inq", 2, 16, "conv3", 0x2232da1387ccefd7, 0x8ea646ae2b2cdd94),
    ("lenet", "inq", 2, 16, "ip1", 0x2074e54b29df21bb, 0x63c5320b03750b87), // re-recorded
    ("lenet", "inq", 2, 16, "ip2", 0xde72b039b0275425, 0xb406057e8e39b27d), // re-recorded
    ("lenet", "inq", 2, 64, "conv1", 0x6989f6db809c75fd, 0xd7ee2993681de869), // re-recorded: dense
    ("lenet", "inq", 2, 64, "conv2", 0x24583f6d0cb59691, 0x488ac7ac6e80261a),
    ("lenet", "inq", 2, 64, "conv3", 0xa6f7ee4c4f4cf6df, 0xa9a968ba4fdcfc2e),
    ("lenet", "inq", 2, 64, "ip1", 0x2074e54b29df21bb, 0x63c5320b03750b87), // re-recorded
    ("lenet", "inq", 2, 64, "ip2", 0xde72b039b0275425, 0xb406057e8e39b27d),
    ("lenet", "inq", 3, 16, "conv1", 0xe3ec9d0c2a5a0277, 0x51ee0e845817f8ad), // re-recorded: dense
    ("lenet", "inq", 3, 16, "conv2", 0xd875a749622a2783, 0x46a433387f774a36),
    ("lenet", "inq", 3, 16, "conv3", 0x07077e345db7caec, 0xd3589a7a4f6ea92e), // re-recorded: dense
    ("lenet", "inq", 3, 16, "ip1", 0xb2ff2abfb16f6a59, 0x64b5b4036ce6de4e), // re-recorded
    ("lenet", "inq", 3, 16, "ip2", 0xd547900283359995, 0xd441b7607569f9d1), // re-recorded
    ("lenet", "inq", 3, 64, "conv1", 0xe3ec9d0c2a5a0277, 0x51ee0e845817f8ad), // re-recorded: dense
    ("lenet", "inq", 3, 64, "conv2", 0x78a148163ca7735a, 0x5b13591ff63ddae7),
    ("lenet", "inq", 3, 64, "conv3", 0x1b7c4336a2e3fc37, 0xd3589a7a4f6ea92e), // re-recorded: dense
    ("lenet", "inq", 3, 64, "ip1", 0xb2ff2abfb16f6a59, 0x64b5b4036ce6de4e), // re-recorded
    ("lenet", "inq", 3, 64, "ip2", 0xd547900283359995, 0xd441b7607569f9d1),
    ("lenet", "ttq", 1, 16, "conv1", 0x8941ab03c5833d44, 0x619684217ee06707),
    ("lenet", "ttq", 1, 16, "conv2", 0x965b261bfb51e016, 0x52a1c5ad84250c15),
    ("lenet", "ttq", 1, 16, "conv3", 0xb3c794d596cf53a1, 0x21d1d68a23dca1a9),
    ("lenet", "ttq", 1, 16, "ip1", 0x2e0c044183eb6915, 0x5bacf94cb9252b4b), // re-recorded
    ("lenet", "ttq", 1, 16, "ip2", 0x0b9b359558f775aa, 0x6b9d2a4e794aaa3a), // re-recorded
    ("lenet", "ttq", 1, 64, "conv1", 0x8941ab03c5833d44, 0x619684217ee06707),
    ("lenet", "ttq", 1, 64, "conv2", 0xba47f758d8bf77b9, 0xd107724b2189dd9f),
    ("lenet", "ttq", 1, 64, "conv3", 0x7d94bcea077415e8, 0x330c8e7790e2f32b),
    ("lenet", "ttq", 1, 64, "ip1", 0x2e0c044183eb6915, 0x5bacf94cb9252b4b), // re-recorded
    ("lenet", "ttq", 1, 64, "ip2", 0x0b9b359558f775aa, 0x6b9d2a4e794aaa3a),
    ("lenet", "ttq", 2, 16, "conv1", 0xb9bf67bf1fb6ffe5, 0x1fe9b28a03d7252d),
    ("lenet", "ttq", 2, 16, "conv2", 0xb3971382f864ad9e, 0xb277cf53f6d58fef),
    ("lenet", "ttq", 2, 16, "conv3", 0xafdc1039d5fa6b0d, 0x9986de4405c2cc25),
    ("lenet", "ttq", 2, 16, "ip1", 0x6332f2a87854a055, 0xb5489df2b990412d), // re-recorded
    ("lenet", "ttq", 2, 16, "ip2", 0xaddb712222d58a02, 0x1334bdfd34ebd55c), // re-recorded
    ("lenet", "ttq", 2, 64, "conv1", 0xb9bf67bf1fb6ffe5, 0x1fe9b28a03d7252d),
    ("lenet", "ttq", 2, 64, "conv2", 0x0c673e2f039b9a0c, 0x44f1282e0237e486),
    ("lenet", "ttq", 2, 64, "conv3", 0xd9974b5d2fc0be94, 0xc6b32de00e4972b4),
    ("lenet", "ttq", 2, 64, "ip1", 0x6332f2a87854a055, 0xb5489df2b990412d), // re-recorded
    ("lenet", "ttq", 2, 64, "ip2", 0xaddb712222d58a02, 0x1334bdfd34ebd55c),
    ("lenet", "ttq", 3, 16, "conv1", 0x818c71e911296e31, 0x56f046a1f3e615f0),
    ("lenet", "ttq", 3, 16, "conv2", 0x16ad1351a1956298, 0xb3c95e32d458f183),
    ("lenet", "ttq", 3, 16, "conv3", 0x5a58a633562a54f2, 0x516acaacb9ce3232),
    ("lenet", "ttq", 3, 16, "ip1", 0x50a43fd50c7e04cf, 0xf344f3e0355828bf), // re-recorded
    ("lenet", "ttq", 3, 16, "ip2", 0xda39a313d55c9e3d, 0x5aa258501b21b061), // re-recorded
    ("lenet", "ttq", 3, 64, "conv1", 0x818c71e911296e31, 0x56f046a1f3e615f0),
    ("lenet", "ttq", 3, 64, "conv2", 0x5065ba7f9f4b7fd9, 0xe808ca4c528b22c1),
    ("lenet", "ttq", 3, 64, "conv3", 0xff46fbc1ba738399, 0xe540bc0a6749ea87),
    ("lenet", "ttq", 3, 64, "ip1", 0x50a43fd50c7e04cf, 0xf344f3e0355828bf), // re-recorded
    ("lenet", "ttq", 3, 64, "ip2", 0xda39a313d55c9e3d, 0x5aa258501b21b061),
    ("tiny", "inq", 1, 16, "conv1", 0xf79757f47fc2e009, 0x6a7592f39954e42c),
    ("tiny", "inq", 1, 16, "conv2", 0x99a45af56e456221, 0x3d01d2fdec0fad1e),
    ("tiny", "inq", 1, 16, "fc", 0x1abf339e8c282ec4, 0x963ca6f5c7ae970e), // re-recorded
    ("tiny", "inq", 1, 64, "conv1", 0xf79757f47fc2e009, 0x6a7592f39954e42c),
    ("tiny", "inq", 1, 64, "conv2", 0x99a45af56e456221, 0x3d01d2fdec0fad1e),
    ("tiny", "inq", 1, 64, "fc", 0x1abf339e8c282ec4, 0x963ca6f5c7ae970e), // re-recorded
    ("tiny", "inq", 2, 16, "conv1", 0xb56c7bed08a5b8c8, 0xd61f84d0bc21d2be), // re-recorded: dense
    ("tiny", "inq", 2, 16, "conv2", 0xa9f4102be6b9f215, 0x1498aa8aebe49bc0), // re-recorded: dense
    ("tiny", "inq", 2, 16, "fc", 0x7d63251e44774711, 0x6dabc6d12265d073), // re-recorded
    ("tiny", "inq", 2, 64, "conv1", 0xb56c7bed08a5b8c8, 0xd61f84d0bc21d2be), // re-recorded: dense
    ("tiny", "inq", 2, 64, "conv2", 0xa9f4102be6b9f215, 0x1498aa8aebe49bc0), // re-recorded: dense
    ("tiny", "inq", 2, 64, "fc", 0x7d63251e44774711, 0x6dabc6d12265d073), // re-recorded
    ("tiny", "inq", 3, 16, "conv1", 0xeb9eb5c163b6bed9, 0x2731bd298a8d3f43), // re-recorded: dense
    ("tiny", "inq", 3, 16, "conv2", 0x3dc5b6be33f8cc8e, 0xa0ed50112618994a), // re-recorded: dense
    ("tiny", "inq", 3, 16, "fc", 0x7a5ed739b244aa98, 0x6991e64a3c4ac379), // re-recorded
    ("tiny", "inq", 3, 64, "conv1", 0xeb9eb5c163b6bed9, 0x2731bd298a8d3f43), // re-recorded: dense
    ("tiny", "inq", 3, 64, "conv2", 0x3dc5b6be33f8cc8e, 0xa0ed50112618994a), // re-recorded: dense
    ("tiny", "inq", 3, 64, "fc", 0x7a5ed739b244aa98, 0x6991e64a3c4ac379), // re-recorded
    ("tiny", "ttq", 1, 16, "conv1", 0x3aa72b8ae1e0aa3d, 0xbbe19b9c1d82b3a6),
    ("tiny", "ttq", 1, 16, "conv2", 0x457b263a6a165cf3, 0xc558b7f6776d5e44),
    ("tiny", "ttq", 1, 16, "fc", 0x6a8004654dd5ef44, 0xb8120da6d8b64256), // re-recorded
    ("tiny", "ttq", 1, 64, "conv1", 0x3aa72b8ae1e0aa3d, 0xbbe19b9c1d82b3a6),
    ("tiny", "ttq", 1, 64, "conv2", 0x457b263a6a165cf3, 0xc558b7f6776d5e44),
    ("tiny", "ttq", 1, 64, "fc", 0x6a8004654dd5ef44, 0xb8120da6d8b64256), // re-recorded
    ("tiny", "ttq", 2, 16, "conv1", 0xaef8106a4a3b5bb0, 0xf56d4e378b3604dc),
    ("tiny", "ttq", 2, 16, "conv2", 0xe3043bc45841c853, 0x2cb9995e97260734),
    ("tiny", "ttq", 2, 16, "fc", 0xc2b03bb918c75526, 0x69c2cdb0ecd5cd65), // re-recorded
    ("tiny", "ttq", 2, 64, "conv1", 0xaef8106a4a3b5bb0, 0xf56d4e378b3604dc),
    ("tiny", "ttq", 2, 64, "conv2", 0xe3043bc45841c853, 0x2cb9995e97260734),
    ("tiny", "ttq", 2, 64, "fc", 0xc2b03bb918c75526, 0x69c2cdb0ecd5cd65), // re-recorded
    ("tiny", "ttq", 3, 16, "conv1", 0x62a51de228208dde, 0x040e72dbbf8ce40e),
    ("tiny", "ttq", 3, 16, "conv2", 0x2cad4d171bb86070, 0xc308a46c7e7a2780),
    ("tiny", "ttq", 3, 16, "fc", 0x13924e53aef8ba43, 0xd1b8e757d7a4a0ff), // re-recorded
    ("tiny", "ttq", 3, 64, "conv1", 0x62a51de228208dde, 0x040e72dbbf8ce40e),
    ("tiny", "ttq", 3, 64, "conv2", 0x2cad4d171bb86070, 0xc308a46c7e7a2780),
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
