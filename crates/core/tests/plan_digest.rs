//! The plans are pinned: an FNV-1a digest of every retained stream and every
//! lowered tile of LeNet and `networks::tiny()` — INQ and TTQ weights,
//! `G ∈ {1, 2, 3}`, `Ct ∈ {16, 64}`, fixed seeds — against constants
//! recorded before PR 24 made the cold path cheaper. A change to *how* a
//! plan is built (rank tables, reused scratch, shared canonical orders) must
//! leave every row alone; a change to *what* is built moves them and has to
//! say so.
//!
//! Streams are read through their public surface (tile placement,
//! `canonical`, and every entry's position, ranks and closing level —
//! `columns()` row by row). A lowered tile has no public field, so its
//! digest is of its `Debug` form, which spells out `k_first`, `g`, `plane`,
//! `base`, `closes`, `rows`, `seg_ptr`, `segs` and the multiply count.
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

/// `(streams, lowered tiles)` of one compiled network.
fn digests(plan: &CompiledNetwork) -> (u64, u64) {
    let (mut streams, mut lowered) = (Fnv::new(), Fnv::new());
    for stage in plan.stages() {
        let CompiledStage::Conv { layer, .. } = stage else {
            continue;
        };
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
    }
    (streams.0, lowered.0)
}

/// `(net, scheme, G, Ct, streams, lowered)`, recorded at commit 81a5f0e
/// (PR 23), the parent of the PR that added this file.
#[rustfmt::skip]
const RECORDED: &[(&str, &str, usize, usize, u64, u64)] = &[
    ("lenet", "inq", 1, 16, 0x11456a045315026f, 0x678e7b72ea8a4c35),
    ("lenet", "inq", 1, 64, 0x13aeba59f3244b99, 0x9f43c2f4dfb0f5e0),
    ("lenet", "inq", 2, 16, 0xabbfaaa96db3d119, 0xb5452f40ae157df2),
    ("lenet", "inq", 2, 64, 0xe66567729122ab77, 0xf53abf1794caf70b),
    ("lenet", "inq", 3, 16, 0xc347c6f4e0f1f74c, 0xe73548bc294a767b),
    ("lenet", "inq", 3, 64, 0x905102188de1af4c, 0x5edb1161ec80cc0d),
    ("lenet", "ttq", 1, 16, 0xe214946f346adfd3, 0x136b020faa95c9ce),
    ("lenet", "ttq", 1, 64, 0x964dec3847b38b7b, 0x84939ebd0316504c),
    ("lenet", "ttq", 2, 16, 0x6df077b3b6c56b10, 0x92c30a486fa320f7),
    ("lenet", "ttq", 2, 64, 0xecfa9420c5df26ed, 0x4d6ea398ea16587f),
    ("lenet", "ttq", 3, 16, 0xbeeff701f43f8b18, 0x34799511f08c58a2),
    ("lenet", "ttq", 3, 64, 0x78cf5f6a7239827d, 0x8f0616ff2a416410),
    ("tiny", "inq", 1, 16, 0x1febae66e4297c85, 0x9668fd28d76eb4a3),
    ("tiny", "inq", 1, 64, 0x428c55271f9a85ad, 0xdf7fad0b775b3f1d),
    ("tiny", "inq", 2, 16, 0x9a5782f71c6d18d8, 0x508ce379fb769620),
    ("tiny", "inq", 2, 64, 0x72bdcf078fe9b5d1, 0x13a8bad3e65f5e7c),
    ("tiny", "inq", 3, 16, 0xdd9c4cb11c7204ef, 0x6f83717429dfdef1),
    ("tiny", "inq", 3, 64, 0x29b66039e2663db3, 0x8e0e48583b72be2c),
    ("tiny", "ttq", 1, 16, 0xdc6b921f4424bc8f, 0x4d8d9e35ae54bbd7),
    ("tiny", "ttq", 1, 64, 0x8f93202a2f9620aa, 0x3029a8ca6e918ead),
    ("tiny", "ttq", 2, 16, 0x5bb3aff1510db06f, 0x7d0dcd63b14d098f),
    ("tiny", "ttq", 2, 64, 0x07300070680faa90, 0x230a673dd2443025),
    ("tiny", "ttq", 3, 16, 0x4a5bbfc28ac65281, 0xebd9c5079f5813ae),
    ("tiny", "ttq", 3, 64, 0x6183a1cdc9acbde8, 0xc6f7940bd12d75d0),
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
                    let (streams, lowered) = digests(&plan);
                    rows.push((*net, *scheme_name, g, ct, streams, lowered));
                }
            }
        }
    }
    let listing: String = rows
        .iter()
        .map(|(net, scheme, g, ct, s, l)| {
            format!("    ({net:?}, {scheme:?}, {g}, {ct}, {s:#018x}, {l:#018x}),\n")
        })
        .collect();
    assert!(
        rows == RECORDED,
        "a plan differs from the recorded one; this run read\n{listing}"
    );
}
