//! Golden conformance corpus: every registered executor backend against
//! every checked-in vector.
//!
//! The corpus lives in `tests/golden/*.txt` as a simple line-oriented text
//! format: small fixed layers and networks with concrete weights, inputs,
//! and the expected `i32` outputs (computed once from the dense reference
//! and committed). The harness runs **every** [`BackendKind`] against every
//! vector at several batch sizes — a new backend added to
//! [`BackendKind::ALL`] inherits the whole suite with zero new test code —
//! and the layer vectors through the paper's functional definition,
//! `factorized_conv`, too.
//!
//! Regenerate the corpus (e.g. after adding a case) with:
//!
//! ```sh
//! UCNN_REGEN_GOLDEN=1 cargo test --test conformance
//! ```
//!
//! Regeneration recomputes expected outputs from the dense reference
//! (`ucnn::model::reference`), which no backend shares code with; the
//! checked-in files additionally pin the reference itself against silent
//! behavior changes (the harness recomputes and compares).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ucnn::core::backend::BackendKind;
use ucnn::core::compile::UcnnConfig;
use ucnn::core::exec::factorized_conv;
use ucnn::core::flatten::run_stages;
use ucnn::core::plan::{CompiledLayer, CompiledNetwork, CompiledStage};
use ucnn::core::simd::available_tiers;
use ucnn::model::{
    forward, networks, reference, ActivationGen, NetworkSpec, QuantScheme, WeightGen,
};
use ucnn::tensor::{ConvGeom, Tensor3, Tensor4};

/// One parsed golden vector.
enum GoldenCase {
    Layer {
        name: String,
        geom: ConvGeom,
        conv_groups: usize,
        g: usize,
        ct: usize,
        weights: Tensor4<i16>,
        input: Tensor3<i16>,
        output: Tensor3<i32>,
    },
    Network {
        name: String,
        network: String,
        g: usize,
        ct: usize,
        weights: Vec<Tensor4<i16>>,
        input: Tensor3<i16>,
        output: Tensor3<i32>,
    },
}

fn spec_by_name(name: &str) -> NetworkSpec {
    match name {
        "tiny" => networks::tiny(),
        other => panic!("unknown network '{other}' in golden vector"),
    }
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Every checked-in vector, parsed, in file-name order.
fn golden_cases() -> Vec<GoldenCase> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(golden_dir())
        .expect("tests/golden must exist (run with UCNN_REGEN_GOLDEN=1 to create it)")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    files.sort();
    let case = |file: &PathBuf| {
        let name = file.file_stem().and_then(|s| s.to_str());
        let text = std::fs::read_to_string(file).expect("read golden vector");
        parse(name.expect("utf-8 file name"), &text)
    };
    files.iter().map(case).collect()
}

// ---------------------------------------------------------------------------
// Corpus definitions (used only for regeneration).
// ---------------------------------------------------------------------------

fn corpus_definitions() -> Vec<GoldenCase> {
    struct LayerDef {
        name: &'static str,
        geom: ConvGeom,
        conv_groups: usize,
        g: usize,
        ct: usize,
        scheme: QuantScheme,
        density: f64,
        seed: u64,
    }
    let layer_defs = vec![
        LayerDef {
            name: "layer_fc_64x10_ttq",
            geom: ConvGeom::new(1, 1, 64, 10, 1, 1),
            conv_groups: 1,
            g: 2,
            ct: 16,
            scheme: QuantScheme::ttq(),
            density: 0.5,
            seed: 101,
        },
        LayerDef {
            name: "layer_conv_stride2_pad1_inq",
            geom: ConvGeom::new(11, 9, 5, 6, 3, 3).with_stride(2).with_pad(1),
            conv_groups: 1,
            g: 2,
            ct: 3,
            scheme: QuantScheme::inq(),
            density: 0.7,
            seed: 102,
        },
        LayerDef {
            name: "layer_grouped_conv_pad1",
            geom: ConvGeom::new(7, 7, 4, 6, 3, 3).with_pad(1),
            conv_groups: 2,
            g: 2,
            ct: 4,
            scheme: QuantScheme::inq(),
            density: 0.8,
            seed: 103,
        },
        LayerDef {
            name: "layer_ragged_ct_g3",
            geom: ConvGeom::new(8, 8, 10, 4, 3, 3),
            conv_groups: 1,
            g: 3,
            ct: 4,
            scheme: QuantScheme::uniform_unique(9),
            density: 0.65,
            seed: 104,
        },
        LayerDef {
            name: "layer_very_sparse",
            geom: ConvGeom::new(6, 6, 4, 4, 3, 3),
            conv_groups: 1,
            g: 2,
            ct: 4,
            scheme: QuantScheme::uniform_unique(17),
            density: 0.1,
            seed: 105,
        },
        LayerDef {
            // Deep halo: pad 2 with a 3×3 filter makes every gather delta
            // non-positive, so edge outputs read the zero halo on all four
            // sides of the flattened executor's staged plane.
            name: "layer_halo_pad2_stride2",
            geom: ConvGeom::new(7, 6, 3, 4, 3, 3).with_stride(2).with_pad(2),
            conv_groups: 1,
            g: 2,
            ct: 2,
            scheme: QuantScheme::inq(),
            density: 0.75,
            seed: 107,
        },
        LayerDef {
            name: "layer_g_exceeds_k",
            geom: ConvGeom::new(5, 5, 4, 3, 3, 3),
            conv_groups: 1,
            g: 8,
            ct: 64,
            scheme: QuantScheme::inq(),
            density: 0.9,
            seed: 106,
        },
    ];

    let mut cases = Vec::new();
    for def in layer_defs {
        let mut wgen = WeightGen::new(def.scheme, def.seed).with_density(def.density);
        let weights = wgen.generate_dims(def.geom.k(), def.geom.c(), def.geom.r(), def.geom.s());
        let mut agen = ActivationGen::new(def.seed ^ 0xAC);
        let input = agen.generate(
            def.geom.c() * def.conv_groups,
            def.geom.in_w(),
            def.geom.in_h(),
        );
        let output = reference::conv2d(&def.geom, def.conv_groups, &input, &weights);
        cases.push(GoldenCase::Layer {
            name: def.name.to_string(),
            geom: def.geom,
            conv_groups: def.conv_groups,
            g: def.g,
            ct: def.ct,
            weights,
            input,
            output,
        });
    }

    for (name, scheme, density, g, ct, seed) in [
        (
            "network_tiny_inq_g2",
            QuantScheme::inq(),
            0.85,
            2,
            64,
            111u64,
        ),
        ("network_tiny_ttq_g3", QuantScheme::ttq(), 0.6, 3, 8, 112),
    ] {
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, scheme, seed, density);
        let mut agen = ActivationGen::new(seed ^ 0xAC);
        let input = agen.generate_for(&net.conv_layers()[0]);
        let output = forward::dense_forward(&net, &weights, &input);
        cases.push(GoldenCase::Network {
            name: name.to_string(),
            network: "tiny".to_string(),
            g,
            ct,
            weights,
            input,
            output,
        });
    }
    cases
}

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

fn push_nums<T: std::fmt::Display>(out: &mut String, label: &str, dims: &[usize], vals: &[T]) {
    out.push_str(label);
    for d in dims {
        write!(out, " {d}").unwrap();
    }
    for v in vals {
        write!(out, " {v}").unwrap();
    }
    out.push('\n');
}

fn serialize(case: &GoldenCase) -> String {
    let mut s = String::new();
    match case {
        GoldenCase::Layer {
            name,
            geom,
            conv_groups,
            g,
            ct,
            weights,
            input,
            output,
        } => {
            writeln!(s, "# UCNN golden conformance vector '{name}'.").unwrap();
            writeln!(
                s,
                "# Regenerate with: UCNN_REGEN_GOLDEN=1 cargo test --test conformance"
            )
            .unwrap();
            writeln!(s, "kind layer").unwrap();
            writeln!(
                s,
                "geom {} {} {} {} {} {} {} {}",
                geom.in_w(),
                geom.in_h(),
                geom.c(),
                geom.k(),
                geom.r(),
                geom.s(),
                geom.stride(),
                geom.pad()
            )
            .unwrap();
            writeln!(s, "conv_groups {conv_groups}").unwrap();
            writeln!(s, "g {g}").unwrap();
            writeln!(s, "ct {ct}").unwrap();
            push_nums(
                &mut s,
                "weights",
                &[weights.k(), weights.c(), weights.r(), weights.s()],
                weights.as_slice(),
            );
            push_nums(
                &mut s,
                "input",
                &[input.c(), input.w(), input.h()],
                input.as_slice(),
            );
            push_nums(
                &mut s,
                "output",
                &[output.c(), output.w(), output.h()],
                output.as_slice(),
            );
        }
        GoldenCase::Network {
            name,
            network,
            g,
            ct,
            weights,
            input,
            output,
        } => {
            writeln!(s, "# UCNN golden conformance vector '{name}'.").unwrap();
            writeln!(
                s,
                "# Regenerate with: UCNN_REGEN_GOLDEN=1 cargo test --test conformance"
            )
            .unwrap();
            writeln!(s, "kind network").unwrap();
            writeln!(s, "network {network}").unwrap();
            writeln!(s, "g {g}").unwrap();
            writeln!(s, "ct {ct}").unwrap();
            writeln!(s, "weights {}", weights.len()).unwrap();
            for w in weights {
                push_nums(&mut s, "w", &[w.k(), w.c(), w.r(), w.s()], w.as_slice());
            }
            push_nums(
                &mut s,
                "input",
                &[input.c(), input.w(), input.h()],
                input.as_slice(),
            );
            push_nums(
                &mut s,
                "output",
                &[output.c(), output.w(), output.h()],
                output.as_slice(),
            );
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

struct Lines<'a> {
    name: &'a str,
    iter: std::str::Lines<'a>,
}

impl<'a> Lines<'a> {
    /// Next non-comment line, split into tokens, with the expected label
    /// stripped.
    fn expect(&mut self, label: &str) -> Vec<&'a str> {
        loop {
            let line = self
                .iter
                .next()
                .unwrap_or_else(|| panic!("{}: unexpected end before '{label}'", self.name));
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let got = tokens.next().unwrap();
            assert_eq!(got, label, "{}: expected '{label}', got '{got}'", self.name);
            return tokens.collect();
        }
    }
}

fn nums<T: std::str::FromStr>(name: &str, tokens: &[&str]) -> Vec<T>
where
    T::Err: std::fmt::Debug,
{
    tokens
        .iter()
        .map(|t| {
            t.parse()
                .unwrap_or_else(|e| panic!("{name}: bad number '{t}': {e:?}"))
        })
        .collect()
}

fn parse_tensor4(name: &str, tokens: &[&str]) -> Tensor4<i16> {
    let dims: Vec<usize> = nums(name, &tokens[..4]);
    let vals: Vec<i16> = nums(name, &tokens[4..]);
    Tensor4::from_vec(dims[0], dims[1], dims[2], dims[3], vals)
        .unwrap_or_else(|_| panic!("{name}: weight tensor shape/value mismatch"))
}

fn parse_tensor3<T: std::str::FromStr + ucnn::tensor::Elem>(
    name: &str,
    tokens: &[&str],
) -> Tensor3<T>
where
    T::Err: std::fmt::Debug,
{
    let dims: Vec<usize> = nums(name, &tokens[..3]);
    let vals: Vec<T> = nums(name, &tokens[3..]);
    Tensor3::from_vec(dims[0], dims[1], dims[2], vals)
        .unwrap_or_else(|_| panic!("{name}: tensor shape/value mismatch"))
}

fn parse(name: &str, text: &str) -> GoldenCase {
    let mut lines = Lines {
        name,
        iter: text.lines(),
    };
    let kind = lines.expect("kind");
    match kind.as_slice() {
        ["layer"] => {
            let geom_nums: Vec<usize> = nums(name, &lines.expect("geom"));
            let [in_w, in_h, c, k, r, s, stride, pad] = geom_nums.as_slice() else {
                panic!("{name}: geom needs 8 fields");
            };
            let geom = ConvGeom::new(*in_w, *in_h, *c, *k, *r, *s)
                .with_stride(*stride)
                .with_pad(*pad);
            let conv_groups: usize = nums(name, &lines.expect("conv_groups"))[0];
            let g: usize = nums(name, &lines.expect("g"))[0];
            let ct: usize = nums(name, &lines.expect("ct"))[0];
            let weights = parse_tensor4(name, &lines.expect("weights"));
            let input = parse_tensor3::<i16>(name, &lines.expect("input"));
            let output = parse_tensor3::<i32>(name, &lines.expect("output"));
            GoldenCase::Layer {
                name: name.to_string(),
                geom,
                conv_groups,
                g,
                ct,
                weights,
                input,
                output,
            }
        }
        ["network"] => {
            let network = lines.expect("network")[0].to_string();
            let g: usize = nums(name, &lines.expect("g"))[0];
            let ct: usize = nums(name, &lines.expect("ct"))[0];
            let count: usize = nums(name, &lines.expect("weights"))[0];
            let weights: Vec<Tensor4<i16>> = (0..count)
                .map(|_| parse_tensor4(name, &lines.expect("w")))
                .collect();
            let input = parse_tensor3::<i16>(name, &lines.expect("input"));
            let output = parse_tensor3::<i32>(name, &lines.expect("output"));
            GoldenCase::Network {
                name: name.to_string(),
                network,
                g,
                ct,
                weights,
                input,
                output,
            }
        }
        other => panic!("{name}: unknown kind {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// The conformance run.
// ---------------------------------------------------------------------------

/// Batch sizes every backend is driven with: chunks of 1, 2, 3, 5 and 7
/// images run at pitch 8 in up to 8, 4, 2, 1 and 1 row-shifted copies over
/// the corpus's stride-2, pad-2, grouped and FC layers and its 7- and 12-row
/// planes; 9, 17 and 33 = one full 8-, 16- or 32-lane chunk + one image, so
/// the widest ISA tier the host has runs both its full-width strip and its
/// remainder.
const BATCHES: [usize; 8] = [1, 2, 3, 5, 7, 9, 17, 33];

fn check_case(case: &GoldenCase) {
    match case {
        GoldenCase::Layer {
            name,
            geom,
            conv_groups,
            g,
            ct,
            weights,
            input,
            output,
        } => {
            // The committed output must still be what the dense reference
            // computes — pins the reference against silent changes.
            assert_eq!(
                &reference::conv2d(geom, *conv_groups, input, weights),
                output,
                "{name}: dense reference diverged from the committed golden output"
            );
            let cfg = UcnnConfig {
                g: *g,
                ct: *ct,
                ..UcnnConfig::default()
            };
            let layer = CompiledLayer::compile(geom, *conv_groups, weights, &cfg);
            let check = |kind: &str, b: usize, got: Vec<Tensor3<i32>>| {
                assert_eq!(got.len(), b, "{name}: {kind} returned wrong batch size");
                for (i, out) in got.iter().enumerate() {
                    assert_eq!(
                        out, output,
                        "{name}: backend '{kind}' diverged (B={b}, image {i})"
                    );
                }
            };
            for b in BATCHES {
                let inputs = vec![input.clone(); b];
                for kind in BackendKind::ALL {
                    check(&format!("{kind:?}"), b, kind.run_layer(&layer, &inputs));
                }
                // The paper's functional definition (§III-A): the weights
                // sorted again for every image.
                let conv = |i| factorized_conv(geom, *conv_groups, i, weights, &cfg);
                check("factorized_conv", b, inputs.iter().map(conv).collect());
            }
        }
        GoldenCase::Network {
            name,
            network,
            g,
            ct,
            weights,
            input,
            output,
        } => {
            let spec = spec_by_name(network);
            assert_eq!(
                &forward::dense_forward(&spec, weights, input),
                output,
                "{name}: dense forward diverged from the committed golden output"
            );
            let cfg = UcnnConfig {
                g: *g,
                ct: *ct,
                ..UcnnConfig::default()
            };
            let compiled = CompiledNetwork::compile(&spec, weights, &cfg);
            for kind in BackendKind::ALL {
                for b in BATCHES {
                    let inputs = vec![input.clone(); b];
                    let got = compiled.forward_batch_with(&inputs, kind);
                    assert_eq!(got.len(), b, "{name}: {kind:?} returned wrong batch size");
                    for (i, out) in got.iter().enumerate() {
                        assert_eq!(
                            out, output,
                            "{name}: backend {kind:?} diverged (B={b}, image {i})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn golden_corpus_runs_every_backend_bit_identically() {
    let dir = golden_dir();
    if std::env::var_os("UCNN_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        for case in corpus_definitions() {
            let (name, text) = match &case {
                GoldenCase::Layer { name, .. } => (name.clone(), serialize(&case)),
                GoldenCase::Network { name, .. } => (name.clone(), serialize(&case)),
            };
            std::fs::write(dir.join(format!("{name}.txt")), text).expect("write golden vector");
        }
    }

    let cases = golden_cases();
    assert!(
        cases.len() >= 9,
        "golden corpus incomplete: found {} vectors in {}",
        cases.len(),
        dir.display()
    );
    for case in &cases {
        check_case(case);
    }
}

#[test]
fn corpus_definitions_round_trip_through_the_text_format() {
    // Serialization fidelity, independent of what is on disk: parse(serialize(x))
    // must preserve every tensor bit and config field.
    for case in corpus_definitions() {
        let text = serialize(&case);
        let (name, reparsed) = match &case {
            GoldenCase::Layer { name, .. } => (name.clone(), parse(name, &text)),
            GoldenCase::Network { name, .. } => (name.clone(), parse(name, &text)),
        };
        match (&case, &reparsed) {
            (
                GoldenCase::Layer {
                    geom: g1,
                    conv_groups: cg1,
                    g: ug1,
                    ct: ct1,
                    weights: w1,
                    input: i1,
                    output: o1,
                    ..
                },
                GoldenCase::Layer {
                    geom: g2,
                    conv_groups: cg2,
                    g: ug2,
                    ct: ct2,
                    weights: w2,
                    input: i2,
                    output: o2,
                    ..
                },
            ) => {
                assert_eq!(g1, g2, "{name}");
                assert_eq!(cg1, cg2, "{name}");
                assert_eq!(ug1, ug2, "{name}: g");
                assert_eq!(ct1, ct2, "{name}: ct");
                assert_eq!(w1, w2, "{name}");
                assert_eq!(i1, i2, "{name}");
                assert_eq!(o1, o2, "{name}");
            }
            (
                GoldenCase::Network {
                    network: n1,
                    g: ug1,
                    ct: ct1,
                    weights: w1,
                    input: i1,
                    output: o1,
                    ..
                },
                GoldenCase::Network {
                    network: n2,
                    g: ug2,
                    ct: ct2,
                    weights: w2,
                    input: i2,
                    output: o2,
                    ..
                },
            ) => {
                assert_eq!(n1, n2, "{name}");
                assert_eq!(ug1, ug2, "{name}: g");
                assert_eq!(ct1, ct2, "{name}: ct");
                assert_eq!(w1, w2, "{name}");
                assert_eq!(i1, i2, "{name}");
                assert_eq!(o1, o2, "{name}");
            }
            _ => panic!("{name}: kind changed across round trip"),
        }
    }
}

#[test]
fn every_isa_tier_matches_the_golden_corpus_bit_identically() {
    // The suite above runs the widest tier the host has. This test drives
    // every golden vector, layer and network alike, through every tier this
    // machine can execute, in one process — through the one entry point
    // that takes a tier, a layer as a one-stage list.
    let (mut layers, mut networks) = (0usize, 0usize);
    let cfg = |g, ct| UcnnConfig {
        g,
        ct,
        ..UcnnConfig::default()
    };
    for case in golden_cases() {
        let (name, stages, input, output) = match case {
            GoldenCase::Layer {
                name,
                geom,
                conv_groups,
                g,
                ct,
                weights,
                input,
                output,
            } => {
                layers += 1;
                let layer = CompiledLayer::compile(&geom, conv_groups, &weights, &cfg(g, ct));
                let stage = CompiledStage::Conv {
                    name: name.clone(),
                    layer,
                    is_fc: false,
                };
                (name, vec![stage], input, output)
            }
            GoldenCase::Network {
                name,
                network,
                g,
                ct,
                weights,
                input,
                output,
            } => {
                networks += 1;
                let spec = spec_by_name(&network);
                let plan = CompiledNetwork::compile(&spec, &weights, &cfg(g, ct));
                (name, plan.stages().to_vec(), input, output)
            }
        };
        for &tier in available_tiers() {
            for b in BATCHES {
                let inputs = vec![input.clone(); b];
                let got = run_stages(&stages, &inputs, tier);
                assert_eq!(got.len(), b, "{name}: {} wrong batch size", tier.name());
                for (i, out) in got.iter().enumerate() {
                    assert_eq!(
                        out,
                        &output,
                        "{name}: tier '{}' diverged (B={b}, image {i})",
                        tier.name()
                    );
                }
            }
        }
    }
    assert!(
        layers >= 7 && networks >= 2,
        "expected the full corpus, found {layers} layer and {networks} network vectors"
    );
}
