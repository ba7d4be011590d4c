//! One regeneration function per table/figure of the paper's evaluation.
//!
//! Each function is deterministic (fixed seeds) and returns rows shaped like
//! the paper's plots. `quick` variants shrink networks/sweeps so the tests
//! and CI's smoke run can take every regeneration path; the full variants
//! feed `EXPERIMENTS.md`.

use ucnn_core::compile::{compile_layer, compile_layer_sampled, UcnnConfig};
use ucnn_core::encoding::{rle_bits_capped, EncodingParams, IitEncoding};
use ucnn_core::hierarchy::GroupStream;
use ucnn_core::partial_product;
use ucnn_model::stats::LayerRepetition;
use ucnn_model::{networks, NetworkSpec, QuantScheme, WeightGen};
use ucnn_sim::area::{dcnn_pe_area, ucnn_pe_area};
use ucnn_sim::chip::Simulator;
use ucnn_sim::config::ArchConfig;
use ucnn_sim::driver::{optimistic_runtime_ratio, simulate_designs, WorkloadSpec};
use ucnn_sim::lane::{run_lane, LaneConfig};

use crate::table::{f2, f3, geomean, TableOut};

/// Base seed for all experiments (results are fully deterministic).
pub const SEED: u64 = 0xC0FFEE;

fn nets_for(quick: bool) -> Vec<NetworkSpec> {
    if quick {
        vec![networks::lenet()]
    } else {
        networks::evaluation_suite()
    }
}

/// Figure 1: the three evaluation strategies for a 1-D convolution with
/// filter `{a, b, a}` — standard, factorized, and partial-product memoized —
/// with their multiply/read counts and identical outputs.
#[must_use]
pub fn fig1() -> TableOut {
    use ucnn_core::factorize::FilterFactorization;
    use ucnn_model::reference::conv2d;
    use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};

    let (a, b) = (3i16, 5i16);
    let input: Vec<i16> = vec![2, 7, 11, 13, 17, 19];
    let n_out = input.len() - 2;

    let geom = ConvGeom::new(input.len(), 1, 1, 1, 3, 1);
    let in_t = Tensor3::from_vec(1, input.len(), 1, input.clone()).unwrap();
    let filt = Tensor4::from_vec(1, 1, 3, 1, vec![a, b, a]).unwrap();

    let standard = conv2d(&geom, 1, &in_t, &filt);
    let fact = FilterFactorization::build(&[a, b, a]);
    let factored: Vec<i32> = (0..n_out).map(|x| fact.dot(&input[x..x + 3])).collect();
    let (memo_out, memo_report) = partial_product::memoized_conv(&geom, &in_t, &filt);
    assert_eq!(standard.as_slice(), factored.as_slice());
    assert_eq!(standard, memo_out);

    let mut t = TableOut::new(
        "Figure 1: 1-D convolution, filter {a, b, a} (identical outputs)",
        &["strategy", "multiplies", "per-output", "memory_reads"],
    );
    t.push_row(vec![
        "(a) standard".into(),
        (3 * n_out).to_string(),
        "3".into(),
        (6 * n_out).to_string(), // 3 weights + 3 inputs per output
    ]);
    t.push_row(vec![
        "(b) factorized".into(),
        (fact.multiplies() * n_out).to_string(),
        fact.multiplies().to_string(),
        (5 * n_out).to_string(), // 2 weights + 3 inputs per output
    ]);
    t.push_row(vec![
        "(c) memoized".into(),
        memo_report.memoized_multiplies.to_string(),
        f2(memo_report.memoized_multiplies as f64 / n_out as f64),
        (4 * n_out).to_string(),
    ]);
    t
}

/// Figure 3: average weight repetition per filter (zero and per-non-zero)
/// for the paper's selected layers, INQ-quantized (`U = 17`, ~90 % dense).
#[must_use]
pub fn fig3(quick: bool) -> TableOut {
    let mut t = TableOut::new(
        "Figure 3: weight repetition per filter (INQ, U=17)",
        &[
            "net",
            "layer",
            "nonzero_mean",
            "nonzero_std",
            "zero_mean",
            "zero_std",
            "mult_savings",
        ],
    );
    for net in nets_for(quick) {
        for (li, name) in networks::figure3_layers(&net).iter().enumerate() {
            let layer = net
                .conv_layer(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            let mut gen = WeightGen::new(QuantScheme::inq(), SEED ^ li as u64).with_density(0.9);
            let weights = gen.generate(&layer);
            let rep = LayerRepetition::measure(name.clone(), &weights);
            t.push_row(vec![
                net.name().to_string(),
                name.clone(),
                f2(rep.nonzero.mean),
                f2(rep.nonzero.std),
                f2(rep.zero.mean),
                f2(rep.zero.std),
                f2(rep.multiply_savings()),
            ]);
        }
    }
    t
}

/// Table II: hardware parameters of every design point.
#[must_use]
pub fn table2() -> TableOut {
    let mut t = TableOut::new(
        "Table II: hardware parameters (memory sizes in bytes)",
        &["design", "P", "VK", "VW", "G", "L1 inp", "L1 wt"],
    );
    for d in ucnn_sim::config::evaluation_designs(16) {
        t.push_row(vec![
            d.name.clone(),
            d.pes.to_string(),
            d.vk.to_string(),
            d.vw.to_string(),
            d.g.to_string(),
            d.l1_input_bytes.to_string(),
            d.l1_weight_bytes.to_string(),
        ]);
    }
    t
}

/// Figure 7: the G = 2 walkthrough — UCNN evaluates both filters in 6
/// multiplies where the dense datapath needs 16, cycle-accurately.
#[must_use]
pub fn fig7() -> TableOut {
    let (a, b) = (1i16, 2i16);
    let k1 = [b, a, a, b, a, a, a, b];
    let k2 = [b, b, a, b, b, b, a, a];
    let stream = GroupStream::build(&[&k1, &k2]);
    let acts: Vec<i16> = vec![3, 5, 7, 11, 13, 17, 19, 23];
    let mut t = TableOut::new(
        "Figure 7: G=2 walkthrough (two filters, 8 inputs)",
        &["design", "entries", "cycles", "multiplies", "outputs"],
    );
    for (name, depth) in [("UCNN (queue=2)", 2usize), ("UCNN (queue=0)", 0)] {
        let trace = run_lane(
            &stream,
            &acts,
            &LaneConfig {
                queue_depth: depth,
                ..LaneConfig::default()
            },
        );
        t.push_row(vec![
            name.to_string(),
            stream.entry_count().to_string(),
            trace.cycles.to_string(),
            trace.multiplies.to_string(),
            format!("{:?}", trace.outputs),
        ]);
    }
    // The dense datapath: 2 filters × 8 inputs.
    t.push_row(vec![
        "DCNN (2 lanes)".to_string(),
        "8".to_string(),
        "8".to_string(),
        "16".to_string(),
        "same".to_string(),
    ]);
    t
}

/// Figure 9: normalized energy for {networks} × {8,16}-bit × {90,65,50}%
/// weight density, broken into DRAM / L2+NoC / PE, normalized to DCNN.
///
/// Each UCNN Uxx design runs a workload quantized to `U = xx` (§VI-A); the
/// dense baselines use the same density (their energy is U-independent).
#[must_use]
pub fn fig9(quick: bool) -> TableOut {
    let nets = nets_for(quick);
    let bits_list: Vec<u32> = if quick { vec![16] } else { vec![8, 16] };
    let densities: Vec<f64> = if quick {
        vec![0.5]
    } else {
        vec![0.9, 0.65, 0.5]
    };
    let sample = if quick { 4 } else { 32 };

    let mut t = TableOut::new(
        "Figure 9: energy normalized to DCNN (components sum to the total)",
        &[
            "net",
            "bits",
            "density",
            "arch",
            "dram",
            "l2_noc",
            "pe",
            "total",
            "x_vs_dcnn_sp",
        ],
    );
    for net in &nets {
        for &bits in &bits_list {
            for &density in &densities {
                let base_spec = WorkloadSpec::uniform(17, density, SEED);
                let base = simulate_designs(
                    &[ArchConfig::dcnn(bits), ArchConfig::dcnn_sp(bits)],
                    net,
                    &base_spec,
                    sample,
                );
                let dcnn = &base[0];
                let sp = &base[1];
                let mut push = |arch: &str, rep: &ucnn_sim::NetworkReport| {
                    let n = rep.total.energy.normalized_to(&dcnn.total.energy);
                    let vs_sp = sp.total.energy.total_pj() / rep.total.energy.total_pj();
                    t.push_row(vec![
                        net.name().to_string(),
                        bits.to_string(),
                        f2(density),
                        arch.to_string(),
                        f3(n.dram_pj),
                        f3(n.l2_noc_pj),
                        f3(n.pe_pj),
                        f3(n.total_pj()),
                        f2(vs_sp),
                    ]);
                };
                push("DCNN", dcnn);
                push("DCNN_sp", sp);
                for &u in &[3usize, 17, 64, 256] {
                    let spec = WorkloadSpec::uniform(u, density, SEED);
                    let reports =
                        simulate_designs(&[ArchConfig::ucnn(u, bits)], net, &spec, sample);
                    push(&reports[0].arch.clone(), &reports[0]);
                }
            }
        }
    }
    t
}

/// Figure 10: per-layer energy breakdown for the four highlighted ResNet
/// 3×3 layers (`C:K:R:S` = 64:64 … 512:512), 50 % density, 16-bit.
#[must_use]
pub fn fig10(quick: bool) -> TableOut {
    let net = networks::resnet50();
    let sample = if quick { 4 } else { 32 };
    let mut t = TableOut::new(
        "Figure 10: ResNet layer energy breakdown (50% density, 16-bit, normalized to DCNN)",
        &["layer", "arch", "dram", "l2_noc", "pe", "total"],
    );
    for name in networks::figure10_layers() {
        let layer = net.conv_layer(&name).unwrap();
        let spec = WorkloadSpec::uniform(17, 0.5, SEED);
        let weights = spec.weights_for(&layer, 0);
        let dcnn = Simulator::new(ArchConfig::dcnn(16))
            .with_sampling(sample)
            .simulate_layer(&layer, &weights, spec.act_density);
        for design in [
            ArchConfig::dcnn(16),
            ArchConfig::dcnn_sp(16),
            ArchConfig::ucnn(3, 16),
            ArchConfig::ucnn(17, 16),
            ArchConfig::ucnn(256, 16),
        ] {
            // UCNN variants get matching-U workloads.
            let u = match design.name.as_str() {
                "UCNN U3" => 3,
                "UCNN U17" => 17,
                "UCNN U256" => 256,
                _ => 17,
            };
            let spec_u = WorkloadSpec::uniform(u, 0.5, SEED);
            let w = spec_u.weights_for(&layer, 0);
            let r = Simulator::new(design.clone())
                .with_sampling(sample)
                .simulate_layer(&layer, &w, spec_u.act_density);
            let geom_desc = format!("{}:{}:3:3", layer.geom().c(), layer.geom().k());
            let n = r.energy.normalized_to(&dcnn.energy);
            t.push_row(vec![
                geom_desc,
                design.name.clone(),
                f3(n.dram_pj),
                f3(n.l2_noc_pj),
                f3(n.pe_pj),
                f3(n.total_pj()),
            ]);
        }
    }
    t
}

/// Figure 11: optimistic normalized runtime vs weight density for UCNN
/// G = 1/2/4 (entries only — the union-of-non-zeros law) vs the flat
/// DCNN_sp baseline.
#[must_use]
pub fn fig11() -> TableOut {
    let mut t = TableOut::new(
        "Figure 11: normalized runtime vs weight density (optimistic)",
        &["density", "UCNN G=1", "UCNN G=2", "UCNN G=4", "DCNN_sp"],
    );
    for step in 1..=10 {
        let d = step as f64 / 10.0;
        t.push_row(vec![
            f2(d),
            f3(optimistic_runtime_ratio(1, d, SEED)),
            f3(optimistic_runtime_ratio(2, d, SEED)),
            f3(optimistic_runtime_ratio(4, d, SEED)),
            f3(1.0),
        ]);
    }
    t
}

/// Figure 12: performance on INQ-like data (`U = 17`, ~90 % dense, skewed
/// value distribution) with all implementation effects: skip-entry bubbles,
/// multiplier-contention stalls, and PE load imbalance. Runtime normalized
/// to DCNN_sp; `ideal` is the entries-only bound.
#[must_use]
pub fn fig12(quick: bool) -> TableOut {
    let nets = nets_for(quick);
    let sample = if quick { 4 } else { 32 };
    let mut t = TableOut::new(
        "Figure 12: normalized runtime on INQ data (vs DCNN_sp)",
        &["net", "arch", "runtime", "ideal", "overhead_vs_ideal"],
    );
    let mut per_arch: Vec<(String, Vec<f64>)> = Vec::new();
    for net in &nets {
        let spec = WorkloadSpec::inq(SEED);
        let designs = vec![
            ArchConfig::dcnn_sp(16),
            ArchConfig::ucnn(17, 16).with_g(1),
            ArchConfig::ucnn(17, 16).with_g(2),
        ];
        let names = ["DCNN_sp", "UCNN G=1", "UCNN G=2"];
        let reports = simulate_designs(&designs, net, &spec, sample);
        let base_cycles = reports[0].total.cycles;
        for (i, rep) in reports.iter().enumerate() {
            let runtime = rep.total.cycles / base_cycles;
            let ideal = rep.layers.iter().map(|l| l.ideal_cycles).sum::<f64>() / base_cycles;
            let overhead = if ideal > 0.0 {
                runtime / ideal - 1.0
            } else {
                0.0
            };
            t.push_row(vec![
                net.name().to_string(),
                names[i].to_string(),
                f3(runtime),
                f3(ideal),
                format!("{:.1}%", overhead * 100.0),
            ]);
            if let Some(entry) = per_arch.iter_mut().find(|(n, _)| n == names[i]) {
                entry.1.push(runtime);
            } else {
                per_arch.push((names[i].to_string(), vec![runtime]));
            }
        }
    }
    for (name, runtimes) in per_arch {
        t.push_row(vec![
            "geomean".to_string(),
            name,
            f3(geomean(&runtimes)),
            String::new(),
            String::new(),
        ]);
    }
    t
}

/// Figure 13: model size (bits per weight) vs weight density — pointer-
/// encoded UCNN tables at G = 1/2/4 vs the 8-bit RLE baseline vs the flat
/// TTQ (2 b) and INQ (5 b) encodings.
#[must_use]
pub fn fig13(quick: bool) -> TableOut {
    let k = if quick { 8 } else { 32 };
    let mut t = TableOut::new(
        "Figure 13: model size (bits/weight) vs weight density",
        &[
            "density",
            "UCNN G=1",
            "UCNN G=2",
            "UCNN G=4",
            "DCNN_sp 8b",
            "TTQ",
            "INQ",
        ],
    );
    for step in 1..=10 {
        let d = step as f64 / 10.0;
        // G=1/2 on U=17 weights, G=4 on U=3 (its feasible regime).
        let bpw = |u: usize, g: usize| -> f64 {
            let mut gen = WeightGen::new(QuantScheme::uniform_unique(u), SEED).with_density(d);
            let w = gen.generate_dims(k, 256, 3, 3);
            compile_layer(&w, &UcnnConfig::with_g(g)).bits_per_weight()
        };
        let mut gen = WeightGen::new(QuantScheme::uniform_unique(17), SEED).with_density(d);
        let w = gen.generate_dims(k, 256, 3, 3);
        let rle = rle_bits_capped(w.as_slice(), 8, 5) as f64 / w.len() as f64;
        t.push_row(vec![
            f2(d),
            f2(bpw(17, 1)),
            f2(bpw(17, 2)),
            f2(bpw(3, 4)),
            f2(rle),
            f2(2.0),
            f2(5.0),
        ]);
    }
    t
}

/// Figure 14: jump-encoded indirection tables on INQ-like ResNet weights —
/// model size (bits/weight) vs performance overhead, for G = 1 and G = 2.
#[must_use]
pub fn fig14(quick: bool) -> TableOut {
    let k = if quick { 8 } else { 32 };
    let mut gen = WeightGen::new(QuantScheme::inq(), SEED).with_density(0.9);
    let weights = gen.generate_dims(k, 256, 3, 3);
    let mut t = TableOut::new(
        "Figure 14: jump-table width sweep (INQ ResNet-like layer)",
        &["G", "encoding", "bits/weight", "perf_overhead_x"],
    );
    for g in [1usize, 2] {
        let ptr_plan = compile_layer(&weights, &UcnnConfig::with_g(g));
        let ptr_cycles = ptr_plan.totals().walk_cycles() as f64;
        t.push_row(vec![
            g.to_string(),
            "pointer".to_string(),
            f2(ptr_plan.bits_per_weight()),
            f3(1.0),
        ]);
        for bits in [4u8, 5, 6, 8, 10, 12] {
            let cfg = UcnnConfig {
                g,
                encoding: EncodingParams {
                    iit: IitEncoding::Jump { bits },
                    ..EncodingParams::default()
                },
                ..UcnnConfig::default()
            };
            let plan = compile_layer(&weights, &cfg);
            let overhead = plan.totals().walk_cycles() as f64 / ptr_cycles;
            t.push_row(vec![
                g.to_string(),
                format!("jump{bits}"),
                f2(plan.bits_per_weight()),
                f3(overhead),
            ]);
        }
    }
    t
}

/// Table III: PE area breakdown — DCNN `VK = 2` vs UCNN `G = 2, U = 17`
/// vs the flexible `U = 256` provisioning.
#[must_use]
pub fn table3() -> TableOut {
    let dcnn = dcnn_pe_area(2, 16, 8, 9);
    let u17 = ucnn_pe_area(2, 1, 17, 16, 64, 3, 3);
    let u256 = ucnn_pe_area(1, 2, 256, 16, 64, 3, 3);
    let mut t = TableOut::new(
        "Table III: PE area breakdown (mm^2, 32nm)",
        &[
            "component",
            "DCNN (VK=2)",
            "UCNN (G=2,U=17)",
            "UCNN (U=256)",
        ],
    );
    let rows: Vec<(&str, [f64; 3])> = vec![
        (
            "Input buffer",
            [dcnn.input_buffer, u17.input_buffer, u256.input_buffer],
        ),
        (
            "Indirection table",
            [
                dcnn.indirection_table,
                u17.indirection_table,
                u256.indirection_table,
            ],
        ),
        (
            "Weight buffer",
            [dcnn.weight_buffer, u17.weight_buffer, u256.weight_buffer],
        ),
        (
            "Partial sum buffer",
            [dcnn.psum_buffer, u17.psum_buffer, u256.psum_buffer],
        ),
        (
            "Arithmetic",
            [dcnn.arithmetic, u17.arithmetic, u256.arithmetic],
        ),
        ("Control logic", [dcnn.control, u17.control, u256.control]),
        ("Total", [dcnn.total(), u17.total(), u256.total()]),
    ];
    for (name, vals) in rows {
        t.push_row(vec![
            name.to_string(),
            format!("{:.5}", vals[0]),
            format!("{:.5}", vals[1]),
            format!("{:.5}", vals[2]),
        ]);
    }
    t.push_row(vec![
        "Overhead vs DCNN".to_string(),
        "-".to_string(),
        format!("{:.1}%", u17.overhead_vs(&dcnn) * 100.0),
        format!("{:.1}%", u256.overhead_vs(&dcnn) * 100.0),
    ]);
    t
}

/// Ablation: the G energy/runtime/model-size trade-off at `U = 3`
/// (DESIGN.md §6, `ablate_g`).
#[must_use]
pub fn ablate_g(quick: bool) -> TableOut {
    let net = if quick {
        networks::tiny()
    } else {
        networks::lenet()
    };
    let spec = WorkloadSpec::uniform(3, 0.5, SEED);
    let mut t = TableOut::new(
        "Ablation: G sweep (U=3, 50% density) — energy vs runtime vs model size",
        &["G", "energy_vs_G1", "cycles_vs_G1", "bits/weight"],
    );
    let base = simulate_designs(&[ArchConfig::ucnn(3, 16).with_g(1)], &net, &spec, 8);
    for g in [1usize, 2, 4, 8] {
        let r = simulate_designs(&[ArchConfig::ucnn(3, 16).with_g(g)], &net, &spec, 8);
        let bits = r[0].total.model_bits
            / net
                .conv_layers()
                .iter()
                .map(ucnn_model::ConvLayer::total_weight_count)
                .sum::<usize>() as f64;
        t.push_row(vec![
            g.to_string(),
            f3(r[0].energy_vs(&base[0])),
            f3(r[0].runtime_vs(&base[0])),
            f2(bits),
        ]);
    }
    t
}

/// Ablation: the maximum activation-group size (§IV-B chose 16): multiplies
/// saved vs multiplier operand width.
#[must_use]
pub fn ablate_group_cap(quick: bool) -> TableOut {
    let k = if quick { 4 } else { 16 };
    let mut gen = WeightGen::new(QuantScheme::ttq(), SEED).with_density(0.9);
    let weights = gen.generate_dims(k, 256, 3, 3);
    let mut t = TableOut::new(
        "Ablation: activation-group size cap (TTQ weights, 3x3x256)",
        &[
            "cap",
            "mult_reduction_x",
            "extra_operand_bits",
            "stall_cycles",
        ],
    );
    for cap in [4usize, 8, 16, 32, 64, 4096] {
        let cfg = UcnnConfig {
            group_cap: cap,
            ..UcnnConfig::with_g(1)
        };
        let plan = compile_layer_sampled(&weights, &cfg, usize::MAX);
        let reduction = plan.dense_weights() as f64 / plan.totals().multiplies as f64;
        let extra_bits = (cap as f64).log2().ceil() as u32;
        t.push_row(vec![
            cap.to_string(),
            f2(reduction),
            extra_bits.to_string(),
            plan.totals().stall_cycles.to_string(),
        ]);
    }
    t
}

/// Ablation: partial-product reuse (§III-C, unexploited by UCNN) vs
/// dot-product factorization on the same layer — multiply reduction.
#[must_use]
pub fn ablate_ppr() -> TableOut {
    let geom = ucnn_tensor::ConvGeom::new(14, 14, 8, 16, 3, 3).with_pad(1);
    let mut gen = WeightGen::new(QuantScheme::ttq(), SEED).with_density(0.6);
    let weights = gen.generate_dims(16, 8, 3, 3);
    let ppr = partial_product::analyze(&geom, &weights);
    let plan = compile_layer(&weights, &UcnnConfig::with_g(1));
    let outputs = (geom.out_w() * geom.out_h()) as f64;
    let fact_mults = plan.totals().multiplies as f64 * outputs;
    let dense = geom.macs() as f64;
    let mut t = TableOut::new(
        "Ablation: partial-product reuse vs dot-product factorization (TTQ, 3x3x8, 16 filters)",
        &["scheme", "multiplies", "reduction_x"],
    );
    t.push_row(vec!["dense".into(), format!("{dense:.0}"), f2(1.0)]);
    t.push_row(vec![
        "factorized (UCNN, cap 16)".into(),
        format!("{fact_mults:.0}"),
        f2(dense / fact_mults),
    ]);
    t.push_row(vec![
        "partial-product memo (III-C bound)".into(),
        format!("{}", ppr.memoized_multiplies),
        f2(ppr.dense_multiplies as f64 / ppr.memoized_multiplies as f64),
    ]);
    t
}

/// Ablation: multiplier provisioning — dispatch-queue depth and multiplier
/// throughput against stall cycles on skewed INQ data.
#[must_use]
pub fn ablate_multipliers() -> TableOut {
    let mut gen = WeightGen::new(QuantScheme::inq(), SEED).with_density(0.9);
    let weights = gen.generate_dims(2, 64, 3, 3);
    let f0 = weights.filter(0).to_vec();
    let f1 = weights.filter(1).to_vec();
    let stream = GroupStream::build(&[&f0, &f1]);
    let acts: Vec<i16> = (0..stream.tile_len()).map(|i| (i % 13) as i16).collect();
    let mut t = TableOut::new(
        "Ablation: multiplier provisioning (G=2 lane on INQ weights)",
        &["queue_depth", "mult_throughput", "cycles", "stall_cycles"],
    );
    for &(depth, thr) in &[
        (0usize, 1usize),
        (1, 1),
        (2, 1),
        (4, 1),
        (8, 1),
        (0, 2),
        (2, 2),
    ] {
        let trace = run_lane(
            &stream,
            &acts,
            &LaneConfig {
                queue_depth: depth,
                mult_throughput: thr,
                group_cap: 16,
            },
        );
        t.push_row(vec![
            depth.to_string(),
            thr.to_string(),
            trace.cycles.to_string(),
            trace.stall_cycles.to_string(),
        ]);
    }
    t
}

/// Reuse against the same-datapath dense yardstick: FC- and conv-shaped
/// layers (an i8 ternary-alphabet entry and LeNet's conv2, INQ and TTQ,
/// among them) across batch sizes, each run on every ISA tier the CPU
/// supports two ways — `reuse@<tier>`, the lowering the library elects, and
/// `dense@<tier>`, the same plan lowered as its dense tiles, two filters
/// each (`CompiledLayer::dense_lowered`), through the same staging,
/// kernels and epilogue. `x_reuse_vs_dense` is the dense row's time over
/// the reuse row's (above 1 where reuse pays; 1 on the dense row). Every
/// row's outputs are asserted bit-identical to the dense reference
/// (`reference::conv2d`). `repro reuse` writes these rows as
/// machine-readable `BENCH_reuse.json`.
///
/// `flat_bytes` is what the row's lowered tables keep resident;
/// `compile_us` / `lower_us` the cold path — `CompiledLayer::compile`
/// (which only keeps the weights), then the first `flat_tiles` of that
/// fresh plan (which sorts the streams of a layer it may walk one tile at
/// a time and keeps none) or its `dense_lowered` copy (which clones the
/// weights), the minimum over as many rounds as the cells time. A `provenance` section records commit, compiler, detected
/// tiers and core count. Both rows of a tier are timed in one process, so
/// drift of the host cancels out of their ratio.
#[must_use]
pub fn reuse_table(quick: bool) -> TableOut {
    use std::time::Instant;
    use ucnn_core::flatten::run_stages;
    use ucnn_core::plan::{CompiledLayer, CompiledStage};
    use ucnn_core::simd::{available_tiers, SimdCaps};
    use ucnn_model::{reference, ActivationGen};
    use ucnn_tensor::{ConvGeom, Tensor3};

    let (fc_c, conv_c, repeats) = if quick { (512, 16, 3) } else { (1024, 64, 60) };
    let batches: &[usize] = if quick { &[1, 8] } else { &[1, 2, 8, 16, 32] };
    let lenet_conv2 = networks::lenet()
        .conv_layer("conv2")
        .expect("LeNet has conv2")
        .geom();
    // `--quick` keeps the shape on 4 of its 32 filters: a band's 32
    // channels are what its shared walk, under TTQ, needs to cost less than
    // its dense tiles.
    let lenet_conv2 = if quick {
        ConvGeom::new(lenet_conv2.in_w(), lenet_conv2.in_h(), 32, 4, 5, 5).with_pad(2)
    } else {
        lenet_conv2
    };
    let layers = [
        (
            "fc 1x1",
            ConvGeom::new(1, 1, fc_c, 32, 1, 1),
            QuantScheme::inq(),
            2,
        ),
        (
            "conv 7x7",
            ConvGeom::new(7, 7, conv_c, 16, 3, 3).with_pad(1),
            QuantScheme::inq(),
            2,
        ),
        // The i8-alphabet entry: ternary TTQ weights (alphabet {±64}), and
        // G = 8 deepens the shared-partial hierarchy so phase 2 — the
        // per-segment multiply loop — carries the dominant share of the
        // reuse row's runtime.
        (
            "fc ttq i8",
            ConvGeom::new(1, 1, fc_c, 32, 1, 1),
            QuantScheme::ttq(),
            8,
        ),
        ("lenet conv2", lenet_conv2, QuantScheme::inq(), 2),
        // The convolution that elects its shared walks over its dense tiles
        // (TTQ at G = 4), so a walk's kernels keep a row: on `avx512`
        // `vnni_body`.
        ("lenet conv2 ttq g4", lenet_conv2, QuantScheme::ttq(), 4),
    ];

    // Per layer: its name, the cold path (compile, then each lowering) and
    // per lowering its label, resident bytes and one-stage list. Per cell
    // (layer × batch): the layer and the inputs.
    let mut built = Vec::new();
    let mut cells = Vec::new();
    for (li, (name, geom, scheme, g)) in layers.into_iter().enumerate() {
        let cfg = UcnnConfig::with_g(g);
        let mut wgen = WeightGen::new(scheme, SEED ^ 0xBA).with_density(0.9);
        let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
        let reuse = CompiledLayer::compile(&geom, 1, &weights, &cfg);
        let dense = reuse.dense_lowered();
        let (mut compile_s, mut lower_s) = (f64::INFINITY, [f64::INFINITY; 2]);
        for _ in 0..repeats {
            let start = Instant::now();
            let cold = CompiledLayer::compile(&geom, 1, &weights, &cfg);
            let compiled = Instant::now();
            std::hint::black_box(cold.flat_tiles());
            let lowered = Instant::now();
            std::hint::black_box(cold.dense_lowered());
            compile_s = compile_s.min((compiled - start).as_secs_f64());
            lower_s[0] = lower_s[0].min((lowered - compiled).as_secs_f64());
            lower_s[1] = lower_s[1].min(lowered.elapsed().as_secs_f64());
        }
        // `flat_bytes` lowers the elected plan before it is cloned into its
        // stage.
        let lowerings = [("reuse", reuse), ("dense", dense)].map(|(label, layer)| {
            let flat_bytes = layer.flat_bytes();
            let stage = CompiledStage::Conv {
                name: name.to_string(),
                layer,
                is_fc: false,
            };
            (label, flat_bytes, [stage])
        });
        let mut agen = ActivationGen::new(SEED ^ 0xBB);
        for &b in batches {
            let inputs: Vec<Tensor3<i16>> = (0..b)
                .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                .collect();
            let expected: Vec<_> = inputs
                .iter()
                .map(|i| reference::conv2d(&geom, 1, i, &weights))
                .collect();
            for &tier in available_tiers() {
                for (label, _, stages) in &lowerings {
                    assert_eq!(
                        run_stages(stages, &inputs, tier),
                        expected,
                        "{label}@{} diverged on {name} B={b}",
                        tier.name()
                    );
                }
            }
            cells.push((li, b, inputs));
        }
        built.push((name, compile_s, lower_s, lowerings));
    }

    // Every round visits every cell and times every lowering on every tier
    // once, after an untimed call of each lowering that brings its tables
    // and the inputs into cache. The host's slow phases (a busy neighbor)
    // outlast a cell, so a cell timed in one block can miss every quiet
    // phase; spread over the run, every cell meets the same phases, and its
    // minimum is a quiet phase's. Each round runs on a fresh thread (one at
    // a time), so its scratch arena is allocated afresh.
    let tiers = available_tiers();
    let mut times = vec![vec![[f64::INFINITY; 2]; tiers.len()]; cells.len()];
    let round = |times: &mut [Vec<[f64; 2]>]| {
        for ((li, _, inputs), mins) in cells.iter().zip(times) {
            let lowerings = &built[*li].3;
            for (_, _, stages) in lowerings {
                std::hint::black_box(run_stages(stages, inputs, SimdCaps::get().best()));
            }
            for (&tier, mins) in tiers.iter().zip(mins) {
                for ((_, _, stages), min) in lowerings.iter().zip(mins) {
                    let start = Instant::now();
                    std::hint::black_box(run_stages(stages, inputs, tier));
                    *min = min.min(start.elapsed().as_secs_f64());
                }
            }
        }
    };
    for _ in 0..repeats {
        std::thread::scope(|s| s.spawn(|| round(&mut times)).join())
            .expect("a timing round panicked");
    }

    let mut t = TableOut::new(
        "Reuse against the same-datapath dense lowering: per-image time (one thread)",
        &[
            "layer",
            "batch",
            "lowering",
            "per_image_us",
            "x_reuse_vs_dense",
            "flat_bytes",
            "compile_us",
            "lower_us",
        ],
    );
    for ((li, b, _), mins) in cells.iter().zip(&times) {
        let (name, compile_s, lower_s, lowerings) = &built[*li];
        for (tier, mins) in tiers.iter().zip(mins) {
            for (at, ((label, flat_bytes, _), s)) in lowerings.iter().zip(mins).enumerate() {
                t.push_row(vec![
                    (*name).to_string(),
                    b.to_string(),
                    format!("{label}@{}", tier.name()),
                    f2(s * 1e6 / *b as f64),
                    f3(mins[1] / s),
                    flat_bytes.to_string(),
                    f2(compile_s * 1e6),
                    f2(lower_s[at] * 1e6),
                ]);
            }
        }
    }
    // Where the numbers came from. `unknown` when the tool is not on PATH
    // or the run is outside a checkout.
    let tool = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
    };
    let tiers: Vec<&str> = available_tiers().iter().map(|t| t.name()).collect();
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut provenance = TableOut::new(
        "provenance",
        &["commit", "rustc", "simd_tiers", "available_parallelism"],
    );
    provenance.push_row(vec![
        tool("git", &["describe", "--always", "--dirty"]),
        tool("rustc", &["--version"]),
        tiers.join(" "),
        cores.to_string(),
    ]);
    t.push_section(provenance);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_counts_match_paper() {
        let t = fig1();
        // Standard: 3 mults/output; factorized: 2 (saves 33%).
        assert_eq!(t.rows[0][2], "3");
        assert_eq!(t.rows[1][2], "2");
        // Memoized computes fewer products than standard.
        let std_m: usize = t.rows[0][1].parse().unwrap();
        let memo_m: usize = t.rows[2][1].parse().unwrap();
        assert!(memo_m < std_m);
    }

    #[test]
    fn fig3_quick_has_lenet_rows() {
        let t = fig3(true);
        assert_eq!(t.rows.len(), 3); // conv1..conv3
                                     // Repetition must be >1 everywhere (pigeonhole).
        for row in &t.rows {
            assert!(row[2].parse::<f64>().unwrap() > 1.0, "{row:?}");
        }
    }

    #[test]
    fn table2_lists_six_designs() {
        assert_eq!(table2().rows.len(), 6);
    }

    #[test]
    fn fig7_reports_six_multiplies() {
        let t = fig7();
        assert!(t.rows[0][3] == "6" && t.rows[1][3] == "6");
        assert_eq!(t.rows[2][3], "16");
    }

    #[test]
    fn fig9_quick_shape_holds() {
        let t = fig9(true);
        // 6 designs × 1 net × 1 bits × 1 density.
        assert_eq!(t.rows.len(), 6);
        // UCNN U3 must beat DCNN_sp at 16-bit/50%.
        let u3 = t.rows.iter().find(|r| r[3] == "UCNN U3").unwrap();
        assert!(u3[8].parse::<f64>().unwrap() > 1.0, "{u3:?}");
    }

    #[test]
    fn fig10_quick_normalizes_each_layer_to_dcnn() {
        let t = fig10(true);
        // 4 ResNet layers × 5 designs, DCNN first in each layer's block.
        assert_eq!(t.rows.len(), 4 * 5);
        for block in t.rows.chunks(5) {
            assert_eq!(block[0][1], "DCNN");
            assert_eq!(block[0][5], "1.000", "{block:?}");
            for row in block {
                let parts: f64 = row[2..5].iter().map(|v| v.parse::<f64>().unwrap()).sum();
                let total: f64 = row[5].parse().unwrap();
                assert!((parts - total).abs() < 0.01, "{row:?}");
            }
            // UCNN U17 spends less energy than dense DCNN at 50 % density.
            let u17 = block.iter().find(|r| r[1] == "UCNN U17").unwrap();
            assert!(u17[5].parse::<f64>().unwrap() < 1.0, "{u17:?}");
        }
    }

    #[test]
    fn fig11_is_monotone_in_density_and_g() {
        let t = fig11();
        assert_eq!(t.rows.len(), 10);
        for rows in t.rows.windows(2) {
            let (a, b) = (&rows[0], &rows[1]);
            assert!(a[1].parse::<f64>().unwrap() <= b[1].parse::<f64>().unwrap() + 0.02);
        }
        // At any density: G1 <= G2 <= G4 <= 1.
        for row in &t.rows {
            let g1: f64 = row[1].parse().unwrap();
            let g2: f64 = row[2].parse().unwrap();
            let g4: f64 = row[3].parse().unwrap();
            assert!(g1 <= g2 + 0.02 && g2 <= g4 + 0.02 && g4 <= 1.05, "{row:?}");
        }
    }

    #[test]
    fn fig12_quick_normalizes_to_dcnn_sp() {
        let t = fig12(true);
        // LeNet × 3 designs, then one geomean row per design.
        assert_eq!(t.rows.len(), 3 + 3);
        assert_eq!(t.rows[0][..3], ["LeNet", "DCNN_sp", "1.000"]);
        for row in &t.rows[..3] {
            let runtime: f64 = row[2].parse().unwrap();
            let ideal: f64 = row[3].parse().unwrap();
            assert!(ideal > 0.0 && ideal <= runtime + 1e-3, "{row:?}");
        }
        for (row, geomean) in t.rows[..3].iter().zip(&t.rows[3..]) {
            assert_eq!((geomean[0].as_str(), &geomean[1]), ("geomean", &row[1]));
            // One network: the geomean is its runtime.
            assert_eq!(geomean[2], row[2]);
        }
    }

    #[test]
    fn fig13_g4_smallest_at_mid_density() {
        let t = fig13(true);
        let row = &t.rows[4]; // density 0.5
        let g1: f64 = row[1].parse().unwrap();
        let g2: f64 = row[2].parse().unwrap();
        let g4: f64 = row[3].parse().unwrap();
        assert!(g4 < g2 && g2 < g1, "{row:?}");
        // Paper: G=4 ≈ 3.3 bits/weight at 50 %.
        assert!((2.5..4.5).contains(&g4), "g4 = {g4}");
    }

    #[test]
    fn fig14_jump_shrinks_model_with_bounded_overhead() {
        let t = fig14(true);
        let ptr_g1: f64 = t.rows[0][2].parse().unwrap();
        let jump8_g1 = t
            .rows
            .iter()
            .find(|r| r[0] == "1" && r[1] == "jump8")
            .unwrap();
        let bits: f64 = jump8_g1[2].parse().unwrap();
        let overhead: f64 = jump8_g1[3].parse().unwrap();
        assert!(bits < ptr_g1, "jump8 {bits} vs pointer {ptr_g1}");
        assert!(overhead < 1.10, "overhead {overhead}");
    }

    #[test]
    fn table3_overheads_in_paper_band() {
        let t = table3();
        let last = t.rows.last().unwrap();
        let u17: f64 = last[2].trim_end_matches('%').parse().unwrap();
        let u256: f64 = last[3].trim_end_matches('%').parse().unwrap();
        assert!((10.0..25.0).contains(&u17), "u17 {u17}%");
        assert!((17.0..32.0).contains(&u256), "u256 {u256}%");
        assert!(u256 > u17);
    }

    #[test]
    fn reuse_table_pairs_both_lowerings_on_every_tier() {
        // Bit-exactness against the dense reference is asserted inside
        // reuse_table per cell; here we pin the table shape and positive
        // timings. Ratios are machine-dependent and not asserted: CI's
        // ratio guard on the checked-in `BENCH_reuse.json` is the perf gate.
        let t = reuse_table(true);
        let tiers = ucnn_core::simd::available_tiers();
        // Per cell: a reuse and a dense row per available ISA tier. 5
        // layers × 2 quick batch sizes.
        let cells = 5 * 2;
        assert_eq!(t.rows.len(), cells * 2 * tiers.len());
        assert_eq!(
            t.header,
            vec![
                "layer",
                "batch",
                "lowering",
                "per_image_us",
                "x_reuse_vs_dense",
                "flat_bytes",
                "compile_us",
                "lower_us"
            ]
        );
        for (pair, tier) in t.rows.chunks_exact(2).zip(tiers.iter().cycle()) {
            let [reuse, dense] = pair else { unreachable!() };
            assert_eq!(reuse[2], format!("reuse@{}", tier.name()), "{reuse:?}");
            assert_eq!(dense[2], format!("dense@{}", tier.name()), "{dense:?}");
            assert_eq!(reuse[..2], dense[..2], "one cell");
            assert_eq!(dense[4], "1.000", "{dense:?}");
            for row in pair {
                for col in [3, 4, 6, 7] {
                    assert!(row[col].parse::<f64>().unwrap() > 0.0, "{row:?}");
                }
                assert!(row[5].parse::<usize>().unwrap() > 0, "{row:?}");
            }
            // The TTQ convolution is walked: its two lowerings differ.
            if reuse[0] == "lenet conv2 ttq g4" {
                assert_ne!(reuse[5], dense[5], "a walk's bytes: {reuse:?}");
            }
        }
        // One provenance row rides along.
        assert_eq!(t.sections.len(), 1);
        assert_eq!(t.sections[0].title, "provenance");
        assert_eq!(t.sections[0].rows.len(), 1);
    }

    #[test]
    fn ablations_run() {
        assert!(!ablate_g(true).rows.is_empty());
        assert!(!ablate_group_cap(true).rows.is_empty());
        assert!(!ablate_ppr().rows.is_empty());
        assert!(!ablate_multipliers().rows.is_empty());
    }
}
