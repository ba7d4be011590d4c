//! One regeneration function per table/figure of the paper's evaluation.
//!
//! Each function is deterministic (fixed seeds) and returns rows shaped like
//! the paper's plots. `quick` variants shrink networks/sweeps so Criterion
//! can run them repeatedly; the full variants feed `EXPERIMENTS.md`.

use ucnn_core::backend::{backend, BackendKind};
use ucnn_core::compile::{compile_layer, compile_layer_sampled, UcnnConfig};
use ucnn_core::encoding::{rle_bits_capped, EncodingParams, IitEncoding};
use ucnn_core::exec::{factorized_conv, run_compiled};
use ucnn_core::hierarchy::GroupStream;
use ucnn_core::partial_product;
use ucnn_core::plan::CompiledLayer;
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

/// Knobs for the serve load experiment — the `repro serve` CLI surface.
///
/// Every `None`/empty field falls back to the built-in sweep: the full
/// workload matrix over the whole model zoo at an auto-calibrated rate.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Executor backend the engine serves through.
    pub backend: BackendKind,
    /// Schedule seed — same seed and config replay the identical stream.
    pub seed: u64,
    /// Requests per run (overrides `duration_s` and the built-in default).
    pub requests: Option<usize>,
    /// Target run length in seconds, converted to a request count via the
    /// offered rate.
    pub duration_s: Option<f64>,
    /// Generator shards for a single-workload run (`--workload` mode).
    pub shards: Option<usize>,
    /// Open-loop offered rate; auto-calibrated to half the measured
    /// closed-loop capacity when absent.
    pub rate_hz: Option<f64>,
    /// Restrict to one arrival process (`closed`/`open`/`bursty`/`ramp`)
    /// instead of the full matrix.
    pub workload: Option<String>,
    /// Mix for a single-workload run (`uniform`/`hotcold`/`sequential`).
    pub mix: Option<String>,
    /// Zoo subset to serve (repeatable `--model`); empty = whole zoo.
    pub models: Vec<String>,
    /// Per-request deadline in milliseconds (`--deadline-ms`). Applied to
    /// every matrix run when set; the `overload` workload always runs with
    /// a deadline (this value, or its built-in default).
    pub deadline_ms: Option<u64>,
    /// Directory the observability artifacts land in (`--out`):
    /// `serve_intervals.jsonl` (per-run interval samples),
    /// `serve_metrics.prom` (session Prometheus exposition), and
    /// `serve_metrics.json` (session JSON snapshot). `None` writes nothing.
    pub metrics_dir: Option<std::path::PathBuf>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        Self {
            backend: ucnn_serve::EngineConfig::default().backend,
            seed: SEED,
            requests: None,
            duration_s: None,
            shards: None,
            rate_hz: None,
            workload: None,
            mix: None,
            models: Vec::new(),
            deadline_ms: None,
            metrics_dir: None,
        }
    }
}

/// The serving model zoo: three registrations of the tiny topology with
/// distinct weights (seed and density), so multi-model mixes exercise real
/// per-model plans and per-model bit-exactness is meaningful.
const SERVE_ZOO: &[(&str, f64)] = &[("tiny", 0.9), ("tiny-b", 0.8), ("tiny-c", 0.7)];

/// Serving load harness: executes the workload zoo (closed, open-loop
/// fixed-rate, bursty, ramp arrivals × uniform/hot-cold/sequential mixes)
/// against the compile-once engine over a multi-model registry, through
/// sharded deterministic generators ([`ucnn_serve::harness`]). Every
/// response is verified bit for bit against its model's dense reference
/// (the run panics on any mismatch). One `ALL` row plus one row per model
/// is emitted per run; `repro serve` writes the table as
/// `BENCH_serve.json`.
///
/// The default matrix pins the sharded-stats acceptance pair — the same
/// closed workload at 1 and 8 generator shards — plus a `closed-1q`
/// baseline (the identical eight-worker pool running off one central
/// queue, `queue_shards: 1`) so the sharded-vs-single-queue comparison
/// holds every other variable fixed. It then sweeps the scheduled
/// arrivals at an auto-calibrated sustainable rate, and closes
/// with an `overload` run: an open-loop arrival at 4× the calibrated rate
/// (2× measured capacity) under a per-request deadline, exercising
/// deadline admission control and shed-on-expiry. The appended
/// `shed_q`/`shed_lag`/`shed_dl`/`steals`/`deadline_ms` columns break the
/// shed total down by cause and report whole-batch work stealing.
///
/// Observability: every engine records into one session
/// [`MetricsRegistry`](ucnn_serve::MetricsRegistry) (request-lifecycle
/// phase histograms, queue/in-flight gauges, harness accounting counters);
/// `ALL` rows carry the per-phase latency breakdown (queue wait vs batch
/// form vs execute vs respond). The per-layer reuse counters run during
/// the matrix and a dedicated all-backend × {B=1, B=8} sweep afterwards,
/// emitted as a nested `reuse` section (multiplies issued /
/// dense-equivalent per layer × backend × batch bucket). With
/// [`ServeOpts::metrics_dir`] set, interval samples
/// (`serve_intervals.jsonl`), the Prometheus exposition
/// (`serve_metrics.prom`), and the JSON snapshot (`serve_metrics.json`)
/// are written there.
#[must_use]
pub fn serve_load(quick: bool, opts: &ServeOpts) -> TableOut {
    use std::sync::Arc;
    use std::time::Duration;
    use ucnn_core::counters;
    use ucnn_model::forward;
    use ucnn_serve::harness::{self, ModelCases, RunConfig};
    use ucnn_serve::workload::{Arrival, Mix, StandardWorkload};
    use ucnn_serve::{Engine, EngineConfig, MetricsRegistry, ModelRegistry};

    let zoo: Vec<(&str, f64)> = if opts.models.is_empty() {
        SERVE_ZOO.to_vec()
    } else {
        opts.models
            .iter()
            .map(|m| {
                *SERVE_ZOO
                    .iter()
                    .find(|(name, _)| name == m)
                    .unwrap_or_else(|| panic!("unknown model '{m}'; the zoo is {SERVE_ZOO:?}"))
            })
            .collect()
    };

    let tiny = networks::tiny();
    let registry = Arc::new(ModelRegistry::new());
    let mut agen = ucnn_model::ActivationGen::new(opts.seed ^ 0x5E12E);
    let models: Vec<ModelCases> = zoo
        .iter()
        .enumerate()
        .map(|(i, (name, density))| {
            let mut spec = NetworkSpec::new(*name);
            for layer in tiny.layers() {
                spec.push(layer.clone());
            }
            let weights = forward::generate_network_weights(
                &spec,
                QuantScheme::inq(),
                opts.seed ^ (0xB0 + i as u64),
                *density,
            );
            registry.compile_and_insert(&spec, &weights, &UcnnConfig::with_g(2));
            let cases = (0..4)
                .map(|_| {
                    let input = agen.generate_for(&spec.conv_layers()[0]);
                    let expected = forward::dense_forward(&spec, &weights, &input);
                    (input, expected)
                })
                .collect();
            ModelCases {
                name: (*name).to_string(),
                cases,
            }
        })
        .collect();

    // One session-wide metrics registry: every engine of this invocation
    // (calibration included) records into it, so the final exposition
    // carries the whole session's lifecycle and accounting series.
    let session_metrics = Arc::new(MetricsRegistry::new(2));
    let start_engine = |queue_shards: usize| {
        Engine::start_with_metrics(
            Arc::clone(&registry),
            EngineConfig {
                // Eight workers is the acceptance configuration. The
                // default `queue_shards: 0` gives each worker its own
                // queue shard (work stealing keeps the extra shards from
                // stranding requests at low offered load); the `closed-1q`
                // baseline pins `queue_shards: 1` to run the identical
                // pool off one central queue, isolating the sharding
                // variable for the no-regression comparison.
                workers: 8,
                queue_shards,
                backend: opts.backend,
                ..EngineConfig::default()
            },
            Arc::clone(&session_metrics),
        )
    };

    // Offered rate for the scheduled arrivals: half the measured
    // closed-loop capacity unless pinned, so open/bursty/ramp runs are
    // sustainable on any machine.
    let rate = opts.rate_hz.unwrap_or_else(|| {
        let engine = start_engine(0);
        let wl = StandardWorkload {
            arrival: Arrival::Closed,
            mix: Mix::Sequential,
        };
        let report = harness::run(
            &engine,
            &models,
            &wl,
            RunConfig {
                requests: if quick { 24 } else { 96 },
                shards: 2,
                seed: opts.seed,
                ..RunConfig::default()
            },
        );
        let _ = engine.shutdown();
        (report.throughput_rps() / 2.0).max(50.0)
    });
    assert!(
        rate.is_finite() && rate > 0.0,
        "offered rate must be positive, got {rate}"
    );

    let default_requests = if quick { 48 } else { 480 };
    let requests_for = |arrival: &Arrival| -> usize {
        if let Some(n) = opts.requests {
            return n;
        }
        if let Some(secs) = opts.duration_s {
            // Closed loops have no schedule; size them by capacity instead
            // of the offered rate.
            let per_s = match arrival {
                Arrival::Closed => rate * 2.0,
                _ => rate,
            };
            return ((per_s * secs).ceil() as usize).max(1);
        }
        default_requests
    };

    // (arrival, mix, shards) per run. The 1-vs-8-shard closed pair is the
    // sharded-stats acceptance comparison reported in EXPERIMENTS.md.
    let matrix: Vec<(String, String, usize)> = match &opts.workload {
        Some(name) => vec![(
            name.clone(),
            opts.mix.clone().unwrap_or_else(|| "uniform".to_string()),
            opts.shards.unwrap_or(2),
        )],
        None => [
            ("closed", "sequential", 1usize),
            ("closed", "sequential", 8),
            // Same pool, same closed workload, one central queue
            // (`queue_shards: 1`): the single-queue baseline the
            // sharded closed×8 run is measured against.
            ("closed-1q", "sequential", 8),
            ("open", "uniform", 2),
            ("bursty", "hotcold", 2),
            ("ramp", "uniform", 2),
            ("overload", "uniform", 2),
        ]
        .iter()
        .map(|(w, m, s)| ((*w).to_string(), (*m).to_string(), *s))
        .collect(),
    };

    let title = format!(
        "Serving load harness: workload zoo, '{}' backend, seed {:#x}, rate {:.0}/s",
        opts.backend, opts.seed, rate
    );
    let mut t = TableOut::new(
        &title,
        &[
            "workload",
            "mix",
            "shards",
            "model",
            "scheduled",
            "completed",
            "shed",
            "errors",
            "mismatch",
            "req_per_s",
            "p50_us",
            "p95_us",
            "p99_us",
            "p999_us",
            "mean_batch",
            "max_batch",
            "q_wait_us",
            "form_us",
            "exec_us",
            "respond_us",
            "shed_q",
            "shed_lag",
            "shed_dl",
            "steals",
            "deadline_ms",
        ],
    );
    // Interval sampler series per run, flattened into one JSONL stream.
    let mut interval_log: Vec<String> = Vec::new();
    for (wname, mname, shards) in matrix {
        // `overload` is an open-loop arrival at 4× the calibrated rate
        // (2× measured capacity) under a per-request deadline: the run
        // that exercises deadline admission control and shed-on-expiry.
        // Any other workload picks up a deadline only when `--deadline-ms`
        // pins one.
        let deadline = if wname == "overload" {
            Some(Duration::from_millis(opts.deadline_ms.unwrap_or(100)))
        } else {
            opts.deadline_ms.map(Duration::from_millis)
        };
        let arrival = match wname.as_str() {
            "overload" => Arrival::Open {
                rate_hz: rate * 4.0,
            },
            // `closed-1q` is the closed workload on a single-central-queue
            // engine: the baseline for the sharding no-regression check.
            "closed-1q" => Arrival::Closed,
            _ => Arrival::parse(&wname, rate).unwrap_or_else(|| {
                panic!(
                    "unknown workload '{wname}'; choose closed, closed-1q, open, bursty, ramp, \
                     or overload"
                )
            }),
        };
        let queue_shards = if wname == "closed-1q" { 1 } else { 0 };
        let mix = Mix::parse(&mname).unwrap_or_else(|| {
            panic!("unknown mix '{mname}'; choose uniform, hotcold, or sequential")
        });
        let wl = StandardWorkload { arrival, mix };
        let engine = start_engine(queue_shards);
        let report = harness::run(
            &engine,
            &models,
            &wl,
            RunConfig {
                requests: requests_for(&arrival),
                shards,
                seed: opts.seed,
                // Backlog policy: a generator more than 2 s behind schedule
                // sheds instead of compressing the arrival process. With a
                // deadline in force the lag budget tightens to the deadline
                // itself — a generator that far behind could only submit
                // already-dead requests.
                max_lag: Some(deadline.unwrap_or(Duration::from_secs(2))),
                // HDR-histogram-log style progress sampling, written to
                // `serve_intervals.jsonl` when a metrics dir is set.
                interval: Some(Duration::from_millis(if quick { 10 } else { 50 })),
                deadline,
            },
        );
        let stats = engine.shutdown();
        assert_eq!(
            report.mismatches, 0,
            "serving outputs diverged from the dense reference ({wname}/{mname})"
        );
        for s in &report.intervals {
            interval_log.push(format!(
                "{{\"workload\": \"{wname}\", \"mix\": \"{mname}\", \"shards\": {shards}, \
                 \"at_ms\": {}, \"queue_depth\": {}, \"served\": {}, \"batches\": {}}}",
                s.at_ms, s.queue_depth, s.served, s.batches
            ));
        }
        let elapsed_s = report.elapsed.as_secs_f64().max(1e-9);
        let phase_us = |stat: ucnn_serve::PhaseStat| f2(stat.mean_ns() / 1_000.0);
        let deadline_cell = deadline
            .map(|d| d.as_millis().to_string())
            .unwrap_or_else(|| "-".to_string());
        t.push_row(vec![
            wname.clone(),
            mname.clone(),
            shards.to_string(),
            "ALL".to_string(),
            report.scheduled.to_string(),
            report.completed.to_string(),
            report.shed().to_string(),
            report.errors.to_string(),
            report.mismatches.to_string(),
            f2(report.throughput_rps()),
            f2(report.percentile_us(0.50)),
            f2(report.percentile_us(0.95)),
            f2(report.percentile_us(0.99)),
            f2(report.percentile_us(0.999)),
            f2(stats.mean_batch()),
            stats.max_batch().to_string(),
            phase_us(stats.phases.queue_wait),
            phase_us(stats.phases.batch_form),
            phase_us(stats.phases.execute),
            phase_us(stats.phases.respond),
            report.shed_queue.to_string(),
            report.shed_lag.to_string(),
            report.shed_deadline.to_string(),
            stats.steals.to_string(),
            deadline_cell.clone(),
        ]);
        for m in &report.per_model {
            let p_us = |q: f64| f2(m.latency.percentile(q) as f64 / 1_000.0);
            t.push_row(vec![
                wname.clone(),
                mname.clone(),
                shards.to_string(),
                m.name.clone(),
                m.scheduled.to_string(),
                m.completed.to_string(),
                m.shed.to_string(),
                m.errors.to_string(),
                m.mismatches.to_string(),
                f2(m.completed as f64 / elapsed_s),
                p_us(0.50),
                p_us(0.95),
                p_us(0.99),
                p_us(0.999),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                deadline_cell.clone(),
            ]);
        }
    }

    // Dedicated reuse sweep: every registered backend × {B=1, B=8} over
    // the zoo plans, driven directly (deterministic, engine-free) so
    // the reuse-ratio table always covers every backend regardless of
    // which one served the matrix. The counter sink is process-global, so the
    // enable→snapshot window is serialized against concurrent serve_load
    // calls (the bench test binary runs them in parallel).
    let snapshot = {
        static SWEEP: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = SWEEP
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        counters::reset();
        counters::set_enabled(true);
        for kind in BackendKind::ALL {
            for batch in [1usize, 8] {
                for m in &models {
                    let plan = registry.get(&m.name).expect("zoo model registered");
                    let inputs: Vec<_> = (0..batch)
                        .map(|i| m.cases[i % m.cases.len()].0.clone())
                        .collect();
                    let _ = plan.forward_batch_with(&inputs, kind, 1);
                }
            }
        }
        counters::set_enabled(false);
        let rows = counters::snapshot();
        counters::reset();
        rows
    };
    let zoo_names: Vec<&str> = zoo.iter().map(|(name, _)| *name).collect();
    let mut reuse = TableOut::new(
        "Per-layer reuse: multiplies issued vs dense-equivalent, by backend and batch bucket",
        &[
            "model",
            "layer",
            "backend",
            "batch_bucket",
            "images",
            "dense_mults",
            "issued_mults",
            "reuse_ratio",
            "gather_entries",
            "csr_segments",
            "lowering_hits",
            "lowering_misses",
        ],
    );
    for row in snapshot {
        if !zoo_names.contains(&row.net.as_str()) {
            continue;
        }
        reuse.push_row(vec![
            row.net.clone(),
            row.layer.clone(),
            row.backend.to_string(),
            row.batch_bucket.to_string(),
            row.work.images.to_string(),
            row.work.dense_multiplies.to_string(),
            row.work.multiplies_issued.to_string(),
            f3(row.work.reuse_ratio()),
            row.work.gather_entries.to_string(),
            row.work.csr_segments.to_string(),
            row.work.lowering_hits.to_string(),
            row.work.lowering_misses.to_string(),
        ]);
    }
    t.push_section(reuse);

    if let Some(dir) = &opts.metrics_dir {
        let _ = std::fs::create_dir_all(dir);
        let jsonl = interval_log.join("\n") + "\n";
        if let Err(e) = std::fs::write(dir.join("serve_intervals.jsonl"), jsonl) {
            eprintln!("warning: could not write serve_intervals.jsonl: {e}");
        }
        if let Err(e) = std::fs::write(
            dir.join("serve_metrics.prom"),
            session_metrics.render_prometheus(),
        ) {
            eprintln!("warning: could not write serve_metrics.prom: {e}");
        }
        if let Err(e) = std::fs::write(
            dir.join("serve_metrics.json"),
            session_metrics.snapshot_json(),
        ) {
            eprintln!("warning: could not write serve_metrics.json: {e}");
        }
    }
    t
}

/// Compile-once amortization: repeated inference of one layer through (a)
/// the dense reference, (b) `factorized_conv`, which re-sorts and
/// re-factorizes the weights on every call, and (c) a retained
/// [`CompiledLayer`] via `run_compiled`. FC-shaped layers (1×1 spatial)
/// make the per-call compilation cost visible: the stream walk is O(C) per
/// output but the sort is O(C log C), so retaining the plan wins — the
/// serving argument of UCNN §IV (and CREW's compile-once/serve-many MLPs).
#[must_use]
pub fn compile_amortization(quick: bool) -> TableOut {
    use std::time::Instant;
    use ucnn_tensor::{ConvGeom, Tensor3};

    let (fc_c, conv_c, repeats) = if quick { (512, 32, 5) } else { (2048, 128, 20) };
    let layers = [
        ("fc 1x1", ConvGeom::new(1, 1, fc_c, 32, 1, 1)),
        (
            "conv 7x7",
            ConvGeom::new(7, 7, conv_c, 16, 3, 3).with_pad(1),
        ),
    ];
    let cfg = UcnnConfig::with_g(2);

    let mut t = TableOut::new(
        "Compile-once amortization: per-call time over repeated inference",
        &["layer", "path", "calls", "per_call_us", "vs_factorized"],
    );
    for (name, geom) in layers {
        let mut wgen = WeightGen::new(QuantScheme::inq(), SEED ^ 0xA3).with_density(0.9);
        let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
        let mut agen = ucnn_model::ActivationGen::new(SEED ^ 0xA4);
        let input: Tensor3<i16> = agen.generate(geom.c(), geom.in_w(), geom.in_h());

        let t_dense = Instant::now();
        for _ in 0..repeats {
            std::hint::black_box(ucnn_model::reference::conv2d(&geom, 1, &input, &weights));
        }
        let dense_us = t_dense.elapsed().as_secs_f64() * 1e6 / repeats as f64;

        let t_fact = Instant::now();
        for _ in 0..repeats {
            std::hint::black_box(factorized_conv(&geom, 1, &input, &weights, &cfg));
        }
        let fact_us = t_fact.elapsed().as_secs_f64() * 1e6 / repeats as f64;

        let plan = CompiledLayer::compile(&geom, 1, &weights, &cfg);
        let t_comp = Instant::now();
        for _ in 0..repeats {
            std::hint::black_box(run_compiled(&plan, &input));
        }
        let compiled_us = t_comp.elapsed().as_secs_f64() * 1e6 / repeats as f64;

        for (path, us) in [
            ("dense reference", dense_us),
            ("factorized per-call", fact_us),
            ("run_compiled (retained)", compiled_us),
        ] {
            t.push_row(vec![
                name.to_string(),
                path.to_string(),
                repeats.to_string(),
                f2(us),
                f2(fact_us / us),
            ]);
        }
    }
    t
}

/// Batch-major execution: per-request vs batch-major vs threaded batch-major
/// throughput on FC- and conv-shaped layers across batch sizes. The walk
/// amortization is the whole story: one group-major traversal of the
/// retained streams serves every image of the batch, so per-image time
/// drops as B grows while outputs stay bit-identical (asserted per cell).
#[must_use]
pub fn batch_exec(quick: bool) -> TableOut {
    use std::time::Instant;
    use ucnn_core::exec::{run_compiled_batch, run_compiled_batch_threads};
    use ucnn_model::ActivationGen;
    use ucnn_tensor::{ConvGeom, Tensor3};

    let (fc_c, conv_c, repeats) = if quick { (512, 16, 3) } else { (1024, 64, 10) };
    let batches: &[usize] = if quick { &[2, 8] } else { &[1, 2, 8, 16] };
    let layers = [
        ("fc 1x1", ConvGeom::new(1, 1, fc_c, 32, 1, 1)),
        (
            "conv 7x7",
            ConvGeom::new(7, 7, conv_c, 16, 3, 3).with_pad(1),
        ),
    ];
    let cfg = UcnnConfig::with_g(2);

    let mut t = TableOut::new(
        "Batch-major execution: per-request vs one shared stream walk",
        &[
            "layer",
            "batch",
            "per_request_us",
            "batch_major_us",
            "speedup",
            "threaded_us(t=2)",
        ],
    );
    for (name, geom) in layers {
        let mut wgen = WeightGen::new(QuantScheme::inq(), SEED ^ 0xB1).with_density(0.9);
        let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
        let plan = CompiledLayer::compile(&geom, 1, &weights, &cfg);
        let mut agen = ActivationGen::new(SEED ^ 0xB2);
        for &b in batches {
            let inputs: Vec<Tensor3<i16>> = (0..b)
                .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                .collect();

            let t_seq = Instant::now();
            let mut sequential = Vec::new();
            for _ in 0..repeats {
                sequential = inputs
                    .iter()
                    .map(|i| run_compiled(&plan, i))
                    .collect::<Vec<_>>();
                std::hint::black_box(&sequential);
            }
            let seq_us = t_seq.elapsed().as_secs_f64() * 1e6 / (repeats * b) as f64;

            let t_batch = Instant::now();
            let mut batched = Vec::new();
            for _ in 0..repeats {
                batched = run_compiled_batch(&plan, &inputs);
                std::hint::black_box(&batched);
            }
            let batch_us = t_batch.elapsed().as_secs_f64() * 1e6 / (repeats * b) as f64;

            let t_thr = Instant::now();
            let mut threaded = Vec::new();
            for _ in 0..repeats {
                threaded = run_compiled_batch_threads(&plan, &inputs, 2);
                std::hint::black_box(&threaded);
            }
            let thr_us = t_thr.elapsed().as_secs_f64() * 1e6 / (repeats * b) as f64;

            assert_eq!(
                sequential, batched,
                "batch-major output diverged from per-request"
            );
            assert_eq!(sequential, threaded, "threaded output diverged");

            t.push_row(vec![
                name.to_string(),
                b.to_string(),
                f2(seq_us),
                f2(batch_us),
                f2(seq_us / batch_us),
                f2(thr_us),
            ]);
        }
    }
    t
}

/// Executor backend comparison: every registered backend on FC- and
/// conv-shaped layers (plus an i8 ternary-alphabet zoo entry) across batch
/// sizes — per-image time and speedup vs `batch-threads`, the serving
/// engine's default. Outputs are asserted bit-identical across rows per
/// cell, so the table doubles as an end-to-end conformance run. `repro
/// backends` writes these rows as machine-readable `BENCH_backends.json`
/// for the perf trajectory.
///
/// Beyond the three registered backends, each cell carries one
/// `flattened-batch@<tier>` row per ISA tier the CPU supports. The
/// `simd_tier` column reports the tier each row ran (`avx512`, `scalar`,
/// `-` for the stream walkers), and `flat_bytes` what the flattened rows'
/// lowered tables keep resident. A `provenance` section records where the
/// numbers came from: commit, compiler, detected tiers, core count.
///
/// `flattened-batch` and the pinned row of the tier it dispatches to run
/// the identical kernel: the gap between those two rows is the run's own
/// noise floor, which any comparison between other rows has to clear.
#[must_use]
pub fn backend_table(quick: bool) -> TableOut {
    use std::time::Instant;
    use ucnn_core::flatten::run_flattened_batch_interleaved_forced;
    use ucnn_core::plan::CompiledLayer;
    use ucnn_core::simd::{available_tiers, resolve_tier};
    use ucnn_model::ActivationGen;
    use ucnn_tensor::{ConvGeom, Tensor3};

    type Runner<'a> = Box<dyn Fn(&[Tensor3<i16>]) -> Vec<Tensor3<i32>> + 'a>;

    let (fc_c, conv_c, repeats) = if quick { (512, 16, 3) } else { (1024, 64, 30) };
    let batches: &[usize] = if quick { &[1, 8] } else { &[1, 2, 8, 16, 32] };
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
        // The i8-alphabet zoo entry: ternary TTQ weights (alphabet {±64}),
        // and G = 8 deepens the shared-partial hierarchy so phase 2 — the
        // per-segment multiply loop — carries the dominant share of the
        // runtime (each of the 7 outer levels walks its own segment list
        // against the shared kept prefix rows; the eighth is multiplied in
        // phase 1, where its groups close).
        (
            "fc ttq i8",
            ConvGeom::new(1, 1, fc_c, 32, 1, 1),
            QuantScheme::ttq(),
            8,
        ),
    ];

    let mut t = TableOut::new(
        "Executor backends: per-image time (2 exec threads where supported)",
        &[
            "layer",
            "batch",
            "backend",
            "simd_tier",
            "per_image_us",
            "x_vs_batch_threads",
            "flat_bytes",
        ],
    );
    for (name, geom, scheme, g) in layers {
        let cfg = UcnnConfig::with_g(g);
        let mut wgen = WeightGen::new(scheme, SEED ^ 0xBA).with_density(0.9);
        let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
        let plan = CompiledLayer::compile(&geom, 1, &weights, &cfg);
        let flat_bytes = plan.flat_bytes().to_string();
        let mut agen = ActivationGen::new(SEED ^ 0xBB);
        for &b in batches {
            // Shadow the plan as a shared borrow so the `move` runners
            // capture the (Copy) reference, not the plan itself.
            let plan = &plan;
            let inputs: Vec<Tensor3<i16>> = (0..b)
                .map(|_| agen.generate(geom.c(), geom.in_w(), geom.in_h()))
                .collect();
            let expected: Vec<_> = inputs.iter().map(|i| run_compiled(plan, i)).collect();
            // The measured variants — (backend column, simd_tier column,
            // runner): the registered backends and one tier-pinned
            // flattened-batch per available ISA tier.
            let mut variants: Vec<(String, String, Runner<'_>)> = Vec::new();
            for kind in BackendKind::ALL {
                let tier_label = if kind == BackendKind::FlattenedBatch {
                    resolve_tier().name()
                } else {
                    "-"
                };
                variants.push((
                    kind.name().to_string(),
                    tier_label.to_string(),
                    Box::new(move |ins| backend(kind).run_layer(plan, ins, 2)),
                ));
            }
            for &tier in available_tiers() {
                variants.push((
                    format!("flattened-batch@{}", tier.name()),
                    tier.name().to_string(),
                    Box::new(move |ins| run_flattened_batch_interleaved_forced(plan, ins, 2, tier)),
                ));
            }
            // Correctness (and warm-up): every variant must agree bit for
            // bit.
            for (label, _, run) in &variants {
                assert_eq!(
                    run(&inputs),
                    expected,
                    "backend {label} diverged on {name} B={b}"
                );
            }
            // Reported numbers: interleaved rounds over every variant, min
            // per variant across rounds. The round-robin order means slow
            // drift — thermal, a noisy neighbor — hits every variant alike
            // instead of whichever one happened to own the polluted block,
            // and the per-run minimum discards preempted iterations
            // entirely.
            let mut mins = vec![f64::INFINITY; variants.len()];
            for _ in 0..repeats {
                for ((_, _, run), min) in variants.iter().zip(&mut mins) {
                    let start = Instant::now();
                    std::hint::black_box(run(&inputs));
                    *min = min.min(start.elapsed().as_secs_f64());
                }
            }
            let baseline = variants
                .iter()
                .zip(&mins)
                .find(|((label, ..), _)| label == BackendKind::BatchThreads.name())
                .expect("batch-threads is a registered backend")
                .1;
            for ((label, tier_label, _), s) in variants.iter().zip(&mins) {
                t.push_row(vec![
                    name.to_string(),
                    b.to_string(),
                    label.clone(),
                    tier_label.clone(),
                    f2(s * 1e6 / b as f64),
                    f2(baseline / s),
                    if tier_label == "-" {
                        tier_label.clone()
                    } else {
                        flat_bytes.clone()
                    },
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
    fn serve_load_quick_matrix_is_clean_and_accounted() {
        let t = serve_load(true, &ServeOpts::default());
        // 7 runs × (1 ALL row + 3 zoo models).
        assert_eq!(t.rows.len(), 7 * 4);
        for row in &t.rows {
            assert_eq!(row[8], "0", "mismatches: {row:?}");
            let scheduled: u64 = row[4].parse().unwrap();
            let completed: u64 = row[5].parse().unwrap();
            let shed: u64 = row[6].parse().unwrap();
            let errors: u64 = row[7].parse().unwrap();
            assert_eq!(
                completed + shed + errors,
                scheduled,
                "lost requests: {row:?}"
            );
        }
        // ALL rows break the shed total down by cause in the appended
        // columns: shed == shed_q + shed_lag + shed_dl, always.
        for row in t.rows.iter().filter(|r| r[3] == "ALL") {
            let shed: u64 = row[6].parse().unwrap();
            let by_cause: u64 = (20..=22).map(|i| row[i].parse::<u64>().unwrap()).sum();
            assert_eq!(shed, by_cause, "shed breakdown: {row:?}");
        }
        // The overload run carries its deadline; every other run runs
        // without one by default.
        let overload = t
            .rows
            .iter()
            .find(|r| r[0] == "overload" && r[3] == "ALL")
            .expect("missing overload row");
        assert_eq!(overload[24], "100", "deadline_ms: {overload:?}");
        assert!(
            t.rows
                .iter()
                .filter(|r| r[0] != "overload")
                .all(|r| r[24] == "-"),
            "deadline leaked into non-overload runs"
        );
        // The acceptance pair: closed/sequential at 1 and 8 shards, both
        // completing everything (closed loops never shed) — plus the
        // single-central-queue baseline at the same 8 workers.
        for (workload, shards) in [("closed", "1"), ("closed", "8"), ("closed-1q", "8")] {
            let row = t
                .rows
                .iter()
                .find(|r| r[0] == workload && r[2] == shards && r[3] == "ALL")
                .unwrap_or_else(|| panic!("missing {workload} x{shards} row"));
            assert_eq!(row[4], row[5], "closed run must complete all: {row:?}");
            assert!(row[9].parse::<f64>().unwrap() > 0.0, "throughput: {row:?}");
        }
        // Per-model scheduled counts sum to the run total for every run.
        for all_row in t.rows.iter().filter(|r| r[3] == "ALL") {
            let sum: u64 = t
                .rows
                .iter()
                .filter(|r| r[0] == all_row[0] && r[2] == all_row[2] && r[3] != "ALL")
                .map(|r| r[4].parse::<u64>().unwrap())
                .sum();
            assert_eq!(sum.to_string(), all_row[4], "split mismatch: {all_row:?}");
        }
    }

    #[test]
    fn serve_load_single_workload_and_model_subset() {
        let opts = ServeOpts {
            backend: BackendKind::FlattenedBatch,
            workload: Some("open".to_string()),
            mix: Some("sequential".to_string()),
            models: vec!["tiny".to_string()],
            rate_hz: Some(500.0),
            requests: Some(20),
            shards: Some(2),
            ..ServeOpts::default()
        };
        let t = serve_load(true, &opts);
        assert_eq!(t.rows.len(), 2); // one run, one model
        assert_eq!(t.rows[0][0], "open");
        assert_eq!(t.rows[0][4], "20");
        assert_eq!(t.rows[1][3], "tiny");
        assert_eq!(t.rows[0][8], "0", "mismatches");
    }

    #[test]
    fn serve_load_same_seed_replays_counts() {
        // Closed-loop runs are structurally deterministic: the same seed
        // must reproduce every count column (timing columns excluded).
        let opts = ServeOpts {
            workload: Some("closed".to_string()),
            mix: Some("hotcold".to_string()),
            requests: Some(30),
            seed: 0xFEED,
            ..ServeOpts::default()
        };
        let a = serve_load(true, &opts);
        let b = serve_load(true, &opts);
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            // workload, mix, shards, model, scheduled, completed, shed,
            // errors, mismatch — everything before the timing columns.
            assert_eq!(ra[..9], rb[..9], "replay diverged");
        }
        // A different seed draws a different hot/cold split.
        let c = serve_load(
            true,
            &ServeOpts {
                seed: 0xBEEF,
                ..opts
            },
        );
        assert_ne!(
            a.rows.iter().map(|r| r[4].clone()).collect::<Vec<_>>(),
            c.rows.iter().map(|r| r[4].clone()).collect::<Vec<_>>(),
            "different seed must change the per-model split"
        );
    }

    #[test]
    fn serve_load_emits_phase_breakdown_reuse_section_and_metrics_files() {
        let dir = std::env::temp_dir().join("ucnn_serve_metrics_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOpts {
            workload: Some("closed".to_string()),
            mix: Some("sequential".to_string()),
            requests: Some(24),
            metrics_dir: Some(dir.clone()),
            ..ServeOpts::default()
        };
        let t = serve_load(true, &opts);
        // Phase columns ride on ALL rows and parse as microseconds; the
        // magnitudes are machine-dependent and not asserted.
        let header_at = |name: &str| t.header.iter().position(|h| h == name).unwrap();
        let all_row = &t.rows[0];
        assert_eq!(all_row[3], "ALL");
        for col in ["q_wait_us", "form_us", "exec_us", "respond_us"] {
            let v: f64 = all_row[header_at(col)].parse().unwrap();
            assert!(v >= 0.0, "{col} = {v}");
        }
        assert!(
            all_row[header_at("exec_us")].parse::<f64>().unwrap() > 0.0,
            "forwards take nonzero time"
        );
        // The reuse section covers every backend at both batch buckets for
        // every zoo model, with the factorized walk never exceeding dense.
        assert_eq!(t.sections.len(), 1);
        let reuse = &t.sections[0];
        for kind in BackendKind::ALL {
            for bucket in ["1", "8"] {
                let rows: Vec<_> = reuse
                    .rows
                    .iter()
                    .filter(|r| r[2] == kind.name() && r[3] == bucket)
                    .collect();
                assert!(!rows.is_empty(), "no reuse rows for {kind} B={bucket}");
                for row in rows {
                    let dense: u64 = row[5].parse().unwrap();
                    let issued: u64 = row[6].parse().unwrap();
                    let ratio: f64 = row[7].parse().unwrap();
                    assert!(issued > 0 && issued <= dense, "work bounds: {row:?}");
                    assert!(ratio > 0.0 && ratio <= 1.0, "ratio bounds: {row:?}");
                }
            }
        }
        // CSR segments equal issued multiplies on the flattened backend only.
        for row in &reuse.rows {
            let issued: u64 = row[6].parse().unwrap();
            let csr: u64 = row[9].parse().unwrap();
            if row[2].starts_with("flattened") {
                assert_eq!(csr, issued, "CSR invariant: {row:?}");
            } else {
                assert_eq!(csr, 0, "stream walkers report no CSR: {row:?}");
            }
        }
        // The observability artifacts landed in the metrics dir.
        let prom = std::fs::read_to_string(dir.join("serve_metrics.prom")).unwrap();
        assert!(prom.contains("# TYPE engine_execute_ns summary"));
        assert!(prom.contains("harness_scheduled_total"));
        let json = std::fs::read_to_string(dir.join("serve_metrics.json")).unwrap();
        assert!(json.contains("\"histograms\""));
        let jsonl = std::fs::read_to_string(dir.join("serve_intervals.jsonl")).unwrap();
        assert!(jsonl.lines().count() >= 2, "interval samples present");
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backend_table_covers_every_backend_bit_exactly() {
        // Bit-exactness across backends is asserted inside backend_table
        // per cell; here we pin the table shape and positive timings.
        // Speedups are machine-dependent and not asserted (the micro bench
        // is the perf gate).
        let t = backend_table(true);
        let tiers = ucnn_core::simd::available_tiers().len();
        // Per cell: the three registered backends and one tier-pinned
        // flattened-batch row per available ISA tier. 3 layers × 2 quick
        // batch sizes.
        let per_cell = BackendKind::ALL.len() + tiers;
        let cells = 3 * 2;
        assert_eq!(t.rows.len(), cells * per_cell);
        assert_eq!(
            t.header,
            vec![
                "layer",
                "batch",
                "backend",
                "simd_tier",
                "per_image_us",
                "x_vs_batch_threads",
                "flat_bytes"
            ]
        );
        for row in &t.rows {
            assert!(row[4].parse::<f64>().unwrap() > 0.0, "{row:?}");
            assert!(row[5].parse::<f64>().unwrap() > 0.0, "{row:?}");
            // Every row reports which kernel ran: flattened rows carry a
            // tier name, the rest a `-` placeholder.
            if row[2].starts_with("flattened") {
                assert!(
                    ucnn_core::simd::SimdTier::parse(&row[3]).is_some(),
                    "flattened rows report their tier: {row:?}"
                );
                assert!(row[6].parse::<usize>().unwrap() > 0, "{row:?}");
            } else {
                assert_eq!((row[3].as_str(), row[6].as_str()), ("-", "-"), "{row:?}");
            }
        }
        // Every backend appears for the FC B=1 cell.
        let fc_b1: Vec<_> = t
            .rows
            .iter()
            .filter(|r| r[0] == "fc 1x1" && r[1] == "1")
            .collect();
        assert_eq!(fc_b1.len(), per_cell);
        // Forced-tier rows exist for every available tier.
        for tier in ucnn_core::simd::available_tiers() {
            let pinned = format!("flattened-batch@{}", tier.name());
            assert_eq!(
                t.rows.iter().filter(|r| r[2] == pinned).count(),
                cells,
                "{pinned} row per cell"
            );
        }
        // One provenance row rides along.
        assert_eq!(t.sections.len(), 1);
        assert_eq!(t.sections[0].title, "provenance");
        assert_eq!(t.sections[0].rows.len(), 1);
        // The baseline column is relative to the engine default's own row.
        for row in t.rows.iter().filter(|r| r[2] == "batch-threads") {
            assert_eq!(row[5], "1.00", "{row:?}");
        }
    }

    #[test]
    fn amortization_retained_beats_per_call_on_fc() {
        let t = compile_amortization(true);
        assert_eq!(t.rows.len(), 6);
        let fc_fact: f64 = t.rows[1][3].parse().unwrap();
        let fc_compiled: f64 = t.rows[2][3].parse().unwrap();
        assert!(
            fc_compiled < fc_fact,
            "retained plan ({fc_compiled} us) must beat per-call \
             factorization ({fc_fact} us) on the fc layer"
        );
    }

    #[test]
    fn batch_exec_outputs_bit_exact_and_table_shaped() {
        // Timing is machine-dependent, so the test pins the structure and
        // the (internally asserted) bit-exactness, not the speedup.
        let t = batch_exec(true);
        assert_eq!(t.rows.len(), 4); // 2 layers x 2 batch sizes
        for row in &t.rows {
            assert!(row[2].parse::<f64>().unwrap() > 0.0, "{row:?}");
            assert!(row[3].parse::<f64>().unwrap() > 0.0, "{row:?}");
            assert!(row[4].parse::<f64>().unwrap() > 0.0, "{row:?}");
        }
    }

    #[test]
    fn ablations_run() {
        assert!(!ablate_g(true).rows.is_empty());
        assert!(!ablate_group_cap(true).rows.is_empty());
        assert!(!ablate_ppr().rows.is_empty());
        assert!(!ablate_multipliers().rows.is_empty());
    }
}
