//! Cross-crate integration tests: model generation → core factorization →
//! functional execution → simulator, chained as a downstream user would.

use ucnn::core::compile::{compile_layer, UcnnConfig};
use ucnn::core::exec::factorized_conv;
use ucnn::model::reference;
use ucnn::model::{networks, ActivationGen, PoolKind, QuantScheme, WeightGen};
use ucnn::sim::lane::{run_lane, LaneConfig};
use ucnn::sim::{ArchConfig, Simulator};
use ucnn::tensor::Tensor3;

/// Full functional inference of the tiny network through the *factorized*
/// executor, layer chaining included, must match the dense pipeline
/// bit-for-bit.
#[test]
fn tiny_network_factorized_inference_matches_dense() {
    let net = networks::tiny();
    let convs = net.conv_layers();
    let mut wgen = WeightGen::new(QuantScheme::inq(), 0xEE).with_density(0.9);
    let mut agen = ActivationGen::new(0xAF);
    let cfg = UcnnConfig {
        g: 2,
        ct: 4,
        ..UcnnConfig::default()
    };

    let input = agen.generate_for(&convs[0]);
    let weights1 = wgen.generate(&convs[0]);
    let weights2 = wgen.generate(&convs[1]);

    // Dense pipeline.
    let d1 = reference::relu_saturate(&reference::conv_layer(&convs[0], &input, &weights1));
    let d2 = reference::relu_saturate(&reference::conv_layer(&convs[1], &d1, &weights2));
    let d_pool = reference::pool2d(&d2, PoolKind::Max, 2, 2);

    // Factorized pipeline.
    let f1 = reference::relu_saturate(&factorized_conv(
        &convs[0].geom(),
        convs[0].groups(),
        &input,
        &weights1,
        &cfg,
    ));
    let f2 = reference::relu_saturate(&factorized_conv(
        &convs[1].geom(),
        convs[1].groups(),
        &f1,
        &weights2,
        &cfg,
    ));
    let f_pool = reference::pool2d(&f2, PoolKind::Max, 2, 2);

    assert_eq!(d_pool, f_pool);

    // And through the FC head.
    let fc = &convs[2];
    let wfc = wgen.generate(fc);
    let flat = Tensor3::from_vec(fc.geom().c(), 1, 1, d_pool.into_vec()).unwrap();
    let dense_logits = reference::fully_connected(&flat, &wfc);
    let fact_logits = factorized_conv(&fc.geom(), 1, &flat, &wfc, &cfg);
    assert_eq!(dense_logits, fact_logits.as_slice());
}

/// The three §III-A properties measured on generated INQ weights feed the
/// simulator consistently: multiply savings seen by the plan equal the
/// repetition statistics' prediction within tolerance.
#[test]
fn repetition_statistics_predict_plan_multiplies() {
    let net = networks::lenet();
    let layer = net.conv_layer("conv3").unwrap();
    let mut wgen = WeightGen::new(QuantScheme::uniform_unique(17), 5).with_density(1.0);
    let weights = wgen.generate(&layer);
    let rep = ucnn::model::stats::LayerRepetition::measure("conv3", &weights);
    let plan = compile_layer(
        &weights,
        &UcnnConfig {
            group_cap: usize::MAX / 2,
            ..UcnnConfig::with_g(1)
        },
    );
    // Without the cap, multiplies per filter = distinct non-zero values.
    let plan_mults_per_filter = plan.totals().multiplies as f64 / weights.k() as f64;
    assert!(
        (plan_mults_per_filter - rep.mean_distinct_nonzero).abs() < 1e-9,
        "{plan_mults_per_filter} vs {}",
        rep.mean_distinct_nonzero
    );
}

/// The cycle-accurate lane and the analytic plan agree on multiply counts
/// and entry cycles for the same stream.
#[test]
fn lane_and_plan_agree() {
    let mut wgen = WeightGen::new(QuantScheme::inq(), 9).with_density(0.9);
    let weights = wgen.generate_dims(2, 32, 3, 3);
    let plan = compile_layer(
        &weights,
        &UcnnConfig {
            ct: 32,
            ..UcnnConfig::with_g(2)
        },
    );

    let slices: Vec<&[i16]> = vec![weights.filter(0), weights.filter(1)];
    let stream = ucnn::core::compile::canonical_of_tensor(&weights).build(&slices);
    let acts: Vec<i16> = (0..stream.tile_len()).map(|i| (i % 11) as i16).collect();
    let trace = run_lane(&stream, &acts, &LaneConfig::default());

    assert_eq!(trace.multiplies as usize, plan.totals().multiplies);
    assert_eq!(trace.data_cycles as usize, plan.totals().entries);
}

/// Energy ordering across the whole stack on a real layer: UCNN < DCNN_sp <
/// DCNN at 16-bit, and the savings factor lies in the paper's band.
#[test]
fn energy_ordering_on_lenet_conv2() {
    let net = networks::lenet();
    let layer = net.conv_layer("conv2").unwrap();
    let mut wgen = WeightGen::new(QuantScheme::uniform_unique(17), 3).with_density(0.9);
    let weights = wgen.generate(&layer);

    let dcnn = Simulator::new(ArchConfig::dcnn(16)).simulate_layer(&layer, &weights, 0.35);
    let sp = Simulator::new(ArchConfig::dcnn_sp(16)).simulate_layer(&layer, &weights, 0.35);
    let ucnn = Simulator::new(ArchConfig::ucnn(17, 16)).simulate_layer(&layer, &weights, 0.35);

    let e = |r: &ucnn::sim::LayerReport| r.energy.total_pj();
    assert!(e(&ucnn) < e(&sp));
    assert!(e(&sp) <= e(&dcnn));
    let factor = e(&sp) / e(&ucnn);
    assert!(
        (1.1..6.0).contains(&factor),
        "UCNN vs DCNN_sp factor {factor:.2} outside the plausible band"
    );
}

/// Model compression: on INQ-like weights the G=2 tables undercut the dense
/// 16-bit model by >2× and the G=1 tables by less — the Figure 13 ordering.
#[test]
fn model_size_ordering() {
    let mut wgen = WeightGen::new(QuantScheme::inq(), 4).with_density(0.9);
    let weights = wgen.generate_dims(8, 256, 3, 3);
    let g1 = compile_layer(&weights, &UcnnConfig::with_g(1)).bits_per_weight();
    let g2 = compile_layer(&weights, &UcnnConfig::with_g(2)).bits_per_weight();
    assert!(g2 < g1);
    assert!(g2 < 8.0, "G=2 must beat an 8-bit dense model, got {g2}");
    assert!(g1 < 16.0);
}

/// Pooling and ReLU chained after a simulated conv layer keep shapes
/// consistent with the network spec (substrate sanity across crates).
#[test]
fn layer_shape_chaining() {
    let net = networks::lenet();
    let convs = net.conv_layers();
    let mut agen = ActivationGen::new(1);
    let mut act = agen.generate_for(&convs[0]);
    // conv1 → pool(3,2) → conv2 input plane must match the spec.
    let mut wgen = WeightGen::new(QuantScheme::ttq(), 2).with_density(0.5);
    let w1 = wgen.generate(&convs[0]);
    act = reference::relu_saturate(&reference::conv_layer(&convs[0], &act, &w1));
    act = reference::pool2d(&act, PoolKind::Max, 3, 2);
    assert_eq!((act.c(), act.w(), act.h()), (32, 16, 16));
    assert_eq!(convs[1].geom().in_w(), act.w());
    assert_eq!(convs[1].total_in_channels(), act.c());
}
