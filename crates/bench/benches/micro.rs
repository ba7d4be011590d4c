//! Microbenchmarks of the core kernels: dense vs factorized dot products,
//! stream construction, lane walks, and the full factorized convolution vs
//! the dense reference.
//!
//! Note what these do and do not show: the factorized dot product performs
//! `U − 1` multiplies instead of `R·S·C`, but on a CPU the indirected loads
//! typically make it *slower* than the dense loop — the savings UCNN
//! targets are hardware multiplier/buffer **energy**, not software time
//! (the paper makes the same point about Winograd vs UCNN in §VII). The
//! benches document that trade-off and track regressions in the library's
//! own kernels (stream construction, lane walks, compilation).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use ucnn_core::backend::BackendKind;
use ucnn_core::compile::{compile_layer, UcnnConfig};
use ucnn_core::exec::{factorized_conv, run_compiled, run_compiled_batch};
use ucnn_core::factorize::FilterFactorization;
use ucnn_core::hierarchy::GroupStream;
use ucnn_core::plan::{CompiledLayer, CompiledNetwork};
use ucnn_model::{forward, networks, reference};
use ucnn_model::{ActivationGen, QuantScheme, WeightGen};
use ucnn_sim::lane::{run_lane, LaneConfig};
use ucnn_tensor::ConvGeom;

fn filter_and_acts(len: usize, u: usize) -> (Vec<i16>, Vec<i16>) {
    let mut wgen = WeightGen::new(QuantScheme::uniform_unique(u), 1).with_density(0.9);
    let w = wgen.generate_dims(1, len / 9, 3, 3).into_vec();
    let mut agen = ActivationGen::new(2);
    let a = agen.generate(len / 9, 3, 3).into_vec();
    (w, a)
}

fn bench_dot_products(c: &mut Criterion) {
    let mut g = c.benchmark_group("dot_product");
    for len in [576usize, 2304] {
        let (w, a) = filter_and_acts(len, 17);
        let fact = FilterFactorization::build(&w);
        g.bench_with_input(BenchmarkId::new("dense", len), &len, |b, _| {
            b.iter(|| black_box(FilterFactorization::dense_dot(&w, &a)))
        });
        g.bench_with_input(BenchmarkId::new("factorized", len), &len, |b, _| {
            b.iter(|| black_box(fact.dot(&a)))
        });
    }
    g.finish();
}

fn bench_stream_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_build");
    for gg in [1usize, 2, 4] {
        let mut wgen = WeightGen::new(QuantScheme::uniform_unique(17), 3).with_density(0.9);
        let w = wgen.generate_dims(gg, 64, 3, 3);
        let slices: Vec<&[i16]> = (0..gg).map(|k| w.filter(k)).collect();
        g.bench_with_input(BenchmarkId::new("g", gg), &gg, |b, _| {
            b.iter(|| black_box(GroupStream::build(&slices)))
        });
    }
    g.finish();
}

fn bench_lane_walk(c: &mut Criterion) {
    let mut wgen = WeightGen::new(QuantScheme::inq(), 4).with_density(0.9);
    let w = wgen.generate_dims(2, 64, 3, 3);
    let slices: Vec<&[i16]> = vec![w.filter(0), w.filter(1)];
    let stream = GroupStream::build(&slices);
    let mut agen = ActivationGen::new(5);
    let acts = agen.generate(64, 3, 3).into_vec();
    c.bench_function("lane_walk_g2_576", |b| {
        b.iter(|| black_box(run_lane(&stream, &acts, &LaneConfig::default())))
    });
}

fn bench_layer_compile(c: &mut Criterion) {
    let mut wgen = WeightGen::new(QuantScheme::inq(), 6).with_density(0.9);
    let w = wgen.generate_dims(16, 64, 3, 3);
    c.bench_function("compile_layer_16x3x3x64", |b| {
        b.iter(|| black_box(compile_layer(&w, &UcnnConfig::with_g(2))))
    });
}

fn bench_cold_path(c: &mut Criterion) {
    // What a deploy or a hot swap pays before the first answer, on the plan
    // the benchmark's `offline_b32` builds (LeNet, INQ at density 0.9,
    // G = 2): streams, then the flattened lowering of a fresh plan. Both
    // report ns per weight — the cold path should cost per weight, not per
    // tile.
    let spec = networks::lenet();
    let weights = forward::generate_network_weights(&spec, QuantScheme::inq(), 12_648_430, 0.9);
    let cfg = UcnnConfig::with_g(2);
    let compile = || CompiledNetwork::compile(&spec, &weights, &cfg);
    let mut g = c.benchmark_group("cold");
    g.throughput(Throughput::Elements(
        weights.iter().map(|w| w.as_slice().len() as u64).sum(),
    ));
    g.bench_function("compile_lenet", |b| b.iter(|| black_box(compile())));
    g.bench_function("lower_lenet", |b| {
        let lower = |plan: CompiledNetwork| {
            plan.warm(BackendKind::FlattenedBatch);
            plan
        };
        b.iter_batched(compile, lower, BatchSize::PerIteration)
    });
    g.finish();
}

fn bench_conv_executors(c: &mut Criterion) {
    let geom = ConvGeom::new(14, 14, 16, 8, 3, 3).with_pad(1);
    let mut wgen = WeightGen::new(QuantScheme::ttq(), 7).with_density(0.5);
    let w = wgen.generate_dims(8, 16, 3, 3);
    let mut agen = ActivationGen::new(8);
    let input = agen.generate(16, 14, 14);
    let cfg = UcnnConfig::with_g(2);
    let mut g = c.benchmark_group("conv_14x14x16_to_8");
    g.bench_function("dense_reference", |b| {
        b.iter(|| black_box(reference::conv2d(&geom, 1, &input, &w)))
    });
    g.bench_function("factorized_g2", |b| {
        b.iter(|| black_box(factorized_conv(&geom, 1, &input, &w, &cfg)))
    });
    g.finish();
}

fn bench_retained_plan(c: &mut Criterion) {
    // Repeated inference of one layer: `factorized_conv` pays the
    // sort/factorize cost per call, `run_compiled` only walks the retained
    // streams. The FC shape (1×1 spatial) makes the gap largest — the
    // compile-once case a serving engine lives in.
    let geom = ConvGeom::new(1, 1, 1024, 32, 1, 1);
    let mut wgen = WeightGen::new(QuantScheme::inq(), 9).with_density(0.9);
    let w = wgen.generate_dims(32, 1024, 1, 1);
    let mut agen = ActivationGen::new(10);
    let input = agen.generate(1024, 1, 1);
    let cfg = UcnnConfig::with_g(2);
    let plan = CompiledLayer::compile(&geom, 1, &w, &cfg);
    let mut g = c.benchmark_group("fc_1024_to_32_repeat");
    g.bench_function("factorized_per_call", |b| {
        b.iter(|| black_box(factorized_conv(&geom, 1, &input, &w, &cfg)))
    });
    g.bench_function("run_compiled", |b| {
        b.iter(|| black_box(run_compiled(&plan, &input)))
    });
    g.finish();
}

fn bench_batch_executor(c: &mut Criterion) {
    // The acceptance bar for batch-major execution: at B >= 8 on an
    // FC-shaped layer, one group-major walk serving the whole batch must be
    // >= 2x the throughput of B per-request walks — stream decode, index
    // gathers, and closure bookkeeping amortize across the batch while the
    // per-image adds stay identical.
    let geom = ConvGeom::new(1, 1, 1024, 32, 1, 1);
    let mut wgen = WeightGen::new(QuantScheme::inq(), 11).with_density(0.9);
    let w = wgen.generate_dims(32, 1024, 1, 1);
    let cfg = UcnnConfig::with_g(2);
    let plan = CompiledLayer::compile(&geom, 1, &w, &cfg);
    let mut agen = ActivationGen::new(12);
    for batch in [8usize, 16] {
        let inputs: Vec<_> = (0..batch).map(|_| agen.generate(1024, 1, 1)).collect();
        let name = format!("fc_1024_to_32_batch{batch}");
        let mut g = c.benchmark_group(&name);
        g.bench_function("per_request_loop", |b| {
            b.iter(|| {
                inputs
                    .iter()
                    .map(|input| run_compiled(&plan, input))
                    .collect::<Vec<_>>()
            })
        });
        g.bench_function("batch_major", |b| {
            b.iter(|| black_box(run_compiled_batch(&plan, &inputs)))
        });
        g.finish();
    }
}

/// `--backend NAME` (after `cargo bench --bench micro --`) restricts the
/// backend-comparison groups to one backend.
fn backend_filter() -> Option<BackendKind> {
    let args: Vec<String> = std::env::args().collect();
    ucnn_bench::cli::arg_value(&args, "--backend").map(|name| {
        BackendKind::parse(name).unwrap_or_else(|| panic!("unknown backend '{name}' for --backend"))
    })
}

fn bench_backend_comparison(c: &mut Criterion) {
    // Every registered backend on the FC shape: `flattened-batch` must
    // beat the `batch-threads` stream walk at every B — no per-entry
    // decode, no closure branching, one multiply per CSR segment, and at
    // B >= 8 one indirection walk feeding a whole strip of
    // batch-interleaved SIMD lanes.
    let geom = ConvGeom::new(1, 1, 1024, 32, 1, 1);
    let mut wgen = WeightGen::new(QuantScheme::inq(), 13).with_density(0.9);
    let w = wgen.generate_dims(32, 1024, 1, 1);
    let plan = CompiledLayer::compile(&geom, 1, &w, &UcnnConfig::with_g(2));
    let mut agen = ActivationGen::new(14);
    let only = backend_filter();
    for batch in [1usize, 8, 16] {
        let inputs: Vec<_> = (0..batch).map(|_| agen.generate(1024, 1, 1)).collect();
        let name = format!("fc_1024_to_32_backend_b{batch}");
        let mut g = c.benchmark_group(&name);
        for kind in BackendKind::ALL {
            if only.is_some_and(|k| k != kind) {
                continue;
            }
            g.bench_function(kind.name(), |b| {
                b.iter(|| black_box(kind.run_layer(&plan, &inputs)))
            });
        }
        g.finish();
    }
}

criterion_group!(
    micro,
    bench_dot_products,
    bench_stream_build,
    bench_lane_walk,
    bench_layer_compile,
    bench_cold_path,
    bench_conv_executors,
    bench_retained_plan,
    bench_batch_executor,
    bench_backend_comparison,
);
criterion_main!(micro);
