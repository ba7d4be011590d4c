//! Criterion benches — one per table/figure of the paper's evaluation.
//!
//! Each bench runs the *quick* variant of the corresponding experiment so
//! `cargo bench` exercises every regeneration path end to end. The full
//! sweeps (recorded in `EXPERIMENTS.md`) run via the `repro` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ucnn_bench::experiments as exp;

fn bench_fig1_strategies(c: &mut Criterion) {
    c.bench_function("fig1_strategies", |b| b.iter(|| black_box(exp::fig1())));
}

fn bench_fig3_repetition(c: &mut Criterion) {
    c.bench_function("fig3_weight_repetition", |b| {
        b.iter(|| black_box(exp::fig3(true)))
    });
}

fn bench_table2_params(c: &mut Criterion) {
    c.bench_function("table2_hw_params", |b| b.iter(|| black_box(exp::table2())));
}

fn bench_fig7_walkthrough(c: &mut Criterion) {
    c.bench_function("fig7_walkthrough", |b| b.iter(|| black_box(exp::fig7())));
}

fn bench_fig9_energy(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_energy");
    g.sample_size(10);
    g.bench_function("lenet_16b_50pct", |b| b.iter(|| black_box(exp::fig9(true))));
    g.finish();
}

fn bench_fig10_layer_breakdown(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_layer_breakdown");
    g.sample_size(10);
    g.bench_function("resnet_3x3_layers", |b| {
        b.iter(|| black_box(exp::fig10(true)))
    });
    g.finish();
}

fn bench_fig11_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_runtime_density");
    g.sample_size(10);
    g.bench_function("density_sweep", |b| b.iter(|| black_box(exp::fig11())));
    g.finish();
}

fn bench_fig12_inq_perf(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_inq_performance");
    g.sample_size(10);
    g.bench_function("lenet_inq", |b| b.iter(|| black_box(exp::fig12(true))));
    g.finish();
}

fn bench_fig13_model_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13_model_size");
    g.sample_size(10);
    g.bench_function("density_sweep", |b| b.iter(|| black_box(exp::fig13(true))));
    g.finish();
}

fn bench_fig14_jump(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig14_jump_tables");
    g.sample_size(10);
    g.bench_function("width_sweep", |b| b.iter(|| black_box(exp::fig14(true))));
    g.finish();
}

fn bench_table3_area(c: &mut Criterion) {
    c.bench_function("table3_area", |b| b.iter(|| black_box(exp::table3())));
}

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.bench_function("ablate_g", |b| b.iter(|| black_box(exp::ablate_g(true))));
    g.bench_function("ablate_group_cap", |b| {
        b.iter(|| black_box(exp::ablate_group_cap(true)))
    });
    g.bench_function("ablate_ppr", |b| b.iter(|| black_box(exp::ablate_ppr())));
    g.bench_function("ablate_multipliers", |b| {
        b.iter(|| black_box(exp::ablate_multipliers()))
    });
    g.finish();
}

fn bench_serving(c: &mut Criterion) {
    let mut g = c.benchmark_group("serving");
    g.sample_size(10);
    g.bench_function("backend_table", |b| {
        b.iter(|| black_box(exp::backend_table(true)))
    });
    g.finish();
}

criterion_group!(
    figures,
    bench_fig1_strategies,
    bench_fig3_repetition,
    bench_table2_params,
    bench_fig7_walkthrough,
    bench_fig9_energy,
    bench_fig10_layer_breakdown,
    bench_fig11_runtime,
    bench_fig12_inq_perf,
    bench_fig13_model_size,
    bench_fig14_jump,
    bench_table3_area,
    bench_ablations,
    bench_serving,
);
criterion_main!(figures);
