//! The traced run: one set-up with spans, an untraced and a traced stretch
//! of the workload (their difference is the tracing overhead), and a probe
//! of each layer on its own. Produces every per-layer metric; gates nothing.
//!
//! Kernel probes use the workload's own models — the three `tiny` nets for
//! the serve workloads (values are means over the three), LeNet for
//! `offline_b32` — so a layer number can be set beside the end-to-end
//! metric it is supposed to move.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::adapter::{self, ModelDef, Plan, Queue};
use crate::gen::sub_seed;
use crate::measure::{
    run_serve, setup_offline, setup_serve, summarize, Outcome, Settings, Summary, WARMUP,
};
use crate::metrics::Values;
use crate::stats::{mean, median, percentile};
use crate::trace::{Trace, TRACED_REQUESTS_WRITTEN};
use crate::workloads::{
    self, batch_of, Case, Detail, OfflineInputs, Run, Sample, ServeInputs, Tally, WhenFull,
    Workload, OFFLINE_BATCH,
};

/// Rates of the open-loop ladder, requests per second, and how long each
/// step runs. `max_ok_rate_rps` is the highest step, with every step below
/// it, that keeps `slo_ok_share` at or above `LADDER_OK_SHARE` and refuses
/// nothing.
const LADDER_RATES: [f64; 5] = [250.0, 500.0, 1000.0, 2000.0, 4000.0];
const LADDER_STEP: Duration = Duration::from_secs(2);
const LADDER_OK_SHARE: f64 = 0.99;

/// Batch sizes whose per-image time is reported.
const REPORTED_BATCHES: [usize; 5] = [1, 2, 4, 8, 32];
/// LeNet's weight-bearing layers, timed one by one at B = 32.
const LENET_LAYERS: [&str; 5] = ["conv1", "conv2", "conv3", "ip1", "ip2"];

/// Median wall time of `f` in seconds: one unmeasured call, then at least
/// `min_reps` calls and as many more as fit in `budget`.
fn time_median(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let begin = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || begin.elapsed() < budget {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}

/// A model of the workload, compiled and warmed for the kernel probes.
struct Probed<'a> {
    cases: &'a [Case],
    plan: Plan,
}

/// Median µs per image of `forward_batch` at batch `b`, outputs verified.
fn forward_us_per_image(p: &Probed<'_>, b: usize, tally: &mut Tally) -> f64 {
    let (batch, expected) = batch_of(p.cases, b);
    let mut mismatched = 0;
    let mut calls = 0u64;
    let secs = time_median(3, Duration::from_millis(60), || {
        let outputs = std::hint::black_box(p.plan.forward_batch(std::hint::black_box(&batch)));
        mismatched += outputs.mismatches(&expected) as u64;
        calls += 1;
    });
    tally.attempted += calls * b as u64;
    tally.mismatched += mismatched;
    secs * 1e6 / b as f64
}

/// Probes of `ucnn-model` and `ucnn-core` on the workload's models.
/// Returns the per-image µs at every batch size in `1..=max_batch` (mean
/// over models), for the kernel-predicts-execute ratio.
fn probe_kernels(
    models: &[(&ModelDef, &[Case])],
    max_batch: usize,
    values: &mut Values,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut compile_ms = 0.0;
    let mut warm_ms = 0.0;
    let mut entries = 0usize;
    let mut dense_us = Vec::new();
    let mut probed = Vec::new();
    for &(model, cases) in models {
        compile_ms += 1e3
            * time_median(3, Duration::from_millis(100), || {
                std::hint::black_box(model.compile());
            });
        // Warming is lazy state built once per plan, so each timed call
        // needs a fresh plan; only the `warm` call is on the clock.
        let mut warm_times = Vec::new();
        for _ in 0..3 {
            let plan = model.compile();
            let t0 = Instant::now();
            plan.warm();
            warm_times.push(t0.elapsed().as_secs_f64());
        }
        warm_ms += 1e3 * median(&warm_times);
        dense_us.push(
            1e6 * time_median(3, Duration::from_millis(100), || {
                std::hint::black_box(model.reference(&cases[0].input));
            }),
        );
        let plan = model.compile();
        plan.warm();
        entries += plan.entries();
        probed.push(Probed { cases, plan });
    }
    values.set("core.compile_ms", compile_ms);
    values.set("core.warm_ms", warm_ms);
    values.set("core.plan_entries", entries as f64);
    values.set("model.dense_forward_us", mean(&dense_us));

    let mut sizes: Vec<usize> = (1..=max_batch).chain(REPORTED_BATCHES).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut per_image = vec![0.0; max_batch + 1];
    for &b in &sizes {
        let us: Vec<f64> = probed
            .iter()
            .map(|p| forward_us_per_image(p, b, tally))
            .collect();
        let us = mean(&us);
        if b <= max_batch {
            per_image[b] = us;
        }
        if REPORTED_BATCHES.contains(&b) {
            values.set(&format!("core.forward_b{b}_us"), us);
        }
    }

    // Analytic reuse counters of one B = 32 forward per model: exact counts,
    // identical from run to run for a given seed.
    let mut work = adapter::Work::default();
    for p in &probed {
        let (batch, _) = batch_of(p.cases, OFFLINE_BATCH);
        let w = adapter::count_work(|| {
            std::hint::black_box(p.plan.forward_batch(&batch));
        });
        work.images += w.images;
        work.dense_mults += w.dense_mults;
        work.issued_mults += w.issued_mults;
        work.gather_entries += w.gather_entries;
    }
    if work.images > 0 {
        let images = work.images as f64;
        let issued = work.issued_mults as f64 / images;
        values.set(
            "core.counters.dense_mults",
            work.dense_mults as f64 / images,
        );
        values.set("core.counters.issued_mults", issued);
        values.set(
            "core.counters.gather_entries",
            work.gather_entries as f64 / images,
        );
        if work.dense_mults > 0 {
            values.set(
                "core.counters.reuse_ratio",
                work.issued_mults as f64 / work.dense_mults as f64,
            );
        }
        if issued > 0.0 {
            let b32_ns = 1e3 * values.get("core.forward_b32_us").unwrap_or(0.0);
            values.set("core.ns_per_issued_mult", b32_ns / issued);
        }
    }

    per_image
}

/// One-layer networks cut from LeNet, timed at B = 32 through the same entry
/// point as the whole net; what is left over is pooling, ReLU and glue.
fn probe_lenet_layers(lenet: &ModelDef, seed: u64, values: &mut Values, tally: &mut Tally) {
    let mut layers_us = 0.0;
    for layer in LENET_LAYERS {
        let cut = lenet.single_layer(layer);
        let cases: Vec<Case> = (0..OFFLINE_BATCH as u64)
            .map(|i| {
                let input = cut.input(sub_seed(seed, layer, i));
                let expected = cut.reference(&input);
                Case { input, expected }
            })
            .collect();
        let plan = cut.compile();
        plan.warm();
        let p = Probed {
            cases: &cases,
            plan,
        };
        let us = forward_us_per_image(&p, OFFLINE_BATCH, tally);
        values.set(&format!("core.layer.{layer}_b32_us"), us);
        layers_us += us;
    }
    let whole = values.get("core.forward_b32_us").unwrap_or(0.0);
    if whole > 0.0 {
        values.set("core.layer.other_share", (whole - layers_us) / whole);
    }
}

/// Single-thread probes of the registry and the queue on their own.
fn probe_serve_parts(inputs: &ServeInputs, values: &mut Values) {
    let zoo = adapter::Zoo::new();
    for model in &inputs.models {
        zoo.insert(model);
    }
    let name = inputs.models[0].name();
    const RESOLVES: u32 = 200_000;
    let t0 = Instant::now();
    for _ in 0..RESOLVES {
        std::hint::black_box(zoo.resolves(std::hint::black_box(name)));
    }
    values.set(
        "serve.registry.resolve_ns",
        t0.elapsed().as_nanos() as f64 / f64::from(RESOLVES),
    );

    let queue = Queue::new(1, 256);
    const ITEMS: u64 = 200_000;
    let t0 = Instant::now();
    for item in 0..ITEMS {
        queue.push(item);
        std::hint::black_box(queue.pop_batch(0, 8));
    }
    values.set(
        "serve.queue.push_pop_ns",
        t0.elapsed().as_nanos() as f64 / ITEMS as f64,
    );
}

/// The paper path: host time of one simulation and its simulated results.
/// The simulator is unvalidated against hardware; no error figure exists.
fn probe_sim(seed: u64, values: &mut Values) {
    let t0 = Instant::now();
    let sim = adapter::simulate_lenet(seed);
    values.set("sim.simulate_ms", t0.elapsed().as_secs_f64() * 1e3);
    values.set("sim.energy_u17_vs_dcnn_sp", sim.energy_u17_vs_dcnn_sp);
    values.set("sim.cycles_u17_vs_dcnn_sp", sim.cycles_u17_vs_dcnn_sp);
    values.set("sim.bits_per_weight_u17", sim.bits_per_weight_u17);
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Per-request engine metrics of the traced stretch. Only answered requests
/// carry engine stamps.
fn engine_metrics(run: &Run, per_image_us: &[f64], values: &mut Values) -> Result<(), String> {
    let answered: Vec<(&Sample, &Detail)> = run
        .samples
        .iter()
        .zip(&run.details)
        .filter(|(_, d)| d.batch_size > 0)
        .collect();
    if answered.is_empty() {
        return Err("the traced stretch answered no request".to_string());
    }
    // The engine's two phases can never exceed the latency that contains
    // them; if they did, `overhead` would be clipped and the three would no
    // longer add up.
    let clipped = answered
        .iter()
        .filter(|(s, d)| d.queue_ns + d.service_ns > s.latency_ns)
        .count();
    if clipped > 0 {
        return Err(format!(
            "{clipped} requests report queue + service above their measured latency"
        ));
    }

    let column = |f: &dyn Fn(&Sample, &Detail) -> f64| -> Vec<f64> {
        answered.iter().map(|(s, d)| f(s, d)).collect()
    };
    let submit = column(&|_, d| us(d.submit_ns));
    let queue = column(&|_, d| us(d.queue_ns));
    let form = column(&|_, d| us(d.batch_form_ns));
    let service = column(&|_, d| us(d.service_ns));
    let overhead = column(&|s, d| us(d.overhead_ns(s)));
    let skew = column(&|_, d| us(d.recv_skew_ns));
    values.set("serve.engine.submit_us_p50", percentile(&submit, 0.5));
    values.set("serve.engine.submit_us_p90", percentile(&submit, 0.9));
    values.set("serve.engine.queue_wait_us_p50", percentile(&queue, 0.5));
    values.set("serve.engine.queue_wait_us_p90", percentile(&queue, 0.9));
    values.set("serve.engine.batch_form_us_p50", percentile(&form, 0.5));
    values.set("serve.engine.service_us_p50", percentile(&service, 0.5));
    values.set("serve.engine.service_us_p90", percentile(&service, 0.9));
    values.set("serve.engine.overhead_us_p50", percentile(&overhead, 0.5));
    values.set("serve.engine.overhead_us_p90", percentile(&overhead, 0.9));
    values.set("serve.engine.recv_skew_us_p90", percentile(&skew, 0.9));

    // A request that rode in a batch of b stands for 1/b of a batch.
    let max_b = answered
        .iter()
        .map(|(_, d)| d.batch_size as usize)
        .max()
        .unwrap_or(1);
    let mut riders = vec![0u64; max_b + 1];
    let mut per_worker: Vec<u64> = Vec::new();
    let mut service_per_batch_ns = 0.0;
    let mut predicted_per_batch_us = 0.0;
    for (_, d) in &answered {
        let b = d.batch_size as usize;
        riders[b] += 1;
        let w = d.worker as usize;
        if per_worker.len() <= w {
            per_worker.resize(w + 1, 0);
        }
        per_worker[w] += 1;
        service_per_batch_ns += d.service_ns as f64 / b as f64;
        // Per-image kernel time at the largest probed batch stands in for
        // anything beyond it.
        let per_image = per_image_us[b.min(per_image_us.len() - 1)];
        predicted_per_batch_us += per_image;
    }
    let batches: Vec<f64> = riders
        .iter()
        .enumerate()
        .skip(1)
        .map(|(b, &n)| n as f64 / b as f64)
        .collect();
    let total_batches: f64 = batches.iter().sum();
    let requests = answered.len() as f64;
    values.set("serve.engine.batch_mean", requests / total_batches);
    let mut seen = 0.0;
    let p90 = batches
        .iter()
        .position(|&n| {
            seen += n;
            seen >= 0.9 * total_batches
        })
        .map_or(max_b, |i| i + 1);
    values.set("serve.engine.batch_p90", p90 as f64);
    values.set(
        "serve.engine.worker_share_max",
        per_worker.iter().copied().max().unwrap_or(0) as f64 / requests,
    );
    values.set(
        "serve.engine.service_per_req_us",
        service_per_batch_ns / 1e3 / requests,
    );
    // Σ service/b over Σ b·t(b)/b: measured execute per batch against what
    // the kernel probe predicts at the batch sizes that actually formed.
    if predicted_per_batch_us > 0.0 {
        values.set(
            "serve.engine.exec_over_kernel",
            service_per_batch_ns / 1e3 / predicted_per_batch_us,
        );
    }
    Ok(())
}

/// The traced stretch's ungated numbers: the tail a served request saw, the
/// typical window in absolute units (what the gated ratios to the dense
/// reference leave out), and the signs of a noisy run.
fn set_run_metrics(workload: Workload, summary: &Summary, values: &mut Values) {
    if workload.is_serve() {
        values.set("serve.engine.lat_p90_ms", summary.lat_p90_ms);
        values.set("serve.engine.lat_p99_ms", summary.lat_p99_ms);
        values.set("serve.engine.lat_max_ms", summary.lat_max_ms);
        values.set("serve.engine.slo_ok_share", summary.slo_ok_share);
    }
    values.set("bench.throughput_per_s", summary.typical_throughput_per_s);
    values.set("bench.lat_p50_ms", summary.typical_lat_p50_ms);
    values.set("bench.gen_late_us_p99", summary.gen_late_us_p99);
    values.set("bench.gen_late_us_max", summary.gen_late_us_max);
    values.set("bench.window_spread", summary.window_spread);
}

/// Relative slowdown of the gated median latency with tracing on.
fn trace_overhead_share(untraced: &Summary, traced: &Summary) -> f64 {
    if untraced.lat_p50_ms == 0.0 {
        0.0
    } else {
        (traced.lat_p50_ms - untraced.lat_p50_ms) / untraced.lat_p50_ms
    }
}

fn ms(span: (Instant, Instant)) -> f64 {
    (span.1 - span.0).as_secs_f64() * 1e3
}

fn traced_serve(
    settings: &Settings,
    trace: &mut Trace,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<usize, String> {
    let workload = settings.workload;
    let inputs = ServeInputs::generate(settings.seed);

    let setup = setup_serve(&inputs)?;
    let root = trace.span(None, "setup", setup.begin, setup.end);
    for &(t0, t1) in &setup.inserts {
        trace.span(Some(root), "insert", t0, t1);
    }
    trace.span(Some(root), "start", setup.start.0, setup.start.1);
    for &(t0, t1) in &setup.first_outputs {
        trace.span(Some(root), "first_output", t0, t1);
    }
    let insert_ms: Vec<f64> = setup.inserts.iter().map(|&s| ms(s)).collect();
    values.set("serve.registry.insert_ms", median(&insert_ms));
    values.set("serve.engine.start_ms", ms(setup.start));

    // A quarter of `--seconds` untraced, half traced; the rest is left for
    // the probes.
    let server = setup.server;
    let seed = settings.seed;
    let quarter = settings.duration() / 4;
    let warm = run_serve(workload, &server, &inputs, seed, 100, WARMUP, false);
    let untraced = run_serve(workload, &server, &inputs, seed, 200, quarter, false);
    let traced = run_serve(workload, &server, &inputs, seed, 0, quarter * 2, true);
    let t0 = Instant::now();
    let totals = server.shutdown();
    values.set("serve.engine.shutdown_ms", t0.elapsed().as_secs_f64() * 1e3);
    values.set("serve.engine.batches", totals.batches as f64);
    values.set("serve.engine.steals", totals.steals as f64);
    values.set("serve.engine.shed", totals.shed as f64);
    for run in [&warm, &untraced, &traced] {
        tally.merge(&run.tally);
    }

    let summary = summarize(workload, &traced, quarter * 2);
    set_run_metrics(workload, &summary, values);
    values.set(
        "bench.trace_overhead_share",
        trace_overhead_share(&summarize(workload, &untraced, quarter), &summary),
    );

    if workload == Workload::ServeOpenR500 {
        let ladder = setup_serve(&inputs)?;
        let mut max_ok = 0.0;
        for (step, &rate) in LADDER_RATES.iter().enumerate() {
            let stream = 300 + step as u64;
            let run = workloads::run_open(
                &ladder.server,
                &inputs,
                seed,
                stream,
                rate,
                LADDER_STEP,
                WhenFull::Refuse,
                false,
            );
            // Overload is what the ladder looks for: its refusals and late
            // answers are findings, not failures of the run.
            let ok = summarize(workload, &run, LADDER_STEP).slo_ok_share >= LADDER_OK_SHARE
                && run.tally.refused == 0;
            if !ok {
                break;
            }
            max_ok = rate;
        }
        ladder.server.shutdown();
        values.set("serve.engine.max_ok_rate_rps", max_ok);
    }

    let models: Vec<(&ModelDef, &[Case])> = inputs
        .models
        .iter()
        .zip(&inputs.cases)
        .map(|(m, c)| (m, c.as_slice()))
        .collect();
    let max_batch = adapter::program_info().max_batch;
    let per_image_us = probe_kernels(&models, max_batch, values, tally);
    probe_serve_parts(&inputs, values);
    engine_metrics(&traced, &per_image_us, values)?;

    for (req, (sample, detail)) in traced
        .samples
        .iter()
        .zip(&traced.details)
        .take(TRACED_REQUESTS_WRITTEN)
        .enumerate()
    {
        trace.request(req as u64, traced.epoch, sample, detail);
    }
    Ok(traced.samples.len())
}

fn traced_offline(
    settings: &Settings,
    trace: &mut Trace,
    values: &mut Values,
    tally: &mut Tally,
) -> Result<usize, String> {
    let workload = settings.workload;
    let inputs = OfflineInputs::generate(settings.seed);
    let setup = setup_offline(&inputs)?;
    let root = trace.span(None, "setup", setup.begin, setup.end);
    trace.span(Some(root), "compile", setup.begin, setup.compiled);
    trace.span(Some(root), "warm", setup.compiled, setup.warmed);
    trace.span(Some(root), "first_output", setup.warmed, setup.end);

    let (batch, expected) = inputs.batch(OFFLINE_BATCH);
    let quarter = settings.duration() / 4;
    let warm = workloads::run_offline(&setup.plan, &batch, &expected, WARMUP);
    let untraced = workloads::run_offline(&setup.plan, &batch, &expected, quarter);
    // No engine stamps to keep here: the traced stretch differs from the
    // untraced one only in that its calls become spans.
    let traced = workloads::run_offline(&setup.plan, &batch, &expected, quarter * 2);
    for run in [&warm, &untraced, &traced] {
        tally.merge(&run.tally);
    }
    let summary = summarize(workload, &traced, quarter * 2);
    set_run_metrics(workload, &summary, values);
    values.set(
        "bench.trace_overhead_share",
        trace_overhead_share(&summarize(workload, &untraced, quarter), &summary),
    );

    let models = [(&inputs.model, inputs.cases.as_slice())];
    let max_batch = adapter::program_info().max_batch;
    probe_kernels(&models, max_batch, values, tally);
    probe_lenet_layers(&inputs.model, settings.seed, values, tally);
    probe_sim(settings.seed, values);

    for sample in traced.samples.iter().take(TRACED_REQUESTS_WRITTEN) {
        let start = traced.epoch + Duration::from_nanos(sample.start_ns);
        let end = start + Duration::from_nanos(sample.latency_ns);
        trace.span(None, "forward_batch", start, end);
    }
    Ok(traced.samples.len())
}

/// The traced run of one workload. Writes its spans to
/// `<out_dir>/trace-<workload>.jsonl`.
pub fn run_traced(settings: &Settings, out_dir: &Path) -> Result<Outcome, String> {
    let mut trace = Trace::new(Instant::now());
    let mut values = Values::default();
    let mut tally = Tally::default();
    let samples = if settings.workload.is_serve() {
        traced_serve(settings, &mut trace, &mut values, &mut tally)?
    } else {
        traced_offline(settings, &mut trace, &mut values, &mut tally)?
    };
    values.set("bench.failed_share", tally.failed_share());
    let path = out_dir.join(format!("trace-{}.jsonl", settings.workload.name()));
    trace
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Outcome {
        values,
        extras: vec![("trace_spans", trace.spans.len() as f64, "count")],
        tally,
        samples,
    })
}
