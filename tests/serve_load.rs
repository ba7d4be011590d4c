//! Serve-regression suite: short mixed-workload harness runs against the
//! live engine, asserting the invariants production serving depends on —
//! zero lost or duplicated responses under every arrival pattern, bit-exact
//! outputs per model across all registered backends, graceful shedding at
//! queue-full, clean accounting through a shutdown under backpressure, and
//! seed-exact replay of request streams.

use std::sync::Arc;
use std::time::Duration;

use ucnn::core::backend::BackendKind;
use ucnn::core::compile::UcnnConfig;
use ucnn::model::{forward, networks, ActivationGen, NetworkSpec, QuantScheme};
use ucnn::serve::harness::{self, Case, ModelCases, RunConfig};
use ucnn::serve::workload::{Arrival, Mix, RequestSpec, StandardWorkload, Workload};
use ucnn::serve::{Engine, EngineConfig, ModelRegistry};

/// Registers `n` copies of the tiny topology under distinct names with
/// distinct weights and returns verified cases for each.
fn zoo(registry: &Arc<ModelRegistry>, n: usize, seed: u64) -> Vec<ModelCases> {
    let tiny = networks::tiny();
    let mut agen = ActivationGen::new(seed ^ 0xACE);
    (0..n)
        .map(|i| {
            let name = if i == 0 {
                "tiny".to_string()
            } else {
                format!("tiny-{i}")
            };
            let mut spec = NetworkSpec::new(&name);
            for layer in tiny.layers() {
                spec.push(layer.clone());
            }
            let weights =
                forward::generate_network_weights(&spec, QuantScheme::inq(), seed + i as u64, 0.9);
            registry.compile_and_insert(&spec, &weights, &UcnnConfig::with_g(2));
            let cases: Vec<Case> = (0..3)
                .map(|_| {
                    let input = agen.generate_for(&spec.conv_layers()[0]);
                    let expected = forward::dense_forward(&spec, &weights, &input);
                    (input, expected)
                })
                .collect();
            ModelCases { name, cases }
        })
        .collect()
}

/// Hot/cold closed-loop traffic over a multi-model registry must complete
/// every request with bit-exact outputs under **every** registered backend.
#[test]
fn hot_cold_mixed_models_bit_exact_across_all_backends() {
    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 3, 0x100);
    let wl = StandardWorkload {
        arrival: Arrival::Closed,
        mix: Mix::HotCold { hot_share: 0.8 },
    };
    for backend in BackendKind::ALL {
        let engine = Engine::start(
            Arc::clone(&registry),
            EngineConfig {
                workers: 2,
                queue_capacity: 32,
                max_batch: 4,
                exec_threads: 1,
                backend,
                ..EngineConfig::default()
            },
        );
        let report = harness::run(
            &engine,
            &models,
            &wl,
            RunConfig {
                requests: 30,
                shards: 3,
                seed: 0x5EED,
                ..RunConfig::default()
            },
        );
        assert_eq!(report.completed, 30, "backend {backend}: lost requests");
        assert_eq!(report.mismatches, 0, "backend {backend}: outputs diverged");
        assert_eq!(report.errors, 0, "backend {backend}");
        assert_eq!(report.shed(), 0, "backend {backend}");
        // Every response reports the batch it rode in, and the flat
        // single-run views (rate, latency quantiles) are well-formed.
        assert_eq!(report.batch_sizes.count(), 30, "backend {backend}");
        assert!(
            report.mean_batch() >= 1.0 && report.max_batch() <= 4,
            "backend {backend}: batch sizes outside 1..=max_batch"
        );
        assert!(report.throughput_rps() > 0.0, "backend {backend}");
        assert!(
            report.percentile_us(0.99) >= report.percentile_us(0.50),
            "backend {backend}"
        );
        // The hot model dominates; per-model slices sum to the total with
        // none counted twice.
        let split: u64 = report.per_model.iter().map(|m| m.completed).sum();
        assert_eq!(split, 30, "backend {backend}: double-counted responses");
        assert!(
            report.per_model[0].completed > report.per_model[1].completed,
            "backend {backend}: hot model not hot"
        );
        let stats = engine.shutdown();
        assert_eq!(stats.served, 30, "backend {backend}: engine count");
    }
}

/// Bursty arrivals keep exact accounting: every scheduled request lands in
/// exactly one of completed/shed/errors, outputs stay bit-exact.
#[test]
fn bursty_arrivals_account_for_every_request() {
    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 2, 0x200);
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 8,
            ..EngineConfig::default()
        },
    );
    let wl = StandardWorkload {
        arrival: Arrival::Bursty {
            rate_hz: 2000.0,
            burst: 8,
            idle: Duration::from_millis(5),
        },
        mix: Mix::Uniform,
    };
    let report = harness::run(
        &engine,
        &models,
        &wl,
        RunConfig {
            requests: 48,
            shards: 2,
            seed: 0xB0B,
            ..RunConfig::default()
        },
    );
    assert_eq!(
        report.completed + report.shed() + report.errors,
        48,
        "lost requests"
    );
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.latency.count(), report.completed);
    let stats = engine.shutdown();
    assert_eq!(stats.served, report.completed, "served != verified");
}

/// A saturated tiny queue under open-loop overload sheds (never stalls,
/// never loses): queue-full submits are counted, completed responses stay
/// bit-exact, and the run terminates promptly.
#[test]
fn queue_full_overload_sheds_without_losing_requests() {
    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 1, 0x300);
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            max_batch: 1,
            ..EngineConfig::default()
        },
    );
    let wl = StandardWorkload {
        arrival: Arrival::Open {
            rate_hz: 1_000_000.0,
        },
        mix: Mix::Uniform,
    };
    let report = harness::run(
        &engine,
        &models,
        &wl,
        RunConfig {
            requests: 100,
            shards: 2,
            seed: 0xFADE,
            ..RunConfig::default()
        },
    );
    assert_eq!(report.completed + report.shed() + report.errors, 100);
    assert!(report.shed_queue > 0, "expected queue-full sheds");
    assert_eq!(report.mismatches, 0);
    let stats = engine.shutdown();
    assert_eq!(stats.served, report.completed);
}

/// Shutdown under backpressure: closing the engine mid-run turns the
/// remaining submits into counted errors — nothing hangs, nothing is lost,
/// and everything the engine reports served was actually verified.
#[test]
fn shutdown_under_backpressure_keeps_accounting_exact() {
    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 2, 0x400);
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            max_batch: 2,
            ..EngineConfig::default()
        },
    );
    let wl = StandardWorkload {
        arrival: Arrival::Closed,
        mix: Mix::Sequential,
    };
    let report = std::thread::scope(|scope| {
        let engine_ref = &engine;
        scope.spawn(move || {
            // Let some requests through, then slam the door while
            // generators are still submitting against backpressure.
            std::thread::sleep(Duration::from_millis(30));
            engine_ref.begin_shutdown();
        });
        harness::run(
            engine_ref,
            &models,
            &wl,
            RunConfig {
                requests: 400,
                shards: 4,
                seed: 0xD00D,
                ..RunConfig::default()
            },
        )
    });
    assert_eq!(
        report.completed + report.errors,
        400,
        "closed-loop run must account for every request through shutdown"
    );
    assert_eq!(
        report.mismatches, 0,
        "responses served during shutdown must stay bit-exact"
    );
    let stats = engine.shutdown();
    assert_eq!(
        stats.served, report.completed,
        "engine served count must equal verified completions"
    );
}

/// Deterministic replay: the same seed and config expand to the identical
/// request sequence (bit for bit), a different seed does not, and two
/// harness runs over the same schedule produce identical count outcomes
/// for closed-loop (structurally deterministic) workloads.
#[test]
fn same_seed_replays_identical_request_streams() {
    for (arrival, mix) in [
        (Arrival::Closed, Mix::HotCold { hot_share: 0.8 }),
        (Arrival::Open { rate_hz: 700.0 }, Mix::Uniform),
        (
            Arrival::Ramp {
                start_hz: 100.0,
                end_hz: 900.0,
            },
            Mix::Sequential,
        ),
    ] {
        let wl = StandardWorkload { arrival, mix };
        let a: Vec<RequestSpec> = wl.schedule(120, 3, 0xCAFE);
        let b = wl.schedule(120, 3, 0xCAFE);
        assert_eq!(a, b, "same seed must replay bit-for-bit ({})", wl.label());
        let c = wl.schedule(120, 3, 0xCAFF);
        assert_ne!(a, c, "different seed must differ ({})", wl.label());
    }

    // End to end: two closed-loop runs with one seed agree on every count,
    // overall and per model.
    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 3, 0x500);
    let wl = StandardWorkload {
        arrival: Arrival::Closed,
        mix: Mix::HotCold { hot_share: 0.7 },
    };
    let run_once = || {
        let engine = Engine::start(Arc::clone(&registry), EngineConfig::default());
        let report = harness::run(
            &engine,
            &models,
            &wl,
            RunConfig {
                requests: 36,
                shards: 2,
                seed: 0xABBA,
                ..RunConfig::default()
            },
        );
        let _ = engine.shutdown();
        report
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first.scheduled, second.scheduled);
    assert_eq!(first.completed, second.completed);
    assert_eq!(first.mismatches, 0);
    assert_eq!(second.mismatches, 0);
    for (a, b) in first.per_model.iter().zip(&second.per_model) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.scheduled, b.scheduled, "model {} split diverged", a.name);
        assert_eq!(a.completed, b.completed, "model {} diverged", a.name);
    }
}

/// The observability stack end to end: per-layer reuse counters, request
/// lifecycle phases, interval samples, and the metrics exposition must all
/// reconcile with the harness's own accounting — and enabling the reuse
/// counters must not meaningfully change throughput (the counts are
/// analytic per `run_layer` call, not hot-loop instrumentation; the
/// measured cost is documented in EXPERIMENTS.md, and only a loose bound
/// is asserted here because absolute speed is machine-dependent).
#[test]
fn metrics_and_reuse_counters_reconcile_with_harness_accounting() {
    use ucnn::core::counters;

    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 2, 0x600);
    let wl = StandardWorkload {
        arrival: Arrival::Closed,
        mix: Mix::Sequential,
    };
    let run_once = |counting: bool| {
        let engine = Engine::start(
            Arc::clone(&registry),
            EngineConfig {
                workers: 2,
                queue_capacity: 32,
                max_batch: 4,
                exec_threads: 1,
                backend: BackendKind::BatchThreads,
                ..EngineConfig::default()
            },
        );
        if counting {
            counters::set_enabled(true);
        }
        let report = harness::run(
            &engine,
            &models,
            &wl,
            RunConfig {
                requests: 60,
                shards: 2,
                seed: 6,
                interval: Some(Duration::from_millis(2)),
                ..RunConfig::default()
            },
        );
        if counting {
            counters::set_enabled(false);
        }
        let metrics = Arc::clone(engine.metrics());
        let stats = engine.shutdown();
        (report, stats, metrics)
    };

    let (report, stats, metrics) = run_once(true);
    assert_eq!(report.completed, 60);
    assert_eq!(report.mismatches, 0);

    // Harness accounting mirrored into the registry reconciles exactly.
    assert_eq!(metrics.counter("harness_scheduled_total").get(), 60);
    assert_eq!(
        metrics.counter("harness_scheduled_total").get(),
        metrics.counter("harness_completed_total").get()
            + metrics.counter("harness_shed_total").get()
            + metrics.counter("harness_errors_total").get()
    );
    // Every phase counted once per request.
    assert_eq!(stats.phases.queue_wait.count, stats.served);
    assert_eq!(stats.phases.execute.count, stats.served);
    assert_eq!(stats.phases.batch_form.count, stats.served);
    // Interval samples rode along — each is `Engine::stats()` taken
    // mid-run, never ahead of the totals `shutdown()` returns — and end
    // with the full run.
    assert!(report.intervals.len() >= 2);
    for sample in &report.intervals {
        assert!(sample.served <= stats.served, "{sample:?}");
        assert!(sample.batches <= stats.batches, "{sample:?}");
    }
    assert_eq!(report.intervals.last().unwrap().served, stats.served);
    // The exposition parses line-by-line and carries both families.
    let text = metrics.render_prometheus();
    assert!(text.contains("# TYPE harness_scheduled_total counter"));
    assert!(text.contains("# TYPE engine_queue_wait_ns summary"));
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
    }

    // Reuse tallies cover both zoo models for the serving backend, with
    // the factorized walk never exceeding dense-equivalent work. Sibling
    // tests share the global sink and the zoo names, so filter down to
    // this run's backend rather than asserting exclusivity.
    let rows: Vec<_> = counters::snapshot()
        .into_iter()
        .filter(|r| (r.net == "tiny" || r.net == "tiny-1") && r.backend == "batch-threads")
        .collect();
    assert!(!rows.is_empty(), "serving must produce reuse tallies");
    for row in &rows {
        assert!(row.work.multiplies_issued > 0);
        assert!(row.work.multiplies_issued <= row.work.dense_multiplies);
    }
    counters::reset();

    // Loose overhead bound: a counted run must not be drastically slower
    // than an uncounted one (target <5%; asserted at 2x for CI noise).
    let t0 = std::time::Instant::now();
    let (r_off, _, _) = run_once(false);
    let off = t0.elapsed();
    let t1 = std::time::Instant::now();
    let (r_on, _, _) = run_once(true);
    let on = t1.elapsed();
    assert_eq!(r_off.completed, r_on.completed);
    assert!(
        on.as_secs_f64() < off.as_secs_f64() * 2.0 + 0.05,
        "counting cost exploded: on={on:?} off={off:?}"
    );
    counters::reset();
}
