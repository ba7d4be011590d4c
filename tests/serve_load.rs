//! Serve-regression suite: short mixed-model runs against the live engine,
//! asserting the invariants production serving depends on — zero lost or
//! duplicated responses under closed, open and bursty traffic, bit-exact
//! outputs per model across all registered backends, graceful shedding at
//! queue-full, and clean accounting through a shutdown under backpressure.

mod support;

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use support::{closed, open, zoo};
use ucnn::core::backend::BackendKind;
use ucnn::serve::{Engine, EngineConfig, ModelRegistry};

/// Closed-loop traffic over a multi-model registry must complete every
/// request with bit-exact outputs under **every** registered backend.
#[test]
fn hot_cold_mixed_models_bit_exact_across_all_backends() {
    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 3, 0x100);
    for backend in BackendKind::ALL {
        let engine = Engine::start(
            Arc::clone(&registry),
            EngineConfig {
                workers: 2,
                queue_capacity: 32,
                max_batch: 4,
                backend,
                ..EngineConfig::default()
            },
        );
        let tally = closed(&engine, &models, 3, 30);
        assert_eq!(tally.completed, 30, "backend {backend}: lost requests");
        assert_eq!(tally.mismatches, 0, "backend {backend}: outputs diverged");
        assert_eq!((tally.errors, tally.shed), (0, 0), "backend {backend}");
        // Every response reports the batch it rode in, within the limit.
        assert!(
            (1..=4).contains(&tally.max_batch),
            "backend {backend}: batch sizes outside 1..=max_batch"
        );
        // Round-robin traffic: every model answered its share, bit-exactly.
        assert_eq!(tally.per_model, [10, 10, 10], "backend {backend}");
        let stats = engine.shutdown();
        assert_eq!(stats.served, 30, "backend {backend}: engine count");
    }
}

/// Bursty arrivals — eight sends 0.5 ms apart, then 5 ms idle — keep exact
/// accounting: every request is answered or shed, none is lost to an
/// error, and outputs stay bit-exact.
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
    let (gap, cycle) = (Duration::from_micros(500), Duration::from_micros(9_000));
    let burst = |k: usize| gap * (k % 8) as u32 + cycle * (k / 8) as u32;
    let tally = open(&engine, &models, 48, burst);
    assert_eq!(tally.total(), 48, "lost requests");
    assert_eq!((tally.errors, tally.mismatches), (0, 0));
    let stats = engine.shutdown();
    assert_eq!(stats.served, tally.completed, "served != verified");
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
    let tally = open(&engine, &models, 100, |_| Duration::ZERO);
    assert_eq!(tally.total(), 100);
    assert!(tally.shed > 0, "expected queue-full sheds");
    assert_eq!((tally.errors, tally.mismatches), (0, 0));
    let stats = engine.shutdown();
    assert_eq!(stats.served, tally.completed);
}

/// Shutdown under backpressure: closing the engine mid-run turns the
/// remaining submits away at the door — nothing hangs, every accepted
/// request is answered, and everything the engine reports served was
/// actually verified.
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
    let tally = thread::scope(|scope| {
        scope.spawn(|| {
            // Let some requests through, then slam the door while clients
            // are still submitting against backpressure.
            thread::sleep(Duration::from_millis(30));
            engine.begin_shutdown();
        });
        closed(&engine, &models, 4, 400)
    });
    assert_eq!(
        (tally.completed + tally.shed, tally.errors),
        (400, 0),
        "closed-loop run must account for every request through shutdown"
    );
    assert_eq!(
        tally.mismatches, 0,
        "responses served during shutdown must stay bit-exact"
    );
    let stats = engine.shutdown();
    assert_eq!(
        stats.served, tally.completed,
        "engine served count must equal verified completions"
    );
}

/// The observability stack end to end: per-layer reuse counters, request
/// lifecycle phases and `Engine::stats()` sampled mid-run must all
/// reconcile with what the clients got back — and enabling the reuse
/// counters must not meaningfully change throughput (the counts are
/// analytic, recorded per layer of each network forward, not hot-loop
/// instrumentation; the measured cost is documented in EXPERIMENTS.md, and
/// only a loose bound is asserted here because absolute speed is
/// machine-dependent).
#[test]
fn metrics_and_reuse_counters_reconcile_with_accounting() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use ucnn::core::counters;

    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 2, 0x600);
    let run_once = |counting: bool| {
        let engine = Engine::start(
            Arc::clone(&registry),
            EngineConfig {
                workers: 2,
                queue_capacity: 32,
                max_batch: 4,
                backend: BackendKind::BatchThreads,
                ..EngineConfig::default()
            },
        );
        if counting {
            counters::set_enabled(true);
        }
        let done = AtomicBool::new(false);
        let (tally, samples) = thread::scope(|scope| {
            // Samples the engine's totals every 2 ms while the clients run,
            // and once more after they finish.
            let sampler = scope.spawn(|| {
                let mut samples = Vec::new();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    samples.push(engine.stats());
                    if finished {
                        return samples;
                    }
                    thread::sleep(Duration::from_millis(2));
                }
            });
            let tally = closed(&engine, &models, 2, 60);
            done.store(true, Ordering::Release);
            (tally, sampler.join().expect("the sampler ran"))
        });
        if counting {
            counters::set_enabled(false);
        }
        let stats = engine.shutdown();
        (tally, samples, stats)
    };

    let (tally, samples, stats) = run_once(true);
    assert_eq!(tally.completed, 60);
    assert_eq!(tally.mismatches, 0);
    assert_eq!(stats.served, tally.completed);
    // Every phase counted once per request.
    assert_eq!(stats.phases.queue_wait.count, stats.served);
    assert_eq!(stats.phases.execute.count, stats.served);
    assert_eq!(stats.phases.batch_form.count, stats.served);
    // Each mid-run sample is never ahead of the totals `shutdown()`
    // returns, and the last one sees the whole run.
    assert!(samples.len() >= 2);
    for sample in &samples {
        assert!(sample.served <= stats.served, "{sample:?}");
        assert!(sample.batches <= stats.batches, "{sample:?}");
    }
    assert_eq!(samples.last().expect("sampled").served, stats.served);

    // Reuse tallies cover both zoo models, with the factorized walk never
    // exceeding dense-equivalent work. Sibling tests share the global sink
    // and the zoo names (a forward of theirs that lands while this run
    // counts merges into the same rows, under any backend), so the
    // assertions hold for every row rather than asserting exclusivity.
    let rows: Vec<_> = counters::snapshot()
        .into_iter()
        .filter(|r| r.net == "tiny" || r.net == "tiny-1")
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
    let (off_tally, ..) = run_once(false);
    let off = t0.elapsed();
    let t1 = std::time::Instant::now();
    let (on_tally, ..) = run_once(true);
    let on = t1.elapsed();
    assert_eq!(off_tally.completed, on_tally.completed);
    assert!(
        on.as_secs_f64() < off.as_secs_f64() * 2.0 + 0.05,
        "counting cost exploded: on={on:?} off={off:?}"
    );
    counters::reset();
}
