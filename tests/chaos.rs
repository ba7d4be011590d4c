//! Chaos suite: the serving engine under induced failure — batches
//! panicking mid-forward, wrong-shaped tensors fired between good requests, consumers
//! that stop reading responses, the registry being
//! churned (models re-inserted) under sustained traffic, and
//! shutdown while producers are blocked on a full queue, a poison fraction
//! under load. Every test asserts invariants (exact accounting, bit-exact
//! outputs, no hangs); one also measures a capacity ratio with the rest of
//! the suite held off ([`SUITE`]), and asserts it in release builds.

mod support;

use std::panic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use support::{closed, register, zoo};
use ucnn::core::backend::BackendKind;
use ucnn::core::compile::UcnnConfig;
use ucnn::model::{forward, networks, LayerSpec, NetworkSpec, QuantScheme};
use ucnn::serve::{Engine, EngineConfig, ModelRegistry, ServeError};
use ucnn::tensor::Tensor3;

/// Held shared by every test, and alone by the one that times the engine.
static SUITE: RwLock<()> = RwLock::new(());

/// Puts the default panic hook back when dropped — also while its test
/// unwinds, from a fresh thread (a panicking one may not touch the hook).
struct DefaultHookOnDrop;

impl Drop for DefaultHookOnDrop {
    fn drop(&mut self) {
        let _ = thread::spawn(|| drop(panic::take_hook())).join();
    }
}

/// A batch lost to a panic must be *surfaced* (the count and the first
/// message in the stats) and cost *that batch only*: one more poison than
/// there are workers, each its own batch, and the pool still completes
/// everything after them bit-exactly. An engine whose workers exit on a
/// panic has nobody left to drain the queue by then — a hang, which the
/// watchdog turns into a message.
#[test]
fn a_panicking_batch_is_surfaced_and_costs_no_worker() {
    let _shared = SUITE.read().unwrap_or_else(PoisonError::into_inner);
    const WORKERS: usize = 4;
    let (done, finished) = mpsc::channel();
    thread::spawn(move || {
        let registry = Arc::new(ModelRegistry::new());
        let models = zoo(&registry, 2, 0x300);
        let engine = Engine::start(
            Arc::clone(&registry),
            EngineConfig {
                workers: WORKERS,
                queue_capacity: 64,
                max_batch: 4,
                ..EngineConfig::default()
            },
        );

        // Poison pills: a malformed input panics its batch mid-forward. The
        // caller sees a lost worker, not a hang.
        let plan = registry.resolve("tiny").expect("tiny registered");
        for _ in 0..=WORKERS {
            let poison = engine
                .submit_plan(Arc::clone(&plan), Tensor3::<i16>::zeros(1, 1, 1))
                .expect("poison enqueues");
            assert!(
                matches!(poison.wait(), Err(ServeError::WorkerLost)),
                "a panicked batch must drop the response channel"
            );
        }

        let tally = closed(&engine, &models, 4, 80);
        assert_eq!(tally.completed, 80, "lost requests after the panics");
        assert_eq!(tally.mismatches, 0);
        assert_eq!(tally.errors, 0);
        assert_eq!(tally.shed, 0);

        let stats = engine.shutdown();
        assert_eq!(stats.panicked_workers, WORKERS as u64 + 1, "a batch each");
        let msg = stats.panic_message.expect("panic message surfaced");
        assert!(
            msg.contains("input dims"),
            "panic message must carry the cause, got: {msg}"
        );
        assert_eq!(stats.served, 80, "the poison requests must not count");
        done.send(()).expect("the test is waiting");
    });
    match finished.recv_timeout(Duration::from_secs(10)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no answer in 10 s: the panics left no worker draining the queue")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("an assertion above failed"),
    }
}

/// A poison costs one request, not its riders: fired at 1 % of the answers
/// of a loaded two-worker engine (eight closed-loop clients, batches of up
/// to eight, a small MLP so a debug build answers thousands a second),
/// every good request is still answered bit-exactly and the accounting
/// closes — the gate in every build. The answers per second of the poisoned
/// stretches against the clean ones' are always printed, and asserted
/// within 5 % in release builds only: a loaded debug runner flakes a timed
/// ratio. Clean and poisoned stretches alternate every 50 ms through one
/// run of ≈ 5 s, so the host's drift falls on both.
#[test]
fn one_percent_poison_costs_only_the_poisoned_requests() {
    let _alone = SUITE.write().unwrap_or_else(PoisonError::into_inner);
    const WINDOW: Duration = Duration::from_millis(50);
    let mut spec = NetworkSpec::new("mlp");
    spec.push(LayerSpec::fully_connected("fc1", 64, 32));
    spec.push(LayerSpec::fully_connected("fc2", 32, 10));
    let registry = Arc::new(ModelRegistry::new());
    let models = [register(&registry, &spec, 0x500)];
    let config = EngineConfig {
        workers: 2,
        queue_capacity: 64,
        max_batch: 8,
        ..EngineConfig::default()
    };
    let engine = Engine::start(Arc::clone(&registry), config);
    let plan = registry.resolve("mlp").expect("registered");
    let served = || engine.stats().served;
    let requests = if cfg!(debug_assertions) {
        80_000
    } else {
        400_000
    };
    // The default hook's report of a worker's panic — under `RUST_BACKTRACE`
    // a symbolized backtrace, ≈ 5 % of this engine's capacity at 1 % — is the
    // process's logging, not the engine's cost: silenced on the workers for
    // the run (the engine keeps the first message), the default after it —
    // also when an assertion inside the run fails.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if !thread::current()
            .name()
            .is_some_and(|n| n.starts_with("ucnn-serve"))
        {
            hook(info);
        }
    }));
    let default_hook = DefaultHookOnDrop;
    let done = AtomicBool::new(false);
    let (tally, (sides, poisons)) = thread::scope(|scope| {
        let control = scope.spawn(|| {
            // Windows clean, poisoned, poisoned, clean, …; the first and the
            // one the run ends in are not counted, each counted one by its
            // own length. A poisoned window fires one poison per 99 of the
            // answers poisoned windows have had.
            let (mut sides, mut poisons, mut due) = ([(0u64, 0f64); 2], Vec::new(), 99);
            for window in 0u64.. {
                let poisoned = (window + window / 2) % 2 == 1;
                let (start, from) = (Instant::now(), served());
                while start.elapsed() < WINDOW {
                    if poisoned && served() - from >= due {
                        let poison = Tensor3::<i16>::zeros(1, 1, 1);
                        poisons.push(engine.submit_plan(Arc::clone(&plan), poison).expect("open"));
                        due += 99;
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                let (answered, took) = (served() - from, start.elapsed().as_secs_f64());
                if done.load(Ordering::Relaxed) {
                    return (sides, poisons);
                }
                if poisoned {
                    due -= answered.min(due);
                }
                if window > 0 {
                    let side = &mut sides[usize::from(poisoned)];
                    *side = (side.0 + answered, side.1 + took);
                }
            }
            unreachable!("the run ends")
        });
        let tally = closed(&engine, &models, 8, requests);
        done.store(true, Ordering::Relaxed);
        (tally, control.join().expect("the controller ran"))
    });
    drop(default_hook);
    let fired = poisons.len() as u64;
    for poison in poisons {
        assert!(matches!(poison.wait(), Err(ServeError::WorkerLost)));
    }
    // The cost, exactly, before the one timed assertion: every rider answered
    // once, and each poison lost alone (one panic) or with its batch (one
    // more, its riders re-run) — co-batched poisons share that one.
    assert_eq!(tally.total(), requests as u64, "the accounting identity");
    let answered = (tally.completed, tally.mismatches, tally.errors);
    assert_eq!(answered, (requests as u64, 0, 0), "a rider was lost");
    let stats = engine.shutdown();
    assert_eq!(stats.served, requests as u64, "the poisons must not count");
    let panics = stats.panicked_workers;
    assert!(
        (fired..=2 * fired).contains(&panics),
        "{panics} panics, {fired} poisons"
    );
    assert!(
        sides
            .iter()
            .all(|&(_, secs)| secs >= 4.0 * WINDOW.as_secs_f64()),
        "{sides:?}"
    );
    assert!(fired * 200 >= sides[1].0, "1 % poisoned: {fired}");
    let [clean, poisoned] = sides.map(|(answers, secs)| answers as f64 / secs);
    let ratio = format!(
        "poisoned {poisoned:.0} answers a second against clean {clean:.0}, × {:.3} \
         ({fired} poisons, {panics} panics, every rider answered)",
        poisoned / clean
    );
    println!("{ratio}");
    if !cfg!(debug_assertions) {
        assert!(poisoned >= 0.95 * clean, "{ratio}");
    }
}

/// A wrong-shaped tensor costs exactly itself: every named submit path
/// turns it away with [`ServeError::BadInput`] before it reaches a queue,
/// so the good requests around it are all answered bit-exactly, no worker
/// dies, and the accounting still closes.
#[test]
fn wrong_shaped_tensors_cost_only_themselves() {
    let _shared = SUITE.read().unwrap_or_else(PoisonError::into_inner);
    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 2, 0x350);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 4,
            ..EngineConfig::default()
        },
    ));
    let expected = registry
        .resolve("tiny")
        .expect("tiny registered")
        .input_dims();
    assert_eq!(expected, (3, 12, 12));

    let stop = Arc::new(AtomicBool::new(false));
    let hostile = thread::spawn({
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        move || {
            // One axis off at a time, and the poison pill of the test above.
            let shapes = [(2, 12, 12), (3, 11, 12), (3, 12, 13), (1, 1, 1)];
            let mut fired = 0u64;
            while !stop.load(Ordering::Relaxed) || fired < 16 {
                for got in shapes {
                    let bad = || Tensor3::<i16>::zeros(got.0, got.1, got.2);
                    let rejections = [
                        engine.submit("tiny", bad()),
                        engine.try_submit("tiny-1", bad()),
                    ];
                    for rejection in rejections {
                        match rejection {
                            Err(ServeError::BadInput {
                                expected: e,
                                got: g,
                            }) => {
                                assert_eq!((e, g), (expected, got));
                            }
                            other => panic!("{got:?} must be BadInput, got {:?}", other.err()),
                        }
                        fired += 1;
                    }
                }
                thread::sleep(Duration::from_millis(1));
            }
            fired
        }
    });

    let tally = closed(&engine, &models, 3, 120);
    stop.store(true, Ordering::Relaxed);
    let fired = hostile.join().expect("every rejection was a BadInput");
    assert!(fired >= 16, "the hostile client must actually have fired");

    assert_eq!(tally.total(), 120, "the accounting identity");
    assert_eq!(tally.completed, 120, "a good request went unanswered");
    assert_eq!((tally.mismatches, tally.errors), (0, 0));
    let engine = Arc::into_inner(engine).expect("sole owner after the join");
    let stats = engine.shutdown();
    assert_eq!(stats.served, 120, "rejected tensors must not count");
    assert_eq!(stats.panicked_workers, 0);
}

/// Consumers that go away without reading their responses must not stall
/// the engine: workers keep draining and the responses sit in their
/// per-request channels until (if ever) collected.
#[test]
fn slow_consumers_never_stall_the_engine() {
    let _shared = SUITE.read().unwrap_or_else(PoisonError::into_inner);
    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 1, 0x350);
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 2,
            queue_capacity: 16,
            max_batch: 4,
            ..EngineConfig::default()
        },
    );

    // Submit a full wave and read *nothing* yet.
    let cases = &models[0].cases;
    let pendings: Vec<_> = (0..24)
        .map(|i| {
            let (input, _) = &cases[i % cases.len()];
            engine
                .submit("tiny", input.clone())
                .expect("blocking submit succeeds")
        })
        .collect();

    // The engine must serve the whole wave without anyone calling wait().
    let drained_by = Instant::now() + Duration::from_secs(30);
    while engine.stats().served < 24 {
        assert!(
            Instant::now() < drained_by,
            "engine stalled behind slow consumers: served {}",
            engine.stats().served
        );
        thread::sleep(Duration::from_millis(1));
    }

    // Late collection still observes every response, bit-exact.
    for (i, pending) in pendings.into_iter().enumerate() {
        let resp = pending.wait().expect("response retained for late reader");
        let (_, expected) = &cases[i % cases.len()];
        assert_eq!(&resp.output, expected, "request {i} diverged");
    }
    let stats = engine.shutdown();
    assert_eq!(stats.served, 24);
    assert_eq!(stats.panicked_workers, 0);
}

/// Registry churn under load. While a closed-loop run is in
/// flight, a churn thread re-inserts both models (same weights, fresh
/// compile) every couple of milliseconds. Requests already holding the
/// old plan finish on it; every response stays bit-exact and nothing is
/// lost. The engine serves through the flattened backend, so every
/// re-insert also builds (warms) a lowering while traffic is running.
#[test]
fn registry_churn_under_load_stays_bit_exact() {
    let _shared = SUITE.read().unwrap_or_else(PoisonError::into_inner);
    let seed = 0x400u64;
    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 2, seed);
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 4,
            backend: BackendKind::FlattenedBatch,
            ..EngineConfig::default()
        },
    );

    let stop = Arc::new(AtomicBool::new(false));
    let churn = thread::spawn({
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        move || {
            let tiny = networks::tiny();
            let mut spins = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for (i, name) in ["tiny", "tiny-1"].iter().enumerate() {
                    let mut spec = NetworkSpec::new(*name);
                    for layer in tiny.layers() {
                        spec.push(layer.clone());
                    }
                    // Same seed as `zoo` → bit-identical weights, so the
                    // replacement plan must produce identical outputs.
                    let weights = forward::generate_network_weights(
                        &spec,
                        QuantScheme::inq(),
                        seed + i as u64,
                        0.9,
                    );
                    registry.compile_and_insert(&spec, &weights, &UcnnConfig::with_g(2));
                }
                spins += 1;
                thread::sleep(Duration::from_millis(2));
            }
            spins
        }
    });

    let tally = closed(&engine, &models, 3, 120);
    stop.store(true, Ordering::Relaxed);
    let spins = churn.join().expect("churn thread clean");
    assert!(spins >= 1, "the registry must actually have churned");

    assert_eq!(tally.completed, 120, "churn lost requests");
    assert_eq!(tally.mismatches, 0, "churn broke bit-exactness");
    assert_eq!(tally.errors, 0);
    assert_eq!(tally.shed, 0);
    let stats = engine.shutdown();
    assert_eq!(stats.served, 120);
    assert_eq!(stats.panicked_workers, 0);
}

/// Shutdown while producers are blocked on a full queue: every accepted
/// request resolves with a bit-exact response, every rejected submit gets
/// a clean `ShuttingDown`, blocked producers are woken (the test would
/// hang otherwise), and the served count equals exactly the accepted set.
#[test]
fn shutdown_under_backpressure_resolves_every_accepted_request() {
    let _shared = SUITE.read().unwrap_or_else(PoisonError::into_inner);
    let registry = Arc::new(ModelRegistry::new());
    let models = zoo(&registry, 1, 0x450);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            max_batch: 2,
            ..EngineConfig::default()
        },
    ));

    // Four producers push far more than the queue holds, so some are
    // always parked in the blocking submit path when shutdown begins.
    let cases = Arc::new(models[0].cases.clone());
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let engine = Arc::clone(&engine);
            let cases = Arc::clone(&cases);
            thread::spawn(move || {
                let mut ok = Vec::new();
                let mut rejected = 0u64;
                for i in 0..25usize {
                    let case = (p * 25 + i) % cases.len();
                    match engine.submit("tiny", cases[case].0.clone()) {
                        Ok(pending) => ok.push((case, pending)),
                        Err(ServeError::ShuttingDown) => rejected += 1,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
                (ok, rejected)
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(10));
    engine.begin_shutdown();

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for producer in producers {
        let (ok, rej) = producer.join().expect("producer survived shutdown");
        rejected += rej;
        for (case, pending) in ok {
            // Accepted before the close ⇒ drained and answered, even
            // though the engine was already shutting down.
            let resp = pending.wait().expect("accepted request must resolve");
            assert_eq!(&resp.output, &cases[case].1, "diverged under shutdown");
            accepted += 1;
        }
    }
    assert_eq!(accepted + rejected, 100, "a submit vanished");

    let engine = Arc::into_inner(engine).expect("sole owner after joins");
    let stats = engine.shutdown();
    assert_eq!(stats.served, accepted, "served ≠ accepted");
    assert_eq!(stats.panicked_workers, 0);
}
