//! Scheduling-determinism suite: callers on several threads at once — a
//! serving engine's workers, each running forwards on its own thread over
//! one shared plan — must get bit-identical results, at 1 vs 2 vs the
//! machine's maximum threads, so that thread scheduling can never leak into
//! served results.
//!
//! A forward runs on the thread that calls it. What the threads share is the
//! plan, whose flattened lowering is built once by whichever caller reaches
//! it first; each thread stages into its own scratch arena. This is the
//! load-bearing guarantee of the serving stack's "bit-exact responses"
//! promise.

use std::sync::Barrier;

use ucnn_core::backend::BackendKind;
use ucnn_core::compile::UcnnConfig;
use ucnn_core::exec::{run_compiled, run_compiled_batch};
use ucnn_core::plan::{CompiledLayer, CompiledNetwork};
use ucnn_model::{
    forward, networks, ActivationGen, LayerSpec, NetworkSpec, QuantScheme, WeightGen,
};
use ucnn_tensor::{ConvGeom, Tensor3};

/// Thread counts exercised everywhere: one, two, and the larger of the
/// machine's parallelism and 4 (so the "max" case oversubscribes even
/// single-core CI runners).
fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(4);
    vec![1, 2, max]
}

/// Runs `f` on `threads` threads, released together by a barrier so their
/// calls overlap; every thread's result.
fn on_threads<T: Send>(threads: usize, f: impl Fn() -> T + Sync) -> Vec<T> {
    let start = Barrier::new(threads);
    let run = || {
        start.wait();
        f()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(run)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn layer_batch_bit_identical_across_thread_counts() {
    // A strided, padded shape with several filter bands AND ragged channel
    // tiles.
    let geom = ConvGeom::new(9, 8, 10, 7, 3, 3).with_stride(2).with_pad(1);
    let mut wgen = WeightGen::new(QuantScheme::inq(), 101).with_density(0.7);
    let weights = wgen.generate_dims(7, 10, 3, 3);
    let cfg = UcnnConfig {
        g: 2,
        ct: 4,
        ..UcnnConfig::default()
    };
    let mut agen = ActivationGen::new(102);
    for b in [1usize, 2, 7, 16] {
        let inputs: Vec<Tensor3<i16>> = (0..b).map(|_| agen.generate(10, 9, 8)).collect();
        let layer = CompiledLayer::compile(&geom, 1, &weights, &cfg);
        let expected: Vec<Tensor3<i32>> = inputs.iter().map(|i| run_compiled(&layer, i)).collect();
        assert_eq!(
            run_compiled_batch(&layer, &inputs),
            expected,
            "batch-major diverged from sequential at B = {b}"
        );
        let mut alone = NetworkSpec::new("alone");
        alone.push(LayerSpec::conv("layer", geom));
        for threads in thread_counts() {
            for kind in BackendKind::ALL {
                // A fresh one-layer network: the flattened callers race to
                // lower it.
                let net = CompiledNetwork::compile(&alone, std::slice::from_ref(&weights), &cfg);
                for got in on_threads(threads, || net.forward_batch_with(&inputs, kind)) {
                    assert_eq!(
                        got, expected,
                        "{kind:?}, B = {b}, {threads} threads: scheduling leaked into results"
                    );
                }
            }
        }
    }
}

#[test]
fn network_forward_batch_bit_identical_across_thread_counts() {
    let net = networks::tiny();
    let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 103, 0.85);
    let compiled = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
    let mut agen = ActivationGen::new(104);
    let inputs: Vec<Tensor3<i16>> = (0..8)
        .map(|_| agen.generate_for(&net.conv_layers()[0]))
        .collect();

    // Ground truth twice over: the per-image compiled forward AND the dense
    // reference forward.
    let expected: Vec<Tensor3<i32>> = inputs.iter().map(|i| compiled.forward(i)).collect();
    for (input, want) in inputs.iter().zip(&expected) {
        assert_eq!(
            &forward::dense_forward(&net, &weights, input),
            want,
            "compiled forward diverged from dense reference"
        );
    }

    let serial = compiled.forward_batch(&inputs);
    assert_eq!(serial, expected, "forward_batch diverged from per-image");
    for threads in thread_counts() {
        // A fresh plan: whichever thread's forward gets there first lowers it.
        let compiled = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
        for got in on_threads(threads, || compiled.forward_batch(&inputs)) {
            assert_eq!(
                got, expected,
                "threads = {threads}: batched network forward not bit-identical"
            );
        }
    }
}

#[test]
fn repeated_threaded_runs_are_stable() {
    // Same plan, same inputs, many runs on each of an oversubscribed count
    // of threads: every run must produce the same bits (no run-to-run
    // scheduling drift, nothing left behind in a thread's arena).
    let geom = ConvGeom::new(6, 6, 8, 6, 3, 3).with_pad(1);
    let mut wgen = WeightGen::new(QuantScheme::ttq(), 105).with_density(0.6);
    let weights = wgen.generate_dims(6, 8, 3, 3);
    let mut alone = NetworkSpec::new("alone");
    alone.push(LayerSpec::conv("layer", geom));
    let net = CompiledNetwork::compile(&alone, &[weights], &UcnnConfig::with_g(3));
    let mut agen = ActivationGen::new(106);
    let inputs: Vec<Tensor3<i16>> = (0..5).map(|_| agen.generate(8, 6, 6)).collect();
    for kind in BackendKind::ALL {
        let first = net.forward_batch_with(&inputs, kind);
        let runs = || {
            (0..5)
                .map(|_| net.forward_batch_with(&inputs, kind))
                .collect::<Vec<_>>()
        };
        for (thread, runs) in on_threads(8, runs).iter().enumerate() {
            for (run, got) in runs.iter().enumerate() {
                assert_eq!(got, &first, "{kind:?}: thread {thread}, run {run} differed");
            }
        }
    }
}
