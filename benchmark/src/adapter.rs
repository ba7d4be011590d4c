//! Every call into the program lives in this file; the rest of the benchmark
//! sees only the types defined here, so API churn in a later PR is a one-file
//! fix. Only default public entry points are driven — no backend variant is
//! named, no environment knob is set, and the program's own harness, load
//! generator, histogram and metrics modules are never touched.
//!
//! Public items of the program used (keep this list in step with the code):
//!
//! * `ucnn_serve::ModelRegistry::{new, compile_and_insert, resolve}`
//! * `ucnn_serve::Engine::{start, submit, try_submit, shutdown}` with
//!   `EngineConfig::default()`; `Pending::wait`; `ServeError::Overloaded`;
//!   the fields of `ServeResponse` and `EngineStats`
//! * `ucnn_serve::ShardedQueue::{new, push, pop_batch}`
//! * `ucnn_core::CompiledNetwork::{compile, warm, backend, forward_batch,
//!   total_entries, DEFAULT_BACKEND}`; `UcnnConfig::with_g(2)`
//! * `ucnn_core::counters::{set_enabled, reset, snapshot}`
//! * `ucnn_core::simd::{SimdCaps, SIMD_ENV, SHIFT_ENV}` (provenance and the
//!   refusal to run with a knob set)
//! * `ucnn_model::{networks::{tiny, lenet}, forward::{dense_forward,
//!   generate_network_weights}, ActivationGen, QuantScheme::inq,
//!   NetworkSpec, LayerSpec}`
//! * `ucnn_sim::{driver::{simulate_designs, WorkloadSpec::inq},
//!   config::evaluation_designs}`
//! * `ucnn_tensor::{Tensor3, Tensor4}` (held, compared and cloned only)

use std::sync::Arc;
use std::time::Instant;

use ucnn_core::compile::UcnnConfig;
use ucnn_core::plan::CompiledNetwork;
use ucnn_core::simd::{SimdCaps, SHIFT_ENV, SIMD_ENV};
use ucnn_model::{forward, networks, ActivationGen, NetworkSpec, QuantScheme};
use ucnn_serve::{Engine, EngineConfig, ModelRegistry, Pending, ServeError, ShardedQueue};
use ucnn_tensor::{Tensor3, Tensor4};

/// One network input.
#[derive(Clone, Debug)]
pub struct Input(Tensor3<i16>);

/// One network output (the raw logits).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output(Tensor3<i32>);

impl Output {
    /// Flips the lowest bit of the first value — lets a test prove that a
    /// wrong expected output is counted as a failure.
    #[cfg(test)]
    pub fn corrupt(&mut self) {
        if let Some(v) = self.0.as_mut_slice().first_mut() {
            *v ^= 1;
        }
    }
}

/// A network with generated weights: what the program is given to compile,
/// and what the dense reference checks its answers against.
#[derive(Clone, Debug)]
pub struct ModelDef {
    spec: NetworkSpec,
    weights: Vec<Tensor4<i16>>,
}

impl ModelDef {
    fn generated(spec: NetworkSpec, weight_seed: u64, density: f64) -> Self {
        let weights =
            forward::generate_network_weights(&spec, QuantScheme::inq(), weight_seed, density);
        Self { spec, weights }
    }

    /// `networks::tiny()` under another name, with its own INQ weights — the
    /// registry keys models by name.
    pub fn tiny(name: &str, weight_seed: u64, density: f64) -> Self {
        let mut spec = NetworkSpec::new(name);
        for layer in networks::tiny().layers() {
            spec.push(layer.clone());
        }
        Self::generated(spec, weight_seed, density)
    }

    /// `networks::lenet()` with INQ weights.
    pub fn lenet(weight_seed: u64, density: f64) -> Self {
        Self::generated(networks::lenet(), weight_seed, density)
    }

    pub fn name(&self) -> &str {
        self.spec.name()
    }

    /// A one-layer network cut from this one: the named weight-bearing
    /// layer with the weights it has here.
    pub fn single_layer(&self, layer: &str) -> Self {
        let index = self
            .spec
            .conv_layers()
            .iter()
            .position(|l| l.name() == layer)
            .unwrap_or_else(|| panic!("{} has no weight-bearing layer '{layer}'", self.name()));
        let layer_spec = self
            .spec
            .layers()
            .iter()
            .find(|l| l.name() == layer)
            .expect("a weight-bearing layer is a layer")
            .clone();
        let mut spec = NetworkSpec::new(format!("{}.{layer}", self.name()));
        spec.push(layer_spec);
        Self {
            spec,
            weights: vec![self.weights[index].clone()],
        }
    }

    /// A generated input of the shape the first layer takes.
    pub fn input(&self, seed: u64) -> Input {
        Input(ActivationGen::new(seed).generate_for(&self.spec.conv_layers()[0]))
    }

    /// The dense reference's answer — the oracle every output is compared
    /// with, bit for bit.
    pub fn reference(&self, input: &Input) -> Output {
        Output(forward::dense_forward(&self.spec, &self.weights, &input.0))
    }

    /// Compiles with the configuration the serving examples use (G = 2).
    pub fn compile(&self) -> Plan {
        Plan(CompiledNetwork::compile(
            &self.spec,
            &self.weights,
            &UcnnConfig::with_g(2),
        ))
    }
}

/// A batch laid out the way `forward_batch` takes it, built outside any
/// timed span.
pub struct Batch(Vec<Tensor3<i16>>);

impl Batch {
    pub fn of(inputs: &[Input]) -> Self {
        Self(inputs.iter().map(|i| i.0.clone()).collect())
    }
}

/// The outputs of one `forward_batch` call, as the program returned them.
#[derive(Debug)]
pub struct Outputs(Vec<Tensor3<i32>>);

impl Outputs {
    /// How many outputs differ from `expected` (a missing or extra output
    /// counts as a difference).
    pub fn mismatches(&self, expected: &[Output]) -> usize {
        let differing = self
            .0
            .iter()
            .zip(expected)
            .filter(|(got, want)| **got != want.0)
            .count();
        differing + self.0.len().abs_diff(expected.len())
    }
}

/// A compiled network, run through its default backend.
pub struct Plan(CompiledNetwork);

impl Plan {
    /// Builds the lazily derived state of the backend `forward_batch` will
    /// use, whichever that is.
    pub fn warm(&self) {
        self.0.warm(self.0.backend());
    }

    pub fn entries(&self) -> usize {
        self.0.total_entries()
    }

    pub fn forward_batch(&self, batch: &Batch) -> Outputs {
        Outputs(self.0.forward_batch(&batch.0))
    }
}

/// The model registry.
pub struct Zoo(Arc<ModelRegistry>);

impl Zoo {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self(Arc::new(ModelRegistry::new()))
    }

    /// Compile-and-register: the deploy step.
    pub fn insert(&self, model: &ModelDef) {
        self.0
            .compile_and_insert(&model.spec, &model.weights, &UcnnConfig::with_g(2));
    }

    pub fn resolves(&self, name: &str) -> bool {
        self.0.resolve(name).is_some()
    }
}

/// One answered request, with the lifecycle stamps the engine attaches.
#[derive(Debug)]
pub struct Reply {
    pub output: Output,
    /// Enqueue → execute start (includes `batch_form_ns`).
    pub queue_ns: u64,
    pub batch_form_ns: u64,
    /// Execute time of the batch this request rode in.
    pub service_ns: u64,
    pub batch_size: usize,
    pub worker: usize,
    pub completed_at: Instant,
}

/// A submitted request.
pub struct Ticket(Pending);

impl Ticket {
    /// Blocks for the answer; an engine-side error comes back as its
    /// message.
    pub fn wait(self) -> Result<Reply, String> {
        match self.0.wait() {
            Ok(r) => Ok(Reply {
                output: Output(r.output),
                queue_ns: r.queue_ns,
                batch_form_ns: r.batch_form_ns,
                service_ns: r.service_ns,
                batch_size: r.batch_size,
                worker: r.worker,
                completed_at: r.completed_at,
            }),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Final engine counters.
#[derive(Clone, Copy, Debug)]
pub struct Totals {
    pub batches: u64,
    pub steals: u64,
    /// Requests the engine shed or rejected on its own account.
    pub shed: u64,
}

/// The engine, started with its default configuration.
pub struct Server(Engine);

impl Server {
    pub fn start(zoo: &Zoo) -> Self {
        Self(Engine::start(Arc::clone(&zoo.0), EngineConfig::default()))
    }

    /// Blocking submit (closed-loop backpressure).
    pub fn submit(&self, model: &str, input: Input) -> Result<Ticket, String> {
        self.0
            .submit(model, input.0)
            .map(Ticket)
            .map_err(|e| e.to_string())
    }

    /// Non-blocking submit: `Ok(None)` when the queue is full, instead of
    /// stalling.
    pub fn try_submit(&self, model: &str, input: Input) -> Result<Option<Ticket>, String> {
        match self.0.try_submit(model, input.0) {
            Ok(pending) => Ok(Some(Ticket(pending))),
            Err(ServeError::Overloaded) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn shutdown(self) -> Totals {
        let stats = self.0.shutdown();
        Totals {
            batches: stats.batches,
            steals: stats.steals,
            shed: stats.shed_deadline + stats.deadline_rejected + stats.quota_rejected,
        }
    }
}

/// The engine's queue on its own, for the single-thread round-trip probe.
pub struct Queue(ShardedQueue<u64>);

impl Queue {
    pub fn new(shards: usize, capacity: usize) -> Self {
        Self(ShardedQueue::new(shards, capacity))
    }

    pub fn push(&self, item: u64) {
        self.0.push(item).expect("the probe never closes its queue");
    }

    /// Pops up to `max_batch` items as `worker`; returns how many came.
    pub fn pop_batch(&self, worker: usize, max_batch: usize) -> usize {
        self.0
            .pop_batch(worker, max_batch)
            .map_or(0, |batch| batch.items.len())
    }
}

/// The analytic reuse counters of whatever ran inside `count_work`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub images: u64,
    pub dense_mults: u64,
    pub issued_mults: u64,
    pub gather_entries: u64,
}

/// Runs `f` with the program's reuse counters on and returns what they
/// tallied. Process-wide state: nothing else may run forwards meanwhile.
pub fn count_work(f: impl FnOnce()) -> Work {
    ucnn_core::counters::reset();
    ucnn_core::counters::set_enabled(true);
    f();
    ucnn_core::counters::set_enabled(false);
    let mut work = Work::default();
    for row in ucnn_core::counters::snapshot() {
        // Every layer of one forward sees the same batch; the image count
        // is the per-layer one, not the sum over layers.
        work.images = work.images.max(row.work.images);
        work.dense_mults += row.work.dense_multiplies;
        work.issued_mults += row.work.multiplies_issued;
        work.gather_entries += row.work.gather_entries;
    }
    ucnn_core::counters::reset();
    work
}

/// Simulated (not measured) results of the paper path.
#[derive(Clone, Copy, Debug)]
pub struct SimResult {
    pub energy_u17_vs_dcnn_sp: f64,
    pub cycles_u17_vs_dcnn_sp: f64,
    pub bits_per_weight_u17: f64,
}

/// The evaluation's 16-bit design points on LeNet with INQ weights. The
/// design list is `[DCNN, DCNN_sp, UCNN U3, UCNN U17, ..]` by contract.
pub fn simulate_lenet(seed: u64) -> SimResult {
    let net = networks::lenet();
    let reports = ucnn_sim::driver::simulate_designs(
        &ucnn_sim::config::evaluation_designs(16),
        &net,
        &ucnn_sim::driver::WorkloadSpec::inq(seed),
        8,
    );
    let (dcnn_sp, u17) = (&reports[1], &reports[3]);
    assert_eq!(
        (dcnn_sp.arch.as_str(), u17.arch.as_str()),
        ("DCNN_sp", "UCNN U17"),
        "evaluation_designs changed its order"
    );
    SimResult {
        energy_u17_vs_dcnn_sp: u17.energy_vs(dcnn_sp),
        cycles_u17_vs_dcnn_sp: u17.runtime_vs(dcnn_sp),
        bits_per_weight_u17: u17.total.bits_per_weight(net.total_weights()),
    }
}

/// What the program says about itself, for the provenance block.
#[derive(Clone, Debug)]
pub struct ProgramInfo {
    pub simd_best: &'static str,
    pub engine_config: String,
    pub default_backend: String,
    pub max_batch: usize,
}

pub fn program_info() -> ProgramInfo {
    let config = EngineConfig::default();
    ProgramInfo {
        simd_best: SimdCaps::get().best().name(),
        engine_config: format!("{config:?}"),
        default_backend: format!("{:?}", CompiledNetwork::DEFAULT_BACKEND),
        max_batch: config.max_batch,
    }
}

/// The program's environment knobs that are set right now. A run with one
/// set would not measure the default path.
pub fn env_knobs_set() -> Vec<&'static str> {
    [SIMD_ENV, SHIFT_ENV]
        .into_iter()
        .filter(|name| std::env::var_os(name).is_some())
        .collect()
}
