//! The serving suites' client side: models with their dense-reference answers,
//! and a closed and an open loop that send them to an [`Engine`] and tally
//! what came back. `tests/{serve_load,chaos}.rs` include it as `support`.

#![allow(dead_code)] // Each suite uses the part it needs.

use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use ucnn::core::compile::UcnnConfig;
use ucnn::model::{forward, networks, ActivationGen, NetworkSpec, QuantScheme};
use ucnn::serve::{Engine, ModelRegistry, Pending, ServeError, ServeResponse};
use ucnn::tensor::Tensor3;

/// One request case: an input and its dense-reference output.
pub type Case = (Tensor3<i16>, Tensor3<i32>);

/// A registered model and the cases its requests draw from.
pub struct Model {
    pub name: String,
    pub cases: Vec<Case>,
}

/// Compiles `spec` with INQ weights drawn from `seed` into `registry`, and
/// returns it with three cases.
pub fn register(registry: &ModelRegistry, spec: &NetworkSpec, seed: u64) -> Model {
    let mut agen = ActivationGen::new(seed ^ 0xACE);
    let weights = forward::generate_network_weights(spec, QuantScheme::inq(), seed, 0.9);
    registry.compile_and_insert(spec, &weights, &UcnnConfig::with_g(2));
    let cases = (0..3)
        .map(|_| {
            let input = agen.generate_for(&spec.conv_layers()[0]);
            let expected = forward::dense_forward(spec, &weights, &input);
            (input, expected)
        })
        .collect();
    let name = spec.name().to_string();
    Model { name, cases }
}

/// Registers `n` copies of the tiny topology — `tiny`, `tiny-1`, … — with
/// distinct weights. Weight seeds are `seed + i`, so a churn thread can
/// regenerate bit-identical weights.
pub fn zoo(registry: &ModelRegistry, n: usize, seed: u64) -> Vec<Model> {
    (0..n)
        .map(|i| {
            let name = if i == 0 {
                "tiny".into()
            } else {
                format!("tiny-{i}")
            };
            let mut spec = NetworkSpec::new(&name);
            for layer in networks::tiny().layers() {
                spec.push(layer.clone());
            }
            register(registry, &spec, seed + i as u64)
        })
        .collect()
}

/// What a run got back: each request is `completed`, `shed` at the door
/// (`Overloaded`, `ShuttingDown`), or one of `errors` (e.g. never answered).
#[derive(Debug, Default)]
pub struct Tally {
    pub completed: u64,
    /// Completed responses that differ from the dense reference.
    pub mismatches: u64,
    pub errors: u64,
    pub shed: u64,
    /// Completed responses per model, in the order of the model set.
    pub per_model: Vec<u64>,
    /// The largest batch a response rode in.
    pub max_batch: usize,
}

impl Tally {
    fn new(models: usize) -> Self {
        Self {
            per_model: vec![0; models],
            ..Self::default()
        }
    }

    /// Requests accounted for.
    pub fn total(&self) -> u64 {
        self.completed + self.shed + self.errors
    }

    fn record(&mut self, model: usize, expected: &Tensor3<i32>, got: Answer) {
        match got {
            Ok(response) => {
                self.completed += 1;
                self.per_model[model] += 1;
                self.mismatches += u64::from(response.output != *expected);
                self.max_batch = self.max_batch.max(response.batch_size);
            }
            Err(ServeError::Overloaded | ServeError::ShuttingDown) => self.shed += 1,
            Err(_) => self.errors += 1,
        }
    }
}

type Answer = Result<ServeResponse, ServeError>;

/// Request `k`'s model and case: round-robin over models, then cases.
fn pick(models: &[Model], k: usize) -> (usize, &Case) {
    let model = k % models.len();
    let cases = &models[model].cases;
    (model, &cases[k / models.len() % cases.len()])
}

/// `clients` threads share `requests`: each submits with backpressure and
/// waits for the answer before its next send, round-robin from its own model.
pub fn closed(engine: &Engine, models: &[Model], clients: usize, requests: usize) -> Tally {
    let tally = Mutex::new(Tally::new(models.len()));
    thread::scope(|scope| {
        for client in 0..clients {
            let tally = &tally;
            scope.spawn(move || {
                for k in (client..requests).step_by(clients) {
                    let (m, (input, expected)) = pick(models, client + k / clients);
                    let got = engine
                        .submit(&models[m].name, input.clone())
                        .and_then(Pending::wait);
                    tally.lock().unwrap().record(m, expected, got);
                }
            });
        }
    });
    tally.into_inner().unwrap()
}

/// Sends request `k` with `try_submit` at `at(k)` after the start — a full
/// queue is a shed, never a stall — then waits on every accepted request.
pub fn open(engine: &Engine, models: &[Model], n: usize, at: impl Fn(usize) -> Duration) -> Tally {
    let (start, mut tally, mut pending) = (Instant::now(), Tally::new(models.len()), Vec::new());
    for k in 0..n {
        thread::sleep((start + at(k)).saturating_duration_since(Instant::now()));
        let (model, (input, expected)) = pick(models, k);
        match engine.try_submit(&models[model].name, input.clone()) {
            Ok(accepted) => pending.push((model, expected, accepted)),
            Err(refused) => tally.record(model, expected, Err(refused)),
        }
    }
    for (model, expected, accepted) in pending {
        tally.record(model, expected, accepted.wait());
    }
    tally
}
