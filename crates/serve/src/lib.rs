//! **ucnn-serve** — a compile-once batched inference engine.
//!
//! The UCNN premise is that factorization work is paid **once per model**
//! and amortized over every inference (paper §IV). This crate is the
//! serving side of that bargain:
//!
//! * [`ModelRegistry`] — compile a network once
//!   ([`ucnn_core::plan::CompiledNetwork`]), register it by name, and share
//!   the immutable plan across threads behind an `Arc`.
//! * [`Engine`] — a sharded, work-stealing request queue
//!   ([`queue::ShardedQueue`]: one bounded shard per worker; an
//!   undersized drain tops its batch up with whole FIFO runs stolen from
//!   the deepest peers, so spread-out arrivals still coalesce into
//!   batch-major forwards) with dynamic batching feeding a pool of
//!   worker threads; each drained batch is grouped by model and executed
//!   as **one batch-major forward**
//!   ([`ucnn_core::plan::CompiledNetwork::forward_batch_with`], through
//!   [`EngineConfig::backend`], the engine's one executor choice), walking
//!   the retained streams once for the whole batch, on the worker's own
//!   thread — and every response stays bit-identical to the dense
//!   reference at every batch size. A wrong-shaped tensor is turned away
//!   at submit ([`ServeError::BadInput`]), and worker panics are surfaced
//!   in [`EngineStats`], never swallowed.
//! * [`EngineStats`] — the engine's one tally, plain atomics it owns and
//!   [`Engine::stats`] reads directly: requests, batches and their size
//!   distribution, steals, panics, and the three request-lifecycle phases
//!   (queue wait → batch form → execute, the partition each
//!   [`ServeResponse`] carries) as [`PhaseBreakdown`].
//!
//! *Measuring* the engine is the job of the repository benchmark
//! (`benchmark/`); the serving test suites (`tests/serve_load.rs`,
//! `tests/chaos.rs`) drive it through a small shared module of their own,
//! `tests/support/mod.rs`.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use ucnn_core::compile::UcnnConfig;
//! use ucnn_model::{forward, networks, ActivationGen, QuantScheme};
//! use ucnn_serve::{Engine, EngineConfig, ModelRegistry};
//!
//! // Compile once...
//! let registry = Arc::new(ModelRegistry::new());
//! let net = networks::tiny();
//! let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 1, 0.9);
//! registry.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
//!
//! // ...serve many, every answer the dense reference's.
//! let engine = Engine::start(registry, EngineConfig { workers: 2, ..EngineConfig::default() });
//! let mut agen = ActivationGen::new(2);
//! for _ in 0..3 {
//!     let input = agen.generate_for(&net.conv_layers()[0]);
//!     let response = engine.submit("tiny", input.clone()).unwrap().wait().unwrap();
//!     assert_eq!(response.output, forward::dense_forward(&net, &weights, &input));
//! }
//! assert_eq!(engine.shutdown().served, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod registry;

pub use engine::{
    Engine, EngineConfig, EngineStats, Pending, PhaseBreakdown, PhaseStat, ServeError,
    ServeResponse,
};
pub use queue::{ShardedBatch, ShardedQueue};
pub use registry::ModelRegistry;
