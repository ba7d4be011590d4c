//! The batched inference engine: a sharded, work-stealing request queue
//! feeding a pool of worker threads that execute retained
//! [`CompiledNetwork`] plans.
//!
//! Workers share plans via `Arc` (the plan tree is `Send + Sync`, asserted
//! at compile time in `ucnn-core`), so any number of workers serve any
//! number of models with zero per-request compilation or weight copies.
//! Each worker owns one shard of a [`ShardedQueue`] — submits spread over
//! shards with two-choice probing, and a worker whose own shard runs dry
//! **steals a whole contiguous batch** from the deepest peer (whole
//! batches, not single items, so model-grouping survives the steal).
//! Each worker drains its shard in dynamic batches: under light load a
//! batch is a single request (no added latency), under backlog it grows up
//! to the configured limit, amortizing queue synchronization.
//!
//! Requests may carry a **deadline**. Open-loop submission applies
//! admission control — a request whose deadline cannot be met at the
//! current depth (estimated from an EWMA of per-request service time) is
//! rejected with [`ServeError::DeadlineExceeded`] instead of queued — and
//! workers shed already-expired requests at drain time rather than
//! executing dead work. Per-model [`ModelQuota`]s bound each tenant's
//! requests in flight ([`ServeError::QuotaExceeded`]); the quota slot is
//! held from admission to response delivery by an RAII token. Before
//! either, a tensor that is not the named model's input shape is turned
//! away with [`ServeError::BadInput`]: it costs that request, not the
//! worker its forward would have panicked.
//!
//! [`ModelQuota`]: crate::registry::ModelQuota
//!
//! A drained batch is grouped by model and each group executes as **one
//! batched forward** ([`CompiledNetwork::forward_batch_with`], through the
//! engine's one [`EngineConfig::backend`]): the retained plan is walked
//! once for the whole group instead of once per request, and
//! [`EngineConfig::exec_threads`] optionally parallelizes that single
//! forward across scoped threads. Responses stay bit-identical to
//! per-request execution at every batch size and thread count.
//!
//! Workers are plain threads, which makes two serve-path costs one-time
//! instead of per-request: the flattened executor keeps a **per-thread
//! scratch arena** (`ucnn_core`'s `flatten/scratch.rs`), so each
//! worker's steady-state hot path stops allocating scratch per batch, and
//! lazily lowered plan state is **warmed** ahead of traffic — by the
//! [`ModelRegistry`] at insert time and by [`Engine::start`] for plans
//! already resident — so the first request after a deploy does not pay
//! lowering latency in its tail.
//!
//! Every event is tallied once, in the engine's own [`MetricsRegistry`]
//! (per-worker padded cells): [`Engine::stats`] reads its totals and the
//! three phase histograms — queue wait, batch formation, execute: the same
//! partition of a request's time in the engine that each [`ServeResponse`]
//! carries — back out of it. Measuring the engine is the job of the
//! repository benchmark (`benchmark/`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ucnn_core::backend::BackendKind;
use ucnn_core::plan::CompiledNetwork;
use ucnn_tensor::Tensor3;

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::queue::{ShardedBatch, ShardedQueue, TryPushError};
use crate::registry::{ModelRegistry, QuotaToken};

/// Engine sizing knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker thread count (`≥ 1`).
    pub workers: usize,
    /// Queue shard count; `0` (the default) means one shard per worker.
    /// Workers map onto shards round-robin, so `queue_shards: 1` runs the
    /// whole pool off a single central queue.
    pub queue_shards: usize,
    /// Bounded queue capacity (backpressure depth).
    pub queue_capacity: usize,
    /// Maximum requests a worker drains per batch.
    pub max_batch: usize,
    /// Scoped threads each worker uses *inside* one batched forward (`≥ 1`).
    ///
    /// `workers` scales across independent batches; `exec_threads` scales a
    /// single batch's layer execution across filter bands and batch chunks.
    /// On a machine with `P` cores, `workers × exec_threads ≈ P` is the
    /// natural operating point: many workers for many small batches (low
    /// latency), few workers with several exec threads for large batches
    /// (high throughput per batch).
    pub exec_threads: usize,
    /// The executor backend every batched forward runs through (every
    /// backend is bit-identical; this only changes performance). It is the
    /// engine's only executor choice: there is no per-model or per-request
    /// override tier, so retiring `batch-threads` is the default line below
    /// plus the deletion of the executor.
    ///
    /// [`EngineConfig::default`] names `batch-threads` on purpose; it does
    /// not follow the library's `CompiledNetwork::DEFAULT_BACKEND`
    /// (`flattened-batch`), although that executor is faster in every cell
    /// of `BENCH_backends.json`. Measured with the default flipped on a
    /// scratch copy (PR 19, 20 s runs): `serve_closed_c2.throughput_vs_dense`
    /// 0.94 → 6.2, `serve_pipelined_w32` 1.11 → 10.1 and
    /// `serve_open_r500.lat_p50_vs_dense` 2.35 → 0.64, but the repository
    /// benchmark keeps one sample per answered request inside its own
    /// peak-RSS reading, so the same flip reads `peak_rss_mb` 7.1 → 26.8
    /// and 8.2 → 39.9 MB, far past the benchmark's 25 % bound. The flip
    /// follows a PR that fixes that accounting in `benchmark/`.
    pub backend: BackendKind,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_shards: 0,
            queue_capacity: 256,
            max_batch: 8,
            exec_threads: 1,
            backend: BackendKind::BatchThreads,
        }
    }
}

/// Errors surfaced by request submission or completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The named model is not registered.
    UnknownModel(String),
    /// The engine is shutting down; the request was not enqueued.
    ShuttingDown,
    /// The queue was full on a non-blocking submit (open-loop overload).
    Overloaded,
    /// The worker dropped the response channel: the request's own forward
    /// panicked (run alone, after the batch it rode in panicked).
    WorkerLost,
    /// The request's deadline cannot be (or was not) met: rejected at
    /// submit by admission control, or shed by a worker that drained it
    /// after expiry. Either way no forward pass ran for it.
    DeadlineExceeded,
    /// The model is at its per-model concurrency ceiling
    /// ([`crate::registry::ModelQuota`]); the request was not enqueued.
    QuotaExceeded,
    /// The tensor is not the `(channels, width, height)` the named model
    /// takes ([`CompiledNetwork::input_dims`]); the request took no quota
    /// slot and was not enqueued.
    BadInput {
        /// The model's input dims.
        expected: (usize, usize, usize),
        /// The submitted tensor's dims.
        got: (usize, usize, usize),
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "unknown model '{name}'"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Overloaded => write!(f, "request queue is full"),
            ServeError::WorkerLost => write!(f, "worker dropped the response"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::QuotaExceeded => write!(f, "model concurrency quota exceeded"),
            ServeError::BadInput { expected, got } => {
                write!(f, "input dims {got:?} are not the model's {expected:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One completed inference.
#[derive(Clone, Debug)]
pub struct ServeResponse {
    /// The network output (bit-identical to the dense reference).
    pub output: Tensor3<i32>,
    /// Time spent queued before a worker picked the request up — the full
    /// enqueue → execute-start span (queue wait plus batch formation).
    pub queue_ns: u64,
    /// The batch-formation slice of [`ServeResponse::queue_ns`]: drain →
    /// execute-start (grouping the drained requests by model and
    /// assembling batch-major inputs), shared by every request of the
    /// batch. Pure queue wait is `queue_ns - batch_form_ns`.
    pub batch_form_ns: u64,
    /// Time the worker spent executing the batched forward this request
    /// rode in (shared by every request of the batch).
    pub service_ns: u64,
    /// Number of same-model requests served by that single batched forward.
    pub batch_size: usize,
    /// Index of the worker thread that served it (`< workers`, whatever
    /// the queue shard count).
    pub worker: usize,
    /// When the worker finished (for open-loop latency accounting).
    pub completed_at: Instant,
}

/// Handle to a submitted request; [`Pending::wait`] blocks for completion.
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<Result<ServeResponse, ServeError>>,
}

impl Pending {
    /// Blocks until the response (or the worker's shed decision) arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DeadlineExceeded`] if a worker shed the
    /// request because it expired in queue, or [`ServeError::WorkerLost`]
    /// if the batch it rode in panicked.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)?
    }
}

struct Request {
    model: Arc<CompiledNetwork>,
    input: Tensor3<i16>,
    enqueued_at: Instant,
    /// Absolute expiry. A worker that drains this request at or past the
    /// deadline sheds it (sends `Err(DeadlineExceeded)`) instead of
    /// executing dead work.
    deadline: Option<Instant>,
    /// Per-model admission slot, held until the response (or shed) is
    /// delivered — dropping the request on any path releases it.
    quota: Option<QuotaToken>,
    tx: mpsc::Sender<Result<ServeResponse, ServeError>>,
}

/// Engine state with no twin in the [`MetricsRegistry`]: everything that
/// is a plain event count lives there (see [`EngineMetrics`]).
struct Counters {
    /// `batch_sizes[s]` counts executed batches of exactly `s` requests
    /// (index 0 unused).
    batch_sizes: Vec<AtomicU64>,
    /// Batches whose size exceeded `max_batch` — a grouping bug. Counted
    /// here instead of being folded into the top bucket so the distribution
    /// cannot masquerade a bug as legitimate max-size batches.
    batch_overflows: AtomicU64,
    /// EWMA of per-request execute time in nanoseconds (0 = no sample
    /// yet), feeding deadline admission control.
    service_est_ns: AtomicU64,
    /// First worker panic message observed, for [`EngineStats`].
    panic_message: Mutex<Option<String>>,
}

impl Counters {
    fn new(max_batch: usize) -> Self {
        Self {
            batch_sizes: (0..=max_batch).map(|_| AtomicU64::new(0)).collect(),
            batch_overflows: AtomicU64::new(0),
            service_est_ns: AtomicU64::new(0),
            panic_message: Mutex::new(None),
        }
    }

    fn record_batch_size(&self, size: usize) {
        debug_assert!(
            size < self.batch_sizes.len(),
            "batch of {size} exceeds max_batch {}",
            self.batch_sizes.len() - 1
        );
        self.batch_sizes
            .get(size)
            .unwrap_or(&self.batch_overflows)
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one per-request execute-time sample into the EWMA admission
    /// estimate (α = 1/8; seeded directly by the first sample).
    fn record_service_sample(&self, per_request_ns: u64) {
        let sample = per_request_ns.max(1);
        let old = self.service_est_ns.load(Ordering::Relaxed);
        let next = if old == 0 {
            sample
        } else {
            old - old / 8 + sample / 8
        };
        self.service_est_ns.store(next, Ordering::Relaxed);
    }

    /// Records a forward (or batch) lost to a panic in `worker`'s cell and
    /// keeps the first message.
    fn record_panic(
        &self,
        worker: usize,
        metrics: &EngineMetrics,
        payload: &(dyn std::any::Any + Send),
    ) {
        let mut first = self.panic_message.lock().expect("panic log poisoned");
        first.get_or_insert_with(|| panic_message(payload));
        metrics.worker_panics.inc(worker);
    }
}

/// Aggregate of one request-lifecycle phase across every request served:
/// observation count, total nanoseconds, and the worst single observation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Observations recorded (one per request for every phase).
    pub count: u64,
    /// Sum of all observations, nanoseconds.
    pub total_ns: u64,
    /// Largest single observation, nanoseconds.
    pub max_ns: u64,
}

impl PhaseStat {
    /// Mean nanoseconds per observation (0.0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Per-phase latency breakdown of the request lifecycle, stamped by the
/// workers at the phase boundaries:
///
/// ```text
/// enqueue ──queue_wait──▶ drain ──batch_form──▶ start ──execute──▶ done
/// ```
///
/// The three phases partition a request's time in the engine, and they are
/// the stamps its [`ServeResponse`] carries: `queue_ns - batch_form_ns`,
/// `batch_form_ns` and `service_ns` — each phase's `total_ns` is exactly
/// the sum of that expression over the responses sent. Every phase counts
/// once per request (batch-shared phases record the batch's value for each
/// rider), so the three counts equal `served` and each phase's
/// `total_ns / count` is directly a per-request mean.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Enqueue → worker drain (time spent waiting in the bounded queue).
    pub queue_wait: PhaseStat,
    /// Drain → execute start (grouping by model, assembling the
    /// batch-major inputs).
    pub batch_form: PhaseStat,
    /// The batched forward itself.
    pub execute: PhaseStat,
}

/// Aggregate engine counters returned by [`Engine::shutdown`].
///
/// Besides the request/batch totals, the full per-batch size distribution
/// is retained so batch formation under load is observable: a mean near 1
/// with a heavy tail says workers mostly idle-poll, a mass at
/// [`EngineConfig::max_batch`] says the queue is saturated and batches are
/// clipped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests served across all workers.
    pub served: u64,
    /// Batched forwards executed across all workers (one per model group).
    pub batches: u64,
    /// `batch_size_counts[s]` = number of batched forwards that served
    /// exactly `s` requests. Index 0 is unused.
    pub batch_size_counts: Vec<u64>,
    /// Batches larger than `max_batch` (a grouping bug; always 0 in a
    /// healthy engine — kept out of [`EngineStats::batch_size_counts`] so
    /// the distribution cannot hide it).
    pub batch_overflows: u64,
    /// Batches drained from another worker's shard (work stealing).
    pub steals: u64,
    /// Requests shed at drain time because their deadline had expired
    /// (their [`Pending::wait`] returned [`ServeError::DeadlineExceeded`]).
    pub shed_deadline: u64,
    /// Submissions rejected up front by deadline admission control.
    pub deadline_rejected: u64,
    /// Submissions rejected at a model's concurrency ceiling.
    pub quota_rejected: u64,
    /// Forwards lost to a panic inside a worker (the name predates workers
    /// surviving one). The riders of a batch whose forward panicked are
    /// re-run one by one, so a poison costs one request: only a rider whose
    /// own forward panics too sees [`ServeError::WorkerLost`] — a batch of
    /// `n > 1` with one poison counts 2. See [`EngineStats::panic_message`]
    /// for the first cause.
    pub panicked_workers: u64,
    /// The first worker panic message observed, when any worker panicked.
    pub panic_message: Option<String>,
    /// Per-phase latency breakdown (queue wait vs batch formation vs
    /// execution).
    pub phases: PhaseBreakdown,
}

impl EngineStats {
    /// Mean dynamic batch size (0.0 when nothing was served).
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served as f64 / self.batches as f64
        }
    }

    /// Largest batch actually executed (0 when nothing was served).
    #[must_use]
    pub fn max_batch(&self) -> usize {
        self.batch_size_counts
            .iter()
            .rposition(|&count| count > 0)
            .unwrap_or(0)
    }

    /// Batch-size quantile over executed batches: the smallest size `s`
    /// such that at least `q` of all batches had size `≤ s`. Returns 0 when
    /// nothing was served.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn batch_percentile(&self, q: f64) -> usize {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.batches == 0 {
            return 0;
        }
        let rank = ((q * self.batches as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (size, &count) in self.batch_size_counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return size;
            }
        }
        self.max_batch()
    }
}

/// The serving engine: registry + queue + worker pool.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ucnn_core::compile::UcnnConfig;
/// use ucnn_model::{forward, networks, ActivationGen, QuantScheme};
/// use ucnn_serve::{Engine, EngineConfig, ModelRegistry};
///
/// let registry = Arc::new(ModelRegistry::new());
/// let net = networks::tiny();
/// let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 1, 0.9);
/// registry.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
///
/// let engine = Engine::start(Arc::clone(&registry), EngineConfig { workers: 2, ..EngineConfig::default() });
/// let input = ActivationGen::new(2).generate_for(&net.conv_layers()[0]);
/// let response = engine.submit("tiny", input.clone()).unwrap().wait().unwrap();
/// assert_eq!(response.output, forward::dense_forward(&net, &weights, &input));
/// let stats = engine.shutdown();
/// assert_eq!(stats.served, 1);
/// ```
pub struct Engine {
    registry: Arc<ModelRegistry>,
    queue: Arc<ShardedQueue<Request>>,
    counters: Arc<Counters>,
    workers: Vec<JoinHandle<()>>,
    config: EngineConfig,
    metrics: Arc<MetricsRegistry>,
    handles: EngineMetrics,
}

/// The engine's resolved handles into its [`MetricsRegistry`] — looked up
/// once at start so the worker hot path records through `Arc`s without
/// touching the registry's name maps. The counters are the engine's only
/// tally of these events; worker `w` adds into padded cell `w`, the submit
/// path into cell 0.
#[derive(Clone)]
struct EngineMetrics {
    requests: Arc<Counter>,
    batches: Arc<Counter>,
    steals: Arc<Counter>,
    deadline_shed: Arc<Counter>,
    deadline_rejected: Arc<Counter>,
    quota_rejected: Arc<Counter>,
    worker_panics: Arc<Counter>,
    queue_wait: Arc<Histogram>,
    batch_form: Arc<Histogram>,
    execute: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
}

impl EngineMetrics {
    fn resolve(metrics: &MetricsRegistry) -> Self {
        Self {
            requests: metrics.counter("engine_requests_total"),
            batches: metrics.counter("engine_batches_total"),
            steals: metrics.counter("engine_steals_total"),
            deadline_shed: metrics.counter("engine_deadline_shed_total"),
            deadline_rejected: metrics.counter("engine_deadline_rejected_total"),
            quota_rejected: metrics.counter("engine_quota_rejected_total"),
            worker_panics: metrics.counter("engine_worker_panics_total"),
            queue_wait: metrics.histogram("engine_queue_wait_ns"),
            batch_form: metrics.histogram("engine_batch_form_ns"),
            execute: metrics.histogram("engine_execute_ns"),
            queue_depth: metrics.gauge("engine_queue_depth"),
            in_flight: metrics.gauge("engine_in_flight"),
        }
    }

    fn phases(&self) -> PhaseBreakdown {
        fn stat(h: &Histogram) -> PhaseStat {
            PhaseStat {
                count: h.count(),
                total_ns: h.sum_ns(),
                max_ns: h.max_ns(),
            }
        }
        PhaseBreakdown {
            queue_wait: stat(&self.queue_wait),
            batch_form: stat(&self.batch_form),
            execute: stat(&self.execute),
        }
    }
}

impl Engine {
    /// Spawns the worker pool and starts serving.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0` (queue/batch sizing is validated by
    /// the queue itself).
    #[must_use]
    pub fn start(registry: Arc<ModelRegistry>, config: EngineConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.exec_threads > 0, "need at least one exec thread");
        assert!(config.max_batch > 0, "need a positive max batch");
        // Adopt the registry: registering the serving backend lets the
        // registry warm models inserted *after* start for the backend that
        // will actually serve them, and warms every already-resident plan
        // here, before the first request.
        registry.set_default_backend(config.backend);
        // `queue_shards: 0` = one shard per worker (the sharded default);
        // an explicit count caps it (never above the worker count — extra
        // shards would have no owner and live off steals alone).
        let shards = match config.queue_shards {
            0 => config.workers,
            n => n.min(config.workers),
        };
        let queue = Arc::new(ShardedQueue::new(shards, config.queue_capacity));
        let counters = Arc::new(Counters::new(config.max_batch));
        let metrics = Arc::new(MetricsRegistry::new(config.workers));
        let handles = EngineMetrics::resolve(&metrics);
        let workers = (0..config.workers)
            .map(|worker| {
                let queue = Arc::clone(&queue);
                let counters = Arc::clone(&counters);
                let handles = handles.clone();
                // With fewer shards than workers, workers share shards
                // round-robin (`queue_shards: 1` = one central queue).
                let shard = worker % shards;
                std::thread::Builder::new()
                    .name(format!("ucnn-serve-{worker}"))
                    .spawn(move || {
                        worker_loop(worker, shard, &queue, &counters, &handles, &config);
                    })
                    .expect("failed to spawn worker")
            })
            .collect();
        Self {
            registry,
            queue,
            counters,
            workers,
            config,
            metrics,
            handles,
        }
    }

    /// The metrics registry this engine records into. Callers may register
    /// their own metrics alongside the engine's and export everything as
    /// one snapshot ([`MetricsRegistry::render_prometheus`] /
    /// [`MetricsRegistry::snapshot_json`]).
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The registry this engine serves from.
    #[must_use]
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The executor backend every request runs through
    /// ([`EngineConfig::backend`]).
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.config.backend
    }

    /// Admits a request by model name — plan and an acquired quota slot —
    /// cheapest and stateless checks first. A tensor
    /// of the wrong shape is turned away before anything is counted or
    /// taken: enqueued, it would panic the forward of the worker that
    /// drained it and cost every co-batched rider a re-run. `admission` is the
    /// deadline the non-blocking path applies [`Engine::admit_deadline`] to.
    fn admit_named(
        &self,
        model: &str,
        input: &Tensor3<i16>,
        admission: Option<Instant>,
    ) -> Result<(Arc<CompiledNetwork>, Option<QuotaToken>), ServeError> {
        let resolved = self
            .registry
            .resolve(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        let (expected, got) = (
            resolved.plan.input_dims(),
            (input.c(), input.w(), input.h()),
        );
        if got != expected {
            return Err(ServeError::BadInput { expected, got });
        }
        if let Some(deadline) = admission {
            self.admit_deadline(deadline, Instant::now())?;
        }
        let Some(token) = resolved.quota.try_acquire() else {
            self.handles.quota_rejected.inc(0);
            return Err(ServeError::QuotaExceeded);
        };
        Ok((resolved.plan, Some(token)))
    }

    /// Deadline admission control for the open-loop submit path: predicts
    /// this request's completion from the current queue depth and the EWMA
    /// per-request service time, and rejects when the deadline cannot be
    /// met. With no estimate yet (a cold engine) a request is admitted
    /// only when nothing is queued ahead of it — it then starts
    /// immediately and the only unknown is its own service time.
    fn admit_deadline(&self, deadline: Instant, now: Instant) -> Result<(), ServeError> {
        let est = self.counters.service_est_ns.load(Ordering::Relaxed);
        let admitted = if est == 0 {
            // A zero EWMA would predict zero queue delay and admit
            // unmeetable deadlines behind an arbitrary backlog. Until the
            // first batch seeds the estimate, only an empty queue is a
            // safe bet.
            self.queue.is_empty() && now < deadline
        } else {
            let depth = self.queue.len() as u64;
            // Queued work drains across the pool; the request then pays
            // its own service time.
            let predicted_ns = (depth + 1) * est / self.config.workers as u64 + est;
            now + Duration::from_nanos(predicted_ns) <= deadline
        };
        if admitted {
            Ok(())
        } else {
            self.handles.deadline_rejected.inc(0);
            Err(ServeError::DeadlineExceeded)
        }
    }

    /// Submits a request by model name, blocking while the queue is full
    /// (closed-loop backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`], [`ServeError::BadInput`],
    /// [`ServeError::QuotaExceeded`], or [`ServeError::ShuttingDown`].
    pub fn submit(&self, model: &str, input: Tensor3<i16>) -> Result<Pending, ServeError> {
        let (plan, quota) = self.admit_named(model, &input, None)?;
        self.push_request(plan, input, None, quota)
    }

    /// Like [`Engine::submit`], but tags the request with an absolute
    /// deadline. The blocking path applies backpressure instead of
    /// admission control, so the request always enqueues (quota permitting)
    /// — but a worker that drains it past the deadline sheds it, and
    /// [`Pending::wait`] then returns [`ServeError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`], [`ServeError::BadInput`],
    /// [`ServeError::QuotaExceeded`], or [`ServeError::ShuttingDown`].
    pub fn submit_with_deadline(
        &self,
        model: &str,
        input: Tensor3<i16>,
        deadline: Instant,
    ) -> Result<Pending, ServeError> {
        let (plan, quota) = self.admit_named(model, &input, None)?;
        self.push_request(plan, input, Some(deadline), quota)
    }

    /// Submits a request for an already resolved plan (no quota or shape
    /// check), blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] after [`Engine::shutdown`].
    pub fn submit_plan(
        &self,
        model: Arc<CompiledNetwork>,
        input: Tensor3<i16>,
    ) -> Result<Pending, ServeError> {
        self.push_request(model, input, None, None)
    }

    /// Builds the queued request and the handle the caller waits on — the
    /// one place `Request` is constructed, shared by the blocking and
    /// non-blocking submit paths.
    fn make_request(
        model: Arc<CompiledNetwork>,
        input: Tensor3<i16>,
        deadline: Option<Instant>,
        quota: Option<QuotaToken>,
    ) -> (Request, Pending) {
        let (tx, rx) = mpsc::channel();
        let request = Request {
            model,
            input,
            enqueued_at: Instant::now(),
            deadline,
            quota,
            tx,
        };
        (request, Pending { rx })
    }

    fn push_request(
        &self,
        model: Arc<CompiledNetwork>,
        input: Tensor3<i16>,
        deadline: Option<Instant>,
        quota: Option<QuotaToken>,
    ) -> Result<Pending, ServeError> {
        let (request, pending) = Self::make_request(model, input, deadline, quota);
        self.queue
            .push(request)
            .map_err(|_| ServeError::ShuttingDown)?;
        Ok(pending)
    }

    /// Non-blocking submit for open-loop load: a full queue is an
    /// [`ServeError::Overloaded`] drop, not a stall.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`], [`ServeError::BadInput`],
    /// [`ServeError::QuotaExceeded`], [`ServeError::Overloaded`], or
    /// [`ServeError::ShuttingDown`].
    pub fn try_submit(&self, model: &str, input: Tensor3<i16>) -> Result<Pending, ServeError> {
        self.try_submit_inner(model, input, None)
    }

    /// Non-blocking submit with deadline admission control: on top of the
    /// [`Engine::try_submit`] semantics, the request is rejected with
    /// [`ServeError::DeadlineExceeded`] when the predicted completion at
    /// the current queue depth already misses `deadline` — overload sheds
    /// work at the door instead of queueing requests that will expire.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`], [`ServeError::BadInput`],
    /// [`ServeError::QuotaExceeded`], [`ServeError::DeadlineExceeded`],
    /// [`ServeError::Overloaded`], or [`ServeError::ShuttingDown`].
    pub fn try_submit_with_deadline(
        &self,
        model: &str,
        input: Tensor3<i16>,
        deadline: Instant,
    ) -> Result<Pending, ServeError> {
        self.try_submit_inner(model, input, Some(deadline))
    }

    fn try_submit_inner(
        &self,
        model: &str,
        input: Tensor3<i16>,
        deadline: Option<Instant>,
    ) -> Result<Pending, ServeError> {
        let (plan, quota) = self.admit_named(model, &input, deadline)?;
        let (request, pending) = Self::make_request(plan, input, deadline, quota);
        self.queue.try_push(request).map_err(|e| match e {
            TryPushError::Full => ServeError::Overloaded,
            TryPushError::Closed => ServeError::ShuttingDown,
        })?;
        Ok(pending)
    }

    /// Current queue depth (diagnostics).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Snapshot of the aggregate counters while the engine is live;
    /// [`Engine::shutdown`] returns the final totals. Event totals are read
    /// out of the metrics registry, so a live snapshot is a sum over
    /// per-worker cells taken without stopping them: each total is
    /// monotone, but totals bumped at different points of a batch may be
    /// one batch apart.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let m = &self.handles;
        EngineStats {
            served: m.requests.get(),
            batches: m.batches.get(),
            batch_size_counts: self
                .counters
                .batch_sizes
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            batch_overflows: self.counters.batch_overflows.load(Ordering::Relaxed),
            steals: m.steals.get(),
            shed_deadline: m.deadline_shed.get(),
            deadline_rejected: m.deadline_rejected.get(),
            quota_rejected: m.quota_rejected.get(),
            panicked_workers: m.worker_panics.get(),
            panic_message: self
                .counters
                .panic_message
                .lock()
                .expect("panic log poisoned")
                .clone(),
            phases: m.phases(),
        }
    }

    /// Stops accepting new requests without joining the workers.
    ///
    /// Queued requests still drain and their responses still arrive;
    /// subsequent submits fail with [`ServeError::ShuttingDown`]. Needs only
    /// `&self`, so a load generator mid-run can trigger shutdown from
    /// another thread — the backpressure-shutdown path the regression suite
    /// exercises. Call [`Engine::shutdown`] afterwards to join the workers
    /// and collect final stats.
    pub fn begin_shutdown(&self) {
        self.queue.close();
    }

    /// Stops accepting requests, drains the queue, joins all workers, and
    /// returns the aggregate counters.
    ///
    /// Worker panics are **surfaced, not swallowed**: each one shows up in
    /// [`EngineStats::panicked_workers`] with the first message in
    /// [`EngineStats::panic_message`]. (Workers catch a batch's panic,
    /// record it and carry on; the join check is a backstop for a panic
    /// outside the guarded region.)
    #[must_use]
    pub fn shutdown(mut self) -> EngineStats {
        self.queue.close();
        for handle in self.workers.drain(..) {
            if let Err(payload) = handle.join() {
                self.counters
                    .record_panic(0, &self.handles, payload.as_ref());
            }
        }
        self.stats()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // If shutdown() was skipped, still unblock the workers; detached
        // threads then exit on their own once the queue drains.
        self.queue.close();
    }
}

/// Balances the in-flight gauge on every exit path out of a batch —
/// including a panic's unwind — so a lost batch never leaves the gauge
/// permanently inflated.
struct InFlightGuard<'a> {
    gauge: &'a Gauge,
    n: i64,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.gauge.add(-self.n);
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

/// One worker thread: `worker` is its index in the pool (its metrics cell
/// and the id stamped on responses), `shard` the queue shard it owns —
/// shared with other workers when there are fewer shards than workers.
fn worker_loop(
    worker: usize,
    shard: usize,
    queue: &ShardedQueue<Request>,
    counters: &Counters,
    metrics: &EngineMetrics,
    config: &EngineConfig,
) {
    while let Some(ShardedBatch { items, stolen }) = queue.pop_batch(shard, config.max_batch) {
        if stolen {
            metrics.steals.inc(worker);
        }
        // A forward that panics is caught where it runs (`serve_batch`);
        // anything else that panics costs the batch, not the worker: a
        // worker that exited here would leave its shard to the others, and
        // `workers` such batches would leave the queue to nobody.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_batch(worker, items, queue, counters, metrics, config);
        }));
        if let Err(payload) = outcome {
            counters.record_panic(worker, metrics, payload.as_ref());
        }
    }
}

fn serve_batch(
    worker: usize,
    batch: Vec<Request>,
    queue: &ShardedQueue<Request>,
    counters: &Counters,
    metrics: &EngineMetrics,
    config: &EngineConfig,
) {
    // Lifecycle stamp: the drain ends every rider's queue-wait phase.
    // Depth and in-flight gauges are sampled on every drain so load is
    // observable while a run is in progress.
    let drained_at = Instant::now();
    let drained = batch.len();
    metrics.queue_depth.set(queue.len() as i64);
    metrics.in_flight.add(drained as i64);
    let _in_flight = InFlightGuard {
        gauge: &metrics.in_flight,
        n: drained as i64,
    };
    // Shed-on-expiry: requests whose deadline passed while they queued are
    // answered with the shed verdict instead of burning a forward pass on
    // output nobody can use. Shed requests are not "served" — the phase
    // histograms and batch distribution only see executed work.
    let (live, expired): (Vec<_>, Vec<_>) = batch
        .into_iter()
        .partition(|req| req.deadline.map_or(true, |d| drained_at < d));
    if !expired.is_empty() {
        metrics.deadline_shed.add(worker, expired.len() as u64);
        for req in expired {
            // A dropped receiver (client gave up) is not an error; the
            // quota token releases with the request either way.
            let _ = req.tx.send(Err(ServeError::DeadlineExceeded));
        }
    }
    // Group the live requests by model — FIFO order preserved within a
    // group — so each group runs as ONE batch-major forward.
    let mut groups: Vec<(Arc<CompiledNetwork>, Vec<Request>)> = Vec::new();
    for req in live {
        match groups
            .iter_mut()
            .find(|(model, _)| Arc::ptr_eq(model, &req.model))
        {
            Some((_, requests)) => requests.push(req),
            None => groups.push((Arc::clone(&req.model), vec![req])),
        }
    }
    for (model, requests) in groups {
        let (inputs, receipts): (Vec<_>, Vec<_>) = requests
            .into_iter()
            .map(|req| (req.input, (req.tx, req.enqueued_at, req.quota)))
            .unzip();
        let forward = |inputs: &[Tensor3<i16>]| {
            let start = Instant::now();
            let run = || model.forward_batch_with(inputs, config.backend, config.exec_threads);
            (start, catch_unwind(AssertUnwindSafe(run)))
        };
        let answer = |start, receipts: Vec<Receipt>, outputs| {
            respond(
                worker,
                (drained_at, start),
                receipts,
                outputs,
                counters,
                metrics,
            );
        };
        match forward(&inputs) {
            (start, Ok(outputs)) => answer(start, receipts, outputs),
            (_, Err(payload)) => {
                // A poison costs one request, not its riders: each re-runs
                // alone, and only a forward that panics again is lost (its
                // rider sees `WorkerLost`: the sender drops with it).
                counters.record_panic(worker, metrics, payload.as_ref());
                if inputs.len() == 1 {
                    continue;
                }
                for (input, receipt) in inputs.iter().zip(receipts) {
                    match forward(std::slice::from_ref(input)) {
                        (start, Ok(outputs)) => answer(start, vec![receipt], outputs),
                        (_, Err(payload)) => {
                            counters.record_panic(worker, metrics, payload.as_ref())
                        }
                    }
                }
            }
        }
    }
}

/// What a rider needs to be answered: its response channel, when it was
/// enqueued, and its quota slot.
type Receipt = (
    mpsc::Sender<Result<ServeResponse, ServeError>>,
    Instant,
    Option<QuotaToken>,
);

/// Answers the riders of one forward that started at `start` — after the
/// drain at `drained_at` — with their outputs, and records the batch.
fn respond(
    worker: usize,
    (drained_at, start): (Instant, Instant),
    receipts: Vec<Receipt>,
    outputs: Vec<Tensor3<i32>>,
    counters: &Counters,
    metrics: &EngineMetrics,
) {
    let batch_size = receipts.len();
    let batch_form_ns = ns(start.duration_since(drained_at));
    let completed_at = Instant::now();
    let service_ns = ns(completed_at.duration_since(start));
    // Counters and phase records land only after the forward returned:
    // a batch that panics mid-execution is counted by the panic path,
    // not silently folded into `served` (which must keep meaning
    // "responses actually produced").
    counters.record_batch_size(batch_size);
    metrics.batches.inc(worker);
    metrics.requests.add(worker, batch_size as u64);
    // Feed admission control's EWMA with this batch's amortized
    // per-request cost.
    counters.record_service_sample(service_ns / batch_size as u64);
    for ((tx, enqueued_at, quota), output) in receipts.into_iter().zip(outputs) {
        // The three phases are recorded from the very values the
        // response carries (batch-shared ones once per rider), so the
        // histograms' totals are the sums over the responses sent.
        let queue_ns = ns(start.duration_since(enqueued_at));
        metrics.queue_wait.record(queue_ns - batch_form_ns);
        metrics.batch_form.record(batch_form_ns);
        metrics.execute.record(service_ns);
        // Free the admission slot *before* handing off the response:
        // once a caller's wait() returns, its quota slot is already
        // released.
        drop(quota);
        // A dropped receiver (client gave up) is not an error.
        let _ = tx.send(Ok(ServeResponse {
            output,
            queue_ns,
            batch_form_ns,
            service_ns,
            batch_size,
            worker,
            completed_at,
        }));
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucnn_core::compile::UcnnConfig;
    use ucnn_model::{forward, networks, ActivationGen, QuantScheme};

    type Cases = Vec<(Tensor3<i16>, Tensor3<i32>)>;

    fn tiny_engine(workers: usize) -> (Engine, Cases) {
        let registry = Arc::new(ModelRegistry::new());
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 11, 0.9);
        registry.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
        let mut agen = ActivationGen::new(12);
        let cases: Vec<_> = (0..4)
            .map(|_| {
                let input = agen.generate_for(&net.conv_layers()[0]);
                let expected = forward::dense_forward(&net, &weights, &input);
                (input, expected)
            })
            .collect();
        let engine = Engine::start(
            registry,
            EngineConfig {
                workers,
                queue_capacity: 32,
                max_batch: 4,
                exec_threads: 1,
                ..EngineConfig::default()
            },
        );
        (engine, cases)
    }

    #[test]
    fn serves_correct_outputs_across_workers() {
        let (engine, cases) = tiny_engine(2);
        let pendings: Vec<_> = (0..12)
            .map(|i| {
                let (input, _) = &cases[i % cases.len()];
                engine.submit("tiny", input.clone()).unwrap()
            })
            .collect();
        for (i, pending) in pendings.into_iter().enumerate() {
            let resp = pending.wait().unwrap();
            assert_eq!(resp.output, cases[i % cases.len()].1, "request {i}");
            assert!(resp.batch_size >= 1);
        }
        let stats = engine.shutdown();
        assert_eq!(stats.served, 12);
        assert!(stats.batches >= 1 && stats.batches <= 12);
    }

    #[test]
    fn batch_size_distribution_is_surfaced() {
        let (engine, cases) = tiny_engine(1);
        let pendings: Vec<_> = (0..10)
            .map(|i| {
                let (input, _) = &cases[i % cases.len()];
                engine.submit("tiny", input.clone()).unwrap()
            })
            .collect();
        let mut seen_sizes = Vec::new();
        for pending in pendings {
            let resp = pending.wait().unwrap();
            assert!(resp.batch_size >= 1 && resp.batch_size <= 4);
            seen_sizes.push(resp.batch_size);
        }
        let stats = engine.shutdown();
        assert_eq!(stats.served, 10);
        // The distribution must account for every request exactly once.
        let weighted: u64 = stats
            .batch_size_counts
            .iter()
            .enumerate()
            .map(|(size, &count)| size as u64 * count)
            .sum();
        assert_eq!(weighted, stats.served, "{:?}", stats.batch_size_counts);
        let total: u64 = stats.batch_size_counts.iter().sum();
        assert_eq!(total, stats.batches);
        assert_eq!(stats.batch_size_counts[0], 0, "no empty batches");
        assert!(stats.max_batch() >= 1 && stats.max_batch() <= 4);
        assert!(stats.batch_percentile(0.5) <= stats.batch_percentile(1.0));
        assert_eq!(stats.batch_percentile(1.0), stats.max_batch());
        assert!((stats.mean_batch() - weighted as f64 / total as f64).abs() < 1e-9);
    }

    #[test]
    fn phase_breakdown_accounts_every_request() {
        let (engine, cases) = tiny_engine(2);
        let pendings: Vec<_> = (0..10)
            .map(|i| {
                let (input, _) = &cases[i % cases.len()];
                engine.submit("tiny", input.clone()).unwrap()
            })
            .collect();
        // The phases are recorded from the stamps the responses carry, so
        // summing those stamps must reproduce each phase total exactly.
        let (mut queue_wait_ns, mut batch_form_ns, mut service_ns) = (0u64, 0u64, 0u64);
        for pending in pendings {
            let resp = pending.wait().unwrap();
            // batch_form is a slice of the enqueue → execute-start span.
            assert!(resp.batch_form_ns <= resp.queue_ns);
            queue_wait_ns += resp.queue_ns - resp.batch_form_ns;
            batch_form_ns += resp.batch_form_ns;
            service_ns += resp.service_ns;
        }
        let metrics = Arc::clone(engine.metrics());
        let stats = engine.shutdown();
        let phases = stats.phases;
        for (name, stat, total_ns) in [
            ("queue_wait", phases.queue_wait, queue_wait_ns),
            ("batch_form", phases.batch_form, batch_form_ns),
            ("execute", phases.execute, service_ns),
        ] {
            assert_eq!(stat.count, stats.served, "{name} must count per request");
            assert_eq!(
                stat.total_ns, total_ns,
                "{name} total != sum over responses"
            );
            assert!(stat.max_ns as f64 >= stat.mean_ns(), "{name} max < mean");
        }
        assert!(phases.execute.total_ns > 0, "forwards take nonzero time");
        // The registry exposes the same lifecycle series by name, and the
        // in-flight gauge is balanced once the workers are drained.
        assert_eq!(metrics.counter("engine_batches_total").get(), stats.batches);
        assert_eq!(metrics.gauge("engine_in_flight").get(), 0);
        let text = metrics.render_prometheus();
        assert!(text.contains("# TYPE engine_execute_ns summary"));
        assert!(text.contains("engine_queue_wait_ns_count 10"));
    }

    #[test]
    fn responses_name_the_worker_not_the_queue_shard() {
        // One central queue under two workers: both share shard 0, and each
        // must still stamp its own index. `max_batch: 1` with two clients
        // that each keep one request outstanding leaves a request queued
        // whenever one worker is busy, so both workers serve.
        let (engine, cases) = tiny_engine(1);
        let registry = Arc::clone(engine.registry());
        let _ = engine.shutdown();
        let workers = 2;
        let engine = Engine::start(
            registry,
            EngineConfig {
                workers,
                queue_shards: 1,
                max_batch: 1,
                ..EngineConfig::default()
            },
        );
        let mut seen = vec![0u32; workers];
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        (0..200)
                            .map(|_| {
                                let pending = engine.submit("tiny", cases[0].0.clone()).unwrap();
                                pending.wait().unwrap().worker
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for client in clients {
                for worker in client.join().unwrap() {
                    assert!(worker < workers, "worker id {worker} out of range");
                    seen[worker] += 1;
                }
            }
        });
        assert!(
            seen.iter().all(|&n| n > 0),
            "every worker must appear under its own id: {seen:?}"
        );
        let _ = engine.shutdown();
    }

    #[test]
    fn exec_threads_keep_responses_bit_exact() {
        // Same requests through a 2-exec-thread engine: outputs must stay
        // bit-identical to the dense reference the cases were built from.
        let registry = Arc::new(ModelRegistry::new());
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 13, 0.9);
        registry.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
        let mut agen = ActivationGen::new(14);
        let cases: Vec<_> = (0..3)
            .map(|_| {
                let input = agen.generate_for(&net.conv_layers()[0]);
                let expected = forward::dense_forward(&net, &weights, &input);
                (input, expected)
            })
            .collect();
        let engine = Engine::start(
            registry,
            EngineConfig {
                workers: 2,
                queue_capacity: 32,
                max_batch: 8,
                exec_threads: 2,
                ..EngineConfig::default()
            },
        );
        let pendings: Vec<_> = (0..9)
            .map(|i| {
                let (input, _) = &cases[i % cases.len()];
                engine.submit("tiny", input.clone()).unwrap()
            })
            .collect();
        for (i, pending) in pendings.into_iter().enumerate() {
            let resp = pending.wait().unwrap();
            assert_eq!(resp.output, cases[i % cases.len()].1, "request {i}");
        }
        let _ = engine.shutdown();
    }

    #[test]
    fn every_backend_serves_bit_exact_responses() {
        // The engine backend knob changes only performance: responses must
        // match the dense reference under every registered backend.
        let registry = Arc::new(ModelRegistry::new());
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 41, 0.9);
        registry.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
        let mut agen = ActivationGen::new(42);
        let cases: Vec<_> = (0..3)
            .map(|_| {
                let input = agen.generate_for(&net.conv_layers()[0]);
                let expected = forward::dense_forward(&net, &weights, &input);
                (input, expected)
            })
            .collect();
        for backend in BackendKind::ALL {
            let engine = Engine::start(
                Arc::clone(&registry),
                EngineConfig {
                    workers: 2,
                    queue_capacity: 16,
                    max_batch: 4,
                    exec_threads: 1,
                    backend,
                    ..EngineConfig::default()
                },
            );
            assert_eq!(engine.backend(), backend);
            let pendings: Vec<_> = (0..6)
                .map(|i| {
                    let (input, _) = &cases[i % cases.len()];
                    engine.submit("tiny", input.clone()).unwrap()
                })
                .collect();
            for (i, pending) in pendings.into_iter().enumerate() {
                let resp = pending.wait().unwrap();
                assert_eq!(
                    resp.output,
                    cases[i % cases.len()].1,
                    "backend {backend} request {i}"
                );
            }
            let _ = engine.shutdown();
        }
    }

    #[test]
    fn engine_start_warms_plans_for_its_default_backend() {
        use ucnn_core::plan::CompiledStage;

        // A plan inserted before any engine adopted the registry: insert
        // cannot warm it (the registry does not know what will serve it),
        // so Engine::start must.
        let registry = Arc::new(ModelRegistry::new());
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 47, 0.9);
        let plan = registry.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
        let flat_ready = |plan: &CompiledNetwork| {
            plan.stages().iter().all(|s| match s {
                CompiledStage::Conv { layer, .. } => layer.flat_ready(),
                CompiledStage::Pool { .. } => true,
            })
        };
        assert!(!flat_ready(&plan), "insert alone must not warm this plan");
        let engine = Engine::start(
            Arc::clone(&registry),
            EngineConfig {
                backend: BackendKind::FlattenedBatch,
                ..EngineConfig::default()
            },
        );
        assert!(flat_ready(&plan), "start must warm for the engine default");
        let _ = engine.shutdown();
    }

    #[test]
    fn mixed_model_batches_group_correctly() {
        // Two models interleaved in one queue: grouping by plan identity
        // must route every request through its own model's batched forward.
        let registry = Arc::new(ModelRegistry::new());
        let tiny = networks::tiny();
        let mut other = ucnn_model::NetworkSpec::new("tiny-b");
        for layer in tiny.layers() {
            other.push(layer.clone());
        }
        let w_a = forward::generate_network_weights(&tiny, QuantScheme::inq(), 21, 0.9);
        let w_b = forward::generate_network_weights(&other, QuantScheme::inq(), 22, 0.7);
        registry.compile_and_insert(&tiny, &w_a, &UcnnConfig::with_g(2));
        registry.compile_and_insert(&other, &w_b, &UcnnConfig::with_g(2));
        let mut agen = ActivationGen::new(23);
        let cases: Vec<_> = (0..6)
            .map(|i| {
                let input = agen.generate_for(&tiny.conv_layers()[0]);
                let (name, weights, spec) = if i % 2 == 0 {
                    ("tiny", &w_a, &tiny)
                } else {
                    ("tiny-b", &w_b, &other)
                };
                let expected = forward::dense_forward(spec, weights, &input);
                (name, input, expected)
            })
            .collect();
        let engine = Engine::start(
            registry,
            EngineConfig {
                workers: 1,
                queue_capacity: 32,
                max_batch: 8,
                exec_threads: 1,
                ..EngineConfig::default()
            },
        );
        let pendings: Vec<_> = cases
            .iter()
            .map(|(name, input, _)| engine.submit(name, input.clone()).unwrap())
            .collect();
        for (pending, (name, _, expected)) in pendings.into_iter().zip(&cases) {
            let resp = pending.wait().unwrap();
            assert_eq!(&resp.output, expected, "model {name} got wrong output");
        }
        let _ = engine.shutdown();
    }

    #[test]
    #[should_panic(expected = "need a positive max batch")]
    fn zero_max_batch_rejected() {
        // Without the guard this would pass start() and panic every worker
        // inside pop_batch, leaving clients blocked forever.
        let registry = Arc::new(ModelRegistry::new());
        let _ = Engine::start(
            registry,
            EngineConfig {
                max_batch: 0,
                ..EngineConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "need at least one exec thread")]
    fn zero_exec_threads_rejected() {
        let registry = Arc::new(ModelRegistry::new());
        let _ = Engine::start(
            registry,
            EngineConfig {
                exec_threads: 0,
                ..EngineConfig::default()
            },
        );
    }

    #[test]
    fn unknown_model_is_rejected() {
        let (engine, cases) = tiny_engine(1);
        let err = engine.submit("nope", cases[0].0.clone()).unwrap_err();
        assert_eq!(err, ServeError::UnknownModel("nope".into()));
        let _ = engine.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let (engine, cases) = tiny_engine(1);
        let registry = Arc::clone(engine.registry());
        let _ = engine.shutdown();
        // A fresh engine on a closed queue is unreachable from the public
        // API, so exercise the error through a new engine's closed state.
        let engine = Engine::start(registry, EngineConfig::default());
        engine.queue.close();
        assert_eq!(
            engine.submit("tiny", cases[0].0.clone()).unwrap_err(),
            ServeError::ShuttingDown
        );
        let _ = engine.shutdown();
    }

    #[test]
    fn expired_deadline_is_rejected_at_the_door() {
        // Cold engine (no service estimate yet): admission control still
        // rejects a deadline that has already passed, without enqueueing.
        let (engine, cases) = tiny_engine(1);
        let past = Instant::now() - Duration::from_millis(1);
        let err = engine
            .try_submit_with_deadline("tiny", cases[0].0.clone(), past)
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        let metrics = Arc::clone(engine.metrics());
        let stats = engine.shutdown();
        assert_eq!(stats.deadline_rejected, 1);
        assert_eq!(stats.shed_deadline, 0, "never enqueued, so never shed");
        assert_eq!(stats.served, 0);
        assert_eq!(metrics.counter("engine_deadline_rejected_total").get(), 1);
    }

    #[test]
    fn admission_rejects_unmeetable_deadlines_once_calibrated() {
        // Warm the EWMA with one served request, then ask for a deadline
        // far below any plausible service time: admission must reject it
        // even though the deadline itself is still in the future.
        let (engine, cases) = tiny_engine(1);
        let _ = engine
            .submit("tiny", cases[0].0.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert!(
            engine.counters.service_est_ns.load(Ordering::Relaxed) > 0,
            "first forward must seed the estimate"
        );
        let err = engine
            .try_submit_with_deadline("tiny", cases[0].0.clone(), Instant::now())
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        // A generous deadline passes the same gate.
        let pending = engine
            .try_submit_with_deadline(
                "tiny",
                cases[0].0.clone(),
                Instant::now() + Duration::from_secs(60),
            )
            .unwrap();
        let _ = pending.wait().unwrap();
        let stats = engine.shutdown();
        assert_eq!(stats.deadline_rejected, 1);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn cold_admission_rejects_deadlines_behind_a_backlog() {
        // With no service sample yet (EWMA = 0) admission used to predict
        // zero queue delay and admit any future deadline regardless of
        // backlog — the request was then shed at drain instead of
        // rejected at submit. Build an engine shell with
        // no workers, so the queue holds whatever we push and the EWMA
        // stays at its cold-start zero.
        let registry = Arc::new(ModelRegistry::new());
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 53, 0.9);
        registry.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
        let metrics = Arc::new(MetricsRegistry::new(1));
        let handles = EngineMetrics::resolve(&metrics);
        let engine = Engine {
            registry,
            queue: Arc::new(ShardedQueue::new(1, 8)),
            counters: Arc::new(Counters::new(4)),
            workers: Vec::new(),
            config: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            metrics,
            handles,
        };
        assert_eq!(engine.counters.service_est_ns.load(Ordering::Relaxed), 0);
        let mut agen = ActivationGen::new(54);
        let input = agen.generate_for(&net.conv_layers()[0]);
        let far = Instant::now() + Duration::from_secs(60);

        // Cold + empty queue: the request would start immediately, so a
        // future deadline is admitted.
        let _first = engine
            .try_submit_with_deadline("tiny", input.clone(), far)
            .expect("cold admission with an empty queue must admit");
        assert_eq!(engine.queue.len(), 1);

        // Cold + backlog: no basis for estimating the queue delay, so the
        // request must be rejected at the door (this admitted before the
        // fix).
        let err = engine
            .try_submit_with_deadline("tiny", input, far)
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert_eq!(
            engine.stats().deadline_rejected,
            1,
            "the rejection must be counted at the door"
        );
        assert_eq!(engine.queue.len(), 1, "the rejected request never enqueued");
    }

    #[test]
    fn workers_shed_requests_that_expired_in_queue() {
        // The blocking deadline path skips admission (backpressure instead),
        // so an already-expired request reaches a worker — which must shed
        // it at drain time instead of executing dead work.
        let (engine, cases) = tiny_engine(1);
        let past = Instant::now() - Duration::from_millis(1);
        let pending = engine
            .submit_with_deadline("tiny", cases[0].0.clone(), past)
            .unwrap();
        assert_eq!(pending.wait().unwrap_err(), ServeError::DeadlineExceeded);
        // A live deadline still serves normally.
        let ok = engine
            .submit_with_deadline(
                "tiny",
                cases[0].0.clone(),
                Instant::now() + Duration::from_secs(60),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(ok.output, cases[0].1);
        let metrics = Arc::clone(engine.metrics());
        let stats = engine.shutdown();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.served, 1, "shed requests are not served");
        assert_eq!(stats.phases.execute.count, 1, "no forward ran for the shed");
        assert_eq!(metrics.counter("engine_deadline_shed_total").get(), 1);
        assert_eq!(metrics.gauge("engine_in_flight").get(), 0);
    }

    #[test]
    fn quota_ceiling_rejects_submissions_and_releases_with_responses() {
        let (engine, cases) = tiny_engine(1);
        assert!(engine.registry().set_quota("tiny", Some(1)));
        // Hold the single slot from outside: submission must bounce
        // deterministically, with no queueing.
        let quota = engine.registry().quota("tiny").unwrap();
        let held = quota.try_acquire().expect("first slot");
        assert_eq!(
            engine.submit("tiny", cases[0].0.clone()).unwrap_err(),
            ServeError::QuotaExceeded
        );
        assert_eq!(
            engine.try_submit("tiny", cases[0].0.clone()).unwrap_err(),
            ServeError::QuotaExceeded
        );
        drop(held);
        // The slot is released: the next submit is admitted and its own
        // token releases once the response is delivered.
        let resp = engine
            .submit("tiny", cases[0].0.clone())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.output, cases[0].1);
        assert_eq!(quota.active(), 0, "response delivery must free the slot");
        let stats = engine.shutdown();
        assert_eq!(stats.quota_rejected, 2);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn worker_panic_is_surfaced_not_swallowed() {
        // A malformed input (wrong shape for the first conv layer) panics
        // the executor inside the worker. The engine must record that and
        // why; the caller sees WorkerLost, and the worker goes on serving:
        // one more poison than there are workers, each its own batch, would
        // leave an engine whose workers exit on a panic with nobody draining
        // the queue — a hang, which the watchdog turns into a message.
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let (engine, cases) = tiny_engine(2);
            let plan = engine.registry().get("tiny").unwrap();
            for _ in 0..3 {
                let poison = Tensor3::<i16>::zeros(1, 1, 1);
                let lost = engine.submit_plan(Arc::clone(&plan), poison).unwrap();
                assert_eq!(lost.wait().unwrap_err(), ServeError::WorkerLost);
            }
            for (input, expected) in cases.iter().cycle().take(80) {
                let resp = engine.submit("tiny", input.clone()).unwrap().wait();
                assert_eq!(&resp.unwrap().output, expected);
            }
            let metrics = Arc::clone(engine.metrics());
            let stats = engine.shutdown();
            assert_eq!(stats.panicked_workers, 3, "a count of lost forwards");
            let msg = stats
                .panic_message
                .expect("the panic cause must be propagated");
            assert!(msg.contains("input dims"), "the first cause, got: {msg}");
            assert_eq!(stats.served, 80);
            assert_eq!(metrics.counter("engine_worker_panics_total").get(), 3);
            assert_eq!(
                metrics.gauge("engine_in_flight").get(),
                0,
                "the unwind must balance the in-flight gauge"
            );
            // A poison costs one request, not its riders: on one worker,
            // held on the panic log by a first poison (whose panic is
            // recorded there), a second poison and three riders queue and
            // drain as one batch of `max_batch` = 4. Its forward panics, each
            // rider re-runs alone, and only the poison is lost.
            let (engine, cases) = tiny_engine(1);
            let plan = engine.registry().get("tiny").unwrap();
            let poison = || engine.submit_plan(Arc::clone(&plan), Tensor3::zeros(1, 1, 1));
            let held = engine.counters.panic_message.lock().unwrap();
            let stall = poison().unwrap();
            while engine.queue_depth() > 0 {
                std::thread::yield_now();
            }
            let lost = poison().unwrap();
            let riders: Vec<_> = cases[..3]
                .iter()
                .map(|(input, _)| engine.submit("tiny", input.clone()).unwrap())
                .collect();
            drop(held);
            for lost in [stall, lost] {
                assert_eq!(lost.wait().unwrap_err(), ServeError::WorkerLost);
            }
            for (rider, (_, expected)) in riders.into_iter().zip(&cases) {
                let resp = rider
                    .wait()
                    .expect("a rider of a poisoned batch is answered");
                assert_eq!((&resp.output, resp.batch_size), (expected, 1));
            }
            let stats = engine.shutdown();
            // The stall's forward, the batch's, and the poison's own re-run.
            assert_eq!((stats.panicked_workers, stats.served), (3, 3));
            done.send(()).unwrap();
        });
        match finished.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("no answer in 10 s: the panics left no worker draining the queue")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("an assertion above failed"),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds max_batch")]
    fn oversized_batch_trips_the_debug_assert() {
        // In release builds the same call lands in the dedicated overflow
        // cell (`EngineStats::batch_overflows`) instead of masquerading as
        // a legitimate max-size batch.
        let counters = Counters::new(4);
        counters.record_batch_size(9);
    }

    #[test]
    fn in_queue_batch_sizes_never_reach_the_overflow_cell() {
        let counters = Counters::new(4);
        for size in 1..=4 {
            counters.record_batch_size(size);
        }
        assert_eq!(counters.batch_overflows.load(Ordering::Relaxed), 0);
        let recorded: u64 = counters
            .batch_sizes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        assert_eq!(recorded, 4);
    }
}
