//! Model registry: compile once, serve many.
//!
//! Holds `Arc<CompiledNetwork>` plans by name. Registration pays the full
//! sort/factorize cost; every lookup afterwards is a read-locked map access
//! and an `Arc` clone — workers never copy plan data.
//!
//! Besides the plan, each entry carries live-operations state that
//! **survives hot-swaps**: the per-model concurrency [`ModelQuota`].
//! Re-inserting a model replaces the plan atomically but keeps the quota,
//! so a tenant's admission ceiling (including requests currently in flight
//! against it) is stable across deploys.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use ucnn_core::backend::BackendKind;
use ucnn_core::compile::UcnnConfig;
use ucnn_core::plan::CompiledNetwork;
use ucnn_model::NetworkSpec;
use ucnn_tensor::Tensor4;

/// A named collection of compiled networks shared by the serving engine.
///
/// # Examples
///
/// ```
/// use ucnn_core::compile::UcnnConfig;
/// use ucnn_model::{forward, networks, QuantScheme};
/// use ucnn_serve::ModelRegistry;
///
/// let registry = ModelRegistry::new();
/// let net = networks::tiny();
/// let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 1, 0.9);
/// registry.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
/// assert!(registry.get("tiny").is_some());
/// assert_eq!(registry.names(), vec!["tiny".to_string()]);
/// ```
#[derive(Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Entry>>,
    /// The backend the adopting engine serves every model through,
    /// registered by [`Engine::start`] (`None` until an engine adopts this
    /// registry). Inserts warm for this, so a model deployed *after* start
    /// still serves its first request with no lazy lowering in the execute
    /// phase.
    ///
    /// [`Engine::start`]: crate::engine::Engine::start
    default_backend: RwLock<Option<BackendKind>>,
}

/// One registered model: the shared plan and the shared concurrency quota.
struct Entry {
    plan: Arc<CompiledNetwork>,
    quota: Arc<ModelQuota>,
}

/// Per-model concurrency quota: an admission ceiling on requests in flight
/// (queued or executing) for one tenant's model.
///
/// The quota is shared — the same `Arc` survives model hot-swaps, so
/// in-flight [`QuotaToken`]s acquired against the old plan still count
/// against (and release back to) the ceiling the new plan is admitted
/// under. A limit of `None` (the default) admits everything while still
/// tracking the active count; `Some(0)` admits nothing.
#[derive(Debug)]
pub struct ModelQuota {
    /// The admission ceiling; `usize::MAX` = unlimited.
    limit: AtomicUsize,
    /// Requests currently holding a [`QuotaToken`].
    active: AtomicUsize,
}

impl Default for ModelQuota {
    fn default() -> Self {
        Self {
            limit: AtomicUsize::new(usize::MAX),
            active: AtomicUsize::new(0),
        }
    }
}

impl ModelQuota {
    /// Current admission ceiling (`None` = unlimited).
    #[must_use]
    pub fn limit(&self) -> Option<usize> {
        match self.limit.load(Ordering::Relaxed) {
            usize::MAX => None,
            n => Some(n),
        }
    }

    /// Requests currently in flight (queued or executing) under this quota.
    #[must_use]
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    fn set_limit(&self, limit: Option<usize>) {
        self.limit
            .store(limit.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// Admits one request: returns a token that releases the slot on drop,
    /// or `None` when the model is at its ceiling.
    #[must_use]
    pub fn try_acquire(self: &Arc<Self>) -> Option<QuotaToken> {
        let limit = self.limit.load(Ordering::Relaxed);
        let mut active = self.active.load(Ordering::Relaxed);
        loop {
            if active >= limit {
                return None;
            }
            match self.active.compare_exchange_weak(
                active,
                active + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(QuotaToken(Arc::clone(self))),
                Err(now) => active = now,
            }
        }
    }
}

/// RAII admission slot under a [`ModelQuota`]: the slot is released when
/// the token drops — on response delivery, on a deadline shed, and during
/// a worker panic's unwind alike, so a quota can never leak capacity.
#[derive(Debug)]
pub struct QuotaToken(Arc<ModelQuota>);

impl Drop for QuotaToken {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A model resolved for submission in one registry lock acquisition: the
/// plan and the shared quota handle.
pub struct ResolvedModel {
    /// The compiled plan to execute.
    pub plan: Arc<CompiledNetwork>,
    /// The model's concurrency quota.
    pub quota: Arc<ModelQuota>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an already compiled network under its own name, returning
    /// the shared handle.
    ///
    /// Re-inserting a name **atomically replaces** the plan: lookups after
    /// this call return the new plan, while requests already holding the
    /// old `Arc` keep serving the old one to completion (plans are
    /// immutable, so no request ever observes a half-swapped model). A
    /// [`ModelQuota`] set on the old entry survives the replacement (the
    /// same shared quota, so in-flight tokens keep counting).
    ///
    /// The plan is **warmed** for the backend that will serve it (the one
    /// registered via [`ModelRegistry::set_default_backend`]): any lazily
    /// derived execution state — the flattened backend's per-layer lowering
    /// — is built here, at deploy time, so the first request after an
    /// insert does not pay lowering latency in its tail, **including
    /// models deployed after the engine started**. Until an engine has
    /// adopted the registry nothing is warmed: the library's own
    /// `CompiledNetwork::DEFAULT_BACKEND` is not what an engine will run,
    /// and [`Engine::start`] warms every resident plan for the backend it
    /// does run. Warming runs outside the registry lock (plans synchronize
    /// their own `OnceLock`s), so concurrent lookups are never blocked
    /// behind it.
    ///
    /// [`Engine::start`]: crate::engine::Engine::start
    pub fn insert(&self, model: CompiledNetwork) -> Arc<CompiledNetwork> {
        let arc = Arc::new(model);
        {
            let mut models = self.models.write().expect("registry poisoned");
            let quota = models
                .get(arc.name())
                .map(|entry| Arc::clone(&entry.quota))
                .unwrap_or_default();
            models.insert(
                arc.name().to_string(),
                Entry {
                    plan: Arc::clone(&arc),
                    quota,
                },
            );
        }
        if let Some(kind) = self.default_backend() {
            arc.warm(kind);
        }
        arc
    }

    /// Registers the backend the adopting engine serves every model
    /// through, so inserts *after* [`Engine::start`] warm the backend that
    /// will actually serve them. Called by the engine itself at start;
    /// with several engines sharing one registry, the last started wins
    /// (warming for the wrong backend is only a missed optimization, never
    /// a correctness issue — every backend is bit-identical).
    ///
    /// Every **already-resident** plan is warmed here too, so plans
    /// inserted before an engine adopted the registry have their lazy
    /// lowering built before the first request. Warming runs outside the
    /// registry lock (plans synchronize their own `OnceLock`s), so
    /// concurrent lookups are never blocked behind it.
    ///
    /// [`Engine::start`]: crate::engine::Engine::start
    pub fn set_default_backend(&self, backend: BackendKind) {
        *self.default_backend.write().expect("registry poisoned") = Some(backend);
        let resident: Vec<Arc<CompiledNetwork>> = self
            .models
            .read()
            .expect("registry poisoned")
            .values()
            .map(|entry| Arc::clone(&entry.plan))
            .collect();
        for plan in resident {
            plan.warm(backend);
        }
    }

    /// The serving backend registered with this registry, if an engine has
    /// adopted it.
    #[must_use]
    pub fn default_backend(&self) -> Option<BackendKind> {
        *self.default_backend.read().expect("registry poisoned")
    }

    /// Compiles `spec` with `weights` under `config` and registers it —
    /// the one-time cost that [`ModelRegistry::get`] then amortizes.
    pub fn compile_and_insert(
        &self,
        spec: &NetworkSpec,
        weights: &[Tensor4<i16>],
        config: &UcnnConfig,
    ) -> Arc<CompiledNetwork> {
        self.insert(CompiledNetwork::compile(spec, weights, config))
    }

    /// Looks up a model by name (cheap: read lock + `Arc` clone).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<CompiledNetwork>> {
        self.models
            .read()
            .expect("registry poisoned")
            .get(name)
            .map(|entry| Arc::clone(&entry.plan))
    }

    /// Sets (or with `None` lifts) the model's concurrency ceiling;
    /// `Some(0)` stops admitting the model. Returns `false` if no model of
    /// that name is registered.
    ///
    /// Takes effect for the next admission decision; requests already in
    /// flight are never evicted (a lowered ceiling simply stops admitting
    /// until enough tokens drain).
    pub fn set_quota(&self, name: &str, limit: Option<usize>) -> bool {
        match self.models.read().expect("registry poisoned").get(name) {
            Some(entry) => {
                entry.quota.set_limit(limit);
                true
            }
            None => false,
        }
    }

    /// The model's shared quota handle, if the model is registered.
    #[must_use]
    pub fn quota(&self, name: &str) -> Option<Arc<ModelQuota>> {
        self.models
            .read()
            .expect("registry poisoned")
            .get(name)
            .map(|entry| Arc::clone(&entry.quota))
    }

    /// Resolves everything submission needs — plan and quota handle — in a
    /// single read-lock acquisition.
    #[must_use]
    pub fn resolve(&self, name: &str) -> Option<ResolvedModel> {
        self.models
            .read()
            .expect("registry poisoned")
            .get(name)
            .map(|entry| ResolvedModel {
                plan: Arc::clone(&entry.plan),
                quota: Arc::clone(&entry.quota),
            })
    }

    /// Registered model names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .models
            .read()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.read().expect("registry poisoned").len()
    }

    /// Whether the registry holds no models.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucnn_model::{forward, networks, QuantScheme};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn registry_is_send_sync() {
        assert_send_sync::<ModelRegistry>();
        assert_send_sync::<Arc<CompiledNetwork>>();
    }

    #[test]
    fn lookup_returns_the_same_plan() {
        let registry = ModelRegistry::new();
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 2, 0.9);
        let inserted = registry.compile_and_insert(&net, &weights, &UcnnConfig::default());
        let looked_up = registry.get("tiny").unwrap();
        assert!(Arc::ptr_eq(&inserted, &looked_up), "lookup must not clone");
        assert!(registry.get("missing").is_none());
        assert_eq!(registry.len(), 1);
        assert!(!registry.is_empty());
    }

    #[test]
    fn reinsert_replaces() {
        let registry = ModelRegistry::new();
        let net = networks::tiny();
        let w1 = forward::generate_network_weights(&net, QuantScheme::inq(), 3, 0.9);
        let w2 = forward::generate_network_weights(&net, QuantScheme::inq(), 4, 0.9);
        let a = registry.compile_and_insert(&net, &w1, &UcnnConfig::default());
        let b = registry.compile_and_insert(&net, &w2, &UcnnConfig::default());
        let current = registry.get("tiny").unwrap();
        assert!(Arc::ptr_eq(&b, &current));
        assert!(!Arc::ptr_eq(&a, &current));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn in_flight_arcs_keep_serving_the_old_plan_across_reinsert() {
        // A request that resolved its plan before a hot-swap must finish
        // against the *old* weights, bit-exactly, while new lookups get the
        // new plan — the registry's atomic-replace contract.
        let registry = ModelRegistry::new();
        let net = networks::tiny();
        let w_old = forward::generate_network_weights(&net, QuantScheme::inq(), 5, 0.9);
        let w_new = forward::generate_network_weights(&net, QuantScheme::inq(), 6, 0.9);
        let old = registry.compile_and_insert(&net, &w_old, &UcnnConfig::with_g(2));

        let mut agen = ucnn_model::ActivationGen::new(7);
        let input = agen.generate_for(&net.conv_layers()[0]);
        let expect_old = forward::dense_forward(&net, &w_old, &input);
        let expect_new = forward::dense_forward(&net, &w_new, &input);
        assert_ne!(
            expect_old, expect_new,
            "seeds must produce distinct weights"
        );

        let new = registry.compile_and_insert(&net, &w_new, &UcnnConfig::with_g(2));
        // The held Arc still serves the old weights...
        assert_eq!(old.forward(&input), expect_old);
        // ...while fresh lookups atomically see the replacement.
        let current = registry.get("tiny").unwrap();
        assert!(Arc::ptr_eq(&new, &current));
        assert_eq!(current.forward(&input), expect_new);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn default_backend_warms_post_start_inserts() {
        use ucnn_core::plan::CompiledStage;

        let flat_ready = |plan: &CompiledNetwork| {
            plan.stages().iter().all(|s| match s {
                CompiledStage::Conv { layer, .. } => layer.flat_ready(),
                CompiledStage::Pool { .. } => true,
            })
        };
        let registry = ModelRegistry::new();
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 12, 0.9);

        // Simulates Engine::start adopting the registry with a flattened
        // serving backend: an insert *afterwards* must warm it.
        registry.set_default_backend(BackendKind::FlattenedBatch);
        assert_eq!(
            registry.default_backend(),
            Some(BackendKind::FlattenedBatch)
        );
        let plan = registry.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
        assert!(
            flat_ready(&plan),
            "post-start insert must warm the serving backend"
        );

        // A hot-swap warms the *new* plan on insert, before any request
        // can race the lazy lowering.
        let w2 = forward::generate_network_weights(&net, QuantScheme::inq(), 11, 0.9);
        let swapped = registry.compile_and_insert(&net, &w2, &UcnnConfig::with_g(2));
        assert!(flat_ready(&swapped), "a hot-swap insert must warm too");
    }

    #[test]
    fn set_default_backend_warms_already_resident_plans() {
        use ucnn_core::plan::CompiledStage;

        let flat_ready = |plan: &CompiledNetwork| {
            plan.stages().iter().all(|s| match s {
                CompiledStage::Conv { layer, .. } => layer.flat_ready(),
                CompiledStage::Pool { .. } => true,
            })
        };
        let registry = ModelRegistry::new();
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 12, 0.9);

        // A plan resident *before* an engine adopts the registry is cold
        // (no adopted engine: nothing to warm for); the adoption itself
        // must warm it, or the first request eats the lowering tail.
        let plan = registry.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
        assert!(
            !flat_ready(&plan),
            "no flattened backend in play yet: the lowering must still be lazy"
        );
        registry.set_default_backend(BackendKind::FlattenedBatch);
        assert!(
            flat_ready(&plan),
            "adopting the registry must warm already-resident plans"
        );
    }

    #[test]
    fn quota_admits_releases_and_survives_reinsert() {
        let registry = ModelRegistry::new();
        let net = networks::tiny();
        let w1 = forward::generate_network_weights(&net, QuantScheme::inq(), 13, 0.9);
        assert!(
            !registry.set_quota("tiny", Some(1)),
            "quota on an absent model must be rejected"
        );
        assert!(registry.quota("tiny").is_none());
        registry.compile_and_insert(&net, &w1, &UcnnConfig::default());

        // Unlimited by default: admits while tracking the active count.
        let quota = registry.quota("tiny").unwrap();
        assert_eq!(quota.limit(), None);
        let t0 = quota.try_acquire().expect("unlimited must admit");
        assert_eq!(quota.active(), 1);

        // Ceiling of 2: one more admission fits, the third is rejected.
        assert!(registry.set_quota("tiny", Some(2)));
        assert_eq!(quota.limit(), Some(2));
        let t1 = quota.try_acquire().expect("below ceiling");
        assert!(quota.try_acquire().is_none(), "at ceiling");

        // Hot-swap: the same quota (and its in-flight tokens) survives.
        let w2 = forward::generate_network_weights(&net, QuantScheme::inq(), 14, 0.9);
        registry.compile_and_insert(&net, &w2, &UcnnConfig::default());
        let after = registry.quota("tiny").unwrap();
        assert!(Arc::ptr_eq(&quota, &after), "quota must survive re-insert");
        assert_eq!(after.limit(), Some(2));
        assert_eq!(after.active(), 2);

        // Dropping a token frees a slot.
        drop(t0);
        assert_eq!(after.active(), 1);
        let t2 = after.try_acquire().expect("slot freed by drop");
        drop(t1);
        drop(t2);
        assert_eq!(after.active(), 0);

        // Lifting the ceiling returns to unlimited.
        assert!(registry.set_quota("tiny", None));
        assert_eq!(after.limit(), None);
    }

    #[test]
    fn zero_quota_admits_nothing() {
        let registry = ModelRegistry::new();
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 16, 0.9);
        registry.compile_and_insert(&net, &weights, &UcnnConfig::default());
        assert!(registry.set_quota("tiny", Some(0)));
        let quota = registry.quota("tiny").unwrap();
        assert_eq!(quota.limit(), Some(0));
        assert!(
            quota.try_acquire().is_none(),
            "a zero ceiling admits nothing"
        );
        assert_eq!(quota.active(), 0);
    }

    #[test]
    fn resolve_returns_plan_and_quota_in_one_call() {
        let registry = ModelRegistry::new();
        assert!(registry.resolve("tiny").is_none());
        let net = networks::tiny();
        let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 15, 0.9);
        let plan = registry.compile_and_insert(&net, &weights, &UcnnConfig::default());
        registry.set_quota("tiny", Some(4));

        let resolved = registry.resolve("tiny").unwrap();
        assert!(Arc::ptr_eq(&resolved.plan, &plan));
        assert_eq!(resolved.quota.limit(), Some(4));
        assert!(Arc::ptr_eq(
            &resolved.quota,
            &registry.quota("tiny").unwrap()
        ));
    }
}
