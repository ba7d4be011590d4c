//! Model registry: compile once, serve many.
//!
//! Holds `Arc<CompiledNetwork>` plans by name. Registration pays the full
//! sort/factorize cost; every lookup afterwards is a read-locked map access
//! and an `Arc` clone — workers never copy plan data. Re-inserting a name
//! swaps the plan atomically: requests already holding the old `Arc`
//! finish on it.

use std::collections::HashMap;
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
/// assert!(registry.resolve("tiny").is_some());
/// assert!(registry.resolve("missing").is_none());
/// ```
#[derive(Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<CompiledNetwork>>>,
    /// The backend the adopting engine serves every model through,
    /// registered by [`Engine::start`] (`None` until an engine adopts this
    /// registry). Inserts warm for this, so a model deployed *after* start
    /// still serves its first request with no lazy lowering in the execute
    /// phase.
    ///
    /// [`Engine::start`]: crate::engine::Engine::start
    default_backend: RwLock<Option<BackendKind>>,
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
    /// immutable, so no request ever observes a half-swapped model).
    ///
    /// The plan is **warmed** for the backend that will serve it (the one
    /// registered via [`ModelRegistry::set_default_backend`]): any lazily
    /// derived execution state — the stream walker's streams, the flattened
    /// backend's per-layer lowering — is built here, at deploy time, so the first request after an
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
        self.models
            .write()
            .expect("registry poisoned")
            .insert(arc.name().to_string(), Arc::clone(&arc));
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
            .cloned()
            .collect();
        for plan in resident {
            plan.warm(backend);
        }
    }

    /// The serving backend registered with this registry, if an engine has
    /// adopted it.
    fn default_backend(&self) -> Option<BackendKind> {
        *self.default_backend.read().expect("registry poisoned")
    }

    /// Compiles `spec` with `weights` under `config` and registers it —
    /// the one-time cost that [`ModelRegistry::resolve`] then amortizes.
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
    pub fn resolve(&self, name: &str) -> Option<Arc<CompiledNetwork>> {
        self.models
            .read()
            .expect("registry poisoned")
            .get(name)
            .cloned()
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
        let looked_up = registry.resolve("tiny").unwrap();
        assert!(Arc::ptr_eq(&inserted, &looked_up), "lookup must not clone");
        assert!(registry.resolve("missing").is_none());
    }

    #[test]
    fn reinsert_replaces() {
        let registry = ModelRegistry::new();
        let net = networks::tiny();
        let w1 = forward::generate_network_weights(&net, QuantScheme::inq(), 3, 0.9);
        let w2 = forward::generate_network_weights(&net, QuantScheme::inq(), 4, 0.9);
        let a = registry.compile_and_insert(&net, &w1, &UcnnConfig::default());
        let b = registry.compile_and_insert(&net, &w2, &UcnnConfig::default());
        let current = registry.resolve("tiny").unwrap();
        assert!(Arc::ptr_eq(&b, &current));
        assert!(!Arc::ptr_eq(&a, &current));
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
        let current = registry.resolve("tiny").unwrap();
        assert!(Arc::ptr_eq(&new, &current));
        assert_eq!(current.forward(&input), expect_new);
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

        // Under the stream walker, the engine's default backend, an insert
        // after start builds every stream, so the first served request
        // sorts none. A plan builds its streams on first use and has no
        // accessor for whether it has: they are read off its `Debug` form,
        // where an unbuilt `OnceLock` prints `<uninit>` — as a plan that
        // nothing warmed shows.
        let streams_built = |plan: &CompiledNetwork| {
            plan.stages().iter().all(|s| match s {
                CompiledStage::Conv { layer, .. } => {
                    !format!("{layer:?}").contains("tiles: OnceLock(<uninit>)")
                }
                CompiledStage::Pool { .. } => true,
            })
        };
        let cold = CompiledNetwork::compile(&net, &weights, &UcnnConfig::with_g(2));
        assert!(!streams_built(&cold), "compiling builds no stream");
        let walker = ModelRegistry::new();
        walker.set_default_backend(BackendKind::BatchThreads);
        let plan = walker.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
        assert!(
            streams_built(&plan),
            "post-start insert must build the streams"
        );
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
}
