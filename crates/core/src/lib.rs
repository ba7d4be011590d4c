//! **UCNN core** — the primary contribution of *UCNN: Exploiting Computational
//! Reuse in Deep Neural Networks via Weight Repetition* (Hegde et al.,
//! ISCA 2018), as a reusable library.
//!
//! CNN inference is dominated by dot products between weight vectors and
//! activation vectors. When the number of unique weights `U` is small
//! (quantized networks), the same weight appears many times per filter, and a
//! dot product can be *factorized*:
//!
//! ```text
//!   a·x + b·y + a·z      =      a·(x + z) + b·y
//!   (3 mults, 2 adds)           (2 mults, 2 adds)
//! ```
//!
//! The sets of activations summed together (`{x, z}` above) are **activation
//! groups** (one per unique weight). Sorting a filter's positions by weight
//! yields an *input indirection table* (`iiT`) and a 1-bit-per-entry *weight
//! indirection table* (`wiT`) that a hardware lane can stream through
//! ([`factorize`]). Hierarchically sorting one table for `G` filters lets
//! them **share partial sums** (activation-group reuse, [`hierarchy`]), and
//! compresses the model by `O(G)` ([`encoding`]).
//!
//! # Modules
//!
//! * [`factorize`] — single-filter activation groups (dot-product
//!   factorization, paper §III-A).
//! * [`hierarchy`] — the hierarchically sorted `G`-filter stream that the
//!   UCNN processing element consumes (§III-B, §IV-C).
//! * [`encoding`] — bit-exact table encodings (pointer and jump `iiT`,
//!   1/2-bit `wiT`, skip entries) and model-size accounting (§IV-B/C), plus
//!   the Eyeriss-style run-length encoding used by the sparse baseline.
//! * [`exec`] — functional factorized convolution, bit-identical to the
//!   dense reference (used to validate everything end to end).
//! * [`compile`] — compiles whole layers into per-tile streams plus the
//!   aggregate statistics the accelerator simulator consumes.
//! * [`plan`] — retained compilation for serving: [`CompiledLayer`] and
//!   [`CompiledNetwork`] own the weights and build from them, at most once
//!   and on first use, the per-tile streams and their lowered tables, so
//!   the sort/factorize work is paid once per model and the hot path only
//!   walks what was retained (by default the flattened tables,
//!   [`CompiledNetwork::DEFAULT_BACKEND`], whose dense layers need no
//!   stream).
//! * [`backend`] — the executor backends: two bit-identical inner-loop
//!   shapes (the retained-stream walk and the flattened SIMD executor),
//!   selected by a [`BackendKind`] end to end from the serving engine down
//!   and dispatched by a `match` on it ([`BackendKind::run_network`]; a
//!   layer alone runs as a one-layer network). A forward runs on the thread
//!   that calls it.
//! * [`counters`] — the per-layer reuse-telemetry sink: an opt-in
//!   `(network, layer)` → [`LayerWork`] tally (images, multiplies issued vs
//!   dense-equivalent, gather entries) every backend reports into per layer
//!   of a forward.
//! * [`flatten`] — the compile-time lowering (branch-free gather offsets
//!   and CSR-style activation-group ranges) and the batch-interleaved SIMD
//!   executor behind [`BackendKind::FlattenedBatch`] (one indirection walk
//!   feeding a strip of contiguous image lanes as wide as the dispatched
//!   ISA tier allows), in four files: `lower` (the tables, built once),
//!   `kernel` (the datapath that walks them), `scratch` (the calling
//!   thread's arena) and `network` (the chunk-major driver and
//!   [`flatten::run_stages`], the one entry point that forces a tier).
//! * [`simd`] — runtime ISA detection ([`SimdCaps`]) and the
//!   [`SimdTier`]s the `#[target_feature]` strip kernels are built for
//!   (scalar / AVX2 / AVX-512) and their interleave widths; every
//!   execution dispatches the widest tier the CPU has.
//! * [`partial_product`] — the paper's third (unexploited) reuse form,
//!   partial-product memoization across filters (§III-C), provided as an
//!   extension for ablation.
//!
//! # Arithmetic contract
//!
//! Every executor and backend returns, bit for bit, what the dense
//! reference (`ucnn_model::forward::dense_forward`) returns:
//!
//! * Activations and weights are `i16`.
//! * A layer's lane sums — every product `x·w` and every partial sum — are
//!   wrapping `i32`: two's-complement arithmetic modulo 2³², a ring.
//! * Between stages, a weight-bearing layer's `i32` sums pass through ReLU
//!   and saturate to `i16` (`ucnn_model::reference::relu_saturate`); the
//!   network's final layer returns its raw `i32` sums.
//!
//! Because the sums live in a ring, **any summation order is bit-exact**:
//! any order, grouping, sharing or sign-folding of the terms that keeps
//! `Σ x·w` per output gives the same bits, including on sums that wrap.
//! That is what lets factorization ([`factorize`]), activation-group reuse
//! ([`hierarchy`]) and the lowered walk ([`flatten`]) reorder the sum
//! freely. Release builds wrap everywhere; a debug build may instead trap
//! where a scalar path uses plain `+`, so the sweeps that push sums past
//! `i32` run in release.
//!
//! # Quickstart
//!
//! ```
//! use ucnn_core::factorize::FilterFactorization;
//!
//! // Figure 1 of the paper: filter {a, b, a} with a repeated.
//! let fact = FilterFactorization::build(&[3, 5, 3]);
//! assert_eq!(fact.group_count(), 2);      // two unique non-zero weights
//! assert_eq!(fact.multiplies(), 2);       // was 3 for the dense dot product
//! let out = fact.dot(&[10, 20, 30]);      // 3·(10+30) + 5·20
//! assert_eq!(out, 220);
//! ```

// `deny` rather than `forbid`: the explicit SIMD tier kernels need
// `#[target_feature]` functions, which are unsafe to call by language rule,
// and the `avx512` tier's intrinsics load and store through pointers, each
// taken from a bounds-checked slice of exactly the bytes it moves. They and
// their call sites live in `flatten/kernel.rs` alone, under a scoped
// `#[allow(unsafe_code)]`, dispatched on a tier token only SIMD detection
// can mint; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod compile;
pub mod counters;
pub mod encoding;
pub mod exec;
pub mod factorize;
pub mod flatten;
pub mod hierarchy;
pub mod partial_product;
pub mod plan;
pub mod simd;

pub use backend::BackendKind;
pub use compile::{LayerPlan, TileStats, UcnnConfig};
pub use counters::{LayerWork, TallyRow};
pub use factorize::{ActivationGroup, FilterFactorization};
pub use flatten::FlattenedTile;
pub use hierarchy::{GroupStream, StreamEntry};
pub use plan::{CompiledLayer, CompiledNetwork, CompiledStage, CompiledTile};
pub use simd::{SimdCaps, SimdTier};
