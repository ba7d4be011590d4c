//! # UCNN — exploiting computational reuse in DNNs via weight repetition
//!
//! A full reproduction of *UCNN: Exploiting Computational Reuse in Deep
//! Neural Networks via Weight Repetition* (Hegde et al., ISCA 2018) as a
//! Rust library suite. This facade crate re-exports the member crates:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`tensor`] | dense 3-D/4-D tensors and convolution geometry |
//! | [`model`] | networks (LeNet/AlexNet/ResNet-50), quantization (INQ/TTQ/fixed), generators, reference convolution, repetition statistics |
//! | [`core`] | **the paper's contribution**: dot-product factorization, activation-group reuse, indirection-table encodings, functional factorized executor |
//! | [`sim`] | DCNN/DCNN_sp/UCNN processing-element and chip models: cycles, energy, area |
//! | [`serve`] | compile-once batched inference engine: model registry, one bounded queue, worker pool, engine stats |
//!
//! # Example: factorize a layer and weigh it against the dense baseline
//!
//! ```
//! use ucnn::model::{networks, QuantScheme, WeightGen};
//! use ucnn::sim::{ArchConfig, Simulator};
//!
//! let net = networks::lenet();
//! let layer = net.conv_layer("conv2").unwrap();
//! let mut gen = WeightGen::new(QuantScheme::inq(), 7).with_density(0.9);
//! let weights = gen.generate(&layer);
//!
//! let baseline = Simulator::new(ArchConfig::dcnn_sp(16)).simulate_layer(&layer, &weights, 0.35);
//! let ucnn = Simulator::new(ArchConfig::ucnn(17, 16)).simulate_layer(&layer, &weights, 0.35);
//! let savings = baseline.energy.total_pj() / ucnn.energy.total_pj();
//! assert!(savings > 1.0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the harness regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Tensor substrate (re-export of `ucnn-tensor`).
pub mod tensor {
    pub use ucnn_tensor::*;
}

/// CNN model substrate (re-export of `ucnn-model`).
pub mod model {
    pub use ucnn_model::*;
}

/// UCNN core algorithms (re-export of `ucnn-core`).
pub mod core {
    pub use ucnn_core::*;
}

/// Accelerator simulator (re-export of `ucnn-sim`).
pub mod sim {
    pub use ucnn_sim::*;
}

/// Serving engine (re-export of `ucnn-serve`).
pub mod serve {
    pub use ucnn_serve::*;
}
