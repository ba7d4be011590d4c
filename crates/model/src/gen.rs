//! Synthetic weight and activation generation.
//!
//! Replaces the paper's trained models and image datasets (see DESIGN.md §4):
//! weights are drawn from a [`QuantScheme`]'s value grid at a controlled
//! density ("we set (100-density)% of weights to 0 and set the remaining
//! weights to non-zero values via a uniform distribution", §VI-B), and
//! activations are drawn at the paper's 35 % average input density.

use ucnn_tensor::{Tensor3, Tensor4};

use crate::rng::SmallRng;

use crate::{ConvLayer, QuantScheme};

/// Deterministic generator of quantized weight tensors for [`ConvLayer`]s.
///
/// # Examples
///
/// ```
/// use ucnn_model::{networks, QuantScheme, WeightGen};
///
/// let net = networks::tiny();
/// let mut gen = WeightGen::new(QuantScheme::ttq(), 42).with_density(0.5);
/// let w = gen.generate(&net.conv_layers()[0]);
/// // Only grid values appear.
/// assert!(w.as_slice().iter().all(|&v| v == 0 || v == 64 || v == -64));
/// ```
#[derive(Clone, Debug)]
pub struct WeightGen {
    scheme: QuantScheme,
    density: f64,
    rng: SmallRng,
}

impl WeightGen {
    /// Creates a generator for `scheme`, seeded deterministically.
    ///
    /// Default weight density is 0.9 (the paper's INQ-like setting).
    #[must_use]
    pub fn new(scheme: QuantScheme, seed: u64) -> Self {
        Self {
            scheme,
            density: 0.9,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Sets the fraction of non-zero weights.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= density <= 1.0`.
    #[must_use]
    pub fn with_density(mut self, density: f64) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
        self.density = density;
        self
    }

    /// The quantization scheme in use.
    #[must_use]
    pub fn scheme(&self) -> &QuantScheme {
        &self.scheme
    }

    /// The configured non-zero fraction.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.density
    }

    /// Generates the full weight tensor for a layer:
    /// `(K, C_per_group, R, S)`.
    #[must_use]
    pub fn generate(&mut self, layer: &ConvLayer) -> Tensor4<i16> {
        let g = layer.geom();
        self.generate_dims(g.k(), g.c(), g.r(), g.s())
    }

    /// Generates a weight tensor with explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn generate_dims(&mut self, k: usize, c: usize, r: usize, s: usize) -> Tensor4<i16> {
        let cdf = self.scheme.value_cdf();
        let values = self.scheme.nonzero_values();
        let density = self.density;
        let rng = &mut self.rng;
        Tensor4::from_fn(k, c, r, s, |_, _, _, _| {
            if rng.gen_f64() >= density {
                0
            } else {
                let u: f64 = rng.gen_f64();
                // Binary search the CDF for the sampled value.
                let idx = cdf.partition_point(|&p| p < u).min(values.len() - 1);
                values[idx]
            }
        })
    }
}

/// Deterministic generator of input activation tensors.
///
/// Produces non-negative values (post-ReLU) with a configurable non-zero
/// density; the paper assumes 35 % input density throughout §VI.
///
/// # Examples
///
/// ```
/// use ucnn_model::ActivationGen;
///
/// let mut gen = ActivationGen::new(7).with_density(0.35);
/// let acts = gen.generate(16, 14, 14);
/// assert!((acts.density() - 0.35).abs() < 0.05);
/// assert!(acts.as_slice().iter().all(|&v| v >= 0));
/// ```
#[derive(Clone, Debug)]
pub struct ActivationGen {
    density: f64,
    max_value: i16,
    rng: SmallRng,
}

impl ActivationGen {
    /// Creates a generator with the paper's default 35 % density and values
    /// in `[1, 127]`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            density: 0.35,
            max_value: 127,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Sets the non-zero fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= density <= 1.0`.
    #[must_use]
    pub fn with_density(mut self, density: f64) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
        self.density = density;
        self
    }

    /// The configured non-zero fraction.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.density
    }

    /// Generates a `(c, w, h)` activation tensor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn generate(&mut self, c: usize, w: usize, h: usize) -> Tensor3<i16> {
        let density = self.density;
        let max_value = self.max_value;
        let rng = &mut self.rng;
        Tensor3::from_fn(c, w, h, |_, _, _| {
            if rng.gen_f64() >= density {
                0
            } else {
                rng.gen_range_i16(1, max_value)
            }
        })
    }

    /// Generates the input activations for a layer (all channel groups).
    #[must_use]
    pub fn generate_for(&mut self, layer: &ConvLayer) -> Tensor3<i16> {
        let g = layer.geom();
        self.generate(layer.total_in_channels(), g.in_w(), g.in_h())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::networks;
    use crate::ValueDist;

    #[test]
    fn weight_density_is_respected() {
        let net = networks::lenet();
        let layer = net.conv_layer("conv3").unwrap();
        for target in [0.5, 0.65, 0.9] {
            let mut gen = WeightGen::new(QuantScheme::uniform_unique(17), 1).with_density(target);
            let w = gen.generate(&layer);
            assert!(
                (w.density() - target).abs() < 0.03,
                "target {target}, got {}",
                w.density()
            );
        }
    }

    #[test]
    fn weights_stay_on_grid() {
        let scheme = QuantScheme::inq();
        let grid: Vec<i16> = scheme.nonzero_values().to_vec();
        let mut gen = WeightGen::new(scheme, 3);
        let w = gen.generate_dims(4, 8, 3, 3);
        for &v in w.as_slice() {
            assert!(v == 0 || grid.contains(&v), "{v} off grid");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = WeightGen::new(QuantScheme::inq(), 99);
        let mut b = WeightGen::new(QuantScheme::inq(), 99);
        assert_eq!(a.generate_dims(2, 4, 3, 3), b.generate_dims(2, 4, 3, 3));
        let mut c = WeightGen::new(QuantScheme::inq(), 100);
        assert_ne!(a.generate_dims(2, 4, 3, 3), c.generate_dims(2, 4, 3, 3));
    }

    #[test]
    fn geometric_dist_skews_counts() {
        let scheme = QuantScheme::inq(); // geometric by default
        let mut gen = WeightGen::new(scheme, 5).with_density(1.0);
        let w = gen.generate_dims(1, 64, 3, 3);
        let count = |v: i16| w.as_slice().iter().filter(|&&x| x == v).count();
        let small = count(1) + count(-1);
        let large = count(128) + count(-128);
        assert!(
            small > large,
            "geometric dist should favor small magnitudes: {small} vs {large}"
        );
    }

    #[test]
    fn uniform_dist_is_flat() {
        let scheme = QuantScheme::inq().with_dist(ValueDist::Uniform);
        let mut gen = WeightGen::new(scheme, 5).with_density(1.0);
        let w = gen.generate_dims(8, 64, 3, 3); // 4608 samples over 16 values
        let expected = w.len() as f64 / 16.0;
        for &v in QuantScheme::inq().nonzero_values() {
            let count = w.as_slice().iter().filter(|&&x| x == v).count() as f64;
            assert!(
                (count - expected).abs() < expected * 0.35,
                "value {v}: {count} vs expected {expected}"
            );
        }
    }

    #[test]
    fn activations_are_non_negative_and_dense_as_configured() {
        let mut gen = ActivationGen::new(11).with_density(0.35);
        let a = gen.generate(8, 16, 16);
        assert!(a.as_slice().iter().all(|&v| v >= 0));
        assert!((a.density() - 0.35).abs() < 0.04);
    }

    #[test]
    fn activation_generate_for_uses_total_channels() {
        let net = networks::alexnet();
        let conv2 = net.conv_layer("conv2").unwrap();
        let mut gen = ActivationGen::new(2);
        let a = gen.generate_for(&conv2);
        assert_eq!(a.c(), 96); // both groups
        assert_eq!(a.w(), 27);
    }
}
