//! Convolutional-layer geometry: the parameters of Figure 2 in the paper.

use core::fmt;

/// Geometry of one convolutional layer.
///
/// Follows the parameter names of the paper's Figure 2: a `W × H × C` input is
/// convolved with `K` filters of shape `R × S × C` to produce a
/// `W' × H' × K` output, where for stride `t` and symmetric padding `p`
/// `W' = (W − R + 2p)/t + 1` (likewise `H'` with `S`).
///
/// `ConvGeom` is a plain value type: cheap to copy, comparable, hashable. All
/// derived quantities (output size, MAC count, …) are methods so they can
/// never go stale.
///
/// # Examples
///
/// ```
/// use ucnn_tensor::ConvGeom;
///
/// // AlexNet conv1: 227×227×3 input, 96 filters of 11×11×3, stride 4.
/// let conv1 = ConvGeom::new(227, 227, 3, 96, 11, 11).with_stride(4);
/// assert_eq!(conv1.out_w(), 55);
/// assert_eq!(conv1.out_h(), 55);
/// assert_eq!(conv1.weight_count(), 96 * 3 * 11 * 11);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConvGeom {
    w: usize,
    h: usize,
    c: usize,
    k: usize,
    r: usize,
    s: usize,
    stride: usize,
    pad: usize,
}

/// Error returned by [`ConvGeom::validated`] when a geometry is inconsistent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeomError {
    /// A dimension (`W`, `H`, `C`, `K`, `R`, `S`, or the stride) is zero.
    ZeroDim,
    /// The (padded) input is smaller than the filter, so no output exists.
    FilterLargerThanInput,
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::ZeroDim => write!(f, "convolution geometry has a zero dimension"),
            GeomError::FilterLargerThanInput => {
                write!(f, "filter does not fit inside the padded input")
            }
        }
    }
}

impl std::error::Error for GeomError {}

impl ConvGeom {
    /// Creates a unit-stride, unpadded geometry.
    ///
    /// Argument order is `(W, H, C, K, R, S)` — spatial input size, input
    /// channels, filter count, filter spatial size — matching Figure 2.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (any zero dimension, or a filter
    /// larger than the input). Use [`ConvGeom::validated`] for a fallible
    /// constructor.
    #[must_use]
    pub fn new(w: usize, h: usize, c: usize, k: usize, r: usize, s: usize) -> Self {
        match Self::validated(w, h, c, k, r, s, 1, 0) {
            Ok(geom) => geom,
            Err(err) => panic!("invalid ConvGeom({w},{h},{c},{k},{r},{s}): {err}"),
        }
    }

    /// Fallible constructor with explicit stride and padding.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::ZeroDim`] if any of `w, h, c, k, r, s, stride` is
    /// zero and [`GeomError::FilterLargerThanInput`] if `R > W + 2·pad` or
    /// `S > H + 2·pad`.
    #[allow(clippy::too_many_arguments)]
    pub fn validated(
        w: usize,
        h: usize,
        c: usize,
        k: usize,
        r: usize,
        s: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, GeomError> {
        if w == 0 || h == 0 || c == 0 || k == 0 || r == 0 || s == 0 || stride == 0 {
            return Err(GeomError::ZeroDim);
        }
        if r > w + 2 * pad || s > h + 2 * pad {
            return Err(GeomError::FilterLargerThanInput);
        }
        Ok(Self {
            w,
            h,
            c,
            k,
            r,
            s,
            stride,
            pad,
        })
    }

    /// Returns the same geometry with a different stride.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    #[must_use]
    pub fn with_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        self.stride = stride;
        self
    }

    /// Returns the same geometry with symmetric zero padding `pad`.
    #[must_use]
    pub fn with_pad(mut self, pad: usize) -> Self {
        self.pad = pad;
        self
    }

    /// Input width `W`.
    #[must_use]
    pub fn in_w(&self) -> usize {
        self.w
    }

    /// Input height `H`.
    #[must_use]
    pub fn in_h(&self) -> usize {
        self.h
    }

    /// Input channel count `C`.
    #[must_use]
    pub fn c(&self) -> usize {
        self.c
    }

    /// Filter count `K` (= output channel count).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Filter width `R`.
    #[must_use]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Filter height `S`.
    #[must_use]
    pub fn s(&self) -> usize {
        self.s
    }

    /// Convolution stride (same in both spatial dimensions).
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Symmetric zero padding (same on all four sides).
    #[must_use]
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Output width `W' = (W − R + 2·pad)/stride + 1`.
    #[must_use]
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.r) / self.stride + 1
    }

    /// Output height `H' = (H − S + 2·pad)/stride + 1`.
    #[must_use]
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.s) / self.stride + 1
    }

    /// Number of weights in one filter: `R·S·C` (the "filter size" of §I).
    #[must_use]
    pub fn filter_size(&self) -> usize {
        self.r * self.s * self.c
    }

    /// Total number of weights in the layer: `R·S·C·K`.
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.filter_size() * self.k
    }

    /// Number of output activations: `W'·H'·K`.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.out_w() * self.out_h() * self.k
    }

    /// Dense multiply-accumulate count for the layer:
    /// `W'·H'·K·R·S·C` (Equation 1 evaluated everywhere).
    #[must_use]
    pub fn macs(&self) -> usize {
        self.output_count() * self.filter_size()
    }
}

impl fmt::Display for ConvGeom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // C:K:R:S notation as used in the paper's Figure 10 captions,
        // extended with the input plane and stride.
        write!(
            f,
            "{}:{}:{}:{} on {}x{} (stride {}, pad {})",
            self.c, self.k, self.r, self.s, self.w, self.h, self.stride, self.pad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_output_dims() {
        let g = ConvGeom::new(32, 32, 3, 32, 5, 5);
        assert_eq!(g.out_w(), 28);
        assert_eq!(g.out_h(), 28);
    }

    #[test]
    fn strided_padded_output_dims() {
        // ResNet conv1: 224×224×3, 64 filters 7×7, stride 2, pad 3 → 112×112.
        let g = ConvGeom::new(224, 224, 3, 64, 7, 7)
            .with_stride(2)
            .with_pad(3);
        assert_eq!(g.out_w(), 112);
        assert_eq!(g.out_h(), 112);
    }

    #[test]
    fn derived_counts() {
        let g = ConvGeom::new(8, 8, 4, 2, 3, 3);
        assert_eq!(g.filter_size(), 36);
        assert_eq!(g.weight_count(), 72);
        assert_eq!(g.output_count(), 6 * 6 * 2);
        assert_eq!(g.macs(), 6 * 6 * 2 * 36);
    }

    #[test]
    fn validated_rejects_zero_dims() {
        assert_eq!(
            ConvGeom::validated(0, 8, 4, 2, 3, 3, 1, 0),
            Err(GeomError::ZeroDim)
        );
        assert_eq!(
            ConvGeom::validated(8, 8, 4, 2, 3, 3, 0, 0),
            Err(GeomError::ZeroDim)
        );
    }

    #[test]
    fn validated_rejects_oversized_filter() {
        assert_eq!(
            ConvGeom::validated(4, 4, 1, 1, 5, 5, 1, 0),
            Err(GeomError::FilterLargerThanInput)
        );
        // ... but padding can make it fit.
        assert!(ConvGeom::validated(4, 4, 1, 1, 5, 5, 1, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid ConvGeom")]
    fn new_panics_on_invalid() {
        let _ = ConvGeom::new(4, 4, 1, 1, 5, 5);
    }

    #[test]
    fn display_is_c_k_r_s() {
        let g = ConvGeom::new(14, 14, 256, 512, 3, 3).with_pad(1);
        assert_eq!(format!("{g}"), "256:512:3:3 on 14x14 (stride 1, pad 1)");
    }
}
