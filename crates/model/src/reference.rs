//! Dense reference implementations of the CNN layer types (Equation 1 of the
//! paper, plus ReLU, pooling and fully connected layers).
//!
//! These are the functional ground truth: the UCNN factorized executor in
//! `ucnn-core` must produce bit-identical outputs (integer arithmetic, no
//! rounding ambiguity).

use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};

use crate::{ConvLayer, PoolKind};

/// Computes a dense convolution per Equation (1), with stride, symmetric zero
/// padding, and channel groups.
///
/// * `input` is `(C_total, W, H)` where `C_total = geom.c() · groups`.
/// * `filters` is `(K, C_per_group, R, S)`.
/// * Output is `(K, W', H')` in `i32` partial-sum precision.
///
/// Filter `k` reads input channels `[g·C, (g+1)·C)` where
/// `g = k / (K / groups)` — AlexNet-style grouping.
///
/// # Panics
///
/// Panics if tensor shapes disagree with `geom`/`groups`.
///
/// # Examples
///
/// ```
/// use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};
/// use ucnn_model::reference::conv2d;
///
/// // 1-D convolution from the paper's Figure 1: filter {a,b,a} = {2,3,2}
/// // over input {1,4,5,6,7}.
/// let geom = ConvGeom::new(5, 1, 1, 1, 3, 1);
/// let input = Tensor3::from_vec(1, 5, 1, vec![1i16, 4, 5, 6, 7]).unwrap();
/// let filt = Tensor4::from_vec(1, 1, 3, 1, vec![2i16, 3, 2]).unwrap();
/// let out = conv2d(&geom, 1, &input, &filt);
/// // {2·1+3·4+2·5, 2·4+3·5+2·6, 2·5+3·6+2·7} = {24, 35, 42}
/// assert_eq!(out.as_slice(), &[24, 35, 42]);
/// ```
#[must_use]
pub fn conv2d(
    geom: &ConvGeom,
    groups: usize,
    input: &Tensor3<i16>,
    filters: &Tensor4<i16>,
) -> Tensor3<i32> {
    assert_eq!(input.c(), geom.c() * groups, "input channel mismatch");
    assert!(
        input.w() == geom.in_w() && input.h() == geom.in_h(),
        "input plane mismatch"
    );
    assert_eq!(filters.k(), geom.k(), "filter count mismatch");
    assert_eq!(filters.c(), geom.c(), "filter channel mismatch");
    assert!(
        filters.r() == geom.r() && filters.s() == geom.s(),
        "filter plane mismatch"
    );
    assert!(
        groups > 0 && geom.k().is_multiple_of(groups),
        "bad group count"
    );

    let (out_w, out_h) = (geom.out_w(), geom.out_h());
    let k_per_group = geom.k() / groups;
    let stride = geom.stride() as isize;
    let pad = geom.pad() as isize;

    let mut out = Tensor3::<i32>::zeros(geom.k(), out_w, out_h);
    for k in 0..geom.k() {
        let group = k / k_per_group;
        let c_base = group * geom.c();
        for x in 0..out_w {
            for y in 0..out_h {
                let mut sum = 0i32;
                for c in 0..geom.c() {
                    for r in 0..geom.r() {
                        for s in 0..geom.s() {
                            let ix = x as isize * stride + r as isize - pad;
                            let iy = y as isize * stride + s as isize - pad;
                            let act = input.at_padded(c_base + c, ix, iy);
                            let wt = filters[(k, c, r, s)];
                            sum += i32::from(act) * i32::from(wt);
                        }
                    }
                }
                out[(k, x, y)] = sum;
            }
        }
    }
    out
}

/// Convenience wrapper running [`conv2d`] for a [`ConvLayer`].
#[must_use]
pub fn conv_layer(layer: &ConvLayer, input: &Tensor3<i16>, filters: &Tensor4<i16>) -> Tensor3<i32> {
    conv2d(&layer.geom(), layer.groups(), input, filters)
}

/// Rectified linear unit applied element-wise, with saturation to `i16`.
///
/// Partial sums are `i32`; activations handed to the next layer are `i16`.
/// The paper's PEs apply ReLU at output write-back (Figure 8 step F).
#[must_use]
pub fn relu_saturate(input: &Tensor3<i32>) -> Tensor3<i16> {
    Tensor3::from_fn(input.c(), input.w(), input.h(), |c, x, y| {
        let v = input[(c, x, y)];
        v.clamp(0, i32::from(i16::MAX)) as i16
    })
}

/// Spatial pooling over non-overlapping-or-strided square windows.
///
/// Windows are anchored at multiples of `stride`; partial windows at the
/// right/bottom edge are allowed (Caffe semantics: output dim =
/// `ceil((dim − size)/stride) + 1`).
///
/// # Panics
///
/// Panics if `size == 0`, `stride == 0`, or `size` exceeds the input plane.
#[must_use]
pub fn pool2d(input: &Tensor3<i16>, kind: PoolKind, size: usize, stride: usize) -> Tensor3<i16> {
    assert!(size > 0 && stride > 0, "pool size/stride must be positive");
    assert!(
        size <= input.w() && size <= input.h(),
        "pool window exceeds input"
    );
    let out_w = (input.w() - size).div_ceil(stride) + 1;
    let out_h = (input.h() - size).div_ceil(stride) + 1;
    Tensor3::from_fn(input.c(), out_w, out_h, |c, ox, oy| {
        let x0 = ox * stride;
        let y0 = oy * stride;
        let x1 = (x0 + size).min(input.w());
        let y1 = (y0 + size).min(input.h());
        match kind {
            PoolKind::Max => {
                let mut best = i16::MIN;
                for x in x0..x1 {
                    for y in y0..y1 {
                        best = best.max(input[(c, x, y)]);
                    }
                }
                best
            }
            PoolKind::Avg => {
                let mut sum = 0i32;
                let mut n = 0i32;
                for x in x0..x1 {
                    for y in y0..y1 {
                        sum += i32::from(input[(c, x, y)]);
                        n += 1;
                    }
                }
                (sum / n) as i16
            }
        }
    })
}

/// Fully connected layer as a matrix-vector product: `out[k] = Σ_i w[k][i]·x[i]`.
///
/// `input` is flattened in `(c, x, y)` storage order; `weights` is
/// `(K, in_features, 1, 1)`.
///
/// # Panics
///
/// Panics if `weights.c() != input.len()`.
#[must_use]
pub fn fully_connected(input: &Tensor3<i16>, weights: &Tensor4<i16>) -> Vec<i32> {
    assert_eq!(weights.c(), input.len(), "fc weight in_features mismatch");
    let x = input.as_slice();
    (0..weights.k())
        .map(|k| {
            weights
                .filter(k)
                .iter()
                .zip(x)
                .map(|(&w, &a)| i32::from(w) * i32::from(a))
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{networks, ActivationGen, QuantScheme, WeightGen};
    use ucnn_tensor::ConvGeom;

    /// The running example of the paper's §I: filter {a, b, a}, input
    /// {x, y, z, k, l}; outputs {ax+by+az, ay+bz+ak, az+bk+al}.
    #[test]
    fn figure1_standard_dot_product() {
        let (a, b) = (3i16, 5i16);
        let (x, y, z, k, l) = (2i16, 7, 11, 13, 17);
        let geom = ConvGeom::new(5, 1, 1, 1, 3, 1);
        let input = Tensor3::from_vec(1, 5, 1, vec![x, y, z, k, l]).unwrap();
        let filt = Tensor4::from_vec(1, 1, 3, 1, vec![a, b, a]).unwrap();
        let out = conv2d(&geom, 1, &input, &filt);
        let e = |p: i16, q: i16, r: i16| {
            i32::from(a) * i32::from(p) + i32::from(b) * i32::from(q) + i32::from(a) * i32::from(r)
        };
        assert_eq!(out.as_slice(), &[e(x, y, z), e(y, z, k), e(z, k, l)]);
    }

    #[test]
    fn identity_filter_passes_channel_through() {
        // 1×1 filter of weight 1 on a single channel reproduces the input.
        let geom = ConvGeom::new(4, 4, 1, 1, 1, 1);
        let input = Tensor3::from_fn(1, 4, 4, |_, x, y| (x * 4 + y) as i16);
        let filt = Tensor4::from_vec(1, 1, 1, 1, vec![1i16]).unwrap();
        let out = conv2d(&geom, 1, &input, &filt);
        for ((_, x, y), v) in out.indexed_iter() {
            assert_eq!(v, i32::from(input[(0, x, y)]));
        }
    }

    #[test]
    fn padding_contributes_zeros() {
        let geom = ConvGeom::validated(2, 2, 1, 1, 3, 3, 1, 1).unwrap();
        let input = Tensor3::filled(1, 2, 2, 1i16);
        let filt = Tensor4::from_vec(1, 1, 3, 3, vec![1i16; 9]).unwrap();
        let out = conv2d(&geom, 1, &input, &filt);
        assert_eq!(out.w(), 2);
        // Corner output sees 4 in-bounds ones.
        assert_eq!(out[(0, 0, 0)], 4);
    }

    #[test]
    fn stride_subsamples() {
        let geom = ConvGeom::new(5, 5, 1, 1, 1, 1).with_stride(2);
        let input = Tensor3::from_fn(1, 5, 5, |_, x, y| (10 * x + y) as i16);
        let filt = Tensor4::from_vec(1, 1, 1, 1, vec![1i16]).unwrap();
        let out = conv2d(&geom, 1, &input, &filt);
        assert_eq!(out.w(), 3);
        assert_eq!(out[(0, 1, 1)], 22);
        assert_eq!(out[(0, 2, 2)], 44);
    }

    #[test]
    fn groups_partition_channels() {
        // 2 groups, 2 filters; filter 0 reads channels {0}, filter 1 reads {1}.
        let geom = ConvGeom::new(2, 1, 1, 2, 1, 1);
        let mut input = Tensor3::<i16>::zeros(2, 2, 1);
        input[(0, 0, 0)] = 3;
        input[(1, 0, 0)] = 5;
        let filt = Tensor4::from_vec(2, 1, 1, 1, vec![1i16, 1]).unwrap();
        let out = conv2d(&geom, 2, &input, &filt);
        assert_eq!(out[(0, 0, 0)], 3);
        assert_eq!(out[(1, 0, 0)], 5);
    }

    #[test]
    fn relu_clamps_negatives_and_saturates() {
        let mut t = Tensor3::<i32>::zeros(1, 1, 3);
        t[(0, 0, 0)] = -5;
        t[(0, 0, 1)] = 1_000_000;
        t[(0, 0, 2)] = 123;
        let r = relu_saturate(&t);
        assert_eq!(r.as_slice(), &[0, i16::MAX, 123]);
    }

    #[test]
    fn max_pool_picks_maximum() {
        let input = Tensor3::from_vec(1, 4, 4, (0..16).map(|v| v as i16).collect()).unwrap();
        let out = pool2d(&input, PoolKind::Max, 2, 2);
        assert_eq!(out.w(), 2);
        // Storage (c,x,y): value = 4x + y. Window x∈{0,1},y∈{0,1} max = 5.
        assert_eq!(out[(0, 0, 0)], 5);
        assert_eq!(out[(0, 1, 1)], 15);
    }

    #[test]
    fn avg_pool_averages() {
        let input = Tensor3::filled(1, 4, 4, 8i16);
        let out = pool2d(&input, PoolKind::Avg, 2, 2);
        assert!(out.as_slice().iter().all(|&v| v == 8));
    }

    #[test]
    fn caffe_ragged_pooling_dims() {
        // 16×16, size 3, stride 2 → ceil(13/2)+1 = 8 (LeNet pool1).
        let input = Tensor3::<i16>::filled(1, 16, 16, 1);
        let out = pool2d(&input, PoolKind::Max, 3, 2);
        assert_eq!(out.w(), 8);
        assert_eq!(out.h(), 8);
    }

    #[test]
    fn fc_is_dot_product_per_output() {
        let input = Tensor3::from_vec(1, 1, 3, vec![1i16, 2, 3]).unwrap();
        let weights = Tensor4::from_vec(2, 3, 1, 1, vec![1i16, 1, 1, 0, 2, -1]).unwrap();
        assert_eq!(fully_connected(&input, &weights), vec![6, 1]);
    }

    #[test]
    fn fc_matches_conv_formulation() {
        // FC executed via conv2d on a 1×1 spatial plane must agree.
        let net = networks::tiny();
        let fc = net.conv_layer("fc").unwrap();
        let mut wgen = WeightGen::new(QuantScheme::inq(), 8);
        let weights = wgen.generate(&fc);
        let mut agen = ActivationGen::new(9);
        let flat = agen.generate(fc.geom().c(), 1, 1);
        let via_fc = fully_connected(&flat, &weights);
        let via_conv = conv2d(&fc.geom(), 1, &flat, &weights);
        assert_eq!(via_fc, via_conv.as_slice());
    }

    #[test]
    fn tiny_network_end_to_end_runs() {
        // Functional smoke test chaining conv → relu → conv → relu → pool → fc.
        let net = networks::tiny();
        let convs = net.conv_layers();
        let mut wgen = WeightGen::new(QuantScheme::inq(), 77).with_density(0.9);
        let mut agen = ActivationGen::new(78);

        let input = agen.generate_for(&convs[0]);
        let w1 = wgen.generate(&convs[0]);
        let a1 = relu_saturate(&conv_layer(&convs[0], &input, &w1));

        let w2 = wgen.generate(&convs[1]);
        let a2 = relu_saturate(&conv_layer(&convs[1], &a1, &w2));

        let pooled = pool2d(&a2, PoolKind::Max, 2, 2);
        assert_eq!((pooled.c(), pooled.w(), pooled.h()), (16, 6, 6));

        let fc = &convs[2];
        let flat = Tensor3::from_vec(fc.geom().c(), 1, 1, pooled.into_vec()).unwrap();
        let logits = fully_connected(&flat, &wgen.generate(fc));
        assert_eq!(logits.len(), 10);
    }
}
