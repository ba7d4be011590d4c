//! Functional factorized convolution: executes full layers through the
//! UCNN stream semantics and produces outputs **bit-identical** to the dense
//! reference (`ucnn_model::reference::conv2d`).
//!
//! This is the end-to-end correctness anchor for the whole reproduction: if
//! the factorization, hierarchical sorting, or zero handling were wrong in
//! any way, these outputs would diverge from the dense reference.

use ucnn_model::reference;
use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};

use crate::compile::{canonical_of_tensor, tile_spans, UcnnConfig};
use crate::hierarchy::{GroupStream, ZERO_RANK};
use crate::plan::CompiledLayer;

/// Runs a convolutional layer through UCNN's factorized dataflow.
///
/// Filters are processed in groups of `config.g` sharing one stream, over
/// channel tiles of `config.ct`, exactly as the hardware would. Works for
/// grouped convolutions (`conv_groups > 1`; filter groups never span channel
/// groups) and fully connected layers expressed as 1×1 convolutions.
///
/// # Panics
///
/// Panics if tensor shapes disagree with `geom`/`conv_groups` (same
/// contract as [`reference::conv2d`]), or if `config.ct == 0`.
///
/// # Examples
///
/// ```
/// use ucnn_core::compile::UcnnConfig;
/// use ucnn_core::exec::factorized_conv;
/// use ucnn_model::reference;
/// use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};
///
/// let geom = ConvGeom::new(6, 6, 4, 4, 3, 3);
/// let input = Tensor3::from_fn(4, 6, 6, |c, x, y| ((c + 2 * x + y) % 5) as i16);
/// let filters = Tensor4::from_fn(4, 4, 3, 3, |k, c, r, s| ((k + c + r + s) % 3) as i16 - 1);
/// let fast = factorized_conv(&geom, 1, &input, &filters, &UcnnConfig::with_g(2));
/// let slow = reference::conv2d(&geom, 1, &input, &filters);
/// assert_eq!(fast, slow);
/// ```
#[must_use]
pub fn factorized_conv(
    geom: &ConvGeom,
    conv_groups: usize,
    input: &Tensor3<i16>,
    filters: &Tensor4<i16>,
    config: &UcnnConfig,
) -> Tensor3<i32> {
    assert_eq!(input.c(), geom.c() * conv_groups, "input channel mismatch");
    assert_eq!(filters.k(), geom.k(), "filter count mismatch");
    assert!(
        conv_groups > 0 && geom.k().is_multiple_of(conv_groups),
        "bad group count"
    );

    let (out_w, out_h) = (geom.out_w(), geom.out_h());
    let (r_dim, s_dim, c_dim) = (geom.r(), geom.s(), geom.c());
    let rs = r_dim * s_dim;
    let stride = geom.stride() as isize;
    let pad = geom.pad() as isize;
    let ct = config.effective_ct(c_dim);
    let mut builder = canonical_of_tensor(filters);
    let mut slices: Vec<&[i16]> = Vec::with_capacity(config.g);

    let mut out = Tensor3::<i32>::zeros(geom.k(), out_w, out_h);
    let (mut psum, mut reg) = (Vec::new(), Vec::new());

    for (ks, cs, c_first) in tile_spans(geom.k(), c_dim, conv_groups, config.g, ct) {
        let k_first = ks.start;
        slices.clear();
        slices.extend(ks.map(|ki| &filters.filter(ki)[cs.start * rs..cs.end * rs]));
        let stream = builder.build(&slices);
        accumulate_tile(
            &stream, input, &mut out, k_first, c_first, rs, s_dim, stride, pad, out_w, out_h,
            &mut psum, &mut reg,
        );
    }
    out
}

/// Executes a [`CompiledLayer`] against an input — the serving hot path.
///
/// Identical arithmetic to [`factorized_conv`], but the sort/factorize work
/// is done once per plan, on the first call (or
/// [`CompiledNetwork::warm`](crate::plan::CompiledNetwork::warm)): this
/// function only walks the retained streams, so repeated inference of the
/// same layer stops paying the per-call compilation cost.
///
/// # Panics
///
/// Panics if `input` does not match the compiled layer's geometry.
///
/// # Examples
///
/// ```
/// use ucnn_core::compile::UcnnConfig;
/// use ucnn_core::exec::{factorized_conv, run_compiled};
/// use ucnn_core::plan::CompiledLayer;
/// use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};
///
/// let geom = ConvGeom::new(5, 5, 3, 2, 3, 3);
/// let filters = Tensor4::from_fn(2, 3, 3, 3, |k, c, r, s| ((k + c + r + s) % 3) as i16);
/// let input = Tensor3::from_fn(3, 5, 5, |c, x, y| ((c + x + 2 * y) % 7) as i16);
/// let cfg = UcnnConfig::with_g(2);
/// let layer = CompiledLayer::compile(&geom, 1, &filters, &cfg);
/// assert_eq!(run_compiled(&layer, &input), factorized_conv(&geom, 1, &input, &filters, &cfg));
/// ```
#[must_use]
pub fn run_compiled(layer: &CompiledLayer, input: &Tensor3<i16>) -> Tensor3<i32> {
    let geom = layer.geom();
    assert_eq!(
        input.c(),
        geom.c() * layer.conv_groups(),
        "input channel mismatch"
    );
    assert!(
        input.w() == geom.in_w() && input.h() == geom.in_h(),
        "input plane mismatch"
    );

    let (out_w, out_h) = (geom.out_w(), geom.out_h());
    let rs = geom.r() * geom.s();
    let s_dim = geom.s();
    let stride = geom.stride() as isize;
    let pad = geom.pad() as isize;

    let mut out = Tensor3::<i32>::zeros(geom.k(), out_w, out_h);
    let (mut psum, mut reg) = (Vec::new(), Vec::new());
    for tile in layer.tiles() {
        accumulate_tile(
            tile.stream(),
            input,
            &mut out,
            tile.k_first(),
            tile.c_first(),
            rs,
            s_dim,
            stride,
            pad,
            out_w,
            out_h,
            &mut psum,
            &mut reg,
        );
    }
    out
}

/// Executes a [`CompiledLayer`] over a whole batch of inputs, batch-major —
/// the serving hot path under load.
///
/// [`run_compiled`] walks every retained stream once **per image**, so a
/// batch of `B` inferences re-reads the same indirection tables `B` times.
/// This function inverts the loop nest (group-major over the batch instead
/// of image-major over the groups): each stream entry is decoded to input
/// coordinates exactly once, and the gathered activation feeds all `B`
/// images' accumulators before the walk advances. Stream decode, index
/// arithmetic, and group-closure bookkeeping are thereby amortized across
/// the batch — the software analogue of the paper's premise that reuse
/// structures pay off when their traversal cost is shared (§IV).
///
/// Outputs are **bit-identical** to `B` independent [`run_compiled`] calls:
/// per image, the same additions and multiplies happen in the same order.
///
/// # Panics
///
/// Panics if any input does not match the compiled layer's geometry.
///
/// # Examples
///
/// ```
/// use ucnn_core::compile::UcnnConfig;
/// use ucnn_core::exec::{run_compiled, run_compiled_batch};
/// use ucnn_core::plan::CompiledLayer;
/// use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};
///
/// let geom = ConvGeom::new(5, 5, 3, 2, 3, 3);
/// let filters = Tensor4::from_fn(2, 3, 3, 3, |k, c, r, s| ((k + c + r + s) % 3) as i16);
/// let layer = CompiledLayer::compile(&geom, 1, &filters, &UcnnConfig::with_g(2));
/// let inputs: Vec<Tensor3<i16>> = (0..4)
///     .map(|b| Tensor3::from_fn(3, 5, 5, |c, x, y| ((b + c + x + 2 * y) % 7) as i16))
///     .collect();
/// let batched = run_compiled_batch(&layer, &inputs);
/// for (input, out) in inputs.iter().zip(&batched) {
///     assert_eq!(out, &run_compiled(&layer, input)); // one walk served all four
/// }
/// ```
#[must_use]
pub fn run_compiled_batch(layer: &CompiledLayer, inputs: &[Tensor3<i16>]) -> Vec<Tensor3<i32>> {
    check_batch_inputs(layer, inputs);
    if inputs.is_empty() {
        return Vec::new();
    }
    // A batch of one amortizes nothing and would pay the batch-major walk's
    // scratch indirection; the per-image walk is the same arithmetic. With
    // B = 1 sent through the batch-major walk instead, `serve_closed_c2`
    // (batch near 1) read `throughput_vs_dense` 0.88 → 0.52 and
    // `lat_p50_vs_dense` 2.02 → 3.50, 4 of 4 pairs (docs/LAB.md Part 20).
    if let [input] = inputs {
        return vec![run_compiled(layer, input)];
    }
    let geom = layer.geom();
    let (out_w, out_h) = (geom.out_w(), geom.out_h());
    let rs = geom.r() * geom.s();
    let s_dim = geom.s();
    let stride = geom.stride() as isize;
    let pad = geom.pad() as isize;

    let mut outs: Vec<Tensor3<i32>> = inputs
        .iter()
        .map(|_| Tensor3::zeros(geom.k(), out_w, out_h))
        .collect();
    let mut out_slices: Vec<&mut [i32]> = outs.iter_mut().map(Tensor3::as_mut_slice).collect();
    for tile in layer.tiles() {
        accumulate_tile_batch(
            tile.stream(),
            inputs,
            &mut out_slices,
            tile.k_first(),
            tile.c_first(),
            rs,
            s_dim,
            stride,
            pad,
            out_w,
            out_h,
        );
    }
    outs
}

/// Asserts every batch input matches the compiled layer's geometry.
fn check_batch_inputs(layer: &CompiledLayer, inputs: &[Tensor3<i16>]) {
    let geom = layer.geom();
    let channels = geom.c() * layer.conv_groups();
    for input in inputs {
        assert_eq!(input.c(), channels, "input channel mismatch");
        assert!(
            input.w() == geom.in_w() && input.h() == geom.in_h(),
            "input plane mismatch"
        );
    }
}

/// Batch-major core: walks one stream once per output position and feeds
/// every image's accumulators from the single decoded entry. `outs` holds
/// per-image output slices; this tile's filters land at local channels
/// `k_offset..k_offset + G` of each slice.
///
/// Per image, the arithmetic is operation-for-operation identical to
/// [`accumulate_tile`], which is what makes batched results bit-exact.
#[allow(clippy::too_many_arguments)]
fn accumulate_tile_batch(
    stream: &GroupStream,
    inputs: &[Tensor3<i16>],
    outs: &mut [&mut [i32]],
    k_offset: usize,
    c_first: usize,
    rs: usize,
    s_dim: usize,
    stride: isize,
    pad: isize,
    out_w: usize,
    out_h: usize,
) {
    let b = inputs.len();
    debug_assert_eq!(outs.len(), b);
    let g = stream.g();
    let canonical = stream.canonical();
    let n = stream.entry_count();
    let (in_w, in_h) = (inputs[0].w(), inputs[0].h());
    let in_slices: Vec<&[i16]> = inputs.iter().map(Tensor3::as_slice).collect();

    let mut psum = vec![0i32; g * b];
    let mut reg = vec![0i32; g.saturating_sub(1) * b];
    let mut acc = vec![0i32; b];
    let mut carry = vec![0i32; b];

    for x in 0..out_w {
        for y in 0..out_h {
            psum.fill(0);
            reg.fill(0);
            acc.fill(0);
            for i in 0..n {
                let e = stream.entry(i);
                let p = e.index as usize;
                let c = p / rs;
                let rem = p % rs;
                let r = rem / s_dim;
                let s = rem % s_dim;
                let ix = x as isize * stride + r as isize - pad;
                let iy = y as isize * stride + s as isize - pad;
                // Decode once, gather for all B images. Padding halo reads
                // are zero and add nothing, so the whole batch skips them.
                if ix >= 0 && iy >= 0 && (ix as usize) < in_w && (iy as usize) < in_h {
                    let off = ((c_first + c) * in_w + ix as usize) * in_h + iy as usize;
                    for (a, img) in acc.iter_mut().zip(&in_slices) {
                        *a += i32::from(img[off]);
                    }
                }
                let Some(cl) = e.close_level else { continue };
                let l = cl as usize;
                carry.copy_from_slice(&acc);
                acc.fill(0);
                for level in (l..g).rev() {
                    if level < g - 1 {
                        let regs = &mut reg[level * b..(level + 1) * b];
                        for (rg, t) in regs.iter_mut().zip(carry.iter_mut()) {
                            *rg += *t;
                            *t = *rg;
                            *rg = 0;
                        }
                    }
                    let rank = e.ranks[level];
                    if rank != ZERO_RANK {
                        let weight = i32::from(canonical[rank as usize]);
                        let sums = &mut psum[level * b..(level + 1) * b];
                        for (ps, &t) in sums.iter_mut().zip(carry.iter()) {
                            *ps += t * weight;
                        }
                    }
                }
                if l > 0 {
                    let regs = &mut reg[(l - 1) * b..l * b];
                    for (rg, &t) in regs.iter_mut().zip(carry.iter()) {
                        *rg += t;
                    }
                }
            }
            for level in 0..g {
                let off = ((k_offset + level) * out_w + x) * out_h + y;
                for (out, &ps) in outs.iter_mut().zip(&psum[level * b..(level + 1) * b]) {
                    out[off] += ps;
                }
            }
        }
    }
}

/// Walks one stream for every output position, adding the `G` partial sums
/// into the output tensor. Reproduces the Figure 6/7 accumulator semantics
/// (see [`GroupStream::dot_group`]) with the tile position decoded to input
/// coordinates on the fly. `psum`/`reg` are caller-provided scratch, resized
/// as needed — the callers hold them across tiles so the per-layer hot path
/// does not allocate per tile.
#[allow(clippy::too_many_arguments)]
fn accumulate_tile(
    stream: &GroupStream,
    input: &Tensor3<i16>,
    out: &mut Tensor3<i32>,
    k_first: usize,
    c_first: usize,
    rs: usize,
    s_dim: usize,
    stride: isize,
    pad: isize,
    out_w: usize,
    out_h: usize,
    psum: &mut Vec<i32>,
    reg: &mut Vec<i32>,
) {
    let g = stream.g();
    let canonical = stream.canonical();
    let n = stream.entry_count();
    psum.clear();
    psum.resize(g, 0);
    reg.clear();
    reg.resize(g.saturating_sub(1), 0);

    for x in 0..out_w {
        for y in 0..out_h {
            psum.iter_mut().for_each(|p| *p = 0);
            reg.iter_mut().for_each(|p| *p = 0);
            let mut acc = 0i32;
            for i in 0..n {
                let e = stream.entry(i);
                let p = e.index as usize;
                let c = p / rs;
                let rem = p % rs;
                let r = rem / s_dim;
                let s = rem % s_dim;
                let ix = x as isize * stride + r as isize - pad;
                let iy = y as isize * stride + s as isize - pad;
                acc += i32::from(input.at_padded(c_first + c, ix, iy));
                let Some(cl) = e.close_level else { continue };
                let l = cl as usize;
                let mut t = acc;
                acc = 0;
                for level in (l..g).rev() {
                    if level < g - 1 {
                        reg[level] += t;
                        t = reg[level];
                        reg[level] = 0;
                    }
                    let rank = e.ranks[level];
                    if rank != ZERO_RANK {
                        psum[level] += t * i32::from(canonical[rank as usize]);
                    }
                }
                if l > 0 {
                    reg[l - 1] += t;
                }
            }
            for (level, &p) in psum.iter().enumerate() {
                out[(k_first + level, x, y)] += p;
            }
        }
    }
}

/// Convenience check used across the test suite and benches: runs both the
/// factorized and the dense executors and asserts equality.
///
/// Returns the (shared) output.
///
/// # Panics
///
/// Panics if the two executors disagree — which constitutes a correctness
/// bug in this crate.
#[must_use]
pub fn verified_conv(
    geom: &ConvGeom,
    conv_groups: usize,
    input: &Tensor3<i16>,
    filters: &Tensor4<i16>,
    config: &UcnnConfig,
) -> Tensor3<i32> {
    let fast = factorized_conv(geom, conv_groups, input, filters, config);
    let slow = reference::conv2d(geom, conv_groups, input, filters);
    assert_eq!(
        fast, slow,
        "factorized executor diverged from dense reference"
    );
    fast
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucnn_model::{networks, ActivationGen, QuantScheme, WeightGen};

    fn run_case(
        geom: ConvGeom,
        conv_groups: usize,
        scheme: QuantScheme,
        density: f64,
        g: usize,
        ct: usize,
        seed: u64,
    ) {
        let mut wgen = WeightGen::new(scheme, seed).with_density(density);
        let weights = wgen.generate_dims(geom.k(), geom.c(), geom.r(), geom.s());
        let mut agen = ActivationGen::new(seed ^ 0xFFFF).with_density(0.35);
        let input = agen.generate(geom.c() * conv_groups, geom.in_w(), geom.in_h());
        let cfg = UcnnConfig {
            g,
            ct,
            ..UcnnConfig::default()
        };
        let out = verified_conv(&geom, conv_groups, &input, &weights, &cfg);
        // The retained-plan path must agree with the transient one.
        let layer = CompiledLayer::compile(&geom, conv_groups, &weights, &cfg);
        assert_eq!(
            run_compiled(&layer, &input),
            out,
            "run_compiled diverged from factorized_conv"
        );
        // The batch-major path must agree with per-image execution.
        let inputs: Vec<Tensor3<i16>> = std::iter::once(input)
            .chain((0..2).map(|_| agen.generate(geom.c() * conv_groups, geom.in_w(), geom.in_h())))
            .collect();
        let expected: Vec<Tensor3<i32>> = inputs.iter().map(|i| run_compiled(&layer, i)).collect();
        assert_eq!(
            run_compiled_batch(&layer, &inputs),
            expected,
            "run_compiled_batch diverged from sequential run_compiled"
        );
    }

    #[test]
    fn matches_reference_g1() {
        run_case(
            ConvGeom::new(8, 8, 6, 4, 3, 3),
            1,
            QuantScheme::inq(),
            0.9,
            1,
            64,
            1,
        );
    }

    #[test]
    fn matches_reference_g2_with_channel_tiling() {
        run_case(
            ConvGeom::new(8, 8, 10, 4, 3, 3),
            1,
            QuantScheme::inq(),
            0.65,
            2,
            4,
            2,
        );
    }

    #[test]
    fn matches_reference_g4_ttq() {
        run_case(
            ConvGeom::new(6, 6, 8, 8, 3, 3),
            1,
            QuantScheme::ttq(),
            0.5,
            4,
            8,
            3,
        );
    }

    #[test]
    fn matches_reference_strided_padded() {
        let geom = ConvGeom::new(11, 9, 5, 6, 3, 3).with_stride(2).with_pad(1);
        run_case(geom, 1, QuantScheme::uniform_unique(9), 0.7, 2, 3, 4);
    }

    #[test]
    fn matches_reference_grouped_conv() {
        // 2 conv groups, filter groups must not span them.
        let geom = ConvGeom::new(7, 7, 4, 6, 3, 3).with_pad(1);
        run_case(geom, 2, QuantScheme::inq(), 0.8, 2, 4, 5);
    }

    #[test]
    fn matches_reference_1x1_fc_style() {
        let geom = ConvGeom::new(1, 1, 64, 10, 1, 1);
        run_case(geom, 1, QuantScheme::ttq(), 0.5, 2, 16, 6);
    }

    #[test]
    fn matches_reference_when_g_exceeds_k() {
        let geom = ConvGeom::new(5, 5, 4, 3, 3, 3);
        run_case(geom, 1, QuantScheme::inq(), 0.9, 8, 64, 7);
    }

    #[test]
    fn matches_reference_fully_dense() {
        run_case(
            ConvGeom::new(6, 6, 4, 4, 3, 3),
            1,
            QuantScheme::uniform_unique(5),
            1.0,
            2,
            2,
            8,
        );
    }

    #[test]
    fn matches_reference_very_sparse() {
        run_case(
            ConvGeom::new(6, 6, 4, 4, 3, 3),
            1,
            QuantScheme::uniform_unique(17),
            0.1,
            2,
            4,
            9,
        );
    }

    #[test]
    fn batch_of_one_and_empty_batch() {
        let geom = ConvGeom::new(6, 6, 4, 4, 3, 3);
        let mut wgen = WeightGen::new(QuantScheme::inq(), 40).with_density(0.8);
        let weights = wgen.generate_dims(4, 4, 3, 3);
        let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::with_g(2));
        let mut agen = ActivationGen::new(41);
        let input = agen.generate(4, 6, 6);
        let batch = run_compiled_batch(&layer, std::slice::from_ref(&input));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0], run_compiled(&layer, &input));
        assert!(run_compiled_batch(&layer, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "input plane mismatch")]
    fn batch_rejects_mismatched_input() {
        let geom = ConvGeom::new(6, 6, 4, 4, 3, 3);
        let weights = Tensor4::from_fn(4, 4, 3, 3, |_, _, _, _| 1i16);
        let layer = CompiledLayer::compile(&geom, 1, &weights, &UcnnConfig::default());
        let good = Tensor3::filled(4, 6, 6, 1i16);
        let bad = Tensor3::filled(4, 5, 5, 1i16);
        let _ = run_compiled_batch(&layer, &[good, bad]);
    }

    #[test]
    #[should_panic(expected = "Ct = 0 cannot tile channels")]
    fn factorized_conv_rejects_zero_ct() {
        let geom = ConvGeom::new(4, 4, 2, 2, 3, 3);
        let input = Tensor3::filled(2, 4, 4, 1i16);
        let filters = Tensor4::from_fn(2, 2, 3, 3, |_, _, _, _| 1i16);
        let cfg = UcnnConfig {
            ct: 0,
            ..UcnnConfig::default()
        };
        let _ = factorized_conv(&geom, 1, &input, &filters, &cfg);
    }

    #[test]
    fn tiny_network_layer_sweep() {
        let net = networks::tiny();
        for layer in net.conv_layers() {
            let geom = layer.geom();
            if geom.in_w() * geom.in_h() > 400 {
                continue;
            }
            for g in [1usize, 2, 3] {
                run_case(
                    geom,
                    layer.groups(),
                    QuantScheme::inq(),
                    0.9,
                    g,
                    8,
                    10 + g as u64,
                );
            }
        }
    }
}
