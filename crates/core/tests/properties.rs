//! Property-based tests for the UCNN core: the factorized forms must be
//! bit-identical to dense arithmetic for *any* weights, and the table
//! accounting must obey its structural invariants.

use proptest::prelude::*;

use ucnn_core::backend::BackendKind;
use ucnn_core::compile::{compile_layer, UcnnConfig};
use ucnn_core::encoding::{rle_bits, rle_bits_capped, table_cost, EncodingParams, IitEncoding};
use ucnn_core::exec::factorized_conv;
use ucnn_core::factorize::FilterFactorization;
use ucnn_core::hierarchy::GroupStream;
use ucnn_core::plan::CompiledLayer;
use ucnn_model::reference;
use ucnn_tensor::{ConvGeom, Tensor3, Tensor4};

/// Strategy: a weight vector over a small alphabet (including zero).
fn weight_vec(len: usize, u: i16) -> impl Strategy<Value = Vec<i16>> {
    proptest::collection::vec(-(u / 2)..=(u / 2), len)
}

proptest! {
    /// §III-A: a factorized dot product equals the dense dot product.
    #[test]
    fn factorized_dot_equals_dense(
        w in weight_vec(40, 8),
        a in proptest::collection::vec(-50i16..=50, 40),
    ) {
        let f = FilterFactorization::build(&w);
        prop_assert_eq!(f.dot(&a), FilterFactorization::dense_dot(&w, &a));
    }

    /// §III-A property 2/3: group count = distinct non-zero values; group
    /// sizes are the repetition counts; entries + zeros = filter length.
    #[test]
    fn factorization_structure(w in weight_vec(60, 10)) {
        let f = FilterFactorization::build(&w);
        let mut distinct: Vec<i16> = w.iter().copied().filter(|&v| v != 0).collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(f.group_count(), distinct.len());
        prop_assert_eq!(f.entry_count() + f.zero_count(), w.len());
        for g in f.groups() {
            let count = w.iter().filter(|&&v| v == g.weight()).count();
            prop_assert_eq!(g.len(), count);
        }
    }

    /// §III-B: a G-filter shared walk equals G independent dense dot
    /// products, for any G in 1..=4.
    #[test]
    fn group_stream_equals_dense(
        g in 1usize..=4,
        seed in any::<u64>(),
        len in 8usize..48,
    ) {
        let mut state = seed | 1;
        let mut next = move |m: i16| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i16).rem_euclid(m) - m / 2
        };
        let filters: Vec<Vec<i16>> = (0..g).map(|_| (0..len).map(|_| next(9)).collect()).collect();
        let acts: Vec<i16> = (0..len).map(|_| next(101)).collect();
        let refs: Vec<&[i16]> = filters.iter().map(Vec::as_slice).collect();
        let stream = GroupStream::build(&refs);
        let got = stream.dot_group(&acts);
        for (fi, f) in filters.iter().enumerate() {
            let dense: i32 = f.iter().zip(&acts).map(|(&w, &x)| i32::from(w) * i32::from(x)).sum();
            prop_assert_eq!(got[fi], dense, "filter {}", fi);
        }
    }

    /// Stream entries = union of non-zero positions; dropped = all-zero
    /// positions.
    #[test]
    fn stream_entry_union_invariant(
        seed in any::<u64>(),
        g in 1usize..=3,
        len in 4usize..40,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 5) as i16 - 2
        };
        let filters: Vec<Vec<i16>> = (0..g).map(|_| (0..len).map(|_| next()).collect()).collect();
        let refs: Vec<&[i16]> = filters.iter().map(Vec::as_slice).collect();
        let stream = GroupStream::build(&refs);
        let union = (0..len).filter(|&p| filters.iter().any(|f| f[p] != 0)).count();
        prop_assert_eq!(stream.entry_count(), union);
        prop_assert_eq!(stream.dropped_zero_positions(), len - union);
    }

    /// Capped multiply count is monotone in the cap and bounded by entries.
    #[test]
    fn capped_multiplies_monotone(w in weight_vec(64, 6)) {
        prop_assume!(w.iter().any(|&v| v != 0));
        let stream = GroupStream::build(&[&w]);
        let m1 = stream.multiplies_with_cap(1);
        let m8 = stream.multiplies_with_cap(8);
        let m16 = stream.multiplies_with_cap(16);
        let m_inf = stream.multiplies_with_cap(usize::MAX / 2);
        prop_assert!(m1 >= m8 && m8 >= m16 && m16 >= m_inf);
        prop_assert_eq!(m1, stream.entry_count()); // cap 1 = dense
        prop_assert_eq!(m_inf, stream.multiplies());
    }

    /// Jump tables never store fewer entries than pointer tables, and total
    /// entries grow monotonically as jump width shrinks.
    #[test]
    fn jump_hops_monotone_in_width(w in weight_vec(128, 6)) {
        prop_assume!(w.iter().any(|&v| v != 0));
        let stream = GroupStream::build(&[&w]);
        let mut last = usize::MAX;
        for bits in [3u8, 4, 6, 8, 10] {
            let cost = table_cost(&stream, &EncodingParams {
                iit: IitEncoding::Jump { bits },
                ..EncodingParams::default()
            });
            prop_assert!(cost.total_entries() <= last);
            last = cost.total_entries();
        }
        let ptr = table_cost(&stream, &EncodingParams::default());
        prop_assert_eq!(last, ptr.data_entries); // wide jumps need no hops
    }

    /// RLE size is exact: decode length equals input length, and the capped
    /// variant never exceeds the dense size.
    #[test]
    fn rle_bounds(w in weight_vec(200, 4)) {
        let bits = rle_bits(&w, 8, 5);
        let nonzeros = w.iter().filter(|&&v| v != 0).count();
        prop_assert!(bits >= nonzeros * 13);
        prop_assert!(rle_bits_capped(&w, 8, 5) <= 200 * 8);
    }

    /// Full factorized convolution is bit-identical to the dense reference
    /// across geometry, grouping and tiling choices.
    #[test]
    fn factorized_conv_equals_reference(
        seed in any::<u64>(),
        g in 1usize..=3,
        ct in 1usize..=6,
        k in 1usize..=5,
        c in 1usize..=5,
        stride in 1usize..=2,
        pad in 0usize..=1,
    ) {
        let (w, h, r, s) = (6usize, 5usize, 2usize, 3usize);
        prop_assume!(ConvGeom::validated(w, h, c, k, r, s, stride, pad).is_ok());
        let geom = ConvGeom::validated(w, h, c, k, r, s, stride, pad).unwrap();
        let mut state = seed | 1;
        let mut next = move |m: i16| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i16).rem_euclid(m) - m / 2
        };
        let filters = Tensor4::from_fn(k, c, r, s, |_, _, _, _| next(7));
        let input = Tensor3::from_fn(c, w, h, |_, _, _| next(61));
        let cfg = UcnnConfig { g, ct, ..UcnnConfig::default() };
        let fast = factorized_conv(&geom, 1, &input, &filters, &cfg);
        let slow = reference::conv2d(&geom, 1, &input, &filters);
        prop_assert_eq!(fast, slow);
    }

    /// Every registered executor backend is bit-identical to the dense
    /// reference over random geometries — `stride > 1`, `conv_groups > 1`,
    /// ragged channel tiles (`ct ∤ C`) and batch sizes `B ∈ {1, 2, 7, 16}`
    /// — replacing the earlier pairwise-only
    /// equivalence checks with one all-backends property. A backend added
    /// to [`BackendKind::ALL`] is covered automatically.
    #[test]
    fn all_backends_bit_identical_to_reference(
        seed in any::<u64>(),
        g in 1usize..=3,
        ct in 1usize..=6,
        k_per_group in 1usize..=4,
        c in 2usize..=6,
        conv_groups in 1usize..=2,
        stride in 1usize..=3,
        pad in 0usize..=1,
        b_sel in 0usize..4,
    ) {
        let b = [1usize, 2, 7, 16][b_sel];
        let (w, h, r, s) = (7usize, 6usize, 3usize, 2usize);
        let k = k_per_group * conv_groups;
        prop_assume!(ConvGeom::validated(w, h, c, k, r, s, stride, pad).is_ok());
        let geom = ConvGeom::validated(w, h, c, k, r, s, stride, pad).unwrap();
        let mut state = seed | 1;
        let mut next = move |m: i16| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i16).rem_euclid(m) - m / 2
        };
        let filters = Tensor4::from_fn(k, c, r, s, |_, _, _, _| next(7));
        let inputs: Vec<Tensor3<i16>> = (0..b)
            .map(|_| Tensor3::from_fn(c * conv_groups, w, h, |_, _, _| next(61)))
            .collect();
        let cfg = UcnnConfig { g, ct, ..UcnnConfig::default() };
        let layer = CompiledLayer::compile(&geom, conv_groups, &filters, &cfg);
        let expected: Vec<Tensor3<i32>> = inputs
            .iter()
            .map(|i| reference::conv2d(&geom, conv_groups, i, &filters))
            .collect();
        for kind in BackendKind::ALL {
            let got = kind.run_layer(&layer, &inputs);
            prop_assert_eq!(
                &got, &expected,
                "backend {:?} diverged from the dense reference (B={})",
                kind, b
            );
            // Compile once, run twice: plans must not be consumed or
            // mutated by any backend.
            prop_assert_eq!(
                &kind.run_layer(&layer, &inputs), &got,
                "backend {:?} is not repeatable", kind
            );
        }
    }

    /// Compiled plan totals are internally consistent.
    #[test]
    fn plan_invariants(seed in any::<u64>(), g in 1usize..=3) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 6) as i16 - 2
        };
        let weights = Tensor4::from_fn(6, 4, 3, 3, |_, _, _, _| next());
        let plan = compile_layer(&weights, &UcnnConfig { g, ct: 2, ..UcnnConfig::default() });
        let t = plan.totals();
        // Entries never exceed dense weights; multiplies never exceed entries.
        prop_assert!(t.entries <= plan.dense_weights());
        prop_assert!(t.multiplies <= t.entries + t.closures);
        // Weight-buffer reads = non-zero closures ≤ closures.
        prop_assert!(t.weight_buffer_reads <= t.closures);
        // Model bits are positive whenever any weight is non-zero.
        if plan.nonzero_weights() > 0 {
            prop_assert!(plan.model_bits() > 0);
        }
        // G=1 entries equal non-zero weights exactly.
        if g == 1 {
            prop_assert_eq!(t.entries, plan.nonzero_weights());
        }
    }
}

proptest! {
    /// Bitstream round trip: pack → unpack reconstructs the exact
    /// factorization for arbitrary filters, and the image size matches the
    /// closed-form bit accounting.
    #[test]
    fn bitstream_roundtrip(w in weight_vec(64, 9)) {
        use ucnn_core::bitstream::{pack_filter, packed_bits, unpack_filter};
        let fact = FilterFactorization::build(&w);
        let image = pack_filter(&fact);
        prop_assert_eq!(image.len(), packed_bits(&fact).div_ceil(8));
        let back = unpack_filter(&image).unwrap();
        prop_assert_eq!(&back, &fact);
        // And the decoded tables compute identical dot products.
        let acts: Vec<i16> = (0..w.len()).map(|i| (i as i16 * 5) % 23 - 11).collect();
        prop_assert_eq!(back.dot(&acts), FilterFactorization::dense_dot(&w, &acts));
    }

    /// Layer images round-trip for any filter count.
    #[test]
    fn bitstream_layer_roundtrip(seed in any::<u64>(), k in 1usize..6) {
        use ucnn_core::bitstream::{pack_layer, unpack_layer};
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 7) as i16 - 3
        };
        let facts: Vec<FilterFactorization> = (0..k)
            .map(|_| {
                let w: Vec<i16> = (0..36).map(|_| next()).collect();
                FilterFactorization::build(&w)
            })
            .collect();
        let image = pack_layer(&facts);
        prop_assert_eq!(unpack_layer(&image).unwrap(), facts);
    }
}
