//! Bit-exact serialization of UCNN tables — the DRAM image the accelerator
//! actually streams (paper §IV-B).
//!
//! [`encoding`](crate::encoding) *counts* table bits; this module
//! materializes them. The format is the `G = 1` hardware layout:
//!
//! * a per-tile header: tile length, entry count, and the filter's **weight
//!   stream** (the distinct weights actually present, in canonical order —
//!   what the PE's `U`-entry weight buffer is filled with),
//! * the packed entry stream: per entry a `ceil(log2 tile_len)`-bit input
//!   pointer (`iiT`) and a 1-bit group-transition flag (`wiT`); a set flag
//!   means "this entry completes the current activation group; advance the
//!   weight stream".
//!
//! Zero weights never appear: their positions are omitted from the stream
//! and the weight stream holds only non-zero values — weight sparsity as a
//! special case of repetition.
//!
//! Decoding is lossless: [`unpack_filter`] reconstructs the exact
//! [`FilterFactorization`] that was packed, and the round trip is
//! property-tested. `G > 1` streams add per-filter transition fields with
//! data-dependent skip entries (§IV-C) and are accounted (not serialized)
//! by [`encoding`](crate::encoding); their layout is hardware-internal in
//! the paper as well.

use crate::encoding::pointer_bits;
use crate::factorize::{ActivationGroup, FilterFactorization};

/// A little-endian-bit-order bit writer.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `width` bits of `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `width > 32` or `value` does not fit in `width` bits.
    pub fn push(&mut self, value: u32, width: u32) {
        assert!(width <= 32, "width must be <= 32");
        assert!(
            width == 32 || value < (1u32 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in 0..width {
            let bit = (value >> i) & 1;
            let pos = self.bit_len;
            if pos / 8 == self.bytes.len() {
                self.bytes.push(0);
            }
            self.bytes[pos / 8] |= (bit as u8) << (pos % 8);
            self.bit_len += 1;
        }
    }

    /// Bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Finishes and returns the byte image (zero-padded to a byte boundary).
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// The matching bit reader.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over a byte image.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads `width` bits (LSB first).
    ///
    /// # Errors
    ///
    /// Returns [`UnpackError::OutOfData`] past the end of the image.
    pub fn read(&mut self, width: u32) -> Result<u32, UnpackError> {
        if self.pos + width as usize > self.bytes.len() * 8 {
            return Err(UnpackError::OutOfData);
        }
        let mut value = 0u32;
        for i in 0..width {
            let pos = self.pos;
            let bit = (self.bytes[pos / 8] >> (pos % 8)) & 1;
            value |= u32::from(bit) << i;
            self.pos += 1;
        }
        Ok(value)
    }
}

/// Errors produced by [`unpack_filter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnpackError {
    /// The image ended mid-field.
    OutOfData,
    /// A pointer referenced a position outside the tile.
    PointerOutOfRange,
    /// More group transitions than weight-stream entries.
    WeightStreamExhausted,
    /// The final entry did not close its group ("filter done" missing).
    UnterminatedGroup,
}

impl core::fmt::Display for UnpackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UnpackError::OutOfData => write!(f, "bitstream ended mid-field"),
            UnpackError::PointerOutOfRange => write!(f, "input pointer outside the tile"),
            UnpackError::WeightStreamExhausted => {
                write!(f, "more group transitions than stream weights")
            }
            UnpackError::UnterminatedGroup => write!(f, "final activation group not closed"),
        }
    }
}

impl std::error::Error for UnpackError {}

/// Packs one filter's factorization into the §IV-B DRAM layout.
///
/// Layout (bit-packed, LSB first):
///
/// ```text
/// u16 tile_len | u16 entry_count | u16 weight_count | weight_count × i16
/// entry_count × { ptr : ceil(log2 tile_len) bits, transition : 1 bit }
/// ```
///
/// # Examples
///
/// ```
/// use ucnn_core::bitstream::{pack_filter, unpack_filter};
/// use ucnn_core::factorize::FilterFactorization;
///
/// let fact = FilterFactorization::build(&[3, 5, 3, 0]);
/// let image = pack_filter(&fact);
/// let back = unpack_filter(&image).unwrap();
/// assert_eq!(back, fact);
/// ```
#[must_use]
pub fn pack_filter(fact: &FilterFactorization) -> Vec<u8> {
    let mut w = BitWriter::new();
    let tile_len = fact.filter_len();
    let ptr_bits = pointer_bits(tile_len);
    w.push(tile_len as u32, 16);
    w.push(fact.entry_count() as u32, 16);
    w.push(fact.group_count() as u32, 16);
    for group in fact.groups() {
        w.push(group.weight() as u16 as u32, 16);
    }
    for group in fact.groups() {
        let last = group.len() - 1;
        for (i, &idx) in group.indices().iter().enumerate() {
            w.push(idx, ptr_bits);
            w.push(u32::from(i == last), 1);
        }
    }
    w.into_bytes()
}

/// Decodes a [`pack_filter`] image back into the exact factorization.
///
/// # Errors
///
/// Returns an [`UnpackError`] on any malformed image (truncation, pointer
/// out of range, missing terminator, weight-stream mismatch).
pub fn unpack_filter(bytes: &[u8]) -> Result<FilterFactorization, UnpackError> {
    let mut r = BitReader::new(bytes);
    let tile_len = r.read(16)? as usize;
    let entry_count = r.read(16)? as usize;
    let weight_count = r.read(16)? as usize;
    let ptr_bits = pointer_bits(tile_len);

    let mut weights = Vec::with_capacity(weight_count);
    for _ in 0..weight_count {
        weights.push(r.read(16)? as u16 as i16);
    }

    // Reconstruct the dense filter: walk entries, assigning the current
    // stream weight, advancing on each transition bit.
    let mut dense = vec![0i16; tile_len.max(1)];
    let mut weight_idx = 0usize;
    let mut open_group = false;
    for _ in 0..entry_count {
        let ptr = r.read(ptr_bits)? as usize;
        let transition = r.read(1)? == 1;
        if ptr >= tile_len {
            return Err(UnpackError::PointerOutOfRange);
        }
        if weight_idx >= weights.len() {
            return Err(UnpackError::WeightStreamExhausted);
        }
        dense[ptr] = weights[weight_idx];
        open_group = true;
        if transition {
            weight_idx += 1;
            open_group = false;
        }
    }
    if open_group {
        return Err(UnpackError::UnterminatedGroup);
    }
    Ok(FilterFactorization::build(&dense))
}

/// Packs a whole layer: every filter's tables concatenated with byte
/// alignment per filter — the layer's DRAM weight image.
#[must_use]
pub fn pack_layer(facts: &[FilterFactorization]) -> Vec<u8> {
    let mut out = Vec::new();
    for fact in facts {
        let image = pack_filter(fact);
        let len = image.len() as u32;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&image);
    }
    out
}

/// Decodes a [`pack_layer`] image.
///
/// # Errors
///
/// Returns an [`UnpackError`] if any per-filter record is malformed.
pub fn unpack_layer(mut bytes: &[u8]) -> Result<Vec<FilterFactorization>, UnpackError> {
    let mut facts = Vec::new();
    while !bytes.is_empty() {
        if bytes.len() < 4 {
            return Err(UnpackError::OutOfData);
        }
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        bytes = &bytes[4..];
        if bytes.len() < len {
            return Err(UnpackError::OutOfData);
        }
        facts.push(unpack_filter(&bytes[..len])?);
        bytes = &bytes[len..];
    }
    Ok(facts)
}

/// The exact packed size in bits of one filter's tables (header included).
#[must_use]
pub fn packed_bits(fact: &FilterFactorization) -> usize {
    48 + fact.group_count() * 16
        + fact.entry_count() * (pointer_bits(fact.filter_len()) + 1) as usize
}

/// Convenience: groups in a factorization, exposed for format tests.
#[must_use]
pub fn group_weights(fact: &FilterFactorization) -> Vec<i16> {
    fact.groups().iter().map(ActivationGroup::weight).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_filter() {
        let fact = FilterFactorization::build(&[2, -1, 2, 0, -1, 2, 0, 7]);
        let image = pack_filter(&fact);
        assert_eq!(unpack_filter(&image).unwrap(), fact);
    }

    #[test]
    fn packed_bits_is_exact() {
        let fact = FilterFactorization::build(&[2, -1, 2, 0, -1, 2, 0, 7]);
        let image = pack_filter(&fact);
        let bits = packed_bits(&fact);
        assert_eq!(image.len(), bits.div_ceil(8));
        // Entry payload matches the §IV-B accounting: ptr + 1 wiT bit.
        assert_eq!(
            bits - 48 - fact.group_count() * 16,
            fact.entry_count() * (pointer_bits(8) + 1) as usize
        );
    }

    #[test]
    fn all_zero_filter_packs_to_header_only() {
        let fact = FilterFactorization::build(&[0i16; 16]);
        let image = pack_filter(&fact);
        assert_eq!(image.len(), 6); // three u16 header fields
        let back = unpack_filter(&image).unwrap();
        assert_eq!(back.group_count(), 0);
        assert_eq!(back.zero_count(), 16);
    }

    #[test]
    fn dense_equivalence_after_roundtrip() {
        // The reconstructed factorization computes identical dot products.
        let w = [5i16, 0, -3, 5, 5, -3, 0, 9, 9, 1];
        let fact = FilterFactorization::build(&w);
        let back = unpack_filter(&pack_filter(&fact)).unwrap();
        let acts: Vec<i16> = (0..10).map(|i| (i * 7 % 11) as i16).collect();
        assert_eq!(back.dot(&acts), FilterFactorization::dense_dot(&w, &acts));
    }

    #[test]
    fn layer_roundtrip() {
        let filters: Vec<FilterFactorization> = (0..5)
            .map(|k| {
                let w: Vec<i16> = (0..27).map(|i| ((i * (k + 2)) % 5) as i16 - 2).collect();
                FilterFactorization::build(&w)
            })
            .collect();
        let image = pack_layer(&filters);
        assert_eq!(unpack_layer(&image).unwrap(), filters);
    }

    #[test]
    fn truncated_image_is_rejected() {
        let fact = FilterFactorization::build(&[1i16, 2, 1, 2]);
        let image = pack_filter(&fact);
        for cut in 1..image.len() {
            assert!(
                unpack_filter(&image[..image.len() - cut]).is_err(),
                "cut {cut} accepted"
            );
        }
    }

    #[test]
    fn corrupt_pointer_is_rejected() {
        // Tile of 3 with an entry pointer forced to 3 (out of range).
        let mut w = BitWriter::new();
        w.push(3, 16); // tile_len
        w.push(1, 16); // entries
        w.push(1, 16); // weights
        w.push(7i16 as u16 as u32, 16);
        w.push(3, pointer_bits(3)); // invalid ptr
        w.push(1, 1);
        assert_eq!(
            unpack_filter(&w.into_bytes()),
            Err(UnpackError::PointerOutOfRange)
        );
    }

    #[test]
    fn missing_terminator_is_rejected() {
        let mut w = BitWriter::new();
        w.push(4, 16);
        w.push(2, 16);
        w.push(1, 16);
        w.push(5i16 as u16 as u32, 16);
        w.push(0, pointer_bits(4));
        w.push(0, 1); // no transition
        w.push(1, pointer_bits(4));
        w.push(0, 1); // still no transition at the last entry
        assert_eq!(
            unpack_filter(&w.into_bytes()),
            Err(UnpackError::UnterminatedGroup)
        );
    }

    #[test]
    fn bitwriter_reader_agree_on_mixed_widths() {
        let mut w = BitWriter::new();
        let fields = [
            (5u32, 3u32),
            (0, 1),
            (1023, 10),
            (1, 1),
            (65535, 16),
            (0, 7),
        ];
        for &(v, width) in &fields {
            w.push(v, width);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, width) in &fields {
            assert_eq!(r.read(width).unwrap(), v);
        }
        assert!(r.read(64 * 8).is_err());
    }

    #[test]
    fn negative_weights_survive_the_u16_transport() {
        let fact = FilterFactorization::build(&[-32768i16, 42, -32768, 0]);
        let back = unpack_filter(&pack_filter(&fact)).unwrap();
        assert_eq!(group_weights(&back), group_weights(&fact));
    }
}
