//! 3-D activation tensor, indexed `(c, x, y)`.

use crate::Elem;

/// A dense 3-D tensor holding activations, indexed `(channel, x, y)` with
/// `x ∈ [0, W)` and `y ∈ [0, H)`.
///
/// Storage is row-major over `(c, x, y)`: the `y` index varies fastest. This
/// matches the paper's `I[(c, x + r, y + s)]` lookups in Equation (1).
///
/// # Examples
///
/// ```
/// use ucnn_tensor::Tensor3;
///
/// let mut t = Tensor3::<i16>::zeros(2, 3, 4);
/// t[(1, 2, 3)] = 7;
/// assert_eq!(t[(1, 2, 3)], 7);
/// assert_eq!(t.get(1, 2, 3), Some(&7));
/// assert_eq!(t.get(2, 0, 0), None); // channel out of range
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Tensor3<T> {
    c: usize,
    w: usize,
    h: usize,
    data: Vec<T>,
}

impl<T: Elem> Tensor3<T> {
    /// Creates a `(c, w, h)` tensor filled with `T::default()` (zero).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the total size overflows `usize`.
    #[must_use]
    pub fn zeros(c: usize, w: usize, h: usize) -> Self {
        Self::filled(c, w, h, T::default())
    }

    /// Creates a `(c, w, h)` tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the total size overflows `usize`.
    #[must_use]
    pub fn filled(c: usize, w: usize, h: usize, value: T) -> Self {
        assert!(c > 0 && w > 0 && h > 0, "Tensor3 dims must be positive");
        let len = c
            .checked_mul(w)
            .and_then(|n| n.checked_mul(h))
            .expect("Tensor3 size overflow");
        Self {
            c,
            w,
            h,
            data: vec![value; len],
        }
    }

    /// Builds a tensor from a closure evaluated at every `(c, x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn from_fn(
        c: usize,
        w: usize,
        h: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut t = Self::zeros(c, w, h);
        for ci in 0..c {
            for x in 0..w {
                for y in 0..h {
                    t[(ci, x, y)] = f(ci, x, y);
                }
            }
        }
        t
    }

    /// Builds a tensor that takes ownership of `data`, interpreted row-major
    /// over `(c, x, y)`.
    ///
    /// # Errors
    ///
    /// Returns the data back if `data.len() != c·w·h` or a dimension is zero.
    pub fn from_vec(c: usize, w: usize, h: usize, data: Vec<T>) -> Result<Self, Vec<T>> {
        if c == 0 || w == 0 || h == 0 || data.len() != c * w * h {
            return Err(data);
        }
        Ok(Self { c, w, h, data })
    }

    /// Channel count `C`.
    #[must_use]
    pub fn c(&self) -> usize {
        self.c
    }

    /// Spatial width `W`.
    #[must_use]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Spatial height `H`.
    #[must_use]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Total element count `C·W·H`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: tensors have positive dimensions by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn offset(&self, c: usize, x: usize, y: usize) -> usize {
        (c * self.w + x) * self.h + y
    }

    /// Bounds-checked element access.
    #[inline]
    #[must_use]
    pub fn get(&self, c: usize, x: usize, y: usize) -> Option<&T> {
        if c < self.c && x < self.w && y < self.h {
            self.data.get(self.offset(c, x, y))
        } else {
            None
        }
    }

    /// Element access treating out-of-bounds coordinates as zero padding.
    ///
    /// Coordinates are signed so callers can address the halo produced by
    /// padding directly: `at_padded(c, -1, 0)` is the zero element just left
    /// of the input plane.
    #[inline]
    #[must_use]
    pub fn at_padded(&self, c: usize, x: isize, y: isize) -> T {
        if x < 0 || y < 0 {
            return T::default();
        }
        let (x, y) = (x as usize, y as usize);
        if c < self.c && x < self.w && y < self.h {
            self.data[self.offset(c, x, y)]
        } else {
            T::default()
        }
    }

    /// Immutable view of the backing storage (row-major over `(c, x, y)`).
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major over `(c, x, y)`).
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor and returns the backing storage.
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterates over `((c, x, y), value)` pairs in storage order.
    pub fn indexed_iter(&self) -> impl Iterator<Item = ((usize, usize, usize), T)> + '_ {
        let (w, h) = (self.w, self.h);
        self.data.iter().enumerate().map(move |(i, &v)| {
            let y = i % h;
            let x = (i / h) % w;
            let c = i / (w * h);
            ((c, x, y), v)
        })
    }

    /// Fraction of non-zero elements (the paper's "activation density").
    #[must_use]
    pub fn density(&self) -> f64 {
        let nonzero = self.data.iter().filter(|v| !v.is_zero()).count();
        nonzero as f64 / self.data.len() as f64
    }
}

/// [`Tensor3::as_slice`], for code generic over "anything holding a plane".
impl<T: Elem> AsRef<[T]> for Tensor3<T> {
    fn as_ref(&self) -> &[T] {
        &self.data
    }
}

/// [`Tensor3::as_mut_slice`], for code generic over "anything holding a
/// plane".
impl<T: Elem> AsMut<[T]> for Tensor3<T> {
    fn as_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Elem> core::ops::Index<(usize, usize, usize)> for Tensor3<T> {
    type Output = T;

    #[inline]
    fn index(&self, (c, x, y): (usize, usize, usize)) -> &T {
        assert!(
            c < self.c && x < self.w && y < self.h,
            "Tensor3 index ({c},{x},{y}) out of bounds ({},{},{})",
            self.c,
            self.w,
            self.h
        );
        &self.data[self.offset(c, x, y)]
    }
}

impl<T: Elem> core::ops::IndexMut<(usize, usize, usize)> for Tensor3<T> {
    #[inline]
    fn index_mut(&mut self, (c, x, y): (usize, usize, usize)) -> &mut T {
        assert!(
            c < self.c && x < self.w && y < self.h,
            "Tensor3 index ({c},{x},{y}) out of bounds ({},{},{})",
            self.c,
            self.w,
            self.h
        );
        let off = self.offset(c, x, y);
        &mut self.data[off]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_indexing() {
        let t = Tensor3::<i32>::from_fn(3, 4, 5, |c, x, y| (c * 100 + x * 10 + y) as i32);
        for c in 0..3 {
            for x in 0..4 {
                for y in 0..5 {
                    assert_eq!(t[(c, x, y)], (c * 100 + x * 10 + y) as i32);
                }
            }
        }
    }

    #[test]
    fn indexed_iter_matches_indexing() {
        let t = Tensor3::<i16>::from_fn(2, 3, 4, |c, x, y| (c + 2 * x + 7 * y) as i16);
        for ((c, x, y), v) in t.indexed_iter() {
            assert_eq!(v, t[(c, x, y)]);
        }
        assert_eq!(t.indexed_iter().count(), t.len());
    }

    #[test]
    fn padded_access_is_zero_outside() {
        let t = Tensor3::<i16>::filled(1, 2, 2, 9);
        assert_eq!(t.at_padded(0, -1, 0), 0);
        assert_eq!(t.at_padded(0, 0, -1), 0);
        assert_eq!(t.at_padded(0, 2, 0), 0);
        assert_eq!(t.at_padded(0, 1, 1), 9);
    }

    #[test]
    fn density_counts_nonzero() {
        let mut t = Tensor3::<i16>::zeros(1, 2, 2);
        t[(0, 0, 0)] = 5;
        assert!((t.density() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor3::from_vec(1, 2, 2, vec![1i16, 2, 3, 4]).is_ok());
        assert!(Tensor3::from_vec(1, 2, 2, vec![1i16, 2, 3]).is_err());
        assert!(Tensor3::<i16>::from_vec(0, 2, 2, vec![]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let t = Tensor3::<i16>::zeros(1, 1, 1);
        let _ = t[(0, 0, 1)];
    }
}
