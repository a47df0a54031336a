//! Dense vector type and the similarity kernels THOR runs on.
//!
//! Vectors are `f32` (like every embedding table in practice); similarity
//! math accumulates in `f64` for stability. Cosine similarity is the hot
//! kernel of the whole system — it is called for every (subphrase,
//! representative-vector) pair — so it stays branch-free over slices.

use std::ops::{Add, AddAssign};

/// A dense embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector(pub Vec<f32>);

impl Vector {
    /// A zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Vector(vec![0.0; dim])
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// The raw `f32` components, for structure-of-arrays export into
    /// the `thor-index` row buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.0
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Dot product, folded from `+0.0` so a zero dot is never `-0.0`.
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.0
            .iter()
            .zip(&other.0)
            .fold(0.0, |acc, (&a, &b)| acc + a as f64 * b as f64)
    }

    /// Scale in place.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.0 {
            *x *= s;
        }
    }

    /// Normalize to unit length in place; zero vectors stay zero.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            let inv = (1.0 / n) as f32;
            self.scale(inv);
        }
    }

    /// Arithmetic mean of a non-empty set of equal-dimension vectors;
    /// `None` for an empty input.
    pub fn mean<'a>(vectors: impl IntoIterator<Item = &'a Vector>) -> Option<Vector> {
        let mut iter = vectors.into_iter();
        let first = iter.next()?;
        let mut acc = first.clone();
        let mut count = 1usize;
        for v in iter {
            acc += v;
            count += 1;
        }
        acc.scale(1.0 / count as f32);
        Some(acc)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(&rhs.0) {
            *a += b;
        }
    }
}

impl Add<&Vector> for Vector {
    type Output = Vector;
    fn add(mut self, rhs: &Vector) -> Vector {
        self += rhs;
        self
    }
}

impl From<Vec<f32>> for Vector {
    fn from(v: Vec<f32>) -> Self {
        Vector(v)
    }
}

/// Cosine similarity in `[-1, 1]`; 0.0 if either vector is zero.
///
/// ```
/// use thor_embed::{cosine, Vector};
/// let a = Vector(vec![1.0, 0.0]);
/// let b = Vector(vec![0.0, 1.0]);
/// assert_eq!(cosine(&a, &b), 0.0);
/// assert!((cosine(&a, &a) - 1.0).abs() < 1e-9);
/// ```
pub fn cosine(a: &Vector, b: &Vector) -> f64 {
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (a.dot(b) / (na * nb)).clamp(-1.0, 1.0)
}

// --- Slice twins -----------------------------------------------------
//
// The frozen (mapped) store backing exposes vectors as raw `&[f32]`
// rows instead of `Vector`s. These helpers repeat the `Vector` kernels
// operation for operation, so scores computed through either backing
// are bit-identical (the equivalence tests below and the engine's
// owned-vs-mapped matrix both rely on this).

/// L2 norm of a raw row; identical accumulation to [`Vector::norm`].
pub fn slice_norm(a: &[f32]) -> f64 {
    a.iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt()
}

/// Cosine similarity between raw rows; identical to [`cosine`].
pub fn slice_cosine(a: &[f32], b: &[f32]) -> f64 {
    let na = slice_norm(a);
    let nb = slice_norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    let dot = a
        .iter()
        .zip(b)
        .fold(0.0, |acc, (&x, &y)| acc + x as f64 * y as f64);
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Arithmetic mean of raw rows; identical accumulation order to
/// [`Vector::mean`] (clone the first row, `f32` element adds in input
/// order, one final scale by `1 / count`).
pub fn mean_of_rows<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> Option<Vector> {
    let mut iter = rows.into_iter();
    let first = iter.next()?;
    let mut acc = Vector(first.to_vec());
    let mut count = 1usize;
    for r in iter {
        for (a, &b) in acc.0.iter_mut().zip(r) {
            *a += b;
        }
        count += 1;
    }
    acc.scale(1.0 / count as f32);
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_dim() {
        let v = Vector::zeros(8);
        assert_eq!(v.dim(), 8);
        assert_eq!(v.norm(), 0.0);
    }

    #[test]
    fn dot_and_norm() {
        let a = Vector(vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        let b = Vector(vec![1.0, 2.0]);
        assert_eq!(a.dot(&b), 11.0);
    }

    #[test]
    fn zero_dots_are_positive_zero() {
        let (x, y) = (Vector(vec![1.0, -0.0]), Vector(vec![-0.0, 1.0]));
        assert_eq!(x.dot(&y).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            slice_cosine(x.as_slice(), y.as_slice()).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(
            Vector(vec![]).dot(&Vector(vec![])).to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn cosine_orthogonal_parallel_antiparallel() {
        let x = Vector(vec![1.0, 0.0]);
        let y = Vector(vec![0.0, 2.0]);
        let neg = Vector(vec![-3.0, 0.0]);
        assert_eq!(cosine(&x, &y), 0.0);
        assert!((cosine(&x, &x) - 1.0).abs() < 1e-9);
        assert!((cosine(&x, &neg) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        let z = Vector::zeros(3);
        let x = Vector(vec![1.0, 2.0, 3.0]);
        assert_eq!(cosine(&z, &x), 0.0);
        assert_eq!(cosine(&z, &z), 0.0);
    }

    #[test]
    fn mean_of_vectors() {
        let a = Vector(vec![1.0, 0.0]);
        let b = Vector(vec![3.0, 2.0]);
        let m = Vector::mean([&a, &b]).unwrap();
        assert_eq!(m.0, vec![2.0, 1.0]);
        assert!(Vector::mean(std::iter::empty()).is_none());
    }

    #[test]
    fn normalize_unit_length() {
        let mut v = Vector(vec![3.0, 4.0]);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        let mut z = Vector::zeros(2);
        z.normalize();
        assert_eq!(z.norm(), 0.0);
    }

    proptest! {
        #[test]
        fn cosine_bounded(a in prop::collection::vec(-100.0f32..100.0, 4), b in prop::collection::vec(-100.0f32..100.0, 4)) {
            let s = cosine(&Vector(a), &Vector(b));
            prop_assert!((-1.0..=1.0).contains(&s));
        }

        #[test]
        fn slice_twins_are_bit_identical(
            a in prop::collection::vec(-50.0f32..50.0, 5),
            b in prop::collection::vec(-50.0f32..50.0, 5),
            c in prop::collection::vec(-50.0f32..50.0, 5),
        ) {
            let (va, vb, vc) = (Vector(a.clone()), Vector(b.clone()), Vector(c.clone()));
            prop_assert_eq!(slice_norm(&a).to_bits(), va.norm().to_bits());
            prop_assert_eq!(slice_cosine(&a, &b).to_bits(), cosine(&va, &vb).to_bits());
            let via_rows = mean_of_rows([a.as_slice(), b.as_slice(), c.as_slice()]).unwrap();
            let via_vecs = Vector::mean([&va, &vb, &vc]).unwrap();
            let bits = |v: &Vector| v.0.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&via_rows), bits(&via_vecs));
        }

        #[test]
        fn cosine_symmetric(a in prop::collection::vec(-10.0f32..10.0, 6), b in prop::collection::vec(-10.0f32..10.0, 6)) {
            let va = Vector(a);
            let vb = Vector(b);
            prop_assert!((cosine(&va, &vb) - cosine(&vb, &va)).abs() < 1e-12);
        }

        #[test]
        fn cosine_scale_invariant(a in prop::collection::vec(0.1f32..10.0, 4), s in 0.1f32..10.0) {
            let va = Vector(a.clone());
            let mut vs = Vector(a);
            vs.scale(s);
            prop_assert!((cosine(&va, &vs) - 1.0).abs() < 1e-5);
        }
    }
}
