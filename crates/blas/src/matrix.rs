//! Dense row-major matrices used by the kernels, examples and tests.

use std::fmt;

/// A dense row-major `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A square identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// A deterministic pseudo-random matrix (xorshift; no external RNG needed) with entries
    /// in `[-0.5, 0.5)`.
    pub fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    /// A symmetric positive-definite matrix (for Cholesky tests): `A = B·Bᵀ + n·I`.
    pub fn spd(n: usize, seed: u64) -> Self {
        let b = Matrix::pseudo_random(n, n, seed);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b[(i, k)] * b[(j, k)];
                }
                a[(i, j)] = s;
            }
            a[(i, i)] += n as f64;
        }
        a
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the backing storage (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow one row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Reference multiply: `C = A·B` computed with the naive i-k-j triple loop (used to
    /// validate the kernels; [`kernels::gemm_acc`](crate::kernels::gemm_acc) sums every
    /// element in this same order, so it equals this result bit for bit).
    pub fn multiply_reference(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows, "dimension mismatch");
        let mut c = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let aik = a[(i, k)];
                for j in 0..b.cols {
                    c[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        c
    }

    /// Largest absolute element-wise difference between two matrices; NaN if any element
    /// of either is NaN.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, max_error)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }
}

/// The larger of two error magnitudes, NaN when either is NaN. An error fold must use this
/// and not `f64::max`, which returns the other operand for a NaN and so reads a product full
/// of NaN as exact.
pub fn max_error(a: f64, b: f64) -> f64 {
    if a.is_nan() || a >= b {
        a
    } else {
        b
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a = Matrix::pseudo_random(5, 5, 1);
        let i = Matrix::identity(5);
        let prod = Matrix::multiply_reference(&a, &i);
        assert!(prod.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn indexing_and_from_fn() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 3)], 23.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn pseudo_random_is_deterministic_and_bounded() {
        let a = Matrix::pseudo_random(8, 8, 42);
        let b = Matrix::pseudo_random(8, 8, 42);
        let c = Matrix::pseudo_random(8, 8, 43);
        assert_eq!(a, b);
        assert!(a.max_abs_diff(&c) > 0.0);
        assert!(a.as_slice().iter().all(|x| x.abs() <= 0.5));
    }

    #[test]
    fn spd_matrix_is_symmetric_with_dominant_diagonal() {
        let a = Matrix::spd(6, 3);
        for i in 0..6 {
            assert!(a[(i, i)] >= 6.0);
            for j in 0..6 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::pseudo_random(4, 7, 9);
        assert!(a.transpose().transpose().max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn one_nan_element_fails_max_abs_diff() {
        let a = Matrix::pseudo_random(4, 5, 8);
        for at in [(0, 0), (2, 3), (3, 4)] {
            let mut b = a.clone();
            b[at] = f64::NAN;
            let err = b.max_abs_diff(&a);
            assert!(err.is_nan(), "NaN at {at:?} reads as error {err}");
            assert!(a.max_abs_diff(&b).is_nan());
        }
    }

    #[test]
    fn frobenius_norm_of_identity() {
        let i = Matrix::identity(9);
        assert!((i.frobenius_norm() - 3.0).abs() < 1e-12);
    }
}
