//! Serial tile kernels: the level-3 BLAS / LAPACK operations the workloads need.
//!
//! All kernels operate on row-major `f64` slices. [`gemm_acc`] is an `MR×NR`
//! register-blocked micro-kernel (Goto & van de Geijn, "Anatomy of High-Performance Matrix
//! Multiplication", ACM TOMS 2008) whose every element is summed in exactly the order of
//! [`Matrix::multiply_reference`](crate::Matrix::multiply_reference): `k` ascending, one
//! multiply and one add per term (never a fused multiply-add), no term skipped. Its output
//! therefore equals the i-k-j reference bit for bit. The Cholesky tile kernels
//! ([`gemm_nt_sub`], [`syrk_ln_sub`], [`potrf`], [`trsm_right_lower_transpose`]) are plain
//! loops.

use std::ops::Range;

/// Rows of `C` one micro-kernel block holds in registers.
const MR: usize = 2;
/// Columns of `C` one micro-kernel block holds in registers.
const NR: usize = 8;

/// `C += A · B` where `A` is `m×k`, `B` is `k×n` and `C` is `m×n`, all row-major.
///
/// On x86-64 the same body runs compiled for AVX2 when the CPU has it; both copies give
/// the same bits.
pub fn gemm_acc(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU running this supports AVX2, checked on the line above.
        return unsafe { gemm_acc_avx2(m, k, n, a, b, c) };
    }
    gemm_acc_body(m, k, n, a, b, c);
}

/// [`gemm_acc_body`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU running it must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_acc_avx2(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    gemm_acc_body(m, k, n, a, b, c);
}

/// Full `MR×NR` blocks of `C` go through [`micro_block`]; the columns and rows left over
/// past the last full block go through the i-k-j loop.
#[inline(always)]
fn gemm_acc_body(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    let (m_blocked, n_blocked) = (m - m % MR, n - n % NR);
    for i in (0..m_blocked).step_by(MR) {
        for j in (0..n_blocked).step_by(NR) {
            micro_block(i, j, k, n, a, b, c);
        }
        gemm_ikj(i..i + MR, n_blocked..n, k, n, a, b, c);
    }
    gemm_ikj(m_blocked..m, 0..n, k, n, a, b, c);
}

/// `C[i..i+MR][j..j+NR] += A[i..i+MR][..] · B[..][j..j+NR]`, the block held in a local
/// array across the whole `k` loop instead of being reloaded from `C` for every `k`.
#[inline(always)]
fn micro_block(i: usize, j: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    let a_rows: [&[f64]; MR] = std::array::from_fn(|r| &a[(i + r) * k..][..k]);
    let mut acc = [[0.0; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(i + r) * n + j..][..NR]);
    }
    for kk in 0..k {
        let b_row = &b[kk * n + j..][..NR];
        for (row, a_row) in acc.iter_mut().zip(a_rows) {
            let a_rk = a_row[kk];
            for (x, &b_q) in row.iter_mut().zip(b_row) {
                *x += a_rk * b_q;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i + r) * n + j..][..NR].copy_from_slice(row);
    }
}

/// `C[rows][cols] += A[rows][..] · B[..][cols]` by the i-k-j loop of the reference.
#[inline(always)]
fn gemm_ikj(
    rows: Range<usize>,
    cols: Range<usize>,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    for i in rows {
        let c_row = &mut c[i * n..][cols.clone()];
        for (kk, &a_ik) in a[i * k..][..k].iter().enumerate() {
            let b_row = &b[kk * n..][cols.clone()];
            for (x, &b_kj) in c_row.iter_mut().zip(b_row) {
                *x += a_ik * b_kj;
            }
        }
    }
}

/// `C -= A · Bᵀ` where `A` is `m×k`, `B` is `n×k` and `C` is `m×n`, all row-major (the
/// update used by blocked Cholesky's gemm step).
pub fn gemm_nt_sub(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for kk in 0..k {
                s += a[i * k + kk] * b[j * k + kk];
            }
            c[i * n + j] -= s;
        }
    }
}

/// `C -= A · Aᵀ`, updating only the lower triangle (the syrk step of blocked Cholesky).
pub fn syrk_ln_sub(n: usize, a: &[f64], c: &mut [f64]) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(c.len(), n * n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = 0.0;
            for k in 0..n {
                s += a[i * n + k] * a[j * n + k];
            }
            c[i * n + j] -= s;
        }
    }
}

/// In-place Cholesky factorization of a single `n×n` tile: `A = L·Lᵀ`, lower triangle of `A`
/// replaced by `L` (the dpotrf step). Returns `Err(i)` if the matrix is not positive
/// definite at pivot `i`.
pub fn potrf(n: usize, a: &mut [f64]) -> Result<(), usize> {
    debug_assert_eq!(a.len(), n * n);
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= a[j * n + k] * a[j * n + k];
        }
        if d <= 0.0 {
            return Err(j);
        }
        let d = d.sqrt();
        a[j * n + j] = d;
        for i in (j + 1)..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = s / d;
        }
        // Zero the strictly-upper part for cleanliness.
        for i in 0..j {
            a[i * n + j] = 0.0;
        }
    }
    Ok(())
}

/// Triangular solve `B := B · L⁻ᵀ` where `L` is the lower-triangular factor of a diagonal
/// tile (the dtrsm step of blocked right-looking Cholesky: panel update below the diagonal).
pub fn trsm_right_lower_transpose(n: usize, l: &[f64], b: &mut [f64]) {
    debug_assert_eq!(l.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    // Solve X · Lᵀ = B row by row: for each row r of B, forward-substitute.
    for r in 0..n {
        for j in 0..n {
            let mut s = b[r * n + j];
            for k in 0..j {
                s -= b[r * n + k] * l[j * n + k];
            }
            b[r * n + j] = s / l[j * n + j];
        }
    }
}

/// Multiply-accumulate throughput helper: number of floating-point operations of a gemm of
/// the given shape (used to report MOPS like the paper).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// `A` with every third element zeroed, so the kernel cannot skip zero terms unseen.
    fn a_with_zeros(m: usize, k: usize, seed: u64) -> Matrix {
        let mut a = Matrix::pseudo_random(m, k, seed);
        a.as_mut_slice()
            .iter_mut()
            .step_by(3)
            .for_each(|x| *x = 0.0);
        a
    }

    /// Every remainder class of the `MR×NR` blocking: no full block, full blocks only, and
    /// full blocks with leftover rows and/or columns.
    fn shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        let ms = [0, 1, 2, 3, 16, 17];
        let ns = [1, 7, 8, 9, 64, 65];
        let ks = [0, 1, 5, 64];
        ms.into_iter().flat_map(move |m| {
            ns.into_iter()
                .flat_map(move |n| ks.into_iter().map(move |k| (m, k, n)))
        })
    }

    #[test]
    fn gemm_acc_matches_reference() {
        for (m, k, n) in shapes() {
            let a = a_with_zeros(m, k, 1);
            let b = Matrix::pseudo_random(k, n, 2);
            let mut c = Matrix::zeros(m, n);
            gemm_acc(m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
            assert!(
                c == Matrix::multiply_reference(&a, &b),
                "{m}x{k}x{n} differs from the reference"
            );
        }
    }

    #[test]
    fn gemm_acc_accumulates() {
        // C₀ + A·B summed term by term from C₀, as the reference sums from zero.
        let (m, k, n) = (17, 64, 65);
        let a = a_with_zeros(m, k, 4);
        let b = Matrix::pseudo_random(k, n, 5);
        let c0 = Matrix::pseudo_random(m, n, 6);
        let mut c = c0.clone();
        gemm_acc(m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
        let mut expected = c0;
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    expected[(i, j)] += a[(i, kk)] * b[(kk, j)];
                }
            }
        }
        assert!(c == expected);
    }

    #[test]
    fn gemm_acc_does_not_skip_zero_terms() {
        // 0 · ∞ is NaN: a kernel that skips a zero in A hides an infinity in B.
        let (m, k, n) = (3, 2, 9);
        let mut a = Matrix::pseudo_random(m, k, 7);
        let mut b = Matrix::pseudo_random(k, n, 8);
        a[(0, 1)] = 0.0;
        a[(2, 1)] = 0.0;
        b[(1, 0)] = f64::INFINITY;
        b[(1, 8)] = f64::INFINITY;
        let mut c = Matrix::zeros(m, n);
        gemm_acc(m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
        for (i, j) in [(0, 0), (0, 8), (2, 0), (2, 8)] {
            assert!(c[(i, j)].is_nan(), "C[{i}][{j}] = {}", c[(i, j)]);
        }
        assert_eq!(c[(1, 0)], f64::INFINITY.copysign(a[(1, 1)]));
        assert!(c[(0, 4)].is_finite());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_copy_matches_portable_body_bit_for_bit() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        for (m, k, n) in shapes() {
            let a = a_with_zeros(m, k, 9);
            let b = Matrix::pseudo_random(k, n, 10);
            let c0 = Matrix::pseudo_random(m, n, 11);
            let (mut portable, mut avx2) = (c0.clone(), c0);
            gemm_acc_body(m, k, n, a.as_slice(), b.as_slice(), portable.as_mut_slice());
            // SAFETY: the CPU supports AVX2, checked above.
            unsafe { gemm_acc_avx2(m, k, n, a.as_slice(), b.as_slice(), avx2.as_mut_slice()) };
            let bits = |c: &Matrix| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&portable), bits(&avx2), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn potrf_factorizes_spd_matrix() {
        let n = 8;
        let a = Matrix::spd(n, 7);
        let mut f = a.clone();
        potrf(n, f.as_mut_slice()).expect("SPD matrix must factorize");
        // Check L·Lᵀ == A.
        let mut rebuilt = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    s += f[(i, k)] * f[(j, k)];
                }
                rebuilt[(i, j)] = s;
            }
        }
        assert!(
            rebuilt.max_abs_diff(&a) < 1e-8,
            "diff {}",
            rebuilt.max_abs_diff(&a)
        );
    }

    #[test]
    fn potrf_rejects_non_spd() {
        let n = 3;
        let mut a = vec![0.0; n * n];
        a[0] = -1.0;
        assert_eq!(potrf(n, &mut a), Err(0));
    }

    #[test]
    fn trsm_solves_triangular_system() {
        let n = 6;
        // L: lower triangular with positive diagonal.
        let mut l = Matrix::pseudo_random(n, n, 11);
        for i in 0..n {
            for j in (i + 1)..n {
                l[(i, j)] = 0.0;
            }
            l[(i, i)] = 2.0 + l[(i, i)].abs();
        }
        let x_true = Matrix::pseudo_random(n, n, 12);
        // B = X_true · Lᵀ
        let b0 = Matrix::multiply_reference(&x_true, &l.transpose());
        let mut b = b0.clone();
        trsm_right_lower_transpose(n, l.as_slice(), b.as_mut_slice());
        assert!(
            b.max_abs_diff(&x_true) < 1e-9,
            "diff {}",
            b.max_abs_diff(&x_true)
        );
    }

    #[test]
    fn syrk_matches_explicit_product() {
        let n = 5;
        let a = Matrix::pseudo_random(n, n, 21);
        let c0 = Matrix::spd(n, 22);
        let mut c = c0.clone();
        syrk_ln_sub(n, a.as_slice(), c.as_mut_slice());
        let aat = Matrix::multiply_reference(&a, &a.transpose());
        for i in 0..n {
            for j in 0..=i {
                let expected = c0[(i, j)] - aat[(i, j)];
                assert!((c[(i, j)] - expected).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn gemm_nt_sub_matches_explicit_product() {
        let n = 5;
        let a = Matrix::pseudo_random(n, n, 31);
        let b = Matrix::pseudo_random(n, n, 32);
        let c0 = Matrix::pseudo_random(n, n, 33);
        let mut c = c0.clone();
        gemm_nt_sub(n, n, n, a.as_slice(), b.as_slice(), c.as_mut_slice());
        let abt = Matrix::multiply_reference(&a, &b.transpose());
        for i in 0..n {
            for j in 0..n {
                let expected = c0[(i, j)] - abt[(i, j)];
                assert!((c[(i, j)] - expected).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }
}
