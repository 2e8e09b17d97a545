//! Sparse matrix–vector products.
//!
//! The paper notes that over 98 % of TeaLeaf's runtime lives in three
//! kernels: the SpMV and two dot products of the CG iteration.  These are
//! the routines the ABFT schemes wrap, so the unprotected versions here are
//! both the baseline of every overhead figure and the reference the
//! protected versions are tested against.
//!
//! Each parallel kernel runs the serial loop over contiguous chunks through
//! [`rayon::with_chunks_mut`]; the SpMV partitions by row, matching the
//! OpenMP/CUDA one-thread-per-row structure of the original TeaLeaf kernels.
//! Below the pool's minimum chunk the whole input is one chunk on the
//! caller.

use crate::CsrMatrix;

/// `y[i] = (A x)[row0 + i]` for a contiguous row range.
fn spmv_rows(a: &CsrMatrix, x: &[f64], row0: usize, y: &mut [f64]) {
    let values = a.values();
    let cols = a.col_indices();
    let row_ptr = a.row_pointer();
    for (row, yi) in (row0..).zip(y.iter_mut()) {
        let mut acc = 0.0;
        for k in row_ptr[row] as usize..row_ptr[row + 1] as usize {
            acc += values[k] * x[cols[k] as usize];
        }
        *yi = acc;
    }
}

/// Runs `f(offset, chunk)` over `n_chunks` contiguous chunks of `data` on
/// the pool (inline for one chunk).
fn for_each_chunk<T: Send>(data: &mut [T], n_chunks: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    // `Vec<()>` never allocates: the unit states only set the chunk count.
    let mut states = vec![(); n_chunks];
    let Ok(()) = rayon::with_chunks_mut::<_, _, std::convert::Infallible, _>(
        data,
        &mut states,
        |offset, chunk, _| {
            f(offset, chunk);
            Ok(())
        },
    );
}

/// `y = A x`, serial.
///
/// # Panics
/// Panics if the dimensions of `x` or `y` do not match the matrix.
pub fn spmv_serial(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.cols(), "spmv: x has wrong length");
    assert_eq!(y.len(), a.rows(), "spmv: y has wrong length");
    spmv_rows(a, x, 0, y);
}

/// `y = A x`, one pool task per chunk of rows.
///
/// # Panics
/// Panics if the dimensions of `x` or `y` do not match the matrix.
pub fn spmv_parallel(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.cols(), "spmv: x has wrong length");
    assert_eq!(y.len(), a.rows(), "spmv: y has wrong length");
    let n_chunks = rayon::chunk_count(y.len());
    for_each_chunk(y, n_chunks, |row0, rows| spmv_rows(a, x, row0, rows));
}

/// Parallel dot product with a caller-owned per-chunk partial buffer, so
/// solver loops reuse one allocation across iterations.  Per-chunk sums are
/// folded in chunk order, so the result is deterministic at a given worker
/// limit, and bitwise identical to [`blas_dot`](crate::vector::blas_dot)
/// when the input is below the parallel threshold.
pub fn dot_parallel_with(a: &[f64], b: &[f64], partials: &mut Vec<f64>) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let len = a.len();
    let chunks = rayon::chunk_count(len);
    if chunks <= 1 {
        return crate::vector::blas_dot(a, b);
    }
    let chunk = len.div_ceil(chunks);
    if partials.len() < chunks {
        partials.resize(chunks, 0.0);
    }
    for_each_chunk(&mut partials[..chunks], chunks, |c, slot| {
        let start = c * chunk;
        let end = ((c + 1) * chunk).min(len);
        slot[0] = a[start..end]
            .iter()
            .zip(&b[start..end])
            .map(|(x, y)| x * y)
            .sum();
    });
    partials[..chunks].iter().sum()
}

/// Parallel AXPY: `y ← y + alpha x`.
pub fn axpy_parallel(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    let n_chunks = rayon::chunk_count(y.len());
    for_each_chunk(y, n_chunks, |offset, chunk| {
        crate::vector::blas_axpy(chunk, alpha, &x[offset..offset + chunk.len()]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::poisson_2d;
    use crate::vector::{blas_axpy, blas_dot};

    #[test]
    fn serial_and_parallel_agree() {
        let a = poisson_2d(17, 13);
        let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y1 = vec![0.0; a.rows()];
        let mut y2 = vec![0.0; a.rows()];
        spmv_serial(&a, &x, &mut y1);
        spmv_parallel(&a, &x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_blas1_matches_serial() {
        // Below and above the pool's minimum chunk.
        for n in [1000usize, 30_000] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).sin()).collect();
            let serial = blas_dot(&a, &b);
            let parallel = dot_parallel_with(&a, &b, &mut Vec::new());
            assert!((serial - parallel).abs() < 1e-9, "n={n}");

            // Elementwise, so bitwise identical at any chunk split.
            let mut y1 = a.clone();
            let mut y2 = a.clone();
            blas_axpy(&mut y1, 1.5, &b);
            axpy_parallel(&mut y2, 1.5, &b);
            assert_eq!(y1, y2, "n={n}");
        }
    }

    #[test]
    fn workspace_dot_is_bitwise_identical_to_the_allocating_path() {
        // Below the parallel threshold the workspace kernel is `blas_dot`
        // bit for bit; above it, repeated calls with the buffer reused
        // across lengths agree with each other bit for bit and with
        // `blas_dot` to rounding.
        let mut partials = Vec::new();
        for n in [1000usize, 30_000, 9_000] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
            let reference = blas_dot(&a, &b);
            let with_ws = dot_parallel_with(&a, &b, &mut partials);
            if rayon::chunk_count(n) == 1 {
                assert_eq!(with_ws.to_bits(), reference.to_bits(), "n={n}");
            }
            assert!((with_ws - reference).abs() <= 1e-9 * n as f64, "n={n}");
            let again = dot_parallel_with(&a, &b, &mut partials);
            assert_eq!(again.to_bits(), with_ws.to_bits(), "n={n} reuse");
        }
    }

    #[test]
    #[should_panic]
    fn wrong_x_length_panics() {
        let a = poisson_2d(4, 4);
        let x = vec![0.0; 3];
        let mut y = vec![0.0; a.rows()];
        spmv_serial(&a, &x, &mut y);
    }

    #[test]
    #[should_panic]
    fn wrong_y_length_panics() {
        let a = poisson_2d(4, 4);
        let x = vec![0.0; a.cols()];
        let mut y = vec![0.0; 3];
        spmv_parallel(&a, &x, &mut y);
    }
}
