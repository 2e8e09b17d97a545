//! Compressed Sparse Row matrices with 32-bit indices.
//!
//! The CSR layout is exactly the one described in §V-B of the paper: an
//! `m × n` matrix is stored as
//!
//! * `values` — the `NNZ` non-zero `f64` entries in row-major order (the
//!   paper's *v* vector),
//! * `col_indices` — the `NNZ` 32-bit column indices (the *y* vector), and
//! * `row_pointer` — `m + 1` 32-bit offsets into `values`, one per row plus
//!   a final entry equal to `NNZ` (the *x* vector).
//!
//! Keeping the indices at 32 bits is what gives the ABFT schemes their spare
//! bits: any matrix with fewer than 2³¹ columns leaves the top bit(s) of each
//! index unused, and those bits are where `abft-core` hides the redundancy.

use crate::{SparseError, Vector};
use std::borrow::Cow;

/// Spare row-pointer capacity, in entries, that the row-at-a-time builders
/// of [`crate::builders`] and [`crate::CooMatrix::to_csr`] leave past the
/// `rows + 1` offsets: room to pad
/// the row pointer to whole groups of up to eight entries in place, as the
/// protected encoders do, without reallocating it.
pub const ROW_POINTER_SLACK: usize = 7;

/// A sparse matrix in CSR format with `u32` indices and `f64` values.
#[derive(Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    values: Vec<f64>,
    col_indices: Vec<u32>,
    row_pointer: Vec<u32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating the structural
    /// invariants (monotone row pointer, in-range column indices, matching
    /// lengths, 32-bit addressability).
    pub fn try_new(
        rows: usize,
        cols: usize,
        values: Vec<f64>,
        col_indices: Vec<u32>,
        row_pointer: Vec<u32>,
    ) -> Result<Self, SparseError> {
        if cols > u32::MAX as usize || rows > u32::MAX as usize {
            return Err(SparseError::TooLarge(format!("{rows} x {cols}")));
        }
        if values.len() > u32::MAX as usize {
            return Err(SparseError::TooLarge(format!("{} non-zeros", values.len())));
        }
        if values.len() != col_indices.len() {
            return Err(SparseError::LengthMismatch {
                values: values.len(),
                columns: col_indices.len(),
            });
        }
        if row_pointer.len() != rows + 1 {
            return Err(SparseError::MalformedRowPointer(format!(
                "expected {} entries, got {}",
                rows + 1,
                row_pointer.len()
            )));
        }
        if row_pointer.first().copied().unwrap_or(0) != 0 {
            return Err(SparseError::MalformedRowPointer(
                "first entry must be 0".into(),
            ));
        }
        if *row_pointer.last().unwrap() as usize != values.len() {
            return Err(SparseError::MalformedRowPointer(format!(
                "last entry {} does not equal NNZ {}",
                row_pointer.last().unwrap(),
                values.len()
            )));
        }
        if row_pointer.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::MalformedRowPointer(
                "entries must be non-decreasing".into(),
            ));
        }
        for (row, range) in row_pointer.windows(2).enumerate() {
            for &c in &col_indices[range[0] as usize..range[1] as usize] {
                if c as usize >= cols {
                    return Err(SparseError::ColumnOutOfBounds { row, col: c, cols });
                }
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            values,
            col_indices,
            row_pointer,
        })
    }

    /// Builds a CSR matrix from raw parts without validation.
    ///
    /// # Panics
    /// Debug builds assert the same invariants `try_new` checks.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        values: Vec<f64>,
        col_indices: Vec<u32>,
        row_pointer: Vec<u32>,
    ) -> Self {
        debug_assert!(Self::try_new(
            rows,
            cols,
            values.clone(),
            col_indices.clone(),
            row_pointer.clone()
        )
        .is_ok());
        CsrMatrix {
            rows,
            cols,
            values,
            col_indices,
            row_pointer,
        }
    }

    /// An `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            values: vec![1.0; n],
            col_indices: (0..n as u32).collect(),
            row_pointer: (0..=n as u32).collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The non-zero values (the paper's *v* vector).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The column indices (the paper's *y* vector).
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// The row pointer (the paper's *x* vector).
    #[inline]
    pub fn row_pointer(&self) -> &[u32] {
        &self.row_pointer
    }

    /// Mutable access to the values (used by matrix assembly).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The half-open range of non-zero positions belonging to `row`.
    #[inline]
    pub fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        self.row_pointer[row] as usize..self.row_pointer[row + 1] as usize
    }

    /// Iterates `(column, value)` pairs of one row.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let range = self.row_range(row);
        self.col_indices[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Looks up entry `(row, col)`, returning 0.0 when it is not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.row_entries(row)
            .find(|&(c, _)| c as usize == col)
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Dense matrix–vector product `y = A x` (serial).  See [`crate::spmv`]
    /// for the parallel version and for operating on raw slices.
    pub fn spmv(&self, x: &Vector, y: &mut Vector) {
        crate::spmv::spmv_serial(self, x.as_slice(), y.as_mut_slice());
    }

    /// Extracts the diagonal as a vector (zero where no diagonal entry is
    /// stored); used by the Jacobi-preconditioned solvers.
    pub fn diagonal(&self) -> Vector {
        let mut d = Vector::zeros(self.rows.min(self.cols));
        for row in 0..d.len() {
            d[row] = self.get(row, row);
        }
        d
    }

    /// True when the matrix is structurally and numerically symmetric to
    /// within `tol` (only intended for test-sized matrices).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for row in 0..self.rows {
            for (col, v) in self.row_entries(row) {
                if (self.get(col as usize, row) - v).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Consumes the matrix and returns `(rows, cols, values, col_indices,
    /// row_pointer)` — the arrays themselves, not copies, so a consumer
    /// (the protected encoders) can write into them where they lie.
    pub fn into_raw(self) -> (usize, usize, Vec<f64>, Vec<u32>, Vec<u32>) {
        (
            self.rows,
            self.cols,
            self.values,
            self.col_indices,
            self.row_pointer,
        )
    }
}

/// Copies the index arrays before the value array.  A protected encode of
/// a borrowed matrix starts with this copy, and with glibc's malloc the
/// value array copied first left the peak RSS of a 256² Poisson solve about
/// 0.3 MB higher (2-core x86-64 VM): allocator placement, not more memory.
impl Clone for CsrMatrix {
    fn clone(&self) -> Self {
        let col_indices = self.col_indices.clone();
        let row_pointer = self.row_pointer.clone();
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            values: self.values.clone(),
            col_indices,
            row_pointer,
        }
    }
}

/// An owned matrix handed to an `impl Into<Cow<CsrMatrix>>` parameter is
/// moved, not copied.
impl From<CsrMatrix> for Cow<'_, CsrMatrix> {
    fn from(matrix: CsrMatrix) -> Self {
        Cow::Owned(matrix)
    }
}

/// A borrowed matrix handed to an `impl Into<Cow<CsrMatrix>>` parameter is
/// copied only if the consumer needs to own it.
impl<'a> From<&'a CsrMatrix> for Cow<'a, CsrMatrix> {
    fn from(matrix: &'a CsrMatrix) -> Self {
        Cow::Borrowed(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3x3 example:
    /// [ 4 1 0 ]
    /// [ 1 4 1 ]
    /// [ 0 1 4 ]
    fn tridiag3() -> CsrMatrix {
        CsrMatrix::try_new(
            3,
            3,
            vec![4.0, 1.0, 1.0, 4.0, 1.0, 1.0, 4.0],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![0, 2, 5, 7],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = tridiag3();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.get(2, 1), 1.0);
        assert_eq!(m.row_range(1), 2..5);
        let row1: Vec<_> = m.row_entries(1).collect();
        assert_eq!(row1, vec![(0, 1.0), (1, 4.0), (2, 1.0)]);
        assert_eq!(m.diagonal().as_slice(), &[4.0, 4.0, 4.0]);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn identity_matrix() {
        let id = CsrMatrix::identity(4);
        assert_eq!(id.nnz(), 4);
        let x = Vector::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let mut y = Vector::zeros(4);
        id.spmv(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn spmv_known_answer() {
        let m = tridiag3();
        let x = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let mut y = Vector::zeros(3);
        m.spmv(&x, &mut y);
        assert_eq!(y.as_slice(), &[6.0, 12.0, 14.0]);
    }

    #[test]
    fn validation_rejects_bad_structures() {
        // Length mismatch
        assert!(matches!(
            CsrMatrix::try_new(1, 1, vec![1.0], vec![0, 0], vec![0, 1]),
            Err(SparseError::LengthMismatch { .. })
        ));
        // Row pointer wrong length
        assert!(matches!(
            CsrMatrix::try_new(2, 2, vec![1.0], vec![0], vec![0, 1]),
            Err(SparseError::MalformedRowPointer(_))
        ));
        // Row pointer not starting at zero
        assert!(matches!(
            CsrMatrix::try_new(1, 2, vec![1.0], vec![0], vec![1, 1]),
            Err(SparseError::MalformedRowPointer(_))
        ));
        // Row pointer last != nnz
        assert!(matches!(
            CsrMatrix::try_new(1, 2, vec![1.0], vec![0], vec![0, 2]),
            Err(SparseError::MalformedRowPointer(_))
        ));
        // Decreasing row pointer
        assert!(matches!(
            CsrMatrix::try_new(2, 2, vec![1.0, 1.0], vec![0, 1], vec![0, 2, 2, 2]),
            Err(SparseError::MalformedRowPointer(_))
        ));
        // Column out of bounds
        assert!(matches!(
            CsrMatrix::try_new(1, 2, vec![1.0], vec![5], vec![0, 1]),
            Err(SparseError::ColumnOutOfBounds { .. })
        ));
    }

    #[test]
    fn error_display_messages() {
        let e = CsrMatrix::try_new(1, 2, vec![1.0], vec![5], vec![0, 1]).unwrap_err();
        assert!(e.to_string().contains("out of bounds"));
        let e = CsrMatrix::try_new(1, 1, vec![1.0], vec![0, 0], vec![0, 1]).unwrap_err();
        assert!(e.to_string().contains("mismatch"));
    }

    #[test]
    fn into_raw_roundtrip() {
        let m = tridiag3();
        let (r, c, v, ci, rp) = m.clone().into_raw();
        let rebuilt = CsrMatrix::try_new(r, c, v, ci, rp).unwrap();
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn non_symmetric_detected() {
        let m = CsrMatrix::try_new(2, 2, vec![1.0, 2.0], vec![1, 1], vec![0, 1, 2]).unwrap();
        assert!(!m.is_symmetric(1e-12));
        let rect = CsrMatrix::try_new(1, 2, vec![1.0], vec![0], vec![0, 1]).unwrap();
        assert!(!rect.is_symmetric(1e-12));
    }
}
