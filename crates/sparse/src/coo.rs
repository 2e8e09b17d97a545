//! Coordinate-format (COO) sparse matrices.
//!
//! COO is the natural assembly format: entries are pushed in any order as
//! `(row, col, value)` triplets and converted to CSR once assembly is
//! complete.  The paper's earlier work ([McIntosh-Smith et al.]) protected
//! COO as well as CSR; here COO serves as the builder for CSR and as a
//! secondary format for tests.

use crate::csr::ROW_POINTER_SLACK;
use crate::{CsrMatrix, SparseError};

/// A sparse matrix under assembly, stored as coordinate triplets.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooMatrix {
    /// Creates an empty `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty matrix with capacity for `nnz` entries.
    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(nnz),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triplets (duplicates not yet merged).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Adds `value` at `(row, col)`.  Duplicate coordinates are summed when
    /// the matrix is converted to CSR.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        assert!(col < self.cols, "col {col} out of bounds ({})", self.cols);
        self.entries.push((row as u32, col as u32, value));
    }

    /// Converts to CSR: the crate's one triplet→CSR conversion.  A row
    /// histogram becomes the row pointer, a stable counting-sort scatter
    /// places each triplet in its row in push order, and one pass per row
    /// sorts the columns (stably) and sums duplicate coordinates, compacting
    /// in place.
    ///
    /// Duplicates are summed in push order: pushes of `a`, `b`, `c` at one
    /// coordinate store `(a + b) + c`.  Floating-point addition is not
    /// associative, so from three duplicates on the order is in the result.
    pub fn to_csr(&self) -> Result<CsrMatrix, SparseError> {
        let total = self.entries.len();
        if total > u32::MAX as usize {
            return Err(SparseError::TooLarge(format!("{total} entries")));
        }
        // Spare entries, as the builders leave, so an owned encode pads the
        // row pointer in place.
        let mut row_pointer = Vec::with_capacity(self.rows + 1 + ROW_POINTER_SLACK);
        row_pointer.resize(self.rows + 1, 0u32);
        for &(r, _, _) in &self.entries {
            row_pointer[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            row_pointer[i + 1] += row_pointer[i];
        }
        // Stable scatter: push order is kept within each row, so the merge
        // below sums duplicates in push order.
        let mut cursors = row_pointer[..self.rows].to_vec();
        let mut scattered = vec![(0u32, 0.0f64); total];
        for &(r, c, v) in &self.entries {
            scattered[cursors[r as usize] as usize] = (c, v);
            cursors[r as usize] += 1;
        }
        // Canonicalise each row in place, compacting the merged rows to the
        // front and rewriting the row bounds; `cursors` now holds row ends.
        let (mut start, mut write) = (0, 0);
        for (row, &end) in cursors.iter().enumerate() {
            let len = sort_and_merge_row(&mut scattered[start..end as usize]);
            scattered.copy_within(start..start + len, write);
            write += len;
            row_pointer[row + 1] = write as u32;
            start = end as usize;
        }
        scattered.truncate(write);
        let (col_indices, values) = scattered.into_iter().unzip();
        CsrMatrix::try_new(self.rows, self.cols, values, col_indices, row_pointer)
    }

    /// Iterates the stored triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.entries
            .iter()
            .map(|&(r, c, v)| (r as usize, c as usize, v))
    }
}

/// Sorts one row's `(col, value)` entries by column, stably, and sums
/// duplicate columns in their stored order (`a`, `b`, `c` at one column
/// become `(a + b) + c`), compacting the row to its front: the merged row
/// is `row[..len]` for the returned `len`.  The crate's one rule for
/// canonicalising a row.
pub(crate) fn sort_and_merge_row(row: &mut [(u32, f64)]) -> usize {
    row.sort_by_key(|&(c, _)| c);
    let mut len = 0;
    for k in 0..row.len() {
        if len > 0 && row[len - 1].0 == row[k].0 {
            row[len - 1].1 += row[k].1;
        } else {
            row[len] = row[k];
            len += 1;
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_same_bits, to_csr_via_global_sort};

    #[test]
    fn assembly_and_conversion() {
        let mut coo = CooMatrix::with_capacity(3, 3, 5);
        coo.push(2, 2, 4.0);
        coo.push(0, 0, 4.0);
        coo.push(1, 1, 4.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        assert_eq!(coo.nnz(), 5);
        assert_eq!(coo.rows(), 3);
        assert_eq!(coo.cols(), 3);

        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.get(0, 0), 4.0);
        assert_eq!(csr.get(0, 1), 1.0);
        assert_eq!(csr.get(1, 0), 1.0);
        assert_eq!(csr.get(2, 2), 4.0);
        assert_eq!(csr.get(2, 0), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        coo.push(1, 1, 1.0);
        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 0), 3.5);
    }

    #[test]
    fn empty_rows_are_allowed() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(3, 3, 2.0);
        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.row_pointer(), &[0, 1, 1, 1, 2]);
    }

    #[test]
    fn iter_returns_pushed_triplets() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(1, 2, 5.0);
        let triplets: Vec<_> = coo.iter().collect();
        assert_eq!(triplets, vec![(1, 2, 5.0)]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_push_panics() {
        CooMatrix::new(2, 2).push(2, 0, 1.0);
    }

    #[test]
    fn empty_matrix_converts() {
        let coo = CooMatrix::new(3, 3);
        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.row_pointer(), &[0, 0, 0, 0]);
    }

    #[test]
    fn counting_sort_equals_the_global_sort_on_random_triplets() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for case in 0..300 {
            let rows = 1 + next(40);
            let cols = 1 + next(40);
            let mut coo = CooMatrix::new(rows, cols);
            let mut used = std::collections::HashSet::new();
            for _ in 0..next(4 * rows * cols / 3 + 1) {
                let (r, c) = (next(rows), next(cols));
                if used.insert((r, c)) {
                    // Random bit patterns: signed zeros, subnormals, NaNs.
                    let bits = (next(1 << 31) as u64) << 33 | next(1 << 31) as u64;
                    coo.push(r, c, f64::from_bits(bits));
                }
            }
            let want = to_csr_via_global_sort(&coo);
            assert_same_bits(&coo.to_csr().unwrap(), &want, &format!("case {case}"));
        }
    }

    #[test]
    fn three_duplicates_sum_in_push_order() {
        // The same three values at one coordinate: floating-point addition
        // is not associative, and the sum follows the push order.
        for (pushes, sum) in [
            ([1e16, 1.0, -1e16], 0.0),
            ([1.0, 1e16, -1e16], 0.0),
            ([1e16, -1e16, 1.0], 1.0),
        ] {
            let mut coo = CooMatrix::new(2, 2);
            coo.push(1, 1, 5.0);
            for v in pushes {
                coo.push(0, 1, v);
            }
            coo.push(0, 0, 2.0);
            let csr = coo.to_csr().unwrap();
            assert_eq!(csr.col_indices(), &[0, 1, 1]);
            assert_eq!(csr.get(0, 1), sum, "{pushes:?}");
        }
    }
}
