//! Sparse matrix generators.
//!
//! The main generator is the **five-point-stencil** operator on a regular 2-D
//! grid — the structure TeaLeaf assembles every time-step for its implicit
//! heat-conduction solve (§V-A of the paper: each row has at most five
//! non-zeros, one per stencil point).  A plain Poisson operator, a
//! symmetric-positive-definite random matrix and a tridiagonal matrix are
//! provided for tests and for exercising the ABFT schemes on structures that
//! are *not* five rows wide.

use crate::coo::sort_and_merge_row;
use crate::csr::ROW_POINTER_SLACK;
use crate::{CooMatrix, CsrMatrix};

/// The standard 2-D Poisson (negative Laplacian) operator on an `nx × ny`
/// grid with Dirichlet boundaries: diagonal 4, off-diagonals −1 for the four
/// neighbours.  Symmetric positive definite, `nx·ny` unknowns.
pub fn poisson_2d(nx: usize, ny: usize) -> CsrMatrix {
    five_point_stencil(nx, ny, 0, |_, _| (4.0, -1.0, -1.0, -1.0, -1.0))
}

/// [`poisson_2d`] padded to at least four stored entries per row (the
/// rule of [`pad_rows_to_min_entries`]) — the canonical test/benchmark
/// operator of this repository, assembled in one place so every experiment,
/// benchmark, and example protects exactly the same matrix.  Four entries
/// per row is the floor the CRC32C element scheme needs to spread its
/// 32-bit checksum over 8 spare bits per element.
///
/// # Panics
/// Panics if the grid has fewer than four cells.
pub fn poisson_2d_padded(nx: usize, ny: usize) -> CsrMatrix {
    five_point_stencil(nx, ny, 4, |_, _| (4.0, -1.0, -1.0, -1.0, -1.0))
}

/// A general five-point-stencil operator: for each grid point `(i, j)` the
/// callback returns `(centre, west, east, south, north)` coefficients.
/// Entries that would fall outside the grid are dropped (Dirichlet
/// truncation), exactly like TeaLeaf's interior-chunk assembly.
///
/// Rows are emitted straight into CSR in row order, columns ascending.  A
/// row left with fewer than `min_entries` entries is padded with explicit
/// zeros at its lowest unused columns, the rule of
/// [`pad_rows_to_min_entries`]; `0` pads nothing.
///
/// # Panics
/// Panics if the grid has fewer than `min_entries` cells.
pub fn five_point_stencil(
    nx: usize,
    ny: usize,
    min_entries: usize,
    mut coeff: impl FnMut(usize, usize) -> (f64, f64, f64, f64, f64),
) -> CsrMatrix {
    let n = nx * ny;
    let mut out = PaddedRows::new(n, n, min_entries, n * min_entries.max(5));
    for j in 0..ny {
        for i in 0..nx {
            let row = j * nx + i;
            let (c, w, e, s, nth) = coeff(i, j);
            // The stencil's neighbours in ascending column order, those
            // outside the grid dropped.
            let mut entries = [(0u32, 0.0f64); 5];
            let mut len = 0;
            for (inside, col, value) in [
                (j > 0, row.wrapping_sub(nx), s),
                (i > 0, row.wrapping_sub(1), w),
                (true, row, c),
                (i + 1 < nx, row + 1, e),
                (j + 1 < ny, row + nx, nth),
            ] {
                if inside {
                    entries[len] = (col as u32, value);
                    len += 1;
                }
            }
            out.push_row(entries[..len].iter().copied());
        }
    }
    out.finish()
}

/// Pads every row of `matrix` to at least `min_entries` stored entries by
/// adding explicit zero-valued entries at the lowest columns the row does
/// not use.
///
/// The CRC32C element-protection scheme of the ABFT layer distributes its
/// 32-bit checksum over 8 spare bits per element and therefore needs at least
/// four entries per row.  TeaLeaf's five-point-stencil assembly always stores
/// five entries per row; for general matrices (e.g. a Matrix Market file
/// with short rows) this helper restores that property without changing
/// the operator.  One CSR→CSR pass, merging each row with its zeros.
///
/// A row out of column order (a valid [`CsrMatrix`] may hold one) is first
/// sorted and its repeated columns summed, as [`CooMatrix::to_csr`] does.
///
/// # Panics
/// Panics if the matrix has fewer columns than `min_entries`.
pub fn pad_rows_to_min_entries(matrix: &CsrMatrix, min_entries: usize) -> CsrMatrix {
    let bounds = matrix.row_pointer();
    let nnz = bounds
        .windows(2)
        .map(|w| ((w[1] - w[0]) as usize).max(min_entries))
        .sum();
    let mut out = PaddedRows::new(matrix.rows(), matrix.cols(), min_entries, nnz);
    // Only a row out of column order touches this buffer.
    let mut scratch = Vec::new();
    for w in bounds.windows(2) {
        let range = w[0] as usize..w[1] as usize;
        let cols = &matrix.col_indices()[range.clone()];
        let entries = cols
            .iter()
            .copied()
            .zip(matrix.values()[range].iter().copied());
        if cols.windows(2).all(|c| c[0] < c[1]) {
            out.push_row(entries);
        } else {
            scratch.clear();
            scratch.extend(entries);
            let len = sort_and_merge_row(&mut scratch);
            out.push_row(scratch[..len].iter().copied());
        }
    }
    out.finish()
}

/// CSR arrays written one row at a time, each row padded with explicit
/// zeros at its lowest unused columns up to `min_entries`: the one padding
/// rule, shared by [`five_point_stencil`] and [`pad_rows_to_min_entries`].
struct PaddedRows {
    cols: usize,
    min_entries: usize,
    values: Vec<f64>,
    col_indices: Vec<u32>,
    row_pointer: Vec<u32>,
}

impl PaddedRows {
    fn new(rows: usize, cols: usize, min_entries: usize, nnz: usize) -> Self {
        assert!(
            cols >= min_entries,
            "cannot pad rows of a matrix with fewer than {min_entries} columns"
        );
        let mut row_pointer = Vec::with_capacity(rows + 1 + ROW_POINTER_SLACK);
        row_pointer.push(0);
        PaddedRows {
            cols,
            min_entries,
            values: Vec::with_capacity(nnz),
            col_indices: Vec::with_capacity(nnz),
            row_pointer,
        }
    }

    /// Appends one row, given in strictly ascending column order, merged
    /// with the zeros it needs.
    fn push_row(&mut self, entries: impl ExactSizeIterator<Item = (u32, f64)>) {
        let mut missing = self.min_entries.saturating_sub(entries.len());
        // A row that needs no zeros (every interior stencil row) skips the
        // merge: TeaLeaf assembles every step through here.
        if missing == 0 {
            for (col, value) in entries {
                self.col_indices.push(col);
                self.values.push(value);
            }
            self.row_pointer.push(self.col_indices.len() as u32);
            return;
        }
        let mut candidate = 0u32;
        for (col, value) in entries {
            while missing > 0 && candidate < col {
                self.col_indices.push(candidate);
                self.values.push(0.0);
                candidate += 1;
                missing -= 1;
            }
            self.col_indices.push(col);
            self.values.push(value);
            candidate = col + 1;
        }
        for zero_col in candidate..candidate + missing as u32 {
            self.col_indices.push(zero_col);
            self.values.push(0.0);
        }
        self.row_pointer.push(self.col_indices.len() as u32);
    }

    fn finish(self) -> CsrMatrix {
        CsrMatrix::try_new(
            self.row_pointer.len() - 1,
            self.cols,
            self.values,
            self.col_indices,
            self.row_pointer,
        )
        .expect("padded rows are structurally valid")
    }
}

/// Symmetric positive-definite tridiagonal matrix with the given diagonal and
/// off-diagonal values.
pub fn tridiagonal(n: usize, diag: f64, off: f64) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(n, n, 3 * n);
    for i in 0..n {
        if i > 0 {
            coo.push(i, i - 1, off);
        }
        coo.push(i, i, diag);
        if i + 1 < n {
            coo.push(i, i + 1, off);
        }
    }
    coo.to_csr().expect("tridiagonal assembly is valid")
}

/// A random sparse symmetric diagonally-dominant matrix, useful for property
/// tests: `extra` off-diagonal entries are scattered with a simple
/// multiplicative-congruential generator (deterministic for a given seed),
/// then the diagonal is set to the absolute row sum plus one so the matrix is
/// strictly diagonally dominant (hence SPD).
pub fn random_spd(n: usize, extra: usize, seed: u64) -> CsrMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut coo = CooMatrix::with_capacity(n, n, 2 * extra + n);
    let mut off_diagonal = vec![0.0f64; n];
    let mut pairs = std::collections::BTreeSet::new();
    for _ in 0..extra {
        let i = (next() % n as u64) as usize;
        let j = (next() % n as u64) as usize;
        if i == j || !pairs.insert((i.min(j), i.max(j))) {
            continue;
        }
        let v = ((next() % 1000) as f64 / 1000.0) - 0.5;
        coo.push(i, j, v);
        coo.push(j, i, v);
        off_diagonal[i] += v.abs();
        off_diagonal[j] += v.abs();
    }
    for (i, &o) in off_diagonal.iter().enumerate() {
        coo.push(i, i, o + 1.0);
    }
    coo.to_csr().expect("random SPD assembly is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_same_bits, five_point_stencil_via_coo, pad_rows_via_coo};
    use crate::Vector;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The Poisson stencil's coefficients.
    fn poisson_point(_: usize, _: usize) -> (f64, f64, f64, f64, f64) {
        (4.0, -1.0, -1.0, -1.0, -1.0)
    }

    const GRIDS: [(usize, usize); 6] = [(1, 1), (1, 7), (2, 2), (3, 1), (17, 13), (256, 256)];

    /// Coefficients that differ per point and per direction, with a signed
    /// zero in every fifth north entry (stored, so its sign must survive).
    fn varied(i: usize, j: usize) -> (f64, f64, f64, f64, f64) {
        let base = (i * 31 + j * 17) as f64 * 0.125;
        let north = if (i + j).is_multiple_of(5) {
            -0.0
        } else {
            -base - 1.0
        };
        (4.0 + base, -base - 0.5, -base - 0.75, -base - 0.25, north)
    }

    /// `new` and `old` both panic, or both return the same bits.
    fn pin(label: &str, new: impl FnOnce() -> CsrMatrix, old: impl FnOnce() -> CsrMatrix) {
        match (
            catch_unwind(AssertUnwindSafe(new)),
            catch_unwind(AssertUnwindSafe(old)),
        ) {
            (Ok(got), Ok(want)) => assert_same_bits(&got, &want, label),
            (Err(_), Err(_)) => {}
            (got, want) => panic!(
                "{label}: new panicked {}, old panicked {}",
                got.is_err(),
                want.is_err()
            ),
        }
    }

    #[test]
    fn direct_stencil_equals_the_coo_route_bit_for_bit() {
        for (nx, ny) in GRIDS {
            let label = format!("{nx}x{ny}");
            pin(
                &format!("poisson_2d {label}"),
                || poisson_2d(nx, ny),
                || five_point_stencil_via_coo(nx, ny, poisson_point),
            );
            pin(
                &format!("poisson_2d_padded {label}"),
                || poisson_2d_padded(nx, ny),
                || pad_rows_via_coo(&five_point_stencil_via_coo(nx, ny, poisson_point), 4),
            );
            for floor in [0, 4, 5] {
                pin(
                    &format!("five_point_stencil {label} floor {floor}"),
                    || five_point_stencil(nx, ny, floor, varied),
                    || pad_rows_via_coo(&five_point_stencil_via_coo(nx, ny, varied), floor),
                );
            }
        }
        // Floors larger than the grid panic, as padding always has.
        assert!(catch_unwind(|| poisson_2d_padded(1, 3)).is_err());
        assert!(catch_unwind(|| five_point_stencil(2, 2, 5, varied)).is_err());
    }

    #[test]
    fn padding_equals_the_coo_route_on_every_fixture() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
        let mut fixtures = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "mtx") {
                continue;
            }
            fixtures += 1;
            let matrix = crate::load_matrix_market(&path).unwrap();
            for floor in [0, 4, 5] {
                pin(
                    &format!("{} floor {floor}", path.display()),
                    || pad_rows_to_min_entries(&matrix, floor),
                    || pad_rows_via_coo(&matrix, floor),
                );
            }
        }
        assert_eq!(fixtures, 5);
    }

    #[test]
    fn padding_canonicalises_rows_out_of_column_order() {
        // Without duplicates, the old route's bits.
        let unsorted = CsrMatrix::try_new(1, 4, vec![1.0, 2.0], vec![2, 1], vec![0, 2]).unwrap();
        for floor in [0, 4] {
            pin(
                &format!("unsorted floor {floor}"),
                || pad_rows_to_min_entries(&unsorted, floor),
                || pad_rows_via_coo(&unsorted, floor),
            );
        }
        // Duplicates are summed in stored order before the row is padded,
        // so the padded row holds the floor's count of distinct columns.
        let repeated = CsrMatrix::try_new(
            2,
            4,
            vec![1e16, 1.0, -1e16, 7.0, 3.0],
            vec![3, 3, 3, 0, 2],
            vec![0, 3, 5],
        )
        .unwrap();
        let padded = pad_rows_to_min_entries(&repeated, 3);
        assert_eq!(padded.row_pointer(), &[0, 3, 6]);
        assert_eq!(padded.col_indices(), &[0, 1, 3, 0, 1, 2]);
        assert_eq!(padded.values(), &[0.0, 0.0, 0.0, 7.0, 0.0, 3.0]);
    }

    #[test]
    fn poisson_structure() {
        let a = poisson_2d(3, 3);
        assert_eq!(a.rows(), 9);
        assert_eq!(a.cols(), 9);
        // Corner rows have 3 entries, edge rows 4, the centre row 5.
        assert_eq!(a.row_range(0).len(), 3);
        assert_eq!(a.row_range(1).len(), 4);
        assert_eq!(a.row_range(4).len(), 5);
        assert_eq!(a.nnz(), 9 + 2 * (2 * 3 * 2)); // diag + two neighbours per interior edge
        assert!(a.is_symmetric(0.0));
        assert_eq!(a.get(4, 4), 4.0);
        assert_eq!(a.get(4, 3), -1.0);
        assert_eq!(a.get(4, 7), -1.0);
        assert_eq!(a.get(4, 0), 0.0);
    }

    #[test]
    fn poisson_row_width_is_at_most_five() {
        let a = poisson_2d(8, 5);
        for row in 0..a.rows() {
            let w = a.row_range(row).len();
            assert!((3..=5).contains(&w));
        }
    }

    #[test]
    fn stencil_callback_receives_grid_coordinates() {
        let a = five_point_stencil(4, 3, 0, |i, j| ((i + j) as f64 + 1.0, 0.5, 0.5, 0.5, 0.5));
        assert_eq!(a.get(0, 0), 1.0); // (0,0)
        assert_eq!(a.get(5, 5), 3.0); // (1,1)
        assert_eq!(a.get(11, 11), 6.0); // (3,2)
    }

    #[test]
    fn tridiagonal_spmv() {
        let a = tridiagonal(5, 2.0, -1.0);
        assert!(a.is_symmetric(0.0));
        let x = Vector::filled(5, 1.0);
        let mut y = Vector::zeros(5);
        a.spmv(&x, &mut y);
        assert_eq!(y.as_slice(), &[1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn random_spd_is_symmetric_and_dominant() {
        let a = random_spd(40, 120, 42);
        assert!(a.is_symmetric(1e-12));
        for row in 0..a.rows() {
            let diag = a.get(row, row);
            let off: f64 = a
                .row_entries(row)
                .filter(|&(c, _)| c as usize != row)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(diag > off, "row {row} not diagonally dominant");
        }
    }

    #[test]
    fn random_spd_is_deterministic_for_a_seed() {
        let a = random_spd(20, 50, 7);
        let b = random_spd(20, 50, 7);
        assert_eq!(a, b);
        let c = random_spd(20, 50, 8);
        assert_ne!(a, c);
    }
}
