//! Test-only references: the assembly routes that [`CooMatrix::to_csr`]'s
//! counting sort and the direct five-point assembler replaced, kept so the
//! tests can pin the new paths to the old bits.

use crate::{CooMatrix, CsrMatrix};

/// The old `CooMatrix::to_csr`: clone the triplets, sort them globally by
/// `(row, col)`, and sum runs of equal coordinates.
pub(crate) fn to_csr_via_global_sort(coo: &CooMatrix) -> CsrMatrix {
    let mut entries: Vec<(u32, u32, f64)> = coo
        .iter()
        .map(|(r, c, v)| (r as u32, c as u32, v))
        .collect();
    entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

    let mut values = Vec::with_capacity(entries.len());
    let mut col_indices = Vec::with_capacity(entries.len());
    let mut row_pointer = vec![0u32; coo.rows() + 1];
    let mut iter = entries.into_iter().peekable();
    while let Some((r, c, mut v)) = iter.next() {
        while let Some(&(nr, nc, nv)) = iter.peek() {
            if nr == r && nc == c {
                v += nv;
                iter.next();
            } else {
                break;
            }
        }
        values.push(v);
        col_indices.push(c);
        row_pointer[r as usize + 1] += 1;
    }
    for i in 0..coo.rows() {
        row_pointer[i + 1] += row_pointer[i];
    }
    CsrMatrix::try_new(coo.rows(), coo.cols(), values, col_indices, row_pointer).unwrap()
}

/// The old `five_point_stencil`: every stencil point pushed through a COO,
/// then the global sort.
pub(crate) fn five_point_stencil_via_coo(
    nx: usize,
    ny: usize,
    mut coeff: impl FnMut(usize, usize) -> (f64, f64, f64, f64, f64),
) -> CsrMatrix {
    let n = nx * ny;
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    for j in 0..ny {
        for i in 0..nx {
            let row = j * nx + i;
            let (c, w, e, s, nth) = coeff(i, j);
            if j > 0 {
                coo.push(row, row - nx, s);
            }
            if i > 0 {
                coo.push(row, row - 1, w);
            }
            coo.push(row, row, c);
            if i + 1 < nx {
                coo.push(row, row + 1, e);
            }
            if j + 1 < ny {
                coo.push(row, row + nx, nth);
            }
        }
    }
    to_csr_via_global_sort(&coo)
}

/// The old `pad_rows_to_min_entries`: one `Vec` of columns per row, a
/// second COO with the zeros at the lowest unused columns, a second sort.
pub(crate) fn pad_rows_via_coo(matrix: &CsrMatrix, min_entries: usize) -> CsrMatrix {
    assert!(
        matrix.cols() >= min_entries,
        "cannot pad rows of a matrix with fewer than {min_entries} columns"
    );
    let mut coo =
        CooMatrix::with_capacity(matrix.rows(), matrix.cols(), matrix.nnz() + matrix.rows());
    for row in 0..matrix.rows() {
        let existing: Vec<u32> = matrix.row_entries(row).map(|(c, _)| c).collect();
        for (c, v) in matrix.row_entries(row) {
            coo.push(row, c as usize, v);
        }
        let mut missing = min_entries.saturating_sub(existing.len());
        let mut candidate = 0usize;
        while missing > 0 {
            if !existing.contains(&(candidate as u32)) {
                coo.push(row, candidate, 0.0);
                missing -= 1;
            }
            candidate += 1;
        }
    }
    to_csr_via_global_sort(&coo)
}

/// `a` and `b` hold the same bits: row pointer, columns and every value's
/// `f64` bit pattern (so `-0.0` and `0.0` differ).
pub(crate) fn assert_same_bits(a: &CsrMatrix, b: &CsrMatrix, label: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{label}");
    assert_eq!(a.row_pointer(), b.row_pointer(), "{label}");
    assert_eq!(a.col_indices(), b.col_indices(), "{label}");
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "{label}");
}
