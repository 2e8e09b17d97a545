//! The fully protected CSR matrix (§VI-A).
//!
//! [`ProtectedCsr`] owns the three CSR arrays with redundancy embedded in
//! their spare bits — values are stored verbatim, column indices carry the
//! element redundancy in their top bits, and the row pointer is wrapped in a
//! [`ProtectedRowPointer`].  The sparse matrix–vector product is implemented
//! directly on the protected representation so that integrity checks happen
//! *inside* the memory-bandwidth-bound kernel, exactly where the paper
//! measures their cost.
//!
//! Two check strengths exist per access, driven by the configured
//! [`CheckPolicy`](crate::CheckPolicy): a **full check** verifies (and
//! transiently corrects) the codewords touched, while a **bounds check** only
//! validates that decoded indices stay inside the matrix — enough to avoid
//! out-of-bounds reads when checks are elided between intervals (§VI-A-2).
//! Corrections observed during reads are recorded in the [`FaultLog`]; the
//! storage itself is repaired by [`ProtectedMatrix::scrub`], which the solver
//! calls when the log reports corrected errors.

use crate::csr_element::ElementCodec;
use crate::error::AbftError;
use crate::protected_matrix::{ProtectedMatrix, Repair};
use crate::report::{FaultLog, Region};
use crate::row_pointer::{ProtectedRowPointer, RpCursor};
use crate::schemes::{EccScheme, ProtectionConfig};
use crate::spmv::{dispatch_panel_readers, DenseView, MaskedX, SliceX, XRead, MAX_PANEL_WIDTH};
use abft_sparse::CsrMatrix;

/// Rows per block of the range kernel: each block's contiguous element run
/// is certified by one batched predicate (which needs runs of at least 16
/// SECDED codewords, or 4 CRC32C rows, to use its fast kernel) before the
/// multiply loop runs over it.
const ROW_BLOCK: usize = 64;

/// A CSR matrix whose elements and row pointer carry embedded software ECC.
#[derive(Debug, Clone)]
pub struct ProtectedCsr {
    rows: usize,
    cols: usize,
    nnz: usize,
    values: Vec<f64>,
    col_indices: Vec<u32>,
    row_pointer: ProtectedRowPointer,
    codec: ElementCodec,
    config: ProtectionConfig,
}

impl ProtectedCsr {
    /// Encodes a plain CSR matrix under `config`.
    ///
    /// Fails when the matrix exceeds the scheme's dimension limits or (for
    /// CRC32C element protection) has rows with fewer than four entries.
    pub fn from_csr(matrix: &CsrMatrix, config: &ProtectionConfig) -> Result<Self, AbftError> {
        if config.elements != EccScheme::None && matrix.cols() > config.elements.max_columns() {
            return Err(AbftError::TooManyColumns {
                cols: matrix.cols(),
                max: config.elements.max_columns(),
            });
        }
        let codec = ElementCodec::new(config.elements, config.crc_backend);
        let mut col_indices = matrix.col_indices().to_vec();
        codec.encode(matrix.values(), &mut col_indices, matrix.row_pointer())?;
        let row_pointer = ProtectedRowPointer::encode(
            matrix.row_pointer(),
            config.row_pointer,
            config.crc_backend,
        )?;
        Ok(ProtectedCsr {
            rows: matrix.rows(),
            cols: matrix.cols(),
            nnz: matrix.nnz(),
            values: matrix.values().to_vec(),
            col_indices,
            row_pointer,
            codec,
            config: *config,
        })
    }

    /// The protected row pointer.
    pub fn row_pointer(&self) -> &ProtectedRowPointer {
        &self.row_pointer
    }

    /// Raw stored values (no redundancy lives here; exposed for fault
    /// injection and tests).
    pub fn raw_values(&self) -> &[f64] {
        &self.values
    }

    /// Raw encoded column indices (redundancy in the top bits).
    pub fn raw_col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Computes `out[i * w + j] = (A x_j)[row0 + i]` for a contiguous row
    /// range and the `w` input vectors behind `sink` — the one kernel under
    /// every SpMV and SpMM entry point, monomorphized over its accumulator
    /// (a scalar for one vector, a stack panel for several) and over the
    /// input-vector storage kind.
    ///
    /// Every matrix codeword (row-pointer group, element codeword, CRC row)
    /// is verified **once** per traversal whatever the width, and each
    /// column accumulates in element order, so column `j` of a panel is
    /// bitwise identical to the single-vector product of `x_j`.  All errors
    /// are matrix-side (element / row-pointer corruption, or a decoded
    /// column index escaping the vector bounds); vector-side integrity is
    /// the caller's job.
    ///
    /// Integrity-check counters are tallied locally and folded into the
    /// shared log in one bulk update per invocation, so the parallel path
    /// performs two atomic additions per *chunk* instead of several per row.
    pub(crate) fn range_kernel<S: RowSink>(
        &self,
        row0: usize,
        sink: &S,
        out: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        let width = sink.checked_width(out.len());
        let rp_checked = check && self.row_pointer.scheme() != EccScheme::None;
        let elements_checked = check && self.config.elements != EccScheme::None;
        let mut cursor = RpCursor::new(&self.row_pointer, true);
        let mut bounds = [0usize; ROW_BLOCK + 1];
        KernelTally::flushed_to(log, |tally| {
            for (b, block) in out.chunks_mut(ROW_BLOCK * width).enumerate() {
                let first = row0 + b * ROW_BLOCK;
                let rows = block.len() / width;
                let certified = self.certify_block(
                    &cursor,
                    first,
                    rows,
                    rp_checked,
                    elements_checked,
                    &mut bounds,
                );
                for (i, row) in block.chunks_exact_mut(width).enumerate() {
                    let (start, end) = if certified {
                        tally.row_structure += 2 * rp_checked as u64;
                        (bounds[i], bounds[i + 1])
                    } else {
                        cursor.row_bounds(first + i, rp_checked, log, &mut tally.row_structure)?
                    };
                    if elements_checked {
                        tally.elements += (end - start) as u64;
                    }
                    let mut acc = S::ZERO;
                    self.codec.read_row(
                        &self.values,
                        &self.col_indices,
                        start,
                        end,
                        certified || !elements_checked,
                        scratch,
                        log,
                        |v, col, k| sink.fma(&mut acc, v, col as usize, k, log),
                    )?;
                    sink.store(&acc, row);
                }
            }
            Ok(())
        })
    }

    /// The block step of the range kernel and of the CRC32C element walk:
    /// reads the row bounds of rows `first..first + rows` into
    /// `bounds[..=rows]` and, with `elements_checked`, certifies the block's
    /// contiguous element run with the codec's batched predicate
    /// (interval-skipped or unprotected elements are read masked whatever
    /// they hold).  `true` means every row-pointer codeword read verified
    /// clean, the bounds are ordered and in range, and every element
    /// codeword that was to be checked is clean, so the rows may be read
    /// masked straight off `bounds`.
    /// Nothing is recorded either way: on `false` the caller re-walks the
    /// block row by row through the logging path, which then reports
    /// exactly the events, indices and check counts it always has.
    fn certify_block(
        &self,
        cursor: &RpCursor,
        first: usize,
        rows: usize,
        rp_checked: bool,
        elements_checked: bool,
        bounds: &mut [usize; ROW_BLOCK + 1],
    ) -> bool {
        if elements_checked && !self.codec.certifies_runs() {
            return false;
        }
        let bounds = &mut bounds[..=rows];
        if !cursor.bounds_if_clean(first, bounds, rp_checked) {
            return false;
        }
        let (values, cols) = (&self.values, &self.col_indices);
        bounds.is_sorted()
            && bounds[rows] <= self.nnz
            && (!elements_checked || self.codec.rows_clean(values, cols, bounds))
    }

    /// The one element walk under `verify_all` and `scrub`, which walk the
    /// row pointer first: every element codeword verified once, each
    /// correction handed to `repair`.  Row-granular (CRC32C) codewords need
    /// the row bounds, read through the checked cursor — a correctable
    /// row-pointer flip must not shift the slice a row's checksum is
    /// computed over — whose tally is dropped and whose corrections go
    /// unlogged: the row pointer's own walk has counted and logged them.
    fn walk(&self, log: &FaultLog, mut repair: impl FnMut(Repair)) -> Result<(), AbftError> {
        let (values, cols) = (&self.values[..], &self.col_indices[..]);
        let mut scratch = Vec::new();
        let mut tally = 0u64;
        let mut verify = |start, end, tally: &mut u64| {
            let scratch = &mut scratch;
            self.codec
                .verify_run(values, cols, start, end, scratch, tally, log, &mut repair)
        };
        let result = if !self.codec.row_granular() {
            // Element- and pair-granular codewords are independent of the row
            // structure; one run over the arrays checks each exactly once.
            verify(0, self.nnz, &mut tally)
        } else {
            let rp_checked = self.row_pointer.scheme() != EccScheme::None;
            let mut cursor = RpCursor::new(&self.row_pointer, false);
            let mut bounds = [0usize; ROW_BLOCK + 1];
            (0..self.rows).step_by(ROW_BLOCK).try_for_each(|first| {
                let rows = ROW_BLOCK.min(self.rows - first);
                if self.certify_block(&cursor, first, rows, rp_checked, true, &mut bounds) {
                    tally += rows as u64;
                    return Ok(());
                }
                (first..first + rows).try_for_each(|row| {
                    let (start, end) = cursor.row_bounds(row, rp_checked, log, &mut 0)?;
                    verify(start, end, &mut tally)
                })
            })
        };
        log.record_checks(Region::CsrElements, tally);
        result
    }
}

impl ProtectedMatrix for ProtectedCsr {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn config(&self) -> &ProtectionConfig {
        &self.config
    }

    fn spmv_range_view(
        &self,
        row0: usize,
        x: DenseView<'_>,
        y: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        match x {
            DenseView::Slice(s) => {
                self.range_kernel(row0, &OneVector(SliceX(s)), y, check, scratch, log)
            }
            DenseView::MaskedWords { words, mask } => {
                let x = OneVector(MaskedX { words, mask });
                self.range_kernel(row0, &x, y, check, scratch, log)
            }
        }
    }

    fn spmm_range_view(
        &self,
        row0: usize,
        xs: &[DenseView<'_>],
        products: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        dispatch_panel_readers!(xs, |readers| self.range_kernel(
            row0,
            &Panel(readers),
            products,
            check,
            scratch,
            log
        ))
    }

    fn verify_all(&self, log: &FaultLog) -> Result<(), AbftError> {
        self.row_pointer.check_all(log)?;
        self.walk(log, |_| {})
    }

    fn scrub(&mut self, log: &FaultLog) -> Result<usize, AbftError> {
        let before = log.total_corrected();
        self.row_pointer.scrub(log)?;
        let mut repairs = Vec::new();
        let result = self.walk(log, |repair| repairs.push(repair));
        self.codec
            .write_back(&mut self.values, &mut self.col_indices, &repairs);
        result?;
        Ok((log.total_corrected() - before) as usize)
    }

    fn to_csr(&self) -> CsrMatrix {
        let cols: Vec<u32> = self
            .col_indices
            .iter()
            .map(|&c| self.codec.mask_col(c))
            .collect();
        CsrMatrix::from_raw(
            self.rows,
            self.cols,
            self.values.clone(),
            cols,
            self.row_pointer.to_plain(),
        )
    }

    fn inject_value_bit_flip(&mut self, k: usize, bit: u32) {
        self.values[k] = f64::from_bits(self.values[k].to_bits() ^ (1u64 << bit));
    }

    fn inject_col_bit_flip(&mut self, k: usize, bit: u32) {
        self.col_indices[k] ^= 1u32 << bit;
    }

    fn inject_structure_bit_flip(&mut self, entry: usize, bit: u32) {
        self.row_pointer.inject_bit_flip(entry, bit);
    }

    fn structure_entries(&self) -> usize {
        self.rows + 1
    }
}

/// Check counts a range kernel tallies locally and folds into the shared log
/// in one bulk update per invocation.
#[derive(Debug, Default)]
pub(crate) struct KernelTally {
    /// Row-pointer entries (CSR) or row indices (COO) read checked.
    pub(crate) row_structure: u64,
    /// Elements of the rows whose element codewords were verified.
    pub(crate) elements: u64,
}

impl KernelTally {
    /// Runs `kernel` over a fresh tally and flushes it to `log` — on the
    /// error path too, so checks performed before an aborting fault stay
    /// accounted for.
    pub(crate) fn flushed_to<T>(log: &FaultLog, kernel: impl FnOnce(&mut KernelTally) -> T) -> T {
        let mut tally = KernelTally::default();
        let result = kernel(&mut tally);
        if tally.row_structure > 0 {
            log.record_checks(Region::RowPointer, tally.row_structure);
        }
        if tally.elements > 0 {
            log.record_checks(Region::CsrElements, tally.elements);
        }
        result
    }
}

/// What a range kernel folds one row's decoded elements into: the input
/// vector(s) it multiplies by and the per-row accumulator, fixed at compile
/// time so the single-vector kernel keeps its sum in a register instead of
/// running as a width-1 panel.
pub(crate) trait RowSink {
    /// One row's running sums.
    type Acc;
    /// The sums before the row's first element.
    const ZERO: Self::Acc;

    /// Output slots per row.
    fn width(&self) -> usize;

    /// `acc[j] += v * x_j[col]` for every input vector, in order.  Column
    /// `j`'s sum sees exactly the adds of the single-vector kernel, in the
    /// same order — what makes multi-RHS outputs bitwise identical to
    /// independent SpMVs.  `k` is the element's position, for the error.
    fn fma(
        &self,
        acc: &mut Self::Acc,
        v: f64,
        col: usize,
        k: usize,
        log: &FaultLog,
    ) -> Result<(), AbftError>;

    /// Writes a finished row's sums to its `width()` output slots.
    fn store(&self, acc: &Self::Acc, out: &mut [f64]);

    /// `width()`, checked against the panel bound and an output buffer of
    /// `out_len` slots.
    fn checked_width(&self, out_len: usize) -> usize {
        let width = self.width();
        assert!(
            (1..=MAX_PANEL_WIDTH).contains(&width),
            "range kernel: panel width {width} outside 1..={MAX_PANEL_WIDTH}"
        );
        assert_eq!(
            out_len % width,
            0,
            "range kernel: output not a whole number of rows"
        );
        width
    }
}

/// One input vector, one scalar sum per row.
pub(crate) struct OneVector<R>(pub(crate) R);

impl<R: XRead> RowSink for OneVector<R> {
    type Acc = f64;
    const ZERO: f64 = 0.0;

    #[inline(always)]
    fn width(&self) -> usize {
        1
    }

    #[inline(always)]
    fn fma(
        &self,
        acc: &mut f64,
        v: f64,
        col: usize,
        k: usize,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        *acc += v * read_x(self.0, col, k, log)?;
        Ok(())
    }

    #[inline(always)]
    fn store(&self, acc: &f64, out: &mut [f64]) {
        out[0] = *acc;
    }
}

/// A panel of up to [`MAX_PANEL_WIDTH`] input vectors, one stack slot each.
pub(crate) struct Panel<'a, R>(pub(crate) &'a [R]);

impl<R: XRead> RowSink for Panel<'_, R> {
    type Acc = [f64; MAX_PANEL_WIDTH];
    const ZERO: Self::Acc = [0.0; MAX_PANEL_WIDTH];

    #[inline(always)]
    fn width(&self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn fma(
        &self,
        acc: &mut Self::Acc,
        v: f64,
        col: usize,
        k: usize,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        for (j, x) in self.0.iter().enumerate() {
            acc[j] += v * read_x(*x, col, k, log)?;
        }
        Ok(())
    }

    #[inline(always)]
    fn store(&self, acc: &Self::Acc, out: &mut [f64]) {
        out.copy_from_slice(&acc[..out.len()]);
    }
}

/// Bounds-checked read of the input vector inside the kernels — the single
/// `Option` test per access is the range check that prevents the
/// segmentation faults the paper's checks exist to stop.
#[inline(always)]
fn read_x<R: XRead>(x: R, col: usize, k: usize, log: &FaultLog) -> Result<f64, AbftError> {
    match x.get(col) {
        Some(v) => Ok(v),
        None => Err(x_out_of_range(log, k, col, x.len())),
    }
}

/// Out-of-line construction of the bounds-violation error keeps the kernel
/// loops free of error-formatting code.
#[cold]
fn x_out_of_range(log: &FaultLog, index: usize, col: usize, limit: usize) -> AbftError {
    log.record_bounds_violation(Region::CsrElements);
    AbftError::OutOfRange {
        region: Region::CsrElements,
        index,
        value: col,
        limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyProtectedMatrix, SpmvWorkspace, StorageTier};
    use abft_ecc::Crc32cBackend;
    use abft_sparse::Vector;

    fn config(elements: EccScheme, row_pointer: EccScheme) -> ProtectionConfig {
        ProtectionConfig {
            elements,
            row_pointer,
            vectors: EccScheme::None,
            check_interval: 1,
            crc_backend: Crc32cBackend::SlicingBy16,
            parallel: false,
            parity: None,
        }
    }

    /// A Poisson matrix padded so every row has at least four entries (the
    /// CRC32C requirement); mirrors TeaLeaf's always-five-entry rows.
    fn test_matrix() -> CsrMatrix {
        abft_sparse::builders::poisson_2d_padded(12, 9)
    }

    fn reference_spmv(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; m.rows()];
        abft_sparse::spmv::spmv_serial(m, x, &mut y);
        y
    }

    #[test]
    fn spmv_matches_unprotected_for_all_schemes() {
        let m = test_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.13).cos()).collect();
        let expected = reference_spmv(&m, &x);
        for elements in [
            EccScheme::None,
            EccScheme::Sed,
            EccScheme::Secded64,
            EccScheme::Secded128,
            EccScheme::Crc32c,
        ] {
            for row_pointer in [
                EccScheme::None,
                EccScheme::Sed,
                EccScheme::Secded64,
                EccScheme::Crc32c,
            ] {
                let p = ProtectedCsr::from_csr(&m, &config(elements, row_pointer)).unwrap();
                let log = FaultLog::new();
                let mut y = vec![0.0; m.rows()];
                p.spmv_with(&x, &mut y, 0, &log, &mut SpmvWorkspace::new())
                    .unwrap();
                assert_eq!(y, expected, "{elements:?}/{row_pointer:?}");
                // A parallel-configured matrix agrees.
                let par = config(elements, row_pointer).with_parallel(true);
                let p_par = ProtectedCsr::from_csr(&m, &par).unwrap();
                let mut y2 = vec![0.0; m.rows()];
                p_par
                    .spmv_with(&x, &mut y2, 0, &log, &mut SpmvWorkspace::new())
                    .unwrap();
                assert_eq!(y2, expected, "{elements:?}/{row_pointer:?} parallel");
                // Interval-skipped iteration agrees too.
                let p2 = ProtectedCsr::from_csr(
                    &m,
                    &config(elements, row_pointer).with_check_interval(8),
                )
                .unwrap();
                let mut y3 = vec![0.0; m.rows()];
                p2.spmv_with(&x, &mut y3, 3, &log, &mut SpmvWorkspace::new())
                    .unwrap();
                assert_eq!(y3, expected, "{elements:?}/{row_pointer:?} skipped");
                assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);
            }
        }
    }

    #[test]
    fn roundtrip_to_csr() {
        let m = test_matrix();
        for elements in EccScheme::ALL {
            let p = ProtectedCsr::from_csr(&m, &config(elements, EccScheme::Secded64)).unwrap();
            assert_eq!(p.to_csr(), m, "{elements:?}");
            assert_eq!(p.rows(), m.rows());
            assert_eq!(p.cols(), m.cols());
            assert_eq!(p.nnz(), m.nnz());
        }
    }

    #[test]
    fn dimension_limits_are_enforced() {
        // A matrix with 2^24 columns exceeds the SECDED/CRC limit but not SED's.
        let cols = (1usize << 24) + 1;
        let m = CsrMatrix::try_new(
            1,
            cols,
            vec![1.0, 2.0, 3.0, 4.0],
            vec![0, 1, 2, cols as u32 - 1],
            vec![0, 4],
        )
        .unwrap();
        assert!(ProtectedCsr::from_csr(&m, &config(EccScheme::Sed, EccScheme::None)).is_ok());
        assert!(matches!(
            ProtectedCsr::from_csr(&m, &config(EccScheme::Secded64, EccScheme::None)),
            Err(AbftError::TooManyColumns { .. })
        ));
        assert!(matches!(
            ProtectedCsr::from_csr(&m, &config(EccScheme::Crc32c, EccScheme::None)),
            Err(AbftError::TooManyColumns { .. })
        ));
    }

    #[test]
    fn value_flips_are_corrected_transiently_and_scrubbed() {
        let m = test_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + i as f64 * 0.01).collect();
        let expected = reference_spmv(&m, &x);
        for elements in [EccScheme::Secded64, EccScheme::Secded128, EccScheme::Crc32c] {
            let mut p = ProtectedCsr::from_csr(&m, &config(elements, EccScheme::None)).unwrap();
            p.inject_value_bit_flip(17, 44);
            let log = FaultLog::new();
            let mut y = vec![0.0; m.rows()];
            // The product is still exact because the correction is applied on read.
            p.spmv_with(&x, &mut y, 0, &log, &mut SpmvWorkspace::new())
                .unwrap();
            assert_eq!(y, expected, "{elements:?}");
            assert!(log.total_corrected() > 0, "{elements:?}");
            // Scrub repairs storage.
            let repaired = p.scrub(&log).unwrap();
            assert!(repaired > 0, "{elements:?}");
            assert_eq!(p.to_csr(), m, "{elements:?}");
            let log2 = FaultLog::new();
            p.verify_all(&log2).unwrap();
            assert_eq!(log2.total_corrected(), 0, "{elements:?}");
        }
    }

    #[test]
    fn sed_detects_but_cannot_correct() {
        let m = test_matrix();
        let x = vec![1.0; m.cols()];
        let mut p = ProtectedCsr::from_csr(&m, &config(EccScheme::Sed, EccScheme::None)).unwrap();
        p.inject_value_bit_flip(5, 10);
        let log = FaultLog::new();
        let mut y = vec![0.0; m.rows()];
        assert!(p
            .spmv_with(&x, &mut y, 0, &log, &mut SpmvWorkspace::new())
            .is_err());
        assert!(log.total_uncorrectable() > 0);
        assert!(p.verify_all(&log).is_err());
    }

    #[test]
    fn col_index_flips_are_handled() {
        let m = test_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| i as f64).collect();
        let expected = reference_spmv(&m, &x);
        for elements in [EccScheme::Secded64, EccScheme::Crc32c] {
            let mut p = ProtectedCsr::from_csr(&m, &config(elements, EccScheme::None)).unwrap();
            p.inject_col_bit_flip(23, 2);
            let log = FaultLog::new();
            let mut y = vec![0.0; m.rows()];
            p.spmv_with(&x, &mut y, 0, &log, &mut SpmvWorkspace::new())
                .unwrap();
            assert_eq!(y, expected, "{elements:?}");
            assert!(log.total_corrected() > 0);
        }
    }

    #[test]
    fn bounds_checks_catch_wild_indices_when_checks_are_skipped() {
        let m = test_matrix();
        let x = vec![1.0; m.cols()];
        // interval 100: iteration 1 will not run full checks.
        let cfg = config(EccScheme::Secded64, EccScheme::None).with_check_interval(100);
        let mut p = ProtectedCsr::from_csr(&m, &cfg).unwrap();
        // Flip a high column-index bit: the masked value becomes out of range.
        p.inject_col_bit_flip(40, 23);
        let log = FaultLog::new();
        let mut y = vec![0.0; m.rows()];
        let result = p.spmv_with(&x, &mut y, 1, &log, &mut SpmvWorkspace::new());
        assert!(result.is_err());
        assert!(log.total_bounds_violations() > 0);
        // The same corruption on a checked iteration is corrected instead.
        let log2 = FaultLog::new();
        p.spmv_with(&x, &mut y, 0, &log2, &mut SpmvWorkspace::new())
            .unwrap();
        assert!(log2.total_corrected() > 0);
    }

    #[test]
    fn row_pointer_corruption_is_caught() {
        let m = test_matrix();
        let x = vec![1.0; m.cols()];
        let expected = reference_spmv(&m, &x);
        let mut p =
            ProtectedCsr::from_csr(&m, &config(EccScheme::None, EccScheme::Secded64)).unwrap();
        p.inject_structure_bit_flip(7, 9);
        let log = FaultLog::new();
        let mut y = vec![0.0; m.rows()];
        p.spmv_with(&x, &mut y, 0, &log, &mut SpmvWorkspace::new())
            .unwrap();
        assert_eq!(y, expected);
        assert!(log.total_corrected() > 0);
        let repaired = p.scrub(&log).unwrap();
        assert_eq!(repaired, 1);
    }

    /// The paper's elements-only configuration leaves the row pointer
    /// unguarded, so under row-wide CRC32C a flipped offset reaches the
    /// element kernels as a row of the wrong shape.  Every whole-matrix
    /// read must turn it into an error: an offset that leaves the arrays is
    /// out of range, a row too short to hold its checksum is refused, any
    /// other shift fails the checksum.
    #[test]
    fn unprotected_row_pointer_flips_never_panic_under_crc_elements() {
        let m = abft_sparse::builders::poisson_2d_padded(8, 8);
        // A shifted bound can make a row of most of the matrix, whose trial
        // correction is quadratic in its length: take the fastest checksum.
        let cfg = config(EccScheme::Crc32c, EccScheme::None).with_crc_backend(Crc32cBackend::Auto);
        let x = vec![1.0; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let mut ws = SpmvWorkspace::new();
        for tier in [StorageTier::Csr, StorageTier::BlockedCsr(3)] {
            let clean = AnyProtectedMatrix::encode(&m, &cfg, tier).unwrap();
            for entry in 0..=m.rows() {
                for bit in 0..12 {
                    let label = format!("{tier:?} entry {entry} bit {bit}");
                    let mut corrupt = clean.clone();
                    corrupt.inject_structure_bit_flip(entry, bit);
                    let log = FaultLog::new();
                    assert!(corrupt.verify_all(&log).is_err(), "verify_all {label}");
                    let product = corrupt.spmv_with(&x[..], &mut y, 0, &log, &mut ws);
                    assert!(product.is_err(), "spmv_with {label}");
                    assert!(corrupt.scrub(&log).is_err(), "scrub {label}");
                    assert_eq!(log.total_corrected(), 0, "{label}");
                }
            }
        }
    }

    #[test]
    fn double_flip_is_reported_uncorrectable() {
        let m = test_matrix();
        let x = vec![1.0; m.cols()];
        let mut p =
            ProtectedCsr::from_csr(&m, &config(EccScheme::Secded64, EccScheme::None)).unwrap();
        p.inject_value_bit_flip(8, 3);
        p.inject_value_bit_flip(8, 40);
        let log = FaultLog::new();
        let mut y = vec![0.0; m.rows()];
        let err = p
            .spmv_with(&x, &mut y, 0, &log, &mut SpmvWorkspace::new())
            .unwrap_err();
        assert!(matches!(
            err,
            AbftError::Uncorrectable {
                region: Region::CsrElements,
                ..
            }
        ));
        assert!(log.total_uncorrectable() > 0);
    }

    #[test]
    fn spmv_auto_respects_parallel_flag() {
        let m = test_matrix();
        let x: Vec<f64> = (0..m.cols()).map(|i| (i % 7) as f64).collect();
        let expected = reference_spmv(&m, &x);
        let mut cfg = config(EccScheme::Secded64, EccScheme::Sed);
        cfg.parallel = true;
        let p = ProtectedCsr::from_csr(&m, &cfg).unwrap();
        let log = FaultLog::new();
        let mut y = vec![0.0; m.rows()];
        p.spmv_with(&x, &mut y, 0, &log, &mut SpmvWorkspace::new())
            .unwrap();
        assert_eq!(y, expected);
        assert_eq!(p.config().elements, EccScheme::Secded64);
        assert_eq!(p.policy().interval(), 1);
    }

    #[test]
    fn spmv_vector_matches_via_vector_wrapper() {
        // Convenience check that the Vector type can drive the protected SpMV.
        let m = test_matrix();
        let x = Vector::from_fn(m.cols(), |i| (i as f64).sqrt());
        let p = ProtectedCsr::from_csr(&m, &config(EccScheme::Crc32c, EccScheme::Crc32c)).unwrap();
        let log = FaultLog::new();
        let mut y = Vector::zeros(m.rows());
        p.spmv_with(
            x.as_slice(),
            y.as_mut_slice(),
            0,
            &log,
            &mut SpmvWorkspace::new(),
        )
        .unwrap();
        let expected = reference_spmv(&m, x.as_slice());
        assert_eq!(y.as_slice(), expected.as_slice());
    }
}
