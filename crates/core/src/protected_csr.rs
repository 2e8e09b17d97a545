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
//! [`CheckPolicy`]: a **full check** verifies (and transiently corrects) the
//! codewords touched, while a **bounds check** only validates that decoded
//! indices stay inside the matrix — enough to avoid out-of-bounds reads when
//! checks are elided between intervals (§VI-A-2).  Corrections observed
//! during reads are recorded in the [`FaultLog`]; the storage itself is
//! repaired by [`ProtectedCsr::scrub`], which the solver calls when the log
//! reports corrected errors.

use crate::csr_element::{ElementCodec, COL_MASK_24};
use crate::error::AbftError;
use crate::policy::CheckPolicy;
use crate::protected_matrix::ProtectedMatrix;
use crate::report::{FaultLog, Region};
use crate::row_pointer::{mask_entry, ProtectedRowPointer};
use crate::schemes::{EccScheme, ProtectionConfig};
use crate::spmv::{dispatch_panel_readers, DenseView, MaskedX, SliceX, XRead, MAX_PANEL_WIDTH};
use abft_ecc::correction::correct_crc32c_single;
use abft_ecc::secded::DecodeOutcome;
use abft_ecc::sed::{parity_u32, parity_u64};
use abft_ecc::{Crc32c, SECDED_176, SECDED_88};
use abft_sparse::CsrMatrix;

/// Rows per block of the SECDED64 and CRC32C SpMV/SpMM kernels: each
/// block's contiguous element run is certified by one batched predicate
/// (which needs runs of at least 16 SECDED codewords, or 4 CRC32C rows, to
/// use its fast kernel) before the multiply loops run over it.
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
    crc: Crc32c,
    policy: CheckPolicy,
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
            crc: Crc32c::new(config.crc_backend),
            policy: CheckPolicy::every(config.check_interval),
            config: *config,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The protection configuration this matrix was encoded with.
    pub fn config(&self) -> &ProtectionConfig {
        &self.config
    }

    /// The check policy derived from the configuration.
    pub fn policy(&self) -> CheckPolicy {
        self.policy
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

    /// Flips one bit of a stored value (fault injection hook).
    pub fn inject_value_bit_flip(&mut self, k: usize, bit: u32) {
        self.values[k] = f64::from_bits(self.values[k].to_bits() ^ (1u64 << bit));
    }

    /// Flips one bit of a stored (encoded) column index.
    pub fn inject_col_bit_flip(&mut self, k: usize, bit: u32) {
        self.col_indices[k] ^= 1u32 << bit;
    }

    /// Flips one bit of a stored (encoded) row-pointer entry.
    pub fn inject_row_pointer_bit_flip(&mut self, entry: usize, bit: u32) {
        self.row_pointer.inject_bit_flip(entry, bit);
    }

    /// Visits every stored entry as `(row, column, value)` with the
    /// redundancy bits masked off (unchecked, like
    /// [`ProtectedCsr::to_csr`]) — lets callers derive row-wise summaries
    /// (diagonal, Gershgorin bounds) without materialising a plain matrix.
    pub fn for_each_entry(&self, mut f: impl FnMut(usize, u32, f64)) {
        let mask = self.codec.col_mask();
        for row in 0..self.rows {
            let start = self.row_pointer.get_masked(row) as usize;
            let end = self.row_pointer.get_masked(row + 1) as usize;
            for k in start..end {
                f(row, self.col_indices[k] & mask, self.values[k]);
            }
        }
    }

    /// Extracts the diagonal as plain values (masked, unchecked; zero where
    /// no diagonal entry is stored), mirroring
    /// [`CsrMatrix::diagonal`](abft_sparse::CsrMatrix::diagonal) without
    /// decoding the whole matrix.
    pub fn diagonal(&self) -> Vec<f64> {
        let mut diag = vec![0.0; self.rows.min(self.cols)];
        // `CsrMatrix::get` returns the *first* stored entry for a position,
        // so take the first diagonal hit per row, not a sum.
        let mut seen = vec![false; diag.len()];
        self.for_each_entry(|row, col, value| {
            if col as usize == row && row < diag.len() && !seen[row] {
                diag[row] = value;
                seen[row] = true;
            }
        });
        diag
    }

    /// Decodes the matrix back into a plain [`CsrMatrix`] (masked, unchecked).
    pub fn to_csr(&self) -> CsrMatrix {
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

    /// The decoded element range of `row` (checked or bounds-checked per
    /// `check`).
    pub fn row_range(
        &self,
        row: usize,
        check: bool,
        log: &FaultLog,
    ) -> Result<(usize, usize), AbftError> {
        self.row_pointer.row_range(row, check, log)
    }

    /// Verifies every codeword of the matrix (elements and row pointer)
    /// without modifying storage.  This is the whole-matrix check the paper
    /// performs at the end of each time-step.
    pub fn verify_all(&self, log: &FaultLog) -> Result<(), AbftError> {
        self.row_pointer.check_all(log)?;
        if self.config.elements != EccScheme::Crc32c {
            // Element- and pair-granular codewords are independent of the row
            // structure; one pass over the element range checks each codeword
            // exactly once.
            return verify_elements(self.config.elements, &self.values, &self.col_indices, log);
        }
        // Row-granular codewords need the row boundaries, read through the
        // checked path: a correctable row-pointer flip must not shift the
        // slice a row's checksum is computed over.  `check_all` above has
        // already counted the row-pointer codewords, so the cursor's tally
        // is dropped.
        let rp_checked = self.row_pointer.scheme() != EccScheme::None;
        let mut cursor = RpCursor::new(&self.row_pointer);
        let mut scratch = Vec::new();
        let mut bounds = [0usize; ROW_BLOCK + 1];
        let mut tally = 0u64;
        let result = (0..self.rows).step_by(ROW_BLOCK).try_for_each(|first| {
            let rows = ROW_BLOCK.min(self.rows - first);
            if self.certify_block(&mut cursor, first, rows, rp_checked, &mut bounds) {
                tally += rows as u64;
                return Ok(());
            }
            (first..first + rows).try_for_each(|row| {
                let (start, end) = cursor.row_range(row, rp_checked, log, &mut 0)?;
                tally += 1;
                self.checked_row_crc(start, end, &mut scratch, log)
                    .map(|_| ())
            })
        });
        log.record_checks(Region::CsrElements, tally);
        result
    }

    /// Re-verifies every codeword and repairs correctable errors in place.
    /// Returns the number of corrected codewords.
    pub fn scrub(&mut self, log: &FaultLog) -> Result<usize, AbftError> {
        let repaired_rp = self.row_pointer.scrub(log)?;
        let before = log.total_corrected();
        // The row pointer was scrubbed just above, so its masked entries are
        // trustworthy; stream the row ranges instead of materialising them.
        let row_pointer = &self.row_pointer;
        let rows = self.rows;
        self.codec.check_all(
            &mut self.values,
            &mut self.col_indices,
            (0..rows).map(|row| {
                (
                    row_pointer.get_masked(row) as usize,
                    row_pointer.get_masked(row + 1) as usize,
                )
            }),
            log,
        )?;
        let corrected_elements = (log.total_corrected() - before) as usize;
        Ok(repaired_rp + corrected_elements)
    }

    /// Computes `y[i] = (A x)[row0 + i]` for a contiguous row range — the
    /// monomorphized kernel behind every SpMV entry point (`R` fixes the
    /// input-vector storage kind, the element scheme is matched **once**
    /// outside the row loop).
    ///
    /// Integrity-check counters are tallied locally and folded into the
    /// shared log in one bulk update per invocation, so the parallel path
    /// performs two atomic additions per *chunk* instead of several per row.
    pub(crate) fn spmv_range<R: XRead>(
        &self,
        row0: usize,
        x: R,
        y: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        let mut rp_checks = 0u64;
        let mut elem_checks = 0u64;
        let result = self.spmv_range_inner(
            row0,
            x,
            y,
            check,
            scratch,
            log,
            &mut rp_checks,
            &mut elem_checks,
        );
        // Flushed on the error path too, so checks performed before an
        // aborting fault stay accounted for.
        if rp_checks > 0 {
            log.record_checks(Region::RowPointer, rp_checks);
        }
        if elem_checks > 0 {
            log.record_checks(Region::CsrElements, elem_checks);
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn spmv_range_inner<R: XRead>(
        &self,
        row0: usize,
        x: R,
        y: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
        rp_checks: &mut u64,
        elem_checks: &mut u64,
    ) -> Result<(), AbftError> {
        let rp_checked = check && self.row_pointer.scheme() != EccScheme::None;
        let mut cursor = RpCursor::new(&self.row_pointer);
        let values = self.values.as_slice();
        let cols = self.col_indices.as_slice();

        if !check || self.config.elements == EccScheme::None {
            // Interval-skipped (or element-unprotected) fast path: only range
            // checks on the decoded column indices, mask hoisted into a
            // register.
            let mask = self.codec.col_mask();
            for (i, yi) in y.iter_mut().enumerate() {
                let (start, end) = cursor.row_range(row0 + i, rp_checked, log, rp_checks)?;
                let mut acc = 0.0;
                for (k, (&v, &c)) in values[start..end].iter().zip(&cols[start..end]).enumerate() {
                    let col = (c & mask) as usize;
                    acc += v * read_x(x, col, start + k, log)?;
                }
                *yi = acc;
            }
            return Ok(());
        }

        match self.config.elements {
            EccScheme::None => unreachable!("handled by the fast path above"),
            EccScheme::Sed => {
                for (i, yi) in y.iter_mut().enumerate() {
                    let (start, end) = cursor.row_range(row0 + i, rp_checked, log, rp_checks)?;
                    *elem_checks += (end - start) as u64;
                    let mut acc = 0.0;
                    if abft_ecc::verify::sed_elements_clean(&values[start..end], &cols[start..end])
                    {
                        // Batched lane predicate certified the row: only the
                        // bounds-checked reads remain in the multiply loop.
                        for (k, (&v, &c)) in
                            values[start..end].iter().zip(&cols[start..end]).enumerate()
                        {
                            let col = (c & crate::csr_element::COL_MASK_31) as usize;
                            acc += v * read_x(x, col, start + k, log)?;
                        }
                    } else {
                        for (k, (&v, &c)) in
                            values[start..end].iter().zip(&cols[start..end]).enumerate()
                        {
                            if parity_u64(v.to_bits()) ^ parity_u32(c) != 0 {
                                log.record_uncorrectable(Region::CsrElements);
                                return Err(AbftError::Uncorrectable {
                                    region: Region::CsrElements,
                                    index: start + k,
                                });
                            }
                            let col = (c & crate::csr_element::COL_MASK_31) as usize;
                            acc += v * read_x(x, col, start + k, log)?;
                        }
                    }
                    *yi = acc;
                }
            }
            EccScheme::Secded64 => {
                let mut bounds = [0usize; ROW_BLOCK + 1];
                for (b, block) in y.chunks_mut(ROW_BLOCK).enumerate() {
                    let first = row0 + b * ROW_BLOCK;
                    let certified = self.certify_block(
                        &mut cursor,
                        first,
                        block.len(),
                        rp_checked,
                        &mut bounds,
                    );
                    for (i, yi) in block.iter_mut().enumerate() {
                        let (start, end) = if certified {
                            *rp_checks += 2 * rp_checked as u64;
                            (bounds[i], bounds[i + 1])
                        } else {
                            cursor.row_range(first + i, rp_checked, log, rp_checks)?
                        };
                        *elem_checks += (end - start) as u64;
                        let mut acc = 0.0;
                        if certified
                            || abft_ecc::verify::secded88_elements_clean(
                                &values[start..end],
                                &cols[start..end],
                            )
                        {
                            // The batched syndrome predicate certified the
                            // row clean — the correcting per-element decode
                            // is skipped and the masked column feeds the
                            // bounds-checked read directly (identical to the
                            // corrected outputs of a clean
                            // `check_element_secded64`).
                            for (k, (&v, &c)) in
                                values[start..end].iter().zip(&cols[start..end]).enumerate()
                            {
                                acc += v * read_x(x, (c & COL_MASK_24) as usize, start + k, log)?;
                            }
                        } else {
                            for (k, (&v, &c)) in
                                values[start..end].iter().zip(&cols[start..end]).enumerate()
                            {
                                let (value, col) = check_element_secded64(v, c, start + k, log)?;
                                acc += value * read_x(x, col as usize, start + k, log)?;
                            }
                        }
                        *yi = acc;
                    }
                }
            }
            EccScheme::Secded128 => {
                for (i, yi) in y.iter_mut().enumerate() {
                    let (start, end) = cursor.row_range(row0 + i, rp_checked, log, rp_checks)?;
                    *elem_checks += (end - start) as u64;
                    let mut acc = 0.0;
                    let mut k = start;
                    while k < end {
                        let pair = k & !1;
                        let (pair_values, pair_cols) = self.checked_pair_secded128(pair, log)?;
                        for (m, (&v, &c)) in pair_values.iter().zip(pair_cols.iter()).enumerate() {
                            let idx = pair + m;
                            if idx >= start && idx < end {
                                acc += v * read_x(x, c as usize, idx, log)?;
                            }
                        }
                        k = pair + 2;
                    }
                    *yi = acc;
                }
            }
            EccScheme::Crc32c => {
                let mut bounds = [0usize; ROW_BLOCK + 1];
                for (b, block) in y.chunks_mut(ROW_BLOCK).enumerate() {
                    let first = row0 + b * ROW_BLOCK;
                    let certified = self.certify_block(
                        &mut cursor,
                        first,
                        block.len(),
                        rp_checked,
                        &mut bounds,
                    );
                    for (i, yi) in block.iter_mut().enumerate() {
                        let (start, end) = if certified {
                            *rp_checks += 2 * rp_checked as u64;
                            (bounds[i], bounds[i + 1])
                        } else {
                            cursor.row_range(first + i, rp_checked, log, rp_checks)?
                        };
                        *elem_checks += (end - start) as u64;
                        let correction = if certified {
                            None
                        } else {
                            self.checked_row_crc(start, end, scratch, log)?
                        };
                        let mut acc = 0.0;
                        if let Some((elem, vbits, cbits)) = correction {
                            // Rare: apply the located single-flip correction
                            // while reading.
                            for k in start..end {
                                let (mut value, mut col) =
                                    (values[k], (cols[k] & COL_MASK_24) as usize);
                                if start + elem == k {
                                    value = f64::from_bits(vbits);
                                    col = cbits as usize;
                                }
                                acc += value * read_x(x, col, k, log)?;
                            }
                        } else {
                            for (k, (&v, &c)) in
                                values[start..end].iter().zip(&cols[start..end]).enumerate()
                            {
                                let col = (c & COL_MASK_24) as usize;
                                acc += v * read_x(x, col, start + k, log)?;
                            }
                        }
                        *yi = acc;
                    }
                }
            }
        }
        Ok(())
    }

    /// Computes `products[i*k + j] = (A x_j)[row0 + i]` for a contiguous row
    /// range and a width-`k` panel of input vectors — the multi-RHS sibling
    /// of [`ProtectedCsr::spmv_range`].
    ///
    /// Every matrix codeword group (row-pointer entries, element codewords,
    /// CRC row codewords) is verified **once** per traversal and the decoded
    /// row is applied to all `k` right-hand sides, so the per-RHS matrix
    /// verify cost scales as `1/k`.  Each column `j` accumulates into its own
    /// slot in exactly the element order of the single-vector kernel, so
    /// column `j`'s output is bitwise identical to `spmv_range(row0, xs[j],
    /// …)` regardless of the panel's width or composition.
    ///
    /// All errors this kernel returns are matrix-side (element/row-pointer
    /// corruption, or a decoded column index escaping the vector bounds) and
    /// abort the whole panel; vector-side integrity is the caller's job
    /// (scrub each column before building its reader).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spmm_range<R: XRead>(
        &self,
        row0: usize,
        xs: &[R],
        products: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        let mut rp_checks = 0u64;
        let mut elem_checks = 0u64;
        let result = self.spmm_range_inner(
            row0,
            xs,
            products,
            check,
            scratch,
            log,
            &mut rp_checks,
            &mut elem_checks,
        );
        // Flushed on the error path too, exactly like the SpMV kernel.
        if rp_checks > 0 {
            log.record_checks(Region::RowPointer, rp_checks);
        }
        if elem_checks > 0 {
            log.record_checks(Region::CsrElements, elem_checks);
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn spmm_range_inner<R: XRead>(
        &self,
        row0: usize,
        xs: &[R],
        products: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
        rp_checks: &mut u64,
        elem_checks: &mut u64,
    ) -> Result<(), AbftError> {
        let width = xs.len();
        assert!(
            (1..=MAX_PANEL_WIDTH).contains(&width),
            "spmm_range: panel width {width} outside 1..={MAX_PANEL_WIDTH}"
        );
        assert_eq!(
            products.len() % width,
            0,
            "spmm_range: products not a whole number of rows"
        );
        let rp_checked = check && self.row_pointer.scheme() != EccScheme::None;
        let mut cursor = RpCursor::new(&self.row_pointer);
        let values = self.values.as_slice();
        let cols = self.col_indices.as_slice();

        if !check || self.config.elements == EccScheme::None {
            let mask = self.codec.col_mask();
            for (i, row) in products.chunks_exact_mut(width).enumerate() {
                let (start, end) = cursor.row_range(row0 + i, rp_checked, log, rp_checks)?;
                let mut acc = [0.0f64; MAX_PANEL_WIDTH];
                for (k, (&v, &c)) in values[start..end].iter().zip(&cols[start..end]).enumerate() {
                    let col = (c & mask) as usize;
                    fma_panel(xs, v, col, start + k, &mut acc, log)?;
                }
                row.copy_from_slice(&acc[..width]);
            }
            return Ok(());
        }

        match self.config.elements {
            EccScheme::None => unreachable!("handled by the fast path above"),
            EccScheme::Sed => {
                for (i, row) in products.chunks_exact_mut(width).enumerate() {
                    let (start, end) = cursor.row_range(row0 + i, rp_checked, log, rp_checks)?;
                    *elem_checks += (end - start) as u64;
                    let mut acc = [0.0f64; MAX_PANEL_WIDTH];
                    if abft_ecc::verify::sed_elements_clean(&values[start..end], &cols[start..end])
                    {
                        for (k, (&v, &c)) in
                            values[start..end].iter().zip(&cols[start..end]).enumerate()
                        {
                            let col = (c & crate::csr_element::COL_MASK_31) as usize;
                            fma_panel(xs, v, col, start + k, &mut acc, log)?;
                        }
                    } else {
                        for (k, (&v, &c)) in
                            values[start..end].iter().zip(&cols[start..end]).enumerate()
                        {
                            if parity_u64(v.to_bits()) ^ parity_u32(c) != 0 {
                                log.record_uncorrectable(Region::CsrElements);
                                return Err(AbftError::Uncorrectable {
                                    region: Region::CsrElements,
                                    index: start + k,
                                });
                            }
                            let col = (c & crate::csr_element::COL_MASK_31) as usize;
                            fma_panel(xs, v, col, start + k, &mut acc, log)?;
                        }
                    }
                    row.copy_from_slice(&acc[..width]);
                }
            }
            EccScheme::Secded64 => {
                let mut bounds = [0usize; ROW_BLOCK + 1];
                for (b, block) in products.chunks_mut(ROW_BLOCK * width).enumerate() {
                    let first = row0 + b * ROW_BLOCK;
                    let rows = block.len() / width;
                    let certified =
                        self.certify_block(&mut cursor, first, rows, rp_checked, &mut bounds);
                    for (i, row) in block.chunks_exact_mut(width).enumerate() {
                        let (start, end) = if certified {
                            *rp_checks += 2 * rp_checked as u64;
                            (bounds[i], bounds[i + 1])
                        } else {
                            cursor.row_range(first + i, rp_checked, log, rp_checks)?
                        };
                        *elem_checks += (end - start) as u64;
                        let mut acc = [0.0f64; MAX_PANEL_WIDTH];
                        if certified
                            || abft_ecc::verify::secded88_elements_clean(
                                &values[start..end],
                                &cols[start..end],
                            )
                        {
                            for (k, (&v, &c)) in
                                values[start..end].iter().zip(&cols[start..end]).enumerate()
                            {
                                let col = (c & COL_MASK_24) as usize;
                                fma_panel(xs, v, col, start + k, &mut acc, log)?;
                            }
                        } else {
                            for (k, (&v, &c)) in
                                values[start..end].iter().zip(&cols[start..end]).enumerate()
                            {
                                let (value, col) = check_element_secded64(v, c, start + k, log)?;
                                fma_panel(xs, value, col as usize, start + k, &mut acc, log)?;
                            }
                        }
                        row.copy_from_slice(&acc[..width]);
                    }
                }
            }
            EccScheme::Secded128 => {
                for (i, row) in products.chunks_exact_mut(width).enumerate() {
                    let (start, end) = cursor.row_range(row0 + i, rp_checked, log, rp_checks)?;
                    *elem_checks += (end - start) as u64;
                    let mut acc = [0.0f64; MAX_PANEL_WIDTH];
                    let mut k = start;
                    while k < end {
                        let pair = k & !1;
                        let (pair_values, pair_cols) = self.checked_pair_secded128(pair, log)?;
                        for (m, (&v, &c)) in pair_values.iter().zip(pair_cols.iter()).enumerate() {
                            let idx = pair + m;
                            if idx >= start && idx < end {
                                fma_panel(xs, v, c as usize, idx, &mut acc, log)?;
                            }
                        }
                        k = pair + 2;
                    }
                    row.copy_from_slice(&acc[..width]);
                }
            }
            EccScheme::Crc32c => {
                let mut bounds = [0usize; ROW_BLOCK + 1];
                for (b, block) in products.chunks_mut(ROW_BLOCK * width).enumerate() {
                    let first = row0 + b * ROW_BLOCK;
                    let rows = block.len() / width;
                    let certified =
                        self.certify_block(&mut cursor, first, rows, rp_checked, &mut bounds);
                    for (i, row) in block.chunks_exact_mut(width).enumerate() {
                        let (start, end) = if certified {
                            *rp_checks += 2 * rp_checked as u64;
                            (bounds[i], bounds[i + 1])
                        } else {
                            cursor.row_range(first + i, rp_checked, log, rp_checks)?
                        };
                        *elem_checks += (end - start) as u64;
                        let correction = if certified {
                            None
                        } else {
                            self.checked_row_crc(start, end, scratch, log)?
                        };
                        let mut acc = [0.0f64; MAX_PANEL_WIDTH];
                        if let Some((elem, vbits, cbits)) = correction {
                            for k in start..end {
                                let (mut value, mut col) =
                                    (values[k], (cols[k] & COL_MASK_24) as usize);
                                if start + elem == k {
                                    value = f64::from_bits(vbits);
                                    col = cbits as usize;
                                }
                                fma_panel(xs, value, col, k, &mut acc, log)?;
                            }
                        } else {
                            for (k, (&v, &c)) in
                                values[start..end].iter().zip(&cols[start..end]).enumerate()
                            {
                                let col = (c & COL_MASK_24) as usize;
                                fma_panel(xs, v, col, start + k, &mut acc, log)?;
                            }
                        }
                        row.copy_from_slice(&acc[..width]);
                    }
                }
            }
        }
        Ok(())
    }

    /// The block walker shared by the SECDED64 and CRC32C arms of the SpMV
    /// and SpMM kernels and the CRC32C `verify_all`: reads the row bounds of
    /// rows `first..first + rows` into `bounds[..=rows]` and certifies the
    /// block's contiguous element run with one batched predicate (per
    /// element under SECDED64, per row under CRC32C).  `true` means every
    /// row-pointer codeword read verified clean (or had already been
    /// decoded by `cursor`), the bounds are ordered and in range, and every
    /// element codeword is clean, so the multiply loops may run straight
    /// off `bounds`.
    /// Nothing is recorded either way: on `false` the caller re-walks the
    /// block row by row through the logging path, which then reports
    /// exactly the events, indices and check counts it always has.
    fn certify_block(
        &self,
        cursor: &mut RpCursor,
        first: usize,
        rows: usize,
        rp_checked: bool,
        bounds: &mut [usize; ROW_BLOCK + 1],
    ) -> bool {
        for (i, bound) in bounds[..=rows].iter_mut().enumerate() {
            match cursor.entry_if_clean(first + i, rp_checked) {
                Some(entry) => *bound = entry as usize,
                None => return false,
            }
        }
        let bounds = &bounds[..=rows];
        let (start, end) = (bounds[0], bounds[rows]);
        if !bounds.is_sorted() || end > self.nnz {
            return false;
        }
        let (values, cols) = (&self.values, &self.col_indices);
        match self.config.elements {
            EccScheme::Crc32c => {
                abft_ecc::verify::crc32c_rows_clean(&self.crc, values, cols, bounds)
            }
            _ => abft_ecc::verify::secded88_elements_clean(&values[start..end], &cols[start..end]),
        }
    }

    /// Non-mutating SECDED128 pair check; returns corrected values and masked
    /// column indices for elements `pair` and `pair + 1`.
    fn checked_pair_secded128(
        &self,
        pair: usize,
        log: &FaultLog,
    ) -> Result<([f64; 2], [u32; 2]), AbftError> {
        check_pair_secded128(&self.values, &self.col_indices, pair, log)
    }

    /// Non-mutating CRC32C row check (see [`check_row_crc`]).
    fn checked_row_crc(
        &self,
        start: usize,
        end: usize,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<Option<(usize, u64, u32)>, AbftError> {
        check_row_crc(
            &self.crc,
            &self.values,
            &self.col_indices,
            start,
            end,
            scratch,
            log,
        )
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

    fn policy(&self) -> CheckPolicy {
        self.policy
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
            DenseView::Slice(s) => self.spmv_range(row0, SliceX(s), y, check, scratch, log),
            DenseView::MaskedWords { words, mask } => {
                self.spmv_range(row0, MaskedX { words, mask }, y, check, scratch, log)
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
        dispatch_panel_readers!(xs, |readers| self
            .spmm_range(row0, readers, products, check, scratch, log))
    }

    fn verify_all(&self, log: &FaultLog) -> Result<(), AbftError> {
        ProtectedCsr::verify_all(self, log)
    }

    fn scrub(&mut self, log: &FaultLog) -> Result<usize, AbftError> {
        ProtectedCsr::scrub(self, log)
    }

    fn visit_entries(&self, f: &mut dyn FnMut(usize, u32, f64)) {
        self.for_each_entry(f);
    }

    fn to_csr(&self) -> CsrMatrix {
        ProtectedCsr::to_csr(self)
    }

    fn inject_value_bit_flip(&mut self, k: usize, bit: u32) {
        ProtectedCsr::inject_value_bit_flip(self, k, bit)
    }

    fn inject_col_bit_flip(&mut self, k: usize, bit: u32) {
        ProtectedCsr::inject_col_bit_flip(self, k, bit)
    }

    fn inject_structure_bit_flip(&mut self, entry: usize, bit: u32) {
        self.inject_row_pointer_bit_flip(entry, bit)
    }

    fn structure_entries(&self) -> usize {
        self.rows + 1
    }
}

/// Non-mutating verification of every element codeword of the element- and
/// pair-granular schemes (SED, SECDED64, SECDED128) — the `verify_all` body
/// the CSR and COO tiers share.  Schemes with a batched predicate certify
/// the whole range with it and walk (attributing the fault) only when it
/// fails; checks are tallied locally and flushed once, on the error path
/// too.  `None` and the row-granular CRC32C have nothing to do here.
pub(crate) fn verify_elements(
    scheme: EccScheme,
    values: &[f64],
    cols: &[u32],
    log: &FaultLog,
) -> Result<(), AbftError> {
    let mut tally = 0u64;
    let result = verify_elements_inner(scheme, values, cols, log, &mut tally);
    if tally > 0 {
        log.record_checks(Region::CsrElements, tally);
    }
    result
}

fn verify_elements_inner(
    scheme: EccScheme,
    values: &[f64],
    cols: &[u32],
    log: &FaultLog,
    tally: &mut u64,
) -> Result<(), AbftError> {
    match scheme {
        EccScheme::None | EccScheme::Crc32c => {}
        EccScheme::Sed if abft_ecc::verify::sed_elements_clean(values, cols) => {
            *tally += values.len() as u64;
        }
        EccScheme::Sed => {
            for (k, (&v, &c)) in values.iter().zip(cols).enumerate() {
                *tally += 1;
                if parity_u64(v.to_bits()) ^ parity_u32(c) != 0 {
                    log.record_uncorrectable(Region::CsrElements);
                    return Err(AbftError::Uncorrectable {
                        region: Region::CsrElements,
                        index: k,
                    });
                }
            }
        }
        EccScheme::Secded64 if abft_ecc::verify::secded88_elements_clean(values, cols) => {
            *tally += values.len() as u64;
        }
        EccScheme::Secded64 => {
            for (k, (&v, &c)) in values.iter().zip(cols).enumerate() {
                *tally += 1;
                check_element_secded64(v, c, k, log)?;
            }
        }
        EccScheme::Secded128 => {
            for pair in (0..values.len()).step_by(2) {
                *tally += 1;
                check_pair_secded128(values, cols, pair, log)?;
            }
        }
    }
    Ok(())
}

/// Non-mutating SECDED64 check of one element's (value, encoded index) pair:
/// the single source for the SpMV kernel, [`verify_elements`] and the
/// unpaired SECDED128 tail.  Returns the (transiently corrected) value
/// and masked column index; `index` is the absolute element position for
/// error reporting.
#[inline(always)]
pub(crate) fn check_element_secded64(
    value: f64,
    col: u32,
    index: usize,
    log: &FaultLog,
) -> Result<(f64, u32), AbftError> {
    let stored = (col >> 24) as u16;
    let mut payload = [value.to_bits(), (col & COL_MASK_24) as u64];
    match SECDED_88.check_and_correct(&mut payload, stored) {
        DecodeOutcome::NoError => {}
        DecodeOutcome::CorrectedData(_) | DecodeOutcome::CorrectedRedundancy => {
            log.record_corrected(Region::CsrElements);
        }
        DecodeOutcome::Uncorrectable => {
            log.record_uncorrectable(Region::CsrElements);
            return Err(AbftError::Uncorrectable {
                region: Region::CsrElements,
                index,
            });
        }
    }
    Ok((f64::from_bits(payload[0]), payload[1] as u32 & COL_MASK_24))
}

/// Non-mutating SECDED128 pair check over raw storage slices — shared by the
/// CSR kernels and the COO tier (identical element encoding).  Returns
/// corrected values and masked column indices for elements `pair` and
/// `pair + 1`; an unpaired tail element falls back to its per-element
/// SECDED(88) codeword.
pub(crate) fn check_pair_secded128(
    values: &[f64],
    cols: &[u32],
    pair: usize,
    log: &FaultLog,
) -> Result<([f64; 2], [u32; 2]), AbftError> {
    if pair + 1 >= values.len() {
        let (v, c) = check_element_secded64(values[pair], cols[pair], pair, log)?;
        return Ok(([v, 0.0], [c, 0]));
    }
    let c0 = cols[pair];
    let c1 = cols[pair + 1];
    if c1 & 0xFE00_0000 != 0 {
        log.record_corrected(Region::CsrElements);
    }
    let stored = ((c0 >> 24) as u16) | ((((c1 >> 24) & 1) as u16) << 8);
    let mut payload = [
        values[pair].to_bits(),
        values[pair + 1].to_bits(),
        ((c0 & COL_MASK_24) as u64) | (((c1 & COL_MASK_24) as u64) << 24),
    ];
    match SECDED_176.check_and_correct(&mut payload, stored) {
        DecodeOutcome::NoError => {}
        DecodeOutcome::CorrectedData(_) | DecodeOutcome::CorrectedRedundancy => {
            log.record_corrected(Region::CsrElements);
        }
        DecodeOutcome::Uncorrectable => {
            log.record_uncorrectable(Region::CsrElements);
            return Err(AbftError::Uncorrectable {
                region: Region::CsrElements,
                index: pair,
            });
        }
    }
    Ok((
        [f64::from_bits(payload[0]), f64::from_bits(payload[1])],
        [
            payload[2] as u32 & COL_MASK_24,
            (payload[2] >> 24) as u32 & COL_MASK_24,
        ],
    ))
}

/// Non-mutating CRC32C row check over raw storage slices — shared by the CSR
/// kernels and the COO tier.  Returns `Ok(None)` when the row `start..end`
/// is clean, `Ok(Some((element, value_bits, col)))` when a single flip was
/// located (transient correction to apply while reading; `element` is
/// row-relative), and an error when the row is uncorrectable.  A clean row
/// is certified from registers; only a failing one is staged into `scratch`
/// for the trial correction.
pub(crate) fn check_row_crc(
    crc: &Crc32c,
    values: &[f64],
    cols: &[u32],
    start: usize,
    end: usize,
    scratch: &mut Vec<u8>,
    log: &FaultLog,
) -> Result<Option<(usize, u64, u32)>, AbftError> {
    if abft_ecc::verify::crc32c_rows_clean(crc, values, cols, &[start, end]) {
        return Ok(None);
    }
    scratch.clear();
    for k in start..end {
        scratch.extend_from_slice(&values[k].to_bits().to_le_bytes());
        scratch.extend_from_slice(&(cols[k] & COL_MASK_24).to_le_bytes());
    }
    let computed = crc.checksum(scratch);
    let stored = u32::from_le_bytes([
        (cols[start] >> 24) as u8,
        (cols[start + 1] >> 24) as u8,
        (cols[start + 2] >> 24) as u8,
        (cols[start + 3] >> 24) as u8,
    ]);
    if computed == stored {
        return Ok(None);
    }
    if (computed ^ stored).count_ones() == 1 {
        // The stored checksum itself took the hit; the data is intact.
        log.record_corrected(Region::CsrElements);
        return Ok(None);
    }
    if let Some(bit) = correct_crc32c_single(crc, scratch, stored) {
        let element = bit / 96;
        let offset = bit % 96;
        if offset < 88 {
            log.record_corrected(Region::CsrElements);
            let k = start + element;
            let mut vbits = values[k].to_bits();
            let mut col = cols[k] & COL_MASK_24;
            if offset < 64 {
                vbits ^= 1u64 << offset;
            } else {
                col ^= 1u32 << (offset - 64);
            }
            return Ok(Some((element, vbits, col)));
        }
    }
    log.record_uncorrectable(Region::CsrElements);
    Err(AbftError::Uncorrectable {
        region: Region::CsrElements,
        index: start,
    })
}

/// Applies one decoded matrix element to every column of a panel:
/// `acc[j] += v * xs[j][col]`.  Column `j`'s accumulator sees exactly the
/// adds of the single-vector kernel, in the same order — the operation that
/// makes multi-RHS outputs bitwise identical to k independent SpMVs.
#[inline(always)]
pub(crate) fn fma_panel<R: XRead>(
    xs: &[R],
    v: f64,
    col: usize,
    k: usize,
    acc: &mut [f64; crate::spmv::MAX_PANEL_WIDTH],
    log: &FaultLog,
) -> Result<(), AbftError> {
    for (j, x) in xs.iter().enumerate() {
        acc[j] += v * read_x(*x, col, k, log)?;
    }
    Ok(())
}

/// Bounds-checked read of the input vector inside the kernels — the single
/// `Option` test per access is the range check that prevents the
/// segmentation faults the paper's checks exist to stop.
#[inline(always)]
pub(crate) fn read_x<R: XRead>(
    x: R,
    col: usize,
    k: usize,
    log: &FaultLog,
) -> Result<f64, AbftError> {
    match x.get(col) {
        Some(v) => Ok(v),
        None => Err(x_out_of_range(log, k, col, x.len())),
    }
}

/// Out-of-line construction of the bounds-violation error keeps the kernel
/// loops free of error-formatting code.
#[cold]
pub(crate) fn x_out_of_range(log: &FaultLog, index: usize, col: usize, limit: usize) -> AbftError {
    log.record_bounds_violation(Region::CsrElements);
    AbftError::OutOfRange {
        region: Region::CsrElements,
        index,
        value: col,
        limit,
    }
}

/// Sequential row-range reader caching the last decoded row-pointer codeword
/// group.
///
/// Consecutive rows share row-pointer entries (row `i` ends where row `i+1`
/// starts) and, for the grouped schemes, whole codeword groups; decoding a
/// group once per `group − 1` rows instead of twice per row removes most of
/// the row-pointer ECC work from the SpMV.  Corrections observed during a
/// group decode are transient (storage untouched) exactly like the uncached
/// [`ProtectedRowPointer::row_range`] path, but are recorded once per group
/// per kernel invocation rather than once per touching row.
struct RpCursor<'a> {
    rp: &'a ProtectedRowPointer,
    /// Entries per codeword group — a power of two, so the kernels' per-row
    /// group lookup is a shift and a mask, not a division.
    group: usize,
    cached: usize,
    entries: [u32; 8],
}

impl<'a> RpCursor<'a> {
    fn new(rp: &'a ProtectedRowPointer) -> Self {
        let group = rp.scheme().row_pointer_group();
        debug_assert!(group.is_power_of_two());
        RpCursor {
            rp,
            group,
            cached: usize::MAX,
            entries: [0; 8],
        }
    }

    /// The codeword group holding entry `i`.
    #[inline(always)]
    fn group_of(&self, i: usize) -> usize {
        i >> self.group.trailing_zeros()
    }

    /// Entry `i` of the cached group, redundancy masked off.
    #[inline(always)]
    fn cached_entry(&self, i: usize) -> u32 {
        mask_entry(self.rp.scheme(), self.entries[i & (self.group - 1)])
    }

    /// Entry `i` when reading it needs nothing recorded: unchecked reads
    /// (`rp_checked` off), a codeword that verifies strictly clean, or a
    /// group this cursor has already decoded.  `None` leaves the cache
    /// untouched for the logging [`RpCursor::entry_checked`] to redo.
    #[inline]
    fn entry_if_clean(&mut self, i: usize, rp_checked: bool) -> Option<u32> {
        if !rp_checked {
            return Some(self.rp.get_masked(i));
        }
        if self.group <= 1 {
            let clean = parity_u32(self.rp.raw()[i]) == 0;
            return clean.then(|| self.rp.get_masked(i));
        }
        let g = self.group_of(i);
        if g != self.cached {
            self.entries = self.rp.group_if_clean(g)?;
            self.cached = g;
        }
        Some(self.cached_entry(i))
    }

    /// Fully checked read of entry `i` through the group cache.
    #[inline]
    fn entry_checked(&mut self, i: usize, log: &FaultLog) -> Result<u32, AbftError> {
        if self.group <= 1 {
            // Per-entry codewords (None / SED) have nothing to cache.
            return self.rp.read_entry(i, true, log);
        }
        let g = self.group_of(i);
        if g != self.cached {
            self.entries = self.rp.decode_group(g, log)?;
            self.cached = g;
        }
        Ok(self.cached_entry(i))
    }

    /// The decoded element range of `row`: full codeword checks when
    /// `rp_checked` (tallying two entry checks per row into `rp_checks`),
    /// bounds checks otherwise.
    #[inline]
    fn row_range(
        &mut self,
        row: usize,
        rp_checked: bool,
        log: &FaultLog,
        rp_checks: &mut u64,
    ) -> Result<(usize, usize), AbftError> {
        if !rp_checked {
            return self.rp.row_range(row, false, log);
        }
        *rp_checks += 2;
        let start = self.entry_checked(row, log)? as usize;
        let end = self.entry_checked(row + 1, log)? as usize;
        if start > end || end > self.rp.nnz() {
            log.record_bounds_violation(Region::RowPointer);
            return Err(AbftError::OutOfRange {
                region: Region::RowPointer,
                index: row,
                value: end.max(start),
                limit: self.rp.nnz(),
            });
        }
        Ok((start, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                p.spmv(&x, &mut y, 0, &log).unwrap();
                assert_eq!(y, expected, "{elements:?}/{row_pointer:?}");
                // Parallel kernel agrees.
                let mut y2 = vec![0.0; m.rows()];
                p.spmv_parallel(&x, &mut y2, 0, &log).unwrap();
                assert_eq!(y2, expected, "{elements:?}/{row_pointer:?} parallel");
                // Interval-skipped iteration agrees too.
                let p2 = ProtectedCsr::from_csr(
                    &m,
                    &config(elements, row_pointer).with_check_interval(8),
                )
                .unwrap();
                let mut y3 = vec![0.0; m.rows()];
                p2.spmv(&x, &mut y3, 3, &log).unwrap();
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
            p.spmv(&x, &mut y, 0, &log).unwrap();
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
        assert!(p.spmv(&x, &mut y, 0, &log).is_err());
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
            p.spmv(&x, &mut y, 0, &log).unwrap();
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
        let result = p.spmv(&x, &mut y, 1, &log);
        assert!(result.is_err());
        assert!(log.total_bounds_violations() > 0);
        // The same corruption on a checked iteration is corrected instead.
        let log2 = FaultLog::new();
        p.spmv(&x, &mut y, 0, &log2).unwrap();
        assert!(log2.total_corrected() > 0);
    }

    #[test]
    fn row_pointer_corruption_is_caught() {
        let m = test_matrix();
        let x = vec![1.0; m.cols()];
        let expected = reference_spmv(&m, &x);
        let mut p =
            ProtectedCsr::from_csr(&m, &config(EccScheme::None, EccScheme::Secded64)).unwrap();
        p.inject_row_pointer_bit_flip(7, 9);
        let log = FaultLog::new();
        let mut y = vec![0.0; m.rows()];
        p.spmv(&x, &mut y, 0, &log).unwrap();
        assert_eq!(y, expected);
        assert!(log.total_corrected() > 0);
        let repaired = p.scrub(&log).unwrap();
        assert_eq!(repaired, 1);
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
        let err = p.spmv(&x, &mut y, 0, &log).unwrap_err();
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
        p.spmv_auto(&x, &mut y, 0, &log).unwrap();
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
        p.spmv(x.as_slice(), y.as_mut_slice(), 0, &log).unwrap();
        let expected = reference_spmv(&m, x.as_slice());
        assert_eq!(y.as_slice(), expected.as_slice());
    }
}
