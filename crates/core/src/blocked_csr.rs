//! The blocked protected-CSR tier.
//!
//! [`ProtectedBlockedCsr`] splits a CSR matrix into contiguous row blocks,
//! each an independent [`ProtectedCsr`] with its own element codewords and
//! protected row pointer.  Block boundaries are **aligned to the row-pointer
//! codeword groups** of the configured scheme (multiples of
//! [`crate::EccScheme::row_pointer_group`] rows), so no codeword group straddles a
//! block boundary and one block's [`ProtectedMatrix::verify_all`] certifies
//! exactly that block — the serving layer can re-verify or scrub the block a
//! fault hit without touching the rest of the matrix.
//!
//! Per-row products decode the same values and columns in the same order as
//! the unblocked kernels, so SpMV/SpMM outputs are **bitwise identical** to
//! the [`ProtectedCsr`] tier (the SECDED128 pairing restarts at each block's
//! first element, which changes the stored redundancy bits but not the
//! decoded data of a clean matrix).
//!
//! Fault-injection indices (`inject_*`) and the element/structure indices in
//! reported errors are *block-local* on the inside; the public hooks take
//! global indices and map them onto the owning block.

use crate::error::AbftError;
use crate::protected_csr::ProtectedCsr;
use crate::protected_matrix::ProtectedMatrix;
use crate::report::FaultLog;
use crate::schemes::ProtectionConfig;
use crate::spmv::{DenseView, InterleavedX};
use abft_sparse::CsrMatrix;

/// A CSR matrix stored as independently protected, codeword-group-aligned
/// row blocks.
#[derive(Debug, Clone)]
pub struct ProtectedBlockedCsr {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// First global row of each block, plus a trailing `rows` sentinel.
    /// Like `rows` and `nnz`, this and `elem_starts` are O(blocks)
    /// descriptor words outside the fault model (no injection hook reaches
    /// them), so the range lookup bisects them unchecked; every per-row and
    /// per-element read goes through the owning block's checked decode.
    row_starts: Vec<usize>,
    /// First global element of each block, plus a trailing `nnz` sentinel.
    elem_starts: Vec<usize>,
    blocks: Vec<ProtectedCsr>,
    config: ProtectionConfig,
}

impl ProtectedBlockedCsr {
    /// Encodes a plain CSR matrix into `num_blocks` protected row blocks
    /// under `config`.
    ///
    /// Boundaries are rounded down to multiples of the row-pointer codeword
    /// group and deduplicated, so the realized block count can be smaller
    /// than requested (never zero for a non-empty matrix; `num_blocks == 0`
    /// is treated as 1).  Encoding limits are enforced per block exactly as
    /// in [`ProtectedCsr::from_csr`].
    pub fn from_csr(
        matrix: &CsrMatrix,
        config: &ProtectionConfig,
        num_blocks: usize,
    ) -> Result<Self, AbftError> {
        let rows = matrix.rows();
        let group = config.row_pointer.row_pointer_group().max(1);
        let num_blocks = num_blocks.max(1);
        let mut boundaries = vec![0usize];
        for b in 1..num_blocks {
            let ideal = rows * b / num_blocks;
            let aligned = (ideal / group) * group;
            if aligned > *boundaries.last().unwrap() && aligned < rows {
                boundaries.push(aligned);
            }
        }
        if rows > *boundaries.last().unwrap() || boundaries.len() == 1 {
            boundaries.push(rows);
        }

        let mut blocks = Vec::with_capacity(boundaries.len() - 1);
        let mut elem_starts = Vec::with_capacity(boundaries.len());
        for w in boundaries.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let elem0 = matrix.row_pointer()[lo] as usize;
            let elem1 = matrix.row_pointer()[hi] as usize;
            elem_starts.push(elem0);
            let sub_row_ptr: Vec<u32> = matrix.row_pointer()[lo..=hi]
                .iter()
                .map(|&e| e - elem0 as u32)
                .collect();
            let sub = CsrMatrix::from_raw(
                hi - lo,
                matrix.cols(),
                matrix.values()[elem0..elem1].to_vec(),
                matrix.col_indices()[elem0..elem1].to_vec(),
                sub_row_ptr,
            );
            blocks.push(ProtectedCsr::from_csr(sub, config)?);
        }
        elem_starts.push(matrix.nnz());

        Ok(ProtectedBlockedCsr {
            rows,
            cols: matrix.cols(),
            nnz: matrix.nnz(),
            row_starts: boundaries,
            elem_starts,
            blocks,
            config: *config,
        })
    }

    /// Decodes the matrix back into a plain [`CsrMatrix`] (masked,
    /// unchecked), the blocks' arrays concatenated.
    /// [`ProtectedMatrix::to_csr`] is this on a copy.
    pub fn into_csr(self) -> CsrMatrix {
        let mut values = Vec::with_capacity(self.nnz);
        let mut cols = Vec::with_capacity(self.nnz);
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0u32);
        for (block, &elem0) in self.blocks.into_iter().zip(&self.elem_starts) {
            let plain = block.into_csr();
            values.extend_from_slice(plain.values());
            cols.extend_from_slice(plain.col_indices());
            row_ptr.extend(plain.row_pointer()[1..].iter().map(|&e| e + elem0 as u32));
        }
        CsrMatrix::from_raw(self.rows, self.cols, values, cols, row_ptr)
    }

    /// The realized number of blocks (after group alignment and
    /// deduplication).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The protected row blocks.
    pub fn blocks(&self) -> &[ProtectedCsr] {
        &self.blocks
    }

    /// First global row of block `b`.
    pub fn block_row_start(&self, b: usize) -> usize {
        self.row_starts[b]
    }

    /// The block owning global element `k`, with `k` rebased to the block.
    fn locate_element(&self, k: usize) -> (usize, usize) {
        let b = self.elem_starts.partition_point(|&e| e <= k) - 1;
        (b, k - self.elem_starts[b])
    }

    /// Maps the global row range `row0 .. row0 + n` onto the overlapping
    /// blocks, invoking `f(block, local_row0, out_lo..out_hi)` per overlap
    /// (`out` offsets are rows relative to `row0`).
    fn for_blocks_in_range(
        &self,
        row0: usize,
        n: usize,
        mut f: impl FnMut(&ProtectedCsr, usize, usize, usize) -> Result<(), AbftError>,
    ) -> Result<(), AbftError> {
        if n == 0 {
            return Ok(());
        }
        let row_end = row0 + n;
        let mut b = self.row_starts.partition_point(|&r| r <= row0) - 1;
        while b < self.blocks.len() && self.row_starts[b] < row_end {
            let lo = row0.max(self.row_starts[b]);
            let hi = row_end.min(self.row_starts[b + 1]);
            if lo < hi {
                f(
                    &self.blocks[b],
                    lo - self.row_starts[b],
                    lo - row0,
                    hi - row0,
                )?;
            }
            b += 1;
        }
        Ok(())
    }
}

impl ProtectedMatrix for ProtectedBlockedCsr {
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
        let mut y = y;
        let mut consumed = 0usize;
        self.for_blocks_in_range(row0, y.len(), |block, local_row0, out_lo, out_hi| {
            let slice = &mut y[out_lo - consumed..out_hi - consumed];
            let result = block.spmv_range_view(local_row0, x, slice, check, scratch, log);
            // Re-slice so earlier chunks are released for the borrow checker.
            let taken = std::mem::take(&mut y);
            y = &mut taken[out_hi - consumed..];
            consumed = out_hi;
            result
        })
    }

    fn spmm_range_view(
        &self,
        row0: usize,
        xp: InterleavedX<'_>,
        products: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        let width = xp.width();
        let mut products = products;
        let mut consumed = 0usize;
        self.for_blocks_in_range(
            row0,
            products.len() / width,
            |block, local_row0, out_lo, out_hi| {
                let slice = &mut products[(out_lo - consumed) * width..(out_hi - consumed) * width];
                let result = block.spmm_range_view(local_row0, xp, slice, check, scratch, log);
                let taken = std::mem::take(&mut products);
                products = &mut taken[(out_hi - consumed) * width..];
                consumed = out_hi;
                result
            },
        )
    }

    fn verify_all(&self, log: &FaultLog) -> Result<(), AbftError> {
        self.blocks
            .iter()
            .try_for_each(|block| block.verify_all(log))
    }

    fn scrub(&mut self, log: &FaultLog) -> Result<usize, AbftError> {
        self.blocks
            .iter_mut()
            .try_fold(0, |corrected, block| Ok(corrected + block.scrub(log)?))
    }

    fn to_csr(&self) -> CsrMatrix {
        self.clone().into_csr()
    }

    fn inject_value_bit_flip(&mut self, k: usize, bit: u32) {
        let (b, local) = self.locate_element(k);
        self.blocks[b].inject_value_bit_flip(local, bit);
    }

    fn inject_col_bit_flip(&mut self, k: usize, bit: u32) {
        let (b, local) = self.locate_element(k);
        self.blocks[b].inject_col_bit_flip(local, bit);
    }

    /// The per-block row pointers are laid out consecutively: block `b`
    /// contributes `rows_b + 1` entries.
    fn inject_structure_bit_flip(&mut self, entry: usize, bit: u32) {
        let mut offset = entry;
        for block in &mut self.blocks {
            let entries = block.structure_entries();
            if offset < entries {
                block.inject_structure_bit_flip(offset, bit);
                return;
            }
            offset -= entries;
        }
        panic!("inject_structure_bit_flip: entry {entry} out of range");
    }

    fn structure_entries(&self) -> usize {
        self.rows + self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::EccScheme;
    use crate::SpmvWorkspace;
    use abft_ecc::Crc32cBackend;
    use abft_sparse::builders::poisson_2d_padded;

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

    fn test_matrix() -> CsrMatrix {
        poisson_2d_padded(12, 9)
    }

    #[test]
    fn boundaries_are_group_aligned() {
        let m = test_matrix();
        for row_pointer in [EccScheme::Secded64, EccScheme::Crc32c] {
            let group = row_pointer.row_pointer_group();
            let p = ProtectedBlockedCsr::from_csr(&m, &config(EccScheme::Secded64, row_pointer), 5)
                .unwrap();
            assert!(p.num_blocks() >= 2, "{row_pointer:?}");
            for b in 1..p.num_blocks() {
                assert_eq!(
                    p.block_row_start(b) % group,
                    0,
                    "{row_pointer:?} block {b} start {}",
                    p.block_row_start(b)
                );
            }
        }
    }

    #[test]
    fn spmv_is_bitwise_identical_to_unblocked() {
        let m = test_matrix();
        let x: Vec<f64> = (0..m.cols())
            .map(|i| (i as f64 * 0.17).sin() + 1.2)
            .collect();
        for elements in [
            EccScheme::None,
            EccScheme::Sed,
            EccScheme::Secded64,
            EccScheme::Secded128,
            EccScheme::Crc32c,
        ] {
            let cfg = config(elements, EccScheme::Secded64);
            let unblocked = ProtectedCsr::from_csr(&m, &cfg).unwrap();
            let log = FaultLog::new();
            let mut expected = vec![0.0; m.rows()];
            unblocked
                .spmv_with(&x, &mut expected, 0, &log, &mut SpmvWorkspace::new())
                .unwrap();
            for num_blocks in [1usize, 2, 3, 7] {
                let blocked = ProtectedBlockedCsr::from_csr(&m, &cfg, num_blocks).unwrap();
                let mut y = vec![0.0; m.rows()];
                blocked
                    .spmv_with(&x, &mut y, 0, &log, &mut SpmvWorkspace::new())
                    .unwrap();
                let same = y
                    .iter()
                    .zip(&expected)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{elements:?} blocks={num_blocks}");
            }
        }
    }

    #[test]
    fn roundtrip_and_entry_visit() {
        let m = test_matrix();
        let cfg = config(EccScheme::Crc32c, EccScheme::Crc32c);
        let p = ProtectedBlockedCsr::from_csr(&m, &cfg, 4).unwrap();
        assert_eq!(p.to_csr(), m);
        assert_eq!(p.nnz(), m.nnz());
        // Every stored entry sits in the block that owns its row, at its
        // block-local row.
        let mut count = 0usize;
        for (b, block) in p.blocks().iter().enumerate() {
            let plain = block.to_csr();
            for row in 0..plain.rows() {
                for k in plain.row_range(row) {
                    let col = plain.col_indices()[k] as usize;
                    let global = p.block_row_start(b) + row;
                    assert_eq!(m.get(global, col), plain.values()[k]);
                    count += 1;
                }
            }
        }
        assert_eq!(count, m.nnz());
    }

    #[test]
    fn faults_land_in_the_owning_block_only() {
        let m = test_matrix();
        let cfg = config(EccScheme::Secded64, EccScheme::Secded64);
        let mut p = ProtectedBlockedCsr::from_csr(&m, &cfg, 3).unwrap();
        // Corrupt an element inside the *last* block.
        let k = p.nnz() - 2;
        p.inject_value_bit_flip(k, 30);
        let log = FaultLog::new();
        // Only the owning block fails verification.
        let mut failing = Vec::new();
        for (b, block) in p.blocks().iter().enumerate() {
            let block_log = FaultLog::new();
            if block.verify_all(&block_log).is_err() || block_log.total_corrected() > 0 {
                failing.push(b);
            }
        }
        assert_eq!(failing, vec![p.num_blocks() - 1]);
        // Scrub repairs it.
        let repaired = p.scrub(&log).unwrap();
        assert!(repaired > 0);
        assert_eq!(p.to_csr(), m);
    }

    #[test]
    fn oversubscribed_block_count_collapses() {
        let m = test_matrix();
        let cfg = config(EccScheme::None, EccScheme::Crc32c); // group = 8
        let p = ProtectedBlockedCsr::from_csr(&m, &cfg, 1000).unwrap();
        assert!(p.num_blocks() <= m.rows().div_ceil(8));
        assert_eq!(p.to_csr(), m);
    }
}
