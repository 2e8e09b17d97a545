//! CSR element protection (§VI-A, Fig. 1).
//!
//! A *CSR element* pairs the 64-bit value `v[k]` with the 32-bit column index
//! `y[k]` at the same position, forming a 96-bit structure.  The redundancy
//! needed to protect the element is stored in the high bits of the column
//! index, which are unused as long as the matrix has fewer than 2³¹ (SED) or
//! 2²⁴ (SECDED / CRC32C) columns:
//!
//! * **SED** — one parity bit in index bit 31, one codeword per element;
//! * **SECDED64** — 8 Hamming redundancy bits in index bits 24–31 protecting
//!   the 88 payload bits (value + 24-bit index) of that element;
//! * **SECDED128** — a 9-bit Hamming code over a *pair* of consecutive
//!   elements (176 payload bits), stored in the pair's spare index bytes;
//! * **CRC32C** — one 32-bit checksum per matrix row, split into the spare
//!   index bytes of the row's first four elements (which is why the scheme
//!   needs at least four stored entries per row; TeaLeaf's five-point stencil
//!   always provides five).
//!
//! The values themselves are never perturbed — all redundancy lives in index
//! bits — so reading a value needs no masking; reading a column index masks
//! the redundancy bits off.

use crate::error::AbftError;
use crate::protected_matrix::Repair;
use crate::report::{FaultLog, Region};
use crate::schemes::{EccScheme, ElementGrouping};
use abft_ecc::correction::correct_crc32c_single;
use abft_ecc::secded::DecodeOutcome;
use abft_ecc::sed::{parity_u32, parity_u64};
use abft_ecc::{Crc32c, Crc32cBackend, SECDED_176, SECDED_88};

/// Mask selecting the 24 real index bits under SECDED / CRC32C.
pub const COL_MASK_24: u32 = 0x00FF_FFFF;
/// Mask selecting the 31 real index bits under SED.
pub const COL_MASK_31: u32 = 0x7FFF_FFFF;
/// Bytes contributed by one element to a row's CRC codeword (8 value bytes +
/// 4 index bytes).
const CRC_BYTES_PER_ELEMENT: usize = 12;

/// Encoder / checker for CSR elements under a given scheme.
#[derive(Debug, Clone)]
pub struct ElementCodec {
    scheme: EccScheme,
    crc: Crc32c,
    col_mask: u32,
}

impl ElementCodec {
    /// Creates a codec for `scheme`, using `backend` for CRC32C checksums.
    pub fn new(scheme: EccScheme, backend: Crc32cBackend) -> Self {
        ElementCodec {
            scheme,
            crc: Crc32c::new(backend),
            col_mask: match scheme {
                EccScheme::None => u32::MAX,
                EccScheme::Sed => COL_MASK_31,
                _ => COL_MASK_24,
            },
        }
    }

    /// The scheme this codec implements.
    pub fn scheme(&self) -> EccScheme {
        self.scheme
    }

    /// Strips the redundancy bits from a stored column index.
    #[inline]
    pub fn mask_col(&self, col: u32) -> u32 {
        col & self.col_mask
    }

    /// True when one codeword covers a whole matrix row (CRC32C), so that
    /// verifying the elements needs the row boundaries; the element- and
    /// pair-granular codewords are checked as one run over the arrays.
    pub(crate) fn row_granular(&self) -> bool {
        self.scheme.element_group() == ElementGrouping::PerRow
    }

    /// Embeds redundancy for every element into the column-index array, in
    /// place and without allocating.
    ///
    /// `row_ptr` is the *plain* (not yet protected) row pointer, needed to
    /// delimit rows for the CRC32C scheme.  A row too short to carry its
    /// checksum fails the call before any index is written.
    pub fn encode(
        &self,
        values: &[f64],
        cols: &mut [u32],
        row_ptr: &[u32],
    ) -> Result<(), AbftError> {
        if !self.row_granular() {
            self.encode_run(values, cols, 0, values.len());
            return Ok(());
        }
        let min = self.scheme.min_row_entries();
        let entries = |w: &[u32]| (w[1] - w[0]) as usize;
        if let Some(row) = row_ptr.windows(2).position(|w| entries(w) < min) {
            let entries = entries(&row_ptr[row..row + 2]);
            return Err(AbftError::RowTooShort { row, entries, min });
        }
        for w in row_ptr.windows(2) {
            self.encode_run(values, cols, w[0] as usize, w[1] as usize);
        }
        Ok(())
    }

    /// Writes the canonical redundancy of every codeword of the
    /// codeword-aligned run `start..end` (one row under CRC32C, an even
    /// start otherwise) from its values and masked column indices.
    fn encode_run(&self, values: &[f64], cols: &mut [u32], start: usize, end: usize) {
        match self.scheme {
            EccScheme::None => {}
            EccScheme::Sed => {
                for (v, c) in values[start..end].iter().zip(&mut cols[start..end]) {
                    let payload = *c & COL_MASK_31;
                    let parity = parity_u64(v.to_bits()) ^ parity_u32(payload);
                    *c = payload | (parity << 31);
                }
            }
            EccScheme::Secded64 => {
                for (v, c) in values[start..end].iter().zip(&mut cols[start..end]) {
                    *c = encode_secded64_element(v.to_bits(), *c & COL_MASK_24);
                }
            }
            EccScheme::Secded128 => {
                for k in (start..end).step_by(2) {
                    if k + 1 < values.len() {
                        let (c0, c1) = encode_secded128_pair(values, cols, k);
                        cols[k] = c0;
                        cols[k + 1] = c1;
                    } else {
                        // A trailing unpaired element carries its own
                        // per-element SECDED code (only 8 spare bits exist).
                        cols[k] =
                            encode_secded64_element(values[k].to_bits(), cols[k] & COL_MASK_24);
                    }
                }
            }
            EccScheme::Crc32c => {
                for c in &mut cols[start..end] {
                    *c &= COL_MASK_24;
                }
                let checksum = self.row_checksum(&values[start..end], &cols[start..end]);
                for (c, byte) in cols[start..].iter_mut().zip(checksum.to_le_bytes()) {
                    *c |= (byte as u32) << 24;
                }
            }
        }
    }

    /// The CRC32C of a row's codeword bytes (see [`fill_row_codeword`]),
    /// staged through a stack buffer a few elements at a time.
    fn row_checksum(&self, values: &[f64], cols: &[u32]) -> u32 {
        const STAGE: usize = 16;
        let mut buf = [0u8; STAGE * CRC_BYTES_PER_ELEMENT];
        let mut state = !0u32;
        for (v, c) in values.chunks(STAGE).zip(cols.chunks(STAGE)) {
            for (slot, (x, col)) in buf
                .chunks_exact_mut(CRC_BYTES_PER_ELEMENT)
                .zip(v.iter().zip(c))
            {
                slot[..8].copy_from_slice(&x.to_bits().to_le_bytes());
                slot[8..].copy_from_slice(&(col & COL_MASK_24).to_le_bytes());
            }
            state = self
                .crc
                .update(state, &buf[..v.len() * CRC_BYTES_PER_ELEMENT]);
        }
        !state
    }

    /// False for the one scheme without a batched check-only predicate
    /// (SECDED128 pairs), whose rows always take the decode: certifying a
    /// block of them can only fail, so callers need not set one up.
    pub(crate) fn certifies_runs(&self) -> bool {
        self.scheme != EccScheme::Secded128
    }

    /// Batched check-only predicate over the consecutive rows
    /// `bounds[r]..bounds[r + 1]` (ordered and inside the arrays): `true`
    /// when every element codeword of the run verifies strictly clean, so
    /// that masked reads hand out exactly what the decode would.
    pub(crate) fn rows_clean(&self, values: &[f64], cols: &[u32], bounds: &[usize]) -> bool {
        let run = bounds[0]..bounds[bounds.len() - 1];
        match self.scheme {
            EccScheme::None => true,
            EccScheme::Sed => {
                abft_ecc::verify::sed_elements_clean(&values[run.clone()], &cols[run])
            }
            EccScheme::Secded64 => {
                abft_ecc::verify::secded88_elements_clean(&values[run.clone()], &cols[run])
            }
            EccScheme::Secded128 => false,
            EccScheme::Crc32c => {
                abft_ecc::verify::crc32c_rows_clean(&self.crc, values, cols, bounds)
            }
        }
    }

    /// Decodes the element codewords of the row `start..end` and hands
    /// `(value, column, k)` to `sink` in element order — the one place a
    /// matrix row is decoded, under SpMV, SpMM, `verify_all` and `scrub`
    /// alike.
    ///
    /// With `certified` (checks elided this iteration, or the caller's
    /// batched predicate has certified a run containing the row) the reads
    /// are masked and nothing is verified.  Otherwise the row is screened by
    /// the scheme's batched predicate and, failing that, walked through the
    /// scheme's correcting decode: a correctable flip is logged and the
    /// corrected element handed out (storage is not written), an
    /// uncorrectable codeword is logged and returned as the error, after
    /// the elements before it have been handed out.  Check counts are the
    /// caller's.  `scratch` stages a failing CRC32C row for its trial
    /// correction; `sink`'s own errors pass through.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn read_row(
        &self,
        values: &[f64],
        cols: &[u32],
        start: usize,
        end: usize,
        certified: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
        mut sink: impl FnMut(f64, u32, usize) -> Result<(), AbftError>,
    ) -> Result<(), AbftError> {
        let mask = self.col_mask;
        if certified || self.rows_clean(values, cols, &[start, end]) {
            for (k, (&v, &c)) in values[start..end].iter().zip(&cols[start..end]).enumerate() {
                sink(v, c & mask, start + k)?;
            }
            return Ok(());
        }
        match self.scheme {
            EccScheme::None => unreachable!("an unprotected row is always clean"),
            EccScheme::Sed => {
                for (k, (&v, &c)) in values[start..end].iter().zip(&cols[start..end]).enumerate() {
                    if parity_u64(v.to_bits()) ^ parity_u32(c) != 0 {
                        return Err(uncorrectable(log, start + k));
                    }
                    sink(v, c & mask, start + k)?;
                }
            }
            EccScheme::Secded64 => {
                for (k, (&v, &c)) in values[start..end].iter().zip(&cols[start..end]).enumerate() {
                    let (value, col) = decode_secded64(v, c, start + k, log)?;
                    sink(value, col, start + k)?;
                }
            }
            EccScheme::Secded128 => {
                // Pairs are laid over the whole array, so a row may begin or
                // end mid-pair: a straddling pair is decoded whole and only
                // this row's member is handed out.
                for pair in ((start & !1)..end).step_by(2) {
                    let (pair_values, pair_cols) = decode_secded128_pair(values, cols, pair, log)?;
                    for (k, (v, c)) in (pair..).zip(pair_values.into_iter().zip(pair_cols)) {
                        if (start..end).contains(&k) {
                            sink(v, c, k)?;
                        }
                    }
                }
            }
            EccScheme::Crc32c => {
                let flip = self.locate_crc_flip(values, cols, start, end, scratch, log)?;
                for k in start..end {
                    let (v, c) = match flip {
                        Some((at, value, col)) if at == k => (value, col),
                        _ => (values[k], cols[k] & mask),
                    };
                    sink(v, c, k)?;
                }
            }
        }
        Ok(())
    }

    /// The correcting half of the CRC32C row check, for a row `start..end`
    /// the batched predicate rejected: `Ok(None)` when only a stored
    /// checksum bit flipped (the data is intact), `Ok(Some((k, value,
    /// col)))` when a single flipped data bit was located in element `k`
    /// (its corrected value and masked column), an error when the row is
    /// too short to carry a checksum or no single flip explains it.
    fn locate_crc_flip(
        &self,
        values: &[f64],
        cols: &[u32],
        start: usize,
        end: usize,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<Option<(usize, f64, u32)>, AbftError> {
        if end - start < self.scheme.min_row_entries() {
            // Only a corrupt row structure produces such a row; its checksum
            // bytes would be read out of its neighbour, or out of bounds.
            return Err(uncorrectable(log, start));
        }
        fill_row_codeword(&values[start..end], &cols[start..end], scratch);
        let computed = self.crc.checksum(scratch);
        let mut stored = [0u8; 4];
        for (byte, c) in stored.iter_mut().zip(&cols[start..]) {
            *byte = (c >> 24) as u8;
        }
        let stored = u32::from_le_bytes(stored);
        if (computed ^ stored).count_ones() == 1 {
            log.record_corrected(Region::CsrElements);
            return Ok(None);
        }
        // Otherwise attempt single-bit correction of the codeword by trial
        // re-encoding (§IV: CRC32C has HD 6 in this size range, so a single
        // flip is unambiguously locatable).
        if let Some(bit) = correct_crc32c_single(&self.crc, scratch, stored) {
            let k = start + bit / (CRC_BYTES_PER_ELEMENT * 8);
            let offset = bit % (CRC_BYTES_PER_ELEMENT * 8);
            let (mut vbits, mut col) = (values[k].to_bits(), cols[k] & COL_MASK_24);
            if offset < 64 {
                vbits ^= 1u64 << offset;
            } else {
                col ^= 1u32 << (offset - 64);
            }
            // A "correction" inside the masked byte positions cannot
            // correspond to a real single flip (those bits are zero by
            // construction): uncorrectable.
            if offset < 64 + 24 {
                log.record_corrected(Region::CsrElements);
                return Ok(Some((k, f64::from_bits(vbits), col)));
            }
        }
        Err(uncorrectable(log, start))
    }

    /// Verifies every codeword of the codeword-aligned run `start..end` —
    /// one row under the row-granular CRC32C, the whole element arrays
    /// otherwise — for the whole-matrix walks: the batched predicate, and on
    /// a run it rejects [`ElementCodec::read_row`]'s correcting decode, which
    /// hands each element it corrects to `repair` as a [`Repair::Element`];
    /// a run that logged a correction is then reported as a [`Repair::Run`].
    /// `tally` gains one check per codeword walked (all of them, or those up
    /// to and including the uncorrectable one).  An unprotected run is not
    /// walked at all.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn verify_run(
        &self,
        values: &[f64],
        cols: &[u32],
        start: usize,
        end: usize,
        scratch: &mut Vec<u8>,
        tally: &mut u64,
        log: &FaultLog,
        mut repair: impl FnMut(Repair),
    ) -> Result<(), AbftError> {
        if self.scheme == EccScheme::None {
            return Ok(());
        }
        let before = log.total_corrected();
        let result = if self.rows_clean(values, cols, &[start, end]) {
            Ok(())
        } else {
            let mask = self.col_mask;
            let mut note = |v: f64, c: u32, k: usize| {
                if v.to_bits() != values[k].to_bits() || c != cols[k] & mask {
                    repair(Repair::Element(k, v, c));
                }
                Ok(())
            };
            self.read_row(values, cols, start, end, false, scratch, log, &mut note)
        };
        let walked = match result {
            Err(AbftError::Uncorrectable { index, .. }) => index + 1 - start,
            _ => end - start,
        };
        *tally += match self.scheme.element_group() {
            ElementGrouping::PerElement => walked,
            ElementGrouping::Pair => walked.div_ceil(2),
            ElementGrouping::PerRow => 1,
        } as u64;
        result?;
        if log.total_corrected() != before {
            repair(Repair::Run(start, end));
        }
        Ok(())
    }

    /// The write-back half of a whole-matrix `scrub`: stores the repaired
    /// elements of every run the walk reported and re-encodes the run,
    /// leaving it bit-equal to a fresh encode.  Elements reported after the
    /// last run belong to the run an uncorrectable codeword stopped, and
    /// stay as stored.
    pub(crate) fn write_back(&self, values: &mut [f64], cols: &mut [u32], repairs: &[Repair]) {
        let mut pending = 0;
        for (i, repair) in repairs.iter().enumerate() {
            if let Repair::Run(start, end) = *repair {
                for fix in &repairs[pending..i] {
                    if let Repair::Element(k, v, c) = *fix {
                        values[k] = v;
                        cols[k] = c;
                    }
                }
                self.encode_run(values, cols, start, end);
                pending = i + 1;
            }
        }
    }
}

/// Logs an uncorrectable element codeword and builds its error, out of line
/// of the decode loops.
#[cold]
fn uncorrectable(log: &FaultLog, index: usize) -> AbftError {
    log.record_uncorrectable(Region::CsrElements);
    AbftError::Uncorrectable {
        region: Region::CsrElements,
        index,
    }
}

/// Stages the CRC codeword bytes of a row: each element contributes its
/// value bytes followed by its masked 24-bit index (as a 32-bit
/// little-endian word with a zero top byte).
fn fill_row_codeword(values: &[f64], cols: &[u32], scratch: &mut Vec<u8>) {
    scratch.clear();
    scratch.reserve(values.len() * CRC_BYTES_PER_ELEMENT);
    for (v, c) in values.iter().zip(cols) {
        scratch.extend_from_slice(&v.to_bits().to_le_bytes());
        scratch.extend_from_slice(&(c & COL_MASK_24).to_le_bytes());
    }
}

/// Encodes one element under SECDED64: returns the index word with the 8
/// redundancy bits in its top byte.
fn encode_secded64_element(value_bits: u64, col24: u32) -> u32 {
    let payload = [value_bits, col24 as u64];
    let red = SECDED_88.encode(&payload) as u32;
    col24 | (red << 24)
}

/// Encodes the pair of elements `k`, `k + 1` under SECDED128: returns the
/// two index words with the 9 redundancy bits split across their top bytes
/// (8 + 1).
fn encode_secded128_pair(values: &[f64], cols: &[u32], k: usize) -> (u32, u32) {
    let (c0, c1) = (cols[k] & COL_MASK_24, cols[k + 1] & COL_MASK_24);
    let payload = [
        values[k].to_bits(),
        values[k + 1].to_bits(),
        c0 as u64 | ((c1 as u64) << 24),
    ];
    let red = SECDED_176.encode(&payload) as u32;
    (c0 | ((red & 0xFF) << 24), c1 | (((red >> 8) & 1) << 24))
}

/// SECDED64 decode of one element's (value, encoded index) pair: the
/// (transiently corrected) value and masked column index.  `index` is the
/// element's position, for error reporting.
#[inline(always)]
fn decode_secded64(
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
        DecodeOutcome::Uncorrectable => return Err(uncorrectable(log, index)),
    }
    Ok((f64::from_bits(payload[0]), payload[1] as u32 & COL_MASK_24))
}

/// SECDED128 decode of the pair `pair`, `pair + 1`: corrected values and
/// masked column indices.  An unpaired last element falls back to its
/// per-element SECDED(88) codeword (its second slot is filler).
fn decode_secded128_pair(
    values: &[f64],
    cols: &[u32],
    pair: usize,
    log: &FaultLog,
) -> Result<([f64; 2], [u32; 2]), AbftError> {
    if pair + 1 >= values.len() {
        let (v, c) = decode_secded64(values[pair], cols[pair], pair, log)?;
        return Ok(([v, 0.0], [c, 0]));
    }
    let (c0, c1) = (cols[pair], cols[pair + 1]);
    // Only bit 24 of the second index's spare byte carries redundancy; bits
    // 25–31 are defined to be zero, so a flip there is trivially detectable
    // and correctable.
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
        DecodeOutcome::Uncorrectable => return Err(uncorrectable(log, pair)),
    }
    Ok((
        [f64::from_bits(payload[0]), f64::from_bits(payload[1])],
        [
            payload[2] as u32 & COL_MASK_24,
            (payload[2] >> 24) as u32 & COL_MASK_24,
        ],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a small CSR-like structure: 3 rows with 5, 4 and 6 entries.
    fn sample() -> (Vec<f64>, Vec<u32>, Vec<u32>) {
        let values: Vec<f64> = (0..15).map(|i| (i as f64) * 0.37 - 2.5).collect();
        let cols: Vec<u32> = (0..15).map(|i| (i * 7 % 13) as u32).collect();
        let row_ptr = vec![0u32, 5, 9, 15];
        (values, cols, row_ptr)
    }

    fn row_ranges(row_ptr: &[u32]) -> Vec<(usize, usize)> {
        row_ptr
            .windows(2)
            .map(|w| (w[0] as usize, w[1] as usize))
            .collect()
    }

    fn all_schemes() -> [EccScheme; 4] {
        EccScheme::ALL
    }

    /// Scrubs the run `start..end` as the matrix tiers do — the verify walk
    /// plus its write-backs — flushing its check tally into `log`.
    fn scrub(
        codec: &ElementCodec,
        (start, end): (usize, usize),
        values: &mut [f64],
        cols: &mut [u32],
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        let (mut tally, mut repairs) = (0, Vec::new());
        let result = codec.verify_run(
            values,
            cols,
            start,
            end,
            &mut Vec::new(),
            &mut tally,
            log,
            |repair| repairs.push(repair),
        );
        codec.write_back(values, cols, &repairs);
        log.record_checks(Region::CsrElements, tally);
        result
    }

    #[test]
    fn encode_preserves_masked_columns_and_values() {
        for scheme in all_schemes() {
            let codec = ElementCodec::new(scheme, Crc32cBackend::SlicingBy16);
            let (values, mut cols, row_ptr) = sample();
            let original_cols = cols.clone();
            let original_values = values.clone();
            codec.encode(&values, &mut cols, &row_ptr).unwrap();
            assert_eq!(values, original_values, "{scheme:?} must not touch values");
            for (enc, orig) in cols.iter().zip(&original_cols) {
                assert_eq!(codec.mask_col(*enc), *orig, "{scheme:?} changed an index");
            }
        }
    }

    #[test]
    fn clean_data_checks_clean() {
        for scheme in all_schemes() {
            let codec = ElementCodec::new(scheme, Crc32cBackend::SlicingBy16);
            let (mut values, mut cols, row_ptr) = sample();
            codec.encode(&values, &mut cols, &row_ptr).unwrap();
            let log = FaultLog::new();
            let runs = if codec.row_granular() {
                row_ranges(&row_ptr)
            } else {
                vec![(0, values.len())]
            };
            for run in runs {
                scrub(&codec, run, &mut values, &mut cols, &log).unwrap();
            }
            assert_eq!(log.total_corrected(), 0);
            assert_eq!(log.total_uncorrectable(), 0);
            assert!(log.snapshot().region(Region::CsrElements).0 > 0);
        }
    }

    #[test]
    fn sed_detects_single_value_and_index_flips() {
        let codec = ElementCodec::new(EccScheme::Sed, Crc32cBackend::SlicingBy16);
        let (values, mut cols, row_ptr) = sample();
        codec.encode(&values, &mut cols, &row_ptr).unwrap();
        let log = FaultLog::new();

        // Flip a value bit.
        let mut v = values.clone();
        v[2] = f64::from_bits(v[2].to_bits() ^ (1 << 33));
        let mut c = cols.clone();
        assert!(scrub(&codec, (0, 5), &mut v, &mut c, &log).is_err());

        // Flip an index bit.
        let mut v = values.clone();
        let mut c = cols.clone();
        c[3] ^= 1 << 5;
        assert!(scrub(&codec, (0, 5), &mut v, &mut c, &log).is_err());
        assert!(log.total_uncorrectable() >= 2);
    }

    #[test]
    fn secded64_corrects_any_single_flip() {
        let codec = ElementCodec::new(EccScheme::Secded64, Crc32cBackend::SlicingBy16);
        let (values, mut cols, row_ptr) = sample();
        codec.encode(&values, &mut cols, &row_ptr).unwrap();

        // Every value bit and every index bit (payload and redundancy alike).
        for bit in 0..96u32 {
            let mut v = values.clone();
            let mut c = cols.clone();
            if bit < 64 {
                v[7] = f64::from_bits(v[7].to_bits() ^ (1u64 << bit));
            } else {
                c[7] ^= 1u32 << (bit - 64);
            }
            let log = FaultLog::new();
            scrub(&codec, (5, 9), &mut v, &mut c, &log)
                .unwrap_or_else(|e| panic!("bit {bit}: {e}"));
            assert_eq!(log.total_corrected(), 1, "bit {bit}");
            assert_eq!(v, values, "bit {bit}: value not restored");
            assert_eq!(
                codec.mask_col(c[7]),
                codec.mask_col(cols[7]),
                "bit {bit}: index not restored"
            );
        }
    }

    #[test]
    fn secded64_detects_double_flips() {
        let codec = ElementCodec::new(EccScheme::Secded64, Crc32cBackend::SlicingBy16);
        let (values, mut cols, row_ptr) = sample();
        codec.encode(&values, &mut cols, &row_ptr).unwrap();
        let mut v = values.clone();
        v[0] = f64::from_bits(v[0].to_bits() ^ 0b11);
        let log = FaultLog::new();
        assert!(scrub(&codec, (0, 5), &mut v, &mut cols.clone(), &log).is_err());
        assert_eq!(log.total_uncorrectable(), 1);
    }

    #[test]
    fn secded128_corrects_single_flips_in_either_pair_member() {
        let codec = ElementCodec::new(EccScheme::Secded128, Crc32cBackend::SlicingBy16);
        let (values, mut cols, row_ptr) = sample();
        codec.encode(&values, &mut cols, &row_ptr).unwrap();

        for (k, bit) in [(0usize, 13u32), (1, 60), (2, 5), (14, 40)] {
            let mut v = values.clone();
            let mut c = cols.clone();
            v[k] = f64::from_bits(v[k].to_bits() ^ (1u64 << bit));
            let log = FaultLog::new();
            // Pairs ignore the row structure: the whole array is one run.
            scrub(&codec, (0, v.len()), &mut v, &mut c, &log).unwrap();
            assert_eq!(v, values);
            assert_eq!(log.total_corrected(), 1);
        }

        // Index flip in the odd member of a pair.
        let mut v = values.clone();
        let mut c = cols.clone();
        c[3] ^= 1 << 10;
        let log = FaultLog::new();
        scrub(&codec, (0, v.len()), &mut v, &mut c, &log).unwrap();
        assert_eq!(codec.mask_col(c[3]), codec.mask_col(cols[3]));
        assert_eq!(log.total_corrected(), 1);
    }

    #[test]
    fn crc_rejects_short_rows() {
        let codec = ElementCodec::new(EccScheme::Crc32c, Crc32cBackend::SlicingBy16);
        let values = vec![1.0, 2.0, 3.0];
        let mut cols = vec![0u32, 1, 2];
        let row_ptr = vec![0u32, 3];
        assert!(matches!(
            codec.encode(&values, &mut cols, &row_ptr),
            Err(AbftError::RowTooShort {
                row: 0,
                entries: 3,
                min: 4
            })
        ));
    }

    #[test]
    fn crc_corrects_single_flips_and_detects_triples() {
        let codec = ElementCodec::new(EccScheme::Crc32c, Crc32cBackend::SlicingBy16);
        let (values, mut cols, row_ptr) = sample();
        codec.encode(&values, &mut cols, &row_ptr).unwrap();

        // Single value-bit flip: corrected.
        let mut v = values.clone();
        let mut c = cols.clone();
        v[10] = f64::from_bits(v[10].to_bits() ^ (1 << 51));
        let log = FaultLog::new();
        scrub(&codec, (9, 15), &mut v, &mut c, &log).unwrap();
        assert_eq!(v, values);
        assert_eq!(log.total_corrected(), 1);

        // Single index-bit flip: corrected.
        let mut v = values.clone();
        let mut c = cols.clone();
        c[11] ^= 1 << 3;
        scrub(&codec, (9, 15), &mut v, &mut c, &log).unwrap();
        assert_eq!(codec.mask_col(c[11]), codec.mask_col(cols[11]));

        // Single flip in a stored checksum byte: data intact, checksum restored.
        let mut v = values.clone();
        let mut c = cols.clone();
        c[9] ^= 1 << 28;
        scrub(&codec, (9, 15), &mut v, &mut c, &log).unwrap();
        assert_eq!(c, cols);

        // Three flips: detected as uncorrectable.
        let mut v = values.clone();
        let mut c = cols.clone();
        v[9] = f64::from_bits(v[9].to_bits() ^ 0b111);
        let log = FaultLog::new();
        assert!(scrub(&codec, (9, 15), &mut v, &mut c, &log).is_err());
        assert_eq!(log.total_uncorrectable(), 1);
    }

    #[test]
    fn none_scheme_is_a_no_op() {
        let codec = ElementCodec::new(EccScheme::None, Crc32cBackend::SlicingBy16);
        let (mut values, mut cols, row_ptr) = sample();
        let orig = cols.clone();
        codec.encode(&values, &mut cols, &row_ptr).unwrap();
        assert_eq!(cols, orig);
        let log = FaultLog::new();
        // Corrupt freely: nothing is checked.
        values[0] = f64::NAN;
        cols[0] ^= 0xFFFF;
        scrub(&codec, (0, 5), &mut values, &mut cols, &log).unwrap();
        assert_eq!(log.snapshot().region(Region::CsrElements).0, 0);
        assert_eq!(codec.mask_col(0xDEAD_BEEF), 0xDEAD_BEEF);
    }

    #[test]
    fn odd_length_secded128_tail_is_protected() {
        let codec = ElementCodec::new(EccScheme::Secded128, Crc32cBackend::SlicingBy16);
        let values: Vec<f64> = (0..5).map(|i| i as f64 + 0.5).collect();
        let mut cols: Vec<u32> = vec![0, 1, 2, 3, 4];
        let row_ptr = vec![0u32, 5];
        codec.encode(&values, &mut cols, &row_ptr).unwrap();

        // Flip a bit in the final (unpaired) element.
        let mut v = values.clone();
        let mut c = cols.clone();
        v[4] = f64::from_bits(v[4].to_bits() ^ (1 << 20));
        let log = FaultLog::new();
        scrub(&codec, (0, 5), &mut v, &mut c, &log).unwrap();
        assert_eq!(v, values);
        assert_eq!(log.total_corrected(), 1);
    }
}
