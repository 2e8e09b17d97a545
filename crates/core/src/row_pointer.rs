//! Row-pointer protection (§VI-A-1, Fig. 2).
//!
//! Each entry of the CSR row-pointer vector *x* is an offset into the value
//! array, so its value never exceeds NNZ.  By constraining NNZ the top bits
//! of each 32-bit entry become available for redundancy:
//!
//! * **SED** — the top bit stores the parity of the entry (NNZ < 2³¹);
//! * **SECDED64** — the top 4 bits of each of 2 consecutive entries hold a
//!   7-bit Hamming code over their 2 × 28 payload bits (NNZ < 2²⁸);
//! * **SECDED128** — the top 4 bits of each of 4 consecutive entries hold an
//!   8-bit Hamming code over 4 × 28 payload bits;
//! * **CRC32C** — the top 4 bits of each of 8 consecutive entries hold the
//!   32-bit checksum of their 8 × 28 payload bits.
//!
//! Incomplete trailing groups are padded with virtual zero entries, which is
//! safe because the padding is identical at encode and check time.
//!
//! Integrity checks come in two strengths, matching the paper's
//! less-frequent-checking scheme: a **full check** verifies the codeword and
//! can correct a single flip, while a **bounds check** merely confirms the
//! decoded offsets do not exceed NNZ (preventing out-of-bounds reads /
//! segmentation faults) at a fraction of the cost.

use crate::error::AbftError;
use crate::report::{FaultLog, Region};
use crate::schemes::EccScheme;
use abft_ecc::secded::DecodeOutcome;
use abft_ecc::sed::parity_u32;
use abft_ecc::{Crc32c, Crc32cBackend, SECDED_112, SECDED_56};

/// Mask selecting the 28 payload bits of an entry under SECDED / CRC32C.
pub const ROW_PTR_MASK_28: u32 = 0x0FFF_FFFF;
/// Mask selecting the 31 payload bits of an entry under SED.
pub const ROW_PTR_MASK_31: u32 = 0x7FFF_FFFF;

/// The CSR row-pointer vector with embedded redundancy.
///
/// For the grouped schemes the internal storage is padded with zero entries
/// up to a whole number of codeword groups, so the redundancy of a trailing
/// partial group has somewhere to live.  The padding is at most
/// `group − 1 ≤ 7` extra 32-bit words regardless of the matrix size — a
/// constant handful of bytes, not a per-element overhead.
#[derive(Debug, Clone)]
pub struct ProtectedRowPointer {
    scheme: EccScheme,
    data: Vec<u32>,
    /// Logical number of entries (rows + 1); `data` may be longer (padding).
    len: usize,
    nnz: usize,
    crc: Crc32c,
}

impl ProtectedRowPointer {
    /// Encodes a plain row-pointer vector.
    ///
    /// Fails when NNZ exceeds what the scheme can represent in the remaining
    /// payload bits.
    pub fn encode(
        row_ptr: &[u32],
        scheme: EccScheme,
        backend: Crc32cBackend,
    ) -> Result<Self, AbftError> {
        let nnz = row_ptr.last().copied().unwrap_or(0) as usize;
        if scheme != EccScheme::None && nnz > scheme.max_nnz() {
            return Err(AbftError::TooManyNonZeros {
                nnz,
                max: scheme.max_nnz(),
            });
        }
        let crc = Crc32c::new(backend);
        let len = row_ptr.len();
        let mut data = row_ptr.to_vec();
        match scheme {
            EccScheme::None => {}
            EccScheme::Sed => {
                for e in &mut data {
                    let payload = *e & ROW_PTR_MASK_31;
                    *e = payload | (parity_u32(payload) << 31);
                }
            }
            _ => {
                let group = scheme.row_pointer_group();
                data.resize(len.div_ceil(group) * group, 0);
                let n_groups = data.len() / group;
                for g in 0..n_groups {
                    encode_group(scheme, &crc, &mut data, g * group);
                }
            }
        }
        Ok(ProtectedRowPointer {
            scheme,
            data,
            len,
            nnz,
            crc,
        })
    }

    /// The scheme protecting this vector.
    pub fn scheme(&self) -> EccScheme {
        self.scheme
    }

    /// Number of entries (rows + 1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of non-zeros the offsets address.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Raw (encoded) storage — exposed for fault injection and tests.
    pub fn raw(&self) -> &[u32] {
        &self.data
    }

    /// Flips one bit of one stored entry (fault injection hook).
    pub fn inject_bit_flip(&mut self, entry: usize, bit: u32) {
        self.data[entry] ^= 1u32 << bit;
    }

    /// The entry value with redundancy bits masked off, without any check.
    #[inline]
    pub fn get_masked(&self, i: usize) -> u32 {
        mask_entry(self.scheme, self.data[i])
    }

    /// Decodes the half-open element range of `row`.
    ///
    /// With `check == true` the codeword(s) covering the two entries are
    /// verified (single flips corrected transparently for the returned value,
    /// and recorded in `log`); with `check == false` only the bounds check of
    /// §VI-A-2 is performed: offsets must not exceed NNZ and must be ordered.
    pub fn row_range(
        &self,
        row: usize,
        check: bool,
        log: &FaultLog,
    ) -> Result<(usize, usize), AbftError> {
        if check && self.scheme != EccScheme::None {
            // One bulk counter update per row keeps atomics off the per-entry
            // hot path.
            log.record_checks(Region::RowPointer, 2);
        }
        let start = self.read_entry(row, check, log)? as usize;
        let end = self.read_entry(row + 1, check, log)? as usize;
        if start > end || end > self.nnz {
            log.record_bounds_violation(Region::RowPointer);
            return Err(AbftError::OutOfRange {
                region: Region::RowPointer,
                index: row,
                value: end.max(start),
                limit: self.nnz,
            });
        }
        Ok((start, end))
    }

    /// Reads entry `i`, either with a full integrity check (transiently
    /// correcting single flips) or with a bounds check only.
    pub(crate) fn read_entry(
        &self,
        i: usize,
        check: bool,
        log: &FaultLog,
    ) -> Result<u32, AbftError> {
        if !check || self.scheme == EccScheme::None {
            let value = self.get_masked(i);
            if self.scheme == EccScheme::None {
                return Ok(value);
            }
            // Bounds check: prevents out-of-range reads between full checks.
            if value as usize > self.nnz {
                log.record_bounds_violation(Region::RowPointer);
                return Err(AbftError::OutOfRange {
                    region: Region::RowPointer,
                    index: i,
                    value: value as usize,
                    limit: self.nnz,
                });
            }
            return Ok(value);
        }
        match self.scheme {
            EccScheme::None => unreachable!(),
            EccScheme::Sed => {
                if parity_u32(self.data[i]) != 0 {
                    log.record_uncorrectable(Region::RowPointer);
                    return Err(AbftError::Uncorrectable {
                        region: Region::RowPointer,
                        index: i,
                    });
                }
                Ok(self.data[i] & ROW_PTR_MASK_31)
            }
            _ => {
                let group = self.scheme.row_pointer_group();
                let g = i / group;
                let decoded = self.decode_group(g, log)?;
                Ok(mask_entry(self.scheme, decoded[i - g * group]))
            }
        }
    }

    /// Decodes (and verifies) the group containing entries
    /// `[g*group, (g+1)*group)`, returning the corrected stored entries
    /// (redundancy bits still attached).  Storage is not modified;
    /// corrections are transient (see [`ProtectedRowPointer::scrub`]).
    pub(crate) fn decode_group(&self, g: usize, log: &FaultLog) -> Result<[u32; 8], AbftError> {
        let group = self.scheme.row_pointer_group();
        let base = g * group;
        let mut entries = self.load_group(g);
        match check_group(self.scheme, &self.crc, &mut entries[..group]) {
            GroupOutcome::Clean => {}
            GroupOutcome::Corrected => log.record_corrected(Region::RowPointer),
            GroupOutcome::Uncorrectable => {
                log.record_uncorrectable(Region::RowPointer);
                return Err(AbftError::Uncorrectable {
                    region: Region::RowPointer,
                    index: base,
                });
            }
        }
        Ok(entries)
    }

    /// The stored entries of group `g` (zero beyond the end of the vector).
    fn load_group(&self, g: usize) -> [u32; 8] {
        let group = self.scheme.row_pointer_group();
        let mut entries = [0u32; 8];
        for (j, e) in entries[..group].iter_mut().enumerate() {
            *e = self.data.get(g * group + j).copied().unwrap_or(0);
        }
        entries
    }

    /// The stored entries of group `g` when its codeword verifies strictly
    /// clean — [`ProtectedRowPointer::decode_group`] minus correction and
    /// logging, for callers that certify first and attribute on a re-walk.
    pub(crate) fn group_if_clean(&self, g: usize) -> Option<[u32; 8]> {
        let group = self.scheme.row_pointer_group();
        let mut entries = self.load_group(g);
        matches!(
            check_group(self.scheme, &self.crc, &mut entries[..group]),
            GroupOutcome::Clean
        )
        .then_some(entries)
    }

    /// Verifies every codeword; errors are logged, single flips are *not*
    /// written back (use [`ProtectedRowPointer::scrub`] for that).
    pub fn check_all(&self, log: &FaultLog) -> Result<(), AbftError> {
        // Tallied locally, flushed once — on the error path too.
        let mut tally = 0u64;
        let result = self.check_all_inner(log, &mut tally);
        if tally > 0 {
            log.record_checks(Region::RowPointer, tally);
        }
        result
    }

    fn check_all_inner(&self, log: &FaultLog, tally: &mut u64) -> Result<(), AbftError> {
        match self.scheme {
            EccScheme::None => Ok(()),
            EccScheme::Sed => {
                for (i, &e) in self.data.iter().enumerate() {
                    *tally += 1;
                    if parity_u32(e) != 0 {
                        log.record_uncorrectable(Region::RowPointer);
                        return Err(AbftError::Uncorrectable {
                            region: Region::RowPointer,
                            index: i,
                        });
                    }
                }
                Ok(())
            }
            _ => {
                let group = self.scheme.row_pointer_group();
                for g in 0..self.data.len().div_ceil(group) {
                    *tally += 1;
                    self.decode_group(g, log)?;
                }
                Ok(())
            }
        }
    }

    /// Re-verifies every codeword and repairs correctable errors in place.
    /// Returns the number of corrected codewords, or an error if an
    /// uncorrectable codeword is found.
    pub fn scrub(&mut self, log: &FaultLog) -> Result<usize, AbftError> {
        let mut repaired = 0;
        match self.scheme {
            EccScheme::None => {}
            EccScheme::Sed => {
                // Parity cannot correct; scrubbing only re-detects.
                self.check_all(log)?;
            }
            _ => {
                let group = self.scheme.row_pointer_group();
                for g in 0..self.data.len().div_ceil(group) {
                    let base = g * group;
                    let mut entries = self.load_group(g);
                    match check_group(self.scheme, &self.crc, &mut entries[..group]) {
                        GroupOutcome::Clean => {}
                        GroupOutcome::Corrected => {
                            log.record_corrected(Region::RowPointer);
                            for (j, e) in entries[..group].iter().enumerate() {
                                if base + j < self.data.len() {
                                    self.data[base + j] = *e;
                                }
                            }
                            repaired += 1;
                        }
                        GroupOutcome::Uncorrectable => {
                            log.record_uncorrectable(Region::RowPointer);
                            return Err(AbftError::Uncorrectable {
                                region: Region::RowPointer,
                                index: base,
                            });
                        }
                    }
                }
            }
        }
        Ok(repaired)
    }

    /// Decodes the whole vector back to plain offsets (no checking).
    pub fn to_plain(&self) -> Vec<u32> {
        (0..self.len).map(|i| self.get_masked(i)).collect()
    }
}

/// Masks the redundancy bits off one stored entry.
#[inline]
pub(crate) fn mask_entry(scheme: EccScheme, e: u32) -> u32 {
    match scheme {
        EccScheme::None => e,
        EccScheme::Sed => e & ROW_PTR_MASK_31,
        _ => e & ROW_PTR_MASK_28,
    }
}

/// Packs the 28-bit payloads of a group into words for the SECDED codes
/// (word-level shifts through a 128-bit accumulator; at most 4 × 28 = 112
/// bits are packed this way).
#[inline]
fn pack_group_payload(entries: &[u32]) -> [u64; 2] {
    let mut acc: u128 = 0;
    for (j, &e) in entries.iter().enumerate() {
        acc |= ((e & ROW_PTR_MASK_28) as u128) << (j * 28);
    }
    [acc as u64, (acc >> 64) as u64]
}

/// Unpacks corrected payloads back into the low 28 bits of each entry,
/// preserving the stored redundancy nibbles.
#[inline]
fn unpack_group_payload(words: &[u64; 2], entries: &mut [u32]) {
    let acc = words[0] as u128 | ((words[1] as u128) << 64);
    for (j, e) in entries.iter_mut().enumerate() {
        let payload = ((acc >> (j * 28)) as u32) & ROW_PTR_MASK_28;
        *e = (*e & !ROW_PTR_MASK_28) | payload;
    }
}

/// Reads the redundancy nibbles (top 4 bits of each entry, low nibble first).
fn read_nibbles(entries: &[u32]) -> u32 {
    entries
        .iter()
        .enumerate()
        .fold(0u32, |acc, (j, &e)| acc | ((e >> 28) << (4 * j)))
}

/// Writes redundancy nibbles into the top 4 bits of each entry.
fn write_nibbles(entries: &mut [u32], redundancy: u32) {
    for (j, e) in entries.iter_mut().enumerate() {
        let nib = (redundancy >> (4 * j)) & 0xF;
        *e = (*e & ROW_PTR_MASK_28) | (nib << 28);
    }
}

/// Encodes the group starting at `base` in place (entries beyond the end of
/// the vector are treated as zero).
fn encode_group(scheme: EccScheme, crc: &Crc32c, data: &mut [u32], base: usize) {
    let group = scheme.row_pointer_group();
    let mut entries: Vec<u32> = (0..group)
        .map(|j| data.get(base + j).copied().unwrap_or(0) & ROW_PTR_MASK_28)
        .collect();
    let redundancy = match scheme {
        EccScheme::Secded64 => SECDED_56.encode(&pack_group_payload(&entries)[..1]) as u32,
        EccScheme::Secded128 => SECDED_112.encode(&pack_group_payload(&entries)) as u32,
        EccScheme::Crc32c => crc_group_checksum(crc, &entries),
        _ => unreachable!("encode_group only called for grouped schemes"),
    };
    write_nibbles(&mut entries, redundancy);
    for (j, e) in entries.iter().enumerate() {
        if base + j < data.len() {
            data[base + j] = *e;
        }
    }
}

/// CRC32C over the group's masked payloads (little-endian 32-bit words with
/// zeroed top nibbles), hashed two entries per 64-bit word — the same byte
/// string, without staging it.
fn crc_group_checksum(crc: &Crc32c, entries: &[u32]) -> u32 {
    debug_assert_eq!(entries.len(), 8);
    let mut words = [0u64; 4];
    for (w, pair) in words.iter_mut().zip(entries.chunks_exact(2)) {
        *w = (pair[0] & ROW_PTR_MASK_28) as u64 | ((pair[1] & ROW_PTR_MASK_28) as u64) << 32;
    }
    crc.checksum_words(&words)
}

enum GroupOutcome {
    Clean,
    Corrected,
    Uncorrectable,
}

/// Verifies one group (entries include their redundancy nibbles), correcting
/// single flips in `entries` in place.
fn check_group(scheme: EccScheme, crc: &Crc32c, entries: &mut [u32]) -> GroupOutcome {
    match scheme {
        EccScheme::Secded64 | EccScheme::Secded128 => {
            let all_nibbles = read_nibbles(entries);
            let code = if scheme == EccScheme::Secded64 {
                &SECDED_56
            } else {
                &SECDED_112
            };
            // Nibble bits beyond the code's redundancy are defined to be
            // zero; a flip there is detectable and trivially correctable.
            let used_mask = (1u32 << code.redundancy_bits()) - 1;
            let spare_bits_hit = all_nibbles & !used_mask != 0;
            if spare_bits_hit {
                write_nibbles(entries, all_nibbles & used_mask);
            }
            let stored = (all_nibbles & used_mask) as u16;
            let mut payload = pack_group_payload(entries);
            let words = if scheme == EccScheme::Secded64 { 1 } else { 2 };
            match code.check_and_correct(&mut payload[..words], stored) {
                DecodeOutcome::NoError if spare_bits_hit => GroupOutcome::Corrected,
                DecodeOutcome::NoError => GroupOutcome::Clean,
                DecodeOutcome::CorrectedData(_) => {
                    unpack_group_payload(&payload, entries);
                    GroupOutcome::Corrected
                }
                DecodeOutcome::CorrectedRedundancy => {
                    let red = code.encode(&payload[..words]) as u32;
                    write_nibbles(entries, red);
                    GroupOutcome::Corrected
                }
                DecodeOutcome::Uncorrectable => GroupOutcome::Uncorrectable,
            }
        }
        EccScheme::Crc32c => {
            let stored = read_nibbles(entries);
            let computed = crc_group_checksum(crc, entries);
            if stored == computed {
                return GroupOutcome::Clean;
            }
            if (stored ^ computed).count_ones() == 1 {
                // The stored checksum itself took the hit.
                write_nibbles(entries, computed);
                return GroupOutcome::Corrected;
            }
            // Trial single-bit correction over the packed payload bytes.
            let mut bytes = [0u8; 32];
            for (j, &e) in entries.iter().enumerate() {
                bytes[j * 4..j * 4 + 4].copy_from_slice(&(e & ROW_PTR_MASK_28).to_le_bytes());
            }
            let len = entries.len() * 4;
            if let Some(bit) =
                abft_ecc::correction::correct_crc32c_single(crc, &mut bytes[..len], stored)
            {
                let entry = bit / 32;
                let offset = bit % 32;
                if offset < 28 {
                    entries[entry] ^= 1u32 << offset;
                    return GroupOutcome::Corrected;
                }
            }
            GroupOutcome::Uncorrectable
        }
        _ => GroupOutcome::Clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row_ptr(rows: usize, per_row: u32) -> Vec<u32> {
        (0..=rows as u32).map(|i| i * per_row).collect()
    }

    #[test]
    fn roundtrip_all_schemes() {
        let row_ptr = sample_row_ptr(23, 5);
        for scheme in [
            EccScheme::None,
            EccScheme::Sed,
            EccScheme::Secded64,
            EccScheme::Secded128,
            EccScheme::Crc32c,
        ] {
            let p =
                ProtectedRowPointer::encode(&row_ptr, scheme, Crc32cBackend::SlicingBy16).unwrap();
            assert_eq!(p.to_plain(), row_ptr, "{scheme:?}");
            assert_eq!(p.scheme(), scheme);
            assert_eq!(p.len(), 24);
            assert!(!p.is_empty());
            assert_eq!(p.nnz(), 115);
            for (i, &v) in row_ptr.iter().enumerate() {
                assert_eq!(p.get_masked(i), v);
            }
            let log = FaultLog::new();
            p.check_all(&log).unwrap();
            assert_eq!(log.total_corrected() + log.total_uncorrectable(), 0);
        }
    }

    #[test]
    fn row_range_with_and_without_checks() {
        let row_ptr = sample_row_ptr(10, 5);
        for scheme in EccScheme::ALL {
            let p =
                ProtectedRowPointer::encode(&row_ptr, scheme, Crc32cBackend::SlicingBy16).unwrap();
            let log = FaultLog::new();
            assert_eq!(p.row_range(3, true, &log).unwrap(), (15, 20));
            assert_eq!(p.row_range(3, false, &log).unwrap(), (15, 20));
            assert_eq!(p.row_range(0, true, &log).unwrap(), (0, 5));
            assert_eq!(p.row_range(9, true, &log).unwrap(), (45, 50));
        }
    }

    #[test]
    fn sed_detects_single_flip() {
        let row_ptr = sample_row_ptr(8, 5);
        let mut p =
            ProtectedRowPointer::encode(&row_ptr, EccScheme::Sed, Crc32cBackend::SlicingBy16)
                .unwrap();
        p.inject_bit_flip(4, 7);
        let log = FaultLog::new();
        assert!(p.row_range(4, true, &log).is_err() || p.row_range(3, true, &log).is_err());
        assert!(log.total_uncorrectable() > 0);
        assert!(p.check_all(&log).is_err());
    }

    #[test]
    fn secded_corrects_single_flip_transiently_and_scrubs() {
        for scheme in [EccScheme::Secded64, EccScheme::Secded128] {
            let row_ptr = sample_row_ptr(13, 5);
            let mut p =
                ProtectedRowPointer::encode(&row_ptr, scheme, Crc32cBackend::SlicingBy16).unwrap();
            p.inject_bit_flip(5, 13);
            let log = FaultLog::new();
            // Reads still return the correct range (transient correction).
            assert_eq!(p.row_range(5, true, &log).unwrap(), (25, 30), "{scheme:?}");
            assert!(log.total_corrected() > 0);
            // The storage still holds the flipped bit until scrubbed.
            assert_ne!(
                p.raw()[5],
                ProtectedRowPointer::encode(&row_ptr, scheme, Crc32cBackend::SlicingBy16)
                    .unwrap()
                    .raw()[5]
            );
            let repaired = p.scrub(&log).unwrap();
            assert_eq!(repaired, 1);
            assert_eq!(p.to_plain(), row_ptr);
            // A second scrub finds nothing.
            assert_eq!(p.scrub(&log).unwrap(), 0);
        }
    }

    #[test]
    fn crc_corrects_single_flip_and_detects_double() {
        let row_ptr = sample_row_ptr(20, 7);
        let mut p =
            ProtectedRowPointer::encode(&row_ptr, EccScheme::Crc32c, Crc32cBackend::SlicingBy16)
                .unwrap();
        p.inject_bit_flip(9, 3);
        let log = FaultLog::new();
        assert_eq!(p.row_range(9, true, &log).unwrap(), (63, 70));
        assert!(log.total_corrected() > 0);
        assert_eq!(p.scrub(&log).unwrap(), 1);
        assert_eq!(p.to_plain(), row_ptr);

        // Two flips in the same group are uncorrectable.
        p.inject_bit_flip(8, 2);
        p.inject_bit_flip(9, 11);
        let log = FaultLog::new();
        assert!(p.row_range(9, true, &log).is_err());
        assert!(log.total_uncorrectable() > 0);
    }

    #[test]
    fn bounds_check_catches_wild_offsets_without_full_check() {
        let row_ptr = sample_row_ptr(10, 5);
        for scheme in [EccScheme::Sed, EccScheme::Secded64, EccScheme::Crc32c] {
            let mut p =
                ProtectedRowPointer::encode(&row_ptr, scheme, Crc32cBackend::SlicingBy16).unwrap();
            // Flip a high payload bit so the masked value becomes enormous.
            let bit = if scheme == EccScheme::Sed { 30 } else { 27 };
            p.inject_bit_flip(6, bit);
            let log = FaultLog::new();
            let result = p.row_range(6, false, &log);
            assert!(result.is_err(), "{scheme:?}");
            assert!(log.total_bounds_violations() > 0, "{scheme:?}");
        }
    }

    #[test]
    fn bounds_check_misses_small_corruptions() {
        // A low-bit flip keeps the offset in range: the bounds check cannot
        // see it (that is the price of less frequent checking), but the full
        // check can.
        let row_ptr = sample_row_ptr(10, 5);
        let mut p =
            ProtectedRowPointer::encode(&row_ptr, EccScheme::Secded64, Crc32cBackend::SlicingBy16)
                .unwrap();
        p.inject_bit_flip(6, 0);
        let log = FaultLog::new();
        let unchecked = p.row_range(6, false, &log).unwrap();
        assert_ne!(
            unchecked,
            (30, 35),
            "bounds check alone accepts the corrupt offset"
        );
        let checked = p.row_range(6, true, &log).unwrap();
        assert_eq!(checked, (30, 35));
    }

    #[test]
    fn nnz_limits_are_enforced() {
        // SED allows up to 2^31-1 but SECDED64 only 2^28-1.
        let row_ptr = vec![0u32, (1 << 28) + 5];
        assert!(
            ProtectedRowPointer::encode(&row_ptr, EccScheme::Sed, Crc32cBackend::SlicingBy16)
                .is_ok()
        );
        assert!(matches!(
            ProtectedRowPointer::encode(&row_ptr, EccScheme::Secded64, Crc32cBackend::SlicingBy16),
            Err(AbftError::TooManyNonZeros { .. })
        ));
    }

    #[test]
    fn empty_and_single_entry_vectors() {
        let log = FaultLog::new();
        for scheme in EccScheme::ALL {
            let p = ProtectedRowPointer::encode(&[], scheme, Crc32cBackend::SlicingBy16).unwrap();
            assert!(p.is_empty());
            p.check_all(&log).unwrap();
            let p = ProtectedRowPointer::encode(&[0], scheme, Crc32cBackend::SlicingBy16).unwrap();
            assert_eq!(p.to_plain(), vec![0]);
            p.check_all(&log).unwrap();
        }
    }
}
