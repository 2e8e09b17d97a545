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
//! SED and unprotected entries are groups of one.  Incomplete trailing
//! groups are padded with zero entries, which is safe because the padding is
//! identical at encode and check time.
//!
//! Integrity checks come in two strengths, matching the paper's
//! less-frequent-checking scheme: a **full check** verifies the codeword and
//! can correct a single flip, while a **bounds check** merely confirms the
//! decoded offsets do not exceed NNZ (preventing out-of-bounds reads /
//! segmentation faults) at a fraction of the cost.
//!
//! One group check serves every read: `RpCursor`, the only reader of the
//! row bounds, and the whole-vector walk under
//! [`ProtectedRowPointer::check_all`] and [`ProtectedRowPointer::scrub`] —
//! `scrub` is that walk plus the write-backs it reports.

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
        let group = scheme.row_pointer_group();
        let mut data = row_ptr.to_vec();
        data.resize(row_ptr.len().div_ceil(group) * group, 0);
        for entries in data.chunks_exact_mut(group) {
            encode_group(scheme, &crc, entries);
        }
        Ok(ProtectedRowPointer {
            scheme,
            data,
            len: row_ptr.len(),
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

    /// The one whole-vector walk under [`ProtectedRowPointer::check_all`]
    /// and [`ProtectedRowPointer::scrub`]: every codeword verified once, in
    /// order, a correction logged and handed to `repair` as `(first entry,
    /// repaired entries)`, the first uncorrectable codeword logged and
    /// returned.  `tally` gains one check per codeword walked; an
    /// unprotected vector has no codewords and is not walked.
    fn walk(
        &self,
        log: &FaultLog,
        tally: &mut u64,
        mut repair: impl FnMut(usize, [u32; 8]),
    ) -> Result<(), AbftError> {
        if self.scheme == EccScheme::None {
            return Ok(());
        }
        let group = self.scheme.row_pointer_group();
        for (g, stored) in self.data.chunks_exact(group).enumerate() {
            *tally += 1;
            match check_group(self.scheme, &self.crc, stored) {
                GroupOutcome::Clean => {}
                GroupOutcome::Corrected(entries) => {
                    log.record_corrected(Region::RowPointer);
                    repair(g * group, entries);
                }
                GroupOutcome::Uncorrectable => return Err(uncorrectable(log, g * group)),
            }
        }
        Ok(())
    }

    /// Verifies every codeword; errors are logged, single flips are *not*
    /// written back (use [`ProtectedRowPointer::scrub`] for that).
    pub fn check_all(&self, log: &FaultLog) -> Result<(), AbftError> {
        // Tallied locally, flushed once — on the error path too.
        let mut tally = 0u64;
        let result = self.walk(log, &mut tally, |_, _| {});
        log.record_checks(Region::RowPointer, tally);
        result
    }

    /// [`ProtectedRowPointer::check_all`]'s walk plus the write-backs it
    /// reports: repairs correctable codewords in place and returns how many,
    /// or the first uncorrectable codeword (the ones before it repaired).
    /// Only a scrub that cannot correct (SED), which is then a `check_all`,
    /// counts its checks.
    pub fn scrub(&mut self, log: &FaultLog) -> Result<usize, AbftError> {
        let mut tally = 0u64;
        let mut repairs = Vec::new();
        let result = self.walk(log, &mut tally, |base, entries| {
            repairs.push((base, entries))
        });
        if !self.scheme.corrects_single_flips() {
            log.record_checks(Region::RowPointer, tally);
        }
        let group = self.scheme.row_pointer_group();
        for (base, entries) in &repairs {
            self.data[*base..base + group].copy_from_slice(&entries[..group]);
        }
        result.map(|()| repairs.len())
    }

    /// Decodes the whole vector back to plain offsets (no checking).
    pub fn to_plain(&self) -> Vec<u32> {
        (0..self.len).map(|i| self.get_masked(i)).collect()
    }
}

/// Sequential reader of row bounds caching the last decoded codeword group:
/// the one reader of a [`ProtectedRowPointer`] outside its own walk, under
/// the range kernels and the whole-matrix element walk.
///
/// Consecutive rows share row-pointer entries (row `i` ends where row `i+1`
/// starts) and whole codeword groups; decoding a group once per
/// `group − 1` rows instead of twice per row removes most of the
/// row-pointer ECC work from the SpMV.  A checked read corrects transiently
/// (storage untouched) and logs a correction once per group per cursor —
/// unless the caller has walked the vector already and logged it there.
pub(crate) struct RpCursor<'a> {
    rp: &'a ProtectedRowPointer,
    /// log₂ of the entries per codeword group (a power of two), so the
    /// per-row group lookup is a shift and a mask, not a division.
    shift: u32,
    /// The group read last, and its corrected entries if a flip was
    /// corrected in it (a clean group is read from storage).
    cached: usize,
    corrected: Option<[u32; 8]>,
    /// Whether a checked read logs the corrections it makes, or leaves them
    /// to a `check_all` that has already logged them.
    record_corrected: bool,
}

impl<'a> RpCursor<'a> {
    pub(crate) fn new(rp: &'a ProtectedRowPointer, record_corrected: bool) -> Self {
        let group = rp.scheme.row_pointer_group();
        debug_assert!(group.is_power_of_two());
        RpCursor {
            rp,
            shift: group.trailing_zeros(),
            cached: usize::MAX,
            corrected: None,
            record_corrected,
        }
    }

    /// Reads entries `first..first + bounds.len()` into `bounds` when that
    /// needs nothing recorded: unchecked reads (`rp_checked` off), or every
    /// codeword covering them verifying strictly clean.  Checks each group
    /// once and leaves the cache alone; on `false` the logging
    /// [`RpCursor::row_bounds`] redoes the reads (a group the cursor has
    /// corrected fails here and is then read from its cache).
    #[inline]
    pub(crate) fn bounds_if_clean(
        &self,
        first: usize,
        bounds: &mut [usize],
        rp_checked: bool,
    ) -> bool {
        let (s, rp) = (self.shift, self.rp);
        let entries = first..first + bounds.len();
        let groups = &rp.data[(first >> s) << s..(((entries.end - 1) >> s) + 1) << s];
        let clean = |group| matches!(check_group(rp.scheme, &rp.crc, group), GroupOutcome::Clean);
        if rp_checked && !groups.chunks_exact(1 << s).all(clean) {
            return false;
        }
        for (bound, i) in bounds.iter_mut().zip(entries) {
            *bound = rp.get_masked(i) as usize;
        }
        true
    }

    /// Fully checked read of entry `i` through the group cache.
    #[inline]
    fn entry_checked(&mut self, i: usize, log: &FaultLog) -> Result<u32, AbftError> {
        let g = i >> self.shift;
        if g != self.cached {
            let (s, rp) = (self.shift, self.rp);
            self.corrected = match check_group(rp.scheme, &rp.crc, &rp.data[g << s..(g + 1) << s]) {
                GroupOutcome::Clean => None,
                GroupOutcome::Corrected(entries) => {
                    if self.record_corrected {
                        log.record_corrected(Region::RowPointer);
                    }
                    Some(entries)
                }
                GroupOutcome::Uncorrectable => return Err(uncorrectable(log, g << s)),
            };
            self.cached = g;
        }
        Ok(match &self.corrected {
            Some(entries) => mask_entry(self.rp.scheme, entries[i & ((1 << self.shift) - 1)]),
            None => self.rp.get_masked(i),
        })
    }

    /// Entry `i` read with the bounds check of §VI-A-2 alone: an offset
    /// beyond NNZ is a bounds violation.  An unprotected row pointer skips
    /// this per-entry test; the row test of [`RpCursor::row_bounds`] still
    /// keeps every slice inside the arrays.
    #[inline]
    fn entry_bounded(&self, i: usize, log: &FaultLog) -> Result<u32, AbftError> {
        let value = self.rp.get_masked(i);
        if self.rp.scheme != EccScheme::None && value as usize > self.rp.nnz {
            return Err(out_of_range(log, i, value as usize, self.rp.nnz));
        }
        Ok(value)
    }

    /// The element range of `row`: full codeword checks when `rp_checked`
    /// (tallying two entry checks per row into `rp_checks`), bounds checks
    /// otherwise.  Either way the range must be ordered and inside NNZ.
    #[inline]
    pub(crate) fn row_bounds(
        &mut self,
        row: usize,
        rp_checked: bool,
        log: &FaultLog,
        rp_checks: &mut u64,
    ) -> Result<(usize, usize), AbftError> {
        *rp_checks += 2 * rp_checked as u64;
        let mut read = |i| {
            if rp_checked {
                self.entry_checked(i, log)
            } else {
                self.entry_bounded(i, log)
            }
        };
        let (start, end) = (read(row)? as usize, read(row + 1)? as usize);
        let nnz = self.rp.nnz;
        if start > end || end > nnz {
            return Err(out_of_range(log, row, end.max(start), nnz));
        }
        Ok((start, end))
    }
}

/// Logs an uncorrectable row-pointer codeword and builds its error.
#[cold]
fn uncorrectable(log: &FaultLog, index: usize) -> AbftError {
    log.record_uncorrectable(Region::RowPointer);
    AbftError::Uncorrectable {
        region: Region::RowPointer,
        index,
    }
}

/// Logs a row-pointer bounds violation and builds its error.
#[cold]
fn out_of_range(log: &FaultLog, index: usize, value: usize, limit: usize) -> AbftError {
    log.record_bounds_violation(Region::RowPointer);
    AbftError::OutOfRange {
        region: Region::RowPointer,
        index,
        value,
        limit,
    }
}

/// Masks the redundancy bits off one stored entry.
#[inline]
fn mask_entry(scheme: EccScheme, e: u32) -> u32 {
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

/// Encodes one group in place: its payloads are kept and its redundancy
/// written into the spare bits.
fn encode_group(scheme: EccScheme, crc: &Crc32c, entries: &mut [u32]) {
    let redundancy = match scheme {
        EccScheme::None => return,
        EccScheme::Sed => {
            let payload = entries[0] & ROW_PTR_MASK_31;
            entries[0] = payload | (parity_u32(payload) << 31);
            return;
        }
        EccScheme::Secded64 => SECDED_56.encode(&pack_group_payload(entries)[..1]) as u32,
        EccScheme::Secded128 => SECDED_112.encode(&pack_group_payload(entries)) as u32,
        EccScheme::Crc32c => crc_group_checksum(crc, entries),
    };
    write_nibbles(entries, redundancy);
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

/// What the group check found.
enum GroupOutcome {
    Clean,
    /// A single flip, and the group's corrected entries.
    Corrected([u32; 8]),
    Uncorrectable,
}

/// Verifies one stored group (entries with their redundancy bits),
/// correcting a single flip in a copy.
#[inline(always)]
fn check_group(scheme: EccScheme, crc: &Crc32c, stored: &[u32]) -> GroupOutcome {
    match scheme {
        EccScheme::None => GroupOutcome::Clean,
        EccScheme::Sed if parity_u32(stored[0]) != 0 => GroupOutcome::Uncorrectable,
        EccScheme::Sed => GroupOutcome::Clean,
        EccScheme::Secded64 | EccScheme::Secded128 => check_secded_group(scheme, stored),
        EccScheme::Crc32c => check_crc_group(crc, stored),
    }
}

/// The stored entries of a group, as a copy to correct.
fn copy_group(stored: &[u32]) -> [u32; 8] {
    let mut entries = [0u32; 8];
    entries[..stored.len()].copy_from_slice(stored);
    entries
}

/// [`check_group`] of a SECDED64 / SECDED128 group.
fn check_secded_group(scheme: EccScheme, stored: &[u32]) -> GroupOutcome {
    let (code, words) = if scheme == EccScheme::Secded64 {
        (&SECDED_56, 1)
    } else {
        (&SECDED_112, 2)
    };
    // Nibble bits beyond the code's redundancy are defined to be zero; a
    // flip there is detectable and trivially correctable.
    let all_nibbles = read_nibbles(stored);
    let used_mask = (1u32 << code.redundancy_bits()) - 1;
    let redundancy = (all_nibbles & used_mask) as u16;
    let mut payload = pack_group_payload(stored);
    let nibbles = match code.check_and_correct(&mut payload[..words], redundancy) {
        DecodeOutcome::NoError if all_nibbles & !used_mask == 0 => return GroupOutcome::Clean,
        DecodeOutcome::Uncorrectable => return GroupOutcome::Uncorrectable,
        DecodeOutcome::CorrectedRedundancy => code.encode(&payload[..words]) as u32,
        DecodeOutcome::NoError | DecodeOutcome::CorrectedData(_) => all_nibbles & used_mask,
    };
    let mut entries = copy_group(stored);
    unpack_group_payload(&payload, &mut entries[..stored.len()]);
    write_nibbles(&mut entries[..stored.len()], nibbles);
    GroupOutcome::Corrected(entries)
}

/// [`check_group`] of a CRC32C group.
fn check_crc_group(crc: &Crc32c, stored: &[u32]) -> GroupOutcome {
    let checksum = read_nibbles(stored);
    let computed = crc_group_checksum(crc, stored);
    if checksum == computed {
        return GroupOutcome::Clean;
    }
    let mut entries = copy_group(stored);
    if (checksum ^ computed).count_ones() == 1 {
        // The stored checksum itself took the hit.
        write_nibbles(&mut entries, computed);
        return GroupOutcome::Corrected(entries);
    }
    // Trial single-bit correction over the packed payload bytes.
    let mut bytes = [0u8; 32];
    for (j, &e) in stored.iter().enumerate() {
        bytes[j * 4..j * 4 + 4].copy_from_slice(&(e & ROW_PTR_MASK_28).to_le_bytes());
    }
    match abft_ecc::correction::correct_crc32c_single(crc, &mut bytes, checksum) {
        Some(bit) if bit % 32 < 28 => {
            entries[bit / 32] ^= 1u32 << (bit % 32);
            GroupOutcome::Corrected(entries)
        }
        _ => GroupOutcome::Uncorrectable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row_ptr(rows: usize, per_row: u32) -> Vec<u32> {
        (0..=rows as u32).map(|i| i * per_row).collect()
    }

    /// `row`'s bounds through a fresh cursor, as the kernels read them: the
    /// full check with `check` (on a protected vector), the bounds check
    /// alone otherwise.
    fn bounds_of(
        p: &ProtectedRowPointer,
        row: usize,
        check: bool,
        log: &FaultLog,
    ) -> Result<(usize, usize), AbftError> {
        let rp_checked = check && p.scheme() != EccScheme::None;
        RpCursor::new(p, true).row_bounds(row, rp_checked, log, &mut 0)
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
            assert_eq!(bounds_of(&p, 3, true, &log).unwrap(), (15, 20));
            assert_eq!(bounds_of(&p, 3, false, &log).unwrap(), (15, 20));
            assert_eq!(bounds_of(&p, 0, true, &log).unwrap(), (0, 5));
            assert_eq!(bounds_of(&p, 9, true, &log).unwrap(), (45, 50));
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
        assert!(bounds_of(&p, 4, true, &log).is_err() || bounds_of(&p, 3, true, &log).is_err());
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
            assert_eq!(
                bounds_of(&p, 5, true, &log).unwrap(),
                (25, 30),
                "{scheme:?}"
            );
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
        assert_eq!(bounds_of(&p, 9, true, &log).unwrap(), (63, 70));
        assert!(log.total_corrected() > 0);
        assert_eq!(p.scrub(&log).unwrap(), 1);
        assert_eq!(p.to_plain(), row_ptr);

        // Two flips in the same group are uncorrectable.
        p.inject_bit_flip(8, 2);
        p.inject_bit_flip(9, 11);
        let log = FaultLog::new();
        assert!(bounds_of(&p, 9, true, &log).is_err());
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
            let result = bounds_of(&p, 6, false, &log);
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
        let unchecked = bounds_of(&p, 6, false, &log).unwrap();
        assert_ne!(
            unchecked,
            (30, 35),
            "bounds check alone accepts the corrupt offset"
        );
        let checked = bounds_of(&p, 6, true, &log).unwrap();
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
