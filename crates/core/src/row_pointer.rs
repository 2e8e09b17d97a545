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
//! `scrub` is that walk plus the write-backs it reports.  Both first screen
//! a run of groups at once and call the group check only on a run that
//! fails the screen.  A SECDED64 group, packed as payloads above nibbles,
//! is bit for bit a SECDED64 dense-vector codeword, so its screen is the
//! batched [`abft_ecc::verify::secded64_words_clean`]; CRC32C groups have
//! their own batched [`abft_ecc::verify::crc32c_entry_groups_clean`].  The
//! screen decides only *when* the group check runs, never what it finds.

use crate::error::AbftError;
use crate::report::{FaultLog, Region};
use crate::schemes::EccScheme;
use abft_ecc::secded::DecodeOutcome;
use abft_ecc::sed::parity_u32;
use abft_ecc::verify::{crc32c_entry_groups_clean, secded64_words_clean};
use abft_ecc::{Crc32c, Crc32cBackend, SECDED_112, SECDED_56};

/// Mask selecting the 28 payload bits of an entry under SECDED / CRC32C.
pub const ROW_PTR_MASK_28: u32 = 0x0FFF_FFFF;
/// Mask selecting the 31 payload bits of an entry under SED.
pub const ROW_PTR_MASK_31: u32 = 0x7FFF_FFFF;

/// Codeword groups one screen packs per predicate call: a 64-row block
/// reads at most 33 SECDED64 groups, so one call covers it, and the walk
/// screens the vector in runs of this many.
const SCREEN_GROUPS: usize = 64;

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
    /// Encodes a plain row-pointer vector where it lies: the vector is
    /// padded to whole codeword groups and its entries gain their
    /// redundancy bits in place.
    ///
    /// Fails, before writing anything, when NNZ exceeds what the scheme can
    /// represent in the remaining payload bits.
    pub fn encode(
        mut data: Vec<u32>,
        scheme: EccScheme,
        backend: Crc32cBackend,
    ) -> Result<Self, AbftError> {
        let nnz = data.last().copied().unwrap_or(0) as usize;
        check_nnz(scheme, nnz)?;
        let crc = Crc32c::new(backend);
        let group = scheme.row_pointer_group();
        let len = data.len();
        data.resize(len.div_ceil(group) * group, 0);
        for entries in data.chunks_exact_mut(group) {
            encode_group(scheme, &crc, entries);
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

    /// Whether every codeword group of `stored`, whole groups of this
    /// vector's storage, is one [`check_group`] finds `Clean`: the batched
    /// predicates for SECDED64 and CRC32C groups, the group check itself
    /// for the rest.  Nothing is corrected or recorded.
    fn groups_clean(&self, stored: &[u32]) -> bool {
        match self.scheme {
            EccScheme::Secded64 => secded64_groups_clean(stored),
            EccScheme::Crc32c => crc32c_entry_groups_clean(&self.crc, stored),
            scheme => stored
                .chunks_exact(scheme.row_pointer_group())
                .all(|g| matches!(check_group(scheme, &self.crc, g), GroupOutcome::Clean)),
        }
    }

    /// The one whole-vector walk under [`ProtectedRowPointer::check_all`]
    /// and [`ProtectedRowPointer::scrub`]: every codeword verified once, in
    /// order, a correction logged and handed to `repair` as `(first entry,
    /// repaired entries)`, the first uncorrectable codeword logged and
    /// returned.  Runs of codewords are screened first and only a failing
    /// run is re-walked group by group.  `tally` gains one check per
    /// codeword walked; an unprotected vector has no codewords and is not
    /// walked.
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
        for (r, run) in self.data.chunks(group * SCREEN_GROUPS).enumerate() {
            if self.groups_clean(run) {
                *tally += (run.len() / group) as u64;
                continue;
            }
            for (g, stored) in run.chunks_exact(group).enumerate() {
                let base = (r * SCREEN_GROUPS + g) * group;
                *tally += 1;
                match check_group(self.scheme, &self.crc, stored) {
                    GroupOutcome::Clean => {}
                    GroupOutcome::Corrected(entries) => {
                        log.record_corrected(Region::RowPointer);
                        repair(base, entries);
                    }
                    GroupOutcome::Uncorrectable => return Err(uncorrectable(log, base)),
                }
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

    /// Decodes the whole vector back to plain offsets (no checking), in
    /// place: the redundancy bits are masked off and the group padding
    /// dropped.
    pub fn into_plain(mut self) -> Vec<u32> {
        self.data.truncate(self.len);
        for entry in &mut self.data {
            *entry = mask_entry(self.scheme, *entry);
        }
        self.data
    }
}

/// Fails when `nnz` offsets do not fit the payload bits `scheme` leaves.
pub(crate) fn check_nnz(scheme: EccScheme, nnz: usize) -> Result<(), AbftError> {
    if scheme != EccScheme::None && nnz > scheme.max_nnz() {
        return Err(AbftError::TooManyNonZeros {
            nnz,
            max: scheme.max_nnz(),
        });
    }
    Ok(())
}

/// Sequential reader of row bounds caching the last decoded codeword group:
/// the one reader of a [`ProtectedRowPointer`] outside its own walk, under
/// the range kernels and the whole-matrix element walk.
///
/// Consecutive rows share row-pointer entries (row `i` ends where row `i+1`
/// starts) and whole codeword groups; decoding a group once per
/// `group − 1` rows instead of twice per row removes most of the
/// row-pointer ECC work from the SpMV, and the block read
/// [`RpCursor::bounds_if_clean`] screens all of a block's groups in one
/// batched call.  A checked read corrects transiently (storage untouched)
/// and logs a correction once per group per cursor — unless the caller has
/// walked the vector already and logged it there.  The group check stays
/// the one decoder: a screen only decides when it runs.
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
    /// codeword covering them verifying strictly clean.  Screens the groups
    /// in one call (a batched predicate for SECDED64 and CRC32C, the group
    /// check otherwise) and leaves the cache alone; on `false` the logging
    /// [`RpCursor::row_bounds`] redoes the reads through the group check (a
    /// group the cursor has corrected fails here and is then read from its
    /// cache).
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
        if rp_checked && !rp.groups_clean(groups) {
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

/// A SECDED64 group `[e0, e1]` as the SECDED64 dense-vector codeword it is
/// bit for bit: the 56 packed payload bits above the two redundancy nibbles,
/// so the 7 [`SECDED_56`] redundancy bits fill bits 0–6 and the
/// must-be-zero eighth nibble bit is the vector layout's zero bit 7.
#[inline(always)]
fn secded64_word(pair: &[u32]) -> u64 {
    let (e0, e1) = (pair[0] as u64, pair[1] as u64);
    let mask = ROW_PTR_MASK_28 as u64;
    ((e0 & mask) | (e1 & mask) << 28) << 8 | e0 >> 28 | (e1 >> 28) << 4
}

/// SECDED64 groups screened by the dense-vector predicate, packed by
/// [`secded64_word`] into a stack buffer.
fn secded64_groups_clean(stored: &[u32]) -> bool {
    let mut words = [0u64; SCREEN_GROUPS];
    stored.chunks(2 * SCREEN_GROUPS).all(|run| {
        let words = &mut words[..run.len() / 2];
        for (word, pair) in words.iter_mut().zip(run.chunks_exact(2)) {
            *word = secded64_word(pair);
        }
        secded64_words_clean(words)
    })
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
                ProtectedRowPointer::encode(row_ptr.clone(), scheme, Crc32cBackend::SlicingBy16)
                    .unwrap();
            assert_eq!(p.clone().into_plain(), row_ptr, "{scheme:?}");
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
                ProtectedRowPointer::encode(row_ptr.clone(), scheme, Crc32cBackend::SlicingBy16)
                    .unwrap();
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
        let mut p = ProtectedRowPointer::encode(
            row_ptr.clone(),
            EccScheme::Sed,
            Crc32cBackend::SlicingBy16,
        )
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
                ProtectedRowPointer::encode(row_ptr.clone(), scheme, Crc32cBackend::SlicingBy16)
                    .unwrap();
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
                ProtectedRowPointer::encode(row_ptr.clone(), scheme, Crc32cBackend::SlicingBy16)
                    .unwrap()
                    .raw()[5]
            );
            let repaired = p.scrub(&log).unwrap();
            assert_eq!(repaired, 1);
            assert_eq!(p.clone().into_plain(), row_ptr);
            // A second scrub finds nothing.
            assert_eq!(p.scrub(&log).unwrap(), 0);
        }
    }

    #[test]
    fn crc_corrects_single_flip_and_detects_double() {
        let row_ptr = sample_row_ptr(20, 7);
        let mut p = ProtectedRowPointer::encode(
            row_ptr.clone(),
            EccScheme::Crc32c,
            Crc32cBackend::SlicingBy16,
        )
        .unwrap();
        p.inject_bit_flip(9, 3);
        let log = FaultLog::new();
        assert_eq!(bounds_of(&p, 9, true, &log).unwrap(), (63, 70));
        assert!(log.total_corrected() > 0);
        assert_eq!(p.scrub(&log).unwrap(), 1);
        assert_eq!(p.clone().into_plain(), row_ptr);

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
                ProtectedRowPointer::encode(row_ptr.clone(), scheme, Crc32cBackend::SlicingBy16)
                    .unwrap();
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
        let mut p = ProtectedRowPointer::encode(
            row_ptr.clone(),
            EccScheme::Secded64,
            Crc32cBackend::SlicingBy16,
        )
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

    /// A vector of `groups` whole codeword groups that all differ: row
    /// lengths vary, so the payloads and redundancy nibbles do too.
    fn varied_sample(
        scheme: EccScheme,
        backend: Crc32cBackend,
        groups: usize,
    ) -> ProtectedRowPointer {
        let mut row_ptr = vec![0u32];
        for i in 0..(groups * scheme.row_pointer_group()) as u32 - 1 {
            row_ptr.push(row_ptr[i as usize] + 1 + (i * 7919) % 4099);
        }
        ProtectedRowPointer::encode(row_ptr.clone(), scheme, backend).unwrap()
    }

    /// What the screen must say: every group one the group check finds
    /// `Clean`.
    fn all_groups_clean(p: &ProtectedRowPointer, stored: &[u32]) -> bool {
        stored
            .chunks_exact(p.scheme.row_pointer_group())
            .all(|g| matches!(check_group(p.scheme, &p.crc, g), GroupOutcome::Clean))
    }

    /// Pins [`ProtectedRowPointer::groups_clean`] to the group check over
    /// runs of `counts` groups starting at an even and an odd group: every
    /// single flip of all stored bits of one group at every slot, and the
    /// same flip in two groups of one run.
    fn screen_matches_the_group_check(scheme: EccScheme, backend: Crc32cBackend, counts: &[usize]) {
        let group = scheme.row_pointer_group();
        let bits = 32 * group;
        let p = varied_sample(scheme, backend, counts.iter().max().unwrap() + 2);
        for &count in counts {
            for first in [0, 1] {
                let stored = &p.raw()[group * first..group * (first + count)];
                assert!(all_groups_clean(&p, stored));
                assert!(p.groups_clean(stored), "{count} groups from {first}");
                let mut copy = stored.to_vec();
                for slot in 0..count {
                    for bit in 0..bits {
                        let (entry, mask) = (group * slot + bit / 32, 1u32 << (bit % 32));
                        copy[entry] ^= mask;
                        let expect = all_groups_clean(&p, &copy[group * slot..group * (slot + 1)]);
                        assert!(!expect, "a single flip is never clean");
                        assert_eq!(
                            p.groups_clean(&copy),
                            expect,
                            "{count}/{first}/{slot}/{bit}"
                        );
                        copy[entry] ^= mask;
                    }
                }
                // Equal flips cannot cancel across codewords.
                for (a, b) in [(0, count - 1), (count / 2, count / 2 + 1)] {
                    if b >= count || a == b {
                        continue;
                    }
                    for bit in 0..bits {
                        let mask = 1u32 << (bit % 32);
                        copy[group * a + bit / 32] ^= mask;
                        copy[group * b + bit / 32] ^= mask;
                        assert!(!p.groups_clean(&copy), "{count}/{first}: {a}, {b}, {bit}");
                        assert!(!all_groups_clean(&p, &copy));
                        copy[group * a + bit / 32] ^= mask;
                        copy[group * b + bit / 32] ^= mask;
                    }
                }
                assert_eq!(copy, stored);
            }
        }
    }

    #[test]
    fn secded64_screen_matches_the_group_check() {
        // 64 stored bits per group: 56 payload, 7 redundancy and the spare
        // nibble bit.  The runs cross the 16-codeword batch edge; one starting
        // at an odd group is a block read starting at an odd row.
        let counts = [1, 15, 16, 17, 33, 34];
        screen_matches_the_group_check(EccScheme::Secded64, Crc32cBackend::Auto, &counts);
    }

    #[test]
    fn crc32c_screen_matches_the_group_check() {
        // Around the four groups hashed at a time on the CRC instruction,
        // and on a software backend, which checksums group by group.
        for backend in [Crc32cBackend::Auto, Crc32cBackend::SlicingBy16] {
            screen_matches_the_group_check(EccScheme::Crc32c, backend, &[1, 4, 5, 9]);
        }
    }

    #[test]
    fn secded64_groups_pack_to_vector_codewords() {
        let p = varied_sample(EccScheme::Secded64, Crc32cBackend::Auto, 40);
        for pair in p.raw().chunks_exact(2) {
            let payload = pair[0] as u64 & 0x0FFF_FFFF | (pair[1] as u64 & 0x0FFF_FFFF) << 28;
            let mut encoded = [0u64];
            abft_ecc::verify::secded64_encode_words(&[f64::from_bits(payload << 8)], &mut encoded);
            assert_eq!(secded64_word(pair), encoded[0], "{pair:?}");
        }
    }

    #[test]
    fn nnz_limits_are_enforced() {
        // SED allows up to 2^31-1 but SECDED64 only 2^28-1.
        let row_ptr = vec![0u32, (1 << 28) + 5];
        assert!(ProtectedRowPointer::encode(
            row_ptr.clone(),
            EccScheme::Sed,
            Crc32cBackend::SlicingBy16
        )
        .is_ok());
        assert!(matches!(
            ProtectedRowPointer::encode(
                row_ptr.clone(),
                EccScheme::Secded64,
                Crc32cBackend::SlicingBy16
            ),
            Err(AbftError::TooManyNonZeros { .. })
        ));
    }

    #[test]
    fn empty_and_single_entry_vectors() {
        let log = FaultLog::new();
        for scheme in EccScheme::ALL {
            let p =
                ProtectedRowPointer::encode(vec![], scheme, Crc32cBackend::SlicingBy16).unwrap();
            assert!(p.is_empty());
            p.check_all(&log).unwrap();
            let p =
                ProtectedRowPointer::encode(vec![0], scheme, Crc32cBackend::SlicingBy16).unwrap();
            assert_eq!(p.clone().into_plain(), vec![0]);
            p.check_all(&log).unwrap();
        }
    }
}
