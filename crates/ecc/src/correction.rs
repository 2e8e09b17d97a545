//! Error *correction* on top of CRC32C.
//!
//! CRC is usually treated as a detection-only code, but as §IV of the paper
//! points out, for codewords between 178 and 5243 bits CRC32C has a minimum
//! Hamming distance of 6, so the redundancy can be traded between correction
//! and detection: 2EC3ED, 1EC4ED or pure 5ED.  This module implements
//! single-bit correction, the 1EC4ED point.  Because corrections happen only
//! when an error has already been detected (i.e. very rarely), a simple
//! trial-re-encoding search is fast enough — the cost is paid once per
//! detected fault, not per memory access.

use crate::crc32c::Crc32c;

/// Attempts single-bit correction of `data` whose freshly computed CRC32C
/// differs from `expected`.
///
/// Returns the index of the repaired bit, or `None` if no single flip
/// explains the mismatch (meaning ≥ 2 bits are corrupt, or the stored
/// checksum itself is corrupt).
///
/// The search flips each bit in turn and re-checks; for the ≤ 5243-bit
/// codewords used by the ABFT schemes this is at most a few hundred thousand
/// table lookups — negligible because correction is exceptional.
pub fn correct_crc32c_single(crc: &Crc32c, data: &mut [u8], expected: u32) -> Option<usize> {
    if crc.checksum(data) == expected {
        return None;
    }
    for bit in 0..data.len() * 8 {
        data[bit / 8] ^= 1 << (bit % 8);
        if crc.checksum(data) == expected {
            return Some(bit);
        }
        data[bit / 8] ^= 1 << (bit % 8);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32c::Crc32cBackend;

    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(67).wrapping_add(13))
            .collect()
    }

    #[test]
    fn no_correction_needed_returns_none() {
        let crc = Crc32c::auto();
        let mut data = sample(64);
        let expected = crc.checksum(&data);
        assert_eq!(correct_crc32c_single(&crc, &mut data, expected), None);
        assert_eq!(data, sample(64));
    }

    #[test]
    fn single_flip_is_located_and_repaired_everywhere() {
        let crc = Crc32c::new(Crc32cBackend::SlicingBy16);
        let clean = sample(96); // 768-bit codeword, inside the HD=6 window
        let expected = crc.checksum(&clean);
        for bit in (0..clean.len() * 8).step_by(3) {
            let mut corrupted = clean.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            let fixed = correct_crc32c_single(&crc, &mut corrupted, expected);
            assert_eq!(fixed, Some(bit));
            assert_eq!(corrupted, clean);
        }
    }

    #[test]
    fn triple_flip_is_not_miscorrected_by_single_search_on_hd6_codewords() {
        // Within the HD=6 window a weight-3 error is at distance >= 3 from
        // every valid codeword reachable by a single flip, so the single-flip
        // search must fail rather than "repair" to a wrong codeword.
        let crc = Crc32c::auto();
        let clean = sample(32); // 256 bits: inside 178..=5243
        let expected = crc.checksum(&clean);
        let mut corrupted = clean.clone();
        for bit in [5usize, 60, 201] {
            corrupted[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(correct_crc32c_single(&crc, &mut corrupted, expected), None);
    }
}
