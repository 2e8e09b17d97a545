//! SECDED — Single Error Correction, Double Error Detection extended Hamming
//! codes (§IV of the paper).
//!
//! The implementation is a classic extended Hamming code: `r` check bits sit
//! (conceptually) at the power-of-two positions of the codeword and an
//! overall parity bit covers the whole codeword.  A single bit flip is
//! located by the syndrome and repaired; two flips are detected but not
//! correctable; three or more flips may alias (which is exactly the SDC risk
//! the paper discusses).
//!
//! The code is generic over the data width (up to 128 bits), because the
//! ABFT layouts need several odd widths besides the textbook 64/128:
//!
//! | constant | data bits | redundancy bits | used for |
//! |---|---|---|---|
//! | [`SECDED_64`]  | 64  | 8 | one `f64` of a dense vector (8 mantissa LSBs reused) |
//! | [`SECDED_128`] | 128 | 9 | two `f64`s of a dense vector (5 mantissa LSBs each) |
//! | [`SECDED_88`]  | 88  | 8 | a CSR element: 64-bit value + 24-bit column index |
//! | [`SECDED_56`]  | 56  | 7 | two row-pointer entries (28 payload bits each), and the 56 high bits of a SECDED64 dense-vector word: packed, the pair is that word |
//! | [`SECDED_112`] | 112 | 8 | four row-pointer entries (28 payload bits each) |
//! | [`SECDED_118`] | 118 | 8 | two `f64`s with 5 LSBs masked (59 payload bits each) |
//! | [`SECDED_176`] | 176 | 9 | a pair of CSR elements (value + 24-bit index, twice) |
//!
//! The check bits and the overall parity are computed together through a
//! compile-time byte-wise **syndrome table**: entry `table[p][b]` is the XOR
//! of the codeword-position columns of every set bit of byte value `b` at
//! byte position `p`, with the overall-parity contribution folded into one
//! extra table bit.  A full check of an 88-bit codeword is then 11 table
//! lookups and XORs — no per-bit popcounts — which keeps the cost low even
//! on targets whose baseline ISA lacks a popcount instruction (the SpMV
//! inner loop runs one of these per matrix element).

use crate::bitops;

/// Maximum number of 64-bit words a SECDED payload may span.
pub const MAX_WORDS: usize = 3;
/// Maximum number of Hamming check bits (excluding the overall parity bit).
pub const MAX_CHECKS: usize = 8;

/// Result of a SECDED integrity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// The codeword is consistent.
    NoError,
    /// A single flipped data bit was located (payload bit index); when using
    /// [`Secded::check_and_correct`] it has already been repaired.
    CorrectedData(usize),
    /// A single flip was located in the redundancy bits themselves; the data
    /// is intact but the stored redundancy should be re-encoded.
    CorrectedRedundancy,
    /// Two (or an even number > 0 of) bit flips were detected; the codeword
    /// cannot be repaired.
    Uncorrectable,
}

impl DecodeOutcome {
    /// True when the data can be used (clean or repaired).
    #[inline]
    pub fn data_ok(self) -> bool {
        !matches!(self, DecodeOutcome::Uncorrectable)
    }

    /// True when any error was observed.
    #[inline]
    pub fn is_error(self) -> bool {
        !matches!(self, DecodeOutcome::NoError)
    }
}

/// An extended Hamming SECDED code for a fixed data width.
#[derive(Debug, Clone)]
pub struct Secded {
    data_bits: usize,
    words: usize,
    check_bits: u32,
    /// Byte-wise syndrome table: `table[p][b]` is the XOR of the column
    /// patterns (Hamming codeword position plus the overall-parity bit at
    /// position `check_bits`) of every set bit of byte value `b` at payload
    /// byte position `p`.
    table: [[u16; 256]; MAX_WORDS * 8],
}

/// Codeword position (1-indexed, power-of-two positions reserved for check
/// bits) of data bit `j`.
pub(crate) const fn data_bit_position(j: usize) -> usize {
    // Walk codeword positions, skipping powers of two, until we have passed
    // `j` data positions.
    let mut pos = 1usize;
    let mut seen = 0usize;
    loop {
        if !pos.is_power_of_two() {
            if seen == j {
                return pos;
            }
            seen += 1;
        }
        pos += 1;
    }
}

/// Inverse of [`data_bit_position`]: the payload bit index stored at codeword
/// position `pos`, assuming `pos` is not a power of two.
#[inline]
fn position_to_data_bit(pos: usize) -> usize {
    // Positions 1..=pos contain `ilog2(pos)+1` power-of-two slots.
    pos - 2 - pos.ilog2() as usize
}

/// Smallest `r` such that `2^r >= data_bits + r + 1`.
const fn required_check_bits(data_bits: usize) -> u32 {
    let mut r = 1u32;
    while (1usize << r) < data_bits + r as usize + 1 {
        r += 1;
    }
    r
}

impl Secded {
    /// Builds the code for `data_bits` bits of payload (`1..=192`).
    pub const fn new(data_bits: usize) -> Self {
        assert!(data_bits >= 1 && data_bits <= MAX_WORDS * 64);
        let check_bits = required_check_bits(data_bits);
        assert!(check_bits as usize <= MAX_CHECKS);
        let mut table = [[0u16; 256]; MAX_WORDS * 8];
        let mut j = 0usize;
        while j < data_bits {
            // The Hamming construction guarantees pos < 2^check_bits, so the
            // column pattern (position bits + overall-parity bit just above
            // them) fits a u16 for every code this crate defines.
            let pos = data_bit_position(j);
            let column = (pos as u16) | (1u16 << check_bits);
            let byte = j / 8;
            let bit = j % 8;
            let mut b = 0usize;
            while b < 256 {
                if b & (1usize << bit) != 0 {
                    table[byte][b] ^= column;
                }
                b += 1;
            }
            j += 1;
        }
        Secded {
            data_bits,
            words: data_bits.div_ceil(64),
            check_bits,
            table,
        }
    }

    /// Number of payload bits protected by this code.
    #[inline]
    pub const fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// Number of 64-bit words the payload spans.
    #[inline]
    pub const fn words(&self) -> usize {
        self.words
    }

    /// Total redundancy bits: Hamming check bits plus the overall parity bit.
    #[inline]
    pub const fn redundancy_bits(&self) -> u32 {
        self.check_bits + 1
    }

    /// One pass over the payload bytes computing the Hamming check bits (low
    /// `check_bits` bits) together with the payload parity (the next bit up):
    /// `words × 8` table lookups, no popcounts.
    #[inline]
    fn syndrome_word(&self, data: &[u64]) -> u16 {
        debug_assert!(data.len() >= self.words);
        debug_assert!(self.unused_bits_clear(data), "payload has stray high bits");
        let mut s = 0u16;
        for (w, &word) in data[..self.words].iter().enumerate() {
            let base = w * 8;
            for i in 0..8 {
                s ^= self.table[base + i][((word >> (i * 8)) & 0xFF) as usize];
            }
        }
        s
    }

    #[inline]
    fn unused_bits_clear(&self, data: &[u64]) -> bool {
        let rem = self.data_bits % 64;
        if rem == 0 {
            true
        } else {
            data[self.words - 1] & !bitops::low_mask(rem as u32) == 0
        }
    }

    /// Encodes `data`, returning the redundancy bits: Hamming check bits in
    /// the low positions and the overall (codeword) parity bit just above
    /// them.
    #[inline]
    pub fn encode(&self, data: &[u64]) -> u16 {
        let s = self.syndrome_word(data);
        let checks = s & ((1u16 << self.check_bits) - 1);
        let data_parity = (s >> self.check_bits) & 1;
        let overall = data_parity ^ (checks.count_ones() as u16 & 1);
        checks | (overall << self.check_bits)
    }

    /// Verifies `data` against the stored redundancy without modifying the
    /// payload.  A located single data-bit error is reported but not fixed.
    #[inline]
    pub fn check(&self, data: &[u64], stored: u16) -> DecodeOutcome {
        self.classify(data, stored).0
    }

    /// Check-only fast path: `true` exactly when [`Secded::check`] would
    /// return [`DecodeOutcome::NoError`], computed with the single syndrome
    /// pass and none of the correction machinery.  This is the bulk entry
    /// point of the masked-slice vector kernels, which verify every codeword
    /// group up front and fall back to the correcting decode only for the
    /// (rare) groups where this predicate fails.
    #[inline]
    pub fn verify(&self, data: &[u64], stored: u16) -> bool {
        let s = self.syndrome_word(data);
        let stored_checks = stored & ((1u16 << self.check_bits) - 1);
        let computed_checks = s & ((1u16 << self.check_bits) - 1);
        if stored_checks != computed_checks {
            return false;
        }
        let data_parity = ((s >> self.check_bits) & 1) as u32;
        let stored_parity = ((stored >> self.check_bits) & 1) as u32;
        data_parity ^ (stored_checks.count_ones() & 1) ^ stored_parity == 0
    }

    /// Verifies `data` against the stored redundancy and repairs a single
    /// data-bit flip in place.
    #[inline]
    pub fn check_and_correct(&self, data: &mut [u64], stored: u16) -> DecodeOutcome {
        let (outcome, fix) = self.classify(data, stored);
        if let Some(bit) = fix {
            bitops::flip_bit(data, bit);
        }
        outcome
    }

    /// Shared classification logic.  Returns the outcome and, for a single
    /// data-bit error, the payload bit index to flip.
    #[inline]
    fn classify(&self, data: &[u64], stored: u16) -> (DecodeOutcome, Option<usize>) {
        let stored_checks = stored & ((1u16 << self.check_bits) - 1);
        let stored_parity = (stored >> self.check_bits) & 1;
        let s = self.syndrome_word(data);
        let computed_checks = s & ((1u16 << self.check_bits) - 1);
        let data_parity = ((s >> self.check_bits) & 1) as u32;
        let syndrome = (stored_checks ^ computed_checks) as usize;

        // Parity of the received codeword = data parity ^ stored check bits ^ stored parity bit.
        let received_parity =
            data_parity ^ (stored_checks.count_ones() & 1) ^ (stored_parity as u32);

        match (syndrome, received_parity) {
            (0, 0) => (DecodeOutcome::NoError, None),
            (0, _) => {
                // Only the overall parity bit flipped; payload and checks intact.
                (DecodeOutcome::CorrectedRedundancy, None)
            }
            (s, 1) => {
                if s.is_power_of_two() {
                    // A check bit flipped.
                    (DecodeOutcome::CorrectedRedundancy, None)
                } else {
                    let bit = position_to_data_bit(s);
                    if bit < self.data_bits {
                        (DecodeOutcome::CorrectedData(bit), Some(bit))
                    } else {
                        // Syndrome points outside the codeword: at least three
                        // flips; report as uncorrectable rather than corrupt
                        // the payload further.
                        (DecodeOutcome::Uncorrectable, None)
                    }
                }
            }
            (_, _) => (DecodeOutcome::Uncorrectable, None),
        }
    }
}

/// (72,64) SECDED protecting one 64-bit word with 8 redundancy bits.
pub static SECDED_64: Secded = Secded::new(64);
/// (137,128) SECDED protecting two 64-bit words with 9 redundancy bits.
pub static SECDED_128: Secded = Secded::new(128);
/// SECDED over the 88 payload bits of a CSR element (64-bit value + 24-bit
/// column index); its 8 redundancy bits fit the spare index bits.
pub static SECDED_88: Secded = Secded::new(88);
/// SECDED over two row-pointer entries (2 × 28 payload bits).
pub static SECDED_56: Secded = Secded::new(56);
/// SECDED over four row-pointer entries (4 × 28 payload bits).
pub static SECDED_112: Secded = Secded::new(112);
/// SECDED over two dense-vector doubles with their 5 least-significant
/// mantissa bits masked (2 × 59 payload bits).
pub static SECDED_118: Secded = Secded::new(118);
/// SECDED over a pair of CSR elements (2 × (64-bit value + 24-bit column
/// index)) — the SECDED128-style grouping for matrix elements.
pub static SECDED_176: Secded = Secded::new(176);

#[cfg(test)]
mod tests {
    use super::*;

    fn all_codes() -> Vec<&'static Secded> {
        vec![
            &SECDED_64,
            &SECDED_128,
            &SECDED_88,
            &SECDED_56,
            &SECDED_112,
            &SECDED_118,
            &SECDED_176,
        ]
    }

    fn sample_payload(code: &Secded, seed: u64) -> Vec<u64> {
        // Simple deterministic pattern generator (xorshift), masked to width.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut data = vec![0u64; code.words()];
        for w in data.iter_mut() {
            *w = next();
        }
        let rem = code.data_bits() % 64;
        if rem != 0 {
            let last = data.len() - 1;
            data[last] &= crate::bitops::low_mask(rem as u32);
        }
        data
    }

    #[test]
    fn redundancy_bit_counts_match_paper() {
        assert_eq!(SECDED_64.redundancy_bits(), 8);
        assert_eq!(SECDED_128.redundancy_bits(), 9);
        assert_eq!(SECDED_88.redundancy_bits(), 8);
        assert_eq!(SECDED_56.redundancy_bits(), 7);
        assert_eq!(SECDED_112.redundancy_bits(), 8);
        assert_eq!(SECDED_118.redundancy_bits(), 8);
        assert_eq!(SECDED_176.redundancy_bits(), 9);
    }

    #[test]
    fn clean_codeword_checks_clean() {
        for code in all_codes() {
            for seed in 1..20u64 {
                let data = sample_payload(code, seed);
                let red = code.encode(&data);
                assert_eq!(code.check(&data, red), DecodeOutcome::NoError);
                assert!(code.verify(&data, red));
            }
        }
    }

    #[test]
    fn verify_agrees_with_check_on_every_single_flip() {
        for code in all_codes() {
            let data = sample_payload(code, 13);
            let red = code.encode(&data);
            for bit in 0..code.data_bits() {
                let mut corrupted = data.clone();
                crate::bitops::flip_bit(&mut corrupted, bit);
                assert!(!code.verify(&corrupted, red), "data bit {bit}");
            }
            for bit in 0..code.redundancy_bits() {
                assert!(!code.verify(&data, red ^ (1u16 << bit)), "red bit {bit}");
            }
        }
    }

    #[test]
    fn every_single_data_flip_is_corrected() {
        for code in all_codes() {
            let data = sample_payload(code, 7);
            let red = code.encode(&data);
            for bit in 0..code.data_bits() {
                let mut corrupted = data.clone();
                crate::bitops::flip_bit(&mut corrupted, bit);
                let outcome = code.check_and_correct(&mut corrupted, red);
                assert_eq!(
                    outcome,
                    DecodeOutcome::CorrectedData(bit),
                    "width {} bit {bit}",
                    code.data_bits()
                );
                assert_eq!(corrupted, data, "payload not restored");
            }
        }
    }

    #[test]
    fn every_single_redundancy_flip_is_flagged_without_touching_data() {
        for code in all_codes() {
            let data = sample_payload(code, 11);
            let red = code.encode(&data);
            for bit in 0..code.redundancy_bits() {
                let corrupted_red = red ^ (1u16 << bit);
                let mut payload = data.clone();
                let outcome = code.check_and_correct(&mut payload, corrupted_red);
                assert_eq!(outcome, DecodeOutcome::CorrectedRedundancy);
                assert_eq!(payload, data);
            }
        }
    }

    #[test]
    fn every_double_data_flip_is_detected_not_miscorrected() {
        // Exhaustive over the 56-bit code, sampled pairs for the wider ones.
        let code = &SECDED_56;
        let data = sample_payload(code, 3);
        let red = code.encode(&data);
        for a in 0..code.data_bits() {
            for b in (a + 1)..code.data_bits() {
                let mut corrupted = data.clone();
                crate::bitops::flip_bit(&mut corrupted, a);
                crate::bitops::flip_bit(&mut corrupted, b);
                assert_eq!(
                    code.check(&corrupted, red),
                    DecodeOutcome::Uncorrectable,
                    "double flip ({a},{b}) not detected"
                );
            }
        }
    }

    #[test]
    fn double_flip_data_plus_redundancy_is_detected() {
        let code = &SECDED_64;
        let data = sample_payload(code, 5);
        let red = code.encode(&data);
        for dbit in (0..code.data_bits()).step_by(7) {
            for rbit in 0..code.redundancy_bits() {
                let mut corrupted = data.clone();
                crate::bitops::flip_bit(&mut corrupted, dbit);
                let bad_red = red ^ (1u16 << rbit);
                assert_eq!(
                    code.check(&corrupted, bad_red),
                    DecodeOutcome::Uncorrectable
                );
            }
        }
    }

    #[test]
    fn position_mapping_is_consistent() {
        for j in 0..256usize {
            let pos = data_bit_position(j);
            assert!(!pos.is_power_of_two());
            assert_eq!(position_to_data_bit(pos), j);
        }
    }

    #[test]
    fn check_bit_requirements() {
        assert_eq!(required_check_bits(64), 7);
        assert_eq!(required_check_bits(128), 8);
        assert_eq!(required_check_bits(88), 7);
        assert_eq!(required_check_bits(56), 6);
        assert_eq!(required_check_bits(112), 7);
        assert_eq!(required_check_bits(118), 7);
        assert_eq!(required_check_bits(1), 2);
        assert_eq!(required_check_bits(4), 3);
        assert_eq!(required_check_bits(11), 4);
    }

    #[test]
    fn outcome_helpers() {
        assert!(DecodeOutcome::NoError.data_ok());
        assert!(!DecodeOutcome::NoError.is_error());
        assert!(DecodeOutcome::CorrectedData(3).data_ok());
        assert!(DecodeOutcome::CorrectedData(3).is_error());
        assert!(DecodeOutcome::CorrectedRedundancy.data_ok());
        assert!(!DecodeOutcome::Uncorrectable.data_ok());
        assert!(DecodeOutcome::Uncorrectable.is_error());
    }
}
