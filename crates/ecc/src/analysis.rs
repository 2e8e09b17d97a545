//! Code-capability analysis helpers.
//!
//! These functions back the claims quoted from the paper's §IV — e.g. that
//! CRC32C detects every error of weight ≤ 5 inside the 178–5243-bit window,
//! or that the SECDED syndromes of all single-bit errors are distinct — by
//! *measuring* the behaviour of the implementations rather than assuming it.
//! They are used by the test-suites.

use crate::bitops;
use crate::crc32c::Crc32c;
use crate::secded::{DecodeOutcome, Secded};

/// Result of sweeping error patterns of a fixed weight against a code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionSweep {
    /// Number of error patterns applied.
    pub patterns: u64,
    /// Patterns whose corruption was detected (outcome differed from clean).
    pub detected: u64,
    /// Patterns that were "repaired" onto the wrong data (miscorrections).
    pub miscorrected: u64,
    /// Patterns that went completely unnoticed (silent data corruption).
    pub undetected: u64,
}

impl DetectionSweep {
    /// Fraction of patterns detected.
    pub fn detection_rate(&self) -> f64 {
        if self.patterns == 0 {
            1.0
        } else {
            self.detected as f64 / self.patterns as f64
        }
    }
}

/// Applies every single- and double-bit error to a SECDED codeword and checks
/// the classification contract: weight-1 → corrected to the original data,
/// weight-2 → flagged uncorrectable.
///
/// Returns `(weight1, weight2)` sweeps.  `weight1.miscorrected` and
/// `weight2.miscorrected + weight2.undetected` are zero for a correct
/// implementation.
pub fn sweep_secded(code: &Secded, payload: &[u64]) -> (DetectionSweep, DetectionSweep) {
    let red = code.encode(payload);
    let mut w1 = DetectionSweep::default();
    let mut w2 = DetectionSweep::default();

    for a in 0..code.data_bits() {
        let mut data = payload.to_vec();
        bitops::flip_bit(&mut data, a);
        w1.patterns += 1;
        match code.check_and_correct(&mut data, red) {
            DecodeOutcome::CorrectedData(_) if data == payload => w1.detected += 1,
            DecodeOutcome::NoError => w1.undetected += 1,
            _ => w1.miscorrected += 1,
        }
    }

    for a in 0..code.data_bits() {
        for b in (a + 1)..code.data_bits() {
            let mut data = payload.to_vec();
            bitops::flip_bit(&mut data, a);
            bitops::flip_bit(&mut data, b);
            w2.patterns += 1;
            match code.check_and_correct(&mut data, red) {
                DecodeOutcome::Uncorrectable => w2.detected += 1,
                DecodeOutcome::NoError => w2.undetected += 1,
                _ => w2.miscorrected += 1,
            }
        }
    }

    (w1, w2)
}

/// Sweeps error patterns of the given `weight` (number of simultaneously
/// flipped bits) over a CRC32C-protected codeword and reports how many were
/// detected.  Patterns are enumerated exhaustively when their count does not
/// exceed `max_patterns`, otherwise a deterministic stride-sampled subset is
/// used.
pub fn sweep_crc32c(crc: &Crc32c, data: &[u8], weight: usize, max_patterns: u64) -> DetectionSweep {
    let reference = crc.checksum(data);
    let bits = data.len() * 8;
    let mut sweep = DetectionSweep::default();
    let mut buf = data.to_vec();
    let mut pattern = vec![0usize; weight];
    // Initialise to the lexicographically first combination.
    for (i, p) in pattern.iter_mut().enumerate() {
        *p = i;
    }
    if weight == 0 || weight > bits {
        return sweep;
    }
    // Deterministic skip factor keeps the sweep bounded.
    let total = combinations(bits as u64, weight as u64);
    let stride = (total / max_patterns.max(1)).max(1);
    let mut counter = 0u64;
    loop {
        if counter.is_multiple_of(stride) {
            for &b in &pattern {
                buf[b / 8] ^= 1 << (b % 8);
            }
            sweep.patterns += 1;
            if crc.checksum(&buf) != reference {
                sweep.detected += 1;
            } else {
                sweep.undetected += 1;
            }
            for &b in &pattern {
                buf[b / 8] ^= 1 << (b % 8);
            }
        }
        counter += 1;
        // Advance to the next combination of `weight` bit positions.
        let mut i = weight;
        loop {
            if i == 0 {
                return sweep;
            }
            i -= 1;
            if pattern[i] < bits - (weight - i) {
                pattern[i] += 1;
                for j in i + 1..weight {
                    pattern[j] = pattern[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// n-choose-k with saturation (used only for stride selection).
fn combinations(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let mut result: u64 = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
    }
    result
}

/// True when the codeword length (in bits) lies inside the window for which
/// CRC32C is known to have minimum Hamming distance 6 (Koopman 2002), i.e.
/// detects all errors of weight ≤ 5.
pub fn crc32c_hd6_window(total_bits: usize) -> bool {
    (178..=5243).contains(&total_bits)
}

/// The error detection / correction operating points available at a given
/// minimum Hamming distance: pairs `(correct, detect)` with
/// `correct + detect = hd - 1` and `detect >= correct`
/// (nECmED in the paper's notation).
pub fn operating_points(hd: u32) -> Vec<(u32, u32)> {
    let budget = hd.saturating_sub(1);
    (0..=budget / 2).map(|c| (c, budget - c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32c::Crc32cBackend;
    use crate::secded::SECDED_56;

    #[test]
    fn secded_sweep_has_no_failures() {
        let payload = [0xDEAD_BEEF_1234_5678u64 & bitops::low_mask(56)];
        let (w1, w2) = sweep_secded(&SECDED_56, &payload);
        assert_eq!(w1.patterns, 56);
        assert_eq!(w1.detected, 56);
        assert_eq!(w1.miscorrected + w1.undetected, 0);
        assert_eq!(w2.patterns, 56 * 55 / 2);
        assert_eq!(w2.detected, w2.patterns);
        assert_eq!(w2.miscorrected + w2.undetected, 0);
        assert!((w1.detection_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crc_sweep_detects_low_weight_errors_in_hd6_window() {
        let crc = Crc32c::new(Crc32cBackend::SlicingBy16);
        // 40 bytes = 320 bits, inside the HD=6 window.
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(29)).collect();
        assert!(crc32c_hd6_window(data.len() * 8));
        for weight in 1..=3usize {
            let sweep = sweep_crc32c(&crc, &data, weight, 4000);
            assert!(sweep.patterns > 0);
            assert_eq!(
                sweep.undetected, 0,
                "weight {weight} errors must all be detected at HD 6"
            );
        }
    }

    #[test]
    fn window_bounds() {
        assert!(!crc32c_hd6_window(177));
        assert!(crc32c_hd6_window(178));
        assert!(crc32c_hd6_window(5243));
        assert!(!crc32c_hd6_window(5244));
    }

    #[test]
    fn operating_points_match_paper() {
        // HD=6 gives 2EC3ED, 1EC4ED and 0EC5ED (pure detection).
        let pts = operating_points(6);
        assert_eq!(pts, vec![(0, 5), (1, 4), (2, 3)]);
        assert_eq!(operating_points(2), vec![(0, 1)]);
        assert!(operating_points(0).len() == 1);
    }

    #[test]
    fn combinations_sane() {
        assert_eq!(combinations(5, 2), 10);
        assert_eq!(combinations(10, 0), 1);
        assert_eq!(combinations(3, 5), 0);
    }

    #[test]
    fn detection_sweep_rate_empty_is_one() {
        assert_eq!(DetectionSweep::default().detection_rate(), 1.0);
    }
}
