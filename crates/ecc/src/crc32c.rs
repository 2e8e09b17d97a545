//! CRC-32C (Castagnoli) — the checksum code used for whole-row / multi-element
//! protection (§IV of the paper).
//!
//! CRC32C is attractive for ABFT because:
//!
//! * its generator polynomial contains an `(x + 1)` factor, so **all odd-weight
//!   errors** are detected, as are burst errors up to 32 bits long;
//! * for codewords between 178 and 5243 bits its minimum Hamming distance is 6
//!   (Koopman 2002), so up to 5 arbitrary flips per codeword are detected, and
//!   the redundancy can alternatively be spent on correction (2EC3ED, 1EC4ED —
//!   see [`crate::correction`]);
//! * modern Intel (SSE4.2) and ARMv8 CPUs compute it in hardware.
//!
//! Several backends are provided and selected at runtime:
//!
//! * [`Crc32cBackend::Naive`] — bit-at-a-time long division, the reference
//!   implementation used to validate the others;
//! * [`Crc32cBackend::SlicingBy4`] / [`Crc32cBackend::SlicingBy8`] /
//!   [`Crc32cBackend::SlicingBy16`] — the table-driven software algorithm
//!   the paper uses when no hardware support exists, at three slicing
//!   widths.  Wider slicing amortises better on long inputs but touches
//!   more table cache lines, which dominates on the ~60-byte TeaLeaf row
//!   codewords — hence the width family instead of a single fixed width;
//! * [`Crc32cBackend::Hardware`] — the `crc32` instruction on x86-64 with
//!   SSE4.2 (and AArch64 with the CRC extension), the paper's
//!   "hardware accelerated CRC32C";
//! * [`Crc32cBackend::Auto`] — hardware when the CPU has it, otherwise the
//!   slicing width chosen **per input length** from the measured crossover
//!   policy ([`auto_software_width`]).  [`Crc32c::auto`] is the recommended
//!   constructor.
//!
//! Hardware support is probed **once** per process (a `OnceLock`) and
//! resolved into each [`Crc32c`] **at construction**, never per update;
//! setting `ABFT_ECC_FORCE_SCALAR=1` before the first use disables the
//! hardware path (and the SIMD verify kernels — see [`crate::verify`]),
//! pinning everything to the portable software implementations.
//!
//! One `crc32` chain per codeword leaves two thirds of the instruction's
//! throughput idle (3-cycle latency, one issue per cycle); the batched
//! kernels that keep several codewords in flight are
//! [`crate::verify::crc32c_groups_clean`] and its siblings, built on this
//! module's `hw` steps.

/// The CRC-32C (Castagnoli) polynomial in reflected (LSB-first) form.
pub const CRC32C_POLY_REFLECTED: u32 = 0x82F6_3B78;
/// The CRC-32C polynomial in normal (MSB-first) form.
pub const CRC32C_POLY_NORMAL: u32 = 0x1EDC_6F41;

/// Number of slices used by the table-driven software implementation.
const SLICES: usize = 16;

/// Lookup tables for slicing-by-16, generated at compile time.
///
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` positioned `k` bytes before the end of a 16-byte
/// block.
static TABLES: [[u32; 256]; SLICES] = generate_tables();

const fn generate_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    // Table 0: one byte of input processed bit by bit.
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32C_POLY_REFLECTED
            } else {
                crc >> 1
            };
            k += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    // Table i: table i-1 advanced by one more zero byte.
    let mut i = 1usize;
    while i < SLICES {
        let mut b = 0usize;
        while b < 256 {
            let prev = tables[i - 1][b];
            tables[i][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        i += 1;
    }
    tables
}

/// Which implementation computes the checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Crc32cBackend {
    /// Bit-at-a-time reference implementation (slow; for validation).
    Naive,
    /// Table-driven slicing-by-4: 4 input bytes per step, 4 KiB of tables.
    /// Lowest setup cost — wins on short codewords.
    SlicingBy4,
    /// Table-driven slicing-by-8: 8 input bytes per step, 8 KiB of tables.
    SlicingBy8,
    /// Table-driven slicing-by-16 (the paper's software fallback): 16 input
    /// bytes per step, 16 KiB of tables.  Wins on long inputs.
    SlicingBy16,
    /// Hardware `crc32` instructions (SSE4.2 / ARMv8-CRC).
    Hardware,
    /// Hardware when available, otherwise the slicing width selected per
    /// input length by [`auto_software_width`].
    Auto,
}

/// A CRC32C calculator bound to a backend.
#[derive(Debug, Clone, Copy)]
pub struct Crc32c {
    backend: Crc32cBackend,
    /// Whether updates run on the CPU's CRC instruction: `Hardware` or
    /// `Auto` was requested and [`hardware_available`] said yes when this
    /// value was built.  Private, so only [`Crc32c::new`] can set it — the
    /// `unsafe` calls into the `hw` module rest on that.
    hardware: bool,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::auto()
    }
}

impl Crc32c {
    /// Uses the requested backend.  Falls back to slicing-by-16 if hardware
    /// support is requested but not present on this CPU.
    pub fn new(backend: Crc32cBackend) -> Self {
        let wanted = matches!(backend, Crc32cBackend::Hardware | Crc32cBackend::Auto);
        let hardware = wanted && hardware_available();
        let backend = match backend {
            Crc32cBackend::Hardware if !hardware => Crc32cBackend::SlicingBy16,
            other => other,
        };
        Crc32c { backend, hardware }
    }

    /// The measured selection policy: the hardware instruction when the CPU
    /// has one, otherwise the slicing width matched to each input's length
    /// (see [`auto_software_width`]).  This is the constructor the protected
    /// structures should use unless an experiment sweeps backends
    /// explicitly.
    ///
    /// ```
    /// use abft_ecc::{Crc32c, Crc32cBackend};
    /// let auto = Crc32c::auto();
    /// // The selection never changes the checksum, only the speed: every
    /// // backend computes the same CRC32C.
    /// let reference = Crc32c::new(Crc32cBackend::Naive);
    /// for len in [0usize, 3, 8, 60, 200] {
    ///     let data: Vec<u8> = (0..len as u8).collect();
    ///     assert_eq!(auto.checksum(&data), reference.checksum(&data));
    /// }
    /// ```
    pub fn auto() -> Self {
        Crc32c::new(Crc32cBackend::Auto)
    }

    /// The backend actually in use.
    #[inline]
    pub fn backend(&self) -> Crc32cBackend {
        self.backend
    }

    /// Whether this calculator runs on the CPU's CRC instruction — the
    /// condition under which the batched kernels of [`crate::verify`] may
    /// hash from registers instead of calling back into it per codeword.
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    #[inline]
    pub(crate) fn is_hardware(&self) -> bool {
        self.hardware
    }

    /// Computes the CRC32C of `data` (standard init `!0`, final XOR `!0`).
    #[inline]
    pub fn checksum(&self, data: &[u8]) -> u32 {
        !self.update(!0u32, data)
    }

    /// Computes the CRC32C of a little-endian word slice — the natural layout
    /// of the protected structures (values and indices are hashed in memory
    /// order).
    #[inline]
    pub fn checksum_words(&self, words: &[u64]) -> u32 {
        self.checksum_words_masked(words, !0)
    }

    /// CRC32C of `words` with `mask` ANDed onto every word before hashing —
    /// the dense-vector group checksum, where the reserved redundancy bits
    /// must be cleared.  The backend is dispatched once for the whole
    /// slice: the hardware path hashes the words straight from registers,
    /// and the software paths stage them through one stack buffer so the
    /// slicing backends see contiguous runs of bytes instead of 8-byte
    /// fragments.
    #[inline]
    pub fn checksum_words_masked(&self, words: &[u64], mask: u64) -> u32 {
        if self.hardware {
            // SAFETY: `hardware` is set only by `new`, after
            // `hardware_available` reported the CRC instruction.
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            return !unsafe { hw::update_words(!0, words, mask) };
        }
        let mut state = !0u32;
        let mut buf = [0u8; 64];
        for chunk in words.chunks(8) {
            for (i, &w) in chunk.iter().enumerate() {
                buf[i * 8..i * 8 + 8].copy_from_slice(&(w & mask).to_le_bytes());
            }
            state = self.update(state, &buf[..chunk.len() * 8]);
        }
        !state
    }

    /// Streaming update of the raw CRC state (no init / final XOR applied).
    ///
    /// For [`Crc32cBackend::Auto`] the width decision is made per `update`
    /// call from `data.len()`: streaming callers that feed short fragments
    /// get the short-input width for each fragment, which is exactly the
    /// regime the policy was measured in (the protected structures hash one
    /// codeword per call).
    #[inline]
    pub fn update(&self, state: u32, data: &[u8]) -> u32 {
        if self.hardware {
            // SAFETY: `hardware` is set only by `new`, after
            // `hardware_available` reported the CRC instruction.
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            return unsafe { hw::update(state, data) };
        }
        match self.backend {
            Crc32cBackend::Naive => update_naive(state, data),
            Crc32cBackend::SlicingBy4 => update_slicing4(state, data),
            Crc32cBackend::SlicingBy8 => update_slicing8(state, data),
            // `new` never leaves `Hardware` selected without the instruction.
            Crc32cBackend::SlicingBy16 | Crc32cBackend::Hardware => update_slicing16(state, data),
            Crc32cBackend::Auto => match auto_software_width(data.len()) {
                Crc32cBackend::SlicingBy4 => update_slicing4(state, data),
                Crc32cBackend::SlicingBy8 => update_slicing8(state, data),
                _ => update_slicing16(state, data),
            },
        }
    }
}

/// Inputs shorter than this take slicing-by-4 on the software `Auto` path.
///
/// Measured on an x86-64 AVX2 host: at 4–12 bytes slicing-by-4 wins or
/// ties (3.1 ns at 4 B vs 3.9/4.1 ns for by-8/by-16) because the wider
/// variants fall back to byte-at-a-time for most of such inputs.
pub const AUTO_SLICING8_MIN_BYTES: usize = 16;

/// Inputs shorter than this (and at least [`AUTO_SLICING8_MIN_BYTES`]) take
/// slicing-by-8; longer inputs take slicing-by-16.
///
/// Measured on the same host: the ~60-byte TeaLeaf row codeword lands in
/// the slicing-by-8 band (21.8 ns vs 28.7 ns for by-16, whose 12-byte
/// remainder is processed byte-at-a-time), while from 64 bytes up
/// slicing-by-16 wins and keeps widening its lead (25.2 ns vs 35.0 ns at
/// 96 B, 2.4× at 4 KiB).
pub const AUTO_SLICING16_MIN_BYTES: usize = 64;

/// The software slicing width [`Crc32cBackend::Auto`] selects for an input
/// of `len` bytes (the per-length half of the policy; hardware, when
/// present, beats every width at every length).
#[inline]
pub fn auto_software_width(len: usize) -> Crc32cBackend {
    if len < AUTO_SLICING8_MIN_BYTES {
        Crc32cBackend::SlicingBy4
    } else if len < AUTO_SLICING16_MIN_BYTES {
        Crc32cBackend::SlicingBy8
    } else {
        Crc32cBackend::SlicingBy16
    }
}

/// Returns `true` when this CPU exposes a CRC32C instruction.
///
/// The probe runs **once** per process and is cached; [`Crc32c::new`]
/// reads it at construction, the update paths never do.
/// `ABFT_ECC_FORCE_SCALAR=1`, read at the same moment, forces `false` so
/// tests can pin the software paths on hardware-capable hosts.
pub fn hardware_available() -> bool {
    static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        if crate::verify::force_scalar_requested() {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("sse4.2")
        }
        #[cfg(target_arch = "aarch64")]
        {
            std::arch::is_aarch64_feature_detected!("crc")
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            false
        }
    })
}

/// Bit-at-a-time reference implementation.
pub fn update_naive(mut state: u32, data: &[u8]) -> u32 {
    for &byte in data {
        state ^= byte as u32;
        for _ in 0..8 {
            state = if state & 1 != 0 {
                (state >> 1) ^ CRC32C_POLY_REFLECTED
            } else {
                state >> 1
            };
        }
    }
    state
}

/// Slicing-by-16: processes 16 input bytes per iteration using 16 lookup
/// tables, the software algorithm referenced by the paper.
pub fn update_slicing16(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
        let lo_bytes = lo.to_le_bytes();
        state = 0;
        // Bytes are indexed by their distance from the end of the 16-byte block.
        for (i, &b) in lo_bytes.iter().enumerate() {
            state ^= TABLES[15 - i][b as usize];
        }
        for (i, &b) in chunk[4..16].iter().enumerate() {
            state ^= TABLES[11 - i][b as usize];
        }
    }
    update_byte_table(state, chunks.remainder())
}

/// Slicing-by-8: processes 8 input bytes per iteration using the first 8
/// lookup tables — half the cache footprint of slicing-by-16, the winning
/// width for medium-length codewords (see [`auto_software_width`]).
pub fn update_slicing8(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
        let lo_bytes = lo.to_le_bytes();
        state = 0;
        for (i, &b) in lo_bytes.iter().enumerate() {
            state ^= TABLES[7 - i][b as usize];
        }
        for (i, &b) in chunk[4..8].iter().enumerate() {
            state ^= TABLES[3 - i][b as usize];
        }
    }
    update_byte_table(state, chunks.remainder())
}

/// Slicing-by-4: processes 4 input bytes per iteration using the first 4
/// lookup tables — the smallest table footprint of the family, the winning
/// width for short codewords (see [`auto_software_width`]).
pub fn update_slicing4(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(4);
    for chunk in &mut chunks {
        let x = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
        let bytes = x.to_le_bytes();
        state = 0;
        for (i, &b) in bytes.iter().enumerate() {
            state ^= TABLES[3 - i][b as usize];
        }
    }
    update_byte_table(state, chunks.remainder())
}

/// Byte-at-a-time table lookup (used for slicing remainders).
#[inline]
fn update_byte_table(mut state: u32, data: &[u8]) -> u32 {
    for &byte in data {
        state = (state >> 8) ^ TABLES[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

/// The CPU's CRC32C instruction: one step per operand width, and the
/// single-chain runs built from them.  Every function here requires the
/// instruction ([`hardware_available`]); callers outside a matching
/// `#[target_feature]` context reach them through `unsafe` on that proof.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) mod hw {
    #[cfg(target_arch = "aarch64")]
    use std::arch::aarch64::{__crc32cb, __crc32cd, __crc32cw};
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::{_mm_crc32_u32, _mm_crc32_u64, _mm_crc32_u8};

    /// Advances `state` over the 8 little-endian bytes of `word`.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    #[inline]
    pub(crate) fn step64(state: u32, word: u64) -> u32 {
        #[cfg(target_arch = "x86_64")]
        return _mm_crc32_u64(state as u64, word) as u32;
        #[cfg(target_arch = "aarch64")]
        return __crc32cd(state, word);
    }

    /// Advances `state` over the 4 little-endian bytes of `word`.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    #[inline]
    pub(crate) fn step32(state: u32, word: u32) -> u32 {
        #[cfg(target_arch = "x86_64")]
        return _mm_crc32_u32(state, word);
        #[cfg(target_arch = "aarch64")]
        return __crc32cw(state, word);
    }

    /// Advances `state` over one byte.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    #[inline]
    fn step8(state: u32, byte: u8) -> u32 {
        #[cfg(target_arch = "x86_64")]
        return _mm_crc32_u8(state, byte);
        #[cfg(target_arch = "aarch64")]
        return __crc32cb(state, byte);
    }

    /// Streaming update over a byte slice: 8 bytes per step, then the tail.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    pub(crate) fn update(mut state: u32, data: &[u8]) -> u32 {
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
            state = step64(state, word);
        }
        for &byte in chunks.remainder() {
            state = step8(state, byte);
        }
        state
    }

    /// Streaming update over `words[i] & mask`, hashed from registers.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    pub(crate) fn update_words(mut state: u32, words: &[u64], mask: u64) -> u32 {
        for &w in words {
            state = step64(state, w & mask);
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Well-known check vector: CRC32C("123456789") = 0xE3069283.
    const CHECK_INPUT: &[u8] = b"123456789";
    const CHECK_VALUE: u32 = 0xE306_9283;

    #[test]
    fn known_answer_all_backends() {
        for backend in [
            Crc32cBackend::Naive,
            Crc32cBackend::SlicingBy4,
            Crc32cBackend::SlicingBy8,
            Crc32cBackend::SlicingBy16,
            Crc32cBackend::Hardware,
            Crc32cBackend::Auto,
        ] {
            let crc = Crc32c::new(backend);
            assert_eq!(
                crc.checksum(CHECK_INPUT),
                CHECK_VALUE,
                "backend {backend:?} failed the check vector"
            );
        }
    }

    #[test]
    fn more_known_answers() {
        // Vectors from RFC 3720 appendix (iSCSI CRC32C).
        let crc = Crc32c::new(Crc32cBackend::SlicingBy16);
        assert_eq!(crc.checksum(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc.checksum(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc.checksum(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0u8..32).rev().collect();
        assert_eq!(crc.checksum(&descending), 0x113F_DB5C);
    }

    #[test]
    fn backends_agree_on_arbitrary_lengths() {
        let naive = Crc32c::new(Crc32cBackend::Naive);
        let others = [
            Crc32c::new(Crc32cBackend::SlicingBy4),
            Crc32c::new(Crc32cBackend::SlicingBy8),
            Crc32c::new(Crc32cBackend::SlicingBy16),
            Crc32c::new(Crc32cBackend::Hardware),
            Crc32c::auto(),
        ];
        let mut data = Vec::new();
        let mut x = 0x12345u32;
        // 0..150 crosses both auto-policy thresholds.
        for len in 0..150usize {
            data.clear();
            for i in 0..len {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                data.push((x >> 24) as u8 ^ i as u8);
            }
            let a = naive.checksum(&data);
            for other in &others {
                assert_eq!(a, other.checksum(&data), "{:?} len {len}", other.backend());
            }
        }
    }

    #[test]
    fn auto_policy_is_monotone_in_width() {
        assert_eq!(auto_software_width(0), Crc32cBackend::SlicingBy4);
        assert_eq!(
            auto_software_width(AUTO_SLICING8_MIN_BYTES - 1),
            Crc32cBackend::SlicingBy4
        );
        assert_eq!(
            auto_software_width(AUTO_SLICING8_MIN_BYTES),
            Crc32cBackend::SlicingBy8
        );
        // The ~60-byte TeaLeaf row codeword takes the middle width.
        assert_eq!(auto_software_width(60), Crc32cBackend::SlicingBy8);
        assert_eq!(
            auto_software_width(AUTO_SLICING16_MIN_BYTES),
            Crc32cBackend::SlicingBy16
        );
        assert_eq!(auto_software_width(1 << 20), Crc32cBackend::SlicingBy16);
    }

    #[test]
    fn checksum_words_matches_bytes() {
        let words = [0x0102_0304_0506_0708u64, 0xDEAD_BEEF_CAFE_F00D];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for backend in [
            Crc32cBackend::Naive,
            Crc32cBackend::SlicingBy16,
            Crc32cBackend::Hardware,
            Crc32cBackend::Auto,
        ] {
            let crc = Crc32c::new(backend);
            assert_eq!(crc.checksum_words(&words), crc.checksum(&bytes));
            assert_eq!(crc.checksum_words_masked(&words, !0), crc.checksum(&bytes));
        }
    }

    #[test]
    fn masked_word_checksum_clears_reserved_bits() {
        let mask = !0xFFu64;
        // 12 words also exercises the multi-chunk staging path.
        let words: Vec<u64> = (0..12u64)
            .map(|i| i.wrapping_mul(0x0101_0101_0101_0137) | 0xAB)
            .collect();
        let mut masked_bytes = Vec::new();
        for &w in &words {
            masked_bytes.extend_from_slice(&(w & mask).to_le_bytes());
        }
        for backend in [
            Crc32cBackend::Naive,
            Crc32cBackend::SlicingBy16,
            Crc32cBackend::Hardware,
        ] {
            let crc = Crc32c::new(backend);
            assert_eq!(
                crc.checksum_words_masked(&words, mask),
                crc.checksum(&masked_bytes)
            );
        }
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let crc = Crc32c::auto();
        let data: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(5))
            .collect();
        let reference = crc.checksum(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc.checksum(&corrupted), reference);
            }
        }
    }

    #[test]
    fn odd_weight_errors_always_detected() {
        // The (x+1) factor guarantees detection of all odd-weight error
        // patterns; spot-check weight-3 patterns on a small codeword.
        let crc = Crc32c::auto();
        let data: Vec<u8> = (0..16u8).collect();
        let reference = crc.checksum(&data);
        let bits = data.len() * 8;
        for a in (0..bits).step_by(5) {
            for b in (a + 1..bits).step_by(7) {
                for c in (b + 1..bits).step_by(11) {
                    let mut corrupted = data.clone();
                    corrupted[a / 8] ^= 1 << (a % 8);
                    corrupted[b / 8] ^= 1 << (b % 8);
                    corrupted[c / 8] ^= 1 << (c % 8);
                    assert_ne!(crc.checksum(&corrupted), reference);
                }
            }
        }
    }

    #[test]
    fn burst_errors_up_to_32_bits_detected() {
        let crc = Crc32c::auto();
        let data: Vec<u8> = (0..80u8).map(|i| i.wrapping_mul(91)).collect();
        let reference = crc.checksum(&data);
        let bits = data.len() * 8;
        for burst_len in 1..=32usize {
            for start in (0..bits - burst_len).step_by(13) {
                let mut corrupted = data.clone();
                // Flip the first and last bits of the burst plus a pattern inside.
                for offset in 0..burst_len {
                    if offset == 0 || offset == burst_len - 1 || offset % 3 == 0 {
                        let bit = start + offset;
                        corrupted[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                assert_ne!(
                    crc.checksum(&corrupted),
                    reference,
                    "burst len {burst_len} at {start} undetected"
                );
            }
        }
    }

    #[test]
    fn streaming_update_equals_one_shot() {
        let crc = Crc32c::new(Crc32cBackend::SlicingBy16);
        let data: Vec<u8> = (0..200u8).collect();
        let one_shot = crc.checksum(&data);
        let mut state = !0u32;
        for chunk in data.chunks(7) {
            state = crc.update(state, chunk);
        }
        assert_eq!(!state, one_shot);
    }

    #[test]
    fn best_backend_prefers_hardware_when_available() {
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        assert_eq!(Crc32c::auto().is_hardware(), hardware_available());
        // The probe is cached: repeated queries agree.
        assert_eq!(hardware_available(), hardware_available());
    }
}
