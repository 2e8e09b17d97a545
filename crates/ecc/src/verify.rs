//! Batched, SIMD-accelerated ECC kernels — verify-only predicates, the
//! SECDED64 encode and the multi-stream CRC32C kernels — with runtime ISA
//! dispatch.
//!
//! The full-protection scheme makes every SpMV and every vector read pay an
//! integrity check and every vector write pay an encode, so their
//! throughput *is* solver throughput.  The verify-only predicates
//! ([`crate::Secded::verify`], SED parity) already avoid the correction
//! machinery; this module removes the remaining scalar bit-twiddling by
//! working on **runs of codewords**:
//!
//! * every check is GF(2)-linear, so a codeword layout reduces to *"XOR a
//!   handful of table lookups and compare with zero"* through tables built
//!   at compile time from one per-bit description of the layout (the
//!   private `tables` module): a flattened `u32` table per `(byte position,
//!   byte value)` for the scalar tiers, and its nibble-split `u8` form for
//!   the in-register kernels;
//! * on x86-64 with AVX2 the byte-wide layouts (SECDED64 words, SECDED88
//!   elements) take **16 codewords per step with no table load at all**:
//!   the batch is byte-transposed in registers and each byte position is
//!   looked up with `vpshufb` against its two 16-entry nibble tables — and
//!   the SECDED64 *encode* is the same map with the redundancy byte as its
//!   output.  SECDED128 (9 syndrome bits) keeps an 8-lane `vpgatherdd`;
//!   SED parity folds 4 words per step with plain vertical XORs;
//! * CRC32C is not lane-parallel but it is *chain*-parallel: the `crc32`
//!   instruction (x86-64 SSE4.2, AArch64 CRC) has a 3-cycle latency and
//!   issues once per cycle, so the CRC32C kernels hash four codewords at a
//!   time — four independent dependency chains, operands taken straight
//!   from registers, no byte staging — for the 4-word dense-vector group,
//!   the 8-entry row-pointer group and the row-wide CSR codeword alike;
//! * the implementation is selected **once**, at first use, into a
//!   process-wide function-pointer table (a `OnceLock` function table) from
//!   `is_x86_feature_detected!` — feature detection never runs inside a
//!   kernel loop.
//!
//! The portable scalar implementations live in [`scalar`] and remain the
//! reference: they run on every architecture (and are the lane kernels of
//! every host without AVX2), the dispatched kernels must be bit-for-bit
//! equivalent to them (pinned by differential tests across random lengths
//! and injected faults).
//!
//! # Forcing the scalar path
//!
//! Setting the environment variable **`ABFT_ECC_FORCE_SCALAR=1`** (any
//! non-empty value other than `0`) before the first ECC operation pins the
//! dispatch — verify and encode — to the scalar implementations *and*
//! disables the hardware CRC32C instruction (the CRC32C kernels then loop
//! the configured software backend per codeword), so tests and benchmarks
//! can exercise the portable fallback on hosts that do have the fast paths.
//! The variable is read once, when the dispatch table is first resolved;
//! changing it afterwards has no effect.
//!
//! # What is *not* here
//!
//! Correction stays scalar: a failing batch only tells the caller "not
//! clean", and the caller re-walks the batch with the correcting per-group
//! decode to locate, repair and attribute the fault.  Faults are rare by
//! assumption, so the batched predicates are the common case and the scalar
//! decode is the cold path.

use crate::crc32c::Crc32c;
use crate::secded::{data_bit_position, SECDED_56};
use std::sync::OnceLock;

/// Instruction set selected by the runtime dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable scalar reference implementations (every host without AVX2).
    Scalar,
    /// AVX2: 4-lane parity folds, in-register `vpshufb` nibble-table
    /// syndromes and encode (16 codewords per step).
    Avx2,
}

impl Isa {
    /// Label for benchmark output (every recorded point carries the
    /// detected ISA so numbers from different hosts are never compared
    /// blindly).
    pub fn label(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }
}

/// The resolved kernel table: one function pointer per batched kernel.
struct Kernels {
    isa: Isa,
    sed_words: fn(&[u64]) -> bool,
    sed_elements: fn(&[f64], &[u32]) -> bool,
    secded64_words: fn(&[u64]) -> bool,
    secded64_words_xor: fn(&[u64], &mut [u64]) -> bool,
    secded128_words: fn(&[u64]) -> bool,
    secded88_elements: fn(&[f64], &[u32]) -> bool,
    secded64_encode: fn(&[f64], &mut [u64]),
    crc32c_groups: fn(&Crc32c, &[u64]) -> bool,
    crc32c_entry_groups: fn(&Crc32c, &[u32]) -> bool,
    crc32c_encode: fn(&Crc32c, &[f64], &mut [u64]),
    crc32c_rows: fn(&Crc32c, &[f64], &[u32], &[usize]) -> bool,
}

static KERNELS: OnceLock<Kernels> = OnceLock::new();

/// `true` when `ABFT_ECC_FORCE_SCALAR` requests the portable path.
///
/// The environment variable is read **once** per process, through this
/// shared cache — the verify dispatch table and the CRC hardware probe
/// both consult it, so the two can never resolve to inconsistent states
/// no matter which is touched first or whether the variable changes
/// mid-process.
pub fn force_scalar_requested() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| match std::env::var("ABFT_ECC_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    })
}

fn resolve() -> Kernels {
    if force_scalar_requested() {
        return scalar_kernels();
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernels {
                isa: Isa::Avx2,
                sed_words: avx2::sed_words_clean,
                sed_elements: avx2::sed_elements_clean,
                secded64_words: avx2::secded64_words_clean,
                secded64_words_xor: avx2::secded64_words_clean_xor,
                secded128_words: avx2::secded128_words_clean,
                secded88_elements: avx2::secded88_elements_clean,
                secded64_encode: avx2::secded64_encode_words,
                ..scalar_kernels()
            };
        }
    }
    scalar_kernels()
}

/// The scalar lane kernels, with the CRC32C tier the CPU offers: the CRC
/// instruction is independent of the SIMD width, so every lane tier takes
/// its CRC32C entries from here.
fn scalar_kernels() -> Kernels {
    let lanes = Kernels {
        isa: Isa::Scalar,
        sed_words: scalar::sed_words_clean,
        sed_elements: scalar::sed_elements_clean,
        secded64_words: scalar::secded64_words_clean,
        secded64_words_xor: scalar::secded64_words_clean_xor,
        secded128_words: scalar::secded128_words_clean,
        secded88_elements: scalar::secded88_elements_clean,
        secded64_encode: scalar::secded64_encode_words,
        crc32c_groups: scalar::crc32c_groups_clean,
        crc32c_entry_groups: scalar::crc32c_entry_groups_clean,
        crc32c_encode: scalar::crc32c_encode_groups,
        crc32c_rows: scalar::crc32c_rows_clean,
    };
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if crate::crc32c::hardware_available() {
        return Kernels {
            crc32c_groups: crc_hw::crc32c_groups_clean,
            crc32c_entry_groups: crc_hw::crc32c_entry_groups_clean,
            crc32c_encode: crc_hw::crc32c_encode_groups,
            crc32c_rows: crc_hw::crc32c_rows_clean,
            ..lanes
        };
    }
    lanes
}

#[inline]
fn kernels() -> &'static Kernels {
    KERNELS.get_or_init(resolve)
}

/// The ISA the dispatch resolved to (resolving it on first call).
pub fn detected_isa() -> Isa {
    kernels().isa
}

/// Batched SED check: `true` iff every word has even parity.
///
/// This is the whole-run predicate behind the SED fast paths: a clean run —
/// the overwhelmingly common case — is certified in one pass and the caller
/// never touches per-element parity; a failing run is re-walked by the
/// caller's scalar loop to find and report the offending index.
///
/// ```
/// use abft_ecc::verify::sed_words_clean;
/// // Even-parity words pass, one flipped bit fails the whole run.
/// let clean = [0b11u64, 0b1010, 0];
/// assert!(sed_words_clean(&clean));
/// let mut bad = clean;
/// bad[1] ^= 1 << 40;
/// assert!(!sed_words_clean(&bad));
/// ```
#[inline]
pub fn sed_words_clean(words: &[u64]) -> bool {
    (kernels().sed_words)(words)
}

/// Batched SED check of CSR elements: `true` iff every `(value, encoded
/// column)` pair has even combined parity (the 96-bit element codeword of
/// Fig. 1).  `values` and `cols` must have equal lengths.
#[inline]
pub fn sed_elements_clean(values: &[f64], cols: &[u32]) -> bool {
    debug_assert_eq!(values.len(), cols.len());
    (kernels().sed_elements)(values, cols)
}

/// Batched verify of SECDED64 dense-vector codewords: `true` iff every word
/// is a clean 72-bit vector codeword (56-bit payload in the high bits, 7
/// redundancy bits + 1 zero bit in the low byte).
///
/// A SECDED64 CSR row-pointer pair is the same codeword once packed: the
/// two 28-bit payloads `e0 & M | (e1 & M) << 28` above the redundancy
/// nibbles `e0 >> 28 | (e1 >> 28) << 4`, whose must-be-zero eighth bit is
/// bit 7 here.  The row pointer screens its groups through this predicate.
#[inline]
pub fn secded64_words_clean(words: &[u64]) -> bool {
    (kernels().secded64_words)(words)
}

/// [`secded64_words_clean`] that also XORs the run into `acc` —
/// `acc[i] ^= words[i]` for every word, whatever the verdict — from the
/// registers the check loads anyway: the dense-vector erasure tier
/// certifies a chunk and folds it into its stripe's parity cross-check in
/// one pass.
///
/// # Panics
/// Panics unless `acc` and `words` have equal lengths.
///
/// ```
/// use abft_ecc::verify::{secded64_encode_words, secded64_words_clean_xor};
/// let mut words = [0u64; 20];
/// secded64_encode_words(&[1.5; 20], &mut words);
/// let mut acc = words;
/// assert!(secded64_words_clean_xor(&words, &mut acc));
/// assert_eq!(acc, [0; 20]);
/// ```
#[inline]
pub fn secded64_words_clean_xor(words: &[u64], acc: &mut [u64]) -> bool {
    assert_eq!(words.len(), acc.len(), "secded64_words_clean_xor: lengths");
    (kernels().secded64_words_xor)(words, acc)
}

/// `acc[i] ^= words[i]`: the XOR half of the unfused `_xor` kernels.
#[inline]
fn xor_into(acc: &mut [u64], words: &[u64]) {
    for (a, &w) in acc.iter_mut().zip(words) {
        *a ^= w;
    }
}

/// Batched verify of SECDED128 dense-vector codewords: `true` iff every
/// consecutive **pair** of words is a clean 126-bit vector codeword
/// (2 × 59-bit payload, 8 redundancy bits split 5 + 3 across the two
/// reserved low-bit fields).  `words.len()` must be even (protected-vector
/// storage is always padded to whole groups).
#[inline]
pub fn secded128_words_clean(words: &[u64]) -> bool {
    debug_assert_eq!(words.len() % 2, 0);
    (kernels().secded128_words)(words)
}

/// Batched verify of SECDED88 CSR elements: `true` iff every `(value,
/// encoded column)` pair is a clean 96-bit element codeword (64-bit value +
/// 24-bit column payload, 8 redundancy bits in the column's top byte).
/// `values` and `cols` must have equal lengths.
#[inline]
pub fn secded88_elements_clean(values: &[f64], cols: &[u32]) -> bool {
    debug_assert_eq!(values.len(), cols.len());
    (kernels().secded88_elements)(values, cols)
}

/// Batched encode of SECDED64 dense-vector codewords: `out[i]` becomes the
/// clean codeword of `values[i]` — its 56 high bits kept, the low byte
/// replaced by the 7 redundancy bits (bit 7 zero).  Bit-identical to
/// encoding each word with [`SECDED_56`]; `values` and `out` must have equal
/// lengths.
///
/// ```
/// use abft_ecc::verify::{secded64_encode_words, secded64_words_clean};
/// let values = [1.0f64, -2.5, 3.25e7];
/// let mut words = [0u64; 3];
/// secded64_encode_words(&values, &mut words);
/// assert!(secded64_words_clean(&words));
/// assert_eq!(words[1] >> 8, (-2.5f64).to_bits() >> 8);
/// ```
#[inline]
pub fn secded64_encode_words(values: &[f64], out: &mut [u64]) {
    assert_eq!(values.len(), out.len(), "secded64_encode_words: length");
    (kernels().secded64_encode)(values, out)
}

/// Words per CRC32C dense-vector codeword.
const CRC_GROUP: usize = 4;
/// AND-mask clearing the checksum byte each word of a CRC32C dense-vector
/// codeword reserves.
const CRC_WORD_MASK: u64 = !0xFF;
/// AND-mask selecting the 24 column bits the row-wide CSR codeword hashes.
const CRC_COL_MASK: u32 = 0x00FF_FFFF;
/// Entries of a row whose spare column bytes hold the row's checksum.
const CRC_ROW_MIN: usize = 4;
/// Entries per CRC32C row-pointer codeword.
const CRC_ENTRY_GROUP: usize = 8;
/// AND-mask of two row-pointer entries read as one little-endian word: the
/// 28 payload bits of each.
const CRC_ENTRY_PAIR_MASK: u64 = 0x0FFF_FFFF_0FFF_FFFF;

/// The checksum a CRC32C dense-vector codeword stores: byte `j` in the low
/// byte of word `j`.
#[inline(always)]
fn crc_group_stored(group: &[u64]) -> u32 {
    (group[0] & 0xFF) as u32
        | ((group[1] & 0xFF) as u32) << 8
        | ((group[2] & 0xFF) as u32) << 16
        | ((group[3] & 0xFF) as u32) << 24
}

/// The checksum a row-wide CSR codeword stores: byte `j` in the top byte of
/// the row's `j`-th column index.
#[inline(always)]
fn crc_row_stored(row_cols: &[u32]) -> u32 {
    row_cols[0] >> 24
        | (row_cols[1] >> 24) << 8
        | (row_cols[2] >> 24) << 16
        | (row_cols[3] >> 24) << 24
}

/// Word `j` of a run of CRC32C row-pointer codewords: entries `2j` and
/// `2j + 1` as one little-endian word, their checksum nibbles cleared.
#[inline(always)]
fn crc_entry_word(entries: &[u32], j: usize) -> u64 {
    (entries[2 * j] as u64 | (entries[2 * j + 1] as u64) << 32) & CRC_ENTRY_PAIR_MASK
}

/// The checksum a CRC32C row-pointer codeword stores: nibble `j` in the top
/// four bits of entry `j`.
#[inline(always)]
fn crc_entry_stored(group: &[u32]) -> u32 {
    (0..CRC_ENTRY_GROUP).fold(0, |acc, j| acc | (group[j] >> 28) << (4 * j))
}

/// The value and column slices of row `start..end` when it can hold a
/// row-wide CRC32C codeword: at least [`CRC_ROW_MIN`] entries, inside both
/// arrays.
#[inline(always)]
fn crc_row<'a>(
    values: &'a [f64],
    cols: &'a [u32],
    start: usize,
    end: usize,
) -> Option<(&'a [f64], &'a [u32])> {
    if end.checked_sub(start)? < CRC_ROW_MIN {
        return None;
    }
    Some((values.get(start..end)?, cols.get(start..end)?))
}

/// Batched verify of CRC32C dense-vector codewords: `true` iff every
/// consecutive group of four words is a clean codeword — the CRC32C of the
/// four words with their low bytes cleared equals the checksum those low
/// bytes store (byte `j` in word `j`).  `words.len()` must be a multiple of
/// four (protected-vector storage is always padded to whole groups).
///
/// With `crc` on the CPU's CRC instruction four groups are hashed at a
/// time from registers; any other backend (an explicitly configured
/// software one, a CPU without the instruction, `ABFT_ECC_FORCE_SCALAR=1`)
/// computes each group's checksum with `crc` itself.
///
/// ```
/// use abft_ecc::verify::{crc32c_encode_groups, crc32c_groups_clean};
/// use abft_ecc::Crc32c;
/// let crc = Crc32c::auto();
/// let mut words = [0u64; 8];
/// crc32c_encode_groups(&crc, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &mut words);
/// assert!(crc32c_groups_clean(&crc, &words));
/// words[5] ^= 1 << 40;
/// assert!(!crc32c_groups_clean(&crc, &words));
/// ```
#[inline]
pub fn crc32c_groups_clean(crc: &Crc32c, words: &[u64]) -> bool {
    debug_assert_eq!(words.len() % CRC_GROUP, 0);
    (kernels().crc32c_groups)(crc, words)
}

/// Batched verify of CRC32C row-pointer codewords: `true` iff every
/// consecutive group of eight 32-bit entries is a clean codeword — the
/// CRC32C of their 28-bit payloads, hashed two entries per little-endian
/// word with the top nibbles cleared, equals the checksum those nibbles
/// store (nibble `j` in entry `j`).  `entries.len()` must be a multiple of
/// eight (protected row pointers are always padded to whole groups).
///
/// Backends as in [`crc32c_groups_clean`]: four groups at a time on the
/// CPU's CRC instruction, one `crc` checksum per group otherwise.
#[inline]
pub fn crc32c_entry_groups_clean(crc: &Crc32c, entries: &[u32]) -> bool {
    debug_assert_eq!(entries.len() % CRC_ENTRY_GROUP, 0);
    (kernels().crc32c_entry_groups)(crc, entries)
}

/// Batched encode of CRC32C dense-vector codewords: every group of four
/// `out` words becomes the clean codeword of the matching four `values` —
/// their 56 high bits kept, the low byte of word `j` replaced by byte `j`
/// of the group's checksum.  Bit-identical to encoding group by group;
/// `values` and `out` must have equal lengths, a multiple of four.
#[inline]
pub fn crc32c_encode_groups(crc: &Crc32c, values: &[f64], out: &mut [u64]) {
    assert_eq!(values.len(), out.len(), "crc32c_encode_groups: length");
    debug_assert_eq!(values.len() % CRC_GROUP, 0);
    (kernels().crc32c_encode)(crc, values, out)
}

/// Batched verify of row-wide CRC32C CSR codewords: `true` iff every row
/// `bounds[r]..bounds[r + 1]` is a clean codeword — the CRC32C over its
/// elements, each hashed as the 8 value bytes followed by the 24-bit column
/// as a 32-bit word, equals the checksum stored in the top bytes of the
/// row's first four column indices.  A row that is shorter than four
/// entries, runs backwards or leaves the arrays is reported not clean, so
/// callers may pass bounds they have not validated yet.
///
/// Four rows are hashed at a time on the CPU's CRC instruction; other
/// backends compute each row's checksum with `crc` itself (see
/// [`crc32c_groups_clean`]).
#[inline]
pub fn crc32c_rows_clean(crc: &Crc32c, values: &[f64], cols: &[u32], bounds: &[usize]) -> bool {
    (kernels().crc32c_rows)(crc, values, cols, bounds)
}

/// Compile-time construction of the flattened full-codeword syndrome
/// tables.
///
/// Every verify-only check in this crate is linear over GF(2): the codeword
/// is clean iff the XOR of a per-bit *column* over all set raw bits is zero,
/// where the column of
///
/// * a payload bit `j` is its Hamming codeword position ORed with the
///   overall-parity contribution,
/// * a stored check bit `j` is `1 << j` (it cancels the computed check bit)
///   ORed with the overall-parity contribution,
/// * the stored parity bit is the overall-parity contribution alone,
/// * a must-be-zero spare bit is a **sentinel** bit no real column uses, so
///   any stray flip there fails the check, and
/// * a bit outside the codeword is zero.
///
/// Folding eight adjacent bits at a time yields one 256-entry `u32` table
/// per byte position; the tables for one layout are flattened into a single
/// array indexed as `position * 256 + byte`.  Folding four at a time yields
/// the nibble tables of the in-register kernels ([`NibbleLut`]).
mod tables {
    use super::data_bit_position;

    /// Column bit set for spare bits that the layout defines to be zero.
    pub(super) const SENTINEL: u32 = 1 << 31;

    /// Role of one raw storage bit in a codeword layout.
    #[derive(Clone, Copy)]
    enum Role {
        /// Payload bit `j` of the underlying Hamming code.
        Payload(usize),
        /// Stored Hamming check bit `j`.
        Check(u32),
        /// Stored overall-parity bit.
        Parity,
        /// Spare bit defined to be zero.
        Zero,
    }

    const fn column(role: Role, check_bits: u32) -> u32 {
        match role {
            Role::Payload(j) => data_bit_position(j) as u32 | (1 << check_bits),
            Role::Check(j) => (1 << j) | (1 << check_bits),
            Role::Parity => 1 << check_bits,
            Role::Zero => SENTINEL,
        }
    }

    /// Folds per-bit columns into the flattened per-byte lookup table.
    const fn fill<const BITS: usize, const SIZE: usize>(
        roles: [Role; BITS],
        check_bits: u32,
    ) -> [u32; SIZE] {
        assert!(SIZE == (BITS / 8) * 256);
        let mut table = [0u32; SIZE];
        let mut p = 0;
        while p < BITS / 8 {
            let mut b = 1usize;
            while b < 256 {
                // table[p][b] = table[p][b without its lowest set bit]
                //             ^ column(lowest set bit)
                let low = b & b.wrapping_neg();
                let bit = low.trailing_zeros() as usize;
                table[p * 256 + b] =
                    table[p * 256 + (b ^ low)] ^ column(roles[p * 8 + bit], check_bits);
                b += 1;
            }
            p += 1;
        }
        table
    }

    /// SECDED64 dense-vector codeword: one `u64` = 56-bit payload above an
    /// 8-bit reserved field (bits 0–5 check bits, bit 6 parity, bit 7 zero).
    const fn vec64_roles() -> [Role; 64] {
        let mut roles = [Role::Zero; 64];
        let mut j = 0;
        while j < 6 {
            roles[j] = Role::Check(j as u32);
            j += 1;
        }
        roles[6] = Role::Parity;
        // roles[7] stays Zero (the 8th reserved bit is defined to be zero).
        let mut b = 8;
        while b < 64 {
            roles[b] = Role::Payload(b - 8);
            b += 1;
        }
        roles
    }

    /// SECDED128 dense-vector codeword: two `u64`s = 2 × 59-bit payload
    /// above 5-bit reserved fields; redundancy bits 0–4 in word 0, bits 5–7
    /// (checks 5–6 + parity) in word 1, word-1 spare bits 3–4 zero.
    const fn vec128_roles() -> [Role; 128] {
        let mut roles = [Role::Zero; 128];
        let mut j = 0;
        while j < 5 {
            roles[j] = Role::Check(j as u32);
            j += 1;
        }
        let mut b = 5;
        while b < 64 {
            roles[b] = Role::Payload(b - 5);
            b += 1;
        }
        roles[64] = Role::Check(5);
        roles[65] = Role::Check(6);
        roles[66] = Role::Parity;
        // roles[67], roles[68] stay Zero.
        let mut b = 69;
        while b < 128 {
            roles[b] = Role::Payload(59 + (b - 69));
            b += 1;
        }
        roles
    }

    /// SECDED88 CSR element codeword: a 64-bit value (payload bits 0–63)
    /// followed by a 32-bit column index (payload bits 64–87 in the low 24
    /// bits, checks 0–6 + parity in the top byte).
    const fn elem88_roles() -> [Role; 96] {
        let mut roles = [Role::Zero; 96];
        let mut b = 0;
        while b < 64 {
            roles[b] = Role::Payload(b);
            b += 1;
        }
        while b < 88 {
            roles[b] = Role::Payload(b);
            b += 1;
        }
        let mut j = 0;
        while j < 7 {
            roles[88 + j] = Role::Check(j as u32);
            j += 1;
        }
        roles[95] = Role::Parity;
        roles
    }

    /// Flattened table for the SECDED64 vector codeword (8 byte positions).
    pub(super) static VEC64: [u32; 8 * 256] = fill(vec64_roles(), 6);
    /// Flattened table for the SECDED128 vector codeword (16 byte positions).
    pub(super) static VEC128: [u32; 16 * 256] = fill(vec128_roles(), 7);
    /// Flattened table for the SECDED88 element codeword (12 byte positions:
    /// 8 value bytes then 4 column bytes).
    pub(super) static ELEM88: [u32; 12 * 256] = fill(elem88_roles(), 7);

    /// Which GF(2)-linear map of a layout a [`NibbleLut`] tabulates.
    #[derive(Clone, Copy)]
    enum Map {
        /// The full-codeword syndrome ([`column`]): zero iff clean.
        Syndrome,
        /// The redundancy byte a payload encodes to: Hamming check bits plus
        /// the overall-parity bit, which is linear in the payload too (a
        /// payload bit toggles the data parity and the parity of the check
        /// bits its position sets).  Reserved bits contribute nothing, so
        /// stale redundancy in the input is ignored.
        Encode,
    }

    /// One per-bit column narrowed to a byte for the in-register kernels:
    /// the redundancy bits fill the low bits and the must-be-zero sentinel
    /// takes bit 7, so only layouts with at most 8 such bits have one.
    const fn column8(role: Role, check_bits: u32, map: Map) -> u8 {
        match (map, role) {
            (Map::Syndrome, Role::Zero) => {
                assert!(check_bits < 7, "no spare bit for the sentinel");
                0x80
            }
            (Map::Syndrome, _) => {
                let c = column(role, check_bits);
                assert!(c < 256);
                c as u8
            }
            (Map::Encode, Role::Payload(j)) => {
                let pos = data_bit_position(j) as u32;
                (pos | ((1 ^ (pos.count_ones() & 1)) << check_bits)) as u8
            }
            (Map::Encode, _) => 0,
        }
    }

    /// Nibble-split byte tables of one layout, shaped for `vpshufb`: byte
    /// `b` at byte position `p` contributes `lo[p][b & 15] ^ hi[p][b >> 4]`.
    /// Register `i` of a kernel holds byte position `2i` of 16 codewords in
    /// its low 128-bit lane and position `2i + 1` in its high lane, so the
    /// 16-entry tables are stored lane-paired the same way.
    pub(super) struct NibbleLut<const REGS: usize> {
        pub(super) lo: [[u8; 32]; REGS],
        pub(super) hi: [[u8; 32]; REGS],
    }

    const fn nibble_lut<const BITS: usize, const REGS: usize>(
        roles: [Role; BITS],
        check_bits: u32,
        map: Map,
    ) -> NibbleLut<REGS> {
        assert!(BITS == REGS * 16);
        let mut lut = NibbleLut {
            lo: [[0; 32]; REGS],
            hi: [[0; 32]; REGS],
        };
        let mut p = 0;
        while p < BITS / 8 {
            let mut n = 1usize;
            while n < 16 {
                let low = n & n.wrapping_neg();
                let bit = low.trailing_zeros() as usize;
                let at = (p % 2) * 16;
                lut.lo[p / 2][at + n] =
                    lut.lo[p / 2][at + (n ^ low)] ^ column8(roles[p * 8 + bit], check_bits, map);
                lut.hi[p / 2][at + n] = lut.hi[p / 2][at + (n ^ low)]
                    ^ column8(roles[p * 8 + 4 + bit], check_bits, map);
                n += 1;
            }
            p += 1;
        }
        lut
    }

    /// Syndrome of the SECDED64 vector codeword, nibble-split.
    pub(super) static VEC64_NIBBLES: NibbleLut<4> = nibble_lut(vec64_roles(), 6, Map::Syndrome);
    /// Redundancy byte of the SECDED64 vector codeword, nibble-split.
    pub(super) static VEC64_ENCODE: NibbleLut<4> = nibble_lut(vec64_roles(), 6, Map::Encode);
    /// Syndrome of the SECDED88 element codeword, nibble-split (registers
    /// 0–3 cover the value bytes, 4–5 the column bytes).
    pub(super) static ELEM88_NIBBLES: NibbleLut<6> = nibble_lut(elem88_roles(), 7, Map::Syndrome);
}

/// Full-codeword syndrome of one SECDED64 vector word: zero iff clean.
#[inline(always)]
fn vec64_syndrome(w: u64) -> u32 {
    let t = &tables::VEC64;
    let mut s = 0u32;
    let mut i = 0;
    while i < 8 {
        s ^= t[i * 256 + ((w >> (i * 8)) & 0xFF) as usize];
        i += 1;
    }
    s
}

/// Full-codeword syndrome of one SECDED128 vector pair: zero iff clean.
#[inline(always)]
fn vec128_syndrome(w0: u64, w1: u64) -> u32 {
    let t = &tables::VEC128;
    let mut s = 0u32;
    let mut i = 0;
    while i < 8 {
        s ^= t[i * 256 + ((w0 >> (i * 8)) & 0xFF) as usize];
        s ^= t[(8 + i) * 256 + ((w1 >> (i * 8)) & 0xFF) as usize];
        i += 1;
    }
    s
}

/// Full-codeword syndrome of one SECDED88 CSR element: zero iff clean.
#[inline(always)]
fn elem88_syndrome(value: f64, col: u32) -> u32 {
    let t = &tables::ELEM88;
    let v = value.to_bits();
    let mut s = 0u32;
    let mut i = 0;
    while i < 8 {
        s ^= t[i * 256 + ((v >> (i * 8)) & 0xFF) as usize];
        i += 1;
    }
    let mut i = 0;
    while i < 4 {
        s ^= t[(8 + i) * 256 + ((col >> (i * 8)) & 0xFF) as usize];
        i += 1;
    }
    s
}

/// Portable scalar reference implementations.
///
/// These are the semantics the dispatched kernels must reproduce exactly;
/// the differential tests compare every other implementation against them.
pub mod scalar {
    use super::*;

    /// Scalar [`super::sed_words_clean`].
    pub fn sed_words_clean(words: &[u64]) -> bool {
        // XOR-folding the whole run costs one op per word and detects any
        // odd number of per-word parity failures; it cannot certify a run
        // clean (two bad words cancel), so fold a *per-word* parity bit
        // into an accumulator instead.
        let mut acc = 0u64;
        for &w in words {
            acc |= fold_parity(w);
        }
        acc & 1 == 0
    }

    /// Parity of `w` folded into bit 0 (no popcount: the baseline ISA of
    /// the scalar tier may lack one).
    #[inline(always)]
    fn fold_parity(w: u64) -> u64 {
        let mut v = w;
        v ^= v >> 32;
        v ^= v >> 16;
        v ^= v >> 8;
        v ^= v >> 4;
        v ^= v >> 2;
        v ^= v >> 1;
        v & 1
    }

    /// Scalar [`super::sed_elements_clean`].
    pub fn sed_elements_clean(values: &[f64], cols: &[u32]) -> bool {
        let mut acc = 0u64;
        for (&v, &c) in values.iter().zip(cols) {
            acc |= fold_parity(v.to_bits() ^ c as u64);
        }
        acc & 1 == 0
    }

    /// Scalar [`super::secded64_words_clean`].
    pub fn secded64_words_clean(words: &[u64]) -> bool {
        let mut acc = 0u32;
        for &w in words {
            acc |= vec64_syndrome(w);
        }
        acc == 0
    }

    /// Scalar [`super::secded64_words_clean_xor`].
    pub fn secded64_words_clean_xor(words: &[u64], acc: &mut [u64]) -> bool {
        xor_into(acc, words);
        secded64_words_clean(words)
    }

    /// Scalar [`super::secded128_words_clean`].
    pub fn secded128_words_clean(words: &[u64]) -> bool {
        let mut acc = 0u32;
        for pair in words.chunks_exact(2) {
            acc |= vec128_syndrome(pair[0], pair[1]);
        }
        acc == 0
    }

    /// Scalar [`super::secded88_elements_clean`].
    pub fn secded88_elements_clean(values: &[f64], cols: &[u32]) -> bool {
        let mut acc = 0u32;
        for (&v, &c) in values.iter().zip(cols) {
            acc |= elem88_syndrome(v, c);
        }
        acc == 0
    }

    /// Scalar [`super::secded64_encode_words`]: one [`SECDED_56`] encode
    /// per word.
    pub fn secded64_encode_words(values: &[f64], out: &mut [u64]) {
        for (o, v) in out.iter_mut().zip(values) {
            let payload = v.to_bits() >> 8;
            *o = (payload << 8) | SECDED_56.encode(&[payload]) as u64;
        }
    }

    /// Portable [`super::crc32c_groups_clean`]: one `crc` checksum per
    /// group.
    pub fn crc32c_groups_clean(crc: &Crc32c, words: &[u64]) -> bool {
        words
            .chunks_exact(CRC_GROUP)
            .all(|g| crc_group_stored(g) == crc.checksum_words_masked(g, CRC_WORD_MASK))
    }

    /// Portable [`super::crc32c_entry_groups_clean`]: one `crc` checksum
    /// per group.
    pub fn crc32c_entry_groups_clean(crc: &Crc32c, entries: &[u32]) -> bool {
        entries.chunks_exact(CRC_ENTRY_GROUP).all(|g| {
            let words = [0, 1, 2, 3].map(|j| crc_entry_word(g, j));
            crc_entry_stored(g) == crc.checksum_words(&words)
        })
    }

    /// Portable [`super::crc32c_encode_groups`]: one `crc` checksum per
    /// group.
    pub fn crc32c_encode_groups(crc: &Crc32c, values: &[f64], out: &mut [u64]) {
        let groups = values.chunks_exact(CRC_GROUP);
        for (v, o) in groups.zip(out.chunks_exact_mut(CRC_GROUP)) {
            for (w, x) in o.iter_mut().zip(v) {
                *w = x.to_bits() & CRC_WORD_MASK;
            }
            let checksum = crc.checksum_words(o);
            for (j, w) in o.iter_mut().enumerate() {
                *w |= ((checksum >> (8 * j)) & 0xFF) as u64;
            }
        }
    }

    /// Portable [`super::crc32c_rows_clean`]: one `crc` checksum per row,
    /// its elements staged through a stack buffer so the slicing backends
    /// see contiguous runs of bytes.
    pub fn crc32c_rows_clean(crc: &Crc32c, values: &[f64], cols: &[u32], bounds: &[usize]) -> bool {
        /// Elements staged per `update` call.
        const STAGE: usize = 16;
        bounds.windows(2).all(|w| {
            let Some((v, c)) = crc_row(values, cols, w[0], w[1]) else {
                return false;
            };
            let mut state = !0u32;
            let mut buf = [0u8; STAGE * 12];
            for (v, c) in v.chunks(STAGE).zip(c.chunks(STAGE)) {
                for (slot, (x, col)) in buf.chunks_exact_mut(12).zip(v.iter().zip(c)) {
                    slot[..8].copy_from_slice(&x.to_bits().to_le_bytes());
                    slot[8..].copy_from_slice(&(col & CRC_COL_MASK).to_le_bytes());
                }
                state = crc.update(state, &buf[..v.len() * 12]);
            }
            !state == crc_row_stored(c)
        })
    }
}

/// CRC32C kernels on the CPU's CRC instruction (x86-64 SSE4.2, AArch64
/// CRC): `STREAMS` codewords are hashed at a time, one dependency chain
/// each, so the instruction's 3-cycle latency overlaps instead of
/// serialising, and every operand comes straight from a register — no byte
/// staging.  A `crc` configured with a software backend is handed to the
/// portable loop instead, so an explicit choice still computes with that
/// backend.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
mod crc_hw {
    use super::*;
    use crate::crc32c::hw::{step32, step64};

    /// Codewords in flight per step.
    const STREAMS: usize = 4;

    pub(super) fn crc32c_groups_clean(crc: &Crc32c, words: &[u64]) -> bool {
        groups_clean::<CRC_GROUP, _>(
            crc,
            || scalar::crc32c_groups_clean(crc, words),
            words,
            |group, j| group[j] & CRC_WORD_MASK,
            crc_group_stored,
        )
    }

    pub(super) fn crc32c_entry_groups_clean(crc: &Crc32c, entries: &[u32]) -> bool {
        groups_clean::<CRC_ENTRY_GROUP, _>(
            crc,
            || scalar::crc32c_entry_groups_clean(crc, entries),
            entries,
            crc_entry_word,
            crc_entry_stored,
        )
    }

    /// The one hardware entry of both group layouts: `run` is whole
    /// codewords of `GROUP` elements, `word(elements, j)` the `j`-th masked
    /// word hashed from a run of them and `stored(group)` the checksum a
    /// codeword stores.  A `crc` on a software backend runs `portable`
    /// instead.
    #[inline(always)]
    fn groups_clean<const GROUP: usize, T>(
        crc: &Crc32c,
        portable: impl FnOnce() -> bool,
        run: &[T],
        word: impl Fn(&[T], usize) -> u64,
        stored: impl Fn(&[T]) -> u32,
    ) -> bool {
        if !crc.is_hardware() {
            return portable();
        }
        // SAFETY: `is_hardware` is true only for a `Crc32c` built after the
        // CRC instruction was detected.
        unsafe { groups_clean_impl::<GROUP, T>(run, word, stored) }
    }

    /// Raw CRC states of `STREAMS` consecutive groups, `word(i)` giving the
    /// `i`-th masked word of the batch.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    #[inline]
    fn batch_states(word: impl Fn(usize) -> u64) -> [u32; STREAMS] {
        let mut states = [!0u32; STREAMS];
        for j in 0..CRC_GROUP {
            for (k, state) in states.iter_mut().enumerate() {
                *state = step64(*state, word(CRC_GROUP * k + j));
            }
        }
        states
    }

    /// Raw CRC state of one group on a single chain (batch tails).
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    #[inline]
    fn group_state(word: impl Fn(usize) -> u64) -> u32 {
        (0..CRC_GROUP).fold(!0, |state, j| step64(state, word(j)))
    }

    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    fn groups_clean_impl<const GROUP: usize, T>(
        run: &[T],
        word: impl Fn(&[T], usize) -> u64,
        stored: impl Fn(&[T]) -> u32,
    ) -> bool {
        // Every group's own mismatch is ORed in: nothing cancels across
        // codewords.
        let mut bad = 0u32;
        let mut batches = run.chunks_exact(GROUP * STREAMS);
        for batch in &mut batches {
            let states = batch_states(|i| word(batch, i));
            for (state, group) in states.iter().zip(batch.chunks_exact(GROUP)) {
                bad |= !state ^ stored(group);
            }
        }
        for group in batches.remainder().chunks_exact(GROUP) {
            bad |= !group_state(|j| word(group, j)) ^ stored(group);
        }
        bad == 0
    }

    pub(super) fn crc32c_encode_groups(crc: &Crc32c, values: &[f64], out: &mut [u64]) {
        if !crc.is_hardware() {
            return scalar::crc32c_encode_groups(crc, values, out);
        }
        // SAFETY: as in `crc32c_groups_clean`.
        unsafe { encode_groups_impl(values, out) }
    }

    /// Writes one group's codeword from its raw CRC state.
    #[inline(always)]
    fn store_group(values: &[f64], state: u32, out: &mut [u64]) {
        let checksum = !state;
        for (j, (w, v)) in out.iter_mut().zip(values).enumerate() {
            *w = (v.to_bits() & CRC_WORD_MASK) | ((checksum >> (8 * j)) & 0xFF) as u64;
        }
    }

    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    fn encode_groups_impl(values: &[f64], out: &mut [u64]) {
        const BATCH: usize = CRC_GROUP * STREAMS;
        let mut batches = values.chunks_exact(BATCH);
        let mut outs = out.chunks_exact_mut(BATCH);
        for (batch, out) in (&mut batches).zip(&mut outs) {
            let states = batch_states(|i| batch[i].to_bits() & CRC_WORD_MASK);
            let groups = batch.chunks_exact(CRC_GROUP);
            for ((v, state), o) in groups.zip(states).zip(out.chunks_exact_mut(CRC_GROUP)) {
                store_group(v, state, o);
            }
        }
        let groups = batches.remainder().chunks_exact(CRC_GROUP);
        for (v, o) in groups.zip(outs.into_remainder().chunks_exact_mut(CRC_GROUP)) {
            store_group(v, group_state(|j| v[j].to_bits() & CRC_WORD_MASK), o);
        }
    }

    pub(super) fn crc32c_rows_clean(
        crc: &Crc32c,
        values: &[f64],
        cols: &[u32],
        bounds: &[usize],
    ) -> bool {
        if !crc.is_hardware() {
            return scalar::crc32c_rows_clean(crc, values, cols, bounds);
        }
        // SAFETY: as in `crc32c_groups_clean`.
        unsafe { rows_clean_impl(values, cols, bounds) }
    }

    /// Advances `state` over the elements of (part of) one row.
    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    #[inline]
    fn row_state(state: u32, values: &[f64], cols: &[u32]) -> u32 {
        values.iter().zip(cols).fold(state, |state, (v, c)| {
            step32(step64(state, v.to_bits()), c & CRC_COL_MASK)
        })
    }

    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "sse4.2"))]
    #[cfg_attr(target_arch = "aarch64", target_feature(enable = "crc"))]
    fn rows_clean_impl(values: &[f64], cols: &[u32], bounds: &[usize]) -> bool {
        let rows = bounds.len().saturating_sub(1);
        let mut bad = 0u32;
        let mut r = 0;
        while r + STREAMS <= rows {
            // The batch's rows advance in lockstep over the length they
            // share — all of it when the rows are equally long, as stencil
            // rows are — and each finishes its own tail on one chain.
            let mut v = [&values[..0]; STREAMS];
            let mut c = [&cols[..0]; STREAMS];
            let mut shared = usize::MAX;
            for k in 0..STREAMS {
                let Some(row) = crc_row(values, cols, bounds[r + k], bounds[r + k + 1]) else {
                    return false;
                };
                (v[k], c[k]) = row;
                shared = shared.min(row.0.len());
            }
            let mut states = [!0u32; STREAMS];
            for e in 0..shared {
                for k in 0..STREAMS {
                    states[k] =
                        step32(step64(states[k], v[k][e].to_bits()), c[k][e] & CRC_COL_MASK);
                }
            }
            for k in 0..STREAMS {
                let state = row_state(states[k], &v[k][shared..], &c[k][shared..]);
                bad |= !state ^ crc_row_stored(c[k]);
            }
            r += STREAMS;
        }
        for w in bounds[r..].windows(2) {
            let Some((v, c)) = crc_row(values, cols, w[0], w[1]) else {
                return false;
            };
            bad |= !row_state(!0, v, c) ^ crc_row_stored(c);
        }
        bad == 0
    }
}

/// AVX2 kernels: 4-lane parity folds, in-register nibble-table (`vpshufb`)
/// syndromes and encode for the byte-wide SECDED layouts, and 8-lane
/// gathered lookups for SECDED128 (whose 9 syndrome bits do not fit the
/// byte tables).
///
/// The `vpshufb` kernels take 16 codewords per step.  A syndrome is
/// GF(2)-linear, so byte `b` at byte position `p` contributes
/// `lo[p][b & 15] ^ hi[p][b >> 4]` — two 16-entry byte tables, which is
/// exactly what `vpshufb` looks up 32-at-a-time from a register.  The 16
/// codewords are byte-transposed so each 128-bit lane holds one byte
/// position of all of them, every lane is looked up against its own pair of
/// tables, and the lanes are XOR-folded into 16 syndrome bytes: no memory
/// access beyond the codewords themselves, where the gathers these kernels
/// replace issued 8 loads per word.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::tables::{self, NibbleLut};
    use std::arch::x86_64::*;

    /// Element types the SIMD kernels load from: plain integers and floats,
    /// every bit pattern of which is initialised and valid.
    trait Pod: Copy {}
    impl Pod for u8 {}
    impl Pod for u32 {}
    impl Pod for u64 {}
    impl Pod for f64 {}

    /// Codewords per step of the `vpshufb` kernels.
    const BATCH: usize = 16;

    /// Unaligned load of the 32 bytes starting at element `at` of `src`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load32<T: Pod>(src: &[T], at: usize) -> __m256i {
        assert!((at + 32 / size_of::<T>()) <= src.len());
        // SAFETY: the assert keeps all 32 bytes read inside `src`, `T: Pod`
        // makes them initialised, and `loadu` has no alignment requirement.
        unsafe { _mm256_loadu_si256(src.as_ptr().add(at).cast()) }
    }

    /// Unaligned store of `v` over the 4 words starting at `dst[at]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn store32(dst: &mut [u64], at: usize, v: __m256i) {
        assert!(at + 4 <= dst.len());
        // SAFETY: the assert keeps all 32 bytes written inside `dst`, and
        // `storeu` has no alignment requirement.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().add(at).cast(), v) }
    }

    /// Folds the parity of each 64-bit lane into the lane's bit 0.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn fold_parity(mut v: __m256i) -> __m256i {
        v = _mm256_xor_si256(v, _mm256_srli_epi64::<32>(v));
        v = _mm256_xor_si256(v, _mm256_srli_epi64::<16>(v));
        v = _mm256_xor_si256(v, _mm256_srli_epi64::<8>(v));
        v = _mm256_xor_si256(v, _mm256_srli_epi64::<4>(v));
        v = _mm256_xor_si256(v, _mm256_srli_epi64::<2>(v));
        _mm256_xor_si256(v, _mm256_srli_epi64::<1>(v))
    }

    /// `true` when bit 0 of any 64-bit lane of `acc` is set.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn any_odd(acc: __m256i) -> bool {
        let odd = _mm256_and_si256(acc, _mm256_set1_epi64x(1));
        _mm256_testz_si256(odd, odd) == 0
    }

    /// 4-lane SED parity scan.
    pub(super) fn sed_words_clean(words: &[u64]) -> bool {
        // SAFETY: installed in the dispatch table only when AVX2 is
        // detected at runtime.
        unsafe { sed_words_clean_impl(words) }
    }

    #[target_feature(enable = "avx2")]
    fn sed_words_clean_impl(words: &[u64]) -> bool {
        let mut chunks = words.chunks_exact(4);
        let mut acc = _mm256_setzero_si256();
        for quad in &mut chunks {
            acc = _mm256_or_si256(acc, fold_parity(load32(quad, 0)));
        }
        let mut bad = any_odd(acc);
        for &w in chunks.remainder() {
            bad |= (w.count_ones() & 1) != 0;
        }
        !bad
    }

    /// 4-lane SED element-parity scan.
    pub(super) fn sed_elements_clean(values: &[f64], cols: &[u32]) -> bool {
        // SAFETY: installed only when AVX2 is detected.
        unsafe { sed_elements_clean_impl(values, cols) }
    }

    #[target_feature(enable = "avx2")]
    fn sed_elements_clean_impl(values: &[f64], cols: &[u32]) -> bool {
        let n = values.len().min(cols.len());
        let mut acc = _mm256_setzero_si256();
        let mut k = 0;
        while k + 4 <= n {
            let v = load32(values, k);
            let c = _mm256_setr_epi64x(
                cols[k] as i64,
                cols[k + 1] as i64,
                cols[k + 2] as i64,
                cols[k + 3] as i64,
            );
            acc = _mm256_or_si256(acc, fold_parity(_mm256_xor_si256(v, c)));
            k += 4;
        }
        let mut bad = any_odd(acc);
        while k < n {
            bad |= ((values[k].to_bits().count_ones() + cols[k].count_ones()) & 1) != 0;
            k += 1;
        }
        !bad
    }

    /// `[0, 2, 1, 3]` as a `vpermq` immediate: swaps the two middle 64-bit
    /// quarters, turning `[a.lo, b.lo | a.hi, b.hi]` into `[a | b]`.
    const MIDDLE_SWAP: i32 = 0b11_01_10_00;

    /// Byte-transposes 16 `u64` codewords (`r[q]` = codewords `4q..4q+4`):
    /// register `i` of the result holds byte `2i` of all 16 in its low lane
    /// and byte `2i + 1` in its high lane, the codewords of every lane in
    /// the order `0 1 4 5 8 9 12 13 2 3 6 7 10 11 14 15`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose_words(r: [__m256i; 4]) -> [__m256i; 4] {
        // Per lane (two codewords a, b): a0 b0 a1 b1 … a7 b7.
        let zip = _mm256_setr_epi8(
            0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15, //
            0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15,
        );
        let r = r.map(|v| _mm256_shuffle_epi8(v, zip));
        let (a_lo, a_hi) = (
            _mm256_unpacklo_epi16(r[0], r[1]),
            _mm256_unpackhi_epi16(r[0], r[1]),
        );
        let (b_lo, b_hi) = (
            _mm256_unpacklo_epi16(r[2], r[3]),
            _mm256_unpackhi_epi16(r[2], r[3]),
        );
        [
            _mm256_unpacklo_epi32(a_lo, b_lo),
            _mm256_unpackhi_epi32(a_lo, b_lo),
            _mm256_unpacklo_epi32(a_hi, b_hi),
            _mm256_unpackhi_epi32(a_hi, b_hi),
        ]
        .map(|v| _mm256_permute4x64_epi64::<MIDDLE_SWAP>(v))
    }

    /// Byte-transposes 16 `u32` columns (`c[q]` = columns `8q..8q+8`):
    /// register `i` holds byte `2i` | byte `2i + 1`, the columns of every
    /// lane in the order `0 1 2 3 8 9 10 11 4 5 6 7 12 13 14 15`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose_cols(c: [__m256i; 2]) -> [__m256i; 2] {
        // Per lane (four columns a–d): a0 b0 c0 d0 a1 b1 c1 d1 ….
        let zip = _mm256_setr_epi8(
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, //
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
        );
        let c = c.map(|v| _mm256_shuffle_epi8(v, zip));
        [
            _mm256_unpacklo_epi32(c[0], c[1]),
            _mm256_unpackhi_epi32(c[0], c[1]),
        ]
        .map(|v| _mm256_permute4x64_epi64::<MIDDLE_SWAP>(v))
    }

    /// XOR over the transposed registers `t` of both nibble lookups against
    /// `lut.lo[first..]` / `lut.hi[first..]`, lanes folded: every byte of
    /// the result (both lanes alike) is the whole map of one codeword.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lookup_fold<const N: usize, const REGS: usize>(
        t: [__m256i; N],
        lut: &NibbleLut<REGS>,
        first: usize,
    ) -> __m256i {
        let nibble = _mm256_set1_epi8(0x0F);
        let mut s = _mm256_setzero_si256();
        for (i, &v) in t.iter().enumerate() {
            let lo = _mm256_and_si256(v, nibble);
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), nibble);
            s = _mm256_xor_si256(s, _mm256_shuffle_epi8(load32(&lut.lo[first + i], 0), lo));
            s = _mm256_xor_si256(s, _mm256_shuffle_epi8(load32(&lut.hi[first + i], 0), hi));
        }
        _mm256_xor_si256(s, _mm256_permute2x128_si256::<1>(s, s))
    }

    /// Loads the four registers of one 16-codeword batch at `src[at..]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load_words<T: Pod>(src: &[T], at: usize) -> [__m256i; 4] {
        [0, 4, 8, 12].map(|q| load32(src, at + q))
    }

    /// Start of every 16-codeword batch covering `0..n` (`n ≥ 16`): whole
    /// batches, then one more ending at `n` when `n` is not a multiple —
    /// it overlaps its predecessor, which a pure function of the codewords
    /// can afford and a scalar tail loop cannot beat.
    fn batches(n: usize) -> impl Iterator<Item = usize> {
        (0..n / BATCH)
            .map(|b| b * BATCH)
            .chain((!n.is_multiple_of(BATCH)).then(|| n - BATCH))
    }

    pub(super) fn secded64_words_clean(words: &[u64]) -> bool {
        if words.len() < BATCH {
            return super::scalar::secded64_words_clean(words);
        }
        // SAFETY: installed only when AVX2 is detected.
        unsafe { secded64_words_clean_impl(words) }
    }

    #[target_feature(enable = "avx2")]
    fn secded64_words_clean_impl(words: &[u64]) -> bool {
        let mut acc = _mm256_setzero_si256();
        for at in batches(words.len()) {
            let t = transpose_words(load_words(words, at));
            // Every byte is one codeword's own syndrome: OR keeps each
            // failure visible, nothing cancels across codewords.
            acc = _mm256_or_si256(acc, lookup_fold(t, &tables::VEC64_NIBBLES, 0));
        }
        _mm256_testz_si256(acc, acc) != 0
    }

    pub(super) fn secded64_words_clean_xor(words: &[u64], acc: &mut [u64]) -> bool {
        if words.len() < BATCH {
            return super::scalar::secded64_words_clean_xor(words, acc);
        }
        // SAFETY: installed only when AVX2 is detected.
        unsafe { secded64_words_clean_xor_impl(words, acc) }
    }

    #[target_feature(enable = "avx2")]
    fn secded64_words_clean_xor_impl(words: &[u64], acc: &mut [u64]) -> bool {
        let whole = words.len() - words.len() % BATCH;
        let mut syndromes = _mm256_setzero_si256();
        for at in batches(words.len()) {
            let r = load_words(words, at);
            let t = transpose_words(r);
            syndromes = _mm256_or_si256(syndromes, lookup_fold(t, &tables::VEC64_NIBBLES, 0));
            // The overlapping last batch re-reads words already folded in.
            if at + BATCH <= whole {
                for (q, w) in r.into_iter().enumerate() {
                    let a = at + 4 * q;
                    store32(acc, a, _mm256_xor_si256(load32(acc, a), w));
                }
            }
        }
        super::xor_into(&mut acc[whole..], &words[whole..]);
        _mm256_testz_si256(syndromes, syndromes) != 0
    }

    pub(super) fn secded88_elements_clean(values: &[f64], cols: &[u32]) -> bool {
        let n = values.len().min(cols.len());
        if n < BATCH {
            return super::scalar::secded88_elements_clean(values, cols);
        }
        // SAFETY: installed only when AVX2 is detected.
        unsafe { secded88_elements_clean_impl(&values[..n], &cols[..n]) }
    }

    #[target_feature(enable = "avx2")]
    fn secded88_elements_clean_impl(values: &[f64], cols: &[u32]) -> bool {
        // The column partial syndromes come out in `transpose_cols` order;
        // this permutation brings them to `transpose_words` order.
        let align = _mm256_setr_epi8(
            0, 1, 8, 9, 4, 5, 12, 13, 2, 3, 10, 11, 6, 7, 14, 15, //
            0, 1, 8, 9, 4, 5, 12, 13, 2, 3, 10, 11, 6, 7, 14, 15,
        );
        let lut = &tables::ELEM88_NIBBLES;
        let mut acc = _mm256_setzero_si256();
        for at in batches(values.len()) {
            let v = lookup_fold(transpose_words(load_words(values, at)), lut, 0);
            let c = transpose_cols([load32(cols, at), load32(cols, at + 8)]);
            let c = _mm256_shuffle_epi8(lookup_fold(c, lut, 4), align);
            acc = _mm256_or_si256(acc, _mm256_xor_si256(v, c));
        }
        _mm256_testz_si256(acc, acc) != 0
    }

    pub(super) fn secded64_encode_words(values: &[f64], out: &mut [u64]) {
        if values.len() < BATCH {
            return super::scalar::secded64_encode_words(values, out);
        }
        // SAFETY: installed only when AVX2 is detected.
        unsafe { secded64_encode_words_impl(values, out) }
    }

    #[target_feature(enable = "avx2")]
    fn secded64_encode_words_impl(values: &[f64], out: &mut [u64]) {
        let payload = _mm256_set1_epi64x(!0xFF);
        // Output register q takes its four redundancy bytes from positions
        // 2q, 2q+1 (low lane) and 8+2q, 9+2q (high lane) of the folded
        // lookup (see `transpose_words` for the order) into byte 0 of each
        // word; index bytes with the top bit set write zero.
        let z = -128i8;
        let spread0 = _mm256_setr_epi8(
            0, z, z, z, z, z, z, z, 1, z, z, z, z, z, z, z, //
            8, z, z, z, z, z, z, z, 9, z, z, z, z, z, z, z,
        );
        let spread = [0, 2, 4, 6].map(|by| _mm256_add_epi8(spread0, _mm256_set1_epi8(by)));
        for at in batches(values.len()) {
            let r = load_words(values, at);
            let red = lookup_fold(transpose_words(r), &tables::VEC64_ENCODE, 0);
            for q in 0..4 {
                let word = _mm256_or_si256(
                    _mm256_and_si256(r[q], payload),
                    _mm256_shuffle_epi8(red, spread[q]),
                );
                store32(out, at + 4 * q, word);
            }
        }
    }

    /// Gathers the 8 per-byte-position table entries of one 64-bit storage
    /// word: lane `i` reads `table[(base + i) * 256 + byte_i(w)]`.
    ///
    /// Returns the 8 lanes un-reduced so callers can XOR several gathers
    /// before the horizontal fold.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn gather8<const SIZE: usize>(table: &'static [u32; SIZE], w: u64, base: usize) -> __m256i {
        assert!((base + 8) * 256 <= SIZE);
        // The 8 bytes of `w`, zero-extended to 32-bit lanes, plus the
        // byte-position offsets 0, 256, 512, … of the lanes.
        let idx = _mm256_add_epi32(
            _mm256_cvtepu8_epi32(_mm_set_epi64x(0, w as i64)),
            _mm256_add_epi32(
                _mm256_set1_epi32(base as i32 * 256),
                _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792),
            ),
        );
        // SAFETY: lane i indexes entry (base + i) * 256 + byte with
        // i < 8 and byte < 256, below the SIZE the assert bounds.
        unsafe { _mm256_i32gather_epi32::<4>(table.as_ptr().cast(), idx) }
    }

    /// Reduces one codeword's 8 syndrome lanes by XOR into every lane (so
    /// an OR with other codewords' reductions keeps per-codeword failures
    /// visible).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn xor_pairwise(v: __m256i) -> __m256i {
        let swapped = _mm256_permute4x64_epi64::<0b01_00_11_10>(v);
        let x = _mm256_xor_si256(v, swapped);
        let x = _mm256_xor_si256(x, _mm256_shuffle_epi32::<0b01_00_11_10>(x));
        _mm256_xor_si256(x, _mm256_shuffle_epi32::<0b10_11_00_01>(x))
    }

    pub(super) fn secded128_words_clean(words: &[u64]) -> bool {
        // SAFETY: installed only when AVX2 is detected.
        unsafe { secded128_words_clean_impl(words) }
    }

    #[target_feature(enable = "avx2")]
    fn secded128_words_clean_impl(words: &[u64]) -> bool {
        let table = &tables::VEC128;
        let mut chunks = words.chunks_exact(4);
        let mut acc = _mm256_setzero_si256();
        for quad in &mut chunks {
            // Two codeword pairs per step; lanes of one pair XOR together
            // (both gathers belong to the same codeword), pairs OR.
            let p0 = _mm256_xor_si256(gather8(table, quad[0], 0), gather8(table, quad[1], 8));
            let p1 = _mm256_xor_si256(gather8(table, quad[2], 0), gather8(table, quad[3], 8));
            acc = _mm256_or_si256(acc, _mm256_or_si256(xor_pairwise(p0), xor_pairwise(p1)));
        }
        let mut bad = _mm256_testz_si256(acc, acc) == 0;
        let rem = chunks.remainder();
        if rem.len() == 2 {
            bad |= super::vec128_syndrome(rem[0], rem[1]) != 0;
        }
        !bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitops::low_mask;
    use crate::secded::{SECDED_118, SECDED_56, SECDED_88};

    /// Deterministic pattern generator.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Encodes a clean SECDED64 vector word from raw payload bits.
    fn encode_vec64(payload56: u64) -> u64 {
        let payload = payload56 & low_mask(56);
        let red = SECDED_56.encode(&[payload]) as u64;
        (payload << 8) | red
    }

    /// Encodes a clean SECDED128 vector pair from raw payload bits.
    fn encode_vec128(p0: u64, p1: u64) -> (u64, u64) {
        let b0 = p0 & low_mask(59);
        let b1 = p1 & low_mask(59);
        let payload = [b0 | (b1 << 59), b1 >> 5];
        let red = SECDED_118.encode(&payload) as u64;
        ((b0 << 5) | (red & 0x1F), (b1 << 5) | ((red >> 5) & 0x07))
    }

    /// Encodes a clean SECDED88 element (value untouched, redundancy in the
    /// column's top byte).
    fn encode_elem88(value: f64, col24: u32) -> (f64, u32) {
        let col = col24 & 0x00FF_FFFF;
        let payload = [value.to_bits(), col as u64];
        let red = SECDED_88.encode(&payload) as u32;
        (value, col | (red << 24))
    }

    type WordImpl = (&'static str, fn(&[u64]) -> bool);
    type ElementImpl = (&'static str, fn(&[f64], &[u32]) -> bool);

    /// All implementations that must agree for a given predicate.
    fn word_impls(which: &str) -> Vec<WordImpl> {
        let mut impls: Vec<WordImpl> = Vec::new();
        match which {
            "sed" => {
                impls.push(("dispatch", sed_words_clean as fn(&[u64]) -> bool));
                impls.push(("scalar", scalar::sed_words_clean));
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    impls.push(("avx2", avx2::sed_words_clean));
                }
            }
            "secded64" => {
                impls.push(("dispatch", secded64_words_clean as fn(&[u64]) -> bool));
                impls.push(("scalar", scalar::secded64_words_clean));
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    impls.push(("avx2", avx2::secded64_words_clean));
                }
            }
            "secded128" => {
                impls.push(("dispatch", secded128_words_clean as fn(&[u64]) -> bool));
                impls.push(("scalar", scalar::secded128_words_clean));
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    impls.push(("avx2", avx2::secded128_words_clean));
                }
            }
            other => panic!("unknown predicate {other}"),
        }
        impls
    }

    fn element_impls() -> Vec<ElementImpl> {
        let mut impls: Vec<ElementImpl> = vec![
            ("dispatch", secded88_elements_clean),
            ("scalar", scalar::secded88_elements_clean),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            impls.push(("avx2", avx2::secded88_elements_clean));
        }
        impls
    }

    #[test]
    fn vec64_syndrome_matches_group_verify() {
        let mut x = 0x1234_5678u64;
        for _ in 0..200 {
            let w = encode_vec64(xorshift(&mut x));
            assert_eq!(vec64_syndrome(w), 0, "clean word {w:#x}");
            for bit in 0..64 {
                let bad = w ^ (1u64 << bit);
                let expect = bad & 0x80 == 0 && SECDED_56.verify(&[bad >> 8], (bad & 0x7F) as u16);
                assert_eq!(vec64_syndrome(bad) == 0, expect, "bit {bit} of {w:#x}");
            }
        }
    }

    #[test]
    fn vec128_syndrome_matches_group_verify() {
        let mut x = 0xDEAD_BEEFu64;
        for _ in 0..100 {
            let (w0, w1) = encode_vec128(xorshift(&mut x), xorshift(&mut x));
            assert_eq!(vec128_syndrome(w0, w1), 0);
            for bit in 0..128 {
                let (mut b0, mut b1) = (w0, w1);
                if bit < 64 {
                    b0 ^= 1u64 << bit;
                } else {
                    b1 ^= 1u64 << (bit - 64);
                }
                let payload = [(b0 >> 5) | (b1 >> 5) << 59, (b1 >> 5) >> 5];
                let stored = ((b0 & 0x1F) | ((b1 & 0x07) << 5)) as u16;
                let expect = b1 & 0x18 == 0 && SECDED_118.verify(&payload, stored);
                assert_eq!(vec128_syndrome(b0, b1) == 0, expect, "bit {bit}");
            }
        }
    }

    #[test]
    fn elem88_syndrome_matches_code_verify() {
        let mut x = 0xABCDu64;
        for _ in 0..100 {
            let value = f64::from_bits(xorshift(&mut x));
            let (v, c) = encode_elem88(value, xorshift(&mut x) as u32);
            assert_eq!(elem88_syndrome(v, c), 0);
            for bit in 0..96 {
                let (mut vb, mut cb) = (v.to_bits(), c);
                if bit < 64 {
                    vb ^= 1u64 << bit;
                } else {
                    cb ^= 1u32 << (bit - 64);
                }
                let payload = [vb, (cb & 0x00FF_FFFF) as u64];
                let expect = SECDED_88.verify(&payload, (cb >> 24) as u16);
                assert_eq!(
                    elem88_syndrome(f64::from_bits(vb), cb) == 0,
                    expect,
                    "bit {bit}"
                );
            }
        }
    }

    #[test]
    fn all_word_impls_agree_on_random_runs_and_faults() {
        let mut x = 7u64;
        for which in ["sed", "secded64", "secded128"] {
            let impls = word_impls(which);
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 31, 64, 127] {
                let len = if which == "secded128" { len & !1 } else { len };
                let mut words: Vec<u64> = (0..len)
                    .map(|_| match which {
                        "sed" => {
                            let p = xorshift(&mut x) & !1;
                            p | (p.count_ones() as u64 & 1)
                        }
                        "secded64" => encode_vec64(xorshift(&mut x)),
                        _ => 0,
                    })
                    .collect();
                if which == "secded128" {
                    for pair in words.chunks_exact_mut(2) {
                        let (w0, w1) = encode_vec128(xorshift(&mut x), xorshift(&mut x));
                        pair[0] = w0;
                        pair[1] = w1;
                    }
                }
                for (name, f) in &impls {
                    assert!(f(&words), "{which}/{name} clean len={len}");
                }
                if len == 0 {
                    continue;
                }
                // Single- and double-bit faults anywhere must produce the
                // same verdict from every implementation.
                for trial in 0..20 {
                    let mut bad = words.clone();
                    let i = (xorshift(&mut x) as usize) % len;
                    bad[i] ^= 1u64 << (xorshift(&mut x) % 64);
                    if trial % 2 == 0 {
                        let j = (xorshift(&mut x) as usize) % len;
                        bad[j] ^= 1u64 << (xorshift(&mut x) % 64);
                    }
                    let reference = impls[1].1(&bad);
                    for (name, f) in &impls {
                        assert_eq!(f(&bad), reference, "{which}/{name} len={len} trial={trial}");
                    }
                }
            }
        }
    }

    #[test]
    fn secded64_clean_xor_matches_the_scalar_reference() {
        type XorImpl = (&'static str, fn(&[u64], &mut [u64]) -> bool);
        let mut impls: Vec<XorImpl> = vec![("dispatch", secded64_words_clean_xor)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            impls.push(("avx2", avx2::secded64_words_clean_xor));
        }
        let mut x = 11u64;
        // Around every batch edge: short runs, whole batches, and runs whose
        // last batch overlaps its predecessor (words it must not XOR twice).
        for len in [0usize, 1, 5, 15, 16, 17, 31, 32, 33, 47, 100, 1024] {
            let clean: Vec<u64> = (0..len).map(|_| encode_vec64(xorshift(&mut x))).collect();
            let seed: Vec<u64> = (0..len).map(|_| xorshift(&mut x)).collect();
            let mut runs = vec![clean.clone()];
            for trial in 0..len.min(12) {
                let mut bad = clean.clone();
                for _ in 0..1 + trial % 2 {
                    bad[(xorshift(&mut x) as usize) % len] ^= 1u64 << (xorshift(&mut x) % 64);
                }
                runs.push(bad);
            }
            for run in &runs {
                let mut want = seed.clone();
                let verdict = scalar::secded64_words_clean_xor(run, &mut want);
                assert_eq!(verdict, scalar::secded64_words_clean(run));
                for (name, f) in &impls {
                    let mut got = seed.clone();
                    assert_eq!(f(run, &mut got), verdict, "{name} len={len}");
                    assert_eq!(got, want, "{name} len={len}");
                }
            }
        }
    }

    #[test]
    fn all_element_impls_agree_on_random_runs_and_faults() {
        let impls = element_impls();
        let mut x = 99u64;
        for len in [0usize, 1, 2, 3, 5, 8, 13, 64, 129] {
            let mut values = Vec::new();
            let mut cols = Vec::new();
            for _ in 0..len {
                let (v, c) =
                    encode_elem88(f64::from_bits(xorshift(&mut x)), xorshift(&mut x) as u32);
                values.push(v);
                cols.push(c);
            }
            for (name, f) in &impls {
                assert!(f(&values, &cols), "{name} clean len={len}");
            }
            if len == 0 {
                continue;
            }
            for trial in 0..20 {
                let mut bv = values.clone();
                let mut bc = cols.clone();
                let i = (xorshift(&mut x) as usize) % len;
                let bit = xorshift(&mut x) % 96;
                if bit < 64 {
                    bv[i] = f64::from_bits(bv[i].to_bits() ^ (1u64 << bit));
                } else {
                    bc[i] ^= 1u32 << (bit - 64);
                }
                if trial % 2 == 0 {
                    let j = (xorshift(&mut x) as usize) % len;
                    bv[j] = f64::from_bits(bv[j].to_bits() ^ (1u64 << (xorshift(&mut x) % 64)));
                }
                let reference = impls[1].1(&bv, &bc);
                for (name, f) in &impls {
                    assert_eq!(f(&bv, &bc), reference, "{name} len={len} trial={trial}");
                }
            }
        }
    }

    /// A clean run of SECDED64 words and one of SECDED88 elements.
    fn clean_runs(len: usize, x: &mut u64) -> (Vec<u64>, Vec<f64>, Vec<u32>) {
        let words = (0..len).map(|_| encode_vec64(xorshift(x))).collect();
        let (values, cols) = (0..len)
            .map(|_| encode_elem88(f64::from_bits(xorshift(x)), xorshift(x) as u32))
            .unzip();
        (words, values, cols)
    }

    /// Flips raw bit `bit` (0–63 value, 64–95 column) of element `i`.
    fn flip_element(values: &mut [f64], cols: &mut [u32], i: usize, bit: usize) {
        if bit < 64 {
            values[i] = f64::from_bits(values[i].to_bits() ^ (1u64 << bit));
        } else {
            cols[i] ^= 1u32 << (bit - 64);
        }
    }

    #[test]
    fn every_bit_of_every_batch_slot_is_seen() {
        // 16 fills one in-register batch exactly; 33 adds a second batch
        // and the overlapped tail batch.
        let mut x = 0x5EED_0001u64;
        for len in [16usize, 33] {
            let (words, values, cols) = clean_runs(len, &mut x);
            for slot in 0..len {
                for bit in 0..64 {
                    let mut bad = words.clone();
                    bad[slot] ^= 1u64 << bit;
                    assert!(!scalar::secded64_words_clean(&bad));
                    for (name, f) in word_impls("secded64") {
                        assert!(!f(&bad), "{name} len={len} slot={slot} bit={bit}");
                    }
                }
                for bit in 0..96 {
                    let (mut bv, mut bc) = (values.clone(), cols.clone());
                    flip_element(&mut bv, &mut bc, slot, bit);
                    assert!(!scalar::secded88_elements_clean(&bv, &bc));
                    for (name, f) in element_impls() {
                        assert!(!f(&bv, &bc), "{name} len={len} slot={slot} bit={bit}");
                    }
                }
            }
        }
    }

    #[test]
    fn equal_flips_in_two_codewords_of_a_batch_do_not_cancel() {
        let mut x = 0x5EED_0002u64;
        let (words, values, cols) = clean_runs(16, &mut x);
        for a in 0..16 {
            for b in a + 1..16 {
                for bit in (0..64).step_by(7) {
                    let mut bad = words.clone();
                    bad[a] ^= 1u64 << bit;
                    bad[b] ^= 1u64 << bit;
                    for (name, f) in word_impls("secded64") {
                        assert!(!f(&bad), "{name} words {a},{b} bit {bit}");
                    }
                }
                for bit in (0..96).step_by(5) {
                    let (mut bv, mut bc) = (values.clone(), cols.clone());
                    flip_element(&mut bv, &mut bc, a, bit);
                    flip_element(&mut bv, &mut bc, b, bit);
                    for (name, f) in element_impls() {
                        assert!(!f(&bv, &bc), "{name} elements {a},{b} bit {bit}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_length_and_offset_agrees_with_scalar() {
        let mut x = 0x5EED_0003u64;
        let (words, values, cols) = clean_runs(16 + 33, &mut x);
        for offset in 0..16 {
            for len in 0..=33 {
                let w = &words[offset..offset + len];
                let (v, c) = (&values[offset..offset + len], &cols[offset..offset + len]);
                for (name, f) in word_impls("secded64") {
                    assert!(f(w), "{name} clean offset={offset} len={len}");
                }
                for (name, f) in element_impls() {
                    assert!(f(v, c), "{name} clean offset={offset} len={len}");
                }
                if len == 0 {
                    continue;
                }
                // One single and one double flip per window.
                let i = (xorshift(&mut x) as usize) % len;
                let (b0, b1) = (xorshift(&mut x) % 64, xorshift(&mut x) % 64);
                let mut bad = w.to_vec();
                for (round, bit) in [b0, b1].into_iter().enumerate() {
                    bad[i] ^= 1u64 << bit;
                    let reference = scalar::secded64_words_clean(&bad);
                    for (name, f) in word_impls("secded64") {
                        assert_eq!(f(&bad), reference, "{name} {offset}+{len} round {round}");
                    }
                }
                let (mut bv, mut bc) = (v.to_vec(), c.to_vec());
                for (round, bit) in [b0 as usize, 64 + b1 as usize % 32].into_iter().enumerate() {
                    flip_element(&mut bv, &mut bc, i, bit);
                    let reference = scalar::secded88_elements_clean(&bv, &bc);
                    for (name, f) in element_impls() {
                        assert_eq!(
                            f(&bv, &bc),
                            reference,
                            "{name} {offset}+{len} round {round}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_encode_is_bit_identical_to_the_per_word_encoder() {
        type EncodeImpl = (&'static str, fn(&[f64], &mut [u64]));
        let mut impls: Vec<EncodeImpl> = vec![
            ("dispatch", secded64_encode_words),
            ("scalar", scalar::secded64_encode_words),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            impls.push(("avx2", avx2::secded64_encode_words));
        }
        let mut x = 0x5EED_0004u64;
        // Low bytes are random too: stale redundancy must not leak in.
        let values: Vec<f64> = (0..100_000)
            .map(|_| f64::from_bits(xorshift(&mut x)))
            .collect();
        let expect: Vec<u64> = values
            .iter()
            .map(|v| encode_vec64(v.to_bits() >> 8))
            .collect();
        for (name, f) in &impls {
            let mut out = vec![0u64; values.len()];
            f(&values, &mut out);
            assert!(out == expect, "{name}: 100000 payloads");
            for offset in 0..16 {
                for len in 0..=33 {
                    let mut out = vec![u64::MAX; len];
                    f(&values[offset..offset + len], &mut out);
                    assert_eq!(out, expect[offset..offset + len], "{name} {offset}+{len}");
                }
            }
        }
    }

    type CrcGroupsFn = fn(&Crc32c, &[u64]) -> bool;
    type CrcEntryGroupsFn = fn(&Crc32c, &[u32]) -> bool;
    type CrcEncodeFn = fn(&Crc32c, &[f64], &mut [u64]);
    type CrcRowsFn = fn(&Crc32c, &[f64], &[u32], &[usize]) -> bool;

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    use super::crc_hw as hardware_tier;
    // Never selected: `hardware_available` is false on such targets.
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    use super::scalar as hardware_tier;

    /// Every way one CRC32C kernel can be reached, given its `[dispatched,
    /// portable, hardware]` entry points: each with the calculators that
    /// matter there, the hardware tier only on a host with the instruction.
    fn crc_impls<F: Copy>(
        [dispatch, portable, hardware]: [F; 3],
    ) -> Vec<(&'static str, F, Crc32c)> {
        use crate::crc32c::Crc32cBackend::*;
        let mut impls = vec![
            ("dispatch/auto", dispatch, Crc32c::auto()),
            ("dispatch/naive", dispatch, Crc32c::new(Naive)),
            ("dispatch/by8", dispatch, Crc32c::new(SlicingBy8)),
            ("portable/auto", portable, Crc32c::auto()),
            ("portable/by4", portable, Crc32c::new(SlicingBy4)),
            ("portable/by16", portable, Crc32c::new(SlicingBy16)),
        ];
        if crate::crc32c::hardware_available() {
            impls.push(("hardware", hardware, Crc32c::new(Hardware)));
            // A software backend handed to the hardware tier computes with
            // that backend.
            impls.push(("hardware/by8", hardware, Crc32c::new(SlicingBy8)));
        }
        impls
    }

    fn crc_groups_impls() -> Vec<(&'static str, CrcGroupsFn, Crc32c)> {
        crc_impls([
            crc32c_groups_clean,
            scalar::crc32c_groups_clean,
            hardware_tier::crc32c_groups_clean,
        ])
    }

    fn crc_entry_groups_impls() -> Vec<(&'static str, CrcEntryGroupsFn, Crc32c)> {
        crc_impls([
            crc32c_entry_groups_clean,
            scalar::crc32c_entry_groups_clean,
            hardware_tier::crc32c_entry_groups_clean,
        ])
    }

    fn crc_encode_impls() -> Vec<(&'static str, CrcEncodeFn, Crc32c)> {
        crc_impls([
            crc32c_encode_groups,
            scalar::crc32c_encode_groups,
            hardware_tier::crc32c_encode_groups,
        ])
    }

    fn crc_rows_impls() -> Vec<(&'static str, CrcRowsFn, Crc32c)> {
        crc_impls([
            crc32c_rows_clean,
            scalar::crc32c_rows_clean,
            hardware_tier::crc32c_rows_clean,
        ])
    }

    /// The bit-at-a-time reference every kernel is held to.
    fn naive_crc(bytes: &[u8]) -> u32 {
        Crc32c::new(crate::crc32c::Crc32cBackend::Naive).checksum(bytes)
    }

    /// The clean dense-vector codeword of four values, one reference
    /// checksum per codeword.
    fn encode_crc_group(values: &[f64]) -> [u64; 4] {
        let mut words = [0u64; 4];
        let mut bytes = Vec::new();
        for (w, v) in words.iter_mut().zip(values) {
            *w = v.to_bits() & !0xFF;
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let checksum = naive_crc(&bytes);
        for (j, w) in words.iter_mut().enumerate() {
            *w |= ((checksum >> (8 * j)) & 0xFF) as u64;
        }
        words
    }

    /// Reference verdict on a run of dense-vector codewords.
    fn crc_groups_reference(words: &[u64]) -> bool {
        words.chunks_exact(4).all(|g| {
            let values: Vec<f64> = g.iter().map(|&w| f64::from_bits(w)).collect();
            encode_crc_group(&values)[..] == *g
        })
    }

    /// The clean row-pointer codeword of eight entries' 28-bit payloads:
    /// the reference checksum of their little-endian bytes, top nibbles
    /// cleared, stored nibble `j` in entry `j`.
    fn encode_crc_entry_group(entries: &[u32]) -> Vec<u32> {
        let payloads: Vec<u32> = entries.iter().map(|e| e & 0x0FFF_FFFF).collect();
        let bytes: Vec<u8> = payloads.iter().flat_map(|e| e.to_le_bytes()).collect();
        let checksum = naive_crc(&bytes);
        let nibble = |j: usize| ((checksum >> (4 * j)) & 0xF) << 28;
        payloads
            .iter()
            .enumerate()
            .map(|(j, e)| e | nibble(j))
            .collect()
    }

    /// Clean row-pointer codewords from random payloads.
    fn encode_crc_entries(groups: usize, x: &mut u64) -> Vec<u32> {
        let raw: Vec<u32> = (0..8 * groups).map(|_| xorshift(x) as u32).collect();
        raw.chunks(8).flat_map(encode_crc_entry_group).collect()
    }

    /// Reference verdict on a run of row-pointer codewords.
    fn crc_entry_groups_reference(entries: &[u32]) -> bool {
        entries
            .chunks_exact(8)
            .all(|g| encode_crc_entry_group(g) == g)
    }

    /// Clean row-wide codewords for rows of the given lengths: values,
    /// encoded columns and row bounds, one reference checksum per row.
    fn encode_crc_rows(lens: &[usize], x: &mut u64) -> (Vec<f64>, Vec<u32>, Vec<usize>) {
        let (mut values, mut cols, mut bounds) = (Vec::new(), Vec::new(), vec![0usize]);
        for &len in lens {
            let start = values.len();
            let mut bytes = Vec::new();
            for _ in 0..len {
                let (v, c) = (xorshift(x), xorshift(x) as u32 & 0x00FF_FFFF);
                values.push(f64::from_bits(v));
                cols.push(c);
                bytes.extend_from_slice(&v.to_le_bytes());
                bytes.extend_from_slice(&c.to_le_bytes());
            }
            let checksum = naive_crc(&bytes);
            for j in 0..4 {
                cols[start + j] |= ((checksum >> (8 * j)) & 0xFF) << 24;
            }
            bounds.push(values.len());
        }
        (values, cols, bounds)
    }

    /// Reference verdict on a block of row-wide codewords.
    fn crc_rows_reference(values: &[f64], cols: &[u32], bounds: &[usize]) -> bool {
        bounds.windows(2).all(|w| {
            let mut bytes = Vec::new();
            for k in w[0]..w[1] {
                bytes.extend_from_slice(&values[k].to_bits().to_le_bytes());
                bytes.extend_from_slice(&(cols[k] & 0x00FF_FFFF).to_le_bytes());
            }
            let stored = (0..4).fold(0u32, |acc, j| acc | (cols[w[0] + j] >> 24) << (8 * j));
            naive_crc(&bytes) == stored
        })
    }

    /// Row lengths cycling through 4..=9 in no particular order.
    fn mixed_row_lens(rows: usize, x: &mut u64) -> Vec<usize> {
        (0..rows).map(|_| 4 + (xorshift(x) % 6) as usize).collect()
    }

    #[test]
    fn crc32c_kernels_equal_the_naive_checksum_per_codeword() {
        let mut x = 0x5EED_0010u64;
        // Runs of 0..=17 codewords starting 0..4 codewords into a longer
        // one: every phase of the four-in-flight batches and their tails.
        let values: Vec<f64> = (0..4 * 21)
            .map(|_| f64::from_bits(xorshift(&mut x)))
            .collect();
        let words: Vec<u64> = values.chunks(4).flat_map(encode_crc_group).collect();
        let entries = encode_crc_entries(21, &mut x);
        let lens = mixed_row_lens(21, &mut x);
        let (rv, rc, rb) = encode_crc_rows(&lens, &mut x);
        for offset in 0..4 {
            for len in 0..=17 {
                let label = format!("offset {offset} len {len}");
                let w = &words[4 * offset..4 * (offset + len)];
                for (name, f, crc) in crc_groups_impls() {
                    assert!(f(&crc, w), "{name} clean groups {label}");
                }
                let e = &entries[8 * offset..8 * (offset + len)];
                for (name, f, crc) in crc_entry_groups_impls() {
                    assert!(f(&crc, e), "{name} clean entry groups {label}");
                }
                for (name, f, crc) in crc_encode_impls() {
                    let mut out = vec![u64::MAX; 4 * len];
                    f(&crc, &values[4 * offset..4 * (offset + len)], &mut out);
                    assert_eq!(out, w, "{name} encode {label}");
                }
                let b = &rb[offset..=offset + len];
                for (name, f, crc) in crc_rows_impls() {
                    assert!(f(&crc, &rv, &rc, b), "{name} clean rows {label}");
                }
                if len == 0 {
                    continue;
                }
                // One single and one double flip per window.
                let mut bad = w.to_vec();
                let mut bad_entries = e.to_vec();
                let (mut bv, mut bc) = (rv.clone(), rc.clone());
                let word = (xorshift(&mut x) as usize) % bad.len();
                let entry = (xorshift(&mut x) as usize) % bad_entries.len();
                let element = b[0] + (xorshift(&mut x) as usize) % (b[len] - b[0]);
                for round in 0..2 {
                    bad[word] ^= 1u64 << (xorshift(&mut x) % 64);
                    let reference = crc_groups_reference(&bad);
                    for (name, f, crc) in crc_groups_impls() {
                        assert_eq!(f(&crc, &bad), reference, "{name} groups {label} #{round}");
                    }
                    bad_entries[entry] ^= 1u32 << (xorshift(&mut x) % 32);
                    let reference = crc_entry_groups_reference(&bad_entries);
                    for (name, f, crc) in crc_entry_groups_impls() {
                        let verdict = f(&crc, &bad_entries);
                        assert_eq!(verdict, reference, "{name} entry groups {label} #{round}");
                    }
                    flip_element(&mut bv, &mut bc, element, (xorshift(&mut x) % 96) as usize);
                    let reference = crc_rows_reference(&bv, &bc, b);
                    for (name, f, crc) in crc_rows_impls() {
                        assert_eq!(
                            f(&crc, &bv, &bc, b),
                            reference,
                            "{name} rows {label} #{round}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_bit_of_every_crc32c_codeword_is_seen() {
        // 4 fills the in-flight batch exactly, 5 adds a one-chain tail, 17
        // makes four batches and a tail.
        let mut x = 0x5EED_0011u64;
        for run in [4usize, 5, 17] {
            let values: Vec<f64> = (0..4 * run)
                .map(|_| f64::from_bits(xorshift(&mut x)))
                .collect();
            let words: Vec<u64> = values.chunks(4).flat_map(encode_crc_group).collect();
            for slot in 0..words.len() {
                for bit in 0..64 {
                    let mut bad = words.clone();
                    bad[slot] ^= 1u64 << bit;
                    for (name, f, crc) in crc_groups_impls() {
                        assert!(!f(&crc, &bad), "{name} run={run} slot={slot} bit={bit}");
                    }
                }
            }
            // 28 payload bits and the checksum nibble of every entry.
            let entries = encode_crc_entries(run, &mut x);
            for slot in 0..entries.len() {
                for bit in 0..32 {
                    let mut bad = entries.clone();
                    bad[slot] ^= 1u32 << bit;
                    for (name, f, crc) in crc_entry_groups_impls() {
                        assert!(!f(&crc, &bad), "{name} run={run} entry={slot} bit={bit}");
                    }
                }
            }
            let lens = mixed_row_lens(run, &mut x);
            let (rv, rc, rb) = encode_crc_rows(&lens, &mut x);
            for row in 0..run {
                for element in rb[row]..rb[row + 1] {
                    for bit in 0..96 {
                        let (mut bv, mut bc) = (rv.clone(), rc.clone());
                        flip_element(&mut bv, &mut bc, element, bit);
                        // The spare byte of a row's fifth and later columns
                        // holds nothing and is masked out of the codeword.
                        let spare = bit >= 88 && element >= rb[row] + 4;
                        for (name, f, crc) in crc_rows_impls() {
                            assert_eq!(
                                f(&crc, &bv, &bc, &rb),
                                spare,
                                "{name} run={run} element={element} bit={bit}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn equal_flips_in_two_crc32c_codewords_of_a_batch_do_not_cancel() {
        let mut x = 0x5EED_0012u64;
        let values: Vec<f64> = (0..16).map(|_| f64::from_bits(xorshift(&mut x))).collect();
        let words: Vec<u64> = values.chunks(4).flat_map(encode_crc_group).collect();
        let entries = encode_crc_entries(4, &mut x);
        let (rv, rc, rb) = encode_crc_rows(&[5, 5, 7, 4], &mut x);
        for a in 0..4 {
            for b in a + 1..4 {
                for bit in (0..64).step_by(5) {
                    let mut bad = words.clone();
                    bad[4 * a + 1] ^= 1u64 << bit;
                    bad[4 * b + 1] ^= 1u64 << bit;
                    for (name, f, crc) in crc_groups_impls() {
                        assert!(!f(&crc, &bad), "{name} groups {a},{b} bit {bit}");
                    }
                }
                for bit in 0..32 {
                    let mut bad = entries.clone();
                    bad[8 * a + 3] ^= 1u32 << bit;
                    bad[8 * b + 3] ^= 1u32 << bit;
                    for (name, f, crc) in crc_entry_groups_impls() {
                        assert!(!f(&crc, &bad), "{name} entry groups {a},{b} bit {bit}");
                    }
                }
                for bit in (0..88).step_by(5) {
                    let (mut bv, mut bc) = (rv.clone(), rc.clone());
                    flip_element(&mut bv, &mut bc, rb[a] + 2, bit);
                    flip_element(&mut bv, &mut bc, rb[b] + 2, bit);
                    for (name, f, crc) in crc_rows_impls() {
                        assert!(!f(&crc, &bv, &bc, &rb), "{name} rows {a},{b} bit {bit}");
                    }
                }
            }
        }
    }

    #[test]
    fn crc32c_rows_that_cannot_hold_a_codeword_are_not_clean() {
        let mut x = 0x5EED_0013u64;
        let (rv, rc, rb) = encode_crc_rows(&[5, 6, 4, 7, 5], &mut x);
        let n = rv.len();
        for (name, f, crc) in crc_rows_impls() {
            assert!(f(&crc, &rv, &rc, &rb), "{name}");
            assert!(f(&crc, &rv, &rc, &[]), "{name} no bounds");
            assert!(f(&crc, &rv, &rc, &[3]), "{name} no rows");
            // Shorter than four entries, backwards, past the arrays.
            for bounds in [
                &[0usize, 3][..],
                &[5, 0],
                &[n - 4, n + 1],
                &[0, 5, 11, 13, 22, 27],
            ] {
                assert!(!f(&crc, &rv, &rc, bounds), "{name} {bounds:?}");
            }
        }
    }

    #[test]
    fn crc32c_batched_encode_is_bit_identical_to_the_per_group_encoder() {
        let mut x = 0x5EED_0014u64;
        // Low bytes are random too: stale redundancy must not leak in.
        let values: Vec<f64> = (0..100_000)
            .map(|_| f64::from_bits(xorshift(&mut x)))
            .collect();
        let expect: Vec<u64> = values.chunks(4).flat_map(encode_crc_group).collect();
        for (name, f, crc) in crc_encode_impls() {
            let mut out = vec![0u64; values.len()];
            f(&crc, &values, &mut out);
            assert!(out == expect, "{name}: 100000 payloads");
            for (gname, g, gcrc) in crc_groups_impls() {
                assert!(g(&gcrc, &out), "{name} -> {gname}");
            }
        }
    }

    #[test]
    fn sed_element_impls_agree() {
        let mut impls: Vec<ElementImpl> = vec![
            ("dispatch", sed_elements_clean),
            ("scalar", scalar::sed_elements_clean),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            impls.push(("avx2", avx2::sed_elements_clean));
        }
        let mut x = 3u64;
        for len in [0usize, 1, 2, 3, 4, 5, 9, 33, 100] {
            let mut values = Vec::new();
            let mut cols = Vec::new();
            for _ in 0..len {
                // Even combined parity: fold the value's parity into the
                // column's top bit.
                let v = xorshift(&mut x);
                let c = (xorshift(&mut x) as u32) & 0x7FFF_FFFF;
                let p = (v.count_ones() + c.count_ones()) & 1;
                values.push(f64::from_bits(v));
                cols.push(c | (p << 31));
            }
            for (name, f) in &impls {
                assert!(f(&values, &cols), "{name} clean len={len}");
            }
            if len == 0 {
                continue;
            }
            for _ in 0..10 {
                let mut bv = values.clone();
                let i = (xorshift(&mut x) as usize) % len;
                bv[i] = f64::from_bits(bv[i].to_bits() ^ (1u64 << (xorshift(&mut x) % 64)));
                for (name, f) in &impls {
                    assert!(!f(&bv, &cols), "{name} fault undetected len={len}");
                }
            }
        }
    }

    #[test]
    fn dispatch_reports_an_isa() {
        let isa = detected_isa();
        assert!(!isa.label().is_empty());
        // The dispatch is memoised: repeated calls return the same ISA.
        assert_eq!(detected_isa(), isa);
    }
}
