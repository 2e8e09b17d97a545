//! # abft-ecc — software error detecting and correcting codes
//!
//! This crate implements the error detecting / correcting codes used by the
//! Application-Based Fault Tolerance (ABFT) schemes of
//! *"Application-Based Fault Tolerance Techniques for Fully Protecting Sparse
//! Matrix Solvers"* (Pawelczak et al., IEEE CLUSTER 2017):
//!
//! * [`sed`] — **S**ingle **E**rror **D**etection: a single parity bit,
//!   minimum Hamming distance 2, detects any odd number of bit flips.
//! * [`secded`] — **S**ingle **E**rror **C**orrection, **D**ouble **E**rror
//!   **D**etection extended Hamming codes.  The two concrete variants used in
//!   the paper are SECDED64 (72,64) and SECDED128 (137,128); the
//!   implementation is generic over data width so the odd-sized codewords the
//!   protected CSR structures need (88-bit CSR elements, 56/112-bit
//!   row-pointer groups, 118-bit dense-vector pairs) reuse the same machinery.
//! * [`crc32c`] — the CRC-32C (Castagnoli) cyclic redundancy check with three
//!   interchangeable backends: a naive bitwise reference, a slicing-by-16
//!   table implementation, and the hardware `crc32` instruction on x86-64
//!   (SSE4.2) and AArch64 when available.
//! * [`correction`] — error *correction* on top of CRC32C: because CRC32C has
//!   minimum Hamming distance 6 for codewords between 178 and 5243 bits, a
//!   single or double bit flip can be located and repaired by trial
//!   re-encoding (the paper's nECmED discussion, §IV).
//! * [`analysis`] — code-capability analysis helpers used by the tests and
//!   the `experiments --crc-capability` harness: syndrome uniqueness checks,
//!   detection exhaustiveness over bounded error weights.
//! * [`verify`] — batched, SIMD-accelerated verify-only kernels and the
//!   SECDED64 encode, with runtime ISA dispatch (AVX2 or the portable
//!   scalar reference, resolved once into a function-pointer table): the
//!   check- and write-throughput layer the hot SpMV and BLAS-1 consumers
//!   run on.
//!
//! The crate is `no_std`-friendly in spirit (no allocation in the hot paths)
//! but uses `std` for feature detection and the analysis helpers.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod analysis;
pub mod bitops;
pub mod correction;
pub mod crc32c;
pub mod secded;
pub mod sed;
pub mod verify;

pub use correction::correct_crc32c_single;
pub use crc32c::{Crc32c, Crc32cBackend};
pub use secded::{
    DecodeOutcome, Secded, SECDED_112, SECDED_118, SECDED_128, SECDED_176, SECDED_56, SECDED_64,
    SECDED_88,
};
pub use sed::{parity_u128, parity_u32, parity_u64, parity_words};

/// Classification of what an integrity check found, mirroring the DCE / DUE /
/// SDC terminology of the paper's introduction.
///
/// * `Clean` — the codeword verified correctly.
/// * `Corrected` — an error was detected *and* repaired in place
///   (a Detectable Correctable Error).
/// * `Detected` — an error was detected but could not be repaired
///   (a Detectable Uncorrectable Error); the application must decide how to
///   recover (e.g. checkpoint-restart, or for CG simply re-assembling the
///   matrix).
///
/// Silent data corruptions by definition never produce a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckOutcome {
    /// No error detected.
    Clean,
    /// An error was detected and corrected; the payload is the number of bits
    /// repaired.
    Corrected(u32),
    /// An error was detected but is uncorrectable with the scheme in use.
    Detected,
}

impl CheckOutcome {
    /// Returns `true` when the data is usable after the check (either it was
    /// clean or it has been repaired).
    #[inline]
    pub fn is_usable(self) -> bool {
        !matches!(self, CheckOutcome::Detected)
    }

    /// Returns `true` when any error (correctable or not) was observed.
    #[inline]
    pub fn is_error(self) -> bool {
        !matches!(self, CheckOutcome::Clean)
    }
}
