//! # abft-core — protected sparse-matrix and dense-vector structures
//!
//! This crate implements the paper's primary contribution: Application-Based
//! Fault Tolerance (ABFT) for sparse matrix solvers with **zero storage
//! overhead**.  Redundancy produced by the codes in `abft-ecc` is embedded in
//! bits the solver does not need:
//!
//! * **CSR elements** (§VI-A, Fig. 1) — each 64-bit value is paired with its
//!   32-bit column index to form a 96-bit element; the top bit(s) of the
//!   index hold the redundancy (1 bit for SED, 8 bits for SECDED, 8 bits per
//!   element of a row-wide CRC32C checksum).
//! * **Row-pointer vector** (§VI-A-1, Fig. 2) — the top bits of each 32-bit
//!   row offset hold the redundancy (1 bit for SED; 4 bits per entry shared
//!   across groups of 2 / 4 / 8 entries for SECDED64 / SECDED128 / CRC32C).
//! * **Dense `f64` vectors** (§VI-B, Fig. 3) — the least-significant mantissa
//!   bits hold the redundancy (1 / 8 / 5 / 8 bits per element for SED /
//!   SECDED64 / SECDED128 / CRC32C); those bits are masked to zero whenever a
//!   value is used in computation, bounding the perturbation of the solve.
//!
//! The crate also implements the paper's two performance techniques:
//!
//! * **Less frequent correctness checking** (§VI-A-2) via [`CheckPolicy`]:
//!   full integrity checks every *N*-th access with cheap bounds checks in
//!   between, plus a mandatory whole-matrix check at the end of a time-step.
//! * **Write buffering / read caching** (§VI-C): all bulk kernels operate a
//!   whole ECC codeword (group) at a time, so a group is decoded and
//!   re-encoded once per pass instead of once per element access.

#![deny(missing_docs)]

pub mod blas1;
pub mod blocked_csr;
pub mod csr_element;
pub mod error;
pub mod policy;
pub mod protected_coo;
pub mod protected_csr;
pub mod protected_matrix;
pub mod protected_vector;
pub mod report;
pub mod row_pointer;
pub mod schemes;
pub mod spmv;

pub use abft_ecc::Crc32cBackend;
pub use blas1::{ReductionWorkspace, PARALLEL_MIN_ELEMENTS};
pub use blocked_csr::ProtectedBlockedCsr;
pub use error::AbftError;
pub use policy::CheckPolicy;
pub use protected_coo::ProtectedCoo;
pub use protected_csr::ProtectedCsr;
pub use protected_matrix::{AnyProtectedMatrix, ProtectedMatrix, StorageTier};
pub use protected_vector::ProtectedVector;
pub use report::{FaultLog, FaultLogSnapshot, Region};
pub use row_pointer::ProtectedRowPointer;
pub use schemes::{EccScheme, ParityConfig, ProtectionConfig};
pub use spmv::{
    DenseSource, DenseView, InterleavedX, SpmmWorkspace, SpmvWorkspace, MAX_PANEL_WIDTH,
};
