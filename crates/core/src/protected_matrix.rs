//! Storage-generic protected-matrix abstraction.
//!
//! [`ProtectedMatrix`] is the contract every protected sparse-matrix storage
//! tier implements: the CSR tier ([`ProtectedCsr`]), the per-element COO
//! tier ([`ProtectedCoo`]) and the codeword-aligned
//! blocked-CSR tier ([`ProtectedBlockedCsr`]).  A tier implements each
//! operation once, in its trait impl — there are no inherent twins.
//! The trait exposes exactly what the solver, serving and fault-injection
//! layers need:
//!
//! * the **range kernels** ([`ProtectedMatrix::spmv_range_view`] /
//!   [`ProtectedMatrix::spmm_range_view`]) that compute a contiguous row
//!   slice of `A·x` (or of a multi-RHS panel product) with the integrity
//!   checks *inside* the bandwidth-bound loop and the fault-tally flush
//!   discipline (local counters, one bulk [`FaultLog`] update per
//!   invocation);
//! * whole-matrix **verify/scrub** ([`ProtectedMatrix::verify_all`] /
//!   [`ProtectedMatrix::scrub`]);
//! * the **fault-injection surface** (`inject_*`) the campaign engine
//!   drives, with the row *structure* abstracted (a row pointer for the CSR
//!   tiers, per-element row indices for COO);
//! * two provided methods every tier gets for free: the check policy,
//!   derived from the configured check interval, and the whole-matrix SpMV
//!   [`ProtectedMatrix::spmv_with`], which runs the range kernel through the
//!   row-range driver of [`crate::spmv`] with the caller-owned
//!   [`SpmvWorkspace`] — inline, or on the worker pool when the matrix's
//!   configuration is parallel.
//!
//! [`AnyProtectedMatrix`] is the one matrix type everything above the tiers
//! holds — the solver backends, the serving queue and the fault campaign;
//! [`StorageTier`] names a tier for configuration.

use crate::error::AbftError;
use crate::policy::CheckPolicy;
use crate::protected_coo::ProtectedCoo;
use crate::protected_csr::ProtectedCsr;
use crate::report::FaultLog;
use crate::schemes::ProtectionConfig;
use crate::spmv::{spmv_rows, DenseSource, DenseView, InterleavedX, SpmvWorkspace};
use crate::ProtectedBlockedCsr;
use abft_sparse::CsrMatrix;
use std::borrow::Cow;

/// The protected sparse-matrix storage tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageTier {
    /// Compressed sparse row — redundancy in the column-index top bits and a
    /// protected row pointer (the paper's primary format).
    Csr,
    /// Coordinate storage — per-element (value, column) codewords identical
    /// to CSR plus a small SECDED/parity code over each element's row index.
    Coo,
    /// CSR split into independently protected row blocks whose boundaries
    /// are aligned to the row-pointer codeword groups; one verify certifies
    /// one block.  The payload is the requested block count.
    BlockedCsr(usize),
}

impl StorageTier {
    /// Short human-readable tier name (stable; used in reports and JSON).
    pub fn label(&self) -> &'static str {
        match self {
            StorageTier::Csr => "csr",
            StorageTier::Coo => "coo",
            StorageTier::BlockedCsr(_) => "blocked-csr",
        }
    }
}

impl std::fmt::Display for StorageTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageTier::BlockedCsr(blocks) => write!(f, "blocked-csr({blocks})"),
            tier => f.write_str(tier.label()),
        }
    }
}

/// A sparse matrix stored with embedded software ECC, abstracted over the
/// storage layout.
///
/// Implementations guarantee that, for the same source [`CsrMatrix`] and
/// [`ProtectionConfig`], the SpMV outputs are **bitwise identical** across
/// tiers: every tier accumulates each output row's products in the same
/// (CSR) element order.
pub trait ProtectedMatrix: Send + Sync {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Number of stored non-zeros.
    fn nnz(&self) -> usize;

    /// The protection configuration this matrix was encoded with.
    fn config(&self) -> &ProtectionConfig;

    /// The check policy, derived from the configured check interval.
    fn policy(&self) -> CheckPolicy {
        CheckPolicy::every(self.config().check_interval)
    }

    /// Computes `y[i] = (A x)[row0 + i]` for a contiguous row range.
    ///
    /// `check` selects full integrity checks versus bounds-only checks;
    /// `scratch` is reusable byte scratch (CRC row codewords).  Integrity
    /// tallies are accumulated locally and flushed to `log` in one bulk
    /// update per invocation (the fault-tally flush discipline), including
    /// on error paths.
    fn spmv_range_view(
        &self,
        row0: usize,
        x: DenseView<'_>,
        y: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<(), AbftError>;

    /// Computes `products[i*k + j] = (A x_j)[row0 + i]` for a contiguous
    /// row range and the width-`k` interleaved panel `xp` — the multi-RHS
    /// sibling of [`ProtectedMatrix::spmv_range_view`].  Column `j`'s output
    /// is bitwise identical to a single-vector product of `x_j`, and a
    /// column index out of range fails as it does there, against the
    /// vector length `xp` holds.
    fn spmm_range_view(
        &self,
        row0: usize,
        xp: InterleavedX<'_>,
        products: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<(), AbftError>;

    /// Verifies every codeword of the matrix without modifying storage: the
    /// whole-matrix check the paper performs at the end of each time-step.
    fn verify_all(&self, log: &FaultLog) -> Result<(), AbftError>;

    /// Re-verifies every codeword and repairs correctable errors in place;
    /// returns the number of corrected codewords.
    fn scrub(&mut self, log: &FaultLog) -> Result<usize, AbftError>;

    /// Decodes the matrix back into a plain [`CsrMatrix`] (masked,
    /// unchecked).
    fn to_csr(&self) -> CsrMatrix;

    /// Flips one bit of stored value `k` (fault-injection hook).
    fn inject_value_bit_flip(&mut self, k: usize, bit: u32);

    /// Flips one bit of stored (encoded) column index `k`.
    fn inject_col_bit_flip(&mut self, k: usize, bit: u32);

    /// Flips one bit of the row *structure*: a row-pointer entry for the CSR
    /// tiers, an encoded per-element row index for COO.
    fn inject_structure_bit_flip(&mut self, entry: usize, bit: u32);

    /// Number of injectable row-structure entries
    /// ([`ProtectedMatrix::inject_structure_bit_flip`]'s index domain).
    fn structure_entries(&self) -> usize;

    /// Sparse matrix–vector product `y = A x` with caller-owned scratch:
    /// zero heap allocations per call once the workspace is warm.  Runs on
    /// the worker pool when the matrix is configured parallel, inline on
    /// the caller otherwise, with the same bits either way.
    fn spmv_with<X: DenseSource + ?Sized>(
        &self,
        x: &X,
        y: &mut [f64],
        iteration: u64,
        log: &FaultLog,
        ws: &mut SpmvWorkspace,
    ) -> Result<(), AbftError>
    where
        Self: Sized,
    {
        assert_eq!(x.length(), self.cols(), "spmv: x has wrong length");
        assert_eq!(y.len(), self.rows(), "spmv: y has wrong length");
        let check = self.policy().should_check(iteration);
        spmv_rows(self, x.view(), y, check, log, &mut ws.chunks)
    }
}

/// A correction a tier's whole-matrix walk reports: `verify_all` drops it,
/// `scrub` writes it back.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Repair {
    /// COO row index `k`, re-encoded.
    RowIndex(usize, u32),
    /// Element `k` decodes to `(value, column)`, not to what is stored.
    Element(usize, f64, u32),
    /// The element run `start..end` logged a correction: the `Element`s
    /// reported since the previous run are its repaired elements, and its
    /// redundancy is re-encoded.
    Run(usize, usize),
}

/// A protected matrix of any storage tier — the one matrix type the solver
/// backends, the serving queue and the fault campaign hold.
#[derive(Debug, Clone)]
pub enum AnyProtectedMatrix {
    /// The CSR tier.
    Csr(ProtectedCsr),
    /// The COO tier.
    Coo(ProtectedCoo),
    /// The blocked-CSR tier.
    BlockedCsr(ProtectedBlockedCsr),
}

impl AnyProtectedMatrix {
    /// Encodes a CSR matrix into the requested storage tier.
    ///
    /// Takes the matrix by value or by reference.  An owned matrix is
    /// encoded where it lies: the CSR and COO tiers keep its value array and
    /// write the redundancy into its index arrays (only the blocked tier,
    /// which re-lays the matrix out, copies).  A borrowed matrix is copied
    /// once.  Every limit is checked before anything is written.
    pub fn encode<'a>(
        matrix: impl Into<Cow<'a, CsrMatrix>>,
        config: &ProtectionConfig,
        tier: StorageTier,
    ) -> Result<Self, AbftError> {
        let matrix = matrix.into();
        Ok(match tier {
            StorageTier::Csr => AnyProtectedMatrix::Csr(ProtectedCsr::from_csr(matrix, config)?),
            StorageTier::Coo => AnyProtectedMatrix::Coo(ProtectedCoo::from_csr(matrix, config)?),
            StorageTier::BlockedCsr(blocks) => AnyProtectedMatrix::BlockedCsr(
                ProtectedBlockedCsr::from_csr(&matrix, config, blocks)?,
            ),
        })
    }

    /// Decodes the matrix back into a plain [`CsrMatrix`] (masked,
    /// unchecked) in its own arrays where the tier allows — the CSR and
    /// COO tiers hand back the value array they hold.
    /// [`ProtectedMatrix::to_csr`] is this on a copy.
    pub fn into_csr(self) -> CsrMatrix {
        match self {
            AnyProtectedMatrix::Csr(m) => m.into_csr(),
            AnyProtectedMatrix::Coo(m) => m.into_csr(),
            AnyProtectedMatrix::BlockedCsr(m) => m.into_csr(),
        }
    }

    /// The tier this matrix is stored in.
    pub fn tier(&self) -> StorageTier {
        match self {
            AnyProtectedMatrix::Csr(_) => StorageTier::Csr,
            AnyProtectedMatrix::Coo(_) => StorageTier::Coo,
            AnyProtectedMatrix::BlockedCsr(b) => StorageTier::BlockedCsr(b.num_blocks()),
        }
    }
}

impl From<ProtectedCsr> for AnyProtectedMatrix {
    fn from(matrix: ProtectedCsr) -> Self {
        AnyProtectedMatrix::Csr(matrix)
    }
}

impl From<ProtectedCoo> for AnyProtectedMatrix {
    fn from(matrix: ProtectedCoo) -> Self {
        AnyProtectedMatrix::Coo(matrix)
    }
}

impl From<ProtectedBlockedCsr> for AnyProtectedMatrix {
    fn from(matrix: ProtectedBlockedCsr) -> Self {
        AnyProtectedMatrix::BlockedCsr(matrix)
    }
}

// Shared-handle conversions: serving layers hold registered matrices as
// `Arc<AnyProtectedMatrix>`, and these let any concrete tier (or the
// erased enum, via the std blanket `From<T> for Arc<T>`) flow straight
// into an `impl Into<Arc<AnyProtectedMatrix>>` bound without the caller
// spelling out the wrapping.

impl From<ProtectedCsr> for std::sync::Arc<AnyProtectedMatrix> {
    fn from(matrix: ProtectedCsr) -> Self {
        std::sync::Arc::new(matrix.into())
    }
}

impl From<ProtectedCoo> for std::sync::Arc<AnyProtectedMatrix> {
    fn from(matrix: ProtectedCoo) -> Self {
        std::sync::Arc::new(matrix.into())
    }
}

impl From<ProtectedBlockedCsr> for std::sync::Arc<AnyProtectedMatrix> {
    fn from(matrix: ProtectedBlockedCsr) -> Self {
        std::sync::Arc::new(matrix.into())
    }
}

/// Delegates every trait method to the wrapped tier.
macro_rules! delegate {
    ($self:ident, $m:ident => $body:expr) => {
        match $self {
            AnyProtectedMatrix::Csr($m) => $body,
            AnyProtectedMatrix::Coo($m) => $body,
            AnyProtectedMatrix::BlockedCsr($m) => $body,
        }
    };
}

impl ProtectedMatrix for AnyProtectedMatrix {
    fn rows(&self) -> usize {
        delegate!(self, m => m.rows())
    }

    fn cols(&self) -> usize {
        delegate!(self, m => m.cols())
    }

    fn nnz(&self) -> usize {
        delegate!(self, m => m.nnz())
    }

    fn config(&self) -> &ProtectionConfig {
        delegate!(self, m => m.config())
    }

    fn spmv_range_view(
        &self,
        row0: usize,
        x: DenseView<'_>,
        y: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        delegate!(self, m => m.spmv_range_view(row0, x, y, check, scratch, log))
    }

    fn spmm_range_view(
        &self,
        row0: usize,
        xp: InterleavedX<'_>,
        products: &mut [f64],
        check: bool,
        scratch: &mut Vec<u8>,
        log: &FaultLog,
    ) -> Result<(), AbftError> {
        delegate!(self, m => m.spmm_range_view(row0, xp, products, check, scratch, log))
    }

    fn verify_all(&self, log: &FaultLog) -> Result<(), AbftError> {
        delegate!(self, m => m.verify_all(log))
    }

    fn scrub(&mut self, log: &FaultLog) -> Result<usize, AbftError> {
        delegate!(self, m => m.scrub(log))
    }

    fn to_csr(&self) -> CsrMatrix {
        delegate!(self, m => m.to_csr())
    }

    fn inject_value_bit_flip(&mut self, k: usize, bit: u32) {
        delegate!(self, m => m.inject_value_bit_flip(k, bit))
    }

    fn inject_col_bit_flip(&mut self, k: usize, bit: u32) {
        delegate!(self, m => m.inject_col_bit_flip(k, bit))
    }

    fn inject_structure_bit_flip(&mut self, entry: usize, bit: u32) {
        delegate!(self, m => m.inject_structure_bit_flip(entry, bit))
    }

    fn structure_entries(&self) -> usize {
        delegate!(self, m => m.structure_entries())
    }
}
