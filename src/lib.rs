//! # abft-suite — umbrella crate
//!
//! Re-exports the public API of the ABFT sparse-matrix-solver reproduction so
//! downstream users (and the examples/integration tests in this repository)
//! can depend on a single crate:
//!
//! * [`ecc`] — software error detecting/correcting codes (SED, SECDED, CRC32C)
//! * [`sparse`] — CSR/COO matrices, dense vectors, SpMV and BLAS-1 kernels
//! * [`core`] — the protected data structures (the paper's contribution)
//! * [`solvers`] — the generic solver layer: CG, Jacobi, Chebyshev and PPCG
//!   written once over the backend traits, fronted by the
//!   [`Solver`](prelude::Solver) builder, plus multi-RHS block CG
//! * [`serve`] — the multi-tenant serving front door: a
//!   [`SolveQueue`](prelude::SolveQueue) batching concurrent jobs into
//!   panels that share matrix verification
//! * [`tealeaf`] — the TeaLeaf-style 2-D heat-conduction mini-app
//! * [`faultsim`] — bit-flip injection and fault campaigns
//!
//! See the README for a quickstart showing one solve in each protection
//! mode; its Rust snippets compile as doctests of this crate.

// Compile the README's Rust snippets (`cargo test --doc`).
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use abft_core as core;
pub use abft_ecc as ecc;
pub use abft_faultsim as faultsim;
pub use abft_serve as serve;
pub use abft_solvers as solvers;
pub use abft_sparse as sparse;
pub use abft_tealeaf as tealeaf;

/// Convenience prelude bringing the most commonly used types into scope.
pub mod prelude {
    pub use abft_core::{
        AnyProtectedMatrix, CheckPolicy, EccScheme, FaultLog, ProtectedBlockedCsr, ProtectedCoo,
        ProtectedCsr, ProtectedMatrix, ProtectedVector, ProtectionConfig, SpmvWorkspace,
        StorageTier,
    };
    pub use abft_ecc::{CheckOutcome, Crc32c, Crc32cBackend};
    pub use abft_faultsim::{
        Campaign, CampaignConfig, CampaignStats, FailureCorpus, FaultOutcome, FaultTarget,
        InjectionKind, StopDecision, StopRule, StreamConfig, TrialRecord,
    };
    pub use abft_serve::{JobOutcome, JobSpec, SolveQueue};
    pub use abft_solvers::{
        Method, PrecondKind, Preconditioner, Reliability, SolveOutcome, SolveStatus, Solver,
        SolverConfig, SolverError, Termination,
    };
    pub use abft_sparse::{CooMatrix, CsrMatrix, Vector};
    pub use abft_tealeaf::{Deck, Simulation, SolverKind};
}
