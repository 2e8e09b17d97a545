//! # abft-solvers — iterative sparse solvers, generic over protection
//!
//! The solvers TeaLeaf offers for its implicit heat-conduction step — the
//! Conjugate Gradient method (the solver the paper evaluates), Jacobi
//! relaxation, Chebyshev iteration and polynomially preconditioned CG — each
//! written **once** and runnable under every ABFT protection tier.
//!
//! ## Architecture
//!
//! The crate is layered so that reliability is a property of the data the
//! solver runs on, not of the solver itself (the design argued by the
//! paper and by the *selective reliability* / *opaque preconditioner*
//! literature):
//!
//! * [`backend`] — the trait seam: [`LinearOperator`] (the SpMV surface,
//!   check-interval threading, end-of-solve verification) and
//!   [`SolverVector`] (the fallible BLAS-1 surface), plus the shared
//!   [`FaultContext`] and the unified [`SolverError`].
//! * [`backends`] — the three concrete tiers: [`backends::Plain`] (the 0 %
//!   baseline), [`backends::MatrixProtected`] (protected matrix + plain
//!   vectors, Figures 4–8) and [`backends::FullyProtected`] (protected
//!   matrix + protected vectors, Figure 9 / combined).
//! * [`generic`] — CG, Jacobi, Chebyshev and PPCG over the trait seam,
//!   plus [`block_cg`] / [`block_cg_panel`]: multi-RHS CG that verifies
//!   each matrix codeword group once per panel of up to
//!   [`MAX_PANEL_WIDTH`](abft_core::MAX_PANEL_WIDTH) right-hand sides while
//!   keeping every column bitwise identical to its standalone solve.
//! * [`solver`] — the builder front door.
//!
//! ## Usage
//!
//! ```
//! use abft_core::{EccScheme, ProtectionConfig};
//! use abft_solvers::Solver;
//! use abft_sparse::builders::poisson_2d_padded;
//!
//! let a = poisson_2d_padded(16, 16);
//! let b = vec![1.0; a.rows()];
//!
//! // Plain baseline.
//! let plain = Solver::cg().tolerance(1e-16).solve(&a, &b).unwrap();
//!
//! // Same solver, fully protected data structures.
//! let protected = Solver::cg()
//!     .tolerance(1e-16)
//!     .protection(ProtectionConfig::full(EccScheme::Secded64))
//!     .solve(&a, &b)
//!     .unwrap();
//!
//! assert!(plain.status.converged && protected.status.converged);
//! assert_eq!(protected.faults.total_uncorrectable(), 0);
//! ```
//!
//! Every [`SolveOutcome`] carries the [`SolveStatus`] (iterations,
//! residuals) and a [`FaultLogSnapshot`](abft_core::FaultLogSnapshot) of the
//! integrity-check activity, so the convergence-impact study of §VI-B and
//! the overhead figures read off the same API.
//!
//! The historical per-mode entry points (`cg_plain`, `CgSolver`,
//! `jacobi_solve`, …) have been removed; the builder and
//! [`Solver::solve_operator`] cover every configuration they served.

pub mod backend;
pub mod backends;
pub mod chebyshev;
pub mod generic;
pub mod precond;
pub mod solver;
pub mod status;

pub use backend::{FaultContext, LinearOperator, SolverError, SolverVector};
pub use backends::decode_checked;
pub use chebyshev::ChebyshevBounds;
pub use generic::{
    block_cg, block_cg_panel, cg_with_poll, ft_pcg, BlockColumnOutcome, CgPollState,
};
pub use precond::{Ilu0, Polynomial, PrecondKind, Preconditioner, Reliability};
pub use solver::{Method, SolveOutcome, Solver};
pub use status::{SolveStatus, SolverConfig, Termination};
