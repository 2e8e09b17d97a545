//! The front door of the solver crate: one builder, one driver.
//!
//! A [`Solver`] carries the two decisions of a protected solve — *how the
//! data is protected* (a [`ProtectionConfig`], slid underneath the
//! unmodified method) and *which tier the inner preconditioner apply runs
//! in* ([`Solver::preconditioner`]) — next to the method and its stopping
//! criteria:
//!
//! ```
//! use abft_core::{EccScheme, ProtectionConfig};
//! use abft_solvers::{PrecondKind, Reliability, Solver};
//! use abft_sparse::builders::poisson_2d_padded;
//!
//! let a = poisson_2d_padded(16, 16);
//! let b = vec![1.0; a.rows()];
//! let outcome = Solver::cg()
//!     .tolerance(1e-16)
//!     .protection(ProtectionConfig::full(EccScheme::Secded64))
//!     .preconditioner(PrecondKind::Ilu0, Reliability::Unreliable)
//!     .solve(&a, &b)
//!     .unwrap();
//! assert!(outcome.status.converged);
//! assert_eq!(outcome.faults.total_uncorrectable(), 0);
//! ```
//!
//! Every entry point funnels into one private driver (scope the fault
//! context to the backend, run the CG family or — with a preconditioner —
//! the inner-outer [`ft_pcg`](crate::generic::ft_pcg), `finish`, snapshot):
//! [`Solver::solve`] encodes the matrix and picks the backend,
//! [`Solver::solve_encoded`] picks the backend for a matrix the caller
//! already encoded (the serving queue, the fault campaigns), and
//! [`Solver::solve_operator`] runs on a backend the caller pinned itself.

use crate::backend::{FaultContext, LinearOperator, SolverError};
use crate::backends::{decode_checked, Plain};
use crate::chebyshev::ChebyshevBounds;
use crate::generic;
use crate::precond::{PrecondKind, Preconditioner, Reliability};
use crate::status::{SolveStatus, SolverConfig};
use crate::with_backend;
use abft_core::{AnyProtectedMatrix, FaultLog, FaultLogSnapshot, ProtectionConfig, StorageTier};
use abft_sparse::CsrMatrix;
use std::borrow::Cow;

/// The iterative method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Conjugate Gradient (the paper's solver).
    #[default]
    Cg,
    /// Jacobi relaxation.
    Jacobi,
    /// Chebyshev iteration with spectral bounds.
    Chebyshev,
    /// Polynomially preconditioned CG.
    Ppcg,
}

/// Result of a [`Solver`] run: the decoded solution, convergence
/// information, and a snapshot of the integrity-check activity.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The solution vector, decoded to plain values.
    pub solution: Vec<f64>,
    /// Convergence information.
    pub status: SolveStatus,
    /// Integrity-check activity during the solve.
    pub faults: FaultLogSnapshot,
}

/// Builder-style solver front door: method, stopping criteria, protection,
/// storage tier, method-specific knobs and the preconditioner, all in one
/// place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Solver {
    method: Method,
    config: SolverConfig,
    protection: ProtectionConfig,
    storage: StorageTier,
    bounds: Option<ChebyshevBounds>,
    inner_steps: usize,
    precond: Option<(PrecondKind, Reliability)>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new(Method::Cg)
    }
}

impl Solver {
    /// Creates a solver for `method` with default stopping criteria and no
    /// protection.
    pub fn new(method: Method) -> Self {
        Solver {
            method,
            config: SolverConfig::default(),
            protection: ProtectionConfig::unprotected(),
            storage: StorageTier::Csr,
            bounds: None,
            inner_steps: 4,
            precond: None,
        }
    }

    /// Conjugate Gradient.
    pub fn cg() -> Self {
        Solver::new(Method::Cg)
    }

    /// Jacobi relaxation.
    pub fn jacobi() -> Self {
        Solver::new(Method::Jacobi)
    }

    /// Chebyshev iteration.
    pub fn chebyshev() -> Self {
        Solver::new(Method::Chebyshev)
    }

    /// Polynomially preconditioned CG.
    pub fn ppcg() -> Self {
        Solver::new(Method::Ppcg)
    }

    /// Sets the iteration cap.
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.config.max_iterations = max_iterations;
        self
    }

    /// Sets the tolerance on the absolute squared residual norm.
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.config.tolerance = tolerance;
        self
    }

    /// Replaces both stopping criteria at once.
    pub fn config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects what [`Solver::solve`] protects, and how: an unprotected
    /// configuration (the default) runs the plain baseline, one that leaves
    /// the dense vectors plain runs the matrix-only tier (Figures 4–8), any
    /// other the fully protected tier (Figure 9 / combined).  Parity, check
    /// interval, CRC backend and the parallel-kernel flag (which plain
    /// solves follow too) all ride in the configuration.
    pub fn protection(mut self, protection: ProtectionConfig) -> Self {
        self.protection = protection;
        self
    }

    /// Selects the protected storage tier [`Solver::solve`] encodes the
    /// matrix into (CSR by default; unused by unprotected solves).
    pub fn storage(mut self, storage: StorageTier) -> Self {
        self.storage = storage;
        self
    }

    /// Supplies explicit spectral bounds for Chebyshev/PPCG; when omitted,
    /// Gershgorin bounds are estimated from the matrix.
    pub fn bounds(mut self, bounds: ChebyshevBounds) -> Self {
        self.bounds = Some(bounds);
        self
    }

    /// Number of inner Chebyshev smoothing steps per PPCG iteration
    /// (default 4).
    pub fn inner_steps(mut self, inner_steps: usize) -> Self {
        self.inner_steps = inner_steps;
        self
    }

    /// Attaches a preconditioner: the solve becomes the flexible
    /// inner-outer FT-PCG of [`crate::generic::ft_pcg`] (requires
    /// [`Method::Cg`]).  `reliability` is the selective-reliability
    /// decision: [`Reliability::Protected`] keeps the factors in checked
    /// storage like everything else, [`Reliability::Unreliable`] runs the
    /// inner apply unchecked and lets the outer iteration screen it.
    pub fn preconditioner(mut self, kind: PrecondKind, reliability: Reliability) -> Self {
        self.precond = Some((kind, reliability));
        self
    }

    /// The configured method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Builds the attached preconditioner for `a` in its reliability tier
    /// (`None` when no preconditioner is attached).  Protected factors are
    /// encoded with the element scheme of the protection configuration.
    pub fn build_preconditioner(
        &self,
        a: &CsrMatrix,
    ) -> Result<Option<Box<dyn Preconditioner>>, SolverError> {
        let Some((kind, reliability)) = self.precond else {
            return Ok(None);
        };
        let ProtectionConfig {
            elements,
            crc_backend,
            ..
        } = self.protection;
        kind.build(a, reliability, elements, crc_backend).map(Some)
    }

    /// Solves `A x = b`, encoding the matrix under the configured
    /// protection first.  Takes the matrix by value or by reference: an
    /// owned matrix is encoded where it lies (see
    /// [`AnyProtectedMatrix::encode`]), a borrowed one is copied once.
    pub fn solve<'a>(
        &self,
        a: impl Into<Cow<'a, CsrMatrix>>,
        b: &[f64],
    ) -> Result<SolveOutcome, SolverError> {
        let a = a.into();
        // Estimate Chebyshev bounds from the plain matrix up front: cheaper
        // and exact, where the protected backends would have to decode.
        let solver = self.with_bounds_from(&a);
        let precond = self.build_preconditioner(&a)?;
        if self.protection.is_unprotected() {
            let op = Plain::new(&a, self.protection.parallel);
            return solver.solve_in(&op, b, precond.as_deref(), &FaultContext::new());
        }
        let encoded = AnyProtectedMatrix::encode(a, &self.protection, self.storage)?;
        solver.solve_encoded(&encoded, b, precond.as_deref(), &FaultLog::new())
    }

    /// Whether the method needs spectral bounds and none were supplied.
    fn needs_bounds(&self) -> bool {
        self.bounds.is_none() && matches!(self.method, Method::Chebyshev | Method::Ppcg)
    }

    /// This solver with Gershgorin bounds of `a` filled in when it
    /// [needs bounds](Solver::needs_bounds).
    fn with_bounds_from(&self, a: &CsrMatrix) -> Solver {
        let mut solver = *self;
        if self.needs_bounds() {
            solver.bounds = Some(ChebyshevBounds::estimate_gershgorin(a));
        }
        solver
    }

    /// Solves on an already-encoded matrix, on the backend its
    /// configuration selects — the entry for callers that keep (or
    /// deliberately corrupt) the encoded matrix across solves.  Activity is
    /// recorded live into `log`.
    ///
    /// `precond` supplies an already-built preconditioner (the serving
    /// queue factors once per panel, the campaigns inject into the factors
    /// first); with `None`, a preconditioner attached through
    /// [`Solver::preconditioner`] is factored from a checked decode of the
    /// matrix.  Chebyshev and PPCG without supplied bounds take them from
    /// the same decode, so a matrix fault it meets is recorded in `log` and
    /// ends the solve as [`SolverError::Fault`].  The protection and
    /// storage settings of the builder are not consulted: the matrix
    /// carries its own.
    pub fn solve_encoded(
        &self,
        matrix: &AnyProtectedMatrix,
        b: &[f64],
        precond: Option<&dyn Preconditioner>,
        log: &FaultLog,
    ) -> Result<SolveOutcome, SolverError> {
        let needs_factors = precond.is_none() && self.precond.is_some();
        let mut solver = *self;
        let mut built = None;
        if needs_factors || self.needs_bounds() {
            let plain = decode_checked(matrix, log)?;
            solver = self.with_bounds_from(&plain);
            if needs_factors {
                built = self.build_preconditioner(&plain)?;
            }
        }
        let precond = precond.or(built.as_deref());
        let ctx = FaultContext::with_log(log);
        with_backend!(matrix, |op| solver.solve_in(op, b, precond, &ctx))
    }

    /// Solves on an existing backend operator — the advanced path for
    /// callers that pin the backend themselves (the matrix-only tier on a
    /// fully configured matrix, a tracing decorator).  There is no
    /// matrix to factor here, so a solver with a preconditioner attached is
    /// [`SolverError::Unsupported`]; use [`Solver::solve_encoded`].
    pub fn solve_operator<Op: LinearOperator>(
        &self,
        op: &Op,
        b: &[f64],
    ) -> Result<SolveOutcome, SolverError> {
        if self.precond.is_some() {
            return Err(SolverError::Unsupported(
                "solve_operator has no matrix to factor a preconditioner from; use solve_encoded"
                    .into(),
            ));
        }
        self.solve_in(op, b, None, &FaultContext::new())
    }

    /// The one driver every entry point ends in.
    fn solve_in<Op: LinearOperator>(
        &self,
        op: &Op,
        b: &[f64],
        precond: Option<&dyn Preconditioner>,
        ctx: &FaultContext<'_>,
    ) -> Result<SolveOutcome, SolverError> {
        // Scope the context to this operator: protected backends expose
        // their reduction workspace so the parallel BLAS-1 kernels reuse
        // its preallocated partial slots across every iteration.
        let ctx = &ctx.scoped_to(op.reduction_workspace());
        let bvec = op.vector_from(b);
        let (mut x, status) = match (precond, self.method) {
            (Some(precond), Method::Cg) => generic::ft_pcg(op, &bvec, precond, &self.config, ctx)?,
            (Some(_), _) => {
                return Err(SolverError::Unsupported(
                    "preconditioned solves run FT-PCG and need Method::Cg".into(),
                ))
            }
            (None, Method::Cg) => generic::cg(op, &bvec, &self.config, ctx)?,
            (None, Method::Jacobi) => generic::jacobi(op, &bvec, &self.config, ctx)?,
            (None, Method::Chebyshev) => {
                let bounds = self.bounds_for(op)?;
                generic::chebyshev(op, &bvec, bounds, &self.config, ctx)?
            }
            (None, Method::Ppcg) => {
                let bounds = self.bounds_for(op)?;
                generic::ppcg(op, &bvec, bounds, self.inner_steps, &self.config, ctx)?
            }
        };
        let solution = op.finish(&mut x, ctx)?;
        Ok(SolveOutcome {
            solution,
            status,
            faults: ctx.snapshot(),
        })
    }

    fn bounds_for<Op: LinearOperator>(&self, op: &Op) -> Result<ChebyshevBounds, SolverError> {
        self.bounds.or_else(|| op.bounds_hint()).ok_or_else(|| {
            SolverError::Unsupported(
                "Chebyshev-type solvers need spectral bounds and the backend cannot estimate them"
                    .into(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_core::{AbftError, EccScheme, ProtectedMatrix, Region};
    use abft_ecc::Crc32cBackend;
    use abft_sparse::builders::poisson_2d_padded;
    use abft_sparse::spmv::spmv_serial;

    fn system() -> (CsrMatrix, Vec<f64>) {
        let a = poisson_2d_padded(9, 8);
        let b = (0..a.rows()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        (a, b)
    }

    fn residual_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; a.rows()];
        spmv_serial(a, x, &mut ax);
        ax.iter()
            .zip(b)
            .map(|(axi, bi)| (axi - bi) * (axi - bi))
            .sum::<f64>()
            .sqrt()
    }

    /// Unprotected, matrix-only and full SECDED64 — one config per backend.
    fn protections() -> [ProtectionConfig; 3] {
        [
            ProtectionConfig::unprotected(),
            ProtectionConfig::matrix_only(EccScheme::Secded64)
                .with_crc_backend(Crc32cBackend::SlicingBy16),
            ProtectionConfig::full(EccScheme::Secded64)
                .with_crc_backend(Crc32cBackend::SlicingBy16),
        ]
    }

    /// The acceptance matrix of the redesign: every method × every
    /// protection tier solves through the one front door.
    #[test]
    fn every_method_runs_in_every_protection_mode() {
        let (a, b) = system();
        let methods = [
            (Method::Cg, 500, 1e-18),
            (Method::Jacobi, 20_000, 1e-16),
            (Method::Chebyshev, 3000, 1e-14),
            (Method::Ppcg, 500, 1e-18),
        ];
        for (method, max_iterations, tolerance) in methods {
            for protection in protections() {
                let outcome = Solver::new(method)
                    .max_iterations(max_iterations)
                    .tolerance(tolerance)
                    .protection(protection)
                    .solve(&a, &b)
                    .unwrap_or_else(|e| panic!("{method:?} / {protection:?}: {e}"));
                let tol = if method == Method::Chebyshev {
                    1e-3
                } else {
                    1e-6
                };
                assert!(
                    residual_norm(&a, &outcome.solution, &b) < tol,
                    "{method:?} / {protection:?}"
                );
                assert_eq!(outcome.faults.total_uncorrectable(), 0);
            }
        }
    }

    #[test]
    fn builder_knobs_are_recorded() {
        let protection = ProtectionConfig::matrix_only(EccScheme::Sed).with_parallel(true);
        let solver = Solver::ppcg()
            .max_iterations(7)
            .tolerance(1e-3)
            .protection(protection)
            .storage(StorageTier::Coo)
            .inner_steps(9)
            .bounds(ChebyshevBounds::new(1.0, 2.0))
            .preconditioner(PrecondKind::Polynomial(2), Reliability::Unreliable);
        assert_eq!(solver.method(), Method::Ppcg);
        assert_eq!(solver.config, SolverConfig::new(7, 1e-3));
        assert_eq!(solver.protection, protection);
        assert_eq!(solver.storage, StorageTier::Coo);
        assert_eq!(solver.inner_steps, 9);
        assert_eq!(solver.bounds, Some(ChebyshevBounds::new(1.0, 2.0)));
        assert_eq!(
            solver.precond,
            Some((PrecondKind::Polynomial(2), Reliability::Unreliable))
        );
        assert_eq!(Solver::default().method(), Method::Cg);
        assert_eq!(Solver::jacobi().method(), Method::Jacobi);
        assert_eq!(Solver::chebyshev().method(), Method::Chebyshev);
        assert!(Solver::default().protection.is_unprotected());
    }

    #[test]
    fn protection_mode_derivation() {
        // The backend follows from the config alone: nothing protected →
        // no check at all; vectors left plain → matrix checks only; vectors
        // protected → dense-vector checks too.
        let (a, b) = system();
        let vector = Region::ALL
            .iter()
            .position(|r| *r == Region::DenseVector)
            .unwrap();
        let solver = Solver::cg().max_iterations(500).tolerance(1e-18);
        let [plain, matrix, full] =
            protections().map(|p| solver.protection(p).solve(&a, &b).unwrap().faults);
        assert_eq!(plain.total_checks(), 0);
        assert!(matrix.total_checks() > 0);
        assert_eq!(matrix.checks[vector], 0);
        assert!(full.checks[vector] > 0);
    }

    #[test]
    fn matrix_mode_ignores_stray_vector_scheme() {
        // Matrix protection never perturbs values and a matrix-only config
        // never protects the work vectors, so the trajectory is
        // bit-identical to the baseline (no vector masking noise).
        let (a, b) = system();
        let solver = Solver::cg().max_iterations(500).tolerance(1e-18);
        let matrix = solver.protection(protections()[1]).solve(&a, &b).unwrap();
        let plain = solver.solve(&a, &b).unwrap();
        assert_eq!(matrix.solution, plain.solution);
        assert_eq!(matrix.status.iterations, plain.status.iterations);
    }

    #[test]
    fn storage_tiers_solve_identically() {
        // Clean-matrix SpMV is bitwise identical across the storage tiers,
        // so the CG trajectory (and iteration count) must be too.
        let (a, b) = system();
        let solver = Solver::cg()
            .max_iterations(500)
            .tolerance(1e-18)
            .protection(protections()[1]);
        let base = solver.solve(&a, &b).unwrap();
        for tier in [StorageTier::Coo, StorageTier::BlockedCsr(3)] {
            let outcome = solver.storage(tier).solve(&a, &b).unwrap();
            assert_eq!(outcome.solution, base.solution, "{tier:?}");
            assert_eq!(
                outcome.status.iterations, base.status.iterations,
                "{tier:?}"
            );
        }
    }

    #[test]
    fn solve_operator_reuses_an_existing_backend() {
        use crate::backends::MatrixProtected;
        use abft_core::ProtectedCsr;
        let (a, b) = system();
        let protected = ProtectedCsr::from_csr(&a, &protections()[1])
            .unwrap()
            .into();
        let solver = Solver::cg().max_iterations(500).tolerance(1e-18);
        let op = MatrixProtected::new(&protected);
        let outcome = solver.solve_operator(&op, &b).unwrap();
        assert!(outcome.status.converged);
        assert!(residual_norm(&a, &outcome.solution, &b) < 1e-7);
        // A pinned backend has no matrix to factor a preconditioner from.
        let err = solver
            .preconditioner(PrecondKind::Ilu0, Reliability::Protected)
            .solve_operator(&op, &b)
            .unwrap_err();
        assert!(matches!(err, SolverError::Unsupported(_)));
    }

    #[test]
    fn preconditioned_solves_converge_in_fewer_iterations() {
        let (a, b) = system();
        let solver = Solver::cg()
            .max_iterations(500)
            .tolerance(1e-16)
            .protection(ProtectionConfig::full(EccScheme::Secded64));
        let baseline = solver.solve(&a, &b).unwrap();
        for reliability in [Reliability::Protected, Reliability::Unreliable] {
            let pcg = solver
                .preconditioner(PrecondKind::Ilu0, reliability)
                .solve(&a, &b)
                .unwrap();
            assert!(pcg.status.converged, "{reliability:?}");
            assert!(
                residual_norm(&a, &pcg.solution, &b) < 1e-6,
                "{reliability:?}"
            );
            assert!(
                pcg.status.iterations < baseline.status.iterations,
                "{reliability:?}: ILU(0) must accelerate CG"
            );
            assert_eq!(pcg.faults.total_uncorrectable(), 0);
        }
    }

    #[test]
    fn preconditioned_solves_work_in_every_protection_mode() {
        let (a, b) = system();
        for protection in protections() {
            let outcome = Solver::cg()
                .protection(protection)
                .preconditioner(PrecondKind::Polynomial(3), Reliability::Unreliable)
                .max_iterations(500)
                .tolerance(1e-16)
                .solve(&a, &b)
                .unwrap();
            assert!(outcome.status.converged, "{protection:?}");
            assert!(residual_norm(&a, &outcome.solution, &b) < 1e-6);
        }
    }

    #[test]
    fn an_owned_matrix_solves_like_a_borrowed_one() {
        let (a, b) = system();
        for protection in protections() {
            let solver = Solver::cg()
                .max_iterations(500)
                .tolerance(1e-18)
                .protection(protection);
            let borrowed = solver.solve(&a, &b).unwrap();
            let owned = solver.solve(a.clone(), &b).unwrap();
            assert_eq!(owned.solution, borrowed.solution, "{protection:?}");
            assert_eq!(owned.faults, borrowed.faults, "{protection:?}");
        }
    }

    #[test]
    fn encoded_chebyshev_bounds_record_a_matrix_fault_on_the_callers_log() {
        let (a, b) = system();
        let mut encoded =
            AnyProtectedMatrix::encode(&a, &protections()[2], StorageTier::Csr).unwrap();
        // Two flips in one element: the checked decode the bounds come from
        // meets an uncorrectable codeword.
        encoded.inject_value_bit_flip(11, 3);
        encoded.inject_value_bit_flip(11, 40);
        for solver in [Solver::chebyshev(), Solver::ppcg()] {
            let log = FaultLog::new();
            let err = solver.solve_encoded(&encoded, &b, None, &log).unwrap_err();
            assert!(
                matches!(
                    err,
                    SolverError::Fault(AbftError::Uncorrectable {
                        region: Region::CsrElements,
                        index: 11,
                    })
                ),
                "{err:?}"
            );
            assert_eq!(log.total_uncorrectable(), 1);
        }
    }

    #[test]
    fn preconditioner_requires_cg() {
        let (a, b) = system();
        let err = Solver::jacobi()
            .preconditioner(PrecondKind::Ilu0, Reliability::Protected)
            .solve(&a, &b)
            .unwrap_err();
        assert!(matches!(err, SolverError::Unsupported(_)));
    }
}
