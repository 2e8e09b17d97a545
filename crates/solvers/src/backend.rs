//! The backend trait layer the generic solvers are written against.
//!
//! The paper's central architectural claim is that ABFT protection can be
//! slid *underneath* an unmodified solver: the iteration only ever touches
//! the operator (one SpMV per step) and a handful of BLAS-1 vector kernels,
//! so making those two surfaces pluggable lets one CG/Jacobi/Chebyshev/PPCG
//! implementation serve every protection tier.  The same separation is
//! argued by Bridges et al.'s *selective reliability* (arXiv:1206.1390) and
//! Elliott et al.'s *opaque preconditioners* (arXiv:1404.5552): reliability
//! is a property of the data/operator layer, not of the solver.
//!
//! Two traits capture the surfaces:
//!
//! * [`LinearOperator`] — the matrix side: `apply` (SpMV, with the iteration
//!   index that drives the check-interval policy) and its fused `apply_dot`
//!   (the SpMV with the `p · Ap` of a CG step), vector construction for
//!   its associated storage, the diagonal (for Jacobi), and the end-of-solve
//!   `finish` hook (whole-matrix verification + scrubbing, §VI-A-2).
//! * [`SolverVector`] — the vector side: the BLAS-1 kernels the CG family
//!   needs (`dot`, `axpy`, `xpay`, `scale`, fills and copies, and the fused
//!   `dot_axpy` and `axpy_xpay` of a CG step), each fallible because
//!   protected storage verifies codewords on access.
//!
//! Every operation threads a [`FaultContext`] carrying the
//! [`FaultLog`] in which integrity-check activity is
//! recorded, and returns the unified [`SolverError`] on detection of an
//! uncorrectable fault.  Concrete backends for the three protection tiers
//! live in [`crate::backends`].

use abft_core::{AbftError, FaultLog, FaultLogSnapshot, ReductionWorkspace, MAX_PANEL_WIDTH};
use std::cell::RefCell;
use std::fmt;

/// Shared fault-observation state threaded through a solve.
///
/// Wraps the atomic [`FaultLog`] so that one context can be handed by
/// reference to every kernel (including Rayon-parallel ones) and snapshotted
/// into the [`SolveOutcome`](crate::SolveOutcome) at the end.  A context
/// either owns its log ([`FaultContext::new`]) or borrows a caller-supplied
/// one ([`FaultContext::with_log`]) — the latter records live, so activity
/// observed before an aborting fault is preserved even on the error path.
///
/// A context may additionally carry a borrow of the operator backend's
/// [`ReductionWorkspace`] (see
/// [`LinearOperator::reduction_workspace`]); the
/// [`Solver`](crate::Solver) front door attaches it so the parallel BLAS-1
/// kernels reuse the backend's preallocated partial slots instead of
/// allocating per call.  Contexts without one (direct [`crate::generic`]
/// callers) still work — the kernels then allocate transient scratch.
#[derive(Debug)]
pub struct FaultContext<'a> {
    log: LogHandle<'a>,
    reduction: Option<&'a RefCell<ReductionWorkspace>>,
}

#[derive(Debug)]
enum LogHandle<'a> {
    Owned(FaultLog),
    Borrowed(&'a FaultLog),
}

impl Default for FaultContext<'static> {
    fn default() -> Self {
        FaultContext::new()
    }
}

impl<'a> FaultContext<'a> {
    /// Creates a context owning an empty log.
    pub fn new() -> FaultContext<'static> {
        FaultContext {
            log: LogHandle::Owned(FaultLog::new()),
            reduction: None,
        }
    }

    /// Creates a context recording into a caller-supplied log.
    pub fn with_log(log: &'a FaultLog) -> FaultContext<'a> {
        FaultContext {
            log: LogHandle::Borrowed(log),
            reduction: None,
        }
    }

    /// A context recording into the same log as `self` but carrying the
    /// given reduction workspace — how the solve front door scopes a
    /// caller's context to the operator backend it is about to run on.
    ///
    /// Re-scoping with `None` (an operator with no workspace of its own,
    /// e.g. an inner solve nested inside an already-scoped outer context)
    /// keeps the workspace `self` already carries instead of dropping it:
    /// nesting narrows a context, it never discards parallel-reduction
    /// state the caller threaded through.
    pub fn scoped_to<'b>(
        &'b self,
        reduction: Option<&'b RefCell<ReductionWorkspace>>,
    ) -> FaultContext<'b> {
        FaultContext {
            log: LogHandle::Borrowed(self.log()),
            reduction: reduction.or(self.reduction),
        }
    }

    /// The underlying fault log.
    pub fn log(&self) -> &FaultLog {
        match &self.log {
            LogHandle::Owned(log) => log,
            LogHandle::Borrowed(log) => log,
        }
    }

    /// The attached reduction workspace, when the solve front door scoped
    /// this context to an operator backend that owns one.
    pub fn reduction(&self) -> Option<&RefCell<ReductionWorkspace>> {
        self.reduction
    }

    /// Plain-data snapshot of everything observed so far.
    pub fn snapshot(&self) -> FaultLogSnapshot {
        self.log().snapshot()
    }
}

/// Unified error type of the generic solver layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// A protected structure reported a fault it could not absorb
    /// (uncorrectable corruption, a bounds violation, or an encoding-time
    /// capacity limit).
    Fault(AbftError),
    /// The requested solver configuration is not expressible (explanatory
    /// message).
    Unsupported(String),
}

impl SolverError {
    /// The underlying ABFT error, when this error wraps one.
    pub fn fault(&self) -> Option<&AbftError> {
        match self {
            SolverError::Fault(e) => Some(e),
            SolverError::Unsupported(_) => None,
        }
    }

    /// Converts into the core error type (for callers predating the unified
    /// error).
    pub fn into_abft(self) -> AbftError {
        match self {
            SolverError::Fault(e) => e,
            SolverError::Unsupported(msg) => AbftError::Unsupported(msg),
        }
    }
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Fault(e) => write!(f, "solver aborted on fault: {e}"),
            SolverError::Unsupported(msg) => write!(f, "unsupported solver configuration: {msg}"),
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Fault(e) => Some(e),
            SolverError::Unsupported(_) => None,
        }
    }
}

impl From<AbftError> for SolverError {
    fn from(e: AbftError) -> Self {
        SolverError::Fault(e)
    }
}

/// The dense-vector surface an iterative solver needs, implemented by plain
/// `Vec<f64>` storage and by [`ProtectedVector`](abft_core::ProtectedVector).
///
/// Every kernel is fallible: on protected storage each call decodes and
/// verifies the codewords it touches, recording activity in the
/// [`FaultContext`] and failing with [`SolverError::Fault`] on uncorrectable
/// corruption.  Plain storage never errs.
pub trait SolverVector: Clone {
    /// Number of elements.
    fn len(&self) -> usize;

    /// True when the vector has no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checked dot product `self · other`.
    fn dot(&self, other: &Self, ctx: &FaultContext) -> Result<f64, SolverError>;

    /// Checked Euclidean norm.
    fn norm2(&self, ctx: &FaultContext) -> Result<f64, SolverError> {
        Ok(self.dot(self, ctx)?.sqrt())
    }

    /// `self ← self + alpha · x`.
    fn axpy(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<(), SolverError>;

    /// `self ← x + alpha · self` (the CG search-direction update).
    fn xpay(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<(), SolverError>;

    /// `self ← alpha · self`.
    fn scale(&mut self, alpha: f64, ctx: &FaultContext) -> Result<(), SolverError>;

    /// Fused `self ← self + alpha · x` returning the updated `self · self` —
    /// CG's residual update and convergence reduction in one kernel, so
    /// protected storage checks and re-encodes each codeword group once
    /// instead of three times.
    ///
    /// Each impl must fail before it writes `self`, or never fail: the
    /// solvers retry the whole call after a parity rebuild, so an AXPY
    /// written before a failing dot would be applied twice.
    fn dot_axpy(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<f64, SolverError>;

    /// Fused `self ← beta · self + alpha · x` — the Chebyshev
    /// search-direction update, one pass instead of a scale followed by an
    /// AXPY.  Like [`SolverVector::dot_axpy`], each impl must fail before
    /// it writes `self`, or never fail.
    fn scale_axpy(
        &mut self,
        beta: f64,
        alpha: f64,
        x: &Self,
        ctx: &FaultContext,
    ) -> Result<(), SolverError>;

    /// True when [`SolverVector::axpy_xpay`] is one kernel that can fail
    /// only before it writes either vector.  Only then may a solver retry
    /// the call as one unit after a parity rebuild; otherwise it runs and
    /// retries [`SolverVector::axpy`] and [`SolverVector::xpay`] one by one,
    /// because the default has already written `self` when its XPAY fails
    /// and a whole retry would apply the AXPY twice.
    const FUSED_AXPY_XPAY: bool = false;

    /// Fused `self ← self + alpha · p; p ← r + beta · p` — CG's iterate and
    /// search-direction updates in one pass, `self` reading `p` before it
    /// changes.  The default runs [`SolverVector::axpy`] then
    /// [`SolverVector::xpay`]; protected backends override it with one
    /// kernel that reads each of the three operands once (bitwise the same
    /// result) and set [`SolverVector::FUSED_AXPY_XPAY`].
    fn axpy_xpay(
        &mut self,
        alpha: f64,
        p: &mut Self,
        beta: f64,
        r: &Self,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        self.axpy(alpha, p, ctx)?;
        p.xpay(beta, r, ctx)
    }

    /// Overwrites every element with `value` (re-encoding, never reading).
    fn fill(&mut self, value: f64);

    /// Copies (and re-encodes) the contents of `other`.
    fn copy_from(&mut self, other: &Self, ctx: &FaultContext) -> Result<(), SolverError>;

    /// Pointwise read-modify-write `self[i] ← f(i, self[i])` — the primitive
    /// behind Jacobi's diagonally scaled correction.
    fn update_indexed(
        &mut self,
        ctx: &FaultContext,
        f: impl FnMut(usize, f64) -> f64,
    ) -> Result<(), SolverError>;

    /// Decodes into a plain `Vec<f64>` (masked values for protected storage).
    fn to_plain(&self) -> Vec<f64>;

    /// Decodes into a caller-provided buffer **with** integrity checks on
    /// protected storage (unlike [`SolverVector::to_plain`], which is the
    /// unchecked fast path) and without allocating — the read primitive for
    /// per-iteration solver consumption of a vector's values.
    fn read_checked(&self, out: &mut [f64], ctx: &FaultContext) -> Result<(), SolverError>;

    /// Attempts to recover this vector after a kernel reported an
    /// uncorrectable dense-vector fault: storage with an erasure (parity)
    /// tier rebuilds the lost chunk, re-verifies it, and returns `true` so
    /// the solver can retry the failed kernel.  The default declines —
    /// plain storage and parity-free protected storage have nothing to
    /// rebuild from, so the fault stays terminal.
    fn try_rebuild(&mut self, ctx: &FaultContext) -> bool {
        let _ = ctx;
        false
    }
}

/// The operator surface an iterative solver needs: `y = A x` plus the
/// bookkeeping that lets a protection tier hide underneath it.
pub trait LinearOperator {
    /// The vector storage this operator computes with.
    type Vector: SolverVector;

    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// `y = A x`.  `iteration` drives the check-interval policy of protected
    /// backends (§VI-A-2); `x` is mutable because the fully protected SpMV
    /// scrubs (repairs) the input vector as its read-side integrity pass.
    fn apply(
        &self,
        x: &mut Self::Vector,
        y: &mut Self::Vector,
        iteration: u64,
        ctx: &FaultContext,
    ) -> Result<(), SolverError>;

    /// `ys[j] = A xs[j]` for a width-k panel of vectors — the multi-RHS
    /// form of [`LinearOperator::apply`].
    ///
    /// Contract: every passed column is live (`col_errors` entries are all
    /// `None` on entry; the block solver compacts converged/faulted columns
    /// out of the panel before calling).  A column whose *vector-side*
    /// integrity fails is isolated: its error is parked in `col_errors[j]`,
    /// its `ys[j]` is unspecified, and the other columns proceed.  `Err`
    /// means a panel-fatal *matrix-side* fault (every column read the same
    /// corrupt structure).
    ///
    /// The default runs one [`LinearOperator::apply`] per column with that
    /// column's context — each column pays its own matrix traversal, and
    /// any error (these backends cannot attribute it) is treated as
    /// column-local.  Protected backends override this with the SpMM
    /// kernels: each matrix codeword group is verified **once** per panel
    /// (per-RHS matrix verify cost `1/k`), with matrix-side checks recorded
    /// in `matrix_ctx` instead of the per-column contexts.
    fn apply_panel(
        &self,
        xs: &mut [&mut Self::Vector],
        ys: &mut [&mut Self::Vector],
        iteration: u64,
        col_ctxs: &[&FaultContext],
        matrix_ctx: &FaultContext,
        col_errors: &mut [Option<SolverError>],
    ) -> Result<(), SolverError> {
        let _ = matrix_ctx;
        for (j, (x, y)) in xs.iter_mut().zip(ys.iter_mut()).enumerate() {
            if col_errors[j].is_some() {
                continue;
            }
            if let Err(e) = self.apply(x, y, iteration, col_ctxs[j]) {
                col_errors[j] = Some(e);
            }
        }
        Ok(())
    }

    /// `y = A x` returning `x · y` — a CG step's SpMV with the `p · Ap` that
    /// follows it.  The default is [`LinearOperator::apply`] then
    /// [`SolverVector::dot`] (a retry re-runs both, and re-running the SpMV
    /// is harmless); the fully protected backend overrides it with the SpMV
    /// that sums the dot from the products it encodes into `y` — bitwise the
    /// same value, without re-verifying the two vectors it has just
    /// certified and written.
    fn apply_dot(
        &self,
        x: &mut Self::Vector,
        y: &mut Self::Vector,
        iteration: u64,
        ctx: &FaultContext,
    ) -> Result<f64, SolverError> {
        self.apply(x, y, iteration, ctx)?;
        x.dot(y, ctx)
    }

    /// [`LinearOperator::apply_panel`] that also returns `xs[j] · ys[j]` in
    /// slot `j` for every column left without an error (other slots are
    /// unspecified).  The default is `apply_panel` then one
    /// [`SolverVector::dot`] per such column in that column's context, a
    /// failing dot parked in `col_errors[j]`; the fully protected backend
    /// overrides it with the SpMM that accumulates the dots while it
    /// encodes the outputs.
    fn apply_panel_dot(
        &self,
        xs: &mut [&mut Self::Vector],
        ys: &mut [&mut Self::Vector],
        iteration: u64,
        col_ctxs: &[&FaultContext],
        matrix_ctx: &FaultContext,
        col_errors: &mut [Option<SolverError>],
    ) -> Result<[f64; MAX_PANEL_WIDTH], SolverError> {
        self.apply_panel(xs, ys, iteration, col_ctxs, matrix_ctx, col_errors)?;
        let mut dots = [0.0; MAX_PANEL_WIDTH];
        for (j, (x, y)) in xs.iter().zip(ys.iter()).enumerate() {
            if col_errors[j].is_none() {
                match x.dot(y, col_ctxs[j]) {
                    Ok(d) => dots[j] = d,
                    Err(e) => col_errors[j] = Some(e),
                }
            }
        }
        Ok(dots)
    }

    /// The matrix diagonal as plain values (Jacobi's preconditioner).
    fn diagonal(&self, ctx: &FaultContext) -> Result<Vec<f64>, SolverError>;

    /// Encodes plain values into this backend's vector storage.
    fn vector_from(&self, values: &[f64]) -> Self::Vector;

    /// A zero vector of length `n` in this backend's storage.
    fn zero_vector(&self, n: usize) -> Self::Vector;

    /// Spectral-bound estimate for Chebyshev-type solvers, when the backend
    /// can provide one.
    fn bounds_hint(&self) -> Option<crate::chebyshev::ChebyshevBounds> {
        None
    }

    /// The backend's reduction workspace, when it owns one (the protected
    /// backends do, next to their SpMV workspace).  The solve front door
    /// attaches it to the [`FaultContext`] so the parallel BLAS-1 kernels
    /// run allocation-free.
    fn reduction_workspace(&self) -> Option<&RefCell<ReductionWorkspace>> {
        None
    }

    /// End-of-solve hook: runs the whole-matrix verification mandated when
    /// the check policy skipped per-iteration checks, scrubs the solution
    /// vector if any correctable error was observed, and decodes it to plain
    /// values.
    fn finish(
        &self,
        solution: &mut Self::Vector,
        ctx: &FaultContext,
    ) -> Result<Vec<f64>, SolverError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_core::Region;

    #[test]
    fn context_snapshots_log_activity() {
        let ctx = FaultContext::new();
        ctx.log().record_corrected(Region::DenseVector);
        ctx.log().record_checks(Region::CsrElements, 3);
        let snap = ctx.snapshot();
        assert_eq!(snap.total_corrected(), 1);
        assert_eq!(snap.checks[0], 3);
    }

    #[test]
    fn error_conversions_round_trip() {
        let abft = AbftError::Uncorrectable {
            region: Region::DenseVector,
            index: 4,
        };
        let err: SolverError = abft.clone().into();
        assert_eq!(err.fault(), Some(&abft));
        assert_eq!(err.clone().into_abft(), abft);
        assert!(err.to_string().contains("fault"));

        let unsupported = SolverError::Unsupported("why".into());
        assert!(unsupported.fault().is_none());
        assert!(matches!(
            unsupported.clone().into_abft(),
            AbftError::Unsupported(_)
        ));
        assert!(unsupported.to_string().contains("why"));
    }
}
