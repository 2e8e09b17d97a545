//! Concrete [`LinearOperator`] backends, one per protection tier:
//!
//! * [`Plain`] — unprotected [`CsrMatrix`] with plain work vectors (serial or
//!   pool-parallel kernels); the 0 % baseline of every overhead figure.
//! * [`MatrixProtected`] — protected matrix with plain work vectors, the
//!   configuration of Figures 4–8.
//! * [`FullyProtected`] — protected matrix *and* protected work vectors, the
//!   configuration of Figure 9 and the combined-overhead experiment.
//!
//! All three expose the same trait surface, so the generic solvers in
//! [`crate::generic`] run unchanged on any of them.  The protected backends
//! borrow an [`AnyProtectedMatrix`] of any storage tier: encoding it is done
//! once by the caller (or by the [`Solver`](crate::Solver) front door) and
//! the operator is reused across solves within a time-step, matching
//! TeaLeaf's structure.

use crate::backend::{FaultContext, LinearOperator, SolverError, SolverVector};
use crate::chebyshev::ChebyshevBounds;
use abft_core::spmv::{
    protected_spmm, protected_spmm_dot, protected_spmm_plain, protected_spmv, protected_spmv_dot,
};
use abft_core::{
    AbftError, AnyProtectedMatrix, EccScheme, FaultLog, ProtectedMatrix, ProtectedVector,
    ReductionWorkspace, SpmmWorkspace, SpmvWorkspace, MAX_PANEL_WIDTH,
};
use abft_sparse::spmv::{axpy_parallel, dot_parallel_with, spmv_parallel, spmv_serial};
use abft_sparse::vector::{blas_axpy, blas_dot};
use abft_sparse::CsrMatrix;
use std::cell::RefCell;

/// The signature shared by the fully protected panel kernels.
type PanelKernel<R> = fn(
    &AnyProtectedMatrix,
    &mut [&mut ProtectedVector],
    &mut [&mut ProtectedVector],
    u64,
    &[&FaultLog],
    &FaultLog,
    &mut [Option<AbftError>],
    &mut SpmmWorkspace,
) -> Result<R, AbftError>;

/// Plain work vector: `Vec<f64>` storage plus the kernel-dispatch flag, so a
/// parallel solve uses the pool dot/AXPY kernels exactly as the plain CG
/// baseline always has.
#[derive(Debug, Clone, PartialEq)]
pub struct PlainVector {
    data: Vec<f64>,
    parallel: bool,
}

impl PlainVector {
    /// Wraps plain values.
    pub fn new(data: Vec<f64>, parallel: bool) -> Self {
        PlainVector { data, parallel }
    }

    /// Read-only view of the storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// Runs a reduction kernel with the workspace the context carries (the
/// backend's, preallocated — see [`FaultContext::scoped_to`]), or with a
/// transient one for contexts built outside the solve front door.
fn with_reduction<T>(ctx: &FaultContext, kernel: impl FnOnce(&mut ReductionWorkspace) -> T) -> T {
    match ctx.reduction() {
        Some(cell) => kernel(&mut cell.borrow_mut()),
        None => kernel(&mut ReductionWorkspace::new()),
    }
}

impl SolverVector for PlainVector {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn dot(&self, other: &Self, ctx: &FaultContext) -> Result<f64, SolverError> {
        Ok(if self.parallel {
            with_reduction(ctx, |ws| {
                dot_parallel_with(&self.data, &other.data, ws.plain_chunk_buffer())
            })
        } else {
            blas_dot(&self.data, &other.data)
        })
    }

    fn axpy(&mut self, alpha: f64, x: &Self, _ctx: &FaultContext) -> Result<(), SolverError> {
        if self.parallel {
            axpy_parallel(&mut self.data, alpha, &x.data);
        } else {
            blas_axpy(&mut self.data, alpha, &x.data);
        }
        Ok(())
    }

    fn xpay(&mut self, alpha: f64, x: &Self, _ctx: &FaultContext) -> Result<(), SolverError> {
        assert_eq!(self.len(), x.len(), "xpay: length mismatch");
        for (s, &xi) in self.data.iter_mut().zip(&x.data) {
            *s = xi + alpha * *s;
        }
        Ok(())
    }

    fn scale(&mut self, alpha: f64, _ctx: &FaultContext) -> Result<(), SolverError> {
        for v in &mut self.data {
            *v *= alpha;
        }
        Ok(())
    }

    /// The AXPY then the dot: plain storage never errs, so the two passes
    /// are safe to retry.
    fn dot_axpy(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<f64, SolverError> {
        self.axpy(alpha, x, ctx)?;
        self.dot(self, ctx)
    }

    fn scale_axpy(
        &mut self,
        beta: f64,
        alpha: f64,
        x: &Self,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        self.scale(beta, ctx)?;
        self.axpy(alpha, x, ctx)
    }

    /// Plain storage never errs, so the one-pass form is safe to retry.
    const FUSED_AXPY_XPAY: bool = true;

    /// One pass over the three vectors when serial: PPCG and FT-PCG run this
    /// update after the preconditioner, which has evicted `x` and `p` from
    /// cache, and the two-pass default would read `p` back twice.  Bitwise
    /// the default's AXPY then XPAY.
    fn axpy_xpay(
        &mut self,
        alpha: f64,
        p: &mut Self,
        beta: f64,
        r: &Self,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        if self.parallel {
            self.axpy(alpha, p, ctx)?;
            return p.xpay(beta, r, ctx);
        }
        assert!(
            self.len() == p.len() && p.len() == r.len(),
            "axpy_xpay: length mismatch"
        );
        for ((x, p), &r) in self.data.iter_mut().zip(&mut p.data).zip(&r.data) {
            *x += alpha * *p;
            *p = r + beta * *p;
        }
        Ok(())
    }

    fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    fn copy_from(&mut self, other: &Self, _ctx: &FaultContext) -> Result<(), SolverError> {
        assert_eq!(self.len(), other.len(), "copy_from: length mismatch");
        self.data.copy_from_slice(&other.data);
        Ok(())
    }

    fn update_indexed(
        &mut self,
        _ctx: &FaultContext,
        mut f: impl FnMut(usize, f64) -> f64,
    ) -> Result<(), SolverError> {
        for (i, v) in self.data.iter_mut().enumerate() {
            *v = f(i, *v);
        }
        Ok(())
    }

    fn to_plain(&self) -> Vec<f64> {
        self.data.clone()
    }

    fn read_checked(&self, out: &mut [f64], _ctx: &FaultContext) -> Result<(), SolverError> {
        out.copy_from_slice(&self.data);
        Ok(())
    }
}

/// The protected vector rides the masked-slice BLAS-1 kernels of
/// [`abft_core::blas1`]: every codeword group is checked once with the
/// verify-only predicate, the arithmetic runs over the raw words with the
/// mask in a register, and check tallies reach the fault log in one bulk
/// update per kernel.  Each kernel follows the vector's own parallel hint
/// (set by [`FullyProtected`] from the matrix configuration).
impl SolverVector for ProtectedVector {
    fn len(&self) -> usize {
        ProtectedVector::len(self)
    }

    fn dot(&self, other: &Self, ctx: &FaultContext) -> Result<f64, SolverError> {
        Ok(with_reduction(ctx, |ws| {
            self.dot_masked_with(other, ctx.log(), ws)
        })?)
    }

    fn norm2(&self, ctx: &FaultContext) -> Result<f64, SolverError> {
        // Single pass: one check per group, not the two of dot(self, self).
        Ok(with_reduction(ctx, |ws| {
            self.norm2_masked_with(ctx.log(), ws)
        })?)
    }

    fn axpy(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<(), SolverError> {
        Ok(self.axpy_masked(alpha, x, ctx.log())?)
    }

    fn xpay(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<(), SolverError> {
        Ok(self.xpay_masked(alpha, x, ctx.log())?)
    }

    fn scale(&mut self, alpha: f64, ctx: &FaultContext) -> Result<(), SolverError> {
        Ok(self.scale_masked(alpha, ctx.log())?)
    }

    fn dot_axpy(&mut self, alpha: f64, x: &Self, ctx: &FaultContext) -> Result<f64, SolverError> {
        Ok(with_reduction(ctx, |ws| {
            self.dot_axpy_masked_with(alpha, x, ctx.log(), ws)
        })?)
    }

    fn scale_axpy(
        &mut self,
        beta: f64,
        alpha: f64,
        x: &Self,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        Ok(self.scale_axpy_masked(beta, alpha, x, ctx.log())?)
    }

    /// The masked kernel certifies all three operands before it writes.
    const FUSED_AXPY_XPAY: bool = true;

    fn axpy_xpay(
        &mut self,
        alpha: f64,
        p: &mut Self,
        beta: f64,
        r: &Self,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        Ok(self.axpy_xpay_masked(alpha, p, beta, r, ctx.log())?)
    }

    fn fill(&mut self, value: f64) {
        ProtectedVector::fill(self, value);
    }

    fn copy_from(&mut self, other: &Self, ctx: &FaultContext) -> Result<(), SolverError> {
        Ok(ProtectedVector::copy_from(self, other, ctx.log())?)
    }

    fn update_indexed(
        &mut self,
        ctx: &FaultContext,
        f: impl FnMut(usize, f64) -> f64,
    ) -> Result<(), SolverError> {
        Ok(self.update_from_fn(ctx.log(), f)?)
    }

    fn to_plain(&self) -> Vec<f64> {
        self.to_vec()
    }

    fn read_checked(&self, out: &mut [f64], ctx: &FaultContext) -> Result<(), SolverError> {
        Ok(ProtectedVector::read_checked(self, out, ctx.log())?)
    }

    fn try_rebuild(&mut self, ctx: &FaultContext) -> bool {
        // Escalation ladder of the erasure tier: scrub → parity rebuild of
        // the chunk the DUE was attributed to → re-verify, looping until the
        // storage certifies clean or a stripe proves unrecoverable.
        self.try_recover(ctx.log())
    }
}

/// The checked decode of the solve path.  Whole-matrix reads outside the
/// SpMV kernels (Jacobi's diagonal, Gershgorin bounds, the matrix a
/// preconditioner is factored from) read this plain decode of a scrubbed
/// private copy rather than the unchecked `to_csr`: the scrub verifies every
/// codeword, repairing the row structure before anything is indexed through
/// it, and the borrowed matrix is never written.  An uncorrectable codeword
/// is a [`SolverError::Fault`], never a wild index.  The copy is the only
/// one made: it is decoded in its own arrays
/// ([`AnyProtectedMatrix::into_csr`]).
pub fn decode_checked(
    matrix: &AnyProtectedMatrix,
    log: &FaultLog,
) -> Result<CsrMatrix, SolverError> {
    let mut scrubbed = matrix.clone();
    scrubbed.scrub(log)?;
    Ok(scrubbed.into_csr())
}

/// [`LinearOperator::bounds_hint`] of the protected backends.  The trait
/// method carries no context, so the checked decode records into a scratch
/// log; a matrix that fails it yields no hint.
fn bounds_hint_checked(matrix: &AnyProtectedMatrix) -> Option<ChebyshevBounds> {
    let plain = decode_checked(matrix, &FaultLog::new()).ok()?;
    Some(ChebyshevBounds::estimate_gershgorin(&plain))
}

/// Runs `$body` with `$op` bound to the backend `$matrix` was encoded for —
/// [`MatrixProtected`] when its configuration leaves the dense vectors
/// plain, [`FullyProtected`] otherwise.  The two backends compute with
/// different vector types, so the body is instantiated once per arm; this
/// macro is the only place a configuration is turned into a backend.
#[macro_export]
macro_rules! with_backend {
    ($matrix:expr, |$op:ident| $body:expr) => {{
        let matrix = $matrix;
        if $crate::backends::protects_vectors(matrix) {
            let $op = &$crate::backends::FullyProtected::new(matrix);
            $body
        } else {
            let $op = &$crate::backends::MatrixProtected::new(matrix);
            $body
        }
    }};
}

/// The predicate behind [`with_backend!`](crate::with_backend).
#[doc(hidden)]
pub fn protects_vectors(matrix: &AnyProtectedMatrix) -> bool {
    matrix.config().vectors != EccScheme::None
}

/// The unprotected baseline backend.  Like the protected backends it owns
/// a [`ReductionWorkspace`], so a parallel solve reuses its dot partials
/// across iterations instead of allocating them per call.
#[derive(Debug, Clone)]
pub struct Plain<'a> {
    matrix: &'a CsrMatrix,
    parallel: bool,
    reduction: RefCell<ReductionWorkspace>,
}

impl<'a> Plain<'a> {
    /// Wraps a plain CSR matrix; `parallel` selects the pool kernels.
    pub fn new(matrix: &'a CsrMatrix, parallel: bool) -> Self {
        Plain {
            matrix,
            parallel,
            reduction: RefCell::new(ReductionWorkspace::new()),
        }
    }
}

impl LinearOperator for Plain<'_> {
    type Vector = PlainVector;

    fn rows(&self) -> usize {
        self.matrix.rows()
    }

    fn cols(&self) -> usize {
        self.matrix.cols()
    }

    fn apply(
        &self,
        x: &mut PlainVector,
        y: &mut PlainVector,
        _iteration: u64,
        _ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        if self.parallel {
            spmv_parallel(self.matrix, &x.data, &mut y.data);
        } else {
            spmv_serial(self.matrix, &x.data, &mut y.data);
        }
        Ok(())
    }

    fn diagonal(&self, _ctx: &FaultContext) -> Result<Vec<f64>, SolverError> {
        Ok(self.matrix.diagonal().into_vec())
    }

    fn vector_from(&self, values: &[f64]) -> PlainVector {
        PlainVector::new(values.to_vec(), self.parallel)
    }

    fn zero_vector(&self, n: usize) -> PlainVector {
        PlainVector::new(vec![0.0; n], self.parallel)
    }

    fn bounds_hint(&self) -> Option<ChebyshevBounds> {
        Some(ChebyshevBounds::estimate_gershgorin(self.matrix))
    }

    fn reduction_workspace(&self) -> Option<&RefCell<ReductionWorkspace>> {
        Some(&self.reduction)
    }

    fn finish(
        &self,
        solution: &mut PlainVector,
        _ctx: &FaultContext,
    ) -> Result<Vec<f64>, SolverError> {
        Ok(solution.to_plain())
    }
}

/// The matrix-only protection tier (Figures 4–8): protected matrix of any
/// storage tier, plain work vectors.
///
/// The operator owns a [`SpmvWorkspace`] and a [`ReductionWorkspace`]
/// behind `RefCell`s, so repeated `apply` calls and parallel BLAS-1
/// reductions from a solver loop reuse the same scratch buffers — zero
/// heap allocations per iteration once the first one has warmed them.
#[derive(Debug, Clone)]
pub struct MatrixProtected<'a> {
    matrix: &'a AnyProtectedMatrix,
    workspace: RefCell<SpmvWorkspace>,
    spmm: RefCell<SpmmWorkspace>,
    reduction: RefCell<ReductionWorkspace>,
}

impl<'a> MatrixProtected<'a> {
    /// Wraps an already-encoded protected matrix.
    pub fn new(matrix: &'a AnyProtectedMatrix) -> Self {
        MatrixProtected {
            matrix,
            workspace: RefCell::new(SpmvWorkspace::new()),
            spmm: RefCell::new(SpmmWorkspace::new()),
            reduction: RefCell::new(ReductionWorkspace::new()),
        }
    }
}

impl LinearOperator for MatrixProtected<'_> {
    type Vector = PlainVector;

    fn rows(&self) -> usize {
        self.matrix.rows()
    }

    fn cols(&self) -> usize {
        self.matrix.cols()
    }

    fn apply(
        &self,
        x: &mut PlainVector,
        y: &mut PlainVector,
        iteration: u64,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        let mut ws = self.workspace.borrow_mut();
        Ok(self
            .matrix
            .spmv_with(&x.data[..], &mut y.data, iteration, ctx.log(), &mut ws)?)
    }

    fn apply_panel(
        &self,
        xs: &mut [&mut PlainVector],
        ys: &mut [&mut PlainVector],
        iteration: u64,
        _col_ctxs: &[&FaultContext],
        matrix_ctx: &FaultContext,
        _col_errors: &mut [Option<SolverError>],
    ) -> Result<(), SolverError> {
        // Plain work vectors cannot fault, so every error here is
        // matrix-side and panel-fatal; matrix checks are recorded once in
        // the panel's matrix context (1/k per RHS).
        let mut ws = self.spmm.borrow_mut();
        let width = xs.len();
        let mut x_slices = [&[][..]; MAX_PANEL_WIDTH];
        let mut y_slices: [&mut [f64]; MAX_PANEL_WIDTH] = Default::default();
        for (slot, x) in x_slices.iter_mut().zip(xs.iter()) {
            *slot = &x.data[..];
        }
        for (slot, y) in y_slices.iter_mut().zip(ys.iter_mut()) {
            *slot = &mut y.data[..];
        }
        Ok(protected_spmm_plain(
            self.matrix,
            &x_slices[..width],
            &mut y_slices[..width],
            iteration,
            matrix_ctx.log(),
            &mut ws,
        )?)
    }

    fn diagonal(&self, ctx: &FaultContext) -> Result<Vec<f64>, SolverError> {
        Ok(decode_checked(self.matrix, ctx.log())?
            .diagonal()
            .into_vec())
    }

    fn vector_from(&self, values: &[f64]) -> PlainVector {
        PlainVector::new(values.to_vec(), self.matrix.config().parallel)
    }

    fn zero_vector(&self, n: usize) -> PlainVector {
        PlainVector::new(vec![0.0; n], self.matrix.config().parallel)
    }

    fn bounds_hint(&self) -> Option<ChebyshevBounds> {
        bounds_hint_checked(self.matrix)
    }

    fn reduction_workspace(&self) -> Option<&RefCell<ReductionWorkspace>> {
        Some(&self.reduction)
    }

    fn finish(
        &self,
        solution: &mut PlainVector,
        ctx: &FaultContext,
    ) -> Result<Vec<f64>, SolverError> {
        // End-of-solve whole-matrix check: mandatory when the interval policy
        // may have skipped per-iteration checks (§VI-A-2).
        if self.matrix.policy().interval() > 1 {
            self.matrix.verify_all(ctx.log())?;
        }
        Ok(solution.to_plain())
    }
}

/// The fully protected tier (Figure 9 / combined): protected matrix and
/// protected work vectors.
///
/// Like [`MatrixProtected`], the operator owns the [`SpmvWorkspace`] its
/// kernels stage row products in and the [`ReductionWorkspace`] the
/// parallel BLAS-1 reductions accumulate in, so solver iterations allocate
/// nothing.
#[derive(Debug, Clone)]
pub struct FullyProtected<'a> {
    matrix: &'a AnyProtectedMatrix,
    workspace: RefCell<SpmvWorkspace>,
    spmm: RefCell<SpmmWorkspace>,
    reduction: RefCell<ReductionWorkspace>,
}

impl<'a> FullyProtected<'a> {
    /// Wraps an already-encoded protected matrix; the vector scheme and CRC
    /// backend are taken from the matrix's protection configuration.
    pub fn new(matrix: &'a AnyProtectedMatrix) -> Self {
        FullyProtected {
            matrix,
            workspace: RefCell::new(SpmvWorkspace::new()),
            spmm: RefCell::new(SpmmWorkspace::new()),
            reduction: RefCell::new(ReductionWorkspace::new()),
        }
    }

    /// Runs one of the panel kernels (`protected_spmm` or
    /// `protected_spmm_dot`) with each column's vector-side scrub reporting
    /// to its own context and the single matrix traversal to the panel's
    /// matrix context.  A column whose input fails its scrub is dropped
    /// from the panel and its error parked — only matrix-side faults abort
    /// the whole panel.
    #[allow(clippy::too_many_arguments)]
    fn panel<R>(
        &self,
        xs: &mut [&mut ProtectedVector],
        ys: &mut [&mut ProtectedVector],
        iteration: u64,
        col_ctxs: &[&FaultContext],
        matrix_ctx: &FaultContext,
        col_errors: &mut [Option<SolverError>],
        kernel: PanelKernel<R>,
    ) -> Result<R, SolverError> {
        let mut ws = self.spmm.borrow_mut();
        let width = xs.len();
        let mut col_logs = [matrix_ctx.log(); MAX_PANEL_WIDTH];
        for (slot, ctx) in col_logs.iter_mut().zip(col_ctxs) {
            *slot = ctx.log();
        }
        let mut abft_errors: [Option<AbftError>; MAX_PANEL_WIDTH] = Default::default();
        let out = kernel(
            self.matrix,
            xs,
            ys,
            iteration,
            &col_logs[..width],
            matrix_ctx.log(),
            &mut abft_errors[..width],
            &mut ws,
        )?;
        for (slot, err) in col_errors.iter_mut().zip(abft_errors) {
            if let Some(e) = err {
                *slot = Some(SolverError::Fault(e));
            }
        }
        Ok(out)
    }

    /// `v` with the matrix configuration's parallel hint and, over
    /// protected vectors, its parity tier.
    fn configured(&self, mut v: ProtectedVector) -> ProtectedVector {
        let config = self.matrix.config();
        v.set_parallel(config.parallel);
        if let Some(parity) = config.parity {
            if config.vectors != EccScheme::None {
                v.enable_parity(parity);
            }
        }
        v
    }
}

impl LinearOperator for FullyProtected<'_> {
    type Vector = ProtectedVector;

    fn rows(&self) -> usize {
        self.matrix.rows()
    }

    fn cols(&self) -> usize {
        self.matrix.cols()
    }

    fn apply(
        &self,
        x: &mut ProtectedVector,
        y: &mut ProtectedVector,
        iteration: u64,
        ctx: &FaultContext,
    ) -> Result<(), SolverError> {
        let mut ws = self.workspace.borrow_mut();
        Ok(protected_spmv(
            self.matrix,
            x,
            y,
            iteration,
            ctx.log(),
            &mut ws,
        )?)
    }

    fn apply_dot(
        &self,
        x: &mut ProtectedVector,
        y: &mut ProtectedVector,
        iteration: u64,
        ctx: &FaultContext,
    ) -> Result<f64, SolverError> {
        let mut ws = self.workspace.borrow_mut();
        Ok(protected_spmv_dot(
            self.matrix,
            x,
            y,
            iteration,
            ctx.log(),
            &mut ws,
        )?)
    }

    fn apply_panel(
        &self,
        xs: &mut [&mut ProtectedVector],
        ys: &mut [&mut ProtectedVector],
        iteration: u64,
        col_ctxs: &[&FaultContext],
        matrix_ctx: &FaultContext,
        col_errors: &mut [Option<SolverError>],
    ) -> Result<(), SolverError> {
        self.panel(
            xs,
            ys,
            iteration,
            col_ctxs,
            matrix_ctx,
            col_errors,
            protected_spmm,
        )
    }

    fn apply_panel_dot(
        &self,
        xs: &mut [&mut ProtectedVector],
        ys: &mut [&mut ProtectedVector],
        iteration: u64,
        col_ctxs: &[&FaultContext],
        matrix_ctx: &FaultContext,
        col_errors: &mut [Option<SolverError>],
    ) -> Result<[f64; MAX_PANEL_WIDTH], SolverError> {
        self.panel(
            xs,
            ys,
            iteration,
            col_ctxs,
            matrix_ctx,
            col_errors,
            protected_spmm_dot,
        )
    }

    fn diagonal(&self, ctx: &FaultContext) -> Result<Vec<f64>, SolverError> {
        Ok(decode_checked(self.matrix, ctx.log())?
            .diagonal()
            .into_vec())
    }

    fn vector_from(&self, values: &[f64]) -> ProtectedVector {
        let config = self.matrix.config();
        self.configured(ProtectedVector::from_slice(
            values,
            config.vectors,
            config.crc_backend,
        ))
    }

    fn zero_vector(&self, n: usize) -> ProtectedVector {
        // Not `vector_from(&vec![0.0; n])`: that keeps the zero slice alive
        // while `configured` allocates the parity words, which raised the
        // `queue_panel8_parity` benchmark's peak RSS by about 30 %.
        let config = self.matrix.config();
        self.configured(ProtectedVector::zeros(
            n,
            config.vectors,
            config.crc_backend,
        ))
    }

    fn bounds_hint(&self) -> Option<ChebyshevBounds> {
        bounds_hint_checked(self.matrix)
    }

    fn reduction_workspace(&self) -> Option<&RefCell<ReductionWorkspace>> {
        Some(&self.reduction)
    }

    fn finish(
        &self,
        solution: &mut ProtectedVector,
        ctx: &FaultContext,
    ) -> Result<Vec<f64>, SolverError> {
        if self.matrix.policy().interval() > 1 {
            self.matrix.verify_all(ctx.log())?;
        }
        // Any corrected error observed during the solve is repaired in place
        // so the returned solution reflects clean storage.
        if self.matrix.config().vectors != EccScheme::None && ctx.log().total_corrected() > 0 {
            solution.scrub(ctx.log())?;
        }
        Ok(solution.to_plain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_core::{ProtectionConfig, StorageTier};
    use abft_ecc::Crc32cBackend;
    use abft_sparse::builders::poisson_2d_padded;

    fn matrix() -> CsrMatrix {
        poisson_2d_padded(6, 5)
    }

    fn encode(m: &CsrMatrix, cfg: &ProtectionConfig) -> AnyProtectedMatrix {
        AnyProtectedMatrix::encode(m, cfg, StorageTier::Csr).unwrap()
    }

    #[test]
    fn plain_vector_kernels_match_reference() {
        let ctx = FaultContext::new();
        for parallel in [false, true] {
            let mut y = PlainVector::new(vec![1.0, 2.0, 3.0], parallel);
            let x = PlainVector::new(vec![4.0, 5.0, 6.0], parallel);
            assert_eq!(y.dot(&x, &ctx).unwrap(), 4.0 + 10.0 + 18.0);
            y.axpy(2.0, &x, &ctx).unwrap();
            assert_eq!(y.as_slice(), &[9.0, 12.0, 15.0]);
            y.xpay(0.5, &x, &ctx).unwrap();
            assert_eq!(y.as_slice(), &[8.5, 11.0, 13.5]);
            y.scale(2.0, &ctx).unwrap();
            assert_eq!(y.as_slice(), &[17.0, 22.0, 27.0]);
            y.copy_from(&x, &ctx).unwrap();
            y.update_indexed(&ctx, |i, v| v + i as f64).unwrap();
            assert_eq!(y.as_slice(), &[4.0, 6.0, 8.0]);
            y.fill(0.0);
            assert_eq!(y.norm2(&ctx).unwrap(), 0.0);
            assert!(!y.is_empty());
            assert_eq!(y.to_plain(), vec![0.0; 3]);
        }
    }

    #[test]
    fn protected_vector_trait_impl_delegates() {
        let ctx = FaultContext::new();
        let values: Vec<f64> = (0..13).map(|i| i as f64 + 0.5).collect();
        for scheme in EccScheme::ALL {
            let mut v = ProtectedVector::from_slice(&values, scheme, Crc32cBackend::SlicingBy16);
            let w = v.clone();
            let d = SolverVector::dot(&v, &w, &ctx).unwrap();
            let expect: f64 = v.to_plain().iter().map(|x| x * x).sum();
            assert!((d - expect).abs() < 1e-9, "{scheme:?}");
            SolverVector::scale(&mut v, 2.0, &ctx).unwrap();
            SolverVector::update_indexed(&mut v, &ctx, |_, x| x * 0.5).unwrap();
            for (a, b) in v.to_plain().iter().zip(w.to_plain()) {
                assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{scheme:?}");
            }
        }
    }

    #[test]
    fn operators_agree_on_the_same_spmv() {
        let m = matrix();
        let values: Vec<f64> = (0..m.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let ctx = FaultContext::new();

        let plain = Plain::new(&m, false);
        let mut x = plain.vector_from(&values);
        let mut y = plain.zero_vector(m.rows());
        plain.apply(&mut x, &mut y, 0, &ctx).unwrap();
        let reference = y.to_plain();
        assert_eq!(plain.rows(), m.rows());
        assert_eq!(plain.cols(), m.cols());
        assert!(plain.bounds_hint().is_some());

        let cfg = ProtectionConfig::matrix_only(EccScheme::Secded64)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let protected = encode(&m, &cfg);
        let op = MatrixProtected::new(&protected);
        let mut x2 = op.vector_from(&values);
        let mut y2 = op.zero_vector(m.rows());
        op.apply(&mut x2, &mut y2, 0, &ctx).unwrap();
        assert_eq!(y2.to_plain(), reference);
        assert_eq!(op.diagonal(&ctx).unwrap(), plain.diagonal(&ctx).unwrap());

        let full_cfg = ProtectionConfig::full(EccScheme::Secded64)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let full_matrix = encode(&m, &full_cfg);
        let full = FullyProtected::new(&full_matrix);
        let mut x3 = full.vector_from(&values);
        let mut y3 = full.zero_vector(m.rows());
        full.apply(&mut x3, &mut y3, 0, &ctx).unwrap();
        // The fully protected kernel computes with masked inputs, so compare
        // against a plain SpMV of the masked vector.
        let mut masked_ref = vec![0.0; m.rows()];
        spmv_serial(&m, &x3.to_plain(), &mut masked_ref);
        for (got, expect) in y3.to_plain().iter().zip(&masked_ref) {
            assert!((got - expect).abs() <= 1e-10 + 1e-12 * expect.abs());
        }
    }

    #[test]
    fn the_checked_decode_ends_in_the_copys_own_arrays() {
        let m = matrix();
        let cfg = ProtectionConfig::full(EccScheme::Secded64);
        for tier in [StorageTier::Csr, StorageTier::Coo] {
            let protected = AnyProtectedMatrix::encode(&m, &cfg, tier).unwrap();
            assert_eq!(decode_checked(&protected, &FaultLog::new()).unwrap(), m);
            // The consuming decode `decode_checked` ends in hands back the
            // scrubbed copy's value array itself.
            let copy = protected.clone();
            let values = match &copy {
                AnyProtectedMatrix::Csr(c) => c.raw_values().as_ptr(),
                AnyProtectedMatrix::Coo(c) => c.raw_values().as_ptr(),
                AnyProtectedMatrix::BlockedCsr(_) => unreachable!(),
            };
            let plain = copy.into_csr();
            assert_eq!(plain.values().as_ptr(), values, "{tier}");
            assert_eq!(plain, m, "{tier}");
        }
    }

    #[test]
    fn protected_bounds_hint_matches_the_plain_estimate() {
        let m = matrix();
        let plain_bounds = ChebyshevBounds::estimate_gershgorin(&m);
        for cfg in [
            ProtectionConfig::matrix_only(EccScheme::Crc32c)
                .with_crc_backend(Crc32cBackend::SlicingBy16),
            ProtectionConfig::full(EccScheme::Secded128)
                .with_crc_backend(Crc32cBackend::SlicingBy16),
        ] {
            let protected = encode(&m, &cfg);
            let hint = if cfg.vectors == EccScheme::None {
                MatrixProtected::new(&protected).bounds_hint().unwrap()
            } else {
                FullyProtected::new(&protected).bounds_hint().unwrap()
            };
            assert_eq!(hint, plain_bounds);
        }
        // The diagonal the solvers read goes through the checked decode:
        // both backends match the plain extraction on every tier and scheme,
        // clean or with one correctable flip in a diagonal value, which is
        // logged as exactly one correction.
        let expected = m.diagonal().into_vec();
        let mut row_7 = m.row_range(7);
        let k = row_7
            .find(|&k| m.col_indices()[k] == 7)
            .expect("a stored diagonal");
        for scheme in EccScheme::ALL {
            for cfg in [
                ProtectionConfig::matrix_only(scheme),
                ProtectionConfig::full(scheme),
            ] {
                let cfg = cfg
                    .with_crc_backend(Crc32cBackend::SlicingBy16)
                    .with_check_interval(5);
                for tier in [
                    StorageTier::Csr,
                    StorageTier::Coo,
                    StorageTier::BlockedCsr(3),
                ] {
                    let label = format!("{tier} {}", cfg.describe());
                    let mut protected = AnyProtectedMatrix::encode(&m, &cfg, tier).unwrap();
                    assert_eq!(protected.policy().interval(), 5, "{label}");
                    // Zero flips, then one where the scheme can correct it.
                    for flips in 0..=u64::from(scheme.corrects_single_flips()) {
                        if flips == 1 {
                            protected.inject_value_bit_flip(k, 41);
                        }
                        let diagonal = |ctx: &FaultContext| {
                            if protects_vectors(&protected) {
                                FullyProtected::new(&protected).diagonal(ctx)
                            } else {
                                MatrixProtected::new(&protected).diagonal(ctx)
                            }
                        };
                        let ctx = FaultContext::new();
                        assert_eq!(diagonal(&ctx).unwrap(), expected, "{label} flips {flips}");
                        let corrected = ctx.snapshot().total_corrected();
                        assert_eq!(corrected, flips, "{label} flips {flips}");
                    }
                }
            }
        }
        // The hint actually drives a bounds-less Chebyshev solve_operator.
        let cfg = ProtectionConfig::matrix_only(EccScheme::Secded64)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let protected = encode(&m, &cfg);
        let outcome = crate::Solver::chebyshev()
            .max_iterations(4000)
            .tolerance(1e-12)
            .solve_operator(&MatrixProtected::new(&protected), &vec![1.0; m.rows()])
            .unwrap();
        assert!(outcome.status.final_residual < outcome.status.initial_residual * 1e-6);
    }

    #[test]
    fn finish_verifies_and_scrubs() {
        let m = matrix();
        let cfg = ProtectionConfig::full(EccScheme::Secded64)
            .with_check_interval(16)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let protected = encode(&m, &cfg);
        let op = FullyProtected::new(&protected);
        let ctx = FaultContext::new();
        let mut x = op.vector_from(&vec![1.5; m.rows()]);
        // Corrupt the solution vector and mark that a correction happened
        // during the solve, which is what arms the end-of-solve scrub.
        x.inject_bit_flip(2, 40);
        ctx.log().record_corrected(abft_core::Region::DenseVector);
        let decoded = op.finish(&mut x, &ctx).unwrap();
        assert_eq!(decoded.len(), m.rows());
        assert!(ctx.snapshot().total_corrected() > 0);
        // After the scrub the storage verifies clean.
        let ctx2 = FaultContext::new();
        x.check_all(ctx2.log()).unwrap();
        assert_eq!(ctx2.snapshot().total_corrected(), 0);
    }
}
