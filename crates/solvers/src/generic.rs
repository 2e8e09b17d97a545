//! The four iterative solvers, written **once** against the backend trait
//! layer of [`crate::backend`].
//!
//! Each function is generic over a [`LinearOperator`], so the same code runs
//! the unprotected baseline, the matrix-protected tier (Figures 4–8) and the
//! fully protected tier (Figure 9 / combined) — the architectural point of
//! the paper: protection slides underneath an unmodified solver.  On the
//! plain backend the arithmetic is operation-for-operation identical to the
//! historical per-mode entry points, so trajectories (iterates, residuals,
//! iteration counts) are preserved bit-for-bit; the parity tests in
//! `tests/solver_api.rs` pin that down.
//!
//! All solvers start from `x = 0`, stop on the *absolute squared* residual
//! norm (TeaLeaf's `eps` convention) and report a [`SolveStatus`].

use crate::backend::{FaultContext, LinearOperator, SolverError, SolverVector};
use crate::chebyshev::ChebyshevBounds;
use crate::precond::Preconditioner;
use crate::status::{SolveStatus, SolverConfig, Termination};
use abft_core::{AbftError, FaultLogSnapshot, Region, MAX_PANEL_WIDTH};

/// True when a kernel failure is an uncorrectable dense-vector DUE — the one
/// class of fault the erasure tier can undo by rebuilding the lost chunk from
/// XOR parity ([`SolverVector::try_rebuild`]).  Matrix-side faults and
/// unsupported-operation errors are never rebuildable.
fn rebuildable(e: &SolverError) -> bool {
    matches!(
        e,
        SolverError::Fault(AbftError::Uncorrectable {
            region: Region::DenseVector,
            ..
        })
    )
}

/// Bounded pause between a parity rebuild and the kernel retry.  Fixed-count
/// spin rather than a clock so retried trajectories stay deterministic; long
/// enough that a concurrent scrubber on another worker gets a scheduling
/// edge before the retry re-reads the repaired storage.
fn rebuild_backoff() {
    for _ in 0..256 {
        std::hint::spin_loop();
    }
}

/// Runs a fallible kernel; on an uncorrectable dense-vector DUE, asks each
/// listed vector to rebuild its lost chunks from parity and — if any storage
/// was actually repaired — retries the kernel exactly once.  Everything else
/// (matrix faults, unsupported ops, a failure that survives the rebuild)
/// surfaces unchanged as [`Termination::Fault`] material.  Safe because
/// parity-maintaining kernels certify their operands *before* mutating
/// (failing reads leave zero partial writes), so the retry re-runs the exact
/// same arithmetic on repaired storage.
macro_rules! retry_kernel {
    ($ctx:expr, [$($v:expr),* $(,)?], $call:expr) => {{
        match $call {
            Err(e) if rebuildable(&e) => {
                let mut rebuilt = false;
                $( rebuilt |= $v.try_rebuild($ctx); )*
                if rebuilt {
                    rebuild_backoff();
                    $call
                } else {
                    Err(e)
                }
            }
            other => other,
        }
    }};
}

/// CG's `x ← x + α p; p ← r + β p` under [`retry_kernel!`]: one
/// fused call retried whole when the vector fuses it
/// ([`SolverVector::FUSED_AXPY_XPAY`]), otherwise the AXPY and the XPAY
/// each retried on its own, so a rebuild never re-applies a finished AXPY.
fn update_x_p<V: SolverVector>(
    x: &mut V,
    p: &mut V,
    r: &mut V,
    alpha: f64,
    beta: f64,
    ctx: &FaultContext,
) -> Result<(), SolverError> {
    if V::FUSED_AXPY_XPAY {
        retry_kernel!(ctx, [x, p, r], x.axpy_xpay(alpha, p, beta, r, ctx))
    } else {
        retry_kernel!(ctx, [x, p], x.axpy(alpha, p, ctx))?;
        retry_kernel!(ctx, [p, r], p.xpay(beta, r, ctx))
    }
}

/// Conjugate Gradient: `A x = b` from `x = 0`.
///
/// One SpMV and two dot products per iteration — the three kernels that hold
/// over 98 % of TeaLeaf's runtime and therefore carry the ABFT checks.  An
/// iteration is three passes, each through a fused trait method:
/// [`LinearOperator::apply_dot`] (`w = A p` and `p · w`),
/// [`SolverVector::dot_axpy`] (`r ← r − α w` and `r · r`) and
/// [`SolverVector::axpy_xpay`] (`x ← x + α p; p ← r + β p`; on convergence
/// the AXPY alone).  Protected backends verify each operand of a pass once;
/// on the plain backend each pass decomposes into exactly the historical
/// kernel sequence (the iterate update moved after the residual update,
/// which does not read it), preserving trajectories bit for bit.
pub fn cg<Op: LinearOperator>(
    op: &Op,
    b: &Op::Vector,
    config: &SolverConfig,
    ctx: &FaultContext,
) -> Result<(Op::Vector, SolveStatus), SolverError> {
    cg_with_poll(op, b, config, ctx, |_, _| {})
}

/// The live CG state handed to a [`cg_with_poll`] poll closure at each
/// iteration boundary.  Mutating a vector here models an upset striking
/// solver-owned state *mid-solve* (as opposed to at-rest storage): the next
/// kernel that reads the vector sees the damage exactly as the hardware
/// would, and the protection tier's detect/correct/rebuild ladder runs on the
/// live recurrence.
pub struct CgPollState<'a, V> {
    /// The current iterate.
    pub x: &'a mut V,
    /// The current residual.
    pub r: &'a mut V,
    /// The current search direction.
    pub p: &'a mut V,
}

/// [`cg`] with a poll closure invoked at every iteration boundary — after
/// the convergence check, before the SpMV — with mutable access to the live
/// `x`/`r`/`p` recurrence.  `iteration` is the 0-based index of the
/// iteration about to run.  With a no-op closure this **is** `cg`: the
/// arithmetic sequence is identical, so trajectories are preserved bit for
/// bit (the plain `cg` entry point delegates here).  The fault campaigns use
/// the hook to plant mid-iteration flips and chunk erasures in solver
/// vectors (`InjectionKind::SolverVectorFlips`/`SolverVectorBurst`/
/// `ChunkErasure` in `abft-faultsim`).
pub fn cg_with_poll<Op: LinearOperator>(
    op: &Op,
    b: &Op::Vector,
    config: &SolverConfig,
    ctx: &FaultContext,
    mut poll: impl FnMut(u64, CgPollState<'_, Op::Vector>),
) -> Result<(Op::Vector, SolveStatus), SolverError> {
    let n = op.rows();
    assert_eq!(b.len(), n, "cg: rhs has wrong length");
    let mut x = op.zero_vector(n);
    let mut r = b.clone();
    let mut p = r.clone();
    let mut w = op.zero_vector(n);

    let mut rr = retry_kernel!(ctx, [r], r.dot(&r, ctx))?;
    let mut status = SolveStatus {
        converged: rr < config.tolerance,
        iterations: 0,
        initial_residual: rr,
        final_residual: rr,
    };

    for iteration in 0..config.max_iterations {
        if status.converged {
            break;
        }
        poll(
            iteration as u64,
            CgPollState {
                x: &mut x,
                r: &mut r,
                p: &mut p,
            },
        );
        let pw = retry_kernel!(
            ctx,
            [p, w],
            op.apply_dot(&mut p, &mut w, iteration as u64, ctx)
        )?;
        if pw == 0.0 {
            break;
        }
        let alpha = rr / pw;
        let rr_new = retry_kernel!(ctx, [r, w], r.dot_axpy(-alpha, &w, ctx))?;
        status.iterations = iteration + 1;
        status.final_residual = rr_new;
        if rr_new < config.tolerance {
            status.converged = true;
            retry_kernel!(ctx, [x, p], x.axpy(alpha, &p, ctx))?;
            break;
        }
        let beta = rr_new / rr;
        update_x_p(&mut x, &mut p, &mut r, alpha, beta, ctx)?;
        rr = rr_new;
    }
    Ok((x, status))
}

/// Outcome of one column of a block solve.
#[derive(Debug)]
pub struct BlockColumnOutcome<V> {
    /// The iterate at stop.  For a faulted column this is the last iterate
    /// before the fault and should not be trusted; for a cancelled or
    /// deadline-expired column it is the best partial solution.
    pub solution: V,
    /// Residual history and iteration count, same convention as [`cg`].
    pub status: SolveStatus,
    /// Why this column stopped.
    pub termination: Termination,
    /// The fault that poisoned this column, when `termination` is
    /// [`Termination::Fault`].
    pub error: Option<SolverError>,
}

/// `checks/corrected/uncorrectable/bounds` delta between two snapshots of
/// the same monotone log.
fn snapshot_delta(after: &FaultLogSnapshot, before: &FaultLogSnapshot) -> FaultLogSnapshot {
    let mut d = FaultLogSnapshot::default();
    for i in 0..3 {
        d.checks[i] = after.checks[i] - before.checks[i];
        d.corrected[i] = after.corrected[i] - before.corrected[i];
        d.uncorrectable[i] = after.uncorrectable[i] - before.uncorrectable[i];
        d.bounds_violations[i] = after.bounds_violations[i] - before.bounds_violations[i];
        d.rebuilt[i] = after.rebuilt[i] - before.rebuilt[i];
    }
    d
}

/// Block Conjugate Gradient: `A x_j = b_j` for a panel of up to
/// [`MAX_PANEL_WIDTH`] right-hand sides, from `x_j = 0`.
///
/// Per column the arithmetic is operation-for-operation identical to [`cg`]
/// — same kernels, same element order, same iteration indices — so each
/// column's iterates are **bitwise identical** to a standalone solve of that
/// system.  What changes is the matrix traversal: the panel SpMM
/// ([`LinearOperator::apply_panel_dot`], which also returns every column's
/// `p · w`) verifies each matrix codeword group once per iteration
/// regardless of how many columns are live, so the per-RHS matrix verify
/// cost shrinks as `1/k`.  An iteration allocates nothing: the live columns
/// are kept at the front of fixed slots.
///
/// Columns converge (and fault, stall, cancel or expire) independently: a
/// finished column is compacted out of the panel, not recomputed.  Because
/// no column ever rejoins, the global iteration counter equals every live
/// column's own iteration count — check-interval policies behave exactly as
/// in a standalone solve.
///
/// * `col_ctxs[j]` receives column `j`'s vector-side checks and faults.
/// * `matrix_ctx` receives the matrix-side checks of each panel traversal.
///   When `attribute` is true the matrix log is treated as scratch and each
///   iteration's matrix-check delta is also folded into every live column's
///   context — the serving layer's per-tenant accounting (each tenant sees
///   the same matrix-check totals it would have seen solving alone divided
///   by nothing; the *shared* traversal is attributed to everyone who rode
///   it).  Leave it false when `matrix_ctx` aliases the column contexts, or
///   the checks would be double-counted.
/// * `budgets[j]`, when `Some(n)`, caps column `j` at `n` iterations
///   ([`Termination::IterationBudget`]) below the config-wide cap.
/// * `poll(j, iteration)` is consulted at every iteration boundary for every
///   live column; returning `Some` stops that column with the given
///   termination (cooperative cancellation / deadlines).
///
/// A panel-fatal matrix fault poisons every live column.  Per-column
/// vector faults poison only their column.  [`LinearOperator::finish`] is
/// *not* called here — callers that want decoded/scrubbed plain solutions
/// run it per column with that column's context.
///
/// # Panics
/// Panics if `bs` is empty or wider than [`MAX_PANEL_WIDTH`], or if the
/// `col_ctxs`/`budgets` lengths disagree with `bs`.
#[allow(clippy::too_many_arguments)]
pub fn block_cg_panel<Op: LinearOperator>(
    op: &Op,
    bs: &[&Op::Vector],
    config: &SolverConfig,
    col_ctxs: &[&FaultContext],
    matrix_ctx: &FaultContext,
    attribute: bool,
    budgets: &[Option<usize>],
    mut poll: impl FnMut(usize, usize) -> Option<Termination>,
) -> Vec<BlockColumnOutcome<Op::Vector>> {
    let n = op.rows();
    let k = bs.len();
    assert!(
        (1..=MAX_PANEL_WIDTH).contains(&k),
        "block_cg: panel width {k} outside 1..={MAX_PANEL_WIDTH}"
    );
    assert_eq!(col_ctxs.len(), k, "block_cg: one context per column");
    assert_eq!(budgets.len(), k, "block_cg: one budget per column");
    for b in bs {
        assert_eq!(b.len(), n, "block_cg: rhs has wrong length");
    }

    let mut xs: Vec<Op::Vector> = Vec::with_capacity(k);
    let mut rs: Vec<Op::Vector> = Vec::with_capacity(k);
    let mut ps: Vec<Op::Vector> = Vec::with_capacity(k);
    let mut ws: Vec<Op::Vector> = Vec::with_capacity(k);
    let mut rr = vec![0.0f64; k];
    let mut statuses = Vec::with_capacity(k);
    let mut terminations: Vec<Option<Termination>> = vec![None; k];
    let mut errors: Vec<Option<SolverError>> = (0..k).map(|_| None).collect();
    // `active[j]`: column j still iterates.  Columns only ever leave.
    let mut active = vec![true; k];

    for (j, b) in bs.iter().enumerate() {
        xs.push(op.zero_vector(n));
        let mut r = (*b).clone();
        ps.push(r.clone());
        ws.push(op.zero_vector(n));
        match retry_kernel!(col_ctxs[j], [r], r.dot(&r, col_ctxs[j])) {
            Ok(v) => rr[j] = v,
            Err(e) => {
                errors[j] = Some(e);
                terminations[j] = Some(Termination::Fault);
                active[j] = false;
            }
        }
        rs.push(r);
        let converged = active[j] && rr[j] < config.tolerance;
        statuses.push(SolveStatus {
            converged,
            iterations: 0,
            initial_residual: rr[j],
            final_residual: rr[j],
        });
        if converged {
            terminations[j] = Some(Termination::Converged);
            active[j] = false;
        }
    }

    // The panel's vectors by slot: slots `0..live` hold the live columns in
    // column order (`order[slot]` is the column), so a panel call takes them
    // as a prefix and an iteration collects nothing.
    let mut p_slots: Vec<&mut Op::Vector> = ps.iter_mut().collect();
    let mut w_slots: Vec<&mut Op::Vector> = ws.iter_mut().collect();
    let mut order: [usize; MAX_PANEL_WIDTH] = std::array::from_fn(|j| j);

    for iteration in 0..config.max_iterations {
        // Iteration-boundary controls: budgets and cooperative polls.
        for j in 0..k {
            if !active[j] {
                continue;
            }
            if budgets[j].is_some_and(|cap| iteration >= cap) {
                terminations[j] = Some(Termination::IterationBudget);
                active[j] = false;
            } else if let Some(t) = poll(j, iteration) {
                terminations[j] = Some(t);
                active[j] = false;
            }
        }
        // Move the live columns to the front, keeping their order.
        let mut live = 0;
        for slot in 0..k {
            if active[order[slot]] {
                p_slots.swap(live, slot);
                w_slots.swap(live, slot);
                order.swap(live, slot);
                live += 1;
            }
        }
        if live == 0 {
            break;
        }
        let columns = &order[..live];

        // One matrix traversal for every live column: w_j = A p_j and p_j · w_j.
        let mut panel_ctxs = [matrix_ctx; MAX_PANEL_WIDTH];
        for (slot, &j) in panel_ctxs.iter_mut().zip(columns) {
            *slot = col_ctxs[j];
        }
        let mut panel_errors: [Option<SolverError>; MAX_PANEL_WIDTH] = Default::default();
        let before = attribute.then(|| matrix_ctx.snapshot());
        let panel_result = op.apply_panel_dot(
            &mut p_slots[..live],
            &mut w_slots[..live],
            iteration as u64,
            &panel_ctxs[..live],
            matrix_ctx,
            &mut panel_errors[..live],
        );
        if let Some(before) = before {
            // Attribute the shared traversal to every column that rode it.
            let delta = snapshot_delta(&matrix_ctx.snapshot(), &before);
            for &j in columns {
                col_ctxs[j].log().absorb(&delta);
            }
        }
        let mut dots = match panel_result {
            Ok(dots) => dots,
            Err(e) => {
                // Matrix-side fault: every live column read the same corrupt
                // structure.
                for &j in columns {
                    errors[j] = Some(e.clone());
                    terminations[j] = Some(Termination::Fault);
                    active[j] = false;
                }
                break;
            }
        };
        for (slot, error) in panel_errors[..live].iter_mut().enumerate() {
            let Some(e) = error.take() else {
                continue;
            };
            // Erasure escalation before declaring the column faulted: rebuild
            // the column's vectors from parity and re-run its SpMV solo.  The
            // extra traversal's matrix checks land on the retried column's
            // own context — the column pays for its own retry, its panel
            // neighbours see nothing.
            let j = order[slot];
            let ctx = col_ctxs[j];
            let (p, w) = (&mut *p_slots[slot], &mut *w_slots[slot]);
            let recovered = rebuildable(&e) && (p.try_rebuild(ctx) | w.try_rebuild(ctx)) && {
                rebuild_backoff();
                op.apply_dot(p, w, iteration as u64, ctx)
                    .map(|pw| dots[slot] = pw)
                    .is_ok()
            };
            if !recovered {
                errors[j] = Some(e);
                terminations[j] = Some(Termination::Fault);
                active[j] = false;
            }
        }

        // Per-column CG updates, operation-for-operation the [`cg`] body.
        for slot in 0..live {
            let j = order[slot];
            if !active[j] {
                continue;
            }
            let ctx = col_ctxs[j];
            let (p, w) = (&mut *p_slots[slot], &mut *w_slots[slot]);
            let result: Result<(), SolverError> = (|| {
                let pw = dots[slot];
                if pw == 0.0 {
                    terminations[j] = Some(Termination::Stalled);
                    active[j] = false;
                    return Ok(());
                }
                let alpha = rr[j] / pw;
                let rr_new = retry_kernel!(ctx, [rs[j], w], rs[j].dot_axpy(-alpha, w, ctx))?;
                statuses[j].iterations = iteration + 1;
                statuses[j].final_residual = rr_new;
                if rr_new < config.tolerance {
                    statuses[j].converged = true;
                    terminations[j] = Some(Termination::Converged);
                    active[j] = false;
                    return retry_kernel!(ctx, [xs[j], p], xs[j].axpy(alpha, p, ctx));
                }
                let beta = rr_new / rr[j];
                update_x_p(&mut xs[j], p, &mut rs[j], alpha, beta, ctx)?;
                rr[j] = rr_new;
                Ok(())
            })();
            if let Err(e) = result {
                errors[j] = Some(e);
                terminations[j] = Some(Termination::Fault);
                active[j] = false;
            }
        }
    }

    // Columns still live after the loop ran out of iterations.
    for j in 0..k {
        if active[j] {
            terminations[j] = Some(Termination::IterationBudget);
        }
    }

    let mut out = Vec::with_capacity(k);
    for (j, x) in xs.into_iter().enumerate() {
        out.push(BlockColumnOutcome {
            solution: x,
            status: statuses[j],
            termination: terminations[j].unwrap_or(Termination::IterationBudget),
            error: errors[j].clone(),
        });
    }
    out
}

/// Block CG with one shared fault context — the plain multi-RHS entry point.
///
/// All columns record into `ctx`, including the shared matrix traversals,
/// so the context's matrix-check totals are those of **one** solve even
/// though `bs.len()` systems were solved: the per-RHS matrix verify cost is
/// `1/k` of a standalone solve.
pub fn block_cg<Op: LinearOperator>(
    op: &Op,
    bs: &[&Op::Vector],
    config: &SolverConfig,
    ctx: &FaultContext,
) -> Vec<BlockColumnOutcome<Op::Vector>> {
    let ctxs: Vec<&FaultContext> = bs.iter().map(|_| ctx).collect();
    let budgets = vec![None; bs.len()];
    block_cg_panel(op, bs, config, &ctxs, ctx, false, &budgets, |_, _| None)
}

/// Jacobi relaxation: `x ← x + D⁻¹ (b − A x)`.
///
/// # Panics
/// Panics if any diagonal entry of the operator is zero.
pub fn jacobi<Op: LinearOperator>(
    op: &Op,
    b: &Op::Vector,
    config: &SolverConfig,
    ctx: &FaultContext,
) -> Result<(Op::Vector, SolveStatus), SolverError> {
    let n = op.rows();
    assert_eq!(b.len(), n, "jacobi: rhs has wrong length");
    let diag = op.diagonal(ctx)?;
    assert!(
        diag.iter().all(|&d| d != 0.0),
        "jacobi requires a non-zero diagonal"
    );

    let mut x = op.zero_vector(n);
    let mut ax = op.zero_vector(n);
    let mut residual = op.zero_vector(n);
    // Reused decode buffer for the per-iteration checked read of the
    // residual (no allocation inside the loop).
    let mut correction = vec![0.0; n];

    retry_kernel!(ctx, [x, ax], op.apply(&mut x, &mut ax, 0, ctx))?;
    retry_kernel!(ctx, [residual], residual.copy_from(b, ctx))?;
    retry_kernel!(ctx, [residual, ax], residual.axpy(-1.0, &ax, ctx))?;
    let rr0 = retry_kernel!(ctx, [residual], residual.dot(&residual, ctx))?;
    let mut status = SolveStatus {
        converged: rr0 < config.tolerance,
        iterations: 0,
        initial_residual: rr0,
        final_residual: rr0,
    };

    for iteration in 0..config.max_iterations {
        if status.converged {
            break;
        }
        retry_kernel!(ctx, [residual], residual.read_checked(&mut correction, ctx))?;
        retry_kernel!(
            ctx,
            [x],
            x.update_indexed(ctx, |i, xi| xi + correction[i] / diag[i])
        )?;
        retry_kernel!(
            ctx,
            [x, ax],
            op.apply(&mut x, &mut ax, iteration as u64 + 1, ctx)
        )?;
        retry_kernel!(ctx, [residual], residual.copy_from(b, ctx))?;
        retry_kernel!(ctx, [residual, ax], residual.axpy(-1.0, &ax, ctx))?;
        let rr = retry_kernel!(ctx, [residual], residual.dot(&residual, ctx))?;
        status.iterations = iteration + 1;
        status.final_residual = rr;
        if rr < config.tolerance {
            status.converged = true;
        }
    }
    Ok((x, status))
}

/// Chebyshev iteration with explicit spectral bounds — no dot products in
/// the loop body beyond the convergence check, which is what makes it
/// attractive at scale (no global reductions).
pub fn chebyshev<Op: LinearOperator>(
    op: &Op,
    b: &Op::Vector,
    bounds: ChebyshevBounds,
    config: &SolverConfig,
    ctx: &FaultContext,
) -> Result<(Op::Vector, SolveStatus), SolverError> {
    let n = op.rows();
    assert_eq!(b.len(), n, "chebyshev: rhs has wrong length");
    let theta = (bounds.max + bounds.min) / 2.0;
    // Guard against degenerate (min == max) bounds: keep delta positive so
    // the recurrence stays finite (it then reduces to Richardson iteration).
    let delta = ((bounds.max - bounds.min) / 2.0).max(1e-12 * theta);
    let sigma = theta / delta;
    let mut rho = 1.0 / sigma;

    let mut x = op.zero_vector(n);
    let mut r = b.clone();
    let mut ax = op.zero_vector(n);

    let rr0 = retry_kernel!(ctx, [r], r.dot(&r, ctx))?;
    let mut status = SolveStatus {
        converged: rr0 < config.tolerance,
        iterations: 0,
        initial_residual: rr0,
        final_residual: rr0,
    };

    // Chebyshev acceleration (Saad, "Iterative Methods for Sparse Linear
    // Systems", algorithm 12.1):
    //   sigma = theta / delta,  rho_0 = 1 / sigma,  d_0 = r_0 / theta
    //   x   += d
    //   r   -= A d
    //   rho' = 1 / (2 sigma - rho)
    //   d    = rho' rho d + (2 rho' / delta) r
    // The residual update is fused with the convergence reduction
    // (dot_axpy) and the two-step d recurrence with scale_axpy, so protected
    // storage is checked and re-encoded once per kernel per group.
    let mut d = r.clone();
    retry_kernel!(ctx, [d], d.scale(1.0 / theta, ctx))?;

    for iteration in 0..config.max_iterations {
        if status.converged {
            break;
        }
        retry_kernel!(ctx, [x, d], x.axpy(1.0, &d, ctx))?;
        retry_kernel!(
            ctx,
            [d, ax],
            op.apply(&mut d, &mut ax, iteration as u64, ctx)
        )?;
        let rr = retry_kernel!(ctx, [r, ax], r.dot_axpy(-1.0, &ax, ctx))?;
        let rho_next = 1.0 / (2.0 * sigma - rho);
        retry_kernel!(
            ctx,
            [d, r],
            d.scale_axpy(rho_next * rho, 2.0 * rho_next / delta, &r, ctx)
        )?;
        rho = rho_next;

        status.iterations = iteration + 1;
        status.final_residual = rr;
        if rr < config.tolerance {
            status.converged = true;
        }
    }
    Ok((x, status))
}

/// Scratch vectors reused across polynomial-preconditioner applications.
struct PpcgWorkspace<V> {
    inner_r: V,
    d: V,
    ad: V,
}

/// Applies `steps` Chebyshev smoothing iterations to approximate
/// `z ≈ A⁻¹ r` (the polynomial preconditioner of PPCG).
#[allow(clippy::too_many_arguments)]
fn polynomial_preconditioner<Op: LinearOperator>(
    op: &Op,
    r: &Op::Vector,
    z: &mut Op::Vector,
    ws: &mut PpcgWorkspace<Op::Vector>,
    bounds: ChebyshevBounds,
    steps: usize,
    iteration: u64,
    ctx: &FaultContext,
) -> Result<(), SolverError> {
    let theta = (bounds.max + bounds.min) / 2.0;
    let delta = ((bounds.max - bounds.min) / 2.0).max(1e-12 * theta);
    let sigma = theta / delta;
    let mut rho = 1.0 / sigma;

    z.fill(0.0);
    retry_kernel!(ctx, [ws.inner_r], ws.inner_r.copy_from(r, ctx))?;
    retry_kernel!(ctx, [ws.d], ws.d.copy_from(r, ctx))?;
    retry_kernel!(ctx, [ws.d], ws.d.scale(1.0 / theta, ctx))?;
    for _ in 0..steps {
        retry_kernel!(ctx, [z, ws.d], z.axpy(1.0, &ws.d, ctx))?;
        retry_kernel!(
            ctx,
            [ws.d, ws.ad],
            op.apply(&mut ws.d, &mut ws.ad, iteration, ctx)
        )?;
        retry_kernel!(ctx, [ws.inner_r, ws.ad], ws.inner_r.axpy(-1.0, &ws.ad, ctx))?;
        let rho_next = 1.0 / (2.0 * sigma - rho);
        retry_kernel!(
            ctx,
            [ws.d, ws.inner_r],
            ws.d.scale_axpy(rho_next * rho, 2.0 * rho_next / delta, &ws.inner_r, ctx)
        )?;
        rho = rho_next;
    }
    Ok(())
}

/// Polynomially Preconditioned CG: outer CG whose preconditioner is
/// `inner_steps` Chebyshev iterations on the operator itself.
///
/// # Panics
/// Panics unless `inner_steps > 0`.
pub fn ppcg<Op: LinearOperator>(
    op: &Op,
    b: &Op::Vector,
    bounds: ChebyshevBounds,
    inner_steps: usize,
    config: &SolverConfig,
    ctx: &FaultContext,
) -> Result<(Op::Vector, SolveStatus), SolverError> {
    let n = op.rows();
    assert_eq!(b.len(), n, "ppcg: rhs has wrong length");
    assert!(inner_steps > 0, "ppcg needs at least one inner step");

    let mut x = op.zero_vector(n);
    let mut r = b.clone();
    let mut z = op.zero_vector(n);
    let mut w = op.zero_vector(n);
    let mut ws = PpcgWorkspace {
        inner_r: op.zero_vector(n),
        d: op.zero_vector(n),
        ad: op.zero_vector(n),
    };

    let rr0 = retry_kernel!(ctx, [r], r.dot(&r, ctx))?;
    let mut status = SolveStatus {
        converged: rr0 < config.tolerance,
        iterations: 0,
        initial_residual: rr0,
        final_residual: rr0,
    };
    if status.converged {
        return Ok((x, status));
    }

    polynomial_preconditioner(op, &r, &mut z, &mut ws, bounds, inner_steps, 0, ctx)?;
    let mut p = z.clone();
    let mut rz = retry_kernel!(ctx, [r, z], r.dot(&z, ctx))?;

    for iteration in 0..config.max_iterations {
        let pw = retry_kernel!(
            ctx,
            [p, w],
            op.apply_dot(&mut p, &mut w, iteration as u64, ctx)
        )?;
        if pw == 0.0 || rz == 0.0 {
            break;
        }
        let alpha = rz / pw;
        let rr = retry_kernel!(ctx, [r, w], r.dot_axpy(-alpha, &w, ctx))?;
        status.iterations = iteration + 1;
        status.final_residual = rr;
        if rr < config.tolerance {
            status.converged = true;
            retry_kernel!(ctx, [x, p], x.axpy(alpha, &p, ctx))?;
            break;
        }
        polynomial_preconditioner(
            op,
            &r,
            &mut z,
            &mut ws,
            bounds,
            inner_steps,
            iteration as u64,
            ctx,
        )?;
        let rz_new = retry_kernel!(ctx, [r, z], r.dot(&z, ctx))?;
        let beta = rz_new / rz;
        update_x_p(&mut x, &mut p, &mut z, alpha, beta, ctx)?;
        rz = rz_new;
    }
    Ok((x, status))
}

/// Amplification cap used by the FT-PCG inner-result screen when the
/// preconditioner offers no [`Preconditioner::bound_hint`]: permissive
/// enough for any sane preconditioner, tight enough to reject the wild
/// magnitudes bit-level corruption produces.
const FCG_DEFAULT_BOUND: f64 = 1e8;

/// `Σ v²` in four interleaved partial sums.  The inner-result screen only
/// compares magnitudes, so it does not need the element-order sum, whose
/// one dependent add per element would be the slowest loop in the driver.
fn sum_squares(v: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut quads = v.chunks_exact(4);
    for quad in &mut quads {
        for (lane, x) in lanes.iter_mut().zip(quad) {
            *lane += x * x;
        }
    }
    let tail: f64 = quads.remainder().iter().map(|x| x * x).sum();
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// One guarded inner preconditioner application of [`ft_pcg`]:
///
/// 1. read the outer residual through the checked masked kernels into
///    `r_plain` (protected, with the parity-rebuild retry ladder) — the
///    snapshot is *certified* when this step succeeds;
/// 2. run the inner apply in whatever reliability tier `precond` was
///    built in;
/// 3. screen the result against the opaque-preconditioner bound
///    `‖z‖ ≤ C·‖r‖` (plus a finiteness check), where `rr` is the protected
///    `‖r‖²` the outer loop already holds.  A rejected result is replaced
///    by the residual itself — one identity-preconditioned (plain CG) step
///    — and recorded as a dense-vector bounds violation, so an inner SDC
///    costs extra iterations, never a wrong answer.
fn guarded_inner_apply<V: SolverVector>(
    r: &mut V,
    rr: f64,
    r_plain: &mut [f64],
    z_plain: &mut [f64],
    precond: &dyn Preconditioner,
    bound: f64,
    ctx: &FaultContext,
) -> Result<(), SolverError> {
    retry_kernel!(ctx, [r], r.read_checked(r_plain, ctx))?;
    precond.apply(r_plain, z_plain, ctx)?;
    let zz = sum_squares(z_plain);
    if !(zz.is_finite() && zz <= bound * bound * rr) {
        z_plain.copy_from_slice(r_plain);
        ctx.log().record_bounds_violation(Region::DenseVector);
    }
    Ok(())
}

/// Flexible inner-outer FT-PCG: preconditioned CG whose outer loop runs
/// fully protected while the inner preconditioner apply runs in the
/// reliability tier the caller chose when building `precond` — the
/// *selective reliability* solver.
///
/// The outer iteration is the [`cg`] machinery: every kernel goes through
/// the checked masked BLAS-1 surface with the `retry_kernel!`
/// parity-rebuild ladder, and convergence is decided on the **protected**
/// residual norm, so a bounded-but-wrong inner result can slow the solve
/// but never terminate it at a wrong answer.  Each inner result crosses
/// the reliability boundary through the guarded inner apply: certified
/// residual snapshot in, norm-screened (never verified) update out.
///
/// Because the effective preconditioner may vary between iterations — a
/// screen rejection substitutes an identity step, an unreliable-tier
/// fault perturbs `M` silently — the search-direction update uses the
/// flexible (Polak–Ribière) form `β = zₖ₊₁·(rₖ₊₁ − rₖ) / zₖ·rₖ`, clamped
/// at zero (an automatic restart), rather than the fixed-preconditioner
/// Fletcher–Reeves form.  With a healthy preconditioner the two coincide
/// in exact arithmetic.
pub fn ft_pcg<Op: LinearOperator>(
    op: &Op,
    b: &Op::Vector,
    precond: &dyn Preconditioner,
    config: &SolverConfig,
    ctx: &FaultContext,
) -> Result<(Op::Vector, SolveStatus), SolverError> {
    let n = op.rows();
    assert_eq!(b.len(), n, "ft_pcg: rhs has wrong length");
    assert_eq!(precond.rows(), n, "ft_pcg: preconditioner has wrong size");
    let bound = precond.bound_hint().unwrap_or(FCG_DEFAULT_BOUND);

    let mut x = op.zero_vector(n);
    let mut r = b.clone();
    let mut z = op.zero_vector(n);
    let mut p = op.zero_vector(n);
    let mut w = op.zero_vector(n);
    // Plain staging buffers of the reliability boundary (allocated once).
    let mut r_now = vec![0.0; n];
    let mut r_prev = vec![0.0; n];
    let mut z_plain = vec![0.0; n];

    let rr0 = retry_kernel!(ctx, [r], r.dot(&r, ctx))?;
    let mut status = SolveStatus {
        converged: rr0 < config.tolerance,
        iterations: 0,
        initial_residual: rr0,
        final_residual: rr0,
    };
    if status.converged {
        return Ok((x, status));
    }

    guarded_inner_apply(&mut r, rr0, &mut r_now, &mut z_plain, precond, bound, ctx)?;
    retry_kernel!(ctx, [z], z.update_indexed(ctx, |i, _| z_plain[i]))?;
    retry_kernel!(ctx, [p, z], p.copy_from(&z, ctx))?;
    let mut rz = retry_kernel!(ctx, [r, z], r.dot(&z, ctx))?;

    for iteration in 0..config.max_iterations {
        let pw = retry_kernel!(
            ctx,
            [p, w],
            op.apply_dot(&mut p, &mut w, iteration as u64, ctx)
        )?;
        if pw == 0.0 || rz == 0.0 {
            break;
        }
        let alpha = rz / pw;
        let rr = retry_kernel!(ctx, [r, w], r.dot_axpy(-alpha, &w, ctx))?;
        status.iterations = iteration + 1;
        status.final_residual = rr;
        if rr < config.tolerance {
            status.converged = true;
            retry_kernel!(ctx, [x, p], x.axpy(alpha, &p, ctx))?;
            break;
        }
        // `r_prev` keeps the certified snapshot from before the residual
        // update; `r_now` is refilled with the post-update snapshot inside
        // the guarded apply.
        std::mem::swap(&mut r_prev, &mut r_now);
        guarded_inner_apply(&mut r, rr, &mut r_now, &mut z_plain, precond, bound, ctx)?;
        retry_kernel!(ctx, [z], z.update_indexed(ctx, |i, _| z_plain[i]))?;
        let rz_new = retry_kernel!(ctx, [r, z], r.dot(&z, ctx))?;
        let mut flexible_num = 0.0;
        for i in 0..n {
            flexible_num += z_plain[i] * (r_now[i] - r_prev[i]);
        }
        let beta = (flexible_num / rz).max(0.0);
        update_x_p(&mut x, &mut p, &mut z, alpha, beta, ctx)?;
        rz = rz_new;
    }
    Ok((x, status))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::Plain;
    use abft_sparse::builders::poisson_2d;
    use abft_sparse::spmv::spmv_serial;

    fn residual_norm(a: &abft_sparse::CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; a.rows()];
        spmv_serial(a, x, &mut ax);
        ax.iter()
            .zip(b)
            .map(|(axi, bi)| (axi - bi) * (axi - bi))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn all_four_generic_solvers_solve_poisson_on_the_plain_backend() {
        let a = poisson_2d(10, 10);
        let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + (i % 5) as f64 * 0.2).collect();
        let op = Plain::new(&a, false);
        let ctx = FaultContext::new();
        let bvec = op.vector_from(&b);
        let bounds = op.bounds_hint().unwrap();

        let config = SolverConfig::new(500, 1e-18);
        let (x, s) = cg(&op, &bvec, &config, &ctx).unwrap();
        assert!(s.converged);
        assert!(residual_norm(&a, &x.to_plain(), &b) < 1e-7);

        let config = SolverConfig::new(20_000, 1e-16);
        let (x, s) = jacobi(&op, &bvec, &config, &ctx).unwrap();
        assert!(s.converged);
        assert!(residual_norm(&a, &x.to_plain(), &b) < 1e-6);

        let config = SolverConfig::new(2000, 1e-14);
        let (x, s) = chebyshev(&op, &bvec, bounds, &config, &ctx).unwrap();
        assert!(s.final_residual < s.initial_residual * 1e-6);
        assert!(residual_norm(&a, &x.to_plain(), &b) < 1e-4);

        let config = SolverConfig::new(500, 1e-18);
        let (x, s) = ppcg(&op, &bvec, bounds, 4, &config, &ctx).unwrap();
        assert!(s.converged);
        assert!(residual_norm(&a, &x.to_plain(), &b) < 1e-7);
    }

    #[test]
    fn jacobi_needs_more_iterations_than_cg() {
        let a = poisson_2d(8, 8);
        let op = Plain::new(&a, false);
        let ctx = FaultContext::new();
        let b = op.vector_from(&vec![1.0; a.rows()]);
        let config = SolverConfig::new(20_000, 1e-16);
        let (_, jacobi_status) = jacobi(&op, &b, &config, &ctx).unwrap();
        let (_, cg_status) = cg(&op, &b, &config, &ctx).unwrap();
        assert!(jacobi_status.converged && cg_status.converged);
        assert!(jacobi_status.iterations > cg_status.iterations);
    }

    #[test]
    fn ppcg_uses_fewer_outer_iterations_than_cg() {
        let a = poisson_2d(12, 12);
        let op = Plain::new(&a, false);
        let ctx = FaultContext::new();
        let b = op.vector_from(&vec![1.0; a.rows()]);
        // Tight spectral bounds for the 12×12 Dirichlet Poisson operator:
        // λ = 4 − 2 cos(iπ/13) − 2 cos(jπ/13) ∈ [~0.115, ~7.885].
        let bounds = ChebyshevBounds::new(0.1, 8.0);
        let config = SolverConfig::new(1000, 1e-16);
        let (_, cg_status) = cg(&op, &b, &config, &ctx).unwrap();
        let (_, ppcg_status) = ppcg(&op, &b, bounds, 8, &config, &ctx).unwrap();
        assert!(cg_status.converged && ppcg_status.converged);
        assert!(
            ppcg_status.iterations < cg_status.iterations,
            "ppcg {} vs cg {}",
            ppcg_status.iterations,
            cg_status.iterations
        );
    }

    #[test]
    #[should_panic]
    fn jacobi_zero_diagonal_panics() {
        let a = abft_sparse::CsrMatrix::try_new(2, 2, vec![1.0], vec![1], vec![0, 1, 1]).unwrap();
        let op = Plain::new(&a, false);
        let ctx = FaultContext::new();
        let b = op.zero_vector(2);
        let _ = jacobi(&op, &b, &SolverConfig::default(), &ctx);
    }

    #[test]
    fn block_cg_columns_match_standalone_cg_bitwise() {
        let a = poisson_2d(9, 8);
        let op = Plain::new(&a, false);
        let ctx = FaultContext::new();
        let config = SolverConfig::new(500, 1e-18);
        let bs: Vec<_> = (0..3)
            .map(|j| {
                op.vector_from(
                    &(0..a.rows())
                        .map(|i| 1.0 + ((i * (j + 3)) % 7) as f64 * 0.25)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let b_refs: Vec<&_> = bs.iter().collect();
        let block = block_cg(&op, &b_refs, &config, &ctx);
        assert_eq!(block.len(), 3);
        for (j, col) in block.iter().enumerate() {
            let (x, status) = cg(&op, &bs[j], &config, &ctx).unwrap();
            assert_eq!(col.termination, Termination::Converged, "column {j}");
            assert_eq!(col.status, status, "column {j}");
            assert_eq!(col.solution.to_plain(), x.to_plain(), "column {j}");
        }
    }

    #[test]
    fn block_cg_budget_and_poll_stop_columns_independently() {
        let a = poisson_2d(8, 8);
        let op = Plain::new(&a, false);
        let ctx = FaultContext::new();
        let config = SolverConfig::new(500, 1e-18);
        let bs: Vec<_> = (0..3)
            .map(|_| op.vector_from(&vec![1.0; a.rows()]))
            .collect();
        let b_refs: Vec<&_> = bs.iter().collect();
        let ctxs = vec![&ctx; 3];
        // Column 0 is capped at 2 iterations, column 1 is cancelled at
        // iteration 3, column 2 runs to convergence.
        let budgets = [Some(2), None, None];
        let out = block_cg_panel(
            &op,
            &b_refs,
            &config,
            &ctxs,
            &ctx,
            false,
            &budgets,
            |j, it| (j == 1 && it >= 3).then_some(Termination::Cancelled),
        );
        assert_eq!(out[0].termination, Termination::IterationBudget);
        assert_eq!(out[0].status.iterations, 2);
        assert_eq!(out[1].termination, Termination::Cancelled);
        assert_eq!(out[1].status.iterations, 3);
        assert_eq!(out[2].termination, Termination::Converged);
        // The stopped columns hold the same partial iterates a standalone
        // solve would have produced after the same number of iterations.
        let (x_ref, _) = cg(&op, &bs[0], &SolverConfig::new(2, 1e-18), &ctx).unwrap();
        assert_eq!(out[0].solution.to_plain(), x_ref.to_plain());
    }

    #[test]
    fn zero_rhs_converges_immediately_everywhere() {
        let a = poisson_2d(4, 4);
        let op = Plain::new(&a, false);
        let ctx = FaultContext::new();
        let b = op.zero_vector(a.rows());
        let bounds = op.bounds_hint().unwrap();
        let config = SolverConfig::default();
        for status in [
            cg(&op, &b, &config, &ctx).unwrap().1,
            jacobi(&op, &b, &config, &ctx).unwrap().1,
            chebyshev(&op, &b, bounds, &config, &ctx).unwrap().1,
            ppcg(&op, &b, bounds, 2, &config, &ctx).unwrap().1,
        ] {
            assert!(status.converged);
            assert_eq!(status.iterations, 0);
        }
    }
}
