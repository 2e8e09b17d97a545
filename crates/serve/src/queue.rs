//! The multi-tenant solve queue.
//!
//! A [`SolveQueue`] accepts solve jobs against registered (already
//! encoded) protected matrices, batches jobs that share a matrix and a
//! solver configuration into multi-RHS panels of up to
//! [`MAX_PANEL_WIDTH`] columns, and dispatches each panel as one detached
//! job on the shared worker pool.  Inside a panel the block-CG engine
//! ([`block_cg_panel`]) verifies each matrix codeword group **once per
//! iteration** no matter how many tenants ride the panel, so the per-job
//! matrix verify cost shrinks as `1/k` — the serving-layer payoff of the
//! paper's embedded-ECC design.
//!
//! ## Isolation
//!
//! Every job gets its own [`FaultLog`].  Vector-side checks and faults
//! land only in the owning job's log; the shared matrix traversal is
//! recorded once in a scratch log and its per-iteration delta is
//! attributed to every column that rode that iteration — each tenant's
//! snapshot reads exactly as if it had solved alone.  A detected but
//! uncorrectable fault in one tenant's data poisons only that tenant's
//! job ([`Termination::Fault`]); the other columns keep iterating.
//!
//! ## Determinism
//!
//! Panel composition never changes results: each column's arithmetic is
//! bitwise identical to a standalone solve, and jobs run with the pool's
//! worker flag set so nested kernels inline serially.  Submitting the
//! same jobs in a different order, or running with a different worker
//! limit, yields bitwise-identical solutions and identical per-tenant
//! fault snapshots.
//!
//! ## Preconditioned jobs
//!
//! A job carrying a preconditioner choice ([`JobSpec::with_preconditioner`])
//! runs the flexible inner-outer FT-PCG solver instead of plain CG.  Such
//! jobs batch by (matrix, config, preconditioner kind **and** reliability
//! tier): the panel factors the preconditioner once and every column
//! reuses the factors, but each column's solve is sequential and
//! standalone-equivalent — it *is* a [`Solver::solve_encoded`] call on the
//! registered matrix, at any worker count.
//!
//! ## Graceful degradation
//!
//! With a non-zero [`SolveQueue::with_retry_budget`], a job whose column is
//! poisoned by an unrecoverable fault is not surfaced immediately: its fault
//! accounting is folded into the tenant's log right away, and the job is
//! requeued as a fresh **single-RHS** job (its own panel, so a flaky tenant
//! cannot poison neighbours twice) with exponential backoff measured in
//! drains — attempt `k` becomes eligible `2^k` drains after it faulted.  The
//! same [`JobId`], cancellation token and submission instant carry over, so
//! deadlines keep burning across attempts.  Neighbouring columns of the
//! faulted panel are untouched: their solutions and fault snapshots are
//! bit-for-bit those of a fault-free drain.

use crate::pool::{submit, Ticket};
use abft_core::{AnyProtectedMatrix, FaultLog, FaultLogSnapshot, ProtectedMatrix, MAX_PANEL_WIDTH};
use abft_solvers::{
    block_cg_panel, decode_checked, with_backend, FaultContext, LinearOperator, PrecondKind,
    Reliability, SolveStatus, Solver, SolverConfig, SolverError, Termination,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle to a matrix registered with a [`SolveQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixId(usize);

/// Handle to a submitted job, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(usize);

impl JobId {
    /// Position of this job in submission order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One solve request: which tenant, which matrix, which right-hand side,
/// and the knobs bounding how long the queue may work on it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Tenant the job (and its fault accounting) belongs to.
    pub tenant: String,
    /// Matrix to solve against, from [`SolveQueue::register`].
    pub matrix: MatrixId,
    /// Right-hand side, plain values.
    pub rhs: Vec<f64>,
    /// Stopping criteria.  Jobs are only batched together when their
    /// configs agree, so the panel honours every member's criteria.
    pub config: SolverConfig,
    /// Wall-clock budget measured from submission; checked at iteration
    /// boundaries ([`Termination::DeadlineExpired`]).
    pub deadline: Option<Duration>,
    /// Per-job iteration budget below the config-wide cap
    /// ([`Termination::IterationBudget`]).
    pub budget: Option<usize>,
    /// Optional preconditioner: the job runs the flexible inner-outer
    /// FT-PCG solver instead of plain CG, with the inner apply in the given
    /// [`Reliability`] tier.  Jobs batch together only when their
    /// preconditioner choice (kind *and* tier) agrees, so a panel factors
    /// its preconditioner once and every column reuses it.
    pub precond: Option<(PrecondKind, Reliability)>,
}

impl JobSpec {
    /// A job with default stopping criteria and no deadline or budget.
    pub fn new(tenant: impl Into<String>, matrix: MatrixId, rhs: Vec<f64>) -> Self {
        JobSpec {
            tenant: tenant.into(),
            matrix,
            rhs,
            config: SolverConfig::default(),
            deadline: None,
            budget: None,
            precond: None,
        }
    }

    /// Builder-style setter for the stopping criteria.
    pub fn with_config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Builder-style setter for the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder-style setter for the iteration budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Builder-style setter for the preconditioner: run this job through
    /// the flexible FT-PCG solver with `kind` built in the `reliability`
    /// tier ([`Reliability::Unreliable`] = unchecked inner apply,
    /// [`Reliability::Protected`] = protected factors).
    pub fn with_preconditioner(mut self, kind: PrecondKind, reliability: Reliability) -> Self {
        self.precond = Some((kind, reliability));
        self
    }
}

/// Cancellation handle returned by [`SolveQueue::submit`].
#[derive(Debug, Clone)]
pub struct JobHandle {
    id: JobId,
    cancel: Arc<AtomicBool>,
}

impl JobHandle {
    /// The job's id (its position in submission order).
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Requests cooperative cancellation.  The solver observes the token
    /// at its next iteration boundary and stops that job (and only that
    /// job) with [`Termination::Cancelled`]; the partial solution is still
    /// decoded and returned.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }
}

/// What the queue produced for one job.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job this outcome answers.
    pub id: JobId,
    /// Tenant the job belonged to.
    pub tenant: String,
    /// Decoded solution — the converged answer, or the best partial
    /// iterate for a cancelled / deadline-expired / budget-capped job.
    /// `None` when the job was poisoned by a fault.
    pub solution: Option<Vec<f64>>,
    /// Residual history and iteration count.
    pub status: SolveStatus,
    /// Why the job stopped.
    pub termination: Termination,
    /// The fault that poisoned the job, when `termination` is
    /// [`Termination::Fault`].
    pub error: Option<SolverError>,
    /// This job's integrity-check activity: its own vector-side checks
    /// plus its attributed share of the panel's matrix traversals (the
    /// same totals a standalone solve would report).
    pub faults: FaultLogSnapshot,
    /// Width of the panel the job was batched into.
    pub panel_width: usize,
    /// How many earlier attempts of this job faulted and were requeued
    /// under the queue's retry budget (`0` = answered on the first try).
    pub attempts: u32,
}

struct PendingJob {
    id: JobId,
    spec: JobSpec,
    cancel: Arc<AtomicBool>,
    submitted: Instant,
    /// Completed attempts that ended in an unrecoverable fault.
    attempts: u32,
    /// Drain counter value at which this job becomes eligible — the
    /// exponential-backoff clock, measured in drains rather than wall time
    /// so retry schedules are deterministic.
    earliest_drain: u64,
    /// Requeued jobs run in a panel of their own: a column that already
    /// faulted once must not share a traversal with healthy tenants.
    solo: bool,
}

struct ColumnResult {
    /// The column's job, moved into its panel and
    /// [handed back](PendingJob::returned).
    job: PendingJob,
    solution: Option<Vec<f64>>,
    status: SolveStatus,
    termination: Termination,
    error: Option<SolverError>,
    faults: FaultLogSnapshot,
    panel_width: usize,
}

impl PendingJob {
    /// The job handed back by its panel: only a faulted job, which the
    /// queue may requeue, keeps its right-hand side.
    fn returned(mut self, termination: Termination) -> Self {
        if termination != Termination::Fault {
            self.spec.rhs = Vec::new();
        }
        self
    }
}

/// Panel grouping key: (matrix id, config hash halves, preconditioner
/// discriminant, solo marker) — jobs share a panel iff their keys are
/// equal.
type PanelKey = (usize, usize, u64, u64, u64);

/// Stable discriminant of a job's preconditioner choice for panel keys:
/// `0` = unpreconditioned, otherwise [`PrecondKind::key`] shifted to make
/// room for the reliability-tier bit (kind keys start at 1, so every
/// preconditioned job maps to a non-zero value).
fn precond_key(precond: Option<(PrecondKind, Reliability)>) -> u64 {
    precond.map_or(0, |(kind, reliability)| {
        (kind.key() << 1) | u64::from(reliability == Reliability::Unreliable)
    })
}

/// The serving front door: register matrices once, submit jobs from many
/// tenants, drain them in batched panels.
pub struct SolveQueue {
    matrices: Vec<Arc<AnyProtectedMatrix>>,
    pending: Vec<PendingJob>,
    next_job: usize,
    max_width: usize,
    tenant_logs: HashMap<String, FaultLog>,
    matrix_activity: FaultLog,
    /// Drains performed so far — the clock the retry backoff counts in.
    drain_count: u64,
    /// Fault retries allowed per job; `0` surfaces faults immediately.
    retry_budget: u32,
}

impl std::fmt::Debug for SolveQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveQueue")
            .field("matrices", &self.matrices.len())
            .field("pending", &self.pending.len())
            .field("max_width", &self.max_width)
            .finish()
    }
}

impl SolveQueue {
    /// Creates a queue batching up to `max_width` jobs per panel (clamped
    /// to `1..=`[`MAX_PANEL_WIDTH`]).
    pub fn new(max_width: usize) -> Self {
        SolveQueue {
            matrices: Vec::new(),
            pending: Vec::new(),
            next_job: 0,
            max_width: max_width.clamp(1, MAX_PANEL_WIDTH),
            tenant_logs: HashMap::new(),
            matrix_activity: FaultLog::new(),
            drain_count: 0,
            retry_budget: 0,
        }
    }

    /// Builder-style setter for the per-job fault retry budget.
    ///
    /// With `budget > 0`, a job poisoned by an unrecoverable fault is
    /// requeued (up to `budget` times) as a solo single-RHS job instead of
    /// being returned — see the module-level *Graceful degradation* notes.
    /// The default of `0` keeps the historical fail-fast behaviour.
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// The panel width cap this queue batches to.
    pub fn max_width(&self) -> usize {
        self.max_width
    }

    /// Fault retries allowed per job before an outcome is surfaced.
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Registers a protected matrix for subsequent jobs.
    ///
    /// This is the one registration door: it accepts any concrete tier
    /// (a [`ProtectedCsr`](abft_core::ProtectedCsr), a
    /// [`ProtectedCoo`](abft_core::ProtectedCoo), a
    /// [`ProtectedBlockedCsr`](abft_core::ProtectedBlockedCsr)), an
    /// [`AnyProtectedMatrix`], or an already-shared
    /// `Arc<AnyProtectedMatrix>` handle.  Callers encode with
    /// [`AnyProtectedMatrix::encode`] and hand the result over.
    pub fn register(&mut self, matrix: impl Into<Arc<AnyProtectedMatrix>>) -> MatrixId {
        self.matrices.push(matrix.into());
        MatrixId(self.matrices.len() - 1)
    }

    /// Queues a job; it runs at the next [`SolveQueue::drain`].
    ///
    /// # Panics
    /// Panics if the matrix id is unknown or the right-hand side length
    /// does not match the matrix.
    pub fn submit(&mut self, spec: JobSpec) -> JobHandle {
        let matrix = self
            .matrices
            .get(spec.matrix.0)
            .expect("submit: unknown matrix id");
        assert_eq!(
            spec.rhs.len(),
            matrix.rows(),
            "submit: rhs length does not match the matrix"
        );
        let id = JobId(self.next_job);
        self.next_job += 1;
        let cancel = Arc::new(AtomicBool::new(false));
        self.pending.push(PendingJob {
            id,
            spec,
            cancel: Arc::clone(&cancel),
            submitted: Instant::now(),
            attempts: 0,
            earliest_drain: 0,
            solo: false,
        });
        JobHandle { id, cancel }
    }

    /// Number of jobs waiting for the next drain.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Everything this tenant's jobs have observed across drains.
    pub fn tenant_snapshot(&self, tenant: &str) -> FaultLogSnapshot {
        self.tenant_logs
            .get(tenant)
            .map(FaultLog::snapshot)
            .unwrap_or_default()
    }

    /// The *physical* matrix verification work performed across all drains.
    ///
    /// Tenant snapshots replicate each panel's matrix-check delta into every
    /// live column so per-tenant accounting matches a standalone solve; this
    /// counter instead records each panel traversal once, so it is the number
    /// to watch when measuring how batching amortises verify cost — with
    /// width-`k` panels it grows at roughly `1/k` of the sum of the tenants'
    /// matrix-region checks.
    pub fn matrix_activity(&self) -> FaultLogSnapshot {
        self.matrix_activity.snapshot()
    }

    /// Runs every eligible pending job and returns the outcomes in
    /// submission order.
    ///
    /// Admission: jobs are grouped by (matrix, solver config) in
    /// submission order and each group is split into panels of at most
    /// [`SolveQueue::max_width`] columns; each panel is one detached pool
    /// job, so distinct panels overlap on the worker pool while each
    /// panel's columns share their matrix traversals.  Requeued retries
    /// form solo panels and only become eligible once their backoff clock
    /// (`2^attempts` drains) has elapsed — keep draining until
    /// [`SolveQueue::pending`] reaches zero to flush them.
    pub fn drain(&mut self) -> Vec<JobOutcome> {
        self.drain_count += 1;
        let now = self.drain_count;
        let (ready, deferred): (Vec<PendingJob>, Vec<PendingJob>) =
            std::mem::take(&mut self.pending)
                .into_iter()
                .partition(|job| job.earliest_drain <= now);
        self.pending = deferred;
        if ready.is_empty() {
            return Vec::new();
        }

        // Group by (matrix, config); preserve submission order within and
        // across groups (first-seen order) so batching is reproducible.
        // Requeued retries carry a per-job `solo` marker that makes their
        // key unique: a column that already faulted gets its own panel.
        let mut groups: Vec<(PanelKey, Vec<PendingJob>)> = Vec::new();
        for job in ready {
            let key = (
                job.spec.matrix.0,
                job.spec.config.max_iterations,
                job.spec.config.tolerance.to_bits(),
                precond_key(job.spec.precond),
                if job.solo { job.id.0 as u64 + 1 } else { 0 },
            );
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(job),
                None => groups.push((key, vec![job])),
            }
        }

        let mut tickets: Vec<Ticket<(Vec<ColumnResult>, FaultLogSnapshot)>> = Vec::new();
        for (_, members) in groups {
            let matrix = Arc::clone(&self.matrices[members[0].spec.matrix.0]);
            let config = members[0].spec.config;
            let precond = members[0].spec.precond;
            let mut members = members.into_iter().peekable();
            while members.peek().is_some() {
                let panel: Vec<PendingJob> = members.by_ref().take(self.max_width).collect();
                let matrix = Arc::clone(&matrix);
                tickets.push(submit(move || solve_panel(&matrix, config, precond, panel)));
            }
        }

        let mut results: Vec<ColumnResult> = tickets
            .into_iter()
            .flat_map(|ticket| {
                let (cols, matrix_checks) = ticket.wait();
                self.matrix_activity.absorb(&matrix_checks);
                cols
            })
            .collect();
        results.sort_by_key(|c| c.job.id);

        let mut outcomes = Vec::new();
        for col in results {
            let mut job = col.job;
            // Fault accounting lands in the tenant's log right away, even
            // when the job is requeued instead of answered — degradation
            // must not hide detected faults from the tenant's history.
            self.tenant_logs
                .entry(job.spec.tenant.clone())
                .or_default()
                .absorb(&col.faults);
            if col.termination == Termination::Fault && job.attempts < self.retry_budget {
                job.earliest_drain = now + (1u64 << job.attempts.min(16));
                job.attempts += 1;
                job.solo = true;
                self.pending.push(job);
                continue;
            }
            outcomes.push(JobOutcome {
                id: job.id,
                tenant: job.spec.tenant,
                solution: col.solution,
                status: col.status,
                termination: col.termination,
                error: col.error,
                faults: col.faults,
                panel_width: col.panel_width,
                attempts: job.attempts,
            });
        }
        outcomes
    }
}

/// Solves one panel on whichever backend tier the matrix was encoded for.
/// Returns the per-column results plus the panel's physical matrix-check
/// activity (recorded once per traversal, not once per tenant).
fn solve_panel(
    matrix: &AnyProtectedMatrix,
    config: SolverConfig,
    precond: Option<(PrecondKind, Reliability)>,
    columns: Vec<PendingJob>,
) -> (Vec<ColumnResult>, FaultLogSnapshot) {
    match precond {
        Some(precond) => run_precond_panel(matrix, config, precond, columns),
        None => with_backend!(matrix, |op| run_panel(op, config, columns)),
    }
}

/// The preconditioned panel body: the preconditioner is factored **once**
/// from a checked decode of the matrix (the batching payoff for FT-PCG
/// jobs) and each column then runs [`Solver::solve_encoded`] sequentially —
/// arithmetic and fault accounting are those of a standalone
/// preconditioned solve, regardless of panel composition or the pool's
/// worker count.
///
/// Cancellation and deadlines are observed once, before a column's solve
/// starts (the sequential FT-PCG loop has no per-iteration poll hook);
/// per-job iteration budgets are honoured by capping the column's
/// iteration limit.  A column's matrix traversals land in its own log,
/// exactly as standalone; the only shared traversal is the scrub of the
/// checked decode, which is what the panel reports to
/// [`SolveQueue::matrix_activity`].
fn run_precond_panel(
    matrix: &AnyProtectedMatrix,
    config: SolverConfig,
    (kind, reliability): (PrecondKind, Reliability),
    columns: Vec<PendingJob>,
) -> (Vec<ColumnResult>, FaultLogSnapshot) {
    let width = columns.len();
    let solver = Solver::cg()
        .protection(*matrix.config())
        .preconditioner(kind, reliability);
    let matrix_log = FaultLog::new();
    let built =
        decode_checked(matrix, &matrix_log).and_then(|plain| solver.build_preconditioner(&plain));
    let idle = SolveStatus {
        converged: false,
        iterations: 0,
        initial_residual: 0.0,
        final_residual: 0.0,
    };

    let results = columns
        .into_iter()
        .map(|col| {
            let log = FaultLog::new();
            let stopped = if col.cancel.load(Ordering::Relaxed) {
                Some(Termination::Cancelled)
            } else if col
                .spec
                .deadline
                .is_some_and(|limit| col.submitted.elapsed() >= limit)
            {
                Some(Termination::DeadlineExpired)
            } else {
                None
            };
            let (solution, status, termination, error) = match (&built, stopped) {
                (Err(e), _) => (None, idle, Termination::Fault, Some(e.clone())),
                (Ok(_), Some(stopped)) => (Some(vec![0.0; matrix.rows()]), idle, stopped, None),
                (Ok(precond), None) => {
                    let mut cfg = config;
                    if let Some(budget) = col.spec.budget {
                        cfg.max_iterations = cfg.max_iterations.min(budget);
                    }
                    match solver.config(cfg).solve_encoded(
                        matrix,
                        &col.spec.rhs,
                        precond.as_deref(),
                        &log,
                    ) {
                        Ok(outcome) => {
                            let termination = if outcome.status.converged {
                                Termination::Converged
                            } else if outcome.status.iterations < cfg.max_iterations {
                                Termination::Stalled
                            } else {
                                Termination::IterationBudget
                            };
                            (Some(outcome.solution), outcome.status, termination, None)
                        }
                        Err(e) => (None, idle, Termination::Fault, Some(e)),
                    }
                }
            };
            ColumnResult {
                job: col.returned(termination),
                solution,
                status,
                termination,
                error,
                faults: log.snapshot(),
                panel_width: width,
            }
        })
        .collect();
    (results, matrix_log.snapshot())
}

/// The generic panel body: per-column fault contexts, a scratch matrix
/// log with per-iteration attribution, cooperative cancellation/deadline
/// polling, and a per-column `finish`.
fn run_panel<Op: LinearOperator>(
    op: &Op,
    config: SolverConfig,
    columns: Vec<PendingJob>,
) -> (Vec<ColumnResult>, FaultLogSnapshot) {
    let width = columns.len();
    let logs: Vec<FaultLog> = (0..width).map(|_| FaultLog::new()).collect();
    let base: Vec<FaultContext> = logs.iter().map(FaultContext::with_log).collect();
    let ctxs: Vec<FaultContext> = base
        .iter()
        .map(|ctx| ctx.scoped_to(op.reduction_workspace()))
        .collect();
    let ctx_refs: Vec<&FaultContext> = ctxs.iter().collect();
    let matrix_log = FaultLog::new();
    let matrix_ctx = FaultContext::with_log(&matrix_log);

    let bs: Vec<Op::Vector> = columns
        .iter()
        .map(|c| op.vector_from(&c.spec.rhs))
        .collect();
    let b_refs: Vec<&Op::Vector> = bs.iter().collect();
    let budgets: Vec<Option<usize>> = columns.iter().map(|c| c.spec.budget).collect();

    let block = block_cg_panel(
        op,
        &b_refs,
        &config,
        &ctx_refs,
        &matrix_ctx,
        true,
        &budgets,
        |j, _iteration| {
            let col = &columns[j];
            if col.cancel.load(Ordering::Relaxed) {
                return Some(Termination::Cancelled);
            }
            if col
                .spec
                .deadline
                .is_some_and(|limit| col.submitted.elapsed() >= limit)
            {
                return Some(Termination::DeadlineExpired);
            }
            None
        },
    );

    let results = block
        .into_iter()
        .zip(columns)
        .enumerate()
        .map(|(j, (mut col, job))| {
            let (solution, termination, error) = if col.termination == Termination::Fault {
                (None, Termination::Fault, col.error.take())
            } else {
                // Decode (and end-of-solve verify / scrub) with the owning
                // column's context, so the finish activity is attributed to
                // this tenant exactly as in a standalone solve.
                match op.finish(&mut col.solution, &ctxs[j]) {
                    Ok(plain) => (Some(plain), col.termination, None),
                    Err(e) => (None, Termination::Fault, Some(e)),
                }
            };
            ColumnResult {
                job: job.returned(termination),
                solution,
                status: col.status,
                termination,
                error,
                faults: logs[j].snapshot(),
                panel_width: width,
            }
        })
        .collect();
    (results, matrix_log.snapshot())
}
