//! The six workloads.  Each one is a closed loop: one unit of work (a solve
//! to tolerance, a TeaLeaf run, a queue drain) starts when the previous one
//! has returned, on one thread except where the serving queue hands its two
//! panels to the pool.  See `README.md` for why each exists and which
//! metrics it is expected to move.

use crate::layers::{fault_counts, probe_kernels, traced_budget, ROOT_SPAN};
use crate::metrics::LayerValues;
use crate::oracle::{solution_ok, MAX_RELATIVE_DISTANCE};
use crate::rng::{rhs, SplitMix64};
use crate::stats::{fastest, smallest, time};
use crate::trace::{Traced, TracedPrecond, Tracer};
use abft_suite::core::{
    AnyProtectedMatrix, EccScheme, FaultLog, FaultLogSnapshot, ParityConfig, ProtectedMatrix,
    ProtectionConfig, StorageTier,
};
use abft_suite::ecc::Crc32cBackend;
use abft_suite::serve::{pool, JobSpec, MatrixId, SolveQueue};
use abft_suite::solvers::backends::{FullyProtected, MatrixProtected, Plain};
use abft_suite::solvers::{
    block_cg_panel, ft_pcg, FaultContext, Ilu0, LinearOperator, Preconditioner, Reliability,
    SolveOutcome, Solver, SolverConfig, SolverError, Termination,
};
use abft_suite::sparse::builders::poisson_2d_padded;
use abft_suite::sparse::CsrMatrix;
use abft_suite::tealeaf::assembly::{
    assemble_matrix, assemble_rhs, face_coefficients, Conductivity,
};
use abft_suite::tealeaf::{Deck, FieldSummary, Simulation};
use std::sync::Arc;

/// Tolerance on the squared residual for every Poisson workload (TeaLeaf
/// takes its `eps` from the deck).
pub const TOLERANCE: f64 = 1e-10;
/// Iteration cap; a solve that reaches it counts as failed.
const MAX_ITERATIONS: usize = 10_000;
/// Grid edge of every workload under `--smoke`.
const SMOKE_GRID: usize = 32;
/// Jobs and tenants of one queue drain.
const QUEUE_JOBS: usize = 16;
const QUEUE_TENANTS: [&str; 3] = ["alpha", "bravo", "charlie"];
/// Exponent-range bits the persistent factor faults are drawn from.
const FAULT_BITS: std::ops::RangeInclusive<u32> = 54..=61;
/// Number of factor words corrupted in `pcg_ilu0_selective_faulted`.
const FAULT_COUNT: usize = 2;
/// Seed of the SplitMix64 stream the fault sites are drawn from.  Not
/// `--seed`: about a third of all site pairs never converge and the rest
/// cost anything from 1.2x to 2.5x the fault-free iterations, so sites that
/// moved with the seed would make `solve_s` measure the draw, not the code.
/// This stream converges at roughly twice the fault-free count for every
/// right-hand side tried; `--seed` still draws the right-hand side.
const FAULT_SITE_SEED: u64 = 178;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    CgFull,
    CgMatrix,
    TeaLeaf,
    PcgUniform,
    PcgSelectiveFaulted,
    Queue,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line on why the workload exists (repeated in `BENCHMARK.json`).
    pub why: &'static str,
    kind: Kind,
    grid: usize,
}

/// The workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "cg_full_secded64",
        why: "256x256 Poisson CG to 1e-10, SECDED64 on matrix and vectors: the reference; masked BLAS-1 and the per-SpMV x scrub dominate",
        kind: Kind::CgFull,
        grid: 256,
    },
    Spec {
        name: "cg_matrix_secded64",
        why: "same system, protected matrix but plain vectors: matrix verify is all the protected cost, vector-side work must leave it unchanged",
        kind: Kind::CgMatrix,
        grid: 256,
    },
    Spec {
        name: "tealeaf_full_crc32c",
        why: "the paper's application, 320x320 for 4 steps with CRC32C: re-assembles and re-encodes every step, row-wide CRC, 4-element vector groups",
        kind: Kind::TeaLeaf,
        grid: 320,
    },
    Spec {
        name: "pcg_ilu0_uniform_secded64",
        why: "160x160 FT-PCG with ILU(0) in the protected tier: protected triangular solves are the largest item, so preconditioner-apply work shows here only",
        kind: Kind::PcgUniform,
        grid: 160,
    },
    Spec {
        name: "pcg_ilu0_selective_faulted",
        why: "160x160 FT-PCG with unreliable ILU(0) carrying 2 persistent exponent-bit flips: time to a correct answer when the damage is extra iterations",
        kind: Kind::PcgSelectiveFaulted,
        grid: 160,
    },
    Spec {
        name: "queue_panel8_parity",
        why: "16 jobs of 3 tenants on 96x96 drained as two width-8 panels with SECDED64 + parity: the only workload through serve, SpMM and the parity barriers",
        kind: Kind::Queue,
        grid: 96,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything drawn from `--seed`; the library only ever sees these values.
#[derive(Debug, Clone)]
pub struct Inputs {
    grid: usize,
    steps: usize,
    /// One right-hand side per operation of a unit.
    rhs: Vec<Vec<f64>>,
    /// Raw draws for the corrupted factor words (reduced modulo the factor
    /// count once it is known) and the bit flipped in each; the one input
    /// that does not move with the seed (see [`FAULT_SITE_SEED`]).
    fault_sites: Vec<(u64, u32)>,
    /// Specific energy of TeaLeaf's hot region, in `[1, 2.5]`.
    hot_energy: f64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64, smoke: bool) -> Self {
        let grid = if smoke { SMOKE_GRID } else { spec.grid };
        let systems = if spec.kind == Kind::Queue {
            QUEUE_JOBS
        } else {
            1
        };
        let mut faults = SplitMix64::new(FAULT_SITE_SEED, 1 << 32);
        let span = (FAULT_BITS.end() - FAULT_BITS.start() + 1) as usize;
        Inputs {
            grid,
            steps: if smoke { 2 } else { 4 },
            rhs: (0..systems)
                .map(|j| rhs(seed, j as u64, grid * grid))
                .collect(),
            fault_sites: (0..FAULT_COUNT)
                .map(|_| {
                    (
                        faults.next_u64(),
                        FAULT_BITS.start() + faults.below(span) as u32,
                    )
                })
                .collect(),
            hot_energy: 1.0 + 1.5 * SplitMix64::new(seed, 2 << 32).next_f64(),
        }
    }
}

/// Outcome of one operation (a solve, a job, a TeaLeaf run).
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Returned `Ok` and converged before the iteration cap.
    pub ok: bool,
    pub solution: Vec<f64>,
    pub iterations: usize,
    pub faults: FaultLogSnapshot,
}

impl OpResult {
    /// True unless this operation converged to an answer that solves
    /// `a x = b` and agrees with the baseline's `expected` one.
    fn failed(&self, a: &CsrMatrix, b: &[f64], expected: &OpResult, tolerance: f64) -> bool {
        !(self.ok && solution_ok(a, b, &self.solution, &expected.solution, tolerance))
    }

    fn from_outcome(outcome: Result<SolveOutcome, SolverError>) -> Self {
        match outcome {
            Ok(o) => OpResult {
                ok: o.status.converged,
                solution: o.solution,
                iterations: o.status.iterations,
                faults: o.faults,
            },
            Err(_) => OpResult {
                ok: false,
                solution: Vec::new(),
                iterations: 0,
                faults: FaultLogSnapshot::default(),
            },
        }
    }
}

/// One unit of work: its timed wall seconds and what it produced.
#[derive(Debug, Clone)]
pub struct Unit {
    pub seconds: f64,
    pub ops: Vec<OpResult>,
    /// TeaLeaf only: the final field summary and the run's own split into
    /// assembly and solve seconds.
    pub tealeaf: Option<(FieldSummary, f64, f64)>,
}

impl Unit {
    fn new(seconds: f64, ops: Vec<OpResult>) -> Self {
        Unit {
            seconds,
            ops,
            tealeaf: None,
        }
    }

    pub fn iterations(&self) -> usize {
        self.ops.iter().map(|op| op.iterations).sum()
    }

    fn faults(&self) -> FaultLogSnapshot {
        let total = FaultLog::new();
        for op in &self.ops {
            total.absorb(&op.faults);
        }
        total.snapshot()
    }
}

/// A built workload: everything `setup_s` pays for has been done.
pub trait Workload {
    /// Runs one unit of work under the workload's protection config.
    fn protected(&mut self) -> Unit;
    /// Runs the same unit unprotected, on one thread.
    fn baseline(&mut self) -> Unit;
    /// Number of `unit`'s operations that failed: not `ok`, or rejected by
    /// the oracle against the baseline's `reference`.
    fn failures(&self, unit: &Unit, reference: &Unit) -> usize;
    /// The per-layer metrics: traced budget, probes (`reps` calls each)
    /// and counts.
    fn layers(&mut self, reps: usize) -> Layers;
}

/// What a traced run measured, and how many of the operations it ran on
/// the way failed the oracle.
pub struct Layers {
    pub values: LayerValues,
    pub attempted: usize,
    pub failed: usize,
    /// Why the trace cannot be trusted, if it cannot.
    pub trace: Result<(), String>,
}

/// Does everything that happens once before solving — assemble, encode,
/// factor, register — for `spec` on `inputs`.  This is what `setup_s` times.
pub fn build(spec: &Spec, inputs: &Inputs) -> Box<dyn Workload> {
    match spec.kind {
        Kind::TeaLeaf => Box::new(TeaLeafRun::build(inputs)),
        Kind::Queue => Box::new(QueueDrain::build(inputs)),
        kind => Box::new(PoissonSolve::build(kind, inputs)),
    }
}

/// Solves `op x = rhs` to `config`: plain CG through the `Solver` front
/// door, or FT-PCG when a preconditioner is given.  Generic over the
/// operator, so the plain, protected and traced runs share every line.
fn solve_on<Op: LinearOperator>(
    op: &Op,
    rhs: &[f64],
    precond: Option<&dyn Preconditioner>,
    config: &SolverConfig,
) -> Result<SolveOutcome, SolverError> {
    let Some(precond) = precond else {
        return Solver::cg().config(*config).solve_operator(op, rhs);
    };
    let base = FaultContext::new();
    let ctx = base.scoped_to(op.reduction_workspace());
    let b = op.vector_from(rhs);
    let (mut x, status) = ft_pcg(op, &b, precond, config, &ctx)?;
    let solution = op.finish(&mut x, &ctx)?;
    Ok(SolveOutcome {
        solution,
        status,
        faults: ctx.snapshot(),
    })
}

/// [`solve_on`], decorated at the trait seam when a tracer is given.
fn solve_traced<Op: LinearOperator>(
    op: &Op,
    rhs: &[f64],
    precond: Option<&dyn Preconditioner>,
    config: &SolverConfig,
    tracer: Option<&Tracer>,
) -> Result<SolveOutcome, SolverError> {
    let Some(tracer) = tracer else {
        return solve_on(op, rhs, precond, config);
    };
    tracer.span(ROOT_SPAN, || {
        let precond = precond.map(|p| TracedPrecond::new(p, tracer));
        solve_on(
            &Traced::new(op, tracer),
            rhs,
            precond.as_ref().map(|p| p as &dyn Preconditioner),
            config,
        )
    })
}

/// Solves on the backend `matrix` was encoded for: protected vectors when
/// its config protects them, plain vectors otherwise.
fn solve_protected(
    matrix: &AnyProtectedMatrix,
    rhs: &[f64],
    precond: Option<&dyn Preconditioner>,
    config: &SolverConfig,
    tracer: Option<&Tracer>,
) -> (f64, OpResult) {
    let (seconds, outcome) = time(|| {
        if matrix.config().vectors == EccScheme::None {
            solve_traced(&MatrixProtected::new(matrix), rhs, precond, config, tracer)
        } else {
            solve_traced(&FullyProtected::new(matrix), rhs, precond, config, tracer)
        }
    });
    (seconds, OpResult::from_outcome(outcome))
}

fn ilu0(a: &CsrMatrix, tier: Reliability) -> Ilu0 {
    Ilu0::new(a, tier, EccScheme::Secded64, Crc32cBackend::Auto)
        .expect("ILU(0) of a 5-point Poisson matrix")
}

/// The four Poisson workloads: one system, one solve per unit.
struct PoissonSolve {
    kind: Kind,
    grid: usize,
    plain: CsrMatrix,
    protected: AnyProtectedMatrix,
    precond: Option<Ilu0>,
    /// Fault-free unreliable-tier factors for the unprotected run of the
    /// preconditioned workloads; not part of the protected set-up.
    baseline_precond: Option<Ilu0>,
    fault_sites: Vec<(u64, u32)>,
    rhs: Vec<f64>,
    config: SolverConfig,
}

impl PoissonSolve {
    fn build(kind: Kind, inputs: &Inputs) -> Self {
        let plain = poisson_2d_padded(inputs.grid, inputs.grid);
        let protection = match kind {
            Kind::CgMatrix => ProtectionConfig::matrix_only(EccScheme::Secded64),
            _ => ProtectionConfig::full(EccScheme::Secded64),
        };
        let protected =
            AnyProtectedMatrix::encode(&plain, &protection, StorageTier::Csr).expect("encode");
        let mut workload = PoissonSolve {
            kind,
            grid: inputs.grid,
            precond: None,
            baseline_precond: None,
            fault_sites: inputs.fault_sites.clone(),
            rhs: inputs.rhs[0].clone(),
            config: SolverConfig::new(MAX_ITERATIONS, TOLERANCE),
            plain,
            protected,
        };
        workload.precond = workload.factor();
        workload
    }

    /// Builds the workload's preconditioner in its reliability tier and, on
    /// the faulted workload, plants the persistent flips.
    fn factor(&self) -> Option<Ilu0> {
        match self.kind {
            Kind::PcgUniform => Some(ilu0(&self.plain, Reliability::Protected)),
            Kind::PcgSelectiveFaulted => {
                let mut factors = ilu0(&self.plain, Reliability::Unreliable);
                for &(draw, bit) in &self.fault_sites {
                    let k = (draw % factors.factor_count() as u64) as usize;
                    factors.inject_factor_bit_flip(k, bit);
                }
                Some(factors)
            }
            _ => None,
        }
    }

    fn precond(&self) -> Option<&dyn Preconditioner> {
        self.precond.as_ref().map(|p| p as &dyn Preconditioner)
    }

    fn run(&self, tracer: Option<&Tracer>) -> Unit {
        let (seconds, op) = solve_protected(
            &self.protected,
            &self.rhs,
            self.precond(),
            &self.config,
            tracer,
        );
        Unit::new(seconds, vec![op])
    }
}

impl Workload for PoissonSolve {
    fn protected(&mut self) -> Unit {
        self.run(None)
    }

    fn baseline(&mut self) -> Unit {
        if self.precond.is_some() && self.baseline_precond.is_none() {
            self.baseline_precond = Some(ilu0(&self.plain, Reliability::Unreliable));
        }
        let precond = self
            .baseline_precond
            .as_ref()
            .map(|p| p as &dyn Preconditioner);
        let (seconds, outcome) = time(|| {
            solve_on(
                &Plain::new(&self.plain, false),
                &self.rhs,
                precond,
                &self.config,
            )
        });
        Unit::new(seconds, vec![OpResult::from_outcome(outcome)])
    }

    fn failures(&self, unit: &Unit, reference: &Unit) -> usize {
        usize::from(unit.ops[0].failed(
            &self.plain,
            &self.rhs,
            &reference.ops[0],
            self.config.tolerance,
        ))
    }

    fn layers(&mut self, reps: usize) -> Layers {
        let mut out = LayerValues::default();
        let baseline = repeat_baseline(self);
        let runs = traced_budget(
            |tracer| {
                let unit = self.run(tracer);
                (unit.seconds, unit)
            },
            &mut out,
        );
        status_metrics(&runs.untraced, runs.untraced_s, &baseline, &mut out);
        if self.precond.is_some() {
            out.set("solvers.precond_build_s", fastest(3, || self.factor()));
        }
        out.set(
            "sparse.assemble_s",
            fastest(reps, || poisson_2d_padded(self.grid, self.grid)),
        );
        probe_kernels(&self.plain, &self.protected, &self.rhs, reps, &mut out);
        Layers {
            values: out,
            attempted: 2,
            failed: self.failures(&runs.untraced, &baseline.unit)
                + self.failures(&runs.traced, &baseline.unit),
            trace: runs.trusted,
        }
    }
}

/// Baseline runs of a traced run: the fastest one's seconds and the last unit.
struct BaselineRuns {
    seconds: f64,
    unit: Unit,
}

fn repeat_baseline(workload: &mut dyn Workload) -> BaselineRuns {
    let units: Vec<Unit> = (0..3).map(|_| workload.baseline()).collect();
    let seconds: Vec<f64> = units.iter().map(|u| u.seconds).collect();
    BaselineRuns {
        seconds: smallest(&seconds),
        unit: units.into_iter().next_back().expect("three runs"),
    }
}

/// The `solvers.*` figures read off a unit's status, and its check counts.
fn status_metrics(unit: &Unit, seconds: f64, baseline: &BaselineRuns, out: &mut LayerValues) {
    let iterations = unit.iterations();
    out.set("solvers.iterations", iterations as f64);
    out.set(
        "solvers.baseline_iterations",
        baseline.unit.iterations() as f64,
    );
    out.set(
        "solvers.s_per_iteration",
        seconds / iterations.max(1) as f64,
    );
    out.set("solvers.overhead_x", seconds / baseline.seconds);
    fault_counts(&unit.faults(), out);
}

/// The TeaLeaf workload: one unit is a whole multi-step run.
struct TeaLeafRun {
    deck: Deck,
    sim: Simulation,
}

impl TeaLeafRun {
    fn protection() -> ProtectionConfig {
        ProtectionConfig::full(EccScheme::Crc32c)
    }

    fn build(inputs: &Inputs) -> Self {
        let mut deck = Deck::standard(inputs.grid, inputs.grid, inputs.steps);
        deck.states[1].energy = inputs.hot_energy;
        let sim = Simulation::new(deck.clone()).with_protection(Self::protection());
        TeaLeafRun { deck, sim }
    }

    fn run(mut sim: Simulation) -> Unit {
        let (seconds, report) = time(|| sim.run());
        let Ok(report) = report else {
            let aborted = Err(SolverError::Unsupported("TeaLeaf run aborted".into()));
            return Unit::new(seconds, vec![OpResult::from_outcome(aborted)]);
        };
        let faults = FaultLog::new();
        for step in &report.steps {
            faults.absorb(&step.faults);
        }
        Unit {
            seconds,
            ops: vec![OpResult {
                ok: report.steps.iter().all(|s| s.converged),
                solution: sim.energy().to_vec(),
                iterations: report.total_iterations(),
                faults: faults.snapshot(),
            }],
            tealeaf: Some((
                report.final_summary,
                report.steps.iter().map(|s| s.assembly_seconds).sum(),
                report.total_solve_seconds(),
            )),
        }
    }
}

impl Workload for TeaLeafRun {
    fn protected(&mut self) -> Unit {
        Self::run(self.sim.clone())
    }

    fn baseline(&mut self) -> Unit {
        Self::run(Simulation::new(self.deck.clone()))
    }

    fn failures(&self, unit: &Unit, reference: &Unit) -> usize {
        let ok = unit.ops[0].ok
            && match (&unit.tealeaf, &reference.tealeaf) {
                (Some((got, ..)), Some((expected, ..))) => {
                    got.max_relative_difference(expected) < MAX_RELATIVE_DISTANCE
                }
                _ => false,
            };
        usize::from(!ok)
    }

    fn layers(&mut self, reps: usize) -> Layers {
        let mut out = LayerValues::default();
        let baseline = repeat_baseline(self);
        let unit = self.protected();
        status_metrics(&unit, unit.seconds, &baseline, &mut out);
        if let Some((_, assembly_s, solve_s)) = unit.tealeaf {
            out.set("tealeaf.assembly_s", assembly_s);
            out.set("tealeaf.solve_s", solve_s);
        }
        out.set("tealeaf.iterations", unit.iterations() as f64);

        // Step 0's system, rebuilt through the public assembly functions the
        // simulation itself calls, then solved as `Simulation::step` solves it.
        let (grid, density, energy) = (self.sim.grid(), self.sim.density(), self.sim.energy());
        let assemble = || {
            let coeffs = face_coefficients(grid, density, Conductivity::Reciprocal);
            (
                assemble_matrix(grid, &coeffs, self.deck.dt_init),
                assemble_rhs(density, energy),
            )
        };
        out.set("sparse.assemble_s", fastest(reps, assemble));
        let (matrix, rhs) = assemble();
        let protected = AnyProtectedMatrix::encode(&matrix, &Self::protection(), StorageTier::Csr)
            .expect("encode");
        let config = SolverConfig::new(self.deck.max_iters, self.deck.eps);
        let step0 = traced_budget(
            |tracer| solve_protected(&protected, &rhs, None, &config, tracer),
            &mut out,
        );
        probe_kernels(&matrix, &protected, &rhs, reps, &mut out);
        let step0_failed = [&step0.untraced, &step0.traced]
            .iter()
            .filter(|op| op.failed(&matrix, &rhs, &step0.untraced, config.tolerance))
            .count();
        Layers {
            values: out,
            attempted: 3,
            failed: self.failures(&unit, &baseline.unit) + step0_failed,
            trace: step0.trusted,
        }
    }
}

/// The serving workload: one unit is 16 jobs submitted and drained.
struct QueueDrain {
    grid: usize,
    plain: CsrMatrix,
    matrix: Arc<AnyProtectedMatrix>,
    queue: SolveQueue,
    id: MatrixId,
    rhs: Vec<Vec<f64>>,
    config: SolverConfig,
}

/// Seconds spent submitting and draining one batch, and its outcomes in
/// submission order.
struct Drained {
    submit_s: f64,
    drain_s: f64,
    ops: Vec<OpResult>,
}

impl QueueDrain {
    fn build(inputs: &Inputs) -> Self {
        let plain = poisson_2d_padded(inputs.grid, inputs.grid);
        let protection = ProtectionConfig::full(EccScheme::Secded64).with_parity(ParityConfig {
            stripe_chunks: 8,
            ..ParityConfig::default()
        });
        let matrix = Arc::new(
            AnyProtectedMatrix::encode(&plain, &protection, StorageTier::Csr).expect("encode"),
        );
        let mut queue = SolveQueue::new(8);
        let id = queue.register(Arc::clone(&matrix));
        QueueDrain {
            grid: inputs.grid,
            plain,
            matrix,
            queue,
            id,
            rhs: inputs.rhs.clone(),
            config: SolverConfig::new(MAX_ITERATIONS, TOLERANCE),
        }
    }

    /// Submits one job per right-hand side, tenants round-robin, then
    /// drains once.
    fn submit_and_drain(
        queue: &mut SolveQueue,
        id: MatrixId,
        rhs: &[Vec<f64>],
        config: SolverConfig,
    ) -> Drained {
        let specs: Vec<JobSpec> = rhs
            .iter()
            .enumerate()
            .map(|(j, b)| {
                JobSpec::new(QUEUE_TENANTS[j % QUEUE_TENANTS.len()], id, b.clone())
                    .with_config(config)
            })
            .collect();
        let (submit_s, ()) = time(|| {
            for spec in specs {
                queue.submit(spec);
            }
        });
        let (drain_s, outcomes) = time(|| queue.drain());
        let ops = outcomes
            .into_iter()
            .map(|job| OpResult {
                ok: job.termination == Termination::Converged && job.solution.is_some(),
                solution: job.solution.unwrap_or_default(),
                iterations: job.status.iterations,
                faults: job.faults,
            })
            .collect();
        Drained {
            submit_s,
            drain_s,
            ops,
        }
    }

    /// One width-8 panel solved by calling `block_cg_panel` directly, the
    /// way the queue's pool job does: per-column contexts, a scratch matrix
    /// log attributed to every column, a per-column `finish`.
    fn panel_direct<Op: LinearOperator>(
        op: &Op,
        rhs: &[Vec<f64>],
        config: &SolverConfig,
    ) -> Vec<OpResult> {
        let logs: Vec<FaultLog> = rhs.iter().map(|_| FaultLog::new()).collect();
        let base: Vec<FaultContext> = logs.iter().map(FaultContext::with_log).collect();
        let ctxs: Vec<FaultContext> = base
            .iter()
            .map(|ctx| ctx.scoped_to(op.reduction_workspace()))
            .collect();
        let ctx_refs: Vec<&FaultContext> = ctxs.iter().collect();
        let matrix_log = FaultLog::new();
        let matrix_ctx = FaultContext::with_log(&matrix_log);
        let bs: Vec<Op::Vector> = rhs.iter().map(|b| op.vector_from(b)).collect();
        let b_refs: Vec<&Op::Vector> = bs.iter().collect();
        let budgets = vec![None; rhs.len()];
        let columns = block_cg_panel(
            op,
            &b_refs,
            config,
            &ctx_refs,
            &matrix_ctx,
            true,
            &budgets,
            |_, _| None,
        );
        columns
            .into_iter()
            .zip(&ctxs)
            .map(|(mut column, ctx)| {
                let solution = op.finish(&mut column.solution, ctx);
                OpResult {
                    ok: column.termination == Termination::Converged && solution.is_ok(),
                    solution: solution.unwrap_or_default(),
                    iterations: column.status.iterations,
                    faults: ctx.snapshot(),
                }
            })
            .collect()
    }

    /// How many of `ops` (the answers to the first right-hand sides, in
    /// order) fail the oracle against the baseline's `reference`.
    fn failed_ops(&self, ops: &[OpResult], reference: &[OpResult]) -> usize {
        ops.iter()
            .zip(reference)
            .zip(&self.rhs)
            .filter(|((op, expected), b)| {
                op.failed(&self.plain, b, expected, self.config.tolerance)
            })
            .count()
    }
}

impl Workload for QueueDrain {
    fn protected(&mut self) -> Unit {
        let drained = Self::submit_and_drain(&mut self.queue, self.id, &self.rhs, self.config);
        Unit::new(drained.submit_s + drained.drain_s, drained.ops)
    }

    fn baseline(&mut self) -> Unit {
        let op = Plain::new(&self.plain, false);
        let (seconds, ops) = time(|| {
            self.rhs
                .iter()
                .map(|b| OpResult::from_outcome(solve_on(&op, b, None, &self.config)))
                .collect()
        });
        Unit::new(seconds, ops)
    }

    fn failures(&self, unit: &Unit, reference: &Unit) -> usize {
        // A job the queue never answered is a failed operation too.
        self.rhs.len().saturating_sub(unit.ops.len()) + self.failed_ops(&unit.ops, &reference.ops)
    }

    fn layers(&mut self, reps: usize) -> Layers {
        let mut out = LayerValues::default();
        let baseline = repeat_baseline(self);

        // The whole unit once more, split into submit and drain.
        let checks_before = self.queue.matrix_activity().total_checks();
        let drained = Self::submit_and_drain(&mut self.queue, self.id, &self.rhs, self.config);
        let shared_checks = self.queue.matrix_activity().total_checks() - checks_before;
        let unit = Unit::new(drained.submit_s + drained.drain_s, drained.ops);
        status_metrics(&unit, unit.seconds, &baseline, &mut out);
        out.set("serve.submit_s", drained.submit_s);
        out.set("serve.drain_s", drained.drain_s);
        out.set(
            "serve.matrix_checks_per_rhs",
            shared_checks as f64 / self.rhs.len() as f64,
        );

        // One panel: direct `block_cg_panel` (traced and untraced) against a
        // one-panel drain through queue and pool.
        let panel = &self.rhs[..8.min(self.rhs.len())];
        let op = FullyProtected::new(&*self.matrix);
        let direct = traced_budget(
            |tracer| {
                time(|| match tracer {
                    None => Self::panel_direct(&op, panel, &self.config),
                    Some(t) => t.span(ROOT_SPAN, || {
                        Self::panel_direct(&Traced::new(&op, t), panel, &self.config)
                    }),
                })
            },
            &mut out,
        );
        let mut queue = SolveQueue::new(8);
        let id = queue.register(Arc::clone(&self.matrix));
        let one_panel: Vec<f64> = (0..2)
            .map(|_| Self::submit_and_drain(&mut queue, id, panel, self.config).drain_s)
            .collect();
        out.set(
            "serve.panel_overhead_s",
            smallest(&one_panel) - direct.untraced_s,
        );
        out.set(
            "serve.pool_roundtrip_us",
            fastest(200, || pool::submit(|| ()).wait()) * 1e6,
        );

        out.set(
            "sparse.assemble_s",
            fastest(reps, || poisson_2d_padded(self.grid, self.grid)),
        );
        probe_kernels(&self.plain, &self.matrix, &self.rhs[0], reps, &mut out);
        Layers {
            values: out,
            attempted: unit.ops.len() + 2 * panel.len(),
            failed: self.failures(&unit, &baseline.unit)
                + self.failed_ops(&direct.untraced, &baseline.unit.ops)
                + self.failed_ops(&direct.traced, &baseline.unit.ops),
            trace: direct.trusted,
        }
    }
}
