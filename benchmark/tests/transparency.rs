//! The decorators of `trace.rs` must be invisible to the solver: a traced
//! solve returns bit-identical answers, iteration counts and fault logs.

use abft_benchmark::layers::{budget, ROOT_SPAN};
use abft_benchmark::metrics::LayerValues;
use abft_benchmark::rng::rhs;
use abft_benchmark::trace::{self_times_ns, Traced, TracedPrecond, Tracer};
use abft_suite::core::{AnyProtectedMatrix, EccScheme, ProtectionConfig, StorageTier};
use abft_suite::ecc::Crc32cBackend;
use abft_suite::solvers::backends::{FullyProtected, MatrixProtected, Plain};
use abft_suite::solvers::{
    ft_pcg, FaultContext, Ilu0, LinearOperator, Reliability, SolveOutcome, Solver, SolverConfig,
    SolverVector,
};
use abft_suite::sparse::builders::poisson_2d_padded;
use abft_suite::sparse::CsrMatrix;

const GRID: usize = 32;

fn system() -> (CsrMatrix, Vec<f64>, SolverConfig) {
    (
        poisson_2d_padded(GRID, GRID),
        rhs(3, 0, GRID * GRID),
        SolverConfig::new(2_000, 1e-10),
    )
}

fn encode(a: &CsrMatrix, config: ProtectionConfig) -> AnyProtectedMatrix {
    AnyProtectedMatrix::encode(a, &config, StorageTier::Csr).unwrap()
}

fn assert_same(traced: &SolveOutcome, plain: &SolveOutcome, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(plain.status.converged, "{what}");
    assert_eq!(bits(&traced.solution), bits(&plain.solution), "{what}");
    assert_eq!(traced.status, plain.status, "{what}");
    assert_eq!(traced.faults, plain.faults, "{what}");
}

/// CG through the `Solver` front door, with and without the decorator.
fn cg_both<Op: LinearOperator>(op: &Op, what: &str) -> Tracer {
    let (_, b, config) = system();
    let solver = Solver::cg().config(config);
    let plain = solver.solve_operator(op, &b).unwrap();
    let tracer = Tracer::with_capacity(4096);
    let traced = tracer.span(ROOT_SPAN, || {
        solver
            .solve_operator(&Traced::new(op, &tracer), &b)
            .unwrap()
    });
    assert_same(&traced, &plain, what);
    tracer
}

#[test]
fn traced_cg_is_bit_identical_on_every_backend() {
    let (a, ..) = system();
    cg_both(&Plain::new(&a, false), "plain");
    let matrix_only = encode(&a, ProtectionConfig::matrix_only(EccScheme::Secded64));
    cg_both(&MatrixProtected::new(&matrix_only), "matrix protected");
    let full = encode(&a, ProtectionConfig::full(EccScheme::Secded64));
    cg_both(&FullyProtected::new(&full), "fully protected");
}

fn pcg<Op: LinearOperator>(
    op: &Op,
    precond: &dyn abft_suite::solvers::Preconditioner,
) -> SolveOutcome {
    let (_, b, config) = system();
    let base = FaultContext::new();
    let ctx = base.scoped_to(op.reduction_workspace());
    let bv = op.vector_from(&b);
    let (mut x, status) = ft_pcg(op, &bv, precond, &config, &ctx).unwrap();
    assert!(!x.is_empty());
    SolveOutcome {
        solution: op.finish(&mut x, &ctx).unwrap(),
        status,
        faults: ctx.snapshot(),
    }
}

#[test]
fn traced_ft_pcg_is_bit_identical_and_counts_every_apply() {
    let (a, ..) = system();
    let full = encode(&a, ProtectionConfig::full(EccScheme::Secded64));
    let op = FullyProtected::new(&full);
    let ilu = Ilu0::new(
        &a,
        Reliability::Protected,
        EccScheme::Secded64,
        Crc32cBackend::Auto,
    )
    .unwrap();
    let plain = pcg(&op, &ilu);
    let tracer = Tracer::with_capacity(4096);
    let traced = tracer.span(ROOT_SPAN, || {
        pcg(
            &Traced::new(&op, &tracer),
            &TracedPrecond::new(&ilu, &tracer),
        )
    });
    assert_same(&traced, &plain, "ft_pcg");

    let mut values = LayerValues::default();
    budget(&tracer.take(), &mut values);
    let get = |name: &str| values.get(name).unwrap();
    // One preconditioner apply before the loop and one after every
    // iteration but the converging one; one SpMV per iteration.
    assert_eq!(get("solvers.apply_calls"), plain.status.iterations as f64);
    assert_eq!(
        get("solvers.precond_apply_calls"),
        plain.status.iterations as f64
    );
    assert!(get("solvers.precond_apply_s") > 0.0);
}

#[test]
fn spans_nest_under_the_root_and_the_budget_sums_to_it() {
    let (a, ..) = system();
    let full = encode(&a, ProtectionConfig::full(EccScheme::Secded64));
    let tracer = cg_both(&FullyProtected::new(&full), "fully protected");
    let spans = tracer.take();
    assert_eq!(spans[0].name, ROOT_SPAN);
    assert_eq!(spans[0].parent, None);
    for span in &spans[1..] {
        assert_eq!(span.parent, Some(0), "{}", span.name);
        assert!(spans[0].start_ns <= span.start_ns && span.end_ns <= spans[0].end_ns);
    }
    let own = self_times_ns(&spans);
    assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());

    let mut values = LayerValues::default();
    budget(&spans, &mut values);
    let get = |name: &str| values.get(name).unwrap();
    let parts = get("solvers.apply_s")
        + get("solvers.blas1_s")
        + get("solvers.precond_apply_s")
        + get("solvers.finish_s")
        + get("solvers.driver_self_s");
    let wall = spans[0].duration_ns() as f64 * 1e-9;
    assert!(
        (parts - wall).abs() <= 1e-9 * wall.max(1.0),
        "{parts} vs {wall}"
    );
    // CG: dot, axpy, dot_axpy and xpay every iteration, nothing else hot.
    assert!(get("solvers.blas1_calls") >= 4.0 * (get("solvers.apply_calls") - 1.0));
    assert_eq!(get("solvers.precond_apply_calls"), 0.0);
}
