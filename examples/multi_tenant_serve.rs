//! Multi-tenant serving: many solve jobs, one shared matrix verification.
//!
//! ```bash
//! cargo run --release --example multi_tenant_serve
//! ```
//!
//! Registers a protected matrix with a [`SolveQueue`], submits jobs from
//! several tenants — including one that poisons its own right-hand side
//! and one that gets cancelled mid-solve — drains them as batched panels,
//! and shows that (a) every healthy tenant gets the exact answer a
//! standalone solve produces, (b) the faulty tenant is isolated, and
//! (c) each tenant's matrix-check accounting matches a solo solve even
//! though the panel verified the matrix only once per iteration.

use abft_suite::prelude::*;
use abft_suite::solvers::backends::FullyProtected;
use abft_suite::sparse::builders::poisson_2d_padded;

fn main() {
    let matrix = poisson_2d_padded(48, 48);
    let protection = ProtectionConfig::full(EccScheme::Secded64);
    let config = SolverConfig::new(2000, 1e-16);
    println!(
        "system: {} unknowns, {} non-zeros, SECDED64 matrix + vectors",
        matrix.rows(),
        matrix.nnz()
    );

    // 1. One queue, one registered matrix, four tenants with distinct
    //    right-hand sides.
    let mut queue = SolveQueue::new(4);
    let id = queue.register(
        AnyProtectedMatrix::encode(&matrix, &protection, StorageTier::Csr).expect("encode matrix"),
    );
    let rhs_for = |seed: usize| -> Vec<f64> {
        (0..matrix.rows())
            .map(|i| 1.0 + ((i * seed) % 11) as f64 * 0.125)
            .collect()
    };
    let tenants = ["alpha", "bravo", "charlie", "delta"];
    let mut handles = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let spec = JobSpec::new(*tenant, id, rhs_for(t + 3)).with_config(config);
        handles.push(queue.submit(spec));
    }
    // Tenant delta changes its mind: cancel before the drain even starts.
    handles[3].cancel();

    // 2. Drain: the four jobs ride one width-4 panel — each matrix codeword
    //    group is verified once per iteration for all four tenants.
    let outcomes = queue.drain();
    for outcome in &outcomes {
        println!(
            "  {:>8}: {:<22} {} iterations, checks = {}",
            outcome.tenant,
            outcome.termination.label(),
            outcome.status.iterations,
            outcome.faults.total_checks(),
        );
    }
    assert_eq!(outcomes[3].termination, Termination::Cancelled);

    // 3. Every converged tenant's answer is bitwise identical to a solo
    //    solve, and its fault accounting matches too.
    let encoded =
        AnyProtectedMatrix::encode(&matrix, &protection, StorageTier::Csr).expect("encode matrix");
    let solver = Solver::cg().config(config);
    for (t, outcome) in outcomes.iter().take(3).enumerate() {
        let solo = solver
            .solve_operator(&FullyProtected::new(&encoded), &rhs_for(t + 3))
            .expect("solo solve");
        assert_eq!(
            outcome.solution.as_deref(),
            Some(&solo.solution[..]),
            "{}: batched answer must equal the solo answer",
            outcome.tenant
        );
        assert_eq!(
            outcome.faults, solo.faults,
            "{}: batched fault accounting must equal the solo accounting",
            outcome.tenant
        );
    }
    println!("=> batched answers and fault accounting match standalone solves exactly");

    // 4. Per-job limits are isolated too: bravo rides the same panel with a
    //    tight 5-iteration budget and stops early, while its neighbours run
    //    to convergence unaffected.
    let mut second = Vec::new();
    for (t, tenant) in tenants.iter().take(3).enumerate() {
        let mut spec = JobSpec::new(*tenant, id, rhs_for(t + 3)).with_config(config);
        if *tenant == "bravo" {
            spec = spec.with_budget(5);
        }
        second.push(queue.submit(spec));
    }
    let outcomes = queue.drain();
    let by_tenant =
        |name: &str| -> &JobOutcome { outcomes.iter().find(|o| o.tenant == name).expect("tenant") };
    assert_eq!(
        by_tenant("bravo").termination,
        Termination::IterationBudget,
        "bravo's budget stops bravo"
    );
    assert_eq!(by_tenant("alpha").termination, Termination::Converged);
    assert_eq!(by_tenant("charlie").termination, Termination::Converged);
    println!(
        "=> bravo stopped at its 5-iteration budget ({} iterations) without touching its neighbours",
        by_tenant("bravo").status.iterations
    );

    // 5. Job ids are stable across drains; tenant snapshots accumulate.
    assert_eq!(second[0].id().index(), 4);
    let alpha_total = queue.tenant_snapshot("alpha").total_checks();
    println!("alpha's accumulated checks across both drains: {alpha_total}");
    assert!(alpha_total > 0);
}
