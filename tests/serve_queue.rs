//! SolveQueue determinism and tenant isolation.
//!
//! The serving front door's contract is that batching is an *efficiency*
//! decision, never a *semantics* decision: which jobs share a panel, the
//! order jobs were submitted in, and how many workers the pool runs must
//! all be invisible in the per-job answers and the per-tenant fault
//! accounting.  These tests pin that contract, plus the isolation half:
//! one tenant cancelling mid-solve or blowing its deadline must leave
//! every other tenant's outcome and check counts bit-for-bit untouched.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use abft_suite::core::{
    AnyProtectedMatrix, EccScheme, FaultLogSnapshot, ProtectedMatrix, ProtectionConfig, StorageTier,
};
use abft_suite::prelude::{JobSpec, SolveQueue, SolverConfig, Termination};
use abft_suite::sparse::builders::poisson_2d_padded;
use abft_suite::sparse::CsrMatrix;

fn test_matrix() -> CsrMatrix {
    poisson_2d_padded(24, 24)
}

/// The caller-side encode step the unified `SolveQueue::register` expects.
fn encode(matrix: &CsrMatrix, protection: &ProtectionConfig) -> AnyProtectedMatrix {
    AnyProtectedMatrix::encode(matrix, protection, StorageTier::Csr).unwrap()
}

fn rhs_for(matrix: &CsrMatrix, seed: usize) -> Vec<f64> {
    (0..matrix.rows())
        .map(|i| 1.0 + ((i * seed) % 13) as f64 * 0.25)
        .collect()
}

/// One tenant's comparable result: solution bits plus the full fault
/// snapshot (which includes every check count).
#[derive(Debug, PartialEq)]
struct TenantResult {
    solution_bits: Option<Vec<u64>>,
    termination: Termination,
    iterations: usize,
    faults: FaultLogSnapshot,
}

/// Drains one queue over `order` (a permutation of tenant indices) and
/// returns results keyed back to canonical tenant order.
fn run_order(matrix: &CsrMatrix, order: &[usize], width: usize) -> Vec<TenantResult> {
    let protection = ProtectionConfig::full(EccScheme::Secded64);
    let config = SolverConfig::new(2000, 1e-15);
    let mut queue = SolveQueue::new(width);
    let id = queue.register(encode(matrix, &protection));
    for &t in order {
        let spec =
            JobSpec::new(format!("tenant-{t}"), id, rhs_for(matrix, t + 3)).with_config(config);
        queue.submit(spec);
    }
    let outcomes = queue.drain();
    (0..order.len())
        .map(|t| {
            let name = format!("tenant-{t}");
            let o = outcomes.iter().find(|o| o.tenant == name).unwrap();
            TenantResult {
                solution_bits: o
                    .solution
                    .as_ref()
                    .map(|s| s.iter().map(|v| v.to_bits()).collect()),
                termination: o.termination,
                iterations: o.status.iterations,
                faults: o.faults,
            }
        })
        .collect()
}

#[test]
fn drain_results_are_invariant_to_submission_order_and_worker_count() {
    let matrix = test_matrix();
    // Six jobs through width-4 panels: the forward order packs
    // {0,1,2,3},{4,5}; the reverse order packs {5,4,3,2},{1,0}.  Panel
    // composition changes completely; answers and accounting must not.
    let forward: Vec<usize> = (0..6).collect();
    let reverse: Vec<usize> = (0..6).rev().collect();
    let interleaved = [2usize, 5, 0, 3, 1, 4];

    let mut baseline: Option<Vec<TenantResult>> = None;
    for workers in [1usize, 2, 8] {
        rayon::set_worker_limit(Some(workers));
        for order in [&forward[..], &reverse[..], &interleaved[..]] {
            let results = run_order(&matrix, order, 4);
            for (t, r) in results.iter().enumerate() {
                assert_eq!(
                    r.termination,
                    Termination::Converged,
                    "tenant-{t} workers={workers} order={order:?}"
                );
                assert!(
                    r.faults.total_checks() > 0,
                    "tenant-{t}: accounting is vacuous"
                );
            }
            match &baseline {
                None => baseline = Some(results),
                Some(expected) => assert_eq!(
                    &results, expected,
                    "workers={workers} order={order:?}: results diverged from baseline"
                ),
            }
        }
    }
    rayon::set_worker_limit(None);
}

#[test]
fn faulted_job_is_requeued_with_backoff_and_neighbours_stay_bit_for_bit() {
    let matrix = test_matrix();
    let protection = ProtectionConfig::full(EccScheme::Secded64);
    let config = SolverConfig::new(2000, 1e-15);

    // Baseline: the two healthy tenants alone.
    let mut queue = SolveQueue::new(4);
    let id = queue.register(encode(&matrix, &protection));
    queue.submit(JobSpec::new("alpha", id, rhs_for(&matrix, 3)).with_config(config));
    queue.submit(JobSpec::new("charlie", id, rhs_for(&matrix, 5)).with_config(config));
    let baseline = queue.drain();

    // A matrix whose SED-protected values carry a pre-existing flip: every
    // SpMV over it detects the corruption but cannot correct it, so every
    // attempt of the "faulty" tenant's job ends in Termination::Fault —
    // the deterministic stand-in for a tenant whose data keeps failing.
    let mut poisoned = encode(&matrix, &ProtectionConfig::matrix_only(EccScheme::Sed));
    poisoned.inject_value_bit_flip(10, 40);

    let mut queue = SolveQueue::new(4).with_retry_budget(2);
    let clean_id = queue.register(encode(&matrix, &protection));
    let bad_id = queue.register(poisoned);
    queue.submit(JobSpec::new("alpha", clean_id, rhs_for(&matrix, 3)).with_config(config));
    queue.submit(JobSpec::new("faulty", bad_id, rhs_for(&matrix, 4)).with_config(config));
    queue.submit(JobSpec::new("charlie", clean_id, rhs_for(&matrix, 5)).with_config(config));

    // Drain 1: the healthy tenants are answered; the faulted job is NOT
    // surfaced — it is requeued (attempt 1, eligible at drain 2) with its
    // fault already folded into the tenant's history.
    let first = queue.drain();
    assert_eq!(first.len(), 2);
    assert!(first.iter().all(|o| o.tenant != "faulty"));
    assert_eq!(queue.pending(), 1);
    let after_first = queue.tenant_snapshot("faulty");
    assert!(after_first.total_uncorrectable() > 0);

    // Drain 2: attempt 1 runs solo, faults again, and is requeued with
    // exponential backoff — attempt 2 only becomes eligible at drain 4.
    assert!(queue.drain().is_empty());
    assert_eq!(queue.pending(), 1);
    let after_second = queue.tenant_snapshot("faulty");
    assert!(after_second.total_uncorrectable() > after_first.total_uncorrectable());

    // Drain 3: inside the backoff window, the job must not even run — the
    // drain is empty and the tenant's fault history does not move.
    assert!(queue.drain().is_empty());
    assert_eq!(queue.pending(), 1);
    assert_eq!(queue.tenant_snapshot("faulty"), after_second);

    // Drain 4: the retry budget (2) is exhausted, so the job is finally
    // surfaced as a Fault, carrying its attempt count and no solution.
    let last = queue.drain();
    assert_eq!(last.len(), 1);
    let outcome = &last[0];
    assert_eq!(outcome.tenant, "faulty");
    assert_eq!(outcome.termination, Termination::Fault);
    assert_eq!(outcome.attempts, 2);
    assert!(outcome.solution.is_none());
    assert_eq!(queue.pending(), 0);

    // The healthy tenants that shared the first drain with the faulting
    // job are bit-for-bit what they were without it.
    for name in ["alpha", "charlie"] {
        let clean = baseline.iter().find(|o| o.tenant == name).unwrap();
        let contested = first.iter().find(|o| o.tenant == name).unwrap();
        assert_eq!(contested.termination, Termination::Converged, "{name}");
        assert_eq!(
            contested.solution, clean.solution,
            "{name}: solution changed when a faulting job shared the drain"
        );
        assert_eq!(
            contested.faults, clean.faults,
            "{name}: fault accounting changed when a faulting job shared the drain"
        );
    }
}

#[test]
fn cancelled_and_deadline_expired_jobs_leave_other_tenants_untouched() {
    let matrix = test_matrix();
    let protection = ProtectionConfig::full(EccScheme::Secded64);
    let config = SolverConfig::new(2000, 1e-15);

    // Baseline: alpha and charlie alone, one panel.
    let mut queue = SolveQueue::new(4);
    let id = queue.register(encode(&matrix, &protection));
    queue.submit(JobSpec::new("alpha", id, rhs_for(&matrix, 3)).with_config(config));
    queue.submit(JobSpec::new("charlie", id, rhs_for(&matrix, 5)).with_config(config));
    let baseline = queue.drain();
    assert!(baseline
        .iter()
        .all(|o| o.termination == Termination::Converged));

    // Contested run: the same two tenants share their panel with bravo,
    // whose zero deadline expires at the very first iteration boundary,
    // and ride alongside a separate long-running job that another thread
    // cancels mid-solve.
    let mut queue = SolveQueue::new(4);
    let id = queue.register(encode(&matrix, &protection));
    queue.submit(JobSpec::new("alpha", id, rhs_for(&matrix, 3)).with_config(config));
    queue.submit(
        JobSpec::new("bravo", id, rhs_for(&matrix, 4))
            .with_config(config)
            .with_deadline(Duration::ZERO),
    );
    queue.submit(JobSpec::new("charlie", id, rhs_for(&matrix, 5)).with_config(config));
    // An unreachable tolerance keeps mallory solving until cancelled; the
    // distinct config places it in its own panel, draining concurrently.
    let runaway = SolverConfig::new(200_000, 0.0);
    let handle =
        queue.submit(JobSpec::new("mallory", id, rhs_for(&matrix, 6)).with_config(runaway));

    let cancel = Arc::new(AtomicBool::new(false));
    let canceller = {
        let cancel = Arc::clone(&cancel);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            handle.cancel();
            cancel.store(true, Ordering::SeqCst);
        })
    };
    let outcomes = queue.drain();
    canceller.join().unwrap();
    assert!(cancel.load(Ordering::SeqCst));

    let by_tenant = |name: &str| outcomes.iter().find(|o| o.tenant == name).unwrap();
    assert_eq!(by_tenant("bravo").termination, Termination::DeadlineExpired);
    assert_eq!(by_tenant("bravo").status.iterations, 0);
    assert_eq!(by_tenant("mallory").termination, Termination::Cancelled);
    assert!(
        by_tenant("mallory").status.iterations > 0,
        "the cancel should land mid-solve, not before the first iteration"
    );

    // The healthy tenants are bit-for-bit what they were without the
    // misbehaving neighbours: same solutions, same check counts.
    for name in ["alpha", "charlie"] {
        let clean = baseline.iter().find(|o| o.tenant == name).unwrap();
        let contested = by_tenant(name);
        assert_eq!(contested.termination, Termination::Converged, "{name}");
        assert_eq!(
            contested.solution, clean.solution,
            "{name}: solution changed when sharing the queue with cancelled/expired jobs"
        );
        assert_eq!(
            contested.faults, clean.faults,
            "{name}: fault accounting changed when sharing the queue"
        );
    }
}
