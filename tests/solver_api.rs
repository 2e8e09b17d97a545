//! Integration tests for the generic solver redesign.
//!
//! Two guarantees are pinned down here:
//!
//! 1. **Parity** — the generic solvers on the plain backend reproduce the
//!    historical per-mode entry points' trajectories.  The old algorithms
//!    are re-stated inline as reference implementations (the exact loops the
//!    pre-redesign `cg_plain` / `jacobi_solve` ran), and the builder API
//!    must match them bit-for-bit.
//! 2. **New capability** — protected Chebyshev and protected PPCG (which
//!    the old API rejected outright) detect and recover from injected bit
//!    flips, closing the solver × protection matrix.

use abft_suite::core::{AbftError, Region};
use abft_suite::prelude::*;
use abft_suite::solvers::backends::{FullyProtected, MatrixProtected};
use abft_suite::solvers::ChebyshevBounds;
use abft_suite::sparse::builders::poisson_2d_padded;
use abft_suite::sparse::spmv::spmv_serial;
use abft_suite::sparse::vector::{blas_axpy, blas_dot};

fn system() -> (CsrMatrix, Vec<f64>) {
    let a = poisson_2d_padded(12, 10);
    let b = (0..a.rows())
        .map(|i| 1.0 + ((i * 7) % 13) as f64 * 0.25)
        .collect();
    (a, b)
}

fn relative_error(x: &[f64], reference: &[f64]) -> f64 {
    let norm: f64 = reference.iter().map(|v| v * v).sum::<f64>().sqrt();
    let diff: f64 = x
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    diff / norm.max(1e-300)
}

/// The exact CG loop the pre-redesign `cg_plain` entry point ran (serial
/// kernels), kept as a frozen reference.
fn reference_cg(a: &CsrMatrix, b: &[f64], max_iterations: usize, eps: f64) -> (Vec<f64>, usize) {
    let n = a.rows();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut w = vec![0.0; n];
    let mut rr = blas_dot(&r, &r);
    let mut iterations = 0;
    for _ in 0..max_iterations {
        if rr < eps {
            break;
        }
        spmv_serial(a, &p, &mut w);
        let pw = blas_dot(&p, &w);
        if pw == 0.0 {
            break;
        }
        let alpha = rr / pw;
        blas_axpy(&mut x, alpha, &p);
        blas_axpy(&mut r, -alpha, &w);
        let rr_new = blas_dot(&r, &r);
        iterations += 1;
        if rr_new < eps {
            break;
        }
        let beta = rr_new / rr;
        for (pi, &ri) in p.iter_mut().zip(&r) {
            *pi = ri + beta * *pi;
        }
        rr = rr_new;
    }
    (x, iterations)
}

/// The exact Jacobi loop the pre-redesign `jacobi_solve` entry point ran.
fn reference_jacobi(
    a: &CsrMatrix,
    b: &[f64],
    max_iterations: usize,
    eps: f64,
) -> (Vec<f64>, usize) {
    let n = a.rows();
    let diag = a.diagonal();
    let mut x = vec![0.0; n];
    let mut ax = vec![0.0; n];
    let residual_sq = |ax: &[f64]| -> f64 {
        ax.iter()
            .zip(b)
            .map(|(axi, bi)| (bi - axi) * (bi - axi))
            .sum()
    };
    spmv_serial(a, &x, &mut ax);
    let mut rr = residual_sq(&ax);
    let mut iterations = 0;
    for _ in 0..max_iterations {
        if rr < eps {
            break;
        }
        for i in 0..n {
            x[i] += (b[i] - ax[i]) / diag[i];
        }
        spmv_serial(a, &x, &mut ax);
        rr = residual_sq(&ax);
        iterations += 1;
    }
    (x, iterations)
}

#[test]
fn generic_cg_is_bit_identical_to_the_old_plain_entry_point() {
    let (a, b) = system();
    let (x_ref, iters_ref) = reference_cg(&a, &b, 500, 1e-18);
    let outcome = Solver::cg()
        .max_iterations(500)
        .tolerance(1e-18)
        .solve(&a, &b)
        .unwrap();
    assert_eq!(outcome.status.iterations, iters_ref);
    assert_eq!(
        outcome.solution, x_ref,
        "trajectory must be preserved exactly"
    );
}

#[test]
fn generic_jacobi_is_bit_identical_to_the_old_plain_entry_point() {
    let (a, b) = system();
    let (x_ref, iters_ref) = reference_jacobi(&a, &b, 4000, 1e-14);
    let outcome = Solver::jacobi()
        .max_iterations(4000)
        .tolerance(1e-14)
        .solve(&a, &b)
        .unwrap();
    assert_eq!(outcome.status.iterations, iters_ref);
    assert_eq!(
        outcome.solution, x_ref,
        "trajectory must be preserved exactly"
    );
}

#[test]
fn matrix_protection_preserves_the_plain_trajectory_for_all_methods() {
    // The protected matrix stores values verbatim, so every method must
    // follow the exact same trajectory as its plain counterpart.
    let (a, b) = system();
    let configs = [
        (Method::Cg, 500usize),
        (Method::Jacobi, 4000),
        (Method::Chebyshev, 2000),
        (Method::Ppcg, 500),
    ];
    for (method, max_iterations) in configs {
        let solver = Solver::new(method)
            .max_iterations(max_iterations)
            .tolerance(1e-14);
        let plain = solver.solve(&a, &b).unwrap();
        for scheme in EccScheme::ALL {
            let protected = solver
                .protection(
                    ProtectionConfig::matrix_only(scheme)
                        .with_crc_backend(Crc32cBackend::SlicingBy16),
                )
                .solve(&a, &b)
                .unwrap();
            assert_eq!(
                protected.status.iterations, plain.status.iterations,
                "{method:?}/{scheme:?}"
            );
            assert_eq!(
                protected.solution, plain.solution,
                "{method:?}/{scheme:?}: matrix protection must not perturb the solve"
            );
        }
    }
}

#[test]
fn fully_protected_solves_stay_within_masking_noise_for_all_methods() {
    let (a, b) = system();
    let configs = [
        (Method::Cg, 500usize, 1e-16),
        (Method::Jacobi, 6000, 1e-16),
        (Method::Chebyshev, 4000, 1e-16),
        (Method::Ppcg, 500, 1e-16),
    ];
    for (method, max_iterations, eps) in configs {
        let solver = Solver::new(method)
            .max_iterations(max_iterations)
            .tolerance(eps);
        let plain = solver.solve(&a, &b).unwrap();
        for scheme in EccScheme::ALL {
            let protected = solver
                .protection(
                    ProtectionConfig::full(scheme).with_crc_backend(Crc32cBackend::SlicingBy16),
                )
                .solve(&a, &b)
                .unwrap();
            assert!(
                relative_error(&protected.solution, &plain.solution) < 1e-6,
                "{method:?}/{scheme:?}"
            );
            assert_eq!(protected.faults.total_uncorrectable(), 0);
        }
    }
}

/// The workloads the redesign opens up: protected Chebyshev and PPCG
/// detect-and-recover from injected bit flips, exactly like protected CG.
#[test]
fn protected_chebyshev_and_ppcg_recover_from_matrix_bit_flips() {
    let (a, b) = system();
    let bounds = ChebyshevBounds::estimate_gershgorin(&a);
    for method in [Method::Chebyshev, Method::Ppcg] {
        let solver = Solver::new(method)
            .max_iterations(4000)
            .tolerance(1e-16)
            .bounds(bounds);
        let clean = solver.solve(&a, &b).unwrap();

        for scheme in [EccScheme::Secded64, EccScheme::Secded128, EccScheme::Crc32c] {
            let protection =
                ProtectionConfig::matrix_only(scheme).with_crc_backend(Crc32cBackend::SlicingBy16);
            let mut protected =
                AnyProtectedMatrix::encode(&a, &protection, StorageTier::Csr).unwrap();
            // A flipped exponent bit would devastate an unprotected solve.
            protected.inject_value_bit_flip(41, 62);
            let outcome = solver
                .solve_operator(&MatrixProtected::new(&protected), &b)
                .unwrap();
            assert!(
                outcome.faults.total_corrected() > 0,
                "{method:?}/{scheme:?}: the flip must be detected and corrected"
            );
            assert_eq!(outcome.faults.total_uncorrectable(), 0);
            assert_eq!(
                outcome.solution, clean.solution,
                "{method:?}/{scheme:?}: transparent correction must preserve the answer"
            );
        }

        // SED can only detect: the same flip aborts the solve with a fault.
        let protection = ProtectionConfig::matrix_only(EccScheme::Sed)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let mut protected = AnyProtectedMatrix::encode(&a, &protection, StorageTier::Csr).unwrap();
        protected.inject_value_bit_flip(41, 62);
        let result = solver.solve_operator(&MatrixProtected::new(&protected), &b);
        assert!(
            matches!(result, Err(SolverError::Fault(_))),
            "{method:?}: SED must refuse to compute with corrupted data"
        );
    }
}

#[test]
fn protected_ppcg_recovers_from_vector_bit_flips() {
    let (a, b) = system();
    let protection =
        ProtectionConfig::full(EccScheme::Secded64).with_crc_backend(Crc32cBackend::SlicingBy16);
    let protected = AnyProtectedMatrix::encode(&a, &protection, StorageTier::Csr).unwrap();
    let op = FullyProtected::new(&protected);
    let solver = Solver::ppcg().max_iterations(500).tolerance(1e-16);
    let clean = solver.solve_operator(&op, &b).unwrap();

    // Corrupt the encoded right-hand side before handing it to the solver:
    // the vector-side scrub inside the protected SpMV repairs it on read.
    let mut encoded = ProtectedVector::from_slice(&b, protection.vectors, protection.crc_backend);
    encoded.inject_bit_flip(7, 44);
    let log = FaultLog::new();
    encoded.scrub(&log).unwrap();
    assert_eq!(log.total_corrected(), 1);
    let recovered: Vec<f64> = (0..encoded.len()).map(|i| encoded.get(i)).collect();
    let outcome = solver.solve_operator(&op, &recovered).unwrap();
    assert!(relative_error(&outcome.solution, &clean.solution) < 1e-9);
}

/// `solve_encoded` must record into the caller's fault log (not a fresh
/// context), so campaign-style fault accounting matches the snapshot the
/// outcome reports — counts, not just "something was recorded".
#[test]
fn solve_encoded_records_into_the_callers_log() {
    let (a, b) = system();
    let config = SolverConfig::new(120, 1e-18);

    // Matrix-protected tier, with an injected (correctable) value flip.
    let protection = ProtectionConfig::matrix_only(EccScheme::Secded64)
        .with_crc_backend(Crc32cBackend::SlicingBy16);
    let mut protected = AnyProtectedMatrix::encode(&a, &protection, StorageTier::Csr).unwrap();
    protected.inject_value_bit_flip(23, 41);

    let log = FaultLog::new();
    let logged = Solver::cg()
        .config(config)
        .solve_encoded(&protected, &b, None, &log)
        .unwrap();
    let builder = Solver::cg()
        .config(config)
        .solve_operator(&MatrixProtected::new(&protected), &b)
        .unwrap();
    assert!(logged.faults.total_corrected() > 0);
    assert_eq!(
        logged.faults, builder.faults,
        "matrix tier fault accounting"
    );
    // The caller's log saw exactly what the outcome snapshot reports.
    assert_eq!(
        log.snapshot(),
        logged.faults,
        "the caller-supplied log must receive the activity"
    );
    assert_eq!(logged.solution, builder.solution);

    // Fully protected tier.
    let full =
        ProtectionConfig::full(EccScheme::Secded64).with_crc_backend(Crc32cBackend::SlicingBy16);
    let encoded = AnyProtectedMatrix::encode(&a, &full, StorageTier::Csr).unwrap();
    let log = FaultLog::new();
    let logged = Solver::cg()
        .config(config)
        .solve_encoded(&encoded, &b, None, &log)
        .unwrap();
    let builder = Solver::cg()
        .config(config)
        .solve_operator(&FullyProtected::new(&encoded), &b)
        .unwrap();
    assert_eq!(logged.faults, builder.faults, "full tier fault accounting");
    assert_eq!(log.snapshot(), logged.faults);
    assert_eq!(logged.solution, builder.solution);

    // An uncorrectable fault aborts the solve but the activity observed
    // before the abort still lands in the caller's log.
    let sed =
        ProtectionConfig::matrix_only(EccScheme::Sed).with_crc_backend(Crc32cBackend::SlicingBy16);
    let mut corrupt = AnyProtectedMatrix::encode(&a, &sed, StorageTier::Csr).unwrap();
    corrupt.inject_value_bit_flip(10, 52);
    let log = FaultLog::new();
    let result = Solver::cg()
        .config(config)
        .solve_encoded(&corrupt, &b, None, &log);
    assert!(matches!(result, Err(SolverError::Fault(_))));
    assert!(log.total_uncorrectable() > 0);
    assert!(log.snapshot().checks.iter().sum::<u64>() > 0);
}

#[test]
fn campaign_covers_protected_chebyshev_and_ppcg() {
    for method in [Method::Chebyshev, Method::Ppcg] {
        let stats = Campaign::new(CampaignConfig {
            nx: 10,
            ny: 10,
            trials: 20,
            protection: ProtectionConfig::full(EccScheme::Secded64)
                .with_crc_backend(Crc32cBackend::SlicingBy16),
            target: FaultTarget::MatrixValues,
            solver: method,
            ..CampaignConfig::default()
        })
        .run_streaming(&StreamConfig::default())
        .stats;
        assert_eq!(stats.trials(), 20);
        assert_eq!(stats.count(FaultOutcome::SilentCorruption), 0, "{method:?}");
        assert!(stats.count(FaultOutcome::Corrected) > 0, "{method:?}");
    }
}

/// One solve path: whichever door a solve comes in through — the builder
/// encoding the matrix itself, the caller handing over the encoded matrix,
/// or a width-1 serving-queue job — it is the same arithmetic, and the two
/// `Solver` doors report the same integrity-check activity.
#[test]
fn every_entry_runs_the_one_solve_path_bit_for_bit() {
    let (a, b) = system();
    let config = SolverConfig::new(500, 1e-16);
    let precond = (PrecondKind::Ilu0, Reliability::Unreliable);
    for protection in [
        ProtectionConfig::matrix_only(EccScheme::Secded64),
        ProtectionConfig::full(EccScheme::Secded64),
    ] {
        for precond in [None, Some(precond)] {
            let label = format!("{} / {precond:?}", protection.describe());
            let encoded = AnyProtectedMatrix::encode(&a, &protection, StorageTier::Csr).unwrap();
            let mut queue = SolveQueue::new(1);
            let id = queue.register(encoded.clone());
            let mut solver = Solver::cg().config(config).protection(protection);
            let mut job = JobSpec::new("tenant", id, b.clone()).with_config(config);
            if let Some((kind, reliability)) = precond {
                solver = solver.preconditioner(kind, reliability);
                job = job.with_preconditioner(kind, reliability);
            }
            let direct = solver.solve(&a, &b).unwrap();
            assert!(direct.status.converged, "{label}");

            let built = solver.build_preconditioner(&a).unwrap();
            let log = FaultLog::new();
            let pre_encoded = solver
                .solve_encoded(&encoded, &b, built.as_deref(), &log)
                .unwrap();
            assert_eq!(pre_encoded.solution, direct.solution, "{label}");
            assert_eq!(pre_encoded.status, direct.status, "{label}");
            assert_eq!(pre_encoded.faults, direct.faults, "{label}");
            assert_eq!(log.snapshot(), direct.faults, "{label}");
            // Left to factor the preconditioner itself, `solve_encoded`
            // decodes the matrix (checked) and lands on the same bits.
            let self_built = solver
                .solve_encoded(&encoded, &b, None, &FaultLog::new())
                .unwrap();
            assert_eq!(self_built.solution, direct.solution, "{label}");

            queue.submit(job);
            let queued = queue.drain().pop().unwrap();
            assert_eq!(queued.termination, Termination::Converged, "{label}");
            assert_eq!(queued.solution.as_ref(), Some(&direct.solution), "{label}");
            assert_eq!(
                queued.status.iterations, direct.status.iterations,
                "{label}"
            );
        }
    }
}

/// Regression: whole-matrix reads on the solve path (Jacobi's diagonal, the
/// Gershgorin bounds of a bounds-less Chebyshev solve, the plain copy the
/// queue factors a preconditioner from) used the unchecked decode, so one
/// *correctable* structure flip sent them indexing out of bounds.  They now
/// share the checked decode: the solve either absorbs the flip (and says so)
/// or stops with a fault — it never panics.
#[test]
fn structure_flips_never_panic_the_whole_matrix_reads() {
    let a = poisson_2d_padded(16, 16);
    let b = vec![1.0; a.rows()];
    let tiers = [
        StorageTier::Csr,
        StorageTier::Coo,
        StorageTier::BlockedCsr(3),
    ];
    // The last one is the paper's elements-only configuration: nothing
    // guards the row pointer, so the flip can only be caught as an offset
    // that leaves the element arrays.
    let elements_only = ProtectionConfig::elements_only(EccScheme::Crc32c);
    for protection in [
        ProtectionConfig::full(EccScheme::Secded64),
        ProtectionConfig::full(EccScheme::Crc32c),
        elements_only,
    ] {
        for tier in tiers {
            let label = format!("{:?}/{tier:?}", protection.elements);
            let mut corrupt = AnyProtectedMatrix::encode(&a, &protection, tier).unwrap();
            corrupt.inject_structure_bit_flip(40, 20);

            for solver in [
                Solver::jacobi().max_iterations(20_000).tolerance(1e-12),
                Solver::chebyshev().max_iterations(4_000).tolerance(1e-12),
            ] {
                let method = solver.method();
                match solver.solve_operator(&MatrixProtected::new(&corrupt), &b) {
                    Ok(outcome) => {
                        assert!(outcome.status.converged, "{label}/{method:?}");
                        assert!(outcome.faults.total_corrected() >= 1, "{label}/{method:?}");
                    }
                    // Chebyshev asks the backend for spectral bounds through
                    // a hint that has no fault context: a matrix that fails
                    // its checked decode yields none, and the solve is
                    // refused before it starts.
                    Err(SolverError::Unsupported(_))
                        if protection == elements_only && method == Method::Chebyshev => {}
                    Err(e) => {
                        assert!(
                            matches!(e, SolverError::Fault(_)),
                            "{label}/{method:?}: {e}"
                        );
                        if protection == elements_only && tier != StorageTier::Coo {
                            assert!(
                                matches!(
                                    e,
                                    SolverError::Fault(AbftError::OutOfRange {
                                        region: Region::RowPointer,
                                        ..
                                    })
                                ),
                                "{label}/{method:?}: {e}"
                            );
                        }
                    }
                }
            }

            let mut queue = SolveQueue::new(1);
            let id = queue.register(corrupt);
            queue.submit(
                JobSpec::new("tenant", id, b.clone())
                    .with_config(SolverConfig::new(2_000, 1e-12))
                    .with_preconditioner(PrecondKind::Ilu0, Reliability::Unreliable),
            );
            let job = queue.drain().pop().unwrap();
            match job.termination {
                Termination::Converged => assert!(job.faults.total_corrected() >= 1, "{label}"),
                other => assert_eq!(other, Termination::Fault, "{label}"),
            }
        }
    }
}
