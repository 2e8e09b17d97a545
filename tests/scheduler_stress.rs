//! Scheduler stress: protected CG under the sharded work-stealing pool.
//!
//! The runtime contract that makes work stealing safe to land is that
//! **scheduling is invisible in the results**: which lane executes which
//! chunk may vary freely, but every kernel folds its partials in a fixed
//! block order, so solver trajectories and fault accounting must be
//! identical for any worker count.  This test pins that end to end — a full
//! protected CG solve (parallel SpMV + parallel masked BLAS-1, including
//! the fused dot+AXPY and the new parallel XPAY) is run with worker limits
//! 1 through 8 (past the core count of any CI box, so announcements really
//! are stolen across shard queues) and every run must reproduce the
//! baseline bit for bit: solution storage, iteration count, residual
//! trajectory endpoints, and the complete fault-log snapshot.

use abft_suite::core::{
    AnyProtectedMatrix, EccScheme, FaultLogSnapshot, ProtectionConfig, StorageTier,
};
use abft_suite::prelude::{Crc32cBackend, Solver};
use abft_suite::solvers::backends::FullyProtected;
use abft_suite::sparse::builders::poisson_2d_padded;

/// One solve's comparable fingerprint.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    solution_bits: Vec<u64>,
    iterations: usize,
    initial_residual_bits: u64,
    final_residual_bits: u64,
    faults: FaultLogSnapshot,
}

#[test]
fn protected_cg_is_bitwise_reproducible_for_worker_counts_1_to_8() {
    // 128² = 16384 unknowns: above the parallel BLAS-1 threshold and large
    // enough for the SpMV to split into several stealable chunks.
    let a = poisson_2d_padded(128, 128);
    let b: Vec<f64> = (0..a.rows())
        .map(|i| 1.0 + (i % 11) as f64 * 0.375)
        .collect();

    for scheme in [
        EccScheme::None,
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        let cfg = ProtectionConfig::full(scheme)
            .with_parallel(true)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let protected = AnyProtectedMatrix::encode(&a, &cfg, StorageTier::Csr).unwrap();
        let mut baseline: Option<Fingerprint> = None;
        for workers in 1..=8usize {
            rayon::set_worker_limit(Some(workers));
            // A fresh operator per run: workspaces start cold every time, so
            // reuse effects cannot mask a scheduling dependence either.
            let op = FullyProtected::new(&protected);
            let outcome = Solver::cg()
                .max_iterations(25)
                .tolerance(0.0)
                .solve_operator(&op, &b)
                .unwrap_or_else(|e| panic!("{scheme:?} workers={workers}: {e}"));
            let fingerprint = Fingerprint {
                solution_bits: outcome.solution.iter().map(|v| v.to_bits()).collect(),
                iterations: outcome.status.iterations,
                initial_residual_bits: outcome.status.initial_residual.to_bits(),
                final_residual_bits: outcome.status.final_residual.to_bits(),
                faults: outcome.faults,
            };
            assert_eq!(
                fingerprint.faults.uncorrectable,
                [0, 0, 0],
                "{scheme:?} workers={workers}: clean data must stay clean"
            );
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(expected) => assert_eq!(
                    &fingerprint, expected,
                    "{scheme:?}: workers={workers} diverged from workers=1"
                ),
            }
        }
        rayon::set_worker_limit(None);
        // The protected schemes must actually have performed checks, or the
        // fault-accounting half of the comparison is vacuous.
        if scheme != EccScheme::None {
            let checks = baseline.unwrap().faults.checks;
            assert!(
                checks.iter().sum::<u64>() > 0,
                "{scheme:?}: no integrity checks recorded"
            );
        }
    }
}
