//! Block CG vs k independent CG runs, across every ECC scheme.
//!
//! The multi-RHS engine's promise is amortisation without approximation:
//! a width-k panel produces bitwise the answers of k standalone solves
//! while verifying each matrix codeword group once per panel instead of
//! once per right-hand side.  This test pins both halves on a system
//! whose dimension (15² = 225) is divisible by neither the SECDED128
//! codeword group (2) nor the CRC32C group (4), so the tail-group paths
//! are exercised for every scheme.

use abft_suite::core::{
    AnyProtectedMatrix, EccScheme, FaultLog, ProtectionConfig, Region, StorageTier,
};
use abft_suite::prelude::{SolverConfig, Termination};
use abft_suite::solvers::backends::FullyProtected;
use abft_suite::solvers::generic::{block_cg, cg};
use abft_suite::solvers::{FaultContext, LinearOperator, SolverVector};
use abft_suite::sparse::builders::poisson_2d_padded;

fn matrix_region_checks(snapshot: &abft_suite::core::FaultLogSnapshot) -> u64 {
    snapshot.checks[Region::CsrElements as usize] + snapshot.checks[Region::RowPointer as usize]
}

#[test]
fn block_cg_matches_independent_solves_and_amortises_matrix_checks() {
    // 225 unknowns: 225 % 2 == 1 and 225 % 4 == 1, so SECDED128 and
    // CRC32C both carry a partial trailing codeword group.
    let a = poisson_2d_padded(15, 15);
    let k = 3usize;
    let rhs: Vec<Vec<f64>> = (0..k)
        .map(|j| {
            (0..a.rows())
                .map(|i| 1.0 + ((i * (j + 2)) % 7) as f64 * 0.25)
                .collect()
        })
        .collect();
    let config = SolverConfig::new(500, 1e-15);

    for scheme in [
        EccScheme::None,
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        let protection = ProtectionConfig::full(scheme);
        let encoded = AnyProtectedMatrix::encode(&a, &protection, StorageTier::Csr).unwrap();

        // k standalone solves, each with its own operator and log.
        let mut solo_solutions = Vec::new();
        let mut solo_iterations = Vec::new();
        let mut solo_matrix_checks = Vec::new();
        for b in &rhs {
            let op = FullyProtected::new(&encoded);
            let log = FaultLog::new();
            let base = FaultContext::with_log(&log);
            let ctx = base.scoped_to(op.reduction_workspace());
            let bvec = op.vector_from(b);
            let (x, status) = cg(&op, &bvec, &config, &ctx).unwrap();
            assert!(status.converged, "{scheme:?}: solo solve must converge");
            solo_solutions.push(x.to_plain());
            solo_iterations.push(status.iterations);
            solo_matrix_checks.push(matrix_region_checks(&log.snapshot()));
        }

        // One width-k block solve with a single shared log.
        let op = FullyProtected::new(&encoded);
        let log = FaultLog::new();
        let base = FaultContext::with_log(&log);
        let ctx = base.scoped_to(op.reduction_workspace());
        let bvecs: Vec<_> = rhs.iter().map(|b| op.vector_from(b)).collect();
        let b_refs: Vec<_> = bvecs.iter().collect();
        let outcomes = block_cg(&op, &b_refs, &config, &ctx);
        let block_matrix_checks = matrix_region_checks(&log.snapshot());

        for (j, outcome) in outcomes.iter().enumerate() {
            assert_eq!(
                outcome.termination,
                Termination::Converged,
                "{scheme:?} column {j}"
            );
            assert_eq!(
                outcome.status.iterations, solo_iterations[j],
                "{scheme:?} column {j}: iteration count must match the solo solve"
            );
            let block_bits: Vec<u64> = outcome
                .solution
                .to_plain()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let solo_bits: Vec<u64> = solo_solutions[j].iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                block_bits, solo_bits,
                "{scheme:?} column {j}: block answer must be bitwise identical"
            );
        }

        // Matrix verification is paid once per panel iteration: the block
        // run's matrix-region checks equal the *longest* solo run's, not
        // the sum — so the per-RHS cost is ~1/k of a standalone solve.
        let longest = solo_iterations
            .iter()
            .enumerate()
            .max_by_key(|(_, it)| **it)
            .map(|(j, _)| j)
            .unwrap();
        assert_eq!(
            block_matrix_checks, solo_matrix_checks[longest],
            "{scheme:?}: block matrix checks must equal the longest solo run's"
        );
        if scheme != EccScheme::None {
            let total_solo: u64 = solo_matrix_checks.iter().sum();
            assert!(
                block_matrix_checks > 0,
                "{scheme:?}: matrix-check comparison is vacuous"
            );
            assert!(
                block_matrix_checks * 2 < total_solo,
                "{scheme:?}: a width-{k} panel should cost well under the {k} solo \
                 runs combined ({block_matrix_checks} vs {total_solo})"
            );
        }
    }
}
