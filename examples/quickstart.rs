//! Quickstart: protect a sparse linear solve against memory bit flips.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small five-point-stencil system and solves it through the one
//! generic [`Solver`] builder in each protection mode — plain,
//! matrix-protected, and fully protected — then injects a bit flip into the
//! protected matrix and shows that the solve still produces the correct
//! answer while the fault log records the correction.

use abft_suite::prelude::*;
use abft_suite::solvers::backends::FullyProtected;
use abft_suite::sparse::builders::poisson_2d_padded;

fn main() {
    // 1. Build a sparse SPD system (a 64x64 Poisson operator, padded so every
    //    row stores at least four entries as the CRC32C scheme requires).
    let matrix = poisson_2d_padded(64, 64);
    let rhs: Vec<f64> = (0..matrix.rows())
        .map(|i| 1.0 + (i % 7) as f64 * 0.1)
        .collect();
    println!(
        "system: {} unknowns, {} non-zeros",
        matrix.rows(),
        matrix.nnz()
    );

    // 2. One builder serves every protection tier.  Baseline first:
    let solver = Solver::cg().max_iterations(2000).tolerance(1e-16);
    let plain = solver.solve(&matrix, &rhs).expect("plain solve");
    println!(
        "plain:         {} iterations, converged = {}",
        plain.status.iterations, plain.status.converged
    );

    // ... the same solve with the matrix protected (Figures 4-8):
    let matrix_protected = solver
        .protection(ProtectionConfig::matrix_only(EccScheme::Secded64))
        .solve(&matrix, &rhs)
        .expect("matrix-protected solve");
    println!(
        "matrix (SECDED): {} iterations, checks = {}",
        matrix_protected.status.iterations,
        matrix_protected.faults.checks.iter().sum::<u64>()
    );

    // ... and fully protected — matrix and every work vector (Figure 9):
    let config = ProtectionConfig::full(EccScheme::Secded64);
    let clean = solver
        .protection(config)
        .solve(&matrix, &rhs)
        .expect("fully protected solve");
    println!(
        "full (SECDED): {} iterations, converged = {}",
        clean.status.iterations, clean.status.converged
    );

    // 3. Now corrupt the protected matrix with a single bit flip (as a cosmic
    //    ray would) and solve again on the pre-built backend.
    let mut protected =
        AnyProtectedMatrix::encode(&matrix, &config, StorageTier::Csr).expect("encode matrix");
    protected.inject_value_bit_flip(1234, 51); // flip an exponent bit of value #1234
    let faulty = solver
        .solve_operator(&FullyProtected::new(&protected), &rhs)
        .expect("the flip is corrected on the fly");
    println!(
        "faulty solve:  {} iterations, corrected errors = {}",
        faulty.status.iterations,
        faulty.faults.total_corrected()
    );

    // 4. The two solutions are identical: the corruption never reached the
    //    arithmetic.
    let max_diff = clean
        .solution
        .iter()
        .zip(&faulty.solution)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |x_clean - x_faulty| = {max_diff:.3e}");
    assert_eq!(max_diff, 0.0);
    println!("=> the bit flip was detected, corrected and had zero effect on the answer");
}
