//! Solve a system loaded from a Matrix Market file on every storage tier.
//!
//! ```bash
//! cargo run --release --example matrix_file_solve
//! ```
//!
//! Streams the committed SPD `.mtx` fixture into a CSR operator, then runs
//! the same fully protected CG solve with the matrix encoded as protected
//! CSR, protected COO and ECC-aligned blocked CSR.  The storage tier is an
//! implementation detail behind the `ProtectedMatrix` trait: every tier
//! produces the bit-identical solution in the same number of iterations.
//! Finally a bit flip is injected into the COO tier's element storage to
//! show the per-element codewords correcting it mid-solve.

use abft_suite::prelude::*;
use abft_suite::solvers::backends::FullyProtected;
use abft_suite::sparse::builders::pad_rows_to_min_entries;
use abft_suite::sparse::load_matrix_market;

fn main() {
    // 1. Stream the fixture (stored as a symmetric lower triangle) into CSR
    //    and pad every row up to the CRC32C four-entry floor.
    let path = ["tests/fixtures/spd_symmetric.mtx"]
        .into_iter()
        .map(String::from)
        .chain(std::iter::once(format!(
            "{}/tests/fixtures/spd_symmetric.mtx",
            env!("CARGO_MANIFEST_DIR")
        )))
        .find(|p| std::path::Path::new(p).exists())
        .expect("fixture present");
    let matrix = pad_rows_to_min_entries(&load_matrix_market(&path).expect("parse fixture"), 4);
    println!(
        "loaded {path}: {} unknowns, {} non-zeros",
        matrix.rows(),
        matrix.nnz()
    );
    let rhs: Vec<f64> = (0..matrix.rows())
        .map(|i| 1.0 + (i % 3) as f64 * 0.5)
        .collect();

    // 2. One fully protected CG solve per storage tier, all described by
    //    the one Solver builder.
    let config = ProtectionConfig::full(EccScheme::Secded64);
    let spec = Solver::cg()
        .protection(config)
        .max_iterations(1000)
        .tolerance(1e-12);
    let mut outcomes = Vec::new();
    for tier in [
        StorageTier::Csr,
        StorageTier::Coo,
        StorageTier::BlockedCsr(3),
    ] {
        let outcome = spec
            .storage(tier)
            .solve(&matrix, &rhs)
            .expect("protected solve");
        println!(
            "{tier:?}: {} iterations, converged = {}, checks = {}",
            outcome.status.iterations,
            outcome.status.converged,
            outcome.faults.checks.iter().sum::<u64>()
        );
        outcomes.push(outcome);
    }

    // 3. The tier never changes the arithmetic: identical trajectories,
    //    bit-identical solutions.
    for outcome in &outcomes[1..] {
        assert_eq!(outcome.status.iterations, outcomes[0].status.iterations);
        assert_eq!(outcome.solution, outcomes[0].solution);
    }
    println!("=> all storage tiers produced the bit-identical solution");

    // 4. Flip a bit in the COO tier's element storage; the per-element
    //    SECDED codewords correct it on the fly.
    let mut protected =
        AnyProtectedMatrix::encode(&matrix, &config, StorageTier::Coo).expect("encode");
    protected.inject_value_bit_flip(7, 44);
    let faulty = Solver::cg()
        .max_iterations(1000)
        .tolerance(1e-12)
        .solve_operator(&FullyProtected::new(&protected), &rhs)
        .expect("flip corrected mid-solve");
    assert_eq!(faulty.solution, outcomes[0].solution);
    println!(
        "faulty COO solve: {} corrected errors, solution unchanged",
        faulty.faults.total_corrected()
    );
}
