//! Selective reliability: protect the outer iteration, let the inner
//! preconditioner run unchecked, and still never return a wrong answer.
//!
//! ```bash
//! cargo run --release --example selective_reliability
//! ```
//!
//! [`Solver::preconditioner`] attaches a preconditioner to a protected
//! solve and chooses its reliability tier: `Protected` (uniform) stores
//! the factors in SECDED-protected words (certified before every apply,
//! corrected in place), `Unreliable` (selective) stores plain `f64`s with **zero**
//! integrity checks and relies on the fully protected outer FT-PCG
//! iteration — a bounded-norm screen on each inner result plus the
//! recurrence running entirely in protected vectors — to own correctness.
//! Inner faults then cost *iterations*, never *answers*.
//!
//! The demo runs the clean comparison first, then injects high-exponent
//! bit flips into the unreliable factors and into the protected factors,
//! and shows the two failure modes: the selective tier converges anyway
//! (a few extra iterations, possibly a screened fallback), the uniform
//! tier corrects the flips in place and repeats the clean trajectory.

use abft_suite::core::{AnyProtectedMatrix, FaultLog, ProtectionConfig, StorageTier};
use abft_suite::prelude::*;
use abft_suite::solvers::Ilu0;
use abft_suite::sparse::builders::poisson_2d_padded;
use abft_suite::sparse::spmv::spmv_serial;

fn relative_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.rows()];
    spmv_serial(a, x, &mut ax);
    let resid: f64 = ax
        .iter()
        .zip(b)
        .map(|(p, q)| (q - p) * (q - p))
        .sum::<f64>();
    let norm: f64 = b.iter().map(|v| v * v).sum::<f64>();
    (resid / norm).sqrt()
}

fn main() {
    let matrix = poisson_2d_padded(48, 48);
    let rhs: Vec<f64> = (0..matrix.rows())
        .map(|i| 1.0 + (i % 7) as f64 * 0.25)
        .collect();
    let config = SolverConfig::new(2_000, 1e-15);
    println!(
        "system: {} unknowns, {} non-zeros\n",
        matrix.rows(),
        matrix.nnz()
    );

    // 1. One builder: same protected solve, three preconditioning
    //    choices.  Selective pays no integrity checks in the inner stage.
    let protection = ProtectionConfig::full(EccScheme::Secded64);
    let solver = Solver::cg().config(config).protection(protection);
    for (label, solver) in [
        ("no preconditioner", solver),
        (
            "ilu0, uniform   ",
            solver.preconditioner(PrecondKind::Ilu0, Reliability::Protected),
        ),
        (
            "ilu0, selective ",
            solver.preconditioner(PrecondKind::Ilu0, Reliability::Unreliable),
        ),
    ] {
        let outcome = solver.solve(&matrix, &rhs).expect(label);
        println!(
            "{label}: {:>4} iterations, converged = {}, rel. residual = {:.2e}",
            outcome.status.iterations,
            outcome.status.converged,
            relative_residual(&matrix, &outcome.solution, &rhs)
        );
    }

    // 2. Now corrupt the stored factors — persistent SDC in the inner
    //    stage, the case uniform reliability exists for.
    let protected =
        AnyProtectedMatrix::encode(&matrix, &protection, StorageTier::Csr).expect("encode");
    let flips: Vec<(usize, u32)> = (0..2).map(|i| (13 + i * 997, 52 + i as u32)).collect();

    let mut selective = Ilu0::new(
        &matrix,
        Reliability::Unreliable,
        EccScheme::Secded64,
        Crc32cBackend::Auto,
    )
    .expect("ilu0");
    let mut uniform = Ilu0::new(
        &matrix,
        Reliability::Protected,
        EccScheme::Secded64,
        Crc32cBackend::Auto,
    )
    .expect("ilu0");
    for &(k, bit) in &flips {
        selective.inject_factor_bit_flip(k % selective.factor_count(), bit);
        uniform.inject_factor_bit_flip(k % uniform.factor_count(), bit);
    }
    println!(
        "\ninjected {} high-exponent flips into each tier's stored factors",
        flips.len()
    );

    for (label, precond) in [("selective", &selective), ("uniform  ", &uniform)] {
        // The same driver on the pre-encoded matrix, with the (corrupted)
        // preconditioner handed in.
        let outcome = solver
            .solve_encoded(&protected, &rhs, Some(precond), &FaultLog::new())
            .expect("ft_pcg");
        let corrected = outcome.faults.total_corrected();
        let screened: u64 = outcome.faults.bounds_violations.iter().sum();
        println!(
            "{label}: {:>4} iterations, converged = {}, corrected = {corrected}, \
             screened = {screened}, rel. residual = {:.2e}",
            outcome.status.iterations,
            outcome.status.converged,
            relative_residual(&matrix, &outcome.solution, &rhs)
        );
    }
    println!(
        "\nselective: the corruption distorts the preconditioner, so the run \
         spends extra iterations\n(and the outer screen discards any inner \
         result whose norm blows past the bound) — but the\nprotected outer \
         recurrence certifies the answer.  uniform: every apply certifies the \
         factors\nfirst; the first one corrects the flips in place (corrected \
         = the flips, not flips × applies)\nand the trajectory is the clean one."
    );
}
