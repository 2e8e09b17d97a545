//! End-to-end integration tests spanning every crate: TeaLeaf assembly →
//! protected structures → CG solve → fault log, with and without injected
//! faults.

use abft_suite::core::spmv::protected_spmv;
use abft_suite::prelude::*;
use abft_suite::solvers::backends::MatrixProtected;
use abft_suite::tealeaf::assembly::{
    assemble_matrix, assemble_rhs, face_coefficients, Conductivity,
};
use abft_suite::tealeaf::states::apply_states;
use abft_suite::tealeaf::{Deck, Grid};

fn tealeaf_system(nx: usize, ny: usize) -> (abft_suite::sparse::CsrMatrix, Vec<f64>) {
    let deck = Deck::standard(nx, ny, 1);
    let grid = Grid::new(deck.x_cells, deck.y_cells, deck.x_max, deck.y_max);
    let mut density = vec![1.0; grid.cells()];
    let mut energy = vec![1.0; grid.cells()];
    apply_states(&grid, &deck.states, &mut density, &mut energy);
    let coeffs = face_coefficients(&grid, &density, Conductivity::Reciprocal);
    (
        assemble_matrix(&grid, &coeffs, deck.dt_init),
        assemble_rhs(&density, &energy),
    )
}

#[test]
fn every_scheme_solves_the_tealeaf_system_cleanly() {
    let (matrix, rhs) = tealeaf_system(24, 18);
    let solver = Solver::cg().max_iterations(2000).tolerance(1e-16);
    let baseline = solver.solve(&matrix, &rhs).unwrap();
    for scheme in EccScheme::ALL {
        for protection in [
            ProtectionConfig::elements_only(scheme),
            ProtectionConfig::row_pointer_only(scheme),
            ProtectionConfig::matrix_only(scheme),
            ProtectionConfig::vectors_only(scheme),
            ProtectionConfig::full(scheme),
        ] {
            let result = solver.protection(protection).solve(&matrix, &rhs).unwrap();
            assert!(result.status.converged, "{}", protection.describe());
            assert_eq!(result.faults.total_uncorrectable(), 0);
            let norm: f64 = baseline.solution.iter().map(|v| v * v).sum::<f64>().sqrt();
            let diff: f64 = result
                .solution
                .iter()
                .zip(&baseline.solution)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(
                diff / norm < 1e-8,
                "{}: relative difference {}",
                protection.describe(),
                diff / norm
            );
        }
    }
}

#[test]
fn parallel_and_serial_protected_solves_agree() {
    let (matrix, rhs) = tealeaf_system(20, 20);
    let solver = Solver::cg().max_iterations(2000).tolerance(1e-16);
    for scheme in [EccScheme::Sed, EccScheme::Secded64, EccScheme::Crc32c] {
        let serial = solver
            .protection(ProtectionConfig::matrix_only(scheme))
            .solve(&matrix, &rhs)
            .unwrap();
        let parallel = solver
            .protection(ProtectionConfig::matrix_only(scheme).with_parallel(true))
            .solve(&matrix, &rhs)
            .unwrap();
        // The parallel dot products reduce in a different order, so the
        // trajectories may differ in the last few ulps; iterations and the
        // solution must still agree to tight tolerance.
        assert!(
            (serial.status.iterations as i64 - parallel.status.iterations as i64).abs() <= 1,
            "{scheme:?}"
        );
        for (a, b) in serial.solution.iter().zip(&parallel.solution) {
            assert!(
                (a - b).abs() <= 1e-10 * a.abs().max(1.0),
                "{scheme:?}: serial {a} vs parallel {b}"
            );
        }
    }
}

#[test]
fn injected_fault_mid_pipeline_is_absorbed() {
    let (matrix, rhs) = tealeaf_system(16, 16);
    let protection = ProtectionConfig::full(EccScheme::Crc32c);
    let solver = Solver::cg().max_iterations(2000).tolerance(1e-16);
    let clean = solver.protection(protection).solve(&matrix, &rhs).unwrap();

    let log = FaultLog::new();
    let mut protected = AnyProtectedMatrix::encode(&matrix, &protection, StorageTier::Csr).unwrap();
    // Three independent faults in three different regions/rows.
    protected.inject_value_bit_flip(7, 52);
    protected.inject_col_bit_flip(333, 12);
    protected.inject_structure_bit_flip(40, 9);
    let faulty = solver
        .solve_operator(&MatrixProtected::new(&protected), &rhs)
        .unwrap();
    log.absorb(&faulty.faults);
    assert!(faulty.faults.total_corrected() >= 3);
    // Matrix protection never perturbs values, so the trajectories agree to
    // round-off of the masked RHS used in the fully protected clean run.
    let norm: f64 = clean.solution.iter().map(|v| v * v).sum::<f64>().sqrt();
    let diff: f64 = faulty
        .solution
        .iter()
        .zip(&clean.solution)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    assert!(diff / norm < 1e-9);

    // After scrubbing, the matrix is bit-identical to a fresh encode.
    let repaired = protected.scrub(&log).unwrap();
    assert!(repaired >= 3);
    assert_eq!(protected.to_csr(), matrix);
}

#[test]
fn protected_spmv_with_protected_vectors_is_consistent() {
    let (matrix, rhs) = tealeaf_system(12, 12);
    for scheme in EccScheme::ALL {
        let protection = ProtectionConfig::full(scheme);
        let a = ProtectedCsr::from_csr(&matrix, &protection).unwrap();
        let mut x = ProtectedVector::from_slice(&rhs, scheme, protection.crc_backend);
        let mut y = ProtectedVector::zeros(matrix.rows(), scheme, protection.crc_backend);
        let log = FaultLog::new();
        let mut ws = abft_suite::core::SpmvWorkspace::new();
        protected_spmv(&a, &mut x, &mut y, 0, &log, &mut ws).unwrap();

        // Reference with the masked input (what the protected kernel computes with).
        let x_masked: Vec<f64> = (0..x.len()).map(|i| x.get(i)).collect();
        let mut reference = vec![0.0; matrix.rows()];
        abft_suite::sparse::spmv::spmv_serial(&matrix, &x_masked, &mut reference);
        for (row, expect) in reference.iter().enumerate() {
            let got = y.get(row);
            assert!(
                (got - expect).abs() <= 1e-10 + 1e-12 * expect.abs(),
                "{scheme:?} row {row}"
            );
        }
    }
}

#[test]
fn whole_simulation_with_faults_reports_them_per_step() {
    // Run the mini-app protected; no faults are injected here, but the per-
    // step reports must expose the fault-log plumbing end to end.
    let mut deck = Deck::standard(20, 20, 3);
    deck.eps = 1e-14;
    let report = Simulation::new(deck)
        .with_protection(ProtectionConfig::full(EccScheme::Secded64))
        .run()
        .unwrap();
    assert_eq!(report.steps.len(), 3);
    for step in &report.steps {
        assert!(step.converged);
        assert!(step.solve_seconds > 0.0);
        assert_eq!(step.faults.total_uncorrectable(), 0);
        // Checks were actually performed.
        assert!(step.faults.checks.iter().sum::<u64>() > 0);
    }
    assert_eq!(report.total_corrected(), 0);
}
