//! The time-step driver.
//!
//! [`Simulation`] owns the grid and fields, assembles the conduction matrix
//! at the start of every time-step (as TeaLeaf does), runs the configured
//! solver under the configured [`ProtectionConfig`], and updates the energy
//! field from the solution.  Every step produces a [`StepReport`] with wall
//! times, iteration counts and the fault-log snapshot — the raw material of
//! every overhead figure in the paper.
//!
//! The solver × protection dispatch is a single call into the generic
//! [`Solver`] builder: the [`ProtectionConfig`] is handed over as is and
//! slid underneath whichever method the deck selects, so every solver (CG,
//! Jacobi, Chebyshev, PPCG) runs in every protection mode.

use crate::assembly::{
    assemble_matrix, assemble_rhs, energy_from_u, face_coefficients, Conductivity,
};
use crate::deck::{Deck, SolverKind};
use crate::grid::Grid;
use crate::states::apply_states;
use crate::summary::FieldSummary;
use abft_core::{FaultLogSnapshot, ProtectionConfig};
use abft_solvers::{Method, Solver, SolverConfig, SolverError};
use abft_sparse::CsrMatrix;
use std::time::Instant;

/// Per-time-step results.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Zero-based step index.
    pub step: usize,
    /// Solver iterations used by the implicit solve.
    pub iterations: usize,
    /// Whether the solver reached its tolerance.
    pub converged: bool,
    /// Wall time spent assembling the matrix and right-hand side.
    pub assembly_seconds: f64,
    /// Wall time spent in the solver (the quantity the paper's overhead
    /// figures are built from).
    pub solve_seconds: f64,
    /// Integrity-check activity during the step.
    pub faults: FaultLogSnapshot,
    /// Field summary after the step.
    pub summary: FieldSummary,
}

/// Whole-run results.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// One report per time-step.
    pub steps: Vec<StepReport>,
    /// Field summary after the last step.
    pub final_summary: FieldSummary,
}

impl RunReport {
    /// Total solver wall time across all steps.
    pub fn total_solve_seconds(&self) -> f64 {
        self.steps.iter().map(|s| s.solve_seconds).sum()
    }

    /// Total solver iterations across all steps.
    pub fn total_iterations(&self) -> usize {
        self.steps.iter().map(|s| s.iterations).sum()
    }

    /// Total corrected errors observed across all steps.
    pub fn total_corrected(&self) -> u64 {
        self.steps.iter().map(|s| s.faults.total_corrected()).sum()
    }
}

/// A TeaLeaf-style heat-conduction simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    deck: Deck,
    grid: Grid,
    density: Vec<f64>,
    energy: Vec<f64>,
    protection: ProtectionConfig,
    conductivity: Conductivity,
}

impl Simulation {
    /// Builds the simulation from a deck, applying the initial states.
    pub fn new(deck: Deck) -> Self {
        let grid = Grid::new(deck.x_cells, deck.y_cells, deck.x_max, deck.y_max);
        let mut density = vec![1.0; grid.cells()];
        let mut energy = vec![1.0; grid.cells()];
        apply_states(&grid, &deck.states, &mut density, &mut energy);
        Simulation {
            deck,
            grid,
            density,
            energy,
            protection: ProtectionConfig::unprotected(),
            conductivity: Conductivity::Reciprocal,
        }
    }

    /// Selects the ABFT protection configuration for subsequent steps.
    pub fn with_protection(mut self, protection: ProtectionConfig) -> Self {
        self.protection = protection;
        self
    }

    /// Selects how conductivity is derived from density.
    pub fn with_conductivity(mut self, conductivity: Conductivity) -> Self {
        self.conductivity = conductivity;
        self
    }

    /// The grid geometry.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The input deck.
    pub fn deck(&self) -> &Deck {
        &self.deck
    }

    /// The current density field.
    pub fn density(&self) -> &[f64] {
        &self.density
    }

    /// The current specific-energy field.
    pub fn energy(&self) -> &[f64] {
        &self.energy
    }

    /// The active protection configuration.
    pub fn protection(&self) -> &ProtectionConfig {
        &self.protection
    }

    /// Field summary of the current state.
    pub fn summary(&self) -> FieldSummary {
        FieldSummary::compute(&self.grid, &self.density, &self.energy)
    }

    /// The generic solver this deck and protection configuration select.
    fn solver(&self) -> Solver {
        let method = match self.deck.solver {
            SolverKind::Cg => Method::Cg,
            SolverKind::Jacobi => Method::Jacobi,
            SolverKind::Chebyshev => Method::Chebyshev,
            SolverKind::Ppcg => Method::Ppcg,
        };
        Solver::new(method)
            .config(SolverConfig::new(self.deck.max_iters, self.deck.eps))
            .protection(self.protection)
    }

    /// Assembles the current step's linear system: face coefficients from
    /// the density, the conduction matrix, and the right-hand side.
    pub fn assemble(&self) -> (CsrMatrix, Vec<f64>) {
        let coeffs = face_coefficients(&self.grid, &self.density, self.conductivity);
        (
            assemble_matrix(&self.grid, &coeffs, self.deck.dt_init),
            assemble_rhs(&self.density, &self.energy),
        )
    }

    /// Advances the simulation by one time-step.
    pub fn step(&mut self, step_index: usize) -> Result<StepReport, SolverError> {
        let assembly_start = Instant::now();
        let (matrix, rhs) = self.assemble();
        let assembly_seconds = assembly_start.elapsed().as_secs_f64();

        let solve_start = Instant::now();
        let outcome = self.solver().solve(&matrix, &rhs)?;
        let solve_seconds = solve_start.elapsed().as_secs_f64();

        self.energy = energy_from_u(&outcome.solution, &self.density);
        Ok(StepReport {
            step: step_index,
            iterations: outcome.status.iterations,
            converged: outcome.status.converged,
            assembly_seconds,
            solve_seconds,
            faults: outcome.faults,
            summary: self.summary(),
        })
    }

    /// Runs the deck's configured number of time-steps.
    pub fn run(&mut self) -> Result<RunReport, SolverError> {
        let mut steps = Vec::with_capacity(self.deck.end_step);
        for step_index in 0..self.deck.end_step {
            steps.push(self.step(step_index)?);
        }
        Ok(RunReport {
            final_summary: self.summary(),
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abft_core::EccScheme;
    use abft_ecc::Crc32cBackend;

    fn small_deck(solver: SolverKind) -> Deck {
        let mut deck = Deck::standard(16, 16, 2);
        deck.solver = solver;
        deck.max_iters = 2000;
        deck.eps = 1e-14;
        deck
    }

    #[test]
    fn unprotected_cg_run_conserves_energy() {
        let mut sim = Simulation::new(small_deck(SolverKind::Cg));
        let before = sim.summary();
        let report = sim.run().unwrap();
        assert_eq!(report.steps.len(), 2);
        assert!(report.steps.iter().all(|s| s.converged));
        assert!(report.total_iterations() > 0);
        // Diffusion with insulated boundaries conserves total internal energy.
        let after = report.final_summary;
        assert!(
            (after.internal_energy - before.internal_energy).abs() / before.internal_energy < 1e-6
        );
        // Heat flows: the field summary changes in detail but mass is constant.
        assert!((after.mass - before.mass).abs() < 1e-9);
    }

    #[test]
    fn protected_runs_match_unprotected_within_masking_noise() {
        let baseline = Simulation::new(small_deck(SolverKind::Cg)).run().unwrap();
        // CRC32C once per kernel tier: a software backend loops per
        // codeword, `Auto` takes the multi-stream kernels where the CPU has
        // the instruction.
        let cases = EccScheme::ALL
            .map(|scheme| (scheme, Crc32cBackend::SlicingBy16))
            .into_iter()
            .chain([(EccScheme::Crc32c, Crc32cBackend::Auto)]);
        for (scheme, backend) in cases {
            let protection = ProtectionConfig::full(scheme).with_crc_backend(backend);
            let report = Simulation::new(small_deck(SolverKind::Cg))
                .with_protection(protection)
                .run()
                .unwrap();
            let diff = report
                .final_summary
                .max_relative_difference(&baseline.final_summary);
            // §VI-B: the converged answer stays within a tiny relative error
            // of the unprotected run (the paper quotes 2×10⁻¹¹ %).
            assert!(diff < 1e-9, "{scheme:?}: {diff}");
            // Iteration increase bounded (paper: < 1 %; allow a little slack
            // on this much smaller grid).
            let extra = report.total_iterations() as f64 / baseline.total_iterations() as f64;
            assert!(extra <= 1.05, "{scheme:?}: {extra}");
            assert_eq!(report.total_corrected(), 0);
        }
    }

    #[test]
    fn matrix_only_protection_is_bit_identical_to_baseline() {
        let baseline = Simulation::new(small_deck(SolverKind::Cg)).run().unwrap();
        let protection = ProtectionConfig::matrix_only(EccScheme::Secded64)
            .with_check_interval(8)
            .with_crc_backend(Crc32cBackend::SlicingBy16);
        let report = Simulation::new(small_deck(SolverKind::Cg))
            .with_protection(protection)
            .run()
            .unwrap();
        assert_eq!(
            report
                .final_summary
                .max_relative_difference(&baseline.final_summary),
            0.0
        );
        assert_eq!(report.total_iterations(), baseline.total_iterations());
    }

    #[test]
    fn other_solvers_run() {
        for solver in [SolverKind::Jacobi, SolverKind::Chebyshev, SolverKind::Ppcg] {
            let mut deck = small_deck(solver);
            deck.end_step = 1;
            deck.max_iters = 20_000;
            let report = Simulation::new(deck).run().unwrap();
            assert!(report.steps[0].converged, "{solver:?}");
        }
    }

    #[test]
    fn protected_jacobi_runs() {
        let mut deck = small_deck(SolverKind::Jacobi);
        deck.end_step = 1;
        deck.max_iters = 20_000;
        let report = Simulation::new(deck)
            .with_protection(
                ProtectionConfig::matrix_only(EccScheme::Sed)
                    .with_crc_backend(Crc32cBackend::SlicingBy16),
            )
            .run()
            .unwrap();
        assert!(report.steps[0].converged);
    }

    /// The redesign's headline: the solver × protection matrix is complete.
    /// Chebyshev and PPCG — previously rejected under protection — now run
    /// in both protected tiers and reproduce the unprotected physics.
    #[test]
    fn protected_chebyshev_and_ppcg_run_in_every_tier() {
        for solver in [SolverKind::Chebyshev, SolverKind::Ppcg] {
            let mut deck = small_deck(solver);
            deck.end_step = 1;
            deck.max_iters = 20_000;
            let baseline = Simulation::new(deck.clone()).run().unwrap();
            for protection in [
                ProtectionConfig::matrix_only(EccScheme::Secded64)
                    .with_crc_backend(Crc32cBackend::SlicingBy16),
                ProtectionConfig::full(EccScheme::Secded64)
                    .with_crc_backend(Crc32cBackend::SlicingBy16),
            ] {
                let report = Simulation::new(deck.clone())
                    .with_protection(protection)
                    .run()
                    .unwrap();
                assert!(report.steps[0].converged, "{solver:?}");
                let diff = report
                    .final_summary
                    .max_relative_difference(&baseline.final_summary);
                assert!(diff < 1e-9, "{solver:?}: drifted by {diff}");
                // The protected run actually performed integrity checks.
                assert!(report.steps[0].faults.checks.iter().sum::<u64>() > 0);
            }
        }
    }

    #[test]
    fn system_assembly_has_five_entries_per_row() {
        let (matrix, rhs) = Simulation::new(Deck::standard(12, 10, 1)).assemble();
        assert_eq!(matrix.rows(), 120);
        assert_eq!(rhs.len(), 120);
        for row in 0..matrix.rows() {
            assert_eq!(matrix.row_range(row).len(), 5);
        }
    }

    #[test]
    fn accessors() {
        let sim =
            Simulation::new(small_deck(SolverKind::Cg)).with_conductivity(Conductivity::Density);
        assert_eq!(sim.grid().cells(), 256);
        assert_eq!(sim.deck().x_cells, 16);
        assert_eq!(sim.density().len(), 256);
        assert_eq!(sim.energy().len(), 256);
        assert!(sim.protection().is_unprotected());
    }
}
