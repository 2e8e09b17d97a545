//! # abft-bench — the experiment harness behind Figures 4–9
//!
//! This crate contains the machinery behind the `experiments` binary, which
//! prints the same overhead tables the paper plots.
//!
//! The measurement protocol mirrors the paper's: the workload is a TeaLeaf
//! heat-conduction solve (CG), the baseline is the unprotected build, and
//! every number reported is the runtime overhead of a protection
//! configuration relative to that baseline.  Because this reproduction runs
//! on a single CPU node, the paper's hardware platforms are replaced by
//! configurations (serial vs Rayon-parallel, software vs hardware CRC32C).

use abft_core::{EccScheme, ProtectionConfig};
use abft_ecc::Crc32cBackend;
use abft_faultsim::{Campaign, CampaignConfig, FaultOutcome, FaultTarget, StreamConfig};
use abft_solvers::Solver;
use abft_sparse::CsrMatrix;
use abft_tealeaf::assembly::{assemble_matrix, assemble_rhs, face_coefficients, Conductivity};
use abft_tealeaf::states::apply_states;
use abft_tealeaf::{Deck, Grid};
use std::time::Instant;

pub mod coverage;
pub mod matrix_file;

/// A TeaLeaf linear system (conduction matrix and right-hand side) for one
/// time-step of the standard benchmark deck.
#[derive(Debug, Clone)]
pub struct TeaLeafSystem {
    /// The five-point-stencil conduction operator.
    pub matrix: CsrMatrix,
    /// The right-hand side (cell energy density).
    pub rhs: Vec<f64>,
}

/// Assembles the TeaLeaf system for an `nx × ny` grid.
pub fn tealeaf_system(nx: usize, ny: usize) -> TeaLeafSystem {
    let deck = Deck::standard(nx, ny, 1);
    let grid = Grid::new(deck.x_cells, deck.y_cells, deck.x_max, deck.y_max);
    let mut density = vec![1.0; grid.cells()];
    let mut energy = vec![1.0; grid.cells()];
    apply_states(&grid, &deck.states, &mut density, &mut energy);
    let coeffs = face_coefficients(&grid, &density, Conductivity::Reciprocal);
    TeaLeafSystem {
        matrix: assemble_matrix(&grid, &coeffs, deck.dt_init),
        rhs: assemble_rhs(&density, &energy),
    }
}

/// Runs a CG solve of exactly `iterations` iterations (tolerance 0 disables
/// early exit) under `protection` and returns the wall time in seconds.
///
/// The unprotected configuration takes the plain baseline path — the same
/// code the paper's unmodified TeaLeaf would run.
pub fn time_cg(system: &TeaLeafSystem, protection: &ProtectionConfig, iterations: usize) -> f64 {
    let start = Instant::now();
    let outcome = Solver::cg()
        .max_iterations(iterations)
        .tolerance(0.0)
        .protection(*protection)
        .solve(&system.matrix, &system.rhs)
        .expect("solve must succeed on clean data");
    assert_eq!(outcome.status.iterations, iterations);
    // Black-boxed so the optimiser cannot elide the work.
    std::hint::black_box(outcome.solution);
    start.elapsed().as_secs_f64()
}

/// Runtime overhead of `protected` relative to `baseline`, in percent.
pub fn overhead_pct(baseline_seconds: f64, protected_seconds: f64) -> f64 {
    100.0 * (protected_seconds - baseline_seconds) / baseline_seconds
}

/// One row of an overhead table (one bar of a figure).
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Configuration label (e.g. "SECDED64" or "CRC32C (hw)").
    pub label: String,
    /// Absolute runtime in seconds.
    pub seconds: f64,
    /// Overhead relative to the unprotected baseline, in percent.
    pub overhead_pct: f64,
}

/// A complete table for one figure.
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Figure identifier, e.g. "Figure 4".
    pub figure: String,
    /// What the figure measures.
    pub title: String,
    /// Workload description (grid, iterations, execution mode).
    pub workload: String,
    /// Baseline runtime in seconds.
    pub baseline_seconds: f64,
    /// One row per protection configuration.
    pub rows: Vec<OverheadRow>,
}

impl FigureTable {
    /// Renders the table in a paper-like textual format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} — {}\n", self.figure, self.title));
        out.push_str(&format!("workload: {}\n", self.workload));
        out.push_str(&format!(
            "{:<28} {:>12} {:>12}\n",
            "configuration", "seconds", "overhead %"
        ));
        out.push_str(&format!(
            "{:<28} {:>12.4} {:>12}\n",
            "unprotected (baseline)", self.baseline_seconds, "0.0"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<28} {:>12.4} {:>12.1}\n",
                row.label, row.seconds, row.overhead_pct
            ));
        }
        out
    }
}

/// Measurement parameters shared by the figure generators.
#[derive(Debug, Clone, Copy)]
pub struct MeasurementConfig {
    /// Grid cells in x.
    pub nx: usize,
    /// Grid cells in y.
    pub ny: usize,
    /// CG iterations per timed solve.
    pub iterations: usize,
    /// Number of timed repetitions (the minimum is reported, which is the
    /// standard way to suppress scheduling noise for CPU-bound kernels).
    pub repeats: usize,
    /// Use the Rayon-parallel kernels.
    pub parallel: bool,
}

impl Default for MeasurementConfig {
    fn default() -> Self {
        MeasurementConfig {
            nx: 256,
            ny: 256,
            iterations: 50,
            repeats: 3,
            parallel: false,
        }
    }
}

impl MeasurementConfig {
    fn workload(&self) -> String {
        format!(
            "TeaLeaf {}x{} cells, {} CG iterations, {} kernels",
            self.nx,
            self.ny,
            self.iterations,
            if self.parallel { "parallel" } else { "serial" }
        )
    }
}

fn best_time(system: &TeaLeafSystem, protection: &ProtectionConfig, m: &MeasurementConfig) -> f64 {
    (0..m.repeats.max(1))
        .map(|_| time_cg(system, protection, m.iterations))
        .fold(f64::INFINITY, f64::min)
}

/// The scheme labels of the paper's figures, including the hardware /
/// software CRC32C split that stands in for the ISA-support comparison.
fn scheme_configs(base: impl Fn(EccScheme) -> ProtectionConfig) -> Vec<(String, ProtectionConfig)> {
    let mut configs = Vec::new();
    for scheme in EccScheme::ALL {
        if scheme == EccScheme::Crc32c {
            configs.push((
                "CRC32C (sw)".to_string(),
                base(scheme).with_crc_backend(Crc32cBackend::SlicingBy16),
            ));
            if abft_ecc::crc32c::hardware_available() {
                configs.push((
                    "CRC32C (hw)".to_string(),
                    base(scheme).with_crc_backend(Crc32cBackend::Hardware),
                ));
            }
        } else {
            configs.push((scheme.label().to_string(), base(scheme)));
        }
    }
    configs
}

fn figure_table(
    figure: &str,
    title: &str,
    m: &MeasurementConfig,
    configs: Vec<(String, ProtectionConfig)>,
) -> FigureTable {
    let system = tealeaf_system(m.nx, m.ny);
    let baseline_cfg = ProtectionConfig::unprotected().with_parallel(m.parallel);
    let baseline = best_time(&system, &baseline_cfg, m);
    let rows = configs
        .into_iter()
        .map(|(label, cfg)| {
            let seconds = best_time(&system, &cfg.with_parallel(m.parallel), m);
            OverheadRow {
                label,
                seconds,
                overhead_pct: overhead_pct(baseline, seconds),
            }
        })
        .collect();
    FigureTable {
        figure: figure.to_string(),
        title: title.to_string(),
        workload: m.workload(),
        baseline_seconds: baseline,
        rows,
    }
}

/// Figure 4: overhead of protecting the CSR elements (values + column
/// indices) with each scheme.
pub fn figure4(m: &MeasurementConfig) -> FigureTable {
    figure_table(
        "Figure 4",
        "ABFT overhead for protecting CSR elements",
        m,
        scheme_configs(ProtectionConfig::elements_only),
    )
}

/// Figure 5: overhead of protecting the row-pointer vector with each scheme.
pub fn figure5(m: &MeasurementConfig) -> FigureTable {
    figure_table(
        "Figure 5",
        "ABFT overhead for protecting the CSR row-pointer vector",
        m,
        scheme_configs(ProtectionConfig::row_pointer_only),
    )
}

/// Figures 6–8: overhead of protecting the whole CSR matrix with one scheme
/// while sweeping the integrity-check interval.
pub fn figure_interval_sweep(
    figure: &str,
    scheme: EccScheme,
    backend: Crc32cBackend,
    intervals: &[u32],
    m: &MeasurementConfig,
) -> FigureTable {
    let configs = intervals
        .iter()
        .map(|&interval| {
            (
                format!("{} every {} iter", scheme.label(), interval),
                ProtectionConfig::matrix_only(scheme)
                    .with_check_interval(interval)
                    .with_crc_backend(backend),
            )
        })
        .collect();
    figure_table(
        figure,
        &format!(
            "Whole-matrix protection with {} vs check interval",
            scheme.label()
        ),
        m,
        configs,
    )
}

/// Figure 6: SED full-matrix protection vs check interval.
pub fn figure6(m: &MeasurementConfig, intervals: &[u32]) -> FigureTable {
    figure_interval_sweep(
        "Figure 6",
        EccScheme::Sed,
        Crc32cBackend::Hardware,
        intervals,
        m,
    )
}

/// Figure 7: SECDED64 full-matrix protection vs check interval.
pub fn figure7(m: &MeasurementConfig, intervals: &[u32]) -> FigureTable {
    figure_interval_sweep(
        "Figure 7",
        EccScheme::Secded64,
        Crc32cBackend::Hardware,
        intervals,
        m,
    )
}

/// Figure 8: CRC32C full-matrix protection vs check interval (software CRC,
/// matching the consumer-GPU configuration of the paper).
pub fn figure8(m: &MeasurementConfig, intervals: &[u32]) -> FigureTable {
    figure_interval_sweep(
        "Figure 8",
        EccScheme::Crc32c,
        Crc32cBackend::SlicingBy16,
        intervals,
        m,
    )
}

/// Figure 9: overhead of protecting the dense floating-point vectors.
pub fn figure9(m: &MeasurementConfig) -> FigureTable {
    figure_table(
        "Figure 9",
        "ABFT overhead for protecting the dense floating-point vectors",
        m,
        scheme_configs(ProtectionConfig::vectors_only),
    )
}

/// The combined experiment of §VII-B / §VIII: full protection (matrix +
/// vectors) with each scheme.
pub fn combined_full_protection(m: &MeasurementConfig) -> FigureTable {
    figure_table(
        "Combined",
        "Full protection of the CSR matrix and all dense vectors",
        m,
        scheme_configs(ProtectionConfig::full),
    )
}

/// One row of the convergence-impact study (§VI-B).
#[derive(Debug, Clone)]
pub struct ConvergenceRow {
    /// Scheme label.
    pub scheme: String,
    /// Iterations used by the protected run.
    pub iterations: usize,
    /// Iterations used by the unprotected baseline.
    pub baseline_iterations: usize,
    /// Relative iteration increase in percent.
    pub iteration_increase_pct: f64,
    /// Relative difference of the solution norm vs the baseline, in percent.
    pub solution_norm_difference_pct: f64,
}

/// Reproduces the §VI-B claim: full protection changes the converged solution
/// by a negligible amount and the iteration count by less than ~1 %.
pub fn convergence_impact(nx: usize, ny: usize) -> Vec<ConvergenceRow> {
    let system = tealeaf_system(nx, ny);
    let solver = Solver::cg().max_iterations(5000).tolerance(1e-15);
    let reference = solver
        .solve(&system.matrix, &system.rhs)
        .expect("plain reference solve");
    let ref_norm: f64 = reference.solution.iter().map(|v| v * v).sum::<f64>().sqrt();
    EccScheme::ALL
        .iter()
        .map(|&scheme| {
            let protection =
                ProtectionConfig::full(scheme).with_crc_backend(Crc32cBackend::Hardware);
            let result = solver
                .protection(protection)
                .solve(&system.matrix, &system.rhs)
                .expect("protected solve");
            let norm: f64 = result.solution.iter().map(|v| v * v).sum::<f64>().sqrt();
            ConvergenceRow {
                scheme: scheme.label().to_string(),
                iterations: result.status.iterations,
                baseline_iterations: reference.status.iterations,
                iteration_increase_pct: 100.0
                    * (result.status.iterations as f64 - reference.status.iterations as f64)
                    / reference.status.iterations as f64,
                solution_norm_difference_pct: 100.0 * ((norm - ref_norm) / ref_norm).abs(),
            }
        })
        .collect()
}

/// One row of the fault-injection summary table.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Scheme label.
    pub scheme: String,
    /// Target region label.
    pub target: String,
    /// Trials run.
    pub trials: usize,
    /// Percentage of faults corrected.
    pub corrected_pct: f64,
    /// Percentage of faults rebuilt from the XOR parity tier.
    pub rebuilt_pct: f64,
    /// Percentage of faults detected but uncorrectable by either tier.
    pub detected_pct: f64,
    /// Percentage of faults caught by bounds checks.
    pub bounds_pct: f64,
    /// Percentage of faults with no effect.
    pub masked_pct: f64,
    /// Percentage of silent data corruptions.
    pub sdc_pct: f64,
}

/// Runs single-bit-flip campaigns for every scheme and region.
pub fn fault_campaign_summary(trials: usize, seed: u64) -> Vec<CampaignRow> {
    let mut rows = Vec::new();
    for scheme in [
        EccScheme::None,
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        for target in FaultTarget::ALL {
            // Injecting into a protected vector only makes sense when the
            // vectors are protected.
            if scheme == EccScheme::None && target == FaultTarget::DenseVector {
                continue;
            }
            let config = CampaignConfig {
                nx: 16,
                ny: 16,
                trials,
                flips_per_trial: 1,
                protection: if scheme == EccScheme::None {
                    ProtectionConfig::unprotected()
                } else {
                    ProtectionConfig::full(scheme).with_crc_backend(Crc32cBackend::Hardware)
                },
                target,
                seed,
                ..CampaignConfig::default()
            };
            let stats = Campaign::new(config)
                .run_streaming(&StreamConfig::default())
                .stats;
            rows.push(CampaignRow {
                scheme: scheme.label().to_string(),
                target: target.label().to_string(),
                trials: stats.trials(),
                corrected_pct: 100.0 * stats.rate(FaultOutcome::Corrected),
                rebuilt_pct: 100.0 * stats.rate(FaultOutcome::DetectedRebuilt),
                detected_pct: 100.0 * stats.rate(FaultOutcome::DetectedAborted),
                bounds_pct: 100.0 * stats.rate(FaultOutcome::BoundsCaught),
                masked_pct: 100.0 * stats.rate(FaultOutcome::Masked),
                sdc_pct: 100.0 * stats.rate(FaultOutcome::SilentCorruption),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_assembly_has_five_entries_per_row() {
        let system = tealeaf_system(12, 10);
        assert_eq!(system.matrix.rows(), 120);
        assert_eq!(system.rhs.len(), 120);
        for row in 0..system.matrix.rows() {
            assert_eq!(system.matrix.row_range(row).len(), 5);
        }
    }

    #[test]
    fn overhead_computation() {
        assert!((overhead_pct(2.0, 2.5) - 25.0).abs() < 1e-12);
        assert!((overhead_pct(2.0, 2.0)).abs() < 1e-12);
    }

    #[test]
    fn timing_runs_for_protected_and_unprotected() {
        let system = tealeaf_system(16, 16);
        let t0 = time_cg(&system, &ProtectionConfig::unprotected(), 5);
        let t1 = time_cg(&system, &ProtectionConfig::full(EccScheme::Secded64), 5);
        assert!(t0 > 0.0 && t1 > 0.0);
    }

    #[test]
    fn small_figure_tables_render() {
        let m = MeasurementConfig {
            nx: 16,
            ny: 16,
            iterations: 5,
            repeats: 1,
            parallel: false,
        };
        let table = figure4(&m);
        assert!(table.rows.len() >= 4);
        let text = table.render();
        assert!(text.contains("Figure 4"));
        assert!(text.contains("SECDED64"));
        let sweep = figure6(&m, &[1, 4]);
        assert_eq!(sweep.rows.len(), 2);
        assert!(sweep.render().contains("SED every 4 iter"));
    }

    #[test]
    fn convergence_impact_is_tiny() {
        let rows = convergence_impact(16, 16);
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(row.iteration_increase_pct.abs() <= 5.0, "{row:?}");
            assert!(row.solution_norm_difference_pct < 1e-6, "{row:?}");
        }
    }
}
