//! `experiments --matrix-file` — protected kernels on an arbitrary Matrix
//! Market file.
//!
//! The figure tables all run the paper's TeaLeaf operator; this mode points
//! the same protected machinery at any `.mtx` file instead.  It times the
//! protected SpMV for every element scheme on each storage tier (CSR, COO
//! and blocked CSR), reporting the overhead relative to the unprotected CSR
//! kernel, and — when the operator is square and symmetric — runs a
//! matrix-protected CG solve per tier to show that the storage tier changes
//! neither the iteration count nor the answer.

use abft_core::{
    AnyProtectedMatrix, EccScheme, FaultLog, ProtectedMatrix, ProtectionConfig, SpmvWorkspace,
    StorageTier,
};
use abft_ecc::Crc32cBackend;
use abft_faultsim::json::Json;
use abft_solvers::Solver;
use abft_sparse::builders::pad_rows_to_min_entries;
use abft_sparse::load_matrix_market;
use std::time::Instant;

/// Configuration of one `--matrix-file` run.
#[derive(Debug, Clone)]
pub struct MatrixFileConfig {
    /// Path of the Matrix Market file.
    pub path: String,
    /// Block count of the blocked-CSR tier (`--num-blocks`).
    pub num_blocks: usize,
    /// SpMV applications per timed repeat.
    pub iters: usize,
    /// Timed repeats; the minimum is reported.
    pub repeats: usize,
    /// Use the Rayon-parallel kernels.
    pub parallel: bool,
}

/// One timed SpMV configuration.
#[derive(Debug, Clone)]
pub struct MatrixFileSpmvRow {
    /// Storage-tier label (`csr`, `coo`, `blocked(B)`).
    pub tier: String,
    /// Element/row-pointer protection scheme label.
    pub scheme: String,
    /// Mean wall time of one SpMV application, in nanoseconds.
    pub mean_ns_per_iter: f64,
    /// Overhead vs the unprotected CSR kernel of the same run, in percent.
    pub overhead_pct: f64,
}

/// One per-tier CG solve (symmetric operators only).
#[derive(Debug, Clone)]
pub struct MatrixFileSolveRow {
    /// Storage-tier label.
    pub tier: String,
    /// CG iterations to convergence.
    pub iterations: usize,
    /// Whether the solve converged.
    pub converged: bool,
    /// Matrix codeword checks the solve performed.
    pub checks: u64,
}

/// Everything one `--matrix-file` run measured.
#[derive(Debug, Clone)]
pub struct MatrixFileReport {
    /// Source path.
    pub path: String,
    /// Rows of the (padded) operator.
    pub rows: usize,
    /// Columns of the operator.
    pub cols: usize,
    /// Non-zeros after CRC-floor padding.
    pub nnz: usize,
    /// Non-zeros as stored in the file.
    pub file_nnz: usize,
    /// Timed SpMV rows.
    pub spmv: Vec<MatrixFileSpmvRow>,
    /// Per-tier CG solves; empty when the operator is not symmetric.
    pub solves: Vec<MatrixFileSolveRow>,
}

fn tier_label(tier: StorageTier) -> String {
    match tier {
        StorageTier::Csr => "csr".into(),
        StorageTier::Coo => "coo".into(),
        StorageTier::BlockedCsr(b) => format!("blocked({b})"),
    }
}

fn schemes() -> [EccScheme; 5] {
    [
        EccScheme::None,
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ]
}

/// Loads the file, pads rows up to the CRC32C four-entry floor (capped by
/// the column count) and runs the tier × scheme sweep.
pub fn matrix_file_report(config: &MatrixFileConfig) -> Result<MatrixFileReport, String> {
    let raw = load_matrix_market(&config.path).map_err(|e| format!("{}: {e}", config.path))?;
    let file_nnz = raw.nnz();
    let matrix = pad_rows_to_min_entries(&raw, 4.min(raw.cols().max(1)));
    let tiers = [
        StorageTier::Csr,
        StorageTier::Coo,
        StorageTier::BlockedCsr(config.num_blocks.max(1)),
    ];

    let x: Vec<f64> = (0..matrix.cols())
        .map(|i| 1.0 + (i as f64 * 0.13).sin())
        .collect();
    let mut spmv = Vec::new();
    let mut csr_baseline_ns = f64::NAN;
    for tier in tiers {
        for scheme in schemes() {
            let cfg = ProtectionConfig::matrix_only(scheme)
                .with_crc_backend(Crc32cBackend::SlicingBy16)
                .with_parallel(config.parallel);
            // A scheme can be infeasible for this operator (e.g. CRC32C on a
            // matrix with fewer than four columns); skip it rather than fail
            // the whole report.
            let Ok(a) = AnyProtectedMatrix::encode(&matrix, &cfg, tier) else {
                continue;
            };
            let log = FaultLog::new();
            let mut y = vec![0.0; matrix.rows()];
            let mut ws = SpmvWorkspace::new();
            let best = (0..config.repeats.max(1))
                .map(|_| {
                    let start = Instant::now();
                    for iteration in 0..config.iters.max(1) {
                        a.spmv_with(&x[..], &mut y, iteration as u64, &log, &mut ws)
                            .expect("clean spmv");
                    }
                    std::hint::black_box(&y);
                    start.elapsed().as_nanos() as f64 / config.iters.max(1) as f64
                })
                .fold(f64::INFINITY, f64::min);
            if tier == StorageTier::Csr && scheme == EccScheme::None {
                csr_baseline_ns = best;
            }
            spmv.push(MatrixFileSpmvRow {
                tier: tier_label(tier),
                scheme: scheme.label().into(),
                mean_ns_per_iter: best,
                overhead_pct: (best / csr_baseline_ns - 1.0) * 100.0,
            });
        }
    }

    // CG only makes sense on a square symmetric operator; the padding keeps
    // symmetric inputs symmetric (it mirrors the fill pattern's zeros).
    let mut solves = Vec::new();
    if matrix.rows() == matrix.cols() && matrix.is_symmetric(1e-12) {
        let rhs: Vec<f64> = (0..matrix.rows())
            .map(|i| 1.0 + (i % 5) as f64 * 0.25)
            .collect();
        for tier in tiers {
            let outcome = Solver::cg()
                .protection(
                    ProtectionConfig::matrix_only(EccScheme::Secded64)
                        .with_crc_backend(Crc32cBackend::SlicingBy16),
                )
                .max_iterations(10 * matrix.rows().max(100))
                .tolerance(1e-10)
                .storage(tier)
                .solve(&matrix, &rhs)
                .map_err(|e| format!("{}: CG solve failed on {tier:?}: {e}", config.path))?;
            solves.push(MatrixFileSolveRow {
                tier: tier_label(tier),
                iterations: outcome.status.iterations,
                converged: outcome.status.converged,
                checks: outcome.faults.checks.iter().sum(),
            });
        }
    }

    Ok(MatrixFileReport {
        path: config.path.clone(),
        rows: matrix.rows(),
        cols: matrix.cols(),
        nnz: matrix.nnz(),
        file_nnz,
        spmv,
        solves,
    })
}

/// Plain-text rendering of a report.
pub fn render_report(report: &MatrixFileReport) -> String {
    let mut out = format!(
        "{}: {} x {}, {} assembled non-zeros ({} after CRC-floor padding)\n\n",
        report.path, report.rows, report.cols, report.file_nnz, report.nnz
    );
    out.push_str(&format!(
        "{:<12} {:<12} {:>16} {:>10}\n",
        "tier", "scheme", "mean ns/iter", "overhead"
    ));
    for row in &report.spmv {
        out.push_str(&format!(
            "{:<12} {:<12} {:>16.0} {:>9.1}%\n",
            row.tier, row.scheme, row.mean_ns_per_iter, row.overhead_pct
        ));
    }
    if report.solves.is_empty() {
        out.push_str("\noperator is not symmetric: CG solve comparison skipped\n");
    } else {
        out.push_str(&format!(
            "\nmatrix-protected CG (SECDED64) per tier:\n{:<12} {:>11} {:>10} {:>10}\n",
            "tier", "iterations", "converged", "checks"
        ));
        for row in &report.solves {
            out.push_str(&format!(
                "{:<12} {:>11} {:>10} {:>10}\n",
                row.tier, row.iterations, row.converged, row.checks
            ));
        }
    }
    out
}

/// Machine-readable rendering for `--json`.
pub fn report_json(report: &MatrixFileReport) -> Json {
    Json::obj([
        ("path", report.path.clone().into()),
        ("rows", report.rows.into()),
        ("cols", report.cols.into()),
        ("nnz", report.nnz.into()),
        ("file_nnz", report.file_nnz.into()),
        (
            "spmv",
            Json::Arr(
                report
                    .spmv
                    .iter()
                    .map(|row| {
                        Json::obj([
                            ("tier", row.tier.clone().into()),
                            ("scheme", row.scheme.clone().into()),
                            ("mean_ns_per_iter", row.mean_ns_per_iter.into()),
                            ("overhead_pct", row.overhead_pct.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "solves",
            Json::Arr(
                report
                    .solves
                    .iter()
                    .map(|row| {
                        Json::obj([
                            ("tier", row.tier.clone().into()),
                            ("iterations", row.iterations.into()),
                            ("converged", row.converged.into()),
                            ("checks", (row.checks as usize).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> String {
        format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn symmetric_fixture_reports_spmv_and_tier_identical_solves() {
        let report = matrix_file_report(&MatrixFileConfig {
            path: fixture("spd_symmetric.mtx"),
            num_blocks: 3,
            iters: 2,
            repeats: 1,
            parallel: false,
        })
        .unwrap();
        // 3 tiers × 5 schemes, none skipped (10 columns clears the CRC floor).
        assert_eq!(report.spmv.len(), 15);
        assert_eq!(report.solves.len(), 3);
        assert!(report.solves.iter().all(|s| s.converged));
        assert!(
            report
                .solves
                .iter()
                .all(|s| s.iterations == report.solves[0].iterations),
            "storage tier must not change the CG trajectory: {:?}",
            report.solves
        );
        let text = render_report(&report);
        assert!(text.contains("blocked(3)"));
        assert!(report_json(&report).render().contains("coo"));
    }

    #[test]
    fn unsymmetric_fixture_skips_the_solve_comparison() {
        let report = matrix_file_report(&MatrixFileConfig {
            path: fixture("skew_general.mtx"),
            num_blocks: 2,
            iters: 1,
            repeats: 1,
            parallel: false,
        })
        .unwrap();
        assert_eq!(report.spmv.len(), 15);
        assert!(report.solves.is_empty());
        assert!(render_report(&report).contains("not symmetric"));
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = matrix_file_report(&MatrixFileConfig {
            path: "/nonexistent/matrix.mtx".into(),
            num_blocks: 1,
            iters: 1,
            repeats: 1,
            parallel: false,
        })
        .unwrap_err();
        assert!(err.contains("/nonexistent/matrix.mtx"));
    }
}
