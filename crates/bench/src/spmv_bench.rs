//! Direct SpMV kernel microbenchmark backing `BENCH_spmv.json`.
//!
//! Unlike the figure tables (which time whole CG solves), this harness times
//! the protected SpMV kernel itself — per scheme, per input-vector kind
//! (plain `&[f64]` vs masked [`ProtectedVector`]) and per execution mode
//! (serial vs parallel) — so kernel-level optimisations show up undiluted by
//! the BLAS-1 work of a solver iteration.  The workload is the padded 2-D
//! Poisson operator the paper's TeaLeaf deck produces (five entries per
//! row), at a size where the kernel is memory-bandwidth-bound.

use abft_core::spmv::{protected_spmv, protected_spmv_parallel};
use abft_core::{
    EccScheme, FaultLog, ProtectedCsr, ProtectedMatrix, ProtectedVector, ProtectionConfig,
    SpmvWorkspace,
};
use abft_ecc::Crc32cBackend;
use abft_faultsim::json::Json;
use abft_sparse::builders::{pad_rows_to_min_entries, poisson_2d_padded};
use abft_sparse::{load_matrix_market, CsrMatrix};
use std::time::Instant;

/// One measured kernel configuration.
#[derive(Debug, Clone)]
pub struct SpmvBenchRow {
    /// Input-vector kind: `plain_x` (matrix-only protection) or
    /// `protected_x` (fully protected, masked input vector).
    pub kernel: String,
    /// Element/row-pointer protection scheme label.
    pub scheme: String,
    /// Rayon-parallel kernel.
    pub parallel: bool,
    /// Mean wall time of one SpMV application, in nanoseconds (minimum over
    /// the repeat set, mean over the iterations of a repeat).
    pub mean_ns_per_iter: f64,
}

/// Workload description for the JSON output.
#[derive(Debug, Clone)]
pub struct SpmvBenchConfig {
    /// Poisson grid side length (matrix is `n² × n²`).
    pub n: usize,
    /// SpMV applications per timed repeat.
    pub iters: usize,
    /// Timed repeats; the minimum is reported.
    pub repeats: usize,
}

impl Default for SpmvBenchConfig {
    fn default() -> Self {
        SpmvBenchConfig {
            n: 256,
            iters: 20,
            repeats: 3,
        }
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

/// Locates the committed irregular `.mtx` fixture (skewed row lengths,
/// empty rows), resolving the path from either the workspace root (where
/// CI runs) or this crate's manifest directory.
fn irregular_fixture() -> Option<CsrMatrix> {
    let candidates = [
        "tests/fixtures/skew_general.mtx",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/skew_general.mtx"
        ),
    ];
    for path in candidates {
        if let Ok(m) = load_matrix_market(path) {
            return Some(pad_rows_to_min_entries(&m, 4));
        }
    }
    None
}

/// Tiles `m` block-diagonally `copies` times so the fixture's skew profile
/// (long rows next to padded empty rows) is preserved at benchmark size.
fn tile_block_diag(m: &CsrMatrix, copies: usize) -> CsrMatrix {
    let copies = copies.max(1);
    let (rows, cols, values, col_indices, row_pointer) = m.clone().into_raw();
    let nnz = values.len();
    let mut tiled_values = Vec::with_capacity(nnz * copies);
    let mut tiled_cols = Vec::with_capacity(nnz * copies);
    let mut tiled_rp = Vec::with_capacity(rows * copies + 1);
    tiled_rp.push(0u32);
    for tile in 0..copies {
        let col_shift = (cols * tile) as u32;
        let nnz_shift = (nnz * tile) as u32;
        tiled_values.extend_from_slice(&values);
        tiled_cols.extend(col_indices.iter().map(|&c| c + col_shift));
        tiled_rp.extend(row_pointer[1..].iter().map(|&p| p + nnz_shift));
    }
    CsrMatrix::try_new(
        rows * copies,
        cols * copies,
        tiled_values,
        tiled_cols,
        tiled_rp,
    )
    .expect("block-diagonal tiling preserves CSR validity")
}

/// Runs the full kernel × scheme × serial/parallel sweep on the padded
/// Poisson operator, then repeats it on the tiled irregular fixture (rows
/// labelled `irregular_plain_x` / `irregular_protected_x`) so the
/// regression gate also pins the skewed-row-length code paths.
pub fn spmv_microbench(config: &SpmvBenchConfig) -> Vec<SpmvBenchRow> {
    let mut rows = sweep_matrix(&poisson_2d_padded(config.n, config.n), "", config);
    if let Some(fixture) = irregular_fixture() {
        let copies = (config.n * config.n / fixture.rows().max(1)).max(1);
        let matrix = tile_block_diag(&fixture, copies);
        rows.extend(sweep_matrix(&matrix, "irregular_", config));
    }
    rows
}

fn sweep_matrix(matrix: &CsrMatrix, prefix: &str, config: &SpmvBenchConfig) -> Vec<SpmvBenchRow> {
    let x_plain: Vec<f64> = (0..matrix.cols())
        .map(|i| 1.0 + (i as f64 * 0.13).sin())
        .collect();
    let mut rows = Vec::new();
    for parallel in [false, true] {
        for scheme in schemes() {
            // Matrix-protected SpMV with a plain input vector.
            let cfg = ProtectionConfig::matrix_only(scheme)
                .with_crc_backend(Crc32cBackend::SlicingBy16)
                .with_parallel(parallel);
            let a = ProtectedCsr::from_csr(matrix, &cfg).expect("encode");
            let log = FaultLog::new();
            let mut y = vec![0.0; matrix.rows()];
            let mut ws = SpmvWorkspace::new();
            let best = (0..config.repeats.max(1))
                .map(|_| {
                    let start = Instant::now();
                    for iteration in 0..config.iters {
                        if parallel {
                            a.spmv_parallel_with(
                                &x_plain[..],
                                &mut y,
                                iteration as u64,
                                &log,
                                &mut ws,
                            )
                            .expect("clean spmv");
                        } else {
                            a.spmv_with(&x_plain[..], &mut y, iteration as u64, &log, &mut ws)
                                .expect("clean spmv");
                        }
                    }
                    std::hint::black_box(&y);
                    start.elapsed().as_nanos() as f64 / config.iters as f64
                })
                .fold(f64::INFINITY, f64::min);
            rows.push(SpmvBenchRow {
                kernel: format!("{prefix}plain_x"),
                scheme: scheme.label().into(),
                parallel,
                mean_ns_per_iter: best,
            });

            // Fully protected SpMV: masked input vector, protected output.
            let cfg = ProtectionConfig::full(scheme)
                .with_crc_backend(Crc32cBackend::SlicingBy16)
                .with_parallel(parallel);
            let a = ProtectedCsr::from_csr(matrix, &cfg).expect("encode");
            let mut xp = ProtectedVector::from_slice(&x_plain, scheme, cfg.crc_backend);
            let mut yp = ProtectedVector::zeros(matrix.rows(), scheme, cfg.crc_backend);
            let best = (0..config.repeats.max(1))
                .map(|_| {
                    let start = Instant::now();
                    for iteration in 0..config.iters {
                        if parallel {
                            protected_spmv_parallel(
                                &a,
                                &mut xp,
                                &mut yp,
                                iteration as u64,
                                &log,
                                &mut ws,
                            )
                            .expect("clean protected spmv");
                        } else {
                            protected_spmv(&a, &mut xp, &mut yp, iteration as u64, &log, &mut ws)
                                .expect("clean protected spmv");
                        }
                    }
                    std::hint::black_box(yp.raw());
                    start.elapsed().as_nanos() as f64 / config.iters as f64
                })
                .fold(f64::INFINITY, f64::min);
            rows.push(SpmvBenchRow {
                kernel: format!("{prefix}protected_x"),
                scheme: scheme.label().into(),
                parallel,
                mean_ns_per_iter: best,
            });
        }
    }
    rows
}

/// Renders one trajectory point (label + measured rows) as JSON.
pub fn trajectory_point_json(label: &str, config: &SpmvBenchConfig, rows: &[SpmvBenchRow]) -> Json {
    Json::obj([
        ("label", label.into()),
        (
            "workload",
            Json::obj([
                (
                    "grid",
                    format!("poisson_2d {0}x{0} (padded)", config.n).into(),
                ),
                ("iters", config.iters.into()),
                ("repeats", config.repeats.into()),
            ]),
        ),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        Json::obj([
                            ("kernel", row.kernel.clone().into()),
                            ("scheme", row.scheme.clone().into()),
                            ("parallel", row.parallel.into()),
                            ("mean_ns_per_iter", row.mean_ns_per_iter.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders a plain-text table of the sweep.
pub fn render_table(rows: &[SpmvBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<12} {:<9} {:>16}\n",
        "kernel", "scheme", "mode", "mean ns/iter"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:<12} {:<9} {:>16.0}\n",
            row.kernel,
            row.scheme,
            if row.parallel { "parallel" } else { "serial" },
            row.mean_ns_per_iter
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_all_rows() {
        let config = SpmvBenchConfig {
            n: 12,
            iters: 2,
            repeats: 1,
        };
        let rows = spmv_microbench(&config);
        // 2 kernels × 5 schemes × 2 modes, for the Poisson operator and
        // again for the tiled irregular fixture.
        assert_eq!(rows.len(), 40);
        assert!(rows.iter().all(|r| r.mean_ns_per_iter > 0.0));
        let json = trajectory_point_json("test", &config, &rows).render();
        assert!(json.contains("plain_x"));
        assert!(json.contains("irregular_protected_x"));
        assert!(json.contains("SECDED64"));
        assert!(render_table(&rows).contains("serial"));
    }
}
