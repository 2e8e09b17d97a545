//! Worker-count scaling sweep backing `BENCH_scaling.json`.
//!
//! The Fig. 4–9 suite argues that protected-solver overheads shrink as cores
//! are added, which is only observable if the parallel substrate actually
//! scales.  This harness times the parallel protected kernels — SpMV and the
//! masked BLAS-1 family — at a fixed workload while sweeping the scheduler's
//! worker limit ([`rayon::set_worker_limit`]), so a scheduler change shows up
//! as a change in the *shape* of the time-vs-workers curve, not just a single
//! number.
//!
//! Two caveats are recorded in the JSON so trajectory points remain
//! comparable across hosts:
//!
//! * `host_cores` — worker counts beyond the physical core count measure
//!   scheduling overhead, not speedup; a single-core CI box reports a flat
//!   curve for a perfectly healthy scheduler.
//! * `parallel_threshold_elements` — below this vector length the BLAS-1
//!   kernels intentionally run serial, and the sweep includes one workload on
//!   each side of the threshold so the fallback is visible in the data.

use crate::best_of;
use abft_core::spmv::protected_spmv_parallel;
use abft_core::{
    EccScheme, FaultLog, ProtectedCsr, ProtectedVector, ProtectionConfig, ReductionWorkspace,
    SpmvWorkspace, PARALLEL_MIN_ELEMENTS,
};
use abft_ecc::Crc32cBackend;
use abft_faultsim::json::Json;
use abft_sparse::builders::poisson_2d_padded;

/// One measured configuration of the sweep.
#[derive(Debug, Clone)]
pub struct ScalingBenchRow {
    /// Kernel: `spmv_protected`, `dot`, `axpy`, `dot_axpy`, `xpay`, `scale`.
    pub op: String,
    /// Protection scheme label.
    pub scheme: String,
    /// Poisson grid side length (vectors have `n²` elements).
    pub n: usize,
    /// Worker limit in force during the measurement.
    pub workers: usize,
    /// Mean wall time per kernel application, nanoseconds (minimum over the
    /// repeat set).
    pub mean_ns_per_op: f64,
}

/// Workload description.
#[derive(Debug, Clone)]
pub struct ScalingBenchConfig {
    /// Grid side lengths to sweep (vectors have `n²` elements).
    pub sizes: Vec<usize>,
    /// Worker limits to sweep.
    pub workers: Vec<usize>,
    /// Kernel applications per timed repeat.
    pub iters: usize,
    /// Timed repeats; the minimum is reported.
    pub repeats: usize,
}

impl Default for ScalingBenchConfig {
    fn default() -> Self {
        ScalingBenchConfig {
            // 64² = 4096 elements sits below the parallel BLAS-1 threshold;
            // 256² and 1024² are the paper's small and large deck sizes.
            sizes: vec![64, 256, 1024],
            workers: vec![1, 2, 4, 8],
            iters: 6,
            repeats: 2,
        }
    }
}

impl ScalingBenchConfig {
    /// Tiny CI preset: one size per threshold side, two worker counts.
    pub fn smoke() -> Self {
        ScalingBenchConfig {
            sizes: vec![24, 128],
            workers: vec![1, 2],
            iters: 2,
            repeats: 1,
        }
    }
}

fn schemes() -> [EccScheme; 3] {
    // One representative per cost class: free (None), cheapest per-element
    // code (SECDED64 is the paper's headline single-element scheme) and the
    // grouped CRC.  The full five-scheme sweep lives in the SpMV/BLAS-1
    // microbenches; this harness is about the scheduler, not the codes.
    [EccScheme::None, EccScheme::Secded64, EccScheme::Crc32c]
}

/// Runs the op × scheme × size × workers sweep.  The worker limit is
/// restored to the host default before returning.
pub fn scaling_microbench(config: &ScalingBenchConfig) -> Vec<ScalingBenchRow> {
    let mut rows = Vec::new();
    for &n in &config.sizes {
        let matrix = poisson_2d_padded(n, n);
        let len = matrix.cols();
        let a_vals: Vec<f64> = (0..len).map(|i| 1.0 + (i as f64 * 0.13).sin()).collect();
        let b_vals: Vec<f64> = (0..len).map(|i| 0.5 + (i as f64 * 0.07).cos()).collect();
        for scheme in schemes() {
            let backend = Crc32cBackend::SlicingBy16;
            let cfg = ProtectionConfig::full(scheme)
                .with_crc_backend(backend)
                .with_parallel(true);
            let encoded = ProtectedCsr::from_csr(&matrix, &cfg).expect("encode");
            let a = ProtectedVector::from_slice(&a_vals, scheme, backend);
            let b = ProtectedVector::from_slice(&b_vals, scheme, backend);
            let log = FaultLog::new();
            for &workers in &config.workers {
                rayon::set_worker_limit(Some(workers));
                let mut push = |op: &str, ns: f64| {
                    rows.push(ScalingBenchRow {
                        op: op.into(),
                        scheme: scheme.label().into(),
                        n,
                        workers,
                        mean_ns_per_op: ns,
                    });
                };

                let mut ws = SpmvWorkspace::new();
                let mut xp = a.clone();
                let mut yp = ProtectedVector::zeros(matrix.rows(), scheme, backend);
                push(
                    "spmv_protected",
                    best_of(config.repeats, config.iters, |i| {
                        protected_spmv_parallel(
                            &encoded, &mut xp, &mut yp, i as u64, &log, &mut ws,
                        )
                        .expect("clean spmv");
                    }),
                );

                // The BLAS-1 kernels run through the solver-owned workspace
                // path (what protected CG iterations execute), so the sweep
                // measures the allocation-free kernels.
                let mut rws = ReductionWorkspace::new();
                let mut sink = 0.0;
                push(
                    "dot",
                    best_of(config.repeats, config.iters, |_| {
                        sink += a.dot_masked_parallel_with(&b, &log, &mut rws).unwrap();
                    }),
                );
                let mut y = a.clone();
                push(
                    "axpy",
                    best_of(config.repeats, config.iters, |i| {
                        let alpha = if i % 2 == 0 { 1e-6 } else { -1e-6 };
                        y.axpy_masked_parallel_with(alpha, &b, &log, &mut rws)
                            .unwrap();
                    }),
                );
                let mut y = a.clone();
                push(
                    "dot_axpy",
                    best_of(config.repeats, config.iters, |i| {
                        let alpha = if i % 2 == 0 { 1e-6 } else { -1e-6 };
                        sink += y
                            .dot_axpy_masked_parallel_with(alpha, &b, &log, &mut rws)
                            .unwrap();
                    }),
                );
                let mut y = a.clone();
                push(
                    "xpay",
                    best_of(config.repeats, config.iters, |i| {
                        let alpha = if i % 2 == 0 { 1e-6 } else { -1e-6 };
                        y.xpay_masked_parallel_with(alpha, &b, &log, &mut rws)
                            .unwrap();
                    }),
                );
                let mut y = a.clone();
                push(
                    "scale",
                    best_of(config.repeats, config.iters, |i| {
                        let alpha = if i % 2 == 0 { 1.000001 } else { 1.0 / 1.000001 };
                        y.scale_masked_parallel_with(alpha, &log, &mut rws).unwrap();
                    }),
                );
                std::hint::black_box(sink);
            }
            rayon::set_worker_limit(None);
        }
    }
    rows
}

/// Renders the sweep as one trajectory point ready to append to
/// `BENCH_scaling.json`.
pub fn trajectory_point_json(
    label: &str,
    config: &ScalingBenchConfig,
    rows: &[ScalingBenchRow],
) -> Json {
    Json::obj([
        ("label", label.into()),
        (
            "host_cores",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .into(),
        ),
        ("parallel_threshold_elements", PARALLEL_MIN_ELEMENTS.into()),
        (
            "workload",
            Json::obj([
                (
                    "sizes",
                    Json::Arr(config.sizes.iter().map(|&n| n.into()).collect()),
                ),
                (
                    "workers",
                    Json::Arr(config.workers.iter().map(|&w| w.into()).collect()),
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
                            ("op", row.op.clone().into()),
                            ("scheme", row.scheme.clone().into()),
                            ("grid_n", row.n.into()),
                            ("elements", (row.n * row.n).into()),
                            ("workers", row.workers.into()),
                            ("mean_ns_per_op", row.mean_ns_per_op.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders a plain-text table: one line per op × scheme × size with the
/// per-worker-count times and the speedup of the largest worker count over
/// one worker.
pub fn render_table(config: &ScalingBenchConfig, rows: &[ScalingBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<16} {:<12} {:>6}", "op", "scheme", "grid_n"));
    for &w in &config.workers {
        out.push_str(&format!(" {:>11}", format!("w={w} ns")));
    }
    out.push_str(&format!(" {:>9}\n", "speedup"));
    for &n in &config.sizes {
        for scheme in schemes() {
            for op in ["spmv_protected", "dot", "axpy", "dot_axpy", "xpay", "scale"] {
                let series: Vec<&ScalingBenchRow> = config
                    .workers
                    .iter()
                    .filter_map(|&w| {
                        rows.iter().find(|r| {
                            r.op == op && r.scheme == scheme.label() && r.n == n && r.workers == w
                        })
                    })
                    .collect();
                if series.is_empty() {
                    continue;
                }
                out.push_str(&format!("{:<16} {:<12} {:>6}", op, scheme.label(), n));
                for row in &series {
                    out.push_str(&format!(" {:>11.0}", row.mean_ns_per_op));
                }
                let speedup =
                    series[0].mean_ns_per_op / series.last().unwrap().mean_ns_per_op.max(1.0);
                out.push_str(&format!(" {:>8.2}x\n", speedup));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_rows_for_every_worker_count() {
        let config = ScalingBenchConfig {
            sizes: vec![12],
            workers: vec![1, 2],
            iters: 1,
            repeats: 1,
        };
        let rows = scaling_microbench(&config);
        assert!(!rows.is_empty());
        assert!(rows.iter().any(|r| r.workers == 2));
        assert!(rows.iter().all(|r| r.mean_ns_per_op > 0.0));
        let point = trajectory_point_json("test", &config, &rows);
        let rendered = point.render();
        assert!(rendered.contains("spmv_protected"));
        assert!(rendered.contains("host_cores"));
        assert!(render_table(&config, &rows).contains("speedup"));
    }
}
