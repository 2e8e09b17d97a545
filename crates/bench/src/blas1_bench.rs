//! Protected BLAS-1 kernel microbenchmark backing `BENCH_blas1.json`.
//!
//! Times the `ProtectedVector` vector kernels — dot, AXPY, norm², scale and
//! the fused dot+AXPY — per scheme and per kernel **path**:
//!
//! * `group_decode` — the reference read-modify-write kernels that decode
//!   every codeword group into a stack buffer (`dot`, `axpy`, `norm2`, …);
//! * `masked` — the raw-slice kernels of `abft_core::blas1` that check each
//!   group once and then compute over the masked words
//!   (`dot_masked`, `axpy_masked`, the fused `dot_axpy_masked`, …).
//!
//! A final `cg` row per scheme/path runs a whole protected CG solve (same
//! protected SpMV for both paths, only the vector half differs), so the
//! JSON trajectory records the end-to-end effect of the BLAS-1 layer.  One
//! invocation measures both paths, and the two trajectory points it emits —
//! pre (group-decode) and post (masked) — are measured on the same host in
//! the same run, so the comparison is apples to apples.

use crate::best_of;
use abft_core::spmv::protected_spmv;
use abft_core::{
    EccScheme, FaultLog, ProtectedCsr, ProtectedVector, ProtectionConfig, ReductionWorkspace,
    SpmvWorkspace,
};
use abft_ecc::Crc32cBackend;
use abft_faultsim::json::Json;
use abft_sparse::builders::poisson_2d_padded;

/// One measured kernel configuration.
#[derive(Debug, Clone)]
pub struct Blas1BenchRow {
    /// Kernel: `dot`, `axpy`, `norm2`, `scale`, `dot_axpy` or `cg`.
    pub op: String,
    /// Vector protection scheme label.
    pub scheme: String,
    /// `group_decode` (reference) or `masked` (raw-slice fast path).
    pub path: String,
    /// Mean wall time of one kernel application (for `cg`: one whole
    /// solve), in nanoseconds — minimum over the repeat set.
    pub mean_ns_per_op: f64,
}

/// Workload description.
#[derive(Debug, Clone)]
pub struct Blas1BenchConfig {
    /// Poisson grid side length; vectors have `n²` elements.
    pub n: usize,
    /// Kernel applications per timed repeat.
    pub iters: usize,
    /// Timed repeats; the minimum is reported.
    pub repeats: usize,
    /// CG iterations of the end-to-end row.
    pub cg_iterations: usize,
    /// Route the masked path through the chunked-parallel kernel variants
    /// (dot, norm², AXPY, XPAY, scale and the fused dot+AXPY).  The
    /// group-decode reference path is always serial — this measures the
    /// parallel kernels against it.
    pub parallel: bool,
}

impl Default for Blas1BenchConfig {
    fn default() -> Self {
        Blas1BenchConfig {
            n: 256,
            iters: 40,
            repeats: 3,
            cg_iterations: 25,
            parallel: false,
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

/// Which vector-kernel family a CG run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KernelPath {
    /// Group-decode reference kernels (always serial).
    GroupDecode,
    /// Masked raw-slice kernels, serial.
    Masked,
    /// Masked kernels with the chunked-parallel variants where they exist.
    MaskedParallel,
}

/// One protected CG solve (`iters` iterations, no early exit) on an
/// already-encoded matrix, with the vector kernels selected by `path`.
/// All variants share the protected SpMV, so the difference between them
/// is exactly the BLAS-1 layer this PR rewrote.
fn protected_cg_solve(
    a: &ProtectedCsr,
    b: &[f64],
    scheme: EccScheme,
    iters: usize,
    path: KernelPath,
    ws: &mut SpmvWorkspace,
) -> f64 {
    let log = FaultLog::new();
    let mut red = ReductionWorkspace::new();
    let backend = Crc32cBackend::SlicingBy16;
    let mut x = ProtectedVector::zeros(a.rows(), scheme, backend);
    let mut r = ProtectedVector::from_slice(b, scheme, backend);
    let mut p = r.clone();
    let mut w = ProtectedVector::zeros(a.rows(), scheme, backend);
    let mut rr = match path {
        KernelPath::GroupDecode => r.dot(&r, &log).unwrap(),
        KernelPath::Masked => r.dot_masked(&r, &log).unwrap(),
        KernelPath::MaskedParallel => r.dot_masked_parallel_with(&r, &log, &mut red).unwrap(),
    };
    for iteration in 0..iters {
        protected_spmv(a, &mut p, &mut w, iteration as u64, &log, ws).expect("clean spmv");
        let pw = match path {
            KernelPath::GroupDecode => p.dot(&w, &log).unwrap(),
            KernelPath::Masked => p.dot_masked(&w, &log).unwrap(),
            KernelPath::MaskedParallel => p.dot_masked_parallel_with(&w, &log, &mut red).unwrap(),
        };
        if pw == 0.0 {
            break;
        }
        let alpha = rr / pw;
        let rr_new = match path {
            KernelPath::GroupDecode => {
                x.axpy(alpha, &p, &log).unwrap();
                r.axpy(-alpha, &w, &log).unwrap();
                r.dot(&r, &log).unwrap()
            }
            KernelPath::Masked => {
                x.axpy_masked(alpha, &p, &log).unwrap();
                r.dot_axpy_masked(-alpha, &w, &log).unwrap()
            }
            KernelPath::MaskedParallel => {
                x.axpy_masked_parallel_with(alpha, &p, &log, &mut red)
                    .unwrap();
                r.dot_axpy_masked_parallel_with(-alpha, &w, &log, &mut red)
                    .unwrap()
            }
        };
        let beta = rr_new / rr;
        match path {
            KernelPath::GroupDecode => p.xpay(beta, &r, &log).unwrap(),
            KernelPath::Masked => p.xpay_masked(beta, &r, &log).unwrap(),
            KernelPath::MaskedParallel => p
                .xpay_masked_parallel_with(beta, &r, &log, &mut red)
                .unwrap(),
        }
        rr = rr_new;
    }
    rr
}

/// Runs the op × scheme × path sweep, including the end-to-end CG row.
pub fn blas1_microbench(config: &Blas1BenchConfig) -> Vec<Blas1BenchRow> {
    let matrix = poisson_2d_padded(config.n, config.n);
    let len = matrix.cols();
    let a_vals: Vec<f64> = (0..len).map(|i| 1.0 + (i as f64 * 0.13).sin()).collect();
    let b_vals: Vec<f64> = (0..len).map(|i| 0.5 + (i as f64 * 0.07).cos()).collect();
    let log = FaultLog::new();
    let mut red = ReductionWorkspace::new();
    let mut rows = Vec::new();

    for scheme in schemes() {
        let backend = Crc32cBackend::SlicingBy16;
        let a = ProtectedVector::from_slice(&a_vals, scheme, backend);
        let b = ProtectedVector::from_slice(&b_vals, scheme, backend);
        let cfg = ProtectionConfig::full(scheme).with_crc_backend(backend);
        let encoded = ProtectedCsr::from_csr(&matrix, &cfg).expect("encode");
        let mut ws = SpmvWorkspace::new();

        let paths = [
            KernelPath::GroupDecode,
            if config.parallel {
                KernelPath::MaskedParallel
            } else {
                KernelPath::Masked
            },
        ];
        for path in paths {
            let masked = path != KernelPath::GroupDecode;
            let label = if masked { "masked" } else { "group_decode" };
            let mut push = |op: &str, ns: f64| {
                rows.push(Blas1BenchRow {
                    op: op.into(),
                    scheme: scheme.label().into(),
                    path: label.into(),
                    mean_ns_per_op: ns,
                });
            };

            let mut sink = 0.0;
            push(
                "dot",
                best_of(config.repeats, config.iters, |_| {
                    sink += match path {
                        KernelPath::GroupDecode => a.dot(&b, &log).unwrap(),
                        KernelPath::Masked => a.dot_masked(&b, &log).unwrap(),
                        KernelPath::MaskedParallel => {
                            a.dot_masked_parallel_with(&b, &log, &mut red).unwrap()
                        }
                    };
                }),
            );
            push(
                "norm2",
                best_of(config.repeats, config.iters, |_| {
                    sink += match path {
                        KernelPath::GroupDecode => a.norm2(&log).unwrap(),
                        KernelPath::Masked => a.norm2_masked(&log).unwrap(),
                        KernelPath::MaskedParallel => {
                            a.norm2_masked_parallel_with(&log, &mut red).unwrap()
                        }
                    };
                }),
            );
            std::hint::black_box(sink);

            // The mutating kernels alternate a tiny ±alpha so the values
            // stay bounded across iterations.
            let mut y = a.clone();
            push(
                "axpy",
                best_of(config.repeats, config.iters, |i| {
                    let alpha = if i % 2 == 0 { 1e-6 } else { -1e-6 };
                    match path {
                        KernelPath::GroupDecode => y.axpy(alpha, &b, &log).unwrap(),
                        KernelPath::Masked => y.axpy_masked(alpha, &b, &log).unwrap(),
                        KernelPath::MaskedParallel => y
                            .axpy_masked_parallel_with(alpha, &b, &log, &mut red)
                            .unwrap(),
                    }
                }),
            );
            let mut y = a.clone();
            push(
                "scale",
                best_of(config.repeats, config.iters, |i| {
                    let alpha = if i % 2 == 0 { 1.000001 } else { 1.0 / 1.000001 };
                    match path {
                        KernelPath::GroupDecode => y.scale(alpha, &log).unwrap(),
                        KernelPath::Masked => y.scale_masked(alpha, &log).unwrap(),
                        KernelPath::MaskedParallel => {
                            y.scale_masked_parallel_with(alpha, &log, &mut red).unwrap()
                        }
                    }
                }),
            );
            let mut y = a.clone();
            let mut sink = 0.0;
            push(
                "dot_axpy",
                best_of(config.repeats, config.iters, |i| {
                    let alpha = if i % 2 == 0 { 1e-6 } else { -1e-6 };
                    sink += match path {
                        KernelPath::GroupDecode => {
                            y.axpy(alpha, &b, &log).unwrap();
                            y.dot(&y, &log).unwrap()
                        }
                        KernelPath::Masked => y.dot_axpy_masked(alpha, &b, &log).unwrap(),
                        KernelPath::MaskedParallel => y
                            .dot_axpy_masked_parallel_with(alpha, &b, &log, &mut red)
                            .unwrap(),
                    };
                }),
            );
            std::hint::black_box(sink);

            let cg_iters = config.cg_iterations.max(1);
            let mut sink = 0.0;
            push(
                "cg",
                best_of(config.repeats, 1, |_| {
                    sink += protected_cg_solve(&encoded, &b_vals, scheme, cg_iters, path, &mut ws);
                }),
            );
            std::hint::black_box(sink);
        }
    }
    rows
}

/// Renders the sweep as two trajectory points — pre (`group_decode`) and
/// post (`masked`) — ready to append to `BENCH_blas1.json`.
pub fn trajectory_points_json(
    label: &str,
    config: &Blas1BenchConfig,
    rows: &[Blas1BenchRow],
) -> Vec<Json> {
    ["group_decode", "masked"]
        .iter()
        .map(|path| {
            Json::obj([
                ("label", format!("{label} ({path} kernels)").into()),
                (
                    "workload",
                    Json::obj([
                        (
                            "vector_len",
                            format!(
                                "{0}x{0} Poisson grid ({1} elements)",
                                config.n,
                                config.n * config.n
                            )
                            .into(),
                        ),
                        ("iters", config.iters.into()),
                        ("repeats", config.repeats.into()),
                        ("cg_iterations", config.cg_iterations.into()),
                        ("parallel", config.parallel.into()),
                    ]),
                ),
                (
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .filter(|row| row.path == *path)
                            .map(|row| {
                                Json::obj([
                                    ("op", row.op.clone().into()),
                                    ("scheme", row.scheme.clone().into()),
                                    ("mean_ns_per_op", row.mean_ns_per_op.into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect()
}

/// Renders a plain-text table of the sweep, pairing the two paths per
/// op/scheme with the resulting speedup.
pub fn render_table(rows: &[Blas1BenchRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<12} {:>18} {:>14} {:>9}\n",
        "op", "scheme", "group_decode ns", "masked ns", "speedup"
    ));
    for row in rows.iter().filter(|r| r.path == "group_decode") {
        let masked = rows
            .iter()
            .find(|r| r.path == "masked" && r.op == row.op && r.scheme == row.scheme);
        let (masked_ns, speedup) = match masked {
            Some(m) => (
                format!("{:.0}", m.mean_ns_per_op),
                format!("{:.2}x", row.mean_ns_per_op / m.mean_ns_per_op),
            ),
            None => ("-".into(), "-".into()),
        };
        out.push_str(&format!(
            "{:<10} {:<12} {:>18.0} {:>14} {:>9}\n",
            row.op, row.scheme, row.mean_ns_per_op, masked_ns, speedup
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_all_rows() {
        let config = Blas1BenchConfig {
            n: 12,
            iters: 2,
            repeats: 1,
            cg_iterations: 2,
            parallel: false,
        };
        let rows = blas1_microbench(&config);
        // 6 ops × 5 schemes × 2 paths.
        assert_eq!(rows.len(), 60);
        assert!(rows.iter().all(|r| r.mean_ns_per_op > 0.0));
        let points = trajectory_points_json("test", &config, &rows);
        assert_eq!(points.len(), 2);
        let rendered = points[0].render();
        assert!(rendered.contains("group_decode"));
        assert!(rendered.contains("dot_axpy"));
        assert!(render_table(&rows).contains("speedup"));
    }

    #[test]
    fn both_cg_paths_reduce_the_residual_identically() {
        // The group-decode and masked mini-CG trajectories are the same
        // arithmetic, so their final squared residuals agree bit for bit.
        let matrix = poisson_2d_padded(10, 10);
        let b: Vec<f64> = (0..matrix.rows()).map(|i| 1.0 + (i % 5) as f64).collect();
        for scheme in schemes() {
            let cfg = ProtectionConfig::full(scheme).with_crc_backend(Crc32cBackend::SlicingBy16);
            let encoded = ProtectedCsr::from_csr(&matrix, &cfg).unwrap();
            let mut ws = SpmvWorkspace::new();
            let rr0 = {
                let log = FaultLog::new();
                let r = ProtectedVector::from_slice(&b, scheme, Crc32cBackend::SlicingBy16);
                r.dot(&r, &log).unwrap()
            };
            let plain =
                protected_cg_solve(&encoded, &b, scheme, 20, KernelPath::GroupDecode, &mut ws);
            let masked = protected_cg_solve(&encoded, &b, scheme, 20, KernelPath::Masked, &mut ws);
            let parallel = protected_cg_solve(
                &encoded,
                &b,
                scheme,
                20,
                KernelPath::MaskedParallel,
                &mut ws,
            );
            assert_eq!(plain.to_bits(), masked.to_bits(), "{scheme:?}");
            assert_eq!(plain.to_bits(), parallel.to_bits(), "{scheme:?} parallel");
            assert!(plain < rr0 * 1e-3, "{scheme:?}: CG must converge");
        }
    }
}
