//! Per-layer measurements shared by the workloads: the traced budget of a
//! solve and the standalone kernel probes.
//!
//! Both are taken from outside the library.  The budget decorates the
//! operator the solver runs on (see [`crate::trace`]); a probe is the
//! fastest of repeated calls to one public kernel on the workload's own
//! matrix and vectors.

use crate::metrics::LayerValues;
use crate::stats::{fastest, smallest, time};
use crate::trace::{
    totals_by_name, Span, Tracer, APPLY_SPANS, FINISH_SPAN, PRECOND_SPAN, VECTOR_SPANS,
};
use abft_suite::core::spmv::{protected_spmm, protected_spmv};
use abft_suite::core::{
    AnyProtectedMatrix, EccScheme, FaultLog, FaultLogSnapshot, ProtectedMatrix, ProtectedVector,
    SpmmWorkspace, SpmvWorkspace, StorageTier, MAX_PANEL_WIDTH,
};
use abft_suite::ecc::verify::{secded64_words_clean, secded88_elements_clean};
use abft_suite::ecc::Crc32c;
use abft_suite::solvers::backends::FullyProtected;
use abft_suite::solvers::LinearOperator;
use abft_suite::sparse::spmv::spmv_serial;
use abft_suite::sparse::vector::{blas_axpy, blas_dot};
use abft_suite::sparse::CsrMatrix;
use std::hint::black_box;

/// Name of the span a workload opens around one whole traced solve.
pub const ROOT_SPAN: &str = "solve";
/// A traced run whose spans cover less of its wall time than this fails.
pub const MIN_TRACE_COVERAGE: f64 = 0.95;
/// A traced run that spends more than this share of the solve recording
/// spans fails.
pub const MAX_TRACE_OVERHEAD: f64 = 0.05;
/// Untraced/traced pairs per traced run.
const TRACE_PAIRS: usize = 2;
/// Spans reserved up front: a CG solve records about six per iteration.
const SPAN_CAPACITY: usize = 1 << 17;

/// Outcome of [`traced_budget`].
pub struct TracedRun<T> {
    /// Wall seconds of the fastest untraced run.
    pub untraced_s: f64,
    /// Output of the last untraced run and of the last traced one.
    pub untraced: T,
    pub traced: T,
    /// Whether the trace may be trusted (see [`check_trace`]).
    pub trusted: Result<(), String>,
}

/// Alternates untraced and traced runs of the same unit of work, then
/// splits the last traced run into the `solvers.*` budget.  `run` returns
/// the wall seconds of its timed region and its output; when handed a
/// tracer it must open [`ROOT_SPAN`] around exactly that region.
///
/// `solvers.trace_overhead_share` is the recorded spans times the measured
/// cost of one span, as a share of the fastest untraced run.  The difference
/// between the fastest traced and untraced runs — the textbook overhead — is
/// printed beside it but decides nothing: two pairs of multi-second solves
/// on a shared host differ by ten percent and more from noise alone, in
/// either direction, while the spans cost a few parts in ten thousand.
pub fn traced_budget<T>(
    mut run: impl FnMut(Option<&Tracer>) -> (f64, T),
    out: &mut LayerValues,
) -> TracedRun<T> {
    let tracer = Tracer::with_capacity(SPAN_CAPACITY);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut outputs = None;
    let mut spans = Vec::new();
    for _ in 0..TRACE_PAIRS {
        let (plain_s, plain) = run(None);
        untraced.push(plain_s);
        let (traced_s, decorated) = run(Some(&tracer));
        traced.push(traced_s);
        spans = tracer.take();
        outputs = Some((plain, decorated));
    }
    let (untraced_out, traced_out) = outputs.expect("TRACE_PAIRS > 0");
    let untraced_s = smallest(&untraced);
    let overhead = spans.len() as f64 * span_cost_s() / untraced_s;
    out.set("solvers.trace_overhead_share", overhead);
    eprintln!(
        "trace: {} spans, overhead {:.5} of the untraced {:.4} s (fastest traced - untraced: {:+.4})",
        spans.len(),
        overhead,
        untraced_s,
        (smallest(&traced) - untraced_s) / untraced_s
    );
    budget(&spans, out);
    TracedRun {
        untraced_s,
        untraced: untraced_out,
        traced: traced_out,
        trusted: check_trace(out),
    }
}

/// Wall seconds recording one span costs: the fastest of a few batches of
/// empty spans (the fastest, because anything slower is the host, not the
/// tracer).
fn span_cost_s() -> f64 {
    const BATCH: usize = 10_000;
    (0..5)
        .map(|_| {
            let tracer = Tracer::with_capacity(BATCH);
            let (seconds, ()) = time(|| {
                for _ in 0..BATCH {
                    tracer.span("calibration", || black_box(()));
                }
            });
            seconds / BATCH as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Splits one trace into the `solvers.*` budget.  By construction
/// `apply + blas1 + precond_apply + finish + driver_self` is the root
/// span's duration: every span is charged its self time exactly once.
pub fn budget(spans: &[Span], out: &mut LayerValues) {
    let totals = totals_by_name(spans);
    let sum = |names: &[&str]| -> (f64, u64) {
        names
            .iter()
            .filter_map(|n| totals.get(n))
            .fold((0.0, 0), |acc, t| (acc.0 + t.0, acc.1 + t.1))
    };
    let (apply_s, apply_calls) = sum(&APPLY_SPANS);
    let (blas1_s, blas1_calls) = sum(&VECTOR_SPANS);
    let (precond_s, precond_calls) = sum(&[PRECOND_SPAN]);
    let (driver_self_s, _) = sum(&[ROOT_SPAN]);
    let wall_s: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum();

    out.set("solvers.apply_s", apply_s);
    out.set("solvers.apply_calls", apply_calls as f64);
    out.set("solvers.blas1_s", blas1_s);
    out.set("solvers.blas1_calls", blas1_calls as f64);
    out.set("solvers.dot_s", sum(&["dot"]).0);
    out.set("solvers.axpy_s", sum(&["axpy"]).0);
    out.set("solvers.xpay_s", sum(&["xpay"]).0);
    out.set("solvers.dot_axpy_s", sum(&["dot_axpy"]).0);
    out.set("solvers.norm2_s", sum(&["norm2"]).0);
    out.set("solvers.copy_s", sum(&["copy_from", "clone"]).0);
    out.set("solvers.precond_apply_s", precond_s);
    out.set("solvers.precond_apply_calls", precond_calls as f64);
    out.set("solvers.finish_s", sum(&[FINISH_SPAN]).0);
    out.set("solvers.driver_self_s", driver_self_s);
    out.set(
        "solvers.trace_coverage",
        if wall_s > 0.0 {
            (wall_s - driver_self_s) / wall_s
        } else {
            0.0
        },
    );
}

/// Checks the two conditions a traced run must meet to be trusted: its
/// spans cover [`MIN_TRACE_COVERAGE`] of its wall time and recording them
/// cost at most [`MAX_TRACE_OVERHEAD`] of the solve.
fn check_trace(values: &LayerValues) -> Result<(), String> {
    let coverage = values.get("solvers.trace_coverage").unwrap_or(0.0);
    let overhead = values.get("solvers.trace_overhead_share").unwrap_or(1.0);
    if coverage < MIN_TRACE_COVERAGE {
        return Err(format!(
            "trace covers {coverage:.4} of the traced wall time (< {MIN_TRACE_COVERAGE})"
        ));
    }
    if overhead > MAX_TRACE_OVERHEAD {
        return Err(format!(
            "recording spans cost {overhead:.4} of the solve (> {MAX_TRACE_OVERHEAD})"
        ));
    }
    Ok(())
}

/// Records the integrity-check counts of one unit of work.
pub fn fault_counts(faults: &FaultLogSnapshot, out: &mut LayerValues) {
    out.set(
        "core.matrix_checks",
        (faults.checks[0] + faults.checks[1]) as f64,
    );
    out.set("core.vector_checks", faults.checks[2] as f64);
    out.set("core.corrected", faults.total_corrected() as f64);
    out.set("core.uncorrectable", faults.total_uncorrectable() as f64);
}

/// Standalone probes of the `sparse`, `core` and `ecc` kernels on the
/// workload's own matrix, with vectors encoded exactly as its solves encode
/// them.  Each figure is the fastest of `reps` calls after one warm-up.
pub fn probe_kernels(
    plain: &CsrMatrix,
    protected: &AnyProtectedMatrix,
    values: &[f64],
    reps: usize,
    out: &mut LayerValues,
) {
    let n = plain.rows();
    let log = FaultLog::new();
    let cfg = *protected.config();
    // Alternating sign keeps the repeatedly updated vectors bounded.
    let mut flip = 1e-3;
    let mut alpha = move || {
        flip = -flip;
        flip
    };

    // sparse: the plain twins.
    let x = values.to_vec();
    let mut y = vec![0.0; n];
    let spmv = fastest(reps, || spmv_serial(plain, black_box(&x), &mut y));
    let dot = fastest(reps, || {
        black_box(blas_dot(black_box(&x), black_box(&y)));
    });
    let axpy = fastest(reps, || blas_axpy(&mut y, alpha(), black_box(&x)));
    // Computed, not measured, traffic: every stored entry (value + column),
    // the row pointer, and one pass over x and y.
    let spmv_bytes = plain.nnz() * 12 + (n + 1) * 4 + (n + plain.cols()) * 8;
    out.set("sparse.spmv_s", spmv);
    out.set("sparse.dot_s", dot);
    out.set("sparse.axpy_s", axpy);
    out.set("sparse.spmv_gbps", spmv_bytes as f64 / spmv * 1e-9);

    // core: protected matrix, vectors as the fully protected backend
    // builds them (scheme, CRC backend and parity tier from the config).
    let op = FullyProtected::new(protected);
    let encode = |v: &[f64]| -> ProtectedVector { op.vector_from(v) };
    let mut px = encode(values);
    let mut py = encode(&y);
    let mut ws = SpmvWorkspace::new();
    let core_spmv = fastest(reps, || {
        protected_spmv(protected, &mut px, &mut py, 0, &log, &mut ws).expect("protected_spmv");
    });
    let plainx = fastest(reps, || {
        protected
            .spmv_with(&x[..], &mut y, 0, &log, &mut ws)
            .expect("spmv_with");
    });
    out.set("core.spmv_s", core_spmv);
    out.set("core.spmv_plainx_s", plainx);
    out.set("core.spmv_overhead_x", core_spmv / spmv);

    let mut xs: Vec<ProtectedVector> = (0..MAX_PANEL_WIDTH).map(|_| px.clone()).collect();
    let mut ys: Vec<ProtectedVector> = (0..MAX_PANEL_WIDTH).map(|_| py.clone()).collect();
    let logs: Vec<&FaultLog> = vec![&log; MAX_PANEL_WIDTH];
    let mut spmm_ws = SpmmWorkspace::new();
    let spmm_reps = reps.div_ceil(3);
    let spmm8 = fastest(spmm_reps, || {
        let mut xr: Vec<&mut ProtectedVector> = xs.iter_mut().collect();
        let mut yr: Vec<&mut ProtectedVector> = ys.iter_mut().collect();
        let mut errors = vec![None; MAX_PANEL_WIDTH];
        protected_spmm(
            protected,
            &mut xr,
            &mut yr,
            0,
            &logs,
            &log,
            &mut errors,
            &mut spmm_ws,
        )
        .expect("protected_spmm");
    });
    out.set("core.spmm8_s", spmm8);
    drop((xs, ys));

    out.set(
        "core.matrix_verify_s",
        fastest(reps, || protected.verify_all(&log).expect("verify_all")),
    );
    out.set(
        "core.vector_check_s",
        fastest(reps, || px.check_all(&log).expect("check_all")),
    );
    let core_dot = fastest(reps, || {
        black_box(px.dot_masked(&py, &log).expect("dot_masked"));
    });
    out.set("core.dot_s", core_dot);
    out.set("core.dot_overhead_x", core_dot / dot);
    out.set(
        "core.axpy_s",
        fastest(reps, || {
            py.axpy_masked(alpha(), &px, &log).expect("axpy_masked")
        }),
    );
    out.set(
        "core.xpay_s",
        fastest(reps, || {
            py.xpay_masked(0.5, &px, &log).expect("xpay_masked")
        }),
    );
    out.set(
        "core.dot_axpy_s",
        fastest(reps, || {
            black_box(
                py.dot_axpy_masked(alpha(), &px, &log)
                    .expect("dot_axpy_masked"),
            );
        }),
    );
    if px.has_parity() {
        out.set(
            "core.parity_verify_s",
            fastest(reps, || px.verify_parity(&log).expect("verify_parity")),
        );
        out.set(
            "core.parity_refresh_s",
            fastest(reps, || px.refresh_parity()),
        );
    }
    let encode_reps = reps.div_ceil(3);
    out.set(
        "core.encode_s",
        fastest(encode_reps, || {
            black_box(AnyProtectedMatrix::encode(plain, &cfg, StorageTier::Csr).expect("encode"));
        }),
    );
    out.set(
        "core.vector_encode_s",
        fastest(reps, || {
            black_box(encode(values));
        }),
    );

    // ecc: the batched verify predicate (or the CRC) the matrix scheme uses,
    // over this workload's own codewords.
    let words = ProtectedVector::from_slice(values, cfg.elements, cfg.crc_backend);
    let word_bytes = (words.raw().len() * 8) as f64;
    match cfg.elements {
        EccScheme::Secded64 => {
            let t = fastest(reps, || {
                assert!(secded64_words_clean(black_box(words.raw())));
            });
            out.set("ecc.secded64_words_gbps", word_bytes / t * 1e-9);
            if let AnyProtectedMatrix::Csr(csr) = protected {
                let (vals, cols) = (csr.raw_values(), csr.raw_col_indices());
                let t = fastest(reps, || {
                    assert!(secded88_elements_clean(black_box(vals), black_box(cols)));
                });
                out.set(
                    "ecc.secded88_elements_gbps",
                    (vals.len() * 12) as f64 / t * 1e-9,
                );
            }
        }
        EccScheme::Crc32c => {
            let crc = Crc32c::auto();
            let t = fastest(reps, || {
                black_box(crc.checksum_words(black_box(words.raw())));
            });
            out.set("ecc.crc32c_gbps", word_bytes / t * 1e-9);
        }
        _ => {}
    }
}
