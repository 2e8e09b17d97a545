//! CI performance-regression gate (`experiments --check-regression`).
//!
//! Re-measures the protected SpMV and masked BLAS-1 kernels on the current
//! build and compares them against the last committed trajectory points in
//! `BENCH_spmv.json` / `BENCH_blas1.json`.  Absolute nanoseconds are not
//! comparable across hosts, so the gate compares **overhead ratios**: every
//! row is normalised by the unprotected row of the same run (same host, same
//! cache state), and a row fails when its fresh ratio exceeds the committed
//! ratio by more than the tolerance (default 25 %).  A protected kernel that
//! silently loses its fast path shows up as a ratio jump on every host; a
//! slower CI machine does not.
//!
//! The fresh measurement reuses the committed workload *size* (ratios are
//! size-sensitive) but far fewer timed iterations — the per-op ratio is
//! iteration-count-invariant, so the gate stays CI-cheap.
//!
//! Four suites are gated: the protected SpMV kernels, the masked BLAS-1
//! kernels, the serving queue's batched dispatch, and the selective
//! reliability tier's fault-free selective/uniform FT-PCG cost ratio
//! (`BENCH_precond.json`).

use crate::blas1_bench::{blas1_microbench, Blas1BenchConfig};
use crate::precond_bench::{precond_microbench, PrecondBenchConfig};
use crate::queue_bench::{queue_microbench, QueueBenchConfig};
use crate::spmv_bench::{spmv_microbench, SpmvBenchConfig};
use abft_faultsim::json::Json;

/// Gate configuration.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Committed SpMV trajectory file.
    pub spmv_baseline: String,
    /// Committed BLAS-1 trajectory file.
    pub blas1_baseline: String,
    /// Committed serving-throughput trajectory file.
    pub queue_baseline: String,
    /// Committed selective-reliability trajectory file.
    pub precond_baseline: String,
    /// Grid side length of the fresh measurement (must match the committed
    /// workload for the ratios to be comparable).
    pub nx: usize,
    /// Kernel applications per timed repeat of the fresh measurement.
    pub iters: usize,
    /// Timed repeats of the fresh measurement.
    pub repeats: usize,
    /// Allowed ratio degradation, in percent.
    pub tolerance_pct: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            spmv_baseline: "BENCH_spmv.json".into(),
            blas1_baseline: "BENCH_blas1.json".into(),
            queue_baseline: "BENCH_queue.json".into(),
            precond_baseline: "BENCH_precond.json".into(),
            nx: 256,
            iters: 6,
            repeats: 2,
            tolerance_pct: 25.0,
        }
    }
}

/// One compared kernel configuration.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// `spmv` or `blas1`.
    pub suite: String,
    /// Kernel / op label, including the serial-vs-parallel mode for SpMV.
    pub what: String,
    /// Protection scheme label.
    pub scheme: String,
    /// Committed overhead ratio (vs the unprotected row of the same run).
    pub baseline_ratio: f64,
    /// Freshly measured overhead ratio.
    pub fresh_ratio: f64,
    /// `(fresh / baseline − 1) · 100`.
    pub change_pct: f64,
    /// Whether the change exceeds the tolerance.
    pub regressed: bool,
}

/// The gate's verdict.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// All compared configurations.
    pub rows: Vec<GateRow>,
    /// The tolerance the verdict used, in percent.
    pub tolerance_pct: f64,
}

impl GateReport {
    /// True when any compared row regressed beyond the tolerance.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|row| row.regressed)
    }

    /// Plain-text table of the comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<6} {:<26} {:<12} {:>14} {:>12} {:>9}  {}\n",
            "suite", "kernel", "scheme", "baseline ratio", "fresh ratio", "change", "verdict"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<6} {:<26} {:<12} {:>14.3} {:>12.3} {:>8.1}%  {}\n",
                row.suite,
                row.what,
                row.scheme,
                row.baseline_ratio,
                row.fresh_ratio,
                row.change_pct,
                if row.regressed { "REGRESSED" } else { "ok" }
            ));
        }
        out.push_str(&format!(
            "tolerance: +{:.0}% on each overhead ratio\n",
            self.tolerance_pct
        ));
        out
    }
}

/// Loads a baseline file and returns its parsed trajectory points.
fn load_trajectory(path: &str) -> Result<Vec<Json>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    doc.get("trajectory")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| format!("{path}: no trajectory array"))
}

/// `rows` of the last trajectory point matching `pick` (or the last point);
/// `None` when the trajectory is empty, which skips that suite.
fn last_point_rows(points: &[Json], pick: impl Fn(&Json) -> bool) -> Option<Vec<Json>> {
    points
        .iter()
        .rev()
        .find(|p| pick(p))
        .or_else(|| points.last())
        .and_then(|p| p.get("rows"))
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
}

fn str_field<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or("")
}

fn num_field(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn bool_field(row: &Json, key: &str) -> bool {
    matches!(row.get(key), Some(Json::Bool(true)))
}

/// Runs the gate: fresh measurements, ratio comparison, verdict.  A row
/// that regresses on the first measurement is re-measured once and fails
/// only if the regression persists (microbenchmark noise is uncorrelated
/// between runs; a real fast-path loss is not).
pub fn check_regression(config: &GateConfig) -> Result<GateReport, String> {
    let mut report = measure_once(config)?;
    if report.regressed() {
        let confirm = measure_once(config)?;
        let tol = 1.0 + config.tolerance_pct / 100.0;
        for row in &mut report.rows {
            if !row.regressed {
                continue;
            }
            if let Some(again) = confirm
                .rows
                .iter()
                .find(|r| r.suite == row.suite && r.what == row.what && r.scheme == row.scheme)
            {
                row.fresh_ratio = row.fresh_ratio.min(again.fresh_ratio);
                row.change_pct = (row.fresh_ratio / row.baseline_ratio - 1.0) * 100.0;
                row.regressed = row.fresh_ratio > row.baseline_ratio * tol;
            }
        }
    }
    Ok(report)
}

/// One fresh measurement + comparison pass.
fn measure_once(config: &GateConfig) -> Result<GateReport, String> {
    let mut rows = Vec::new();
    let tol = 1.0 + config.tolerance_pct / 100.0;

    // --- SpMV: normalise each row by the unprotected plain-x row of the
    // SAME matrix family (Poisson rows by `plain_x`, irregular-fixture rows
    // by `irregular_plain_x`) and the SAME execution mode (serial rows by
    // the serial one, parallel rows by the parallel one).  Normalising
    // parallel rows by a serial time would bake the measuring host's core
    // count into the ratio, and cross-family normalisation would mix two
    // unrelated memory-access profiles; the whole point of ratio comparison
    // is surviving host changes. ---
    let norm_kernel_for = |kernel: &str| {
        if kernel.starts_with("irregular_") {
            "irregular_plain_x"
        } else {
            "plain_x"
        }
    };
    let spmv_points = load_trajectory(&config.spmv_baseline)?;
    let base = last_point_rows(&spmv_points, |_| true).unwrap_or_default();
    let base_norm_for = |norm_kernel: &str, parallel: bool| {
        base.iter()
            .find(|r| {
                str_field(r, "kernel") == norm_kernel
                    && str_field(r, "scheme") == "Unprotected"
                    && bool_field(r, "parallel") == parallel
            })
            .map(|r| num_field(r, "mean_ns_per_iter"))
            .unwrap_or(f64::NAN)
    };
    let fresh = spmv_microbench(&SpmvBenchConfig {
        n: config.nx,
        iters: config.iters,
        repeats: config.repeats,
    });
    let fresh_norm_for = |norm_kernel: &str, parallel: bool| {
        fresh
            .iter()
            .find(|r| {
                r.kernel == norm_kernel && r.scheme == "Unprotected" && r.parallel == parallel
            })
            .map(|r| r.mean_ns_per_iter)
            .unwrap_or(f64::NAN)
    };
    for base_row in &base {
        let (kernel, scheme, parallel) = (
            str_field(base_row, "kernel"),
            str_field(base_row, "scheme"),
            bool_field(base_row, "parallel"),
        );
        // Only the protected kernels are gated; the normaliser rows
        // themselves would compare 1.0 vs 1.0.
        let norm_kernel = norm_kernel_for(kernel);
        if scheme == "Unprotected" && kernel == norm_kernel {
            continue;
        }
        let Some(fresh_row) = fresh
            .iter()
            .find(|r| r.kernel == kernel && r.scheme == scheme && r.parallel == parallel)
        else {
            continue;
        };
        let baseline_ratio =
            num_field(base_row, "mean_ns_per_iter") / base_norm_for(norm_kernel, parallel);
        let fresh_ratio = fresh_row.mean_ns_per_iter / fresh_norm_for(norm_kernel, parallel);
        if !baseline_ratio.is_finite() || !fresh_ratio.is_finite() {
            continue;
        }
        rows.push(GateRow {
            suite: "spmv".into(),
            what: format!(
                "{kernel} ({})",
                if parallel { "parallel" } else { "serial" }
            ),
            scheme: scheme.into(),
            baseline_ratio,
            fresh_ratio,
            change_pct: (fresh_ratio / baseline_ratio - 1.0) * 100.0,
            regressed: fresh_ratio > baseline_ratio * tol,
        });
    }

    // --- BLAS-1: the masked point, normalised per op by its unprotected
    // row (ops have wildly different absolute scales). ---
    let blas1_points = load_trajectory(&config.blas1_baseline)?;
    // Match the exact suffix `trajectory_points_json` stamps on the
    // masked-path point — a bare "masked" would match every label the
    // BLAS-1 bench ever wrote (the suite itself is named "masked BLAS-1")
    // and silently rely on append order.
    let base = last_point_rows(&blas1_points, |p| {
        p.get("label")
            .and_then(Json::as_str)
            .is_some_and(|l| l.contains("(masked kernels)"))
    })
    .unwrap_or_default();
    let fresh_all = if base.is_empty() {
        Vec::new()
    } else {
        blas1_microbench(&Blas1BenchConfig {
            n: config.nx,
            iters: config.iters,
            repeats: config.repeats,
            cg_iterations: config.iters.max(4),
            parallel: false,
        })
    };
    let fresh: Vec<_> = fresh_all.iter().filter(|r| r.path == "masked").collect();
    for base_row in &base {
        let (op, scheme) = (str_field(base_row, "op"), str_field(base_row, "scheme"));
        if scheme == "Unprotected" {
            continue; // per-op normaliser
        }
        let base_norm = base
            .iter()
            .find(|r| str_field(r, "op") == op && str_field(r, "scheme") == "Unprotected")
            .map(|r| num_field(r, "mean_ns_per_op"));
        let fresh_row = fresh.iter().find(|r| r.op == op && r.scheme == scheme);
        let fresh_norm = fresh
            .iter()
            .find(|r| r.op == op && r.scheme == "Unprotected")
            .map(|r| r.mean_ns_per_op);
        let (Some(base_norm), Some(fresh_row), Some(fresh_norm)) =
            (base_norm, fresh_row, fresh_norm)
        else {
            continue;
        };
        let baseline_ratio = num_field(base_row, "mean_ns_per_op") / base_norm;
        let fresh_ratio = fresh_row.mean_ns_per_op / fresh_norm;
        if !baseline_ratio.is_finite() || !fresh_ratio.is_finite() {
            continue;
        }
        rows.push(GateRow {
            suite: "blas1".into(),
            what: op.into(),
            scheme: scheme.into(),
            baseline_ratio,
            fresh_ratio,
            change_pct: (fresh_ratio / baseline_ratio - 1.0) * 100.0,
            regressed: fresh_ratio > baseline_ratio * tol,
        });
    }

    // --- Serving throughput: each batched width's per-solve time,
    // normalised by the serial one-at-a-time dispatch of the same run.  A
    // queue change that loses the panel amortisation (or bloats dispatch)
    // shows up as a ratio jump on every host. ---
    let queue_points = load_trajectory(&config.queue_baseline)?;
    let base_point = queue_points.last();
    let base = last_point_rows(&queue_points, |_| true).unwrap_or_default();
    if !base.is_empty() {
        let workload = base_point.and_then(|p| p.get("workload"));
        let usize_field = |key: &str, default: usize| {
            workload
                .and_then(|w| w.get(key))
                .and_then(Json::as_f64)
                .map(|v| v as usize)
                .unwrap_or(default)
        };
        let widths: Vec<usize> = workload
            .and_then(|w| w.get("widths"))
            .and_then(Json::as_arr)
            .map(|ws| {
                ws.iter()
                    .filter_map(Json::as_f64)
                    .map(|v| v as usize)
                    .collect()
            })
            .unwrap_or_else(|| vec![1, 2, 4, 8]);
        let fresh = queue_microbench(&QueueBenchConfig {
            n: config.nx,
            jobs: usize_field("jobs", 8),
            widths,
            iters: config.iters,
            repeats: config.repeats,
        });
        let serial_ns = |rows: &[&Json], scheme: &str| {
            rows.iter()
                .find(|r| str_field(r, "scheme") == scheme && str_field(r, "mode") == "serial")
                .map(|r| num_field(r, "mean_ns_per_solve"))
        };
        let base_refs: Vec<&Json> = base.iter().collect();
        for base_row in &base {
            let (scheme, mode) = (str_field(base_row, "scheme"), str_field(base_row, "mode"));
            if mode != "batched" {
                continue; // serial rows are the normalisers
            }
            let width = num_field(base_row, "width") as usize;
            let Some(base_norm) = serial_ns(&base_refs, scheme) else {
                continue;
            };
            let Some(fresh_row) = fresh
                .iter()
                .find(|r| r.scheme == scheme && r.mode == "batched" && r.width == width)
            else {
                continue;
            };
            let Some(fresh_norm) = fresh
                .iter()
                .find(|r| r.scheme == scheme && r.mode == "serial")
                .map(|r| r.mean_ns_per_solve)
            else {
                continue;
            };
            let baseline_ratio = num_field(base_row, "mean_ns_per_solve") / base_norm;
            let fresh_ratio = fresh_row.mean_ns_per_solve / fresh_norm;
            if !baseline_ratio.is_finite() || !fresh_ratio.is_finite() {
                continue;
            }
            rows.push(GateRow {
                suite: "queue".into(),
                what: format!("batched k={width}"),
                scheme: scheme.into(),
                baseline_ratio,
                fresh_ratio,
                change_pct: (fresh_ratio / baseline_ratio - 1.0) * 100.0,
                regressed: fresh_ratio > baseline_ratio * tol,
            });
        }
    }

    // --- Selective reliability: the fault-free selective/uniform
    // time-to-solution ratio per (matrix, preconditioner).  With zero
    // injected faults both tiers run the identical trajectory, so the
    // ratio isolates the per-iteration cost of the inner apply; a change
    // that silently routes the unreliable tier through protected factor
    // storage (losing the whole point of selective reliability) shows up
    // as a ratio jump on every host.  The fresh measurement caps the
    // iteration count (tolerance 0): the per-iteration cost ratio is
    // budget-invariant, so the gate stays CI-cheap.  The cap and repeat
    // count get their own floors (12 iterations, best of 3) because a
    // handful of iterations is too short a timing window for a stable
    // ratio on a noisy shared core. ---
    let precond_points = load_trajectory(&config.precond_baseline)?;
    let base_point = precond_points.last();
    let base = last_point_rows(&precond_points, |_| true).unwrap_or_default();
    if !base.is_empty() {
        let grid_n = base_point
            .and_then(|p| p.get("workload"))
            .and_then(|w| w.get("grid_n"))
            .and_then(Json::as_f64)
            .map(|v| v as usize)
            .unwrap_or(config.nx);
        let fresh = precond_microbench(&PrecondBenchConfig {
            n: grid_n,
            flips: vec![0],
            max_iterations: config.iters.max(12),
            tolerance: 0.0,
            repeats: config.repeats.max(3),
            ..PrecondBenchConfig::default()
        });
        let base_ns = |matrix: &str, precond: &str, policy: &str| {
            base.iter()
                .find(|r| {
                    str_field(r, "matrix") == matrix
                        && str_field(r, "precond") == precond
                        && str_field(r, "policy") == policy
                        && num_field(r, "factor_flips") == 0.0
                })
                .map(|r| num_field(r, "mean_ns_to_solution"))
                .unwrap_or(f64::NAN)
        };
        let fresh_ns = |matrix: &str, precond: &str, policy: &str| {
            fresh
                .iter()
                .find(|r| {
                    r.matrix == matrix
                        && r.precond == precond
                        && r.policy == policy
                        && r.factor_flips == 0
                })
                .map(|r| r.mean_ns_to_solution)
                .unwrap_or(f64::NAN)
        };
        let mut pairs: Vec<(String, String)> = Vec::new();
        for base_row in &base {
            let pair = (
                str_field(base_row, "matrix").to_string(),
                str_field(base_row, "precond").to_string(),
            );
            if !pair.0.is_empty() && !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }
        for (matrix, precond) in pairs {
            let baseline_ratio =
                base_ns(&matrix, &precond, "selective") / base_ns(&matrix, &precond, "uniform");
            let fresh_ratio =
                fresh_ns(&matrix, &precond, "selective") / fresh_ns(&matrix, &precond, "uniform");
            if !baseline_ratio.is_finite() || !fresh_ratio.is_finite() {
                continue;
            }
            rows.push(GateRow {
                suite: "precond".into(),
                what: format!("{matrix} {precond}"),
                scheme: "selective/uniform".into(),
                baseline_ratio,
                fresh_ratio,
                change_pct: (fresh_ratio / baseline_ratio - 1.0) * 100.0,
                regressed: fresh_ratio > baseline_ratio * tol,
            });
        }
    }

    if rows.is_empty() {
        return Err("regression gate compared zero rows — baselines empty or mismatched".into());
    }
    Ok(GateReport {
        rows,
        tolerance_pct: config.tolerance_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn spmv_baseline_doc(protected_ns: f64) -> String {
        Json::obj([(
            "trajectory",
            Json::Arr(vec![Json::obj([
                ("label", "test".into()),
                (
                    "rows",
                    Json::Arr(vec![
                        Json::obj([
                            ("kernel", "plain_x".into()),
                            ("scheme", "Unprotected".into()),
                            ("parallel", false.into()),
                            ("mean_ns_per_iter", 1000.0.into()),
                        ]),
                        Json::obj([
                            ("kernel", "protected_x".into()),
                            ("scheme", "SECDED64".into()),
                            ("parallel", false.into()),
                            ("mean_ns_per_iter", protected_ns.into()),
                        ]),
                        Json::obj([
                            ("kernel", "irregular_plain_x".into()),
                            ("scheme", "Unprotected".into()),
                            ("parallel", false.into()),
                            ("mean_ns_per_iter", 1000.0.into()),
                        ]),
                        Json::obj([
                            ("kernel", "irregular_protected_x".into()),
                            ("scheme", "SECDED64".into()),
                            ("parallel", false.into()),
                            ("mean_ns_per_iter", protected_ns.into()),
                        ]),
                    ]),
                ),
            ])]),
        )])
        .render()
    }

    #[test]
    fn gate_compares_fresh_ratios_against_the_baseline() {
        // A generous baseline (ratio 100x) cannot regress; a 0.0001x one
        // must.  Both gates run the same tiny fresh measurement.
        let blas1 = write_temp(
            "abft_gate_blas1.json",
            &Json::obj([("trajectory", Json::Arr(vec![]))]).render(),
        );
        let queue = write_temp(
            "abft_gate_queue.json",
            &Json::obj([("trajectory", Json::Arr(vec![]))]).render(),
        );
        let precond = write_temp(
            "abft_gate_precond.json",
            &Json::obj([("trajectory", Json::Arr(vec![]))]).render(),
        );
        let generous = GateConfig {
            spmv_baseline: write_temp("abft_gate_spmv_ok.json", &spmv_baseline_doc(100_000.0)),
            blas1_baseline: blas1.clone(),
            queue_baseline: queue,
            precond_baseline: precond,
            nx: 12,
            iters: 1,
            repeats: 1,
            tolerance_pct: 25.0,
        };
        let report = check_regression(&generous).unwrap();
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.render().contains("SECDED64"));
        // The irregular-fixture family is gated with its own normaliser.
        assert!(report.render().contains("irregular_protected_x"));

        let strict = GateConfig {
            spmv_baseline: write_temp("abft_gate_spmv_bad.json", &spmv_baseline_doc(0.1)),
            blas1_baseline: blas1,
            ..generous
        };
        let report = check_regression(&strict).unwrap();
        assert!(report.regressed(), "{}", report.render());
    }

    #[test]
    fn gate_errors_on_missing_baseline() {
        let config = GateConfig {
            spmv_baseline: "/nonexistent/BENCH_spmv.json".into(),
            ..GateConfig::default()
        };
        assert!(check_regression(&config).is_err());
    }
}
