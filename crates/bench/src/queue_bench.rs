//! Serving-throughput sweep backing `BENCH_queue.json`.
//!
//! The multi-RHS engine's pitch is that a width-`k` panel pays for each
//! matrix codeword verification once per panel instead of once per
//! right-hand side.  This harness measures that claim end to end through
//! the serving front door: a fixed set of jobs against one protected
//! matrix is solved twice per configuration —
//!
//! * **serial** (the *pre* point): one `Solver::cg().solve_operator` call
//!   per job, one at a time, the way every dispatch loop in this repo
//!   worked before the [`SolveQueue`] existed; and
//! * **batched** (the *post* point): the same jobs submitted to a
//!   [`SolveQueue`] with `max_width = k` and drained as panels.
//!
//! Every solve runs a fixed iteration count (tolerance 0 disables early
//! exit), so `matrix_checks_per_rhs` is an exact machine-independent count
//! — it must fall as `1/k` — while `solves_per_sec` carries the host's
//! wall-clock story.  The per-RHS check count comes from
//! [`SolveQueue::matrix_activity`], which records each panel traversal
//! once, not from the tenant snapshots (those deliberately replicate the
//! panel delta per tenant so per-tenant accounting matches standalone
//! solves).

use crate::best_of;
use abft_core::{EccScheme, FaultLogSnapshot, ProtectedCsr, ProtectionConfig, Region};
use abft_faultsim::json::Json;
use abft_serve::{JobSpec, SolveQueue};
use abft_solvers::backends::FullyProtected;
use abft_solvers::{Solver, SolverConfig};
use abft_sparse::builders::poisson_2d_padded;

/// One measured configuration of the sweep.
#[derive(Debug, Clone)]
pub struct QueueBenchRow {
    /// Protection scheme label.
    pub scheme: String,
    /// `serial` (pre: one-at-a-time dispatch) or `batched` (post: queue).
    pub mode: String,
    /// Panel width `k` (always 1 for the serial rows).
    pub width: usize,
    /// Jobs solved per timed dispatch round.
    pub jobs: usize,
    /// Mean wall time per solve, nanoseconds (minimum over the repeats).
    pub mean_ns_per_solve: f64,
    /// `1e9 / mean_ns_per_solve`.
    pub solves_per_sec: f64,
    /// Matrix-region integrity checks actually performed, per right-hand
    /// side (exact, host-independent).
    pub matrix_checks_per_rhs: f64,
}

/// Workload description.
#[derive(Debug, Clone)]
pub struct QueueBenchConfig {
    /// Poisson grid side length (the system has `n²` unknowns).
    pub n: usize,
    /// Jobs per dispatch round; keep it a multiple of every width so each
    /// drain packs full panels.
    pub jobs: usize,
    /// Panel widths to sweep.
    pub widths: Vec<usize>,
    /// CG iterations per solve (fixed budget; tolerance 0).
    pub iters: usize,
    /// Timed repeats; the minimum is reported.
    pub repeats: usize,
}

impl Default for QueueBenchConfig {
    fn default() -> Self {
        QueueBenchConfig {
            n: 256,
            jobs: 8,
            widths: vec![1, 2, 4, 8],
            iters: 25,
            repeats: 2,
        }
    }
}

impl QueueBenchConfig {
    /// Tiny CI preset.
    pub fn smoke() -> Self {
        QueueBenchConfig {
            n: 24,
            jobs: 4,
            widths: vec![1, 2, 4],
            iters: 3,
            repeats: 1,
        }
    }
}

fn schemes() -> [EccScheme; 2] {
    // The two schemes the paper leads with for full protection: the
    // cheapest per-element code and the grouped CRC.
    [EccScheme::Secded64, EccScheme::Crc32c]
}

fn matrix_region_checks(snapshot: &FaultLogSnapshot) -> u64 {
    snapshot.checks[Region::CsrElements as usize] + snapshot.checks[Region::RowPointer as usize]
}

/// Runs the scheme × {serial, batched × width} sweep.
pub fn queue_microbench(config: &QueueBenchConfig) -> Vec<QueueBenchRow> {
    let matrix = poisson_2d_padded(config.n, config.n);
    let rhs: Vec<Vec<f64>> = (0..config.jobs)
        .map(|j| {
            (0..matrix.rows())
                .map(|i| 1.0 + ((i * (j + 3)) % 13) as f64 * 0.25)
                .collect()
        })
        .collect();
    let solver_config = SolverConfig::new(config.iters, 0.0);
    let mut rows = Vec::new();

    for scheme in schemes() {
        let protection = ProtectionConfig::full(scheme);
        let encoded = ProtectedCsr::from_csr(&matrix, &protection).expect("encode matrix");

        // Pre: the historical dispatch loop — every job pays its own full
        // matrix verification.
        let op = FullyProtected::new(&encoded);
        let solver = Solver::cg().config(solver_config);
        let solo = solver
            .solve_operator(&op, &rhs[0])
            .expect("clean serial solve");
        let serial_checks = matrix_region_checks(&solo.faults) as f64;
        let ns_per_round = best_of(config.repeats, 1, |_| {
            for b in &rhs {
                let outcome = solver.solve_operator(&op, b).expect("clean serial solve");
                std::hint::black_box(outcome.solution);
            }
        });
        let per_solve = ns_per_round / config.jobs as f64;
        rows.push(QueueBenchRow {
            scheme: scheme.label().into(),
            mode: "serial".into(),
            width: 1,
            jobs: config.jobs,
            mean_ns_per_solve: per_solve,
            solves_per_sec: 1e9 / per_solve,
            matrix_checks_per_rhs: serial_checks,
        });

        // Post: the same jobs through the queue at each panel width.
        for &width in &config.widths {
            let mut queue = SolveQueue::new(width);
            let id = queue
                .register(ProtectedCsr::from_csr(&matrix, &protection).expect("encode matrix"));
            let submit_all = |queue: &mut SolveQueue| {
                for (j, b) in rhs.iter().enumerate() {
                    queue.submit(
                        JobSpec::new(format!("job-{j}"), id, b.clone()).with_config(solver_config),
                    );
                }
            };
            // Warm-up drain: measures the exact physical check counts and
            // brings the pool's worker threads up before timing.
            let before = matrix_region_checks(&queue.matrix_activity());
            submit_all(&mut queue);
            let outcomes = queue.drain();
            assert!(outcomes.iter().all(|o| o.error.is_none()));
            let after = matrix_region_checks(&queue.matrix_activity());
            let checks_per_rhs = (after - before) as f64 / config.jobs as f64;

            let ns_per_round = best_of(config.repeats, 1, |_| {
                submit_all(&mut queue);
                std::hint::black_box(queue.drain());
            });
            let per_solve = ns_per_round / config.jobs as f64;
            rows.push(QueueBenchRow {
                scheme: scheme.label().into(),
                mode: "batched".into(),
                width,
                jobs: config.jobs,
                mean_ns_per_solve: per_solve,
                solves_per_sec: 1e9 / per_solve,
                matrix_checks_per_rhs: checks_per_rhs,
            });
        }
    }
    rows
}

/// Renders the sweep as one trajectory point ready to append to
/// `BENCH_queue.json`.
pub fn trajectory_point_json(
    label: &str,
    config: &QueueBenchConfig,
    rows: &[QueueBenchRow],
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
        (
            "workload",
            Json::obj([
                ("grid_n", config.n.into()),
                ("jobs", config.jobs.into()),
                (
                    "widths",
                    Json::Arr(config.widths.iter().map(|&w| w.into()).collect()),
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
                            ("scheme", row.scheme.clone().into()),
                            ("mode", row.mode.clone().into()),
                            ("width", row.width.into()),
                            ("jobs", row.jobs.into()),
                            ("mean_ns_per_solve", row.mean_ns_per_solve.into()),
                            ("solves_per_sec", row.solves_per_sec.into()),
                            ("matrix_checks_per_rhs", row.matrix_checks_per_rhs.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Plain-text table: serial first, then one line per batched width, with
/// the throughput speedup over the serial dispatch.
pub fn render_table(rows: &[QueueBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<8} {:>5} {:>16} {:>12} {:>20} {:>9}\n",
        "scheme", "mode", "k", "ns/solve", "solves/s", "matrix checks/rhs", "speedup"
    ));
    for row in rows {
        let serial = rows
            .iter()
            .find(|r| r.scheme == row.scheme && r.mode == "serial")
            .map(|r| r.mean_ns_per_solve)
            .unwrap_or(f64::NAN);
        out.push_str(&format!(
            "{:<10} {:<8} {:>5} {:>16.0} {:>12.2} {:>20.0} {:>8.2}x\n",
            row.scheme,
            row.mode,
            row.width,
            row.mean_ns_per_solve,
            row.solves_per_sec,
            row.matrix_checks_per_rhs,
            serial / row.mean_ns_per_solve,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_rhs_matrix_checks_fall_monotonically_with_width() {
        let config = QueueBenchConfig::smoke();
        let rows = queue_microbench(&config);
        for scheme in schemes() {
            let serial = rows
                .iter()
                .find(|r| r.scheme == scheme.label() && r.mode == "serial")
                .expect("serial row");
            assert!(serial.matrix_checks_per_rhs > 0.0, "{scheme:?}");
            let batched: Vec<&QueueBenchRow> = rows
                .iter()
                .filter(|r| r.scheme == scheme.label() && r.mode == "batched")
                .collect();
            assert_eq!(batched.len(), config.widths.len(), "{scheme:?}");
            // Width 1 pays the serial verify cost; every doubling of the
            // width must strictly reduce the per-RHS matrix checks.
            assert_eq!(
                batched[0].matrix_checks_per_rhs, serial.matrix_checks_per_rhs,
                "{scheme:?}: a width-1 panel is a serial solve"
            );
            for pair in batched.windows(2) {
                assert!(
                    pair[1].matrix_checks_per_rhs < pair[0].matrix_checks_per_rhs,
                    "{scheme:?}: k={} → k={} did not reduce per-RHS checks",
                    pair[0].width,
                    pair[1].width
                );
            }
        }
        let point = trajectory_point_json("test", &config, &rows);
        assert!(point.render().contains("matrix_checks_per_rhs"));
        assert!(render_table(&rows).contains("batched"));
    }
}
