//! Selective-reliability sweep backing `BENCH_precond.json`
//! (`experiments --bench-precond`).
//!
//! The inner-outer FT-PCG's pitch is that the preconditioner apply — the
//! bulk of the flop count — does not need the protected tier's redundancy:
//! the outer iteration screens each inner result against a norm bound and
//! recomputes the certified residual through checked kernels, so an inner
//! fault costs *iterations*, never a wrong answer.  This harness measures
//! both sides of that trade as **time to correct solution**:
//!
//! * **uniform** (the paper's baseline design): factors live in
//!   [`ProtectedVector`](abft_core::ProtectedVector) storage and every
//!   apply pays the decode/verify overhead, but injected factor flips are
//!   corrected in place and convergence is undisturbed;
//! * **selective**: plain `Vec<f64>` factors with zero checks — the
//!   fault-free solve is strictly cheaper per iteration, while injected
//!   factor corruption persists and is paid for in extra outer iterations
//!   (distorted search directions, or screen rejections falling back to
//!   the unpreconditioned direction).
//!
//! Sweeping the number of injected factor bit flips records the crossover:
//! at zero faults selective wins on wall clock; as corruption accumulates
//! its time-to-solution climbs past the uniform tier's flat line.  Every
//! row's solution is checked against the fault-free reference, so both
//! columns genuinely measure time to the *correct* answer.

use crate::best_of;
use abft_core::{AnyProtectedMatrix, EccScheme, FaultLog, ProtectionConfig, StorageTier};
use abft_ecc::Crc32cBackend;
use abft_faultsim::json::Json;
use abft_solvers::{Ilu0, Polynomial, Preconditioner, Reliability, Solver, SolverConfig};
use abft_sparse::builders::{pad_rows_to_min_entries, poisson_2d_padded};
use abft_sparse::{load_matrix_market, CsrMatrix};

/// Workload description.
#[derive(Debug, Clone)]
pub struct PrecondBenchConfig {
    /// Poisson grid side length (the regular system has `n²` unknowns).
    pub n: usize,
    /// Path of the irregular Matrix Market fixture.
    pub fixture: String,
    /// Factor bit-flip counts swept for the ILU(0) rows.
    pub flips: Vec<usize>,
    /// Outer-iteration budget per solve.
    pub max_iterations: usize,
    /// Relative residual tolerance of every solve.
    pub tolerance: f64,
    /// Timed repeats; the minimum is reported.
    pub repeats: usize,
}

impl Default for PrecondBenchConfig {
    fn default() -> Self {
        PrecondBenchConfig {
            n: 256,
            fixture: "tests/fixtures/spd_symmetric.mtx".into(),
            flips: vec![0, 2, 8, 32],
            max_iterations: 20_000,
            tolerance: 1e-10,
            repeats: 2,
        }
    }
}

impl PrecondBenchConfig {
    /// Tiny CI preset.
    pub fn smoke() -> Self {
        PrecondBenchConfig {
            n: 24,
            flips: vec![0, 8],
            max_iterations: 5_000,
            repeats: 1,
            ..PrecondBenchConfig::default()
        }
    }
}

/// One measured configuration of the sweep.
#[derive(Debug, Clone)]
pub struct PrecondBenchRow {
    /// Matrix label (`poisson_NxN` or the fixture's file stem).
    pub matrix: String,
    /// Preconditioner label (`ilu0`, `jacobi-neumann`).
    pub precond: String,
    /// Reliability policy label (`uniform`, `selective`).
    pub policy: String,
    /// Factor bit flips injected before the solve.
    pub factor_flips: usize,
    /// Mean wall time to the certified solution, nanoseconds (minimum over
    /// the repeats).
    pub mean_ns_to_solution: f64,
    /// Outer iterations to convergence.
    pub iterations: usize,
    /// Whether the solve converged within the budget.
    pub converged: bool,
    /// Whether the solution matches the fault-free reference.
    pub solution_ok: bool,
    /// Inner results the outer screen rejected (summed over regions).
    pub bounds_violations: u64,
    /// Errors the protected tier corrected in place (summed over regions).
    pub corrected: u64,
}

/// A concretely typed preconditioner, kept unboxed so the factor-injection
/// hooks stay reachable.
enum Built {
    Ilu(Ilu0),
    Poly(Polynomial),
}

impl Built {
    fn precond(&self) -> &dyn Preconditioner {
        match self {
            Built::Ilu(p) => p,
            Built::Poly(p) => p,
        }
    }

    fn factor_count(&self) -> usize {
        match self {
            Built::Ilu(p) => p.factor_count(),
            Built::Poly(p) => p.factor_count(),
        }
    }

    fn inject(&mut self, k: usize, bit: u32) {
        match self {
            Built::Ilu(p) => p.inject_factor_bit_flip(k, bit),
            Built::Poly(p) => p.inject_factor_bit_flip(k, bit),
        }
    }
}

/// `count` distinct factor indices (one flip per stored word keeps the
/// protected tier's per-word SECDED within its single-error budget, so the
/// uniform rows measure correction, not fail-stop).
fn distinct_indices(count: usize, domain: usize) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    if domain == 0 {
        return out;
    }
    let mut k = 13 % domain;
    while out.len() < count.min(domain) {
        while out.contains(&k) {
            k = (k + 1) % domain;
        }
        out.push(k);
        k = (k + 997) % domain;
    }
    out
}

fn relative_l2_distance(x: &[f64], reference: &[f64]) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for (a, b) in x.iter().zip(reference) {
        num += (a - b) * (a - b);
        den += b * b;
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

fn file_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// Resolves the fixture path from the repo root or the crate directory.
fn resolve_fixture(path: &str) -> String {
    [
        path.to_string(),
        format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR")),
    ]
    .into_iter()
    .find(|p| std::path::Path::new(p).exists())
    .unwrap_or_else(|| panic!("fixture {path} not found"))
}

/// Runs the matrix × preconditioner × policy × flip-count sweep.
pub fn precond_microbench(config: &PrecondBenchConfig) -> Vec<PrecondBenchRow> {
    let fixture_path = resolve_fixture(&config.fixture);
    let fixture = pad_rows_to_min_entries(
        &load_matrix_market(&fixture_path).expect("parse fixture"),
        4,
    );
    let matrices: Vec<(String, CsrMatrix)> = vec![
        (
            format!("poisson_{0}x{0}", config.n),
            poisson_2d_padded(config.n, config.n),
        ),
        (file_stem(&config.fixture), fixture),
    ];
    let solver = Solver::cg().config(SolverConfig::new(config.max_iterations, config.tolerance));
    let protection = ProtectionConfig::full(EccScheme::Secded64);
    let mut rows = Vec::new();

    for (matrix_label, matrix) in &matrices {
        let encoded = AnyProtectedMatrix::encode(matrix, &protection, StorageTier::Csr)
            .expect("encode matrix");
        let rhs: Vec<f64> = (0..matrix.rows())
            .map(|i| 1.0 + (i % 7) as f64 * 0.25)
            .collect();
        // The production FT-PCG path: protected outer loop, caller-tier
        // inner apply.
        let ft_pcg = |precond: &dyn Preconditioner| {
            solver.solve_encoded(&encoded, &rhs, Some(precond), &FaultLog::new())
        };

        // The fault-free reference every row's answer is checked against:
        // a clean uniform-tier ILU(0) solve.
        let reference_precond = Ilu0::new(
            matrix,
            Reliability::Protected,
            EccScheme::Secded64,
            Crc32cBackend::Auto,
        )
        .expect("factor reference ILU(0)");
        let reference = ft_pcg(&reference_precond)
            .expect("clean reference solve")
            .solution;

        // ILU(0) sweeps the flip counts; the polynomial fallback records
        // the fault-free per-iteration trade for patterns ILU rejects.
        let kinds: [(&str, Vec<usize>); 2] = [("ilu0", config.flips.clone()), ("poly", vec![0])];
        for (kind, flip_counts) in &kinds {
            for policy in [Reliability::Protected, Reliability::Unreliable] {
                for &flips in flip_counts {
                    let mut built = match *kind {
                        "ilu0" => Built::Ilu(
                            Ilu0::new(matrix, policy, EccScheme::Secded64, Crc32cBackend::Auto)
                                .expect("factor ILU(0)"),
                        ),
                        _ => Built::Poly(
                            Polynomial::new(
                                matrix,
                                2,
                                policy,
                                EccScheme::Secded64,
                                Crc32cBackend::Auto,
                            )
                            .expect("build polynomial"),
                        ),
                    };
                    // Severe (exponent-range) flips into distinct factor
                    // words: the uniform tier corrects them on first read;
                    // the selective tier keeps the distortion and pays in
                    // iterations.
                    for (i, k) in distinct_indices(flips, built.factor_count())
                        .into_iter()
                        .enumerate()
                    {
                        built.inject(k, 54 + (i % 8) as u32);
                    }

                    let outcome =
                        ft_pcg(built.precond()).expect("FT-PCG never returns a wrong answer");
                    let ns = best_of(config.repeats, 1, |_| {
                        let out =
                            ft_pcg(built.precond()).expect("FT-PCG never returns a wrong answer");
                        std::hint::black_box(out.solution);
                    });
                    rows.push(PrecondBenchRow {
                        matrix: matrix_label.clone(),
                        precond: (*kind).into(),
                        policy: policy.label().into(),
                        factor_flips: flips,
                        mean_ns_to_solution: ns,
                        iterations: outcome.status.iterations,
                        converged: outcome.status.converged,
                        solution_ok: relative_l2_distance(&outcome.solution, &reference) < 1e-6,
                        bounds_violations: outcome.faults.bounds_violations.iter().sum(),
                        corrected: outcome.faults.corrected.iter().sum(),
                    });
                }
            }
        }
    }
    rows
}

/// The per-matrix crossover summary: wall-clock ratios uniform/selective at
/// the fault-free and the most-corrupted end of the ILU(0) sweep.  A ratio
/// above 1 means selective reliability is winning.
#[derive(Debug, Clone)]
pub struct CrossoverPoint {
    /// Matrix label.
    pub matrix: String,
    /// `uniform ns / selective ns` with zero injected flips.
    pub fault_free_ratio: f64,
    /// The largest swept flip count.
    pub max_flips: usize,
    /// `uniform ns / selective ns` at `max_flips`.
    pub faulted_ratio: f64,
}

/// Computes the crossover summary from the measured ILU(0) rows.
pub fn crossover_points(rows: &[PrecondBenchRow]) -> Vec<CrossoverPoint> {
    let mut matrices: Vec<&str> = Vec::new();
    for row in rows {
        if !matrices.contains(&row.matrix.as_str()) {
            matrices.push(&row.matrix);
        }
    }
    let ns = |matrix: &str, policy: &str, flips: usize| {
        rows.iter()
            .find(|r| {
                r.matrix == matrix
                    && r.precond == "ilu0"
                    && r.policy == policy
                    && r.factor_flips == flips
            })
            .map(|r| r.mean_ns_to_solution)
            .unwrap_or(f64::NAN)
    };
    matrices
        .into_iter()
        .map(|matrix| {
            let max_flips = rows
                .iter()
                .filter(|r| r.matrix == matrix && r.precond == "ilu0")
                .map(|r| r.factor_flips)
                .max()
                .unwrap_or(0);
            CrossoverPoint {
                matrix: matrix.to_string(),
                fault_free_ratio: ns(matrix, "uniform", 0) / ns(matrix, "selective", 0),
                max_flips,
                faulted_ratio: ns(matrix, "uniform", max_flips)
                    / ns(matrix, "selective", max_flips),
            }
        })
        .collect()
}

/// Renders the sweep as one trajectory point ready to append to
/// `BENCH_precond.json`.
pub fn trajectory_point_json(
    label: &str,
    config: &PrecondBenchConfig,
    rows: &[PrecondBenchRow],
) -> Json {
    Json::obj([
        ("label", label.into()),
        (
            "workload",
            Json::obj([
                ("grid_n", config.n.into()),
                ("fixture", config.fixture.clone().into()),
                (
                    "flips",
                    Json::Arr(config.flips.iter().map(|&f| f.into()).collect()),
                ),
                ("max_iterations", config.max_iterations.into()),
                ("tolerance", config.tolerance.into()),
                ("repeats", config.repeats.into()),
            ]),
        ),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        Json::obj([
                            ("matrix", row.matrix.clone().into()),
                            ("precond", row.precond.clone().into()),
                            ("policy", row.policy.clone().into()),
                            ("factor_flips", row.factor_flips.into()),
                            ("mean_ns_to_solution", row.mean_ns_to_solution.into()),
                            ("iterations", row.iterations.into()),
                            ("converged", row.converged.into()),
                            ("solution_ok", row.solution_ok.into()),
                            ("bounds_violations", (row.bounds_violations as usize).into()),
                            ("corrected", (row.corrected as usize).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "crossover",
            Json::Arr(
                crossover_points(rows)
                    .iter()
                    .map(|point| {
                        Json::obj([
                            ("matrix", point.matrix.clone().into()),
                            ("fault_free_ratio", point.fault_free_ratio.into()),
                            ("max_flips", point.max_flips.into()),
                            ("faulted_ratio", point.faulted_ratio.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Plain-text table plus the crossover summary.
pub fn render_table(rows: &[PrecondBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:<8} {:<10} {:>6} {:>16} {:>11} {:>7} {:>8} {:>9} {:>10}\n",
        "matrix",
        "precond",
        "policy",
        "flips",
        "ns/solution",
        "iterations",
        "conv",
        "correct",
        "screened",
        "corrected"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<16} {:<8} {:<10} {:>6} {:>16.0} {:>11} {:>7} {:>8} {:>9} {:>10}\n",
            row.matrix,
            row.precond,
            row.policy,
            row.factor_flips,
            row.mean_ns_to_solution,
            row.iterations,
            row.converged,
            row.solution_ok,
            row.bounds_violations,
            row.corrected
        ));
    }
    out.push('\n');
    for point in crossover_points(rows) {
        out.push_str(&format!(
            "{}: uniform/selective time ratio {:.2}x fault-free -> {:.2}x at {} factor flips\n",
            point.matrix, point.fault_free_ratio, point.faulted_ratio, point.max_flips
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reaches_the_correct_answer_in_every_cell() {
        let config = PrecondBenchConfig::smoke();
        let rows = precond_microbench(&config);
        // 2 matrices × (2 policies × 2 flip counts for ILU + 2 fault-free
        // polynomial rows).
        assert_eq!(rows.len(), 2 * (2 * config.flips.len() + 2));
        for row in &rows {
            assert!(row.converged, "did not converge: {row:?}");
            assert!(row.solution_ok, "wrong answer: {row:?}");
        }
        // Iterations are deterministic: a corrupted selective-tier factor
        // set must cost iterations, never correctness; the uniform tier
        // corrects the same flips in place.
        for (matrix, flipped) in [("poisson_24x24", 8), ("spd_symmetric", 8)] {
            let find = |policy: &str, flips: usize| {
                rows.iter()
                    .find(|r| {
                        r.matrix == matrix
                            && r.precond == "ilu0"
                            && r.policy == policy
                            && r.factor_flips == flips
                    })
                    .unwrap_or_else(|| panic!("missing row {matrix}/{policy}/{flips}"))
            };
            let selective_faulted = find("selective", flipped);
            assert!(
                selective_faulted.iterations >= find("selective", 0).iterations,
                "factor corruption cannot speed up the selective tier: {selective_faulted:?}"
            );
            assert_eq!(
                selective_faulted.corrected, 0,
                "unreliable tier has no codewords"
            );
            let uniform_faulted = find("uniform", flipped);
            assert!(
                uniform_faulted.corrected > 0,
                "protected factors must correct the injected flips: {uniform_faulted:?}"
            );
            assert_eq!(
                uniform_faulted.iterations,
                find("uniform", 0).iterations,
                "corrected flips must not disturb the uniform trajectory"
            );
        }
        let point = trajectory_point_json("test", &config, &rows);
        assert!(point.render().contains("fault_free_ratio"));
        assert!(render_table(&rows).contains("uniform/selective"));
        assert_eq!(crossover_points(&rows).len(), 2);
    }
}
