//! CI fault-coverage gate (`coverage --check`).
//!
//! The end-to-end benchmark (`benchmark/`) measures what the protected
//! kernels *cost*; this gate protects their *effectiveness*.  It re-runs
//! a fixed-seed smoke fault-injection campaign on the current build — single
//! bit flips into every region under every scheme, plus the erasure
//! scenarios of the parity tier — and compares the outcome rates against the
//! last committed ones in `BENCH_coverage.json`.  A change that silently
//! stops detecting flips, loses a correction path, or breaks the
//! parity-rebuild ladder shows up as a rate drop; campaigns are
//! deterministic for a given seed (per-trial ChaCha streams), so on the
//! committing host the fresh rates reproduce the committed ones exactly and
//! the tolerance ([`TOLERANCE_PP`]) only absorbs cross-host floating-point
//! drift in the correctness threshold.  A committed row that the build no
//! longer measures fails the gate too, so renaming or dropping a scenario
//! cannot pass it silently.
//!
//! Three rates are gated, and only *drops* fail (rates may improve freely):
//!
//! * `safe_pct` — trials without silent corruption;
//! * `recovered_pct` — trials that still produced the correct answer
//!   (corrected, rebuilt from parity, or masked);
//! * `rebuilt_pct` — trials recovered specifically through the XOR parity
//!   tier, so a regression that quietly routes around the erasure ladder
//!   (e.g. erasures suddenly classified as masked) cannot hide behind an
//!   unchanged recovery rate.

use crate::json::Json;
use crate::{
    Campaign, CampaignConfig, CampaignStats, FaultOutcome, FaultSpec, FaultTarget, InjectionKind,
    StopRule, StreamConfig, TrialDraw,
};
use abft_core::{Crc32cBackend, EccScheme, ParityConfig, ProtectionConfig, StorageTier};
use abft_solvers::Reliability;
use abft_tealeaf::{Deck, Simulation};

/// Allowed drop of each gated rate, in percentage points.
pub const TOLERANCE_PP: f64 = 5.0;

/// Gate configuration.
#[derive(Debug, Clone)]
pub struct CoverageConfig {
    /// Committed coverage baseline file.
    pub baseline: String,
    /// Grid cells in x of each trial's TeaLeaf problem.
    pub nx: usize,
    /// Grid cells in y of each trial's TeaLeaf problem.
    pub ny: usize,
    /// Trials per (injection, scheme, target) row.
    pub trials: usize,
    /// Campaign seed (the committed rates are reproducible from it).
    pub seed: u64,
    /// When set, rows run through the streaming engine with an adaptive
    /// stop rule targeting this Wilson lower bound on the safety rate:
    /// `trials` becomes a *maximum* and each row stops as soon as the
    /// spending-corrected bound proves the target (or futility).  `None`
    /// (the gate's setting) runs every trial, keeping the measured rates
    /// bitwise identical to the committed baseline on the same host.  The
    /// COO-parallel rows sweep a fixed window either way.
    pub stop_lb: Option<f64>,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        CoverageConfig {
            baseline: "BENCH_coverage.json".into(),
            nx: 16,
            ny: 16,
            trials: 40,
            seed: 0xABF7,
            stop_lb: None,
        }
    }
}

/// One measured campaign row.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Injection model label (`bit flip`, `chunk erasure (parity)`, …).
    pub injection: String,
    /// Protection scheme label.
    pub scheme: String,
    /// Target region label.
    pub target: String,
    /// Trials run.
    pub trials: usize,
    /// Percentage of trials without silent corruption.
    pub safe_pct: f64,
    /// Percentage of trials that still produced the correct answer.
    pub recovered_pct: f64,
    /// Percentage of trials rebuilt through the XOR parity tier.
    pub rebuilt_pct: f64,
}

/// The parity geometry of the erasure scenarios: small chunks so the smoke
/// grid still contains several stripes.
fn smoke_parity() -> ParityConfig {
    ParityConfig {
        stripe_chunks: 4,
        chunk_words: 16,
    }
}

fn run_campaign(
    config: CampaignConfig,
    injection_label: &str,
    scheme: EccScheme,
    stop_lb: Option<f64>,
) -> CoverageRow {
    let target = config.target;
    let stream = StreamConfig {
        stop: stop_lb.map(StopRule::target),
        ..StreamConfig::default()
    };
    let stats = Campaign::new(config).run_streaming(&stream).stats;
    coverage_row(injection_label, scheme, target, &stats)
}

fn coverage_row(
    injection_label: &str,
    scheme: EccScheme,
    target: FaultTarget,
    stats: &CampaignStats,
) -> CoverageRow {
    CoverageRow {
        injection: injection_label.to_string(),
        scheme: scheme.label().to_string(),
        target: target.label().to_string(),
        trials: stats.trials(),
        safe_pct: 100.0 * stats.safety_rate(),
        recovered_pct: 100.0 * stats.recovery_rate(),
        rebuilt_pct: 100.0 * stats.rate(FaultOutcome::DetectedRebuilt),
    }
}

/// Grid of the COO-parallel rows: 73 × 71 = 5183 rows is past the pool's
/// 4096-row minimum chunk, so on any host with at least two lanes the SpMV
/// of a parallel-configured matrix splits it into two row ranges, the second
/// starting at row 2592 — an interior cell (x = 37), whose five entries are
/// all non-zero (a boundary row leads with an explicit zero, which would
/// mask a stepped-over first element).  One lane runs the same trials as one
/// range.
const COO_PARALLEL_GRID: (usize, usize) = (73, 71);

/// Row-index flips under COO with the parallel kernels, aimed where uniform
/// draws all but never land: the elements of the *first row of the second
/// parallel range*, which that range has to find by bisecting row indices
/// one of which now reads lower than it is.  The window is every single-bit
/// flip that lowers such an index — the row's elements × the set bits of
/// its number, 5 × 3 cases here — swept in order and capped at
/// `config.trials`; a kernel that bisects the unchecked indices steps over
/// the element in 6 of the 15, far outside the gate's tolerance.
fn coo_parallel_row(config: &CoverageConfig, scheme: EccScheme) -> CoverageRow {
    let target = FaultTarget::RowPointer;
    let (nx, ny) = COO_PARALLEL_GRID;
    let campaign = Campaign::new(CampaignConfig {
        nx,
        ny,
        protection: ProtectionConfig::full(scheme)
            .with_crc_backend(Crc32cBackend::Hardware)
            .with_parallel(true),
        target,
        storage: StorageTier::Coo,
        ..CampaignConfig::default()
    });
    let (matrix, _) = Simulation::new(Deck::standard(nx, ny, 1)).assemble();
    let row0 = matrix.rows().div_ceil(2);
    let lowering = (0..24u32).filter(|bit| row0 >> bit & 1 == 1);
    let window = matrix
        .row_range(row0)
        .flat_map(|element| lowering.clone().map(move |bit| (element, bit)));
    let mut stats = CampaignStats::default();
    for flip in window.take(config.trials) {
        let draw = TrialDraw::Flips(FaultSpec {
            target,
            flips: vec![flip],
        });
        stats.record(campaign.execute_draw(&draw).outcome);
    }
    coverage_row("bit flip (coo, parallel)", scheme, target, &stats)
}

/// Runs the smoke campaign matrix and returns one row per configuration:
/// single bit flips for every scheme × region, the erasure scenarios (chunk
/// erasure with and without the parity tier, row-pointer codeword group
/// erasure), the selective-reliability scenarios, then the COO-parallel
/// range-start flips.
pub fn measure_coverage(config: &CoverageConfig) -> Vec<CoverageRow> {
    let base = CampaignConfig {
        nx: config.nx,
        ny: config.ny,
        trials: config.trials,
        seed: config.seed,
        ..CampaignConfig::default()
    };
    let mut rows = Vec::new();
    for scheme in [
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        for target in FaultTarget::ALL {
            rows.push(run_campaign(
                CampaignConfig {
                    protection: ProtectionConfig::full(scheme)
                        .with_crc_backend(Crc32cBackend::Hardware),
                    target,
                    flips_per_trial: 1,
                    injection: InjectionKind::BitFlips,
                    ..base.clone()
                },
                "bit flip",
                scheme,
                config.stop_lb,
            ));
        }
    }
    // The COO tier carries the matrix-side redundancy differently (per-element
    // codewords plus a SECDED code over every element's row index), so its
    // matrix-region coverage is gated separately — a tier-specific decode
    // regression must not be able to hide behind unchanged CSR rates.
    for scheme in [
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        for target in [
            FaultTarget::MatrixValues,
            FaultTarget::MatrixColumnIndices,
            FaultTarget::RowPointer,
        ] {
            rows.push(run_campaign(
                CampaignConfig {
                    protection: ProtectionConfig::full(scheme)
                        .with_crc_backend(Crc32cBackend::Hardware),
                    target,
                    flips_per_trial: 1,
                    injection: InjectionKind::BitFlips,
                    storage: StorageTier::Coo,
                    ..base.clone()
                },
                "bit flip (coo)",
                scheme,
                config.stop_lb,
            ));
        }
    }
    // Mid-iteration strikes on the *live* CG vectors (x, r, p): the fault
    // lands between two iterations through the solver's poll hook, so the
    // vector scrub — not the at-rest encode path — is what must catch it.
    for scheme in [
        EccScheme::Sed,
        EccScheme::Secded64,
        EccScheme::Secded128,
        EccScheme::Crc32c,
    ] {
        for (injection, label, flips) in [
            (InjectionKind::SolverVectorFlips, "solver-vector flip", 1),
            (InjectionKind::SolverVectorBurst, "solver-vector burst", 8),
        ] {
            rows.push(run_campaign(
                CampaignConfig {
                    protection: ProtectionConfig::full(scheme)
                        .with_crc_backend(Crc32cBackend::Hardware),
                    target: FaultTarget::DenseVector,
                    injection,
                    flips_per_trial: flips,
                    ..base.clone()
                },
                label,
                scheme,
                config.stop_lb,
            ));
        }
    }
    rows.push(run_campaign(
        CampaignConfig {
            protection: ProtectionConfig::full(EccScheme::Secded64).with_parity(smoke_parity()),
            target: FaultTarget::DenseVector,
            injection: InjectionKind::ChunkErasure,
            ..base.clone()
        },
        "chunk erasure (parity)",
        EccScheme::Secded64,
        config.stop_lb,
    ));
    rows.push(run_campaign(
        CampaignConfig {
            protection: ProtectionConfig::full(EccScheme::Secded64),
            target: FaultTarget::DenseVector,
            injection: InjectionKind::ChunkErasure,
            ..base.clone()
        },
        "chunk erasure (no parity)",
        EccScheme::Secded64,
        config.stop_lb,
    ));
    rows.push(run_campaign(
        CampaignConfig {
            protection: ProtectionConfig::full(EccScheme::Secded64),
            target: FaultTarget::RowPointer,
            injection: InjectionKind::RowPointerGroupErasure,
            ..base.clone()
        },
        "row-pointer group erasure",
        EccScheme::Secded64,
        config.stop_lb,
    ));
    // Selective-reliability scenarios: faults aimed at the inner-outer
    // FT-PCG's preconditioner — single flips and multi-bit bursts in the
    // ILU(0) factors, plus bursts struck into the inner-apply output right
    // at the reliability boundary — in both tiers.  The protected tier must
    // keep correcting/fail-stopping; the unreliable tier carries zero
    // redundancy, so its safety rate gates the outer loop's bounded-norm
    // screen plus the certified residual recomputation.
    for (injection, label, flips, policy) in [
        (
            InjectionKind::PrecondFactorFlips,
            "precond factor flip (protected)",
            1,
            Reliability::Protected,
        ),
        (
            InjectionKind::PrecondFactorFlips,
            "precond factor flip (unreliable)",
            1,
            Reliability::Unreliable,
        ),
        (
            InjectionKind::PrecondFactorBurst,
            "precond factor burst (protected)",
            8,
            Reliability::Protected,
        ),
        (
            InjectionKind::PrecondFactorBurst,
            "precond factor burst (unreliable)",
            8,
            Reliability::Unreliable,
        ),
        (
            InjectionKind::InnerApplyBurst,
            "inner-apply burst (protected)",
            8,
            Reliability::Protected,
        ),
        (
            InjectionKind::InnerApplyBurst,
            "inner-apply burst (unreliable)",
            8,
            Reliability::Unreliable,
        ),
    ] {
        rows.push(run_campaign(
            CampaignConfig {
                protection: ProtectionConfig::full(EccScheme::Secded64),
                target: FaultTarget::DenseVector,
                injection,
                flips_per_trial: flips,
                precond_reliability: policy,
                ..base.clone()
            },
            label,
            EccScheme::Secded64,
            config.stop_lb,
        ));
    }
    for scheme in [EccScheme::Secded64, EccScheme::Crc32c] {
        rows.push(coo_parallel_row(config, scheme));
    }
    rows
}

/// Plain-text table of measured coverage rows.
pub fn render_table(rows: &[CoverageRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:<12} {:<24} {:>7} {:>8} {:>11} {:>9}\n",
        "injection", "scheme", "target", "trials", "safe %", "recovered %", "rebuilt %"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<26} {:<12} {:<24} {:>7} {:>8.1} {:>11.1} {:>9.1}\n",
            row.injection,
            row.scheme,
            row.target,
            row.trials,
            row.safe_pct,
            row.recovered_pct,
            row.rebuilt_pct
        ));
    }
    out
}

/// The machine-readable document committed as `BENCH_coverage.json`.
pub fn coverage_json(config: &CoverageConfig, rows: &[CoverageRow]) -> Json {
    Json::obj([
        (
            "workload",
            Json::obj([
                ("nx", config.nx.into()),
                ("ny", config.ny.into()),
                ("trials", config.trials.into()),
                ("seed", (config.seed as usize).into()),
            ]),
        ),
        (
            "coverage",
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        Json::obj([
                            ("injection", row.injection.clone().into()),
                            ("scheme", row.scheme.clone().into()),
                            ("target", row.target.clone().into()),
                            ("trials", row.trials.into()),
                            ("safe_pct", row.safe_pct.into()),
                            ("recovered_pct", row.recovered_pct.into()),
                            ("rebuilt_pct", row.rebuilt_pct.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One compared row of the gate.
#[derive(Debug, Clone)]
pub struct CoverageGateRow {
    /// Injection model label.
    pub injection: String,
    /// Scheme label.
    pub scheme: String,
    /// Target region label.
    pub target: String,
    /// The gated metric (`safe`, `recovered`, or `rebuilt`).
    pub metric: &'static str,
    /// Committed rate in percent.
    pub baseline_pct: f64,
    /// Freshly measured rate in percent.
    pub fresh_pct: f64,
    /// Whether the fresh rate dropped below the committed one by more than
    /// [`TOLERANCE_PP`].
    pub dropped: bool,
}

/// The gate's verdict.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// All compared metrics.
    pub rows: Vec<CoverageGateRow>,
}

impl CoverageReport {
    /// True when any gated rate dropped beyond the tolerance.
    pub fn dropped(&self) -> bool {
        self.rows.iter().any(|row| row.dropped)
    }

    /// Plain-text table of the comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:<12} {:<24} {:<10} {:>10} {:>8}  {}\n",
            "injection", "scheme", "target", "metric", "baseline", "fresh", "verdict"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<26} {:<12} {:<24} {:<10} {:>9.1}% {:>7.1}%  {}\n",
                row.injection,
                row.scheme,
                row.target,
                row.metric,
                row.baseline_pct,
                row.fresh_pct,
                if row.dropped { "DROPPED" } else { "ok" }
            ));
        }
        out.push_str(&format!(
            "tolerance: -{TOLERANCE_PP:.1} percentage points on each rate\n"
        ));
        out
    }
}

fn str_field<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or("")
}

fn num_field(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Runs the gate: re-measures the committed workload (size, trial count and
/// seed are read back from the baseline so the rates are comparable) and
/// fails any rate that dropped by more than [`TOLERANCE_PP`].  A committed
/// row with no measured counterpart is an error naming the row.
pub fn check_coverage(config: &CoverageConfig) -> Result<CoverageReport, String> {
    let text = std::fs::read_to_string(&config.baseline)
        .map_err(|e| format!("cannot read baseline {}: {e}", config.baseline))?;
    let doc = Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", config.baseline))?;
    let workload = doc.get("workload");
    let usize_field = |key: &str, default: usize| {
        workload
            .and_then(|w| w.get(key))
            .and_then(Json::as_f64)
            .map(|v| v as usize)
            .unwrap_or(default)
    };
    let measured = measure_coverage(&CoverageConfig {
        nx: usize_field("nx", config.nx),
        ny: usize_field("ny", config.ny),
        trials: usize_field("trials", config.trials),
        seed: usize_field("seed", config.seed as usize) as u64,
        ..config.clone()
    });
    let baseline = doc
        .get("coverage")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no coverage array", config.baseline))?;

    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for base_row in baseline {
        let (injection, scheme, target) = (
            str_field(base_row, "injection"),
            str_field(base_row, "scheme"),
            str_field(base_row, "target"),
        );
        let Some(fresh) = measured
            .iter()
            .find(|r| r.injection == injection && r.scheme == scheme && r.target == target)
        else {
            missing.push(format!("{injection} / {scheme} / {target}"));
            continue;
        };
        for (metric, baseline_pct, fresh_pct) in [
            ("safe", num_field(base_row, "safe_pct"), fresh.safe_pct),
            (
                "recovered",
                num_field(base_row, "recovered_pct"),
                fresh.recovered_pct,
            ),
            (
                "rebuilt",
                num_field(base_row, "rebuilt_pct"),
                fresh.rebuilt_pct,
            ),
        ] {
            if !baseline_pct.is_finite() {
                continue;
            }
            rows.push(CoverageGateRow {
                injection: injection.to_string(),
                scheme: scheme.to_string(),
                target: target.to_string(),
                metric,
                baseline_pct,
                fresh_pct,
                dropped: fresh_pct < baseline_pct - TOLERANCE_PP,
            });
        }
    }
    if !missing.is_empty() {
        return Err(format!(
            "{}: committed rows not measured by this build: {}",
            config.baseline,
            missing.join("; ")
        ));
    }
    if rows.is_empty() {
        return Err("coverage gate compared zero rows — baseline empty or mismatched".into());
    }
    Ok(CoverageReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_against_its_own_measurement_and_fails_on_inflated_baseline() {
        let small = CoverageConfig {
            nx: 12,
            ny: 12,
            trials: 4,
            seed: 99,
            baseline: String::new(),
            stop_lb: None,
        };
        let rows = measure_coverage(&small);
        // 4 schemes x 4 targets of CSR bit flips, 4 schemes x 3 matrix-side
        // targets through the COO tier, 4 schemes x 2 live solver-vector
        // strikes, the 3 erasure scenarios, the 6 selective-reliability
        // preconditioner scenarios, plus the 2 COO-parallel range-start rows.
        assert_eq!(rows.len(), 47);
        assert!(render_table(&rows).contains("chunk erasure (parity)"));
        assert!(render_table(&rows).contains("bit flip (coo)"));
        assert!(render_table(&rows).contains("solver-vector flip"));
        assert!(render_table(&rows).contains("solver-vector burst"));
        // Every preconditioner scenario — protected or unreliable — must be
        // free of silent corruption: the unreliable tier's safety comes from
        // the outer screen, not from luck.
        for row in rows.iter().filter(|r| {
            r.injection.starts_with("precond") || r.injection.starts_with("inner-apply")
        }) {
            assert_eq!(
                row.safe_pct, 100.0,
                "selective-reliability scenario leaked silent corruption: {row:?}"
            );
        }
        let parity_row = rows
            .iter()
            .find(|r| r.injection == "chunk erasure (parity)")
            .unwrap();
        assert!(
            parity_row.rebuilt_pct > 0.0,
            "parity scenario must exercise the rebuild ladder: {parity_row:?}"
        );

        let path = std::env::temp_dir().join("abft_gate_coverage.json");
        std::fs::write(&path, coverage_json(&small, &rows).render()).unwrap();
        let config = CoverageConfig {
            baseline: path.to_string_lossy().into_owned(),
            ..small.clone()
        };
        let report = check_coverage(&config).unwrap();
        assert!(!report.dropped(), "{}", report.render());
        assert!(report.render().contains("rebuilt"));

        // A baseline claiming better coverage than the build delivers must
        // fail the gate.
        let mut inflated = rows.clone();
        for row in &mut inflated {
            row.recovered_pct = 200.0;
        }
        let bad = std::env::temp_dir().join("abft_gate_coverage_bad.json");
        std::fs::write(&bad, coverage_json(&small, &inflated).render()).unwrap();
        let report = check_coverage(&CoverageConfig {
            baseline: bad.to_string_lossy().into_owned(),
            ..small.clone()
        })
        .unwrap();
        assert!(report.dropped(), "{}", report.render());

        // A committed row the build no longer measures — a scenario renamed
        // or dropped — must fail the gate and name the row.
        let mut extra = rows.clone();
        extra.push(CoverageRow {
            injection: "retired scenario".into(),
            ..rows[0].clone()
        });
        let stale = std::env::temp_dir().join("abft_gate_coverage_stale.json");
        std::fs::write(&stale, coverage_json(&small, &extra).render()).unwrap();
        let err = check_coverage(&CoverageConfig {
            baseline: stale.to_string_lossy().into_owned(),
            ..small
        })
        .unwrap_err();
        assert!(
            err.contains("retired scenario / SED / matrix values"),
            "{err}"
        );
    }

    #[test]
    fn gate_errors_on_missing_baseline() {
        let config = CoverageConfig {
            baseline: "/nonexistent/BENCH_coverage.json".into(),
            ..CoverageConfig::default()
        };
        assert!(check_coverage(&config).is_err());
    }
}
