//! The one row schema, the host block, the result file and `--compare`.

use crate::metrics::{END_TO_END, EXACT_COUNTS};
use crate::stats::Summary;
use abft_suite::ecc::crc32c::hardware_available;
use abft_suite::ecc::verify::{detected_isa, force_scalar_requested};
use abft_suite::faultsim::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Identifies the result-file layout.
pub const SCHEMA: &str = "abft-benchmark/1";
/// Pseudo-metric rows carrying the operation counts of a workload's
/// end-to-end run; the traced run's carry [`TRACED_PREFIX`].
pub const ATTEMPTED: &str = "attempted";
pub const FAILED: &str = "failed";
pub const TRACED_PREFIX: &str = "traced.";

/// Sum of the `kind` count rows ([`ATTEMPTED`] or [`FAILED`]) of both runs.
pub fn count_total(rows: &[Row], kind: &str) -> f64 {
    rows.iter()
        .filter(|r| r.metric.strip_prefix(TRACED_PREFIX).unwrap_or(&r.metric) == kind)
        .map(Row::value)
        .sum()
}

/// `workload, metric, value, unit, n, min, q1, median, q3, max`.  `value` is
/// the fastest repetition of a timing (see README, "Noise"); a single
/// observation repeats its value in every statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub stats: Summary,
}

impl Row {
    pub fn new(workload: &str, metric: &str, unit: &str, stats: Summary) -> Self {
        Row {
            workload: workload.into(),
            metric: metric.into(),
            unit: unit.into(),
            stats,
        }
    }

    pub fn value(&self) -> f64 {
        self.stats.min
    }

    fn to_json(&self) -> Json {
        let s = &self.stats;
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("metric", Json::Str(self.metric.clone())),
            ("value", Json::Num(s.min)),
            ("unit", Json::Str(self.unit.clone())),
            ("n", Json::Num(s.n as f64)),
            ("min", Json::Num(s.min)),
            ("q1", Json::Num(s.q1)),
            ("median", Json::Num(s.median)),
            ("q3", Json::Num(s.q3)),
            ("max", Json::Num(s.max)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let text = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("row without string `{key}`"))
        };
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("row without number `{key}`"))
        };
        Ok(Row {
            workload: text("workload")?,
            metric: text("metric")?,
            unit: text("unit")?,
            stats: Summary {
                n: num("n")? as usize,
                min: num("min")?,
                q1: num("q1")?,
                median: num("median")?,
                q3: num("q3")?,
                max: num("max")?,
            },
        })
    }

    /// `name = value unit  (n, quartiles)` as printed on the console.
    pub fn display(&self) -> String {
        let s = &self.stats;
        if s.n > 1 {
            format!(
                "{:<34} {:>14.6} {:<6} n={} q1={:.6} median={:.6} q3={:.6} max={:.6}",
                self.metric, s.min, self.unit, s.n, s.q1, s.median, s.q3, s.max
            )
        } else {
            format!("{:<34} {:>14.6} {}", self.metric, s.min, self.unit)
        }
    }
}

/// Serialises rows (the hand-off from a workload's child process).
pub fn rows_to_json(rows: &[Row]) -> Json {
    Json::Arr(rows.iter().map(Row::to_json).collect())
}

/// Parses rows written by [`rows_to_json`].
pub fn rows_from_json(json: &Json) -> Result<Vec<Row>, String> {
    json.as_arr()
        .ok_or("rows are not an array")?
        .iter()
        .map(Row::from_json)
        .collect()
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The directory this package was built from (`benchmark/`).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Everything a reader needs before comparing two result files.
pub fn host_block(seed: u64) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = package_dir();
    Json::obj([
        ("host_cores", Json::Num(cores as f64)),
        ("isa", Json::Str(detected_isa().label().into())),
        ("crc_hardware", Json::Bool(hardware_available())),
        ("force_scalar", Json::Bool(force_scalar_requested())),
        (
            "pool_workers",
            Json::Num(abft_suite::serve::workers() as f64),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"], &dir)),
        ),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], &dir)),
        ),
        // A decimal string: 64-bit seeds do not survive a trip through f64.
        ("seed", Json::Str(seed.to_string())),
    ])
}

/// Writes one result file: schema, host block, rows, summary.  The summary
/// ends with `"claim": null` — this benchmark measures, it claims no gain.
pub fn write_result(path: &Path, seed: u64, rows: &[Row]) -> Result<(), String> {
    let mut workloads: Vec<&str> = rows.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    let failed = count_total(rows, FAILED);
    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("host", host_block(seed)),
        ("rows", rows_to_json(rows)),
        (
            "summary",
            Json::obj([
                ("workloads", Json::Num(workloads.len() as f64)),
                ("attempted", Json::Num(count_total(rows, ATTEMPTED))),
                ("failed", Json::Num(failed)),
                ("correct", Json::Bool(failed == 0.0)),
                ("claim", Json::Null),
            ]),
        ),
    ]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

struct ResultFile {
    host: Json,
    rows: Vec<Row>,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_result(path: &Path) -> Result<ResultFile, String> {
    let doc = read_json(path)?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} result file", path.display()));
    }
    let host = doc
        .get("host")
        .cloned()
        .ok_or_else(|| format!("{}: no host block", path.display()))?;
    let rows = rows_from_json(doc.get("rows").unwrap_or(&Json::Null))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(ResultFile { host, rows })
}

/// The regression bound of every end-to-end metric, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Path) -> Result<Vec<(String, f64)>, String> {
    let doc = read_json(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "end_to_end entry without name and bound".to_string())
        })
        .collect()
}

/// Verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// samples overlap, so the medians decide nothing.
    Unresolved,
}

/// Compares a lower-is-better metric of the parent (`a`) and the change
/// (`b`) against `bound`, a share of the parent's value.
pub fn verdict(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    let change = (b.min - a.min) / a.min;
    if a.spread().max(b.spread()) > bound {
        return if b.max < a.min {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `run.sh --compare A B`: applies the bounds of `BENCHMARK.json` to every
/// end-to-end metric of every workload, demands equality of the exact
/// counts, and refuses files from different hosts.  Returns whether `B` is
/// free of regressions.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let (a, b) = (read_result(a)?, read_result(b)?);
    for key in ["isa", "host_cores"] {
        if a.host.get(key) != b.host.get(key) {
            return Err(format!(
                "refusing to compare: `{key}` differs ({:?} vs {:?})",
                a.host.get(key),
                b.host.get(key)
            ));
        }
    }
    let bounds = bounds(benchmark_json)?;
    let find = |rows: &'_ [Row], workload: &str, metric: &str| -> Option<Row> {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .cloned()
    };
    let mut workloads: Vec<&str> = a.rows.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();

    let mut clean = true;
    for workload in workloads {
        println!("{workload}");
        for metric in END_TO_END {
            let bound = bounds
                .iter()
                .find(|(name, _)| name == metric.name)
                .map(|(_, bound)| *bound)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", metric.name))?;
            let (Some(ra), Some(rb)) = (
                find(&a.rows, workload, metric.name),
                find(&b.rows, workload, metric.name),
            ) else {
                return Err(format!("{workload}: {} missing from one file", metric.name));
            };
            let verdict = verdict(&ra.stats, &rb.stats, bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "  {:<18} {:>12.6} -> {:>12.6} {:<3} {:+7.2}%  bound {:.0}%  spread {:.2}%/{:.2}%  {}",
                metric.name,
                ra.value(),
                rb.value(),
                metric.unit,
                (rb.value() - ra.value()) / ra.value() * 100.0,
                bound * 100.0,
                ra.stats.spread() * 100.0,
                rb.stats.spread() * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
        for metric in EXACT_COUNTS.iter().copied().chain([FAILED]) {
            let (va, vb) = (
                find(&a.rows, workload, metric).map(|r| r.value()),
                find(&b.rows, workload, metric).map(|r| r.value()),
            );
            let same = if metric == FAILED { vb <= va } else { va == vb };
            clean &= same;
            let show = |v: Option<f64>| v.map_or("missing".to_string(), |v| v.to_string());
            println!(
                "  {:<34} {} -> {}  {}",
                metric,
                show(va),
                show(vb),
                if same { "same" } else { "DIFFERS" }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(fastest: f64) -> Summary {
        Summary::of(&[fastest, fastest * 1.001, fastest * 1.002])
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(verdict(&tight(1.0), &tight(1.03), 0.07), Verdict::Unchanged);
        assert_eq!(verdict(&tight(1.0), &tight(1.10), 0.07), Verdict::Regressed);
        assert_eq!(verdict(&tight(1.0), &tight(0.80), 0.07), Verdict::Improved);
        let wide = Summary::of(&[0.8, 1.0, 1.2]);
        assert_eq!(verdict(&wide, &tight(1.0), 0.07), Verdict::Unresolved);
        // Wide, but every run of the change beats every run of the parent.
        assert_eq!(verdict(&wide, &tight(0.5), 0.07), Verdict::Improved);
    }

    #[test]
    fn rows_round_trip() {
        let rows = vec![
            Row::new("w", "solve_s", "s", Summary::of(&[1.0, 2.0, 3.5])),
            Row::new("w", "solvers.iterations", "count", Summary::single(457.0)),
        ];
        let text = rows_to_json(&rows).render();
        assert_eq!(rows_from_json(&Json::parse(&text).unwrap()).unwrap(), rows);
    }
}
