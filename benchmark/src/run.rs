//! Running the benchmark: one workload in this process, or the whole set
//! with every workload in a child process of its own.

use crate::report::{
    count_total, rows_from_json, rows_to_json, write_result, Row, ATTEMPTED, FAILED, TRACED_PREFIX,
};
use crate::stats::{time, Summary};
use crate::workloads::{build, Inputs, Spec, Unit, Workload, WORKLOADS};
use abft_suite::faultsim::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const DEFAULT_SECONDS: f64 = 8.0;
/// Measuring time of a `--smoke` run.
pub const SMOKE_SECONDS: f64 = 0.05;
/// Builds of the workload per run; `setup_s` is the fastest.
const SETUP_REPS: usize = 20;
/// Timed units per configuration, however long they take.
const MIN_TIMED_REPS: usize = 5;
/// Upper limit on timed units (tiny `--smoke` solves would spin for ever).
const MAX_TIMED_REPS: usize = 19;
/// Share of `--seconds` spent on the unprotected baseline.
const BASELINE_SHARE: f64 = 0.5;
/// Calls per kernel probe in a traced run.
const PROBE_REPS: usize = 15;

/// One invocation: a workload, a seed, a duration, traced or not.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one run measured: one row per catalogue metric of its kind, in
/// catalogue order, and the operations it checked on the way.
#[derive(Debug)]
pub struct RunResult {
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every value with all its digits.
    pub fn driver_line(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    row.metric,
                    row.value(),
                    row.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timings and oracle verdicts of one configuration's timed units.
struct Phase {
    stats: Summary,
    attempted: u64,
    failed: u64,
    /// The first timed unit (the baseline's serves as reference answer).
    first: Unit,
}

/// Repeats `unit` for `seconds` (at least [`MIN_TIMED_REPS`] times) after
/// one untimed warm-up, checking every timed unit against `reference` (or,
/// for the baseline itself, against its own first unit) as soon as it has
/// been produced.
fn measure(
    workload: &mut dyn Workload,
    seconds: f64,
    unit: fn(&mut dyn Workload) -> Unit,
    reference: Option<&Unit>,
) -> Phase {
    unit(workload);
    let started = Instant::now();
    let first = unit(workload);
    let mut samples = vec![first.seconds];
    let reference = reference.unwrap_or(&first);
    let mut failed = workload.failures(&first, reference) as u64;
    while samples.len() < MIN_TIMED_REPS
        || (started.elapsed().as_secs_f64() < seconds && samples.len() < MAX_TIMED_REPS)
    {
        let next = unit(workload);
        samples.push(next.seconds);
        failed += workload.failures(&next, reference) as u64;
    }
    Phase {
        stats: Summary::of(&samples),
        attempted: (samples.len() * reference.ops.len()) as u64,
        failed,
        first,
    }
}

/// The end-to-end run: set-up, baseline and protected units, tracing off.
fn run_end_to_end(args: &RunArgs, inputs: &Inputs) -> RunResult {
    let name = args.spec.name;
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous build first so two never coexist in peak_rss_mb.
        drop(workload.take());
        let (seconds, built) = time(|| build(args.spec, inputs));
        setup.push(seconds);
        workload = Some(built);
    }
    let mut workload = workload.expect("SETUP_REPS > 0");

    // Every timed operation is checked: the baseline's against the plain
    // matrix, the protected ones also against the baseline's answer.
    let baseline = measure(
        workload.as_mut(),
        args.seconds * BASELINE_SHARE,
        |w| w.baseline(),
        None,
    );
    let solve = measure(
        workload.as_mut(),
        args.seconds,
        |w| w.protected(),
        Some(&baseline.first),
    );

    let rows = vec![
        Row::new(name, "solve_s", "s", solve.stats),
        Row::new(name, "baseline_solve_s", "s", baseline.stats),
        Row::new(name, "setup_s", "s", Summary::of(&setup)),
        Row::new(name, "peak_rss_mb", "MB", Summary::single(peak_rss_mb())),
    ];
    RunResult {
        rows,
        attempted: baseline.attempted + solve.attempted,
        failed: baseline.failed + solve.failed,
    }
}

/// The traced run: per-layer budget, probes and counts.
fn run_traced(args: &RunArgs, inputs: &Inputs) -> RunResult {
    let mut workload = build(args.spec, inputs);
    let reps = if args.smoke { 3 } else { PROBE_REPS };
    let layers = workload.layers(reps);
    let mut failed = layers.failed as u64;
    if let Err(why) = &layers.trace {
        eprintln!("{}: {why}", args.spec.name);
        failed += 1;
    }
    RunResult {
        rows: layers
            .values
            .complete()
            .into_iter()
            .map(|(m, value)| Row::new(args.spec.name, m.name, m.unit, Summary::single(value)))
            .collect(),
        // The trace check counts as one more checked operation.
        attempted: layers.attempted as u64 + 1,
        failed,
    }
}

/// Runs one workload in this process and prints every metric by name.
pub fn run_one(args: &RunArgs) -> RunResult {
    let inputs = Inputs::generate(args.spec, args.seed, args.smoke);
    let result = if args.trace {
        run_traced(args, &inputs)
    } else {
        run_end_to_end(args, &inputs)
    };
    println!(
        "{} (seed {}, trace {})",
        args.spec.name,
        args.seed,
        u8::from(args.trace)
    );
    for row in &result.rows {
        println!("  {}", row.display());
    }
    println!(
        "  {:<34} {:>14} of {} operations",
        FAILED, result.failed, result.attempted
    );
    result
}

/// Writes a run's rows, and its operation counts as two more rows, where
/// the parent process will pick them up.
pub fn write_rows(path: &Path, args: &RunArgs, result: &RunResult) -> Result<(), String> {
    let prefix = if args.trace { TRACED_PREFIX } else { "" };
    let counts = [(ATTEMPTED, result.attempted), (FAILED, result.failed)].map(|(kind, n)| {
        Row::new(
            args.spec.name,
            &format!("{prefix}{kind}"),
            "count",
            Summary::single(n as f64),
        )
    });
    let rows: Vec<Row> = result.rows.iter().cloned().chain(counts).collect();
    std::fs::write(path, rows_to_json(&rows).render())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Options of the whole-set mode.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub only: Option<&'static Spec>,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out: PathBuf,
}

/// Runs every workload (or the one named), each twice in a child process of
/// its own — tracing off for the end-to-end metrics, then one traced run —
/// and writes one result file.  Returns whether every output was correct.
pub fn run_suite(args: &SuiteArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    if let Some(dir) = args.out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let hand_off = args.out.with_extension("rows.tmp");
    let mut rows = Vec::new();
    let mut all_ran = true;
    for spec in WORKLOADS
        .iter()
        .filter(|w| args.only.is_none_or(|only| only.name == w.name))
    {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--rows")
                .arg(&hand_off);
            if args.smoke {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_ran &= status.success();
            let text = std::fs::read_to_string(&hand_off)
                .map_err(|e| format!("{} wrote no rows: {e}", spec.name))?;
            let _ = std::fs::remove_file(&hand_off);
            rows.extend(rows_from_json(&Json::parse(&text)?)?);
        }
    }
    write_result(&args.out, args.seed, &rows)?;
    let failed = count_total(&rows, FAILED);
    println!(
        "wrote {} ({} rows, {} failed operations, claim: null)",
        args.out.display(),
        rows.len(),
        failed
    );
    Ok(all_ran && failed == 0.0)
}
