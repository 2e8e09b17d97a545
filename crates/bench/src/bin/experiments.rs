//! `experiments` — regenerates the paper's tables and figures from the
//! command line.
//!
//! ```text
//! experiments --all                 # every figure at the default size
//! experiments --figure 4            # a single figure
//! experiments --figure 8 --nx 512 --ny 512 --iters 100
//! experiments --full                # the paper's 2048x2048 deck size
//! experiments --convergence         # §VI-B convergence-impact study
//! experiments --campaign            # fault-injection summary
//! experiments --crc-capability      # §IV CRC32C capability table
//! experiments --parallel            # use the Rayon kernels
//! experiments --json results.json   # also dump machine-readable results
//! ```
//!
//! Absolute times depend on the host; the quantity to compare against the
//! paper is the *relative overhead* column and its ordering across schemes.

use abft_bench::coverage::{self, check_coverage, measure_coverage, CoverageConfig};
use abft_bench::matrix_file::{self, matrix_file_report, MatrixFileConfig};
use abft_bench::{
    combined_full_protection, convergence_impact, fault_campaign_summary, figure4, figure5,
    figure6, figure7, figure8, figure9, FigureTable, MeasurementConfig,
};
use abft_ecc::analysis::{crc32c_hd6_window, operating_points, sweep_crc32c};
use abft_ecc::{Crc32c, Crc32cBackend};
use abft_faultsim::json::Json;

#[derive(Debug, Clone)]
struct Args {
    figures: Vec<u32>,
    all: bool,
    convergence: bool,
    campaign: bool,
    crc_capability: bool,
    combined: bool,
    full: bool,
    smoke: bool,
    bench_coverage: bool,
    check_coverage: bool,
    baseline_coverage: String,
    coverage_tolerance: f64,
    matrix_file: Option<String>,
    num_blocks: usize,
    parallel: bool,
    nx: usize,
    ny: usize,
    iterations: usize,
    repeats: usize,
    trials: usize,
    trials_explicit: bool,
    stop_lb: Option<f64>,
    json: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            figures: Vec::new(),
            all: false,
            convergence: false,
            campaign: false,
            crc_capability: false,
            combined: false,
            full: false,
            smoke: false,
            bench_coverage: false,
            check_coverage: false,
            baseline_coverage: "BENCH_coverage.json".to_string(),
            coverage_tolerance: 5.0,
            matrix_file: None,
            num_blocks: 8,
            parallel: false,
            nx: 256,
            ny: 256,
            iterations: 50,
            repeats: 3,
            trials: 200,
            trials_explicit: false,
            stop_lb: None,
            json: None,
        }
    }
}

const HELP: &str = "experiments — regenerate the paper's figures.
  --all                run every figure (default)
  --figure N           run figure N (4..=9), repeatable
  --combined           full matrix + vector protection table (§VII-B)
  --convergence        §VI-B convergence-impact study
  --campaign           fault-injection outcome summary
  --crc-capability     §IV CRC32C detection-capability table
  --full               paper-sized workload (2048x2048, 100 CG iterations)
  --smoke              tiny CI preset: every section at 24x24, 3 iterations
  --bench-coverage     fixed-seed smoke fault-coverage campaign: bit flips for
                       every scheme x region plus the parity-tier erasure
                       scenarios (the BENCH_coverage.json matrix)
  --check-coverage     CI gate: re-run the smoke coverage campaign and compare
                       safe / recovered / rebuilt rates against the committed
                       BENCH_coverage.json (exit 1 on a rate drop)
  --baseline-coverage P coverage baseline file for --check-coverage
  --coverage-tolerance PP allowed rate drop (percentage points) for
                       --check-coverage
  --matrix-file M      run the protected kernels on a Matrix Market file:
                       SpMV overhead per scheme on every storage tier (CSR,
                       COO, blocked CSR), plus a per-tier matrix-protected
                       CG solve when the operator is symmetric
  --num-blocks B       block count of the blocked-CSR tier for --matrix-file
                       (default 8)
  --parallel           use the Rayon-parallel kernels
  --nx N / --ny N      grid size (default 256x256)
  --iters N            CG iterations per timed solve (default 50)
  --repeats N          timed repetitions, minimum reported (default 3)
  --trials N           fault-injection trials per configuration (default 200;
                       for --bench-coverage, overrides the per-row trial count)
  --stop-lb LB         --bench-coverage only: stream each row through the
                       adaptive engine, stopping early once the
                       spending-corrected Wilson lower bound on its safety
                       rate reaches LB (e.g. 0.995); --trials becomes the
                       per-row maximum
  --json PATH          additionally write machine-readable JSON";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut iter = std::env::args().skip(1);
    let mut any = false;
    while let Some(arg) = iter.next() {
        any = true;
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--all" => args.all = true,
            "--figure" => args
                .figures
                .push(value("--figure")?.parse().map_err(|e| format!("{e}"))?),
            "--convergence" => args.convergence = true,
            "--campaign" => args.campaign = true,
            "--crc-capability" => args.crc_capability = true,
            "--combined" => args.combined = true,
            "--full" => args.full = true,
            "--smoke" => args.smoke = true,
            "--bench-coverage" => args.bench_coverage = true,
            "--check-coverage" => args.check_coverage = true,
            "--baseline-coverage" => args.baseline_coverage = value("--baseline-coverage")?,
            "--coverage-tolerance" => {
                args.coverage_tolerance = value("--coverage-tolerance")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--matrix-file" => args.matrix_file = Some(value("--matrix-file")?),
            "--num-blocks" => {
                args.num_blocks = value("--num-blocks")?.parse().map_err(|e| format!("{e}"))?
            }
            "--parallel" => args.parallel = true,
            "--nx" => args.nx = value("--nx")?.parse().map_err(|e| format!("{e}"))?,
            "--ny" => args.ny = value("--ny")?.parse().map_err(|e| format!("{e}"))?,
            "--iters" => args.iterations = value("--iters")?.parse().map_err(|e| format!("{e}"))?,
            "--repeats" => {
                args.repeats = value("--repeats")?.parse().map_err(|e| format!("{e}"))?
            }
            "--trials" => {
                args.trials = value("--trials")?.parse().map_err(|e| format!("{e}"))?;
                args.trials_explicit = true;
            }
            "--stop-lb" => {
                args.stop_lb = Some(value("--stop-lb")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--json" => args.json = Some(value("--json")?),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !any {
        args.all = true;
    }
    if args.full {
        args.nx = 2048;
        args.ny = 2048;
        args.iterations = 100;
        args.repeats = 1;
    }
    if args.smoke {
        args.all = true;
        args.nx = 24;
        args.ny = 24;
        args.iterations = 3;
        args.repeats = 1;
        args.trials = 20;
    }
    Ok(args)
}

#[derive(Default)]
struct JsonOutput {
    figures: Vec<FigureTable>,
    convergence: Vec<abft_bench::ConvergenceRow>,
    campaign: Vec<abft_bench::CampaignRow>,
    crc_capability: Vec<(String, Json)>,
}

impl JsonOutput {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "figures",
                Json::Arr(self.figures.iter().map(figure_json).collect()),
            ),
            (
                "convergence",
                Json::Arr(self.convergence.iter().map(convergence_json).collect()),
            ),
            (
                "campaign",
                Json::Arr(self.campaign.iter().map(campaign_json).collect()),
            ),
            ("crc_capability", Json::Obj(self.crc_capability.clone())),
        ])
    }
}

fn figure_json(table: &FigureTable) -> Json {
    Json::obj([
        ("figure", table.figure.clone().into()),
        ("title", table.title.clone().into()),
        ("workload", table.workload.clone().into()),
        ("baseline_seconds", table.baseline_seconds.into()),
        (
            "rows",
            Json::Arr(
                table
                    .rows
                    .iter()
                    .map(|row| {
                        Json::obj([
                            ("label", row.label.clone().into()),
                            ("seconds", row.seconds.into()),
                            ("overhead_pct", row.overhead_pct.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn convergence_json(row: &abft_bench::ConvergenceRow) -> Json {
    Json::obj([
        ("scheme", row.scheme.clone().into()),
        ("iterations", row.iterations.into()),
        ("baseline_iterations", row.baseline_iterations.into()),
        ("iteration_increase_pct", row.iteration_increase_pct.into()),
        (
            "solution_norm_difference_pct",
            row.solution_norm_difference_pct.into(),
        ),
    ])
}

fn campaign_json(row: &abft_bench::CampaignRow) -> Json {
    Json::obj([
        ("scheme", row.scheme.clone().into()),
        ("target", row.target.clone().into()),
        ("trials", row.trials.into()),
        ("corrected_pct", row.corrected_pct.into()),
        ("rebuilt_pct", row.rebuilt_pct.into()),
        ("detected_pct", row.detected_pct.into()),
        ("bounds_pct", row.bounds_pct.into()),
        ("masked_pct", row.masked_pct.into()),
        ("sdc_pct", row.sdc_pct.into()),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n{HELP}");
            std::process::exit(2);
        }
    };
    let m = MeasurementConfig {
        nx: args.nx,
        ny: args.ny,
        iterations: args.iterations,
        repeats: args.repeats,
        parallel: args.parallel,
    };
    let mut output = JsonOutput::default();

    if let Some(path) = &args.matrix_file {
        let config = MatrixFileConfig {
            path: path.clone(),
            num_blocks: args.num_blocks,
            iters: args.iterations.min(20),
            repeats: args.repeats,
            parallel: args.parallel,
        };
        match matrix_file_report(&config) {
            Ok(report) => {
                print!("{}", matrix_file::render_report(&report));
                if let Some(json_path) = &args.json {
                    std::fs::write(json_path, matrix_file::report_json(&report).render())
                        .expect("write JSON output");
                    println!("machine-readable results written to {json_path}");
                }
            }
            Err(err) => {
                eprintln!("--matrix-file failed: {err}");
                std::process::exit(1);
            }
        }
        return;
    }

    if args.check_coverage {
        let config = CoverageConfig {
            baseline: args.baseline_coverage.clone(),
            tolerance_pp: args.coverage_tolerance,
            ..CoverageConfig::default()
        };
        println!(
            "Fault-coverage gate: fresh fixed-seed campaign vs {} (tolerance -{} pp)",
            config.baseline, config.tolerance_pp
        );
        match check_coverage(&config) {
            Ok(report) => {
                print!("{}", report.render());
                if report.dropped() {
                    eprintln!("fault-coverage gate FAILED");
                    std::process::exit(1);
                }
                println!("fault-coverage gate passed");
            }
            Err(err) => {
                eprintln!("fault-coverage gate could not run: {err}");
                std::process::exit(1);
            }
        }
        return;
    }

    if args.bench_coverage {
        let defaults = CoverageConfig::default();
        let config = CoverageConfig {
            baseline: args.baseline_coverage.clone(),
            tolerance_pp: args.coverage_tolerance,
            trials: if args.trials_explicit {
                args.trials
            } else {
                defaults.trials
            },
            stop_lb: args.stop_lb,
            ..defaults
        };
        match config.stop_lb {
            Some(lb) => println!(
                "Fault-coverage campaign ({0}x{1} grid, <= {2} trials/row streamed, \
                 stop at safety lower bound {lb}, seed {3:#x})",
                config.nx, config.ny, config.trials, config.seed
            ),
            None => println!(
                "Fault-coverage campaign ({0}x{1} grid, {2} trials/row, seed {3:#x})",
                config.nx, config.ny, config.trials, config.seed
            ),
        }
        let rows = measure_coverage(&config);
        print!("{}", coverage::render_table(&rows));
        if let Some(path) = &args.json {
            std::fs::write(path, coverage::coverage_json(&config, &rows).render())
                .expect("write JSON output");
            println!("machine-readable results written to {path}");
        }
        return;
    }

    let run_all = args.all;
    let wants = |n: u32| run_all || args.figures.contains(&n);
    let intervals = [1u32, 2, 4, 8, 16, 32, 64, 128];

    let mut tables: Vec<FigureTable> = Vec::new();
    if wants(4) {
        tables.push(figure4(&m));
    }
    if wants(5) {
        tables.push(figure5(&m));
    }
    if wants(6) {
        tables.push(figure6(&m, &intervals));
    }
    if wants(7) {
        tables.push(figure7(&m, &intervals));
    }
    if wants(8) {
        tables.push(figure8(&m, &intervals));
    }
    if wants(9) {
        tables.push(figure9(&m));
    }
    if args.combined || run_all {
        tables.push(combined_full_protection(&m));
    }
    for table in &tables {
        println!("{}", table.render());
    }
    output.figures = tables;

    if args.convergence || run_all {
        let rows = convergence_impact(args.nx.min(256), args.ny.min(256));
        println!("Convergence impact of mantissa-bit masking (§VI-B)");
        println!(
            "{:<12} {:>12} {:>12} {:>16} {:>22}",
            "scheme", "iterations", "baseline", "iter increase %", "solution norm diff %"
        );
        for row in &rows {
            println!(
                "{:<12} {:>12} {:>12} {:>16.3} {:>22.3e}",
                row.scheme,
                row.iterations,
                row.baseline_iterations,
                row.iteration_increase_pct,
                row.solution_norm_difference_pct
            );
        }
        println!();
        output.convergence = rows;
    }

    if args.campaign || run_all {
        let rows = fault_campaign_summary(args.trials, 0xABF7);
        println!("Fault-injection outcomes (single bit flip per trial)");
        println!(
            "{:<12} {:<24} {:>7} {:>10} {:>8} {:>10} {:>8} {:>8} {:>6}",
            "scheme",
            "target",
            "trials",
            "corrected",
            "rebuilt",
            "detected",
            "bounds",
            "masked",
            "SDC"
        );
        for row in &rows {
            println!(
                "{:<12} {:<24} {:>7} {:>9.1}% {:>7.1}% {:>9.1}% {:>7.1}% {:>7.1}% {:>5.1}%",
                row.scheme,
                row.target,
                row.trials,
                row.corrected_pct,
                row.rebuilt_pct,
                row.detected_pct,
                row.bounds_pct,
                row.masked_pct,
                row.sdc_pct
            );
        }
        println!();
        output.campaign = rows;
    }

    if args.crc_capability || run_all {
        println!("CRC32C capability (§IV)");
        let crc = Crc32c::new(Crc32cBackend::Hardware);
        println!("backend in use: {:?}", crc.backend());
        println!(
            "HD=6 window: codewords of 178..=5243 bits (TeaLeaf row codeword: {} bits, inside: {})",
            5 * 96,
            crc32c_hd6_window(5 * 96)
        );
        println!(
            "operating points at HD 6 (nECmED): {:?}",
            operating_points(6)
        );
        let data: Vec<u8> = (0..60u8)
            .map(|i| i.wrapping_mul(41).wrapping_add(3))
            .collect();
        for weight in 1..=4usize {
            let sweep = sweep_crc32c(&crc, &data, weight, 20_000);
            println!(
                "weight-{weight} errors over a 480-bit codeword: {}/{} detected ({:.4} %)",
                sweep.detected,
                sweep.patterns,
                100.0 * sweep.detection_rate()
            );
            output.crc_capability.push((
                format!("weight_{weight}"),
                Json::obj([
                    ("patterns", sweep.patterns.into()),
                    ("detected", sweep.detected.into()),
                    ("rate", sweep.detection_rate().into()),
                ]),
            ));
        }
        println!();
    }

    if let Some(path) = &args.json {
        std::fs::write(path, output.to_json().render()).expect("write JSON output");
        println!("machine-readable results written to {path}");
    }
}
