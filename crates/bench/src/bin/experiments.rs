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

use abft_bench::blas1_bench::{blas1_microbench, trajectory_points_json, Blas1BenchConfig};
use abft_bench::coverage::{self, check_coverage, measure_coverage, CoverageConfig};
use abft_bench::ecc_bench::{self, ecc_microbench, EccBenchConfig};
use abft_bench::matrix_file::{self, matrix_file_report, MatrixFileConfig};
use abft_bench::precond_bench::{self, precond_microbench, PrecondBenchConfig};
use abft_bench::queue_bench::{self, queue_microbench, QueueBenchConfig};
use abft_bench::regression::{check_regression, GateConfig};
use abft_bench::scaling_bench::{self, scaling_microbench, ScalingBenchConfig};
use abft_bench::spmv_bench::{
    render_table, spmv_microbench, trajectory_point_json, SpmvBenchConfig,
};
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
    bench_spmv: bool,
    bench_blas1: bool,
    bench_ecc: bool,
    bench_scaling: bool,
    bench_queue: bool,
    bench_coverage: bool,
    bench_precond: bool,
    check_regression: bool,
    check_coverage: bool,
    baseline_spmv: String,
    baseline_blas1: String,
    baseline_queue: String,
    baseline_precond: String,
    baseline_coverage: String,
    gate_tolerance: f64,
    coverage_tolerance: f64,
    bench_label: String,
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
            bench_spmv: false,
            bench_blas1: false,
            bench_ecc: false,
            bench_scaling: false,
            bench_queue: false,
            bench_coverage: false,
            bench_precond: false,
            check_regression: false,
            check_coverage: false,
            baseline_spmv: "BENCH_spmv.json".to_string(),
            baseline_blas1: "BENCH_blas1.json".to_string(),
            baseline_queue: "BENCH_queue.json".to_string(),
            baseline_precond: "BENCH_precond.json".to_string(),
            baseline_coverage: "BENCH_coverage.json".to_string(),
            gate_tolerance: 25.0,
            coverage_tolerance: 5.0,
            bench_label: "current".to_string(),
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
  --bench-spmv         SpMV kernel microbenchmark (the BENCH_spmv.json sweep)
  --bench-blas1        protected BLAS-1 microbenchmark (the BENCH_blas1.json sweep)
  --bench-ecc          ECC check-throughput microbenchmark: per-group vs
                       batched-SIMD verify, CRC slicing-width sweep
                       (the BENCH_ecc.json sweep)
  --bench-scaling      worker-count scaling sweep (the BENCH_scaling.json sweep)
  --bench-queue        multi-tenant serving throughput: serial dispatch vs
                       SolveQueue panels at k in {1,2,4,8}
                       (the BENCH_queue.json sweep)
  --bench-coverage     fixed-seed smoke fault-coverage campaign: bit flips for
                       every scheme x region plus the parity-tier erasure
                       scenarios (the BENCH_coverage.json matrix)
  --bench-precond      selective-reliability sweep: uniform vs selective
                       FT-PCG time-to-correct-solution under injected factor
                       corruption (the BENCH_precond.json crossover)
  --check-regression   CI gate: re-measure and compare overhead ratios against
                       the committed BENCH_spmv.json / BENCH_blas1.json /
                       BENCH_queue.json (exit 1 on >25% degradation)
  --check-coverage     CI gate: re-run the smoke coverage campaign and compare
                       safe / recovered / rebuilt rates against the committed
                       BENCH_coverage.json (exit 1 on a rate drop)
  --baseline-spmv P    SpMV baseline file for --check-regression
  --baseline-blas1 P   BLAS-1 baseline file for --check-regression
  --baseline-queue P   serving-throughput baseline file for --check-regression
  --baseline-precond P selective-reliability baseline file for --check-regression
  --baseline-coverage P coverage baseline file for --check-coverage
  --gate-tolerance PCT allowed ratio degradation for --check-regression
  --coverage-tolerance PP allowed rate drop (percentage points) for
                       --check-coverage
  --bench-label L      trajectory-point label for --bench-* JSON output
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
            "--bench-spmv" => args.bench_spmv = true,
            "--bench-blas1" => args.bench_blas1 = true,
            "--bench-ecc" => args.bench_ecc = true,
            "--bench-scaling" => args.bench_scaling = true,
            "--bench-queue" => args.bench_queue = true,
            "--bench-coverage" => args.bench_coverage = true,
            "--bench-precond" => args.bench_precond = true,
            "--check-regression" => args.check_regression = true,
            "--check-coverage" => args.check_coverage = true,
            "--baseline-spmv" => args.baseline_spmv = value("--baseline-spmv")?,
            "--baseline-blas1" => args.baseline_blas1 = value("--baseline-blas1")?,
            "--baseline-queue" => args.baseline_queue = value("--baseline-queue")?,
            "--baseline-precond" => args.baseline_precond = value("--baseline-precond")?,
            "--baseline-coverage" => args.baseline_coverage = value("--baseline-coverage")?,
            "--gate-tolerance" => {
                args.gate_tolerance = value("--gate-tolerance")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--coverage-tolerance" => {
                args.coverage_tolerance = value("--coverage-tolerance")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--bench-label" => args.bench_label = value("--bench-label")?,
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

    if args.check_regression {
        // The gate re-measures at the committed workload size (--nx, default
        // 256) with CI-cheap iteration counts and compares overhead ratios;
        // do not combine with --smoke, which shrinks --nx away from the
        // committed workload.
        let config = GateConfig {
            spmv_baseline: args.baseline_spmv.clone(),
            blas1_baseline: args.baseline_blas1.clone(),
            queue_baseline: args.baseline_queue.clone(),
            precond_baseline: args.baseline_precond.clone(),
            nx: args.nx,
            iters: args.iterations.min(8),
            repeats: args.repeats.min(2),
            tolerance_pct: args.gate_tolerance,
        };
        println!(
            "Perf-regression gate: fresh {0}x{0} measurement vs {1} + {2} + {3} + {4} (tolerance +{5}%)",
            config.nx,
            config.spmv_baseline,
            config.blas1_baseline,
            config.queue_baseline,
            config.precond_baseline,
            config.tolerance_pct
        );
        match check_regression(&config) {
            Ok(report) => {
                print!("{}", report.render());
                if report.regressed() {
                    eprintln!("perf-regression gate FAILED");
                    std::process::exit(1);
                }
                println!("perf-regression gate passed");
            }
            Err(err) => {
                eprintln!("perf-regression gate could not run: {err}");
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

    if args.bench_precond {
        let config = if args.smoke {
            PrecondBenchConfig::smoke()
        } else {
            PrecondBenchConfig {
                n: args.nx,
                repeats: args.repeats.min(2),
                ..PrecondBenchConfig::default()
            }
        };
        println!(
            "Selective-reliability sweep ({0}x{0} Poisson grid + {1}, factor flips {2:?}, {3} repeats)",
            config.n, config.fixture, config.flips, config.repeats
        );
        let rows = precond_microbench(&config);
        print!("{}", precond_bench::render_table(&rows));
        if let Some(path) = &args.json {
            let point = precond_bench::trajectory_point_json(&args.bench_label, &config, &rows);
            let doc = Json::obj([("trajectory", Json::Arr(vec![point]))]);
            std::fs::write(path, doc.render()).expect("write JSON output");
            println!("machine-readable results written to {path}");
        }
        return;
    }

    if args.bench_queue {
        let config = if args.smoke {
            QueueBenchConfig::smoke()
        } else {
            QueueBenchConfig {
                n: args.nx,
                iters: args.iterations.min(25),
                repeats: args.repeats.min(2),
                ..QueueBenchConfig::default()
            }
        };
        println!(
            "Multi-tenant serving throughput ({0}x{0} Poisson grid, {1} jobs, widths {2:?}, {3} CG iters/solve, {4} repeats)",
            config.n, config.jobs, config.widths, config.iters, config.repeats
        );
        let rows = queue_microbench(&config);
        print!("{}", queue_bench::render_table(&rows));
        if let Some(path) = &args.json {
            let point = queue_bench::trajectory_point_json(&args.bench_label, &config, &rows);
            let doc = Json::obj([("trajectory", Json::Arr(vec![point]))]);
            std::fs::write(path, doc.render()).expect("write JSON output");
            println!("machine-readable results written to {path}");
        }
        return;
    }

    if args.bench_scaling {
        let config = if args.smoke {
            ScalingBenchConfig::smoke()
        } else {
            ScalingBenchConfig {
                iters: args.iterations.min(8),
                repeats: args.repeats,
                ..ScalingBenchConfig::default()
            }
        };
        println!(
            "Worker-count scaling sweep (sizes {:?}, workers {:?}, {} iters, {} repeats)",
            config.sizes, config.workers, config.iters, config.repeats
        );
        let rows = scaling_microbench(&config);
        print!("{}", scaling_bench::render_table(&config, &rows));
        if let Some(path) = &args.json {
            let point = scaling_bench::trajectory_point_json(&args.bench_label, &config, &rows);
            let doc = Json::obj([("trajectory", Json::Arr(vec![point]))]);
            std::fs::write(path, doc.render()).expect("write JSON output");
            println!("machine-readable results written to {path}");
        }
        return;
    }

    if args.bench_ecc {
        let config = if args.smoke {
            EccBenchConfig::smoke()
        } else {
            EccBenchConfig {
                elements: args.nx * args.nx,
                grid_n: args.nx,
                iters: args.iterations.max(2),
                repeats: args.repeats,
                ..EccBenchConfig::default()
            }
        };
        println!(
            "ECC check-throughput microbenchmark ({} elements, grid {}x{}, {} iters, {} repeats; ISA {}, hardware CRC {})",
            config.elements,
            config.grid_n,
            config.grid_n,
            config.iters,
            config.repeats,
            abft_ecc::verify::detected_isa().label(),
            abft_ecc::crc32c::hardware_available(),
        );
        let rows = ecc_microbench(&config);
        print!("{}", ecc_bench::render_table(&rows));
        if let Some(path) = &args.json {
            let points = ecc_bench::trajectory_points_json(&args.bench_label, &config, &rows);
            let doc = Json::obj([("trajectory", Json::Arr(points))]);
            std::fs::write(path, doc.render()).expect("write JSON output");
            println!("machine-readable results written to {path}");
        }
        return;
    }

    if args.bench_blas1 {
        // --nx / --iters / --repeats drive the sweep (--smoke shrinks them
        // via parse_args); vectors have nx² elements.
        let config = Blas1BenchConfig {
            n: args.nx,
            iters: args.iterations.max(2),
            repeats: args.repeats,
            cg_iterations: args.iterations,
            parallel: args.parallel,
        };
        println!(
            "Protected BLAS-1 microbenchmark ({0}x{0} Poisson grid = {1} elements, {2} iters, {3} repeats, masked path {4})",
            config.n,
            config.n * config.n,
            config.iters,
            config.repeats,
            if config.parallel { "parallel" } else { "serial" }
        );
        let rows = blas1_microbench(&config);
        print!("{}", abft_bench::blas1_bench::render_table(&rows));
        if let Some(path) = &args.json {
            let points = trajectory_points_json(&args.bench_label, &config, &rows);
            let doc = Json::obj([("trajectory", Json::Arr(points))]);
            std::fs::write(path, doc.render()).expect("write JSON output");
            println!("machine-readable results written to {path}");
        }
        return;
    }

    if args.bench_spmv {
        // --nx / --iters / --repeats drive the sweep (and --smoke shrinks
        // them via parse_args); ny is meaningless for the square Poisson
        // grid this benchmark uses.
        let config = SpmvBenchConfig {
            n: args.nx,
            iters: args.iterations,
            repeats: args.repeats,
        };
        println!(
            "SpMV kernel microbenchmark ({}x{} Poisson grid, {} iters, {} repeats)",
            config.n, config.n, config.iters, config.repeats
        );
        let rows = spmv_microbench(&config);
        print!("{}", render_table(&rows));
        if let Some(path) = &args.json {
            let point = trajectory_point_json(&args.bench_label, &config, &rows);
            let doc = Json::obj([("trajectory", Json::Arr(vec![point]))]);
            std::fs::write(path, doc.render()).expect("write JSON output");
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
