//! `coverage` — the fixed-seed fault-coverage table and its CI gate.
//!
//! ```text
//! coverage                          # measure and print the table
//! coverage --json BENCH_coverage.json
//! coverage --check                  # gate against BENCH_coverage.json
//! coverage --trials 20000 --stop-lb 0.995
//! ```

use abft_faultsim::coverage::{
    check_coverage, coverage_json, measure_coverage, render_table, CoverageConfig, TOLERANCE_PP,
};

const HELP: &str = "coverage — the fixed-seed fault-coverage campaign (bit flips for every
scheme x region, the parity-tier erasure scenarios, the live solver-vector and
selective-reliability strikes: the BENCH_coverage.json table).
  --check        re-run the campaign with the workload and stop rule that
                 BENCH_coverage.json records, and compare safe / recovered /
                 rebuilt rates against it (exit 1 on a rate drop, a
                 committed row no longer measured, or a measured row not
                 committed)
  --trials N     trials per row (default 40)
  --stop-lb LB   stream each row through the adaptive engine, stopping early
                 once the spending-corrected Wilson lower bound on its safety
                 rate reaches LB (e.g. 0.995); --trials becomes the per-row
                 maximum
  --json PATH    also write the table as JSON";

struct Args {
    check: bool,
    config: CoverageConfig,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: false,
        config: CoverageConfig::default(),
        json: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--check" => args.check = true,
            "--trials" => {
                args.config.trials = value("--trials")?.parse().map_err(|e| format!("{e}"))?
            }
            "--stop-lb" => {
                args.config.stop_lb = Some(value("--stop-lb")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--json" => args.json = Some(value("--json")?),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n{HELP}");
            std::process::exit(2);
        }
    };
    let config = args.config;

    if args.check {
        println!(
            "Fault-coverage gate: fresh fixed-seed campaign vs {} (tolerance -{TOLERANCE_PP} pp)",
            config.baseline
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
                eprintln!("fault-coverage gate FAILED: {err}");
                std::process::exit(1);
            }
        }
        return;
    }

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
    print!("{}", render_table(&rows));
    if let Some(path) = &args.json {
        std::fs::write(path, coverage_json(&config, &rows).render()).expect("write JSON output");
        println!("machine-readable results written to {path}");
    }
}
