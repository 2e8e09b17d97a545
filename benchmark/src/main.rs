//! Command line of the benchmark; `run.sh` builds this and passes its
//! arguments through.

use abft_benchmark::report::{compare, package_dir};
use abft_benchmark::rng::DEFAULT_SEED;
use abft_benchmark::run::{
    run_one, run_suite, write_rows, RunArgs, SuiteArgs, DEFAULT_SECONDS, SMOKE_SECONDS,
};
use abft_benchmark::workloads::{find, Spec, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: run.sh [--seed N] [--workload NAME] [--seconds S] [--out FILE] [--smoke]
           run every workload (or NAME), each in its own child process, and
           write one result file
       run.sh --workload NAME --trace 0|1 [--seed N] [--seconds S]
           run one workload in this process; the last line of output is one
           JSON object (end-to-end metrics with --trace 0, per-layer with 1)
       run.sh --compare A B
           apply the bounds of BENCHMARK.json to two result files";

#[derive(Default)]
struct Cli {
    workload: Option<&'static Spec>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    rows: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(find(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value()?.into()),
            "--rows" => cli.rows = Some(value()?.into()),
            "--compare" => cli.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn run(cli: Cli) -> Result<bool, String> {
    if let Some((a, b)) = &cli.compare {
        return compare(a, b, &package_dir().join("../BENCHMARK.json"));
    }
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let Some(trace) = cli.trace else {
        return run_suite(&SuiteArgs {
            only: cli.workload,
            seed,
            seconds,
            smoke: cli.smoke,
            out: cli
                .out
                .unwrap_or_else(|| package_dir().join("results/latest.json")),
        });
    };
    let spec = cli.workload.ok_or("--trace needs --workload")?;
    let args = RunArgs {
        spec,
        seed,
        seconds,
        trace,
        smoke: cli.smoke,
    };
    let result = run_one(&args);
    if let Some(path) = &cli.rows {
        write_rows(path, &args, &result)?;
    }
    println!("{}", result.driver_line());
    Ok(result.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("abft-benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
