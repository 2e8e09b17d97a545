//! `run.sh --smoke` end to end: every workload in its own child process on
//! 32x32 grids, one result file, every catalogue metric exactly once per
//! workload, and `--compare` on the file it wrote.

use abft_benchmark::metrics::{END_TO_END, PER_LAYER};
use abft_benchmark::report::{package_dir, SCHEMA};
use abft_benchmark::workloads::WORKLOADS;
use abft_suite::faultsim::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_abft-benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn read(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn text<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key).and_then(Json::as_str).unwrap()
}

#[test]
fn smoke_run_emits_every_metric_once_per_workload_and_compares_clean() {
    let out = scratch("smoke.json");
    let run = benchmark(&["--smoke", "--seed", "5", "--out", out.to_str().unwrap()]);
    assert!(
        run.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let doc = read(&out);
    assert_eq!(text(&doc, "schema"), SCHEMA);
    let host = doc.get("host").unwrap();
    for key in [
        "host_cores",
        "isa",
        "crc_hardware",
        "force_scalar",
        "pool_workers",
        "rustc",
        "git_commit",
        "seed",
    ] {
        assert!(host.get(key).is_some(), "host block lacks {key}");
    }
    assert_eq!(text(host, "seed"), "5");

    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    for workload in WORKLOADS {
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            let hits: Vec<&Json> = rows
                .iter()
                .filter(|r| {
                    text(r, "workload") == workload.name && text(r, "metric") == metric.name
                })
                .collect();
            assert_eq!(hits.len(), 1, "{} / {}", workload.name, metric.name);
            assert_eq!(text(hits[0], "unit"), metric.unit);
            for column in ["value", "n", "min", "q1", "median", "q3", "max"] {
                assert!(hits[0].get(column).and_then(Json::as_f64).is_some());
            }
        }
        let value = |metric: &str| {
            rows.iter()
                .find(|r| text(r, "workload") == workload.name && text(r, "metric") == metric)
                .and_then(|r| r.get("value"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(value("failed"), 0.0, "{}", workload.name);
        assert_eq!(value("traced.failed"), 0.0, "{}", workload.name);
        assert!(value("solve_s") > 0.0 && value("setup_s") > 0.0);
        assert!(value("solvers.iterations") > 0.0);
        assert!(value("solvers.trace_coverage") > 0.5);
    }
    let summary = doc.get("summary").unwrap();
    assert_eq!(summary.get("claim"), Some(&Json::Null));
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    // The result file ends with the claim: nothing after it but the braces.
    let raw = std::fs::read_to_string(&out).unwrap();
    assert!(raw.trim_end().ends_with("\"claim\": null\n  }\n}"));

    // A file agrees with itself; a file from another ISA is refused.
    let path = out.to_str().unwrap();
    let same = benchmark(&["--compare", path, path]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stderr)
    );
    let report = String::from_utf8_lossy(&same.stdout);
    assert!(report.contains("solve_s") && !report.contains("DIFFERS"));

    let other = scratch("other_isa.json");
    let isa = format!("\"isa\": \"{}\"", text(host, "isa"));
    assert!(raw.contains(&isa));
    std::fs::write(&other, raw.replace(&isa, "\"isa\": \"elsewhere\"")).unwrap();
    let refused = benchmark(&["--compare", path, other.to_str().unwrap()]);
    assert!(!refused.status.success());
    assert!(String::from_utf8_lossy(&refused.stderr).contains("refusing to compare"));
}

#[test]
fn single_run_ends_with_the_contract_line() {
    let run = benchmark(&[
        "--smoke",
        "--workload",
        "cg_matrix_secded64",
        "--trace",
        "0",
        "--seed",
        "9",
        "--seconds",
        "0.05",
    ]);
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let Json::Obj(fields) = &line else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.map(|m| m.name));

    // Bad arguments are a usage error, not a run.
    assert_eq!(benchmark(&["--workload", "nope"]).status.code(), Some(2));
    assert_eq!(benchmark(&["--trace", "1"]).status.code(), Some(2));
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let doc = read(&package_dir().join("../BENCHMARK.json"));
    let names = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    text(m, "name").into(),
                    text(m, "unit").into(),
                    text(m, "better").into(),
                )
            })
            .collect()
    };
    let catalogue = |defs: &[abft_benchmark::metrics::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    };
    assert_eq!(names("end_to_end"), catalogue(&END_TO_END));
    assert_eq!(names("per_layer"), catalogue(&PER_LAYER));
    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| (text(w, "name").into(), text(w, "why").into()))
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.into(), w.why.into()))
        .collect();
    assert_eq!(workloads, expected);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(abft_benchmark::run::DEFAULT_SECONDS)
    );
}
