//! The benchmark's own tests, on a tiny world: the contract's metric
//! names and units, exact repeats of the deterministic metrics, and
//! clean failure on bad flags.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside the benchmark");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.field(key).unwrap().as_array().unwrap()
}

fn string(v: &Value, key: &str) -> String {
    match v.field(key).unwrap() {
        Value::String(s) => s.clone(),
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

/// A scratch working directory per test, for the span files.
fn workdir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_crpbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs")
}

/// Runs one tiny workload and returns its stdout and parsed last line.
fn run(dir: &Path, workload: &str, seed: &str, trace: &str) -> (String, Value) {
    let out = bench(
        dir,
        &[
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ],
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output").to_owned();
    (stdout, serde_json::parse(&last).expect("last line is JSON"))
}

fn metrics(result: &Value) -> Vec<(String, f64, String)> {
    result
        .field("metrics")
        .unwrap()
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                number(v.field("value").unwrap()),
                string(v, "unit"),
            )
        })
        .collect()
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let m = manifest();
    let dir = workdir("units");
    for w in list(&m, "workloads") {
        let name = string(w, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (stdout, result) = run(&dir, &name, "3", trace);
            assert_eq!(result.field("correct").unwrap(), &Value::Bool(true));
            assert!(number(result.field("attempted").unwrap()) >= 1.0);
            assert_eq!(number(result.field("failed").unwrap()), 0.0);
            let got = metrics(&result);
            let want: Vec<(String, String)> = list(&m, key)
                .iter()
                .map(|d| (string(d, "name"), string(d, "unit")))
                .collect();
            let got_names: Vec<(String, String)> =
                got.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
            assert_eq!(got_names, want, "{name} --trace {trace}");
            assert!(got.iter().all(|(_, v, _)| v.is_finite()), "{name}: {got:?}");
            for (n, _) in &want {
                assert!(
                    stdout.contains(&format!("  {n} ")),
                    "{name}: {n} not in the table"
                );
            }
            if trace == "0" {
                let mut diagnostics = vec![
                    "query_p50_ms",
                    "query_p99_ms",
                    "top1_mean_rank",
                    "error_rate",
                    "host.ref_ms",
                ];
                if name == "campaign" {
                    diagnostics.extend(["probe_p50_us", "probe_p99_us"]);
                }
                if name != "rank_sweep" {
                    diagnostics.extend(["ingest_p50_us", "ingest_p99_us"]);
                }
                for d in diagnostics {
                    assert!(stdout.contains(&format!("  {d} ")), "{name}: no {d}");
                }
            }
        }
    }
}

/// Figures that depend only on the seed: counts, fractions of counts and
/// ranks from the JSON line, and the printed output-quality diagnostics.
fn deterministic(stdout: &str, result: &Value) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = metrics(result)
        .into_iter()
        .filter(|(n, _, u)| {
            !["ms", "s", "us", "ops/s", "MiB"].contains(&u.as_str()) && !n.starts_with("trace.")
        })
        .map(|(n, v, _)| (n, v.to_string()))
        .collect();
    for key in ["attempted", "failed"] {
        out.push((
            key.to_owned(),
            number(result.field(key).unwrap()).to_string(),
        ));
    }
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        if let (Some(name @ ("top1_mean_rank" | "error_rate")), Some(value)) =
            (words.next(), words.next())
        {
            out.push((name.to_owned(), value.to_owned()));
        }
    }
    out
}

#[test]
fn deterministic_metrics_repeat_exactly_for_a_seed() {
    let dir = workdir("repeat");
    for workload in ["rank_sweep", "campaign", "serve_online"] {
        for trace in ["0", "1"] {
            let (out_a, a) = run(&dir, workload, "5", trace);
            let (out_b, b) = run(&dir, workload, "5", trace);
            let (da, db) = (deterministic(&out_a, &a), deterministic(&out_b, &b));
            assert!(da.iter().any(|(n, _)| n == "top1_mean_rank"), "{da:?}");
            assert_eq!(da, db, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_flags_exit_non_zero_without_panicking() {
    let dir = workdir("flags");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "campaign",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "campaign",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "campaign",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "yes",
        ],
        &["--workload", "campaign", "--seed", "1"],
        &["--frobnicate"],
        &[],
    ] {
        let out = bench(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
