//! Runs every workload of `BENCHMARK.json` at smoke size (n = 2^10 to
//! 2^12, one round), untraced and traced, through the built binary, and
//! checks the output contract: the last stdout line and the written row
//! are strict JSON, every metric `BENCHMARK.json` names is reported with
//! its unit, and no call failed. Also pins `BENCHMARK.json` to the
//! binary's metric tables and checks `compare` on the rows it wrote.

use plobs::json::{parse, validate, Value};
use std::path::{Path, PathBuf};
use std::process::Command;
use streambench::{END_TO_END, PER_LAYER, WORKLOADS};

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    parse(&text).expect("BENCHMARK.json is strict JSON")
}

fn entries<'a>(spec: &'a Value, key: &str) -> &'a [Value] {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_streambench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let spec = spec();
    let workloads: Vec<&str> = entries(&spec, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e = entries(&spec, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (json, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(str_of(json, "name"), m.name);
        assert_eq!(str_of(json, "unit"), m.unit);
        assert_eq!(str_of(json, "better"), m.better.as_str());
        assert_eq!(json.get("bound").and_then(Value::as_f64), Some(m.bound.rel));
    }
    let layers = entries(&spec, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (json, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(str_of(json, "name"), m.name);
        assert_eq!(str_of(json, "unit"), m.unit);
        assert_eq!(str_of(json, "better"), m.better.as_str());
    }
}

/// Checks one run's final stdout line, row file and span file.
fn check_run(out: &Path, workload: &str, trace: bool) {
    let flag = if trace { "1" } else { "0" };
    let dir = out.to_str().expect("utf-8 temp dir");
    let o = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.5",
        "--trace",
        flag,
        "--smoke",
        "--out",
        dir,
    ]);
    let stdout = String::from_utf8(o.stdout).expect("utf-8 output");
    assert!(
        o.status.success(),
        "{workload} trace={flag} failed: {}",
        String::from_utf8_lossy(&o.stderr)
    );
    let last = stdout.lines().last().expect("the run prints a result");
    validate(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e}"));
    let result = parse(last).unwrap();
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);

    let spec = spec();
    let key = if trace { "per_layer" } else { "end_to_end" };
    let names: Vec<&str> = entries(&spec, key)
        .iter()
        .map(|m| str_of(m, "name"))
        .collect();
    let metrics = result.get("metrics").unwrap();
    let Value::Obj(reported) = metrics else {
        panic!("metrics is an object")
    };
    let reported: Vec<&str> = reported.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(reported, names, "{workload}: reported metrics");
    for m in entries(&spec, key) {
        let v = metrics.get(str_of(m, "name")).unwrap();
        assert_eq!(
            v.get("unit").and_then(Value::as_str),
            Some(str_of(m, "unit"))
        );
        assert!(v
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite));
    }

    let suffix = if trace { "-trace" } else { "" };
    let text = std::fs::read_to_string(out.join(format!("{workload}-7{suffix}.json")))
        .expect("the run writes its row");
    validate(&text).expect("the row is strict JSON");
    let row = parse(&text).unwrap();
    assert_eq!(row.get("error_rate").and_then(Value::as_f64), Some(0.0));
    for name in &names {
        assert!(
            row.get("metrics").and_then(|m| m.get(name)).is_some(),
            "row lacks {name}"
        );
    }
    if trace {
        let chrome = std::fs::read_to_string(out.join(format!("trace_{workload}.json")))
            .expect("the traced run writes its spans");
        validate(&chrome).expect("the span file is strict JSON");
    }
}

#[test]
fn every_workload_runs_at_smoke_size_and_compares_clean() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench_smoke");
    let _ = std::fs::remove_dir_all(&out);
    for workload in WORKLOADS {
        check_run(&out, workload, false);
        check_run(&out, workload, true);
    }
    // One set against itself: every metric within its bound.
    let dir = out.to_str().unwrap();
    let o = bench(&["compare", dir, dir]);
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(o.status.success(), "{stdout}");
    assert!(
        !stdout.contains("WORSE") && stdout.contains("within bound"),
        "{stdout}"
    );
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "poly_eval", "--trace", "2"][..],
        &["--seed", "1"][..],
        &["compare", "only_one_dir"][..],
    ] {
        let o = bench(args);
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?} printed a result");
    }
}
