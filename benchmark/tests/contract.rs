//! The benchmark against its own declaration: every name in
//! `BENCHMARK.json` is well formed, is the one the code declares, and is
//! emitted by a `--quick` run of every workload.

use std::path::PathBuf;
use std::process::Command;

use whisper_benchmark::json::{self, Value};
use whisper_benchmark::report::{END_TO_END, PER_LAYER};
use whisper_benchmark::workload::{DEFAULT_SECONDS, WORKLOADS};

fn spec() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn strings(list: &Value, key: &str) -> Vec<String> {
    list.as_array()
        .expect("an array")
        .iter()
        .map(|item| {
            item.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{item:?} has no {key}"))
                .to_string()
        })
        .collect()
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn declaration_matches_the_code() {
    let spec = spec();
    let keys: Vec<&str> = spec
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        spec.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );

    let workloads = spec.get("workloads").expect("workloads");
    let declared: Vec<(String, String)> = strings(workloads, "name")
        .into_iter()
        .zip(strings(workloads, "why"))
        .collect();
    let coded: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(declared, coded);
    for (name, why) in &declared {
        assert!(well_formed_name(name), "{name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: {why}");
    }

    for (key, coded) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let list = spec.get(key).expect("metric list");
        let declared: Vec<(String, String)> = strings(list, "name")
            .into_iter()
            .zip(strings(list, "unit"))
            .collect();
        let coded: Vec<(String, String)> = coded
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, coded, "{key}");
        for (name, _) in &declared {
            assert!(well_formed_name(name), "{name}");
        }
        for better in strings(list, "better") {
            assert!(better == "lower" || better == "higher", "{better}");
        }
    }

    let bounds = spec.get("end_to_end").expect("end_to_end");
    for item in bounds.as_array().expect("an array") {
        let bound = item.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!((0.0..=0.25).contains(&bound), "{item:?}");
    }
    assert!(
        strings(bounds, "name").contains(&"setup_s".to_string()),
        "setup_s is a required end-to-end metric"
    );
}

/// Runs the built benchmark the way the driver does and returns the
/// parsed result line.
fn quick_run(workload: &str, traced: bool) -> Value {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick-out");
    let output = Command::new(env!("CARGO_BIN_EXE_whisper-benchmark"))
        .args(["--workload", workload, "--seed", "11", "--quick"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (traced: {traced}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn quick_runs_emit_every_declared_metric() {
    let spec = spec();
    for w in &WORKLOADS {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = quick_run(w.name, traced);
            let keys: Vec<&str> = line
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{}", w.name);
            let attempted = line
                .get("attempted")
                .and_then(Value::as_f64)
                .expect("count");
            assert!(attempted >= 1.0 && attempted.fract() == 0.0);
            assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));

            let declared = spec.get(key).expect("metric list");
            let emitted = line
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let emitted_names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                emitted_names,
                strings(declared, "name"),
                "{} (traced: {traced})",
                w.name
            );
            for ((name, metric), unit) in emitted.iter().zip(strings(declared, "unit")) {
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit.as_str())
                );
                let value = metric.get("value").and_then(Value::as_f64).expect("value");
                assert!(value.is_finite(), "{name}");
                if !traced {
                    assert!(value > 0.0, "{}: {name} = {value}", w.name);
                }
            }
        }
    }
}

#[test]
fn unknown_workloads_and_missing_values_are_refused() {
    for args in [
        &["--workload", "no-such", "--seed", "1"][..],
        &["--seed"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_whisper-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty());
    }
}
