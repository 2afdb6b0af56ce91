//! The benchmark's own checks: its reply check catches a doctored
//! reply, every workload emits exactly the metrics `BENCHMARK.json`
//! declares (all finite), and the names on both sides agree.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use firefly_metrics::Json;
use perfbench::drive::{workload, Tamper, WORKLOADS};
use perfbench::{run, Options, END_TO_END, PER_LAYER};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn names_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<String> = declared(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let defined: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, defined);
    assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
}

#[test]
fn doctored_replies_are_counted_and_fail_the_run() {
    let outcome = run(&Options {
        workload: workload("frag_1c").expect("frag_1c is defined"),
        seed: 7,
        seconds: 1,
        trace: false,
        tamper: Tamper(Some(3)),
    })
    .expect("the run completes");
    assert!(!outcome.correct, "a corrupted echo must fail the run");
    assert!(outcome.mismatched > 0);
    assert!(outcome.failed > 0 && outcome.failed <= outcome.attempted);
    // Every third reply is corrupted.
    let frac = outcome.failed_frac();
    assert!((0.2..0.5).contains(&frac), "failed_frac {frac}");
}

/// Runs the benchmark binary with the documented flags and returns its last
/// line parsed.
fn run_binary(name: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", name, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{name} trace={trace}: {:?}", out);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let doc = benchmark_json();
    for (name, _) in declared(&doc, "workloads") {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run_binary(&name, trace);
            let keys: Vec<&str> = result
                .as_object()
                .expect("result object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics object");
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    let value = v.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{name} {k} is not a finite number"
                    );
                    let unit = v.get("unit").and_then(Json::as_str).unwrap_or_default();
                    (k.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(emitted, declared(&doc, list), "{name} trace={trace}");
        }
    }
}

#[test]
fn unknown_workload_exits_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no_such", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
