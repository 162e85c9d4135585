//! Runs the built binary the way the benchmark driver does, on a
//! one-second `--smoke` input, so that `cargo test` keeps the harness
//! from rotting: the result line must parse, carry exactly the contract's
//! keys, list exactly the metrics `BENCHMARK.json` promises for the
//! mode, and report a correct run.

use stabilizer_telemetry::{parse_json, JsonValue};
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn smoke(workload: &str, trace: &str, section: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_stabbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("stabbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "exit {:?}\n{stdout}", out.status);
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));

    let promised: Vec<(String, String)> = benchmark_json()
        .get(section)
        .and_then(JsonValue::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("key")
                    .to_owned()
            };
            (s("name"), s("unit"))
        })
        .collect();
    let reported: Vec<(String, String)> = result
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .expect("metrics")
        .iter()
        .map(|(name, cell)| {
            assert!(
                cell.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name}"
            );
            let unit = cell.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect();
    assert_eq!(reported, promised);
}

#[test]
fn sim8_ctrl_smoke_reports_every_end_to_end_metric() {
    smoke("sim8-ctrl", "0", "end_to_end");
}

#[test]
fn sim8_ctrl_smoke_reports_every_per_layer_metric() {
    smoke("sim8-ctrl", "1", "per_layer");
}

#[test]
fn same_seed_same_exact_metrics_other_seed_other_latency() {
    let exact = |seed: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_stabbench"))
            .args([
                "--workload",
                "sim8-ctrl",
                "--seed",
                seed,
                "--trace",
                "1",
                "--smoke",
            ])
            .output()
            .expect("stabbench runs");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let result = parse_json(stdout.lines().last().expect("a result line")).expect("JSON");
        ["stable_p50_us", "core.node.ctrl_msgs_per_msg"].map(|m| {
            result
                .get("metrics")
                .and_then(|ms| ms.get(m))
                .and_then(|cell| cell.get("value"))
                .and_then(JsonValue::as_f64)
                .expect("metric present")
                .to_bits()
        })
    };
    let (a, b, c) = (exact("11"), exact("11"), exact("12"));
    assert_eq!(a, b, "virtual-time metrics are exact under the seed");
    assert_ne!(a[0], c[0], "another seed draws another jitter");
}
