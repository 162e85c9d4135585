//! `stabbench compare A.jsonl B.jsonl`: one row per (workload,
//! end-to-end metric) with both medians, the metric's bound from
//! `BENCHMARK.json`, and a verdict. Exits non-zero on any `worse` or
//! `missing`, and refuses a set that holds a run which failed its
//! checks — the check two sets of runs of the same code must pass, and
//! the gate a later change is held to.

use crate::json::{parse_json, JsonValue};
use crate::stats;
use std::collections::BTreeMap;

/// How set B's median of a metric stands to set A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread of a set is wider than the bound, so
    /// neither "same" nor "worse" can be said.
    Unresolved,
    /// Set A has the pair and set B does not: a workload or a metric
    /// was dropped.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// An end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// One compared (workload, metric).
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge B's values of one metric against A's.
pub fn judge(workload: &str, a: &[f64], b: &[f64], m: &Bound) -> Row {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let (spread_a, spread_b) = (stats::iqr_spread(a), stats::iqr_spread(b));
    let change = if median_a == 0.0 {
        0.0
    } else {
        (median_b - median_a) / median_a.abs()
    };
    let worse_by = if m.lower_is_better { change } else { -change };
    let verdict = if spread_a.max(spread_b) > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        workload: workload.to_owned(),
        metric: m.name.clone(),
        median_a,
        median_b,
        worse_by,
        spread_a,
        spread_b,
        bound: m.bound,
        verdict,
    }
}

/// `(workload, metric) -> values` of a set's untraced runs.
type Set = BTreeMap<(String, String), Vec<f64>>;

/// Read a set file. A run that failed its checks makes the whole set
/// unusable: its metrics may never have been measured.
fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let row = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| row.get(k).ok_or_else(|| format!("line {}: no {k}", i + 1));
        if field("trace")?.as_f64() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_owned();
        let result = field("result")?;
        if result.get("correct").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!(
                "line {}: the {workload} run failed its checks (correct is not true)",
                i + 1
            ));
        }
        let metrics = result
            .get("metrics")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| format!("line {}: no result.metrics", i + 1))?;
        for (name, cell) in metrics {
            let value = cell
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("line {}: {name} has no value", i + 1))?;
            set.entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let v = parse_json(text)?;
    v.get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or("no end_to_end list")?
        .iter()
        .map(|m| {
            let get = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry without {k}"))
            };
            Ok(Bound {
                name: get("name")?.as_str().unwrap_or_default().to_owned(),
                lower_is_better: get("better")?.as_str() == Some("lower"),
                bound: get("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Compare two sets under `bounds`: one row per (workload,
/// BENCHMARK.json metric) that set A has, `missing` where B lacks it.
pub fn compare(a: &Set, b: &Set, bounds: &[Bound]) -> Vec<Row> {
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    let mut rows = Vec::new();
    for w in workloads {
        for m in bounds {
            let key = (w.clone(), m.name.clone());
            let Some(va) = a.get(&key) else { continue };
            rows.push(match b.get(&key) {
                Some(vb) => judge(w, va, vb, m),
                None => Row {
                    median_b: f64::NAN,
                    worse_by: f64::NAN,
                    spread_b: f64::NAN,
                    verdict: Verdict::Missing,
                    ..judge(w, va, va, m)
                },
            });
        }
    }
    rows
}

/// The bounds the binary was built with.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// The `compare` subcommand; `Ok(false)` when a row is `worse` or
/// `missing`.
pub fn main(argv: &[String]) -> Result<bool, String> {
    let [file_a, file_b] = argv else {
        return Err("compare takes two set files".to_owned());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = parse_bounds(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let a = parse_set(&read(file_a)?).map_err(|e| format!("{file_a}: {e}"))?;
    let b = parse_set(&read(file_b)?).map_err(|e| format!("{file_b}: {e}"))?;
    let rows = compare(&a, &b, &bounds);
    if rows.is_empty() {
        return Err(format!("{file_a} holds no end-to-end metric"));
    }
    println!(
        "{:<12} {:<28} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound"
    );
    for r in &rows {
        println!(
            "{:<12} {:<28} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} same, {} better, {} worse, {} unresolved, {} missing",
        rows.len(),
        count(Verdict::Same),
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Missing)
    );
    Ok(count(Verdict::Worse) + count(Verdict::Missing) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, lower: bool, bound: f64) -> Bound {
        Bound {
            name: name.to_owned(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |k: f64| steady.map(|v| v * k);
        let rate = bound("stable_msgs_per_s", false, 0.1);
        assert_eq!(
            judge("w", &steady, &scaled(1.05), &rate).verdict,
            Verdict::Same
        );
        assert_eq!(
            judge("w", &steady, &scaled(0.95), &rate).verdict,
            Verdict::Same
        );
        assert_eq!(
            judge("w", &steady, &scaled(0.85), &rate).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge("w", &steady, &scaled(1.2), &rate).verdict,
            Verdict::Better
        );
        // The same numbers read the other way round for a latency.
        let lat = bound("stable_p50_us", true, 0.1);
        assert_eq!(
            judge("w", &steady, &scaled(1.2), &lat).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge("w", &steady, &scaled(0.8), &lat).verdict,
            Verdict::Better
        );
        // A set whose own spread exceeds the bound resolves nothing …
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            judge("w", &noisy, &scaled(0.5), &rate).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge("w", &steady, &noisy, &lat).verdict,
            Verdict::Unresolved
        );
        // … whatever the metric is called.
        let setup = bound("setup_s", true, 0.25);
        assert_eq!(
            judge("w", &noisy, &scaled(2.0), &setup).verdict,
            Verdict::Unresolved
        );
        let r = judge("w", &steady, &scaled(0.85), &rate);
        assert!((r.worse_by - 0.15).abs() < 1e-9 && r.median_a == 100.0);
    }

    #[test]
    fn sets_parse_and_compare_by_workload_and_metric() {
        let run = |w: &str, trace: u8, v: f64, correct: bool| {
            format!(
                r#"{{"workload": "{w}", "seed": 1, "seconds": 12, "trace": {trace}, "result": {{"correct": {correct}, "attempted": 5, "failed": 0, "metrics": {{"stable_msgs_per_s": {{"value": {v}, "unit": "1/s"}}}}}}}}"#
            )
        };
        let line = |w: &str, trace: u8, v: f64| run(w, trace, v, true);
        let a = [
            line("x", 0, 100.0),
            line("x", 0, 102.0),
            line("x", 1, 5.0),
            line("y", 0, 7.0),
        ]
        .join("\n");
        let b = [line("x", 0, 50.0), line("x", 0, 51.0)].join("\n");
        let (a, b) = (parse_set(&a).unwrap(), parse_set(&b).unwrap());
        assert_eq!(
            a[&("x".to_owned(), "stable_msgs_per_s".to_owned())],
            [100.0, 102.0]
        );
        let bounds = parse_bounds(
            r#"{"end_to_end": [{"name": "stable_msgs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds, [bound("stable_msgs_per_s", false, 0.1)]);
        let rows = compare(&a, &b, &bounds);
        let verdicts: Vec<_> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [("x", Verdict::Worse), ("y", Verdict::Missing)],
            "traced rows are left out; a workload B dropped is a row of its own"
        );
        assert!(
            compare(&b, &a, &bounds).len() == 1,
            "what only B has is not A's to judge"
        );
        assert!(parse_set("{\"trace\": 0}").is_err());
        let failed = parse_set(&run("x", 0, 0.0, false)).unwrap_err();
        assert!(failed.contains("failed its checks"), "{failed}");
    }
}
