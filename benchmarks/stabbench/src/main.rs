//! `stabbench`: the repo's benchmark.
//!
//! ```text
//! stabbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--out <set.jsonl>] [--spans-out <spans.jsonl>]
//! stabbench compare <A.jsonl> <B.jsonl>
//! ```
//!
//! A run drives one workload in this process through the public APIs
//! only, checks its outputs, prints every metric by name with its unit,
//! and ends with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. It exits non-zero if any check failed.
//! See `benchmarks/README.md`.

mod alloc;
mod compare;
mod counts;
mod json;
mod layers;
mod load;
mod procfs;
mod report;
mod sim;
mod spans;
mod stats;
mod tcp;

use json::JsonValue;
use report::{Report, WORKLOADS};
use std::io::Write;
use std::process::ExitCode;
use tcp::TcpSpec;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// A run's command line.
#[derive(Debug)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Makes the inputs (payload stamps, publish phases, netsim seed)
    /// and nothing else.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// One-second run on reduced inputs, to keep the harness alive.
    pub smoke: bool,
    /// Append this run as one line to a set file (for `compare`).
    pub out: Option<String>,
    /// Write the traced run's spans here at exit.
    pub spans_out: Option<String>,
}

const USAGE: &str = "usage: stabbench --workload <tcp3-small|tcp3-large|tcp3-shard4|sim8-ctrl> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <set.jsonl>] [--spans-out <file>]\n       \
stabbench compare <A.jsonl> <B.jsonl>";

/// `BENCHMARK.json`'s `run_seconds`, for a run started by hand.
pub const DEFAULT_SECONDS: f64 = 20.0;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        spans_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?.clone()),
            "--spans-out" => args.spans_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.smoke {
        args.seconds = 1.0;
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 3600.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    let mut report = Report::default();
    let spans = match args.workload.as_str() {
        // Per-message cost dominates: locks, wakeups, flushes, ACK fold,
        // frontier eval, allocations.
        "tcp3-small" => tcp::run(
            &TcpSpec {
                payload: 64,
                window: 128,
                shards: 1,
                burst: 100_000,
            },
            args,
            &mut report,
        ),
        // Bytes dominate: encode/copy, send buffer, framing, socket
        // writes; the control plane does the same work per message as
        // on tcp3-small for 128x the bytes.
        "tcp3-large" => tcp::run(
            &TcpSpec {
                payload: 8192,
                window: 64,
                shards: 1,
                burst: 25_000,
            },
            args,
            &mut report,
        ),
        // tcp3-small on the sharded runtime: the only workload where
        // the router, the codec, ShardedFrontier and the worker
        // hand-off do work.
        "tcp3-shard4" => tcp::run(
            &TcpSpec {
                payload: 64,
                window: 128,
                shards: 4,
                burst: 100_000,
            },
            args,
            &mut report,
        ),
        "sim8-ctrl" => sim::run(args, &mut report),
        other => unreachable!("parse_args admitted {other}"),
    };
    let correct = report.failed == 0;
    let result = report.result(args.trace);
    let mut out = std::io::stdout().lock();
    let emit = |out: &mut std::io::StdoutLock<'_>, line: &str| {
        writeln!(out, "{line}").map_err(|e| format!("stdout: {e}"))
    };
    emit(
        &mut out,
        &format!(
            "== {} seed={} seconds={} trace={} ==",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    )?;
    for note in &report.notes {
        emit(&mut out, &format!("  {note}"))?;
    }
    for (what, n) in report.tallies.iter().filter(|(_, n)| *n > 0) {
        emit(&mut out, &format!("  finding: {n} {what}"))?;
    }
    for (name, cell) in result
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .unwrap_or(&[])
    {
        let value = cell.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let unit = cell.get("unit").and_then(JsonValue::as_str).unwrap_or("");
        emit(&mut out, &format!("{name:<48} {value:>16.4} {unit}"))?;
    }
    emit(
        &mut out,
        &format!(
            "attempted {} failed {} failed_ops_ratio {:.6}",
            report.attempted,
            report.failed,
            report.failed as f64 / report.attempted.max(1) as f64
        ),
    )?;
    if let Some(path) = &args.spans_out {
        std::fs::write(path, spans.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.out {
        let row = json::obj(vec![
            ("workload", json::s(&args.workload)),
            ("seed", JsonValue::Num(args.seed as f64)),
            ("seconds", JsonValue::Num(args.seconds)),
            ("trace", JsonValue::Num(f64::from(u8::from(args.trace)))),
            ("result", result.clone()),
        ]);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(f, "{}", json::render(&row)).map_err(|e| format!("{path}: {e}"))?;
    }
    emit(&mut out, &json::render(&result))?;
    Ok(correct)
}

fn main() -> ExitCode {
    report::now_ns(); // start the run's clock
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        compare::main(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| run(&args))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("stabbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload sim8-ctrl --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim8-ctrl", 7, 12.0, true)
        );
        assert!(!a.smoke && a.out.is_none());
        let a = parse_args(&argv("--workload tcp3-small --smoke --seconds 30")).unwrap();
        assert_eq!(a.seconds, 1.0, "--smoke is a one-second run");
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload tcp3-small --trace 2",
            "--workload tcp3-small --seed x",
            "--workload tcp3-small --seconds 0",
            "--workload tcp3-small --seed",
            "--workload tcp3-small --frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} should be refused");
        }
    }
}
