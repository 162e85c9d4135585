//! `stabtop` — a `top`-style console for a live Stabilizer node.
//!
//! Points at the HTTP telemetry endpoint a runtime exposes via
//! `serve_addr` (or a demo's `--serve` flag), scrapes `/metrics.json`
//! and `/stall`, and renders the cluster's pulse: throughput counters,
//! publish→deliver / publish→stable latency quantiles, and — the part
//! `top` can't show you — the frontier blame table naming exactly which
//! peer's ACK cell is holding each stalled predicate back.
//!
//! ```text
//! stabtop <ADDR>                    # refresh every second until Ctrl-C
//! stabtop --once <ADDR>             # one snapshot, then exit
//! stabtop --watch --interval-millis 250 <ADDR>
//! ```
//!
//! Exit status: 0 when the scrape succeeded and nothing is stalled,
//! 3 when any frontier is stalled (so scripts can alert on it),
//! 1 on scrape errors.

use stabilizer_telemetry::{http_get, parse_json, JsonValue};
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: stabtop [--once | --watch] [--interval-millis N] <ADDR>");
    std::process::exit(2);
}

fn fmt_ms(ns: f64) -> String {
    format!("{:.2}ms", ns / 1e6)
}

/// Split a series key `name{label="v",...}` into `(name, labels)`.
fn split_series(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => (&key[..i], key[i..].trim_matches(|c| c == '{' || c == '}')),
        None => (key, ""),
    }
}

/// Value of one label inside a rendered label string.
fn label_value<'a>(labels: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("{name}=\"");
    let start = labels.find(&pat)? + pat.len();
    let end = labels[start..].find('"')? + start;
    Some(&labels[start..end])
}

fn num(v: &JsonValue) -> f64 {
    v.as_f64().unwrap_or(0.0)
}

/// Sum every series of counter `name`, returning (total, per-node rows).
fn counter_total(counters: &[(String, JsonValue)], name: &str) -> u64 {
    counters
        .iter()
        .filter(|(k, _)| split_series(k).0 == name)
        .map(|(_, v)| num(v) as u64)
        .sum()
}

fn render_metrics(metrics: &JsonValue) -> String {
    let mut out = String::new();
    let empty: &[(String, JsonValue)] = &[];
    let gauges = metrics
        .get("gauges")
        .and_then(|g| g.as_obj())
        .unwrap_or(empty);
    let counters = metrics
        .get("counters")
        .and_then(|c| c.as_obj())
        .unwrap_or(empty);
    let histograms = metrics
        .get("histograms")
        .and_then(|h| h.as_obj())
        .unwrap_or(empty);

    for (k, _) in gauges {
        let (name, labels) = split_series(k);
        if name == "stab_build_info" {
            out.push_str(&format!(
                "build   version={} git={} shards={}\n",
                label_value(labels, "version").unwrap_or("?"),
                label_value(labels, "git_hash").unwrap_or("?"),
                label_value(labels, "shards").unwrap_or("?"),
            ));
        }
    }
    for (k, _) in gauges {
        let (name, labels) = split_series(k);
        if name == "stab_placement_info" {
            out.push_str(&format!(
                "place   hash={} partial={}\n",
                label_value(labels, "placement_hash").unwrap_or("?"),
                label_value(labels, "partial").unwrap_or("?"),
            ));
        }
    }
    let mut replica_rows: Vec<String> = gauges
        .iter()
        .filter(|(k, _)| split_series(k).0 == "stab_stream_replicas")
        .filter_map(|(k, _)| {
            let labels = split_series(k).1;
            Some(format!(
                "stream {} -> {{{}}}",
                label_value(labels, "stream")?,
                label_value(labels, "replicas")?,
            ))
        })
        .collect();
    // Only show the per-stream table for partial placements; under full
    // replication every row would just repeat the whole node set.
    if gauges.iter().any(|(k, _)| {
        let (name, labels) = split_series(k);
        name == "stab_placement_info" && label_value(labels, "partial") == Some("true")
    }) && !replica_rows.is_empty()
    {
        replica_rows.sort_by_key(|r| {
            r.strip_prefix("stream ")
                .and_then(|s| s.split(' ').next())
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0)
        });
        out.push_str(&format!("replicas  {}\n", replica_rows.join("  ")));
    }
    // Exact crash tolerance per predicate key, as the availability
    // prover computed it when each node was spawned (min across
    // vantages).
    let mut tol_rows: Vec<(String, i64)> = gauges
        .iter()
        .filter(|(k, _)| split_series(k).0 == "stab_predicate_tolerance")
        .filter_map(|(k, v)| {
            let key = label_value(split_series(k).1, "key")?;
            Some((key.to_owned(), num(v) as i64))
        })
        .collect();
    if !tol_rows.is_empty() {
        tol_rows.sort();
        let rendered: Vec<String> = tol_rows
            .iter()
            .map(|(key, tol)| match tol {
                -1 => format!("{key}=blocked"),
                t => format!("{key}=f*{t}"),
            })
            .collect();
        out.push_str(&format!("f*      {}\n", rendered.join("  ")));
    }
    if let Some((_, v)) = gauges
        .iter()
        .find(|(k, _)| split_series(k).0 == "stab_uptime_seconds")
    {
        out.push_str(&format!("uptime  {:.0}s\n", num(v)));
    }
    out.push_str(&format!(
        "totals  published={} delivered={} frontier_advances={} catch_ups={} suspicions={}\n",
        counter_total(counters, "stab_publishes_total"),
        counter_total(counters, "stab_deliveries_total"),
        counter_total(counters, "stab_frontier_advances_total"),
        counter_total(counters, "stab_catch_ups_total"),
        counter_total(counters, "stab_suspicions_total"),
    ));
    let joins = counter_total(counters, "stab_joins_total");
    if joins > 0 {
        out.push_str(&format!(
            "xfer    joins={} transfer_chunks_sent={}\n",
            joins,
            counter_total(counters, "stab_transfer_chunks_sent_total"),
        ));
    }

    let mut rows = Vec::new();
    for (k, h) in histograms {
        let (name, labels) = split_series(k);
        let series = match name {
            "stab_deliver_latency_ns" => "deliver".to_owned(),
            "stab_stability_latency_ns" => {
                format!("stable[{}]", label_value(labels, "key").unwrap_or("?"))
            }
            _ => continue,
        };
        let count = h.get("count").map(num).unwrap_or(0.0);
        if count == 0.0 {
            continue;
        }
        rows.push(format!(
            "  {series:<16} n={count:<7} p50={} p99={} max={}",
            fmt_ms(h.get("p50").map(num).unwrap_or(0.0)),
            fmt_ms(h.get("p99").map(num).unwrap_or(0.0)),
            fmt_ms(h.get("max").map(num).unwrap_or(0.0)),
        ));
    }
    if !rows.is_empty() {
        out.push_str("latency\n");
        rows.sort();
        for r in rows {
            out.push_str(&r);
            out.push('\n');
        }
    }
    out
}

/// Render `/stall` reports; returns (text, any_stalled).
fn render_stall(stall: &JsonValue) -> (String, bool) {
    let empty: &[JsonValue] = &[];
    let reports = stall
        .get("reports")
        .and_then(|r| r.as_arr())
        .unwrap_or(empty);
    let mut out = String::new();
    let (mut ok, mut stalled) = (0usize, Vec::new());
    for r in reports {
        if r.get("stalled").and_then(|s| s.as_bool()) != Some(true) {
            ok += 1;
            continue;
        }
        let whose = match (r.get("shard").and_then(|s| s.as_i64()), r.get("observer")) {
            (Some(shard), _) => format!("shard {shard} "),
            (None, Some(obs)) => format!("node {} ", num(obs) as u64),
            _ => String::new(),
        };
        let mut line = format!(
            "  {whose}stream {} key \"{}\": frontier {} < target {}  <-",
            r.get("stream").map(num).unwrap_or(0.0) as u64,
            r.get("key").and_then(|k| k.as_str()).unwrap_or("?"),
            r.get("frontier").map(num).unwrap_or(0.0) as u64,
            r.get("target").map(num).unwrap_or(0.0) as u64,
        );
        for b in r.get("blamed").and_then(|b| b.as_arr()).unwrap_or(empty) {
            line.push_str(&format!(
                " node {} {}={} (need {}{})",
                b.get("node").map(num).unwrap_or(0.0) as u64,
                b.get("ack_type_name")
                    .and_then(|n| n.as_str())
                    .unwrap_or("?"),
                b.get("have").map(num).unwrap_or(0.0) as u64,
                b.get("need").map(num).unwrap_or(0.0) as u64,
                if b.get("suspected").and_then(|s| s.as_bool()) == Some(true) {
                    ", SUSPECTED"
                } else {
                    ""
                },
            ));
        }
        for u in r
            .get("unsatisfiable")
            .and_then(|u| u.as_arr())
            .unwrap_or(empty)
        {
            line.push_str(&format!(" [unsatisfiable: {}]", u.as_str().unwrap_or("?")));
        }
        stalled.push(line);
    }
    out.push_str(&format!(
        "frontiers  {} ok, {} stalled\n",
        ok,
        stalled.len()
    ));
    for line in &stalled {
        out.push_str(line);
        out.push('\n');
    }
    (out, !stalled.is_empty())
}

/// One scrape + render; returns whether anything is stalled.
fn snapshot(addr: &str) -> Result<bool, String> {
    let (code, metrics_body) =
        http_get(addr, "/metrics.json").map_err(|e| format!("GET {addr}/metrics.json: {e}"))?;
    if code != 200 {
        return Err(format!("GET {addr}/metrics.json: HTTP {code}"));
    }
    let metrics = parse_json(&metrics_body).map_err(|e| format!("metrics.json: {e}"))?;
    let (code, stall_body) =
        http_get(addr, "/stall").map_err(|e| format!("GET {addr}/stall: {e}"))?;

    print!("stabtop — {addr}\n{}", render_metrics(&metrics));
    let any_stalled = if code == 200 {
        let stall = parse_json(&stall_body).map_err(|e| format!("stall body: {e}"))?;
        let (text, any) = render_stall(&stall);
        print!("{text}");
        any
    } else {
        // A runtime without a stall provider (bench endpoints) serves
        // metrics only; that is not an error.
        println!("frontiers  (no /stall route on this endpoint)");
        false
    };
    Ok(any_stalled)
}

fn main() {
    let mut addr: Option<String> = None;
    let mut watch = true;
    let mut interval = Duration::from_millis(1000);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--once" => watch = false,
            "--watch" => watch = true,
            "--interval-millis" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => interval = Duration::from_millis(ms),
                None => usage(),
            },
            other if addr.is_none() && !other.starts_with('-') => addr = Some(other.to_owned()),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };

    loop {
        let stalled = match snapshot(&addr) {
            Ok(stalled) => stalled,
            Err(e) => {
                eprintln!("stabtop: {e}");
                std::process::exit(1);
            }
        };
        if !watch {
            std::process::exit(if stalled { 3 } else { 0 });
        }
        std::thread::sleep(interval);
        // ANSI clear + home, like top(1); harmless when redirected.
        print!("\x1b[2J\x1b[H");
    }
}
