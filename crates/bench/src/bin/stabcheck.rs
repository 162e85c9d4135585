//! `stabcheck`: static analysis for stability predicates from the
//! command line.
//!
//! ```text
//! stabcheck --config configs/fig2-ec2.cfg            # lint a deployment
//! stabcheck --paper                                  # lint the paper's examples
//! stabcheck -p 'KTH_MAX(9, $ALLWNODES)'              # lint ad-hoc predicates
//! stabcheck --config c.cfg --me n3 --failure-budget 1
//! stabcheck --config c.cfg --json                    # machine-readable output
//! ```
//!
//! Predicates given with `-p` are linted against the deployment from
//! `--config`, or the paper's Fig. 2 topology when no config is given.
//! Exit codes: `0` clean (info-level findings allowed; warnings allowed
//! unless `--deny-warnings`), `1` findings at the enforced level, `2`
//! usage or I/O error.

use stabilizer_analyze::{
    asymmetry_diagnostic, availability, json_string, render_sets, worst_cut, AckEmissions,
    Analyzer, Availability, PartitionCut, Report, Severity,
};
use stabilizer_core::ClusterConfig;
use stabilizer_dsl::{AckTypeRegistry, NodeId, Predicate, Span, Topology};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: stabcheck [options]
  --config <FILE>        lint the predicates of a cluster config file
  --paper                lint the paper's example predicates (Fig. 2 topology)
  -p, --predicate <SRC>  lint an ad-hoc predicate (repeatable)
  --me <NODE>            node to analyze at (default: first node)
  --all-nodes            analyze at every node of the topology
  --failure-budget <N>   crash budget for the crash-unsatisfiable lint
  --audit                availability audit: exact crash tolerance f*, minimal
                         blocking sets, and partition cuts per predicate, plus
                         the zero-fault-tolerance / partition-vulnerable /
                         tolerance-asymmetry lints (implies --all-nodes for
                         the asymmetry check unless --me is given)
  --json                 emit JSON instead of human-readable diagnostics
  --deny-warnings        exit nonzero on warnings, not just errors
  -h, --help             show this help";

struct Args {
    config: Option<String>,
    paper: bool,
    predicates: Vec<String>,
    me: Option<String>,
    all_nodes: bool,
    failure_budget: Option<usize>,
    audit: bool,
    json: bool,
    deny_warnings: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: None,
        paper: false,
        predicates: Vec::new(),
        me: None,
        all_nodes: false,
        failure_budget: None,
        audit: false,
        json: false,
        deny_warnings: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--config" => args.config = Some(value("--config")?),
            "--paper" => args.paper = true,
            "-p" | "--predicate" => args.predicates.push(value("--predicate")?),
            "--me" => args.me = Some(value("--me")?),
            "--all-nodes" => args.all_nodes = true,
            "--failure-budget" => {
                let v = value("--failure-budget")?;
                args.failure_budget =
                    Some(v.parse().map_err(|_| format!("bad failure budget {v}"))?);
            }
            "--audit" => args.audit = true,
            "--json" => args.json = true,
            "--deny-warnings" => args.deny_warnings = true,
            "-h" | "--help" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.config.is_none() && !args.paper && args.predicates.is_empty() {
        return Err(format!("nothing to check\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("stabcheck: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    // Assemble topology, ACK registry, emissions model, and corpus.
    let acks = AckTypeRegistry::new();
    let mut emissions = AckEmissions::new();
    let mut failure_budget = 0usize;
    let mut corpus: Vec<(String, String)> = Vec::new();
    let mut config: Option<ClusterConfig> = None;
    let topo: Arc<Topology> = if let Some(path) = &args.config {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let cfg = ClusterConfig::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        for (name, emitters) in cfg.ack_types() {
            let ty = acks.register(name);
            if !emitters.is_empty() {
                let ids: Vec<NodeId> = emitters
                    .iter()
                    .filter_map(|n| cfg.topology().node(n))
                    .collect();
                emissions.restrict(ty, &ids);
            }
        }
        failure_budget = cfg.options().failure_budget as usize;
        corpus.extend(cfg.predicates().map(|(k, v)| (k.to_owned(), v.to_owned())));
        let topo = Arc::clone(cfg.topology());
        config = Some(cfg);
        topo
    } else {
        Arc::new(stabilizer_analyze::paper::fig2_topology())
    };
    if args.paper {
        corpus.extend(stabilizer_analyze::paper::examples());
    }
    for (i, src) in args.predicates.iter().enumerate() {
        corpus.push((format!("arg{}", i + 1), src.clone()));
    }
    if let Some(f) = args.failure_budget {
        failure_budget = f;
    }

    // Which nodes to analyze at. An audit defaults to every vantage so
    // the cross-vantage asymmetry check has something to compare.
    let nodes: Vec<NodeId> = if args.all_nodes || (args.audit && args.me.is_none()) {
        topo.all_nodes()
    } else if let Some(name) = &args.me {
        vec![topo
            .node(name)
            .ok_or_else(|| format!("unknown node {name}"))?]
    } else {
        vec![NodeId(0)]
    };

    let mut worst: Option<Severity> = None;
    let mut out = String::new();
    let mut json_nodes: Vec<String> = Vec::new();
    let mut json_audit: Vec<String> = Vec::new();
    // Per predicate key: (vantage name, f*) rows in vantage order, for
    // the cross-vantage asymmetry diagnostic.
    let mut tol_by_key: BTreeMap<String, Vec<(String, i64)>> = BTreeMap::new();
    for me in nodes {
        // A configured predicate evaluates over the vantage's own
        // stream; under a `replicate` directive only that stream's
        // replica set ever acks it, so the analyzer lints explicit
        // operands against it (non-replica-operand).
        let replicas: Option<Vec<NodeId>> = config.as_ref().and_then(|cfg| {
            let p = cfg.placement();
            (!p.is_full_replication()).then(|| p.replicas(me).to_vec())
        });
        let mut analyzer = Analyzer::new(&topo, &acks, me)
            .with_emissions(&emissions)
            .with_failure_budget(failure_budget);
        if let Some(reps) = &replicas {
            analyzer = analyzer.with_replicas(reps);
        }
        let placement = config.as_ref().map(|cfg| cfg.placement().as_ref());
        if args.audit {
            analyzer = analyzer.with_availability_audit();
            if let Some(p) = placement {
                analyzer = analyzer.with_placement(p);
            }
        }
        let reports = analyzer.analyze_set(&corpus);
        for r in &reports {
            worst = worst.max(r.worst());
        }
        if args.json {
            let rendered: Vec<String> = reports.iter().map(Report::render_json).collect();
            json_nodes.push(format!(
                "{{\"me\":{},\"reports\":[{}]}}",
                json_string(topo.node_name(me)),
                rendered.join(",")
            ));
        } else {
            render_node(&mut out, &topo, me, &reports);
        }
        if args.audit {
            audit_node(
                &topo,
                &acks,
                me,
                &corpus,
                replicas.as_deref(),
                placement,
                args.json,
                &mut out,
                &mut json_audit,
                &mut tol_by_key,
            );
        }
    }

    // Cross-vantage asymmetry: a predicate whose f* depends on where it
    // is evaluated is bounded by its weakest vantage.
    let mut asymmetry_reports: Vec<Report> = Vec::new();
    if args.audit {
        for (key, rows) in &tol_by_key {
            let per_vantage: Vec<(&str, i64)> =
                rows.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            let source = corpus
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, s)| s.clone())
                .unwrap_or_default();
            if let Some(d) = asymmetry_diagnostic(&per_vantage, Span::new(0, source.len())) {
                let mut report = Report::new(key, &source);
                report.diagnostics.push(d);
                worst = worst.max(report.worst());
                asymmetry_reports.push(report);
            }
        }
        if !args.json {
            for r in &asymmetry_reports {
                out.push_str(&r.render_human());
            }
        }
    }

    let errors = matches!(worst, Some(Severity::Error));
    let warnings = matches!(worst, Some(Severity::Warning));
    let failed = errors || (warnings && args.deny_warnings);
    if args.json {
        let audit_tail = if args.audit {
            let asym: Vec<String> = asymmetry_reports.iter().map(Report::render_json).collect();
            format!(
                ",\"audit\":[{}],\"asymmetry\":[{}]",
                json_audit.join(","),
                asym.join(",")
            )
        } else {
            String::new()
        };
        println!(
            "{{\"clean\":{},\"nodes\":[{}]{}}}",
            !errors && !warnings,
            json_nodes.join(","),
            audit_tail
        );
    } else {
        print!("{out}");
        println!(
            "stabcheck: {} predicate{} checked, {}",
            corpus.len(),
            if corpus.len() == 1 { "" } else { "s" },
            match worst {
                Some(Severity::Error) => "errors found",
                Some(Severity::Warning) => "warnings found",
                Some(Severity::Info) => "clean (info notes only)",
                None => "clean",
            }
        );
    }
    Ok(ExitCode::from(u8::from(failed)))
}

/// Render the audit table for one vantage: per predicate, exact crash
/// tolerance `f*`, every minimal blocking set, and the cheapest
/// AZ-partition cut that strands the vantage (placement-aware link
/// counting); `f* undecided` where the prover leaves it open. Also
/// accumulates `tol_by_key` for the asymmetry check.
#[allow(clippy::too_many_arguments)]
fn audit_node(
    topo: &Topology,
    acks: &AckTypeRegistry,
    me: NodeId,
    corpus: &[(String, String)],
    replicas: Option<&[NodeId]>,
    placement: Option<&stabilizer_core::PlacementMap>,
    json: bool,
    out: &mut String,
    json_audit: &mut Vec<String>,
    tol_by_key: &mut BTreeMap<String, Vec<(String, i64)>>,
) {
    let mut text_rows: Vec<String> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    for (name, source) in corpus {
        let Ok(compiled) = Predicate::compile(source, topo, acks, me) else {
            continue; // the lint pass already reported it
        };
        let installed = match replicas {
            Some(reps) => match compiled.restricted_to(reps) {
                Ok(p) => p,
                Err(_) => continue,
            },
            None => compiled,
        };
        if installed.dependencies().is_empty() {
            continue; // vacuous: trivially available everywhere
        }
        let Some(avail) = availability(&installed, topo, me) else {
            if json {
                json_rows.push(format!(
                    "{{\"name\":{},\"tolerance\":null,\"unbounded\":null,\"blocking_sets\":null,\"worst_cut\":null}}",
                    json_string(name)
                ));
            } else {
                text_rows.push(format!("  {name}: f* undecided\n"));
            }
            continue;
        };
        let cut = worst_cut(&avail, topo, placement);
        tol_by_key
            .entry(name.clone())
            .or_default()
            .push((topo.node_name(me).to_owned(), avail.tolerance));
        if json {
            json_rows.push(render_audit_json(name, &avail, cut.as_ref(), topo));
        } else {
            text_rows.push(render_audit_row(name, &avail, cut.as_ref(), topo));
        }
    }
    if json {
        json_audit.push(format!(
            "{{\"me\":{},\"predicates\":[{}]}}",
            json_string(topo.node_name(me)),
            json_rows.join(",")
        ));
    } else if !text_rows.is_empty() {
        out.push_str(&format!("availability at {}:\n", topo.node_name(me)));
        for row in text_rows {
            out.push_str(&row);
        }
    }
}

fn render_audit_row(
    name: &str,
    avail: &Availability,
    cut: Option<&PartitionCut>,
    topo: &Topology,
) -> String {
    const MAX_SETS: usize = 8;
    let fstar = if avail.unbounded() {
        "unbounded".to_owned()
    } else if avail.tolerance < 0 {
        "blocked".to_owned()
    } else {
        avail.tolerance.to_string()
    };
    let blocking = if avail.unbounded() {
        "none".to_owned()
    } else {
        let shown = &avail.blocking_sets[..avail.blocking_sets.len().min(MAX_SETS)];
        let mut s = render_sets(shown, topo);
        if avail.blocking_sets.len() > MAX_SETS {
            s.push_str(&format!(
                " (+{} more)",
                avail.blocking_sets.len() - MAX_SETS
            ));
        }
        s
    };
    let cut = match cut {
        Some(c) => format!(
            "isolate {} severing {} link{}",
            c.far_azs.join("+"),
            c.severed_links,
            if c.severed_links == 1 { "" } else { "s" }
        ),
        None => "none".to_owned(),
    };
    format!("  {name}: f* = {fstar}  blocking: {blocking}  worst cut: {cut}\n")
}

fn render_audit_json(
    name: &str,
    avail: &Availability,
    cut: Option<&PartitionCut>,
    topo: &Topology,
) -> String {
    let sets: Vec<String> = avail
        .blocking_sets
        .iter()
        .map(|set| {
            let names: Vec<String> = set
                .iter()
                .map(|n| json_string(topo.node_name(*n)))
                .collect();
            format!("[{}]", names.join(","))
        })
        .collect();
    let cut = match cut {
        Some(c) => {
            let azs: Vec<String> = c.far_azs.iter().map(|a| json_string(a)).collect();
            format!(
                "{{\"azs\":[{}],\"severed_links\":{}}}",
                azs.join(","),
                c.severed_links
            )
        }
        None => "null".to_owned(),
    };
    format!(
        "{{\"name\":{},\"tolerance\":{},\"unbounded\":{},\"blocking_sets\":[{}],\"worst_cut\":{}}}",
        json_string(name),
        avail.tolerance,
        avail.unbounded(),
        sets.join(","),
        cut
    )
}

fn render_node(out: &mut String, topo: &Topology, me: NodeId, reports: &[Report]) {
    for r in reports {
        if r.diagnostics.is_empty() {
            continue;
        }
        out.push_str(&format!("checking at {}:\n", topo.node_name(me)));
        out.push_str(&r.render_human());
    }
}
