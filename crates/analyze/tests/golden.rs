//! Golden-file tests: one fixture per lint class pinning the exact
//! human-rendered diagnostic, plus a shape test for the JSON rendering.
//!
//! Regenerate fixtures after an intentional renderer/message change with
//! `GOLDEN_UPDATE=1 cargo test -p stabilizer-analyze --test golden`.

use stabilizer_analyze::{asymmetry_diagnostic, AckEmissions, Analyzer, Lint, Report};
use stabilizer_dsl::{AckTypeRegistry, NodeId, Span, Topology};
use std::path::PathBuf;

fn topo() -> Topology {
    Topology::builder()
        .az("East", &["e1", "e2"])
        .az("West", &["w1", "w2"])
        .az("Solo", &["s1"])
        .build()
        .unwrap()
}

fn check(lint: Lint, report: &Report) {
    assert!(
        report.diagnostics.iter().any(|d| d.lint == lint),
        "scenario for {} did not produce it:\n{}",
        lint.id(),
        report.render_human()
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.txt", lint.id()));
    let rendered = report.render_human();
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with GOLDEN_UPDATE=1",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "rendered output for {} diverged from {}",
        lint.id(),
        path.display()
    );
}

/// Analyze one predicate at `me` with a default analyzer.
fn analyze_at(me: u16, name: &str, src: &str) -> Report {
    let t = topo();
    let acks = AckTypeRegistry::new();
    Analyzer::new(&t, &acks, NodeId(me)).analyze(name, src)
}

#[test]
fn golden_syntax_error() {
    check(Lint::SyntaxError, &analyze_at(0, "P", "MAX($1"));
}

#[test]
fn golden_unknown_name() {
    check(Lint::UnknownName, &analyze_at(0, "P", "MAX($AZ_Mars)"));
}

#[test]
fn golden_unknown_ack_type() {
    check(
        Lint::UnknownAckType,
        &analyze_at(0, "P", "MIN($ALLWNODES.validated)"),
    );
}

#[test]
fn golden_empty_set() {
    // At s1 (alone in its AZ) the AZ-local remote set is empty; the
    // reduction still has the $2 operand, so the resolver accepts it.
    check(
        Lint::EmptySet,
        &analyze_at(4, "P", "MAX($2, $MYAZWNODES-$MYWNODE)"),
    );
}

#[test]
fn golden_rank_out_of_range() {
    check(
        Lint::RankOutOfRange,
        &analyze_at(0, "P", "KTH_MAX(9, $ALLWNODES)"),
    );
}

#[test]
fn golden_bad_rank() {
    check(Lint::BadRank, &analyze_at(0, "P", "KTH_MIN(0, $ALLWNODES)"));
}

#[test]
fn golden_unemitted_ack_type() {
    let t = topo();
    let acks = AckTypeRegistry::new();
    let verified = acks.register("verified");
    let mut em = AckEmissions::new();
    em.restrict(verified, &[t.node("e2").unwrap()]);
    let report = Analyzer::new(&t, &acks, NodeId(0))
        .with_emissions(&em)
        .analyze("P", "MAX($WNODE_w1.verified)");
    check(Lint::UnemittedAckType, &report);
}

#[test]
fn golden_non_replica_operand() {
    let t = topo();
    let acks = AckTypeRegistry::new();
    // Stream replicated on {e1, e2, w1}; the predicate names w2.
    let reps = [NodeId(0), NodeId(1), NodeId(2)];
    let report = Analyzer::new(&t, &acks, NodeId(0))
        .with_replicas(&reps)
        .analyze("P", "MAX($WNODE_w2)");
    check(Lint::NonReplicaOperand, &report);
}

#[test]
fn golden_duplicate_operand() {
    check(Lint::DuplicateOperand, &analyze_at(0, "P", "MAX($2, $2)"));
}

#[test]
fn golden_useless_difference() {
    check(
        Lint::UselessDifference,
        &analyze_at(0, "P", "MIN($MYAZWNODES-$AZ_West)"),
    );
}

#[test]
fn golden_vacuous_predicate() {
    check(
        Lint::VacuousPredicate,
        &analyze_at(0, "P", "MAX($ALLWNODES)"),
    );
}

#[test]
fn golden_constant_frontier() {
    check(Lint::ConstantFrontier, &analyze_at(0, "P", "MAX(7)"));
}

#[test]
fn golden_crash_unsatisfiable() {
    let t = topo();
    let acks = AckTypeRegistry::new();
    let report = Analyzer::new(&t, &acks, NodeId(0))
        .with_failure_budget(1)
        .analyze("P", "MIN($ALLWNODES-$MYWNODE)");
    check(Lint::CrashUnsatisfiable, &report);
}

#[test]
fn golden_equivalent_predicates() {
    let t = topo();
    let acks = AckTypeRegistry::new();
    let reports = Analyzer::new(&t, &acks, NodeId(0)).analyze_set(&[
        ("All".to_string(), "MIN($ALLWNODES-$MYWNODE)".to_string()),
        (
            "AlsoAll".to_string(),
            "KTH_MAX(4, $ALLWNODES-$MYWNODE)".to_string(),
        ),
    ]);
    check(Lint::EquivalentPredicates, &reports[1]);
}

#[test]
fn golden_dominated_predicate() {
    let t = topo();
    let acks = AckTypeRegistry::new();
    let reports = Analyzer::new(&t, &acks, NodeId(0)).analyze_set(&[
        ("All".to_string(), "MIN($ALLWNODES-$MYWNODE)".to_string()),
        ("One".to_string(), "MAX($ALLWNODES-$MYWNODE)".to_string()),
    ]);
    check(Lint::DominatedPredicate, &reports[1]);
}

#[test]
fn golden_zero_fault_tolerance() {
    // The audit lints stay silent unless enabled.
    let t = topo();
    let acks = AckTypeRegistry::new();
    let src = "MIN($ALLWNODES-$MYWNODE)";
    assert!(Analyzer::new(&t, &acks, NodeId(0))
        .analyze("P", src)
        .is_clean());
    let report = Analyzer::new(&t, &acks, NodeId(0))
        .with_availability_audit()
        .analyze("P", src);
    check(Lint::ZeroFaultTolerance, &report);
}

#[test]
fn golden_partition_vulnerable() {
    // Needs 3 of the 4 remotes: f* = 1 (no zero-fault warning), but
    // cutting off AZ West (2 nodes) strands the vantage.
    let t = topo();
    let acks = AckTypeRegistry::new();
    let report = Analyzer::new(&t, &acks, NodeId(0))
        .with_availability_audit()
        .analyze("P", "KTH_MAX(3, $ALLWNODES-$MYWNODE)");
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.lint == Lint::ZeroFaultTolerance));
    check(Lint::PartitionVulnerable, &report);
}

#[test]
fn golden_tolerance_asymmetry() {
    // Inside East the predicate reads one node (the other East peer);
    // outside it reads two, so f* differs by vantage. The per-vantage
    // tolerances below match what the prover computes for this source.
    let src = "MAX($AZ_East-$MYWNODE)";
    let d = asymmetry_diagnostic(
        &[("e1", 0), ("e2", 0), ("w1", 1), ("w2", 1), ("s1", 1)],
        Span::new(0, src.len()),
    )
    .expect("differing tolerances must fire");
    let mut report = Report::new("P", src);
    report.diagnostics.push(d);
    check(Lint::ToleranceAsymmetry, &report);
}

#[test]
fn every_lint_class_has_a_golden_fixture() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for lint in Lint::ALL {
        let path = dir.join(format!("{}.txt", lint.id()));
        assert!(
            path.is_file(),
            "no golden fixture for lint class {}",
            lint.id()
        );
    }
}

#[test]
fn json_rendering_has_the_documented_shape() {
    let report = analyze_at(0, "BadRank", "KTH_MAX(9, $ALLWNODES)");
    let json = report.render_json();
    for needle in [
        "\"name\":\"BadRank\"",
        "\"source\":\"KTH_MAX(9, $ALLWNODES)\"",
        "\"clean\":false",
        "\"diagnostics\":[",
        "\"lint\":\"rank-out-of-range\"",
        "\"severity\":\"error\"",
        "\"start\":8",
        "\"end\":9",
        "\"line\":1",
        "\"column\":9",
        "\"message\":",
        "\"notes\":[",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
    // Balanced and quote-escaped enough to be real JSON: a clean report
    // also renders, with an empty diagnostics array.
    let clean = analyze_at(0, "Ok \"quoted\"", "MIN($ALLWNODES-$MYWNODE)");
    let json = clean.render_json();
    assert!(json.contains("\"clean\":true"));
    assert!(json.contains("\"diagnostics\":[]"));
    assert!(json.contains("\\\"quoted\\\""));
}
