//! A predicate nested deeper than the DSL admits is an error on every
//! path that reads one — `parse`, `Predicate::compile` and a node built
//! from a configuration file, where the analyzer parses it first —
//! rather than a stack overflow in whichever pass recurses on it first.

use stabilizer_core::{ClusterConfig, StabilizerNode};
use stabilizer_dsl::{parse, AckTypeRegistry, DslError, NodeId, Predicate};
use std::sync::Arc;

const CLUSTER: &str = "az East e1 e2\naz West w1\n";

/// Nested parentheses, nested calls, and a left-deep arithmetic and
/// set-difference chain, each `n` levels deep.
fn shapes(n: usize) -> [String; 4] {
    [
        format!("MAX({}$1{})", "(".repeat(n), ")".repeat(n)),
        format!("{}$1{}", "MAX(".repeat(n), ")".repeat(n)),
        format!("KTH_MIN(1{}, $1)", "+0".repeat(n)),
        format!("MIN($1{})", "-$2".repeat(n)),
    ]
}

fn node(predicate: &str) -> Result<StabilizerNode, stabilizer_core::CoreError> {
    let cfg = ClusterConfig::parse(&format!("{CLUSTER}predicate Deep {predicate}\n")).unwrap();
    StabilizerNode::new(cfg, NodeId(0), Arc::new(AckTypeRegistry::new()))
}

#[test]
fn a_predicate_nested_100_000_deep_is_refused_everywhere() {
    let cfg = ClusterConfig::parse(CLUSTER).unwrap();
    let acks = AckTypeRegistry::new();
    for src in shapes(100_000) {
        let shape = &src[..12];
        assert!(
            matches!(parse(&src), Err(DslError::Parse { .. })),
            "{shape}…"
        );
        assert!(
            Predicate::compile(&src, cfg.topology(), &acks, NodeId(0)).is_err(),
            "{shape}…"
        );
        assert!(node(&src).is_err(), "{shape}…");
    }
}

#[test]
fn a_predicate_nested_100_deep_still_installs() {
    for src in shapes(100) {
        node(&src).unwrap_or_else(|e| panic!("{}…: {e}", &src[..12]));
    }
}
