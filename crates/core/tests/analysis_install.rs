//! Static analysis of installed predicates in the simulated runtime:
//! under `option analysis warn` an install only compiles, and the
//! findings (and `f*`) are computed from the registered source when they
//! are read; `option analysis deny` rejects predicates with error- or
//! warning-level findings before they reach the frontier engine.

use bytes::Bytes;
use stabilizer_analyze::{availability, AckEmissions, Analyzer, Report};
use stabilizer_core::sim_driver::build_cluster;
use stabilizer_core::{AckTypeRegistry, ClusterConfig, CoreError, NodeId, StabilizerNode};
use stabilizer_netsim::{NetTopology, SimDuration};
use std::sync::Arc;

#[global_allocator]
static ALLOC: stabilizer_testalloc::Counting = stabilizer_testalloc::Counting;

/// East has two nodes, West one: at w1 (node 2) the set
/// `$MYAZWNODES-$MYWNODE` is empty, which the resolver accepts silently
/// when it appears inside a larger reduction.
const BASE: &str = "\
az East e1 e2
az West w1
predicate AllRemote MIN($ALLWNODES-$MYWNODE)
";

fn net() -> NetTopology {
    NetTopology::full_mesh(3, SimDuration::from_millis(5), 1e9)
}

/// Eight nodes in two AZs, no configured predicate.
const EIGHT: &str = "\
az East e1 e2 e3 e4
az West w1 w2 w3 w4
";

/// A majority of the remotes.
const QUORUM: &str = "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)";

/// Node e1 of `EIGHT` plus `options`.
fn eight_node(options: &str) -> StabilizerNode {
    let cfg = ClusterConfig::parse(&format!("{EIGHT}{options}")).unwrap();
    StabilizerNode::new(cfg, NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap()
}

/// Bytes one install of `QUORUM` requests at e1 under `option analysis
/// <mode>`.
fn install_cost(mode: &str) -> usize {
    let mut node = eight_node(&format!("option analysis {mode}\n"));
    let (cost, installed) =
        stabilizer_testalloc::cost(|| node.register_predicate(NodeId(0), "Quorum", QUORUM));
    installed.unwrap();
    cost
}

#[test]
fn a_warn_mode_install_costs_less_than_a_deny_mode_install() {
    let (warn, deny) = (install_cost("warn"), install_cost("deny"));
    assert!(warn < deny, "warn {warn} B, deny {deny} B");
}

/// What e1 reads for key `P`: its report and every `f*` entry.
fn read_back(node: &StabilizerNode) -> (Option<Report>, Vec<i64>) {
    let tolerances = node
        .predicate_tolerances()
        .filter(|(_, key, _)| *key == "P")
        .map(|(_, _, tol)| tol)
        .collect();
    (node.analysis_report(NodeId(0), "P"), tolerances)
}

/// What the analyzer and the prover say about `source` at e1 when run
/// directly, configured as the node configures them.
fn direct(node: &StabilizerNode, source: &str) -> (Option<Report>, Vec<i64>) {
    let (cfg, acks, me) = (node.config(), node.ack_types(), NodeId(0));
    let replicas = cfg.placement().replicas(me);
    let emissions = AckEmissions::new();
    let report = Analyzer::new(cfg.topology(), acks, me)
        .with_emissions(&emissions)
        .with_failure_budget(cfg.options().failure_budget as usize)
        .with_replicas(replicas)
        .analyze("P", source);
    let pred = stabilizer_core::Predicate::compile(source, cfg.topology(), acks, me)
        .unwrap()
        .restricted_to(replicas)
        .unwrap();
    let tolerance = availability(&pred, cfg.topology(), me).unwrap().tolerance;
    (Some(report), vec![tolerance])
}

#[test]
fn findings_and_tolerance_read_later_are_those_of_the_registered_source() {
    let mut node = eight_node("option failure_budget 1\n");
    let min = "MIN($ALLWNODES-$MYWNODE)";
    node.register_predicate(NodeId(0), "P", min).unwrap();
    let read = read_back(&node);
    assert_eq!(read, direct(&node, min));
    assert!(read
        .0
        .unwrap()
        .render_human()
        .contains("crash-unsatisfiable"));
    node.change_predicate(NodeId(0), "P", QUORUM).unwrap();
    let read = read_back(&node);
    assert_eq!(read, direct(&node, QUORUM));
    assert_eq!(read.1, vec![2]);
    node.unregister_predicate(NodeId(0), "P");
    assert_eq!(read_back(&node), (None, Vec::new()));
}

#[test]
fn warn_mode_installs_but_records_findings() {
    let cfg = ClusterConfig::parse(BASE).unwrap(); // analysis defaults to warn
    let mut sim = build_cluster(&cfg, net(), 11).unwrap();
    // Vacuous predicate: installs fine under warn...
    sim.with_ctx(0, |n, ctx| {
        n.register_predicate_in(ctx, NodeId(0), "Weak", "MAX($ALLWNODES)")
    })
    .unwrap();
    // ...but the finding is on record.
    let report = sim
        .actor(0)
        .inner()
        .analysis_report(NodeId(0), "Weak")
        .expect("warn mode records a report");
    assert!(!report.is_clean());
    assert!(report.render_human().contains("vacuous-predicate"));
    // Clean predicates get a clean report.
    let report = sim
        .actor(0)
        .inner()
        .analysis_report(NodeId(0), "AllRemote")
        .unwrap();
    assert!(report.is_clean());
    // The vacuous predicate still works as compiled.
    sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from_static(b"x")))
        .unwrap();
    sim.run_until_idle();
    let (frontier, _) = sim
        .actor(0)
        .inner()
        .stability_frontier(NodeId(0), "Weak")
        .unwrap();
    assert_eq!(frontier, 1);
}

#[test]
fn deny_mode_rejects_statically_empty_set_at_install() {
    let cfg = ClusterConfig::parse(&format!("{BASE}option analysis deny\n")).unwrap();
    let mut sim = build_cluster(&cfg, net(), 12).unwrap();
    // At w1 the AZ-local remote set is empty; the predicate *compiles*
    // (the empty set just vanishes from the reduction) but deny-mode
    // analysis rejects it.
    let err = sim
        .with_ctx(2, |n, ctx| {
            n.register_predicate_in(ctx, NodeId(2), "AzOrFirst", "MAX($3, $MYAZWNODES-$MYWNODE)")
        })
        .unwrap_err();
    match &err {
        CoreError::PredicateRejected { key, report } => {
            assert_eq!(key, "AzOrFirst");
            assert!(report.contains("empty-set"), "report:\n{report}");
        }
        other => panic!("expected PredicateRejected, got {other:?}"),
    }
    // The rejected predicate is not registered.
    assert!(sim
        .actor(2)
        .inner()
        .stability_frontier(NodeId(2), "AzOrFirst")
        .is_none());
    // The same source is accepted at e1, where the AZ has a peer.
    sim.with_ctx(0, |n, ctx| {
        n.register_predicate_in(ctx, NodeId(0), "AzOrFirst", "MAX($3, $MYAZWNODES-$MYWNODE)")
    })
    .expect("predicate is clean at a node with an AZ peer");
}

#[test]
fn deny_mode_rejects_warnings_and_change_predicate() {
    let cfg = ClusterConfig::parse(&format!("{BASE}option analysis deny\n")).unwrap();
    let mut sim = build_cluster(&cfg, net(), 13).unwrap();
    // Warning-level finding (vacuous) is enough for rejection.
    let err = sim
        .with_ctx(0, |n, ctx| {
            n.register_predicate_in(ctx, NodeId(0), "Weak", "MAX($ALLWNODES)")
        })
        .unwrap_err();
    assert!(matches!(err, CoreError::PredicateRejected { .. }));
    // change_predicate is guarded identically.
    let err = sim
        .with_ctx(0, |n, ctx| {
            n.change_predicate_in(ctx, NodeId(0), "AllRemote", "MAX($ALLWNODES)")
        })
        .unwrap_err();
    assert!(matches!(err, CoreError::PredicateRejected { .. }));
    // The original predicate survives the rejected change.
    sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from_static(b"x")))
        .unwrap();
    sim.run_until_idle();
    let (frontier, _) = sim
        .actor(0)
        .inner()
        .stability_frontier(NodeId(0), "AllRemote")
        .unwrap();
    assert_eq!(frontier, 1);
}

#[test]
fn deny_mode_rejects_a_startup_predicate_with_findings() {
    // The config parses the body once; the node still analyzes it before
    // installing it, and refuses the node as a whole.
    let cfg = ClusterConfig::parse(&format!(
        "{BASE}predicate Weak MAX($ALLWNODES)\noption analysis deny\n"
    ))
    .unwrap();
    let err = StabilizerNode::new(cfg, NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap_err();
    match &err {
        CoreError::PredicateRejected { key, report } => {
            assert_eq!(key, "Weak");
            assert!(report.contains("vacuous"), "report:\n{report}");
        }
        other => panic!("expected PredicateRejected, got {other:?}"),
    }
    // Under warn the same config boots with both keys installed.
    let warn = ClusterConfig::parse(&format!("{BASE}predicate Weak MAX($ALLWNODES)\n")).unwrap();
    let node = StabilizerNode::new(warn, NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap();
    assert!(node.stability_frontier(NodeId(0), "Weak").is_some());
    assert!(node.stability_frontier(NodeId(0), "AllRemote").is_some());
}

#[test]
fn configured_acktype_restrictions_feed_the_analyzer() {
    // Only e2 emits .verified; a predicate waiting on w1.verified is
    // rejected under deny.
    let cfg = ClusterConfig::parse(&format!(
        "{BASE}acktype verified e2\noption analysis deny\n"
    ))
    .unwrap();
    let mut sim = build_cluster(&cfg, net(), 14).unwrap();
    let err = sim
        .with_ctx(0, |n, ctx| {
            n.register_predicate_in(ctx, NodeId(0), "V", "MAX($WNODE_w1.verified)")
        })
        .unwrap_err();
    match &err {
        CoreError::PredicateRejected { report, .. } => {
            assert!(report.contains("unemitted-ack-type"), "report:\n{report}");
        }
        other => panic!("expected PredicateRejected, got {other:?}"),
    }
    // Waiting on the declared emitter is fine.
    sim.with_ctx(0, |n, ctx| {
        n.register_predicate_in(ctx, NodeId(0), "V", "MAX($WNODE_e2.verified)")
    })
    .unwrap();
}
