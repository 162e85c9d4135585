//! A stream id outside the cluster is refused with
//! `CoreError::UnknownStream` by every public entry that takes one, on
//! the node and through `SimNode`'s `_in` forms — never a
//! panic (it used to index past the placement table).

use stabilizer_core::sim_driver::build_cluster;
use stabilizer_core::{AckTypeRegistry, ClusterConfig, CoreError, NodeId, StabilizerNode};
use stabilizer_netsim::NetTopology;
use std::sync::Arc;

const OUTSIDE: NodeId = NodeId(9);

fn cfg(extra: &str) -> ClusterConfig {
    ClusterConfig::parse(&format!("az A a b\naz B c\n{extra}")).unwrap()
}

fn node(extra: &str) -> StabilizerNode {
    StabilizerNode::new(cfg(extra), NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap()
}

fn refused<T: std::fmt::Debug>(result: Result<T, CoreError>) {
    assert!(
        matches!(result, Err(CoreError::UnknownStream(_))),
        "{result:?}"
    );
}

#[test]
fn register_predicate_refuses_a_stream_outside_the_cluster() {
    refused(node("").register_predicate(OUTSIDE, "k", "MAX($2)"));
    // The analyzer runs first under `analysis deny`; it is refused too.
    refused(node("option analysis deny\n").register_predicate(OUTSIDE, "k", "MAX($2)"));
}

#[test]
fn change_predicate_refuses_a_stream_outside_the_cluster() {
    refused(node("").change_predicate(OUTSIDE, "k", "MAX($2)"));
}

#[test]
fn waitfor_refuses_a_stream_outside_the_cluster() {
    refused(node("").waitfor(OUTSIDE, "k", 1));
}

#[test]
fn stability_frontier_of_a_stream_outside_the_cluster_is_none() {
    assert_eq!(node("").stability_frontier(OUTSIDE, "k"), None);
}

#[test]
fn report_stability_refuses_a_stream_outside_the_cluster() {
    let mut n = node("");
    let verified = n.register_ack_type("verified");
    refused(n.report_stability(OUTSIDE, verified, 1));
    assert_eq!(n.report_stability(NodeId(1), verified, 1), Ok(()));
}

fn sim() -> stabilizer_netsim::Simulation<stabilizer_core::sim_driver::SimNode> {
    let net = NetTopology::full_mesh(3, stabilizer_netsim::SimDuration::from_millis(1), 1e9);
    build_cluster(&cfg(""), net, 1).unwrap()
}

#[test]
fn register_predicate_in_refuses_a_stream_outside_the_cluster() {
    refused(sim().with_ctx(0, |n, ctx| {
        n.register_predicate_in(ctx, OUTSIDE, "k", "MAX($2)")
    }));
}

#[test]
fn change_predicate_in_refuses_a_stream_outside_the_cluster() {
    refused(sim().with_ctx(0, |n, ctx| {
        n.change_predicate_in(ctx, OUTSIDE, "k", "MAX($2)")
    }));
}

#[test]
fn waitfor_in_refuses_a_stream_outside_the_cluster() {
    refused(sim().with_ctx(0, |n, ctx| n.waitfor_in(ctx, OUTSIDE, "k", 1)));
}
