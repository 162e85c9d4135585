//! Tests for the simulator driver itself: application hooks fire with
//! correct arguments and in order (the cases are generic over the
//! machine, see `hooks_cases`; the sharded instantiation lives in
//! `stabilizer-shard`'s `sharded_sim.rs`), and the coalescing timer
//! batches ACKs in simulation. A node built with hooks keeps no log, and
//! its hooks see everything the log would have kept.

mod hooks_cases;

use bytes::Bytes;
use hooks_cases::{cluster, two_node_cfg};
use stabilizer_core::sim_driver::{build_cluster, build_cluster_with_hooks, SimNode};
use stabilizer_core::{AppHooks, ClusterConfig, NodeId, Options, SharedEventLog, StabilizerNode};
use stabilizer_dsl::AckTypeRegistry;
use stabilizer_netsim::{NetTopology, SimDuration, Simulation};
use std::sync::Arc;

fn plain(cfg: ClusterConfig, me: NodeId, acks: Arc<AckTypeRegistry>) -> StabilizerNode {
    StabilizerNode::new(cfg, me, acks).unwrap()
}

#[test]
fn hooks_receive_deliveries_frontiers_and_waits() {
    hooks_cases::hooks_receive_deliveries_frontiers_and_waits(Options::default(), plain);
}

#[test]
fn catch_up_fires_transfer_chunk_and_join_hooks() {
    hooks_cases::catch_up_fires_transfer_chunk_and_join_hooks(Options::default(), plain);
}

#[test]
fn coalescing_timer_batches_acks_in_simulation() {
    // With a 2 ms coalescing interval, five rapid-fire messages produce
    // far fewer ACK batches than eager mode's five-per-peer.
    let eager = {
        let mut sim = cluster(&two_node_cfg(Options::default()), &plain);
        for _ in 0..5 {
            sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 64])))
                .unwrap();
        }
        sim.run_until_idle();
        sim.actor(1).inner().metrics().control_msgs_sent
    };
    let coalesced = {
        let cfg = two_node_cfg(Options::default().ack_flush_micros(2000));
        let mut sim = cluster(&cfg, &plain);
        for _ in 0..5 {
            sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 64])))
                .unwrap();
        }
        // Coalescing timers re-arm forever: run a bounded slice.
        sim.run_for(SimDuration::from_millis(100));
        sim.actor(1).inner().metrics().control_msgs_sent
    };
    assert!(
        coalesced < eager,
        "coalescing sent {coalesced} >= eager {eager}"
    );
    assert!(coalesced >= 1);
}

/// The same seeded workload on any cluster of the fig. 2 topology:
/// three publishers, each waiting on its own publishes, over jittered
/// links so that frontiers advance in uneven steps.
fn fig2_workload<H: AppHooks>(
    build: impl FnOnce(&ClusterConfig, NetTopology) -> Simulation<SimNode<H>>,
) -> Simulation<SimNode<H>> {
    let cfg = ClusterConfig::parse(
        "az North_California n1 n2\n\
         az North_Virginia n3 n4 n5 n6\n\
         az Oregon n7\n\
         az Ohio n8\n\
         predicate OneWNode MAX($ALLWNODES-$MYWNODE)\n\
         predicate MajorityWNodes KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)\n\
         predicate AllWNodes MIN($ALLWNODES-$MYWNODE)\n",
    )
    .unwrap();
    let net = NetTopology::ec2_fig2().with_jitter(SimDuration::from_millis(3));
    let mut sim = build(&cfg, net);
    for round in 0..20u8 {
        for (i, key) in [(0, "AllWNodes"), (3, "MajorityWNodes"), (6, "OneWNode")] {
            let seq = sim
                .with_ctx(i, |n, ctx| n.publish_in(ctx, Bytes::from(vec![round; 256])))
                .unwrap();
            sim.with_ctx(i, |n, ctx| n.waitfor_in(ctx, NodeId(i as u16), key, seq))
                .unwrap();
        }
        sim.run_for(SimDuration::from_millis(7));
    }
    sim.run_until_idle();
    sim
}

#[test]
fn hooks_see_what_the_log_would_have_kept() {
    let logged = fig2_workload(|cfg, net| build_cluster(cfg, net, 9).unwrap());
    let hooked = fig2_workload(|cfg, net| {
        build_cluster_with_hooks(cfg, net, 9, |_| SharedEventLog::default()).unwrap()
    });
    for i in 0..8 {
        let (kept, node) = (&**logged.actor(i), hooked.actor(i));
        let seen = node.hooks.lock();
        assert_eq!(seen.frontier_log, kept.frontier_log, "node {i}: frontiers");
        assert_eq!(seen.delivery_log, kept.delivery_log, "node {i}: deliveries");
        assert_eq!(
            seen.completed_waits, kept.completed_waits,
            "node {i}: waits"
        );
        assert!(!kept.delivery_log.is_empty(), "node {i} delivered nothing");
        assert!(node.frontier_log.is_empty(), "node {i} kept its frontiers");
        assert!(node.delivery_log.is_empty(), "node {i} kept its deliveries");
        assert!(node.completed_waits.is_empty(), "node {i} kept its waits");
    }
    for i in [0, 3, 6] {
        let kept = logged.actor(i);
        assert!(!kept.frontier_log.is_empty(), "node {i}: no frontier moved");
        assert_eq!(kept.completed_waits.len(), 20, "node {i}: waits");
    }
}
