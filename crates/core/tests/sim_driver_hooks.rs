//! Tests for the simulator driver itself: application hooks fire with
//! correct arguments and in order (the cases are generic over the
//! machine, see `hooks_cases`; the sharded instantiation lives in
//! `stabilizer-shard`'s `sharded_sim.rs`), and the coalescing timer
//! batches ACKs in simulation.

mod hooks_cases;

use bytes::Bytes;
use hooks_cases::{cluster, two_node_cfg};
use stabilizer_core::{ClusterConfig, NodeId, Options, StabilizerNode};
use stabilizer_dsl::AckTypeRegistry;
use stabilizer_netsim::SimDuration;
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
