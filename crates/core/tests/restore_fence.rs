//! A restart resumes from what was persisted, not from the instant of
//! the crash: a node restored from a snapshot a few publishes old must
//! not hand out a sequence number a replica already holds. The restored
//! node is fenced until its replicas report how far they received its
//! stream, and resumes after the highest of those.

use bytes::Bytes;
use stabilizer_core::sim_driver::{build_cluster, SimNode};
use stabilizer_core::{fnv1a, ClusterConfig, CoreError, NodeId, StabilizerNode};
use stabilizer_netsim::{Actor, NetTopology, SimDuration};
use std::sync::Arc;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

#[test]
fn a_node_restored_from_an_older_snapshot_publishes_after_what_its_replicas_hold() {
    let cfg =
        ClusterConfig::parse("az A a\naz B b\npredicate All MIN($ALLWNODES-$MYWNODE)\n").unwrap();
    let mut sim = build_cluster(&cfg, NetTopology::full_mesh(2, ms(1), 1e9), 1).unwrap();
    let publish = |sim: &mut stabilizer_netsim::Simulation<SimNode>, payload: &'static [u8]| {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from_static(payload)))
    };
    publish(&mut sim, b"a").unwrap();
    let snapshot = sim.actor(0).inner().snapshot();
    publish(&mut sim, b"b").unwrap();
    publish(&mut sim, b"c").unwrap();
    sim.run_for(ms(20));
    assert_eq!(sim.actor(1).delivery_log.len(), 3);

    // Node 0 comes back from the snapshot taken after `a`.
    let acks = Arc::clone(sim.actor(0).inner().ack_types());
    let node = StabilizerNode::restore(cfg.clone(), NodeId(0), acks, snapshot).unwrap();
    sim.replace_actor(0, SimNode::new(node, Default::default()));
    sim.with_ctx(0, |actor, ctx| {
        actor.on_start(ctx);
        let actions = actor.inner_mut().take_actions();
        actor.process_actions(ctx, actions);
    });
    // Fenced until node 1's RECEIVED cell arrives, then past it.
    assert!(matches!(publish(&mut sim, b"NEW"), Err(CoreError::Fenced)));
    sim.run_for(ms(20));
    assert_eq!(publish(&mut sim, b"NEW").unwrap(), 4);
    sim.run_for(ms(20));
    let delivered = sim.actor(1).delivery_log.last().copied().unwrap();
    assert_eq!(
        (delivered.1, delivered.2, delivered.4),
        (NodeId(0), 4, fnv1a(b"NEW")),
        "node 1 never delivered NEW"
    );
}
