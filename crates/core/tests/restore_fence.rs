//! A restart resumes from what was persisted, not from the instant of
//! the crash: a node restored from a snapshot a few publishes old must
//! not hand out a sequence number a replica already holds. The restored
//! node is fenced until its replicas report how far they received its
//! stream, and resumes after the highest of those — as soon as the last
//! of them has, not at its next publish. Once released, an origin
//! refuses a report about its own stream above what it assigned: a
//! forged over-claim moves neither its table nor its send buffer. A
//! mirror refuses the same claim in a state-transfer snapshot, whose
//! `high` is what the origin assigned.

use bytes::Bytes;
use stabilizer_core::sim_driver::{build_cluster, SimNode};
use stabilizer_core::{
    fnv1a, Ack, AckTypeRegistry, ClusterConfig, CoreError, Delivery, NodeId, StabilizerNode,
    WireMsg, RECEIVED,
};
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
    // Fenced until node 1's RECEIVED cell arrives, then past it: the
    // fence lifts when the cell does, before anything is published.
    assert!(matches!(publish(&mut sim, b"NEW"), Err(CoreError::Fenced)));
    assert_eq!(sim.actor(0).inner().last_published(), 1);
    sim.run_for(ms(20));
    assert_eq!(sim.actor(0).inner().last_published(), 3);
    assert_eq!(publish(&mut sim, b"NEW").unwrap(), 4);
    sim.run_for(ms(20));
    let delivered = sim.actor(1).delivery_log.last().copied().unwrap();
    let new = Delivery::Upcall {
        len: 3,
        hash: fnv1a(b"NEW"),
    };
    assert_eq!(
        (delivered.1, delivered.2, delivered.3),
        (NodeId(0), 4, new),
        "node 1 never delivered NEW"
    );
}

#[test]
fn an_origin_refuses_a_report_of_more_than_it_assigned() {
    let cfg =
        ClusterConfig::parse("az A a\naz B b\npredicate All MIN($ALLWNODES-$MYWNODE)\n").unwrap();
    let acks = Arc::new(AckTypeRegistry::new());
    let mut origin = StabilizerNode::new(cfg, NodeId(0), acks).unwrap();
    origin.publish(Bytes::from_static(b"a")).unwrap();
    origin.publish(Bytes::from_static(b"b")).unwrap();
    let held = origin.send_buffer_bytes();
    let report = |seq| {
        let stream = NodeId(0);
        WireMsg::AckBatch(vec![Ack {
            stream,
            ty: RECEIVED,
            seq,
        }])
    };
    let cell = |node: &StabilizerNode| node.recorder().get(NodeId(0), NodeId(1), RECEIVED);

    origin.on_message(0, NodeId(1), report(40));
    assert_eq!(cell(&origin), 0);
    assert_eq!(origin.send_buffer_bytes(), held);
    assert_eq!(origin.stability_frontier(NodeId(0), "All"), Some((0, 0)));
    assert_eq!(origin.metrics().acks_rejected, 1);

    // What was assigned is learned as before, and frees the buffer.
    origin.on_message(0, NodeId(1), report(2));
    assert_eq!(cell(&origin), 2);
    assert_eq!(origin.send_buffer_bytes(), 0);
    assert_eq!(origin.metrics().acks_rejected, 1);
}

#[test]
fn a_mirror_refuses_a_transfer_snapshot_of_more_than_its_origin_assigned() {
    let cfg = ClusterConfig::parse(
        "az A a\naz B b\npredicate All MIN($ALLWNODES-$MYWNODE)\noption transfer_millis 50\n",
    )
    .unwrap();
    let acks = Arc::new(AckTypeRegistry::new());
    let mut mirror = StabilizerNode::new(cfg, NodeId(1), acks).unwrap();
    let snapshot = |base, high, seq| WireMsg::TransferSnapshot {
        stream: NodeId(0),
        base,
        high,
        acks: vec![Ack {
            stream: NodeId(0),
            ty: RECEIVED,
            seq,
        }],
        app_mark: 0,
    };
    // The origin's cell and the mirror's own, as the mirror holds them.
    let cells = |node: &StabilizerNode| {
        let recorder = node.recorder();
        let cell = |at| recorder.get(NodeId(0), at, RECEIVED);
        (cell(NodeId(0)), cell(NodeId(1)))
    };

    // A range that starts above what the origin assigned: refused whole,
    // no fast-forward.
    mirror.on_message(0, NodeId(0), snapshot(5, 2, 2));
    assert_eq!(cells(&mirror), (0, 0));
    assert_eq!(mirror.metrics().acks_rejected, 1);

    // A cell beyond it: skipped, and the range applied.
    mirror.on_message(0, NodeId(0), snapshot(2, 2, 40));
    assert_eq!(cells(&mirror), (0, 2));
    assert_eq!(mirror.metrics().acks_rejected, 2);

    // An honest snapshot is applied whole.
    mirror.on_message(0, NodeId(0), snapshot(3, 3, 3));
    assert_eq!(cells(&mirror), (3, 3));
    assert_eq!(mirror.metrics().acks_rejected, 2);
}
