//! Every application actor rides the one simulator driver: whatever the
//! embedded node emits during a callback — sends, frontier advances,
//! the update a predicate registration produces — leaves in that same
//! callback. Stepping each of the five application simulations event by
//! event, no actor is ever found holding undrained actions.

use bytes::Bytes;
use stabilizer::filebackup::{build_backup, ec2_backup_cfg};
use stabilizer::kvstore::build_kv_cluster;
use stabilizer::pubsub::{build_brokers, build_topic_brokers, pubsub_cfg};
use stabilizer::quorum::{build_quorum, cloudlab_cfg, QuorumSetup};
use stabilizer::StabilizerNode;
use stabilizer_netsim::{Actor, NetTopology, SimDuration, Simulation};

/// Step `sim` to idle, asserting before the first event and after every
/// one that no actor's node (as `node` finds it) holds an action.
fn step_clean<A: Actor>(sim: &mut Simulation<A>, node: impl Fn(&A) -> &StabilizerNode) {
    let n = sim.topology().len();
    loop {
        for i in 0..n {
            assert!(
                !node(sim.actor(i)).has_actions(),
                "actor {i} left actions undrained at {:?}",
                sim.now()
            );
        }
        if !sim.step() {
            break;
        }
    }
}

#[test]
fn topic_broker_drains_what_a_predicate_registration_emits() {
    let mut sim = build_topic_brokers(&pubsub_cfg(), NetTopology::cloudlab_table2(), 1).unwrap();
    // Published before anyone subscribes: every broker mirrors it.
    let seq = sim
        .with_ctx(0, |b, ctx| {
            b.publish_in(ctx, "news", Bytes::from_static(b"hi"))
        })
        .unwrap();
    step_clean(&mut sim, |b| b.stabilizer());
    // The Subscribe record registers the topic's predicate at the
    // publisher from inside the delivery, and the predicate is already
    // satisfied: the registration itself emits a frontier update.
    sim.with_ctx(2, |b, ctx| b.subscribe_in(ctx, "news"))
        .unwrap();
    step_clean(&mut sim, |b| b.stabilizer());
    let publisher = sim.actor(0);
    assert_eq!(publisher.topic_frontier("news"), Some(seq));
    let subscribed_at = publisher.driver().delivery_log.last().unwrap().0;
    assert_eq!(publisher.topic_covered_at("news", seq), Some(subscribed_at));
    sim.with_ctx(2, |b, ctx| b.unsubscribe_in(ctx, "news"))
        .unwrap();
    step_clean(&mut sim, |b| b.stabilizer());
    assert_eq!(sim.actor(0).topic_frontier("news"), None, "unregistered");
}

#[test]
fn stab_broker_drains_every_callback() {
    let mut sim = build_brokers(&pubsub_cfg(), NetTopology::cloudlab_table2(), 1).unwrap();
    sim.actor_mut(3).subscribe();
    sim.with_ctx(0, |b, ctx| {
        b.set_predicate(ctx, "track", "MIN($ALLWNODES-$MYWNODE)", false)
    })
    .unwrap();
    for _ in 0..3 {
        sim.with_ctx(0, |b, ctx| b.publish_one(ctx, 512)).unwrap();
    }
    step_clean(&mut sim, |b| b.stabilizer());
    assert_eq!(sim.actor(3).deliveries().len(), 3);
    assert_eq!(sim.actor(0).frontier("track"), Some(3));
}

#[test]
fn quorum_actor_drains_every_callback() {
    let setup = QuorumSetup::fig3();
    let net = NetTopology::cloudlab_table2();
    let mut sim = build_quorum(&cloudlab_cfg(), net, setup.clone(), 1).unwrap();
    let seq = sim
        .with_ctx(setup.writer, |a, ctx| a.write_in(ctx, 1024))
        .unwrap();
    let deadline = sim.now() + SimDuration::from_millis(200);
    sim.with_ctx(setup.reader, |a, ctx| a.chase_version(ctx, seq, deadline));
    step_clean(&mut sim, |a| a.stabilizer());
    assert!(sim.actor(setup.writer).write_committed_at(seq).is_some());
    assert!(sim.actor(setup.reader).read_observed_at(seq).is_some());
}

#[test]
fn backup_node_drains_every_callback() {
    let mut sim = build_backup(&ec2_backup_cfg(), NetTopology::ec2_fig2(), 1).unwrap();
    sim.with_ctx(0, |n, ctx| n.store_file(ctx, 20_000)).unwrap();
    step_clean(&mut sim, |n| n.stabilizer());
    assert!(sim.actor(0).file_sync_times("AllWNodes")[0].is_some());
}

#[test]
fn geo_kv_node_drains_every_callback() {
    let cfg = ec2_backup_cfg();
    let mut sim = build_kv_cluster(&cfg, NetTopology::ec2_fig2(), 1).unwrap();
    let seq = sim
        .with_ctx(0, |kv, ctx| kv.put_in(ctx, "k", Bytes::from_static(b"v")))
        .unwrap();
    sim.with_ctx(0, |kv, ctx| kv.waitfor_in(ctx, "AllWNodes", seq))
        .unwrap();
    step_clean(&mut sim, |kv| kv.stabilizer());
    assert_eq!(sim.actor(0).driver().completed_waits.len(), 1);
    assert_eq!(
        sim.actor(7).get(0.into(), "k"),
        Some(Bytes::from_static(b"v"))
    );
}
