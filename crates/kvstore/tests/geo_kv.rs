//! Integration tests for the geo-replicated K/V store over the simulated
//! EC2 WAN: mirroring, read-your-writes at the primary, get_by_time on
//! mirrors, stability frontiers gating reads, tombstones, and rebuilding
//! a node from what it persisted.

use bytes::Bytes;
use stabilizer_core::{ClusterConfig, NodeId, Snapshot};
use stabilizer_kvstore::{build_kv_cluster, load_wal, save_wal, GeoKvNode};
use stabilizer_netsim::{Actor, NetTopology, Simulation};

fn cfg() -> ClusterConfig {
    ClusterConfig::parse(
        "az North_California n1 n2\n\
         az North_Virginia n3 n4 n5 n6\n\
         az Oregon n7\n\
         az Ohio n8\n\
         predicate AllWNodes MIN($ALLWNODES-$MYWNODE)\n\
         predicate OneWNode MAX($ALLWNODES-$MYWNODE)\n",
    )
    .unwrap()
}

#[test]
fn put_is_locally_stable_and_mirrors_everywhere() {
    let mut sim = build_kv_cluster(&cfg(), NetTopology::ec2_fig2(), 1).unwrap();
    let seq = sim
        .with_ctx(0, |kv, ctx| {
            kv.put_in(ctx, "user/alice", Bytes::from_static(b"v1"))
        })
        .unwrap();
    // Locally stable on return (read-your-writes at the primary).
    assert_eq!(
        sim.actor(0).get(NodeId(0), "user/alice"),
        Some(Bytes::from_static(b"v1"))
    );
    // Remote mirrors do not have it yet (WAN latency).
    assert_eq!(sim.actor(7).get(NodeId(0), "user/alice"), None);
    sim.run_until_idle();
    for i in 0..8 {
        assert_eq!(
            sim.actor(i).get(NodeId(0), "user/alice"),
            Some(Bytes::from_static(b"v1")),
            "mirror {i} missing the value"
        );
    }
    let (frontier, _) = sim.actor(0).get_stability_frontier("AllWNodes").unwrap();
    assert_eq!(frontier, seq);
}

/// A key too long for the record's 16-bit length field is refused
/// before the origin applies or publishes it — written truncated, every
/// mirror would refuse the record and the pools would silently diverge
/// — and the longest key that fits reaches the mirror whole.
#[test]
fn origin_and_mirror_agree_on_a_key_at_the_length_limit() {
    let cfg = ClusterConfig::parse("az A a b\noption max_payload_bytes 1048576\n").unwrap();
    let net = NetTopology::full_mesh(2, stabilizer_netsim::SimDuration::from_millis(5), 1e9);
    let mut sim = build_kv_cluster(&cfg, net, 1).unwrap();
    let (longest, too_long) = ("k".repeat(65_535), "k".repeat(65_536));
    let v = Bytes::from_static(b"v");

    let refused = sim.with_ctx(0, |kv, ctx| kv.put_in(ctx, &too_long, v.clone()));
    assert!(refused.is_err(), "{refused:?}");
    let refused = sim.with_ctx(0, |kv, ctx| kv.delete_in(ctx, &too_long));
    assert!(refused.is_err(), "{refused:?}");
    assert_eq!(sim.actor(0).stabilizer().last_published(), 0);
    assert_eq!(sim.actor(0).get(NodeId(0), &too_long), None);

    let seq = sim.with_ctx(0, |kv, ctx| kv.put_in(ctx, &longest, v.clone()));
    assert_eq!(seq, Ok(1));
    sim.run_until_idle();
    for i in 0..2 {
        let got = sim.actor(i).get(NodeId(0), &longest);
        assert_eq!(got, Some(v.clone()), "node {i}");
    }
}

#[test]
fn pools_are_per_owner_and_do_not_collide() {
    let mut sim = build_kv_cluster(&cfg(), NetTopology::ec2_fig2(), 2).unwrap();
    sim.with_ctx(0, |kv, ctx| {
        kv.put_in(ctx, "k", Bytes::from_static(b"from-n1"))
    })
    .unwrap();
    sim.with_ctx(6, |kv, ctx| {
        kv.put_in(ctx, "k", Bytes::from_static(b"from-n7"))
    })
    .unwrap();
    sim.run_until_idle();
    for i in 0..8 {
        assert_eq!(
            sim.actor(i).get(NodeId(0), "k"),
            Some(Bytes::from_static(b"from-n1"))
        );
        assert_eq!(
            sim.actor(i).get(NodeId(6), "k"),
            Some(Bytes::from_static(b"from-n7"))
        );
    }
}

#[test]
fn get_by_time_on_a_mirror_sees_origin_timestamps() {
    let mut sim = build_kv_cluster(&cfg(), NetTopology::ec2_fig2(), 3).unwrap();
    sim.with_ctx(0, |kv, ctx| {
        kv.put_in(ctx, "cfg", Bytes::from_static(b"old"))
    })
    .unwrap();
    let t_between = {
        sim.run_until_idle();
        sim.now().as_nanos() + 1
    };
    sim.run_for(stabilizer_netsim::SimDuration::from_millis(10));
    sim.with_ctx(0, |kv, ctx| {
        kv.put_in(ctx, "cfg", Bytes::from_static(b"new"))
    })
    .unwrap();
    sim.run_until_idle();
    let mirror = sim.actor(5);
    assert_eq!(
        mirror.get(NodeId(0), "cfg"),
        Some(Bytes::from_static(b"new"))
    );
    assert_eq!(
        mirror.get_by_time(NodeId(0), "cfg", t_between),
        Some(Bytes::from_static(b"old"))
    );
}

#[test]
fn deletes_propagate_as_tombstones() {
    let mut sim = build_kv_cluster(&cfg(), NetTopology::ec2_fig2(), 4).unwrap();
    sim.with_ctx(0, |kv, ctx| {
        kv.put_in(ctx, "gone", Bytes::from_static(b"x"))
    })
    .unwrap();
    sim.run_until_idle();
    assert_eq!(
        sim.actor(3).get(NodeId(0), "gone"),
        Some(Bytes::from_static(b"x"))
    );
    sim.with_ctx(0, |kv, ctx| kv.delete_in(ctx, "gone"))
        .unwrap();
    sim.run_until_idle();
    for i in 0..8 {
        assert_eq!(
            sim.actor(i).get(NodeId(0), "gone"),
            None,
            "mirror {i} kept deleted key"
        );
    }
}

#[test]
fn waitfor_gates_on_the_chosen_consistency_model() {
    let mut sim = build_kv_cluster(&cfg(), NetTopology::ec2_fig2(), 5).unwrap();
    let seq = sim
        .with_ctx(0, |kv, ctx| kv.put_in(ctx, "doc", Bytes::from_static(b"d")))
        .unwrap();
    let t_one = sim
        .with_ctx(0, |kv, ctx| kv.waitfor_in(ctx, "OneWNode", seq))
        .unwrap();
    let t_all = sim
        .with_ctx(0, |kv, ctx| kv.waitfor_in(ctx, "AllWNodes", seq))
        .unwrap();
    sim.run_until_idle();
    let waits = &sim.actor(0).driver().completed_waits;
    let at = |tok| {
        waits
            .iter()
            .find(|(_, t)| *t == tok)
            .map(|(at, _)| *at)
            .unwrap()
    };
    assert!(
        at(t_one) <= at(t_all),
        "weaker consistency must not wait longer"
    );
}

#[test]
fn runtime_registered_predicate_over_kv() {
    let mut sim = build_kv_cluster(&cfg(), NetTopology::ec2_fig2(), 6).unwrap();
    // §IV-A's topology-aware predicate: AZ-replicated plus one remote site.
    sim.with_ctx(0, |kv, ctx| {
        kv.register_predicate_in(
            ctx,
            "AzPlusRemote",
            "MIN(MIN($MYAZWNODES-$MYWNODE), MAX($ALLWNODES-$MYAZWNODES))",
        )
    })
    .unwrap();
    let seq = sim
        .with_ctx(0, |kv, ctx| {
            kv.put_in(ctx, "backup", Bytes::from(vec![1u8; 4096]))
        })
        .unwrap();
    sim.run_until_idle();
    let reached = sim
        .actor(0)
        .driver()
        .covered_at(NodeId(0), "AzPlusRemote", seq)
        .unwrap();
    // Gated by the slower of: intra-AZ RTT (3.7ms) and fastest remote
    // region RTT (Oregon, 23.29ms) -> about 23-25 ms.
    let ms = reached.as_millis_f64();
    assert!(
        (20.0..30.0).contains(&ms),
        "AzPlusRemote stabilized at {ms}ms"
    );
}

#[test]
fn primary_crash_restart_with_wal_and_snapshot() {
    // Full §III-E recovery at the K/V layer: persist the pools' WALs and
    // the control-plane snapshot, crash the primary, rebuild it from
    // both, and resume writing.
    let mut sim = build_kv_cluster(&cfg(), NetTopology::ec2_fig2(), 31).unwrap();
    sim.with_ctx(0, |kv, ctx| {
        kv.put_in(ctx, "cfg/a", Bytes::from_static(b"1"))
    })
    .unwrap();
    sim.with_ctx(0, |kv, ctx| {
        kv.put_in(ctx, "cfg/b", Bytes::from_static(b"2"))
    })
    .unwrap();
    sim.run_until_idle();

    crash_and_rebuild(&mut sim, 0, "primary");

    // State survived...
    assert_eq!(
        sim.actor(0).get(NodeId(0), "cfg/a"),
        Some(Bytes::from_static(b"1"))
    );
    // ...and the stream resumes at the right sequence number.
    let seq = sim
        .with_ctx(0, |kv, ctx| {
            kv.put_in(ctx, "cfg/c", Bytes::from_static(b"3"))
        })
        .unwrap();
    assert_eq!(seq, 3);
    sim.run_until_idle();
    for i in 1..8 {
        assert_eq!(
            sim.actor(i).get(NodeId(0), "cfg/c"),
            Some(Bytes::from_static(b"3")),
            "mirror {i} missed the post-restart write"
        );
    }
    let (frontier, _) = sim.actor(0).get_stability_frontier("AllWNodes").unwrap();
    assert_eq!(frontier, 3);
}

#[test]
fn a_rebuilt_mirror_delivers_what_is_written_after_it_returns() {
    // The same recovery at a mirror: node 1 writes twice, node 0 is
    // rebuilt from its snapshot and WALs, and node 1 writes again. The
    // origin reclaimed the first two writes once every mirror received
    // them, so node 0 must resume node 1's stream after them, not hold
    // the third write back waiting for them.
    let mut sim = build_kv_cluster(&cfg(), NetTopology::ec2_fig2(), 32).unwrap();
    for (key, value) in [("m/a", b"1"), ("m/b", b"2")] {
        sim.with_ctx(1, |kv, ctx| kv.put_in(ctx, key, Bytes::from_static(value)))
            .unwrap();
    }
    sim.run_until_idle();
    crash_and_rebuild(&mut sim, 0, "mirror");
    assert_eq!(
        sim.actor(0).get(NodeId(1), "m/b"),
        Some(Bytes::from_static(b"2")),
        "the WAL replay restored the mirrored pool"
    );

    let seq = sim
        .with_ctx(1, |kv, ctx| kv.put_in(ctx, "m/c", Bytes::from_static(b"3")))
        .unwrap();
    assert_eq!(seq, 3);
    sim.run_until_idle();
    assert_eq!(
        sim.actor(0).get(NodeId(1), "m/c"),
        Some(Bytes::from_static(b"3")),
        "the rebuilt mirror never delivered the write made after it returned"
    );
    let (frontier, _) = sim.actor(1).get_stability_frontier("AllWNodes").unwrap();
    assert_eq!(frontier, 3);
}

/// Persist node `i`'s control-plane snapshot and one WAL per pool the
/// way the storage system would, then crash the node and rebuild it in
/// place from those files alone.
fn crash_and_rebuild(sim: &mut Simulation<GeoKvNode>, i: usize, tag: &str) {
    let dir = std::env::temp_dir();
    let snapshot_bytes = sim.actor(i).stabilizer().snapshot().to_bytes();
    let mut wal_paths = Vec::new();
    for origin in 0..8u16 {
        let name = format!("geo-{tag}-{}-{origin}.wal", std::process::id());
        let path = dir.join(name);
        save_wal(sim.actor(i).pool(NodeId(origin)), &path).unwrap();
        wal_paths.push(path);
    }
    let acks = std::sync::Arc::clone(sim.actor(i).stabilizer().ack_types());

    let snapshot = Snapshot::from_bytes(&snapshot_bytes).unwrap();
    let pools: Vec<_> = wal_paths.iter().map(|p| load_wal(p).unwrap()).collect();
    let me = NodeId(i as u16);
    let restored = GeoKvNode::restore(cfg(), me, acks, snapshot, pools).unwrap();
    sim.replace_actor(i, restored);
    // Back in the event loop: what the restore queued goes out (the
    // fence's asks to the replicas of the node's own stream), and the
    // answers come back.
    sim.with_ctx(i, |kv, ctx| kv.on_start(ctx));
    sim.run_until_idle();
    for p in &wal_paths {
        std::fs::remove_file(p).ok();
    }
}
