//! End-to-end tests for the sharded TCP runtime: real sockets, real
//! threads, S shards per node, application semantics identical to the
//! unsharded [`stabilizer_transport::NodeHandle`]. The two ordering
//! tests run at every shard count in [`SHARD_COUNTS`].

use bytes::Bytes;
use parking_lot::Mutex;
use stabilizer_core::{AckTypeRegistry, ClusterConfig, CoreError, NodeId, SeqNo, StabilizerNode};
use stabilizer_shard::{RoutePolicy, ShardedEngine};
use stabilizer_transport::{
    spawn_sharded_local_cluster, spawn_sharded_node, ShardedTcpNode, SpawnOptions,
};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// From one shard (the unsharded shape) to eight.
const SHARD_COUNTS: [u16; 4] = [1, 2, 4, 8];

fn cfg(shards: u16) -> ClusterConfig {
    ClusterConfig::parse(&format!(
        "az East e1 e2\n\
         az West w1\n\
         option shards {shards}\n\
         predicate AllRemote MIN($ALLWNODES-$MYWNODE)\n\
         predicate OneRemote MAX($ALLWNODES-$MYWNODE)\n"
    ))
    .expect("config parses")
}

fn cluster(shards: u16) -> Vec<ShardedTcpNode> {
    spawn_sharded_local_cluster(&cfg(shards), RoutePolicy::RoundRobin).expect("cluster boots")
}

fn shutdown(nodes: &[ShardedTcpNode]) {
    for n in nodes {
        n.handle().shutdown();
    }
}

#[test]
fn publish_waitfor_roundtrip_across_shards() {
    let nodes = cluster(2);
    let h = nodes[0].handle();
    assert_eq!(h.num_shards(), 2);
    // Publish more messages than shards so both sub-streams carry data.
    let mut last = 0;
    for i in 0..6u32 {
        last = h
            .publish(
                Bytes::from(format!("m{i}").into_bytes()),
                Duration::from_secs(1),
            )
            .expect("publish");
    }
    assert_eq!(last, 6, "global sequence numbers are gapless");
    assert!(
        h.waitfor(NodeId(0), "AllRemote", last, Duration::from_secs(10))
            .expect("known predicate"),
        "aggregated frontier covers the last global publish"
    );
    let (frontier, _) = h.stability_frontier(NodeId(0), "AllRemote").unwrap();
    assert!(frontier >= last);
    shutdown(&nodes);
}

#[test]
fn deliveries_reach_mirrors_in_global_fifo_order() {
    for shards in SHARD_COUNTS {
        let nodes = cluster(shards);
        let log: Arc<Mutex<Vec<SeqNo>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let log = Arc::clone(&log);
            nodes[2].handle().on_deliver(move |origin, seq, payload| {
                assert_eq!(origin, NodeId(0));
                assert_eq!(payload, &Bytes::from(format!("p{seq}").into_bytes()));
                log.lock().push(seq);
            });
        }
        let h = nodes[0].handle();
        let mut last = 0;
        for i in 1..=50u64 {
            last = h
                .publish(
                    Bytes::from(format!("p{i}").into_bytes()),
                    Duration::from_secs(1),
                )
                .expect("publish");
        }
        assert!(h
            .waitfor(NodeId(0), "AllRemote", last, Duration::from_secs(10))
            .unwrap());
        // Deliveries are upcalls on the mirror's reader thread, after the
        // ACK that completed the wait left it; give them a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        while log.lock().len() < 50 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let seqs = log.lock().clone();
        assert_eq!(
            seqs,
            (1..=50).collect::<Vec<SeqNo>>(),
            "S={shards}: global FIFO order despite round-robin sharding"
        );
        assert_eq!(nodes[2].handle().delivered_global(NodeId(0)), 50);
        shutdown(&nodes);
    }
}

#[test]
fn concurrent_publishers_get_gapless_globals() {
    for shards in SHARD_COUNTS {
        let nodes = cluster(shards);
        let h = nodes[0].handle();
        let mut seen: Vec<SeqNo> = Vec::new();
        let mut joins = Vec::new();
        for _ in 0..4 {
            let h = h.clone();
            joins.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for _ in 0..25 {
                    mine.push(
                        h.publish(Bytes::from_static(b"x"), Duration::from_secs(5))
                            .expect("publish"),
                    );
                }
                mine
            }));
        }
        for j in joins {
            seen.extend(j.join().expect("publisher thread"));
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (1..=100).collect::<Vec<SeqNo>>(),
            "S={shards}: 4 threads x 25 publishes produce globals 1..=100 with no gap or dup"
        );
        assert!(h
            .waitfor(NodeId(0), "AllRemote", 100, Duration::from_secs(10))
            .unwrap());
        // ...and both mirrors reassemble all of them in global order.
        let deadline = Instant::now() + Duration::from_secs(5);
        for mirror in &nodes[1..] {
            while mirror.handle().delivered_global(NodeId(0)) < 100 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert_eq!(
                mirror.handle().delivered_global(NodeId(0)),
                100,
                "S={shards}"
            );
        }
        shutdown(&nodes);
    }
}

#[test]
fn monitor_fires_monotonically_on_aggregate() {
    let nodes = cluster(2);
    let h = nodes[0].handle();
    let seqs: Arc<Mutex<Vec<SeqNo>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let seqs = Arc::clone(&seqs);
        h.monitor_stability_frontier(NodeId(0), "OneRemote", move |u| {
            seqs.lock().push(u.seq);
        });
    }
    let mut last = 0;
    for _ in 0..10 {
        last = h
            .publish(Bytes::from_static(b"tick"), Duration::from_secs(1))
            .expect("publish");
    }
    assert!(h
        .waitfor(NodeId(0), "OneRemote", last, Duration::from_secs(10))
        .unwrap());
    // Monitors run after the state lock is released, the wait can wake
    // first; wait for the tail event.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while seqs.lock().last().copied() != Some(last) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let seqs = seqs.lock().clone();
    assert!(!seqs.is_empty(), "monitor fired");
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "aggregated frontier advances strictly monotonically: {seqs:?}"
    );
    assert_eq!(seqs.last().copied(), Some(last));
    shutdown(&nodes);
}

#[test]
fn key_hash_routing_and_remote_stream_watching() {
    let nodes = spawn_sharded_local_cluster(&cfg(2), RoutePolicy::KeyHash).expect("cluster boots");
    let origin = nodes[0].handle();
    let mirror = nodes[2].handle();
    // A mirror registering a predicate over the origin's stream sees the
    // aggregated frontier in global terms.
    mirror
        .register_predicate(NodeId(0), "mine", "MAX($3)")
        .expect("remote predicate registers");
    let mut last = 0;
    for i in 0..8u32 {
        // Two alternating keys: each key's messages stay on one shard.
        let key = if i % 2 == 0 {
            b"alpha".as_ref()
        } else {
            b"beta".as_ref()
        };
        last = origin
            .publish_with_key(
                Bytes::from(format!("k{i}").into_bytes()),
                key,
                Duration::from_secs(1),
            )
            .expect("publish");
    }
    assert_eq!(last, 8);
    assert!(mirror
        .waitfor(NodeId(0), "mine", last, Duration::from_secs(10))
        .expect("registered key"));
    shutdown(&nodes);
}

#[test]
fn change_predicate_bumps_generation_everywhere() {
    let nodes = cluster(2);
    let h = nodes[0].handle();
    let seq = h
        .publish(Bytes::from_static(b"gen"), Duration::from_secs(1))
        .expect("publish");
    assert!(h
        .waitfor(NodeId(0), "AllRemote", seq, Duration::from_secs(10))
        .unwrap());
    let (_, gen_before) = h.stability_frontier(NodeId(0), "AllRemote").unwrap();
    h.change_predicate(NodeId(0), "AllRemote", "MAX($ALLWNODES-$MYWNODE)")
        .expect("change predicate");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (_, generation) = h.stability_frontier(NodeId(0), "AllRemote").unwrap();
        if generation > gen_before {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "aggregate adopted the new generation"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The relaxed predicate still covers new publishes.
    let seq = h
        .publish(Bytes::from_static(b"gen2"), Duration::from_secs(1))
        .expect("publish");
    assert!(h
        .waitfor(NodeId(0), "AllRemote", seq, Duration::from_secs(10))
        .unwrap());
    shutdown(&nodes);
}

#[test]
fn single_shard_matches_unsharded_semantics() {
    let cfg = ClusterConfig::parse(
        "
az East e1 e2
az West w1
predicate AllRemote MIN($ALLWNODES-$MYWNODE)
",
    )
    .expect("config parses");
    // No `option shards` line: defaults to 1 shard.
    let nodes = spawn_sharded_local_cluster(&cfg, RoutePolicy::RoundRobin).expect("boots");
    let h = nodes[0].handle();
    assert_eq!(h.num_shards(), 1);
    let seq = h
        .publish(Bytes::from_static(b"solo"), Duration::from_secs(1))
        .expect("publish");
    assert_eq!(seq, 1);
    assert!(h
        .waitfor(NodeId(0), "AllRemote", seq, Duration::from_secs(10))
        .unwrap());
    shutdown(&nodes);
}

/// A sharded node has no §III-E recovery: a snapshot to restore from, a
/// failure timeout or a transfer period is refused, not ignored.
#[test]
fn a_sharded_node_refuses_a_snapshot_it_cannot_restore() {
    let acks = Arc::new(AckTypeRegistry::new());
    let policy = RoutePolicy::RoundRobin;
    let spawn = |cfg: ClusterConfig, opts| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let acks = Arc::clone(&acks);
        spawn_sharded_node(cfg, NodeId(0), acks, listener, Vec::new(), policy, opts)
    };
    let plain = StabilizerNode::new(cfg(2), NodeId(0), Arc::clone(&acks)).expect("node");
    let opts = SpawnOptions {
        snapshot: Some(plain.snapshot()),
        ..SpawnOptions::default()
    };
    assert!(
        matches!(spawn(cfg(2), opts), Err(CoreError::Config(_))),
        "a snapshot was silently ignored"
    );

    // Nor does it detect failures or transfer state: the engine refuses
    // a config that asks for either, and so does the spawn.
    let options = cfg(2).options().clone();
    for (what, options) in [
        (
            "failure_timeout_millis",
            options.clone().failure_timeout_millis(400),
        ),
        ("transfer_millis", options.transfer_millis(20)),
    ] {
        let cfg = cfg(2).with_options(options);
        let engine = ShardedEngine::new(cfg.clone(), NodeId(0), Arc::clone(&acks), policy);
        assert!(
            matches!(engine, Err(CoreError::Config(_))),
            "the engine took {what}"
        );
        assert!(
            matches!(
                spawn(cfg, SpawnOptions::default()),
                Err(CoreError::Config(_))
            ),
            "{what} was silently ignored"
        );
    }
}
