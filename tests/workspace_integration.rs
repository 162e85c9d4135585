//! Cross-crate integration tests through the `stabilizer` facade: the
//! same consistency models exercised across the DSL, the simulator, the
//! K/V store, and the TCP runtime, and consistency between the two
//! runtimes.

use bytes::Bytes;
use stabilizer::core::sim_driver::build_cluster;
use stabilizer::dsl::{AckTypeRegistry, Predicate};
use stabilizer::{ClusterConfig, NodeId, Topology};
use stabilizer_netsim::NetTopology;
use std::time::Duration;

const CFG: &str = "
az East e1 e2
az West w1 w2
predicate AllRemote MIN($ALLWNODES-$MYWNODE)
predicate Majority KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)
";

#[test]
fn the_same_predicate_compiles_everywhere() {
    // One predicate source, four consumers: raw DSL, core config, the
    // simulated cluster, and the TCP runtime all accept it identically.
    let topo = Topology::builder()
        .az("East", &["e1", "e2"])
        .az("West", &["w1", "w2"])
        .build()
        .unwrap();
    let acks = AckTypeRegistry::new();
    let p = Predicate::compile(
        "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)",
        &topo,
        &acks,
        NodeId(0),
    )
    .unwrap();
    assert_eq!(p.dependencies().len(), 4);

    let cfg = ClusterConfig::parse(CFG).unwrap();
    assert_eq!(cfg.predicates().count(), 2);
    build_cluster(
        &cfg,
        NetTopology::full_mesh(4, stabilizer_netsim::SimDuration::from_millis(5), 1e9),
        1,
    )
    .unwrap();
    let cluster = stabilizer::transport::spawn_local_cluster(&cfg).unwrap();
    for n in &cluster {
        n.handle().shutdown();
    }
}

#[test]
fn simulated_and_tcp_runtimes_agree_on_frontier_semantics() {
    let cfg = ClusterConfig::parse(CFG).unwrap();

    // Simulated run: publish 5, frontier must reach 5 under both models.
    let net = NetTopology::full_mesh(4, stabilizer_netsim::SimDuration::from_millis(5), 1e9);
    let mut sim = build_cluster(&cfg, net, 2).unwrap();
    for _ in 0..5 {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from_static(b"x")))
            .unwrap();
    }
    sim.run_until_idle();
    let sim_frontiers: Vec<u64> = ["AllRemote", "Majority"]
        .iter()
        .map(|k| {
            sim.actor(0)
                .inner()
                .stability_frontier(NodeId(0), k)
                .unwrap()
                .0
        })
        .collect();

    // TCP run on localhost: same publishes, same final frontiers.
    let cluster = stabilizer::transport::spawn_local_cluster(&cfg).unwrap();
    let h = cluster[0].handle();
    let mut last = 0;
    for _ in 0..5 {
        last = h
            .publish(Bytes::from_static(b"x"), Duration::from_secs(1))
            .unwrap();
    }
    assert!(h
        .waitfor(NodeId(0), "AllRemote", last, Duration::from_secs(10))
        .unwrap());
    assert!(h
        .waitfor(NodeId(0), "Majority", last, Duration::from_secs(10))
        .unwrap());
    let tcp_frontiers: Vec<u64> = ["AllRemote", "Majority"]
        .iter()
        .map(|k| h.stability_frontier(NodeId(0), k).unwrap().0)
        .collect();
    assert_eq!(sim_frontiers, tcp_frontiers);
    assert_eq!(sim_frontiers, vec![5, 5]);
    for n in &cluster {
        n.handle().shutdown();
    }
}

#[test]
fn kv_store_and_raw_core_report_identical_stability() {
    let cfg = ClusterConfig::parse(CFG).unwrap();
    let net = || NetTopology::full_mesh(4, stabilizer_netsim::SimDuration::from_millis(5), 1e9);

    let mut kv = stabilizer::kvstore::build_kv_cluster(&cfg, net(), 3).unwrap();
    let kv_seq = kv
        .with_ctx(0, |n, ctx| n.put_in(ctx, "k", Bytes::from_static(b"v")))
        .unwrap();
    kv.run_until_idle();
    let kv_cover = kv
        .actor(0)
        .driver()
        .covered_at(NodeId(0), "AllRemote", kv_seq)
        .unwrap();

    let mut core = build_cluster(&cfg, net(), 3).unwrap();
    // Publish the same wire bytes the KV layer would.
    let payload = stabilizer::kvstore::KvOp::Put {
        key: "k".into(),
        value: Bytes::from_static(b"v"),
        timestamp: 0,
    }
    .to_bytes()
    .unwrap();
    let core_seq = core
        .with_ctx(0, |n, ctx| n.publish_in(ctx, payload))
        .unwrap();
    core.run_until_idle();
    let core_cover = core
        .actor(0)
        .covered_at(NodeId(0), "AllRemote", core_seq)
        .unwrap();

    assert_eq!(kv_seq, core_seq);
    assert_eq!(kv_cover, core_cover, "KV layering changed stability timing");
}

#[test]
fn facade_reexports_cover_the_public_api() {
    // Spot-check that the documented entry points exist through the
    // facade (a compile-time test, essentially).
    let _ = stabilizer::dsl::parse("MAX($1)").unwrap();
    let _ = stabilizer::netsim::NetTopology::ec2_fig2();
    let _ = stabilizer::filebackup::DropboxTrace::generate(1, 0.1);
    let _ = stabilizer::paxos::Ballot::ZERO;
    let _ = stabilizer::quorum::QuorumSetup::fig3();
    let _ = stabilizer::pubsub::Fig8Mode::Changing;
}
