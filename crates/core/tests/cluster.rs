//! End-to-end tests of the Stabilizer protocol over the deterministic
//! WAN simulator: frontier semantics, predicate ordering, dynamic
//! reconfiguration, fault handling, and buffer reclamation.

use bytes::Bytes;
use stabilizer_core::sim_driver::{build_cluster, SimNode};
use stabilizer_core::{ClusterConfig, Delivery, NodeId, Options, SeqNo};
use stabilizer_dsl::AckTypeId;
use stabilizer_netsim::{NetTopology, SimDuration, SimTime, Simulation};

fn ec2_cfg(extra: &str) -> ClusterConfig {
    ClusterConfig::parse(&format!(
        "az North_California n1 n2\n\
         az North_Virginia n3 n4 n5 n6\n\
         az Oregon n7\n\
         az Ohio n8\n\
         {extra}"
    ))
    .unwrap()
}

const TABLE3: &str = "\
predicate OneRegion MAX(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))
predicate MajorityRegions KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))
predicate AllRegions MIN(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))
predicate OneWNode MAX($ALLWNODES-$MYWNODE)
predicate MajorityWNodes KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)
predicate AllWNodes MIN($ALLWNODES-$MYWNODE)
";

/// First time each predicate's frontier reached `seq` at node 0.
fn first_reach(sim: &Simulation<SimNode>, key: &str, seq: SeqNo) -> Option<SimTime> {
    sim.actor(0).covered_at(NodeId(0), key, seq)
}

#[test]
fn all_predicates_eventually_cover_every_message() {
    let cfg = ec2_cfg(TABLE3);
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 1).unwrap();
    for i in 0..20 {
        sim.with_ctx(0, |n, ctx| {
            n.publish_in(ctx, Bytes::from(vec![i as u8; 1024]))
        })
        .unwrap();
    }
    sim.run_until_idle();
    let node0 = sim.actor(0).inner();
    for key in [
        "OneRegion",
        "MajorityRegions",
        "AllRegions",
        "OneWNode",
        "MajorityWNodes",
        "AllWNodes",
    ] {
        let (frontier, _) = node0.stability_frontier(NodeId(0), key).unwrap();
        assert_eq!(frontier, 20, "predicate {key} stalled");
    }
}

#[test]
fn predicate_strength_orders_latency() {
    let cfg = ec2_cfg(TABLE3);
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 2).unwrap();
    sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 8192])))
        .unwrap();
    sim.run_until_idle();

    let t =
        |key: &str| first_reach(&sim, key, 1).unwrap_or_else(|| panic!("{key} never reached 1"));
    // Weaker predicates stabilize no later than stronger ones.
    assert!(t("OneRegion") <= t("MajorityRegions"));
    assert!(t("MajorityRegions") <= t("AllRegions"));
    assert!(t("OneWNode") <= t("MajorityWNodes"));
    assert!(t("MajorityWNodes") <= t("AllWNodes"));
    // Region-granularity majority beats node-granularity majority on this
    // topology (the Fig. 6 effect).
    assert!(t("MajorityRegions") <= t("MajorityWNodes"));
    // OneRegion is bounded below by the fastest remote-region RTT
    // (Oregon, 23.29 ms) and OneWNode by the intra-AZ RTT (3.7 ms).
    let one_node_ms = t("OneWNode").as_millis_f64();
    assert!(
        (3.0..10.0).contains(&one_node_ms),
        "OneWNode at {one_node_ms}ms"
    );
    let one_region_ms = t("OneRegion").as_millis_f64();
    assert!(
        (20.0..30.0).contains(&one_region_ms),
        "OneRegion at {one_region_ms}ms"
    );
    let all_ms = t("AllWNodes").as_millis_f64();
    assert!((60.0..75.0).contains(&all_ms), "AllWNodes at {all_ms}ms");
}

#[test]
fn every_node_converges_to_the_same_frontiers() {
    let cfg = ec2_cfg("predicate AllWNodes MIN($ALLWNODES-$MYWNODE)");
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 3).unwrap();
    // Register the sender-stream predicate at every node (they watch
    // stream 0 with the *sender's* AllWNodes meaning: all but node 0).
    for i in 1..8 {
        sim.with_ctx(i, |n, ctx| {
            n.register_predicate_in(ctx, NodeId(0), "watch0", "MIN($ALLWNODES-$1)")
        })
        .unwrap();
    }
    for _ in 0..5 {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![7u8; 2048])))
            .unwrap();
    }
    sim.run_until_idle();
    // "Each WAN node detects stability independently ... but all WAN
    // nodes reach the same conclusions eventually."
    for i in 1..8 {
        let (frontier, _) = sim
            .actor(i)
            .inner()
            .stability_frontier(NodeId(0), "watch0")
            .unwrap();
        assert_eq!(frontier, 5, "node {i} disagrees");
    }
}

#[test]
fn waitfor_completes_at_the_frontier_time() {
    let cfg = ec2_cfg("predicate AllWNodes MIN($ALLWNODES-$MYWNODE)");
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 4).unwrap();
    let seq = sim
        .with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![1u8; 4096])))
        .unwrap();
    let token = sim
        .with_ctx(0, |n, ctx| n.waitfor_in(ctx, NodeId(0), "AllWNodes", seq))
        .unwrap();
    sim.run_until_idle();
    let (done_at, done_token) = sim.actor(0).completed_waits[0];
    assert_eq!(done_token, token);
    assert_eq!(Some(done_at), first_reach(&sim, "AllWNodes", seq));
}

#[test]
fn change_predicate_exposes_generation_gap() {
    let cfg = ec2_cfg("predicate P MAX($ALLWNODES-$MYWNODE)");
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 5).unwrap();
    for _ in 0..3 {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 1024])))
            .unwrap();
    }
    sim.run_until_idle();
    assert_eq!(
        sim.actor(0).inner().stability_frontier(NodeId(0), "P"),
        Some((3, 0))
    );
    // Strengthen to all-remotes with a *new* unacked message outstanding.
    sim.with_ctx(0, |n, ctx| {
        n.change_predicate_in(ctx, NodeId(0), "P", "MIN($ALLWNODES-$MYWNODE)")
    })
    .unwrap();
    let (frontier, generation) = sim
        .actor(0)
        .inner()
        .stability_frontier(NodeId(0), "P")
        .unwrap();
    assert_eq!(generation, 1);
    assert_eq!(
        frontier, 3,
        "already-stable prefix carries over under the stronger predicate"
    );
    sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 1024])))
        .unwrap();
    sim.run_until_idle();
    assert_eq!(
        sim.actor(0).inner().stability_frontier(NodeId(0), "P"),
        Some((4, 1))
    );
}

#[test]
fn crashed_secondary_is_suspected_and_excluded() {
    let cfg = ec2_cfg(
        "predicate AllWNodes MIN($ALLWNODES-$MYWNODE)\n\
         option failure_timeout_millis 500\n\
         option heartbeat_millis 100\n\
         option auto_exclude_suspects true\n",
    );
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 6).unwrap();

    // Cut node 7 (Ohio) off entirely.
    for i in 0..7 {
        sim.set_link_up(7, i, false);
        sim.set_link_up(i, 7, false);
    }
    sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 1024])))
        .unwrap();
    // AllWNodes cannot advance while node 7 is in the predicate.
    sim.run_for(SimDuration::from_millis(300));
    assert_eq!(
        sim.actor(0)
            .inner()
            .stability_frontier(NodeId(0), "AllWNodes")
            .unwrap()
            .0,
        0
    );
    // After the failure timeout, node 0 suspects node 7, auto-excludes
    // it, and the frontier advances on the remaining nodes.
    sim.run_for(SimDuration::from_millis(1500));
    assert!(sim.actor(0).inner().is_suspected(NodeId(7)));
    assert!(sim
        .actor(0)
        .suspicion_log
        .iter()
        .any(|&(_, n, suspected)| suspected && n == NodeId(7)));
    let (frontier, generation) = sim
        .actor(0)
        .inner()
        .stability_frontier(NodeId(0), "AllWNodes")
        .unwrap();
    assert_eq!(frontier, 1);
    assert!(generation >= 1);
}

#[test]
fn send_buffer_reclaims_after_global_receipt() {
    let cfg = ec2_cfg("predicate AllWNodes MIN($ALLWNODES-$MYWNODE)");
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 7).unwrap();
    for _ in 0..10 {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 8192])))
            .unwrap();
    }
    assert_eq!(sim.actor(0).inner().send_buffer_bytes(), 10 * 8192);
    sim.run_until_idle();
    assert_eq!(
        sim.actor(0).inner().send_buffer_bytes(),
        0,
        "buffer not reclaimed"
    );
}

#[test]
fn backpressure_then_progress() {
    let opts = Options::default().send_buffer_bytes(3 * 8192);
    let cfg = ec2_cfg("predicate AllWNodes MIN($ALLWNODES-$MYWNODE)").with_options(opts);
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 8).unwrap();
    let mut published = 0;
    let mut blocked = 0;
    for _ in 0..6 {
        let r = sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 8192])));
        match r {
            Ok(_) => published += 1,
            Err(stabilizer_core::CoreError::WouldBlock { .. }) => blocked += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(published, 3);
    assert_eq!(blocked, 3);
    sim.run_until_idle(); // acks drain the buffer
    for _ in 0..3 {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 8192])))
            .unwrap();
    }
}

#[test]
fn custom_ack_type_gates_frontier() {
    let cfg = ec2_cfg("");
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 9).unwrap();
    // Register a custom `verified` level everywhere, then a predicate on it.
    for i in 0..8 {
        sim.with_ctx(i, |n, _| n.inner_mut().register_ack_type("verified"));
    }
    sim.with_ctx(0, |n, ctx| {
        n.register_predicate_in(
            ctx,
            NodeId(0),
            "Verified2",
            "KTH_MAX(2, ($ALLWNODES-$MYWNODE).verified)",
        )
    })
    .unwrap();
    let seq = sim
        .with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 100])))
        .unwrap();
    sim.run_until_idle();
    // Receipt alone is not verification.
    assert_eq!(
        sim.actor(0)
            .inner()
            .stability_frontier(NodeId(0), "Verified2")
            .unwrap()
            .0,
        0
    );
    // Two remote apps verify; frontier advances once both reports land.
    let verified = sim.actor(1).inner().ack_types().lookup("verified").unwrap();
    for i in [1usize, 6] {
        sim.with_ctx(i, |n, ctx| {
            n.call_in(ctx, |n| n.report_stability(NodeId(0), verified, seq))
        })
        .unwrap();
    }
    sim.run_until_idle();
    assert_eq!(
        sim.actor(0)
            .inner()
            .stability_frontier(NodeId(0), "Verified2")
            .unwrap()
            .0,
        seq
    );
}

#[test]
fn deterministic_reruns_produce_identical_logs() {
    let run = || {
        let cfg = ec2_cfg(TABLE3);
        let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 11).unwrap();
        for i in 0..10 {
            sim.with_ctx(0, |n, ctx| {
                n.publish_in(ctx, Bytes::from(vec![i as u8; 4096]))
            })
            .unwrap();
        }
        sim.run_until_idle();
        sim.actor(0).frontier_log.clone()
    };
    assert_eq!(run(), run());
}

#[test]
fn snapshot_restore_preserves_control_plane() {
    let cfg = ec2_cfg("predicate AllWNodes MIN($ALLWNODES-$MYWNODE)");
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 12).unwrap();
    for _ in 0..4 {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 512])))
            .unwrap();
    }
    sim.run_until_idle();
    let snapshot = sim.actor(0).inner().snapshot();
    let acks = std::sync::Arc::clone(sim.actor(0).inner().ack_types());
    let restored =
        stabilizer_core::StabilizerNode::restore(cfg, NodeId(0), acks, snapshot).unwrap();
    assert_eq!(restored.last_published(), 4);
    assert_eq!(
        restored
            .stability_frontier(NodeId(0), "AllWNodes")
            .unwrap()
            .0,
        4
    );
}

#[test]
fn primary_crash_restart_resumes_from_snapshot() {
    // §III-E primary recovery: the node snapshots its control-plane
    // state, "crashes", and a restarted instance (rebuilt from the
    // snapshot, as the integrated storage system would) resumes the
    // stream at the right sequence number.
    let cfg = ec2_cfg("predicate AllWNodes MIN($ALLWNODES-$MYWNODE)");
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 21).unwrap();
    for _ in 0..5 {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 256])))
            .unwrap();
    }
    sim.run_until_idle();
    let snapshot = sim.actor(0).inner().snapshot();
    // Persist through the byte format (what the storage system stores).
    let snapshot = stabilizer_core::Snapshot::from_bytes(&snapshot.to_bytes()).unwrap();
    let acks = std::sync::Arc::clone(sim.actor(0).inner().ack_types());

    // Crash and restart node 0 from the snapshot.
    let restarted =
        stabilizer_core::StabilizerNode::restore(cfg, NodeId(0), acks, snapshot).unwrap();
    sim.replace_actor(
        0,
        stabilizer_core::sim_driver::SimNode::new(restarted, stabilizer_core::sim_driver::NoHooks),
    );

    // The restarted primary is fenced until its replicas have said how
    // far they received its stream: it asks them as it comes back.
    let fenced = sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from_static(b"x")));
    assert!(matches!(fenced, Err(stabilizer_core::CoreError::Fenced)));
    sim.with_ctx(0, |n, ctx| {
        let asks = n.inner_mut().take_actions();
        n.process_actions(ctx, asks);
    });
    sim.run_until_idle();

    // Then it continues the stream: next seq is 6, and receivers (which
    // kept their state) deliver it in order.
    let seq = sim
        .with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 256])))
        .unwrap();
    assert_eq!(seq, 6);
    sim.run_until_idle();
    assert_eq!(
        sim.actor(0)
            .inner()
            .stability_frontier(NodeId(0), "AllWNodes")
            .unwrap()
            .0,
        6
    );
    for i in 1..8 {
        assert_eq!(
            sim.actor(i).inner().recorder().get(
                NodeId(0),
                NodeId(i as u16),
                stabilizer_core::RECEIVED
            ),
            6,
            "receiver {i} missed the post-restart message"
        );
    }
}

#[test]
fn jitter_separates_majority_from_all_nodes() {
    // With per-message jitter (the real testbed's variance), waiting for
    // 5 of 7 remotes is strictly cheaper than waiting for all 7 — the
    // distinction the paper's Fig. 5 shows between MajorityWNodes and
    // AllWNodes, which a jitter-free emulation collapses.
    let cfg = ec2_cfg(
        "predicate MajorityWNodes KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)\n\
         predicate AllWNodes MIN($ALLWNODES-$MYWNODE)\n",
    );
    let net = NetTopology::ec2_fig2().with_jitter(SimDuration::from_millis(8));
    let mut sim = build_cluster(&cfg, net, 22).unwrap();
    let mut majority_sum = 0.0;
    let mut all_sum = 0.0;
    for _ in 0..30 {
        let seq = sim
            .with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 1024])))
            .unwrap();
        sim.run_until_idle();
        let t = |key: &str| first_reach(&sim, key, seq).unwrap().as_millis_f64();
        majority_sum += t("MajorityWNodes");
        all_sum += t("AllWNodes");
    }
    assert!(
        majority_sum + 1.0 < all_sum,
        "jitter failed to separate MajorityWNodes ({majority_sum}) from AllWNodes ({all_sum})"
    );
}

#[test]
fn reliability_mechanism_recovers_from_heavy_loss() {
    // §III-A: "We treat each message as a separately sequenced object
    // and provide a basic reliability mechanism that ensures lossless
    // FIFO delivery." Inject 20% independent message loss on every link
    // of a 4-node mesh; the go-back-N retransmitter must still deliver
    // every message, in order, to every peer.
    let opts = Options::default().retransmit_millis(50);
    let cfg = ClusterConfig::parse("az A a b\naz B c d\npredicate All MIN($ALLWNODES-$MYWNODE)\n")
        .unwrap()
        .with_options(opts);
    let net = NetTopology::full_mesh(4, SimDuration::from_millis(5), 1e9);
    let mut sim = build_cluster(&cfg, net, 33).unwrap();
    for a in 0..4 {
        for b in 0..4 {
            if a != b {
                sim.set_link_up(a, b, true);
                sim.set_link_loss(a, b, 0.2);
            }
        }
    }
    const COUNT: u64 = 50;
    for i in 0..COUNT {
        sim.with_ctx(0, |n, ctx| {
            n.publish_in(ctx, Bytes::from(vec![i as u8; 512]))
        })
        .unwrap();
    }
    // Run in bounded slices (the retransmit timer re-arms forever).
    let deadline = SimTime::ZERO + SimDuration::from_secs(60);
    loop {
        sim.run_for(SimDuration::from_millis(100));
        let (frontier, _) = sim
            .actor(0)
            .inner()
            .stability_frontier(NodeId(0), "All")
            .unwrap();
        if frontier >= COUNT || sim.now() >= deadline {
            break;
        }
    }
    assert!(sim.dropped() > 0, "loss injection inactive");
    let node0 = sim.actor(0).inner();
    assert_eq!(
        node0.stability_frontier(NodeId(0), "All").unwrap().0,
        COUNT,
        "lossless FIFO delivery violated under loss (dropped {} msgs, retransmitted {})",
        sim.dropped(),
        node0.metrics().retransmits
    );
    assert!(
        node0.metrics().retransmits > 0,
        "recovery happened without retransmissions?"
    );
    // FIFO delivery at each receiver: the delivery log is gapless and
    // ordered (duplicates suppressed).
    for i in 1..4 {
        let seqs: Vec<u64> = sim
            .actor(i)
            .delivery_log
            .iter()
            .filter(|(_, o, _, d)| *o == NodeId(0) && matches!(d, Delivery::Upcall { .. }))
            .map(|(_, _, s, _)| *s)
            .collect();
        assert_eq!(
            seqs,
            (1..=COUNT).collect::<Vec<u64>>(),
            "receiver {i} broke FIFO"
        );
    }
}

#[test]
fn retransmission_stays_quiet_on_clean_links() {
    let opts = Options::default().retransmit_millis(20);
    let cfg = ClusterConfig::parse("az A a b c\npredicate All MIN($ALLWNODES-$MYWNODE)\n")
        .unwrap()
        .with_options(opts);
    let net = NetTopology::full_mesh(3, SimDuration::from_millis(5), 1e9);
    let mut sim = build_cluster(&cfg, net, 34).unwrap();
    for _ in 0..20 {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 512])))
            .unwrap();
    }
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        sim.actor(0)
            .inner()
            .stability_frontier(NodeId(0), "All")
            .unwrap()
            .0,
        20
    );
    assert_eq!(
        sim.actor(0).inner().metrics().retransmits,
        0,
        "spurious retransmissions on a loss-free network"
    );
}

#[test]
fn clock_skew_halves_the_heartbeat_cadence_a_peer_sees() {
    let cfg = ClusterConfig::parse("az A a b\noption heartbeat_millis 10\n").unwrap();
    let net = NetTopology::full_mesh(2, SimDuration::from_millis(5), 1e9);
    let mut sim = build_cluster(&cfg, net, 3).unwrap();
    // Idle nodes send nothing but heartbeats: node 1 ticks every 10 ms,
    // node 0 (scale 2.0) every 20.
    sim.actor_mut(0).set_timer_scale(2.0);
    sim.run_for(SimDuration::from_secs(1));
    let (skewed, nominal) = (sim.link_stats(0, 1).messages, sim.link_stats(1, 0).messages);
    assert!((99..=100).contains(&nominal), "nominal {nominal}");
    assert!((49..=50).contains(&skewed), "skewed {skewed}");
}

#[test]
fn a_retransmitted_frame_carries_the_origins_report_with_it() {
    // The origin's own cells ride its `Data` frames, so they are exactly
    // as reliable as the data: the first copy is lost on a cut link, and
    // the mirror still learns them — from the retransmission, with no
    // `AckBatch` from the origin anywhere on the wire.
    let opts = Options::default().retransmit_millis(20);
    let cfg = ClusterConfig::parse("az A a b c\npredicate All MIN($ALLWNODES-$MYWNODE)\n")
        .unwrap()
        .with_options(opts);
    let net = NetTopology::full_mesh(3, SimDuration::from_millis(5), 1e9);
    let mut sim = build_cluster(&cfg, net, 35).unwrap();
    sim.set_link_up(0, 1, false);
    let seq = sim
        .with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 512])))
        .unwrap();
    assert_eq!(sim.dropped(), 1, "the first copy to node 1");
    sim.run_for(SimDuration::from_millis(15));
    // Node `at`'s view of the origin's own cells of stream 0, per level.
    let origin_cells = |sim: &Simulation<SimNode>, at: usize| -> Vec<SeqNo> {
        let recorder = sim.actor(at).inner().recorder();
        (0..recorder.num_types() as u16)
            .map(|ty| recorder.get(NodeId(0), NodeId(0), AckTypeId(ty)))
            .collect()
    };
    assert_eq!(origin_cells(&sim, 2), [seq; 3], "node 2 got the frame");
    assert_eq!(origin_cells(&sim, 1), [0; 3], "node 1 has heard nothing");
    sim.set_link_up(0, 1, true);
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(origin_cells(&sim, 1), [seq; 3]);
    let origin = sim.actor(0).inner();
    assert_eq!(origin.stability_frontier(NodeId(0), "All").unwrap().0, seq);
    let m = origin.metrics();
    assert!(m.retransmits > 0);
    assert_eq!(
        (m.control_msgs_sent, m.acks_sent),
        (0, 0),
        "the origin never said it in an `AckBatch`"
    );
}

#[test]
fn recovered_secondary_is_automatically_reinstated() {
    // The full §III-E loop, hands-free: crash -> suspicion -> automatic
    // exclusion -> frontier advances without the dead node; node returns
    // -> first traffic clears suspicion -> predicates reinstated -> the
    // frontier again requires the recovered node.
    // Without the reliability mechanism (`retransmit_millis`) the message
    // dropped during the partition could never reach the returning node.
    let cfg = ec2_cfg(
        "predicate AllWNodes MIN($ALLWNODES-$MYWNODE)\n\
         option failure_timeout_millis 400\n\
         option heartbeat_millis 100\n\
         option auto_exclude_suspects true\n\
         option retransmit_millis 100\n",
    );
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 41).unwrap();

    // Node 7 (Ohio) drops off the network.
    for i in 0..7 {
        sim.set_link_up(7, i, false);
        sim.set_link_up(i, 7, false);
    }
    sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 256])))
        .unwrap();
    sim.run_for(SimDuration::from_millis(1500));
    assert!(sim.actor(0).inner().is_suspected(NodeId(7)));
    assert_eq!(
        sim.actor(0)
            .inner()
            .stability_frontier(NodeId(0), "AllWNodes")
            .unwrap()
            .0,
        1
    );

    // Ohio comes back; its heartbeats resume.
    for i in 0..7 {
        sim.set_link_up(7, i, true);
        sim.set_link_up(i, 7, true);
    }
    sim.run_for(SimDuration::from_millis(800));
    assert!(
        !sim.actor(0).inner().is_suspected(NodeId(7)),
        "suspicion not cleared"
    );
    assert!(
        sim.actor(0)
            .suspicion_log
            .iter()
            .any(|&(_, n, suspected)| !suspected && n == NodeId(7)),
        "recovery not reported"
    );
    // The origin reclaimed message 1 while node 7 was excluded, so the
    // returning mirror recovers it from the storage system (§III-E) and
    // fast-forwards its stream position; its ACK then satisfies the
    // reinstated predicate.
    sim.with_ctx(7, |n, ctx| {
        n.call_in(ctx, |node| node.fast_forward_stream(NodeId(0), 1))
    });
    sim.run_for(SimDuration::from_millis(200));
    assert_eq!(
        sim.actor(0)
            .inner()
            .stability_frontier(NodeId(0), "AllWNodes")
            .unwrap()
            .0,
        1
    );

    // A new message now needs node 7 again: cut it once more and verify
    // the frontier stalls (proof the predicate was reinstated) ...
    for i in 0..7 {
        sim.set_link_up(7, i, false);
        sim.set_link_up(i, 7, false);
    }
    sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 256])))
        .unwrap();
    sim.run_for(SimDuration::from_millis(300));
    let (frontier, _) = sim
        .actor(0)
        .inner()
        .stability_frontier(NodeId(0), "AllWNodes")
        .unwrap();
    assert_eq!(
        frontier, 1,
        "reinstated predicate should wait for node 7 again"
    );
    // ... and after the second suspicion cycle it advances once more.
    sim.run_for(SimDuration::from_millis(1500));
    assert_eq!(
        sim.actor(0)
            .inner()
            .stability_frontier(NodeId(0), "AllWNodes")
            .unwrap()
            .0,
        2
    );
}

/// Assert the frontier log entries for `key` at `node` never regress
/// within a generation, and that generations themselves never decrease.
/// This is the chaos harness's frontier invariant, stated inline so the
/// core crate needs no dev-dependency on `stabilizer-chaos` (which
/// depends on this crate).
fn assert_frontier_monotone(sim: &Simulation<SimNode>, node: usize, key: &str) {
    let mut last: Option<(u32, SeqNo)> = None;
    for (at, u) in sim.actor(node).frontier_log.iter() {
        if u.key != key {
            continue;
        }
        if let Some((gen, seq)) = last {
            assert!(
                u.generation >= gen,
                "generation regressed {gen} -> {} at {at:?}",
                u.generation
            );
            if u.generation == gen {
                assert!(
                    u.seq >= seq,
                    "frontier for {key} regressed {seq} -> {} within generation {gen} at {at:?}",
                    u.seq
                );
            }
        }
        last = Some((u.generation, u.seq));
    }
    assert!(
        last.is_some(),
        "no frontier updates for {key} at node {node}"
    );
}

#[test]
fn frontier_never_regresses_across_mid_stream_predicate_changes() {
    // Regression test: flip the predicate weaker->stronger->weaker while
    // messages are still in flight. Each change bumps the generation;
    // within every generation the reported frontier must be monotone.
    let cfg = ec2_cfg("predicate P MAX($ALLWNODES-$MYWNODE)");
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 51).unwrap();
    let sources = [
        "MIN($ALLWNODES-$MYWNODE)",                             // strongest
        "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)", // majority
        "MAX($ALLWNODES-$MYWNODE)",                             // weakest
    ];
    for (round, source) in sources.iter().enumerate() {
        for i in 0..4 {
            sim.with_ctx(0, |n, ctx| {
                n.publish_in(ctx, Bytes::from(vec![(round * 4 + i) as u8; 2048]))
            })
            .unwrap();
        }
        // Change mid-flight: the just-published burst has not stabilized.
        sim.with_ctx(0, |n, ctx| {
            n.change_predicate_in(ctx, NodeId(0), "P", source)
        })
        .unwrap();
        sim.run_for(SimDuration::from_millis(40));
    }
    sim.run_until_idle();
    assert_frontier_monotone(&sim, 0, "P");
    let (frontier, generation) = sim
        .actor(0)
        .inner()
        .stability_frontier(NodeId(0), "P")
        .unwrap();
    assert_eq!(frontier, 12, "all bursts eventually stabilize");
    assert_eq!(generation, 3, "one bump per change_predicate");
}

#[test]
fn frontier_never_regresses_across_exclusion_and_reinstatement() {
    // Regression test: the §III-E exclusion/reinstatement cycle rewrites
    // the predicate twice (drop node 7, re-add node 7). The frontier the
    // application sees must stay monotone within each generation even
    // though the *set* of required ackers shrank and grew back.
    let cfg = ec2_cfg(
        "predicate AllWNodes MIN($ALLWNODES-$MYWNODE)\n\
         option failure_timeout_millis 400\n\
         option heartbeat_millis 100\n\
         option auto_exclude_suspects true\n\
         option retransmit_millis 100\n",
    );
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 52).unwrap();

    for _ in 0..3 {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 512])))
            .unwrap();
    }
    // `run_until_idle` would never return here: the heartbeat and
    // retransmit timers re-arm forever. Bounded slices instead.
    sim.run_for(SimDuration::from_millis(500));

    // Node 7 drops off; publish into the partition; auto-exclusion lets
    // the frontier advance without it.
    for i in 0..7 {
        sim.set_link_up(7, i, false);
        sim.set_link_up(i, 7, false);
    }
    sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![1u8; 512])))
        .unwrap();
    sim.run_for(SimDuration::from_millis(1500));
    assert!(sim.actor(0).inner().is_suspected(NodeId(7)));
    assert_eq!(
        sim.actor(0)
            .inner()
            .stability_frontier(NodeId(0), "AllWNodes")
            .unwrap()
            .0,
        4
    );

    // Node 7 returns, catches up out of band, and is reinstated.
    for i in 0..7 {
        sim.set_link_up(7, i, true);
        sim.set_link_up(i, 7, true);
    }
    sim.run_for(SimDuration::from_millis(800));
    assert!(!sim.actor(0).inner().is_suspected(NodeId(7)));
    sim.with_ctx(7, |n, ctx| {
        n.call_in(ctx, |node| node.fast_forward_stream(NodeId(0), 4))
    });
    sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![2u8; 512])))
        .unwrap();
    sim.run_for(SimDuration::from_secs(2));

    assert_frontier_monotone(&sim, 0, "AllWNodes");
    let (frontier, generation) = sim
        .actor(0)
        .inner()
        .stability_frontier(NodeId(0), "AllWNodes")
        .unwrap();
    assert_eq!(
        frontier, 5,
        "post-reinstatement message stabilized on all nodes"
    );
    assert!(
        generation >= 2,
        "exclusion and reinstatement each bump the generation (got {generation})"
    );
}
