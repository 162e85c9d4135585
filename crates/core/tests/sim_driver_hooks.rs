//! Tests for the simulator driver itself: application hooks fire with
//! correct arguments and in order, a node emits only what the driver
//! sends or the hooks see, and the coalescing timer batches ACKs in
//! simulation. A node built with hooks keeps no log, and its hooks see
//! everything the log would have kept.

use bytes::Bytes;
use stabilizer_core::sim_driver::{build_actors, build_cluster, build_cluster_with_hooks, SimNode};
use stabilizer_core::{
    Action, AppHooks, ClusterConfig, FrontierUpdate, NodeId, Options, SharedEventLog,
    StabilizerNode, StallReport, TimerKind,
};
use stabilizer_dsl::AckTypeRegistry;
use stabilizer_netsim::{Actor, NetTopology, SimDuration, SimTime, Simulation};
use std::sync::Arc;

/// Records every hook the driver fires.
#[derive(Default)]
struct Counting {
    delivers: Vec<(NodeId, u64, usize)>,
    frontiers: Vec<(String, u64)>,
    waits: Vec<u64>,
    chunks: usize,
    joins: Vec<usize>,
}

impl AppHooks for Counting {
    fn on_deliver(&mut self, _now: SimTime, origin: NodeId, seq: u64, payload: &Bytes) {
        self.delivers.push((origin, seq, payload.len()));
    }
    fn on_frontier(&mut self, _now: SimTime, update: &FrontierUpdate) {
        self.frontiers.push((update.key.clone(), update.seq));
    }
    fn on_wait_done(&mut self, _now: SimTime, token: u64) {
        self.waits.push(token);
    }
    fn on_transfer_chunk(&mut self, _: SimTime, _: NodeId, _: NodeId, _: u64, _: usize, _: bool) {
        self.chunks += 1;
    }
    fn on_join(&mut self, _now: SimTime, streams: usize) {
        self.joins.push(streams);
    }
}

fn node(cfg: &ClusterConfig, me: NodeId, acks: Arc<AckTypeRegistry>) -> StabilizerNode {
    StabilizerNode::new(cfg.clone(), me, acks).unwrap()
}

fn two_node_cfg(opts: Options) -> ClusterConfig {
    ClusterConfig::parse("az A a b\npredicate All MIN($ALLWNODES-$MYWNODE)\n")
        .unwrap()
        .with_options(opts)
}

fn cluster(cfg: &ClusterConfig) -> Simulation<SimNode<Counting>> {
    let net = NetTopology::full_mesh(2, SimDuration::from_millis(5), 1e9);
    build_actors(cfg, net, 1, |me, acks| {
        Ok(SimNode::new(node(cfg, me, acks), Counting::default()))
    })
    .unwrap()
}

#[test]
fn hooks_receive_deliveries_frontiers_and_waits() {
    let mut sim = cluster(&two_node_cfg(Options::default()));
    let seq = sim
        .with_ctx(0, |n, ctx| {
            n.publish_in(ctx, Bytes::from_static(b"payload9"))
        })
        .unwrap();
    let token = sim
        .with_ctx(0, |n, ctx| n.waitfor_in(ctx, NodeId(0), "All", seq))
        .unwrap();
    sim.run_until_idle();
    // Subscriber hook saw the payload.
    assert_eq!(sim.actor(1).hooks.delivers, vec![(NodeId(0), 1, 8)]);
    // Publisher hook saw the frontier advance and the wait completion.
    assert_eq!(sim.actor(0).hooks.frontiers, vec![("All".to_owned(), 1)]);
    assert_eq!(sim.actor(0).hooks.waits, vec![token]);
}

/// §III-E through the hooks: node 1 is replaced by a history-less
/// node and catches up from node 0's retained log. The donor's hooks
/// count the chunks it sends, the joiner's hooks see one join.
#[test]
fn catch_up_fires_transfer_chunk_and_join_hooks() {
    let opts = Options::default().retain_log_bytes(1 << 16);
    let cfg = two_node_cfg(opts.transfer_millis(20));
    let mut sim = cluster(&cfg);
    for i in 0..6u8 {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![i; 16])))
            .unwrap();
    }
    // The transfer timer re-arms forever: run bounded slices.
    sim.run_for(SimDuration::from_millis(100));
    assert_eq!(sim.actor(1).hooks.delivers.len(), 6);
    assert_eq!(sim.actor(0).hooks.chunks, 0, "nobody asked yet");

    let acks = Arc::new(AckTypeRegistry::new());
    let joiner = SimNode::new(node(&cfg, NodeId(1), acks), Counting::default());
    sim.replace_actor(1, joiner);
    sim.with_ctx(1, |n, ctx| {
        n.on_start(ctx);
        n.begin_catch_up_at(ctx.now());
        n.call_in(ctx, |_| ()); // drains what the catch-up queued
    });
    sim.run_for(SimDuration::from_millis(500));

    assert!(
        sim.actor(0).hooks.chunks >= 1,
        "the donor's hooks never saw a transfer chunk leave"
    );
    assert_eq!(sim.actor(1).hooks.joins, vec![1], "one join, on one stream");
    let replayed: Vec<u64> = sim.actor(1).hooks.delivers.iter().map(|d| d.1).collect();
    assert_eq!(replayed, (1..=6).collect::<Vec<u64>>());
}

/// A node emits only what a driver sends or an observer sees. Two nodes
/// are driven by hand, so each drained action is checked before it is
/// executed, under `auto_exclude_suspects`, node 0 holding a predicate
/// only node 1 can satisfy. A publish goes through; then node 1 is cut
/// off, node 0 publishes again, and each side suspects the other. The
/// predicate cannot be rewritten without node 1, so it stays as it is:
/// its frontier freezes, and the report `explain_all` gives of it is
/// stalled and blames node 1, suspected. (`stabilizer-shard`'s
/// `sharded_sim.rs` holds the sharded engine to the same, shard by
/// shard.)
#[test]
fn every_action_is_a_send_or_an_event() {
    const MS: u64 = 1_000_000;
    let cfg = ClusterConfig::parse(
        "az A a b\npredicate All MIN($ALLWNODES-$MYWNODE)\n\
         option failure_timeout_millis 50\noption auto_exclude_suspects true\n",
    )
    .unwrap();
    let acks = Arc::new(AckTypeRegistry::new());
    let mut nodes = [0, 1].map(|i| node(&cfg, NodeId(i), Arc::clone(&acks)));
    nodes[0]
        .register_predicate(NodeId(0), "Peer", "MAX($2)")
        .unwrap();
    // Drain both machines until neither emits, delivering what they send
    // unless `cut`.
    let mut actions = Vec::new();
    let mut settle = |nodes: &mut [StabilizerNode; 2], now: u64, cut: bool| loop {
        let mut sent = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            node.swap_actions(&mut actions);
            for action in actions.drain(..) {
                match action {
                    Action::Send { to, msg } => sent.push((NodeId(i as u16), to, msg)),
                    other => assert!(
                        other.event().is_some(),
                        "node {i} emitted an action nobody sends or sees"
                    ),
                }
            }
        }
        if sent.is_empty() {
            return;
        }
        for (from, to, msg) in sent {
            if !cut {
                nodes[to.0 as usize].on_message(now, from, msg);
            }
        }
    };

    nodes[0].publish(Bytes::from_static(b"before")).unwrap();
    settle(&mut nodes, 0, false);
    nodes[0].publish(Bytes::from_static(b"after")).unwrap();
    settle(&mut nodes, MS, true);
    for node in &mut nodes {
        node.on_timer(TimerKind::Failure, 100 * MS);
    }
    settle(&mut nodes, 100 * MS, true);

    let reports: Vec<StallReport> = nodes[0]
        .explain_all()
        .into_iter()
        .filter(|r| (r.stream, r.key.as_str()) == (NodeId(0), "Peer"))
        .collect();
    let [report] = &reports[..] else {
        panic!("one report, got {}", reports.len())
    };
    let line = report.render_human();
    assert!(report.stalled, "{line}");
    assert_eq!(
        (report.predicate.as_str(), report.generation),
        ("MAX($2)", 0)
    );
    let blamed: Vec<_> = report
        .blamed
        .iter()
        .map(|b| (b.node, b.suspected))
        .collect();
    assert_eq!(blamed, [(NodeId(1), true)], "{line}");
}

#[test]
fn coalescing_timer_batches_acks_in_simulation() {
    // With a 2 ms coalescing interval, five rapid-fire messages produce
    // far fewer ACK batches than eager mode's five-per-peer.
    let eager = {
        let mut sim = cluster(&two_node_cfg(Options::default()));
        for _ in 0..5 {
            sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 64])))
                .unwrap();
        }
        sim.run_until_idle();
        sim.actor(1).inner().metrics().control_msgs_sent
    };
    let coalesced = {
        let cfg = two_node_cfg(Options::default().ack_flush_micros(2000));
        let mut sim = cluster(&cfg);
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
