//! Simulator-driver hook cases, generic over the [`Machine`] the one
//! driver runs: `sim_driver_hooks.rs` instantiates them with a
//! [`StabilizerNode`](stabilizer_core::StabilizerNode), and
//! `stabilizer-shard`'s `sharded_sim.rs` includes this file by path and
//! instantiates them with a `ShardedEngine` (core cannot depend on the
//! shard crate).

use bytes::Bytes;
use stabilizer_core::sim_driver::{build_actors, AppHooks, Machine, SimNode};
use stabilizer_core::{ClusterConfig, FrontierUpdate, NodeId, Options, StallReport, TimerKind};
use stabilizer_dsl::AckTypeRegistry;
use stabilizer_netsim::{Actor, NetTopology, SimDuration, SimTime, Simulation};
use std::sync::Arc;

/// Records every hook the driver fires.
#[derive(Default)]
pub struct Counting {
    pub delivers: Vec<(NodeId, u64, usize)>,
    pub frontiers: Vec<(String, u64)>,
    pub waits: Vec<u64>,
    pub chunks: usize,
    pub joins: Vec<usize>,
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

/// Builds node `me`'s machine.
pub trait MkMachine<M>: Fn(ClusterConfig, NodeId, Arc<AckTypeRegistry>) -> M {}
impl<M, F: Fn(ClusterConfig, NodeId, Arc<AckTypeRegistry>) -> M> MkMachine<M> for F {}

pub fn two_node_cfg(opts: Options) -> ClusterConfig {
    ClusterConfig::parse("az A a b\npredicate All MIN($ALLWNODES-$MYWNODE)\n")
        .unwrap()
        .with_options(opts)
}

pub fn cluster<M: Machine>(
    cfg: &ClusterConfig,
    mk: &impl MkMachine<M>,
) -> Simulation<SimNode<Counting, M>> {
    let net = NetTopology::full_mesh(2, SimDuration::from_millis(5), 1e9);
    build_actors(cfg, net, 1, |me, acks| {
        Ok(SimNode::new(mk(cfg.clone(), me, acks), Counting::default()))
    })
    .unwrap()
}

pub fn hooks_receive_deliveries_frontiers_and_waits<M: Machine>(
    opts: Options,
    mk: impl MkMachine<M>,
) {
    let mut sim = cluster(&two_node_cfg(opts), &mk);
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
/// machine and catches up from node 0's retained log. The donor's hooks
/// count the chunks it sends, the joiner's hooks see one join.
pub fn catch_up_fires_transfer_chunk_and_join_hooks<M: Machine>(
    opts: Options,
    mk: impl MkMachine<M>,
) {
    let cfg = two_node_cfg(opts.retain_log_bytes(1 << 16).transfer_millis(20));
    let mut sim = cluster(&cfg, &mk);
    for i in 0..6u8 {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![i; 16])))
            .unwrap();
    }
    // The transfer timer re-arms forever: run bounded slices.
    sim.run_for(SimDuration::from_millis(100));
    assert_eq!(sim.actor(1).hooks.delivers.len(), 6);
    assert_eq!(sim.actor(0).hooks.chunks, 0, "nobody asked yet");

    let acks = Arc::new(AckTypeRegistry::new());
    let joiner = SimNode::new(mk(cfg.clone(), NodeId(1), acks), Counting::default());
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

/// A machine emits only what a driver sends or an observer sees. Two
/// machines are driven by hand, so each drained action is checked before
/// it is executed, under `auto_exclude_suspects`, node 0 holding a
/// predicate only node 1 can satisfy. A publish goes through; then node
/// 1 is cut off, node 0 publishes one message per shard, and each side
/// suspects the other. The predicate cannot be rewritten without node 1,
/// so it stays as it is: its frontier freezes, and each report `explain`
/// gives of it (one per shard) is stalled and blames node 1, suspected.
pub fn every_action_is_a_send_or_an_event<M: Machine>(
    opts: Options,
    mk: impl MkMachine<M>,
    explain: impl Fn(&M) -> Vec<StallReport>,
) {
    const MS: u64 = 1_000_000;
    let shards = usize::from(opts.shards.max(1));
    let cfg = two_node_cfg(opts.failure_timeout_millis(50).auto_exclude_suspects(true));
    let acks = Arc::new(AckTypeRegistry::new());
    let mut nodes = [0, 1].map(|i| mk(cfg.clone(), NodeId(i), Arc::clone(&acks)));
    nodes[0]
        .register_predicate(NodeId(0), "Peer", "MAX($2)")
        .unwrap();
    // Drain both machines until neither emits, delivering what they send
    // unless `cut`.
    let mut actions = Vec::new();
    let mut settle = |nodes: &mut [M; 2], now: u64, cut: bool| loop {
        let mut sent = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            node.swap_actions(&mut actions);
            for action in actions.drain(..) {
                let seen = M::observe(&action).is_some();
                match M::into_send(action) {
                    Some((to, msg)) => sent.push((NodeId(i as u16), to, msg)),
                    None => assert!(seen, "node {i} emitted an action nobody sends or sees"),
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
    for _ in 0..shards {
        nodes[0].publish(Bytes::from_static(b"after")).unwrap();
    }
    settle(&mut nodes, MS, true);
    for node in &mut nodes {
        node.on_timer(TimerKind::Failure, 100 * MS);
    }
    settle(&mut nodes, 100 * MS, true);

    let reports: Vec<StallReport> = explain(&nodes[0])
        .into_iter()
        .filter(|r| (r.stream, r.key.as_str()) == (NodeId(0), "Peer"))
        .collect();
    assert_eq!(reports.len(), shards, "one report per shard");
    for report in reports {
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
}
