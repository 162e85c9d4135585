//! Integration tests for the sharded engine, driven by hand (the engine
//! is sans-IO; its one runtime is TCP, see `stabilizer-transport`'s
//! `sharded_tcp.rs`):
//!
//! * end-to-end stability across shards with unchanged node-level
//!   semantics (global FIFO delivery, aggregated frontier, waitfor);
//! * placement: a stream's shard sub-streams stay on its replicas;
//! * the stalled-shard regression: the aggregated frontier is pinned by
//!   the slowest shard and never regresses when one shard stalls;
//! * an action is a send or an event, and a cut-off peer is
//!   blamed by every shard;
//! * a property test: per-origin-per-shard FIFO and convergence under
//!   random loss with retransmission.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stabilizer_core::{
    AckTypeRegistry, ClusterConfig, Delivery, EventLog, NodeId, Options, SimTime, StallReport,
    TimerKind, WireMsg, DELIVERED,
};
use stabilizer_shard::{RoutePolicy, ShardedAction, ShardedEngine};
use std::collections::VecDeque;
use std::sync::Arc;

const N0: NodeId = NodeId(0);
const MS: u64 = 1_000_000;

fn cfg_with_shards(shards: u16) -> ClusterConfig {
    ClusterConfig::parse(&format!(
        "az A a b\naz B c\npredicate All MIN($ALLWNODES-$MYWNODE)\noption shards {shards}\n"
    ))
    .unwrap()
}

/// A frame in flight: `(from, to, shard, message)`.
type Frame = (NodeId, NodeId, u16, WireMsg);

/// One sharded engine per node of a config, driven by hand: every frame
/// in flight waits on one FIFO, each is lost with probability `loss`
/// (drawn from a seeded generator), and the data frames of the `stall`
/// shard are parked instead of delivered. Each node's events go into its
/// own [`EventLog`], and every action drained is checked to be a send or
/// an event.
struct Net {
    engines: Vec<ShardedEngine>,
    logs: Vec<EventLog>,
    wire: VecDeque<Frame>,
    /// Withheld data frames of the `stall` shard, in order.
    parked: Vec<Frame>,
    stall: Option<u16>,
    /// Frames each node addressed to each other node (`sent[from][to]`).
    sent: Vec<Vec<u64>>,
    loss: f64,
    rng: SmallRng,
    /// The driver's side of [`ShardedEngine::swap_actions`].
    actions: Vec<ShardedAction>,
    now: u64,
}

impl Net {
    fn new(cfg: &ClusterConfig, seed: u64) -> Self {
        let acks = Arc::new(AckTypeRegistry::new());
        let n = cfg.num_nodes();
        let engines = (0..n as u16).map(|me| {
            let acks = Arc::clone(&acks);
            ShardedEngine::new(cfg.clone(), NodeId(me), acks, RoutePolicy::RoundRobin).unwrap()
        });
        let mut net = Net {
            engines: engines.collect(),
            logs: (0..n).map(|_| EventLog::default()).collect(),
            wire: VecDeque::new(),
            parked: Vec::new(),
            stall: None,
            sent: vec![vec![0; n]; n],
            loss: 0.0,
            rng: SmallRng::seed_from_u64(seed),
            actions: Vec::new(),
            now: 0,
        };
        for i in 0..n {
            net.on(i, |_| ());
        }
        net
    }

    /// Call into node `i`'s engine, then route what that emitted: events
    /// to its log, frames to the wire.
    fn on<R>(&mut self, i: usize, call: impl FnOnce(&mut ShardedEngine) -> R) -> R {
        let r = call(&mut self.engines[i]);
        self.engines[i].swap_actions(&mut self.actions);
        let now = SimTime(self.now);
        for action in self.actions.drain(..) {
            match action {
                ShardedAction::Send { shard, to, msg } => {
                    self.sent[i][to.0 as usize] += 1;
                    self.wire.push_back((NodeId(i as u16), to, shard, msg));
                }
                ShardedAction::Node(action) => match action.event() {
                    Some(event) => self.logs[i].record(now, &event),
                    None => panic!("node {i} emitted an action nobody sends or sees"),
                },
            }
        }
        r
    }

    /// Deliver, drop or park frames until none is in flight.
    fn settle(&mut self) {
        while let Some(frame) = self.wire.pop_front() {
            let (_, _, shard, msg) = &frame;
            if Some(*shard) == self.stall && matches!(msg, WireMsg::Data { .. }) {
                self.parked.push(frame);
            } else if !self.rng.gen_bool(self.loss) {
                self.deliver(frame);
            }
        }
    }

    fn deliver(&mut self, (from, to, shard, msg): Frame) {
        self.now += 1;
        let now = self.now;
        self.on(to.0 as usize, |e| e.on_messages(now, shard, [(from, msg)]));
    }

    /// Release the stalled shard and deliver everything parked.
    fn unstall(&mut self) {
        self.stall = None;
        for frame in std::mem::take(&mut self.parked) {
            self.deliver(frame);
        }
        self.settle();
    }

    /// `ms` milliseconds pass, then every engine's `kind` timer fires.
    fn tick(&mut self, kind: TimerKind, ms: u64) {
        self.now += ms * MS;
        let now = self.now;
        for i in 0..self.engines.len() {
            self.on(i, |e| e.on_timer(kind, now));
        }
    }

    /// `(stream, key)`'s aggregated frontier at node `i`.
    fn frontier(&self, i: usize, stream: NodeId, key: &str) -> u64 {
        self.engines[i].stability_frontier(stream, key).unwrap().0
    }

    /// The global sequence numbers of `origin` node `i` delivered, in
    /// delivery order.
    fn delivered(&self, i: usize, origin: NodeId) -> Vec<u64> {
        let log = &self.logs[i].delivery_log;
        log.iter()
            .filter(|d| d.1 == origin && matches!(d.3, Delivery::Upcall { .. }))
            .map(|d| d.2)
            .collect()
    }
}

#[test]
fn sharded_end_to_end_reaches_full_stability() {
    let mut net = Net::new(&cfg_with_shards(4), 7);
    // Mirrors explicitly track the origin's stream (configured predicates
    // only cover each node's own stream, as in the unsharded engine).
    for i in 1..3 {
        net.on(i, |e| {
            e.register_predicate(N0, "All", "MIN($ALLWNODES-$MYWNODE)")
        })
        .unwrap();
    }
    let total = 40u64;
    for i in 0..total {
        let seq = net.on(0, |e| e.publish(Bytes::from(vec![i as u8; 64])));
        assert_eq!(
            seq.unwrap(),
            i + 1,
            "publish returns global sequence numbers"
        );
        net.settle();
    }
    let token = net.on(0, |e| e.waitfor(N0, "All", total)).unwrap();
    net.settle();

    // The aggregated frontier reaches the full global prefix everywhere.
    for i in 0..3 {
        let at = net.engines[i].stability_frontier(N0, "All");
        assert_eq!(at, Some((total, 0)), "node {i}");
    }
    // The waitfor completed.
    assert!(net.logs[0].completed_waits.iter().any(|(_, t)| *t == token));
    // Mirrors delivered the stream in global FIFO order with the header
    // stripped (payload length is the application's 64 bytes).
    for i in 1..3 {
        assert_eq!(
            net.delivered(i, N0),
            (1..=total).collect::<Vec<u64>>(),
            "node {i} FIFO"
        );
        let all_64 = |d: &(_, _, _, Delivery)| matches!(d.3, Delivery::Upcall { len: 64, .. });
        assert!(net.logs[i].delivery_log.iter().all(all_64));
    }
    // Every shard carried traffic (round-robin actually spread the load).
    let origin = &net.engines[0];
    for s in 0..4 {
        assert_eq!(origin.shard_metrics(s).data_msgs_sent, (total / 4) * 2);
    }
    // Publishes landed in the origin's send buffers and fully reclaimed.
    assert_eq!(origin.send_buffer_bytes(), 0);
}

#[test]
fn sharded_placement_scopes_streams_to_replicas() {
    // Six nodes; stream a lives on {a, b, c} only. The sharded engine
    // must keep every sub-stream of a off the non-replicas, and the
    // aggregated frontier must stabilize from replica acks alone.
    let cfg = ClusterConfig::parse(
        "az A a b c\naz B d e f\nreplicate a a b c\n\
         predicate All MIN($ALLWNODES-$MYWNODE)\noption shards 4\n",
    )
    .unwrap();
    let mut net = Net::new(&cfg, 11);
    for i in 1..3 {
        net.on(i, |e| {
            e.register_predicate(N0, "All", "MIN($ALLWNODES-$MYWNODE)")
        })
        .unwrap();
    }
    let total = 20u64;
    for i in 0..total {
        net.on(0, |e| e.publish(Bytes::from(vec![i as u8; 32])))
            .unwrap();
    }
    net.settle();
    // Replicas converge on the full global prefix.
    for i in 0..3 {
        assert_eq!(net.frontier(i, N0, "All"), total, "replica {i}");
    }
    // Non-replicas saw nothing of stream a: no deliveries, no ack cells,
    // and the origin never addressed them.
    for i in 3..6 {
        assert!(
            net.delivered(i, N0).is_empty(),
            "node {i} must not deliver stream a"
        );
        for s in 0..4 {
            assert_eq!(net.engines[i].shard_metrics(s).deliveries, 0);
        }
        assert_eq!(net.sent[0][i], 0, "node 0 sent to node {i}");
    }
}

#[test]
fn stalled_shard_pins_aggregate_without_regression() {
    let cfg = ClusterConfig::parse(
        "az A a\naz B b\npredicate All MIN($ALLWNODES-$MYWNODE)\noption shards 2\n",
    )
    .unwrap();
    // Shard 1 is stalled: globals 2 and 4 (round-robin) never reach B.
    let mut net = Net::new(&cfg, 1);
    net.stall = Some(1);
    for i in 0..4u64 {
        let seq = net.on(0, |e| e.publish(Bytes::from(vec![i as u8; 16])));
        assert_eq!(seq.unwrap(), i + 1);
    }
    net.settle();
    let frontiers = |net: &Net| -> Vec<u64> {
        let log = &net.logs[0].frontier_log;
        log.iter()
            .filter(|(_, u)| u.stream == N0)
            .map(|(_, u)| u.seq)
            .collect()
    };
    // Shard 0 fully acked globals 1 and 3, but the aggregate is pinned at
    // 1 by the stalled shard owning global 2 — and it got there without
    // ever stepping backwards.
    let seen = frontiers(&net);
    assert!(seen.windows(2).all(|w| w[0] <= w[1]), "{seen:?}");
    assert_eq!(net.engines[0].stability_frontier(N0, "All"), Some((1, 0)));
    assert_eq!(net.engines[1].aggregator().delivered_global(N0), 1);
    assert_eq!(
        net.engines[1].aggregator().parked(N0),
        1,
        "global 3 waits for 2"
    );

    // Releasing the stalled shard unlocks the whole prefix monotonically.
    net.unstall();
    let seen = frontiers(&net);
    assert!(seen.windows(2).all(|w| w[0] <= w[1]), "{seen:?}");
    assert_eq!(net.engines[0].stability_frontier(N0, "All"), Some((4, 0)));
    assert_eq!(net.engines[1].aggregator().delivered_global(N0), 4);
    assert_eq!(net.engines[1].aggregator().parked(N0), 0);
}

/// The sharded engine emits only what a driver sends or an observer
/// sees (the harness checks each drained action), node 0 holding a
/// predicate only node 1 can satisfy. A publish goes through; then node
/// 1 is cut off and node 0 publishes one message per shard. Its
/// frontier freezes, and every shard's report of it is stalled and
/// blames node 1 (not suspected: a sharded node has no failure
/// detector).
#[test]
fn every_action_is_a_send_or_an_event() {
    const SHARDS: u16 = 2;
    let cfg = ClusterConfig::parse(&format!(
        "az A a b\npredicate All MIN($ALLWNODES-$MYWNODE)\noption shards {SHARDS}\n"
    ))
    .unwrap();
    let mut net = Net::new(&cfg, 1);
    net.on(0, |e| e.register_predicate(N0, "Peer", "MAX($2)"))
        .unwrap();
    net.on(0, |e| e.publish(Bytes::from_static(b"before")))
        .unwrap();
    net.settle();
    net.loss = 1.0;
    for _ in 0..SHARDS {
        net.on(0, |e| e.publish(Bytes::from_static(b"after")))
            .unwrap();
    }
    net.settle();

    let reports: Vec<(u16, StallReport)> = net.engines[0]
        .explain_all()
        .into_iter()
        .filter(|(_, r)| (r.stream, r.key.as_str()) == (N0, "Peer"))
        .collect();
    let shards: Vec<u16> = reports.iter().map(|(s, _)| *s).collect();
    assert_eq!(
        shards,
        (0..SHARDS).collect::<Vec<_>>(),
        "one report per shard"
    );
    for (shard, report) in reports {
        let line = report.render_human();
        assert!(report.stalled, "shard {shard}: {line}");
        let pred = (report.predicate.as_str(), report.generation);
        assert_eq!(pred, ("MAX($2)", 0), "shard {shard}");
        let blamed: Vec<_> = report
            .blamed
            .iter()
            .map(|b| (b.node, b.suspected))
            .collect();
        assert_eq!(blamed, [(NodeId(1), false)], "shard {shard}: {line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under random loss with retransmission, every mirror still sees
    /// each shard sub-stream in per-shard FIFO order, the reassembled
    /// global stream in global FIFO order, and the aggregated frontier
    /// converges to the full prefix without ever regressing.
    #[test]
    fn per_shard_fifo_and_convergence_under_loss(
        loss_pct in 1u32..25,
        count in 4u64..30,
        shards in 2u16..5,
        seed in 0u64..500,
    ) {
        let opts = Options::default().retransmit_millis(40).shards(shards);
        let cfg = ClusterConfig::parse("az A a b\naz B c\npredicate All MIN($ALLWNODES-$MYWNODE)\n")
            .unwrap()
            .with_options(opts);
        let mut net = Net::new(&cfg, seed);
        net.loss = f64::from(loss_pct) / 100.0;
        for i in 0..count {
            net.on(0, |e| e.publish(Bytes::from(vec![i as u8; 100]))).unwrap();
        }
        net.settle();
        // Two minutes of retransmission rounds at most.
        for _ in 0..3_000 {
            if net.frontier(0, N0, "All") >= count {
                break;
            }
            net.tick(TimerKind::Retransmit, 40);
            net.settle();
        }
        prop_assert_eq!(net.frontier(0, N0, "All"), count, "stalled under {}% loss", loss_pct);
        for i in 1..3 {
            // Global FIFO after reassembly.
            prop_assert_eq!(net.delivered(i, N0), (1..=count).collect::<Vec<u64>>(), "node {} global FIFO", i);
            // Per-shard FIFO before reassembly: each shard machine
            // delivered exactly what the origin's same shard published,
            // once each, and its delivered prefix reached the last of it
            // (in order and gap-free by the shard machine's own receive
            // rule: `data_plane.rs`'s `gaps_are_held_back_and_released`
            // and `duplicates_and_replays_ignored`).
            for s in 0..shards {
                let published = net.engines[0].shard(s).last_published();
                let shard = net.engines[i].shard(s);
                prop_assert_eq!(shard.metrics().deliveries, published, "node {} shard {}", i, s);
                let delivered = shard.recorder().get(N0, NodeId(i as u16), DELIVERED);
                prop_assert_eq!(delivered, published, "node {} shard {} prefix", i, s);
            }
            // The aggregated frontier log never regresses within a
            // generation.
            let mut last = 0u64;
            for (_, u) in &net.logs[i].frontier_log {
                prop_assert!(u.generation == 0, "no predicate changes in this run");
                prop_assert!(u.seq >= last, "aggregate regressed {} -> {}", last, u.seq);
                last = u.seq;
            }
        }
    }
}
