//! Integration tests for the sharded engine in the deterministic
//! simulator:
//!
//! * end-to-end stability across shards with unchanged node-level
//!   semantics (global FIFO delivery, aggregated frontier, waitfor);
//! * byte-identical seed replay of a sharded scenario;
//! * the stalled-shard regression: the aggregated frontier is pinned by
//!   the slowest shard and never regresses when one shard stalls;
//! * property tests: deterministic routing (same seed ⇒ same shard
//!   assignment) and per-origin-per-shard FIFO under random loss.

#[path = "../../core/tests/hooks_cases/mod.rs"]
mod hooks_cases;

use bytes::Bytes;
use proptest::prelude::*;
use stabilizer_core::{ClusterConfig, CoreError, NodeId, Options, SeqNo, WireMsg, DELIVERED};
use stabilizer_netsim::{Ctx, NetTopology, SimDuration, SimTime};
use stabilizer_shard::{
    build_sharded_cluster, RoutePolicy, ShardMsg, ShardedAction, ShardedEngine, ShardedSimNode,
};
use std::fmt::Write as _;
use std::sync::Arc;

const N0: NodeId = NodeId(0);

fn cfg_with_shards(shards: u16) -> ClusterConfig {
    ClusterConfig::parse(&format!(
        "az A a b\naz B c\npredicate All MIN($ALLWNODES-$MYWNODE)\noption shards {shards}\n"
    ))
    .unwrap()
}

/// Keyed publish inside the simulation (the driver's `*_in` calls cover
/// what both machines share; routing keys are the engine's own).
fn publish_with_key_in(
    n: &mut ShardedSimNode,
    ctx: &mut Ctx<'_, ShardMsg>,
    payload: Bytes,
    key: &[u8],
) -> Result<SeqNo, CoreError> {
    n.call_in(ctx, |engine| engine.publish_with_key(payload, key))
}

fn mesh(n: usize) -> NetTopology {
    NetTopology::full_mesh(n, SimDuration::from_millis(5), 1e9)
}

#[test]
fn sharded_end_to_end_reaches_full_stability() {
    let cfg = cfg_with_shards(4);
    let mut sim = build_sharded_cluster(&cfg, mesh(3), 7, RoutePolicy::RoundRobin).unwrap();
    // Mirrors explicitly track the origin's stream (configured predicates
    // only cover each node's own stream, as in the unsharded engine).
    for i in 1..3 {
        sim.with_ctx(i, |n, ctx| {
            n.register_predicate_in(ctx, N0, "All", "MIN($ALLWNODES-$MYWNODE)")
        })
        .unwrap();
    }
    let total = 40u64;
    for i in 0..total {
        let seq = sim
            .with_ctx(0, |n, ctx| {
                n.publish_in(ctx, Bytes::from(vec![i as u8; 64]))
            })
            .unwrap();
        assert_eq!(seq, i + 1, "publish returns global sequence numbers");
    }
    let token = sim
        .with_ctx(0, |n, ctx| n.waitfor_in(ctx, N0, "All", total))
        .unwrap();
    sim.run_until_idle();

    // The aggregated frontier reaches the full global prefix everywhere.
    for i in 0..3 {
        assert_eq!(
            sim.actor(i).inner().stability_frontier(N0, "All"),
            Some((total, 0)),
            "node {i}"
        );
    }
    // The waitfor completed.
    assert!(sim
        .actor(0)
        .completed_waits
        .iter()
        .any(|(_, t)| *t == token));
    // Mirrors delivered the stream in global FIFO order with the header
    // stripped (payload length is the application's 64 bytes).
    for i in 1..3 {
        let seqs: Vec<u64> = sim
            .actor(i)
            .delivery_log
            .iter()
            .filter(|(_, o, _, _)| *o == N0)
            .map(|(_, _, s, _)| *s)
            .collect();
        assert_eq!(seqs, (1..=total).collect::<Vec<u64>>(), "node {i} FIFO");
        assert!(sim
            .actor(i)
            .delivery_log
            .iter()
            .all(|(_, _, _, len)| *len == 64));
    }
    // Every shard carried traffic (round-robin actually spread the load).
    let origin = sim.actor(0).inner();
    for s in 0..4 {
        assert_eq!(origin.shard_metrics(s).data_msgs_sent, (total / 4) * 2);
    }
    // Publishes landed in the origin's send buffers and fully reclaimed.
    assert_eq!(origin.send_buffer_bytes(), 0);
}

/// Heartbeats that crossed each direction of a 2-node cluster's one link
/// in a second of virtual time, node 0's clock skewed by `skew`.
fn heartbeats_under_skew<A: stabilizer_netsim::Actor>(
    mut sim: stabilizer_netsim::Simulation<A>,
    skew: impl FnOnce(&mut A),
) -> (u64, u64) {
    skew(sim.actor_mut(0));
    sim.run_for(SimDuration::from_secs(1));
    (sim.link_stats(0, 1).messages, sim.link_stats(1, 0).messages)
}

#[test]
fn clock_skew_halves_the_heartbeat_cadence_a_peer_sees() {
    let cfg = |shards: u16| {
        ClusterConfig::parse(&format!(
            "az A a b\noption heartbeat_millis 10\noption shards {shards}\n"
        ))
        .unwrap()
    };
    // Idle nodes send nothing but heartbeats, one per shard sub-stream
    // per period: node 1 ticks every 10 ms, node 0 (scale 2.0) every 20.
    let plain = stabilizer_core::sim_driver::build_cluster(&cfg(1), mesh(2), 3).unwrap();
    let (skewed, nominal) = heartbeats_under_skew(plain, |n| n.set_timer_scale(2.0));
    assert!((99..=100).contains(&nominal), "plain nominal {nominal}");
    assert!((49..=50).contains(&skewed), "plain skewed {skewed}");

    let sharded = build_sharded_cluster(&cfg(2), mesh(2), 3, RoutePolicy::RoundRobin).unwrap();
    let (skewed, nominal) = heartbeats_under_skew(sharded, |n| n.set_timer_scale(2.0));
    assert!((198..=200).contains(&nominal), "sharded nominal {nominal}");
    assert!((98..=100).contains(&skewed), "sharded skewed {skewed}");
}

/// The driver-hook cases of `stabilizer-core`'s `sim_driver_hooks.rs`,
/// on the sharded machine.
#[test]
fn driver_hooks_fire_on_the_sharded_machine() {
    let sharded = |cfg: ClusterConfig, me, acks| {
        ShardedEngine::new(cfg, me, acks, RoutePolicy::RoundRobin).unwrap()
    };
    let opts = || Options::default().shards(2);
    hooks_cases::hooks_receive_deliveries_frontiers_and_waits(opts(), sharded);
    hooks_cases::catch_up_fires_transfer_chunk_and_join_hooks(opts(), sharded);
    let explain = |engine: &ShardedEngine| engine.explain_all().into_iter().map(|r| r.1).collect();
    hooks_cases::every_action_is_a_send_or_an_event(opts(), sharded, explain);
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
    let mut sim = build_sharded_cluster(&cfg, mesh(6), 11, RoutePolicy::RoundRobin).unwrap();
    for i in 1..3 {
        sim.with_ctx(i, |n, ctx| {
            n.register_predicate_in(ctx, N0, "All", "MIN($ALLWNODES-$MYWNODE)")
        })
        .unwrap();
    }
    let total = 20u64;
    for i in 0..total {
        sim.with_ctx(0, |n, ctx| {
            n.publish_in(ctx, Bytes::from(vec![i as u8; 32]))
        })
        .unwrap();
    }
    sim.run_until_idle();
    // Replicas converge on the full global prefix.
    for i in 0..3 {
        assert_eq!(
            sim.actor(i).inner().stability_frontier(N0, "All"),
            Some((total, 0)),
            "replica {i}"
        );
    }
    // Non-replicas saw nothing of stream a: no deliveries, no ack cells.
    for i in 3..6 {
        assert!(
            sim.actor(i)
                .delivery_log
                .iter()
                .all(|(_, o, _, _)| *o != N0),
            "node {i} must not deliver stream a"
        );
        for s in 0..4 {
            assert_eq!(sim.actor(i).inner().shard_metrics(s).deliveries, 0);
        }
    }
    // And the origin never addressed them.
    assert_eq!(
        sim.actor(0).inner().placement().replicas(N0),
        &[NodeId(0), NodeId(1), NodeId(2)]
    );
}

/// Flatten every observable log of a simulation into one string — the
/// "byte stream" compared across replays.
fn transcript(sim: &stabilizer_netsim::Simulation<ShardedSimNode>) -> String {
    let mut out = String::new();
    for i in 0..3 {
        let a = sim.actor(i);
        for (t, u) in &a.frontier_log {
            writeln!(
                out,
                "{i} F {t:?} {} {} {} {}",
                u.stream.0, u.key, u.seq, u.generation
            )
            .unwrap();
        }
        for (t, o, s, l) in &a.delivery_log {
            writeln!(out, "{i} D {t:?} {} {s} {l}", o.0).unwrap();
        }
    }
    out
}

fn replay_once(seed: u64) -> String {
    let cfg = cfg_with_shards(4);
    let mut sim = build_sharded_cluster(&cfg, mesh(3), seed, RoutePolicy::KeyHash).unwrap();
    for i in 0..30u64 {
        let key = format!("user-{}", i % 7);
        sim.with_ctx(0, |n, ctx| {
            publish_with_key_in(n, ctx, Bytes::from(vec![i as u8; 32]), key.as_bytes())
        })
        .unwrap();
        if i % 3 == 0 {
            sim.run_for(SimDuration::from_millis(2));
        }
    }
    sim.run_until_idle();
    transcript(&sim)
}

#[test]
fn seed_replay_is_byte_identical() {
    let a = replay_once(42);
    let b = replay_once(42);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must reproduce the same transcript");
    // Not only equal to itself: equal to the recorded transcript, so a
    // change that reorders what the fold emits fails here, and every
    // run of this test is a new process, so the pin is the cross-process
    // determinism check for the sharded simulator too. Re-pinned when
    // the per-shard logs went: (5525, 0xfd22_396f_e20b_3050) →
    // (2749, 0x03b5_405c_46ec_64a5), the old transcript minus its
    // `d<shard>`/`f<shard>` lines byte for byte.
    assert_eq!(
        (a.len(), stabilizer_shard::fnv1a(a.as_bytes())),
        (2749, 0x03b5_405c_46ec_64a5),
        "the transcript moved"
    );
}

/// Hand-driven two-engine harness that lets a test withhold (stall) one
/// shard's data sub-stream while everything else flows.
struct Pair {
    a: ShardedEngine,
    b: ShardedEngine,
    /// Withheld shard-`stall` Data messages from a → b, in order.
    parked: Vec<(u16, WireMsg)>,
    stall: Option<u16>,
    now: u64,
}

impl Pair {
    fn new(cfg: &ClusterConfig, stall: Option<u16>) -> Self {
        let acks = Arc::new(stabilizer_core::AckTypeRegistry::new());
        Pair {
            a: ShardedEngine::new(
                cfg.clone(),
                NodeId(0),
                acks.clone(),
                RoutePolicy::RoundRobin,
            )
            .unwrap(),
            b: ShardedEngine::new(cfg.clone(), NodeId(1), acks, RoutePolicy::RoundRobin).unwrap(),
            parked: Vec::new(),
            stall,
            now: 0,
        }
    }

    /// Shuttle messages both ways until quiescent, parking stalled-shard
    /// data messages. Returns node-level frontier updates observed at A.
    fn settle(&mut self) -> Vec<u64> {
        let mut frontiers = Vec::new();
        loop {
            self.now += 1;
            let mut moved = false;
            for act in self.a.take_actions() {
                match act {
                    ShardedAction::Send { shard, to, msg } => {
                        assert_eq!(to, NodeId(1));
                        let is_data = matches!(msg, WireMsg::Data { .. });
                        if is_data && Some(shard) == self.stall {
                            self.parked.push((shard, msg));
                        } else {
                            self.b.on_message(self.now, shard, NodeId(0), msg);
                            moved = true;
                        }
                    }
                    ShardedAction::Frontier(u) => frontiers.push(u.seq),
                    _ => {}
                }
            }
            for act in self.b.take_actions() {
                if let ShardedAction::Send { shard, to, msg } = act {
                    assert_eq!(to, NodeId(0));
                    self.a.on_message(self.now, shard, NodeId(1), msg);
                    moved = true;
                }
            }
            if !moved && !self.a.has_actions() && !self.b.has_actions() {
                return frontiers;
            }
        }
    }

    /// Release the stalled shard and deliver everything parked.
    fn unstall(&mut self) {
        self.stall = None;
        for (shard, msg) in std::mem::take(&mut self.parked) {
            self.now += 1;
            self.b.on_message(self.now, shard, NodeId(0), msg);
        }
    }
}

#[test]
fn stalled_shard_pins_aggregate_without_regression() {
    let cfg = ClusterConfig::parse(
        "az A a\naz B b\npredicate All MIN($ALLWNODES-$MYWNODE)\noption shards 2\n",
    )
    .unwrap();
    // Shard 1 is stalled: globals 2 and 4 (round-robin) never reach B.
    let mut pair = Pair::new(&cfg, Some(1));
    for i in 0..4u64 {
        assert_eq!(
            pair.a.publish(Bytes::from(vec![i as u8; 16])).unwrap(),
            i + 1
        );
    }
    let mut frontiers = pair.settle();
    // Shard 0 fully acked globals 1 and 3, but the aggregate is pinned at
    // 1 by the stalled shard owning global 2 — and it got there without
    // ever stepping backwards.
    assert!(frontiers.windows(2).all(|w| w[0] <= w[1]), "{frontiers:?}");
    assert_eq!(pair.a.stability_frontier(N0, "All"), Some((1, 0)));
    assert_eq!(pair.b.aggregator().delivered_global(N0), 1);
    assert_eq!(pair.b.aggregator().parked(N0), 1, "global 3 waits for 2");

    // Releasing the stalled shard unlocks the whole prefix monotonically.
    pair.unstall();
    frontiers.extend(pair.settle());
    assert!(frontiers.windows(2).all(|w| w[0] <= w[1]), "{frontiers:?}");
    assert_eq!(pair.a.stability_frontier(N0, "All"), Some((4, 0)));
    assert_eq!(pair.b.aggregator().delivered_global(N0), 4);
    assert_eq!(pair.b.aggregator().parked(N0), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed ⇒ same shard assignment: replaying an identical keyed
    /// workload in two independently built clusters routes every publish
    /// to the same shard, and leaves every node with the same per-shard
    /// deliveries and delivered prefixes and the same delivery log.
    #[test]
    fn routing_is_deterministic_across_replays(
        seed in 0u64..500,
        shards in 1u16..6,
        keys in proptest::collection::vec(0u8..20, 1..40),
    ) {
        let run = |policy| {
            let cfg = cfg_with_shards(shards);
            let mut sim = build_sharded_cluster(&cfg, mesh(3), seed, policy).unwrap();
            let mut routes = Vec::new();
            for (i, k) in keys.iter().enumerate() {
                let key = [*k];
                let published = |n: &ShardedSimNode| {
                    (0..shards).map(|s| n.inner().shard(s).last_published()).collect::<Vec<_>>()
                };
                let before = published(sim.actor(0));
                sim.with_ctx(0, |n, ctx| {
                    publish_with_key_in(n, ctx, Bytes::from(vec![i as u8; 8]), &key)
                })
                .unwrap();
                let after = published(sim.actor(0));
                routes.push((0..shards).find(|&s| after[s as usize] != before[s as usize]));
            }
            sim.run_until_idle();
            let mut shape = Vec::new();
            for i in 0..3 {
                let (node, me) = (sim.actor(i).inner(), NodeId(i as u16));
                let per_shard: Vec<(u64, u64)> = (0..shards)
                    .map(|s| {
                        let delivered = node.shard(s).recorder().get(N0, me, DELIVERED);
                        (node.shard_metrics(s).deliveries, delivered)
                    })
                    .collect();
                shape.push((per_shard, sim.actor(i).delivery_log.clone()));
            }
            (routes, shape)
        };
        for policy in [RoutePolicy::KeyHash, RoutePolicy::RoundRobin] {
            prop_assert_eq!(run(policy), run(policy));
        }
    }

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
        let opts = stabilizer_core::Options::default()
            .retransmit_millis(40)
            .shards(shards);
        let cfg = ClusterConfig::parse("az A a b\naz B c\npredicate All MIN($ALLWNODES-$MYWNODE)\n")
            .unwrap()
            .with_options(opts);
        let mut sim = build_sharded_cluster(&cfg, mesh(3), seed, RoutePolicy::RoundRobin).unwrap();
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    sim.set_link_loss(a, b, f64::from(loss_pct) / 100.0);
                }
            }
        }
        for i in 0..count {
            sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![i as u8; 100]))).unwrap();
        }
        let deadline = SimTime::ZERO + SimDuration::from_secs(120);
        loop {
            sim.run_for(SimDuration::from_millis(200));
            let (f, _) = sim.actor(0).inner().stability_frontier(N0, "All").unwrap();
            if f >= count || sim.now() >= deadline {
                break;
            }
        }
        let (frontier, _) = sim.actor(0).inner().stability_frontier(N0, "All").unwrap();
        prop_assert_eq!(frontier, count, "stalled under {}% loss", loss_pct);
        for i in 1..3 {
            let actor = sim.actor(i);
            // Global FIFO after reassembly.
            let seqs: Vec<u64> = actor
                .delivery_log
                .iter()
                .filter(|(_, o, _, _)| *o == N0)
                .map(|(_, _, s, _)| *s)
                .collect();
            prop_assert_eq!(&seqs, &(1..=count).collect::<Vec<u64>>(), "node {} global FIFO", i);
            // Per-shard FIFO before reassembly: each shard machine
            // delivered exactly what the origin's same shard published,
            // once each, and its delivered prefix reached the last of it
            // (in order and gap-free by the shard machine's own receive
            // rule: `data_plane.rs`'s `gaps_are_held_back_and_released`
            // and `duplicates_and_replays_ignored`).
            for s in 0..shards {
                let published = sim.actor(0).inner().shard(s).last_published();
                let shard = actor.inner().shard(s);
                prop_assert_eq!(shard.metrics().deliveries, published, "node {} shard {}", i, s);
                let delivered = shard.recorder().get(N0, NodeId(i as u16), DELIVERED);
                prop_assert_eq!(delivered, published, "node {} shard {} prefix", i, s);
            }
            // The aggregated frontier log never regresses within a
            // generation.
            let mut last = 0u64;
            for (_, u) in &actor.frontier_log {
                prop_assert!(u.generation == 0, "no predicate changes in this run");
                prop_assert!(u.seq >= last, "aggregate regressed {} -> {}", last, u.seq);
                last = u.seq;
            }
        }
    }
}
