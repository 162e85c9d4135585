//! Per-message state is reclaimed on stability — all of it, not only the
//! send buffer. Each case but one drives the sans-IO machines directly
//! (a FIFO of frames in flight, no simulator queue, no `EventLog`); the
//! one runs the simulator driver itself over netsim, as a cluster built
//! with hooks, whose nodes keep no log. Each case publishes
//! `n` rounds with everything covered and every wait drained at the end
//! of each, and counts the heap bytes the run left behind with the
//! workspace's counting allocator. That residue must be **the same after
//! N rounds as after 4N**: a byte that differs is a byte kept per
//! message. `ShardedFrontier`'s shard→global maps failed this before
//! they were given the send buffer's rule (EXPERIMENTS.md has the
//! number).
//!
//! Bounded buffers are brought to their capacity first, then proven not
//! to grow: the hub's trace ring and publish-stamp windows
//! (`DEFAULT_TRACE_CAPACITY` events, and as many stamps per origin — the
//! hub is handed that many publishes before the run; `telemetry`'s own
//! tests slide the window), its exemplar reservoirs (top 8 per
//! histogram), and `TopicHooks::retained` (10,000 messages, filled by
//! delivering that many records to the hooks before the run).
//!
//! What is **unbounded by design**, and therefore dropped before the
//! count or left out of the run:
//!
//! * what an application stores because storing it is its job:
//!   `LocalStore` (every version of every key, and its WAL), a
//!   subscribed `BrokerHooks`' / `TopicHooks`' `deliveries`, the actors'
//!   measurement vectors (`send_times`, `files`, `reads`). The hooks are
//!   dropped before the residue is read, so a case measures the protocol
//!   and telemetry state under that application's traffic;
//! * the `EventLog` of a `SimNode` built with `SimNode::new` (so by
//!   `build_cluster`, the sharded builders and every application's
//!   actor) and the sharded driver's `shard_*_logs`: the experiments'
//!   read side, one entry per event (harnesses that publish hundreds of
//!   thousands run `without_delivery_log`). A cluster built by
//!   `build_cluster_with_hooks` keeps none;
//! * the recorder's `DirtyCell` journal: opt-in, grows until its one
//!   consumer (the chaos checker) takes it.
//!
//! Bounded, but not byte-constant, so configured off here: the retained
//! catch-up log (`retain_log_bytes`; `data_plane.rs` tests the cap — a
//! `BTreeMap` sliding under a byte cap holds a node more or less
//! depending on where the window stands). `Transfers` sessions are keyed
//! by peer and removed on completion, so there is nothing per message to
//! find there.

use bytes::Bytes;
use stabilizer::core::sim_driver::{build_cluster_with_hooks, Machine};
use stabilizer::core::{AppHooks, Event, NoHooks, SimTime};
use stabilizer::filebackup::ec2_backup_cfg;
use stabilizer::kvstore::{KvHooks, KvOp, LocalStore};
use stabilizer::netsim::{NetTopology, SimDuration};
use stabilizer::pubsub::stab_broker::BrokerHooks;
use stabilizer::pubsub::topics::TopicHooks;
use stabilizer::pubsub::{pubsub_cfg, TopicRecord};
use stabilizer::quorum::{cloudlab_cfg, QuorumSetup};
use stabilizer::shard::{RoutePolicy, ShardMsg, ShardedAction, ShardedEngine};
use stabilizer::telemetry::{Telemetry, DEFAULT_TRACE_CAPACITY};
use stabilizer::{AckTypeRegistry, Action, ClusterConfig, NodeId, SeqNo, StabilizerNode, WireMsg};
use std::collections::VecDeque;
use std::sync::Arc;

#[global_allocator]
static ALLOC: stabilizer_testalloc::Counting = stabilizer_testalloc::Counting;

/// Rounds of the short run; the long one is four times that.
const N: u64 = 1_500;

/// The 3-node cluster of the TCP benchmark workloads.
const TCP3: &str = "az East e1 e2\naz West w1\n\
    predicate AllRemote MIN($ALLWNODES-$MYWNODE)\n\
    predicate OneRemote MAX($ALLWNODES-$MYWNODE)\n\
    predicate Majority KTH_MAX(2,$ALLWNODES)\n";

/// What this test needs of a machine beyond the simulator driver's
/// [`Machine`] (which it is driven through, minus the driver): what an
/// observer sees of an action with no log to write beside it, and
/// whether a wait is still blocked.
trait Observed: Machine {
    fn event(action: &Self::Action) -> Option<Event<'_>>;
    fn pending_waiters(&self) -> usize;
}

impl Observed for StabilizerNode {
    fn event(action: &Action) -> Option<Event<'_>> {
        action.event()
    }
    fn pending_waiters(&self) -> usize {
        StabilizerNode::pending_waiters(self)
    }
}

impl Observed for ShardedEngine {
    fn event(action: &ShardedAction) -> Option<Event<'_>> {
        action.event()
    }
    fn pending_waiters(&self) -> usize {
        ShardedEngine::pending_waiters(self)
    }
}

/// Counts the waits it sees complete, then hands the event on.
struct Waits<H>(u64, H);

impl<H: AppHooks> AppHooks for Waits<H> {
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        self.0 += u64::from(matches!(event, Event::WaitDone { .. }));
        self.1.on_event(now, event);
    }
}

/// One machine per node, each with its application's hooks, and the
/// frames in flight between them: `(from, to, frame)`, one FIFO for the
/// cluster.
struct Cluster<M: Machine, H> {
    nodes: Vec<(M, Waits<H>)>,
    wire: VecDeque<(usize, NodeId, M::Msg)>,
    /// The driver's side of [`Machine::swap_actions`].
    actions: Vec<M::Action>,
    now: u64,
}

impl<M: Observed, H: AppHooks> Cluster<M, H> {
    fn new(nodes: impl IntoIterator<Item = (M, H)>) -> Self {
        let nodes = nodes.into_iter().map(|(m, h)| (m, Waits(0, h)));
        let mut cluster = Cluster {
            nodes: nodes.collect(),
            wire: VecDeque::new(),
            actions: Vec::new(),
            now: 0,
        };
        for i in 0..cluster.nodes.len() {
            cluster.on(i, |_| ());
        }
        cluster.settle();
        cluster
    }

    /// Call into node `i`'s machine, then route what that emitted:
    /// events to its hooks, frames to the wire.
    fn on<R>(&mut self, i: usize, call: impl FnOnce(&mut M) -> R) -> R {
        let (node, hooks) = &mut self.nodes[i];
        let r = call(node);
        node.swap_actions(&mut self.actions);
        for action in self.actions.drain(..) {
            if let Some(event) = M::event(&action) {
                hooks.on_event(SimTime(self.now), &event);
            }
            if let Some((to, msg)) = M::into_send(action) {
                self.wire.push_back((i, to, msg));
            }
        }
        r
    }

    /// Deliver frames until none is in flight.
    fn settle(&mut self) {
        self.settle_holding(|_, _| false, &mut Vec::new());
    }

    /// [`Cluster::settle`], except that a frame to `to` that `hold` names
    /// is set aside in `held` instead of delivered — a link that stalls.
    fn settle_holding(
        &mut self,
        hold: impl Fn(NodeId, &M::Msg) -> bool,
        held: &mut Vec<(usize, NodeId, M::Msg)>,
    ) {
        while let Some((from, to, msg)) = self.wire.pop_front() {
            if hold(to, &msg) {
                held.push((from, to, msg));
            } else {
                self.deliver(from, to, msg);
            }
        }
    }

    fn deliver(&mut self, from: usize, to: NodeId, msg: M::Msg) {
        let (now, from) = (self.now, NodeId(from as u16));
        self.on(to.0 as usize, |node| node.on_message(now, from, msg));
    }

    /// `rounds` rounds: every publisher publishes one payload and waits
    /// for `key` to cover it, `after` sees each publish, and the round
    /// ends with nothing in flight. Afterwards every wait has completed.
    fn run(
        &mut self,
        rounds: u64,
        publishers: &[usize],
        key: &str,
        payload: impl Fn(u64) -> Bytes,
        mut after: impl FnMut(&mut Self, usize, SeqNo, &Bytes),
    ) {
        let waits_before: Vec<u64> = self.nodes.iter().map(|(_, hooks)| hooks.0).collect();
        for round in 0..rounds {
            self.now += 1_000;
            for &i in publishers {
                let payload = payload(round);
                let seq = self.on(i, |node| node.publish(payload.clone()));
                let seq = seq.expect("send buffer has room");
                let wait = self.on(i, |node| node.waitfor(NodeId(i as u16), key, seq));
                wait.expect("registered");
                after(self, i, seq, &payload);
            }
            self.settle();
        }
        for &i in publishers {
            let (node, hooks) = &self.nodes[i];
            assert_eq!(node.pending_waiters(), 0, "node {i} still waits on {key}");
            assert_eq!(
                hooks.0 - waits_before[i],
                rounds,
                "node {i}: waits completed"
            );
        }
    }
}

/// The state a run of N rounds leaves behind must be the state a run of
/// 4N rounds leaves behind.
fn assert_steady(what: &str, residue: impl Fn(u64) -> isize) {
    let (short, long) = (residue(N), residue(4 * N));
    assert_eq!(
        long,
        short,
        "{what}: state grew by {} B over {} rounds",
        long - short,
        3 * N
    );
}

/// Heap bytes `run` leaves behind, counted while what it returns — the
/// cluster, or what is left of it once the application's own data was
/// dropped — is still alive.
fn residue<K>(run: impl FnOnce() -> K) -> isize {
    let before = stabilizer_testalloc::live();
    let kept = run();
    let residue = stabilizer_testalloc::live() - before;
    drop(kept);
    residue
}

fn cfg(text: &str) -> ClusterConfig {
    ClusterConfig::parse(text).expect("config parses")
}

/// Plain nodes of `cfg`, `hooks(me)` on each.
fn plain<H: AppHooks>(
    cfg: &ClusterConfig,
    mut hooks: impl FnMut(NodeId) -> H,
) -> Cluster<StabilizerNode, H> {
    let acks = Arc::new(AckTypeRegistry::new());
    let ids = (0..cfg.num_nodes() as u16).map(NodeId);
    Cluster::new(ids.map(|me| {
        let node = StabilizerNode::new(cfg.clone(), me, Arc::clone(&acks)).expect("node");
        (node, hooks(me))
    }))
}

/// A hub that has been up for a while: each of `origins` has stamped the
/// last slot of its window (which allocates all of it; the run stamps
/// the slots before), and the trace ring is full, so the run slides it.
fn warm_hub(origins: &[NodeId]) -> Arc<Telemetry> {
    let hub = Telemetry::new_sim();
    for &origin in origins {
        for _ in 0..DEFAULT_TRACE_CAPACITY {
            hub.note_publish(0, origin, DEFAULT_TRACE_CAPACITY as SeqNo, 0);
        }
    }
    hub
}

/// Drop the machines' hooks, keep the machines.
fn machines<M: Machine, H>(cluster: Cluster<M, H>) -> Vec<M> {
    cluster.nodes.into_iter().map(|(node, _)| node).collect()
}

#[test]
fn plain_nodes_keep_nothing_per_message() {
    assert_steady("3 plain nodes", |rounds| {
        let run = || {
            let mut cluster = plain(&cfg(TCP3), |_| NoHooks);
            let payload = |_| Bytes::from_static(&[7; 64]);
            cluster.run(rounds, &[0, 1, 2], "AllRemote", payload, |_, _, _, _| ());
            cluster
        };
        residue(run)
    });
}

/// The simulator driver over netsim, every node built by
/// `build_cluster_with_hooks`: with no log kept, the driver, the
/// simulator's queue and links and the machines keep nothing per
/// message either.
#[test]
fn a_simulated_cluster_with_hooks_keeps_nothing_per_message() {
    assert_steady("3 simulated nodes with hooks", |rounds| {
        let run = || {
            let net = NetTopology::full_mesh(3, SimDuration::from_millis(5), 1e9);
            let sim = build_cluster_with_hooks(&cfg(TCP3), net, 1, |_| NoHooks);
            let mut sim = sim.expect("cluster");
            for _ in 0..rounds {
                for i in 0..3 {
                    let payload = Bytes::from_static(&[7; 64]);
                    let seq = sim.with_ctx(i, |n, ctx| n.publish_in(ctx, payload));
                    let seq = seq.expect("send buffer has room");
                    let me = NodeId(i as u16);
                    let wait = sim.with_ctx(i, |n, ctx| n.waitfor_in(ctx, me, "AllRemote", seq));
                    wait.expect("registered");
                }
                sim.run_until_idle();
            }
            for i in 0..3 {
                let node = sim.actor(i).inner();
                assert_eq!(node.pending_waiters(), 0, "node {i} still waits");
            }
            sim
        };
        residue(run)
    });
}

#[test]
fn sharded_engines_keep_nothing_per_message() {
    assert_steady("3 sharded engines, S = 4", |rounds| {
        let run = || {
            let cfg = cfg(&format!("{TCP3}option shards 4\n"));
            let acks = Arc::new(AckTypeRegistry::new());
            let mut cluster = Cluster::new((0..3).map(|me| {
                let (cfg, acks) = (cfg.clone(), Arc::clone(&acks));
                let engine = ShardedEngine::new(cfg, NodeId(me), acks, RoutePolicy::RoundRobin);
                (engine.expect("engine"), NoHooks)
            }));
            // The application reports its own level on what it mirrors,
            // two messages behind what it was delivered.
            let applied = (0..3).map(|i| cluster.on(i, |e| e.register_ack_type("applied")));
            let applied = applied.last().expect("three nodes");
            let payload = |_| Bytes::from_static(&[7; 64]);
            cluster.run(
                rounds,
                &[0, 1, 2],
                "AllRemote",
                payload,
                |cluster, i, _, _| {
                    for stream in (0..3).map(NodeId).filter(|s| s.0 as usize != i) {
                        cluster.on(i, |e| {
                            let behind = e.aggregator().delivered_global(stream).saturating_sub(2);
                            e.report_stability(stream, applied, behind);
                        });
                    }
                },
            );
            cluster
        };
        residue(run)
    });
}

/// A shard→global map lent to a stall is given back: node 0 hears no
/// ACK on shard 1 for a while — that shard's frontier, and with it the
/// replay floor, stands still, so node 0's map of its own shard-1
/// sub-stream grows by an entry per message it routes there — then the
/// reports arrive, the readers catch up, and once the map has been
/// filled and reclaimed again the heap is back at the byte it was.
#[test]
fn a_map_that_grew_during_a_stall_gives_its_memory_back() {
    const STALL: u64 = 1_500;
    let cfg = cfg(&format!("{TCP3}option shards 4\n"));
    let acks = Arc::new(AckTypeRegistry::new());
    let mut cluster = Cluster::new((0..3).map(|me| {
        let (cfg, acks) = (cfg.clone(), Arc::clone(&acks));
        let engine = ShardedEngine::new(cfg, NodeId(me), acks, RoutePolicy::RoundRobin);
        (engine.expect("engine"), NoHooks)
    }));
    let payload = |_| Bytes::from_static(&[7; 64]);
    let all = [0, 1, 2];
    cluster.run(STALL, &all, "AllRemote", payload, |_, _, _, _| ());
    let before = stabilizer_testalloc::live();

    let stalled = |to: NodeId, msg: &ShardMsg| {
        to == NodeId(0) && msg.shard == 1 && matches!(msg.msg, WireMsg::AckBatch(_))
    };
    let mut held = Vec::new();
    for _ in 0..STALL {
        cluster.now += 1_000;
        cluster.on(0, |e| e.publish(payload(0))).expect("room");
        cluster.settle_holding(stalled, &mut held);
    }
    let lent = stabilizer_testalloc::live() - before;
    let map_entries = (STALL / 4 * 8) as isize;
    assert!(lent > map_entries, "the stall held {lent} B, no map grew");

    for (from, to, msg) in held.drain(..) {
        cluster.deliver(from, to, msg);
        cluster.settle();
    }
    drop(held);
    // Reclaim is lazy — a map is looked at when it is full — so the
    // grown map has to fill once more before it is handed back.
    cluster.run(STALL, &all, "AllRemote", payload, |_, _, _, _| ());
    assert_eq!(
        stabilizer_testalloc::live() - before,
        0,
        "bytes still held after the stalled shard caught up"
    );
}

#[test]
fn kv_hooks_keep_nothing_per_message_beside_the_store() {
    assert_steady("3 K/V nodes with a hub", |rounds| {
        let hub = warm_hub(&[NodeId(0), NodeId(1), NodeId(2)]);
        let run = || {
            let mut cluster = plain(&cfg(TCP3), |me| {
                let pools = (0..3).map(|_| LocalStore::new()).collect();
                KvHooks::new(pools, Some(hub.observer(me)))
            });
            let put = |round: u64| KvOp::Put {
                key: format!("key/{}", round % 16),
                value: Bytes::from_static(&[7; 64]),
                timestamp: round,
            };
            let payload = |round| put(round).to_bytes();
            cluster.run(
                rounds,
                &[0, 1, 2],
                "AllRemote",
                payload,
                |cluster, i, seq, payload| {
                    hub.note_publish(cluster.now, NodeId(i as u16), seq, payload.len());
                },
            );
            cluster
        };
        // The pools are the application's database: dropped, not counted.
        residue(|| machines(run()))
    });
}

#[test]
fn broker_hooks_keep_nothing_per_message() {
    assert_steady("5 brokers, one publishing", |rounds| {
        let run = || {
            // `StabBroker::new`'s predicates: one per remote site.
            let mut cluster = plain(&pubsub_cfg(), |_| BrokerHooks::default());
            for k in 1..5 {
                let (key, src) = (format!("site_{k}"), format!("MAX(${})", k + 1));
                cluster.on(0, |n| {
                    n.register_predicate(NodeId(0), &key, &src)
                        .expect("compiles")
                });
            }
            let payload = |_| Bytes::from_static(&[7; 128]);
            cluster.run(rounds, &[0], "site_4", payload, |_, _, _, _| ());
            cluster
        };
        residue(|| machines(run()))
    });
}

#[test]
fn topic_hooks_retention_is_capped() {
    assert_steady("5 topic brokers, one publishing", |rounds| {
        let record = |round: u64| TopicRecord::Publish {
            topic: "news".to_owned(),
            body: Bytes::from(vec![round as u8; 32]),
        };
        let run = || {
            let mut cluster = plain(&pubsub_cfg(), |_| TopicHooks::default());
            // Fill every broker's retention buffer to its 10,000 cap.
            let old = record(0).to_bytes();
            for (_, hooks) in &mut cluster.nodes {
                for seq in 1..=10_000 {
                    hooks.1.on_deliver(SimTime(0), NodeId(4), seq, &old);
                }
            }
            // `TopicBroker`'s tracking predicate over the subscribed sites.
            cluster.on(0, |n| {
                n.register_predicate(NodeId(0), "topic:news", "MIN($2, $3)")
                    .expect("compiles")
            });
            let payload = |round| record(round).to_bytes();
            cluster.run(rounds, &[0], "topic:news", payload, |_, _, _, _| ());
            cluster
        };
        // Kept: the hooks too — `retained` is what must not grow.
        residue(run)
    });
}

#[test]
fn the_quorum_register_keeps_nothing_per_write() {
    assert_steady("quorum register, Nw = 2 of 3", |rounds| {
        let run = || {
            let setup = QuorumSetup::fig3();
            let mut cluster = plain(&cloudlab_cfg(), |_| NoHooks);
            let writer = NodeId(setup.writer as u16);
            cluster.on(setup.writer, |n| {
                n.register_predicate(writer, "W", &setup.write_predicate())
                    .expect("compiles")
            });
            let payload = |_| Bytes::from_static(&[7; 256]);
            cluster.run(rounds, &[setup.writer], "W", payload, |_, _, _, _| ());
            cluster
        };
        residue(run)
    });
}

#[test]
fn backup_nodes_with_a_hub_keep_nothing_per_chunk() {
    assert_steady("8 backup nodes with a hub", |rounds| {
        let hub = warm_hub(&[NodeId(0)]);
        let chunk = Bytes::from(vec![0u8; 8192]);
        let run = || {
            let mut cluster = plain(&ec2_backup_cfg(), |me| Some(hub.observer(me)));
            let payload = |_| chunk.clone();
            cluster.run(
                rounds,
                &[0],
                "AllWNodes",
                payload,
                |cluster, _, seq, payload| {
                    hub.note_publish(cluster.now, NodeId(0), seq, payload.len());
                },
            );
            cluster
        };
        residue(run)
    });
}
