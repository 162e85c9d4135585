//! The sharded TCP runtime: S per-core stream shards behind one node.
//!
//! Each shard is a full sans-IO [`StabilizerNode`] with its own mutex,
//! so the link readers, the publishers and the ticker work on different
//! shards at once instead of serializing on one state-machine lock.
//! A [`ShardedFrontier`] aggregator min-combines the per-shard stability
//! frontiers into the node-level frontier and reassembles per-shard FIFO
//! deliveries into global FIFO order, keeping the application-visible
//! semantics (`publish`, `waitfor`, `monitor_stability_frontier`, FIFO
//! delivery) exactly those of the unsharded [`NodeHandle`](crate::NodeHandle).
//!
//! As on the plain runtime, link threads run the state machines
//! **inline**: the reader that read a batch of sharded frames (lane =
//! shard index) folds it itself, one shard lock per lane present in the
//! batch, and every peer's writer multiplexes all shards onto one
//! connection. On top of the shared link layer's threads
//! ([`crate::link`]) this node shape adds one **dispatcher** thread
//! running application callbacks (delivery upcalls, frontier monitors)
//! and the telemetry observer outside every lock, in the exact order
//! node-level events were produced under the aggregator lock (the
//! observer contract is written once, in [`stabilizer_core::observe`]);
//! it is handed what each fold produced in one piece.
//!
//! The link ticker fans each timer across the shards and samples the
//! per-shard progress gauges.
//!
//! Locking discipline, strictly ordered to stay deadlock-free:
//! `publish` lock (router + global sequencer) → one shard mutex →
//! aggregator mutex → leaf locks (upcalls, link).
//! A shard's mutex is held until what its machine emitted has been
//! folded into the aggregator: several threads feed one shard, and its
//! deliveries must reach the aggregator in shard-sequence order.
//! Node-level events are enqueued to the dispatcher *under* the
//! aggregator lock, so cross-shard delivery order is fixed exactly once;
//! callbacks then run with no lock held. A shard's `Send`s go to the
//! link without the aggregator lock: they touch no aggregate state.

use crate::link::{self, Link, LinkClient, LinkSpawn};
use crate::runtime::repair_stream;
use crate::upcalls::Upcalls;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use stabilizer_core::{
    AckTypeId, AckTypeRegistry, Action, AppHooks, ClusterConfig, CoreError, Event, FrontierUpdate,
    Metrics, NodeId, SeqNo, SimTime, StabilizerNode, TimerKind, WireMsg,
};
use stabilizer_shard::{
    build_shards, encode_global, RoutePolicy, ShardRouter, ShardedAction, ShardedFrontier,
};
use stabilizer_telemetry::{Gauge, LogHistogram, MetricsObserver, StallProvider, Telemetry};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Global-sequence assignment and shard routing for local publishes.
/// One lock holder at a time keeps `(global, shard)` transactional: a
/// failed shard publish never leaves a hole in the global sequence.
struct PublishState {
    router: ShardRouter,
    next_global: SeqNo,
}

/// Aggregator plus the origin-side per-shard stability bookkeeping that
/// must be read under the same lock (the shard→global mapping).
struct AggState {
    frontier: ShardedFrontier,
    /// Own-stream stability latency by key, then by shard (keyed by key
    /// alone so an update's borrowed key finds it).
    stability: HashMap<String, Vec<ShardStability>>,
}

/// One shard's share of a key's own-stream stability latency.
#[derive(Clone, Default)]
struct ShardStability {
    /// Highest shard frontier already folded into `hist`.
    covered: SeqNo,
    /// Registered once there is something to fold.
    hist: Option<Arc<LogHistogram>>,
}

impl AggState {
    /// Fold a per-shard frontier advance of the own stream into the
    /// per-shard stability-latency histogram, translating shard-local
    /// sequence numbers back to globals through the mapping and reading
    /// each global's publish time off the hub (the one stamp table).
    fn record_shard_stability(
        &mut self,
        hub: &Telemetry,
        me: NodeId,
        shard: u16,
        update: &FrontierUpdate,
    ) {
        let per_shard = if let Some(per_shard) = self.stability.get_mut(&update.key) {
            per_shard
        } else {
            let unseen = vec![ShardStability::default(); self.frontier.num_shards()];
            self.stability.entry(update.key.clone()).or_insert(unseen)
        };
        let ShardStability { covered, hist } = &mut per_shard[shard as usize];
        if update.seq <= *covered {
            return;
        }
        let from = std::mem::replace(covered, update.seq);
        let hist = hist.get_or_insert_with(|| {
            let sh = shard.to_string();
            hub.registry().histogram(
                "stab_shard_stability_latency_ns",
                &[("key", &update.key), ("shard", &sh)],
            )
        });
        let now = hub.now_nanos();
        let globals = (from + 1..=update.seq).map_while(|q| self.frontier.global_of(me, shard, q));
        for published in globals.filter_map(|g| hub.published_at(me, g)) {
            hist.record(now.saturating_sub(published));
        }
    }

    /// Tell the aggregator how far the readers of the own stream's
    /// mapping that live out here have moved on `shard`: its machine
    /// replays from `first_replayable` (the entry before it is the
    /// transfer mark), and the stability histograms resume after their
    /// cursors.
    fn retain_own_map(&mut self, shard: u16, first_replayable: SeqNo) {
        let cursors = self.stability.values();
        let resume = cursors.map(|per_shard| per_shard[shard as usize].covered + 1);
        let from = resume.fold(first_replayable.saturating_sub(1), SeqNo::min);
        self.frontier.retain_own_from(shard, from);
    }
}

/// Per-shard gauges sampled by the ticker (labels `node` + `shard`).
struct ShardGauges {
    send_buffer_bytes: Gauge,
    data_msgs_sent: Gauge,
    deliveries: Gauge,
    frontier_updates: Gauge,
    retransmits: Gauge,
}

impl ShardGauges {
    fn new(t: &Telemetry, me: NodeId, shard: u16) -> Self {
        let id = me.0.to_string();
        let sh = shard.to_string();
        let labels: &[(&str, &str)] = &[("node", &id), ("shard", &sh)];
        let reg = t.registry();
        ShardGauges {
            send_buffer_bytes: reg.gauge("stab_shard_send_buffer_bytes", labels),
            data_msgs_sent: reg.gauge("stab_shard_data_msgs_sent", labels),
            deliveries: reg.gauge("stab_shard_deliveries", labels),
            frontier_updates: reg.gauge("stab_shard_frontier_updates", labels),
            retransmits: reg.gauge("stab_shard_retransmits", labels),
        }
    }
}

/// State shared between the handle and the sharded runtime threads.
pub struct ShardedShared {
    me: NodeId,
    cfg: ClusterConfig,
    num_shards: u16,
    shards: Vec<Mutex<StabilizerNode>>,
    agg: Mutex<AggState>,
    publish: Mutex<PublishState>,
    /// `waitfor` rendezvous, frontier monitors and delivery upcalls.
    upcalls: Upcalls,
    /// Sockets, link threads, clock and transport telemetry.
    link: Link<u16>,
    /// Node-level actions, ordered once under the aggregator lock and
    /// drained by the dispatcher thread: one hand-off per fold.
    event_tx: Sender<Vec<ShardedAction>>,
    shard_gauges: Vec<ShardGauges>,
}

impl ShardedShared {
    /// Mutate one shard under its lock and run its emitted actions
    /// through the aggregator before letting go of it: whoever takes the
    /// shard next must find this call's deliveries already folded.
    fn with_shard<R>(&self, shard: u16, f: impl FnOnce(&mut StabilizerNode) -> R) -> R {
        let mut node = self.shards[shard as usize].lock();
        let r = f(&mut node);
        self.process_shard_actions(shard, node.first_replayable(), node.take_actions());
        r
    }

    /// Route one shard's actions: sends to the per-peer writers, the rest
    /// through [`ShardedFrontier::fold`] — under the aggregator lock,
    /// which is what puts the resulting node-level events in one order;
    /// it is taken at the first action that needs it and held to the end
    /// of the batch. `first_replayable` is the shard machine's, read
    /// under its lock together with the actions: while the aggregator is
    /// held anyway it is told how much of the own stream's mapping this
    /// shard can still ask for.
    fn process_shard_actions(&self, shard: u16, first_replayable: SeqNo, actions: Vec<Action>) {
        let mut agg = None;
        let mut folded = Vec::new();
        for action in actions {
            if let Action::Send { to, msg } = action {
                self.link.send(to, shard, msg);
                continue;
            }
            let agg = agg.get_or_insert_with(|| self.agg.lock());
            if let (Action::Frontier(update), Some(t)) = (&action, &self.link.telemetry) {
                if update.stream == self.me {
                    agg.record_shard_stability(t, self.me, shard, update);
                }
            }
            agg.frontier.fold(shard, action, &mut folded);
        }
        if let Some(agg) = &mut agg {
            agg.retain_own_map(shard, first_replayable);
        }
        self.forward(folded);
    }

    /// Keep each shard machine's outgoing snapshot mark up to date (see
    /// [`ShardedFrontier::transfer_mark`]). Run before each transfer
    /// timer, with the shard held across the lookup so the entry its
    /// replay floor names cannot be reclaimed in between.
    fn refresh_transfer_marks(&self) {
        for s in 0..self.num_shards {
            let mut node = self.shards[s as usize].lock();
            let first = node.first_replayable();
            let mark = self.agg.lock().frontier.transfer_mark(self.me, s, first);
            if let Some(mark) = mark {
                node.set_app_mark(mark);
            }
        }
    }

    /// Hand folded node-level actions on, all of them in one send.
    /// Called with the aggregator lock held so the dispatcher sees them
    /// in a single global order; the upcalls' locks are leaves. Waiters
    /// are woken here, all of a batch's at once, not behind the
    /// dispatcher's queue; the dispatcher only shows the completion to
    /// the telemetry observer, when there is one. What is not an event
    /// (per-shard observability, `PredicateBroken`: like the unsharded
    /// runtime that surfaces through monitor silence) has no reader
    /// behind the channel and stops here.
    fn forward(&self, mut actions: Vec<ShardedAction>) {
        let mut done = Vec::new();
        let observed = self.link.telemetry.is_some();
        actions.retain(|action| match action {
            ShardedAction::WaitDone { token } => {
                done.push(*token);
                observed
            }
            _ => action.event().is_some(),
        });
        if !actions.is_empty() {
            let _ = self.event_tx.send(actions); // dispatcher gone => shutting down
        }
        self.upcalls.complete(done);
    }

    /// [`ShardedShared::forward`] for events the aggregator returned
    /// outside a fold (publish, key sync, `waitfor`), under its lock.
    fn apply_agg(&self, out: stabilizer_shard::AggOutput) {
        let mut actions = Vec::new();
        out.into_actions(&mut actions);
        self.forward(actions);
    }

    /// Frontier blame for every `(shard, stream, key)`; sequence numbers
    /// in the reports are per-shard.
    fn explain_all(&self) -> Vec<(u16, stabilizer_core::StallReport)> {
        let mut reports = Vec::new();
        for s in 0..self.num_shards {
            let shard = self.shards[s as usize].lock();
            for report in shard.explain_all() {
                reports.push((s, report));
            }
        }
        reports
    }
}

impl LinkClient for ShardedShared {
    type Lane = u16;

    fn link(&self) -> &Link<u16> {
        &self.link
    }

    fn on_frames(&self, peer: NodeId, frames: &mut Vec<(u16, WireMsg)>) {
        // One fold per lane present, each lane's frames in arrival order.
        frames.sort_by_key(|(lane, _)| *lane);
        let now = self.link.now_nanos();
        let mut frames = frames.drain(..).peekable();
        while let Some(&(lane, _)) = frames.peek() {
            let of_lane = std::iter::from_fn(|| frames.next_if(|(l, _)| *l == lane));
            let msgs = of_lane.map(|(_, msg)| (peer, msg));
            if lane < self.num_shards {
                self.with_shard(lane, |n| n.on_messages(now, msgs));
            } else {
                // An unknown shard index is tolerated (a peer configured
                // with more shards): the traffic is simply not processable.
                msgs.for_each(drop);
            }
        }
    }

    fn repair_link(&self, peer: NodeId) {
        for s in 0..self.num_shards {
            self.with_shard(s, |n| repair_stream(n, peer));
        }
    }

    fn on_timer(&self, kind: TimerKind, now_nanos: u64) {
        if kind == TimerKind::Transfer {
            self.refresh_transfer_marks();
        }
        for s in 0..self.num_shards {
            self.with_shard(s, |n| n.on_timer(kind, now_nanos));
        }
    }

    fn sample(&self, telemetry: &Telemetry) {
        let mut total = Metrics::default();
        let mut total_buf = 0usize;
        for s in 0..self.num_shards as usize {
            let (m, buf) = {
                let node = self.shards[s].lock();
                (node.metrics(), node.send_buffer_bytes())
            };
            if let Some(g) = self.shard_gauges.get(s) {
                g.send_buffer_bytes.set(buf as i64);
                g.data_msgs_sent.set(m.data_msgs_sent as i64);
                g.deliveries.set(m.deliveries as i64);
                g.frontier_updates.set(m.frontier_updates as i64);
                g.retransmits.set(m.retransmits as i64);
            }
            total += m;
            total_buf += buf;
        }
        if let Some(m) = &self.link.metrics {
            m.send_buffer_bytes.set(total_buf as i64);
            m.pending_waiters
                .set(self.agg.lock().frontier.pending_waiters() as i64);
        }
        telemetry.record_node_metrics(self.me, &total);
    }
}

/// A sharded node running on the TCP runtime. Dropping it does not stop
/// the node; call [`ShardedHandle::shutdown`].
pub struct ShardedTcpNode {
    handle: ShardedHandle,
}

impl ShardedTcpNode {
    /// The application handle.
    pub fn handle(&self) -> ShardedHandle {
        self.handle.clone()
    }
}

/// Extra knobs for [`spawn_sharded_node`].
pub struct ShardedSpawnOptions {
    /// Publish routing policy.
    pub policy: RoutePolicy,
    /// Telemetry hub: registers this node's transport counters, the
    /// per-shard gauges/histograms, and node-level latency histograms
    /// (every node-level event feeds a [`MetricsObserver`] on the
    /// dispatcher thread).
    pub telemetry: Option<Arc<Telemetry>>,
    /// Seed for reconnect backoff jitter.
    pub jitter_seed: u64,
    /// Serve the attached telemetry over HTTP on this address (port 0
    /// picks an ephemeral port, readable back via
    /// [`ShardedHandle::serve_addr`]). Routes: `/metrics` (Prometheus
    /// text, per-shard series aggregated in one registry),
    /// `/metrics.json`, `/trace[?n=N]`, and `/stall` (per-shard frontier
    /// blame). No-op without `telemetry`.
    pub serve_addr: Option<String>,
}

impl Default for ShardedSpawnOptions {
    fn default() -> Self {
        ShardedSpawnOptions {
            policy: RoutePolicy::RoundRobin,
            telemetry: None,
            jitter_seed: 0,
            serve_addr: None,
        }
    }
}

/// Launch sharded node `me` of `cfg` (`cfg.options().shards` shards),
/// listening on `listener` and connecting out to every peer.
///
/// # Errors
///
/// Fails if a configured predicate does not compile.
pub fn spawn_sharded_node(
    cfg: ClusterConfig,
    me: NodeId,
    acks: Arc<AckTypeRegistry>,
    listener: TcpListener,
    peer_addrs: Vec<(NodeId, SocketAddr)>,
    opts: ShardedSpawnOptions,
) -> Result<ShardedTcpNode, CoreError> {
    let (shards, frontier) = build_shards(&cfg, me, Arc::clone(&acks))?;
    let shards: Vec<_> = shards.into_iter().map(Mutex::new).collect();
    let num_shards = shards.len() as u16;

    let shard_gauges = match &opts.telemetry {
        Some(t) => (0..num_shards)
            .map(|s| ShardGauges::new(t, me, s))
            .collect(),
        None => Vec::new(),
    };
    let observer = opts.telemetry.as_ref().map(|t| t.observer(me));
    // Every shard installs the same predicates at the same vantage, so
    // shard 0's tolerances speak for all of them.
    let link = Link::new(
        &cfg,
        me,
        opts.telemetry,
        shards[0].lock().predicate_tolerances(),
    );

    let (event_tx, event_rx) = unbounded();

    let shared = Arc::new(ShardedShared {
        me,
        num_shards,
        shards,
        agg: Mutex::new(AggState {
            frontier,
            stability: HashMap::new(),
        }),
        publish: Mutex::new(PublishState {
            router: ShardRouter::new(num_shards, opts.policy),
            next_global: 0,
        }),
        upcalls: Upcalls::default(),
        link,
        event_tx,
        shard_gauges,
        cfg,
    });
    // `/stall` diagnoses every shard machine's frontiers live. A weak
    // ref keeps the provider from pinning the runtime after shutdown
    // takes the server down.
    let weak = Arc::downgrade(&shared);
    let stall: StallProvider = Arc::new(move || match weak.upgrade() {
        Some(shared) => stabilizer_core::render_sharded_stall_reports_json(&shared.explain_all()),
        None => "{\"reports\":[]}".to_string(),
    });
    shared.link.serve(opts.serve_addr.as_deref(), stall)?;

    // Dispatcher thread: application callbacks, outside every lock.
    {
        let shared2 = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("stabs-{}-dispatch", me.0))
            .spawn(move || dispatcher_loop(shared2, event_rx, observer))
            .expect("spawn dispatcher");
    }

    link::spawn(
        &shared,
        listener,
        peer_addrs,
        shared.cfg.options(),
        LinkSpawn {
            thread_prefix: "stabs",
            repair_first_connect: false,
            jitter_seed: opts.jitter_seed,
            metrics_dump: None,
        },
    );

    // Flush actions queued during shard construction (configured
    // predicates can emit initial frontier updates) now that the writer
    // channels and the dispatcher are in place.
    for s in 0..num_shards {
        shared.with_shard(s, |_| ());
    }

    Ok(ShardedTcpNode {
        handle: ShardedHandle { shared },
    })
}

/// Launch an in-process sharded cluster on localhost, one runtime per
/// topology node, all with the same routing policy.
///
/// # Errors
///
/// Propagates listener-bind and predicate-compile failures.
pub fn spawn_sharded_local_cluster(
    cfg: &ClusterConfig,
    policy: RoutePolicy,
) -> Result<Vec<ShardedTcpNode>, CoreError> {
    spawn_sharded_local_cluster_with(cfg, policy, None)
}

/// [`spawn_sharded_local_cluster`] with a shared telemetry hub.
///
/// # Errors
///
/// Propagates listener-bind and predicate-compile failures.
pub fn spawn_sharded_local_cluster_with(
    cfg: &ClusterConfig,
    policy: RoutePolicy,
    telemetry: Option<Arc<Telemetry>>,
) -> Result<Vec<ShardedTcpNode>, CoreError> {
    let acks = Arc::new(AckTypeRegistry::new());
    link::spawn_local_cluster(cfg.num_nodes(), |me, listener, peer_addrs| {
        let opts = ShardedSpawnOptions {
            policy,
            telemetry: telemetry.clone(),
            jitter_seed: u64::from(me.0),
            serve_addr: None,
        };
        spawn_sharded_node(
            cfg.clone(),
            me,
            Arc::clone(&acks),
            listener,
            peer_addrs,
            opts,
        )
    })
}

/// Handle to a sharded node: the [`NodeHandle`](crate::NodeHandle) API
/// surface over S shards, with global sequence numbers throughout.
///
/// Cloning is cheap; all clones talk to the same node.
#[derive(Clone)]
pub struct ShardedHandle {
    shared: Arc<ShardedShared>,
}

impl ShardedHandle {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.shared.me
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u16 {
        self.shared.num_shards
    }

    /// Publish on this node's stream (round-robin routed); returns the
    /// **global** sequence number. Retries transparently on send-buffer
    /// backpressure until `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`CoreError::WouldBlock`] if the routed shard's buffer stayed
    /// full for the whole timeout, or [`CoreError::PayloadTooLarge`].
    pub fn publish(&self, payload: Bytes, timeout: Duration) -> Result<SeqNo, CoreError> {
        self.publish_routed(payload, None, timeout)
    }

    /// [`ShardedHandle::publish`] with a routing key: under
    /// [`RoutePolicy::KeyHash`] all publishes sharing `key` land on one
    /// shard.
    ///
    /// # Errors
    ///
    /// As [`ShardedHandle::publish`].
    pub fn publish_with_key(
        &self,
        payload: Bytes,
        key: &[u8],
        timeout: Duration,
    ) -> Result<SeqNo, CoreError> {
        self.publish_routed(payload, Some(key), timeout)
    }

    fn publish_routed(
        &self,
        payload: Bytes,
        key: Option<&[u8]>,
        timeout: Duration,
    ) -> Result<SeqNo, CoreError> {
        let max = self.shared.cfg.options().max_payload_bytes;
        if payload.len() > max {
            return Err(CoreError::PayloadTooLarge {
                size: payload.len(),
                max,
            });
        }
        let deadline = Instant::now() + timeout;
        loop {
            match self.try_publish(&payload, key) {
                Err(CoreError::WouldBlock { .. }) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => return other,
            }
        }
    }

    fn try_publish(&self, payload: &Bytes, key: Option<&[u8]>) -> Result<SeqNo, CoreError> {
        let sh = &self.shared;
        let mut pubst = sh.publish.lock();
        let shard = pubst.router.route(key);
        let global = pubst.next_global + 1;
        let framed = encode_global(global, payload);
        let (result, first_replayable, actions) = {
            let mut node = sh.shards[shard as usize].lock();
            let r = node.publish(framed);
            (r, node.first_replayable(), node.take_actions())
        };
        match result {
            Ok(_shard_seq) => {
                pubst.next_global = global;
                {
                    let mut agg = sh.agg.lock();
                    if let Some(t) = &sh.link.telemetry {
                        t.note_publish_now(sh.me, global, payload.len());
                    }
                    let out = agg.frontier.learn_mapping(sh.me, shard, global);
                    sh.apply_agg(out);
                }
                // Still under the publish lock: enqueuing the Send here
                // keeps same-shard Data frames in sequence order on the
                // writer channel even with concurrent publishers.
                sh.process_shard_actions(shard, first_replayable, actions);
                Ok(global)
            }
            Err(e) => {
                // Only keyless (round-robin) routes advanced the cursor.
                if key.is_none() || pubst.router.policy() == RoutePolicy::RoundRobin {
                    pubst.router.rollback_last();
                }
                drop(pubst);
                sh.process_shard_actions(shard, first_replayable, actions);
                Err(e)
            }
        }
    }

    /// Highest global sequence number published locally.
    pub fn last_published(&self) -> SeqNo {
        self.shared.publish.lock().next_global
    }

    /// Register a predicate for `stream` under `key` on every shard and
    /// make the aggregated key queryable.
    ///
    /// # Errors
    ///
    /// DSL compile errors (deterministic, so no shard registers when the
    /// first fails).
    pub fn register_predicate(
        &self,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        for s in 0..self.shared.num_shards {
            self.shared
                .with_shard(s, |n| n.register_predicate(stream, key, source))?;
        }
        self.shared.agg.lock().frontier.ensure_key(stream, key);
        self.sync_key(stream, key);
        Ok(())
    }

    /// Replace the predicate under `key` on every shard, bumping the
    /// generation everywhere in lockstep.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownPredicate`] or a DSL compile error.
    pub fn change_predicate(
        &self,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        for s in 0..self.shared.num_shards {
            self.shared
                .with_shard(s, |n| n.change_predicate(stream, key, source))?;
        }
        self.sync_key(stream, key);
        Ok(())
    }

    /// Push each shard's current `(frontier, generation)` for
    /// `(stream, key)` into the aggregator after register/change (see
    /// [`ShardedFrontier::adopt`]).
    fn sync_key(&self, stream: NodeId, key: &str) {
        for s in 0..self.shared.num_shards {
            let at = self.shared.shards[s as usize]
                .lock()
                .stability_frontier(stream, key);
            if let Some(at) = at {
                let mut agg = self.shared.agg.lock();
                let out = agg.frontier.adopt(s, stream, key, at);
                self.shared.apply_agg(out);
            }
        }
    }

    /// Current aggregated `(frontier, generation)` of a predicate, in
    /// global sequence numbers.
    pub fn stability_frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        self.shared.agg.lock().frontier.frontier(stream, key)
    }

    /// Block until the aggregated frontier of `(stream, key)` reaches
    /// the global sequence `seq`, or `timeout` elapses; `true` on
    /// success.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownPredicate`] for an unregistered key.
    pub fn waitfor(
        &self,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
        timeout: Duration,
    ) -> Result<bool, CoreError> {
        let token = {
            let mut agg = self.shared.agg.lock();
            let (token, out) = agg.frontier.waitfor(stream, key, seq)?;
            self.shared.apply_agg(out);
            token
        };
        Ok(self.shared.upcalls.wait(token, timeout))
    }

    /// Register `lambda` to run on every **aggregated** frontier advance
    /// of `(stream, key)`.
    pub fn monitor_stability_frontier(
        &self,
        stream: NodeId,
        key: &str,
        lambda: impl FnMut(&FrontierUpdate) + Send + 'static,
    ) {
        self.shared
            .upcalls
            .add_monitor(stream, key, Box::new(lambda));
    }

    /// Register a delivery upcall; payloads arrive in **global** FIFO
    /// order per origin, header already stripped.
    pub fn on_deliver(&self, f: impl FnMut(NodeId, SeqNo, &Bytes) + Send + 'static) {
        self.shared.upcalls.add_deliver(Box::new(f));
    }

    /// Register an application-defined stability level on every shard
    /// (the shared registry deduplicates by name).
    pub fn register_ack_type(&self, name: &str) -> AckTypeId {
        let mut ty = AckTypeId(0);
        for s in 0..self.shared.num_shards {
            ty = self.shared.with_shard(s, |n| n.register_ack_type(name));
        }
        ty
    }

    /// Report stability level `ty` for `stream` up to the **global**
    /// sequence `seq`, translated into per-shard sequence numbers
    /// through the mapping learned so far.
    pub fn report_stability(&self, stream: NodeId, ty: AckTypeId, seq: SeqNo) {
        let progress: Vec<SeqNo> = {
            let mut agg = self.shared.agg.lock();
            agg.frontier.note_report(stream, ty, seq);
            (0..self.shared.num_shards)
                .map(|s| agg.frontier.shard_progress(stream, s, seq))
                .collect()
        };
        for (s, p) in progress.into_iter().enumerate() {
            if p > 0 {
                self.shared
                    .with_shard(s as u16, |n| n.report_stability(stream, ty, p));
            }
        }
    }

    /// Highest global sequence of `origin` delivered to the application.
    pub fn delivered_global(&self, origin: NodeId) -> SeqNo {
        self.shared.agg.lock().frontier.delivered_global(origin)
    }

    /// Node-level waits still blocked.
    pub fn pending_waiters(&self) -> usize {
        self.shared.agg.lock().frontier.pending_waiters()
    }

    /// Whether any shard's failure detector currently suspects `node`.
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.shared.agg.lock().frontier.is_suspected(node)
    }

    /// Start §III-E catch-up on every shard sub-stream: each shard
    /// machine asks its per-shard donors for a snapshot plus
    /// retained-log replay. Use after joining a fresh node into a
    /// running cluster. No-op unless `transfer_millis` is configured.
    pub fn begin_catch_up(&self) {
        let now = self.shared.link.now_nanos();
        for s in 0..self.shared.num_shards {
            self.shared.with_shard(s, |n| n.begin_catch_up(now));
        }
    }

    /// Live transfer sessions summed across shards.
    pub fn active_transfers(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| s.lock().active_transfers())
            .sum()
    }

    /// Traffic counters summed across shards (`data_bytes_sent` includes
    /// the 8-byte global header each sharded payload carries).
    pub fn metrics(&self) -> Metrics {
        self.shared.shards.iter().map(|s| s.lock().metrics()).sum()
    }

    /// One shard's own traffic counters.
    pub fn shard_metrics(&self, shard: u16) -> Metrics {
        self.shared.shards[shard as usize].lock().metrics()
    }

    /// Frontier blame for every `(shard, stream, key)`: each shard
    /// machine diagnoses its own sub-stream (sequence numbers in the
    /// reports are per-shard). Render with
    /// [`stabilizer_core::render_sharded_stall_reports_json`].
    pub fn explain_all(&self) -> Vec<(u16, stabilizer_core::StallReport)> {
        self.shared.explain_all()
    }

    /// Bound address of the live telemetry endpoint, when spawned with
    /// [`ShardedSpawnOptions::serve_addr`] (resolves port 0 to the
    /// actual port).
    pub fn serve_addr(&self) -> Option<SocketAddr> {
        self.shared.link.serve_addr()
    }

    /// Peers a writer thread permanently gave up connecting to (empty
    /// unless `connect_retry_limit` is configured).
    pub fn connect_failures(&self) -> Vec<NodeId> {
        self.shared.link.connect_failures()
    }

    /// Scale this node's timer cadence (clock-skew fault injection), as
    /// [`NodeHandle::set_timer_scale`](crate::NodeHandle::set_timer_scale).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn set_timer_scale(&self, scale: f64) {
        self.shared.link.set_timer_scale(scale);
    }

    /// Ask the runtime to stop its threads. Idempotent.
    pub fn shutdown(&self) {
        self.shared.link.shutdown();
    }
}

impl std::fmt::Debug for ShardedHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHandle")
            .field("me", &self.shared.me)
            .field("shards", &self.shared.num_shards)
            .finish()
    }
}

fn dispatcher_loop(
    shared: Arc<ShardedShared>,
    rx: Receiver<Vec<ShardedAction>>,
    mut observer: Option<MetricsObserver>,
) {
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(actions) => {
                for event in actions.iter().filter_map(ShardedAction::event) {
                    if let Some(obs) = observer.as_mut() {
                        obs.on_event(SimTime(shared.link.now_nanos()), &event);
                    }
                    // `forward` already woke the waiter.
                    if !matches!(event, Event::WaitDone { .. }) {
                        shared.upcalls.fire(&event);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) if shared.link.is_running() => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ORIGIN: NodeId = NodeId(0);
    const ME: NodeId = NodeId(1);

    /// Node 1 of a two-node cluster with no link to anybody: the tests
    /// are its readers.
    fn lone_mirror(shards: u16) -> ShardedHandle {
        let cfg = format!("az A a b\noption shards {shards}\npredicate All MIN($ALLWNODES)\n");
        let cfg = ClusterConfig::parse(&cfg).expect("config");
        let acks = Arc::new(AckTypeRegistry::new());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let opts = ShardedSpawnOptions::default();
        let node = spawn_sharded_node(cfg, ME, acks, listener, Vec::new(), opts).expect("spawn");
        node.handle()
    }

    /// The origin's message `seq` of some shard, published as `global`.
    fn data(seq: SeqNo, global: SeqNo) -> WireMsg {
        let payload = encode_global(global, &Bytes::from_static(b"x"));
        let origin = ORIGIN;
        WireMsg::Data {
            origin,
            seq,
            payload,
        }
    }

    #[test]
    fn a_frame_for_an_unknown_lane_is_dropped_and_the_rest_folded() {
        let h = lone_mirror(2);
        // Lanes interleaved as a writer multiplexing them would; lane 7
        // is a peer configured with more shards than this node.
        let mut frames = vec![
            (0, data(1, 1)),
            (7, data(1, 9)),
            (1, data(1, 2)),
            (0, data(2, 3)),
            (1, data(2, 4)),
        ];
        h.shared.on_frames(ORIGIN, &mut frames);
        assert_eq!(h.delivered_global(ORIGIN), 4);
        assert_eq!(h.shard_metrics(0).deliveries, 2);
        assert_eq!(h.shard_metrics(1).deliveries, 2);
        h.shutdown();
    }

    /// A reconnect overlaps two readers of one peer: the old
    /// connection's is still folding frame `q` of a shard when the new
    /// one's arrives with `q + 1`. Each round parks the old reader at
    /// the aggregator and races the new one past it.
    #[test]
    fn overlapping_readers_hand_the_aggregator_one_shards_deliveries_in_order() {
        const FRAMES: SeqNo = 300;
        let h = lone_mirror(1);
        // A key of the origin's stream that never moves (nobody reports
        // the level): it pins the mapping, so every entry stays to be
        // checked below.
        h.register_ack_type("audited");
        h.register_predicate(ORIGIN, "Pinned", "MIN($ALLWNODES.audited)")
            .expect("compiles");
        let sh = &*h.shared;
        let through_shard = |seq| {
            let shard = sh.shards[0].try_lock();
            shard.is_some_and(|n| n.metrics().deliveries >= seq)
        };
        std::thread::scope(|scope| {
            for seq in (1..=FRAMES).step_by(2) {
                let parked = sh.agg.lock();
                let old = scope.spawn(move || sh.on_frames(ORIGIN, &mut vec![(0, data(seq, seq))]));
                // A reader that let go of the shard before folding shows
                // up here and is overtaken below; one that holds it never
                // does, and the new reader queues behind it either way.
                let deadline = Instant::now() + Duration::from_millis(2);
                while !through_shard(seq) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                drop(parked);
                sh.on_frames(ORIGIN, &mut vec![(0, data(seq + 1, seq + 1))]);
                old.join().expect("old reader");
            }
        });
        let agg = sh.agg.lock();
        let learned = (1..=FRAMES + 1).map(|q| agg.frontier.global_of(ORIGIN, 0, q));
        assert!(learned.eq((1..=FRAMES).map(Some).chain([None])));
        assert_eq!(agg.frontier.delivered_global(ORIGIN), FRAMES);
        drop(agg);
        h.shutdown();
    }
}
