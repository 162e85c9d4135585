//! The sharded TCP runtime: one sans-IO [`ShardedEngine`] behind one
//! mutex, driven by the shared link layer ([`crate::link`]) exactly as
//! the plain runtime ([`crate::runtime`]) drives its `StabilizerNode`.
//!
//! The engine is the machine the simulator runs — S shard machines, the
//! publish router and the [`ShardedFrontier`](stabilizer_shard::ShardedFrontier)
//! aggregator that min-combines per-shard frontiers and reassembles
//! per-shard FIFO deliveries into global FIFO order — so the
//! application-visible semantics (`publish`, `waitfor`,
//! `monitor_stability_frontier`, FIFO delivery) are those of the
//! unsharded [`NodeHandle`](crate::NodeHandle), in global sequence
//! numbers.
//!
//! What a sharded node adds to a plain one:
//!
//! * **the lane in the frame header** — a frame's lane is its shard
//!   index; a reader batch is sorted by lane and fed to the engine one
//!   lane at a time under one acquisition of the engine lock, so a batch
//!   stays one fold and one ACK flush per shard it touches, and every
//!   peer's writer multiplexes all shards onto one connection;
//! * **the engine** in place of the node;
//! * **per-shard telemetry** — the `stab_shard_*` gauges the ticker
//!   samples and the own stream's `stab_shard_stability_latency_ns`
//!   histograms, fed by the attached hub's observer.
//!
//! As there, emitted actions are executed *after* the state lock is
//! released, so user callbacks can re-enter the handle, and the hub's
//! observer runs *before* release (the contract is written once, in
//! [`stabilizer_core::observe`]).

use crate::link::{self, Link, LinkClient, LinkSpawn};
use crate::upcalls::Upcalls;
use bytes::Bytes;
use parking_lot::Mutex;
use stabilizer_core::{
    AckTypeId, AckTypeRegistry, AppHooks, ClusterConfig, CoreError, Event, FrontierUpdate, Metrics,
    NodeId, SeqNo, SimTime, StabilizerNode, TimerKind, WireMsg,
};
use stabilizer_shard::{RoutePolicy, ShardedAction, ShardedEngine};
use stabilizer_telemetry::{Gauge, LogHistogram, MetricsObserver, StallProvider, Telemetry};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard's share of a key's own-stream stability latency.
#[derive(Clone, Default)]
struct ShardStability {
    /// Highest shard frontier already folded into `hist`.
    covered: SeqNo,
    /// Registered once there is something to fold.
    hist: Option<Arc<LogHistogram>>,
}

/// What the attached hub is shown, under the engine lock.
struct HubObserver {
    /// Fed every node-level event.
    metrics: MetricsObserver,
    /// Sampled by the ticker, one per shard.
    gauges: Vec<ShardGauges>,
    /// Own-stream stability latency by key, then by shard (keyed by key
    /// alone so an update's borrowed key finds it).
    stability: HashMap<String, Vec<ShardStability>>,
}

impl HubObserver {
    /// Fold a per-shard frontier advance of the own stream into the
    /// per-shard stability-latency histogram, translating shard-local
    /// sequence numbers back to globals through the engine's mapping
    /// and reading each global's publish time off the hub.
    fn record_shard_stability(
        &mut self,
        engine: &ShardedEngine,
        shard: u16,
        update: &FrontierUpdate,
    ) {
        if update.stream != engine.me() {
            return;
        }
        let per_shard = if let Some(per_shard) = self.stability.get_mut(&update.key) {
            per_shard
        } else {
            let unseen = vec![ShardStability::default(); engine.num_shards() as usize];
            self.stability.entry(update.key.clone()).or_insert(unseen)
        };
        let ShardStability { covered, hist } = &mut per_shard[shard as usize];
        if update.seq <= *covered {
            return;
        }
        let from = std::mem::replace(covered, update.seq);
        let hub = self.metrics.hub();
        let hist = hist.get_or_insert_with(|| {
            let sh = shard.to_string();
            hub.registry().histogram(
                "stab_shard_stability_latency_ns",
                &[("key", &update.key), ("shard", &sh)],
            )
        });
        let (me, now, agg) = (engine.me(), hub.now_nanos(), engine.aggregator());
        let globals = (from + 1..=update.seq).map_while(|q| agg.global_of(me, shard, q));
        for published in globals.filter_map(|g| hub.published_at(me, g)) {
            hist.record(now.saturating_sub(published));
        }
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

    fn set(&self, shard: &StabilizerNode) {
        let m = shard.metrics();
        self.send_buffer_bytes.set(shard.send_buffer_bytes() as i64);
        self.data_msgs_sent.set(m.data_msgs_sent as i64);
        self.deliveries.set(m.deliveries as i64);
        self.frontier_updates.set(m.frontier_updates as i64);
        self.retransmits.set(m.retransmits as i64);
    }
}

/// State shared between the handle and the link threads.
pub struct ShardedShared {
    me: NodeId,
    /// The protocol state machine.
    engine: Mutex<ShardedEngine>,
    /// The attached hub's observer, invoked under the engine lock.
    observer: Option<Mutex<HubObserver>>,
    /// `waitfor` rendezvous, frontier monitors and delivery upcalls.
    upcalls: Upcalls,
    /// Sockets, link threads, clock and transport telemetry.
    link: Link<u16>,
}

impl ShardedShared {
    /// Mutate the engine under the lock, then execute the emitted
    /// actions *outside* it (the observer excepted, see module docs).
    fn with_engine<R>(&self, f: impl FnOnce(&mut ShardedEngine) -> R) -> R {
        let (r, actions) = {
            let mut engine = self.engine.lock();
            let r = f(&mut engine);
            let actions = engine.take_actions();
            self.observe(&engine, &actions);
            (r, actions)
        };
        self.process(actions);
        r
    }

    /// Show the hub what `actions` mean at node level
    /// ([`ShardedAction::event`]) and fold the own stream's per-shard
    /// frontier advances into the per-shard stability histograms. Called
    /// with the engine lock held, so the hub is never behind the machine
    /// and the mapping still holds the entries an advance just covered
    /// (the key's own shard frontier kept them until this very call).
    fn observe(&self, engine: &ShardedEngine, actions: &[ShardedAction]) {
        let Some(observer) = &self.observer else {
            return;
        };
        let mut observer = observer.lock();
        let now = SimTime(self.link.now_nanos());
        for action in actions {
            if let Some(event) = action.event() {
                observer.metrics.on_event(now, &event);
            } else if let ShardedAction::ShardFrontier { shard, update } = action {
                observer.record_shard_stability(engine, *shard, update);
            }
        }
    }

    /// Show the hub an event the driver, not the machine, produced.
    fn notify(&self, event: Event<'_>) {
        if let Some(observer) = &self.observer {
            let now = SimTime(self.link.now_nanos());
            observer.lock().metrics.on_event(now, &event);
        }
    }

    /// Execute actions: forward sends to the per-peer writers on their
    /// shard's lane, run callbacks for what every other action shows
    /// ([`ShardedAction::event`]), then wake the waiters of every
    /// completed wait at once.
    fn process(&self, actions: Vec<ShardedAction>) {
        let mut done = Vec::new();
        for action in actions {
            match action {
                ShardedAction::Send { shard, to, msg } => self.link.send(to, shard, msg),
                ShardedAction::WaitDone { token } => done.push(token),
                other => {
                    if let Some(event) = other.event() {
                        self.upcalls.fire(&event);
                    }
                }
            }
        }
        self.upcalls.complete(done);
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
        self.with_engine(|engine| {
            while let Some(&(lane, _)) = frames.peek() {
                let of_lane = std::iter::from_fn(|| frames.next_if(|(l, _)| *l == lane));
                let msgs = of_lane.map(|(_, msg)| (peer, msg));
                if lane < engine.num_shards() {
                    engine.on_messages(now, lane, msgs);
                } else {
                    // An unknown shard index is tolerated (a peer configured
                    // with more shards): the traffic is simply not processable.
                    msgs.for_each(drop);
                }
            }
        });
    }

    fn repair_link(&self, peer: NodeId) {
        self.with_engine(|engine| engine.repair_link(peer));
    }

    fn on_timer(&self, kind: TimerKind, now_nanos: u64) {
        self.with_engine(|engine| engine.on_timer(kind, now_nanos));
    }

    fn sample(&self, telemetry: &Telemetry) {
        let (buf, waiters, core) = {
            let engine = self.engine.lock();
            if let Some(observer) = &self.observer {
                for (shard, gauges) in observer.lock().gauges.iter().enumerate() {
                    gauges.set(engine.shard(shard as u16));
                }
            }
            (
                engine.send_buffer_bytes(),
                engine.pending_waiters(),
                engine.metrics(),
            )
        };
        if let Some(m) = &self.link.metrics {
            m.send_buffer_bytes.set(buf as i64);
            m.pending_waiters.set(waiters as i64);
        }
        telemetry.record_node_metrics(self.me, &core);
    }

    fn on_connect_failed(&self, peer: NodeId) {
        self.notify(Event::ConnectFailed { peer });
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
#[derive(Default)]
pub struct ShardedSpawnOptions {
    /// Publish routing policy (round-robin by default).
    pub policy: RoutePolicy,
    /// Telemetry hub: registers this node's transport counters, the
    /// per-shard gauges/histograms, and node-level latency histograms
    /// (every node-level event feeds a [`MetricsObserver`] under the
    /// engine lock).
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
    let engine = ShardedEngine::new(cfg.clone(), me, acks, opts.policy)?;
    let observer = opts.telemetry.as_ref().map(|t| {
        Mutex::new(HubObserver {
            metrics: t.observer(me),
            gauges: (0..engine.num_shards())
                .map(|s| ShardGauges::new(t, me, s))
                .collect(),
            stability: HashMap::new(),
        })
    });
    // Every shard installs the same predicates at the same vantage, so
    // shard 0's tolerances speak for all of them.
    let tolerances = engine.shard(0).predicate_tolerances();
    let link = Link::new(&cfg, me, opts.telemetry, tolerances);
    let shared = Arc::new(ShardedShared {
        me,
        engine: Mutex::new(engine),
        observer,
        upcalls: Upcalls::default(),
        link,
    });
    // `/stall` locks the engine and diagnoses every shard machine's
    // frontiers live. A weak ref keeps the provider from pinning the
    // runtime after shutdown takes the server down.
    let weak = Arc::downgrade(&shared);
    let stall: StallProvider = Arc::new(move || match weak.upgrade() {
        Some(shared) => {
            let engine = shared.engine.lock();
            stabilizer_core::render_sharded_stall_reports_json(&engine.explain_all())
        }
        None => "{\"reports\":[]}".to_string(),
    });
    shared.link.serve(opts.serve_addr.as_deref(), stall)?;
    link::spawn(
        &shared,
        listener,
        peer_addrs,
        cfg.options(),
        LinkSpawn {
            thread_prefix: "stabs",
            repair_first_connect: false,
            jitter_seed: opts.jitter_seed,
            metrics_dump: None,
        },
    );

    // Flush actions queued during construction (configured predicates
    // can emit initial frontier updates) now that the writer channels
    // and the observer are in place.
    shared.with_engine(|_| ());

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
        self.shared.engine.lock().num_shards()
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
        let sh = &self.shared;
        let deadline = Instant::now() + timeout;
        loop {
            let result = sh.with_engine(|engine| {
                let global = match key {
                    Some(key) => engine.publish_with_key(payload.clone(), key),
                    None => engine.publish(payload.clone()),
                }?;
                // Stamped before the observer sees the frontier events
                // this very publish emitted.
                if let Some(t) = &sh.link.telemetry {
                    t.note_publish_now(sh.me, global, payload.len());
                }
                Ok(global)
            });
            match result {
                Err(CoreError::WouldBlock { .. }) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => return other,
            }
        }
    }

    /// Highest global sequence number published locally.
    pub fn last_published(&self) -> SeqNo {
        self.shared.engine.lock().last_published()
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
        self.shared
            .with_engine(|engine| engine.register_predicate(stream, key, source))
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
        self.shared
            .with_engine(|engine| engine.change_predicate(stream, key, source))
    }

    /// Current aggregated `(frontier, generation)` of a predicate, in
    /// global sequence numbers.
    pub fn stability_frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        self.shared.engine.lock().stability_frontier(stream, key)
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
        let token = self
            .shared
            .with_engine(|engine| engine.waitfor(stream, key, seq))?;
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
        self.shared
            .with_engine(|engine| engine.register_ack_type(name))
    }

    /// Report stability level `ty` for `stream` up to the **global**
    /// sequence `seq`, translated into per-shard sequence numbers
    /// through the mapping learned so far.
    pub fn report_stability(&self, stream: NodeId, ty: AckTypeId, seq: SeqNo) {
        self.shared
            .with_engine(|engine| engine.report_stability(stream, ty, seq));
    }

    /// Highest global sequence of `origin` delivered to the application.
    pub fn delivered_global(&self, origin: NodeId) -> SeqNo {
        let engine = self.shared.engine.lock();
        engine.aggregator().delivered_global(origin)
    }

    /// Node-level waits still blocked.
    pub fn pending_waiters(&self) -> usize {
        self.shared.engine.lock().pending_waiters()
    }

    /// Whether any shard's failure detector currently suspects `node`.
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.shared.engine.lock().is_suspected(node)
    }

    /// Start §III-E catch-up on every shard sub-stream: each shard
    /// machine asks its per-shard donors for a snapshot plus
    /// retained-log replay. Use after joining a fresh node into a
    /// running cluster. No-op unless `transfer_millis` is configured.
    pub fn begin_catch_up(&self) {
        let now = self.shared.link.now_nanos();
        let streams = self.shared.with_engine(|engine| engine.begin_catch_up(now));
        if streams > 0 {
            self.shared.notify(Event::Join { streams });
        }
    }

    /// Live transfer sessions summed across shards.
    pub fn active_transfers(&self) -> usize {
        self.shared.engine.lock().active_transfers()
    }

    /// Traffic counters summed across shards (`data_bytes_sent` includes
    /// the 8-byte global header each sharded payload carries).
    pub fn metrics(&self) -> Metrics {
        self.shared.engine.lock().metrics()
    }

    /// One shard's own traffic counters.
    pub fn shard_metrics(&self, shard: u16) -> Metrics {
        self.shared.engine.lock().shard_metrics(shard)
    }

    /// Frontier blame for every `(shard, stream, key)`: each shard
    /// machine diagnoses its own sub-stream (sequence numbers in the
    /// reports are per-shard). Render with
    /// [`stabilizer_core::render_sharded_stall_reports_json`].
    pub fn explain_all(&self) -> Vec<(u16, stabilizer_core::StallReport)> {
        self.shared.engine.lock().explain_all()
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
            .field("shards", &self.num_shards())
            .finish()
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

    /// The origin's message `seq` of some shard, published as `global`
    /// (the 8-byte little-endian header sharded payloads carry).
    fn data(seq: SeqNo, global: SeqNo) -> WireMsg {
        let payload = Bytes::from([&global.to_le_bytes()[..], b"x"].concat());
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
}
