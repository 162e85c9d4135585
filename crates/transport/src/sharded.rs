//! What a sharded node adds to the one TCP runtime ([`crate::runtime`]).
//!
//! Its machine is a [`ShardedEngine`] — the machine the simulator runs:
//! S shard machines, the publish router and the
//! [`ShardedFrontier`](stabilizer_shard::ShardedFrontier) aggregator that
//! min-combines per-shard frontiers and reassembles per-shard FIFO
//! deliveries into global FIFO order — so the application-visible
//! semantics (`publish`, `waitfor`, `monitor_stability_frontier`, FIFO
//! delivery) are those of a plain [`NodeHandle`], in global sequence
//! numbers. Beside that:
//!
//! * **the lane in the frame header** — a frame's lane is its shard
//!   index; a reader batch is sorted by lane and fed to the engine one
//!   lane at a time under one acquisition of the state lock, so a batch
//!   stays one fold and one ACK flush per shard it touches, and every
//!   peer's writer multiplexes all shards onto one connection;
//! * **what it feeds an attached hub itself**, under the state lock: the
//!   node-level [`MetricsObserver`], the `stab_shard_*` gauges the ticker
//!   samples, the own stream's `stab_shard_stability_latency_ns`
//!   histograms and the publish stamps they read;
//! * **its own calls** — [`NodeHandle::publish_with_key`],
//!   [`NodeHandle::num_shards`], [`NodeHandle::delivered_global`],
//!   [`NodeHandle::shard_metrics`] and the per-shard `explain_all`.

use crate::handle::NodeHandle;
use crate::link;
use crate::runtime::{self, SpawnOptions, TcpMachine, TcpNode};
use bytes::Bytes;
use stabilizer_core::{
    AckTypeId, AckTypeRegistry, AppHooks, ClusterConfig, CoreError, Event, FrontierUpdate, Metrics,
    NodeId, SeqNo, SimTime, StabilizerNode, StallReport, WireMsg,
};
use stabilizer_shard::{RoutePolicy, ShardedAction, ShardedEngine};
use stabilizer_telemetry::{Gauge, LogHistogram, MetricsObserver, Telemetry};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Handle to a sharded node: the [`NodeHandle`] API over S shards, with
/// global sequence numbers throughout.
pub type ShardedHandle = NodeHandle<ShardedEngine>;

/// A sharded node running on the TCP runtime.
pub type ShardedTcpNode = TcpNode<ShardedEngine>;

/// One shard's share of a key's own-stream stability latency.
#[derive(Clone, Default)]
struct ShardStability {
    /// Highest shard frontier already folded into `hist`.
    covered: SeqNo,
    /// Registered once there is something to fold.
    hist: Option<Arc<LogHistogram>>,
}

/// A sharded node's observer slot: the spawn options' observer and what
/// the node feeds an attached hub itself.
pub struct ShardedObserver {
    hooks: Option<Box<dyn AppHooks + Send>>,
    hub: Option<HubSeries>,
}

/// What a sharded node feeds its hub, under the state lock.
struct HubSeries {
    /// Fed every node-level event.
    metrics: MetricsObserver,
    /// Sampled by the ticker, one per shard.
    gauges: Vec<ShardGauges>,
    /// Own-stream stability latency by key, then by shard (keyed by key
    /// alone so an update's borrowed key finds it).
    stability: HashMap<String, Vec<ShardStability>>,
}

impl AppHooks for ShardedObserver {
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        if let Some(hub) = &mut self.hub {
            hub.metrics.on_event(now, event);
        }
        self.hooks.on_event(now, event);
    }
}

impl HubSeries {
    /// Fold a per-shard frontier advance of the own stream into the
    /// per-shard stability-latency histogram, translating shard-local
    /// sequence numbers back to globals through the engine's mapping
    /// and reading each global's publish time off the hub. The mapping
    /// still holds the entries an advance just covered: the key's own
    /// shard frontier kept them until this very call.
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

impl TcpMachine for ShardedEngine {
    type Lane = u16;
    type Observer = ShardedObserver;
    const THREAD_PREFIX: &'static str = "stabs";

    /// The spawn options' observer and, with a hub, the node-level
    /// [`MetricsObserver`] plus the per-shard series.
    fn observer(
        &self,
        hooks: Option<Box<dyn AppHooks + Send>>,
        telemetry: Option<&Arc<Telemetry>>,
    ) -> Option<ShardedObserver> {
        let hub = telemetry.map(|t| HubSeries {
            metrics: t.observer(self.me()),
            gauges: (0..self.num_shards())
                .map(|s| ShardGauges::new(t, self.me(), s))
                .collect(),
            stability: HashMap::new(),
        });
        (hooks.is_some() || hub.is_some()).then_some(ShardedObserver { hooks, hub })
    }
    /// What `action` means at node level ([`ShardedAction::event`]),
    /// and the own stream's per-shard frontier advances folded into the
    /// per-shard stability histograms.
    fn show(&self, observer: &mut ShardedObserver, now: SimTime, action: &ShardedAction) {
        if let Some(event) = action.event() {
            observer.on_event(now, &event);
        } else if let (ShardedAction::ShardFrontier { shard, update }, Some(hub)) =
            (action, &mut observer.hub)
        {
            hub.record_shard_stability(self, *shard, update);
        }
    }
    /// Stamped before the observer sees the frontier events this very
    /// publish emitted.
    fn published(&self, observer: &mut ShardedObserver, seq: SeqNo, len: usize) {
        if let Some(hub) = &observer.hub {
            hub.metrics.hub().note_publish_now(self.me(), seq, len);
        }
    }
    fn sample(&self, observer: Option<&mut ShardedObserver>) -> (usize, usize) {
        if let Some(hub) = observer.and_then(|o| o.hub.as_ref()) {
            for (shard, gauges) in hub.gauges.iter().enumerate() {
                gauges.set(self.shard(shard as u16));
            }
        }
        (self.send_buffer_bytes(), self.pending_waiters())
    }
    #[inline]
    fn into_frame(action: ShardedAction) -> Result<(NodeId, u16, WireMsg), ShardedAction> {
        match action {
            ShardedAction::Send { shard, to, msg } => Ok((to, shard, msg)),
            other => Err(other),
        }
    }
    fn on_frames(&mut self, now_nanos: u64, peer: NodeId, frames: &mut Vec<(u16, WireMsg)>) {
        // One fold per lane present, each lane's frames in arrival order.
        frames.sort_by_key(|(lane, _)| *lane);
        let mut frames = frames.drain(..).peekable();
        while let Some(&(lane, _)) = frames.peek() {
            let of_lane = std::iter::from_fn(|| frames.next_if(|(l, _)| *l == lane));
            let msgs = of_lane.map(|(_, msg)| (peer, msg));
            if lane < self.num_shards() {
                self.on_messages(now_nanos, lane, msgs);
            } else {
                // An unknown shard index is tolerated (a peer configured
                // with more shards): the traffic is simply not processable.
                msgs.for_each(drop);
            }
        }
    }
    fn repair_link(&mut self, peer: NodeId) {
        self.repair_link(peer);
    }
    fn stall_json(&self) -> String {
        stabilizer_core::render_sharded_stall_reports_json(&self.explain_all())
    }
    /// Shard 0's: every shard installs the same predicates at the same
    /// vantage.
    fn predicate_tolerances(&self) -> impl Iterator<Item = (NodeId, &str, i64)> + '_ {
        self.shard(0).predicate_tolerances()
    }
    fn stability_frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        self.stability_frontier(stream, key)
    }
    fn last_published(&self) -> SeqNo {
        self.last_published()
    }
    fn is_suspected(&self, node: NodeId) -> bool {
        self.is_suspected(node)
    }
    fn active_transfers(&self) -> usize {
        self.active_transfers()
    }
    fn metrics(&self) -> Metrics {
        self.metrics()
    }
    fn register_ack_type(&mut self, name: &str) -> AckTypeId {
        self.register_ack_type(name)
    }
}

impl NodeHandle<ShardedEngine> {
    /// [`NodeHandle::publish`] with a routing key: under
    /// [`RoutePolicy::KeyHash`] all publishes sharing `key` land on one
    /// shard.
    ///
    /// # Errors
    ///
    /// As [`NodeHandle::publish`].
    pub fn publish_with_key(
        &self,
        payload: Bytes,
        key: &[u8],
        timeout: Duration,
    ) -> Result<SeqNo, CoreError> {
        self.publish_by(payload, timeout, |engine, payload| {
            engine.publish_with_key(payload, key)
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u16 {
        self.shared.node.lock().num_shards()
    }

    /// Highest global sequence of `origin` delivered to the application.
    pub fn delivered_global(&self, origin: NodeId) -> SeqNo {
        let engine = self.shared.node.lock();
        engine.aggregator().delivered_global(origin)
    }

    /// One shard's own traffic counters.
    pub fn shard_metrics(&self, shard: u16) -> Metrics {
        self.shared.node.lock().shard_metrics(shard)
    }

    /// Frontier blame for every `(shard, stream, key)`: each shard
    /// machine diagnoses its own sub-stream (sequence numbers in the
    /// reports are per-shard). Render with
    /// [`stabilizer_core::render_sharded_stall_reports_json`].
    pub fn explain_all(&self) -> Vec<(u16, StallReport)> {
        self.shared.node.lock().explain_all()
    }
}

/// Launch sharded node `me` of `cfg` (`cfg.options().shards` shards,
/// publishes routed by `policy`), listening on `listener` and connecting
/// out to every peer.
///
/// # Errors
///
/// Fails if a configured predicate does not compile, and with
/// [`CoreError::Config`] if `opts` carries a snapshot: a sharded node has
/// no restore path.
pub fn spawn_sharded_node(
    cfg: ClusterConfig,
    me: NodeId,
    acks: Arc<AckTypeRegistry>,
    listener: TcpListener,
    peer_addrs: Vec<(NodeId, SocketAddr)>,
    policy: RoutePolicy,
    opts: SpawnOptions,
) -> Result<ShardedTcpNode, CoreError> {
    if opts.snapshot.is_some() {
        return Err(CoreError::Config(
            "a sharded node cannot restart from a snapshot".to_owned(),
        ));
    }
    let engine = ShardedEngine::new(cfg.clone(), me, acks, policy)?;
    runtime::spawn(&cfg, me, engine, listener, peer_addrs, opts, None)
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
        let opts = SpawnOptions {
            telemetry: telemetry.clone(),
            jitter_seed: u64::from(me.0),
            ..SpawnOptions::default()
        };
        let acks = Arc::clone(&acks);
        spawn_sharded_node(cfg.clone(), me, acks, listener, peer_addrs, policy, opts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClient;

    const ORIGIN: NodeId = NodeId(0);
    const ME: NodeId = NodeId(1);

    /// Node 1 of a two-node cluster with no link to anybody: the tests
    /// are its readers.
    fn lone_mirror(shards: u16) -> ShardedHandle {
        let cfg = format!("az A a b\noption shards {shards}\npredicate All MIN($ALLWNODES)\n");
        let cfg = ClusterConfig::parse(&cfg).expect("config");
        let acks = Arc::new(AckTypeRegistry::new());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let opts = SpawnOptions::default();
        let policy = RoutePolicy::RoundRobin;
        let node = spawn_sharded_node(cfg, ME, acks, listener, Vec::new(), policy, opts);
        node.expect("spawn").handle()
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
