//! What a sharded node adds to the one TCP runtime ([`crate::runtime`]).
//!
//! Its machine is a [`ShardedEngine`]: S shard machines, the publish
//! router and the [`ShardedFrontier`](stabilizer_shard::ShardedFrontier)
//! aggregator that min-combines per-shard frontiers and reassembles
//! per-shard FIFO deliveries into global FIFO order — so the application-visible
//! semantics (`publish`, `waitfor`, `monitor_stability_frontier`, FIFO
//! delivery) are those of a plain [`NodeHandle`], in global sequence
//! numbers, and so is its telemetry: a hub is fed through
//! [`SpawnOptions::observer`] alone, as a plain node's is. Beside that:
//!
//! * **the lane in the frame header** — a frame's lane is its shard
//!   index; a reader batch is sorted by lane and fed to the engine one
//!   lane at a time under one acquisition of the state lock, so a batch
//!   stays one fold and one ACK flush per shard it touches, and every
//!   link multiplexes all shards onto one connection;
//! * **its own calls** — [`NodeHandle::publish_with_key`],
//!   [`NodeHandle::num_shards`], [`NodeHandle::delivered_global`],
//!   [`NodeHandle::shard_metrics`] and the per-shard `explain_all`;
//! * **per-shard `/stall`** — each report names the shard machine that
//!   diagnosed it.
//!
//! And what it lacks: §III-E recovery. [`spawn_sharded_node`] refuses a
//! snapshot to restore from, and [`ShardedEngine::new`] a config that
//! asks for failure detection or state transfer; `is_suspected`,
//! `begin_catch_up` and `active_transfers` are a plain node's calls.

use crate::handle::NodeHandle;
use crate::link::{self, OsNet};
use crate::runtime::{self, SpawnOptions, TcpMachine, TcpNode};
use bytes::Bytes;
use stabilizer_core::{
    AckTypeId, AckTypeRegistry, ClusterConfig, CoreError, Event, Metrics, NodeId, SeqNo,
    StallReport, TimerKind, WaitToken, WireMsg,
};
use stabilizer_shard::{RoutePolicy, ShardedAction, ShardedEngine};
use stabilizer_telemetry::Telemetry;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Handle to a sharded node: the [`NodeHandle`] API over S shards, with
/// global sequence numbers throughout.
pub type ShardedHandle = NodeHandle<ShardedEngine>;

/// A sharded node running on the TCP runtime.
pub type ShardedTcpNode = TcpNode<ShardedEngine>;

impl TcpMachine for ShardedEngine {
    type Action = ShardedAction;
    type Lane = u16;
    const THREAD_PREFIX: &'static str = "stabs";

    fn swap_actions(&mut self, buf: &mut Vec<ShardedAction>) {
        self.swap_actions(buf);
    }
    fn observe(action: &ShardedAction) -> Option<Event<'_>> {
        match action {
            ShardedAction::Send { to, msg, .. } => Event::of_send(*to, msg),
            ShardedAction::Node(action) => action.event(),
        }
    }
    fn on_timer(&mut self, kind: TimerKind, now_nanos: u64) {
        self.on_timer(kind, now_nanos);
    }
    fn publish(&mut self, payload: Bytes) -> Result<SeqNo, CoreError> {
        self.publish(payload)
    }
    fn register_predicate(
        &mut self,
        stream: NodeId,
        key: &str,
        src: &str,
    ) -> Result<(), CoreError> {
        self.register_predicate(stream, key, src)
    }
    fn change_predicate(&mut self, stream: NodeId, key: &str, src: &str) -> Result<(), CoreError> {
        self.change_predicate(stream, key, src)
    }
    fn waitfor(&mut self, stream: NodeId, key: &str, seq: SeqNo) -> Result<WaitToken, CoreError> {
        self.waitfor(stream, key, seq)
    }
    fn report_stability(
        &mut self,
        stream: NodeId,
        ty: AckTypeId,
        seq: SeqNo,
    ) -> Result<(), CoreError> {
        self.report_stability(stream, ty, seq)
    }

    fn sample(&self) -> (usize, usize) {
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
/// [`CoreError::Config`] if `opts` carries a snapshot or `cfg` a
/// non-zero `failure_timeout_millis` or `transfer_millis`: a sharded
/// node has no §III-E recovery.
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
    let (net, bell) = OsNet::new(listener, peer_addrs)?;
    let (node, io) = runtime::spawn(&cfg, me, engine, net, opts, None)?;
    link::run_on_thread(io, bell, ShardedEngine::THREAD_PREFIX)?;
    Ok(node)
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

/// [`spawn_sharded_local_cluster`] with a shared telemetry hub, fed as
/// [`SpawnOptions::telemetry`] says (no observer is attached).
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

    #[test]
    fn a_payload_without_its_global_header_is_refused_and_the_order_stalls() {
        let h = lone_mirror(2);
        let short = WireMsg::Data {
            origin: ORIGIN,
            seq: 1,
            payload: Bytes::from_static(b"1234567"),
        };
        let mut frames = vec![(0, short), (1, data(1, 2))];
        h.shared.on_frames(ORIGIN, &mut frames);
        // Both shard machines took their frame; global 1 never came.
        assert_eq!(h.shard_metrics(0).deliveries, 1);
        assert_eq!(h.shard_metrics(1).deliveries, 1);
        assert_eq!(h.delivered_global(ORIGIN), 0);
        h.shutdown();
    }
}
