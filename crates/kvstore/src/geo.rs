//! The geo-replicated K/V store of §V-A: the local object store enhanced
//! with Stabilizer so each WAN node "can originate K/V updates to local
//! data, but read K/V data from any WAN node".
//!
//! Each node owns one *pool* (its primary keys) and holds read-only
//! mirrored pools of every other node. A `put` is locally stable on
//! return; clients seeking stronger guarantees consult
//! `get_stability_frontier` / `waitfor` with a predicate matching their
//! consistency model, or register new predicates at runtime.

use crate::local::LocalStore;
use crate::record::KvOp;
use bytes::Bytes;
use stabilizer_core::sim_driver::{build_actors, AppHooks, SimNode};
use stabilizer_core::{
    ClusterConfig, CoreError, Event, NodeId, SeqNo, StabilizerNode, WaitToken, WireMsg,
};
use stabilizer_dsl::AckTypeRegistry;
use stabilizer_netsim::{Actor, Ctx, NetTopology, SimTime, Simulation, TimerId};
use stabilizer_telemetry::{MetricsObserver, Telemetry};
use std::sync::Arc;

/// The K/V store's state behind the driver: one pool per origin — this
/// node's own (its primary keys) and a read-only mirror of every other
/// node's, to which each delivered record is applied — plus an optional
/// telemetry observer that sees every event.
pub struct KvHooks {
    pools: Vec<LocalStore>,
    observer: Option<MetricsObserver>,
}

impl KvHooks {
    /// The store's state over `pools` (one per origin), every event
    /// shown to `observer` after it was applied.
    pub fn new(pools: Vec<LocalStore>, observer: Option<MetricsObserver>) -> Self {
        KvHooks { pools, observer }
    }
}

impl AppHooks for KvHooks {
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        if let Event::Deliver {
            origin, payload, ..
        } = *event
        {
            // Malformed records are dropped; in a real deployment this
            // would be an integration bug worth surfacing loudly, so
            // debug builds assert.
            match KvOp::decode(payload) {
                Ok(op) => {
                    self.pools[origin.0 as usize].apply(op);
                }
                Err(e) => debug_assert!(false, "undecodable KV record from {origin}: {e}"),
            }
        }
        self.observer.on_event(now, event);
    }
}

/// A geo-replicated K/V node running in the simulator: the core
/// [`SimNode`] driver over [`KvHooks`].
pub struct GeoKvNode {
    sim: SimNode<KvHooks>,
    telemetry: Option<Arc<Telemetry>>,
}

impl GeoKvNode {
    /// Build the node `me` of `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates configuration and predicate-compile errors.
    pub fn new(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
    ) -> Result<Self, CoreError> {
        let pools = (0..cfg.num_nodes()).map(|_| LocalStore::new()).collect();
        Ok(Self::over(StabilizerNode::new(cfg, me, acks)?, pools))
    }

    fn over(node: StabilizerNode, pools: Vec<LocalStore>) -> Self {
        GeoKvNode {
            sim: SimNode::new(node, KvHooks::new(pools, None)).without_delivery_log(),
            telemetry: None,
        }
    }

    /// Attach a telemetry hub: publishes are stamped for stability
    /// latency, and deliveries / frontier advances / completed waits
    /// feed the hub's per-node counters and histograms.
    #[must_use]
    pub fn with_telemetry(mut self, hub: &Arc<Telemetry>) -> Self {
        self.sim.hooks.observer = Some(hub.observer(self.me()));
        self.telemetry = Some(Arc::clone(hub));
        self
    }

    /// Rebuild a K/V node after a crash (§III-E): the control-plane
    /// [`Snapshot`](stabilizer_core::Snapshot) restores the ACK table and
    /// sequence counter, every stream the node mirrors resumes after its
    /// snapshotted RECEIVED cell ([`StabilizerNode::restore`]), and the
    /// per-origin pools are replayed from their persisted write-ahead
    /// logs.
    ///
    /// # Errors
    ///
    /// Propagates configuration and predicate-compile errors.
    pub fn restore(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
        snapshot: stabilizer_core::Snapshot,
        pools: Vec<LocalStore>,
    ) -> Result<Self, CoreError> {
        assert_eq!(pools.len(), cfg.num_nodes(), "one pool per origin");
        let node = StabilizerNode::restore(cfg, me, acks, snapshot)?;
        Ok(Self::over(node, pools))
    }

    /// Write `value` under `key` in this node's own pool and start the
    /// asynchronous WAN mirror transfer. On return the write is *locally
    /// stable* (the paper's `put` semantics); use
    /// [`GeoKvNode::waitfor_in`] for stronger guarantees.
    ///
    /// # Errors
    ///
    /// Backpressure or payload-size errors from the data plane, or
    /// [`CoreError::Wire`] for a key longer than 65 535 bytes; a refused
    /// put is neither published nor applied.
    pub fn put_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        key: &str,
        value: Bytes,
    ) -> Result<SeqNo, CoreError> {
        let timestamp = ctx.now().as_nanos();
        self.originate(
            ctx,
            KvOp::Put {
                key: key.to_owned(),
                value,
                timestamp,
            },
        )
    }

    /// Tombstone `key` in this node's own pool, mirrored like a put.
    ///
    /// # Errors
    ///
    /// As [`GeoKvNode::put_in`].
    pub fn delete_in(&mut self, ctx: &mut Ctx<'_, WireMsg>, key: &str) -> Result<SeqNo, CoreError> {
        let timestamp = ctx.now().as_nanos();
        self.originate(
            ctx,
            KvOp::Delete {
                key: key.to_owned(),
                timestamp,
            },
        )
    }

    /// Publish `op` on this node's stream, then apply it to this node's
    /// own pool.
    fn originate(&mut self, ctx: &mut Ctx<'_, WireMsg>, op: KvOp) -> Result<SeqNo, CoreError> {
        let payload = op.to_bytes()?;
        let payload_len = payload.len();
        let seq = self.sim.publish_in(ctx, payload)?;
        if let Some(t) = &self.telemetry {
            t.note_publish(op.timestamp(), self.me(), seq, payload_len);
        }
        let me = self.me().0 as usize;
        self.sim.hooks.pools[me].apply(op);
        Ok(seq)
    }

    /// Read the latest mirrored value of `key` from `owner`'s pool.
    pub fn get(&self, owner: NodeId, key: &str) -> Option<Bytes> {
        self.pool(owner).get(key)
    }

    /// Read `key` from `owner`'s pool as of `timestamp` (the Derecho
    /// `get_by_time` API the paper preserves).
    pub fn get_by_time(&self, owner: NodeId, key: &str, timestamp: u64) -> Option<Bytes> {
        self.pool(owner).get_by_time(key, timestamp)
    }

    /// The mirrored pool of `owner` (read-only).
    pub fn pool(&self, owner: NodeId) -> &LocalStore {
        &self.sim.hooks.pools[owner.0 as usize]
    }

    /// Current `(frontier, generation)` of a predicate over this node's
    /// own stream — the paper's added `get_stability_frontier` API.
    pub fn get_stability_frontier(&self, key: &str) -> Option<(SeqNo, u32)> {
        self.sim.inner().stability_frontier(self.me(), key)
    }

    /// Register a predicate over this node's own stream (§V-A
    /// `register_predicate`).
    ///
    /// # Errors
    ///
    /// DSL compile errors.
    pub fn register_predicate_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        let me = self.me();
        self.sim.register_predicate_in(ctx, me, key, source)
    }

    /// Switch a registered predicate (§V-A `change_predicate`).
    ///
    /// # Errors
    ///
    /// Unknown key or DSL compile errors.
    pub fn change_predicate_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        let me = self.me();
        self.sim.change_predicate_in(ctx, me, key, source)
    }

    /// Wait until `predicate` covers `seq` on this node's stream.
    ///
    /// # Errors
    ///
    /// Unknown predicate key.
    pub fn waitfor_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        predicate: &str,
        seq: SeqNo,
    ) -> Result<WaitToken, CoreError> {
        let me = self.me();
        self.sim.waitfor_in(ctx, me, predicate, seq)
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.sim.inner().me()
    }

    /// The wrapped Stabilizer state machine.
    pub fn stabilizer(&self) -> &StabilizerNode {
        self.sim.inner()
    }

    /// The embedded simulator driver, read-only: its [`EventLog`]
    /// (frontier log, completed waits, `covered_at`, …) by deref, and
    /// the view external observers (e.g. the chaos harness's invariant
    /// checker) take of a bare `SimNode` cluster.
    ///
    /// [`EventLog`]: stabilizer_core::EventLog
    pub fn driver(&self) -> &SimNode<KvHooks> {
        &self.sim
    }
}

impl Actor for GeoKvNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.sim.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, WireMsg>, from: usize, msg: WireMsg) {
        self.sim.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, WireMsg>, timer: TimerId, tag: u64) {
        self.sim.on_timer(ctx, timer, tag);
    }
}

/// Build a simulated geo-replicated K/V deployment: one [`GeoKvNode`]
/// per site over `net`.
///
/// # Errors
///
/// Propagates configuration and predicate-compile errors.
///
/// # Panics
///
/// Panics if the network and cluster sizes differ.
pub fn build_kv_cluster(
    cfg: &ClusterConfig,
    net: NetTopology,
    seed: u64,
) -> Result<Simulation<GeoKvNode>, CoreError> {
    build_kv_cluster_with_telemetry(cfg, net, seed, None)
}

/// [`build_kv_cluster`] with every node reporting into a shared
/// telemetry hub (per-node counters, stability-latency histograms).
///
/// # Errors
///
/// Propagates configuration and predicate-compile errors.
///
/// # Panics
///
/// Panics if the network and cluster sizes differ.
pub fn build_kv_cluster_with_telemetry(
    cfg: &ClusterConfig,
    net: NetTopology,
    seed: u64,
    telemetry: Option<Arc<Telemetry>>,
) -> Result<Simulation<GeoKvNode>, CoreError> {
    build_actors(cfg, net, seed, |me, acks| {
        let node = GeoKvNode::new(cfg.clone(), me, acks)?;
        Ok(match &telemetry {
            Some(hub) => node.with_telemetry(hub),
            None => node,
        })
    })
}
