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
use stabilizer_core::sim_driver::{AppHooks, SimNode};
use stabilizer_core::{
    Action, ClusterConfig, CoreError, Event, FrontierUpdate, NodeId, SeqNo, StabilizerNode,
    WaitToken, WireMsg,
};
use stabilizer_dsl::AckTypeRegistry;
use stabilizer_netsim::{Actor, Ctx, NetTopology, SimTime, Simulation, TimerId};
use stabilizer_telemetry::{MetricsObserver, Telemetry};
use std::sync::Arc;

/// Driver hooks for the K/V node: forwards every event to an optional
/// telemetry observer (no-op when detached).
#[derive(Default)]
pub struct KvHooks {
    observer: Option<MetricsObserver>,
}

impl AppHooks for KvHooks {
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        if let Some(obs) = &mut self.observer {
            obs.on_event(now, event);
        }
    }
}

/// A geo-replicated K/V node running in the simulator.
///
/// Internally this wraps the core [`SimNode`] driver and applies every
/// delivered record to the mirrored pool of its origin.
pub struct GeoKvNode {
    sim: SimNode<KvHooks>,
    pools: Vec<LocalStore>,
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
        let node = StabilizerNode::new(cfg.clone(), me, acks)?;
        Ok(GeoKvNode {
            sim: SimNode::new(node, KvHooks::default()).without_delivery_log(),
            pools: (0..cfg.num_nodes()).map(|_| LocalStore::new()).collect(),
            telemetry: None,
        })
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

    /// Rebuild a K/V node after a primary crash (§III-E): the
    /// control-plane [`Snapshot`](stabilizer_core::Snapshot) restores the
    /// ACK table and sequence counter, and the per-origin pools are
    /// replayed from their persisted write-ahead logs.
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
        Ok(GeoKvNode {
            sim: SimNode::new(node, KvHooks::default()).without_delivery_log(),
            pools,
            telemetry: None,
        })
    }

    /// Write `value` under `key` in this node's own pool and start the
    /// asynchronous WAN mirror transfer. On return the write is *locally
    /// stable* (the paper's `put` semantics); use
    /// [`GeoKvNode::waitfor_in`] for stronger guarantees.
    ///
    /// # Errors
    ///
    /// Backpressure or payload-size errors from the data plane.
    pub fn put_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        key: &str,
        value: Bytes,
    ) -> Result<SeqNo, CoreError> {
        let timestamp = ctx.now().as_nanos();
        let op = KvOp::Put {
            key: key.to_owned(),
            value: value.clone(),
            timestamp,
        };
        let payload = op.to_bytes();
        let payload_len = payload.len();
        let seq = self.sim.publish_in(ctx, payload)?;
        if let Some(t) = &self.telemetry {
            t.note_publish(timestamp, self.me(), seq, payload_len);
        }
        let me = self.me().0 as usize;
        self.pools[me].put(key, value, timestamp);
        Ok(seq)
    }

    /// Tombstone `key` in this node's own pool, mirrored like a put.
    ///
    /// # Errors
    ///
    /// Backpressure errors from the data plane.
    pub fn delete_in(&mut self, ctx: &mut Ctx<'_, WireMsg>, key: &str) -> Result<SeqNo, CoreError> {
        let timestamp = ctx.now().as_nanos();
        let op = KvOp::Delete {
            key: key.to_owned(),
            timestamp,
        };
        let payload = op.to_bytes();
        let payload_len = payload.len();
        let seq = self.sim.publish_in(ctx, payload)?;
        if let Some(t) = &self.telemetry {
            t.note_publish(timestamp, self.me(), seq, payload_len);
        }
        let me = self.me().0 as usize;
        self.pools[me].delete(key, timestamp);
        Ok(seq)
    }

    /// Read the latest mirrored value of `key` from `owner`'s pool.
    pub fn get(&self, owner: NodeId, key: &str) -> Option<Bytes> {
        self.pools[owner.0 as usize].get(key)
    }

    /// Read `key` from `owner`'s pool as of `timestamp` (the Derecho
    /// `get_by_time` API the paper preserves).
    pub fn get_by_time(&self, owner: NodeId, key: &str, timestamp: u64) -> Option<Bytes> {
        self.pools[owner.0 as usize].get_by_time(key, timestamp)
    }

    /// The mirrored pool of `owner` (read-only).
    pub fn pool(&self, owner: NodeId) -> &LocalStore {
        &self.pools[owner.0 as usize]
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

    /// Timestamped frontier log (for experiments).
    pub fn frontier_log(&self) -> &[(SimTime, FrontierUpdate)] {
        &self.sim.frontier_log
    }

    /// Completed `waitfor` tokens with completion times.
    pub fn completed_waits(&self) -> &[(SimTime, WaitToken)] {
        &self.sim.completed_waits
    }

    /// The wrapped Stabilizer state machine.
    pub fn stabilizer(&self) -> &StabilizerNode {
        self.sim.inner()
    }

    /// The embedded simulator driver, exposed read-only so external
    /// observers (e.g. the chaos harness's invariant checker) can view
    /// this node exactly as they view a bare `SimNode` cluster.
    pub fn driver(&self) -> &SimNode<KvHooks> {
        &self.sim
    }

    fn apply_delivery(&mut self, origin: NodeId, payload: &Bytes) {
        // Malformed records are dropped; in a real deployment this would
        // be an integration bug worth surfacing loudly, so debug builds
        // assert.
        match KvOp::decode(payload) {
            Ok(KvOp::Put {
                key,
                value,
                timestamp,
            }) => {
                self.pools[origin.0 as usize].put(&key, value, timestamp);
            }
            Ok(KvOp::Delete { key, timestamp }) => {
                self.pools[origin.0 as usize].delete(&key, timestamp);
            }
            Err(e) => debug_assert!(false, "undecodable KV record from {origin}: {e}"),
        }
    }
}

impl Actor for GeoKvNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.sim.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, WireMsg>, from: usize, msg: WireMsg) {
        // Feed the state machine directly so `Deliver` actions can be
        // applied to the mirrored pools before the driver consumes them.
        self.sim
            .inner_mut()
            .on_message(ctx.now().as_nanos(), NodeId(from as u16), msg);
        let actions = self.sim.inner_mut().take_actions();
        for action in &actions {
            if let Action::Deliver {
                origin, payload, ..
            } = action
            {
                self.apply_delivery(*origin, payload);
            }
        }
        self.sim.process_actions(ctx, actions);
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
    assert_eq!(net.len(), cfg.num_nodes());
    let acks = Arc::new(AckTypeRegistry::new());
    let mut nodes = Vec::with_capacity(cfg.num_nodes());
    for i in 0..cfg.num_nodes() {
        let mut node = GeoKvNode::new(cfg.clone(), NodeId(i as u16), Arc::clone(&acks))?;
        if let Some(hub) = &telemetry {
            node = node.with_telemetry(hub);
        }
        nodes.push(node);
    }
    Ok(Simulation::new(net, nodes, seed))
}
