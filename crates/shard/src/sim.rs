//! Deterministic-simulator driver for the sharded engine.
//!
//! Mirrors `stabilizer_core::sim_driver::SimNode` one-for-one (the same
//! timer table — `stabilizer_core::timers` — and the same log shapes) so
//! sharded scenarios slot
//! into the existing experiment and chaos harnesses. All shard
//! sub-streams share one simulated link per node pair: a [`ShardMsg`]
//! envelope carries the shard index plus the inner wire message, and the
//! interleave across shards is fully determined by the simulator's
//! event order — same seed, same byte stream, in any process.

use crate::engine::{ShardedAction, ShardedEngine};
use crate::router::RoutePolicy;
use bytes::Bytes;
use stabilizer_core::sim_driver::{arm_timer, AppHooks, NoHooks};
use stabilizer_core::timers::{self, TimerKind};
use stabilizer_core::{ClusterConfig, CoreError, FrontierUpdate, WaitToken, WireMsg};
use stabilizer_dsl::{AckTypeId, AckTypeRegistry, NodeId, SeqNo};
use stabilizer_netsim::{Actor, Ctx, MsgSize, SimTime, TimerId};
use std::sync::Arc;

/// Wire envelope multiplexing shard sub-streams over one simulated link.
#[derive(Debug, Clone)]
pub struct ShardMsg {
    /// Destination shard index.
    pub shard: u16,
    /// The inner protocol message.
    pub msg: WireMsg,
}

impl MsgSize for ShardMsg {
    fn wire_size(&self) -> usize {
        // The shard index costs two bytes on the wire, exactly as in the
        // TCP runtime's sharded frame header.
        self.msg.wire_size() + 2
    }
}

/// A sharded Stabilizer node embedded in the simulator.
pub struct ShardedSimNode<H: AppHooks = NoHooks> {
    engine: ShardedEngine,
    /// Application hooks (invoked for node-level events only).
    pub hooks: H,
    /// Timestamped node-level (aggregated) frontier log.
    pub frontier_log: Vec<(SimTime, FrontierUpdate)>,
    /// Timestamped node-level delivery log in global FIFO order:
    /// `(time, origin, global_seq, payload_len)`.
    pub delivery_log: Vec<(SimTime, NodeId, SeqNo, usize)>,
    /// Completed node-level wait tokens.
    pub completed_waits: Vec<(SimTime, WaitToken)>,
    /// Suspected peers (deduplicated across shards).
    pub suspected_log: Vec<(SimTime, NodeId)>,
    /// Peers that came back after suspicion.
    pub recovered_log: Vec<(SimTime, NodeId)>,
    /// Out-of-band global fast-forwards (§III-E state transfer):
    /// `(time, stream, delivered_global_after_jump)`.
    pub catchup_log: Vec<(SimTime, NodeId, SeqNo)>,
    /// Per shard: that shard's own frontier log (per-shard sequence
    /// space) — consumed by per-shard invariant checking and telemetry.
    pub shard_frontier_logs: Vec<Vec<(SimTime, FrontierUpdate)>>,
    /// Per shard: that shard's own delivery log (per-shard sequence
    /// space), before global reassembly.
    pub shard_delivery_logs: Vec<Vec<(SimTime, NodeId, SeqNo, usize)>>,
    record_deliveries: bool,
    /// Multiplier on every timer interval (clock-skew fault injection;
    /// 1.0 = nominal cadence), applied at each re-arm.
    timer_scale: f64,
}

impl<H: AppHooks> ShardedSimNode<H> {
    /// Wrap an engine with hooks.
    pub fn new(engine: ShardedEngine, hooks: H) -> Self {
        let shards = engine.num_shards() as usize;
        ShardedSimNode {
            engine,
            hooks,
            frontier_log: Vec::new(),
            delivery_log: Vec::new(),
            completed_waits: Vec::new(),
            suspected_log: Vec::new(),
            recovered_log: Vec::new(),
            catchup_log: Vec::new(),
            shard_frontier_logs: vec![Vec::new(); shards],
            shard_delivery_logs: vec![Vec::new(); shards],
            record_deliveries: true,
            timer_scale: 1.0,
        }
    }

    /// Scale every timer interval by `scale` — a skewed local clock,
    /// exactly as [`SimNode::set_timer_scale`](stabilizer_core::sim_driver::SimNode::set_timer_scale).
    /// Takes effect at each timer's next re-arm.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn set_timer_scale(&mut self, scale: f64) {
        timers::assert_valid_scale(scale);
        self.timer_scale = scale;
    }

    /// The current timer-interval multiplier (1.0 = nominal).
    pub fn timer_scale(&self) -> f64 {
        self.timer_scale
    }

    /// Disable the delivery logs (node-level and per-shard) for
    /// long-running throughput scenarios.
    pub fn without_delivery_log(mut self) -> Self {
        self.record_deliveries = false;
        self
    }

    /// Whether the delivery logs are being populated.
    pub fn records_deliveries(&self) -> bool {
        self.record_deliveries
    }

    /// Access the underlying engine (for assertions).
    pub fn inner(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Mutable engine access for *query-only* operations outside the
    /// event loop; action-emitting calls go through the `*_in` methods.
    pub fn inner_mut(&mut self) -> &mut ShardedEngine {
        &mut self.engine
    }

    /// Publish inside the simulation; returns the global sequence.
    pub fn publish_in(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg>,
        payload: Bytes,
    ) -> Result<SeqNo, CoreError> {
        let seq = self.engine.publish(payload)?;
        self.drain(ctx);
        Ok(seq)
    }

    /// Publish with a routing key inside the simulation.
    pub fn publish_with_key_in(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg>,
        payload: Bytes,
        key: &[u8],
    ) -> Result<SeqNo, CoreError> {
        let seq = self.engine.publish_with_key(payload, key)?;
        self.drain(ctx);
        Ok(seq)
    }

    /// Register a predicate (on every shard) inside the simulation.
    pub fn register_predicate_in(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg>,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.engine.register_predicate(stream, key, source)?;
        self.drain(ctx);
        Ok(())
    }

    /// Change a predicate inside the simulation.
    pub fn change_predicate_in(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg>,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.engine.change_predicate(stream, key, source)?;
        self.drain(ctx);
        Ok(())
    }

    /// `waitfor` on the aggregated frontier inside the simulation.
    pub fn waitfor_in(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg>,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
    ) -> Result<WaitToken, CoreError> {
        let token = self.engine.waitfor(stream, key, seq)?;
        self.drain(ctx);
        Ok(token)
    }

    /// Report application-defined stability (global sequence numbers)
    /// inside the simulation.
    pub fn report_stability_in(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg>,
        stream: NodeId,
        ty: AckTypeId,
        seq: SeqNo,
    ) {
        self.engine.report_stability(stream, ty, seq);
        self.drain(ctx);
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, ShardMsg>) {
        let actions = self.engine.take_actions();
        self.process_actions(ctx, actions);
    }

    /// Arm `kind` one (skewed) period from now, if it is configured.
    fn arm(&self, ctx: &mut Ctx<'_, ShardMsg>, kind: TimerKind) {
        arm_timer(ctx, kind, self.engine.config().options(), self.timer_scale);
    }

    /// Execute a batch of externally drained [`ShardedAction`]s through
    /// this driver's bookkeeping (sends, hooks, logs).
    pub fn process_actions(&mut self, ctx: &mut Ctx<'_, ShardMsg>, actions: Vec<ShardedAction>) {
        for action in actions {
            match action {
                ShardedAction::Send { shard, to, msg } => {
                    ctx.send(to.0 as usize, ShardMsg { shard, msg });
                }
                ShardedAction::Deliver {
                    origin,
                    seq,
                    payload,
                } => {
                    self.hooks.on_deliver(ctx.now(), origin, seq, &payload);
                    if self.record_deliveries {
                        self.delivery_log
                            .push((ctx.now(), origin, seq, payload.len()));
                    }
                }
                ShardedAction::Frontier(update) => {
                    self.hooks.on_frontier(ctx.now(), &update);
                    self.frontier_log.push((ctx.now(), update));
                }
                ShardedAction::WaitDone { token } => {
                    self.hooks.on_wait_done(ctx.now(), token);
                    self.completed_waits.push((ctx.now(), token));
                }
                ShardedAction::Suspected { node } => {
                    self.hooks.on_suspected(ctx.now(), node);
                    self.suspected_log.push((ctx.now(), node));
                }
                ShardedAction::Recovered { node } => {
                    self.recovered_log.push((ctx.now(), node));
                }
                ShardedAction::CatchUp { stream, global, .. } => {
                    self.hooks.on_catch_up(ctx.now(), stream, global);
                    self.catchup_log.push((ctx.now(), stream, global));
                }
                ShardedAction::PredicateBroken { .. } => {}
                ShardedAction::ShardFrontier { shard, update } => {
                    self.shard_frontier_logs[shard as usize].push((ctx.now(), update));
                }
                ShardedAction::ShardDeliver {
                    shard,
                    origin,
                    seq,
                    len,
                } => {
                    if self.record_deliveries {
                        self.shard_delivery_logs[shard as usize].push((
                            ctx.now(),
                            origin,
                            seq,
                            len,
                        ));
                    }
                }
            }
        }
    }
}

impl<H: AppHooks> Actor for ShardedSimNode<H> {
    type Msg = ShardMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ShardMsg>) {
        for kind in TimerKind::ALL {
            self.arm(ctx, kind);
        }
        // A restarted engine may have queued catch-up requests during
        // construction; flush them now that the context exists.
        self.drain(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ShardMsg>, from: usize, msg: ShardMsg) {
        if msg.shard >= self.engine.num_shards() {
            return; // malformed shard index; drop rather than panic
        }
        self.engine.on_message(
            ctx.now().as_nanos(),
            msg.shard,
            NodeId(from as u16),
            msg.msg,
        );
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ShardMsg>, _timer: TimerId, tag: u64) {
        if let Some(kind) = TimerKind::from_tag(tag) {
            self.engine.on_timer(kind, ctx.now().as_nanos());
            self.arm(ctx, kind);
        }
        self.drain(ctx);
    }
}

/// Build a ready-to-run sharded simulated cluster: one
/// [`ShardedSimNode`] per topology node (each with
/// `cfg.options().shards` shards) over the given network, with a shared
/// ACK-type registry.
///
/// # Errors
///
/// Fails if a configured predicate does not compile.
///
/// # Panics
///
/// Panics if `net.len()` differs from the cluster topology size.
pub fn build_sharded_cluster(
    cfg: &ClusterConfig,
    net: stabilizer_netsim::NetTopology,
    seed: u64,
    policy: RoutePolicy,
) -> Result<stabilizer_netsim::Simulation<ShardedSimNode>, CoreError> {
    build_sharded_cluster_with_hooks(cfg, net, seed, policy, |_| NoHooks)
}

/// [`build_sharded_cluster`] with per-node application hooks.
///
/// # Errors
///
/// Fails if a configured predicate does not compile.
///
/// # Panics
///
/// Panics if `net.len()` differs from the cluster topology size.
pub fn build_sharded_cluster_with_hooks<H: AppHooks>(
    cfg: &ClusterConfig,
    net: stabilizer_netsim::NetTopology,
    seed: u64,
    policy: RoutePolicy,
    mut mk_hooks: impl FnMut(usize) -> H,
) -> Result<stabilizer_netsim::Simulation<ShardedSimNode<H>>, CoreError> {
    assert_eq!(
        net.len(),
        cfg.num_nodes(),
        "network and cluster sizes must match"
    );
    let acks = Arc::new(AckTypeRegistry::new());
    let mut nodes = Vec::with_capacity(cfg.num_nodes());
    for i in 0..cfg.num_nodes() {
        let engine = ShardedEngine::new(cfg.clone(), NodeId(i as u16), Arc::clone(&acks), policy)?;
        nodes.push(ShardedSimNode::new(engine, mk_hooks(i)));
    }
    Ok(stabilizer_netsim::Simulation::new(net, nodes, seed))
}
