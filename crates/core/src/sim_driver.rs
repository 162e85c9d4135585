//! Driver that runs a [`StabilizerNode`] inside the deterministic
//! simulator: it maps [`Action`]s to simulated sends, schedules the
//! periodic control-plane timers, and exposes application hooks plus
//! timestamped logs that the experiment harnesses read.

use crate::config::{ClusterConfig, Options};
use crate::error::CoreError;
use crate::frontier::{FrontierUpdate, WaitToken};
use crate::messages::WireMsg;
use crate::node::{Action, StabilizerNode};
use crate::timers::{self, TimerKind};
use bytes::Bytes;
use stabilizer_dsl::{AckTypeRegistry, NodeId, SeqNo};
use stabilizer_netsim::{Actor, Ctx, SimDuration, SimTime, TimerId};
use std::sync::Arc;

/// Application callbacks invoked as the simulation runs. All methods have
/// default empty bodies; implement only what the experiment needs.
pub trait AppHooks {
    /// A mirrored payload was delivered (upcall).
    fn on_deliver(&mut self, _now: SimTime, _origin: NodeId, _seq: SeqNo, _payload: &Bytes) {}
    /// A stability frontier advanced (the `monitor_stability_frontier`
    /// mechanism of §III-D).
    fn on_frontier(&mut self, _now: SimTime, _update: &FrontierUpdate) {}
    /// A `waitfor` completed.
    fn on_wait_done(&mut self, _now: SimTime, _token: WaitToken) {}
    /// A peer became suspected.
    fn on_suspected(&mut self, _now: SimTime, _node: NodeId) {}
    /// A stream was fast-forwarded out of band (§III-E state transfer).
    fn on_catch_up(&mut self, _now: SimTime, _stream: NodeId, _seq: SeqNo) {}
    /// This node (as donor) sent one retained-log chunk to a recovering
    /// peer (§III-E, donor side).
    fn on_transfer_chunk(
        &mut self,
        _now: SimTime,
        _to: NodeId,
        _stream: NodeId,
        _seq: SeqNo,
        _len: usize,
        _done: bool,
    ) {
    }
    /// This node (re)entered the cluster and requested catch-up on
    /// `streams` peer streams.
    fn on_join(&mut self, _now: SimTime, _streams: usize) {}
}

/// Hooks that do nothing (logs on [`SimNode`] still record everything).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;
impl AppHooks for NoHooks {}

/// A Stabilizer node embedded in the simulator.
pub struct SimNode<H: AppHooks = NoHooks> {
    /// The protocol state machine.
    node: StabilizerNode,
    /// Application hooks.
    pub hooks: H,
    /// Timestamped frontier log: `(time, update)`.
    pub frontier_log: Vec<(SimTime, FrontierUpdate)>,
    /// Timestamped delivery log: `(time, origin, seq, payload_len)`
    /// (payload bytes omitted to keep memory bounded in long runs;
    /// lengths kept for byte-level accounting).
    pub delivery_log: Vec<(SimTime, NodeId, SeqNo, usize)>,
    /// Completed wait tokens.
    pub completed_waits: Vec<(SimTime, WaitToken)>,
    /// Suspected peers.
    pub suspected_log: Vec<(SimTime, NodeId)>,
    /// Peers that came back after suspicion.
    pub recovered_log: Vec<(SimTime, NodeId)>,
    /// Out-of-band stream fast-forwards (§III-E): `(time, stream, seq)`.
    pub catchup_log: Vec<(SimTime, NodeId, SeqNo)>,
    record_deliveries: bool,
    /// Multiplier on every timer interval (clock-skew fault injection;
    /// 1.0 = nominal cadence). Applied at each re-arm, so a mid-run
    /// change takes effect within one timer period.
    timer_scale: f64,
}

impl<H: AppHooks> SimNode<H> {
    /// Wrap a node with hooks.
    pub fn new(node: StabilizerNode, hooks: H) -> Self {
        SimNode {
            node,
            hooks,
            frontier_log: Vec::new(),
            delivery_log: Vec::new(),
            completed_waits: Vec::new(),
            suspected_log: Vec::new(),
            recovered_log: Vec::new(),
            catchup_log: Vec::new(),
            record_deliveries: true,
            timer_scale: 1.0,
        }
    }

    /// Scale every timer interval by `scale` — the simulated equivalent
    /// of a skewed local clock (`scale < 1` fires timers early, `> 1`
    /// late). Takes effect at each timer's next re-arm; 1.0 restores the
    /// nominal cadence.
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

    /// Disable the delivery log (for multi-hundred-thousand-message runs
    /// where only the frontier log matters).
    pub fn without_delivery_log(mut self) -> Self {
        self.record_deliveries = false;
        self
    }

    /// Access the underlying state machine (for assertions).
    pub fn inner(&self) -> &StabilizerNode {
        &self.node
    }

    /// Whether [`SimNode::delivery_log`] is being populated (external
    /// checkers skip delivery-order invariants when it is not).
    pub fn records_deliveries(&self) -> bool {
        self.record_deliveries
    }

    /// Mutable access for *query-only* operations outside the event loop.
    /// To perform operations that emit actions, use the `*_in` methods
    /// with a simulation [`Ctx`].
    pub fn inner_mut(&mut self) -> &mut StabilizerNode {
        &mut self.node
    }

    /// Start §III-E catch-up on every peer stream (restart/join path),
    /// firing the `on_join` hook when any transfer was actually
    /// requested. Queued actions stay on the node; the caller drains
    /// them through [`SimNode::process_actions`] as usual.
    pub fn begin_catch_up_at(&mut self, now: SimTime) {
        let streams = self.node.begin_catch_up(now.as_nanos());
        if streams > 0 {
            self.hooks.on_join(now, streams);
        }
    }

    /// Publish inside the simulation (drains actions into sends).
    pub fn publish_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        payload: Bytes,
    ) -> Result<SeqNo, CoreError> {
        let seq = self.node.publish(payload)?;
        self.drain(ctx);
        Ok(seq)
    }

    /// Register a predicate inside the simulation.
    pub fn register_predicate_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.node.register_predicate(stream, key, source)?;
        self.drain(ctx);
        Ok(())
    }

    /// Change a predicate inside the simulation.
    pub fn change_predicate_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.node.change_predicate(stream, key, source)?;
        self.drain(ctx);
        Ok(())
    }

    /// `waitfor` inside the simulation; completion lands in
    /// [`SimNode::completed_waits`].
    pub fn waitfor_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
    ) -> Result<WaitToken, CoreError> {
        let token = self.node.waitfor(stream, key, seq)?;
        self.drain(ctx);
        Ok(token)
    }

    /// Report application-defined stability inside the simulation.
    pub fn report_stability_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        stream: NodeId,
        ty: stabilizer_dsl::AckTypeId,
        seq: SeqNo,
    ) {
        self.node.report_stability(stream, ty, seq);
        self.drain(ctx);
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let actions = self.node.take_actions();
        self.process_actions(ctx, actions);
    }

    /// Arm `kind` one (skewed) period from now, if it is configured.
    fn arm(&self, ctx: &mut Ctx<'_, WireMsg>, kind: TimerKind) {
        arm_timer(ctx, kind, self.node.config().options(), self.timer_scale);
    }

    /// Execute a batch of externally drained [`Action`]s through this
    /// driver's bookkeeping (sends, hooks, logs). Application layers that
    /// need to observe actions before the driver consumes them — e.g. the
    /// geo K/V store applying deliveries to its pools — call
    /// [`StabilizerNode::take_actions`] themselves and then hand the batch
    /// here.
    pub fn process_actions(&mut self, ctx: &mut Ctx<'_, WireMsg>, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    if let WireMsg::TransferChunk {
                        stream,
                        seq,
                        ref payload,
                        done,
                    } = msg
                    {
                        self.hooks.on_transfer_chunk(
                            ctx.now(),
                            to,
                            stream,
                            seq,
                            payload.len(),
                            done,
                        );
                    }
                    ctx.send(to.0 as usize, msg)
                }
                Action::Deliver {
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
                Action::Frontier(update) => {
                    self.hooks.on_frontier(ctx.now(), &update);
                    self.frontier_log.push((ctx.now(), update));
                }
                Action::WaitDone { token } => {
                    self.hooks.on_wait_done(ctx.now(), token);
                    self.completed_waits.push((ctx.now(), token));
                }
                Action::Suspected { node } => {
                    self.hooks.on_suspected(ctx.now(), node);
                    self.suspected_log.push((ctx.now(), node));
                }
                Action::Recovered { node } => {
                    self.recovered_log.push((ctx.now(), node));
                }
                Action::CatchUp { stream, seq, .. } => {
                    self.hooks.on_catch_up(ctx.now(), stream, seq);
                    self.catchup_log.push((ctx.now(), stream, seq));
                }
                Action::PredicateBroken { .. } => {
                    // Surfaced through the frontier log staying frozen; the
                    // application is expected to re-register.
                }
            }
        }
    }
}

impl<H: AppHooks> Actor for SimNode<H> {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        for kind in TimerKind::ALL {
            self.arm(ctx, kind);
        }
        // Actions queued before the actor entered the event loop (e.g. a
        // restarted node's `begin_catch_up` requests) go out now.
        self.drain(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, WireMsg>, from: usize, msg: WireMsg) {
        self.node
            .on_message(ctx.now().as_nanos(), NodeId(from as u16), msg);
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, WireMsg>, _timer: TimerId, tag: u64) {
        if let Some(kind) = TimerKind::from_tag(tag) {
            self.node.on_timer(kind, ctx.now().as_nanos());
            self.arm(ctx, kind);
        }
        self.drain(ctx);
    }
}

/// Arm simulator timer `kind` one period from now — stretched by the
/// clock-skew `scale` — under `kind`'s tag; a no-op when `opts` leaves
/// the kind off. Every simulator actor that drives a node arms and
/// re-arms through this.
pub fn arm_timer<M>(ctx: &mut Ctx<'_, M>, kind: TimerKind, opts: &Options, scale: f64) {
    if let Some(period) = kind.scaled_period(opts, scale) {
        ctx.set_timer(
            SimDuration::from_nanos(period.as_nanos() as u64),
            kind.tag(),
        );
    }
}

/// Build a ready-to-run simulated cluster: one [`SimNode`] per topology
/// node with shared ACK-type registry, over the given network topology.
///
/// # Errors
///
/// Fails if a configured predicate does not compile.
///
/// # Panics
///
/// Panics if `net.len()` differs from the cluster topology size.
pub fn build_cluster(
    cfg: &ClusterConfig,
    net: stabilizer_netsim::NetTopology,
    seed: u64,
) -> Result<stabilizer_netsim::Simulation<SimNode>, CoreError> {
    build_cluster_with_hooks(cfg, net, seed, |_| NoHooks)
}

/// [`build_cluster`] with per-node application hooks: `mk_hooks(i)`
/// produces the [`AppHooks`] for node `i`. This is how external
/// observers (e.g. the chaos harness's invariant checker) attach to
/// every node of a cluster without changing the drivers.
///
/// # Errors
///
/// Fails if a configured predicate does not compile.
///
/// # Panics
///
/// Panics if `net.len()` differs from the cluster topology size.
pub fn build_cluster_with_hooks<H: AppHooks>(
    cfg: &ClusterConfig,
    net: stabilizer_netsim::NetTopology,
    seed: u64,
    mut mk_hooks: impl FnMut(usize) -> H,
) -> Result<stabilizer_netsim::Simulation<SimNode<H>>, CoreError> {
    assert_eq!(
        net.len(),
        cfg.num_nodes(),
        "network and cluster sizes must match"
    );
    let acks = Arc::new(AckTypeRegistry::new());
    let mut nodes = Vec::with_capacity(cfg.num_nodes());
    for i in 0..cfg.num_nodes() {
        let node = StabilizerNode::new(cfg.clone(), NodeId(i as u16), Arc::clone(&acks))?;
        nodes.push(SimNode::new(node, mk_hooks(i)));
    }
    Ok(stabilizer_netsim::Simulation::new(net, nodes, seed))
}
