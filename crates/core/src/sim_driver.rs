//! The one simulator driver: runs a sans-IO [`Machine`] — a
//! [`StabilizerNode`], or the sharded engine of `stabilizer-shard` —
//! inside the deterministic simulator. It maps the machine's actions to
//! simulated sends, schedules the periodic control-plane timers, and
//! exposes application hooks plus the timestamped [`EventLog`] that the
//! experiment harnesses read — kept by a node built with
//! [`SimNode::new`], not by one from [`build_cluster_with_hooks`], whose
//! hooks are its caller's only view.
//!
//! An application on the simulator is its state as an [`AppHooks`]
//! value plus a thin actor that embeds a [`SimNode`] of those hooks,
//! delegates `on_start`/`on_message`/`on_timer` to it, and keeps for
//! itself only what is the application's: timer tags from
//! [`TimerKind::APP_TAG_BASE`] up, messages that are not Stabilizer's,
//! its public methods. The K/V store, both pub/sub brokers, the quorum
//! register and the backup service are all that shape, so every
//! control-plane timer runs under each of them.

use crate::config::{ClusterConfig, Options};
use crate::error::CoreError;
use crate::frontier::WaitToken;
use crate::messages::WireMsg;
use crate::node::{Action, StabilizerNode};
use crate::observe::{Event, EventLog};
use crate::timers::{self, TimerKind};
use bytes::Bytes;
use stabilizer_dsl::{AckTypeId, AckTypeRegistry, NodeId, SeqNo};
use stabilizer_netsim::{
    Actor, Ctx, MsgSize, NetTopology, SimDuration, SimTime, Simulation, TimerId,
};
use std::borrow::BorrowMut;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

pub use crate::observe::{AppHooks, NoHooks};

/// What [`SimNode`] needs of a sans-IO protocol machine. Implemented by
/// exactly [`StabilizerNode`] and `stabilizer_shard::ShardedEngine`; it
/// exists so the two share one driver, not as an extension point.
pub trait Machine {
    /// What travels on a simulated link.
    type Msg: MsgSize;
    /// What the machine emits.
    type Action;
    /// The driver's log: an [`EventLog`], plus whatever machine-private
    /// logs [`Machine::observe`] keeps next to it.
    type Log: BorrowMut<EventLog>;

    /// An empty log for this machine.
    fn new_log(&self) -> Self::Log;
    /// The options the timers are armed from.
    fn options(&self) -> &Options;
    /// Feed a message that arrived from `from`.
    fn on_message(&mut self, now_nanos: u64, from: NodeId, msg: Self::Msg);
    /// A periodic timer fired.
    fn on_timer(&mut self, kind: TimerKind, now_nanos: u64);
    /// Hand over the pending actions, in order, by swapping them into
    /// `buf` — the driver's buffer, empty when passed in — and keeping
    /// `buf`'s allocation for what is emitted next, so a steady state
    /// moves two pointers per event and allocates nothing.
    fn swap_actions(&mut self, buf: &mut Vec<Self::Action>);
    /// Start §III-E catch-up; returns the number of peer streams a
    /// transfer was requested on.
    fn begin_catch_up(&mut self, now_nanos: u64) -> usize;
    /// What observers see of `action`.
    fn observe(action: &Self::Action) -> Option<Event<'_>>;
    /// The transmission `action` asks for, if it is one.
    fn into_send(action: Self::Action) -> Option<(NodeId, Self::Msg)>;
    /// [`Machine::into_send`] for a driver that keeps a log: what the
    /// log records of `action` — the node-level [`Event`], and any
    /// machine-private bookkeeping beside it — goes to `log` first,
    /// moved out of the action where the log keeps it whole.
    fn finish(
        action: Self::Action,
        now: SimTime,
        log: &mut Self::Log,
    ) -> Option<(NodeId, Self::Msg)>;

    /// See [`StabilizerNode::publish`].
    fn publish(&mut self, payload: Bytes) -> Result<SeqNo, CoreError>;
    /// See [`StabilizerNode::register_predicate`].
    fn register_predicate(&mut self, stream: NodeId, key: &str, src: &str)
        -> Result<(), CoreError>;
    /// See [`StabilizerNode::change_predicate`].
    fn change_predicate(&mut self, stream: NodeId, key: &str, src: &str) -> Result<(), CoreError>;
    /// See [`StabilizerNode::waitfor`].
    fn waitfor(&mut self, stream: NodeId, key: &str, seq: SeqNo) -> Result<WaitToken, CoreError>;
    /// See [`StabilizerNode::report_stability`].
    fn report_stability(&mut self, stream: NodeId, ty: AckTypeId, seq: SeqNo);
}

impl Machine for StabilizerNode {
    type Msg = WireMsg;
    type Action = Action;
    type Log = EventLog;

    fn new_log(&self) -> EventLog {
        EventLog::default()
    }
    fn options(&self) -> &Options {
        self.config().options()
    }
    fn on_message(&mut self, now_nanos: u64, from: NodeId, msg: WireMsg) {
        self.on_message(now_nanos, from, msg);
    }
    fn on_timer(&mut self, kind: TimerKind, now_nanos: u64) {
        self.on_timer(kind, now_nanos);
    }
    fn swap_actions(&mut self, buf: &mut Vec<Action>) {
        self.swap_actions(buf);
    }
    fn begin_catch_up(&mut self, now_nanos: u64) -> usize {
        self.begin_catch_up(now_nanos)
    }
    fn observe(action: &Action) -> Option<Event<'_>> {
        action.event()
    }
    fn into_send(action: Action) -> Option<(NodeId, WireMsg)> {
        match action {
            Action::Send { to, msg } => Some((to, msg)),
            _ => None,
        }
    }
    fn finish(action: Action, now: SimTime, log: &mut EventLog) -> Option<(NodeId, WireMsg)> {
        match action {
            Action::Frontier(update) => {
                log.frontier_log.push((now, update));
                None
            }
            other => {
                if let Some(event) = other.event() {
                    log.record(now, &event);
                }
                Self::into_send(other)
            }
        }
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
    fn report_stability(&mut self, stream: NodeId, ty: AckTypeId, seq: SeqNo) {
        self.report_stability(stream, ty, seq);
    }
}

/// A protocol machine embedded in the simulator. Dereferences to its
/// log, so `actor.frontier_log`, `actor.delivery_log`, … read the
/// [`EventLog`] directly; the log of a node built by
/// [`build_cluster_with_hooks`] stays empty.
pub struct SimNode<H: AppHooks = NoHooks, M: Machine = StabilizerNode> {
    /// The protocol state machine.
    node: M,
    /// Application hooks.
    pub hooks: H,
    log: M::Log,
    /// Whether each action is recorded into `log` after the hooks have
    /// seen it ([`Machine::finish`]) or only executed
    /// ([`Machine::into_send`]).
    keep_log: bool,
    /// Where the machine's actions land while they are executed; empty
    /// between callbacks, its capacity goes back to the machine.
    actions: Vec<M::Action>,
    /// Multiplier on every timer interval (clock-skew fault injection;
    /// 1.0 = nominal cadence). Applied at each re-arm, so a mid-run
    /// change takes effect within one timer period.
    timer_scale: f64,
}

impl<H: AppHooks, M: Machine> Deref for SimNode<H, M> {
    type Target = M::Log;

    fn deref(&self) -> &M::Log {
        &self.log
    }
}

impl<H: AppHooks, M: Machine> DerefMut for SimNode<H, M> {
    fn deref_mut(&mut self) -> &mut M::Log {
        &mut self.log
    }
}

impl<H: AppHooks, M: Machine> SimNode<H, M> {
    /// Wrap a machine with hooks; the node records what it emits into
    /// its log.
    pub fn new(node: M, hooks: H) -> Self {
        SimNode {
            log: node.new_log(),
            node,
            hooks,
            keep_log: true,
            actions: Vec::new(),
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
        self.log.borrow_mut().record_deliveries = false;
        self
    }

    /// Access the underlying state machine (for assertions).
    pub fn inner(&self) -> &M {
        &self.node
    }

    /// Mutable access for *query-only* operations outside the event loop.
    /// To perform operations that emit actions, use [`SimNode::call_in`]
    /// (or one of the `*_in` methods over it) with a simulation [`Ctx`].
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.node
    }

    /// Run `call` on the machine inside the simulation and drain what it
    /// emitted — sends, hooks, log — before returning, so no action is
    /// left behind for a later callback to find.
    pub fn call_in<R>(&mut self, ctx: &mut Ctx<'_, M::Msg>, call: impl FnOnce(&mut M) -> R) -> R {
        let result = call(&mut self.node);
        self.drain(ctx);
        result
    }

    /// Start §III-E catch-up on every peer stream (restart/join path),
    /// firing the `on_join` hook when any transfer was actually
    /// requested. Queued actions stay on the node; the caller drains
    /// them through [`SimNode::process_actions`] as usual.
    pub fn begin_catch_up_at(&mut self, now: SimTime) {
        let streams = self.node.begin_catch_up(now.as_nanos());
        if streams > 0 {
            self.hooks.on_event(now, &Event::Join { streams });
        }
    }

    /// Publish inside the simulation (drains actions into sends).
    pub fn publish_in(
        &mut self,
        ctx: &mut Ctx<'_, M::Msg>,
        payload: Bytes,
    ) -> Result<SeqNo, CoreError> {
        self.call_in(ctx, |node| node.publish(payload))
    }

    /// Register a predicate inside the simulation.
    pub fn register_predicate_in(
        &mut self,
        ctx: &mut Ctx<'_, M::Msg>,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.call_in(ctx, |node| node.register_predicate(stream, key, source))
    }

    /// Change a predicate inside the simulation.
    pub fn change_predicate_in(
        &mut self,
        ctx: &mut Ctx<'_, M::Msg>,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.call_in(ctx, |node| node.change_predicate(stream, key, source))
    }

    /// `waitfor` inside the simulation; its completion reaches the
    /// hooks as [`Event::WaitDone`], and lands in
    /// [`EventLog::completed_waits`] on a node that keeps a log.
    pub fn waitfor_in(
        &mut self,
        ctx: &mut Ctx<'_, M::Msg>,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
    ) -> Result<WaitToken, CoreError> {
        self.call_in(ctx, |node| node.waitfor(stream, key, seq))
    }

    /// Report application-defined stability inside the simulation.
    pub fn report_stability_in(
        &mut self,
        ctx: &mut Ctx<'_, M::Msg>,
        stream: NodeId,
        ty: AckTypeId,
        seq: SeqNo,
    ) {
        self.call_in(ctx, |node| node.report_stability(stream, ty, seq));
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, M::Msg>) {
        let mut actions = std::mem::take(&mut self.actions);
        self.node.swap_actions(&mut actions);
        self.process_actions(ctx, actions.drain(..));
        self.actions = actions;
    }

    /// Arm `kind` one (skewed) period from now under its tag, if it is
    /// configured.
    fn arm(&self, ctx: &mut Ctx<'_, M::Msg>, kind: TimerKind) {
        if let Some(period) = kind.scaled_period(self.node.options(), self.timer_scale) {
            ctx.set_timer(
                SimDuration::from_nanos(period.as_nanos() as u64),
                kind.tag(),
            );
        }
    }

    /// Execute a batch of externally drained actions through this
    /// driver's bookkeeping (hooks, the log if kept, sends) — what
    /// [`SimNode::call_in`] does with what its call emitted.
    pub fn process_actions(
        &mut self,
        ctx: &mut Ctx<'_, M::Msg>,
        actions: impl IntoIterator<Item = M::Action>,
    ) {
        let now = ctx.now();
        for action in actions {
            if let Some(event) = M::observe(&action) {
                self.hooks.on_event(now, &event);
            }
            let send = if self.keep_log {
                M::finish(action, now, &mut self.log)
            } else {
                M::into_send(action)
            };
            if let Some((to, msg)) = send {
                ctx.send(to.0 as usize, msg);
            }
        }
    }
}

impl<H: AppHooks, M: Machine> Actor for SimNode<H, M> {
    type Msg = M::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, M::Msg>) {
        for kind in TimerKind::ALL {
            self.arm(ctx, kind);
        }
        // Actions queued before the actor entered the event loop (e.g. a
        // restarted node's `begin_catch_up` requests) go out now.
        self.drain(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M::Msg>, from: usize, msg: M::Msg) {
        self.node
            .on_message(ctx.now().as_nanos(), NodeId(from as u16), msg);
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M::Msg>, _timer: TimerId, tag: u64) {
        if let Some(kind) = TimerKind::from_tag(tag) {
            self.node.on_timer(kind, ctx.now().as_nanos());
            self.arm(ctx, kind);
        }
        self.drain(ctx);
    }
}

/// Build a ready-to-run simulated cluster: one [`SimNode`] per topology
/// node with shared ACK-type registry, over the given network topology.
/// With no hooks to watch them, the nodes keep their logs: those are
/// the caller's view of the run.
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
    net: NetTopology,
    seed: u64,
) -> Result<Simulation<SimNode>, CoreError> {
    build_actors(cfg, net, seed, |me, acks| {
        let node = StabilizerNode::new(cfg.clone(), me, acks)?;
        Ok(SimNode::new(node, NoHooks))
    })
}

/// [`build_cluster`] with per-node application hooks: `mk_hooks(i)`
/// produces the [`AppHooks`] for node `i`. This is how an external
/// observer (e.g. a benchmark's latency recorder) attaches to every node
/// of a cluster without changing the drivers. The hooks are the
/// caller's only view: these nodes keep no [`EventLog`] (theirs stays
/// empty). A caller that reads logs as well builds its nodes with
/// [`build_actors`] and [`SimNode::new`].
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
    net: NetTopology,
    seed: u64,
    mut mk_hooks: impl FnMut(usize) -> H,
) -> Result<Simulation<SimNode<H>>, CoreError> {
    build_actors(cfg, net, seed, |me, acks| {
        let node = StabilizerNode::new(cfg.clone(), me, acks)?;
        Ok(SimNode {
            keep_log: false,
            ..SimNode::new(node, mk_hooks(me.0 as usize))
        })
    })
}

/// The one cluster-building loop: a simulation over `net` of one actor
/// per topology node, `mk(me, acks)` building node `me`'s around the
/// ACK-type registry the whole cluster shares. Every simulated
/// deployment — bare, sharded, and each application's — is built here.
///
/// # Errors
///
/// Propagates the first `mk` failure.
///
/// # Panics
///
/// Panics if `net.len()` differs from the cluster topology size.
pub fn build_actors<A: Actor>(
    cfg: &ClusterConfig,
    net: NetTopology,
    seed: u64,
    mut mk: impl FnMut(NodeId, Arc<AckTypeRegistry>) -> Result<A, CoreError>,
) -> Result<Simulation<A>, CoreError> {
    assert_eq!(
        net.len(),
        cfg.num_nodes(),
        "network and cluster sizes must match"
    );
    let acks = Arc::new(AckTypeRegistry::new());
    let actors = (0..cfg.num_nodes())
        .map(|i| mk(NodeId(i as u16), Arc::clone(&acks)))
        .collect::<Result<Vec<_>, CoreError>>()?;
    Ok(Simulation::new(net, actors, seed))
}
