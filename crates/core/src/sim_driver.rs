//! The one simulator driver: runs a sans-IO [`StabilizerNode`] inside
//! the deterministic simulator. It maps the node's actions to simulated
//! sends, schedules the periodic control-plane timers, and exposes
//! application hooks plus the timestamped [`EventLog`] that the
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

use crate::config::ClusterConfig;
use crate::error::CoreError;
use crate::frontier::WaitToken;
use crate::messages::WireMsg;
use crate::node::{Action, StabilizerNode};
use crate::observe::{Event, EventLog};
use crate::timers::{self, TimerKind};
use bytes::Bytes;
use stabilizer_dsl::{AckTypeRegistry, NodeId, SeqNo};
use stabilizer_netsim::{Actor, Ctx, NetTopology, SimDuration, SimTime, Simulation, TimerId};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

pub use crate::observe::{AppHooks, NoHooks};

/// A Stabilizer node embedded in the simulator. Dereferences to its
/// log, so `actor.frontier_log`, `actor.delivery_log`,
/// `actor.suspicion_log` and `actor.completed_waits` read the
/// [`EventLog`] directly; the log of a node built by
/// [`build_cluster_with_hooks`] stays empty.
pub struct SimNode<H: AppHooks = NoHooks> {
    /// The protocol state machine.
    node: StabilizerNode,
    /// Application hooks.
    pub hooks: H,
    log: EventLog,
    /// Whether each action is recorded into `log` after the hooks have
    /// seen it, or only executed.
    keep_log: bool,
    /// Where the node's actions land while they are executed; empty
    /// between callbacks, its capacity goes back to the node.
    actions: Vec<Action>,
    /// Multiplier on every timer interval (clock-skew fault injection;
    /// 1.0 = nominal cadence). Applied at each re-arm, so a mid-run
    /// change takes effect within one timer period.
    timer_scale: f64,
}

impl<H: AppHooks> Deref for SimNode<H> {
    type Target = EventLog;

    fn deref(&self) -> &EventLog {
        &self.log
    }
}

impl<H: AppHooks> DerefMut for SimNode<H> {
    fn deref_mut(&mut self) -> &mut EventLog {
        &mut self.log
    }
}

impl<H: AppHooks> SimNode<H> {
    /// Wrap a node with hooks; the node records what it emits into its
    /// log.
    pub fn new(node: StabilizerNode, hooks: H) -> Self {
        SimNode {
            log: EventLog::default(),
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

    /// Disable the delivery log, catch-ups included (for
    /// multi-hundred-thousand-message runs where only the frontier log
    /// matters).
    pub fn without_delivery_log(mut self) -> Self {
        self.log.record_deliveries = false;
        self
    }

    /// Access the underlying state machine (for assertions).
    pub fn inner(&self) -> &StabilizerNode {
        &self.node
    }

    /// Mutable access for *query-only* operations outside the event loop.
    /// To perform operations that emit actions, use [`SimNode::call_in`]
    /// (or one of the `*_in` methods over it) with a simulation [`Ctx`].
    pub fn inner_mut(&mut self) -> &mut StabilizerNode {
        &mut self.node
    }

    /// Run `call` on the node inside the simulation and drain what it
    /// emitted — sends, hooks, log — before returning, so no action is
    /// left behind for a later callback to find.
    pub fn call_in<R>(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        call: impl FnOnce(&mut StabilizerNode) -> R,
    ) -> R {
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
        ctx: &mut Ctx<'_, WireMsg>,
        payload: Bytes,
    ) -> Result<SeqNo, CoreError> {
        self.call_in(ctx, |node| node.publish(payload))
    }

    /// Register a predicate inside the simulation.
    pub fn register_predicate_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.call_in(ctx, |node| node.register_predicate(stream, key, source))
    }

    /// Change a predicate inside the simulation.
    pub fn change_predicate_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
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
        ctx: &mut Ctx<'_, WireMsg>,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
    ) -> Result<WaitToken, CoreError> {
        self.call_in(ctx, |node| node.waitfor(stream, key, seq))
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let mut actions = std::mem::take(&mut self.actions);
        self.node.swap_actions(&mut actions);
        self.process_actions(ctx, actions.drain(..));
        self.actions = actions;
    }

    /// Arm `kind` one (skewed) period from now under its tag, if it is
    /// configured.
    fn arm(&self, ctx: &mut Ctx<'_, WireMsg>, kind: TimerKind) {
        if let Some(period) = kind.scaled_period(self.node.config().options(), self.timer_scale) {
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
        ctx: &mut Ctx<'_, WireMsg>,
        actions: impl IntoIterator<Item = Action>,
    ) {
        let now = ctx.now();
        for action in actions {
            if let Some(event) = action.event() {
                self.hooks.on_event(now, &event);
                if self.keep_log && !matches!(action, Action::Frontier(_)) {
                    self.log.record(now, &event);
                }
            }
            match action {
                Action::Send { to, msg } => ctx.send(to.0 as usize, msg),
                // The log keeps the update the hooks saw, moved, not
                // cloned: no allocation per frontier advance.
                Action::Frontier(update) if self.keep_log => {
                    self.log.frontier_log.push((now, update));
                }
                _ => {}
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
/// deployment — bare and each application's — is built here.
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
