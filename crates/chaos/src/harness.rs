//! The chaos harness: runs a simulated Stabilizer cluster while
//! executing a compiled [`FaultPlan`] and a timed workload, checking
//! every invariant after every simulator step.
//!
//! The run is fully determined by `(config, topology, workload, plan,
//! seed)`: faults are applied at exact virtual times interleaved with
//! the event loop (never "when convenient"), the workload is a sorted
//! schedule, and all randomness comes from the simulator's seeded RNG.

use crate::invariants::{ChaosObservable, InvariantChecker, InvariantViolation, NodeView};
use crate::plan::{FaultPlan, Op, PlanError, TimedOp};
use crate::trace::{shared_trace, ChaosObserver, SharedTrace, TraceEvent, TraceEventKind};
use bytes::Bytes;
use stabilizer_core::sim_driver::{build_cluster_with_hooks, SimNode};
use stabilizer_core::{ClusterConfig, CoreError, Snapshot, StabilizerNode};
use stabilizer_dsl::{NodeId, SeqNo, RECEIVED};
use stabilizer_netsim::{Actor, NetTopology, SimDuration, SimTime, Simulation};
use stabilizer_telemetry::Telemetry;
use std::sync::Arc;

/// Trace `node` value for cluster-wide harness actions.
const HARNESS_NODE: u16 = u16::MAX;

/// One timed workload action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkItem {
    /// `node` publishes a `len`-byte payload on its stream.
    Publish {
        /// Publishing node.
        node: usize,
        /// Payload size.
        len: usize,
    },
    /// `node` swaps the predicate under `key` for `stream` (§III-D
    /// `change_predicate`; bumps the predicate generation).
    ChangePredicate {
        /// Acting node.
        node: usize,
        /// Stream whose predicate changes.
        stream: usize,
        /// Predicate key.
        key: String,
        /// New predicate source.
        source: String,
    },
    /// `node` blocks a `waitfor` until `stream`'s frontier under `key`
    /// reaches `seq`.
    WaitFor {
        /// Waiting node.
        node: usize,
        /// Stream to wait on.
        stream: usize,
        /// Predicate key.
        key: String,
        /// Target sequence number.
        seq: SeqNo,
    },
}

/// A workload action scheduled at a virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedWork {
    /// When to act, relative to the run's start.
    pub at: SimDuration,
    /// What to do.
    pub item: WorkItem,
}

/// Setup failure (before any event runs).
#[derive(Debug)]
pub enum ChaosError {
    /// The fault plan is structurally invalid.
    Plan(PlanError),
    /// Cluster construction failed (e.g. a predicate didn't compile).
    Core(CoreError),
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Plan(e) => write!(f, "{e}"),
            ChaosError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<PlanError> for ChaosError {
    fn from(e: PlanError) -> Self {
        ChaosError::Plan(e)
    }
}

impl From<CoreError> for ChaosError {
    fn from(e: CoreError) -> Self {
        ChaosError::Core(e)
    }
}

/// Summary of a clean (violation-free) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// FNV-1a hash of the full event trace — the determinism fingerprint.
    pub trace_hash: u64,
    /// Number of trace events.
    pub trace_events: usize,
    /// Simulator steps executed.
    pub steps: u64,
    /// Messages dropped by cut links / injected loss.
    pub dropped: u64,
    /// Virtual time when the run stopped.
    pub final_time: SimTime,
}

enum ScheduledKind {
    Fault(Op),
    Work(WorkItem),
}

struct Scheduled {
    at: SimTime,
    kind: ScheduledKind,
}

/// The harness itself. Build with [`ChaosHarness::new`], run with
/// [`ChaosHarness::run`], then inspect the cluster through
/// [`ChaosHarness::sim`].
pub struct ChaosHarness {
    sim: Simulation<SimNode<ChaosObserver>>,
    cfg: ClusterConfig,
    trace: SharedTrace,
    checker: InvariantChecker,
    schedule: Vec<Scheduled>,
    next_action: usize,
    crashed: Vec<Option<Snapshot>>,
    /// Nodes that have not joined the cluster yet ([`Fault::Join`]):
    /// their links stay down and their workload is skipped until the
    /// join op boots them fresh.
    absent: Vec<bool>,
    /// Desired per-link state from partition faults, independent of
    /// crashes. The effective link `a -> b` is up iff `desired_up[a*n+b]`
    /// AND neither endpoint is crashed — so a partition healing during a
    /// crash window does not resurrect the crashed node's links, and a
    /// restart does not punch through a still-active partition.
    desired_up: Vec<bool>,
    /// Desired per-node timer-cadence multiplier from clock-skew faults.
    /// Restart and join rebuild the actor, so the harness re-applies the
    /// active skew — a reboot does not reset a node's broken clock.
    timer_scale: Vec<f64>,
    steps: u64,
    n: usize,
    telemetry: Option<Arc<Telemetry>>,
}

impl ChaosHarness {
    /// Build the cluster, compile the plan, and merge it with the
    /// workload into one deterministic schedule.
    ///
    /// # Errors
    ///
    /// Fails on an invalid plan or a config whose predicates don't
    /// compile.
    pub fn new(
        cfg: &ClusterConfig,
        net: NetTopology,
        seed: u64,
        plan: &FaultPlan,
        workload: Vec<TimedWork>,
    ) -> Result<Self, ChaosError> {
        Self::new_with_telemetry(cfg, net, seed, plan, workload, None)
    }

    /// [`ChaosHarness::new`] with an optional telemetry hub: every
    /// node's upcalls additionally feed a
    /// [`MetricsObserver`](stabilizer_telemetry::MetricsObserver), and
    /// publishes are stamped so the hub can compute publish→deliver and
    /// publish→stable latency histograms. Use a hub built with
    /// [`Telemetry::new_sim`] so timestamps stay deterministic.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ChaosHarness::new`].
    pub fn new_with_telemetry(
        cfg: &ClusterConfig,
        net: NetTopology,
        seed: u64,
        plan: &FaultPlan,
        workload: Vec<TimedWork>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Self, ChaosError> {
        let n = cfg.num_nodes();
        let ops = plan.compile(n)?;
        if let Some(t) = &telemetry {
            t.record_placement(cfg.placement());
        }
        let trace = shared_trace();
        let hook_trace = trace.clone();
        let hook_telemetry = telemetry.clone();
        let mut sim = build_cluster_with_hooks(cfg, net, seed, |i| {
            ChaosObserver::new(i as u16, hook_trace.clone()).with_metrics(
                hook_telemetry
                    .as_ref()
                    .map(|t| t.observer(NodeId(i as u16))),
            )
        })?;
        // Journal recorder writes from the very first step so the
        // invariant checker can examine only dirty cells instead of
        // rescanning every ACK table after every event.
        for i in 0..n {
            sim.actor_mut(i).inner_mut().enable_ack_journal();
        }
        if let Some(t) = &telemetry {
            // f* per key across every vantage in the cluster: the
            // weakest vantage bounds the deployment, so record the min.
            let mut min_tol = std::collections::BTreeMap::new();
            for i in 0..n {
                for (_stream, key, tol) in sim.actor(i).inner().predicate_tolerances() {
                    let e = min_tol.entry(key.to_owned()).or_insert(tol);
                    *e = (*e).min(tol);
                }
            }
            for (key, tol) in min_tol {
                t.record_predicate_tolerance(&key, tol);
            }
        }
        let types = sim.actor(0).inner().recorder().num_types();
        let mut schedule: Vec<Scheduled> = ops
            .into_iter()
            .map(|TimedOp { at, op }| Scheduled {
                at: SimTime::ZERO + at,
                kind: ScheduledKind::Fault(op),
            })
            .chain(
                workload
                    .into_iter()
                    .map(|TimedWork { at, item }| Scheduled {
                        at: SimTime::ZERO + at,
                        kind: ScheduledKind::Work(item),
                    }),
            )
            .collect();
        schedule.sort_by_key(|s| s.at); // stable: faults stay before work on ties
        let mut harness = ChaosHarness {
            sim,
            cfg: cfg.clone(),
            trace,
            checker: InvariantChecker::new(n, types).with_placement(cfg.placement().clone()),
            schedule,
            next_action: 0,
            crashed: vec![None; n],
            absent: vec![false; n],
            desired_up: vec![true; n * n],
            timer_scale: vec![1.0; n],
            steps: 0,
            n,
            telemetry,
        };
        // Late joiners are absent from the first step: cut their links
        // before any event runs (the pre-join actor idles in isolation
        // and is replaced wholesale by the join op).
        for (node, _) in plan.join_nodes() {
            harness.absent[node] = true;
            for (a, b) in FaultPlan::crash_pairs(node, n) {
                harness.sync_link(a, b);
            }
        }
        Ok(harness)
    }

    /// Reconcile the simulator's link `a -> b` with the layered state.
    fn sync_link(&mut self, a: usize, b: usize) {
        let up = self.desired_up[a * self.n + b]
            && self.crashed[a].is_none()
            && self.crashed[b].is_none()
            && !self.absent[a]
            && !self.absent[b];
        self.sim.set_link_up(a, b, up);
    }

    /// The underlying simulation (for post-run assertions).
    pub fn sim(&self) -> &Simulation<SimNode<ChaosObserver>> {
        &self.sim
    }

    /// The shared event trace.
    pub fn trace(&self) -> &SharedTrace {
        &self.trace
    }

    /// Current trace hash (the determinism fingerprint).
    pub fn trace_hash(&self) -> u64 {
        self.trace.borrow().hash()
    }

    /// Run until `horizon` (virtual time from the start), interleaving
    /// scheduled faults and workload with the event loop and checking
    /// every invariant after every step.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] detected.
    pub fn run(&mut self, horizon: SimDuration) -> Result<RunReport, InvariantViolation> {
        let deadline = SimTime::ZERO + horizon;
        loop {
            let next_action = self
                .schedule
                .get(self.next_action)
                .map(|s| s.at)
                .filter(|&t| t <= deadline);
            let next_event = self.sim.next_event_time().filter(|&t| t <= deadline);
            match (next_action, next_event) {
                // Ties go to the scheduled action: a fault at time T
                // affects every event with time >= T.
                (Some(ta), te) if te.is_none_or(|te| ta <= te) => {
                    self.apply_action()?;
                }
                (_, Some(_)) => {
                    self.sim.step();
                    self.steps += 1;
                    self.check()?;
                }
                // `(Some(_), None)` is consumed by the first arm; the
                // compiler cannot see through the guard.
                _ => break,
            }
        }
        Ok(RunReport {
            trace_hash: self.trace_hash(),
            trace_events: self.trace.borrow().len(),
            steps: self.steps,
            dropped: self.sim.dropped(),
            final_time: self.sim.now(),
        })
    }

    /// Virtual-time twin of
    /// [`ChaosTcpCluster::verify_liveness`](crate::tcp_harness::ChaosTcpCluster::verify_liveness):
    /// call after [`ChaosHarness::run`] has executed the whole schedule
    /// (every fault cleared, every crashed node restarted). Keeps
    /// stepping the simulator — safety-checking every step — until every
    /// published message has stabilized: each node's RECEIVED for every
    /// stream reaches the origin's last published sequence, and each
    /// origin's own frontier under every startup predicate reaches it
    /// too. The wait is bounded by `bound` of *virtual* time past the
    /// current simulator clock, so a stalled cluster fails fast and
    /// deterministically instead of wall-clock hanging.
    ///
    /// # Errors
    ///
    /// A `post-fault-liveness` violation naming the first lagging node,
    /// or any safety violation observed while waiting.
    pub fn verify_liveness(&mut self, bound: SimDuration) -> Result<(), InvariantViolation> {
        let keys: Vec<String> = self.cfg.predicates().map(|(k, _)| k.to_owned()).collect();
        let targets: Vec<SeqNo> = (0..self.n)
            .map(|s| self.sim.actor(s).inner().last_published())
            .collect();
        let until = self.sim.now() + bound;
        loop {
            match self.liveness_gap(&keys, &targets) {
                None => return Ok(()),
                Some((node, detail)) => {
                    // Timers re-arm forever, so the queue only runs dry
                    // past `until`; either way the gap is now a verdict.
                    if self.sim.next_event_time().filter(|&t| t <= until).is_none() {
                        return Err(InvariantViolation {
                            at: self.sim.now(),
                            node,
                            property: "post-fault-liveness",
                            detail: format!("{detail}{}", self.render_blame()),
                        });
                    }
                    self.sim.step();
                    self.steps += 1;
                    self.check()?;
                }
            }
        }
    }

    /// Frontier blame from every node's diagnoser, tagged with the
    /// observing node.
    pub fn stall_reports(&self) -> Vec<(u16, stabilizer_core::StallReport)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for report in self.sim.actor(i).inner().explain_all() {
                out.push((i as u16, report));
            }
        }
        out
    }

    /// One-line blame summary of every stalled frontier, appended to
    /// `post-fault-liveness` violations so the failure names the actual
    /// culprit (node, stream) pairs instead of just the first laggard.
    fn render_blame(&self) -> String {
        let stalled: Vec<String> = self
            .stall_reports()
            .iter()
            .filter(|(_, r)| r.stalled)
            .map(|(i, r)| format!("node {i} sees: {}", r.render_human()))
            .collect();
        if stalled.is_empty() {
            String::new()
        } else {
            format!("; blame: {}", stalled.join(" | "))
        }
    }

    /// The first node still short of full stabilization, if any. Only a
    /// stream's replicas are expected to (or allowed to) receive it, so
    /// the per-node scan is scoped to the replica set.
    fn liveness_gap(&self, keys: &[String], targets: &[SeqNo]) -> Option<(u16, String)> {
        let placement = self.cfg.placement();
        for (s, &target) in targets.iter().enumerate() {
            if target == 0 {
                continue;
            }
            let stream = NodeId(s as u16);
            for i in 0..self.n {
                if i == s || !placement.is_replica(stream, NodeId(i as u16)) {
                    continue;
                }
                let got =
                    self.sim
                        .actor(i)
                        .inner()
                        .recorder()
                        .get(stream, NodeId(i as u16), RECEIVED);
                if got < target {
                    return Some((
                        i as u16,
                        format!(
                            "node {i} has received only {got}/{target} of stream {s} \
                             after faults cleared"
                        ),
                    ));
                }
            }
            for key in keys {
                let frontier = self
                    .sim
                    .actor(s)
                    .inner()
                    .stability_frontier(stream, key)
                    .map(|(seq, _gen)| seq)
                    .unwrap_or(0);
                if frontier < target {
                    return Some((
                        s as u16,
                        format!(
                            "origin {s}'s frontier for predicate {key} is {frontier}/{target} \
                             after faults cleared"
                        ),
                    ));
                }
            }
        }
        None
    }

    fn check(&mut self) -> Result<(), InvariantViolation> {
        let now = self.sim.now();
        // Drain each node's dirty-cell journal first (mutable pass),
        // then build the immutable views the checker consumes.
        let dirty: Vec<Vec<_>> = (0..self.n)
            .map(|i| self.sim.actor_mut(i).inner_mut().take_ack_journal())
            .collect();
        let sim = &self.sim;
        let views: Vec<NodeView<'_>> = (0..self.n)
            .zip(dirty)
            .map(|(i, d)| NodeView {
                dirty: Some(d),
                ..sim.actor(i).chaos_view()
            })
            .collect();
        self.checker.check(now, &views)
    }

    fn note(&mut self, at: SimTime, node: u16, what: String) {
        self.trace.borrow_mut().events.push(TraceEvent {
            at_nanos: at.as_nanos(),
            node,
            kind: TraceEventKind::Harness { what },
        });
    }

    fn apply_action(&mut self) -> Result<(), InvariantViolation> {
        let Scheduled { at, kind } = &self.schedule[self.next_action];
        let at = *at;
        self.next_action += 1;
        // `kind` borrows self.schedule; clone the small payload out so
        // the mutating appliers below can borrow self freely.
        match kind {
            ScheduledKind::Fault(op) => {
                let op = op.clone();
                self.apply_fault(at, op)?;
            }
            ScheduledKind::Work(item) => {
                let item = item.clone();
                self.apply_work(at, item);
            }
        }
        self.check()
    }

    fn apply_fault(&mut self, at: SimTime, op: Op) -> Result<(), InvariantViolation> {
        match op {
            Op::SetLinks { pairs, up } => {
                for &(a, b) in &pairs {
                    self.desired_up[a * self.n + b] = up;
                    self.sync_link(a, b);
                }
                self.note(
                    at,
                    HARNESS_NODE,
                    format!(
                        "links {} ({} pairs)",
                        if up { "up" } else { "down" },
                        pairs.len()
                    ),
                );
            }
            Op::SetLoss {
                from,
                to,
                probability,
            } => {
                self.sim.set_link_loss(from, to, probability);
                self.note(
                    at,
                    from as u16,
                    format!("loss {from}->{to} = {probability}"),
                );
            }
            Op::SetEgress {
                node,
                bytes_per_sec,
            } => {
                self.sim.set_egress_limit(node, bytes_per_sec);
                self.note(
                    at,
                    node as u16,
                    format!("egress {node} = {bytes_per_sec} B/s"),
                );
            }
            Op::SetDelay { from, to, extra } => {
                self.sim.set_link_extra_delay(from, to, extra);
                self.note(at, from as u16, format!("delay {from}->{to} += {extra}"));
            }
            Op::SetTimerScale { node, scale } => {
                self.timer_scale[node] = scale;
                self.sim.actor_mut(node).set_timer_scale(scale);
                self.note(at, node as u16, format!("timer scale {node} = {scale}"));
            }
            Op::SetDupReorder {
                from,
                to,
                dup,
                reorder,
            } => {
                self.sim.set_link_dup_reorder(from, to, dup, reorder);
                self.note(
                    at,
                    from as u16,
                    format!("dup/reorder {from}->{to} = {dup}/{reorder}"),
                );
            }
            Op::ForgeAck { node, ahead } => self.forge_ack(at, node, ahead),
            Op::Crash { node } => self.crash(at, node),
            Op::Restart { node } => self.restart(at, node),
            Op::Join { node } => self.join(at, node),
        }
        Ok(())
    }

    /// Byzantine ACK forgery: the node broadcasts an `AckBatch` claiming
    /// every stream reached `ahead` past what it actually received. Its
    /// own recorder is untouched — receivers' journaled belief writes are
    /// what the `belief-beyond-truth` invariant must flag.
    fn forge_ack(&mut self, at: SimTime, node: usize, ahead: u64) {
        if self.crashed[node].is_some() || self.absent[node] {
            self.note(at, node as u16, "forge_ack skipped (node down)".to_string());
            return;
        }
        let n = self.n;
        self.sim.with_ctx(node, |actor, ctx| {
            let me = NodeId(node as u16);
            let batch: Vec<stabilizer_core::Ack> = (0..n)
                .map(|s| {
                    let stream = NodeId(s as u16);
                    let truth = actor.inner().recorder().get(stream, me, RECEIVED);
                    stabilizer_core::Ack {
                        stream,
                        ty: RECEIVED,
                        seq: truth + ahead,
                    }
                })
                .collect();
            for peer in 0..n {
                if peer != node {
                    ctx.send(peer, stabilizer_core::WireMsg::AckBatch(batch.clone()));
                }
            }
        });
        self.note(at, node as u16, format!("forge_ack {node} ahead {ahead}"));
    }

    /// Crash: persist the control plane through the byte format (what
    /// the integrated storage system would store), then cut the node off.
    /// The old actor keeps consuming in-flight messages as a "zombie",
    /// but nothing it does escapes (links down) or survives (the restart
    /// rebuilds from the snapshot).
    fn crash(&mut self, at: SimTime, node: usize) {
        let snapshot = self.sim.actor(node).inner().snapshot();
        let snapshot =
            Snapshot::from_bytes(&snapshot.to_bytes()).expect("snapshot byte format round-trips");
        self.crashed[node] = Some(snapshot);
        for (a, b) in FaultPlan::crash_pairs(node, self.n) {
            self.sync_link(a, b);
        }
        self.note(at, node as u16, format!("crash {node}"));
    }

    /// Restart: rebuild from the snapshot, fast-forward each remote
    /// stream to the snapshot's RECEIVED cell (§III-E state transfer —
    /// the mirror recovers everything it had durably acknowledged from
    /// the integrated storage system), reconnect, and re-arm timers.
    fn restart(&mut self, at: SimTime, node: usize) {
        let snapshot = self.crashed[node]
            .take()
            .expect("plan validation guarantees restart follows crash");
        let acks = Arc::clone(self.sim.actor(node).inner().ack_types());
        let mut restored =
            StabilizerNode::restore(self.cfg.clone(), NodeId(node as u16), acks, snapshot)
                .expect("predicates compiled at startup recompile on restore");
        for s in 0..self.n {
            if s == node {
                continue;
            }
            let high = restored
                .recorder()
                .get(NodeId(s as u16), NodeId(node as u16), RECEIVED);
            restored.fast_forward_stream(NodeId(s as u16), high);
        }
        let observer = ChaosObserver::new(node as u16, self.trace.clone()).with_metrics(
            self.telemetry
                .as_ref()
                .map(|t| t.observer(NodeId(node as u16))),
        );
        let mut fresh = SimNode::new(restored, observer);
        // A reboot does not fix a skewed clock: the timers the restart
        // arms below must already run at the faulted cadence.
        if self.timer_scale[node] != 1.0 {
            fresh.set_timer_scale(self.timer_scale[node]);
        }
        self.sim.replace_actor(node, fresh);
        // `crashed[node]` was taken above, so sync restores each link to
        // its partition-desired state (not unconditionally up).
        for (a, b) in FaultPlan::crash_pairs(node, self.n) {
            self.sync_link(a, b);
        }
        // `replace_actor` does not re-run the actor lifecycle: dispatch
        // `on_start` manually to re-arm the periodic timers, begin
        // §III-E catch-up (a no-op unless `transfer_millis` is set),
        // and drain the actions the restore + fast-forward queued up.
        self.sim.with_ctx(node, |actor, ctx| {
            actor.on_start(ctx);
            actor.begin_catch_up_at(ctx.now());
            let actions = actor.inner_mut().take_actions();
            actor.process_actions(ctx, actions);
        });
        self.checker
            .note_restart(node, self.sim.actor(node).inner());
        // The fresh machine starts with journaling off; the resync above
        // re-baselined the shadow, so journaling resumes from here.
        self.sim.actor_mut(node).inner_mut().enable_ack_journal();
        self.note(at, node as u16, format!("restart {node}"));
    }

    /// Join: boot a brand-new, history-less node into the running
    /// cluster. The node gets the cluster configuration (the
    /// "distribution" step of a membership change), opens its links, and
    /// starts §III-E catch-up against every live stream.
    fn join(&mut self, at: SimTime, node: usize) {
        let acks = Arc::clone(self.sim.actor(node).inner().ack_types());
        let fresh = StabilizerNode::new(self.cfg.clone(), NodeId(node as u16), acks)
            .expect("predicates compiled at startup recompile on join");
        let observer = ChaosObserver::new(node as u16, self.trace.clone()).with_metrics(
            self.telemetry
                .as_ref()
                .map(|t| t.observer(NodeId(node as u16))),
        );
        let mut booted = SimNode::new(fresh, observer);
        if self.timer_scale[node] != 1.0 {
            booted.set_timer_scale(self.timer_scale[node]);
        }
        self.sim.replace_actor(node, booted);
        self.absent[node] = false;
        for (a, b) in FaultPlan::crash_pairs(node, self.n) {
            self.sync_link(a, b);
        }
        self.sim.with_ctx(node, |actor, ctx| {
            actor.on_start(ctx);
            actor.begin_catch_up_at(ctx.now());
            let actions = actor.inner_mut().take_actions();
            actor.process_actions(ctx, actions);
        });
        self.checker
            .note_restart(node, self.sim.actor(node).inner());
        self.sim.actor_mut(node).inner_mut().enable_ack_journal();
        self.note(at, node as u16, format!("join {node}"));
    }

    fn apply_work(&mut self, at: SimTime, item: WorkItem) {
        let node = match &item {
            WorkItem::Publish { node, .. }
            | WorkItem::ChangePredicate { node, .. }
            | WorkItem::WaitFor { node, .. } => *node,
        };
        if self.crashed[node].is_some() || self.absent[node] {
            self.note(at, node as u16, format!("skipped (node down): {item:?}"));
            return;
        }
        match item {
            WorkItem::Publish { node, len } => {
                let fill = (node as u8).wrapping_add(len as u8);
                let res = self.sim.with_ctx(node, |actor, ctx| {
                    actor.publish_in(ctx, Bytes::from(vec![fill; len]))
                });
                match res {
                    Ok(seq) => {
                        if let Some(t) = &self.telemetry {
                            t.note_publish(at.as_nanos(), NodeId(node as u16), seq, len);
                        }
                        self.note(at, node as u16, format!("publish seq {seq} ({len} B)"));
                    }
                    // Backpressure (buffer full under a partition) is a
                    // legitimate outcome, not a failure.
                    Err(e) => self.note(at, node as u16, format!("publish refused: {e}")),
                }
            }
            WorkItem::ChangePredicate {
                node,
                stream,
                key,
                source,
            } => {
                let res = self.sim.with_ctx(node, |actor, ctx| {
                    actor.change_predicate_in(ctx, NodeId(stream as u16), &key, &source)
                });
                match res {
                    Ok(()) => self.note(
                        at,
                        node as u16,
                        format!("change_predicate stream {stream} key {key} to {source}"),
                    ),
                    Err(e) => self.note(at, node as u16, format!("change_predicate refused: {e}")),
                }
            }
            WorkItem::WaitFor {
                node,
                stream,
                key,
                seq,
            } => {
                let res = self.sim.with_ctx(node, |actor, ctx| {
                    actor.waitfor_in(ctx, NodeId(stream as u16), &key, seq)
                });
                match res {
                    Ok(token) => self.note(
                        at,
                        node as u16,
                        format!("waitfor stream {stream} key {key} seq {seq} -> token {token}"),
                    ),
                    Err(e) => self.note(at, node as u16, format!("waitfor refused: {e}")),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fault, FaultEvent};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn small_cfg() -> ClusterConfig {
        ClusterConfig::parse(
            "az A n0 n1\naz B n2\n\
             predicate All MIN($ALLWNODES-$MYWNODE)\n\
             option ack_flush_micros 1000\n\
             option heartbeat_millis 50\n\
             option retransmit_millis 100\n",
        )
        .unwrap()
    }

    fn publishes(node: usize, n: usize, every: u64) -> Vec<TimedWork> {
        (0..n)
            .map(|i| TimedWork {
                at: SimDuration::from_millis(10 + i as u64 * every),
                item: WorkItem::Publish { node, len: 64 },
            })
            .collect()
    }

    #[test]
    fn clean_run_is_violation_free_and_delivers() {
        let cfg = small_cfg();
        let net = NetTopology::full_mesh(3, ms(5), 1e9);
        let mut h =
            ChaosHarness::new(&cfg, net, 7, &FaultPlan::default(), publishes(0, 10, 20)).unwrap();
        let report = h.run(ms(800)).unwrap();
        assert!(report.steps > 0);
        // Every peer delivered the whole stream.
        for i in 1..3 {
            assert_eq!(
                h.sim().actor(i).inner().recorder().get(
                    NodeId(0),
                    NodeId(i as u16),
                    stabilizer_dsl::DELIVERED
                ),
                10
            );
        }
    }

    #[test]
    fn crash_restart_preserves_invariants_and_stream() {
        let cfg = small_cfg();
        let net = NetTopology::full_mesh(3, ms(5), 1e9);
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at: ms(100),
                fault: Fault::CrashRestart {
                    node: 2,
                    down_for: ms(150),
                },
            }],
        };
        let mut h = ChaosHarness::new(&cfg, net, 11, &plan, publishes(0, 12, 40)).unwrap();
        let report = h.run(ms(1500)).unwrap();
        assert!(report.dropped > 0, "the crash window should drop traffic");
        // The restarted node caught back up via retransmission.
        assert_eq!(
            h.sim().actor(2).inner().recorder().get(
                NodeId(0),
                NodeId(2),
                stabilizer_dsl::DELIVERED
            ),
            12
        );
    }

    #[test]
    fn identical_runs_have_identical_trace_hashes() {
        let run = || {
            let cfg = small_cfg();
            let net = NetTopology::full_mesh(3, ms(5), 1e9);
            let plan = FaultPlan {
                events: vec![FaultEvent {
                    at: ms(50),
                    fault: Fault::Partition {
                        side: vec![0],
                        heal_after: ms(100),
                    },
                }],
            };
            let mut h = ChaosHarness::new(&cfg, net, 42, &plan, publishes(1, 8, 25)).unwrap();
            h.run(ms(1000)).unwrap().trace_hash
        };
        assert_eq!(run(), run());
    }
}
