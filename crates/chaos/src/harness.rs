//! The chaos harness: runs a Stabilizer cluster while executing a
//! compiled [`FaultPlan`] and a timed workload, checking every invariant
//! as it goes — once, over two runtimes.
//!
//! [`Chaos<B>`] owns everything the runtime does not decide; a
//! [`Backend`] supplies the primitives that really differ. The two
//! instantiations are [`ChaosHarness`](crate::ChaosHarness) (the
//! deterministic simulator, [`crate::sim_harness`]) and
//! [`ChaosTcpCluster`](crate::ChaosTcpCluster) (the real transport on
//! the in-memory net, [`crate::tcp_harness`]).
//!
//! ## The backend contract
//!
//! | | shared ([`Chaos`]) | simulator ([`SimBackend`](crate::SimBackend)) | TCP ([`TcpBackend`](crate::TcpBackend)) |
//! |---|---|---|---|
//! | **Plan compile** | `FaultPlan::compile`, before anything is built | — | — |
//! | **Schedule order** | faults + workload merged by time, faults before work on ties; actions past the horizon are not applied | an action goes before the events of its own instant | the same, with every node's clock moved to the action's instant |
//! | **Layering** | link `a → b` is up iff the partition state wants it AND neither end is down (crashed or not yet joined); clock skew per node | — | — |
//! | **Reboot order** | new incarnation → re-apply skew → resync checker → journal on → open links → catch-up; restart and join are the same path, with or without a snapshot | actor rebuilt and fast-forwarded, `on_start` runs at "catch-up" | a fresh endpoint, `spawn_node_on`; a restored spawn requests catch-up itself |
//! | **Checker** | one [`InvariantChecker`] over one consistent cut per check | views straight from the actors | every node's state locked in index order |
//! | **Liveness verdict** | `post-fault-liveness`, gap and blame rendering | — | — |
//! | **Payload fill** | `node + len` (wrapping), so differential runs publish identical bytes | — | — |
//! | **Network** | — | `Simulation` links | `MemNet` |
//! | **Clock** | virtual: advancing = one simulator step | — | — |
//! | **Crash mechanics** | links cut first, snapshot round-trips the byte format | snapshot the actor; it lives on as a cut-off zombie | snapshot, shut down, kill the connections; the handle lives on as a zombie |
//! | **Trace hashing** | note strings, order and node, with every upcall, into one unbounded telemetry `TraceRing`, hashed by [`trace_hash`] | — | — |
//!
//! A run is fully determined by `(config, topology, workload, plan,
//! seed)`, on either backend: faults are applied at exact virtual times
//! interleaved with the event loop (never "when convenient"), the
//! workload is a sorted schedule, and all randomness comes from the
//! simulator's seeded RNG. Runs of the same inputs on the two backends
//! must reach the same **verdict** and converge to the same final
//! protocol state ([`FinalState`]).

use crate::invariants::{InvariantChecker, InvariantViolation, NodeView};
use crate::plan::{FaultPlan, Op, PlanError, TimedOp};
use crate::trace::trace_hash;
use bytes::Bytes;
use stabilizer_core::{
    Ack, ClusterConfig, CoreError, EventLog, Snapshot, StabilizerNode, StallReport, WaitToken,
    WireMsg,
};
use stabilizer_dsl::{NodeId, SeqNo, RECEIVED};
use stabilizer_netsim::{SimDuration, SimTime};
use stabilizer_telemetry::{Telemetry, TraceEvent, TraceKind, TraceRing};
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
    /// `node` registers a `waitfor` on `stream`'s frontier under `key`
    /// reaching `seq` (non-blocking; completion is an observer event).
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

/// A workload action scheduled at a time since the run's start.
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
    /// Cluster construction failed (e.g. a predicate didn't compile, or
    /// a socket could not be set up).
    Core(CoreError),
    /// The telemetry hub keeps wall-clock time, which would overwrite
    /// every virtual timestamp of the run.
    WallClockHub,
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Plan(e) => write!(f, "{e}"),
            ChaosError::Core(e) => write!(f, "{e}"),
            ChaosError::WallClockHub => write!(
                f,
                "a chaos run keeps virtual time: attach a hub built with \
                 `Telemetry::new_sim`, not `Telemetry::new_wall_clock`"
            ),
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

/// What [`Backend::advance`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// Nothing ran: the next scheduled action is due and goes first.
    ActionDue,
    /// Time passed (one simulator step); the cluster may have changed
    /// and wants a check.
    Stepped,
    /// The deadline is reached with no action due before it.
    Done,
}

/// Summary of a clean (violation-free) run, on either backend.
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

/// The primitives a runtime supplies to [`Chaos`]. Every method is a
/// single mechanical step; *when* and *in which order* they are called
/// — the layering and reboot rules in the [module table](self) — is
/// the harness's business, which is what lets a recording stub pin
/// those rules without a network.
///
/// Times are [`SimTime`] since the start of the run, virtual on both.
pub trait Backend {
    /// Time since the start of the run (the checker's timestamp).
    fn now(&self) -> SimTime;
    /// Let the cluster run, at most up to `deadline`, without passing
    /// `next_action` (the time of the next scheduled action, when one
    /// falls before the deadline).
    fn advance(&mut self, next_action: Option<SimTime>, deadline: SimTime) -> Advance;
    /// Frames the network has dropped so far (cut links, injected loss).
    fn dropped(&self) -> u64;

    /// Pass (`true`) or cut (`false`) traffic on the directed link.
    fn set_link_up(&mut self, from: usize, to: usize, up: bool);
    /// Per-message loss probability on the directed link (0 clears).
    fn set_loss(&mut self, from: usize, to: usize, probability: f64);
    /// Cap `node`'s total egress rate.
    fn set_egress(&mut self, node: usize, bytes_per_sec: f64);
    /// Extra one-way delay on the directed link (ZERO clears).
    fn set_delay(&mut self, from: usize, to: usize, extra: SimDuration);
    /// Duplicate/reorder probabilities on the directed link.
    fn set_dup_reorder(&mut self, from: usize, to: usize, dup: f64, reorder: f64);
    /// Hand `msg` to `to` as if `from` had sent it (forged traffic).
    fn inject(&mut self, from: usize, to: usize, msg: WireMsg);

    /// Start every node. Called once, after the links of late joiners
    /// are cut: a TCP placeholder's first turn dials, and its connects
    /// must wait on the cut. (The simulator's actors exist from
    /// construction, and nothing runs before the first step.)
    ///
    /// # Errors
    ///
    /// A node could not be started.
    fn launch(&mut self) -> Result<(), ChaosError> {
        Ok(())
    }
    /// Scale `node`'s timer cadence (1.0 = nominal).
    fn set_timer_scale(&mut self, node: usize, scale: f64);
    /// Stop `node`, whose links are already cut, and return its
    /// control-plane snapshot. The dead incarnation stays viewable.
    fn crash(&mut self, node: usize) -> Snapshot;
    /// Replace `node` with a new incarnation — restored from `snapshot`,
    /// or history-less without one. Its links are still cut.
    fn boot(&mut self, node: usize, snapshot: Option<Snapshot>);
    /// The links of the incarnation [`Backend::boot`] made are open:
    /// let it talk and begin §III-E catch-up. `restored` tells a runtime
    /// whose restore path requests catch-up itself not to ask twice.
    fn begin_catch_up(&mut self, node: usize, restored: bool);
    /// Journal `node`'s recorder writes from here on, so checks examine
    /// dirty cells only.
    fn enable_ack_journal(&mut self, node: usize);

    /// `node` publishes `payload` on its stream.
    ///
    /// # Errors
    ///
    /// Backpressure, as the node reports it.
    fn publish(&mut self, node: usize, payload: Bytes) -> Result<SeqNo, CoreError>;
    /// `node` swaps the predicate under `(stream, key)`.
    ///
    /// # Errors
    ///
    /// The node's refusal (unknown key, predicate does not compile).
    fn change_predicate(
        &mut self,
        node: usize,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError>;
    /// `node` registers a non-blocking `waitfor`.
    ///
    /// # Errors
    ///
    /// The node's refusal (unknown key).
    fn waitfor(
        &mut self,
        node: usize,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
    ) -> Result<WaitToken, CoreError>;

    /// Read `node`'s current incarnation: its state machine and the log
    /// of what it observed.
    fn with_node<R>(&self, node: usize, f: impl FnOnce(&StabilizerNode, &EventLog) -> R) -> R;
    /// One consistent cut of the whole cluster, as the checker's views
    /// (`views[i]` is node `i`, carrying the ACK journal drained since
    /// the previous cut).
    fn with_cut<R>(&mut self, f: impl FnOnce(&[NodeView<'_>]) -> R) -> R;
}

/// Converged protocol state of one run — everything the protocol
/// defines, nothing the runtime's interleaving decides — for
/// differential comparison across backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalState {
    /// `deliveries[node][origin]`: the sequence numbers the node's
    /// current incarnation delivered from `origin`, in upcall order.
    pub deliveries: Vec<Vec<Vec<SeqNo>>>,
    /// `received[node][stream]`: every node's own RECEIVED cell.
    pub received: Vec<Vec<SeqNo>>,
    /// `frontiers[origin]`: each origin's frontier for its own stream
    /// under the queried key (0 when the key is not installed).
    pub frontiers: Vec<SeqNo>,
}

enum ScheduledKind {
    Fault(Op),
    Work(WorkItem),
}

struct Scheduled {
    at: SimTime,
    kind: ScheduledKind,
}

/// The harness itself, over backend `B`. Build it through the
/// constructors of [`ChaosHarness`](crate::ChaosHarness) or
/// [`ChaosTcpCluster`](crate::ChaosTcpCluster), [`Chaos::run`] it, then
/// optionally [`Chaos::verify_liveness`] and inspect the cluster through
/// the query methods.
pub struct Chaos<B: Backend> {
    pub(crate) backend: B,
    cfg: ClusterConfig,
    n: usize,
    checker: InvariantChecker,
    schedule: Vec<Scheduled>,
    next_action: usize,
    /// What each node reboots from: a snapshot persisted ahead of a
    /// lagged crash, then its crash snapshot while it is down.
    snapshots: Vec<Option<Snapshot>>,
    /// Nodes that are not part of the running cluster: crashed, or not
    /// yet joined ([`Fault::Join`](crate::Fault::Join)). Their links stay
    /// cut and their workload is skipped.
    down: Vec<bool>,
    /// Desired per-link state from partition faults, independent of
    /// `down`. The effective link `a -> b` is up iff `desired_up[a*n+b]`
    /// AND neither endpoint is down — so a partition healing during a
    /// crash window does not resurrect the crashed node's links, and a
    /// restart does not punch through a still-active partition.
    desired_up: Vec<bool>,
    /// Desired per-node timer-cadence multiplier from clock-skew faults.
    /// A reboot builds a new incarnation, so the harness re-applies the
    /// active skew — a reboot does not reset a node's broken clock.
    timer_scale: Vec<f64>,
    telemetry: Option<Arc<Telemetry>>,
    /// Every upcall, fault and workload action of the run, hashed.
    trace: Arc<TraceRing>,
}

impl<B: Backend> Chaos<B> {
    /// Compile the plan, merge it with the workload into one schedule,
    /// build the backend and bring the cluster up with late joiners
    /// isolated.
    pub(crate) fn assemble(
        cfg: &ClusterConfig,
        plan: &FaultPlan,
        workload: Vec<TimedWork>,
        telemetry: Option<Arc<Telemetry>>,
        backend: impl FnOnce(&Arc<TraceRing>) -> Result<B, ChaosError>,
    ) -> Result<Self, ChaosError> {
        if telemetry.as_ref().is_some_and(|t| t.is_wall_clock()) {
            return Err(ChaosError::WallClockHub);
        }
        let n = cfg.num_nodes();
        let ops = plan.compile(n)?;
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
        let trace = Arc::new(TraceRing::new(usize::MAX));
        let mut backend = backend(&trace)?;
        // Late joiners are absent from the first instant: cut their
        // links before any node runs (the placeholder incarnation idles
        // in isolation and is replaced wholesale by the join op). No
        // partition is active yet, so "down" is the whole layering rule.
        let mut down = vec![false; n];
        for (node, _) in plan.join_nodes() {
            down[node] = true;
            for (a, b) in FaultPlan::crash_pairs(node, n) {
                backend.set_link_up(a, b, false);
            }
        }
        backend.launch()?;
        for i in 0..n {
            backend.enable_ack_journal(i);
        }
        let types = backend.with_node(0, |node, _| node.recorder().num_types());
        Ok(Chaos {
            backend,
            cfg: cfg.clone(),
            n,
            checker: InvariantChecker::new(n, types).with_placement(cfg.placement().clone()),
            schedule,
            next_action: 0,
            snapshots: vec![None; n],
            down,
            desired_up: vec![true; n * n],
            timer_scale: vec![1.0; n],
            telemetry,
            trace,
        })
    }

    /// Current trace hash (the determinism fingerprint).
    pub fn trace_hash(&self) -> u64 {
        trace_hash(&self.trace.snapshot())
    }

    /// Append a harness note to the trace.
    fn note(&mut self, at: SimTime, node: u16, what: String) {
        self.trace.push(TraceEvent {
            at_nanos: at.as_nanos(),
            node: NodeId(node),
            kind: TraceKind::Note { what },
        });
    }

    /// Reconcile the backend's link `a -> b` with the layered state.
    fn sync_link(&mut self, a: usize, b: usize) {
        let up = self.desired_up[a * self.n + b] && !self.down[a] && !self.down[b];
        self.backend.set_link_up(a, b, up);
    }

    fn sync_links_of(&mut self, node: usize) {
        for (a, b) in FaultPlan::crash_pairs(node, self.n) {
            self.sync_link(a, b);
        }
    }

    /// Run for `horizon` of virtual time since the start, applying every
    /// scheduled fault and workload
    /// item that falls within it at its time and checking every
    /// invariant after each action and each [`Advance::Stepped`].
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] detected.
    pub fn run(&mut self, horizon: SimDuration) -> Result<RunReport, InvariantViolation> {
        let (deadline, mut steps) = (SimTime::ZERO + horizon, 0);
        loop {
            let next_action = self
                .schedule
                .get(self.next_action)
                .map(|s| s.at)
                .filter(|&t| t <= deadline);
            match self.backend.advance(next_action, deadline) {
                Advance::ActionDue => self.apply_action(),
                Advance::Stepped => steps += 1,
                Advance::Done => break,
            }
            self.check_now()?;
        }
        if let Some(t) = &self.telemetry {
            for i in 0..self.n {
                self.backend.with_node(i, |node, _| {
                    t.record_node_metrics(NodeId(i as u16), &node.metrics());
                });
            }
        }
        Ok(RunReport {
            trace_hash: self.trace_hash(),
            trace_events: self.trace.len(),
            steps,
            dropped: self.backend.dropped(),
            final_time: self.backend.now(),
        })
    }

    /// Call after [`Chaos::run`] has executed the whole schedule (every
    /// fault cleared, every crashed node restarted). Keeps the cluster
    /// running — safety-checked all the while — until every published
    /// message has stabilized: each replica's RECEIVED for every stream
    /// reaches the origin's last published sequence, and each origin's
    /// own frontier under every startup predicate reaches it too. The
    /// wait is bounded by `bound` past the backend's current clock, in
    /// *virtual* time, so a stalled cluster fails fast and
    /// deterministically instead of hanging.
    ///
    /// # Errors
    ///
    /// A `post-fault-liveness` violation naming the first lagging node,
    /// or any safety violation observed while waiting.
    pub fn verify_liveness(&mut self, bound: SimDuration) -> Result<(), InvariantViolation> {
        let keys: Vec<String> = self.cfg.predicates().map(|(k, _)| k.to_owned()).collect();
        let targets: Vec<SeqNo> = (0..self.n)
            .map(|s| self.backend.with_node(s, |node, _| node.last_published()))
            .collect();
        let until = self.backend.now() + bound;
        while let Some((node, detail)) = self.liveness_gap(&keys, &targets) {
            // Simulator timers re-arm forever, so its queue only runs
            // dry past `until`; either way the gap is now a verdict.
            if self.backend.advance(None, until) == Advance::Done {
                return Err(InvariantViolation {
                    at: self.backend.now(),
                    node,
                    property: "post-fault-liveness",
                    detail: format!("{detail}{}", self.render_blame()),
                });
            }
            self.check_now()?;
        }
        Ok(())
    }

    /// Frontier blame from every node's diagnoser, tagged with the
    /// observing node (a crashed node's dead incarnation included — its
    /// view froze at the crash, which is exactly what stalled).
    pub fn stall_reports(&self) -> Vec<(u16, StallReport)> {
        (0..self.n)
            .flat_map(|i| {
                let reports = self.backend.with_node(i, |node, _| node.explain_all());
                reports.into_iter().map(move |r| (i as u16, r))
            })
            .collect()
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
                let got = self.received(i, stream);
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
                let frontier = self.frontier(s, s, key).unwrap_or(0);
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

    /// Run one invariant sweep over a consistent cut of all nodes.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_now(&mut self) -> Result<(), InvariantViolation> {
        let now = self.backend.now();
        let checker = &mut self.checker;
        self.backend.with_cut(|views| checker.check(now, views))
    }

    fn apply_action(&mut self) {
        let Scheduled { at, kind } = &self.schedule[self.next_action];
        let at = *at;
        self.next_action += 1;
        // `kind` borrows self.schedule; clone the small payload out so
        // the mutating appliers below can borrow self freely.
        match kind {
            ScheduledKind::Fault(op) => {
                let op = op.clone();
                self.apply_fault(at, op);
            }
            ScheduledKind::Work(item) => {
                let item = item.clone();
                self.apply_work(at, item);
            }
        }
    }

    fn apply_fault(&mut self, at: SimTime, op: Op) {
        match op {
            Op::SetLinks { pairs, up } => {
                for &(a, b) in &pairs {
                    self.desired_up[a * self.n + b] = up;
                    self.sync_link(a, b);
                }
                let state = if up { "up" } else { "down" };
                self.note(
                    at,
                    HARNESS_NODE,
                    format!("links {state} ({} pairs)", pairs.len()),
                );
            }
            Op::SetLoss {
                from,
                to,
                probability,
            } => {
                self.backend.set_loss(from, to, probability);
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
                self.backend.set_egress(node, bytes_per_sec);
                self.note(
                    at,
                    node as u16,
                    format!("egress {node} = {bytes_per_sec} B/s"),
                );
            }
            Op::SetDelay { from, to, extra } => {
                self.backend.set_delay(from, to, extra);
                self.note(at, from as u16, format!("delay {from}->{to} += {extra}"));
            }
            Op::SetTimerScale { node, scale } => {
                self.timer_scale[node] = scale;
                self.backend.set_timer_scale(node, scale);
                self.note(at, node as u16, format!("timer scale {node} = {scale}"));
            }
            Op::SetDupReorder {
                from,
                to,
                dup,
                reorder,
            } => {
                self.backend.set_dup_reorder(from, to, dup, reorder);
                self.note(
                    at,
                    from as u16,
                    format!("dup/reorder {from}->{to} = {dup}/{reorder}"),
                );
            }
            Op::ForgeAck { node, ahead } => self.forge_ack(at, node, ahead),
            // A node restarting at this very instant is still down.
            Op::Persist { node } if !self.down[node] => {
                let snapshot = self.backend.with_node(node, |state, _| state.snapshot());
                self.snapshots[node] = Some(through_bytes(&snapshot));
                self.note(at, node as u16, format!("persist {node}"));
            }
            Op::Persist { .. } => {}
            Op::Crash { node } => self.crash(at, node),
            Op::Restart { node } => self.restart(at, node),
            Op::Join { node } => self.join(at, node),
        }
    }

    /// Byzantine ACK forgery: every live peer is handed an `AckBatch`,
    /// as if from `node`, claiming every stream reached `ahead` past
    /// what `node` actually received. Its own recorder is untouched —
    /// receivers' journaled belief writes are what the
    /// `belief-beyond-truth` invariant must flag.
    fn forge_ack(&mut self, at: SimTime, node: usize, ahead: u64) {
        if self.down[node] {
            self.note(at, node as u16, "forge_ack skipped (node down)".to_string());
            return;
        }
        let me = NodeId(node as u16);
        let batch: Vec<Ack> = self.backend.with_node(node, |state, _| {
            (0..self.n)
                .map(|s| {
                    let stream = NodeId(s as u16);
                    Ack {
                        stream,
                        ty: RECEIVED,
                        seq: state.recorder().get(stream, me, RECEIVED) + ahead,
                    }
                })
                .collect()
        });
        for peer in (0..self.n).filter(|&p| p != node && !self.down[p]) {
            self.backend
                .inject(node, peer, WireMsg::AckBatch(batch.clone()));
        }
        self.note(at, node as u16, format!("forge_ack {node} ahead {ahead}"));
    }

    /// Crash: cut the node off, then persist its control plane through
    /// the byte format (what the integrated storage system would store)
    /// — unless an [`Op::Persist`] already did, earlier. Cutting first
    /// is what keeps belief ≤ truth on a concurrent runtime: a crash
    /// snapshot is then a superset of everything that escaped.
    fn crash(&mut self, at: SimTime, node: usize) {
        self.down[node] = true;
        self.sync_links_of(node);
        let checker = &mut self.checker;
        self.backend
            .with_node(node, |state, _| checker.note_crash(node, state));
        let snapshot = self.backend.crash(node);
        if self.snapshots[node].is_none() {
            self.snapshots[node] = Some(through_bytes(&snapshot));
        }
        self.note(at, node as u16, format!("crash {node}"));
    }

    /// Restart: a new incarnation rebuilt from the crash snapshot.
    fn restart(&mut self, at: SimTime, node: usize) {
        let snapshot = self.snapshots[node]
            .take()
            .expect("plan validation guarantees restart follows crash");
        self.boot(node, Some(snapshot));
        self.note(at, node as u16, format!("restart {node}"));
    }

    /// Join: a brand-new, history-less member. It gets the cluster
    /// configuration (the "distribution" step of a membership change)
    /// and catches up on every live stream through §III-E transfer.
    fn join(&mut self, at: SimTime, node: usize) {
        self.boot(node, None);
        self.note(at, node as u16, format!("join {node}"));
    }

    /// The one reboot sequence under restart and join; its order is
    /// load-bearing.
    fn boot(&mut self, node: usize, snapshot: Option<Snapshot>) {
        let restored = snapshot.is_some();
        self.backend.boot(node, snapshot);
        // A reboot does not fix a skewed clock: the timers the new
        // incarnation arms must already run at the faulted cadence.
        if self.timer_scale[node] != 1.0 {
            self.backend.set_timer_scale(node, self.timer_scale[node]);
        }
        // Resync the checker *before* opening the links: once traffic
        // flows, the fresh log gains entries the reset cursors must not
        // double-count against the restored baseline.
        let checker = &mut self.checker;
        self.backend
            .with_node(node, |state, _| checker.note_restart(node, state));
        // The new machine starts unjournaled; the resync re-baselined
        // the shadow, so journaling resumes from here.
        self.backend.enable_ack_journal(node);
        // Back in the cluster, so sync restores each link to its
        // partition-desired state (not unconditionally up).
        self.down[node] = false;
        self.sync_links_of(node);
        self.backend.begin_catch_up(node, restored);
    }

    fn apply_work(&mut self, at: SimTime, item: WorkItem) {
        let node = match &item {
            WorkItem::Publish { node, .. }
            | WorkItem::ChangePredicate { node, .. }
            | WorkItem::WaitFor { node, .. } => *node,
        };
        let who = node as u16;
        if self.down[node] {
            self.note(at, who, format!("skipped (node down): {item:?}"));
            return;
        }
        match item {
            WorkItem::Publish { node, len } => {
                // Deterministic fill, so differential runs publish
                // identical payloads.
                let fill = (node as u8).wrapping_add(len as u8);
                match self.backend.publish(node, Bytes::from(vec![fill; len])) {
                    Ok(seq) => {
                        if let Some(t) = &self.telemetry {
                            t.note_publish(at.as_nanos(), NodeId(who), seq, len);
                        }
                        self.note(at, who, format!("publish seq {seq} ({len} B)"));
                    }
                    // Backpressure (buffer full under a partition) is a
                    // legitimate outcome, not a failure.
                    Err(e) => self.note(at, who, format!("publish refused: {e}")),
                }
            }
            WorkItem::ChangePredicate {
                node,
                stream,
                key,
                source,
            } => {
                let res = self
                    .backend
                    .change_predicate(node, NodeId(stream as u16), &key, &source);
                let what = match res {
                    Ok(()) => format!("change_predicate stream {stream} key {key} to {source}"),
                    Err(e) => format!("change_predicate refused: {e}"),
                };
                self.note(at, who, what);
            }
            WorkItem::WaitFor {
                node,
                stream,
                key,
                seq,
            } => {
                let res = self.backend.waitfor(node, NodeId(stream as u16), &key, seq);
                let what = match res {
                    Ok(token) => {
                        format!("waitfor stream {stream} key {key} seq {seq} -> token {token}")
                    }
                    Err(e) => format!("waitfor refused: {e}"),
                };
                self.note(at, who, what);
            }
        }
    }

    fn received(&self, node: usize, stream: NodeId) -> SeqNo {
        self.backend.with_node(node, |state, _| {
            state.recorder().get(stream, state.me(), RECEIVED)
        })
    }

    /// The §III-E catch-up events observed on `node`'s *current*
    /// incarnation: `(stream, seq)` fast-forwards, in order. Non-empty
    /// after a recovery that had to skip past the donor's retained log.
    pub fn catchup_events(&self, node: usize) -> Vec<(u16, SeqNo)> {
        self.backend.with_node(node, |_, log| {
            log.catchup_log
                .iter()
                .map(|&(_, stream, seq)| (stream.0, seq))
                .collect()
        })
    }

    /// Delivery order `(origin, seq)` as `node`'s current incarnation
    /// observed the upcalls.
    pub fn delivery_order(&self, node: usize) -> Vec<(u16, SeqNo)> {
        self.backend.with_node(node, |_, log| {
            log.delivery_log
                .iter()
                .map(|&(_, origin, seq, ..)| (origin.0, seq))
                .collect()
        })
    }

    /// Every node's RECEIVED cell for every stream:
    /// `table[node][stream]`.
    pub fn received_table(&self) -> Vec<Vec<SeqNo>> {
        (0..self.n)
            .map(|i| {
                (0..self.n)
                    .map(|s| self.received(i, NodeId(s as u16)))
                    .collect()
            })
            .collect()
    }

    /// A node's current frontier for `(stream, key)`.
    pub fn frontier(&self, node: usize, stream: usize, key: &str) -> Option<SeqNo> {
        self.backend.with_node(node, |state, _| {
            state
                .stability_frontier(NodeId(stream as u16), key)
                .map(|(seq, _gen)| seq)
        })
    }

    /// The converged state under `key`, for differential comparison
    /// (meaningful once [`Chaos::verify_liveness`] has passed).
    pub fn final_state(&self, key: &str) -> FinalState {
        let deliveries = (0..self.n)
            .map(|i| {
                let order = self.delivery_order(i);
                (0..self.n)
                    .map(|origin| {
                        order
                            .iter()
                            .filter(|(o, _)| *o as usize == origin)
                            .map(|&(_, seq)| seq)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        FinalState {
            deliveries,
            received: self.received_table(),
            frontiers: (0..self.n)
                .map(|s| self.frontier(s, s, key).unwrap_or(0))
                .collect(),
        }
    }
}

/// `snapshot` as storage gives it back: encoded and decoded.
fn through_bytes(snapshot: &Snapshot) -> Snapshot {
    Snapshot::from_bytes(&snapshot.to_bytes()).expect("snapshot byte format round-trips")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fault, FaultEvent};
    use stabilizer_core::AckTypeRegistry;

    /// One primitive the harness asked of the backend.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Link(usize, usize, bool),
        Launch,
        Journal(usize),
        Skew(usize, f64),
        Crash(usize),
        /// `(node, from a snapshot)`.
        Boot(usize, bool),
        /// `(node, restored)`.
        CatchUp(usize, bool),
        Publish(usize),
    }

    /// A backend of real state machines that never talk — no sockets,
    /// no simulator; time jumps from one scheduled action to the next —
    /// recording every primitive in call order.
    struct Recording {
        cfg: ClusterConfig,
        acks: Arc<AckTypeRegistry>,
        nodes: Vec<StabilizerNode>,
        logs: Vec<EventLog>,
        now: SimTime,
        calls: Vec<Call>,
    }

    impl Backend for Recording {
        fn now(&self) -> SimTime {
            self.now
        }
        fn advance(&mut self, next_action: Option<SimTime>, deadline: SimTime) -> Advance {
            self.now = next_action.unwrap_or(deadline);
            match next_action {
                Some(_) => Advance::ActionDue,
                None => Advance::Done,
            }
        }
        fn dropped(&self) -> u64 {
            0
        }

        fn set_link_up(&mut self, from: usize, to: usize, up: bool) {
            self.calls.push(Call::Link(from, to, up));
        }
        fn set_loss(&mut self, _from: usize, _to: usize, _probability: f64) {}
        fn set_egress(&mut self, _node: usize, _bytes_per_sec: f64) {}
        fn set_delay(&mut self, _from: usize, _to: usize, _extra: SimDuration) {}
        fn set_dup_reorder(&mut self, _from: usize, _to: usize, _dup: f64, _reorder: f64) {}
        fn inject(&mut self, _from: usize, _to: usize, _msg: WireMsg) {}

        fn launch(&mut self) -> Result<(), ChaosError> {
            self.calls.push(Call::Launch);
            Ok(())
        }
        fn set_timer_scale(&mut self, node: usize, scale: f64) {
            self.calls.push(Call::Skew(node, scale));
        }
        fn crash(&mut self, node: usize) -> Snapshot {
            self.calls.push(Call::Crash(node));
            self.nodes[node].snapshot()
        }
        fn boot(&mut self, node: usize, snapshot: Option<Snapshot>) {
            self.calls.push(Call::Boot(node, snapshot.is_some()));
            let (cfg, me, acks) = (
                self.cfg.clone(),
                NodeId(node as u16),
                Arc::clone(&self.acks),
            );
            self.nodes[node] = match snapshot {
                Some(s) => StabilizerNode::restore(cfg, me, acks, s),
                None => StabilizerNode::new(cfg, me, acks),
            }
            .unwrap();
            self.logs[node] = EventLog::default();
        }
        fn begin_catch_up(&mut self, node: usize, restored: bool) {
            self.calls.push(Call::CatchUp(node, restored));
        }
        fn enable_ack_journal(&mut self, node: usize) {
            self.calls.push(Call::Journal(node));
            self.nodes[node].enable_ack_journal();
        }

        fn publish(&mut self, node: usize, payload: Bytes) -> Result<SeqNo, CoreError> {
            self.calls.push(Call::Publish(node));
            let seq = self.nodes[node].publish(payload);
            self.nodes[node].take_actions();
            seq
        }
        fn change_predicate(
            &mut self,
            node: usize,
            stream: NodeId,
            key: &str,
            source: &str,
        ) -> Result<(), CoreError> {
            self.nodes[node].change_predicate(stream, key, source)
        }
        fn waitfor(
            &mut self,
            node: usize,
            stream: NodeId,
            key: &str,
            seq: SeqNo,
        ) -> Result<WaitToken, CoreError> {
            self.nodes[node].waitfor(stream, key, seq)
        }

        fn with_node<R>(&self, node: usize, f: impl FnOnce(&StabilizerNode, &EventLog) -> R) -> R {
            f(&self.nodes[node], &self.logs[node])
        }
        fn with_cut<R>(&mut self, f: impl FnOnce(&[NodeView<'_>]) -> R) -> R {
            let dirty: Vec<_> = self
                .nodes
                .iter_mut()
                .map(|n| n.take_ack_journal())
                .collect();
            let views: Vec<NodeView<'_>> = self
                .nodes
                .iter()
                .zip(&self.logs)
                .zip(dirty)
                .map(|((node, log), d)| NodeView::new(node, log, Some(d)))
                .collect();
            f(&views)
        }
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// The layering and reboot rules, as the exact primitive sequence:
    /// a partition heals inside a crash window, a clock skew spans the
    /// restart, a second partition is active at the restart, and a node
    /// joins late.
    #[test]
    fn layering_and_reboot_order_as_a_primitive_call_sequence() {
        let cfg =
            ClusterConfig::parse("az A n0 n1\naz B n2\npredicate All MIN($ALLWNODES-$MYWNODE)\n")
                .unwrap();
        let at = |t, fault| FaultEvent { at: ms(t), fault };
        let plan = FaultPlan {
            events: vec![
                at(
                    10,
                    Fault::Partition {
                        side: vec![2],
                        heal_after: ms(40),
                    },
                ),
                at(
                    15,
                    Fault::ClockSkew {
                        node: 2,
                        factor: 2.0,
                        clear_after: ms(85),
                    },
                ),
                at(
                    20,
                    Fault::CrashRestart {
                        node: 2,
                        down_for: ms(60),
                        persist_lag: SimDuration::ZERO,
                    },
                ),
                at(60, Fault::Join { node: 1 }),
                at(
                    70,
                    Fault::Partition {
                        side: vec![0],
                        heal_after: ms(50),
                    },
                ),
            ],
        };
        let publish = |t, node| TimedWork {
            at: ms(t),
            item: WorkItem::Publish { node, len: 8 },
        };
        // Node 1 at 30 is not yet joined and node 2 at 40 is crashed:
        // both are skipped. At 65 and 90 they are back.
        let workload = vec![
            publish(5, 0),
            publish(30, 1),
            publish(40, 2),
            publish(65, 1),
            publish(90, 2),
        ];
        let mut chaos = Chaos::assemble(&cfg, &plan, workload, None, |_| {
            let acks = Arc::new(AckTypeRegistry::new());
            let nodes = (0..3)
                .map(|i| StabilizerNode::new(cfg.clone(), NodeId(i), Arc::clone(&acks)).unwrap())
                .collect();
            Ok(Recording {
                cfg: cfg.clone(),
                acks,
                nodes,
                logs: (0..3).map(|_| EventLog::default()).collect(),
                now: SimTime::ZERO,
                calls: Vec::new(),
            })
        })
        .unwrap();
        chaos.run(ms(200)).unwrap();

        use Call::*;
        let links = |pairs: [(usize, usize, bool); 4]| pairs.map(|(a, b, up)| Link(a, b, up));
        let expected: Vec<Call> = [
            // Assembly: the late joiner is isolated before anything runs.
            links([(1, 0, false), (0, 1, false), (1, 2, false), (2, 1, false)]).to_vec(),
            vec![Launch, Journal(0), Journal(1), Journal(2)],
            vec![Publish(0)],
            // 10: partition {2} | {0, 1}.
            links([(2, 0, false), (0, 2, false), (2, 1, false), (1, 2, false)]).to_vec(),
            vec![Skew(2, 2.0)],
            // 20: crash 2 — links cut first, then the snapshot.
            links([(2, 0, false), (0, 2, false), (2, 1, false), (1, 2, false)]).to_vec(),
            vec![Crash(2)],
            // 30, 40: work for absent node 1 and crashed node 2 is skipped.
            // 50: the partition heals, but a heal during the crash window
            // does not resurrect the crashed node's links.
            links([(2, 0, false), (0, 2, false), (2, 1, false), (1, 2, false)]).to_vec(),
            // 60: join 1 (no skew to re-apply) — its link to the crashed
            // node 2 stays down.
            vec![Boot(1, false), Journal(1)],
            links([(1, 0, true), (0, 1, true), (1, 2, false), (2, 1, false)]).to_vec(),
            vec![CatchUp(1, false), Publish(1)],
            // 70: partition {0} | {1, 2}.
            links([(0, 1, false), (1, 0, false), (0, 2, false), (2, 0, false)]).to_vec(),
            // 80: restart 2 — a reboot does not fix a skewed clock (skew
            // re-applied before the links open), and the links return to
            // their partition-desired state: up towards 1, still cut
            // towards 0.
            vec![Boot(2, true), Skew(2, 2.0), Journal(2)],
            links([(2, 0, false), (0, 2, false), (2, 1, true), (1, 2, true)]).to_vec(),
            vec![CatchUp(2, true), Publish(2)],
            vec![Skew(2, 1.0)],
            // 120: the second partition heals; everyone is up.
            links([(0, 1, true), (1, 0, true), (0, 2, true), (2, 0, true)]).to_vec(),
        ]
        .concat();
        assert_eq!(chaos.backend.calls, expected);
    }
}
