//! The TCP chaos harness: runs a real threaded-transport cluster behind
//! the fault-injecting proxy ([`crate::tcp_proxy`]), drives the same
//! declarative [`FaultPlan`] and workload vocabulary as the simulator
//! harness, and checks the same invariants — over real sockets, real
//! threads, and wall-clock time.
//!
//! The division of labor with [`ChaosHarness`](crate::ChaosHarness):
//! the simulator explores schedules deterministically; this harness
//! validates that the *transport* (framing, reconnect repair,
//! thread/lock discipline) upholds the same safety properties under the
//! same faults. A wall-clock run is not bit-reproducible, but the same
//! `(plan, workload, seed)` must always produce the same **verdict** and
//! converge to the same final protocol state — the replay tests pin
//! that.
//!
//! ## Consistent cuts over threads
//!
//! The checker needs a simultaneous view of all nodes. [`check_now`]
//! locks every node's state machine in index order (safe: each runtime
//! thread only ever takes its own node's lock), then reads each node's
//! observer log. Observers run *under* the node lock (the contract in
//! [`stabilizer_core::observe`]), so each per-node view is internally
//! consistent; across nodes, freezing believers before (or
//! after) truth-holders is safe either way because acknowledgments only
//! flow forward from the acking node.
//!
//! ## Crash ordering
//!
//! A TCP crash is a sequence, and its order is what preserves
//! belief ≤ truth: **cut** the node's links (down + epoch-kill every
//! proxied connection), **drain** (wait for the old conn threads to
//! exit, so nothing more escapes), **snapshot** the control plane (now a
//! superset of everything that escaped), then **shut down** the runtime.
//! The dead incarnation's handle is kept as a "zombie" so the checker
//! can keep viewing its frozen state while the node is down. Restart
//! kills the links a second time — discarding any held frames the
//! zombie wrote between snapshot and shutdown — before pointing the
//! proxy at the restarted node's fresh listener.
//!
//! [`check_now`]: ChaosTcpCluster::check_now

use crate::harness::{ChaosError, TimedWork, WorkItem};
use crate::invariants::{InvariantChecker, InvariantViolation, NodeView};
use crate::plan::{FaultPlan, Op, TimedOp};
use crate::tcp_proxy::ProxyNet;
use bytes::Bytes;
use stabilizer_core::{
    AckTypeRegistry, AppHooks, ClusterConfig, CoreError, NodeId, ObserverChain, SharedEventLog,
    Snapshot,
};
use stabilizer_dsl::{SeqNo, RECEIVED};
use stabilizer_netsim::SimTime;
use stabilizer_telemetry::Telemetry;
use stabilizer_transport::{spawn_node_with, NodeHandle, SpawnOptions};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the run loop re-checks invariants between scheduled events.
const CHECK_EVERY: Duration = Duration::from_millis(5);

/// Bound on the crash-time connection drain (exceeding it is a harness
/// bug, not a protocol violation — conn threads poll every few ms).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// Post-cut settle time letting the zombie's readers finish frames that
/// were already forwarded, so the snapshot covers them.
const SETTLE: Duration = Duration::from_millis(50);

/// Summary of a clean TCP chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpRunReport {
    /// Invariant sweeps performed.
    pub checks: u64,
    /// Frames dropped by injected loss.
    pub dropped: u64,
    /// Wall-clock duration of the run, nanoseconds.
    pub elapsed_nanos: u64,
}

enum ScheduledKind {
    Fault(Op),
    Work(WorkItem),
}

struct Scheduled {
    at: Duration,
    kind: ScheduledKind,
}

/// An N-node threaded-transport cluster behind fault-injecting proxies.
/// Build with [`ChaosTcpCluster::new`], run with
/// [`ChaosTcpCluster::run`], then optionally
/// [`ChaosTcpCluster::verify_liveness`].
pub struct ChaosTcpCluster {
    cfg: ClusterConfig,
    n: usize,
    seed: u64,
    proxy: ProxyNet,
    acks: Arc<AckTypeRegistry>,
    nodes: Vec<NodeHandle>,
    logs: Vec<SharedEventLog>,
    checker: InvariantChecker,
    schedule: Vec<Scheduled>,
    next_action: usize,
    /// Crash snapshots of currently-down nodes.
    snapshots: Vec<Option<Snapshot>>,
    /// Whether each node is currently crashed (its handle is a zombie).
    down: Vec<bool>,
    /// Desired per-link state from partition faults; the effective link
    /// is up iff desired AND neither endpoint is down (same layering as
    /// the simulator harness).
    desired_up: Vec<bool>,
    /// Desired per-node timer-cadence multiplier from clock-skew faults;
    /// re-applied after restart/join (a reboot does not fix a skewed
    /// clock).
    timer_scale: Vec<f64>,
    restarts: u64,
    checks: u64,
    started: Instant,
    telemetry: Option<Arc<Telemetry>>,
    /// Address node 0's runtime serves live telemetry on (re-applied
    /// when node 0 restarts or joins).
    serve: Option<String>,
}

/// Observer for one TCP node: the invariant checker's log, plus the
/// telemetry hub's metrics observer when a hub is attached.
fn make_observer(
    log: &SharedEventLog,
    telemetry: Option<&Arc<Telemetry>>,
    node: NodeId,
) -> Box<dyn AppHooks + Send> {
    let mut chain = ObserverChain(vec![Box::new(log.clone())]);
    if let Some(t) = telemetry {
        chain.0.push(Box::new(t.observer(node)));
    }
    Box::new(chain)
}

impl ChaosTcpCluster {
    /// Boot the cluster behind proxies and merge the compiled plan with
    /// the workload into one wall-clock schedule.
    ///
    /// # Errors
    ///
    /// Fails on an invalid plan, a predicate that does not compile, or a
    /// socket setup error.
    pub fn new(
        cfg: &ClusterConfig,
        seed: u64,
        plan: &FaultPlan,
        workload: Vec<TimedWork>,
    ) -> Result<Self, ChaosError> {
        Self::new_with_telemetry(cfg, seed, plan, workload, None)
    }

    /// [`ChaosTcpCluster::new`] with an optional telemetry hub: every
    /// node gets transport counters plus a
    /// [`MetricsObserver`](stabilizer_telemetry::MetricsObserver) chained
    /// after the invariant log, and publishes are stamped for the
    /// latency histograms. Use a hub built with
    /// [`Telemetry::new_wall_clock`] so all nodes share one epoch.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ChaosTcpCluster::new`].
    pub fn new_with_telemetry(
        cfg: &ClusterConfig,
        seed: u64,
        plan: &FaultPlan,
        workload: Vec<TimedWork>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Self, ChaosError> {
        Self::build(cfg, seed, plan, workload, telemetry, None)
    }

    /// [`ChaosTcpCluster::new_with_telemetry`] that additionally serves
    /// the hub live over HTTP from node 0's runtime (`/metrics`,
    /// `/metrics.json`, `/trace`, `/stall`) while the scenario runs;
    /// read the bound address back with
    /// [`ChaosTcpCluster::serve_addr`]. Node 0 re-binds the endpoint if
    /// it is crash-restarted or joined mid-run.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ChaosTcpCluster::new`], plus a bind
    /// failure on `serve_addr`.
    pub fn new_with_telemetry_serving(
        cfg: &ClusterConfig,
        seed: u64,
        plan: &FaultPlan,
        workload: Vec<TimedWork>,
        telemetry: Arc<Telemetry>,
        serve_addr: &str,
    ) -> Result<Self, ChaosError> {
        Self::build(
            cfg,
            seed,
            plan,
            workload,
            Some(telemetry),
            Some(serve_addr.to_string()),
        )
    }

    fn build(
        cfg: &ClusterConfig,
        seed: u64,
        plan: &FaultPlan,
        workload: Vec<TimedWork>,
        telemetry: Option<Arc<Telemetry>>,
        serve: Option<String>,
    ) -> Result<Self, ChaosError> {
        let n = cfg.num_nodes();
        let ops = plan.compile(n)?;
        let proxy = ProxyNet::new(n, seed)
            .map_err(|e| ChaosError::Core(CoreError::Config(format!("proxy: {e}"))))?;

        // Late joiners ([`crate::Fault::Join`]) are absent from boot:
        // cut their links before any node spawns so the placeholder
        // incarnation idles in isolation until the join op replaces it.
        let mut down = vec![false; n];
        for (node, _) in plan.join_nodes() {
            down[node] = true;
            for (a, b) in FaultPlan::crash_pairs(node, n) {
                proxy.set_link_up(a, b, false);
            }
        }

        // Bind every node's listener and register all destinations
        // before any node spawns, so no proxy connection can observe a
        // missing destination.
        let mut listeners = Vec::with_capacity(n);
        for i in 0..n {
            let l = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| ChaosError::Core(CoreError::Config(format!("bind: {e}"))))?;
            let addr = l
                .local_addr()
                .map_err(|e| ChaosError::Core(CoreError::Config(format!("addr: {e}"))))?;
            proxy.set_dest(i, addr);
            listeners.push(l);
        }

        let acks = Arc::new(AckTypeRegistry::new());
        let mut nodes = Vec::with_capacity(n);
        let mut logs = Vec::with_capacity(n);
        for (i, listener) in listeners.into_iter().enumerate() {
            let log = SharedEventLog::default();
            let peer_addrs = (0..n)
                .filter(|j| *j != i)
                .map(|j| (NodeId(j as u16), proxy.proxy_addr(i, j)))
                .collect();
            let node = spawn_node_with(
                cfg.clone(),
                NodeId(i as u16),
                Arc::clone(&acks),
                listener,
                peer_addrs,
                SpawnOptions {
                    observer: Some(make_observer(&log, telemetry.as_ref(), NodeId(i as u16))),
                    snapshot: None,
                    jitter_seed: seed,
                    telemetry: telemetry.clone(),
                    metrics_dump: None,
                    serve_addr: if i == 0 { serve.clone() } else { None },
                },
            )
            .map_err(ChaosError::Core)?;
            // Journal recorder writes from the first frame so the
            // checker's ACK pass examines dirty cells only.
            node.handle().lock_state().enable_ack_journal();
            nodes.push(node.handle());
            logs.push(log);
        }

        let types = nodes[0].lock_state().recorder().num_types();
        let mut schedule: Vec<Scheduled> = ops
            .into_iter()
            .map(|TimedOp { at, op }| Scheduled {
                at: Duration::from_nanos(at.as_nanos()),
                kind: ScheduledKind::Fault(op),
            })
            .chain(
                workload
                    .into_iter()
                    .map(|TimedWork { at, item }| Scheduled {
                        at: Duration::from_nanos(at.as_nanos()),
                        kind: ScheduledKind::Work(item),
                    }),
            )
            .collect();
        schedule.sort_by_key(|s| s.at); // stable: faults stay before work on ties

        Ok(ChaosTcpCluster {
            cfg: cfg.clone(),
            n,
            seed,
            proxy,
            acks,
            nodes,
            logs,
            checker: InvariantChecker::new(n, types).with_placement(cfg.placement().clone()),
            schedule,
            next_action: 0,
            snapshots: vec![None; n],
            down,
            desired_up: vec![true; n * n],
            timer_scale: vec![1.0; n],
            restarts: 0,
            checks: 0,
            started: Instant::now(),
            telemetry,
            serve,
        })
    }

    /// The current handle of node `i` (a frozen zombie while crashed).
    pub fn handle(&self, i: usize) -> NodeHandle {
        self.nodes[i].clone()
    }

    /// Bound address of the live telemetry endpoint (node 0's), when
    /// built with [`ChaosTcpCluster::new_with_telemetry_serving`].
    pub fn serve_addr(&self) -> Option<std::net::SocketAddr> {
        self.nodes[0].serve_addr()
    }

    /// Nanoseconds since the cluster booted, as the checker's timestamp.
    fn now(&self) -> SimTime {
        SimTime(self.started.elapsed().as_nanos() as u64)
    }

    fn sync_link(&self, a: usize, b: usize) {
        let up = self.desired_up[a * self.n + b] && !self.down[a] && !self.down[b];
        self.proxy.set_link_up(a, b, up);
    }

    /// Run one invariant sweep over a consistent cut of all nodes.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_now(&mut self) -> Result<(), InvariantViolation> {
        let now = self.now();
        // Lock order: all node states (index order), then all logs —
        // runtime threads take their own node lock then their own log
        // lock, so this global order cannot deadlock.
        let mut states: Vec<_> = self.nodes.iter().map(|h| h.lock_state()).collect();
        // Drain the dirty-cell journals while the cut is held, before
        // the guards are borrowed immutably by the views.
        let dirty: Vec<Vec<_>> = states.iter_mut().map(|s| s.take_ack_journal()).collect();
        let logs: Vec<_> = self.logs.iter().map(|l| l.lock()).collect();
        let views: Vec<NodeView<'_>> = (0..self.n)
            .zip(dirty)
            .map(|(i, d)| NodeView {
                node: &states[i],
                frontier_log: &logs[i].frontier_log,
                delivery_log: &logs[i].delivery_log,
                suspected_log: &logs[i].suspected_log,
                recovered_log: &logs[i].recovered_log,
                catchup_log: &logs[i].catchup_log,
                records_deliveries: true,
                dirty: Some(d),
            })
            .collect();
        self.checks += 1;
        self.checker.check(now, &views)
    }

    /// Execute the schedule against wall-clock time, checking invariants
    /// after every event and every [`CHECK_EVERY`] in between, until
    /// `horizon` has elapsed *and* the schedule is exhausted.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] detected.
    pub fn run(&mut self, horizon: Duration) -> Result<TcpRunReport, InvariantViolation> {
        self.started = Instant::now();
        loop {
            let elapsed = self.started.elapsed();
            while self
                .schedule
                .get(self.next_action)
                .is_some_and(|s| s.at <= elapsed)
            {
                self.apply_next_action();
                self.check_now()?;
            }
            self.check_now()?;
            if elapsed >= horizon && self.next_action >= self.schedule.len() {
                break;
            }
            std::thread::sleep(CHECK_EVERY);
        }
        Ok(TcpRunReport {
            checks: self.checks,
            dropped: self.proxy.dropped(),
            elapsed_nanos: self.started.elapsed().as_nanos() as u64,
        })
    }

    /// Wall-clock-bounded liveness: once the schedule has run (all
    /// faults cleared, all crashed nodes restarted), every published
    /// message must stabilize within `deadline` — every node's RECEIVED
    /// for each stream reaches the origin's last published sequence, and
    /// each origin's own frontier under every startup predicate reaches
    /// it too. Safety keeps being checked while waiting.
    ///
    /// # Errors
    ///
    /// A `post-fault-liveness` violation naming the first lagging node,
    /// or any safety violation observed while waiting.
    pub fn verify_liveness(&mut self, deadline: Duration) -> Result<(), InvariantViolation> {
        let keys: Vec<String> = self.cfg.predicates().map(|(k, _)| k.to_owned()).collect();
        let targets: Vec<SeqNo> = self.nodes.iter().map(|h| h.last_published()).collect();
        let until = Instant::now() + deadline;
        loop {
            self.check_now()?;
            match self.liveness_gap(&keys, &targets) {
                None => return Ok(()),
                Some((node, detail)) if Instant::now() >= until => {
                    return Err(InvariantViolation {
                        at: self.now(),
                        node,
                        property: "post-fault-liveness",
                        detail: format!("{detail}{}", self.render_blame()),
                    });
                }
                Some(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Frontier blame from every node's diagnoser, tagged with the
    /// observing node (crashed nodes' zombie state included — its view
    /// froze at the crash, which is exactly what stalled).
    pub fn stall_reports(&self) -> Vec<(u16, stabilizer_core::StallReport)> {
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            for report in node.explain_all() {
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
            for i in 0..self.n {
                if i == s || !placement.is_replica(NodeId(s as u16), NodeId(i as u16)) {
                    continue;
                }
                let got = self.nodes[i].received_of(NodeId(s as u16));
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
                let frontier = self.nodes[s]
                    .stability_frontier(NodeId(s as u16), key)
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

    fn apply_next_action(&mut self) {
        let Scheduled { kind, .. } = &self.schedule[self.next_action];
        self.next_action += 1;
        match kind {
            ScheduledKind::Fault(op) => {
                let op = op.clone();
                self.apply_fault(op);
            }
            ScheduledKind::Work(item) => {
                let item = item.clone();
                self.apply_work(item);
            }
        }
    }

    fn apply_fault(&mut self, op: Op) {
        match op {
            Op::SetLinks { pairs, up } => {
                for &(a, b) in &pairs {
                    self.desired_up[a * self.n + b] = up;
                    self.sync_link(a, b);
                }
            }
            Op::SetLoss {
                from,
                to,
                probability,
            } => self.proxy.set_loss(from, to, probability),
            Op::SetEgress {
                node,
                bytes_per_sec,
            } => self.proxy.set_rate(node, bytes_per_sec),
            Op::SetDelay { from, to, extra } => {
                self.proxy.set_delay(from, to, extra.as_nanos());
            }
            Op::SetTimerScale { node, scale } => {
                self.timer_scale[node] = scale;
                self.nodes[node].set_timer_scale(scale);
            }
            Op::SetDupReorder {
                from,
                to,
                dup,
                reorder,
            } => self.proxy.set_dup_reorder(from, to, dup, reorder),
            Op::ForgeAck { node, ahead } => self.forge_ack(node, ahead),
            Op::Crash { node } => self.crash(node),
            Op::Restart { node } => self.restart(node),
            Op::Join { node } => self.join(node),
        }
    }

    /// Byzantine ACK forgery, mirroring the simulator harness: build the
    /// over-claiming batch from the forger's real recorder state, then
    /// deliver it to every peer as if it had arrived from the forger on
    /// the wire. The forger's own recorder is untouched.
    fn forge_ack(&mut self, node: usize, ahead: u64) {
        if self.down[node] {
            return; // a crashed node cannot forge
        }
        let me = NodeId(node as u16);
        let batch: Vec<stabilizer_core::Ack> = {
            let state = self.nodes[node].lock_state();
            (0..self.n)
                .map(|s| {
                    let stream = NodeId(s as u16);
                    let truth = state.recorder().get(stream, me, RECEIVED);
                    stabilizer_core::Ack {
                        stream,
                        ty: RECEIVED,
                        seq: truth + ahead,
                    }
                })
                .collect()
        };
        for peer in 0..self.n {
            if peer != node && !self.down[peer] {
                self.nodes[peer]
                    .inject_message(me, stabilizer_core::WireMsg::AckBatch(batch.clone()));
            }
        }
    }

    /// Crash `node`: cut, drain, snapshot, shut down — in that order
    /// (see module docs for why the order is load-bearing).
    fn crash(&mut self, node: usize) {
        self.down[node] = true;
        for (a, b) in FaultPlan::crash_pairs(node, self.n) {
            self.sync_link(a, b);
        }
        self.proxy.kill_links_of(node);
        self.proxy.drain_links_of(node, DRAIN_TIMEOUT);
        std::thread::sleep(SETTLE);
        let snapshot = self.nodes[node].snapshot();
        let snapshot =
            Snapshot::from_bytes(&snapshot.to_bytes()).expect("snapshot byte format round-trips");
        self.snapshots[node] = Some(snapshot);
        self.nodes[node].shutdown();
    }

    /// Restart `node` from its crash snapshot on a fresh listener,
    /// repointing the proxy so peers reconnect transparently.
    fn restart(&mut self, node: usize) {
        let snapshot = self.snapshots[node]
            .take()
            .expect("plan validation guarantees restart follows crash");
        // Discard anything the zombie wrote into held connections after
        // the snapshot, and force peers onto fresh (hello-first) streams.
        self.proxy.kill_links_of(node);
        self.proxy.drain_links_of(node, DRAIN_TIMEOUT);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind restart listener");
        self.proxy
            .set_dest(node, listener.local_addr().expect("restart addr"));
        let log = SharedEventLog::default();
        let peer_addrs = (0..self.n)
            .filter(|j| *j != node)
            .map(|j| (NodeId(j as u16), self.proxy.proxy_addr(node, j)))
            .collect();
        self.restarts += 1;
        let restarted = spawn_node_with(
            self.cfg.clone(),
            NodeId(node as u16),
            Arc::clone(&self.acks),
            listener,
            peer_addrs,
            SpawnOptions {
                observer: Some(make_observer(
                    &log,
                    self.telemetry.as_ref(),
                    NodeId(node as u16),
                )),
                snapshot: Some(snapshot),
                jitter_seed: self.seed ^ (self.restarts << 48),
                telemetry: self.telemetry.clone(),
                metrics_dump: None,
                serve_addr: if node == 0 { self.serve.clone() } else { None },
            },
        )
        .expect("predicates compiled at startup recompile on restore");
        self.nodes[node] = restarted.handle();
        // A reboot does not fix a skewed clock.
        if self.timer_scale[node] != 1.0 {
            self.nodes[node].set_timer_scale(self.timer_scale[node]);
        }
        self.logs[node] = log;
        // Resync the checker *before* opening the links: once traffic
        // flows, the fresh log gains entries the reset cursors must not
        // double-count against the restored baseline.
        {
            let mut state = self.nodes[node].lock_state();
            self.checker.note_restart(node, &state);
            // The restored machine starts unjournaled; the resync above
            // re-baselined the shadow, so journaling resumes from here.
            state.enable_ack_journal();
        }
        self.down[node] = false;
        for (a, b) in FaultPlan::crash_pairs(node, self.n) {
            self.sync_link(a, b);
        }
    }

    /// Join `node` as a brand-new member: discard the boot-era
    /// placeholder incarnation (a joining node has no history), spawn
    /// fresh with the distributed cluster config and **no snapshot**,
    /// open its links, and start §III-E catch-up on every stream.
    fn join(&mut self, node: usize) {
        self.proxy.kill_links_of(node);
        self.proxy.drain_links_of(node, DRAIN_TIMEOUT);
        self.nodes[node].shutdown();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind join listener");
        self.proxy
            .set_dest(node, listener.local_addr().expect("join addr"));
        let log = SharedEventLog::default();
        let peer_addrs = (0..self.n)
            .filter(|j| *j != node)
            .map(|j| (NodeId(j as u16), self.proxy.proxy_addr(node, j)))
            .collect();
        self.restarts += 1;
        let joined = spawn_node_with(
            self.cfg.clone(),
            NodeId(node as u16),
            Arc::clone(&self.acks),
            listener,
            peer_addrs,
            SpawnOptions {
                observer: Some(make_observer(
                    &log,
                    self.telemetry.as_ref(),
                    NodeId(node as u16),
                )),
                snapshot: None,
                jitter_seed: self.seed ^ (self.restarts << 48),
                telemetry: self.telemetry.clone(),
                metrics_dump: None,
                serve_addr: if node == 0 { self.serve.clone() } else { None },
            },
        )
        .expect("predicates compiled at startup recompile on join");
        self.nodes[node] = joined.handle();
        if self.timer_scale[node] != 1.0 {
            self.nodes[node].set_timer_scale(self.timer_scale[node]);
        }
        self.logs[node] = log;
        {
            let mut state = self.nodes[node].lock_state();
            self.checker.note_restart(node, &state);
            state.enable_ack_journal();
        }
        self.down[node] = false;
        for (a, b) in FaultPlan::crash_pairs(node, self.n) {
            self.sync_link(a, b);
        }
        // Fresh spawns don't auto-request catch-up (only the
        // restore-from-snapshot path does): kick it off explicitly.
        self.nodes[node].begin_catch_up();
    }

    fn apply_work(&mut self, item: WorkItem) {
        let node = match &item {
            WorkItem::Publish { node, .. }
            | WorkItem::ChangePredicate { node, .. }
            | WorkItem::WaitFor { node, .. } => *node,
        };
        if self.down[node] {
            return; // a crashed node cannot act
        }
        match item {
            WorkItem::Publish { node, len } => {
                // Same deterministic fill as the simulator harness, so
                // differential runs publish identical payloads.
                let fill = (node as u8).wrapping_add(len as u8);
                // Backpressure (buffer full under a partition) is a
                // legitimate outcome, not a failure.
                let res = self.nodes[node]
                    .publish(Bytes::from(vec![fill; len]), Duration::from_millis(20));
                if let (Ok(seq), Some(t)) = (res, &self.telemetry) {
                    t.note_publish_now(NodeId(node as u16), seq, len);
                }
            }
            WorkItem::ChangePredicate {
                node,
                stream,
                key,
                source,
            } => {
                let _ = self.nodes[node].change_predicate(NodeId(stream as u16), &key, &source);
            }
            WorkItem::WaitFor {
                node,
                stream,
                key,
                seq,
            } => {
                // Non-blocking: completion lands in the wait-done log.
                let _ = self.nodes[node].begin_waitfor(NodeId(stream as u16), &key, seq);
            }
        }
    }

    /// The §III-E catch-up events observed on `node`'s *current*
    /// incarnation: `(stream, seq)` fast-forwards, in order. Non-empty
    /// after a recovery that had to skip past the donor's retained log.
    pub fn catchup_events(&self, node: usize) -> Vec<(u16, SeqNo)> {
        self.logs[node]
            .lock()
            .catchup_log
            .iter()
            .map(|&(_, stream, seq)| (stream.0, seq))
            .collect()
    }

    /// Per-node delivery order `(origin, seq)` as observed by the
    /// upcalls, for differential comparison against the simulator.
    pub fn delivery_order(&self, node: usize) -> Vec<(u16, SeqNo)> {
        self.logs[node]
            .lock()
            .delivery_log
            .iter()
            .map(|&(_, origin, seq, _)| (origin.0, seq))
            .collect()
    }

    /// Every node's RECEIVED cell for every stream:
    /// `table[node][stream]`.
    pub fn received_table(&self) -> Vec<Vec<SeqNo>> {
        (0..self.n)
            .map(|i| {
                let state = self.nodes[i].lock_state();
                let me = state.me();
                (0..self.n)
                    .map(|s| state.recorder().get(NodeId(s as u16), me, RECEIVED))
                    .collect()
            })
            .collect()
    }

    /// A node's current frontier for `(stream, key)`.
    pub fn frontier(&self, node: usize, stream: usize, key: &str) -> Option<SeqNo> {
        self.nodes[node]
            .stability_frontier(NodeId(stream as u16), key)
            .map(|(seq, _gen)| seq)
    }

    /// Stop every node runtime and the proxy mesh.
    pub fn shutdown(&self) {
        for h in &self.nodes {
            h.shutdown();
        }
        self.proxy.shutdown();
    }
}

impl Drop for ChaosTcpCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
