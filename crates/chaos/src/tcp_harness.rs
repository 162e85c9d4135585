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
//! that. Everything the two share is written once in [`crate::harness`]
//! (the table there); this module is [`TcpBackend`], the part that is
//! sockets and threads.
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
//! belief ≤ truth: **cut** the node's links (the harness takes them
//! down, then [`Backend::crash`] epoch-kills every proxied connection),
//! **drain** (wait for the old conn threads to exit, so nothing more
//! escapes), **snapshot** the control plane (now a superset of
//! everything that escaped), then **shut down** the runtime.
//! The dead incarnation's handle is kept as a "zombie" so the checker
//! can keep viewing its frozen state while the node is down. Restart
//! kills the links a second time — discarding any held frames the
//! zombie wrote between snapshot and shutdown — before pointing the
//! proxy at the restarted node's fresh listener.
//!
//! [`check_now`]: Chaos::check_now

use crate::harness::{Advance, Backend, Chaos, ChaosError, TimedWork};
use crate::invariants::NodeView;
use crate::plan::FaultPlan;
use crate::tcp_proxy::ProxyNet;
use bytes::Bytes;
use stabilizer_core::{
    AckTypeRegistry, ClusterConfig, CoreError, EventLog, NodeId, ObserverChain, SharedEventLog,
    Snapshot, StabilizerNode, WaitToken, WireMsg,
};
use stabilizer_dsl::SeqNo;
use stabilizer_netsim::{SimDuration, SimTime};
use stabilizer_telemetry::Telemetry;
use stabilizer_transport::{spawn_node_with, NodeHandle, SpawnOptions};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long one [`Backend::advance`] lets the cluster run: the cadence
/// of invariant sweeps between scheduled events.
const CHECK_EVERY: Duration = Duration::from_millis(5);

/// Bound on the crash-time connection drain (exceeding it is a harness
/// bug, not a protocol violation — conn threads poll every few ms).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// Post-cut settle time letting the zombie's readers finish frames that
/// were already forwarded, so the snapshot covers them.
const SETTLE: Duration = Duration::from_millis(50);

/// How long a publish waits out backpressure before it is refused.
const PUBLISH_TIMEOUT: Duration = Duration::from_millis(20);

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

/// An N-node threaded-transport cluster behind fault-injecting proxies,
/// under a [`ChaosTcpCluster`].
pub struct TcpBackend {
    cfg: ClusterConfig,
    seed: u64,
    proxy: ProxyNet,
    acks: Arc<AckTypeRegistry>,
    /// Bound at construction so every proxy destination is registered
    /// before any node spawns; taken by [`Backend::launch`].
    listeners: Vec<TcpListener>,
    /// The current incarnation of each node (a frozen zombie while it
    /// is crashed), and the log its observer writes.
    nodes: Vec<NodeHandle>,
    logs: Vec<SharedEventLog>,
    boots: u64,
    checks: u64,
    started: Instant,
    telemetry: Option<Arc<Telemetry>>,
    /// Address node 0's runtime serves live telemetry on (re-applied
    /// when node 0 restarts or joins).
    serve: Option<String>,
}

/// The chaos harness over real sockets. Build with
/// [`ChaosTcpCluster::new`], run with [`Chaos::run`], then optionally
/// [`Chaos::verify_liveness`].
pub type ChaosTcpCluster = Chaos<TcpBackend>;

fn setup_error(what: &str, e: std::io::Error) -> ChaosError {
    ChaosError::Core(CoreError::Config(format!("{what}: {e}")))
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
        Self::build(cfg, seed, plan, workload, None, None)
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
        Chaos::assemble(cfg, plan, workload, telemetry.clone(), || {
            let n = cfg.num_nodes();
            let proxy = ProxyNet::new(n, seed).map_err(|e| setup_error("proxy", e))?;
            let mut listeners = Vec::with_capacity(n);
            for i in 0..n {
                let l = TcpListener::bind("127.0.0.1:0").map_err(|e| setup_error("bind", e))?;
                proxy.set_dest(i, l.local_addr().map_err(|e| setup_error("addr", e))?);
                listeners.push(l);
            }
            Ok(TcpBackend {
                cfg: cfg.clone(),
                seed,
                proxy,
                acks: Arc::new(AckTypeRegistry::new()),
                listeners,
                nodes: Vec::with_capacity(n),
                logs: Vec::with_capacity(n),
                boots: 0,
                checks: 0,
                started: Instant::now(),
                telemetry,
                serve,
            })
        })
    }

    /// The current handle of node `i` (a frozen zombie while crashed).
    pub fn handle(&self, i: usize) -> NodeHandle {
        self.backend.nodes[i].clone()
    }

    /// Bound address of the live telemetry endpoint (node 0's), when
    /// built with [`ChaosTcpCluster::new_with_telemetry_serving`].
    pub fn serve_addr(&self) -> Option<std::net::SocketAddr> {
        self.backend.nodes[0].serve_addr()
    }

    /// Stop every node runtime and the proxy mesh.
    pub fn shutdown(&self) {
        self.backend.shutdown();
    }
}

impl TcpBackend {
    /// Spawn an incarnation of `node` on `listener`, observed by a fresh
    /// log (the invariant checker's) chained before the hub's metrics
    /// observer when one is attached.
    fn spawn(
        &self,
        node: usize,
        listener: TcpListener,
        snapshot: Option<Snapshot>,
    ) -> Result<(NodeHandle, SharedEventLog), CoreError> {
        let me = NodeId(node as u16);
        let log = SharedEventLog::default();
        let mut observer = ObserverChain(vec![Box::new(log.clone())]);
        if let Some(t) = &self.telemetry {
            observer.0.push(Box::new(t.observer(me)));
        }
        let peer_addrs = (0..self.cfg.num_nodes())
            .filter(|j| *j != node)
            .map(|j| (NodeId(j as u16), self.proxy.proxy_addr(node, j)))
            .collect();
        let spawned = spawn_node_with(
            self.cfg.clone(),
            me,
            Arc::clone(&self.acks),
            listener,
            peer_addrs,
            SpawnOptions {
                observer: Some(Box::new(observer)),
                snapshot,
                jitter_seed: self.seed ^ (self.boots << 48),
                telemetry: self.telemetry.clone(),
                serve_addr: if node == 0 { self.serve.clone() } else { None },
            },
        )?;
        Ok((spawned.handle(), log))
    }

    fn shutdown(&self) {
        for h in &self.nodes {
            h.shutdown();
        }
        self.proxy.shutdown();
    }
}

impl Drop for TcpBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Backend for TcpBackend {
    type Report = TcpRunReport;

    fn start(&mut self) {
        self.started = Instant::now();
    }

    fn now(&self) -> SimTime {
        SimTime(self.started.elapsed().as_nanos() as u64)
    }

    fn advance(&mut self, next_action: Option<SimTime>, deadline: SimTime) -> Advance {
        let now = self.now();
        if next_action.is_some_and(|at| at <= now) {
            Advance::ActionDue
        } else if now >= deadline {
            Advance::Done
        } else {
            std::thread::sleep(CHECK_EVERY);
            Advance::Stepped
        }
    }

    fn report(&self) -> TcpRunReport {
        TcpRunReport {
            checks: self.checks,
            dropped: self.proxy.dropped(),
            elapsed_nanos: self.now().as_nanos(),
        }
    }

    fn publish_stamp(&self, _at: SimTime, hub: &Telemetry) -> u64 {
        hub.now_nanos()
    }

    fn set_link_up(&mut self, from: usize, to: usize, up: bool) {
        self.proxy.set_link_up(from, to, up);
    }

    fn set_loss(&mut self, from: usize, to: usize, probability: f64) {
        self.proxy.set_loss(from, to, probability);
    }

    fn set_egress(&mut self, node: usize, bytes_per_sec: f64) {
        self.proxy.set_rate(node, bytes_per_sec);
    }

    fn set_delay(&mut self, from: usize, to: usize, extra: SimDuration) {
        self.proxy.set_delay(from, to, extra.as_nanos());
    }

    fn set_dup_reorder(&mut self, from: usize, to: usize, dup: f64, reorder: f64) {
        self.proxy.set_dup_reorder(from, to, dup, reorder);
    }

    fn inject(&mut self, from: usize, to: usize, msg: WireMsg) {
        self.nodes[to].inject_message(NodeId(from as u16), msg);
    }

    fn launch(&mut self) -> Result<(), ChaosError> {
        for (i, listener) in std::mem::take(&mut self.listeners).into_iter().enumerate() {
            let (handle, log) = self.spawn(i, listener, None)?;
            self.nodes.push(handle);
            self.logs.push(log);
        }
        Ok(())
    }

    fn set_timer_scale(&mut self, node: usize, scale: f64) {
        self.nodes[node].set_timer_scale(scale);
    }

    /// Epoch-kill, drain, settle, snapshot, shut down — in that order
    /// (see module docs for why the order is load-bearing).
    fn crash(&mut self, node: usize) -> Snapshot {
        self.proxy.kill_links_of(node);
        self.proxy.drain_links_of(node, DRAIN_TIMEOUT);
        std::thread::sleep(SETTLE);
        let snapshot = self.nodes[node].snapshot();
        self.nodes[node].shutdown();
        snapshot
    }

    /// A new incarnation on a fresh listener, the proxy repointed so
    /// peers reconnect transparently. A joiner's boot-era placeholder is
    /// discarded here (a joining node has no history); a crashed node's
    /// zombie is already shut down.
    fn boot(&mut self, node: usize, snapshot: Option<Snapshot>) {
        // Discard anything the old incarnation wrote into held
        // connections (a zombie: after its snapshot), and force peers
        // onto fresh (hello-first) streams.
        self.proxy.kill_links_of(node);
        self.proxy.drain_links_of(node, DRAIN_TIMEOUT);
        self.nodes[node].shutdown();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind reboot listener");
        self.proxy
            .set_dest(node, listener.local_addr().expect("reboot addr"));
        self.boots += 1;
        let (handle, log) = self
            .spawn(node, listener, snapshot)
            .expect("predicates compiled at startup recompile on reboot");
        self.nodes[node] = handle;
        self.logs[node] = log;
    }

    fn begin_catch_up(&mut self, node: usize, restored: bool) {
        // Fresh spawns don't auto-request catch-up (only the
        // restore-from-snapshot path does): kick it off explicitly.
        if !restored {
            self.nodes[node].begin_catch_up();
        }
    }

    fn enable_ack_journal(&mut self, node: usize) {
        self.nodes[node].lock_state().enable_ack_journal();
    }

    fn publish(&mut self, node: usize, payload: Bytes) -> Result<SeqNo, CoreError> {
        self.nodes[node].publish(payload, PUBLISH_TIMEOUT)
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
        self.nodes[node].begin_waitfor(stream, key, seq)
    }

    fn with_node<R>(&self, node: usize, f: impl FnOnce(&StabilizerNode, &EventLog) -> R) -> R {
        // Node lock, then its log — the order its runtime threads use.
        let state = self.nodes[node].lock_state();
        let log = self.logs[node].lock();
        f(&state, &log)
    }

    fn with_cut<R>(&mut self, f: impl FnOnce(&[NodeView<'_>]) -> R) -> R {
        // Lock order: all node states (index order), then all logs —
        // runtime threads take their own node lock then their own log
        // lock, so this global order cannot deadlock.
        let mut states: Vec<_> = self.nodes.iter().map(|h| h.lock_state()).collect();
        // Drain the dirty-cell journals while the cut is held, before
        // the guards are borrowed immutably by the views.
        let dirty: Vec<Vec<_>> = states.iter_mut().map(|s| s.take_ack_journal()).collect();
        let logs: Vec<_> = self.logs.iter().map(|l| l.lock()).collect();
        let views: Vec<NodeView<'_>> = states
            .iter()
            .zip(&logs)
            .zip(dirty)
            .map(|((state, log), d)| NodeView::new(state, log, Some(d)))
            .collect();
        self.checks += 1;
        f(&views)
    }
}
