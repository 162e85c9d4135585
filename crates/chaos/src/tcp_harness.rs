//! The TCP chaos harness: runs a cluster of the real transport — the
//! unmodified link layer and runtime of `stabilizer_transport`, each
//! node spawned with `spawn_node_on` — on the in-memory net
//! ([`crate::mem_net`]) in virtual time, drives the same declarative
//! [`FaultPlan`] and workload vocabulary as the simulator harness, and
//! checks the same invariants.
//!
//! The division of labor with [`ChaosHarness`](crate::ChaosHarness):
//! the simulator backend runs the protocol core over simulated
//! messages; this one runs the *transport* as well — framing, the I/O
//! loop, reconnect backoff and repair, the ACK-tail merge, the
//! runtime's lock and upcall discipline — under the same faults. Both
//! are single-threaded and seeded, so a run is fully determined by
//! `(config, plan, workload, seed)` and hashes to one
//! [`EventTrace`](crate::EventTrace). Everything the two share is written once in
//! [`crate::harness`] (the table there); this module is [`TcpBackend`].
//!
//! A crash is a snapshot, then a kill: the harness has already cut the
//! node's links, so everything the node wrote is either in flight —
//! sent before the snapshot, and covered by it — or held on a cut link,
//! and the kill ([`MemNet::kill_links_of`]) discards the held frames and
//! closes the node's connections at both ends. The dead incarnation's
//! handle is kept as a "zombie", so the checker can keep viewing its
//! frozen state while the node is down.

use crate::harness::{Advance, Backend, Chaos, ChaosError, TimedWork};
use crate::invariants::NodeView;
use crate::mem_net::MemNet;
use crate::plan::FaultPlan;
use crate::trace::{ChaosObserver, SharedTrace};
use bytes::Bytes;
use stabilizer_core::{
    AckTypeRegistry, ClusterConfig, CoreError, EventLog, NodeId, ObserverChain, SharedEventLog,
    Snapshot, StabilizerNode, WaitToken, WireMsg,
};
use stabilizer_dsl::SeqNo;
use stabilizer_netsim::{SimDuration, SimTime};
use stabilizer_telemetry::Telemetry;
use stabilizer_transport::{spawn_node_on, NodeHandle, SpawnOptions};
use std::sync::Arc;
use std::time::Duration;

/// An N-node cluster of the real transport on the in-memory net, under
/// a [`ChaosTcpCluster`].
pub struct TcpBackend {
    cfg: ClusterConfig,
    seed: u64,
    net: MemNet,
    acks: Arc<AckTypeRegistry>,
    /// The current incarnation of each node (a frozen zombie while it
    /// is crashed), and the log its observer writes.
    nodes: Vec<NodeHandle>,
    logs: Vec<SharedEventLog>,
    trace: SharedTrace,
    boots: u64,
    telemetry: Option<Arc<Telemetry>>,
    /// Address node 0's runtime serves live telemetry on (re-applied
    /// when node 0 restarts or joins).
    serve: Option<String>,
}

/// The chaos harness over the real transport. Build with
/// [`ChaosTcpCluster::new`], run with [`Chaos::run`], then optionally
/// [`Chaos::verify_liveness`].
pub type ChaosTcpCluster = Chaos<TcpBackend>;

impl ChaosTcpCluster {
    /// Boot the cluster on the in-memory net and merge the compiled plan
    /// with the workload into one schedule.
    ///
    /// # Errors
    ///
    /// Fails on an invalid plan or a predicate that does not compile.
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
    /// latency histograms. Use a hub built with [`Telemetry::new_sim`]:
    /// every timestamp is virtual.
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
        Chaos::assemble(cfg, plan, workload, telemetry.clone(), |trace| {
            let n = cfg.num_nodes();
            Ok(TcpBackend {
                cfg: cfg.clone(),
                seed,
                net: MemNet::new(n, seed),
                acks: Arc::new(AckTypeRegistry::new()),
                nodes: Vec::with_capacity(n),
                logs: Vec::with_capacity(n),
                trace: trace.clone(),
                boots: 0,
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

    /// Stop every node runtime (and node 0's telemetry endpoint).
    pub fn shutdown(&self) {
        self.backend.shutdown();
    }
}

impl TcpBackend {
    /// Spawn an incarnation of `node` on a fresh endpoint, observed by a
    /// fresh log (the invariant checker's), then the hashed trace and the
    /// hub's metrics observer when one is attached; its loop runs on the
    /// net from here on.
    fn spawn(
        &mut self,
        node: usize,
        snapshot: Option<Snapshot>,
    ) -> Result<(NodeHandle, SharedEventLog), CoreError> {
        let me = NodeId(node as u16);
        let log = SharedEventLog::default();
        let metrics = self.telemetry.as_ref().map(|t| t.observer(me));
        let trace = ChaosObserver::new(me.0, self.trace.clone()).with_metrics(metrics);
        let observer = ObserverChain(vec![Box::new(log.clone()), Box::new(trace)]);
        let endpoint = self.net.endpoint(node);
        let (spawned, io) = spawn_node_on(
            self.cfg.clone(),
            me,
            Arc::clone(&self.acks),
            endpoint,
            SpawnOptions {
                observer: Some(Box::new(observer)),
                snapshot,
                jitter_seed: self.seed ^ (self.boots << 48),
                telemetry: self.telemetry.clone(),
                serve_addr: if node == 0 { self.serve.clone() } else { None },
            },
        )?;
        self.net.attach(node, io);
        Ok((spawned.handle(), log))
    }

    fn shutdown(&self) {
        for h in &self.nodes {
            h.shutdown();
        }
    }

    /// Call into `node` from outside the event loop, on the simulator's
    /// clock, then turn its loop for what the call queued.
    fn call<R>(&mut self, node: usize, f: impl FnOnce(&NodeHandle) -> R) -> R {
        self.net.sync_clock(self.net.sim.now());
        let r = f(&self.nodes[node]);
        self.net.pump(node);
        r
    }
}

impl Drop for TcpBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Backend for TcpBackend {
    fn now(&self) -> SimTime {
        self.net.sim.now()
    }

    fn advance(&mut self, next_action: Option<SimTime>, deadline: SimTime) -> Advance {
        let next_event = self.net.sim.next_event_time().filter(|&t| t <= deadline);
        match (next_action, next_event) {
            // Ties go to the scheduled action, as on the simulator; it
            // runs at its own instant, on every node's clock.
            (Some(ta), te) if te.is_none_or(|te| ta <= te) => {
                self.net.sync_clock(ta);
                Advance::ActionDue
            }
            (_, Some(_)) => {
                self.net.sim.step();
                Advance::Stepped
            }
            _ => Advance::Done,
        }
    }

    fn dropped(&self) -> u64 {
        self.net.dropped()
    }

    fn set_link_up(&mut self, from: usize, to: usize, up: bool) {
        self.net.set_link_up(from, to, up);
    }

    fn set_loss(&mut self, from: usize, to: usize, probability: f64) {
        self.net.faults(from, to).loss = probability;
    }

    fn set_egress(&mut self, node: usize, bytes_per_sec: f64) {
        self.net.sim.set_egress_limit(node, bytes_per_sec);
    }

    fn set_delay(&mut self, from: usize, to: usize, extra: SimDuration) {
        self.net.sim.set_link_extra_delay(from, to, extra);
    }

    fn set_dup_reorder(&mut self, from: usize, to: usize, dup: f64, reorder: f64) {
        let link = self.net.faults(from, to);
        (link.dup, link.reorder) = (dup, reorder);
    }

    fn inject(&mut self, from: usize, to: usize, msg: WireMsg) {
        self.call(to, |h| h.inject_message(NodeId(from as u16), msg));
    }

    fn launch(&mut self) -> Result<(), ChaosError> {
        for i in 0..self.cfg.num_nodes() {
            let (handle, log) = self.spawn(i, None)?;
            self.nodes.push(handle);
            self.logs.push(log);
        }
        Ok(())
    }

    fn set_timer_scale(&mut self, node: usize, scale: f64) {
        self.call(node, |h| h.set_timer_scale(scale));
    }

    /// Snapshot, shut down, kill — in that order (see the module docs).
    fn crash(&mut self, node: usize) -> Snapshot {
        let snapshot = self.nodes[node].snapshot();
        self.nodes[node].shutdown();
        self.net.kill_links_of(node);
        snapshot
    }

    /// A new incarnation on a fresh endpoint. A joiner's boot-era
    /// placeholder is killed here (a joining node has no history); a
    /// crashed node's zombie is already shut down.
    fn boot(&mut self, node: usize, snapshot: Option<Snapshot>) {
        self.net.kill_links_of(node);
        self.nodes[node].shutdown();
        self.boots += 1;
        let (handle, log) = self
            .spawn(node, snapshot)
            .expect("predicates compiled at startup recompile on reboot");
        self.nodes[node] = handle;
        self.logs[node] = log;
    }

    fn begin_catch_up(&mut self, node: usize, restored: bool) {
        // Fresh spawns don't auto-request catch-up (only the
        // restore-from-snapshot path does): kick it off explicitly.
        self.call(node, |h| {
            if !restored {
                h.begin_catch_up();
            }
        });
    }

    fn enable_ack_journal(&mut self, node: usize) {
        self.nodes[node].lock_state().enable_ack_journal();
    }

    fn publish(&mut self, node: usize, payload: Bytes) -> Result<SeqNo, CoreError> {
        // Nothing drains the buffer while the call waits: refuse at once.
        self.call(node, |h| h.publish(payload, Duration::ZERO))
    }

    fn change_predicate(
        &mut self,
        node: usize,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.call(node, |h| h.change_predicate(stream, key, source))
    }

    fn waitfor(
        &mut self,
        node: usize,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
    ) -> Result<WaitToken, CoreError> {
        self.call(node, |h| h.begin_waitfor(stream, key, seq))
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
        f(&views)
    }
}
