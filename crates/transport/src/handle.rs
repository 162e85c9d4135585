//! The application-facing handle for a running Stabilizer node: the
//! paper's §III-D interfaces (`waitfor`, `monitor_stability_frontier`,
//! `register_predicate`, `change_predicate`) in blocking form, the same
//! on a plain node and a sharded one.

use crate::runtime::{Shared, TcpMachine};
use bytes::Bytes;
use stabilizer_core::{
    AckTypeId, CoreError, FrontierUpdate, Metrics, NodeId, SeqNo, Snapshot, StabilizerNode,
    StallReport, WaitToken,
};
use std::ops::Deref;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::upcalls::{DeliverFn, MonitorFn};

/// Handle to a node running on the threaded TCP runtime: a plain
/// [`StabilizerNode`] by default, or a sharded one
/// ([`ShardedHandle`](crate::ShardedHandle)), whose sequence numbers are
/// global throughout.
///
/// Cloning is cheap; all clones talk to the same node.
pub struct NodeHandle<M: TcpMachine = StabilizerNode> {
    pub(crate) shared: Arc<Shared<M>>,
}

impl<M: TcpMachine> Clone for NodeHandle<M> {
    fn clone(&self) -> Self {
        NodeHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M: TcpMachine> NodeHandle<M> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.shared.me
    }

    /// Publish a payload on this node's stream (a sharded node routes it
    /// by its [`RoutePolicy`](stabilizer_shard::RoutePolicy)).
    ///
    /// Retries transparently on send-buffer backpressure, and while a
    /// restored node is fenced, until `timeout` elapses, counted from the
    /// first refusal: a publish the buffer takes at once never reads the
    /// clock.
    ///
    /// # Errors
    ///
    /// [`CoreError::WouldBlock`] if the buffer stayed full for the whole
    /// timeout, [`CoreError::Fenced`] if the fence did not lift in it, or
    /// [`CoreError::PayloadTooLarge`].
    pub fn publish(&self, payload: Bytes, timeout: Duration) -> Result<SeqNo, CoreError> {
        self.publish_by(payload, timeout, M::publish)
    }

    /// [`NodeHandle::publish`] through `publish`.
    pub(crate) fn publish_by(
        &self,
        payload: Bytes,
        timeout: Duration,
        publish: impl Fn(&mut M, Bytes) -> Result<SeqNo, CoreError>,
    ) -> Result<SeqNo, CoreError> {
        let mut deadline = None;
        loop {
            let result = self.shared.with_node(|node| publish(node, payload.clone()));
            match result {
                Err(CoreError::WouldBlock { .. } | CoreError::Fenced)
                    if *deadline.get_or_insert_with(|| Instant::now() + timeout)
                        > Instant::now() =>
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => return other,
            }
        }
    }

    /// Register a predicate for `stream` under `key` (§III-D
    /// `register_predicate`; on every shard of a sharded node).
    ///
    /// # Errors
    ///
    /// DSL compile errors.
    pub fn register_predicate(
        &self,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.shared
            .with_node(|node| node.register_predicate(stream, key, source))
    }

    /// Replace a predicate at runtime (§III-D `change_predicate`).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownPredicate`] or DSL compile errors.
    pub fn change_predicate(
        &self,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.shared
            .with_node(|node| node.change_predicate(stream, key, source))
    }

    /// Current `(frontier, generation)` of a predicate.
    pub fn stability_frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        self.shared.node.lock().stability_frontier(stream, key)
    }

    /// Block until the predicate's frontier reaches `seq` or `timeout`
    /// elapses; returns `true` on success (§III-D `waitfor`).
    ///
    /// A frontier already at `seq` returns `Ok(true)` at once, without
    /// reading the clock or waking anyone; otherwise `timeout` runs from
    /// the moment the wait is found pending. Either way a completed wait
    /// shows the observer its one `WaitDone`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownPredicate`] for an unregistered key.
    pub fn waitfor(
        &self,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
        timeout: Duration,
    ) -> Result<bool, CoreError> {
        let (token, actions) = self.shared.locked(|node| node.waitfor(stream, key, seq));
        let done = self.shared.process(actions, token.as_ref().ok().copied());
        Ok(done || self.shared.upcalls.wait(token?, timeout))
    }

    /// Register `lambda` to run on every frontier advance of
    /// `(stream, key)` (§III-D `monitor_stability_frontier`).
    pub fn monitor_stability_frontier(
        &self,
        stream: NodeId,
        key: &str,
        lambda: impl FnMut(&FrontierUpdate) + Send + 'static,
    ) {
        self.shared
            .upcalls
            .add_monitor(stream, key, Box::new(lambda));
    }

    /// Register a delivery upcall for mirrored data; payloads arrive in
    /// FIFO order per origin.
    pub fn on_deliver(&self, f: impl FnMut(NodeId, SeqNo, &Bytes) + Send + 'static) {
        self.shared.upcalls.add_deliver(Box::new(f));
    }

    /// Register an application-defined stability level.
    pub fn register_ack_type(&self, name: &str) -> AckTypeId {
        self.shared.with_node(|node| node.register_ack_type(name))
    }

    /// Report application-level stability for a stream (e.g. `verified`).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownStream`] for a stream outside the cluster.
    pub fn report_stability(
        &self,
        stream: NodeId,
        ty: AckTypeId,
        seq: SeqNo,
    ) -> Result<(), CoreError> {
        self.shared
            .with_node(|node| node.report_stability(stream, ty, seq))
    }

    /// Highest sequence number published locally.
    pub fn last_published(&self) -> SeqNo {
        self.shared.node.lock().last_published()
    }

    /// Bound address of the live telemetry endpoint, when spawned with
    /// [`SpawnOptions::serve_addr`](crate::SpawnOptions::serve_addr)
    /// (resolves port 0 to the actual port).
    pub fn serve_addr(&self) -> Option<std::net::SocketAddr> {
        self.shared.link.serve_addr()
    }

    /// Current traffic counters (summed across shards on a sharded node,
    /// where `data_bytes_sent` includes each payload's 8-byte global
    /// header).
    pub fn metrics(&self) -> Metrics {
        self.shared.node.lock().metrics()
    }

    /// Peers the I/O loop permanently gave up dialing (empty unless
    /// `connect_retry_limit` is configured).
    pub fn connect_failures(&self) -> Vec<NodeId> {
        self.shared.link.connect_failures()
    }

    /// Scale this node's timer cadence (clock-skew fault injection):
    /// every timer interval — ACK flush, heartbeat, failure detector,
    /// retransmit, transfer pacing — runs at `scale ×` its configured
    /// length. 1.0 restores nominal.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn set_timer_scale(&self, scale: f64) {
        self.shared.link.set_timer_scale(scale);
    }

    /// Ask the runtime to stop its threads. Idempotent.
    pub fn shutdown(&self) {
        self.shared.link.shutdown();
    }
}

impl NodeHandle {
    /// Whether the failure detector currently suspects `node`.
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.shared.node.lock().is_suspected(node)
    }

    /// Ask every peer for a §III-E snapshot + retained-log replay. The
    /// restore path does this automatically; call it manually to force a
    /// re-sync (no-op when `transfer_millis` is 0).
    pub fn begin_catch_up(&self) {
        let now = self.shared.link.now_nanos();
        let streams = self.shared.with_node(|node| node.begin_catch_up(now));
        self.shared.notify_join(streams);
    }

    /// Number of in-flight state-transfer sessions (inbound + outbound).
    pub fn active_transfers(&self) -> usize {
        self.shared.node.lock().active_transfers()
    }

    /// Diagnose why `key`'s frontier on `stream` sits where it does
    /// (`None` if no such predicate is installed).
    pub fn explain_frontier(&self, stream: NodeId, key: &str) -> Option<StallReport> {
        self.shared.node.lock().explain_frontier(stream, key)
    }

    /// Diagnose every installed `(stream, key)` frontier.
    pub fn explain_all(&self) -> Vec<StallReport> {
        self.shared.node.lock().explain_all()
    }

    /// Highest in-order sequence this node has received of `stream`
    /// (its own `received` counter).
    pub fn received_of(&self, stream: NodeId) -> SeqNo {
        let node = self.shared.node.lock();
        let me = node.me();
        node.recorder().get(stream, me, stabilizer_core::RECEIVED)
    }

    /// Highest in-order sequence this node has *delivered* of `stream`.
    pub fn delivered_of(&self, stream: NodeId) -> SeqNo {
        let node = self.shared.node.lock();
        let me = node.me();
        node.recorder().get(stream, me, stabilizer_core::DELIVERED)
    }

    /// Lock the state machine for read access. While the guard lives the
    /// runtime threads are paused at the lock, so the view is a
    /// consistent cut — and any attached observer's log is at least as
    /// fresh as it (observers run under this same lock).
    ///
    /// Hold the guard briefly: every runtime thread of this node blocks
    /// on it.
    pub fn lock_state(&self) -> StateGuard<'_> {
        StateGuard(self.shared.node.lock())
    }

    /// Control-plane snapshot (§III-E) for restart-from-snapshot via
    /// [`SpawnOptions::snapshot`](crate::SpawnOptions::snapshot).
    pub fn snapshot(&self) -> Snapshot {
        self.shared.node.lock().snapshot()
    }

    /// Non-blocking `waitfor`: registers the wait and returns its token;
    /// completion shows up as the observer's
    /// [`Event::WaitDone`](stabilizer_core::Event::WaitDone) and in
    /// [`NodeHandle::wait_is_done`].
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownPredicate`] for an unregistered key.
    pub fn begin_waitfor(
        &self,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
    ) -> Result<WaitToken, CoreError> {
        self.shared.with_node(|node| node.waitfor(stream, key, seq))
    }

    /// Whether a wait registered with [`NodeHandle::begin_waitfor`] has
    /// completed (consumes the completion).
    pub fn wait_is_done(&self, token: WaitToken) -> bool {
        self.shared.upcalls.take_done(token)
    }

    /// Inject a wire message as if it had arrived from `from` — the
    /// chaos harness's seam for forging protocol traffic (mutation
    /// checks that prove the invariant checker catches corrupted state).
    #[doc(hidden)]
    pub fn inject_message(&self, from: NodeId, msg: stabilizer_core::WireMsg) {
        let now = self.shared.link.now_nanos();
        self.shared
            .with_node(|node| node.on_message(now, from, msg));
    }
}

/// Read guard over the state machine returned by
/// [`NodeHandle::lock_state`]; dereferences to [`StabilizerNode`].
pub struct StateGuard<'a>(parking_lot::MutexGuard<'a, StabilizerNode>);

impl Deref for StateGuard<'_> {
    type Target = StabilizerNode;

    fn deref(&self) -> &StabilizerNode {
        &self.0
    }
}

impl std::ops::DerefMut for StateGuard<'_> {
    fn deref_mut(&mut self) -> &mut StabilizerNode {
        &mut self.0
    }
}

impl<M: TcpMachine> std::fmt::Debug for NodeHandle<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHandle")
            .field("me", &self.shared.me)
            .finish()
    }
}
