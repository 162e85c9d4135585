//! The TCP runtime: one sans-IO machine behind one mutex, driven by the
//! shared link layer ([`crate::link`], which documents the thread
//! layout). The machine is a plain [`StabilizerNode`] or a
//! [`ShardedEngine`](stabilizer_shard::ShardedEngine); [`TcpMachine`] is
//! what this runtime needs of either, and [`crate::sharded`] holds what a
//! sharded node adds (and what it lacks: §III-E recovery).
//!
//! The link's I/O loop runs the machine **inline** — it folds each batch
//! of frames it reads under one acquisition of the state lock, fires
//! timers through it, and repairs a reconnected link through it. The lock is
//! held only while mutating the machine; emitted actions are executed
//! *after* release so user callbacks (monitors, delivery upcalls) can
//! re-enter the handle without deadlocking. The attached observer is the
//! one exception: it runs *before* release (the contract is written
//! once, in [`stabilizer_core::observe`]).

use crate::framing::Lane;
use crate::handle::NodeHandle;
use crate::link::{self, IoLoop, Link, LinkClient, LinkSpawn, Net, OsNet};
use crate::upcalls::Upcalls;
use bytes::Bytes;
use parking_lot::Mutex;
use stabilizer_core::{
    AckTypeId, AckTypeRegistry, Action, AppHooks, ClusterConfig, CoreError, Event, Metrics, NodeId,
    SeqNo, SimTime, Snapshot, StabilizerNode, TimerKind, WaitToken, WireMsg,
};
use stabilizer_telemetry::{StallProvider, Telemetry};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// What the TCP runtime needs of a machine: what it emits, its frame
/// lane, how it folds a reader batch, fires a timer and repairs a link,
/// the §III-D calls the handle forwards (publish, register, change,
/// wait, report, register an ACK type), and what the loop's telemetry
/// sample, `/stall` and the handle read off it. It has no recovery
/// calls: restore, suspicion and catch-up are a plain node's alone
/// (`impl NodeHandle`). Implemented by exactly [`StabilizerNode`] and
/// [`ShardedEngine`](stabilizer_shard::ShardedEngine); it exists so the
/// two share one runtime, not as an extension point.
pub trait TcpMachine: Send + Sized + 'static {
    /// What the machine emits: each action is a frame to send
    /// ([`TcpMachine::into_frame`]), an event ([`TcpMachine::observe`]),
    /// or both.
    type Action;
    /// The frame lane this machine's traffic travels on.
    type Lane: Lane;
    /// Thread-name prefix (`<prefix>-<me>-…`).
    const THREAD_PREFIX: &'static str;

    /// Hand over the pending actions, in order, by swapping them into
    /// `buf` (see [`StabilizerNode::swap_actions`]).
    fn swap_actions(&mut self, buf: &mut Vec<Self::Action>);
    /// What observers see of `action`.
    fn observe(action: &Self::Action) -> Option<Event<'_>>;
    /// See [`StabilizerNode::on_timer`].
    fn on_timer(&mut self, kind: TimerKind, now_nanos: u64);
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
    fn report_stability(
        &mut self,
        stream: NodeId,
        ty: AckTypeId,
        seq: SeqNo,
    ) -> Result<(), CoreError>;

    /// What the loop samples for the transport gauges (under the state
    /// lock): send-buffer bytes and blocked waits.
    fn sample(&self) -> (usize, usize);
    /// The frame `action` asks to send, as `(to, lane, message)`, or the
    /// action back when it is not a transmission.
    fn into_frame(action: Self::Action) -> Result<(NodeId, Self::Lane, WireMsg), Self::Action>;
    /// Fold a reader batch from `peer` (see [`LinkClient::on_frames`]).
    fn on_frames(&mut self, now_nanos: u64, peer: NodeId, frames: &mut Vec<(Self::Lane, WireMsg)>);
    /// See [`StabilizerNode::repair_link`].
    fn repair_link(&mut self, peer: NodeId);
    /// `/stall`'s body: live frontier blame as JSON.
    fn stall_json(&self) -> String;
    /// `(stream, key, f*)` of every installed predicate the prover
    /// decides, computed as the iterator is read.
    fn predicate_tolerances(&self) -> impl Iterator<Item = (NodeId, &str, i64)> + '_;
    /// See [`StabilizerNode::stability_frontier`].
    fn stability_frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)>;
    /// See [`StabilizerNode::last_published`].
    fn last_published(&self) -> SeqNo;
    /// See [`StabilizerNode::metrics`].
    fn metrics(&self) -> Metrics;
    /// See [`StabilizerNode::register_ack_type`].
    fn register_ack_type(&mut self, name: &str) -> AckTypeId;
}

impl TcpMachine for StabilizerNode {
    type Action = Action;
    type Lane = ();
    const THREAD_PREFIX: &'static str = "stab";

    fn swap_actions(&mut self, buf: &mut Vec<Action>) {
        self.swap_actions(buf);
    }
    fn observe(action: &Action) -> Option<Event<'_>> {
        action.event()
    }
    fn on_timer(&mut self, kind: TimerKind, now_nanos: u64) {
        self.on_timer(kind, now_nanos);
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
    fn report_stability(
        &mut self,
        stream: NodeId,
        ty: AckTypeId,
        seq: SeqNo,
    ) -> Result<(), CoreError> {
        self.report_stability(stream, ty, seq)
    }

    fn sample(&self) -> (usize, usize) {
        (self.send_buffer_bytes(), self.pending_waiters())
    }
    #[inline]
    fn into_frame(action: Action) -> Result<(NodeId, (), WireMsg), Action> {
        match action {
            Action::Send { to, msg } => Ok((to, (), msg)),
            other => Err(other),
        }
    }
    fn on_frames(&mut self, now_nanos: u64, peer: NodeId, frames: &mut Vec<((), WireMsg)>) {
        self.on_messages(now_nanos, frames.drain(..).map(|((), msg)| (peer, msg)));
    }
    fn repair_link(&mut self, peer: NodeId) {
        self.repair_link(peer);
    }
    fn stall_json(&self) -> String {
        stabilizer_core::render_stall_reports_json(&self.explain_all())
    }
    fn predicate_tolerances(&self) -> impl Iterator<Item = (NodeId, &str, i64)> + '_ {
        self.predicate_tolerances()
    }
    fn stability_frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        self.stability_frontier(stream, key)
    }
    fn last_published(&self) -> SeqNo {
        self.last_published()
    }
    fn metrics(&self) -> Metrics {
        self.metrics()
    }
    fn register_ack_type(&mut self, name: &str) -> AckTypeId {
        self.register_ack_type(name)
    }
}

/// State shared between a node's handle and its I/O loop.
pub struct Shared<M: TcpMachine> {
    /// This node's id.
    pub(crate) me: NodeId,
    /// The protocol state machine.
    pub(crate) node: Mutex<M>,
    /// The observer, shown every event under the state lock.
    observer: Option<Mutex<Box<dyn AppHooks + Send>>>,
    /// `waitfor` rendezvous, frontier monitors and delivery upcalls.
    pub(crate) upcalls: Upcalls,
    /// Sockets, link threads, clock and transport telemetry.
    pub(crate) link: Link<M::Lane>,
}

impl<M: TcpMachine> Shared<M> {
    /// Mutate the machine under the lock and show the observer what it
    /// emitted, then execute the emitted actions *outside* the lock.
    pub(crate) fn with_node<R>(&self, f: impl FnOnce(&mut M) -> R) -> R {
        let (r, actions) = self.locked(f);
        self.process(actions, None);
        r
    }

    /// Run `f` on the machine under the lock, take what it emitted and
    /// show the observer; the actions are the caller's to execute once
    /// the lock is released.
    pub(crate) fn locked<R>(&self, f: impl FnOnce(&mut M) -> R) -> (R, Vec<M::Action>) {
        let mut actions = Vec::new();
        let mut node = self.node.lock();
        let r = f(&mut node);
        node.swap_actions(&mut actions);
        if let Some(observer) = &self.observer {
            let (mut observer, now) = (observer.lock(), SimTime(self.link.now_nanos()));
            for event in actions.iter().filter_map(M::observe) {
                observer.on_event(now, &event);
            }
        }
        (r, actions)
    }

    /// Show the observer an event the runtime, not the machine, produced.
    fn notify(&self, event: Event<'_>) {
        if let Some(observer) = &self.observer {
            observer
                .lock()
                .on_event(SimTime(self.link.now_nanos()), &event);
        }
    }

    /// Surface a membership (re)join — catch-up requested on `streams`
    /// peer streams — to the attached observer.
    pub(crate) fn notify_join(&self, streams: usize) {
        if streams > 0 {
            self.notify(Event::Join { streams });
        }
    }

    /// Execute actions: forward sends to the writers, run callbacks for
    /// what every other action shows ([`TcpMachine::observe`]), then hand
    /// every completed wait to the rendezvous at once — except `own`,
    /// the calling thread's: whether it completed is returned instead.
    pub(crate) fn process(&self, actions: Vec<M::Action>, own: Option<WaitToken>) -> bool {
        let (mut done, mut own_done) = (Vec::new(), false);
        for action in actions {
            match M::into_frame(action) {
                Ok((to, lane, msg)) => self.link.send(to, lane, msg),
                Err(other) => match M::observe(&other) {
                    Some(Event::WaitDone { token }) if Some(token) == own => own_done = true,
                    Some(Event::WaitDone { token }) => done.push(token),
                    Some(event) => self.upcalls.fire(&event),
                    None => {}
                },
            }
        }
        self.upcalls.complete(done);
        own_done
    }
}

impl<M: TcpMachine> LinkClient for Shared<M> {
    type Lane = M::Lane;

    fn link(&self) -> &Link<M::Lane> {
        &self.link
    }

    fn on_frames(&self, peer: NodeId, frames: &mut Vec<(M::Lane, WireMsg)>) {
        let now = self.link.now_nanos();
        self.with_node(|node| node.on_frames(now, peer, frames));
    }

    fn repair_link(&self, peer: NodeId) {
        self.with_node(|node| node.repair_link(peer));
    }

    fn on_timer(&self, kind: TimerKind, now_nanos: u64) {
        self.with_node(|node| node.on_timer(kind, now_nanos));
    }

    fn sample(&self, telemetry: &Telemetry) {
        let ((buf, waiters), core) = {
            let node = self.node.lock();
            (node.sample(), node.metrics())
        };
        if let Some(m) = &self.link.metrics {
            m.send_buffer_bytes.set(buf as i64);
            m.pending_waiters.set(waiters as i64);
        }
        telemetry.record_node_metrics(self.me, &core);
    }

    fn on_connect_failed(&self, peer: NodeId) {
        self.notify(Event::ConnectFailed { peer });
    }
}

/// A node running on the TCP runtime. Dropping it does not stop the
/// node; call [`NodeHandle::shutdown`].
pub struct TcpNode<M: TcpMachine = StabilizerNode> {
    handle: NodeHandle<M>,
}

impl<M: TcpMachine> TcpNode<M> {
    /// The application handle.
    pub fn handle(&self) -> NodeHandle<M> {
        self.handle.clone()
    }
}

/// Extra knobs for [`spawn_node_with`] and
/// [`spawn_sharded_node`](crate::spawn_sharded_node). `Default`
/// reproduces [`spawn_node`]'s behavior exactly.
#[derive(Default)]
pub struct SpawnOptions {
    /// Observer shown every event (under the state lock; see
    /// [`stabilizer_core::observe`] for the contract). The only way a
    /// node feeds a hub's latency histograms and event counters: attach
    /// the hub's [`MetricsObserver`](stabilizer_telemetry::MetricsObserver)
    /// here (or an [`ObserverChain`](stabilizer_core::ObserverChain)
    /// holding it), and stamp each publish with
    /// [`Telemetry::note_publish_now`].
    pub observer: Option<Box<dyn AppHooks + Send>>,
    /// Restart from this control-plane snapshot instead of booting
    /// fresh: the recorder is restored, every mirrored stream resumes at
    /// its snapshotted RECEIVED cell ([`StabilizerNode::restore`]), and
    /// the writers re-announce ACKs on their first connect so peers
    /// resynchronize immediately. A plain node only: a sharded node
    /// given one refuses to start.
    pub snapshot: Option<Snapshot>,
    /// Seed for the reconnect backoff jitter (per-link streams are
    /// derived from it, so two nodes never share a retry schedule).
    pub jitter_seed: u64,
    /// Telemetry hub to feed: registers this node's transport counters
    /// and lets the I/O loop mirror the control-plane [`Metrics`] into
    /// gauges — nothing else (see [`SpawnOptions::observer`]).
    pub telemetry: Option<Arc<Telemetry>>,
    /// Serve the attached telemetry over HTTP on this address (e.g.
    /// `127.0.0.1:9464`; port 0 picks an ephemeral port, readable back
    /// via [`NodeHandle::serve_addr`]). Routes: `/metrics` (Prometheus
    /// text with exemplars), `/metrics.json`, `/trace[?n=N]`, and
    /// `/stall` (live frontier blame, per shard on a sharded node).
    /// No-op without `telemetry`.
    pub serve_addr: Option<String>,
}

/// Launch node `me` of `cfg`, listening on `listener` and connecting out
/// to `peer_addrs[j]` for every peer `j`.
///
/// # Errors
///
/// Fails if a configured predicate does not compile or the link thread
/// cannot be spawned.
pub fn spawn_node(
    cfg: ClusterConfig,
    me: NodeId,
    acks: Arc<AckTypeRegistry>,
    listener: TcpListener,
    peer_addrs: Vec<(NodeId, SocketAddr)>,
) -> Result<TcpNode, CoreError> {
    spawn_node_with(cfg, me, acks, listener, peer_addrs, SpawnOptions::default())
}

/// [`spawn_node`] with chaos/recovery knobs: an action observer, a
/// restart-from-snapshot path, and a seeded reconnect jitter.
///
/// # Errors
///
/// Fails if a configured predicate does not compile (both the fresh and
/// the restore path recompile every predicate), or if the link thread
/// cannot be spawned.
pub fn spawn_node_with(
    cfg: ClusterConfig,
    me: NodeId,
    acks: Arc<AckTypeRegistry>,
    listener: TcpListener,
    peer_addrs: Vec<(NodeId, SocketAddr)>,
    opts: SpawnOptions,
) -> Result<TcpNode, CoreError> {
    let (net, bell) = OsNet::new(listener, peer_addrs)?;
    let (node, io) = spawn_node_on(cfg, me, acks, net, opts)?;
    link::run_on_thread(io, bell, StabilizerNode::THREAD_PREFIX)?;
    Ok(node)
}

/// The I/O loop of a node [`spawn_node_on`] started on a net its caller
/// drives: [`IoLoop::turn`] it whenever something arrives on the net or
/// [`IoLoop::due_in`] runs out.
pub type NodeLoop<N, M = StabilizerNode> = IoLoop<Shared<M>, N>;

/// Start node `me` of `cfg` on `net` — as [`spawn_node_with`] does on
/// real sockets — and hand back its I/O loop instead of turning it on a
/// thread: the caller drives the net, on the net's clock.
///
/// # Errors
///
/// Fails if a configured predicate does not compile, or on a bind
/// failure of `opts.serve_addr`.
pub fn spawn_node_on<N: Net>(
    cfg: ClusterConfig,
    me: NodeId,
    acks: Arc<AckTypeRegistry>,
    net: N,
    mut opts: SpawnOptions,
) -> Result<(TcpNode, NodeLoop<N>), CoreError> {
    let (node, restored) = match opts.snapshot.take() {
        None => (StabilizerNode::new(cfg.clone(), me, acks)?, None),
        Some(snapshot) => {
            let mut node = StabilizerNode::restore(cfg.clone(), me, acks, snapshot)?;
            // `restore` resumed every mirrored stream where the durable
            // acknowledgment left off. Ask every live donor for a
            // snapshot + retained-log replay, covering whatever was
            // published past it while this node was down (no-op unless
            // `transfer_millis` is configured).
            let streams = node.begin_catch_up(net.clock().start_nanos());
            (node, Some(streams))
        }
    };
    spawn(&cfg, me, node, net, opts, restored)
}

/// Start `node`, node `me` of `cfg`, on the TCP runtime over `net`: the
/// one spawn path under both machines and every net. `restored` is
/// `Some(streams)` for a node restored from a snapshot that requested
/// catch-up on `streams` peer streams; `opts.snapshot` has been
/// consumed. The loop is the caller's to turn.
pub(crate) fn spawn<M: TcpMachine, N: Net>(
    cfg: &ClusterConfig,
    me: NodeId,
    node: M,
    net: N,
    opts: SpawnOptions,
    restored: Option<usize>,
) -> Result<(TcpNode<M>, NodeLoop<N, M>), CoreError> {
    let clock = net.clock();
    let link = Link::new(cfg, me, clock, opts.telemetry, node.predicate_tolerances());
    let shared = Arc::new(Shared {
        me,
        node: Mutex::new(node),
        observer: opts.observer.map(Mutex::new),
        upcalls: Upcalls::default(),
        link,
    });
    // `/stall` locks the machine and diagnoses every frontier live. A
    // weak ref keeps the provider from pinning the runtime after
    // shutdown takes the server down.
    let weak = Arc::downgrade(&shared);
    let stall: StallProvider = Arc::new(move || match weak.upgrade() {
        Some(shared) => shared.node.lock().stall_json(),
        None => "{\"reports\":[]}".to_string(),
    });
    shared.link.serve(opts.serve_addr.as_deref(), stall)?;
    let params = LinkSpawn {
        repair_first_connect: restored.is_some(),
        jitter_seed: opts.jitter_seed,
    };
    let io = IoLoop::new(&shared, net, cfg.options(), params);

    // Flush actions queued during construction (configured predicates,
    // and a restore's re-evaluation of every one, can emit frontier
    // updates) now that the link queues and the observer are in
    // place.
    shared.notify_join(restored.unwrap_or(0));
    shared.with_node(|_| ());

    let handle = NodeHandle { shared };
    Ok((TcpNode { handle }, io))
}

/// Launch an in-process cluster on localhost (one runtime per topology
/// node), for tests and single-machine demos.
///
/// # Errors
///
/// Propagates listener-bind and predicate-compile failures.
pub fn spawn_local_cluster(cfg: &ClusterConfig) -> Result<Vec<TcpNode>, CoreError> {
    let acks = Arc::new(AckTypeRegistry::new());
    link::spawn_local_cluster(cfg.num_nodes(), |me, listener, peer_addrs| {
        spawn_node(cfg.clone(), me, Arc::clone(&acks), listener, peer_addrs)
    })
}
