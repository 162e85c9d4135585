//! The plain TCP runtime: one sans-IO [`StabilizerNode`] behind one
//! mutex, driven by the shared link layer ([`crate::link`], which
//! documents the thread layout).
//!
//! What is specific to this node shape: link threads run the state
//! machine **inline** — a reader folds each batch of frames under one
//! [`Shared::with_node`], the ticker fires timers through it, a writer
//! repairs its link through it. The node mutex is held only while
//! mutating the state machine; emitted [`Action`]s are executed *after*
//! release so user callbacks (monitors, delivery upcalls) can re-enter
//! the handle without deadlocking. The attached observer is the one
//! exception: it runs *before* release (the contract is written once, in
//! [`stabilizer_core::observe`]).

use crate::handle::NodeHandle;
use crate::link::{self, Link, LinkClient, LinkSpawn, MetricsDump};
use crate::upcalls::Upcalls;
use parking_lot::Mutex;
use stabilizer_core::{
    AckTypeRegistry, Action, AppHooks, ClusterConfig, CoreError, Event, NodeId, SimTime, Snapshot,
    StabilizerNode, TimerKind, WireMsg, RECEIVED,
};
use stabilizer_telemetry::{StallProvider, Telemetry};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// State shared between the handle and the link threads.
pub struct Shared {
    /// This node's id.
    pub me: NodeId,
    /// The protocol state machine.
    pub node: Mutex<StabilizerNode>,
    /// The external observer, invoked under the node lock.
    pub observer: Mutex<Option<Box<dyn AppHooks + Send>>>,
    /// `waitfor` rendezvous, frontier monitors and delivery upcalls.
    pub(crate) upcalls: Upcalls,
    /// Sockets, link threads, clock and transport telemetry.
    pub(crate) link: Link<()>,
}

impl Shared {
    /// Mutate the state machine under the lock, then execute the emitted
    /// actions *outside* it (observers excepted, see module docs).
    pub fn with_node<R>(&self, f: impl FnOnce(&mut StabilizerNode) -> R) -> R {
        let (r, actions) = {
            let mut node = self.node.lock();
            let r = f(&mut node);
            let actions = node.take_actions();
            self.observe(actions.iter().filter_map(Action::event));
            (r, actions)
        };
        self.process(actions);
        r
    }

    /// Show `events` to the attached observer. For action events this is
    /// called with the node lock held, so the observer's log is never
    /// behind the machine state.
    pub(crate) fn observe<'a>(&self, events: impl IntoIterator<Item = Event<'a>>) {
        if let Some(obs) = self.observer.lock().as_mut() {
            let now = SimTime(self.link.now_nanos());
            for event in events {
                obs.on_event(now, &event);
            }
        }
    }

    /// Execute actions: run callbacks for what each one shows
    /// ([`Action::event`]), forward sends to writer channels, then wake
    /// the waiters of every completed wait at once.
    pub fn process(&self, actions: Vec<Action>) {
        let mut done = Vec::new();
        for action in actions {
            match action {
                Action::Send { to, msg } => self.link.send(to, (), msg),
                Action::WaitDone { token } => done.push(token),
                other => {
                    if let Some(event) = other.event() {
                        self.upcalls.fire(&event);
                    }
                }
            }
        }
        self.upcalls.complete(done);
    }

    /// Surface a membership (re)join — catch-up requested on `streams`
    /// peer streams — to the attached observer.
    pub(crate) fn notify_join(&self, streams: usize) {
        if streams > 0 {
            self.observe([Event::Join { streams }]);
        }
    }
}

impl LinkClient for Shared {
    type Lane = ();

    fn link(&self) -> &Link<()> {
        &self.link
    }

    fn on_frames(&self, peer: NodeId, frames: &mut Vec<((), WireMsg)>) {
        let now = self.link.now_nanos();
        let msgs = frames.drain(..).map(|((), msg)| (peer, msg));
        self.with_node(|n| n.on_messages(now, msgs));
    }

    fn repair_link(&self, peer: NodeId) {
        self.with_node(|n| n.repair_link(peer));
    }

    fn on_timer(&self, kind: TimerKind, now_nanos: u64) {
        self.with_node(|n| n.on_timer(kind, now_nanos));
    }

    fn sample(&self, telemetry: &Telemetry) {
        let (buf, waiters, core) = {
            let node = self.node.lock();
            (
                node.send_buffer_bytes(),
                node.pending_waiters(),
                node.metrics(),
            )
        };
        if let Some(m) = &self.link.metrics {
            m.send_buffer_bytes.set(buf as i64);
            m.pending_waiters.set(waiters as i64);
        }
        telemetry.record_node_metrics(self.me, &core);
    }

    fn on_connect_failed(&self, peer: NodeId) {
        self.observe([Event::ConnectFailed { peer }]);
    }
}

/// A node running on the TCP runtime. Dropping the cluster handle does
/// not stop nodes; call [`NodeHandle::shutdown`].
pub struct TcpNode {
    handle: NodeHandle,
}

impl TcpNode {
    /// The application handle.
    pub fn handle(&self) -> NodeHandle {
        self.handle.clone()
    }
}

/// Extra knobs for [`spawn_node_with`]. `Default` reproduces
/// [`spawn_node`]'s behavior exactly.
#[derive(Default)]
pub struct SpawnOptions {
    /// Observer shown every event (under the node lock; see
    /// [`stabilizer_core::observe`] for the contract).
    pub observer: Option<Box<dyn AppHooks + Send>>,
    /// Restart from this control-plane snapshot instead of booting
    /// fresh: the recorder is restored, every remote stream is
    /// fast-forwarded to its snapshotted RECEIVED cell (§III-E state
    /// transfer), and the writers re-announce ACKs on their first
    /// connect so peers resynchronize immediately.
    pub snapshot: Option<Snapshot>,
    /// Seed for the reconnect backoff jitter (per-link streams are
    /// derived from it, so two nodes never share a retry schedule).
    pub jitter_seed: u64,
    /// Telemetry hub to feed: registers this node's transport counters
    /// and lets the ticker mirror the control-plane
    /// [`Metrics`](stabilizer_core::Metrics) into gauges. Attach the hub's
    /// [`MetricsObserver`](stabilizer_telemetry::MetricsObserver) via
    /// [`SpawnOptions::observer`] (or an
    /// [`ObserverChain`](stabilizer_core::ObserverChain)) to also get
    /// latency histograms.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Periodically write a Prometheus text snapshot of the attached
    /// telemetry (no-op without `telemetry`).
    pub metrics_dump: Option<MetricsDump>,
    /// Serve the attached telemetry over HTTP on this address (e.g.
    /// `127.0.0.1:9464`; port 0 picks an ephemeral port, readable back
    /// via [`NodeHandle::serve_addr`]). Routes: `/metrics` (Prometheus
    /// text with exemplars), `/metrics.json`, `/trace[?n=N]`, and
    /// `/stall` (live frontier blame from
    /// [`StabilizerNode::explain_all`]). No-op without `telemetry`.
    pub serve_addr: Option<String>,
}

/// Launch node `me` of `cfg`, listening on `listener` and connecting out
/// to `peer_addrs[j]` for every peer `j`.
///
/// # Errors
///
/// Fails if a configured predicate does not compile.
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
/// the restore path recompile every predicate).
pub fn spawn_node_with(
    cfg: ClusterConfig,
    me: NodeId,
    acks: Arc<AckTypeRegistry>,
    listener: TcpListener,
    peer_addrs: Vec<(NodeId, SocketAddr)>,
    opts: SpawnOptions,
) -> Result<TcpNode, CoreError> {
    let restored = opts.snapshot.is_some();
    let mut join_streams = 0;
    let node = match opts.snapshot {
        None => StabilizerNode::new(cfg.clone(), me, acks)?,
        Some(snapshot) => {
            let mut node = StabilizerNode::restore(cfg.clone(), me, acks, snapshot)?;
            // §III-E state transfer: the mirror resumes every remote
            // stream it has a link for exactly where its durable
            // acknowledgment left off.
            for (peer, _) in &peer_addrs {
                if cfg.placement().linked(me, *peer) {
                    let high = node.recorder().get(*peer, me, RECEIVED);
                    node.fast_forward_stream(*peer, high);
                }
            }
            // Then ask every live donor for a snapshot + retained-log
            // replay, covering whatever was published past the durable
            // acknowledgment while this node was down (no-op unless
            // `transfer_millis` is configured).
            join_streams = node.begin_catch_up(0);
            node
        }
    };
    let link = Link::new(&cfg, me, opts.telemetry, node.predicate_tolerances());
    let shared = Arc::new(Shared {
        me,
        node: Mutex::new(node),
        observer: Mutex::new(opts.observer),
        upcalls: Upcalls::default(),
        link,
    });
    // `/stall` locks the node and diagnoses every (stream, key) frontier
    // live. A weak ref keeps the provider from pinning the runtime after
    // shutdown takes the server down.
    let weak = Arc::downgrade(&shared);
    let stall: StallProvider = Arc::new(move || match weak.upgrade() {
        Some(shared) => {
            let node = shared.node.lock();
            stabilizer_core::render_stall_reports_json(&node.explain_all())
        }
        None => "{\"reports\":[]}".to_string(),
    });
    shared.link.serve(opts.serve_addr.as_deref(), stall)?;
    link::spawn(
        &shared,
        listener,
        peer_addrs,
        cfg.options(),
        LinkSpawn {
            thread_prefix: "stab",
            repair_first_connect: restored,
            jitter_seed: opts.jitter_seed,
            metrics_dump: opts.metrics_dump,
        },
    );

    // Flush actions queued during construction (a restore re-evaluates
    // every predicate, which can emit frontier updates) now that the
    // writer channels and the observer are in place.
    shared.notify_join(join_streams);
    shared.with_node(|_| ());

    Ok(TcpNode {
        handle: NodeHandle { shared },
    })
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
