//! The TCP link layer under the runtime: every socket, every I/O thread
//! and the wall-clock ticker of a node live here, generic over the frame
//! [`Lane`] and a [`LinkClient`] — the [`runtime`](crate::runtime) over
//! a plain or a sharded machine, which owns the protocol state (the
//! unit tests drive a stub instead).
//!
//! Thread layout per node, spawned by `spawn`:
//!
//! * one **accept** thread blocked in `accept()` ([`Link::shutdown`]
//!   wakes it with a self-connect), handing each inbound connection to a
//!   **reader** thread that validates the hello (the announced id must
//!   be a configured, linked node other than this one; a refused
//!   connection gets a FIN and is drained, never reset; a connection no
//!   reader thread can be spawned for gets a FIN and the accept thread
//!   goes on). After every blocking read the reader decodes *all*
//!   frames that read completed — in its buffer, or in the buffers of a
//!   run of large frames (`FrameReader`) — and hands them to
//!   [`LinkClient::on_frames`] as one **reader batch**: what has already
//!   arrived, never what might — the buffers' capacity is the only
//!   bound, there is no second blocking read before the hand-off, and a
//!   lone frame is a batch of one;
//! * one **writer** thread per linked peer, draining that peer's channel
//!   of outbound `(lane, message)` pairs into a buffered, (re)connecting
//!   socket. Frames lost while a link is down are repaired on reconnect
//!   by [`LinkClient::repair_link`] (resend from the send buffer plus a
//!   full ACK re-announcement), which runs *before* the queue is drained
//!   again. The buffer is flushed whenever the queue runs empty, so
//!   latency is bounded by the batch, not by a timer. `AckBatch` frames
//!   are not written as they are dequeued: the writer keeps one **held
//!   ACK row** per lane, max-merged per cell ([`Ack::max_merge`]), and
//!   writes it at the tail of the burst — when the queue runs empty or
//!   one write buffer of bytes has been dequeued since the row was
//!   first held, whichever comes first, always before the flush — so
//!   `D1 A1 D2 A2 D3 A3` leaves as `D1 D2 D3 A3`. A stability report is
//!   monotone: delaying it behind frames queued after it cannot be told
//!   from it having been queued later, and a row dropped with a broken
//!   connection is covered by the reconnect's re-announcement. No other
//!   frame kind is reordered;
//! * one **ticker** thread arming the [`TimerKind`] table against the
//!   wall clock (each period stretched by the clock-skew scale),
//!   calling [`LinkClient::on_timer`] on expiry, and sampling telemetry
//!   through [`LinkClient::sample`] every 20 ms.
//!
//! Locking discipline: the link's own locks (`senders`,
//! `connect_failed`, `telemetry_server`) are leaves — nothing is called
//! with one held. Link threads call into the client with **no** link
//! lock held, and the client may call `Link::send` from under its own
//! locks. A poll-based back end would replace this file and nothing
//! else.

use crate::backoff::{link_seed, Backoff};
use crate::framing::{hello, parse_hello, write_lane_frame_with, FrameReader, Lane};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use stabilizer_core::timers::{self, TimerKind};
use stabilizer_core::{Ack, ClusterConfig, CoreError, NodeId, Options, PlacementMap, WireMsg};
use stabilizer_telemetry::{
    Counter, Gauge, ServerRoutes, StallProvider, Telemetry, TelemetryServer,
};
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long a writer blocks on an empty queue before re-checking for
/// shutdown. Not a latency bound: the queue is flushed before blocking.
const IDLE_POLL: Duration = Duration::from_millis(100);
/// Capacity of a connection's write buffer: the bound on one write burst,
/// on how long a held ACK row rides behind the frames queued after it,
/// and on the large frames a reader takes in one read.
pub(crate) const WRITE_BUF: usize = 64 * 1024;
/// Telemetry sampling cadence of the ticker.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Transport-level counters and gauges for one node, registered in the
/// attached [`Telemetry`] hub's registry. Handles are plain atomics, so
/// the I/O threads record without locking.
pub struct TransportMetrics {
    /// Frames written to peers (hello and repair traffic included).
    pub frames_out: Counter,
    /// Bytes written to peers (length prefixes included).
    pub bytes_out: Counter,
    /// Frames read from inbound connections (each one's hello included).
    pub frames_in: Counter,
    /// Bytes read from inbound connections.
    pub bytes_in: Counter,
    /// Reader batches: blocking reads that completed at least one frame,
    /// each handed to the node in one call. `frames_in / read_batches`
    /// is the mean fold size.
    pub read_batches: Counter,
    /// `AckBatch` frames a writer merged into a row it already held
    /// instead of writing them.
    pub acks_coalesced: Counter,
    /// Successful connects after the first per link (i.e. reconnects).
    pub reconnects: Counter,
    /// Failed connect attempts (each is followed by a backoff sleep).
    pub connect_attempts: Counter,
    /// Total nanoseconds writer threads spent in backoff sleeps.
    pub backoff_sleep_ns: Counter,
    /// Current send-buffer occupancy (sampled by the ticker).
    pub send_buffer_bytes: Gauge,
    /// Blocked `waitfor`s (sampled by the ticker).
    pub pending_waiters: Gauge,
}

impl TransportMetrics {
    fn new(t: &Telemetry, me: NodeId) -> Self {
        let id = me.0.to_string();
        let labels: &[(&str, &str)] = &[("node", &id)];
        let reg = t.registry();
        TransportMetrics {
            frames_out: reg.counter("stab_tcp_frames_out_total", labels),
            bytes_out: reg.counter("stab_tcp_bytes_out_total", labels),
            frames_in: reg.counter("stab_tcp_frames_in_total", labels),
            bytes_in: reg.counter("stab_tcp_bytes_in_total", labels),
            read_batches: reg.counter("stab_tcp_read_batches_total", labels),
            acks_coalesced: reg.counter("stab_tcp_acks_coalesced_total", labels),
            reconnects: reg.counter("stab_tcp_reconnects_total", labels),
            connect_attempts: reg.counter("stab_tcp_connect_attempts_total", labels),
            backoff_sleep_ns: reg.counter("stab_tcp_backoff_sleep_ns_total", labels),
            send_buffer_bytes: reg.gauge("stab_tcp_send_buffer_bytes", labels),
            pending_waiters: reg.gauge("stab_tcp_pending_waiters", labels),
        }
    }

    fn wrote(&self, wire_len: usize) {
        self.frames_out.inc();
        self.bytes_out.add(wire_len as u64);
    }
}

/// What the runtime over a link provides to it. Every method is called
/// from a link thread with no link lock held.
pub trait LinkClient: Send + Sync + 'static {
    /// The frame lane this client speaks.
    type Lane: Lane;

    /// The link state embedded in this client.
    fn link(&self) -> &Link<Self::Lane>;

    /// A reader batch arrived from `peer`: every frame one blocking read
    /// completed, in wire order, never empty (reader thread; the hello
    /// has been validated and is not passed on). The vector is the
    /// reader's to reuse; whatever is left in it is discarded.
    fn on_frames(&self, peer: NodeId, frames: &mut Vec<(Self::Lane, WireMsg)>);

    /// The link to `peer` was (re)established after traffic may have
    /// been lost: resend unacknowledged data and re-announce ACKs
    /// (writer thread, before it drains the queue again).
    fn repair_link(&self, peer: NodeId);

    /// Timer `kind` expired (ticker thread).
    fn on_timer(&self, kind: TimerKind, now_nanos: u64);

    /// Mirror the client's state into the attached hub (ticker thread,
    /// every 20 ms).
    fn sample(&self, telemetry: &Telemetry);

    /// The writer for `peer` exhausted `connect_retry_limit` and exited;
    /// already recorded in [`Link::connect_failures`].
    fn on_connect_failed(&self, _peer: NodeId) {}
}

/// Link state of one node, embedded in its [`LinkClient`].
pub struct Link<L: Lane> {
    me: NodeId,
    placement: Arc<PlacementMap>,
    /// Cleared on shutdown.
    running: AtomicBool,
    /// Monotonic epoch for protocol timestamps.
    started: Instant,
    /// Multiplier on every ticker period, stored as `f64` bits
    /// (clock-skew fault injection; 1.0 = nominal cadence). Read by the
    /// ticker each iteration, so a change takes effect within one tick.
    timer_scale_bits: AtomicU64,
    /// Peers a writer permanently gave up connecting to (only populated
    /// when `connect_retry_limit` is configured).
    connect_failed: Mutex<Vec<NodeId>>,
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    /// Transport counters (present iff `telemetry` is).
    pub(crate) metrics: Option<TransportMetrics>,
    /// Live scrape endpoint (present once [`Link::serve`] bound one);
    /// joined on shutdown.
    telemetry_server: Mutex<Option<TelemetryServer>>,
    /// Per-peer outbound channels.
    senders: Mutex<HashMap<NodeId, Sender<(L, WireMsg)>>>,
    /// Where the accept thread listens (set by [`spawn`]): the address
    /// [`Link::shutdown`] connects to, to wake it out of `accept()`.
    listen_addr: OnceLock<SocketAddr>,
}

impl<L: Lane> Link<L> {
    /// Link state for node `me` of `cfg`. With a hub attached, registers
    /// the transport counters and records the placement and — from
    /// `tolerances`, the node's `(stream, key, f*)` entries as the
    /// availability prover computed them at install time — f* per
    /// predicate key (the hub keeps the weakest across keys and nodes).
    pub(crate) fn new<'a>(
        cfg: &ClusterConfig,
        me: NodeId,
        telemetry: Option<Arc<Telemetry>>,
        tolerances: impl Iterator<Item = (NodeId, &'a str, i64)>,
    ) -> Self {
        if let Some(t) = &telemetry {
            t.record_placement(cfg.placement());
            for (_stream, key, tol) in tolerances {
                t.record_predicate_tolerance(key, tol);
            }
        }
        Link {
            me,
            placement: Arc::clone(cfg.placement()),
            running: AtomicBool::new(true),
            started: Instant::now(),
            timer_scale_bits: AtomicU64::new(1.0f64.to_bits()),
            connect_failed: Mutex::new(Vec::new()),
            metrics: telemetry.as_ref().map(|t| TransportMetrics::new(t, me)),
            telemetry,
            telemetry_server: Mutex::new(None),
            senders: Mutex::new(HashMap::new()),
            listen_addr: OnceLock::new(),
        }
    }

    /// Serve the attached telemetry over HTTP on `addr`, with `stall`
    /// behind `/stall`. No-op unless both an address and a hub are
    /// present.
    ///
    /// # Errors
    ///
    /// The bind failure, as a configuration error.
    pub(crate) fn serve(&self, addr: Option<&str>, stall: StallProvider) -> Result<(), CoreError> {
        let (Some(addr), Some(telemetry)) = (addr, self.telemetry.clone()) else {
            return Ok(());
        };
        let routes = ServerRoutes::new(telemetry).with_stall(stall);
        let server = TelemetryServer::bind(addr, routes)
            .map_err(|e| CoreError::Config(format!("telemetry serve_addr {addr}: {e}")))?;
        *self.telemetry_server.lock() = Some(server);
        Ok(())
    }

    /// Bound address of the live telemetry endpoint, if one is served
    /// (resolves port 0 to the actual port).
    pub(crate) fn serve_addr(&self) -> Option<SocketAddr> {
        let server = self.telemetry_server.lock();
        server.as_ref().map(TelemetryServer::local_addr)
    }

    /// False once [`Link::shutdown`] ran.
    pub(crate) fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// Nanoseconds since this node started: the `now` of every protocol
    /// call.
    pub(crate) fn now_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Queue `msg` for `to` on `lane`. Dropped when there is no link to
    /// `to` or its writer is gone (shutting down, or gave up).
    pub(crate) fn send(&self, to: NodeId, lane: L, msg: WireMsg) {
        if let Some(tx) = self.senders.lock().get(&to) {
            let _ = tx.send((lane, msg));
        }
    }

    /// Scale every ticker period by `scale` — the wall-clock twin of
    /// the simulator's skewed local clock (`scale < 1` fires timers
    /// early, `> 1` late). Takes effect within one ticker iteration; 1.0
    /// restores the nominal cadence.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn set_timer_scale(&self, scale: f64) {
        timers::assert_valid_scale(scale);
        self.timer_scale_bits
            .store(scale.to_bits(), Ordering::SeqCst);
    }

    /// The current timer-period multiplier (1.0 = nominal).
    pub fn timer_scale(&self) -> f64 {
        f64::from_bits(self.timer_scale_bits.load(Ordering::SeqCst))
    }

    /// Peers a writer thread permanently gave up connecting to (empty
    /// unless `connect_retry_limit` is configured).
    pub fn connect_failures(&self) -> Vec<NodeId> {
        self.connect_failed.lock().clone()
    }

    /// Stop all link threads (idempotent).
    pub fn shutdown(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.senders.lock().clear(); // disconnect writer channels

        // The accept thread blocks in `accept()`: hand it one last
        // connection, which it drops on seeing `running` cleared.
        if let Some(addr) = self.listen_addr.get() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(200));
        }
        if let Some(mut server) = self.telemetry_server.lock().take() {
            server.shutdown();
        }
    }

    /// The node a hello announcing `id` admits, or `None` when the id is
    /// not a configured node, is this node, or shares no stream with it
    /// (no link exists between unlinked nodes).
    fn admit(&self, id: u16) -> Option<NodeId> {
        let peer = NodeId(id);
        let known = (id as usize) < self.placement.num_nodes() && peer != self.me;
        (known && self.placement.linked(self.me, peer)).then_some(peer)
    }
}

/// Per-spawn parameters of [`spawn`].
pub(crate) struct LinkSpawn {
    /// Thread-name prefix (`<prefix>-<me>-…`).
    pub thread_prefix: &'static str,
    /// Run [`LinkClient::repair_link`] on each writer's *first* connect
    /// too: a node restored from a snapshot re-announces its recovered
    /// ACK state without waiting for traffic. Later connects always
    /// repair.
    pub repair_first_connect: bool,
    /// Seed for the reconnect backoff jitter (per-link streams are
    /// derived from it, so two nodes never share a retry schedule).
    pub jitter_seed: u64,
}

/// Start `client`'s link threads: a writer per linked peer of
/// `peer_addrs`, the accept thread on `listener`, and the ticker running
/// `options`' timer table.
///
/// Under partial replication a link only exists between nodes sharing at
/// least one stream; unlinked peers get no writer (and no reconnect
/// spin). Full replication keeps every link.
///
/// # Errors
///
/// A thread that could not be spawned, as a configuration error. The
/// threads already running exit once the caller shuts the link down.
pub(crate) fn spawn<C: LinkClient>(
    client: &Arc<C>,
    listener: TcpListener,
    peer_addrs: Vec<(NodeId, SocketAddr)>,
    options: &Options,
    params: LinkSpawn,
) -> Result<(), CoreError> {
    let link = client.link();
    let me = link.me.0;
    let prefix = params.thread_prefix;
    if let Ok(mut addr) = listener.local_addr() {
        // A wildcard bind is reached through loopback.
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = link.listen_addr.set(addr);
    }
    let thread = |role: String, body: Box<dyn FnOnce(Arc<C>) + Send>| {
        let client = Arc::clone(client);
        std::thread::Builder::new()
            .name(format!("{prefix}-{me}-{role}"))
            .spawn(move || body(client))
            .map(drop)
            .map_err(|e| CoreError::Config(format!("spawn link thread {role}: {e}")))
    };
    for (peer, addr) in peer_addrs {
        if !link.placement.linked(link.me, peer) {
            continue;
        }
        let (tx, rx) = unbounded();
        link.senders.lock().insert(peer, tx);
        let repair_first = params.repair_first_connect;
        let retry_limit = options.connect_retry_limit;
        let seed = link_seed(params.jitter_seed, me, peer.0);
        thread(
            format!("w{}", peer.0),
            Box::new(move |c| writer_loop(&*c, &rx, peer, addr, repair_first, retry_limit, seed)),
        )?;
    }
    let reader = format!("{prefix}-{me}-r");
    thread(
        "accept".to_owned(),
        Box::new(move |c| {
            accept_loop(&c, &listener, |body| {
                let named = std::thread::Builder::new().name(reader.clone());
                named.spawn(body).map(drop)
            });
        }),
    )?;
    let options = options.clone();
    thread(
        "tick".to_owned(),
        Box::new(move |c| ticker_loop(&*c, &options)),
    )
}

/// Wire an in-process cluster on loopback: bind `n` listeners on
/// ephemeral ports, then have `spawn_node` boot each node from its
/// listener and the address list of its peers.
///
/// # Errors
///
/// Listener-bind failures (as configuration errors) and whatever
/// `spawn_node` fails with.
pub(crate) fn spawn_local_cluster<T>(
    n: usize,
    mut spawn_node: impl FnMut(NodeId, TcpListener, Vec<(NodeId, SocketAddr)>) -> Result<T, CoreError>,
) -> Result<Vec<T>, CoreError> {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| CoreError::Config(format!("bind: {e}")))?;
        addrs.push(
            l.local_addr()
                .map_err(|e| CoreError::Config(format!("addr: {e}")))?,
        );
        listeners.push(l);
    }
    let peers_of = |i| {
        (0..n)
            .filter(move |j| *j != i)
            .map(|j| (NodeId(j as u16), addrs[j]))
    };
    listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| spawn_node(NodeId(i as u16), listener, peers_of(i).collect()))
        .collect()
}

/// Hand each accepted connection to a reader thread that
/// `spawn_reader` starts running the body it is given.
fn accept_loop<C: LinkClient>(
    client: &Arc<C>,
    listener: &TcpListener,
    spawn_reader: impl Fn(Box<dyn FnOnce() + Send>) -> std::io::Result<()>,
) {
    let link = client.link();
    // Blocks in `accept()`, so a connection's first frames wait for no
    // poll; `Link::shutdown` wakes it with a self-connect.
    while let Ok((stream, _)) = listener.accept() {
        if !link.is_running() {
            return;
        }
        let stream = Arc::new(stream);
        let (client, reading) = (Arc::clone(client), Arc::clone(&stream));
        // No thread to read it (a peer that connects and never says
        // hello pins one each): refuse this connection with a FIN, as a
        // refused hello is refused, and go on accepting.
        if spawn_reader(Box::new(move || reader_loop(&*client, &reading))).is_err() {
            let _ = stream.shutdown(Shutdown::Write);
        }
    }
}

fn reader_loop<C: LinkClient>(client: &C, stream: &TcpStream) {
    let link = client.link();
    let mut reader = FrameReader::new(stream);
    let mut frames: Vec<(C::Lane, WireMsg)> = Vec::new();
    // One blocking read's worth of frames; false on EOF or a broken pipe.
    let mut read_batch = |frames: &mut Vec<_>| {
        let wire_len = reader.read_batch(frames).unwrap_or(0);
        if let (Some(m), true) = (&link.metrics, wire_len > 0) {
            m.read_batches.inc();
            m.frames_in.add(frames.len() as u64);
            m.bytes_in.add(wire_len as u64);
        }
        wire_len > 0
    };
    // First frame must be a hello, on the hello lane, announcing a peer
    // this node has a link with. Anything else is a protocol violation
    // (or a stranger): drop the connection before a single frame reaches
    // the state machine, which trusts `peer` as the sender of all of them.
    read_batch(&mut frames);
    let Some(peer) = frames
        .first()
        .filter(|(lane, _)| *lane == C::Lane::HELLO)
        .and_then(|(_, msg)| parse_hello(msg))
        .and_then(|id| link.admit(id))
    else {
        // Refuse with a FIN, then let the stranger finish talking:
        // closing over frames it is still writing would answer them with
        // a reset instead.
        let _ = stream.shutdown(Shutdown::Write);
        let _ = std::io::copy(&mut { stream }, &mut std::io::sink());
        return;
    };
    frames.remove(0);
    loop {
        // Hand over what has arrived before blocking for more.
        if !frames.is_empty() {
            client.on_frames(peer, &mut frames);
            frames.clear();
        }
        if !link.is_running() || !read_batch(&mut frames) {
            return;
        }
    }
}

/// One peer's writer thread: connect, serve the connection until it
/// breaks, reconnect. `repair_first` is [`LinkSpawn::repair_first_connect`].
fn writer_loop<C: LinkClient>(
    client: &C,
    rx: &Receiver<(C::Lane, WireMsg)>,
    peer: NodeId,
    addr: SocketAddr,
    repair_first: bool,
    retry_limit: u64,
    jitter_seed: u64,
) {
    let link = client.link();
    let mut backoff = Backoff::new(
        Duration::from_millis(10),
        Duration::from_millis(500),
        jitter_seed,
    );
    let mut first_connect = true;
    while link.is_running() {
        let stream = match connect_with_retry(link, addr, &mut backoff, retry_limit) {
            ConnectOutcome::Connected(s) => s,
            ConnectOutcome::Shutdown => return,
            ConnectOutcome::GaveUp => {
                link.connect_failed.lock().push(peer);
                client.on_connect_failed(peer);
                return;
            }
        };
        backoff.reset();
        if !first_connect {
            if let Some(m) = &link.metrics {
                m.reconnects.inc();
            }
        }
        let repair = !first_connect || repair_first;
        first_connect = false;
        // `Err` = the connection broke: reconnect. `Ok` = shut down.
        if serve_connection(client, rx, peer, stream, repair).is_ok() {
            return;
        }
    }
}

/// The write side of one connection: the buffered socket, the scratch
/// every frame head is built in, and the traffic accounting.
struct FrameWriter<'a> {
    stream: BufWriter<TcpStream>,
    head: Vec<u8>,
    metrics: Option<&'a TransportMetrics>,
}

impl FrameWriter<'_> {
    /// Buffer one frame; returns its wire size.
    fn frame<L: Lane>(&mut self, lane: L, msg: &WireMsg) -> std::io::Result<usize> {
        let wire_len = write_lane_frame_with(&mut self.stream, &mut self.head, lane, msg)?;
        if let Some(m) = self.metrics {
            m.wrote(wire_len);
        }
        Ok(wire_len)
    }

    /// Buffer every held ACK row, leaving none held.
    fn rows<L: Lane>(&mut self, held: &mut Vec<(L, Vec<Ack>)>) -> std::io::Result<()> {
        for (lane, row) in held.drain(..) {
            self.frame(lane, &WireMsg::AckBatch(row))?;
        }
        Ok(())
    }
}

/// Drive one established connection until it breaks (`Err`) or the node
/// shuts down (`Ok`).
fn serve_connection<C: LinkClient>(
    client: &C,
    rx: &Receiver<(C::Lane, WireMsg)>,
    peer: NodeId,
    stream: TcpStream,
    repair: bool,
) -> std::io::Result<()> {
    let link = client.link();
    // Buffer writes so a frame's length prefix, header, and payload
    // coalesce into one syscall/segment.
    let mut out = FrameWriter {
        stream: BufWriter::with_capacity(WRITE_BUF, stream),
        head: Vec::with_capacity(64),
        metrics: link.metrics.as_ref(),
    };
    out.frame(C::Lane::HELLO, &hello(link.me.0))?;
    out.stream.flush()?;
    if repair {
        client.repair_link(peer);
    }
    // ACK rows dequeued but not yet written, one per lane, and the bytes
    // dequeued since the first of them was held.
    let mut held: Vec<(C::Lane, Vec<Ack>)> = Vec::new();
    let mut since_held = 0;
    loop {
        let (lane, msg) = match rx.try_recv() {
            Ok(next) => next,
            // Queue drained: the held rows, flush, then block for more.
            // "Drained" is the channel's own answer, never a depth
            // estimate — neither a row nor a buffered frame may wait
            // while the writer sleeps.
            Err(TryRecvError::Empty) => {
                out.rows(&mut held)?;
                out.stream.flush()?;
                match rx.recv_timeout(IDLE_POLL) {
                    Ok(next) => next,
                    Err(RecvTimeoutError::Timeout) if link.is_running() => continue,
                    Err(_) => return Ok(()),
                }
            }
            Err(TryRecvError::Disconnected) => {
                let _ = out.rows(&mut held).and_then(|()| out.stream.flush());
                return Ok(());
            }
        };
        if held.is_empty() {
            since_held = 0;
        }
        since_held += msg.encoded_len();
        match msg {
            WireMsg::AckBatch(acks) => match held.iter_mut().find(|(l, _)| *l == lane) {
                Some((_, row)) => {
                    Ack::max_merge(row, &acks);
                    if let Some(m) = &link.metrics {
                        m.acks_coalesced.inc();
                    }
                }
                None => held.push((lane, acks)),
            },
            msg => {
                out.frame(lane, &msg)?;
            }
        }
        // A queue that never runs empty must not starve the rows.
        if since_held >= WRITE_BUF {
            out.rows(&mut held)?;
        }
    }
}

enum ConnectOutcome {
    Connected(TcpStream),
    Shutdown,
    GaveUp,
}

/// Connect with capped exponential backoff and seeded jitter. Gives up
/// after `retry_limit` consecutive failures (`0` = never), so a
/// misconfigured or permanently dead peer surfaces in
/// [`Link::connect_failures`] instead of a silent spin.
fn connect_with_retry<L: Lane>(
    link: &Link<L>,
    addr: SocketAddr,
    backoff: &mut Backoff,
    retry_limit: u64,
) -> ConnectOutcome {
    while link.is_running() {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                return ConnectOutcome::Connected(s);
            }
            Err(_) => {
                if retry_limit > 0 && backoff.attempts() + 1 >= retry_limit {
                    return ConnectOutcome::GaveUp;
                }
                let delay = backoff.next_delay();
                if let Some(m) = &link.metrics {
                    m.connect_attempts.inc();
                    m.backoff_sleep_ns.add(delay.as_nanos() as u64);
                }
                std::thread::sleep(delay);
            }
        }
    }
    ConnectOutcome::Shutdown
}

fn ticker_loop<C: LinkClient>(client: &C, opts: &Options) {
    let link = client.link();
    let start = Instant::now();
    let mut last_fired = [start; TimerKind::ALL.len()];
    let mut last_sample = start;
    let millisecond = Duration::from_millis(1);
    let tick = TimerKind::AckFlush
        .period(opts)
        .map_or(millisecond, |flush| flush.min(millisecond));
    while link.is_running() {
        std::thread::sleep(tick);
        let now = Instant::now();
        // Clock-skew fault injection: re-read each iteration so a
        // mid-run change takes effect within one tick.
        let scale = link.timer_scale();
        for (kind, last) in TimerKind::ALL.into_iter().zip(&mut last_fired) {
            let due = kind.scaled_period(opts, scale);
            if due.is_some_and(|period| now.duration_since(*last) >= period) {
                client.on_timer(kind, link.now_nanos());
                *last = now;
            }
        }
        let Some(telemetry) = &link.telemetry else {
            continue;
        };
        if now.duration_since(last_sample) >= SAMPLE_EVERY {
            client.sample(telemetry);
            last_sample = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{read_frame, write_frame};
    use bytes::Bytes;
    use stabilizer_core::{PERSISTED, RECEIVED};
    use std::io::{BufReader, Read};
    use std::sync::mpsc;

    /// A reader batch as the stub was handed it, and when.
    type Batch = (Instant, Vec<WireMsg>);

    /// A client with no protocol state behind it: it logs what the link
    /// layer asks of it.
    struct Stub {
        link: Link<()>,
        repairs: Mutex<Vec<NodeId>>,
        gave_up: Mutex<Vec<NodeId>>,
        /// When set, `repair_link` blocks until the test sends on it.
        repair_gate: Mutex<Option<mpsc::Receiver<()>>>,
        /// Every `on_frames` call, in order.
        batch_tx: Mutex<mpsc::Sender<Batch>>,
        batch_rx: Mutex<mpsc::Receiver<Batch>>,
        /// Stand-in for the recorder: the max-merge of every report made
        /// through [`Stub::report`], re-announced by `repair_link`.
        reported: Mutex<Vec<Ack>>,
    }

    impl Stub {
        /// The next reader batch handed to this stub.
        fn next_batch(&self) -> Batch {
            let rx = self.batch_rx.lock();
            rx.recv_timeout(Duration::from_secs(5))
                .expect("a reader batch")
        }

        /// Record `acks` as reported and queue them for the peer.
        fn report(&self, acks: Vec<Ack>) {
            Ack::max_merge(&mut self.reported.lock(), &acks);
            self.link.send(PEER, (), WireMsg::AckBatch(acks));
        }

        /// Where this stub accepts connections.
        fn addr(&self) -> SocketAddr {
            *self.link.listen_addr.get().expect("spawned")
        }
    }

    impl LinkClient for Stub {
        type Lane = ();
        fn link(&self) -> &Link<()> {
            &self.link
        }
        fn on_frames(&self, _peer: NodeId, frames: &mut Vec<((), WireMsg)>) {
            let batch = frames.drain(..).map(|((), msg)| msg).collect();
            let _ = self.batch_tx.lock().send((Instant::now(), batch));
        }
        fn repair_link(&self, peer: NodeId) {
            self.repairs.lock().push(peer);
            let reported = self.reported.lock().clone();
            if !reported.is_empty() {
                self.link.send(peer, (), WireMsg::AckBatch(reported));
            }
            if let Some(gate) = self.repair_gate.lock().as_ref() {
                gate.recv().expect("test releases the gate");
            }
        }
        fn on_timer(&self, _kind: TimerKind, _now_nanos: u64) {}
        fn sample(&self, _telemetry: &Telemetry) {}
        fn on_connect_failed(&self, peer: NodeId) {
            self.gave_up.lock().push(peer);
        }
    }

    const PEER: NodeId = NodeId(1);

    /// Node 0 of a 2-node cluster as a stub, its one writer pointed at
    /// `peer_addr`.
    fn spawn_stub(peer_addr: SocketAddr, restored: bool, retry_limit: u64) -> Arc<Stub> {
        spawn_stub_with(peer_addr, restored, retry_limit, None)
    }

    /// A stub whose writer parks in `repair_link` right after its first
    /// hello, until the test sends on the returned gate: what is queued
    /// meanwhile is drained as one burst.
    fn spawn_parked_stub(peer_addr: SocketAddr) -> (Arc<Stub>, mpsc::Sender<()>) {
        let (release, gate) = mpsc::channel();
        (spawn_stub_with(peer_addr, true, 0, Some(gate)), release)
    }

    fn spawn_stub_with(
        peer_addr: SocketAddr,
        restored: bool,
        retry_limit: u64,
        gate: Option<mpsc::Receiver<()>>,
    ) -> Arc<Stub> {
        let stub = unspawned_stub(gate);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        spawn(
            &stub,
            listener,
            vec![(PEER, peer_addr)],
            &Options::default().connect_retry_limit(retry_limit),
            LinkSpawn {
                thread_prefix: "stub",
                repair_first_connect: restored,
                jitter_seed: 7,
            },
        )
        .expect("link threads spawn");
        stub
    }

    /// Node 0 of a 2-node cluster as a stub, no link thread running yet.
    fn unspawned_stub(gate: Option<mpsc::Receiver<()>>) -> Arc<Stub> {
        let cfg = ClusterConfig::parse("az A a b\n").expect("config parses");
        let (batch_tx, batch_rx) = mpsc::channel();
        Arc::new(Stub {
            link: Link::new(&cfg, NodeId(0), None, std::iter::empty()),
            repairs: Mutex::new(Vec::new()),
            gave_up: Mutex::new(Vec::new()),
            repair_gate: Mutex::new(gate),
            batch_tx: Mutex::new(batch_tx),
            batch_rx: Mutex::new(batch_rx),
            reported: Mutex::new(Vec::new()),
        })
    }

    #[test]
    fn a_reader_that_cannot_be_spawned_refuses_its_connection_and_accepting_goes_on() {
        let stub = unspawned_stub(None);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        stub.link.listen_addr.set(addr).unwrap();
        let accept = {
            let stub = Arc::clone(&stub);
            let refuse_next = AtomicBool::new(true);
            std::thread::spawn(move || {
                accept_loop(&stub, &listener, |body| {
                    if refuse_next.swap(false, Ordering::SeqCst) {
                        return Err(std::io::Error::other("no thread to be had"));
                    }
                    std::thread::Builder::new().spawn(body).map(drop)
                });
            })
        };
        let mut refused = TcpStream::connect(addr).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(refused.read(&mut [0u8; 1]).unwrap(), 0, "a FIN");
        // The accept thread survived it: the next connection is read.
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, &hello(PEER.0)).unwrap();
        write_frame(&mut s, &WireMsg::Heartbeat).unwrap();
        assert_eq!(stub.next_batch().1, [WireMsg::Heartbeat]);
        stub.link.shutdown();
        accept
            .join()
            .expect("the accept thread returns on shutdown");
    }

    /// Accept the stub's connection and consume its hello.
    fn accept_hello(listener: &TcpListener) -> BufReader<TcpStream> {
        let (stream, _) = listener.accept().expect("writer connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let mut reader = BufReader::new(stream);
        let first = read_frame(&mut reader).expect("readable").expect("a frame");
        assert_eq!(parse_hello(&first), Some(0), "first frame is the hello");
        reader
    }

    #[test]
    fn first_connect_skips_repair_and_an_idle_queue_is_flushed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stub = spawn_stub(listener.local_addr().unwrap(), false, 0);
        let mut reader = accept_hello(&listener);
        // One lone frame, nothing behind it: it must be flushed at once,
        // not when the writer's idle poll expires.
        let sent = Instant::now();
        stub.link.send(PEER, (), WireMsg::Heartbeat);
        assert_eq!(read_frame(&mut reader).unwrap(), Some(WireMsg::Heartbeat));
        assert!(
            sent.elapsed() < IDLE_POLL / 2,
            "lone frame waited {:?}",
            sent.elapsed()
        );
        assert!(stub.repairs.lock().is_empty(), "fresh first connect");
        stub.link.shutdown();
    }

    #[test]
    fn restored_node_repairs_on_its_first_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stub = spawn_stub(listener.local_addr().unwrap(), true, 0);
        let mut reader = accept_hello(&listener);
        stub.link.send(PEER, (), WireMsg::Heartbeat);
        // The heartbeat is written after the repair ran.
        assert_eq!(read_frame(&mut reader).unwrap(), Some(WireMsg::Heartbeat));
        assert_eq!(*stub.repairs.lock(), [PEER]);
        stub.link.shutdown();
    }

    #[test]
    fn every_later_connect_repairs_before_draining_the_queue() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stub = spawn_stub(listener.local_addr().unwrap(), false, 0);
        let first = accept_hello(&listener);
        let (release, gate) = mpsc::channel();
        *stub.repair_gate.lock() = Some(gate);
        drop(first); // the peer goes away
        listener.set_nonblocking(true).unwrap();
        // Keep the queue non-empty until the writer notices the broken
        // pipe and reconnects.
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            stub.link.send(PEER, (), WireMsg::Heartbeat);
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(_) => {
                    assert!(Instant::now() < deadline, "writer never reconnected");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        stream.set_nonblocking(false).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let hello_frame = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(parse_hello(&hello_frame), Some(0));
        stub.link.send(PEER, (), WireMsg::Heartbeat);
        // Repair is in progress (blocked on the gate): nothing queued may
        // overtake it.
        assert!(
            read_frame(&mut reader).is_err(),
            "queue drained before repair finished"
        );
        assert_eq!(*stub.repairs.lock(), [PEER]);
        release.send(()).unwrap();
        reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(read_frame(&mut reader).unwrap(), Some(WireMsg::Heartbeat));
        stub.link.shutdown();
    }

    #[test]
    fn exhausted_retries_are_recorded_and_reported() {
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead); // nobody listens: connects fail fast
        let stub = spawn_stub(addr, false, 3);
        let deadline = Instant::now() + Duration::from_secs(10);
        while stub.link.connect_failures() != [PEER] {
            assert!(Instant::now() < deadline, "GaveUp never recorded");
            std::thread::sleep(Duration::from_millis(10));
        }
        // Recorded first, then reported to the client.
        while *stub.gave_up.lock() != [PEER] {
            assert!(Instant::now() < deadline, "client never told");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(stub.repairs.lock().is_empty());
        stub.link.shutdown();
    }

    fn data(seq: u64, len: usize) -> WireMsg {
        WireMsg::Data {
            origin: NodeId(0),
            seq,
            payload: Bytes::from(vec![7u8; len]),
        }
    }

    fn ack(ty: stabilizer_core::AckTypeId, seq: u64) -> Ack {
        Ack {
            stream: NodeId(0),
            ty,
            seq,
        }
    }

    /// A peer that accepts connections and never reads: the stub's
    /// writer connects, sends its hello and idles.
    fn idle_peer() -> TcpListener {
        TcpListener::bind("127.0.0.1:0").expect("bind")
    }

    #[test]
    fn one_write_is_one_batch_and_a_lone_frame_is_a_batch_of_one() {
        let peer = idle_peer();
        let stub = spawn_stub(peer.local_addr().unwrap(), false, 0);
        let mut s = TcpStream::connect(stub.addr()).unwrap();
        s.set_nodelay(true).unwrap();
        write_frame(&mut s, &hello(PEER.0)).unwrap();
        let msgs = vec![
            WireMsg::Heartbeat,
            data(1, 100),
            WireMsg::AckBatch(vec![ack(RECEIVED, 1)]),
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, m).unwrap();
        }
        s.write_all(&wire).unwrap();
        assert_eq!(
            stub.next_batch().1,
            msgs,
            "one write, one hand-off, in order"
        );
        // Nothing behind it: the reader must not wait for a batch to fill.
        let sent = Instant::now();
        write_frame(&mut s, &WireMsg::Heartbeat).unwrap();
        let (at, batch) = stub.next_batch();
        assert_eq!(batch, [WireMsg::Heartbeat]);
        let waited = at.duration_since(sent);
        assert!(waited < IDLE_POLL / 2, "lone frame waited {waited:?}");
        stub.link.shutdown();
    }

    #[test]
    fn a_refused_stranger_gets_a_fin_not_a_reset() {
        let peer = idle_peer();
        let stub = spawn_stub(peer.local_addr().unwrap(), false, 0);
        let mut s = TcpStream::connect(stub.addr()).unwrap();
        write_frame(&mut s, &hello(9)).unwrap(); // no such node
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(s.read(&mut [0u8; 1]).unwrap(), 0, "the node hangs up");
        // What the stranger was still writing is taken and dropped; a
        // closed socket would answer the first of these with a reset and
        // fail the next.
        for _ in 0..3 {
            write_frame(&mut s, &WireMsg::Heartbeat).unwrap();
        }
        assert!(stub.batch_rx.lock().try_recv().is_err(), "nothing got in");
        stub.link.shutdown();
    }

    #[test]
    fn accept_waits_for_no_poll_and_shutdown_wakes_it() {
        let peer = idle_peer();
        let stub = spawn_stub(peer.local_addr().unwrap(), false, 0);
        let mut wire = Vec::new();
        write_frame(&mut wire, &hello(PEER.0)).unwrap();
        write_frame(&mut wire, &WireMsg::Heartbeat).unwrap();
        // Connect, send at once, and time the hand-off: a polled accept
        // adds up to its period (5 ms once) to every one of these.
        let mut waits: Vec<Duration> = (0..40)
            .map(|_| {
                let start = Instant::now();
                let mut s = TcpStream::connect(stub.addr()).unwrap();
                s.write_all(&wire).unwrap();
                stub.next_batch().0.duration_since(start)
            })
            .collect();
        waits.sort();
        assert!(
            waits[waits.len() / 4] < Duration::from_millis(1),
            "first frames waited for the accept thread: {waits:?}"
        );
        // Every link thread holds a clone of the client, so "only ours is
        // left" means all of them are gone, the accept thread included.
        stub.link.shutdown();
        let deadline = Instant::now() + Duration::from_millis(200);
        while Arc::strong_count(&stub) > 1 {
            assert!(
                Instant::now() < deadline,
                "{} link threads still alive after shutdown",
                Arc::strong_count(&stub) - 1
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn held_ack_rows_leave_at_the_tail_of_the_burst_max_merged() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (stub, release) = spawn_parked_stub(listener.local_addr().unwrap());
        let mut reader = accept_hello(&listener);
        let send = |msg| stub.link.send(PEER, (), msg);
        send(data(1, 10));
        send(WireMsg::AckBatch(vec![ack(RECEIVED, 1), ack(PERSISTED, 1)]));
        send(data(2, 10));
        send(WireMsg::AckBatch(vec![ack(RECEIVED, 2)]));
        send(WireMsg::Heartbeat);
        release.send(()).unwrap();
        let mut next = || read_frame(&mut reader).unwrap().expect("a frame");
        assert_eq!(next(), data(1, 10));
        assert_eq!(next(), data(2, 10));
        assert_eq!(next(), WireMsg::Heartbeat);
        assert_eq!(
            next(),
            WireMsg::AckBatch(vec![ack(RECEIVED, 2), ack(PERSISTED, 1)])
        );
        // A row with nothing queued behind it is the tail of its burst.
        let sent = Instant::now();
        send(WireMsg::AckBatch(vec![ack(RECEIVED, 3)]));
        assert_eq!(next(), WireMsg::AckBatch(vec![ack(RECEIVED, 3)]));
        assert!(
            sent.elapsed() < IDLE_POLL / 2,
            "lone row waited {:?}",
            sent.elapsed()
        );
        stub.link.shutdown();
    }

    #[test]
    fn a_queue_that_never_runs_empty_cannot_starve_a_held_row() {
        const FRAME: usize = 16 * 1024;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (stub, release) = spawn_parked_stub(listener.local_addr().unwrap());
        let mut reader = accept_hello(&listener);
        // The row first, then three write buffers of data behind it, all
        // queued before the writer wakes: it never sees an empty queue.
        let row = WireMsg::AckBatch(vec![ack(RECEIVED, 1)]);
        stub.link.send(PEER, (), row.clone());
        let frames = 3 * WRITE_BUF / FRAME;
        for seq in 1..=frames {
            stub.link.send(PEER, (), data(seq as u64, FRAME));
        }
        release.send(()).unwrap();
        let mut before_row = 0;
        loop {
            match read_frame(&mut reader).unwrap().expect("a frame") {
                WireMsg::Data { payload, .. } => before_row += payload.len(),
                msg => break assert_eq!(msg, row),
            }
        }
        assert!(
            (WRITE_BUF - FRAME..=WRITE_BUF).contains(&before_row),
            "the row left after {before_row} bytes of a {} byte burst",
            frames * FRAME
        );
        stub.link.shutdown();
    }

    #[test]
    fn a_row_lost_with_its_connection_is_covered_by_the_repair() {
        const FRAME: usize = 32 * 1024;
        const REPORTS: u64 = 600;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stub = spawn_stub(listener.local_addr().unwrap(), false, 0);
        let first = accept_hello(&listener); // ...and never read again
                                             // Rising reports between data frames, far more bytes than the
                                             // socket buffers take: the writer ends up blocked in a write
                                             // with rows held, buffered and in flight.
        for seq in 1..=REPORTS {
            stub.link.send(PEER, (), data(seq, FRAME));
            stub.report(vec![ack(RECEIVED, seq), ack(PERSISTED, seq / 2)]);
        }
        let depth = || stub.link.senders.lock()[&PEER].len();
        let mut last = depth();
        loop {
            std::thread::sleep(Duration::from_millis(100));
            let now = depth();
            if now == last {
                break;
            }
            last = now;
        }
        assert!(
            last > 0,
            "the writer drained {REPORTS} frames into a deaf socket"
        );
        drop(first); // the connection dies under the blocked writer
        let mut reader = accept_hello(&listener);
        // The rest of the queue, then the repair's re-announcement queued
        // behind it: the peer's table reaches every cell the stub
        // reported, whatever the dead connection took with it.
        let reported = stub.reported.lock().clone();
        let mut table = Vec::new();
        let mut seen = 0;
        while seen < REPORTS {
            match read_frame(&mut reader).unwrap().expect("a frame") {
                WireMsg::Data { seq, .. } => seen = seq,
                WireMsg::AckBatch(row) => Ack::max_merge(&mut table, &row),
                other => panic!("unexpected {other:?}"),
            }
        }
        while table != reported {
            match read_frame(&mut reader).unwrap().expect("a frame") {
                WireMsg::AckBatch(row) => Ack::max_merge(&mut table, &row),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(*stub.repairs.lock(), [PEER]);
        stub.link.shutdown();
    }

    #[test]
    fn hello_admission() {
        let cfg = ClusterConfig::parse(
            "az A a b\naz B c\nreplicate a a b\nreplicate b b a\nreplicate c c\n",
        )
        .expect("config parses");
        let link: Link<()> = Link::new(&cfg, NodeId(0), None, std::iter::empty());
        assert_eq!(link.admit(1), Some(NodeId(1)));
        assert_eq!(link.admit(0), None, "self");
        assert_eq!(link.admit(2), None, "shares no stream with node 0");
        assert_eq!(link.admit(3), None, "not a configured node");
        assert_eq!(link.admit(9999), None);
    }
}
