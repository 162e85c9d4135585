//! The TCP link layer under both runtimes: every socket, every I/O
//! thread and the wall-clock ticker of a node live here, written once
//! and generic over the frame [`Lane`] and a [`LinkClient`] — the node
//! shape (plain [`Shared`](crate::runtime::Shared) or
//! [`ShardedShared`](crate::sharded::ShardedShared)) that owns the
//! protocol state.
//!
//! Thread layout per node, spawned by [`spawn`]:
//!
//! * one **accept** thread taking inbound connections, each handed to a
//!   **reader** thread that validates the hello (the announced id must
//!   be a configured, linked node other than this one), then decodes
//!   frames and hands each to [`LinkClient::on_frame`];
//! * one **writer** thread per linked peer, draining that peer's channel
//!   of outbound `(lane, message)` pairs into a buffered, (re)connecting
//!   socket. Frames lost while a link is down are repaired on reconnect
//!   by [`LinkClient::repair_link`] (resend from the send buffer plus a
//!   full ACK re-announcement), which runs *before* the queue is drained
//!   again. The buffer is flushed whenever the queue runs empty, so
//!   latency is bounded by the batch, not by a timer;
//! * one **ticker** thread arming the [`TimerKind`] table against the
//!   wall clock (each period stretched by the clock-skew scale),
//!   calling [`LinkClient::on_timer`] on expiry, and sampling telemetry
//!   through [`LinkClient::sample`] every 20 ms.
//!
//! Locking discipline: the link's own locks (`senders`,
//! `connect_failed`, `telemetry_server`) are leaves — nothing is called
//! with one held. Link threads call into the client with **no** link
//! lock held, and the client may call [`Link::send`] from under its own
//! locks. A poll-based back end would replace this file and nothing
//! else.

use crate::backoff::{link_seed, Backoff};
use crate::framing::{hello, parse_hello, read_lane_frame, write_lane_frame, Lane};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use stabilizer_core::timers::{self, TimerKind};
use stabilizer_core::{ClusterConfig, CoreError, NodeId, Options, PlacementMap, WireMsg};
use stabilizer_telemetry::{
    Counter, Gauge, ServerRoutes, StallProvider, Telemetry, TelemetryServer,
};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a writer blocks on an empty queue before re-checking for
/// shutdown. Not a latency bound: the queue is flushed before blocking.
const IDLE_POLL: Duration = Duration::from_millis(100);
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
    /// Frames read from peers (the hello excluded — consumed before the
    /// reader attaches accounting).
    pub frames_in: Counter,
    /// Bytes read from peers.
    pub bytes_in: Counter,
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

/// Periodic Prometheus text dump written by the ticker thread.
pub struct MetricsDump {
    /// File to (re)write; each dump replaces the previous snapshot.
    pub path: PathBuf,
    /// Dump cadence.
    pub every: Duration,
}

/// What a node shape provides to the link layer. Every method is called
/// from a link thread with no link lock held.
pub trait LinkClient: Send + Sync + 'static {
    /// The frame lane this shape speaks.
    type Lane: Lane;

    /// The link state embedded in this shape.
    fn link(&self) -> &Link<Self::Lane>;

    /// A frame arrived from `peer` (reader thread; the hello has been
    /// validated and is not passed on).
    fn on_frame(&self, peer: NodeId, lane: Self::Lane, msg: WireMsg);

    /// The link to `peer` was (re)established after traffic may have
    /// been lost: resend unacknowledged data and re-announce ACKs
    /// (writer thread, before it drains the queue again).
    fn repair_link(&self, peer: NodeId);

    /// Timer `kind` expired (ticker thread).
    fn on_timer(&self, kind: TimerKind, now_nanos: u64);

    /// Mirror the shape's state into the attached hub (ticker thread,
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
    /// Periodic Prometheus text dump (no-op without a hub).
    pub metrics_dump: Option<MetricsDump>,
}

/// Start `client`'s link threads: a writer per linked peer of
/// `peer_addrs`, the accept thread on `listener`, and the ticker running
/// `options`' timer table.
///
/// Under partial replication a link only exists between nodes sharing at
/// least one stream; unlinked peers get no writer (and no reconnect
/// spin). Full replication keeps every link.
pub(crate) fn spawn<C: LinkClient>(
    client: &Arc<C>,
    listener: TcpListener,
    peer_addrs: Vec<(NodeId, SocketAddr)>,
    options: &Options,
    params: LinkSpawn,
) {
    let link = client.link();
    let me = link.me.0;
    let prefix = params.thread_prefix;
    let thread = |role: String, body: Box<dyn FnOnce(Arc<C>) + Send>| {
        let client = Arc::clone(client);
        std::thread::Builder::new()
            .name(format!("{prefix}-{me}-{role}"))
            .spawn(move || body(client))
            .expect("spawn link thread");
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
        );
    }
    thread(
        "accept".to_owned(),
        Box::new(move |c| accept_loop(&c, &listener, prefix)),
    );
    let options = options.clone();
    thread(
        "tick".to_owned(),
        Box::new(move |c| ticker_loop(&*c, &options, params.metrics_dump.as_ref())),
    );
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

fn accept_loop<C: LinkClient>(client: &Arc<C>, listener: &TcpListener, prefix: &str) {
    let link = client.link();
    listener.set_nonblocking(true).ok();
    while link.is_running() {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).ok();
                let client = Arc::clone(client);
                std::thread::Builder::new()
                    .name(format!("{prefix}-{}-r", link.me.0))
                    .spawn(move || reader_loop(&*client, stream))
                    .expect("spawn reader");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn reader_loop<C: LinkClient>(client: &C, stream: TcpStream) {
    let link = client.link();
    let mut reader = BufReader::new(stream);
    // First frame must be a hello, on the hello lane, announcing a peer
    // this node has a link with. Anything else is a protocol violation
    // (or a stranger): drop the connection before a single frame reaches
    // the state machine, which trusts `peer` as the sender of all of them.
    let first = read_lane_frame::<C::Lane, _>(&mut reader).ok().flatten();
    let Some(peer) = first
        .filter(|(lane, ..)| *lane == C::Lane::HELLO)
        .and_then(|(_, msg, _)| parse_hello(&msg))
        .and_then(|id| link.admit(id))
    else {
        return;
    };
    while link.is_running() {
        match read_lane_frame::<C::Lane, _>(&mut reader) {
            Ok(Some((lane, msg, wire_len))) => {
                if let Some(m) = &link.metrics {
                    m.frames_in.inc();
                    m.bytes_in.add(wire_len as u64);
                }
                client.on_frame(peer, lane, msg);
            }
            Ok(None) | Err(_) => return, // EOF or broken pipe
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
    let mut stream = BufWriter::with_capacity(64 * 1024, stream);
    let wire_len = write_lane_frame(&mut stream, C::Lane::HELLO, &hello(link.me.0))?;
    stream.flush()?;
    if let Some(m) = &link.metrics {
        m.wrote(wire_len);
    }
    if repair {
        client.repair_link(peer);
    }
    loop {
        let (lane, msg) = match rx.try_recv() {
            Ok(next) => next,
            // Queue drained: flush, then block for more. "Drained" is
            // the channel's own answer, never a depth estimate — a frame
            // must not sit in the buffer while the writer sleeps.
            Err(TryRecvError::Empty) => {
                stream.flush()?;
                match rx.recv_timeout(IDLE_POLL) {
                    Ok(next) => next,
                    Err(RecvTimeoutError::Timeout) if link.is_running() => continue,
                    Err(_) => return Ok(()),
                }
            }
            Err(TryRecvError::Disconnected) => {
                let _ = stream.flush();
                return Ok(());
            }
        };
        let wire_len = write_lane_frame(&mut stream, lane, &msg)?;
        if let Some(m) = &link.metrics {
            m.wrote(wire_len);
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

fn ticker_loop<C: LinkClient>(client: &C, opts: &Options, dump: Option<&MetricsDump>) {
    let link = client.link();
    let start = Instant::now();
    let mut last_fired = [start; TimerKind::ALL.len()];
    let (mut last_sample, mut last_dump) = (start, start);
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
        if let Some(dump) = dump.filter(|d| now.duration_since(last_dump) >= d.every) {
            let _ = std::fs::write(&dump.path, telemetry.render_prometheus());
            last_dump = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::read_frame;
    use std::sync::mpsc;

    /// A client with no protocol state behind it: it logs what the link
    /// layer asks of it.
    struct Stub {
        link: Link<()>,
        repairs: Mutex<Vec<NodeId>>,
        gave_up: Mutex<Vec<NodeId>>,
        /// When set, `repair_link` blocks until the test sends on it.
        repair_gate: Mutex<Option<mpsc::Receiver<()>>>,
    }

    impl LinkClient for Stub {
        type Lane = ();
        fn link(&self) -> &Link<()> {
            &self.link
        }
        fn on_frame(&self, _peer: NodeId, (): (), _msg: WireMsg) {}
        fn repair_link(&self, peer: NodeId) {
            self.repairs.lock().push(peer);
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
        let cfg = ClusterConfig::parse("az A a b\n").expect("config parses");
        let stub = Arc::new(Stub {
            link: Link::new(&cfg, NodeId(0), None, std::iter::empty()),
            repairs: Mutex::new(Vec::new()),
            gave_up: Mutex::new(Vec::new()),
            repair_gate: Mutex::new(None),
        });
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
                metrics_dump: None,
            },
        );
        stub
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
