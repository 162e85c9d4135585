//! The TCP link layer under the runtime: every connection of a node and
//! the one loop that serves them live here, generic over the frame
//! [`Lane`], a [`LinkClient`] — the [`runtime`](crate::runtime) over a
//! plain or a sharded machine, which owns the protocol state (the unit
//! tests drive a stub instead) — and the [`Net`] under it.
//!
//! A node's link layer is one [`IoLoop`], a step function over a [`Net`]
//! (its clock, dial, accept, bytes and readiness). On real sockets
//! (`OsNet`) it turns on the node's one thread, `<prefix>-<me>-io`; a
//! net its caller drives (the chaos crate's in-memory one, in virtual
//! time, through `spawn_node_on`) is handed the loop and turns it itself.
//! Each [`turn`](IoLoop::turn) it
//!   - dials. A link that is down is redialed once its capped, jittered
//!     backoff delay has run out; a connect polls writable once decided
//!     and fails if that takes 500 ms. Once it is up the loop writes the
//!     hello and runs [`LinkClient::repair_link`] (resend from the send
//!     buffer plus a full ACK re-announcement) *before* the queue drains
//!     again. That repair is what covers the frames lost while the link
//!     was down;
//!   - writes. Each peer's queue is taken a **burst** at a time — as many
//!     frames as fill one write buffer, `WRITE_BUF` — encoded into that
//!     link's buffer, and written until the connection would block; the
//!     next burst is taken only once the buffer is fully written, so
//!     latency is bounded by the burst, not by a timer. `AckBatch` frames
//!     are not encoded as they are dequeued: the loop keeps one **held
//!     ACK row** per lane, max-merged per cell ([`Ack::max_merge`]), and
//!     encodes it at the tail of the burst — when the queue runs empty or
//!     one write buffer of bytes has been dequeued since the row was
//!     first held, whichever comes first — so `D1 A1 D2 A2 D3 A3` leaves
//!     as `D1 D2 D3 A3`. A stability report is monotone: delaying it
//!     behind frames queued after it cannot be told from it having been
//!     queued later, and a row dropped with a broken connection is
//!     covered by the reconnect's re-announcement. No other frame kind is
//!     reordered;
//!   - waits ([`Net::wait`]; on real sockets a `ppoll(2)` over the
//!     waker, the listener, every inbound connection, every outbound one
//!     with bytes its socket has not yet taken and every connect in
//!     flight) until a connection is ready, a send wakes it, the next
//!     timer is due or a link is to be redialed — with every link up, no
//!     timer configured and no hub attached, for as long as nothing
//!     happens. Then it accepts what the listener holds, and reads one
//!     **reader batch** from each readable inbound connection: *all*
//!     frames that read completed — in its buffer, or in the buffers of a
//!     run of large frames (`FrameReader`) — handed to
//!     [`LinkClient::on_frames`] in one call: what has already arrived,
//!     never what might, and a lone frame is a batch of one. A
//!     connection's first frame must be a hello announcing a configured,
//!     linked node other than this one; a refused connection gets a FIN
//!     and is drained, never reset, and a connection that never says
//!     hello costs a poll entry, not a thread;
//!   - fires the due [`TimerKind`]s on the net's [`Clock`] (each period
//!     stretched by the clock-skew scale) through
//!     [`LinkClient::on_timer`], and samples telemetry through
//!     [`LinkClient::sample`] every 20 ms.
//!
//! The wake handshake: `Link::send` pushes onto the peer's queue, sets
//! `pending`, and rings the waker's bell only if the loop has set
//! `sleeping`. The loop clears `pending` before it looks at the queues,
//! and sets `sleeping` before it looks at `pending` one last time and
//! waits (all `SeqCst`): a send that comes while the loop heads for
//! sleep is seen by one side or the other, and a send the loop makes
//! itself — a fold's ACK rows — costs no syscall.
//!
//! Locking discipline: the link's own locks (`queues`,
//! `connect_failed`, `telemetry_server`) are leaves — nothing is called
//! with one held. The loop calls into the client with **no** link lock
//! held, and the client may call `Link::send` from under its own locks.
//! Every client call runs on the loop, so one that blocks holds up
//! every connection of its node until it returns.

use crate::backoff::{link_seed, Backoff};
use crate::framing::{hello, parse_hello, write_lane_frame_with, FrameReader, Lane};
use parking_lot::Mutex;
use stabilizer_core::timers::{self, TimerKind};
use stabilizer_core::{Ack, ClusterConfig, CoreError, NodeId, Options, PlacementMap, WireMsg};
use stabilizer_telemetry::{
    Counter, Gauge, ServerRoutes, StallProvider, Telemetry, TelemetryServer,
};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Capacity of a connection's write buffer: the bound on one write burst,
/// on how long a held ACK row rides behind the frames queued after it,
/// and on the large frames a reader takes in one read.
pub(crate) const WRITE_BUF: usize = 64 * 1024;
/// Telemetry sampling cadence of the I/O loop.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);
/// How long a connect may take before it counts as failed.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// The most a frame's head adds to its message's encoding: the length
/// prefix and the widest lane.
const FRAME_HEAD: usize = 4 + 2;

/// Transport-level counters and gauges for one node, registered in the
/// attached [`Telemetry`] hub's registry. Handles are plain atomics, so
/// the link threads record without locking.
pub struct TransportMetrics {
    /// Frames written to peers (hello and repair traffic included).
    pub frames_out: Counter,
    /// Bytes written to peers (length prefixes included).
    pub bytes_out: Counter,
    /// Frames read from inbound connections (each one's hello included).
    pub frames_in: Counter,
    /// Bytes read from inbound connections.
    pub bytes_in: Counter,
    /// Reader batches: reads that completed at least one frame, each
    /// handed to the node in one call. `frames_in / read_batches` is the
    /// mean fold size.
    pub read_batches: Counter,
    /// `AckBatch` frames merged into a row already held instead of
    /// being written.
    pub acks_coalesced: Counter,
    /// Successful connects after the first per link (i.e. reconnects).
    pub reconnects: Counter,
    /// Failed connect attempts (each is followed by a backoff delay).
    pub connect_attempts: Counter,
    /// Total nanoseconds of backoff delay, waited out in the loop's `ppoll`.
    pub backoff_sleep_ns: Counter,
    /// Current send-buffer occupancy (sampled by the I/O loop).
    pub send_buffer_bytes: Gauge,
    /// Blocked `waitfor`s (sampled by the I/O loop).
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

    /// A reader batch arrived from `peer`: every frame one read
    /// completed, in wire order, never empty (I/O loop; the hello has
    /// been validated and is not passed on). The vector is the loop's to
    /// reuse; whatever is left in it is discarded.
    fn on_frames(&self, peer: NodeId, frames: &mut Vec<(Self::Lane, WireMsg)>);

    /// The link to `peer` was (re)established after traffic may have
    /// been lost: resend unacknowledged data and re-announce ACKs
    /// (I/O loop, before the queue drains again).
    fn repair_link(&self, peer: NodeId);

    /// Timer `kind` expired (I/O loop).
    fn on_timer(&self, kind: TimerKind, now_nanos: u64);

    /// Mirror the client's state into the attached hub (I/O loop, every
    /// 20 ms).
    fn sample(&self, telemetry: &Telemetry);

    /// The link to `peer` exhausted `connect_retry_limit` and is never
    /// dialed again; already recorded in [`Link::connect_failures`]
    /// (I/O loop).
    fn on_connect_failed(&self, _peer: NodeId) {}
}

/// Where a node reads the time: the wall clock (the default), or the
/// virtual nanoseconds set by whatever turns its net ([`Clock::driven`],
/// shared by every clone).
#[derive(Clone, Debug, Default)]
pub struct Clock(Option<Arc<AtomicU64>>);

impl Clock {
    /// A driven clock, at 0.
    pub fn driven() -> Self {
        Clock(Some(Arc::default()))
    }

    /// Move a driven clock to `nanos` (no-op on the wall clock).
    pub fn set(&self, nanos: u64) {
        self.0.iter().for_each(|c| c.store(nanos, Ordering::SeqCst));
    }

    /// The `now` of a node spawned on this clock now: 0 on the wall
    /// clock, where a node's time counts from its spawn.
    pub(crate) fn start_nanos(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::SeqCst))
    }
}

/// Link state of one node, embedded in its [`LinkClient`].
pub struct Link<L: Lane> {
    me: NodeId,
    placement: Arc<PlacementMap>,
    /// Cleared on shutdown.
    running: AtomicBool,
    /// Monotonic epoch for protocol timestamps.
    started: Instant,
    /// The net's clock ([`Net::clock`]).
    clock: Clock,
    /// Multiplier on every timer period, stored as `f64` bits
    /// (clock-skew fault injection; 1.0 = nominal cadence). Read by the
    /// loop whenever it works out how long to sleep.
    timer_scale_bits: AtomicU64,
    /// Peers the loop permanently gave up dialing (only populated when
    /// `connect_retry_limit` is configured).
    connect_failed: Mutex<Vec<NodeId>>,
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    /// Transport counters (present iff `telemetry` is).
    pub(crate) metrics: Option<TransportMetrics>,
    /// Live scrape endpoint (present once [`Link::serve`] bound one);
    /// joined on shutdown.
    telemetry_server: Mutex<Option<TelemetryServer>>,
    /// Per-peer outbound queues, one per link; a peer's goes when its
    /// link is given up, and all go on shutdown.
    queues: Mutex<HashMap<NodeId, VecDeque<(L, WireMsg)>>>,
    /// The loop's doorbell.
    waker: Waker,
}

impl<L: Lane> Link<L> {
    /// Link state for node `me` of `cfg`, on `clock`. With a hub attached, registers
    /// the transport counters and records the placement and — from
    /// `tolerances`, the node's `(stream, key, f*)` entries, which the
    /// availability prover computes only here, as they are read — f* per
    /// predicate key (the hub keeps the weakest across keys and nodes).
    pub(crate) fn new<'a>(
        cfg: &ClusterConfig,
        me: NodeId,
        clock: Clock,
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
            clock,
            timer_scale_bits: AtomicU64::new(1.0f64.to_bits()),
            connect_failed: Mutex::new(Vec::new()),
            metrics: telemetry.as_ref().map(|t| TransportMetrics::new(t, me)),
            telemetry,
            telemetry_server: Mutex::new(None),
            queues: Mutex::new(HashMap::new()),
            waker: Waker::default(),
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

    /// Nanoseconds since this node started, or the driven clock's
    /// reading: the `now` of every protocol call.
    pub(crate) fn now_nanos(&self) -> u64 {
        self.now().duration_since(self.started).as_nanos() as u64
    }

    /// The instant the loop works by: as far past `started` as a driven
    /// clock reads.
    fn now(&self) -> Instant {
        match &self.clock.0 {
            None => Instant::now(),
            Some(clock) => self.started + Duration::from_nanos(clock.load(Ordering::SeqCst)),
        }
    }

    /// Queue `msg` for `to` on `lane`. Dropped when there is no link to
    /// `to` or its queue is gone (shutting down, or given up).
    pub(crate) fn send(&self, to: NodeId, lane: L, msg: WireMsg) {
        let queued = match self.queues.lock().get_mut(&to) {
            Some(queue) => {
                queue.push_back((lane, msg));
                true
            }
            None => false,
        };
        if queued {
            self.waker.wake();
        }
    }

    /// Move the next burst of `to`'s queue into `burst`, each message
    /// with its encoded length: at least one message, and no more than
    /// one write buffer's worth. True when that emptied the queue.
    fn take_burst(&self, to: NodeId, burst: &mut Vec<(L, WireMsg, usize)>) -> bool {
        let mut queues = self.queues.lock();
        let Some(queue) = queues.get_mut(&to) else {
            return true;
        };
        let mut room = WRITE_BUF;
        while let Some((lane, msg)) = queue.pop_front() {
            let len = msg.encoded_len();
            if !burst.is_empty() && len + FRAME_HEAD > room {
                queue.push_front((lane, msg));
                break;
            }
            room = room.saturating_sub(len + FRAME_HEAD);
            burst.push((lane, msg, len));
        }
        queue.is_empty()
    }

    /// Scale every timer period by `scale` — the wall-clock twin of the
    /// simulator's skewed local clock (`scale < 1` fires timers early,
    /// `> 1` late). Wakes the loop, so it takes effect at once, however
    /// long the loop meant to sleep; 1.0 restores the nominal cadence.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn set_timer_scale(&self, scale: f64) {
        timers::assert_valid_scale(scale);
        self.timer_scale_bits
            .store(scale.to_bits(), Ordering::SeqCst);
        self.waker.wake();
    }

    /// The current timer-period multiplier (1.0 = nominal).
    pub fn timer_scale(&self) -> f64 {
        f64::from_bits(self.timer_scale_bits.load(Ordering::SeqCst))
    }

    /// Peers the I/O loop permanently gave up dialing (empty unless
    /// `connect_retry_limit` is configured).
    pub fn connect_failures(&self) -> Vec<NodeId> {
        self.connect_failed.lock().clone()
    }

    /// Stop the link thread (idempotent).
    pub fn shutdown(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.queues.lock().clear();
        self.waker.wake();
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

/// The loop's doorbell, and the two flags of the wake handshake (module
/// doc).
#[derive(Default)]
struct Waker {
    /// Set by every wake, cleared by the loop before it looks.
    pending: AtomicBool,
    /// Set by the loop from its last look at `pending` until it is
    /// awake again; a wake that finds it set clears it and rings.
    sleeping: AtomicBool,
    /// The bell: a byte written here makes the wait return. Only a net
    /// whose wait blocks has one ([`OsNet`]).
    bell: OnceLock<UnixStream>,
}

impl Waker {
    /// Something for the loop to see is in place: make sure it looks.
    fn wake(&self) {
        self.pending.store(true, Ordering::SeqCst);
        if self.sleeping.swap(false, Ordering::SeqCst) {
            if let Some(bell) = self.bell.get() {
                // A full bell already rings.
                let _ = (&*bell).write(&[1]);
            }
        }
    }

    /// The loop is about to look at everything a wake announces.
    fn begin(&self) {
        self.pending.store(false, Ordering::SeqCst);
    }

    /// The loop heads for its wait: true when a wake came since
    /// [`Waker::begin`], and the wait must take no time at all.
    fn heading(&self) -> bool {
        self.sleeping.store(true, Ordering::SeqCst);
        self.pending.load(Ordering::SeqCst)
    }

    /// The loop's wait is over.
    fn awake(&self) {
        self.sleeping.store(false, Ordering::SeqCst);
    }
}

/// The crate's foreign calls: `ppoll`, and the `socket` and `connect`
/// of a non-blocking dial (Linux constants and layouts).
mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::{FromRawFd, RawFd};
    use std::time::Duration;

    pub(super) const POLLIN: c_short = 0x001;
    pub(super) const POLLOUT: c_short = 0x004;
    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    /// `SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC`.
    const STREAM: c_int = 1 | 0o4000 | 0o2_000_000;
    const EINPROGRESS: i32 = 115;

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    impl PollFd {
        pub(super) fn new(fd: RawFd, events: c_short) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        /// The last poll found the descriptor ready, failed or hung up.
        pub(super) fn ready(&self) -> bool {
            self.revents != 0
        }
    }

    /// `struct timespec` (`time_t` is a `long` on Linux).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        #[link_name = "ppoll"]
        fn ppoll_raw(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        #[link_name = "connect"]
        fn connect_raw(fd: c_int, addr: *const u8, len: u32) -> c_int;
    }

    /// Wait until an entry of `fds` is ready or `timeout` (`None`: no
    /// limit) has passed. Returns how many entries are ready: 0 on a
    /// timeout, and on an interrupted or failed call.
    pub(super) fn ppoll(fds: &mut [PollFd], timeout: Option<Duration>) -> usize {
        let timeout = timeout.map(|t| Timespec {
            tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: t.subsec_nanos() as c_long,
        });
        let timeout_ptr = timeout
            .as_ref()
            .map_or(std::ptr::null(), std::ptr::from_ref);
        // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
        // `pollfd`s (`repr(C)`, the kernel's layout) that outlives the
        // call, which writes nothing but their `revents`; `timeout_ptr`
        // is null or points at a live `timespec` the call only reads;
        // a null `sigmask` leaves the signal mask as it is.
        let ready = unsafe {
            ppoll_raw(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                timeout_ptr,
                std::ptr::null(),
            )
        };
        usize::try_from(ready).unwrap_or(0)
    }

    /// Start a non-blocking connect to `addr`. The socket polls writable
    /// once the connect is decided; `TcpStream::take_error` tells how.
    pub(super) fn connect(addr: &SocketAddr) -> io::Result<TcpStream> {
        // A `sockaddr_in` (16 bytes) or `sockaddr_in6` (28): the family
        // and scope id in host order, the rest in network order.
        let mut sa = [0u8; 28];
        let (family, len) = match addr {
            SocketAddr::V4(a) => {
                sa[4..8].copy_from_slice(&a.ip().octets());
                (AF_INET, 16)
            }
            SocketAddr::V6(a) => {
                sa[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
                sa[8..24].copy_from_slice(&a.ip().octets());
                sa[24..].copy_from_slice(&a.scope_id().to_ne_bytes());
                (AF_INET6, 28)
            }
        };
        sa[..2].copy_from_slice(&(family as u16).to_ne_bytes());
        sa[2..4].copy_from_slice(&addr.port().to_be_bytes());
        // SAFETY: the call takes three integers and no memory of ours.
        let fd = unsafe { socket(family, STREAM, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is the socket just opened, owned by nothing else;
        // the stream becomes its one owner and closes it.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        // SAFETY: `sa` is a live array of at least `len` bytes holding a
        // `sockaddr` of `family`, which the call only reads.
        let done = unsafe { connect_raw(fd, sa.as_ptr(), len) };
        match io::Error::last_os_error() {
            e if done != 0 && e.raw_os_error() != Some(EINPROGRESS) => Err(e),
            _ => Ok(stream),
        }
    }
}

/// The network under a node's [`IoLoop`]: the seam between the link
/// layer and what carries its bytes (module doc). Everything is
/// non-blocking but [`Net::wait`].
pub trait Net {
    /// One connection, dialed or accepted: a read with nothing to read
    /// and a write with no room fail with `WouldBlock`, a read of a
    /// connection the peer closed returns 0.
    type Conn: Read + Write;

    /// The clock the loop runs by (the wall clock by default).
    fn clock(&self) -> Clock {
        Clock::default()
    }
    /// The peers this net can dial; the loop keeps a link to each one
    /// that shares a stream with the node.
    fn peers(&self) -> Vec<NodeId>;
    /// Start a connect to `peer` (`Err`: it could not even start). The
    /// connection polls writable once the connect is decided.
    fn dial(&mut self, peer: NodeId) -> std::io::Result<Self::Conn>;
    /// How a decided connect went (`Err`: refused, unreachable).
    fn established(&mut self, conn: &Self::Conn) -> std::io::Result<()>;
    /// Take one connection the listener holds, if any.
    fn accept(&mut self) -> Option<Self::Conn>;
    /// Half-close `conn`: a FIN, and this side writes no more.
    fn close_write(&mut self, conn: &Self::Conn);
    /// Wait at most `timeout` (`None`: no limit) until an entry of
    /// `interest` — a connection, and whether the loop waits to write
    /// to it rather than read — is ready, the listener holds a
    /// connection, or the node's waker rings. Returns whether the
    /// listener is ready; [`Net::ready`] tells each entry.
    fn wait<'a>(
        &mut self,
        interest: impl Iterator<Item = (&'a Self::Conn, bool)>,
        timeout: Option<Duration>,
    ) -> bool
    where
        Self::Conn: 'a;
    /// Whether entry `i` of the last wait's interest was ready (failed
    /// or hung up counts as ready).
    fn ready(&self, i: usize) -> bool;
}

/// Real sockets: a non-blocking listener, non-blocking dials to a table
/// of peer addresses, and a `ppoll` that sleeps on the waker's bell too.
pub(crate) struct OsNet {
    listener: TcpListener,
    peers: Vec<(NodeId, SocketAddr)>,
    /// The receiving end of the waker's bell.
    bell: UnixStream,
    /// The last wait's poll set: the bell, the listener, then the
    /// interest.
    fds: Vec<sys::PollFd>,
}

impl OsNet {
    /// The net of a node listening on `listener` and dialing `peers`,
    /// and the sending end of its bell, for [`run_on_thread`]. `Err`: the
    /// listener or the bell could not be set up.
    pub(crate) fn new(
        listener: TcpListener,
        peers: Vec<(NodeId, SocketAddr)>,
    ) -> Result<(Self, UnixStream), CoreError> {
        let set_up = || {
            let (tx, bell) = UnixStream::pair()?;
            for nonblocking in [tx.set_nonblocking(true), bell.set_nonblocking(true)] {
                nonblocking?;
            }
            listener.set_nonblocking(true)?;
            Ok((tx, bell))
        };
        let (tx, bell) =
            set_up().map_err(|e: std::io::Error| CoreError::Config(format!("net: {e}")))?;
        let fds = Vec::new();
        Ok((
            OsNet {
                listener,
                peers,
                bell,
                fds,
            },
            tx,
        ))
    }
}

impl Net for OsNet {
    type Conn = TcpStream;

    fn peers(&self) -> Vec<NodeId> {
        self.peers.iter().map(|(peer, _)| *peer).collect()
    }

    fn dial(&mut self, peer: NodeId) -> std::io::Result<TcpStream> {
        match self.peers.iter().find(|(p, _)| *p == peer) {
            Some((_, addr)) => sys::connect(addr),
            None => Err(ErrorKind::NotFound.into()),
        }
    }

    fn established(&mut self, conn: &TcpStream) -> std::io::Result<()> {
        match conn.take_error() {
            Ok(None) => {
                conn.set_nodelay(true).ok();
                Ok(())
            }
            Ok(Some(e)) | Err(e) => Err(e),
        }
    }

    fn accept(&mut self) -> Option<TcpStream> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        return Some(stream);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Drained, or a failure the next readiness retries.
                Err(_) => return None,
            }
        }
    }

    fn close_write(&mut self, conn: &TcpStream) {
        let _ = conn.shutdown(Shutdown::Write);
    }

    fn wait<'a>(
        &mut self,
        interest: impl Iterator<Item = (&'a TcpStream, bool)>,
        timeout: Option<Duration>,
    ) -> bool {
        self.fds.clear();
        self.fds
            .push(sys::PollFd::new(self.bell.as_raw_fd(), sys::POLLIN));
        self.fds
            .push(sys::PollFd::new(self.listener.as_raw_fd(), sys::POLLIN));
        for (conn, write) in interest {
            let events = if write { sys::POLLOUT } else { sys::POLLIN };
            self.fds.push(sys::PollFd::new(conn.as_raw_fd(), events));
        }
        sys::ppoll(&mut self.fds, timeout);
        if self.fds[0].ready() {
            // A read that does not fill the buffer took every byte.
            while matches!((&self.bell).read(&mut [0; 64]), Ok(64)) {}
        }
        self.fds[1].ready()
    }

    fn ready(&self, i: usize) -> bool {
        self.fds.get(2 + i).is_some_and(sys::PollFd::ready)
    }
}

/// Per-spawn parameters of [`IoLoop::new`].
pub(crate) struct LinkSpawn {
    /// Run [`LinkClient::repair_link`] on each link's *first* connect
    /// too: a node restored from a snapshot re-announces its recovered
    /// ACK state without waiting for traffic. Later connects always
    /// repair.
    pub repair_first_connect: bool,
    /// Seed for the reconnect backoff jitter (per-link streams are
    /// derived from it, so two nodes never share a retry schedule).
    pub jitter_seed: u64,
}

/// Turn `io`, over real sockets, on its own thread `<prefix>-<me>-io`;
/// `bell` (from [`OsNet::new`]) rings its `ppoll` from here on.
///
/// # Errors
///
/// The thread could not be spawned, as a configuration error; the link
/// is shut down, so a failed spawn leaves nothing running.
pub(crate) fn run_on_thread<C: LinkClient>(
    io: IoLoop<C, OsNet>,
    bell: UnixStream,
    prefix: &str,
) -> Result<(), CoreError> {
    let client = Arc::clone(&io.client);
    let link = client.link();
    let name = format!("{prefix}-{}-io", link.me.0);
    let _ = link.waker.bell.set(bell);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || io.run())
        .map(drop)
        .map_err(|e| CoreError::Config(format!("spawn link thread io: {e}")))
        .inspect_err(|_| link.shutdown())
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

/// Who is on the other end of an inbound connection.
#[derive(Clone, Copy)]
enum Caller {
    /// No hello read yet.
    Unannounced,
    /// The peer its hello announced.
    Admitted(NodeId),
    /// A stranger, refused with a FIN: what it still writes is read and
    /// dropped until it hangs up.
    Refused,
}

/// One inbound connection.
struct Inbound<S> {
    reader: FrameReader<S>,
    caller: Caller,
}

impl<S: Read + Write> Inbound<S> {
    /// One read from this readable connection, its frames handed to
    /// `client`. False once the connection is done with: closed, broken
    /// or undecodable.
    fn read<C: LinkClient, N: Net<Conn = S>>(
        &mut self,
        client: &C,
        net: &mut N,
        frames: &mut Vec<(C::Lane, WireMsg)>,
    ) -> bool {
        let link = client.link();
        frames.clear();
        if let Caller::Refused = self.caller {
            return match self.reader.get_mut().read(&mut [0; 4096]) {
                Ok(n) => n > 0,
                Err(e) => retry_later(&e),
            };
        }
        let wire_len = match self.reader.read_batch(frames) {
            Ok(0) => return false,
            Ok(wire_len) => wire_len,
            Err(e) => return retry_later(&e),
        };
        if let Some(m) = &link.metrics {
            m.read_batches.inc();
            m.frames_in.add(frames.len() as u64);
            m.bytes_in.add(wire_len as u64);
        }
        if let Caller::Unannounced = self.caller {
            // The first frame must be a hello, on the hello lane,
            // announcing a peer this node has a link with: the machine
            // trusts `peer` as the sender of every frame after it.
            let admitted = frames
                .first()
                .filter(|(lane, _)| *lane == C::Lane::HELLO)
                .and_then(|(_, msg)| parse_hello(msg))
                .and_then(|id| link.admit(id));
            let Some(peer) = admitted else {
                // Refuse with a FIN, then let the stranger finish
                // talking: closing over frames it is still writing would
                // answer them with a reset instead.
                net.close_write(self.reader.get_ref());
                self.caller = Caller::Refused;
                return true;
            };
            self.caller = Caller::Admitted(peer);
            frames.remove(0);
        }
        if let (Caller::Admitted(peer), false) = (self.caller, frames.is_empty()) {
            client.on_frames(peer, frames);
        }
        true
    }
}

/// Whether a failed read or write is only "not now".
fn retry_later(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

/// Where an outbound link is: the loop dials it, and redials it once it
/// breaks.
enum Conn<S> {
    /// Down: dial at this instant.
    Down(Instant),
    /// A connect in flight, failed if not decided by this instant.
    Connecting(S, Instant),
    /// Connected, the hello written.
    Up(S),
    /// Out of connect retries: never dialed again.
    GaveUp,
}

/// One outbound link, as the loop keeps it.
struct Outbound<L, S> {
    peer: NodeId,
    /// The redial delays, restarted by every connect.
    backoff: Backoff,
    conn: Conn<S>,
    /// Frames encoded for the connection.
    out: WriteBuf<L>,
    /// The connection took less than it was given: wait until it polls
    /// writable.
    blocked: bool,
    /// A connection to the peer was made before: the next is a reconnect.
    connected: bool,
}

impl<L: Lane, S: Write> Outbound<L, S> {
    /// The connection to wait on for writability: a connect in flight,
    /// or a connection that took less than it was given.
    fn polled(&self) -> Option<&S> {
        match &self.conn {
            Conn::Connecting(stream, _) => Some(stream),
            Conn::Up(stream) if self.blocked => Some(stream),
            _ => None,
        }
    }

    /// Write what is buffered, taking the next burst of the queue each
    /// time the buffer has been written out, until the connection would
    /// block or the queue has run empty. `Err`: the connection broke.
    fn write(
        &mut self,
        link: &Link<L>,
        burst: &mut Vec<(L, WireMsg, usize)>,
        head: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        let Conn::Up(stream) = &mut self.conn else {
            return Ok(());
        };
        let (out, mut drained) = (&mut self.out, false);
        loop {
            if out.written == out.buf.len() {
                if drained {
                    return Ok(());
                }
                // A burst of rows alone can encode nothing yet: take the
                // next one rather than leave the queue to a later wake.
                drained = out.refill(link, self.peer, burst, head);
                continue;
            }
            match stream.write(&out.buf[out.written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => out.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.blocked = true;
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}
/// An outbound connection's write side: the frames encoded for it and
/// the ACK rows held back.
struct WriteBuf<L> {
    /// Encoded frames; `buf[written..]` is not yet written.
    buf: Vec<u8>,
    written: usize,
    /// ACK rows dequeued but not yet encoded, one per lane, and the
    /// bytes dequeued since the first of them was held.
    held: Vec<(L, Vec<Ack>)>,
    since_held: usize,
}

impl<L: Lane> WriteBuf<L> {
    /// Forget everything: the connection it was for is gone.
    fn reset(&mut self) {
        self.buf.clear();
        self.written = 0;
        self.held.clear();
    }

    /// Encode the next burst of `peer`'s queue into the buffer, which
    /// has been written out: data as dequeued, ACK rows held back and
    /// encoded at the tail of the burst. True when the queue ran empty.
    fn refill(
        &mut self,
        link: &Link<L>,
        peer: NodeId,
        burst: &mut Vec<(L, WireMsg, usize)>,
        head: &mut Vec<u8>,
    ) -> bool {
        self.buf.clear();
        self.written = 0;
        // A buffer grown for one huge frame is not kept for the next.
        self.buf.shrink_to(2 * WRITE_BUF);
        let drained = link.take_burst(peer, burst);
        let metrics = link.metrics.as_ref();
        for (lane, msg, len) in burst.drain(..) {
            if self.held.is_empty() {
                self.since_held = 0;
            }
            self.since_held += len;
            match msg {
                WireMsg::AckBatch(acks) => match self.held.iter_mut().find(|(l, _)| *l == lane) {
                    Some((_, row)) => {
                        Ack::max_merge(row, &acks);
                        if let Some(m) = metrics {
                            m.acks_coalesced.inc();
                        }
                    }
                    None => self.held.push((lane, acks)),
                },
                msg => encode(&mut self.buf, head, metrics, lane, &msg),
            }
            // A queue that never runs empty must not starve the rows.
            if self.since_held >= WRITE_BUF {
                self.rows(head, metrics);
            }
        }
        if drained {
            self.rows(head, metrics);
        }
        drained
    }

    /// Encode every held ACK row, leaving none held.
    fn rows(&mut self, head: &mut Vec<u8>, metrics: Option<&TransportMetrics>) {
        for (lane, row) in self.held.drain(..) {
            encode(&mut self.buf, head, metrics, lane, &WireMsg::AckBatch(row));
        }
    }
}

/// Append one frame to `buf`, its head built in `head`.
fn encode<L: Lane>(
    buf: &mut Vec<u8>,
    head: &mut Vec<u8>,
    metrics: Option<&TransportMetrics>,
    lane: L,
    msg: &WireMsg,
) {
    // Writing into a vector cannot fail.
    let wire_len = write_lane_frame_with(buf, head, lane, msg).unwrap_or(0);
    if let Some(m) = metrics {
        m.wrote(wire_len);
    }
}

/// The timer table, on the net's clock: when each [`TimerKind`] last
/// fired, and when telemetry was last sampled.
struct Timers {
    options: Options,
    last_fired: [Instant; TimerKind::ALL.len()],
    last_sample: Instant,
}

impl Timers {
    fn new(options: &Options, start: Instant) -> Self {
        Timers {
            options: options.clone(),
            last_fired: [start; TimerKind::ALL.len()],
            last_sample: start,
        }
    }

    /// When the next timer — or, with a hub attached, sample — is due;
    /// `None` when none ever is.
    fn next_due<L: Lane>(&self, link: &Link<L>) -> Option<Instant> {
        let scale = link.timer_scale();
        let timers = TimerKind::ALL.into_iter().zip(&self.last_fired);
        let due = timers
            .filter_map(|(kind, last)| last.checked_add(kind.scaled_period(&self.options, scale)?));
        let sample = link
            .telemetry
            .as_ref()
            .map(|_| self.last_sample + SAMPLE_EVERY);
        due.chain(sample).min()
    }

    /// Fire every timer that is due, then sample if that is due.
    fn fire<C: LinkClient>(&mut self, client: &C) {
        let link = client.link();
        let now = link.now();
        let scale = link.timer_scale();
        for (kind, last) in TimerKind::ALL.into_iter().zip(&mut self.last_fired) {
            let due = kind.scaled_period(&self.options, scale);
            if due.is_some_and(|period| now.duration_since(*last) >= period) {
                client.on_timer(kind, link.now_nanos());
                *last = now;
            }
        }
        if let Some(telemetry) = &link.telemetry {
            if now.duration_since(self.last_sample) >= SAMPLE_EVERY {
                client.sample(telemetry);
                self.last_sample = now;
            }
        }
    }
}

/// A node's I/O loop over net `N` (module doc): every connection of the
/// node, its timer table, and the scratch a turn reuses. On real
/// sockets it turns on its own thread; a net its caller drives is handed
/// it to turn.
pub struct IoLoop<C: LinkClient, N: Net> {
    client: Arc<C>,
    net: N,
    inbound: Vec<Inbound<N::Conn>>,
    outbound: Vec<Outbound<C::Lane, N::Conn>>,
    repair_first_connect: bool,
    /// Failed connects in a row that give a link up (`0`: never).
    retry_limit: u64,
    timers: Timers,
    /// Scratch: a reader batch, a write burst, a frame head.
    frames: Vec<(C::Lane, WireMsg)>,
    burst: Vec<(C::Lane, WireMsg, usize)>,
    head: Vec<u8>,
}

impl<C: LinkClient, N: Net> IoLoop<C, N> {
    /// The loop of `client` over `net`, with a link to each peer of the
    /// net that shares a stream with the node (under full replication,
    /// every peer), running `options`' timer table. Unlinked peers get
    /// no queue and are never dialed.
    pub(crate) fn new(client: &Arc<C>, net: N, options: &Options, params: LinkSpawn) -> Self {
        let link = client.link();
        let now = link.now();
        let mut outbound = Vec::new();
        for peer in net.peers() {
            if !link.placement.linked(link.me, peer) {
                continue;
            }
            link.queues.lock().insert(peer, VecDeque::new());
            outbound.push(Outbound {
                peer,
                backoff: Backoff::new(
                    Duration::from_millis(10),
                    Duration::from_millis(500),
                    link_seed(params.jitter_seed, link.me.0, peer.0),
                ),
                conn: Conn::Down(now),
                out: WriteBuf {
                    buf: Vec::new(),
                    written: 0,
                    held: Vec::new(),
                    since_held: 0,
                },
                blocked: false,
                connected: false,
            });
        }
        IoLoop {
            client: Arc::clone(client),
            net,
            inbound: Vec::new(),
            outbound,
            repair_first_connect: params.repair_first_connect,
            retry_limit: options.connect_retry_limit,
            timers: Timers::new(options, now),
            frames: Vec::new(),
            burst: Vec::new(),
            head: Vec::with_capacity(64),
        }
    }

    /// The net the loop runs on, to hand it what arrived.
    pub fn net_mut(&mut self) -> &mut N {
        &mut self.net
    }

    /// Turn until the link shuts down, then hand the sockets what is
    /// buffered, best effort.
    fn run(mut self) {
        while self.turn() {}
        for out in &mut self.outbound {
            if let Conn::Up(stream) = &mut out.conn {
                let _ = stream.write(&out.out.buf[out.out.written..]);
            }
        }
    }

    /// One turn (module doc): dial what is due, write, wait on the net
    /// until [`IoLoop::due_in`] or readiness, serve what is ready, fire
    /// what is due. False once the link has shut down: the loop is done.
    pub fn turn(&mut self) -> bool {
        // Everything a wake announces is looked at after this.
        self.client.link().waker.begin();
        if !self.client.link().is_running() {
            return false;
        }
        self.dial();
        let link = self.client.link();
        for out in &mut self.outbound {
            if !out.blocked && out.write(link, &mut self.burst, &mut self.head).is_err() {
                // What the connection buffered and held goes with it,
                // and the link is redialed at once.
                out.out.reset();
                out.blocked = false;
                out.conn = Conn::Down(link.now());
            }
        }
        let timeout = self
            .next_due()
            .map(|due| due.saturating_duration_since(link.now()));
        self.poll(timeout);
        self.timers.fire(&*self.client);
        true
    }

    /// How long until the loop has work it knows of: none at all if a
    /// wake came since its last look, else until its next timer, sample,
    /// redial or connect deadline (`None`: nothing is ever due). A net
    /// its caller drives turns the loop then, and whenever something
    /// arrives.
    pub fn due_in(&self) -> Option<Duration> {
        let link = self.client.link();
        if link.waker.pending.load(Ordering::SeqCst) {
            return Some(Duration::ZERO);
        }
        self.next_due()
            .map(|due| due.saturating_duration_since(link.now()))
    }

    /// When the next timer or sample is due, or a link is to be redialed
    /// or failed.
    fn next_due(&self) -> Option<Instant> {
        let redials = self.outbound.iter().filter_map(|out| match out.conn {
            Conn::Down(at) | Conn::Connecting(_, at) => Some(at),
            _ => None,
        });
        let timers = self.timers.next_due(self.client.link());
        timers.into_iter().chain(redials).min()
    }

    /// Start a connect on every link whose redial is due.
    fn dial(&mut self) {
        let now = self.client.link().now();
        for i in 0..self.outbound.len() {
            let out = &mut self.outbound[i];
            if matches!(out.conn, Conn::Down(at) if at <= now) {
                match self.net.dial(out.peer) {
                    Ok(stream) => out.conn = Conn::Connecting(stream, now + CONNECT_TIMEOUT),
                    Err(_) => self.connect_failed(i, now),
                }
            }
        }
    }

    /// Wait on the net for at most `timeout`, then serve what is ready: a
    /// connect in flight that polls writable is decided (or failed once
    /// its deadline passed), a blocked link that polls writable is
    /// unblocked, each readable inbound connection is read once, the
    /// listener is accepted from.
    fn poll(&mut self, timeout: Option<Duration>) {
        let waker = &self.client.link().waker;
        let timeout = match waker.heading() {
            true => Some(Duration::ZERO),
            false => timeout,
        };
        let inbound = self
            .inbound
            .iter()
            .map(|conn| (conn.reader.get_ref(), false));
        let outbound = self.outbound.iter().filter_map(Outbound::polled);
        let listener = self
            .net
            .wait(inbound.chain(outbound.map(|s| (s, true))), timeout);
        waker.awake();
        let now = self.client.link().now();
        let mut polled = self.inbound.len();
        for i in 0..self.outbound.len() {
            let out = &mut self.outbound[i];
            if out.polled().is_none() {
                continue;
            }
            let writable = self.net.ready(polled);
            polled += 1;
            match out.conn {
                Conn::Up(_) => out.blocked = !writable,
                Conn::Connecting(..) if writable => self.connected(i, now),
                Conn::Connecting(_, deadline) if deadline <= now => self.connect_failed(i, now),
                _ => {}
            }
        }
        let (client, net, frames) = (&*self.client, &mut self.net, &mut self.frames);
        let mut i = 0;
        self.inbound.retain_mut(|conn| {
            i += 1;
            !net.ready(i - 1) || conn.read(client, net, frames)
        });
        if listener {
            while let Some(stream) = self.net.accept() {
                self.inbound.push(Inbound {
                    reader: FrameReader::new(stream),
                    caller: Caller::Unannounced,
                });
            }
        }
    }

    /// Link `i`'s connect was decided. Made, the hello is written, and
    /// the link is up and repaired before its queue drains (on a first
    /// connect only if the node was restored); a connection that breaks
    /// before its hello is out is redialed at once.
    fn connected(&mut self, i: usize, now: Instant) {
        let out = &mut self.outbound[i];
        let Conn::Connecting(mut stream, _) = std::mem::replace(&mut out.conn, Conn::Down(now))
        else {
            return;
        };
        if self.net.established(&stream).is_err() {
            return self.connect_failed(i, now);
        }
        out.backoff.reset();
        let link = self.client.link();
        let hello = hello(link.me.0);
        let Ok(wire_len) =
            write_lane_frame_with(&mut stream, &mut self.head, C::Lane::HELLO, &hello)
        else {
            return;
        };
        if let Some(m) = &link.metrics {
            m.wrote(wire_len);
            if out.connected {
                m.reconnects.inc();
            }
        }
        let repair = out.connected || self.repair_first_connect;
        out.connected = true;
        out.conn = Conn::Up(stream);
        if repair {
            self.client.repair_link(out.peer);
        }
    }

    /// A connect to link `i`'s peer failed: wait out the next backoff
    /// delay — or, after `retry_limit` failures in a row, give the link
    /// up, drop its queue, record it and tell the client, so a
    /// misconfigured or permanently dead peer surfaces in
    /// [`Link::connect_failures`] instead of a silent spin.
    fn connect_failed(&mut self, i: usize, now: Instant) {
        let (link, out) = (self.client.link(), &mut self.outbound[i]);
        if self.retry_limit > 0 && out.backoff.attempts() + 1 >= self.retry_limit {
            out.conn = Conn::GaveUp;
            link.queues.lock().remove(&out.peer);
            link.connect_failed.lock().push(out.peer);
            return self.client.on_connect_failed(out.peer);
        }
        let delay = out.backoff.next_delay();
        if let Some(m) = &link.metrics {
            m.connect_attempts.inc();
            m.backoff_sleep_ns.add(delay.as_nanos() as u64);
        }
        out.conn = Conn::Down(now + delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{read_frame, write_frame};
    use bytes::Bytes;
    use stabilizer_core::{PERSISTED, RECEIVED};
    use std::io::BufReader;
    use std::sync::mpsc;

    /// A reader batch as the stub was handed it, and when.
    type Batch = (Instant, Vec<WireMsg>);

    /// How long a lone frame may take to leave or arrive: far beyond a
    /// loop turn, far below any timeout.
    const PROMPT: Duration = Duration::from_millis(50);

    /// A client with no protocol state behind it: it logs what the link
    /// layer asks of it.
    struct Stub {
        link: Link<()>,
        /// Where it accepts connections.
        addr: SocketAddr,
        repairs: Mutex<Vec<NodeId>>,
        gave_up: Mutex<Vec<NodeId>>,
        /// Every `on_timer` call, in order.
        fired: Mutex<Vec<TimerKind>>,
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
        fn on_timer(&self, kind: TimerKind, _now_nanos: u64) {
            self.fired.lock().push(kind);
        }
        fn sample(&self, _telemetry: &Telemetry) {}
        fn on_connect_failed(&self, peer: NodeId) {
            self.gave_up.lock().push(peer);
        }
    }

    const PEER: NodeId = NodeId(1);

    /// Node 0 of a 2-node cluster as a stub, its one link pointed at
    /// `peer_addr`.
    fn spawn_stub(peer_addr: SocketAddr, restored: bool, retry_limit: u64) -> Arc<Stub> {
        let options = Options {
            connect_retry_limit: retry_limit,
            ..Options::default()
        };
        spawn_stub_with(peer_addr, restored, &options, "stub", None)
    }

    /// A stub whose loop parks in `repair_link` right after the first
    /// hello, until the test sends on the returned gate: what is queued
    /// meanwhile is drained as one burst.
    fn spawn_parked_stub(peer_addr: SocketAddr) -> (Arc<Stub>, mpsc::Sender<()>) {
        let (release, gate) = mpsc::channel();
        let stub = spawn_stub_with(peer_addr, true, &Options::default(), "stub", Some(gate));
        (stub, release)
    }

    fn spawn_stub_with(
        peer_addr: SocketAddr,
        restored: bool,
        options: &Options,
        thread_prefix: &'static str,
        gate: Option<mpsc::Receiver<()>>,
    ) -> Arc<Stub> {
        let cfg = ClusterConfig::parse("az A a b\n").expect("config parses");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (batch_tx, batch_rx) = mpsc::channel();
        let stub = Arc::new(Stub {
            link: Link::new(&cfg, NodeId(0), Clock::default(), None, std::iter::empty()),
            addr: listener.local_addr().expect("bound"),
            repairs: Mutex::new(Vec::new()),
            gave_up: Mutex::new(Vec::new()),
            fired: Mutex::new(Vec::new()),
            repair_gate: Mutex::new(gate),
            batch_tx: Mutex::new(batch_tx),
            batch_rx: Mutex::new(batch_rx),
            reported: Mutex::new(Vec::new()),
        });
        let params = LinkSpawn {
            repair_first_connect: restored,
            jitter_seed: 7,
        };
        let (net, bell) = OsNet::new(listener, vec![(PEER, peer_addr)]).expect("net");
        let io = IoLoop::new(&stub, net, options, params);
        run_on_thread(io, bell, thread_prefix).expect("link threads spawn");
        stub
    }

    /// Accept the stub's connection and consume its hello.
    fn accept_hello(listener: &TcpListener) -> BufReader<TcpStream> {
        let (stream, _) = listener.accept().expect("the stub connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let mut reader = BufReader::new(stream);
        let first = read_frame(&mut reader).expect("readable").expect("a frame");
        assert_eq!(parse_hello(&first), Some(0), "first frame is the hello");
        reader
    }

    /// Names of this process's live threads that start with `prefix`,
    /// sorted.
    fn threads_named(prefix: &str) -> Vec<String> {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        let names = tasks.filter_map(|task| {
            // A thread can exit between the listing and the read.
            std::fs::read_to_string(task.ok()?.path().join("comm")).ok()
        });
        let mut names: Vec<String> = names
            .map(|name| name.trim_end().to_owned())
            .filter(|name| name.starts_with(prefix))
            .collect();
        names.sort();
        names
    }

    /// Wait up to 10 s for `done`.
    fn eventually(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn first_connect_skips_repair_and_an_idle_queue_is_flushed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stub = spawn_stub(listener.local_addr().unwrap(), false, 0);
        let mut reader = accept_hello(&listener);
        // One lone frame, nothing behind it: it must leave at once.
        let sent = Instant::now();
        stub.link.send(PEER, (), WireMsg::Heartbeat);
        assert_eq!(read_frame(&mut reader).unwrap(), Some(WireMsg::Heartbeat));
        assert!(
            sent.elapsed() < PROMPT,
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
        // Keep the queue non-empty until the loop notices the broken
        // pipe and a connector reconnects.
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            stub.link.send(PEER, (), WireMsg::Heartbeat);
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(_) => {
                    assert!(Instant::now() < deadline, "the link never reconnected");
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
    fn a_link_that_is_down_costs_no_thread() {
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead); // nobody listens: every redial fails
        let stub = spawn_stub_with(addr, false, &Options::default(), "down", None);
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(threads_named("down-"), ["down-0-io"]);
        assert!(stub.link.connect_failures().is_empty(), "still redialed");
        stub.link.shutdown();
    }

    #[test]
    fn a_peer_on_ipv6_loopback_is_dialed() {
        let listener = TcpListener::bind("[::1]:0").unwrap();
        let stub = spawn_stub(listener.local_addr().unwrap(), false, 0);
        let mut reader = accept_hello(&listener);
        stub.link.send(PEER, (), WireMsg::Heartbeat);
        assert_eq!(read_frame(&mut reader).unwrap(), Some(WireMsg::Heartbeat));
        stub.link.shutdown();
    }

    /// A listener whose accept queue is full drops every SYN, so a
    /// connect to it hangs until the loop fails it at its deadline; one
    /// failure is the retry limit here, so the failure is a give-up.
    #[test]
    fn a_connect_that_hangs_fails_at_its_deadline() {
        extern "C" {
            fn listen(fd: std::ffi::c_int, backlog: std::ffi::c_int) -> std::ffi::c_int;
        }
        let full = TcpListener::bind("127.0.0.1:0").unwrap();
        // SAFETY: the call takes two integers and no memory of ours;
        // `full` owns the socket for the whole test.
        assert_eq!(unsafe { listen(full.as_raw_fd(), 0) }, 0, "backlog 0");
        let addr = full.local_addr().unwrap();
        let _queued = TcpStream::connect(addr).unwrap(); // fills the queue
        let start = Instant::now();
        let stub = spawn_stub(addr, false, 1);
        eventually("the hung connect never failed", || {
            *stub.gave_up.lock() == [PEER]
        });
        let took = start.elapsed();
        assert!(
            (CONNECT_TIMEOUT..CONNECT_TIMEOUT * 4).contains(&took),
            "failed after {took:?}"
        );
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
    /// connector connects, sends the hello, and the link idles.
    fn idle_peer() -> TcpListener {
        TcpListener::bind("127.0.0.1:0").expect("bind")
    }

    #[test]
    fn one_write_is_one_batch_and_a_lone_frame_is_a_batch_of_one() {
        let peer = idle_peer();
        let stub = spawn_stub(peer.local_addr().unwrap(), false, 0);
        let mut s = TcpStream::connect(stub.addr).unwrap();
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
        // Nothing behind it: the loop must not wait for a batch to fill.
        let sent = Instant::now();
        write_frame(&mut s, &WireMsg::Heartbeat).unwrap();
        let (at, batch) = stub.next_batch();
        assert_eq!(batch, [WireMsg::Heartbeat]);
        let waited = at.duration_since(sent);
        assert!(waited < PROMPT, "lone frame waited {waited:?}");
        stub.link.shutdown();
    }

    #[test]
    fn a_refused_stranger_gets_a_fin_not_a_reset() {
        let peer = idle_peer();
        let stub = spawn_stub(peer.local_addr().unwrap(), false, 0);
        let mut s = TcpStream::connect(stub.addr).unwrap();
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
    fn first_frames_wait_for_no_poll_and_shutdown_ends_every_link_thread() {
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
                let mut s = TcpStream::connect(stub.addr).unwrap();
                s.write_all(&wire).unwrap();
                stub.next_batch().0.duration_since(start)
            })
            .collect();
        waits.sort();
        assert!(
            waits[waits.len() / 4] < Duration::from_millis(1),
            "first frames waited for the loop: {waits:?}"
        );
        // Every link thread holds a clone of the client, so "only ours is
        // left" means all of them are gone, the I/O loop included.
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
    fn silent_strangers_cost_no_thread() {
        let peer = idle_peer();
        let stub = spawn_stub_with(
            peer.local_addr().unwrap(),
            false,
            &Options::default(),
            "mute",
            None,
        );
        // A thread names itself once it runs: wait for the name.
        let io = || threads_named("mute-0-") == ["mute-0-io"];
        eventually("the I/O thread never took its name", io);
        let strangers: Vec<TcpStream> = (0..64)
            .map(|_| TcpStream::connect(stub.addr).unwrap())
            .collect();
        // The loop has taken them all by the time a real peer's frames
        // are handed over behind them.
        let mut s = TcpStream::connect(stub.addr).unwrap();
        write_frame(&mut s, &hello(PEER.0)).unwrap();
        write_frame(&mut s, &WireMsg::Heartbeat).unwrap();
        assert_eq!(stub.next_batch().1, [WireMsg::Heartbeat]);
        assert_eq!(threads_named("mute-0-"), ["mute-0-io"]);
        drop(strangers);
        stub.link.shutdown();
    }

    #[test]
    fn a_timer_scale_change_takes_effect_while_the_loop_sleeps() {
        const PERIOD: Duration = Duration::from_secs(5);
        let peer = idle_peer();
        let options = Options {
            heartbeat_millis: PERIOD.as_millis() as u64,
            ..Options::default()
        };
        let stub = spawn_stub_with(peer.local_addr().unwrap(), false, &options, "stub", None);
        // Let the loop settle into its sleep until the first heartbeat.
        std::thread::sleep(Duration::from_millis(50));
        let scaled = Instant::now();
        stub.link.set_timer_scale(0.01);
        eventually("the heartbeat never fired", || {
            !stub.fired.lock().is_empty()
        });
        assert!(
            scaled.elapsed() < PERIOD / 5,
            "fired {:?} after the scale changed",
            scaled.elapsed()
        );
        assert_eq!(stub.fired.lock()[0], TimerKind::Heartbeat);
        stub.link.shutdown();
    }

    /// Producers push and wake while a stub loop looks, then sleeps on
    /// the waker alone. Each round one producer, in turn, waits until
    /// the loop has looked and heads for sleep, then pauses at random,
    /// so its wake falls anywhere on the loop's way into `ppoll`. Rounds
    /// end at a barrier, so the round's one wake has no later one to
    /// cover for it: a lost wake-up is a sleep that runs out its whole
    /// timeout.
    #[test]
    fn no_wake_up_is_lost_between_a_look_and_a_sleep() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        const PRODUCERS: usize = 4;
        const SENDS: usize = 2_000;
        const TIMEOUT: Duration = Duration::from_secs(2);
        const PRODUCER_SPINS: u64 = 64;
        const LOOP_SPINS: u64 = 64;
        /// A pause of fewer than `spins` spins, drawn from `rng`.
        fn pause(rng: &mut u64, spins: u64) {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            for _ in 0..*rng % spins {
                std::hint::spin_loop();
            }
        }
        let (tx, rx) = UnixStream::pair().expect("socket pair");
        rx.set_nonblocking(true).expect("non-blocking");
        let waker = Waker::default();
        let _ = waker.bell.set(tx);
        // The loop's wait on the bell alone, as `IoLoop::poll` makes it.
        let sleep = |timeout: Duration| {
            let timeout = if waker.heading() {
                Duration::ZERO
            } else {
                timeout
            };
            let mut fds = [sys::PollFd::new(rx.as_raw_fd(), sys::POLLIN)];
            let ready = sys::ppoll(&mut fds, Some(timeout));
            waker.awake();
            while matches!((&rx).read(&mut [0; 64]), Ok(64)) {}
            ready
        };
        let queued = AtomicUsize::new(0);
        let (start, end) = (Barrier::new(PRODUCERS + 1), Barrier::new(PRODUCERS + 1));
        let (heading, lost, stop) = (
            AtomicBool::new(false),
            AtomicUsize::new(0),
            AtomicBool::new(false),
        );
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (waker, queued, heading) = (&waker, &queued, &heading);
                let (start, end, stop) = (&start, &end, &stop);
                s.spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ p as u64;
                    for round in 0..SENDS * PRODUCERS {
                        start.wait();
                        if round % PRODUCERS == p {
                            // Spin to see it at once, but yield to a
                            // loop that has no core to run on.
                            for spin in 0.. {
                                if heading.load(Ordering::SeqCst) {
                                    break;
                                }
                                match spin < 10_000 {
                                    true => std::hint::spin_loop(),
                                    false => std::thread::yield_now(),
                                }
                            }
                            pause(&mut rng, PRODUCER_SPINS);
                            queued.fetch_add(1, Ordering::SeqCst);
                            waker.wake();
                        }
                        end.wait();
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                });
            }
            s.spawn(|| {
                let mut rng = 0x2545_f491_4f6c_dd1du64;
                for round in 1..=SENDS * PRODUCERS {
                    start.wait();
                    loop {
                        waker.begin();
                        if queued.load(Ordering::SeqCst) == round {
                            break;
                        }
                        heading.store(true, Ordering::SeqCst);
                        pause(&mut rng, LOOP_SPINS);
                        let began = Instant::now();
                        let ready = sleep(TIMEOUT);
                        if ready == 0 && began.elapsed() >= TIMEOUT {
                            lost.fetch_add(1, Ordering::SeqCst);
                            stop.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                    heading.store(false, Ordering::SeqCst);
                    end.wait();
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
            });
        });
        assert_eq!(lost.load(Ordering::SeqCst), 0, "a wake-up was lost");
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
            sent.elapsed() < PROMPT,
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
        // queued before the loop looks: it never sees an empty queue.
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
    fn a_queue_of_rows_alone_longer_than_a_burst_is_written_out() {
        // Enough one-cell rows that a burst of them fills `WRITE_BUF`
        // by frame size before its rows add up to `WRITE_BUF` bytes:
        // the first burst encodes nothing, and nothing else will wake
        // the loop.
        const ROWS: u64 = 20_000;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (stub, release) = spawn_parked_stub(listener.local_addr().unwrap());
        let mut reader = accept_hello(&listener);
        for seq in 1..=ROWS {
            stub.link
                .send(PEER, (), WireMsg::AckBatch(vec![ack(RECEIVED, seq)]));
        }
        release.send(()).unwrap();
        let mut table = Vec::new();
        while table != [ack(RECEIVED, ROWS)] {
            match read_frame(&mut reader).unwrap().expect("a frame") {
                WireMsg::AckBatch(row) => Ack::max_merge(&mut table, &row),
                other => panic!("unexpected {other:?}"),
            }
        }
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
                                             // socket buffers take: the link ends up blocked with rows held,
                                             // buffered and in flight.
        for seq in 1..=REPORTS {
            stub.link.send(PEER, (), data(seq, FRAME));
            stub.report(vec![ack(RECEIVED, seq), ack(PERSISTED, seq / 2)]);
        }
        let depth = || stub.link.queues.lock()[&PEER].len();
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
            "the loop drained {REPORTS} frames into a deaf socket"
        );
        drop(first); // the connection dies under the blocked link
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
        let link: Link<()> = Link::new(&cfg, NodeId(0), Clock::default(), None, std::iter::empty());
        assert_eq!(link.admit(1), Some(NodeId(1)));
        assert_eq!(link.admit(0), None, "self");
        assert_eq!(link.admit(2), None, "shares no stream with node 0");
        assert_eq!(link.admit(3), None, "not a configured node");
        assert_eq!(link.admit(9999), None);
    }
}
