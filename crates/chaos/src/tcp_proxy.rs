//! A fault-injecting TCP proxy: the real-socket counterpart of the
//! simulator's link controls.
//!
//! Every directed link `i -> j` of the cluster gets its own proxy
//! listener; node `i`'s transport is told that peer `j` lives at that
//! listener, and the proxy forwards each accepted connection onward to
//! node `j`'s *current* real address. Because the node addresses are a
//! mutable table ([`ProxyNet::set_dest`]), a crash-restarted node can
//! come back on a fresh port without any peer reconfiguring — exactly
//! the indirection the harness needs to restart nodes mid-run.
//!
//! Connections are forwarded **frame-at-a-time** (the transport's
//! `u32`-length-prefixed framing) but without decoding the body, so the
//! proxy can drop, delay, or throttle at message granularity — the same
//! granularity as the simulator — while staying oblivious to the wire
//! schema. Fault semantics per link:
//!
//! - **down** ([`ProxyNet::set_link_up`]): the connection is *held*, not
//!   killed — the conn thread stops reading, so frames pile up in kernel
//!   buffers and in the writer's channel, and flow again on heal. This
//!   mirrors the simulator's partition (messages vanish, the endpoint
//!   keeps its socket) without triggering the transport's reconnect
//!   repair storm on every partition edge.
//! - **loss** ([`ProxyNet::set_loss`]): each frame after the hello is
//!   dropped with probability `p`, from a seeded per-connection RNG. The
//!   hello (frame 0) is exempt: real loss happens *below* TCP, so the
//!   stream either exists or does not — per-frame loss models the
//!   paper's lossy-WAN behaviors (forcing retransmission) and dropping
//!   the hello would model a different fault (connection failure),
//!   already covered by link-down.
//! - **rate** ([`ProxyNet::set_rate`]): each frame pays its
//!   serialization delay at the configured bytes/sec before forwarding —
//!   a collapsed NIC stretches a burst into a trickle.
//! - **delay** ([`ProxyNet::set_delay`]): fixed extra one-way latency
//!   per frame. Applied in-line, so per-link FIFO is preserved (TCP
//!   ordering is part of the transport's contract).
//! - **epoch kill** ([`ProxyNet::kill_links_of`]): every connection on
//!   the node's links is torn down and any held frames are discarded.
//!   This is the crash primitive: combined with link-down it guarantees
//!   nothing the crashed incarnation wrote after the cut ever reaches a
//!   peer — the ordering the belief-≤-truth invariant depends on.
//!
//! All knobs are lock-free atomics read per-frame, so the harness can
//! flip them at fault-plan times without handshaking with conn threads.

use stabilizer_transport::framing::MAX_FRAME;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a conn thread sleeps when its link is held down.
const HOLD_POLL: Duration = Duration::from_millis(2);

/// Read timeout on proxied sockets: the granularity at which conn
/// threads notice epoch kills and shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(20);

/// Loss probabilities are stored as parts-per-million in an atomic.
const PPM: f64 = 1_000_000.0;

fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mutable fault state of one directed link, shared between the harness
/// (writers) and the link's conn threads (readers).
struct LinkState {
    /// Link passes traffic (held when false).
    up: AtomicBool,
    /// Per-frame drop probability, parts per million.
    loss_ppm: AtomicU32,
    /// Per-frame duplication probability, parts per million.
    dup_ppm: AtomicU32,
    /// Per-frame reorder (swap-with-next) probability, parts per
    /// million.
    reorder_ppm: AtomicU32,
    /// Egress rate in bytes/sec (`f64` bits; 0.0 = unlimited).
    rate_bits: AtomicU64,
    /// Extra one-way delay per frame, nanoseconds.
    delay_nanos: AtomicU64,
    /// Bumped to kill every live connection on this link.
    epoch: AtomicU64,
    /// Live conn threads (for crash-time drain).
    active: AtomicU64,
    /// Frames dropped by loss on this link.
    dropped: AtomicU64,
    /// Base seed for per-connection loss RNGs.
    seed: u64,
}

impl LinkState {
    fn new(seed: u64) -> Self {
        LinkState {
            up: AtomicBool::new(true),
            loss_ppm: AtomicU32::new(0),
            dup_ppm: AtomicU32::new(0),
            reorder_ppm: AtomicU32::new(0),
            rate_bits: AtomicU64::new(0f64.to_bits()),
            delay_nanos: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            active: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            seed,
        }
    }
}

struct ProxyShared {
    n: usize,
    /// Directed links, `[from * n + to]` (diagonal unused).
    links: Vec<LinkState>,
    /// Proxy listener address per directed link.
    proxy_addrs: Vec<Option<SocketAddr>>,
    /// Current real address of each node (`None` until registered;
    /// updated on restart).
    dests: Mutex<Vec<Option<SocketAddr>>>,
    running: AtomicBool,
}

/// The proxy mesh for an `n`-node cluster. See the module docs.
pub struct ProxyNet {
    shared: Arc<ProxyShared>,
}

impl ProxyNet {
    /// Bind one proxy listener per directed link and start its acceptor
    /// thread. Node destinations start unset; register them with
    /// [`ProxyNet::set_dest`] before traffic flows.
    ///
    /// # Errors
    ///
    /// Propagates listener-bind failures.
    pub fn new(n: usize, seed: u64) -> std::io::Result<ProxyNet> {
        let mut links = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                let mut s = seed ^ ((from as u64) << 32) ^ ((to as u64) << 16) ^ 0xc2b2_ae35;
                links.push(LinkState::new(splitmix_next(&mut s)));
            }
        }
        let mut listeners: Vec<Option<TcpListener>> = Vec::with_capacity(n * n);
        let mut proxy_addrs = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                if from == to {
                    listeners.push(None);
                    proxy_addrs.push(None);
                    continue;
                }
                let l = TcpListener::bind("127.0.0.1:0")?;
                proxy_addrs.push(Some(l.local_addr()?));
                listeners.push(Some(l));
            }
        }
        let shared = Arc::new(ProxyShared {
            n,
            links,
            proxy_addrs,
            dests: Mutex::new(vec![None; n]),
            running: AtomicBool::new(true),
        });
        for from in 0..n {
            for to in 0..n {
                let Some(listener) = listeners[from * n + to].take() else {
                    continue;
                };
                let shared2 = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("proxy-{from}-{to}"))
                    .spawn(move || accept_loop(shared2, listener, from, to))
                    .expect("spawn proxy acceptor");
            }
        }
        Ok(ProxyNet { shared })
    }

    /// Cluster size.
    pub fn num_nodes(&self) -> usize {
        self.shared.n
    }

    /// The address node `from` should dial to reach node `to`.
    ///
    /// # Panics
    ///
    /// Panics on `from == to` or out-of-range nodes.
    pub fn proxy_addr(&self, from: usize, to: usize) -> SocketAddr {
        self.shared.proxy_addrs[from * self.shared.n + to].expect("no self-link")
    }

    /// Register (or update, after a restart) node `node`'s real address.
    pub fn set_dest(&self, node: usize, addr: SocketAddr) {
        self.shared.dests.lock().unwrap()[node] = Some(addr);
    }

    fn link(&self, from: usize, to: usize) -> &LinkState {
        &self.shared.links[from * self.shared.n + to]
    }

    /// Pass (`true`) or hold (`false`) traffic on `from -> to`.
    pub fn set_link_up(&self, from: usize, to: usize, up: bool) {
        self.link(from, to).up.store(up, Ordering::SeqCst);
    }

    /// Per-frame drop probability on `from -> to` (clamped to `[0, 1]`).
    pub fn set_loss(&self, from: usize, to: usize, probability: f64) {
        let ppm = (probability.clamp(0.0, 1.0) * PPM) as u32;
        self.link(from, to).loss_ppm.store(ppm, Ordering::SeqCst);
    }

    /// Throttle every outgoing link of `node` to `bytes_per_sec`
    /// (values ≥ 1e11 are treated as unlimited).
    pub fn set_rate(&self, node: usize, bytes_per_sec: f64) {
        let effective = if bytes_per_sec >= 1e11 {
            0.0
        } else {
            bytes_per_sec
        };
        for to in 0..self.shared.n {
            if to != node {
                self.link(node, to)
                    .rate_bits
                    .store(effective.to_bits(), Ordering::SeqCst);
            }
        }
    }

    /// Per-frame duplicate/reorder probabilities on `from -> to`
    /// (clamped to `[0, 1]`; `0.0, 0.0` clears). A duplicated frame is
    /// written twice back-to-back; a reordered frame is held and swapped
    /// past its successor (released on read-idle if no successor comes),
    /// so nothing is ever lost — the transport's decoder and the
    /// protocol's receive buffer must absorb both. The hello (frame 0)
    /// is exempt, as with loss.
    pub fn set_dup_reorder(&self, from: usize, to: usize, dup: f64, reorder: f64) {
        let link = self.link(from, to);
        link.dup_ppm
            .store((dup.clamp(0.0, 1.0) * PPM) as u32, Ordering::SeqCst);
        link.reorder_ppm
            .store((reorder.clamp(0.0, 1.0) * PPM) as u32, Ordering::SeqCst);
    }

    /// Extra one-way delay per frame on `from -> to` (0 clears).
    pub fn set_delay(&self, from: usize, to: usize, extra_nanos: u64) {
        self.link(from, to)
            .delay_nanos
            .store(extra_nanos, Ordering::SeqCst);
    }

    /// Tear down every live connection on `node`'s links, both
    /// directions, discarding held frames. New connections are accepted
    /// immediately (under the current up/down state).
    pub fn kill_links_of(&self, node: usize) {
        for other in 0..self.shared.n {
            if other == node {
                continue;
            }
            self.link(node, other).epoch.fetch_add(1, Ordering::SeqCst);
            self.link(other, node).epoch.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Wait (bounded) until no conn thread from a pre-kill epoch is
    /// still live on `node`'s links; returns whether the drain finished.
    /// Call after [`ProxyNet::kill_links_of`]: once true, nothing more
    /// can escape from or reach the node through old connections.
    pub fn drain_links_of(&self, node: usize, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let live: u64 = (0..self.shared.n)
                .filter(|&o| o != node)
                .map(|o| {
                    self.link(node, o).active.load(Ordering::SeqCst)
                        + self.link(o, node).active.load(Ordering::SeqCst)
                })
                .sum();
            if live == 0 {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Total frames dropped by injected loss, all links.
    pub fn dropped(&self) -> u64 {
        self.shared
            .links
            .iter()
            .map(|l| l.dropped.load(Ordering::SeqCst))
            .sum()
    }

    /// Stop acceptors and tear down all connections.
    pub fn shutdown(&self) {
        self.shared.running.store(false, Ordering::SeqCst);
        for l in &self.shared.links {
            l.epoch.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl Drop for ProxyNet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: Arc<ProxyShared>, listener: TcpListener, from: usize, to: usize) {
    listener.set_nonblocking(true).ok();
    while shared.running.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((upstream, _)) => {
                let link = &shared.links[from * shared.n + to];
                let epoch = link.epoch.load(Ordering::SeqCst);
                // Per-connection RNG: vary by epoch so a reconnect after a
                // kill does not replay the previous connection's drops.
                let mut s = link.seed ^ epoch.wrapping_mul(0x9e37_79b9);
                let rng = splitmix_next(&mut s);
                link.active.fetch_add(1, Ordering::SeqCst);
                let shared2 = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("proxy-{from}-{to}-c"))
                    .spawn(move || {
                        conn_loop(&shared2, upstream, from, to, epoch, rng);
                        shared2.links[from * shared2.n + to]
                            .active
                            .fetch_sub(1, Ordering::SeqCst);
                    })
                    .expect("spawn proxy conn");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// Accumulates raw bytes and yields complete length-prefixed frames, so
/// short reads under a read timeout never desynchronize the stream.
struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    fn new() -> Self {
        FrameBuf { buf: Vec::new() }
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame (prefix + body) if one is buffered.
    /// `Err` means the stream is corrupt (oversized frame).
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ()> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        // The transport's framing limit: an insane length prefix kills
        // the connection instead of allocating unboundedly.
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len > MAX_FRAME {
            return Err(());
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame = self.buf[..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(frame))
    }
}

/// Write one frame toward node `to`, dialing the destination lazily on
/// first use (a connection accepted while the destination was down must
/// dial the *restarted* address, which is only known later). Returns
/// `false` when the conn should die: destination unregistered, dial
/// failure (the sender reconnects), or broken pipe.
fn write_downstream(
    shared: &ProxyShared,
    downstream: &mut Option<TcpStream>,
    to: usize,
    frame: &[u8],
) -> bool {
    let stream = match downstream {
        Some(s) => s,
        None => {
            let dest = shared.dests.lock().unwrap()[to];
            let Some(dest) = dest else {
                return false; // destination never registered
            };
            match TcpStream::connect_timeout(&dest, Duration::from_millis(500)) {
                Ok(s) => {
                    s.set_nodelay(true).ok();
                    *downstream = Some(s);
                    downstream.as_mut().expect("just set")
                }
                // Destination gone (e.g. crashed before drain): drop the
                // conn; the sender reconnects.
                Err(_) => return false,
            }
        }
    };
    stream.write_all(frame).is_ok()
}

/// Forward frames from one accepted connection to the destination node,
/// applying the link's fault state per frame. Exits (closing both
/// sockets) on EOF, IO error, epoch kill, or proxy shutdown.
fn conn_loop(
    shared: &ProxyShared,
    upstream: TcpStream,
    from: usize,
    to: usize,
    my_epoch: u64,
    mut rng: u64,
) {
    let link = &shared.links[from * shared.n + to];
    let killed = |l: &LinkState| {
        l.epoch.load(Ordering::SeqCst) != my_epoch || !shared.running.load(Ordering::SeqCst)
    };
    upstream.set_read_timeout(Some(READ_TIMEOUT)).ok();

    let mut downstream: Option<TcpStream> = None;
    let mut frames_forwarded: u64 = 0;
    let mut buf = FrameBuf::new();
    let mut chunk = [0u8; 8192];
    // A frame held back by the reorder fault, waiting to swap past its
    // successor.
    let mut held: Option<Vec<u8>> = None;
    loop {
        if killed(link) {
            return;
        }
        if !link.up.load(Ordering::SeqCst) {
            // Held: no reads, no forwards; kernel buffers absorb the
            // sender until heal.
            std::thread::sleep(HOLD_POLL);
            continue;
        }
        match upstream.suspend_safe_read(&mut chunk) {
            ReadOutcome::Data(n) => buf.extend(&chunk[..n]),
            ReadOutcome::TimedOut => {
                // Read-idle with a reorder-held frame: no successor is
                // coming right behind it, so release it — reorder must
                // never become loss.
                if let Some(h) = held.take() {
                    if !write_downstream(shared, &mut downstream, to, &h) {
                        return;
                    }
                }
            }
            ReadOutcome::Closed => {
                if let Some(h) = held.take() {
                    let _ = write_downstream(shared, &mut downstream, to, &h);
                }
                return;
            }
        }
        loop {
            let frame = match buf.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(()) => return, // corrupt length prefix: kill the conn
            };
            // Loss: seeded per-frame coin flip; the hello is exempt (see
            // module docs).
            let ppm = link.loss_ppm.load(Ordering::SeqCst);
            if frames_forwarded > 0
                && ppm > 0
                && (splitmix_next(&mut rng) % PPM as u64) < u64::from(ppm)
            {
                link.dropped.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            // Delay skew: fixed extra one-way latency, in-line to keep
            // FIFO.
            let delay = link.delay_nanos.load(Ordering::SeqCst);
            if delay > 0 {
                std::thread::sleep(Duration::from_nanos(delay));
            }
            // Bandwidth: pay the serialization delay at the configured
            // rate.
            let rate = f64::from_bits(link.rate_bits.load(Ordering::SeqCst));
            if rate > 0.0 {
                let nanos = (frame.len() as f64 / rate * 1e9) as u64;
                std::thread::sleep(Duration::from_nanos(nanos.min(1_000_000_000)));
            }
            // The link may have been cut or killed while this frame
            // waited its turn: hold (not drop) until it may pass.
            while !link.up.load(Ordering::SeqCst) {
                if killed(link) {
                    return;
                }
                std::thread::sleep(HOLD_POLL);
            }
            if killed(link) {
                return;
            }
            // Reorder: hold this frame back one slot so the next frame
            // overtakes it (hello exempt; at most one frame held).
            let reorder_ppm = link.reorder_ppm.load(Ordering::SeqCst);
            if frames_forwarded > 0
                && held.is_none()
                && reorder_ppm > 0
                && (splitmix_next(&mut rng) % PPM as u64) < u64::from(reorder_ppm)
            {
                held = Some(frame);
                frames_forwarded += 1;
                continue;
            }
            if !write_downstream(shared, &mut downstream, to, &frame) {
                return;
            }
            // Duplicate: the copy follows immediately (hello exempt).
            let dup_ppm = link.dup_ppm.load(Ordering::SeqCst);
            if frames_forwarded > 0
                && dup_ppm > 0
                && (splitmix_next(&mut rng) % PPM as u64) < u64::from(dup_ppm)
                && !write_downstream(shared, &mut downstream, to, &frame)
            {
                return;
            }
            frames_forwarded += 1;
            // A held frame swaps out right after its successor.
            if let Some(h) = held.take() {
                if !write_downstream(shared, &mut downstream, to, &h) {
                    return;
                }
            }
        }
    }
}

/// Outcome of one read attempt under a read timeout.
enum ReadOutcome {
    Data(usize),
    TimedOut,
    Closed,
}

trait SuspendSafeRead {
    fn suspend_safe_read(&self, chunk: &mut [u8]) -> ReadOutcome;
}

impl SuspendSafeRead for TcpStream {
    fn suspend_safe_read(&self, chunk: &mut [u8]) -> ReadOutcome {
        match (&mut &*self).read(chunk) {
            Ok(0) => ReadOutcome::Closed,
            Ok(n) => ReadOutcome::Data(n),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                ReadOutcome::TimedOut
            }
            Err(_) => ReadOutcome::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(body);
        f
    }

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let mut b = FrameBuf::new();
        let f1 = frame(b"hello");
        let f2 = frame(b"world!");
        let joined: Vec<u8> = f1.iter().chain(f2.iter()).copied().collect();
        // Feed one byte at a time: only complete frames pop out.
        let mut out = Vec::new();
        for byte in joined {
            b.extend(&[byte]);
            while let Some(f) = b.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, vec![f1, f2]);
    }

    #[test]
    fn frame_buf_rejects_oversized_prefix() {
        let mut b = FrameBuf::new();
        b.extend(&(u32::MAX).to_le_bytes());
        assert!(b.next_frame().is_err());
    }

    #[test]
    fn proxy_forwards_frames_end_to_end() {
        let proxy = ProxyNet::new(2, 1).unwrap();
        let dest = TcpListener::bind("127.0.0.1:0").unwrap();
        proxy.set_dest(1, dest.local_addr().unwrap());
        let mut up = TcpStream::connect(proxy.proxy_addr(0, 1)).unwrap();
        up.write_all(&frame(b"one")).unwrap();
        up.write_all(&frame(b"two")).unwrap();
        let (mut got, _) = dest.accept().unwrap();
        got.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut buf = [0u8; 64];
        let mut received = Vec::new();
        while received.len() < 14 {
            let n = got.read(&mut buf).unwrap();
            assert!(n > 0, "stream closed early");
            received.extend_from_slice(&buf[..n]);
        }
        let expected: Vec<u8> = frame(b"one").into_iter().chain(frame(b"two")).collect();
        assert_eq!(received, expected);
        proxy.shutdown();
    }

    #[test]
    fn held_link_delays_but_preserves_frames() {
        let proxy = ProxyNet::new(2, 2).unwrap();
        let dest = TcpListener::bind("127.0.0.1:0").unwrap();
        proxy.set_dest(1, dest.local_addr().unwrap());
        proxy.set_link_up(0, 1, false);
        let mut up = TcpStream::connect(proxy.proxy_addr(0, 1)).unwrap();
        up.write_all(&frame(b"held")).unwrap();
        dest.set_nonblocking(true).ok();
        std::thread::sleep(Duration::from_millis(100));
        // Nothing arrives while the link is down (not even a connection).
        assert!(dest.accept().is_err(), "held link must not forward");
        proxy.set_link_up(0, 1, true);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut got = loop {
            match dest.accept() {
                Ok((s, _)) => break s,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("heal did not release the frame: {e}"),
            }
        };
        got.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut received = Vec::new();
        let mut buf = [0u8; 64];
        while received.len() < 8 {
            let n = got.read(&mut buf).unwrap();
            assert!(n > 0);
            received.extend_from_slice(&buf[..n]);
        }
        assert_eq!(received, frame(b"held"));
        proxy.shutdown();
    }

    /// Read framed messages from `got` until `want` frames have arrived.
    fn read_frames(got: &mut TcpStream, want: usize) -> Vec<Vec<u8>> {
        got.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut fb = FrameBuf::new();
        let mut out = Vec::new();
        let mut buf = [0u8; 256];
        while out.len() < want {
            let n = got.read(&mut buf).expect("read");
            assert!(n > 0, "stream closed early");
            fb.extend(&buf[..n]);
            while let Some(f) = fb.next_frame().unwrap() {
                // Strip the length prefix back off for comparison.
                out.push(f[4..].to_vec());
            }
        }
        out
    }

    #[test]
    fn dup_link_duplicates_frames_after_hello() {
        let proxy = ProxyNet::new(2, 4).unwrap();
        let dest = TcpListener::bind("127.0.0.1:0").unwrap();
        proxy.set_dest(1, dest.local_addr().unwrap());
        proxy.set_dup_reorder(0, 1, 1.0, 0.0);
        let mut up = TcpStream::connect(proxy.proxy_addr(0, 1)).unwrap();
        up.write_all(&frame(b"hello")).unwrap();
        up.write_all(&frame(b"a")).unwrap();
        up.write_all(&frame(b"b")).unwrap();
        let (mut got, _) = dest.accept().unwrap();
        // Hello exempt; the two data frames each arrive twice, in order.
        let frames = read_frames(&mut got, 5);
        assert_eq!(
            frames,
            vec![
                b"hello".to_vec(),
                b"a".to_vec(),
                b"a".to_vec(),
                b"b".to_vec(),
                b"b".to_vec()
            ]
        );
        proxy.shutdown();
    }

    #[test]
    fn reorder_link_swaps_adjacent_frames_without_loss() {
        let proxy = ProxyNet::new(2, 5).unwrap();
        let dest = TcpListener::bind("127.0.0.1:0").unwrap();
        proxy.set_dest(1, dest.local_addr().unwrap());
        proxy.set_dup_reorder(0, 1, 0.0, 1.0);
        let mut up = TcpStream::connect(proxy.proxy_addr(0, 1)).unwrap();
        for body in [&b"hello"[..], b"a", b"b", b"c", b"d"] {
            up.write_all(&frame(body)).unwrap();
        }
        let (mut got, _) = dest.accept().unwrap();
        // With p=1.0, each data frame is held until its successor passes:
        // a is held, b passes, a releases; c is held, d passes, c releases.
        let frames = read_frames(&mut got, 5);
        assert_eq!(
            frames,
            vec![
                b"hello".to_vec(),
                b"b".to_vec(),
                b"a".to_vec(),
                b"d".to_vec(),
                b"c".to_vec()
            ]
        );
        proxy.shutdown();
    }

    #[test]
    fn reorder_held_frame_released_on_idle() {
        let proxy = ProxyNet::new(2, 6).unwrap();
        let dest = TcpListener::bind("127.0.0.1:0").unwrap();
        proxy.set_dest(1, dest.local_addr().unwrap());
        proxy.set_dup_reorder(0, 1, 0.0, 1.0);
        let mut up = TcpStream::connect(proxy.proxy_addr(0, 1)).unwrap();
        up.write_all(&frame(b"hello")).unwrap();
        up.write_all(&frame(b"tail")).unwrap();
        let (mut got, _) = dest.accept().unwrap();
        // No successor ever comes: the read-idle path must release the
        // held frame rather than turn reorder into loss.
        let frames = read_frames(&mut got, 2);
        assert_eq!(frames, vec![b"hello".to_vec(), b"tail".to_vec()]);
        proxy.shutdown();
    }

    #[test]
    fn kill_links_tears_down_connections() {
        let proxy = ProxyNet::new(2, 3).unwrap();
        let dest = TcpListener::bind("127.0.0.1:0").unwrap();
        proxy.set_dest(1, dest.local_addr().unwrap());
        let mut up = TcpStream::connect(proxy.proxy_addr(0, 1)).unwrap();
        up.write_all(&frame(b"x")).unwrap();
        let (_down, _) = dest.accept().unwrap();
        proxy.kill_links_of(1);
        assert!(proxy.drain_links_of(1, Duration::from_secs(5)));
        // The upstream socket is closed: writes eventually fail.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if up.write_all(&frame(b"y")).is_err() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "kill did not close the upstream socket"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        proxy.shutdown();
    }
}
