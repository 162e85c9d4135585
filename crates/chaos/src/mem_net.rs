//! An in-memory network for the real TCP transport, in virtual time:
//! the [`Net`] the TCP chaos backend ([`crate::tcp_harness`]) spawns its
//! nodes on.
//!
//! Each node's unmodified I/O loop (`spawn_node_on`) lives in one
//! `netsim` actor, which turns it when a packet arrives or the loop's
//! next deadline comes. What a loop writes is cut into whole frames (the
//! transport's `u32` length prefix; bodies are never decoded), and each
//! frame travels as one simulator message, as does each connect, accept
//! and close. Everything runs on the simulator's clock and seeded RNG,
//! one event at a time, so a seed replays to the same trace.
//!
//! Faults act per directed link, where the sending actor hands a packet
//! to the simulator:
//!
//! - **down** ([`MemNet::set_link_up`]): packets are *held*, not
//!   dropped, and flow again in order on heal; a connect across a held
//!   link stays in flight until the heal or its 500 ms deadline, as a
//!   SYN would.
//! - **loss**: each frame is dropped with its probability. A dialed
//!   connection's first frame, the hello, is exempt, as is connection
//!   control: loss happens below TCP, and a lost hello would be a
//!   different fault (connection failure), already covered by down.
//! - **duplicate / reorder**: a duplicated frame is sent twice back to
//!   back; a reordered one is swapped past its successor, or released
//!   once the sender goes idle. Nothing is lost; the hello is exempt.
//! - **rate** and **delay**: the simulator's egress shaper and extra
//!   one-way delay; per-link FIFO holds.
//! - **kill** ([`MemNet::kill_links_of`]): a crash. The node's loop is
//!   dropped, its connections close at both ends at once, and what its
//!   links held is discarded: nothing the dead incarnation wrote reaches
//!   a peer afterwards.

use bytes::Bytes;
use rand::Rng;
use stabilizer_core::NodeId;
use stabilizer_netsim::{
    Actor, Ctx, MsgSize, NetTopology, SimDuration, SimTime, Simulation, TimerId,
};
use stabilizer_transport::{Clock, Net, NodeLoop};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::rc::Rc;
use std::time::Duration;

/// One-way latency of every link: a loopback's order of magnitude.
const ONE_WAY: SimDuration = SimDuration(100_000);
/// What a packet's headers add on the wire.
const HEADERS: usize = 40;

/// What travels between two endpoints, for connection `id`.
#[derive(Clone, Debug)]
pub enum Packet {
    /// Open the connection (a SYN).
    Open(u64),
    /// The connection is accepted (a SYN-ACK).
    Accepted(u64),
    /// The connection is gone, or unknown where this arrived.
    Closed(u64),
    /// One frame, length prefix included.
    Frame(u64, Bytes),
}

impl MsgSize for Packet {
    fn wire_size(&self) -> usize {
        match self {
            Packet::Frame(_, bytes) => HEADERS + bytes.len(),
            _ => HEADERS,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Connecting,
    Up,
    Closed,
}

/// One end of a connection.
struct Pipe {
    id: u64,
    peer: usize,
    /// This end dialed: it writes, and its first frame is the hello.
    dialed: bool,
    state: State,
    /// A connect was decided and the loop has not asked how yet.
    decided: bool,
    /// Bytes arrived and not yet read.
    inbound: VecDeque<u8>,
    /// Bytes written and not yet cut into frames.
    outbound: Vec<u8>,
    frames_sent: u64,
}

impl Pipe {
    /// What the loop waits on: a decided connect, or an accepted
    /// connection with bytes or a close to read.
    fn ready(&self) -> bool {
        self.decided || (!self.dialed && (!self.inbound.is_empty() || self.state == State::Closed))
    }
}

/// A connection as the loop holds it.
pub struct MemConn(Rc<RefCell<Pipe>>);

impl Read for MemConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut pipe = self.0.borrow_mut();
        match (pipe.inbound.is_empty(), pipe.state) {
            (false, _) => pipe.inbound.read(buf),
            (true, State::Closed) => Ok(0),
            (true, _) => Err(ErrorKind::WouldBlock.into()),
        }
    }
}

impl Write for MemConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut pipe = self.0.borrow_mut();
        match pipe.state {
            State::Up => pipe.outbound.extend_from_slice(buf),
            State::Connecting => return Err(ErrorKind::WouldBlock.into()),
            State::Closed => return Err(ErrorKind::BrokenPipe.into()),
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One node incarnation's side of the [`MemNet`]: the [`Net`] its loop
/// runs on.
pub struct MemEndpoint {
    me: usize,
    n: usize,
    clock: Clock,
    /// Every connection, in the order it was made.
    conns: Vec<Rc<RefCell<Pipe>>>,
    accepts: VecDeque<Rc<RefCell<Pipe>>>,
    /// The id of the next connection dialed, unique across the net.
    next: u64,
    /// Connection control to send, in order.
    control: Vec<(usize, Packet)>,
    /// Readiness of the last wait's interest.
    ready: Vec<bool>,
}

impl MemEndpoint {
    fn open(&mut self, id: u64, peer: usize, dialed: bool) -> Rc<RefCell<Pipe>> {
        let pipe = Rc::new(RefCell::new(Pipe {
            id,
            peer,
            dialed,
            state: if dialed { State::Connecting } else { State::Up },
            decided: false,
            inbound: VecDeque::new(),
            outbound: Vec::new(),
            frames_sent: 0,
        }));
        self.conns.push(Rc::clone(&pipe));
        pipe
    }

    /// Take in a packet from `from`.
    fn receive(&mut self, from: usize, packet: Packet) {
        let id = match &packet {
            Packet::Open(id) => {
                let pipe = self.open(*id, from, false);
                self.accepts.push_back(pipe);
                return self.control.push((from, Packet::Accepted(*id)));
            }
            Packet::Accepted(id) | Packet::Closed(id) | Packet::Frame(id, _) => *id,
        };
        let Some(pipe) = self.conns.iter().find(|pipe| pipe.borrow().id == id) else {
            if !matches!(packet, Packet::Closed(_)) {
                self.control.push((from, Packet::Closed(id)));
            }
            return;
        };
        let mut pipe = pipe.borrow_mut();
        pipe.decided |= pipe.state == State::Connecting;
        match packet {
            Packet::Accepted(_) if pipe.state == State::Connecting => pipe.state = State::Up,
            Packet::Closed(_) => pipe.state = State::Closed,
            // A closed connection takes nothing more, as after a reset.
            Packet::Frame(_, bytes) if pipe.state == State::Up => pipe.inbound.extend(&bytes[..]),
            _ => {}
        }
    }

    /// Whether a wait would find anything ready.
    fn ready_now(&self) -> bool {
        // A connection only `conns` holds is one the loop dropped.
        let ready = |pipe: &Rc<RefCell<Pipe>>| Rc::strong_count(pipe) > 1 && pipe.borrow().ready();
        !self.accepts.is_empty() || self.conns.iter().any(ready)
    }

    /// Everything to send, in order, each with whether faults pass it
    /// by: control, then each connection's whole frames (the hello
    /// exempt) and a close if the loop dropped it.
    fn drain(&mut self, out: &mut Vec<(usize, Packet, bool)>) {
        out.extend(self.control.drain(..).map(|(to, p)| (to, p, true)));
        self.conns.retain(|pipe| {
            let dropped = Rc::strong_count(pipe) == 1;
            let mut pipe = pipe.borrow_mut();
            let mut at = 0;
            while let Some(head) = pipe.outbound.get(at..at + 4) {
                let len = 4 + u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
                let Some(frame) = pipe.outbound.get(at..at + len) else {
                    break;
                };
                let packet = Packet::Frame(pipe.id, Bytes::copy_from_slice(frame));
                out.push((pipe.peer, packet, pipe.frames_sent == 0));
                pipe.frames_sent += 1;
                at += len;
            }
            pipe.outbound.drain(..at);
            if dropped && pipe.state != State::Closed {
                out.push((pipe.peer, Packet::Closed(pipe.id), true));
            }
            !dropped
        });
    }

    /// Close every connection with `peer`, at once and silently.
    fn kill(&mut self, peer: usize) {
        for pipe in &self.conns {
            let mut pipe = pipe.borrow_mut();
            if pipe.peer == peer {
                pipe.decided |= pipe.state == State::Connecting;
                pipe.state = State::Closed;
            }
        }
        self.accepts.retain(|pipe| pipe.borrow().peer != peer);
    }
}

impl Net for MemEndpoint {
    type Conn = MemConn;

    fn clock(&self) -> Clock {
        self.clock.clone()
    }

    fn peers(&self) -> Vec<NodeId> {
        let me = self.me;
        let others = (0..self.n).filter(|&j| j != me);
        others.map(|j| NodeId(j as u16)).collect()
    }

    fn dial(&mut self, peer: NodeId) -> io::Result<MemConn> {
        let (id, peer) = (self.next, peer.0 as usize);
        self.next += 1;
        self.control.push((peer, Packet::Open(id)));
        Ok(MemConn(self.open(id, peer, true)))
    }

    fn established(&mut self, conn: &MemConn) -> io::Result<()> {
        let mut pipe = conn.0.borrow_mut();
        pipe.decided = false;
        match pipe.state {
            State::Up => Ok(()),
            _ => Err(ErrorKind::ConnectionRefused.into()),
        }
    }

    fn accept(&mut self) -> Option<MemConn> {
        self.accepts.pop_front().map(MemConn)
    }

    fn close_write(&mut self, conn: &MemConn) {
        let mut pipe = conn.0.borrow_mut();
        if pipe.state != State::Closed {
            pipe.state = State::Closed;
            self.control.push((pipe.peer, Packet::Closed(pipe.id)));
        }
    }

    /// Never blocks: its actor turns the loop when something arrives
    /// or its deadline comes. A write never blocks either.
    fn wait<'a>(
        &mut self,
        interest: impl Iterator<Item = (&'a MemConn, bool)>,
        _timeout: Option<Duration>,
    ) -> bool {
        self.ready.clear();
        let ready = interest.map(|(conn, _)| conn.0.borrow().ready());
        self.ready.extend(ready);
        !self.accepts.is_empty()
    }

    fn ready(&self, i: usize) -> bool {
        self.ready.get(i).copied().unwrap_or(false)
    }
}

/// The fault state of one directed link, kept by its sending actor.
#[derive(Default)]
pub(crate) struct LinkFaults {
    down: bool,
    pub(crate) loss: f64,
    pub(crate) dup: f64,
    pub(crate) reorder: f64,
    /// Packets waiting for the link to come up, in order.
    held: VecDeque<Packet>,
    /// A frame held back to be swapped past its successor.
    swapped: Option<Packet>,
}

impl LinkFaults {
    /// Put `packet` on the link to `to`; `exempt` passes it by loss,
    /// duplication and reordering. True when loss dropped it.
    fn transmit(
        &mut self,
        ctx: &mut Ctx<'_, Packet>,
        to: usize,
        packet: Packet,
        exempt: bool,
    ) -> bool {
        let mut coin = |p: f64| !exempt && p > 0.0 && ctx.rng().gen_bool(p);
        if coin(self.loss) {
            return true;
        }
        if self.swapped.is_none() && coin(self.reorder) {
            self.swapped = Some(packet);
            return false;
        }
        if coin(self.dup) {
            self.send(ctx, to, packet.clone());
        }
        // A swapped frame follows its successor, and never goes behind
        // control of its connection.
        let swapped = self.swapped.take();
        if exempt {
            swapped
                .into_iter()
                .for_each(|frame| self.send(ctx, to, frame));
            self.send(ctx, to, packet);
        } else {
            self.send(ctx, to, packet);
            swapped
                .into_iter()
                .for_each(|frame| self.send(ctx, to, frame));
        }
        false
    }

    /// Send `packet` now if the link is up, else hold it.
    fn send(&mut self, ctx: &mut Ctx<'_, Packet>, to: usize, packet: Packet) {
        match self.down {
            false => ctx.send(to, packet),
            true => self.held.push_back(packet),
        }
    }
}

/// One node of the net: its current incarnation's loop (none while
/// crashed) and its outgoing links' faults, which outlive every
/// incarnation.
pub struct MemNode {
    io: Option<NodeLoop<MemEndpoint>>,
    links: Vec<LinkFaults>,
    clock: Clock,
    /// When the loop's next turn is armed for.
    armed: Option<SimTime>,
    /// Frames dropped by loss.
    dropped: u64,
    /// Scratch: what a turn sends.
    out: Vec<(usize, Packet, bool)>,
}

impl MemNode {
    /// Turn the loop until it has nothing left to do now, send what it
    /// wrote, and arm a timer for its next deadline.
    fn pump(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.clock.set(ctx.now().as_nanos());
        let Some(io) = &mut self.io else {
            return;
        };
        loop {
            let running = io.turn();
            io.net_mut().drain(&mut self.out);
            for (to, packet, exempt) in self.out.drain(..) {
                let lost = self.links[to].transmit(ctx, to, packet, exempt);
                self.dropped += u64::from(lost);
            }
            if !running || (io.due_in() != Some(Duration::ZERO) && !io.net_mut().ready_now()) {
                break;
            }
        }
        // Idle: nothing comes right behind a swapped frame.
        for (to, link) in self.links.iter_mut().enumerate() {
            if let Some(frame) = link.swapped.take() {
                link.send(ctx, to, frame);
            }
        }
        if let Some(due) = io.due_in() {
            let due = SimDuration::from_nanos(due.as_nanos() as u64);
            if self.armed.is_none_or(|armed| ctx.now() + due < armed) {
                ctx.set_timer(due, 0);
                self.armed = Some(ctx.now() + due);
            }
        }
    }
}

impl Actor for MemNode {
    type Msg = Packet;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, from: usize, packet: Packet) {
        match (&mut self.io, packet) {
            (Some(io), packet) => io.net_mut().receive(from, packet),
            // Nobody listens: refuse what asks for an answer.
            (None, Packet::Closed(_)) => {}
            (None, Packet::Open(id) | Packet::Accepted(id) | Packet::Frame(id, _)) => {
                self.links[from].transmit(ctx, from, Packet::Closed(id), true);
            }
        }
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, _timer: TimerId, _tag: u64) {
        if self.armed == Some(ctx.now()) {
            self.armed = None;
        }
        self.pump(ctx);
    }
}

/// `n` nodes on one simulator, and the one clock they read. See the
/// module doc.
pub struct MemNet {
    pub(crate) sim: Simulation<MemNode>,
    clock: Clock,
    /// Endpoints made so far: the high bits of their connection ids.
    endpoints: u64,
}

impl MemNet {
    /// A net of `n` nodes, no loop attached yet, drawing every fault
    /// from `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        let clock = Clock::driven();
        let nodes = (0..n).map(|_| MemNode {
            io: None,
            links: (0..n).map(|_| LinkFaults::default()).collect(),
            clock: clock.clone(),
            armed: None,
            dropped: 0,
            out: Vec::new(),
        });
        let topo = NetTopology::full_mesh(n, ONE_WAY, 1e9);
        let sim = Simulation::new(topo, nodes.collect(), seed);
        MemNet {
            sim,
            clock,
            endpoints: 0,
        }
    }

    /// Move the clock on to `time`, which no event precedes, and bring
    /// every node's clock to it: before a call into a node from outside
    /// the event loop.
    pub fn sync_clock(&mut self, time: SimTime) {
        self.sim.advance_to(time);
        self.clock.set(self.sim.now().as_nanos());
    }

    /// A fresh endpoint for `node`'s next incarnation, to spawn it on.
    pub fn endpoint(&mut self, node: usize) -> MemEndpoint {
        self.endpoints += 1;
        MemEndpoint {
            me: node,
            n: self.sim.topology().len(),
            clock: self.clock.clone(),
            conns: Vec::new(),
            accepts: VecDeque::new(),
            next: self.endpoints << 32,
            control: Vec::new(),
            ready: Vec::new(),
        }
    }

    /// Run `io` as `node`'s current incarnation, and turn it.
    pub fn attach(&mut self, node: usize, io: NodeLoop<MemEndpoint>) {
        self.sim.actor_mut(node).io = Some(io);
        self.pump(node);
    }

    /// Turn `node`'s loop now: after a call into it from outside.
    pub fn pump(&mut self, node: usize) {
        self.sim.with_ctx(node, |actor, ctx| actor.pump(ctx));
    }

    /// The crash primitive: drop `node`'s loop, close every connection
    /// it had at both ends, and discard what its links held, both ways.
    pub fn kill_links_of(&mut self, node: usize) {
        self.sim.actor_mut(node).io = None;
        for other in 0..self.sim.topology().len() {
            let actor = self.sim.actor_mut(other);
            for (to, link) in actor.links.iter_mut().enumerate() {
                if other == node || to == node {
                    (link.held, link.swapped) = (VecDeque::new(), None);
                }
            }
            let Some(io) = &mut actor.io else {
                continue;
            };
            io.net_mut().kill(node);
            // The peer sees the close at once, as a reset would show.
            self.pump(other);
        }
    }

    /// Pass (`true`) or hold (`false`) traffic on `from -> to`.
    pub fn set_link_up(&mut self, from: usize, to: usize, up: bool) {
        self.sim.with_ctx(from, |actor, ctx| {
            let link = &mut actor.links[to];
            link.down = !up;
            for packet in std::mem::take(&mut link.held) {
                link.send(ctx, to, packet);
            }
        });
    }

    /// The faults of `from -> to`.
    pub(crate) fn faults(&mut self, from: usize, to: usize) -> &mut LinkFaults {
        &mut self.sim.actor_mut(from).links[to]
    }

    /// Frames dropped by injected loss, all links.
    pub fn dropped(&self) -> u64 {
        let n = self.sim.topology().len();
        (0..n).map(|i| self.sim.actor(i).dropped).sum()
    }
}
