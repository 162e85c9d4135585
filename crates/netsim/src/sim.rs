//! The discrete-event simulation engine.

use crate::link::{LinkState, LinkStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::NetTopology;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Wire size of a message, used for serialization-delay modeling.
/// Implementations should include per-message framing overhead if they
/// want it modeled. `Clone` is required because the network may
/// duplicate a frame in flight (see
/// [`Simulation::set_link_dup_reorder`]) — anything on a wire is
/// copyable bytes.
pub trait MsgSize: Clone {
    /// Bytes this message occupies on the wire.
    fn wire_size(&self) -> usize;
}

/// Handle identifying a timer, as [`Actor::on_timer`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// A simulated WAN node. One actor instance runs per site; the engine
/// invokes its callbacks in virtual-time order.
pub trait Actor: Sized {
    /// The message type exchanged between actors.
    type Msg: MsgSize;

    /// Called once before the first event is processed.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// A message from `from` has arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: usize, msg: Self::Msg);

    /// A timer set via [`Ctx::set_timer`] has fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _timer: TimerId, _tag: u64) {}
}

/// Effects an actor can request during a callback; applied by the engine
/// after the callback returns.
enum Effect<M> {
    Send {
        to: usize,
        msg: M,
    },
    SetTimer {
        id: TimerId,
        delay: SimDuration,
        tag: u64,
    },
}

/// The per-callback context handed to actors: clock, identity, message
/// sending, timers, and a deterministic RNG.
pub struct Ctx<'a, M> {
    now: SimTime,
    me: usize,
    n: usize,
    effects: &'a mut Vec<Effect<M>>,
    rng: &'a mut SmallRng,
    next_timer: &'a mut u64,
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's site index.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Number of sites in the simulation.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Send `msg` to site `to`. Delivery experiences the link's queueing,
    /// serialization, and propagation delays; per-link delivery is FIFO.
    /// Messages to unreachable sites (no link, or link cut) are dropped.
    pub fn send(&mut self, to: usize, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Arrange for [`Actor::on_timer`] to fire after `delay` with `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::SetTimer { id, delay, tag });
        id
    }

    /// Deterministic per-simulation RNG for workload jitter.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Run `f` with this callback's context as seen by an embedded actor
    /// that speaks `N` where the links carry `M`: same clock, identity,
    /// RNG and timer-id sequence, and every message it sends leaves
    /// through this context as `wrap(msg)`, in the order it asked,
    /// behind whatever was requested here before the call.
    pub fn lens<N, R>(&mut self, wrap: impl Fn(N) -> M, f: impl FnOnce(&mut Ctx<'_, N>) -> R) -> R {
        let mut effects = Vec::new();
        let result = f(&mut Ctx {
            now: self.now,
            me: self.me,
            n: self.n,
            effects: &mut effects,
            rng: self.rng,
            next_timer: self.next_timer,
        });
        self.effects
            .extend(effects.into_iter().map(|eff| match eff {
                Effect::Send { to, msg } => Effect::Send { to, msg: wrap(msg) },
                Effect::SetTimer { id, delay, tag } => Effect::SetTimer { id, delay, tag },
            }));
        result
    }
}

enum EventKind<M> {
    Deliver {
        to: usize,
        from: usize,
        msg: M,
    },
    Fire {
        node: usize,
        timer: TimerId,
        tag: u64,
    },
}

/// Where a queued event's payload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Place {
    /// At the front of [`Link::lane`] of this link index.
    Lane(u32),
    /// In this slot of [`Simulation::slab`].
    Slot(u32),
}

/// A queued event as the heap sees it: ordered by `(time, seq)` — `seq`
/// is unique, so `at` never decides — with the payload kept
/// elsewhere, so a sift moves 24 bytes and not a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: SimTime,
    seq: u64,
    at: Place,
}

/// What the engine keeps per directed link `from -> to`, at index
/// `from * n + to`. The diagonal is a node's loopback: only its lane is
/// used.
struct Link<M> {
    state: LinkState,
    up: bool,
    loss: f64,
    /// Runtime extra one-way delay (delay skew).
    extra_delay: SimDuration,
    /// `(duplicate, reorder)` probabilities (chaos knobs; both 0 on a
    /// healthy link).
    dup_reorder: (f64, f64),
    /// Deliveries in flight on this link, sorted by `(time, seq)`; the
    /// front one, and only it, has an [`Event`] in the heap.
    lane: VecDeque<(SimTime, u64, M)>,
}

/// A deterministic discrete-event simulation of `n` actors connected by
/// the links of a [`NetTopology`].
///
/// # The event queue
///
/// Events run in `(time, seq)` order, `seq` being the order they were
/// scheduled in. A link's shaper hands out non-decreasing arrival
/// times, so a delivery is appended to its link's lane — a contiguous
/// FIFO, sorted because both keys only grow — and the heap holds one
/// entry per non-empty lane, for that lane's front. Whatever would
/// break a lane's order (a duplicate's primary, a reorder displacement,
/// a frame sent after [`Simulation::set_link_extra_delay`] shrank the
/// skew) and every timer is parked in the slab under a heap entry of
/// its own. Each lane yields its minimum and the heap the minimum of
/// those and of the slab's, so what pops is the minimum of everything
/// queued, whichever way an event was parked.
pub struct Simulation<A: Actor> {
    topo: NetTopology,
    actors: Vec<A>,
    links: Vec<Link<A::Msg>>,
    queue: BinaryHeap<Reverse<Event>>,
    /// Payloads of the queued events that are in no lane, indexed by
    /// [`Place::Slot`]; `None` marks a slot on `free_slots`.
    slab: Vec<Option<EventKind<A::Msg>>>,
    free_slots: Vec<u32>,
    /// Buffer the actor callbacks write their effects to, reused across
    /// events.
    effects: Vec<Effect<A::Msg>>,
    now: SimTime,
    seq: u64,
    next_timer: u64,
    dropped: u64,
    /// Optional per-node egress NIC model: `(bytes_per_sec, busy_until)`.
    egress: Vec<Option<(f64, SimTime)>>,
    rng: SmallRng,
}

impl<A: Actor> Simulation<A> {
    /// Create a simulation with one actor per topology site, then invoke
    /// every actor's [`Actor::on_start`].
    ///
    /// # Panics
    ///
    /// Panics if `actors.len() != topo.len()`.
    pub fn new(topo: NetTopology, actors: Vec<A>, seed: u64) -> Self {
        assert_eq!(actors.len(), topo.len(), "one actor per site required");
        let n = topo.len();
        assert!(n * n <= u32::MAX as usize, "a link's index fits an `Event`");
        let links = (0..n * n).map(|_| Link {
            state: LinkState::default(),
            up: true,
            loss: 0.0,
            extra_delay: SimDuration::ZERO,
            dup_reorder: (0.0, 0.0),
            lane: VecDeque::new(),
        });
        let mut sim = Simulation {
            topo,
            actors,
            links: links.collect(),
            queue: BinaryHeap::new(),
            slab: Vec::new(),
            free_slots: Vec::new(),
            effects: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            next_timer: 0,
            dropped: 0,
            egress: vec![None; n],
            rng: SmallRng::seed_from_u64(seed),
        };
        for i in 0..n {
            sim.dispatch(i, |a, ctx| a.on_start(ctx));
        }
        sim
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology this simulation runs over.
    pub fn topology(&self) -> &NetTopology {
        &self.topo
    }

    /// Immutable access to an actor (for assertions and measurement).
    pub fn actor(&self, i: usize) -> &A {
        &self.actors[i]
    }

    /// Mutable access to an actor *outside* the event loop (test setup).
    /// Effects cannot be issued here; use [`Simulation::with_ctx`] to
    /// interact with the network.
    pub fn actor_mut(&mut self, i: usize) -> &mut A {
        &mut self.actors[i]
    }

    /// Replace actor `i` wholesale — models a process crash + restart
    /// (the replacement typically rebuilds itself from a persisted
    /// snapshot). In-flight messages to the node still arrive and are
    /// handled by the replacement.
    pub fn replace_actor(&mut self, i: usize, actor: A) -> A {
        std::mem::replace(&mut self.actors[i], actor)
    }

    /// Run a closure against actor `i` with a full [`Ctx`] — the way
    /// external stimuli (client requests) enter the simulation.
    pub fn with_ctx<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>) -> R,
    ) -> R {
        self.dispatch(i, f)
    }

    fn link_mut(&mut self, a: usize, b: usize) -> &mut Link<A::Msg> {
        let n = self.topo.len();
        &mut self.links[a * n + b]
    }

    /// Statistics for the directed link `a -> b`.
    pub fn link_stats(&self, a: usize, b: usize) -> LinkStats {
        self.links[a * self.topo.len() + b].state.stats
    }

    /// Cut or restore the directed link `a -> b`. While down, messages
    /// sent over it are silently dropped (in-flight messages still
    /// arrive, as in a real partition).
    pub fn set_link_up(&mut self, a: usize, b: usize, up: bool) {
        self.link_mut(a, b).up = up;
    }

    /// Set an independent per-message loss probability on the directed
    /// link `a -> b` (deterministic given the simulation seed). Models a
    /// lossy datagram transport; Stabilizer's own reliability mechanism
    /// must recover (see `retransmit_millis`).
    pub fn set_link_loss(&mut self, a: usize, b: usize, probability: f64) {
        assert!((0.0..=1.0).contains(&probability), "probability in [0,1]");
        self.link_mut(a, b).loss = probability;
    }

    /// Cap node `a`'s total outgoing bandwidth (its NIC): messages to
    /// *all* peers share this serializer before entering their per-pair
    /// links. Off by default (per-pair links model the paper's `tc`
    /// setup, where the paper halves Table I throughputs precisely so
    /// the shared gigabit NIC never binds).
    pub fn set_egress_limit(&mut self, a: usize, bytes_per_sec: f64) {
        assert!(bytes_per_sec > 0.0);
        self.egress[a] = Some((
            bytes_per_sec,
            self.egress[a].map(|(_, b)| b).unwrap_or(SimTime::ZERO),
        ));
    }

    /// Add a runtime extra one-way delay on the directed link `a -> b`,
    /// on top of the topology's propagation delay — a `tc netem delay`
    /// change applied mid-run (route flap, congested backbone, skewed
    /// control plane). Messages already in flight keep their original
    /// arrival time, so *reducing* the skew can reorder across the change
    /// point, exactly as on a real route change; the per-link FIFO shaper
    /// still orders everything sent after the change.
    pub fn set_link_extra_delay(&mut self, a: usize, b: usize, extra: SimDuration) {
        self.link_mut(a, b).extra_delay = extra;
    }

    /// Corrupt the directed link `a -> b`: each message is independently
    /// duplicated with probability `dup` (the copy arrives strictly
    /// later) and displaced past the FIFO point with probability
    /// `reorder` (a later message may then overtake it). Both draws come
    /// from the simulation's seeded RNG, so runs stay deterministic.
    /// `(0.0, 0.0)` restores a healthy link.
    pub fn set_link_dup_reorder(&mut self, a: usize, b: usize, dup: f64, reorder: f64) {
        assert!((0.0..=1.0).contains(&dup), "dup probability in [0,1]");
        assert!(
            (0.0..=1.0).contains(&reorder),
            "reorder probability in [0,1]"
        );
        self.link_mut(a, b).dup_reorder = (dup, reorder);
    }

    /// Messages dropped due to cut or missing links, or injected loss.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Virtual time of the next queued event, if any — lets an external
    /// driver (e.g. a fault injector) interleave scheduled actions with
    /// the event loop at exact times without consuming the event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(ev)| ev.time)
    }

    /// Process the next event, if any. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some(mut top) = self.queue.peek_mut() else {
            return false;
        };
        let Event { time, at, .. } = top.0;
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        match at {
            Place::Lane(lane) => {
                let lane = lane as usize;
                let queued = &mut self.links[lane].lane;
                let (_, _, msg) = queued.pop_front().expect("a lane's head is in its lane");
                // The lane's next delivery takes the heap entry over.
                match queued.front() {
                    Some(&(time, seq, _)) => {
                        *top = Reverse(Event { time, seq, at });
                        drop(top);
                    }
                    None => drop(PeekMut::pop(top)),
                }
                let n = self.topo.len();
                self.dispatch(lane % n, |a, ctx| a.on_message(ctx, lane / n, msg));
            }
            Place::Slot(slot) => {
                PeekMut::pop(top);
                self.free_slots.push(slot);
                let kind = self.slab[slot as usize].take();
                match kind.expect("a queued event owns its slot") {
                    EventKind::Deliver { to, from, msg } => {
                        self.dispatch(to, |a, ctx| a.on_message(ctx, from, msg));
                    }
                    EventKind::Fire { node, timer, tag } => {
                        self.dispatch(node, |a, ctx| a.on_timer(ctx, timer, tag));
                    }
                }
            }
        }
        true
    }

    /// Run until the event queue is empty. Returns the number of events
    /// processed.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut n = 0;
        while self.step() {
            n += 1;
        }
        n
    }

    /// Process all events up to and including `deadline`, then advance the
    /// clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.next_event_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    /// Move the clock forward to `time`, which no queued event may
    /// precede, without running anything: a caller acts at an
    /// exact instant, before that instant's events run.
    pub fn advance_to(&mut self, time: SimTime) {
        debug_assert!(self.next_event_time().is_none_or(|t| time <= t));
        self.now = self.now.max(time);
    }

    /// Convenience: `run_until(now + d)`.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    fn dispatch<R>(&mut self, node: usize, f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>) -> R) -> R {
        // Taken, not borrowed: `apply` needs `&mut self`. It never
        // dispatches, so nothing else can want the buffer meanwhile.
        let mut effects = std::mem::take(&mut self.effects);
        let r = {
            let mut ctx = Ctx {
                now: self.now,
                me: node,
                n: self.topo.len(),
                effects: &mut effects,
                rng: &mut self.rng,
                next_timer: &mut self.next_timer,
            };
            f(&mut self.actors[node], &mut ctx)
        };
        for eff in effects.drain(..) {
            self.apply(node, eff);
        }
        self.effects = effects;
        r
    }

    fn apply(&mut self, from: usize, eff: Effect<A::Msg>) {
        use rand::Rng;
        match eff {
            Effect::Send { to, msg } => {
                let lane = from * self.topo.len() + to;
                if from == to {
                    // Local loopback: deliver immediately (next event).
                    self.deliver(lane, self.now, msg);
                    return;
                }
                let link = &mut self.links[lane];
                let Some(spec) = self.topo.link(from, to).filter(|_| link.up) else {
                    self.dropped += 1;
                    return;
                };
                if link.loss > 0.0 && self.rng.gen_bool(link.loss) {
                    self.dropped += 1;
                    return;
                }
                let size = msg.wire_size();
                // Shared NIC: serialize through the sender's egress
                // before the per-pair link.
                let link_clock = if let Some((bps, busy_until)) = self.egress[from] {
                    let start = busy_until.max(self.now);
                    let done = start + SimDuration::from_secs_f64(size as f64 / bps);
                    self.egress[from] = Some((bps, done));
                    done
                } else {
                    self.now
                };
                let jitter_ns = if spec.jitter > SimDuration::ZERO {
                    self.rng.gen_range(0..=spec.jitter.as_nanos())
                } else {
                    0
                };
                // Displacement bound for dup/reorder copies: roughly one
                // propagation delay, floored so zero-latency test links
                // still displace by a visible amount.
                let disp_bound = spec.one_way.as_nanos().max(1_000_000);
                let arrival = link
                    .state
                    .transmit_jittered(spec, link_clock, size, jitter_ns)
                    + link.extra_delay;
                let (dup_p, reorder_p) = link.dup_reorder;
                if dup_p <= 0.0 && reorder_p <= 0.0 {
                    self.deliver(lane, arrival, msg);
                    return;
                }
                // Corrupted link: the draws happen in a fixed order
                // (duplicate, then reorder) so replays stay bit-stable.
                let dup = dup_p > 0.0 && self.rng.gen_bool(dup_p);
                let reorder = reorder_p > 0.0 && self.rng.gen_bool(reorder_p);
                if dup {
                    let copy_at =
                        arrival + SimDuration::from_nanos(self.rng.gen_range(1..=disp_bound));
                    self.deliver(lane, copy_at, msg.clone());
                }
                // Reorder displaces the primary *past* the FIFO shaper's
                // clamp: the link's `last_arrival` keeps its un-displaced
                // value, so the next frame may legitimately overtake.
                let primary_at = if reorder {
                    arrival + SimDuration::from_nanos(self.rng.gen_range(1..=disp_bound))
                } else {
                    arrival
                };
                self.deliver(lane, primary_at, msg);
            }
            Effect::SetTimer { id, delay, tag } => {
                let (node, timer) = (from, id);
                self.park(self.now + delay, EventKind::Fire { node, timer, tag });
            }
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Queue `msg` to arrive over link index `lane` at `time`: in the
    /// lane when that keeps the lane sorted, else on its own.
    fn deliver(&mut self, lane: usize, time: SimTime, msg: A::Msg) {
        let tail = self.links[lane].lane.back().map(|&(tail, ..)| tail);
        if tail.is_some_and(|tail| time < tail) {
            let n = self.topo.len();
            let (to, from) = (lane % n, lane / n);
            return self.park(time, EventKind::Deliver { to, from, msg });
        }
        let seq = self.next_seq();
        if tail.is_none() {
            let at = Place::Lane(lane as u32);
            self.queue.push(Reverse(Event { time, seq, at }));
        }
        self.links[lane].lane.push_back((time, seq, msg));
    }

    /// Queue an event on its own: payload in the slab, entry in the heap.
    fn park(&mut self, time: SimTime, kind: EventKind<A::Msg>) {
        let seq = self.next_seq();
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                self.slab.push(None);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 events in flight")
            }
        };
        self.slab[slot as usize] = Some(kind);
        let at = Place::Slot(slot);
        self.queue.push(Reverse(Event { time, seq, at }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl MsgSize for Num {
        fn wire_size(&self) -> usize {
            100
        }
    }

    #[derive(Default)]
    struct Recorder {
        got: Vec<(SimTime, usize, u64)>,
        fired: Vec<(SimTime, u64)>,
        /// Message values and timer tags, in the order they ran.
        order: Vec<u64>,
    }
    impl Actor for Recorder {
        type Msg = Num;
        fn on_message(&mut self, ctx: &mut Ctx<'_, Num>, from: usize, msg: Num) {
            self.got.push((ctx.now(), from, msg.0));
            self.order.push(msg.0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Num>, _t: TimerId, tag: u64) {
            self.fired.push((ctx.now(), tag));
            self.order.push(tag);
        }
    }

    fn two_nodes(ms: u64) -> Simulation<Recorder> {
        let topo = NetTopology::full_mesh(2, SimDuration::from_millis(ms), f64::INFINITY);
        Simulation::new(topo, vec![Recorder::default(), Recorder::default()], 1)
    }

    #[test]
    fn message_arrives_after_latency() {
        let mut sim = two_nodes(10);
        sim.with_ctx(0, |_, ctx| ctx.send(1, Num(7)));
        sim.run_until_idle();
        assert_eq!(
            sim.actor(1).got,
            vec![(SimTime::ZERO + SimDuration::from_millis(10), 0, 7)]
        );
    }

    #[test]
    fn per_link_fifo_order_preserved() {
        let mut sim = two_nodes(10);
        sim.with_ctx(0, |_, ctx| {
            for i in 0..10 {
                ctx.send(1, Num(i));
            }
        });
        sim.run_until_idle();
        let seqs: Vec<u64> = sim.actor(1).got.iter().map(|(_, _, v)| *v).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bandwidth_serializes_messages() {
        let mut topo = NetTopology::new(&["a", "b"]);
        topo.set_symmetric(0, 1, LinkSpec::from_rtt_mbit(20.0, 8.0)); // 1 MB/s, 10ms
        let mut sim = Simulation::new(topo, vec![Recorder::default(), Recorder::default()], 1);
        sim.with_ctx(0, |_, ctx| {
            ctx.send(1, Num(0)); // 100 B => 0.1 ms tx
            ctx.send(1, Num(1));
        });
        sim.run_until_idle();
        let t0 = sim.actor(1).got[0].0;
        let t1 = sim.actor(1).got[1].0;
        assert_eq!(t0, SimTime::ZERO + SimDuration::from_micros(10_100));
        assert_eq!(t1, SimTime::ZERO + SimDuration::from_micros(10_200));
    }

    #[test]
    fn timers_fire_in_time_order() {
        let mut sim = two_nodes(1);
        sim.with_ctx(0, |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(5), 5);
            ctx.set_timer(SimDuration::from_millis(7), 7);
            ctx.set_timer(SimDuration::from_millis(3), 3);
        });
        sim.run_until_idle();
        let tags: Vec<u64> = sim.actor(0).fired.iter().map(|(_, t)| *t).collect();
        assert_eq!(tags, vec![3, 5, 7]);
    }

    #[test]
    fn lens_wraps_sends_in_order_and_shares_timer_ids() {
        // The embedded side speaks `u64`; the links carry `Num`.
        let mut sim = two_nodes(1);
        let (outer, inner) = sim.with_ctx(0, |_, ctx| {
            ctx.send(1, Num(0));
            let outer = ctx.set_timer(SimDuration::from_millis(2), 20);
            let inner = ctx.lens(Num, |sub: &mut Ctx<'_, u64>| {
                assert_eq!(
                    (sub.now(), sub.me(), sub.num_nodes()),
                    (SimTime::ZERO, 0, 2)
                );
                sub.send(1, 1);
                let inner = sub.set_timer(SimDuration::from_millis(3), 30);
                sub.send(1, 2);
                inner
            });
            ctx.send(1, Num(3));
            (outer, inner)
        });
        // Timer ids continue the outer sequence, inside and after.
        assert_eq!(inner, TimerId(outer.0 + 1));
        let after = sim.with_ctx(0, |_, ctx| ctx.set_timer(SimDuration::from_millis(5), 50));
        assert_eq!(after, TimerId(outer.0 + 2));
        sim.run_until_idle();
        let vals: Vec<u64> = sim.actor(1).got.iter().map(|g| g.2).collect();
        assert_eq!(vals, [0, 1, 2, 3], "wrapped, in the order asked");
        let tags: Vec<u64> = sim.actor(0).fired.iter().map(|(_, t)| *t).collect();
        assert_eq!(tags, [20, 30, 50]);
    }

    #[test]
    fn same_instant_events_pop_in_push_order_however_they_were_queued() {
        // A zero-latency link: a timer with no delay, a loopback send
        // and sends over the link all fall on one instant, and must run
        // in the order they were asked for — twice, so the second burst
        // lands in whatever storage the first one gave back.
        let mut sim = two_nodes(0);
        for base in [0, 1000] {
            sim.with_ctx(1, |_, ctx| {
                for i in 0..500 {
                    ctx.send(1, Num(base + 2 * i));
                    ctx.set_timer(SimDuration::ZERO, base + 2 * i + 1);
                }
            });
            sim.with_ctx(0, |_, ctx| {
                for i in 0..500 {
                    ctx.send(1, Num(base + i));
                }
            });
            let now = sim.now();
            sim.run_until_idle();
            assert_eq!(sim.now(), now, "all of it at one instant");
        }
        // Node 1 saw, per burst: its loopback sends interleaved with its
        // timers as it asked for them, then node 0's sends.
        let want: Vec<u64> = [0, 1000]
            .iter()
            .flat_map(|base| (*base..base + 1000).chain(*base..base + 500))
            .collect();
        assert_eq!(sim.actor(1).order, want);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = two_nodes(10);
        sim.with_ctx(0, |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(5), 1);
            ctx.set_timer(SimDuration::from_millis(50), 2);
        });
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(20));
        assert_eq!(sim.actor(0).fired.len(), 1);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(20));
        sim.run_until_idle();
        assert_eq!(sim.actor(0).fired.len(), 2);
    }

    #[test]
    fn cut_links_drop_messages() {
        let mut sim = two_nodes(10);
        sim.set_link_up(0, 1, false);
        sim.with_ctx(0, |_, ctx| ctx.send(1, Num(9)));
        sim.run_until_idle();
        assert!(sim.actor(1).got.is_empty());
        assert_eq!(sim.dropped(), 1);
        sim.set_link_up(0, 1, true);
        sim.with_ctx(0, |_, ctx| ctx.send(1, Num(10)));
        sim.run_until_idle();
        assert_eq!(sim.actor(1).got.len(), 1);
    }

    #[test]
    fn self_send_is_loopback() {
        let mut sim = two_nodes(10);
        sim.with_ctx(0, |_, ctx| ctx.send(0, Num(1)));
        sim.run_until_idle();
        assert_eq!(sim.actor(0).got.len(), 1);
        assert_eq!(sim.actor(0).got[0].0, SimTime::ZERO);
    }

    #[test]
    fn deterministic_event_ordering_is_stable() {
        // Two messages scheduled for the same instant deliver in send order.
        let mut sim = two_nodes(10);
        sim.with_ctx(0, |_, ctx| ctx.send(1, Num(1)));
        sim.with_ctx(1, |_, ctx| ctx.send(0, Num(2)));
        sim.run_until_idle();
        assert_eq!(sim.actor(1).got[0].2, 1);
        assert_eq!(sim.actor(0).got[0].2, 2);
    }

    #[test]
    fn jitter_preserves_fifo_and_stays_bounded() {
        let mut topo = NetTopology::new(&["a", "b"]);
        topo.set_symmetric(
            0,
            1,
            LinkSpec::delay_only(SimDuration::from_millis(10))
                .with_jitter(SimDuration::from_millis(5)),
        );
        let mut sim = Simulation::new(topo, vec![Recorder::default(), Recorder::default()], 9);
        // Spaced sends (gap > jitter) so each draw is visible; back-to-back
        // sends would be clamped to the running maximum by the FIFO rule.
        for i in 0..100u64 {
            sim.with_ctx(0, |_, ctx| {
                ctx.send(1, Num(i));
            });
            sim.run_for(SimDuration::from_millis(20));
        }
        sim.run_until_idle();
        let got = &sim.actor(1).got;
        assert_eq!(got.len(), 100);
        let vals: Vec<u64> = got.iter().map(|(_, _, v)| *v).collect();
        assert_eq!(vals, (0..100).collect::<Vec<_>>(), "jitter broke FIFO");
        // Each arrival lands within [10ms, 15ms] of its 20ms-grid send.
        let mut offsets = std::collections::HashSet::new();
        for (i, (t, _, _)) in got.iter().enumerate() {
            let off = t.as_millis_f64() - (i as f64) * 20.0;
            assert!((10.0..=15.0).contains(&off), "arrival offset {off}ms");
            offsets.insert((off * 1e6) as u64);
        }
        assert!(
            offsets.len() > 30,
            "jitter had no effect: {} distinct offsets",
            offsets.len()
        );
    }

    #[test]
    fn egress_limit_shares_bandwidth_across_peers() {
        // Three receivers behind fast per-pair links, but a 1 MB/s NIC
        // at the sender: 3 x 1 MB must take ~3 s total, not ~1 s.
        let mut topo = NetTopology::full_mesh(4, SimDuration::ZERO, 1e12);
        let _ = &mut topo;
        #[derive(Clone)]
        struct Big;
        impl MsgSize for Big {
            fn wire_size(&self) -> usize {
                1_000_000
            }
        }
        #[derive(Default)]
        struct Sink(Vec<SimTime>);
        impl Actor for Sink {
            type Msg = Big;
            fn on_message(&mut self, ctx: &mut Ctx<'_, Big>, _f: usize, _m: Big) {
                self.0.push(ctx.now());
            }
        }
        let actors = (0..4).map(|_| Sink::default()).collect();
        let mut sim = Simulation::new(topo, actors, 1);
        sim.set_egress_limit(0, 1_000_000.0);
        sim.with_ctx(0, |_, ctx| {
            for peer in 1..4 {
                ctx.send(peer, Big);
            }
        });
        sim.run_until_idle();
        let arrivals: Vec<f64> = (1..4).map(|i| sim.actor(i).0[0].as_secs_f64()).collect();
        let last = arrivals.iter().cloned().fold(0.0, f64::max);
        assert!(
            (2.9..3.1).contains(&last),
            "shared NIC not modeled: last at {last}s"
        );
        // Without the cap, all three would arrive at ~1 byte-time.
    }

    #[test]
    fn extra_delay_skews_one_direction_only() {
        let mut sim = two_nodes(10);
        sim.set_link_extra_delay(0, 1, SimDuration::from_millis(25));
        sim.with_ctx(0, |_, ctx| ctx.send(1, Num(1)));
        sim.with_ctx(1, |_, ctx| ctx.send(0, Num(2)));
        sim.run_until_idle();
        assert_eq!(
            sim.actor(1).got[0].0,
            SimTime::ZERO + SimDuration::from_millis(35),
            "forward direction must carry the skew"
        );
        assert_eq!(
            sim.actor(0).got[0].0,
            SimTime::ZERO + SimDuration::from_millis(10),
            "reverse direction must not"
        );
        // Clearing the skew restores the base latency.
        sim.set_link_extra_delay(0, 1, SimDuration::ZERO);
        let t0 = sim.now();
        sim.with_ctx(0, |_, ctx| ctx.send(1, Num(3)));
        sim.run_until_idle();
        assert_eq!(sim.actor(1).got[1].0, t0 + SimDuration::from_millis(10));
    }

    #[test]
    fn dup_reorder_duplicates_and_breaks_fifo() {
        // Certain duplication: one send, two deliveries, copy later.
        let mut sim = two_nodes(10);
        sim.set_link_dup_reorder(0, 1, 1.0, 0.0);
        sim.with_ctx(0, |_, ctx| ctx.send(1, Num(7)));
        sim.run_until_idle();
        let got = &sim.actor(1).got;
        assert_eq!(got.len(), 2, "frame must be duplicated");
        assert_eq!((got[0].2, got[1].2), (7, 7));
        assert!(got[1].0 > got[0].0, "the copy arrives strictly later");
        // The reverse direction is untouched.
        sim.with_ctx(1, |_, ctx| ctx.send(0, Num(1)));
        sim.run_until_idle();
        assert_eq!(sim.actor(0).got.len(), 1);

        // Heavy reordering breaks FIFO but loses nothing; clearing the
        // knob restores in-order delivery.
        let mut sim = two_nodes(10);
        sim.set_link_dup_reorder(0, 1, 0.0, 0.7);
        sim.with_ctx(0, |_, ctx| {
            for i in 0..50 {
                ctx.send(1, Num(i));
            }
        });
        sim.run_until_idle();
        let mut vals: Vec<u64> = sim.actor(1).got.iter().map(|(_, _, v)| *v).collect();
        assert_ne!(
            vals,
            (0..50).collect::<Vec<_>>(),
            "0.7 reorder on a 50-frame burst left FIFO intact"
        );
        vals.sort_unstable();
        assert_eq!(vals, (0..50).collect::<Vec<_>>(), "reorder must not lose");
        sim.set_link_dup_reorder(0, 1, 0.0, 0.0);
        let before = sim.actor(1).got.len();
        sim.with_ctx(0, |_, ctx| {
            for i in 100..110 {
                ctx.send(1, Num(i));
            }
        });
        sim.run_until_idle();
        let tail: Vec<u64> = sim.actor(1).got[before..]
            .iter()
            .map(|(_, _, v)| *v)
            .collect();
        assert_eq!(tail, (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn link_stats_accumulate() {
        let mut sim = two_nodes(10);
        sim.with_ctx(0, |_, ctx| {
            ctx.send(1, Num(1));
            ctx.send(1, Num(2));
        });
        sim.run_until_idle();
        let stats = sim.link_stats(0, 1);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 200);
    }
}
