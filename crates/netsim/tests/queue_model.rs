//! The event queue against its specification: events run in
//! `(time, order scheduled)` order. [`Model`] is that sentence as code —
//! one `BinaryHeap` holding every event — with the link arithmetic and
//! the RNG draws of `Simulation::apply` repeated beside it; both are
//! played the same random schedule (bursts over jittered links of
//! different latency, loopback sends, timers, frames that are passed on
//! and arm timers from inside a callback, and one fault raised and
//! cleared mid-run) and must see the same frames and timers at the same
//! times in the same order.
//!
//! However `Simulation` stores what it has queued, a healthy link hands
//! it non-decreasing arrival times and the faults do not; each fault
//! class therefore also asserts that its schedule made a frame overtake
//! one scheduled before it on the same link, so a case cannot pass by
//! only ever queueing in order.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stabilizer_netsim::link::LinkState;
use stabilizer_netsim::{
    Actor, Ctx, LinkSpec, MsgSize, NetTopology, SimDuration, SimTime, Simulation, TimerId,
};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Frame {
    id: u64,
    /// Nodes still to be passed on to.
    hops: u8,
    size: usize,
}

impl MsgSize for Frame {
    fn wire_size(&self) -> usize {
        self.size
    }
}

/// One callback, as the node that ran it saw it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Seen {
    Frame {
        at: SimTime,
        from: usize,
        to: usize,
        frame: Frame,
    },
    Timer {
        at: SimTime,
        node: usize,
        tag: u64,
    },
}

/// What a node does with a frame, inside the callback.
struct Reaction {
    /// Sent on to this node, while the frame has hops left.
    pass_on: Option<(usize, Frame)>,
    /// Armed, with this delay and tag, for every third id.
    timer: Option<(SimDuration, u64)>,
}

fn react(me: usize, n: usize, frame: &Frame) -> Reaction {
    let pass_on = (frame.hops > 0).then(|| {
        let hops = frame.hops - 1;
        let next = Frame {
            hops,
            ..frame.clone()
        };
        ((me + 1) % n, next)
    });
    let delay = SimDuration::from_micros(frame.id % 7 * 500);
    let timer = frame.id.is_multiple_of(3).then_some((delay, frame.id));
    Reaction { pass_on, timer }
}

/// What a schedule is played to.
trait Net {
    fn send(&mut self, from: usize, to: usize, frame: Frame);
    fn set_timer(&mut self, node: usize, delay: SimDuration, tag: u64);
    fn set_dup_reorder(&mut self, a: usize, b: usize, dup: f64, reorder: f64);
    fn set_extra_delay(&mut self, a: usize, b: usize, extra: SimDuration);
    fn run_for(&mut self, d: SimDuration);
    fn run_until_idle(&mut self);
}

struct Node(Rc<RefCell<Vec<Seen>>>);

impl Actor for Node {
    type Msg = Frame;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Frame>, from: usize, frame: Frame) {
        let (at, to) = (ctx.now(), ctx.me());
        let Reaction { pass_on, timer } = react(to, ctx.num_nodes(), &frame);
        self.0.borrow_mut().push(Seen::Frame {
            at,
            from,
            to,
            frame,
        });
        if let Some((next, frame)) = pass_on {
            ctx.send(next, frame);
        }
        if let Some((delay, tag)) = timer {
            ctx.set_timer(delay, tag);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Frame>, _timer: TimerId, tag: u64) {
        let (at, node) = (ctx.now(), ctx.me());
        self.0.borrow_mut().push(Seen::Timer { at, node, tag });
    }
}

impl Net for Simulation<Node> {
    fn send(&mut self, from: usize, to: usize, frame: Frame) {
        self.with_ctx(from, |_, ctx| ctx.send(to, frame));
    }
    fn set_timer(&mut self, node: usize, delay: SimDuration, tag: u64) {
        self.with_ctx(node, |_, ctx| ctx.set_timer(delay, tag));
    }
    fn set_dup_reorder(&mut self, a: usize, b: usize, dup: f64, reorder: f64) {
        self.set_link_dup_reorder(a, b, dup, reorder);
    }
    fn set_extra_delay(&mut self, a: usize, b: usize, extra: SimDuration) {
        self.set_link_extra_delay(a, b, extra);
    }
    fn run_for(&mut self, d: SimDuration) {
        Simulation::run_for(self, d);
    }
    fn run_until_idle(&mut self) {
        Simulation::run_until_idle(self);
    }
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Queued {
    Frame {
        from: usize,
        to: usize,
        frame: Frame,
    },
    Timer {
        node: usize,
        tag: u64,
    },
}

#[derive(Default)]
struct ModelLink {
    state: LinkState,
    extra_delay: SimDuration,
    dup_reorder: (f64, f64),
    /// Scheduling order of the last frame this link delivered.
    last_delivered: u64,
}

/// The reference: every event in one heap, keyed by `(time, order
/// scheduled)`.
struct Model {
    net: NetTopology,
    links: Vec<ModelLink>,
    heap: BinaryHeap<Reverse<(SimTime, u64, Queued)>>,
    scheduled: u64,
    now: SimTime,
    rng: SmallRng,
    seen: Vec<Seen>,
    /// Frames delivered ahead of one scheduled before them on the same
    /// link.
    overtakes: u64,
}

impl Model {
    fn new(net: NetTopology, seed: u64) -> Self {
        let n = net.len();
        Model {
            net,
            links: (0..n * n).map(|_| ModelLink::default()).collect(),
            heap: BinaryHeap::new(),
            scheduled: 0,
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            seen: Vec::new(),
            overtakes: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, what: Queued) {
        self.scheduled += 1;
        self.heap.push(Reverse((at, self.scheduled, what)));
    }

    fn run_while(&mut self, due: impl Fn(SimTime) -> bool) {
        while self.heap.peek().is_some_and(|Reverse((at, ..))| due(*at)) {
            let Reverse((at, order, what)) = self.heap.pop().unwrap();
            self.now = at;
            match what {
                Queued::Frame { from, to, frame } => {
                    let link = &mut self.links[from * self.net.len() + to];
                    self.overtakes += u64::from(order < link.last_delivered);
                    link.last_delivered = link.last_delivered.max(order);
                    let Reaction { pass_on, timer } = react(to, self.net.len(), &frame);
                    self.seen.push(Seen::Frame {
                        at,
                        from,
                        to,
                        frame,
                    });
                    if let Some((next, frame)) = pass_on {
                        self.send(to, next, frame);
                    }
                    if let Some((delay, tag)) = timer {
                        self.set_timer(to, delay, tag);
                    }
                }
                Queued::Timer { node, tag } => self.seen.push(Seen::Timer { at, node, tag }),
            }
        }
    }
}

impl Net for Model {
    /// `Simulation::apply`'s `Send` on links that are up, lossless and
    /// behind no egress cap: the same arithmetic, the same draws in the
    /// same order.
    fn send(&mut self, from: usize, to: usize, frame: Frame) {
        if from == to {
            return self.schedule(self.now, Queued::Frame { from, to, frame });
        }
        let spec = *self.net.link(from, to).expect("a full mesh");
        let link = &mut self.links[from * self.net.len() + to];
        let jitter_ns = if spec.jitter > SimDuration::ZERO {
            self.rng.gen_range(0..=spec.jitter.as_nanos())
        } else {
            0
        };
        let bound = spec.one_way.as_nanos().max(1_000_000);
        let arrival = link
            .state
            .transmit_jittered(&spec, self.now, frame.size, jitter_ns)
            + link.extra_delay;
        let (dup_p, reorder_p) = link.dup_reorder;
        let dup = dup_p > 0.0 && self.rng.gen_bool(dup_p);
        let reorder = reorder_p > 0.0 && self.rng.gen_bool(reorder_p);
        let displaced =
            |rng: &mut SmallRng| arrival + SimDuration::from_nanos(rng.gen_range(1..=bound));
        if dup {
            let (at, frame) = (displaced(&mut self.rng), frame.clone());
            self.schedule(at, Queued::Frame { from, to, frame });
        }
        let at = if reorder {
            displaced(&mut self.rng)
        } else {
            arrival
        };
        self.schedule(at, Queued::Frame { from, to, frame });
    }
    fn set_timer(&mut self, node: usize, delay: SimDuration, tag: u64) {
        self.schedule(self.now + delay, Queued::Timer { node, tag });
    }
    fn set_dup_reorder(&mut self, a: usize, b: usize, dup: f64, reorder: f64) {
        self.links[a * self.net.len() + b].dup_reorder = (dup, reorder);
    }
    fn set_extra_delay(&mut self, a: usize, b: usize, extra: SimDuration) {
        self.links[a * self.net.len() + b].extra_delay = extra;
    }
    fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_while(|at| at <= deadline);
        self.now = deadline;
    }
    fn run_until_idle(&mut self) {
        self.run_while(|_| true);
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// `count` frames of `size` bytes, each passed on `hops` times;
    /// `to == from` is a loopback send.
    Burst {
        from: usize,
        to: usize,
        count: u64,
        size: usize,
        hops: u8,
    },
    Timer {
        node: usize,
        delay_us: u64,
    },
}

/// What goes wrong on link `0 -> 1` from phase 1 on, until phase 2 has
/// run.
#[derive(Debug, Clone, Copy)]
enum Fault {
    DupReorder {
        dup: f64,
        reorder: f64,
    },
    /// The skew is raised, then dropped again after phase 1.
    DelayRaisedThenDropped {
        extra_ms: u64,
    },
}

#[derive(Debug, Clone)]
struct Case {
    n: usize,
    seed: u64,
    jitter_us: u64,
    /// Per phase: what is asked for at its start, and how long the
    /// network then runs (shorter than any skew a fault raises).
    phases: Vec<(Vec<Op>, u64)>,
    fault: Fault,
}

fn arb_case(fault: impl Strategy<Value = Fault> + 'static) -> impl Strategy<Value = Case> {
    (3usize..=5, fault).prop_flat_map(|(n, fault)| {
        let op = prop_oneof![
            3 => (0..n, 0..n, 1u64..40, 64usize..4096, 0u8..3)
                .prop_map(|(from, to, count, size, hops)| Op::Burst { from, to, count, size, hops }),
            1 => (0..n, 0u64..20_000).prop_map(|(node, delay_us)| Op::Timer { node, delay_us }),
        ];
        let phase = (proptest::collection::vec(op, 0..5), 0u64..5_000);
        (0u64..1_000, 1u64..3_000, proptest::collection::vec(phase, 4..8), Just(fault))
            .prop_map(move |(seed, jitter_us, phases, fault)| Case { n, seed, jitter_us, phases, fault })
    })
}

fn topology(case: &Case) -> NetTopology {
    let mut net = NetTopology::full_mesh(case.n, SimDuration::ZERO, 1e12);
    for a in 0..case.n {
        for b in (0..case.n).filter(|b| *b != a) {
            // A different latency and rate per directed link.
            let skew = (a * case.n + b) as f64;
            let spec = LinkSpec::from_rtt_mbit(4.0 + skew, 20.0 + 10.0 * skew);
            net.set_link(
                a,
                b,
                spec.with_jitter(SimDuration::from_micros(case.jitter_us)),
            );
        }
    }
    net
}

fn play(net: &mut impl Net, case: &Case) {
    let mut id = 0;
    let mut burst = |net: &mut dyn Net, from, to, count, size, hops| {
        for _ in 0..count {
            id += 1;
            net.send(from, to, Frame { id, hops, size });
        }
    };
    for (phase, (ops, run_us)) in case.phases.iter().enumerate() {
        match (phase, case.fault) {
            (1, Fault::DupReorder { dup, reorder }) => net.set_dup_reorder(0, 1, dup, reorder),
            (3, Fault::DupReorder { .. }) => net.set_dup_reorder(0, 1, 0.0, 0.0),
            (1, Fault::DelayRaisedThenDropped { extra_ms }) => {
                net.set_extra_delay(0, 1, SimDuration::from_millis(extra_ms));
            }
            (2, Fault::DelayRaisedThenDropped { .. }) => {
                net.set_extra_delay(0, 1, SimDuration::ZERO)
            }
            _ => {}
        }
        // The faulted link carries traffic while the fault is on and
        // right after it clears, whatever else the phase asks for.
        if phase == 1 || phase == 2 {
            burst(net, 0, 1, 40, 200, 1);
        }
        for op in ops {
            match *op {
                Op::Burst {
                    from,
                    to,
                    count,
                    size,
                    hops,
                } => burst(net, from, to, count, size, hops),
                Op::Timer { node, delay_us } => {
                    net.set_timer(
                        node,
                        SimDuration::from_micros(delay_us),
                        u64::MAX - delay_us,
                    );
                }
            }
        }
        net.run_for(SimDuration::from_micros(*run_us));
    }
    net.run_until_idle();
}

fn matches_the_model(case: &Case) -> Result<(), TestCaseError> {
    let mut model = Model::new(topology(case), case.seed);
    play(&mut model, case);
    prop_assert!(
        model.overtakes > 0,
        "the schedule never left scheduling order on a link"
    );

    let seen = Rc::new(RefCell::new(Vec::new()));
    let actors = (0..case.n).map(|_| Node(Rc::clone(&seen))).collect();
    let mut sim = Simulation::new(topology(case), actors, case.seed);
    play(&mut sim, case);
    let seen = seen.borrow();
    // The first difference says more than two thousand-entry vectors.
    let first_difference = seen.iter().zip(&model.seen).position(|(a, b)| a != b);
    if let Some(i) = first_difference {
        prop_assert_eq!(
            &seen[i],
            &model.seen[i],
            "callback {} of {}",
            i,
            model.seen.len()
        );
    }
    prop_assert_eq!(seen.len(), model.seen.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn duplicated_and_reordered_frames_run_in_the_models_order(
        case in arb_case(
            (prop_oneof![Just(0.0), 0.3f64..1.0], prop_oneof![Just(0.0), 0.3f64..1.0])
                .prop_filter("a fault", |(dup, reorder)| dup + reorder > 0.0)
                .prop_map(|(dup, reorder)| Fault::DupReorder { dup, reorder })
        )
    ) {
        matches_the_model(&case)?;
    }

    #[test]
    fn frames_sent_after_a_skew_dropped_run_in_the_models_order(
        case in arb_case((10u64..40).prop_map(|extra_ms| Fault::DelayRaisedThenDropped { extra_ms }))
    ) {
        matches_the_model(&case)?;
    }
}
