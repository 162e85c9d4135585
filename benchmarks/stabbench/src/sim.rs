//! `sim8-ctrl`: the paper's 8-node EC2 deployment in virtual time, all
//! eight nodes publishing open-loop. No sockets, and a simulation runs
//! on one thread: wall time is protocol core + DSL VM + netsim CPU,
//! dominated by the control plane (ACK fan-out × frontier scan). Latency
//! and every count are exact under the seed.
//!
//! A run is rounds of the same fixed work on a fresh cluster, as many as
//! fit in `--seconds` (at least two). Every round must reproduce the
//! first one's outputs hash for hash — that is the determinism check.
//! Throughput is the fastest round's: the work is identical to the bit
//! and single-threaded, so whatever makes a round slower than the
//! fastest one is the machine, not the program. Set-up time is the
//! median over rounds.

use crate::counts::{self, Counts};
use crate::layers::{self, LayerParams};
use crate::load::{mix, DeliveryCheck, PayloadGen};
use crate::report::Report;
use crate::spans::Spans;
use crate::{alloc, procfs, stats, Args};
use bytes::Bytes;
use stabilizer_core::sim_driver::{build_cluster_with_hooks, AppHooks, SimNode};
use stabilizer_core::{ClusterConfig, FrontierUpdate, NodeId};
use stabilizer_netsim::{NetTopology, SimDuration, SimTime, Simulation};
use stabilizer_shard::fnv1a;
use std::time::Instant;

const SIM8_CFG: &str = include_str!("../../configs/sim8.cfg");

const NODES: usize = 8;
const PAYLOAD: usize = 64;
/// fig7's highest rate, 16k msg/s aggregate: one message per node every
/// 500 µs.
const PERIOD_NS: u64 = 500_000;
const JITTER: SimDuration = SimDuration(2_000_000);
/// Messages each node publishes per round: half a second of virtual
/// time (seven times the longest one-way delay), about 0.6 s of wall
/// time at the seed, so that a run fits some fifty rounds and one of
/// them meets the machine at its quietest.
const MSGS_PER_NODE: u64 = 1_000;
const SMOKE_MSGS_PER_NODE: u64 = 300;
/// Registered for every remote stream at every node.
const REMOTE_KEYS: [(&str, &str); 3] = [
    ("AllWNodes", "MIN($ALLWNODES-$MYWNODE)"),
    (
        "MajorityWNodes",
        "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)",
    ),
    ("OneWNode", "MAX($ALLWNODES-$MYWNODE)"),
];
const STABLE: &str = "AllWNodes";
const PREDICATES_PER_NODE: usize = 6 + REMOTE_KEYS.len() * (NODES - 1);

/// Per-node application hooks: the correctness checks, and the virtual
/// timestamps latency is computed from.
struct Hooks {
    me: NodeId,
    /// One checker per origin stream.
    checks: Vec<DeliveryCheck>,
    violations: u64,
    /// Per origin: `(seq, virtual ns)` of each delivery here.
    delivered: Vec<(u16, u64, u64)>,
    /// `(frontier, virtual ns)` of each `AllWNodes` advance of this
    /// node's own stream.
    covered: Vec<(u64, u64)>,
    /// Per stream, the last `(seq, generation)` each key advanced to, for
    /// the monotonicity check (a handful of keys per stream: a scan
    /// beats allocating a map key inside the measured loop).
    last: Vec<Vec<(String, (u64, u32))>>,
}

impl AppHooks for Hooks {
    fn on_deliver(&mut self, now: SimTime, origin: NodeId, seq: u64, payload: &Bytes) {
        if !self.checks[origin.0 as usize].on_deliver(origin.0, seq, payload) {
            self.violations += 1;
        }
        self.delivered.push((origin.0, seq, now.as_nanos()));
    }

    fn on_frontier(&mut self, now: SimTime, u: &FrontierUpdate) {
        let keys = &mut self.last[u.stream.0 as usize];
        match keys.iter_mut().find(|(key, _)| *key == u.key) {
            Some((_, last)) => {
                if (u.generation, u.seq) < (last.1, last.0) {
                    self.violations += 1;
                }
                *last = (u.seq, u.generation);
            }
            None => keys.push((u.key.clone(), (u.seq, u.generation))),
        }
        if u.stream == self.me && u.key == STABLE {
            self.covered.push((u.seq, now.as_nanos()));
        }
    }
}

type Sim = Simulation<SimNode<Hooks>>;

/// One message's life in virtual nanoseconds.
struct Life {
    origin: u16,
    seq: u64,
    /// When the open-loop schedule published it.
    due: u64,
    /// Delivered at the last of the seven mirrors.
    delivered: u64,
    /// Covered by the `AllWNodes` frontier at its origin.
    covered: u64,
}

/// Everything one round produced.
struct Round {
    setup_s: f64,
    wall_s: f64,
    msgs: u64,
    lives: Vec<Life>,
    wire_bytes: u64,
    counts: Counts,
    violations: u64,
    frontier_short: u64,
    /// FNV-1a over latency samples, counts and link statistics.
    hash: u64,
    /// Whether every `Simulation::step` and publish call was timed; the
    /// fields below are those timings.
    traced: bool,
    events: u64,
    step_ns: u64,
    publish_call_ns: Vec<f64>,
}

fn build(seed: u64) -> Sim {
    let cfg = ClusterConfig::parse(SIM8_CFG).expect("embedded config parses");
    let net = NetTopology::ec2_fig2().with_jitter(JITTER);
    let mut sim = build_cluster_with_hooks(&cfg, net, seed, |i| Hooks {
        me: NodeId(i as u16),
        checks: (0..NODES)
            .map(|_| DeliveryCheck::new(seed, PAYLOAD))
            .collect(),
        violations: 0,
        delivered: Vec::new(),
        covered: Vec::new(),
        last: vec![Vec::new(); NODES],
    })
    .expect("embedded predicates compile");
    for i in 0..NODES {
        for stream in (0..NODES).filter(|s| *s != i) {
            for (key, src) in REMOTE_KEYS {
                sim.with_ctx(i, |n, ctx| {
                    n.register_predicate_in(ctx, NodeId(stream as u16), key, src)
                })
                .expect("remote predicates compile");
            }
        }
    }
    sim
}

/// Drop the driver's own logs (the hooks keep what the benchmark needs).
fn drain_logs(sim: &mut Sim) {
    for i in 0..NODES {
        let a = sim.actor_mut(i);
        a.frontier_log.clear();
        a.delivery_log.clear();
    }
}

/// Set up: build the cluster (compile and register every predicate) and
/// run one warm-up message from node 0 to stability everywhere. Returns
/// the cluster, each node's payload generator, and the wall time it took.
fn set_up(seed: u64) -> (Sim, Vec<PayloadGen>, f64) {
    let started = Instant::now();
    let mut sim = build(seed);
    let mut gens: Vec<PayloadGen> = (0..NODES)
        .map(|i| PayloadGen::new(seed, i as u16, 0, PAYLOAD))
        .collect();
    let warm = gens[0].next_payload();
    sim.with_ctx(0, |n, ctx| n.publish_in(ctx, warm))
        .expect("warm-up publish");
    sim.run_until_idle();
    drain_logs(&mut sim);
    let setup_s = started.elapsed().as_secs_f64();
    (sim, gens, setup_s)
}

fn round(seed: u64, per_node: u64, traced: bool) -> Round {
    let (mut sim, mut gens, setup_s) = set_up(seed);

    // Open loop: node i's k-th message is due at base + phase_i + k·period,
    // the phases drawn from the seed.
    let base = sim.now().as_nanos() + PERIOD_NS;
    let phase: Vec<u64> = (0..NODES)
        .map(|i| mix(seed ^ (i as u64 + 1)) % PERIOD_NS)
        .collect();
    let mut order: Vec<usize> = (0..NODES).collect();
    order.sort_by_key(|i| (phase[*i], *i));
    let due = |i: usize, k: u64| base + phase[i] + k * PERIOD_NS;
    let first_seq = |i: usize| u64::from(i == 0) + 1; // node 0 spent seq 1 on the warm-up

    let counts_before = counts(&sim);
    let (mut events, mut step_ns) = (0u64, 0u64);
    // The traced round's span around every `Simulation::step` up to and
    // including `until` (to idle when `None`).
    let mut timed_steps = |sim: &mut Sim, until: Option<SimTime>| {
        while sim
            .next_event_time()
            .is_some_and(|t| until.is_none_or(|u| t <= u))
        {
            let t0 = Instant::now();
            sim.step();
            step_ns += t0.elapsed().as_nanos() as u64;
            events += 1;
        }
    };
    let mut publish_call_ns = Vec::new();
    let wall_started = Instant::now();
    for k in 0..per_node {
        for &i in &order {
            let at = SimTime(due(i, k));
            if traced {
                timed_steps(&mut sim, Some(at));
            }
            sim.run_until(at);
            let payload = gens[i].next_payload();
            let t0 = traced.then(Instant::now);
            sim.with_ctx(i, |n, ctx| n.publish_in(ctx, payload))
                .expect("publish within the send buffer");
            if let Some(t0) = t0 {
                publish_call_ns.push(t0.elapsed().as_nanos() as f64);
            }
        }
        if k % 256 == 255 {
            drain_logs(&mut sim);
        }
    }
    if traced {
        timed_steps(&mut sim, None);
    }
    sim.run_until_idle();
    let wall_s = wall_started.elapsed().as_secs_f64();
    let counts = counts::since(&counts_before, &counts(&sim));

    // Latencies, from the hooks' virtual timestamps.
    let msgs = per_node * NODES as u64;
    let mut last_delivery: Vec<Vec<u64>> = vec![vec![0; per_node as usize]; NODES];
    let mut deliveries: Vec<Vec<u8>> = vec![vec![0; per_node as usize]; NODES];
    let (mut violations, mut frontier_short) = (0, 0);
    for i in 0..NODES {
        let hooks = &sim.actor(i).hooks;
        violations += hooks.violations;
        for &(origin, seq, at) in &hooks.delivered {
            let o = origin as usize;
            if seq >= first_seq(o) {
                let k = (seq - first_seq(o)) as usize;
                last_delivery[o][k] = last_delivery[o][k].max(at);
                deliveries[o][k] += 1;
            }
        }
    }
    let mut lives = Vec::with_capacity(msgs as usize);
    for i in 0..NODES {
        let covered = &sim.actor(i).hooks.covered;
        let last_seq = first_seq(i) + per_node - 1;
        let reached = sim
            .actor(i)
            .inner()
            .stability_frontier(NodeId(i as u16), STABLE);
        frontier_short += u64::from(reached.map(|(seq, _)| seq) != Some(last_seq));
        let mut at = 0;
        for k in 0..per_node {
            let seq = first_seq(i) + k;
            // The first advance to or past this message covered it.
            while at < covered.len() && covered[at].0 < seq {
                at += 1;
            }
            match covered.get(at) {
                Some(&(_, covered)) if deliveries[i][k as usize] as usize == NODES - 1 => lives
                    .push(Life {
                        origin: i as u16,
                        seq,
                        due: due(i, k),
                        delivered: last_delivery[i][k as usize],
                        covered,
                    }),
                _ => violations += 1, // never covered, or not delivered at every mirror
            }
        }
    }
    // Everything exact under the seed, folded into one hash.
    let mut wire_bytes = 0;
    let mut outputs: Vec<u64> =
        Vec::with_capacity(2 * lives.len() + 2 * NODES * NODES + counts.len());
    for a in 0..NODES {
        for b in 0..NODES {
            let s = sim.link_stats(a, b);
            wire_bytes += s.bytes;
            outputs.extend([s.bytes, s.messages]);
        }
    }
    outputs.extend(
        lives
            .iter()
            .flat_map(|l| [l.delivered - l.due, l.covered - l.due]),
    );
    outputs.extend(counts);
    let bytes: Vec<u8> = outputs.iter().flat_map(|v| v.to_le_bytes()).collect();
    let hash = fnv1a(&bytes);
    Round {
        setup_s,
        wall_s,
        msgs,
        lives,
        wire_bytes,
        counts,
        violations,
        frontier_short,
        hash,
        traced,
        events,
        step_ns,
        publish_call_ns,
    }
}

impl Round {
    /// Due time → `pick`ed instant over all messages, virtual µs, sorted.
    fn latency_us(&self, pick: fn(&Life) -> u64) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .lives
            .iter()
            .map(|l| (pick(l) - l.due) as f64 / 1e3)
            .collect();
        stats::sort(&mut v);
        v
    }
}

fn counts(sim: &Sim) -> Counts {
    counts::sum((0..NODES).map(|i| sim.actor(i).inner().metrics()))
}

fn check(r: &Round, first: &Round, report: &mut Report) {
    report.attempted += r.msgs;
    report.fail(
        r.violations,
        "integrity: bad stamp, gap or reordering at a mirror, a frontier moved back, \
         or a message never delivered everywhere and covered",
    );
    report.fail(
        r.frontier_short,
        "final AllWNodes frontier != last published at some origin",
    );
    report.fail(
        u64::from(r.hash != first.hash),
        &format!(
            "same seed, different outputs: hash {:016x} then {:016x}",
            first.hash, r.hash
        ),
    );
}

/// Single-threaded simulations the untraced run keeps going side by
/// side, one per core up to two. The host slows one virtual core down
/// for tens of seconds at a time while the other runs free, and a run
/// reports its fastest round wherever it ran.
fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// More rounds like `first`, on `lanes` threads — on each at least one,
/// the determinism check, then as many as end within `budget_s` of
/// `started` — each checked against it. Returns every round's messages
/// per wall second and set-up time, `first`'s included.
fn repeat(
    first: &Round,
    seed: u64,
    started: Instant,
    budget_s: f64,
    lanes: usize,
    report: &mut Report,
) -> (Vec<f64>, Vec<f64>) {
    let per_node = first.msgs / NODES as u64;
    let lane = || {
        let mut rounds = Vec::new();
        while rounds.is_empty()
            || started.elapsed().as_secs_f64() + first.setup_s + first.wall_s < budget_s
        {
            let mut r = round(seed, per_node, first.traced);
            r.lives = Vec::new(); // the hash stands for them; keep memory flat
            rounds.push(r);
        }
        rounds
    };
    let rounds = std::thread::scope(|s| {
        let others: Vec<_> = (1..lanes).map(|_| s.spawn(lane)).collect();
        let mut all = lane();
        for t in others {
            all.extend(t.join().expect("simulation lane"));
        }
        all
    });
    let mut rates = vec![first.msgs as f64 / first.wall_s];
    let mut setups = vec![first.setup_s];
    for r in &rounds {
        check(r, first, report);
        rates.push(r.msgs as f64 / r.wall_s);
        setups.push(r.setup_s);
    }
    let mut sorted = rates.clone();
    stats::sort(&mut sorted);
    report.note(format!(
        "{} {}rounds with one seed on {lanes} thread(s), outputs hash {:016x} every time they \
         agree; msgs/s fastest {:.0}, median {:.0}, slowest {:.0}",
        rates.len(),
        if first.traced { "traced " } else { "" },
        first.hash,
        sorted[sorted.len() - 1],
        stats::median(&sorted),
        sorted[0],
    ));
    (rates, setups)
}

/// Run the workload.
pub fn run(args: &Args, report: &mut Report) -> Spans {
    let per_node = if args.smoke {
        SMOKE_MSGS_PER_NODE
    } else {
        MSGS_PER_NODE
    };
    report.note(format!(
        "8 nodes, ec2_fig2 + 2 ms jitter, virtual time; every node publishes {PAYLOAD} B open-loop every \
         {} us ({per_node} msgs per node per round), {PREDICATES_PER_NODE} predicates per node; \
         latency is virtual and timed from each message's due time (the generator is never late)",
        PERIOD_NS / 1000
    ));
    let started = Instant::now();
    let first = round(args.seed, per_node, false);
    check(&first, &first, report);

    if !args.trace {
        // Read before the repeats: every run has done the same work here.
        report.set("peak_rss_mb", procfs::peak_rss_mb());
        let (rates, setups) = repeat(&first, args.seed, started, args.seconds, lanes(), report);
        let stable = first.latency_us(|l| l.covered);
        report.note(format!(
            "stable latency: n={} per round (exact under the seed), p50 {:.1} us, p90 {:.1} us, \
             p99 {:.1} us; deliver p50 {:.1} us",
            stable.len(),
            stats::percentile(&stable, 0.5),
            stats::percentile(&stable, 0.9),
            stats::percentile(&stable, 0.99),
            stats::percentile(&first.latency_us(|l| l.delivered), 0.5),
        ));
        report.set("setup_s", stats::median(&setups));
        report.set("stable_msgs_per_s", stats::max(&rates));
        report.set(
            "wire_bytes_per_payload_byte",
            first.wire_bytes as f64 / (first.msgs as f64 * PAYLOAD as f64 * (NODES - 1) as f64),
        );
        return Spans::default();
    }

    let (base, _) = repeat(&first, args.seed, started, args.seconds / 2.0, 1, report);
    alloc::set_enabled(true);
    let allocs_before = alloc::counts();
    let t = round(args.seed, per_node, true);
    let allocs = alloc::counts();
    check(&t, &first, report);
    let (traced, _) = repeat(&t, args.seed, started, args.seconds, 1, report);
    alloc::set_enabled(false);
    let msgs = t.msgs as f64;
    report.set(
        "trace.overhead_ratio",
        stats::max(&traced) / stats::max(&base),
    );
    let stable = t.latency_us(|l| l.covered);
    report.set("stable_p50_us", stats::percentile(&stable, 0.5));
    report.set("stable_p90_us", stats::percentile(&stable, 0.9));
    report.set(
        "deliver_p50_us",
        stats::percentile(&t.latency_us(|l| l.delivered), 0.5),
    );
    report.set("stage.publish_call_ns", stats::median(&t.publish_call_ns));
    // Spans in virtual time: the publish call takes none of it.
    let mut spans = Spans::default();
    for l in &t.lives {
        let key = (l.origin, l.seq);
        let root = spans.push("op", key, l.due, l.covered, None);
        spans.push("publish_to_delivered", key, l.due, l.delivered, Some(root));
        spans.push(
            "delivered_to_covered",
            key,
            l.delivered,
            l.covered,
            Some(root),
        );
    }
    for (metric, stage) in [
        ("stage.publish_to_delivered_ns", "publish_to_delivered"),
        ("stage.delivered_to_covered_ns", "delivered_to_covered"),
    ] {
        report.set(metric, stats::median(&spans.durations(stage)));
    }
    counts::set(report, &t.counts, msgs);
    // Set-up's allocations are in the count; over 8k messages they vanish.
    report.set(
        "alloc.count_per_msg",
        (allocs.0 - allocs_before.0) as f64 / msgs,
    );
    report.set(
        "alloc.bytes_per_msg",
        (allocs.1 - allocs_before.1) as f64 / msgs,
    );
    report.set("netsim.sim.events_per_msg", t.events as f64 / msgs);
    report.set(
        "netsim.sim.event_ns",
        t.step_ns as f64 / t.events.max(1) as f64,
    );
    report.note(format!(
        "traced round: {} events, {:.3} s in Simulation::step of {:.3} s wall",
        t.events,
        t.step_ns as f64 / 1e9,
        t.wall_s
    ));
    layers::run(
        &LayerParams {
            cfg: SIM8_CFG,
            remote_keys: &REMOTE_KEYS,
            payload: PAYLOAD,
            shards: 1,
        },
        report,
    );
    spans
}
