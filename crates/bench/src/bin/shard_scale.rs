//! Sharded data-plane scaling on a localhost TCP pair.
//!
//! For each shard count S the bench spawns a two-node
//! [`stabilizer_transport::spawn_sharded_local_cluster`] over real TCP
//! on 127.0.0.1. Both nodes publish concurrently from several threads
//! (every node is simultaneously an origin and a mirror), the send
//! buffer is kept small so backpressure couples publishers to the
//! ACK/frontier drain rate, and the run measures sustained *delivered*
//! throughput — messages actually handed to the application in global
//! FIFO order — plus the time for both own-stream frontiers to cover
//! the load. All protocol work (sequencing, delivery, ACK folding,
//! predicate evaluation, aggregation) runs under the node's one engine
//! lock on the publisher and link-reader threads themselves, whatever
//! S is: the table shows what S shard machines cost over one, not a
//! speed-up (EXPERIMENTS.md, "Sharded data-plane scaling", has the
//! table and the verdict).
//!
//! Usage:
//!
//! ```text
//! shard_scale [MSGS] [PAYLOAD_BYTES] [PUBLISHERS] [--serve ADDR]
//! shard_scale --replay-hash SEED
//! ```
//!
//! With `--serve ADDR`, every spawned cluster feeds one shared
//! telemetry hub exposed live over HTTP (`/metrics`, `/metrics.json`,
//! `/trace`) — scrape or `stabtop` it mid-bench to watch each node's
//! transport counters and `stab_node_*` gauges move — and the endpoint
//! stays up after the table prints until the process is killed.
//!
//! The second form runs a deterministic sharded *simulator* scenario and
//! prints an FNV-1a hash of every observable log (deliveries, per-shard
//! and aggregated frontiers). Running it twice — in two separate
//! processes — must print byte-identical output; this is the seed-replay
//! acceptance check for the sharded engine.

use bytes::Bytes;
use stabilizer_bench::{bytes as fmt_bytes, f, print_table};
use stabilizer_core::{ClusterConfig, NodeId};
use stabilizer_netsim::{NetTopology, SimDuration};
use stabilizer_shard::{build_sharded_cluster, RoutePolicy};
use stabilizer_telemetry::{ServerRoutes, Telemetry, TelemetryServer};
use stabilizer_transport::spawn_sharded_local_cluster_with;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARD_COUNTS: [u16; 4] = [1, 2, 4, 8];
const N0: NodeId = NodeId(0);

/// Two-node localhost pair: `a1` publishes, `b1` mirrors. The predicate
/// set mirrors a production node (several keys recomputed per ACK), so
/// per-shard frontier evaluation carries realistic CPU weight.
fn pair_cfg(shards: u16) -> ClusterConfig {
    ClusterConfig::parse(&format!(
        "az A a1\n\
         az B b1\n\
         option shards {shards}\n\
         option send_buffer_bytes 262144\n\
         option ack_flush_micros 0\n\
         predicate Remote MAX($ALLWNODES-$MYWNODE)\n\
         predicate All MIN($ALLWNODES-$MYWNODE)\n\
         predicate Quorum KTH_MAX(1, $ALLWNODES-$MYWNODE)\n\
         predicate Any MAX($ALLWNODES)\n"
    ))
    .expect("static config parses")
}

struct Point {
    shards: u16,
    delivered_per_sec: f64,
    stable_per_sec: f64,
}

/// One measured run: both nodes of the pair publish `msgs / 2` messages
/// of `payload` bytes from `publishers` threads each (every node is
/// simultaneously an origin and a mirror, as in a real deployment), and
/// the run counts total cross-delivered messages per second plus the
/// time for both own-stream frontiers to cover the load.
fn run_tcp(
    shards: u16,
    msgs: u64,
    payload: usize,
    publishers: usize,
    telemetry: Option<&Arc<Telemetry>>,
) -> Point {
    let nodes = spawn_sharded_local_cluster_with(
        &pair_cfg(shards),
        RoutePolicy::RoundRobin,
        telemetry.map(Arc::clone),
    )
    .expect("localhost pair spawns");
    let handles = [nodes[0].handle(), nodes[1].handle()];
    let per_node = msgs / 2;

    let delivered = Arc::new(AtomicU64::new(0));
    for h in &handles {
        let delivered = Arc::clone(&delivered);
        h.on_deliver(move |_, _, _| {
            delivered.fetch_add(1, Ordering::Relaxed);
        });
    }

    // Each node also tracks its peer's stream, as application mirrors do
    // (the configured predicates only cover each node's own stream).
    for (h, peer) in [(&handles[0], &handles[1]), (&handles[1], &handles[0])] {
        h.register_predicate(peer.id(), "All", "MIN($ALLWNODES-$MYWNODE)")
            .expect("predicate compiles");
        h.register_predicate(peer.id(), "Any", "MAX($ALLWNODES)")
            .expect("predicate compiles");
    }

    // Warm the connections so dial latency stays out of the measurement.
    for h in &handles {
        h.publish(Bytes::from_static(b"warmup"), Duration::from_secs(10))
            .expect("warmup publish");
    }
    for h in &handles {
        assert!(
            h.waitfor(h.id(), "All", 1, Duration::from_secs(30))
                .expect("key registered"),
            "warmup stabilizes"
        );
    }
    while delivered.load(Ordering::Relaxed) < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let body = Bytes::from(vec![0x5a; payload]);
    let start = Instant::now();
    let threads: Vec<_> = handles
        .iter()
        .flat_map(|h| {
            (0..publishers).map(|t| {
                let h = h.clone();
                let body = body.clone();
                let quota = per_node / publishers as u64
                    + u64::from(t == 0) * (per_node % publishers as u64);
                std::thread::spawn(move || {
                    for _ in 0..quota {
                        h.publish(body.clone(), Duration::from_secs(30))
                            .expect("publish within timeout");
                    }
                })
            })
        })
        .collect();
    for t in threads {
        t.join().expect("publisher thread");
    }
    if std::env::var_os("SHARD_SCALE_DEBUG").is_some() {
        eprintln!(
            "S={shards}: publish done in {:.3}s ({:.0} pub/s)",
            start.elapsed().as_secs_f64(),
            (2 * per_node) as f64 / start.elapsed().as_secs_f64()
        );
    }

    let total = 2 * (per_node + 1); // plus one warmup message per node
    let deadline = Instant::now() + Duration::from_secs(120);
    while delivered.load(Ordering::Relaxed) < total {
        assert!(Instant::now() < deadline, "mirrors fell behind permanently");
        std::thread::sleep(Duration::from_micros(200));
    }
    let t_delivered = start.elapsed();

    for h in &handles {
        assert!(h
            .waitfor(h.id(), "All", per_node + 1, Duration::from_secs(120))
            .expect("key registered"));
    }
    let t_stable = start.elapsed();

    // Global FIFO reassembly was gapless in both directions.
    assert_eq!(handles[0].delivered_global(handles[1].id()), per_node + 1);
    assert_eq!(handles[1].delivered_global(handles[0].id()), per_node + 1);
    for node in &nodes {
        node.handle().shutdown();
    }
    Point {
        shards,
        delivered_per_sec: (2 * per_node) as f64 / t_delivered.as_secs_f64(),
        stable_per_sec: (2 * per_node) as f64 / t_stable.as_secs_f64(),
    }
}

const TRIALS: usize = 3;

fn tcp_scaling(msgs: u64, payload: usize, publishers: usize, telemetry: Option<&Arc<Telemetry>>) {
    println!(
        "localhost pair (both directions), {} msgs x {}, {} publisher threads per node, median of {} trials",
        msgs,
        fmt_bytes(payload as u64),
        publishers,
        TRIALS
    );
    println!("(data plane encodes each frame once and shares the bytes across peers — zero-copy fan-out)\n");
    // Interleave trials (1,2,4,8, 1,2,4,8, ...) so slow environmental
    // drift hits every shard count equally, then report the median —
    // single-run numbers on a shared box swing with scheduler luck.
    let mut all: Vec<Vec<Point>> = SHARD_COUNTS.iter().map(|_| Vec::new()).collect();
    for _ in 0..TRIALS {
        for (i, &s) in SHARD_COUNTS.iter().enumerate() {
            all[i].push(run_tcp(s, msgs, payload, publishers, telemetry));
        }
    }
    let points: Vec<Point> = all
        .into_iter()
        .map(|mut trials| {
            trials.sort_by(|a, b| a.delivered_per_sec.total_cmp(&b.delivered_per_sec));
            trials.swap_remove(trials.len() / 2)
        })
        .collect();
    let base = points[0].delivered_per_sec;
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.shards.to_string(),
                f(p.delivered_per_sec, 0),
                f(p.stable_per_sec, 0),
                format!("{}x", f(p.delivered_per_sec / base, 2)),
            ]
        })
        .collect();
    print_table(
        "sharded data-plane scaling (TCP localhost pair)",
        &["shards", "delivered msg/s", "stable msg/s", "speedup"],
        &rows,
    );
}

/// Deterministic sharded simulator scenario: 3 nodes, 4 shards,
/// round-robin routing, mixed payload sizes and two publishing streams.
/// Everything observable is folded into one FNV-1a hash.
fn replay_hash(seed: u64) {
    let cfg = ClusterConfig::parse(
        "az A a b\n\
         az B c\n\
         option shards 4\n\
         predicate All MIN($ALLWNODES-$MYWNODE)\n\
         predicate One MAX($ALLWNODES-$MYWNODE)\n",
    )
    .expect("static config parses");
    let net = NetTopology::full_mesh(3, SimDuration::from_millis(5), 1e9);
    let mut sim =
        build_sharded_cluster(&cfg, net, seed, RoutePolicy::RoundRobin).expect("cluster builds");
    for i in 0..3 {
        for stream in [0u16, 1] {
            if i != stream as usize {
                sim.with_ctx(i, |n, ctx| {
                    n.register_predicate_in(ctx, NodeId(stream), "All", "MIN($ALLWNODES-$MYWNODE)")
                })
                .expect("predicate compiles");
            }
        }
    }
    // Seed-derived (but Date/rand-free) publish sizes: a simple LCG.
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % 480 + 16
    };
    for round in 0..60u64 {
        for origin in 0..2usize {
            let len = next();
            sim.with_ctx(origin, |n, ctx| {
                n.publish_in(ctx, Bytes::from(vec![round as u8; len]))
            })
            .expect("publish");
        }
        if round % 20 == 19 {
            sim.with_ctx(0, |n, ctx| n.waitfor_in(ctx, N0, "All", round + 1))
                .expect("waitfor");
        }
    }
    sim.run_until_idle();

    let mut transcript = String::new();
    for i in 0..3 {
        let a = sim.actor(i);
        for (t, u) in &a.frontier_log {
            writeln!(
                transcript,
                "{i} F {t:?} {} {} {} {}",
                u.stream.0, u.key, u.seq, u.generation
            )
            .unwrap();
        }
        for (t, o, s, l) in &a.delivery_log {
            writeln!(transcript, "{i} D {t:?} {} {s} {l}", o.0).unwrap();
        }
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in transcript.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    println!(
        "replay seed={seed} events={} hash={hash:016x}",
        transcript.lines().count()
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--replay-hash") {
        let seed = args
            .get(1)
            .and_then(|s| s.parse().ok())
            .expect("--replay-hash SEED");
        replay_hash(seed);
        return;
    }
    let serve = args.iter().position(|a| a == "--serve").map(|i| {
        args.remove(i);
        if i >= args.len() {
            eprintln!("usage: shard_scale [MSGS] [PAYLOAD] [PUBLISHERS] [--serve ADDR]");
            std::process::exit(2);
        }
        args.remove(i)
    });
    let msgs = args.first().and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let payload = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let publishers = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    // One hub for every trial: series are labelled per node, so
    // counters accumulate across the whole sweep while gauges (send
    // buffers) always show the live cluster.
    let telemetry = serve
        .as_ref()
        .map(|_| Telemetry::new_wall_clock_sharded(SHARD_COUNTS[SHARD_COUNTS.len() - 1] as usize));
    let server = serve.map(|addr| {
        let t = telemetry.clone().expect("hub exists when serving");
        let server = TelemetryServer::bind(&addr, ServerRoutes::new(t)).unwrap_or_else(|e| {
            eprintln!("error: serving on {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "serving http://{} — /metrics /metrics.json /trace",
            server.local_addr()
        );
        server
    });
    tcp_scaling(msgs, payload, publishers, telemetry.as_ref());
    if let Some(server) = server {
        eprintln!(
            "bench done; still serving http://{} (Ctrl-C to exit)",
            server.local_addr()
        );
        loop {
            std::thread::park();
        }
    }
}
