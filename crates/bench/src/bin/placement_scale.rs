//! Partial-replication capacity scaling on the deterministic simulator.
//!
//! For each cluster size N the bench runs the same publish workload
//! twice: once under a disjoint 3-replica placement (`replicate` lines
//! pin each stream to its group of three) and once under full
//! replication. Every node carries the same egress NIC budget
//! ([`set_egress_limit`](stabilizer_netsim::Simulation::set_egress_limit)),
//! so a publish costs its origin one wire copy per replica: two under
//! the 3-replica placement regardless of N, N-1 under full
//! replication. The run measures the virtual time for every origin's
//! own-stream `All` frontier (MIN over the stream's replica set) to
//! cover the load, and reports aggregate stabilized throughput —
//! published messages per second summed across the cluster. Under
//! partial replication that aggregate grows with N (per-node cost is
//! constant); under full replication it stays flat (per-node cost
//! grows as N-1), which is the capacity argument for placement.
//!
//! Everything runs in virtual time on the seeded simulator, so the
//! table is deterministic: two runs print identical numbers.
//!
//! Usage:
//!
//! ```text
//! placement_scale [MSGS] [PAYLOAD_BYTES]
//! placement_scale --replay-hash SEED
//! ```
//!
//! The second form runs a fixed 9-node partially-replicated scenario
//! and prints an FNV-1a hash over every observable log (deliveries and
//! frontier advances at every node). Two separate processes must print
//! byte-identical output — the seed-replay acceptance check that
//! placement-aware routing stays deterministic.

use bytes::Bytes;
use stabilizer_bench::{f, print_table};
use stabilizer_core::{sim_driver::build_cluster, ClusterConfig, NodeId};
use stabilizer_netsim::{NetTopology, SimDuration, SimTime};
use std::fmt::Write as _;

const CLUSTER_SIZES: [usize; 4] = [6, 9, 12, 15];
/// Per-node egress budget. Small enough that serialization delay, not
/// propagation delay, dominates the virtual-time measurement.
const EGRESS_BYTES_PER_SEC: f64 = 1_000_000.0;

/// N nodes in two AZs. With `partial`, each stream is pinned to its
/// disjoint group of three (N must be divisible by 3); without, every
/// stream mirrors everywhere.
fn cfg_text(n: usize, partial: bool) -> String {
    assert_eq!(n % 3, 0, "disjoint 3-groups need N divisible by 3");
    let mut cfg = String::new();
    for (az, range) in [(0, 0..n / 2), (1, n / 2..n)] {
        cfg.push_str(&format!("az AZ{az}"));
        for i in range {
            cfg.push_str(&format!(" n{i}"));
        }
        cfg.push('\n');
    }
    if partial {
        for i in 0..n {
            let g = i / 3 * 3;
            cfg.push_str(&format!("replicate n{i} n{g} n{} n{}\n", g + 1, g + 2));
        }
    }
    // No periodic options: a nonzero ack_flush/heartbeat period arms a
    // forever-rearming timer and the simulator never goes idle. The
    // defaults flush ACKs eagerly, which is also the fair comparison —
    // ACK fan-out is part of the replication cost being measured.
    cfg.push_str("predicate All MIN($ALLWNODES-$MYWNODE)\n");
    cfg.push_str("option send_buffer_bytes 8388608\n");
    cfg
}

/// One measured run: every node publishes `msgs` messages of `payload`
/// bytes; returns the virtual seconds until the slowest origin's `All`
/// frontier covers its load.
fn run_sim(n: usize, partial: bool, msgs: u64, payload: usize) -> f64 {
    let cfg = ClusterConfig::parse(&cfg_text(n, partial)).expect("static config parses");
    let net = NetTopology::full_mesh(n, SimDuration::from_millis(5), 1e12);
    let mut sim = build_cluster(&cfg, net, 7).expect("cluster builds");
    for i in 0..n {
        sim.set_egress_limit(i, EGRESS_BYTES_PER_SEC);
    }
    let body = Bytes::from(vec![0x5a; payload]);
    for _ in 0..msgs {
        for i in 0..n {
            sim.with_ctx(i, |node, ctx| node.publish_in(ctx, body.clone()))
                .expect("publish");
        }
    }
    sim.run_until_idle();
    let mut covered_at = SimTime::ZERO;
    for i in 0..n {
        let at = sim
            .actor(i)
            .covered_at(NodeId(i as u16), "All", msgs)
            .unwrap_or_else(|| panic!("origin {i}'s All frontier never covered {msgs}"));
        covered_at = covered_at.max(at);
    }
    covered_at.as_nanos() as f64 / 1e9
}

fn capacity_table(msgs: u64, payload: usize) {
    println!(
        "disjoint 3-replica placement vs full replication, {msgs} msgs x {payload} B per node, \
         {:.1} MB/s egress per node (virtual time, deterministic)\n",
        EGRESS_BYTES_PER_SEC / 1e6
    );
    let mut rows = Vec::new();
    let mut base_partial = 0.0f64;
    for &n in &CLUSTER_SIZES {
        let t_partial = run_sim(n, true, msgs, payload);
        let t_full = run_sim(n, false, msgs, payload);
        let agg_partial = (n as u64 * msgs) as f64 / t_partial;
        let agg_full = (n as u64 * msgs) as f64 / t_full;
        if n == CLUSTER_SIZES[0] {
            base_partial = agg_partial;
        }
        rows.push(vec![
            n.to_string(),
            f(agg_partial, 0),
            f(agg_full, 0),
            format!("{}x", f(agg_partial / agg_full, 2)),
            format!("{}x", f(agg_partial / base_partial, 2)),
        ]);
    }
    print_table(
        "aggregate stabilized throughput (published msg/s, cluster-wide)",
        &[
            "nodes",
            "3-replica msg/s",
            "full-repl msg/s",
            "partial/full",
            "growth",
        ],
        &rows,
    );
}

/// Deterministic 9-node partially-replicated scenario, FNV-1a hashed.
fn replay_hash(seed: u64) {
    let n = 9usize;
    let cfg = ClusterConfig::parse(&cfg_text(n, true)).expect("static config parses");
    let net = NetTopology::full_mesh(n, SimDuration::from_millis(5), 1e9);
    let mut sim = build_cluster(&cfg, net, seed).expect("cluster builds");
    // Seed-derived (but Date/rand-free) publish sizes: a simple LCG.
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % 480 + 16
    };
    for round in 0..40u64 {
        for origin in 0..n {
            let len = next();
            sim.with_ctx(origin, |node, ctx| {
                node.publish_in(ctx, Bytes::from(vec![round as u8; len]))
            })
            .expect("publish");
        }
        if round % 10 == 9 {
            sim.with_ctx(0, |node, ctx| {
                node.waitfor_in(ctx, NodeId(0), "All", round + 1)
            })
            .expect("waitfor");
        }
    }
    sim.run_until_idle();

    let mut transcript = String::new();
    for i in 0..n {
        let a = sim.actor(i);
        for (t, u) in &a.frontier_log {
            writeln!(
                transcript,
                "{i} F {t:?} {} {} {} {}",
                u.stream.0, u.key, u.seq, u.generation
            )
            .unwrap();
        }
        for (t, o, s, l, _) in &a.delivery_log {
            writeln!(transcript, "{i} D {t:?} {} {s} {l}", o.0).unwrap();
        }
    }
    let hash = stabilizer_core::fnv1a(transcript.as_bytes());
    println!(
        "replay seed={seed} events={} hash={hash:016x}",
        transcript.lines().count()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--replay-hash") {
        let seed = args
            .get(1)
            .and_then(|s| s.parse().ok())
            .expect("--replay-hash SEED");
        replay_hash(seed);
        return;
    }
    let msgs = args.first().and_then(|s| s.parse().ok()).unwrap_or(120);
    let payload = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(256);
    capacity_table(msgs, payload);
}
