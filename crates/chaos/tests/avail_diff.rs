//! Differential validation of the availability prover against the
//! virtual-time simulator: every minimal blocking set the prover claims
//! for a config must, when crashed, actually stall the vantage's
//! frontier (tripping `post-fault-liveness` with blame inside the
//! claimed set), and random crash sets within the claimed tolerance
//! `f*` must leave the vantage live. The prover reasons purely over the
//! predicate AST and topology; the simulator runs the real protocol —
//! agreement between the two is the whole point of the audit.

use rand::prelude::*;
use stabilizer_analyze::availability;
use stabilizer_chaos::{ChaosHarness, Fault, FaultEvent, FaultPlan, TimedWork, WorkItem};
use stabilizer_core::{ClusterConfig, NodeId};
use stabilizer_dsl::{AckTypeRegistry, Predicate};
use stabilizer_netsim::{NetTopology, SimDuration};
use std::collections::BTreeMap;

/// The partial-replication deployment the docs walk through.
const PLACEMENT_CFG: &str = include_str!("../../../configs/placement-6node.cfg");

/// A full-replication deployment exercising MIN, quorum, and MAX shapes
/// (explicit timing options: the harness needs heartbeats and
/// retransmission to settle the survivors).
const FULL_CFG: &str = "az A a1 a2\naz B b1 b2\n\
    predicate All MIN($ALLWNODES-$MYWNODE)\n\
    predicate Quorum KTH_MAX(2, $ALLWNODES-$MYWNODE)\n\
    predicate One MAX($ALLWNODES-$MYWNODE)\n\
    option ack_flush_micros 2000\n\
    option heartbeat_millis 50\n\
    option failure_timeout_millis 300\n\
    option retransmit_millis 100\n";

/// The prover's verdict for one (vantage, key): the predicate as
/// installed (replica-restricted), its minimal blocking sets, and `f*`.
struct Claim {
    vantage: NodeId,
    key: String,
    blocking_sets: Vec<Vec<NodeId>>,
    tolerance: i64,
}

fn prove(cfg: &ClusterConfig) -> Vec<Claim> {
    let acks = AckTypeRegistry::new();
    for (name, _) in cfg.ack_types() {
        acks.register(name);
    }
    let mut out = Vec::new();
    for v in cfg.topology().all_nodes() {
        for (key, src) in cfg.predicates() {
            let pred = Predicate::compile(src, cfg.topology(), &acks, v)
                .expect("config predicate compiles")
                .restricted_to(cfg.placement().replicas(v))
                .expect("replica restriction succeeds");
            let a = availability(&pred, cfg.topology(), v).expect("a small cluster is decided");
            out.push(Claim {
                vantage: v,
                key: key.to_owned(),
                blocking_sets: a.blocking_sets,
                tolerance: a.tolerance,
            });
        }
    }
    out
}

/// Crash `down` permanently at 50ms, publish six items at `vantage`
/// from 100ms on, and return the harness ready to run.
fn harness(cfg: &ClusterConfig, seed: u64, down: &[NodeId], vantage: NodeId) -> ChaosHarness {
    let n = cfg.num_nodes();
    let net = NetTopology::full_mesh(n, SimDuration::from_millis(5), 1e9);
    let plan = FaultPlan {
        events: down
            .iter()
            .map(|nd| FaultEvent {
                at: SimDuration::from_millis(50),
                // Far past the horizon: a permanent crash.
                fault: Fault::CrashRestart {
                    node: nd.0 as usize,
                    down_for: SimDuration::from_secs(3600),
                    persist_lag: SimDuration::ZERO,
                },
            })
            .collect(),
    };
    let workload: Vec<TimedWork> = (0..6)
        .map(|i| TimedWork {
            at: SimDuration::from_millis(100 + i * 32),
            item: WorkItem::Publish {
                node: vantage.0 as usize,
                len: 32,
            },
        })
        .collect();
    ChaosHarness::new(cfg, net, seed, &plan, workload).expect("valid scenario")
}

/// Crash every claimed minimal blocking set: the run must fail
/// `post-fault-liveness`, and the vantage's own stall report must blame
/// only nodes inside the claimed set. Runs are deduplicated on
/// (vantage, set) — co-installed keys sharing a set share the sim.
fn assert_claims_stall(cfg_text: &str, seed: u64) {
    let cfg = ClusterConfig::parse(cfg_text).expect("config parses");
    let mut by_run: BTreeMap<(u16, Vec<u16>), Vec<String>> = BTreeMap::new();
    for c in prove(&cfg) {
        for set in &c.blocking_sets {
            if set.is_empty() {
                continue; // blocked outright, not by crashes
            }
            by_run
                .entry((c.vantage.0, set.iter().map(|n| n.0).collect()))
                .or_default()
                .push(c.key.clone());
        }
    }
    assert!(!by_run.is_empty(), "the prover claimed no blocking sets");
    for ((v, set), keys) in by_run {
        let down: Vec<NodeId> = set.iter().map(|&i| NodeId(i)).collect();
        let mut h = harness(&cfg, seed, &down, NodeId(v));
        h.run(SimDuration::from_secs(2))
            .expect("safety holds under crashes");
        let err = h
            .verify_liveness(SimDuration::from_secs(5))
            .expect_err("crashing a claimed blocking set must stall the cluster");
        assert_eq!(err.property, "post-fault-liveness");
        let stalled = h.stall_reports();
        for key in keys {
            let (_, report) = stalled
                .iter()
                .find(|(obs, r)| *obs == v && r.stream == NodeId(v) && r.key == key && r.stalled)
                .unwrap_or_else(|| {
                    panic!("claimed blocking set {set:?} did not stall {key} at node {v}")
                });
            for b in &report.blamed {
                assert!(
                    set.contains(&b.node.0),
                    "blame names {} outside the claimed blocking set {set:?} for {key} at {v}: {}",
                    b.node.0,
                    report.render_human()
                );
            }
        }
    }
}

/// Random crash sets within `f*` must leave the vantage live: after the
/// run its own stability frontier reaches its last publish. The
/// crashed replicas' RECEIVED gaps would trip `verify_liveness`, so the
/// vantage frontier is asserted directly.
fn assert_tolerant_sets_stay_live(cfg_text: &str, seed: u64, draws: usize) {
    let cfg = ClusterConfig::parse(cfg_text).expect("config parses");
    let claims: Vec<Claim> = prove(&cfg)
        .into_iter()
        .filter(|c| c.tolerance >= 1)
        .collect();
    assert!(!claims.is_empty(), "no claim with f* >= 1 to validate");
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..draws {
        let c = &claims[rng.gen_range(0..claims.len())];
        let mut others: Vec<NodeId> = cfg
            .topology()
            .all_nodes()
            .into_iter()
            .filter(|&n| n != c.vantage)
            .collect();
        let size = rng.gen_range(1..=(c.tolerance as usize).min(others.len()));
        let mut down = Vec::with_capacity(size);
        for _ in 0..size {
            down.push(others.swap_remove(rng.gen_range(0..others.len())));
        }
        let mut h = harness(&cfg, seed ^ 0x5eed, &down, c.vantage);
        h.run(SimDuration::from_secs(2))
            .expect("safety holds under crashes");
        let node = h.sim().actor(c.vantage.0 as usize).inner();
        let target = node.last_published();
        let (frontier, _) = node
            .stability_frontier(c.vantage, &c.key)
            .expect("configured key is installed");
        assert!(
            frontier >= target,
            "crashing {:?} (within f* = {}) stalled {} at {}: frontier {frontier} < {target}",
            down,
            c.tolerance,
            c.key,
            cfg.topology().node_name(c.vantage),
        );
    }
}

#[test]
fn placement_claimed_blocking_sets_stall_the_sim() {
    assert_claims_stall(PLACEMENT_CFG, 7);
}

#[test]
fn full_replication_claimed_blocking_sets_stall_the_sim() {
    assert_claims_stall(FULL_CFG, 7);
}

#[test]
fn placement_crashes_within_tolerance_stay_live() {
    assert_tolerant_sets_stay_live(PLACEMENT_CFG, 11, 10);
    assert_tolerant_sets_stay_live(PLACEMENT_CFG, 12, 10);
}

#[test]
fn full_replication_crashes_within_tolerance_stay_live() {
    assert_tolerant_sets_stay_live(FULL_CFG, 11, 10);
    assert_tolerant_sets_stay_live(FULL_CFG, 12, 10);
}
