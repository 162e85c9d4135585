//! Property tests for partial replication: randomized per-stream
//! replica sets must preserve every safety invariant on every step
//! (including invariant 7 — a frame or ack cell reaching a non-replica
//! is itself a violation), stabilize every stream among its replicas
//! once faults clear, and keep non-replicas fully isolated from
//! streams they do not host. A replicate-free config must behave
//! byte-for-byte like one that spells out the full node set for every
//! stream — the placement subsystem costs nothing when unused. And the
//! same placement-aware fault plan must drive the netsim cluster and
//! the real TCP cluster to identical converged state.

mod common;

use common::converge;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stabilizer_chaos::{
    ChaosHarness, ChaosTcpCluster, Fault, FaultEvent, FaultPlan, TimedWork, WorkItem,
};
use stabilizer_core::ClusterConfig;
use stabilizer_dsl::NodeId;
use stabilizer_netsim::{NetTopology, SimDuration};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Draw an n-node config whose streams are pinned to random replica
/// sets of 3-4 members (origin always included). With n >= 6 every
/// draw is genuinely partial: some node is a non-replica of some
/// stream.
fn random_placement_cfg(rng: &mut SmallRng, n: usize) -> String {
    let mut cfg = String::new();
    for (az, range) in [("A", 0..n / 2), ("B", n / 2..n)] {
        cfg.push_str(&format!("az {az}"));
        for i in range {
            cfg.push_str(&format!(" n{i}"));
        }
        cfg.push('\n');
    }
    for i in 0..n {
        let want = 3 + usize::from(rng.gen_bool(0.3));
        let mut members = vec![i];
        while members.len() < want {
            let m = rng.gen_range(0..n);
            if !members.contains(&m) {
                members.push(m);
            }
        }
        cfg.push_str(&format!("replicate n{i}"));
        for m in members {
            cfg.push_str(&format!(" n{m}"));
        }
        cfg.push('\n');
    }
    cfg.push_str(
        "predicate All MIN($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros 2000\n\
         option heartbeat_millis 50\n\
         option retransmit_millis 100\n",
    );
    cfg
}

/// A benign fault for the randomized runs: cleared or healed well
/// before the publish window ends, so liveness must hold afterwards.
fn random_benign_plan(rng: &mut SmallRng, n: usize) -> FaultPlan {
    let mut events = Vec::new();
    match rng.gen_range(0..4u8) {
        0 => {} // fault-free draw
        1 => {
            let from = rng.gen_range(0..n);
            let to = (from + rng.gen_range(1..n)) % n;
            events.push(FaultEvent {
                at: ms(30),
                fault: Fault::AsymmetricLoss {
                    from,
                    to,
                    probability: 0.8,
                    clear_after: ms(250),
                },
            });
        }
        2 => {
            events.push(FaultEvent {
                at: ms(60),
                fault: Fault::CrashRestart {
                    node: rng.gen_range(0..n),
                    down_for: ms(150),
                    persist_lag: SimDuration::ZERO,
                },
            });
        }
        _ => {
            events.push(FaultEvent {
                at: ms(40),
                fault: Fault::Partition {
                    side: vec![rng.gen_range(0..n)],
                    heal_after: ms(200),
                },
            });
        }
    }
    FaultPlan { events }
}

#[test]
fn random_replica_sets_are_safe_stable_and_isolated() {
    for seed in 0..20u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(6..=9);
        let cfg_text = random_placement_cfg(&mut rng, n);
        let cfg = ClusterConfig::parse(&cfg_text).expect("generated config parses");
        assert!(
            !cfg.placement().is_full_replication(),
            "seed {seed}: 3-4 member sets over {n} nodes must be partial"
        );
        let plan = random_benign_plan(&mut rng, n);
        let workload: Vec<TimedWork> = (0..n)
            .flat_map(|node| {
                let msgs = rng.gen_range(3..=6);
                (0..msgs)
                    .map(|i| TimedWork {
                        at: ms(rng.gen_range(10..400) + i * 5),
                        item: WorkItem::Publish {
                            node,
                            len: rng.gen_range(16..128),
                        },
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let net = NetTopology::full_mesh(n, ms(5), 1e9);
        let mut h = ChaosHarness::new(&cfg, net, seed, &plan, workload)
            .expect("generated scenario is valid");
        // Safety on every step: invariant 7 makes any leak to a
        // non-replica a violation in its own right.
        h.run(ms(2000))
            .unwrap_or_else(|v| panic!("seed {seed} safety: {v}\ncfg:\n{cfg_text}"));
        // Eventual stability: every stream's frontier covers its
        // publishes using replica acks alone.
        h.verify_liveness(SimDuration::from_secs(30))
            .unwrap_or_else(|v| panic!("seed {seed} liveness: {v}\ncfg:\n{cfg_text}"));
        // Non-replica isolation, asserted directly on the final state:
        // a node hosting no copy of a stream saw none of it.
        let placement = cfg.placement();
        for (i, row) in h.received_table().iter().enumerate() {
            for (s, &received) in row.iter().enumerate() {
                let stream = NodeId(s as u16);
                if i == s || placement.is_replica(stream, NodeId(i as u16)) {
                    continue;
                }
                assert_eq!(
                    received, 0,
                    "seed {seed}: non-replica n{i} holds part of stream {s}"
                );
                assert!(
                    h.delivery_order(i).iter().all(|&(o, _)| o as usize != s),
                    "seed {seed}: non-replica n{i} delivered from stream {s}"
                );
            }
        }
    }
}

/// Pinned determinism fingerprint for the no-placement baseline below.
/// If this moves, code outside the placement subsystem changed observable
/// behavior for configs that never mention `replicate` — exactly what
/// partial replication promised not to do.
const BASELINE_TRACE_HASH: u64 = 0xca78_e3ae_efff_d48f;

fn baseline_run(replicate_lines: &str) -> (u64, usize) {
    let cfg = ClusterConfig::parse(&format!(
        "az A n0 n1\naz B n2 n3\n\
         {replicate_lines}\
         predicate All MIN($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros 2000\n\
         option heartbeat_millis 50\n\
         option retransmit_millis 100\n"
    ))
    .unwrap();
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: ms(50),
            fault: Fault::Partition {
                side: vec![3],
                heal_after: ms(150),
            },
        }],
    };
    let workload: Vec<TimedWork> = (0..8)
        .map(|i| TimedWork {
            at: ms(10 + i * 30),
            item: WorkItem::Publish {
                node: (i % 4) as usize,
                len: 64 + i as usize,
            },
        })
        .collect();
    let net = NetTopology::full_mesh(4, ms(5), 1e9);
    let mut h = ChaosHarness::new(&cfg, net, 1234, &plan, workload).unwrap();
    let report = h.run(ms(1500)).unwrap();
    (report.trace_hash, report.trace_events)
}

#[test]
fn replicate_free_config_is_byte_identical_to_explicit_full_sets() {
    // Same topology, workload, faults, and seed; the only difference is
    // whether the full replica set is implicit or spelled out. The two
    // traces — every send, delivery, ack, frontier advance, in order —
    // must hash identically, and match the pinned pre-placement value.
    let (implicit_hash, implicit_events) = baseline_run("");
    let (explicit_hash, explicit_events) = baseline_run(
        "replicate n0 n0 n1 n2 n3\n\
         replicate n1 n0 n1 n2 n3\n\
         replicate n2 n0 n1 n2 n3\n\
         replicate n3 n0 n1 n2 n3\n",
    );
    assert_eq!(implicit_events, explicit_events);
    assert_eq!(
        implicit_hash, explicit_hash,
        "an explicit full-mesh `replicate` changed observable behavior"
    );
    assert_eq!(
        implicit_hash, BASELINE_TRACE_HASH,
        "a replicate-free config no longer replays to the pinned trace"
    );
}

// ---------------------------------------------------------------------
// Sim-vs-TCP differential under a placement-aware fault plan.
// ---------------------------------------------------------------------

const N: usize = 4;
const KEY: &str = "All";
const SEED: u64 = 2024;

/// Four nodes, each stream pinned to a ring of three, so every stream
/// has exactly one non-replica (stream 0's is n3, stream 1's is n0, ...).
fn ring_cfg() -> ClusterConfig {
    ClusterConfig::parse(
        "az East n0 n1\naz West n2 n3\n\
         replicate n0 n0 n1 n2\n\
         replicate n1 n1 n2 n3\n\
         replicate n2 n2 n3 n0\n\
         replicate n3 n3 n0 n1\n\
         predicate All MIN($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros 2000\n\
         option heartbeat_millis 20\n\
         option retransmit_millis 40\n\
         option failure_timeout_millis 150\n\
         option retain_log_bytes 262144\n\
         option transfer_millis 20\n",
    )
    .unwrap()
}

/// The fault plan is placement-aware by construction: the lossy link
/// n0 -> n1 is a replica edge of stream 0 (so retransmission must heal
/// a replica, not a bystander), and the crashed node n2 is a replica of
/// streams 0, 1, and 2 but NOT of stream 3 — its §III-E recovery must
/// catch up exactly the streams it hosts.
fn placement_plan() -> FaultPlan {
    FaultPlan {
        events: vec![
            FaultEvent {
                at: ms(20),
                fault: Fault::AsymmetricLoss {
                    from: 0,
                    to: 1,
                    probability: 0.5,
                    clear_after: ms(280),
                },
            },
            FaultEvent {
                at: ms(500),
                fault: Fault::CrashRestart {
                    node: 2,
                    down_for: ms(200),
                    persist_lag: SimDuration::ZERO,
                },
            },
        ],
    }
}

/// Publishes quiesce before the crash window opens (see sim_vs_tcp.rs:
/// in-flight traffic at a crash boundary is decided by racy transport
/// timing, which the final-state comparison must not depend on).
fn placement_workload() -> Vec<TimedWork> {
    let mut w: Vec<TimedWork> = (0..10)
        .map(|i| TimedWork {
            at: ms(10 + i * 20),
            item: WorkItem::Publish { node: 0, len: 48 },
        })
        .collect();
    w.extend((0..5).map(|i| TimedWork {
        at: ms(15 + i * 35),
        item: WorkItem::Publish { node: 3, len: 96 },
    }));
    w.sort_by_key(|w| w.at);
    w
}

#[test]
fn placement_aware_fault_plan_converges_identically_on_both_runtimes() {
    let net = NetTopology::full_mesh(N, ms(5), 1e9);
    let (cfg, plan) = (ring_cfg(), placement_plan());
    let secs = SimDuration::from_secs;
    let mut h = ChaosHarness::new(&cfg, net, SEED, &plan, placement_workload()).unwrap();
    let sim = converge(&mut h, secs(10), secs(10), KEY);
    let mut cluster = ChaosTcpCluster::new(&cfg, SEED, &plan, placement_workload()).unwrap();
    let tcp = converge(&mut cluster, ms(1000), secs(30), KEY);
    cluster.shutdown();
    assert_eq!(
        sim, tcp,
        "partial replication drove the two runtimes to different converged state"
    );
    // Both runtimes did the real work: full streams stable at replicas.
    assert_eq!(sim.frontiers[0], 10);
    assert_eq!(sim.frontiers[3], 5);
    assert_eq!(sim.deliveries[1][0], (1..=10).collect::<Vec<_>>());
    for i in [0usize, 1] {
        assert_eq!(sim.deliveries[i][3], (1..=5).collect::<Vec<_>>());
    }
    // The crashed replica n2 recovered its hosted stream through the
    // §III-E snapshot path (the restart rebuilds the actor, so its
    // delivery log only holds post-restart upcalls — and every publish
    // predates the crash), but its RECEIVED state is whole again...
    assert_eq!(sim.received[2][0], 10);
    // ...while the streams it does NOT host stayed at zero through the
    // same recovery: catch-up is scoped to the replica set.
    assert_eq!(sim.received[2][3], 0);
    // And the non-replicas stayed dark on either runtime: n3 hosts no
    // copy of stream 0, n2 none of stream 3.
    assert!(sim.deliveries[3][0].is_empty());
    assert!(sim.deliveries[2][3].is_empty());
    assert_eq!(sim.received[3][0], 0);
}
