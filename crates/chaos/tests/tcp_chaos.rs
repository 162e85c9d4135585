//! End-to-end chaos over the real TCP transport: the declarative fault
//! plans and the invariant checker, run against the unmodified link
//! layer and runtime on the in-memory net, in virtual time.
//!
//! Replay: the smoke scenario takes its seed from `CHAOS_TCP_SEED`
//! (default 42), so a failing run's seed can be replayed with
//! `CHAOS_TCP_SEED=<seed> cargo test -p stabilizer-chaos --test
//! tcp_chaos`.

mod acceptance;

use acceptance::{publishes, run_acceptance, tcp_cfg};
use stabilizer_chaos::{ChaosTcpCluster, FaultPlan, Scenario};
use stabilizer_core::{Ack, ClusterConfig, NodeId, WireMsg};
use stabilizer_dsl::RECEIVED;
use stabilizer_netsim::SimDuration;

fn env_seed() -> u64 {
    std::env::var("CHAOS_TCP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

#[test]
fn seeded_fault_plan_passes_all_invariants_on_tcp() {
    let seed = env_seed();
    let (table, frontier0, frontier2, _) = run_acceptance(seed);
    // Everything published stabilized everywhere: 20 messages of stream
    // 0, 6 of stream 2, on every other node.
    for (i, row) in table.iter().enumerate() {
        if i != 0 {
            assert_eq!(row[0], 20, "node {i} missed stream 0 traffic: {row:?}");
        }
        if i != 2 {
            assert_eq!(row[2], 6, "node {i} missed stream 2 traffic: {row:?}");
        }
    }
    assert_eq!(frontier0, 20, "origin 0's frontier did not converge");
    assert_eq!(frontier2, 6, "origin 2's frontier did not converge");
}

#[test]
fn same_seed_replays_to_the_same_verdict_and_final_state() {
    let a = run_acceptance(7);
    let b = run_acceptance(7);
    // The run is single-threaded and in virtual time: the verdict (both
    // clean — the panics above are the failure path), the converged
    // protocol state and the whole trace must be identical.
    assert_eq!(a, b);
}

#[test]
fn forged_ack_trips_belief_beyond_truth_on_real_sockets() {
    // Mutation check: corrupt the protocol from outside (a forged
    // control-plane message claiming node 1 acknowledged far beyond what
    // it ever received) and prove the checker catches it on the real
    // transport.
    let cfg = tcp_cfg();
    let mut cluster =
        ChaosTcpCluster::new(&cfg, 5, &FaultPlan::default(), publishes(0, 5, 30)).unwrap();
    cluster
        .run(SimDuration::from_millis(400))
        .unwrap_or_else(|v| panic!("clean warmup violated an invariant: {v}"));
    cluster.handle(2).inject_message(
        NodeId(1),
        WireMsg::AckBatch(vec![Ack {
            stream: NodeId(0),
            ty: RECEIVED,
            seq: 999,
        }]),
    );
    let violation = cluster
        .check_now()
        .expect_err("the checker must flag the forged acknowledgment");
    assert_eq!(violation.property, "belief-beyond-truth");
    assert_eq!(violation.node, 2);
    cluster.shutdown();
}

/// With the mutation feature on, the ACK recorder's monotonic clamp is
/// gone: a stale (re-ordered or replayed) acknowledgment makes a cell
/// regress, and the checker's shadow table must catch it over TCP.
#[cfg(feature = "chaos-unclamped-acks")]
#[test]
fn stale_ack_regression_is_caught_when_clamp_is_broken() {
    let cfg = tcp_cfg();
    let mut cluster =
        ChaosTcpCluster::new(&cfg, 6, &FaultPlan::default(), publishes(0, 5, 30)).unwrap();
    cluster
        .run(SimDuration::from_millis(400))
        .unwrap_or_else(|v| panic!("clean warmup violated an invariant: {v}"));
    cluster
        .verify_liveness(SimDuration::from_secs(30))
        .unwrap_or_else(|v| panic!("warmup did not stabilize: {v}"));
    // Node 2's belief about node 1's RECEIVED of stream 0 is now 5 (the
    // whole stream). Check once so the shadow table records it...
    cluster.check_now().unwrap();
    // ...then replay a stale ack. Clamped, this is a no-op; unclamped,
    // the cell regresses 5 -> 3.
    cluster.handle(2).inject_message(
        NodeId(1),
        WireMsg::AckBatch(vec![Ack {
            stream: NodeId(0),
            ty: RECEIVED,
            seq: 3,
        }]),
    );
    let violation = cluster
        .check_now()
        .expect_err("the checker must flag the recorder regression");
    assert_eq!(violation.property, "ack-monotonicity");
    cluster.shutdown();
}

/// The simulator sweep's randomized scenarios — every fault kind the
/// generator draws, on its topologies' configurations — run on the
/// transport too: safe throughout, and live once the faults clear.
#[test]
fn randomized_scenarios_pass_on_the_transport() {
    for seed in 1..=20 {
        let s = Scenario::from_seed(seed);
        let cfg = ClusterConfig::parse(&s.cfg_text).unwrap();
        let mut cluster = ChaosTcpCluster::new(&cfg, seed, &s.plan, s.workload.clone()).unwrap();
        cluster
            .run(s.horizon)
            .unwrap_or_else(|v| panic!("scenario seed {seed}: safety violation: {v}"));
        cluster
            .verify_liveness(SimDuration::from_secs(30))
            .unwrap_or_else(|v| panic!("scenario seed {seed}: liveness violation: {v}"));
    }
}
