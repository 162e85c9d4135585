//! End-to-end chaos over the real TCP transport: the declarative fault
//! plans and the invariant checker, run against actual sockets and
//! threads through the fault-injecting proxy layer.
//!
//! Replay: the smoke scenario takes its seed from `CHAOS_TCP_SEED`
//! (default 42), so a failing run's seed can be replayed with
//! `CHAOS_TCP_SEED=<seed> cargo test -p stabilizer-chaos --test
//! tcp_chaos`.

use stabilizer_chaos::{ChaosTcpCluster, Fault, FaultEvent, FaultPlan, TimedWork, WorkItem};
use stabilizer_core::{Ack, ClusterConfig, NodeId, WireMsg};
use stabilizer_dsl::RECEIVED;
use stabilizer_netsim::SimDuration;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn tcp_cfg() -> ClusterConfig {
    // Failure detector ON: the 400 ms crash window exceeds the 150 ms
    // suspicion timeout, so the donor evicts the crashed peer from
    // send-buffer retention mid-window — and the restarted node recovers
    // the evicted tail via §III-E state transfer (snapshot + retained
    // log replay) instead of plain retransmission.
    ClusterConfig::parse(
        "az East e1 e2\naz West w1\n\
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

fn publishes(node: usize, count: usize, every_ms: u64) -> Vec<TimedWork> {
    (0..count)
        .map(|i| TimedWork {
            at: ms(10 + i as u64 * every_ms),
            item: WorkItem::Publish { node, len: 64 },
        })
        .collect()
}

/// Partition + asymmetric loss + crash/restart — the issue's acceptance
/// scenario.
fn acceptance_plan() -> FaultPlan {
    FaultPlan {
        events: vec![
            FaultEvent {
                at: ms(100),
                fault: Fault::AsymmetricLoss {
                    from: 0,
                    to: 1,
                    probability: 0.15,
                    clear_after: ms(400),
                },
            },
            FaultEvent {
                at: ms(150),
                fault: Fault::Partition {
                    side: vec![2],
                    heal_after: ms(250),
                },
            },
            FaultEvent {
                at: ms(600),
                fault: Fault::CrashRestart {
                    node: 1,
                    down_for: ms(400),
                },
            },
        ],
    }
}

fn acceptance_workload() -> Vec<TimedWork> {
    let mut w = publishes(0, 20, 40);
    w.extend(publishes(2, 6, 100));
    w.push(TimedWork {
        at: ms(30),
        item: WorkItem::WaitFor {
            node: 0,
            stream: 0,
            key: "All".into(),
            seq: 5,
        },
    });
    w
}

fn env_seed() -> u64 {
    std::env::var("CHAOS_TCP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Run the acceptance scenario once: schedule + safety sweep, then the
/// wall-clock-bounded liveness check. Returns the final protocol state
/// for cross-run comparison.
fn run_acceptance(seed: u64) -> (Vec<Vec<u64>>, u64, u64) {
    let cfg = tcp_cfg();
    let mut cluster = ChaosTcpCluster::new(&cfg, seed, &acceptance_plan(), acceptance_workload())
        .unwrap_or_else(|e| panic!("setup failed: {e}"));
    let report = cluster
        .run(SimDuration::from_millis(1400))
        .unwrap_or_else(|v| panic!("safety violation (replay: CHAOS_TCP_SEED={seed}): {v}"));
    assert!(report.checks > 0, "the run must actually sweep invariants");
    cluster
        .verify_liveness(SimDuration::from_secs(30))
        .unwrap_or_else(|v| panic!("liveness violation (replay: CHAOS_TCP_SEED={seed}): {v}"));
    let frontier0 = cluster.frontier(0, 0, "All").unwrap_or(0);
    let frontier2 = cluster.frontier(2, 2, "All").unwrap_or(0);
    let table = cluster.received_table();
    cluster.shutdown();
    (table, frontier0, frontier2)
}

#[test]
fn seeded_fault_plan_passes_all_invariants_on_tcp() {
    let seed = env_seed();
    let (table, frontier0, frontier2) = run_acceptance(seed);
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
    // Wall-clock interleavings differ run to run, but the verdict (both
    // clean — the panics above are the failure path) and the converged
    // protocol state must be identical.
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
