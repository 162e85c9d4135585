//! The TCP chaos acceptance scenario — partition, asymmetric loss and a
//! crash/restart over a 3-node cluster — shared by `tcp_chaos.rs` and
//! the trace-hash pin in `replay_determinism.rs`.

use stabilizer_chaos::{ChaosTcpCluster, Fault, FaultEvent, FaultPlan, TimedWork, WorkItem};
use stabilizer_core::ClusterConfig;
use stabilizer_netsim::SimDuration;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

pub fn tcp_cfg() -> ClusterConfig {
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

pub fn publishes(node: usize, count: usize, every_ms: u64) -> Vec<TimedWork> {
    (0..count)
        .map(|i| TimedWork {
            at: ms(10 + i as u64 * every_ms),
            item: WorkItem::Publish { node, len: 64 },
        })
        .collect()
}

/// Partition + asymmetric loss + crash/restart — the TCP chaos acceptance
/// scenario.
pub fn acceptance_plan() -> FaultPlan {
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

pub fn acceptance_workload() -> Vec<TimedWork> {
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

/// Run the acceptance scenario once: schedule + safety sweep, then the
/// liveness check. Returns the final RECEIVED table, the two origins'
/// frontiers and the run's trace hash.
pub fn run_acceptance(seed: u64) -> (Vec<Vec<u64>>, u64, u64, u64) {
    let cfg = tcp_cfg();
    let mut cluster = ChaosTcpCluster::new(&cfg, seed, &acceptance_plan(), acceptance_workload())
        .unwrap_or_else(|e| panic!("setup failed: {e}"));
    let report = cluster
        .run(SimDuration::from_millis(1400))
        .unwrap_or_else(|v| panic!("safety violation (replay: CHAOS_TCP_SEED={seed}): {v}"));
    assert!(
        report.steps > 0,
        "the run must actually step and sweep invariants"
    );
    cluster
        .verify_liveness(SimDuration::from_secs(30))
        .unwrap_or_else(|v| panic!("liveness violation (replay: CHAOS_TCP_SEED={seed}): {v}"));
    let frontier0 = cluster.frontier(0, 0, "All").unwrap_or(0);
    let frontier2 = cluster.frontier(2, 2, "All").unwrap_or(0);
    let table = cluster.received_table();
    let hash = cluster.trace_hash();
    cluster.shutdown();
    (table, frontier0, frontier2, hash)
}
