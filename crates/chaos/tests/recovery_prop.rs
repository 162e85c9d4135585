//! Property test for §III-E recovery: randomized crash/rejoin/join
//! schedules over randomized topologies, asserting that every safety
//! invariant holds throughout and that the cluster is *live* — every
//! message published before the last fault clears stabilizes once the
//! network has been quiet long enough.
//!
//! The publisher (node 0) is never faulted, so the full stream is
//! always published; each other node may crash/restart once or join
//! late once. The retained log is kept deliberately small (2 KiB) so
//! crash windows past the failure timeout routinely force the
//! snapshot fast-forward path, not just plain replay.

use proptest::prelude::*;
use stabilizer_chaos::{ChaosHarness, Fault, FaultEvent, FaultPlan, TimedWork, WorkItem};
use stabilizer_core::ClusterConfig;
use stabilizer_dsl::{NodeId, RECEIVED};
use stabilizer_netsim::{NetTopology, SimDuration};

/// One randomized recovery scenario.
#[derive(Debug, Clone)]
struct Schedule {
    seed: u64,
    n: usize,
    publish_count: usize,
    /// `(node, at_ms, crash_down_ms)`; `None` down-time means the node
    /// is absent at boot and joins at `at_ms` instead.
    faults: Vec<(usize, u64, Option<u64>)>,
}

fn cfg(n: usize) -> ClusterConfig {
    // Split the nodes over two azs so the predicate macros see a
    // non-trivial topology regardless of n.
    let split = n / 2;
    let mut text = String::from("az East");
    for i in 0..split {
        text.push_str(&format!(" w{i}"));
    }
    text.push_str("\naz West");
    for i in split..n {
        text.push_str(&format!(" w{i}"));
    }
    text.push_str(
        "\npredicate All MIN($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros 1000\n\
         option heartbeat_millis 20\n\
         option retransmit_millis 40\n\
         option failure_timeout_millis 120\n\
         option retain_log_bytes 2048\n\
         option transfer_millis 20\n\
         option transfer_window 4\n",
    );
    ClusterConfig::parse(&text).unwrap()
}

fn schedules() -> impl Strategy<Value = Schedule> {
    (3usize..=5).prop_flat_map(|n| {
        (
            any::<u64>(),
            8usize..=20,
            proptest::collection::vec(
                (1..n, 100u64..600, proptest::option::of(150u64..400)),
                1..=2,
            ),
        )
            .prop_map(move |(seed, publish_count, raw)| {
                // At most one fault per node: a node can't join twice,
                // and a joiner can't have crashed before it existed.
                let mut faults: Vec<(usize, u64, Option<u64>)> = Vec::new();
                for f in raw {
                    if !faults.iter().any(|g| g.0 == f.0) {
                        faults.push(f);
                    }
                }
                Schedule {
                    seed,
                    n,
                    publish_count,
                    faults,
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn randomized_recovery_schedules_stay_safe_and_live(s in schedules()) {
        let cfg = cfg(s.n);
        let net = NetTopology::full_mesh(s.n, SimDuration::from_millis(5), 1e9);
        let plan = FaultPlan {
            events: s
                .faults
                .iter()
                .map(|&(node, at, down)| FaultEvent {
                    at: SimDuration::from_millis(at),
                    fault: match down {
                        Some(down_ms) => Fault::CrashRestart {
                            node,
                            down_for: SimDuration::from_millis(down_ms),
                            persist_lag: SimDuration::ZERO,
                        },
                        None => Fault::Join { node },
                    },
                })
                .collect(),
        };
        let workload: Vec<TimedWork> = (0..s.publish_count)
            .map(|i| TimedWork {
                at: SimDuration::from_millis(10 + i as u64 * 20),
                item: WorkItem::Publish { node: 0, len: 64 },
            })
            .collect();

        // Every fault clears by 600 + 400 = 1000 ms and publishing ends
        // by 410 ms; everything after that is quiet time for catch-up.
        let mut h = ChaosHarness::new(&cfg, net, s.seed, &plan, workload).unwrap();
        let report = h.run(SimDuration::from_millis(4500));
        prop_assert!(report.is_ok(), "safety violation in {s:?}: {:?}", report.err());

        // Liveness: the whole published stream is received everywhere
        // and the origin's MIN-of-everyone frontier is fully satisfied.
        let target = s.publish_count as u64;
        for i in 1..s.n {
            let node = h.sim().actor(i).inner();
            let got = node.recorder().get(NodeId(0), node.me(), RECEIVED);
            prop_assert_eq!(
                got, target,
                "node {} stalled at {}/{} in {:?}", i, got, target, &s
            );
        }
        let frontier = h
            .sim()
            .actor(0)
            .inner()
            .stability_frontier(NodeId(0), "All")
            .map(|(seq, _)| seq)
            .unwrap_or(0);
        prop_assert_eq!(frontier, target, "frontier stalled in {:?}", &s);
    }
}
