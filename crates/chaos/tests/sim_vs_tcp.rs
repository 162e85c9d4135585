//! Differential tests: the same seeded workload and fault plan executed
//! on both runtimes — the deterministic netsim cluster and the real
//! threaded TCP cluster — must converge to the same protocol state.
//!
//! The two runtimes schedule differently (virtual event loop vs OS
//! threads and wall clock), so transient interleavings differ; what must
//! match is everything the protocol defines: which messages each node
//! delivers and in what per-origin order, every node's final RECEIVED
//! state, and each origin's final stability frontier. A divergence here
//! means the transport drives the sans-IO state machine differently
//! than the simulator — exactly the gap these tests pin shut.
//!
//! Faulted plans are timed so every publish burst quiesces before a
//! crash window opens: in-flight traffic at a crash boundary is decided
//! by racy transport timing, which is exactly the nondeterminism the
//! final-state comparison must not depend on.

mod common;

use common::converge;
use stabilizer_chaos::{
    ChaosHarness, ChaosTcpCluster, Fault, FaultEvent, FaultPlan, FinalState, TimedWork, WorkItem,
};
use stabilizer_core::ClusterConfig;
use stabilizer_netsim::{NetTopology, SimDuration};

const N: usize = 3;
const KEY: &str = "All";
const SEED: u64 = 1337;

fn cfg() -> ClusterConfig {
    // Failure detector and §III-E transfer enabled on both runtimes —
    // every chaos configuration runs with suspicion live.
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

fn workload() -> Vec<TimedWork> {
    let mut w: Vec<TimedWork> = (0..10)
        .map(|i| TimedWork {
            at: SimDuration::from_millis(10 + i * 20),
            item: WorkItem::Publish { node: 0, len: 48 },
        })
        .collect();
    w.extend((0..5).map(|i| TimedWork {
        at: SimDuration::from_millis(15 + i * 35),
        item: WorkItem::Publish { node: 2, len: 96 },
    }));
    w
}

fn sim_run(plan: &FaultPlan, workload: Vec<TimedWork>, horizon: SimDuration) -> FinalState {
    let net = NetTopology::full_mesh(N, SimDuration::from_millis(5), 1e9);
    let mut h = ChaosHarness::new(&cfg(), net, SEED, plan, workload).unwrap();
    converge(&mut h, horizon, SimDuration::from_secs(10), KEY)
}

fn tcp_run(plan: &FaultPlan, workload: Vec<TimedWork>, run_for: SimDuration) -> FinalState {
    let mut cluster = ChaosTcpCluster::new(&cfg(), SEED, plan, workload).unwrap();
    converge(&mut cluster, run_for, SimDuration::from_secs(30), KEY)
}

#[test]
fn netsim_and_tcp_converge_to_identical_final_state() {
    let plan = FaultPlan::default();
    let sim = sim_run(&plan, workload(), SimDuration::from_secs(10));
    let tcp = tcp_run(&plan, workload(), SimDuration::from_millis(400));
    assert_eq!(
        sim, tcp,
        "the two runtimes drove the same state machine to different outcomes"
    );
    // And both actually did the work: full streams delivered and stable.
    assert_eq!(sim.frontiers[0], 10);
    assert_eq!(sim.frontiers[2], 5);
    for (i, per_origin) in sim.deliveries.iter().enumerate() {
        if i != 0 {
            assert_eq!(per_origin[0], (1..=10).collect::<Vec<_>>());
        }
        if i != 2 {
            assert_eq!(per_origin[2], (1..=5).collect::<Vec<_>>());
        }
    }
}

#[test]
fn dup_reorder_converges_to_identical_final_state() {
    // Duplicate + reorder the busiest link (publisher 0 -> node 1) for
    // the whole publish window. The per-frame coin flips land differently
    // on the two runtimes — what must be identical is the converged
    // protocol state: delivery stays a per-origin prefix, so duplicated
    // and swapped frames change nothing the protocol defines.
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: SimDuration::from_millis(20),
            fault: Fault::DupReorder {
                from: 0,
                to: 1,
                dup_probability: 0.4,
                reorder_probability: 0.4,
                clear_after: SimDuration::from_millis(300),
            },
        }],
    };
    let sim = sim_run(&plan, workload(), SimDuration::from_secs(10));
    let tcp = tcp_run(&plan, workload(), SimDuration::from_millis(500));
    assert_eq!(
        sim, tcp,
        "dup/reorder made the runtimes diverge in converged state"
    );
    assert_eq!(sim.frontiers[0], 10);
    assert_eq!(sim.frontiers[2], 5);
    for (i, per_origin) in sim.deliveries.iter().enumerate() {
        if i != 0 {
            assert_eq!(per_origin[0], (1..=10).collect::<Vec<_>>());
        }
    }
}

/// Workload for the correlated-crash differential: a first burst that
/// fully quiesces before the crash window at 500ms, and a second burst
/// well after the last restart, so every delivery is unambiguously on
/// one side of the crash on both runtimes.
fn two_phase_workload() -> Vec<TimedWork> {
    let mut w: Vec<TimedWork> = (0..5)
        .map(|i| TimedWork {
            at: SimDuration::from_millis(10 + i * 20),
            item: WorkItem::Publish { node: 0, len: 48 },
        })
        .collect();
    w.extend((0..3).map(|i| TimedWork {
        at: SimDuration::from_millis(15 + i * 35),
        item: WorkItem::Publish { node: 2, len: 96 },
    }));
    w.extend((0..5).map(|i| TimedWork {
        at: SimDuration::from_millis(1100 + i * 20),
        item: WorkItem::Publish { node: 0, len: 48 },
    }));
    w.extend((0..2).map(|i| TimedWork {
        at: SimDuration::from_millis(1110 + i * 35),
        item: WorkItem::Publish { node: 2, len: 96 },
    }));
    w.sort_by_key(|w| w.at);
    w
}

#[test]
fn correlated_crash_converges_to_identical_final_state() {
    // Nodes 1 and 2 go down together (spread 20ms), restart staggered.
    // Both runtimes must resume delivery from the same snapshot point
    // and converge to the same totals after the second publish burst.
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: SimDuration::from_millis(500),
            fault: Fault::CorrelatedCrash {
                nodes: vec![1, 2],
                spread: SimDuration::from_millis(20),
                down_for: SimDuration::from_millis(200),
                stagger: SimDuration::from_millis(50),
            },
        }],
    };
    let sim = sim_run(&plan, two_phase_workload(), SimDuration::from_secs(10));
    let tcp = tcp_run(&plan, two_phase_workload(), SimDuration::from_millis(1400));
    assert_eq!(
        sim, tcp,
        "correlated crash made the runtimes diverge in converged state"
    );
    // Phase-1 deliveries landed before the crash, so the restarted
    // incarnations' logs hold exactly the phase-2 suffix.
    assert_eq!(sim.frontiers[0], 10);
    assert_eq!(sim.frontiers[2], 5);
    for i in [1usize, 2] {
        assert_eq!(
            sim.deliveries[i][0],
            (6..=10).collect::<Vec<_>>(),
            "node {i} should resume stream 0 after the snapshot point"
        );
    }
    assert_eq!(sim.deliveries[0][2], (1..=5).collect::<Vec<_>>());
    assert_eq!(sim.deliveries[1][2], (4..=5).collect::<Vec<_>>());
}
