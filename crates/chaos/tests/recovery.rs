//! The §III-E recovery suite: crash-past-eviction and live-join
//! scenarios on both runtimes, proving snapshot + retained-log catch-up
//! brings a node all the way back into a satisfied stability frontier.
//!
//! Structure:
//! - simulator: crash past the eviction window (small retained log
//!   forces a snapshot fast-forward), resumable transfer across a second
//!   crash, and a live membership join;
//! - TCP: the same crash-past-eviction and join scenarios over real
//!   sockets, plus the pre-fix stall regression pin (`transfer_millis
//!   0` reproduces the permanent stall the detector-off escape hatch
//!   used to hide; enabling transfer resolves it);
//! - differential: the same seeded recovery scenario on both runtimes
//!   must converge to the same post-recovery protocol state.

mod common;

use common::converge;
use stabilizer_chaos::{
    Backend, Chaos, ChaosHarness, ChaosTcpCluster, Fault, FaultEvent, FaultPlan, TimedWork,
    WorkItem,
};
use stabilizer_core::ClusterConfig;
use stabilizer_dsl::SeqNo;
use stabilizer_netsim::{NetTopology, SimDuration};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Three nodes, failure detector ON, §III-E transfer armed. The tiny
/// retained log (`retain_log_bytes`) is the point: a crash window longer
/// than `failure_timeout_millis` evicts the suspect from send-buffer
/// retention, the retained log only keeps the tail, and recovery *must*
/// fast-forward over the evicted prefix (a visible catch-up event)
/// before replaying the rest.
fn recovery_cfg(transfer_millis: u64, retain_log_bytes: u64) -> ClusterConfig {
    ClusterConfig::parse(&format!(
        "az East e1 e2\naz West w1\n\
         predicate All MIN($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros 1000\n\
         option heartbeat_millis 20\n\
         option retransmit_millis 40\n\
         option failure_timeout_millis 120\n\
         option retain_log_bytes {retain_log_bytes}\n\
         option transfer_millis {transfer_millis}\n\
         option transfer_window 4\n"
    ))
    .unwrap()
}

fn publishes(node: usize, count: usize, every_ms: u64, len: usize) -> Vec<TimedWork> {
    (0..count)
        .map(|i| TimedWork {
            at: ms(10 + i as u64 * every_ms),
            item: WorkItem::Publish { node, len },
        })
        .collect()
}

fn crash(node: usize, at: u64, down_for: u64) -> FaultEvent {
    FaultEvent {
        at: ms(at),
        fault: Fault::CrashRestart {
            node,
            down_for: ms(down_for),
            persist_lag: SimDuration::ZERO,
        },
    }
}

/// Full re-participation: `node` holds the entire stream 0 again, and
/// the origin's frontier under the MIN-of-everyone predicate (which
/// needs `node`'s acknowledgments) is fully satisfied.
fn assert_rejoined<B: Backend>(h: &Chaos<B>, node: usize, published: SeqNo) {
    assert_eq!(
        h.received_table()[node][0],
        published,
        "node {node} is missing stream 0 traffic"
    );
    assert_eq!(
        h.frontier(0, 0, "All").unwrap_or(0),
        published,
        "origin frontier not satisfied after the rejoin"
    );
}

// ---------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------

#[test]
fn sim_crash_past_eviction_recovers_via_snapshot_catch_up() {
    let cfg = recovery_cfg(20, 600);
    let net = NetTopology::full_mesh(3, ms(5), 1e9);
    let plan = FaultPlan {
        events: vec![crash(2, 100, 600)],
    };
    let mut h = ChaosHarness::new(&cfg, net, 21, &plan, publishes(0, 25, 20, 64)).unwrap();
    h.run(ms(4000))
        .unwrap_or_else(|v| panic!("safety violation: {v}"));

    // The restarted node was fast-forwarded out of band at least once:
    // the donor's retained log (600 bytes) cannot cover the whole
    // eviction gap, so recovery had to jump via the snapshot.
    let catchups = h.catchup_events(2);
    assert!(
        catchups.iter().any(|&(stream, _)| stream == 0),
        "no catch-up event for stream 0 on the restarted node: {catchups:?}"
    );
    assert_rejoined(&h, 2, 25);
}

#[test]
fn sim_transfer_resumes_across_a_second_crash() {
    // transfer_window 1 + 5 ms links make the transfer take many
    // round-trips, so the second crash lands mid-transfer; the third
    // incarnation restarts catch-up from its (partially caught-up)
    // snapshot rather than from scratch, and still converges.
    let cfg = ClusterConfig::parse(
        "az East e1 e2\naz West w1\n\
         predicate All MIN($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros 1000\n\
         option heartbeat_millis 20\n\
         option retransmit_millis 40\n\
         option failure_timeout_millis 120\n\
         option retain_log_bytes 600\n\
         option transfer_millis 20\n\
         option transfer_window 1\n",
    )
    .unwrap();
    let net = NetTopology::full_mesh(3, ms(5), 1e9);
    let plan = FaultPlan {
        events: vec![crash(2, 100, 500), crash(2, 680, 250)],
    };
    let mut h = ChaosHarness::new(&cfg, net, 33, &plan, publishes(0, 25, 18, 64)).unwrap();
    let report = h
        .run(ms(5000))
        .unwrap_or_else(|v| panic!("safety violation: {v}"));
    assert!(report.dropped > 0, "both crash windows should drop traffic");
    assert_rejoined(&h, 2, 25);
}

#[test]
fn sim_live_join_catches_up_and_joins_the_frontier() {
    // Node 2 is absent from boot and joins at 500 ms — after the whole
    // stream was published and (past the failure timeout) evicted from
    // retention for the missing member. The joiner starts from nothing:
    // everything it gets comes through §III-E transfer.
    let cfg = recovery_cfg(20, 600);
    let net = NetTopology::full_mesh(3, ms(5), 1e9);
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: ms(500),
            fault: Fault::Join { node: 2 },
        }],
    };
    let mut h = ChaosHarness::new(&cfg, net, 55, &plan, publishes(0, 20, 20, 64)).unwrap();
    h.run(ms(4000))
        .unwrap_or_else(|v| panic!("safety violation: {v}"));

    assert!(
        !h.catchup_events(2).is_empty(),
        "a fresh joiner past the eviction window must fast-forward"
    );
    assert_rejoined(&h, 2, 20);
}

#[test]
fn sim_recovery_replays_deterministically() {
    let run = || {
        let cfg = recovery_cfg(20, 600);
        let net = NetTopology::full_mesh(3, ms(5), 1e9);
        let plan = FaultPlan {
            events: vec![
                crash(2, 100, 600),
                FaultEvent {
                    at: ms(150),
                    fault: Fault::Join { node: 1 },
                },
            ],
        };
        let mut h = ChaosHarness::new(&cfg, net, 77, &plan, publishes(0, 15, 25, 64)).unwrap();
        h.run(ms(3500))
            .unwrap_or_else(|v| panic!("safety violation: {v}"))
            .trace_hash
    };
    assert_eq!(
        run(),
        run(),
        "recovery paths leaked nondeterminism into the trace"
    );
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// Run a TCP cluster through its schedule and demand convergence.
fn tcp_recovers(cluster: &mut ChaosTcpCluster, run_for: u64) {
    cluster
        .run(ms(run_for))
        .unwrap_or_else(|v| panic!("safety violation: {v}"));
    cluster
        .verify_liveness(SimDuration::from_secs(30))
        .unwrap_or_else(|v| panic!("liveness violation: {v}"));
}

#[test]
fn tcp_crash_past_eviction_recovers_via_snapshot_catch_up() {
    let cfg = recovery_cfg(20, 1024);
    let plan = FaultPlan {
        events: vec![crash(1, 200, 400)],
    };
    let mut cluster = ChaosTcpCluster::new(&cfg, 91, &plan, publishes(0, 25, 25, 64)).unwrap();
    tcp_recovers(&mut cluster, 1200);

    let catchups = cluster.catchup_events(1);
    assert!(
        catchups.iter().any(|&(stream, _)| stream == 0),
        "restarted node recovered without a catch-up event: {catchups:?}"
    );
    assert_rejoined(&cluster, 1, 25);
}

#[test]
fn tcp_live_join_catches_up_and_joins_the_frontier() {
    let cfg = recovery_cfg(20, 1024);
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: ms(500),
            fault: Fault::Join { node: 2 },
        }],
    };
    let mut cluster = ChaosTcpCluster::new(&cfg, 92, &plan, publishes(0, 20, 20, 64)).unwrap();
    tcp_recovers(&mut cluster, 900);
    assert_rejoined(&cluster, 2, 20);
}

/// A crash window past the eviction timeout, and every frame from the
/// donor to the restarted node lost for the 200 ms around its return. A
/// connect across a cut link stays in flight, so what the donor
/// published during the window waits in its own queue; losing it as the
/// link reconnects is what makes the restarted node need the evicted
/// tail from the donor's send buffer.
fn eviction_plan() -> FaultPlan {
    FaultPlan {
        events: vec![
            crash(1, 200, 400),
            FaultEvent {
                at: ms(590),
                fault: Fault::AsymmetricLoss {
                    from: 0,
                    to: 1,
                    probability: 1.0,
                    clear_after: ms(200),
                },
            },
        ],
    }
}

/// The pre-fix permanent stall, pinned: failure detector ON, a crash
/// window past the eviction timeout, retransmission running — and
/// `transfer_millis 0` (state transfer disabled). The donor evicts the
/// tail the restarted node needs, retransmit cannot resupply it, and
/// liveness never converges. This is exactly the stall the old
/// `failure-detector-off` escape hatch in these scenarios papered over.
#[test]
fn tcp_eviction_without_transfer_stalls_permanently() {
    let cfg = recovery_cfg(0, 0); // transfer disabled, nothing retained
    let plan = eviction_plan();
    let mut cluster = ChaosTcpCluster::new(&cfg, 93, &plan, publishes(0, 20, 25, 64)).unwrap();
    // Safety still holds throughout — the stall is a liveness failure.
    cluster
        .run(ms(1100))
        .unwrap_or_else(|v| panic!("safety violation: {v}"));
    let violation = cluster
        .verify_liveness(SimDuration::from_secs(2))
        .expect_err("eviction without state transfer must stall");
    assert_eq!(violation.property, "post-fault-liveness");
}

/// The same scenario with transfer enabled converges — the regression
/// guard for the fix itself.
#[test]
fn tcp_transfer_resolves_the_eviction_stall() {
    let cfg = recovery_cfg(20, 1024);
    let plan = eviction_plan();
    let mut cluster = ChaosTcpCluster::new(&cfg, 93, &plan, publishes(0, 20, 25, 64)).unwrap();
    tcp_recovers(&mut cluster, 1100);
}

// ---------------------------------------------------------------------
// Differential: netsim vs TCP after recovery
// ---------------------------------------------------------------------

/// Post-recovery protocol state must agree across runtimes for the same
/// seeded scenario. Exact delivery logs can differ *on the recovering
/// node only* (its snapshot point, and therefore how much arrives via
/// fast-forward vs replay, is timing-dependent on TCP); what must match
/// is everything the protocol defines: final RECEIVED tables, final
/// frontier sequences, and — per node and origin — that catch-ups plus
/// deliveries compose to exactly the full published prefix.
#[test]
fn netsim_and_tcp_agree_on_post_recovery_state() {
    const SEED: u64 = 4242;
    const PUBLISHED: SeqNo = 12;
    let cfg = recovery_cfg(20, 262_144);
    let plan = FaultPlan {
        events: vec![crash(1, 150, 300)],
    };
    let workload = publishes(0, PUBLISHED as usize, 30, 48);
    let secs = SimDuration::from_secs;

    let net = NetTopology::full_mesh(3, ms(5), 1e9);
    let mut h = ChaosHarness::new(&cfg, net, SEED, &plan, workload.clone()).unwrap();
    let sim = converge(&mut h, ms(6000), secs(10), "All");
    let sim_coverage = stream0_coverage(&h);

    let mut cluster = ChaosTcpCluster::new(&cfg, SEED, &plan, workload).unwrap();
    let tcp = converge(&mut cluster, ms(1000), secs(30), "All");
    let tcp_coverage = stream0_coverage(&cluster);
    cluster.shutdown();

    assert_eq!(sim.received, tcp.received, "RECEIVED tables diverged");
    assert_eq!(sim.frontiers, tcp.frontiers, "frontier sequences diverged");
    assert_eq!(sim.frontiers[0], PUBLISHED);
    assert_eq!(
        sim_coverage, tcp_coverage,
        "post-recovery stream coverage diverged"
    );
    assert!(
        sim_coverage.iter().all(|&c| c == PUBLISHED),
        "both runtimes must cover the full published prefix, got {sim_coverage:?}"
    );
}

/// Per subscriber of stream 0: the highest `p` such that `1..=p` is
/// covered by the catch-up floor plus in-band deliveries (the current
/// incarnation's view; deliveries before the last restart arrive via the
/// snapshot and are subsumed by the floor or the replayed suffix).
fn stream0_coverage<B: Backend>(h: &Chaos<B>) -> Vec<SeqNo> {
    (1..3)
        .map(|i| {
            let floor = h
                .catchup_events(i)
                .iter()
                .filter(|&&(s, _)| s == 0)
                .map(|&(_, seq)| seq)
                .max()
                .unwrap_or(0);
            let mut seqs: Vec<SeqNo> = h
                .delivery_order(i)
                .into_iter()
                .filter(|&(o, seq)| o == 0 && seq > floor)
                .map(|(_, seq)| seq)
                .collect();
            seqs.sort_unstable();
            seqs.dedup();
            let mut covered = floor;
            for s in seqs {
                if s == covered + 1 {
                    covered = s;
                }
            }
            covered
        })
        .collect()
}
