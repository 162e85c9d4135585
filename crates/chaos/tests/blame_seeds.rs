//! The frontier blame diagnoser against the PR-7 liveness-sweep seeds
//! that stall mid-run: on the deterministic simulator, freezing the run
//! inside the fault window must produce a `StallReport` naming the
//! actual culprit (node, stream) pair, pinned exactly. A deliberately
//! unrecoverable stall must attach that blame to the
//! `post-fault-liveness` violation, and on the TCP runtime `/stall`
//! must go quiet once `verify_liveness` passes.

use stabilizer_chaos::{
    ChaosHarness, ChaosTcpCluster, Fault, FaultEvent, FaultPlan, Scenario, TimedWork, WorkItem,
};
use stabilizer_core::{ClusterConfig, NodeId, StallReport};
use stabilizer_netsim::SimDuration;
use stabilizer_telemetry::{http_get, parse_json, Telemetry};
use std::sync::Arc;

/// Run scenario `seed` to `freeze_at` and return every stalled report
/// tagged with its observing node.
fn stalled_at(seed: u64, freeze_at: SimDuration) -> Vec<(u16, StallReport)> {
    let s = Scenario::from_seed(seed);
    let cfg = ClusterConfig::parse(&s.cfg_text).expect("generated config parses");
    let mut h = ChaosHarness::new(
        &cfg,
        s.topology.build(),
        s.seed,
        &s.plan,
        s.workload.clone(),
    )
    .expect("scenario is valid");
    h.run(freeze_at).expect("safety holds while stalled");
    h.stall_reports()
        .into_iter()
        .filter(|(_, r)| r.stalled)
        .collect()
}

#[test]
fn seed_503_blames_the_partitioned_minority() {
    // Seed 503 partitions {2,3,4} from {0,1} at 182ms (healing at
    // 417ms). Frozen at 438ms — after heal, while repair is still in
    // flight — origin 3's "All" frontier is stalled one publish short,
    // and the blame names exactly the far side of the healed partition:
    // nodes 0 and 1, each one RECEIVED ack behind on stream 3.
    let stalled = stalled_at(503, SimDuration::from_millis(438));
    let (_, report) = stalled
        .iter()
        .find(|(observer, r)| *observer == 3 && r.stream == NodeId(3) && r.key == "All")
        .expect("origin 3's All frontier is stalled at 438ms");
    assert_eq!(report.frontier, 3);
    assert_eq!(report.target, 4);
    assert!(report.stalled);
    let culprits: Vec<u16> = report.blamed.iter().map(|b| b.node.0).collect();
    assert_eq!(
        culprits,
        vec![0, 1],
        "the actual culprit (node, stream) pairs are (0, 3) and (1, 3): {}",
        report.render_human()
    );
    for b in &report.blamed {
        assert_eq!(b.ack_type_name, "received");
        assert_eq!(b.have, 3);
        assert_eq!(b.need, 4);
    }
}

#[test]
fn seed_538_blames_the_cheapest_laggard_under_max() {
    // Seed 538 isolates node 2 at 615ms and late-joins node 1 at 234ms.
    // Frozen at 850ms, origin 1's stream is the one stalled; under the
    // One = MAX(...) predicate the blame is the single cheapest cell to
    // advance — node 0, RECEIVED 1 of 4 on stream 1 — so the diagnosis
    // names the culprit pair (node 0, stream 1).
    let stalled = stalled_at(538, SimDuration::from_millis(850));
    let (_, one) = stalled
        .iter()
        .find(|(observer, r)| *observer == 1 && r.stream == NodeId(1) && r.key == "One")
        .expect("origin 1's One frontier is stalled at 850ms");
    assert_eq!(one.frontier, 1);
    assert_eq!(one.target, 4);
    let culprits: Vec<u16> = one.blamed.iter().map(|b| b.node.0).collect();
    assert_eq!(
        culprits,
        vec![0],
        "MAX blames only the cheapest laggard: {}",
        one.render_human()
    );
    assert_eq!(one.blamed[0].have, 1);
    assert_eq!(one.blamed[0].need, 4);

    // The MIN predicate over the same stall blames every laggard.
    let (_, all) = stalled
        .iter()
        .find(|(observer, r)| *observer == 1 && r.stream == NodeId(1) && r.key == "All")
        .expect("origin 1's All frontier is stalled at 850ms");
    let culprits: Vec<u16> = all.blamed.iter().map(|b| b.node.0).collect();
    assert_eq!(culprits, vec![0, 2, 3, 4], "{}", all.render_human());
}

#[test]
fn liveness_violation_attaches_blame_report() {
    // Retransmission disabled + a total loss burst across the publish
    // window: node 1 permanently misses stream 0, so liveness trips —
    // and the violation's detail must carry the diagnoser's blame
    // naming the culprit cell instead of just the first laggard.
    let cfg = ClusterConfig::parse(
        "az A a0 a1\naz B b0\n\
         predicate All MIN($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros 2000\n\
         option heartbeat_millis 50\n\
         option retransmit_millis 0\n",
    )
    .unwrap();
    let net = stabilizer_netsim::NetTopology::full_mesh(3, SimDuration::from_millis(5), 1e9);
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: SimDuration::from_millis(5),
            fault: Fault::AsymmetricLoss {
                from: 0,
                to: 1,
                probability: 1.0,
                clear_after: SimDuration::from_millis(400),
            },
        }],
    };
    let workload: Vec<TimedWork> = (0..6)
        .map(|i| TimedWork {
            at: SimDuration::from_millis(20 + i * 30),
            item: WorkItem::Publish { node: 0, len: 64 },
        })
        .collect();
    let mut h = ChaosHarness::new(&cfg, net, 9, &plan, workload).unwrap();
    h.run(SimDuration::from_secs(2)).expect("safety holds");
    let err = h
        .verify_liveness(SimDuration::from_secs(5))
        .expect_err("stalled cluster must fail liveness");
    assert_eq!(err.property, "post-fault-liveness");
    assert!(
        err.detail.contains("blame:"),
        "violation carries the blame report: {}",
        err.detail
    );
    assert!(
        err.detail.contains("node 1 received=0"),
        "blame names node 1's empty RECEIVED cell on stream 0: {}",
        err.detail
    );
}

#[test]
fn tcp_stall_endpoint_goes_quiet_once_liveness_passes() {
    let cfg = ClusterConfig::parse(
        "az East e1 e2\naz West w1\n\
         predicate All MIN($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros 2000\n\
         option heartbeat_millis 20\n\
         option retransmit_millis 40\n",
    )
    .unwrap();
    let workload: Vec<TimedWork> = (0..6)
        .map(|i| TimedWork {
            at: SimDuration::from_millis(10 + i * 20),
            item: WorkItem::Publish { node: 0, len: 32 },
        })
        .collect();
    let telemetry = Telemetry::new_wall_clock();
    let mut cluster = ChaosTcpCluster::new_with_telemetry_serving(
        &cfg,
        7,
        &FaultPlan::default(),
        workload,
        Arc::clone(&telemetry),
        "127.0.0.1:0",
    )
    .expect("cluster boots");
    let serve = cluster.serve_addr().expect("node 0 serves").to_string();

    // The endpoint answers while the scenario is in flight.
    let (code, body) = http_get(&serve, "/metrics").expect("GET /metrics mid-run");
    assert_eq!(code, 200);
    assert!(body.contains("stab_build_info{"));
    let (code, body) = http_get(&serve, "/stall").expect("GET /stall mid-run");
    assert_eq!(code, 200);
    parse_json(&body).expect("mid-run stall body parses");

    cluster
        .run(SimDuration::from_millis(400))
        .unwrap_or_else(|v| panic!("fault-free run violated an invariant: {v}"));
    cluster
        .verify_liveness(SimDuration::from_secs(30))
        .unwrap_or_else(|v| panic!("fault-free cluster must be live: {v}"));

    // Everything stabilized: every report on /stall says not-stalled.
    let (code, body) = http_get(&serve, "/stall").expect("GET /stall post-liveness");
    assert_eq!(code, 200);
    let parsed = parse_json(&body).expect("stall body parses");
    let reports = parsed
        .get("reports")
        .and_then(|r| r.as_arr())
        .expect("reports array");
    assert!(!reports.is_empty(), "diagnoser covers the installed keys");
    for r in reports {
        assert_eq!(
            r.get("stalled").and_then(|s| s.as_bool()),
            Some(false),
            "no frontier may stay stalled after verify_liveness: {body}"
        );
    }
    assert!(cluster.stall_reports().iter().all(|(_, r)| !r.stalled));
    cluster.shutdown();
}
