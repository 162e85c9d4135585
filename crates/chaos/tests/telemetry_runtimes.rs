//! Acceptance test for the telemetry layer: the same seeded workload,
//! instrumented through a [`Telemetry`] hub's `MetricsObserver`, yields
//! a stability-latency histogram on BOTH runtimes — the deterministic
//! netsim harness and the real threaded TCP cluster — exported as JSON
//! and Prometheus text. The sim export must be byte-identical across
//! replays of the same seed; the TCP export is wall-clock (values
//! differ run to run) but the histograms must be populated.

use stabilizer_chaos::{
    ChaosHarness, ChaosTcpCluster, Fault, FaultEvent, FaultPlan, TimedWork, WorkItem,
};
use stabilizer_core::ClusterConfig;
use stabilizer_netsim::{NetTopology, SimDuration};
use stabilizer_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Duration;

const KEY: &str = "All";
const SEED: u64 = 20_22;

fn cfg() -> ClusterConfig {
    ClusterConfig::parse(
        "az East e1 e2\naz West w1\n\
         predicate All MIN($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros 2000\n\
         option heartbeat_millis 20\n\
         option retransmit_millis 40\n",
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

/// One instrumented sim run: returns the JSON and Prometheus exports
/// plus the trace JSONL.
fn sim_exports() -> (String, String, String) {
    let telemetry = Arc::new(Telemetry::new_sim_with_trace(8192));
    let net = NetTopology::full_mesh(3, SimDuration::from_millis(5), 1e9);
    let mut h = ChaosHarness::new_with_telemetry(
        &cfg(),
        net,
        SEED,
        &FaultPlan::default(),
        workload(),
        Some(Arc::clone(&telemetry)),
    )
    .unwrap();
    h.run(SimDuration::from_secs(10))
        .unwrap_or_else(|v| panic!("sim run violated an invariant: {v}"));

    let stab = telemetry
        .stability_latency(KEY)
        .expect("sim run produced a stability histogram");
    assert_eq!(
        stab.count, 15,
        "all 15 publishes should reach stability at their origins"
    );
    assert!(stab.min > 0, "virtual stability latency cannot be zero");
    assert!(telemetry.deliver_latency().count > 0);
    (
        telemetry.render_json(),
        telemetry.render_prometheus(),
        telemetry.trace().to_jsonl(),
    )
}

#[test]
fn sim_metrics_export_is_byte_identical_across_replays() {
    let (json_a, prom_a, trace_a) = sim_exports();
    let (json_b, prom_b, trace_b) = sim_exports();
    assert_eq!(json_a, json_b, "JSON export must be deterministic");
    assert_eq!(prom_a, prom_b, "Prometheus export must be deterministic");
    assert_eq!(trace_a, trace_b, "trace JSONL must be deterministic");
    assert!(json_a.contains("\"stab_stability_latency_ns{key=\\\"All\\\"}\""));
    assert!(prom_a.contains("stab_stability_latency_ns_count{key=\"All\"} 15"));
    assert!(trace_a.contains("\"event\":\"frontier\""));
    assert!(trace_a.contains("\"event\":\"deliver\""));
}

#[test]
fn tcp_run_produces_stability_histogram() {
    let telemetry = Arc::new(Telemetry::new_wall_clock());
    let mut cluster = ChaosTcpCluster::new_with_telemetry(
        &cfg(),
        SEED,
        &FaultPlan::default(),
        workload(),
        Some(Arc::clone(&telemetry)),
    )
    .unwrap();
    cluster
        .run(Duration::from_millis(400))
        .unwrap_or_else(|v| panic!("tcp run violated an invariant: {v}"));
    cluster
        .verify_liveness(Duration::from_secs(30))
        .unwrap_or_else(|v| panic!("tcp run did not stabilize: {v}"));
    cluster.shutdown();

    let stab = telemetry
        .stability_latency(KEY)
        .expect("tcp run produced a stability histogram");
    assert_eq!(
        stab.count, 15,
        "all 15 publishes should reach stability at their origins"
    );
    assert!(stab.min > 0 && stab.max >= stab.min);
    assert!(telemetry.deliver_latency().count > 0);

    // Both export formats carry the histogram and the transport counters.
    let json = telemetry.render_json();
    let prom = telemetry.render_prometheus();
    assert!(json.contains("\"stab_stability_latency_ns{key=\\\"All\\\"}\""));
    assert!(json.contains("stab_tcp_frames_out_total"));
    assert!(prom.contains("stab_stability_latency_ns_count{key=\"All\"} 15"));
    assert!(prom.contains("stab_tcp_bytes_in_total"));
}

// ---------------------------------------------------------------------
// Suspicion and recovery reach the hub on both runtimes
// ---------------------------------------------------------------------

/// Failure detector on, §III-E transfer on: node 2 is down for five
/// failure timeouts, so its peers suspect it, and un-suspect it once the
/// restarted node talks again.
fn crash_cfg() -> ClusterConfig {
    ClusterConfig::parse(
        "az East e1 e2\naz West w1\n\
         predicate All MIN($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros 1000\n\
         option heartbeat_millis 20\n\
         option retransmit_millis 40\n\
         option failure_timeout_millis 120\n\
         option retain_log_bytes 65536\n\
         option transfer_millis 20\n",
    )
    .unwrap()
}

fn crash_plan() -> FaultPlan {
    FaultPlan {
        events: vec![FaultEvent {
            at: SimDuration::from_millis(100),
            fault: Fault::CrashRestart {
                node: 2,
                down_for: SimDuration::from_millis(600),
            },
        }],
    }
}

fn total(telemetry: &Telemetry, counter: &str) -> u64 {
    (0..3)
        .map(|i| {
            let id = i.to_string();
            telemetry
                .registry()
                .counter(counter, &[("node", &id)])
                .get()
        })
        .sum()
}

fn assert_suspicion_and_recovery_counted(telemetry: &Telemetry, runtime: &str) {
    assert!(
        total(telemetry, "stab_suspicions_total") > 0,
        "{runtime}: no suspicion reached the hub"
    );
    assert!(
        total(telemetry, "stab_recoveries_total") > 0,
        "{runtime}: no recovery reached the hub"
    );
    assert!(
        telemetry
            .trace()
            .to_jsonl()
            .contains("\"event\":\"recovered\""),
        "{runtime}: no recovered event in the trace ring"
    );
}

#[test]
fn sim_crash_restart_counts_suspicions_and_recoveries() {
    let telemetry = Arc::new(Telemetry::new_sim_with_trace(8192));
    let net = NetTopology::full_mesh(3, SimDuration::from_millis(5), 1e9);
    let mut h = ChaosHarness::new_with_telemetry(
        &crash_cfg(),
        net,
        SEED,
        &crash_plan(),
        workload(),
        Some(Arc::clone(&telemetry)),
    )
    .unwrap();
    h.run(SimDuration::from_secs(4))
        .unwrap_or_else(|v| panic!("sim run violated an invariant: {v}"));
    assert_suspicion_and_recovery_counted(&telemetry, "sim");
}

#[test]
fn tcp_crash_restart_counts_suspicions_and_recoveries() {
    let telemetry = Arc::new(Telemetry::new_wall_clock());
    let mut cluster = ChaosTcpCluster::new_with_telemetry(
        &crash_cfg(),
        SEED,
        &crash_plan(),
        workload(),
        Some(Arc::clone(&telemetry)),
    )
    .unwrap();
    cluster
        .run(Duration::from_millis(1500))
        .unwrap_or_else(|v| panic!("tcp run violated an invariant: {v}"));
    cluster
        .verify_liveness(Duration::from_secs(30))
        .unwrap_or_else(|v| panic!("tcp run did not stabilize: {v}"));
    cluster.shutdown();
    assert_suspicion_and_recovery_counted(&telemetry, "tcp");
}
