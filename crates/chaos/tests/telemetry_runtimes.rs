//! Acceptance test for the telemetry layer: the same seeded workload,
//! instrumented through a [`Telemetry`] hub's `MetricsObserver`, yields
//! a stability-latency histogram on BOTH runtimes — the deterministic
//! netsim harness and the real TCP transport on the in-memory net —
//! exported as JSON and Prometheus text. Both run in virtual time, so
//! both feed a simulator hub; the sim export must be byte-identical
//! across replays of the same seed, and the TCP histograms must be
//! populated.

mod common;

use common::converge;
use stabilizer_chaos::{
    ChaosHarness, ChaosTcpCluster, Fault, FaultEvent, FaultPlan, TimedWork, WorkItem,
};
use stabilizer_core::ClusterConfig;
use stabilizer_netsim::{NetTopology, SimDuration};
use stabilizer_telemetry::Telemetry;
use std::sync::Arc;

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

fn secs(v: u64) -> SimDuration {
    SimDuration::from_secs(v)
}

/// An instrumented simulator harness over `cfg`, feeding `telemetry`.
fn sim(cfg: &ClusterConfig, plan: &FaultPlan, telemetry: &Arc<Telemetry>) -> ChaosHarness {
    let net = NetTopology::full_mesh(3, SimDuration::from_millis(5), 1e9);
    let hub = Some(Arc::clone(telemetry));
    ChaosHarness::new_with_telemetry(cfg, net, SEED, plan, workload(), hub).unwrap()
}

/// The same, over the real transport.
fn tcp(cfg: &ClusterConfig, plan: &FaultPlan, telemetry: &Arc<Telemetry>) -> ChaosTcpCluster {
    let hub = Some(Arc::clone(telemetry));
    ChaosTcpCluster::new_with_telemetry(cfg, SEED, plan, workload(), hub).unwrap()
}

fn gauge(telemetry: &Telemetry, name: &str, labels: &[(&str, &str)]) -> i64 {
    telemetry.registry().gauge(name, labels).get()
}

/// What every instrumented run must leave in the hub, whichever runtime
/// fed it: the stability histogram over all 15 publishes, and node 0's
/// control-plane counters mirrored into `stab_node_*` gauges.
fn assert_histogram_and_node_gauges(telemetry: &Telemetry, runtime: &str) {
    let stab = telemetry
        .stability_latency(KEY)
        .unwrap_or_else(|| panic!("{runtime} run produced no stability histogram"));
    assert_eq!(
        stab.count, 15,
        "{runtime}: all 15 publishes should reach stability at their origins"
    );
    assert!(stab.min > 0 && stab.max >= stab.min);
    assert!(telemetry.deliver_latency().count > 0);
    assert!(
        gauge(telemetry, "stab_node_deliveries", &[("node", "0")]) > 0,
        "{runtime}: node 0's deliveries never reached the stab_node_* gauges"
    );
}

/// One instrumented sim run: returns the JSON and Prometheus exports
/// plus the trace JSONL.
fn sim_exports() -> (String, String, String) {
    let telemetry = Telemetry::new_sim_with_trace(8192);
    let mut h = sim(&cfg(), &FaultPlan::default(), &telemetry);
    converge(&mut h, secs(10), secs(10), KEY);
    assert_histogram_and_node_gauges(&telemetry, "sim");
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
    let telemetry = Telemetry::new_sim_with_trace(8192);
    let mut cluster = tcp(&cfg(), &FaultPlan::default(), &telemetry);
    converge(&mut cluster, SimDuration::from_millis(400), secs(30), KEY);
    cluster.shutdown();
    assert_histogram_and_node_gauges(&telemetry, "tcp");

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
    assert!(
        gauge(telemetry, "stab_node_deliveries", &[("node", "0")]) > 0,
        "{runtime}: node 0's deliveries never reached the stab_node_* gauges"
    );
}

#[test]
fn sim_crash_restart_counts_suspicions_and_recoveries() {
    let telemetry = Telemetry::new_sim_with_trace(8192);
    let mut h = sim(&crash_cfg(), &crash_plan(), &telemetry);
    converge(&mut h, secs(4), secs(10), KEY);
    assert_suspicion_and_recovery_counted(&telemetry, "sim");
}

#[test]
fn tcp_crash_restart_counts_suspicions_and_recoveries() {
    let telemetry = Telemetry::new_sim_with_trace(8192);
    let mut cluster = tcp(&crash_cfg(), &crash_plan(), &telemetry);
    converge(&mut cluster, SimDuration::from_millis(1500), secs(30), KEY);
    cluster.shutdown();
    assert_suspicion_and_recovery_counted(&telemetry, "tcp");
}

// ---------------------------------------------------------------------
// The tolerance gauge is the weakest vantage's, on both runtimes
// ---------------------------------------------------------------------

/// `P` waits for the fastest *other* East node: from e1 or e2 that is
/// exactly one node (f* = 0), from w1 either of two (f* = 1). The
/// deployment is only as available as its weakest vantage, so the gauge
/// must read 0 — whichever node happened to record last.
#[test]
fn tolerance_gauge_is_the_minimum_across_vantages_on_both_runtimes() {
    let cfg = ClusterConfig::parse(
        "az East e1 e2\naz West w1\n\
         predicate P MAX($AZ_East-$MYWNODE)\n",
    )
    .unwrap();
    let plan = FaultPlan::default();
    let sim_hub = Telemetry::new_sim();
    let _h = sim(&cfg, &plan, &sim_hub);
    let tcp_hub = Telemetry::new_wall_clock();
    let _cluster = tcp(&cfg, &plan, &tcp_hub);
    for (runtime, hub) in [("sim", sim_hub), ("tcp", tcp_hub)] {
        assert_eq!(
            gauge(&hub, "stab_predicate_tolerance", &[("key", "P")]),
            0,
            "{runtime}: the gauge is not the weakest vantage's f*"
        );
    }
}
