//! Live telemetry endpoint on the TCP runtimes: spawn with
//! `serve_addr`, scrape all four routes over real HTTP while the
//! cluster is running, and check the bodies parse.

use bytes::Bytes;
use stabilizer_core::{AckTypeRegistry, ClusterConfig, NodeId};
use stabilizer_shard::RoutePolicy;
use stabilizer_telemetry::{http_get, parse_json, Telemetry};
use stabilizer_transport::{spawn_node_with, spawn_sharded_node, SpawnOptions};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_until(mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "condition not reached in 10s");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn bind_pair() -> (Vec<TcpListener>, Vec<SocketAddr>) {
    let mut listeners = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        addrs.push(l.local_addr().expect("addr"));
        listeners.push(l);
    }
    (listeners, addrs)
}

fn peers_of(i: usize, addrs: &[SocketAddr]) -> Vec<(NodeId, SocketAddr)> {
    (0..addrs.len())
        .filter(|j| *j != i)
        .map(|j| (NodeId(j as u16), addrs[j]))
        .collect()
}

#[test]
fn tcp_runtime_serves_all_routes_live() {
    let cfg = ClusterConfig::parse("az East a b\npredicate k MIN($ALLWNODES)\n").expect("config");
    let telemetry = Telemetry::new_wall_clock();
    let acks = Arc::new(AckTypeRegistry::new());
    let (listeners, addrs) = bind_pair();
    let mut nodes = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let node = spawn_node_with(
            cfg.clone(),
            NodeId(i as u16),
            Arc::clone(&acks),
            listener,
            peers_of(i, &addrs),
            SpawnOptions {
                observer: Some(Box::new(telemetry.observer(NodeId(i as u16)))),
                telemetry: Some(Arc::clone(&telemetry)),
                serve_addr: (i == 0).then(|| "127.0.0.1:0".to_string()),
                ..SpawnOptions::default()
            },
        )
        .expect("spawn");
        nodes.push(node);
    }
    let h0 = nodes[0].handle();
    let h1 = nodes[1].handle();
    let serve = h0.serve_addr().expect("node 0 serves").to_string();
    assert!(h1.serve_addr().is_none(), "node 1 got no serve_addr");

    let seq = h0
        .publish(Bytes::from_static(b"hello"), Duration::from_secs(5))
        .expect("publish");
    telemetry.note_publish_now(NodeId(0), seq, 5);
    wait_until(|| matches!(h0.stability_frontier(NodeId(0), "k"), Some((f, _)) if f >= seq));

    let (code, prom) = http_get(&serve, "/metrics").expect("GET /metrics");
    assert_eq!(code, 200);
    assert!(prom.contains("stab_build_info{"), "{prom}");
    assert!(prom.contains("stab_uptime_seconds"), "{prom}");
    assert!(
        prom.contains("stab_stability_latency_ns_bucket{key=\"k\""),
        "{prom}"
    );

    let (code, json) = http_get(&serve, "/metrics.json").expect("GET /metrics.json");
    assert_eq!(code, 200);
    let parsed = parse_json(&json).expect("json parses");
    assert!(parsed.get("exemplars").is_some(), "{json}");

    let (code, trace) = http_get(&serve, "/trace?n=5").expect("GET /trace");
    assert_eq!(code, 200);
    for line in trace.lines() {
        parse_json(line).expect("trace line parses");
    }

    // Both nodes cover the published seq, so nothing is stalled.
    let (code, stall) = http_get(&serve, "/stall").expect("GET /stall");
    assert_eq!(code, 200);
    let parsed = parse_json(&stall).expect("stall parses");
    let reports = parsed
        .get("reports")
        .and_then(|r| r.as_arr())
        .expect("reports array");
    assert!(
        reports
            .iter()
            .all(|r| r.get("stalled").and_then(|s| s.as_bool()) == Some(false)),
        "{stall}"
    );

    for node in &nodes {
        node.handle().shutdown();
    }
    // The endpoint goes down with the node.
    std::thread::sleep(Duration::from_millis(100));
    assert!(http_get(&serve, "/metrics").is_err());
}

#[test]
fn sharded_runtime_serves_aggregated_routes() {
    let cfg = ClusterConfig::parse(
        "az East a b\noption shards 2\noption transfer_millis 50\npredicate k MIN($ALLWNODES)\n",
    )
    .expect("config");
    let telemetry = Telemetry::new_wall_clock_sharded(2);
    let acks = Arc::new(AckTypeRegistry::new());
    let (listeners, addrs) = bind_pair();
    let mut nodes = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let node = spawn_sharded_node(
            cfg.clone(),
            NodeId(i as u16),
            Arc::clone(&acks),
            listener,
            peers_of(i, &addrs),
            RoutePolicy::RoundRobin,
            SpawnOptions {
                telemetry: Some(Arc::clone(&telemetry)),
                jitter_seed: i as u64,
                serve_addr: (i == 0).then(|| "127.0.0.1:0".to_string()),
                ..SpawnOptions::default()
            },
        )
        .expect("spawn sharded");
        nodes.push(node);
    }
    let h0 = nodes[0].handle();
    let serve = h0.serve_addr().expect("node 0 serves").to_string();

    let mut last = 0;
    for _ in 0..4 {
        last = h0
            .publish(Bytes::from_static(b"x"), Duration::from_secs(5))
            .expect("publish");
    }
    wait_until(|| matches!(h0.stability_frontier(NodeId(0), "k"), Some((f, _)) if f >= last));
    // Every covered message is one sample of its shard's histogram.
    let stability_samples = || -> u64 {
        let of_shard = |shard: &str| {
            let labels = [("key", "k"), ("shard", shard)];
            let registry = telemetry.registry();
            registry.histogram("stab_shard_stability_latency_ns", &labels)
        };
        of_shard("0").count() + of_shard("1").count()
    };
    assert_eq!(stability_samples(), 4);

    let (code, prom) = http_get(&serve, "/metrics").expect("GET /metrics");
    assert_eq!(code, 200);
    assert!(prom.contains("shards=\"2\""), "{prom}");
    // The per-shard gauges are exactly these five: no shard has a queue
    // to report the depth of since link readers fold their own batches.
    let per_shard: std::collections::BTreeSet<&str> = prom
        .lines()
        .filter_map(|line| line.strip_prefix("stab_shard_")?.split('{').next())
        .filter(|series| !series.starts_with("stability_latency_ns"))
        .collect();
    let expected = [
        "data_msgs_sent",
        "deliveries",
        "frontier_updates",
        "retransmits",
        "send_buffer_bytes",
    ];
    assert!(per_shard.iter().eq(&expected), "{per_shard:?}");

    // /stall reports carry per-shard blame; nothing stalls here.
    let (code, stall) = http_get(&serve, "/stall").expect("GET /stall");
    assert_eq!(code, 200);
    let parsed = parse_json(&stall).expect("stall parses");
    let reports = parsed
        .get("reports")
        .and_then(|r| r.as_arr())
        .expect("reports array");
    assert!(!reports.is_empty(), "{stall}");
    assert!(reports.iter().all(|r| r.get("shard").is_some()), "{stall}");

    // Node 0 serves node 1's catch-up request as a donor; the sampler
    // must carry the `transfer_*` counters of its shard machines into
    // the node-level gauges like every other counter.
    nodes[1].handle().begin_catch_up();
    wait_until(|| {
        let (_, json) = http_get(&serve, "/metrics.json").expect("GET /metrics.json");
        let parsed = parse_json(&json).expect("json parses");
        let served = parsed
            .get("gauges")
            .and_then(|g| g.get("stab_node_transfer_requests{node=\"0\"}"))
            .and_then(|v| v.as_i64());
        served > Some(0)
    });
    assert!(h0.metrics().transfer_requests > 0);

    // Enough messages to take the own stream's shard→global maps through
    // several reclaims: the histograms read the entries an advance just
    // covered before the next publish can drop them, so none is lost.
    for _ in 0..20_000 {
        last = h0
            .publish(Bytes::from_static(b"x"), Duration::from_secs(5))
            .expect("publish");
    }
    wait_until(|| matches!(h0.stability_frontier(NodeId(0), "k"), Some((f, _)) if f >= last));
    assert_eq!(stability_samples(), 4 + 20_000);

    for node in &nodes {
        node.handle().shutdown();
    }
}
