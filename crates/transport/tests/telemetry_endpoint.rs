//! Live telemetry endpoint on the TCP runtime, one test body over both
//! machines with one wiring: the hub's observer in the observer slot,
//! every publish stamped by the caller, `serve_addr` on node 0. The
//! routes are scraped over real HTTP while the cluster is running.

use bytes::Bytes;
use stabilizer_core::{AckTypeRegistry, ClusterConfig, NodeId, SeqNo, StabilizerNode};
use stabilizer_shard::{RoutePolicy, ShardedEngine};
use stabilizer_telemetry::{http_get, parse_json, Telemetry};
use stabilizer_transport::{
    spawn_node_with, spawn_sharded_node, NodeHandle, SpawnOptions, TcpMachine,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages node 0 publishes in each case.
const MSGS: SeqNo = 4;

/// What differs between the two machines; everything else is a call on
/// their one handle.
trait Runtime: TcpMachine {
    /// `option shards` of the cluster (1 on the plain machine).
    const SHARDS: usize;
    /// `option transfer_millis` of the cluster (0 on the sharded
    /// machine, which has no state transfer).
    const TRANSFER_MILLIS: u64;

    fn spawn(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
        listener: TcpListener,
        peers: Vec<(NodeId, SocketAddr)>,
        opts: SpawnOptions,
    ) -> NodeHandle<Self>;
    /// Ask the node's peers for a §III-E transfer (only called when
    /// [`Runtime::TRANSFER_MILLIS`] is set).
    fn begin_catch_up(h: &NodeHandle<Self>);
}

impl Runtime for StabilizerNode {
    const SHARDS: usize = 1;
    const TRANSFER_MILLIS: u64 = 50;

    fn spawn(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
        listener: TcpListener,
        peers: Vec<(NodeId, SocketAddr)>,
        opts: SpawnOptions,
    ) -> NodeHandle {
        spawn_node_with(cfg, me, acks, listener, peers, opts)
            .expect("spawn")
            .handle()
    }
    fn begin_catch_up(h: &NodeHandle) {
        h.begin_catch_up();
    }
}

impl Runtime for ShardedEngine {
    const SHARDS: usize = 2;
    const TRANSFER_MILLIS: u64 = 0;

    fn spawn(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
        listener: TcpListener,
        peers: Vec<(NodeId, SocketAddr)>,
        opts: SpawnOptions,
    ) -> NodeHandle<Self> {
        let policy = RoutePolicy::RoundRobin;
        spawn_sharded_node(cfg, me, acks, listener, peers, policy, opts)
            .expect("spawn sharded")
            .handle()
    }
    fn begin_catch_up(_: &NodeHandle<Self>) {}
}

fn wait_until(mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "condition not reached in 10s");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Two nodes feeding `hub`, node 0 serving it; with `observe`, each
/// node's observer slot holds the hub's observer for it.
fn spawn_pair<R: Runtime>(hub: &Arc<Telemetry>, observe: bool) -> Vec<NodeHandle<R>> {
    let cfg = format!(
        "az East a b\noption shards {}\noption transfer_millis {}\npredicate k MIN($ALLWNODES)\n",
        R::SHARDS,
        R::TRANSFER_MILLIS
    );
    let cfg = ClusterConfig::parse(&cfg).expect("config");
    let acks = Arc::new(AckTypeRegistry::new());
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let me = NodeId(i as u16);
            let peer = 1 - i;
            let opts = SpawnOptions {
                observer: observe.then(|| Box::new(hub.observer(me)) as _),
                telemetry: Some(Arc::clone(hub)),
                jitter_seed: i as u64,
                serve_addr: (i == 0).then(|| "127.0.0.1:0".to_string()),
                ..SpawnOptions::default()
            };
            let peers = vec![(NodeId(peer as u16), addrs[peer])];
            R::spawn(cfg.clone(), me, Arc::clone(&acks), listener, peers, opts)
        })
        .collect()
}

/// Publish [`MSGS`] messages on `h`, each stamped on `hub`, and wait for
/// them to be stable. The stamp is taken just before its publish: after
/// it, the ACK that covers the message could overtake it.
fn publish_stable<R: Runtime>(hub: &Telemetry, h: &NodeHandle<R>) {
    for _ in 0..MSGS {
        let next = h.last_published() + 1;
        hub.note_publish_now(h.id(), next, 5);
        let seq = h.publish(Bytes::from_static(b"hello"), Duration::from_secs(5));
        assert_eq!(seq.expect("publish"), next);
    }
    wait_until(|| matches!(h.stability_frontier(h.id(), "k"), Some((f, _)) if f >= MSGS));
}

fn serves_all_routes_live<R: Runtime>() {
    let hub = Telemetry::new_wall_clock_sharded(R::SHARDS);
    let nodes = spawn_pair::<R>(&hub, true);
    let (h0, h1) = (&nodes[0], &nodes[1]);
    let serve = h0.serve_addr().expect("node 0 serves").to_string();
    assert!(h1.serve_addr().is_none(), "node 1 got no serve_addr");

    publish_stable(&hub, h0);
    // Node 0's observer saw the advance under the lock the frontier
    // query has just been through: every message is one sample.
    let samples = hub.stability_latency("k").map_or(0, |h| h.count);
    assert_eq!(samples, MSGS, "one stability sample per message");

    let (code, prom) = http_get(&serve, "/metrics").expect("GET /metrics");
    assert_eq!(code, 200);
    assert!(
        prom.contains(&format!("shards=\"{}\"", R::SHARDS)),
        "{prom}"
    );
    assert!(prom.contains("stab_uptime_seconds"), "{prom}");
    assert!(
        prom.contains("stab_stability_latency_ns_bucket{key=\"k\""),
        "{prom}"
    );
    assert!(prom.contains("stab_deliveries_total{"), "{prom}");

    let (code, json) = http_get(&serve, "/metrics.json").expect("GET /metrics.json");
    assert_eq!(code, 200);
    let parsed = parse_json(&json).expect("json parses");
    assert!(parsed.get("exemplars").is_some(), "{json}");

    let (code, trace) = http_get(&serve, "/trace?n=5").expect("GET /trace");
    assert_eq!(code, 200);
    for line in trace.lines() {
        parse_json(line).expect("trace line parses");
    }

    // Both nodes cover the published messages, so nothing is stalled;
    // a sharded node's reports name the shard that made them.
    let (code, stall) = http_get(&serve, "/stall").expect("GET /stall");
    assert_eq!(code, 200);
    let parsed = parse_json(&stall).expect("stall parses");
    let reports = parsed
        .get("reports")
        .and_then(|r| r.as_arr())
        .expect("reports array");
    assert!(!reports.is_empty(), "{stall}");
    for r in reports {
        assert_eq!(r.get("stalled").and_then(|s| s.as_bool()), Some(false));
        assert_eq!(r.get("shard").is_some(), R::SHARDS > 1, "{stall}");
    }

    // Node 0 serves node 1's catch-up request as a donor; the ticker
    // carries the machine's `transfer_*` counters into the node gauges.
    if R::TRANSFER_MILLIS > 0 {
        R::begin_catch_up(h1);
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
    }

    for h in &nodes {
        h.shutdown();
    }
    // The endpoint goes down with the node.
    std::thread::sleep(Duration::from_millis(100));
    assert!(http_get(&serve, "/metrics").is_err());
}

#[test]
fn tcp_runtime_serves_all_routes_live() {
    serves_all_routes_live::<StabilizerNode>();
}

#[test]
fn sharded_runtime_serves_aggregated_routes() {
    serves_all_routes_live::<ShardedEngine>();
}

/// A hub is fed events only through the observer slot: without an
/// observer it gets the ticker's series and nothing per event.
fn no_observer_no_event_series<R: Runtime>() {
    let hub = Telemetry::new_wall_clock_sharded(R::SHARDS);
    let nodes = spawn_pair::<R>(&hub, false);
    publish_stable(&hub, &nodes[0]);
    let delivered = hub
        .registry()
        .gauge("stab_node_deliveries", &[("node", "1")]);
    wait_until(|| delivered.get() >= MSGS as i64);

    let snap = hub.registry().snapshot();
    let event_series = ["stab_deliveries_total", "stab_stability_latency_ns"];
    let mut names = snap.counters.keys().chain(snap.histograms.keys());
    assert!(
        !names.any(|(name, _)| event_series.contains(&name.as_str())),
        "{snap:?}"
    );
    for h in &nodes {
        h.shutdown();
    }
}

#[test]
fn a_hub_without_an_observer_gets_no_event_series() {
    no_observer_no_event_series::<StabilizerNode>();
    no_observer_no_event_series::<ShardedEngine>();
}
