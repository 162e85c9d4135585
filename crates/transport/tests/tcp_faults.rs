//! Fault-path tests for the TCP runtime: staggered starts (messages
//! published before peers exist must still arrive), failure detection
//! over real sockets, connect-retry exhaustion, hostile first frames,
//! the lone-operation flush, monotone frontier upcalls under two
//! publishers, a manual catch-up reaching the observer, and callbacks
//! that re-enter the handle. Every case runs on both machines — a plain
//! node and a sharded one (`option shards 2`) — through one
//! `NodeHandle<M>`, save failure detection and catch-up, which a sharded
//! node does not have; the [`Runtime`] trait below holds what differs.

use bytes::Bytes;
use stabilizer_core::{
    AckTypeRegistry, ClusterConfig, NodeId, Options, SeqNo, StabilizerNode, WireMsg,
};
use stabilizer_shard::{RoutePolicy, ShardedEngine};
use stabilizer_telemetry::Telemetry;
use stabilizer_transport::framing::{hello, write_lane_frame, Lane};
use stabilizer_transport::{
    spawn_node_with, spawn_sharded_node, NodeHandle, SpawnOptions, TcpMachine,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What differs between the two machines a case runs on; everything
/// else is a call on their one handle, `NodeHandle<M>`.
trait Runtime: TcpMachine {
    /// Appended to every config of a case.
    const EXTRA_CFG: &'static str;
    /// A lane data frames are processed on.
    const DATA_LANE: Self::Lane;

    /// Spawn node `me`, feeding `hub` (transport counters and the
    /// per-node observer) when one is given.
    fn spawn(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
        listener: TcpListener,
        peers: Vec<(NodeId, SocketAddr)>,
        hub: Option<&Arc<Telemetry>>,
    ) -> NodeHandle<Self>;
    /// Highest sequence of `origin` delivered to the application.
    fn delivered(h: &NodeHandle<Self>, origin: NodeId) -> SeqNo;
}

impl Runtime for StabilizerNode {
    const EXTRA_CFG: &'static str = "";
    const DATA_LANE: () = ();

    fn spawn(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
        listener: TcpListener,
        peers: Vec<(NodeId, SocketAddr)>,
        hub: Option<&Arc<Telemetry>>,
    ) -> NodeHandle {
        spawn_node_with(cfg, me, acks, listener, peers, options(me, hub))
            .expect("spawn")
            .handle()
    }
    fn delivered(h: &NodeHandle, origin: NodeId) -> SeqNo {
        h.delivered_of(origin)
    }
}

impl Runtime for ShardedEngine {
    const EXTRA_CFG: &'static str = "option shards 2\n";
    const DATA_LANE: u16 = 0;

    fn spawn(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
        listener: TcpListener,
        peers: Vec<(NodeId, SocketAddr)>,
        hub: Option<&Arc<Telemetry>>,
    ) -> NodeHandle<Self> {
        let (policy, opts) = (RoutePolicy::RoundRobin, options(me, hub));
        spawn_sharded_node(cfg, me, acks, listener, peers, policy, opts)
            .expect("spawn sharded")
            .handle()
    }
    fn delivered(h: &NodeHandle<Self>, origin: NodeId) -> SeqNo {
        h.delivered_global(origin)
    }
}

/// Node `me`'s spawn options on either machine: with a hub, its
/// transport counters and the node's observer feed it.
fn options(me: NodeId, hub: Option<&Arc<Telemetry>>) -> SpawnOptions {
    SpawnOptions {
        observer: hub.map(|t| Box::new(t.observer(me)) as _),
        telemetry: hub.cloned(),
        jitter_seed: u64::from(me.0),
        ..SpawnOptions::default()
    }
}

fn publish<M: TcpMachine>(h: &NodeHandle<M>, payload: &'static [u8]) -> SeqNo {
    let payload = Bytes::from_static(payload);
    h.publish(payload, Duration::from_secs(1)).expect("publish")
}

/// Whether `key`'s frontier on `h`'s own stream reached `seq` in time.
fn waitfor<M: TcpMachine>(h: &NodeHandle<M>, key: &str, seq: SeqNo) -> bool {
    let waited = h.waitfor(h.id(), key, seq, Duration::from_secs(10));
    waited.expect("a registered key")
}

/// Frontier of `key` on `h`'s own stream.
fn frontier<M: TcpMachine>(h: &NodeHandle<M>, key: &str) -> Option<SeqNo> {
    let at = h.stability_frontier(h.id(), key);
    at.map(|(seq, _generation)| seq)
}

const THREE_NODES: &str = "az A a b\naz B c\npredicate AllRemote MIN($ALLWNODES-$MYWNODE)\n";

fn cfg<R: Runtime>(topology: &str, opts: Option<Options>) -> ClusterConfig {
    let c = ClusterConfig::parse(&format!("{topology}{}", R::EXTRA_CFG)).expect("config parses");
    match opts {
        // `with_options` replaces the whole option set: carry the shard
        // count the config line chose.
        Some(o) => {
            let shards = c.options().shards;
            c.with_options(o.shards(shards))
        }
        None => c,
    }
}

fn listeners(n: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
    let ls: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs = ls.iter().map(|l| l.local_addr().unwrap()).collect();
    (ls, addrs)
}

fn peers_of(me: usize, addrs: &[SocketAddr]) -> Vec<(NodeId, SocketAddr)> {
    (0..addrs.len())
        .filter(|j| *j != me)
        .map(|j| (NodeId(j as u16), addrs[j]))
        .collect()
}

/// A whole cluster of `cfg` on loopback, and where its nodes listen.
fn spawn_cluster<R: Runtime>(cfg: &ClusterConfig) -> (Vec<NodeHandle<R>>, Vec<SocketAddr>) {
    spawn_cluster_with(cfg, None)
}

/// [`spawn_cluster`], every node feeding `hub` when one is given.
fn spawn_cluster_with<R: Runtime>(
    cfg: &ClusterConfig,
    hub: Option<&Arc<Telemetry>>,
) -> (Vec<NodeHandle<R>>, Vec<SocketAddr>) {
    let (ls, addrs) = listeners(cfg.num_nodes());
    let acks = Arc::new(AckTypeRegistry::new());
    let nodes = ls
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            R::spawn(
                cfg.clone(),
                NodeId(i as u16),
                Arc::clone(&acks),
                l,
                peers_of(i, &addrs),
                hub,
            )
        })
        .collect();
    (nodes, addrs)
}

fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn early_messages_arrive<R: Runtime>() {
    let cfg = cfg::<R>(THREE_NODES, None);
    let (mut ls, addrs) = listeners(3);
    let acks = Arc::new(AckTypeRegistry::new());
    let mut boot = |me: usize| {
        R::spawn(
            cfg.clone(),
            NodeId(me as u16),
            Arc::clone(&acks),
            ls.remove(0),
            peers_of(me, &addrs),
            None,
        )
    };

    // Only node 0 is alive. Its writers retry-connect in the background.
    let h0 = boot(0);
    let seq = publish(&h0, b"early bird");

    // The stragglers join 150 ms later.
    std::thread::sleep(Duration::from_millis(150));
    let h1 = boot(1);
    let h2 = boot(2);

    // The early message reaches everyone: full stability is achieved.
    assert!(waitfor(&h0, "AllRemote", seq));
    // (The receipt acknowledgment can overtake the delivery upcall.)
    eventually("early message delivered at both stragglers", || {
        R::delivered(&h1, NodeId(0)) == seq && R::delivered(&h2, NodeId(0)) == seq
    });
    for h in [h0, h1, h2] {
        h.shutdown();
    }
}

#[test]
fn messages_published_before_peers_start_still_arrive() {
    early_messages_arrive::<StabilizerNode>();
    early_messages_arrive::<ShardedEngine>();
}

/// A plain node only: a sharded node has no failure detector.
#[test]
fn silent_peer_is_suspected_over_tcp() {
    let text =
        format!("{THREE_NODES}option heartbeat_millis 50\noption failure_timeout_millis 400\n");
    let hub = Telemetry::new_wall_clock();
    let cfg = cfg::<StabilizerNode>(&text, None);
    let (cluster, _) = spawn_cluster_with::<StabilizerNode>(&cfg, Some(&hub));
    let h0 = &cluster[0];

    // Warm up: traffic flows, nobody is suspected.
    let seq = publish(h0, b"warmup");
    assert!(waitfor(h0, "AllRemote", seq));

    // Node 2 dies (its threads stop; its sockets go quiet).
    cluster[2].shutdown();

    // Within a few failure-check periods node 0 suspects node 2 but not
    // node 1 (which keeps heartbeating).
    eventually("node 2 never suspected", || h0.is_suspected(NodeId(2)));
    assert!(!h0.is_suspected(NodeId(1)), "live node wrongly suspected");
    // The observer heard of it too, under the state lock `is_suspected`
    // has just been through.
    let suspicions = hub
        .registry()
        .counter("stab_suspicions_total", &[("node", "0")]);
    eventually("node 0's observer never saw the suspicion", || {
        suspicions.get() >= 1
    });
    for h in &cluster {
        h.shutdown();
    }
}

fn exhausted_retries_surface<R: Runtime>() {
    // Nothing ever listens at peer 1's address: with a finite retry
    // budget the writer must give up and *report* it instead of spinning
    // silently forever.
    let cfg = cfg::<R>(
        &format!("{THREE_NODES}option connect_retry_limit 4\n"),
        None,
    );
    let (mut ls, mut addrs) = listeners(3);
    // Point node 0 at a port that is bound by nobody.
    let dead = TcpListener::bind("127.0.0.1:0").unwrap();
    addrs[1] = dead.local_addr().unwrap();
    drop(dead); // release the port: connects now fail fast
    let acks = Arc::new(AckTypeRegistry::new());
    let hub = Telemetry::new_wall_clock();
    let h0 = R::spawn(
        cfg,
        NodeId(0),
        acks,
        ls.remove(0),
        peers_of(0, &addrs),
        Some(&hub),
    );

    eventually(
        "writer never surfaced the permanent connect failure",
        || h0.connect_failures().contains(&NodeId(1)),
    );
    // Node 2's listener is bound (never accepted from, but connects
    // succeed), so only the genuinely dead peer is reported.
    assert_eq!(h0.connect_failures(), [NodeId(1)]);
    // The observer is told right after the list is written.
    let failures = hub
        .registry()
        .counter("stab_connect_failures_total", &[("node", "0")]);
    eventually("node 0's observer never saw the connect failure", || {
        failures.get() >= 1
    });
    h0.shutdown();
}

#[test]
fn exhausted_connect_retries_surface_the_unreachable_peer() {
    exhausted_retries_surface::<StabilizerNode>();
    exhausted_retries_surface::<ShardedEngine>();
}

/// Open a raw connection to a node, write `frames`, and report whether
/// the node hung up on us (EOF) rather than keeping the connection.
fn node_hangs_up<L: Lane>(addr: SocketAddr, frames: &[(L, WireMsg)], raw: &[u8]) -> bool {
    let mut s = TcpStream::connect(addr).expect("connect to node");
    for (lane, msg) in frames {
        write_lane_frame(&mut s, *lane, msg).expect("write frame");
    }
    s.write_all(raw).expect("write raw bytes");
    s.flush().expect("flush");
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    // Nodes never write on an accepted connection: the read ends in EOF
    // or a reset (dropped), or in a timeout (kept).
    match s.read(&mut [0u8; 1]) {
        Ok(0) => true,
        Ok(_) => panic!("a node wrote on an accepted connection"),
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    }
}

fn hostile_first_frames_are_rejected<R: Runtime>() {
    // a–b and c–d replicate to each other only, so node 0 (a) has a link
    // with node 1 and none with nodes 2 and 3.
    let cfg = cfg::<R>(
        "az A a b\naz B c d\n\
         replicate a a b\nreplicate b b a\nreplicate c c d\nreplicate d d c\n\
         predicate AllRemote MIN($ALLWNODES-$MYWNODE)\n",
        None,
    );
    let (nodes, addrs) = spawn_cluster::<R>(&cfg);
    let h0 = &nodes[0];
    let seq = publish(h0, b"sane");
    assert!(waitfor(h0, "AllRemote", seq));

    // What every impostor sends after its hello: a message of stream 1
    // (node 1 has published nothing), which must never be delivered.
    let forged = WireMsg::Data {
        origin: NodeId(1),
        seq: 1,
        // Global sequence 1 in the 8-byte header sharded payloads carry
        // (part of the payload on the plain runtime).
        payload: Bytes::from_static(b"\x01\0\0\0\0\0\0\0forged"),
    };
    let hello_lane = <R::Lane as Lane>::HELLO;
    let target = addrs[0];
    let impostor = |id: u16| {
        node_hangs_up(
            target,
            &[(hello_lane, hello(id)), (R::DATA_LANE, forged.clone())],
            &[],
        )
    };
    assert!(
        node_hangs_up::<R::Lane>(target, &[], &[0xFF; 16]),
        "garbage accepted as a hello"
    );
    assert!(
        node_hangs_up(target, &[(hello_lane, forged.clone())], &[]),
        "first frame was not a hello"
    );
    if R::DATA_LANE != hello_lane {
        assert!(
            node_hangs_up(target, &[(R::DATA_LANE, hello(1))], &[]),
            "a hello outside the hello lane was admitted"
        );
    }
    assert!(impostor(9999), "hello from a node that is not configured");
    assert!(impostor(4), "hello one past the last configured node");
    assert!(impostor(0), "hello announcing the node's own id");
    assert!(impostor(2), "hello from a configured but unlinked node");
    assert_eq!(
        R::delivered(h0, NodeId(1)),
        0,
        "a rejected connection's frame got through"
    );

    // The control: the same frames behind an admissible hello are kept
    // and processed — the probes above were dropped for their hello.
    assert!(!impostor(1), "a linked peer's hello was refused");
    eventually("admitted frame never delivered", || {
        R::delivered(h0, NodeId(1)) == 1
    });

    // The cluster is still healthy afterwards.
    let seq = publish(h0, b"still alive");
    assert!(waitfor(h0, "AllRemote", seq));
    for h in &nodes {
        h.shutdown();
    }
}

#[test]
fn garbage_first_frame_is_rejected_without_crashing() {
    hostile_first_frames_are_rejected::<StabilizerNode>();
    hostile_first_frames_are_rejected::<ShardedEngine>();
}

/// `benchmarks/README.md` finding 1: a lone `publish` + `waitfor` used to
/// sit in a writer's buffer until its 100 ms idle poll expired, on about
/// one operation in ten.
fn lone_operations_are_flushed<R: Runtime>() {
    const OPS: usize = 300;
    let (cluster, _) = spawn_cluster::<R>(&cfg::<R>(THREE_NODES, None));
    let h0 = &cluster[0];
    let warm = publish(h0, b"warm");
    assert!(waitfor(h0, "AllRemote", warm));
    let mut slow = 0;
    for _ in 0..OPS {
        let start = Instant::now();
        let seq = publish(h0, b"lone");
        assert!(waitfor(h0, "AllRemote", seq));
        if start.elapsed() > Duration::from_millis(50) {
            slow += 1;
        }
    }
    assert!(
        slow * 100 < OPS,
        "{slow} of {OPS} lone operations took longer than 50 ms"
    );
    for h in &cluster {
        h.shutdown();
    }
}

#[test]
fn lone_operations_do_not_wait_for_the_idle_poll() {
    lone_operations_are_flushed::<StabilizerNode>();
    lone_operations_are_flushed::<ShardedEngine>();
}

/// Two threads stream publishes on node 0 while both peers acknowledge:
/// on the plain runtime two reader threads fold ACKs and fire the
/// resulting frontier upcalls after releasing the node lock, so without
/// the monotone filter a monitor sees seq 6 and then 5.
fn monitored_frontiers_never_move_back<R: Runtime>() {
    const KEYS: [&str; 2] = ["AllRemote", "OneRemote"];
    const PER_PUBLISHER: u64 = 40_000;
    let topology = format!("{THREE_NODES}predicate OneRemote MAX($ALLWNODES-$MYWNODE)\n");
    let (cluster, _) = spawn_cluster::<R>(&cfg::<R>(&topology, None));
    let h0 = &cluster[0];

    let moved_back = Arc::new(AtomicU64::new(0));
    for key in KEYS {
        let moved_back = Arc::clone(&moved_back);
        let mut last = (0u32, 0u64);
        h0.monitor_stability_frontier(h0.id(), key, move |u| {
            if (u.generation, u.seq) < last {
                moved_back.fetch_add(1, Ordering::Relaxed);
            }
            last = (u.generation, u.seq);
        });
    }

    let publishers: Vec<_> = (0..2)
        .map(|_| {
            let h = h0.clone();
            std::thread::spawn(move || {
                for _ in 0..PER_PUBLISHER {
                    publish(&h, b"0123456789abcdef");
                }
            })
        })
        .collect();
    for p in publishers {
        p.join().expect("publisher");
    }
    assert!(waitfor(h0, "AllRemote", 2 * PER_PUBLISHER));
    assert_eq!(
        moved_back.load(Ordering::Relaxed),
        0,
        "a monitor saw its frontier move back"
    );
    for h in &cluster {
        h.shutdown();
    }
}

#[test]
fn monitored_frontiers_never_move_back_under_two_publishers() {
    monitored_frontiers_never_move_back::<StabilizerNode>();
    monitored_frontiers_never_move_back::<ShardedEngine>();
}

/// `begin_catch_up` on a running node asks its peers for a transfer; the
/// observer must hear of the join. A plain node only: a sharded node has
/// no state transfer.
#[test]
fn a_manual_catch_up_is_reported_as_a_join() {
    let opts = Options::default().transfer_millis(20);
    let hub = Telemetry::new_wall_clock();
    let cfg = cfg::<StabilizerNode>(THREE_NODES, Some(opts));
    let (cluster, _) = spawn_cluster_with::<StabilizerNode>(&cfg, Some(&hub));
    let h0 = &cluster[0];
    let seq = publish(h0, b"before the join");
    assert!(waitfor(h0, "AllRemote", seq));

    let joins = hub.registry().counter("stab_joins_total", &[("node", "2")]);
    assert_eq!(joins.get(), 0);
    cluster[2].begin_catch_up();
    assert_eq!(joins.get(), 1, "the observer was not told of the join");
    for h in &cluster {
        h.shutdown();
    }
}

/// Callbacks run with no lock held on both runtimes: a frontier monitor
/// that reads the frontier and publishes, and a delivery upcall that
/// reads the handle, must complete instead of deadlocking on the state
/// lock of the thread that is running them.
fn callbacks_may_call_back_into_the_handle<R: Runtime>() {
    const FOLLOW_UPS: u64 = 5;
    let (cluster, _) = spawn_cluster::<R>(&cfg::<R>(THREE_NODES, None));
    let (h0, h1) = (&cluster[0], &cluster[1]);

    // Every advance of node 0's frontier publishes a follow-up, up to a
    // bound, from inside the monitor.
    let published = Arc::new(AtomicU64::new(0));
    let (h, count) = (h0.clone(), Arc::clone(&published));
    h0.monitor_stability_frontier(h0.id(), "AllRemote", move |u| {
        assert!(frontier(&h, "AllRemote") >= Some(u.seq));
        if count.fetch_add(1, Ordering::Relaxed) < FOLLOW_UPS {
            publish(&h, b"follow-up");
        }
    });
    // Node 1's delivery upcall reads its own handle.
    let seen = Arc::new(AtomicU64::new(0));
    let (h, count) = (h1.clone(), Arc::clone(&seen));
    h1.on_deliver(move |origin, seq, _| {
        assert!(R::delivered(&h, origin) >= seq);
        count.fetch_add(1, Ordering::Relaxed);
    });

    publish(h0, b"first");
    assert!(waitfor(h0, "AllRemote", 1 + FOLLOW_UPS));
    eventually("a delivery upcall never returned", || {
        seen.load(Ordering::Relaxed) == 1 + FOLLOW_UPS
    });
    for h in &cluster {
        h.shutdown();
    }
}

#[test]
fn callbacks_may_re_enter_the_handle_without_deadlock() {
    callbacks_may_call_back_into_the_handle::<StabilizerNode>();
    callbacks_may_call_back_into_the_handle::<ShardedEngine>();
}
