//! End-to-end tests of the TCP runtime on localhost: the same protocol
//! that the simulator exercises, over real sockets.

use bytes::Bytes;
use stabilizer_core::{AckTypeRegistry, ClusterConfig, NodeId, SharedEventLog};
use stabilizer_transport::{spawn_local_cluster, spawn_node_with, NodeHandle, SpawnOptions};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CFG: &str = "\
az East e1 e2
az West w1
predicate AllRemote MIN($ALLWNODES-$MYWNODE)
predicate OneRemote MAX($ALLWNODES-$MYWNODE)
";

fn cluster() -> Vec<stabilizer_transport::TcpNode> {
    spawn_local_cluster(&ClusterConfig::parse(CFG).unwrap()).unwrap()
}

/// [`cluster`]'s handles, node 0 recording every event it emits.
fn observed_cluster() -> (Vec<NodeHandle>, SharedEventLog) {
    let cfg = ClusterConfig::parse(CFG).unwrap();
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let (acks, log) = (Arc::new(AckTypeRegistry::new()), SharedEventLog::default());
    let handles = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let peers = (0..3).filter(|j| *j != i);
            let peers = peers.map(|j| (NodeId(j as u16), addrs[j])).collect();
            let opts = SpawnOptions {
                observer: (i == 0).then(|| Box::new(Arc::clone(&log)) as _),
                ..SpawnOptions::default()
            };
            let node = spawn_node_with(
                cfg.clone(),
                NodeId(i as u16),
                Arc::clone(&acks),
                listener,
                peers,
                opts,
            );
            node.unwrap().handle()
        })
        .collect();
    (handles, log)
}

/// How many `WaitDone`s for `token` the log holds.
fn wait_dones(log: &SharedEventLog, token: u64) -> usize {
    let log = log.lock();
    log.completed_waits
        .iter()
        .filter(|(_, t)| *t == token)
        .count()
}

#[test]
fn a_waitfor_already_covered_returns_at_once_and_is_observed_once() {
    let (nodes, log) = observed_cluster();
    let h = &nodes[0];
    let seq = h
        .publish(Bytes::from_static(b"covered"), Duration::from_secs(1))
        .unwrap();
    assert!(h
        .waitfor(NodeId(0), "AllRemote", seq, Duration::from_secs(10))
        .unwrap());
    // Tokens count up per node: bracket the blocking call's token with
    // two non-blocking ones.
    let before = h.begin_waitfor(NodeId(0), "AllRemote", seq).unwrap();
    assert!(h
        .waitfor(NodeId(0), "AllRemote", seq, Duration::ZERO)
        .unwrap());
    let after = h.begin_waitfor(NodeId(0), "AllRemote", seq).unwrap();
    assert_eq!(after, before + 2);
    let token = before + 1;
    assert_eq!(wait_dones(&log, token), 1, "the observer sees it once");
    // Never handed to the rendezvous: nothing is left there to take.
    assert!(!h.wait_is_done(token));
    assert!(h.wait_is_done(before) && h.wait_is_done(after));
    for h in &nodes {
        h.shutdown();
    }
}

#[test]
fn a_waitfor_that_must_sleep_is_woken_by_a_later_publish() {
    let (nodes, log) = observed_cluster();
    let (h, began) = (nodes[0].clone(), Instant::now());
    let publisher = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        h.publish(Bytes::from_static(b"late"), Duration::from_secs(1))
            .unwrap()
    });
    assert!(nodes[0]
        .waitfor(NodeId(0), "AllRemote", 1, Duration::from_secs(10))
        .unwrap());
    assert!(began.elapsed() >= Duration::from_millis(100));
    assert_eq!(publisher.join().unwrap(), 1);
    // The node's only wait, completed exactly once.
    assert_eq!(log.lock().completed_waits.len(), 1);
    for h in &nodes {
        h.shutdown();
    }
}

#[test]
fn a_begin_waitfor_token_is_kept_until_taken() {
    let (nodes, _log) = observed_cluster();
    let h = &nodes[0];
    let pending = h.begin_waitfor(NodeId(0), "AllRemote", 1).unwrap();
    assert!(!h.wait_is_done(pending));
    let seq = h
        .publish(Bytes::from_static(b"x"), Duration::from_secs(1))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !h.wait_is_done(pending) {
        assert!(
            Instant::now() < deadline,
            "the pending wait never completed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(!h.wait_is_done(pending), "a completion is taken once");
    // One already covered completes within the call, kept all the same.
    let covered = h.begin_waitfor(NodeId(0), "AllRemote", seq).unwrap();
    assert!(h.wait_is_done(covered));
    assert!(!h.wait_is_done(covered));
    for h in &nodes {
        h.shutdown();
    }
}

#[test]
fn publish_waitfor_roundtrip() {
    let nodes = cluster();
    let h = nodes[0].handle();
    let seq = h
        .publish(Bytes::from_static(b"hello wan"), Duration::from_secs(1))
        .unwrap();
    assert!(h
        .waitfor(NodeId(0), "AllRemote", seq, Duration::from_secs(10))
        .unwrap());
    let (frontier, _) = h.stability_frontier(NodeId(0), "AllRemote").unwrap();
    assert!(frontier >= seq);
    for n in &nodes {
        n.handle().shutdown();
    }
}

#[test]
fn deliveries_reach_every_peer_in_order() {
    let nodes = cluster();
    let h0 = nodes[0].handle();
    let seen: Arc<parking_lot::Mutex<Vec<u64>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    {
        let seen = Arc::clone(&seen);
        nodes[2].handle().on_deliver(move |origin, seq, payload| {
            assert_eq!(origin, NodeId(0));
            assert_eq!(payload.len(), 32);
            seen.lock().push(seq);
        });
    }
    let mut last = 0;
    for _ in 0..50 {
        last = h0
            .publish(Bytes::from(vec![9u8; 32]), Duration::from_secs(1))
            .unwrap();
    }
    assert!(h0
        .waitfor(NodeId(0), "AllRemote", last, Duration::from_secs(10))
        .unwrap());
    let seen = seen.lock();
    assert_eq!(
        *seen,
        (1..=50).collect::<Vec<u64>>(),
        "FIFO delivery violated"
    );
    for n in &nodes {
        n.handle().shutdown();
    }
}

#[test]
fn monitor_fires_monotonically() {
    let nodes = cluster();
    let h = nodes[0].handle();
    let high = Arc::new(AtomicU64::new(0));
    {
        let high = Arc::clone(&high);
        h.monitor_stability_frontier(NodeId(0), "AllRemote", move |u| {
            let prev = high.swap(u.seq, Ordering::SeqCst);
            assert!(u.seq >= prev, "frontier regressed {prev} -> {}", u.seq);
        });
    }
    let mut last = 0;
    for _ in 0..20 {
        last = h
            .publish(Bytes::from(vec![0u8; 64]), Duration::from_secs(1))
            .unwrap();
    }
    assert!(h
        .waitfor(NodeId(0), "AllRemote", last, Duration::from_secs(10))
        .unwrap());
    assert_eq!(high.load(Ordering::SeqCst), last);
    for n in &nodes {
        n.handle().shutdown();
    }
}

#[test]
fn change_predicate_over_tcp() {
    let nodes = cluster();
    let h = nodes[0].handle();
    let seq = h
        .publish(Bytes::from_static(b"x"), Duration::from_secs(1))
        .unwrap();
    assert!(h
        .waitfor(NodeId(0), "OneRemote", seq, Duration::from_secs(10))
        .unwrap());
    // Swap OneRemote to the stronger all-remotes form; frontier catches up.
    h.change_predicate(NodeId(0), "OneRemote", "MIN($ALLWNODES-$MYWNODE)")
        .unwrap();
    assert!(h
        .waitfor(NodeId(0), "OneRemote", seq, Duration::from_secs(10))
        .unwrap());
    for n in &nodes {
        n.handle().shutdown();
    }
}

#[test]
fn waitfor_times_out_without_acks() {
    let nodes = cluster();
    let h = nodes[1].handle();
    // Waiting on a sequence that was never published times out cleanly.
    let ok = h
        .waitfor(NodeId(1), "AllRemote", 999, Duration::from_millis(200))
        .unwrap();
    assert!(!ok);
    for n in &nodes {
        n.handle().shutdown();
    }
}

#[test]
fn remote_stream_watching_over_tcp() {
    let nodes = cluster();
    // Node 2 watches node 0's stream with its own predicate.
    let h2 = nodes[2].handle();
    h2.register_predicate(NodeId(0), "mine", "MAX($3)").unwrap(); // $3 == node id 2 (1-based)
    let h0 = nodes[0].handle();
    let seq = h0
        .publish(Bytes::from_static(b"watched"), Duration::from_secs(1))
        .unwrap();
    assert!(h2
        .waitfor(NodeId(0), "mine", seq, Duration::from_secs(10))
        .unwrap());
    assert_eq!(h2.received_of(NodeId(0)), seq);
    for n in &nodes {
        n.handle().shutdown();
    }
}

#[test]
fn concurrent_publishers_share_one_handle_safely() {
    let nodes = cluster();
    let h = nodes[0].handle();
    let mut threads = Vec::new();
    for _ in 0..4 {
        let h = h.clone();
        threads.push(std::thread::spawn(move || {
            let mut seqs = Vec::new();
            for _ in 0..25 {
                seqs.push(
                    h.publish(Bytes::from(vec![0u8; 128]), Duration::from_secs(2))
                        .unwrap(),
                );
            }
            seqs
        }));
    }
    let mut all: Vec<u64> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    all.sort_unstable();
    // 100 unique, gapless sequence numbers despite concurrent callers.
    assert_eq!(all, (1..=100).collect::<Vec<u64>>());
    assert!(h
        .waitfor(NodeId(0), "AllRemote", 100, Duration::from_secs(15))
        .unwrap());
    for n in &nodes {
        n.handle().shutdown();
    }
}

#[test]
fn deny_mode_rejects_predicate_at_install_over_tcp() {
    use stabilizer_core::CoreError;
    // Same deployment plus install-time analysis enforcement.
    let cfg = ClusterConfig::parse(&format!("{CFG}option analysis deny\n")).unwrap();
    let nodes = spawn_local_cluster(&cfg).unwrap();
    // At w1 (node 2, alone in its AZ) $MYAZWNODES-$MYWNODE is empty: the
    // predicate compiles — the empty set silently drops out of the
    // reduction — but deny-mode analysis rejects the install.
    let err = nodes[2]
        .handle()
        .register_predicate(NodeId(2), "AzOrFirst", "MAX($3, $MYAZWNODES-$MYWNODE)")
        .unwrap_err();
    match &err {
        CoreError::PredicateRejected { key, report } => {
            assert_eq!(key, "AzOrFirst");
            assert!(report.contains("empty-set"), "report:\n{report}");
        }
        other => panic!("expected PredicateRejected, got {other:?}"),
    }
    assert!(nodes[2]
        .handle()
        .stability_frontier(NodeId(2), "AzOrFirst")
        .is_none());
    // The same source installs fine at e2 (node 1): its operands are w1
    // plus its AZ peer e1, both remote.
    nodes[1]
        .handle()
        .register_predicate(NodeId(1), "AzOrFirst", "MAX($3, $MYAZWNODES-$MYWNODE)")
        .expect("predicate is clean at a node with an AZ peer");
    for n in &nodes {
        n.handle().shutdown();
    }
}

/// Names of this process's live threads that start with `prefix`, sorted.
#[cfg(target_os = "linux")]
fn threads_named(prefix: &str) -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let names = tasks.filter_map(|task| {
        // A thread can exit between the listing and the read.
        std::fs::read_to_string(task.ok()?.path().join("comm")).ok()
    });
    let mut names: Vec<String> = names
        .map(|name| name.trim_end().to_owned())
        .filter(|name| name.starts_with(prefix))
        .collect();
    names.sort();
    names
}

/// The plain twin of `sharded_threads.rs`: a node runs one I/O thread
/// and nothing else, its links up or not. Every other test
/// here runs nodes 0-2 in parallel with this one, so only nodes 3 and 4
/// are counted.
#[cfg(target_os = "linux")]
#[test]
fn a_node_runs_one_io_thread_once_its_links_are_up() {
    let cfg = ClusterConfig::parse("az East a b c\naz West d e\n").unwrap();
    let nodes = spawn_local_cluster(&cfg).unwrap();
    let counted = || ["stab-3-", "stab-4-"].map(threads_named);
    let expected = [["stab-3-io"], ["stab-4-io"]];
    let deadline = Instant::now() + Duration::from_secs(10);
    while counted() != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(counted(), expected);
    for n in &nodes {
        n.handle().shutdown();
    }
    let gone = || counted().iter().all(Vec::is_empty);
    let deadline = Instant::now() + Duration::from_secs(2);
    while !gone() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(gone(), "still running after shutdown: {:?}", counted());
}
