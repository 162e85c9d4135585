//! The threads a sharded node runs, counted off `/proc`: the link
//! layer's one I/O loop and nothing else, whatever the shard count — the
//! loop folds every batch and runs the callbacks of what it folded, so
//! there is nothing per shard, and no dispatcher, to run. One test, so
//! no other node in this process shares the name prefix.
#![cfg(target_os = "linux")]

use stabilizer_core::ClusterConfig;
use stabilizer_shard::RoutePolicy;
use stabilizer_transport::spawn_sharded_local_cluster;
use std::time::{Duration, Instant};

/// Names of this process's live threads that start with `prefix`, sorted
/// (the kernel keeps the first 15 bytes of a name).
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

#[test]
fn a_sharded_node_runs_the_link_threads_and_nothing_else() {
    let cfg = "az East a b\naz West c\noption shards 4\npredicate All MIN($ALLWNODES)\n";
    let cfg = ClusterConfig::parse(cfg).expect("config");
    let nodes = spawn_sharded_local_cluster(&cfg, RoutePolicy::RoundRobin).expect("cluster");

    let expected: Vec<Vec<String>> = (0..3).map(|me| vec![format!("stabs-{me}-io")]).collect();
    let running = || -> Vec<Vec<String>> {
        let of = |me| threads_named(&format!("stabs-{me}-"));
        (0..3).map(of).collect()
    };
    // A thread names itself once it runs: wait for the names to
    // settle.
    let deadline = Instant::now() + Duration::from_secs(10);
    while running() != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(running(), expected);

    for node in &nodes {
        node.handle().shutdown();
    }
    // Shutdown wakes the loop, so it is gone within 200 ms on an idle
    // machine; a stolen CPU gets 2 s.
    let deadline = Instant::now() + Duration::from_secs(2);
    while !threads_named("stabs-").is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let left = threads_named("stabs-");
    assert!(left.is_empty(), "still running after shutdown: {left:?}");
}
