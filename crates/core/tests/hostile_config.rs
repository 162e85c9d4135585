//! A configuration file is input too: what `ClusterConfig::parse`
//! allocates must be bounded by the bytes it was given, not by the
//! square of the node count they name, and a topology with more nodes
//! than a `NodeId` can number is refused, not wrapped around. Nor is
//! its time quadratic: a `replicate` line naming every node parses in
//! time linear in its names (its set is sorted and deduplicated once,
//! not searched per name). Counted with a per-thread allocator, as in
//! `hostile_decode.rs`. Building a
//! node from the config is not held to this: its ACK table is N × N by
//! design. But building a node is polynomial in the node count: an
//! install compiles its predicate and proves nothing about it, so a
//! quorum over dozens of nodes boots at once, and a cluster of more
//! nodes than a 64-bit mask holds boots at all. Nor does an install
//! cost more the more keys are installed: a node registers 20 000 keys
//! at once. `ClusterConfig::parse` parses every `predicate` body, within
//! the same bound; a body that does not parse is the node's to refuse.

use bytes::Bytes;
use stabilizer_core::{
    AckTypeRegistry, ClusterConfig, CoreError, NodeId, Predicate, StabilizerNode,
};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

#[global_allocator]
static ALLOC: stabilizer_testalloc::Counting = stabilizer_testalloc::Counting;

/// The bound of the DSL front end, which reads the predicates of the
/// same file.
const PER_INPUT_BYTE: usize = 512;

/// One availability zone of `n` nodes named `n0`, `n1`, ...
fn one_az(n: usize) -> String {
    let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    format!("az A {}\n", names.join(" "))
}

/// Parse `text`, asserting the allocation bound.
fn parse_within_bound(text: &str) -> ClusterConfig {
    let (cost, parsed) = stabilizer_testalloc::cost(|| ClusterConfig::parse(text));
    let cfg = parsed.expect("the config parses");
    assert!(
        cost <= PER_INPUT_BYTE * text.len(),
        "{cost} B allocated parsing a {}-byte config of {} nodes",
        text.len(),
        cfg.num_nodes()
    );
    cfg
}

#[test]
fn many_nodes_at_full_replication_cost_their_bytes_not_their_square() {
    let cfg = parse_within_bound(&one_az(16_000));
    assert!(cfg.placement().is_full_replication());
}

#[test]
fn one_replicate_line_keeps_the_other_streams_shared() {
    let text = one_az(16_000) + "replicate n0 n0 n1\n";
    let cfg = parse_within_bound(&text);
    let placement = cfg.placement();
    assert!(!placement.is_full_replication());
    assert_eq!(placement.replicas(stabilizer_core::NodeId(0)).len(), 2);
    assert_eq!(placement.replicas(stabilizer_core::NodeId(1)).len(), 16_000);
}

#[test]
fn more_nodes_than_an_id_can_number_are_refused() {
    let n = usize::from(u16::MAX) + 2;
    match ClusterConfig::parse(&one_az(n)) {
        Err(CoreError::Config(msg)) => assert!(msg.contains("nodes"), "{msg}"),
        Err(other) => panic!("refused as {other:?}, not as a config error"),
        Ok(cfg) => panic!("{n} nodes parsed, into {} ids", cfg.num_nodes()),
    }
}

/// Run `f` on its own thread, failing unless it returns within
/// `deadline` (a hang fails rather than stalls the suite).
fn within<T: Send + 'static>(deadline: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let running = thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(deadline)
        .unwrap_or_else(|e| panic!("nothing within {deadline:?}: {e}"));
    running.join().expect("the thread ends");
    out
}

/// Build node `n0` of `text`, failing unless it is built within
/// `deadline`.
fn boots_within(text: String, deadline: Duration) {
    let built = within(deadline, move || {
        let cfg = ClusterConfig::parse(&text).expect("the config parses");
        StabilizerNode::new(cfg, NodeId(0), Arc::new(AckTypeRegistry::new()))
            .map(|node| node.config().num_nodes())
    });
    assert!(built.is_ok(), "the node was refused: {built:?}");
}

#[test]
fn a_replicate_line_naming_every_node_parses_in_time_linear_in_its_names() {
    // Stream n0 on every node but the last, named last to first, n0
    // twice: 65 535 names on one 440 KB line.
    let n = usize::from(u16::MAX);
    let names: Vec<String> = (0..n - 1).rev().map(|i| format!("n{i}")).collect();
    let text = one_az(n) + &format!("replicate n0 {} n0\n", names.join(" "));
    let cfg = within(Duration::from_secs(8), move || parse_within_bound(&text));
    let placement = cfg.placement();
    assert!(!placement.is_full_replication());
    assert_eq!(placement.replicas(NodeId(0)).len(), n - 1);
    assert_eq!(placement.replicas(NodeId(1)).len(), n);
}

#[test]
fn a_quorum_over_24_nodes_boots_at_once() {
    let text =
        one_az(24) + "predicate Quorum KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)\n";
    boots_within(text, Duration::from_secs(2));
}

#[test]
fn more_nodes_than_a_mask_holds_boot() {
    let text = one_az(70) + "predicate All MIN($ALLWNODES-$MYWNODE)\n";
    boots_within(text, Duration::from_secs(10));
}

#[test]
fn predicate_bodies_are_parsed_within_the_bound() {
    let mut text = one_az(8);
    for i in 0..200 {
        text += &format!(
            "predicate Quorum{i} KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)\n\
             predicate Pair{i} MIN(MAX($1, $2), MAX($3.persisted, $WNODE_n4, $AZ_A-$MYWNODE))\n\
             predicate Wide{i} MAX($1,$2,$3,$4,$5,$6,$7,$8,$1,$2,$3,$4,$5,$6,$7,$8)\n"
        );
    }
    let cfg = parse_within_bound(&text);
    assert_eq!(cfg.predicates().count(), 600);
}

#[test]
fn a_body_that_does_not_parse_is_refused_by_the_node_not_the_config() {
    const BODY: &str = "MIN($ALLWNODES-$MYWNODE";
    for (analysis, deny) in [("warn", false), ("deny", true)] {
        let text = format!(
            "{}predicate Broken {BODY}\noption analysis {analysis}\n",
            one_az(3)
        );
        let cfg = ClusterConfig::parse(&text).expect("the config parses");
        assert_eq!(cfg.predicates().collect::<Vec<_>>(), [("Broken", BODY)]);
        let acks = Arc::new(AckTypeRegistry::new());
        let refused = StabilizerNode::new(cfg.clone(), NodeId(0), Arc::clone(&acks))
            .expect_err("the node refuses the body");
        if deny {
            match refused {
                CoreError::PredicateRejected { key, report } => {
                    assert_eq!(key, "Broken");
                    assert!(report.contains("syntax-error"), "report:\n{report}");
                }
                other => panic!("refused as {other:?}, not by the analyzer"),
            }
        } else {
            let compiled = Predicate::compile(BODY, cfg.topology(), &acks, NodeId(0));
            assert_eq!(
                refused,
                CoreError::Dsl(compiled.expect_err("it does not parse"))
            );
        }
    }
}

#[test]
fn twenty_thousand_keys_register_at_once() {
    let folded = within(Duration::from_secs(4), || {
        let cfg = ClusterConfig::parse(&one_az(8)).expect("the config parses");
        let mut node = StabilizerNode::new(cfg, NodeId(0), Arc::new(AckTypeRegistry::new()))
            .expect("the node boots");
        for i in 0..20_000u16 {
            let (stream, key) = (NodeId(i % 8), format!("k{i}"));
            node.register_predicate(stream, &key, "MIN($ALLWNODES-$MYWNODE)")
                .expect("the predicate compiles");
        }
        // The first fold after the installs reads the dependency index.
        node.publish(Bytes::from_static(b"m")).expect("publishes");
        node.stability_frontier(NodeId(0), "k0")
    });
    assert_eq!(folded, Some((0, 0)));
}

/// Wall time to register 20 000 keys at node 0 of eight, key `i` on
/// stream `i % 8` with source `source(i)`.
fn register_keys(source: fn(u16) -> String) -> Duration {
    let cfg = ClusterConfig::parse(&one_az(8)).expect("the config parses");
    let acks = Arc::new(AckTypeRegistry::new());
    let mut node = StabilizerNode::new(cfg, NodeId(0), acks).expect("the node boots");
    let started = std::time::Instant::now();
    for i in 0..20_000u16 {
        let (stream, key) = (NodeId(i % 8), format!("k{i}"));
        node.register_predicate(stream, &key, &source(i))
            .expect("the predicate compiles");
    }
    started.elapsed()
}

/// Nor does an install cost more the more *distinct* sources are
/// installed: whether a source was compiled before is a lookup, not a
/// scan of every registered key. Timed in the release profile, where
/// the 20 000 compiles cost less than the one-source case's indexing;
/// a debug build's compiles alone exceed the bound.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a timing bound: run in the release profile"
)]
fn distinct_sources_register_within_twice_the_time_of_one() {
    let one = register_keys(|_| "KTH_MIN(7-7+1, $ALLWNODES-$MYWNODE)".to_owned());
    let distinct = register_keys(|i| format!("KTH_MIN({i}-{i}+1, $ALLWNODES-$MYWNODE)"));
    assert!(
        distinct <= 2 * one,
        "20 000 distinct sources took {distinct:?}, one source {one:?}"
    );
}
