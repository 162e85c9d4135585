//! A node compiles each predicate source once per replica set: a key
//! registered with the source of an installed key, on a stream with the
//! same replica set, shares that key's compiled program instead of
//! compiling it again. Sharing must be invisible: every frontier is the
//! one a fresh `Predicate::compile(..).restricted_to(..)` reads off the
//! same ACK table, a stream with another replica set gets its own
//! program, and neither `change_predicate` nor the §III-E exclusion
//! rewrite of one key reaches the keys it shared with. Nor is a program
//! compiled again once registered: a reinstatement and `f*` read the
//! registered one. Allocations are counted per thread, as in
//! `analysis_install.rs`.

use bytes::Bytes;
use stabilizer_core::sim_driver::{build_cluster, SimNode};
use stabilizer_core::{
    AckTypeRegistry, ClusterConfig, NodeId, Predicate, StabilizerNode, TimerKind, WireMsg,
};
use stabilizer_netsim::{NetTopology, SimDuration, Simulation};
use std::sync::Arc;

#[global_allocator]
static ALLOC: stabilizer_testalloc::Counting = stabilizer_testalloc::Counting;

/// The paper's Fig. 2 topology: 4 regions, 8 nodes.
const EC2: &str = "\
az North_California n1 n2
az North_Virginia n3 n4 n5 n6
az Oregon n7
az Ohio n8
";

/// A majority of the remotes.
const QUORUM: &str = "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)";
/// Every remote.
const ALL: &str = "MIN($ALLWNODES-$MYWNODE)";
/// Any remote.
const ANY: &str = "MAX($ALLWNODES-$MYWNODE)";

fn ec2(extra: &str) -> ClusterConfig {
    ClusterConfig::parse(&format!("{EC2}{extra}")).unwrap()
}

/// The frontier a fresh compile of `source` for `stream` at `node`
/// reads off the node's ACK table now.
fn fresh_frontier(node: &StabilizerNode, stream: NodeId, source: &str) -> u64 {
    let cfg = node.config();
    Predicate::compile(source, cfg.topology(), node.ack_types(), node.me())
        .unwrap()
        .restricted_to(node.placement().replicas(stream))
        .unwrap()
        .eval(&node.recorder().stream_view(stream))
}

/// `(stream, key) -> frontier` at `node`.
fn frontier(node: &StabilizerNode, stream: u16, key: &str) -> u64 {
    node.stability_frontier(NodeId(stream), key).unwrap().0
}

/// Every node publishes `per_node` messages.
fn publish_everywhere(sim: &mut Simulation<SimNode>, per_node: usize) {
    for i in 0..8 {
        for _ in 0..per_node {
            sim.with_ctx(i, |n, ctx| n.publish_in(ctx, Bytes::from_static(b"m")))
                .unwrap();
        }
    }
}

/// Cut node `n` off from every other node.
fn cut_off(sim: &mut Simulation<SimNode>, n: usize) {
    for i in (0..8).filter(|&i| i != n) {
        sim.set_link_up(n, i, false);
        sim.set_link_up(i, n, false);
    }
}

/// The first registration of a source at n1 compiles it; registering it
/// again on six more streams, all at full replication, only indexes it.
/// The engine's `Vec`s double on one of the six, so the median is held to
/// a quarter of the first and the largest to half (a compile each, as
/// before sharing, costs three quarters of the first).
#[test]
fn registering_a_source_again_on_the_same_replica_set_does_not_compile_it_again() {
    let mut node =
        StabilizerNode::new(ec2(""), NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap();
    let (first, registered) =
        stabilizer_testalloc::cost(|| node.register_predicate(NodeId(0), "Quorum", QUORUM));
    registered.unwrap();
    let mut again: Vec<usize> = (1..7)
        .map(|stream| {
            let (cost, registered) = stabilizer_testalloc::cost(|| {
                node.register_predicate(NodeId(stream), "Quorum", QUORUM)
            });
            registered.unwrap();
            cost
        })
        .collect();
    again.sort_unstable();
    assert!(
        again[3] * 4 <= first && again[5] * 2 <= first,
        "again {again:?} B, the first registration {first} B"
    );
}

#[test]
fn shared_programs_report_the_frontiers_of_fresh_compiles() {
    let mut sim = build_cluster(&ec2(""), NetTopology::ec2_fig2(), 3).unwrap();
    let sources = [("Quorum", QUORUM), ("All", ALL), ("Any", ANY)];
    for i in 0..8 {
        for stream in 0..8 {
            for (key, source) in sources {
                sim.with_ctx(i, |n, ctx| {
                    n.register_predicate_in(ctx, NodeId(stream), key, source)
                })
                .unwrap();
            }
        }
    }
    publish_everywhere(&mut sim, 3);
    let mut advanced = 0;
    for _ in 0..40 {
        sim.run_for(SimDuration::from_millis(5));
        for i in 0..8 {
            let node = sim.actor(i).inner();
            for stream in 0..8 {
                for (key, source) in sources {
                    let at = frontier(node, stream, key);
                    assert_eq!(
                        at,
                        fresh_frontier(node, NodeId(stream), source),
                        "node {i}, stream {stream}, {key}"
                    );
                    advanced += usize::from(at > 0);
                }
            }
        }
    }
    assert!(advanced > 0, "no frontier moved: the check saw nothing");
}

/// Startup predicates are parsed once by the config and compiled from
/// that tree at every node: each node's frontiers are those of fresh
/// compiles of the configured sources, on a stream placed on a replica
/// set as on one that is not.
#[test]
fn startup_predicates_report_the_frontiers_of_fresh_compiles() {
    let cfg = ec2(&format!(
        "replicate n2 n2 n3 n7\n\
         predicate Quorum {QUORUM}\n\
         predicate All {ALL}\n\
         predicate Any {ANY}\n"
    ));
    let sources: Vec<(String, String)> = cfg
        .predicates()
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    assert_eq!(sources.len(), 3);
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 6).unwrap();
    publish_everywhere(&mut sim, 3);
    let mut advanced = 0;
    for _ in 0..40 {
        sim.run_for(SimDuration::from_millis(5));
        for i in 0..8 {
            let node = sim.actor(i).inner();
            for (key, source) in &sources {
                let at = frontier(node, i as u16, key);
                assert_eq!(
                    at,
                    fresh_frontier(node, NodeId(i as u16), source),
                    "node {i}, {key}"
                );
                advanced += usize::from(at > 0);
            }
        }
    }
    assert!(advanced > 0, "no frontier moved: the check saw nothing");
}

#[test]
fn a_stream_with_another_replica_set_gets_its_own_program() {
    // Stream n1 is stored on n1, n2 and n7 only; stream n2 everywhere.
    let cfg = ec2("replicate n1 n1 n2 n7\n");
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 4).unwrap();
    // n1 installs on the full stream first, n2 on the restricted one
    // first: a program shared by source alone would make the second
    // registration wait on a non-replica, or let it ignore a replica.
    for (i, order) in [(0, [1, 0]), (1, [0, 1])] {
        for stream in order {
            sim.with_ctx(i, |n, ctx| {
                n.register_predicate_in(ctx, NodeId(stream), "All", ALL)
            })
            .unwrap();
        }
    }
    // n8 replicates stream n2 but not stream n1.
    cut_off(&mut sim, 7);
    for i in [0, 1] {
        for _ in 0..3 {
            sim.with_ctx(i, |n, ctx| n.publish_in(ctx, Bytes::from_static(b"m")))
                .unwrap();
        }
    }
    sim.run_until_idle();
    for i in [0, 1] {
        let node = sim.actor(i).inner();
        assert_eq!(frontier(node, 0, "All"), 3, "node {i}: stream n1 waits");
        assert_eq!(frontier(node, 1, "All"), 0, "node {i}: stream n2 skips n8");
        for stream in [0, 1] {
            assert_eq!(
                frontier(node, stream, "All"),
                fresh_frontier(node, NodeId(stream), ALL)
            );
        }
    }
}

#[test]
fn a_change_or_an_exclusion_of_one_key_leaves_the_keys_it_shared_with() {
    let cfg = ec2("option failure_timeout_millis 500\n\
         option heartbeat_millis 100\n\
         option auto_exclude_suspects true\n");
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 5).unwrap();
    for stream in 0..4 {
        sim.with_ctx(0, |n, ctx| {
            n.register_predicate_in(ctx, NodeId(stream), "K", ALL)
        })
        .unwrap();
    }
    publish_everywhere(&mut sim, 2);
    sim.run_for(SimDuration::from_millis(400));
    let before: Vec<_> = (0..4)
        .map(|s| sim.actor(0).inner().stability_frontier(NodeId(s), "K"))
        .collect();
    assert!(before.iter().all(|f| f.unwrap().0 == 2), "{before:?}");

    // A change moves one key to another source; the others keep theirs.
    sim.with_ctx(0, |n, ctx| {
        n.change_predicate_in(ctx, NodeId(0), "K", QUORUM)
    })
    .unwrap();
    let node = sim.actor(0).inner();
    assert_eq!(node.stability_frontier(NodeId(0), "K"), Some((2, 1)));
    for s in 1..4 {
        assert_eq!(node.stability_frontier(NodeId(s), "K"), before[s as usize]);
    }

    // n8 goes silent and, once suspected, is excluded from every
    // predicate reading it: stream n2's `K` advances without it.
    cut_off(&mut sim, 7);
    sim.with_ctx(1, |n, ctx| n.publish_in(ctx, Bytes::from_static(b"m")))
        .unwrap();
    sim.run_for(SimDuration::from_millis(2000));
    let node = sim.actor(0).inner();
    assert!(node.is_suspected(NodeId(7)));
    let (excluded, generation) = node.stability_frontier(NodeId(1), "K").unwrap();
    assert_eq!((excluded, generation), (3, 1));

    // A fresh registration of the original source while n8 is excluded
    // skips n8 too (§III-E: a running program is its registered one less
    // the exclusions in force), where a compile alone would stay where
    // n8 left it.
    sim.with_ctx(0, |n, ctx| {
        n.register_predicate_in(ctx, NodeId(1), "Fresh", ALL)
    })
    .unwrap();
    let node = sim.actor(0).inner();
    assert_eq!(frontier(node, 1, "Fresh"), excluded);
    assert_eq!(fresh_frontier(node, NodeId(1), ALL), 2);
}

/// Bytes that computing every `f*` at `node` requests.
fn tolerances_cost(node: &StabilizerNode) -> usize {
    stabilizer_testalloc::cost(|| node.predicate_tolerances().count()).0
}

/// n8 is suspected and excluded from the one key at n1, then heard
/// again: `f*` costs what it cost before the exclusion, and the
/// reinstatement, which runs the registered program again, costs at
/// most a quarter of the first registration (a compile costs more).
#[test]
fn a_reinstatement_and_the_tolerances_compile_nothing() {
    const MS: u64 = 1_000_000;
    let cfg = ec2("option failure_timeout_millis 500\noption auto_exclude_suspects true\n");
    let mut node = StabilizerNode::new(cfg, NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap();
    let (first, registered) =
        stabilizer_testalloc::cost(|| node.register_predicate(NodeId(0), "K", ALL));
    registered.unwrap();
    let tolerances = tolerances_cost(&node);
    for peer in 1..7 {
        node.on_message(600 * MS, NodeId(peer), WireMsg::Heartbeat);
    }
    node.on_timer(TimerKind::Failure, 600 * MS);
    assert!(node.is_suspected(NodeId(7)));
    assert_eq!(node.stability_frontier(NodeId(0), "K"), Some((0, 1)));
    assert_eq!(tolerances_cost(&node), tolerances, "f* of the excluded key");
    node.take_actions();
    let (back, ()) =
        stabilizer_testalloc::cost(|| node.on_message(700 * MS, NodeId(7), WireMsg::Heartbeat));
    assert_eq!(node.stability_frontier(NodeId(0), "K"), Some((0, 2)));
    assert!(
        back * 4 <= first,
        "the reinstatement {back} B, the first registration {first} B"
    );
}
