//! The availability prover is bounded: a predicate it cannot decide
//! within its bounds is reported undecided (`None`) at once, not proved
//! by a search that panics on more nodes than a 64-bit mask holds or
//! enumerates 2^d crash sets.

use stabilizer_analyze::availability;
use stabilizer_dsl::{AckTypeRegistry, NodeId, Predicate, Topology};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// One availability zone of `n` nodes.
fn one_az(n: usize) -> Topology {
    let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    Topology::builder().az("A", &names).build().unwrap()
}

/// `f*` of `source` at node 0 of an `n`-node zone, or `None` when
/// undecided; fails unless the prover returns within `deadline`.
fn tolerance_within(n: usize, source: &'static str, deadline: Duration) -> Option<i64> {
    let (tx, rx) = mpsc::channel();
    let prover = thread::spawn(move || {
        let topo = one_az(n);
        let acks = AckTypeRegistry::new();
        let pred = Predicate::compile(source, &topo, &acks, NodeId(0)).unwrap();
        let _ = tx.send(availability(&pred, &topo, NodeId(0)).map(|a| a.tolerance));
    });
    let verdict = rx
        .recv_timeout(deadline)
        .unwrap_or_else(|e| panic!("no verdict within {deadline:?}: {e}"));
    prover.join().expect("the prover thread ends");
    verdict
}

#[test]
fn more_nodes_than_a_mask_holds_are_undecided() {
    let min = "MIN($ALLWNODES-$MYWNODE)";
    assert_eq!(tolerance_within(70, min, Duration::from_secs(10)), None);
}

#[test]
fn a_majority_of_20_returns_at_once() {
    let majority = "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)";
    // Any 9 of the 19 remotes down block it: f* = 8 where decided.
    let verdict = tolerance_within(20, majority, Duration::from_secs(1));
    assert!(verdict.is_none_or(|f| f == 8), "{verdict:?}");
}

#[test]
fn sixteen_nodes_are_decided() {
    let majority = "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)";
    // 9 of the 15 remotes needed up: any 7 down block it.
    assert_eq!(
        tolerance_within(16, majority, Duration::from_secs(60)),
        Some(6)
    );
}
