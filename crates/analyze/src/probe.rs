//! Numeric probing of compiled predicates.
//!
//! Some semantic properties are easiest to establish by *running* the
//! compiled program against synthetic ACK tables rather than reasoning
//! about the expression tree: vacuity (satisfied by the origin alone) and
//! crash-satisfiability (still able to advance once `f` nodes are dead).
//! Both exploit predicate monotonicity: every reduction is monotone in
//! each ACK cell, so probing with a single "high" value `H` against zeros
//! is conclusive — if the result is `H` (resp. `< H`) at the probe
//! point, it is for every sequence number.

use stabilizer_dsl::{AckTypeId, AckView, NodeId, Predicate, Program, Topology};

/// The "high watermark" used by probes; any value would do (monotonicity),
/// but a large one keeps it visually distinct from real sequence numbers
/// in debug output.
pub const PROBE_HIGH: u64 = 1 << 62;

/// An ACK table where a fixed node set has acknowledged everything
/// (`PROBE_HIGH` at every ACK type) and everyone else nothing.
struct SubsetView<'a> {
    up: &'a [NodeId],
}

impl AckView for SubsetView<'_> {
    fn ack(&self, node: NodeId, _ty: AckTypeId) -> u64 {
        if self.up.contains(&node) {
            PROBE_HIGH
        } else {
            0
        }
    }
}

/// True if the predicate is satisfied by the origin's own acknowledgment
/// alone: with `me` at `H` and every other node at 0 the program already
/// evaluates to `H`, so the predicate never waits for any remote node.
pub fn is_vacuous(program: &Program, me: NodeId) -> bool {
    program.eval(&SubsetView { up: &[me] }) == PROBE_HIGH
}

/// Evaluate `program` with the nodes in `down_mask` (a bitmask over node
/// ids) crashed and everyone else up; true if the predicate is blocked —
/// it needs an ACK from inside the crashed set. The workhorse probe of
/// the [availability prover](crate::avail).
pub fn blocked_with_down(program: &Program, topo: &Topology, down_mask: u64) -> bool {
    let up: Vec<NodeId> = topo
        .all_nodes()
        .into_iter()
        .filter(|n| down_mask & (1u64 << n.0) == 0)
        .collect();
    program.eval(&SubsetView { up: &up }) < PROBE_HIGH
}

/// If some set of `failure_budget` non-origin nodes can, by crashing,
/// permanently prevent the predicate from advancing, return the
/// smallest-index such set. `None` means every such crash set still lets
/// the frontier reach `H`, the budget is 0, or the prover leaves the
/// predicate undecided.
///
/// The witness is derived from the [availability
/// prover](crate::avail)'s minimal blocking sets — each small-enough set
/// completed with the lowest free node ids, lexicographic minimum taken
/// — which reproduces, byte for byte, the witness the exhaustive
/// lexicographic subset DFS this replaced used to report, without its
/// `C(n, f)` blow-up on the 12–16-node topologies the scenario generator
/// draws. Note the runtime *can* recover by explicitly excluding crashed
/// nodes (§III-E rewrites the predicate), but only when failure
/// detection + `auto_exclude_suspects` are active; the lint flags
/// deployments that would stall without that.
pub fn crash_unsatisfiable(
    pred: &Predicate,
    topo: &Topology,
    me: NodeId,
    failure_budget: usize,
) -> Option<Vec<NodeId>> {
    if failure_budget == 0 {
        return None;
    }
    let avail = crate::avail::availability(pred, topo, me)?;
    crate::avail::crash_witness(&avail, topo, failure_budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabilizer_dsl::AckTypeRegistry;

    fn topo() -> Topology {
        Topology::builder()
            .az("East", &["e1", "e2"])
            .az("West", &["w1", "w2"])
            .build()
            .unwrap()
    }

    fn prog(src: &str, me: u16) -> Predicate {
        let acks = AckTypeRegistry::new();
        Predicate::compile(src, &topo(), &acks, NodeId(me)).unwrap()
    }

    #[test]
    fn max_including_self_is_vacuous() {
        assert!(is_vacuous(prog("MAX($ALLWNODES)", 0).program(), NodeId(0)));
        assert!(is_vacuous(
            prog("MAX($MYWNODE, $3)", 0).program(),
            NodeId(0)
        ));
    }

    #[test]
    fn remote_only_predicates_are_not_vacuous() {
        assert!(!is_vacuous(
            prog("MAX($ALLWNODES-$MYWNODE)", 0).program(),
            NodeId(0)
        ));
        assert!(!is_vacuous(prog("MIN($ALLWNODES)", 0).program(), NodeId(0)));
    }

    #[test]
    fn min_of_all_remotes_dies_with_any_crash() {
        let p = prog("MIN($ALLWNODES-$MYWNODE)", 0);
        let w = crash_unsatisfiable(&p, &topo(), NodeId(0), 1).unwrap();
        assert_eq!(w, vec![NodeId(1)]); // lexicographically first witness
    }

    #[test]
    fn max_of_remotes_survives_one_crash_but_not_three() {
        let p = prog("MAX($ALLWNODES-$MYWNODE)", 0);
        assert!(crash_unsatisfiable(&p, &topo(), NodeId(0), 1).is_none());
        assert!(crash_unsatisfiable(&p, &topo(), NodeId(0), 2).is_none());
        let w = crash_unsatisfiable(&p, &topo(), NodeId(0), 3).unwrap();
        assert_eq!(w, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn quorum_tolerates_exactly_its_slack() {
        // KTH_MIN(2, all 4) needs 4-2+1 = 3 acks (origin included):
        // tolerates 1 remote crash, not 2.
        let p = prog("KTH_MIN(2, $ALLWNODES)", 0);
        assert!(crash_unsatisfiable(&p, &topo(), NodeId(0), 1).is_none());
        assert!(crash_unsatisfiable(&p, &topo(), NodeId(0), 2).is_some());
    }

    #[test]
    fn zero_budget_never_fires() {
        let p = prog("MIN($ALLWNODES-$MYWNODE)", 0);
        assert!(crash_unsatisfiable(&p, &topo(), NodeId(0), 0).is_none());
    }
}
