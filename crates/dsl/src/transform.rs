//! Predicate transforms used by fault tolerance (§III-E): when a
//! secondary node crashes, "the primary can adjust the predicate to
//! eliminate the impact". [`exclude_node`] rewrites a resolved predicate
//! so it no longer observes a given node.

use crate::error::DslError;
use crate::resolve::{Operand, Resolved, ResolvedExpr};
use crate::types::NodeId;

/// Rewrite `resolved` so no operand reads ACKs from `node`.
///
/// `KTH_*` ranks are clamped to the shrunk operand-list length, preserving
/// the predicate's intent for quorum-style expressions: a majority
/// predicate over 8 nodes (`k = 5`) whose operand set shrinks to 7 keeps
/// `k = 5` (still a majority of the original cluster), while an
/// `AllWNodes`-style `MIN` (rank `len`) keeps selecting the last value.
///
/// # Errors
///
/// Returns [`DslError::Invalid`] if any reduction would be left with no
/// operands at all.
pub fn exclude_node(resolved: &Resolved, node: NodeId) -> Result<Resolved, DslError> {
    let expr = keep_cells(&resolved.expr, &|n| n != node, &|| {
        format!("excluding {node} leaves a reduction with no operands")
    })?;
    Ok(Resolved {
        expr,
        me: resolved.me,
    })
}

/// Rewrite `resolved` so every operand reads ACKs only from nodes in
/// `allowed` — the partial-replication counterpart of [`exclude_node`]:
/// when a stream is placed on a replica set, macro-expanded predicates
/// (`$ALLWNODES`, `$AZ_*`, ...) must shrink to the replicas instead of
/// waiting forever on nodes that will never ack the stream.
///
/// Rank clamping follows [`exclude_node`]: a rank equal to the original
/// operand count (an "all of them" MIN) tracks the shrunk count, any
/// other rank is preserved when possible and clamped otherwise.
///
/// # Errors
///
/// Returns [`DslError::Invalid`] if any reduction would be left with no
/// operands at all (the predicate reads only non-replicas).
pub fn restrict_nodes(resolved: &Resolved, allowed: &[NodeId]) -> Result<Resolved, DslError> {
    let expr = keep_cells(&resolved.expr, &|n| allowed.contains(&n), &|| {
        "restricting to the replica set leaves a reduction with no operands".to_owned()
    })?;
    Ok(Resolved {
        expr,
        me: resolved.me,
    })
}

/// Rebuild `expr` with only the cells whose node passes `keep`,
/// clamping ranks as [`exclude_node`] documents. A reduction left with
/// no operands is a [`DslError::Invalid`] saying `empty()`.
fn keep_cells(
    expr: &ResolvedExpr,
    keep: &impl Fn(NodeId) -> bool,
    empty: &impl Fn() -> String,
) -> Result<ResolvedExpr, DslError> {
    let mut operands = Vec::with_capacity(expr.operands.len());
    for op in &expr.operands {
        match op {
            Operand::Cell(n, _) if !keep(*n) => {}
            Operand::Nested(inner) => {
                operands.push(Operand::Nested(keep_cells(inner, keep, empty)?))
            }
            other => operands.push(other.clone()),
        }
    }
    if operands.is_empty() {
        return Err(DslError::Invalid(empty()));
    }
    // `MIN` over all operands is rank == len; keep that meaning.
    let k = if expr.k as usize == expr.operands.len() {
        operands.len() as u32
    } else {
        expr.k.min(operands.len() as u32)
    };
    Ok(ResolvedExpr {
        kind: expr.kind,
        k,
        operands,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::resolve::{resolve, ReduceKind};
    use crate::topology::Topology;
    use crate::types::AckTypeRegistry;

    fn topo() -> Topology {
        Topology::builder()
            .az("A", &["a", "b", "c", "d", "e"])
            .build()
            .unwrap()
    }

    fn res(src: &str) -> Resolved {
        let acks = AckTypeRegistry::new();
        resolve(&parse(src).unwrap(), &topo(), &acks, NodeId(0)).unwrap()
    }

    #[test]
    fn removes_cells_for_the_node() {
        let r = res("MAX($ALLWNODES)");
        let r2 = exclude_node(&r, NodeId(2)).unwrap();
        assert_eq!(r2.expr.operands.len(), 4);
        assert!(r2.expr.dependencies().iter().all(|(n, _)| *n != NodeId(2)));
    }

    #[test]
    fn min_rank_tracks_shrinking_set() {
        // MIN over 5 nodes is KTH_MIN(k=1). "All nodes" MIN written as
        // KTH_MAX(len) must keep rank == len after shrinking.
        let r = res("KTH_MAX(5, $ALLWNODES)"); // == MIN over 5 nodes
        let r2 = exclude_node(&r, NodeId(4)).unwrap();
        assert_eq!(r2.expr.k, 4);
        assert_eq!(r2.expr.operands.len(), 4);
    }

    #[test]
    fn majority_rank_is_preserved_when_possible() {
        let r = res("KTH_MIN(3, $ALLWNODES)"); // majority of 5
        let r2 = exclude_node(&r, NodeId(1)).unwrap();
        assert_eq!(r2.expr.k, 3); // still requires 3 acks
        assert_eq!(r2.expr.operands.len(), 4);
    }

    #[test]
    fn rank_clamps_when_it_must() {
        let r = res("KTH_MIN(4, $ALLWNODES)");
        let mut cur = r;
        for dead in [4u16, 3, 2] {
            cur = exclude_node(&cur, NodeId(dead)).unwrap();
        }
        assert_eq!(cur.expr.operands.len(), 2);
        assert!(cur.expr.k as usize <= cur.expr.operands.len());
    }

    #[test]
    fn nested_reductions_are_rewritten() {
        let r = res("MIN(MAX($1, $2), MAX($3, $4))");
        let r2 = exclude_node(&r, NodeId(0)).unwrap();
        assert_eq!(r2.expr.kind, ReduceKind::Smallest);
        let deps = r2.expr.dependencies();
        assert_eq!(deps.len(), 3);
    }

    #[test]
    fn emptying_a_reduction_is_an_error() {
        let r = res("MIN(MAX($1), $2)");
        assert_eq!(
            exclude_node(&r, NodeId(0)),
            Err(DslError::Invalid(
                "excluding n0 leaves a reduction with no operands".to_owned()
            ))
        );
    }

    #[test]
    fn excluding_absent_node_is_identity() {
        let r = res("MAX($1, $2)");
        let r2 = exclude_node(&r, NodeId(4)).unwrap();
        assert_eq!(r.expr, r2.expr);
    }

    #[test]
    fn restrict_drops_non_replica_cells() {
        let r = res("MIN($ALLWNODES-$MYWNODE)");
        let allowed = [NodeId(0), NodeId(1), NodeId(2)];
        let r2 = restrict_nodes(&r, &allowed).unwrap();
        assert_eq!(r2.expr.operands.len(), 2); // replicas minus me
        assert!(r2
            .expr
            .dependencies()
            .iter()
            .all(|(n, _)| allowed.contains(n)));
    }

    #[test]
    fn restrict_tracks_all_of_them_rank() {
        // MIN over 5 == KTH_MAX(5); restricted to 3 replicas it must
        // become KTH_MAX(3), not wait on a rank past the operand count.
        let r = res("KTH_MAX(5, $ALLWNODES)");
        let r2 = restrict_nodes(&r, &[NodeId(0), NodeId(2), NodeId(4)]).unwrap();
        assert_eq!(r2.expr.operands.len(), 3);
        assert_eq!(r2.expr.k, 3);
    }

    #[test]
    fn restrict_preserves_quorum_rank_when_possible() {
        let r = res("KTH_MIN(2, $ALLWNODES)");
        let r2 = restrict_nodes(&r, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(r2.expr.k, 2);
    }

    #[test]
    fn restrict_to_superset_is_identity() {
        let r = res("MAX($1, $2)");
        let all: Vec<NodeId> = (0..5).map(NodeId).collect();
        assert_eq!(restrict_nodes(&r, &all).unwrap().expr, r.expr);
    }

    #[test]
    fn restrict_emptying_a_reduction_is_an_error() {
        let r = res("MAX($3, $4)");
        assert_eq!(
            restrict_nodes(&r, &[NodeId(0), NodeId(1)]),
            Err(DslError::Invalid(
                "restricting to the replica set leaves a reduction with no operands".to_owned()
            ))
        );
    }
}
