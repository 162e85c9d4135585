//! Tree-walking evaluation of a resolved predicate — the "no JIT"
//! baseline.
//!
//! [`eval_resolved`] walks the [`ResolvedExpr`] tree, sorting each
//! reduction's operand values, where the compiled VM runs a flat
//! program. It is an independent oracle for differential testing
//! against the VM, and `resolve` + [`eval_resolved`] per call is the
//! baseline in the compiled-vs-interpreted ablation benchmark (§VI-A
//! measures the JIT overhead precisely because the alternative is paying
//! that cost per evaluation). `core/explain.rs` also uses it to value
//! the nested reductions it blames.

use crate::resolve::{Operand, ReduceKind, ResolvedExpr};
use crate::types::{AckView, SeqNo};

/// Evaluate an already resolved expression tree recursively.
pub fn eval_resolved<V: AckView>(expr: &ResolvedExpr, view: &V) -> SeqNo {
    let mut vals: Vec<SeqNo> = Vec::with_capacity(expr.operands.len());
    for op in &expr.operands {
        vals.push(match op {
            Operand::Cell(node, ty) => view.ack(*node, *ty),
            Operand::Const(v) => *v,
            Operand::Nested(inner) => eval_resolved(inner, view),
        });
    }
    match expr.kind {
        ReduceKind::Largest => vals.sort_unstable_by(|a, b| b.cmp(a)),
        ReduceKind::Smallest => vals.sort_unstable(),
    }
    vals[(expr.k - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;
    use crate::resolve::resolve;
    use crate::topology::Topology;
    use crate::types::{AckTypeId, AckTypeRegistry, NodeId};

    struct FlatAcks(Vec<u64>);
    impl AckView for FlatAcks {
        fn ack(&self, node: NodeId, ty: AckTypeId) -> u64 {
            self.0[node.0 as usize].saturating_sub(ty.0 as u64)
        }
    }

    fn topo() -> Topology {
        Topology::builder()
            .az("A", &["a1", "a2", "a3"])
            .az("B", &["b1", "b2"])
            .az("C", &["c1"])
            .build()
            .unwrap()
    }

    #[test]
    fn interpreter_matches_vm_on_representative_predicates() {
        let topo = topo();
        let acks = AckTypeRegistry::new();
        let view = FlatAcks(vec![14, 3, 27, 9, 31, 6]);
        let preds = [
            "MAX($ALLWNODES)",
            "MIN($ALLWNODES-$MYWNODE)",
            "KTH_MIN(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)",
            "MIN(MAX($AZ_A), MAX($AZ_B), MAX($AZ_C))",
            "KTH_MAX(2, MAX($AZ_A), MAX($AZ_B), MAX($AZ_C))",
            "MIN(MIN($MYAZWNODES-$MYWNODE), MAX($ALLWNODES-$MYAZWNODES))",
            "MAX($ALLWNODES.persisted)",
        ];
        for src in preds {
            let resolved = resolve(&parse(src).unwrap(), &topo, &acks, NodeId(0)).unwrap();
            let interpreted = eval_resolved(&resolved.expr, &view);
            let compiled = compile(&resolved).eval(&view);
            assert_eq!(interpreted, compiled, "mismatch for {src}");
        }
    }
}
