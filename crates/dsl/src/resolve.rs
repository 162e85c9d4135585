//! Name resolution and static lowering.
//!
//! Resolution happens once, at predicate registration time, against the
//! deployment [`Topology`] and the [`AckTypeRegistry`]: macros and
//! variables expand to concrete node sets, set differences are evaluated,
//! `SIZEOF` arithmetic is constant-folded, and `MAX`/`MIN` are normalized
//! to rank-1 `KTH_*` reductions. The output ([`Resolved`]) is fully
//! static: evaluating it touches only the ACK table.

use crate::ast::{BinOp, Op, SpannedExpr, SpannedExprKind, SpannedSet, SpannedSetKind};
use crate::error::DslError;
use crate::topology::Topology;
use crate::types::{AckTypeId, AckTypeRegistry, NodeId, RECEIVED};

/// Whether a normalized reduction selects from the top (`KTH_MAX`) or the
/// bottom (`KTH_MIN`) of its operand values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    /// k-th largest (`MAX` is rank 1).
    Largest,
    /// k-th smallest (`MIN` is rank 1).
    Smallest,
}

/// A single operand of a resolved reduction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read the ACK table at `(node, ty)`.
    Cell(NodeId, AckTypeId),
    /// A constant value (from a folded scalar expression used as data).
    Const(u64),
    /// A nested reduction.
    Nested(ResolvedExpr),
}

/// A resolved, normalized reduction: select the `k`-th value (1-based)
/// from `operands`, ordered per `kind`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResolvedExpr {
    /// Top-k or bottom-k selection.
    pub kind: ReduceKind,
    /// 1-based rank; `1` for plain `MAX`/`MIN`.
    pub k: u32,
    /// The flattened operand list (non-empty; `k <= operands.len()`).
    pub operands: Vec<Operand>,
}

/// A resolved predicate: the lowered expression plus the node it was
/// resolved for (macros like `$MYWNODE` bake in the executing node).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Resolved {
    /// The lowered reduction tree.
    pub expr: ResolvedExpr,
    /// The node this predicate was resolved at.
    pub me: NodeId,
}

/// Resolve a parsed predicate for execution at node `me`.
///
/// # Errors
///
/// * [`DslError::Resolve`] — unknown node/AZ name, node operand out of
///   range, or unknown ACK type.
/// * [`DslError::Invalid`] — empty reduction after expansion, `KTH_*` rank
///   that is not a compile-time constant or is out of `1..=len` range,
///   constant arithmetic overflow or division by zero, `KTH_*` with no
///   data operands.
pub fn resolve(
    expr: &SpannedExpr,
    topo: &Topology,
    acks: &AckTypeRegistry,
    me: NodeId,
) -> Result<Resolved, DslError> {
    if me.0 as usize >= topo.num_nodes() {
        return Err(DslError::Resolve(format!(
            "executing node {me} is outside the {}-node topology",
            topo.num_nodes()
        )));
    }
    let cx = Cx { topo, acks, me };
    let expr = cx.resolve_call(expr)?;
    Ok(Resolved { expr, me })
}

struct Cx<'a> {
    topo: &'a Topology,
    acks: &'a AckTypeRegistry,
    me: NodeId,
}

impl Cx<'_> {
    fn resolve_call(&self, expr: &SpannedExpr) -> Result<ResolvedExpr, DslError> {
        let SpannedExprKind::Call(op, _, args) = &expr.kind else {
            return Err(DslError::Invalid(
                "a predicate must be a MAX/MIN/KTH_MAX/KTH_MIN call".into(),
            ));
        };
        let (kind, k, data_args) = match op {
            Op::Max => (ReduceKind::Largest, 1u32, &args[..]),
            Op::Min => (ReduceKind::Smallest, 1u32, &args[..]),
            Op::KthMax | Op::KthMin => {
                let kind = if *op == Op::KthMax {
                    ReduceKind::Largest
                } else {
                    ReduceKind::Smallest
                };
                let Some((kexpr, rest)) = args.split_first() else {
                    return Err(DslError::Invalid(format!("{op} requires a rank argument")));
                };
                let k = self.const_eval(kexpr)?;
                let k = u32::try_from(k)
                    .map_err(|_| DslError::Invalid(format!("{op} rank {k} is too large")))?;
                (kind, k, rest)
            }
        };
        let mut operands = Vec::new();
        for arg in data_args {
            self.resolve_operand(arg, &mut operands)?;
        }
        if operands.is_empty() {
            return Err(DslError::Invalid(format!(
                "{op} reduces over an empty operand list (set expansion produced no nodes)"
            )));
        }
        if k == 0 || k as usize > operands.len() {
            return Err(DslError::Invalid(format!(
                "{op} rank {k} out of range 1..={}",
                operands.len()
            )));
        }
        Ok(ResolvedExpr { kind, k, operands })
    }

    fn resolve_operand(&self, arg: &SpannedExpr, out: &mut Vec<Operand>) -> Result<(), DslError> {
        match &arg.kind {
            SpannedExprKind::Call(..) => {
                out.push(Operand::Nested(self.resolve_call(arg)?));
                Ok(())
            }
            SpannedExprKind::Values(set, suffix) => {
                let ty = match suffix {
                    None => RECEIVED,
                    Some(suffix) => self.acks.lookup(&suffix.name.0).ok_or_else(|| {
                        DslError::Resolve(format!("unknown ACK type .{}", suffix.name))
                    })?,
                };
                for node in self.eval_set(set)? {
                    out.push(Operand::Cell(node, ty));
                }
                Ok(())
            }
            SpannedExprKind::Int(_) | SpannedExprKind::Sizeof(_) | SpannedExprKind::Arith(..) => {
                out.push(Operand::Const(self.const_eval(arg)?));
                Ok(())
            }
        }
    }

    /// Evaluate a scalar expression to a compile-time constant.
    fn const_eval(&self, expr: &SpannedExpr) -> Result<u64, DslError> {
        match &expr.kind {
            SpannedExprKind::Int(n) => Ok(*n),
            SpannedExprKind::Sizeof(set) => Ok(self.eval_set(set)?.len() as u64),
            SpannedExprKind::Arith(op, l, r) => {
                let a = self.const_eval(l)?;
                let b = self.const_eval(r)?;
                let v = match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => a.checked_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return Err(DslError::Invalid(
                                "division by zero in rank expression".into(),
                            ));
                        }
                        Some(a / b)
                    }
                };
                v.ok_or_else(|| {
                    DslError::Invalid(format!("constant arithmetic overflow: {a} {op} {b}"))
                })
            }
            SpannedExprKind::Call(op, ..) => Err(DslError::Invalid(format!(
                "KTH rank must be a compile-time constant; {op}(...) is evaluated at run time"
            ))),
            SpannedExprKind::Values(..) => Err(DslError::Type(
                "a node set cannot be used where a number is required".into(),
            )),
        }
    }

    /// Expand a set expression to a sorted, deduplicated node list.
    fn eval_set(&self, set: &SpannedSet) -> Result<Vec<NodeId>, DslError> {
        expand_set(set, self.topo, self.me)
    }
}

/// Expand a set expression to the sorted, deduplicated list of nodes it
/// denotes when evaluated at node `me` under `topo`.
///
/// This is the same expansion the resolver performs internally; it is
/// public so that tooling (notably the `stabilizer-analyze` lint engine)
/// can reason about individual sub-sets — e.g. to flag a set-difference
/// that removes nothing, or a sub-set that expands to no nodes inside an
/// otherwise non-empty reduction.
///
/// # Errors
///
/// Returns [`DslError::Resolve`] for an unknown node/AZ name or a node
/// operand outside `1..=num_nodes`.
pub fn expand_set(set: &SpannedSet, topo: &Topology, me: NodeId) -> Result<Vec<NodeId>, DslError> {
    let mut nodes = match &set.kind {
        SpannedSetKind::All => topo.all_nodes(),
        SpannedSetKind::MyAz => topo.az_members(topo.az_of(me)).to_vec(),
        SpannedSetKind::Me => vec![me],
        SpannedSetKind::Node(n) => {
            // Paper operands are 1-based ($1 is the first node).
            if *n == 0 || *n as usize > topo.num_nodes() {
                return Err(DslError::Resolve(format!(
                    "node operand ${n} out of range 1..={}",
                    topo.num_nodes()
                )));
            }
            vec![NodeId((n - 1) as u16)]
        }
        SpannedSetKind::NodeVar(name) => {
            let id = topo
                .node(name)
                .ok_or_else(|| DslError::Resolve(format!("unknown WAN node $WNODE_{name}")))?;
            vec![id]
        }
        SpannedSetKind::AzVar(name) => {
            let az = topo.az(name).ok_or_else(|| {
                DslError::Resolve(format!("unknown availability zone $AZ_{name}"))
            })?;
            topo.az_members(az).to_vec()
        }
        SpannedSetKind::Diff(a, b) => {
            let left = expand_set(a, topo, me)?;
            let right = expand_set(b, topo, me)?;
            left.into_iter().filter(|n| !right.contains(n)).collect()
        }
    };
    nodes.sort_unstable();
    nodes.dedup();
    Ok(nodes)
}

impl ResolvedExpr {
    /// Collect every `(node, ack-type)` cell this expression reads, in
    /// first-use order, deduplicated.
    pub fn dependencies(&self) -> Vec<(NodeId, AckTypeId)> {
        let mut out = Vec::new();
        self.collect_deps(&mut out);
        out
    }

    fn collect_deps(&self, out: &mut Vec<(NodeId, AckTypeId)>) {
        for op in &self.operands {
            match op {
                Operand::Cell(n, t) => {
                    if !out.contains(&(*n, *t)) {
                        out.push((*n, *t));
                    }
                }
                Operand::Nested(inner) => inner.collect_deps(out),
                Operand::Const(_) => {}
            }
        }
    }

    /// The monotone-threshold view of this reduction: how many of its
    /// operands must reach a value `v` for the reduction itself to reach
    /// `v`. The `k`-th largest is ≥ `v` iff at least `k` operands are;
    /// the `k`-th smallest iff at least `len − k + 1` are. Availability
    /// analysis builds on this: an operand's value under a crash probe
    /// is binary (high or low), so the whole tree is a composition of
    /// threshold functions over node-up sets.
    pub fn up_requirement(&self) -> usize {
        match self.kind {
            ReduceKind::Largest => self.k as usize,
            ReduceKind::Smallest => self.operands.len() - self.k as usize + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::types::PERSISTED;

    fn topo() -> Topology {
        Topology::builder()
            .az("North_California", &["n1", "n2"])
            .az("North_Virginia", &["n3", "n4", "n5", "n6"])
            .az("Oregon", &["n7"])
            .az("Ohio", &["n8"])
            .build()
            .unwrap()
    }

    fn res(src: &str, me: u16) -> Result<Resolved, DslError> {
        let acks = AckTypeRegistry::new();
        resolve(&parse(src).unwrap(), &topo(), &acks, NodeId(me))
    }

    fn cells(r: &Resolved) -> Vec<u16> {
        r.expr
            .operands
            .iter()
            .filter_map(|o| match o {
                Operand::Cell(n, _) => Some(n.0),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn allwnodes_minus_me_expands_to_remotes() {
        let r = res("MAX($ALLWNODES-$MYWNODE)", 0).unwrap();
        assert_eq!(cells(&r), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(r.expr.kind, ReduceKind::Largest);
        assert_eq!(r.expr.k, 1);
    }

    #[test]
    fn myaz_depends_on_executing_node() {
        let a = res("MIN($MYAZWNODES)", 0).unwrap();
        assert_eq!(cells(&a), vec![0, 1]);
        let b = res("MIN($MYAZWNODES)", 3).unwrap();
        assert_eq!(cells(&b), vec![2, 3, 4, 5]);
    }

    #[test]
    fn sizeof_arithmetic_folds_to_constant_rank() {
        // 8 nodes -> majority = 5.
        let r = res("KTH_MIN(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)", 0).unwrap();
        assert_eq!(r.expr.k, 5);
        assert_eq!(r.expr.operands.len(), 8);
    }

    #[test]
    fn one_based_operands() {
        let r = res("MAX($1, $8)", 0).unwrap();
        assert_eq!(cells(&r), vec![0, 7]);
        assert!(matches!(res("MAX($0)", 0), Err(DslError::Resolve(_))));
        assert!(matches!(res("MAX($9)", 0), Err(DslError::Resolve(_))));
    }

    #[test]
    fn variables_resolve_by_name() {
        let r = res("MAX($WNODE_n7, $AZ_Ohio)", 0).unwrap();
        assert_eq!(cells(&r), vec![6, 7]);
        assert!(matches!(
            res("MAX($WNODE_nope)", 0),
            Err(DslError::Resolve(_))
        ));
        assert!(matches!(res("MAX($AZ_Mars)", 0), Err(DslError::Resolve(_))));
    }

    #[test]
    fn suffix_resolves_ack_type() {
        let r = res("MIN($ALLWNODES.persisted)", 0).unwrap();
        assert!(r
            .expr
            .operands
            .iter()
            .all(|o| matches!(o, Operand::Cell(_, t) if *t == PERSISTED)));
        assert!(matches!(
            res("MIN($ALLWNODES.verified)", 0),
            Err(DslError::Resolve(_))
        ));
    }

    #[test]
    fn custom_ack_types_resolve_after_registration() {
        let acks = AckTypeRegistry::new();
        let v = acks.register("verified");
        let r = resolve(
            &parse("MIN(($MYAZWNODES-$MYWNODE).verified)").unwrap(),
            &topo(),
            &acks,
            NodeId(2),
        )
        .unwrap();
        assert_eq!(r.expr.operands.len(), 3); // n4, n5, n6
        assert!(matches!(r.expr.operands[0], Operand::Cell(_, t) if t == v));
    }

    #[test]
    fn empty_expansion_is_invalid() {
        // Node 6 (n7) is alone in Oregon: $MYAZWNODES-$MYWNODE is empty.
        assert!(matches!(
            res("MIN($MYAZWNODES-$MYWNODE)", 6),
            Err(DslError::Invalid(_))
        ));
    }

    #[test]
    fn rank_out_of_range_is_invalid() {
        assert!(matches!(
            res("KTH_MAX(9, $ALLWNODES)", 0),
            Err(DslError::Invalid(_))
        ));
        assert!(matches!(
            res("KTH_MAX(0, $ALLWNODES)", 0),
            Err(DslError::Invalid(_))
        ));
        assert!(res("KTH_MAX(8, $ALLWNODES)", 0).is_ok());
    }

    #[test]
    fn non_constant_rank_is_invalid() {
        assert!(matches!(
            res("KTH_MAX(MAX($1)+1, $ALLWNODES)", 0),
            Err(DslError::Invalid(_))
        ));
    }

    #[test]
    fn division_by_zero_in_rank_is_invalid() {
        assert!(matches!(
            res("KTH_MAX(SIZEOF($ALLWNODES)/0, $ALLWNODES)", 0),
            Err(DslError::Invalid(_))
        ));
    }

    #[test]
    fn nested_calls_resolve_recursively() {
        let r = res(
            "MIN(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
            0,
        )
        .unwrap();
        assert_eq!(r.expr.operands.len(), 3);
        assert!(r
            .expr
            .operands
            .iter()
            .all(|o| matches!(o, Operand::Nested(_))));
    }

    #[test]
    fn dependencies_are_deduplicated() {
        let r = res("MAX($1, $1, MIN($1, $2))", 0).unwrap();
        assert_eq!(
            r.expr.dependencies(),
            vec![(NodeId(0), RECEIVED), (NodeId(1), RECEIVED)]
        );
    }

    #[test]
    fn duplicate_nodes_in_set_union_are_deduplicated() {
        // $ALLWNODES - ($MYAZWNODES - $MYAZWNODES) = all nodes.
        let r = res("MAX($ALLWNODES-($MYAZWNODES-$MYAZWNODES))", 0).unwrap();
        assert_eq!(cells(&r).len(), 8);
    }

    #[test]
    fn executing_node_must_be_in_topology() {
        assert!(matches!(res("MAX($1)", 99), Err(DslError::Resolve(_))));
    }
}
