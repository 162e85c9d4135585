//! The frontier blame diagnoser: *why* is a stability frontier where it
//! is, and which (node, ACK-type) cells are holding it back?
//!
//! The paper makes stability user-defined, which makes "this write is
//! not stable yet" a predicate-specific condition rather than a single
//! systemwide invariant — so the diagnoser walks the *resolved*
//! predicate tree (the same normalized `KTH_MAX`/`KTH_MIN` form the
//! evaluator runs) against the live ACK recorder and computes, for a
//! target sequence number, the minimal set of operand cells that must
//! advance for the frontier to reach it.
//!
//! The walk mirrors [`eval_resolved`] exactly: a reduction node
//! selecting the `k`-th largest of `n` operands reaches `need` iff at
//! least `k` operands reach `need`; `k`-th smallest iff at least
//! `n - k + 1` do. When a node falls short by `d`, the `d` highest
//! operands still below `need` are blamed — they are the cheapest ones
//! to advance — and nested reductions recurse with the same threshold.
//! Constant operands below `need` can never satisfy it and are reported
//! as unsatisfiable terms instead of blamed cells.

use crate::node::StabilizerNode;
use crate::recorder::AckRecorder;
use stabilizer_dsl::{
    eval_resolved, AckTypeId, AckView, NodeId, Operand, Predicate, ReduceKind, ResolvedExpr, SeqNo,
    RECEIVED,
};

pub use stabilizer_analyze::push_json_str;

/// One ACK-table cell blamed for a stalled frontier: which node's
/// acknowledgement of which type is behind, and by how much.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlamedCell {
    /// The node whose acknowledgement is missing.
    pub node: NodeId,
    /// The ACK type the predicate reads at that node.
    pub ack_type: AckTypeId,
    /// Human name of the ACK type (`received`, `persisted`, …).
    pub ack_type_name: String,
    /// The cell's current value.
    pub have: SeqNo,
    /// The value the cell must reach for the frontier to reach the
    /// report's target.
    pub need: SeqNo,
    /// Whether the failure detector currently suspects the node —
    /// a suspected blamed node usually means the predicate needs a
    /// `change_predicate`/exclusion, not patience.
    pub suspected: bool,
}

/// The diagnosis for one `(stream, key)` pair: where the frontier is,
/// where it could be, and — when those differ — who is to blame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// The stream whose frontier is diagnosed.
    pub stream: NodeId,
    /// The predicate key.
    pub key: String,
    /// Current predicate generation.
    pub generation: u32,
    /// Current frontier value.
    pub frontier: SeqNo,
    /// The highest sequence this node knows was published on the
    /// stream (its own `last_published`, or the best `received` cell
    /// it has heard of for a remote stream).
    pub target: SeqNo,
    /// `frontier < target`: some published payload is not yet stable
    /// under this predicate.
    pub stalled: bool,
    /// The predicate's DSL source.
    pub predicate: String,
    /// The minimal set of cells that must advance to `target`, worst
    /// laggard first. Empty when not stalled.
    pub blamed: Vec<BlamedCell>,
    /// Predicate terms that can *never* reach the target (constant
    /// operands below it) — a misconfigured predicate, not a lagging
    /// peer.
    pub unsatisfiable: Vec<String>,
    /// All peers the failure detector currently suspects, whether or
    /// not they are blamed.
    pub suspected_peers: Vec<NodeId>,
}

impl StallReport {
    /// Render as one JSON object (stable field order).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!("{{\"stream\":{},\"key\":", self.stream.0));
        push_json_str(&mut s, &self.key);
        s.push_str(&format!(
            ",\"generation\":{},\"frontier\":{},\"target\":{},\"stalled\":{}",
            self.generation, self.frontier, self.target, self.stalled
        ));
        s.push_str(",\"predicate\":");
        push_json_str(&mut s, &self.predicate);
        s.push_str(",\"blamed\":[");
        for (i, b) in self.blamed.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"node\":{},\"ack_type\":{},\"ack_type_name\":",
                b.node.0, b.ack_type.0
            ));
            push_json_str(&mut s, &b.ack_type_name);
            s.push_str(&format!(
                ",\"have\":{},\"need\":{},\"suspected\":{}}}",
                b.have, b.need, b.suspected
            ));
        }
        s.push_str("],\"unsatisfiable\":[");
        for (i, u) in self.unsatisfiable.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, u);
        }
        s.push_str("],\"suspected_peers\":[");
        for (i, p) in self.suspected_peers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&p.0.to_string());
        }
        s.push_str("]}");
        s
    }

    /// One-line human rendering for violation details and logs.
    pub fn render_human(&self) -> String {
        if !self.stalled {
            return format!(
                "stream {} key \"{}\": frontier {} = target {} (not stalled)",
                self.stream.0, self.key, self.frontier, self.target
            );
        }
        let mut s = format!(
            "stream {} key \"{}\": frontier {} < target {}; blame:",
            self.stream.0, self.key, self.frontier, self.target
        );
        if self.blamed.is_empty() && self.unsatisfiable.is_empty() {
            s.push_str(" (none — predicate satisfied above frontier, advance pending)");
        }
        for b in &self.blamed {
            s.push_str(&format!(
                " node {} {}={} (need {}{})",
                b.node.0,
                b.ack_type_name,
                b.have,
                b.need,
                if b.suspected { ", SUSPECTED" } else { "" }
            ));
        }
        for u in &self.unsatisfiable {
            s.push_str(&format!(" [unsatisfiable: {u}]"));
        }
        s
    }
}

/// Render a report list as the `/stall` endpoint body:
/// `{"reports":[...]}`.
pub fn render_stall_reports_json(reports: &[StallReport]) -> String {
    let mut s = String::from("{\"reports\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&r.to_json());
    }
    s.push_str("]}");
    s
}

/// [`render_stall_reports_json`] for sharded nodes: each report carries
/// the shard index whose machine produced it as a leading `"shard"`
/// field (sequence numbers inside are per-shard).
pub fn render_sharded_stall_reports_json(reports: &[(u16, StallReport)]) -> String {
    let mut s = String::from("{\"reports\":[");
    for (i, (shard, r)) in reports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let body = r.to_json();
        s.push_str(&format!("{{\"shard\":{shard},{}", &body[1..]));
    }
    s.push_str("]}");
    s
}

/// Diagnose the frontier `(frontier, generation)` of `pred`, registered
/// at `node` as `(stream, key)`.
pub(crate) fn stall_report(
    node: &StabilizerNode,
    stream: NodeId,
    key: &str,
    pred: &Predicate,
    (frontier, generation): (SeqNo, u32),
) -> StallReport {
    let recorder = node.recorder();
    // The highest sequence this node knows exists on the stream: its
    // own assignment counter for the local stream, plus the best
    // `received` cell anyone has reported (the origin self-acks on
    // publish, so its own cell tracks its high watermark).
    let mut target = if stream == node.me() {
        node.last_published()
    } else {
        0
    };
    let nodes = || (0..recorder.num_nodes() as u16).map(NodeId);
    for n in nodes() {
        target = target.max(recorder.get(stream, n, RECEIVED));
    }
    let stalled = frontier < target;
    let (blamed, unsatisfiable) = if stalled {
        blame_cells(&pred.resolved().expr, target, recorder, stream)
    } else {
        (Vec::new(), Vec::new())
    };
    let acks = node.ack_types();
    StallReport {
        stream,
        key: key.to_owned(),
        generation,
        frontier,
        target,
        stalled,
        predicate: pred.source().to_owned(),
        blamed: blamed
            .into_iter()
            .map(|(n, ty, have)| BlamedCell {
                node: n,
                ack_type: ty,
                ack_type_name: acks.name(ty).unwrap_or_else(|| ty.0.to_string()),
                have,
                need: target,
                suspected: node.is_suspected(n),
            })
            .collect(),
        unsatisfiable,
        suspected_peers: nodes().filter(|n| node.is_suspected(*n)).collect(),
    }
}

/// Walk a resolved reduction and collect the minimal blame set for the
/// frontier to reach `need`. Returns nothing when the subtree already
/// satisfies `need`.
pub(crate) fn blame_expr<V: AckView>(
    expr: &ResolvedExpr,
    need: SeqNo,
    view: &V,
    blamed: &mut Vec<(NodeId, AckTypeId, SeqNo)>,
    unsatisfiable: &mut Vec<String>,
) {
    if need == 0 {
        return;
    }
    let vals: Vec<SeqNo> = expr
        .operands
        .iter()
        .map(|op| match op {
            Operand::Cell(node, ty) => view.ack(*node, *ty),
            Operand::Const(v) => *v,
            Operand::Nested(inner) => eval_resolved(inner, view),
        })
        .collect();
    // k-th largest >= need iff at least k operands >= need; k-th
    // smallest >= need iff at least (n - k + 1) do (the k-1 smallest
    // are tolerated stragglers).
    let required = match expr.kind {
        ReduceKind::Largest => expr.k as usize,
        ReduceKind::Smallest => expr.operands.len() - expr.k as usize + 1,
    };
    let have = vals.iter().filter(|v| **v >= need).count();
    if have >= required {
        return;
    }
    let deficit = required - have;
    // The cheapest operands to advance: highest current value first,
    // operand order as the deterministic tie-break.
    let mut below: Vec<(usize, SeqNo)> = vals
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, v)| *v < need)
        .collect();
    below.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (idx, _) in below.into_iter().take(deficit) {
        match &expr.operands[idx] {
            Operand::Cell(node, ty) => blamed.push((*node, *ty, vals[idx])),
            Operand::Const(c) => unsatisfiable.push(format!("constant {c} can never reach {need}")),
            Operand::Nested(inner) => blame_expr(inner, need, view, blamed, unsatisfiable),
        }
    }
}

/// Run the blame walk for one predicate against a recorder, returning
/// deduplicated cells sorted worst-laggard-first.
fn blame_cells(
    expr: &ResolvedExpr,
    need: SeqNo,
    recorder: &AckRecorder,
    stream: NodeId,
) -> (Vec<(NodeId, AckTypeId, SeqNo)>, Vec<String>) {
    let view = recorder.stream_view(stream);
    let mut blamed = Vec::new();
    let mut unsatisfiable = Vec::new();
    blame_expr(expr, need, &view, &mut blamed, &mut unsatisfiable);
    blamed.sort_by(|a, b| {
        a.2.cmp(&b.2)
            .then(a.0 .0.cmp(&b.0 .0))
            .then(a.1 .0.cmp(&b.1 .0))
    });
    blamed.dedup_by_key(|(node, ty, _)| (*node, *ty));
    unsatisfiable.sort();
    unsatisfiable.dedup();
    (blamed, unsatisfiable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabilizer_dsl::{AckTypeRegistry, Predicate, Topology, RECEIVED};

    fn topo(n: usize) -> std::sync::Arc<Topology> {
        let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        std::sync::Arc::new(Topology::builder().az("A", &refs).build().unwrap())
    }

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    struct FlatAcks(Vec<u64>);
    impl AckView for FlatAcks {
        fn ack(&self, node: NodeId, _ty: AckTypeId) -> u64 {
            self.0[node.0 as usize]
        }
    }

    fn resolved(src: &str, n: usize) -> ResolvedExpr {
        let acks = AckTypeRegistry::new();
        Predicate::compile(src, &topo(n), &acks, NodeId(0))
            .unwrap()
            .resolved()
            .expr
            .clone()
    }

    fn blame(src: &str, acks: Vec<u64>, need: SeqNo) -> Vec<(u16, SeqNo)> {
        let expr = resolved(src, acks.len());
        let view = FlatAcks(acks);
        let mut blamed = Vec::new();
        let mut unsat = Vec::new();
        blame_expr(&expr, need, &view, &mut blamed, &mut unsat);
        blamed.into_iter().map(|(n, _, have)| (n.0, have)).collect()
    }

    #[test]
    fn min_blames_every_laggard() {
        // MIN over all: everyone must reach `need`.
        let b = blame("MIN($ALLWNODES)", vec![5, 2, 7], 7);
        assert_eq!(b, vec![(0, 5), (1, 2)]);
    }

    #[test]
    fn max_blames_only_the_cheapest() {
        // MAX: only one operand must reach `need`; blame the closest.
        let b = blame("MAX($ALLWNODES)", vec![5, 2, 3], 7);
        assert_eq!(b, vec![(0, 5)]);
    }

    #[test]
    fn kth_min_tolerates_stragglers() {
        // KTH_MIN(2, ·) over 4 nodes: 3 must reach `need`; the single
        // worst straggler is tolerated, the next-best laggard is blamed.
        let b = blame("KTH_MIN(2, $ALLWNODES)", vec![9, 1, 4, 6], 8);
        assert_eq!(b, vec![(3, 6), (2, 4)]);
    }

    #[test]
    fn satisfied_reduction_blames_nothing() {
        assert!(blame("MIN($ALLWNODES)", vec![7, 7, 7], 7).is_empty());
        assert!(blame("MAX($ALLWNODES)", vec![0, 9, 0], 7).is_empty());
        // need == 0 is trivially satisfied.
        assert!(blame("MIN($ALLWNODES)", vec![0, 0, 0], 0).is_empty());
    }

    #[test]
    fn nested_reductions_recurse() {
        // MIN(MAX(a,b), MAX(c,d)): each AZ needs one node at `need`.
        let acks = AckTypeRegistry::new();
        let topo = std::sync::Arc::new(
            Topology::builder()
                .az("A", &["a1", "a2"])
                .az("B", &["b1", "b2"])
                .build()
                .unwrap(),
        );
        let pred =
            Predicate::compile("MIN(MAX($AZ_A), MAX($AZ_B))", &topo, &acks, NodeId(0)).unwrap();
        let view = FlatAcks(vec![9, 9, 3, 1]); // AZ_B behind
        let mut blamed = Vec::new();
        let mut unsat = Vec::new();
        blame_expr(&pred.resolved().expr, 7, &view, &mut blamed, &mut unsat);
        assert_eq!(blamed.len(), 1);
        assert_eq!(blamed[0].0, NodeId(2)); // b1: closest in AZ_B
        assert_eq!(blamed[0].2, 3);
        assert!(unsat.is_empty());
    }

    #[test]
    fn blame_agrees_with_eval_oracle() {
        // Property-style sweep: for every predicate/value/need combo,
        // the walk blames nothing iff eval_resolved(...) >= need.
        let preds = [
            "MIN($ALLWNODES)",
            "MAX($ALLWNODES)",
            "KTH_MAX(2, $ALLWNODES)",
            "KTH_MIN(2, $ALLWNODES)",
            "MIN($ALLWNODES-$MYWNODE)",
        ];
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for src in preds {
            let expr = resolved(src, 4);
            for _ in 0..200 {
                let acks: Vec<u64> = (0..4).map(|_| next() % 10).collect();
                let need = next() % 12;
                let view = FlatAcks(acks.clone());
                let value = eval_resolved(&expr, &view);
                let mut blamed = Vec::new();
                let mut unsat = Vec::new();
                blame_expr(&expr, need, &view, &mut blamed, &mut unsat);
                assert_eq!(
                    blamed.is_empty() && unsat.is_empty(),
                    value >= need,
                    "{src} acks={acks:?} need={need} value={value} blamed={blamed:?}"
                );
            }
        }
    }

    #[test]
    fn unsatisfiable_constants_are_reported() {
        let expr = ResolvedExpr {
            kind: ReduceKind::Smallest,
            k: 1,
            operands: vec![Operand::Cell(NodeId(0), RECEIVED), Operand::Const(3)],
        };
        let view = FlatAcks(vec![10]);
        let mut blamed = Vec::new();
        let mut unsat = Vec::new();
        blame_expr(&expr, 8, &view, &mut blamed, &mut unsat);
        assert!(blamed.is_empty());
        assert_eq!(unsat, vec!["constant 3 can never reach 8"]);
    }

    #[test]
    fn report_json_shape() {
        let report = StallReport {
            stream: NodeId(2),
            key: "All".to_owned(),
            generation: 1,
            frontier: 17,
            target: 23,
            stalled: true,
            predicate: "MIN($ALLWNODES)".to_owned(),
            blamed: vec![BlamedCell {
                node: NodeId(1),
                ack_type: RECEIVED,
                ack_type_name: "received".to_owned(),
                have: 14,
                need: 23,
                suspected: true,
            }],
            unsatisfiable: vec![],
            suspected_peers: vec![NodeId(1)],
        };
        assert_eq!(
            report.to_json(),
            "{\"stream\":2,\"key\":\"All\",\"generation\":1,\"frontier\":17,\
             \"target\":23,\"stalled\":true,\"predicate\":\"MIN($ALLWNODES)\",\
             \"blamed\":[{\"node\":1,\"ack_type\":0,\"ack_type_name\":\"received\",\
             \"have\":14,\"need\":23,\"suspected\":true}],\"unsatisfiable\":[],\
             \"suspected_peers\":[1]}"
        );
        assert!(report.render_human().contains("SUSPECTED"));
        let wrapped = render_stall_reports_json(&[report]);
        assert!(wrapped.starts_with("{\"reports\":[{"));
        assert!(wrapped.ends_with("]}"));
    }
}
