//! Differential property test tying the analyzer to both evaluation
//! engines: any predicate the analyzer passes without an *error* must
//! compile, and the bytecode VM and the tree-walking `eval_resolved`
//! must agree on it for every ACK table — across randomly shaped
//! topologies, not just the fixed fixtures the unit tests use.
//!
//! This pins the analyzer's soundness contract from the other side: an
//! error-free report is a promise that the predicate is executable, and a
//! compile failure here is an analyzer false negative.

use proptest::prelude::*;
use stabilizer_analyze::{Analyzer, Severity};
use stabilizer_dsl::{
    compile, interp::eval_resolved, parse, resolve, AckTypeId, AckTypeRegistry, AckView, NodeId,
    Topology,
};

/// Shape = node count per AZ; node names are n1..nN across AZs Z0..Zk.
fn build_topo(shape: &[usize]) -> Topology {
    let mut b = Topology::builder();
    let mut next = 0usize;
    for (azi, &sz) in shape.iter().enumerate() {
        let names: Vec<String> = (0..sz)
            .map(|_| {
                next += 1;
                format!("n{next}")
            })
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        b = b.az(&format!("Z{azi}"), &refs);
    }
    b.build().unwrap()
}

#[derive(Debug, Clone)]
struct Table(Vec<Vec<u64>>);

impl AckView for Table {
    fn ack(&self, node: NodeId, ty: AckTypeId) -> u64 {
        self.0[node.0 as usize][ty.0 as usize]
    }
}

/// A set fragment whose names are all valid for an `n`-node, `azs`-AZ
/// topology, so most generated predicates survive resolution and the
/// differential half of the property gets real coverage.
fn arb_set_leaf(n: usize, azs: usize) -> BoxedStrategy<String> {
    prop_oneof![
        Just("$ALLWNODES".to_owned()),
        Just("$MYAZWNODES".to_owned()),
        Just("$MYWNODE".to_owned()),
        (1..=n).prop_map(|k| format!("${k}")),
        (1..=n).prop_map(|k| format!("$WNODE_n{k}")),
        (0..azs).prop_map(|a| format!("$AZ_Z{a}")),
    ]
    .boxed()
}

fn arb_set(n: usize, azs: usize) -> BoxedStrategy<String> {
    let diff = (arb_set_leaf(n, azs), arb_set_leaf(n, azs)).prop_map(|(a, b)| format!("({a}-{b})"));
    prop_oneof![4 => arb_set_leaf(n, azs), 1 => diff].boxed()
}

fn arb_pred(n: usize, azs: usize, depth: u32) -> BoxedStrategy<String> {
    let op = prop_oneof![Just("MAX"), Just("MIN"), Just("KTH_MAX"), Just("KTH_MIN")];
    let rank = prop_oneof![
        3 => (1..=n).prop_map(|k| k.to_string()),
        1 => Just("SIZEOF($ALLWNODES)/2+1".to_owned()),
    ];
    let suffix = prop_oneof![
        3 => Just(String::new()),
        1 => Just(".persisted".to_owned()),
        1 => Just(".delivered".to_owned()),
    ];
    let base =
        (op, rank, arb_set(n, azs), arb_set(n, azs), suffix).prop_map(|(op, k, s1, s2, suf)| {
            let s2 = if suf.is_empty() {
                s2
            } else if s2.starts_with('(') {
                format!("{s2}{suf}")
            } else {
                format!("({s2}){suf}")
            };
            match op {
                "MAX" | "MIN" => format!("{op}({s1}, {s2})"),
                _ => format!("{op}({k}, {s1}, {s2})"),
            }
        });
    if depth == 0 {
        base.boxed()
    } else {
        let inner = arb_pred(n, azs, depth - 1);
        prop_oneof![
            3 => base,
            1 => (inner.clone(), inner).prop_map(|(a, b)| format!("MIN({a}, {b})")),
        ]
        .boxed()
    }
}

/// Topology shape + a predicate generated to fit it.
fn arb_case() -> impl Strategy<Value = (Vec<usize>, String)> {
    proptest::collection::vec(1usize..=3, 1..=3).prop_flat_map(|shape| {
        let n: usize = shape.iter().sum();
        let azs = shape.len();
        (Just(shape), arb_pred(n, azs, 1))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn error_free_predicates_compile_and_engines_agree(
        case in arb_case(),
        rows in proptest::collection::vec(proptest::collection::vec(0u64..1_000_000, 4), 9),
        me_raw in 0u16..16,
    ) {
        let (shape, src) = case;
        let topo = build_topo(&shape);
        let acks = AckTypeRegistry::new();
        let me = NodeId(me_raw % topo.num_nodes() as u16);
        let report = Analyzer::new(&topo, &acks, me).analyze("P", &src);
        if report.has_at_least(Severity::Error) {
            return Ok(());
        }
        // No error diagnostic: the analyzer promises this is executable.
        let ast = parse(&src).expect("error-free report but parse failed");
        let resolved = resolve(&ast, &topo, &acks, me)
            .unwrap_or_else(|e| panic!("analyzer passed {src:?} at {me:?} but resolve failed: {e}"));
        let program = compile(&resolved);
        let table = Table(rows);
        prop_assert_eq!(
            program.eval(&table),
            eval_resolved(&resolved.expr, &table),
            "VM and interpreter diverged on {} at node {}", src, me.0
        );
    }
}
