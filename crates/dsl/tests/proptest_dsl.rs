//! Property-based tests for the predicate DSL:
//!
//! 1. The compiled VM and the tree-walking `eval_resolved` agree on
//!    every valid predicate and random ACK table (differential testing).
//! 2. Predicate evaluation is monotonic in the ACK table: raising any
//!    cell never lowers the frontier (the property the control plane's
//!    correctness depends on).
//! 3. The crossing lemma behind `FrontierEngine`'s evaluation rule, on
//!    raw VM programs: raising one cell moves the value only if the cell
//!    crossed the old value.

use proptest::prelude::*;
use stabilizer_dsl::compile::Instr;
use stabilizer_dsl::{
    compile, interp::eval_resolved, parse, resolve, AckTypeId, AckTypeRegistry, AckView,
    EvalScratch, NodeId, Topology,
};

const NODES: u16 = 6;

fn topo() -> Topology {
    Topology::builder()
        .az("A", &["a1", "a2"])
        .az("B", &["b1", "b2", "b3"])
        .az("C", &["c1"])
        .build()
        .unwrap()
}

#[derive(Debug, Clone)]
struct Table(Vec<Vec<u64>>);

impl AckView for Table {
    fn ack(&self, node: NodeId, ty: AckTypeId) -> u64 {
        self.0[node.0 as usize][ty.0 as usize]
    }
}

fn arb_table() -> impl Strategy<Value = Table> {
    proptest::collection::vec(proptest::collection::vec(0u64..1000, 3), NODES as usize)
        .prop_map(Table)
}

/// Generate a random set expression as a source-text fragment.
fn arb_set(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        Just("$ALLWNODES".to_owned()),
        Just("$MYAZWNODES".to_owned()),
        Just("$MYWNODE".to_owned()),
        (1u64..=NODES as u64).prop_map(|n| format!("${n}")),
        prop_oneof![
            Just("a1"),
            Just("a2"),
            Just("b1"),
            Just("b2"),
            Just("b3"),
            Just("c1")
        ]
        .prop_map(|n| format!("$WNODE_{n}")),
        prop_oneof![Just("A"), Just("B"), Just("C")].prop_map(|n| format!("$AZ_{n}")),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
        let inner = arb_set(depth - 1);
        prop_oneof![
            4 => leaf,
            1 => (inner.clone(), inner).prop_map(|(a, b)| format!("($ALLWNODES-({a}-{b}))")),
        ]
        .boxed()
    }
}

/// Generate a random predicate source string. Always reduces over
/// `$ALLWNODES` plus extras so the operand list is never empty and ranks
/// up to 3 are always valid.
fn arb_pred(depth: u32) -> BoxedStrategy<String> {
    let op = prop_oneof![Just("MAX"), Just("MIN"), Just("KTH_MAX"), Just("KTH_MIN")];
    let suffix = prop_oneof![
        3 => Just(String::new()),
        1 => Just(".received".to_owned()),
        1 => Just(".persisted".to_owned()),
        1 => Just(".delivered".to_owned()),
    ];
    let base = (op, 1u32..=3, arb_set(1), suffix).prop_map(|(op, k, set, suf)| {
        let set_arg = if suf.is_empty() {
            set
        } else if set.starts_with('(') {
            format!("{set}{suf}")
        } else {
            format!("({set}){suf}")
        };
        match op {
            "MAX" | "MIN" => format!("{op}($ALLWNODES, {set_arg})"),
            _ => format!("{op}({k}, $ALLWNODES, {set_arg})"),
        }
    });
    if depth == 0 {
        base.boxed()
    } else {
        let inner = arb_pred(depth - 1);
        prop_oneof![
            2 => base,
            1 => (inner.clone(), inner).prop_map(|(a, b)| format!("MIN({a}, {b})")),
        ]
        .boxed()
    }
}

/// A reduction tree over cells and constants, as the compiler would
/// lower it — but drawn directly, so nesting depth, constants and
/// repeated cells are not limited to what the front end emits today.
#[derive(Debug, Clone)]
enum Tree {
    Cell(u16, u16),
    Const(u64),
    /// `rank` is reduced modulo the operand count when flattened.
    Reduce(bool, u32, Vec<Tree>),
}

/// Few cells and few values: operands repeat and values tie.
const LEMMA_NODES: u16 = 3;
const LEMMA_TYPES: u16 = 2;
const LEMMA_VALUES: u64 = 12;

fn arb_tree(depth: u32) -> BoxedStrategy<Tree> {
    let leaf = prop_oneof![
        4 => (0..LEMMA_NODES, 0..LEMMA_TYPES).prop_map(|(n, t)| Tree::Cell(n, t)),
        1 => (0..LEMMA_VALUES).prop_map(Tree::Const),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let operands = proptest::collection::vec(arb_tree(depth - 1), 1..5);
    let reduce = (any::<bool>(), 0u32..8, operands)
        .prop_map(|(largest, rank, operands)| Tree::Reduce(largest, rank, operands));
    prop_oneof![1 => leaf, 3 => reduce].boxed()
}

fn flatten(tree: &Tree, out: &mut Vec<Instr>) {
    match tree {
        Tree::Cell(node, ty) => out.push(Instr::PushCell(NodeId(*node), AckTypeId(*ty))),
        Tree::Const(v) => out.push(Instr::PushConst(*v)),
        Tree::Reduce(largest, rank, operands) => {
            operands.iter().for_each(|op| flatten(op, out));
            let n = operands.len() as u32;
            let k = rank % n + 1;
            out.push(match largest {
                true => Instr::KthLargest { n, k },
                false => Instr::KthSmallest { n, k },
            });
        }
    }
}

/// `(popped, pushed)` of one instruction. Exhaustive on purpose: a new
/// instruction does not compile here until someone decides whether it
/// is monotone in every cell, and adds it to [`arb_tree`] if it is — or
/// takes the crossing rule out of `FrontierEngine` if it is not.
fn stack_effect(instr: Instr) -> (usize, usize) {
    match instr {
        Instr::PushCell(..) | Instr::PushConst(_) => (0, 1),
        Instr::KthLargest { n, .. } | Instr::KthSmallest { n, .. } => (n as usize, 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn raising_a_cell_moves_the_value_only_across_it(
        tree in arb_tree(3),
        table in proptest::collection::vec(
            proptest::collection::vec(0..LEMMA_VALUES, LEMMA_TYPES as usize),
            LEMMA_NODES as usize,
        ),
        node in 0..LEMMA_NODES,
        ty in 0..LEMMA_TYPES,
        raise_by in 1..LEMMA_VALUES,
    ) {
        let mut program = Vec::new();
        flatten(&tree, &mut program);
        let depth = program.iter().fold(0, |depth, i| {
            let (popped, pushed) = stack_effect(*i);
            depth - popped + pushed
        });
        prop_assert_eq!(depth, 1, "a program leaves one value");

        let mut scratch = EvalScratch::new();
        let before = Table(table);
        let mut after = before.clone();
        let old = before.0[node as usize][ty as usize];
        let new = old + raise_by;
        after.0[node as usize][ty as usize] = new;
        let v_before = stabilizer_dsl::vm::run(&program, &before, &mut scratch);
        let v_after = stabilizer_dsl::vm::run(&program, &after, &mut scratch);
        // The value is an order statistic of order statistics: it reaches
        // a threshold t iff a monotone function of {cells >= t} says so,
        // and that set changed only for old < t <= new.
        prop_assert!(v_after >= v_before, "raising a cell lowered {} -> {}", v_before, v_after);
        if v_after != v_before {
            prop_assert!(
                old <= v_before && v_before < new && v_after <= new,
                "cell {}->{} moved the value {}->{} without crossing it: {:?}",
                old, new, v_before, v_after, program
            );
        }
    }

    #[test]
    fn vm_matches_interpreter(src in arb_pred(2), table in arb_table(), me in 0u16..NODES) {
        let topo = topo();
        let acks = AckTypeRegistry::new();
        let ast = parse(&src).unwrap();
        if let Ok(resolved) = resolve(&ast, &topo, &acks, NodeId(me)) {
            let program = compile(&resolved);
            prop_assert_eq!(program.eval(&table), eval_resolved(&resolved.expr, &table));
        }
    }

    #[test]
    fn evaluation_is_monotonic(
        src in arb_pred(2),
        table in arb_table(),
        bump_node in 0u16..NODES,
        bump_ty in 0u16..3,
        bump_by in 1u64..500,
    ) {
        let topo = topo();
        let acks = AckTypeRegistry::new();
        let ast = parse(&src).unwrap();
        if let Ok(resolved) = resolve(&ast, &topo, &acks, NodeId(0)) {
            let program = compile(&resolved);
            let before = program.eval(&table);
            let mut bumped = table.clone();
            bumped.0[bump_node as usize][bump_ty as usize] += bump_by;
            let after = program.eval(&bumped);
            prop_assert!(after >= before, "raising ({bump_node},{bump_ty}) lowered {before} -> {after} for {src}");
        }
    }

    #[test]
    fn optimizer_preserves_semantics(src in arb_pred(2), table in arb_table(), me in 0u16..NODES) {
        let topo = topo();
        let acks = AckTypeRegistry::new();
        if let (Ok(opt), Ok(resolved)) = (
            stabilizer_dsl::Predicate::compile(&src, &topo, &acks, NodeId(me)),
            resolve(&parse(&src).unwrap(), &topo, &acks, NodeId(me)),
        ) {
            let unopt = compile(&resolved);
            prop_assert_eq!(opt.eval(&table), unopt.eval(&table), "optimizer diverged on {}", src);
            prop_assert!(
                opt.program().instrs().len() <= unopt.instrs().len(),
                "optimizer grew the program for {}", src
            );
        }
    }

    #[test]
    fn excluding_always_removes_dependencies(src in arb_pred(1), dead in 0u16..NODES) {
        let topo = topo();
        let acks = AckTypeRegistry::new();
        let ast = parse(&src).unwrap();
        if let Ok(resolved) = resolve(&ast, &topo, &acks, NodeId(0)) {
            if let Ok(rewritten) = stabilizer_dsl::exclude_node(&resolved, NodeId(dead)) {
                let program = compile(&rewritten);
                prop_assert!(program.dependencies().iter().all(|(n, _)| *n != NodeId(dead)));
            }
        }
    }
}
