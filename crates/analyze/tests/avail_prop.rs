//! Property tests for the availability prover: across random small
//! topologies and random predicates, the structural blocking-set
//! enumeration must agree exactly with brute-force probe enumeration,
//! and the reported crash tolerance `f*` must be probe-consistent —
//! no crash set of size `f*` blocks the predicate, and (when bounded)
//! the smallest claimed blocking set really is minimal under probing.

use proptest::prelude::*;
use stabilizer_analyze::{
    availability, blocked_with_down, brute_force_availability, crash_witness,
};
use stabilizer_dsl::{AckTypeRegistry, NodeId, Predicate, Topology};

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
    let rank = (1..=n).prop_map(|k| k.to_string());
    let consts = prop_oneof![
        4 => Just(String::new()),
        1 => Just(", 0".to_owned()),
        1 => Just(", 12345".to_owned()),
    ];
    let base = (op, rank, arb_set(n, azs), arb_set(n, azs), consts).prop_map(
        |(op, k, s1, s2, c)| match op {
            "MAX" | "MIN" => format!("{op}({s1}, {s2}{c})"),
            _ => format!("{op}({k}, {s1}, {s2}{c})"),
        },
    );
    if depth == 0 {
        base.boxed()
    } else {
        let inner = arb_pred(n, azs, depth - 1);
        prop_oneof![
            3 => base,
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("MIN({a}, {b})")),
            1 => (inner.clone(), inner).prop_map(|(a, b)| format!("MAX({a}, {b})")),
        ]
        .boxed()
    }
}

/// Topology shape (≤ 8 nodes) + a predicate generated to fit it.
fn arb_case() -> impl Strategy<Value = (Vec<usize>, String)> {
    proptest::collection::vec(1usize..=2, 1..=4).prop_flat_map(|shape| {
        let n: usize = shape.iter().sum();
        let azs = shape.len();
        (Just(shape), arb_pred(n, azs, 1))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn structural_enumeration_matches_brute_force(
        case in arb_case(),
        me_raw in 0u16..16,
    ) {
        let (shape, src) = case;
        let topo = build_topo(&shape);
        let acks = AckTypeRegistry::new();
        let me = NodeId(me_raw % topo.num_nodes() as u16);
        let Ok(pred) = Predicate::compile(&src, &topo, &acks, me) else {
            return Ok(());
        };
        let fast = availability(&pred, &topo, me).expect("at most 16 nodes are decided");
        let slow = brute_force_availability(&pred, &topo, me);
        prop_assert_eq!(
            &fast.blocking_sets, &slow.blocking_sets,
            "minimal blocking sets diverged for {} at n{}", src, me.0 + 1
        );
        prop_assert_eq!(fast.tolerance, slow.tolerance);
    }

    #[test]
    fn tolerance_is_probe_consistent(
        case in arb_case(),
        me_raw in 0u16..16,
    ) {
        let (shape, src) = case;
        let topo = build_topo(&shape);
        let acks = AckTypeRegistry::new();
        let me = NodeId(me_raw % topo.num_nodes() as u16);
        let Ok(pred) = Predicate::compile(&src, &topo, &acks, me) else {
            return Ok(());
        };
        let avail = availability(&pred, &topo, me).expect("at most 16 nodes are decided");
        let n = topo.num_nodes();
        let others: Vec<NodeId> = topo
            .all_nodes()
            .into_iter()
            .filter(|&x| x != me)
            .collect();

        // Exhaustively probe every crash subset of the other nodes
        // (n ≤ 8, so at most 2^7 probes): subsets of size ≤ f* never
        // block; the smallest blocking subset has size f* + 1.
        let mut min_blocking_size: Option<usize> = None;
        for bits in 0u32..(1u32 << others.len()) {
            let mut mask = 0u64;
            let mut size = 0usize;
            for (i, node) in others.iter().enumerate() {
                if bits & (1 << i) != 0 {
                    mask |= 1u64 << node.0;
                    size += 1;
                }
            }
            if blocked_with_down(pred.program(), &topo, mask) {
                min_blocking_size = Some(min_blocking_size.map_or(size, |m| m.min(size)));
            }
        }
        match min_blocking_size {
            None => prop_assert_eq!(
                avail.tolerance, n as i64 - 1,
                "no crash set blocks {} at n{} but prover claims bounded f*", src, me.0 + 1
            ),
            Some(sz) => prop_assert_eq!(
                avail.tolerance, sz as i64 - 1,
                "smallest probe-blocking set for {} at n{} has {} nodes", src, me.0 + 1, sz
            ),
        }

        // Every claimed minimal set blocks, and is minimal: dropping any
        // single member unblocks.
        for set in &avail.blocking_sets {
            let full: u64 = set.iter().map(|nd| 1u64 << nd.0).sum();
            prop_assert!(blocked_with_down(pred.program(), &topo, full));
            for drop in set {
                let reduced = full & !(1u64 << drop.0);
                prop_assert!(
                    !blocked_with_down(pred.program(), &topo, reduced),
                    "claimed minimal set {:?} for {} is not minimal", set, src
                );
            }
        }

        // The witness API is consistent with f*: no witness within a
        // budget of f*, and one exists at f* + 1 whenever f* is bounded.
        if avail.tolerance >= 0 {
            prop_assert!(crash_witness(&avail, &topo, avail.tolerance as usize).is_none());
            if !avail.unbounded() {
                let w = crash_witness(&avail, &topo, avail.tolerance as usize + 1)
                    .expect("bounded f* must admit a witness at f*+1");
                prop_assert_eq!(w.len(), avail.tolerance as usize + 1);
            }
        }
    }
}
