//! The availability prover: exact crash tolerance `f*`, minimal blocking
//! sets, and partition-cut analysis for compiled predicates.
//!
//! Every resolved predicate is a **monotone threshold function** over
//! node-up sets: a normalized reduction `KTH(k, x₁..xₙ)` reaches the
//! probe high-watermark iff enough of its operands do (`k` of them for
//! `Largest`, `n−k+1` for `Smallest`), and each operand is itself a cell
//! (up iff its node is up), a constant, or a nested reduction. That
//! structure lets us enumerate *all minimal blocking sets* — the minimal
//! sets of crashed nodes that stop the frontier forever — by structural
//! recursion instead of blind subset search:
//!
//! * `MIN(S)` (Smallest, rank 1): any single operand down blocks — the
//!   blocking sets are the union of the operands' singletons.
//! * `MAX(S)` (Largest, rank 1): every operand must be down — one
//!   blocking set, the whole operand node set.
//! * `KTH(k, S)`: every way of choosing "enough down" operands and one
//!   minimal blocking set from each, unioned, then minimalized.
//!
//! Mixed expressions (nested reductions, constants, duplicate cells) go
//! through the same recursion; every structurally derived set is then
//! cross-checked by [`crate::probe`] (blocked with the set down,
//! unblocked with any member revived), and the engine falls back to
//! exhaustive probe enumeration over the dependency nodes if the
//! structural pass overflows or fails verification.
//!
//! From the minimal blocking sets everything else is cheap:
//!
//! * `f*` — the exact crash tolerance — is (smallest blocking set) − 1,
//!   or the number of other nodes when no blocking set exists.
//! * Partition-cut analysis: a network cut isolating a set of AZs from
//!   the vantage makes the far side behave as crashed (its ACKs never
//!   arrive), so a cut strands the vantage iff the far side contains a
//!   blocking set. Cut cost counts only `linked` node pairs (consulting
//!   the [`PlacementMap`]) — links partial replication never opens
//!   cannot be severed.

use crate::diag::{Diagnostic, Lint};
use crate::probe::{self, PROBE_HIGH};
use stabilizer_dsl::{
    resolve::{Operand, ResolvedExpr},
    NodeId, Predicate, Span, Topology,
};
use stabilizer_place::PlacementMap;

/// Cap on intermediate candidate sets during structural recursion; above
/// this the engine falls back to exhaustive probe enumeration (which is
/// bounded by the dependency count, not the candidate product).
const STRUCTURAL_CAP: usize = 20_000;

/// Most dependency nodes the exhaustive fallback enumerates: `2^16`
/// probes. A predicate that needs more is left undecided.
const BRUTE_FORCE_DEPS: usize = 16;

/// The availability verdict for one predicate at one vantage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Availability {
    /// The vantage the predicate was compiled at.
    pub me: NodeId,
    /// All minimal blocking sets: each sorted by node id, the list sorted
    /// by (size, lexicographic). Empty when no crash set of other nodes
    /// can ever block the predicate.
    pub blocking_sets: Vec<Vec<NodeId>>,
    /// Exact crash tolerance `f*`: the maximum number of crashed
    /// non-vantage nodes under which the frontier still advances.
    /// `-1` when the predicate is blocked even with zero crashes (it
    /// waits on a constant below the probe high), `num_nodes - 1` when
    /// unbounded (no blocking set exists).
    pub tolerance: i64,
    /// True when the sets came from structural recursion (probe-verified);
    /// false when the exhaustive probe fallback produced them.
    pub structural: bool,
}

impl Availability {
    /// Size of the smallest blocking set, if any set exists.
    pub fn min_blocking(&self) -> Option<usize> {
        self.blocking_sets.first().map(Vec::len)
    }

    /// True when no crash set of other nodes can block the predicate.
    pub fn unbounded(&self) -> bool {
        self.blocking_sets.is_empty()
    }
}

/// A network cut isolating `far_azs` (and their member nodes) from the
/// vantage's side of the topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionCut {
    /// Names of the AZs on the far side, in topology order.
    pub far_azs: Vec<String>,
    /// Every node stranded on the far side.
    pub far_nodes: Vec<NodeId>,
    /// How many live overlay links the cut severs — only `linked` node
    /// pairs count under partial replication (a full mesh otherwise).
    pub severed_links: usize,
}

/// Compute the availability verdict for `pred` evaluated at `me`, or
/// `None` when it is undecided: the topology has more nodes than a
/// 64-bit mask holds, or the structural pass overflows on a predicate
/// that reads more nodes than the exhaustive fallback enumerates
/// (16: `2^16` probes). Topologies of at most 16 nodes are always
/// decided.
///
/// The caller is expected to pass the predicate *as installed* — i.e.
/// already [`restricted_to`](Predicate::restricted_to) the stream's
/// replica set under partial replication — so the verdict matches what
/// the runtime actually waits on.
pub fn availability(pred: &Predicate, topo: &Topology, me: NodeId) -> Option<Availability> {
    let (masks, structural) = blocking_masks(pred, topo, me)?;
    let blocking_sets = masks_to_sets(&masks);
    Some(Availability {
        me,
        tolerance: tolerance_from(&blocking_sets, topo),
        blocking_sets,
        structural,
    })
}

/// Exhaustive probe enumeration of minimal blocking sets — the oracle the
/// property suite compares the structural engine against. Cost is
/// `2^d` probe evaluations for `d` dependency nodes; callers keep `d`
/// small.
pub fn brute_force_availability(pred: &Predicate, topo: &Topology, me: NodeId) -> Availability {
    let masks = brute_force_masks(pred, topo, &dependency_nodes(pred, me));
    let blocking_sets = masks_to_sets(&masks);
    Availability {
        me,
        tolerance: tolerance_from(&blocking_sets, topo),
        blocking_sets,
        structural: false,
    }
}

/// `f*` from a minimal-set list: smallest set size minus one, or the
/// number of non-vantage nodes when no set exists.
fn tolerance_from(sets: &[Vec<NodeId>], topo: &Topology) -> i64 {
    match sets.first() {
        Some(smallest) => smallest.len() as i64 - 1,
        None => topo.num_nodes() as i64 - 1,
    }
}

/// Every cut of a union of non-vantage AZs that strands `me`: the far
/// side contains a blocking set, so the frontier can never advance while
/// the cut holds. Sorted by (severed links, AZ count, AZ names) — the
/// first entry is the *worst* cut: the cheapest network event that
/// stalls the predicate. `placement` scopes link counting; `None` means
/// full replication (every pair linked).
pub fn stranding_cuts(
    avail: &Availability,
    topo: &Topology,
    placement: Option<&PlacementMap>,
) -> Vec<PartitionCut> {
    if avail.blocking_sets.is_empty() {
        return Vec::new();
    }
    let masks: Vec<u64> = avail.blocking_sets.iter().map(|s| set_to_mask(s)).collect();
    let my_az = topo.az_of(avail.me);
    let other_azs: Vec<(stabilizer_dsl::AzId, &[NodeId])> =
        topo.azs().filter(|(az, _)| *az != my_az).collect();
    let mut cuts = Vec::new();
    for sel in 1u32..(1 << other_azs.len()) {
        let mut far_mask = 0u64;
        let mut far_azs = Vec::new();
        let mut far_nodes = Vec::new();
        for (i, (az, members)) in other_azs.iter().enumerate() {
            if sel & (1 << i) != 0 {
                far_azs.push(topo.az_name(*az).to_owned());
                for n in *members {
                    far_mask |= 1 << n.0;
                    far_nodes.push(*n);
                }
            }
        }
        if !masks.iter().any(|m| m & !far_mask == 0) {
            continue; // far side contains no blocking set: frontier advances
        }
        let severed = severed_links(topo, far_mask, placement);
        if severed == 0 {
            continue; // no live link crosses this cut: nothing to sever
        }
        far_nodes.sort_unstable();
        cuts.push(PartitionCut {
            far_azs,
            far_nodes,
            severed_links: severed,
        });
    }
    cuts.sort_by(|a, b| {
        (a.severed_links, a.far_azs.len(), &a.far_azs).cmp(&(
            b.severed_links,
            b.far_azs.len(),
            &b.far_azs,
        ))
    });
    cuts
}

/// The cheapest cut that strands the vantage, if any.
pub fn worst_cut(
    avail: &Availability,
    topo: &Topology,
    placement: Option<&PlacementMap>,
) -> Option<PartitionCut> {
    stranding_cuts(avail, topo, placement).into_iter().next()
}

/// The cheapest *single-AZ* cut that strands the vantage: the classic
/// geo-replication event of one region dropping off the WAN. This is the
/// trigger for the `partition-vulnerable` lint.
pub fn single_az_cut(
    avail: &Availability,
    topo: &Topology,
    placement: Option<&PlacementMap>,
) -> Option<PartitionCut> {
    stranding_cuts(avail, topo, placement)
        .into_iter()
        .find(|c| c.far_azs.len() == 1)
}

/// Count the live overlay links a cut severs: unordered node pairs with
/// one end on each side that partial replication actually connects.
fn severed_links(topo: &Topology, far_mask: u64, placement: Option<&PlacementMap>) -> usize {
    let nodes = topo.all_nodes();
    let mut severed = 0;
    for (i, a) in nodes.iter().enumerate() {
        for b in &nodes[i + 1..] {
            let crosses = (far_mask >> a.0) & 1 != (far_mask >> b.0) & 1;
            if crosses && placement.is_none_or(|p| p.linked(*a, *b)) {
                severed += 1;
            }
        }
    }
    severed
}

/// The lexicographically-first crash witness within `budget`: the
/// smallest-index `budget`-subset of non-vantage nodes containing a
/// blocking set — byte-identical to the witness the old exhaustive DFS
/// in [`probe::crash_unsatisfiable`](crate::crash_unsatisfiable)
/// reported, but derived from the minimal sets: complete each small
/// enough blocking set with the lowest free node ids and take the
/// lexicographic minimum.
pub fn crash_witness(avail: &Availability, topo: &Topology, budget: usize) -> Option<Vec<NodeId>> {
    if budget == 0 {
        return None;
    }
    let others: Vec<NodeId> = topo
        .all_nodes()
        .into_iter()
        .filter(|n| *n != avail.me)
        .collect();
    let f = budget.min(others.len());
    let mut best: Option<Vec<NodeId>> = None;
    for set in &avail.blocking_sets {
        if set.len() > f {
            continue; // sets are size-sorted, but keep it robust
        }
        let mut witness = set.clone();
        for n in &others {
            if witness.len() == f {
                break;
            }
            if !witness.contains(n) {
                witness.push(*n);
            }
        }
        witness.sort_unstable();
        if best.as_ref().is_none_or(|b| witness < *b) {
            best = Some(witness);
        }
    }
    best
}

/// Render a blocking-set list as `{a, b} {c}` with topology names.
pub fn render_sets(sets: &[Vec<NodeId>], topo: &Topology) -> String {
    sets.iter()
        .map(|s| {
            format!(
                "{{{}}}",
                s.iter()
                    .map(|n| topo.node_name(*n))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The `tolerance-asymmetry` diagnostic: `f*` for the same predicate
/// differs across vantages. `per_vantage` pairs vantage names with their
/// tolerance; `span` should cover the predicate source.
pub fn asymmetry_diagnostic(per_vantage: &[(&str, i64)], span: Span) -> Option<Diagnostic> {
    let min = per_vantage.iter().map(|(_, t)| *t).min()?;
    let max = per_vantage.iter().map(|(_, t)| *t).max()?;
    if min == max {
        return None;
    }
    let table = per_vantage
        .iter()
        .map(|(name, t)| format!("{name}={t}"))
        .collect::<Vec<_>>()
        .join(", ");
    Some(
        Diagnostic::new(
            Lint::ToleranceAsymmetry,
            span,
            format!("crash tolerance f* differs across vantages: {table}"),
        )
        .with_note(
            "availability depends on where the predicate is evaluated; the weakest vantage bounds the deployment",
        ),
    )
}

// ----------------------------------------------------------------------
// The blocking-set engine
// ----------------------------------------------------------------------

/// Structural recursion with probe verification, falling back to
/// exhaustive probe enumeration. Returns (minimal masks, structural?),
/// or `None` when neither can decide within its bound.
fn blocking_masks(pred: &Predicate, topo: &Topology, me: NodeId) -> Option<(Vec<u64>, bool)> {
    if topo.num_nodes() > 64 {
        return None;
    }
    if let Ok(masks) = expr_masks(&pred.resolved().expr, me) {
        if verify_masks(pred, topo, &masks) {
            return Some((masks, true));
        }
    }
    let deps = dependency_nodes(pred, me);
    (deps.len() <= BRUTE_FORCE_DEPS).then(|| (brute_force_masks(pred, topo, &deps), false))
}

/// Overflow marker: the candidate product exceeded [`STRUCTURAL_CAP`].
struct Overflow;

/// Minimal blocking masks of one operand. `vec![]` = never blockable
/// (the vantage's own cell, or a constant at/above the probe high);
/// `vec![0]` = blocked with zero crashes (a constant below it).
fn operand_masks(op: &Operand, me: NodeId) -> Result<Vec<u64>, Overflow> {
    match op {
        Operand::Cell(n, _) if *n == me => Ok(Vec::new()),
        Operand::Cell(n, _) => Ok(vec![1u64 << n.0]),
        Operand::Const(c) if *c >= PROBE_HIGH => Ok(Vec::new()),
        Operand::Const(_) => Ok(vec![0]),
        Operand::Nested(e) => expr_masks(e, me),
    }
}

/// Minimal blocking masks of a resolved reduction, as a minimal
/// antichain sorted by (popcount, value).
fn expr_masks(expr: &ResolvedExpr, me: NodeId) -> Result<Vec<u64>, Overflow> {
    let n = expr.operands.len();
    // Operands that must reach the probe high for the reduction to;
    // blocking means driving more than `n - req` of them down.
    let req = expr.up_requirement();
    let need_down = n - req + 1;
    let per_op: Vec<Vec<u64>> = expr
        .operands
        .iter()
        .map(|op| operand_masks(op, me))
        .collect::<Result<_, _>>()?;
    // Always-blocked operands (antichain exactly [0]) count for free.
    let free = per_op.iter().filter(|m| m.as_slice() == [0]).count();
    let need = need_down.saturating_sub(free);
    if need == 0 {
        return Ok(vec![0]);
    }
    let blockable: Vec<&Vec<u64>> = per_op
        .iter()
        .filter(|m| !m.is_empty() && m.as_slice() != [0])
        .collect();
    if blockable.len() < need {
        return Ok(Vec::new());
    }
    // Every minimal blocking set is a union of one minimal set from each
    // of `need` blockable operands (choose any `need` operands it blocks
    // and shrink — monotonicity makes the union block, minimality makes
    // it equal). Enumerate those unions, then minimalize.
    let mut out = Vec::new();
    let mut chosen = Vec::with_capacity(need);
    combine(&blockable, need, 0, 0u64, &mut chosen, &mut out)?;
    Ok(minimalize(out))
}

/// Recursive choice of `need` operands (by ascending index) and one mask
/// from each, pushing the running unions.
fn combine(
    blockable: &[&Vec<u64>],
    need: usize,
    from: usize,
    acc: u64,
    chosen: &mut Vec<usize>,
    out: &mut Vec<u64>,
) -> Result<(), Overflow> {
    if chosen.len() == need {
        if out.len() >= STRUCTURAL_CAP {
            return Err(Overflow);
        }
        out.push(acc);
        return Ok(());
    }
    // Not enough operands left to reach `need`: prune.
    let remaining = need - chosen.len();
    for i in from..=blockable.len().saturating_sub(remaining) {
        chosen.push(i);
        for mask in blockable[i] {
            combine(blockable, need, i + 1, acc | mask, chosen, out)?;
        }
        chosen.pop();
    }
    Ok(())
}

/// Keep only the minimal masks (no other mask is a subset), deduped,
/// sorted by (popcount, value).
fn minimalize(mut masks: Vec<u64>) -> Vec<u64> {
    masks.sort_by_key(|m| (m.count_ones(), *m));
    masks.dedup();
    let mut out: Vec<u64> = Vec::new();
    for m in masks {
        if !out.iter().any(|kept| kept & !m == 0) {
            out.push(m);
        }
    }
    out
}

/// Probe-check every structurally derived set: the predicate must be
/// blocked with the set crashed and unblocked after reviving any single
/// member (minimality). Monotonicity makes one probe per case
/// conclusive.
fn verify_masks(pred: &Predicate, topo: &Topology, masks: &[u64]) -> bool {
    masks.iter().all(|m| {
        probe::blocked_with_down(pred.program(), topo, *m)
            && (0..64)
                .filter(|b| m & (1 << b) != 0)
                .all(|b| !probe::blocked_with_down(pred.program(), topo, m & !(1 << b)))
    })
}

/// The nodes other than `me` whose cells `pred` reads, sorted: crashing
/// a node the predicate never reads cannot change its value.
fn dependency_nodes(pred: &Predicate, me: NodeId) -> Vec<NodeId> {
    let mut deps: Vec<NodeId> = pred.dependencies().iter().map(|(n, _)| *n).collect();
    deps.sort_unstable();
    deps.dedup();
    deps.retain(|n| *n != me);
    deps
}

/// Exhaustive enumeration over the dependency nodes `deps`: probe every
/// subset, keep the minimal blocked ones.
fn brute_force_masks(pred: &Predicate, topo: &Topology, deps: &[NodeId]) -> Vec<u64> {
    let d = deps.len().min(63);
    let mut blocked = Vec::new();
    for sub in 0u64..(1 << d) {
        let mask: u64 = (0..d)
            .filter(|i| sub & (1 << i) != 0)
            .map(|i| 1u64 << deps[i].0)
            .sum();
        if probe::blocked_with_down(pred.program(), topo, mask) {
            blocked.push(mask);
        }
    }
    minimalize(blocked)
}

fn masks_to_sets(masks: &[u64]) -> Vec<Vec<NodeId>> {
    masks
        .iter()
        .map(|m| {
            (0u16..64)
                .filter(|b| m & (1 << b) != 0)
                .map(NodeId)
                .collect()
        })
        .collect()
}

fn set_to_mask(set: &[NodeId]) -> u64 {
    set.iter().fold(0u64, |acc, n| acc | (1 << n.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabilizer_dsl::AckTypeRegistry;

    fn topo() -> Topology {
        Topology::builder()
            .az("East", &["e1", "e2"])
            .az("West", &["w1", "w2"])
            .az("Solo", &["s1"])
            .build()
            .unwrap()
    }

    fn avail(src: &str, me: u16) -> Availability {
        let acks = AckTypeRegistry::new();
        let pred = Predicate::compile(src, &topo(), &acks, NodeId(me)).unwrap();
        availability(&pred, &topo(), NodeId(me)).unwrap()
    }

    fn sets(a: &Availability) -> Vec<Vec<u16>> {
        a.blocking_sets
            .iter()
            .map(|s| s.iter().map(|n| n.0).collect())
            .collect()
    }

    #[test]
    fn min_over_remotes_has_singleton_sets_and_zero_tolerance() {
        let a = avail("MIN($ALLWNODES-$MYWNODE)", 0);
        assert_eq!(sets(&a), vec![vec![1], vec![2], vec![3], vec![4]]);
        assert_eq!(a.tolerance, 0);
        assert!(a.structural);
    }

    #[test]
    fn max_over_remotes_has_one_whole_set() {
        let a = avail("MAX($ALLWNODES-$MYWNODE)", 0);
        assert_eq!(sets(&a), vec![vec![1, 2, 3, 4]]);
        assert_eq!(a.tolerance, 3);
    }

    #[test]
    fn kth_min_blocks_on_k_subsets() {
        // Smallest rank 2 over 5 cells (me included, never crashable):
        // any 2 of the 4 remotes down blocks.
        let a = avail("KTH_MIN(2, $ALLWNODES)", 0);
        assert_eq!(a.tolerance, 1);
        assert_eq!(sets(&a).len(), 6); // C(4,2)
        assert!(sets(&a).iter().all(|s| s.len() == 2));
    }

    #[test]
    fn vacuous_predicate_is_unbounded() {
        let a = avail("MAX($ALLWNODES)", 0);
        assert!(a.unbounded());
        assert_eq!(a.tolerance, 4);
    }

    #[test]
    fn constant_operand_counts_as_permanently_down() {
        // MIN over a remote and a constant: blocked with zero crashes.
        let a = avail("MIN($2, 7)", 0);
        assert_eq!(sets(&a), vec![Vec::<u16>::new()]);
        assert_eq!(a.tolerance, -1);
    }

    #[test]
    fn nested_reductions_recurse() {
        // Needs both AZ-East (without me: just e2) and one of West.
        let a = avail("MIN(MAX($AZ_East-$MYWNODE), MAX($AZ_West))", 0);
        assert_eq!(sets(&a), vec![vec![1], vec![2, 3]]);
        assert_eq!(a.tolerance, 0);
    }

    #[test]
    fn duplicate_cells_union_correctly() {
        // The same node in both operands: one crash downs both.
        let a = avail("KTH_MIN(2, $2, $2)", 0);
        assert_eq!(sets(&a), vec![vec![1]]);
    }

    #[test]
    fn structural_matches_brute_force_on_fixtures() {
        for src in [
            "MIN($ALLWNODES-$MYWNODE)",
            "MAX($ALLWNODES-$MYWNODE)",
            "KTH_MIN(2, $ALLWNODES)",
            "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)",
            "MIN(MAX($AZ_East), KTH_MAX(2, $AZ_West, $WNODE_s1))",
        ] {
            let acks = AckTypeRegistry::new();
            let t = topo();
            let pred = Predicate::compile(src, &t, &acks, NodeId(0)).unwrap();
            let a = availability(&pred, &t, NodeId(0)).unwrap();
            let b = brute_force_availability(&pred, &t, NodeId(0));
            assert_eq!(a.blocking_sets, b.blocking_sets, "{src}");
            assert_eq!(a.tolerance, b.tolerance, "{src}");
        }
    }

    #[test]
    fn witness_is_lexicographically_first() {
        let a = avail("MIN($ALLWNODES-$MYWNODE)", 0);
        assert_eq!(crash_witness(&a, &topo(), 1), Some(vec![NodeId(1)]),);
        // Budget 2: the {1} set padded with the next free id.
        assert_eq!(
            crash_witness(&a, &topo(), 2),
            Some(vec![NodeId(1), NodeId(2)]),
        );
        let m = avail("MAX($ALLWNODES-$MYWNODE)", 0);
        assert_eq!(crash_witness(&m, &topo(), 3), None);
        assert_eq!(
            crash_witness(&m, &topo(), 4),
            Some(vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]),
        );
    }

    #[test]
    fn worst_cut_prefers_fewest_severed_links() {
        // Majority of the 4 remotes: needs 3 up; stranded iff ≥ 2
        // unreachable. Cutting West (2 nodes) strands; cutting Solo (1
        // node) does not; West+Solo also strands but severs more links.
        let a = avail("KTH_MAX(3, $ALLWNODES-$MYWNODE)", 0);
        assert_eq!(a.tolerance, 1);
        let cut = worst_cut(&a, &topo(), None).unwrap();
        assert_eq!(cut.far_azs, vec!["West".to_string()]);
        assert_eq!(cut.far_nodes, vec![NodeId(2), NodeId(3)]);
        // West's 2 nodes each link to the 3 near-side nodes.
        assert_eq!(cut.severed_links, 6);
        assert!(single_az_cut(&a, &topo(), None).is_some());
    }

    #[test]
    fn max_predicate_survives_every_az_cut() {
        // The blocking set contains e2, which shares the vantage's AZ and
        // so is always on the near side of an AZ-granular cut: no cut
        // strands a MAX over all remotes.
        let a = avail("MAX($ALLWNODES-$MYWNODE)", 0);
        assert!(single_az_cut(&a, &topo(), None).is_none());
        assert!(worst_cut(&a, &topo(), None).is_none());
    }

    #[test]
    fn placement_restricts_severed_link_counting() {
        // Stream 0 placed on {0, 2}: the only live links are 0-2 plus
        // each node's self-stream links.
        let t = topo();
        let p = PlacementMap::from_sets(
            5,
            &[
                (NodeId(0), vec![NodeId(0), NodeId(2)]),
                (NodeId(1), vec![NodeId(1), NodeId(2)]),
                (NodeId(2), vec![NodeId(2), NodeId(0)]),
                (NodeId(3), vec![NodeId(3), NodeId(0)]),
                (NodeId(4), vec![NodeId(4), NodeId(2)]),
            ],
        )
        .unwrap();
        let acks = AckTypeRegistry::new();
        let pred = Predicate::compile("MAX($WNODE_w1)", &t, &acks, NodeId(0)).unwrap();
        let a = availability(&pred, &t, NodeId(0)).unwrap();
        // Isolating West alone severs the 4 open links 0-2, 0-3, 1-2,
        // 2-4; taking Solo (node 4) to the far side as well removes the
        // 2-4 crossing, so the cheapest stranding cut is West+Solo at 3.
        let cut = worst_cut(&a, &t, Some(&p)).unwrap();
        assert_eq!(cut.far_azs, vec!["West".to_string(), "Solo".to_string()]);
        assert_eq!(cut.severed_links, 3);
        let single = single_az_cut(&a, &t, Some(&p)).unwrap();
        assert_eq!(single.far_azs, vec!["West".to_string()]);
        assert_eq!(single.severed_links, 4);
    }

    #[test]
    fn asymmetry_fires_only_on_differing_tolerances() {
        let span = Span::new(0, 10);
        assert!(asymmetry_diagnostic(&[("e1", 1), ("e2", 1)], span).is_none());
        let d = asymmetry_diagnostic(&[("e1", 1), ("w1", 2)], span).unwrap();
        assert_eq!(d.lint, Lint::ToleranceAsymmetry);
        assert!(d.message.contains("e1=1, w1=2"));
    }
}
