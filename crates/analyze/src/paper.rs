//! The paper's example deployment and predicates, as an analyzable corpus.
//!
//! `stabcheck --paper` lints exactly this set; the CI `static-analysis`
//! job requires it to be clean (no errors, no warnings — info-level
//! dominance notes among the Table III ladder are expected and allowed).

use stabilizer_dsl::Topology;

/// The Fig. 2 EC2 deployment: 8 writer nodes across 4 regions, as
/// `(region, nodes)` in node-id order.
pub const FIG2_AZS: [(&str, &[&str]); 4] = [
    ("North_California", &["n1", "n2"]),
    ("North_Virginia", &["n3", "n4", "n5", "n6"]),
    ("Oregon", &["n7"]),
    ("Ohio", &["n8"]),
];

/// The six predicates of Table III, keyed by their paper names, in the
/// paper's order.
pub const TABLE3: [(&str, &str); 6] = [
    (
        "OneRegion",
        "MAX(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    ),
    (
        "MajorityRegions",
        "KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    ),
    (
        "AllRegions",
        "MIN(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    ),
    ("OneWNode", "MAX($ALLWNODES-$MYWNODE)"),
    (
        "MajorityWNodes",
        "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)",
    ),
    ("AllWNodes", "MIN($ALLWNODES-$MYWNODE)"),
];

/// [`FIG2_AZS`] as a topology.
pub fn fig2_topology() -> Topology {
    FIG2_AZS
        .iter()
        .fold(Topology::builder(), |b, (az, nodes)| b.az(az, nodes))
        .build()
        .expect("static fig2 topology is valid")
}

/// The example predicates used throughout the paper ([`TABLE3`]'s
/// region/node ladders plus the §III-C compositional examples), as
/// `(name, source)` pairs against [`fig2_topology`].
pub fn examples() -> Vec<(String, String)> {
    TABLE3
        .into_iter()
        .chain([
            ("QuorumWrite", "KTH_MIN(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)"),
            (
                "AZCase",
                "MIN(MIN($MYAZWNODES-$MYWNODE), MAX($ALLWNODES-$MYAZWNODES))",
            ),
        ])
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use crate::lints::Analyzer;
    use stabilizer_dsl::{AckTypeRegistry, NodeId};

    #[test]
    fn all_paper_examples_lint_clean_at_every_node() {
        let topo = fig2_topology();
        let acks = AckTypeRegistry::new();
        for me in topo.all_nodes() {
            // Two examples are only installable at some nodes: OneRegion
            // waits on NV/Oregon/Ohio, so anywhere but the
            // North_California primary it is satisfied by the origin's
            // own AZ (vacuous); AZCase reads $MYAZWNODES-$MYWNODE, empty
            // at the singleton AZs. The analyzer flagging those at the
            // wrong node is correct behavior, exercised elsewhere.
            let at_primary = me == NodeId(0) || me == NodeId(1);
            let has_az_peer = topo.az_members(topo.az_of(me)).len() > 1;
            let analyzer = Analyzer::new(&topo, &acks, me);
            for (name, src) in examples() {
                if name == "OneRegion" && !at_primary {
                    continue;
                }
                if name == "AZCase" && !has_az_peer {
                    continue;
                }
                let report = analyzer.analyze(&name, &src);
                assert!(
                    report.is_clean(),
                    "{name} at {} not clean:\n{}",
                    topo.node_name(me),
                    report.render_human()
                );
            }
        }
    }

    #[test]
    fn paper_set_analysis_yields_only_info_dominance() {
        let topo = fig2_topology();
        let acks = AckTypeRegistry::new();
        let analyzer = Analyzer::new(&topo, &acks, NodeId(0));
        let reports = analyzer.analyze_set(&examples());
        let mut info = 0;
        for r in &reports {
            assert!(r.is_clean(), "{} not clean:\n{}", r.name, r.render_human());
            info += r.count(Severity::Info);
        }
        // The Table III ladder is ordered by strictness, so dominance
        // edges must exist (AllWNodes ⇒ MajorityWNodes ⇒ OneWNode, ...).
        assert!(info >= 3, "expected dominance info notes, got {info}");
    }
}
