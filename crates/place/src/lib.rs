//! # Partial-replication placement
//!
//! Every node in the seed system replicates every stream, so aggregate
//! cluster capacity is flat in node count. Following the partial-replication
//! line of work (Xiang & Vaidya's causally consistent partial replication,
//! Okapi), this crate lets a deployment declare **per-stream replica sets**:
//! a `replicate <stream> [nodes...]` directive in the cluster config names
//! the nodes that store, acknowledge, and stabilize a stream. Nodes outside
//! the set never receive the stream's data, never emit ACKs for it, and are
//! never consulted by its stability-frontier predicates.
//!
//! The central type is [`PlacementMap`]: the validated, immutable resolution
//! of stream → replica set for one cluster. The default ([`PlacementMap::full`])
//! replicates everything everywhere, which preserves the seed semantics
//! byte-for-byte — a `replicate`-free config builds a full placement whose
//! behavior (and replay hash) is identical to before this subsystem existed.
//!
//! Determinism: the map exposes [`PlacementMap::placement_hash`], an
//! FNV-1a-shaped hash over the canonical rendering, so replays and
//! cross-process runs can pin that they executed under the same placement.

pub mod directive;

pub use directive::{parse_replicate, ReplicateDirective, SpannedName};

use stabilizer_dsl::{NodeId, Topology};
use std::fmt;

/// A placement validation error, produced while resolving `replicate`
/// directives against a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The directive names a stream (origin node) not in the topology.
    UnknownStream(String),
    /// A replica list entry is not a node in the topology.
    UnknownNode { stream: String, node: String },
    /// The stream's origin node is missing from its own replica set.
    OriginExcluded { stream: String },
    /// The directive lists no replicas at all.
    EmptySet { stream: String },
    /// Two directives target the same stream.
    DuplicateStream { stream: String },
    /// A directive line failed to parse (bad syntax).
    Syntax { line: String, msg: String },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::UnknownStream(s) => {
                write!(
                    f,
                    "replicate: unknown stream '{s}' (streams are named after their origin node)"
                )
            }
            PlaceError::UnknownNode { stream, node } => {
                write!(f, "replicate {stream}: unknown node '{node}'")
            }
            PlaceError::OriginExcluded { stream } => {
                write!(
                    f,
                    "replicate {stream}: origin node '{stream}' must be in its own replica set"
                )
            }
            PlaceError::EmptySet { stream } => {
                write!(f, "replicate {stream}: replica set is empty")
            }
            PlaceError::DuplicateStream { stream } => {
                write!(f, "replicate {stream}: stream already has a replica set")
            }
            PlaceError::Syntax { line, msg } => {
                write!(f, "replicate directive '{line}': {msg}")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// The validated stream → replica-set resolution for one cluster.
///
/// Streams are identified with their origin node (the Stabilizer model:
/// one totally ordered stream per node), so a map over `n` nodes holds
/// `n` replica sets. Each set is sorted and always contains the origin.
/// Every stream replicated on every node shares one set, so a map costs
/// what its `replicate` directives say, not `n` × `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementMap {
    /// Every node, in id order: the replica set of each stream at full
    /// replication.
    everyone: Vec<NodeId>,
    /// `replicas[stream.0]` is the sorted replica set of that stream, or
    /// `None` when that set is `everyone`.
    replicas: Vec<Option<Vec<NodeId>>>,
    /// True when every stream is replicated on every node (the default).
    full: bool,
}

impl PlacementMap {
    /// Full replication over `n` nodes: every stream on every node.
    /// This is the seed semantics and the default when a config carries
    /// no `replicate` directives.
    pub fn full(n: usize) -> Self {
        Self::resolved(vec![None; n])
    }

    /// The map of validated sets, `None` for a stream left at full
    /// replication; a set of every node is stored as `None` too.
    fn resolved(mut replicas: Vec<Option<Vec<NodeId>>>) -> Self {
        let n = replicas.len();
        for set in &mut replicas {
            if set.as_ref().is_some_and(|set| set.len() == n) {
                *set = None;
            }
        }
        PlacementMap {
            everyone: (0..n).map(|i| NodeId(i as u16)).collect(),
            full: replicas.iter().all(Option::is_none),
            replicas,
        }
    }

    /// Resolve `replicate` directives against `topo`. Streams without a
    /// directive default to full replication; directives are validated for
    /// unknown stream/node names, an origin missing from its own set, an
    /// empty set, and duplicate directives.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlaceError`] encountered, in directive order.
    pub fn from_directives(
        topo: &Topology,
        directives: &[ReplicateDirective],
    ) -> Result<Self, PlaceError> {
        let mut replicas: Vec<Option<Vec<NodeId>>> = vec![None; topo.num_nodes()];
        for d in directives {
            let stream = topo
                .node(&d.stream.name)
                .ok_or_else(|| PlaceError::UnknownStream(d.stream.name.clone()))?;
            if replicas[stream.0 as usize].is_some() {
                return Err(PlaceError::DuplicateStream {
                    stream: d.stream.name.clone(),
                });
            }
            if d.nodes.is_empty() {
                return Err(PlaceError::EmptySet {
                    stream: d.stream.name.clone(),
                });
            }
            let mut set = Vec::with_capacity(d.nodes.len());
            for member in &d.nodes {
                let id = topo
                    .node(&member.name)
                    .ok_or_else(|| PlaceError::UnknownNode {
                        stream: d.stream.name.clone(),
                        node: member.name.clone(),
                    })?;
                set.push(id);
            }
            set.sort_unstable();
            set.dedup();
            if set.binary_search(&stream).is_err() {
                return Err(PlaceError::OriginExcluded {
                    stream: d.stream.name.clone(),
                });
            }
            replicas[stream.0 as usize] = Some(set);
        }
        Ok(Self::resolved(replicas))
    }

    /// Build directly from resolved `(stream, replica-set)` pairs; unlisted
    /// streams default to full replication. Used by generators and tests
    /// that already work in `NodeId` space.
    ///
    /// # Errors
    ///
    /// Same validation as [`PlacementMap::from_directives`], with node
    /// indices rendered as `$<id>` names in the errors.
    pub fn from_sets(n: usize, sets: &[(NodeId, Vec<NodeId>)]) -> Result<Self, PlaceError> {
        let mut replicas: Vec<Option<Vec<NodeId>>> = vec![None; n];
        for (stream, set) in sets {
            let name = format!("${}", stream.0);
            if (stream.0 as usize) >= n {
                return Err(PlaceError::UnknownStream(name));
            }
            if replicas[stream.0 as usize].is_some() {
                return Err(PlaceError::DuplicateStream { stream: name });
            }
            if set.is_empty() {
                return Err(PlaceError::EmptySet { stream: name });
            }
            let mut sorted: Vec<NodeId> = Vec::with_capacity(set.len());
            for &member in set {
                if (member.0 as usize) >= n {
                    return Err(PlaceError::UnknownNode {
                        stream: name,
                        node: format!("${}", member.0),
                    });
                }
                sorted.push(member);
            }
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.binary_search(stream).is_err() {
                return Err(PlaceError::OriginExcluded { stream: name });
            }
            replicas[stream.0 as usize] = Some(sorted);
        }
        Ok(Self::resolved(replicas))
    }

    /// Number of nodes (== number of streams) this map covers.
    pub fn num_nodes(&self) -> usize {
        self.replicas.len()
    }

    /// The sorted replica set of `stream`. Always contains the origin.
    pub fn replicas(&self, stream: NodeId) -> &[NodeId] {
        self.replicas[stream.0 as usize]
            .as_deref()
            .unwrap_or(&self.everyone)
    }

    /// True if `node` stores (and acknowledges) `stream`.
    pub fn is_replica(&self, stream: NodeId, node: NodeId) -> bool {
        self.full || self.replicas(stream).binary_search(&node).is_ok()
    }

    /// The replicas of `stream` other than `me` — the data fan-out targets
    /// when `me` publishes on its own stream.
    pub fn replica_peers(&self, stream: NodeId, me: NodeId) -> Vec<NodeId> {
        self.replicas(stream)
            .iter()
            .copied()
            .filter(|&r| r != me)
            .collect()
    }

    /// True if `a` and `b` share at least one stream — i.e. a transport
    /// link between them carries data or ACK traffic. Runtimes keep
    /// heartbeat links everywhere but may skip data links between
    /// unlinked pairs.
    pub fn linked(&self, a: NodeId, b: NodeId) -> bool {
        if self.full || a == b {
            return true;
        }
        self.everyone
            .iter()
            .any(|&s| self.is_replica(s, a) && self.is_replica(s, b))
    }

    /// True when every stream is replicated on every node — the seed
    /// semantics. Fast paths key off this to stay byte-identical for
    /// `replicate`-free configs.
    pub fn is_full_replication(&self) -> bool {
        self.full
    }

    /// Deterministic hash of the canonical rendering. Two processes
    /// (or a run and its replay) executing under the same placement agree
    /// on this value; a full-replication map over `n` nodes always hashes
    /// the same regardless of how it was constructed.
    ///
    /// It has FNV-1a's shape (offset basis `0xcbf2_9ce4_8422_2325`, xor
    /// each byte in, then multiply) but multiplies by `0x1000_0000_01b3`,
    /// not the FNV prime `0x100_0000_01b3`, so it is not FNV-1a. The
    /// constant stays: changing it would move every exported label.
    pub fn placement_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(&(self.replicas.len() as u64).to_le_bytes());
        if !self.full {
            for &stream in &self.everyone {
                let set = self.replicas(stream);
                eat(&(set.len() as u64).to_le_bytes());
                for r in set {
                    eat(&r.0.to_le_bytes());
                }
            }
        }
        h
    }

    /// Pretty-print the non-default placement as `replicate` directive
    /// lines using `topo` names (empty string under full replication).
    /// Feeding the rendering back through the directive parser and
    /// [`PlacementMap::from_directives`] reproduces the map.
    pub fn render(&self, topo: &Topology) -> String {
        if self.full {
            return String::new();
        }
        let mut out = String::new();
        for (i, set) in self.replicas.iter().enumerate() {
            let Some(set) = set else {
                continue; // stream at its default; nothing to declare
            };
            out.push_str("replicate ");
            out.push_str(topo.node_name(NodeId(i as u16)));
            for r in set {
                out.push(' ');
                out.push_str(topo.node_name(*r));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo6() -> Topology {
        Topology::builder()
            .az("East", &["e1", "e2", "e3"])
            .az("West", &["w1", "w2", "w3"])
            .build()
            .unwrap()
    }

    fn parse_lines(lines: &[&str]) -> Vec<ReplicateDirective> {
        lines.iter().map(|l| parse_replicate(l).unwrap()).collect()
    }

    #[test]
    fn full_map_replicates_everywhere() {
        let p = PlacementMap::full(4);
        assert!(p.is_full_replication());
        for s in 0..4u16 {
            assert_eq!(p.replicas(NodeId(s)).len(), 4);
            for n in 0..4u16 {
                assert!(p.is_replica(NodeId(s), NodeId(n)));
                assert!(p.linked(NodeId(s), NodeId(n)));
            }
        }
    }

    #[test]
    fn directives_restrict_only_named_streams() {
        let t = topo6();
        let d = parse_lines(&["replicate e1 e1 e2 w1"]);
        let p = PlacementMap::from_directives(&t, &d).unwrap();
        assert!(!p.is_full_replication());
        let e1 = t.node("e1").unwrap();
        let w3 = t.node("w3").unwrap();
        assert_eq!(p.replicas(e1).len(), 3);
        assert!(!p.is_replica(e1, w3));
        // Unnamed streams keep full replication.
        assert_eq!(p.replicas(w3).len(), 6);
        assert!(p.is_replica(w3, e1));
    }

    #[test]
    fn replica_peers_excludes_me() {
        let t = topo6();
        let d = parse_lines(&["replicate e1 e1 e2 w1"]);
        let p = PlacementMap::from_directives(&t, &d).unwrap();
        let e1 = t.node("e1").unwrap();
        let peers = p.replica_peers(e1, e1);
        assert_eq!(peers, vec![t.node("e2").unwrap(), t.node("w1").unwrap()]);
    }

    #[test]
    fn unknown_stream_and_node_are_rejected() {
        let t = topo6();
        let d = parse_lines(&["replicate mars e1"]);
        assert_eq!(
            PlacementMap::from_directives(&t, &d),
            Err(PlaceError::UnknownStream("mars".into()))
        );
        let d = parse_lines(&["replicate e1 e1 mars"]);
        assert!(matches!(
            PlacementMap::from_directives(&t, &d),
            Err(PlaceError::UnknownNode { .. })
        ));
    }

    #[test]
    fn origin_must_be_in_its_own_set() {
        let t = topo6();
        let d = parse_lines(&["replicate e1 e2 w1"]);
        assert_eq!(
            PlacementMap::from_directives(&t, &d),
            Err(PlaceError::OriginExcluded {
                stream: "e1".into()
            })
        );
    }

    #[test]
    fn empty_and_duplicate_sets_are_rejected() {
        let t = topo6();
        let d = parse_lines(&["replicate e1"]);
        assert_eq!(
            PlacementMap::from_directives(&t, &d),
            Err(PlaceError::EmptySet {
                stream: "e1".into()
            })
        );
        let d = parse_lines(&["replicate e1 e1 e2", "replicate e1 e1 w1"]);
        assert_eq!(
            PlacementMap::from_directives(&t, &d),
            Err(PlaceError::DuplicateStream {
                stream: "e1".into()
            })
        );
    }

    #[test]
    fn explicit_full_set_equals_default_hash() {
        // A directive listing every node is semantically full replication:
        // same hash as the replicate-free default, so replays line up.
        let t = topo6();
        let d = parse_lines(&["replicate e1 e1 e2 e3 w1 w2 w3"]);
        let p = PlacementMap::from_directives(&t, &d).unwrap();
        assert!(p.is_full_replication());
        assert_eq!(p.placement_hash(), PlacementMap::full(6).placement_hash());
    }

    #[test]
    fn hash_distinguishes_placements() {
        let t = topo6();
        let a =
            PlacementMap::from_directives(&t, &parse_lines(&["replicate e1 e1 e2 w1"])).unwrap();
        let b =
            PlacementMap::from_directives(&t, &parse_lines(&["replicate e1 e1 e2 w2"])).unwrap();
        assert_ne!(a.placement_hash(), b.placement_hash());
        assert_ne!(a.placement_hash(), PlacementMap::full(6).placement_hash());
    }

    #[test]
    fn render_roundtrips() {
        let t = topo6();
        let d = parse_lines(&["replicate e1 e1 e2 w1", "replicate w2 w2 w3"]);
        let p = PlacementMap::from_directives(&t, &d).unwrap();
        let rendered = p.render(&t);
        let reparsed: Vec<ReplicateDirective> = rendered
            .lines()
            .map(|l| parse_replicate(l).unwrap())
            .collect();
        let p2 = PlacementMap::from_directives(&t, &reparsed).unwrap();
        assert_eq!(p, p2);
        assert_eq!(p.placement_hash(), p2.placement_hash());
        assert_eq!(PlacementMap::full(6).render(&t), "");
    }

    #[test]
    fn linked_requires_a_shared_stream() {
        // Disjoint 3-replica rings over 6 nodes: {0,1,2} and {3,4,5}.
        let sets: Vec<(NodeId, Vec<NodeId>)> = (0..6u16)
            .map(|i| {
                let base = if i < 3 { 0u16 } else { 3 };
                (NodeId(i), (base..base + 3).map(NodeId).collect())
            })
            .collect();
        let p = PlacementMap::from_sets(6, &sets).unwrap();
        assert!(p.linked(NodeId(0), NodeId(2)));
        assert!(p.linked(NodeId(3), NodeId(5)));
        assert!(!p.linked(NodeId(0), NodeId(3)));
    }

    #[test]
    fn from_sets_validates_like_directives() {
        assert!(matches!(
            PlacementMap::from_sets(4, &[(NodeId(1), vec![NodeId(0)])]),
            Err(PlaceError::OriginExcluded { .. })
        ));
        assert!(matches!(
            PlacementMap::from_sets(4, &[(NodeId(9), vec![NodeId(9)])]),
            Err(PlaceError::UnknownStream(_))
        ));
        assert!(matches!(
            PlacementMap::from_sets(4, &[(NodeId(1), vec![NodeId(1), NodeId(7)])]),
            Err(PlaceError::UnknownNode { .. })
        ));
    }
}
