//! Which nodes emit which ACK types.
//!
//! The control plane treats custom ACK types (`.verified`, ...) as
//! uninterpreted counters bumped by the application; nothing forces every
//! node to ever bump one. A predicate waiting on `.verified` from a node
//! whose application never calls `ack("verified")` stalls forever. The
//! deployment config can declare emitters per type (`acktype verified n1
//! n2`); this module models that declaration for the
//! [`unemitted-ack-type`](crate::Lint::UnemittedAckType) lint.

use stabilizer_dsl::{AckTypeId, NodeId};
use std::collections::BTreeMap;

/// Declared emitters per ACK type. Types with no declaration are assumed
/// to be emitted by every node (the built-ins `received`/`persisted`/
/// `delivered` are maintained by the Stabilizer runtime itself on all
/// nodes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AckEmissions {
    restricted: BTreeMap<AckTypeId, Vec<NodeId>>,
}

impl AckEmissions {
    /// An emissions model with no restrictions: every node emits every
    /// type.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare that only `emitters` ever bump ACK type `ty`.
    pub fn restrict(&mut self, ty: AckTypeId, emitters: &[NodeId]) {
        let mut v = emitters.to_vec();
        v.sort_unstable();
        v.dedup();
        self.restricted.insert(ty, v);
    }

    /// Whether `node` emits ACK type `ty` under the declared model.
    pub fn emits(&self, node: NodeId, ty: AckTypeId) -> bool {
        match self.restricted.get(&ty) {
            None => true,
            Some(nodes) => nodes.contains(&node),
        }
    }

    /// The declared emitter list for `ty`, or `None` if unrestricted.
    pub fn emitters(&self, ty: AckTypeId) -> Option<&[NodeId]> {
        self.restricted.get(&ty).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrestricted_types_are_emitted_everywhere() {
        let em = AckEmissions::new();
        assert!(em.emits(NodeId(3), AckTypeId(7)));
    }

    #[test]
    fn restriction_limits_emitters() {
        let mut em = AckEmissions::new();
        em.restrict(AckTypeId(3), &[NodeId(1), NodeId(2), NodeId(1)]);
        assert!(em.emits(NodeId(1), AckTypeId(3)));
        assert!(!em.emits(NodeId(0), AckTypeId(3)));
        // Other types stay unrestricted.
        assert!(em.emits(NodeId(0), AckTypeId(0)));
        assert_eq!(em.emitters(AckTypeId(3)), Some(&[NodeId(1), NodeId(2)][..]));
    }
}
