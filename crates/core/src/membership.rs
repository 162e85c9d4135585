//! Who this node exchanges frames with, and who has gone quiet (§III-E).
//!
//! Suspicion is local and reversible: a peer silent for the failure
//! timeout is suspected by the next sweep, and the first frame from it
//! afterwards clears the suspicion again. What suspicion and recovery
//! *do* (predicate exclusion, buffer reclamation, transfer sessions) is
//! the node's business; this type only keeps the two facts.

use stabilizer_dsl::NodeId;

/// The link peers of one node, when each was last heard, and which are
/// currently suspected.
#[derive(Debug)]
pub(crate) struct Membership {
    /// Every other node sharing at least one stream with this one
    /// (everyone, under full replication). Heartbeats, failure detection
    /// and ACK routing are scoped to these.
    peers: Vec<NodeId>,
    last_heard_nanos: Vec<u64>,
    suspected: Vec<bool>,
}

impl Membership {
    /// Nobody heard yet, nobody suspected.
    pub(crate) fn new(num_nodes: usize, peers: Vec<NodeId>) -> Self {
        Membership {
            peers,
            last_heard_nanos: vec![0; num_nodes],
            suspected: vec![false; num_nodes],
        }
    }

    /// The link peers, ascending.
    pub(crate) fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Whether `node` is currently suspected.
    pub(crate) fn is_suspected(&self, node: NodeId) -> bool {
        self.suspected[node.0 as usize]
    }

    /// A frame from `from` arrived. `true` if it was suspected: it is
    /// talking again and no longer is. Ids outside the cluster are
    /// ignored.
    pub(crate) fn heard(&mut self, from: NodeId, now_nanos: u64) -> bool {
        let idx = from.0 as usize;
        if idx >= self.suspected.len() {
            return false;
        }
        self.last_heard_nanos[idx] = now_nanos;
        std::mem::take(&mut self.suspected[idx])
    }

    /// Suspect every peer silent for `timeout_nanos` or longer and
    /// return the newly suspected ones, ascending. A timeout of `0`
    /// disables failure detection.
    pub(crate) fn sweep(&mut self, now_nanos: u64, timeout_nanos: u64) -> Vec<NodeId> {
        let mut newly = Vec::new();
        for &peer in &self.peers {
            let idx = peer.0 as usize;
            let silent = now_nanos.saturating_sub(self.last_heard_nanos[idx]) >= timeout_nanos;
            if timeout_nanos > 0 && silent && !self.suspected[idx] {
                self.suspected[idx] = true;
                newly.push(peer);
            }
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn three() -> Membership {
        Membership::new(3, vec![NodeId(1), NodeId(2)])
    }

    #[test]
    fn a_silent_peer_is_reported_once() {
        let mut m = three();
        m.heard(NodeId(1), 95 * MS);
        assert!(m.sweep(99 * MS, 100 * MS).is_empty(), "one short of silent");
        assert_eq!(m.sweep(100 * MS, 100 * MS), vec![NodeId(2)]);
        assert!(m.is_suspected(NodeId(2)) && !m.is_suspected(NodeId(1)));
        assert!(m.sweep(150 * MS, 100 * MS).is_empty(), "already reported");
        assert_eq!(m.sweep(195 * MS, 100 * MS), vec![NodeId(1)]);
        assert!(m.is_suspected(NodeId(1)) && m.is_suspected(NodeId(2)));
    }

    #[test]
    fn a_frame_from_a_suspect_reports_recovery_once() {
        let mut m = three();
        assert_eq!(m.sweep(100 * MS, 100 * MS), vec![NodeId(1), NodeId(2)]);
        assert!(m.heard(NodeId(2), 120 * MS), "recovered");
        assert!(
            !m.heard(NodeId(2), 121 * MS),
            "only the first frame says so"
        );
        assert!(!m.is_suspected(NodeId(2)));
        // It is measured from that frame on.
        assert!(m.sweep(219 * MS, 100 * MS).is_empty());
        assert_eq!(m.sweep(221 * MS, 100 * MS), vec![NodeId(2)]);
        // A frame from an id outside the cluster is neither.
        assert!(!m.heard(NodeId(9), 300 * MS));
    }

    #[test]
    fn timeout_zero_never_suspects() {
        let mut m = three();
        assert!(m.sweep(u64::MAX, 0).is_empty());
        assert!(!m.is_suspected(NodeId(1)) && !m.is_suspected(NodeId(2)));
    }
}
