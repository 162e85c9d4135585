//! The message ACK recorder (Fig. 1): a dense table of monotonic
//! counters, one per `(stream, node, ack-type)` cell, driven by the
//! control-plane stream of stability reports.
//!
//! Monotonicity is the recorder's core contract: [`AckRecorder::observe`]
//! max-merges, so a stale or reordered report can never regress a
//! counter, which in turn makes every stability frontier monotonic
//! (§III-A: "a stability report for X is overwritten by the report for Y
//! ... the upcall for Y implies the stability of messages prior to Y").

use stabilizer_dsl::{AckTypeId, AckView, NodeId, SeqNo};

/// Coordinates of one ACK-table cell that was written since the journal
/// was last drained (see [`AckRecorder::enable_journal`]).
pub type DirtyCell = (NodeId, NodeId, AckTypeId);

/// Dense `(stream × node × ack-type)` table of highest acknowledged
/// sequence numbers.
#[derive(Debug, Clone)]
pub struct AckRecorder {
    nodes: usize,
    types: usize,
    table: Vec<SeqNo>,
    /// Opt-in dirty-cell journal: coordinates of every cell written since
    /// the last [`AckRecorder::take_journal`]. `None` = disabled (the
    /// default; the hot path pays one branch). External checkers (the
    /// chaos invariant checker) enable it to replace full-table rescans
    /// with incremental verification.
    journal: Option<Vec<DirtyCell>>,
}

impl AckRecorder {
    /// A recorder for `nodes` WAN nodes and `types` ACK types, all zeros.
    pub fn new(nodes: usize, types: usize) -> Self {
        AckRecorder {
            nodes,
            types,
            table: vec![0; nodes * nodes * types],
            journal: None,
        }
    }

    /// Start journaling the coordinates of every written cell. Idempotent;
    /// an already-collected journal is kept.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Drain the dirty-cell journal: every cell written (via
    /// [`AckRecorder::observe`]) since the previous drain, in write
    /// order, possibly with duplicates. Empty when journaling is off.
    pub fn take_journal(&mut self) -> Vec<DirtyCell> {
        match self.journal.as_mut() {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    /// Number of WAN nodes (and thus streams).
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Number of ACK types currently tracked.
    pub fn num_types(&self) -> usize {
        self.types
    }

    /// Grow the table to track at least `types` ACK types (registering a
    /// custom type at runtime).
    pub fn ensure_types(&mut self, types: usize) {
        if types <= self.types {
            return;
        }
        let mut new = vec![0; self.nodes * self.nodes * types];
        for stream in 0..self.nodes {
            for node in 0..self.nodes {
                for ty in 0..self.types {
                    new[(stream * self.nodes + node) * types + ty] =
                        self.table[(stream * self.nodes + node) * self.types + ty];
                }
            }
        }
        self.types = types;
        self.table = new;
    }

    #[inline]
    fn idx(&self, stream: NodeId, node: NodeId, ty: AckTypeId) -> usize {
        debug_assert!((stream.0 as usize) < self.nodes, "stream out of range");
        debug_assert!((node.0 as usize) < self.nodes, "node out of range");
        debug_assert!((ty.0 as usize) < self.types, "ack type out of range");
        (stream.0 as usize * self.nodes + node.0 as usize) * self.types + ty.0 as usize
    }

    /// Max-merge a stability report; returns `true` iff the cell
    /// advanced (only advances trigger predicate re-evaluation).
    pub fn observe(&mut self, stream: NodeId, node: NodeId, ty: AckTypeId, seq: SeqNo) -> bool {
        self.advance(stream, node, ty, seq).is_some()
    }

    /// [`AckRecorder::observe`] that says what the cell held before: the
    /// old value if the report moved it, `None` if it was stale. The
    /// frontier engine's crossing rule wants exactly that value.
    pub fn advance(
        &mut self,
        stream: NodeId,
        node: NodeId,
        ty: AckTypeId,
        seq: SeqNo,
    ) -> Option<SeqNo> {
        let idx = self.idx(stream, node, ty);
        let old = self.table[idx];
        // Mutation hook for the chaos harness: with this feature the
        // monotonic max-merge clamp is skipped, so stale or reordered
        // reports overwrite newer state. The chaos invariant checker
        // must flag this as an ACK-counter regression; a build that
        // doesn't is a broken checker. Never enable outside that test.
        let moved = if cfg!(feature = "chaos-unclamped-acks") {
            seq != old
        } else {
            seq > old
        };
        if !moved {
            return None;
        }
        self.table[idx] = seq;
        if let Some(j) = self.journal.as_mut() {
            j.push((stream, node, ty));
        }
        Some(old)
    }

    /// Current counter for one cell.
    pub fn get(&self, stream: NodeId, node: NodeId, ty: AckTypeId) -> SeqNo {
        self.table[self.idx(stream, node, ty)]
    }

    /// Set every ACK type of `(stream, node)` to at least `seq` — the
    /// origin's self-acknowledgment rule (§III-C: "all stability
    /// properties hold for the WAN node that originated a message").
    /// Appends `(type, old value)` of each cell that moved to `moved`.
    pub fn observe_all_types(
        &mut self,
        stream: NodeId,
        node: NodeId,
        seq: SeqNo,
        moved: &mut Vec<(AckTypeId, SeqNo)>,
    ) {
        for ty in (0..self.types as u16).map(AckTypeId) {
            if let Some(old) = self.advance(stream, node, ty, seq) {
                moved.push((ty, old));
            }
        }
    }

    /// A borrowed [`AckView`] over one stream, for predicate evaluation.
    pub fn stream_view(&self, stream: NodeId) -> StreamView<'_> {
        StreamView { rec: self, stream }
    }

    /// The smallest `received` counter across `nodes` for `stream` — the
    /// reclamation point for the stream's send buffer (everything at or
    /// below it is buffered nowhere else).
    pub fn min_over(
        &self,
        stream: NodeId,
        ty: AckTypeId,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> SeqNo {
        nodes
            .into_iter()
            .map(|n| self.get(stream, n, ty))
            .min()
            .unwrap_or(0)
    }
}

/// [`AckView`] of a single stream's `(node, type)` plane.
#[derive(Debug, Clone, Copy)]
pub struct StreamView<'a> {
    rec: &'a AckRecorder,
    stream: NodeId,
}

impl AckView for StreamView<'_> {
    fn ack(&self, node: NodeId, ty: AckTypeId) -> SeqNo {
        self.rec.get(self.stream, node, ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabilizer_dsl::RECEIVED;

    #[test]
    fn observe_is_monotonic() {
        let mut r = AckRecorder::new(3, 2);
        assert!(r.observe(NodeId(0), NodeId(1), RECEIVED, 5));
        assert!(!r.observe(NodeId(0), NodeId(1), RECEIVED, 3)); // stale
        assert!(!r.observe(NodeId(0), NodeId(1), RECEIVED, 5)); // duplicate
        assert_eq!(r.advance(NodeId(0), NodeId(1), RECEIVED, 9), Some(5));
        assert_eq!(r.advance(NodeId(0), NodeId(1), RECEIVED, 9), None);
        assert_eq!(r.get(NodeId(0), NodeId(1), RECEIVED), 9);
    }

    #[test]
    fn cells_are_independent() {
        let mut r = AckRecorder::new(2, 2);
        r.observe(NodeId(0), NodeId(1), AckTypeId(0), 7);
        assert_eq!(r.get(NodeId(0), NodeId(1), AckTypeId(1)), 0);
        assert_eq!(r.get(NodeId(1), NodeId(1), AckTypeId(0)), 0);
        assert_eq!(r.get(NodeId(0), NodeId(0), AckTypeId(0)), 0);
    }

    #[test]
    fn self_ack_sets_all_types() {
        let mut r = AckRecorder::new(2, 3);
        r.observe(NodeId(0), NodeId(0), AckTypeId(1), 7);
        let mut moved = Vec::new();
        r.observe_all_types(NodeId(0), NodeId(0), 12, &mut moved);
        for ty in 0..3 {
            assert_eq!(r.get(NodeId(0), NodeId(0), AckTypeId(ty)), 12);
        }
        let olds = [(AckTypeId(0), 0), (AckTypeId(1), 7), (AckTypeId(2), 0)];
        assert_eq!(moved, olds, "each moved cell with what it held");
        r.observe_all_types(NodeId(0), NodeId(0), 12, &mut moved);
        assert_eq!(moved.len(), 3, "nothing moves twice");
    }

    #[test]
    fn ensure_types_preserves_counters() {
        let mut r = AckRecorder::new(2, 1);
        r.observe(NodeId(1), NodeId(0), AckTypeId(0), 4);
        r.ensure_types(3);
        assert_eq!(r.num_types(), 3);
        assert_eq!(r.get(NodeId(1), NodeId(0), AckTypeId(0)), 4);
        assert_eq!(r.get(NodeId(1), NodeId(0), AckTypeId(2)), 0);
        r.ensure_types(2); // shrink requests are no-ops
        assert_eq!(r.num_types(), 3);
    }

    #[test]
    fn stream_view_implements_ackview() {
        let mut r = AckRecorder::new(2, 1);
        r.observe(NodeId(1), NodeId(0), RECEIVED, 8);
        let v = r.stream_view(NodeId(1));
        assert_eq!(v.ack(NodeId(0), RECEIVED), 8);
        assert_eq!(v.ack(NodeId(1), RECEIVED), 0);
    }

    #[test]
    fn journal_records_writes_and_drains() {
        let mut r = AckRecorder::new(2, 2);
        r.observe(NodeId(0), NodeId(1), RECEIVED, 1); // before enabling: unrecorded
        r.enable_journal();
        assert!(r.take_journal().is_empty());
        r.observe(NodeId(0), NodeId(1), RECEIVED, 5);
        r.observe(NodeId(0), NodeId(1), RECEIVED, 3); // stale: no write
        r.observe(NodeId(1), NodeId(0), AckTypeId(1), 2);
        let j = r.take_journal();
        assert_eq!(
            j,
            vec![
                (NodeId(0), NodeId(1), RECEIVED),
                (NodeId(1), NodeId(0), AckTypeId(1)),
            ]
        );
        assert!(r.take_journal().is_empty(), "drain resets");
    }

    #[test]
    fn min_over_computes_reclamation_point() {
        let mut r = AckRecorder::new(3, 1);
        r.observe(NodeId(0), NodeId(0), RECEIVED, 10);
        r.observe(NodeId(0), NodeId(1), RECEIVED, 7);
        r.observe(NodeId(0), NodeId(2), RECEIVED, 9);
        let all = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(r.min_over(NodeId(0), RECEIVED, all), 7);
        assert_eq!(r.min_over(NodeId(0), RECEIVED, []), 0);
    }
}
