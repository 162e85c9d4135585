//! The control plane's way out: this node's own stability reports,
//! coalesced to the newest value per cell until the next flush, and the
//! full re-announcement of recorder rows a peer may have missed. What a
//! node reaches on its *own* stream is not queued here — each `Data`
//! frame it sends is that report (see `StabilizerNode::publish`) — except
//! by the re-announcement, and for a level registered after the frames
//! left.
//!
//! A batch's allocation is, where one is at hand, a row a peer sent: once
//! `on_acks` has folded an `AckBatch`, the node hands its `Vec<Ack>` to
//! [`AckOutbox::recycle`], which empties and keeps it, and `flush` fills
//! a kept row instead of allocating. With every mirror reporting each
//! delivery to every peer, the rows a node receives are about as many as
//! the batches it sends. The bound keeps the outbox from holding what a
//! stall or a reconnect brought: at most one kept row per peer (one
//! flush's worth), and only rows whose capacity is no larger than
//! `pending`'s, so a re-announcement or a backlog's coalesced row is
//! freed as before.

use crate::messages::{Ack, WireMsg};
use crate::metrics::Metrics;
use crate::node::Action;
use crate::recorder::AckRecorder;
use stabilizer_dsl::{AckTypeId, NodeId, SeqNo};
use stabilizer_place::PlacementMap;

/// Stability reports waiting for the next flush: newest value per
/// `(stream, ack type)` cell, sorted by it — at most streams × levels
/// entries, and already the batch a full replica gets.
#[derive(Debug, Default)]
pub(crate) struct AckOutbox {
    pending: Vec<Ack>,
    /// Emptied rows received from peers, each the allocation of a batch
    /// `flush` sends next: at most one per peer, none larger than
    /// `pending`.
    spare: Vec<Vec<Ack>>,
}

impl AckOutbox {
    /// Queue "this node reached `ty` of `stream` up to `seq`"; a newer
    /// report for the same cell overwrites an older one.
    pub(crate) fn queue(&mut self, stream: NodeId, ty: AckTypeId, seq: SeqNo) {
        match self
            .pending
            .binary_search_by_key(&(stream, ty), |a| (a.stream, a.ty))
        {
            Ok(at) => self.pending[at].seq = seq.max(self.pending[at].seq),
            Err(at) => self.pending.insert(at, Ack { stream, ty, seq }),
        }
    }

    /// Keep a folded row from a peer as the allocation of a batch to
    /// come, while fewer than `peers` are kept and if it is no larger
    /// than `pending`; otherwise it is freed.
    pub(crate) fn recycle(&mut self, mut row: Vec<Ack>, peers: usize) {
        if self.spare.len() < peers && row.capacity() <= self.pending.capacity() {
            row.clear();
            self.spare.push(row);
        }
    }

    /// Send everything queued as one batch per peer. Under partial
    /// replication each peer gets only the cells of streams it
    /// replicates (a non-replica neither stores the stream nor evaluates
    /// predicates over it), and no batch at all if none is left.
    pub(crate) fn flush(
        &mut self,
        peers: &[NodeId],
        placement: &PlacementMap,
        metrics: &mut Metrics,
        out: &mut Vec<Action>,
    ) {
        if self.pending.is_empty() {
            return;
        }
        for &to in peers {
            let fresh = || Vec::with_capacity(self.pending.len());
            let mut batch = self.spare.pop().unwrap_or_else(fresh);
            if placement.is_full_replication() {
                batch.extend_from_slice(&self.pending);
            } else {
                let replicated = |a: &&Ack| placement.is_replica(a.stream, to);
                batch.extend(self.pending.iter().filter(replicated));
            }
            if batch.is_empty() {
                self.spare.push(batch); // for the next peer
                continue;
            }
            metrics.control_msgs_sent += 1;
            metrics.acks_sent += batch.len() as u64;
            let msg = WireMsg::AckBatch(batch);
            out.push(Action::Send { to, msg });
        }
        self.pending.clear();
    }
}

/// The non-zero recorder cells `cell(label)` for every `label` and every
/// ACK type, each reported as an [`Ack`] whose `stream` field is the
/// label.
pub(crate) fn cells(
    recorder: &AckRecorder,
    labels: impl Iterator<Item = NodeId>,
    cell: impl Fn(NodeId) -> (NodeId, NodeId),
) -> Vec<Ack> {
    let mut acks = Vec::new();
    for label in labels {
        let (stream, node) = cell(label);
        for ty in (0..recorder.num_types() as u16).map(AckTypeId) {
            let seq = recorder.get(stream, node, ty);
            if seq > 0 {
                let stream = label;
                acks.push(Ack { stream, ty, seq });
            }
        }
    }
    acks
}

/// Re-announce all of `me`'s own stability rows to `peer`, for the
/// streams `peer` replicates: ACKs are change-driven, so whatever was
/// lost while a link was down, or sent before `peer` restarted, is
/// otherwise only repaired by future traffic.
pub(crate) fn announce(
    recorder: &AckRecorder,
    me: NodeId,
    to: NodeId,
    placement: &PlacementMap,
    out: &mut Vec<Action>,
) {
    let streams = (0..recorder.num_nodes() as u16)
        .map(NodeId)
        .filter(|s| placement.is_replica(*s, to));
    let acks = cells(recorder, streams, |stream| (stream, me));
    if !acks.is_empty() {
        let msg = WireMsg::AckBatch(acks);
        out.push(Action::Send { to, msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabilizer_dsl::{PERSISTED, RECEIVED};

    fn batches(out: &[Action]) -> Vec<(NodeId, Vec<Ack>)> {
        out.iter()
            .map(|a| match a {
                Action::Send {
                    to,
                    msg: WireMsg::AckBatch(b),
                } => (*to, b.clone()),
                other => panic!("not an ack batch: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn flush_sends_the_newest_value_per_cell_once() {
        let mut outbox = AckOutbox::default();
        outbox.queue(NodeId(0), RECEIVED, 3);
        outbox.queue(NodeId(0), RECEIVED, 5);
        outbox.queue(NodeId(0), RECEIVED, 4);
        outbox.queue(NodeId(0), PERSISTED, 2);
        let (mut metrics, mut out) = (Metrics::default(), Vec::new());
        let peers = [NodeId(1), NodeId(2)];
        outbox.flush(&peers, &PlacementMap::full(3), &mut metrics, &mut out);
        let sent = batches(&out);
        assert_eq!(sent.len(), 2);
        for (_, batch) in &sent {
            let seqs: Vec<SeqNo> = batch.iter().map(|a| a.seq).collect();
            assert_eq!(seqs, vec![5, 2], "received 5 (not 3 or 4), persisted 2");
        }
        assert_eq!((metrics.control_msgs_sent, metrics.acks_sent), (2, 4));
        outbox.flush(&peers, &PlacementMap::full(3), &mut metrics, &mut out);
        assert_eq!(out.len(), 2, "nothing queued, nothing sent");
    }

    #[test]
    fn partial_replication_filters_per_peer_and_skips_empty_batches() {
        // Stream 0 lives on {0, 1} only; node 2 replicates nothing of it.
        let placement = PlacementMap::from_sets(3, &[(NodeId(0), vec![NodeId(0), NodeId(1)])])
            .expect("valid placement");
        let mut outbox = AckOutbox::default();
        outbox.queue(NodeId(0), RECEIVED, 1);
        let (mut metrics, mut out) = (Metrics::default(), Vec::new());
        outbox.flush(&[NodeId(1), NodeId(2)], &placement, &mut metrics, &mut out);
        let sent = batches(&out);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, NodeId(1));
        assert_eq!(metrics.control_msgs_sent, 1);
    }
}
