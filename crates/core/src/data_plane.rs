//! Data-plane state: the origin's send buffer and the per-stream receive
//! reassembly state.
//!
//! The send side assigns sequence numbers and transmits aggressively "as
//! soon as \[data\] has been assigned a sequence number" (§III-B), keeping
//! a copy buffered until every peer has acknowledged receipt, at which
//! point "the buffer space is reclaimed". When the buffer is full,
//! `publish` reports backpressure instead of blocking the caller.
//!
//! The receive side delivers each origin's stream in FIFO order. The
//! simulator's links and the TCP transport are already FIFO, but the
//! reorder buffer makes the core robust to any reliable, possibly
//! reordering transport (and to replays after reconnection).

use crate::error::CoreError;
use crate::membership::Membership;
use crate::messages::WireMsg;
use crate::metrics::Metrics;
use crate::node::Action;
use crate::recorder::AckRecorder;
use crate::watchdog::Watchdog;
use bytes::Bytes;
use stabilizer_dsl::{NodeId, SeqNo, RECEIVED};
use std::collections::BTreeMap;

/// The origin-side buffer for this node's own stream.
///
/// Besides the live (unacknowledged) window, the buffer keeps a
/// bounded **retained log** of already-reclaimed payloads so a node that
/// was evicted from the acknowledgment set can be caught up later by
/// replay (§III-E). Retention is byte-capped and evicts oldest-first; it
/// never exerts backpressure on publishes.
#[derive(Debug)]
pub struct SendBuffer {
    last_assigned: SeqNo,
    buffered: BTreeMap<SeqNo, Bytes>,
    buffered_bytes: usize,
    capacity: usize,
    reclaimed_up_to: SeqNo,
    retained: BTreeMap<SeqNo, Bytes>,
    retained_bytes: usize,
    retain_capacity: usize,
}

impl SendBuffer {
    /// An empty buffer holding at most `capacity` payload bytes, with no
    /// retained catch-up log.
    pub fn new(capacity: usize) -> Self {
        Self::with_retention(capacity, 0)
    }

    /// An empty buffer that additionally retains up to `retain_capacity`
    /// bytes of reclaimed payloads for §III-E catch-up replay.
    pub fn with_retention(capacity: usize, retain_capacity: usize) -> Self {
        SendBuffer {
            last_assigned: 0,
            buffered: BTreeMap::new(),
            buffered_bytes: 0,
            capacity,
            reclaimed_up_to: 0,
            retained: BTreeMap::new(),
            retained_bytes: 0,
            retain_capacity,
        }
    }

    /// The buffer of an origin that restarts having assigned
    /// `last_assigned` sequence numbers: the next publish gets
    /// `last_assigned + 1`, the live window and the retained log are
    /// empty, and nothing at or below `last_assigned` is replayable (the
    /// payloads did not survive; requesters fast-forward over them).
    pub fn resuming_at(capacity: usize, retain_capacity: usize, last_assigned: SeqNo) -> Self {
        SendBuffer {
            last_assigned,
            reclaimed_up_to: last_assigned,
            ..Self::with_retention(capacity, retain_capacity)
        }
    }

    /// Assign the next sequence number to `payload` and buffer it.
    ///
    /// # Errors
    ///
    /// [`CoreError::WouldBlock`] if the buffer is full; the caller should
    /// retry after the global-receipt point advances.
    pub fn publish(&mut self, payload: Bytes) -> Result<SeqNo, CoreError> {
        if self.buffered_bytes + payload.len() > self.capacity && !self.buffered.is_empty() {
            return Err(CoreError::WouldBlock {
                buffered: self.buffered_bytes,
                capacity: self.capacity,
            });
        }
        self.last_assigned += 1;
        self.buffered_bytes += payload.len();
        self.buffered.insert(self.last_assigned, payload);
        Ok(self.last_assigned)
    }

    /// Drop buffered payloads up to and including `min_acked` (every peer
    /// has them). Returns the number of payloads freed. With retention
    /// configured, reclaimed payloads move to the retained log instead of
    /// being dropped outright.
    pub fn reclaim(&mut self, min_acked: SeqNo) -> usize {
        let mut freed = 0;
        while let Some(first) = self.buffered.first_entry() {
            if *first.key() > min_acked {
                break;
            }
            let (seq, payload) = first.remove_entry();
            self.buffered_bytes -= payload.len();
            freed += 1;
            if self.retain_capacity > 0 {
                self.retained_bytes += payload.len();
                self.retained.insert(seq, payload);
            }
        }
        while self.retained_bytes > self.retain_capacity {
            match self.retained.pop_first() {
                Some((_, p)) => self.retained_bytes -= p.len(),
                None => break,
            }
        }
        if min_acked > self.reclaimed_up_to {
            self.reclaimed_up_to = min_acked;
        }
        freed
    }

    /// The payload for `seq`, if still buffered (used by transports to
    /// resend after a reconnect).
    pub fn get(&self, seq: SeqNo) -> Option<&Bytes> {
        self.buffered.get(&seq)
    }

    /// The payload for `seq` for catch-up replay: checks the retained
    /// log first, then the live window.
    pub fn replay_get(&self, seq: SeqNo) -> Option<&Bytes> {
        self.retained.get(&seq).or_else(|| self.buffered.get(&seq))
    }

    /// The lowest sequence number this buffer can still replay. The
    /// retained log (if any) is a contiguous suffix of the reclaimed
    /// prefix and the live window sits directly above it, so everything
    /// in `[first_replayable(), last_assigned()]` is available.
    pub fn first_replayable(&self) -> SeqNo {
        match self.retained.first_key_value() {
            Some((&seq, _)) => seq,
            None => self.reclaimed_up_to + 1,
        }
    }

    /// Bytes currently held in the retained catch-up log.
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes
    }

    /// Payload count in the retained catch-up log.
    pub fn retained_len(&self) -> usize {
        self.retained.len()
    }

    /// Iterate over `(seq, payload)` still buffered, from `from` upward.
    pub fn iter_from(&self, from: SeqNo) -> impl Iterator<Item = (SeqNo, &Bytes)> {
        self.buffered.range(from..).map(|(s, p)| (*s, p))
    }

    /// Highest assigned sequence number (0 before the first publish).
    pub fn last_assigned(&self) -> SeqNo {
        self.last_assigned
    }

    /// Sequence numbers at or below this are reclaimed everywhere.
    pub fn reclaimed_up_to(&self) -> SeqNo {
        self.reclaimed_up_to
    }

    /// Number of buffered payloads.
    pub fn len(&self) -> usize {
        self.buffered.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buffered.is_empty()
    }

    /// Buffered payload bytes.
    pub fn bytes(&self) -> usize {
        self.buffered_bytes
    }
}

/// `Send` `origin`'s message `seq` to `to` — every way the data plane
/// puts a payload on the wire (fan-out, reconnect resend, go-back-N).
fn data(origin: NodeId, to: NodeId, seq: SeqNo, payload: &Bytes) -> Action {
    Action::Send {
        to,
        msg: WireMsg::Data {
            origin,
            seq,
            payload: payload.clone(),
        },
    }
}

/// The origin side of this node's own stream: the send buffer, the
/// replicas it fans out to, and one retransmission watchdog per replica.
#[derive(Debug)]
pub(crate) struct Outbound {
    me: NodeId,
    /// Live window plus retained log of the own stream.
    pub(crate) buf: SendBuffer,
    /// Replicas of the own stream other than `me`, ascending.
    peers: Vec<NodeId>,
    /// Per node: its `received` ACK of the own stream, for go-back-N.
    acked: Vec<Watchdog>,
}

impl Outbound {
    /// Nothing published; every watchdog armed at position 0, time 0.
    pub(crate) fn new(me: NodeId, buf: SendBuffer, peers: Vec<NodeId>, num_nodes: usize) -> Self {
        Outbound {
            me,
            buf,
            peers,
            acked: vec![Watchdog::at(0, 0); num_nodes],
        }
    }

    /// Sequence `payload` and fan it out to every replica.
    pub(crate) fn publish(
        &mut self,
        payload: Bytes,
        metrics: &mut Metrics,
        out: &mut Vec<Action>,
    ) -> Result<SeqNo, CoreError> {
        let len = payload.len() as u64;
        let seq = self.buf.publish(payload.clone())?;
        for &peer in &self.peers {
            metrics.data_msgs_sent += 1;
            metrics.data_bytes_sent += len;
            out.push(data(self.me, peer, seq, &payload));
        }
        Ok(seq)
    }

    /// Resend every still-buffered message at or after `from` to the
    /// replica `peer` (a transport reconnected and must restore lossless
    /// FIFO). Non-replicas never receive this stream.
    pub(crate) fn resend_from(&self, peer: NodeId, from: SeqNo, out: &mut Vec<Action>) {
        if self.peers.contains(&peer) {
            out.extend(
                self.buf
                    .iter_from(from)
                    .map(|(seq, payload)| data(self.me, peer, seq, payload)),
            );
        }
    }

    /// The §III-A reliability mechanism: a live replica whose `received`
    /// ACK stood still for `timeout_nanos` while data is unacknowledged
    /// gets the unacked window resent (go-back-N, at most 64 messages a
    /// round to bound burstiness). Safe with duplicating transports:
    /// receivers drop duplicates and the ACK table is monotonic.
    pub(crate) fn retransmit(
        &mut self,
        now_nanos: u64,
        timeout_nanos: u64,
        recorder: &AckRecorder,
        membership: &Membership,
        metrics: &mut Metrics,
        out: &mut Vec<Action>,
    ) {
        let last_sent = self.buf.last_assigned();
        for &peer in &self.peers {
            if membership.is_suspected(peer) {
                continue;
            }
            let acked = recorder.get(self.me, peer, RECEIVED);
            let watchdog = &mut self.acked[peer.0 as usize];
            if watchdog.stalled(acked, acked >= last_sent, now_nanos, timeout_nanos) {
                for (seq, payload) in self.buf.iter_from(acked + 1).take(64) {
                    metrics.retransmits += 1;
                    out.push(data(self.me, peer, seq, payload));
                }
            }
        }
    }

    /// Reclaim the prefix every live replica has received (only replicas
    /// ever receive this stream). Suspected replicas are left out so a
    /// dead peer cannot pin the buffer.
    pub(crate) fn reclaim(&mut self, recorder: &AckRecorder, membership: &Membership) {
        let live = self
            .peers
            .iter()
            .copied()
            .filter(|n| !membership.is_suspected(*n));
        let min = recorder.min_over(self.me, RECEIVED, live.chain([self.me]));
        self.buf.reclaim(min);
    }
}

/// What one [`ReceiveState::on_data`] call made deliverable, in FIFO
/// order: the message itself when it arrived in order with nothing
/// parked, or what it released from the reorder buffer.
#[derive(Debug, Default)]
pub struct Deliverable {
    first: Option<(SeqNo, Bytes)>,
    rest: std::vec::IntoIter<(SeqNo, Bytes)>,
}

impl Deliverable {
    /// True if nothing became deliverable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Iterator for Deliverable {
    type Item = (SeqNo, Bytes);

    fn next(&mut self) -> Option<Self::Item> {
        self.first.take().or_else(|| self.rest.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = usize::from(self.first.is_some()) + self.rest.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for Deliverable {}

/// Receive-side reassembly for one remote origin's stream.
#[derive(Debug, Default)]
pub struct ReceiveState {
    delivered: SeqNo,
    pending: BTreeMap<SeqNo, Bytes>,
}

impl ReceiveState {
    /// Fresh state: nothing delivered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accept `(seq, payload)`; returns the messages now deliverable in
    /// FIFO order (empty if `seq` leaves a gap). Duplicates and
    /// already-delivered sequences are dropped.
    pub fn on_data(&mut self, seq: SeqNo, payload: Bytes) -> Deliverable {
        if seq <= self.delivered {
            return Deliverable::default();
        }
        // In order with nothing parked (every frame of a FIFO link that
        // lost nothing): no trip through the reorder buffer, and no
        // allocation.
        if seq == self.delivered + 1 && self.pending.is_empty() {
            self.delivered = seq;
            return Deliverable {
                first: Some((seq, payload)),
                ..Deliverable::default()
            };
        }
        self.pending.insert(seq, payload);
        let mut released = Vec::new();
        while let Some(payload) = self.pending.remove(&(self.delivered + 1)) {
            self.delivered += 1;
            released.push((self.delivered, payload));
        }
        Deliverable {
            first: None,
            rest: released.into_iter(),
        }
    }

    /// Highest sequence number delivered in order — the value this node
    /// advertises as its `received` ACK.
    pub fn delivered(&self) -> SeqNo {
        self.delivered
    }

    /// Declare that everything up to `seq` was obtained out of band
    /// (storage-system state transfer after a long absence, §III-E);
    /// delivery resumes at `seq + 1`. Parked messages at or below `seq`
    /// are discarded; later ones may now become deliverable and are
    /// returned in order.
    pub fn fast_forward(&mut self, seq: SeqNo) -> Vec<(SeqNo, Bytes)> {
        if seq <= self.delivered {
            return Vec::new();
        }
        self.delivered = seq;
        self.pending.retain(|s, _| *s > seq);
        let mut out = Vec::new();
        while let Some(payload) = self.pending.remove(&(self.delivered + 1)) {
            self.delivered += 1;
            out.push((self.delivered, payload));
        }
        out
    }

    /// Number of out-of-order messages parked.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: usize) -> Bytes {
        Bytes::from(vec![0u8; n])
    }

    #[test]
    fn publish_assigns_sequential_numbers() {
        let mut sb = SendBuffer::new(1024);
        assert_eq!(sb.publish(b(10)).unwrap(), 1);
        assert_eq!(sb.publish(b(10)).unwrap(), 2);
        assert_eq!(sb.last_assigned(), 2);
        assert_eq!(sb.len(), 2);
        assert_eq!(sb.bytes(), 20);
    }

    #[test]
    fn backpressure_when_full() {
        let mut sb = SendBuffer::new(100);
        sb.publish(b(60)).unwrap();
        assert!(matches!(
            sb.publish(b(60)),
            Err(CoreError::WouldBlock { .. })
        ));
        // Reclaim frees space; publish succeeds again.
        assert_eq!(sb.reclaim(1), 1);
        assert_eq!(sb.publish(b(60)).unwrap(), 2);
    }

    #[test]
    fn oversized_first_message_is_accepted_when_buffer_empty() {
        // A single payload larger than capacity must not deadlock.
        let mut sb = SendBuffer::new(10);
        assert_eq!(sb.publish(b(50)).unwrap(), 1);
        assert!(matches!(
            sb.publish(b(1)),
            Err(CoreError::WouldBlock { .. })
        ));
    }

    #[test]
    fn reclaim_is_idempotent_and_partial() {
        let mut sb = SendBuffer::new(1024);
        for _ in 0..5 {
            sb.publish(b(10)).unwrap();
        }
        assert_eq!(sb.reclaim(3), 3);
        assert_eq!(sb.reclaim(3), 0);
        assert_eq!(sb.len(), 2);
        assert_eq!(sb.reclaimed_up_to(), 3);
        assert!(sb.get(3).is_none());
        assert!(sb.get(4).is_some());
    }

    #[test]
    fn iter_from_resumes_at_sequence() {
        let mut sb = SendBuffer::new(1024);
        for _ in 0..5 {
            sb.publish(b(1)).unwrap();
        }
        sb.reclaim(2);
        let seqs: Vec<SeqNo> = sb.iter_from(4).map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![4, 5]);
    }

    #[test]
    fn in_order_delivery() {
        let mut rs = ReceiveState::new();
        assert_eq!(rs.on_data(1, b(1)).len(), 1);
        assert_eq!(rs.on_data(2, b(1)).len(), 1);
        assert_eq!(rs.delivered(), 2);
    }

    #[test]
    fn gaps_are_held_back_and_released() {
        let mut rs = ReceiveState::new();
        assert!(rs.on_data(2, b(1)).is_empty());
        assert!(rs.on_data(3, b(1)).is_empty());
        assert_eq!(rs.pending(), 2);
        let delivered = rs.on_data(1, b(1));
        assert_eq!(delivered.map(|(s, _)| s).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(rs.delivered(), 3);
        assert_eq!(rs.pending(), 0);
    }

    #[test]
    fn retention_keeps_reclaimed_payloads_within_cap() {
        let mut sb = SendBuffer::with_retention(1024, 25);
        for _ in 0..5 {
            sb.publish(b(10)).unwrap();
        }
        sb.reclaim(4);
        // 40 bytes reclaimed but only 25 retained: seqs 1 and 2 evicted.
        assert_eq!(sb.retained_len(), 2);
        assert_eq!(sb.retained_bytes(), 20);
        assert_eq!(sb.first_replayable(), 3);
        assert!(sb.replay_get(2).is_none());
        assert!(sb.replay_get(3).is_some());
        assert!(sb.replay_get(4).is_some());
        // Seq 5 is still in the live window; replay spans both.
        assert!(sb.get(5).is_some());
        assert!(sb.replay_get(5).is_some());
    }

    #[test]
    fn no_retention_replays_only_live_window() {
        let mut sb = SendBuffer::new(1024);
        for _ in 0..3 {
            sb.publish(b(10)).unwrap();
        }
        sb.reclaim(2);
        assert_eq!(sb.retained_len(), 0);
        assert_eq!(sb.first_replayable(), 3);
        assert!(sb.replay_get(2).is_none());
        assert!(sb.replay_get(3).is_some());
    }

    #[test]
    fn resuming_at_equals_publishing_and_reclaiming_the_history() {
        // What `StabilizerNode::restore` used to do, O(n): publish `n`
        // placeholders, reclaim them, drop the retained placeholders.
        for n in [0u64, 1, 2, 7] {
            let mut old = SendBuffer::with_retention(64, 32);
            for _ in 0..n {
                old.publish(Bytes::new()).unwrap();
            }
            old.reclaim(n);
            old.retained.clear();
            old.retained_bytes = 0;
            let mut new = SendBuffer::resuming_at(64, 32, n);
            assert_eq!(format!("{new:?}"), format!("{old:?}"), "n = {n}");
            assert_eq!(new.last_assigned(), n);
            assert_eq!(new.reclaimed_up_to(), n);
            assert_eq!(new.first_replayable(), n + 1);
            assert!((0..=n + 1).all(|seq| new.replay_get(seq).is_none()));
            assert_eq!(new.publish(b(1)).unwrap(), n + 1);
        }
    }

    #[test]
    fn retention_does_not_count_against_live_capacity() {
        let mut sb = SendBuffer::with_retention(100, 1000);
        sb.publish(b(90)).unwrap();
        sb.reclaim(1);
        // 90 retained bytes must not block the next publish.
        assert_eq!(sb.publish(b(90)).unwrap(), 2);
    }

    #[test]
    fn fast_forward_skips_and_releases() {
        let mut rs = ReceiveState::new();
        rs.on_data(5, b(1)); // parked
        rs.on_data(7, b(1)); // parked
        let released = rs.fast_forward(4);
        assert_eq!(
            released.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![5]
        );
        assert_eq!(rs.delivered(), 5);
        assert_eq!(rs.pending(), 1);
        assert!(rs.fast_forward(3).is_empty()); // backwards is a no-op
        assert_eq!(rs.delivered(), 5);
    }

    #[test]
    fn duplicates_and_replays_ignored() {
        let mut rs = ReceiveState::new();
        rs.on_data(1, b(1));
        assert!(rs.on_data(1, b(1)).is_empty());
        // Replay of an already-delivered prefix after a reconnect.
        assert!(rs.on_data(1, b(1)).is_empty());
        // Duplicate of a parked message.
        assert!(rs.on_data(3, b(1)).is_empty());
        assert!(rs.on_data(3, b(1)).is_empty());
        assert_eq!(rs.pending(), 1);
    }
}
