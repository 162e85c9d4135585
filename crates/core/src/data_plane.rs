//! Data-plane state: the origin's send buffer and the per-stream receive
//! reassembly state.
//!
//! The send side assigns sequence numbers and transmits aggressively "as
//! soon as \[data\] has been assigned a sequence number" (§III-B), keeping
//! a copy buffered until every peer has acknowledged receipt, at which
//! point "the buffer space is reclaimed". When the buffer is full,
//! `publish` reports backpressure instead of blocking the caller.
//! Sequence numbers are dense and reclamation always frees a prefix, so
//! the buffer is one ring indexed by sequence number: a publish pushes
//! at the back, and a reclaim moves a boundary and pops at the front.
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
use std::collections::{BTreeMap, VecDeque};

/// The origin-side buffer for this node's own stream: one ring of the
/// payloads `first ..= last_assigned`, indexed by `seq - first`.
///
/// Besides the live (unacknowledged) window, the ring keeps a bounded
/// **retained log** of already-reclaimed payloads ahead of it, so a node
/// that was evicted from the acknowledgment set can be caught up later
/// by replay (§III-E). Reclaiming moves the boundary between the two;
/// retention is byte-capped, evicts oldest-first off the front, and
/// never exerts backpressure on publishes. A reclaim that leaves the
/// ring a quarter full or less halves its capacity, so what a stall lent
/// it is given back.
#[derive(Debug)]
pub struct SendBuffer {
    last_assigned: SeqNo,
    /// Payloads `last_assigned + 1 - ring.len() ..= last_assigned`: the
    /// retained log, then the live window.
    ring: VecDeque<Bytes>,
    /// How many of `ring`'s leading payloads are the retained log.
    retained: usize,
    buffered_bytes: usize,
    capacity: usize,
    reclaimed_up_to: SeqNo,
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
            ring: VecDeque::new(),
            retained: 0,
            buffered_bytes: 0,
            capacity,
            reclaimed_up_to: 0,
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
        if self.buffered_bytes + payload.len() > self.capacity && !self.is_empty() {
            return Err(CoreError::WouldBlock {
                buffered: self.buffered_bytes,
                capacity: self.capacity,
            });
        }
        self.last_assigned += 1;
        self.buffered_bytes += payload.len();
        self.ring.push_back(payload);
        Ok(self.last_assigned)
    }

    /// Drop buffered payloads up to and including `min_acked` (every peer
    /// has them). Returns the number of payloads freed. With retention
    /// configured, reclaimed payloads join the retained log instead of
    /// being dropped outright. A `min_acked` beyond the last assigned
    /// number frees everything, and the payloads published up to it
    /// afterwards stay live until a later reclaim.
    pub fn reclaim(&mut self, min_acked: SeqNo) -> usize {
        let live_from = self.first() + self.retained as SeqNo;
        let past = min_acked.saturating_add(1).saturating_sub(live_from);
        let freed = past.min(self.len() as SeqNo) as usize;
        let now_retained = self.retained..self.retained + freed;
        let bytes: usize = self.ring.range(now_retained).map(Bytes::len).sum();
        self.buffered_bytes -= bytes;
        self.retained_bytes += bytes;
        self.retained += freed;
        while self.retained > 0
            && (self.retain_capacity == 0 || self.retained_bytes > self.retain_capacity)
        {
            let evicted = self.ring.pop_front().map_or(0, |p| p.len());
            self.retained_bytes -= evicted;
            self.retained -= 1;
        }
        if self.ring.len() * 4 <= self.ring.capacity() && self.ring.capacity() > 4 {
            self.ring.shrink_to(self.ring.capacity() / 2);
        }
        if min_acked > self.reclaimed_up_to {
            self.reclaimed_up_to = min_acked;
        }
        freed
    }

    /// The sequence number of the ring's first payload.
    fn first(&self) -> SeqNo {
        self.last_assigned + 1 - self.ring.len() as SeqNo
    }

    /// The payload for `seq`, if held and not among the first `skip`.
    fn slot(&self, seq: SeqNo, skip: usize) -> Option<&Bytes> {
        let i = usize::try_from(seq.checked_sub(self.first())?).ok()?;
        self.ring.get(i).filter(|_| i >= skip)
    }

    /// The payload for `seq`, if still buffered (used by transports to
    /// resend after a reconnect).
    pub fn get(&self, seq: SeqNo) -> Option<&Bytes> {
        self.slot(seq, self.retained)
    }

    /// The payload for `seq` for catch-up replay, from the retained log
    /// or the live window.
    pub fn replay_get(&self, seq: SeqNo) -> Option<&Bytes> {
        self.slot(seq, 0)
    }

    /// The lowest sequence number this buffer can still replay. The
    /// retained log (if any) is a contiguous suffix of the reclaimed
    /// prefix and the live window sits directly above it, so everything
    /// in `[first_replayable(), last_assigned()]` is available.
    pub fn first_replayable(&self) -> SeqNo {
        match self.retained {
            0 => self.reclaimed_up_to + 1,
            _ => self.first(),
        }
    }

    /// Bytes currently held in the retained catch-up log.
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes
    }

    /// Payload count in the retained catch-up log.
    pub fn retained_len(&self) -> usize {
        self.retained
    }

    /// Iterate over `(seq, payload)` still buffered, from `from` upward.
    pub fn iter_from(&self, from: SeqNo) -> impl Iterator<Item = (SeqNo, &Bytes)> {
        let first = self.first();
        let ahead = from.saturating_sub(first).min(self.ring.len() as SeqNo) as usize;
        let skip = ahead.max(self.retained);
        let seqs = first + skip as SeqNo..;
        seqs.zip(self.ring.range(skip..))
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
        self.ring.len() - self.retained
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    use proptest::prelude::*;

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
        // payloads and reclaim each, each too large for the retained log
        // to keep.
        for n in [0u64, 1, 2, 7] {
            let mut old = SendBuffer::with_retention(64, 32);
            for seq in 1..=n {
                old.publish(b(33)).unwrap();
                old.reclaim(seq);
            }
            let mut new = SendBuffer::resuming_at(64, 32, n);
            assert_eq!(view(&new), view(&old), "n = {n}");
            assert_eq!(new.reclaimed_up_to(), n);
            assert_eq!(new.first_replayable(), n + 1);
            assert!((0..=n + 1).all(|seq| new.replay_get(seq).is_none()));
            for buf in [&mut old, &mut new] {
                assert_eq!(buf.publish(b(1)).unwrap(), n + 1);
                buf.publish(b(2)).unwrap();
                buf.reclaim(n + 1);
            }
            assert_eq!(view(&new), view(&old), "n = {n}, then two publishes");
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

    /// Everything a buffer answers, asked about every sequence number up
    /// to two past the last assigned.
    #[derive(Debug, PartialEq)]
    struct View {
        counts: [usize; 4],
        seqs: [SeqNo; 3],
        get: Vec<Option<Bytes>>,
        replay_get: Vec<Option<Bytes>>,
        iter_from: Vec<Vec<(SeqNo, Bytes)>>,
    }

    fn view(buf: &SendBuffer) -> View {
        let asked = 0..=buf.last_assigned() + 2;
        View {
            counts: [
                buf.len(),
                buf.bytes(),
                buf.retained_len(),
                buf.retained_bytes(),
            ],
            seqs: [
                buf.last_assigned(),
                buf.reclaimed_up_to(),
                buf.first_replayable(),
            ],
            get: asked.clone().map(|seq| buf.get(seq).cloned()).collect(),
            replay_get: asked
                .clone()
                .map(|seq| buf.replay_get(seq).cloned())
                .collect(),
            iter_from: asked
                .map(|from| buf.iter_from(from).map(|(s, p)| (s, p.clone())).collect())
                .collect(),
        }
    }

    /// The send buffer as it was before it was a ring: the live window
    /// and the retained log in two maps. The model the ring is held to.
    #[derive(Default)]
    struct MapBuffer {
        last_assigned: SeqNo,
        buffered: BTreeMap<SeqNo, Bytes>,
        buffered_bytes: usize,
        capacity: usize,
        reclaimed_up_to: SeqNo,
        retained: BTreeMap<SeqNo, Bytes>,
        retained_bytes: usize,
        retain_capacity: usize,
    }

    impl MapBuffer {
        fn publish(&mut self, payload: Bytes) -> Result<SeqNo, CoreError> {
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

        fn reclaim(&mut self, min_acked: SeqNo) -> usize {
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
            self.reclaimed_up_to = self.reclaimed_up_to.max(min_acked);
            freed
        }

        fn view(&self) -> View {
            let asked = 0..=self.last_assigned + 2;
            let first_replayable = match self.retained.first_key_value() {
                Some((&seq, _)) => seq,
                None => self.reclaimed_up_to + 1,
            };
            let replay_get = |seq| self.retained.get(&seq).or_else(|| self.buffered.get(&seq));
            View {
                counts: [
                    self.buffered.len(),
                    self.buffered_bytes,
                    self.retained.len(),
                    self.retained_bytes,
                ],
                seqs: [self.last_assigned, self.reclaimed_up_to, first_replayable],
                get: asked
                    .clone()
                    .map(|seq| self.buffered.get(&seq).cloned())
                    .collect(),
                replay_get: asked.clone().map(|seq| replay_get(seq).cloned()).collect(),
                iter_from: asked
                    .map(|from| {
                        let held = self.buffered.range(from..);
                        held.map(|(s, p)| (*s, p.clone())).collect()
                    })
                    .collect(),
            }
        }
    }

    /// A publish of so many bytes, or a reclaim at the last assigned
    /// number plus this offset: below the reclaimed prefix, inside the
    /// live window, and beyond what was assigned.
    #[derive(Debug, Clone)]
    enum Op {
        Publish(usize),
        Reclaim(i64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0usize..24).prop_map(Op::Publish),
            2 => (-12i64..=3).prop_map(Op::Reclaim),
        ]
    }

    proptest! {
        #[test]
        fn the_ring_answers_what_the_two_maps_answered(
            capacity in 0usize..96,
            retain_capacity in prop_oneof![Just(0usize), 1usize..64],
            ops in proptest::collection::vec(arb_op(), 1..80),
        ) {
            let mut ring = SendBuffer::with_retention(capacity, retain_capacity);
            let mut maps = MapBuffer { capacity, retain_capacity, ..MapBuffer::default() };
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Publish(len) => {
                        let payload = Bytes::from(vec![i as u8; len]);
                        let (a, b) = (ring.publish(payload.clone()), maps.publish(payload));
                        prop_assert_eq!(a.map_err(|e| e.to_string()), b.map_err(|e| e.to_string()));
                    }
                    Op::Reclaim(offset) => {
                        let min_acked = maps.last_assigned.saturating_add_signed(offset);
                        prop_assert_eq!(ring.reclaim(min_acked), maps.reclaim(min_acked));
                    }
                }
                prop_assert_eq!(view(&ring), maps.view(), "after op {}", i);
            }
        }
    }
}
