//! §III-E at the node: persisting and restoring the control plane, and
//! applying what a state-transfer frame carries. (The sessions and the
//! frames themselves are [`crate::transfer::Transfers`]'.) A restore
//! re-registers the programs the new node's engine holds, compiling
//! none of them again.

use super::{Action, StabilizerNode};
use crate::config::ClusterConfig;
use crate::data_plane::SendBuffer;
use crate::error::CoreError;
use crate::messages::{Ack, WireMsg};
use crate::recorder::AckRecorder;
use bytes::Bytes;
use stabilizer_dsl::{AckTypeId, AckTypeRegistry, NodeId, SeqNo, RECEIVED};
use std::sync::Arc;

/// A consistent snapshot of the control-plane state, for crash recovery
/// via the integrated storage system (§III-E: "the Derecho object store
/// can also persist the stability frontier information").
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The ACK table.
    pub recorder: AckRecorder,
    /// Highest sequence number this node assigned to its own stream.
    pub last_assigned: SeqNo,
}

impl StabilizerNode {
    /// Capture the control-plane state for persistence by the integrated
    /// storage system.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            recorder: self.recorder.clone(),
            last_assigned: self.last_published(),
        }
    }

    /// Rebuild a node from a persisted snapshot after a primary restart.
    /// Payload buffers are not restored (peers that already received the
    /// prefix have acked it; unacked suffixes must be re-published by the
    /// storage system's recovery log, as with Derecho's view change), so
    /// a restarted donor has nothing replayable and requesters
    /// fast-forward over its prefix instead. As a mirror, the node
    /// resumes every stream it mirrors at the snapshot's RECEIVED cell
    /// (§III-E state transfer: what it durably acknowledged, the
    /// integrated storage system holds), so the next message an origin
    /// sends is delivered, not parked behind a prefix no one resends.
    ///
    /// As an origin it is **fenced**: the snapshot may be older than the
    /// crash, so [`StabilizerNode::publish`] returns
    /// [`CoreError::Fenced`] until every unsuspected replica of its
    /// stream has reported its RECEIVED cell. It asks each of them at
    /// once with a `TransferRequest` for its own stream, and again on
    /// every retransmit tick until they have; once released, the stream
    /// resumes after the highest sequence reported or assigned, and the
    /// hole between is never reused.
    ///
    /// # Errors
    ///
    /// Fails if the snapshot was taken in a cluster of another size, or
    /// a configured predicate does not compile.
    pub fn restore(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
        snapshot: Snapshot,
    ) -> Result<Self, CoreError> {
        let (have, want) = (snapshot.recorder.num_nodes(), cfg.num_nodes());
        if have != want {
            return Err(CoreError::Config(format!(
                "snapshot of a {have}-node cluster restored into a {want}-node configuration"
            )));
        }
        let mut node = StabilizerNode::new(cfg, me, acks)?;
        node.recorder = snapshot.recorder;
        node.recorder.ensure_types(node.acks.len());
        let opts = node.cfg.options();
        node.outbound.buf = SendBuffer::resuming_at(
            opts.send_buffer_bytes,
            opts.retain_log_bytes,
            snapshot.last_assigned,
        );
        // Re-evaluate the configured predicates (a new node holds no
        // others) against the restored table.
        let registered = node.engine.registered();
        let configured: Vec<_> = registered
            .map(|(_, k, p)| (k.to_owned(), p.clone()))
            .collect();
        for (key, pred) in configured {
            let (rec, out, done) = (&node.recorder, &mut node.updates, &mut node.done);
            node.engine.register(me, &key, pred, rec, out, done);
        }
        node.emit();
        for stream in (0..node.recv.len() as u16).map(NodeId) {
            let high = node.recorder.get(stream, me, RECEIVED);
            node.fast_forward_stream(stream, high);
        }
        let peers = node.membership.peers().iter().copied();
        node.fence = Some(
            peers
                .filter(|&p| node.placement.is_replica(me, p))
                .collect(),
        );
        node.ask_fence();
        Ok(node)
    }

    /// Ask every replica the fence still waits on for its RECEIVED cell.
    pub(super) fn ask_fence(&mut self) {
        let (stream, have) = (self.me, self.last_published());
        for &to in self.fence.iter().flatten() {
            self.metrics.control_msgs_sent += 1;
            let msg = WireMsg::TransferRequest { stream, have };
            self.actions.push(Action::Send { to, msg });
        }
    }

    /// Lift the fence, if every replica it waits on has reported or is
    /// suspected: the stream resumes after the highest sequence reported
    /// (the recorder max-merged every report) or assigned.
    ///
    /// # Errors
    ///
    /// [`CoreError::Fenced`] while an unsuspected replica has not.
    pub(super) fn unfence(&mut self) -> Result<(), CoreError> {
        let Some(waiting) = &self.fence else {
            return Ok(());
        };
        if waiting.iter().any(|&p| !self.membership.is_suspected(p)) {
            return Err(CoreError::Fenced);
        }
        self.fence = None;
        let me = self.me;
        let replicas = self.placement.replicas(me).iter();
        let high = replicas.map(|&p| self.recorder.get(me, p, RECEIVED)).max();
        if let Some(high) = high.filter(|&high| high > self.last_published()) {
            let opts = self.cfg.options();
            let (capacity, retain) = (opts.send_buffer_bytes, opts.retain_log_bytes);
            self.outbound.buf = SendBuffer::resuming_at(capacity, retain, high);
            // An earlier incarnation published up to `high`: own every
            // level of it, as a publish does, and report it, so that a
            // replica lacking part of the hole asks for a transfer, whose
            // snapshot fast-forwards it over what no one can resend.
            for ty in (0..self.recorder.num_types() as u16).map(AckTypeId) {
                self.reached(me, ty, high);
            }
        }
        Ok(())
    }

    /// Answer a restored `origin`'s fence with this node's RECEIVED cell
    /// for its stream, zero included.
    pub(super) fn report_received(&mut self, origin: NodeId) {
        if !self.placement.is_replica(origin, self.me) {
            return;
        }
        self.metrics.control_msgs_sent += 1;
        let seq = self.recorder.get(origin, self.me, RECEIVED);
        let ty = RECEIVED;
        let msg = WireMsg::AckBatch(vec![Ack {
            stream: origin,
            ty,
            seq,
        }]);
        self.actions.push(Action::Send { to: origin, msg });
    }

    /// Number of live transfer sessions, inbound plus outbound. Tests
    /// and drivers use this to detect a finished catch-up.
    pub fn active_transfers(&self) -> usize {
        self.transfers.active()
    }

    /// Start catch-up after a restart or a fresh join: ask every peer
    /// for its stream, starting after what this node already delivered
    /// in order. Each stream's origin is its donor — it is the only node
    /// holding that stream's payloads (live window plus retained log).
    /// Returns the number of peer streams catch-up was requested for (0
    /// unless `transfer_millis > 0`), which runtimes surface as a `Join`
    /// observability event.
    pub fn begin_catch_up(&mut self, now_nanos: u64) -> usize {
        let (recv, out) = (&self.recv, &mut self.actions);
        let peers = self.membership.peers().iter();
        peers
            .filter(|&&peer| self.transfers.request(recv, peer, now_nanos, out))
            .count()
    }

    /// Declare that this node obtained `origin`'s stream up to `seq` out
    /// of band — the §III-E state-transfer path: after an absence long
    /// enough that the origin reclaimed its buffer, the returning mirror
    /// recovers the data from the integrated storage system (e.g. a WAL
    /// shipped from a peer) and resumes live delivery from `seq + 1`.
    /// Parked out-of-order messages beyond `seq` are released in order.
    pub fn fast_forward_stream(&mut self, origin: NodeId, seq: SeqNo) {
        if !self.mirrors(origin) {
            return;
        }
        let state = &mut self.recv[origin.0 as usize];
        let before = state.delivered();
        let released = state.fast_forward(seq);
        let high = released.last().map_or(state.delivered(), |(s, _)| *s);
        if seq > before {
            // Announce the jump before the released deliveries so
            // checkers see the adjusted prefix first.
            self.metrics.transfer_fast_forwards += 1;
            self.actions.push(Action::CatchUp {
                stream: origin,
                seq,
            });
        }
        self.deliver(origin, released);
        self.holds(origin, Some(high));
        self.flush_if_eager();
    }

    /// Requester side: apply the donor's snapshot — merge its recorded
    /// column for the stream, fast-forward over anything below `base`
    /// (the donor no longer holds it), and open the session for
    /// `(base, high]`. The donor is the stream's origin and `high` what
    /// it assigned, so a range starting above `high`, or a cell beyond
    /// it, claims what was never sent: the one is refused whole, the
    /// other skipped, and each counted as a rejected ACK.
    pub(super) fn on_transfer_snapshot(
        &mut self,
        now_nanos: u64,
        stream: NodeId,
        (base, high): (SeqNo, SeqNo),
        column: &[Ack],
    ) {
        if base > high {
            self.metrics.acks_rejected += 1;
            return;
        }
        for a in column {
            if a.seq > high {
                self.metrics.acks_rejected += 1;
                continue;
            }
            // `a.stream` names the observing node here (see the donor
            // side). Never merge cells about ourselves: our own counters
            // are ground truth and a stale third-party view must not
            // claim receipt of data we do not hold.
            if a.stream != self.me {
                self.learn(stream, a.stream, a.ty, a.seq);
            }
        }
        self.fast_forward_stream(stream, base);
        self.transfer_applied(now_nanos, stream, Some(high));
    }

    /// Requester side: a replayed chunk. Fed through the normal receive
    /// path (FIFO reassembly, duplicate suppression, built-in acks).
    pub(super) fn on_transfer_chunk(
        &mut self,
        now_nanos: u64,
        stream: NodeId,
        seq: SeqNo,
        payload: Bytes,
    ) {
        self.metrics.transfer_chunks_received += 1;
        self.on_data(stream, seq, payload);
        self.transfer_applied(now_nanos, stream, None);
    }

    fn transfer_applied(&mut self, now_nanos: u64, stream: NodeId, target: Option<SeqNo>) {
        let delivered = self.recv[stream.0 as usize].delivered();
        self.transfers
            .applied(stream, delivered, target, now_nanos, &mut self.actions);
    }
}
