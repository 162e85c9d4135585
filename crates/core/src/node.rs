//! The Stabilizer node: a sans-IO state machine that routes between the
//! data plane (sequencing, buffering, FIFO delivery), the control plane
//! (ACK recorder, stability-frontier engine) and the §III-E machinery
//! (failure suspicion, state transfer).
//!
//! All I/O and time are injected: drivers feed [`StabilizerNode::on_message`]
//! and [`StabilizerNode::on_timer`], and collect [`Action`]s to execute
//! (send a message, deliver an upcall, report a frontier advance). The
//! same state machine therefore runs unchanged under the deterministic
//! simulator (`sim_driver`) and the threaded TCP runtime
//! (`stabilizer-transport`) — the control-plane/data-plane separation of
//! §III-A is structural, not an artifact of a particular runtime.
//!
//! Every rule with state of its own lives behind that state, in a
//! component that never sees the frontier engine: `Outbound` (own
//! stream out), [`ReceiveState`] (mirrored streams in), `AckOutbox`
//! (stability reports out), `Membership` (suspicion) and `Transfers`
//! (catch-up sessions). What is written here is what needs the recorder
//! *and* the engine: the fold of a moved ACK cell into the frontiers
//! (`learn`, `reached` and `publish`, the recorder's only writers — see
//! [`crate::frontier`] for why that matters), and the dispatch that
//! hands each input to its component.

mod predicates;
mod recovery;

use crate::config::ClusterConfig;
use crate::data_plane::{Outbound, ReceiveState, SendBuffer};
use crate::error::CoreError;
use crate::frontier::{FrontierEngine, FrontierUpdate, WaitToken};
use crate::membership::Membership;
use crate::messages::{Ack, WireMsg};
use crate::metrics::Metrics;
use crate::outbox::{self, AckOutbox};
use crate::recorder::{AckRecorder, DirtyCell};
use crate::timers::TimerKind;
use crate::transfer::Transfers;
use bytes::Bytes;
use predicates::Installed;
use stabilizer_dsl::{AckTypeId, AckTypeRegistry, NodeId, SeqNo, DELIVERED, PERSISTED, RECEIVED};
use stabilizer_place::PlacementMap;
use std::collections::BTreeMap;
use std::sync::Arc;

pub use recovery::Snapshot;

/// Effects requested by the state machine, executed by the driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Transmit `msg` to peer `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: WireMsg,
    },
    /// Deliver a mirrored payload to the local application (upcall).
    Deliver {
        /// Stream origin.
        origin: NodeId,
        /// Sequence number within the stream.
        seq: SeqNo,
        /// The payload.
        payload: Bytes,
    },
    /// A stability frontier advanced (or regenerated after a predicate
    /// change); drivers invoke `monitor_stability_frontier` lambdas here.
    Frontier(FrontierUpdate),
    /// A `waitfor` call completed.
    WaitDone {
        /// The token returned by [`StabilizerNode::waitfor`].
        token: WaitToken,
    },
    /// A peer has gone silent past the failure timeout (§III-E).
    Suspected {
        /// The suspect.
        node: NodeId,
    },
    /// A previously suspected peer produced traffic again and was
    /// un-suspected (and, under `auto_exclude_suspects`, reinstated into
    /// the predicates it had been excluded from).
    Recovered {
        /// The returning node.
        node: NodeId,
    },
    /// Auto-exclusion could not rewrite this predicate (it would become
    /// empty); the application must change or unregister it.
    PredicateBroken {
        /// Stream of the broken predicate.
        stream: NodeId,
        /// Its key.
        key: String,
    },
    /// A stream was fast-forwarded out of band (§III-E state transfer):
    /// local delivery resumes after `seq` without the skipped prefix
    /// passing through the normal upcall path. External checkers use
    /// this to adjust their delivery-prefix accounting; the sharded
    /// layer reads `app_mark` (the donor's opaque application-state
    /// hook) to fast-forward its global sequence mapping.
    CatchUp {
        /// The fast-forwarded stream.
        stream: NodeId,
        /// Delivery resumes after this sequence.
        seq: SeqNo,
        /// The donor's application-state mark (`0` when the jump did not
        /// come from a transfer snapshot).
        app_mark: u64,
    },
}

/// The Stabilizer library instance for one WAN node.
#[derive(Debug)]
pub struct StabilizerNode {
    me: NodeId,
    cfg: ClusterConfig,
    acks: Arc<AckTypeRegistry>,
    /// The stream → replica-set placement (partial replication), shared
    /// with the config it came from.
    placement: Arc<PlacementMap>,
    recorder: AckRecorder,
    engine: FrontierEngine,
    /// Per origin: FIFO reassembly of its mirrored stream.
    recv: Vec<ReceiveState>,
    outbound: Outbound,
    outbox: AckOutbox,
    membership: Membership,
    transfers: Transfers,
    /// What is registered with the engine and how it was installed, per
    /// (stream, key). Ordered: reinstatement iterates it and emits
    /// frontier updates, whose order must be stable across processes
    /// for deterministic replay.
    installed: BTreeMap<(NodeId, String), Installed>,
    next_token: WaitToken,
    actions: Vec<Action>,
    /// What the engine reported during the current call, drained into
    /// `actions` by `emit`; kept so the ACK fold allocates nothing.
    updates: Vec<FrontierUpdate>,
    done: Vec<WaitToken>,
    /// `publish`'s `(level, old value)` of each own cell it moved, between
    /// writing them all and folding the first; empty outside that call.
    moved: Vec<(AckTypeId, SeqNo)>,
    /// Fold as a caller that does not know what a cell held before.
    #[cfg(test)]
    withhold_old: bool,
    metrics: Metrics,
}

impl StabilizerNode {
    /// Create the node `me`, registering the configuration file's
    /// predicates for this node's own stream.
    ///
    /// # Errors
    ///
    /// Fails if a configured predicate does not compile, or if the
    /// configured ACK types do not all fit in `acks` (see
    /// [`ClusterConfig::parse`]).
    pub fn new(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
    ) -> Result<Self, CoreError> {
        let n = cfg.num_nodes();
        let placement = cfg.placement().clone();
        let peers: Vec<NodeId> = cfg
            .peers(me)
            .into_iter()
            .filter(|p| placement.linked(me, *p))
            .collect();
        // Configured application ACK types exist before any predicate
        // compiles (or is analyzed) against them.
        crate::config::check_ack_type_room(&acks, cfg.ack_types())?;
        for (name, _) in cfg.ack_types() {
            acks.register(name);
        }
        let opts = cfg.options();
        let buf = SendBuffer::with_retention(opts.send_buffer_bytes, opts.retain_log_bytes);
        let mut node = StabilizerNode {
            me,
            recorder: AckRecorder::new(n, acks.len()),
            engine: FrontierEngine::new(),
            recv: (0..n).map(|_| ReceiveState::new()).collect(),
            outbound: Outbound::new(me, buf, placement.replica_peers(me, me), n),
            outbox: AckOutbox::default(),
            membership: Membership::new(n, peers),
            transfers: Transfers::new(me, &cfg),
            installed: BTreeMap::new(),
            next_token: 1,
            actions: Vec::new(),
            updates: Vec::new(),
            done: Vec::new(),
            moved: Vec::new(),
            #[cfg(test)]
            withhold_old: false,
            metrics: Metrics::default(),
            placement,
            acks,
            cfg,
        };
        let configured: Vec<(String, String)> = node
            .cfg
            .predicates()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        for (key, source) in configured {
            node.register_predicate(me, &key, &source)?;
        }
        Ok(node)
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The ACK-type registry shared with the application.
    pub fn ack_types(&self) -> &Arc<AckTypeRegistry> {
        &self.acks
    }

    /// The stream → replica-set placement this node runs under.
    pub fn placement(&self) -> &Arc<PlacementMap> {
        &self.placement
    }

    /// Read-only view of the ACK recorder (Fig. 1's table).
    pub fn recorder(&self) -> &AckRecorder {
        &self.recorder
    }

    /// Start journaling recorder writes (see
    /// [`AckRecorder::enable_journal`]); used by incremental external
    /// checkers. Idempotent.
    pub fn enable_ack_journal(&mut self) {
        self.recorder.enable_journal();
    }

    /// Drain the coordinates of every recorder cell written since the
    /// last drain. Empty when journaling was never enabled.
    pub fn take_ack_journal(&mut self) -> Vec<crate::recorder::DirtyCell> {
        self.recorder.take_journal()
    }

    /// Drain the pending actions for the driver to execute, in order.
    pub fn take_actions(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }

    /// [`StabilizerNode::take_actions`] for a driver that drains again
    /// and again: the pending actions go into `buf`, which must be empty,
    /// and `buf`'s allocation becomes the node's for what it emits next.
    pub fn swap_actions(&mut self, buf: &mut Vec<Action>) {
        debug_assert!(buf.is_empty(), "the driver's buffer comes back empty");
        std::mem::swap(&mut self.actions, buf);
    }

    /// True if any actions are pending.
    pub fn has_actions(&self) -> bool {
        !self.actions.is_empty()
    }

    /// Whether `node` is currently suspected.
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.membership.is_suspected(node)
    }

    /// Number of `waitfor` calls still blocked on a frontier.
    pub fn pending_waiters(&self) -> usize {
        self.engine.pending_waiters()
    }

    /// Traffic counters for this node.
    pub fn metrics(&self) -> Metrics {
        let mut m = self.metrics;
        m.predicate_evals = self.engine.evaluations();
        m
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Publish a payload on this node's stream: assign the next sequence
    /// number, buffer for retransmission, send to every replica, and
    /// apply the origin self-acknowledgment rule (§III-C).
    ///
    /// # Errors
    ///
    /// [`CoreError::PayloadTooLarge`] or [`CoreError::WouldBlock`] (send
    /// buffer full — retry once the frontier advances).
    pub fn publish(&mut self, payload: Bytes) -> Result<SeqNo, CoreError> {
        let max = self.cfg.options().max_payload_bytes;
        if payload.len() > max {
            let size = payload.len();
            return Err(CoreError::PayloadTooLarge { size, max });
        }
        let seq = self
            .outbound
            .publish(payload, &mut self.metrics, &mut self.actions)?;
        // Origin self-ack: every stability level holds at the origin, so
        // all of them are in the table before the first is folded. Nothing
        // is queued for the peers: the `Data` frame just sent is the report.
        let (me, mut moved) = (self.me, std::mem::take(&mut self.moved));
        self.recorder.observe_all_types(me, me, seq, &mut moved);
        for (ty, old) in moved.drain(..) {
            self.advance((me, me, ty), old);
        }
        self.moved = moved;
        Ok(seq)
    }

    /// Highest sequence number assigned to this node's own stream.
    pub fn last_published(&self) -> SeqNo {
        self.outbound.buf.last_assigned()
    }

    /// Bytes currently held in the send buffer.
    pub fn send_buffer_bytes(&self) -> usize {
        self.outbound.buf.bytes()
    }

    /// Oldest own-stream sequence still replayable for §III-E catch-up
    /// (live window plus retained log).
    pub fn first_replayable(&self) -> SeqNo {
        self.outbound.buf.first_replayable()
    }

    /// Repair the stream to `peer` after a transport (re)connect, which
    /// must restore lossless FIFO: resend everything `peer` has not
    /// acknowledged and re-announce this side's ACKs.
    pub fn repair_link(&mut self, peer: NodeId) {
        let from = self.recorder.get(self.me, peer, RECEIVED) + 1;
        self.resend_from(peer, from);
        self.announce_acks_to(peer);
    }

    /// Re-emit `Send` actions for every buffered own-stream message at or
    /// after `from`, to `peer`.
    fn resend_from(&mut self, peer: NodeId, from: SeqNo) {
        self.outbound.resend_from(peer, from, &mut self.actions);
    }

    /// Queue a full re-announcement of this node's own stability rows to
    /// `peer` (ACK batches lost while the link was down are otherwise
    /// only implicitly repaired by future traffic).
    fn announce_acks_to(&mut self, peer: NodeId) {
        let (me, placement) = (self.me, &self.placement);
        outbox::announce(&self.recorder, me, peer, placement, &mut self.actions);
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Process an incoming wire message. `now_nanos` drives failure
    /// detection bookkeeping.
    pub fn on_message(&mut self, now_nanos: u64, from: NodeId, msg: WireMsg) {
        self.on_messages(now_nanos, [(from, msg)]);
    }

    /// Process a batch of incoming `(sender, message)` pairs, in order,
    /// as what has already arrived when the driver looked: each message
    /// is handled exactly as [`StabilizerNode::on_message`] would, and
    /// the stability reports they queue leave in **one** eager flush at
    /// the end (reports are monotone, so the newest value per cell is
    /// all a peer needs). A batch of one is `on_message`.
    pub fn on_messages(
        &mut self,
        now_nanos: u64,
        msgs: impl IntoIterator<Item = (NodeId, WireMsg)>,
    ) {
        for (from, msg) in msgs {
            self.handle(now_nanos, from, msg);
        }
        self.flush_if_eager();
    }

    /// One incoming message's dispatch, before any flush.
    fn handle(&mut self, now_nanos: u64, from: NodeId, msg: WireMsg) {
        self.heard(from, now_nanos);
        let me = self.me;
        match msg {
            WireMsg::Data {
                origin,
                seq,
                payload,
            } => {
                // A frame from its origin is that origin's report for
                // every level (§III-C), whether or not it can be
                // delivered yet. A relayed copy says nothing about where
                // the relay got it.
                if from == origin {
                    for ty in (0..self.recorder.num_types() as u16).map(AckTypeId) {
                        self.learn(origin, origin, ty, seq);
                    }
                }
                self.on_data(origin, seq, payload);
            }
            WireMsg::AckBatch(acks) => self.on_acks(from, &acks),
            WireMsg::Heartbeat => {}
            WireMsg::TransferRequest { stream, have }
                if self.transfers.admits(me, stream, from) =>
            {
                let (recorder, buf) = (&self.recorder, &self.outbound.buf);
                let (metrics, out) = (&mut self.metrics, &mut self.actions);
                self.transfers
                    .serve(recorder, buf, from, have, metrics, out);
            }
            WireMsg::TransferAck { stream, through } if self.transfers.admits(me, stream, from) => {
                let (recorder, buf) = (&self.recorder, &self.outbound.buf);
                let (metrics, out) = (&mut self.metrics, &mut self.actions);
                self.transfers
                    .acked(recorder, buf, from, through, metrics, out);
            }
            WireMsg::TransferSnapshot {
                stream,
                base,
                high,
                acks,
                app_mark,
            } if self.transfers.admits(from, stream, me) => {
                self.on_transfer_snapshot(now_nanos, stream, (base, high), &acks, app_mark);
            }
            WireMsg::TransferChunk {
                stream,
                seq,
                payload,
                ..
            } if self.transfers.admits(from, stream, me) => {
                self.on_transfer_chunk(now_nanos, stream, seq, payload);
            }
            // A transfer frame the admission rule refuses.
            WireMsg::TransferRequest { .. }
            | WireMsg::TransferAck { .. }
            | WireMsg::TransferSnapshot { .. }
            | WireMsg::TransferChunk { .. } => {}
        }
    }

    /// A periodic timer fired: run the handler [`TimerKind`] names.
    /// Drivers arm each kind at [`TimerKind::period`] and call this on
    /// expiry; `now_nanos` is ignored by the kinds that do not read the
    /// clock, and a kind whose option is `0` is off.
    pub fn on_timer(&mut self, kind: TimerKind, now_nanos: u64) {
        let opts = self.cfg.options();
        if kind.period(opts).is_none() {
            return;
        }
        let (peers, out) = (self.membership.peers(), &mut self.actions);
        match kind {
            TimerKind::AckFlush => {
                self.outbox
                    .flush(peers, &self.placement, &mut self.metrics, out);
            }
            TimerKind::Heartbeat => {
                for &to in peers {
                    self.metrics.control_msgs_sent += 1;
                    let msg = WireMsg::Heartbeat;
                    out.push(Action::Send { to, msg });
                }
            }
            TimerKind::Failure => self.on_failure_check(now_nanos),
            TimerKind::Retransmit => self.outbound.retransmit(
                now_nanos,
                opts.retransmit_millis * 1_000_000,
                &self.recorder,
                &self.membership,
                &mut self.metrics,
                out,
            ),
            TimerKind::Transfer => {
                let (recv, recorder) = (&self.recv, &self.recorder);
                self.transfers
                    .tick(recv, recorder, &self.membership, now_nanos, out);
            }
        }
    }

    /// A frame from `from` arrived: it is alive. If it was suspected,
    /// this is §III-E's recovery path.
    fn heard(&mut self, from: NodeId, now_nanos: u64) {
        if !self.membership.heard(from, now_nanos) {
            return;
        }
        self.actions.push(Action::Recovered { node: from });
        if self.cfg.options().auto_exclude_suspects {
            // Reinstatement mirrors the automatic exclusion. Original
            // sources always recompile (they did at registration), so
            // the expect documents an invariant rather than a
            // recoverable failure.
            self.reinstate_node(from)
                .expect("original predicate sources recompile");
        }
        // Resume any catch-up the peer's absence interrupted and pick up
        // whatever it published while suspicion stopped us retransmitting
        // to each other. A donor with nothing missing answers with an
        // empty session, so this is cheap when the recovery was a false
        // alarm.
        self.transfers
            .request(&self.recv, from, now_nanos, &mut self.actions);
    }

    /// Suspect the peers that went silent (§III-E): report each, drop its
    /// transfer sessions, stop waiting for it where configured to, and
    /// stop it pinning the send buffer.
    fn on_failure_check(&mut self, now_nanos: u64) {
        let timeout = self.cfg.options().failure_timeout_millis * 1_000_000;
        for node in self.membership.sweep(now_nanos, timeout) {
            self.actions.push(Action::Suspected { node });
            self.transfers.forget(node);
            if self.cfg.options().auto_exclude_suspects {
                self.exclude_node(node);
            }
            self.outbound.reclaim(&self.recorder, &self.membership);
        }
    }

    fn on_data(&mut self, origin: NodeId, seq: SeqNo, payload: Bytes) {
        if !self.mirrors(origin) {
            return;
        }
        let state = &mut self.recv[origin.0 as usize];
        let delivered = state.on_data(seq, payload);
        let duplicate = seq <= state.delivered();
        match self.deliver(origin, delivered) {
            Some(high) => self.holds(origin, Some(high)),
            // A duplicate of an already-delivered message means the
            // sender has not seen our ACK (it was lost): say it again so
            // the retransmission loop terminates.
            None if duplicate => self.holds(origin, None),
            None => {} // parked behind a gap
        }
    }

    /// Whether `origin`'s is a stream this node receives, delivers and
    /// acknowledges: a known one, not its own, that it replicates.
    fn mirrors(&self, origin: NodeId) -> bool {
        origin != self.me
            && (origin.0 as usize) < self.recv.len()
            && self.placement.is_replica(origin, self.me)
    }

    /// Hand `origin`'s messages, in sequence order, to the application;
    /// returns the last one's sequence number.
    fn deliver(
        &mut self,
        origin: NodeId,
        msgs: impl IntoIterator<Item = (SeqNo, Bytes)>,
    ) -> Option<SeqNo> {
        let mut high = None;
        for (seq, payload) in msgs {
            self.metrics.deliveries += 1;
            self.actions.push(Action::Deliver {
                origin,
                seq,
                payload,
            });
            high = Some(seq);
        }
        high
    }

    /// The built-in levels of a mirrored stream move together: with
    /// `Some(high)` this node holds, has persisted and has delivered
    /// `origin`'s prefix through `high` (persistence is the local storage
    /// layer's write, done by the driver before ACKs flush in a real
    /// system; custom levels arrive through `report_stability`). With
    /// `None` nothing moved, but the current levels are reported again.
    fn holds(&mut self, origin: NodeId, through: Option<SeqNo>) {
        for ty in [RECEIVED, PERSISTED, DELIVERED] {
            match through {
                Some(high) => {
                    self.reached(origin, ty, high);
                }
                None => match self.recorder.get(origin, self.me, ty) {
                    0 => {}
                    level => self.outbox.queue(origin, ty, level),
                },
            }
        }
    }

    fn on_acks(&mut self, from: NodeId, acks: &[Ack]) {
        for ack in acks {
            match self.learn(ack.stream, from, ack.ty, ack.seq) {
                Some(true) if ack.stream == self.me && ack.ty == RECEIVED => {
                    self.outbound.reclaim(&self.recorder, &self.membership);
                }
                Some(false) => self.metrics.acks_stale += 1,
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // The fold: recorder → engine → actions
    // ------------------------------------------------------------------

    /// Max-merge a peer's report that `node` reached `ty` of `stream` up
    /// to `seq`, and fold it into the frontiers if the cell moved
    /// (`Some(true)`). `None`: refused — a stream, node or level this
    /// node does not know (monotonic data, safe to drop), or a cell
    /// outside the stream's replica set: a non-replica has no standing
    /// to ack a stream and a non-replica of it no use for the cell, so
    /// the recorder only ever holds replica columns.
    fn learn(&mut self, stream: NodeId, node: NodeId, ty: AckTypeId, seq: SeqNo) -> Option<bool> {
        if stream.max(node).0 as usize >= self.recv.len()
            || ty.0 as usize >= self.recorder.num_types()
            || !self.placement.is_replica(stream, node)
            || !self.placement.is_replica(stream, self.me)
        {
            return None;
        }
        let old = self.recorder.advance(stream, node, ty, seq);
        if let Some(old) = old {
            self.metrics.acks_received += 1;
            self.advance((stream, node, ty), old);
        }
        Some(old.is_some())
    }

    /// This node reached stability level `ty` of `stream` up to `seq`:
    /// max-merge its own cell and, if that moved it, fold it into the
    /// frontiers and queue the report for the peers.
    fn reached(&mut self, stream: NodeId, ty: AckTypeId, seq: SeqNo) -> bool {
        let old = self.recorder.advance(stream, self.me, ty, seq);
        if let Some(old) = old {
            self.advance((stream, self.me, ty), old);
            self.outbox.queue(stream, ty, seq);
        }
        old.is_some()
    }

    /// The recorder cell `cell` moved from `old` to what it holds now:
    /// evaluate the predicates whose frontier it crossed.
    fn advance(&mut self, cell: DirtyCell, old: SeqNo) {
        #[cfg(test)]
        let old = if self.withhold_old { 0 } else { old };
        let (rec, out, done) = (&self.recorder, &mut self.updates, &mut self.done);
        self.engine.on_ack_advance_from(cell, old, rec, out, done);
        self.emit();
    }

    /// Turn what the engine just reported into actions: the updates,
    /// then the completed waits.
    fn emit(&mut self) {
        for u in self.updates.drain(..) {
            self.metrics.frontier_updates += 1;
            self.actions.push(Action::Frontier(u));
        }
        for token in self.done.drain(..) {
            self.actions.push(Action::WaitDone { token });
        }
    }

    /// Without coalescing (`ack_flush_micros 0`) every call that can
    /// queue a report — one input batch, one `report_stability` — flushes
    /// what it queued (`publish` queues none).
    fn flush_if_eager(&mut self) {
        if self.cfg.options().ack_flush_micros == 0 {
            let peers = self.membership.peers();
            self.outbox
                .flush(peers, &self.placement, &mut self.metrics, &mut self.actions);
        }
    }

    // ------------------------------------------------------------------
    // Control plane API (§III-D interfaces)
    // ------------------------------------------------------------------

    /// Current `(frontier, generation)` of a predicate (the K/V store's
    /// `get_stability_frontier`).
    pub fn stability_frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        self.engine.frontier(stream, key)
    }

    /// Block until `(stream, key)`'s frontier reaches `seq`; completion is
    /// reported as [`Action::WaitDone`] with the returned token (the
    /// paper's `waitfor`).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownPredicate`] for an unregistered key.
    pub fn waitfor(
        &mut self,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
    ) -> Result<WaitToken, CoreError> {
        let token = self.next_token;
        self.next_token += 1;
        self.engine
            .waitfor(stream, key, seq, token, &mut self.done)?;
        self.emit();
        Ok(token)
    }

    /// Register a new application-defined stability level (e.g.
    /// `verified`); its counters start at zero everywhere except this
    /// node's own stream, which self-acks everything already published —
    /// the one own-stream report that travels as an ACK, since the
    /// frames that would have carried it left before the level existed.
    ///
    /// # Panics
    ///
    /// Panics if `name` is new and the shared registry already numbers
    /// as many ACK types as an [`AckTypeId`] can.
    pub fn register_ack_type(&mut self, name: &str) -> AckTypeId {
        let ty = self.acks.register(name);
        self.recorder.ensure_types(self.acks.len());
        self.report_stability(self.me, ty, self.last_published());
        ty
    }

    /// Report that this node reached stability level `ty` for `stream` up
    /// to `seq` (application-supplied validation such as `verified`,
    /// §III-C "Suffixes"). The report is broadcast on the control plane.
    pub fn report_stability(&mut self, stream: NodeId, ty: AckTypeId, seq: SeqNo) {
        if (ty.0 as usize) < self.recorder.num_types() && self.reached(stream, ty, seq) {
            self.flush_if_eager();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Options;
    use crate::frontier::tests::{arb_op, source, Op, KEYS, TYPE_NAMES};
    use proptest::prelude::*;

    fn cfg() -> ClusterConfig {
        ClusterConfig::parse("az A a b\naz B c\npredicate All MIN($ALLWNODES-$MYWNODE)\n").unwrap()
    }

    fn node(me: u16) -> StabilizerNode {
        StabilizerNode::new(cfg(), NodeId(me), Arc::new(AckTypeRegistry::new())).unwrap()
    }

    fn sends(actions: &[Action]) -> Vec<(NodeId, &WireMsg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn publish_sends_one_data_frame_per_replica_and_nothing_else() {
        let mut n = node(0);
        n.register_predicate(NodeId(0), "Mine", "MIN($MYWNODE)")
            .unwrap();
        n.take_actions();
        let seq = n.publish(Bytes::from_static(b"x")).unwrap();
        assert_eq!(seq, 1);
        let actions = n.take_actions();
        let sent = sends(&actions);
        assert_eq!(
            sent.iter().map(|(to, _)| *to).collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2)],
            "one message per peer, and it is the data: {sent:?}"
        );
        assert!(sent.iter().all(|(_, m)| matches!(m, WireMsg::Data { .. })));
        // Self-ack rule: all types at the origin equal the new seq, and
        // what reads them locally moved, though no report was sent.
        for ty in 0..n.recorder().num_types() as u16 {
            assert_eq!(n.recorder().get(NodeId(0), NodeId(0), AckTypeId(ty)), 1);
        }
        assert_eq!(n.stability_frontier(NodeId(0), "Mine").unwrap().0, 1);
        assert!(actions.iter().any(|a| matches!(a, Action::Frontier(_))));
    }

    fn data_from_origin(seq: SeqNo) -> WireMsg {
        WireMsg::Data {
            origin: NodeId(0),
            seq,
            payload: Bytes::from_static(b"p"),
        }
    }

    /// Node 1's view of the origin's own cells of stream 0, per level.
    fn origin_cells(n: &StabilizerNode) -> Vec<SeqNo> {
        (0..n.recorder().num_types() as u16)
            .map(|ty| n.recorder().get(NodeId(0), NodeId(0), AckTypeId(ty)))
            .collect()
    }

    #[test]
    fn a_data_frame_from_its_origin_is_the_origins_report_for_every_level() {
        let mut n = node(1);
        n.register_ack_type("verified");
        // A mirror-side predicate that reads nothing but the origin's cell.
        n.register_predicate(NodeId(0), "AtOrigin", "MIN($1.verified)")
            .unwrap();
        n.take_actions();
        n.on_message(0, NodeId(0), data_from_origin(1));
        assert_eq!(origin_cells(&n), [1, 1, 1, 1], "built-ins and `verified`");
        assert_eq!(n.stability_frontier(NodeId(0), "AtOrigin").unwrap().0, 1);
        assert_eq!(n.metrics().acks_received, 4);
        // The mirror's own `verified` is still the application's to report.
        let verified = n.ack_types().lookup("verified").unwrap();
        assert_eq!(n.recorder().get(NodeId(0), NodeId(1), verified), 0);
    }

    #[test]
    fn a_relayed_data_frame_reports_nothing() {
        let mut n = node(1);
        n.on_message(0, NodeId(2), data_from_origin(1));
        assert_eq!(origin_cells(&n), [0, 0, 0]);
        assert_eq!(n.metrics().acks_received, 0);
        assert_eq!(
            n.metrics().deliveries,
            1,
            "the payload is still the stream's"
        );
    }

    #[test]
    fn a_frame_parked_behind_a_gap_still_reports() {
        let mut n = node(1);
        n.on_message(0, NodeId(0), data_from_origin(3));
        assert_eq!(n.metrics().deliveries, 0);
        assert_eq!(n.recorder().get(NodeId(0), NodeId(1), RECEIVED), 0);
        assert_eq!(origin_cells(&n), [3, 3, 3], "the origin holds what it sent");
    }

    #[test]
    fn a_retransmitted_frame_changes_nothing_and_is_not_a_stale_ack() {
        let mut origin = node(0);
        for _ in 0..2 {
            origin.publish(Bytes::from_static(b"p")).unwrap();
        }
        origin.take_actions();
        let mut n = node(1);
        n.on_messages(0, (1..=2).map(|seq| (NodeId(0), data_from_origin(seq))));
        n.take_actions();
        let before = n.metrics();
        origin.resend_from(NodeId(1), 1);
        for action in origin.take_actions() {
            let Action::Send { to: NodeId(1), msg } = action else {
                panic!("not a resend to node 1: {action:?}");
            };
            n.on_message(1, NodeId(0), msg);
        }
        assert_eq!(origin_cells(&n), [2, 2, 2]);
        let after = n.metrics();
        assert_eq!(after.acks_received, before.acks_received);
        assert_eq!(after.acks_stale, 0, "only `AckBatch` cells count as stale");
        assert_eq!(after.deliveries, 2);
    }

    #[test]
    fn receive_delivers_and_acks_all_builtin_levels() {
        let mut n = node(1);
        n.on_message(
            0,
            NodeId(0),
            WireMsg::Data {
                origin: NodeId(0),
                seq: 1,
                payload: Bytes::from_static(b"p"),
            },
        );
        let actions = n.take_actions();
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Deliver { origin, seq: 1, .. } if *origin == NodeId(0))));
        for ty in [RECEIVED, PERSISTED, DELIVERED] {
            assert_eq!(n.recorder().get(NodeId(0), NodeId(1), ty), 1);
        }
        // The ack batch goes to every peer, not just the origin.
        let acked_to: Vec<NodeId> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: WireMsg::AckBatch(_),
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(acked_to.len(), 2);
    }

    #[test]
    fn out_of_order_data_is_held_until_the_gap_fills() {
        let mut n = node(1);
        let data = |seq| WireMsg::Data {
            origin: NodeId(0),
            seq,
            payload: Bytes::new(),
        };
        n.on_message(0, NodeId(0), data(2));
        assert!(!n
            .take_actions()
            .iter()
            .any(|a| matches!(a, Action::Deliver { .. })));
        assert_eq!(n.recorder().get(NodeId(0), NodeId(1), RECEIVED), 0);
        n.on_message(0, NodeId(0), data(1));
        let delivered: Vec<u64> = n
            .take_actions()
            .iter()
            .filter_map(|a| match a {
                Action::Deliver { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![1, 2]);
        assert_eq!(n.recorder().get(NodeId(0), NodeId(1), RECEIVED), 2);
    }

    #[test]
    fn a_batch_of_one_is_on_message_and_a_batch_flushes_once() {
        let data = |seq| WireMsg::Data {
            origin: NodeId(0),
            seq,
            payload: Bytes::from_static(b"p"),
        };
        let (mut single, mut batch) = (node(1), node(1));
        single.on_message(7, NodeId(0), data(1));
        batch.on_messages(7, [(NodeId(0), data(1))]);
        let actions = single.take_actions();
        assert_eq!(actions, batch.take_actions());
        assert_eq!(sends(&actions).len(), 2, "one report per peer");

        // Three messages in one batch: three deliveries, still one report
        // per peer, carrying the newest value of every cell.
        batch.on_messages(8, (2..=4).map(|seq| (NodeId(0), data(seq))));
        let actions = batch.take_actions();
        let delivered = actions
            .iter()
            .filter(|a| matches!(a, Action::Deliver { .. }));
        assert_eq!(delivered.count(), 3);
        let reports = sends(&actions);
        assert_eq!(reports.len(), 2);
        for (_, msg) in reports {
            let WireMsg::AckBatch(row) = msg else {
                panic!("not a report: {msg:?}");
            };
            assert!(row.iter().all(|ack| ack.seq == 4), "{row:?}");
        }
    }

    #[test]
    fn stale_and_unknown_acks_are_ignored() {
        let mut n = node(0);
        n.publish(Bytes::from_static(b"x")).unwrap();
        n.take_actions();
        let good = Ack {
            stream: NodeId(0),
            ty: RECEIVED,
            seq: 1,
        };
        n.on_message(0, NodeId(1), WireMsg::AckBatch(vec![good]));
        assert_eq!(n.metrics().acks_received, 1);
        // Stale repeat.
        n.on_message(0, NodeId(1), WireMsg::AckBatch(vec![good]));
        assert_eq!(n.metrics().acks_stale, 1);
        // Unknown stream / type: silently dropped, no panic.
        n.on_message(
            0,
            NodeId(1),
            WireMsg::AckBatch(vec![
                Ack {
                    stream: NodeId(99),
                    ty: RECEIVED,
                    seq: 5,
                },
                Ack {
                    stream: NodeId(0),
                    ty: AckTypeId(99),
                    seq: 5,
                },
            ]),
        );
        assert_eq!(n.metrics().acks_received, 1);
    }

    #[test]
    fn reclamation_needs_every_live_peer() {
        let mut n = node(0);
        n.publish(Bytes::from(vec![0u8; 100])).unwrap();
        n.take_actions();
        assert_eq!(n.send_buffer_bytes(), 100);
        n.on_message(
            0,
            NodeId(1),
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(0),
                ty: RECEIVED,
                seq: 1,
            }]),
        );
        assert_eq!(n.send_buffer_bytes(), 100, "one peer is not enough");
        n.on_message(
            0,
            NodeId(2),
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(0),
                ty: RECEIVED,
                seq: 1,
            }]),
        );
        assert_eq!(n.send_buffer_bytes(), 0);
    }

    #[test]
    fn suspected_peer_unpins_the_buffer() {
        let opts = Options::default().failure_timeout_millis(10);
        let cfg = cfg().with_options(opts);
        let mut n = StabilizerNode::new(cfg, NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap();
        n.publish(Bytes::from(vec![0u8; 100])).unwrap();
        n.take_actions();
        // Peer 1 acks; peer 2 is dead.
        n.on_message(
            1,
            NodeId(1),
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(0),
                ty: RECEIVED,
                seq: 1,
            }]),
        );
        assert_eq!(n.send_buffer_bytes(), 100);
        n.on_timer(TimerKind::Failure, 1_000_000_000); // 1s >> 10ms timeout
        assert!(n.is_suspected(NodeId(2)));
        assert_eq!(
            n.send_buffer_bytes(),
            0,
            "dead peer must not pin the buffer"
        );
    }

    #[test]
    fn exclude_then_reinstate_roundtrips_the_predicate() {
        let mut n = node(0);
        let deps_with = n.stability_frontier(NodeId(0), "All").map(|_| {
            // dependency count before exclusion
            n.take_actions();
        });
        let _ = deps_with;
        n.exclude_node(NodeId(2));
        n.take_actions();
        // Publishing and getting acks from peer 1 alone now satisfies All.
        n.publish(Bytes::new()).unwrap();
        n.take_actions();
        n.on_message(
            0,
            NodeId(1),
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(0),
                ty: RECEIVED,
                seq: 1,
            }]),
        );
        n.take_actions();
        assert_eq!(n.stability_frontier(NodeId(0), "All").unwrap().0, 1);
        // Reinstate: the original source (including node 2) is restored
        // with a new generation, and the frontier regresses to 0.
        n.reinstate_node(NodeId(2)).unwrap();
        let (frontier, generation) = n.stability_frontier(NodeId(0), "All").unwrap();
        assert_eq!(frontier, 0);
        assert!(generation >= 2);
        n.take_actions();
        // Node 2 finally acks; the frontier catches back up.
        n.on_message(
            0,
            NodeId(2),
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(0),
                ty: RECEIVED,
                seq: 1,
            }]),
        );
        n.take_actions();
        assert_eq!(n.stability_frontier(NodeId(0), "All").unwrap().0, 1);
    }

    #[test]
    fn reinstate_is_a_noop_for_predicates_never_excluded() {
        let mut n = node(0);
        let before = n.stability_frontier(NodeId(0), "All").unwrap();
        n.reinstate_node(NodeId(1)).unwrap();
        assert_eq!(n.stability_frontier(NodeId(0), "All").unwrap(), before);
    }

    #[test]
    fn unregister_forgets_the_source() {
        let mut n = node(0);
        n.register_predicate(NodeId(0), "tmp", "MIN($2, $3)")
            .unwrap();
        n.exclude_node(NodeId(2));
        n.unregister_predicate(NodeId(0), "tmp");
        // Nothing is left for a later reinstatement to recompile (topic
        // churn in pubsub would otherwise grow this map without bound).
        assert!(!n.installed.contains_key(&(NodeId(0), "tmp".to_owned())));
        n.reinstate_node(NodeId(2)).unwrap();
        assert_eq!(n.stability_frontier(NodeId(0), "tmp"), None);
        // The key is free again: a new registration starts at generation 0.
        n.register_predicate(NodeId(0), "tmp", "MAX($2)").unwrap();
        assert_eq!(n.stability_frontier(NodeId(0), "tmp"), Some((0, 0)));
    }

    #[test]
    fn announce_acks_resends_own_rows_only() {
        let mut n = node(1);
        n.on_message(
            0,
            NodeId(0),
            WireMsg::Data {
                origin: NodeId(0),
                seq: 3,
                payload: Bytes::new(),
            },
        );
        n.take_actions(); // out-of-order: nothing to announce yet
        n.on_message(
            0,
            NodeId(0),
            WireMsg::Data {
                origin: NodeId(0),
                seq: 1,
                payload: Bytes::new(),
            },
        );
        n.on_message(
            0,
            NodeId(0),
            WireMsg::Data {
                origin: NodeId(0),
                seq: 2,
                payload: Bytes::new(),
            },
        );
        n.take_actions();
        n.announce_acks_to(NodeId(0));
        let actions = n.take_actions();
        let batch = actions
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    to,
                    msg: WireMsg::AckBatch(acks),
                } if *to == NodeId(0) => Some(acks),
                _ => None,
            })
            .expect("announcement sent");
        assert!(batch.iter().all(|a| a.seq == 3));
        assert!(batch
            .iter()
            .any(|a| a.ty == RECEIVED && a.stream == NodeId(0)));
    }

    #[test]
    fn coalescing_defers_ack_sends_until_flush() {
        let opts = Options::default().ack_flush_micros(1000);
        let cfg = cfg().with_options(opts);
        let mut n = StabilizerNode::new(cfg, NodeId(1), Arc::new(AckTypeRegistry::new())).unwrap();
        for seq in 1..=5 {
            n.on_message(
                0,
                NodeId(0),
                WireMsg::Data {
                    origin: NodeId(0),
                    seq,
                    payload: Bytes::new(),
                },
            );
        }
        let actions = n.take_actions();
        assert!(
            !actions.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: WireMsg::AckBatch(_),
                    ..
                }
            )),
            "acks must be held while coalescing"
        );
        n.on_timer(TimerKind::AckFlush, 0);
        let actions = n.take_actions();
        let batches: Vec<&Vec<Ack>> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: WireMsg::AckBatch(b),
                    ..
                } => Some(b),
                _ => None,
            })
            .collect();
        assert_eq!(batches.len(), 2, "one coalesced batch per peer");
        // Only the newest counter per cell is sent (monotonic overwrite).
        assert!(batches[0].iter().all(|a| a.seq == 5));
    }

    #[test]
    fn metrics_track_both_planes() {
        let mut n = node(0);
        n.publish(Bytes::from(vec![0u8; 64])).unwrap();
        n.take_actions();
        let m = n.metrics();
        assert_eq!(m.data_msgs_sent, 2);
        assert_eq!(m.data_bytes_sent, 128);
        // A publish costs no control message: the frame is the report.
        assert_eq!((m.control_msgs_sent, m.acks_sent), (0, 0));
        assert_eq!(m.deliveries, 0);
        // A delivery costs one report per peer, three cells each.
        let mut n = node(1);
        n.on_message(0, NodeId(0), data_from_origin(1));
        let m = n.metrics();
        assert_eq!((m.control_msgs_sent, m.acks_sent), (2, 6));
        assert_eq!((m.deliveries, m.acks_received), (1, 3));
    }

    #[test]
    fn payload_size_limit_is_enforced() {
        let opts = Options::default().max_payload_bytes(8);
        let cfg = cfg().with_options(opts);
        let mut n = StabilizerNode::new(cfg, NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap();
        assert!(matches!(
            n.publish(Bytes::from(vec![0u8; 9])),
            Err(CoreError::PayloadTooLarge { size: 9, max: 8 })
        ));
        assert!(n.publish(Bytes::from(vec![0u8; 8])).is_ok());
    }

    #[test]
    fn data_for_own_stream_or_unknown_origin_is_dropped() {
        let mut n = node(0);
        n.on_message(
            0,
            NodeId(1),
            WireMsg::Data {
                origin: NodeId(0),
                seq: 1,
                payload: Bytes::new(),
            },
        );
        n.on_message(
            0,
            NodeId(1),
            WireMsg::Data {
                origin: NodeId(88),
                seq: 1,
                payload: Bytes::new(),
            },
        );
        assert!(!n
            .take_actions()
            .iter()
            .any(|a| matches!(a, Action::Deliver { .. })));
    }

    fn transfer_cfg() -> ClusterConfig {
        cfg().with_options(
            Options::default()
                .failure_timeout_millis(10)
                .transfer_millis(20)
                .retain_log_bytes(1024),
        )
    }

    fn transfer_node(me: u16) -> StabilizerNode {
        StabilizerNode::new(transfer_cfg(), NodeId(me), Arc::new(AckTypeRegistry::new())).unwrap()
    }

    #[test]
    fn donor_replays_retained_log_after_eviction() {
        let mut n = transfer_node(0);
        for i in 0..3u8 {
            n.publish(Bytes::from(vec![i; 4])).unwrap();
        }
        n.take_actions();
        n.on_message(
            1,
            NodeId(1),
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(0),
                ty: RECEIVED,
                seq: 3,
            }]),
        );
        n.on_timer(TimerKind::Failure, 1_000_000_000);
        n.take_actions();
        assert!(n.is_suspected(NodeId(2)));
        assert_eq!(n.send_buffer_bytes(), 0, "live window reclaimed");
        // The crashed peer rejoins and asks to catch up from scratch.
        n.on_message(
            2_000_000_000,
            NodeId(2),
            WireMsg::TransferRequest {
                stream: NodeId(0),
                have: 0,
            },
        );
        let actions = n.take_actions();
        let to_rejoiner: Vec<&WireMsg> = sends(&actions)
            .into_iter()
            .filter(|(to, _)| *to == NodeId(2))
            .map(|(_, m)| m)
            .collect();
        let snap = to_rejoiner
            .iter()
            .find_map(|m| match m {
                WireMsg::TransferSnapshot { base, high, .. } => Some((*base, *high)),
                _ => None,
            })
            .expect("snapshot sent");
        assert_eq!(snap, (0, 3), "everything evicted is still retained");
        let chunks: Vec<(SeqNo, bool, Bytes)> = to_rejoiner
            .iter()
            .filter_map(|m| match m {
                WireMsg::TransferChunk {
                    seq, done, payload, ..
                } => Some((*seq, *done, payload.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            chunks.iter().map(|(s, d, _)| (*s, *d)).collect::<Vec<_>>(),
            vec![(1, false), (2, false), (3, true)]
        );
        assert_eq!(chunks[1].2, Bytes::from(vec![1u8; 4]), "payloads intact");
        assert_eq!(n.metrics().transfer_requests, 1);
        assert_eq!(n.metrics().transfer_chunks_sent, 3);
        assert_eq!(n.metrics().transfer_bytes_sent, 12);
        // Cumulative ack completes the session: what stays open is the
        // inbound one that node 2's recovery made this node request.
        assert_eq!(n.active_transfers(), 2);
        n.on_message(
            2_100_000_000,
            NodeId(2),
            WireMsg::TransferAck {
                stream: NodeId(0),
                through: 3,
            },
        );
        assert_eq!(n.active_transfers(), 1);
    }

    #[test]
    fn restored_donor_serves_fast_forward_only() {
        let mut n = transfer_node(0);
        for _ in 0..3 {
            n.publish(Bytes::from(vec![7u8; 4])).unwrap();
        }
        let snapshot = n.snapshot();
        let mut n = StabilizerNode::restore(
            transfer_cfg(),
            NodeId(0),
            Arc::new(AckTypeRegistry::new()),
            snapshot,
        )
        .unwrap();
        n.take_actions();
        n.on_message(
            0,
            NodeId(2),
            WireMsg::TransferRequest {
                stream: NodeId(0),
                have: 1,
            },
        );
        let actions = n.take_actions();
        let snap = sends(&actions)
            .into_iter()
            .find_map(|(_, m)| match m {
                WireMsg::TransferSnapshot { base, high, .. } => Some((*base, *high)),
                _ => None,
            })
            .expect("snapshot sent");
        assert_eq!(snap, (3, 3), "nothing replayable after restore");
        assert!(
            !actions.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: WireMsg::TransferChunk { .. },
                    ..
                }
            )),
            "placeholder payloads must never be replayed"
        );
    }

    #[test]
    fn snapshot_fast_forwards_and_chunks_deliver() {
        let mut n = transfer_node(2);
        n.begin_catch_up(0);
        let actions = n.take_actions();
        let requests: Vec<NodeId> = sends(&actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, WireMsg::TransferRequest { .. }))
            .map(|(to, _)| to)
            .collect();
        assert_eq!(requests, vec![NodeId(0), NodeId(1)]);
        assert_eq!(n.active_transfers(), 2);
        n.on_message(
            5,
            NodeId(0),
            WireMsg::TransferSnapshot {
                stream: NodeId(0),
                base: 3,
                high: 5,
                acks: vec![
                    Ack {
                        stream: NodeId(1),
                        ty: RECEIVED,
                        seq: 5,
                    },
                    // A stale claim about ourselves must be ignored.
                    Ack {
                        stream: NodeId(2),
                        ty: RECEIVED,
                        seq: 4,
                    },
                ],
                app_mark: 7,
            },
        );
        let actions = n.take_actions();
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::CatchUp {
                stream: NodeId(0),
                seq: 3,
                app_mark: 7
            }
        )));
        assert_eq!(n.recorder().get(NodeId(0), NodeId(2), RECEIVED), 3);
        assert_eq!(n.recorder().get(NodeId(0), NodeId(1), RECEIVED), 5);
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Send {
                    to: NodeId(0),
                    msg: WireMsg::TransferAck { through: 3, .. }
                }
            )),
            "snapshot position acknowledged"
        );
        for (seq, done) in [(4u64, false), (5u64, true)] {
            n.on_message(
                6,
                NodeId(0),
                WireMsg::TransferChunk {
                    stream: NodeId(0),
                    seq,
                    payload: Bytes::from_static(b"x"),
                    done,
                },
            );
        }
        let actions = n.take_actions();
        let delivered: Vec<SeqNo> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Deliver { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![4, 5]);
        assert_eq!(n.metrics().transfer_chunks_received, 2);
        assert_eq!(n.metrics().transfer_fast_forwards, 1);
        assert_eq!(n.active_transfers(), 1, "stream 1 still catching up");
    }

    #[test]
    fn transfer_window_rate_limits_replay() {
        let cfg = cfg().with_options(
            Options::default()
                .failure_timeout_millis(10)
                .transfer_millis(20)
                .retain_log_bytes(1024)
                .transfer_window(2),
        );
        let mut n = StabilizerNode::new(cfg, NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap();
        for _ in 0..5 {
            n.publish(Bytes::from(vec![9u8; 2])).unwrap();
        }
        n.take_actions();
        n.on_message(
            0,
            NodeId(2),
            WireMsg::TransferRequest {
                stream: NodeId(0),
                have: 0,
            },
        );
        n.take_actions();
        assert_eq!(n.metrics().transfer_chunks_sent, 2, "window caps flight");
        n.on_message(
            1,
            NodeId(2),
            WireMsg::TransferAck {
                stream: NodeId(0),
                through: 2,
            },
        );
        n.take_actions();
        assert_eq!(n.metrics().transfer_chunks_sent, 4);
        n.on_message(
            2,
            NodeId(2),
            WireMsg::TransferAck {
                stream: NodeId(0),
                through: 4,
            },
        );
        n.take_actions();
        assert_eq!(n.metrics().transfer_chunks_sent, 5);
        n.on_message(
            3,
            NodeId(2),
            WireMsg::TransferAck {
                stream: NodeId(0),
                through: 5,
            },
        );
        assert_eq!(n.active_transfers(), 0, "session completes");
    }

    #[test]
    fn stalled_transfer_re_requests_on_tick() {
        let mut n = transfer_node(2);
        n.begin_catch_up(0);
        n.take_actions();
        n.on_timer(TimerKind::Transfer, 10_000_000); // 10 ms < 20 ms period
        assert!(sends(&n.take_actions()).is_empty(), "not stalled yet");
        n.on_timer(TimerKind::Transfer, 25_000_000); // 25 ms: both sessions stalled
        let requests = sends(&n.take_actions())
            .into_iter()
            .filter(|(_, m)| matches!(m, WireMsg::TransferRequest { .. }))
            .count();
        assert_eq!(requests, 2, "stalled sessions re-request");
    }

    #[test]
    fn transfer_disabled_ignores_protocol() {
        let mut n = node(0);
        n.publish(Bytes::from_static(b"x")).unwrap();
        n.take_actions();
        n.begin_catch_up(0);
        assert!(n.take_actions().is_empty(), "begin_catch_up is a no-op");
        n.on_message(
            0,
            NodeId(1),
            WireMsg::TransferRequest {
                stream: NodeId(0),
                have: 0,
            },
        );
        assert!(
            !n.take_actions().iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: WireMsg::TransferSnapshot { .. } | WireMsg::TransferChunk { .. },
                    ..
                }
            )),
            "requests ignored while transfer is disabled"
        );
        assert_eq!(n.metrics().transfer_requests, 0);
    }

    /// Five nodes, stream `a` replicated on {a, b, c} only.
    fn partial_cfg() -> ClusterConfig {
        ClusterConfig::parse(
            "az A a b c\naz B d e\nreplicate a a b c\n\
             predicate All MIN($ALLWNODES-$MYWNODE)\n",
        )
        .unwrap()
    }

    #[test]
    fn publish_fans_out_to_replicas_only() {
        let mut n = StabilizerNode::new(partial_cfg(), NodeId(0), Arc::new(AckTypeRegistry::new()))
            .unwrap();
        n.publish(Bytes::from_static(b"x")).unwrap();
        let actions = n.take_actions();
        let data_to: Vec<NodeId> = sends(&actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, WireMsg::Data { .. }))
            .map(|(to, _)| to)
            .collect();
        assert_eq!(
            data_to,
            vec![NodeId(1), NodeId(2)],
            "non-replicas get no data"
        );
    }

    #[test]
    fn min_predicate_stabilizes_without_non_replica_acks() {
        // The acceptance pin: a MIN predicate over a 3-replica stream must
        // reach stability from the two replica acks alone — it must never
        // wait on (or even count) the non-replicas d and e.
        let mut n = StabilizerNode::new(partial_cfg(), NodeId(0), Arc::new(AckTypeRegistry::new()))
            .unwrap();
        n.publish(Bytes::from_static(b"x")).unwrap();
        n.take_actions();
        assert_eq!(n.stability_frontier(NodeId(0), "All").unwrap().0, 0);
        for peer in [1u16, 2] {
            n.on_message(
                0,
                NodeId(peer),
                WireMsg::AckBatch(vec![Ack {
                    stream: NodeId(0),
                    ty: RECEIVED,
                    seq: 1,
                }]),
            );
        }
        n.take_actions();
        assert_eq!(
            n.stability_frontier(NodeId(0), "All").unwrap().0,
            1,
            "replica acks alone must satisfy MIN over the replica set"
        );
        // A stray ack from a non-replica is discarded, not recorded.
        n.on_message(
            0,
            NodeId(3),
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(0),
                ty: RECEIVED,
                seq: 1,
            }]),
        );
        n.take_actions();
        assert_eq!(n.recorder().get(NodeId(0), NodeId(3), RECEIVED), 0);
    }

    #[test]
    fn non_replica_drops_foreign_data() {
        let mut n = StabilizerNode::new(partial_cfg(), NodeId(3), Arc::new(AckTypeRegistry::new()))
            .unwrap();
        n.on_message(
            0,
            NodeId(0),
            WireMsg::Data {
                origin: NodeId(0),
                seq: 1,
                payload: Bytes::from_static(b"p"),
            },
        );
        let actions = n.take_actions();
        assert!(
            !actions.iter().any(|a| matches!(a, Action::Deliver { .. })),
            "a non-replica must not deliver a stream it does not host"
        );
        assert_eq!(n.recorder().get(NodeId(0), NodeId(3), RECEIVED), 0);
        assert!(
            !sends(&actions)
                .iter()
                .any(|(_, m)| matches!(m, WireMsg::AckBatch(_))),
            "and it must not ack it either"
        );
    }

    #[test]
    fn explicit_full_replication_matches_default_behavior() {
        // `replicate` lines listing every node are byte-identical to a
        // replicate-free config: same placement hash, same fan-out.
        let explicit = ClusterConfig::parse(
            "az A a b\naz B c\nreplicate a a b c\nreplicate b a b c\nreplicate c a b c\n\
             predicate All MIN($ALLWNODES-$MYWNODE)\n",
        )
        .unwrap();
        assert_eq!(
            explicit.placement().placement_hash(),
            cfg().placement().placement_hash()
        );
        let mut n =
            StabilizerNode::new(explicit, NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap();
        let mut base = node(0);
        n.publish(Bytes::from_static(b"x")).unwrap();
        base.publish(Bytes::from_static(b"x")).unwrap();
        assert_eq!(
            format!("{:?}", n.take_actions()),
            format!("{:?}", base.take_actions())
        );
    }

    #[test]
    fn resend_from_skips_reclaimed_prefix() {
        let mut n = node(0);
        for _ in 0..3 {
            n.publish(Bytes::from(vec![0u8; 10])).unwrap();
        }
        n.take_actions();
        for peer in [1u16, 2] {
            n.on_message(
                0,
                NodeId(peer),
                WireMsg::AckBatch(vec![Ack {
                    stream: NodeId(0),
                    ty: RECEIVED,
                    seq: 1,
                }]),
            );
        }
        n.take_actions();
        n.resend_from(NodeId(1), 1);
        let resends: Vec<u64> = n
            .take_actions()
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: WireMsg::Data { seq, .. },
                } if *to == NodeId(1) => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(resends, vec![2, 3], "seq 1 was reclaimed everywhere");
    }

    #[test]
    fn restore_is_constant_time_in_the_history_length() {
        // The parent republished `last_assigned` empty payloads to rebuild
        // the counter: with this value it does not terminate.
        let snapshot = Snapshot {
            recorder: AckRecorder::new(3, 3),
            last_assigned: 1 << 40,
        };
        let acks = Arc::new(AckTypeRegistry::new());
        let mut n = StabilizerNode::restore(transfer_cfg(), NodeId(0), acks, snapshot).unwrap();
        assert_eq!(n.last_published(), 1 << 40);
        assert_eq!(n.first_replayable(), (1 << 40) + 1);
        assert_eq!(n.send_buffer_bytes(), 0);
        assert_eq!(n.publish(Bytes::from_static(b"x")).unwrap(), (1 << 40) + 1);
    }

    #[test]
    fn restore_refuses_a_snapshot_of_another_cluster_size() {
        // A 2-node table in a 3-node cluster would be indexed out of
        // bounds by the first ACK about node 2.
        let snapshot = Snapshot {
            recorder: AckRecorder::new(2, 3),
            last_assigned: 0,
        };
        let acks = Arc::new(AckTypeRegistry::new());
        let err = StabilizerNode::restore(cfg(), NodeId(0), acks, snapshot).unwrap_err();
        assert!(matches!(err, CoreError::Config(_)), "{err}");
    }

    /// `frontier.rs`'s op stream, as node `me` of an `n`-node cluster
    /// would meet it.
    fn apply(node: &mut StabilizerNode, op: &Op, n: u16, token: &mut u64) {
        let me = node.me();
        let payload = Bytes::from_static(b"p");
        match op.clone() {
            Op::Register(s, k, spec) => {
                let src = source(spec, n, node.ack_types().len());
                node.register_predicate(NodeId(s % n), KEYS[k], &src)
                    .unwrap();
            }
            Op::Change(s, k, spec) => {
                let src = source(spec, n, node.ack_types().len());
                let _unknown_key = node.change_predicate(NodeId(s % n), KEYS[k], &src);
            }
            Op::Unregister(s, k) => node.unregister_predicate(NodeId(s % n), KEYS[k]),
            Op::Exclude(peer) if peer % 2 == 0 => node.exclude_node(NodeId(peer % n)),
            Op::Exclude(peer) => node.reinstate_node(NodeId(peer % n)).unwrap(),
            Op::Waitfor(s, k, seq) => {
                let _unknown_key = node.waitfor(NodeId(s % n), KEYS[k], seq);
            }
            // A peer's report; the own row moves by publishing.
            Op::Ack(s, from, ty, seq) if NodeId(from % n) != me => {
                let (stream, ty) = (NodeId(s % n), AckTypeId(ty as u16));
                let msg = WireMsg::AckBatch(vec![Ack { stream, ty, seq }]);
                node.on_message(*token, NodeId(from % n), msg);
            }
            Op::Ack(..) | Op::Publish(_) => {
                node.publish(payload).unwrap();
            }
            // A restart from the persisted table: configured keys only.
            Op::Restore(_, cells) if cells.is_empty() => {
                let (cfg, acks) = (node.config().clone(), node.ack_types().clone());
                let withhold_old = node.withhold_old;
                *node = StabilizerNode::restore(cfg, me, acks, node.snapshot()).unwrap();
                node.withhold_old = withhold_old;
            }
            // A frame from its origin: every level of the origin's row,
            // one cell at a time, then this node's own three.
            Op::Restore(seq, _) => {
                let origin = NodeId(1 + seq as u16 % (n - 1));
                let seq = node.recorder().get(origin, me, RECEIVED) + 1;
                let msg = WireMsg::Data {
                    origin,
                    seq,
                    payload,
                };
                node.on_message(*token, origin, msg);
            }
            Op::AddType => {
                let types = node.ack_types().len();
                if types < TYPE_NAMES.len() {
                    node.register_ack_type(TYPE_NAMES[types]);
                }
            }
        }
        *token += 1;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn knowing_what_a_cell_held_changes_no_action(
            n in 4u16..=8,
            ops in proptest::collection::vec(arb_op(), 1..120),
        ) {
            let names: Vec<String> = (0..n).map(|i| format!(" n{i}")).collect();
            let cfg = format!("az A{}\npredicate All MIN($ALLWNODES)\n", names.concat());
            let cfg = ClusterConfig::parse(&cfg).unwrap();
            let mk = || {
                StabilizerNode::new(cfg.clone(), NodeId(0), Arc::new(AckTypeRegistry::new())).unwrap()
            };
            let (mut told, mut untold) = (mk(), mk());
            untold.withhold_old = true;
            let (mut t, mut u) = (0, 0);
            for op in &ops {
                apply(&mut told, op, n, &mut t);
                apply(&mut untold, op, n, &mut u);
                prop_assert_eq!(told.take_actions(), untold.take_actions(), "{:?}", op);
            }
            let (told, untold) = (told.metrics(), untold.metrics());
            prop_assert!(told.predicate_evals <= untold.predicate_evals);
            prop_assert_eq!(told.frontier_updates, untold.frontier_updates);
        }
    }
}
