//! The Stabilizer node: a sans-IO state machine combining the data plane
//! (sequencing, buffering, FIFO delivery) and the control plane (ACK
//! recorder, stability-frontier engine, failure suspicion).
//!
//! All I/O and time are injected: drivers feed [`StabilizerNode::on_message`]
//! and the timer callbacks, and collect [`Action`]s to execute (send a
//! message, deliver an upcall, report a frontier advance). The same state
//! machine therefore runs unchanged under the deterministic simulator
//! (`sim_driver`) and the threaded TCP runtime (`stabilizer-transport`) —
//! the control-plane/data-plane separation of §III-A is structural, not
//! an artifact of a particular runtime.

use crate::config::{AnalysisMode, ClusterConfig};
use crate::data_plane::{ReceiveState, SendBuffer};
use crate::error::CoreError;
use crate::frontier::{FrontierEngine, FrontierUpdate, WaitToken};
use crate::messages::{Ack, WireMsg};
use crate::recorder::AckRecorder;
use crate::timers::TimerKind;
use bytes::Bytes;
use stabilizer_analyze::{AckEmissions, Analyzer, Report};
use stabilizer_dsl::{
    AckTypeId, AckTypeRegistry, NodeId, Predicate, SeqNo, DELIVERED, PERSISTED, RECEIVED,
};
use stabilizer_place::PlacementMap;
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// Donor-side state of one outbound catch-up session. Keyed by
/// requester: a donor only ever replays its *own* stream (it is the only
/// stream whose payloads it stores).
#[derive(Debug)]
struct OutboundTransfer {
    /// Chunks at or below this are acknowledged by the requester.
    acked: SeqNo,
    /// Next chunk to send.
    next: SeqNo,
    /// Last chunk of the session (the stream head at request time).
    high: SeqNo,
}

/// Requester-side state of one inbound catch-up session, keyed by the
/// stream (whose origin is also the donor).
#[derive(Debug)]
struct InboundTransfer {
    /// Session target (`SeqNo::MAX` until the snapshot arrives).
    high: SeqNo,
    /// Delivered position when progress was last observed.
    last_delivered: SeqNo,
    /// When progress was last observed; a stalled session re-issues its
    /// request on the transfer tick.
    last_nanos: u64,
}

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

/// The Stabilizer library instance for one WAN node.
#[derive(Debug)]
pub struct StabilizerNode {
    me: NodeId,
    cfg: ClusterConfig,
    acks: Arc<AckTypeRegistry>,
    /// Link peers: every other node sharing at least one stream with
    /// `me` (everyone, under the default full replication). Heartbeats,
    /// failure detection, and ACK routing are scoped to these.
    peers: Vec<NodeId>,
    /// Replicas of this node's own stream other than `me` — the
    /// data-plane fan-out (publish, retransmit) targets.
    data_peers: Vec<NodeId>,
    /// The stream → replica-set placement (partial replication). Cloned
    /// from the config at construction.
    placement: Arc<PlacementMap>,
    recorder: AckRecorder,
    engine: FrontierEngine,
    send_buf: SendBuffer,
    recv: Vec<ReceiveState>,
    /// Coalesced outgoing stability reports: newest value per cell.
    pending_acks: BTreeMap<(NodeId, AckTypeId), SeqNo>,
    last_heard_nanos: Vec<u64>,
    suspected: Vec<bool>,
    next_token: WaitToken,
    actions: Vec<Action>,
    /// What the engine reported during the current call, drained into
    /// `actions` by `emit`; kept so the ACK fold allocates nothing.
    updates: Vec<FrontierUpdate>,
    done: Vec<WaitToken>,
    /// Original DSL sources per (stream, key), kept so predicates can be
    /// restored verbatim when an excluded node rejoins. Ordered map:
    /// `reinstate_node` iterates it and emits frontier updates, whose
    /// order must be stable across processes for deterministic replay.
    predicate_sources: std::collections::BTreeMap<(NodeId, String), String>,
    /// Analyzer findings recorded at install time per (stream, key) when
    /// `option analysis` is `warn` or `deny` (a deny-mode install only
    /// succeeds — and is only recorded — when clean).
    analysis_reports: std::collections::BTreeMap<(NodeId, String), Report>,
    /// Exact crash tolerance `f*` per installed (stream, key), computed
    /// by the availability prover against the predicate as restricted to
    /// the stream's replica set. `-1` means blocked even with zero
    /// crashes; `num_nodes - 1` means no crash set can block it.
    predicate_tolerance: std::collections::BTreeMap<(NodeId, String), i64>,
    metrics: Metrics,
    /// Per-peer: `(last received-ack seen, nanos when it last advanced)`,
    /// for the retransmission timeout.
    retransmit_state: Vec<(SeqNo, u64)>,
    /// Per-stream: `(delivered position at the last transfer tick, nanos
    /// when it last advanced)`, for catch-up-on-lag detection: a node
    /// that stays behind an origin's self-acknowledged sequence with no
    /// inbound session open requests a transfer itself.
    lag_state: Vec<(SeqNo, u64)>,
    /// Inbound catch-up sessions (this node recovering), keyed by stream.
    transfer_in: BTreeMap<NodeId, InboundTransfer>,
    /// Outbound catch-up sessions (this node as donor), keyed by
    /// requester.
    transfer_out: BTreeMap<NodeId, OutboundTransfer>,
    /// Opaque application-state mark carried in outgoing transfer
    /// snapshots (§III-E's app-state hook).
    app_mark: u64,
}

/// Traffic counters, split by plane (the §III-A separation is observable
/// in the numbers: control messages stay small and coalescible while the
/// data plane moves the volume).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Data messages sent (to all peers combined).
    pub data_msgs_sent: u64,
    /// Data payload bytes sent.
    pub data_bytes_sent: u64,
    /// Control (ACK batch + heartbeat) messages sent.
    pub control_msgs_sent: u64,
    /// Individual ACK cells carried in those batches.
    pub acks_sent: u64,
    /// Data messages delivered to the application.
    pub deliveries: u64,
    /// ACK cells received and merged.
    pub acks_received: u64,
    /// Stale/duplicate ACK cells ignored by the max-merge.
    pub acks_stale: u64,
    /// Data messages retransmitted by the reliability mechanism.
    pub retransmits: u64,
    /// Predicate evaluations performed by the frontier engine
    /// (registration, change, and incremental re-evaluation).
    pub predicate_evals: u64,
    /// Frontier-advance actions emitted.
    pub frontier_updates: u64,
    /// Catch-up requests served as a donor (§III-E state transfer).
    pub transfer_requests: u64,
    /// Catch-up chunks replayed to requesters.
    pub transfer_chunks_sent: u64,
    /// Payload bytes replayed to requesters.
    pub transfer_bytes_sent: u64,
    /// Catch-up chunks received from donors.
    pub transfer_chunks_received: u64,
    /// Streams fast-forwarded out of band (snapshot jumps over an
    /// evicted prefix).
    pub transfer_fast_forwards: u64,
}

impl std::ops::AddAssign for Metrics {
    fn add_assign(&mut self, rhs: Metrics) {
        // Exhaustive destructuring: a new counter does not compile until
        // it is summed here.
        let Metrics {
            data_msgs_sent,
            data_bytes_sent,
            control_msgs_sent,
            acks_sent,
            deliveries,
            acks_received,
            acks_stale,
            retransmits,
            predicate_evals,
            frontier_updates,
            transfer_requests,
            transfer_chunks_sent,
            transfer_bytes_sent,
            transfer_chunks_received,
            transfer_fast_forwards,
        } = rhs;
        self.data_msgs_sent += data_msgs_sent;
        self.data_bytes_sent += data_bytes_sent;
        self.control_msgs_sent += control_msgs_sent;
        self.acks_sent += acks_sent;
        self.deliveries += deliveries;
        self.acks_received += acks_received;
        self.acks_stale += acks_stale;
        self.retransmits += retransmits;
        self.predicate_evals += predicate_evals;
        self.frontier_updates += frontier_updates;
        self.transfer_requests += transfer_requests;
        self.transfer_chunks_sent += transfer_chunks_sent;
        self.transfer_bytes_sent += transfer_bytes_sent;
        self.transfer_chunks_received += transfer_chunks_received;
        self.transfer_fast_forwards += transfer_fast_forwards;
    }
}

impl std::iter::Sum for Metrics {
    fn sum<I: Iterator<Item = Metrics>>(iter: I) -> Metrics {
        iter.fold(Metrics::default(), |mut total, m| {
            total += m;
            total
        })
    }
}

impl StabilizerNode {
    /// Create the node `me`, registering the configuration file's
    /// predicates for this node's own stream.
    ///
    /// # Errors
    ///
    /// Fails if a configured predicate does not compile.
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
        let data_peers = placement.replica_peers(me, me);
        // Configured application ACK types exist before any predicate
        // compiles (or is analyzed) against them.
        for (name, _) in cfg.ack_types() {
            acks.register(name);
        }
        let mut node = StabilizerNode {
            me,
            recorder: AckRecorder::new(n, acks.len()),
            engine: FrontierEngine::new(),
            send_buf: SendBuffer::with_retention(
                cfg.options().send_buffer_bytes,
                cfg.options().retain_log_bytes,
            ),
            recv: (0..n).map(|_| ReceiveState::new()).collect(),
            pending_acks: BTreeMap::new(),
            last_heard_nanos: vec![0; n],
            suspected: vec![false; n],
            next_token: 1,
            actions: Vec::new(),
            updates: Vec::new(),
            done: Vec::new(),
            predicate_sources: std::collections::BTreeMap::new(),
            analysis_reports: std::collections::BTreeMap::new(),
            predicate_tolerance: std::collections::BTreeMap::new(),
            metrics: Metrics::default(),
            retransmit_state: vec![(0, 0); n],
            lag_state: vec![(0, 0); n],
            transfer_in: BTreeMap::new(),
            transfer_out: BTreeMap::new(),
            app_mark: 0,
            peers,
            data_peers,
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

    /// Data-plane fan-out targets: replicas of this node's own stream,
    /// excluding itself.
    pub fn data_peers(&self) -> &[NodeId] {
        &self.data_peers
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

    /// True if any actions are pending.
    pub fn has_actions(&self) -> bool {
        !self.actions.is_empty()
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Publish a payload on this node's stream: assign the next sequence
    /// number, buffer for retransmission, send to every peer, and apply
    /// the origin self-acknowledgment rule (§III-C).
    ///
    /// # Errors
    ///
    /// [`CoreError::PayloadTooLarge`] or [`CoreError::WouldBlock`] (send
    /// buffer full — retry once the frontier advances).
    pub fn publish(&mut self, payload: Bytes) -> Result<SeqNo, CoreError> {
        let max = self.cfg.options().max_payload_bytes;
        if payload.len() > max {
            return Err(CoreError::PayloadTooLarge {
                size: payload.len(),
                max,
            });
        }
        let seq = self.send_buf.publish(payload.clone())?;
        for &peer in &self.data_peers {
            self.metrics.data_msgs_sent += 1;
            self.metrics.data_bytes_sent += payload.len() as u64;
            self.actions.push(Action::Send {
                to: peer,
                msg: WireMsg::Data {
                    origin: self.me,
                    seq,
                    payload: payload.clone(),
                },
            });
        }
        // Origin self-ack: every stability level holds at the origin.
        if self.recorder.observe_all_types(self.me, self.me, seq) {
            for ty in 0..self.recorder.num_types() as u16 {
                self.advance(self.me, self.me, AckTypeId(ty));
                self.queue_ack(self.me, AckTypeId(ty), seq);
            }
        }
        self.maybe_flush_eager();
        Ok(seq)
    }

    /// Highest sequence number assigned to this node's own stream.
    pub fn last_published(&self) -> SeqNo {
        self.send_buf.last_assigned()
    }

    /// Bytes currently held in the send buffer.
    pub fn send_buffer_bytes(&self) -> usize {
        self.send_buf.bytes()
    }

    /// Oldest own-stream sequence still replayable for §III-E catch-up
    /// (live window plus retained log).
    pub fn first_replayable(&self) -> SeqNo {
        self.send_buf.first_replayable()
    }

    /// Re-emit `Send` actions for every buffered own-stream message at or
    /// after `from`, to `peer` — used when a transport reconnects and must
    /// restore lossless FIFO.
    pub fn resend_from(&mut self, peer: NodeId, from: SeqNo) {
        if !self.placement.is_replica(self.me, peer) {
            return; // non-replicas never receive this stream
        }
        let me = self.me;
        let msgs: Vec<(SeqNo, Bytes)> = self
            .send_buf
            .iter_from(from)
            .map(|(s, p)| (s, p.clone()))
            .collect();
        for (seq, payload) in msgs {
            self.actions.push(Action::Send {
                to: peer,
                msg: WireMsg::Data {
                    origin: me,
                    seq,
                    payload,
                },
            });
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Process an incoming wire message. `now_nanos` drives failure
    /// detection bookkeeping.
    pub fn on_message(&mut self, now_nanos: u64, from: NodeId, msg: WireMsg) {
        self.heard(from, now_nanos);
        match msg {
            WireMsg::Data {
                origin,
                seq,
                payload,
            } => self.on_data(origin, seq, payload),
            WireMsg::AckBatch(acks) => self.on_acks(from, &acks),
            WireMsg::Heartbeat => {}
            WireMsg::TransferRequest { stream, have } => {
                self.on_transfer_request(from, stream, have)
            }
            WireMsg::TransferSnapshot {
                stream,
                base,
                high,
                acks,
                app_mark,
            } => self.on_transfer_snapshot(now_nanos, from, stream, base, high, &acks, app_mark),
            WireMsg::TransferChunk {
                stream,
                seq,
                payload,
                ..
            } => self.on_transfer_chunk(now_nanos, from, stream, seq, payload),
            WireMsg::TransferAck { stream, through } => self.on_transfer_ack(from, stream, through),
        }
        self.maybe_flush_eager();
    }

    fn on_data(&mut self, origin: NodeId, seq: SeqNo, payload: Bytes) {
        if origin == self.me || origin.0 as usize >= self.recv.len() {
            return; // nonsensical: we are the origin, or unknown stream
        }
        if !self.placement.is_replica(origin, self.me) {
            return; // not a replica of this stream: never receive or ack it
        }
        let delivered = self.recv[origin.0 as usize].on_data(seq, payload);
        if delivered.is_empty() {
            // A duplicate of an already-delivered message means the
            // sender has not seen our ACK (it was lost): re-announce the
            // current counters so the retransmission loop terminates.
            let current = self.recv[origin.0 as usize].delivered();
            if seq <= current {
                for ty in [RECEIVED, PERSISTED, DELIVERED] {
                    let level = self.recorder.get(origin, self.me, ty);
                    if level > 0 {
                        self.queue_ack(origin, ty, level);
                    }
                }
            }
            return;
        }
        let high = delivered.last().map(|(s, _)| *s).unwrap_or(0);
        for (seq, payload) in delivered {
            self.metrics.deliveries += 1;
            self.actions.push(Action::Deliver {
                origin,
                seq,
                payload,
            });
        }
        // This node now holds, has persisted, and has delivered the
        // prefix up to `high` (persistence is the local storage layer's
        // write, done by the driver before acks flush in a real system;
        // the built-in levels move together here and custom levels are
        // reported via `report_stability`).
        for ty in [RECEIVED, PERSISTED, DELIVERED] {
            if self.recorder.observe(origin, self.me, ty, high) {
                self.advance(origin, self.me, ty);
                self.queue_ack(origin, ty, high);
            }
        }
    }

    fn on_acks(&mut self, from: NodeId, acks: &[Ack]) {
        for ack in acks {
            if ack.stream.0 as usize >= self.recv.len()
                || ack.ty.0 as usize >= self.recorder.num_types()
            {
                continue; // unknown stream/type: ignore (monotonic data, safe to drop)
            }
            if !self.placement.is_replica(ack.stream, from)
                || !self.placement.is_replica(ack.stream, self.me)
            {
                // A non-replica has no standing to ack a stream, and a
                // non-replica of the stream has no use for the cell:
                // the recorder only ever holds replica columns.
                continue;
            }
            if self.recorder.observe(ack.stream, from, ack.ty, ack.seq) {
                self.metrics.acks_received += 1;
                self.advance(ack.stream, from, ack.ty);
                if ack.stream == self.me && ack.ty == RECEIVED {
                    self.try_reclaim();
                }
            } else {
                self.metrics.acks_stale += 1;
            }
        }
    }

    fn try_reclaim(&mut self) {
        // Reclaim once every live replica has received a prefix (only
        // replicas ever receive this stream). Suspected nodes are
        // excluded so a dead peer cannot pin the buffer.
        let live = self
            .placement
            .replicas(self.me)
            .iter()
            .copied()
            .filter(|n| !self.suspected[n.0 as usize]);
        let min = self.recorder.min_over(self.me, RECEIVED, live);
        self.send_buf.reclaim(min);
    }

    /// Declare that this node obtained `origin`'s stream up to `seq` out
    /// of band — the §III-E state-transfer path: after an absence long
    /// enough that the origin reclaimed its buffer, the returning mirror
    /// recovers the data from the integrated storage system (e.g. a WAL
    /// shipped from a peer) and resumes live delivery from `seq + 1`.
    /// Parked out-of-order messages beyond `seq` are released in order.
    pub fn fast_forward_stream(&mut self, origin: NodeId, seq: SeqNo) {
        self.fast_forward_inner(origin, seq, 0);
    }

    fn fast_forward_inner(&mut self, origin: NodeId, seq: SeqNo, app_mark: u64) {
        if origin == self.me
            || origin.0 as usize >= self.recv.len()
            || !self.placement.is_replica(origin, self.me)
        {
            return;
        }
        let before = self.recv[origin.0 as usize].delivered();
        let released = self.recv[origin.0 as usize].fast_forward(seq);
        if seq > before {
            // Announce the jump before the released deliveries so
            // checkers see the adjusted prefix first.
            self.metrics.transfer_fast_forwards += 1;
            self.actions.push(Action::CatchUp {
                stream: origin,
                seq,
                app_mark,
            });
        }
        let high = released
            .last()
            .map(|(s, _)| *s)
            .unwrap_or(self.recv[origin.0 as usize].delivered());
        for (seq, payload) in released {
            self.metrics.deliveries += 1;
            self.actions.push(Action::Deliver {
                origin,
                seq,
                payload,
            });
        }
        for ty in [RECEIVED, PERSISTED, DELIVERED] {
            if self.recorder.observe(origin, self.me, ty, high) {
                self.advance(origin, self.me, ty);
                self.queue_ack(origin, ty, high);
            }
        }
        self.maybe_flush_eager();
    }

    // ------------------------------------------------------------------
    // Control plane API (§III-D interfaces)
    // ------------------------------------------------------------------

    /// Register a new predicate under `key` for `stream`, compiled at
    /// this node (the paper's `register_predicate`).
    ///
    /// # Errors
    ///
    /// Propagates DSL compile errors, and under `option analysis deny`
    /// returns [`CoreError::PredicateRejected`] for any predicate with
    /// error- or warning-level analyzer findings.
    pub fn register_predicate(
        &mut self,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        let report = self.run_analysis(stream, key, source)?;
        let pred = Predicate::compile(source, self.cfg.topology(), &self.acks, self.me)?
            .restricted_to(self.placement.replicas(stream))?;
        let tolerance = self.compute_tolerance(&pred);
        self.engine.register(
            stream,
            key,
            pred,
            &self.recorder,
            &mut self.updates,
            &mut self.done,
        );
        self.predicate_tolerance
            .insert((stream, key.to_owned()), tolerance);
        self.predicate_sources
            .insert((stream, key.to_owned()), source.to_owned());
        if let Some(report) = report {
            self.analysis_reports
                .insert((stream, key.to_owned()), report);
        }
        self.emit();
        Ok(())
    }

    /// Replace the predicate under `key` (the paper's `change_predicate`),
    /// bumping its generation.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownPredicate`] if the key was never registered, a
    /// DSL compile error, or (under `option analysis deny`)
    /// [`CoreError::PredicateRejected`].
    pub fn change_predicate(
        &mut self,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        let report = self.run_analysis(stream, key, source)?;
        let pred = Predicate::compile(source, self.cfg.topology(), &self.acks, self.me)?
            .restricted_to(self.placement.replicas(stream))?;
        let tolerance = self.compute_tolerance(&pred);
        if !self.engine.change(
            stream,
            key,
            pred,
            &self.recorder,
            &mut self.updates,
            &mut self.done,
        ) {
            return Err(CoreError::UnknownPredicate(key.to_owned()));
        }
        self.predicate_tolerance
            .insert((stream, key.to_owned()), tolerance);
        self.predicate_sources
            .insert((stream, key.to_owned()), source.to_owned());
        if let Some(report) = report {
            self.analysis_reports
                .insert((stream, key.to_owned()), report);
        }
        self.emit();
        Ok(())
    }

    /// The analyzer findings recorded when `(stream, key)` was installed,
    /// if analysis is enabled (`option analysis warn|deny`) and the
    /// predicate is currently registered with findings on record.
    pub fn analysis_report(&self, stream: NodeId, key: &str) -> Option<&Report> {
        self.analysis_reports.get(&(stream, key.to_owned()))
    }

    /// Exact crash tolerance `f*` recorded when `(stream, key)` was
    /// installed: the largest number of non-origin crashes the predicate
    /// survives at this vantage (`-1` if it is blocked outright,
    /// `num_nodes - 1` if no crash set can ever block it).
    pub fn predicate_tolerance(&self, stream: NodeId, key: &str) -> Option<i64> {
        self.predicate_tolerance
            .get(&(stream, key.to_owned()))
            .copied()
    }

    /// All recorded `(stream, key) -> f*` entries, for telemetry export.
    pub fn predicate_tolerances(&self) -> impl Iterator<Item = (NodeId, &str, i64)> + '_ {
        self.predicate_tolerance
            .iter()
            .map(|((stream, key), &tol)| (*stream, key.as_str(), tol))
    }

    /// Run the availability prover on an installed (replica-restricted)
    /// predicate to get its exact crash tolerance at this vantage.
    fn compute_tolerance(&self, pred: &Predicate) -> i64 {
        stabilizer_analyze::availability(pred, self.cfg.topology(), self.me).tolerance
    }

    /// Run the static analyzer per the configured [`AnalysisMode`]:
    /// `Off` → `None`; `Warn` → `Some(report)`; `Deny` → error unless the
    /// report is clean (info-level findings tolerated). `stream` scopes
    /// the `non-replica-operand` lint to the stream's replica set.
    fn run_analysis(
        &self,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<Option<Report>, CoreError> {
        let opts = self.cfg.options();
        if opts.analysis == AnalysisMode::Off {
            return Ok(None);
        }
        let mut emissions = AckEmissions::new();
        for (name, emitters) in self.cfg.ack_types() {
            if emitters.is_empty() {
                continue;
            }
            if let Some(ty) = self.acks.lookup(name) {
                let ids: Vec<NodeId> = emitters
                    .iter()
                    .filter_map(|n| self.cfg.topology().node(n))
                    .collect();
                emissions.restrict(ty, &ids);
            }
        }
        let analyzer = Analyzer::new(self.cfg.topology(), &self.acks, self.me)
            .with_emissions(&emissions)
            .with_failure_budget(opts.failure_budget as usize)
            .with_replicas(self.placement.replicas(stream));
        let report = analyzer.analyze(key, source);
        if opts.analysis == AnalysisMode::Deny && !report.is_clean() {
            return Err(CoreError::PredicateRejected {
                key: key.to_owned(),
                report: report.render_human(),
            });
        }
        Ok(Some(report))
    }

    /// Remove a predicate; any pending waiters complete immediately (with
    /// the frontier they were waiting for never confirmed) so callers are
    /// not stranded.
    pub fn unregister_predicate(&mut self, stream: NodeId, key: &str) {
        let entry = (stream, key.to_owned());
        self.analysis_reports.remove(&entry);
        self.predicate_tolerance.remove(&entry);
        self.predicate_sources.remove(&entry);
        for token in self.engine.unregister(stream, key) {
            self.actions.push(Action::WaitDone { token });
        }
    }

    /// Current `(frontier, generation)` of a predicate (the K/V store's
    /// `get_stability_frontier`).
    pub fn stability_frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        self.engine.frontier(stream, key)
    }

    /// Diagnose one `(stream, key)` frontier: how far behind the highest
    /// locally-known publish it is, and — via a walk of the resolved
    /// predicate against the live ACK recorder — the minimal set of
    /// (node, ACK-type) cells holding it back. `None` if the key is not
    /// registered for the stream.
    pub fn explain_frontier(&self, stream: NodeId, key: &str) -> Option<crate::StallReport> {
        let pred = self.engine.predicate(stream, key)?;
        let (frontier, generation) = self.engine.frontier(stream, key)?;
        // The highest sequence this node knows exists on the stream: its
        // own assignment counter for the local stream, plus the best
        // `received` cell anyone has reported (the origin self-acks on
        // publish, so its own cell tracks its high watermark).
        let mut target = if stream == self.me {
            self.last_published()
        } else {
            0
        };
        for node in 0..self.recorder.num_nodes() as u16 {
            target = target.max(self.recorder.get(stream, NodeId(node), RECEIVED));
        }
        let stalled = frontier < target;
        let (blamed, unsatisfiable) = if stalled {
            crate::explain::blame_cells(&pred.resolved().expr, target, &self.recorder, stream)
        } else {
            (Vec::new(), Vec::new())
        };
        let suspected_peers: Vec<NodeId> = (0..self.suspected.len() as u16)
            .map(NodeId)
            .filter(|n| self.suspected[n.0 as usize])
            .collect();
        Some(crate::StallReport {
            stream,
            key: key.to_owned(),
            generation,
            frontier,
            target,
            stalled,
            predicate: pred.source().to_owned(),
            blamed: blamed
                .into_iter()
                .map(|(node, ty, have)| crate::BlamedCell {
                    node,
                    ack_type: ty,
                    ack_type_name: self.acks.name(ty).unwrap_or_else(|| ty.0.to_string()),
                    have,
                    need: target,
                    suspected: self.is_suspected(node),
                })
                .collect(),
            unsatisfiable,
            suspected_peers,
        })
    }

    /// [`StabilizerNode::explain_frontier`] for every registered
    /// `(stream, key)` pair, in (stream, key) order — the `/stall`
    /// endpoint body.
    pub fn explain_all(&self) -> Vec<crate::StallReport> {
        let mut out = Vec::new();
        for stream in 0..self.cfg.topology().num_nodes() as u16 {
            let stream = NodeId(stream);
            for key in self.engine.keys(stream) {
                if let Some(report) = self.explain_frontier(stream, &key) {
                    out.push(report);
                }
            }
        }
        out
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
    /// node's own stream, which self-acks everything already published.
    pub fn register_ack_type(&mut self, name: &str) -> AckTypeId {
        let ty = self.acks.register(name);
        self.recorder.ensure_types(self.acks.len());
        let last = self.send_buf.last_assigned();
        if last > 0 && self.recorder.observe(self.me, self.me, ty, last) {
            self.advance(self.me, self.me, ty);
            self.queue_ack(self.me, ty, last);
        }
        ty
    }

    /// Report that this node reached stability level `ty` for `stream` up
    /// to `seq` (application-supplied validation such as `verified`,
    /// §III-C "Suffixes"). The report is broadcast on the control plane.
    pub fn report_stability(&mut self, stream: NodeId, ty: AckTypeId, seq: SeqNo) {
        if ty.0 as usize >= self.recorder.num_types() {
            return;
        }
        if self.recorder.observe(stream, self.me, ty, seq) {
            self.advance(stream, self.me, ty);
            self.queue_ack(stream, ty, seq);
            self.maybe_flush_eager();
        }
    }

    /// Queue a full re-announcement of this node's own stability rows to
    /// `peer` (used by transports after a reconnect, since ACK batches
    /// lost while the link was down are only implicitly repaired by
    /// future traffic).
    pub fn announce_acks_to(&mut self, peer: NodeId) {
        let mut acks = Vec::new();
        for stream in 0..self.recorder.num_nodes() as u16 {
            if !self.placement.is_replica(NodeId(stream), peer) {
                continue; // the peer neither stores nor evaluates this stream
            }
            for ty in 0..self.recorder.num_types() as u16 {
                let seq = self.recorder.get(NodeId(stream), self.me, AckTypeId(ty));
                if seq > 0 {
                    acks.push(Ack {
                        stream: NodeId(stream),
                        ty: AckTypeId(ty),
                        seq,
                    });
                }
            }
        }
        if !acks.is_empty() {
            self.actions.push(Action::Send {
                to: peer,
                msg: WireMsg::AckBatch(acks),
            });
        }
    }

    // ------------------------------------------------------------------
    // State transfer (§III-E)
    // ------------------------------------------------------------------

    /// Set the opaque application-state mark carried in this node's
    /// outgoing [`WireMsg::TransferSnapshot`]s (the sharded layer stores
    /// its global fast-forward point here).
    pub fn set_app_mark(&mut self, mark: u64) {
        self.app_mark = mark;
    }

    /// Number of live transfer sessions, inbound plus outbound. Tests
    /// and drivers use this to detect a finished catch-up.
    pub fn active_transfers(&self) -> usize {
        self.transfer_in.len() + self.transfer_out.len()
    }

    /// Start catch-up after a restart or a fresh join: ask every peer
    /// for its stream, starting after what this node already delivered
    /// in order. Each stream's origin is its donor — it is the only node
    /// holding that stream's payloads (live window plus retained log).
    /// No-op unless `transfer_millis > 0`. Returns the number of peer
    /// streams catch-up was requested for (0 when transfer is disabled),
    /// which runtimes surface as a `Join` observability event.
    pub fn begin_catch_up(&mut self, now_nanos: u64) -> usize {
        if self.cfg.options().transfer_millis == 0 {
            return 0;
        }
        let peers = self.peers.clone();
        let mut streams = 0;
        for peer in peers {
            if self.request_catch_up(peer, now_nanos) {
                streams += 1;
            }
        }
        streams
    }

    fn request_catch_up(&mut self, donor: NodeId, now_nanos: u64) -> bool {
        if donor == self.me
            || donor.0 as usize >= self.recv.len()
            || !self.placement.is_replica(donor, self.me)
        {
            return false; // we do not replicate the donor's stream
        }
        let have = self.recv[donor.0 as usize].delivered();
        self.transfer_in.insert(
            donor,
            InboundTransfer {
                high: SeqNo::MAX,
                last_delivered: have,
                last_nanos: now_nanos,
            },
        );
        self.actions.push(Action::Send {
            to: donor,
            msg: WireMsg::TransferRequest {
                stream: donor,
                have,
            },
        });
        true
    }

    /// Donor side: serve a catch-up request for this node's own stream.
    /// Replies with a [`WireMsg::TransferSnapshot`] whose `base` is the
    /// later of the requester's position and the oldest sequence still
    /// replayable (live window plus retained log), then streams chunks
    /// for `(base, high]` under the `transfer_window` rate limit.
    fn on_transfer_request(&mut self, from: NodeId, stream: NodeId, have: SeqNo) {
        if self.cfg.options().transfer_millis == 0
            || stream != self.me
            || from == self.me
            || !self.placement.is_replica(self.me, from)
        {
            return; // transfer disabled, not the origin, or a non-replica asking
        }
        self.metrics.transfer_requests += 1;
        // A catch-up request means the requester restarted (or newly
        // joined): its belief table is whatever its snapshot held. Acks
        // are change-driven, so any of our rows it missed while down —
        // including its *own* stream's column, which no transfer
        // snapshot covers (we only donate our own stream) — would stay
        // stale forever and pin its frontiers. Re-announce our full
        // stability rows so its beliefs about us resume at the present.
        self.announce_acks_to(from);
        let floor = self.send_buf.first_replayable().saturating_sub(1);
        let base = have.max(floor);
        let high = self.send_buf.last_assigned().max(base);
        // The snapshot carries this node's full recorded column for the
        // stream: each entry's `stream` field names the *observing node*
        // (the batch is scoped to one stream, so the field is free).
        let mut acks = Vec::new();
        for node in 0..self.recorder.num_nodes() as u16 {
            for ty in 0..self.recorder.num_types() as u16 {
                let seq = self.recorder.get(self.me, NodeId(node), AckTypeId(ty));
                if seq > 0 {
                    acks.push(Ack {
                        stream: NodeId(node),
                        ty: AckTypeId(ty),
                        seq,
                    });
                }
            }
        }
        self.actions.push(Action::Send {
            to: from,
            msg: WireMsg::TransferSnapshot {
                stream,
                base,
                high,
                acks,
                app_mark: self.app_mark,
            },
        });
        if base < high {
            self.transfer_out.insert(
                from,
                OutboundTransfer {
                    acked: base,
                    next: base + 1,
                    high,
                },
            );
            self.pump_transfer(from);
        } else {
            self.transfer_out.remove(&from);
        }
    }

    /// Send chunks to `requester` up to the rate-limit window. The
    /// window bounds catch-up traffic so replay cannot starve the live
    /// data plane; it slides on [`WireMsg::TransferAck`].
    fn pump_transfer(&mut self, requester: NodeId) {
        let window = self.cfg.options().transfer_window;
        loop {
            let Some(sess) = self.transfer_out.get(&requester) else {
                return;
            };
            if sess.acked >= sess.high {
                self.transfer_out.remove(&requester);
                return;
            }
            if sess.next > sess.high || sess.next.saturating_sub(sess.acked + 1) >= window {
                return; // everything sent or window full: wait for acks
            }
            let seq = sess.next;
            let high = sess.high;
            let acked = sess.acked;
            match self.send_buf.replay_get(seq).cloned() {
                Some(payload) => {
                    self.metrics.transfer_chunks_sent += 1;
                    self.metrics.transfer_bytes_sent += payload.len() as u64;
                    self.actions.push(Action::Send {
                        to: requester,
                        msg: WireMsg::TransferChunk {
                            stream: self.me,
                            seq,
                            payload,
                            done: seq == high,
                        },
                    });
                    self.transfer_out
                        .get_mut(&requester)
                        .expect("session checked above")
                        .next += 1;
                }
                None => {
                    // The retained log evicted this prefix while the
                    // session ran (or nothing is replayable at all):
                    // restart the handshake so the requester
                    // fast-forwards over the new gap.
                    self.transfer_out.remove(&requester);
                    if self.send_buf.first_replayable() > seq {
                        self.on_transfer_request(requester, self.me, acked);
                    }
                    return;
                }
            }
        }
    }

    /// Requester side: apply the donor's snapshot — merge its recorded
    /// column for the stream, fast-forward over anything below `base`
    /// (the donor no longer holds it), and open the inbound session.
    #[allow(clippy::too_many_arguments)] // mirrors WireMsg::TransferSnapshot field for field
    fn on_transfer_snapshot(
        &mut self,
        now_nanos: u64,
        from: NodeId,
        stream: NodeId,
        base: SeqNo,
        high: SeqNo,
        acks: &[Ack],
        app_mark: u64,
    ) {
        if self.cfg.options().transfer_millis == 0
            || stream == self.me
            || from != stream
            || stream.0 as usize >= self.recv.len()
            || !self.placement.is_replica(stream, self.me)
        {
            return;
        }
        for a in acks {
            // `a.stream` names the observing node here (see the donor
            // side). Never merge cells about ourselves: our own counters
            // are ground truth and a stale third-party view must not
            // claim receipt of data we do not hold.
            if a.stream == self.me
                || a.stream.0 as usize >= self.recv.len()
                || a.ty.0 as usize >= self.recorder.num_types()
                || !self.placement.is_replica(stream, a.stream)
            {
                continue;
            }
            if self.recorder.observe(stream, a.stream, a.ty, a.seq) {
                self.metrics.acks_received += 1;
                self.advance(stream, a.stream, a.ty);
            }
        }
        self.fast_forward_inner(stream, base, app_mark);
        let delivered = self.recv[stream.0 as usize].delivered();
        self.actions.push(Action::Send {
            to: from,
            msg: WireMsg::TransferAck {
                stream,
                through: delivered,
            },
        });
        if delivered >= high {
            self.transfer_in.remove(&stream);
        } else {
            self.transfer_in.insert(
                stream,
                InboundTransfer {
                    high,
                    last_delivered: delivered,
                    last_nanos: now_nanos,
                },
            );
        }
    }

    /// Requester side: a replayed chunk. Fed through the normal receive
    /// path (FIFO reassembly, duplicate suppression, built-in acks),
    /// then cumulatively acknowledged so the donor's window slides.
    fn on_transfer_chunk(
        &mut self,
        now_nanos: u64,
        from: NodeId,
        stream: NodeId,
        seq: SeqNo,
        payload: Bytes,
    ) {
        if self.cfg.options().transfer_millis == 0
            || stream == self.me
            || from != stream
            || stream.0 as usize >= self.recv.len()
            || !self.placement.is_replica(stream, self.me)
        {
            return;
        }
        self.metrics.transfer_chunks_received += 1;
        self.on_data(stream, seq, payload);
        let delivered = self.recv[stream.0 as usize].delivered();
        if let Some(sess) = self.transfer_in.get_mut(&stream) {
            if delivered > sess.last_delivered {
                sess.last_delivered = delivered;
                sess.last_nanos = now_nanos;
            }
            if delivered >= sess.high {
                self.transfer_in.remove(&stream);
            }
        }
        self.actions.push(Action::Send {
            to: from,
            msg: WireMsg::TransferAck {
                stream,
                through: delivered,
            },
        });
    }

    /// Donor side: slide the session window and send more chunks.
    fn on_transfer_ack(&mut self, from: NodeId, stream: NodeId, through: SeqNo) {
        if stream != self.me {
            return;
        }
        if let Some(sess) = self.transfer_out.get_mut(&from) {
            if through > sess.acked {
                sess.acked = through;
            }
            if sess.acked >= sess.high {
                self.transfer_out.remove(&from);
            } else {
                self.pump_transfer(from);
            }
        }
    }

    /// Supervise inbound catch-up (drivers call this on the
    /// `transfer_millis` period): a session that made no progress for a
    /// full period re-issues its request from the current delivered
    /// position — this is what makes a transfer resumable when the
    /// donor or the requester crashes mid-way, and what retries a
    /// request lost to the network.
    pub fn on_transfer_tick(&mut self, now_nanos: u64) {
        let timeout = self.cfg.options().transfer_millis * 1_000_000;
        if timeout == 0 {
            return;
        }
        let streams: Vec<NodeId> = self.transfer_in.keys().copied().collect();
        for stream in streams {
            let delivered = self.recv[stream.0 as usize].delivered();
            let sess = self
                .transfer_in
                .get_mut(&stream)
                .expect("keys collected above");
            if delivered >= sess.high {
                self.transfer_in.remove(&stream);
                continue;
            }
            if delivered > sess.last_delivered {
                sess.last_delivered = delivered;
                sess.last_nanos = now_nanos;
                continue;
            }
            if now_nanos.saturating_sub(sess.last_nanos) < timeout {
                continue;
            }
            if self.suspected[stream.0 as usize] {
                continue; // donor is down; recovery re-requests (heard)
            }
            self.request_catch_up(stream, now_nanos);
        }
        // Catch-up on observed lag. Retransmission heals short gaps, but
        // an origin that reclaimed its live send window (every *other*
        // peer acked while this node was unreachable) has nothing left
        // to resend — the retained log, reachable only through a
        // transfer, holds the sole remaining copy. A node that sees
        // itself persistently behind an origin's own self-acknowledged
        // sequence, with no inbound session open, must ask that origin
        // for a transfer rather than wait for data that will never come.
        // The grace period covers normal propagation plus a retransmit
        // round, so a transiently-in-flight suffix never triggers one.
        let grace = 2 * timeout.max(self.cfg.options().retransmit_millis * 1_000_000);
        for idx in 0..self.recv.len() {
            let stream = NodeId(idx as u16);
            if stream == self.me || !self.placement.is_replica(stream, self.me) {
                continue; // never catch up on streams we do not replicate
            }
            let delivered = self.recv[idx].delivered();
            let (prev, since) = self.lag_state[idx];
            if delivered > prev || since == 0 {
                self.lag_state[idx] = (delivered, now_nanos);
                continue;
            }
            let origin_high = self.recorder.get(stream, stream, RECEIVED);
            if origin_high <= delivered
                || self.transfer_in.contains_key(&stream)
                || self.suspected[idx]
            {
                self.lag_state[idx] = (delivered, now_nanos);
                continue;
            }
            if now_nanos.saturating_sub(since) < grace {
                continue;
            }
            self.request_catch_up(stream, now_nanos);
            self.lag_state[idx] = (delivered, now_nanos);
        }
        self.maybe_flush_eager();
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// A periodic timer fired: run the handler [`TimerKind`] names.
    /// Drivers arm each kind at [`TimerKind::period`] and call this on
    /// expiry; `now_nanos` is ignored by the kinds that do not read the
    /// clock.
    pub fn on_timer(&mut self, kind: TimerKind, now_nanos: u64) {
        match kind {
            TimerKind::AckFlush => self.on_ack_flush(),
            TimerKind::Heartbeat => self.on_heartbeat(),
            TimerKind::Failure => self.on_failure_check(now_nanos),
            TimerKind::Retransmit => self.on_retransmit_check(now_nanos),
            TimerKind::Transfer => self.on_transfer_tick(now_nanos),
        }
    }

    /// Flush coalesced ACKs (drivers call this on the
    /// `ack_flush_micros` period when coalescing is enabled).
    pub fn on_ack_flush(&mut self) {
        self.flush_acks();
    }

    /// Emit a heartbeat to every peer (drivers call this on the
    /// `heartbeat_millis` period).
    pub fn on_heartbeat(&mut self) {
        for &peer in &self.peers {
            self.metrics.control_msgs_sent += 1;
            self.actions.push(Action::Send {
                to: peer,
                msg: WireMsg::Heartbeat,
            });
        }
    }

    /// Check for silent peers (drivers call this periodically). Newly
    /// suspected nodes produce [`Action::Suspected`] and, when
    /// `auto_exclude_suspects` is set, predicate rewrites.
    pub fn on_failure_check(&mut self, now_nanos: u64) {
        let timeout = self.cfg.options().failure_timeout_millis * 1_000_000;
        if timeout == 0 {
            return; // failure detection disabled
        }
        let peers = self.peers.clone();
        for peer in peers {
            let idx = peer.0 as usize;
            let heard = self.last_heard_nanos[idx];
            if self.suspected[idx] || now_nanos.saturating_sub(heard) < timeout {
                continue;
            }
            self.suspected[idx] = true;
            self.actions.push(Action::Suspected { node: peer });
            // Drop transfer sessions involving the dead peer: inbound
            // resumes via the recovery re-request when it returns,
            // outbound via the peer's own stall re-request.
            self.transfer_in.remove(&peer);
            self.transfer_out.remove(&peer);
            if self.cfg.options().auto_exclude_suspects {
                self.exclude_node(peer);
            }
            self.try_reclaim();
        }
    }

    /// Drive the §III-A reliability mechanism (drivers call this
    /// periodically when `retransmit_millis > 0`): any peer whose
    /// `received` counter has not advanced for a full timeout while data
    /// remains unacknowledged gets the unacked window resent (go-back-N,
    /// capped at 64 messages per round to bound burstiness). Safe with
    /// duplicating transports: receivers drop duplicates and the ACK
    /// table is monotonic.
    pub fn on_retransmit_check(&mut self, now_nanos: u64) {
        let timeout = self.cfg.options().retransmit_millis * 1_000_000;
        if timeout == 0 {
            return;
        }
        let last_sent = self.send_buf.last_assigned();
        // Go-back-N targets only the stream's replicas: a non-replica
        // never acks, and resending to it would loop forever.
        let peers = self.data_peers.clone();
        for peer in peers {
            if self.suspected[peer.0 as usize] {
                continue;
            }
            let acked = self.recorder.get(self.me, peer, RECEIVED);
            let idx = peer.0 as usize;
            let (prev_acked, since) = self.retransmit_state[idx];
            if acked > prev_acked || acked >= last_sent {
                self.retransmit_state[idx] = (acked, now_nanos);
                continue;
            }
            if now_nanos.saturating_sub(since) < timeout {
                continue;
            }
            // Stalled: resend the unacked window.
            let msgs: Vec<(SeqNo, Bytes)> = self
                .send_buf
                .iter_from(acked + 1)
                .take(64)
                .map(|(s, p)| (s, p.clone()))
                .collect();
            for (seq, payload) in msgs {
                self.metrics.retransmits += 1;
                self.actions.push(Action::Send {
                    to: peer,
                    msg: WireMsg::Data {
                        origin: self.me,
                        seq,
                        payload,
                    },
                });
            }
            self.retransmit_state[idx] = (acked, now_nanos);
        }
    }

    /// Rewrite every predicate to stop observing `node` (§III-E). Broken
    /// predicates (that would become empty) are reported via
    /// [`Action::PredicateBroken`].
    pub fn exclude_node(&mut self, node: NodeId) {
        let failed =
            self.engine
                .exclude_node(node, &self.recorder, &mut self.updates, &mut self.done);
        self.emit();
        for key in failed {
            self.actions.push(Action::PredicateBroken {
                stream: self.me,
                key,
            });
        }
    }

    /// Whether `node` is currently suspected.
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.suspected[node.0 as usize]
    }

    /// Clear suspicion after a node returns (driver observed traffic or
    /// reconnection).
    pub fn clear_suspicion(&mut self, node: NodeId) {
        self.suspected[node.0 as usize] = false;
    }

    /// Re-admit a previously excluded node: clear its suspicion and
    /// restore every predicate to its original registered source (the
    /// inverse of [`StabilizerNode::exclude_node`]). Each restored
    /// predicate gets a new generation, like `change_predicate`.
    ///
    /// # Errors
    ///
    /// Fails if any original source no longer compiles (e.g. its ACK
    /// type registry entries disappeared — not possible through this
    /// API, but surfaced rather than ignored).
    pub fn reinstate_node(&mut self, node: NodeId) -> Result<(), CoreError> {
        self.clear_suspicion(node);
        let sources: Vec<((NodeId, String), String)> = self
            .predicate_sources
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for ((stream, key), source) in sources {
            let pred = Predicate::compile(&source, self.cfg.topology(), &self.acks, self.me)?
                .restricted_to(self.placement.replicas(stream))?;
            // Only touch predicates that currently lack the node.
            let has_node = self
                .engine
                .predicate(stream, &key)
                .map(|p| p.dependencies().iter().any(|(n, _)| *n == node))
                .unwrap_or(false);
            let should_have = pred.dependencies().iter().any(|(n, _)| *n == node);
            if has_node || !should_have {
                continue;
            }
            self.engine.change(
                stream,
                &key,
                pred,
                &self.recorder,
                &mut self.updates,
                &mut self.done,
            );
            self.emit();
        }
        Ok(())
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
    // Recovery (§III-E)
    // ------------------------------------------------------------------

    /// Capture the control-plane state for persistence by the integrated
    /// storage system.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            recorder: self.recorder.clone(),
            last_assigned: self.send_buf.last_assigned(),
        }
    }

    /// Rebuild a node from a persisted snapshot after a primary restart.
    /// Payload buffers are not restored (peers that already received the
    /// prefix have acked it; unacked suffixes must be re-published by the
    /// storage system's recovery log, as with Derecho's view change).
    ///
    /// # Errors
    ///
    /// Fails if a configured predicate does not compile.
    pub fn restore(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
        snapshot: Snapshot,
    ) -> Result<Self, CoreError> {
        let mut node = StabilizerNode::new(cfg, me, acks)?;
        node.recorder = snapshot.recorder;
        node.recorder.ensure_types(node.acks.len());
        // Restore the sequence counter by replaying publishes of empty
        // payloads is wrong; instead rebuild the send buffer state.
        let capacity = node.cfg.options().send_buffer_bytes;
        let retain = node.cfg.options().retain_log_bytes;
        let mut sb = SendBuffer::with_retention(capacity, retain);
        for _ in 0..snapshot.last_assigned {
            let _ = sb.publish(Bytes::new());
        }
        sb.reclaim(snapshot.last_assigned);
        // The reclaim above only rebuilt sequencing: the retained log
        // must not serve those placeholder payloads to a requester — a
        // restarted donor has nothing replayable, so requesters
        // fast-forward over its reclaimed prefix instead.
        sb.clear_retained();
        node.send_buf = sb;
        // Re-evaluate configured predicates against the restored table.
        for key in node.engine.keys(me) {
            if let Some(pred) = node.engine.predicate(me, &key).cloned() {
                node.engine.register(
                    me,
                    &key,
                    pred,
                    &node.recorder,
                    &mut node.updates,
                    &mut node.done,
                );
            }
        }
        node.emit();
        Ok(node)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn heard(&mut self, from: NodeId, now_nanos: u64) {
        let idx = from.0 as usize;
        if idx >= self.last_heard_nanos.len() {
            return;
        }
        self.last_heard_nanos[idx] = now_nanos;
        if self.suspected[idx] {
            // The "crashed" peer is talking again: §III-E's recovery path.
            self.suspected[idx] = false;
            self.actions.push(Action::Recovered { node: from });
            if self.cfg.options().auto_exclude_suspects {
                // Reinstatement mirrors the automatic exclusion. Original
                // sources always recompile (they did at registration), so
                // the expect documents an invariant rather than a
                // recoverable failure.
                self.reinstate_node(from)
                    .expect("original predicate sources recompile");
            }
            if self.cfg.options().transfer_millis > 0 {
                // Resume any catch-up the peer's absence interrupted and
                // pick up whatever it published while suspicion stopped
                // us retransmitting to each other. A donor with nothing
                // missing answers with an empty session, so this is
                // cheap when the recovery was a false alarm.
                self.request_catch_up(from, now_nanos);
            }
        }
    }

    fn advance(&mut self, stream: NodeId, node: NodeId, ty: AckTypeId) {
        self.engine.on_ack_advance(
            stream,
            node,
            ty,
            &self.recorder,
            &mut self.updates,
            &mut self.done,
        );
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

    fn queue_ack(&mut self, stream: NodeId, ty: AckTypeId, seq: SeqNo) {
        let cell = self.pending_acks.entry((stream, ty)).or_insert(0);
        if seq > *cell {
            *cell = seq;
        }
    }

    fn maybe_flush_eager(&mut self) {
        if self.cfg.options().ack_flush_micros == 0 {
            self.flush_acks();
        }
    }

    fn flush_acks(&mut self) {
        if self.pending_acks.is_empty() {
            return;
        }
        let acks: Vec<Ack> = self
            .pending_acks
            .iter()
            .map(|(&(stream, ty), &seq)| Ack { stream, ty, seq })
            .collect();
        self.pending_acks.clear();
        if self.placement.is_full_replication() {
            for &peer in &self.peers {
                self.metrics.control_msgs_sent += 1;
                self.metrics.acks_sent += acks.len() as u64;
                self.actions.push(Action::Send {
                    to: peer,
                    msg: WireMsg::AckBatch(acks.clone()),
                });
            }
            return;
        }
        // Partial replication: each peer gets only the cells for streams
        // it replicates (a non-replica neither stores the stream nor
        // evaluates predicates over it).
        for &peer in &self.peers {
            let batch: Vec<Ack> = acks
                .iter()
                .filter(|a| self.placement.is_replica(a.stream, peer))
                .cloned()
                .collect();
            if batch.is_empty() {
                continue;
            }
            self.metrics.control_msgs_sent += 1;
            self.metrics.acks_sent += batch.len() as u64;
            self.actions.push(Action::Send {
                to: peer,
                msg: WireMsg::AckBatch(batch),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Options;

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
    fn publish_fans_out_to_every_peer_with_self_ack() {
        let mut n = node(0);
        let seq = n.publish(Bytes::from_static(b"x")).unwrap();
        assert_eq!(seq, 1);
        let actions = n.take_actions();
        let data: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, WireMsg::Data { .. }))
            .collect();
        assert_eq!(data.len(), 2, "one data message per peer");
        // Self-ack rule: all types at the origin equal the new seq.
        for ty in 0..n.recorder().num_types() as u16 {
            assert_eq!(n.recorder().get(NodeId(0), NodeId(0), AckTypeId(ty)), 1);
        }
        // Eager mode also broadcast the self-ack batch.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: WireMsg::AckBatch(_),
                ..
            }
        )));
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
        n.on_failure_check(1_000_000_000); // 1s >> 10ms timeout
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
        assert!(!n
            .predicate_sources
            .contains_key(&(NodeId(0), "tmp".to_owned())));
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
        n.on_ack_flush();
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
    fn metrics_sum_is_field_wise() {
        let distinct = |base: u64| Metrics {
            data_msgs_sent: base + 1,
            data_bytes_sent: base + 2,
            control_msgs_sent: base + 3,
            acks_sent: base + 4,
            deliveries: base + 5,
            acks_received: base + 6,
            acks_stale: base + 7,
            retransmits: base + 8,
            predicate_evals: base + 9,
            frontier_updates: base + 10,
            transfer_requests: base + 11,
            transfer_chunks_sent: base + 12,
            transfer_bytes_sent: base + 13,
            transfer_chunks_received: base + 14,
            transfer_fast_forwards: base + 15,
        };
        let (a, b) = (distinct(100), distinct(2000));
        let expected = Metrics {
            data_msgs_sent: 2102,
            data_bytes_sent: 2104,
            control_msgs_sent: 2106,
            acks_sent: 2108,
            deliveries: 2110,
            acks_received: 2112,
            acks_stale: 2114,
            retransmits: 2116,
            predicate_evals: 2118,
            frontier_updates: 2120,
            transfer_requests: 2122,
            transfer_chunks_sent: 2124,
            transfer_bytes_sent: 2126,
            transfer_chunks_received: 2128,
            transfer_fast_forwards: 2130,
        };
        let mut total = a;
        total += b;
        assert_eq!(total, expected);
        assert_eq!([a, b].into_iter().sum::<Metrics>(), expected);
        assert_eq!(
            std::iter::empty::<Metrics>().sum::<Metrics>(),
            Metrics::default()
        );
    }

    #[test]
    fn metrics_track_both_planes() {
        let mut n = node(0);
        n.publish(Bytes::from(vec![0u8; 64])).unwrap();
        n.take_actions();
        let m = n.metrics();
        assert_eq!(m.data_msgs_sent, 2);
        assert_eq!(m.data_bytes_sent, 128);
        assert!(m.control_msgs_sent >= 2);
        assert!(m.acks_sent > 0);
        assert_eq!(m.deliveries, 0);
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
        n.on_failure_check(1_000_000_000);
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
        // Cumulative ack completes the session.
        n.on_message(
            2_100_000_000,
            NodeId(2),
            WireMsg::TransferAck {
                stream: NodeId(0),
                through: 3,
            },
        );
        assert!(n.transfer_out.is_empty());
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
        assert!(n.transfer_out.is_empty(), "session completes");
    }

    #[test]
    fn stalled_transfer_re_requests_on_tick() {
        let mut n = transfer_node(2);
        n.begin_catch_up(0);
        n.take_actions();
        n.on_transfer_tick(10_000_000); // 10 ms < 20 ms period
        assert!(sends(&n.take_actions()).is_empty(), "not stalled yet");
        n.on_transfer_tick(25_000_000); // 25 ms: both sessions stalled
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
}
