//! The sharded node: S independent `StabilizerNode` machines behind one
//! node-level facade.
//!
//! Each shard owns a full stack — sequencer, send buffer, ACK recorder,
//! frontier engine — over its own per-shard sequence space. The engine
//! routes publishes across shards (deterministically, see
//! [`crate::router`]), tags every payload with its node-level global
//! sequence number ([`crate::codec`]), and recombines per-shard frontier
//! advances and deliveries through the [`ShardedFrontier`] aggregator so
//! the application-visible API (`publish`, `waitfor`,
//! `stability_frontier`, frontier monitors, FIFO delivery) keeps exactly
//! the unsharded semantics.
//!
//! The engine is the data path and the §III-D API, nothing more: it has
//! no §III-E recovery. [`ShardedEngine::new`] refuses a config that asks
//! for failure detection or state transfer, and the TCP runtime refuses
//! to restore it from a snapshot. Retransmission and heartbeats run on
//! every shard as on a plain node.
//!
//! Like `StabilizerNode`, the engine is sans-IO: drivers feed messages
//! and timer ticks in, and drain [`ShardedAction`]s out.

use crate::codec::{encode_global, GLOBAL_HEADER};
use crate::frontier::ShardedFrontier;
use crate::router::{RoutePolicy, ShardRouter};
use bytes::Bytes;
use stabilizer_core::{
    AckTypeId, Action, ClusterConfig, CoreError, Metrics, NodeId, SeqNo, StabilizerNode, TimerKind,
    WaitToken, WireMsg,
};
use stabilizer_dsl::AckTypeRegistry;
use std::sync::Arc;

/// Side effects drained from a [`ShardedEngine`], in order: a shard's
/// send, tagged with its shard, or a node-level [`Action`] — a delivery
/// in **global** FIFO order (header stripped), an aggregated frontier
/// advance, or a completed node-level `waitfor`, all in global sequence
/// numbers. What an observer sees of a node-level action is
/// [`Action::event`].
#[derive(Debug)]
pub enum ShardedAction {
    /// Transmit `msg` to `to` on the sub-stream of `shard`.
    Send {
        /// Shard whose machine produced the message; the receiver must
        /// feed it to the same shard index.
        shard: u16,
        /// Destination node.
        to: NodeId,
        /// The wire message.
        msg: WireMsg,
    },
    /// A node-level action (never a [`Action::Send`]).
    Node(Action),
}

/// S shard machines, a router, and the frontier aggregator.
#[derive(Debug)]
pub struct ShardedEngine {
    me: NodeId,
    /// The application-visible payload cap (the shard machines' is
    /// wider by the global header).
    max_payload_bytes: usize,
    shards: Vec<StabilizerNode>,
    router: ShardRouter,
    agg: ShardedFrontier,
    actions: Vec<ShardedAction>,
    /// Where a shard machine's actions land while they are folded; empty
    /// between drains, its capacity goes back to the shard.
    shard_actions: Vec<Action>,
}

impl ShardedEngine {
    /// Create the sharded node `me`: `cfg.options().shards` shard machines
    /// (their payload cap widened by the 8-byte global header every
    /// payload carries, so the application-visible cap is unchanged) and
    /// the aggregator with every configured predicate key installed.
    ///
    /// # Errors
    ///
    /// Fails if a configured predicate does not compile, and with
    /// [`CoreError::Config`] if `cfg` asks for failure detection
    /// (`failure_timeout_millis`) or state transfer (`transfer_millis`):
    /// a sharded node has neither.
    pub fn new(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
        policy: RoutePolicy,
    ) -> Result<Self, CoreError> {
        let opts = cfg.options();
        if opts.failure_timeout_millis > 0 || opts.transfer_millis > 0 {
            return Err(CoreError::Config(
                "a sharded node runs neither failure detection nor state transfer: \
                 failure_timeout_millis and transfer_millis must be 0"
                    .to_owned(),
            ));
        }
        let num_shards = cfg.options().shards.max(1) as usize;
        let mut inner_opts = cfg.options().clone();
        inner_opts.max_payload_bytes += GLOBAL_HEADER;
        let inner_cfg = cfg.clone().with_options(inner_opts);
        let shards = (0..num_shards)
            .map(|_| StabilizerNode::new(inner_cfg.clone(), me, Arc::clone(&acks)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut agg = ShardedFrontier::new(cfg.num_nodes(), num_shards);
        for (key, _) in cfg.predicates() {
            agg.ensure_key(me, key);
        }
        let mut engine = ShardedEngine {
            me,
            max_payload_bytes: cfg.options().max_payload_bytes,
            router: ShardRouter::new(shards.len() as u16, policy),
            shards,
            agg,
            actions: Vec::new(),
            shard_actions: Vec::new(),
        };
        engine.drain_all_shards();
        Ok(engine)
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u16 {
        self.shards.len() as u16
    }

    /// Read-only view of one shard machine.
    pub fn shard(&self, shard: u16) -> &StabilizerNode {
        &self.shards[shard as usize]
    }

    /// Read-only view of the frontier aggregator.
    pub fn aggregator(&self) -> &ShardedFrontier {
        &self.agg
    }

    /// Hand the pending sharded actions, in order, to a driver's reused
    /// buffer (see [`StabilizerNode::swap_actions`]).
    pub fn swap_actions(&mut self, buf: &mut Vec<ShardedAction>) {
        debug_assert!(buf.is_empty(), "the driver's buffer comes back empty");
        std::mem::swap(&mut self.actions, buf);
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Publish on this node's stream: assign the next global sequence,
    /// route to a shard, and hand the header-framed payload to that
    /// shard's sequencer. Returns the **global** sequence number.
    ///
    /// # Errors
    ///
    /// [`CoreError::PayloadTooLarge`] or [`CoreError::WouldBlock`] (the
    /// routed shard's send buffer is full — the failed attempt does not
    /// consume a global sequence number or perturb routing).
    pub fn publish(&mut self, payload: Bytes) -> Result<SeqNo, CoreError> {
        self.publish_routed(payload, None)
    }

    /// [`ShardedEngine::publish`] with a routing key: under
    /// [`RoutePolicy::KeyHash`], all publishes sharing `key` land on one
    /// shard (and therefore stay FIFO relative to each other even before
    /// global reassembly).
    pub fn publish_with_key(&mut self, payload: Bytes, key: &[u8]) -> Result<SeqNo, CoreError> {
        self.publish_routed(payload, Some(key))
    }

    fn publish_routed(&mut self, payload: Bytes, key: Option<&[u8]>) -> Result<SeqNo, CoreError> {
        if payload.len() > self.max_payload_bytes {
            return Err(CoreError::PayloadTooLarge {
                size: payload.len(),
                max: self.max_payload_bytes,
            });
        }
        let shard = self.router.route(key);
        let global = self.agg.peek_next_global();
        let framed = encode_global(global, &payload);
        match self.shards[shard as usize].publish(framed) {
            Ok(_shard_seq) => {
                let out = self.agg.note_published(self.me, shard, global);
                out.into_actions(&mut self.actions);
                self.drain_shard(shard);
                Ok(global)
            }
            Err(e) => {
                // Only keyless (round-robin) routes advanced the cursor.
                if key.is_none() || self.router.policy() == RoutePolicy::RoundRobin {
                    self.router.rollback_last();
                }
                Err(e)
            }
        }
    }

    /// Highest global sequence number assigned to this node's stream.
    pub fn last_published(&self) -> SeqNo {
        self.agg.last_published()
    }

    /// Feed a batch of `(sender, message)` pairs for shard sub-stream
    /// `shard`, in order: one fold and one ACK flush for all of them (see
    /// [`StabilizerNode::on_messages`]).
    pub fn on_messages(
        &mut self,
        now_nanos: u64,
        shard: u16,
        msgs: impl IntoIterator<Item = (NodeId, WireMsg)>,
    ) {
        self.shards[shard as usize].on_messages(now_nanos, msgs);
        self.drain_shard(shard);
    }

    /// Repair every shard sub-stream to `peer` after a transport
    /// (re)connect (see [`StabilizerNode::repair_link`]).
    pub fn repair_link(&mut self, peer: NodeId) {
        for shard in &mut self.shards {
            shard.repair_link(peer);
        }
        self.drain_all_shards();
    }

    // ------------------------------------------------------------------
    // Predicates, frontiers, waits
    // ------------------------------------------------------------------

    /// Register a predicate on every shard and make the aggregated key
    /// queryable.
    ///
    /// # Errors
    ///
    /// Propagates DSL compile errors (deterministic, so no shard
    /// registers when the first fails).
    pub fn register_predicate(
        &mut self,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        for shard in &mut self.shards {
            shard.register_predicate(stream, key, source)?;
        }
        self.agg.ensure_key(stream, key);
        self.sync_key(stream, key);
        self.drain_all_shards();
        Ok(())
    }

    /// Replace the predicate under `key` on every shard, bumping the
    /// generation everywhere in lockstep.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownPredicate`] or a DSL compile error.
    pub fn change_predicate(
        &mut self,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        for shard in &mut self.shards {
            shard.change_predicate(stream, key, source)?;
        }
        self.sync_key(stream, key);
        self.drain_all_shards();
        Ok(())
    }

    /// Remove a predicate everywhere; pending node-level waiters complete
    /// immediately.
    pub fn unregister_predicate(&mut self, stream: NodeId, key: &str) {
        for shard in &mut self.shards {
            shard.unregister_predicate(stream, key);
        }
        let out = self.agg.unregister_key(stream, key);
        out.into_actions(&mut self.actions);
        self.drain_all_shards();
    }

    /// Current aggregated `(frontier, generation)` of a predicate, in
    /// global sequence numbers.
    pub fn stability_frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        self.agg.frontier(stream, key)
    }

    /// Wait for the aggregated frontier of `(stream, key)` to reach the
    /// global sequence `seq`; completion surfaces as
    /// a node-level [`Action::WaitDone`].
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
        let (token, out) = self.agg.waitfor(stream, key, seq)?;
        out.into_actions(&mut self.actions);
        Ok(token)
    }

    /// Node-level waits still blocked.
    pub fn pending_waiters(&self) -> usize {
        self.agg.pending_waiters()
    }

    /// Register an application-defined stability level on every shard.
    /// The shared registry deduplicates by name, so every shard returns
    /// the same id.
    pub fn register_ack_type(&mut self, name: &str) -> AckTypeId {
        let mut ty = AckTypeId(0);
        for shard in &mut self.shards {
            ty = shard.register_ack_type(name);
        }
        self.drain_all_shards();
        ty
    }

    /// Report stability level `ty` for `stream` up to the **global**
    /// sequence `seq`. The report is translated into per-shard sequence
    /// numbers through the mapping this node has learned so far
    /// (conservative: unknown suffixes are simply not reported yet).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownStream`] for a stream outside the cluster.
    pub fn report_stability(
        &mut self,
        stream: NodeId,
        ty: AckTypeId,
        seq: SeqNo,
    ) -> Result<(), CoreError> {
        self.shards[0].check_stream(stream)?;
        self.agg.note_report(stream, ty, seq);
        for s in 0..self.num_shards() {
            let shard_seq = self.agg.shard_progress(stream, s, seq);
            if shard_seq > 0 {
                self.shards[s as usize].report_stability(stream, ty, shard_seq)?;
            }
        }
        self.drain_all_shards();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// A periodic timer fired: run `kind`'s handler on every shard
    /// (drivers arm each kind once per node, at [`TimerKind::period`] of
    /// the cluster's options).
    pub fn on_timer(&mut self, kind: TimerKind, now_nanos: u64) {
        for shard in &mut self.shards {
            shard.on_timer(kind, now_nanos);
        }
        self.drain_all_shards();
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Traffic counters summed across shards. `data_bytes_sent` includes
    /// the 8-byte global header each sharded payload carries.
    pub fn metrics(&self) -> Metrics {
        self.shards.iter().map(StabilizerNode::metrics).sum()
    }

    /// One shard's own traffic counters.
    pub fn shard_metrics(&self, shard: u16) -> Metrics {
        self.shards[shard as usize].metrics()
    }

    /// Frontier blame for every `(shard, stream, key)`: each shard
    /// machine diagnoses its own sub-stream (sequence numbers in the
    /// reports are per-shard). Render with
    /// [`stabilizer_core::render_sharded_stall_reports_json`].
    pub fn explain_all(&self) -> Vec<(u16, stabilizer_core::StallReport)> {
        let mut reports = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            for report in shard.explain_all() {
                reports.push((s as u16, report));
            }
        }
        reports
    }

    /// Sum of all shard send-buffer occupancies, in bytes.
    pub fn send_buffer_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(StabilizerNode::send_buffer_bytes)
            .sum()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Push each shard's current `(frontier, generation)` for
    /// `(stream, key)` into the aggregator after register/change (see
    /// [`ShardedFrontier::adopt`]).
    fn sync_key(&mut self, stream: NodeId, key: &str) {
        for (s, shard) in self.shards.iter().enumerate() {
            if let Some(at) = shard.stability_frontier(stream, key) {
                let out = self.agg.adopt(s as u16, stream, key, at);
                out.into_actions(&mut self.actions);
            }
        }
    }

    /// Drain one shard's pending actions through the aggregator.
    fn drain_shard(&mut self, shard: u16) {
        let node = &mut self.shards[shard as usize];
        node.swap_actions(&mut self.shard_actions);
        for action in self.shard_actions.drain(..) {
            self.agg.fold(shard, action, &mut self.actions);
        }
    }

    fn drain_all_shards(&mut self) {
        for s in 0..self.num_shards() {
            self.drain_shard(s);
        }
    }
}
