//! Cross-crate invariant checking: a shadow-state checker that runs
//! after every simulator step and verifies the safety properties the
//! paper's design rests on, independently of any particular predicate:
//!
//! 1. **ACK monotonicity** — every `(stream, node, type)` cell of every
//!    node's recorder only ever grows (§III-A's overwrite semantics).
//! 2. **Belief ≤ truth** — node `n`'s view of how far node `m` has
//!    acknowledged a stream never exceeds `m`'s own recorder cell, or
//!    what that cell held when an earlier incarnation of `m` was cut
//!    off (a restart from a snapshot persisted before the crash resumes
//!    lower). Acks only propagate *from* the acking node, so a remote
//!    view can never run ahead; this holds under any predicate, any
//!    partition, and across exclusion/reinstatement.
//! 3. **Delivered ⇒ received** — a node's own DELIVERED cell never
//!    exceeds its RECEIVED cell, and never exceeds the high-water mark
//!    of deliveries it actually up-called.
//! 4. **Delivery is an origin prefix** — per `(node, origin)`,
//!    deliveries are consecutive: `1, 2, 3, …` with no gap or repeat
//!    (within one incarnation; a restart resumes from its snapshot).
//! 5. **Frontier never regresses within a generation** — predicate
//!    changes, auto-exclusion, and restore bump the generation; inside
//!    one generation the frontier is monotone, and never exceeds what
//!    the origin actually published, in this incarnation or (up to its
//!    cut) an earlier one.
//! 6. **Suspicion/recovery consistency** — recoveries pair with prior
//!    suspicions, nodes never suspect themselves, and the suspicion log
//!    agrees with `StabilizerNode::is_suspected`.
//!
//! Each node's log is read in the order the node emitted it, one
//! cursor per log; a timestamp orders nothing (one TCP call stamps
//! everything it emits with one time).
//! 7. **Placement isolation** (only with
//!    [`InvariantChecker::with_placement`]) — a node never delivers a
//!    stream it does not replicate, and never holds a non-zero ACK cell
//!    for a `(stream, node)` pair outside the stream's replica set. The
//!    prefix/FIFO and belief checks are automatically scoped to the
//!    replica set because any out-of-set activity already trips this
//!    invariant.
//! 8. **Payload identity** — one `(origin, seq)` names one payload
//!    (its length and hash in the delivery log) wherever and in
//!    whichever incarnation it is delivered: a restored origin never
//!    reuses a sequence number a replica already holds.

use stabilizer_core::{Delivery, DirtyCell, EventLog, PlacementMap, StabilizerNode};
use stabilizer_dsl::{AckTypeId, NodeId, SeqNo, DELIVERED, RECEIVED};
use stabilizer_netsim::SimTime;
use std::collections::HashMap;
use std::sync::Arc;

/// Default cadence of the periodic full-table rescan that backstops the
/// incremental dirty-cell path (see
/// [`InvariantChecker::with_rescan_every`]).
pub const DEFAULT_RESCAN_EVERY: u64 = 16;

/// A read-only view of one node's observable state. The checker
/// consumes one view per node per step.
pub struct NodeView<'a> {
    /// The protocol state machine.
    pub node: &'a StabilizerNode,
    /// What the node emitted, each log in emission order.
    pub log: &'a EventLog,
    /// Recorder cells written since the previous check, drained from the
    /// node's dirty-cell journal (see
    /// [`StabilizerNode::take_ack_journal`]). `Some(cells)` makes the
    /// ACK checks incremental — only those cells are examined, so the
    /// journal must cover **every** write since the last check (or
    /// [`InvariantChecker::note_restart`] resync). `None` falls back to
    /// a full `n² · types` rescan.
    pub dirty: Option<Vec<DirtyCell>>,
}

impl<'a> NodeView<'a> {
    /// The view of `node`, whose observed events went to `log`, with
    /// the recorder cells `dirty` since the previous check (`None`: not
    /// journaled, rescan everything). Every harness builds its views
    /// here: both chaos backends, and an application's through its
    /// actor's `driver()`, which is the log.
    pub fn new(node: &'a StabilizerNode, log: &'a EventLog, dirty: Option<Vec<DirtyCell>>) -> Self {
        NodeView { node, log, dirty }
    }
}

/// A detected invariant violation: which property broke, where, and a
/// human-readable account with the offending values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Virtual time of the check that tripped.
    pub at: SimTime,
    /// The node whose state violated the property.
    pub node: u16,
    /// Short property name (stable, used by tests).
    pub property: &'static str,
    /// Full account.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:?}] node {}: {} violated: {}",
            self.at, self.node, self.property, self.detail
        )
    }
}

/// The shadow-state invariant checker. Feed it every node's view after
/// every simulator step; it incrementally consumes the logs (cursors)
/// and the recorder tables: when a view carries a drained dirty-cell
/// journal ([`NodeView::dirty`]) only the written cells are examined,
/// otherwise it falls back to rescanning the dense table
/// (`n² · types` cells/node).
pub struct InvariantChecker {
    n: usize,
    types: usize,
    /// Shadow copy of each node's recorder table, flat
    /// `[node][(stream*n + peer)*types + ty]`.
    shadow_acks: Vec<Vec<SeqNo>>,
    /// Per-node cursor into `frontier_log`.
    frontier_cursor: Vec<usize>,
    /// Last `(generation, seq)` seen per `(node, stream, key)`.
    frontier_shadow: HashMap<(u16, u16, String), (u32, SeqNo)>,
    /// Per-node cursor into `delivery_log`.
    delivery_cursor: Vec<usize>,
    /// Last delivered seq per `(node, origin)` in the current
    /// incarnation (prefix check).
    last_delivered: HashMap<(u16, u16), SeqNo>,
    /// All-time high-water mark of deliveries per `(node, origin)`
    /// (survives restarts; bounds the DELIVERED self-cell).
    delivered_high: HashMap<(u16, u16), SeqNo>,
    /// The `(length, hash)` of the payload each `(origin, seq)` was
    /// first delivered with, anywhere, in any incarnation.
    payloads: HashMap<(u16, SeqNo), (usize, u64)>,
    /// Per-node cursor into `suspicion_log`.
    suspicion_cursor: Vec<usize>,
    /// Shadow suspicion sets: `suspects[n][p]`.
    suspects: Vec<Vec<bool>>,
    /// Per node, its own cells `[stream*types + ty]` at the highest any
    /// of its earlier incarnations held when cut off by a crash.
    claimed: Vec<Vec<SeqNo>>,
    /// Stream placement, when partial replication is in play
    /// (invariant 7); `None` checks nothing extra (full replication).
    placement: Option<Arc<PlacementMap>>,
    /// Number of [`InvariantChecker::check`] calls so far.
    checks: u64,
    /// Every `rescan_every`-th check ignores the dirty-cell journals and
    /// rescans every node's full recorder table. The incremental path is
    /// only sound if **every** write is journaled; this fallback bounds
    /// the damage of a journal hole (a forged or buggy write that
    /// bypasses the journal) to at most `rescan_every - 1` checks before
    /// it is examined.
    rescan_every: u64,
}

impl InvariantChecker {
    /// Checker for an `n`-node cluster tracking `types` ACK types.
    pub fn new(n: usize, types: usize) -> Self {
        InvariantChecker {
            n,
            types,
            shadow_acks: vec![vec![0; n * n * types]; n],
            frontier_cursor: vec![0; n],
            frontier_shadow: HashMap::new(),
            delivery_cursor: vec![0; n],
            last_delivered: HashMap::new(),
            delivered_high: HashMap::new(),
            payloads: HashMap::new(),
            suspicion_cursor: vec![0; n],
            suspects: vec![vec![false; n]; n],
            claimed: vec![vec![0; n * types]; n],
            placement: None,
            checks: 0,
            rescan_every: DEFAULT_RESCAN_EVERY,
        }
    }

    /// Make the checker placement-aware (invariant 7): deliveries and
    /// non-zero ACK cells outside a stream's replica set are violations
    /// in their own right. Full-replication maps are accepted and check
    /// nothing extra.
    #[must_use]
    pub fn with_placement(mut self, placement: Arc<PlacementMap>) -> Self {
        assert_eq!(
            placement.num_nodes(),
            self.n,
            "placement map is for a different cluster size"
        );
        self.placement = if placement.is_full_replication() {
            None
        } else {
            Some(placement)
        };
        self
    }

    /// Override the full-rescan cadence (default
    /// [`DEFAULT_RESCAN_EVERY`]): every `k`-th check bypasses the
    /// dirty-cell journals and rescans every recorder table, bounding
    /// how long an unjournaled write can hide. Smaller `k` catches
    /// journal holes sooner at higher cost.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0.
    #[must_use]
    pub fn with_rescan_every(mut self, k: u64) -> Self {
        assert!(k > 0, "rescan cadence must be at least 1");
        self.rescan_every = k;
        self
    }

    /// Cluster size.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Tell the checker node `i` is cut off and crashes: `node` is its
    /// state at the cut, the most its peers can have heard of.
    pub fn note_crash(&mut self, i: usize, node: &StabilizerNode) {
        let rec = node.recorder();
        for s in 0..self.n {
            for t in 0..self.types {
                let cell = rec.get(NodeId(s as u16), NodeId(i as u16), AckTypeId(t as u16));
                let claimed = &mut self.claimed[i][s * self.types + t];
                *claimed = (*claimed).max(cell);
            }
        }
    }

    /// Tell the checker node `i` was crash-restarted from a snapshot:
    /// its logs are empty again (fresh `SimNode`), its predicate
    /// generations are fresh, its suspicion state is clear, and its
    /// delivery prefix resumes from the restored DELIVERED self-cells.
    /// Call *after* `replace_actor`, passing the restored machine.
    pub fn note_restart(&mut self, i: usize, restored: &StabilizerNode) {
        self.frontier_cursor[i] = 0;
        self.delivery_cursor[i] = 0;
        self.suspicion_cursor[i] = 0;
        self.frontier_shadow
            .retain(|(node, _, _), _| *node as usize != i);
        for p in 0..self.n {
            self.suspects[i][p] = false;
        }
        // The restored recorder may legitimately be behind the crashed
        // zombie's table (in-flight messages processed after the
        // snapshot are lost, as in a real crash): resync the shadow.
        let rec = restored.recorder();
        for s in 0..self.n {
            for m in 0..self.n {
                for t in 0..self.types {
                    self.shadow_acks[i][(s * self.n + m) * self.types + t] =
                        rec.get(NodeId(s as u16), NodeId(m as u16), AckTypeId(t as u16));
                }
            }
            // Delivery resumes from the restored DELIVERED cell (the
            // harness fast-forwards the receive state to exactly there).
            // State transfer recovers that prefix out of band, so it
            // counts toward the upcall high-water mark even though no
            // in-simulation upcall happened for it.
            let resumed = rec.get(NodeId(s as u16), NodeId(i as u16), DELIVERED);
            self.last_delivered.insert((i as u16, s as u16), resumed);
            let high = self.delivered_high.entry((i as u16, s as u16)).or_insert(0);
            *high = (*high).max(resumed);
        }
    }

    /// Run every check against the current views. `views[i]` must be
    /// node `i`'s view. Returns the first violation found, if any.
    ///
    /// # Panics
    ///
    /// Panics if `views.len()` differs from the configured cluster size.
    pub fn check(
        &mut self,
        now: SimTime,
        views: &[NodeView<'_>],
    ) -> Result<(), InvariantViolation> {
        assert_eq!(views.len(), self.n, "one view per node");
        self.checks += 1;
        self.check_deliveries(now, views)?;
        self.check_acks(now, views)?;
        self.check_frontiers(now, views)?;
        self.check_suspicion(now, views)?;
        Ok(())
    }

    /// Invariant 4 (and the high-water input to invariant 3), over the
    /// delivery log in the order the node emitted it. A §III-E
    /// fast-forward to `seq` is the out-of-band recovery of the prefix
    /// `..=seq`, so delivery resumes at `seq + 1` instead of the last
    /// in-band delivery + 1, and the recovered prefix counts toward the
    /// upcall high-water mark. A node that keeps no delivery log keeps
    /// no catch-ups either, so nothing of it is checked here.
    fn check_deliveries(
        &mut self,
        now: SimTime,
        views: &[NodeView<'_>],
    ) -> Result<(), InvariantViolation> {
        for (i, view) in views.iter().enumerate() {
            let log = &view.log.delivery_log;
            for &(at, origin, seq, delivery) in &log[self.delivery_cursor[i]..] {
                if let Delivery::Upcall { len, hash } = delivery {
                    let first = *self.payloads.entry((origin.0, seq)).or_insert((len, hash));
                    if first != (len, hash) {
                        return Err(InvariantViolation {
                            at: now,
                            node: i as u16,
                            property: "payload-identity",
                            detail: format!(
                                "delivered ({origin:?}, {seq}) at {at:?} as {len} bytes \
                                 hashing {hash:016x}, where it was delivered as {} bytes \
                                 hashing {:016x}",
                                first.0, first.1
                            ),
                        });
                    }
                }
                if let Some(p) = &self.placement {
                    if !p.is_replica(origin, NodeId(i as u16)) {
                        return Err(InvariantViolation {
                            at: now,
                            node: i as u16,
                            property: "non-replica-delivery",
                            detail: format!(
                                "logged ({origin:?}, {seq}) as {delivery:?} at {at:?} without \
                                 being one of the stream's replicas"
                            ),
                        });
                    }
                }
                let key = (i as u16, origin.0);
                let prev = self.last_delivered.entry(key).or_insert(0);
                match delivery {
                    Delivery::CatchUp => *prev = (*prev).max(seq),
                    Delivery::Upcall { .. } if seq == *prev + 1 => *prev = seq,
                    Delivery::Upcall { .. } => {
                        return Err(InvariantViolation {
                            at: now,
                            node: i as u16,
                            property: "delivery-prefix",
                            detail: format!(
                                "delivery of ({origin:?}, {seq}) at {at:?} is not consecutive: \
                                 previous delivered seq for this origin was {prev}"
                            ),
                        });
                    }
                }
                let high = self.delivered_high.entry(key).or_insert(0);
                *high = (*high).max(seq);
            }
            self.delivery_cursor[i] = log.len();
        }
        Ok(())
    }

    /// Invariants 1–3, incremental per node where a journal is present.
    fn check_acks(
        &mut self,
        now: SimTime,
        views: &[NodeView<'_>],
    ) -> Result<(), InvariantViolation> {
        for (i, view) in views.iter().enumerate() {
            let num_types = view.node.recorder().num_types();
            if num_types > self.types {
                self.grow_types(num_types);
            }
            // The periodic full rescan closes the journal-hole blind
            // spot: a write that bypassed the journal (forged state, a
            // journaling bug) is examined here at the latest.
            let rescan = self.checks.is_multiple_of(self.rescan_every);
            match &view.dirty {
                Some(cells) if !rescan => self.check_acks_dirty(now, i, cells, views)?,
                _ => self.check_acks_full(now, i, views)?,
            }
        }
        Ok(())
    }

    /// One ACK-table cell against the shadow: invariant 1 (monotone) and
    /// invariant 2 (belief ≤ truth).
    fn check_one_cell(
        &mut self,
        now: SimTime,
        i: usize,
        stream: NodeId,
        peer: NodeId,
        ty: AckTypeId,
        views: &[NodeView<'_>],
    ) -> Result<(), InvariantViolation> {
        let (s, m, t) = (stream.0 as usize, peer.0 as usize, ty.0 as usize);
        let cur = views[i].node.recorder().get(stream, peer, ty);
        if cur > 0 {
            if let Some(p) = &self.placement {
                if !p.is_replica(stream, NodeId(i as u16)) || !p.is_replica(stream, peer) {
                    return Err(InvariantViolation {
                        at: now,
                        node: i as u16,
                        property: "non-replica-ack",
                        detail: format!(
                            "cell (stream {s}, node {m}, type {t}) = {cur} involves a \
                             non-replica of the stream"
                        ),
                    });
                }
            }
        }
        let idx = (s * self.n + m) * self.types + t;
        let shadow = &mut self.shadow_acks[i];
        if cur < shadow[idx] {
            return Err(InvariantViolation {
                at: now,
                node: i as u16,
                property: "ack-monotonicity",
                detail: format!(
                    "cell (stream {s}, node {m}, type {t}) regressed {} -> {cur}",
                    shadow[idx]
                ),
            });
        }
        shadow[idx] = cur;
        if m != i {
            let truth = views[m].node.recorder().get(stream, peer, ty);
            let truth = truth.max(self.claimed[m][s * self.types + t]);
            if cur > truth {
                return Err(InvariantViolation {
                    at: now,
                    node: i as u16,
                    property: "belief-beyond-truth",
                    detail: format!(
                        "believes node {m} acked stream {s} type {t} up to {cur}, \
                         but node {m}'s own cell is {truth}"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Invariant 3 on node `i`'s own cells for one stream.
    fn check_own_cells(
        &mut self,
        now: SimTime,
        i: usize,
        stream: NodeId,
        view: &NodeView<'_>,
    ) -> Result<(), InvariantViolation> {
        let s = stream.0 as usize;
        let me = NodeId(i as u16);
        let rec = view.node.recorder();
        let received = rec.get(stream, me, RECEIVED);
        let delivered = rec.get(stream, me, DELIVERED);
        if delivered > received {
            return Err(InvariantViolation {
                at: now,
                node: i as u16,
                property: "delivered-beyond-received",
                detail: format!(
                    "stream {s}: DELIVERED cell {delivered} > RECEIVED cell {received}"
                ),
            });
        }
        if view.log.record_deliveries && s != i {
            let high = *self.delivered_high.get(&(i as u16, s as u16)).unwrap_or(&0);
            if delivered > high {
                return Err(InvariantViolation {
                    at: now,
                    node: i as u16,
                    property: "delivered-without-upcall",
                    detail: format!(
                        "stream {s}: DELIVERED cell claims {delivered} but only \
                         {high} deliveries were ever up-called"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Incremental ACK checks for node `i`: examine exactly the cells
    /// its journal reports written since the previous check. Sound
    /// because every checked property can only newly fail at a cell
    /// when *that node's copy of that cell* changes: unwritten cells
    /// keep their shadow (invariant 1); a remote truth cell only grows,
    /// so an unwritten belief that satisfied `belief ≤ truth` still
    /// does (invariant 2); and the upcall high-water mark only grows,
    /// so invariant 3 needs re-checking only when an own RECEIVED /
    /// DELIVERED cell moved.
    fn check_acks_dirty(
        &mut self,
        now: SimTime,
        i: usize,
        cells: &[DirtyCell],
        views: &[NodeView<'_>],
    ) -> Result<(), InvariantViolation> {
        let me = NodeId(i as u16);
        for &(stream, peer, ty) in cells {
            self.check_one_cell(now, i, stream, peer, ty, views)?;
            if peer == me && (ty == RECEIVED || ty == DELIVERED) {
                self.check_own_cells(now, i, stream, &views[i])?;
            }
        }
        Ok(())
    }

    /// Full rescan of node `i`'s recorder table (no journal available).
    fn check_acks_full(
        &mut self,
        now: SimTime,
        i: usize,
        views: &[NodeView<'_>],
    ) -> Result<(), InvariantViolation> {
        for s in 0..self.n {
            let stream = NodeId(s as u16);
            for m in 0..self.n {
                for t in 0..self.types {
                    self.check_one_cell(
                        now,
                        i,
                        stream,
                        NodeId(m as u16),
                        AckTypeId(t as u16),
                        views,
                    )?;
                }
            }
            self.check_own_cells(now, i, stream, &views[i])?;
        }
        Ok(())
    }

    /// Invariant 5.
    fn check_frontiers(
        &mut self,
        now: SimTime,
        views: &[NodeView<'_>],
    ) -> Result<(), InvariantViolation> {
        for (i, view) in views.iter().enumerate() {
            let log = &view.log.frontier_log;
            for (at, update) in &log[self.frontier_cursor[i]..] {
                let origin = update.stream.0 as usize;
                // An origin's own RECEIVED cell is its last publish.
                let before = self.claimed[origin][origin * self.types + RECEIVED.0 as usize];
                let last_published = views[origin].node.last_published().max(before);
                if update.seq > last_published {
                    return Err(InvariantViolation {
                        at: now,
                        node: i as u16,
                        property: "frontier-beyond-published",
                        detail: format!(
                            "frontier for (stream {:?}, key {:?}) reached {} at {at:?}, \
                             but the origin only published {last_published}",
                            update.stream, update.key, update.seq
                        ),
                    });
                }
                let key = (i as u16, update.stream.0, update.key.clone());
                if let Some(&(gen, seq)) = self.frontier_shadow.get(&key) {
                    if update.generation == gen && update.seq < seq {
                        return Err(InvariantViolation {
                            at: now,
                            node: i as u16,
                            property: "frontier-regression",
                            detail: format!(
                                "frontier for (stream {:?}, key {:?}) regressed {seq} -> {} \
                                 within generation {gen}",
                                update.stream, update.key, update.seq
                            ),
                        });
                    }
                }
                self.frontier_shadow
                    .insert(key, (update.generation, update.seq));
            }
            self.frontier_cursor[i] = log.len();
        }
        Ok(())
    }

    /// Invariant 6, over the suspicion log in the order the node
    /// emitted it: one sweep may span several flips of one peer.
    fn check_suspicion(
        &mut self,
        now: SimTime,
        views: &[NodeView<'_>],
    ) -> Result<(), InvariantViolation> {
        for (i, view) in views.iter().enumerate() {
            let log = &view.log.suspicion_log;
            for &(at, peer, suspected) in &log[self.suspicion_cursor[i]..] {
                let p = peer.0 as usize;
                if suspected && p == i {
                    return Err(InvariantViolation {
                        at: now,
                        node: i as u16,
                        property: "self-suspicion",
                        detail: format!("suspected itself at {at:?}"),
                    });
                }
                if !suspected && !self.suspects[i][p] {
                    return Err(InvariantViolation {
                        at: now,
                        node: i as u16,
                        property: "unpaired-recovery",
                        detail: format!(
                            "recovery of {peer:?} at {at:?} without a preceding suspicion"
                        ),
                    });
                }
                self.suspects[i][p] = suspected;
            }
            self.suspicion_cursor[i] = log.len();
            for p in 0..self.n {
                let actual = view.node.is_suspected(NodeId(p as u16));
                if actual != self.suspects[i][p] {
                    return Err(InvariantViolation {
                        at: now,
                        node: i as u16,
                        property: "suspicion-log-disagreement",
                        detail: format!(
                            "is_suspected({p}) = {actual} but the suspicion log implies {}",
                            self.suspects[i][p]
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn grow_types(&mut self, types: usize) {
        let n = self.n;
        for shadow in &mut self.shadow_acks {
            let mut new = vec![0; n * n * types];
            for cell in 0..n * n {
                for t in 0..self.types {
                    new[cell * types + t] = shadow[cell * self.types + t];
                }
            }
            *shadow = new;
        }
        self.types = types;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use stabilizer_core::{ClusterConfig, Event, FrontierUpdate};
    use stabilizer_dsl::AckTypeRegistry;
    use std::sync::Arc;

    fn two_nodes() -> Vec<StabilizerNode> {
        let cfg = ClusterConfig::parse("az A 0 1\n").unwrap();
        let acks = Arc::new(AckTypeRegistry::new());
        (0..2)
            .map(|i| StabilizerNode::new(cfg.clone(), NodeId(i), Arc::clone(&acks)).unwrap())
            .collect()
    }

    /// One empty log per node.
    fn logs(n: usize) -> Vec<EventLog> {
        (0..n).map(|_| EventLog::default()).collect()
    }

    /// Unjournaled views of `nodes`, node `i`'s events in `logs[i]`.
    fn views<'a>(nodes: &'a [StabilizerNode], logs: &'a [EventLog]) -> Vec<NodeView<'a>> {
        nodes
            .iter()
            .zip(logs)
            .map(|(node, log)| NodeView::new(node, log, None))
            .collect()
    }

    fn deliver(log: &mut EventLog, t: u64, origin: u16, seq: SeqNo, payload: &'static [u8]) {
        let payload = Bytes::from_static(payload);
        let event = Event::Deliver {
            origin: NodeId(origin),
            seq,
            payload: &payload,
        };
        log.record(SimTime(t), &event);
    }

    fn catch_up(log: &mut EventLog, t: u64, stream: u16, seq: SeqNo) {
        let event = Event::CatchUp {
            stream: NodeId(stream),
            seq,
        };
        log.record(SimTime(t), &event);
    }

    fn flip(log: &mut EventLog, t: u64, node: u16, suspected: bool) {
        let node = NodeId(node);
        let event = if suspected {
            Event::Suspected { node }
        } else {
            Event::Recovered { node }
        };
        log.record(SimTime(t), &event);
    }

    /// Node 0's frontier log over stream 0, key `k`: `(seq, generation)`
    /// advances, all at time zero.
    fn frontiers(advances: &[(SeqNo, u32)]) -> EventLog {
        let mut log = EventLog::default();
        for &(seq, generation) in advances {
            let update = FrontierUpdate {
                stream: NodeId(0),
                key: "k".to_string(),
                seq,
                generation,
            };
            log.record(SimTime::ZERO, &Event::Frontier(&update));
        }
        log
    }

    #[test]
    fn clean_cluster_passes() {
        let mut nodes = two_nodes();
        let _ = nodes[0].publish(Bytes::from_static(b"x")).unwrap();
        let mut checker = InvariantChecker::new(2, 3);
        let logs = logs(2);
        checker.check(SimTime::ZERO, &views(&nodes, &logs)).unwrap();
    }

    #[test]
    fn belief_beyond_truth_is_caught() {
        let mut nodes = two_nodes();
        let mut checker = InvariantChecker::new(2, 3);
        // Forge mirror 1's belief through the wire path: an AckBatch
        // from node 0 claiming it holds its stream 0 up to seq 7, while
        // node 0 published nothing. (Node 0 itself, the origin, refuses
        // a report of its stream above what it assigned.)
        use stabilizer_core::{Ack, WireMsg};
        nodes[1].on_message(
            0,
            NodeId(0),
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(0),
                ty: RECEIVED,
                seq: 7,
            }]),
        );
        let logs = logs(2);
        let err = checker
            .check(SimTime::ZERO, &views(&nodes, &logs))
            .unwrap_err();
        assert_eq!(err.property, "belief-beyond-truth");
    }

    #[test]
    fn delivery_gap_is_caught() {
        let nodes = two_nodes();
        let mut checker = InvariantChecker::new(2, 3);
        let mut logs = logs(2);
        deliver(&mut logs[0], 0, 1, 2, b""); // seq 1 missing
        let err = checker
            .check(SimTime::ZERO, &views(&nodes, &logs))
            .unwrap_err();
        assert_eq!(err.property, "delivery-prefix");
    }

    /// A restored origin that reused a sequence number: node 0 delivered
    /// `(1, 1)` as one payload, node 1 delivers it as another. Two checks
    /// apart, as across a crash and a restore.
    #[test]
    fn one_origin_seq_delivered_as_two_payloads_is_caught() {
        let nodes = two_nodes();
        let mut checker = InvariantChecker::new(2, 3);
        let mut logs = logs(2);
        deliver(&mut logs[0], 1, 1, 1, b"a");
        checker.check(SimTime(1), &views(&nodes, &logs)).unwrap();
        checker.check(SimTime(2), &views(&nodes, &logs)).unwrap();
        deliver(&mut logs[1], 3, 1, 1, b"bcd");
        let err = checker
            .check(SimTime(3), &views(&nodes, &logs))
            .unwrap_err();
        assert_eq!(err.property, "payload-identity");
    }

    #[test]
    fn catch_up_bridges_the_delivery_prefix() {
        // A §III-E fast-forward to seq 5 at t=10 makes the next in-band
        // delivery seq 6 legal even though seqs 1..=5 were never
        // up-called; without the catch-up the same log is a violation.
        let nodes = two_nodes();
        let mut bridged = logs(2);
        catch_up(&mut bridged[0], 10, 1, 5);
        deliver(&mut bridged[0], 20, 1, 6, b"");
        let mut checker = InvariantChecker::new(2, 3);
        checker
            .check(SimTime(20), &views(&nodes, &bridged))
            .unwrap();

        let mut gapped = logs(2);
        deliver(&mut gapped[0], 20, 1, 6, b"");
        let mut checker = InvariantChecker::new(2, 3);
        let err = checker
            .check(SimTime(20), &views(&nodes, &gapped))
            .unwrap_err();
        assert_eq!(err.property, "delivery-prefix");
    }

    #[test]
    fn one_sweep_spanning_suspect_recover_suspect_is_replayed_in_log_order() {
        // A stalled harness thread sees three flips of one peer at once.
        // Applied kind by kind (every suspicion, then every recovery)
        // they read S,S,R and end "not suspected" against a node that
        // is; so do they if a shared timestamp is broken suspicion-first.
        use stabilizer_core::{Options, TimerKind};
        let opts = Options::default().failure_timeout_millis(10);
        let cfg = ClusterConfig::parse("az A 0 1\n")
            .unwrap()
            .with_options(opts);
        let acks = Arc::new(AckTypeRegistry::new());
        let mut nodes: Vec<StabilizerNode> = (0..2)
            .map(|i| StabilizerNode::new(cfg.clone(), NodeId(i), Arc::clone(&acks)).unwrap())
            .collect();
        nodes[0].on_timer(TimerKind::Failure, 1_000_000_000);
        assert!(nodes[0].is_suspected(NodeId(1)));
        for times in [[10, 20, 30], [10, 10, 10]] {
            let mut logs = logs(2);
            flip(&mut logs[0], times[0], 1, true);
            flip(&mut logs[0], times[1], 1, false);
            flip(&mut logs[0], times[2], 1, true);
            let mut checker = InvariantChecker::new(2, 3);
            checker.check(SimTime(40), &views(&nodes, &logs)).unwrap();
        }

        // The order is the log's, not "whatever pairs up": a recovery
        // logged before the only suspicion is still unpaired.
        let mut logs = logs(2);
        flip(&mut logs[0], 20, 1, false);
        flip(&mut logs[0], 30, 1, true);
        let mut checker = InvariantChecker::new(2, 3);
        let err = checker
            .check(SimTime(40), &views(&nodes, &logs))
            .unwrap_err();
        assert_eq!(err.property, "unpaired-recovery");
    }

    #[test]
    fn catch_up_after_a_gapped_delivery_does_not_excuse_it() {
        // The log is replayed in order: a fast-forward logged after a
        // gapped delivery cannot retroactively legalize it.
        let nodes = two_nodes();
        let mut logs = logs(2);
        deliver(&mut logs[0], 20, 1, 6, b"");
        catch_up(&mut logs[0], 30, 1, 5);
        let mut checker = InvariantChecker::new(2, 3);
        let err = checker
            .check(SimTime(30), &views(&nodes, &logs))
            .unwrap_err();
        assert_eq!(err.property, "delivery-prefix");
    }

    #[test]
    fn frontier_regression_within_generation_is_caught() {
        let mut nodes = two_nodes();
        for _ in 0..5 {
            nodes[0].publish(Bytes::from_static(b"p")).unwrap();
        }
        // 3 -> 2 is a regression within generation 0.
        let logs = [frontiers(&[(3, 0), (2, 0)]), EventLog::default()];
        let mut checker = InvariantChecker::new(2, 3);
        let err = checker
            .check(SimTime::ZERO, &views(&nodes, &logs))
            .unwrap_err();
        assert_eq!(err.property, "frontier-regression");
    }

    #[test]
    fn journaled_writes_drive_the_incremental_ack_checks() {
        let mut nodes = two_nodes();
        nodes[1].enable_ack_journal();
        use stabilizer_core::{Ack, WireMsg};
        nodes[1].on_message(
            0,
            NodeId(0),
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(0),
                ty: RECEIVED,
                seq: 7,
            }]),
        );
        let dirty = nodes[1].take_ack_journal();
        assert!(!dirty.is_empty(), "the forged ack write was journaled");
        let mut checker = InvariantChecker::new(2, 3);
        let logs = logs(2);
        let views = vec![
            NodeView::new(&nodes[0], &logs[0], Some(Vec::new())),
            NodeView::new(&nodes[1], &logs[1], Some(dirty)),
        ];
        let err = checker.check(SimTime::ZERO, &views).unwrap_err();
        assert_eq!(err.property, "belief-beyond-truth");
    }

    #[test]
    fn unjournaled_write_is_caught_by_periodic_rescan() {
        // A forged belief that is NOT in the journal slips past the
        // purely incremental checks (the contract is that every recorder
        // write is journaled) — but only until the next periodic full
        // rescan. This asserts the former blind spot is closed: the hole
        // survives at most `rescan_every - 1` checks.
        let mut nodes = two_nodes();
        use stabilizer_core::{Ack, WireMsg};
        nodes[1].on_message(
            0,
            NodeId(0),
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(0),
                ty: RECEIVED,
                seq: 7,
            }]),
        );
        let logs = logs(2);
        let silent = || -> Vec<NodeView<'_>> {
            nodes
                .iter()
                .zip(&logs)
                // The journal is silent about the write.
                .map(|(n, log)| NodeView::new(n, log, Some(Vec::new())))
                .collect()
        };
        let rescan_every = 4;
        let mut checker = InvariantChecker::new(2, 3).with_rescan_every(rescan_every);
        // The incremental checks miss the forgery...
        for _ in 0..rescan_every - 1 {
            checker.check(SimTime::ZERO, &silent()).unwrap();
        }
        // ...but the k-th check full-rescans and trips on it.
        let err = checker.check(SimTime::ZERO, &silent()).unwrap_err();
        assert_eq!(err.property, "belief-beyond-truth");

        // The default cadence closes the hole too, within its window.
        let mut checker = InvariantChecker::new(2, 3);
        let caught =
            (0..DEFAULT_RESCAN_EVERY).any(|_| checker.check(SimTime::ZERO, &silent()).is_err());
        assert!(caught, "default rescan cadence must examine the forgery");
    }

    #[test]
    fn non_replica_delivery_is_a_violation() {
        // Four nodes; stream 0 lives on {0, 1}. A delivery of stream 0
        // logged at node 2 trips invariant 7 on its own, even though it
        // is a perfectly consecutive prefix.
        let cfg = ClusterConfig::parse("az A 0 1\naz B 2 3\nreplicate 0 0 1\n").unwrap();
        let acks = Arc::new(AckTypeRegistry::new());
        let nodes: Vec<StabilizerNode> = (0..4)
            .map(|i| StabilizerNode::new(cfg.clone(), NodeId(i), Arc::clone(&acks)).unwrap())
            .collect();
        let placement = cfg.placement().clone();
        let mut rogue = logs(4);
        deliver(&mut rogue[2], 0, 0, 1, b"");
        let mut checker = InvariantChecker::new(4, 3).with_placement(placement.clone());
        let err = checker
            .check(SimTime::ZERO, &views(&nodes, &rogue))
            .unwrap_err();
        assert_eq!(err.property, "non-replica-delivery");

        // The same log at replica 1 is fine.
        let mut replica = logs(4);
        deliver(&mut replica[1], 0, 0, 1, b"");
        let mut checker = InvariantChecker::new(4, 3).with_placement(placement);
        checker
            .check(SimTime::ZERO, &views(&nodes, &replica))
            .unwrap();
    }

    #[test]
    fn non_replica_ack_cell_is_a_violation() {
        // A recorded ack crediting non-replica 2 on stream 0 must trip
        // invariant 7. The placement-guarded wire path drops such acks,
        // so forge the cell by running mirror 1 on a full-replication
        // config while the checker holds the partial map — exactly the
        // drift this invariant exists to catch.
        let partial = ClusterConfig::parse("az A 0 1\naz B 2 3\nreplicate 0 0 1\n").unwrap();
        let full = ClusterConfig::parse("az A 0 1\naz B 2 3\n").unwrap();
        let acks = Arc::new(AckTypeRegistry::new());
        let mut nodes: Vec<StabilizerNode> = (0..4)
            .map(|i| StabilizerNode::new(full.clone(), NodeId(i), Arc::clone(&acks)).unwrap())
            .collect();
        let placement = partial.placement().clone();
        use stabilizer_core::{Ack, WireMsg};
        nodes[1].on_message(
            0,
            NodeId(2),
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(0),
                ty: RECEIVED,
                seq: 3,
            }]),
        );
        let mut checker = InvariantChecker::new(4, 3).with_placement(placement);
        let logs = logs(4);
        let err = checker
            .check(SimTime::ZERO, &views(&nodes, &logs))
            .unwrap_err();
        assert_eq!(err.property, "non-replica-ack");
    }

    #[test]
    fn frontier_drop_across_generations_is_allowed() {
        let mut nodes = two_nodes();
        for _ in 0..5 {
            nodes[0].publish(Bytes::from_static(b"p")).unwrap();
        }
        let logs = [frontiers(&[(3, 0), (1, 1)]), EventLog::default()];
        let mut checker = InvariantChecker::new(2, 3);
        checker.check(SimTime::ZERO, &views(&nodes, &logs)).unwrap();
    }
}
