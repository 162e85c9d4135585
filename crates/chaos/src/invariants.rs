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
//!    suspicions, nodes never suspect themselves, and the logs agree
//!    with `StabilizerNode::is_suspected`.
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

use stabilizer_core::sim_driver::{AppHooks, SimNode};
use stabilizer_core::{DirtyCell, EventLog, FrontierUpdate, PlacementMap, StabilizerNode};
use stabilizer_dsl::{AckTypeId, NodeId, SeqNo, DELIVERED, RECEIVED};
use stabilizer_netsim::SimTime;
use std::collections::HashMap;
use std::sync::Arc;

/// Default cadence of the periodic full-table rescan that backstops the
/// incremental dirty-cell path (see
/// [`InvariantChecker::with_rescan_every`]).
pub const DEFAULT_RESCAN_EVERY: u64 = 16;

/// A read-only view of one node's observable state, assembled by
/// [`ChaosObservable::chaos_view`]. The checker consumes one view per
/// node per step.
pub struct NodeView<'a> {
    /// The protocol state machine.
    pub node: &'a StabilizerNode,
    /// Timestamped frontier log.
    pub frontier_log: &'a [(SimTime, FrontierUpdate)],
    /// Timestamped delivery log: `(time, origin, seq, length, hash)`.
    pub delivery_log: &'a [(SimTime, NodeId, SeqNo, usize, u64)],
    /// Suspicion log.
    pub suspected_log: &'a [(SimTime, NodeId)],
    /// Recovery log.
    pub recovered_log: &'a [(SimTime, NodeId)],
    /// Out-of-band stream fast-forwards from §III-E state transfer:
    /// `(time, stream, seq)` — delivery of `stream` resumes *after*
    /// `seq`. The prefix check merges this log with the delivery log by
    /// timestamp (catch-ups first on ties: the fast-forward happens
    /// before the deliveries it releases).
    pub catchup_log: &'a [(SimTime, NodeId, SeqNo)],
    /// Whether the delivery log is populated.
    pub records_deliveries: bool,
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
    /// journaled, rescan everything). Both chaos backends and
    /// [`ChaosObservable`] build their views here.
    pub fn new(node: &'a StabilizerNode, log: &'a EventLog, dirty: Option<Vec<DirtyCell>>) -> Self {
        NodeView {
            node,
            frontier_log: &log.frontier_log,
            delivery_log: &log.delivery_log,
            suspected_log: &log.suspected_log,
            recovered_log: &log.recovered_log,
            catchup_log: &log.catchup_log,
            records_deliveries: log.record_deliveries,
            dirty,
        }
    }
}

/// Anything the checker can observe. Implemented for [`SimNode`]: every
/// application actor (K/V store, both pub/sub brokers, quorum register,
/// backup service) embeds one and exposes it as `driver()`, so their
/// harnesses view a node through `driver().chaos_view()` and reuse the
/// checker unchanged.
pub trait ChaosObservable {
    /// Assemble the checker's view of this node.
    fn chaos_view(&self) -> NodeView<'_>;
}

impl<H: AppHooks> ChaosObservable for SimNode<H> {
    fn chaos_view(&self) -> NodeView<'_> {
        NodeView::new(self.inner(), self, None)
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
    /// Per-node cursor into `catchup_log`.
    catchup_cursor: Vec<usize>,
    /// Last delivered seq per `(node, origin)` in the current
    /// incarnation (prefix check).
    last_delivered: HashMap<(u16, u16), SeqNo>,
    /// All-time high-water mark of deliveries per `(node, origin)`
    /// (survives restarts; bounds the DELIVERED self-cell).
    delivered_high: HashMap<(u16, u16), SeqNo>,
    /// The `(length, hash)` of the payload each `(origin, seq)` was
    /// first delivered with, anywhere, in any incarnation.
    payloads: HashMap<(u16, SeqNo), (usize, u64)>,
    /// Per-node cursors into the suspicion/recovery logs.
    suspected_cursor: Vec<usize>,
    recovered_cursor: Vec<usize>,
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
            catchup_cursor: vec![0; n],
            last_delivered: HashMap::new(),
            delivered_high: HashMap::new(),
            payloads: HashMap::new(),
            suspected_cursor: vec![0; n],
            recovered_cursor: vec![0; n],
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
        self.catchup_cursor[i] = 0;
        self.suspected_cursor[i] = 0;
        self.recovered_cursor[i] = 0;
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

    /// Invariant 4 (and the high-water input to invariant 3). The
    /// delivery log is merged with the catch-up log by timestamp
    /// (catch-ups first on ties): a §III-E fast-forward to `seq` is the
    /// out-of-band recovery of the prefix `..=seq`, so delivery resumes
    /// at `seq + 1` instead of the last in-band delivery + 1, and the
    /// recovered prefix counts toward the upcall high-water mark.
    fn check_deliveries(
        &mut self,
        now: SimTime,
        views: &[NodeView<'_>],
    ) -> Result<(), InvariantViolation> {
        for (i, view) in views.iter().enumerate() {
            if !view.records_deliveries {
                self.delivery_cursor[i] = view.delivery_log.len();
                self.catchup_cursor[i] = view.catchup_log.len();
                continue;
            }
            let log = &view.delivery_log[self.delivery_cursor[i]..];
            let catchups = &view.catchup_log[self.catchup_cursor[i]..];
            let (mut d, mut c) = (0usize, 0usize);
            while d < log.len() || c < catchups.len() {
                let take_catchup = match (log.get(d), catchups.get(c)) {
                    (Some(&(dat, ..)), Some(&(cat, ..))) => cat <= dat,
                    (None, Some(_)) => true,
                    _ => false,
                };
                if take_catchup {
                    let (at, stream, seq) = catchups[c];
                    c += 1;
                    if let Some(p) = &self.placement {
                        if !p.is_replica(stream, NodeId(i as u16)) {
                            return Err(InvariantViolation {
                                at: now,
                                node: i as u16,
                                property: "non-replica-delivery",
                                detail: format!(
                                    "caught up stream {stream:?} to {seq} at {at:?} \
                                     without being one of its replicas"
                                ),
                            });
                        }
                    }
                    let key = (i as u16, stream.0);
                    let entry = self.last_delivered.entry(key).or_insert(0);
                    *entry = (*entry).max(seq);
                    let high = self.delivered_high.entry(key).or_insert(0);
                    *high = (*high).max(seq);
                    continue;
                }
                let (at, origin, seq, len, hash) = log[d];
                d += 1;
                let first = *self.payloads.entry((origin.0, seq)).or_insert((len, hash));
                if first != (len, hash) {
                    return Err(InvariantViolation {
                        at: now,
                        node: i as u16,
                        property: "payload-identity",
                        detail: format!(
                            "delivered ({origin:?}, {seq}) at {at:?} as {len} bytes hashing \
                             {hash:016x}, where it was delivered as {} bytes hashing {:016x}",
                            first.0, first.1
                        ),
                    });
                }
                if let Some(p) = &self.placement {
                    if !p.is_replica(origin, NodeId(i as u16)) {
                        return Err(InvariantViolation {
                            at: now,
                            node: i as u16,
                            property: "non-replica-delivery",
                            detail: format!(
                                "delivered ({origin:?}, {seq}) at {at:?} without being \
                                 one of the stream's replicas"
                            ),
                        });
                    }
                }
                let key = (i as u16, origin.0);
                let prev = *self.last_delivered.get(&key).unwrap_or(&0);
                if seq != prev + 1 {
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
                self.last_delivered.insert(key, seq);
                let high = self.delivered_high.entry(key).or_insert(0);
                *high = (*high).max(seq);
            }
            self.delivery_cursor[i] = view.delivery_log.len();
            self.catchup_cursor[i] = view.catchup_log.len();
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
        if view.records_deliveries && s != i {
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
            let log = view.frontier_log;
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

    /// Invariant 6.
    fn check_suspicion(
        &mut self,
        now: SimTime,
        views: &[NodeView<'_>],
    ) -> Result<(), InvariantViolation> {
        for (i, view) in views.iter().enumerate() {
            // One sweep can span several flips of one peer (a stalled
            // harness thread: suspected, recovered, suspected again), so
            // the two logs are replayed merged by timestamp, not one
            // after the other. On a tie the suspicion goes first: a node
            // can suspect a peer and hear from it within one timestamp,
            // but not the reverse — hearing from it resets the silence
            // the failure timeout is measured from.
            let suspected = &view.suspected_log[self.suspected_cursor[i]..];
            let recovered = &view.recovered_log[self.recovered_cursor[i]..];
            let (mut s, mut r) = (0usize, 0usize);
            while s < suspected.len() || r < recovered.len() {
                let take_suspected = match (suspected.get(s), recovered.get(r)) {
                    (Some(&(sat, _)), Some(&(rat, _))) => sat <= rat,
                    (Some(_), None) => true,
                    _ => false,
                };
                if take_suspected {
                    let (at, peer) = suspected[s];
                    s += 1;
                    if peer.0 as usize == i {
                        return Err(InvariantViolation {
                            at: now,
                            node: i as u16,
                            property: "self-suspicion",
                            detail: format!("suspected itself at {at:?}"),
                        });
                    }
                    self.suspects[i][peer.0 as usize] = true;
                } else {
                    let (at, peer) = recovered[r];
                    r += 1;
                    if !self.suspects[i][peer.0 as usize] {
                        return Err(InvariantViolation {
                            at: now,
                            node: i as u16,
                            property: "unpaired-recovery",
                            detail: format!(
                                "recovery of {peer:?} at {at:?} without a preceding suspicion"
                            ),
                        });
                    }
                    self.suspects[i][peer.0 as usize] = false;
                }
            }
            self.suspected_cursor[i] = view.suspected_log.len();
            self.recovered_cursor[i] = view.recovered_log.len();
            for p in 0..self.n {
                let actual = view.node.is_suspected(NodeId(p as u16));
                if actual != self.suspects[i][p] {
                    return Err(InvariantViolation {
                        at: now,
                        node: i as u16,
                        property: "suspicion-log-disagreement",
                        detail: format!(
                            "is_suspected({p}) = {actual} but the suspicion/recovery logs \
                             imply {}",
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
    use stabilizer_core::ClusterConfig;
    use stabilizer_dsl::AckTypeRegistry;
    use std::sync::Arc;

    fn two_nodes() -> Vec<StabilizerNode> {
        let cfg = ClusterConfig::parse("az A 0 1\n").unwrap();
        let acks = Arc::new(AckTypeRegistry::new());
        (0..2)
            .map(|i| StabilizerNode::new(cfg.clone(), NodeId(i), Arc::clone(&acks)).unwrap())
            .collect()
    }

    fn view(node: &StabilizerNode) -> NodeView<'_> {
        NodeView {
            node,
            frontier_log: &[],
            delivery_log: &[],
            suspected_log: &[],
            recovered_log: &[],
            catchup_log: &[],
            records_deliveries: false,
            dirty: None,
        }
    }

    #[test]
    fn clean_cluster_passes() {
        let mut nodes = two_nodes();
        let _ = nodes[0].publish(Bytes::from_static(b"x")).unwrap();
        let mut checker = InvariantChecker::new(2, 3);
        let views: Vec<NodeView<'_>> = nodes.iter().map(view).collect();
        checker.check(SimTime::ZERO, &views).unwrap();
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
        let views: Vec<NodeView<'_>> = nodes.iter().map(view).collect();
        let err = checker.check(SimTime::ZERO, &views).unwrap_err();
        assert_eq!(err.property, "belief-beyond-truth");
    }

    #[test]
    fn delivery_gap_is_caught() {
        let nodes = two_nodes();
        let mut checker = InvariantChecker::new(2, 3);
        let gap_log = [(SimTime::ZERO, NodeId(1), 2u64, 0usize, 0u64)]; // seq 1 missing
        let views = vec![
            NodeView {
                delivery_log: &gap_log,
                records_deliveries: true,
                ..view(&nodes[0])
            },
            view(&nodes[1]),
        ];
        let err = checker.check(SimTime::ZERO, &views).unwrap_err();
        assert_eq!(err.property, "delivery-prefix");
    }

    /// A restored origin that reused a sequence number: node 0 delivered
    /// `(1, 1)` as one payload, node 1 delivers it as another. Two checks
    /// apart, as across a crash and a restore.
    #[test]
    fn one_origin_seq_delivered_as_two_payloads_is_caught() {
        let nodes = two_nodes();
        let mut checker = InvariantChecker::new(2, 3);
        let first = [(SimTime(1), NodeId(1), 1u64, 1usize, 0xa)];
        let views = vec![
            NodeView {
                delivery_log: &first,
                records_deliveries: true,
                ..view(&nodes[0])
            },
            view(&nodes[1]),
        ];
        checker.check(SimTime(1), &views).unwrap();
        let views = vec![
            NodeView {
                delivery_log: &first,
                records_deliveries: true,
                ..view(&nodes[0])
            },
            view(&nodes[1]),
        ];
        checker.check(SimTime(2), &views).unwrap();
        let reused = [(SimTime(3), NodeId(1), 1u64, 3usize, 0xb)];
        let views = vec![
            NodeView {
                delivery_log: &first,
                records_deliveries: true,
                ..view(&nodes[0])
            },
            NodeView {
                delivery_log: &reused,
                records_deliveries: true,
                ..view(&nodes[1])
            },
        ];
        let err = checker.check(SimTime(3), &views).unwrap_err();
        assert_eq!(err.property, "payload-identity");
    }

    #[test]
    fn catch_up_bridges_the_delivery_prefix() {
        // A §III-E fast-forward to seq 5 at t=10 makes the next in-band
        // delivery seq 6 legal even though seqs 1..=5 were never
        // up-called; without the catch-up the same log is a violation.
        let nodes = two_nodes();
        let delivery = [(SimTime(20), NodeId(1), 6u64, 0usize, 0u64)];
        let catchup = [(SimTime(10), NodeId(1), 5u64)];
        let mut checker = InvariantChecker::new(2, 3);
        let views = vec![
            NodeView {
                delivery_log: &delivery,
                catchup_log: &catchup,
                records_deliveries: true,
                ..view(&nodes[0])
            },
            view(&nodes[1]),
        ];
        checker.check(SimTime(20), &views).unwrap();

        let mut checker = InvariantChecker::new(2, 3);
        let views = vec![
            NodeView {
                delivery_log: &delivery,
                records_deliveries: true,
                ..view(&nodes[0])
            },
            view(&nodes[1]),
        ];
        let err = checker.check(SimTime(20), &views).unwrap_err();
        assert_eq!(err.property, "delivery-prefix");
    }

    #[test]
    fn one_sweep_spanning_suspect_recover_suspect_is_replayed_in_time_order() {
        // A stalled harness thread sees three flips of one peer at once.
        // Applied log by log (every suspicion, then every recovery) they
        // read S,S,R and end "not suspected" against a node that is.
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
        let suspected = [(SimTime(10), NodeId(1)), (SimTime(30), NodeId(1))];
        let recovered = [(SimTime(20), NodeId(1))];
        let mut checker = InvariantChecker::new(2, 3);
        let views = vec![
            NodeView {
                suspected_log: &suspected,
                recovered_log: &recovered,
                ..view(&nodes[0])
            },
            view(&nodes[1]),
        ];
        checker.check(SimTime(40), &views).unwrap();

        // The order is the timestamps', not "whatever pairs up": a
        // recovery logged before the only suspicion is still unpaired.
        let mut checker = InvariantChecker::new(2, 3);
        let views = vec![
            NodeView {
                suspected_log: &suspected[1..],
                recovered_log: &recovered,
                ..view(&nodes[0])
            },
            view(&nodes[1]),
        ];
        let err = checker.check(SimTime(40), &views).unwrap_err();
        assert_eq!(err.property, "unpaired-recovery");
    }

    #[test]
    fn catch_up_after_a_gapped_delivery_does_not_excuse_it() {
        // The merge is timestamp-ordered: a fast-forward at t=30 cannot
        // retroactively legalize a gapped delivery at t=20.
        let nodes = two_nodes();
        let delivery = [(SimTime(20), NodeId(1), 6u64, 0usize, 0u64)];
        let catchup = [(SimTime(30), NodeId(1), 5u64)];
        let mut checker = InvariantChecker::new(2, 3);
        let views = vec![
            NodeView {
                delivery_log: &delivery,
                catchup_log: &catchup,
                records_deliveries: true,
                ..view(&nodes[0])
            },
            view(&nodes[1]),
        ];
        let err = checker.check(SimTime(30), &views).unwrap_err();
        assert_eq!(err.property, "delivery-prefix");
    }

    #[test]
    fn frontier_regression_within_generation_is_caught() {
        let mut nodes = two_nodes();
        for _ in 0..5 {
            nodes[0].publish(Bytes::from_static(b"p")).unwrap();
        }
        let mk = |seq, generation| FrontierUpdate {
            stream: NodeId(0),
            key: "k".to_string(),
            seq,
            generation,
        };
        let log = [
            (SimTime::ZERO, mk(3, 0)),
            (SimTime::ZERO, mk(2, 0)), // regression, same generation
        ];
        let mut checker = InvariantChecker::new(2, 3);
        let views = vec![
            NodeView {
                frontier_log: &log,
                ..view(&nodes[0])
            },
            view(&nodes[1]),
        ];
        let err = checker.check(SimTime::ZERO, &views).unwrap_err();
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
        let views = vec![
            NodeView {
                dirty: Some(Vec::new()),
                ..view(&nodes[0])
            },
            NodeView {
                dirty: Some(dirty),
                ..view(&nodes[1])
            },
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
        fn silent(nodes: &[StabilizerNode]) -> Vec<NodeView<'_>> {
            nodes
                .iter()
                .map(|n| NodeView {
                    dirty: Some(Vec::new()), // journal silent about the write
                    ..view(n)
                })
                .collect()
        }
        let rescan_every = 4;
        let mut checker = InvariantChecker::new(2, 3).with_rescan_every(rescan_every);
        // The incremental checks miss the forgery...
        for _ in 0..rescan_every - 1 {
            checker.check(SimTime::ZERO, &silent(&nodes)).unwrap();
        }
        // ...but the k-th check full-rescans and trips on it.
        let err = checker.check(SimTime::ZERO, &silent(&nodes)).unwrap_err();
        assert_eq!(err.property, "belief-beyond-truth");

        // The default cadence closes the hole too, within its window.
        let mut checker = InvariantChecker::new(2, 3);
        let caught = (0..DEFAULT_RESCAN_EVERY)
            .any(|_| checker.check(SimTime::ZERO, &silent(&nodes)).is_err());
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
        let rogue_log = [(SimTime::ZERO, NodeId(0), 1u64, 0usize, 0u64)];
        let mut checker = InvariantChecker::new(4, 3).with_placement(placement.clone());
        let views = vec![
            view(&nodes[0]),
            view(&nodes[1]),
            NodeView {
                delivery_log: &rogue_log,
                records_deliveries: true,
                ..view(&nodes[2])
            },
            view(&nodes[3]),
        ];
        let err = checker.check(SimTime::ZERO, &views).unwrap_err();
        assert_eq!(err.property, "non-replica-delivery");

        // The same log at replica 1 is fine.
        let mut checker = InvariantChecker::new(4, 3).with_placement(placement);
        let views = vec![
            view(&nodes[0]),
            NodeView {
                delivery_log: &rogue_log,
                records_deliveries: true,
                ..view(&nodes[1])
            },
            view(&nodes[2]),
            view(&nodes[3]),
        ];
        checker.check(SimTime::ZERO, &views).unwrap();
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
        let views: Vec<NodeView<'_>> = nodes.iter().map(view).collect();
        let err = checker.check(SimTime::ZERO, &views).unwrap_err();
        assert_eq!(err.property, "non-replica-ack");
    }

    #[test]
    fn frontier_drop_across_generations_is_allowed() {
        let mut nodes = two_nodes();
        for _ in 0..5 {
            nodes[0].publish(Bytes::from_static(b"p")).unwrap();
        }
        let mk = |seq, generation| FrontierUpdate {
            stream: NodeId(0),
            key: "k".to_string(),
            seq,
            generation,
        };
        let log = [(SimTime::ZERO, mk(3, 0)), (SimTime::ZERO, mk(1, 1))];
        let mut checker = InvariantChecker::new(2, 3);
        let views = vec![
            NodeView {
                frontier_log: &log,
                ..view(&nodes[0])
            },
            view(&nodes[1]),
        ];
        checker.check(SimTime::ZERO, &views).unwrap();
    }
}
