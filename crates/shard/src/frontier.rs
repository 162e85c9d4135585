//! The cross-shard stability-frontier aggregator.
//!
//! Each shard runs a full `stabilizer-core` frontier engine over its own
//! per-shard sequence space. The aggregator recombines those per-shard
//! frontiers into the node-level frontier over **global** sequence
//! numbers with the min-combine rule:
//!
//! > global message `g` is covered ⇔ `g` is covered in the shard it was
//! > routed to, and the aggregated frontier is the largest `G` such that
//! > every global message `1..=G` is covered.
//!
//! Because global numbers increase monotonically *within* each shard,
//! the first uncovered global of shard `s` is simply the mapping entry
//! at the shard's frontier, and the aggregate is
//! `min over shards of first-uncovered − 1`. Where a mirror does not yet
//! know a shard's next mapping entry, the aggregate is additionally
//! bounded by the contiguous prefix of known mappings — conservative
//! (never claims coverage of a message it cannot place) and monotone
//! (mappings only grow at the tail, per-shard frontiers are monotone
//! within a predicate generation, and the known prefix only grows).
//!
//! A mapping entry lives, like a payload in the send buffer, until the
//! last reader that can still name it has moved past it (see
//! `OriginState::reclaim` for the readers); a reader that later asks
//! below that floor — a key registered, or bumped to a new generation,
//! whose shard frontier starts over — gets the conservative answer until
//! its frontier is back at the floor.
//!
//! The aggregator also owns the delivery reassembly buffers that merge
//! the S per-shard FIFO streams back into global FIFO order per origin,
//! and [`ShardedFrontier::fold`]: the one place a shard machine's
//! [`Action`] becomes node-level [`ShardedAction`]s, whichever driver
//! runs the shards.
//!
//! A sharded node has no §III-E recovery (see [`crate::engine`]), so no
//! shard sub-stream is ever fast-forwarded: every global of an origin is
//! learned, in the end, on the one shard it was routed to.

use crate::codec::decode_global;
use crate::engine::ShardedAction;
use bytes::Bytes;
use stabilizer_core::{AckTypeId, Action, CoreError, FrontierUpdate, NodeId, SeqNo, WaitToken};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Aggregated events produced by feeding the aggregator: node-level
/// frontier updates and completed node-level `waitfor` tokens.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AggOutput {
    /// Node-level frontier advances (global sequence numbers).
    pub updates: Vec<FrontierUpdate>,
    /// Completed node-level wait tokens.
    pub completed: Vec<WaitToken>,
}

impl AggOutput {
    /// No events.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty() && self.completed.is_empty()
    }

    /// Append the events as node-level actions: the frontier updates,
    /// then the completed waits.
    pub fn into_actions(mut self, out: &mut Vec<ShardedAction>) {
        self.drain_actions(out);
    }

    /// [`AggOutput::into_actions`], leaving `self` empty with its
    /// buffers intact.
    fn drain_actions(&mut self, out: &mut Vec<ShardedAction>) {
        let frontier = |update| ShardedAction::Node(Action::Frontier(update));
        out.extend(self.updates.drain(..).map(frontier));
        let done = |token| ShardedAction::Node(Action::WaitDone { token });
        out.extend(self.completed.drain(..).map(done));
    }
}

#[derive(Debug)]
struct KeyState {
    /// Per-shard frontier (shard-local sequence numbers) for the current
    /// generation.
    per_shard: Vec<SeqNo>,
    generation: u32,
    /// Current aggregated frontier (global sequence number).
    agg: SeqNo,
    /// Node-level waits on this key the aggregate has not reached yet,
    /// with the global each waits for, in registration order.
    waiters: Vec<(WaitToken, SeqNo)>,
}

impl KeyState {
    fn new(shards: usize, generation: u32) -> Self {
        KeyState {
            per_shard: vec![0; shards],
            generation,
            agg: 0,
            waiters: Vec::new(),
        }
    }

    /// Re-derive the aggregate of `(stream, key)` from `o`'s mappings
    /// and the per-shard frontiers; if it rose (or `force`: a new
    /// generation re-announces whatever it is), emit the update and then
    /// the waits it completes.
    fn recompute(
        &mut self,
        o: &OriginState,
        stream: NodeId,
        key: &str,
        force: bool,
        out: &mut AggOutput,
    ) {
        let firsts = self.per_shard.iter().enumerate();
        let min_first = firsts.map(|(s, &f)| o.first_uncovered(s, f)).min();
        let agg = min_first.unwrap_or(SeqNo::MAX).saturating_sub(1);
        if agg > self.agg || force {
            self.agg = agg;
            out.updates.push(FrontierUpdate {
                stream,
                key: key.to_owned(),
                seq: agg,
                generation: self.generation,
            });
            self.waiters.retain(|&(token, seq)| {
                let done = agg >= seq;
                if done {
                    out.completed.push(token);
                }
                !done
            });
        }
    }
}

/// What a `VecDeque<SeqNo>` allocates on its first push; a map is never
/// shrunk below it.
const MIN_MAP_CAPACITY: usize = 4;

/// One shard's learned `shard-seq → global` mapping for one origin:
/// `globals[i]` maps shard seq `base + i + 1`. What lies at or below
/// `base` was learned and then reclaimed: no entry answers for it.
#[derive(Debug, Clone, Default)]
struct ShardMap {
    base: SeqNo,
    globals: VecDeque<SeqNo>,
}

impl ShardMap {
    /// Shard seq of the last entry whose global is `≤ global` (`base`
    /// when there is none).
    fn upto(&self, global: SeqNo) -> SeqNo {
        self.base + self.globals.partition_point(|&g| g <= global) as SeqNo
    }
}

#[derive(Debug)]
struct OriginState {
    /// Per shard: global sequence numbers in shard-seq order. Grows at
    /// the tail; the head goes to `reclaim`.
    mapping: Vec<ShardMap>,
    /// Largest `G` such that every global `1..=G` has been learned.
    known_prefix: SeqNo,
    /// Known globals beyond the contiguous prefix.
    beyond: BTreeSet<SeqNo>,
    /// Highest global delivered to the application, and payloads parked
    /// until their global predecessor arrives (cross-shard reassembly).
    delivered: SeqNo,
    pending: BTreeMap<SeqNo, Bytes>,
    /// Per stability level the application has reported on this stream:
    /// the highest global it reported (see
    /// [`ShardedFrontier::note_report`]).
    reports: Vec<(AckTypeId, SeqNo)>,
}

impl OriginState {
    fn new(shards: usize) -> Self {
        OriginState {
            mapping: vec![ShardMap::default(); shards],
            known_prefix: 0,
            beyond: BTreeSet::new(),
            delivered: 0,
            pending: BTreeMap::new(),
            reports: Vec::new(),
        }
    }

    fn learn(&mut self, shard: usize, global: SeqNo) {
        debug_assert!(
            self.mapping[shard]
                .globals
                .back()
                .is_none_or(|&g| g < global),
            "mapping must be learned in increasing global order per shard"
        );
        self.mapping[shard].globals.push_back(global);
        if global == self.known_prefix + 1 {
            self.known_prefix = global; // in order: never parked in `beyond`
        } else if global > self.known_prefix {
            self.beyond.insert(global);
        }
        self.advance_known();
    }

    /// Drop the head of `shard`'s map that no reader can name any more —
    /// the send buffer's rule, applied to the mapping. The readers, and
    /// the lowest shard seq each still names:
    ///
    /// * `first_uncovered`, once per key of the stream: the entry after
    ///   the key's per-shard frontier (`key_floor` is the lowest of those
    ///   frontiers, `None` without keys);
    /// * `shard_progress`: the last entry at or below the lowest level
    ///   the application reports, which its next report counts from.
    fn reclaim(&mut self, shard: usize, key_floor: Option<SeqNo>) {
        let m = &self.mapping[shard];
        let mut keep = key_floor.map_or(SeqNo::MAX, |f| f.saturating_add(1));
        if let Some(lowest) = self.reports.iter().map(|&(_, global)| global).min() {
            keep = keep.min(m.upto(lowest));
        }
        let dead = keep
            .saturating_sub(m.base + 1)
            .min(m.globals.len() as SeqNo);
        let m = &mut self.mapping[shard];
        m.globals.drain(..dead as usize);
        m.base += dead;
    }

    /// Grow `known_prefix` over the globals learned beyond it.
    fn advance_known(&mut self) {
        while self.beyond.remove(&(self.known_prefix + 1)) {
            self.known_prefix += 1;
        }
    }

    /// Take a shard's delivery of `global`: straight to `ready` when it
    /// is the next one (the usual case never touches `pending`), parked
    /// otherwise; then whatever that releases.
    fn deliver(&mut self, global: SeqNo, payload: Bytes, ready: &mut impl FnMut(SeqNo, Bytes)) {
        debug_assert!(global > self.delivered, "shard re-delivered a global");
        if global == self.delivered + 1 {
            self.delivered = global;
            ready(global, payload);
        } else {
            self.pending.insert(global, payload);
        }
        self.drain_ready(ready);
    }

    /// Release the parked deliveries that follow `delivered` without a
    /// gap.
    fn drain_ready(&mut self, ready: &mut impl FnMut(SeqNo, Bytes)) {
        while let Some(p) = self.pending.remove(&(self.delivered + 1)) {
            self.delivered += 1;
            ready(self.delivered, p);
        }
    }

    /// First global not yet covered by `shard` under its per-shard
    /// frontier `f`, from this node's knowledge.
    fn first_uncovered(&self, shard: usize, f: SeqNo) -> SeqNo {
        let m = &self.mapping[shard];
        if f < m.base {
            // A key that started over below the floor asks about an
            // entry that was reclaimed. Pin the aggregate until the
            // shard frontier clears that point.
            return 1;
        }
        // Past the learned entries the shard's next message (if any) is
        // one we cannot place yet; bound by the first globally unknown
        // mapping.
        let known = m.globals.get((f - m.base) as usize);
        known.copied().unwrap_or(self.known_prefix + 1)
    }
}

/// Min-combines per-shard frontiers into the node-level stability
/// frontier and reassembles per-shard deliveries into global FIFO order.
#[derive(Debug)]
pub struct ShardedFrontier {
    shards: usize,
    origins: Vec<OriginState>,
    /// Per stream: its predicate keys, sorted so one mapping entry's
    /// updates leave in key order whatever order keys were installed in.
    keys: Vec<BTreeMap<String, KeyState>>,
    next_token: WaitToken,
    next_global: SeqNo,
    /// What one [`ShardedFrontier::fold`] step aggregated, emptied into
    /// the caller's actions; kept for its buffers.
    scratch: AggOutput,
}

impl ShardedFrontier {
    /// An aggregator for `num_nodes` origins and `shards` shards.
    pub fn new(num_nodes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedFrontier {
            shards,
            origins: (0..num_nodes).map(|_| OriginState::new(shards)).collect(),
            keys: (0..num_nodes).map(|_| BTreeMap::new()).collect(),
            next_token: 1,
            next_global: 0,
            scratch: AggOutput::default(),
        }
    }

    /// Number of shards aggregated over.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Fold one action of shard machine `shard` into node-level actions,
    /// appended to `out` in the order every observer sees them:
    /// aggregated frontier updates before the waits they complete. A
    /// delivered payload that lacks the global-sequence header is
    /// refused: nothing is delivered, and the origin's global order
    /// stalls at the hole. Whatever else a shard emits passes through as
    /// it is: suspicion and catch-up cannot arise on a sharded node.
    pub fn fold(&mut self, shard: u16, action: Action, out: &mut Vec<ShardedAction>) {
        // What the step aggregates goes last, whatever the arm pushes.
        let mut agg = std::mem::take(&mut self.scratch);
        match action {
            Action::Send { to, msg } => out.push(ShardedAction::Send { shard, to, msg }),
            Action::Deliver {
                origin, payload, ..
            } => {
                let ready = |seq, payload| {
                    out.push(ShardedAction::Node(Action::Deliver {
                        origin,
                        seq,
                        payload,
                    }));
                };
                // Refused: a payload without its header delivers nothing.
                self.shard_deliver(shard, origin, &payload, ready, &mut agg)
                    .ok();
            }
            Action::Frontier(update) => {
                let at = (update.seq, update.generation);
                self.shard_frontier(shard, update.stream, &update.key, at, &mut agg);
            }
            // Shard-level waits are never created; node-level waits live
            // here, in the aggregator, and their tokens are its own.
            Action::WaitDone { .. } => {}
            other => out.push(ShardedAction::Node(other)),
        }
        agg.drain_actions(out);
        self.scratch = agg;
    }

    /// Reserve the next global sequence number for a publish on `me`'s
    /// own stream. Commit it with [`ShardedFrontier::note_published`]
    /// once the shard accepted the message; an uncommitted reservation
    /// is simply reused by the next publish.
    pub fn peek_next_global(&self) -> SeqNo {
        self.next_global + 1
    }

    /// Record that the global `global` (from
    /// [`ShardedFrontier::peek_next_global`]) was published on `shard`
    /// of `me`'s own stream.
    pub fn note_published(&mut self, me: NodeId, shard: u16, global: SeqNo) -> AggOutput {
        debug_assert_eq!(global, self.next_global + 1);
        self.next_global = global;
        self.learn_mapping(me, shard, global)
    }

    /// Total globals published locally.
    pub fn last_published(&self) -> SeqNo {
        self.next_global
    }

    /// Record a learned `(shard, shard_seq) → global` mapping entry for
    /// `origin`'s stream. Must be called in shard-seq order per
    /// `(origin, shard)` — which both the origin's publish path and the
    /// mirrors' FIFO shard deliveries naturally satisfy.
    pub fn learn_mapping(&mut self, origin: NodeId, shard: u16, global: SeqNo) -> AggOutput {
        let mut out = AggOutput::default();
        self.learn(origin, shard as usize, global);
        self.recompute_origin(origin, &mut out);
        out
    }

    /// Append `global` to `origin`'s map of `shard`. A full map is
    /// reclaimed rather than grown, and grown only when that freed less
    /// than half of it: either way the next attempt is at least half a
    /// buffer of entries away, so what the floor costs to compute is
    /// amortized O(1) per entry, and a steady state allocates nothing.
    /// A map that reclaim left at most a quarter full grew while a reader
    /// stalled and the reader has caught up: it goes back, in one step,
    /// to the capacity doubling from empty would have given what is
    /// left, so memory lent to a stall is returned a buffer later.
    fn learn(&mut self, origin: NodeId, shard: usize, global: SeqNo) {
        let o = &mut self.origins[origin.0 as usize];
        let map = &o.mapping[shard].globals;
        if map.len() == map.capacity() {
            let keys = self.keys[origin.0 as usize].values();
            let key_floor = keys.map(|st| st.per_shard[shard]).min();
            o.reclaim(shard, key_floor);
            let map = &mut o.mapping[shard].globals;
            if map.len() * 2 > map.capacity() {
                map.reserve(map.capacity());
            } else if map.len() * 4 <= map.capacity() {
                map.shrink_to((map.len() * 2).next_power_of_two().max(MIN_MAP_CAPACITY));
            }
        }
        o.learn(shard, global);
    }

    /// A shard machine delivered `(origin, shard_seq)` with the framed
    /// payload. Returns the globally ordered deliveries this releases
    /// (possibly none, possibly several parked ones) plus aggregated
    /// frontier events from the newly learned mapping.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] if the payload lacks the global-seq header.
    pub fn on_shard_deliver(
        &mut self,
        shard: u16,
        origin: NodeId,
        framed: &Bytes,
    ) -> Result<(Vec<(SeqNo, Bytes)>, AggOutput), CoreError> {
        let (mut ready, mut out) = (Vec::new(), AggOutput::default());
        let park = |seq, payload| ready.push((seq, payload));
        self.shard_deliver(shard, origin, framed, park, &mut out)?;
        Ok((ready, out))
    }

    /// [`ShardedFrontier::on_shard_deliver`] into the caller's buffers:
    /// released deliveries go to `ready` in global order, aggregated
    /// frontier events are appended to `out`.
    fn shard_deliver(
        &mut self,
        shard: u16,
        origin: NodeId,
        framed: &Bytes,
        mut ready: impl FnMut(SeqNo, Bytes),
        out: &mut AggOutput,
    ) -> Result<(), CoreError> {
        let (global, payload) = decode_global(framed)?;
        self.learn(origin, shard as usize, global);
        let o = &mut self.origins[origin.0 as usize];
        o.deliver(global, payload, &mut ready);
        self.recompute_origin(origin, out);
        Ok(())
    }

    /// Highest global delivered to the application for `origin`.
    pub fn delivered_global(&self, origin: NodeId) -> SeqNo {
        self.origins[origin.0 as usize].delivered
    }

    /// Globals parked waiting for a cross-shard predecessor of `origin`.
    pub fn parked(&self, origin: NodeId) -> usize {
        self.origins[origin.0 as usize].pending.len()
    }

    /// Number of `origin`'s messages routed to `shard` with global
    /// sequence ≤ `global` (translates node-level stability reports into
    /// shard-local ones). Counts only known mappings, so mirrors with
    /// partial knowledge under-report — conservative by construction —
    /// and so does a report below every level
    /// [`ShardedFrontier::note_report`] was told of, once the entries it
    /// would count have been reclaimed.
    pub fn shard_progress(&self, origin: NodeId, shard: u16, global: SeqNo) -> SeqNo {
        let m = &self.origins[origin.0 as usize].mapping[shard as usize];
        let upto = m.upto(global);
        if upto > m.base {
            // A retained entry has global ≤ `global`, so every reclaimed
            // predecessor (smaller globals) does too.
            upto
        } else {
            0
        }
    }

    /// The application reports stability level `ty` of `origin`'s stream
    /// up to `global`: from now on [`ShardedFrontier::shard_progress`]
    /// is asked about that level at or above `global` only, so entries
    /// below the lowest level ever reported need not stay (a level that
    /// lags delivery by a constant keeps exactly that many).
    pub fn note_report(&mut self, origin: NodeId, ty: AckTypeId, global: SeqNo) {
        let reports = &mut self.origins[origin.0 as usize].reports;
        match reports.iter_mut().find(|(level, _)| *level == ty) {
            Some((_, reported)) => *reported = global.max(*reported),
            None => reports.push((ty, global)),
        }
    }

    /// The global of `origin`'s message `shard_seq` on `shard` — the
    /// inverse of [`ShardedFrontier::shard_progress`] — while its entry
    /// is retained: `None` for a shard seq not learned yet or reclaimed.
    pub fn global_of(&self, origin: NodeId, shard: u16, shard_seq: SeqNo) -> Option<SeqNo> {
        let m = &self.origins[origin.0 as usize].mapping[shard as usize];
        let i = shard_seq.checked_sub(m.base + 1)?;
        m.globals.get(i as usize).copied()
    }

    /// Make `(stream, key)` queryable (frontier 0) before any shard
    /// reports — called when a predicate is registered.
    pub fn ensure_key(&mut self, stream: NodeId, key: &str) {
        let keys = &mut self.keys[stream.0 as usize];
        if !keys.contains_key(key) {
            keys.insert(key.to_owned(), KeyState::new(self.shards, 0));
        }
    }

    /// Drop `(stream, key)`; its pending waiters complete immediately
    /// (mirroring the core engine's unregister semantics).
    pub fn unregister_key(&mut self, stream: NodeId, key: &str) -> AggOutput {
        let keys = self.keys.get_mut(stream.0 as usize);
        let gone = keys.and_then(|keys| keys.remove(key));
        let waiters = gone.into_iter().flat_map(|st| st.waiters);
        AggOutput {
            updates: Vec::new(),
            completed: waiters.map(|(token, _)| token).collect(),
        }
    }

    /// Feed one per-shard frontier advance. Generations bump in lockstep
    /// across shards (predicate changes fan out to every shard); the
    /// first update carrying a newer generation resets the per-shard
    /// frontiers and re-announces the aggregate under the new
    /// generation, exactly like the core engine's `change_predicate`.
    pub fn on_shard_frontier(&mut self, shard: u16, update: &FrontierUpdate) -> AggOutput {
        let at = (update.seq, update.generation);
        self.adopt(shard, update.stream, &update.key, at)
    }

    /// [`ShardedFrontier::adopt`], appending to `out`.
    fn shard_frontier(
        &mut self,
        shard: u16,
        stream: NodeId,
        key: &str,
        (seq, generation): (SeqNo, u32),
        out: &mut AggOutput,
    ) {
        let o = &self.origins[stream.0 as usize];
        let keys = &mut self.keys[stream.0 as usize];
        let st = if let Some(st) = keys.get_mut(key) {
            st
        } else {
            let st = KeyState::new(self.shards, generation);
            keys.entry(key.to_owned()).or_insert(st)
        };
        let mut force = false;
        if generation > st.generation {
            st.generation = generation;
            st.per_shard.fill(0);
            force = true;
        } else if generation < st.generation {
            return; // stale shard update from an old generation
        }
        let cell = &mut st.per_shard[shard as usize];
        if seq > *cell {
            *cell = seq;
        }
        st.recompute(o, stream, key, force, out);
    }

    /// Adopt `shard`'s current `(frontier, generation)` of
    /// `(stream, key)`, read off the shard machine after a register or
    /// change: a shard whose frontier starts at zero emits no update, and
    /// the aggregate must still move to the new generation.
    pub fn adopt(&mut self, shard: u16, stream: NodeId, key: &str, at: (SeqNo, u32)) -> AggOutput {
        let mut out = AggOutput::default();
        self.shard_frontier(shard, stream, key, at, &mut out);
        out
    }

    /// Current aggregated `(frontier, generation)` of a predicate.
    pub fn frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        let st = self.keys.get(stream.0 as usize)?.get(key)?;
        Some((st.agg, st.generation))
    }

    /// Register a node-level wait for the aggregated frontier of
    /// `(stream, key)` to reach the **global** sequence `seq`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownPredicate`] if the key was never registered.
    pub fn waitfor(
        &mut self,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
    ) -> Result<(WaitToken, AggOutput), CoreError> {
        let keys = self.keys.get_mut(stream.0 as usize);
        let st = keys
            .and_then(|keys| keys.get_mut(key))
            .ok_or_else(|| CoreError::UnknownPredicate(key.to_owned()))?;
        let token = self.next_token;
        self.next_token += 1;
        let mut out = AggOutput::default();
        if st.agg >= seq {
            out.completed.push(token);
        } else {
            st.waiters.push((token, seq));
        }
        Ok((token, out))
    }

    /// Node-level waits still blocked.
    pub fn pending_waiters(&self) -> usize {
        let keys = self.keys.iter().flat_map(BTreeMap::values);
        keys.map(|st| st.waiters.len()).sum()
    }

    /// Recompute every key of `stream`, in key order, after its mapping
    /// grew (a new mapping entry can raise aggregates without any
    /// frontier traffic).
    fn recompute_origin(&mut self, stream: NodeId, out: &mut AggOutput) {
        let o = &self.origins[stream.0 as usize];
        for (key, st) in &mut self.keys[stream.0 as usize] {
            st.recompute(o, stream, key, false, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_global;

    const ME: NodeId = NodeId(0);

    fn update(stream: NodeId, key: &str, seq: SeqNo, generation: u32) -> FrontierUpdate {
        FrontierUpdate {
            stream,
            key: key.to_owned(),
            seq,
            generation,
        }
    }

    #[test]
    fn min_combine_over_two_shards() {
        let mut agg = ShardedFrontier::new(2, 2);
        agg.ensure_key(ME, "All");
        // Globals 1,3 on shard 0; global 2 on shard 1.
        for (shard, global) in [(0, 1), (1, 2), (0, 3)] {
            let g = agg.peek_next_global();
            assert_eq!(g, global);
            agg.note_published(ME, shard, g);
        }
        // Shard 0 covers its first message (global 1): aggregate stops at
        // 1 because shard 1's first message (global 2) is uncovered.
        let out = agg.on_shard_frontier(0, &update(ME, "All", 1, 0));
        assert_eq!(out.updates.len(), 1);
        assert_eq!(agg.frontier(ME, "All"), Some((1, 0)));
        // Shard 1 covers global 2: aggregate jumps to 2 (global 3 still
        // uncovered in shard 0).
        agg.on_shard_frontier(1, &update(ME, "All", 1, 0));
        assert_eq!(agg.frontier(ME, "All"), Some((2, 0)));
        // Shard 0 covers its second message: everything covered.
        agg.on_shard_frontier(0, &update(ME, "All", 2, 0));
        assert_eq!(agg.frontier(ME, "All"), Some((3, 0)));
    }

    #[test]
    fn stalled_shard_pins_the_aggregate() {
        let mut agg = ShardedFrontier::new(1, 2);
        agg.ensure_key(ME, "All");
        for (shard, _) in [(0, ()), (1, ()), (0, ()), (0, ())] {
            let g = agg.peek_next_global();
            agg.note_published(ME, shard, g);
        }
        // Shard 0 races ahead; shard 1 (owning global 2) is stalled.
        agg.on_shard_frontier(0, &update(ME, "All", 3, 0));
        assert_eq!(agg.frontier(ME, "All"), Some((1, 0)));
        // Shard 1 catches up: the whole prefix unlocks at once.
        agg.on_shard_frontier(1, &update(ME, "All", 1, 0));
        assert_eq!(agg.frontier(ME, "All"), Some((4, 0)));
    }

    #[test]
    fn waiters_complete_on_aggregate_not_per_shard() {
        let mut agg = ShardedFrontier::new(1, 2);
        agg.ensure_key(ME, "All");
        for shard in [0u16, 1] {
            let g = agg.peek_next_global();
            agg.note_published(ME, shard, g);
        }
        let (token, out) = agg.waitfor(ME, "All", 2).unwrap();
        assert!(out.completed.is_empty());
        let out = agg.on_shard_frontier(0, &update(ME, "All", 1, 0));
        assert!(out.completed.is_empty(), "global 2 is in shard 1");
        let out = agg.on_shard_frontier(1, &update(ME, "All", 1, 0));
        assert_eq!(out.completed, vec![token]);
        assert_eq!(agg.pending_waiters(), 0);
    }

    #[test]
    fn waitfor_already_satisfied_completes_immediately() {
        let mut agg = ShardedFrontier::new(1, 1);
        agg.ensure_key(ME, "All");
        let g = agg.peek_next_global();
        agg.note_published(ME, 0, g);
        agg.on_shard_frontier(0, &update(ME, "All", 1, 0));
        let (token, out) = agg.waitfor(ME, "All", 1).unwrap();
        assert_eq!(out.completed, vec![token]);
    }

    #[test]
    fn unknown_key_waitfor_errors() {
        let mut agg = ShardedFrontier::new(1, 1);
        assert!(matches!(
            agg.waitfor(ME, "nope", 1),
            Err(CoreError::UnknownPredicate(_))
        ));
    }

    #[test]
    fn generation_bump_resets_and_reannounces() {
        let mut agg = ShardedFrontier::new(1, 2);
        agg.ensure_key(ME, "All");
        for shard in [0u16, 1] {
            let g = agg.peek_next_global();
            agg.note_published(ME, shard, g);
        }
        agg.on_shard_frontier(0, &update(ME, "All", 1, 0));
        agg.on_shard_frontier(1, &update(ME, "All", 1, 0));
        assert_eq!(agg.frontier(ME, "All"), Some((2, 0)));
        // A predicate change starts generation 1; the first shard update
        // under it resets the other shard's contribution.
        let out = agg.on_shard_frontier(0, &update(ME, "All", 1, 1));
        assert_eq!(out.updates.len(), 1);
        let (f, g) = agg.frontier(ME, "All").unwrap();
        assert_eq!(g, 1);
        assert_eq!(f, 1, "shard 1 unreported under the new generation");
        // Stale generation-0 updates are ignored.
        let out = agg.on_shard_frontier(1, &update(ME, "All", 9, 0));
        assert!(out.is_empty());
        assert_eq!(agg.frontier(ME, "All"), Some((1, 1)));
    }

    #[test]
    fn mirror_reassembles_global_fifo() {
        let origin = NodeId(1);
        let mut agg = ShardedFrontier::new(2, 2);
        // Origin published globals 1 (shard 0), 2 (shard 1), 3 (shard 0).
        // Mirror's shard 1 delivers first: global 2 parks.
        let (ready, _) = agg
            .on_shard_deliver(1, origin, &encode_global(2, &Bytes::from_static(b"b")))
            .unwrap();
        assert!(ready.is_empty());
        assert_eq!(agg.parked(origin), 1);
        // Shard 0 delivers global 1: both release in order.
        let (ready, _) = agg
            .on_shard_deliver(0, origin, &encode_global(1, &Bytes::from_static(b"a")))
            .unwrap();
        assert_eq!(
            ready,
            vec![(1, Bytes::from_static(b"a")), (2, Bytes::from_static(b"b"))]
        );
        let (ready, _) = agg
            .on_shard_deliver(0, origin, &encode_global(3, &Bytes::from_static(b"c")))
            .unwrap();
        assert_eq!(ready, vec![(3, Bytes::from_static(b"c"))]);
        assert_eq!(agg.delivered_global(origin), 3);
    }

    #[test]
    fn mirror_aggregate_is_bounded_by_known_mappings() {
        let origin = NodeId(1);
        let mut agg = ShardedFrontier::new(2, 2);
        agg.ensure_key(origin, "All");
        // A remote frontier report says shard 0 covered 5 messages, but
        // this mirror has placed none of them: the aggregate stays 0.
        agg.on_shard_frontier(0, &update(origin, "All", 5, 0));
        agg.on_shard_frontier(1, &update(origin, "All", 5, 0));
        assert_eq!(agg.frontier(origin, "All"), Some((0, 0)));
        // Learning globals 1 and 2 (both covered per the shard reports)
        // advances the aggregate to the known prefix.
        agg.on_shard_deliver(0, origin, &encode_global(1, &Bytes::new()))
            .unwrap();
        let (_, out) = agg
            .on_shard_deliver(1, origin, &encode_global(2, &Bytes::new()))
            .unwrap();
        assert!(!out.updates.is_empty());
        assert_eq!(agg.frontier(origin, "All"), Some((2, 0)));
    }

    #[test]
    fn unregister_completes_waiters() {
        let mut agg = ShardedFrontier::new(1, 1);
        agg.ensure_key(ME, "All");
        let g = agg.peek_next_global();
        agg.note_published(ME, 0, g);
        let (token, out) = agg.waitfor(ME, "All", 1).unwrap();
        assert!(out.completed.is_empty());
        let out = agg.unregister_key(ME, "All");
        assert_eq!(out.completed, vec![token]);
        assert_eq!(agg.frontier(ME, "All"), None);
    }

    /// One line per action: what a transcript of `fold`'s output shows.
    fn show(out: &mut Vec<ShardedAction>) -> Vec<String> {
        let line = |a: ShardedAction| match a {
            ShardedAction::Send { shard, to, .. } => format!("send s{shard} to {}", to.0),
            ShardedAction::Node(Action::Deliver { seq, payload, .. }) => {
                format!("deliver g{seq} {}B", payload.len())
            }
            ShardedAction::Node(Action::Frontier(u)) => format!("frontier {}={}", u.key, u.seq),
            ShardedAction::Node(Action::WaitDone { token }) => format!("wait-done {token}"),
            ShardedAction::Node(other) => format!("{other:?}"),
        };
        out.drain(..).map(line).collect()
    }

    #[test]
    fn fold_emits_in_the_order_observers_see() {
        let (origin, peer) = (NodeId(1), NodeId(2));
        let mut agg = ShardedFrontier::new(3, 2);
        agg.ensure_key(origin, "All");
        let out = &mut Vec::new();
        let deliver = |seq, global, body: &'static [u8]| Action::Deliver {
            origin,
            seq,
            payload: encode_global(global, &Bytes::from_static(body)),
        };

        // A delivery that arrives ahead of its global waits; the one that
        // fills the gap releases both, in global order, header stripped.
        agg.fold(1, deliver(1, 2, b"bb"), out);
        assert!(show(out).is_empty());
        agg.fold(0, deliver(1, 1, b"a"), out);
        assert_eq!(show(out), ["deliver g1 1B", "deliver g2 2B"]);

        // The aggregate, then its waiters.
        let (token, _) = agg.waitfor(origin, "All", 1).unwrap();
        agg.fold(0, Action::Frontier(update(origin, "All", 1, 0)), out);
        assert_eq!(
            show(out),
            ["frontier All=1".to_owned(), format!("wait-done {token}")]
        );
        // Shard-level waits do not exist; sends keep their shard.
        agg.fold(1, Action::WaitDone { token: 99 }, out);
        let (to, msg) = (peer, stabilizer_core::WireMsg::Heartbeat);
        agg.fold(1, Action::Send { to, msg }, out);
        assert_eq!(show(out), ["send s1 to 2"]);

        // What a sharded node never emits is forwarded, not dropped.
        agg.fold(0, Action::Suspected { node: peer }, out);
        assert_eq!(show(out), ["Suspected { node: NodeId(2) }"]);
    }

    /// Entries of `origin`'s shard 0 map still answered for, of the
    /// first `n` shard seqs.
    fn retained(agg: &ShardedFrontier, origin: NodeId, n: SeqNo) -> Vec<SeqNo> {
        let kept = |q: &SeqNo| agg.global_of(origin, 0, *q).is_some();
        (1..=n).filter(kept).collect()
    }

    #[test]
    fn a_covered_prefix_is_reclaimed_and_a_late_key_catches_up_at_the_floor() {
        let origin = NodeId(1);
        let mut agg = ShardedFrontier::new(2, 1);
        agg.ensure_key(origin, "All");
        for g in 1..=1000 {
            agg.on_shard_deliver(0, origin, &encode_global(g, &Bytes::new()))
                .unwrap();
            agg.on_shard_frontier(0, &update(origin, "All", g, 0));
        }
        assert_eq!(agg.frontier(origin, "All"), Some((1000, 0)));
        let kept = retained(&agg, origin, 1000);
        assert!(kept.len() <= 4 && kept.last() == Some(&1000), "{kept:?}");
        assert_eq!(agg.global_of(origin, 0, 1001), None, "not learned yet");

        // A key registered now asks about entries that are gone: pinned
        // until its shard frontier is back where the map begins.
        agg.ensure_key(origin, "Late");
        agg.adopt(0, origin, "Late", (kept[0] - 2, 0));
        assert_eq!(agg.frontier(origin, "Late"), Some((0, 0)));
        agg.adopt(0, origin, "Late", (kept[0] - 1, 0));
        assert_eq!(agg.frontier(origin, "Late"), Some((kept[0] - 1, 0)));
        // So is a generation that starts over.
        let out = agg.on_shard_frontier(0, &update(origin, "All", 7, 1));
        assert_eq!(out.updates[0].seq, 0);
        agg.on_shard_frontier(0, &update(origin, "All", 1000, 1));
        assert_eq!(agg.frontier(origin, "All"), Some((1000, 1)));
    }

    #[test]
    fn the_map_is_held_for_a_lagging_reporter() {
        let mut agg = ShardedFrontier::new(2, 1);
        // On a mirrored stream the application reports 10 behind what it
        // was delivered: the entry its next report counts from stays.
        let origin = NodeId(1);
        for g in 1..=200 {
            agg.on_shard_deliver(0, origin, &encode_global(g, &Bytes::new()))
                .unwrap();
            agg.note_report(origin, AckTypeId(1), g.saturating_sub(10));
            assert_eq!(
                agg.shard_progress(origin, 0, g.saturating_sub(10)),
                g.saturating_sub(10)
            );
        }
        let kept = retained(&agg, origin, 200);
        assert!(kept[0] <= 190 && kept.len() <= 32, "{kept:?}");
    }

    #[test]
    fn shard_progress_translates_globals() {
        let mut agg = ShardedFrontier::new(1, 2);
        for shard in [0u16, 1, 0, 0, 1] {
            let g = agg.peek_next_global();
            agg.note_published(ME, shard, g);
        }
        // Shard 0 holds globals 1,3,4; shard 1 holds 2,5.
        assert_eq!(agg.shard_progress(ME, 0, 3), 2);
        assert_eq!(agg.shard_progress(ME, 0, 4), 3);
        assert_eq!(agg.shard_progress(ME, 1, 4), 1);
        assert_eq!(agg.shard_progress(ME, 1, 5), 2);
        assert_eq!(agg.shard_progress(ME, 0, 0), 0);
    }
}
