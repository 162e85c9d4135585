//! The stability-frontier engine: the control plane's predicate registry
//! plus incremental re-evaluation.
//!
//! Every registered predicate tracks one *stream* (a primary's sequence
//! space). When an ACK counter advances, only the predicates that read
//! the changed `(node, ack-type)` cell are candidates: their dependency
//! sets are known at compile time and gathered into one flat index, so
//! an ACK nobody reads costs one lookup. A register, change, unregister
//! or exclusion only drops that index; the next ACK fold rebuilds it
//! from the entries, so an install costs its evaluation and nothing that
//! grows with the predicates already installed. Within one predicate
//! *generation* the frontier is monotonic; [`FrontierEngine::change`]
//! starts a new generation, and the frontier may start lower — the
//! paper's §VI-D "gap", which the application is responsible for
//! handling, is surfaced through the `generation` field of
//! [`FrontierUpdate`].
//!
//! The engine is the one table of what is registered: each entry keeps
//! the program as registered beside the one it runs, which §III-E's
//! [`FrontierEngine::exclude_node`] rewrites and
//! [`FrontierEngine::reinstate_node`] rebuilds from the registered one.
//!
//! # The crossing rule
//!
//! A candidate is evaluated only if the cell *crossed* its frontier: for
//! a cell that moved from `old` to `new`, entry `e` runs the VM iff
//! `old ≤ e.frontier < new`.
//!
//! *Lemma.* A compiled predicate is a composition of order statistics
//! (`MIN`/`MAX`/`KTH_MIN`/`KTH_MAX` over cells and constants), so whether
//! its value reaches a threshold `t` is a monotone function of *which
//! cells are ≥ t*. Raising one cell from `old` to `new` changes that set
//! only for `old < t ≤ new`. With `t = F + 1`: a predicate whose value
//! was `≤ F` can come to exceed `F` only if `old ≤ F < new`.
//! (`stabilizer-dsl`'s `raising_a_cell_moves_the_value_only_across_it`
//! checks the lemma on random programs; an instruction that is not
//! monotone in every cell breaks it, and the rule with it.)
//!
//! *Invariant the rule needs.* Whenever a fold starts, every entry's
//! frontier is ≥ its predicate's value on the table **as it stood before
//! the cells being folded were written**. It holds because every writer
//! of the recorder either folds each cell it moved or replaces the
//! frontier outright:
//!
//! * `StabilizerNode::learn` / `reached` write one cell and fold it
//!   before anything else is written.
//! * `StabilizerNode::publish` writes **all** levels of the origin's own
//!   cell and then folds them in order. Several cells of one stream have
//!   then moved before the first fold, and every evaluation reads the
//!   final table: the first cell that crosses an entry's frontier brings
//!   it to the final value, and the later cells meet the raised frontier.
//!   If no cell crosses, no threshold above the frontier changed its set.
//!   (The levels of the own row all come from one value, so it is an
//!   entry's first dependent cell that crosses, or none: updates leave in
//!   the order an engine that evaluates every dependant emits them.)
//! * `StabilizerNode::restore` replaces the table and re-registers every
//!   key; [`FrontierEngine::register`], [`FrontierEngine::change`],
//!   [`FrontierEngine::exclude_node`] and
//!   [`FrontierEngine::reinstate_node`] evaluate outright.
//! * `AckRecorder::ensure_types` adds cells that are zero and that no
//!   registered predicate reads.
//!
//! Under the test-only `chaos-unclamped-acks` mutation cells regress; the
//! frontier is a running maximum there already, a regressed cell
//! (`new < old`) crosses nothing, and the rule only ever skips
//! evaluations whose result could not have exceeded the frontier.

use crate::recorder::{AckRecorder, DirtyCell};
use stabilizer_dsl::{AckTypeId, EvalScratch, NodeId, Predicate, SeqNo};

/// Token identifying a blocked `waitfor` call; returned to the driver
/// when the wait completes.
pub type WaitToken = u64;

/// A frontier advancement notice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierUpdate {
    /// The stream whose frontier moved.
    pub stream: NodeId,
    /// The predicate key.
    pub key: String,
    /// The new frontier: highest sequence number satisfying the predicate.
    pub seq: SeqNo,
    /// Predicate generation (bumped by [`FrontierEngine::change`]).
    pub generation: u32,
}

#[derive(Debug)]
struct Entry {
    stream: NodeId,
    key: String,
    /// The program as last registered or changed.
    registered: Predicate,
    /// What runs: `registered` less the exclusions applied to it since.
    predicate: Predicate,
    frontier: SeqNo,
    generation: u32,
    /// Blocked `waitfor` calls on this key as `(seq, token)`, in call order.
    waiters: Vec<(SeqNo, WaitToken)>,
}

impl Entry {
    fn update(&self) -> FrontierUpdate {
        FrontierUpdate {
            stream: self.stream,
            key: self.key.clone(),
            seq: self.frontier,
            generation: self.generation,
        }
    }

    fn drain_waiters(&mut self, completed: &mut Vec<WaitToken>) {
        let frontier = self.frontier;
        self.waiters.retain(|&(seq, token)| {
            let done = seq <= frontier;
            if done {
                completed.push(token);
            }
            !done
        });
    }
}

/// Registry of compiled predicates with per-entry frontier state and
/// blocked waiters.
#[derive(Debug, Default)]
pub struct FrontierEngine {
    /// Sorted by `(stream, key)`. Updates are emitted in this order, which
    /// must be identical across processes for seed replay to be
    /// byte-stable (so no hash map).
    entries: Vec<Entry>,
    /// Which entries read each `(stream, node, ack type)` cell; `None`
    /// since `entries` last changed, and built again by the next fold
    /// that reads it.
    deps: Option<DepIndex>,
    /// Nodes excluded and not reinstated since, in exclusion order.
    excluded: Vec<NodeId>,
    scratch: EvalScratch,
    evals: u64,
}

impl FrontierEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a compiled predicate for `stream` under `key`, evaluating
    /// it — less the exclusions in force — immediately. Returns an update
    /// if the initial frontier is non-zero. Registering over an existing
    /// key replaces it (generation is preserved and bumped, like
    /// [`FrontierEngine::change`]).
    pub fn register(
        &mut self,
        stream: NodeId,
        key: &str,
        registered: Predicate,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) {
        let predicate = self.less_exclusions(registered.clone());
        let pos = match self.find(stream, key) {
            Ok(pos) => {
                self.entries[pos].registered = registered;
                self.replace(pos, predicate, recorder);
                pos
            }
            Err(pos) => {
                self.evals += 1;
                let frontier =
                    predicate.eval_with(&recorder.stream_view(stream), &mut self.scratch);
                self.deps = None;
                self.entries.insert(
                    pos,
                    Entry {
                        stream,
                        key: key.to_owned(),
                        registered,
                        predicate,
                        frontier,
                        generation: 0,
                        waiters: Vec::new(),
                    },
                );
                pos
            }
        };
        let entry = &mut self.entries[pos];
        if entry.frontier > 0 {
            out.push(entry.update());
        }
        entry.drain_waiters(completed);
    }

    /// Replace the predicate under an existing key, bumping its
    /// generation (the paper's `change_predicate`), and run it less the
    /// exclusions in force. The new frontier may be lower than the old
    /// one; an update carrying the new generation is always emitted so
    /// the application can observe the gap.
    ///
    /// Returns `false` if the key is unknown.
    pub fn change(
        &mut self,
        stream: NodeId,
        key: &str,
        registered: Predicate,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) -> bool {
        let Ok(pos) = self.find(stream, key) else {
            return false;
        };
        let predicate = self.less_exclusions(registered.clone());
        self.entries[pos].registered = registered;
        self.change_at(pos, predicate, recorder, out, completed);
        true
    }

    /// Remove a predicate. Pending waiters on it stay blocked forever, so
    /// callers should drain or fail them; returns the tokens of waiters
    /// that were watching the key.
    pub fn unregister(&mut self, stream: NodeId, key: &str) -> Vec<WaitToken> {
        let Ok(pos) = self.find(stream, key) else {
            return Vec::new();
        };
        self.deps = None;
        let entry = self.entries.remove(pos);
        entry.waiters.into_iter().map(|(_, token)| token).collect()
    }

    /// Current `(frontier, generation)` for a key.
    pub fn frontier(&self, stream: NodeId, key: &str) -> Option<(SeqNo, u32)> {
        let entry = &self.entries[self.find(stream, key).ok()?];
        Some((entry.frontier, entry.generation))
    }

    /// The compiled predicate a key runs: as registered, less the
    /// exclusions applied to it.
    pub fn predicate(&self, stream: NodeId, key: &str) -> Option<&Predicate> {
        Some(&self.entries[self.find(stream, key).ok()?].predicate)
    }

    /// Every registered `(stream, key)` with its program as last
    /// registered or changed, exclusions aside, in `(stream, key)` order.
    pub fn registered(&self) -> impl Iterator<Item = (NodeId, &str, &Predicate)> {
        self.entries
            .iter()
            .map(|e| (e.stream, e.key.as_str(), &e.registered))
    }

    /// Block `token` until the frontier of `(stream, key)` reaches `seq`.
    /// If it already has, the completion is pushed to `completed`
    /// immediately.
    pub fn waitfor(
        &mut self,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
        token: WaitToken,
        completed: &mut Vec<WaitToken>,
    ) -> Result<(), crate::error::CoreError> {
        let Ok(pos) = self.find(stream, key) else {
            return Err(crate::error::CoreError::UnknownPredicate(key.to_owned()));
        };
        let entry = &mut self.entries[pos];
        if entry.frontier >= seq {
            completed.push(token);
        } else {
            entry.waiters.push((seq, token));
        }
        Ok(())
    }

    /// The cell `(stream, node, ty)` was raised to what `recorder` now
    /// holds, from a value the caller does not know: evaluate the
    /// predicates of `stream` that read it and whose frontier is below
    /// the new value (the crossing rule with `old = 0`), appending
    /// frontier updates (in key order) and completed wait tokens (in key
    /// order, then `waitfor` call order).
    pub fn on_ack_advance(
        &mut self,
        stream: NodeId,
        node: NodeId,
        ty: AckTypeId,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) {
        self.on_ack_advance_from((stream, node, ty), 0, recorder, out, completed);
    }

    /// [`FrontierEngine::on_ack_advance`] told what the cell held before
    /// it was written (`AckRecorder::advance` returns it): only the
    /// predicates whose frontier the cell crossed — `old ≤ frontier <
    /// new` — are evaluated (see the module docs). An `old` below the
    /// true one costs evaluations, never an update; one above it is a
    /// bug.
    pub fn on_ack_advance_from(
        &mut self,
        (stream, node, ty): DirtyCell,
        old: SeqNo,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) {
        let entries = &self.entries;
        let deps = self.deps.get_or_insert_with(|| DepIndex::build(entries));
        let dependants = deps.dependants(stream, node, ty);
        if dependants.is_empty() {
            return;
        }
        let new = recorder.get(stream, node, ty);
        let view = recorder.stream_view(stream);
        for &pos in dependants {
            let entry = &mut self.entries[pos as usize];
            if entry.frontier < old || entry.frontier >= new {
                continue;
            }
            self.evals += 1;
            let value = entry.predicate.eval_with(&view, &mut self.scratch);
            if value > entry.frontier {
                entry.frontier = value;
                out.push(entry.update());
                entry.drain_waiters(completed);
            }
        }
    }

    /// Rewrite every registered predicate to exclude `node` (§III-E fault
    /// handling), re-evaluating each as a new generation. Predicates that
    /// cannot be rewritten (they would become empty) are left untouched.
    pub fn exclude_node(
        &mut self,
        node: NodeId,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) {
        if !self.excluded.contains(&node) {
            self.excluded.push(node);
        }
        for pos in 0..self.entries.len() {
            if let Some(rewritten) = without(&self.entries[pos].predicate, node) {
                self.change_at(pos, rewritten, recorder, out, completed);
            }
        }
    }

    /// Re-admit `node`, the inverse of [`FrontierEngine::exclude_node`]:
    /// every predicate whose registered program reads `node` and whose
    /// running one does not runs its registered program again, less the
    /// exclusions still in force (in exclusion order, skipping any the
    /// rewrite refuses), as a new generation.
    pub fn reinstate_node(
        &mut self,
        node: NodeId,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) {
        self.excluded.retain(|&n| n != node);
        for pos in 0..self.entries.len() {
            let entry = &self.entries[pos];
            if !reads(&entry.registered, node) || reads(&entry.predicate, node) {
                continue;
            }
            let rebuilt = self.less_exclusions(entry.registered.clone());
            self.change_at(pos, rebuilt, recorder, out, completed);
        }
    }

    /// `predicate` less the exclusions in force, in exclusion order,
    /// skipping any the rewrite refuses.
    fn less_exclusions(&self, mut predicate: Predicate) -> Predicate {
        for &n in &self.excluded {
            predicate = without(&predicate, n).unwrap_or(predicate);
        }
        predicate
    }

    /// Number of registered predicates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no predicates are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of blocked waiters (for tests and introspection).
    pub fn pending_waiters(&self) -> usize {
        self.entries.iter().map(|e| e.waiters.len()).sum()
    }

    /// Total VM runs (registration, change, and one per frontier an ACK
    /// advance crossed) — not the dependants an advance visited.
    pub fn evaluations(&self) -> u64 {
        self.evals
    }

    /// Position of `(stream, key)` in `entries`, or where it would go.
    fn find(&self, stream: NodeId, key: &str) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|e| (e.stream, e.key.as_str()).cmp(&(stream, key)))
    }

    fn change_at(
        &mut self,
        pos: usize,
        predicate: Predicate,
        recorder: &AckRecorder,
        out: &mut Vec<FrontierUpdate>,
        completed: &mut Vec<WaitToken>,
    ) {
        self.replace(pos, predicate, recorder);
        let entry = &mut self.entries[pos];
        out.push(entry.update());
        entry.drain_waiters(completed);
    }

    /// Run `predicate` for the entry at `pos` as its next generation.
    fn replace(&mut self, pos: usize, predicate: Predicate, recorder: &AckRecorder) {
        self.deps = None;
        self.evals += 1;
        let entry = &mut self.entries[pos];
        entry.generation += 1;
        entry.frontier =
            predicate.eval_with(&recorder.stream_view(entry.stream), &mut self.scratch);
        entry.predicate = predicate;
    }
}

/// Whether `predicate` reads any cell of `node`.
fn reads(predicate: &Predicate, node: NodeId) -> bool {
    predicate.dependencies().iter().any(|&(n, _)| n == node)
}

/// `predicate` rewritten not to read `node`; `None` if it does not read
/// it, or the rewrite would leave it empty.
fn without(predicate: &Predicate, node: NodeId) -> Option<Predicate> {
    reads(predicate, node).then(|| predicate.excluding(node).ok())?
}

/// The entries reading each cell, flattened: cell `(stream, node, ty)`
/// is `(stream * nodes + node) * types + ty`, and the positions in
/// `entries` of its readers are `positions[starts[cell]..starts[cell +
/// 1]]`, ascending, so updates leave in `(stream, key)` order. The
/// table spans the largest stream, node and type any entry reads, so it
/// is never larger than the recorder's.
#[derive(Debug)]
struct DepIndex {
    streams: usize,
    nodes: usize,
    types: usize,
    starts: Vec<u32>,
    positions: Vec<u32>,
}

impl DepIndex {
    /// Count each cell's readers, turn the counts into run ends, and
    /// fill every run from its end walking the entries backwards.
    fn build(entries: &[Entry]) -> Self {
        let (mut streams, mut nodes, mut types) = (0, 0, 0);
        for entry in entries {
            streams = streams.max(usize::from(entry.stream.0) + 1);
            for &(node, ty) in entry.predicate.dependencies() {
                nodes = nodes.max(usize::from(node.0) + 1);
                types = types.max(usize::from(ty.0) + 1);
            }
        }
        let mut index = DepIndex {
            streams,
            nodes,
            types,
            starts: Vec::new(),
            positions: Vec::new(),
        };
        let cells = streams * nodes * types;
        let mut starts = vec![0u32; cells + 1];
        for entry in entries {
            for &(node, ty) in entry.predicate.dependencies() {
                starts[index.cell(entry.stream, node, ty)] += 1;
            }
        }
        let mut end = 0;
        for run in &mut starts {
            end += *run;
            *run = end;
        }
        let mut positions = vec![0u32; end as usize];
        for (pos, entry) in entries.iter().enumerate().rev() {
            for &(node, ty) in entry.predicate.dependencies() {
                let run = &mut starts[index.cell(entry.stream, node, ty)];
                *run -= 1;
                positions[*run as usize] = pos as u32;
            }
        }
        index.starts = starts;
        index.positions = positions;
        index
    }

    fn cell(&self, stream: NodeId, node: NodeId, ty: AckTypeId) -> usize {
        (usize::from(stream.0) * self.nodes + usize::from(node.0)) * self.types + usize::from(ty.0)
    }

    /// Positions of the entries reading `(stream, node, ty)`, ascending;
    /// empty for a cell outside the table.
    fn dependants(&self, stream: NodeId, node: NodeId, ty: AckTypeId) -> &[u32] {
        if usize::from(stream.0) >= self.streams
            || usize::from(node.0) >= self.nodes
            || usize::from(ty.0) >= self.types
        {
            return &[];
        }
        let cell = self.cell(stream, node, ty);
        &self.positions[self.starts[cell] as usize..self.starts[cell + 1] as usize]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use stabilizer_dsl::{AckTypeRegistry, Topology, PERSISTED, RECEIVED};
    use std::collections::BTreeMap;

    fn topo() -> Topology {
        Topology::builder()
            .az("A", &["a", "b"])
            .az("B", &["c", "d"])
            .build()
            .unwrap()
    }

    fn pred(src: &str) -> Predicate {
        Predicate::compile(src, &topo(), &AckTypeRegistry::new(), NodeId(0)).unwrap()
    }

    fn setup() -> (
        FrontierEngine,
        AckRecorder,
        Vec<FrontierUpdate>,
        Vec<WaitToken>,
    ) {
        (
            FrontierEngine::new(),
            AckRecorder::new(4, 3),
            Vec::new(),
            Vec::new(),
        )
    }

    #[test]
    fn frontier_advances_only_when_predicate_satisfied() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        eng.register(
            NodeId(0),
            "all",
            pred("MIN($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done,
        );
        assert!(out.is_empty());
        // Two of three remotes ack seq 5: MIN still 0.
        for n in [1u16, 2] {
            rec.observe(NodeId(0), NodeId(n), RECEIVED, 5);
            eng.on_ack_advance(NodeId(0), NodeId(n), RECEIVED, &rec, &mut out, &mut done);
        }
        assert!(out.is_empty());
        rec.observe(NodeId(0), NodeId(3), RECEIVED, 4);
        eng.on_ack_advance(NodeId(0), NodeId(3), RECEIVED, &rec, &mut out, &mut done);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seq, 4);
        assert_eq!(eng.frontier(NodeId(0), "all"), Some((4, 0)));
    }

    #[test]
    fn unrelated_acks_do_not_reevaluate() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        eng.register(NodeId(0), "one", pred("MAX($2)"), &rec, &mut out, &mut done);
        // An ack from node 3 is not a dependency of MAX($2).
        rec.observe(NodeId(0), NodeId(2), RECEIVED, 9);
        eng.on_ack_advance(NodeId(0), NodeId(2), RECEIVED, &rec, &mut out, &mut done);
        assert!(out.is_empty());
        rec.observe(NodeId(0), NodeId(1), RECEIVED, 9);
        eng.on_ack_advance(NodeId(0), NodeId(1), RECEIVED, &rec, &mut out, &mut done);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn waitfor_completes_when_frontier_reaches_seq() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        eng.register(
            NodeId(0),
            "one",
            pred("MAX($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done,
        );
        eng.waitfor(NodeId(0), "one", 10, 77, &mut done).unwrap();
        assert!(done.is_empty());
        assert_eq!(eng.pending_waiters(), 1);
        rec.observe(NodeId(0), NodeId(2), RECEIVED, 12);
        eng.on_ack_advance(NodeId(0), NodeId(2), RECEIVED, &rec, &mut out, &mut done);
        assert_eq!(done, vec![77]);
        assert_eq!(eng.pending_waiters(), 0);
    }

    #[test]
    fn waitfor_already_satisfied_completes_immediately() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        rec.observe(NodeId(0), NodeId(1), RECEIVED, 20);
        eng.register(
            NodeId(0),
            "one",
            pred("MAX($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done,
        );
        assert_eq!(out[0].seq, 20); // initial eval reported
        eng.waitfor(NodeId(0), "one", 15, 5, &mut done).unwrap();
        assert_eq!(done, vec![5]);
    }

    #[test]
    fn waitfor_unknown_key_errors() {
        let (mut eng, _rec, _out, mut done) = setup();
        assert!(eng.waitfor(NodeId(0), "nope", 1, 0, &mut done).is_err());
    }

    #[test]
    fn change_bumps_generation_and_may_regress() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        // Weak predicate: any remote. Strong predicate: all remotes.
        rec.observe(NodeId(0), NodeId(1), RECEIVED, 30);
        eng.register(
            NodeId(0),
            "p",
            pred("MAX($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done,
        );
        assert_eq!(eng.frontier(NodeId(0), "p"), Some((30, 0)));
        out.clear();
        assert!(eng.change(
            NodeId(0),
            "p",
            pred("MIN($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done
        ));
        // The gap: new generation starts at 0 because nodes 2,3 have not acked.
        assert_eq!(
            out,
            vec![FrontierUpdate {
                stream: NodeId(0),
                key: "p".into(),
                seq: 0,
                generation: 1
            }]
        );
        assert!(!eng.change(
            NodeId(0),
            "missing",
            pred("MAX($2)"),
            &rec,
            &mut out,
            &mut done
        ));
    }

    #[test]
    fn unregister_orphans_waiters() {
        let (mut eng, rec, mut out, mut done) = setup();
        eng.register(NodeId(0), "p", pred("MAX($2)"), &rec, &mut out, &mut done);
        eng.waitfor(NodeId(0), "p", 4, 9, &mut done).unwrap();
        let orphans = eng.unregister(NodeId(0), "p");
        assert_eq!(orphans, vec![9]);
        assert_eq!(eng.len(), 0);
        assert!(eng.is_empty());
    }

    #[test]
    fn exclude_node_rewrites_affected_predicates() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        eng.register(
            NodeId(0),
            "all",
            pred("MIN($ALLWNODES-$MYWNODE)"),
            &rec,
            &mut out,
            &mut done,
        );
        eng.register(
            NodeId(0),
            "pair",
            pred("MIN($2, $3)"),
            &rec,
            &mut out,
            &mut done,
        );
        // Node 3 (id 2) dies. Nodes 1 and 3 acked far; node 3 was the straggler.
        rec.observe(NodeId(0), NodeId(1), RECEIVED, 50);
        rec.observe(NodeId(0), NodeId(3), RECEIVED, 50);
        eng.on_ack_advance(NodeId(0), NodeId(1), RECEIVED, &rec, &mut out, &mut done);
        eng.on_ack_advance(NodeId(0), NodeId(3), RECEIVED, &rec, &mut out, &mut done);
        assert_eq!(eng.frontier(NodeId(0), "all"), Some((0, 0)));
        out.clear();
        eng.exclude_node(NodeId(2), &rec, &mut out, &mut done);
        // With node 2 excluded, MIN over {1,3} = 50; "pair" becomes MIN($2)=50.
        assert_eq!(eng.frontier(NodeId(0), "all"), Some((50, 1)));
        assert_eq!(eng.frontier(NodeId(0), "pair"), Some((50, 1)));
    }

    #[test]
    fn streams_are_independent() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        eng.register(NodeId(0), "p", pred("MAX($2)"), &rec, &mut out, &mut done);
        eng.register(NodeId(1), "p", pred("MAX($2)"), &rec, &mut out, &mut done);
        rec.observe(NodeId(1), NodeId(1), RECEIVED, 7);
        eng.on_ack_advance(NodeId(1), NodeId(1), RECEIVED, &rec, &mut out, &mut done);
        assert_eq!(eng.frontier(NodeId(0), "p"), Some((0, 0)));
        assert_eq!(eng.frontier(NodeId(1), "p"), Some((7, 0)));
        let keys: Vec<(NodeId, &str)> = eng.registered().map(|(s, k, _)| (s, k)).collect();
        assert_eq!(keys, [(NodeId(0), "p"), (NodeId(1), "p")]);
    }

    #[test]
    fn reregister_bumps_generation() {
        let (mut eng, rec, mut out, mut done) = setup();
        eng.register(NodeId(0), "p", pred("MAX($2)"), &rec, &mut out, &mut done);
        eng.register(NodeId(0), "p", pred("MAX($3)"), &rec, &mut out, &mut done);
        assert_eq!(eng.frontier(NodeId(0), "p"), Some((0, 1)));
    }

    #[test]
    fn ack_cell_nobody_reads_costs_no_evaluation() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        eng.register(NodeId(0), "one", pred("MAX($2)"), &rec, &mut out, &mut done);
        let before = eng.evaluations();
        // Node 3's `received`, node 2's `persisted`, and a cell of a stream
        // nothing is registered for: none is a dependency of MAX($2).
        for (stream, node, ty) in [(0, 2, RECEIVED), (0, 1, PERSISTED), (1, 1, RECEIVED)] {
            rec.observe(NodeId(stream), NodeId(node), ty, 9);
            eng.on_ack_advance(NodeId(stream), NodeId(node), ty, &rec, &mut out, &mut done);
        }
        assert_eq!(eng.evaluations(), before);
        assert!(out.is_empty());
        rec.observe(NodeId(0), NodeId(1), RECEIVED, 9);
        eng.on_ack_advance(NodeId(0), NodeId(1), RECEIVED, &rec, &mut out, &mut done);
        assert_eq!(eng.evaluations(), before + 1);
    }

    #[test]
    fn one_cell_releases_waiters_in_key_order_then_call_order() {
        let (mut eng, mut rec, mut out, mut done) = setup();
        // Registered and waited on against key order.
        eng.register(NodeId(0), "b", pred("MAX($2)"), &rec, &mut out, &mut done);
        eng.register(NodeId(0), "a", pred("MAX($2)"), &rec, &mut out, &mut done);
        eng.waitfor(NodeId(0), "b", 3, 1, &mut done).unwrap();
        eng.waitfor(NodeId(0), "a", 5, 2, &mut done).unwrap();
        eng.waitfor(NodeId(0), "b", 2, 3, &mut done).unwrap();
        eng.waitfor(NodeId(0), "a", 1, 4, &mut done).unwrap();
        eng.waitfor(NodeId(0), "a", 9, 5, &mut done).unwrap(); // not reached
        rec.observe(NodeId(0), NodeId(1), RECEIVED, 5);
        eng.on_ack_advance(NodeId(0), NodeId(1), RECEIVED, &rec, &mut out, &mut done);
        let keys: Vec<&str> = out.iter().map(|u| u.key.as_str()).collect();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(done, vec![2, 4, 1, 3]);
        assert_eq!(eng.pending_waiters(), 1);
    }

    /// The engine this one replaced, kept as the oracle: every entry of an
    /// ordered map is scanned on every ACK and every dependant of the
    /// cell is evaluated whether or not the cell crossed its frontier,
    /// each evaluation allocates its scratch, and waiters sit in one
    /// global list.
    #[derive(Default)]
    struct NaiveEngine {
        /// `(stream, key) -> (registered, running, frontier, generation)`.
        entries: BTreeMap<(NodeId, String), (Predicate, Predicate, SeqNo, u32)>,
        /// In force, in exclusion order.
        excluded: Vec<NodeId>,
        waiters: Vec<(NodeId, String, SeqNo, WaitToken)>,
        evals: u64,
    }

    impl NaiveEngine {
        fn register(
            &mut self,
            stream: NodeId,
            key: &str,
            predicate: Predicate,
            recorder: &AckRecorder,
            out: &mut Vec<FrontierUpdate>,
            completed: &mut Vec<WaitToken>,
        ) {
            let generation = self
                .entries
                .get(&(stream, key.to_owned()))
                .map_or(0, |e| e.3 + 1);
            // The spec: every running program is its registered program
            // less the exclusions in force.
            let running = self.less_exclusions(&predicate);
            self.evals += 1;
            let frontier = running.eval(&recorder.stream_view(stream));
            self.entries.insert(
                (stream, key.to_owned()),
                (predicate, running, frontier, generation),
            );
            if frontier > 0 {
                out.push(FrontierUpdate {
                    stream,
                    key: key.to_owned(),
                    seq: frontier,
                    generation,
                });
            }
            self.drain_waiters(stream, key, frontier, completed);
        }

        fn change(
            &mut self,
            stream: NodeId,
            key: &str,
            predicate: Predicate,
            recorder: &AckRecorder,
            out: &mut Vec<FrontierUpdate>,
            completed: &mut Vec<WaitToken>,
        ) -> bool {
            let Some(entry) = self.entries.get_mut(&(stream, key.to_owned())) else {
                return false;
            };
            entry.0 = predicate.clone();
            // The same spec as `register`'s.
            let running = self.less_exclusions(&predicate);
            self.run(stream, key, running, recorder, out, completed);
            true
        }

        /// Run `predicate` for a registered key as its next generation.
        fn run(
            &mut self,
            stream: NodeId,
            key: &str,
            predicate: Predicate,
            recorder: &AckRecorder,
            out: &mut Vec<FrontierUpdate>,
            completed: &mut Vec<WaitToken>,
        ) {
            let entry = self.entries.get_mut(&(stream, key.to_owned())).unwrap();
            self.evals += 1;
            entry.3 += 1;
            entry.2 = predicate.eval(&recorder.stream_view(stream));
            entry.1 = predicate;
            let (frontier, generation) = (entry.2, entry.3);
            out.push(FrontierUpdate {
                stream,
                key: key.to_owned(),
                seq: frontier,
                generation,
            });
            self.drain_waiters(stream, key, frontier, completed);
        }

        fn unregister(&mut self, stream: NodeId, key: &str) -> Vec<WaitToken> {
            self.entries.remove(&(stream, key.to_owned()));
            let mut orphaned = Vec::new();
            self.waiters.retain(|w| {
                let hit = w.0 == stream && w.1 == key;
                if hit {
                    orphaned.push(w.3);
                }
                !hit
            });
            orphaned
        }

        fn waitfor(
            &mut self,
            stream: NodeId,
            key: &str,
            seq: SeqNo,
            token: WaitToken,
            completed: &mut Vec<WaitToken>,
        ) -> bool {
            let Some(entry) = self.entries.get(&(stream, key.to_owned())) else {
                return false;
            };
            if entry.2 >= seq {
                completed.push(token);
            } else {
                self.waiters.push((stream, key.to_owned(), seq, token));
            }
            true
        }

        fn on_ack_advance(
            &mut self,
            stream: NodeId,
            node: NodeId,
            ty: AckTypeId,
            recorder: &AckRecorder,
            out: &mut Vec<FrontierUpdate>,
            completed: &mut Vec<WaitToken>,
        ) {
            let view = recorder.stream_view(stream);
            let mut advanced: Vec<(String, SeqNo)> = Vec::new();
            for ((s, key), entry) in self.entries.iter_mut() {
                if *s != stream || !entry.1.dependencies().contains(&(node, ty)) {
                    continue;
                }
                self.evals += 1;
                let new = entry.1.eval(&view);
                if new > entry.2 {
                    entry.2 = new;
                    out.push(FrontierUpdate {
                        stream,
                        key: key.clone(),
                        seq: new,
                        generation: entry.3,
                    });
                    advanced.push((key.clone(), new));
                }
            }
            for (key, new) in advanced {
                self.drain_waiters(stream, &key, new, completed);
            }
        }

        fn exclude_node(
            &mut self,
            node: NodeId,
            recorder: &AckRecorder,
            out: &mut Vec<FrontierUpdate>,
            completed: &mut Vec<WaitToken>,
        ) {
            if !self.excluded.contains(&node) {
                self.excluded.push(node);
            }
            let keys: Vec<(NodeId, String)> = self.entries.keys().cloned().collect();
            for (stream, key) in keys {
                let running = &self.entries[&(stream, key.clone())].1;
                if !reads(running, node) {
                    continue;
                }
                if let Ok(rewritten) = running.excluding(node) {
                    self.run(stream, &key, rewritten, recorder, out, completed);
                }
            }
        }

        /// The registered program, less every exclusion in force that
        /// it reads and the rewrite allows, of each key that lost `node`.
        fn reinstate_node(
            &mut self,
            node: NodeId,
            recorder: &AckRecorder,
            out: &mut Vec<FrontierUpdate>,
            completed: &mut Vec<WaitToken>,
        ) {
            self.excluded.retain(|&n| n != node);
            let keys: Vec<(NodeId, String)> = self.entries.keys().cloned().collect();
            for (stream, key) in keys {
                let (registered, running, ..) = &self.entries[&(stream, key.clone())];
                if !reads(registered, node) || reads(running, node) {
                    continue;
                }
                let rebuilt = self.less_exclusions(registered);
                self.run(stream, &key, rebuilt, recorder, out, completed);
            }
        }

        /// `registered` less every exclusion in force that it reads and
        /// the rewrite allows, in exclusion order.
        fn less_exclusions(&self, registered: &Predicate) -> Predicate {
            let mut rebuilt = registered.clone();
            for &n in &self.excluded {
                if reads(&rebuilt, n) {
                    rebuilt = rebuilt.excluding(n).unwrap_or(rebuilt);
                }
            }
            rebuilt
        }

        fn drain_waiters(
            &mut self,
            stream: NodeId,
            key: &str,
            frontier: SeqNo,
            completed: &mut Vec<WaitToken>,
        ) {
            self.waiters.retain(|w| {
                let done = w.0 == stream && w.1 == key && w.2 <= frontier;
                if done {
                    completed.push(w.3);
                }
                !done
            });
        }
    }

    /// Keys that share prefixes, so ordering by `(stream, key)` is ordering
    /// by string comparison and not by length or insertion.
    pub(crate) const KEYS: [&str; 6] = ["a", "ab", "abc", "ab/c", "b", "a0"];
    pub(crate) const TYPE_NAMES: [&str; 5] =
        ["received", "persisted", "delivered", "verified", "audited"];

    /// The stream whose own row `(OWN, OWN, *)` moves the way an origin's
    /// does: every level together ([`Op::Publish`]), never one alone.
    const OWN: NodeId = NodeId(0);

    #[derive(Debug, Clone)]
    pub(crate) enum Op {
        /// `(reduction, node mask, ack type)`: see [`source`].
        Register(u16, usize, (u8, u8, usize)),
        Change(u16, usize, (u8, u8, usize)),
        Unregister(u16, usize),
        Exclude(u16),
        Reinstate(u16),
        Waitfor(u16, usize, SeqNo),
        Ack(u16, u16, usize, SeqNo),
        /// `StabilizerNode::publish`'s shape: write every level of the own
        /// row, then fold them in order.
        Publish(SeqNo),
        /// `StabilizerNode::restore`'s shape: the table is replaced (here
        /// by one holding these `(stream, node, type, value)` cells and
        /// the own row at one level) and every key is registered again.
        Restore(SeqNo, Vec<(u16, u16, usize, SeqNo)>),
        AddType,
    }

    pub(crate) fn arb_op() -> impl Strategy<Value = Op> {
        let stream = 0u16..8;
        let key = 0..KEYS.len();
        let spec = (0u8..4, 1u8..=255, 0usize..5);
        prop_oneof![
            4 => (stream.clone(), key.clone(), spec.clone()).prop_map(|(s, k, p)| Op::Register(s, k, p)),
            2 => (stream.clone(), key.clone(), spec).prop_map(|(s, k, p)| Op::Change(s, k, p)),
            1 => (stream.clone(), key.clone()).prop_map(|(s, k)| Op::Unregister(s, k)),
            1 => (0u16..8).prop_map(Op::Exclude),
            1 => (0u16..8).prop_map(Op::Reinstate),
            3 => (stream.clone(), key, 0u64..40).prop_map(|(s, k, q)| Op::Waitfor(s, k, q)),
            12 => (stream.clone(), 0u16..8, 0usize..5, 0u64..40).prop_map(|(s, n, t, q)| Op::Ack(s, n, t, q)),
            3 => (0u64..40).prop_map(Op::Publish),
            1 => (0u64..40, proptest::collection::vec((stream, 0u16..8, 0usize..5, 0u64..40), 0..12))
                .prop_map(|(own, cells)| Op::Restore(own, cells)),
            1 => Just(Op::AddType),
        ]
    }

    /// `MIN` / `MAX` / `KTH_MAX(2, ..)` / `KTH_MIN(2, ..)` over the nodes of
    /// `mask` (at least one of the `n`) at ACK type `ty`.
    pub(crate) fn source((reduction, mask, ty): (u8, u8, usize), n: u16, types: usize) -> String {
        let mut nodes: Vec<u16> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        if nodes.is_empty() {
            nodes.push(mask as u16 % n);
        }
        let ty = TYPE_NAMES[ty % types];
        let operands: Vec<String> = nodes.iter().map(|i| format!("${}.{ty}", i + 1)).collect();
        let operands = operands.join(", ");
        let k = nodes.len().min(2);
        match reduction {
            0 => format!("MIN({operands})"),
            1 => format!("MAX({operands})"),
            2 => format!("KTH_MAX({k}, {operands})"),
            _ => format!("KTH_MIN({k}, {operands})"),
        }
    }

    /// What one op emitted: frontier updates, completed waits.
    type Outs = (Vec<FrontierUpdate>, Vec<WaitToken>);

    /// `StabilizerNode::publish`'s shape through both engines: every
    /// level of the own row is written, then the moved ones are folded
    /// in order, each against the final table.
    fn publish(
        seq: SeqNo,
        rec: &mut AckRecorder,
        eng: &mut FrontierEngine,
        naive: &mut NaiveEngine,
        got: &mut Outs,
        want: &mut Outs,
    ) {
        let mut moved = Vec::new();
        rec.observe_all_types(OWN, OWN, seq, &mut moved);
        for (ty, old) in moved {
            eng.on_ack_advance_from((OWN, OWN, ty), old, rec, &mut got.0, &mut got.1);
            naive.on_ack_advance(OWN, OWN, ty, rec, &mut want.0, &mut want.1);
        }
    }

    /// The crossing rule on a node shaped like `sim8-ctrl`'s: the six
    /// configured predicates of `benchmarks/configs/sim8.cfg` on its own
    /// stream plus the last three of them on each of the seven remote
    /// streams, 27 in all. The moving cell is always node 3's `received`;
    /// a row is the stream it belongs to — six predicates read the cell
    /// on the own stream, three on a remote one — and where the other
    /// nodes stand, which decides whether the cell crosses a frontier.
    /// The engine runs the VM once per frontier crossed, not once per
    /// predicate that reads the cell.
    #[test]
    fn an_ack_runs_the_vm_once_per_frontier_it_crosses() {
        const FAR: u64 = 1 << 40;
        const CONFIGURED: [(&str, &str); 6] = [
            ("OneRegion", "MAX(MAX($AZ_NV), MAX($AZ_OR), MAX($AZ_OH))"),
            (
                "MajorityRegions",
                "KTH_MAX(2, MAX($AZ_NV), MAX($AZ_OR), MAX($AZ_OH))",
            ),
            ("AllRegions", "MIN(MAX($AZ_NV), MAX($AZ_OR), MAX($AZ_OH))"),
            ("OneWNode", "MAX($ALLWNODES-$MYWNODE)"),
            (
                "MajorityWNodes",
                "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)",
            ),
            ("AllWNodes", "MIN($ALLWNODES-$MYWNODE)"),
        ];
        let topo = Topology::builder()
            .az("NC", &["n1", "n2"])
            .az("NV", &["n3", "n4", "n5", "n6"])
            .az("OR", &["n7"])
            .az("OH", &["n8"])
            .build()
            .unwrap();
        let (me, mover) = (NodeId(0), NodeId(3));
        // (stream, where nodes 1..=7 other than the mover stand, VM runs)
        let rows: [(u16, [u64; 8], u64); 4] = [
            // `AllWNodes` is a MIN and the mover is its slowest cell:
            // every step raises it. The other five frontiers are far
            // ahead.
            (0, [FAR; 8], 1),
            // Node 1 is the slowest instead: the mover is above
            // `AllWNodes`' frontier and below every other.
            (0, [0, 0, FAR, 0, FAR, FAR, FAR, FAR], 0),
            // `OneWNode` is a MAX and the mover leads it: overtaken each
            // step.
            (1, [0; 8], 1),
            // Node 2 leads instead; the mover runs below it.
            (1, [0, 0, FAR, 0, 0, 0, 0, 0], 0),
        ];
        for (row, (stream, others, vm_runs)) in rows.into_iter().enumerate() {
            let stream = NodeId(stream);
            let mut rec = AckRecorder::new(8, 3);
            for (node, at) in others.into_iter().enumerate().skip(1) {
                if node != usize::from(mover.0) {
                    rec.observe(stream, NodeId(node as u16), RECEIVED, at);
                }
            }
            let (mut eng, acks) = (FrontierEngine::new(), AckTypeRegistry::new());
            let (mut out, mut done) = (Vec::new(), Vec::new());
            for s in (0..8).map(NodeId) {
                let keys = if s == me {
                    &CONFIGURED[..]
                } else {
                    &CONFIGURED[3..]
                };
                for (key, src) in keys {
                    let pred = Predicate::compile(src, &topo, &acks, me).unwrap();
                    eng.register(s, key, pred, &rec, &mut out, &mut done);
                }
            }
            assert_eq!(eng.len(), 27);
            // Off the all-zero table, then the step that is counted.
            for seq in 1..=2 {
                let before = eng.evaluations();
                let old = rec.advance(stream, mover, RECEIVED, seq).expect("advances");
                eng.on_ack_advance_from((stream, mover, RECEIVED), old, &rec, &mut out, &mut done);
                if seq == 2 {
                    assert_eq!(eng.evaluations() - before, vm_runs, "row {row}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn indexed_engine_matches_the_scan(
            n in 4u16..=8,
            ops in proptest::collection::vec(arb_op(), 1..160),
        ) {
            let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let topo = Topology::builder().az("A", &names).build().unwrap();
            let acks = AckTypeRegistry::new();
            let mut rec = AckRecorder::new(n as usize, acks.len());
            let (mut eng, mut naive) = (FrontierEngine::new(), NaiveEngine::default());
            let mut token = 0;
            for op in ops {
                let compile = |spec| {
                    let src = source(spec, n, acks.len());
                    Predicate::compile(&src, &topo, &acks, NodeId(0)).unwrap()
                };
                let (mut got, mut want) = (Outs::default(), Outs::default());
                match op {
                    Op::Register(s, k, spec) => {
                        let (s, p) = (NodeId(s % n), compile(spec));
                        eng.register(s, KEYS[k], p.clone(), &rec, &mut got.0, &mut got.1);
                        naive.register(s, KEYS[k], p, &rec, &mut want.0, &mut want.1);
                    }
                    Op::Change(s, k, spec) => {
                        let (s, p) = (NodeId(s % n), compile(spec));
                        prop_assert_eq!(
                            eng.change(s, KEYS[k], p.clone(), &rec, &mut got.0, &mut got.1),
                            naive.change(s, KEYS[k], p, &rec, &mut want.0, &mut want.1)
                        );
                    }
                    Op::Unregister(s, k) => {
                        let s = NodeId(s % n);
                        prop_assert_eq!(eng.unregister(s, KEYS[k]), naive.unregister(s, KEYS[k]));
                    }
                    Op::Exclude(node) => {
                        let node = NodeId(node % n);
                        eng.exclude_node(node, &rec, &mut got.0, &mut got.1);
                        naive.exclude_node(node, &rec, &mut want.0, &mut want.1);
                    }
                    Op::Reinstate(node) => {
                        let node = NodeId(node % n);
                        eng.reinstate_node(node, &rec, &mut got.0, &mut got.1);
                        naive.reinstate_node(node, &rec, &mut want.0, &mut want.1);
                    }
                    Op::Waitfor(s, k, seq) => {
                        let s = NodeId(s % n);
                        token += 1;
                        prop_assert_eq!(
                            eng.waitfor(s, KEYS[k], seq, token, &mut got.1).is_ok(),
                            naive.waitfor(s, KEYS[k], seq, token, &mut want.1)
                        );
                    }
                    // A single level of the own row never moves alone.
                    Op::Ack(s, node, _, seq) if (NodeId(s % n), NodeId(node % n)) == (OWN, OWN) => {
                        publish(seq, &mut rec, &mut eng, &mut naive, &mut got, &mut want);
                    }
                    Op::Ack(s, node, ty, seq) => {
                        let (s, node) = (NodeId(s % n), NodeId(node % n));
                        let ty = AckTypeId((ty % acks.len()) as u16);
                        // Told `old` or not, a stale report or not: the
                        // same outputs as evaluating every dependant.
                        match rec.advance(s, node, ty, seq) {
                            Some(old) if seq % 2 == 0 => {
                                eng.on_ack_advance_from((s, node, ty), old, &rec, &mut got.0, &mut got.1);
                            }
                            _ => eng.on_ack_advance(s, node, ty, &rec, &mut got.0, &mut got.1),
                        }
                        naive.on_ack_advance(s, node, ty, &rec, &mut want.0, &mut want.1);
                    }
                    Op::Publish(seq) => publish(seq, &mut rec, &mut eng, &mut naive, &mut got, &mut want),
                    Op::Restore(own, cells) => {
                        rec = AckRecorder::new(n as usize, acks.len());
                        let mut moved = Vec::new();
                        rec.observe_all_types(OWN, OWN, own, &mut moved);
                        for (s, node, ty, seq) in cells {
                            let (s, node) = (NodeId(s % n), NodeId(node % n));
                            if (s, node) != (OWN, OWN) {
                                rec.observe(s, node, AckTypeId((ty % acks.len()) as u16), seq);
                            }
                        }
                        let registered: Vec<_> = naive.entries.iter()
                            .map(|((s, key), (p, ..))| (*s, key.clone(), p.clone()))
                            .collect();
                        for (s, key, p) in registered {
                            eng.register(s, &key, p.clone(), &rec, &mut got.0, &mut got.1);
                            naive.register(s, &key, p, &rec, &mut want.0, &mut want.1);
                        }
                    }
                    Op::AddType => {
                        if acks.len() < TYPE_NAMES.len() {
                            let ty = acks.register(TYPE_NAMES[acks.len()]);
                            rec.ensure_types(acks.len());
                            // `register_ack_type`: the new level joins
                            // the own row where the others stand.
                            let level = rec.get(OWN, OWN, RECEIVED);
                            if let Some(old) = rec.advance(OWN, OWN, ty, level) {
                                eng.on_ack_advance_from((OWN, OWN, ty), old, &rec, &mut got.0, &mut got.1);
                                naive.on_ack_advance(OWN, OWN, ty, &rec, &mut want.0, &mut want.1);
                            }
                        }
                    }
                }
                prop_assert_eq!(&got, &want);
                prop_assert!(eng.evaluations() <= naive.evals);
                prop_assert_eq!(eng.len(), naive.entries.len());
                prop_assert_eq!(eng.pending_waiters(), naive.waiters.len());
                for ((stream, key), (_, running, frontier, generation)) in &naive.entries {
                    prop_assert_eq!(eng.frontier(*stream, key), Some((*frontier, *generation)));
                    prop_assert_eq!(eng.predicate(*stream, key).map(Predicate::source), Some(running.source()));
                }
                let registered = naive.entries.iter().map(|((s, k), (p, ..))| (*s, k.as_str(), p.source()));
                prop_assert!(eng.registered().map(|(s, k, p)| (s, k, p.source())).eq(registered));
            }
        }
    }
}
