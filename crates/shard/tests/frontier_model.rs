//! `ShardedFrontier` against a naive model of the same rules that never
//! forgets a mapping entry: one flat waiter list searched by
//! `(stream, key)`, every learned global through a `BTreeSet`, every
//! delivery through the parking map, every key recomputed by lookup.
//! Random interleavings of everything the aggregator is fed — including
//! keys registered and generations bumped after entries were reclaimed,
//! and an application reporting stability a constant behind delivery —
//! are checked three ways:
//!
//! * against the model told where the real maps now begin (it answers
//!   `1` for a shard frontier below that point, as the real one must):
//!   the same deliveries, frontier updates and completed waits, in the
//!   same order;
//! * against the model that is told nothing (the unreclaimed behaviour):
//!   deliveries identical, every aggregate never above the model's, and
//!   equal whenever the key's shard frontiers are at or above where the
//!   maps begin; `shard_progress` at or above the lowest reported level
//!   identical;
//! * a map's beginning only ever moves up to what its readers allow.

use bytes::Bytes;
use proptest::prelude::*;
use stabilizer_core::{AckTypeId, Action, FrontierUpdate, NodeId, SeqNo, WaitToken};
use stabilizer_shard::{encode_global, AggOutput, ShardedAction, ShardedFrontier};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What one step released: global-FIFO deliveries, aggregate events, and
/// the token of the wait it registered (if it was one).
type Released = (Vec<(SeqNo, Bytes)>, AggOutput, Option<WaitToken>);

/// One shard of one origin: everything learned.
#[derive(Default, Clone)]
struct NaiveShard {
    /// Learned globals, shard seq `i + 1` at index `i`.
    globals: Vec<SeqNo>,
    /// Where the real map begins, when the model is told (else 0): a
    /// shard frontier below it is answered conservatively.
    begins: SeqNo,
}

impl NaiveShard {
    fn newest(&self) -> SeqNo {
        self.globals.len() as SeqNo
    }

    fn global_of(&self, shard_seq: SeqNo) -> Option<SeqNo> {
        let i = shard_seq.checked_sub(1)?;
        self.globals.get(i as usize).copied()
    }

    /// Shard seq of the last entry with global `≤ global`.
    fn upto(&self, global: SeqNo) -> SeqNo {
        self.globals.iter().filter(|&&g| g <= global).count() as SeqNo
    }

    fn progress(&self, global: SeqNo) -> SeqNo {
        match self.upto(global) {
            upto if upto > self.begins => upto,
            _ => 0,
        }
    }
}

#[derive(Default)]
struct NaiveOrigin {
    shards: Vec<NaiveShard>,
    learned: BTreeSet<SeqNo>,
    known_prefix: SeqNo,
    delivered: SeqNo,
    pending: BTreeMap<SeqNo, Bytes>,
}

impl NaiveOrigin {
    fn advance_known(&mut self) {
        while self.learned.contains(&(self.known_prefix + 1)) {
            self.known_prefix += 1;
        }
    }

    fn drain_ready(&mut self) -> Vec<(SeqNo, Bytes)> {
        let mut ready = Vec::new();
        while let Some(payload) = self.pending.remove(&(self.delivered + 1)) {
            self.delivered += 1;
            ready.push((self.delivered, payload));
        }
        ready
    }

    fn first_uncovered(&self, shard: usize, f: SeqNo) -> SeqNo {
        let sh = &self.shards[shard];
        if f < sh.begins {
            return 1;
        }
        sh.global_of(f + 1).unwrap_or(self.known_prefix + 1)
    }
}

struct NaiveKey {
    per_shard: Vec<SeqNo>,
    generation: u32,
    agg: SeqNo,
}

/// Everything the aggregator can be fed that has an output.
#[derive(Clone)]
enum Step {
    Publish(u16, SeqNo),
    Deliver(u16, SeqNo, Bytes),
    Frontier(u16, FrontierUpdate),
    Wait(NodeId, &'static str, SeqNo),
    Unregister(NodeId, &'static str),
    Ensure(NodeId, &'static str),
}

struct Naive {
    shards: usize,
    origins: Vec<NaiveOrigin>,
    keys: BTreeMap<(NodeId, String), NaiveKey>,
    waiters: Vec<(WaitToken, NodeId, String, SeqNo)>,
    next_token: WaitToken,
}

impl Naive {
    fn new(nodes: usize, shards: usize) -> Self {
        let origin = || NaiveOrigin {
            shards: vec![NaiveShard::default(); shards],
            ..NaiveOrigin::default()
        };
        Naive {
            shards,
            origins: (0..nodes).map(|_| origin()).collect(),
            keys: BTreeMap::new(),
            waiters: Vec::new(),
            next_token: 1,
        }
    }

    fn recompute_key(&mut self, stream: NodeId, key: &str, force: bool, out: &mut AggOutput) {
        let o = &self.origins[stream.0 as usize];
        let Some(st) = self.keys.get_mut(&(stream, key.to_owned())) else {
            return;
        };
        let firsts = (0..self.shards).map(|s| o.first_uncovered(s, st.per_shard[s]));
        let agg = firsts.min().expect("at least one shard") - 1;
        if agg > st.agg || force {
            st.agg = agg;
            out.updates.push(FrontierUpdate {
                stream,
                key: key.to_owned(),
                seq: agg,
                generation: st.generation,
            });
            let done =
                |w: &(WaitToken, NodeId, String, SeqNo)| w.1 == stream && w.2 == key && agg >= w.3;
            out.completed
                .extend(self.waiters.iter().filter(|w| done(w)).map(|w| w.0));
            self.waiters.retain(|w| !done(w));
        }
    }

    fn recompute_origin(&mut self, stream: NodeId) -> AggOutput {
        let mut out = AggOutput::default();
        let of_stream = self.keys.keys().filter(|(s, _)| *s == stream);
        let keys: Vec<String> = of_stream.map(|(_, k)| k.clone()).collect();
        for key in keys {
            self.recompute_key(stream, &key, false, &mut out);
        }
        out
    }

    fn learn_mapping(&mut self, origin: NodeId, shard: u16, global: SeqNo) -> AggOutput {
        let o = &mut self.origins[origin.0 as usize];
        o.shards[shard as usize].globals.push(global);
        o.learned.insert(global);
        o.advance_known();
        self.recompute_origin(origin)
    }

    fn ensure_key(&mut self, stream: NodeId, key: &str, generation: u32) -> &mut NaiveKey {
        let fresh = || NaiveKey {
            per_shard: vec![0; self.shards],
            generation,
            agg: 0,
        };
        self.keys
            .entry((stream, key.to_owned()))
            .or_insert_with(fresh)
    }

    fn apply(&mut self, step: Step) -> Released {
        match step {
            Step::Publish(shard, global) => {
                (Vec::new(), self.learn_mapping(OWN, shard, global), None)
            }
            Step::Deliver(shard, global, payload) => {
                let out = self.learn_mapping(PEER, shard, global);
                let o = &mut self.origins[PEER.0 as usize];
                o.pending.insert(global, payload);
                (o.drain_ready(), out, None)
            }
            Step::Ensure(stream, key) => {
                self.ensure_key(stream, key, 0);
                (Vec::new(), AggOutput::default(), None)
            }
            Step::Unregister(stream, key) => {
                self.keys.remove(&(stream, key.to_owned()));
                let gone = |w: &(WaitToken, NodeId, String, SeqNo)| w.1 == stream && w.2 == key;
                let completed = self.waiters.iter().filter(|w| gone(w)).map(|w| w.0);
                let out = AggOutput {
                    updates: Vec::new(),
                    completed: completed.collect(),
                };
                self.waiters.retain(|w| !gone(w));
                (Vec::new(), out, None)
            }
            Step::Frontier(shard, u) => {
                let st = self.ensure_key(u.stream, &u.key, u.generation);
                let force = u.generation > st.generation;
                let mut out = AggOutput::default();
                if u.generation >= st.generation {
                    if force {
                        st.generation = u.generation;
                        st.per_shard.fill(0);
                    }
                    let cell = &mut st.per_shard[shard as usize];
                    *cell = u.seq.max(*cell);
                    self.recompute_key(u.stream, &u.key, force, &mut out);
                }
                (Vec::new(), out, None)
            }
            Step::Wait(stream, key, seq) => {
                let Some(st) = self.keys.get(&(stream, key.to_owned())) else {
                    return (Vec::new(), AggOutput::default(), None);
                };
                let token = self.next_token;
                self.next_token += 1;
                let mut out = AggOutput::default();
                if st.agg >= seq {
                    out.completed.push(token);
                } else {
                    self.waiters.push((token, stream, key.to_owned(), seq));
                }
                (Vec::new(), out, Some(token))
            }
        }
    }
}

/// What `fold` appended, split back into deliveries and aggregate
/// events; the three kinds must come in that order.
fn unfold(actions: Vec<ShardedAction>) -> Released {
    let (mut ready, mut out, mut rank) = (Vec::new(), AggOutput::default(), 0);
    for action in actions {
        let kind = match action {
            ShardedAction::Node(Action::Deliver { seq, payload, .. }) => {
                ready.push((seq, payload));
                1
            }
            ShardedAction::Node(Action::Frontier(update)) => {
                out.updates.push(update);
                2
            }
            ShardedAction::Node(Action::WaitDone { token }) => {
                out.completed.push(token);
                3
            }
            other => panic!("unexpected {other:?}"),
        };
        assert!(kind >= rank, "fold emitted out of order");
        rank = kind;
    }
    (ready, out, None)
}

/// Feed `step` to the real aggregator, through `fold` where there is an
/// [`Action`] for it and `via_fold` says so.
fn apply_real(
    real: &mut ShardedFrontier,
    step: Step,
    shard_seq: &[SeqNo],
    via_fold: bool,
) -> Released {
    let mut folded = Vec::new();
    match step {
        Step::Publish(shard, global) => (Vec::new(), real.note_published(OWN, shard, global), None),
        Step::Deliver(shard, global, payload) => {
            let framed = encode_global(global, &payload);
            if via_fold {
                let (origin, seq) = (PEER, shard_seq[shard as usize]);
                let payload = framed;
                real.fold(
                    shard,
                    Action::Deliver {
                        origin,
                        seq,
                        payload,
                    },
                    &mut folded,
                );
                unfold(folded)
            } else {
                let (ready, out) = real.on_shard_deliver(shard, PEER, &framed).expect("framed");
                (ready, out, None)
            }
        }
        Step::Ensure(stream, key) => {
            real.ensure_key(stream, key);
            (Vec::new(), AggOutput::default(), None)
        }
        Step::Unregister(stream, key) => (Vec::new(), real.unregister_key(stream, key), None),
        Step::Frontier(shard, update) => {
            if via_fold {
                real.fold(shard, Action::Frontier(update), &mut folded);
                unfold(folded)
            } else {
                (Vec::new(), real.on_shard_frontier(shard, &update), None)
            }
        }
        Step::Wait(stream, key, seq) => match real.waitfor(stream, key, seq) {
            Ok((token, out)) => (Vec::new(), out, Some(token)),
            Err(_) => (Vec::new(), AggOutput::default(), None),
        },
    }
}

const KEYS: [&str; 3] = ["All", "Majority", "One"];
/// Stream 0 is the node's own (learned by publishing), stream 1 a
/// mirrored one (learned by delivering).
const OWN: NodeId = NodeId(0);
const PEER: NodeId = NodeId(1);
/// The two levels the application reports on the peer's stream, and how
/// far behind delivery each one runs.
const LEVELS: [(AckTypeId, SeqNo); 2] = [(AckTypeId(1), 0), (AckTypeId(2), 3)];

/// Where the real map of `(stream, shard)` begins: the highest shard seq
/// at or below the newest learned one that has no entry. Also checks
/// that every entry it does answer for is the right one.
fn begins(
    real: &ShardedFrontier,
    stream: NodeId,
    shard: u16,
    sh: &NaiveShard,
) -> Result<SeqNo, TestCaseError> {
    let mut begins = 0;
    for q in 1..=sh.newest() {
        match real.global_of(stream, shard, q) {
            None => {
                prop_assert_eq!(q, begins + 1, "a hole in the map");
                begins = q;
            }
            got => prop_assert_eq!(got, sh.global_of(q), "shard seq {}", q),
        }
    }
    prop_assert_eq!(real.global_of(stream, shard, sh.newest() + 1), None);
    Ok(begins)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_the_naive_model(
        shards in 1u16..5,
        pinned in any::<bool>(),
        // The application reports stability never, from the start, or
        // starting late.
        reports in 0u8..3,
        ops in proptest::collection::vec(
            (0u8..20, 0u8..4, 0u8..3, 0u8..6, any::<bool>(), any::<bool>()),
            1..200,
        ),
    ) {
        let mut real = ShardedFrontier::new(2, shards as usize);
        // `told` hears where the real maps begin; `full` is the
        // unreclaimed behaviour.
        let mut told = Naive::new(2, shards as usize);
        let mut full = Naive::new(2, shards as usize);
        for stream in [OWN, PEER] {
            real.ensure_key(stream, KEYS[0]);
            told.ensure_key(stream, KEYS[0], 0);
            full.ensure_key(stream, KEYS[0], 0);
            // Half the cases carry a key that never moves: nothing of
            // its stream may ever be reclaimed.
            if pinned {
                real.ensure_key(stream, "Pinned");
                told.ensure_key(stream, "Pinned", 0);
                full.ensure_key(stream, "Pinned", 0);
            }
        }
        // The peer's sequencer, what it routed to each shard that this
        // mirror has not seen yet, and each shard's sequence here.
        let mut peer_global = 0;
        let mut in_flight = vec![VecDeque::new(); shards as usize];
        let mut shard_seq = vec![0 as SeqNo; shards as usize];
        let mut generations = BTreeMap::new();
        // What the application last reported per level.
        let mut reported: Vec<Option<SeqNo>> = vec![None; LEVELS.len()];
        // Reporting from the start, no entry is reclaimed before the
        // aggregator knows of the level; a first report that comes late
        // finds what is left.
        let reporting = reports == 1;
        if reporting {
            for (level, (ty, _)) in LEVELS.iter().enumerate() {
                real.note_report(PEER, *ty, 0);
                reported[level] = Some(0);
            }
        }
        let mut reclaimed = false;

        // Steps an op queued beyond its first, fed before the next op.
        let mut steps = VecDeque::new();
        let mut ops = ops.into_iter();
        let mut via_fold = false;
        loop {
            let step = if let Some(step) = steps.pop_front() { step } else {
            let Some((op, shard, key, n, own, fold)) = ops.next() else { break };
            let (shard, key, n) = (u16::from(shard) % shards, KEYS[key as usize], SeqNo::from(n));
            let s = shard as usize;
            via_fold = fold;
            let stream = if own { OWN } else { PEER };
            match op {
                // The peer publishes: nothing reaches this node yet.
                0 | 1 => {
                    peer_global += 1;
                    in_flight[s].push_back(peer_global);
                    continue;
                }
                2 | 11 => Step::Publish(shard, real.peek_next_global()),
                3 | 4 | 15 | 19 => {
                    let Some(global) = in_flight[s].pop_front() else { continue };
                    shard_seq[s] += 1;
                    Step::Deliver(shard, global, Bytes::from(vec![global as u8; n as usize]))
                }
                5 | 6 => {
                    let generation: &mut u32 = generations.entry((stream, key)).or_default();
                    // Now and then a stale report, or a predicate change.
                    let generation = match n {
                        5 => { *generation += 1; *generation }
                        4 => generation.saturating_sub(1),
                        _ => *generation,
                    };
                    let seq = SeqNo::from(op - 5) * 3 + n;
                    Step::Frontier(shard, FrontierUpdate { stream, key: key.to_owned(), seq, generation })
                }
                // A shard frontier that follows what the shard has
                // learned, as a live predicate's does — or, half the
                // time, each shard's of every key the stream has: what
                // lets a map be reclaimed at all.
                12 | 16..=18 => {
                    let o = &full.origins[stream.0 as usize];
                    let covers = |key: &str, s: usize| FrontierUpdate {
                        stream,
                        key: key.to_owned(),
                        seq: o.shards[s].newest().saturating_sub(n / 3),
                        generation: full.keys.get(&(stream, key.to_owned())).map_or(0, |st| st.generation),
                    };
                    if op >= 16 {
                        let of_stream = full.keys.keys().filter(|(st, key)| *st == stream && key != "Pinned");
                        let keys: Vec<String> = of_stream.map(|(_, key)| key.clone()).collect();
                        let shards = (0..shards).filter(|_| !keys.is_empty());
                        for (key, s) in shards.flat_map(|s| keys.iter().map(move |key| (key, s))) {
                            steps.push_back(Step::Frontier(s, covers(key, s as usize)));
                        }
                        continue;
                    }
                    Step::Frontier(shard, covers(key, s))
                }
                7 => Step::Wait(stream, key, n * 2),
                8 => {
                    generations.remove(&(stream, key));
                    Step::Unregister(stream, key)
                }
                9 => Step::Ensure(stream, key),
                // The application reports a level, a constant behind
                // what it was delivered.
                _ => {
                    if reports == 0 { continue }
                    let level = usize::from(own);
                    let (ty, lag) = LEVELS[level];
                    let global = full.origins[PEER.0 as usize].delivered.saturating_sub(lag);
                    real.note_report(PEER, ty, global);
                    reported[level] = Some(global.max(reported[level].unwrap_or(0)));
                    continue;
                }
            }};

            // What the readers allowed before the step: a map's beginning
            // may move during it up to that, and no further.
            let before: Vec<Vec<(SeqNo, SeqNo)>> = [OWN, PEER].iter().map(|stream| {
                let o = &full.origins[stream.0 as usize];
                (0..shards as usize).map(|s| {
                    let sh = &o.shards[s];
                    let of_stream = full.keys.iter().filter(|((st, _), _)| st == stream);
                    let mut allowed = of_stream.map(|(_, st)| st.per_shard[s]).min().unwrap_or(SeqNo::MAX);
                    // The application reports on the peer's stream only.
                    if let (PEER, Some(lowest)) = (*stream, reported.iter().flatten().min()) {
                        allowed = allowed.min(sh.upto(*lowest).saturating_sub(1));
                    }
                    (told.origins[stream.0 as usize].shards[s].begins, allowed)
                }).collect()
            }).collect();

            let got = apply_real(&mut real, step.clone(), &shard_seq, via_fold);
            let (ready, _, token) = full.apply(step.clone());
            prop_assert_eq!((&got.0, got.2), (&ready, token));
            for stream in [OWN, PEER] {
                for (s, &(was, allowed)) in before[stream.0 as usize].iter().enumerate() {
                    let sh = &full.origins[stream.0 as usize].shards[s];
                    let at = begins(&real, stream, s as u16, sh)?;
                    if at > was {
                        prop_assert!(at <= allowed, "{:?}/{} begins at {} > {}", stream, s, at, allowed);
                        reclaimed = true;
                    }
                    told.origins[stream.0 as usize].shards[s].begins = at;
                }
            }
            prop_assert_eq!(&got, &told.apply(step));

            for stream in [OWN, PEER] {
                let (t, f) = (&told.origins[stream.0 as usize], &full.origins[stream.0 as usize]);
                prop_assert_eq!(real.delivered_global(stream), f.delivered);
                prop_assert_eq!(real.parked(stream), f.pending.len());
                for key in KEYS {
                    let at = |model: &Naive| {
                        let st = model.keys.get(&(stream, key.to_owned()));
                        st.map(|st| (st.agg, st.generation))
                    };
                    prop_assert_eq!(real.frontier(stream, key), at(&told));
                    // Never above the unreclaimed answer, and equal to it
                    // when no shard frontier of the key is below a map.
                    let Some(st) = full.keys.get(&(stream, key.to_owned())) else { continue };
                    let (agg, generation) = real.frontier(stream, key).expect("registered");
                    prop_assert_eq!(generation, st.generation);
                    prop_assert!(agg <= st.agg);
                    let asks_below = (0..shards as usize).any(|s| st.per_shard[s] < t.shards[s].begins);
                    prop_assert!(asks_below || agg == st.agg, "{} {} < {}", key, agg, st.agg);
                }
                // A report translates as the model that knows where the
                // maps begin says, never above the unreclaimed answer —
                // and to exactly that at or above the lowest level of an
                // application that reported from the start.
                let lowest = reported.iter().flatten().min().copied().unwrap_or(0);
                for s in 0..shards as usize {
                    for global in [lowest, lowest + 1, f.delivered, f.delivered.saturating_sub(2), f.known_prefix] {
                        let got = real.shard_progress(stream, s as u16, global);
                        prop_assert_eq!(got, t.shards[s].progress(global));
                        let unreclaimed = f.shards[s].progress(global);
                        prop_assert!(got <= unreclaimed);
                        let exact = stream == PEER && reporting && global >= lowest;
                        prop_assert!(!exact || got == unreclaimed, "{} < {}", got, unreclaimed);
                    }
                }
            }
            prop_assert_eq!(real.pending_waiters(), told.waiters.len());
        }
        // A pinned stream keeps every entry.
        prop_assert!(!(pinned && reclaimed));
    }
}
