//! `ShardedFrontier` against a naive model of the same rules: one flat
//! waiter list searched by `(stream, key)`, every learned global through
//! a `BTreeSet`, every delivery through the parking map, every key
//! recomputed by lookup. Random interleavings of everything the
//! aggregator is fed must produce the same deliveries, frontier updates
//! and completed waits, in the same order.

use bytes::Bytes;
use proptest::prelude::*;
use stabilizer_core::{Action, FrontierUpdate, NodeId, SeqNo, WaitToken};
use stabilizer_shard::{encode_global, AggOutput, ShardedAction, ShardedFrontier};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What one call released: global-FIFO deliveries and aggregate events.
type Released = (Vec<(SeqNo, Bytes)>, AggOutput);

#[derive(Default)]
struct NaiveOrigin {
    /// Per shard: `(skipped prefix, learned globals, fast-forward mark)`.
    shards: Vec<(SeqNo, Vec<SeqNo>, SeqNo)>,
    learned: BTreeSet<SeqNo>,
    known_prefix: SeqNo,
    delivered: SeqNo,
    pending: BTreeMap<SeqNo, Bytes>,
}

impl NaiveOrigin {
    fn never_arrives(&self, g: SeqNo) -> bool {
        let rules_out = |(_, globals, mark): &(SeqNo, Vec<SeqNo>, SeqNo)| {
            g <= *mark || (!globals.contains(&g) && globals.iter().any(|&x| x > g))
        };
        self.shards.iter().all(rules_out)
    }

    fn advance_known(&mut self) {
        while self.learned.contains(&(self.known_prefix + 1))
            || self.never_arrives(self.known_prefix + 1)
        {
            self.known_prefix += 1;
        }
    }

    fn drain_ready(&mut self) -> Vec<(SeqNo, Bytes)> {
        let mut ready = Vec::new();
        loop {
            let next = self.delivered + 1;
            if let Some(payload) = self.pending.remove(&next) {
                ready.push((next, payload));
            } else if self.pending.is_empty() || !self.never_arrives(next) {
                return ready;
            }
            self.delivered = next;
        }
    }

    fn first_uncovered(&self, shard: usize, f: SeqNo) -> SeqNo {
        let (base, globals, _) = &self.shards[shard];
        match f.checked_sub(*base) {
            None => 1,
            Some(i) => *globals.get(i as usize).unwrap_or(&(self.known_prefix + 1)),
        }
    }
}

struct NaiveKey {
    per_shard: Vec<SeqNo>,
    generation: u32,
    agg: SeqNo,
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
            shards: vec![(0, Vec::new(), 0); shards],
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
        o.shards[shard as usize].1.push(global);
        o.learned.insert(global);
        o.advance_known();
        self.recompute_origin(origin)
    }

    fn on_shard_deliver(
        &mut self,
        shard: u16,
        origin: NodeId,
        global: SeqNo,
        p: Bytes,
    ) -> Released {
        let out = self.learn_mapping(origin, shard, global);
        let o = &mut self.origins[origin.0 as usize];
        o.pending.insert(global, p);
        (o.drain_ready(), out)
    }

    fn fast_forward_origin(
        &mut self,
        origin: NodeId,
        shard: u16,
        seq: SeqNo,
        mark: SeqNo,
    ) -> Released {
        let o = &mut self.origins[origin.0 as usize];
        let (base, globals, old_mark) = &mut o.shards[shard as usize];
        *old_mark = mark.max(*old_mark);
        if seq > *base {
            globals.drain(..((seq - *base) as usize).min(globals.len()));
            *base = seq;
        }
        o.advance_known();
        let ready = o.drain_ready();
        (ready, self.recompute_origin(origin))
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

    fn unregister_key(&mut self, stream: NodeId, key: &str) -> AggOutput {
        self.keys.remove(&(stream, key.to_owned()));
        let gone = |w: &(WaitToken, NodeId, String, SeqNo)| w.1 == stream && w.2 == key;
        let completed = self.waiters.iter().filter(|w| gone(w)).map(|w| w.0);
        let out = AggOutput {
            updates: Vec::new(),
            completed: completed.collect(),
        };
        self.waiters.retain(|w| !gone(w));
        out
    }

    fn on_shard_frontier(&mut self, shard: u16, u: &FrontierUpdate) -> AggOutput {
        let st = self.ensure_key(u.stream, &u.key, u.generation);
        let force = u.generation > st.generation;
        if u.generation < st.generation {
            return AggOutput::default();
        }
        if force {
            st.generation = u.generation;
            st.per_shard.fill(0);
        }
        let cell = &mut st.per_shard[shard as usize];
        *cell = u.seq.max(*cell);
        let mut out = AggOutput::default();
        self.recompute_key(u.stream, &u.key, force, &mut out);
        out
    }

    fn waitfor(&mut self, stream: NodeId, key: &str, seq: SeqNo) -> Option<(WaitToken, AggOutput)> {
        let st = self.keys.get(&(stream, key.to_owned()))?;
        let token = self.next_token;
        self.next_token += 1;
        let mut out = AggOutput::default();
        if st.agg >= seq {
            out.completed.push(token);
        } else {
            self.waiters.push((token, stream, key.to_owned(), seq));
        }
        Some((token, out))
    }
}

/// What `fold` appended, split back into deliveries and aggregate
/// events; the three kinds must come in that order.
fn unfold(actions: Vec<ShardedAction>) -> Released {
    let (mut ready, mut out, mut rank) = (Vec::new(), AggOutput::default(), 0);
    for action in actions {
        let kind = match action {
            ShardedAction::ShardDeliver { .. }
            | ShardedAction::ShardFrontier { .. }
            | ShardedAction::CatchUp { .. } => 0,
            ShardedAction::Deliver { seq, payload, .. } => {
                ready.push((seq, payload));
                1
            }
            ShardedAction::Frontier(update) => {
                out.updates.push(update);
                2
            }
            ShardedAction::WaitDone { token } => {
                out.completed.push(token);
                3
            }
            other => panic!("unexpected {other:?}"),
        };
        assert!(kind >= rank, "fold emitted out of order");
        rank = kind;
    }
    (ready, out)
}

const KEYS: [&str; 3] = ["All", "Majority", "One"];
/// Stream 0 is the node's own (learned by publishing), stream 1 a
/// mirrored one (learned by delivering).
const OWN: NodeId = NodeId(0);
const PEER: NodeId = NodeId(1);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_the_naive_model(
        shards in 1u16..5,
        ops in proptest::collection::vec(
            (0u8..12, 0u8..4, 0u8..3, 0u8..6, any::<bool>(), any::<bool>()),
            1..160,
        ),
    ) {
        let mut real = ShardedFrontier::new(2, shards as usize);
        let mut naive = Naive::new(2, shards as usize);
        for stream in [OWN, PEER] {
            real.ensure_key(stream, KEYS[0]);
            naive.ensure_key(stream, KEYS[0], 0);
        }
        // The peer's sequencer, what it routed to each shard that this
        // mirror has not seen yet, and each shard's sequence here.
        let mut peer_global = 0;
        let mut in_flight = vec![VecDeque::new(); shards as usize];
        let mut shard_seq = vec![0 as SeqNo; shards as usize];
        let mut generations = BTreeMap::new();

        for (op, shard, key, n, own, via_fold) in ops {
            let (shard, key, n) = (u16::from(shard) % shards, KEYS[key as usize], SeqNo::from(n));
            let s = shard as usize;
            let stream = if own { OWN } else { PEER };
            let mut folded = Vec::new();
            match op {
                // The peer publishes: nothing reaches this node yet.
                0 | 1 => {
                    peer_global += 1;
                    in_flight[s].push_back(peer_global);
                }
                2 => {
                    let global = real.peek_next_global();
                    let got = real.note_published(OWN, shard, global);
                    prop_assert_eq!(got, naive.learn_mapping(OWN, shard, global));
                }
                3 | 4 => {
                    let Some(global) = in_flight[s].pop_front() else { continue };
                    shard_seq[s] += 1;
                    let payload = Bytes::from(vec![global as u8; n as usize]);
                    let framed = encode_global(global, &payload);
                    let got = if via_fold {
                        let (origin, seq) = (PEER, shard_seq[s]);
                        real.fold(shard, Action::Deliver { origin, seq, payload: framed }, &mut folded);
                        unfold(folded)
                    } else {
                        real.on_shard_deliver(shard, PEER, &framed).expect("framed")
                    };
                    prop_assert_eq!(got, naive.on_shard_deliver(shard, PEER, global, payload));
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
                    let update = FrontierUpdate { stream, key: key.to_owned(), seq, generation };
                    let expected = naive.on_shard_frontier(shard, &update);
                    let got = if via_fold {
                        real.fold(shard, Action::Frontier(update), &mut folded);
                        unfold(folded).1
                    } else {
                        real.on_shard_frontier(shard, &update)
                    };
                    prop_assert_eq!(got, expected);
                }
                7 => {
                    let got = real.waitfor(stream, key, n * 2).ok();
                    prop_assert_eq!(got, naive.waitfor(stream, key, n * 2));
                }
                8 => {
                    prop_assert_eq!(real.unregister_key(stream, key), naive.unregister_key(stream, key));
                    generations.remove(&(stream, key));
                }
                9 => {
                    real.ensure_key(stream, key);
                    naive.ensure_key(stream, key, 0);
                }
                // The shard jumps over its next `n` messages; the donor's
                // mark is the global of the last one it can no longer replay.
                _ => {
                    let skip = (n as usize).min(in_flight[s].len());
                    let skipped: Vec<SeqNo> = in_flight[s].drain(..skip).collect();
                    let Some(&mark) = skipped.last() else { continue };
                    shard_seq[s] += skipped.len() as SeqNo;
                    let got = if via_fold {
                        let jump = Action::CatchUp { stream: PEER, seq: shard_seq[s], app_mark: mark };
                        real.fold(shard, jump, &mut folded);
                        unfold(folded)
                    } else {
                        real.fast_forward_origin(PEER, shard, shard_seq[s], mark)
                    };
                    prop_assert_eq!(got, naive.fast_forward_origin(PEER, shard, shard_seq[s], mark));
                }
            }
            for stream in [OWN, PEER] {
                let o = &naive.origins[stream.0 as usize];
                prop_assert_eq!(real.delivered_global(stream), o.delivered);
                prop_assert_eq!(real.parked(stream), o.pending.len());
                for key in KEYS {
                    let expected = naive.keys.get(&(stream, key.to_owned()));
                    prop_assert_eq!(real.frontier(stream, key), expected.map(|st| (st.agg, st.generation)));
                }
            }
            prop_assert_eq!(real.pending_waiters(), naive.waiters.len());
        }
    }
}
