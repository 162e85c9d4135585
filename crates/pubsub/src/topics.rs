//! Multi-topic pub/sub — the extension the paper defers ("like support
//! for multiple topics, persistence would be easy to introduce").
//!
//! Topics ride on the same Stabilizer streams: every broker publishes
//! `Publish`/`Subscribe`/`Unsubscribe` records on its own stream, and
//! since every broker mirrors every stream, subscription state converges
//! everywhere without a separate membership protocol. A publishing
//! broker maintains, per topic, a stability predicate over exactly the
//! sites that currently have subscribers (the "active broker list" of
//! §V-B), rebuilding it with `change_predicate` as subscriptions come
//! and go — the mechanism behind the Fig. 8 experiment, generalized to
//! per-topic granularity.

use bytes::Bytes;
use stabilizer_core::sim_driver::{build_actors, AppHooks, SimNode};
use stabilizer_core::{
    length_field, ClusterConfig, CoreError, NodeId, Reader, SeqNo, StabilizerNode, WireMsg,
};
use stabilizer_dsl::AckTypeRegistry;
use stabilizer_netsim::{Actor, Ctx, NetTopology, SimTime, Simulation, TimerId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Records carried in broker stream messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopicRecord {
    /// A message of `topic`.
    Publish {
        /// Topic name.
        topic: String,
        /// Payload.
        body: Bytes,
    },
    /// The sending broker gained its first local subscriber of `topic`.
    Subscribe {
        /// Topic name.
        topic: String,
    },
    /// The sending broker lost its last local subscriber of `topic`.
    Unsubscribe {
        /// Topic name.
        topic: String,
    },
}

impl TopicRecord {
    const TAG_PUBLISH: u8 = 0;
    const TAG_SUBSCRIBE: u8 = 1;
    const TAG_UNSUBSCRIBE: u8 = 2;

    /// Serialize for the data plane.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] for a topic longer than 65 535 bytes or a body
    /// longer than `u32::MAX` bytes: their lengths do not fit the record.
    pub fn to_bytes(&self) -> Result<Bytes, CoreError> {
        let mut out = Vec::new();
        let (tag, topic, body) = match self {
            TopicRecord::Publish { topic, body } => (Self::TAG_PUBLISH, topic, Some(body)),
            TopicRecord::Subscribe { topic } => (Self::TAG_SUBSCRIBE, topic, None),
            TopicRecord::Unsubscribe { topic } => (Self::TAG_UNSUBSCRIBE, topic, None),
        };
        let topic_len = length_field::<u16>("topic", topic.len())?;
        out.push(tag);
        out.extend_from_slice(&topic_len.to_le_bytes());
        out.extend_from_slice(topic.as_bytes());
        if let Some(body) = body {
            let body_len = length_field::<u32>("body", body.len())?;
            out.extend_from_slice(&body_len.to_le_bytes());
            out.extend_from_slice(body);
        }
        Ok(Bytes::from(out))
    }

    /// Deserialize a record produced by [`TopicRecord::to_bytes`], through
    /// core's one [`Reader`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<TopicRecord, CoreError> {
        let mut r = Reader::new("topic record", buf);
        let tag = r.u8()?;
        let topic_len = r.le_u16()?;
        let topic = r.str(topic_len.into())?;
        let rec = match tag {
            Self::TAG_PUBLISH => {
                let body_len = r.le_u32()?;
                let body = r.bytes(body_len as usize)?;
                TopicRecord::Publish { topic, body }
            }
            Self::TAG_SUBSCRIBE => TopicRecord::Subscribe { topic },
            Self::TAG_UNSUBSCRIBE => TopicRecord::Unsubscribe { topic },
            tag => return Err(r.fail(format_args!("unknown tag {tag}"))),
        };
        r.finish()?;
        Ok(rec)
    }
}

/// A multi-topic broker's state behind the driver: what the mirrored
/// record streams say, applied as each record is delivered.
pub struct TopicHooks {
    /// Topics with local subscribers.
    local_subs: BTreeSet<String>,
    /// Global subscription map: topic -> subscribed sites (converges via
    /// mirrored streams).
    remote_subs: BTreeMap<String, BTreeSet<NodeId>>,
    /// Messages delivered to local subscribers: `(time, topic, body len)`.
    deliveries: Vec<(SimTime, String, usize)>,
    /// Retained messages for replay to late subscribers (newest last),
    /// capped at `retain_limit`.
    retained: VecDeque<(String, Bytes)>,
    retain_limit: usize,
    /// Topics whose subscriber set changed since the broker last rebuilt
    /// their tracking predicates (see [`TopicBroker::refresh_predicates`]).
    stale: BTreeSet<String>,
}

impl Default for TopicHooks {
    /// No subscriptions, nothing retained, the default retention cap
    /// (10,000 messages).
    fn default() -> Self {
        TopicHooks {
            local_subs: BTreeSet::new(),
            remote_subs: BTreeMap::new(),
            deliveries: Vec::new(),
            retained: VecDeque::new(),
            retain_limit: 10_000,
            stale: BTreeSet::new(),
        }
    }
}

impl TopicHooks {
    /// Apply one record of `origin`'s stream.
    fn apply(&mut self, now: SimTime, origin: NodeId, rec: TopicRecord) {
        match rec {
            TopicRecord::Publish { topic, body } => {
                if self.local_subs.contains(&topic) {
                    self.deliveries.push((now, topic.clone(), body.len()));
                }
                self.retained.push_back((topic, body));
                if self.retained.len() > self.retain_limit {
                    self.retained.pop_front();
                }
            }
            TopicRecord::Subscribe { topic } => {
                self.remote_subs
                    .entry(topic.clone())
                    .or_default()
                    .insert(origin);
                self.stale.insert(topic);
            }
            TopicRecord::Unsubscribe { topic } => {
                self.remote_subs
                    .entry(topic.clone())
                    .or_default()
                    .remove(&origin);
                self.stale.insert(topic);
            }
        }
    }
}

impl AppHooks for TopicHooks {
    fn on_deliver(&mut self, now: SimTime, origin: NodeId, _seq: SeqNo, payload: &Bytes) {
        match TopicRecord::decode(payload) {
            Ok(rec) => self.apply(now, origin, rec),
            Err(e) => debug_assert!(false, "undecodable topic record from {origin}: {e}"),
        }
    }
}

/// A multi-topic broker in the simulator: the core [`SimNode`] driver
/// over [`TopicHooks`], plus the publisher's send times.
pub struct TopicBroker {
    sim: SimNode<TopicHooks>,
    /// Send time per own-stream seq (1-based).
    pub send_times: Vec<SimTime>,
}

impl TopicBroker {
    /// Build broker `me`.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
    ) -> Result<Self, CoreError> {
        let hooks = TopicHooks::default();
        Ok(TopicBroker {
            sim: SimNode::new(StabilizerNode::new(cfg, me, acks)?, hooks),
            send_times: Vec::new(),
        })
    }

    /// Cap the per-broker message-retention buffer used by
    /// [`TopicBroker::subscribe_with_replay_in`] (default 10,000).
    pub fn set_retain_limit(&mut self, limit: usize) {
        let hooks = &mut self.sim.hooks;
        hooks.retain_limit = limit;
        let excess = hooks.retained.len().saturating_sub(limit);
        hooks.retained.drain(..excess);
    }

    /// Subscribe and immediately replay every retained message of
    /// `topic` into the delivery log — the "persistence" extension the
    /// paper defers: late subscribers catch up from the broker's
    /// retained mirror rather than missing history.
    ///
    /// # Errors
    ///
    /// Data-plane errors while announcing.
    pub fn subscribe_with_replay_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        topic: &str,
    ) -> Result<usize, CoreError> {
        self.subscribe_in(ctx, topic)?;
        let hooks = &mut self.sim.hooks;
        let before = hooks.deliveries.len();
        let replay = hooks.retained.iter().filter(|(t, _)| t == topic);
        hooks
            .deliveries
            .extend(replay.map(|(t, body)| (ctx.now(), t.clone(), body.len())));
        Ok(hooks.deliveries.len() - before)
    }

    /// Publish `body` on `topic`. The returned sequence number can be
    /// waited on via the topic's tracking predicate.
    ///
    /// # Errors
    ///
    /// Data-plane errors, or [`CoreError::Wire`] for a topic longer than
    /// 65 535 bytes (nothing is published).
    pub fn publish_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        topic: &str,
        body: Bytes,
    ) -> Result<SeqNo, CoreError> {
        let rec = TopicRecord::Publish {
            topic: topic.to_owned(),
            body,
        };
        let seq = self.sim.publish_in(ctx, rec.to_bytes()?)?;
        self.send_times.push(ctx.now());
        Ok(seq)
    }

    /// Subscribe locally to `topic`; announces to all brokers when this
    /// is the first local subscriber.
    ///
    /// # Errors
    ///
    /// Data-plane errors while announcing, or [`CoreError::Wire`] for a
    /// topic longer than 65 535 bytes (nothing changes).
    pub fn subscribe_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        topic: &str,
    ) -> Result<(), CoreError> {
        let rec = TopicRecord::Subscribe {
            topic: topic.to_owned(),
        };
        let payload = rec.to_bytes()?;
        if self.sim.hooks.local_subs.insert(topic.to_owned()) {
            self.announce(ctx, rec, payload)?;
        }
        Ok(())
    }

    /// Drop the local subscription to `topic`.
    ///
    /// # Errors
    ///
    /// As [`TopicBroker::subscribe_in`].
    pub fn unsubscribe_in(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        topic: &str,
    ) -> Result<(), CoreError> {
        let rec = TopicRecord::Unsubscribe {
            topic: topic.to_owned(),
        };
        let payload = rec.to_bytes()?;
        if self.sim.hooks.local_subs.remove(topic) {
            self.announce(ctx, rec, payload)?;
        }
        Ok(())
    }

    /// Sites currently known to subscribe to `topic`.
    pub fn subscribers(&self, topic: &str) -> Vec<NodeId> {
        self.sim
            .hooks
            .remote_subs
            .get(topic)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Messages delivered to local subscribers: `(time, topic, body len)`.
    pub fn deliveries(&self) -> &[(SimTime, String, usize)] {
        &self.sim.hooks.deliveries
    }

    /// Current frontier of the topic's tracking predicate ("every
    /// subscribed site received it"), if anyone subscribes.
    pub fn topic_frontier(&self, topic: &str) -> Option<SeqNo> {
        let node = self.stabilizer();
        node.stability_frontier(node.me(), &Self::key(topic))
            .map(|(s, _)| s)
    }

    /// When the topic's tracking predicate first covered own-stream
    /// sequence number `seq`, if it has.
    pub fn topic_covered_at(&self, topic: &str, seq: SeqNo) -> Option<SimTime> {
        self.sim
            .covered_at(self.stabilizer().me(), &Self::key(topic), seq)
    }

    /// The embedded Stabilizer node.
    pub fn stabilizer(&self) -> &StabilizerNode {
        self.sim.inner()
    }

    /// The embedded simulator driver, read-only: its `EventLog` by
    /// deref, and the view the chaos checker takes of a bare cluster.
    pub fn driver(&self) -> &SimNode<TopicHooks> {
        &self.sim
    }

    fn key(topic: &str) -> String {
        format!("topic:{topic}")
    }

    /// Tell every broker of this one's own (un)subscription, `rec`
    /// encoded as `payload`, and apply the record here as the mirrors
    /// will.
    fn announce(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        rec: TopicRecord,
        payload: Bytes,
    ) -> Result<(), CoreError> {
        self.sim.publish_in(ctx, payload)?;
        self.send_times.push(ctx.now());
        let me = self.stabilizer().me();
        self.sim.hooks.apply(ctx.now(), me, rec);
        self.refresh_predicates(ctx);
        Ok(())
    }

    /// Rebuild the tracking predicate of every topic whose subscriber
    /// set changed, from the current remote-subscriber set (§V-B's
    /// dynamically managed predicate). Runs after the driver has handled
    /// the callback that changed the sets, and through the driver, so
    /// what a registration emits leaves in that same callback.
    fn refresh_predicates(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let me = self.stabilizer().me();
        for topic in std::mem::take(&mut self.sim.hooks.stale) {
            let operands: Vec<String> = self
                .subscribers(&topic)
                .iter()
                .filter(|n| **n != me)
                .map(|n| format!("${}", n.0 + 1))
                .collect();
            let key = Self::key(&topic);
            let source = format!("MIN({})", operands.join(", "));
            let result = self.sim.call_in(ctx, |node| {
                if operands.is_empty() {
                    node.unregister_predicate(me, &key);
                    Ok(())
                } else if node.stability_frontier(me, &key).is_some() {
                    node.change_predicate(me, &key, &source)
                } else {
                    node.register_predicate(me, &key, &source)
                }
            });
            debug_assert!(result.is_ok(), "generated predicate must compile: {source}");
        }
    }
}

impl Actor for TopicBroker {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.sim.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, WireMsg>, from: usize, msg: WireMsg) {
        self.sim.on_message(ctx, from, msg);
        self.refresh_predicates(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, WireMsg>, timer: TimerId, tag: u64) {
        self.sim.on_timer(ctx, timer, tag);
    }
}

/// Build a multi-topic broker deployment over `net`.
///
/// # Errors
///
/// Propagates configuration errors.
///
/// # Panics
///
/// Panics if sizes mismatch.
pub fn build_topic_brokers(
    cfg: &ClusterConfig,
    net: NetTopology,
    seed: u64,
) -> Result<Simulation<TopicBroker>, CoreError> {
    build_actors(cfg, net, seed, |me, acks| {
        TopicBroker::new(cfg.clone(), me, acks)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip() {
        for rec in [
            TopicRecord::Publish {
                topic: "stocks".into(),
                body: Bytes::from_static(b"AAPL"),
            },
            TopicRecord::Publish {
                topic: String::new(),
                body: Bytes::new(),
            },
            TopicRecord::Subscribe {
                topic: "news".into(),
            },
            TopicRecord::Unsubscribe {
                topic: "news".into(),
            },
        ] {
            assert_eq!(TopicRecord::decode(&rec.to_bytes().unwrap()).unwrap(), rec);
        }
    }

    #[test]
    fn malformed_records_rejected() {
        assert!(TopicRecord::decode(&[]).is_err());
        assert!(TopicRecord::decode(&[9, 0, 0]).is_err());
        let bytes = TopicRecord::Subscribe { topic: "t".into() }
            .to_bytes()
            .unwrap();
        for cut in 0..bytes.len() {
            assert!(TopicRecord::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.to_vec();
        trailing.push(1);
        assert!(TopicRecord::decode(&trailing).is_err());
    }

    #[test]
    fn a_topic_is_written_whole_or_refused() {
        let topic = |len: usize| "t".repeat(len);
        let longest = TopicRecord::Subscribe {
            topic: topic(u16::MAX.into()),
        };
        assert_eq!(
            TopicRecord::decode(&longest.to_bytes().unwrap()).unwrap(),
            longest
        );
        let publish = TopicRecord::Publish {
            topic: topic(65_536),
            body: Bytes::from_static(b"b"),
        };
        let unsubscribe = TopicRecord::Unsubscribe {
            topic: topic(65_536),
        };
        for rec in [publish, unsubscribe] {
            let err = rec.to_bytes().unwrap_err();
            assert!(err.to_string().contains("topic of 65536 bytes"), "{err}");
        }
    }
}
