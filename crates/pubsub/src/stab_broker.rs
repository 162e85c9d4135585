//! The Stabilizer-based pub/sub broker prototype (§V-B).
//!
//! The broker wraps the Stabilizer library in a thin layer: `publish`
//! multicasts on the asynchronous data plane, `subscribe` registers a
//! delivery callback, and the publisher tracks per-subscriber progress
//! through stability-frontier predicates — which also provides the
//! end-to-end latency measurement of §VI-C ("the publisher can calculate
//! the end-to-end latency by tracking ACK arrival times and subtracting
//! the corresponding message send times").

use bytes::Bytes;
use stabilizer_core::sim_driver::{build_actors, AppHooks, SimNode};
use stabilizer_core::{
    ClusterConfig, CoreError, NodeId, SeqNo, StabilizerNode, TimerKind, WireMsg,
};
use stabilizer_dsl::AckTypeRegistry;
use stabilizer_netsim::{Actor, Ctx, NetTopology, SimDuration, SimTime, Simulation, TimerId};
use std::sync::Arc;

const TAG_PUBLISH: u64 = TimerKind::APP_TAG_BASE;

/// A paced publishing workload: `count` messages of `size` bytes at
/// `interval` spacing.
#[derive(Debug, Clone, Copy)]
pub struct PublishLoad {
    /// Total messages to publish.
    pub count: u64,
    /// Gap between consecutive publishes.
    pub interval: SimDuration,
    /// Payload size in bytes.
    pub size: usize,
}

/// The subscriber side of a broker, behind the driver: whether a local
/// client subscribes (the active-broker list is the set of subscribed
/// brokers; drives Fig. 8's predicate reconfiguration) and what it was
/// handed. An unsubscribed broker still mirrors — reliable broadcast
/// keeps it consistent — but does not upcall.
#[derive(Debug, Default)]
pub struct BrokerHooks {
    subscribed: bool,
    deliveries: Vec<(SimTime, SeqNo)>,
}

impl AppHooks for BrokerHooks {
    fn on_deliver(&mut self, now: SimTime, _origin: NodeId, seq: SeqNo, _payload: &Bytes) {
        if self.subscribed {
            self.deliveries.push((now, seq));
        }
    }
}

/// One broker of the pub/sub deployment: the core [`SimNode`] driver
/// over [`BrokerHooks`], plus the publisher's measurement state.
pub struct StabBroker {
    sim: SimNode<BrokerHooks>,
    /// Send time of each sequence number (publisher side), 1-based.
    pub send_times: Vec<SimTime>,
    load: Option<PublishLoad>,
    published: u64,
}

impl StabBroker {
    /// Build broker `me`.
    ///
    /// # Errors
    ///
    /// Propagates predicate-compile failures.
    pub fn new(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
    ) -> Result<Self, CoreError> {
        let n = cfg.num_nodes();
        let mut node = StabilizerNode::new(cfg, me, acks)?;
        // The publisher tracks each remote site individually: predicate
        // "site_k" follows site k's received counter for this stream.
        for k in 0..n {
            if k != me.0 as usize {
                node.register_predicate(me, &format!("site_{k}"), &format!("MAX(${})", k + 1))?;
            }
        }
        Ok(StabBroker {
            sim: SimNode::new(node, BrokerHooks::default()),
            send_times: Vec::new(),
            load: None,
            published: 0,
        })
    }

    /// Begin a paced publishing run.
    pub fn start_publishing(&mut self, ctx: &mut Ctx<'_, WireMsg>, load: PublishLoad) {
        self.load = Some(load);
        self.published = 0;
        self.publish_next(ctx);
    }

    /// Publish one message immediately (used by Fig. 8's fixed-rate run).
    ///
    /// # Errors
    ///
    /// Data-plane errors.
    pub fn publish_one(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        size: usize,
    ) -> Result<SeqNo, CoreError> {
        let seq = self.sim.publish_in(ctx, Bytes::from(vec![0u8; size]))?;
        debug_assert_eq!(seq as usize, self.send_times.len() + 1);
        self.send_times.push(ctx.now());
        Ok(seq)
    }

    /// Register or change a custom tracking predicate on the publisher
    /// stream (Fig. 8 uses this for all-sites / three-sites switching).
    ///
    /// # Errors
    ///
    /// DSL compile errors or unknown keys (for `change`).
    pub fn set_predicate(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        key: &str,
        source: &str,
        change: bool,
    ) -> Result<(), CoreError> {
        let me = self.stabilizer().me();
        if change {
            self.sim.change_predicate_in(ctx, me, key, source)
        } else {
            self.sim.register_predicate_in(ctx, me, key, source)
        }
    }

    /// Current frontier of a predicate on this broker's own stream.
    pub fn frontier(&self, key: &str) -> Option<SeqNo> {
        let node = self.stabilizer();
        node.stability_frontier(node.me(), key).map(|(s, _)| s)
    }

    /// Local subscribe: deliveries of the publisher stream from now on
    /// are recorded in [`StabBroker::deliveries`].
    pub fn subscribe(&mut self) {
        self.sim.hooks.subscribed = true;
    }

    /// Local unsubscribe.
    pub fn unsubscribe(&mut self) {
        self.sim.hooks.subscribed = false;
    }

    /// Deliveries handed to the local subscriber: `(time, seq)` of the
    /// publisher stream.
    pub fn deliveries(&self) -> &[(SimTime, SeqNo)] {
        &self.sim.hooks.deliveries
    }

    /// The embedded Stabilizer node.
    pub fn stabilizer(&self) -> &StabilizerNode {
        self.sim.inner()
    }

    /// The embedded simulator driver, read-only: its `EventLog` by
    /// deref, and the view the chaos checker takes of a bare cluster.
    pub fn driver(&self) -> &SimNode<BrokerHooks> {
        &self.sim
    }

    /// End-to-end latency of every published message as the publisher
    /// measures it under predicate `key` (index `seq - 1`): the time
    /// `key`'s frontier first covered the message minus its send time
    /// (§VI-C: "tracking ACK arrival times and subtracting the
    /// corresponding message send times"); `None` where it has not.
    /// `site_k` is the latency to site `k`.
    pub fn latencies(&self, key: &str) -> Vec<Option<SimDuration>> {
        let cover = self.sim.coverage(self.stabilizer().me(), key);
        self.send_times
            .iter()
            .enumerate()
            .map(|(i, sent)| cover.get(i).map(|at| at.since(*sent)))
            .collect()
    }

    fn publish_next(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let Some(load) = self.load else { return };
        if self.published >= load.count {
            return;
        }
        // Publish even under backpressure pressure by growing the buffer:
        // the experiment sizes buffers generously; a real deployment
        // would propagate backpressure to the producer.
        match self.publish_one(ctx, load.size) {
            Ok(_) => {
                self.published += 1;
                if self.published < load.count {
                    ctx.set_timer(load.interval, TAG_PUBLISH);
                }
            }
            Err(_) => {
                // Buffer full: retry shortly without consuming the quota.
                ctx.set_timer(SimDuration::from_micros(200), TAG_PUBLISH);
            }
        }
    }
}

impl Actor for StabBroker {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.sim.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, WireMsg>, from: usize, msg: WireMsg) {
        self.sim.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, WireMsg>, timer: TimerId, tag: u64) {
        match tag {
            TAG_PUBLISH => self.publish_next(ctx),
            _ => self.sim.on_timer(ctx, timer, tag),
        }
    }
}

/// Build a pub/sub deployment of Stabilizer brokers over `net`.
///
/// # Errors
///
/// Propagates configuration and predicate-compile errors.
///
/// # Panics
///
/// Panics if sizes mismatch.
pub fn build_brokers(
    cfg: &ClusterConfig,
    net: NetTopology,
    seed: u64,
) -> Result<Simulation<StabBroker>, CoreError> {
    build_actors(cfg, net, seed, |me, acks| {
        StabBroker::new(cfg.clone(), me, acks)
    })
}
