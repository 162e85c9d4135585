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
use stabilizer_core::sim_driver::arm_timer;
use stabilizer_core::{
    Action, ClusterConfig, CoreError, NodeId, SeqNo, StabilizerNode, TimerKind, WireMsg,
};
use stabilizer_dsl::AckTypeRegistry;
use stabilizer_netsim::{Actor, Ctx, NetTopology, SimDuration, SimTime, Simulation, TimerId};
use std::sync::Arc;

const TAG_PUBLISH: u64 = 10;
const TAG_RETRANSMIT: u64 = TimerKind::Retransmit.tag();

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

/// One broker of the pub/sub deployment (a Stabilizer node plus the
/// publisher's measurement state).
pub struct StabBroker {
    node: StabilizerNode,
    /// Send time of each sequence number (publisher side), 1-based.
    pub send_times: Vec<SimTime>,
    /// Per-site first time the site's ACK covered each sequence number:
    /// `ack_times[site][seq-1]`.
    pub ack_times: Vec<Vec<Option<SimTime>>>,
    /// Deliveries observed at this broker (subscriber side):
    /// `(time, seq)` of the publisher stream.
    pub deliveries: Vec<(SimTime, SeqNo)>,
    /// Every frontier update observed: `(time, key, frontier)`.
    pub frontier_log: Vec<(SimTime, String, SeqNo)>,
    load: Option<PublishLoad>,
    published: u64,
    /// Subscription flags per local broker (drives the active-broker
    /// list and Fig. 8's predicate reconfiguration).
    pub subscribed: bool,
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
            node,
            send_times: Vec::new(),
            ack_times: vec![Vec::new(); n],
            deliveries: Vec::new(),
            frontier_log: Vec::new(),
            load: None,
            published: 0,
            subscribed: false,
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
        let seq = self.node.publish(Bytes::from(vec![0u8; size]))?;
        debug_assert_eq!(seq as usize, self.send_times.len() + 1);
        self.send_times.push(ctx.now());
        self.drain(ctx);
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
        let me = self.node.me();
        if change {
            self.node.change_predicate(me, key, source)?;
        } else {
            self.node.register_predicate(me, key, source)?;
        }
        self.drain(ctx);
        Ok(())
    }

    /// Current frontier of a predicate on this broker's own stream.
    pub fn frontier(&self, key: &str) -> Option<SeqNo> {
        self.node
            .stability_frontier(self.node.me(), key)
            .map(|(s, _)| s)
    }

    /// Local subscribe: future deliveries invoke the recorded log (the
    /// active-broker list is the set of subscribed brokers).
    pub fn subscribe(&mut self) {
        self.subscribed = true;
    }

    /// Local unsubscribe.
    pub fn unsubscribe(&mut self) {
        self.subscribed = false;
    }

    /// The embedded Stabilizer node.
    pub fn stabilizer(&self) -> &StabilizerNode {
        &self.node
    }

    /// Per-site end-to-end latency of `seq` (publisher side): ACK arrival
    /// minus send time.
    pub fn latency_of(&self, site: usize, seq: SeqNo) -> Option<SimDuration> {
        let ack = (*self.ack_times.get(site)?.get(seq as usize - 1)?)?;
        Some(ack.since(*self.send_times.get(seq as usize - 1)?))
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

    fn arm_retransmit(&self, ctx: &mut Ctx<'_, WireMsg>) {
        arm_timer(
            ctx,
            TimerKind::Retransmit,
            self.node.config().options(),
            1.0,
        );
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let me = self.node.me().0 as usize;
        for action in self.node.take_actions() {
            match action {
                Action::Send { to, msg } => ctx.send(to.0 as usize, msg),
                Action::Deliver { origin, seq, .. } => {
                    if origin.0 as usize != me && self.subscribed {
                        self.deliveries.push((ctx.now(), seq));
                    } else if origin.0 as usize != me {
                        // Unsubscribed brokers still mirror (reliable
                        // broadcast keeps them consistent) but do not
                        // upcall.
                    }
                }
                Action::Frontier(update) => {
                    self.frontier_log
                        .push((ctx.now(), update.key.clone(), update.seq));
                    // Per-site predicates feed the latency table.
                    if let Some(rest) = update.key.strip_prefix("site_") {
                        if let Ok(site) = rest.parse::<usize>() {
                            let seq = update.seq as usize;
                            let table = &mut self.ack_times[site];
                            if table.len() < seq {
                                table.resize(seq, None);
                            }
                            // Monotone frontier: fill every newly covered
                            // seq with this arrival time.
                            for cell in table.iter_mut().take(seq) {
                                if cell.is_none() {
                                    *cell = Some(ctx.now());
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

impl Actor for StabBroker {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        // The experiments run over loss-free links, so the broker never
        // needed a retransmission driver; with `retransmit_millis`
        // configured (e.g. under injected loss) pump the reliability
        // check like the core `SimNode` driver does.
        self.arm_retransmit(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, WireMsg>, from: usize, msg: WireMsg) {
        self.node
            .on_message(ctx.now().as_nanos(), NodeId(from as u16), msg);
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, WireMsg>, _t: TimerId, tag: u64) {
        match tag {
            TAG_PUBLISH => self.publish_next(ctx),
            TAG_RETRANSMIT => {
                self.node
                    .on_timer(TimerKind::Retransmit, ctx.now().as_nanos());
                self.drain(ctx);
                self.arm_retransmit(ctx);
            }
            _ => {}
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
    assert_eq!(net.len(), cfg.num_nodes());
    let acks = Arc::new(AckTypeRegistry::new());
    let mut brokers = Vec::with_capacity(cfg.num_nodes());
    for i in 0..cfg.num_nodes() {
        brokers.push(StabBroker::new(
            cfg.clone(),
            NodeId(i as u16),
            Arc::clone(&acks),
        )?);
    }
    Ok(Simulation::new(net, brokers, seed))
}
