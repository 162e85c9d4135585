//! The sharded engine in the deterministic simulator.
//!
//! [`ShardedEngine`] is a `stabilizer_core::sim_driver::Machine`, so the
//! one simulator driver (`SimNode`: timer table, hooks, log, `*_in`
//! calls) runs it unchanged and sharded scenarios slot into the existing
//! experiment and chaos harnesses. All shard sub-streams share one
//! simulated link per node pair: a [`ShardMsg`] envelope carries the
//! shard index plus the inner wire message, and the interleave across
//! shards is fully determined by the simulator's event order — same
//! seed, same byte stream, in any process.

use crate::engine::{ShardedAction, ShardedEngine};
use crate::router::RoutePolicy;
use bytes::Bytes;
use stabilizer_core::sim_driver::{build_actors, Machine, NoHooks, SimNode};
use stabilizer_core::{
    ClusterConfig, CoreError, Event, EventLog, Options, TimerKind, WaitToken, WireMsg,
};
use stabilizer_dsl::{AckTypeId, NodeId, SeqNo};
use stabilizer_netsim::{MsgSize, SimTime};

/// Wire envelope multiplexing shard sub-streams over one simulated link.
#[derive(Debug, Clone)]
pub struct ShardMsg {
    /// Destination shard index.
    pub shard: u16,
    /// The inner protocol message.
    pub msg: WireMsg,
}

impl MsgSize for ShardMsg {
    fn wire_size(&self) -> usize {
        // The shard index costs two bytes on the wire, exactly as in the
        // TCP runtime's sharded frame header.
        self.msg.wire_size() + 2
    }
}

impl Machine for ShardedEngine {
    type Msg = ShardMsg;
    type Action = ShardedAction;

    fn options(&self) -> &Options {
        self.config().options()
    }
    fn on_message(&mut self, now_nanos: u64, from: NodeId, msg: ShardMsg) {
        // A malformed shard index is dropped rather than panicking.
        if msg.shard < self.num_shards() {
            self.on_message(now_nanos, msg.shard, from, msg.msg);
        }
    }
    fn on_timer(&mut self, kind: TimerKind, now_nanos: u64) {
        self.on_timer(kind, now_nanos);
    }
    fn swap_actions(&mut self, buf: &mut Vec<ShardedAction>) {
        self.swap_actions(buf);
    }
    fn begin_catch_up(&mut self, now_nanos: u64) -> usize {
        self.begin_catch_up(now_nanos)
    }
    fn observe(action: &ShardedAction) -> Option<Event<'_>> {
        action.event()
    }
    fn into_send(action: ShardedAction) -> Option<(NodeId, ShardMsg)> {
        match action {
            ShardedAction::Send { shard, to, msg } => Some((to, ShardMsg { shard, msg })),
            _ => None,
        }
    }
    fn finish(
        action: ShardedAction,
        now: SimTime,
        log: &mut EventLog,
    ) -> Option<(NodeId, ShardMsg)> {
        match action {
            ShardedAction::Frontier(update) => {
                log.frontier_log.push((now, update));
                None
            }
            other => {
                if let Some(event) = other.event() {
                    log.record(now, &event);
                }
                Self::into_send(other)
            }
        }
    }
    fn publish(&mut self, payload: Bytes) -> Result<SeqNo, CoreError> {
        self.publish(payload)
    }
    fn register_predicate(
        &mut self,
        stream: NodeId,
        key: &str,
        src: &str,
    ) -> Result<(), CoreError> {
        self.register_predicate(stream, key, src)
    }
    fn change_predicate(&mut self, stream: NodeId, key: &str, src: &str) -> Result<(), CoreError> {
        self.change_predicate(stream, key, src)
    }
    fn waitfor(&mut self, stream: NodeId, key: &str, seq: SeqNo) -> Result<WaitToken, CoreError> {
        self.waitfor(stream, key, seq)
    }
    fn report_stability(&mut self, stream: NodeId, ty: AckTypeId, seq: SeqNo) {
        self.report_stability(stream, ty, seq);
    }
}

/// A sharded Stabilizer node embedded in the simulator: the one driver
/// over a [`ShardedEngine`]. Hooks see node-level events only; publishes
/// return, and `waitfor`/`report_stability` take, **global** sequence
/// numbers.
pub type ShardedSimNode = SimNode<NoHooks, ShardedEngine>;

/// Build a ready-to-run sharded simulated cluster: one
/// [`ShardedSimNode`] per topology node (each with
/// `cfg.options().shards` shards) over the given network, with a shared
/// ACK-type registry.
///
/// # Errors
///
/// Fails if a configured predicate does not compile.
///
/// # Panics
///
/// Panics if `net.len()` differs from the cluster topology size.
pub fn build_sharded_cluster(
    cfg: &ClusterConfig,
    net: stabilizer_netsim::NetTopology,
    seed: u64,
    policy: RoutePolicy,
) -> Result<stabilizer_netsim::Simulation<ShardedSimNode>, CoreError> {
    build_actors(cfg, net, seed, |me, acks| {
        let engine = ShardedEngine::new(cfg.clone(), me, acks, policy)?;
        Ok(SimNode::new(engine, NoHooks))
    })
}
