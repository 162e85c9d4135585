//! # Stabilizer shard
//!
//! A sharded multi-stream engine layered over `stabilizer-core`: each
//! node runs S independent shard instances — each a complete
//! `StabilizerNode` with its own sequencer, send buffer, ACK recorder
//! and frontier engine — without touching the single-shard protocol
//! logic. `option shards` is this reproduction's extension and a
//! documented non-default: no workload measured has S > 1 ahead of S = 1
//! (EXPERIMENTS.md, "Sharded data-plane scaling").
//!
//! The pieces:
//!
//! * [`router`] — deterministic publish routing (round-robin or
//!   key-hash), pure state-machine code so seed replay stays
//!   byte-identical.
//! * [`codec`] — the 8-byte global-sequence header every sharded payload
//!   carries, which teaches mirrors the `(shard, shard_seq) → global`
//!   mapping for free at delivery time.
//! * [`frontier`] — the [`ShardedFrontier`] aggregator: min-combines
//!   per-shard stability frontiers into the node-level frontier (a
//!   global sequence is covered iff its shard covers it and nothing
//!   before it is uncovered) and reassembles per-shard FIFO deliveries
//!   into global FIFO order.
//! * [`engine`] — the [`ShardedEngine`] facade with the unsharded
//!   node-level API: `publish`, `register_predicate`/`change_predicate`,
//!   `stability_frontier`, `waitfor`, stability reports, timers — all in
//!   global sequence numbers. It drains [`ShardedAction`]s: a shard's
//!   send, or a node-level core `Action`.
//!
//! A sharded node is the data path and the §III-D API: it has no §III-E
//! recovery. [`ShardedEngine::new`] refuses a config that asks for
//! failure detection or state transfer, and the TCP runtime refuses to
//! restore one from a snapshot.
//!
//! On TCP the same [`ShardedEngine`] sits behind one mutex in
//! `stabilizer-transport::sharded`, the node's I/O loop running it
//! inline.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod engine;
pub mod frontier;
pub mod router;

pub use codec::{decode_global, encode_global, GLOBAL_HEADER};
pub use engine::{ShardedAction, ShardedEngine};
pub use frontier::{AggOutput, ShardedFrontier};
pub use router::{fnv1a, RoutePolicy, ShardRouter};
