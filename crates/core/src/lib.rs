//! # Stabilizer core
//!
//! A from-scratch Rust implementation of *Stabilizer: Geo-Replication
//! with User-defined Consistency* (ICDCS 2022).
//!
//! Stabilizer mirrors each node's write stream to every other WAN node
//! (the primary-site model: only the origin updates its own data) and
//! lets the application define, in a small DSL, exactly which pattern of
//! acknowledgments makes a message "stable" — its **stability frontier
//! predicate**. The library is split along the paper's two planes:
//!
//! * **Data plane** ([`data_plane`]): sequence numbers are assigned at
//!   publish time and payloads stream to all peers immediately; a send
//!   buffer provides retransmission and backpressure, and space is
//!   reclaimed once every (live) peer has acknowledged receipt.
//! * **Control plane** ([`recorder`], [`frontier`]): monotonic stability
//!   reports flow continuously and independently of data; each arrival
//!   max-merges into the ACK recorder and incrementally re-evaluates only
//!   the predicates that depend on the changed cell.
//!
//! The protocol logic lives in [`StabilizerNode`], a **sans-IO state
//! machine**: drivers inject messages, timers and time, and execute the
//! [`Action`]s it emits. [`sim_driver`] runs it inside the deterministic
//! WAN simulator (every experiment in the paper's evaluation is
//! regenerated this way); `stabilizer-transport` runs the same state
//! machine over real TCP sockets.
//!
//! ## Quick tour
//!
//! ```
//! use stabilizer_core::{ClusterConfig, sim_driver::build_cluster};
//! use stabilizer_netsim::NetTopology;
//! use stabilizer_dsl::NodeId;
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ClusterConfig::parse("
//!     az East e1 e2
//!     az West w1
//!     predicate AllRemote MIN($ALLWNODES-$MYWNODE)
//! ")?;
//! let net = NetTopology::full_mesh(3, stabilizer_netsim::SimDuration::from_millis(20), 1e9);
//! let mut sim = build_cluster(&cfg, net, 42)?;
//!
//! // Publish at e1 and wait (in virtual time) for full WAN stability.
//! let seq = sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from_static(b"hello")))?;
//! sim.run_until_idle();
//! let (frontier, _gen) = sim.actor(0).inner().stability_frontier(NodeId(0), "AllRemote").unwrap();
//! assert_eq!(frontier, seq);
//! # Ok(()) }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod data_plane;
pub mod error;
pub mod explain;
pub mod frontier;
mod membership;
pub mod messages;
pub mod metrics;
pub mod node;
pub mod observe;
mod outbox;
pub mod persist;
pub mod recorder;
pub mod sim_driver;
pub mod timers;
mod transfer;
mod watchdog;

pub use config::{AnalysisMode, ClusterConfig, Options};
pub use error::CoreError;
pub use explain::{
    render_sharded_stall_reports_json, render_stall_reports_json, BlamedCell, StallReport,
};
pub use frontier::{FrontierEngine, FrontierUpdate, WaitToken};
pub use messages::{length_field, Ack, Reader, WireMsg, WIRE_OVERHEAD};
pub use metrics::Metrics;
pub use node::{Action, Snapshot, StabilizerNode};
pub use observe::{
    fnv1a, fnv1a_from, AppHooks, Delivery, Event, EventLog, NoHooks, ObserverChain, SharedEventLog,
    FNV1A_OFFSET,
};
pub use recorder::{AckRecorder, DirtyCell};
pub use timers::TimerKind;

// The observer clock: virtual time on the simulator, nanoseconds since
// the node's start on the TCP runtimes.
pub use stabilizer_netsim::SimTime;

// Re-export the placement surface so runtimes and checkers can scope
// themselves to replica sets without a direct `stabilizer-place` dep.
pub use stabilizer_place::{PlacementMap, ReplicateDirective};

// Re-export the DSL surface users need to interact with predicates.
pub use stabilizer_dsl::{
    AckTypeId, AckTypeRegistry, AckView, DslError, NodeId, Predicate, SeqNo, Topology, DELIVERED,
    PERSISTED, RECEIVED,
};
