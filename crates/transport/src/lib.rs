//! # Stabilizer TCP runtime
//!
//! Runs a sans-IO Stabilizer machine over real TCP sockets with one
//! `ppoll(2)` loop per node ([`link`], the one place sockets are
//! touched): one [`runtime`] — the machine behind one mutex, the loop
//! running it inline — over either machine, a plain
//! [`StabilizerNode`](stabilizer_core::StabilizerNode) or a
//! [`ShardedEngine`](stabilizer_shard::ShardedEngine) ([`sharded`] holds
//! what the latter adds). The paper's prototype uses an
//! asynchronous runtime for the same purpose; one loop over
//! non-blocking std sockets gives the same control/data-plane
//! separation with no runtime dependency — a private module holds the
//! foreign calls, `ppoll` and a non-blocking dial's `socket` and
//! `connect`, and a node runs no thread but its loop (see DESIGN.md).
//!
//! [`spawn_local_cluster`] boots an N-node deployment on localhost for
//! tests and demos; [`spawn_node`] wires one node given a listener plus
//! peer addresses, for genuinely distributed runs.
//!
//! ```no_run
//! use stabilizer_transport::spawn_local_cluster;
//! use stabilizer_core::{ClusterConfig, NodeId};
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ClusterConfig::parse("
//!     az East e1 e2
//!     az West w1
//!     predicate AllRemote MIN($ALLWNODES-$MYWNODE)
//! ")?;
//! let cluster = spawn_local_cluster(&cfg)?;
//! let h = cluster[0].handle();
//! let seq = h.publish(Bytes::from_static(b"hi"), Duration::from_secs(1))?;
//! assert!(h.waitfor(NodeId(0), "AllRemote", seq, Duration::from_secs(5))?);
//! for n in &cluster { n.handle().shutdown(); }
//! # Ok(()) }
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backoff;
pub mod framing;
pub mod handle;
pub mod link;
#[cfg(test)]
mod reader_memory;
pub mod runtime;
pub mod sharded;
mod upcalls;

pub use handle::{NodeHandle, StateGuard};
pub use link::{Clock, IoLoop, Net, TransportMetrics};
pub use runtime::{
    spawn_local_cluster, spawn_node, spawn_node_on, spawn_node_with, NodeLoop, SpawnOptions,
    TcpMachine, TcpNode,
};
pub use sharded::{
    spawn_sharded_local_cluster, spawn_sharded_local_cluster_with, spawn_sharded_node,
    ShardedHandle, ShardedTcpNode,
};
