//! # Geo-replicated K/V store (§V-A)
//!
//! The paper's first application: the Derecho object store extended with
//! Stabilizer into a WAN K/V system. [`LocalStore`] is the local
//! versioned object store (put / get / get_by_time, write-ahead log);
//! [`GeoKvNode`] integrates it with Stabilizer so every WAN node owns a
//! writable pool and mirrors every other pool read-only, with
//! `get_stability_frontier`, `register_predicate`, and
//! `change_predicate` exposing user-defined consistency.
//!
//! ```
//! use stabilizer_kvstore::build_kv_cluster;
//! use stabilizer_core::{ClusterConfig, NodeId};
//! use stabilizer_netsim::{NetTopology, SimDuration};
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ClusterConfig::parse("
//!     az East e1 e2
//!     az West w1
//!     predicate AllRemote MIN($ALLWNODES-$MYWNODE)
//! ")?;
//! let net = NetTopology::full_mesh(3, SimDuration::from_millis(10), 1e9);
//! let mut sim = build_kv_cluster(&cfg, net, 1)?;
//! sim.with_ctx(0, |kv, ctx| kv.put_in(ctx, "answer", Bytes::from_static(b"42")))?;
//! sim.run_until_idle();
//! assert_eq!(sim.actor(2).get(NodeId(0), "answer"), Some(Bytes::from_static(b"42")));
//! # Ok(()) }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod geo;
pub mod local;
pub mod record;
pub mod tcp;
pub mod wal;

pub use geo::{build_kv_cluster, build_kv_cluster_with_telemetry, GeoKvNode, KvHooks};
pub use local::{LocalStore, Version};
pub use record::KvOp;
pub use tcp::GeoKvHandle;
pub use wal::{load_wal, save_wal};
