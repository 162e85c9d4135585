//! # Pub/sub service prototype and baseline (§V-B, §VI-C, §VI-D)
//!
//! Two geo-replicated pub/sub implementations over the same simulated
//! WAN:
//!
//! * [`StabBroker`] — the paper's prototype: a thin broker layer over
//!   Stabilizer whose publisher tracks per-subscriber progress (and thus
//!   end-to-end latency) through stability-frontier predicates, and can
//!   reconfigure the tracked predicate at runtime (Fig. 8);
//! * [`PulsarBroker`] — the Apache Pulsar stand-in: per-peer replication
//!   queues with the paper's buffering patch and a JVM GC pause model
//!   (Fig. 7's LAN latency growth).

//! ```
//! use stabilizer_pubsub::{build_topic_brokers, pubsub_cfg};
//! use stabilizer_netsim::NetTopology;
//! use bytes::Bytes;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = build_topic_brokers(&pubsub_cfg(), NetTopology::cloudlab_table2(), 1)?;
//! sim.with_ctx(2, |b, ctx| b.subscribe_in(ctx, "news"))?;
//! sim.run_until_idle();
//! sim.with_ctx(0, |b, ctx| b.publish_in(ctx, "news", Bytes::from_static(b"hi")))?;
//! sim.run_until_idle();
//! assert_eq!(sim.actor(2).deliveries().len(), 1);
//! # Ok(()) }
//! ```

pub mod experiment;
pub mod pulsar;
pub mod stab_broker;
pub mod topics;

pub use experiment::{fig7_point, fig8_run, pubsub_cfg, Fig8Mode, Fig8Point, SiteResult, System};
pub use pulsar::{build_pulsar, GcModel, PulsarBroker, PulsarLoad, PulsarMsg};
pub use stab_broker::{build_brokers, PublishLoad, StabBroker};
pub use topics::{build_topic_brokers, TopicBroker, TopicRecord};
