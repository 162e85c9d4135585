//! # stabilizer-telemetry
//!
//! Dependency-light metrics and tracing for the Stabilizer
//! reproduction: the observation substrate for the paper's evaluation
//! quantities — stability latency (publish→frontier-covered, Figs 7–8),
//! delivery latency, throughput, and per-node control-plane progress —
//! on **both** runtimes (deterministic netsim and threaded TCP).
//!
//! Pieces:
//!
//! - [`MetricsRegistry`]: named counters / gauges / histograms with
//!   Prometheus-style labels. Handles are `Arc`-backed atomics: the
//!   record path never allocates or locks the registry, because
//!   observers run under the node's state-machine lock.
//! - [`LogHistogram`]: fixed-bucket log-scale histogram (252 buckets,
//!   ≤ 25% quantization error over the whole `u64` range).
//! - [`Telemetry`]: the per-cluster hub — publish-time stamp table,
//!   per-predicate stability-latency histograms, trace ring, exporters
//!   ([`Telemetry::render_prometheus`], [`Telemetry::render_json`]).
//! - [`MetricsObserver`]: per-node observer — the one
//!   [`AppHooks`](stabilizer_core::AppHooks) trait on the simulator and
//!   on TCP (its contract is written once, in `stabilizer_core::observe`)
//!   — feeding one shared [`Telemetry`].
//! - [`TraceRing`]: bounded ring of typed [`TraceEvent`]s with JSONL
//!   export — deterministic virtual timestamps in sim, monotonic
//!   nanoseconds since a shared epoch on TCP.
//!
//! Determinism contract: with identical recorded values, every export
//! is byte-identical — all iteration happens over `BTreeMap`s and all
//! numbers are integers. A netsim run therefore exports the same bytes
//! on every replay of the same seed; the chaos acceptance test pins
//! this.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod exemplar;
mod export;
mod histogram;
mod json;
mod registry;
mod server;
mod stability;
mod trace;

pub use exemplar::{Exemplar, ExemplarReservoir, DEFAULT_EXEMPLAR_CAPACITY};
pub use export::{
    render_json_snapshot, render_prometheus_snapshot, render_prometheus_with_exemplars,
};
pub use histogram::{
    bucket_index, bucket_lower, bucket_upper, HistogramSnapshot, LogHistogram, NUM_BUCKETS,
};
pub use json::{parse_json, JsonValue};
pub use registry::{
    register_build_info, Counter, Gauge, MetricsRegistry, RegistrySnapshot, GIT_HASH,
};
pub use server::{http_get, ServerRoutes, StallProvider, TelemetryServer};
pub use stability::{MetricsObserver, Telemetry};
pub use trace::{TraceEvent, TraceKind, TraceRing, DEFAULT_TRACE_CAPACITY};
