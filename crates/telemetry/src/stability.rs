//! The cluster-wide telemetry hub and the observer that feeds it.
//!
//! [`Telemetry`] owns the metrics registry, the trace ring, the
//! publish-time stamp table and the per-predicate stability-latency
//! histograms. The data plane calls [`Telemetry::note_publish`] when a
//! payload is published; [`MetricsObserver`]s — one per node, attached
//! as the node's [`AppHooks`] observer on either runtime — record publish→deliver and publish→frontier-covered latencies from
//! the upcalls, reproducing the paper's headline stability-latency
//! metric (Figs 7–8) on both runtimes.
//!
//! ## Clocks
//!
//! In the simulator every timestamp is virtual [`SimTime`] nanoseconds,
//! passed straight through — two replays of the same seed produce
//! byte-identical exports. On the TCP runtime each node's observer
//! timestamps are relative to that node's own start
//! instant, so they do not share an epoch with publish stamps taken on
//! another node. A wall-clock `Telemetry` therefore carries one shared
//! [`Instant`] epoch and re-timestamps every event against it.

use crate::exemplar::{render_exemplars_json, Exemplar, ExemplarReservoir};
use crate::histogram::{HistogramSnapshot, LogHistogram};
use crate::registry::{register_build_info, Counter, Gauge, MetricsRegistry};
use crate::trace::{TraceEvent, TraceKind, TraceRing, DEFAULT_TRACE_CAPACITY};
use parking_lot::Mutex;
use stabilizer_core::{AppHooks, Event, FrontierUpdate};
use stabilizer_dsl::{NodeId, SeqNo};
use stabilizer_netsim::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// How many of an origin's most recent publish stamps are kept: a
/// publish pushes one trace event, so a stamp older than this many
/// publishes is older than anything the default ring can still show —
/// it has no exemplar left to join, and the sample it would time is
/// skipped like an unstamped one.
const STAMP_WINDOW: usize = DEFAULT_TRACE_CAPACITY;

/// One origin's publish stamps: slot `i` holds publish time + 1 of
/// sequence `base + i + 1` (0 = never stamped), at most
/// [`STAMP_WINDOW`] of them.
#[derive(Debug, Default, Clone)]
struct StampWindow {
    base: SeqNo,
    stamps: VecDeque<u64>,
}

impl StampWindow {
    /// Highest sequence number with a slot.
    fn newest(&self) -> SeqNo {
        self.base + self.stamps.len() as SeqNo
    }

    /// Stamp `seq` as published at `at` unless it already is, or its
    /// slot was evicted; the window slides so `seq` fits.
    fn stamp(&mut self, seq: SeqNo, at: u64) {
        if seq <= self.base {
            return;
        }
        if seq > self.newest() {
            let evict = (seq - self.base).saturating_sub(STAMP_WINDOW as SeqNo);
            self.stamps.drain(..self.stamps.len().min(evict as usize));
            self.base += evict;
            self.stamps.resize((seq - self.base) as usize, 0);
        }
        let slot = &mut self.stamps[(seq - self.base - 1) as usize];
        if *slot == 0 {
            *slot = at + 1;
        }
    }

    /// When `seq` was published, if it was stamped and is still kept.
    fn get(&self, seq: SeqNo) -> Option<u64> {
        let slot = seq.checked_sub(self.base + 1)?;
        let stamp = *self.stamps.get(slot as usize)?;
        stamp.checked_sub(1)
    }
}

/// Per-origin publish counters, created on first publish from a stream.
#[derive(Debug, Clone)]
struct PubCounters {
    publishes: Counter,
    published_bytes: Counter,
}

#[derive(Debug, Default)]
struct StampState {
    /// Per origin: when its recent sequence numbers were published.
    stamps: Vec<StampWindow>,
    per_origin: Vec<Option<PubCounters>>,
    /// Per predicate key: per-stream highest frontier already folded
    /// into the stability histogram (max-merged, so a generation bump
    /// that moves a frontier backwards never double-counts).
    covered: BTreeMap<String, Vec<SeqNo>>,
    /// Per predicate key: the stability-latency histogram (also
    /// registered in the registry for export).
    stability: BTreeMap<String, Arc<LogHistogram>>,
    /// Worst publish→deliver outliers, joined to the trace ring.
    deliver_exemplars: ExemplarReservoir,
    /// Per predicate key: worst publish→stable outliers.
    stability_exemplars: BTreeMap<String, ExemplarReservoir>,
    /// Per predicate key: the weakest crash tolerance any vantage
    /// recorded (a gauge alone cannot tell "never set" from 0).
    tolerance: BTreeMap<String, i64>,
}

/// The telemetry hub for one cluster (or one node under test). Shared
/// via `Arc` between the workload driver (publish stamps) and every
/// node's [`MetricsObserver`].
pub struct Telemetry {
    registry: MetricsRegistry,
    trace: TraceRing,
    /// `Some` on the TCP runtime: the single epoch all events are
    /// re-timestamped against. `None` in the simulator.
    wall_epoch: Option<Instant>,
    deliver_latency: Arc<LogHistogram>,
    uptime: Gauge,
    state: Mutex<StampState>,
}

impl Telemetry {
    fn build(wall_epoch: Option<Instant>, trace_capacity: usize, shards: usize) -> Arc<Self> {
        let registry = MetricsRegistry::new();
        registry.describe(
            "stab_deliver_latency_ns",
            "Publish-to-deliver latency in nanoseconds.",
        );
        registry.describe(
            "stab_stability_latency_ns",
            "Publish-to-stability-frontier latency per predicate key.",
        );
        let deliver_latency = registry.histogram("stab_deliver_latency_ns", &[]);
        let uptime = register_build_info(&registry, shards);
        Arc::new(Telemetry {
            registry,
            trace: TraceRing::new(trace_capacity),
            wall_epoch,
            deliver_latency,
            uptime,
            state: Mutex::new(StampState::default()),
        })
    }

    /// Telemetry for a simulated run: timestamps are taken verbatim from
    /// the upcalls (virtual time), so exports replay byte-identically.
    pub fn new_sim() -> Arc<Self> {
        Self::build(None, DEFAULT_TRACE_CAPACITY, 1)
    }

    /// Like [`Telemetry::new_sim`] with a custom trace-ring capacity
    /// (0 disables tracing).
    pub fn new_sim_with_trace(trace_capacity: usize) -> Arc<Self> {
        Self::build(None, trace_capacity, 1)
    }

    /// Telemetry for a TCP run: captures a wall-clock epoch now; every
    /// event is timestamped as monotonic nanoseconds since it.
    pub fn new_wall_clock() -> Arc<Self> {
        Self::build(Some(Instant::now()), DEFAULT_TRACE_CAPACITY, 1)
    }

    /// Like [`Telemetry::new_wall_clock`] for an engine running `shards`
    /// shards behind one hub; the count lands in `stab_build_info`.
    pub fn new_wall_clock_sharded(shards: usize) -> Arc<Self> {
        Self::build(Some(Instant::now()), DEFAULT_TRACE_CAPACITY, shards)
    }

    /// Whether every event is re-timestamped against a wall-clock epoch
    /// ([`Telemetry::new_wall_clock`]) rather than recorded at the time
    /// the runtime passes ([`Telemetry::new_sim`]).
    pub fn is_wall_clock(&self) -> bool {
        self.wall_epoch.is_some()
    }

    /// Refresh the `stab_uptime_seconds` gauge against the wall epoch.
    /// A no-op in sim mode, where uptime stays 0 so exports replay
    /// byte-identically. Called by the renderers before each snapshot.
    pub(crate) fn refresh_uptime(&self) {
        if let Some(epoch) = self.wall_epoch {
            self.uptime.set(epoch.elapsed().as_secs() as i64);
        }
    }

    /// The underlying registry, for registering extra series (the
    /// transport's frame/byte/reconnect counters live here).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Nanoseconds since the wall-clock epoch (0 in sim mode).
    pub fn now_nanos(&self) -> u64 {
        match self.wall_epoch {
            Some(epoch) => epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// The event timestamp to record: in wall-clock mode the shared
    /// epoch overrides whatever per-node clock the runtime passed.
    #[inline]
    fn event_now(&self, passed: u64) -> u64 {
        match self.wall_epoch {
            Some(epoch) => epoch.elapsed().as_nanos() as u64,
            None => passed,
        }
    }

    /// Stamp a publish: `(origin, seq)` was published at `now_nanos`
    /// with a `len`-byte payload. Call at publish time — sim harnesses
    /// pass virtual time; TCP callers use [`Telemetry::note_publish_now`].
    pub fn note_publish(&self, now_nanos: u64, origin: NodeId, seq: SeqNo, len: usize) {
        let idx = origin.0 as usize;
        {
            let mut state = self.state.lock();
            if state.stamps.len() <= idx {
                state.stamps.resize(idx + 1, StampWindow::default());
                state.per_origin.resize(idx + 1, None);
            }
            state.stamps[idx].stamp(seq, now_nanos);
            let counters = state.per_origin[idx].get_or_insert_with(|| {
                let node = origin.0.to_string();
                PubCounters {
                    publishes: self
                        .registry
                        .counter("stab_publishes_total", &[("node", &node)]),
                    published_bytes: self
                        .registry
                        .counter("stab_published_bytes_total", &[("node", &node)]),
                }
            });
            counters.publishes.inc();
            counters.published_bytes.add(len as u64);
        }
        self.trace.push(TraceEvent {
            at_nanos: now_nanos,
            node: origin,
            kind: TraceKind::Publish { seq, len },
        });
    }

    /// [`Telemetry::note_publish`] timestamped against the wall-clock
    /// epoch (TCP runs).
    pub fn note_publish_now(&self, origin: NodeId, seq: SeqNo, len: usize) {
        self.note_publish(self.now_nanos(), origin, seq, len);
    }

    /// Build the observer for `node`. Attach it to the TCP runtime's
    /// observer slot or drive it from sim hooks; either way it feeds
    /// this hub.
    pub fn observer(self: &Arc<Self>, node: NodeId) -> MetricsObserver {
        let id = node.0.to_string();
        let labels: &[(&str, &str)] = &[("node", &id)];
        MetricsObserver {
            node,
            hub: Arc::clone(self),
            deliveries: self.registry.counter("stab_deliveries_total", labels),
            delivered_bytes: self.registry.counter("stab_delivered_bytes_total", labels),
            frontier_advances: self
                .registry
                .counter("stab_frontier_advances_total", labels),
            wait_done: self.registry.counter("stab_wait_done_total", labels),
            suspicions: self.registry.counter("stab_suspicions_total", labels),
            recoveries: self.registry.counter("stab_recoveries_total", labels),
            catch_ups: self.registry.counter("stab_catch_ups_total", labels),
            catchup_lag: self.registry.gauge("stab_catchup_lag_seq", labels),
            connect_failures: self.registry.counter("stab_connect_failures_total", labels),
            transfer_chunks: self
                .registry
                .counter("stab_transfer_chunks_sent_total", labels),
            joins: self.registry.counter("stab_joins_total", labels),
        }
    }

    /// Register the placement-identity series: one
    /// `stab_stream_replicas{stream=...,replicas=...}` gauge per stream
    /// carrying the replica-set size (the membership itself rides in
    /// the `replicas` label), plus a `stab_placement_info` gauge pinned
    /// to 1 whose labels — `stab_build_info`-style — carry the
    /// deterministic placement hash, so dashboards can tell at a glance
    /// which placement a node runs and whether two nodes disagree.
    pub fn record_placement(&self, placement: &stabilizer_core::PlacementMap) {
        self.registry.describe(
            "stab_placement_info",
            "Placement identity; value is always 1.",
        );
        self.registry
            .gauge(
                "stab_placement_info",
                &[
                    (
                        "placement_hash",
                        &format!("{:016x}", placement.placement_hash()),
                    ),
                    (
                        "partial",
                        if placement.is_full_replication() {
                            "false"
                        } else {
                            "true"
                        },
                    ),
                ],
            )
            .set(1);
        self.registry.describe(
            "stab_stream_replicas",
            "Replica-set size per stream; the set itself is the `replicas` label.",
        );
        for s in 0..placement.num_nodes() {
            let stream = NodeId(s as u16);
            let members = placement
                .replicas(stream)
                .iter()
                .map(|n| n.0.to_string())
                .collect::<Vec<_>>()
                .join(",");
            self.registry
                .gauge(
                    "stab_stream_replicas",
                    &[("stream", &s.to_string()), ("replicas", &members)],
                )
                .set(placement.replicas(stream).len() as i64);
        }
    }

    /// Record the availability prover's exact crash tolerance `f*` for
    /// one installed predicate key, as computed when the node was
    /// spawned. `-1` means the predicate is blocked even with zero
    /// crashes. Every node that installs the key records its own
    /// vantage's value, in
    /// any order; the gauge keeps the minimum (the weakest vantage
    /// bounds the deployment).
    pub fn record_predicate_tolerance(&self, key: &str, tolerance: i64) {
        self.registry.describe(
            "stab_predicate_tolerance",
            "Exact crash tolerance f* per predicate key (min across vantages).",
        );
        let mut state = self.state.lock();
        let min = state.tolerance.entry(key.to_owned()).or_insert(tolerance);
        *min = (*min).min(tolerance);
        self.registry
            .gauge("stab_predicate_tolerance", &[("key", key)])
            .set(*min);
    }

    /// Mirror a node's control-plane counters
    /// ([`stabilizer_core::Metrics`]) into gauges. Runtimes call this
    /// periodically (TCP ticker) and the chaos harness at the end of
    /// `run` (the only recording a simulated run gets); the values are
    /// absolute, so re-recording is idempotent.
    pub fn record_node_metrics(&self, node: NodeId, m: &stabilizer_core::Metrics) {
        let id = node.0.to_string();
        let labels: &[(&str, &str)] = &[("node", &id)];
        let pairs: &[(&str, u64)] = &[
            ("stab_node_data_msgs_sent", m.data_msgs_sent),
            ("stab_node_data_bytes_sent", m.data_bytes_sent),
            ("stab_node_control_msgs_sent", m.control_msgs_sent),
            ("stab_node_acks_sent", m.acks_sent),
            ("stab_node_deliveries", m.deliveries),
            ("stab_node_acks_received", m.acks_received),
            ("stab_node_acks_stale", m.acks_stale),
            ("stab_node_retransmits", m.retransmits),
            ("stab_node_predicate_evals", m.predicate_evals),
            ("stab_node_frontier_updates", m.frontier_updates),
            ("stab_node_transfer_requests", m.transfer_requests),
            ("stab_node_transfer_chunks_sent", m.transfer_chunks_sent),
            ("stab_node_transfer_bytes_sent", m.transfer_bytes_sent),
            (
                "stab_node_transfer_chunks_received",
                m.transfer_chunks_received,
            ),
            ("stab_node_transfer_fast_forwards", m.transfer_fast_forwards),
        ];
        for (name, v) in pairs {
            self.registry.gauge(name, labels).set(*v as i64);
        }
    }

    /// Snapshot of the publish→deliver latency histogram.
    pub fn deliver_latency(&self) -> HistogramSnapshot {
        self.deliver_latency.snapshot()
    }

    /// Snapshot of the publish→frontier-covered latency histogram for a
    /// predicate key, if any latency was recorded for it.
    pub fn stability_latency(&self, key: &str) -> Option<HistogramSnapshot> {
        self.state.lock().stability.get(key).map(|h| h.snapshot())
    }

    /// Time a delivery upcall, traced at `cursor`, against its publish
    /// stamp.
    fn deliver(&self, ev_now: u64, origin: NodeId, seq: SeqNo, cursor: u64) {
        let mut state = self.state.lock();
        let published = state.stamps.get(origin.0 as usize).and_then(|s| s.get(seq));
        if let Some(published) = published {
            let latency = ev_now.saturating_sub(published);
            self.deliver_latency.record(latency);
            state.deliver_exemplars.offer(Exemplar {
                origin,
                seq,
                publish_nanos: published,
                stable_nanos: ev_now,
                latency_ns: latency,
                trace_cursor: cursor,
            });
        }
    }

    /// Time a frontier upcall, traced at `cursor`. Stability latency is
    /// folded in only at the origin (`obs_node == update.stream`): the
    /// paper's publish-to-stabilize latency is measured where the publish
    /// happened, and counting every mirror would multiply the samples
    /// by the cluster size.
    fn frontier(&self, ev_now: u64, obs_node: NodeId, update: &FrontierUpdate, cursor: u64) {
        if obs_node == update.stream {
            let mut state = self.state.lock();
            let hist = match state.stability.get(update.key.as_str()) {
                Some(h) => Arc::clone(h),
                None => {
                    let h = self
                        .registry
                        .histogram("stab_stability_latency_ns", &[("key", &update.key)]);
                    state.stability.insert(update.key.clone(), Arc::clone(&h));
                    h
                }
            };
            if !state.covered.contains_key(update.key.as_str()) {
                state.covered.insert(update.key.clone(), Vec::new());
            }
            if !state.stability_exemplars.contains_key(update.key.as_str()) {
                state
                    .stability_exemplars
                    .insert(update.key.clone(), ExemplarReservoir::default());
            }
            let idx = update.stream.0 as usize;
            // Split-borrow: cursor from `covered`, stamps from `stamps`,
            // reservoir from `stability_exemplars`.
            let StampState {
                covered,
                stamps,
                stability_exemplars,
                ..
            } = &mut *state;
            let reservoir = stability_exemplars
                .get_mut(update.key.as_str())
                .expect("just inserted");
            let cursors = covered.get_mut(update.key.as_str()).expect("just inserted");
            if cursors.len() <= idx {
                cursors.resize(idx + 1, 0);
            }
            let from = cursors[idx];
            if update.seq > from {
                if let Some(window) = stamps.get(idx) {
                    // Only what the window still holds can be timed.
                    let kept = (from + 1).max(window.base + 1)..=update.seq.min(window.newest());
                    for s in kept {
                        if let Some(published) = window.get(s) {
                            let latency = ev_now.saturating_sub(published);
                            hist.record(latency);
                            reservoir.offer(Exemplar {
                                origin: update.stream,
                                seq: s,
                                publish_nanos: published,
                                stable_nanos: ev_now,
                                latency_ns: latency,
                                trace_cursor: cursor,
                            });
                        }
                    }
                }
                cursors[idx] = update.seq;
            }
        }
    }

    /// The exemplar section of the JSON export:
    /// `{"deliver":[...],"stability":{"<key>":[...]}}`. Deterministic
    /// under the sim clock — seed replay pins these bytes.
    pub fn render_exemplars_json(&self) -> String {
        let state = self.state.lock();
        render_exemplars_json(&state.deliver_exemplars, &state.stability_exemplars)
    }

    /// Exemplars keyed the way the Prometheus renderer keys histogram
    /// series — `(name, rendered labels)` — in export order.
    pub(crate) fn exemplar_series(&self) -> BTreeMap<(String, String), Vec<Exemplar>> {
        let state = self.state.lock();
        let mut out = BTreeMap::new();
        if !state.deliver_exemplars.is_empty() {
            out.insert(
                ("stab_deliver_latency_ns".to_owned(), String::new()),
                state.deliver_exemplars.sorted(),
            );
        }
        for (key, res) in &state.stability_exemplars {
            if !res.is_empty() {
                out.insert(
                    (
                        "stab_stability_latency_ns".to_owned(),
                        crate::registry::render_labels(&[("key", key)]),
                    ),
                    res.sorted(),
                );
            }
        }
        out
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("wall_clock", &self.is_wall_clock())
            .field("registry", &self.registry)
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

/// Per-node observer feeding a shared [`Telemetry`] — the same
/// [`AppHooks`] on the simulator and on TCP, so the same seeded workload
/// produces the same histograms on either. It implements
/// [`AppHooks::on_event`] wholesale: feed it events, not per-kind calls.
pub struct MetricsObserver {
    node: NodeId,
    hub: Arc<Telemetry>,
    deliveries: Counter,
    delivered_bytes: Counter,
    frontier_advances: Counter,
    wait_done: Counter,
    suspicions: Counter,
    recoveries: Counter,
    catch_ups: Counter,
    /// Highest sequence jumped to by a §III-E fast-forward — how far the
    /// out-of-band transfer moved this node past normal delivery.
    catchup_lag: Gauge,
    connect_failures: Counter,
    transfer_chunks: Counter,
    joins: Counter,
}

impl AppHooks for MetricsObserver {
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        let now = self.hub.event_now(now.as_nanos());
        let cursor = self.hub.trace.push(TraceEvent {
            at_nanos: now,
            node: self.node,
            kind: self.hub.trace.kind_of(event),
        });
        match *event {
            Event::Deliver {
                origin,
                seq,
                payload,
            } => {
                self.deliveries.inc();
                self.delivered_bytes.add(payload.len() as u64);
                self.hub.deliver(now, origin, seq, cursor);
            }
            Event::Frontier(update) => {
                self.frontier_advances.inc();
                self.hub.frontier(now, self.node, update, cursor);
            }
            Event::WaitDone { .. } => self.wait_done.inc(),
            Event::Suspected { .. } => self.suspicions.inc(),
            Event::Recovered { .. } => self.recoveries.inc(),
            Event::CatchUp { seq, .. } => {
                self.catch_ups.inc();
                self.catchup_lag.set(seq as i64);
            }
            Event::ConnectFailed { .. } => self.connect_failures.inc(),
            Event::TransferChunk { .. } => self.transfer_chunks.inc(),
            Event::Join { .. } => self.joins.inc(),
        }
    }
}

impl std::fmt::Debug for MetricsObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsObserver")
            .field("node", &self.node)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn deliver(obs: &mut MetricsObserver, now: u64, origin: u16, seq: SeqNo, payload: &Bytes) {
        let origin = NodeId(origin);
        obs.on_event(
            SimTime(now),
            &Event::Deliver {
                origin,
                seq,
                payload,
            },
        );
    }

    fn frontier(obs: &mut MetricsObserver, now: u64, update: &FrontierUpdate) {
        obs.on_event(SimTime(now), &Event::Frontier(update));
    }

    /// `(origin, seq)`'s publish stamp, read off the hub's window.
    fn stamp(t: &Telemetry, origin: NodeId, seq: SeqNo) -> Option<u64> {
        t.state.lock().stamps.get(origin.0 as usize)?.get(seq)
    }

    fn update(stream: u16, seq: SeqNo) -> FrontierUpdate {
        FrontierUpdate {
            stream: NodeId(stream),
            key: "All".to_owned(),
            seq,
            generation: 0,
        }
    }

    #[test]
    fn deliver_latency_from_publish_stamp() {
        let t = Telemetry::new_sim();
        t.note_publish(1_000, NodeId(0), 1, 64);
        let mut obs = t.observer(NodeId(1));
        deliver(&mut obs, 5_000, 0, 1, &Bytes::from(vec![0u8; 64]));
        let snap = t.deliver_latency();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.min, 4_000);
        assert_eq!(
            t.registry()
                .counter("stab_deliveries_total", &[("node", "1")])
                .get(),
            1
        );
        assert_eq!(
            t.registry()
                .counter("stab_delivered_bytes_total", &[("node", "1")])
                .get(),
            64
        );
    }

    #[test]
    fn unstamped_delivery_counts_but_records_no_latency() {
        let t = Telemetry::new_sim();
        let mut obs = t.observer(NodeId(1));
        deliver(&mut obs, 5_000, 0, 7, &Bytes::from_static(b"x"));
        assert_eq!(t.deliver_latency().count, 0);
        assert_eq!(
            t.registry()
                .counter("stab_deliveries_total", &[("node", "1")])
                .get(),
            1
        );
    }

    #[test]
    fn stability_latency_only_at_origin() {
        let t = Telemetry::new_sim();
        t.note_publish(1_000, NodeId(0), 1, 8);
        t.note_publish(2_000, NodeId(0), 2, 8);
        let mut origin_obs = t.observer(NodeId(0));
        let mut mirror_obs = t.observer(NodeId(1));
        // Mirror sees the frontier first: must not record stability.
        frontier(&mut mirror_obs, 8_000, &update(0, 2));
        assert!(t.stability_latency("All").is_none());
        // Origin: covers seqs 1 and 2 in one advance.
        frontier(&mut origin_obs, 9_000, &update(0, 2));
        let snap = t.stability_latency("All").expect("histogram exists");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min, 7_000); // seq 2: 9000 - 2000
        assert_eq!(snap.max, 8_000); // seq 1: 9000 - 1000
    }

    #[test]
    fn frontier_regression_never_double_counts() {
        let t = Telemetry::new_sim();
        t.note_publish(0, NodeId(0), 1, 8);
        let mut obs = t.observer(NodeId(0));
        frontier(&mut obs, 100, &update(0, 1));
        // Generation bump re-announces a lower frontier, then re-covers.
        frontier(&mut obs, 200, &update(0, 0));
        frontier(&mut obs, 300, &update(0, 1));
        assert_eq!(t.stability_latency("All").unwrap().count, 1);
    }

    #[test]
    fn stamps_slide_out_of_the_window_and_their_samples_are_skipped() {
        let t = Telemetry::new_sim();
        let origin = NodeId(0);
        let n = STAMP_WINDOW as SeqNo;
        for seq in 1..=n + 10 {
            t.note_publish(seq, origin, seq, 8);
        }
        assert_eq!(stamp(&t, origin, 10), None, "evicted");
        assert_eq!(stamp(&t, origin, 11), Some(11));
        assert_eq!(stamp(&t, origin, n + 10), Some(n + 10));
        assert_eq!(stamp(&t, origin, n + 11), None, "not published");
        assert_eq!(stamp(&t, NodeId(1), 1), None);
        // A late stamp for an evicted slot is dropped, not resurrected.
        t.note_publish(5, origin, 5, 8);
        assert_eq!(stamp(&t, origin, 5), None);
        // One advance over everything times only what is still stamped.
        let mut obs = t.observer(origin);
        frontier(&mut obs, 1 << 40, &update(0, n + 10));
        assert_eq!(t.stability_latency("All").unwrap().count, n);
        let mut mirror = t.observer(NodeId(1));
        deliver(&mut mirror, 1 << 40, 0, 10, &Bytes::from_static(b"x"));
        deliver(&mut mirror, 1 << 40, 0, 11, &Bytes::from_static(b"x"));
        assert_eq!(t.deliver_latency().count, 1);
        // A sequence number far ahead slides the whole window.
        t.note_publish(9, origin, 10 * n, 8);
        assert_eq!(stamp(&t, origin, n + 10), None);
        assert_eq!(stamp(&t, origin, 10 * n), Some(9));
        assert_eq!(stamp(&t, origin, 10 * n - 1), None, "never stamped");
    }

    #[test]
    fn publish_at_time_zero_still_stamps() {
        let t = Telemetry::new_sim();
        t.note_publish(0, NodeId(0), 1, 8);
        let mut obs = t.observer(NodeId(1));
        deliver(&mut obs, 40, 0, 1, &Bytes::from_static(b"x"));
        let snap = t.deliver_latency();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.min, 40);
    }

    #[test]
    fn placement_series_carry_hash_and_replica_sets() {
        let t = Telemetry::new_sim();
        let p = stabilizer_core::PlacementMap::from_sets(
            4,
            &[
                (NodeId(0), vec![NodeId(0), NodeId(1), NodeId(2)]),
                (NodeId(1), vec![NodeId(0), NodeId(1), NodeId(2)]),
                (NodeId(2), vec![NodeId(1), NodeId(2), NodeId(3)]),
                (NodeId(3), vec![NodeId(2), NodeId(3), NodeId(0)]),
            ],
        )
        .unwrap();
        t.record_placement(&p);
        let hash = format!("{:016x}", p.placement_hash());
        assert_eq!(
            t.registry()
                .gauge(
                    "stab_placement_info",
                    &[("placement_hash", &hash), ("partial", "true")]
                )
                .get(),
            1
        );
        assert_eq!(
            t.registry()
                .gauge(
                    "stab_stream_replicas",
                    &[("stream", "3"), ("replicas", "0,2,3")]
                )
                .get(),
            3
        );
        let prom = t.render_prometheus();
        assert!(prom.contains("stab_placement_info{"), "{prom}");
        assert!(prom.contains("replicas=\"0,1,2\""), "{prom}");
    }
}
