//! A per-node / per-cluster metrics registry: named counters, gauges and
//! histograms with Prometheus-style labels.
//!
//! Registration (`counter()`, `gauge()`, `histogram()`) takes a lock and
//! may allocate; it happens once at setup. The returned handles are
//! `Arc`-backed atomics, so the *record* path — the only thing that runs
//! under the node lock — is a relaxed atomic op. All series live in
//! `BTreeMap`s keyed by `(name, rendered labels)`, which makes every
//! export deterministically ordered: byte-identical output for identical
//! recorded values, which the sim replay test relies on.

use crate::histogram::{HistogramSnapshot, LogHistogram};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter handle. Cloning is cheap; clones
/// share the underlying atomic.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the current value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Series key: metric name plus rendered label pairs (`a="b",c="d"`).
type Series = (String, String);

#[derive(Default)]
struct Inner {
    counters: BTreeMap<Series, Arc<AtomicU64>>,
    gauges: BTreeMap<Series, Arc<AtomicI64>>,
    histograms: BTreeMap<Series, Arc<LogHistogram>>,
    /// Optional `# HELP` text per metric family name.
    help: BTreeMap<String, String>,
}

/// The registry. Cloning is cheap; clones share all series.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double quote and newline must be backslash-escaped.
fn push_escaped_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Render label pairs in the Prometheus inner form: `a="b",c="d"`.
/// Pairs are sorted by key so the same label set always renders the
/// same way regardless of call-site ordering; values are escaped per
/// the text exposition format.
pub(crate) fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<&(&str, &str)> = labels.iter().collect();
    pairs.sort();
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_escaped_label_value(&mut out, v);
        out.push('"');
    }
    out
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = (name.to_owned(), render_labels(labels));
        Counter(Arc::clone(
            self.inner.lock().counters.entry(key).or_default(),
        ))
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = (name.to_owned(), render_labels(labels));
        Gauge(Arc::clone(self.inner.lock().gauges.entry(key).or_default()))
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<LogHistogram> {
        let key = (name.to_owned(), render_labels(labels));
        Arc::clone(self.inner.lock().histograms.entry(key).or_default())
    }

    /// Attach `# HELP` text to the metric family `name`. Idempotent;
    /// the text is emitted once per family in the Prometheus export.
    pub fn describe(&self, name: &str, help: &str) {
        self.inner
            .lock()
            .help
            .entry(name.to_owned())
            .or_insert_with(|| help.to_owned());
    }

    /// A deterministic point-in-time copy of every series, for export.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock();
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            help: inner.help.clone(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// Everything the registry knew at one instant, in deterministic
/// (`BTreeMap`) order. Input to the exporters in `crate::export`.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// `(name, labels) -> value`.
    pub counters: BTreeMap<Series, u64>,
    /// `(name, labels) -> value`.
    pub gauges: BTreeMap<Series, i64>,
    /// `(name, labels) -> snapshot`.
    pub histograms: BTreeMap<Series, HistogramSnapshot>,
    /// `name -> # HELP` text for described families.
    pub help: BTreeMap<String, String>,
}

/// Short git hash baked in at compile time (build script), `unknown`
/// outside a git checkout.
pub const GIT_HASH: &str = env!("STAB_GIT_HASH");

/// Register the standard build-metadata series: a `stab_build_info`
/// gauge pinned to 1 carrying the crate version, git hash and shard
/// count as labels, and a `stab_uptime_seconds` gauge (0 until a
/// wall-clock hub refreshes it at render time). Returns the uptime
/// gauge so the caller can keep it current.
pub fn register_build_info(reg: &MetricsRegistry, shards: usize) -> Gauge {
    reg.describe("stab_build_info", "Build metadata; value is always 1.");
    reg.gauge(
        "stab_build_info",
        &[
            ("version", env!("CARGO_PKG_VERSION")),
            ("git_hash", GIT_HASH),
            ("shards", &shards.to_string()),
        ],
    )
    .set(1);
    reg.describe(
        "stab_uptime_seconds",
        "Seconds since the telemetry epoch (0 under the simulator).",
    );
    let uptime = reg.gauge("stab_uptime_seconds", &[]);
    uptime.set(0);
    uptime
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_identity_by_name_and_labels() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", &[("node", "0")]);
        let b = reg.counter("x_total", &[("node", "0")]);
        let c = reg.counter("x_total", &[("node", "1")]);
        a.inc();
        b.add(2);
        c.inc();
        assert_eq!(a.get(), 3); // a and b share the series
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("x", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth", &[]);
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn snapshot_is_ordered() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", &[]).inc();
        reg.counter("a_total", &[]).inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.keys().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a_total", "b_total"]);
    }
}
