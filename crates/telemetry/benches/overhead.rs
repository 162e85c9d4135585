//! Metric-overhead guard: instrumented vs. uninstrumented data-plane
//! delivery.
//!
//! The delivery upcall is the hottest observer path (once per message
//! per node), so this is where registry overhead would hurt. The bench
//! times the delivery event through a no-op observer, through a
//! `MetricsObserver` with tracing disabled, and with the trace ring on,
//! then prints the instrumented/uninstrumented ratio so future PRs can
//! eyeball drift. Expected: a handful of relaxed atomics — small-single-
//! digit ratio over the no-op.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use stabilizer_core::{AppHooks, Event};
use stabilizer_dsl::NodeId;
use stabilizer_netsim::SimTime;
use stabilizer_telemetry::{MetricsObserver, Telemetry};
use std::sync::Arc;
use std::time::Instant;

struct NoopObserver;
impl AppHooks for NoopObserver {}

const SEQS: u64 = 1024;
const PAYLOAD: usize = 64;

fn instrumented(trace_capacity: usize) -> MetricsObserver {
    let t: Arc<Telemetry> = Telemetry::new_sim_with_trace(trace_capacity);
    for s in 1..=SEQS {
        t.note_publish(s * 10, NodeId(0), s, PAYLOAD);
    }
    t.observer(NodeId(1))
}

/// Nanoseconds per call of `f`, via a calibrated loop (same idea as the
/// vendored criterion shim, but returning the number so we can print a
/// ratio).
fn ns_per_iter(mut f: impl FnMut()) -> f64 {
    let mut n: u64 = 1024;
    loop {
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 100 || n >= 16_777_216 {
            return elapsed.as_nanos() as f64 / n as f64;
        }
        n *= 4;
    }
}

/// One delivery event of `seq`, through the seam every driver uses.
fn deliver(obs: &mut impl AppHooks, seq: u64, payload: &Bytes) {
    obs.on_event(
        SimTime(black_box(seq * 10 + 5)),
        &Event::Deliver {
            origin: NodeId(0),
            seq,
            payload,
        },
    );
}

fn bench_delivery(c: &mut Criterion) {
    let payload = Bytes::from(vec![7u8; PAYLOAD]);

    let mut noop = NoopObserver;
    let mut seq = 0u64;
    c.bench_function("deliver/uninstrumented", |b| {
        b.iter(|| {
            seq = seq % SEQS + 1;
            deliver(&mut noop, seq, &payload);
        })
    });

    let mut obs = instrumented(0);
    let mut seq = 0u64;
    c.bench_function("deliver/instrumented", |b| {
        b.iter(|| {
            seq = seq % SEQS + 1;
            deliver(&mut obs, seq, &payload);
        })
    });

    let mut traced = instrumented(4096);
    let mut seq = 0u64;
    c.bench_function("deliver/instrumented+trace", |b| {
        b.iter(|| {
            seq = seq % SEQS + 1;
            deliver(&mut traced, seq, &payload);
        })
    });

    // The headline number: how much the metrics layer multiplies the
    // cost of a delivery upcall.
    let mut noop = NoopObserver;
    let mut seq = 0u64;
    let base = ns_per_iter(|| {
        seq = seq % SEQS + 1;
        deliver(&mut noop, seq, &payload);
    });
    let mut obs = instrumented(0);
    let mut seq = 0u64;
    let inst = ns_per_iter(|| {
        seq = seq % SEQS + 1;
        deliver(&mut obs, seq, &payload);
    });
    println!(
        "overhead ratio (instrumented / uninstrumented): {:.2}x \
         ({inst:.1} ns vs {base:.1} ns per delivery)",
        inst / base.max(f64::MIN_POSITIVE)
    );
}

criterion_group!(benches, bench_delivery);
criterion_main!(benches);
