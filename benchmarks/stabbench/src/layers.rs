//! Layer-isolated costs: nanoseconds per call of each layer a message
//! crosses, measured alone, in the shape the workload uses it — its
//! payload size, its topology, its predicate set, its shard count. These
//! absorb what `crates/bench/benches/*.rs` print and nobody records;
//! multiplied by the traced run's per-message counts they say how much
//! of a workload's per-message CPU each layer accounts for.

use crate::report::Report;
use crate::stats;
use bytes::Bytes;
use stabilizer_core::data_plane::{ReceiveState, SendBuffer};
use stabilizer_core::{
    Ack, AckRecorder, ClusterConfig, FrontierEngine, FrontierUpdate, NodeId, StabilizerNode,
    WireMsg,
};
use stabilizer_dsl::{AckTypeRegistry, EvalScratch, Predicate, RECEIVED};
use stabilizer_shard::{decode_global, encode_global, RoutePolicy, ShardRouter, ShardedFrontier};
use stabilizer_telemetry::LogHistogram;
use stabilizer_transport::framing::{read_frame, write_frame};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The workload's shape.
pub struct LayerParams {
    /// The workload's cluster configuration text.
    pub cfg: &'static str,
    /// Predicates `(key, source)` each node registers per remote stream
    /// on top of the configuration's own.
    pub remote_keys: &'static [(&'static str, &'static str)],
    /// Payload bytes per message.
    pub payload: usize,
    /// Shards per node.
    pub shards: u16,
}

/// Nanoseconds per call of `f`: batches double until one lasts 2 ms,
/// then the median of five batches of that size.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters = 16u64;
    let mut batch = |iters: u64| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_nanos() as f64
    };
    while batch(iters) < 2e6 {
        iters *= 2;
    }
    let runs: Vec<f64> = (0..5).map(|_| batch(iters) / iters as f64).collect();
    stats::median(&runs)
}

/// Measure every layer and set its metric.
pub fn run(p: &LayerParams, report: &mut Report) {
    let cfg = ClusterConfig::parse(p.cfg).expect("embedded config parses");
    let topo = Arc::clone(cfg.topology());
    let n = cfg.num_nodes();
    let acks = AckTypeRegistry::new();
    let me = NodeId(0);
    let payload = Bytes::from(vec![0x5a; p.payload]);
    let (_, strongest) = cfg
        .predicates()
        .find(|(k, _)| k.starts_with("All"))
        .expect("the workload's strongest level");

    report.set(
        "dsl.compile_us",
        ns_per_call(|| {
            black_box(Predicate::compile(strongest, &topo, &acks, me).expect("compiles"));
        }) / 1e3,
    );

    let mut rec = AckRecorder::new(n, 3);
    let pred = Predicate::compile(strongest, &topo, &acks, me).expect("compiles");
    let mut scratch = EvalScratch::with_capacity(pred.program().max_stack());
    report.set(
        "dsl.vm.eval_ns",
        ns_per_call(|| {
            black_box(pred.eval_with(&rec.stream_view(me), &mut scratch));
        }),
    );

    let mut seq = 0u64;
    report.set(
        "core.recorder.observe_ns",
        ns_per_call(|| {
            seq += 1;
            black_box(rec.observe(me, NodeId(1), RECEIVED, seq));
        }),
    );

    // The engine as one node of the workload holds it: the config's
    // predicates on its own stream, the remote keys on every other.
    let mut engine = FrontierEngine::new();
    let (mut out, mut done) = (Vec::new(), Vec::new());
    for (key, src) in cfg.predicates() {
        let pred = Predicate::compile(src, &topo, &acks, me).expect("compiles");
        engine.register(me, key, pred, &rec, &mut out, &mut done);
    }
    for stream in 1..n as u16 {
        for (key, src) in p.remote_keys {
            let pred = Predicate::compile(src, &topo, &acks, NodeId(stream)).expect("compiles");
            engine.register(NodeId(stream), key, pred, &rec, &mut out, &mut done);
        }
    }
    let mut peer = 0u16;
    report.set(
        "core.frontier.on_ack_advance_ns",
        ns_per_call(|| {
            // Peers take turns acknowledging the next message.
            peer = peer % (n as u16 - 1) + 1;
            seq += u64::from(peer == 1);
            rec.observe(me, NodeId(peer), RECEIVED, seq);
            engine.on_ack_advance(me, NodeId(peer), RECEIVED, &rec, &mut out, &mut done);
            out.clear();
            done.clear();
        }),
    );

    let mut sb = SendBuffer::new(usize::MAX);
    report.set(
        "core.data_plane.send_buffer_cycle_ns",
        ns_per_call(|| {
            let s = sb.publish(payload.clone()).expect("unbounded buffer");
            black_box(sb.reclaim(s));
        }),
    );

    let mut rs = ReceiveState::new();
    let mut next = 0u64;
    report.set(
        "core.data_plane.receive_in_order_ns",
        ns_per_call(|| {
            next += 1;
            black_box(rs.on_data(next, payload.clone()));
        }),
    );

    let msg = WireMsg::Data {
        origin: me,
        seq: 12345,
        payload: payload.clone(),
    };
    let encoded = msg.to_bytes();
    report.set(
        "core.messages.encode_ns",
        ns_per_call(|| {
            black_box(msg.to_bytes());
        }),
    );
    report.set(
        "core.messages.decode_ns",
        ns_per_call(|| {
            black_box(WireMsg::decode(&encoded).expect("decodes"));
        }),
    );

    // One full cycle at the origin: publish, then the `received` ACK of
    // every peer, which re-evaluates the predicates and reclaims the slot.
    let mut node = StabilizerNode::new(cfg.clone(), me, Arc::new(AckTypeRegistry::new()))
        .expect("node builds");
    report.set(
        "core.node.publish_ack_cycle_ns",
        ns_per_call(|| {
            let seq = node.publish(payload.clone()).expect("publish");
            node.take_actions();
            for peer in 1..n as u16 {
                let ack = Ack {
                    stream: me,
                    ty: RECEIVED,
                    seq,
                };
                node.on_message(0, NodeId(peer), WireMsg::AckBatch(vec![ack]));
            }
            black_box(node.take_actions());
        }),
    );

    let mut sink = Vec::with_capacity(p.payload + 64);
    report.set(
        "transport.framing.write_frame_ns",
        ns_per_call(|| {
            sink.clear();
            black_box(write_frame(&mut sink, &msg).expect("writes to memory"));
        }),
    );
    report.set(
        "transport.framing.read_frame_ns",
        ns_per_call(|| {
            black_box(read_frame(&mut sink.as_slice()).expect("reads from memory"));
        }),
    );

    let mut router = ShardRouter::new(p.shards, RoutePolicy::RoundRobin);
    report.set(
        "shard.router.route_ns",
        ns_per_call(|| {
            black_box(router.route(None));
        }),
    );
    report.set(
        "shard.codec.roundtrip_ns",
        ns_per_call(|| {
            let framed = encode_global(42, &payload);
            black_box(decode_global(&framed).expect("decodes"));
        }),
    );

    // Per message at the origin: learn which shard took the global
    // sequence number, then fold that shard's frontier advance.
    let mut agg = ShardedFrontier::new(n, p.shards as usize);
    agg.ensure_key(me, "All");
    let mut update = FrontierUpdate {
        stream: me,
        key: "All".to_owned(),
        seq: 0,
        generation: 0,
    };
    let mut global = 0u64;
    report.set(
        "shard.frontier.on_update_ns",
        ns_per_call(|| {
            let shard = (global % u64::from(p.shards)) as u16;
            global += 1;
            update.seq = (global - 1) / u64::from(p.shards) + 1;
            black_box(agg.learn_mapping(me, shard, global));
            black_box(agg.on_shard_frontier(shard, &update));
        }),
    );

    let hist = LogHistogram::new();
    let mut v = 1u64;
    report.set(
        "telemetry.histogram.record_ns",
        ns_per_call(|| {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(v >> 40);
        }),
    );
}
