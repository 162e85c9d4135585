//! Control-plane hot-path benchmarks: ACK-recorder max-merge and
//! frontier-engine incremental re-evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stabilizer_core::{AckRecorder, FrontierEngine};
use stabilizer_dsl::{AckTypeRegistry, NodeId, Predicate, Topology, PERSISTED, RECEIVED};

fn topo8() -> Topology {
    Topology::builder()
        .az("NC", &["n1", "n2"])
        .az("NV", &["n3", "n4", "n5", "n6"])
        .az("OR", &["n7"])
        .az("OH", &["n8"])
        .build()
        .unwrap()
}

fn bench_recorder(c: &mut Criterion) {
    let mut rec = AckRecorder::new(8, 3);
    let mut seq = 0u64;
    c.bench_function("recorder_observe_advancing", |b| {
        b.iter(|| {
            seq += 1;
            rec.observe(NodeId(0), NodeId(3), RECEIVED, seq)
        })
    });
    c.bench_function("recorder_observe_stale", |b| {
        b.iter(|| rec.observe(NodeId(0), NodeId(3), RECEIVED, 1))
    });
}

/// `sim8-ctrl`'s six configured predicates (`benchmarks/configs/sim8.cfg`).
const CONFIGURED: [(&str, &str); 6] = [
    ("OneRegion", "MAX(MAX($AZ_NV), MAX($AZ_OR), MAX($AZ_OH))"),
    (
        "MajorityRegions",
        "KTH_MAX(2, MAX($AZ_NV), MAX($AZ_OR), MAX($AZ_OH))",
    ),
    ("AllRegions", "MIN(MAX($AZ_NV), MAX($AZ_OR), MAX($AZ_OH))"),
    ("OneWNode", "MAX($ALLWNODES-$MYWNODE)"),
    (
        "MajorityWNodes",
        "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)",
    ),
    ("AllWNodes", "MIN($ALLWNODES-$MYWNODE)"),
];

/// One `on_ack_advance` at a node shaped like `sim8-ctrl`'s: the six
/// configured predicates on its own stream plus the last three of them on
/// each of the seven remote streams, 27 in all. A row per kind of ACK
/// cell the run feeds it, named by how many predicates read the cell; in
/// the run two cells in three are of the last kind.
fn bench_frontier_engine(c: &mut Criterion) {
    let topo = topo8();
    let acks = AckTypeRegistry::new();
    let me = NodeId(0);
    let mut eng = FrontierEngine::new();
    let mut rec = AckRecorder::new(8, 3);
    let mut out = Vec::new();
    let mut done = Vec::new();
    for stream in 0..8u16 {
        let keys = if stream == me.0 {
            &CONFIGURED[..]
        } else {
            &CONFIGURED[3..]
        };
        for (key, src) in keys {
            let pred = Predicate::compile(src, &topo, &acks, me).unwrap();
            eng.register(NodeId(stream), key, pred, &rec, &mut out, &mut done);
        }
    }
    assert_eq!(eng.len(), 27);
    let mut g = c.benchmark_group("frontier_on_ack_advance");
    let rows = [
        ("own_received_6_dependants", me, RECEIVED, 6),
        ("remote_received_3_dependants", NodeId(1), RECEIVED, 3),
        ("persisted_0_dependants", me, PERSISTED, 0),
    ];
    for (name, stream, ty, dependants) in rows {
        let node = NodeId(3);
        let mut seq = 0u64;
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                seq += 1;
                rec.observe(stream, node, ty, seq);
                eng.on_ack_advance(stream, node, ty, &rec, &mut out, &mut done);
                out.clear();
                done.clear();
            })
        });
        // The row measures what its name says.
        let before = eng.evaluations();
        rec.observe(stream, node, ty, seq + 1);
        eng.on_ack_advance(stream, node, ty, &rec, &mut out, &mut done);
        assert_eq!(eng.evaluations() - before, dependants, "{name}");
    }
    g.finish();
}

criterion_group!(benches, bench_recorder, bench_frontier_engine);
criterion_main!(benches);
