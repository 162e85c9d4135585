//! Control-plane hot-path benchmarks: ACK-recorder max-merge and
//! frontier-engine incremental re-evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stabilizer_core::{AckRecorder, FrontierEngine};
use stabilizer_dsl::{AckTypeRegistry, NodeId, Predicate, Topology, RECEIVED};

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

/// A node shaped like `sim8-ctrl`'s: the six configured predicates on its
/// own stream plus the last three of them on each of the seven remote
/// streams, 27 in all.
fn sim8_engine(rec: &AckRecorder) -> FrontierEngine {
    let (topo, acks, me) = (topo8(), AckTypeRegistry::new(), NodeId(0));
    let mut eng = FrontierEngine::new();
    let (mut out, mut done) = (Vec::new(), Vec::new());
    for stream in 0..8u16 {
        let keys = if stream == me.0 {
            &CONFIGURED[..]
        } else {
            &CONFIGURED[3..]
        };
        for (key, src) in keys {
            let pred = Predicate::compile(src, &topo, &acks, me).unwrap();
            eng.register(NodeId(stream), key, pred, rec, &mut out, &mut done);
        }
    }
    assert_eq!(eng.len(), 27);
    eng
}

/// One ACK folded the way `StabilizerNode::learn` folds it, at that node.
/// The moving cell is always node 3's `received`; a row is the stream it
/// belongs to — six predicates read the cell on the own stream, three on
/// a remote one — and where the other nodes stand, which decides whether
/// the cell crosses a frontier. The engine runs the VM once per frontier
/// crossed, not once per predicate that reads the cell, and each row
/// asserts its count (`sim8-ctrl` folds 168 cells per message and runs
/// the VM 39.5 times).
fn bench_frontier_engine(c: &mut Criterion) {
    const FAR: u64 = 1 << 40;
    let mover = NodeId(3);
    let mut g = c.benchmark_group("frontier_on_ack_advance");
    // (name, stream, where nodes 1..=7 other than the mover stand, VM runs)
    let rows: [(&str, u16, [u64; 8], u64); 4] = [
        // `AllWNodes` is a MIN and the mover is its slowest cell: every
        // step raises it. The other five frontiers are far ahead.
        ("own_6_readers_min_slowest_moves", 0, [FAR; 8], 1),
        // Node 1 is the slowest instead: the mover is above `AllWNodes`'
        // frontier and below every other.
        (
            "own_6_readers_min_another_is_slowest",
            0,
            [0, 0, FAR, 0, FAR, FAR, FAR, FAR],
            0,
        ),
        // `OneWNode` is a MAX and the mover leads it: overtaken each step.
        ("remote_3_readers_max_overtaken", 1, [0; 8], 1),
        // Node 2 leads instead; the mover runs below it.
        (
            "remote_3_readers_max_not_overtaken",
            1,
            [0, 0, FAR, 0, 0, 0, 0, 0],
            0,
        ),
    ];
    for (name, stream, others, vm_runs) in rows {
        let stream = NodeId(stream);
        let mut rec = AckRecorder::new(8, 3);
        for (node, at) in others.into_iter().enumerate().skip(1) {
            if node != mover.0 as usize {
                rec.observe(stream, NodeId(node as u16), RECEIVED, at);
            }
        }
        let mut eng = sim8_engine(&rec);
        let (mut out, mut done) = (Vec::new(), Vec::new());
        let mut seq = 0u64;
        let mut step = |eng: &mut FrontierEngine| {
            seq += 1;
            let old = rec.advance(stream, mover, RECEIVED, seq).expect("advances");
            eng.on_ack_advance_from((stream, mover, RECEIVED), old, &rec, &mut out, &mut done);
            out.clear();
            done.clear();
        };
        step(&mut eng); // off the all-zero table
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| step(&mut eng))
        });
        // The row measures what its name says.
        let before = eng.evaluations();
        step(&mut eng);
        assert_eq!(eng.evaluations() - before, vm_runs, "{name}");
    }
    g.finish();
}

criterion_group!(benches, bench_recorder, bench_frontier_engine);
criterion_main!(benches);
