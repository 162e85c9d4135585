//! Design-choice ablations (DESIGN.md): the end-to-end effect, in
//! *virtual time*, of (a) ACK coalescing vs eager flushing and (b) the
//! aggressive asynchronous data plane vs a Paxos-style blocking commit
//! per message; and, in wall-clock time, (c) what the receive-side
//! reorder buffer costs on a fully reversed window. Dependency-filtered
//! predicate re-evaluation is timed by `stabbench`'s
//! `core.frontier.on_ack_advance_ns`, and its VM-run counts are pinned
//! by `core/src/frontier.rs`'s
//! `an_ack_runs_the_vm_once_per_frontier_it_crosses`.
//!
//! (a) and (b) report simulated latency through Criterion's wall-clock
//! of a fixed-size simulation run, with the virtual-time results printed
//! once at startup for the record.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stabilizer_core::data_plane::ReceiveState;
use stabilizer_core::sim_driver::build_cluster;
use stabilizer_core::{ClusterConfig, NodeId};
use stabilizer_netsim::NetTopology;

fn cfg(ack_flush_micros: u64) -> ClusterConfig {
    ClusterConfig::parse(&format!(
        "az NC n1 n2\naz NV n3 n4 n5 n6\naz OR n7\naz OH n8\n\
         predicate AllWNodes MIN($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros {ack_flush_micros}\n"
    ))
    .unwrap()
}

/// Virtual time for `count` messages to reach full WAN stability.
fn stabilization_time(ack_flush_micros: u64, count: u64) -> f64 {
    let mut sim = build_cluster(&cfg(ack_flush_micros), NetTopology::ec2_fig2(), 1).unwrap();
    for _ in 0..count {
        sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 8192])))
            .unwrap();
    }
    // With coalescing enabled the flush timer re-arms forever; run until
    // the frontier covers everything instead of until idle.
    let deadline = stabilizer_netsim::SimTime::ZERO + stabilizer_netsim::SimDuration::from_secs(60);
    loop {
        sim.run_for(stabilizer_netsim::SimDuration::from_millis(10));
        let (frontier, _) = sim
            .actor(0)
            .inner()
            .stability_frontier(NodeId(0), "AllWNodes")
            .unwrap();
        if frontier >= count || sim.now() >= deadline {
            break;
        }
    }
    sim.actor(0)
        .covered_at(NodeId(0), "AllWNodes", count)
        .map_or(f64::NAN, |t| t.as_secs_f64())
}

fn ablation_ack_coalescing(c: &mut Criterion) {
    // Print the virtual-time comparison once.
    for micros in [0u64, 500, 5000] {
        println!(
            "ablation ack_flush_micros={micros:>5}: 50 msgs fully stable at t={:.4}s (virtual)",
            stabilization_time(micros, 50)
        );
    }
    let mut g = c.benchmark_group("ack_coalescing_sim_cost");
    g.sample_size(10);
    for micros in [0u64, 500] {
        g.bench_function(BenchmarkId::from_parameter(micros), |b| {
            b.iter(|| stabilization_time(micros, 20))
        });
    }
    g.finish();
}

fn ablation_streaming_vs_blocking(c: &mut Criterion) {
    // Aggressive streaming (Stabilizer): publish all up front.
    let streaming = || {
        let mut sim = build_cluster(&cfg(0), NetTopology::ec2_fig2(), 2).unwrap();
        for _ in 0..20 {
            sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 8192])))
                .unwrap();
        }
        sim.run_until_idle();
        sim.now().as_secs_f64()
    };
    // Blocking (Paxos-style control flow): wait for full stability of
    // each message before sending the next.
    let blocking = || {
        let mut sim = build_cluster(&cfg(0), NetTopology::ec2_fig2(), 2).unwrap();
        for i in 1..=20u64 {
            sim.with_ctx(0, |n, ctx| n.publish_in(ctx, Bytes::from(vec![0u8; 8192])))
                .unwrap();
            loop {
                sim.run_for(stabilizer_netsim::SimDuration::from_millis(1));
                let (f, _) = sim
                    .actor(0)
                    .inner()
                    .stability_frontier(NodeId(0), "AllWNodes")
                    .unwrap();
                if f >= i {
                    break;
                }
            }
        }
        sim.now().as_secs_f64()
    };
    println!(
        "ablation data plane: streaming t={:.4}s vs per-message blocking t={:.4}s (virtual)",
        streaming(),
        blocking()
    );
    let mut g = c.benchmark_group("data_plane_style_sim_cost");
    g.sample_size(10);
    g.bench_function("streaming", |b| b.iter(streaming));
    g.bench_function("blocking", |b| b.iter(blocking));
    g.finish();
}

fn ablation_reorder_tolerance(c: &mut Criterion) {
    // The reorder buffer's cost when the transport is FIFO is the
    // in-order receive path (`core.data_plane.receive_in_order_ns` in
    // `stabbench`); this is the worst case, a fully reversed 64-message
    // window.
    c.bench_function("receive_reversed_window_64", |b| {
        let payload = Bytes::from(vec![0u8; 1024]);
        let mut base = 0u64;
        let mut rs = ReceiveState::new();
        b.iter(|| {
            let mut delivered = 0;
            for seq in (base + 1..=base + 64).rev() {
                delivered += rs.on_data(seq, payload.clone()).len();
            }
            base += 64;
            delivered
        })
    });
}

criterion_group!(
    benches,
    ablation_ack_coalescing,
    ablation_streaming_vs_blocking,
    ablation_reorder_tolerance
);
criterion_main!(benches);
