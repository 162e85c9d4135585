//! The chaos invariant checker reused, unchanged, over the K/V store:
//! like every application actor, `GeoKvNode` embeds the core `SimNode`
//! driver and exposes it as `driver()`, the node and its event log, so
//! the same `NodeView` the bare-cluster harness builds applies here.

use bytes::Bytes;
use stabilizer_chaos::{InvariantChecker, NodeView};
use stabilizer_core::{ClusterConfig, NodeId};
use stabilizer_kvstore::build_kv_cluster;
use stabilizer_netsim::{NetTopology, SimDuration, SimTime};

fn cfg() -> ClusterConfig {
    ClusterConfig::parse(
        "az North_California n1 n2\n\
         az North_Virginia n3 n4 n5 n6\n\
         az Oregon n7\n\
         az Ohio n8\n\
         predicate AllWNodes MIN($ALLWNODES-$MYWNODE)\n\
         predicate OneWNode MAX($ALLWNODES-$MYWNODE)\n\
         option ack_flush_micros 500\n",
    )
    .unwrap()
}

#[test]
fn kv_workload_upholds_every_invariant_per_step() {
    let mut sim = build_kv_cluster(&cfg(), NetTopology::ec2_fig2(), 31).unwrap();
    let n = 8;
    let mut checker = InvariantChecker::new(n, sim.actor(0).stabilizer().recorder().num_types());
    // Writes from three different owners, interleaved with a lossy link
    // (the K/V layer rides on the same retransmission machinery).
    sim.set_link_loss(0, 7, 0.2);
    for round in 0..6 {
        for owner in [0usize, 3, 6] {
            sim.with_ctx(owner, |kv, ctx| {
                kv.put_in(
                    ctx,
                    &format!("key/{round}"),
                    Bytes::from(vec![owner as u8; 128]),
                )
            })
            .unwrap();
        }
        // Step the cluster manually, checking after every event.
        let deadline = sim.now() + SimDuration::from_millis(120);
        while sim.next_event_time().is_some_and(|t| t <= deadline) {
            sim.step();
            let now = sim.now();
            let views: Vec<NodeView<'_>> = (0..n)
                .map(|i| sim.actor(i).driver())
                .map(|d| NodeView::new(d.inner(), d, None))
                .collect();
            checker
                .check(now, &views)
                .expect("K/V workload violated a chaos invariant");
        }
    }
    sim.set_link_loss(0, 7, 0.0);
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    // Final sweep plus an end-to-end sanity check: mirrors converged.
    let views: Vec<NodeView<'_>> = (0..n)
        .map(|i| sim.actor(i).driver())
        .map(|d| NodeView::new(d.inner(), d, None))
        .collect();
    let now = sim.now();
    checker.check(now, &views).expect("final state is clean");
    for i in 0..n {
        assert_eq!(
            sim.actor(i).get(NodeId(3), "key/5"),
            Some(Bytes::from(vec![3u8; 128])),
            "mirror {i} did not converge"
        );
    }
}
