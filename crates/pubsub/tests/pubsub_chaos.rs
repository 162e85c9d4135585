//! The chaos invariant checker over the pub/sub brokers, unchanged:
//! `StabBroker` embeds the core `SimNode` driver and exposes it as
//! `driver()`, so the checker views a broker exactly as it views a node
//! of a bare cluster — frontier (the publisher's `site_k` predicates),
//! delivery-prefix and suspicion invariants included.

use stabilizer_chaos::{InvariantChecker, NodeView};
use stabilizer_core::{ClusterConfig, NodeId};
use stabilizer_netsim::{NetTopology, SimDuration, Simulation};
use stabilizer_pubsub::{build_brokers, StabBroker};

const PUBLISHER: usize = 0;
const N: usize = 5;

#[test]
fn pubsub_workload_upholds_every_invariant_per_step() {
    // The experiments' `pubsub_cfg` runs over a loss-free network and
    // leaves retransmission off; under injected loss it must be on or
    // in-order delivery stalls at the first dropped message.
    let cfg = ClusterConfig::parse(
        "az Utah UT1 UT2\n\
         az Wisconsin WI\n\
         az Clemson CLEM\n\
         az Massachusetts MA\n\
         option send_buffer_bytes 2147483647\n\
         option retransmit_millis 50\n",
    )
    .unwrap();
    let mut sim = build_brokers(&cfg, NetTopology::cloudlab_table2(), 13).unwrap();
    for i in 1..N {
        sim.actor_mut(i).subscribe();
    }
    let mut checker = InvariantChecker::new(N, sim.actor(0).stabilizer().recorder().num_types());

    // Degrade the Wisconsin link mid-run: loss first, then a bandwidth
    // collapse, while the publisher keeps a steady stream going.
    sim.set_link_loss(PUBLISHER, 2, 0.3);
    for i in 0..30u64 {
        sim.with_ctx(PUBLISHER, |b, ctx| b.publish_one(ctx, 512))
            .unwrap();
        if i == 10 {
            sim.set_link_loss(PUBLISHER, 2, 0.0);
            sim.set_egress_limit(PUBLISHER, 50_000.0);
        }
        if i == 20 {
            sim.set_egress_limit(PUBLISHER, 1e12);
        }
        let deadline = sim.now() + SimDuration::from_millis(25);
        while sim.next_event_time().is_some_and(|t| t <= deadline) {
            sim.step();
            check(&mut checker, &sim);
        }
    }
    // Drain and do a final sweep.
    let deadline = sim.now() + SimDuration::from_secs(10);
    while sim.next_event_time().is_some_and(|t| t <= deadline) {
        sim.step();
        check(&mut checker, &sim);
    }
    // End-to-end sanity: every subscriber received the whole stream.
    for i in 1..N {
        assert_eq!(
            sim.actor(i).deliveries().len(),
            30,
            "site {i} missed deliveries"
        );
    }
}

fn check(checker: &mut InvariantChecker, sim: &Simulation<StabBroker>) {
    let views: Vec<NodeView<'_>> = (0..N)
        .map(|i| sim.actor(i).driver())
        .map(|d| NodeView::new(d.inner(), d, None))
        .collect();
    checker
        .check(sim.now(), &views)
        .expect("pub/sub workload violated a chaos invariant");
}

/// A subscriber crash is *seen*: with heartbeats and a failure timeout
/// configured the broker's driver arms them like any node's, so cutting
/// one broker off puts a `Suspected` entry in the publisher's log and
/// healing the links a `Recovered` one — with the checker's suspicion
/// invariants holding at every step.
#[test]
fn a_cut_off_subscriber_is_suspected_and_recovers() {
    let cfg = ClusterConfig::parse(
        "az Utah UT1 UT2\n\
         az Wisconsin WI\n\
         az Clemson CLEM\n\
         az Massachusetts MA\n\
         option heartbeat_millis 20\n\
         option failure_timeout_millis 200\n",
    )
    .unwrap();
    let mut sim = build_brokers(&cfg, NetTopology::cloudlab_table2(), 5).unwrap();
    let mut checker = InvariantChecker::new(N, sim.actor(0).stabilizer().recorder().num_types());
    let victim = 3;
    let mut run = |sim: &mut Simulation<StabBroker>, millis| {
        let deadline = sim.now() + SimDuration::from_millis(millis);
        while sim.next_event_time().is_some_and(|t| t <= deadline) {
            sim.step();
            check(&mut checker, sim);
        }
    };
    let cut = |sim: &mut Simulation<StabBroker>, up| {
        for peer in (0..N).filter(|p| *p != victim) {
            sim.set_link_up(peer, victim, up);
            sim.set_link_up(victim, peer, up);
        }
    };
    run(&mut sim, 500);
    let flips = |sim: &Simulation<StabBroker>| -> Vec<(NodeId, bool)> {
        let log = &sim.actor(PUBLISHER).driver().suspicion_log;
        log.iter()
            .map(|&(_, n, suspected)| (n, suspected))
            .collect()
    };
    assert!(flips(&sim).is_empty());
    cut(&mut sim, false);
    run(&mut sim, 1000);
    let victim = NodeId(victim as u16);
    assert_eq!(flips(&sim), [(victim, true)]);
    cut(&mut sim, true);
    run(&mut sim, 1000);
    assert_eq!(flips(&sim), [(victim, true), (victim, false)]);
}
