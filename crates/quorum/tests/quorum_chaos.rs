//! The chaos invariant checker over the quorum overlay, unchanged:
//! `QuorumActor` embeds the core `SimNode` driver (behind a `Ctx` lens,
//! since its links also carry the read RPCs) and exposes it as
//! `driver()`, so the checker views a member exactly as it views a node
//! of a bare cluster — ACK, frontier, delivery-prefix and suspicion
//! invariants alike.

use stabilizer_chaos::{InvariantChecker, NodeView};
use stabilizer_core::{ClusterConfig, NodeId, RECEIVED};
use stabilizer_netsim::{LinkSpec, NetTopology, SimDuration, Simulation};
use stabilizer_quorum::protocol::{build_quorum, QuorumActor};
use stabilizer_quorum::QuorumSetup;

const N: usize = 5;

/// Step `sim` event by event up to `deadline`, checking after each.
fn run_checked(
    checker: &mut InvariantChecker,
    sim: &mut Simulation<QuorumActor>,
    deadline: stabilizer_netsim::SimTime,
) {
    while sim.next_event_time().is_some_and(|t| t <= deadline) {
        sim.step();
        let views: Vec<NodeView<'_>> = (0..N)
            .map(|i| sim.actor(i).driver())
            .map(|d| NodeView::new(d.inner(), d, None))
            .collect();
        checker
            .check(sim.now(), &views)
            .expect("quorum workload violated a chaos invariant");
    }
}

/// Three AZs; go-back-N on, so a lossy link is repaired.
fn cfg() -> ClusterConfig {
    ClusterConfig::parse("az A a b\naz B c d\naz C e\noption retransmit_millis 50\n").unwrap()
}

fn topology() -> NetTopology {
    let mut t = NetTopology::new(&["a", "b", "c", "d", "e"]);
    for i in 0..5 {
        for j in (i + 1)..5 {
            t.set_symmetric(i, j, LinkSpec::from_rtt_mbit(12.0, 500.0));
        }
    }
    t
}

#[test]
fn quorum_workload_upholds_ack_and_frontier_invariants() {
    let setup = QuorumSetup::fig3();
    let mut sim = build_quorum(&cfg(), topology(), setup.clone(), 77).unwrap();
    let mut checker = InvariantChecker::new(N, sim.actor(0).stabilizer().recorder().num_types());

    // A lossy member link stresses the retransmission path while the
    // writer streams versions and the reader polls concurrently.
    sim.set_link_loss(1, 3, 0.25);
    let mut last_seq = 0;
    for _ in 0..8 {
        last_seq = sim
            .with_ctx(setup.writer, |a: &mut QuorumActor, ctx| {
                a.write_in(ctx, 256)
            })
            .unwrap();
        let deadline = sim.now() + SimDuration::from_millis(40);
        run_checked(&mut checker, &mut sim, deadline);
    }
    sim.set_link_loss(1, 3, 0.0);
    let deadline = sim.now() + SimDuration::from_secs(30);
    sim.with_ctx(setup.reader, |a: &mut QuorumActor, ctx| {
        a.chase_version(ctx, last_seq, deadline)
    });
    run_checked(&mut checker, &mut sim, deadline);

    // End-to-end sanity on top of the invariants: the read eventually
    // returned the committed version.
    let reader = sim.actor(setup.reader);
    assert!(
        reader.reads.iter().any(|r| r.version >= last_seq),
        "no read ever returned the final committed version"
    );
}

/// The retransmission path under the overlay: a member that lost half
/// of eight writes catches up once the link heals, because the actor's
/// driver arms the go-back-N check like any node's.
#[test]
fn a_member_behind_a_lossy_link_catches_up_once_it_heals() {
    let setup = QuorumSetup::fig3();
    let (writer, member) = (setup.writer, 3);
    let mut sim = build_quorum(&cfg(), topology(), setup, 7).unwrap();
    let mut checker = InvariantChecker::new(N, sim.actor(0).stabilizer().recorder().num_types());
    sim.set_link_loss(writer, member, 0.5);
    for _ in 0..8 {
        sim.with_ctx(writer, |a, ctx| a.write_in(ctx, 256)).unwrap();
        let deadline = sim.now() + SimDuration::from_millis(40);
        run_checked(&mut checker, &mut sim, deadline);
    }
    assert!(sim.dropped() > 0, "the lossy link never dropped a frame");
    sim.set_link_loss(writer, member, 0.0);
    let deadline = sim.now() + SimDuration::from_secs(30);
    run_checked(&mut checker, &mut sim, deadline);
    let received = |at: usize| {
        let (stream, node) = (NodeId(writer as u16), NodeId(member as u16));
        sim.actor(at)
            .stabilizer()
            .recorder()
            .get(stream, node, RECEIVED)
    };
    assert_eq!(received(member), 8, "the member's own RECEIVED cell");
    assert_eq!(received(writer), 8, "and the writer's view of it");
}
