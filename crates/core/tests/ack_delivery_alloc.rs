//! What delivering an `AckBatch` asks of the allocator once the buffers
//! are warm, end to end through the simulator driver
//! (`SimNode::on_message`: decode-side `Vec<Ack>` in, recorder, frontier
//! engine, action hand-over, hooks, log): nothing when no frontier
//! moves — however many cells moved and however many predicates were
//! evaluated — and, when `k` frontiers move, `k` keys, once: the
//! `String` each emitted `FrontierUpdate` owns, which the driver moves
//! into its `EventLog` once the hooks have seen it. Counted with the
//! workspace's per-thread counting allocator (`crates/testalloc`).

use bytes::Bytes;
use stabilizer_core::sim_driver::{build_cluster, SimNode};
use stabilizer_core::{Ack, ClusterConfig, NodeId, SeqNo, WireMsg};
use stabilizer_dsl::{DELIVERED, PERSISTED, RECEIVED};
use stabilizer_netsim::{Actor, NetTopology, SimDuration, Simulation};

#[global_allocator]
static ALLOC: stabilizer_testalloc::Counting = stabilizer_testalloc::Counting;

const ME: NodeId = NodeId(0);
const CFG: &str = "az A a b c d\n\
    predicate All MIN($ALLWNODES-$MYWNODE)\n\
    predicate Majority KTH_MAX(2, $ALLWNODES-$MYWNODE)\n";

/// Bytes requested while node 0 handles `peer`'s report that it holds,
/// has persisted and has delivered node 0's stream through `seq` — the
/// batch a mirror sends per delivery.
fn ack_cost(sim: &mut Simulation<SimNode>, peer: usize, seq: SeqNo) -> usize {
    let stream = ME;
    let row = [RECEIVED, PERSISTED, DELIVERED].map(|ty| Ack { stream, ty, seq });
    let msg = WireMsg::AckBatch(row.to_vec());
    sim.with_ctx(0, |node, ctx| {
        stabilizer_testalloc::cost(|| node.on_message(ctx, peer, msg)).0
    })
}

fn frontiers(sim: &Simulation<SimNode>) -> [SeqNo; 2] {
    ["All", "Majority"].map(|key| sim.actor(0).inner().stability_frontier(ME, key).unwrap().0)
}

#[test]
fn an_ack_batch_allocates_only_the_keys_of_the_frontiers_it_moves() {
    let cfg = ClusterConfig::parse(CFG).unwrap();
    let net = NetTopology::full_mesh(4, SimDuration::from_millis(1), 1e9);
    let mut sim = build_cluster(&cfg, net, 1).unwrap();

    // Warm up: publishes (their `Send`s size both sides of the action
    // hand-over), then every peer acknowledges the first message, which
    // moves each frontier once and sizes the fold's buffers.
    for _ in 0..8 {
        sim.with_ctx(0, |node, ctx| {
            node.publish_in(ctx, Bytes::from_static(b"p"))
        })
        .unwrap();
    }
    for peer in 1..=3 {
        ack_cost(&mut sim, peer, 1);
    }
    assert_eq!(frontiers(&sim), [1, 1]);
    // The log is the experiments' read side and grows by design; its
    // growth is not the delivery's.
    sim.actor_mut(0).frontier_log.reserve(16);
    let evals = |sim: &Simulation<SimNode>| sim.actor(0).inner().metrics().predicate_evals;

    // A stale report: no cell moves.
    assert_eq!(ack_cost(&mut sim, 1, 1), 0);

    // Three cells move, `received` crosses both frontiers (1 ≤ 1 < 5),
    // both predicates are evaluated, neither moves: (5, 1, 1).
    let before = evals(&sim);
    assert_eq!(ack_cost(&mut sim, 1, 5), 0);
    assert_eq!(evals(&sim) - before, 2);
    assert_eq!(frontiers(&sim), [1, 1]);

    // (5, 4, 1): the second largest moves, the smallest does not.
    assert_eq!(ack_cost(&mut sim, 2, 4), "Majority".len());
    assert_eq!(frontiers(&sim), [1, 4]);

    // (5, 4, 6): both move.
    assert_eq!(ack_cost(&mut sim, 3, 6), "All".len() + "Majority".len());
    assert_eq!(frontiers(&sim), [4, 5]);

    // (5, 4, 8): a cell above both frontiers moves further; nothing is
    // evaluated at all.
    let before = evals(&sim);
    assert_eq!(ack_cost(&mut sim, 3, 8), 0);
    assert_eq!(evals(&sim), before);
}
