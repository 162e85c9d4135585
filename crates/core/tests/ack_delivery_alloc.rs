//! What delivering an `AckBatch` asks of the allocator once the buffers
//! are warm, end to end through the simulator driver
//! (`SimNode::on_message`: decode-side `Vec<Ack>` in, recorder, frontier
//! engine, action hand-over, hooks, log): nothing when no frontier
//! moves — however many cells moved and however many predicates were
//! evaluated — and, when `k` frontiers move, `k` keys, once: the
//! `String` each emitted `FrontierUpdate` owns, which the driver moves
//! into its `EventLog` once the hooks have seen it. Counted with the
//! workspace's per-thread counting allocator (`crates/testalloc`).
//!
//! The batches a mirror sends per delivery are the rows its peers sent
//! it, emptied: driving a `StabilizerNode` directly, a delivery after one
//! row from each peer requests nothing, and a row larger than the
//! node's own batches is freed, not kept.

use bytes::Bytes;
use stabilizer_core::sim_driver::{build_cluster, SimNode};
use stabilizer_core::{Ack, Action, ClusterConfig, NodeId, SeqNo, StabilizerNode, WireMsg};
use stabilizer_dsl::{AckTypeRegistry, DELIVERED, PERSISTED, RECEIVED};
use stabilizer_netsim::{Actor, NetTopology, SimDuration, Simulation};
use std::sync::Arc;

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

/// Node `me` of the four-node cluster, outside any simulation.
fn plain_node(me: u16) -> StabilizerNode {
    let cfg = ClusterConfig::parse(CFG).unwrap();
    StabilizerNode::new(cfg, NodeId(me), Arc::new(AckTypeRegistry::new())).unwrap()
}

fn data(origin: u16, seq: SeqNo) -> WireMsg {
    let (origin, payload) = (NodeId(origin), Bytes::from_static(b"p"));
    WireMsg::Data {
        origin,
        seq,
        payload,
    }
}

/// A row of `stream`'s three built-in levels through `seq`: the batch a
/// mirror sends per delivery.
fn row(stream: u16, seq: SeqNo) -> WireMsg {
    let stream = NodeId(stream);
    let row = [RECEIVED, PERSISTED, DELIVERED].map(|ty| Ack { stream, ty, seq });
    WireMsg::AckBatch(row.to_vec())
}

/// Bytes requested while `node` handles `msg` from `from` and its
/// actions move into the driver's warm `buf`; the actions are dropped
/// afterwards.
fn handle_cost(node: &mut StabilizerNode, buf: &mut Vec<Action>, from: u16, msg: WireMsg) -> usize {
    let cost = stabilizer_testalloc::cost(|| {
        node.on_message(0, NodeId(from), msg);
        node.swap_actions(buf);
    });
    buf.clear();
    cost.0
}

/// Bytes `node` still holds, once its actions are dropped, of what it
/// held before handling `msg` from `from` (negative: it freed some).
fn handle_held(node: &mut StabilizerNode, buf: &mut Vec<Action>, from: u16, msg: WireMsg) -> isize {
    let before = stabilizer_testalloc::live();
    handle_cost(node, buf, from, msg);
    stabilizer_testalloc::live() - before
}

/// Node 0 mirroring node 1's stream, its outbox and action buffers warm
/// from delivering `through` messages.
fn mirror(through: SeqNo) -> (StabilizerNode, Vec<Action>) {
    let (mut node, mut buf) = (plain_node(0), Vec::new());
    for seq in 1..=through {
        handle_cost(&mut node, &mut buf, 1, data(1, seq));
    }
    (node, buf)
}

#[test]
fn a_delivery_after_one_row_from_each_peer_sends_its_reports_in_those_rows() {
    let (mut node, mut buf) = mirror(2);
    let batch = 3 * std::mem::size_of::<Ack>();
    // Without rows to reuse, the delivery's cost is its three batches.
    assert_eq!(handle_cost(&mut node, &mut buf, 1, data(1, 3)), 3 * batch);
    // Each peer reports on node 1's stream, as mirrors do per delivery.
    for peer in 1..=3 {
        handle_cost(&mut node, &mut buf, peer, row(1, 3));
    }
    assert_eq!(handle_cost(&mut node, &mut buf, 1, data(1, 4)), 0);
    // The rows left with those batches.
    assert_eq!(handle_cost(&mut node, &mut buf, 1, data(1, 5)), 3 * batch);
}

#[test]
fn a_row_larger_than_the_outboxs_own_is_freed_not_kept() {
    let (mut node, mut buf) = mirror(2);
    // Node 1's re-announcement after a reconnect: every level it holds
    // of every stream node 0 replicates, more cells than node 0 has ever
    // queued.
    let mut peer = plain_node(1);
    peer.publish(Bytes::from_static(b"p")).unwrap();
    for origin in [0, 2, 3] {
        peer.on_message(0, NodeId(origin), data(origin, 1));
    }
    peer.take_actions();
    peer.repair_link(ME);
    let big = peer.take_actions().into_iter().find_map(|a| match a {
        Action::Send {
            to: ME,
            msg: WireMsg::AckBatch(acks),
        } => Some(acks),
        _ => None,
    });
    let big = big.expect("a re-announcement");
    assert_eq!(big.len(), 12, "four streams, three levels each");
    let bytes = (big.capacity() * std::mem::size_of::<Ack>()) as isize;

    // A row of one stream's levels stays, as a batch to come (once the
    // outbox's list of spare rows has room: a row and the delivery that
    // sends it size that list).
    handle_cost(&mut node, &mut buf, 3, row(1, 2));
    handle_cost(&mut node, &mut buf, 1, data(1, 3));
    assert_eq!(handle_held(&mut node, &mut buf, 2, row(1, 3)), 0);
    // The re-announcement is freed as soon as it is folded.
    let msg = WireMsg::AckBatch(big);
    assert_eq!(handle_held(&mut node, &mut buf, 1, msg), -bytes);
}
