//! What `ShardedFrontier::fold` asks of the allocator once its buffers
//! are warm: nothing for an in-order delivery or a shard frontier that
//! moves no aggregate, and the key of the one update it emits when an
//! aggregate does move. Counted with the workspace's per-thread counting
//! allocator (`crates/testalloc`).

use bytes::Bytes;
use stabilizer_core::{Action, FrontierUpdate, NodeId, SeqNo};
use stabilizer_shard::{encode_global, ShardedAction, ShardedFrontier};

#[global_allocator]
static ALLOC: stabilizer_testalloc::Counting = stabilizer_testalloc::Counting;

const OWN: NodeId = NodeId(0);
const PEER: NodeId = NodeId(1);
const KEY: &str = "AllRemote";

/// Bytes requested while folding `action` of `shard` into `out`.
fn fold_cost(
    agg: &mut ShardedFrontier,
    shard: u16,
    action: Action,
    out: &mut Vec<ShardedAction>,
) -> usize {
    stabilizer_testalloc::cost(|| agg.fold(shard, action, out)).0
}

fn deliver(seq: SeqNo, global: SeqNo) -> Action {
    let payload = encode_global(global, &Bytes::from_static(b"payload"));
    let origin = PEER;
    Action::Deliver {
        origin,
        seq,
        payload,
    }
}

fn frontier(stream: NodeId, seq: SeqNo) -> Action {
    Action::Frontier(FrontierUpdate {
        stream,
        key: KEY.to_owned(),
        seq,
        generation: 0,
    })
}

#[test]
fn steady_state_allocates_only_the_key_of_an_emitted_update() {
    let mut agg = ShardedFrontier::new(2, 2);
    agg.ensure_key(OWN, KEY);
    agg.ensure_key(PEER, KEY);
    let out = &mut Vec::with_capacity(64);

    // Warm the buffers: one aggregate that moves (on the own stream, so
    // the peer's stays at 0 below), one wait that completes, and five
    // in-order deliveries per shard — odd globals on shard 1, even on 0.
    agg.note_published(OWN, 0, agg.peek_next_global());
    agg.waitfor(OWN, KEY, 1).expect("registered");
    agg.fold(0, frontier(OWN, 1), out);
    for global in 1..=10u64 {
        agg.fold(
            (global % 2) as u16,
            deliver(global.div_ceil(2), global),
            out,
        );
    }
    agg.waitfor(PEER, KEY, 1_000).expect("registered");
    assert_eq!(agg.delivered_global(PEER), 10);
    out.clear();

    // An in-order delivery: straight through, nothing parked.
    assert_eq!(fold_cost(&mut agg, 1, deliver(6, 11), out), 0);
    assert!(matches!(
        out[..],
        [ShardedAction::Node(Action::Deliver { seq: 11, .. })]
    ));
    out.clear();

    // Shard 0 covers its first message, global 2; global 1 is shard 1's
    // and uncovered: no aggregate moves.
    assert_eq!(fold_cost(&mut agg, 0, frontier(PEER, 1), out), 0);
    assert!(out.is_empty());
    out.clear();

    // Shard 1 covers global 1: the aggregate moves to 2, and the update
    // that says so owns its key.
    assert_eq!(fold_cost(&mut agg, 1, frontier(PEER, 1), out), KEY.len());
    assert!(matches!(&out[..], [ShardedAction::Node(Action::Frontier(u))] if u.seq == 2));
}
