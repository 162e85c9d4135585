//! A batch is equivalent to the sequence: whatever arrives — data in
//! order, duplicated or gapped, ACK rows, heartbeats, transfer frames,
//! from several peers — feeding it through
//! [`StabilizerNode::on_message`] one message at a time and through
//! [`StabilizerNode::on_messages`] in arbitrary chunks leaves the same
//! node behind and shows the application the same things. Only the
//! eager ACK flush differs: a chunk flushes once, so it sends the same
//! final value for every cell in no more batches; with a flush timer
//! configured (`ack_flush_micros > 0`) nothing differs at all.

use bytes::Bytes;
use proptest::prelude::*;
use stabilizer_core::{
    Ack, AckTypeRegistry, Action, ClusterConfig, NodeId, SeqNo, StabilizerNode, WireMsg,
};
use stabilizer_dsl::AckTypeId;
use std::collections::BTreeMap;
use std::sync::Arc;

const CFG: &str = "az A a b\naz B c\n\
    predicate All MIN($ALLWNODES-$MYWNODE)\n\
    predicate One MAX($ALLWNODES-$MYWNODE)\n\
    option transfer_millis 20\n\
    option retain_log_bytes 4096\n";
const ME: NodeId = NodeId(0);
const NODES: u16 = 3;
/// Own-stream messages published (and waited on) before the input.
const PUBLISHED: SeqNo = 6;
const NOW: u64 = 5_000_000;

/// Node 0 with traffic of its own in flight: six messages published, a
/// wait on each under both predicates, a predicate on a peer's stream,
/// and a catch-up session open towards every peer.
fn node(ack_flush_micros: u64) -> StabilizerNode {
    let cfg = ClusterConfig::parse(CFG).expect("config parses");
    let opts = cfg.options().clone().ack_flush_micros(ack_flush_micros);
    let cfg = cfg.with_options(opts);
    let mut node =
        StabilizerNode::new(cfg, ME, Arc::new(AckTypeRegistry::new())).expect("predicates compile");
    node.register_predicate(NodeId(1), "Theirs", "MIN($ALLWNODES-$MYWNODE)")
        .expect("compiles");
    for seq in 1..=PUBLISHED {
        node.publish(Bytes::from(vec![seq as u8; 8])).expect("fits");
        for key in ["All", "One"] {
            node.waitfor(ME, key, seq).expect("installed");
        }
    }
    node.begin_catch_up(0);
    node.take_actions();
    node
}

fn acks() -> impl Strategy<Value = Vec<Ack>> {
    proptest::collection::vec((0..NODES, 0u16..4, 0u64..12), 1..5).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(stream, ty, seq)| Ack {
                stream: NodeId(stream),
                ty: AckTypeId(ty),
                seq,
            })
            .collect()
    })
}

/// One frame as peer `from` (1 or 2) could send it.
fn frame() -> impl Strategy<Value = (NodeId, WireMsg)> {
    let payload = || proptest::collection::vec(any::<u8>(), 0..16).prop_map(Bytes::from);
    let msg = prop_oneof![
        // Mostly the sender's own stream, sequence numbers drawn so that
        // in-order, duplicate and gapped arrivals all occur.
        6 => (0..NODES, 1u64..10, payload()).prop_map(|(origin, seq, payload)| WireMsg::Data {
            origin: NodeId(origin),
            seq,
            payload,
        }),
        6 => acks().prop_map(WireMsg::AckBatch),
        1 => Just(WireMsg::Heartbeat),
        1 => (0..NODES, 0..=PUBLISHED)
            .prop_map(|(stream, have)| WireMsg::TransferRequest { stream: NodeId(stream), have }),
        1 => (0..NODES, 0..=PUBLISHED)
            .prop_map(|(stream, through)| WireMsg::TransferAck { stream: NodeId(stream), through }),
        1 => (0..NODES, 0u64..6, 0u64..10, acks(), any::<u64>()).prop_map(
            |(stream, base, span, acks, app_mark)| WireMsg::TransferSnapshot {
                stream: NodeId(stream),
                base,
                high: base + span,
                acks,
                app_mark,
            }
        ),
        2 => (0..NODES, 1u64..10, payload(), any::<bool>()).prop_map(
            |(stream, seq, payload, done)| WireMsg::TransferChunk {
                stream: NodeId(stream),
                seq,
                payload,
                done,
            }
        ),
    ];
    (1..NODES, msg).prop_map(|(from, msg)| {
        // A peer sends its own stream nine times out of ten.
        let msg = match msg {
            WireMsg::Data { seq, payload, .. } if seq % 10 != 0 => WireMsg::Data {
                origin: NodeId(from),
                seq,
                payload,
            },
            other => other,
        };
        (NodeId(from), msg)
    })
}

/// Feed `frames` one `on_message` at a time.
fn stepwise(node: &mut StabilizerNode, frames: &[(NodeId, WireMsg)]) -> Vec<Action> {
    for (from, msg) in frames {
        node.on_message(NOW, *from, msg.clone());
    }
    node.take_actions()
}

/// Feed `frames` through `on_messages`, cut where `cuts` says (each
/// entry is the length of the next chunk, cycled).
fn chunked(node: &mut StabilizerNode, frames: &[(NodeId, WireMsg)], cuts: &[usize]) -> Vec<Action> {
    let mut rest = frames;
    let mut cuts = cuts.iter().cycle();
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at((*cuts.next().expect("non-empty")).min(rest.len()));
        node.on_messages(NOW, chunk.iter().cloned());
        rest = tail;
    }
    node.take_actions()
}

fn is_ack_batch(action: &Action) -> bool {
    matches!(
        action,
        Action::Send {
            msg: WireMsg::AckBatch(_),
            ..
        }
    )
}

/// Per peer, the value each ACK cell was last told (reports are
/// monotone, so that is the highest).
fn told(actions: &[Action]) -> BTreeMap<(NodeId, NodeId, AckTypeId), SeqNo> {
    let mut told = BTreeMap::new();
    for action in actions {
        if let Action::Send {
            to,
            msg: WireMsg::AckBatch(row),
        } = action
        {
            for ack in row {
                let cell = told.entry((*to, ack.stream, ack.ty)).or_insert(0);
                *cell = ack.seq.max(*cell);
            }
        }
    }
    told
}

/// Everything about the node a later input could depend on, except the
/// counters an eager flush moves.
fn state(node: &StabilizerNode) -> impl PartialEq + std::fmt::Debug {
    let types = node.ack_types().len() as u16;
    let table: Vec<SeqNo> = (0..NODES)
        .flat_map(|s| (0..NODES).map(move |n| (s, n)))
        .flat_map(|(s, n)| (0..types).map(move |t| (s, n, t)))
        .map(|(s, n, t)| node.recorder().get(NodeId(s), NodeId(n), AckTypeId(t)))
        .collect();
    let frontiers = [(ME, "All"), (ME, "One"), (NodeId(1), "Theirs")]
        .map(|(stream, key)| node.stability_frontier(stream, key));
    let mut metrics = node.metrics();
    (metrics.control_msgs_sent, metrics.acks_sent) = (0, 0);
    // ...nor on how often the engine evaluated to get here.
    metrics.predicate_evals = 0;
    (
        table,
        frontiers,
        node.pending_waiters(),
        node.send_buffer_bytes(),
        node.first_replayable(),
        node.active_transfers(),
        metrics,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chunked_input_is_equivalent_to_stepwise_input(
        frames in proptest::collection::vec(frame(), 1..60),
        cuts in proptest::collection::vec(1usize..9, 1..8),
    ) {
        let (mut one, mut many) = (node(0), node(0));
        let a = stepwise(&mut one, &frames);
        let b = chunked(&mut many, &frames, &cuts);

        // The node left behind is the same.
        prop_assert_eq!(state(&one), state(&many));
        // Apart from stability reports, both did the same things in the
        // same order: deliveries, frontier updates, completed waits,
        // data and transfer sends.
        let rest = |actions: &[Action]| -> Vec<Action> {
            actions.iter().filter(|a| !is_ack_batch(a)).cloned().collect()
        };
        prop_assert_eq!(rest(&a), rest(&b));
        // Every peer ends up told the same value for every cell, in no
        // more batches.
        prop_assert_eq!(told(&a), told(&b));
        let batches = |actions: &[Action]| actions.iter().filter(|a| is_ack_batch(a)).count();
        prop_assert!(batches(&b) <= batches(&a), "{} > {}", batches(&b), batches(&a));
    }

    #[test]
    fn with_a_flush_timer_chunking_changes_nothing(
        frames in proptest::collection::vec(frame(), 1..60),
        cuts in proptest::collection::vec(1usize..9, 1..8),
    ) {
        let (mut one, mut many) = (node(500), node(500));
        let a = stepwise(&mut one, &frames);
        let b = chunked(&mut many, &frames, &cuts);
        prop_assert_eq!(a, b);
        prop_assert_eq!(state(&one), state(&many));
        // ...including what the timer then flushes.
        one.on_timer(stabilizer_core::TimerKind::AckFlush, NOW);
        many.on_timer(stabilizer_core::TimerKind::AckFlush, NOW);
        prop_assert_eq!(one.take_actions(), many.take_actions());
    }
}
