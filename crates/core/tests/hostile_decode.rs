//! `WireMsg::decode` reads bytes straight off a socket: what it
//! allocates must be bounded by what it was given, not by a number the
//! sender wrote. Counted with a per-thread allocator so the bound is on
//! bytes actually requested, whatever the decoder's internals. Both
//! decoders are held to it: `decode` and `decode_shared`, which slices
//! payloads out of its input instead of copying them. So is
//! `Snapshot::from_bytes`, which reads what a storage system kept.

use bytes::Bytes;
use stabilizer_core::{Ack, AckRecorder, NodeId, Snapshot, WireMsg};
use stabilizer_dsl::AckTypeId;

#[global_allocator]
static ALLOC: stabilizer_testalloc::Counting = stabilizer_testalloc::Counting;

/// Bytes requested while decoding `input` by each decoder — the larger
/// of the two — and whether it was accepted (both must agree).
fn decode_cost(input: &[u8]) -> (usize, bool) {
    let (cost, decoded) = stabilizer_testalloc::cost(|| WireMsg::decode(input));
    let shared = Bytes::from(input.to_vec());
    let (shared_cost, shared_decoded) =
        stabilizer_testalloc::cost(|| WireMsg::decode_shared(&shared));
    assert_eq!(decoded, shared_decoded, "{input:?}");
    (cost.max(shared_cost), decoded.is_ok())
}

/// A decoded cell is 16 bytes and takes at least one on the wire, and a
/// payload byte takes one: 16 B allocated per input byte is the bound.
const PER_INPUT_BYTE: usize = 16;
/// A refusal also formats one short error string.
const ERROR_STRING: usize = 256;

#[test]
fn decode_allocates_in_proportion_to_its_input_not_to_a_claimed_count() {
    let hostile: [&[u8]; 6] = [
        // The frame the fixed-width decoder answered with a 1 MiB
        // reservation before reporting "truncated".
        &[1, 0xff, 0xff],
        // The same claims as varints: 65 535 cells, 2^32 - 1 cells in a
        // snapshot, a 4 GiB payload, a 2^63-byte transfer chunk.
        &[1, 0xff, 0xff, 0x03],
        &[4, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f],
        &[0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f],
        &[
            5, 0, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
        ],
        // A count that fits the remaining bytes, which are not cells.
        &[1, 4, 0xff, 0xff, 0xff, 0xff],
    ];
    for input in hostile {
        let (cost, accepted) = decode_cost(input);
        assert!(!accepted, "{input:?}");
        assert!(
            cost <= PER_INPUT_BYTE * input.len() + ERROR_STRING,
            "{cost} B allocated refusing the {}-byte input {input:?}",
            input.len()
        );
    }

    // Accepted input meets the bound with no allowance at all, at the
    // densest encoding there is: one byte per lock-step cell.
    let row: Vec<Ack> = (0..60)
        .map(|ty| Ack {
            stream: NodeId(1),
            ty: AckTypeId(ty),
            seq: 7,
        })
        .collect();
    for msg in [
        WireMsg::AckBatch(row),
        WireMsg::Data {
            origin: NodeId(1),
            seq: 7,
            payload: vec![9u8; 500].into(),
        },
    ] {
        let bytes = msg.to_bytes();
        let (cost, accepted) = decode_cost(&bytes);
        assert!(accepted, "{msg:?}");
        assert!(
            cost <= PER_INPUT_BYTE * bytes.len(),
            "{cost} B allocated for {} input bytes of {msg:?}",
            bytes.len()
        );
    }
}

/// Bytes requested decoding `input` as a snapshot, and whether it was
/// accepted.
fn snapshot_cost(input: &[u8]) -> (usize, bool) {
    let (cost, decoded) = stabilizer_testalloc::cost(|| Snapshot::from_bytes(input));
    (cost, decoded.is_ok())
}

#[test]
fn a_snapshot_allocates_at_most_its_input_whatever_it_claims() {
    let mut recorder = AckRecorder::new(3, 2);
    recorder.observe(NodeId(0), NodeId(1), AckTypeId(0), 42);
    recorder.observe(NodeId(2), NodeId(0), AckTypeId(1), u64::MAX);
    let good = Snapshot {
        recorder,
        last_assigned: 99,
    }
    .to_bytes();
    let mut inputs = Vec::new();
    // Truncated anywhere, extended, and every single bit flipped.
    inputs.extend((0..good.len()).map(|cut| good[..cut].to_vec()));
    inputs.extend((1..=16).map(|extra| [&good[..], &vec![0xff; extra]].concat()));
    for bit in 0..8 * good.len() {
        let mut flipped = good.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        inputs.push(flipped);
    }
    // Dimensions that lie: 65 535 nodes and types, whose table would be
    // 2^51 bytes; another shape the table fits, and one it does not;
    // zero of either.
    for (nodes, types) in [
        (u16::MAX, u16::MAX),
        (1, 18),
        (6, 1),
        (0, 2),
        (3, 0),
        (1, 0),
    ] {
        let mut lying = good.clone();
        lying[6..8].copy_from_slice(&nodes.to_le_bytes());
        lying[8..10].copy_from_slice(&types.to_le_bytes());
        inputs.push(lying.clone());
        inputs.push(lying[..18].to_vec());
    }
    let mut accepted = 0;
    for input in &inputs {
        let (cost, ok) = snapshot_cost(input);
        accepted += usize::from(ok);
        assert!(
            cost <= input.len() + ERROR_STRING,
            "{cost} B allocated for the {}-byte snapshot {input:?}",
            input.len()
        );
    }
    // Flipped table and counter bits decode, as do the shapes that fit.
    assert!(accepted > 8 * (good.len() - 18), "{accepted} accepted");
    assert!(snapshot_cost(&good).1);
}
