//! Property tests for the transport framing layer: arbitrary messages
//! round-trip byte-exactly through the length-prefixed wire format, and
//! malformed streams — truncated, corrupted, oversized — are rejected
//! gracefully (an error or clean EOF, never a panic) without
//! desynchronizing the frames that preceded them. Every property runs
//! on both frame lanes (plain `()` and sharded `u16`), and golden byte
//! vectors pin the layout of each.

use bytes::Bytes;
use proptest::prelude::*;
use stabilizer_core::{Ack, NodeId, WireMsg};
use stabilizer_dsl::AckTypeId;
use stabilizer_transport::framing::{
    hello, read_frame, read_lane_frame, write_frame, write_lane_frame, Lane, MAX_FRAME,
};
use std::io::Cursor;

fn arb_wiremsg() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        (
            0u16..16,
            1u64..1_000_000,
            proptest::collection::vec(any::<u8>(), 0..2048)
        )
            .prop_map(|(origin, seq, payload)| WireMsg::Data {
                origin: NodeId(origin),
                seq,
                payload: Bytes::from(payload),
            }),
        proptest::collection::vec((0u16..16, 0u16..8, any::<u64>()), 0..24).prop_map(|acks| {
            WireMsg::AckBatch(
                acks.into_iter()
                    .map(|(s, t, q)| Ack {
                        stream: NodeId(s),
                        ty: AckTypeId(t),
                        seq: q,
                    })
                    .collect(),
            )
        }),
        Just(WireMsg::Heartbeat),
    ]
}

/// A lane the properties can draw: built from the `u16` every generated
/// frame carries (ignored by the plain lane).
trait TestLane: Lane + std::fmt::Debug {
    fn from_raw(raw: u16) -> Self;
}
impl TestLane for () {
    fn from_raw(_raw: u16) {}
}
impl TestLane for u16 {
    fn from_raw(raw: u16) -> u16 {
        raw
    }
}

type Frames = Vec<(u16, WireMsg)>;
type Case = Result<(), TestCaseError>;

fn arb_frames(min: usize, max: usize) -> impl Strategy<Value = Frames> {
    proptest::collection::vec((any::<u16>(), arb_wiremsg()), min..max)
}

/// Encode `frames` on lane `L`; returns the stream and every frame
/// boundary in it (starting with 0).
fn encode<L: TestLane>(frames: &Frames) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut boundaries = vec![0usize];
    for (raw, m) in frames {
        let wrote = write_lane_frame(&mut buf, L::from_raw(*raw), m).unwrap();
        assert_eq!(boundaries.last().unwrap() + wrote, buf.len());
        boundaries.push(buf.len());
    }
    (buf, boundaries)
}

/// The next `n` frames of `cur` are exactly `frames[..n]`.
fn expect_frames<L: TestLane>(cur: &mut Cursor<&[u8]>, frames: &Frames, n: usize) -> Case {
    for (raw, m) in frames.iter().take(n) {
        let (lane, got, _) = read_lane_frame::<L, _>(cur).unwrap().expect("a frame");
        prop_assert_eq!(lane, L::from_raw(*raw));
        prop_assert_eq!(&got, m);
    }
    Ok(())
}

fn roundtrip<L: TestLane>(frames: &Frames) -> Case {
    let (buf, _) = encode::<L>(frames);
    let mut cur = Cursor::new(&buf[..]);
    expect_frames::<L>(&mut cur, frames, frames.len())?;
    prop_assert!(read_lane_frame::<L, _>(&mut cur).unwrap().is_none());
    Ok(())
}

fn truncation<L: TestLane>(frames: &Frames, cut_ppm: u32) -> Case {
    let (buf, boundaries) = encode::<L>(frames);
    let cut = (buf.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
    let whole_frames = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
    let mut cur = Cursor::new(&buf[..cut]);
    expect_frames::<L>(&mut cur, frames, whole_frames)?;
    if cut > boundaries[whole_frames] {
        // Mid-frame cut: prefix-only reads as clean EOF, mid-body is
        // an error; either way no message is fabricated.
        match read_lane_frame::<L, _>(&mut cur) {
            Ok(None) | Err(_) => {}
            Ok(Some(m)) => prop_assert!(false, "fabricated message from a cut: {m:?}"),
        }
    } else {
        prop_assert!(read_lane_frame::<L, _>(&mut cur).unwrap().is_none());
    }
    Ok(())
}

fn corruption<L: TestLane>(frames: &Frames, victim_ppm: u32, byte_ppm: u32, flip: u8) -> Case {
    let (mut buf, boundaries) = encode::<L>(frames);
    let victim = (frames.len() as u64 * u64::from(victim_ppm) / 1_000_000) as usize;
    let (start, end) = (boundaries[victim], boundaries[victim + 1]);
    // Corrupt a body byte (offset >= 4 skips the length prefix, so
    // framing stays aligned and the damage is the decoder's to catch;
    // on the sharded lane the lane index is fair game too).
    let body = end - start - 4;
    let off = start + 4 + (body as u64 * u64::from(byte_ppm) / 1_000_000) as usize;
    let off = off.min(end - 1);
    buf[off] ^= flip;
    let mut cur = Cursor::new(&buf[..]);
    expect_frames::<L>(&mut cur, frames, victim)?;
    // The victim frame either errors out or decodes to *something*
    // (a flipped payload byte is still a valid message); both are
    // acceptable — the property is no panic and no upstream damage.
    let _ = read_lane_frame::<L, _>(&mut cur);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of messages round-trips through a frame stream, in
    /// order, ending with a clean EOF.
    #[test]
    fn frame_streams_roundtrip(frames in arb_frames(1, 12)) {
        roundtrip::<()>(&frames)?;
        roundtrip::<u16>(&frames)?;
    }

    /// Truncating a valid stream anywhere never panics: every frame
    /// fully inside the cut still decodes, and the cut itself reads as
    /// a clean EOF (truncated prefix) or an error (truncated body) —
    /// never as a bogus message.
    #[test]
    fn truncation_never_panics_or_fabricates(
        frames in arb_frames(1, 8),
        cut_ppm in 0u32..1_000_000,
    ) {
        truncation::<()>(&frames, cut_ppm)?;
        truncation::<u16>(&frames, cut_ppm)?;
    }

    /// Corrupting one byte of a frame body never panics, and every frame
    /// *before* the corrupted one still decodes (no desync upstream).
    #[test]
    fn corruption_is_contained_to_its_frame(
        frames in arb_frames(2, 8),
        victim_ppm in 0u32..1_000_000,
        byte_ppm in 0u32..1_000_000,
        flip in 1u8..=255,
    ) {
        corruption::<()>(&frames, victim_ppm, byte_ppm, flip)?;
        corruption::<u16>(&frames, victim_ppm, byte_ppm, flip)?;
    }

    /// A length prefix beyond the limit is rejected before any
    /// allocation of that size is attempted.
    #[test]
    fn oversized_prefix_is_rejected(extra in 1u32..u32::MAX - MAX_FRAME) {
        let mut buf = (MAX_FRAME + extra).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        prop_assert!(read_lane_frame::<(), _>(&mut Cursor::new(&buf)).is_err());
        prop_assert!(read_lane_frame::<u16, _>(&mut Cursor::new(&buf)).is_err());
    }

    /// Arbitrary garbage bytes never panic the reader.
    #[test]
    fn arbitrary_bytes_never_panic(junk in proptest::collection::vec(any::<u8>(), 0..4096)) {
        // Drain until EOF or error; only termination matters.
        let mut cur = Cursor::new(&junk);
        while let Ok(Some(_)) = read_lane_frame::<(), _>(&mut cur) {}
        let mut cur = Cursor::new(&junk);
        while let Ok(Some(_)) = read_lane_frame::<u16, _>(&mut cur) {}
    }
}

/// The wire layout, pinned byte for byte: `[len u32 LE][lane][body]`,
/// where `len` counts lane and body, the plain lane is empty and the
/// sharded lane is the shard index as `u16` LE (hello: `0xFFFF`).
#[test]
fn golden_frames_pin_the_layout_of_both_lanes() {
    let data = WireMsg::Data {
        origin: NodeId(2),
        seq: 5,
        payload: Bytes::from_static(b"xyz"),
    };
    let acks = WireMsg::AckBatch(vec![Ack {
        stream: NodeId(1),
        ty: AckTypeId(0),
        seq: 9,
    }]);
    // Message bodies as `WireMsg::encode` lays them out: tag, then one
    // varint per field — origin, seq, payload length, payload; cell
    // count, then the cell's head (`ty << 2`, nothing repeated), stream
    // and seq.
    let data_body: &[u8] = &[0, 2, 5, 3, b'x', b'y', b'z'];
    let acks_body: &[u8] = &[1, 1, 0, 1, 9];
    let hello_body: &[u8] = &[0, 6, 0, 0];
    let frame = |lane: &[u8], body: &[u8]| {
        let mut f = ((lane.len() + body.len()) as u32).to_le_bytes().to_vec();
        f.extend_from_slice(lane);
        f.extend_from_slice(body);
        f
    };
    for (msg, body) in [
        (&data, data_body),
        (&acks, acks_body),
        (&hello(6), hello_body),
    ] {
        let mut encoded = Vec::new();
        msg.encode(&mut encoded);
        assert_eq!(encoded, body, "{msg:?}");
    }

    let mut plain = Vec::new();
    write_frame(&mut plain, &data).unwrap();
    write_frame(&mut plain, &acks).unwrap();
    write_lane_frame(&mut plain, <() as Lane>::HELLO, &hello(6)).unwrap();
    let expected = [
        frame(&[], data_body),
        frame(&[], acks_body),
        frame(&[], hello_body),
    ]
    .concat();
    assert_eq!(plain, expected);
    assert_eq!(&plain[..4], &[7, 0, 0, 0]);
    let mut cur = Cursor::new(&plain);
    assert_eq!(read_frame(&mut cur).unwrap(), Some(data.clone()));

    let mut sharded = Vec::new();
    write_lane_frame(&mut sharded, 3u16, &data).unwrap();
    write_lane_frame(&mut sharded, 0x0102u16, &acks).unwrap();
    write_lane_frame(&mut sharded, <u16 as Lane>::HELLO, &hello(6)).unwrap();
    let expected = [
        frame(&[3, 0], data_body),
        frame(&[0x02, 0x01], acks_body),
        frame(&[0xFF, 0xFF], hello_body),
    ]
    .concat();
    assert_eq!(sharded, expected);
    assert_eq!(&sharded[..6], &[9, 0, 0, 0, 3, 0]);
}
