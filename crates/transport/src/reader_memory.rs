//! What the two framing readers hold and allocate, measured with the
//! workspace's counting allocator, which this crate's unit tests install.
//!
//! A length prefix is a number the sender wrote, and a reader must not
//! allocate for it ahead of the bytes that actually arrive: a stranger
//! that announces `MAX_FRAME` and then stalls may make a connection hold
//! what it sent, twice over, plus read buffers — not 16 MiB. Both
//! readers are held to that, on hostile prefixes and on honest large
//! frames, by sampling this thread's live heap bytes at every `read`
//! they make: what a reader holds while it waits for its peer. And what
//! a peer makes `FrameReader` allocate, or pin under the payloads it
//! hands over, stays linear in the bytes that peer sent.

use crate::framing::{read_lane_frame, write_lane_frame, FrameReader, Lane, MAX_FRAME, READ_BUF};
use stabilizer_core::{NodeId, WireMsg};
use stabilizer_testalloc::{cost, live};
use std::io::Read;

#[global_allocator]
static ALLOC: stabilizer_testalloc::Counting = stabilizer_testalloc::Counting;

/// A peer that hands out its bytes at most `chunk` per `read`, noting
/// the most heap this thread held above `base` at any of them.
struct Peer<'a> {
    bytes: &'a [u8],
    chunk: usize,
    base: isize,
    held: isize,
}

impl<'a> Peer<'a> {
    fn new(bytes: &'a [u8], chunk: usize) -> Self {
        Peer {
            bytes,
            chunk,
            base: live(),
            held: 0,
        }
    }
}

impl Read for Peer<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.held = self.held.max(live() - self.base);
        let n = buf.len().min(self.chunk).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// The most each reader held while reading `input` to its end, the
/// messages it handed over kept: `[FrameReader, read_lane_frame]`.
fn held<L: Lane>(input: &[u8], chunk: usize) -> [isize; 2] {
    let mut frames: Vec<(L, WireMsg)> = Vec::new();
    let mut peer = Peer::new(input, chunk);
    let mut reader = FrameReader::new(&mut peer);
    while let Ok(1..) = reader.read_batch(&mut frames) {}
    drop((reader, frames));
    let by_batches = peer.held;

    let mut frames = Vec::new();
    let mut peer = Peer::new(input, chunk);
    while let Ok(Some(frame)) = read_lane_frame::<L, _>(&mut peer) {
        frames.push(frame);
    }
    drop(frames);
    [by_batches, peer.held]
}

fn check<L: Lane>(input: &[u8]) {
    let bound = (2 * input.len() + 2 * READ_BUF) as isize;
    for chunk in [1000, usize::MAX] {
        let [batches, frames] = held::<L>(input, chunk);
        for (reader, held) in [("FrameReader", batches), ("read_lane_frame", frames)] {
            assert!(
                held <= bound,
                "{reader} held {held} B reading {} B in {chunk}-byte reads",
                input.len()
            );
        }
    }
}

/// A prefix announcing `announced` body bytes, and `sent` of them.
fn hostile(announced: u32, sent: usize) -> Vec<u8> {
    let mut bytes = announced.to_le_bytes().to_vec();
    bytes.resize(4 + sent, 0);
    bytes
}

fn honest<L: Lane>(lane: L, payload: usize) -> Vec<u8> {
    let msg = WireMsg::Data {
        origin: NodeId(1),
        seq: 7,
        payload: vec![7u8; payload].into(),
    };
    let mut bytes = Vec::new();
    write_lane_frame(&mut bytes, lane, &msg).unwrap();
    bytes
}

#[test]
fn a_prefix_costs_what_its_sender_sent_not_what_it_announced() {
    // 104 bytes announcing 16 MiB: at one time both readers asked for
    // all of it, zeroed, before reading on.
    for input in [
        hostile(MAX_FRAME, 100),
        hostile(MAX_FRAME, 3 * READ_BUF + 1),
        hostile(MAX_FRAME, 100_000),
        hostile(5 * READ_BUF as u32, 2 * READ_BUF),
    ] {
        check::<()>(&input);
        check::<u16>(&input);
    }
}

#[test]
fn honest_large_frames_meet_the_same_bound() {
    for payload in [READ_BUF, 64 * 1024] {
        let two = [honest((), payload), honest((), payload / 2 + READ_BUF)].concat();
        check::<()>(&two);
        check::<u16>(&honest(3u16, payload));
    }
}

#[test]
fn a_backlog_behind_a_large_frame_costs_its_bytes_and_pins_none_of_its_buffer() {
    // The 1 MiB frame leaves the reader a buffer of its size, and the
    // hundred 9 KiB frames behind it all arrive in one read into that
    // buffer. Each of them must cost, and pin, about its own size.
    let input = [honest((), 1 << 20), honest((), 9 * 1024).repeat(100)].concat();
    let mut frames: Vec<((), WireMsg)> = Vec::with_capacity(101);
    let mut peer = Peer::new(&input, usize::MAX);
    let (requested, ()) = cost(|| {
        let mut reader = FrameReader::new(&mut peer);
        while let Ok(1..) = reader.read_batch(&mut frames) {}
    });
    assert_eq!(frames.len(), 101);
    assert!(
        requested <= 4 * input.len(),
        "reading {} B requested {requested} B",
        input.len()
    );
    for (i, ((), msg)) in frames.drain(..).enumerate() {
        let frame = write_lane_frame(&mut std::io::sink(), (), &msg).unwrap();
        let before = live();
        drop(msg);
        let pinned = before - live();
        assert!(
            pinned <= 2 * frame as isize,
            "frame {i} ({frame} B) pinned {pinned} B"
        );
    }
}
