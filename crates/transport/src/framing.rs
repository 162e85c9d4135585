//! Length-prefixed framing over TCP streams.
//!
//! Frame layout: `u32` little-endian length, then the [`Lane`] (nothing
//! on a plain node, a `u16` shard index on a sharded one), then
//! the encoded [`WireMsg`]; the length covers lane and message. The
//! first frame on every outbound connection is a hello carrying the
//! sender's node id, so the accepting side can demultiplex peers without
//! configuration-order coupling.
//!
//! A connection's reader (`FrameReader`) copies a payload out of its
//! 8 KiB read buffer if the frame fits that buffer; a larger frame is
//! read into a buffer of its own, which then becomes the message's
//! payload without a copy. A run of equal large frames is read several
//! at a time — one vectored read into one more such buffer than the last
//! such read filled, up to one write burst — and leaves as one batch.
//! Neither reader allocates ahead of the bytes it was sent: a buffer
//! grows as they arrive, whatever size a length prefix announces.

use crate::link::WRITE_BUF;
use bytes::{Bytes, BytesMut};
use stabilizer_core::{CoreError, WireMsg};
use std::io::{IoSliceMut, Read, Write};

/// Maximum accepted frame size (1 GiB would be absurd for a control or
/// 64 KiB-capped data message; this guards against corrupt prefixes).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// The demultiplexing tag between a frame's length prefix and its body.
///
/// Two lanes exist: `()` — no tag, a plain node's `[len][body]` frame —
/// and `u16` — a sharded node's `[len][shard][body]` frame,
/// shard index little-endian and counted by `len`.
pub trait Lane: Copy + Eq + Send + 'static {
    /// The lane every connection's first frame, the hello, travels on.
    const HELLO: Self;
    /// Append this lane's wire bytes to a frame head.
    fn put(self, head: &mut Vec<u8>);
    /// Split a frame body into its lane and the encoded message; `None`
    /// when the body is too short to carry a lane.
    fn split(body: &[u8]) -> Option<(Self, &[u8])>;
}

impl Lane for () {
    const HELLO: Self = ();
    fn put(self, _head: &mut Vec<u8>) {}
    fn split(body: &[u8]) -> Option<(Self, &[u8])> {
        Some(((), body))
    }
}

impl Lane for u16 {
    /// Sentinel shard index: no real shard can have it.
    const HELLO: Self = u16::MAX;
    fn put(self, head: &mut Vec<u8>) {
        head.extend_from_slice(&self.to_le_bytes());
    }
    fn split(body: &[u8]) -> Option<(Self, &[u8])> {
        let (lane, rest) = body.split_first_chunk::<2>()?;
        Some((u16::from_le_bytes(*lane), rest))
    }
}

/// Write one frame on `lane`, returning the number of bytes put on the
/// wire (length prefix included) so the transport can account traffic.
///
/// Data payloads are written straight from their shared buffer: only the
/// length prefix, the lane and the message header (a tag and three
/// varints, 4–5 bytes at a typical sequence number) are materialized, so a payload fanned out to N peers is **not** copied
/// into N contiguous scratch buffers first. Pair with a buffered writer
/// to keep the prefix+payload pair in one TCP segment for small messages.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_lane_frame<L: Lane, W: Write>(
    w: &mut W,
    lane: L,
    msg: &WireMsg,
) -> std::io::Result<usize> {
    write_lane_frame_with(w, &mut Vec::with_capacity(4 + 2 + 32), lane, msg)
}

/// [`write_lane_frame`] with the frame head built in `head`, a scratch
/// buffer the connection owns (cleared here, contents meaningless after).
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub(crate) fn write_lane_frame_with<L: Lane, W: Write>(
    w: &mut W,
    head: &mut Vec<u8>,
    lane: L,
    msg: &WireMsg,
) -> std::io::Result<usize> {
    // Reserve the length prefix, encode lane and body prefix after it,
    // then patch the real length in — one small buffer, no payload bytes.
    head.clear();
    head.extend_from_slice(&[0u8; 4]);
    lane.put(head);
    let payload = msg.encode_prefix(head);
    let body_len = head.len() - 4 + payload.map_or(0, bytes::Bytes::len);
    head[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    w.write_all(head)?;
    if let Some(p) = payload {
        w.write_all(p)?;
    }
    Ok(4 + body_len)
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary. Returns
/// `(lane, message, wire_bytes)`, the length prefix counted.
///
/// # Errors
///
/// I/O errors, oversized frames, bodies too short for the lane, or
/// undecodable bodies.
pub fn read_lane_frame<L: Lane, R: Read>(
    r: &mut R,
) -> std::io::Result<Option<(L, WireMsg, usize)>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = body_len(len_buf)?;
    // Grown as the body arrives, not sized by what the prefix claims.
    let mut body = Vec::with_capacity(len.min(READ_BUF));
    if r.by_ref().take(len as u64).read_to_end(&mut body)? < len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let (lane, msg) = decode_body(&body)?;
    Ok(Some((lane, msg, 4 + len)))
}

fn invalid(why: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why)
}

fn undecodable(e: CoreError) -> std::io::Error {
    invalid(e.to_string())
}

/// The body length a frame's prefix announces, refused above [`MAX_FRAME`].
fn body_len(prefix: [u8; 4]) -> std::io::Result<usize> {
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Err(invalid(format!("frame of {len} bytes exceeds limit")));
    }
    Ok(len as usize)
}

/// Split a frame body into its lane and the encoded message.
fn split_lane<L: Lane>(body: &[u8]) -> std::io::Result<(L, &[u8])> {
    L::split(body).ok_or_else(|| invalid("frame lacks its lane index".to_owned()))
}

/// Split a frame body into its lane and decoded message.
fn decode_body<L: Lane>(body: &[u8]) -> std::io::Result<(L, WireMsg)> {
    let (lane, encoded) = split_lane(body)?;
    Ok((lane, WireMsg::decode(encoded).map_err(undecodable)?))
}

/// [`decode_body`] of a body in a shared buffer: the payload is a slice
/// of `body`, not a copy.
fn decode_shared_body<L: Lane>(body: &Bytes) -> std::io::Result<(L, WireMsg)> {
    let (lane, encoded) = split_lane(body)?;
    let encoded = body.slice(body.len() - encoded.len()..);
    Ok((lane, WireMsg::decode_shared(&encoded).map_err(undecodable)?))
}

/// Capacity of a connection's read buffer: the bound on one reader
/// batch of small frames, and the largest frame whose payload is always
/// copied out. Small on purpose: about ninety 64-byte messages share a
/// read, while a larger frame is read into a buffer of its own that
/// becomes its payload, so what a large message costs does not depend
/// on how far behind the reader runs (with a 64 KiB buffer it did, and
/// the benchmark's runs spread past their bound: EXPERIMENTS.md,
/// "Steadiness under host steal"). Large frames share a read only as a
/// run, each in its own buffer.
pub(crate) const READ_BUF: usize = 8 * 1024;

/// The most buffers a run read fills: one write burst of frames just
/// larger than [`READ_BUF`].
const MAX_RUN: usize = WRITE_BUF / (READ_BUF + 1);

/// A connection's read side: one buffer the connection owns, filled by
/// one blocking read at a time, with every frame that read completed
/// decoded out of it; a batch is bounded by what one read took in, not
/// by a count or a clock.
///
/// A frame that fits [`READ_BUF`] needs no buffer of its own: its
/// payload is copied out of the shared one, so a value an application
/// keeps never pins it. A larger one is read into a buffer
/// grown for it — a full buffer at most doubles, and never past what the
/// frame's prefix announced. Once it is complete at the front of a
/// buffer less than twice its size, the buffer is frozen into the
/// message and the payload is a slice of it: no copy, and one
/// allocation, the fresh buffer of the frame's size that takes its
/// place. In a larger buffer (one left by a much larger frame) it is
/// copied out instead, so no payload pins more than twice its frame,
/// and the buffer then shrinks to what comes next.
///
/// After a large frame is handed over the buffer is empty at a frame
/// boundary, and the next read is a **run read**: one vectored read into
/// it and up to k − 1 spare buffers of its size, every one the read
/// fills with one whole frame of that size frozen into that frame's
/// payload, and all of them one batch. k is one more than the last run
/// read filled — so the spares held never outnumber the frames the peer
/// last proved it sends back to back — and at most one write burst
/// ([`WRITE_BUF`]) of frames.
pub(crate) struct FrameReader<R> {
    r: R,
    /// `buf[start..end]` is read but not yet decoded. [`READ_BUF`] long
    /// except while frames larger than that arrive.
    buf: BytesMut,
    start: usize,
    end: usize,
    /// Empty buffers a run read fills behind `buf`, each `buf`'s size.
    spares: Vec<BytesMut>,
    /// Buffers the next run read is given, before the cap: one more
    /// than the last one filled with whole frames.
    run: usize,
}

impl<R: Read> FrameReader<R> {
    pub(crate) fn new(r: R) -> Self {
        FrameReader {
            r,
            buf: BytesMut::zeroed(READ_BUF),
            start: 0,
            end: 0,
            spares: Vec::new(),
            run: 1,
        }
    }

    /// The connection read from.
    pub(crate) fn get_ref(&self) -> &R {
        &self.r
    }

    /// The connection read from, to read it past the framing.
    pub(crate) fn get_mut(&mut self) -> &mut R {
        &mut self.r
    }

    /// Block until at least one frame is complete, then append **every**
    /// frame that read completed to `out`, in order, and return their
    /// wire size (length prefixes included). Never blocks again once it
    /// has a frame to hand over. `Ok(0)`: the peer closed the connection
    /// (a frame cut short by that is dropped).
    ///
    /// # Errors
    ///
    /// I/O errors, oversized frames, bodies too short for the lane, or
    /// undecodable bodies. Frames ahead of a bad one are handed over
    /// first; the call after that meets it again and fails. On a
    /// non-blocking connection `WouldBlock` means no frame is complete
    /// yet; what was read is kept for the next call.
    pub(crate) fn read_batch<L: Lane>(
        &mut self,
        out: &mut Vec<(L, WireMsg)>,
    ) -> std::io::Result<usize> {
        let mut wire_len = 0;
        loop {
            let cut_short = self.decode_complete(out, &mut wire_len);
            if wire_len > 0 {
                return Ok(wire_len);
            }
            self.make_room(cut_short?);
            let n = if self.end == 0 && self.buf.len() > READ_BUF {
                self.read_run(out, &mut wire_len)?
            } else {
                let n = self.r.read(&mut self.buf[self.end..])?;
                self.end += n;
                n
            };
            if n == 0 {
                return Ok(0);
            }
        }
    }

    /// The run read: one vectored read into the empty buffer and the
    /// spares behind it. Each buffer it filled with one whole frame of
    /// its size is handed over into `out` as that frame, its wire size
    /// added to `wire_len`; the first that is not continues as the
    /// buffer, with the bytes read behind it copied in. Returns the
    /// bytes read.
    fn read_run<L: Lane>(
        &mut self,
        out: &mut Vec<(L, WireMsg)>,
        wire_len: &mut usize,
    ) -> std::io::Result<usize> {
        let size = self.buf.len();
        let cap = (WRITE_BUF / size).max(1);
        let k = self.run.min(cap);
        self.spares.retain(|spare| spare.len() == size);
        self.spares.truncate(k - 1);
        while self.spares.len() < k - 1 {
            self.spares.push(BytesMut::zeroed(size));
        }
        let n = {
            let mut slices = [(); MAX_RUN].map(|()| IoSliceMut::new(&mut []));
            let bufs = std::iter::once(&mut self.buf).chain(&mut self.spares);
            for (slice, buf) in slices.iter_mut().zip(bufs) {
                *slice = IoSliceMut::new(buf);
            }
            self.r.read_vectored(&mut slices[..k])?
        };
        let prefix = ((size - 4) as u32).to_le_bytes();
        let mut filled = 0;
        while (filled + 1) * size <= n && self.buf.starts_with(&prefix) {
            let next = if self.spares.is_empty() {
                BytesMut::zeroed(size)
            } else {
                self.spares.remove(0)
            };
            let frame = std::mem::replace(&mut self.buf, next).freeze();
            match decode_shared_body(&frame.slice(4..)) {
                Ok(msg) => out.push(msg),
                Err(_) => {
                    // Put back whole, for the next call to meet again.
                    let mut back = BytesMut::zeroed(size);
                    back.copy_from_slice(&frame);
                    self.spares
                        .insert(0, std::mem::replace(&mut self.buf, back));
                    break;
                }
            }
            *wire_len += size;
            filled += 1;
        }
        self.end = n - filled * size;
        if self.end > size {
            let mut buf = BytesMut::zeroed(self.end);
            let read = std::iter::once(&self.buf).chain(&self.spares);
            for (to, from) in buf.chunks_mut(size).zip(read) {
                to.copy_from_slice(&from[..to.len()]);
            }
            self.buf = buf;
        }
        self.run = (filled + 1).min(cap);
        self.spares.truncate(self.run - 1);
        Ok(n)
    }

    /// Decode the complete frames at the front of the buffer into `out`,
    /// adding their wire size to `wire_len`; returns the full size of
    /// the frame cut short behind them (0 while its prefix is not here).
    fn decode_complete<L: Lane>(
        &mut self,
        out: &mut Vec<(L, WireMsg)>,
        wire_len: &mut usize,
    ) -> std::io::Result<usize> {
        while let Some(prefix) = self.buf[self.start..self.end].first_chunk::<4>() {
            let frame_len = 4 + body_len(*prefix)?;
            let frame_end = self.start + frame_len;
            if frame_end > self.end {
                return Ok(frame_len);
            }
            if self.start == 0 && frame_len > READ_BUF && self.buf.len() < 2 * frame_len {
                out.push(self.hand_over(frame_len)?);
            } else {
                out.push(decode_body(&self.buf[self.start + 4..frame_end])?);
                self.start = frame_end;
            }
            *wire_len += frame_len;
        }
        Ok(0)
    }

    /// Freeze the buffer into the message of the `frame_len`-byte frame
    /// at its front, and put in its place a fresh one of that size
    /// holding the bytes read past the frame (fewer than `frame_len`: the
    /// buffer is less than twice the frame). A frame that does not
    /// decode is put back whole instead, so the next call meets it again.
    fn hand_over<L: Lane>(&mut self, frame_len: usize) -> std::io::Result<(L, WireMsg)> {
        let mut keep = frame_len..self.end;
        let frame = std::mem::replace(&mut self.buf, BytesMut::zeroed(frame_len)).freeze();
        let decoded = decode_shared_body(&frame.slice(4..frame_len));
        if decoded.is_err() {
            keep = 0..self.end;
            self.buf = BytesMut::zeroed(frame.len());
        }
        self.end = keep.len();
        self.buf[..self.end].copy_from_slice(&frame[keep]);
        decoded
    }

    /// Move the undecoded tail to the front of a buffer with room for
    /// the `pending`-byte frame cut short there (0 while its prefix is
    /// not here). A full buffer grows for a larger frame, at most
    /// doubling. A buffer that has just handed frames over by copying
    /// them out (`start > 0`) shrinks to what it holds and awaits, at
    /// least [`READ_BUF`], if that is `READ_BUF` or under half of it: a
    /// buffer grown for one frame is not kept for much smaller ones.
    fn make_room(&mut self, pending: usize) {
        let tail = self.start..self.end;
        let len = self.buf.len();
        let need = pending.max(tail.len()).max(READ_BUF);
        let new_len = if self.end == len && pending > len {
            pending.min(2 * len)
        } else if self.start > 0 && len > need && (need == READ_BUF || len > 2 * need) {
            need
        } else {
            len
        };
        self.end = tail.len();
        self.start = 0;
        if new_len == len {
            if tail.start > 0 {
                self.buf.copy_within(tail, 0);
            }
        } else {
            let mut buf = BytesMut::zeroed(new_len);
            buf[..self.end].copy_from_slice(&self.buf[tail]);
            self.buf = buf;
        }
    }
}

/// Write one plain (`()`-lane) frame; see [`write_lane_frame`].
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, msg: &WireMsg) -> std::io::Result<usize> {
    write_lane_frame(w, (), msg)
}

/// Read one plain frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// I/O errors, oversized frames, or undecodable bodies.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<WireMsg>> {
    Ok(read_lane_frame::<(), R>(r)?.map(|((), msg, _)| msg))
}

/// Encode a hello frame announcing `node_id` (a zero-length `Data`
/// message is reserved for this; real data always has `seq >= 1`).
pub fn hello(node_id: u16) -> WireMsg {
    WireMsg::Data {
        origin: stabilizer_core::NodeId(node_id),
        seq: 0,
        payload: bytes::Bytes::new(),
    }
}

/// If `msg` is a hello, return the announced node id.
pub fn parse_hello(msg: &WireMsg) -> Option<u16> {
    match msg {
        WireMsg::Data {
            origin,
            seq: 0,
            payload,
        } if payload.is_empty() => Some(origin.0),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use stabilizer_core::NodeId;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let msgs = vec![
            WireMsg::Heartbeat,
            WireMsg::Data {
                origin: NodeId(2),
                seq: 5,
                payload: Bytes::from_static(b"xyz"),
            },
            WireMsg::AckBatch(vec![]),
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for m in &msgs {
            assert_eq!(read_frame(&mut cur).unwrap().as_ref(), Some(m));
        }
        assert_eq!(read_frame(&mut cur).unwrap(), None);
    }

    #[test]
    fn clean_eof_mid_prefix_is_none_mid_body_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMsg::Heartbeat).unwrap();
        let mut cur = Cursor::new(&buf[..2]); // truncated length prefix
        assert!(cur.get_ref().len() < 4);
        assert!(read_frame(&mut cur).unwrap().is_none());
        let mut cur = Cursor::new(&buf[..4]); // prefix but no body
        assert!(read_frame(&mut cur).is_err());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn wire_sizes_match_both_directions() {
        let msg = WireMsg::Data {
            origin: NodeId(1),
            seq: 3,
            payload: Bytes::from_static(b"hello"),
        };
        let mut buf = Vec::new();
        let wrote = write_frame(&mut buf, &msg).unwrap();
        assert_eq!(wrote, buf.len());
        let read = read_lane_frame(&mut Cursor::new(buf)).unwrap();
        let ((), got, read) = read.expect("a frame");
        assert_eq!(got, msg);
        assert_eq!(read, wrote);
    }

    #[test]
    fn shard_frames_roundtrip() {
        let msgs = vec![
            (0u16, WireMsg::Heartbeat),
            (
                3,
                WireMsg::Data {
                    origin: NodeId(1),
                    seq: 9,
                    payload: Bytes::from_static(b"payload"),
                },
            ),
            (<u16 as Lane>::HELLO, hello(4)),
        ];
        let mut buf = Vec::new();
        let mut sizes = Vec::new();
        for (shard, m) in &msgs {
            sizes.push(write_lane_frame(&mut buf, *shard, m).unwrap());
        }
        let mut cur = Cursor::new(buf);
        for ((shard, m), wrote) in msgs.iter().zip(sizes) {
            let (s, got, read) = read_lane_frame::<u16, _>(&mut cur).unwrap().unwrap();
            assert_eq!(s, *shard);
            assert_eq!(&got, m);
            assert_eq!(read, wrote);
        }
        assert!(read_lane_frame::<u16, _>(&mut cur).unwrap().is_none());
    }

    #[test]
    fn shard_frame_without_index_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0);
        assert!(read_lane_frame::<u16, _>(&mut Cursor::new(buf)).is_err());
    }

    /// A connection that hands out exactly the scripted chunks, one per
    /// `read` (a chunk larger than the caller's buffer is cut there).
    struct Script(std::collections::VecDeque<Vec<u8>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(mut chunk) = self.0.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.0.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    fn data(seq: u64, len: usize) -> WireMsg {
        WireMsg::Data {
            origin: NodeId(1),
            seq,
            payload: Bytes::from(vec![seq as u8; len]),
        }
    }

    fn wire(msgs: &[WireMsg]) -> Vec<u8> {
        let mut buf = Vec::new();
        for m in msgs {
            write_frame(&mut buf, m).unwrap();
        }
        buf
    }

    /// Drain `reader`: every batch it hands over, with its wire size.
    fn batches(reader: &mut FrameReader<Script>) -> Vec<(Vec<WireMsg>, usize)> {
        let mut out = Vec::new();
        loop {
            let mut frames: Vec<((), WireMsg)> = Vec::new();
            match reader.read_batch(&mut frames).unwrap() {
                0 => return out,
                n => out.push((frames.into_iter().map(|((), m)| m).collect(), n)),
            }
        }
    }

    #[test]
    fn a_batch_is_what_one_read_completed() {
        let msgs: Vec<WireMsg> = (1..=5).map(|seq| data(seq, 10)).collect();
        let bytes = wire(&msgs);
        let frame = bytes.len() / 5;
        // Two frames and half of the third; its rest; the last two.
        let cuts = [0, 2 * frame + frame / 2, 3 * frame, 5 * frame];
        let script = cuts
            .windows(2)
            .map(|w| bytes[w[0]..w[1]].to_vec())
            .collect();
        let got = batches(&mut FrameReader::new(Script(script)));
        let want = [&msgs[..2], &msgs[2..3], &msgs[3..]];
        assert_eq!(got.len(), 3);
        for ((frames, wire_len), want) in got.iter().zip(want) {
            assert_eq!(frames, want);
            assert_eq!(*wire_len, want.len() * frame);
        }
    }

    #[test]
    fn frames_survive_any_fragmentation() {
        let msgs = vec![
            data(1, 0),
            WireMsg::Heartbeat,
            data(2, 300),
            WireMsg::AckBatch(vec![]),
        ];
        let bytes = wire(&msgs);
        for step in [1, 3, 7, bytes.len()] {
            let script = bytes.chunks(step).map(<[u8]>::to_vec).collect();
            let got = batches(&mut FrameReader::new(Script(script)));
            let frames: Vec<WireMsg> = got.into_iter().flat_map(|(f, _)| f).collect();
            assert_eq!(frames, msgs, "{step}-byte reads");
        }
    }

    /// The next batch `reader` hands over.
    fn next_batch<R: Read>(reader: &mut FrameReader<R>) -> Vec<WireMsg> {
        let mut frames: Vec<((), WireMsg)> = Vec::new();
        reader.read_batch(&mut frames).unwrap();
        frames.into_iter().map(|((), m)| m).collect()
    }

    #[test]
    fn a_frame_larger_than_the_buffer_is_assembled_then_the_buffer_shrinks_back() {
        let msgs = [data(1, 10), data(2, 3 * READ_BUF), data(3, 10)];
        let script = [wire(&msgs[..2]), wire(&msgs[2..])].into_iter().collect();
        let mut reader = FrameReader::new(Script(script));
        assert_eq!(
            next_batch(&mut reader),
            msgs[..1],
            "the small frame did not wait for the big one"
        );
        assert_eq!(next_batch(&mut reader), msgs[1..2]);
        let big = wire(&msgs[1..2]).len();
        assert_eq!(reader.buf.len(), big, "replaced by a buffer of its size");
        assert_eq!(next_batch(&mut reader), msgs[2..]);
        assert_eq!(reader.buf.len(), big);
        // Having handed over a frame that fits, it shrinks before reading on.
        assert_eq!(next_batch(&mut reader), []);
        assert_eq!(reader.buf.len(), READ_BUF);
    }

    #[test]
    fn a_buffer_left_by_a_much_larger_frame_shrinks_to_the_next_ones() {
        let msgs = [
            data(1, 16 * READ_BUF),
            data(2, READ_BUF + 800),
            data(3, READ_BUF + 800),
        ];
        let bytes = wire(&msgs);
        let (first, next) = (wire(&msgs[..1]).len(), wire(&msgs[1..2]).len());
        // The large frame; the next one and half the last; the rest.
        let cuts = [0, first, bytes.len() - next / 2, bytes.len()];
        let script = cuts
            .windows(2)
            .map(|w| bytes[w[0]..w[1]].to_vec())
            .collect();
        let mut reader = FrameReader::new(Script(script));
        assert_eq!(next_batch(&mut reader), msgs[..1]);
        assert_eq!(reader.buf.len(), first);
        // Copied out of a buffer that large, so it pins none of it.
        assert_eq!(next_batch(&mut reader), msgs[1..2]);
        // Shrunk to the frame cut short before reading the rest of it.
        assert_eq!(next_batch(&mut reader), msgs[2..]);
        assert_eq!(reader.buf.len(), next);
    }

    /// A connection that counts the `read` calls made of it.
    struct Counted(Script, usize);

    impl Read for Counted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 += 1;
            self.0.read(buf)
        }
    }

    #[test]
    fn a_large_frame_is_one_read_and_its_payload_is_the_buffer_it_was_read_into() {
        let msgs: Vec<WireMsg> = (1..=20).map(|seq| data(seq, READ_BUF)).collect();
        let frame = wire(&msgs[..1]).len();
        let script = msgs.iter().map(|m| wire(std::slice::from_ref(m)));
        let mut reader = FrameReader::new(Counted(Script(script.collect()), 0));
        for (i, msg) in msgs.iter().enumerate() {
            let (reads, buf) = (reader.r.1, reader.buf.as_ptr());
            let got = next_batch(&mut reader);
            assert_eq!(got, std::slice::from_ref(msg));
            // The first frame fills READ_BUF, which grows once, to the
            // frame's size, for a second read to finish it; from then on
            // one read brings one frame into a buffer that becomes it.
            if i == 0 {
                assert_eq!(reader.r.1 - reads, 2);
                continue;
            }
            assert_eq!(reader.r.1 - reads, 1, "frame {i}");
            let [WireMsg::Data { payload, .. }] = &got[..] else {
                unreachable!()
            };
            let at = buf.wrapping_add(frame - READ_BUF);
            assert_eq!(payload.as_ptr(), at, "frame {i}'s payload was copied");
        }
    }

    /// A [`Script`] read the way a socket's `readv` reads: each read
    /// fills the buffers it is given in turn, up to the end of its
    /// chunk. It counts the reads made of it and notes where every
    /// buffer it wrote into starts.
    struct Vectored {
        script: Script,
        reads: usize,
        starts: Vec<*const u8>,
    }

    impl Vectored {
        fn new(chunks: impl IntoIterator<Item = Vec<u8>>) -> Self {
            Vectored {
                script: Script(chunks.into_iter().collect()),
                reads: 0,
                starts: Vec::new(),
            }
        }
    }

    impl Read for Vectored {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.read_vectored(&mut [IoSliceMut::new(buf)])
        }

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(mut chunk) = self.script.0.pop_front() else {
                return Ok(0);
            };
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(chunk.len() - n);
                if take > 0 {
                    self.starts.push(buf.as_ptr());
                }
                buf[..take].copy_from_slice(&chunk[n..n + take]);
                n += take;
            }
            if n < chunk.len() {
                self.script.0.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    #[test]
    fn a_run_of_large_frames_is_read_k_at_a_time_each_into_the_buffer_that_becomes_it() {
        let frame = wire(&[data(1, READ_BUF)]).len();
        let k = WRITE_BUF / frame;
        // The first frame takes two reads and grows the buffer; then k
        // starts at one and grows by one per run read that fills every
        // buffer it was given. Then a second write of 3k + 2 frames.
        let warm = 1 + (1..=k).sum::<usize>();
        let msgs: Vec<WireMsg> = (1..=warm + 3 * k + 2)
            .map(|seq| data(seq as u64, READ_BUF))
            .collect();
        let script = [wire(&msgs[..warm]), wire(&msgs[warm..])];
        let mut reader = FrameReader::new(Vectored::new(script));
        let (mut got, mut shape) = (Vec::new(), Vec::new());
        loop {
            let reads = reader.r.reads;
            let batch = next_batch(&mut reader);
            if batch.is_empty() {
                break;
            }
            shape.push((batch.len(), reader.r.reads - reads));
            got.extend(batch);
        }
        assert_eq!(got, msgs);
        let mut want = vec![(1, 2)];
        want.extend((1..=k).map(|n| (n, 1)));
        want.extend([(k, 1), (k, 1), (k, 1), (2, 1)]);
        assert_eq!(shape, want, "(frames, reads) per batch");
        // Past the first frame, assembled in a grown buffer: no payload
        // was copied out of the buffer read into, and no two share one.
        let header = frame - READ_BUF;
        let mut bases = std::collections::HashSet::new();
        for (i, msg) in got.iter().enumerate().skip(1) {
            let WireMsg::Data { payload, .. } = msg else {
                unreachable!()
            };
            let base = payload.as_ptr().wrapping_sub(header);
            assert!(reader.r.starts.contains(&base), "frame {i} was copied");
            assert!(bases.insert(base), "frame {i} shares a buffer");
        }
    }

    /// Every frame [`read_lane_frame`] reads off `input`, and every frame
    /// `FrameReader` hands over reading it in `cuts`-sized reads (cycled).
    fn both_readers<L: Lane + std::fmt::Debug>(
        input: &[u8],
        cuts: &[usize],
    ) -> [Vec<(L, WireMsg)>; 2] {
        let mut cur = std::io::Cursor::new(input);
        let mut want = Vec::new();
        while let Some((lane, msg, _)) = read_lane_frame::<L, _>(&mut cur).unwrap() {
            want.push((lane, msg));
        }
        let mut chunks = Vec::new();
        let mut rest = input;
        for &cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(cut.min(rest.len()));
            chunks.push(chunk.to_vec());
            rest = tail;
        }
        let mut reader = FrameReader::new(Vectored::new(chunks));
        let mut got = Vec::new();
        while reader.read_batch(&mut got).unwrap() > 0 {}
        [want, got]
    }

    /// Payload lengths of one of four shapes: small frames; equal frames
    /// around `READ_BUF`; large frames of mixed sizes; `READ_BUF`-sized
    /// frames with small ones between them.
    fn arb_payloads() -> impl Strategy<Value = Vec<usize>> {
        prop_oneof![
            proptest::collection::vec(0usize..300, 1..60),
            (READ_BUF - 16..READ_BUF + 2000, 1usize..40).prop_map(|(len, n)| vec![len; n]),
            proptest::collection::vec(READ_BUF..3 * READ_BUF, 1..16),
            proptest::collection::vec(prop_oneof![0usize..300, Just(READ_BUF)], 1..60),
        ]
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whatever the frame sizes and however the bytes arrive, the
        /// batches hold exactly the frames the one-at-a-time reader
        /// reads, in order, on both lanes.
        #[test]
        fn the_batches_are_the_frames_read_one_at_a_time(
            payloads in arb_payloads(),
            lanes in proptest::collection::vec(any::<u16>(), 60),
            cuts in proptest::collection::vec(1usize..30_000, 1..12),
        ) {
            let frames = payloads.iter().zip(&lanes).enumerate();
            let (mut plain, mut sharded) = (Vec::new(), Vec::new());
            for (i, (&len, &lane)) in frames {
                let msg = data(i as u64 + 1, len);
                write_lane_frame(&mut plain, (), &msg).unwrap();
                write_lane_frame(&mut sharded, lane, &msg).unwrap();
            }
            let [want, got] = both_readers::<()>(&plain, &cuts);
            prop_assert_eq!(want.len(), payloads.len());
            prop_assert_eq!(got, want);
            let [want, got] = both_readers::<u16>(&sharded, &cuts);
            prop_assert_eq!(want.len(), payloads.len());
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn a_large_frame_that_does_not_decode_is_met_again_by_the_next_call() {
        let mut bytes = wire(&[data(1, READ_BUF), data(2, 10)]);
        bytes[4] = 42; // the first frame's tag
        let mut reader = FrameReader::new(Script([bytes].into_iter().collect()));
        let mut frames: Vec<((), WireMsg)> = Vec::new();
        for _ in 0..2 {
            let err = reader.read_batch(&mut frames).unwrap_err();
            assert!(err.to_string().contains("unknown message tag 42"), "{err}");
        }
        assert!(frames.is_empty());
    }

    #[test]
    fn held_small_payloads_never_freeze_the_buffer() {
        let msgs: Vec<WireMsg> = (1..=50).map(|seq| data(seq, 200)).collect();
        let script = wire(&msgs).chunks(1000).map(<[u8]>::to_vec).collect();
        let mut reader = FrameReader::new(Script(script));
        let buf = reader.buf.as_ptr_range();
        let mut held: Vec<((), WireMsg)> = Vec::new();
        // A frozen buffer would stay allocated under the payloads held
        // here, so its replacement could not sit at the same address.
        while reader.read_batch(&mut held).unwrap() > 0 {
            assert_eq!(reader.buf.as_ptr_range(), buf);
        }
        for ((), msg) in &held {
            let WireMsg::Data { payload, .. } = msg else {
                unreachable!()
            };
            assert!(
                !buf.contains(&payload.as_ptr()),
                "a payload is in the buffer"
            );
        }
        assert_eq!(held.into_iter().map(|((), m)| m).collect::<Vec<_>>(), msgs);
    }

    #[test]
    fn frames_ahead_of_a_bad_one_are_handed_over_first() {
        let mut bytes = wire(&[data(1, 10), data(2, 10)]);
        bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut reader = FrameReader::new(Script([bytes].into_iter().collect()));
        let mut frames: Vec<((), WireMsg)> = Vec::new();
        assert!(reader.read_batch(&mut frames).unwrap() > 0);
        assert_eq!(frames.len(), 2);
        assert!(reader.read_batch(&mut frames).is_err());
        assert_eq!(frames.len(), 2);
        // A frame the connection's end cut short is dropped, not an error.
        let cut = wire(&[data(1, 10)]);
        let script = [cut[..cut.len() - 1].to_vec()].into_iter().collect();
        assert!(batches(&mut FrameReader::new(Script(script))).is_empty());
    }

    #[test]
    fn hello_roundtrip() {
        let h = hello(6);
        assert_eq!(parse_hello(&h), Some(6));
        let not_hello = WireMsg::Data {
            origin: NodeId(6),
            seq: 1,
            payload: Bytes::new(),
        };
        assert_eq!(parse_hello(&not_hello), None);
        assert_eq!(parse_hello(&WireMsg::Heartbeat), None);
    }
}
