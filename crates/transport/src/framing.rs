//! Length-prefixed framing over TCP streams.
//!
//! Frame layout: `u32` little-endian length, then the [`Lane`] (nothing
//! on the plain runtime, a `u16` shard index on the sharded one), then
//! the encoded [`WireMsg`]; the length covers lane and message. The
//! first frame on every outbound connection is a hello carrying the
//! sender's node id, so the accepting side can demultiplex peers without
//! configuration-order coupling.

use stabilizer_core::{CoreError, WireMsg};
use std::io::{Read, Write};

/// Maximum accepted frame size (1 GiB would be absurd for a control or
/// 64 KiB-capped data message; this guards against corrupt prefixes).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// The demultiplexing tag between a frame's length prefix and its body.
///
/// Two lanes exist: `()` — no tag, the plain runtime's `[len][body]`
/// frame — and `u16` — the sharded runtime's `[len][shard][body]` frame,
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
/// length prefix, the lane and the 15-byte message header are
/// materialized, so a payload fanned out to N peers is **not** copied
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
    // Reserve the length prefix, encode lane and body prefix after it,
    // then patch the real length in — one small buffer, no payload bytes.
    let mut head = Vec::with_capacity(4 + 2 + 32);
    head.extend_from_slice(&[0u8; 4]);
    lane.put(&mut head);
    let payload = msg.encode_prefix(&mut head);
    let body_len = head.len() - 4 + payload.map_or(0, bytes::Bytes::len);
    head[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    w.write_all(&head)?;
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
    let invalid = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidData, why);
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(invalid(format!("frame of {len} bytes exceeds limit")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let (lane, encoded) =
        L::split(&body).ok_or_else(|| invalid("frame lacks its lane index".to_owned()))?;
    let msg = WireMsg::decode(encoded).map_err(|e: CoreError| invalid(e.to_string()))?;
    Ok(Some((lane, msg, 4 + len as usize)))
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
    Ok(read_frame_counted(r)?.map(|(msg, _)| msg))
}

/// [`read_frame`] that also reports the wire size of the frame (length
/// prefix included), for transport traffic accounting.
///
/// # Errors
///
/// I/O errors, oversized frames, or undecodable bodies.
pub fn read_frame_counted<R: Read>(r: &mut R) -> std::io::Result<Option<(WireMsg, usize)>> {
    Ok(read_lane_frame::<(), R>(r)?.map(|((), msg, wire_len)| (msg, wire_len)))
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
        let (got, read) = read_frame_counted(&mut Cursor::new(buf)).unwrap().unwrap();
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
