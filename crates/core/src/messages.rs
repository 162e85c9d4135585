//! Wire messages and their hand-rolled binary codec.
//!
//! Stabilizer keeps the data plane and the control plane separate
//! (§III-A): [`WireMsg::Data`] carries sequenced payloads, while
//! [`WireMsg::AckBatch`] carries monotonic stability reports that can be
//! coalesced (a newer counter value subsumes an older one).
//!
//! The codec is one routine per shape — a one-byte tag, then every
//! integer as an LEB128 varint (seven bits per byte, low group first) —
//! so the framing layer in `stabilizer-transport` and the simulator
//! share identical message sizes:
//!
//! | tag | message            | body                                            |
//! |-----|--------------------|-------------------------------------------------|
//! | 0   | `Data`             | origin, seq, payload length, payload            |
//! | 1   | `AckBatch`         | cell list                                       |
//! | 2   | `Heartbeat`        | —                                               |
//! | 3   | `TransferRequest`  | stream, have                                    |
//! | 4   | `TransferSnapshot` | stream, base, high, app mark, cell list         |
//! | 5   | `TransferChunk`    | stream, seq, done (one byte, 0 or 1), payload length, payload |
//! | 6   | `TransferAck`      | stream, through                                 |
//!
//! A cell list is a count and then, per cell, a head
//! `ty << 2 | same_stream << 1 | same_seq` followed by the stream unless
//! `same_stream` and the seq unless `same_seq`: a cell says in those two
//! bits what it shares with the cell before it instead of repeating it.
//! The `received`/`persisted`/`delivered` row a delivery reports, three
//! cells of one stream at one seq, is 4 + 1 + 1 bytes behind the count.
//!
//! There is exactly one encoding per message. [`WireMsg::decode`]
//! refuses everything else — a padded varint, a cell that spells out
//! what it could have flagged — and checks every count and length
//! against the bytes that remain before it allocates for them.
//!
//! It reads through [`Reader`], the one bounds-checked cursor of the
//! workspace: every byte layout a node gets from a peer or loads from
//! storage is read with it — the wire, a [`crate::Snapshot`], and the
//! applications' records (kvstore's `KvOp`, which its write-ahead log
//! is a run of, pubsub's `TopicRecord`, the sharded payload header).
//! [`length_field`] is the writing side's one rule for a length that
//! does not fit its field.

use crate::error::CoreError;
use bytes::Bytes;
use stabilizer_dsl::{AckTypeId, NodeId, SeqNo};
use stabilizer_netsim::MsgSize;

/// Modeled per-message network overhead (framing length prefix plus
/// TCP/IP headers), included in [`MsgSize::wire_size`] so simulated
/// bandwidth accounting matches a real deployment.
pub const WIRE_OVERHEAD: usize = 64;

/// One monotonic stability report: "node X's `ty` counter for stream
/// `stream` has reached `seq`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The stream (identified by its origin node) being acknowledged.
    pub stream: NodeId,
    /// The stability level.
    pub ty: AckTypeId,
    /// Highest sequence number reaching that level.
    pub seq: SeqNo,
}

impl Ack {
    /// Max-merge `newer` into `row`, one entry per `(stream, ack type)`
    /// cell: reports are monotone, so a cell's highest value subsumes
    /// every other one. A row built from empty through this function
    /// alone has no duplicate cells; cells keep first-seen order.
    pub fn max_merge(row: &mut Vec<Ack>, newer: &[Ack]) {
        for ack in newer {
            match row
                .iter_mut()
                .find(|cell| (cell.stream, cell.ty) == (ack.stream, ack.ty))
            {
                Some(cell) => cell.seq = cell.seq.max(ack.seq),
                None => row.push(*ack),
            }
        }
    }
}

/// Messages exchanged between Stabilizer instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Data-plane: one sequenced payload of stream `origin`.
    Data {
        /// Stream origin (the primary that published it).
        origin: NodeId,
        /// Per-stream sequence number, starting at 1.
        seq: SeqNo,
        /// Application payload.
        payload: Bytes,
    },
    /// Control-plane: a batch of coalesced stability reports from the
    /// sending node.
    AckBatch(Vec<Ack>),
    /// Control-plane keepalive (also drives failure detection).
    Heartbeat,
    /// State transfer (§III-E): a recovering or joining node asks a live
    /// donor to catch it up on `stream`, starting after `have` (the
    /// highest sequence it already delivered in order).
    TransferRequest {
        /// Stream origin to catch up on.
        stream: NodeId,
        /// Highest sequence the requester already holds for that stream.
        have: SeqNo,
    },
    /// State transfer (§III-E): the donor's per-stream snapshot header.
    /// Chunks follow for `(base, high]`; anything at or below `base` was
    /// evicted from the donor's retained log and is covered by the
    /// snapshot itself (the requester fast-forwards over it).
    TransferSnapshot {
        /// Stream origin being transferred.
        stream: NodeId,
        /// Replay starts after this sequence (snapshot point).
        base: SeqNo,
        /// Donor's last assigned/known sequence for the stream at the
        /// time of the request; chunks stop here, later publishes reach
        /// the requester through the normal fan-out.
        high: SeqNo,
        /// The donor's recorded stability cells for this stream, so the
        /// requester's frontier bookkeeping resumes where the cluster is.
        acks: Vec<Ack>,
        /// Reserved: written as 0 and ignored on receipt. The field
        /// stays so that the frame layout does not change.
        app_mark: u64,
    },
    /// State transfer (§III-E): one replayed payload of the donor's
    /// retained log. Fed through the normal receive path, so delivery
    /// order and duplicate suppression are unchanged.
    TransferChunk {
        /// Stream origin of the replayed payload.
        stream: NodeId,
        /// Its original sequence number.
        seq: SeqNo,
        /// The payload.
        payload: Bytes,
        /// True on the last chunk of this session (seq == high).
        done: bool,
    },
    /// State transfer (§III-E): the requester's cumulative chunk ack;
    /// the donor slides its rate-limit window and resumes from here if
    /// either side restarts mid-transfer.
    TransferAck {
        /// Stream being transferred.
        stream: NodeId,
        /// Every chunk at or below this sequence arrived.
        through: SeqNo,
    },
}

impl WireMsg {
    const TAG_DATA: u8 = 0;
    const TAG_ACKS: u8 = 1;
    const TAG_HEARTBEAT: u8 = 2;
    const TAG_TRANSFER_REQUEST: u8 = 3;
    const TAG_TRANSFER_SNAPSHOT: u8 = 4;
    const TAG_TRANSFER_CHUNK: u8 = 5;
    const TAG_TRANSFER_ACK: u8 = 6;

    /// Encoded size in bytes (without [`WIRE_OVERHEAD`]).
    pub fn encoded_len(&self) -> usize {
        let id = |node: &NodeId| varint_len(u64::from(node.0));
        let body = match self {
            WireMsg::Data {
                origin,
                seq,
                payload,
            } => id(origin) + varint_len(*seq) + bytes_len(payload),
            WireMsg::AckBatch(acks) => cells_len(acks),
            WireMsg::Heartbeat => 0,
            WireMsg::TransferRequest { stream, have: seq }
            | WireMsg::TransferAck {
                stream,
                through: seq,
            } => id(stream) + varint_len(*seq),
            WireMsg::TransferSnapshot {
                stream,
                base,
                high,
                acks,
                app_mark,
            } => {
                id(stream)
                    + varint_len(*base)
                    + varint_len(*high)
                    + varint_len(*app_mark)
                    + cells_len(acks)
            }
            WireMsg::TransferChunk {
                stream,
                seq,
                payload,
                ..
            } => id(stream) + varint_len(*seq) + 1 + bytes_len(payload),
        };
        1 + body
    }

    /// Serialize into `out` (appended).
    pub fn encode(&self, out: &mut Vec<u8>) {
        if let Some(payload) = self.encode_prefix(out) {
            out.extend_from_slice(payload);
        }
    }

    /// Serialize everything **except** a [`WireMsg::Data`] payload's
    /// bytes into `out`, returning the payload the caller must put on
    /// the wire right after the prefix. Control messages encode fully
    /// and return `None`.
    ///
    /// This is the transport's zero-copy path: a `Data` payload is
    /// shared (reference-counted) across all fan-out peers, and writing
    /// it straight from the shared buffer avoids materializing a
    /// contiguous per-peer copy of the whole message.
    pub fn encode_prefix<'a>(&'a self, out: &mut Vec<u8>) -> Option<&'a Bytes> {
        match self {
            WireMsg::Data {
                origin,
                seq,
                payload,
            } => {
                out.push(Self::TAG_DATA);
                put_varint(out, u64::from(origin.0));
                put_varint(out, *seq);
                put_varint(out, payload.len() as u64);
                Some(payload)
            }
            WireMsg::AckBatch(acks) => {
                out.push(Self::TAG_ACKS);
                put_cells(out, acks);
                None
            }
            WireMsg::Heartbeat => {
                out.push(Self::TAG_HEARTBEAT);
                None
            }
            WireMsg::TransferRequest { stream, have } => {
                out.push(Self::TAG_TRANSFER_REQUEST);
                put_varint(out, u64::from(stream.0));
                put_varint(out, *have);
                None
            }
            WireMsg::TransferSnapshot {
                stream,
                base,
                high,
                acks,
                app_mark,
            } => {
                out.push(Self::TAG_TRANSFER_SNAPSHOT);
                put_varint(out, u64::from(stream.0));
                put_varint(out, *base);
                put_varint(out, *high);
                put_varint(out, *app_mark);
                put_cells(out, acks);
                None
            }
            WireMsg::TransferChunk {
                stream,
                seq,
                payload,
                done,
            } => {
                out.push(Self::TAG_TRANSFER_CHUNK);
                put_varint(out, u64::from(stream.0));
                put_varint(out, *seq);
                out.push(u8::from(*done));
                put_varint(out, payload.len() as u64);
                Some(payload)
            }
            WireMsg::TransferAck { stream, through } => {
                out.push(Self::TAG_TRANSFER_ACK);
                put_varint(out, u64::from(stream.0));
                put_varint(out, *through);
                None
            }
        }
    }

    /// Serialize into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode(&mut out);
        out
    }

    /// Deserialize a message that was produced by [`WireMsg::encode`].
    ///
    /// The input may come straight from a socket: nothing is allocated
    /// for a count or a length before it is checked against the bytes
    /// that remain, and only the one encoding `encode` produces is
    /// accepted, so every accepted byte string re-encodes to itself.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Wire`] on truncation, an unknown tag, a
    /// malformed or non-minimal field, or trailing garbage.
    pub fn decode(buf: &[u8]) -> Result<WireMsg, CoreError> {
        Self::decode_from(Reader::new("message", buf))
    }

    /// [`WireMsg::decode`] out of a shared buffer: a payload is a slice
    /// of `buf`, holding its storage, instead of a copy. Accepts and
    /// refuses exactly what `decode` does.
    ///
    /// # Errors
    ///
    /// As [`WireMsg::decode`].
    pub fn decode_shared(buf: &Bytes) -> Result<WireMsg, CoreError> {
        Self::decode_from(Reader::shared("message", buf))
    }

    fn decode_from(mut r: Reader<'_>) -> Result<WireMsg, CoreError> {
        let msg = match r.u8()? {
            Self::TAG_DATA => WireMsg::Data {
                origin: r.node()?,
                seq: r.varint()?,
                payload: r.payload()?,
            },
            Self::TAG_ACKS => WireMsg::AckBatch(r.cells()?),
            Self::TAG_HEARTBEAT => WireMsg::Heartbeat,
            Self::TAG_TRANSFER_REQUEST => WireMsg::TransferRequest {
                stream: r.node()?,
                have: r.varint()?,
            },
            Self::TAG_TRANSFER_SNAPSHOT => {
                let stream = r.node()?;
                let base = r.varint()?;
                let high = r.varint()?;
                let app_mark = r.varint()?;
                WireMsg::TransferSnapshot {
                    stream,
                    base,
                    high,
                    acks: r.cells()?,
                    app_mark,
                }
            }
            Self::TAG_TRANSFER_CHUNK => {
                let stream = r.node()?;
                let seq = r.varint()?;
                let done = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(wire(format!("done flag {other} is neither 0 nor 1"))),
                };
                WireMsg::TransferChunk {
                    stream,
                    seq,
                    payload: r.payload()?,
                    done,
                }
            }
            Self::TAG_TRANSFER_ACK => WireMsg::TransferAck {
                stream: r.node()?,
                through: r.varint()?,
            },
            tag => return Err(wire(format!("unknown message tag {tag}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

impl MsgSize for WireMsg {
    fn wire_size(&self) -> usize {
        self.encoded_len() + WIRE_OVERHEAD
    }
}

#[cold]
fn wire(what: impl Into<String>) -> CoreError {
    CoreError::Wire(what.into())
}

/// Longest LEB128 encoding of a `u64`: nine groups of seven bits and one
/// of one.
const MAX_VARINT_LEN: usize = 10;

/// Bytes [`put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Append `v` as an LEB128 varint: seven bits per byte, least
/// significant group first, the top bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes a payload takes behind its length.
fn bytes_len(payload: &Bytes) -> usize {
    varint_len(payload.len() as u64) + payload.len()
}

/// One cell as the list routines see it: its head (`ty << 2 |
/// same_stream << 1 | same_seq`) and which of stream and seq its
/// predecessor already said.
fn cell_head(prev: Option<&Ack>, cell: &Ack) -> (u64, bool, bool) {
    let same_stream = prev.is_some_and(|p| p.stream == cell.stream);
    let same_seq = prev.is_some_and(|p| p.seq == cell.seq);
    let head = u64::from(cell.ty.0) << 2 | u64::from(same_stream) << 1 | u64::from(same_seq);
    (head, same_stream, same_seq)
}

/// Each cell of a list paired with its predecessor.
fn with_prev(acks: &[Ack]) -> impl Iterator<Item = (Option<&Ack>, &Ack)> {
    std::iter::once(None).chain(acks.iter().map(Some)).zip(acks)
}

/// Bytes [`put_cells`] writes for `acks`.
fn cells_len(acks: &[Ack]) -> usize {
    let cells = with_prev(acks).map(|(prev, cell)| {
        let (head, same_stream, same_seq) = cell_head(prev, cell);
        let stream = if same_stream {
            0
        } else {
            varint_len(u64::from(cell.stream.0))
        };
        let seq = if same_seq { 0 } else { varint_len(cell.seq) };
        varint_len(head) + stream + seq
    });
    varint_len(acks.len() as u64) + cells.sum::<usize>()
}

/// Append a cell list — the body of an `AckBatch` and the tail of a
/// `TransferSnapshot`: the count, then per cell its head and whatever
/// of stream and seq differs from the cell before it.
fn put_cells(out: &mut Vec<u8>, acks: &[Ack]) {
    put_varint(out, acks.len() as u64);
    for (prev, cell) in with_prev(acks) {
        let (head, same_stream, same_seq) = cell_head(prev, cell);
        put_varint(out, head);
        if !same_stream {
            put_varint(out, u64::from(cell.stream.0));
        }
        if !same_seq {
            put_varint(out, cell.seq);
        }
    }
}

/// A decoded varint that must fit the 16 bits of a node or ACK-type id.
fn id16(v: u64, what: &str) -> Result<u16, CoreError> {
    u16::try_from(v).map_err(|_| wire(format!("{what} {v} exceeds 16 bits")))
}

/// `len` as a length field of type `T`, or [`CoreError::Wire`] naming
/// `what` when it does not fit: a length is never written truncated.
///
/// # Errors
///
/// [`CoreError::Wire`] when `len` does not fit `T`.
pub fn length_field<T: TryFrom<usize>>(what: &str, len: usize) -> Result<T, CoreError> {
    T::try_from(len).map_err(|_| wire(format!("{what} of {len} bytes is too long")))
}

/// The one cursor over bytes this node did not write: a peer's frame or
/// payload, a snapshot or a log read back from storage. Every read
/// checks its length against the bytes left before it slices or
/// allocates, [`Reader::finish`] refuses bytes left over, and every
/// refusal is a [`CoreError::Wire`] naming what was being read.
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
    /// The shared buffer `buf` is the contents of, when payloads are to
    /// be sliced out of it rather than copied.
    owner: Option<&'a Bytes>,
    /// What the bytes are (`"message"`, `"snapshot"`, ...), for errors.
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader of `buf`, a `what`; [`Reader::bytes`] copies.
    pub fn new(what: &'static str, buf: &'a [u8]) -> Self {
        Reader {
            buf,
            at: 0,
            owner: None,
            what,
        }
    }

    /// A reader of a shared buffer: [`Reader::bytes`] slices `buf`,
    /// holding its storage, instead of copying.
    pub fn shared(what: &'static str, buf: &'a Bytes) -> Self {
        Reader {
            owner: Some(buf),
            ..Reader::new(what, buf)
        }
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// A refusal of what is being read, saying `why`.
    #[cold]
    pub fn fail(&self, why: impl std::fmt::Display) -> CoreError {
        wire(format!("{}: {why}", self.what))
    }

    #[cold]
    fn truncated(&self, wanted: impl std::fmt::Display) -> CoreError {
        let (what, at, left) = (self.what, self.at, self.remaining());
        wire(format!("truncated {what}: {wanted} at {at}, have {left}"))
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        if n > self.remaining() {
            return Err(self.truncated(format_args!("wanted {n} bytes")));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// The next `N` bytes, by value.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CoreError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn le_u16(&mut self) -> Result<u16, CoreError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn le_u32(&mut self) -> Result<u32, CoreError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn le_u64(&mut self) -> Result<u64, CoreError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `n` bytes as UTF-8 text.
    pub fn str(&mut self, n: usize) -> Result<String, CoreError> {
        match std::str::from_utf8(self.take(n)?) {
            Ok(text) => Ok(text.to_owned()),
            Err(_) => Err(self.fail("text not UTF-8")),
        }
    }

    /// The next `n` bytes as a payload: a slice of a shared buffer, a
    /// copy otherwise.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<Bytes, CoreError> {
        let at = self.at;
        let bytes = self.take(n)?;
        Ok(match self.owner {
            Some(owner) => owner.slice(at..at + n),
            None => Bytes::copy_from_slice(bytes),
        })
    }

    /// `n` things of at least `min` bytes each, refused unless the bytes
    /// left can hold them: a count is checked before anyone allocates
    /// for it.
    pub fn count(&self, n: u64, min: usize, what: &str) -> Result<usize, CoreError> {
        let left = self.remaining();
        match usize::try_from(n) {
            Ok(n) if n.checked_mul(min).is_some_and(|need| need <= left) => Ok(n),
            _ => Err(self.truncated(format_args!("{what} {n}"))),
        }
    }

    /// Refuse bytes left over: a layout ends where its last read does.
    pub fn finish(self) -> Result<(), CoreError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(self.fail(format_args!("{left} trailing bytes"))),
        }
    }

    /// One LEB128 varint, in its shortest form only.
    fn varint(&mut self) -> Result<u64, CoreError> {
        let rest = &self.buf[self.at..];
        let mut v = 0u64;
        for (group, &byte) in rest.iter().take(MAX_VARINT_LEN).enumerate() {
            let bits = u64::from(byte & 0x7f);
            if group == MAX_VARINT_LEN - 1 && bits > 1 {
                return Err(wire("varint overflows 64 bits"));
            }
            v |= bits << (7 * group);
            if byte & 0x80 == 0 {
                if byte == 0 && group > 0 {
                    return Err(wire("zero-padded varint"));
                }
                self.at += group + 1;
                return Ok(v);
            }
        }
        Err(if rest.len() < MAX_VARINT_LEN {
            self.truncated("varint")
        } else {
            wire(format!("varint longer than {MAX_VARINT_LEN} bytes"))
        })
    }

    fn node(&mut self) -> Result<NodeId, CoreError> {
        Ok(NodeId(id16(self.varint()?, "node id")?))
    }

    /// A count or length, checked against the bytes that remain before
    /// anyone allocates for it (every counted thing takes at least one).
    fn len(&mut self, what: &str) -> Result<usize, CoreError> {
        let n = self.varint()?;
        self.count(n, 1, what)
    }

    fn payload(&mut self) -> Result<Bytes, CoreError> {
        let len = self.len("payload length")?;
        self.bytes(len)
    }

    /// One field of a cell: the predecessor's where the head says it
    /// repeats, spelled out — and then different — where it does not.
    fn cell_field<T: PartialEq>(
        &mut self,
        repeats: bool,
        prev: Option<T>,
        what: &str,
        read: impl FnOnce(&mut Self) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        if repeats {
            return prev.ok_or_else(|| wire(format!("first cell repeats a {what}")));
        }
        let field = read(self)?;
        if prev.is_some_and(|p| p == field) {
            return Err(wire(format!("cell spells out a repeated {what}")));
        }
        Ok(field)
    }

    /// A cell list as [`put_cells`] writes it, and nothing else: a cell
    /// that spells out what it could have flagged is refused.
    fn cells(&mut self) -> Result<Vec<Ack>, CoreError> {
        let count = self.len("cell count")?;
        let mut acks: Vec<Ack> = Vec::with_capacity(count);
        for _ in 0..count {
            let head = self.varint()?;
            let ty = AckTypeId(id16(head >> 2, "ack type")?);
            let prev = acks.last();
            let stream = prev.map(|p| p.stream);
            let stream = self.cell_field(head & 2 != 0, stream, "stream", Self::node)?;
            let seq = prev.map(|p| p.seq);
            let seq = self.cell_field(head & 1 != 0, seq, "seq", Self::varint)?;
            acks.push(Ack { stream, ty, seq });
        }
        Ok(acks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(msg: WireMsg) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.encoded_len(), "{msg:?}");
        assert_eq!(WireMsg::decode(&bytes).unwrap(), msg);
    }

    fn ack(stream: u16, ty: u16, seq: SeqNo) -> Ack {
        Ack {
            stream: NodeId(stream),
            ty: AckTypeId(ty),
            seq,
        }
    }

    /// Where a varint grows a byte, and the ends of the domain.
    const EDGES: [u64; 7] = [0, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];

    #[test]
    fn varints_are_leb128() {
        for (v, bytes) in [
            (0u64, &[0u8][..]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (16_383, &[0xff, 0x7f]),
            (16_384, &[0x80, 0x80, 0x01]),
            (
                u64::MAX,
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
            ),
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out, bytes, "{v}");
            assert_eq!(varint_len(v), bytes.len(), "{v}");
            let mut r = Reader::new("message", bytes);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn every_tag_roundtrips_at_the_varint_edges() {
        for seq in EDGES {
            for id in [0, 127, 128, u16::MAX] {
                let stream = NodeId(id);
                let payload = Bytes::from(vec![7u8; (seq % 300) as usize]);
                roundtrip(WireMsg::Data {
                    origin: stream,
                    seq,
                    payload: payload.clone(),
                });
                roundtrip(WireMsg::AckBatch(vec![ack(id, id, seq)]));
                roundtrip(WireMsg::TransferRequest { stream, have: seq });
                roundtrip(WireMsg::TransferSnapshot {
                    stream,
                    base: seq,
                    high: seq.saturating_add(1),
                    acks: vec![ack(id, 0, seq), ack(id, id, seq), ack(0, id, 0)],
                    app_mark: seq,
                });
                roundtrip(WireMsg::TransferChunk {
                    stream,
                    seq,
                    payload,
                    done: seq % 2 == 0,
                });
                roundtrip(WireMsg::TransferAck {
                    stream,
                    through: seq,
                });
            }
        }
        roundtrip(WireMsg::Heartbeat);
    }

    #[test]
    fn cell_lists_keep_their_order_whatever_they_share() {
        let lists: [Vec<Ack>; 5] = [
            vec![],
            // All distinct.
            vec![ack(0, 0, 1), ack(1, 1, 2), ack(2, 2, 3)],
            // Lock-step: one delivery's row.
            vec![ack(4, 0, 900), ack(4, 1, 900), ack(4, 2, 900)],
            // Alternating streams, seqs shared across them.
            vec![ack(0, 0, 5), ack(1, 0, 5), ack(0, 1, 5), ack(1, 1, 6)],
            // Duplicates and a return to an earlier value.
            vec![ack(3, 0, 9), ack(3, 0, 9), ack(3, 0, 8), ack(3, 0, 9)],
        ];
        for acks in lists {
            roundtrip(WireMsg::AckBatch(acks.clone()));
            roundtrip(WireMsg::TransferSnapshot {
                stream: NodeId(1),
                base: 0,
                high: 900,
                acks,
                app_mark: 0,
            });
        }
    }

    #[test]
    fn sizes_of_the_two_messages_a_delivery_costs() {
        // Data header: tag, origin, seq (two bytes from 128 on), length.
        let data = WireMsg::Data {
            origin: NodeId(3),
            seq: 200,
            payload: Bytes::from(vec![0u8; 64]),
        };
        assert_eq!(data.encoded_len(), 5 + 64);
        // The lock-step row: tag, count, one full cell (head, stream,
        // two-byte seq) and two heads.
        let row = WireMsg::AckBatch(vec![ack(3, 0, 200), ack(3, 1, 200), ack(3, 2, 200)]);
        assert_eq!(row.to_bytes(), [1, 3, 0, 3, 0xc8, 0x01, 0b0111, 0b1011]);
    }

    /// A refused input: what the decoder said about it.
    fn refused(bytes: &[u8]) -> String {
        match WireMsg::decode(bytes) {
            Err(CoreError::Wire(why)) => why,
            other => panic!("{bytes:?} decoded to {other:?}"),
        }
    }

    #[test]
    fn counts_and_lengths_are_checked_before_anything_is_allocated() {
        // The fixed-width decoder reserved 65 535 cells for this one.
        refused(&[1, 0xff, 0xff]);
        // A count or length may not exceed the bytes behind it.
        assert!(refused(&[1, 0xff, 0xff, 0x03]).contains("cell count 65535"));
        assert!(refused(&[4, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f]).contains("cell count"));
        assert!(refused(&[0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f]).contains("payload length"));
        assert!(refused(&[5, 0, 1, 0, 2, b'x']).contains("payload length 2"));
    }

    #[test]
    fn malformed_varints_and_ids_are_refused() {
        // Eleven bytes, an eleventh bit group that does not fit, padding.
        let long = [&[0u8, 0][..], &[0x80; 10], &[0]].concat();
        assert!(refused(&long).contains("longer than 10"));
        let wide = [&[0u8, 0][..], &[0xff; 9], &[0x02, 0]].concat();
        assert!(refused(&wide).contains("overflows"));
        assert!(refused(&[0, 0, 0x80, 0x00, 0]).contains("zero-padded"));
        assert!(refused(&[0, 0x80, 0x00, 0, 0]).contains("zero-padded"));
        // 65 536 as a node id and as an ack type.
        assert!(refused(&[6, 0x80, 0x80, 0x04, 0]).contains("node id 65536"));
        assert!(refused(&[1, 1, 0x80, 0x80, 0x10, 0, 0]).contains("ack type 65536"));
        assert!(refused(&[5, 0, 1, 2, 0]).contains("done flag"));
    }

    #[test]
    fn a_cell_list_has_one_spelling() {
        // A first cell has no predecessor to repeat.
        assert!(refused(&[1, 1, 0b10, 7]).contains("first cell"));
        assert!(refused(&[1, 1, 0b01, 7]).contains("first cell"));
        // [1, 2, 0, 7, 9, <second cell>]: (7, 0, 9) then another cell.
        assert!(refused(&[1, 2, 0, 7, 9, 0b100, 7, 3]).contains("repeated stream"));
        assert!(refused(&[1, 2, 0, 7, 9, 0b100, 8, 9]).contains("repeated seq"));
        let flagged = [1, 2, 0, 7, 9, 0b111];
        assert_eq!(
            WireMsg::decode(&flagged).unwrap(),
            WireMsg::AckBatch(vec![ack(7, 0, 9), ack(7, 1, 9)])
        );
    }

    #[test]
    fn data_roundtrips() {
        roundtrip(WireMsg::Data {
            origin: NodeId(3),
            seq: 99,
            payload: Bytes::from_static(b"hello"),
        });
        roundtrip(WireMsg::Data {
            origin: NodeId(0),
            seq: 0,
            payload: Bytes::new(),
        });
    }

    #[test]
    fn max_merge_keeps_the_highest_value_per_cell() {
        let ack = |stream, ty, seq| Ack {
            stream: NodeId(stream),
            ty: AckTypeId(ty),
            seq,
        };
        let mut row = Vec::new();
        Ack::max_merge(&mut row, &[ack(0, 0, 3), ack(0, 1, 3)]);
        Ack::max_merge(&mut row, &[ack(0, 0, 5), ack(1, 0, 2)]);
        Ack::max_merge(&mut row, &[ack(0, 1, 1), ack(0, 0, 4)]);
        assert_eq!(row, [ack(0, 0, 5), ack(0, 1, 3), ack(1, 0, 2)]);
    }

    #[test]
    fn ack_batch_roundtrips() {
        roundtrip(WireMsg::AckBatch(vec![
            Ack {
                stream: NodeId(0),
                ty: AckTypeId(0),
                seq: 17,
            },
            Ack {
                stream: NodeId(7),
                ty: AckTypeId(3),
                seq: u64::MAX,
            },
        ]));
        roundtrip(WireMsg::AckBatch(vec![]));
    }

    #[test]
    fn heartbeat_roundtrips() {
        roundtrip(WireMsg::Heartbeat);
    }

    #[test]
    fn transfer_messages_roundtrip() {
        roundtrip(WireMsg::TransferRequest {
            stream: NodeId(2),
            have: 41,
        });
        roundtrip(WireMsg::TransferSnapshot {
            stream: NodeId(2),
            base: 41,
            high: 120,
            acks: vec![
                Ack {
                    stream: NodeId(2),
                    ty: AckTypeId(0),
                    seq: 100,
                },
                Ack {
                    stream: NodeId(2),
                    ty: AckTypeId(1),
                    seq: 90,
                },
            ],
            app_mark: u64::MAX,
        });
        roundtrip(WireMsg::TransferSnapshot {
            stream: NodeId(0),
            base: 0,
            high: 0,
            acks: vec![],
            app_mark: 0,
        });
        roundtrip(WireMsg::TransferChunk {
            stream: NodeId(5),
            seq: 42,
            payload: Bytes::from_static(b"replayed"),
            done: true,
        });
        roundtrip(WireMsg::TransferChunk {
            stream: NodeId(5),
            seq: 43,
            payload: Bytes::new(),
            done: false,
        });
        roundtrip(WireMsg::TransferAck {
            stream: NodeId(5),
            through: 42,
        });
    }

    #[test]
    fn transfer_truncation_is_detected() {
        let msgs = vec![
            WireMsg::TransferRequest {
                stream: NodeId(1),
                have: 7,
            },
            WireMsg::TransferSnapshot {
                stream: NodeId(1),
                base: 7,
                high: 9,
                acks: vec![Ack {
                    stream: NodeId(1),
                    ty: AckTypeId(0),
                    seq: 9,
                }],
                app_mark: 3,
            },
            WireMsg::TransferChunk {
                stream: NodeId(1),
                seq: 8,
                payload: Bytes::from_static(b"chunk"),
                done: false,
            },
            WireMsg::TransferAck {
                stream: NodeId(1),
                through: 8,
            },
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    WireMsg::decode(&bytes[..cut]).is_err(),
                    "cut at {cut} should fail for {msg:?}"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = WireMsg::Data {
            origin: NodeId(1),
            seq: 2,
            payload: Bytes::from_static(b"abcdef"),
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                WireMsg::decode(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = WireMsg::Heartbeat.to_bytes();
        bytes.push(0);
        assert!(matches!(WireMsg::decode(&bytes), Err(CoreError::Wire(_))));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(WireMsg::decode(&[42]), Err(CoreError::Wire(_))));
    }

    #[test]
    fn encode_prefix_plus_payload_equals_encode() {
        let msgs = vec![
            WireMsg::Data {
                origin: NodeId(3),
                seq: 7,
                payload: Bytes::from_static(b"body"),
            },
            WireMsg::AckBatch(vec![Ack {
                stream: NodeId(1),
                ty: AckTypeId(0),
                seq: 5,
            }]),
            WireMsg::Heartbeat,
            WireMsg::TransferChunk {
                stream: NodeId(2),
                seq: 9,
                payload: Bytes::from_static(b"replay"),
                done: true,
            },
        ];
        for msg in msgs {
            let mut split = Vec::new();
            let payload = msg.encode_prefix(&mut split);
            let carries = matches!(msg, WireMsg::Data { .. } | WireMsg::TransferChunk { .. });
            assert_eq!(payload.is_some(), carries);
            if let Some(p) = payload {
                split.extend_from_slice(p);
            }
            assert_eq!(split, msg.to_bytes());
        }
    }

    /// A message of the drawn tag, the other draws filling its fields.
    fn arb_msg() -> impl Strategy<Value = WireMsg> {
        let cells = proptest::collection::vec((0u16..3, 0u16..3, 0u64..3), 0..5);
        let payload = proptest::collection::vec(any::<u8>(), 0..40);
        (
            0u8..7,
            any::<u16>(),
            any::<u64>(),
            cells,
            payload,
            any::<bool>(),
        )
            .prop_map(|(tag, id, seq, cells, payload, done)| {
                let stream = NodeId(id);
                let acks = cells.into_iter().map(|(s, t, q)| ack(s, t, q)).collect();
                let payload = Bytes::from(payload);
                match tag {
                    0 => WireMsg::Data {
                        origin: stream,
                        seq,
                        payload,
                    },
                    1 => WireMsg::AckBatch(acks),
                    2 => WireMsg::Heartbeat,
                    3 => WireMsg::TransferRequest { stream, have: seq },
                    4 => WireMsg::TransferSnapshot {
                        stream,
                        base: seq,
                        high: seq,
                        acks,
                        app_mark: u64::from(id),
                    },
                    5 => WireMsg::TransferChunk {
                        stream,
                        seq,
                        payload,
                        done,
                    },
                    _ => WireMsg::TransferAck {
                        stream,
                        through: seq,
                    },
                }
            })
    }

    proptest! {
        /// Slicing payloads out of the input instead of copying them
        /// changes nothing else: on an encoded message, as is or with one
        /// byte overwritten, inserted or removed, both decoders return
        /// the same message or the same refusal.
        #[test]
        fn decode_shared_is_decode(
            msg in arb_msg(),
            at in any::<usize>(),
            byte in any::<u8>(),
            edit in 0u8..4,
        ) {
            let mut bytes = msg.to_bytes();
            let at = at % bytes.len();
            match edit {
                0 => {}
                1 => bytes[at] = byte,
                2 => bytes.insert(at, byte),
                _ => drop(bytes.remove(at)),
            }
            let shared = Bytes::from(bytes.clone());
            prop_assert_eq!(WireMsg::decode_shared(&shared), WireMsg::decode(&bytes));
            if edit == 0 {
                prop_assert_eq!(WireMsg::decode_shared(&shared), Ok(msg));
            }
        }
    }

    #[test]
    fn a_shared_decode_slices_the_payload_out_of_its_input() {
        for msg in [
            WireMsg::Data {
                origin: NodeId(3),
                seq: 99,
                payload: Bytes::from_static(b"hello"),
            },
            WireMsg::TransferChunk {
                stream: NodeId(3),
                seq: 99,
                payload: Bytes::from_static(b"hello"),
                done: true,
            },
        ] {
            let input = Bytes::from(msg.to_bytes());
            let decoded = WireMsg::decode_shared(&input).unwrap();
            let (WireMsg::Data { payload, .. } | WireMsg::TransferChunk { payload, .. }) = &decoded
            else {
                unreachable!()
            };
            let at = input.len() - payload.len();
            assert_eq!(payload.as_ptr(), input[at..].as_ptr());
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn wire_size_includes_overhead() {
        let m = WireMsg::Heartbeat;
        assert_eq!(m.wire_size(), 1 + WIRE_OVERHEAD);
    }
}
