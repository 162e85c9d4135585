//! Wire messages and their hand-rolled binary codec.
//!
//! Stabilizer keeps the data plane and the control plane separate
//! (§III-A): [`WireMsg::Data`] carries sequenced payloads, while
//! [`WireMsg::AckBatch`] carries monotonic stability reports that can be
//! coalesced (a newer counter value subsumes an older one).
//!
//! The codec is deliberately simple — fixed little-endian fields behind a
//! one-byte tag — so the framing layer in `stabilizer-transport` and the
//! simulator share identical message sizes.

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
        /// Opaque application-state hook carried alongside the snapshot
        /// (the sharded layer uses it for the global fast-forward point).
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
        match self {
            WireMsg::Data { payload, .. } => 1 + 2 + 8 + 4 + payload.len(),
            WireMsg::AckBatch(acks) => 1 + 2 + acks.len() * (2 + 2 + 8),
            WireMsg::Heartbeat => 1,
            WireMsg::TransferRequest { .. } => 1 + 2 + 8,
            WireMsg::TransferSnapshot { acks, .. } => {
                1 + 2 + 8 + 8 + 8 + 2 + acks.len() * (2 + 2 + 8)
            }
            WireMsg::TransferChunk { payload, .. } => 1 + 2 + 8 + 1 + 4 + payload.len(),
            WireMsg::TransferAck { .. } => 1 + 2 + 8,
        }
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
                out.extend_from_slice(&origin.0.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                Some(payload)
            }
            WireMsg::AckBatch(acks) => {
                out.push(Self::TAG_ACKS);
                out.extend_from_slice(&(acks.len() as u16).to_le_bytes());
                for a in acks {
                    out.extend_from_slice(&a.stream.0.to_le_bytes());
                    out.extend_from_slice(&a.ty.0.to_le_bytes());
                    out.extend_from_slice(&a.seq.to_le_bytes());
                }
                None
            }
            WireMsg::Heartbeat => {
                out.push(Self::TAG_HEARTBEAT);
                None
            }
            WireMsg::TransferRequest { stream, have } => {
                out.push(Self::TAG_TRANSFER_REQUEST);
                out.extend_from_slice(&stream.0.to_le_bytes());
                out.extend_from_slice(&have.to_le_bytes());
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
                out.extend_from_slice(&stream.0.to_le_bytes());
                out.extend_from_slice(&base.to_le_bytes());
                out.extend_from_slice(&high.to_le_bytes());
                out.extend_from_slice(&app_mark.to_le_bytes());
                out.extend_from_slice(&(acks.len() as u16).to_le_bytes());
                for a in acks {
                    out.extend_from_slice(&a.stream.0.to_le_bytes());
                    out.extend_from_slice(&a.ty.0.to_le_bytes());
                    out.extend_from_slice(&a.seq.to_le_bytes());
                }
                None
            }
            WireMsg::TransferChunk {
                stream,
                seq,
                payload,
                done,
            } => {
                out.push(Self::TAG_TRANSFER_CHUNK);
                out.extend_from_slice(&stream.0.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.push(u8::from(*done));
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                Some(payload)
            }
            WireMsg::TransferAck { stream, through } => {
                out.push(Self::TAG_TRANSFER_ACK);
                out.extend_from_slice(&stream.0.to_le_bytes());
                out.extend_from_slice(&through.to_le_bytes());
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
    /// # Errors
    ///
    /// Returns [`CoreError::Wire`] on truncation, an unknown tag, or
    /// trailing garbage.
    pub fn decode(buf: &[u8]) -> Result<WireMsg, CoreError> {
        let mut r = Reader { buf, at: 0 };
        let msg = match r.u8()? {
            Self::TAG_DATA => {
                let origin = NodeId(r.u16()?);
                let seq = r.u64()?;
                let len = r.u32()? as usize;
                let payload = Bytes::copy_from_slice(r.take(len)?);
                WireMsg::Data {
                    origin,
                    seq,
                    payload,
                }
            }
            Self::TAG_ACKS => {
                let count = r.u16()? as usize;
                let mut acks = Vec::with_capacity(count);
                for _ in 0..count {
                    acks.push(Ack {
                        stream: NodeId(r.u16()?),
                        ty: AckTypeId(r.u16()?),
                        seq: r.u64()?,
                    });
                }
                WireMsg::AckBatch(acks)
            }
            Self::TAG_HEARTBEAT => WireMsg::Heartbeat,
            Self::TAG_TRANSFER_REQUEST => WireMsg::TransferRequest {
                stream: NodeId(r.u16()?),
                have: r.u64()?,
            },
            Self::TAG_TRANSFER_SNAPSHOT => {
                let stream = NodeId(r.u16()?);
                let base = r.u64()?;
                let high = r.u64()?;
                let app_mark = r.u64()?;
                let count = r.u16()? as usize;
                let mut acks = Vec::with_capacity(count);
                for _ in 0..count {
                    acks.push(Ack {
                        stream: NodeId(r.u16()?),
                        ty: AckTypeId(r.u16()?),
                        seq: r.u64()?,
                    });
                }
                WireMsg::TransferSnapshot {
                    stream,
                    base,
                    high,
                    acks,
                    app_mark,
                }
            }
            Self::TAG_TRANSFER_CHUNK => {
                let stream = NodeId(r.u16()?);
                let seq = r.u64()?;
                let done = r.u8()? != 0;
                let len = r.u32()? as usize;
                let payload = Bytes::copy_from_slice(r.take(len)?);
                WireMsg::TransferChunk {
                    stream,
                    seq,
                    payload,
                    done,
                }
            }
            Self::TAG_TRANSFER_ACK => WireMsg::TransferAck {
                stream: NodeId(r.u16()?),
                through: r.u64()?,
            },
            tag => return Err(CoreError::Wire(format!("unknown message tag {tag}"))),
        };
        if r.at != buf.len() {
            return Err(CoreError::Wire(format!(
                "{} trailing bytes",
                buf.len() - r.at
            )));
        }
        Ok(msg)
    }

    /// True for control-plane messages (ACKs, heartbeats, and transfer
    /// coordination). Payload-bearing messages — live data and replayed
    /// transfer chunks — are data-plane.
    pub fn is_control(&self) -> bool {
        !matches!(self, WireMsg::Data { .. } | WireMsg::TransferChunk { .. })
    }
}

impl MsgSize for WireMsg {
    fn wire_size(&self) -> usize {
        self.encoded_len() + WIRE_OVERHEAD
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        if self.at + n > self.buf.len() {
            return Err(CoreError::Wire(format!(
                "truncated message: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.buf.len() - self.at
            )));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: WireMsg) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(WireMsg::decode(&bytes).unwrap(), msg);
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
    fn control_classification() {
        assert!(WireMsg::Heartbeat.is_control());
        assert!(WireMsg::AckBatch(vec![]).is_control());
        assert!(!WireMsg::Data {
            origin: NodeId(0),
            seq: 1,
            payload: Bytes::new()
        }
        .is_control());
        assert!(WireMsg::TransferRequest {
            stream: NodeId(0),
            have: 0
        }
        .is_control());
        assert!(WireMsg::TransferAck {
            stream: NodeId(0),
            through: 0
        }
        .is_control());
        assert!(!WireMsg::TransferChunk {
            stream: NodeId(0),
            seq: 1,
            payload: Bytes::new(),
            done: false
        }
        .is_control());
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
            assert_eq!(payload.is_some(), !msg.is_control());
            if let Some(p) = payload {
                split.extend_from_slice(p);
            }
            assert_eq!(split, msg.to_bytes());
        }
    }

    #[test]
    fn wire_size_includes_overhead() {
        let m = WireMsg::Heartbeat;
        assert_eq!(m.wire_size(), 1 + WIRE_OVERHEAD);
    }
}
