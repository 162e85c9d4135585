//! The global-sequence payload header.
//!
//! A sharded node assigns every publish a node-level **global** sequence
//! number in addition to the per-shard sequence the shard's own
//! sequencer hands out. The global number rides in front of the payload
//! (8 bytes, little-endian), so every mirror learns the
//! `(shard, shard_seq) → global` mapping exactly when the shard machine
//! delivers the message — no separate mapping channel, no extra
//! round-trips — and can reassemble the S per-shard FIFO streams back
//! into one global-FIFO stream before the application upcall.

use bytes::Bytes;
use stabilizer_core::{CoreError, Reader, SeqNo};

/// Bytes prepended to every sharded payload.
pub const GLOBAL_HEADER: usize = 8;

/// Prepend the global sequence header to `payload`.
pub fn encode_global(global: SeqNo, payload: &Bytes) -> Bytes {
    let mut v = Vec::with_capacity(GLOBAL_HEADER + payload.len());
    v.extend_from_slice(&global.to_le_bytes());
    v.extend_from_slice(payload);
    Bytes::from(v)
}

/// Split a framed payload into its global sequence number and the
/// application payload (zero-copy slice), through core's one [`Reader`].
///
/// # Errors
///
/// [`CoreError::Wire`] if the buffer is shorter than the header.
pub fn decode_global(framed: &Bytes) -> Result<(SeqNo, Bytes), CoreError> {
    let mut r = Reader::shared("sharded payload", framed);
    let global = r.le_u64()?;
    Ok((global, r.bytes(r.remaining())?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        let payload = Bytes::from_static(b"payload");
        let framed = encode_global(42, &payload);
        assert_eq!(framed.len(), GLOBAL_HEADER + payload.len());
        let (g, p) = decode_global(&framed).unwrap();
        assert_eq!(g, 42);
        assert_eq!(p, payload);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let framed = encode_global(u64::MAX, &Bytes::new());
        let (g, p) = decode_global(&framed).unwrap();
        assert_eq!(g, u64::MAX);
        assert!(p.is_empty());
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(decode_global(&Bytes::from_static(b"1234567")).is_err());
    }
}
