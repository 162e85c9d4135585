//! The replicated K/V operation record: what a primary publishes on its
//! Stabilizer stream, and what mirrors apply to their read-only pools.

use crate::local::LocalStore;
use bytes::Bytes;
use stabilizer_core::CoreError;

/// A single K/V mutation, as carried in a Stabilizer data message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Write `value` under `key`.
    Put {
        /// The key.
        key: String,
        /// The value.
        value: Bytes,
        /// Origin-side timestamp (nanos), used for `get_by_time`.
        timestamp: u64,
    },
    /// Delete `key` (tombstone).
    Delete {
        /// The key.
        key: String,
        /// Origin-side timestamp (nanos).
        timestamp: u64,
    },
}

impl KvOp {
    const TAG_PUT: u8 = 0;
    const TAG_DELETE: u8 = 1;

    /// The key this operation mutates.
    pub fn key(&self) -> &str {
        match self {
            KvOp::Put { key, .. } | KvOp::Delete { key, .. } => key,
        }
    }

    /// The origin timestamp.
    pub fn timestamp(&self) -> u64 {
        match self {
            KvOp::Put { timestamp, .. } | KvOp::Delete { timestamp, .. } => *timestamp,
        }
    }

    /// Apply this mutation to `pool`: the primary's own pool when it
    /// publishes the record, a mirror's copy of the origin's pool when
    /// it is delivered — on the simulator and on TCP alike.
    pub fn apply(self, pool: &mut LocalStore) {
        match self {
            KvOp::Put {
                key,
                value,
                timestamp,
            } => pool.put(&key, value, timestamp),
            KvOp::Delete { key, timestamp } => pool.delete(&key, timestamp),
        };
    }

    /// Serialize to a payload for `publish`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] for a key longer than 65 535 bytes or a value
    /// longer than `u32::MAX` bytes: their lengths do not fit the record.
    pub fn to_bytes(&self) -> Result<Bytes, CoreError> {
        let mut out = Vec::new();
        let (tag, key, timestamp, value) = match self {
            KvOp::Put {
                key,
                value,
                timestamp,
            } => (Self::TAG_PUT, key, timestamp, Some(value)),
            KvOp::Delete { key, timestamp } => (Self::TAG_DELETE, key, timestamp, None),
        };
        out.push(tag);
        out.extend_from_slice(&length::<u16>("kv key", key.len())?.to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(&timestamp.to_le_bytes());
        if let Some(value) = value {
            out.extend_from_slice(&length::<u32>("kv value", value.len())?.to_le_bytes());
            out.extend_from_slice(value);
        }
        Ok(Bytes::from(out))
    }

    /// Deserialize a payload produced by [`KvOp::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on truncation, bad UTF-8 keys, unknown tags,
    /// or trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<KvOp, CoreError> {
        let fail = |m: &str| CoreError::Wire(format!("kv record: {m}"));
        let tag = *buf.first().ok_or_else(|| fail("empty"))?;
        let mut at = 1usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8], CoreError> {
            if *at + n > buf.len() {
                return Err(fail("truncated"));
            }
            let s = &buf[*at..*at + n];
            *at += n;
            Ok(s)
        };
        let key_len = u16::from_le_bytes(take(&mut at, 2)?.try_into().unwrap()) as usize;
        let key = std::str::from_utf8(take(&mut at, key_len)?)
            .map_err(|_| fail("key not UTF-8"))?
            .to_owned();
        let timestamp = u64::from_le_bytes(take(&mut at, 8)?.try_into().unwrap());
        let op = match tag {
            Self::TAG_PUT => {
                let vlen = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()) as usize;
                let value = Bytes::copy_from_slice(take(&mut at, vlen)?);
                KvOp::Put {
                    key,
                    value,
                    timestamp,
                }
            }
            Self::TAG_DELETE => KvOp::Delete { key, timestamp },
            _ => return Err(fail("unknown tag")),
        };
        if at != buf.len() {
            return Err(fail("trailing bytes"));
        }
        Ok(op)
    }
}

/// `len` as a length field of type `T`, or [`CoreError::Wire`] naming
/// `what` when it does not fit: a length is never written truncated.
pub(crate) fn length<T: TryFrom<usize>>(what: &str, len: usize) -> Result<T, CoreError> {
    T::try_from(len).map_err(|_| CoreError::Wire(format!("{what} of {len} bytes is too long")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_roundtrips() {
        let op = KvOp::Put {
            key: "user/7".into(),
            value: Bytes::from_static(b"v"),
            timestamp: 99,
        };
        assert_eq!(KvOp::decode(&op.to_bytes().unwrap()).unwrap(), op);
        assert_eq!(op.key(), "user/7");
        assert_eq!(op.timestamp(), 99);
    }

    #[test]
    fn delete_roundtrips() {
        let op = KvOp::Delete {
            key: "k".into(),
            timestamp: 1,
        };
        assert_eq!(KvOp::decode(&op.to_bytes().unwrap()).unwrap(), op);
    }

    #[test]
    fn empty_key_and_value_roundtrip() {
        let op = KvOp::Put {
            key: String::new(),
            value: Bytes::new(),
            timestamp: 0,
        };
        assert_eq!(KvOp::decode(&op.to_bytes().unwrap()).unwrap(), op);
    }

    #[test]
    fn truncation_rejected() {
        let bytes = KvOp::Put {
            key: "abc".into(),
            value: Bytes::from_static(b"xyz"),
            timestamp: 5,
        }
        .to_bytes()
        .unwrap();
        for cut in 0..bytes.len() {
            assert!(KvOp::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_tag_and_trailing_rejected() {
        assert!(KvOp::decode(&[9, 0, 0]).is_err());
        let mut bytes = KvOp::Delete {
            key: "k".into(),
            timestamp: 1,
        }
        .to_bytes()
        .unwrap()
        .to_vec();
        bytes.push(7);
        assert!(KvOp::decode(&bytes).is_err());
    }

    #[test]
    fn a_key_is_written_whole_or_refused() {
        let key = |len: usize| "k".repeat(len);
        let put = |key: String| KvOp::Put {
            key,
            value: Bytes::from_static(b"v"),
            timestamp: 3,
        };
        let longest = put(key(u16::MAX.into()));
        assert_eq!(KvOp::decode(&longest.to_bytes().unwrap()).unwrap(), longest);
        let delete = KvOp::Delete {
            key: key(65_536),
            timestamp: 3,
        };
        for op in [put(key(65_536)), delete] {
            let err = op.to_bytes().unwrap_err();
            assert!(err.to_string().contains("kv key of 65536 bytes"), "{err}");
        }
    }
}
