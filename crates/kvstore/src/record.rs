//! The replicated K/V operation record: what a primary publishes on its
//! Stabilizer stream, what mirrors apply to their read-only pools, and
//! what a [`crate::LocalStore`]'s write-ahead log holds, on disk as on
//! the wire: `tag u8, key_len u16, key, timestamp u64, [value_len u32,
//! value]`, little-endian, read through core's one [`Reader`].

use bytes::Bytes;
use stabilizer_core::{length_field, CoreError, Reader};

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
    /// The smallest record: a tag, an empty key's length and a timestamp.
    pub(crate) const MIN_LEN: usize = 1 + 2 + 8;

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
        out.extend_from_slice(&length_field::<u16>("kv key", key.len())?.to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(&timestamp.to_le_bytes());
        if let Some(value) = value {
            out.extend_from_slice(&length_field::<u32>("kv value", value.len())?.to_le_bytes());
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
        let mut r = Reader::new("kv record", buf);
        let op = Self::read(&mut r)?;
        r.finish()?;
        Ok(op)
    }

    /// The streaming form of [`KvOp::decode`]: one record off `r`, and
    /// nothing after it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on truncation, a bad UTF-8 key or an unknown
    /// tag.
    pub fn read(r: &mut Reader<'_>) -> Result<KvOp, CoreError> {
        let tag = r.u8()?;
        let key_len = r.le_u16()?;
        let key = r.str(key_len.into())?;
        let timestamp = r.le_u64()?;
        match tag {
            Self::TAG_PUT => {
                let len = r.le_u32()?;
                let value = r.bytes(len as usize)?;
                Ok(KvOp::Put {
                    key,
                    value,
                    timestamp,
                })
            }
            Self::TAG_DELETE => Ok(KvOp::Delete { key, timestamp }),
            tag => Err(r.fail(format_args!("unknown tag {tag}"))),
        }
    }
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
