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
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::new();
        match self {
            KvOp::Put {
                key,
                value,
                timestamp,
            } => {
                out.push(Self::TAG_PUT);
                out.extend_from_slice(&(key.len() as u16).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                out.extend_from_slice(&timestamp.to_le_bytes());
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
            KvOp::Delete { key, timestamp } => {
                out.push(Self::TAG_DELETE);
                out.extend_from_slice(&(key.len() as u16).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                out.extend_from_slice(&timestamp.to_le_bytes());
            }
        }
        Bytes::from(out)
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
        assert_eq!(KvOp::decode(&op.to_bytes()).unwrap(), op);
        assert_eq!(op.key(), "user/7");
        assert_eq!(op.timestamp(), 99);
    }

    #[test]
    fn delete_roundtrips() {
        let op = KvOp::Delete {
            key: "k".into(),
            timestamp: 1,
        };
        assert_eq!(KvOp::decode(&op.to_bytes()).unwrap(), op);
    }

    #[test]
    fn empty_key_and_value_roundtrip() {
        let op = KvOp::Put {
            key: String::new(),
            value: Bytes::new(),
            timestamp: 0,
        };
        assert_eq!(KvOp::decode(&op.to_bytes()).unwrap(), op);
    }

    #[test]
    fn truncation_rejected() {
        let bytes = KvOp::Put {
            key: "abc".into(),
            value: Bytes::from_static(b"xyz"),
            timestamp: 5,
        }
        .to_bytes();
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
        .to_vec();
        bytes.push(7);
        assert!(KvOp::decode(&bytes).is_err());
    }
}
