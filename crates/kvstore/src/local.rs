//! The local object store: a stand-in for the Derecho object store the
//! paper integrates with (§V-A) — a versioned in-process K/V store with
//! `put`, `get`, `get_by_version`, and `get_by_time`, backed by a
//! write-ahead log that supports replay-based recovery. The log is the
//! [`KvOp`]s applied, oldest first: the records a primary publishes, so
//! a mirror's pool, its log and its WAL file hold one record type.

use crate::record::KvOp;
use bytes::Bytes;
use std::collections::HashMap;

/// A single version of a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Monotonic per-store version number (1-based).
    pub version: u64,
    /// Logical timestamp supplied by the caller (virtual nanos in
    /// simulations, wall-clock nanos in deployments).
    pub timestamp: u64,
    /// The value; `None` is a tombstone.
    pub value: Option<Bytes>,
}

/// A versioned in-memory K/V store with full version history per key and
/// a write-ahead log.
#[derive(Debug, Default)]
pub struct LocalStore {
    map: HashMap<String, Vec<Version>>,
    log: Vec<KvOp>,
    next_version: u64,
}

impl LocalStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write `value` under `key` at `timestamp`; returns the new version
    /// number. Versions are totally ordered per store.
    pub fn put(&mut self, key: &str, value: Bytes, timestamp: u64) -> u64 {
        let key = key.to_owned();
        self.apply(KvOp::Put {
            key,
            value,
            timestamp,
        })
    }

    /// Write a tombstone for `key`; subsequent `get` returns `None`.
    pub fn delete(&mut self, key: &str, timestamp: u64) -> u64 {
        let key = key.to_owned();
        self.apply(KvOp::Delete { key, timestamp })
    }

    /// Apply a mutation and append it to the log: a primary's own write,
    /// or a record delivered from the pool's origin, on the simulator
    /// and on TCP alike. Returns the new version number.
    pub fn apply(&mut self, op: KvOp) -> u64 {
        self.next_version += 1;
        let (key, value) = match &op {
            KvOp::Put { key, value, .. } => (key, Some(value.clone())),
            KvOp::Delete { key, .. } => (key, None),
        };
        let v = Version {
            version: self.next_version,
            timestamp: op.timestamp(),
            value,
        };
        self.map.entry(key.clone()).or_default().push(v);
        self.log.push(op);
        self.next_version
    }

    /// Latest value of `key` (`None` if absent or tombstoned).
    pub fn get(&self, key: &str) -> Option<Bytes> {
        self.map.get(key)?.last()?.value.clone()
    }

    /// Value of `key` as of store version `version` (the newest entry
    /// with `entry.version <= version`).
    pub fn get_by_version(&self, key: &str, version: u64) -> Option<Bytes> {
        let versions = self.map.get(key)?;
        versions
            .iter()
            .rev()
            .find(|v| v.version <= version)?
            .value
            .clone()
    }

    /// Value of `key` as of `timestamp` (the newest entry with
    /// `entry.timestamp <= timestamp`) — the paper's `get_by_time`.
    pub fn get_by_time(&self, key: &str, timestamp: u64) -> Option<Bytes> {
        let versions = self.map.get(key)?;
        versions
            .iter()
            .rev()
            .find(|v| v.timestamp <= timestamp)?
            .value
            .clone()
    }

    /// All versions of `key`, oldest first.
    pub fn history(&self, key: &str) -> &[Version] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of distinct keys (including tombstoned ones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no key was ever written.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Highest version number issued.
    pub fn current_version(&self) -> u64 {
        self.next_version
    }

    /// The write-ahead log, oldest first.
    pub fn log(&self) -> &[KvOp] {
        &self.log
    }

    /// Rebuild a store by replaying a write-ahead log (crash recovery).
    pub fn replay(log: &[KvOp]) -> Self {
        let mut store = LocalStore::new();
        for op in log {
            store.apply(op.clone());
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut s = LocalStore::new();
        let v1 = s.put("k", Bytes::from_static(b"a"), 100);
        assert_eq!(v1, 1);
        assert_eq!(s.get("k"), Some(Bytes::from_static(b"a")));
        let v2 = s.put("k", Bytes::from_static(b"b"), 200);
        assert_eq!(v2, 2);
        assert_eq!(s.get("k"), Some(Bytes::from_static(b"b")));
        assert_eq!(s.history("k").len(), 2);
    }

    #[test]
    fn get_missing_is_none() {
        let s = LocalStore::new();
        assert_eq!(s.get("nope"), None);
        assert_eq!(s.get_by_time("nope", u64::MAX), None);
        assert!(s.history("nope").is_empty());
    }

    #[test]
    fn tombstones_hide_values_but_keep_history() {
        let mut s = LocalStore::new();
        s.put("k", Bytes::from_static(b"a"), 100);
        s.delete("k", 200);
        assert_eq!(s.get("k"), None);
        assert_eq!(s.get_by_time("k", 150), Some(Bytes::from_static(b"a")));
        assert_eq!(s.get_by_time("k", 250), None);
    }

    #[test]
    fn get_by_time_picks_newest_at_or_before() {
        let mut s = LocalStore::new();
        s.put("k", Bytes::from_static(b"a"), 100);
        s.put("k", Bytes::from_static(b"b"), 200);
        s.put("k", Bytes::from_static(b"c"), 300);
        assert_eq!(s.get_by_time("k", 99), None);
        assert_eq!(s.get_by_time("k", 100), Some(Bytes::from_static(b"a")));
        assert_eq!(s.get_by_time("k", 299), Some(Bytes::from_static(b"b")));
        assert_eq!(s.get_by_time("k", u64::MAX), Some(Bytes::from_static(b"c")));
    }

    #[test]
    fn get_by_version_tracks_store_versions() {
        let mut s = LocalStore::new();
        s.put("a", Bytes::from_static(b"1"), 0); // version 1
        s.put("b", Bytes::from_static(b"2"), 0); // version 2
        s.put("a", Bytes::from_static(b"3"), 0); // version 3
        assert_eq!(s.get_by_version("a", 2), Some(Bytes::from_static(b"1")));
        assert_eq!(s.get_by_version("a", 3), Some(Bytes::from_static(b"3")));
        assert_eq!(s.get_by_version("b", 1), None);
    }

    #[test]
    fn replay_reconstructs_state() {
        let mut s = LocalStore::new();
        s.put("a", Bytes::from_static(b"1"), 10);
        s.put("b", Bytes::from_static(b"2"), 20);
        s.delete("a", 30);
        let replayed = LocalStore::replay(s.log());
        assert_eq!(replayed.get("a"), None);
        assert_eq!(replayed.get("b"), Some(Bytes::from_static(b"2")));
        assert_eq!(replayed.current_version(), s.current_version());
        assert_eq!(replayed.log(), s.log());
    }

    #[test]
    fn len_counts_keys_not_versions() {
        let mut s = LocalStore::new();
        s.put("a", Bytes::from_static(b"1"), 0);
        s.put("a", Bytes::from_static(b"2"), 0);
        s.put("b", Bytes::from_static(b"3"), 0);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
