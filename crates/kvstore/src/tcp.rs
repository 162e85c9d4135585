//! The geo-replicated K/V store over the real TCP runtime: the same
//! §V-A integration as [`crate::geo`], attached to a
//! [`NodeHandle`] instead of the
//! simulator — `put` publishes a [`KvOp`] record, the delivery upcall
//! applies mirrored records to per-origin pools, and stability queries
//! go through the blocking §III-D API.

use crate::local::LocalStore;
use crate::record::KvOp;
use bytes::Bytes;
use parking_lot::Mutex;
use stabilizer_core::{CoreError, NodeId, SeqNo};
use stabilizer_transport::NodeHandle;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// A geo K/V node running on the TCP runtime. Clone-cheap.
#[derive(Clone)]
pub struct GeoKvHandle {
    handle: NodeHandle,
    pools: Arc<Mutex<Vec<LocalStore>>>,
}

impl GeoKvHandle {
    /// Attach K/V semantics to a running Stabilizer node: mirrored
    /// records are applied to per-origin pools as they are delivered.
    pub fn attach(handle: NodeHandle, num_nodes: usize) -> Self {
        let pools = Arc::new(Mutex::new(
            (0..num_nodes)
                .map(|_| LocalStore::new())
                .collect::<Vec<_>>(),
        ));
        {
            let pools = Arc::clone(&pools);
            handle.on_deliver(move |origin, _seq, payload| match KvOp::decode(payload) {
                Ok(op) => {
                    pools.lock()[origin.0 as usize].apply(op);
                }
                Err(_) => debug_assert!(false, "undecodable KV record from {origin}"),
            });
        }
        GeoKvHandle { handle, pools }
    }

    /// The underlying Stabilizer handle (predicates, waitfor, monitors).
    pub fn stabilizer(&self) -> &NodeHandle {
        &self.handle
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.handle.id()
    }

    /// Write `value` under `key` in this node's pool; locally stable on
    /// return, mirrored asynchronously.
    ///
    /// # Errors
    ///
    /// Backpressure (after `timeout`) or payload-size errors, or
    /// [`CoreError::Wire`] for a key longer than 65 535 bytes; a refused
    /// put is neither published nor applied.
    pub fn put(&self, key: &str, value: Bytes, timeout: Duration) -> Result<SeqNo, CoreError> {
        let op = KvOp::Put {
            key: key.to_owned(),
            value,
            timestamp: now_nanos(),
        };
        let seq = self.handle.publish(op.to_bytes()?, timeout)?;
        self.pools.lock()[self.id().0 as usize].apply(op);
        Ok(seq)
    }

    /// Tombstone `key` in this node's pool.
    ///
    /// # Errors
    ///
    /// As [`GeoKvHandle::put`].
    pub fn delete(&self, key: &str, timeout: Duration) -> Result<SeqNo, CoreError> {
        let op = KvOp::Delete {
            key: key.to_owned(),
            timestamp: now_nanos(),
        };
        let seq = self.handle.publish(op.to_bytes()?, timeout)?;
        self.pools.lock()[self.id().0 as usize].apply(op);
        Ok(seq)
    }

    /// Latest mirrored value of `key` from `owner`'s pool.
    pub fn get(&self, owner: NodeId, key: &str) -> Option<Bytes> {
        self.pools.lock()[owner.0 as usize].get(key)
    }

    /// `key` from `owner`'s pool as of `timestamp` nanos.
    pub fn get_by_time(&self, owner: NodeId, key: &str, timestamp: u64) -> Option<Bytes> {
        self.pools.lock()[owner.0 as usize].get_by_time(key, timestamp)
    }

    /// Block until `predicate` covers `seq` on this node's stream
    /// (the `get_stability_frontier`-driven wait of §V-A).
    ///
    /// # Errors
    ///
    /// Unknown predicate key.
    pub fn wait_sync(
        &self,
        predicate: &str,
        seq: SeqNo,
        timeout: Duration,
    ) -> Result<bool, CoreError> {
        self.handle.waitfor(self.id(), predicate, seq, timeout)
    }
}

impl std::fmt::Debug for GeoKvHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeoKvHandle")
            .field("me", &self.id())
            .finish()
    }
}

fn now_nanos() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}
