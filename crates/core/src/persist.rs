//! Snapshot serialization for crash recovery (§III-E).
//!
//! The paper delegates persistence to the integrated storage system
//! ("the Derecho object store can also persist the stability frontier
//! information, which can be used for Stabilizer recovery"). This module
//! gives that system a stable byte format for the control-plane
//! [`Snapshot`]: magic + version header, dimensions, the origin's
//! sequence counter and the dense ACK table, all little-endian, read
//! back through the one bounds-checked [`Reader`].

use crate::error::CoreError;
use crate::messages::Reader;
use crate::node::Snapshot;
use crate::recorder::AckRecorder;
use stabilizer_dsl::{AckTypeId, NodeId};

const MAGIC: &[u8; 4] = b"STBZ";
const VERSION: u16 = 1;

impl Snapshot {
    /// Serialize to a stable byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let nodes = self.recorder.num_nodes();
        let types = self.recorder.num_types();
        let mut out = Vec::with_capacity(4 + 2 + 2 + 2 + 8 + nodes * nodes * types * 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(nodes as u16).to_le_bytes());
        out.extend_from_slice(&(types as u16).to_le_bytes());
        out.extend_from_slice(&self.last_assigned.to_le_bytes());
        for stream in 0..nodes as u16 {
            for node in 0..nodes as u16 {
                for ty in 0..types as u16 {
                    let v = self
                        .recorder
                        .get(NodeId(stream), NodeId(node), AckTypeId(ty));
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Deserialize a snapshot produced by [`Snapshot::to_bytes`], through
    /// the one [`Reader`]. Never allocates more than the table its input
    /// holds: dimensions are checked against the bytes left before
    /// anything is built.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on bad magic, unsupported version, or a
    /// length that is not what the dimensions say.
    pub fn from_bytes(buf: &[u8]) -> Result<Snapshot, CoreError> {
        let mut r = Reader::new("snapshot", buf);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(r.fail("bad magic"));
        }
        let version = r.le_u16()?;
        if version != VERSION {
            return Err(r.fail(format_args!("unsupported version {version}")));
        }
        let (nodes, types) = (r.le_u16()?, r.le_u16()?);
        let last_assigned = r.le_u64()?;
        let table = u64::from(nodes).pow(2) * u64::from(types) * 8;
        if table != r.remaining() as u64 {
            let have = r.remaining();
            return Err(r.fail(format_args!(
                "{have} table bytes for {nodes} nodes and {types} types"
            )));
        }
        let mut recorder = AckRecorder::new(nodes.into(), types.into());
        // Cells in (stream, node, type) order, as `to_bytes` writes them.
        for stream in (0..nodes).map(NodeId) {
            for node in (0..nodes).map(NodeId) {
                for ty in (0..types).map(AckTypeId) {
                    recorder.observe(stream, node, ty, r.le_u64()?);
                }
            }
        }
        Ok(Snapshot {
            recorder,
            last_assigned,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabilizer_dsl::RECEIVED;

    fn sample() -> Snapshot {
        let mut recorder = AckRecorder::new(3, 2);
        recorder.observe(NodeId(0), NodeId(1), RECEIVED, 42);
        recorder.observe(NodeId(2), NodeId(0), AckTypeId(1), 7);
        Snapshot {
            recorder,
            last_assigned: 99,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample();
        let restored = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(restored.last_assigned, 99);
        assert_eq!(restored.recorder.num_nodes(), 3);
        assert_eq!(restored.recorder.num_types(), 2);
        for stream in 0..3u16 {
            for node in 0..3u16 {
                for ty in 0..2u16 {
                    assert_eq!(
                        restored
                            .recorder
                            .get(NodeId(stream), NodeId(node), AckTypeId(ty)),
                        snap.recorder
                            .get(NodeId(stream), NodeId(node), AckTypeId(ty)),
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let bytes = sample().to_bytes();
        assert!(Snapshot::from_bytes(&bytes[..10]).is_err()); // truncated
        assert!(Snapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(Snapshot::from_bytes(&bad_magic).is_err());
        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert!(Snapshot::from_bytes(&bad_version).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(Snapshot::from_bytes(&trailing).is_err());
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = Snapshot {
            recorder: AckRecorder::new(1, 1),
            last_assigned: 0,
        };
        let restored = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(restored.last_assigned, 0);
    }
}
