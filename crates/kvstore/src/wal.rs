//! Write-ahead-log file persistence for [`LocalStore`]: the durability
//! half of the Derecho-object-store substitute, enabling the §III-E
//! recovery flow (restart → replay WAL → re-join → Stabilizer resumes
//! from a persisted snapshot).
//!
//! Format (version 2): `KVWL` magic, u16 version, u64 record count, then
//! each [`KvOp`] of the log byte for byte as [`KvOp::to_bytes`] writes
//! it, all little-endian. The file is read back through core's one
//! [`Reader`] and [`KvOp::read`]; a version-1 file (its own record
//! layout) is refused as an unsupported version.

use crate::local::LocalStore;
use crate::record::KvOp;
use stabilizer_core::{CoreError, Reader};
use std::io::{BufWriter, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"KVWL";
const VERSION: u16 = 2;

/// Serialize a store's write-ahead log to `path` (atomic via temp file +
/// rename; the temp file is synced to disk before the rename, so the
/// name never points at a log the disk does not hold).
///
/// # Errors
///
/// [`CoreError::Wire`] on I/O errors, and for a key longer than 65 535
/// bytes or a value longer than `u32::MAX` bytes, whose lengths do not
/// fit the log: `path` is then left as it was.
pub fn save_wal(store: &LocalStore, path: &Path) -> Result<(), CoreError> {
    let tmp = path.with_extension("wal.tmp");
    if let Err(e) = write_wal(store, &tmp) {
        // What was written is not a log; `path` was never touched.
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    std::fs::rename(&tmp, path).map_err(io)
}

fn io(e: std::io::Error) -> CoreError {
    CoreError::Wire(format!("wal write: {e}"))
}

/// Write and sync the whole log of `store` to `path`.
fn write_wal(store: &LocalStore, path: &Path) -> Result<(), CoreError> {
    let file = std::fs::File::create(path).map_err(io)?;
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC).map_err(io)?;
    w.write_all(&VERSION.to_le_bytes()).map_err(io)?;
    w.write_all(&(store.log().len() as u64).to_le_bytes())
        .map_err(io)?;
    for op in store.log() {
        w.write_all(&op.to_bytes()?).map_err(io)?;
    }
    w.flush().map_err(io)?;
    w.get_ref().sync_all().map_err(io)
}

/// Rebuild a store by replaying the WAL at `path`. What it allocates is
/// bounded by the file's size, whatever counts and lengths the file
/// claims.
///
/// # Errors
///
/// [`CoreError::Wire`] on I/O errors or a corrupt/truncated log.
pub fn load_wal(path: &Path) -> Result<LocalStore, CoreError> {
    let file = std::fs::read(path).map_err(|e| CoreError::Wire(format!("wal read: {e}")))?;
    let mut r = Reader::new("wal", &file);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(r.fail("bad magic"));
    }
    let version = r.le_u16()?;
    if version != VERSION {
        return Err(r.fail(format_args!("unsupported version {version}")));
    }
    let count = r.le_u64()?;
    let count = r.count(count, KvOp::MIN_LEN, "record count")?;
    let mut store = LocalStore::new();
    for _ in 0..count {
        store.apply(KvOp::read(&mut r)?);
    }
    r.finish()?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("stabilizer-wal-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn wal_roundtrips_through_a_file() {
        let mut store = LocalStore::new();
        store.put("a", Bytes::from_static(b"1"), 10);
        store.put("b", Bytes::from_static(b"22"), 20);
        store.delete("a", 30);
        store.put("a", Bytes::from_static(b"333"), 40);

        let path = tmp("roundtrip");
        save_wal(&store, &path).unwrap();
        let restored = load_wal(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(restored.get("a"), Some(Bytes::from_static(b"333")));
        assert_eq!(restored.get("b"), Some(Bytes::from_static(b"22")));
        assert_eq!(restored.get_by_time("a", 35), None); // tombstone era
        assert_eq!(restored.current_version(), store.current_version());
    }

    #[test]
    fn empty_store_roundtrips() {
        let path = tmp("empty");
        save_wal(&LocalStore::new(), &path).unwrap();
        let restored = load_wal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(restored.is_empty());
    }

    #[test]
    fn corrupt_files_are_rejected() {
        let path = tmp("corrupt");
        let mut store = LocalStore::new();
        store.put("k", Bytes::from_static(b"v"), 1);
        save_wal(&store, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Truncations fail.
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert!(load_wal(&path).is_err());
        // Bad magic fails.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(load_wal(&path).is_err());
        // Trailing garbage fails.
        let mut trailing = bytes;
        trailing.push(7);
        std::fs::write(&path, &trailing).unwrap();
        assert!(load_wal(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_version_one_log_is_refused() {
        let path = tmp("v1");
        let mut v1 = b"KVWL".to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &v1).unwrap();
        let err = load_wal(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("unsupported version 1"), "{err}");
    }

    #[test]
    fn missing_file_is_an_error_not_a_panic() {
        assert!(load_wal(std::path::Path::new("/nonexistent/stabilizer.wal")).is_err());
    }

    #[test]
    fn a_key_too_long_for_the_log_is_refused_and_the_old_log_kept() {
        let path = tmp("long-key");
        let (longest, v) = ("k".repeat(u16::MAX.into()), Bytes::from_static(b"v"));
        let mut store = LocalStore::new();
        store.put(&longest, v.clone(), 1);
        save_wal(&store, &path).unwrap();
        assert_eq!(load_wal(&path).unwrap().get(&longest), Some(v.clone()));

        store.put(&"k".repeat(65_536), v.clone(), 2);
        let err = save_wal(&store, &path).unwrap_err();
        assert!(err.to_string().contains("kv key of 65536 bytes"), "{err}");
        // The log saved before is still there, whole.
        assert_eq!(load_wal(&path).unwrap().get(&longest), Some(v));
        assert!(!path.with_extension("wal.tmp").exists());
        std::fs::remove_file(&path).ok();
    }
}
