//! Write-ahead-log file persistence for [`LocalStore`]: the durability
//! half of the Derecho-object-store substitute, enabling the §III-E
//! recovery flow (restart → replay WAL → re-join → Stabilizer resumes
//! from a persisted snapshot).
//!
//! Format: `KVWL` magic + u16 version, then length-prefixed records
//! `(key_len u16, key, timestamp u64, tag u8, [value_len u32, value])`.

use crate::local::{LocalStore, LogRecord};
use crate::record::length;
use bytes::Bytes;
use stabilizer_core::CoreError;
use std::io::{BufWriter, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"KVWL";
const VERSION: u16 = 1;
const TAG_PUT: u8 = 0;
const TAG_DELETE: u8 = 1;

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
    for rec in store.log() {
        let key_len = length::<u16>("wal key", rec.key.len())?;
        w.write_all(&key_len.to_le_bytes()).map_err(io)?;
        w.write_all(rec.key.as_bytes()).map_err(io)?;
        w.write_all(&rec.version.timestamp.to_le_bytes())
            .map_err(io)?;
        match &rec.version.value {
            Some(v) => {
                w.write_all(&[TAG_PUT]).map_err(io)?;
                let len = length::<u32>("wal value", v.len())?;
                w.write_all(&len.to_le_bytes()).map_err(io)?;
                w.write_all(v).map_err(io)?;
            }
            None => w.write_all(&[TAG_DELETE]).map_err(io)?,
        }
    }
    w.flush().map_err(io)?;
    w.get_ref().sync_all().map_err(io)
}

/// The smallest record: key length, an empty key, timestamp and tag.
const MIN_RECORD: usize = 2 + 8 + 1;

fn corrupt(m: &str) -> CoreError {
    CoreError::Wire(format!("wal corrupt: {m}"))
}

/// The bytes of a log not read yet; every read is checked against them
/// before anything is allocated for it.
struct Rest<'a>(&'a [u8]);

impl<'a> Rest<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let (head, rest) = self
            .0
            .split_at_checked(n)
            .ok_or_else(|| corrupt("truncated"))?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CoreError> {
        let (head, rest) = self
            .0
            .split_first_chunk()
            .ok_or_else(|| corrupt("truncated"))?;
        self.0 = rest;
        Ok(*head)
    }
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
    let mut r = Rest(&file);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    if u16::from_le_bytes(r.array()?) != VERSION {
        return Err(corrupt("unsupported version"));
    }
    let count = usize::try_from(u64::from_le_bytes(r.array()?))
        .ok()
        .filter(|&count| count <= r.0.len() / MIN_RECORD)
        .ok_or_else(|| corrupt("more records claimed than the file holds"))?;

    let mut log = Vec::with_capacity(count);
    for _ in 0..count {
        let key_len = u16::from_le_bytes(r.array()?);
        let key = std::str::from_utf8(r.take(key_len.into())?)
            .map_err(|_| corrupt("key not UTF-8"))?
            .to_owned();
        let timestamp = u64::from_le_bytes(r.array()?);
        let value = match r.array()? {
            [TAG_PUT] => {
                let len = usize::try_from(u32::from_le_bytes(r.array()?))
                    .map_err(|_| corrupt("value longer than memory"))?;
                Some(Bytes::copy_from_slice(r.take(len)?))
            }
            [TAG_DELETE] => None,
            [t] => return Err(corrupt(&format!("unknown tag {t}"))),
        };
        log.push(LogRecord {
            key,
            version: crate::local::Version {
                version: 0,
                timestamp,
                value,
            },
        });
    }
    if !r.0.is_empty() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(LocalStore::replay(&log))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(err.to_string().contains("wal key of 65536 bytes"), "{err}");
        // The log saved before is still there, whole.
        assert_eq!(load_wal(&path).unwrap().get(&longest), Some(v));
        assert!(!path.with_extension("wal.tmp").exists());
        std::fs::remove_file(&path).ok();
    }
}
