//! A write-ahead log is read back from a disk the node does not trust:
//! `load_wal` must refuse a file whose counts and lengths claim more
//! than it holds, and what it allocates doing so must be bounded by the
//! file's size, not by a number written in it. Counted with the
//! workspace's per-thread allocator, as `core/tests/hostile_decode.rs`
//! counts the wire decoders.

use stabilizer_core::CoreError;
use stabilizer_kvstore::load_wal;

#[global_allocator]
static ALLOC: stabilizer_testalloc::Counting = stabilizer_testalloc::Counting;

/// The file is read whole, once; the rest is the path handed to the
/// OS and one short error string.
const BESIDE_THE_FILE: usize = 512;

fn header(count: u64) -> Vec<u8> {
    let mut bytes = b"KVWL".to_vec();
    bytes.extend_from_slice(&2u16.to_le_bytes());
    bytes.extend_from_slice(&count.to_le_bytes());
    bytes
}

/// A record with a put tag and an empty key, claiming a value of
/// `value_len` bytes that the file does not hold.
fn put_claiming(value_len: u32) -> Vec<u8> {
    let mut bytes = vec![0];
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&value_len.to_le_bytes());
    bytes
}

#[test]
fn lying_counts_and_lengths_are_refused_within_the_files_size() {
    let mut lying_key = header(1);
    lying_key.push(0);
    lying_key.extend_from_slice(&u16::MAX.to_le_bytes());
    let hostile = [
        // 2^64 - 1 records and not one byte of them.
        header(u64::MAX),
        // The same claim, then a record claiming a 4 GiB value: 29 bytes.
        [header(u64::MAX), put_claiming(u32::MAX)].concat(),
        // One record, as claimed, with the 4 GiB value.
        [header(1), put_claiming(u32::MAX)].concat(),
        // One record whose key is 64 KiB long, in a 17-byte file.
        lying_key,
    ];
    assert_eq!(hostile[1].len(), 29);
    let path = std::env::temp_dir().join(format!("hostile-{}.wal", std::process::id()));
    for input in &hostile {
        std::fs::write(&path, input).unwrap();
        let (cost, loaded) = stabilizer_testalloc::cost(|| load_wal(&path));
        assert!(
            matches!(loaded, Err(CoreError::Wire(_))),
            "{input:?} was not refused"
        );
        assert!(
            cost <= input.len() + BESIDE_THE_FILE,
            "{cost} B allocated refusing the {}-byte log {input:?}",
            input.len()
        );
    }
    std::fs::remove_file(&path).ok();
}
