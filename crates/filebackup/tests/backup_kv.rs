//! Small-scale check of the §V-A layering: files stored as chunk records
//! in the geo-replicated K/V store under `file/<id>/<chunk>` keys, with
//! a stability predicate gating when the backup is considered durable.

use bytes::Bytes;
use stabilizer_core::{ClusterConfig, NodeId};
use stabilizer_filebackup::CHUNK_BYTES;
use stabilizer_kvstore::build_kv_cluster;
use stabilizer_netsim::NetTopology;

#[test]
fn file_chunks_layer_over_the_kv_store() {
    let cfg = ClusterConfig::parse(
        "az North_California n1 n2\n\
         az North_Virginia n3 n4 n5 n6\n\
         az Oregon n7\n\
         az Ohio n8\n\
         predicate MajorityRegions KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))\n",
    )
    .unwrap();
    let mut sim = build_kv_cluster(&cfg, NetTopology::ec2_fig2(), 9).unwrap();

    // A 20 KiB file becomes three chunk records.
    let file: Vec<u8> = (0..20 * 1024).map(|i| (i % 251) as u8).collect();
    let chunks: Vec<&[u8]> = file.chunks(CHUNK_BYTES as usize).collect();
    let mut last_seq = 0;
    for (i, chunk) in chunks.iter().enumerate() {
        last_seq = sim
            .with_ctx(0, |kv, ctx| {
                kv.put_in(ctx, &format!("file/42/{i}"), Bytes::copy_from_slice(chunk))
            })
            .unwrap();
    }
    // Wait (in virtual time) for the chosen durability level.
    let token = sim
        .with_ctx(0, |kv, ctx| kv.waitfor_in(ctx, "MajorityRegions", last_seq))
        .unwrap();
    sim.run_until_idle();
    assert!(sim
        .actor(0)
        .driver()
        .completed_waits
        .iter()
        .any(|(_, t)| *t == token));

    // Any mirror can reassemble the file byte-for-byte.
    let mirror = sim.actor(7);
    let mut reassembled = Vec::new();
    for i in 0..chunks.len() {
        reassembled.extend_from_slice(
            &mirror
                .get(NodeId(0), &format!("file/42/{i}"))
                .expect("chunk mirrored"),
        );
    }
    assert_eq!(reassembled, file);
}
