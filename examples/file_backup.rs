//! The Dropbox-like backup scenario (§V-A): store files in the
//! geo-replicated K/V store with user-selected durability, and show the
//! §IV-A topology-aware predicate that traditional mechanisms cannot
//! express ("fully replicated in my availability zone AND on at least
//! one remote site").
//!
//! Run with: `cargo run --example file_backup`

use bytes::Bytes;
use stabilizer::kvstore::build_kv_cluster;
use stabilizer::{ClusterConfig, NodeId};
use stabilizer_netsim::NetTopology;

const CHUNK: usize = 8192;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ClusterConfig::parse(
        "
        az North_California n1 n2
        az North_Virginia   n3 n4 n5 n6
        az Oregon           n7
        az Ohio             n8

        predicate MajorityRegions KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))
    ",
    )?;
    let mut sim = build_kv_cluster(&cfg, NetTopology::ec2_fig2(), 7)?;

    // The §IV-A use case — "fully replicated within the sender's
    // availability zone AND on at least one remote site" — registered at
    // the primary only ($MYAZWNODES is relative to the registering node;
    // at a single-node AZ like Oregon the first MIN would be empty).
    sim.with_ctx(0, |kv, ctx| {
        kv.register_predicate_in(
            ctx,
            "AzPlusRemote",
            "MIN(MIN($MYAZWNODES-$MYWNODE), MAX($ALLWNODES-$MYAZWNODES))",
        )
    })?;

    // A 100 KiB "photo" uploaded at the North California primary.
    let photo: Vec<u8> = (0..100 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let mut last_seq = 0;
    for (i, chunk) in photo.chunks(CHUNK).enumerate() {
        last_seq = sim.with_ctx(0, |kv, ctx| {
            kv.put_in(
                ctx,
                &format!("photos/beach.jpg/{i}"),
                Bytes::copy_from_slice(chunk),
            )
        })?;
    }
    println!(
        "uploaded {} chunks; waiting for the chosen durability level...",
        last_seq
    );

    // Backup SLA 1: a majority of remote regions hold the file.
    let majority = sim.with_ctx(0, |kv, ctx| kv.waitfor_in(ctx, "MajorityRegions", last_seq))?;
    // Backup SLA 2: survive the primary's data center *and* the region.
    let az_remote = sim.with_ctx(0, |kv, ctx| kv.waitfor_in(ctx, "AzPlusRemote", last_seq))?;

    sim.run_until_idle();
    for (name, token) in [("MajorityRegions", majority), ("AzPlusRemote", az_remote)] {
        let (at, _) = sim
            .actor(0)
            .driver()
            .completed_waits
            .iter()
            .find(|(_, t)| *t == token)
            .expect("backup completed");
        println!("{name:>16}: durable after {:.2} ms", at.as_millis_f64());
    }

    // Any mirror serves reads; verify the file survives byte-for-byte at
    // Ohio (n8), the far side of the continent.
    let mut restored = Vec::new();
    for i in 0..photo.chunks(CHUNK).len() {
        restored.extend_from_slice(
            &sim.actor(7)
                .get(NodeId(0), &format!("photos/beach.jpg/{i}"))
                .expect("chunk mirrored"),
        );
    }
    assert_eq!(restored, photo);
    println!(
        "restored {} bytes from the Ohio mirror — contents identical",
        restored.len()
    );
    Ok(())
}
