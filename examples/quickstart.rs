//! Quickstart: define a consistency model in the DSL, publish data, and
//! watch its stability frontier advance across a simulated WAN.
//!
//! Run with: `cargo run --example quickstart`

use bytes::Bytes;
use stabilizer::core::sim_driver::build_cluster;
use stabilizer::{ClusterConfig, NodeId};
use stabilizer_netsim::NetTopology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the deployment: the paper's Fig. 2 topology — four AWS
    //    regions, eight data centers — plus three consistency models of
    //    increasing strength, written as stability-frontier predicates.
    let cfg = ClusterConfig::parse(
        "
        az North_California n1 n2
        az North_Virginia   n3 n4 n5 n6
        az Oregon           n7
        az Ohio             n8

        # 'Some remote node has a copy.'
        predicate OneWNode  MAX($ALLWNODES-$MYWNODE)
        # 'A majority of remote regions have a copy.'
        predicate MajorityRegions KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))
        # 'Every node everywhere has a copy.'
        predicate AllWNodes MIN($ALLWNODES-$MYWNODE)
    ",
    )?;

    // 2. Boot the cluster on the emulated EC2 WAN (Table I link
    //    characteristics, deterministic virtual time).
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 42)?;

    // 3. Publish a record at the primary (n1). It is locally stable
    //    immediately; remote stability arrives with the WAN.
    let seq = sim.with_ctx(0, |node, ctx| {
        node.publish_in(ctx, Bytes::from_static(b"checkpoint #1"))
    })?;
    println!("published message {seq} at n1");

    // 4. Run the world and observe when each consistency model was
    //    satisfied — weaker models stabilize sooner.
    sim.run_until_idle();
    for key in ["OneWNode", "MajorityRegions", "AllWNodes"] {
        let at = sim
            .actor(0)
            .covered_at(NodeId(0), key, seq)
            .expect("predicate satisfied");
        println!("{key:>16} satisfied after {:.2} ms", at.as_millis_f64());
    }

    // 5. The application blocks on exactly the level it needs:
    let seq2 = sim.with_ctx(0, |node, ctx| {
        node.publish_in(ctx, Bytes::from_static(b"checkpoint #2"))
    })?;
    let token = sim.with_ctx(0, |node, ctx| {
        node.waitfor_in(ctx, NodeId(0), "MajorityRegions", seq2)
    })?;
    sim.run_until_idle();
    let (done_at, _) = sim
        .actor(0)
        .completed_waits
        .iter()
        .find(|(_, t)| *t == token)
        .expect("waitfor completed");
    println!("waitfor(MajorityRegions, {seq2}) completed at t={done_at}");
    Ok(())
}
