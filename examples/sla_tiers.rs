//! The paper's §I motivation, made concrete: one deployment, three
//! applications with different consistency/performance needs — a
//! banking ledger (stronger safety, tolerates latency), a shopping cart
//! (responsiveness first), and a backup service selling SLA tiers —
//! each expressed as a stability-frontier predicate over the same data
//! plane.
//!
//! Run with: `cargo run --example sla_tiers`

use bytes::Bytes;
use stabilizer::core::sim_driver::build_cluster;
use stabilizer::{ClusterConfig, NodeId};
use stabilizer_netsim::NetTopology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ClusterConfig::parse(
        "
        az North_California n1 n2
        az North_Virginia   n3 n4 n5 n6
        az Oregon           n7
        az Ohio             n8

        # Banking: every replica everywhere, at the *persisted* level.
        predicate Ledger MIN(($ALLWNODES-$MYWNODE).persisted)
        # Shopping cart: fire-and-forget responsiveness; any single copy.
        predicate Cart MAX($ALLWNODES-$MYWNODE)
        # Backup SLA bronze/silver/gold: one region / majority / all.
        predicate Bronze MAX(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))
        predicate Silver KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))
        predicate Gold   MIN(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))
    ",
    )?;
    let mut sim = build_cluster(&cfg, NetTopology::ec2_fig2(), 3)?;
    let seq = sim.with_ctx(0, |n, ctx| {
        n.publish_in(ctx, Bytes::from_static(b"txn|cart|backup"))
    })?;
    sim.run_until_idle();

    println!("one write, five consistency contracts:\n");
    for key in ["Cart", "Bronze", "Silver", "Gold", "Ledger"] {
        let at = sim
            .actor(0)
            .covered_at(NodeId(0), key, seq)
            .expect("satisfied")
            .as_millis_f64();
        println!("  {key:>7}: confirmed after {at:7.2} ms");
    }
    println!("\nThe application picks the contract per operation — no");
    println!("system-wide consistency level to compromise on (§I).");
    Ok(())
}
