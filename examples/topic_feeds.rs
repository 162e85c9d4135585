//! Multi-topic pub/sub (the paper's deferred extension, implemented):
//! brokers gossip subscriptions over their own Stabilizer streams, and
//! each publisher maintains a per-topic stability predicate over exactly
//! the sites that subscribe — so a topic with nearby subscribers
//! stabilizes fast while one with far subscribers waits only for them.
//!
//! Run with: `cargo run --example topic_feeds`

use bytes::Bytes;
use stabilizer::pubsub::{build_topic_brokers, pubsub_cfg};
use stabilizer_netsim::NetTopology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // CloudLab sites: UT1(0) UT2(1) WI(2) CLEM(3) MA(4).
    let mut sim = build_topic_brokers(&pubsub_cfg(), NetTopology::cloudlab_table2(), 5)?;

    // "markets" interests the LAN neighbor; "alerts" interests everyone.
    sim.with_ctx(1, |b, ctx| b.subscribe_in(ctx, "markets"))?;
    for site in 1..5 {
        sim.with_ctx(site, |b, ctx| b.subscribe_in(ctx, "alerts"))?;
    }
    sim.run_until_idle(); // let subscriptions gossip

    let publisher = 0usize;
    println!(
        "subscribers(markets) = {:?}",
        sim.actor(publisher).subscribers("markets")
    );
    println!(
        "subscribers(alerts)  = {:?}",
        sim.actor(publisher).subscribers("alerts")
    );

    let m = sim.with_ctx(publisher, |b, ctx| {
        b.publish_in(ctx, "markets", Bytes::from_static(b"SPX 5000"))
    })?;
    let a = sim.with_ctx(publisher, |b, ctx| {
        b.publish_in(ctx, "alerts", Bytes::from_static(b"quake!"))
    })?;
    sim.run_until_idle();

    let p = sim.actor(publisher);
    for (topic, seq) in [("markets", m), ("alerts", a)] {
        let covered = p.topic_covered_at(topic, seq).expect("topic stabilized");
        let sent = p.send_times[seq as usize - 1];
        println!(
            "{topic:>8}: all subscribers have it after {:.2} ms",
            covered.since(sent).as_millis_f64()
        );
    }
    println!("\nmarkets stabilizes in ~0.1 ms (LAN subscriber only);");
    println!("alerts waits ~51 ms for Clemson, its slowest subscriber.");
    Ok(())
}
