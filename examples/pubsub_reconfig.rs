//! The dynamic-reconfiguration scenario (§VI-D): a reliable-broadcast
//! pub/sub publisher that drops the slowest site from its stability
//! predicate while that site has no subscribers, cutting end-to-end
//! latency — then restores it when the subscriber returns.
//!
//! Run with: `cargo run --example pubsub_reconfig`

use stabilizer::pubsub::{build_brokers, pubsub_cfg, PublishLoad};
use stabilizer_netsim::{NetTopology, SimDuration, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = pubsub_cfg();
    let mut sim = build_brokers(&cfg, NetTopology::cloudlab_table2(), 11)?;
    for i in 1..5 {
        sim.actor_mut(i).subscribe();
    }

    // Track "every site with subscribers has the message".
    sim.with_ctx(0, |b, ctx| {
        b.set_predicate(ctx, "track", "MIN($ALLWNODES-$MYWNODE)", false)
    })?;
    sim.with_ctx(0, |b, ctx| {
        b.start_publishing(
            ctx,
            PublishLoad {
                count: 800,
                interval: SimDuration::from_millis(12),
                size: 8192,
            },
        )
    });

    // After 3 seconds the Clemson subscriber leaves: the broker switches
    // to a three-sites predicate and stops waiting for the slowest site.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    sim.actor_mut(3).unsubscribe();
    sim.with_ctx(0, |b, ctx| {
        b.set_predicate(ctx, "track", "KTH_MAX(3, $ALLWNODES-$MYWNODE)", true)
    })?;
    println!("t=3s: Clemson unsubscribed; predicate narrowed to three sites");

    // At 6 seconds it comes back.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(6));
    sim.actor_mut(3).subscribe();
    sim.with_ctx(0, |b, ctx| {
        b.set_predicate(ctx, "track", "MIN($ALLWNODES-$MYWNODE)", true)
    })?;
    println!("t=6s: Clemson re-subscribed; predicate widened to all sites");
    sim.run_until_idle();

    // Per-message latency against the tracked predicate.
    let broker = sim.actor(0);
    // Average latency per second of the run.
    let secs = 1 + broker
        .send_times
        .last()
        .map(|t| t.as_secs_f64() as usize)
        .unwrap_or(0);
    let mut buckets = vec![(0.0f64, 0u32); secs + 1];
    for (sent, latency) in broker.send_times.iter().zip(broker.latencies("track")) {
        if let Some(latency) = latency {
            let b = sent.as_secs_f64() as usize;
            buckets[b].0 += latency.as_millis_f64();
            buckets[b].1 += 1;
        }
    }
    println!("\nsecond  avg latency (ms)");
    for (sec, (sum, n)) in buckets.iter().enumerate() {
        if *n > 0 {
            println!("{sec:>6}  {:>8.2}", sum / *n as f64);
        }
    }
    println!("\nExpected shape: ~51 ms (Clemson-gated) in seconds 0-2 and 6+,");
    println!("dropping to ~48 ms (Massachusetts-gated) in seconds 3-5.");
    Ok(())
}
