//! Chaos soak: every node publishes its own stream concurrently while
//! links are cut, healed, and made lossy, and predicates are changed at
//! runtime. After the chaos heals, every invariant must hold: FIFO
//! delivery of every stream at every node, frontier convergence, full
//! buffer reclamation.

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stabilizer_core::sim_driver::build_cluster;
use stabilizer_core::{ClusterConfig, Delivery, NodeId, Options, RECEIVED};
use stabilizer_netsim::{LinkSpec, NetTopology, SimDuration, SimTime};

fn chaos_run(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(4..=6);

    let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
    let mut cfg_text = format!("az Z {}\n", names.join(" "));
    cfg_text.push_str("predicate All MIN($ALLWNODES-$MYWNODE)\n");
    cfg_text.push_str("predicate Majority KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)\n");
    let opts = Options::default().retransmit_millis(50);
    let cfg = ClusterConfig::parse(&cfg_text).unwrap().with_options(opts);

    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut net = NetTopology::new(&refs);
    for a in 0..n {
        for b in (a + 1)..n {
            net.set_symmetric(
                a,
                b,
                LinkSpec::from_rtt_mbit(rng.gen_range(2..40) as f64, 200.0),
            );
        }
    }
    let mut sim = build_cluster(&cfg, net, seed).unwrap();

    let mut published = vec![0u64; n];
    let mut cut: Vec<(usize, usize)> = Vec::new();
    for _phase in 0..12 {
        // Random publishes from random origins.
        for _ in 0..rng.gen_range(1..8) {
            let origin = rng.gen_range(0..n);
            let size = rng.gen_range(1..2048);
            if sim
                .with_ctx(origin, |node, ctx| {
                    node.publish_in(ctx, Bytes::from(vec![0u8; size]))
                })
                .is_ok()
            {
                published[origin] += 1;
            }
        }
        // Random chaos: cut a link, heal a link, or add loss.
        match rng.gen_range(0..4) {
            0 => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b && cut.len() < n / 2 {
                    sim.set_link_up(a, b, false);
                    cut.push((a, b));
                }
            }
            1 => {
                if let Some((a, b)) = cut.pop() {
                    sim.set_link_up(a, b, true);
                }
            }
            2 => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b {
                    sim.set_link_loss(a, b, rng.gen_range(0.0..0.25));
                }
            }
            _ => {
                // Predicate churn at a random node on its own stream.
                let who = rng.gen_range(0..n);
                let flip = if rng.gen_bool(0.5) {
                    "MAX($ALLWNODES-$MYWNODE)"
                } else {
                    "MIN($ALLWNODES-$MYWNODE)"
                };
                let me = NodeId(who as u16);
                sim.with_ctx(who, |node, ctx| {
                    node.change_predicate_in(ctx, me, "All", flip)
                })
                .unwrap();
            }
        }
        sim.run_for(SimDuration::from_millis(rng.gen_range(10..200)));
    }

    // Heal everything and let the system converge (retransmit timers
    // re-arm forever, so drive bounded slices until quiescent).
    for a in 0..n {
        for b in 0..n {
            if a != b {
                sim.set_link_up(a, b, true);
                sim.set_link_loss(a, b, 0.0);
            }
        }
    }
    // Restore the canonical predicate everywhere.
    for who in 0..n {
        let me = NodeId(who as u16);
        sim.with_ctx(who, |node, ctx| {
            node.change_predicate_in(ctx, me, "All", "MIN($ALLWNODES-$MYWNODE)")
        })
        .unwrap();
    }
    let deadline = sim.now() + SimDuration::from_secs(120);
    loop {
        sim.run_for(SimDuration::from_millis(200));
        let done = (0..n).all(|origin| {
            let (f, _) = sim
                .actor(origin)
                .inner()
                .stability_frontier(NodeId(origin as u16), "All")
                .unwrap();
            f >= published[origin]
        });
        if done || sim.now() >= deadline {
            break;
        }
    }

    // Invariants.
    for (origin, &expect) in published.iter().enumerate() {
        let (frontier, _) = sim
            .actor(origin)
            .inner()
            .stability_frontier(NodeId(origin as u16), "All")
            .unwrap();
        assert_eq!(
            frontier, expect,
            "seed {seed}: stream {origin} stalled at {frontier}/{expect}"
        );
        assert_eq!(
            sim.actor(origin).inner().send_buffer_bytes(),
            0,
            "seed {seed}: stream {origin} buffer not reclaimed"
        );
        for receiver in 0..n {
            if receiver == origin {
                continue;
            }
            // Full receipt...
            assert_eq!(
                sim.actor(receiver).inner().recorder().get(
                    NodeId(origin as u16),
                    NodeId(receiver as u16),
                    RECEIVED
                ),
                expect,
                "seed {seed}: receiver {receiver} missing data of {origin}"
            );
            // ...delivered in FIFO order, exactly once.
            let seqs: Vec<u64> = sim
                .actor(receiver)
                .delivery_log
                .iter()
                .filter(|(_, o, _, d)| {
                    o.0 as usize == origin && matches!(d, Delivery::Upcall { .. })
                })
                .map(|(_, _, s, _)| *s)
                .collect();
            assert_eq!(
                seqs,
                (1..=expect).collect::<Vec<u64>>(),
                "seed {seed}: receiver {receiver} broke FIFO for stream {origin}"
            );
        }
    }
    let _ = SimTime::ZERO;
}

#[test]
fn chaos_soak_seed_batch_one() {
    for seed in 1..=4 {
        chaos_run(seed);
    }
}

#[test]
fn chaos_soak_seed_batch_two() {
    for seed in 100..=103 {
        chaos_run(seed);
    }
}

#[test]
fn chaos_soak_seed_batch_three() {
    for seed in 7000..=7003 {
        chaos_run(seed);
    }
}
