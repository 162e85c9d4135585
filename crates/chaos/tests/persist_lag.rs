//! A restart resumes from what was persisted, not from the instant of
//! the crash: the randomized scenarios of seeds 1–20 with every
//! crash-restart's snapshot taken a lag before its crash
//! ([`Fault::CrashRestart`]'s `persist_lag`), on both backends — safe
//! throughout, and live once the faults clear. What the node published
//! in the lag is lost with it; a restored node is fenced until its
//! replicas report how far they hold its stream, so it never hands out
//! again a sequence number a replica holds. Without the fence seed 10
//! trips `payload-identity` on the simulator; the transport also runs
//! seed 46, which trips it there.

use rand::prelude::*;
use stabilizer_chaos::{ChaosHarness, ChaosTcpCluster, Fault, FaultEvent, Scenario};
use stabilizer_core::ClusterConfig;
use stabilizer_netsim::SimDuration;

/// Seed `seed`'s scenario with every crash-restart lagged by up to
/// 400 ms (never before the run starts), the lags drawn from a stream of
/// their own so the seed's scenario is otherwise the one
/// `Scenario::from_seed` draws. A correlated crash is first written as
/// the crash-restarts it compiles to, in the same order, so its members
/// — often the publishers — are lagged too.
fn lagged(seed: u64) -> Scenario {
    let mut s = Scenario::from_seed(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E57_1A6D_0000_0001);
    let mut lag = |at: SimDuration| {
        let at_ms = at.as_nanos() / 1_000_000;
        SimDuration::from_millis(rng.gen_range(1..=at_ms.min(400)))
    };
    let mut events = Vec::new();
    for ev in std::mem::take(&mut s.plan.events) {
        match ev.fault {
            Fault::CrashRestart { node, down_for, .. } => events.push(FaultEvent {
                at: ev.at,
                fault: Fault::CrashRestart {
                    node,
                    down_for,
                    persist_lag: lag(ev.at),
                },
            }),
            Fault::CorrelatedCrash {
                nodes,
                spread,
                down_for,
                stagger,
            } => {
                for (k, node) in nodes.into_iter().enumerate() {
                    let at = ev.at + spread.saturating_mul(k as u64);
                    events.push(FaultEvent {
                        at,
                        fault: Fault::CrashRestart {
                            node,
                            down_for: down_for + stagger.saturating_mul(k as u64),
                            persist_lag: lag(at),
                        },
                    });
                }
            }
            fault => events.push(FaultEvent { at: ev.at, fault }),
        }
    }
    s.plan.events = events;
    s
}

/// The seeds in 1–20 whose plan crashes a node.
fn lagged_seeds() -> Vec<(u64, Scenario)> {
    let seeds: Vec<_> = (1..=20)
        .map(|seed| (seed, lagged(seed)))
        .filter(|(_, s)| {
            s.plan
                .events
                .iter()
                .any(|ev| matches!(ev.fault, Fault::CrashRestart { .. }))
        })
        .collect();
    assert!(seeds.len() >= 3, "too few seeds draw a crash");
    seeds
}

#[test]
fn lagged_restarts_are_safe_and_live_on_the_simulator() {
    for (seed, s) in lagged_seeds() {
        let cfg = ClusterConfig::parse(&s.cfg_text).unwrap();
        let net = s.topology.build();
        let mut h = ChaosHarness::new(&cfg, net, seed, &s.plan, s.workload.clone()).unwrap();
        h.run(s.horizon)
            .unwrap_or_else(|v| panic!("lagged seed {seed}: safety violation: {v}"));
        h.verify_liveness(SimDuration::from_secs(30))
            .unwrap_or_else(|v| panic!("lagged seed {seed}: liveness violation: {v}"));
    }
}

#[test]
fn lagged_restarts_are_safe_and_live_on_the_transport() {
    // Seeds 1–20 pass on the transport without the fence; 46 does not.
    for (seed, s) in lagged_seeds().into_iter().chain([(46, lagged(46))]) {
        let cfg = ClusterConfig::parse(&s.cfg_text).unwrap();
        let mut cluster = ChaosTcpCluster::new(&cfg, seed, &s.plan, s.workload.clone()).unwrap();
        cluster
            .run(s.horizon)
            .unwrap_or_else(|v| panic!("lagged seed {seed}: safety violation: {v}"));
        cluster
            .verify_liveness(SimDuration::from_secs(30))
            .unwrap_or_else(|v| panic!("lagged seed {seed}: liveness violation: {v}"));
    }
}
