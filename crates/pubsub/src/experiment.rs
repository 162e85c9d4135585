//! The §VI-C and §VI-D experiments: Fig. 7 (latency and throughput vs
//! sending rate, Stabilizer vs the Pulsar-like baseline) and Fig. 8
//! (dynamic predicate reconfiguration).

use crate::pulsar::{build_pulsar, GcModel, PulsarLoad};
use crate::stab_broker::{build_brokers, PublishLoad};
use stabilizer_core::ClusterConfig;
use stabilizer_netsim::{NetTopology, SimDuration, SimTime};

/// Which system to run a Fig. 7 point on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The Stabilizer pub/sub prototype.
    Stabilizer,
    /// The Pulsar-like baseline.
    PulsarLike,
}

/// Result for one `(system, rate)` point at one subscriber site.
#[derive(Debug, Clone)]
pub struct SiteResult {
    /// Site index in the CloudLab topology.
    pub site: usize,
    /// Site name.
    pub name: String,
    /// Mean end-to-end latency over delivered messages.
    pub avg_latency: SimDuration,
    /// Throughput in Mbit/s: total payload divided by the span from the
    /// first send to the site's last delivery (§VI-C's definition).
    pub throughput_mbit: f64,
    /// Messages that reached the site.
    pub delivered: u64,
    /// Raw per-message end-to-end latencies (nanoseconds, in sequence
    /// order over delivered messages) — feed these to a telemetry
    /// histogram for distribution plots instead of re-running.
    pub latencies_ns: Vec<u64>,
}

/// CloudLab cluster config matching [`NetTopology::cloudlab_table2`],
/// with a publisher-friendly buffer.
pub fn pubsub_cfg() -> ClusterConfig {
    ClusterConfig::parse(
        "az Utah UT1 UT2\n\
         az Wisconsin WI\n\
         az Clemson CLEM\n\
         az Massachusetts MA\n\
         option send_buffer_bytes 2147483647\n",
    )
    .expect("static config parses")
}

/// Run one Fig. 7 point: publish `count` messages of `size` bytes at
/// `rate` msg/s from UT1 and report per-site latency/throughput.
pub fn fig7_point(
    system: System,
    rate: f64,
    count: u64,
    size: usize,
    seed: u64,
) -> Vec<SiteResult> {
    let net = NetTopology::cloudlab_table2();
    let interval = SimDuration::from_secs_f64(1.0 / rate);
    match system {
        System::Stabilizer => {
            let cfg = pubsub_cfg();
            let mut sim = build_brokers(&cfg, net.clone(), seed).expect("cfg valid");
            for i in 1..5 {
                sim.actor_mut(i).subscribe();
            }
            sim.with_ctx(0, |b, ctx| {
                b.start_publishing(
                    ctx,
                    PublishLoad {
                        count,
                        interval,
                        size,
                    },
                )
            });
            sim.run_until_idle();
            let latencies: Vec<_> = (0..net.len())
                .map(|site| sim.actor(0).latencies(&format!("site_{site}")))
                .collect();
            collect(
                &net,
                count,
                size,
                |site, seq| *latencies[site].get(seq as usize - 1)?,
                |site| sim.actor(site).deliveries().iter().map(|(t, _)| *t).max(),
            )
        }
        System::PulsarLike => {
            let mut sim = build_pulsar(net.clone(), GcModel::default(), seed);
            sim.with_ctx(0, |b, ctx| {
                b.start_publishing(
                    ctx,
                    PulsarLoad {
                        count,
                        interval,
                        size,
                    },
                )
            });
            sim.run_until_idle();
            collect(
                &net,
                count,
                size,
                |site, seq| sim.actor(0).latency_of(site, seq),
                |site| sim.actor(site).deliveries.iter().map(|(t, _)| *t).max(),
            )
        }
    }
}

fn collect(
    net: &NetTopology,
    count: u64,
    size: usize,
    latency_of: impl Fn(usize, u64) -> Option<SimDuration>,
    last_delivery: impl Fn(usize) -> Option<SimTime>,
) -> Vec<SiteResult> {
    let mut out = Vec::new();
    for site in 1..net.len() {
        let mut sum_ns = 0u128;
        let mut n = 0u64;
        let mut latencies_ns = Vec::new();
        for seq in 1..=count {
            if let Some(lat) = latency_of(site, seq) {
                sum_ns += lat.as_nanos() as u128;
                latencies_ns.push(lat.as_nanos());
                n += 1;
            }
        }
        let avg = if n > 0 {
            SimDuration::from_nanos((sum_ns / n as u128) as u64)
        } else {
            SimDuration::ZERO
        };
        let span = last_delivery(site)
            .map(|t| t.since(SimTime::ZERO))
            .unwrap_or(SimDuration::ZERO);
        let bits = (count * size as u64 * 8) as f64;
        let throughput = if span > SimDuration::ZERO {
            bits / 1e6 / span.as_secs_f64()
        } else {
            0.0
        };
        out.push(SiteResult {
            site,
            name: net.name(site).to_owned(),
            avg_latency: avg,
            throughput_mbit: throughput,
            delivered: n,
            latencies_ns,
        });
    }
    out
}

/// One Fig. 8 series point: per-second average end-to-end latency of the
/// tracked predicate.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Point {
    /// Second since the run started.
    pub second: u64,
    /// Mean latency of messages sent in that second.
    pub avg_latency: SimDuration,
}

/// Which Fig. 8 configuration to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig8Mode {
    /// Static `all sites` predicate.
    AllSites,
    /// Static `three sites` predicate.
    ThreeSites,
    /// Flip between the two every five seconds (`change_predicate`).
    Changing,
}

const ALL_SITES: &str = "MIN($ALLWNODES-$MYWNODE)";
const THREE_SITES: &str = "KTH_MAX(3, $ALLWNODES-$MYWNODE)";

/// Run the Fig. 8 reliable-broadcast experiment: 1600 × 8 KiB messages at
/// 80 msg/s from UT1, latency measured against the chosen predicate.
pub fn fig8_run(mode: Fig8Mode, seed: u64) -> Vec<Fig8Point> {
    const COUNT: u64 = 1600;
    const RATE: f64 = 80.0;
    const SIZE: usize = 8192;
    let cfg = pubsub_cfg();
    let net = NetTopology::cloudlab_table2();
    let mut sim = build_brokers(&cfg, net, seed).expect("cfg valid");
    for i in 1..5 {
        sim.actor_mut(i).subscribe();
    }
    let initial = match mode {
        Fig8Mode::ThreeSites => THREE_SITES,
        _ => ALL_SITES,
    };
    sim.with_ctx(0, |b, ctx| b.set_predicate(ctx, "track", initial, false))
        .unwrap();
    sim.with_ctx(0, |b, ctx| {
        b.start_publishing(
            ctx,
            PublishLoad {
                count: COUNT,
                interval: SimDuration::from_secs_f64(1.0 / RATE),
                size: SIZE,
            },
        )
    });

    // Drive the run second by second, flipping the predicate every 5 s in
    // Changing mode (the simulated client subscribing/unsubscribing on
    // the slowest site, Clemson).
    let total_secs = (COUNT as f64 / RATE).ceil() as u64;
    let mut use_all = true;
    for sec in 0..=total_secs {
        if mode == Fig8Mode::Changing && sec > 0 && sec % 5 == 0 {
            use_all = !use_all;
            let src = if use_all { ALL_SITES } else { THREE_SITES };
            sim.with_ctx(0, |b, ctx| b.set_predicate(ctx, "track", src, true))
                .unwrap();
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(sec + 1));
    }
    sim.run_until_idle();

    // Latency of each message against the tracked predicate: the first
    // time "track" covered its seq. A generation change may move the
    // frontier backwards; coverage only ever fills *new* sequence
    // numbers, per the paper's "the user should be responsible for
    // handling such a gap".
    let broker = sim.actor(0);
    let mut per_second: Vec<(u128, u64)> = vec![(0, 0); total_secs as usize + 2];
    for (sent, lat) in broker.send_times.iter().zip(broker.latencies("track")) {
        if let Some(lat) = lat {
            let sec = sent.as_secs_f64() as u64;
            per_second[sec as usize].0 += lat.as_nanos() as u128;
            per_second[sec as usize].1 += 1;
        }
    }
    per_second
        .into_iter()
        .enumerate()
        .filter(|(_, (_, n))| *n > 0)
        .map(|(second, (sum, n))| Fig8Point {
            second: second as u64,
            avg_latency: SimDuration::from_nanos((sum / n as u128) as u64),
        })
        .collect()
}
