//! The §VI-B experiments: Fig. 5 (trace-driven stability-frontier
//! latency) and Fig. 6 (single-file sync time vs size, predicates vs
//! Paxos).

use crate::service::{build_backup, ec2_backup_cfg};
use crate::trace::{DropboxTrace, CHUNK_BYTES};
use stabilizer_analyze::paper::TABLE3;
use stabilizer_netsim::{NetTopology, SimDuration};
use stabilizer_paxos::build_paxos;

/// Result of the trace-driven run: for each predicate, the per-message
/// frontier latency series (indexed by sequence number − 1).
#[derive(Debug)]
pub struct Fig5Result {
    /// `(predicate name, latencies)` in Table III order.
    pub series: Vec<(String, Vec<Option<SimDuration>>)>,
    /// Total messages sent.
    pub messages: u64,
}

/// Run the Fig. 5 trace-driven experiment at the given trace `scale`
/// (1.0 = the paper's full 3.87 GB / ≈517 k messages).
pub fn fig5_run(scale: f64, seed: u64) -> Fig5Result {
    fig5_run_on(NetTopology::ec2_fig2(), scale, seed)
}

/// [`fig5_run`] with per-message link jitter (the authors' physical
/// testbed had natural latency variance between the four North Virginia
/// servers, which is what separates MajorityWNodes from AllWNodes in
/// their Fig. 5; a jitter-free emulation collapses the two).
pub fn fig5_run_jittered(scale: f64, jitter_ms: f64, seed: u64) -> Fig5Result {
    let net = NetTopology::ec2_fig2()
        .with_jitter(stabilizer_netsim::SimDuration::from_millis_f64(jitter_ms));
    fig5_run_on(net, scale, seed)
}

/// [`fig5_run`] with every node reporting into `hub`: alongside the
/// returned latency series, the hub's `stab_stability_latency_ns{key}`
/// histograms hold the same distribution (per Table III predicate) and
/// the per-node counters account publishes/deliveries/frontier
/// advances — the telemetry-native view of the experiment.
pub fn fig5_run_with_telemetry(
    scale: f64,
    seed: u64,
    hub: &std::sync::Arc<stabilizer_telemetry::Telemetry>,
) -> Fig5Result {
    fig5_run_inner(NetTopology::ec2_fig2(), scale, seed, Some(hub.clone()))
}

fn fig5_run_on(net: NetTopology, scale: f64, seed: u64) -> Fig5Result {
    fig5_run_inner(net, scale, seed, None)
}

fn fig5_run_inner(
    net: NetTopology,
    scale: f64,
    seed: u64,
    telemetry: Option<std::sync::Arc<stabilizer_telemetry::Telemetry>>,
) -> Fig5Result {
    let cfg = ec2_backup_cfg();
    let mut sim =
        crate::service::build_backup_with_telemetry(&cfg, net, seed, telemetry).expect("cfg valid");
    let trace = DropboxTrace::generate(seed, scale);
    sim.with_ctx(0, |n, ctx| n.schedule_trace(ctx, &trace));
    sim.run_until_idle();
    let primary = sim.actor(0);
    let series = TABLE3
        .iter()
        .map(|(key, _)| ((*key).to_owned(), primary.frontier_latencies(key)))
        .collect();
    Fig5Result {
        series,
        messages: primary.send_times.len() as u64,
    }
}

/// One Fig. 6 point: time to fully synchronize a single file.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// File size in bytes.
    pub size: u64,
    /// `(series name, sync time)` for the three predicates and Paxos.
    pub sync_times: Vec<(String, SimDuration)>,
}

/// The Fig. 6 series names, in plot order.
pub const FIG6_SERIES: [&str; 4] = ["MajorityRegions", "MajorityWNodes", "OneWNode", "PhxPaxos"];

/// Measure one Fig. 6 point: a single file of `size` bytes synchronized
/// alone (no queueing from other files), under each predicate and under
/// the multi-Paxos baseline on the same topology.
pub fn fig6_point(size: u64, seed: u64) -> Fig6Point {
    let cfg = ec2_backup_cfg();
    let mut sim = build_backup(&cfg, NetTopology::ec2_fig2(), seed).expect("cfg valid");
    let span = sim
        .with_ctx(0, |n, ctx| n.store_file(ctx, size))
        .expect("buffer fits one file");
    sim.run_until_idle();
    let primary = sim.actor(0);

    let mut sync_times = Vec::new();
    for key in ["MajorityRegions", "MajorityWNodes", "OneWNode"] {
        let t = primary.file_sync_times(key)[0].expect("file synchronized");
        sync_times.push((key.to_owned(), t));
    }
    sync_times.push(("PhxPaxos".to_owned(), paxos_sync_time(size, seed)));
    let _ = span;
    Fig6Point { size, sync_times }
}

/// Synchronize one file through the Paxos baseline: each 8 KiB chunk is
/// one log entry proposed at the leader (n1); the file is synchronized
/// when its last entry commits.
pub fn paxos_sync_time(size: u64, seed: u64) -> SimDuration {
    let mut sim = build_paxos(NetTopology::ec2_fig2(), seed);
    // Prepare the leader out of band (steady-state multi-Paxos).
    sim.with_ctx(0, |p, ctx| p.start_leadership_in(ctx));
    sim.run_until_idle();
    let start = sim.now();
    let chunks = size.div_ceil(CHUNK_BYTES).max(1);
    let mut last_id = 0;
    for i in 0..chunks {
        let chunk_size = if i + 1 == chunks && !size.is_multiple_of(CHUNK_BYTES) {
            (size % CHUNK_BYTES) as usize
        } else {
            CHUNK_BYTES as usize
        };
        last_id = sim.with_ctx(0, |p, ctx| p.propose_in(ctx, chunk_size));
    }
    sim.run_until_idle();
    sim.actor(0)
        .commit_time_of(last_id)
        .expect("file committed")
        .since(start)
}

/// Average improvement of `a` over `b` across Fig. 6 points, in percent
/// (the paper reports MajorityRegions improving 24.75% over PhxPaxos).
pub fn average_improvement(points: &[Fig6Point], a: &str, b: &str) -> f64 {
    let mut sum = 0.0;
    let mut n = 0.0;
    for p in points {
        let t = |name: &str| {
            p.sync_times
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, d)| d.as_secs_f64())
                .expect("series present")
        };
        sum += (t(b) - t(a)) / t(b) * 100.0;
        n += 1.0;
    }
    sum / n
}

/// The paper's Fig. 6 x-axis: file sizes from 1 KB to 100 MB.
pub fn fig6_sizes() -> Vec<u64> {
    vec![
        1 << 10,
        8 << 10,
        64 << 10,
        512 << 10,
        4 << 20,
        32 << 20,
        100 << 20,
    ]
}

/// Summarize a Fig. 5 series: mean and max latency plus the latency of
/// every `sample_every`-th message (for plotting).
pub fn summarize(latencies: &[Option<SimDuration>], sample_every: usize) -> Fig5Summary {
    let mut sum = 0.0;
    let mut n = 0u64;
    let mut max = SimDuration::ZERO;
    let mut samples = Vec::new();
    for (i, l) in latencies.iter().enumerate() {
        if let Some(l) = l {
            sum += l.as_secs_f64();
            n += 1;
            if *l > max {
                max = *l;
            }
            if i % sample_every == 0 {
                samples.push((i as u64, *l));
            }
        }
    }
    Fig5Summary {
        mean: if n > 0 {
            SimDuration::from_secs_f64(sum / n as f64)
        } else {
            SimDuration::ZERO
        },
        max,
        covered: n,
        samples,
    }
}

/// Aggregates of one Fig. 5 series.
#[derive(Debug, Clone)]
pub struct Fig5Summary {
    /// Mean frontier latency.
    pub mean: SimDuration,
    /// Worst (spike) latency.
    pub max: SimDuration,
    /// Messages covered by the predicate by the end of the run.
    pub covered: u64,
    /// `(seq, latency)` samples for plotting.
    pub samples: Vec<(u64, SimDuration)>,
}
