//! The traffic counters `metrics()` exposes, as the benchmark reads
//! them: summed over a cluster's nodes, and reported per message as the
//! difference between two readings.

use crate::report::Report;
use stabilizer_core::Metrics;

/// Control messages sent, ACK cells sent, received and stale, predicate
/// evaluations, frontier updates, retransmits — in that order.
pub type Counts = [u64; 7];

/// Sum the counters of every node of a cluster.
pub fn sum(nodes: impl Iterator<Item = Metrics>) -> Counts {
    let mut total = Counts::default();
    for m in nodes {
        let node = [
            m.control_msgs_sent,
            m.acks_sent,
            m.acks_received,
            m.acks_stale,
            m.predicate_evals,
            m.frontier_updates,
            m.retransmits,
        ];
        for (t, v) in total.iter_mut().zip(node) {
            *t += v;
        }
    }
    total
}

/// What happened between two readings.
pub fn since(before: &Counts, after: &Counts) -> Counts {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Set the per-message count metrics from the counts of a phase that
/// published `msgs` messages.
pub fn set(report: &mut Report, counts: &Counts, msgs: f64) {
    let [ctrl, acks_sent, acks_received, acks_stale, evals, updates, retransmits] =
        counts.map(|v| v as f64);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    report.set("core.node.ctrl_msgs_per_msg", ctrl / msgs);
    report.set("core.node.acks_sent_per_msg", acks_sent / msgs);
    report.set("core.recorder.acks_received_per_msg", acks_received / msgs);
    report.set(
        "core.recorder.stale_ack_ratio",
        ratio(acks_stale, acks_received),
    );
    report.set("core.frontier.evals_per_msg", evals / msgs);
    report.set("core.frontier.updates_per_eval", ratio(updates, evals));
    report.set("core.node.retransmits_per_msg", retransmits / msgs);
}
