//! The canonical event trace: an unbounded telemetry [`TraceRing`] into
//! which a [`ChaosObserver`] appends every protocol upcall and the
//! harness every fault application and workload action
//! ([`TraceKind::Note`]). [`trace_hash`] folds it into a single `u64`
//! that must be byte-identical across runs of the same
//! `(plan, workload, seed)`.

use stabilizer_core::{fnv1a_from, AppHooks, Event, FNV1A_OFFSET};
use stabilizer_dsl::NodeId;
use stabilizer_netsim::SimTime;
use stabilizer_telemetry::{MetricsObserver, TraceEvent, TraceKind, TraceRing};
use std::sync::Arc;

/// FNV-1a over a stable encoding of every event: its time, its node
/// (`u16::MAX` for a cluster-wide note), a one-letter tag and the
/// fields, little-endian. Two runs of the same scenario must produce
/// equal hashes; any divergence means nondeterminism leaked into the
/// stack.
pub fn trace_hash(events: &[TraceEvent]) -> u64 {
    let mut h = FNV1A_OFFSET;
    let mut w = |bytes: &[u8]| h = fnv1a_from(h, bytes);
    for ev in events {
        w(&ev.at_nanos.to_le_bytes());
        w(&ev.node.0.to_le_bytes());
        match &ev.kind {
            TraceKind::Deliver { origin, seq, len } => {
                w(b"D");
                w(&origin.0.to_le_bytes());
                w(&seq.to_le_bytes());
                w(&(*len as u64).to_le_bytes());
            }
            TraceKind::Frontier {
                stream,
                key,
                seq,
                generation,
            } => {
                w(b"F");
                w(&stream.0.to_le_bytes());
                w(key.as_bytes());
                w(&seq.to_le_bytes());
                w(&generation.to_le_bytes());
            }
            TraceKind::WaitDone { token } => {
                w(b"W");
                w(&token.to_le_bytes());
            }
            TraceKind::Suspected { peer } => {
                w(b"S");
                w(&peer.0.to_le_bytes());
            }
            TraceKind::CatchUp { stream, seq } => {
                w(b"C");
                w(&stream.0.to_le_bytes());
                w(&seq.to_le_bytes());
            }
            TraceKind::Note { what } => {
                w(b"H");
                w(what.as_bytes());
            }
            // Kinds a chaos run never records hash as their JSONL line.
            _ => w(ev.to_json().as_bytes()),
        }
    }
    h
}

/// The [`AppHooks`] implementation that records every upcall into the
/// run's trace. Attach one per node with `SimNode::new`, as the
/// simulator backend does, so the node keeps the log the invariant
/// checker reads beside it.
/// Optionally fans each upcall out to a telemetry [`MetricsObserver`]
/// so the same simulated run also yields latency histograms.
pub struct ChaosObserver {
    node: NodeId,
    trace: Arc<TraceRing>,
    metrics: Option<MetricsObserver>,
}

impl ChaosObserver {
    /// Observer for node `node` appending into `trace`, and forwarding
    /// every event to `metrics` (a telemetry hub's per-node observer)
    /// when given.
    pub fn new(node: NodeId, trace: Arc<TraceRing>, metrics: Option<MetricsObserver>) -> Self {
        ChaosObserver {
            node,
            trace,
            metrics,
        }
    }
}

impl AppHooks for ChaosObserver {
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        // Every other kind feeds the telemetry hub only: it is NOT part
        // of the canonical trace, so pinned per-seed trace hashes from
        // earlier releases stay valid.
        if matches!(
            event,
            Event::Deliver { .. }
                | Event::Frontier(_)
                | Event::WaitDone { .. }
                | Event::Suspected { .. }
                | Event::CatchUp { .. }
        ) {
            self.trace.push(TraceEvent {
                at_nanos: now.as_nanos(),
                node: self.node,
                kind: self.trace.kind_of(event),
            });
        }
        if let Some(m) = &mut self.metrics {
            m.on_event(now, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_order_and_content_sensitive() {
        let mk = |seq| TraceEvent {
            at_nanos: 5,
            node: NodeId(1),
            kind: TraceKind::Deliver {
                origin: NodeId(0),
                seq,
                len: 10,
            },
        };
        let a = [mk(1), mk(2)];
        let b = [mk(2), mk(1)];
        let c = [mk(1), mk(2)];
        assert_eq!(trace_hash(&a), trace_hash(&c));
        assert_ne!(trace_hash(&a), trace_hash(&b));
        assert_ne!(trace_hash(&a), trace_hash(&[]));
    }
}
