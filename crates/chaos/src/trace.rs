//! The canonical event trace: an [`AppHooks`] observer appends every
//! protocol upcall, the harness appends every fault application and
//! workload action, and the result hashes to a single `u64` that must be
//! byte-identical across runs of the same `(plan, workload, seed)`.

use stabilizer_core::{AppHooks, Event, SeqNo};
use stabilizer_netsim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// One observed event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A payload delivery upcall.
    Deliver {
        /// Stream origin.
        origin: u16,
        /// Sequence number.
        seq: SeqNo,
        /// Payload length (contents are elided; length feeds the hash).
        len: usize,
    },
    /// A frontier advance upcall.
    Frontier {
        /// Stream whose frontier moved.
        stream: u16,
        /// Predicate key.
        key: String,
        /// New frontier.
        seq: SeqNo,
        /// Predicate generation.
        generation: u32,
    },
    /// A completed `waitfor`.
    WaitDone {
        /// The wait token.
        token: u64,
    },
    /// A suspicion upcall.
    Suspected {
        /// The suspect.
        peer: u16,
    },
    /// A §III-E out-of-band stream fast-forward (state transfer).
    CatchUp {
        /// The fast-forwarded stream.
        stream: u16,
        /// Sequence delivery resumes after.
        seq: SeqNo,
    },
    /// A fault operation or workload action applied by the harness.
    Harness {
        /// Human-readable description (stable across runs).
        what: String,
    },
}

/// A trace event with its virtual time and observing node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time in nanoseconds.
    pub at_nanos: u64,
    /// Observing node (or the acting node, for harness events).
    pub node: u16,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The append-only event trace of one run.
#[derive(Debug, Default)]
pub struct EventTrace {
    /// Events in observation order (deterministic per seed).
    pub events: Vec<TraceEvent>,
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

impl EventTrace {
    /// FNV-1a over a stable encoding of every event. Two runs of the
    /// same scenario must produce equal hashes; any divergence means
    /// nondeterminism leaked into the stack.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for ev in &self.events {
            fnv(&mut h, &ev.at_nanos.to_le_bytes());
            fnv(&mut h, &ev.node.to_le_bytes());
            match &ev.kind {
                TraceEventKind::Deliver { origin, seq, len } => {
                    fnv(&mut h, b"D");
                    fnv(&mut h, &origin.to_le_bytes());
                    fnv(&mut h, &seq.to_le_bytes());
                    fnv(&mut h, &(*len as u64).to_le_bytes());
                }
                TraceEventKind::Frontier {
                    stream,
                    key,
                    seq,
                    generation,
                } => {
                    fnv(&mut h, b"F");
                    fnv(&mut h, &stream.to_le_bytes());
                    fnv(&mut h, key.as_bytes());
                    fnv(&mut h, &seq.to_le_bytes());
                    fnv(&mut h, &generation.to_le_bytes());
                }
                TraceEventKind::WaitDone { token } => {
                    fnv(&mut h, b"W");
                    fnv(&mut h, &token.to_le_bytes());
                }
                TraceEventKind::Suspected { peer } => {
                    fnv(&mut h, b"S");
                    fnv(&mut h, &peer.to_le_bytes());
                }
                TraceEventKind::CatchUp { stream, seq } => {
                    fnv(&mut h, b"C");
                    fnv(&mut h, &stream.to_le_bytes());
                    fnv(&mut h, &seq.to_le_bytes());
                }
                TraceEventKind::Harness { what } => {
                    fnv(&mut h, b"H");
                    fnv(&mut h, what.as_bytes());
                }
            }
        }
        h
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Shared handle: every node's observer and the harness append to one
/// trace. (`Rc`: the simulation is single-threaded by construction.)
pub type SharedTrace = Rc<RefCell<EventTrace>>;

/// Create an empty shared trace.
pub fn shared_trace() -> SharedTrace {
    Rc::new(RefCell::new(EventTrace::default()))
}

/// The [`AppHooks`] implementation that records every upcall into the
/// shared trace. Attach one per node with `SimNode::new`, as the
/// simulator backend does, so the node keeps the log the invariant
/// checker reads beside it.
/// Optionally fans each upcall out to a telemetry
/// [`MetricsObserver`](stabilizer_telemetry::MetricsObserver) so the
/// same simulated run also yields latency histograms.
pub struct ChaosObserver {
    node: u16,
    trace: SharedTrace,
    metrics: Option<stabilizer_telemetry::MetricsObserver>,
}

impl ChaosObserver {
    /// Observer for node `node` appending into `trace`.
    pub fn new(node: u16, trace: SharedTrace) -> Self {
        ChaosObserver {
            node,
            trace,
            metrics: None,
        }
    }

    /// Also forward every event to `metrics` (a telemetry hub's
    /// per-node observer), when given.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Option<stabilizer_telemetry::MetricsObserver>) -> Self {
        self.metrics = metrics;
        self
    }
}

impl AppHooks for ChaosObserver {
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        let kind = match *event {
            Event::Deliver {
                origin,
                seq,
                payload,
            } => Some(TraceEventKind::Deliver {
                origin: origin.0,
                seq,
                len: payload.len(),
            }),
            Event::Frontier(update) => Some(TraceEventKind::Frontier {
                stream: update.stream.0,
                key: update.key.clone(),
                seq: update.seq,
                generation: update.generation,
            }),
            Event::WaitDone { token } => Some(TraceEventKind::WaitDone { token }),
            Event::Suspected { node } => Some(TraceEventKind::Suspected { peer: node.0 }),
            Event::CatchUp { stream, seq } => Some(TraceEventKind::CatchUp {
                stream: stream.0,
                seq,
            }),
            // Every other kind feeds the telemetry trace ring and counters
            // only: they are NOT part of the canonical event trace, so
            // pinned per-seed trace hashes from earlier releases stay
            // valid.
            Event::Recovered { .. }
            | Event::TransferChunk { .. }
            | Event::Join { .. }
            | Event::ConnectFailed { .. } => None,
        };
        if let Some(kind) = kind {
            self.trace.borrow_mut().events.push(TraceEvent {
                at_nanos: now.as_nanos(),
                node: self.node,
                kind,
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
            node: 1,
            kind: TraceEventKind::Deliver {
                origin: 0,
                seq,
                len: 10,
            },
        };
        let a = EventTrace {
            events: vec![mk(1), mk(2)],
        };
        let b = EventTrace {
            events: vec![mk(2), mk(1)],
        };
        let c = EventTrace {
            events: vec![mk(1), mk(2)],
        };
        assert_eq!(a.hash(), c.hash());
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), EventTrace::default().hash());
    }
}
