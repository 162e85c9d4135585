//! Structured trace: a bounded ring buffer of typed protocol events.
//!
//! Timestamps are whatever the runtime passes — deterministic
//! [`SimTime`](stabilizer_netsim::SimTime) nanoseconds in the simulator,
//! monotonic nanoseconds since the telemetry epoch on the TCP runtime —
//! so a sim trace is byte-identical across replays of the same seed.
//! When the ring is full the oldest event is dropped and a counter
//! remembers how many were lost; export is JSONL, one event per line.

use crate::json::{push_json_str, push_key};
use parking_lot::Mutex;
use stabilizer_dsl::{NodeId, SeqNo};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// What happened. Payloads are reduced to lengths; a frontier event
/// shares its predicate key with every other event of that key in the
/// ring ([`TraceRing::intern`]), so an event owns no heap of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A payload was published locally.
    Publish {
        /// Sequence assigned to the payload.
        seq: SeqNo,
        /// Payload size in bytes.
        len: usize,
    },
    /// A mirrored payload was delivered.
    Deliver {
        /// Stream the payload originated on.
        origin: NodeId,
        /// Its sequence number.
        seq: SeqNo,
        /// Payload size in bytes.
        len: usize,
    },
    /// A stability frontier advanced.
    Frontier {
        /// Stream whose frontier moved.
        stream: NodeId,
        /// Predicate key, from [`TraceRing::intern`].
        key: Arc<str>,
        /// New frontier.
        seq: SeqNo,
        /// Predicate generation.
        generation: u32,
    },
    /// A `waitfor` completed.
    WaitDone {
        /// The wait's token.
        token: u64,
    },
    /// A peer became suspected.
    Suspected {
        /// The suspected peer.
        peer: NodeId,
    },
    /// A suspected peer came back.
    Recovered {
        /// The recovered peer.
        peer: NodeId,
    },
    /// A writer permanently gave up connecting to a peer.
    ConnectFailed {
        /// The unreachable peer.
        peer: NodeId,
    },
    /// A stream was fast-forwarded out of band (§III-E state transfer).
    CatchUp {
        /// The fast-forwarded stream.
        stream: NodeId,
        /// Sequence delivery resumes after.
        seq: SeqNo,
    },
    /// A donor replayed one retained-log chunk to a recovering peer
    /// (§III-E state transfer, donor side).
    TransferChunk {
        /// The peer being caught up.
        to: NodeId,
        /// Stream origin of the replayed payload.
        stream: NodeId,
        /// Its original sequence number.
        seq: SeqNo,
        /// Payload size in bytes.
        len: usize,
        /// True on the last chunk of the session.
        done: bool,
    },
    /// A node (re)entered the cluster as a live member and started
    /// catch-up on every stream.
    Join {
        /// Number of streams the joiner requested catch-up for.
        streams: usize,
    },
}

impl TraceKind {
    fn name(&self) -> &'static str {
        match self {
            TraceKind::Publish { .. } => "publish",
            TraceKind::Deliver { .. } => "deliver",
            TraceKind::Frontier { .. } => "frontier",
            TraceKind::WaitDone { .. } => "wait_done",
            TraceKind::Suspected { .. } => "suspected",
            TraceKind::Recovered { .. } => "recovered",
            TraceKind::ConnectFailed { .. } => "connect_failed",
            TraceKind::CatchUp { .. } => "catch_up",
            TraceKind::TransferChunk { .. } => "transfer_chunk",
            TraceKind::Join { .. } => "join",
        }
    }
}

/// One trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds: virtual in sim, monotonic-since-epoch on TCP.
    pub at_nanos: u64,
    /// The node the event happened on.
    pub node: NodeId,
    /// The event itself.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Render as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"at_ns\":");
        s.push_str(&self.at_nanos.to_string());
        s.push_str(",\"node\":");
        s.push_str(&self.node.0.to_string());
        s.push_str(",\"event\":");
        push_json_str(&mut s, self.kind.name());
        match &self.kind {
            TraceKind::Publish { seq, len } => {
                s.push_str(&format!(",\"seq\":{seq},\"len\":{len}"));
            }
            TraceKind::Deliver { origin, seq, len } => {
                s.push_str(&format!(
                    ",\"origin\":{},\"seq\":{seq},\"len\":{len}",
                    origin.0
                ));
            }
            TraceKind::Frontier {
                stream,
                key,
                seq,
                generation,
            } => {
                s.push_str(&format!(",\"stream\":{},", stream.0));
                push_key(&mut s, "key");
                push_json_str(&mut s, key);
                s.push_str(&format!(",\"seq\":{seq},\"generation\":{generation}"));
            }
            TraceKind::WaitDone { token } => s.push_str(&format!(",\"token\":{token}")),
            TraceKind::Suspected { peer }
            | TraceKind::Recovered { peer }
            | TraceKind::ConnectFailed { peer } => {
                s.push_str(&format!(",\"peer\":{}", peer.0));
            }
            TraceKind::CatchUp { stream, seq } => {
                s.push_str(&format!(",\"stream\":{},\"seq\":{seq}", stream.0));
            }
            TraceKind::TransferChunk {
                to,
                stream,
                seq,
                len,
                done,
            } => {
                s.push_str(&format!(
                    ",\"to\":{},\"stream\":{},\"seq\":{seq},\"len\":{len},\"done\":{done}",
                    to.0, stream.0
                ));
            }
            TraceKind::Join { streams } => {
                s.push_str(&format!(",\"streams\":{streams}"));
            }
        }
        s.push('}');
        s
    }
}

#[derive(Debug, Default)]
struct RingInner {
    events: VecDeque<TraceEvent>,
    /// Every predicate key a frontier event was pushed under (a node
    /// holds tens of them; they are never forgotten).
    keys: BTreeSet<Arc<str>>,
    dropped: u64,
    /// Total events ever pushed — the absolute cursor of the *next*
    /// event. Exemplars store the cursor of the event they correspond
    /// to, so a trace tail can be joined against an exemplar even after
    /// the ring has wrapped.
    pushed: u64,
}

/// Bounded ring of [`TraceEvent`]s. Thread-safe; pushes from observers
/// take a short uncontended mutex (observers of one node never race each
/// other — they already run under the node lock).
#[derive(Debug)]
pub struct TraceRing {
    inner: Mutex<RingInner>,
    capacity: usize,
}

/// Default ring capacity: enough for a full chaos scenario.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Default for TraceRing {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` events (0 disables tracing).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            inner: Mutex::new(RingInner::default()),
            capacity,
        }
    }

    /// The ring's shared copy of predicate key `key`, for
    /// [`TraceKind::Frontier`]: one allocation per distinct key, not per
    /// event.
    pub fn intern(&self, key: &str) -> Arc<str> {
        let mut inner = self.inner.lock();
        if let Some(shared) = inner.keys.get(key) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(key);
        inner.keys.insert(Arc::clone(&shared));
        shared
    }

    /// Append an event, evicting the oldest if full. Returns the
    /// event's absolute cursor (total events pushed before it); a
    /// disabled ring (capacity 0) returns 0 without recording.
    pub fn push(&self, ev: TraceEvent) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut inner = self.inner.lock();
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        let cursor = inner.pushed;
        inner.pushed += 1;
        inner.events.push_back(ev);
        cursor
    }

    /// Total events ever pushed (the absolute cursor of the next push).
    pub fn pushed(&self) -> u64 {
        self.inner.lock().pushed
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Copy out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Render the buffer as JSONL: one event object per line, oldest
    /// first, trailing newline after the last line.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::with_capacity(inner.events.len() * 96);
        for ev in &inner.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Render the newest `n` buffered events as JSONL, oldest of the
    /// tail first (the `/trace?n=` endpoint). `n >= len` is the whole
    /// buffer.
    pub fn to_jsonl_tail(&self, n: usize) -> String {
        let inner = self.inner.lock();
        let skip = inner.events.len().saturating_sub(n);
        let mut out = String::with_capacity((inner.events.len() - skip) * 96);
        for ev in inner.events.iter().skip(skip) {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, seq: SeqNo) -> TraceEvent {
        TraceEvent {
            at_nanos: at,
            node: NodeId(0),
            kind: TraceKind::Publish { seq, len: 8 },
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = TraceRing::new(2);
        ring.push(ev(1, 1));
        ring.push(ev(2, 2));
        ring.push(ev(3, 3));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 1);
        let snap = ring.snapshot();
        assert_eq!(snap[0].at_nanos, 2);
        assert_eq!(snap[1].at_nanos, 3);
    }

    #[test]
    fn push_returns_absolute_cursor_across_eviction() {
        let ring = TraceRing::new(2);
        assert_eq!(ring.push(ev(1, 1)), 0);
        assert_eq!(ring.push(ev(2, 2)), 1);
        assert_eq!(ring.push(ev(3, 3)), 2);
        assert_eq!(ring.pushed(), 3);
    }

    #[test]
    fn tail_returns_newest_events_oldest_first() {
        let ring = TraceRing::new(4);
        for i in 1..=4 {
            ring.push(ev(i, i));
        }
        let tail = ring.to_jsonl_tail(2);
        let lines: Vec<&str> = tail.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"at_ns\":3"));
        assert!(lines[1].contains("\"at_ns\":4"));
        assert_eq!(ring.to_jsonl_tail(100), ring.to_jsonl());
        assert_eq!(ring.to_jsonl_tail(0), "");
    }

    #[test]
    fn transfer_and_join_events_render() {
        let ring = TraceRing::new(8);
        ring.push(TraceEvent {
            at_nanos: 1,
            node: NodeId(1),
            kind: TraceKind::TransferChunk {
                to: NodeId(2),
                stream: NodeId(0),
                seq: 7,
                len: 16,
                done: true,
            },
        });
        ring.push(TraceEvent {
            at_nanos: 2,
            node: NodeId(2),
            kind: TraceKind::Join { streams: 3 },
        });
        let jsonl = ring.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"at_ns\":1,\"node\":1,\"event\":\"transfer_chunk\",\
             \"to\":2,\"stream\":0,\"seq\":7,\"len\":16,\"done\":true}"
        );
        assert_eq!(
            lines[1],
            "{\"at_ns\":2,\"node\":2,\"event\":\"join\",\"streams\":3}"
        );
    }

    #[test]
    fn zero_capacity_disables() {
        let ring = TraceRing::new(0);
        ring.push(ev(1, 1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn jsonl_shape() {
        let ring = TraceRing::new(8);
        ring.push(ev(5, 1));
        ring.push(TraceEvent {
            at_nanos: 9,
            node: NodeId(2),
            kind: TraceKind::Frontier {
                stream: NodeId(0),
                key: ring.intern("All"),
                seq: 1,
                generation: 0,
            },
        });
        assert!(Arc::ptr_eq(&ring.intern("All"), &ring.intern("All")));
        assert!(std::mem::size_of::<TraceEvent>() <= 48);
        let jsonl = ring.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"at_ns\":5,\"node\":0,\"event\":\"publish\",\"seq\":1,\"len\":8}"
        );
        assert_eq!(
            lines[1],
            "{\"at_ns\":9,\"node\":2,\"event\":\"frontier\",\"stream\":0,\
             \"key\":\"All\",\"seq\":1,\"generation\":0}"
        );
    }
}
