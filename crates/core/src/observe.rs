//! The one way out of the machine: what a driver shows an observer of
//! the [`Action`]s a sans-IO machine emits.
//!
//! [`Event`] is the vocabulary, [`Action::event`] the only place that
//! decides what an observer sees of an `Action`, and [`AppHooks`] the
//! only observer trait — on the simulator and on the TCP runtime, plain
//! or sharded. Every action a machine emits is a transmission, an event,
//! or both (a donor's transfer chunk): nothing is emitted that a driver
//! neither sends nor shows.
//!
//! # The observer contract
//!
//! Drivers call [`AppHooks::on_event`] and nothing else; its default body
//! dispatches to the per-kind methods, so an observer implements either
//! the kinds it cares about or `on_event` wholesale (and then its
//! per-kind methods are never invoked).
//!
//! * **Simulator** ([`SimNode`](crate::sim_driver::SimNode)): called from
//!   the actor callback that drained the action, `now` in virtual time.
//! * **TCP runtime** (a plain node or a sharded one): called on whichever
//!   thread mutated the state machine, **while it still holds the node's
//!   state lock**, so an external checker that locks the state machine
//!   and then reads an observer's log always sees a log at least as fresh
//!   as the state (the chaos checker's `delivered-without-upcall`
//!   invariant depends on it). Observers there must be cheap and must not
//!   call back into the node handle. `now` is nanoseconds since that node
//!   started.
//!
//! [`Event::Join`] and [`Event::ConnectFailed`] come from the driver, not
//! from an action (a restart requested catch-up; a writer exhausted its
//! connect budget); everything else is `Action::event` of what the
//! machine emitted, in emission order.
//!
//! [`EventLog`] keeps what an observer saw, one log per question a
//! reader asks — frontiers, deliveries with their §III-E catch-ups,
//! completed waits, suspicion flips — each in that order: a timestamp
//! does not order a node's events (one locked TCP call stamps all it
//! emits with one time).

use crate::frontier::{FrontierUpdate, WaitToken};
use crate::messages::WireMsg;
use crate::node::Action;
use bytes::Bytes;
use parking_lot::Mutex;
use stabilizer_dsl::{NodeId, SeqNo};
use stabilizer_netsim::SimTime;
use std::sync::Arc;

/// One thing an observer can see a node do. Borrowed from the action
/// (or built by the driver) for the duration of the call.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A mirrored payload was delivered (upcall).
    Deliver {
        /// Stream origin.
        origin: NodeId,
        /// Sequence number within the stream (global on a sharded node).
        seq: SeqNo,
        /// The payload.
        payload: &'a Bytes,
    },
    /// A stability frontier advanced (the `monitor_stability_frontier`
    /// mechanism of §III-D).
    Frontier(&'a FrontierUpdate),
    /// A `waitfor` completed.
    WaitDone {
        /// The token the `waitfor` returned.
        token: WaitToken,
    },
    /// A peer became suspected.
    Suspected {
        /// The suspect.
        node: NodeId,
    },
    /// A suspected peer came back.
    Recovered {
        /// The returning node.
        node: NodeId,
    },
    /// A stream was fast-forwarded out of band (§III-E state transfer);
    /// delivery resumes after `seq` without upcalls for the skipped
    /// prefix.
    CatchUp {
        /// The fast-forwarded stream.
        stream: NodeId,
        /// Delivery resumes after this sequence.
        seq: SeqNo,
    },
    /// This node (as donor) sent one retained-log chunk of `stream` to a
    /// recovering peer (§III-E state transfer, donor side).
    TransferChunk {
        /// The recovering peer.
        to: NodeId,
        /// The replayed stream.
        stream: NodeId,
        /// The chunk's sequence number.
        seq: SeqNo,
        /// Payload length.
        len: usize,
        /// Whether this chunk ends the session.
        done: bool,
    },
    /// This node (re)entered the cluster and requested catch-up on
    /// `streams` peer streams.
    Join {
        /// Number of peer streams catch-up was requested on.
        streams: usize,
    },
    /// A writer gave up (re)connecting to a peer permanently (its
    /// configured retry budget ran out).
    ConnectFailed {
        /// The unreachable peer.
        peer: NodeId,
    },
}

impl<'a> Event<'a> {
    /// What an observer sees of transmitting `msg` to `to`: a transfer
    /// chunk is the donor-side catch-up event (progress is otherwise
    /// invisible on the donor); any other send is not an event.
    pub fn of_send(to: NodeId, msg: &'a WireMsg) -> Option<Self> {
        match msg {
            WireMsg::TransferChunk {
                stream,
                seq,
                payload,
                done,
            } => Some(Event::TransferChunk {
                to,
                stream: *stream,
                seq: *seq,
                len: payload.len(),
                done: *done,
            }),
            _ => None,
        }
    }
}

impl Action {
    /// What an observer sees of this action, if anything — the only
    /// place that decides it. Every action but a `Send` is an event.
    pub fn event(&self) -> Option<Event<'_>> {
        Some(match self {
            Action::Send { to, msg } => return Event::of_send(*to, msg),
            Action::Deliver {
                origin,
                seq,
                payload,
            } => Event::Deliver {
                origin: *origin,
                seq: *seq,
                payload,
            },
            Action::Frontier(update) => Event::Frontier(update),
            Action::WaitDone { token } => Event::WaitDone { token: *token },
            Action::Suspected { node } => Event::Suspected { node: *node },
            Action::Recovered { node } => Event::Recovered { node: *node },
            Action::CatchUp { stream, seq, .. } => Event::CatchUp {
                stream: *stream,
                seq: *seq,
            },
        })
    }
}

/// Observer callbacks. All methods have default bodies; implement only
/// what you observe. See the [module docs](self) for who calls this,
/// under which lock and with which clock.
pub trait AppHooks {
    /// Every event goes through here; the default dispatches to the
    /// per-kind methods below.
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        match *event {
            Event::Deliver {
                origin,
                seq,
                payload,
            } => self.on_deliver(now, origin, seq, payload),
            Event::Frontier(update) => self.on_frontier(now, update),
            Event::WaitDone { token } => self.on_wait_done(now, token),
            Event::Suspected { node } => self.on_suspected(now, node),
            Event::Recovered { node } => self.on_recovered(now, node),
            Event::CatchUp { stream, seq } => self.on_catch_up(now, stream, seq),
            Event::TransferChunk {
                to,
                stream,
                seq,
                len,
                done,
            } => self.on_transfer_chunk(now, to, stream, seq, len, done),
            Event::Join { streams } => self.on_join(now, streams),
            Event::ConnectFailed { peer } => self.on_connect_failed(now, peer),
        }
    }
    /// A mirrored payload was delivered (upcall).
    fn on_deliver(&mut self, _now: SimTime, _origin: NodeId, _seq: SeqNo, _payload: &Bytes) {}
    /// A stability frontier advanced (the `monitor_stability_frontier`
    /// mechanism of §III-D).
    fn on_frontier(&mut self, _now: SimTime, _update: &FrontierUpdate) {}
    /// A `waitfor` completed.
    fn on_wait_done(&mut self, _now: SimTime, _token: WaitToken) {}
    /// A peer became suspected.
    fn on_suspected(&mut self, _now: SimTime, _node: NodeId) {}
    /// A suspected peer came back.
    fn on_recovered(&mut self, _now: SimTime, _node: NodeId) {}
    /// A stream was fast-forwarded out of band (§III-E state transfer).
    fn on_catch_up(&mut self, _now: SimTime, _stream: NodeId, _seq: SeqNo) {}
    /// This node (as donor) sent one retained-log chunk to a recovering
    /// peer (§III-E, donor side).
    fn on_transfer_chunk(
        &mut self,
        _now: SimTime,
        _to: NodeId,
        _stream: NodeId,
        _seq: SeqNo,
        _len: usize,
        _done: bool,
    ) {
    }
    /// This node (re)entered the cluster and requested catch-up on
    /// `streams` peer streams.
    fn on_join(&mut self, _now: SimTime, _streams: usize) {}
    /// A writer gave up (re)connecting to a peer permanently.
    fn on_connect_failed(&mut self, _now: SimTime, _peer: NodeId) {}
}

/// Hooks that do nothing (a driver's [`EventLog`] still records
/// everything).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;
impl AppHooks for NoHooks {}

/// An observer that may be absent (a telemetry observer attached only
/// when there is a hub): `None` sees nothing.
impl<H: AppHooks> AppHooks for Option<H> {
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        if let Some(hooks) = self {
            hooks.on_event(now, event);
        }
    }
}

/// A boxed observer (the TCP runtime's observer slot holds one).
impl<H: AppHooks + ?Sized> AppHooks for Box<H> {
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        (**self).on_event(now, event);
    }
}

/// Timestamped logs of one node's events — the same shape on the
/// simulator (a [`SimNode`](crate::sim_driver::SimNode) keeps one) and on
/// TCP (attach a [`SharedEventLog`] as the observer), so runtime-agnostic
/// checkers read both the same way. Times are [`SimTime`]: virtual on
/// the simulator, nanoseconds since the node's start on TCP. Each log
/// is in emission order (see the [module docs](self)).
#[derive(Debug)]
pub struct EventLog {
    /// Frontier advances: `(time, update)`.
    pub frontier_log: Vec<(SimTime, FrontierUpdate)>,
    /// What the node did to each stream's delivery prefix:
    /// `(time, origin, seq, what)` — an upcall of `(origin, seq)` or a
    /// §III-E fast-forward of `origin`'s stream past `seq`.
    pub delivery_log: Vec<(SimTime, NodeId, SeqNo, Delivery)>,
    /// Completed wait tokens.
    pub completed_waits: Vec<(SimTime, WaitToken)>,
    /// Each flip of a peer's suspicion: `(time, peer, suspected)`,
    /// `true` when the peer became suspected, `false` when it came back.
    pub suspicion_log: Vec<(SimTime, NodeId, bool)>,
    /// Whether `delivery_log` is populated (off for multi-hundred-
    /// thousand-message runs where only the frontier log matters).
    pub record_deliveries: bool,
}

/// One [`EventLog::delivery_log`] entry's kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The payload was up-called: its length and [`fnv1a`] hash instead
    /// of the bytes, so byte-level accounting and payload identity work
    /// without keeping the data alive.
    Upcall {
        /// Payload length.
        len: usize,
        /// The payload's [`fnv1a`].
        hash: u64,
    },
    /// The stream was fast-forwarded out of band: delivery resumes after
    /// the entry's `seq`, with no upcall for the skipped prefix.
    CatchUp,
}

/// The 64-bit FNV-1a offset basis: the hash of no bytes, where a
/// stream of [`fnv1a_from`] calls starts.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes` continued from the hash `h` of what came
/// before them — the workspace's one stable, dependency-free hash.
pub fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a of `bytes` — what [`EventLog`] keeps of a delivered payload to
/// tell two payloads under one `(origin, seq)` apart.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV1A_OFFSET, bytes)
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog {
            frontier_log: Vec::new(),
            delivery_log: Vec::new(),
            completed_waits: Vec::new(),
            suspicion_log: Vec::new(),
            record_deliveries: true,
        }
    }
}

impl EventLog {
    /// Append `event` to the log of its kind (donor-side chunks, joins
    /// and connect failures have none; a node that keeps no deliveries
    /// keeps no catch-ups either).
    pub fn record(&mut self, now: SimTime, event: &Event<'_>) {
        match *event {
            Event::Deliver {
                origin,
                seq,
                payload,
            } if self.record_deliveries => {
                let hash = fnv1a(payload);
                let len = payload.len();
                self.delivery_log
                    .push((now, origin, seq, Delivery::Upcall { len, hash }));
            }
            Event::CatchUp { stream, seq } if self.record_deliveries => {
                self.delivery_log
                    .push((now, stream, seq, Delivery::CatchUp));
            }
            Event::Frontier(update) => self.frontier_log.push((now, update.clone())),
            Event::WaitDone { token } => self.completed_waits.push((now, token)),
            Event::Suspected { node } => self.suspicion_log.push((now, node, true)),
            Event::Recovered { node } => self.suspicion_log.push((now, node, false)),
            Event::Deliver { .. }
            | Event::CatchUp { .. }
            | Event::TransferChunk { .. }
            | Event::Join { .. }
            | Event::ConnectFailed { .. } => {}
        }
    }

    /// When `key`'s frontier over `stream` first covered `seq`, if it
    /// has.
    pub fn covered_at(&self, stream: NodeId, key: &str, seq: SeqNo) -> Option<SimTime> {
        self.frontier_log
            .iter()
            .find(|(_, u)| u.stream == stream && u.key == key && u.seq >= seq)
            .map(|(t, _)| *t)
    }

    /// For each sequence number of `stream` that `key`'s frontier has
    /// covered (index `seq - 1`), when it first was. A frontier that
    /// steps back across a generation change fills nothing twice: a
    /// sequence number keeps the first time it was covered.
    pub fn coverage(&self, stream: NodeId, key: &str) -> Vec<SimTime> {
        let mut out = Vec::new();
        for (t, u) in &self.frontier_log {
            if u.stream == stream && u.key == key && u.seq as usize > out.len() {
                out.resize(u.seq as usize, *t);
            }
        }
        out
    }
}

/// Shared handle to an [`EventLog`]; as an observer it records every
/// event (the runtime writes, a harness reads).
pub type SharedEventLog = Arc<Mutex<EventLog>>;

impl AppHooks for SharedEventLog {
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        self.lock().record(now, event);
    }
}

/// Fan-out observer: forwards every event to each observer, in order.
/// Lets a chaos [`SharedEventLog`] and a telemetry `MetricsObserver` both
/// watch one node through the runtime's single observer slot.
#[derive(Default)]
pub struct ObserverChain(pub Vec<Box<dyn AppHooks + Send>>);

impl AppHooks for ObserverChain {
    fn on_event(&mut self, now: SimTime, event: &Event<'_>) {
        for obs in &mut self.0 {
            obs.on_event(now, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_fans_out_in_order_and_logs_record_by_kind() {
        let first = SharedEventLog::default();
        let second = SharedEventLog::default();
        let mut chain = ObserverChain(vec![Box::new(first.clone()), Box::new(second.clone())]);
        let payload = Bytes::from_static(b"abc");
        let events = [
            Event::Deliver {
                origin: NodeId(1),
                seq: 1,
                payload: &payload,
            },
            Event::Suspected { node: NodeId(2) },
            Event::Recovered { node: NodeId(2) },
            Event::CatchUp {
                stream: NodeId(1),
                seq: 7,
            },
            Event::WaitDone { token: 4 },
            Event::ConnectFailed { peer: NodeId(3) },
        ];
        for (i, ev) in events.iter().enumerate() {
            chain.on_event(SimTime(5 + i as u64), ev);
        }
        for log in [&first, &second] {
            let log = log.lock();
            let hash = fnv1a(b"abc");
            let upcall = Delivery::Upcall { len: 3, hash };
            assert_eq!(
                log.delivery_log,
                vec![
                    (SimTime(5), NodeId(1), 1, upcall),
                    (SimTime(8), NodeId(1), 7, Delivery::CatchUp)
                ]
            );
            assert_eq!(
                log.suspicion_log,
                vec![
                    (SimTime(6), NodeId(2), true),
                    (SimTime(7), NodeId(2), false)
                ]
            );
            assert_eq!(log.completed_waits, vec![(SimTime(9), 4)]);
            assert!(log.frontier_log.is_empty());
        }
        // A log that keeps no deliveries keeps no catch-ups either.
        let mut quiet = EventLog {
            record_deliveries: false,
            ..EventLog::default()
        };
        for ev in &events {
            quiet.record(SimTime(1), ev);
        }
        assert!(quiet.delivery_log.is_empty());
        assert_eq!(quiet.suspicion_log.len(), 2);
    }

    #[test]
    fn coverage_is_the_first_cover_time_per_sequence_number() {
        let mut log = EventLog::default();
        let mut advance = |t: u64, stream: u16, key: &str, seq: SeqNo, generation: u32| {
            let update = FrontierUpdate {
                stream: NodeId(stream),
                key: key.to_owned(),
                seq,
                generation,
            };
            log.record(SimTime(t), &Event::Frontier(&update));
        };
        advance(10, 0, "All", 2, 0);
        advance(11, 0, "One", 5, 0);
        advance(12, 1, "All", 9, 0);
        advance(20, 0, "All", 4, 0);
        // A predicate change steps the frontier back, then past.
        advance(30, 0, "All", 3, 1);
        advance(40, 0, "All", 6, 1);
        let t = |ts: &[u64]| ts.iter().map(|t| SimTime(*t)).collect::<Vec<_>>();
        assert_eq!(log.coverage(NodeId(0), "All"), t(&[10, 10, 20, 20, 40, 40]));
        assert_eq!(log.coverage(NodeId(1), "All"), t(&[12; 9]));
        assert!(log.coverage(NodeId(0), "Nope").is_empty());
        for (seq, at) in log.coverage(NodeId(0), "All").iter().enumerate() {
            assert_eq!(log.covered_at(NodeId(0), "All", seq as u64 + 1), Some(*at));
        }
        assert_eq!(log.covered_at(NodeId(0), "All", 7), None);
        assert_eq!(log.covered_at(NodeId(0), "One", 5), Some(SimTime(11)));
    }

    #[test]
    fn only_transfer_chunk_sends_are_events() {
        let chunk = Action::Send {
            to: NodeId(2),
            msg: WireMsg::TransferChunk {
                stream: NodeId(0),
                seq: 9,
                payload: Bytes::from_static(b"12345"),
                done: true,
            },
        };
        assert!(matches!(
            chunk.event(),
            Some(Event::TransferChunk {
                to: NodeId(2),
                stream: NodeId(0),
                seq: 9,
                len: 5,
                done: true
            })
        ));
        let heartbeat = Action::Send {
            to: NodeId(2),
            msg: WireMsg::Heartbeat,
        };
        assert!(heartbeat.event().is_none());
    }
}
