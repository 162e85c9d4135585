//! §III-E state transfer: the sessions by which a node that was away
//! longer than the origins' live send windows catches up.
//!
//! Each stream's origin is its only donor — it alone stores the stream's
//! payloads (live window plus retained log). A requester asks with
//! [`WireMsg::TransferRequest`]; the donor answers with one
//! [`WireMsg::TransferSnapshot`] (its recorded column for the stream and
//! the `(base, high]` range it will replay) and then streams
//! [`WireMsg::TransferChunk`]s under a window that slides on the
//! requester's cumulative [`WireMsg::TransferAck`]s. A session without
//! progress for a full `transfer_millis` re-issues its request from the
//! current position, which is what makes a transfer resumable across a
//! crash of either side and a lost frame.
//!
//! [`Transfers`] owns the sessions of both roles and the frames they
//! send. Applying what a frame carries (the snapshot's ACK column, the
//! fast-forward, a chunk's payload) is the node's business.

use crate::config::ClusterConfig;
use crate::data_plane::{ReceiveState, SendBuffer};
use crate::membership::Membership;
use crate::messages::WireMsg;
use crate::metrics::Metrics;
use crate::node::Action;
use crate::outbox;
use crate::recorder::AckRecorder;
use crate::watchdog::Watchdog;
use stabilizer_dsl::{NodeId, SeqNo, RECEIVED};
use stabilizer_place::PlacementMap;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Donor side of one session, keyed by requester.
#[derive(Debug)]
struct Donation {
    /// Chunks at or below this are acknowledged by the requester.
    acked: SeqNo,
    /// Next chunk to send.
    next: SeqNo,
    /// Last chunk of the session (the stream head at request time).
    high: SeqNo,
}

/// Requester side of one session, keyed by stream (= donor).
#[derive(Debug)]
struct Inbound {
    /// Session target (`SeqNo::MAX` until the snapshot arrives).
    high: SeqNo,
    /// The delivered prefix of the stream; a stall re-requests.
    progress: Watchdog,
}

/// Every transfer session of one node, in both roles.
#[derive(Debug)]
pub(crate) struct Transfers {
    me: NodeId,
    placement: Arc<PlacementMap>,
    transfer_millis: u64,
    retransmit_millis: u64,
    window: u64,
    inbound: BTreeMap<NodeId, Inbound>,
    outbound: BTreeMap<NodeId, Donation>,
    /// Per stream: its delivered prefix while the origin is known to be
    /// ahead and no session is open (catch-up on lag); `None` until the
    /// first tick looks at it.
    lag: Vec<Option<Watchdog>>,
}

impl Transfers {
    /// No sessions; periods and the chunk window are `cfg`'s.
    pub(crate) fn new(me: NodeId, cfg: &ClusterConfig) -> Self {
        let opts = cfg.options();
        Transfers {
            me,
            placement: Arc::clone(cfg.placement()),
            transfer_millis: opts.transfer_millis,
            retransmit_millis: opts.retransmit_millis,
            window: opts.transfer_window,
            inbound: BTreeMap::new(),
            outbound: BTreeMap::new(),
            lag: vec![None; cfg.num_nodes()],
        }
    }

    /// Live sessions, inbound plus outbound.
    pub(crate) fn active(&self) -> usize {
        self.inbound.len() + self.outbound.len()
    }

    /// The one admission rule, for every transfer frame and every
    /// request this node makes: transfers are enabled, and `stream`
    /// flows from its origin (`donor`) to a different node that
    /// replicates it (`requester`).
    pub(crate) fn admits(&self, donor: NodeId, stream: NodeId, requester: NodeId) -> bool {
        if self.transfer_millis == 0 || (stream.max(requester).0 as usize) >= self.lag.len() {
            return false;
        }
        donor == stream && requester != stream && self.placement.is_replica(stream, requester)
    }

    /// `peer` is suspected: drop the sessions with it. Inbound resumes
    /// through the request its recovery triggers, outbound through the
    /// peer's own stall re-request.
    pub(crate) fn forget(&mut self, peer: NodeId) {
        self.inbound.remove(&peer);
        self.outbound.remove(&peer);
    }

    // ------------------------------------------------------------------
    // Requester
    // ------------------------------------------------------------------

    /// Ask `donor` for its stream from what this node has delivered of
    /// it, (re)opening the session. `false` if the rule does not admit
    /// it (transfers off, own stream, not a replica).
    pub(crate) fn request(
        &mut self,
        recv: &[ReceiveState],
        donor: NodeId,
        now_nanos: u64,
        out: &mut Vec<Action>,
    ) -> bool {
        if !self.admits(donor, donor, self.me) {
            return false;
        }
        let have = recv[donor.0 as usize].delivered();
        let progress = Watchdog::at(have, now_nanos);
        let high = SeqNo::MAX;
        self.inbound.insert(donor, Inbound { high, progress });
        out.push(ask(donor, have));
        true
    }

    /// A snapshot (`target` = its `high`) or a chunk (`None`) of
    /// `stream` was applied and the stream now stands at `delivered`:
    /// acknowledge cumulatively so the donor's window slides, and open,
    /// advance or — at the target — close the session.
    pub(crate) fn applied(
        &mut self,
        stream: NodeId,
        delivered: SeqNo,
        target: Option<SeqNo>,
        now_nanos: u64,
        out: &mut Vec<Action>,
    ) {
        out.push(Action::Send {
            to: stream,
            msg: WireMsg::TransferAck {
                stream,
                through: delivered,
            },
        });
        if let Some(high) = target {
            let progress = Watchdog::at(delivered, now_nanos);
            self.inbound.insert(stream, Inbound { high, progress });
        }
        if let Some(session) = self.inbound.get_mut(&stream) {
            session.progress.advance(delivered, now_nanos);
            if delivered >= session.high {
                self.inbound.remove(&stream);
            }
        }
    }

    /// Supervise the requester side (every `transfer_millis / 2`).
    ///
    /// A session that made no progress for a full period re-requests
    /// from the current position — unless its donor is suspected:
    /// recovery re-requests by itself.
    ///
    /// Catch-up on lag: retransmission heals short gaps, but an origin
    /// that reclaimed its live window (every *other* replica acked while
    /// this node was unreachable) has nothing left to resend — only a
    /// transfer reaches its retained log. So a stream that stays behind
    /// its origin's self-acknowledged sequence with no session open,
    /// for a grace period covering normal propagation plus a retransmit
    /// round, is requested too.
    pub(crate) fn tick(
        &mut self,
        recv: &[ReceiveState],
        recorder: &AckRecorder,
        membership: &Membership,
        now_nanos: u64,
        out: &mut Vec<Action>,
    ) {
        let timeout = self.transfer_millis * 1_000_000;
        let have = |stream: NodeId| recv[stream.0 as usize].delivered();
        self.inbound.retain(|&stream, s| have(stream) < s.high);
        for (&stream, session) in &mut self.inbound {
            let down = membership.is_suspected(stream);
            if session
                .progress
                .stalled(have(stream), down, now_nanos, timeout)
            {
                session.high = SeqNo::MAX;
                out.push(ask(stream, have(stream)));
            }
        }
        let grace = 2 * timeout.max(self.retransmit_millis * 1_000_000);
        for stream in (0..self.lag.len() as u16).map(NodeId) {
            if !self.admits(stream, stream, self.me) {
                continue; // never catch up on a stream this node does not replicate
            }
            let idle = recorder.get(stream, stream, RECEIVED) <= have(stream)
                || self.inbound.contains_key(&stream)
                || membership.is_suspected(stream);
            let watchdog =
                self.lag[stream.0 as usize].get_or_insert(Watchdog::at(have(stream), now_nanos));
            if watchdog.stalled(have(stream), idle, now_nanos, grace) {
                self.request(recv, stream, now_nanos, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Donor
    // ------------------------------------------------------------------

    /// Serve `requester`'s request for this node's own stream: answer
    /// with a snapshot whose `base` is the later of the requester's
    /// position and the oldest sequence still replayable, then stream
    /// the chunks of `(base, high]` under the window.
    pub(crate) fn serve(
        &mut self,
        recorder: &AckRecorder,
        buf: &SendBuffer,
        requester: NodeId,
        have: SeqNo,
        metrics: &mut Metrics,
        out: &mut Vec<Action>,
    ) {
        metrics.transfer_requests += 1;
        // A request means the requester restarted (or newly joined): its
        // belief table is whatever its snapshot held. ACKs are
        // change-driven, so any row of ours it missed while down —
        // including its *own* stream's column, which no transfer
        // snapshot covers (we only donate our own stream) — would stay
        // stale forever and pin its frontiers. Re-announce them all.
        outbox::announce(recorder, self.me, requester, &self.placement, out);
        let base = have.max(buf.first_replayable().saturating_sub(1));
        let high = buf.last_assigned().max(base);
        // This node's full recorded column for the stream: each entry's
        // `stream` field names the *observing node* (the batch is scoped
        // to one stream, so the field is free).
        let nodes = (0..recorder.num_nodes() as u16).map(NodeId);
        let msg = WireMsg::TransferSnapshot {
            stream: self.me,
            base,
            high,
            acks: outbox::cells(recorder, nodes, |node| (self.me, node)),
            app_mark: 0,
        };
        out.push(Action::Send { to: requester, msg });
        self.outbound.remove(&requester);
        if base < high {
            let (acked, next) = (base, base + 1);
            self.outbound
                .insert(requester, Donation { acked, next, high });
            self.pump(recorder, buf, requester, metrics, out);
        }
    }

    /// `requester` acknowledged the session's chunks through `through`:
    /// slide the window and send more, or finish.
    pub(crate) fn acked(
        &mut self,
        recorder: &AckRecorder,
        buf: &SendBuffer,
        requester: NodeId,
        through: SeqNo,
        metrics: &mut Metrics,
        out: &mut Vec<Action>,
    ) {
        if let Some(session) = self.outbound.get_mut(&requester) {
            session.acked = session.acked.max(through);
            self.pump(recorder, buf, requester, metrics, out);
        }
    }

    /// Send chunks to `requester` up to the window. The window bounds
    /// catch-up traffic so replay cannot starve the live data plane.
    fn pump(
        &mut self,
        recorder: &AckRecorder,
        buf: &SendBuffer,
        requester: NodeId,
        metrics: &mut Metrics,
        out: &mut Vec<Action>,
    ) {
        while let Some(session) = self.outbound.get_mut(&requester) {
            if session.acked >= session.high {
                self.outbound.remove(&requester);
                return;
            }
            let seq = session.next;
            if seq > session.high || seq.saturating_sub(session.acked + 1) >= self.window {
                return; // everything sent or window full: wait for acks
            }
            let Some(payload) = buf.replay_get(seq).cloned() else {
                // The retained log evicted this chunk while the session
                // ran: restart the handshake so the requester
                // fast-forwards over the new gap.
                let acked = session.acked;
                self.outbound.remove(&requester);
                if buf.first_replayable() > seq {
                    self.serve(recorder, buf, requester, acked, metrics, out);
                }
                return;
            };
            session.next += 1;
            metrics.transfer_chunks_sent += 1;
            metrics.transfer_bytes_sent += payload.len() as u64;
            let msg = WireMsg::TransferChunk {
                stream: self.me,
                seq,
                payload,
                done: seq == session.high,
            };
            out.push(Action::Send { to: requester, msg });
        }
    }
}

/// The request frame: `donor`'s stream, from after `have`.
fn ask(donor: NodeId, have: SeqNo) -> Action {
    let msg = WireMsg::TransferRequest {
        stream: donor,
        have,
    };
    Action::Send { to: donor, msg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Options;
    use crate::messages::Ack;
    use bytes::Bytes;

    const MS: u64 = 1_000_000;
    const N: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

    /// A `Transfers` for node `me` of three (period 20 ms), and stand-ins
    /// for everything it reads and writes — no node, no cluster.
    struct Alone {
        t: Transfers,
        recorder: AckRecorder,
        buf: SendBuffer,
        recv: Vec<ReceiveState>,
        membership: Membership,
        metrics: Metrics,
        out: Vec<Action>,
    }

    fn alone(me: NodeId, opts: Options) -> Alone {
        let cfg = ClusterConfig::parse("az A a b\naz B c\n")
            .unwrap()
            .with_options(opts.transfer_millis(20));
        Alone {
            t: Transfers::new(me, &cfg),
            recorder: AckRecorder::new(3, 3),
            buf: SendBuffer::with_retention(1024, 4),
            recv: (0..3).map(|_| ReceiveState::new()).collect(),
            membership: Membership::new(3, N.into_iter().filter(|n| *n != me).collect()),
            metrics: Metrics::default(),
            out: Vec::new(),
        }
    }

    impl Alone {
        fn serve(&mut self, requester: NodeId, have: SeqNo) {
            let (metrics, out) = (&mut self.metrics, &mut self.out);
            self.t
                .serve(&self.recorder, &self.buf, requester, have, metrics, out);
        }

        fn acked(&mut self, requester: NodeId, through: SeqNo) {
            let (metrics, out) = (&mut self.metrics, &mut self.out);
            self.t
                .acked(&self.recorder, &self.buf, requester, through, metrics, out);
        }

        fn tick(&mut self, now_nanos: u64) {
            let (recv, recorder) = (&self.recv, &self.recorder);
            self.t
                .tick(recv, recorder, &self.membership, now_nanos, &mut self.out);
        }

        /// The frames sent since the last call, as `(to, frame)`.
        fn sent(&mut self) -> Vec<(NodeId, WireMsg)> {
            let sent = self.out.drain(..).map(|a| match a {
                Action::Send { to, msg } => (to, msg),
                other => panic!("a transfer step emitted {other:?}"),
            });
            sent.collect()
        }

        /// The chunk sequence numbers among [`Alone::sent`].
        fn chunks(&mut self) -> Vec<SeqNo> {
            let chunk = |(_, msg)| match msg {
                WireMsg::TransferChunk { seq, .. } => Some(seq),
                _ => None,
            };
            self.sent().into_iter().filter_map(chunk).collect()
        }
    }

    fn request(donor: NodeId, have: SeqNo) -> (NodeId, WireMsg) {
        let stream = donor;
        (donor, WireMsg::TransferRequest { stream, have })
    }

    #[test]
    fn admission_is_one_rule_for_both_roles() {
        let a = alone(N[0], Options::default());
        assert!(a.t.admits(N[0], N[0], N[2]), "my stream to a replica");
        assert!(a.t.admits(N[1], N[1], N[0]), "its stream to me");
        assert!(!a.t.admits(N[0], N[1], N[2]), "only the origin donates");
        assert!(!a.t.admits(N[0], N[0], N[0]), "not to itself");
        assert!(!a.t.admits(N[0], N[0], NodeId(3)), "unknown requester");
        assert!(!a.t.admits(NodeId(3), NodeId(3), N[0]), "unknown stream");
        let mut off = a;
        off.t.transfer_millis = 0;
        assert!(!off.t.admits(N[0], N[0], N[2]), "transfers disabled");
        assert!(!off.t.request(&off.recv, N[1], 0, &mut off.out));
    }

    #[test]
    fn donor_window_slides_on_cumulative_acks() {
        let mut a = alone(N[0], Options::default().transfer_window(2));
        for _ in 0..5 {
            a.buf.publish(Bytes::from_static(b"xy")).unwrap();
        }
        a.serve(N[2], 0);
        let sent = a.sent();
        assert!(
            matches!(
                sent[0],
                (
                    NodeId(2),
                    WireMsg::TransferSnapshot {
                        base: 0,
                        high: 5,
                        ..
                    }
                )
            ),
            "{sent:?}"
        );
        assert_eq!(sent.len(), 3, "the snapshot and exactly two chunks");
        assert_eq!(a.metrics.transfer_chunks_sent, 2);
        a.acked(N[2], 1);
        assert_eq!(a.chunks(), vec![3], "one acked, one more in flight");
        a.acked(N[2], 1);
        assert!(a.sent().is_empty(), "a repeated ack slides nothing");
        a.acked(N[2], 3);
        assert_eq!(a.chunks(), vec![4, 5]);
        assert_eq!(a.t.active(), 1);
        a.acked(N[2], 5);
        assert_eq!(a.t.active(), 0, "acknowledged through the target");
        a.acked(N[2], 5);
        assert!(a.sent().is_empty(), "no session, nothing to slide");
    }

    #[test]
    fn donor_restarts_the_handshake_when_its_next_chunk_is_evicted() {
        let mut a = alone(N[0], Options::default().transfer_window(2));
        for _ in 0..5 {
            a.buf.publish(Bytes::from_static(b"xy")).unwrap();
        }
        a.serve(N[2], 0);
        assert_eq!(a.chunks(), vec![1, 2]);
        // Everyone else acked: the live window is reclaimed and the
        // 4-byte retained log keeps only messages 4 and 5.
        a.buf.reclaim(5);
        assert_eq!(a.buf.first_replayable(), 4);
        a.acked(N[2], 2);
        let sent = a.sent();
        assert!(
            matches!(
                sent[0].1,
                WireMsg::TransferSnapshot {
                    base: 3,
                    high: 5,
                    ..
                }
            ),
            "a new snapshot tells the requester to jump over 3: {sent:?}"
        );
        assert_eq!(sent.len(), 3, "and chunks 4 and 5 follow");
        assert_eq!(a.metrics.transfer_requests, 2);
    }

    /// PR 7, seed 503: ACKs are change-driven, so a requester that
    /// restarted never hears again the rows this donor announced while
    /// it was down — least of all its *own* stream's column, which no
    /// snapshot covers. Every request is answered with them first.
    #[test]
    fn donor_reannounces_its_ack_rows_before_the_snapshot() {
        let mut a = alone(N[0], Options::default());
        a.recorder.observe(N[2], N[0], RECEIVED, 7);
        a.serve(N[2], 0);
        let sent = a.sent();
        let announced = Ack {
            stream: N[2],
            ty: RECEIVED,
            seq: 7,
        };
        assert_eq!(sent[0], (N[2], WireMsg::AckBatch(vec![announced])));
        assert!(matches!(sent[1].1, WireMsg::TransferSnapshot { .. }));
        assert_eq!(a.t.active(), 0, "nothing to replay: no session opened");
    }

    #[test]
    fn requester_asks_again_only_after_a_full_period_without_progress() {
        let mut a = alone(N[2], Options::default());
        assert!(a.t.request(&a.recv, N[0], 0, &mut a.out));
        assert_eq!(a.sent(), vec![request(N[0], 0)]);
        a.tick(19 * MS);
        assert!(a.sent().is_empty(), "not a full period yet");
        a.tick(20 * MS);
        assert_eq!(a.sent(), vec![request(N[0], 0)]);
        // Progress (a chunk, or live data) restarts the period.
        a.recv[0].on_data(1, Bytes::new());
        a.t.applied(N[0], 1, None, 30 * MS, &mut a.out);
        a.sent();
        a.tick(49 * MS);
        assert!(a.sent().is_empty());
        a.tick(50 * MS);
        assert_eq!(a.sent(), vec![request(N[0], 1)], "from where it stands");
        // The snapshot names the target; reaching it closes the session.
        a.t.applied(N[0], 1, Some(2), 55 * MS, &mut a.out);
        assert_eq!(a.t.active(), 1);
        a.recv[0].on_data(2, Bytes::new());
        a.t.applied(N[0], 2, None, 56 * MS, &mut a.out);
        assert_eq!(a.t.active(), 0);
        let acks: Vec<SeqNo> = a
            .sent()
            .into_iter()
            .map(|(to, msg)| match msg {
                WireMsg::TransferAck { stream, through } if (to, stream) == (N[0], N[0]) => through,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(acks, vec![1, 2], "every applied frame is acknowledged");
    }

    #[test]
    fn requester_never_asks_a_suspected_donor() {
        let mut a = alone(N[2], Options::default());
        a.t.request(&a.recv, N[0], 0, &mut a.out);
        a.sent();
        a.membership.heard(N[1], 60 * MS);
        assert_eq!(a.membership.sweep(60 * MS, 50 * MS), vec![N[0]]);
        for now in (70..400).step_by(10) {
            a.tick(now * MS);
        }
        assert!(
            a.sent().is_empty(),
            "its recovery re-requests, not the tick"
        );
        assert!(a.membership.heard(N[0], 400 * MS));
        a.tick(420 * MS);
        assert_eq!(
            a.sent(),
            vec![request(N[0], 0)],
            "a period after it is back"
        );
    }

    /// PR 7, seed 538: a node that was unreachable without ever being
    /// suspected finds the origin's live window reclaimed — nothing will
    /// be retransmitted, and no session is open to stall. Lag alone,
    /// for the grace period (two periods here), requests the transfer.
    #[test]
    fn lag_behind_the_origins_own_ack_requests_a_transfer() {
        let mut a = alone(N[2], Options::default());
        a.recorder.observe(N[0], N[0], RECEIVED, 5);
        a.tick(10 * MS);
        a.tick(49 * MS);
        assert!(a.sent().is_empty(), "in flight, for all this node knows");
        a.tick(50 * MS);
        assert_eq!(a.sent(), vec![request(N[0], 0)], "stream 1 is not behind");
        assert_eq!(a.t.active(), 1);
        // From here the session's own watchdog supervises; lag is quiet.
        a.tick(60 * MS);
        assert!(a.sent().is_empty());
    }
}
