//! The quorum read/write protocol over simulated Stabilizer nodes.
//!
//! Roles (matching the paper's Fig. 3 setup): one *writer* originates a
//! stream of register versions; a set of *members* mirror it (they are
//! ordinary Stabilizer peers); a *reader* polls the members with read
//! requests and completes each read when `Nr` responses have arrived,
//! returning the highest version seen.

use bytes::Bytes;
use stabilizer_core::sim_driver::{build_actors, NoHooks, SimNode};
use stabilizer_core::{
    ClusterConfig, CoreError, NodeId, SeqNo, StabilizerNode, TimerKind, WireMsg,
};
use stabilizer_dsl::{AckTypeRegistry, RECEIVED};
use stabilizer_netsim::{
    Actor, Ctx, MsgSize, NetTopology, SimDuration, SimTime, Simulation, TimerId,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Messages of the quorum overlay: Stabilizer traffic plus read RPCs.
#[derive(Debug, Clone)]
pub enum QuorumMsg {
    /// Mirroring and control traffic of the underlying Stabilizer.
    Stab(WireMsg),
    /// Reader's request for a member's current version.
    ReadReq {
        /// Correlates responses to a poll round.
        id: u64,
    },
    /// Member's response: its latest in-order version of the writer's
    /// stream and the size of the carried value (size drives the network
    /// model; the payload content is irrelevant to latency).
    ReadResp {
        /// Echoed request id.
        id: u64,
        /// Member's version (0 = nothing yet).
        version: SeqNo,
        /// Size of the carried value in bytes.
        size: usize,
    },
}

impl MsgSize for QuorumMsg {
    fn wire_size(&self) -> usize {
        match self {
            QuorumMsg::Stab(m) => m.wire_size(),
            QuorumMsg::ReadReq { .. } => 64,
            QuorumMsg::ReadResp { size, .. } => 64 + size,
        }
    }
}

/// Static description of a quorum deployment on a network topology.
#[derive(Debug, Clone)]
pub struct QuorumSetup {
    /// Index of the writing client (stream origin).
    pub writer: usize,
    /// Index of the reading client.
    pub reader: usize,
    /// Indices of the quorum members.
    pub members: Vec<usize>,
    /// Read quorum size.
    pub nr: usize,
    /// Write quorum size.
    pub nw: usize,
}

impl QuorumSetup {
    /// The Fig. 3 configuration: members {UT1, WI, CLEM}, writer UT2,
    /// reader UT1, `Nr = Nw = 2` on the CloudLab topology.
    pub fn fig3() -> Self {
        QuorumSetup {
            writer: 1,
            reader: 0,
            members: vec![0, 2, 3],
            nr: 2,
            nw: 2,
        }
    }

    /// The write predicate in the DSL: at least `Nw` members acked.
    pub fn write_predicate(&self) -> String {
        let operands: Vec<String> = self.members.iter().map(|m| format!("${}", m + 1)).collect();
        format!("KTH_MAX({}, {})", self.nw, operands.join(", "))
    }

    /// The read predicate (§IV-B): `Nr` members reachable.
    pub fn read_predicate(&self) -> String {
        let operands: Vec<String> = self.members.iter().map(|m| format!("${}", m + 1)).collect();
        format!("KTH_MAX({}, {})", self.nr, operands.join(", "))
    }

    /// Check the quorum-overlap requirement `Nr + Nw > N`.
    pub fn overlaps(&self) -> bool {
        self.nr + self.nw > self.members.len()
    }
}

/// A completed quorum read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// When the read completed (the `Nr`-th response arrived).
    pub at: SimTime,
    /// The highest version among the `Nr` responses — the value a classic
    /// quorum read returns (any overlap member supplies it).
    pub version: SeqNo,
    /// The *lowest* version among the `Nr` responses: every member of
    /// this read quorum holds at least this version. The paper's Fig. 3
    /// latency ("the time it is received by the reader") is measured
    /// against this, which is why larger values shift the curve slightly
    /// (the write and the response both serialize the value over the
    /// Wisconsin link).
    pub quorum_version: SeqNo,
}

const TAG_POLL: u64 = TimerKind::APP_TAG_BASE;

/// One node of the quorum deployment: every node embeds the core
/// [`SimNode`] driver, reached through a [`Ctx::lens`] so that its
/// `WireMsg`s travel as [`QuorumMsg::Stab`]; the read protocol beside it
/// is the application's own (the reader additionally polls).
pub struct QuorumActor {
    sim: SimNode,
    setup: QuorumSetup,
    /// Outstanding reads at the reader: id -> versions received.
    outstanding: HashMap<u64, Vec<SeqNo>>,
    next_read: u64,
    /// Completed reads in completion order.
    pub reads: Vec<ReadResult>,
    poll_every: SimDuration,
    target: Option<SeqNo>,
    poll_deadline: Option<SimTime>,
    value_size: usize,
}

impl QuorumActor {
    /// Build node `me` of the deployment.
    ///
    /// # Errors
    ///
    /// Propagates predicate-compile failures (e.g. an invalid setup).
    pub fn new(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
        setup: QuorumSetup,
    ) -> Result<Self, CoreError> {
        let mut node = StabilizerNode::new(cfg, me, acks)?;
        if me.0 as usize == setup.writer {
            node.register_predicate(me, "W", &setup.write_predicate())?;
        }
        Ok(QuorumActor {
            sim: SimNode::new(node, NoHooks),
            setup,
            outstanding: HashMap::new(),
            next_read: 0,
            reads: Vec::new(),
            poll_every: SimDuration::from_micros(500),
            target: None,
            poll_deadline: None,
            value_size: 0,
        })
    }

    /// Writer: publish a new register version of `size` bytes.
    ///
    /// # Errors
    ///
    /// Data-plane errors (backpressure, payload too large).
    pub fn write_in(
        &mut self,
        ctx: &mut Ctx<'_, QuorumMsg>,
        size: usize,
    ) -> Result<SeqNo, CoreError> {
        self.value_size = size;
        let value = Bytes::from(vec![0u8; size]);
        ctx.lens(QuorumMsg::Stab, |ctx| self.sim.publish_in(ctx, value))
    }

    /// Reader: poll members until a read observes `target` (or `deadline`
    /// passes). Results accumulate in [`QuorumActor::reads`].
    pub fn chase_version(
        &mut self,
        ctx: &mut Ctx<'_, QuorumMsg>,
        target: SeqNo,
        deadline: SimTime,
    ) {
        self.target = Some(target);
        self.poll_deadline = Some(deadline);
        self.issue_read(ctx);
        ctx.set_timer(self.poll_every, TAG_POLL);
    }

    /// First time the write predicate covered `seq` at the writer.
    pub fn write_committed_at(&self, seq: SeqNo) -> Option<SimTime> {
        self.sim.covered_at(self.stabilizer().me(), "W", seq)
    }

    /// First completed read whose *whole* read quorum held at least
    /// `version` (the Fig. 3 "received by the reader" instant).
    pub fn read_observed_at(&self, version: SeqNo) -> Option<SimTime> {
        self.reads
            .iter()
            .find(|r| r.quorum_version >= version)
            .map(|r| r.at)
    }

    /// The wrapped Stabilizer node.
    pub fn stabilizer(&self) -> &StabilizerNode {
        self.sim.inner()
    }

    /// The embedded simulator driver, read-only: its `EventLog` by
    /// deref, and the view the chaos checker takes of a bare cluster.
    pub fn driver(&self) -> &SimNode {
        &self.sim
    }

    /// Tell members how large the register value is (read responses carry
    /// it; only its size matters to the network model).
    pub fn set_value_size(&mut self, size: usize) {
        self.value_size = size;
    }

    fn issue_read(&mut self, ctx: &mut Ctx<'_, QuorumMsg>) {
        let id = self.next_read;
        self.next_read += 1;
        self.outstanding.insert(id, Vec::new());
        let members = self.setup.members.clone();
        for m in members {
            if m == ctx.me() {
                let version = self.local_version(ctx.me());
                self.record_response(ctx, id, version);
            } else {
                ctx.send(m, QuorumMsg::ReadReq { id });
            }
        }
    }

    fn local_version(&self, me: usize) -> SeqNo {
        let writer = NodeId(self.setup.writer as u16);
        if me == self.setup.writer {
            self.stabilizer().last_published()
        } else {
            self.stabilizer()
                .recorder()
                .get(writer, NodeId(me as u16), RECEIVED)
        }
    }

    fn record_response(&mut self, ctx: &mut Ctx<'_, QuorumMsg>, id: u64, version: SeqNo) {
        let Some(versions) = self.outstanding.get_mut(&id) else {
            return;
        };
        versions.push(version);
        if versions.len() >= self.setup.nr {
            let version = versions.iter().copied().max().unwrap_or(0);
            let quorum_version = versions.iter().copied().min().unwrap_or(0);
            self.outstanding.remove(&id);
            self.reads.push(ReadResult {
                at: ctx.now(),
                version,
                quorum_version,
            });
            if let Some(t) = self.target {
                if quorum_version >= t {
                    self.target = None; // satisfied; polling stops
                }
            }
        }
    }
}

impl Actor for QuorumActor {
    type Msg = QuorumMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, QuorumMsg>) {
        ctx.lens(QuorumMsg::Stab, |ctx| self.sim.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, QuorumMsg>, from: usize, msg: QuorumMsg) {
        match msg {
            QuorumMsg::Stab(wire) => {
                ctx.lens(QuorumMsg::Stab, |ctx| self.sim.on_message(ctx, from, wire))
            }
            QuorumMsg::ReadReq { id } => {
                let version = self.local_version(ctx.me());
                let size = if version > 0 { self.value_size } else { 0 };
                ctx.send(from, QuorumMsg::ReadResp { id, version, size });
            }
            QuorumMsg::ReadResp { id, version, .. } => {
                self.record_response(ctx, id, version);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, QuorumMsg>, timer: TimerId, tag: u64) {
        if tag != TAG_POLL {
            return ctx.lens(QuorumMsg::Stab, |ctx| self.sim.on_timer(ctx, timer, tag));
        }
        if let (Some(_), Some(deadline)) = (self.target, self.poll_deadline) {
            if ctx.now() <= deadline {
                self.issue_read(ctx);
                ctx.set_timer(self.poll_every, TAG_POLL);
            }
        }
    }
}

/// Build a quorum deployment over `net` with one actor per site.
///
/// # Errors
///
/// Propagates configuration and predicate-compile errors.
///
/// # Panics
///
/// Panics if `setup` violates quorum overlap (`Nr + Nw <= N`) or the
/// network and cluster sizes differ.
pub fn build_quorum(
    cfg: &ClusterConfig,
    net: NetTopology,
    setup: QuorumSetup,
    seed: u64,
) -> Result<Simulation<QuorumActor>, CoreError> {
    assert!(setup.overlaps(), "quorum overlap requires Nr + Nw > N");
    build_actors(cfg, net, seed, |me, acks| {
        QuorumActor::new(cfg.clone(), me, acks, setup.clone())
    })
}
