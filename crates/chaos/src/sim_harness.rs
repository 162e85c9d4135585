//! The simulator backend of the chaos harness: a
//! `Simulation<SimNode<ChaosObserver>>` stepped in virtual time, with
//! every protocol upcall and every harness action appended to one
//! hashed [`EventTrace`](crate::EventTrace) — the determinism
//! fingerprint. What is shared with the TCP backend, and what is not, is
//! the table in [`crate::harness`].

use crate::harness::{Advance, Backend, Chaos, ChaosError, TimedWork};
use crate::invariants::NodeView;
use crate::plan::FaultPlan;
use crate::trace::{ChaosObserver, SharedTrace};
use bytes::Bytes;
use stabilizer_core::sim_driver::{build_actors, SimNode};
use stabilizer_core::{
    ClusterConfig, CoreError, EventLog, Snapshot, StabilizerNode, WaitToken, WireMsg,
};
use stabilizer_dsl::{NodeId, SeqNo};
use stabilizer_netsim::{Actor, NetTopology, SimDuration, SimTime, Simulation};
use stabilizer_telemetry::Telemetry;
use std::sync::Arc;

/// The simulated cluster under a [`ChaosHarness`].
pub struct SimBackend {
    sim: Simulation<SimNode<ChaosObserver>>,
    cfg: ClusterConfig,
    trace: SharedTrace,
    telemetry: Option<Arc<Telemetry>>,
}

/// The chaos harness over the deterministic simulator. Build with
/// [`ChaosHarness::new`], run with [`Chaos::run`], then inspect the
/// cluster through the query methods or [`ChaosHarness::sim`].
pub type ChaosHarness = Chaos<SimBackend>;

impl ChaosHarness {
    /// Build the cluster, compile the plan, and merge it with the
    /// workload into one deterministic schedule.
    ///
    /// # Errors
    ///
    /// Fails on an invalid plan or a config whose predicates don't
    /// compile.
    pub fn new(
        cfg: &ClusterConfig,
        net: NetTopology,
        seed: u64,
        plan: &FaultPlan,
        workload: Vec<TimedWork>,
    ) -> Result<Self, ChaosError> {
        Self::new_with_telemetry(cfg, net, seed, plan, workload, None)
    }

    /// [`ChaosHarness::new`] with an optional telemetry hub: every
    /// node's upcalls additionally feed a
    /// [`MetricsObserver`](stabilizer_telemetry::MetricsObserver), and
    /// publishes are stamped so the hub can compute publish→deliver and
    /// publish→stable latency histograms. Use a hub built with
    /// [`Telemetry::new_sim`] so timestamps stay deterministic.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ChaosHarness::new`].
    pub fn new_with_telemetry(
        cfg: &ClusterConfig,
        net: NetTopology,
        seed: u64,
        plan: &FaultPlan,
        workload: Vec<TimedWork>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Self, ChaosError> {
        Chaos::assemble(cfg, plan, workload, telemetry.clone(), |trace| {
            let trace = trace.clone();
            // The checker reads every node's log beside the trace, so
            // each node keeps one (`SimNode::new`, as on a reboot).
            let sim = build_actors(cfg, net, seed, |me, acks| {
                let node = StabilizerNode::new(cfg.clone(), me, acks)?;
                let hooks = observer(me.0 as usize, &trace, telemetry.as_ref());
                Ok(SimNode::new(node, hooks))
            })?;
            if let Some(t) = &telemetry {
                t.record_placement(cfg.placement());
                // f* per key from every vantage in the cluster; the hub
                // keeps the weakest, which bounds the deployment.
                for i in 0..cfg.num_nodes() {
                    for (_stream, key, tol) in sim.actor(i).inner().predicate_tolerances() {
                        t.record_predicate_tolerance(key, tol);
                    }
                }
            }
            Ok(SimBackend {
                sim,
                cfg: cfg.clone(),
                trace,
                telemetry,
            })
        })
    }

    /// The underlying simulation (for post-run assertions).
    pub fn sim(&self) -> &Simulation<SimNode<ChaosObserver>> {
        &self.backend.sim
    }
}

/// The hooks of one incarnation of `node`: the hashed trace, plus the
/// hub's metrics observer when one is attached.
fn observer(node: usize, trace: &SharedTrace, telemetry: Option<&Arc<Telemetry>>) -> ChaosObserver {
    ChaosObserver::new(node as u16, trace.clone())
        .with_metrics(telemetry.map(|t| t.observer(NodeId(node as u16))))
}

impl Backend for SimBackend {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn advance(&mut self, next_action: Option<SimTime>, deadline: SimTime) -> Advance {
        let next_event = self.sim.next_event_time().filter(|&t| t <= deadline);
        match (next_action, next_event) {
            // Ties go to the scheduled action: a fault at time T
            // affects every event with time >= T.
            (Some(ta), te) if te.is_none_or(|te| ta <= te) => Advance::ActionDue,
            (_, Some(_)) => {
                self.sim.step();
                Advance::Stepped
            }
            // `(Some(_), None)` is consumed by the first arm; the
            // compiler cannot see through the guard.
            _ => Advance::Done,
        }
    }

    fn dropped(&self) -> u64 {
        self.sim.dropped()
    }

    fn set_link_up(&mut self, from: usize, to: usize, up: bool) {
        self.sim.set_link_up(from, to, up);
    }

    fn set_loss(&mut self, from: usize, to: usize, probability: f64) {
        self.sim.set_link_loss(from, to, probability);
    }

    fn set_egress(&mut self, node: usize, bytes_per_sec: f64) {
        self.sim.set_egress_limit(node, bytes_per_sec);
    }

    fn set_delay(&mut self, from: usize, to: usize, extra: SimDuration) {
        self.sim.set_link_extra_delay(from, to, extra);
    }

    fn set_dup_reorder(&mut self, from: usize, to: usize, dup: f64, reorder: f64) {
        self.sim.set_link_dup_reorder(from, to, dup, reorder);
    }

    fn inject(&mut self, from: usize, to: usize, msg: WireMsg) {
        self.sim.with_ctx(from, |_, ctx| ctx.send(to, msg));
    }

    fn set_timer_scale(&mut self, node: usize, scale: f64) {
        self.sim.actor_mut(node).set_timer_scale(scale);
    }

    /// The old actor keeps consuming in-flight messages as a "zombie",
    /// but nothing it does escapes (links down) or survives (the restart
    /// rebuilds from the snapshot).
    fn crash(&mut self, node: usize) -> Snapshot {
        self.sim.actor(node).inner().snapshot()
    }

    /// A restored machine resumes each stream it mirrors at the
    /// snapshot's RECEIVED cell (`StabilizerNode::restore`).
    fn boot(&mut self, node: usize, snapshot: Option<Snapshot>) {
        let me = NodeId(node as u16);
        let acks = Arc::clone(self.sim.actor(node).inner().ack_types());
        let machine = match snapshot {
            None => StabilizerNode::new(self.cfg.clone(), me, acks),
            Some(snapshot) => StabilizerNode::restore(self.cfg.clone(), me, acks, snapshot),
        }
        .expect("predicates compiled at startup recompile on reboot");
        let hooks = observer(node, &self.trace, self.telemetry.as_ref());
        self.sim.replace_actor(node, SimNode::new(machine, hooks));
    }

    /// `replace_actor` does not re-run the actor lifecycle: dispatch
    /// `on_start` manually to arm the periodic timers, begin §III-E
    /// catch-up (a no-op unless `transfer_millis` is set), and drain the
    /// actions the restore + fast-forward queued up.
    fn begin_catch_up(&mut self, node: usize, _restored: bool) {
        self.sim.with_ctx(node, |actor, ctx| {
            actor.on_start(ctx);
            actor.begin_catch_up_at(ctx.now());
            let actions = actor.inner_mut().take_actions();
            actor.process_actions(ctx, actions);
        });
    }

    fn enable_ack_journal(&mut self, node: usize) {
        self.sim.actor_mut(node).inner_mut().enable_ack_journal();
    }

    fn publish(&mut self, node: usize, payload: Bytes) -> Result<SeqNo, CoreError> {
        self.sim
            .with_ctx(node, |actor, ctx| actor.publish_in(ctx, payload))
    }

    fn change_predicate(
        &mut self,
        node: usize,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.sim.with_ctx(node, |actor, ctx| {
            actor.change_predicate_in(ctx, stream, key, source)
        })
    }

    fn waitfor(
        &mut self,
        node: usize,
        stream: NodeId,
        key: &str,
        seq: SeqNo,
    ) -> Result<WaitToken, CoreError> {
        self.sim
            .with_ctx(node, |actor, ctx| actor.waitfor_in(ctx, stream, key, seq))
    }

    fn with_node<R>(&self, node: usize, f: impl FnOnce(&StabilizerNode, &EventLog) -> R) -> R {
        let actor = self.sim.actor(node);
        f(actor.inner(), actor)
    }

    fn with_cut<R>(&mut self, f: impl FnOnce(&[NodeView<'_>]) -> R) -> R {
        let n = self.cfg.num_nodes();
        // Drain each node's dirty-cell journal first (mutable pass),
        // then build the immutable views the checker consumes.
        let dirty: Vec<Vec<_>> = (0..n)
            .map(|i| self.sim.actor_mut(i).inner_mut().take_ack_journal())
            .collect();
        let views: Vec<NodeView<'_>> = (0..n)
            .zip(dirty)
            .map(|(i, d)| {
                let actor = self.sim.actor(i);
                NodeView::new(actor.inner(), actor, Some(d))
            })
            .collect();
        f(&views)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::WorkItem;
    use crate::plan::{Fault, FaultEvent};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn small_cfg() -> ClusterConfig {
        ClusterConfig::parse(
            "az A n0 n1\naz B n2\n\
             predicate All MIN($ALLWNODES-$MYWNODE)\n\
             option ack_flush_micros 1000\n\
             option heartbeat_millis 50\n\
             option retransmit_millis 100\n",
        )
        .unwrap()
    }

    fn publishes(node: usize, n: usize, every: u64) -> Vec<TimedWork> {
        (0..n)
            .map(|i| TimedWork {
                at: SimDuration::from_millis(10 + i as u64 * every),
                item: WorkItem::Publish { node, len: 64 },
            })
            .collect()
    }

    #[test]
    fn clean_run_is_violation_free_and_delivers() {
        let cfg = small_cfg();
        let net = NetTopology::full_mesh(3, ms(5), 1e9);
        let mut h =
            ChaosHarness::new(&cfg, net, 7, &FaultPlan::default(), publishes(0, 10, 20)).unwrap();
        let report = h.run(ms(800)).unwrap();
        assert!(report.steps > 0);
        // Every peer delivered the whole stream.
        for i in 1..3 {
            assert_eq!(
                h.sim().actor(i).inner().recorder().get(
                    NodeId(0),
                    NodeId(i as u16),
                    stabilizer_dsl::DELIVERED
                ),
                10
            );
        }
    }

    #[test]
    fn crash_restart_preserves_invariants_and_stream() {
        let cfg = small_cfg();
        let net = NetTopology::full_mesh(3, ms(5), 1e9);
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at: ms(100),
                fault: Fault::CrashRestart {
                    node: 2,
                    down_for: ms(150),
                },
            }],
        };
        let mut h = ChaosHarness::new(&cfg, net, 11, &plan, publishes(0, 12, 40)).unwrap();
        let report = h.run(ms(1500)).unwrap();
        assert!(report.dropped > 0, "the crash window should drop traffic");
        // The restarted node caught back up via retransmission.
        assert_eq!(
            h.sim().actor(2).inner().recorder().get(
                NodeId(0),
                NodeId(2),
                stabilizer_dsl::DELIVERED
            ),
            12
        );
    }

    #[test]
    fn identical_runs_have_identical_trace_hashes() {
        let run = || {
            let cfg = small_cfg();
            let net = NetTopology::full_mesh(3, ms(5), 1e9);
            let plan = FaultPlan {
                events: vec![FaultEvent {
                    at: ms(50),
                    fault: Fault::Partition {
                        side: vec![0],
                        heal_after: ms(100),
                    },
                }],
            };
            let mut h = ChaosHarness::new(&cfg, net, 42, &plan, publishes(1, 8, 25)).unwrap();
            h.run(ms(1000)).unwrap().trace_hash
        };
        assert_eq!(run(), run());
    }
}
