//! Randomized chaos scenarios with seed replay.
//!
//! [`Scenario::from_seed`] expands a single `u64` into everything a run
//! needs — topology, cluster config, timed workload, fault plan, and
//! horizon — using only the seeded RNG, so the same seed always yields
//! the same scenario and (because the harness itself is deterministic)
//! the same event trace. A failing seed is therefore a complete bug
//! report: [`ChaosFailure`] prints the one-line replay command.

use crate::harness::RunReport;
use crate::harness::{TimedWork, WorkItem};
use crate::invariants::InvariantViolation;
use crate::plan::{Fault, FaultEvent, FaultPlan};
use crate::sim_harness::ChaosHarness;
use rand::prelude::*;
use stabilizer_core::ClusterConfig;
use stabilizer_netsim::{NetTopology, SimDuration};
use stabilizer_telemetry::Telemetry;
use std::fmt;
use std::sync::Arc;

/// Which network the scenario runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyKind {
    /// The paper's Fig. 2 EC2 deployment (8 nodes, 4 regions).
    Ec2Fig2,
    /// The paper's Table 2 CloudLab deployment (5 nodes).
    CloudlabTable2,
    /// A uniform full mesh.
    FullMesh {
        /// Cluster size.
        n: usize,
        /// One-way propagation delay in milliseconds.
        one_way_ms: u64,
    },
}

impl TopologyKind {
    /// Build the simulator topology.
    pub fn build(&self) -> NetTopology {
        match self {
            TopologyKind::Ec2Fig2 => NetTopology::ec2_fig2(),
            TopologyKind::CloudlabTable2 => NetTopology::cloudlab_table2(),
            TopologyKind::FullMesh { n, one_way_ms } => {
                NetTopology::full_mesh(*n, SimDuration::from_millis(*one_way_ms), 1e9)
            }
        }
    }

    /// Cluster size.
    pub fn num_nodes(&self) -> usize {
        match self {
            TopologyKind::Ec2Fig2 => 8,
            TopologyKind::CloudlabTable2 => 5,
            TopologyKind::FullMesh { n, .. } => *n,
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::Ec2Fig2 => write!(f, "ec2_fig2"),
            TopologyKind::CloudlabTable2 => write!(f, "cloudlab_table2"),
            TopologyKind::FullMesh { n, one_way_ms } => {
                write!(f, "full_mesh(n={n}, {one_way_ms}ms)")
            }
        }
    }
}

/// A fully expanded scenario; see [`Scenario::from_seed`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generating seed.
    pub seed: u64,
    /// Network shape.
    pub topology: TopologyKind,
    /// Cluster configuration text (parseable by `ClusterConfig::parse`).
    pub cfg_text: String,
    /// Timed workload.
    pub workload: Vec<TimedWork>,
    /// Fault schedule.
    pub plan: FaultPlan,
    /// Virtual run length.
    pub horizon: SimDuration,
}

/// A scenario run that tripped an invariant. `Display` includes the
/// replay command.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The failing seed.
    pub seed: u64,
    /// The violation the checker reported.
    pub violation: InvariantViolation,
    /// The fault plan that was active (input to the minimizer).
    pub plan: FaultPlan,
    /// Scenario summary for the report.
    pub summary: String,
}

impl ChaosFailure {
    /// The command that reruns exactly this scenario.
    pub fn replay_command(&self) -> String {
        format!(
            "CHAOS_SEED={} cargo test -p stabilizer-chaos --test chaos_sweep \
             replay_from_env -- --nocapture",
            self.seed
        )
    }
}

impl fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos scenario seed {} failed: {}",
            self.seed, self.violation
        )?;
        writeln!(f, "scenario: {}", self.summary)?;
        writeln!(f, "fault plan: {:?}", self.plan)?;
        write!(f, "replay with: {}", self.replay_command())
    }
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

impl Scenario {
    /// Expand `seed` into a scenario. Pure function of the seed.
    pub fn from_seed(seed: u64) -> Scenario {
        let mut rng = SmallRng::seed_from_u64(seed);
        let topology = match rng.gen_range(0u32..3) {
            0 => TopologyKind::Ec2Fig2,
            1 => TopologyKind::CloudlabTable2,
            _ => TopologyKind::FullMesh {
                // Small meshes shake out protocol corner cases; the
                // 12-16 node draws exercise scale (wide partitions,
                // correlated crashes, aggregated frontiers).
                n: if rng.gen_bool(0.6) {
                    rng.gen_range(4usize..=6)
                } else {
                    rng.gen_range(12usize..=16)
                },
                one_way_ms: rng.gen_range(2u64..=30),
            },
        };
        let n = topology.num_nodes();
        let horizon_ms = rng.gen_range(1500u64..=2500);
        let active_ms = horizon_ms * 3 / 5;

        let cfg_text = Self::gen_config(&mut rng, n, seed);
        let (workload, publishers) = Self::gen_workload(&mut rng, n, active_ms);
        let plan = Self::gen_plan(&mut rng, n, active_ms);
        let _ = publishers;

        Scenario {
            seed,
            topology,
            cfg_text,
            workload,
            plan,
            horizon: ms(horizon_ms),
        }
    }

    /// [`Scenario::from_seed`], then arm a Byzantine ACK forgery on top:
    /// after every benign fault has cleared (the forgery is scheduled
    /// past the original horizon, and the horizon is extended to leave
    /// delivery runway), a randomly drawn node broadcasts ACKs far ahead
    /// of its true receive state. The run is *expected* to fail with the
    /// `belief-beyond-truth` violation
    /// ([`FaultPlan::expected_violation`]); a byzantine scenario that
    /// runs clean means the invariant checker has a hole.
    pub fn from_seed_byzantine(seed: u64) -> Scenario {
        let mut s = Scenario::from_seed(seed);
        // Independent RNG stream: the forger draw must not disturb the
        // benign seed -> scenario mapping above.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB12A_47CE_ACC0_FA3E);
        let n = s.topology.num_nodes();
        let at = s.horizon + ms(300);
        s.horizon = s.horizon + ms(800);
        s.plan.events.push(FaultEvent {
            at,
            fault: Fault::ByzantineAck {
                node: rng.gen_range(0..n),
                // Far beyond anything the bounded workload publishes, so
                // honest progress between forgery and check can never
                // legitimize the claim.
                ahead: 1_000_000,
            },
        });
        s
    }

    fn gen_config(rng: &mut SmallRng, n: usize, seed: u64) -> String {
        let mut cfg = String::new();
        // Contiguous az split into 2..=3 groups (or fewer for tiny n).
        let az_count = rng.gen_range(2usize..=3.min(n));
        let mut boundaries: Vec<usize> = Vec::new();
        while boundaries.len() < az_count - 1 {
            let b = rng.gen_range(1..n);
            if !boundaries.contains(&b) {
                boundaries.push(b);
            }
        }
        boundaries.sort_unstable();
        boundaries.push(n);
        let mut start = 0;
        for (az, &end) in boundaries.iter().enumerate() {
            cfg.push_str(&format!("az AZ{az}"));
            for i in start..end {
                cfg.push_str(&format!(" w{i}"));
            }
            cfg.push('\n');
            start = end;
        }
        // Partial replication: a slice of seeds pins each stream to a
        // small replica set instead of the full mesh, so the sweep
        // exercises placement-scoped routing, acks, and recovery. Two
        // shapes: disjoint 3-groups (replica sets never share a node
        // across groups) and an overlapping ring (adjacent sets share
        // two nodes). Every set keeps >= 3 members so a Byzantine
        // forger always has honest replica peers to detect it.
        //
        // The placement draws come from an independent RNG stream (same
        // pattern as the byzantine overlay) so the seed -> scenario
        // mapping for topology, workload, and faults — which the pinned
        // liveness/blame seeds depend on — is untouched.
        let mut prng = SmallRng::seed_from_u64(seed ^ 0x0123_4567_89AB_CDEF);
        if n >= 5 && prng.gen_bool(0.35) {
            if n >= 6 && prng.gen_bool(0.5) {
                // Disjoint groups of 3; the last group absorbs the
                // remainder (a group of 4 or 5 for n % 3 != 0).
                let groups = n / 3;
                for i in 0..n {
                    let g = (i / 3).min(groups - 1);
                    let start = g * 3;
                    let end = if g == groups - 1 { n } else { start + 3 };
                    cfg.push_str(&format!("replicate w{i}"));
                    for m in start..end {
                        cfg.push_str(&format!(" w{m}"));
                    }
                    cfg.push('\n');
                }
            } else {
                for i in 0..n {
                    cfg.push_str(&format!(
                        "replicate w{i} w{i} w{} w{}\n",
                        (i + 1) % n,
                        (i + 2) % n
                    ));
                }
            }
        }
        // Topology-independent predicates over the full node set; "All"
        // is always present (the workload's change/wait targets). Under
        // a partial placement the core restricts each compiled predicate
        // to the stream's replica set at registration time.
        cfg.push_str("predicate All MIN($ALLWNODES-$MYWNODE)\n");
        if rng.gen_bool(0.6) {
            cfg.push_str("predicate One MAX($ALLWNODES-$MYWNODE)\n");
        }
        if rng.gen_bool(0.6) {
            cfg.push_str("predicate Maj KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)\n");
        }
        cfg.push_str(&format!(
            "option ack_flush_micros {}\n",
            rng.gen_range(1000u64..=4000)
        ));
        cfg.push_str("option heartbeat_millis 50\n");
        cfg.push_str("option failure_timeout_millis 300\n");
        cfg.push_str("option retransmit_millis 100\n");
        // §III-E state transfer is always armed: crash windows longer
        // than the failure timeout evict the suspect from send-buffer
        // retention, and the restarted node must recover through
        // snapshot + retained-log replay. Fixed values (no RNG draws)
        // keep the seed -> scenario mapping for everything else stable.
        cfg.push_str("option retain_log_bytes 1048576\n");
        cfg.push_str("option transfer_millis 40\n");
        cfg.push_str("option transfer_window 16\n");
        if rng.gen_bool(0.3) {
            cfg.push_str("option auto_exclude_suspects true\n");
        }
        cfg
    }

    fn gen_workload(rng: &mut SmallRng, n: usize, active_ms: u64) -> (Vec<TimedWork>, Vec<usize>) {
        let mut publishers = vec![rng.gen_range(0..n)];
        if rng.gen_bool(0.5) {
            let second = rng.gen_range(0..n);
            if second != publishers[0] {
                publishers.push(second);
            }
        }
        let mut workload = Vec::new();
        for &p in &publishers {
            let count = rng.gen_range(6u64..=15);
            for _ in 0..count {
                workload.push(TimedWork {
                    at: ms(rng.gen_range(10..active_ms)),
                    item: WorkItem::Publish {
                        node: p,
                        len: rng.gen_range(32usize..=400),
                    },
                });
            }
            if rng.gen_bool(0.5) {
                // Swap the All predicate mid-stream: generation bump under
                // load, the exact path the frontier-regression invariant
                // guards.
                workload.push(TimedWork {
                    at: ms(rng.gen_range(active_ms / 2..active_ms)),
                    item: WorkItem::ChangePredicate {
                        node: p,
                        stream: p,
                        key: "All".to_string(),
                        source: "MAX($ALLWNODES-$MYWNODE)".to_string(),
                    },
                });
            }
            if rng.gen_bool(0.5) {
                workload.push(TimedWork {
                    at: ms(rng.gen_range(10..active_ms / 2)),
                    item: WorkItem::WaitFor {
                        node: p,
                        stream: p,
                        key: "All".to_string(),
                        seq: rng.gen_range(1..=count),
                    },
                });
            }
        }
        workload.sort_by_key(|w| w.at);
        (workload, publishers)
    }

    fn gen_plan(rng: &mut SmallRng, n: usize, active_ms: u64) -> FaultPlan {
        let mut events = Vec::new();
        let mut crashed_nodes: Vec<usize> = Vec::new();
        let mut joined_nodes: Vec<usize> = Vec::new();
        let count = rng.gen_range(1usize..=5);
        for _ in 0..count {
            let at = ms(rng.gen_range(50..active_ms));
            let fault = match rng.gen_range(0u32..9) {
                0 => {
                    let size = rng.gen_range(1..n);
                    let mut all: Vec<usize> = (0..n).collect();
                    for i in 0..size {
                        let j = rng.gen_range(i..n);
                        all.swap(i, j);
                    }
                    let mut side = all[..size].to_vec();
                    side.sort_unstable();
                    Fault::Partition {
                        side,
                        heal_after: ms(rng.gen_range(100u64..=400)),
                    }
                }
                1 => {
                    let from = rng.gen_range(0..n);
                    let to = (from + rng.gen_range(1..n)) % n;
                    Fault::AsymmetricLoss {
                        from,
                        to,
                        probability: rng.gen_range(0.05f64..0.4),
                        clear_after: ms(rng.gen_range(100u64..=500)),
                    }
                }
                2 => Fault::BandwidthCollapse {
                    node: rng.gen_range(0..n),
                    bytes_per_sec: rng.gen_range(20_000.0f64..200_000.0),
                    restore_after: ms(rng.gen_range(100u64..=400)),
                },
                3 => {
                    let node = rng.gen_range(0..n);
                    if crashed_nodes.contains(&node) || joined_nodes.contains(&node) {
                        // One crash window per node keeps windows trivially
                        // disjoint (and a crash must not precede a join);
                        // substitute a loss burst.
                        Fault::AsymmetricLoss {
                            from: node,
                            to: (node + 1) % n,
                            probability: 0.3,
                            clear_after: ms(200),
                        }
                    } else {
                        crashed_nodes.push(node);
                        Fault::CrashRestart {
                            node,
                            down_for: ms(rng.gen_range(150u64..=400)),
                        }
                    }
                }
                4 => {
                    let from = rng.gen_range(0..n);
                    let to = (from + rng.gen_range(1..n)) % n;
                    Fault::DelaySkew {
                        from,
                        to,
                        extra: ms(rng.gen_range(20u64..=80)),
                        clear_after: ms(rng.gen_range(100u64..=400)),
                    }
                }
                5 => {
                    // Membership change: the node sits out from boot and
                    // joins live, catching up via §III-E transfer. One
                    // join per node, never for a node that also crashes
                    // (the join would have to precede the crash).
                    let node = rng.gen_range(0..n);
                    if joined_nodes.contains(&node) || crashed_nodes.contains(&node) {
                        Fault::AsymmetricLoss {
                            from: node,
                            to: (node + 1) % n,
                            probability: 0.3,
                            clear_after: ms(200),
                        }
                    } else {
                        joined_nodes.push(node);
                        Fault::Join { node }
                    }
                }
                6 => {
                    // Clock skew: one node's timers run fast (factor < 1)
                    // or slow (factor > 1) until the skew clears.
                    let factor = if rng.gen_bool(0.5) {
                        rng.gen_range(0.25f64..0.8)
                    } else {
                        rng.gen_range(1.5f64..4.0)
                    };
                    Fault::ClockSkew {
                        node: rng.gen_range(0..n),
                        factor,
                        clear_after: ms(rng.gen_range(100u64..=400)),
                    }
                }
                7 => {
                    let from = rng.gen_range(0..n);
                    let to = (from + rng.gen_range(1..n)) % n;
                    Fault::DupReorder {
                        from,
                        to,
                        dup_probability: rng.gen_range(0.05f64..0.5),
                        reorder_probability: rng.gen_range(0.05f64..0.5),
                        clear_after: ms(rng.gen_range(100u64..=500)),
                    }
                }
                _ => {
                    // Correlated crash: a batch of nodes goes down within
                    // one window (a zone outage), restarting staggered.
                    // Reuses the one-crash-window-per-node budget.
                    let avail: Vec<usize> = (0..n)
                        .filter(|i| !crashed_nodes.contains(i) && !joined_nodes.contains(i))
                        .collect();
                    // Need >= 2 victims while leaving at least one node up.
                    let max_k = avail.len().min(n - 1).min(3);
                    if max_k < 2 {
                        let from = rng.gen_range(0..n);
                        Fault::AsymmetricLoss {
                            from,
                            to: (from + rng.gen_range(1..n)) % n,
                            probability: 0.3,
                            clear_after: ms(200),
                        }
                    } else {
                        let k = rng.gen_range(2..=max_k);
                        let mut pool = avail;
                        let mut nodes = Vec::with_capacity(k);
                        for _ in 0..k {
                            nodes.push(pool.swap_remove(rng.gen_range(0..pool.len())));
                        }
                        nodes.sort_unstable();
                        crashed_nodes.extend(nodes.iter().copied());
                        Fault::CorrelatedCrash {
                            nodes,
                            spread: ms(rng.gen_range(0u64..=50)),
                            down_for: ms(rng.gen_range(150u64..=300)),
                            stagger: ms(rng.gen_range(0u64..=80)),
                        }
                    }
                }
            };
            events.push(FaultEvent { at, fault });
        }
        FaultPlan { events }
    }

    /// One-line summary for failure reports.
    pub fn summary(&self) -> String {
        format!(
            "topology {} ({} nodes), {} workload items, {} faults, horizon {}",
            self.topology,
            self.topology.num_nodes(),
            self.workload.len(),
            self.plan.events.len(),
            self.horizon
        )
    }

    /// Build and run the scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`ChaosFailure`] (with replay command) on any invariant
    /// violation.
    ///
    /// # Panics
    ///
    /// Panics if the generated config or plan is invalid — that would be
    /// a bug in the generator itself, not in the system under test.
    pub fn run(&self) -> Result<RunReport, ChaosFailure> {
        self.run_with_plan(&self.plan)
    }

    /// [`Scenario::run`] with a substituted fault plan (the minimizer
    /// re-runs the same scenario under shrunken plans).
    ///
    /// # Errors
    ///
    /// Returns a [`ChaosFailure`] on any invariant violation.
    ///
    /// # Panics
    ///
    /// Panics if the generated config or the plan is invalid.
    pub fn run_with_plan(&self, plan: &FaultPlan) -> Result<RunReport, ChaosFailure> {
        self.run_instrumented(plan, None)
    }

    /// [`Scenario::run`] feeding an attached telemetry hub: publishes
    /// are stamped and every upcall is mirrored into the hub's metrics
    /// and trace ring, so the run yields stability-latency histograms
    /// alongside the invariant verdict. Build the hub with
    /// [`Telemetry::new_sim`] (or `new_sim_with_trace`) so its
    /// timestamps are the simulator's deterministic virtual clock.
    ///
    /// # Errors
    ///
    /// Returns a [`ChaosFailure`] on any invariant violation.
    ///
    /// # Panics
    ///
    /// Panics if the generated config or plan is invalid.
    pub fn run_with_telemetry(&self, telemetry: Arc<Telemetry>) -> Result<RunReport, ChaosFailure> {
        self.run_instrumented(&self.plan, Some(telemetry))
    }

    fn run_instrumented(
        &self,
        plan: &FaultPlan,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<RunReport, ChaosFailure> {
        let cfg = ClusterConfig::parse(&self.cfg_text).expect("generated config parses");
        let mut harness = ChaosHarness::new_with_telemetry(
            &cfg,
            self.topology.build(),
            self.seed,
            plan,
            self.workload.clone(),
            telemetry,
        )
        .expect("generated scenario is valid");
        harness.run(self.horizon).map_err(|violation| ChaosFailure {
            seed: self.seed,
            violation,
            plan: plan.clone(),
            summary: self.summary(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..50u64 {
            let a = Scenario::from_seed(seed);
            let b = Scenario::from_seed(seed);
            assert_eq!(a.cfg_text, b.cfg_text);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.horizon, b.horizon);
            ClusterConfig::parse(&a.cfg_text).expect("config parses");
            a.plan
                .validate(a.topology.num_nodes())
                .expect("plan validates");
            assert!(!a.workload.is_empty());
        }
    }

    #[test]
    fn generator_draws_the_new_faults_and_large_meshes() {
        let (mut skew, mut dup, mut corr, mut large) = (false, false, false, false);
        for seed in 0..400u64 {
            let s = Scenario::from_seed(seed);
            if matches!(s.topology, TopologyKind::FullMesh { n, .. } if n >= 12) {
                large = true;
            }
            for ev in &s.plan.events {
                match ev.fault {
                    Fault::ClockSkew { .. } => skew = true,
                    Fault::DupReorder { .. } => dup = true,
                    Fault::CorrelatedCrash { .. } => corr = true,
                    _ => {}
                }
            }
        }
        assert!(skew, "no seed in 0..400 drew ClockSkew");
        assert!(dup, "no seed in 0..400 drew DupReorder");
        assert!(corr, "no seed in 0..400 drew CorrelatedCrash");
        assert!(large, "no seed in 0..400 drew a 12-16 node mesh");
    }

    #[test]
    fn generator_draws_partial_placements() {
        let (mut ring, mut disjoint, mut large_partial) = (false, false, false);
        for seed in 0..400u64 {
            let s = Scenario::from_seed(seed);
            if !s.cfg_text.contains("replicate ") {
                continue;
            }
            let cfg = ClusterConfig::parse(&s.cfg_text).expect("placement config parses");
            let p = cfg.placement();
            let n = s.topology.num_nodes();
            assert!(
                !p.is_full_replication(),
                "seed {seed}: replicate lines but full map"
            );
            let sets: Vec<_> = (0..n)
                .map(|i| p.replicas(stabilizer_core::NodeId(i as u16)).to_vec())
                .collect();
            for set in &sets {
                assert!(set.len() >= 3, "seed {seed}: replica set smaller than 3");
            }
            let overlapping = sets.iter().enumerate().any(|(i, a)| {
                sets.iter()
                    .enumerate()
                    .any(|(j, b)| i != j && a != b && a.iter().any(|x| b.contains(x)))
            });
            if overlapping {
                ring = true;
            } else {
                disjoint = true;
            }
            if n >= 12 {
                large_partial = true;
            }
        }
        assert!(ring, "no seed in 0..400 drew an overlapping ring placement");
        assert!(disjoint, "no seed in 0..400 drew disjoint replica groups");
        assert!(
            large_partial,
            "no seed in 0..400 drew a partial placement on a 12-16 node mesh"
        );
    }

    #[test]
    fn byzantine_generation_is_deterministic_and_additive() {
        for seed in 0..50u64 {
            let a = Scenario::from_seed_byzantine(seed);
            let b = Scenario::from_seed_byzantine(seed);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.horizon, b.horizon);
            a.plan
                .validate(a.topology.num_nodes())
                .expect("byzantine plan validates");
            assert_eq!(a.plan.expected_violation(), Some("belief-beyond-truth"));
            // The benign prefix is exactly the benign scenario's plan:
            // the forgery rides on top without disturbing the mapping.
            let benign = Scenario::from_seed(seed);
            let k = benign.plan.events.len();
            assert_eq!(a.plan.events[..k], benign.plan.events[..]);
            assert_eq!(a.plan.events.len(), k + 1);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::from_seed(1);
        let b = Scenario::from_seed(2);
        assert!(a.cfg_text != b.cfg_text || a.workload != b.workload || a.plan != b.plan);
    }
}
