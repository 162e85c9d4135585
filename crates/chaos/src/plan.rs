//! Declarative fault plans and their compilation into timed operations.
//!
//! A [`FaultPlan`] is data: a list of faults with virtual start times and
//! durations. [`FaultPlan::compile`] lowers it into a sorted sequence of
//! primitive [`Op`]s (apply + revert) that the harness interleaves with
//! the simulator's event loop. Keeping plans declarative makes them
//! hashable, printable on failure, and shrinkable by the minimizer.

use stabilizer_netsim::SimDuration;
use std::fmt;

/// One fault category. Durations are relative to the fault's start.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Cut every link between `side` and its complement (both
    /// directions); heal after `heal_after`.
    Partition {
        /// One side of the cut (non-empty, proper subset).
        side: Vec<usize>,
        /// Time until the partition heals.
        heal_after: SimDuration,
    },
    /// Independent per-message loss on the directed link `from -> to`
    /// only — the reverse direction stays clean (asymmetric loss).
    AsymmetricLoss {
        /// Sender side of the lossy direction.
        from: usize,
        /// Receiver side.
        to: usize,
        /// Loss probability in `[0, 1]`.
        probability: f64,
        /// Time until the loss clears.
        clear_after: SimDuration,
    },
    /// Collapse a node's egress NIC to a trickle, then restore it.
    BandwidthCollapse {
        /// The throttled node.
        node: usize,
        /// Collapsed rate in bytes/second.
        bytes_per_sec: f64,
        /// Time until the NIC recovers.
        restore_after: SimDuration,
    },
    /// Crash a node (cut its links) and restart it after `down_for`
    /// from the snapshot of its control plane persisted `persist_lag`
    /// before the crash: what it did in between is lost, as when storage
    /// lags the node. A lag of zero persists at the crash instant.
    CrashRestart {
        /// The crashing node.
        node: usize,
        /// Downtime before the restart.
        down_for: SimDuration,
        /// How long before the crash its snapshot was taken; the node
        /// must be up for all of it.
        persist_lag: SimDuration,
    },
    /// Add extra one-way delay on the directed link `from -> to` — a
    /// skewed control plane or a flapped route; clears after
    /// `clear_after`.
    DelaySkew {
        /// Sender side of the skewed direction.
        from: usize,
        /// Receiver side.
        to: usize,
        /// Extra one-way delay.
        extra: SimDuration,
        /// Time until the skew clears.
        clear_after: SimDuration,
    },
    /// Membership change: `node` is absent from the cluster at boot and
    /// joins live at the event time — it boots *fresh* (no snapshot, no
    /// history), receives the cluster configuration, and catches up on
    /// every stream via §III-E state transfer. At most one join per
    /// node, and the node cannot crash before it has joined.
    Join {
        /// The late-joining node.
        node: usize,
    },
    /// Scale one node's timer cadence: every protocol timer (ACK flush,
    /// heartbeat, failure detector, retransmit, §III-E transfer pacing)
    /// fires at `factor ×` its configured interval. `factor < 1` is a
    /// fast local clock (timers fire early); `factor > 1` is a slow one
    /// (timers fire late, heartbeats thin out, retransmits lag). Restores
    /// the nominal cadence after `clear_after`.
    ClockSkew {
        /// The node whose clock is skewed.
        node: usize,
        /// Multiplier applied to every timer interval (must be positive
        /// and finite).
        factor: f64,
        /// Time until the skew clears.
        clear_after: SimDuration,
    },
    /// Duplicate and reorder control-plane frames on the directed link
    /// `from -> to`: each frame is independently duplicated with
    /// `dup_probability` and swapped past its successor with
    /// `reorder_probability` (breaking the link's FIFO property). The
    /// protocol must tolerate both — duplicates are idempotent and the
    /// receive buffer re-sequences — so no invariant may trip. Clears
    /// after `clear_after`.
    DupReorder {
        /// Sender side of the corrupted direction.
        from: usize,
        /// Receiver side.
        to: usize,
        /// Per-frame duplication probability in `[0, 1]`.
        dup_probability: f64,
        /// Per-frame reorder (swap-with-next) probability in `[0, 1]`.
        reorder_probability: f64,
        /// Time until the link behaves again.
        clear_after: SimDuration,
    },
    /// A correlated failure: every node in `nodes` crashes within one
    /// window — the k-th crash lands at `at + k·spread` — and the
    /// restarts are staggered (the k-th node comes back after `down_for
    /// + k·stagger`). At least one node must survive.
    CorrelatedCrash {
        /// The crashing nodes (distinct, a proper subset).
        nodes: Vec<usize>,
        /// Gap between consecutive crashes.
        spread: SimDuration,
        /// Base downtime of each node.
        down_for: SimDuration,
        /// Extra downtime added per position in the crash order.
        stagger: SimDuration,
    },
    /// A Byzantine adversary: at the event time, `node` forges one ACK
    /// batch to every peer claiming its RECEIVED columns run `ahead`
    /// sequence numbers beyond what it has actually recorded — without
    /// touching its own recorder. This is the PR-2 mutation test promoted
    /// into the fault vocabulary: the invariant checker is *expected* to
    /// flag `belief-beyond-truth` at a receiving peer (see
    /// [`FaultPlan::expected_violation`]).
    ByzantineAck {
        /// The forging node.
        node: usize,
        /// How far beyond its true RECEIVED state the forged columns
        /// claim (must be positive).
        ahead: u64,
    },
}

/// A fault with its virtual start time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Start time, relative to the run's start.
    pub at: SimDuration,
    /// The fault.
    pub fault: Fault,
}

/// A declarative schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults (any order; compilation sorts).
    pub events: Vec<FaultEvent>,
}

/// A plan that cannot be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(pub String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// A primitive operation the harness applies to the simulator at a
/// specific virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Set the given directed links up or down.
    SetLinks {
        /// Directed `(from, to)` pairs.
        pairs: Vec<(usize, usize)>,
        /// Up (`true`) or down (`false`).
        up: bool,
    },
    /// Set loss probability on one directed link.
    SetLoss {
        /// Sender side.
        from: usize,
        /// Receiver side.
        to: usize,
        /// Probability in `[0, 1]` (0 clears).
        probability: f64,
    },
    /// Set a node's egress rate (restore passes a huge rate).
    SetEgress {
        /// The node.
        node: usize,
        /// Bytes per second.
        bytes_per_sec: f64,
    },
    /// Set extra one-way delay on one directed link (ZERO clears).
    SetDelay {
        /// Sender side.
        from: usize,
        /// Receiver side.
        to: usize,
        /// The extra delay.
        extra: SimDuration,
    },
    /// Persist a live node's control plane: its next crash reboots
    /// from this snapshot, not from one taken at the crash instant.
    Persist {
        /// The persisting node.
        node: usize,
    },
    /// Snapshot (unless persisted since) and cut off a node.
    Crash {
        /// The crashing node.
        node: usize,
    },
    /// Restore the node from its crash snapshot and reconnect it.
    Restart {
        /// The restarting node.
        node: usize,
    },
    /// Boot a fresh (history-less) node into the running cluster and
    /// start §III-E catch-up.
    Join {
        /// The joining node.
        node: usize,
    },
    /// Scale a node's timer cadence (1.0 restores nominal).
    SetTimerScale {
        /// The node.
        node: usize,
        /// Interval multiplier.
        scale: f64,
    },
    /// Set duplicate/reorder probabilities on one directed link
    /// (0.0/0.0 clears).
    SetDupReorder {
        /// Sender side.
        from: usize,
        /// Receiver side.
        to: usize,
        /// Per-frame duplication probability.
        dup: f64,
        /// Per-frame swap-with-next probability.
        reorder: f64,
    },
    /// Make `node` forge one ACK batch to every peer, claiming RECEIVED
    /// columns `ahead` beyond its recorder's truth.
    ForgeAck {
        /// The forging node.
        node: usize,
        /// Forged lead over the true columns.
        ahead: u64,
    },
}

/// An [`Op`] scheduled at a virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedOp {
    /// When to apply, relative to the run's start.
    pub at: SimDuration,
    /// What to apply.
    pub op: Op,
}

/// The egress rate used to "restore" a collapsed NIC (effectively
/// unlimited; the simulator has no explicit un-limit knob).
pub const EGRESS_RESTORED: f64 = 1e12;

fn cut_pairs(side: &[usize], n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for &a in side {
        for b in 0..n {
            if !side.contains(&b) {
                pairs.push((a, b));
                pairs.push((b, a));
            }
        }
    }
    pairs
}

fn node_pairs(node: usize, n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .filter(|&x| x != node)
        .flat_map(|x| [(node, x), (x, node)])
        .collect()
}

impl FaultPlan {
    /// Check the plan against a cluster of `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found: out-of-range nodes,
    /// bad probabilities, degenerate partitions, overlapping crash
    /// windows on the same node (a node cannot crash while down),
    /// duplicate joins, or a crash scheduled before its node joins.
    pub fn validate(&self, n: usize) -> Result<(), PlanError> {
        let mut crash_windows: Vec<(usize, SimDuration, SimDuration)> = Vec::new();
        let mut joins: Vec<(usize, SimDuration)> = Vec::new();
        for (i, ev) in self.events.iter().enumerate() {
            let bad = |msg: String| Err(PlanError(format!("event {i}: {msg}")));
            match &ev.fault {
                Fault::Partition {
                    side,
                    heal_after: _,
                } => {
                    if side.is_empty() || side.len() >= n {
                        return bad(format!(
                            "partition side must be a non-empty proper subset, got {side:?}"
                        ));
                    }
                    if side.iter().any(|&x| x >= n) {
                        return bad(format!("partition side {side:?} out of range (n={n})"));
                    }
                }
                Fault::AsymmetricLoss {
                    from,
                    to,
                    probability,
                    ..
                } => {
                    if *from >= n || *to >= n || from == to {
                        return bad(format!("bad loss link {from}->{to} (n={n})"));
                    }
                    if !(0.0..=1.0).contains(probability) {
                        return bad(format!("loss probability {probability} outside [0,1]"));
                    }
                }
                Fault::BandwidthCollapse {
                    node,
                    bytes_per_sec,
                    ..
                } => {
                    if *node >= n {
                        return bad(format!("node {node} out of range (n={n})"));
                    }
                    if *bytes_per_sec <= 0.0 {
                        return bad(format!("collapse rate {bytes_per_sec} must be positive"));
                    }
                }
                Fault::CrashRestart {
                    node,
                    down_for,
                    persist_lag,
                } => {
                    if *node >= n {
                        return bad(format!("node {node} out of range (n={n})"));
                    }
                    if *down_for == SimDuration::ZERO {
                        return bad("crash downtime must be positive".into());
                    }
                    if *persist_lag > ev.at {
                        return bad(format!("persist lag {persist_lag} precedes the run"));
                    }
                    // The node is up from the persist point to the crash.
                    let (start, end) = (ev.at - *persist_lag, ev.at + *down_for);
                    for &(other, s, e) in &crash_windows {
                        if other == *node && start < e && s < end {
                            return bad(format!(
                                "crash windows overlap on node {node} ([{s}, {e}] vs [{start}, {end}])"
                            ));
                        }
                    }
                    crash_windows.push((*node, start, end));
                }
                Fault::DelaySkew { from, to, .. } => {
                    if *from >= n || *to >= n || from == to {
                        return bad(format!("bad skew link {from}->{to} (n={n})"));
                    }
                }
                Fault::Join { node } => {
                    if *node >= n {
                        return bad(format!("node {node} out of range (n={n})"));
                    }
                    if joins.iter().any(|&(j, _)| j == *node) {
                        return bad(format!("node {node} joins twice"));
                    }
                    joins.push((*node, ev.at));
                }
                Fault::ClockSkew { node, factor, .. } => {
                    if *node >= n {
                        return bad(format!("node {node} out of range (n={n})"));
                    }
                    if !factor.is_finite() || *factor <= 0.0 {
                        return bad(format!("clock skew factor {factor} must be positive"));
                    }
                }
                Fault::DupReorder {
                    from,
                    to,
                    dup_probability,
                    reorder_probability,
                    ..
                } => {
                    if *from >= n || *to >= n || from == to {
                        return bad(format!("bad dup/reorder link {from}->{to} (n={n})"));
                    }
                    for p in [dup_probability, reorder_probability] {
                        if !(0.0..=1.0).contains(p) {
                            return bad(format!("dup/reorder probability {p} outside [0,1]"));
                        }
                    }
                }
                Fault::CorrelatedCrash {
                    nodes,
                    spread,
                    down_for,
                    stagger,
                } => {
                    if nodes.is_empty() || nodes.len() >= n {
                        return bad(format!(
                            "correlated crash set must be a non-empty proper subset, got {nodes:?}"
                        ));
                    }
                    if nodes.iter().any(|&x| x >= n) {
                        return bad(format!(
                            "correlated crash set {nodes:?} out of range (n={n})"
                        ));
                    }
                    for (a, &x) in nodes.iter().enumerate() {
                        if nodes[..a].contains(&x) {
                            return bad(format!("node {x} appears twice in the crash set"));
                        }
                    }
                    if *down_for == SimDuration::ZERO {
                        return bad("correlated crash downtime must be positive".into());
                    }
                    for (k, &node) in nodes.iter().enumerate() {
                        let start = ev.at + spread.saturating_mul(k as u64);
                        let end = start + *down_for + stagger.saturating_mul(k as u64);
                        for &(other, s, e) in &crash_windows {
                            if other == node && start < e && s < end {
                                return bad(format!(
                                    "crash windows overlap on node {node} ([{s}, {e}] vs [{start}, {end}])"
                                ));
                            }
                        }
                        crash_windows.push((node, start, end));
                    }
                }
                Fault::ByzantineAck { node, ahead } => {
                    if *node >= n {
                        return bad(format!("node {node} out of range (n={n})"));
                    }
                    if *ahead == 0 {
                        return bad("forged ack lead must be positive".into());
                    }
                }
            }
        }
        // A node that joins late cannot crash before the join: its crash
        // windows must start strictly after the join time.
        for &(node, join_at) in &joins {
            for &(other, s, _) in &crash_windows {
                if other == node && s <= join_at {
                    return Err(PlanError(format!(
                        "node {node} has a crash window starting at {s} but only joins at {join_at}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The nodes this plan boots *absent* (they enter via
    /// [`Fault::Join`]), with their join times. Harnesses use this to
    /// keep those nodes offline from the start of the run.
    pub fn join_nodes(&self) -> Vec<(usize, SimDuration)> {
        self.events
            .iter()
            .filter_map(|ev| match ev.fault {
                Fault::Join { node } => Some((node, ev.at)),
                _ => None,
            })
            .collect()
    }

    /// Lower into primitive timed operations, sorted by time (stable on
    /// ties, so compilation is deterministic).
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::validate`] failures.
    pub fn compile(&self, n: usize) -> Result<Vec<TimedOp>, PlanError> {
        self.validate(n)?;
        let mut ops = Vec::new();
        for ev in &self.events {
            match &ev.fault {
                Fault::Partition { side, heal_after } => {
                    let pairs = cut_pairs(side, n);
                    ops.push(TimedOp {
                        at: ev.at,
                        op: Op::SetLinks {
                            pairs: pairs.clone(),
                            up: false,
                        },
                    });
                    ops.push(TimedOp {
                        at: ev.at + *heal_after,
                        op: Op::SetLinks { pairs, up: true },
                    });
                }
                Fault::AsymmetricLoss {
                    from,
                    to,
                    probability,
                    clear_after,
                } => {
                    ops.push(TimedOp {
                        at: ev.at,
                        op: Op::SetLoss {
                            from: *from,
                            to: *to,
                            probability: *probability,
                        },
                    });
                    ops.push(TimedOp {
                        at: ev.at + *clear_after,
                        op: Op::SetLoss {
                            from: *from,
                            to: *to,
                            probability: 0.0,
                        },
                    });
                }
                Fault::BandwidthCollapse {
                    node,
                    bytes_per_sec,
                    restore_after,
                } => {
                    ops.push(TimedOp {
                        at: ev.at,
                        op: Op::SetEgress {
                            node: *node,
                            bytes_per_sec: *bytes_per_sec,
                        },
                    });
                    ops.push(TimedOp {
                        at: ev.at + *restore_after,
                        op: Op::SetEgress {
                            node: *node,
                            bytes_per_sec: EGRESS_RESTORED,
                        },
                    });
                }
                Fault::CrashRestart {
                    node,
                    down_for,
                    persist_lag,
                } => {
                    if *persist_lag > SimDuration::ZERO {
                        ops.push(TimedOp {
                            at: ev.at - *persist_lag,
                            op: Op::Persist { node: *node },
                        });
                    }
                    ops.push(TimedOp {
                        at: ev.at,
                        op: Op::Crash { node: *node },
                    });
                    ops.push(TimedOp {
                        at: ev.at + *down_for,
                        op: Op::Restart { node: *node },
                    });
                }
                Fault::DelaySkew {
                    from,
                    to,
                    extra,
                    clear_after,
                } => {
                    ops.push(TimedOp {
                        at: ev.at,
                        op: Op::SetDelay {
                            from: *from,
                            to: *to,
                            extra: *extra,
                        },
                    });
                    ops.push(TimedOp {
                        at: ev.at + *clear_after,
                        op: Op::SetDelay {
                            from: *from,
                            to: *to,
                            extra: SimDuration::ZERO,
                        },
                    });
                }
                Fault::Join { node } => {
                    ops.push(TimedOp {
                        at: ev.at,
                        op: Op::Join { node: *node },
                    });
                }
                Fault::ClockSkew {
                    node,
                    factor,
                    clear_after,
                } => {
                    ops.push(TimedOp {
                        at: ev.at,
                        op: Op::SetTimerScale {
                            node: *node,
                            scale: *factor,
                        },
                    });
                    ops.push(TimedOp {
                        at: ev.at + *clear_after,
                        op: Op::SetTimerScale {
                            node: *node,
                            scale: 1.0,
                        },
                    });
                }
                Fault::DupReorder {
                    from,
                    to,
                    dup_probability,
                    reorder_probability,
                    clear_after,
                } => {
                    ops.push(TimedOp {
                        at: ev.at,
                        op: Op::SetDupReorder {
                            from: *from,
                            to: *to,
                            dup: *dup_probability,
                            reorder: *reorder_probability,
                        },
                    });
                    ops.push(TimedOp {
                        at: ev.at + *clear_after,
                        op: Op::SetDupReorder {
                            from: *from,
                            to: *to,
                            dup: 0.0,
                            reorder: 0.0,
                        },
                    });
                }
                Fault::CorrelatedCrash {
                    nodes,
                    spread,
                    down_for,
                    stagger,
                } => {
                    // Lowers entirely onto the existing crash/restart
                    // primitives, so both harnesses execute it unchanged.
                    for (k, &node) in nodes.iter().enumerate() {
                        let start = ev.at + spread.saturating_mul(k as u64);
                        ops.push(TimedOp {
                            at: start,
                            op: Op::Crash { node },
                        });
                        ops.push(TimedOp {
                            at: start + *down_for + stagger.saturating_mul(k as u64),
                            op: Op::Restart { node },
                        });
                    }
                }
                Fault::ByzantineAck { node, ahead } => {
                    ops.push(TimedOp {
                        at: ev.at,
                        op: Op::ForgeAck {
                            node: *node,
                            ahead: *ahead,
                        },
                    });
                }
            }
        }
        ops.sort_by_key(|op| op.at);
        Ok(ops)
    }

    /// The invariant the checker is *expected* to flag for this plan, if
    /// any. Benign plans return `None`; a plan containing a
    /// [`Fault::ByzantineAck`] adversary returns
    /// `Some("belief-beyond-truth")` — a run of such a plan that finishes
    /// *clean* means the checker lost its teeth.
    pub fn expected_violation(&self) -> Option<&'static str> {
        self.events
            .iter()
            .any(|ev| matches!(ev.fault, Fault::ByzantineAck { .. }))
            .then_some("belief-beyond-truth")
    }

    /// Links touched by `Crash`/`Restart` ops for `node` (used by the
    /// harness; exposed for tests).
    pub fn crash_pairs(node: usize, n: usize) -> Vec<(usize, usize)> {
        node_pairs(node, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn compile_sorts_and_pairs_reverts() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    at: ms(500),
                    fault: Fault::AsymmetricLoss {
                        from: 0,
                        to: 1,
                        probability: 0.3,
                        clear_after: ms(100),
                    },
                },
                FaultEvent {
                    at: ms(100),
                    fault: Fault::Partition {
                        side: vec![0],
                        heal_after: ms(200),
                    },
                },
            ],
        };
        let ops = plan.compile(3).unwrap();
        let times: Vec<u64> = ops.iter().map(|o| o.at.as_nanos() / 1_000_000).collect();
        assert_eq!(times, vec![100, 300, 500, 600]);
        assert!(matches!(ops[0].op, Op::SetLinks { up: false, .. }));
        assert!(matches!(ops[1].op, Op::SetLinks { up: true, .. }));
    }

    #[test]
    fn partition_cuts_both_directions_across_the_cut_only() {
        let pairs = cut_pairs(&[0, 2], 4);
        assert!(pairs.contains(&(0, 1)) && pairs.contains(&(1, 0)));
        assert!(pairs.contains(&(2, 3)) && pairs.contains(&(3, 2)));
        assert!(!pairs.contains(&(0, 2)) && !pairs.contains(&(1, 3)));
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let bad = |fault| {
            FaultPlan {
                events: vec![FaultEvent { at: ms(0), fault }],
            }
            .validate(4)
        };
        assert!(bad(Fault::Partition {
            side: vec![0, 1, 2, 3],
            heal_after: ms(1)
        })
        .is_err());
        assert!(bad(Fault::AsymmetricLoss {
            from: 0,
            to: 0,
            probability: 0.5,
            clear_after: ms(1)
        })
        .is_err());
        assert!(bad(Fault::AsymmetricLoss {
            from: 0,
            to: 1,
            probability: 1.5,
            clear_after: ms(1)
        })
        .is_err());
        assert!(bad(Fault::CrashRestart {
            node: 9,
            down_for: ms(1),
            persist_lag: SimDuration::ZERO,
        })
        .is_err());
        // Overlapping crashes on one node are rejected; disjoint pass.
        let overlap = FaultPlan {
            events: vec![
                FaultEvent {
                    at: ms(0),
                    fault: Fault::CrashRestart {
                        node: 1,
                        down_for: ms(500),
                        persist_lag: SimDuration::ZERO,
                    },
                },
                FaultEvent {
                    at: ms(300),
                    fault: Fault::CrashRestart {
                        node: 1,
                        down_for: ms(500),
                        persist_lag: SimDuration::ZERO,
                    },
                },
            ],
        };
        assert!(overlap.validate(4).is_err());
        let disjoint = FaultPlan {
            events: vec![
                FaultEvent {
                    at: ms(0),
                    fault: Fault::CrashRestart {
                        node: 1,
                        down_for: ms(200),
                        persist_lag: SimDuration::ZERO,
                    },
                },
                FaultEvent {
                    at: ms(300),
                    fault: Fault::CrashRestart {
                        node: 1,
                        down_for: ms(200),
                        persist_lag: SimDuration::ZERO,
                    },
                },
            ],
        };
        assert!(disjoint.validate(4).is_ok());
    }

    #[test]
    fn join_validation_and_compilation() {
        let join = |node, at| FaultEvent {
            at,
            fault: Fault::Join { node },
        };
        // Out of range.
        assert!(FaultPlan {
            events: vec![join(9, ms(100))]
        }
        .validate(4)
        .is_err());
        // Double join.
        assert!(FaultPlan {
            events: vec![join(1, ms(100)), join(1, ms(400))]
        }
        .validate(4)
        .is_err());
        // A crash before (or at) the join time is impossible.
        let crash_before_join = FaultPlan {
            events: vec![
                FaultEvent {
                    at: ms(50),
                    fault: Fault::CrashRestart {
                        node: 2,
                        down_for: ms(100),
                        persist_lag: SimDuration::ZERO,
                    },
                },
                join(2, ms(300)),
            ],
        };
        assert!(crash_before_join.validate(4).is_err());
        // A crash after the join is fine, and compiles to Join + the
        // crash pair, in time order.
        let ok = FaultPlan {
            events: vec![
                join(2, ms(100)),
                FaultEvent {
                    at: ms(400),
                    fault: Fault::CrashRestart {
                        node: 2,
                        down_for: ms(100),
                        persist_lag: SimDuration::ZERO,
                    },
                },
            ],
        };
        assert_eq!(ok.join_nodes(), vec![(2, ms(100))]);
        let ops = ok.compile(4).unwrap();
        assert!(matches!(ops[0].op, Op::Join { node: 2 }));
        assert!(matches!(ops[1].op, Op::Crash { node: 2 }));
        assert!(matches!(ops[2].op, Op::Restart { node: 2 }));
    }

    #[test]
    fn a_persist_lag_compiles_to_a_persist_op_ahead_of_the_crash() {
        let crash = |at, node, persist_lag| FaultEvent {
            at: ms(at),
            fault: Fault::CrashRestart {
                node,
                down_for: ms(100),
                persist_lag: ms(persist_lag),
            },
        };
        let ops = FaultPlan {
            events: vec![crash(300, 1, 120), crash(300, 2, 0)],
        }
        .compile(3)
        .unwrap();
        let shape: Vec<_> = ops.iter().map(|o| (o.at, o.op.clone())).collect();
        assert_eq!(
            shape,
            vec![
                (ms(180), Op::Persist { node: 1 }),
                (ms(300), Op::Crash { node: 1 }),
                (ms(300), Op::Crash { node: 2 }),
                (ms(400), Op::Restart { node: 1 }),
                (ms(400), Op::Restart { node: 2 }),
            ]
        );
        // A lag reaching before the run, or into an earlier crash window
        // of the same node, is rejected.
        let plan = |events| FaultPlan { events }.validate(3);
        assert!(plan(vec![crash(100, 1, 101)]).is_err());
        assert!(plan(vec![crash(100, 1, 50), crash(300, 1, 150)]).is_err());
        assert!(plan(vec![crash(100, 1, 50), crash(300, 1, 100)]).is_ok());
    }

    #[test]
    fn clock_skew_compiles_to_scale_and_restore() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at: ms(100),
                fault: Fault::ClockSkew {
                    node: 1,
                    factor: 3.0,
                    clear_after: ms(400),
                },
            }],
        };
        let ops = plan.compile(3).unwrap();
        assert_eq!(ops.len(), 2);
        assert!(matches!(
            ops[0].op,
            Op::SetTimerScale { node: 1, scale } if scale == 3.0
        ));
        assert!(matches!(
            ops[1].op,
            Op::SetTimerScale { node: 1, scale } if scale == 1.0
        ));
        assert_eq!(ops[1].at, ms(500));
        // Non-positive and non-finite factors are rejected.
        for factor in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad = FaultPlan {
                events: vec![FaultEvent {
                    at: ms(0),
                    fault: Fault::ClockSkew {
                        node: 0,
                        factor,
                        clear_after: ms(1),
                    },
                }],
            };
            assert!(bad.validate(3).is_err(), "factor {factor} must be rejected");
        }
    }

    #[test]
    fn dup_reorder_compiles_to_set_and_clear() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at: ms(50),
                fault: Fault::DupReorder {
                    from: 0,
                    to: 2,
                    dup_probability: 0.2,
                    reorder_probability: 0.3,
                    clear_after: ms(200),
                },
            }],
        };
        let ops = plan.compile(3).unwrap();
        assert!(matches!(
            ops[0].op,
            Op::SetDupReorder { from: 0, to: 2, dup, reorder } if dup == 0.2 && reorder == 0.3
        ));
        assert!(matches!(
            ops[1].op,
            Op::SetDupReorder { from: 0, to: 2, dup, reorder } if dup == 0.0 && reorder == 0.0
        ));
        let self_link = FaultPlan {
            events: vec![FaultEvent {
                at: ms(0),
                fault: Fault::DupReorder {
                    from: 1,
                    to: 1,
                    dup_probability: 0.1,
                    reorder_probability: 0.1,
                    clear_after: ms(1),
                },
            }],
        };
        assert!(self_link.validate(3).is_err());
    }

    #[test]
    fn correlated_crash_staggers_and_respects_windows() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at: ms(100),
                fault: Fault::CorrelatedCrash {
                    nodes: vec![1, 3],
                    spread: ms(20),
                    down_for: ms(200),
                    stagger: ms(50),
                },
            }],
        };
        let ops = plan.compile(5).unwrap();
        let crash_times: Vec<_> = ops
            .iter()
            .filter_map(|o| match o.op {
                Op::Crash { node } => Some((node, o.at)),
                _ => None,
            })
            .collect();
        let restart_times: Vec<_> = ops
            .iter()
            .filter_map(|o| match o.op {
                Op::Restart { node } => Some((node, o.at)),
                _ => None,
            })
            .collect();
        assert_eq!(crash_times, vec![(1, ms(100)), (3, ms(120))]);
        assert_eq!(restart_times, vec![(1, ms(300)), (3, ms(370))]);
        // All nodes crashing at once leaves no survivor: rejected.
        let total = FaultPlan {
            events: vec![FaultEvent {
                at: ms(0),
                fault: Fault::CorrelatedCrash {
                    nodes: vec![0, 1, 2],
                    spread: ms(10),
                    down_for: ms(100),
                    stagger: ms(0),
                },
            }],
        };
        assert!(total.validate(3).is_err());
        // Overlap with a plain CrashRestart window on a member: rejected.
        let overlap = FaultPlan {
            events: vec![
                FaultEvent {
                    at: ms(0),
                    fault: Fault::CrashRestart {
                        node: 1,
                        down_for: ms(500),
                        persist_lag: SimDuration::ZERO,
                    },
                },
                FaultEvent {
                    at: ms(100),
                    fault: Fault::CorrelatedCrash {
                        nodes: vec![1, 2],
                        spread: ms(10),
                        down_for: ms(50),
                        stagger: ms(0),
                    },
                },
            ],
        };
        assert!(overlap.validate(4).is_err());
        // Duplicate member: rejected.
        let dup = FaultPlan {
            events: vec![FaultEvent {
                at: ms(0),
                fault: Fault::CorrelatedCrash {
                    nodes: vec![1, 1],
                    spread: ms(10),
                    down_for: ms(50),
                    stagger: ms(0),
                },
            }],
        };
        assert!(dup.validate(4).is_err());
    }

    #[test]
    fn byzantine_ack_is_one_shot_and_expected_to_trip() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at: ms(150),
                fault: Fault::ByzantineAck { node: 2, ahead: 40 },
            }],
        };
        assert_eq!(plan.expected_violation(), Some("belief-beyond-truth"));
        let ops = plan.compile(3).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0].op, Op::ForgeAck { node: 2, ahead: 40 }));
        // A zero lead forges nothing: rejected.
        let zero = FaultPlan {
            events: vec![FaultEvent {
                at: ms(0),
                fault: Fault::ByzantineAck { node: 0, ahead: 0 },
            }],
        };
        assert!(zero.validate(3).is_err());
        // Benign plans expect no violation.
        assert_eq!(FaultPlan::default().expected_violation(), None);
    }
}
