//! Greedy fault-plan minimization.
//!
//! Given a failing plan and a "does it still fail?" oracle (typically
//! [`Scenario::run_with_plan`] checked for the same violation), remove
//! fault events one at a time, keeping each removal that preserves the
//! failure, until no single event can be removed — a 1-minimal core.
//! Because the harness is deterministic, the oracle is too, so the
//! minimization itself is reproducible.
//!
//! [`Scenario::run_with_plan`]: crate::scenario::Scenario::run_with_plan

use crate::plan::FaultPlan;

/// Shrink `plan` to a 1-minimal still-failing core under `still_fails`.
///
/// The oracle is called O(k²) times for a k-event plan in the worst
/// case; chaos plans are ≤ 5 events, so this is at most a few dozen
/// replays.
pub fn minimize_plan(
    plan: &FaultPlan,
    mut still_fails: impl FnMut(&FaultPlan) -> bool,
) -> FaultPlan {
    let mut current = plan.clone();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < current.events.len() {
            let mut candidate = current.clone();
            candidate.events.remove(i);
            if still_fails(&candidate) {
                current = candidate;
                shrunk = true;
                // Do not advance: the event now at `i` is untried.
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Fault, FaultEvent};
    use stabilizer_netsim::SimDuration;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn shrinks_to_the_single_culprit() {
        // The "bug" needs the node-3 crash; everything else is noise.
        let culprit = FaultEvent {
            at: ms(100),
            fault: Fault::CrashRestart {
                node: 3,
                down_for: ms(200),
                persist_lag: SimDuration::ZERO,
            },
        };
        let noise = |at: u64, node: usize| FaultEvent {
            at: ms(at),
            fault: Fault::DelaySkew {
                from: node,
                to: (node + 1) % 5,
                extra: ms(30),
                clear_after: ms(100),
            },
        };
        let plan = FaultPlan {
            events: vec![noise(10, 0), culprit.clone(), noise(50, 1), noise(90, 2)],
        };
        let fails = |p: &FaultPlan| {
            p.events
                .iter()
                .any(|e| matches!(e.fault, Fault::CrashRestart { node: 3, .. }))
        };
        let minimal = minimize_plan(&plan, fails);
        assert_eq!(minimal.events, vec![culprit]);
    }

    #[test]
    fn needs_two_events_keeps_both() {
        // Failure requires *both* the partition and the crash.
        let a = FaultEvent {
            at: ms(10),
            fault: Fault::Partition {
                side: vec![0],
                heal_after: ms(100),
            },
        };
        let b = FaultEvent {
            at: ms(200),
            fault: Fault::CrashRestart {
                node: 1,
                down_for: ms(100),
                persist_lag: SimDuration::ZERO,
            },
        };
        let noise = FaultEvent {
            at: ms(300),
            fault: Fault::AsymmetricLoss {
                from: 0,
                to: 1,
                probability: 0.2,
                clear_after: ms(50),
            },
        };
        let plan = FaultPlan {
            events: vec![a.clone(), noise, b.clone()],
        };
        let fails = |p: &FaultPlan| {
            let has_partition = p
                .events
                .iter()
                .any(|e| matches!(e.fault, Fault::Partition { .. }));
            let has_crash = p
                .events
                .iter()
                .any(|e| matches!(e.fault, Fault::CrashRestart { .. }));
            has_partition && has_crash
        };
        let minimal = minimize_plan(&plan, fails);
        assert_eq!(minimal.events, vec![a, b]);
    }

    #[test]
    fn oracle_call_budget_is_small() {
        let noise = |at: u64| FaultEvent {
            at: ms(at),
            fault: Fault::DelaySkew {
                from: 0,
                to: 1,
                extra: ms(30),
                clear_after: ms(100),
            },
        };
        let plan = FaultPlan {
            events: (0..5).map(|i| noise(10 + i * 10)).collect(),
        };
        let mut calls = 0;
        let _ = minimize_plan(&plan, |_| {
            calls += 1;
            true // everything fails: shrinks to empty
        });
        assert!(calls <= 25, "oracle called {calls} times for 5 events");
    }
}
