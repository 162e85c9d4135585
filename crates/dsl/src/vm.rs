//! The stack VM that executes compiled predicate programs.

use crate::compile::Instr;
use crate::types::{AckView, SeqNo};

/// Reusable evaluation scratch space. Re-using one scratch across
/// evaluations makes [`Program::eval_with`](crate::Program::eval_with)
/// allocation-free, which matters because the control plane re-evaluates
/// predicates on every ACK arrival.
#[derive(Debug, Default, Clone)]
pub struct EvalScratch {
    stack: Vec<SeqNo>,
    sel: Vec<SeqNo>,
}

impl EvalScratch {
    /// Create an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a scratch pre-sized for programs with stack depth `cap`.
    pub fn with_capacity(cap: usize) -> Self {
        EvalScratch {
            stack: Vec::with_capacity(cap),
            sel: Vec::with_capacity(cap),
        }
    }
}

/// Execute `instrs` against `view`.
///
/// # Panics
///
/// Panics (in debug builds, via internal assertions) if the program is
/// malformed — compiled programs from [`crate::compile::compile`] are
/// always well-formed.
// Generic, so instantiated in the caller's crate; left to the compiler,
// whether it is inlined into `Program::eval_with` depends on how that
// build's codegen units fall, which moves with the directory the tree
// is built in — 5–10 % of the simulated control-plane benchmark. Ten
// benchmark pairs preferred `always` to `never` (EXPERIMENTS.md).
#[inline(always)]
pub fn run<V: AckView>(instrs: &[Instr], view: &V, scratch: &mut EvalScratch) -> SeqNo {
    let stack = &mut scratch.stack;
    stack.clear();
    for instr in instrs {
        match *instr {
            Instr::PushCell(node, ty) => stack.push(view.ack(node, ty)),
            Instr::PushConst(v) => stack.push(v),
            Instr::KthLargest { n, k } => {
                let v = select(stack, &mut scratch.sel, n as usize, k as usize, true);
                stack.push(v);
            }
            Instr::KthSmallest { n, k } => {
                let v = select(stack, &mut scratch.sel, n as usize, k as usize, false);
                stack.push(v);
            }
        }
    }
    debug_assert_eq!(stack.len(), 1, "program must leave exactly one result");
    stack.pop().unwrap_or(0)
}

/// Pop `n` values off `stack` and return the `k`-th largest (or smallest).
///
/// Fast paths avoid sorting for ranks 1 (plain MAX/MIN); general ranks use
/// `select_nth_unstable`, which is O(n) expected.
fn select(
    stack: &mut Vec<SeqNo>,
    sel: &mut Vec<SeqNo>,
    n: usize,
    k: usize,
    largest: bool,
) -> SeqNo {
    debug_assert!(n >= 1 && k >= 1 && k <= n && stack.len() >= n);
    let base = stack.len() - n;
    let vals = &mut stack[base..];
    let result = if k == 1 {
        if largest {
            vals.iter().copied().max().unwrap_or(0)
        } else {
            vals.iter().copied().min().unwrap_or(0)
        }
    } else {
        sel.clear();
        sel.extend_from_slice(vals);
        // k-th largest = (n - k)-th element ascending; k-th smallest = (k-1)-th.
        let idx = if largest { n - k } else { k - 1 };
        *sel.select_nth_unstable(idx).1
    };
    stack.truncate(base);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AckTypeId, NodeId};

    struct Zero;
    impl AckView for Zero {
        fn ack(&self, _n: NodeId, _t: AckTypeId) -> u64 {
            0
        }
    }

    fn run_consts(vals: &[u64], tail: Instr) -> u64 {
        let mut instrs: Vec<Instr> = vals.iter().map(|v| Instr::PushConst(*v)).collect();
        instrs.push(tail);
        run(&instrs, &Zero, &mut EvalScratch::new())
    }

    #[test]
    fn max_and_min_fast_paths() {
        assert_eq!(run_consts(&[3, 9, 1], Instr::KthLargest { n: 3, k: 1 }), 9);
        assert_eq!(run_consts(&[3, 9, 1], Instr::KthSmallest { n: 3, k: 1 }), 1);
    }

    #[test]
    fn general_rank_selection() {
        let vals = [50, 10, 40, 20, 30];
        for (k, want) in [(1, 50), (2, 40), (3, 30), (4, 20), (5, 10)] {
            assert_eq!(
                run_consts(&vals, Instr::KthLargest { n: 5, k }),
                want,
                "k={k}"
            );
        }
        for (k, want) in [(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)] {
            assert_eq!(
                run_consts(&vals, Instr::KthSmallest { n: 5, k }),
                want,
                "k={k}"
            );
        }
    }

    #[test]
    fn rank_with_duplicates() {
        // Values {7,7,3}: 2nd largest is 7, 3rd largest is 3.
        assert_eq!(run_consts(&[7, 7, 3], Instr::KthLargest { n: 3, k: 2 }), 7);
        assert_eq!(run_consts(&[7, 7, 3], Instr::KthLargest { n: 3, k: 3 }), 3);
    }

    #[test]
    fn singleton_reduction() {
        assert_eq!(run_consts(&[42], Instr::KthLargest { n: 1, k: 1 }), 42);
    }

    #[test]
    fn cells_read_through_view() {
        struct V;
        impl AckView for V {
            fn ack(&self, n: NodeId, t: AckTypeId) -> u64 {
                (n.0 as u64) * 10 + t.0 as u64
            }
        }
        let instrs = [
            Instr::PushCell(NodeId(3), AckTypeId(1)),
            Instr::PushCell(NodeId(1), AckTypeId(0)),
            Instr::KthLargest { n: 2, k: 1 },
        ];
        assert_eq!(run(&instrs, &V, &mut EvalScratch::new()), 31);
    }
}
