//! Renders a resolved predicate in its normalized form, as
//! `bench/src/bin/table3.rs` prints it.

use crate::resolve::{Operand, ReduceKind, ResolvedExpr};
use std::fmt;

impl fmt::Display for ResolvedExpr {
    /// Renders the normalized form, e.g.
    /// `KTH_MAX(2; n0.ack0, n3.ack1, KTH_MIN(1; ...))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.kind {
            ReduceKind::Largest => "KTH_MAX",
            ReduceKind::Smallest => "KTH_MIN",
        };
        write!(f, "{name}({};", self.k)?;
        for (i, op) in self.operands.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match op {
                Operand::Cell(n, t) => write!(f, " {n}.{t}")?,
                Operand::Const(v) => write!(f, " {v}")?,
                Operand::Nested(inner) => write!(f, " {inner}")?,
            }
        }
        write!(f, ")")
    }
}
