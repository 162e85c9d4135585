//! Abstract syntax tree for stability-frontier predicates: the one tree
//! the parser builds and every later stage reads. Each node carries the
//! byte range of its source text, so the static analyzer can point a
//! diagnostic at the exact offending bytes; the resolver ignores the
//! spans.

use crate::span::Span;
use std::fmt;

/// The four reduction operators of the DSL (§III-C, eq. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `MAX` — the largest value among the operands.
    Max,
    /// `MIN` — the smallest value among the operands.
    Min,
    /// `KTH_MAX` — the k-th largest value (k is the first argument).
    KthMax,
    /// `KTH_MIN` — the k-th smallest value (k is the first argument).
    KthMin,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Max => write!(f, "MAX"),
            Op::Min => write!(f, "MIN"),
            Op::KthMax => write!(f, "KTH_MAX"),
            Op::KthMin => write!(f, "KTH_MIN"),
        }
    }
}

/// Arithmetic operators usable in rank expressions such as
/// `SIZEOF($ALLWNODES)/2+1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-` (between numbers; between sets `-` is set difference)
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division)
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinOp::Add => write!(f, "+"),
            BinOp::Sub => write!(f, "-"),
            BinOp::Mul => write!(f, "*"),
            BinOp::Div => write!(f, "/"),
        }
    }
}

/// An ACK-type suffix name, e.g. `received`, `persisted`, `verified`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AckTypeName(pub String);

impl fmt::Display for AckTypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An ACK-type suffix as written in the source, with the byte range of
/// the `.name` text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpannedAck {
    /// The suffix name (without the leading dot).
    pub name: AckTypeName,
    /// Byte range covering `.name` in the source.
    pub span: Span,
}

/// A WAN-node set expression: macros, variables, operands and set
/// difference, with source spans on every node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpannedSet {
    /// The set constructor.
    pub kind: SpannedSetKind,
    /// Byte range of this (sub-)expression in the source.
    pub span: Span,
}

/// The constructors of [`SpannedSet`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SpannedSetKind {
    /// `$ALLWNODES` — every WAN node in the deployment.
    All,
    /// `$MYAZWNODES` — every WAN node in the executing node's AZ.
    MyAz,
    /// `$MYWNODE` — the executing node, as a singleton set.
    Me,
    /// `$<n>` — the 1-based node operand as written in predicates.
    Node(u64),
    /// `$WNODE_<name>` — a node referenced by configuration-file name.
    NodeVar(String),
    /// `$AZ_<name>` — all members of the named availability zone.
    AzVar(String),
    /// `a - b` — set difference.
    Diff(Box<SpannedSet>, Box<SpannedSet>),
}

/// A predicate expression with source spans on every node.
///
/// `Values` is the bridge between sets and numbers: used as a reduction
/// argument, a set expands to one acknowledged-sequence-number value per
/// member node, read at the given ACK type (default `received`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpannedExpr {
    /// The expression constructor.
    pub kind: SpannedExprKind,
    /// Byte range of this (sub-)expression in the source.
    pub span: Span,
}

/// The constructors of [`SpannedExpr`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SpannedExprKind {
    /// A reduction call, e.g. `MAX($1, $2)`; the span on the tuple is the
    /// operator keyword's.
    Call(Op, Span, Vec<SpannedExpr>),
    /// A node set used as a list of acknowledged sequence numbers, with an
    /// optional ACK-type suffix: `($ALLWNODES-$MYWNODE).persisted`.
    Values(SpannedSet, Option<SpannedAck>),
    /// Integer literal.
    Int(u64),
    /// `SIZEOF(set)` — number of nodes in the set.
    Sizeof(SpannedSet),
    /// Integer arithmetic, e.g. `SIZEOF($ALLWNODES)/2+1`.
    Arith(BinOp, Box<SpannedExpr>, Box<SpannedExpr>),
}

impl SpannedExpr {
    /// True if this expression is number-valued (usable as a `KTH_*` rank
    /// or an arithmetic operand); false if it denotes a list of per-node
    /// values.
    pub fn is_scalar(&self) -> bool {
        match &self.kind {
            SpannedExprKind::Call(..)
            | SpannedExprKind::Int(_)
            | SpannedExprKind::Sizeof(_)
            | SpannedExprKind::Arith(..) => true,
            SpannedExprKind::Values(..) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn scalar_classification() {
        let e = parse("MAX(3, SIZEOF($ALLWNODES), MAX($1), 1+2, $ALLWNODES)").unwrap();
        let SpannedExprKind::Call(_, _, args) = &e.kind else {
            panic!()
        };
        let scalar: Vec<bool> = args.iter().map(SpannedExpr::is_scalar).collect();
        assert_eq!(scalar, [true, true, true, true, false]);
    }

    #[test]
    fn ops_display_as_source_keywords() {
        assert_eq!(Op::KthMax.to_string(), "KTH_MAX");
        assert_eq!(BinOp::Div.to_string(), "/");
    }
}
