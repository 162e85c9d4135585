//! # Stabilizer predicate DSL
//!
//! This crate implements the stability-frontier predicate language from
//! *Stabilizer: Geo-Replication with User-defined Consistency* (ICDCS 2022),
//! §III-C. A predicate is a variadic expression over the per-WAN-node
//! acknowledged sequence numbers recorded by the control plane:
//!
//! ```text
//! p = O(x)        O ∈ { MAX, MIN, KTH_MAX, KTH_MIN }
//! ```
//!
//! where the parameter list `x` contains node operands (`$3`), macros
//! (`$ALLWNODES`, `$MYAZWNODES`, `$MYWNODE`), variables (`$WNODE_Foo`,
//! `$AZ_Wisc`), set differences (`$ALLWNODES-$MYWNODE`), ACK-type suffixes
//! (`.received`, `.persisted`, or user-defined), `SIZEOF(...)` arithmetic,
//! and nested predicates.
//!
//! The paper compiles predicates with Flex/Bison + libgccjit. Here the
//! pipeline is: [`parse`] → [`resolve`](resolve::resolve) against a
//! [`Topology`] (macro/variable expansion, set evaluation, constant
//! folding) → [`compile`](compile::compile) into a flat, allocation-free
//! bytecode [`Program`] evaluated by a small stack VM. The parser's
//! span-carrying [`SpannedExpr`] is the one syntax tree every stage
//! reads. [`Predicate::compile`] runs the whole pipeline;
//! [`Predicate::compile_parsed`] starts from a tree already parsed, so
//! a configured source is parsed once however many nodes compile it. A
//! tree-walking [`eval_resolved`] is retained as the un-JIT-ed baseline
//! for the ablation benchmark and as the VM's test oracle.
//!
//! ## Example
//!
//! ```
//! use stabilizer_dsl::{parse, Topology, AckTypeRegistry, Predicate, AckView, NodeId};
//!
//! # fn main() -> Result<(), stabilizer_dsl::DslError> {
//! // Two availability zones with two nodes each.
//! let topo = Topology::builder()
//!     .az("East", &["e1", "e2"])
//!     .az("West", &["w1", "w2"])
//!     .build()?;
//! let acks = AckTypeRegistry::new();
//!
//! // "Stable once every node other than me has received it."
//! let pred = Predicate::compile("MIN($ALLWNODES-$MYWNODE)", &topo, &acks, topo.node("e1").unwrap())?;
//!
//! // A toy ack table: node i has acknowledged sequence number 10*i.
//! struct Table;
//! impl AckView for Table {
//!     fn ack(&self, node: NodeId, _ty: stabilizer_dsl::AckTypeId) -> u64 { 10 * node.0 as u64 }
//! }
//! assert_eq!(pred.eval(&Table), 10); // min over nodes 1,2,3
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod pretty;
pub mod resolve;
pub mod span;
pub mod token;
pub mod topology;
pub mod transform;
pub mod types;
pub mod vm;

pub use ast::{
    AckTypeName, BinOp, Op, SpannedAck, SpannedExpr, SpannedExprKind, SpannedSet, SpannedSetKind,
};
pub use compile::{compile, Program};
pub use error::DslError;
pub use interp::eval_resolved;
pub use optimize::optimize;
pub use parser::parse;
pub use resolve::{expand_set, resolve, Operand, ReduceKind, Resolved, ResolvedExpr};
pub use span::Span;
pub use topology::{Topology, TopologyBuilder};
pub use transform::{exclude_node, restrict_nodes};
pub use types::{
    AckTypeId, AckTypeRegistry, AckView, AzId, NodeId, SeqNo, DELIVERED, PERSISTED, RECEIVED,
};
pub use vm::EvalScratch;

use std::fmt;
use std::sync::Arc;

/// A fully compiled stability-frontier predicate, ready for repeated
/// low-overhead evaluation on the control-plane critical path.
///
/// This bundles the original source text, the resolved expression (used by
/// fault handling to rewrite the predicate when a node is excluded), and
/// the compiled bytecode program. It is an immutable shared handle: a
/// clone points at the same compiled predicate and costs a reference
/// count, so keys that install the same program share one copy.
#[derive(Debug, Clone)]
pub struct Predicate(Arc<Compiled>);

#[derive(Debug)]
struct Compiled {
    source: String,
    resolved: Resolved,
    program: Program,
}

impl Predicate {
    /// Parse, resolve, and compile `source` for execution at node `me`.
    ///
    /// # Errors
    ///
    /// Returns a [`DslError`] for lexical/syntax errors, unknown node or
    /// availability-zone names, unknown ACK types, type errors (e.g.
    /// subtracting a set from a number), or statically invalid predicates
    /// (empty reductions, `KTH_*` rank out of range).
    pub fn compile(
        source: &str,
        topo: &Topology,
        acks: &AckTypeRegistry,
        me: NodeId,
    ) -> Result<Self, DslError> {
        Predicate::compile_parsed(source, &parse(source)?, topo, acks, me)
    }

    /// [`Predicate::compile`] from `tree`, what [`parse`] made of
    /// `source`: resolve and compile only, so a source parsed once can
    /// be compiled at every node that installs it.
    ///
    /// # Errors
    ///
    /// As [`Predicate::compile`], less those [`parse`] reports.
    pub fn compile_parsed(
        source: &str,
        tree: &SpannedExpr,
        topo: &Topology,
        acks: &AckTypeRegistry,
        me: NodeId,
    ) -> Result<Self, DslError> {
        let resolved = optimize::optimize(&resolve(tree, topo, acks, me)?);
        Ok(Predicate::new(source.to_owned(), resolved))
    }

    fn new(source: String, resolved: Resolved) -> Self {
        let program = compile(&resolved);
        Predicate(Arc::new(Compiled {
            source,
            resolved,
            program,
        }))
    }

    /// Evaluate the predicate against an ACK table, returning the stability
    /// frontier: the highest sequence number for which the user-defined
    /// stability property holds (and, by monotonicity, for all prior ones).
    pub fn eval<V: AckView>(&self, view: &V) -> SeqNo {
        self.0.program.eval(view)
    }

    /// Evaluate using a caller-provided scratch buffer, avoiding all
    /// allocation. Useful when evaluating at high rates.
    pub fn eval_with<V: AckView>(&self, view: &V, scratch: &mut EvalScratch) -> SeqNo {
        self.0.program.eval_with(view, scratch)
    }

    /// The original DSL source text.
    pub fn source(&self) -> &str {
        &self.0.source
    }

    /// The resolved (macro-expanded, constant-folded) form.
    pub fn resolved(&self) -> &Resolved {
        &self.0.resolved
    }

    /// The compiled bytecode program.
    pub fn program(&self) -> &Program {
        &self.0.program
    }

    /// The set of `(node, ack-type)` cells this predicate reads. The
    /// control plane uses this to re-evaluate only the predicates affected
    /// by an incoming ACK.
    pub fn dependencies(&self) -> &[(NodeId, AckTypeId)] {
        self.0.program.dependencies()
    }

    /// Rewrite this predicate so it no longer observes `node` (used when a
    /// secondary crashes, §III-E). `KTH_*` ranks are clamped to the shrunk
    /// set sizes.
    ///
    /// # Errors
    ///
    /// Fails if removing the node would leave a reduction with no operands.
    pub fn excluding(&self, node: NodeId) -> Result<Self, DslError> {
        let resolved = exclude_node(&self.0.resolved, node)?;
        Ok(Predicate::new(
            format!("{} /* -{} */", self.0.source, node.0),
            resolved,
        ))
    }

    /// Rewrite this predicate so it reads ACKs only from `allowed` — the
    /// partial-replication restriction: a predicate installed for a stream
    /// placed on a replica set must not wait on non-replicas, which never
    /// ack the stream. No-op (returns a shared clone) when nothing is removed.
    ///
    /// # Errors
    ///
    /// Fails if the restriction would leave a reduction with no operands
    /// (the predicate reads only non-replicas).
    pub fn restricted_to(&self, allowed: &[NodeId]) -> Result<Self, DslError> {
        if self.dependencies().iter().all(|(n, _)| allowed.contains(n)) {
            return Ok(self.clone());
        }
        let resolved = restrict_nodes(&self.0.resolved, allowed)?;
        Ok(Predicate::new(self.0.source.clone(), resolved))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FlatAcks(Vec<u64>);
    impl AckView for FlatAcks {
        fn ack(&self, node: NodeId, _ty: AckTypeId) -> u64 {
            self.0[node.0 as usize]
        }
    }

    fn topo8() -> Topology {
        // The paper's Fig. 2 topology: 4 regions, 8 nodes.
        Topology::builder()
            .az("North_California", &["n1", "n2"])
            .az("North_Virginia", &["n3", "n4", "n5", "n6"])
            .az("Oregon", &["n7"])
            .az("Ohio", &["n8"])
            .build()
            .unwrap()
    }

    #[test]
    fn fig1_example_max_of_remotes() {
        let topo = topo8();
        let acks = AckTypeRegistry::new();
        let p = Predicate::compile("MAX($ALLWNODES-$MYWNODE)", &topo, &acks, NodeId(0)).unwrap();
        // Fig. 1 ack table: [33, 25, 19, 21, 23, 28] for 6 nodes; pad to 8.
        let v = FlatAcks(vec![33, 25, 19, 21, 23, 28, 0, 0]);
        assert_eq!(p.eval(&v), 28);
    }

    #[test]
    fn majority_regions_predicate_from_table3() {
        let topo = topo8();
        let acks = AckTypeRegistry::new();
        let p = Predicate::compile(
            "KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
            &topo,
            &acks,
            NodeId(0),
        )
        .unwrap();
        // Regions: NV max = 7, OR = 3, OH = 9 -> 2nd largest = 7.
        let v = FlatAcks(vec![0, 0, 5, 7, 2, 1, 3, 9]);
        assert_eq!(p.eval(&v), 7);
    }

    #[test]
    fn excluding_a_node_rewrites_sets() {
        let topo = topo8();
        let acks = AckTypeRegistry::new();
        let p = Predicate::compile("MIN($ALLWNODES-$MYWNODE)", &topo, &acks, NodeId(0)).unwrap();
        let v = FlatAcks(vec![100, 9, 8, 7, 6, 5, 4, 3]);
        assert_eq!(p.eval(&v), 3);
        let p2 = p.excluding(NodeId(7)).unwrap();
        assert_eq!(p2.eval(&v), 4);
        assert!(p2.dependencies().iter().all(|(n, _)| *n != NodeId(7)));
    }
}
