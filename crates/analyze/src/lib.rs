//! # stabcheck — static analysis for stability predicates
//!
//! The Stabilizer DSL (see `stabilizer-dsl`) is small enough that most of
//! a predicate's behavior is statically decidable once the deployment
//! topology is known. This crate implements a lint engine over the
//! resolved predicate plus topology:
//!
//! * **Diagnostics** ([`Diagnostic`], [`Report`]): span-carrying findings
//!   with severities, rendered caret-style for humans
//!   ([`Report::render_human`]) or as JSON for machines
//!   ([`Report::render_json`]).
//! * **Lint catalog** ([`Lint`]): eighteen checks ranging from mechanical
//!   (unknown names, empty sets, `KTH_*` ranks out of range) through
//!   semantic (vacuous predicates, crash-satisfiability under a failure
//!   budget) to cross-predicate (dominance/equivalence between
//!   co-installed predicates, proved on a small implication lattice),
//!   and availability-audit findings (zero crash tolerance, partition
//!   vulnerability, cross-vantage tolerance asymmetry).
//! * **Availability prover** ([`avail`]): exact crash tolerance `f*`,
//!   all minimal blocking sets via structural recursion over the
//!   monotone threshold form of the predicate, and placement-aware
//!   partition-cut analysis.
//! * **Entry point** ([`Analyzer`]): configured with a
//!   [`Topology`](stabilizer_dsl::Topology),
//!   ACK-type registry, executing node, and optionally an ACK-emissions
//!   model and failure budget.
//!
//! The `stabcheck` binary (in `stabilizer-bench`) fronts this crate on
//! the command line; `stabilizer-core` runs it at predicate-install time
//! when the cluster config sets `option analysis deny`, and when
//! `analysis_report` is called under `warn`.
//!
//! ## Example
//!
//! ```
//! use stabilizer_analyze::{Analyzer, Severity};
//! use stabilizer_dsl::{AckTypeRegistry, NodeId, Topology};
//!
//! let topo = Topology::builder()
//!     .az("East", &["e1", "e2"])
//!     .az("West", &["w1"])
//!     .build()
//!     .unwrap();
//! let acks = AckTypeRegistry::new();
//! let analyzer = Analyzer::new(&topo, &acks, NodeId(0));
//!
//! // KTH_MAX rank 7 over a 2-node set: statically out of range.
//! let report = analyzer.analyze("MyPred", "KTH_MAX(7, $ALLWNODES-$MYWNODE)");
//! assert_eq!(report.count(Severity::Error), 1);
//! assert!(report.render_human().contains("rank-out-of-range"));
//! ```

#![warn(missing_docs)]

pub mod avail;
pub mod diag;
pub mod dominance;
pub mod emissions;
pub mod lints;
pub mod paper;
pub mod probe;

pub use avail::{
    asymmetry_diagnostic, availability, brute_force_availability, crash_witness, render_sets,
    single_az_cut, stranding_cuts, worst_cut, Availability, PartitionCut,
};
pub use diag::{json_string, push_json_str, Diagnostic, Lint, Report, Severity};
pub use dominance::{compare, expr_le, Dominance};
pub use emissions::AckEmissions;
pub use lints::Analyzer;
pub use probe::{blocked_with_down, crash_unsatisfiable, is_vacuous, PROBE_HIGH};
