//! Deterministic chaos harness for the Stabilizer reproduction.
//!
//! Three pieces, designed to compose with every application crate in
//! the workspace:
//!
//! - **Fault plans** ([`plan`]): declarative schedules of partitions,
//!   asymmetric loss, bandwidth collapse, crash/restart, and
//!   control-plane delay skew, compiled to primitive timed operations.
//! - **Invariant checking** ([`invariants`]): a shadow-state checker
//!   run after *every* simulator step, verifying predicate-independent
//!   safety properties (ACK monotonicity, belief ≤ truth, delivery
//!   prefixes, frontier monotonicity per generation, suspicion
//!   bookkeeping) through the [`AppHooks`]-level observer seam.
//! - **Randomized scenarios with seed replay** ([`scenario`]): a run is
//!   fully determined by `(topology, workload, fault plan, u64 seed)`;
//!   a violation prints a one-line replay command, and the greedy
//!   minimizer ([`minimize`]) shrinks the fault plan to a minimal
//!   still-failing core.
//!
//! The same fault plans and invariant checker also run against the
//! *real* threaded TCP transport, closing the gap between simulated and
//! real-socket executions. There is one harness, [`Chaos<B>`](Chaos),
//! over a small [`Backend`] trait with two implementations:
//!
//! | | [`ChaosHarness`] = `Chaos<SimBackend>` | [`ChaosTcpCluster`] = `Chaos<TcpBackend>` |
//! |---|---|---|
//! | **Same** ([`harness`]) | plan compile, schedule order (faults before work on ties), link/down/skew layering, the one reboot sequence under restart and join, the checker, the `post-fault-liveness` verdict with its blame, the payload fill, the query surface ([`FinalState`]) | ← |
//! | **Network** | [`stabilizer_netsim::Simulation`] links | [`tcp_proxy`]: every connection through a fault-injecting proxy |
//! | **Clock** | virtual, one event per step | wall, swept every 5 ms |
//! | **Concurrency** | none | runtime threads; checks cut across them by locking in index order |
//! | **Crash mechanics** | snapshot the actor, leave a cut-off zombie | epoch-kill → drain → settle → snapshot → shutdown ([`tcp_harness`]) |
//! | **Trace hashing** | every upcall and harness action into one hashed [`EventTrace`] | none: same verdict and converged state, not same bytes |
//!
//! The full contract — which rule is written where — is the table in
//! [`harness`].
//!
//! [`AppHooks`]: stabilizer_core::sim_driver::AppHooks

#![warn(missing_docs)]

pub mod harness;
pub mod invariants;
pub mod minimize;
pub mod plan;
pub mod scenario;
pub mod sim_harness;
pub mod tcp_harness;
pub mod tcp_proxy;
pub mod trace;

pub use harness::{Advance, Backend, Chaos, ChaosError, FinalState, TimedWork, WorkItem};
pub use invariants::{ChaosObservable, InvariantChecker, InvariantViolation, NodeView};
pub use minimize::minimize_plan;
pub use plan::{Fault, FaultEvent, FaultPlan, Op, PlanError, TimedOp};
pub use scenario::{ChaosFailure, Scenario, TopologyKind};
pub use sim_harness::{ChaosHarness, RunReport, SimBackend};
pub use tcp_harness::{ChaosTcpCluster, TcpBackend, TcpRunReport};
pub use tcp_proxy::ProxyNet;
pub use trace::{shared_trace, ChaosObserver, EventTrace, SharedTrace, TraceEvent, TraceEventKind};
