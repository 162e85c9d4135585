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
//! *real* TCP transport — its unmodified link layer and runtime, on an
//! in-memory net ([`mem_net`]) — closing the gap between the simulated
//! protocol and the code that runs on sockets. There is one harness,
//! [`Chaos<B>`](Chaos), over a small [`Backend`] trait with two
//! implementations:
//!
//! | | [`ChaosHarness`] = `Chaos<SimBackend>` | [`ChaosTcpCluster`] = `Chaos<TcpBackend>` |
//! |---|---|---|
//! | **Same** ([`harness`]) | plan compile, schedule order (faults before work on ties), link/down/skew layering, the one reboot sequence under restart and join, the checker, the `post-fault-liveness` verdict with its blame, the payload fill, the query surface ([`FinalState`]), the hashed trace (an unbounded telemetry `TraceRing`, [`trace_hash`]) | ← |
//! | **Network** | [`stabilizer_netsim::Simulation`] links carry `WireMsg`s | [`MemNet`]: framed bytes of the transport's connections, one `netsim` message per frame |
//! | **Clock** | virtual, one event per step | virtual, one event per step; every node's loop reads the simulator's clock |
//! | **Concurrency** | none | none: each node's I/O loop is turned by its `netsim` actor |
//! | **Crash mechanics** | snapshot the actor, leave a cut-off zombie | snapshot, shut down, kill its connections ([`tcp_harness`]) |
//! | **Trace** | every upcall and harness action, one hash per seed | the same: a seed replays to the same hash |
//!
//! The full contract — which rule is written where — is the table in
//! [`harness`].
//!
//! [`AppHooks`]: stabilizer_core::sim_driver::AppHooks

#![warn(missing_docs)]

pub mod harness;
pub mod invariants;
pub mod mem_net;
pub mod minimize;
pub mod plan;
pub mod scenario;
pub mod sim_harness;
pub mod tcp_harness;
pub mod trace;

pub use harness::{
    Advance, Backend, Chaos, ChaosError, FinalState, RunReport, TimedWork, WorkItem,
};
pub use invariants::{InvariantChecker, InvariantViolation, NodeView};
pub use mem_net::MemNet;
pub use minimize::minimize_plan;
pub use plan::{Fault, FaultEvent, FaultPlan, Op, PlanError, TimedOp};
pub use scenario::{ChaosFailure, Scenario, TopologyKind};
pub use sim_harness::{ChaosHarness, SimBackend};
pub use tcp_harness::{ChaosTcpCluster, TcpBackend};
pub use trace::{trace_hash, ChaosObserver};
