//! The one differential driver the sim-vs-TCP tests share.

use stabilizer_chaos::{Backend, Chaos, FinalState};
use stabilizer_netsim::SimDuration;

/// Run `h` for `run_for`, then wait (bounded by `settle`) until every
/// published message has stabilized — liveness doubles as convergence:
/// the final state is only comparable once it has — and return the
/// converged state under `key`.
pub fn converge<B: Backend>(
    h: &mut Chaos<B>,
    run_for: SimDuration,
    settle: SimDuration,
    key: &str,
) -> FinalState {
    let runtime = std::any::type_name::<B>();
    h.run(run_for)
        .unwrap_or_else(|v| panic!("{runtime} run violated an invariant: {v}"));
    h.verify_liveness(settle)
        .unwrap_or_else(|v| panic!("{runtime} run did not stabilize: {v}"));
    h.final_state(key)
}
