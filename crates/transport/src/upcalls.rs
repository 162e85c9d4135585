//! Application upcalls shared by both runtimes' handles: blocked
//! `waitfor`s, frontier monitors and delivery callbacks.
//!
//! *When* and *on which thread* an upcall fires is each runtime's
//! business (inline after the node lock is released on the plain
//! runtime, on the dispatcher thread on the sharded one); this type only
//! holds the registrations and the wait/complete rendezvous.

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use stabilizer_core::{FrontierUpdate, NodeId, SeqNo, WaitToken};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Callback invoked on every frontier advance of a watched predicate.
pub type MonitorFn = Box<dyn FnMut(&FrontierUpdate) + Send>;
/// Callback invoked when a mirrored payload is delivered.
pub type DeliverFn = Box<dyn FnMut(NodeId, SeqNo, &Bytes) + Send>;

/// Registered callbacks plus the completed-wait set of one node.
#[derive(Default)]
pub(crate) struct Upcalls {
    /// Tokens of completed `waitfor`s not yet consumed by their waiter.
    completed: Mutex<HashSet<WaitToken>>,
    /// Signalled when `completed` grows.
    completed_cv: Condvar,
    /// Frontier monitors, keyed by `(stream, key)`.
    monitors: Mutex<HashMap<(NodeId, String), Vec<MonitorFn>>>,
    deliver_fns: Mutex<Vec<DeliverFn>>,
}

impl Upcalls {
    /// Block until `token` completes or `timeout` elapses; `true` on
    /// completion (which consumes it).
    pub(crate) fn wait(&self, token: WaitToken, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut done = self.completed.lock();
        loop {
            if done.remove(&token) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.completed_cv.wait_for(&mut done, deadline - now);
        }
    }

    /// Whether `token` has completed (consumes the completion).
    pub(crate) fn take_done(&self, token: WaitToken) -> bool {
        self.completed.lock().remove(&token)
    }

    /// Mark `tokens` completed and wake every waiter.
    pub(crate) fn complete(&self, tokens: impl IntoIterator<Item = WaitToken>) {
        let mut done = self.completed.lock();
        let before = done.len();
        done.extend(tokens);
        if done.len() > before {
            self.completed_cv.notify_all();
        }
    }

    /// Run the monitors registered for `update`'s `(stream, key)`.
    pub(crate) fn fire_frontier(&self, update: &FrontierUpdate) {
        let mut monitors = self.monitors.lock();
        if let Some(fns) = monitors.get_mut(&(update.stream, update.key.clone())) {
            for f in fns.iter_mut() {
                f(update);
            }
        }
    }

    /// Run every delivery callback.
    pub(crate) fn fire_deliver(&self, origin: NodeId, seq: SeqNo, payload: &Bytes) {
        for f in self.deliver_fns.lock().iter_mut() {
            f(origin, seq, payload);
        }
    }

    pub(crate) fn add_monitor(&self, stream: NodeId, key: &str, f: MonitorFn) {
        self.monitors
            .lock()
            .entry((stream, key.to_owned()))
            .or_default()
            .push(f);
    }

    pub(crate) fn add_deliver(&self, f: DeliverFn) {
        self.deliver_fns.lock().push(f);
    }
}
