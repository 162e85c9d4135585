//! Application upcalls of a node handle: blocked `waitfor`s, frontier
//! monitors and delivery callbacks.
//!
//! The runtime fires an upcall inline on whichever thread mutated the
//! state machine, after its lock is released; this type holds the
//! registrations and the wait/complete rendezvous — and keeps frontier
//! upcalls monotone (§III "monotonic upcalls"): two threads that folded
//! ACKs of one key can arrive here swapped.
//!
//! Only a wait that sleeps pays for a wake-up: a `waitfor` the node
//! answers within its own call never gets here, and
//! [`Upcalls::complete`] signals only while a waiter is counted asleep.

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use stabilizer_core::{Event, FrontierUpdate, NodeId, SeqNo, WaitToken};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Callback invoked on every frontier advance of a watched predicate.
pub type MonitorFn = Box<dyn FnMut(&FrontierUpdate) + Send>;
/// Callback invoked when a mirrored payload is delivered.
pub type DeliverFn = Box<dyn FnMut(NodeId, SeqNo, &Bytes) + Send>;

/// The monitors of one `(stream, key)` and the newest `(generation, seq)`
/// they were shown.
#[derive(Default)]
struct Monitored {
    last: (u32, SeqNo),
    fns: Vec<MonitorFn>,
}

/// The wait/complete rendezvous. A token is in at most one set, so the
/// two together hold no more tokens than the machine has pending waiters
/// plus completions not yet consumed.
#[derive(Default)]
struct Waits {
    /// Tokens of completed `waitfor`s not yet consumed by their waiter
    /// (a `begin_waitfor` token stays until `wait_is_done` takes it).
    completed: HashSet<WaitToken>,
    /// Tokens whose blocking waiter timed out and left: still pending in
    /// the machine, which cannot cancel a waiter, and dropped when it
    /// completes them.
    abandoned: HashSet<WaitToken>,
    /// Waiters asleep on `completed_cv`. Counted under this lock before
    /// a waiter sleeps, so a completion that finds 0 here is seen by the
    /// waiter's own check of `completed` instead.
    sleepers: usize,
}

/// Registered callbacks plus the wait rendezvous of one node.
#[derive(Default)]
pub(crate) struct Upcalls {
    waits: Mutex<Waits>,
    /// Signalled when `waits.completed` grows while `waits.sleepers > 0`.
    completed_cv: Condvar,
    /// Frontier monitors, by stream, then by key (so an update's
    /// borrowed key finds them).
    monitors: Mutex<HashMap<NodeId, HashMap<String, Monitored>>>,
    deliver_fns: Mutex<Vec<DeliverFn>>,
}

impl Upcalls {
    /// Block until `token` completes or `timeout` elapses; `true` on
    /// completion (which consumes it). A token already completed returns
    /// at once, without reading the clock; otherwise `timeout` runs from
    /// that first look. On `false` the token is abandoned: its later
    /// completion is dropped, not kept for nobody.
    pub(crate) fn wait(&self, token: WaitToken, timeout: Duration) -> bool {
        let mut waits = self.waits.lock();
        if waits.completed.remove(&token) {
            return true;
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                waits.abandoned.insert(token);
                return false;
            }
            waits.sleepers += 1;
            self.completed_cv.wait_for(&mut waits, deadline - now);
            waits.sleepers -= 1;
            if waits.completed.remove(&token) {
                return true;
            }
        }
    }

    /// Whether `token` has completed (consumes the completion).
    pub(crate) fn take_done(&self, token: WaitToken) -> bool {
        self.waits.lock().completed.remove(&token)
    }

    /// Mark `tokens` completed under one lock (none, for an empty
    /// `tokens`), and wake the waiters only if one is asleep: each
    /// re-checks `completed` for its own token.
    pub(crate) fn complete(&self, tokens: Vec<WaitToken>) {
        if tokens.is_empty() {
            return;
        }
        let mut waits = self.waits.lock();
        for token in tokens {
            if !waits.abandoned.remove(&token) {
                waits.completed.insert(token);
            }
        }
        let asleep = waits.sleepers > 0;
        drop(waits);
        if asleep {
            self.completed_cv.notify_all();
        }
    }

    /// Run the application's callbacks for `event`: delivery upcalls and
    /// frontier monitors (`waitfor` wake-ups go through
    /// [`Upcalls::complete`], a batch at a time). Suspicion, recovery and
    /// catch-up surface through `is_suspected`, the observer and monitor
    /// silence; a production deployment would plug an alerting hook here.
    pub(crate) fn fire(&self, event: &Event<'_>) {
        match *event {
            Event::Deliver {
                origin,
                seq,
                payload,
            } => {
                for f in self.deliver_fns.lock().iter_mut() {
                    f(origin, seq, payload);
                }
            }
            Event::Frontier(update) => self.fire_frontier(update),
            _ => {}
        }
    }

    /// Run the monitors registered for `update`'s `(stream, key)`, unless
    /// they have already been shown a newer `(generation, seq)`.
    fn fire_frontier(&self, update: &FrontierUpdate) {
        let mut monitors = self.monitors.lock();
        let of_stream = monitors.get_mut(&update.stream);
        if let Some(m) = of_stream.and_then(|keys| keys.get_mut(update.key.as_str())) {
            let at = (update.generation, update.seq);
            if at < m.last {
                return;
            }
            m.last = at;
            for f in m.fns.iter_mut() {
                f(update);
            }
        }
    }

    pub(crate) fn add_monitor(&self, stream: NodeId, key: &str, f: MonitorFn) {
        self.monitors
            .lock()
            .entry(stream)
            .or_default()
            .entry(key.to_owned())
            .or_default()
            .fns
            .push(f);
    }

    pub(crate) fn add_deliver(&self, f: DeliverFn) {
        self.deliver_fns.lock().push(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn monitors_never_see_a_frontier_move_back() {
        let upcalls = Upcalls::default();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        upcalls.add_monitor(
            NodeId(0),
            "All",
            Box::new(move |u| sink.lock().push((u.generation, u.seq))),
        );
        let fire = |generation, seq| {
            upcalls.fire(&Event::Frontier(&FrontierUpdate {
                stream: NodeId(0),
                key: "All".to_owned(),
                seq,
                generation,
            }));
        };
        // Two readers raced: 6 was folded second but fired first.
        fire(0, 6);
        fire(0, 5);
        assert_eq!(*seen.lock(), [(0, 6)]);
        // A predicate change restarts the frontier under a new generation.
        fire(1, 2);
        fire(0, 7);
        assert_eq!(*seen.lock(), [(0, 6), (1, 2)]);
    }

    /// Tokens the rendezvous holds, completed or abandoned.
    fn held(upcalls: &Upcalls) -> usize {
        let waits = upcalls.waits.lock();
        waits.completed.len() + waits.abandoned.len()
    }

    fn sleepers(upcalls: &Upcalls) -> usize {
        upcalls.waits.lock().sleepers
    }

    #[test]
    fn a_wait_that_timed_out_leaves_nothing_behind_once_it_completes() {
        let upcalls = Upcalls::default();
        assert!(!upcalls.wait(1, Duration::ZERO));
        // The machine cannot cancel the waiter: it completes later.
        upcalls.complete(vec![1]);
        assert_eq!(held(&upcalls), 0, "a completion kept for nobody");
        // One that timed out asleep is no longer counted as a sleeper.
        assert!(!upcalls.wait(4, Duration::from_millis(10)));
        assert_eq!(sleepers(&upcalls), 0, "a sleeper counted after it left");
        upcalls.complete(vec![4]);
        assert_eq!(held(&upcalls), 0);

        // A completion that beats its waiter is consumed by it.
        upcalls.complete(vec![2]);
        assert!(upcalls.wait(2, Duration::ZERO));
        // A `begin_waitfor` token is kept until `wait_is_done` takes it.
        upcalls.complete(vec![3]);
        assert_eq!(held(&upcalls), 1);
        assert!(upcalls.take_done(3));
        assert!(!upcalls.take_done(3));
        assert_eq!(held(&upcalls), 0);
    }

    /// A completion may land at any point of a waiter's `wait` — before
    /// its first look, between the look and the sleep, or while it
    /// sleeps — and must never be lost: `complete` signals only when it
    /// sees a sleeper counted, so a sleeper must be counted in the same
    /// critical section as its look at `completed`. Rounds end at a
    /// barrier so that a round's last completion has no later one to
    /// wake a waiter it missed: a lost wake-up is a wait that runs out
    /// its whole timeout.
    #[test]
    fn no_wake_up_is_lost_between_a_look_and_a_sleep() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::Barrier;
        const WAITERS: u64 = 4;
        const ROUNDS: u64 = 2_000;
        const TIMEOUT: Duration = Duration::from_secs(5);
        let upcalls = Upcalls::default();
        let (start, end) = (Barrier::new(6), Barrier::new(6));
        let (lost, stop) = (AtomicUsize::new(0), AtomicBool::new(false));
        std::thread::scope(|s| {
            for w in 0..WAITERS {
                let (upcalls, start, end, lost, stop) = (&upcalls, &start, &end, &lost, &stop);
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        start.wait();
                        let began = Instant::now();
                        if !upcalls.wait(round * WAITERS + w, TIMEOUT) || began.elapsed() >= TIMEOUT
                        {
                            lost.fetch_add(1, Ordering::SeqCst);
                            stop.store(true, Ordering::SeqCst);
                        }
                        end.wait();
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                });
            }
            for c in 0..2u64 {
                let (upcalls, start, end, stop) = (&upcalls, &start, &end, &stop);
                s.spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ c;
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    for round in 0..ROUNDS {
                        start.wait();
                        // This completer's half of the round, shuffled, in
                        // batches of one or two, each after a random pause.
                        let mut mine: Vec<u64> = (0..WAITERS)
                            .filter(|w| w % 2 == c)
                            .map(|w| round * WAITERS + w)
                            .collect();
                        if next() % 2 == 0 {
                            mine.reverse();
                        }
                        while !mine.is_empty() {
                            for _ in 0..next() % 2_000 {
                                std::hint::spin_loop();
                            }
                            let take = (1 + next() as usize % 2).min(mine.len());
                            upcalls.complete(mine.split_off(mine.len() - take));
                        }
                        end.wait();
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                });
            }
        });
        assert_eq!(lost.load(Ordering::SeqCst), 0, "a wake-up was lost");
        assert_eq!(held(&upcalls), 0);
        assert_eq!(sleepers(&upcalls), 0);
    }
}
