//! The one stall rule: "no progress for a full timeout".
//!
//! Three supervisors ask the same question of a monotone position — a
//! replica's `received` ACK of this node's stream (go-back-N
//! retransmission), an inbound transfer session's delivered prefix
//! (re-request), and a stream's delivered prefix while its origin is
//! known to be ahead (catch-up on lag). Each is one [`Watchdog`].

use stabilizer_dsl::SeqNo;

/// A position that is expected to keep moving, and when it last did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Watchdog {
    pos: SeqNo,
    since: u64,
}

impl Watchdog {
    /// Watch from `pos`, the clock starting at `now_nanos`.
    pub(crate) fn at(pos: SeqNo, now_nanos: u64) -> Self {
        Watchdog {
            pos,
            since: now_nanos,
        }
    }

    /// Note the position outside a check: moving beyond the last one
    /// seen restarts the clock.
    pub(crate) fn advance(&mut self, pos: SeqNo, now_nanos: u64) -> bool {
        let moved = pos > self.pos;
        if moved {
            *self = Watchdog::at(pos, now_nanos);
        }
        moved
    }

    /// One check of the position. Progress restarts the clock, and so
    /// does `idle` (nothing is owed at this position, so standing still
    /// is no stall). Otherwise `true` once `timeout_nanos` have passed
    /// since the clock last restarted — which restarts it, so a stall
    /// fires once per timeout, not once per check.
    pub(crate) fn stalled(
        &mut self,
        pos: SeqNo,
        idle: bool,
        now_nanos: u64,
        timeout_nanos: u64,
    ) -> bool {
        if self.advance(pos, now_nanos) {
            return false;
        }
        let fired = !idle && now_nanos.saturating_sub(self.since) >= timeout_nanos;
        if idle || fired {
            self.since = now_nanos;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: u64 = 100;

    #[test]
    fn progress_restarts_the_clock() {
        let mut dog = Watchdog::at(0, 0);
        assert!(!dog.stalled(0, false, 99, TIMEOUT));
        // Progress one tick before the deadline: the full timeout runs
        // again from here.
        assert!(!dog.stalled(1, false, 99, TIMEOUT));
        assert!(!dog.stalled(1, false, 198, TIMEOUT));
        assert!(dog.stalled(1, false, 199, TIMEOUT));
        // `advance` is the same rule without the check.
        assert!(dog.advance(2, 250));
        assert!(!dog.advance(2, 260), "standing still is not progress");
        assert!(!dog.stalled(2, false, 349, TIMEOUT));
        assert!(dog.stalled(2, false, 350, TIMEOUT));
    }

    #[test]
    fn fires_exactly_at_the_timeout() {
        let mut dog = Watchdog::at(7, 1_000);
        assert!(!dog.stalled(7, false, 1_000 + TIMEOUT - 1, TIMEOUT));
        assert!(dog.stalled(7, false, 1_000 + TIMEOUT, TIMEOUT));
    }

    #[test]
    fn fires_once_per_stall() {
        let mut dog = Watchdog::at(3, 0);
        assert!(dog.stalled(3, false, 150, TIMEOUT));
        // Firing re-armed it: the next check inside the same timeout is
        // quiet, the one a full timeout later fires again.
        assert!(!dog.stalled(3, false, 200, TIMEOUT));
        assert!(dog.stalled(3, false, 250, TIMEOUT));
    }

    #[test]
    fn idle_is_never_a_stall_and_restarts_the_clock() {
        let mut dog = Watchdog::at(3, 0);
        assert!(!dog.stalled(3, true, 500, TIMEOUT));
        assert!(!dog.stalled(3, false, 599, TIMEOUT));
        assert!(dog.stalled(3, false, 600, TIMEOUT));
        // A position behind the one watched (a stale read) is no progress.
        assert!(!dog.stalled(2, false, 650, TIMEOUT));
    }
}
