//! The one timer table: which periodic timers a node runs, in which
//! order drivers arm them, and at what period.
//!
//! Every driver — the simulator's `SimNode`, under either machine and
//! under every application actor, and the TCP link ticker — arms,
//! re-arms, skews and dispatches through [`TimerKind`], so a schedule
//! change is one edit here instead of one per driver.
//!
//! A timer whose option is `0` is off ([`TimerKind::period`] returns
//! `None`). The failure detector, the retransmit check and transfer
//! supervision run at **half** their configured timeout, floored at
//! 1 ms, so an expiry is noticed at most half a timeout late. The floor
//! applies from the first arming on: the simulator drivers used to arm
//! the very first failure check of `failure_timeout_millis 1` at 0 ms
//! and only re-arm at 1 ms; it is now 1 ms throughout.

use crate::config::Options;
use std::time::Duration;

/// A periodic timer of the control plane. Discriminants are the
/// simulator timer tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Flush coalesced ACKs (`ack_flush_micros`).
    AckFlush = 1,
    /// Heartbeat every peer (`heartbeat_millis`).
    Heartbeat = 2,
    /// Look for silent peers (`failure_timeout_millis`).
    Failure = 3,
    /// Go-back-N reliability check (`retransmit_millis`).
    Retransmit = 4,
    /// §III-E transfer supervision (`transfer_millis`).
    Transfer = 5,
}

impl TimerKind {
    /// Every kind, in the order drivers arm them at start-up (the
    /// simulator assigns timer ids in this order, so it is part of the
    /// replayed schedule).
    pub const ALL: [TimerKind; 5] = [
        TimerKind::AckFlush,
        TimerKind::Heartbeat,
        TimerKind::Failure,
        TimerKind::Retransmit,
        TimerKind::Transfer,
    ];

    /// The simulator timer tag of this kind (1–5).
    pub const fn tag(self) -> u64 {
        self as u64
    }

    /// The first simulator timer tag that is an application's: tags
    /// below this are the driver's. An actor that embeds a `SimNode`
    /// numbers its own timers from here up, dispatches that range
    /// itself and hands every other tag to `SimNode::on_timer`.
    pub const APP_TAG_BASE: u64 = 1 << 16;

    /// The kind a simulator timer tag names, if any.
    pub fn from_tag(tag: u64) -> Option<TimerKind> {
        TimerKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// The nominal period of this timer under `opts`; `None` when the
    /// option that enables it is `0`.
    pub fn period(self, opts: &Options) -> Option<Duration> {
        let every = |n: u64, unit: fn(u64) -> Duration| (n > 0).then(|| unit(n));
        let half = |timeout_ms: u64| every(timeout_ms, |ms| Duration::from_millis((ms / 2).max(1)));
        match self {
            TimerKind::AckFlush => every(opts.ack_flush_micros, Duration::from_micros),
            TimerKind::Heartbeat => every(opts.heartbeat_millis, Duration::from_millis),
            TimerKind::Failure => half(opts.failure_timeout_millis),
            TimerKind::Retransmit => half(opts.retransmit_millis),
            TimerKind::Transfer => half(opts.transfer_millis),
        }
    }

    /// [`TimerKind::period`] stretched by a clock-skew factor (see
    /// [`scale`]).
    pub fn scaled_period(self, opts: &Options, factor: f64) -> Option<Duration> {
        self.period(opts).map(|d| scale(d, factor))
    }
}

/// A nominal interval stretched by a clock-skew `factor` (`< 1` fires
/// early, `> 1` late; 1.0 is exact). Never rounds below 1 ns, so timers
/// keep firing under extreme factors.
pub fn scale(d: Duration, factor: f64) -> Duration {
    if factor == 1.0 {
        return d;
    }
    Duration::from_nanos(((d.as_nanos() as f64 * factor) as u64).max(1))
}

/// Reject a clock-skew factor that is not positive and finite.
///
/// # Panics
///
/// Panics on such a factor.
pub fn assert_valid_scale(factor: f64) {
    assert!(
        factor.is_finite() && factor > 0.0,
        "timer scale must be positive and finite"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_and_arming_order_are_the_sim_literals() {
        let tags: Vec<u64> = TimerKind::ALL.iter().map(|k| k.tag()).collect();
        assert_eq!(tags, [1, 2, 3, 4, 5]);
        for kind in TimerKind::ALL {
            assert_eq!(TimerKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(TimerKind::from_tag(0), None);
        assert_eq!(TimerKind::from_tag(6), None);
        assert_eq!(TimerKind::from_tag(TimerKind::APP_TAG_BASE), None);
        assert!(tags.iter().all(|t| *t < TimerKind::APP_TAG_BASE));
    }

    /// The parent's literals, as the simulator drivers re-armed them.
    fn parent_literal(kind: TimerKind, o: &Options) -> Option<Duration> {
        match kind {
            TimerKind::AckFlush => {
                (o.ack_flush_micros > 0).then(|| Duration::from_micros(o.ack_flush_micros.max(1)))
            }
            TimerKind::Heartbeat => {
                (o.heartbeat_millis > 0).then(|| Duration::from_millis(o.heartbeat_millis.max(1)))
            }
            TimerKind::Failure => (o.failure_timeout_millis > 0)
                .then(|| Duration::from_millis((o.failure_timeout_millis / 2).max(1))),
            TimerKind::Retransmit => (o.retransmit_millis > 0)
                .then(|| Duration::from_millis((o.retransmit_millis / 2).max(1))),
            TimerKind::Transfer => (o.transfer_millis > 0)
                .then(|| Duration::from_millis((o.transfer_millis / 2).max(1))),
        }
    }

    #[test]
    fn periods_equal_the_parent_literals_over_a_grid() {
        let grid = [0u64, 1, 2, 3, 7, 50, 400, 1001];
        for &a in &grid {
            for &b in &grid {
                let o = Options {
                    heartbeat_millis: b,
                    ..Options::default()
                }
                .ack_flush_micros(a)
                .failure_timeout_millis(a)
                .retransmit_millis(b)
                .transfer_millis(a);
                for kind in TimerKind::ALL {
                    assert_eq!(
                        kind.period(&o),
                        parent_literal(kind, &o),
                        "{kind:?} {a} {b}"
                    );
                }
            }
        }
        // The one intended difference from the parent: the *first*
        // failure check of a 1 ms timeout is armed at 1 ms, not 0.
        let o = Options::default().failure_timeout_millis(1);
        assert_eq!(
            TimerKind::Failure.period(&o),
            Some(Duration::from_millis(1))
        );
        assert_eq!(
            TimerKind::ALL.map(|k| k.period(&Options::default())),
            [None; 5]
        );
    }

    #[test]
    fn scale_is_exact_at_one_and_never_rounds_to_zero() {
        let d = Duration::from_millis(50);
        assert_eq!(scale(d, 1.0), d);
        assert_eq!(scale(d, 2.0), Duration::from_millis(100));
        assert_eq!(scale(d, 0.5), Duration::from_millis(25));
        assert_eq!(
            scale(Duration::from_nanos(1), 1e-9),
            Duration::from_nanos(1)
        );
        assert_eq!(
            scale(Duration::from_micros(1), 1e-12),
            Duration::from_nanos(1)
        );
        let o = Options {
            heartbeat_millis: 10,
            ..Options::default()
        };
        assert_eq!(
            TimerKind::Heartbeat.scaled_period(&o, 2.0),
            Some(Duration::from_millis(20))
        );
        assert_eq!(TimerKind::Retransmit.scaled_period(&o, 2.0), None);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_scale_is_rejected() {
        assert_valid_scale(0.0);
    }
}
