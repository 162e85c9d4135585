//! Capped exponential backoff with deterministic, seeded jitter for the
//! I/O loop's redials of a link that is down.
//!
//! Plain exponential backoff synchronizes: every link that lost its
//! peer at the same instant retries at the same instants, producing
//! connection stampedes exactly when the peer is busiest (coming back
//! up). Jitter decorrelates the retries. The jitter source is a seeded
//! splitmix64 stream rather than global entropy so a chaos run that
//! fixes its seed gets reproducible retry timing — and no new dependency
//! is pulled into the transport crate.

use std::time::Duration;

/// Advance a splitmix64 state and return the next value.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Capped exponential backoff with jitter: the `k`-th delay is drawn
/// uniformly from `[cur/2, cur)` where `cur = min(base * 2^k, max)`
/// (the "equal jitter" scheme — never collapses to zero, so a dead peer
/// is not hammered, but no two seeds align for long).
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    cur: Duration,
    rng: u64,
    attempts: u64,
}

impl Backoff {
    /// Backoff starting at `base`, doubling up to `max`, jittered from
    /// `seed`.
    pub fn new(base: Duration, max: Duration, seed: u64) -> Self {
        Backoff {
            base,
            max: max.max(base),
            cur: base,
            rng: seed,
            attempts: 0,
        }
    }

    /// Number of delays handed out since the last [`Backoff::reset`].
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Next delay to sleep before retrying.
    pub fn next_delay(&mut self) -> Duration {
        self.attempts += 1;
        let cur = self.cur.as_nanos() as u64;
        let half = (cur / 2).max(1);
        let jittered = half + splitmix_next(&mut self.rng) % half;
        self.cur = (self.cur * 2).min(self.max);
        Duration::from_nanos(jittered)
    }

    /// A connect succeeded: restart the schedule from `base`.
    pub fn reset(&mut self) {
        self.cur = self.base;
        self.attempts = 0;
    }
}

/// Derive a per-link jitter seed from a cluster seed and the directed
/// link identity, so every link's redials jitter independently but
/// reproducibly.
pub fn link_seed(cluster_seed: u64, me: u16, peer: u16) -> u64 {
    let mut s = cluster_seed ^ ((me as u64) << 32) ^ ((peer as u64) << 16) ^ 0x5bd1_e995;
    splitmix_next(&mut s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let mut b = Backoff::new(ms(10), ms(500), 42);
        let delays: Vec<Duration> = (0..10).map(|_| b.next_delay()).collect();
        // Each delay sits in [cur/2, cur) for the doubling-then-capped cur.
        let mut cur = ms(10);
        for d in &delays {
            assert!(
                *d >= cur / 2 && *d < cur,
                "{d:?} outside [{:?}, {cur:?})",
                cur / 2
            );
            cur = (cur * 2).min(ms(500));
        }
        // The tail is capped: every late delay is below the max but at
        // least half of it.
        assert!(delays[9] >= ms(250) && delays[9] < ms(500));
        assert_eq!(b.attempts(), 10);
    }

    #[test]
    fn same_seed_same_schedule_different_seed_diverges() {
        let schedule = |seed| {
            let mut b = Backoff::new(ms(10), ms(500), seed);
            (0..8).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
    }

    #[test]
    fn reset_restarts_from_base() {
        let mut b = Backoff::new(ms(10), ms(500), 1);
        for _ in 0..6 {
            b.next_delay();
        }
        b.reset();
        assert_eq!(b.attempts(), 0);
        let d = b.next_delay();
        assert!(d >= ms(5) && d < ms(10), "{d:?} not from the base window");
    }

    #[test]
    fn link_seeds_are_distinct_per_direction() {
        assert_ne!(link_seed(1, 0, 1), link_seed(1, 1, 0));
        assert_ne!(link_seed(1, 0, 1), link_seed(2, 0, 1));
        assert_eq!(link_seed(3, 4, 5), link_seed(3, 4, 5));
    }
}
