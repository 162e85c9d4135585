//! Deterministic publish routing across stream shards.
//!
//! The router is pure state-machine code: given the same sequence of
//! `route` calls (and keys), it produces the same shard assignment in
//! every process, which is what keeps sharded seed replay byte-identical
//! — there is no RNG and no dependence on wall time or thread identity.

/// How publishes are assigned to shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Cycle through shards in order. Balances perfectly under uniform
    /// publish rates and is the default for keyless streams.
    #[default]
    RoundRobin,
    /// FNV-1a hash of the routing key modulo the shard count, so all
    /// messages of one key share a shard (per-key FIFO within the shard).
    /// Keyless publishes fall back to round-robin.
    KeyHash,
}

/// Assigns each publish to one of `shards` stream shards.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: u16,
    policy: RoutePolicy,
    rr: u64,
}

/// FNV-1a over a key — the stable, dependency-free hash used for
/// key-affine routing.
pub use stabilizer_core::fnv1a;

impl ShardRouter {
    /// A router over `shards` shards (clamped to at least 1).
    pub fn new(shards: u16, policy: RoutePolicy) -> Self {
        ShardRouter {
            shards: shards.max(1),
            policy,
            rr: 0,
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The routing policy.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// Pick the shard for the next publish. `key` is consulted only
    /// under [`RoutePolicy::KeyHash`]; `None` (or round-robin policy)
    /// cycles deterministically.
    pub fn route(&mut self, key: Option<&[u8]>) -> u16 {
        if self.policy == RoutePolicy::KeyHash {
            if let Some(k) = key {
                return (fnv1a(k) % u64::from(self.shards)) as u16;
            }
        }
        let s = (self.rr % u64::from(self.shards)) as u16;
        self.rr += 1;
        s
    }

    /// Undo the round-robin advance of the last keyless [`ShardRouter::route`]
    /// call — used when the routed publish failed (backpressure), so the
    /// failed attempt does not perturb the assignment of later publishes.
    pub fn rollback_last(&mut self) {
        self.rr = self.rr.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let mut r = ShardRouter::new(3, RoutePolicy::RoundRobin);
        let got: Vec<u16> = (0..7).map(|_| r.route(None)).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn key_hash_is_sticky_and_keyless_falls_back() {
        let mut r = ShardRouter::new(4, RoutePolicy::KeyHash);
        let a1 = r.route(Some(b"alpha"));
        let a2 = r.route(Some(b"alpha"));
        assert_eq!(a1, a2);
        // Keyless publishes interleaved with keyed ones keep cycling.
        let k1 = r.route(None);
        let _ = r.route(Some(b"alpha"));
        let k2 = r.route(None);
        assert_eq!((k1 + 1) % 4, k2 % 4);
    }

    #[test]
    fn rollback_repeats_the_shard() {
        let mut r = ShardRouter::new(2, RoutePolicy::RoundRobin);
        assert_eq!(r.route(None), 0);
        let s = r.route(None);
        r.rollback_last();
        assert_eq!(r.route(None), s);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let mut r = ShardRouter::new(0, RoutePolicy::RoundRobin);
        assert_eq!(r.shards(), 1);
        assert_eq!(r.route(None), 0);
    }
}
