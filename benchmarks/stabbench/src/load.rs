//! Inputs and their checks: seeded payloads stamped with who published
//! them, the per-mirror delivery checker that verifies the stamps, and
//! the publisher's window of outstanding operations.

use bytes::Bytes;
use std::collections::VecDeque;

/// Bytes of stamp at the head of every payload:
/// `origin u16 | publisher u16 | counter u64 | check u64`.
pub const STAMP_LEN: usize = 20;

/// 64-bit mix (splitmix64 finaliser) — the seed's only use is to make
/// inputs, and this is how it makes them.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn check_word(seed: u64, origin: u16, publisher: u16, counter: u64) -> u64 {
    mix(seed ^ mix(u64::from(origin) << 16 | u64::from(publisher)) ^ mix(counter))
}

/// Makes the payloads of one publisher: a seed-derived body of the
/// workload's size with a fresh stamp per message. The check word is
/// repeated in the last eight bytes so truncation shows.
pub struct PayloadGen {
    seed: u64,
    origin: u16,
    publisher: u16,
    counter: u64,
    body: Vec<u8>,
}

impl PayloadGen {
    /// Generator for `publisher` (a load thread) on node `origin`.
    ///
    /// # Panics
    ///
    /// Panics if `size` cannot hold the stamp and its trailing copy.
    pub fn new(seed: u64, origin: u16, publisher: u16, size: usize) -> Self {
        assert!(size >= STAMP_LEN + 8, "payload too small for its stamp");
        let mut body = Vec::with_capacity(size);
        let mut word = mix(seed ^ 0x5eed);
        while body.len() < size {
            word = mix(word);
            body.extend_from_slice(&word.to_le_bytes());
        }
        body.truncate(size);
        PayloadGen {
            seed,
            origin,
            publisher,
            counter: 0,
            body,
        }
    }

    /// The next payload of this publisher.
    pub fn next_payload(&mut self) -> Bytes {
        self.counter += 1;
        let check = check_word(self.seed, self.origin, self.publisher, self.counter);
        // Stamp the body in place and copy it out once.
        let buf = &mut self.body;
        buf[0..2].copy_from_slice(&self.origin.to_le_bytes());
        buf[2..4].copy_from_slice(&self.publisher.to_le_bytes());
        buf[4..12].copy_from_slice(&self.counter.to_le_bytes());
        buf[12..20].copy_from_slice(&check.to_le_bytes());
        let n = buf.len();
        buf[n - 8..].copy_from_slice(&check.to_le_bytes());
        Bytes::copy_from_slice(buf)
    }
}

/// What one mirror checks about one origin's stream as it is delivered:
/// sequence numbers gapless and in order, every stamp intact and from
/// that origin, and each publisher's own counter gapless and in order.
pub struct DeliveryCheck {
    seed: u64,
    size: usize,
    last_seq: u64,
    last_counter: Vec<u64>,
}

impl DeliveryCheck {
    /// Checker for payloads of `size` bytes made under `seed`.
    pub fn new(seed: u64, size: usize) -> Self {
        DeliveryCheck {
            seed,
            size,
            last_seq: 0,
            last_counter: Vec::new(),
        }
    }

    /// Check one delivery; `false` on any violation.
    pub fn on_deliver(&mut self, origin: u16, seq: u64, payload: &[u8]) -> bool {
        let in_order = seq == self.last_seq + 1;
        self.last_seq = seq;
        if payload.len() != self.size {
            return false;
        }
        let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| u16::from_le_bytes(payload[at..at + 2].try_into().expect("2 bytes"));
        let (from, publisher, counter, check) = (half(0), half(2), word(4), word(12));
        let slot = publisher as usize;
        if self.last_counter.len() <= slot {
            self.last_counter.resize(slot + 1, 0);
        }
        let counter_in_order = counter == self.last_counter[slot] + 1;
        self.last_counter[slot] = counter;
        in_order
            && counter_in_order
            && from == origin
            && check == check_word(self.seed, origin, publisher, counter)
            && word(self.size - 8) == check
    }
}

/// A closed-loop publisher's outstanding operations: it may run `limit`
/// publishes ahead of the oldest one not yet known stable.
pub struct Window {
    limit: usize,
    outstanding: VecDeque<u64>,
}

impl Window {
    /// Window of `limit` outstanding operations (at least 1).
    pub fn new(limit: usize) -> Self {
        Window {
            limit: limit.max(1),
            outstanding: VecDeque::with_capacity(limit + 1),
        }
    }

    /// Note a publish; returns the sequence number to wait for before
    /// the next publish, once the window is full.
    pub fn published(&mut self, seq: u64) -> Option<u64> {
        self.outstanding.push_back(seq);
        if self.outstanding.len() >= self.limit {
            self.outstanding.pop_front()
        } else {
            None
        }
    }

    /// End of the phase: the last sequence number still outstanding.
    /// A stability frontier is a prefix, so waiting for it covers the
    /// rest of the window.
    pub fn drain(&mut self) -> Option<u64> {
        let last = self.outstanding.back().copied();
        self.outstanding.clear();
        last
    }

    /// Operations published and not yet waited for.
    pub fn len(&self) -> usize {
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_verify_and_violations_show() {
        let mut a = PayloadGen::new(7, 0, 0, 64);
        let mut b = PayloadGen::new(7, 0, 1, 64);
        let mut ok = DeliveryCheck::new(7, 64);
        // Two publishers interleave on one stream.
        assert!(ok.on_deliver(0, 1, &a.next_payload()));
        assert!(ok.on_deliver(0, 2, &b.next_payload()));
        assert!(ok.on_deliver(0, 3, &b.next_payload()));
        assert!(ok.on_deliver(0, 4, &a.next_payload()));

        let p = a.next_payload();
        assert!(
            !DeliveryCheck::new(7, 64).on_deliver(0, 2, &p),
            "gap in seq"
        );
        assert!(
            !DeliveryCheck::new(7, 64).on_deliver(0, 1, &p),
            "gap in counter"
        );
        let first = PayloadGen::new(7, 0, 0, 64).next_payload();
        assert!(DeliveryCheck::new(7, 64).on_deliver(0, 1, &first));
        assert!(
            !DeliveryCheck::new(8, 64).on_deliver(0, 1, &first),
            "other seed"
        );
        assert!(
            !DeliveryCheck::new(7, 64).on_deliver(1, 1, &first),
            "other origin"
        );
        assert!(
            !DeliveryCheck::new(7, 64).on_deliver(0, 1, &first[..63]),
            "truncated"
        );
        let mut bent = first.to_vec();
        bent[63] ^= 1;
        assert!(
            !DeliveryCheck::new(7, 64).on_deliver(0, 1, &bent),
            "tail bent"
        );
    }

    #[test]
    fn same_seed_same_payloads_other_seed_other_payloads() {
        let p = |seed| PayloadGen::new(seed, 2, 1, 8192).next_payload();
        assert_eq!(p(1), p(1));
        assert_ne!(p(1), p(2));
        assert_eq!(p(1).len(), 8192);
    }

    #[test]
    fn two_publishers_keep_their_windows_on_an_interleaved_stream() {
        // Sequence numbers interleave between publishers; each waits
        // only on its own, never runs more than `limit` ahead, and the
        // drains together cover everything published.
        let mut w = [Window::new(4), Window::new(4)];
        let mut waited = [Vec::new(), Vec::new()];
        let mut seq = 0;
        for step in 0..50 {
            let who = usize::from(step % 3 == 0);
            seq += 1;
            if let Some(wait) = w[who].published(seq) {
                waited[who].push(wait);
            }
            assert!(
                w[who].len() < 4,
                "never more than limit-1 left after the wait"
            );
        }
        let total: usize = waited.iter().map(Vec::len).sum::<usize>() + w[0].len() + w[1].len();
        assert_eq!(
            total, 50,
            "every publish is waited for or still in a window"
        );
        for mine in &waited {
            assert!(
                mine.windows(2).all(|p| p[0] < p[1]),
                "waits in publish order"
            );
        }
        let last = w[0].drain().max(w[1].drain());
        assert_eq!(last, Some(50));
        assert_eq!(w[0].len() + w[1].len(), 0);
        assert_eq!(
            Window::new(1).published(9),
            Some(9),
            "window 1 is one-at-a-time"
        );
    }
}
