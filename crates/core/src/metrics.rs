//! Traffic counters of one node, split by plane.

/// Traffic counters, split by plane (the §III-A separation is observable
/// in the numbers: control messages stay small and coalescible while the
/// data plane moves the volume).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Data messages sent (to all peers combined).
    pub data_msgs_sent: u64,
    /// Data payload bytes sent.
    pub data_bytes_sent: u64,
    /// Control (ACK batch + heartbeat) messages sent.
    pub control_msgs_sent: u64,
    /// Individual ACK cells carried in those batches.
    pub acks_sent: u64,
    /// Data messages delivered to the application.
    pub deliveries: u64,
    /// Recorder cells a peer's word advanced: ACK cells received and
    /// merged, and the origin's own cells implied by its `Data` frames.
    pub acks_received: u64,
    /// Stale/duplicate cells that arrived in an `AckBatch` and were
    /// ignored by the max-merge (a retransmitted `Data` frame is not one).
    pub acks_stale: u64,
    /// Cells about this node's own stream that claim more than it ever
    /// assigned, refused once it is not fenced (a peer's forgery).
    pub acks_rejected: u64,
    /// Data messages retransmitted by the reliability mechanism.
    pub retransmits: u64,
    /// VM runs by the frontier engine: registration, change, and one per
    /// frontier an ACK advance crossed (not the dependants it visited).
    pub predicate_evals: u64,
    /// Frontier-advance actions emitted.
    pub frontier_updates: u64,
    /// Catch-up requests served as a donor (§III-E state transfer).
    pub transfer_requests: u64,
    /// Catch-up chunks replayed to requesters.
    pub transfer_chunks_sent: u64,
    /// Payload bytes replayed to requesters.
    pub transfer_bytes_sent: u64,
    /// Catch-up chunks received from donors.
    pub transfer_chunks_received: u64,
    /// Streams fast-forwarded out of band (snapshot jumps over an
    /// evicted prefix).
    pub transfer_fast_forwards: u64,
}

impl std::ops::AddAssign for Metrics {
    fn add_assign(&mut self, rhs: Metrics) {
        // Exhaustive destructuring: a new counter does not compile until
        // it is summed here.
        let Metrics {
            data_msgs_sent,
            data_bytes_sent,
            control_msgs_sent,
            acks_sent,
            deliveries,
            acks_received,
            acks_stale,
            acks_rejected,
            retransmits,
            predicate_evals,
            frontier_updates,
            transfer_requests,
            transfer_chunks_sent,
            transfer_bytes_sent,
            transfer_chunks_received,
            transfer_fast_forwards,
        } = rhs;
        self.data_msgs_sent += data_msgs_sent;
        self.data_bytes_sent += data_bytes_sent;
        self.control_msgs_sent += control_msgs_sent;
        self.acks_sent += acks_sent;
        self.deliveries += deliveries;
        self.acks_received += acks_received;
        self.acks_stale += acks_stale;
        self.acks_rejected += acks_rejected;
        self.retransmits += retransmits;
        self.predicate_evals += predicate_evals;
        self.frontier_updates += frontier_updates;
        self.transfer_requests += transfer_requests;
        self.transfer_chunks_sent += transfer_chunks_sent;
        self.transfer_bytes_sent += transfer_bytes_sent;
        self.transfer_chunks_received += transfer_chunks_received;
        self.transfer_fast_forwards += transfer_fast_forwards;
    }
}

impl std::iter::Sum for Metrics {
    fn sum<I: Iterator<Item = Metrics>>(iter: I) -> Metrics {
        iter.fold(Metrics::default(), |mut total, m| {
            total += m;
            total
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_sum_is_field_wise() {
        let distinct = |base: u64| Metrics {
            data_msgs_sent: base + 1,
            data_bytes_sent: base + 2,
            control_msgs_sent: base + 3,
            acks_sent: base + 4,
            deliveries: base + 5,
            acks_received: base + 6,
            acks_stale: base + 7,
            acks_rejected: base + 16,
            retransmits: base + 8,
            predicate_evals: base + 9,
            frontier_updates: base + 10,
            transfer_requests: base + 11,
            transfer_chunks_sent: base + 12,
            transfer_bytes_sent: base + 13,
            transfer_chunks_received: base + 14,
            transfer_fast_forwards: base + 15,
        };
        let (a, b) = (distinct(100), distinct(2000));
        let expected = Metrics {
            data_msgs_sent: 2102,
            data_bytes_sent: 2104,
            control_msgs_sent: 2106,
            acks_sent: 2108,
            deliveries: 2110,
            acks_received: 2112,
            acks_stale: 2114,
            acks_rejected: 2132,
            retransmits: 2116,
            predicate_evals: 2118,
            frontier_updates: 2120,
            transfer_requests: 2122,
            transfer_chunks_sent: 2124,
            transfer_bytes_sent: 2126,
            transfer_chunks_received: 2128,
            transfer_fast_forwards: 2130,
        };
        let mut total = a;
        total += b;
        assert_eq!(total, expected);
        assert_eq!([a, b].into_iter().sum::<Metrics>(), expected);
        assert_eq!(
            std::iter::empty::<Metrics>().sum::<Metrics>(),
            Metrics::default()
        );
    }
}
