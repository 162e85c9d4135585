//! Histogram exemplars: a bounded reservoir of the worst-latency
//! samples seen by a histogram, each carrying enough identity (origin,
//! seq, publish/stable stamps, trace-ring cursor) to join the outlier
//! back to the structured trace.
//!
//! The reservoir is deterministic: it keeps the top-`capacity` samples
//! by latency, replacing the current minimum only when a new sample is
//! *strictly* larger, and export order is a pure function of the
//! contents — so a sim seed replay produces byte-identical exemplar
//! JSON.

use crate::json::push_key;
use stabilizer_dsl::{NodeId, SeqNo};

/// One outlier sample: which payload it was, when it was published and
/// when it became stable/delivered, and where in the trace ring the
/// completing event landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Stream the payload originated on.
    pub origin: NodeId,
    /// Its sequence number.
    pub seq: SeqNo,
    /// Publish stamp (virtual or epoch-relative nanoseconds).
    pub publish_nanos: u64,
    /// Stamp of the completing event (delivery or frontier coverage).
    pub stable_nanos: u64,
    /// `stable_nanos - publish_nanos`.
    pub latency_ns: u64,
    /// Absolute trace-ring cursor of the completing event, usable as an
    /// OpenMetrics `trace_id` to find the event in a `/trace` tail.
    pub trace_cursor: u64,
}

impl Exemplar {
    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"origin\":{},\"seq\":{},\"publish_ns\":{},\"stable_ns\":{},\
             \"latency_ns\":{},\"trace_cursor\":{}}}",
            self.origin.0,
            self.seq,
            self.publish_nanos,
            self.stable_nanos,
            self.latency_ns,
            self.trace_cursor
        )
    }
}

/// Default reservoir capacity per histogram.
pub const DEFAULT_EXEMPLAR_CAPACITY: usize = 8;

/// Keeps the `capacity` largest-latency exemplars offered to it.
/// On a tie with the current minimum the incumbent wins, which makes
/// the contents independent of anything but the offered sequence.
#[derive(Debug, Clone)]
pub struct ExemplarReservoir {
    slots: Vec<Exemplar>,
    capacity: usize,
}

impl Default for ExemplarReservoir {
    fn default() -> Self {
        Self::new(DEFAULT_EXEMPLAR_CAPACITY)
    }
}

impl ExemplarReservoir {
    /// A reservoir holding at most `capacity` exemplars.
    pub fn new(capacity: usize) -> Self {
        ExemplarReservoir {
            slots: Vec::with_capacity(capacity.min(64)),
            capacity,
        }
    }

    /// Offer a sample; it is kept iff the reservoir has room or the
    /// sample's latency strictly exceeds the current minimum.
    pub fn offer(&mut self, ex: Exemplar) {
        if self.capacity == 0 {
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(ex);
            return;
        }
        let min = self.slots.iter_mut().min_by_key(|e| e.latency_ns);
        if let Some(min) = min.filter(|min| ex.latency_ns > min.latency_ns) {
            *min = ex;
        }
    }

    /// Number of retained exemplars.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the reservoir is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The retained exemplars in export order: latency descending, ties
    /// broken by (origin, seq) ascending — a pure function of the
    /// contents, never of insertion order.
    pub fn sorted(&self) -> Vec<Exemplar> {
        let mut out = self.slots.clone();
        out.sort_by(|a, b| {
            b.latency_ns
                .cmp(&a.latency_ns)
                .then(a.origin.0.cmp(&b.origin.0))
                .then(a.seq.cmp(&b.seq))
        });
        out
    }

    /// Render the reservoir as a JSON array in export order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, ex) in self.sorted().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ex.to_json());
        }
        out.push(']');
        out
    }
}

/// Render the full exemplar section for the JSON export:
/// `{"deliver":[...],"stability":{"<key>":[...]}}`.
pub(crate) fn render_exemplars_json(
    deliver: &ExemplarReservoir,
    stability: &std::collections::BTreeMap<String, ExemplarReservoir>,
) -> String {
    let mut out = String::from("{\"deliver\":");
    out.push_str(&deliver.to_json());
    out.push_str(",\"stability\":{");
    for (i, (key, res)) in stability.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_key(&mut out, key);
        out.push_str(&res.to_json());
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(seq: SeqNo, lat: u64) -> Exemplar {
        Exemplar {
            origin: NodeId(0),
            seq,
            publish_nanos: 10,
            stable_nanos: 10 + lat,
            latency_ns: lat,
            trace_cursor: seq,
        }
    }

    #[test]
    fn keeps_top_k_by_latency() {
        let mut r = ExemplarReservoir::new(2);
        r.offer(ex(1, 100));
        r.offer(ex(2, 50));
        r.offer(ex(3, 200)); // evicts the 50
        r.offer(ex(4, 10)); // too small, dropped
        let lats: Vec<u64> = r.sorted().iter().map(|e| e.latency_ns).collect();
        assert_eq!(lats, [200, 100]);
    }

    #[test]
    fn tie_keeps_incumbent() {
        let mut r = ExemplarReservoir::new(1);
        r.offer(ex(1, 100));
        r.offer(ex(2, 100)); // equal latency: incumbent wins
        assert_eq!(r.sorted()[0].seq, 1);
    }

    #[test]
    fn json_shape() {
        let mut r = ExemplarReservoir::new(4);
        r.offer(ex(1, 100));
        assert_eq!(
            r.to_json(),
            "[{\"origin\":0,\"seq\":1,\"publish_ns\":10,\"stable_ns\":110,\
             \"latency_ns\":100,\"trace_cursor\":1}]"
        );
        assert_eq!(ExemplarReservoir::new(4).to_json(), "[]");
    }
}
