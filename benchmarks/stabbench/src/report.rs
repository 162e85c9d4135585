//! The benchmark's fixed vocabulary — every metric name and unit, as
//! `BENCHMARK.json` lists them — and the report a run fills in.

use crate::json::{self, JsonValue};
use std::sync::OnceLock;
use std::time::Instant;

/// What a user of the system sees. Reported by every workload with
/// `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("stable_msgs_per_s", "1/s"),
    ("wire_bytes_per_payload_byte", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Single layers, layer = module name. Reported by every workload with
/// `--trace 1`; a metric whose layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Not layers, but the latency a user sees, which cannot carry a
    // bound: on TCP a lone operation takes ~0.2 ms, 100 ms or 200 ms
    // while finding 1 stands, and its fast mode moves with where the
    // scheduler puts the threads (see the README).
    ("stable_p50_us", "us"),
    ("stable_p90_us", "us"),
    ("deliver_p50_us", "us"),
    ("stage.publish_call_ns", "ns"),
    ("stage.publish_to_delivered_ns", "ns"),
    ("stage.delivered_to_covered_ns", "ns"),
    ("stage.covered_to_woken_ns", "ns"),
    ("core.node.ctrl_msgs_per_msg", "count"),
    ("core.node.acks_sent_per_msg", "count"),
    ("core.recorder.acks_received_per_msg", "count"),
    ("core.recorder.stale_ack_ratio", "ratio"),
    ("core.frontier.evals_per_msg", "count"),
    ("core.frontier.updates_per_eval", "ratio"),
    ("core.node.retransmits_per_msg", "count"),
    ("transport.runtime.frames_out_per_msg", "count"),
    ("transport.runtime.wire_bytes_per_payload_byte", "ratio"),
    ("transport.runtime.threads", "count"),
    ("transport.runtime.cpu_s_per_kmsg", "s"),
    ("transport.runtime.ctx_switches_per_msg", "count"),
    ("alloc.count_per_msg", "count"),
    ("alloc.bytes_per_msg", "B"),
    ("netsim.sim.events_per_msg", "count"),
    ("netsim.sim.event_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("dsl.compile_us", "us"),
    ("dsl.vm.eval_ns", "ns"),
    ("core.recorder.observe_ns", "ns"),
    ("core.frontier.on_ack_advance_ns", "ns"),
    ("core.data_plane.send_buffer_cycle_ns", "ns"),
    ("core.data_plane.receive_in_order_ns", "ns"),
    ("core.messages.encode_ns", "ns"),
    ("core.messages.decode_ns", "ns"),
    ("core.node.publish_ack_cycle_ns", "ns"),
    ("transport.framing.write_frame_ns", "ns"),
    ("transport.framing.read_frame_ns", "ns"),
    ("shard.router.route_ns", "ns"),
    ("shard.codec.roundtrip_ns", "ns"),
    ("shard.frontier.on_update_ns", "ns"),
    ("telemetry.histogram.record_ns", "ns"),
];

/// The four workloads, in the order `run.sh` runs them.
pub const WORKLOADS: &[&str] = &["tcp3-small", "tcp3-large", "tcp3-shard4", "sim8-ctrl"];

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call (made at process start), the one
/// wall clock every thread of a run stamps with.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (publishes, each with its `waitfor`).
    pub attempted: u64,
    /// Operations failed plus integrity violations.
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
    /// Lines for the human reader: sample counts, the conditions the
    /// numbers hold under, findings.
    pub notes: Vec<String>,
    /// Things seen that are worth a line but fail nothing, counted over
    /// the run's phases.
    pub tallies: Vec<(&'static str, u64)>,
}

impl Report {
    /// Set metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table lists, or one set twice: the
    /// vocabulary is fixed.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's vocabulary"));
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.values.push((known.0, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Add a line for the human reader.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count `n` more occurrences of the finding `what`.
    pub fn tally(&mut self, what: &'static str, n: u64) {
        match self.tallies.iter_mut().find(|(w, _)| *w == what) {
            Some((_, total)) => *total += n,
            None => self.tallies.push((what, n)),
        }
    }

    /// Count `n` failures and say why.
    pub fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.failed += n;
            self.note(format!("FAILED x{n}: {why}"));
        }
    }

    /// The run's result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics` — every per-layer metric for a traced run, every
    /// end-to-end metric otherwise, in table order.
    ///
    /// A per-layer metric left unset reads 0: its layer did no work on
    /// this workload. So does an end-to-end metric of a run that failed
    /// before measuring it.
    ///
    /// # Panics
    ///
    /// Panics if a run without failures left an end-to-end metric unset.
    pub fn result(&self, per_layer: bool) -> JsonValue {
        let table = if per_layer { PER_LAYER } else { END_TO_END };
        let metrics = table
            .iter()
            .map(|(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if per_layer || self.failed > 0 => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                let cell = json::obj(vec![
                    ("value", JsonValue::Num(value)),
                    ("unit", json::s(unit)),
                ]);
                ((*name).to_owned(), cell)
            })
            .collect();
        json::obj(vec![
            ("correct", JsonValue::Bool(self.failed == 0)),
            ("attempted", JsonValue::Num(self.attempted as f64)),
            ("failed", JsonValue::Num(self.failed as f64)),
            ("metrics", JsonValue::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_has_exactly_the_contract_keys_and_the_table_metrics() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let v = r.result(false);
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics[0].1.get("unit").and_then(JsonValue::as_str),
            Some("s")
        );
        // Per-layer metrics a workload does not exercise read 0.
        let layers = r.result(true);
        assert_eq!(
            layers.get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.fail(0, "nothing");
        assert!(r.notes.is_empty());
        r.tally("odd", 2);
        r.tally("odd", 3);
        assert_eq!(r.tallies, [("odd", 5)]);
        r.fail(2, "gap");
        assert_eq!(r.failed, 2);
        assert_eq!(
            r.result(true).get("correct").unwrap().as_bool(),
            Some(false)
        );
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's vocabulary")]
    fn unknown_names_are_refused() {
        Report::default().set("made_up", 1.0);
    }

    #[test]
    fn benchmark_json_lists_the_same_names_units_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = json::parse_json(&text).expect("BENCHMARK.json parses");
        let listed = |section: &str, key: &str| -> Vec<String> {
            v.get(section)
                .and_then(JsonValue::as_arr)
                .expect("section present")
                .iter()
                .map(|m| {
                    m.get(key)
                        .and_then(JsonValue::as_str)
                        .expect("key")
                        .to_owned()
                })
                .collect()
        };
        let names = |t: &[(&str, &str)]| t.iter().map(|(n, _)| (*n).to_owned()).collect::<Vec<_>>();
        let units = |t: &[(&str, &str)]| t.iter().map(|(_, u)| (*u).to_owned()).collect::<Vec<_>>();
        assert_eq!(listed("end_to_end", "name"), names(END_TO_END));
        assert_eq!(listed("end_to_end", "unit"), units(END_TO_END));
        assert_eq!(listed("per_layer", "name"), names(PER_LAYER));
        assert_eq!(listed("per_layer", "unit"), units(PER_LAYER));
        assert_eq!(listed("workloads", "name"), WORKLOADS);
        assert_eq!(
            v.get("run_seconds").and_then(JsonValue::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
