//! The telemetry-native view of the Fig. 5 experiment: the hub's
//! stability-latency histograms agree with the returned series.

use stabilizer_analyze::paper::TABLE3;
use stabilizer_filebackup::{fig5_run_with_telemetry, summarize};
use stabilizer_telemetry::Telemetry;

#[test]
fn fig5_with_telemetry_fills_per_key_histograms() {
    let hub = Telemetry::new_sim();
    let r = fig5_run_with_telemetry(0.01, 7, &hub);
    assert!(r.messages > 0);
    for (key, series) in &r.series {
        let covered = summarize(series, usize::MAX).covered;
        let hist = hub
            .stability_latency(key)
            .unwrap_or_else(|| panic!("{key} histogram exists"));
        assert_eq!(
            hist.count, covered,
            "{key}: histogram samples match covered messages"
        );
    }
    assert_eq!(r.series.len(), TABLE3.len());

    // The primary's publish counter saw every chunk.
    let snap = hub.registry().snapshot();
    let publishes = snap
        .counters
        .get(&("stab_publishes_total".to_owned(), "node=\"0\"".to_owned()))
        .copied()
        .unwrap_or(0);
    assert_eq!(publishes, r.messages);
}
