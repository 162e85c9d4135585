//! The control-plane timers under the backup service. `BackupNode`
//! embeds the core `SimNode` driver, so whatever the config turns on —
//! ACK coalescing, heartbeats, failure detection, go-back-N, transfer
//! supervision — is armed under it like under a bare node, and its own
//! trace-record timers (tags from `TimerKind::APP_TAG_BASE` up) never
//! collide with the driver's.

use stabilizer_core::{NodeId, Options};
use stabilizer_filebackup::{
    build_backup, ec2_backup_cfg, DropboxTrace, CHUNK_BYTES, TRACE_SECONDS,
};
use stabilizer_netsim::{NetTopology, SimDuration};

#[test]
fn coalesced_acks_are_flushed_under_the_backup_service() {
    let base = ec2_backup_cfg();
    let opts = base.options().clone().ack_flush_micros(500);
    let mut sim = build_backup(&base.with_options(opts), NetTopology::ec2_fig2(), 1).unwrap();
    let span = sim.with_ctx(0, |n, ctx| n.store_file(ctx, 20_000)).unwrap();
    assert_eq!((span.first_seq, span.last_seq), (1, 3));
    // The flush timer re-arms forever: run a bounded slice.
    sim.run_for(SimDuration::from_secs(5));
    let primary = sim.actor(0);
    let frontier = primary
        .stabilizer()
        .stability_frontier(NodeId(0), "AllWNodes");
    assert_eq!(frontier, Some((3, 0)));
    assert!(primary.file_sync_times("AllWNodes")[0].is_some());
}

#[test]
fn a_scheduled_trace_is_stored_exactly_once_with_every_timer_on() {
    let base = ec2_backup_cfg();
    // Coarse periods: the trace spans 983 virtual seconds.
    let opts = Options {
        heartbeat_millis: 250,
        ..base.options().clone()
    }
    .ack_flush_micros(20_000)
    .failure_timeout_millis(2_000)
    .retransmit_millis(500)
    .transfer_millis(500);
    let mut sim = build_backup(&base.with_options(opts), NetTopology::ec2_fig2(), 3).unwrap();
    let trace = DropboxTrace::generate(3, 0.002);
    assert!(
        trace.len() > 5,
        "more records than the driver has timer kinds"
    );
    sim.with_ctx(0, |n, ctx| n.schedule_trace(ctx, &trace));
    sim.run_for(SimDuration::from_secs(TRACE_SECONDS + 60));

    let primary = sim.actor(0);
    let stored: Vec<u64> = primary.files.iter().map(|f| f.size).collect();
    let scheduled: Vec<u64> = trace.records().iter().map(|r| r.size).collect();
    assert_eq!(stored, scheduled, "every record once, in trace order");
    let chunks: u64 = scheduled
        .iter()
        .map(|s| s.div_ceil(CHUNK_BYTES).max(1))
        .sum();
    assert_eq!(primary.send_times.len() as u64, chunks);
    assert!(
        primary
            .file_sync_times("AllWNodes")
            .iter()
            .all(Option::is_some),
        "a file was never covered under AllWNodes"
    );
    assert!(
        primary.driver().suspicion_log.is_empty(),
        "nobody was silent"
    );
}
