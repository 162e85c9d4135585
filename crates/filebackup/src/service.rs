//! The Dropbox-like file backup service (§V-A / §VI-B).
//!
//! Files are split into 8 KiB chunks, each published as one Stabilizer
//! message; a file is *synchronized under predicate P* once P's frontier
//! covers its last chunk. The service registers the six Table III
//! predicates so one trace-driven run yields every Fig. 5 series.
//!
//! For the large trace-driven experiment the service publishes chunks
//! directly on its Stabilizer stream (chunk payloads are shared buffers;
//! their content is irrelevant to synchronization behaviour). The
//! K/V-layered variant — files stored under `"file/<id>/<chunk>"` keys in
//! the geo K/V store, exactly as §V-A describes — is exercised at small
//! scale in `tests/backup_kv.rs`.

use crate::trace::{DropboxTrace, CHUNK_BYTES};
use bytes::Bytes;
use stabilizer_analyze::paper::{FIG2_AZS, TABLE3};
use stabilizer_core::sim_driver::{build_actors, SimNode};
use stabilizer_core::{
    ClusterConfig, CoreError, NodeId, SeqNo, StabilizerNode, TimerKind, WireMsg,
};
use stabilizer_dsl::AckTypeRegistry;
use stabilizer_netsim::{Actor, Ctx, NetTopology, SimDuration, SimTime, Simulation, TimerId};
use stabilizer_telemetry::{MetricsObserver, Telemetry};
use std::sync::Arc;

/// The Fig. 2 / Table I deployment configuration, with the Table III
/// predicates installed.
pub fn ec2_backup_cfg() -> ClusterConfig {
    let mut text = String::new();
    for (az, nodes) in FIG2_AZS {
        text.push_str(&format!("az {az} {}\n", nodes.join(" ")));
    }
    text.push_str("option send_buffer_bytes 8589934592\n");
    for (key, src) in TABLE3 {
        text.push_str(&format!("predicate {key} {src}\n"));
    }
    ClusterConfig::parse(&text).expect("static config parses")
}

/// A stored file's chunk span in the primary's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSpan {
    /// First chunk's sequence number.
    pub first_seq: SeqNo,
    /// Last chunk's sequence number.
    pub last_seq: SeqNo,
    /// When the sync request was submitted.
    pub submitted_at: SimTime,
    /// File size in bytes.
    pub size: u64,
}

/// One node of the backup deployment: the core [`SimNode`] driver, with
/// an optional telemetry observer as its hooks, plus the primary's
/// bookkeeping. Node `n1` (index 0) is the primary that receives all
/// user sync requests (§VI-B: "all user write requests will be sent to
/// server No. 1").
pub struct BackupNode {
    sim: SimNode<Option<MetricsObserver>>,
    /// Send time per own-stream sequence number (1-based index `seq-1`).
    pub send_times: Vec<SimTime>,
    /// Files stored at this node, in submission order.
    pub files: Vec<FileSpan>,
    /// Trace records scheduled for publication; record `i` fires under
    /// timer tag [`TimerKind::APP_TAG_BASE`]` + i`.
    pending_trace: Vec<crate::trace::TraceRecord>,
    full_chunk: Bytes,
    telemetry: Option<Arc<Telemetry>>,
}

impl BackupNode {
    /// Build node `me`.
    ///
    /// # Errors
    ///
    /// Propagates predicate-compile failures.
    pub fn new(
        cfg: ClusterConfig,
        me: NodeId,
        acks: Arc<AckTypeRegistry>,
    ) -> Result<Self, CoreError> {
        Ok(BackupNode {
            sim: SimNode::new(StabilizerNode::new(cfg, me, acks)?, None).without_delivery_log(),
            send_times: Vec::new(),
            files: Vec::new(),
            pending_trace: Vec::new(),
            full_chunk: Bytes::from(vec![0u8; CHUNK_BYTES as usize]),
            telemetry: None,
        })
    }

    /// Attach a telemetry hub: each published chunk is stamped for
    /// stability latency, and frontier advances feed the hub's per-key
    /// `stab_stability_latency_ns` histograms (a telemetry-native view
    /// of the Fig. 5 series).
    #[must_use]
    pub fn with_telemetry(mut self, hub: &Arc<Telemetry>) -> Self {
        self.sim.hooks = Some(hub.observer(self.stabilizer().me()));
        self.telemetry = Some(Arc::clone(hub));
        self
    }

    /// Store a file of `size` bytes: split into 8 KiB chunks and publish
    /// each as one message. Returns the file's span.
    ///
    /// # Errors
    ///
    /// Backpressure if the send buffer cannot hold the file.
    pub fn store_file(
        &mut self,
        ctx: &mut Ctx<'_, WireMsg>,
        size: u64,
    ) -> Result<FileSpan, CoreError> {
        let chunks = size.div_ceil(CHUNK_BYTES).max(1);
        let me = self.stabilizer().me();
        let mut first = 0;
        let mut last = 0;
        for i in 0..chunks {
            let payload = if i + 1 == chunks && !size.is_multiple_of(CHUNK_BYTES) {
                // Final partial chunk: exact size for faithful bandwidth
                // accounting.
                self.full_chunk.slice(0..(size % CHUNK_BYTES) as usize)
            } else {
                self.full_chunk.clone()
            };
            let payload_len = payload.len();
            let seq = self.sim.publish_in(ctx, payload)?;
            if let Some(t) = &self.telemetry {
                t.note_publish(ctx.now().as_nanos(), me, seq, payload_len);
            }
            self.send_times.push(ctx.now());
            if i == 0 {
                first = seq;
            }
            last = seq;
        }
        let span = FileSpan {
            first_seq: first,
            last_seq: last,
            submitted_at: ctx.now(),
            size,
        };
        self.files.push(span);
        Ok(span)
    }

    /// Schedule an entire trace for publication at its offsets (call once
    /// on the primary before running the simulation).
    pub fn schedule_trace(&mut self, ctx: &mut Ctx<'_, WireMsg>, trace: &DropboxTrace) {
        for rec in trace.records() {
            let tag = TimerKind::APP_TAG_BASE + self.pending_trace.len() as u64;
            self.pending_trace.push(*rec);
            ctx.set_timer(rec.offset, tag);
        }
    }

    /// The embedded Stabilizer node.
    pub fn stabilizer(&self) -> &StabilizerNode {
        self.sim.inner()
    }

    /// The embedded simulator driver, read-only: its `EventLog` by
    /// deref, and the view the chaos checker takes of a bare cluster.
    pub fn driver(&self) -> &SimNode<Option<MetricsObserver>> {
        &self.sim
    }

    /// Per-message stability-frontier latency series for `key` (Fig. 5):
    /// `latency[seq-1] = cover_time - send_time`.
    pub fn frontier_latencies(&self, key: &str) -> Vec<Option<SimDuration>> {
        let cover = self.sim.coverage(self.stabilizer().me(), key);
        self.send_times
            .iter()
            .enumerate()
            .map(|(i, sent)| cover.get(i).map(|c| c.since(*sent)))
            .collect()
    }

    /// Per-file synchronization time under `key` (Fig. 6): cover time of
    /// the file's last chunk minus its submission time.
    pub fn file_sync_times(&self, key: &str) -> Vec<Option<SimDuration>> {
        let cover = self.sim.coverage(self.stabilizer().me(), key);
        self.files
            .iter()
            .map(|f| {
                cover
                    .get(f.last_seq as usize - 1)
                    .map(|c| c.since(f.submitted_at))
            })
            .collect()
    }
}

impl Actor for BackupNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.sim.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, WireMsg>, from: usize, msg: WireMsg) {
        self.sim.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, WireMsg>, timer: TimerId, tag: u64) {
        let Some(record) = tag.checked_sub(TimerKind::APP_TAG_BASE) else {
            return self.sim.on_timer(ctx, timer, tag);
        };
        // Sync request arrives: store the file. The 8 GiB buffer is
        // sized so the trace never blocks; a failure here would be an
        // experiment-setup bug.
        let size = self.pending_trace[record as usize].size;
        self.store_file(ctx, size)
            .expect("send buffer sized for the trace");
    }
}

/// Build the Fig. 2 backup deployment over `net`.
///
/// # Errors
///
/// Propagates configuration and predicate-compile errors.
///
/// # Panics
///
/// Panics if sizes mismatch.
pub fn build_backup(
    cfg: &ClusterConfig,
    net: NetTopology,
    seed: u64,
) -> Result<Simulation<BackupNode>, CoreError> {
    build_backup_with_telemetry(cfg, net, seed, None)
}

/// [`build_backup`] with every node reporting into a shared telemetry
/// hub.
///
/// # Errors
///
/// Propagates configuration and predicate-compile errors.
///
/// # Panics
///
/// Panics if sizes mismatch.
pub fn build_backup_with_telemetry(
    cfg: &ClusterConfig,
    net: NetTopology,
    seed: u64,
    telemetry: Option<Arc<Telemetry>>,
) -> Result<Simulation<BackupNode>, CoreError> {
    build_actors(cfg, net, seed, |me, acks| {
        let node = BackupNode::new(cfg.clone(), me, acks)?;
        Ok(match &telemetry {
            Some(hub) => node.with_telemetry(hub),
            None => node,
        })
    })
}
