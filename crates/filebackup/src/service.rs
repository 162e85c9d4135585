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
//! K/V-layered variant — files stored under `file/<id>/<chunk>` keys in
//! the geo K/V store, exactly as §V-A describes — is exercised at small
//! scale in `tests/backup_kv.rs`.

use crate::trace::{DropboxTrace, CHUNK_BYTES};
use bytes::Bytes;
use stabilizer_core::{
    Action, AppHooks, ClusterConfig, CoreError, NodeId, SeqNo, StabilizerNode, WireMsg,
};
use stabilizer_dsl::AckTypeRegistry;
use stabilizer_netsim::{Actor, Ctx, NetTopology, SimTime, Simulation, TimerId};
use stabilizer_telemetry::{MetricsObserver, Telemetry};
use std::sync::Arc;

/// The six predicates of Table III, keyed by their paper names.
pub const TABLE3_PREDICATES: [(&str, &str); 6] = [
    (
        "OneRegion",
        "MAX(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    ),
    (
        "MajorityRegions",
        "KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    ),
    (
        "AllRegions",
        "MIN(MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))",
    ),
    ("OneWNode", "MAX($ALLWNODES-$MYWNODE)"),
    (
        "MajorityWNodes",
        "KTH_MAX(SIZEOF($ALLWNODES)/2+1, $ALLWNODES-$MYWNODE)",
    ),
    ("AllWNodes", "MIN($ALLWNODES-$MYWNODE)"),
];

/// The Fig. 2 / Table I deployment configuration.
pub fn ec2_backup_cfg() -> ClusterConfig {
    let mut text = String::from(
        "az North_California n1 n2\n\
         az North_Virginia n3 n4 n5 n6\n\
         az Oregon n7\n\
         az Ohio n8\n\
         option send_buffer_bytes 8589934592\n",
    );
    for (key, src) in TABLE3_PREDICATES {
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

/// One node of the backup deployment. Node `n1` (index 0) is the primary
/// that receives all user sync requests (§VI-B: "all user write requests
/// will be sent to server No. 1").
pub struct BackupNode {
    node: StabilizerNode,
    /// Send time per own-stream sequence number (1-based index `seq-1`).
    pub send_times: Vec<SimTime>,
    /// Frontier log: `(time, predicate key, frontier)`.
    pub frontier_log: Vec<(SimTime, String, SeqNo)>,
    /// Files stored at this node, in submission order.
    pub files: Vec<FileSpan>,
    /// Trace records scheduled for publication, keyed by timer tag.
    pending_trace: Vec<crate::trace::TraceRecord>,
    full_chunk: Bytes,
    telemetry: Option<Arc<Telemetry>>,
    observer: Option<MetricsObserver>,
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
            node: StabilizerNode::new(cfg, me, acks)?,
            send_times: Vec::new(),
            frontier_log: Vec::new(),
            files: Vec::new(),
            pending_trace: Vec::new(),
            full_chunk: Bytes::from(vec![0u8; CHUNK_BYTES as usize]),
            telemetry: None,
            observer: None,
        })
    }

    /// Attach a telemetry hub: each published chunk is stamped for
    /// stability latency, and frontier advances feed the hub's per-key
    /// `stab_stability_latency_ns` histograms (a telemetry-native view
    /// of the Fig. 5 series).
    #[must_use]
    pub fn with_telemetry(mut self, hub: &Arc<Telemetry>) -> Self {
        self.observer = Some(hub.observer(self.node.me()));
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
            let seq = self.node.publish(payload)?;
            if let Some(t) = &self.telemetry {
                t.note_publish(ctx.now().as_nanos(), self.node.me(), seq, payload_len);
            }
            self.send_times.push(ctx.now());
            if i == 0 {
                first = seq;
            }
            last = seq;
        }
        self.drain(ctx);
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
            let tag = self.pending_trace.len() as u64;
            self.pending_trace.push(*rec);
            ctx.set_timer(rec.offset, tag);
        }
    }

    /// The embedded Stabilizer node.
    pub fn stabilizer(&self) -> &StabilizerNode {
        &self.node
    }

    /// For each own-stream sequence number (0-based `seq-1`), the first
    /// time `key`'s frontier covered it.
    pub fn coverage(&self, key: &str) -> Vec<Option<SimTime>> {
        let mut out = vec![None; self.send_times.len()];
        let mut covered = 0usize;
        for (t, k, seq) in &self.frontier_log {
            if k != key {
                continue;
            }
            let upto = (*seq as usize).min(out.len());
            while covered < upto {
                out[covered] = Some(*t);
                covered += 1;
            }
        }
        out
    }

    /// Per-message stability-frontier latency series for `key` (Fig. 5):
    /// `latency[seq-1] = cover_time - send_time`.
    pub fn frontier_latencies(&self, key: &str) -> Vec<Option<stabilizer_netsim::SimDuration>> {
        self.coverage(key)
            .iter()
            .zip(&self.send_times)
            .map(|(cover, sent)| cover.map(|c| c.since(*sent)))
            .collect()
    }

    /// Per-file synchronization time under `key` (Fig. 6): cover time of
    /// the file's last chunk minus its submission time.
    pub fn file_sync_times(&self, key: &str) -> Vec<Option<stabilizer_netsim::SimDuration>> {
        let cover = self.coverage(key);
        self.files
            .iter()
            .map(|f| {
                cover
                    .get(f.last_seq as usize - 1)
                    .copied()
                    .flatten()
                    .map(|c| c.since(f.submitted_at))
            })
            .collect()
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        for action in self.node.take_actions() {
            if let (Some(obs), Some(event)) = (&mut self.observer, action.event()) {
                obs.on_event(ctx.now(), &event);
            }
            match action {
                Action::Send { to, msg } => ctx.send(to.0 as usize, msg),
                Action::Frontier(u) => self.frontier_log.push((ctx.now(), u.key, u.seq)),
                _ => {}
            }
        }
    }
}

impl Actor for BackupNode {
    type Msg = WireMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, WireMsg>, from: usize, msg: WireMsg) {
        self.node
            .on_message(ctx.now().as_nanos(), NodeId(from as u16), msg);
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, WireMsg>, _t: TimerId, tag: u64) {
        if let Some(rec) = self.pending_trace.get(tag as usize).copied() {
            // Sync request arrives: store the file. The 8 GiB buffer is
            // sized so the trace never blocks; a failure here would be an
            // experiment-setup bug.
            self.store_file(ctx, rec.size)
                .expect("send buffer sized for the trace");
        }
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
    assert_eq!(net.len(), cfg.num_nodes());
    let acks = Arc::new(AckTypeRegistry::new());
    let mut nodes = Vec::with_capacity(cfg.num_nodes());
    for i in 0..cfg.num_nodes() {
        let mut node = BackupNode::new(cfg.clone(), NodeId(i as u16), Arc::clone(&acks))?;
        if let Some(hub) = &telemetry {
            node = node.with_telemetry(hub);
        }
        nodes.push(node);
    }
    Ok(Simulation::new(net, nodes, seed))
}
