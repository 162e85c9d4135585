//! # Dropbox-like file backup service (§V-A, §VI-B)
//!
//! The paper's flagship application: a geo-replicated file backup
//! service layered over the Stabilizer-enhanced K/V store, driven by a
//! Dropbox sync trace. This crate provides the synthetic trace generator
//! (Fig. 4 statistics), the backup service with the six Table III
//! predicates, and the Fig. 5 / Fig. 6 experiment harnesses (including
//! the multi-Paxos baseline comparison).

//! ```
//! use stabilizer_filebackup::DropboxTrace;
//!
//! let trace = DropboxTrace::generate(42, 0.05);
//! assert!(trace.total_chunks() > 10_000);
//! assert!(trace.duration().as_secs_f64() < 983.0 + 1.0);
//! ```

pub mod experiments;
pub mod service;
pub mod trace;

pub use experiments::{
    average_improvement, fig5_run, fig5_run_jittered, fig5_run_with_telemetry, fig6_point,
    fig6_sizes, paxos_sync_time, summarize, Fig5Result, Fig5Summary, Fig6Point, FIG6_SERIES,
};
pub use service::{
    build_backup, build_backup_with_telemetry, ec2_backup_cfg, BackupNode, FileSpan,
};
pub use trace::{DropboxTrace, TraceRecord, CHUNK_BYTES, TRACE_SECONDS, TRACE_TOTAL_BYTES};
