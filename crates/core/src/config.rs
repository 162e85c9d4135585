//! Cluster and node configuration.
//!
//! The paper's Stabilizer reads a configuration file listing the data
//! centers of the deployment (with a subset notation designating
//! availability zones) plus initially registered predicates; nodes look
//! up their own name to learn their rank (§III-C). [`ClusterConfig`]
//! models that file and [`ClusterConfig::parse`] reads the same
//! information from a simple line-oriented text format:
//!
//! ```text
//! # comment
//! az North_California n1 n2
//! az North_Virginia n3 n4 n5 n6
//! predicate AllWNodes MIN($ALLWNODES-$MYWNODE)
//! acktype verified n1 n2
//! replicate n1 n1 n2 n3
//! option ack_flush_micros 500
//! option analysis deny
//! ```
//!
//! The `replicate` directive (partial replication) places a stream on a
//! subset of the nodes; streams without one stay fully replicated, so a
//! `replicate`-free config behaves exactly as before the directive
//! existed.

use crate::error::CoreError;
use stabilizer_dsl::{AckTypeRegistry, NodeId, Topology};
use stabilizer_place::{parse_replicate, PlacementMap, ReplicateDirective};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// How many ACK types a registry can number: one per
/// [`AckTypeId`](stabilizer_dsl::AckTypeId), a `u16`.
const ACK_TYPE_IDS: usize = u16::MAX as usize + 1;

/// Refuse `declared` (distinct) ACK types when the ones `registry` does
/// not hold yet would not all get an id there.
pub(crate) fn check_ack_type_room(
    registry: &AckTypeRegistry,
    declared: &[(String, Vec<String>)],
) -> Result<(), CoreError> {
    let fresh = declared
        .iter()
        .filter(|(name, _)| registry.lookup(name).is_none())
        .count();
    let held = registry.len();
    if held + fresh > ACK_TYPE_IDS {
        return Err(CoreError::Config(format!(
            "{fresh} new ACK types do not fit beside the {held} registered: \
             there are {ACK_TYPE_IDS} ACK type ids"
        )));
    }
    Ok(())
}

/// What a node does with static-analysis findings when a predicate is
/// installed (`register_predicate` / `change_predicate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// Skip analysis entirely.
    Off,
    /// Run the analyzer and record its findings (retrievable via
    /// `StabilizerNode::analysis_report`), but install the predicate
    /// regardless.
    #[default]
    Warn,
    /// Reject installation of any predicate with error- or warning-level
    /// findings (info-level findings still install).
    Deny,
}

/// Tunable per-node options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Outgoing-ACK coalescing interval in microseconds. `0` flushes
    /// eagerly: one flush per input batch
    /// ([`StabilizerNode::on_messages`](crate::StabilizerNode::on_messages)
    /// — what had already arrived when the driver looked, so a lone
    /// message is a batch of one and waits for nothing), per publish
    /// and per stability report. Larger values hold reports back for a
    /// timer, trading stability latency for fewer control messages
    /// (§III-A notes Stabilizer batches actions and reports via
    /// monotonic upcalls).
    pub ack_flush_micros: u64,
    /// Send-buffer capacity in bytes; `publish` returns backpressure once
    /// exceeded (the data plane "can also buffer data for later
    /// transmission if needed", §III-B).
    pub send_buffer_bytes: usize,
    /// Failure-suspicion timeout in milliseconds: a peer is suspected
    /// after this long without any traffic (§III-E's "predicate update
    /// timer"). `0` disables failure detection (the default — enable it
    /// for deployments and fault experiments; a disabled detector keeps
    /// simulations free of periodic wake-ups so `run_until_idle`
    /// terminates).
    pub failure_timeout_millis: u64,
    /// Heartbeat period in milliseconds, keeping control channels alive
    /// when there is no data traffic. `0` disables heartbeats (default).
    pub heartbeat_millis: u64,
    /// If true, a suspected node is automatically excluded from all
    /// registered predicates ("the primary can adjust the predicate to
    /// eliminate the impact", §III-E).
    pub auto_exclude_suspects: bool,
    /// Maximum payload bytes per data message; larger publishes are
    /// rejected (applications chunk above this, as the Dropbox-like app
    /// does at 8 KB).
    pub max_payload_bytes: usize,
    /// Retransmission timeout in milliseconds for the paper's "basic
    /// reliability mechanism that ensures lossless FIFO delivery"
    /// (§III-A): if a peer's `received` counter makes no progress for
    /// this long while data is outstanding, the unacknowledged window is
    /// resent (go-back-N). `0` (default) disables it — appropriate when
    /// the transport is already reliable FIFO (TCP, the loss-free
    /// simulator).
    pub retransmit_millis: u64,
    /// Maximum consecutive failed connect attempts a transport writer
    /// makes per (re)connect episode before declaring the peer
    /// unreachable and surfacing a permanent connect failure. `0`
    /// (default) retries forever — appropriate for deployments where a
    /// peer joining late is normal.
    pub connect_retry_limit: u64,
    /// Number of stream shards per node (`stabilizer-shard`): each shard
    /// runs its own sequencer, send buffer, ACK recorder, and frontier
    /// engine, and the node-level stability frontier is the min-combine
    /// over shards. `1` (default) keeps the paper's single-stream data
    /// plane.
    pub shards: u16,
    /// Bytes of already-reclaimed payloads the send buffer retains for
    /// §III-E catch-up replay (oldest evicted first once exceeded). `0`
    /// (default) disables retention: a node evicted from the
    /// acknowledgment set can then only rejoin by fast-forwarding over
    /// the reclaimed prefix.
    pub retain_log_bytes: usize,
    /// Maximum unacknowledged catch-up chunks a donor keeps in flight
    /// per transfer session — the rate limit that stops replay traffic
    /// from starving the live data plane.
    pub transfer_window: u64,
    /// Transfer-supervision period in milliseconds: a recovering node
    /// re-issues its `TransferRequest` if an inbound catch-up session
    /// makes no progress for this long (this is also what resumes a
    /// transfer after a donor or joiner crash). `0` disables the
    /// transfer machinery entirely (pre-§III-E behavior).
    pub transfer_millis: u64,
    /// Static-analysis enforcement at predicate-install time.
    pub analysis: AnalysisMode,
    /// Crash budget `f` assumed by the `crash-unsatisfiable` lint: the
    /// analyzer flags predicates that some set of `f` simultaneous
    /// non-origin crashes would stall forever (absent the §III-E
    /// exclusion rewrite). `0` (default) disables the check.
    pub failure_budget: u64,
}

impl Options {
    /// Set the ACK-coalescing interval (µs); `0` = eager.
    pub fn ack_flush_micros(mut self, v: u64) -> Self {
        self.ack_flush_micros = v;
        self
    }

    /// Set the send-buffer capacity in bytes.
    pub fn send_buffer_bytes(mut self, v: usize) -> Self {
        self.send_buffer_bytes = v;
        self
    }

    /// Enable failure detection with the given timeout (ms).
    pub fn failure_timeout_millis(mut self, v: u64) -> Self {
        self.failure_timeout_millis = v;
        self
    }

    /// Enable heartbeats with the given period (ms).
    pub fn heartbeat_millis(mut self, v: u64) -> Self {
        self.heartbeat_millis = v;
        self
    }

    /// Automatically exclude suspected nodes from predicates.
    pub fn auto_exclude_suspects(mut self, v: bool) -> Self {
        self.auto_exclude_suspects = v;
        self
    }

    /// Set the maximum payload size per message.
    pub fn max_payload_bytes(mut self, v: usize) -> Self {
        self.max_payload_bytes = v;
        self
    }

    /// Enable the reliability mechanism with the given timeout (ms).
    pub fn retransmit_millis(mut self, v: u64) -> Self {
        self.retransmit_millis = v;
        self
    }

    /// Cap consecutive failed connect attempts (`0` = retry forever).
    pub fn connect_retry_limit(mut self, v: u64) -> Self {
        self.connect_retry_limit = v;
        self
    }

    /// Set the number of stream shards per node (clamped to at least 1).
    pub fn shards(mut self, v: u16) -> Self {
        self.shards = v.max(1);
        self
    }

    /// Set the retained catch-up log capacity in bytes (`0` = off).
    pub fn retain_log_bytes(mut self, v: usize) -> Self {
        self.retain_log_bytes = v;
        self
    }

    /// Set the per-session transfer window (in-flight chunk cap).
    pub fn transfer_window(mut self, v: u64) -> Self {
        self.transfer_window = v.max(1);
        self
    }

    /// Enable the transfer machinery with the given supervision period
    /// (ms); `0` disables state transfer.
    pub fn transfer_millis(mut self, v: u64) -> Self {
        self.transfer_millis = v;
        self
    }

    /// Set the static-analysis enforcement mode.
    pub fn analysis(mut self, v: AnalysisMode) -> Self {
        self.analysis = v;
        self
    }

    /// Set the crash budget assumed by the `crash-unsatisfiable` lint.
    pub fn failure_budget(mut self, v: u64) -> Self {
        self.failure_budget = v;
        self
    }
}

impl Default for Options {
    fn default() -> Self {
        Options {
            ack_flush_micros: 0,
            send_buffer_bytes: 256 * 1024 * 1024,
            failure_timeout_millis: 0,
            heartbeat_millis: 0,
            auto_exclude_suspects: false,
            max_payload_bytes: 64 * 1024,
            retransmit_millis: 0,
            connect_retry_limit: 0,
            shards: 1,
            retain_log_bytes: 0,
            transfer_window: 32,
            transfer_millis: 0,
            analysis: AnalysisMode::default(),
            failure_budget: 0,
        }
    }
}

/// The deployment-wide configuration: topology, initial predicates, and
/// options. Shared (via `Arc`) by every local Stabilizer component.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    topology: Arc<Topology>,
    predicates: BTreeMap<String, String>,
    ack_types: Vec<(String, Vec<String>)>,
    options: Options,
    placement: Arc<PlacementMap>,
}

impl ClusterConfig {
    /// Build from an existing topology with default options.
    pub fn new(topology: Topology) -> Self {
        let placement = Arc::new(PlacementMap::full(topology.num_nodes()));
        ClusterConfig {
            topology: Arc::new(topology),
            predicates: BTreeMap::new(),
            ack_types: Vec::new(),
            options: Options::default(),
            placement,
        }
    }

    /// Add a predicate to be registered at startup.
    pub fn with_predicate(mut self, key: &str, source: &str) -> Self {
        self.predicates.insert(key.to_owned(), source.to_owned());
        self
    }

    /// Replace the options.
    pub fn with_options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// Replace the placement map (partial replication).
    ///
    /// # Panics
    ///
    /// Panics if `placement` was built for a different node count than
    /// this config's topology.
    pub fn with_placement(mut self, placement: PlacementMap) -> Self {
        assert_eq!(
            placement.num_nodes(),
            self.topology.num_nodes(),
            "placement map covers {} nodes but topology has {}",
            placement.num_nodes(),
            self.topology.num_nodes()
        );
        self.placement = Arc::new(placement);
        self
    }

    /// The WAN topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Startup predicates as `(key, source)` pairs.
    pub fn predicates(&self) -> impl Iterator<Item = (&str, &str)> {
        self.predicates
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Declared application ACK types as `(name, emitter-names)` pairs, in
    /// declaration order. An empty emitter list means unrestricted.
    pub fn ack_types(&self) -> &[(String, Vec<String>)] {
        &self.ack_types
    }

    /// Node options.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// The stream → replica-set placement (full replication by default).
    pub fn placement(&self) -> &Arc<PlacementMap> {
        &self.placement
    }

    /// Number of WAN nodes.
    pub fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    /// Parse the line-oriented configuration format shown in the module
    /// docs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] on unknown directives, malformed
    /// lines, duplicate names, invalid option values, or more ACK types
    /// than an [`AckTypeId`](stabilizer_dsl::AckTypeId) can number.
    pub fn parse(text: &str) -> Result<Self, CoreError> {
        let mut builder = Topology::builder();
        let mut predicates = BTreeMap::new();
        let mut ack_types: Vec<(String, Vec<String>)> = Vec::new();
        let mut ack_names = HashSet::new();
        let mut replicates: Vec<ReplicateDirective> = Vec::new();
        let mut options = Options::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let Some(directive) = parts.next() else {
                continue;
            };
            let err = |msg: String| CoreError::Config(format!("line {}: {msg}", lineno + 1));
            match directive {
                "az" => {
                    let name = parts.next().ok_or_else(|| err("az needs a name".into()))?;
                    let nodes: Vec<&str> = parts.collect();
                    if nodes.is_empty() {
                        return Err(err(format!("az {name} lists no nodes")));
                    }
                    builder = builder.az(name, &nodes);
                }
                "predicate" => {
                    let key = parts
                        .next()
                        .ok_or_else(|| err("predicate needs a key".into()))?;
                    let rest: Vec<&str> = parts.collect();
                    if rest.is_empty() {
                        return Err(err(format!("predicate {key} has no body")));
                    }
                    predicates.insert(key.to_owned(), rest.join(" "));
                }
                "acktype" => {
                    let name = parts
                        .next()
                        .ok_or_else(|| err("acktype needs a name".into()))?;
                    if !ack_names.insert(name) {
                        return Err(err(format!("duplicate acktype {name}")));
                    }
                    let emitters: Vec<String> = parts.map(str::to_owned).collect();
                    ack_types.push((name.to_owned(), emitters));
                }
                "replicate" => {
                    // Re-parse the whole line with the span-carrying
                    // placement parser; name resolution happens once the
                    // topology is complete.
                    let d = parse_replicate(line).map_err(|e| err(e.to_string()))?;
                    if d.nodes.is_empty() {
                        return Err(err(format!(
                            "replicate {}: replica set is empty",
                            d.stream.name
                        )));
                    }
                    replicates.push(d);
                }
                "option" => {
                    let key = parts
                        .next()
                        .ok_or_else(|| err("option needs a key".into()))?;
                    let val = parts
                        .next()
                        .ok_or_else(|| err(format!("option {key} has no value")))?;
                    let parse_u64 = |v: &str| {
                        v.parse::<u64>()
                            .map_err(|_| err(format!("option {key}: bad number {v}")))
                    };
                    match key {
                        "ack_flush_micros" => options.ack_flush_micros = parse_u64(val)?,
                        "send_buffer_bytes" => options.send_buffer_bytes = parse_u64(val)? as usize,
                        "failure_timeout_millis" => {
                            options.failure_timeout_millis = parse_u64(val)?
                        }
                        "heartbeat_millis" => options.heartbeat_millis = parse_u64(val)?,
                        "max_payload_bytes" => options.max_payload_bytes = parse_u64(val)? as usize,
                        "retransmit_millis" => options.retransmit_millis = parse_u64(val)?,
                        "connect_retry_limit" => options.connect_retry_limit = parse_u64(val)?,
                        "retain_log_bytes" => options.retain_log_bytes = parse_u64(val)? as usize,
                        "transfer_window" => {
                            let v = parse_u64(val)?;
                            if v == 0 {
                                return Err(err("option transfer_window: must be >= 1".into()));
                            }
                            options.transfer_window = v;
                        }
                        "transfer_millis" => options.transfer_millis = parse_u64(val)?,
                        "shards" => {
                            let v = parse_u64(val)?;
                            if v == 0 || v > u64::from(u16::MAX) {
                                return Err(err(format!("option shards: out of range {v}")));
                            }
                            options.shards = v as u16;
                        }
                        "auto_exclude_suspects" => {
                            options.auto_exclude_suspects = match val {
                                "true" => true,
                                "false" => false,
                                _ => return Err(err(format!("option {key}: expected true/false"))),
                            }
                        }
                        "analysis" => {
                            options.analysis = match val {
                                "off" => AnalysisMode::Off,
                                "warn" => AnalysisMode::Warn,
                                "deny" => AnalysisMode::Deny,
                                _ => {
                                    return Err(err(format!(
                                        "option {key}: expected off/warn/deny"
                                    )))
                                }
                            }
                        }
                        "failure_budget" => options.failure_budget = parse_u64(val)?,
                        other => return Err(err(format!("unknown option {other}"))),
                    }
                }
                other => return Err(err(format!("unknown directive {other}"))),
            }
        }
        let topology = builder
            .build()
            .map_err(|e| CoreError::Config(e.to_string()))?;
        check_ack_type_room(&AckTypeRegistry::new(), &ack_types)?;
        for (name, emitters) in &ack_types {
            for node in emitters {
                if topology.node(node).is_none() {
                    return Err(CoreError::Config(format!(
                        "acktype {name}: unknown node {node}"
                    )));
                }
            }
        }
        let placement = PlacementMap::from_directives(&topology, &replicates)
            .map_err(|e| CoreError::Config(e.to_string()))?;
        Ok(ClusterConfig {
            topology: Arc::new(topology),
            predicates,
            ack_types,
            options,
            placement: Arc::new(placement),
        })
    }

    /// Peers of `me`: every node id except `me`.
    pub fn peers(&self, me: NodeId) -> Vec<NodeId> {
        self.topology
            .all_nodes()
            .into_iter()
            .filter(|n| *n != me)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# Fig. 2 deployment
az North_California n1 n2
az North_Virginia n3 n4 n5 n6
az Oregon n7
az Ohio n8
predicate AllWNodes MIN($ALLWNODES-$MYWNODE)
predicate MajorityRegions KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))
option ack_flush_micros 500
option auto_exclude_suspects true
";

    #[test]
    fn parses_topology_predicates_and_options() {
        let cfg = ClusterConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.num_nodes(), 8);
        assert_eq!(cfg.topology().node("n7"), Some(NodeId(6)));
        let preds: Vec<_> = cfg.predicates().collect();
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].0, "AllWNodes");
        assert!(preds[1].1.starts_with("KTH_MAX(2,"));
        assert_eq!(cfg.options().ack_flush_micros, 500);
        assert!(cfg.options().auto_exclude_suspects);
    }

    #[test]
    fn rejects_unknown_directive() {
        assert!(matches!(
            ClusterConfig::parse("frobnicate x"),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn rejects_bad_option() {
        assert!(ClusterConfig::parse("az A x\noption nope 3").is_err());
        assert!(ClusterConfig::parse("az A x\noption ack_flush_micros many").is_err());
        assert!(ClusterConfig::parse("az A x\noption auto_exclude_suspects yes").is_err());
        assert!(ClusterConfig::parse("az A x\noption shards 0").is_err());
        assert!(ClusterConfig::parse("az A x\noption shards 70000").is_err());
    }

    #[test]
    fn shards_option_parses_and_defaults_to_one() {
        assert_eq!(ClusterConfig::parse("az A x").unwrap().options().shards, 1);
        let cfg = ClusterConfig::parse("az A x\noption shards 4").unwrap();
        assert_eq!(cfg.options().shards, 4);
        assert_eq!(Options::default().shards(0).shards, 1, "clamped");
    }

    #[test]
    fn analysis_and_failure_budget_options_parse() {
        let cfg = ClusterConfig::parse("az A x y").unwrap();
        assert_eq!(cfg.options().analysis, AnalysisMode::Warn);
        assert_eq!(cfg.options().failure_budget, 0);
        let cfg = ClusterConfig::parse("az A x y\noption analysis deny\noption failure_budget 2")
            .unwrap();
        assert_eq!(cfg.options().analysis, AnalysisMode::Deny);
        assert_eq!(cfg.options().failure_budget, 2);
        let cfg = ClusterConfig::parse("az A x y\noption analysis off").unwrap();
        assert_eq!(cfg.options().analysis, AnalysisMode::Off);
        assert!(ClusterConfig::parse("az A x y\noption analysis always").is_err());
    }

    #[test]
    fn transfer_options_parse_and_default() {
        let cfg = ClusterConfig::parse("az A x y").unwrap();
        assert_eq!(cfg.options().retain_log_bytes, 0);
        assert_eq!(cfg.options().transfer_window, 32);
        assert_eq!(cfg.options().transfer_millis, 0);
        let cfg = ClusterConfig::parse(
            "az A x y\noption retain_log_bytes 65536\noption transfer_window 8\noption transfer_millis 50",
        )
        .unwrap();
        assert_eq!(cfg.options().retain_log_bytes, 65536);
        assert_eq!(cfg.options().transfer_window, 8);
        assert_eq!(cfg.options().transfer_millis, 50);
        assert!(ClusterConfig::parse("az A x y\noption transfer_window 0").is_err());
        assert_eq!(
            Options::default().transfer_window(0).transfer_window,
            1,
            "clamped"
        );
    }

    #[test]
    fn acktype_directive_parses_and_validates_nodes() {
        let cfg = ClusterConfig::parse("az A x y\nacktype verified x\nacktype audit").unwrap();
        assert_eq!(
            cfg.ack_types(),
            &[
                ("verified".to_string(), vec!["x".to_string()]),
                ("audit".to_string(), vec![]),
            ]
        );
        assert!(ClusterConfig::parse("az A x y\nacktype verified ghost").is_err());
        assert!(ClusterConfig::parse("az A x y\nacktype v\nacktype v").is_err());
        assert!(ClusterConfig::parse("az A x y\nacktype").is_err());
    }

    /// `acktype` lines beyond what an `AckTypeId` numbers are refused by
    /// the parser, not left for the node's registry to panic on; the
    /// most that fit beside the three built-ins still boot.
    #[test]
    fn more_ack_types_than_ids_are_refused() {
        let config = |types: usize| {
            let lines = (0..types).map(|i| format!("acktype t{i}\n"));
            "az A x y\n".to_owned() + &lines.collect::<String>()
        };
        let boot = |text: &str| {
            ClusterConfig::parse(text).and_then(|cfg| {
                crate::StabilizerNode::new(cfg, NodeId(0), Arc::new(AckTypeRegistry::new()))
            })
        };
        assert!(matches!(boot(&config(65_540)), Err(CoreError::Config(_))));
        assert!(matches!(boot(&config(65_534)), Err(CoreError::Config(_))));
        let most = boot(&config(65_533)).expect("every name gets an id");
        assert_eq!(most.ack_types().len(), ACK_TYPE_IDS);
    }

    /// A node whose registry is already full refuses a config that
    /// declares a new ACK type, parsed or not; one it already numbers
    /// boots.
    #[test]
    fn a_full_registry_refuses_a_new_configured_ack_type() {
        let acks = Arc::new(AckTypeRegistry::new());
        for i in acks.len()..ACK_TYPE_IDS {
            acks.register(&format!("t{i}"));
        }
        let boot = |text: &str| {
            let cfg = ClusterConfig::parse(text).expect("parses");
            crate::StabilizerNode::new(cfg, NodeId(0), Arc::clone(&acks))
        };
        assert!(matches!(
            boot("az A x y\nacktype late"),
            Err(CoreError::Config(_))
        ));
        boot("az A x y\nacktype t3").expect("t3 is registered already");
    }

    #[test]
    fn rejects_empty_az_and_missing_bodies() {
        assert!(ClusterConfig::parse("az Lonely").is_err());
        assert!(ClusterConfig::parse("az A x\npredicate P").is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let cfg = ClusterConfig::parse("# hi\n\naz A x y\n").unwrap();
        assert_eq!(cfg.num_nodes(), 2);
    }

    #[test]
    fn replicate_directive_parses_and_validates() {
        let cfg = ClusterConfig::parse("az A x y z\nreplicate x x y").unwrap();
        let p = cfg.placement();
        assert!(!p.is_full_replication());
        assert_eq!(p.replicas(NodeId(0)), &[NodeId(0), NodeId(1)]);
        assert!(!p.is_replica(NodeId(0), NodeId(2)));
        assert_eq!(p.replicas(NodeId(1)).len(), 3, "unplaced streams stay full");
        assert!(ClusterConfig::parse("az A x y\nreplicate ghost ghost").is_err());
        assert!(ClusterConfig::parse("az A x y\nreplicate x y").is_err());
        assert!(ClusterConfig::parse("az A x y\nreplicate x").is_err());
        assert!(ClusterConfig::parse("az A x y\nreplicate x x\nreplicate x x y").is_err());
    }

    #[test]
    fn replicate_free_config_is_full_replication() {
        let cfg = ClusterConfig::parse("az A x y z").unwrap();
        assert!(cfg.placement().is_full_replication());
        assert_eq!(
            cfg.placement().placement_hash(),
            PlacementMap::full(3).placement_hash()
        );
    }

    #[test]
    fn peers_excludes_self() {
        let cfg = ClusterConfig::parse("az A x y z").unwrap();
        assert_eq!(cfg.peers(NodeId(1)), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn options_builder_chains() {
        let o = Options::default()
            .ack_flush_micros(7)
            .send_buffer_bytes(1024)
            .failure_timeout_millis(9)
            .heartbeat_millis(3)
            .auto_exclude_suspects(true)
            .max_payload_bytes(512)
            .retransmit_millis(11);
        assert_eq!(o.ack_flush_micros, 7);
        assert_eq!(o.send_buffer_bytes, 1024);
        assert_eq!(o.failure_timeout_millis, 9);
        assert_eq!(o.heartbeat_millis, 3);
        assert!(o.auto_exclude_suspects);
        assert_eq!(o.max_payload_bytes, 512);
        assert_eq!(o.retransmit_millis, 11);
    }

    #[test]
    fn builder_style_construction() {
        let topo = Topology::builder().az("A", &["a", "b"]).build().unwrap();
        let cfg = ClusterConfig::new(topo)
            .with_predicate("P", "MAX($ALLWNODES)")
            .with_options(Options {
                ack_flush_micros: 9,
                ..Options::default()
            });
        assert_eq!(cfg.predicates().count(), 1);
        assert_eq!(cfg.options().ack_flush_micros, 9);
    }
}
