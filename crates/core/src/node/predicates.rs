//! Installing, rewriting and removing predicates: the glue between the
//! DSL compiler, the static analyzer and the frontier engine. The engine
//! is the one table of what is registered: the analyzer's report, `f*`
//! and `/stall` read [`crate::frontier::FrontierEngine::registered`],
//! the sharing lookup [`crate::frontier::FrontierEngine::compiled_from`],
//! and §III-E's exclusion and reinstatement are the engine's.

use super::{Action, StabilizerNode};
use crate::config::AnalysisMode;
use crate::error::CoreError;
use stabilizer_analyze::{AckEmissions, Analyzer, Report};
use stabilizer_dsl::{NodeId, Predicate, SpannedExpr};

impl StabilizerNode {
    /// Register a new predicate under `key` for `stream`, compiled at
    /// this node (the paper's `register_predicate`).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownStream`] for a stream outside the cluster;
    /// propagates DSL compile errors, and under `option analysis deny`
    /// returns [`CoreError::PredicateRejected`] for any predicate with
    /// error- or warning-level analyzer findings.
    pub fn register_predicate(
        &mut self,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.install(stream, key, source, None, false)
    }

    /// Replace the predicate under `key` (the paper's `change_predicate`),
    /// bumping its generation.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownStream`] for a stream outside the cluster,
    /// [`CoreError::UnknownPredicate`] if the key was never registered, a
    /// DSL compile error, or (under `option analysis deny`)
    /// [`CoreError::PredicateRejected`].
    pub fn change_predicate(
        &mut self,
        stream: NodeId,
        key: &str,
        source: &str,
    ) -> Result<(), CoreError> {
        self.install(stream, key, source, None, true)
    }

    /// Compile and hand to the engine (`must_exist`: as a change of a
    /// registered key); `tree` is the source's, if
    /// the config parsed it already. Only `option analysis deny` runs the
    /// analyzer here, to refuse before anything is registered; warn-mode
    /// findings and `f*` are computed when they are read.
    pub(super) fn install(
        &mut self,
        stream: NodeId,
        key: &str,
        source: &str,
        tree: Option<&SpannedExpr>,
        must_exist: bool,
    ) -> Result<(), CoreError> {
        self.check_stream(stream)?;
        if self.cfg.options().analysis == AnalysisMode::Deny {
            let report = self.analyze(stream, key, source);
            if !report.is_clean() {
                return Err(CoreError::PredicateRejected {
                    key: key.to_owned(),
                    report: report.render_human(),
                });
            }
        }
        let (pred, compiled) = self.compile(stream, source, tree)?;
        let (rec, out, done) = (&self.recorder, &mut self.updates, &mut self.done);
        if !must_exist {
            self.engine.register(stream, key, pred, rec, out, done);
        } else if !self.engine.change(stream, key, pred, rec, out, done) {
            return Err(CoreError::UnknownPredicate(key.to_owned()));
        }
        if compiled {
            self.engine.file(stream, key);
        }
        self.emit();
        Ok(())
    }

    /// Compile `source` at this node for `stream`: over the stream's
    /// replica set only. A registered key with the same source on a
    /// stream with the same replica set already holds that program, so
    /// it is shared rather than compiled again. A compile reads nothing
    /// else that changes: the topology and `me` are fixed, and the ACK
    /// type registry only grows. `tree`, if given, is what `source`
    /// parses to, and the compile starts there. The flag says whether
    /// the program was compiled here rather than shared.
    fn compile(
        &self,
        stream: NodeId,
        source: &str,
        tree: Option<&SpannedExpr>,
    ) -> Result<(Predicate, bool), CoreError> {
        let replicas = self.placement.replicas(stream);
        let shared = self
            .engine
            .compiled_from(source)
            .find_map(|(s, pred)| (self.placement.replicas(s) == replicas).then_some(pred));
        if let Some(pred) = shared {
            return Ok((pred.clone(), false));
        }
        let (topo, acks, me) = (self.cfg.topology(), &self.acks, self.me);
        let pred = match tree {
            Some(tree) => Predicate::compile_parsed(source, tree, topo, acks, me)?,
            None => Predicate::compile(source, topo, acks, me)?,
        };
        Ok((pred.restricted_to(replicas)?, true))
    }

    /// The analyzer's findings on the predicate registered under
    /// `(stream, key)`, computed now from its source; `None` if the key
    /// is not registered.
    pub fn analysis_report(&self, stream: NodeId, key: &str) -> Option<Report> {
        let mut registered = self.engine.registered();
        let (_, _, pred) = registered.find(|&(s, k, _)| (s, k) == (stream, key))?;
        Some(self.analyze(stream, key, pred.source()))
    }

    /// Every registered `(stream, key) -> f*`, for telemetry export: the
    /// largest number of non-origin crashes each predicate survives at
    /// this vantage, as restricted to the stream's replica set. The
    /// availability prover runs for each key as the iterator reaches it;
    /// a key it leaves undecided is skipped.
    pub fn predicate_tolerances(&self) -> impl Iterator<Item = (NodeId, &str, i64)> + '_ {
        self.engine.registered().filter_map(|(stream, key, pred)| {
            let avail = stabilizer_analyze::availability(pred, self.cfg.topology(), self.me)?;
            Some((stream, key, avail.tolerance))
        })
    }

    /// Run the static analyzer on `source` with what the configuration
    /// says: the ACK types and their emitters, the failure budget, and
    /// `stream`'s replica set (which scopes the `non-replica-operand`
    /// lint).
    fn analyze(&self, stream: NodeId, key: &str, source: &str) -> Report {
        let mut emissions = AckEmissions::new();
        for (name, emitters) in self.cfg.ack_types() {
            if emitters.is_empty() {
                continue;
            }
            if let Some(ty) = self.acks.lookup(name) {
                let ids: Vec<NodeId> = emitters
                    .iter()
                    .filter_map(|n| self.cfg.topology().node(n))
                    .collect();
                emissions.restrict(ty, &ids);
            }
        }
        Analyzer::new(self.cfg.topology(), &self.acks, self.me)
            .with_emissions(&emissions)
            .with_failure_budget(self.cfg.options().failure_budget as usize)
            .with_replicas(self.placement.replicas(stream))
            .analyze(key, source)
    }

    /// Remove a predicate; any pending waiters complete immediately (with
    /// the frontier they were waiting for never confirmed) so callers are
    /// not stranded.
    pub fn unregister_predicate(&mut self, stream: NodeId, key: &str) {
        for token in self.engine.unregister(stream, key) {
            self.actions.push(Action::WaitDone { token });
        }
    }

    /// Rewrite every predicate to stop observing `node` (§III-E). A
    /// predicate the rewrite would leave empty stays as it is: its
    /// frontier freezes, and [`StabilizerNode::explain_all`] blames the
    /// suspect.
    pub(super) fn exclude_node(&mut self, node: NodeId) {
        let (rec, out, done) = (&self.recorder, &mut self.updates, &mut self.done);
        self.engine.exclude_node(node, rec, out, done);
        self.emit();
    }

    /// Re-admit a previously excluded node (the inverse of
    /// [`StabilizerNode::exclude_node`]): every predicate that lost it
    /// runs its registered program again, less the exclusions still in
    /// force, as a new generation (see
    /// [`crate::frontier::FrontierEngine::reinstate_node`]).
    pub(super) fn reinstate_node(&mut self, node: NodeId) {
        let (rec, out, done) = (&self.recorder, &mut self.updates, &mut self.done);
        self.engine.reinstate_node(node, rec, out, done);
        self.emit();
    }

    /// Diagnose one `(stream, key)` frontier: how far behind the highest
    /// locally-known publish it is, and — via a walk of the resolved
    /// predicate against the live ACK recorder — the minimal set of
    /// (node, ACK-type) cells holding it back. `None` if the key is not
    /// registered for the stream.
    pub fn explain_frontier(&self, stream: NodeId, key: &str) -> Option<crate::StallReport> {
        let pred = self.engine.predicate(stream, key)?;
        let at = self.engine.frontier(stream, key)?;
        Some(crate::explain::stall_report(self, stream, key, pred, at))
    }

    /// [`StabilizerNode::explain_frontier`] for every registered
    /// `(stream, key)` pair, in (stream, key) order — the `/stall`
    /// endpoint body.
    pub fn explain_all(&self) -> Vec<crate::StallReport> {
        self.engine
            .registered()
            .filter_map(|(stream, key, _)| self.explain_frontier(stream, key))
            .collect()
    }
}
