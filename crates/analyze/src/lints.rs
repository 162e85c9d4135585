//! The per-predicate lint pass and the cross-predicate set analysis.
//!
//! The walker operates on the span-carrying AST ([`parse`]) so
//! every finding lands on the exact offending source bytes, and it is
//! deliberately *lenient*: where the resolver hard-errors and stops, the
//! walker records a diagnostic and keeps going, so one `stabcheck` run
//! reports everything wrong with a predicate at once.

use crate::avail;
use crate::diag::{Diagnostic, Lint, Report, Severity};
use crate::dominance::{compare, Dominance};
use crate::emissions::AckEmissions;
use crate::probe;
use stabilizer_dsl::{
    expand_set, optimize, parse, resolve, AckTypeRegistry, DslError, NodeId, Op, Predicate, Span,
    SpannedAck, SpannedExpr, SpannedExprKind, SpannedSet, SpannedSetKind, Topology,
};
use stabilizer_place::PlacementMap;

/// A configured analyzer: topology, ACK registry, executing node, and the
/// optional deployment knowledge (emissions model, failure budget) that
/// unlocks the deeper lints.
pub struct Analyzer<'a> {
    topo: &'a Topology,
    acks: &'a AckTypeRegistry,
    me: NodeId,
    emissions: Option<&'a AckEmissions>,
    failure_budget: usize,
    replicas: Option<&'a [NodeId]>,
    audit: bool,
    placement: Option<&'a PlacementMap>,
}

impl<'a> Analyzer<'a> {
    /// An analyzer for predicates executing at `me`, with no emissions
    /// model and a zero failure budget (the corresponding lints stay
    /// silent).
    pub fn new(topo: &'a Topology, acks: &'a AckTypeRegistry, me: NodeId) -> Self {
        Analyzer {
            topo,
            acks,
            me,
            emissions: None,
            failure_budget: 0,
            replicas: None,
            audit: false,
            placement: None,
        }
    }

    /// Supply the ACK-emissions model, enabling
    /// [`unemitted-ack-type`](Lint::UnemittedAckType).
    pub fn with_emissions(mut self, emissions: &'a AckEmissions) -> Self {
        self.emissions = Some(emissions);
        self
    }

    /// Supply the deployment's failure budget `f`, enabling
    /// [`crash-unsatisfiable`](Lint::CrashUnsatisfiable).
    pub fn with_failure_budget(mut self, f: usize) -> Self {
        self.failure_budget = f;
        self
    }

    /// Supply the replica set of the stream this predicate stabilizes
    /// (partial replication), enabling
    /// [`non-replica-operand`](Lint::NonReplicaOperand): explicitly
    /// naming a node outside the set is an error, since a non-replica
    /// never acks the stream. Macro sets (`$ALLWNODES`, `$AZ_*`, ...)
    /// are exempt — the runtime silently restricts them to the replicas.
    pub fn with_replicas(mut self, replicas: &'a [NodeId]) -> Self {
        self.replicas = Some(replicas);
        self
    }

    /// Enable the availability audit lints
    /// ([`zero-fault-tolerance`](Lint::ZeroFaultTolerance) and
    /// [`partition-vulnerable`](Lint::PartitionVulnerable)): the
    /// [availability prover](crate::avail) runs on every predicate that
    /// compiles, restricted to the replica set when one is supplied, so
    /// the verdict matches what the runtime installs. Off by default —
    /// audit findings are advisory deployment review, not install-time
    /// gating.
    pub fn with_availability_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Supply the placement map so the audit's partition-cut costing
    /// counts only `linked` node pairs (full replication otherwise).
    pub fn with_placement(mut self, placement: &'a PlacementMap) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Analyze one predicate source, producing a [`Report`].
    pub fn analyze(&self, name: &str, source: &str) -> Report {
        let mut report = Report::new(name, source);
        let whole = Span::new(0, source.len());
        let expr = match parse(source) {
            Ok(expr) => expr,
            Err(e) => {
                let span = e.span().unwrap_or(whole);
                report
                    .diagnostics
                    .push(Diagnostic::new(Lint::SyntaxError, span, strip_stage(&e)));
                return report;
            }
        };
        self.walk_call(&expr, &mut report);
        if report.has_at_least(Severity::Error) {
            return report;
        }
        // No static errors: the predicate compiles; run the numeric
        // probes on the real compiled program.
        let compiled = match Predicate::compile(source, self.topo, self.acks, self.me) {
            Ok(p) => p,
            Err(e) => {
                // The walker should have caught everything the resolver
                // rejects; if not, surface it rather than hide it.
                report
                    .diagnostics
                    .push(Diagnostic::new(Lint::SyntaxError, whole, strip_stage(&e)));
                return report;
            }
        };
        if compiled.dependencies().is_empty() {
            report.diagnostics.push(
                Diagnostic::new(
                    Lint::ConstantFrontier,
                    whole,
                    "predicate reads no ACK cell; its frontier is a constant",
                )
                .with_note("a constant frontier never tracks publishes — every waitfor either returns immediately or stalls forever"),
            );
        } else if probe::is_vacuous(compiled.program(), self.me) {
            report.diagnostics.push(
                Diagnostic::new(
                    Lint::VacuousPredicate,
                    whole,
                    format!(
                        "predicate is satisfied by {}'s own acknowledgment alone",
                        self.topo.node_name(self.me)
                    ),
                )
                .with_note(
                    "it never waits for a remote node; write e.g. MAX($ALLWNODES-$MYWNODE) to require a remote ACK",
                ),
            );
        }
        if let Some(witness) =
            probe::crash_unsatisfiable(&compiled, self.topo, self.me, self.failure_budget)
        {
            let names: Vec<&str> = witness.iter().map(|n| self.topo.node_name(*n)).collect();
            report.diagnostics.push(
                Diagnostic::new(
                    Lint::CrashUnsatisfiable,
                    whole,
                    format!(
                        "with failure budget {}, crashing {{{}}} stalls this predicate forever",
                        self.failure_budget,
                        names.join(", ")
                    ),
                )
                .with_note(
                    "the frontier only advances past these crashes if failure detection excludes them (auto_exclude_suspects)",
                ),
            );
        }
        self.audit_availability(&compiled, whole, &mut report);
        report
    }

    /// The availability-audit lints: run the prover on the predicate as
    /// the runtime would install it (restricted to the replica set under
    /// partial replication) and flag `f* = 0` or a single-AZ cut that
    /// strands the vantage. A predicate already blocked with zero
    /// crashes (tolerance `-1`) is covered by the constant/unemitted
    /// lints and stays silent here, as does `partition-vulnerable` on a
    /// zero-tolerance predicate — the crash warning subsumes the cut. A
    /// predicate the prover leaves undecided gets no finding.
    fn audit_availability(&self, compiled: &Predicate, whole: Span, report: &mut Report) {
        if !self.audit || compiled.dependencies().is_empty() {
            return;
        }
        let installed = match self.replicas {
            Some(reps) => match compiled.restricted_to(reps) {
                Ok(p) => p,
                Err(_) => return, // nothing installable to audit
            },
            None => compiled.clone(),
        };
        if installed.dependencies().is_empty() {
            return;
        }
        let Some(avail) = avail::availability(&installed, self.topo, self.me) else {
            return;
        };
        match avail.min_blocking() {
            Some(1) => {
                let singles: Vec<&str> = avail
                    .blocking_sets
                    .iter()
                    .take_while(|s| s.len() == 1)
                    .map(|s| self.topo.node_name(s[0]))
                    .collect();
                let list = singles.join(", ");
                let message = if singles.len() == 1 {
                    format!("crash tolerance f* = 0: a single crash of {{{list}}} stalls this predicate forever")
                } else {
                    format!("crash tolerance f* = 0: a single crash of any of {{{list}}} stalls this predicate forever")
                };
                report.diagnostics.push(
                    Diagnostic::new(Lint::ZeroFaultTolerance, whole, message).with_note(
                        "stabcheck --audit lists every minimal blocking set; a quorum predicate (KTH_*) survives crashes a MIN cannot",
                    ),
                );
            }
            Some(n) if n >= 2 => {
                if let Some(cut) = avail::single_az_cut(&avail, self.topo, self.placement) {
                    report.diagnostics.push(
                        Diagnostic::new(
                            Lint::PartitionVulnerable,
                            whole,
                            format!(
                                "a single-AZ partition (isolating {}, severing {} link{}) stalls this predicate despite f* = {}",
                                cut.far_azs.join(", "),
                                cut.severed_links,
                                if cut.severed_links == 1 { "" } else { "s" },
                                avail.tolerance,
                            ),
                        )
                        .with_note(
                            "nodes unreachable from the vantage behave as crashed: the cut strands every blocking-set complement",
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    /// Analyze a set of co-installed predicates: each one individually,
    /// then pairwise dominance over the clean ones.
    pub fn analyze_set(&self, predicates: &[(String, String)]) -> Vec<Report> {
        let mut reports: Vec<Report> = predicates
            .iter()
            .map(|(name, src)| self.analyze(name, src))
            .collect();
        // Resolve the predicates that are at least error-free.
        let resolved: Vec<Option<stabilizer_dsl::resolve::ResolvedExpr>> = predicates
            .iter()
            .zip(&reports)
            .map(|((_, src), rep)| {
                if rep.has_at_least(Severity::Error) {
                    None
                } else {
                    parse(src)
                        .ok()
                        .and_then(|ast| resolve(&ast, self.topo, self.acks, self.me).ok())
                        .map(|r| optimize(&r).expr)
                }
            })
            .collect();
        // One diagnostic per dominated predicate, naming every dominator
        // (the Table III ladder would otherwise drown in transitive
        // implication edges).
        let mut dominators: Vec<Vec<&str>> = vec![Vec::new(); predicates.len()];
        for i in 0..predicates.len() {
            for j in (i + 1)..predicates.len() {
                let (Some(a), Some(b)) = (&resolved[i], &resolved[j]) else {
                    continue;
                };
                match compare(a, b) {
                    Dominance::Equivalent => {
                        let span_j = Span::new(0, predicates[j].1.len());
                        reports[j].diagnostics.push(
                            Diagnostic::new(
                                Lint::EquivalentPredicates,
                                span_j,
                                format!(
                                    "provably computes the same frontier as '{}'",
                                    predicates[i].0
                                ),
                            )
                            .with_note(
                                "co-installing both doubles evaluation work for no extra guarantee",
                            ),
                        );
                    }
                    Dominance::LeftImpliesRight => dominators[j].push(&predicates[i].0),
                    Dominance::RightImpliesLeft => dominators[i].push(&predicates[j].0),
                    Dominance::Unrelated => {}
                }
            }
        }
        for (i, doms) in dominators.iter().enumerate() {
            if doms.is_empty() {
                continue;
            }
            let span = Span::new(0, predicates[i].1.len());
            let list = doms
                .iter()
                .map(|d| format!("'{d}'"))
                .collect::<Vec<_>>()
                .join(", ");
            reports[i].diagnostics.push(
                Diagnostic::new(
                    Lint::DominatedPredicate,
                    span,
                    format!("'{}' is implied by co-installed {list}", predicates[i].0),
                )
                .with_note(
                    "whenever a stronger predicate is satisfied this one already is; the frontier engine can reuse its result",
                ),
            );
        }
        reports
    }

    /// Walk a reduction call, checking rank, operands, duplicates.
    fn walk_call(&self, expr: &SpannedExpr, report: &mut Report) {
        let SpannedExprKind::Call(op, op_span, args) = &expr.kind else {
            // parse guarantees a top-level call; nested positions
            // only reach here for calls.
            return;
        };
        let (rank, data_args): (Option<(u64, Span)>, &[SpannedExpr]) = match op {
            Op::Max | Op::Min => (Some((1, *op_span)), &args[..]),
            Op::KthMax | Op::KthMin => {
                let Some((kexpr, rest)) = args.split_first() else {
                    report.diagnostics.push(Diagnostic::new(
                        Lint::BadRank,
                        *op_span,
                        format!("{op} requires a rank argument"),
                    ));
                    return;
                };
                match self.const_eval(kexpr) {
                    Ok(0) => {
                        report.diagnostics.push(Diagnostic::new(
                            Lint::BadRank,
                            kexpr.span,
                            format!("{op} rank must be at least 1"),
                        ));
                        (None, rest)
                    }
                    Ok(k) => (Some((k, kexpr.span)), rest),
                    Err(d) => {
                        report.diagnostics.push(d);
                        (None, rest)
                    }
                }
            }
        };
        // Count operands and collect cells for duplicate detection. A
        // count is only "known" if every set expanded successfully.
        let mut count_known = true;
        let mut count = 0usize;
        let mut cells: Vec<(NodeId, Option<String>)> = Vec::new();
        for arg in data_args {
            match &arg.kind {
                SpannedExprKind::Call(..) => {
                    self.walk_call(arg, report);
                    count += 1;
                }
                SpannedExprKind::Values(set, suffix) => {
                    match self.walk_values(set, suffix.as_ref(), report) {
                        Some(nodes) => {
                            count += nodes.len();
                            let suffix_name = suffix.as_ref().map(|s| s.name.0.clone());
                            cells.extend(nodes.into_iter().map(|n| (n, suffix_name.clone())));
                        }
                        None => count_known = false,
                    }
                }
                SpannedExprKind::Int(_)
                | SpannedExprKind::Sizeof(_)
                | SpannedExprKind::Arith(..) => {
                    // Constant data operand; check its sets resolve.
                    self.walk_scalar_sets(arg, report);
                    count += 1;
                }
            }
        }
        if count_known && count == 0 {
            report.diagnostics.push(
                Diagnostic::new(
                    Lint::EmptySet,
                    expr.span,
                    format!("{op} reduces over an empty operand list"),
                )
                .with_note(
                    "set expansion produced no nodes; the reduction has nothing to select from",
                ),
            );
        }
        if let (Some((k, k_span)), true) = (rank, count_known) {
            if count > 0 && k > count as u64 {
                report.diagnostics.push(
                    Diagnostic::new(
                        Lint::RankOutOfRange,
                        k_span,
                        format!("{op} rank {k} out of range 1..={count}"),
                    )
                    .with_note(
                        "the runtime clamps ranks only when crash exclusion shrinks a set (§III-E); a rank that is out of range at compile time is a bug in the predicate",
                    ),
                );
            }
        }
        // Duplicate cells within this one reduction.
        let mut dups: Vec<String> = Vec::new();
        for (idx, cell) in cells.iter().enumerate() {
            if cells[..idx].contains(cell) {
                let label = format!(
                    "{}.{}",
                    self.topo.node_name(cell.0),
                    cell.1.as_deref().unwrap_or("received")
                );
                if !dups.contains(&label) {
                    dups.push(label);
                }
            }
        }
        if !dups.is_empty() {
            report.diagnostics.push(
                Diagnostic::new(
                    Lint::DuplicateOperand,
                    *op_span,
                    format!("duplicate operands in {op}: {}", dups.join(", ")),
                )
                .with_note("a node counted twice skews rank semantics: KTH_* treats each occurrence as an independent acknowledgment"),
            );
        }
    }

    /// Check a set-with-suffix operand; returns the expanded nodes when
    /// every name resolved (even if empty), `None` otherwise.
    fn walk_values(
        &self,
        set: &SpannedSet,
        suffix: Option<&SpannedAck>,
        report: &mut Report,
    ) -> Option<Vec<NodeId>> {
        let nodes = self.walk_set(set, report, true);
        let ty = match suffix {
            None => Some(stabilizer_dsl::RECEIVED),
            Some(ack) => {
                let ty = self.acks.lookup(&ack.name.0);
                if ty.is_none() {
                    let known: Vec<String> = (0..self.acks.len())
                        .filter_map(|i| self.acks.name(stabilizer_dsl::AckTypeId(i as u16)))
                        .collect();
                    report.diagnostics.push(
                        Diagnostic::new(
                            Lint::UnknownAckType,
                            ack.span,
                            format!("unknown ACK type .{}", ack.name.0),
                        )
                        .with_note(format!("registered ACK types: {}", known.join(", "))),
                    );
                }
                ty
            }
        };
        if let Some(nodes) = &nodes {
            if nodes.is_empty() {
                report.diagnostics.push(
                    Diagnostic::new(
                        Lint::EmptySet,
                        set.span,
                        "set expression expands to no nodes".to_string(),
                    )
                    .with_note(format!(
                        "evaluated at {}; the reduction silently loses these operands",
                        self.topo.node_name(self.me)
                    )),
                );
            } else if let (Some(em), Some(ty)) = (self.emissions, ty) {
                let silent: Vec<&str> = nodes
                    .iter()
                    .filter(|n| !em.emits(**n, ty))
                    .map(|n| self.topo.node_name(*n))
                    .collect();
                if !silent.is_empty() {
                    let ty_name = self.acks.name(ty).unwrap_or_default();
                    let anchor = suffix.map_or(set.span, |s| s.span);
                    report.diagnostics.push(
                        Diagnostic::new(
                            Lint::UnemittedAckType,
                            anchor,
                            format!(
                                "waiting on .{ty_name} from {{{}}}, which never emit{} it",
                                silent.join(", "),
                                if silent.len() == 1 { "s" } else { "" }
                            ),
                        )
                        .with_note(format!(
                            "the config's `acktype {ty_name}` directive restricts emitters; this predicate can never be satisfied"
                        )),
                    );
                }
            }
        }
        nodes
    }

    /// Check a set expression: unknown names, useless differences, and —
    /// when a replica set is configured — explicitly named non-replicas.
    /// `waited` is true in positive positions (nodes the reduction waits
    /// on); the right-hand side of a difference is removed, not waited
    /// on, so the replica check stays silent there. Returns the
    /// expansion if all names resolved.
    fn walk_set(&self, set: &SpannedSet, report: &mut Report, waited: bool) -> Option<Vec<NodeId>> {
        match &set.kind {
            SpannedSetKind::Diff(a, b) => {
                let left = self.walk_set(a, report, waited);
                let right = self.walk_set(b, report, false);
                let (left, right) = (left?, right?);
                if !right.is_empty() && !right.iter().any(|n| left.contains(n)) {
                    report.diagnostics.push(
                        Diagnostic::new(
                            Lint::UselessDifference,
                            b.span,
                            "set difference removes nothing".to_string(),
                        )
                        .with_note(format!(
                            "no node of the right-hand set is in the left-hand set when evaluated at {}",
                            self.topo.node_name(self.me)
                        )),
                    );
                }
                Some(left.into_iter().filter(|n| !right.contains(n)).collect())
            }
            _ => match expand_set(set, self.topo, self.me) {
                Ok(nodes) => {
                    // Only explicit node references fire the replica
                    // check: macros restrict silently at install time.
                    let explicit = matches!(
                        set.kind,
                        SpannedSetKind::Node(_) | SpannedSetKind::NodeVar(_)
                    );
                    if let (Some(reps), true, true) = (self.replicas, explicit, waited) {
                        for n in nodes.iter().filter(|n| !reps.contains(n)) {
                            let members: Vec<&str> =
                                reps.iter().map(|r| self.topo.node_name(*r)).collect();
                            report.diagnostics.push(
                                Diagnostic::new(
                                    Lint::NonReplicaOperand,
                                    set.span,
                                    format!(
                                        "predicate waits on {}, which is not a replica of this stream",
                                        self.topo.node_name(*n)
                                    ),
                                )
                                .with_note(format!(
                                    "the stream's replica set is {{{}}}; a non-replica never receives or acks the stream, so the frontier could never advance",
                                    members.join(", ")
                                )),
                            );
                        }
                    }
                    Some(nodes)
                }
                Err(e) => {
                    report.diagnostics.push(Diagnostic::new(
                        Lint::UnknownName,
                        set.span,
                        strip_stage(&e),
                    ));
                    None
                }
            },
        }
    }

    /// Walk the sets inside a scalar (rank/arith) expression so unknown
    /// names in e.g. `SIZEOF($AZ_Nope)` are still reported.
    fn walk_scalar_sets(&self, expr: &SpannedExpr, report: &mut Report) {
        match &expr.kind {
            SpannedExprKind::Sizeof(set) => {
                self.walk_set(set, report, false);
            }
            SpannedExprKind::Arith(_, l, r) => {
                self.walk_scalar_sets(l, report);
                self.walk_scalar_sets(r, report);
            }
            SpannedExprKind::Call(..) => self.walk_call(expr, report),
            SpannedExprKind::Int(_) | SpannedExprKind::Values(..) => {}
        }
    }

    /// Lenient compile-time constant evaluation of a rank expression,
    /// returning a ready-to-push diagnostic on failure.
    fn const_eval(&self, expr: &SpannedExpr) -> Result<u64, Diagnostic> {
        match &expr.kind {
            SpannedExprKind::Int(n) => Ok(*n),
            SpannedExprKind::Sizeof(set) => {
                // Name errors are reported by the caller's set walk; here
                // just propagate "unknown" as a BadRank-free failure.
                expand_set(set, self.topo, self.me)
                    .map(|nodes| nodes.len() as u64)
                    .map_err(|e| Diagnostic::new(Lint::UnknownName, set.span, strip_stage(&e)))
            }
            SpannedExprKind::Arith(op, l, r) => {
                let a = self.const_eval(l)?;
                let b = self.const_eval(r)?;
                use stabilizer_dsl::BinOp;
                let v = match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => a.checked_mul(b),
                    BinOp::Div => {
                        if b == 0 {
                            return Err(Diagnostic::new(
                                Lint::BadRank,
                                expr.span,
                                "division by zero in rank expression",
                            ));
                        }
                        Some(a / b)
                    }
                };
                v.ok_or_else(|| {
                    Diagnostic::new(
                        Lint::BadRank,
                        expr.span,
                        format!("constant arithmetic overflow: {a} {op} {b}"),
                    )
                })
            }
            SpannedExprKind::Call(op, ..) => Err(Diagnostic::new(
                Lint::BadRank,
                expr.span,
                format!(
                    "KTH rank must be a compile-time constant; {op}(...) is evaluated at run time"
                ),
            )),
            SpannedExprKind::Values(..) => Err(Diagnostic::new(
                Lint::BadRank,
                expr.span,
                "a node set cannot be used where a number is required",
            )),
        }
    }
}

/// Drop the "lexical error at byte N:"-style prefix duplication: the
/// diagnostic already renders position; keep only the message body for
/// DslErrors that carry one, and the whole Display otherwise.
fn strip_stage(e: &DslError) -> String {
    match e {
        DslError::Lex { msg, .. } | DslError::Parse { msg, .. } => msg.clone(),
        DslError::Resolve(m) | DslError::Type(m) | DslError::Invalid(m) | DslError::Topology(m) => {
            m.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::builder()
            .az("East", &["e1", "e2"])
            .az("West", &["w1", "w2"])
            .az("Solo", &["s1"])
            .build()
            .unwrap()
    }

    fn lint_ids(src: &str, me: u16) -> Vec<&'static str> {
        let acks = AckTypeRegistry::new();
        let t = topo();
        let a = Analyzer::new(&t, &acks, NodeId(me));
        a.analyze("p", src)
            .diagnostics
            .iter()
            .map(|d| d.lint.id())
            .collect()
    }

    #[test]
    fn clean_predicate_has_no_findings() {
        assert!(lint_ids("MIN($ALLWNODES-$MYWNODE)", 0).is_empty());
        assert!(lint_ids("KTH_MAX(2, $ALLWNODES-$MYWNODE)", 0).is_empty());
    }

    #[test]
    fn syntax_error_is_reported_with_span() {
        let acks = AckTypeRegistry::new();
        let t = topo();
        let a = Analyzer::new(&t, &acks, NodeId(0));
        let r = a.analyze("p", "MAX($1");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].lint, Lint::SyntaxError);
        assert_eq!(r.diagnostics[0].span, Span::point(6));
    }

    #[test]
    fn unknown_names_all_reported_in_one_pass() {
        // Leniency: both bad names surface, not just the first.
        let ids = lint_ids("MAX($WNODE_nope, $AZ_Mars)", 0);
        assert_eq!(ids, vec!["unknown-name", "unknown-name"]);
    }

    #[test]
    fn empty_subset_inside_nonempty_reduction_is_flagged() {
        // s1 is alone in its AZ: $MYAZWNODES-$MYWNODE = {} but the
        // reduction still has $1 — the resolver accepts this silently,
        // the analyzer does not.
        let ids = lint_ids("MAX($1, $MYAZWNODES-$MYWNODE)", 4);
        assert_eq!(ids, vec!["empty-set"]);
    }

    #[test]
    fn fully_empty_reduction_is_flagged() {
        let ids = lint_ids("MIN($MYAZWNODES-$MYWNODE)", 4);
        assert!(ids.contains(&"empty-set"));
    }

    #[test]
    fn static_rank_out_of_range_is_flagged() {
        let ids = lint_ids("KTH_MAX(9, $ALLWNODES)", 0);
        assert_eq!(ids, vec!["rank-out-of-range"]);
        assert!(lint_ids("KTH_MAX(5, $ALLWNODES)", 0).is_empty());
    }

    #[test]
    fn bad_ranks_are_flagged() {
        assert_eq!(lint_ids("KTH_MAX(0, $ALLWNODES)", 0), vec!["bad-rank"]);
        assert_eq!(
            lint_ids("KTH_MAX(MAX($1), $ALLWNODES)", 0),
            vec!["bad-rank"]
        );
        assert_eq!(lint_ids("KTH_MAX(1/0, $ALLWNODES)", 0), vec!["bad-rank"]);
    }

    #[test]
    fn duplicate_operands_are_flagged() {
        // (me = e2 throughout so MAX over node $1 isn't also vacuous.)
        assert_eq!(lint_ids("MAX($1, $1)", 1), vec!["duplicate-operand"]);
        // $ALLWNODES already contains $2.
        assert_eq!(
            lint_ids("MIN($ALLWNODES, $2)", 1),
            vec!["duplicate-operand"]
        );
        // Distinct suffixes are distinct cells — no duplicate.
        assert!(lint_ids("MAX($1.received, $1.persisted)", 1).is_empty());
    }

    #[test]
    fn useless_difference_is_flagged() {
        // At e1, $AZ_West does not intersect $MYAZWNODES. (MIN keeps the
        // predicate non-vacuous: it still waits on e2.)
        let ids = lint_ids("MIN($MYAZWNODES-$AZ_West)", 0);
        assert_eq!(ids, vec!["useless-difference"]);
    }

    #[test]
    fn vacuous_predicate_is_flagged() {
        assert_eq!(lint_ids("MAX($ALLWNODES)", 0), vec!["vacuous-predicate"]);
        assert_eq!(lint_ids("MAX($MYWNODE)", 0), vec!["vacuous-predicate"]);
        assert!(lint_ids("MAX($ALLWNODES-$MYWNODE)", 0).is_empty());
    }

    #[test]
    fn constant_frontier_is_flagged() {
        assert_eq!(lint_ids("MAX(7)", 0), vec!["constant-frontier"]);
    }

    #[test]
    fn unknown_ack_type_is_flagged() {
        assert_eq!(
            lint_ids("MIN($ALLWNODES.verified)", 0),
            vec!["unknown-ack-type"]
        );
    }

    #[test]
    fn unemitted_ack_type_needs_emissions_model() {
        let acks = AckTypeRegistry::new();
        let verified = acks.register("verified");
        let t = topo();
        // Without a model: silent.
        let a = Analyzer::new(&t, &acks, NodeId(0));
        assert!(a
            .analyze("p", "MIN(($ALLWNODES-$MYWNODE).verified)")
            .is_clean());
        // With a model where only e2 emits .verified: flagged.
        let mut em = AckEmissions::new();
        em.restrict(verified, &[NodeId(1)]);
        let a = Analyzer::new(&t, &acks, NodeId(0)).with_emissions(&em);
        let r = a.analyze("p", "MIN(($ALLWNODES-$MYWNODE).verified)");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].lint, Lint::UnemittedAckType);
        assert!(r.diagnostics[0].message.contains("w1"));
        // A predicate reading only e2 is fine.
        let r = a.analyze("p", "MAX($WNODE_e2.verified)");
        assert!(r.is_clean());
    }

    #[test]
    fn crash_unsatisfiable_needs_budget() {
        let acks = AckTypeRegistry::new();
        let t = topo();
        let a = Analyzer::new(&t, &acks, NodeId(0));
        assert!(a.analyze("p", "MIN($ALLWNODES-$MYWNODE)").is_clean());
        let a = Analyzer::new(&t, &acks, NodeId(0)).with_failure_budget(1);
        let r = a.analyze("p", "MIN($ALLWNODES-$MYWNODE)");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].lint, Lint::CrashUnsatisfiable);
        // MAX of remotes survives one crash.
        assert!(a.analyze("p", "MAX($ALLWNODES-$MYWNODE)").is_clean());
    }

    #[test]
    fn non_replica_operand_needs_a_replica_set() {
        let acks = AckTypeRegistry::new();
        let t = topo();
        // Without a replica set: silent.
        let a = Analyzer::new(&t, &acks, NodeId(0));
        assert!(a.analyze("p", "MAX($WNODE_w2)").is_clean());
        // Stream replicated on {e1, e2, w1}: naming w2 is an error.
        let reps = [NodeId(0), NodeId(1), NodeId(2)];
        let a = Analyzer::new(&t, &acks, NodeId(0)).with_replicas(&reps);
        let r = a.analyze("p", "MAX($WNODE_w2)");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].lint, Lint::NonReplicaOperand);
        assert!(r.diagnostics[0].message.contains("w2"));
        // Positional operands fire too ($4 is w2).
        let r = a.analyze("p", "MIN($2, $4)");
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::NonReplicaOperand));
        // Macro sets restrict silently — no finding.
        assert!(a.analyze("p", "MIN($ALLWNODES-$MYWNODE)").is_clean());
        // Subtracting a non-replica is removal, not waiting: silent
        // (the difference is also not useless, w2 is in $ALLWNODES).
        assert!(a.analyze("p", "MIN($ALLWNODES-$WNODE_w2)").is_clean());
        // A replica named explicitly is fine.
        assert!(a.analyze("p", "MAX($WNODE_w1)").is_clean());
    }

    #[test]
    fn dominance_over_a_set_of_predicates() {
        let acks = AckTypeRegistry::new();
        let t = topo();
        let a = Analyzer::new(&t, &acks, NodeId(0));
        let preds = vec![
            ("All".to_string(), "MIN($ALLWNODES-$MYWNODE)".to_string()),
            ("One".to_string(), "MAX($ALLWNODES-$MYWNODE)".to_string()),
            (
                "AlsoOne".to_string(),
                "KTH_MAX(1, $ALLWNODES-$MYWNODE)".to_string(),
            ),
        ];
        let reports = a.analyze_set(&preds);
        // 'One' is implied by 'All' (info only — still clean).
        assert!(reports[1]
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::DominatedPredicate));
        assert!(reports[1].is_clean());
        // 'AlsoOne' is equivalent to 'One' (warning).
        assert!(reports[2]
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::EquivalentPredicates));
        assert!(!reports[2].is_clean());
    }

    #[test]
    fn rank_spans_point_at_the_rank_argument() {
        let acks = AckTypeRegistry::new();
        let t = topo();
        let a = Analyzer::new(&t, &acks, NodeId(0));
        let src = "KTH_MAX(9, $ALLWNODES)";
        let r = a.analyze("p", src);
        let d = &r.diagnostics[0];
        assert_eq!(&src[d.span.start..d.span.end], "9");
    }
}
