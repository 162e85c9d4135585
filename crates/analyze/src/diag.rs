//! Diagnostics: lint identities, severities, and rendering.
//!
//! Every finding the analyzer produces is a [`Diagnostic`] — a lint id, a
//! byte-offset [`Span`] into the predicate source, a message, and optional
//! notes. A [`Report`] bundles the diagnostics for one predicate and
//! renders them caret-style for humans or as JSON for machines.

use stabilizer_dsl::Span;
use std::fmt;

/// How serious a finding is.
///
/// `Error` findings mean the predicate is statically wrong (it cannot
/// behave as written); `Warning` findings are almost certainly mistakes
/// but have well-defined runtime behavior; `Info` findings are facts a
/// user may want to know (e.g. a predicate dominated by a co-installed
/// one). Ordering: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational finding; never gates installation.
    Info,
    /// Suspicious but well-defined; rejected only under `analysis deny`.
    Warning,
    /// Statically wrong; rejected under both `warn` (reported) and `deny`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The lint catalog: every distinct class of finding `stabcheck` can
/// produce. See the README "Predicate analysis" section for the full
/// id / severity / example / fix table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// The source does not lex/parse/type-check as a predicate.
    SyntaxError,
    /// Unknown node name, AZ name, or node operand out of range.
    UnknownName,
    /// `.suffix` names an ACK type that is not registered.
    UnknownAckType,
    /// A set expression expands to no nodes (the reduction silently
    /// loses those operands, or has none at all).
    EmptySet,
    /// A compile-time-constant `KTH_*` rank exceeds the operand count.
    RankOutOfRange,
    /// A `KTH_*` rank that is zero, non-constant, or fails to fold
    /// (overflow, division by zero).
    BadRank,
    /// The same `(node, ack-type)` cell appears more than once in one
    /// reduction, skewing rank semantics.
    DuplicateOperand,
    /// A set difference whose right-hand side removes nothing.
    UselessDifference,
    /// The predicate is satisfied by the origin's own acknowledgment
    /// alone — it never waits for any remote node.
    VacuousPredicate,
    /// The predicate reads no ACK cell at all; its frontier is a
    /// constant.
    ConstantFrontier,
    /// The predicate waits on an ACK type that a referenced node never
    /// emits under the configured topology.
    UnemittedAckType,
    /// This predicate's frontier is provably always ≥ a co-installed
    /// predicate's — satisfying the other one implies this one.
    DominatedPredicate,
    /// Two co-installed predicates provably compute the same frontier.
    EquivalentPredicates,
    /// With the configured failure budget `f`, some set of `f` crashed
    /// nodes prevents the predicate from ever advancing.
    CrashUnsatisfiable,
    /// The predicate explicitly names a node outside the stream's
    /// replica set (partial replication): that node never receives or
    /// acks the stream, so the frontier can never advance past it.
    NonReplicaOperand,
    /// The availability prover found `f* = 0`: a single crash of the
    /// wrong node stalls the frontier forever.
    ZeroFaultTolerance,
    /// The predicate tolerates crashes (`f* ≥ 1`) but a single-AZ
    /// network cut still strands the vantage from every blocking-set
    /// complement.
    PartitionVulnerable,
    /// The same predicate has different crash tolerance `f*` at
    /// different vantages; the weakest vantage bounds the deployment.
    ToleranceAsymmetry,
}

impl Lint {
    /// Every lint, in catalog order.
    pub const ALL: [Lint; 18] = [
        Lint::SyntaxError,
        Lint::UnknownName,
        Lint::UnknownAckType,
        Lint::EmptySet,
        Lint::RankOutOfRange,
        Lint::BadRank,
        Lint::DuplicateOperand,
        Lint::UselessDifference,
        Lint::VacuousPredicate,
        Lint::ConstantFrontier,
        Lint::UnemittedAckType,
        Lint::DominatedPredicate,
        Lint::EquivalentPredicates,
        Lint::CrashUnsatisfiable,
        Lint::NonReplicaOperand,
        Lint::ZeroFaultTolerance,
        Lint::PartitionVulnerable,
        Lint::ToleranceAsymmetry,
    ];

    /// Stable kebab-case identifier (used in rendered output and JSON).
    pub fn id(&self) -> &'static str {
        match self {
            Lint::SyntaxError => "syntax-error",
            Lint::UnknownName => "unknown-name",
            Lint::UnknownAckType => "unknown-ack-type",
            Lint::EmptySet => "empty-set",
            Lint::RankOutOfRange => "rank-out-of-range",
            Lint::BadRank => "bad-rank",
            Lint::DuplicateOperand => "duplicate-operand",
            Lint::UselessDifference => "useless-difference",
            Lint::VacuousPredicate => "vacuous-predicate",
            Lint::ConstantFrontier => "constant-frontier",
            Lint::UnemittedAckType => "unemitted-ack-type",
            Lint::DominatedPredicate => "dominated-predicate",
            Lint::EquivalentPredicates => "equivalent-predicates",
            Lint::CrashUnsatisfiable => "crash-unsatisfiable",
            Lint::NonReplicaOperand => "non-replica-operand",
            Lint::ZeroFaultTolerance => "zero-fault-tolerance",
            Lint::PartitionVulnerable => "partition-vulnerable",
            Lint::ToleranceAsymmetry => "tolerance-asymmetry",
        }
    }

    /// The fixed severity of this lint class.
    pub fn severity(&self) -> Severity {
        match self {
            Lint::SyntaxError
            | Lint::UnknownName
            | Lint::UnknownAckType
            | Lint::EmptySet
            | Lint::RankOutOfRange
            | Lint::BadRank
            | Lint::UnemittedAckType
            | Lint::NonReplicaOperand => Severity::Error,
            Lint::DuplicateOperand
            | Lint::UselessDifference
            | Lint::VacuousPredicate
            | Lint::ConstantFrontier
            | Lint::EquivalentPredicates
            | Lint::CrashUnsatisfiable
            | Lint::ZeroFaultTolerance
            | Lint::PartitionVulnerable => Severity::Warning,
            Lint::DominatedPredicate | Lint::ToleranceAsymmetry => Severity::Info,
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One analyzer finding: a lint instance anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// Byte range of the offending source text.
    pub span: Span,
    /// Human-readable description of the problem.
    pub message: String,
    /// Supplementary notes (rendered as `= note:` lines).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Construct a diagnostic with no notes.
    pub fn new(lint: Lint, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            lint,
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Append a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Severity of this diagnostic (fixed per lint class).
    pub fn severity(&self) -> Severity {
        self.lint.severity()
    }
}

/// The analysis result for one named predicate: its source plus every
/// diagnostic that fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Name of the analyzed predicate (config key or CLI-assigned).
    pub name: String,
    /// The predicate source text the spans index into.
    pub source: String,
    /// Findings, in source-walk order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// A report with no findings yet.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        Report {
            name: name.into(),
            source: source.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Number of diagnostics at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == sev)
            .count()
    }

    /// The most severe finding, if any.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity()).max()
    }

    /// True if the predicate has no error- or warning-level findings
    /// (informational findings do not spoil cleanliness).
    pub fn is_clean(&self) -> bool {
        self.worst().is_none_or(|w| w <= Severity::Info)
    }

    /// True if any finding is at or above `sev`.
    pub fn has_at_least(&self, sev: Severity) -> bool {
        self.worst().is_some_and(|w| w >= sev)
    }

    /// Render every diagnostic caret-style for a terminal, e.g.:
    ///
    /// ```text
    /// error[empty-set]: set expression expands to no nodes
    ///  --> OneRemote:1:5
    ///   |
    /// 1 | MIN($MYAZWNODES-$MYWNODE)
    ///   |     ^^^^^^^^^^^^^^^^^^^^
    ///   = note: evaluated at n7 (the only node in its AZ)
    /// ```
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&self.render_one(d));
        }
        out
    }

    fn render_one(&self, d: &Diagnostic) -> String {
        let (line_no, col, line_text, line_start) = self.locate(d.span);
        let mut out = format!("{}[{}]: {}\n", d.severity(), d.lint.id(), d.message);
        out.push_str(&format!(" --> {}:{}:{}\n", self.name, line_no, col));
        let gutter = line_no.to_string();
        let pad = " ".repeat(gutter.len());
        out.push_str(&format!("{pad} |\n"));
        out.push_str(&format!("{gutter} | {line_text}\n"));
        // Caret run covering the span's intersection with this line.
        let start_in_line = d.span.start.saturating_sub(line_start);
        let end_in_line = d.span.end.saturating_sub(line_start).min(line_text.len());
        let width = end_in_line.saturating_sub(start_in_line).max(1);
        out.push_str(&format!(
            "{pad} | {}{}\n",
            " ".repeat(start_in_line),
            "^".repeat(width)
        ));
        for note in &d.notes {
            out.push_str(&format!("{pad} = note: {note}\n"));
        }
        out
    }

    /// Map a span to (1-based line, 1-based column, line text, line start
    /// offset).
    fn locate(&self, span: Span) -> (usize, usize, &str, usize) {
        let start = span.start.min(self.source.len());
        let line_start = self.source[..start].rfind('\n').map_or(0, |i| i + 1);
        let line_no = self.source[..line_start].matches('\n').count() + 1;
        let line_end = self.source[line_start..]
            .find('\n')
            .map_or(self.source.len(), |i| line_start + i);
        (
            line_no,
            start - line_start + 1,
            &self.source[line_start..line_end],
            line_start,
        )
    }

    /// Render the report as a JSON object (no trailing newline):
    ///
    /// ```json
    /// {"name":"p","source":"MAX($1)","clean":true,"diagnostics":[...]}
    /// ```
    ///
    /// Each diagnostic carries `lint`, `severity`, `start`, `end`,
    /// `line`, `column`, `message`, and `notes`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"name\":{}", json_string(&self.name)));
        out.push_str(&format!(",\"source\":{}", json_string(&self.source)));
        out.push_str(&format!(",\"clean\":{}", self.is_clean()));
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (line, col, _, _) = self.locate(d.span);
            out.push_str(&format!(
                "{{\"lint\":{},\"severity\":{},\"start\":{},\"end\":{},\"line\":{line},\
                 \"column\":{col},\"message\":{},\"notes\":[{}]}}",
                json_string(d.lint.id()),
                json_string(&d.severity().to_string()),
                d.span.start,
                d.span.end,
                json_string(&d.message),
                d.notes
                    .iter()
                    .map(|n| json_string(n))
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Encode `s` as a JSON string literal (with surrounding quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Append `s` as a JSON string literal (with quotes) onto `out`: the
/// workspace's one JSON string escaper.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn every_lint_has_a_unique_id() {
        let mut ids: Vec<&str> = Lint::ALL.iter().map(Lint::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Lint::ALL.len());
    }

    #[test]
    fn report_cleanliness_ignores_info() {
        let mut r = Report::new("p", "MAX($1)");
        assert!(r.is_clean());
        r.diagnostics.push(Diagnostic::new(
            Lint::DominatedPredicate,
            Span::new(0, 7),
            "x",
        ));
        assert!(r.is_clean());
        r.diagnostics.push(Diagnostic::new(
            Lint::DuplicateOperand,
            Span::new(0, 7),
            "y",
        ));
        assert!(!r.is_clean());
        assert_eq!(r.worst(), Some(Severity::Warning));
    }

    #[test]
    fn caret_rendering_underlines_the_span() {
        let mut r = Report::new("p", "MAX($1, $1)");
        r.diagnostics
            .push(Diagnostic::new(Lint::DuplicateOperand, Span::new(8, 10), "dup").with_note("n"));
        let text = r.render_human();
        assert!(text.contains("warning[duplicate-operand]: dup"));
        assert!(text.contains(" --> p:1:9"));
        assert!(text.contains("1 | MAX($1, $1)"));
        assert!(text.contains("  |         ^^"));
        assert!(text.contains("  = note: n"));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn json_report_is_structurally_sound() {
        let mut r = Report::new("p", "MAX($9)");
        r.diagnostics.push(Diagnostic::new(
            Lint::UnknownName,
            Span::new(4, 6),
            "no such node",
        ));
        let j = r.render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"lint\":\"unknown-name\""));
        assert!(j.contains("\"severity\":\"error\""));
        assert!(j.contains("\"start\":4"));
        assert!(j.contains("\"clean\":false"));
    }
}
