//! Recursive-descent parser for the predicate DSL (the paper uses Bison;
//! the grammar is small enough that a hand-written parser is clearer and
//! gives better error messages).
//!
//! Grammar (informal):
//!
//! ```text
//! predicate := call EOF
//! call      := OP '(' expr (',' expr)* ')'
//! expr      := term (('+'|'-') term)*         -- '-' is set difference when
//! term      := postfix (('*'|'/') postfix)*      both sides are sets
//! postfix   := primary ('.' IDENT)?           -- ACK-type suffix on sets
//! primary   := call | SIZEOF '(' expr ')' | INT | set-atom | '(' expr ')'
//! set-atom  := '$'N | $ALLWNODES | $MYAZWNODES | $MYWNODE | $WNODE_x | $AZ_x
//! ```
//!
//! The parser builds the span-carrying [`SpannedExpr`] tree that every
//! later stage reads. It refuses a predicate that nests more than
//! `MAX_DEPTH` (128) levels deep, so neither it nor any pass after it
//! recurses without bound.

use crate::ast::{
    AckTypeName, BinOp, Op, SpannedAck, SpannedExpr, SpannedExprKind, SpannedSet, SpannedSetKind,
};
use crate::error::DslError;
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Spanned, Token};

/// How many levels a predicate may nest. Every call, parenthesis and
/// `SIZEOF` is a level, and so is each link of a `+ - * /` or
/// set-difference chain, which [`combine`] builds left-deep; a
/// predicate's depth is its most levels along any path from the
/// top-level call to an operand. The resolver, the optimizer, the
/// compiler, the analyzer and `Drop` all recurse on the tree, so this
/// bounds their stacks as well as the parser's.
const MAX_DEPTH: usize = 128;

/// Parse a predicate source string into its syntax tree.
///
/// The top level must be a reduction call (`MAX(...)`, `MIN(...)`,
/// `KTH_MAX(...)`, `KTH_MIN(...)`), per the paper's predicate form
/// `p = O(x)`.
///
/// # Errors
///
/// Returns [`DslError::Lex`] or [`DslError::Parse`] describing the first
/// problem encountered (a predicate nested more than `MAX_DEPTH` (128)
/// levels deep is a [`DslError::Parse`] at the token that goes past the
/// bound), or [`DslError::Type`] when `-` mixes a set with a number or a
/// suffix is attached to a non-set.
pub fn parse(src: &str) -> Result<SpannedExpr, DslError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        at: 0,
        depth: 0,
    };
    let (expr, _) = p.parse_call()?;
    p.expect(Token::Eof)?;
    Ok(expr)
}

/// A parsed (sub-)expression and its depth in levels (see
/// [`MAX_DEPTH`]).
type Nested = (SpannedExpr, usize);

struct Parser {
    toks: Vec<Spanned>,
    at: usize,
    /// Calls, parentheses and `SIZEOF`s open around the token at hand.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.at].tok
    }

    fn span(&self) -> Span {
        self.toks[self.at].span
    }

    fn bump(&mut self) -> (Token, Span) {
        let t = self.toks[self.at].tok.clone();
        let s = self.toks[self.at].span;
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        (t, s)
    }

    fn expect(&mut self, want: Token) -> Result<Span, DslError> {
        if *self.peek() == want {
            Ok(self.bump().1)
        } else {
            Err(DslError::Parse {
                span: self.span(),
                msg: format!("expected {want}, found {}", self.peek()),
            })
        }
    }

    /// Refuse, at `span`, a node `depth` levels deep inside the levels
    /// open around it.
    fn within(&self, depth: usize, span: Span) -> Result<(), DslError> {
        if self.depth + depth > MAX_DEPTH {
            return Err(DslError::Parse {
                span,
                msg: format!("predicate nests more than {MAX_DEPTH} levels deep"),
            });
        }
        Ok(())
    }

    /// Open a level at the token at hand: a call, a parenthesis or a
    /// `SIZEOF`. Its parser closes it with `self.depth -= 1`.
    fn open(&mut self) -> Result<(), DslError> {
        self.within(1, self.span())?;
        self.depth += 1;
        Ok(())
    }

    fn parse_call(&mut self) -> Result<Nested, DslError> {
        let op = match self.peek() {
            Token::Max => Op::Max,
            Token::Min => Op::Min,
            Token::KthMax => Op::KthMax,
            Token::KthMin => Op::KthMin,
            other => {
                return Err(DslError::Parse {
                    span: self.span(),
                    msg: format!("expected MAX, MIN, KTH_MAX or KTH_MIN, found {other}"),
                })
            }
        };
        self.open()?;
        let (_, op_span) = self.bump();
        self.expect(Token::LParen)?;
        let (first, mut depth) = self.parse_expr()?;
        let mut args = vec![first];
        while *self.peek() == Token::Comma {
            self.bump();
            let (arg, d) = self.parse_expr()?;
            depth = depth.max(d);
            args.push(arg);
        }
        let close = self.expect(Token::RParen)?;
        self.depth -= 1;
        let call = SpannedExpr {
            span: op_span.to(close),
            kind: SpannedExprKind::Call(op, op_span, args),
        };
        Ok((call, depth + 1))
    }

    fn parse_expr(&mut self) -> Result<Nested, DslError> {
        self.parse_chain(Self::parse_term, |t| match t {
            Token::Plus => Some(BinOp::Add),
            Token::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn parse_term(&mut self) -> Result<Nested, DslError> {
        self.parse_chain(Self::parse_postfix, |t| match t {
            Token::Star => Some(BinOp::Mul),
            Token::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    /// `operand (op operand)*`, combined left-deep: each link is a level.
    fn parse_chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Nested, DslError>,
        op_of: fn(&Token) -> Option<BinOp>,
    ) -> Result<Nested, DslError> {
        let (mut lhs, mut depth) = operand(self)?;
        while let Some(op) = op_of(self.peek()) {
            let (_, op_span) = self.bump();
            let (rhs, d) = operand(self)?;
            depth = depth.max(d) + 1;
            self.within(depth, op_span)?;
            lhs = combine(lhs, op, rhs, op_span)?;
        }
        Ok((lhs, depth))
    }

    fn parse_postfix(&mut self) -> Result<Nested, DslError> {
        let (e, depth) = self.parse_primary()?;
        if *self.peek() == Token::Dot {
            let (_, dot_span) = self.bump();
            let (name, name_span) = match self.bump() {
                (Token::Ident(name), s) => (name, s),
                (other, _) => {
                    return Err(DslError::Parse {
                        span: dot_span,
                        msg: format!("expected ACK-type name after '.', found {other}"),
                    })
                }
            };
            let suffix = SpannedAck {
                name: AckTypeName(name.clone()),
                span: dot_span.to(name_span),
            };
            return match e.kind {
                SpannedExprKind::Values(set, None) => {
                    let values = SpannedExpr {
                        span: e.span.to(suffix.span),
                        kind: SpannedExprKind::Values(set, Some(suffix)),
                    };
                    Ok((values, depth))
                }
                SpannedExprKind::Values(_, Some(prev)) => Err(DslError::Type(format!(
                    "operand already has suffix .{}; cannot add .{name}",
                    prev.name
                ))),
                _ => Err(DslError::Type(format!(
                    "suffix .{name} can only be applied to a WAN-node set"
                ))),
            };
        }
        Ok((e, depth))
    }

    fn parse_primary(&mut self) -> Result<Nested, DslError> {
        match self.peek().clone() {
            Token::Max | Token::Min | Token::KthMax | Token::KthMin => self.parse_call(),
            Token::Sizeof => {
                self.open()?;
                let (_, kw_span) = self.bump();
                self.expect(Token::LParen)?;
                let (inner, depth) = self.parse_expr()?;
                let close = self.expect(Token::RParen)?;
                self.depth -= 1;
                match inner.kind {
                    SpannedExprKind::Values(set, None) => {
                        let sizeof = SpannedExpr {
                            span: kw_span.to(close),
                            kind: SpannedExprKind::Sizeof(set),
                        };
                        Ok((sizeof, depth + 1))
                    }
                    SpannedExprKind::Values(_, Some(suf)) => Err(DslError::Type(format!(
                        "SIZEOF takes a bare node set, not one suffixed with .{}",
                        suf.name
                    ))),
                    _ => Err(DslError::Type("SIZEOF requires a WAN-node set".into())),
                }
            }
            Token::Int(n) => {
                let (_, span) = self.bump();
                let int = SpannedExpr {
                    span,
                    kind: SpannedExprKind::Int(n),
                };
                Ok((int, 0))
            }
            Token::NodeOperand(n) => Ok(self.set_atom(SpannedSetKind::Node(n))),
            Token::AllWNodes => Ok(self.set_atom(SpannedSetKind::All)),
            Token::MyAzWNodes => Ok(self.set_atom(SpannedSetKind::MyAz)),
            Token::MyWNode => Ok(self.set_atom(SpannedSetKind::Me)),
            Token::WNodeVar(name) => Ok(self.set_atom(SpannedSetKind::NodeVar(name))),
            Token::AzVar(name) => Ok(self.set_atom(SpannedSetKind::AzVar(name))),
            Token::LParen => {
                self.open()?;
                self.bump();
                let (inner, depth) = self.parse_expr()?;
                self.expect(Token::RParen)?;
                self.depth -= 1;
                Ok((inner, depth + 1))
            }
            other => Err(DslError::Parse {
                span: self.span(),
                msg: format!("expected an operand, found {other}"),
            }),
        }
    }

    fn set_atom(&mut self, kind: SpannedSetKind) -> Nested {
        let (_, span) = self.bump();
        let values = SpannedExpr {
            span,
            kind: SpannedExprKind::Values(SpannedSet { kind, span }, None),
        };
        (values, 0)
    }
}

/// Combine two operands under a binary operator, giving `-` its
/// set-difference meaning when both sides are (unsuffixed) sets.
fn combine(
    lhs: SpannedExpr,
    op: BinOp,
    rhs: SpannedExpr,
    op_span: Span,
) -> Result<SpannedExpr, DslError> {
    let span = lhs.span.to(rhs.span);
    match (op, &lhs.kind, &rhs.kind) {
        (BinOp::Sub, SpannedExprKind::Values(_, None), SpannedExprKind::Values(_, None)) => {
            let (SpannedExprKind::Values(a, None), SpannedExprKind::Values(b, None)) =
                (lhs.kind, rhs.kind)
            else {
                unreachable!()
            };
            Ok(SpannedExpr {
                span,
                kind: SpannedExprKind::Values(
                    SpannedSet {
                        span,
                        kind: SpannedSetKind::Diff(Box::new(a), Box::new(b)),
                    },
                    None,
                ),
            })
        }
        _ => {
            if !lhs.is_scalar() || !rhs.is_scalar() {
                return Err(DslError::Parse {
                    span: op_span,
                    msg: format!(
                        "operator '{op}' requires numeric operands (or '-' between two node sets)"
                    ),
                });
            }
            Ok(SpannedExpr {
                span,
                kind: SpannedExprKind::Arith(op, Box::new(lhs), Box::new(rhs)),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SpannedExprKind::{Arith, Call, Int, Sizeof, Values};
    use SpannedSetKind::{All, Diff, Me, Node};

    /// The operator and arguments of the call `src` parses to.
    fn call(src: &str) -> (Op, Vec<SpannedExpr>) {
        match parse(src).unwrap().kind {
            Call(op, _, args) => (op, args),
            other => panic!("{src} parsed to {other:?}"),
        }
    }

    #[test]
    fn parses_simple_reduction() {
        let (op, args) = call("MAX($1, $2, $3)");
        assert_eq!(op, Op::Max);
        assert_eq!(args.len(), 3);
        assert!(matches!(&args[0].kind, Values(set, None) if set.kind == Node(1)));
    }

    #[test]
    fn parses_set_difference() {
        let (op, args) = call("MIN($ALLWNODES-$MYWNODE)");
        assert_eq!(op, Op::Min);
        let Values(set, None) = &args[0].kind else {
            panic!("got {:?}", args[0])
        };
        let Diff(a, b) = &set.kind else {
            panic!("got {set:?}")
        };
        assert_eq!((&a.kind, &b.kind), (&All, &Me));
    }

    #[test]
    fn parses_suffix_on_parenthesized_difference() {
        let (op, args) = call("MIN(($MYAZWNODES-$MYWNODE).verified)");
        assert_eq!(op, Op::Min);
        let Values(set, Some(suffix)) = &args[0].kind else {
            panic!("got {:?}", args[0])
        };
        assert!(matches!(set.kind, Diff(..)));
        assert_eq!(suffix.name.0, "verified");
    }

    #[test]
    fn parses_quorum_write_predicate() {
        let (op, args) = call("KTH_MIN(SIZEOF($ALLWNODES)/2+1, $ALLWNODES)");
        assert_eq!(op, Op::KthMin);
        assert!(args[0].is_scalar());
        // (SIZEOF(all) / 2) + 1 — '*'/'/' bind tighter than '+'.
        let Arith(BinOp::Add, l, r) = &args[0].kind else {
            panic!("got {:?}", args[0])
        };
        assert_eq!(r.kind, Int(1));
        let Arith(BinOp::Div, sl, sr) = &l.kind else {
            panic!()
        };
        assert!(matches!(&sl.kind, Sizeof(set) if set.kind == All));
        assert_eq!(sr.kind, Int(2));
    }

    #[test]
    fn parses_nested_calls_from_table3() {
        let (op, args) =
            call("KTH_MAX(2, MAX($AZ_North_Virginia), MAX($AZ_Oregon), MAX($AZ_Ohio))");
        assert_eq!(op, Op::KthMax);
        assert_eq!(args.len(), 4);
        assert_eq!(args[0].kind, Int(2));
        assert!(matches!(args[1].kind, Call(Op::Max, ..)));
    }

    #[test]
    fn parses_az_use_case_predicate() {
        // §IV-A: fully AZ-replicated AND at least one remote site.
        let (op, _) = call("MIN(MIN($MYAZWNODES-$MYWNODE), MAX($ALLWNODES-$MYAZWNODES))");
        assert_eq!(op, Op::Min);
    }

    #[test]
    fn top_level_must_be_a_call() {
        assert!(matches!(parse("$1"), Err(DslError::Parse { .. })));
        assert!(matches!(parse("42"), Err(DslError::Parse { .. })));
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(matches!(parse("MAX($1) $2"), Err(DslError::Parse { .. })));
    }

    #[test]
    fn mixing_set_and_number_under_minus_is_an_error() {
        assert!(parse("MAX($ALLWNODES - 1)").is_err());
        assert!(parse("MAX(1 - $ALLWNODES)").is_err());
    }

    #[test]
    fn suffix_on_number_is_an_error() {
        assert!(matches!(parse("MAX(3.received)"), Err(DslError::Type(_))));
    }

    #[test]
    fn double_suffix_is_an_error() {
        assert!(parse("MAX($1.received.persisted)").is_err());
    }

    #[test]
    fn sizeof_of_number_is_an_error() {
        assert!(matches!(parse("MAX(SIZEOF(3))"), Err(DslError::Type(_))));
        assert!(parse("MAX(SIZEOF($ALLWNODES.persisted))").is_err());
    }

    #[test]
    fn missing_paren_reported_with_position() {
        let Err(DslError::Parse { span, .. }) = parse("MAX($1") else {
            panic!()
        };
        assert_eq!(span, Span::point(6));
    }

    #[test]
    fn arithmetic_on_call_results_is_allowed() {
        // Generalization beyond the paper's examples: calls are scalars.
        let (op, args) = call("KTH_MAX(MAX($1)+1, $ALLWNODES)");
        assert_eq!(op, Op::KthMax);
        assert!(matches!(args[0].kind, Arith(BinOp::Add, ..)));
    }

    #[test]
    fn empty_argument_list_rejected() {
        assert!(parse("MAX()").is_err());
    }

    #[test]
    fn spanned_tree_matches_source_slices() {
        let src = "KTH_MAX(2, MAX($AZ_Oregon), $ALLWNODES.persisted)";
        let e = parse(src).unwrap();
        // The whole predicate spans the whole source.
        assert_eq!(&src[e.span.start..e.span.end], src);
        let SpannedExprKind::Call(Op::KthMax, op_span, args) = &e.kind else {
            panic!()
        };
        assert_eq!(&src[op_span.start..op_span.end], "KTH_MAX");
        assert_eq!(&src[args[0].span.start..args[0].span.end], "2");
        assert_eq!(
            &src[args[1].span.start..args[1].span.end],
            "MAX($AZ_Oregon)"
        );
        assert_eq!(
            &src[args[2].span.start..args[2].span.end],
            "$ALLWNODES.persisted"
        );
        let SpannedExprKind::Values(set, Some(suffix)) = &args[2].kind else {
            panic!()
        };
        assert_eq!(&src[set.span.start..set.span.end], "$ALLWNODES");
        assert_eq!(&src[suffix.span.start..suffix.span.end], ".persisted");
    }

    #[test]
    fn set_difference_span_covers_both_operands() {
        let src = "MAX($ALLWNODES-$MYWNODE)";
        let e = parse(src).unwrap();
        let SpannedExprKind::Call(_, _, args) = &e.kind else {
            panic!()
        };
        assert_eq!(
            &src[args[0].span.start..args[0].span.end],
            "$ALLWNODES-$MYWNODE"
        );
    }

    /// `n` levels of each nesting shape: calls, parentheses, `SIZEOF`
    /// under arithmetic, and the links of an arithmetic and a
    /// set-difference chain, inside the top-level call.
    fn shapes(n: usize) -> [String; 5] {
        [
            format!("{}$1{}", "MAX(".repeat(n), ")".repeat(n)),
            format!("MAX({}$1{})", "(".repeat(n - 1), ")".repeat(n - 1)),
            format!("KTH_MIN(1{}, $1)", "+0".repeat(n - 1)),
            format!("MIN($1{})", "-$2".repeat(n - 1)),
            // Each `SIZEOF($1)+(` is two levels, and a `SIZEOF` leaf one.
            format!(
                "KTH_MIN({}{}{}, $1)",
                "SIZEOF($1)+(".repeat((n - 1) / 2),
                if n.is_multiple_of(2) {
                    "SIZEOF($1)"
                } else {
                    "1"
                },
                ")".repeat((n - 1) / 2)
            ),
        ]
    }

    #[test]
    fn nesting_is_bounded_at_the_token_that_goes_past_it() {
        for src in shapes(MAX_DEPTH) {
            parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
        for src in shapes(MAX_DEPTH + 1) {
            let Err(DslError::Parse { span, msg }) = parse(&src) else {
                panic!("{src} parsed")
            };
            assert!(msg.contains("levels deep"), "{msg}");
            assert!(span.end <= src.len());
        }
        // The offending token is the first one past the bound.
        let src = format!("MIN($1{})", "-$2".repeat(MAX_DEPTH));
        let Err(DslError::Parse { span, .. }) = parse(&src) else {
            panic!()
        };
        let minus = "MIN($1".len() + 3 * (MAX_DEPTH - 1);
        assert_eq!(span, Span::new(minus, minus + 1));
    }

    #[test]
    fn a_chain_in_parentheses_counts_toward_the_chain_around_it() {
        // Each group holds a chain: levels add up along the path rather
        // than restarting inside each parenthesis.
        let k = 12;
        let mut src = "$1".to_owned();
        for _ in 0..k {
            src = format!("({src}{})", "-$2".repeat(k));
        }
        let depth = k * (k + 1) + 1;
        assert!(depth > MAX_DEPTH);
        assert!(matches!(
            parse(&format!("MIN({src})")),
            Err(DslError::Parse { .. })
        ));
    }
}
