//! A recursive-descent parser for the SPARQL fragment Lusail uses.

use crate::ast::*;
use lusail_rdf::syntax::{Cursor, SyntaxError};
use lusail_rdf::{vocab, Term};
use std::ops::{Deref, DerefMut};

/// A SPARQL parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    /// Byte offset of the error in the query text.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SPARQL parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<SyntaxError> for ParseError {
    fn from(e: SyntaxError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// What the parser accepts beyond the grammar: one limits value, read in
/// one place, so every recursion over a parsed query is bounded by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// How deeply a query may nest. Groups `{…}` and expressions (each
    /// operand, parenthesised or a function argument) share one counter,
    /// and each link of a left-deep chain — one more item of a group, one
    /// more `UNION`, `||`, `&&`, `+`, `-`, `*` or `/` — counts one level
    /// too, because the tree it builds is one level deeper. Past it the
    /// parser stops with a [`ParseError`] (a server answers 400), so the
    /// parser and every later recursion over the tree (normalisation, LADE,
    /// the serializer, the store's evaluator, expression evaluation) fit a
    /// 2 MiB thread stack, debug builds included.
    pub max_nesting: usize,
}

/// The limits [`parse_query`] enforces.
pub const PARSE_LIMITS: ParseLimits = ParseLimits { max_nesting: 64 };

/// Parse a SPARQL query string.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let mut p = Parser {
        cursor: Cursor::new(input),
        depth: 0,
    };
    let q = p.query()?;
    p.skip_trivia();
    if !p.rest().is_empty() {
        return p.err("trailing content after query");
    }
    Ok(q)
}

/// The SPARQL grammar over a [`Cursor`], which reads every term, keyword
/// and punctuation token (the parser derefs to it).
struct Parser<'a> {
    cursor: Cursor<'a>,
    /// Nesting levels entered so far (see [`ParseLimits::max_nesting`]).
    depth: usize,
}

impl<'a> Deref for Parser<'a> {
    type Target = Cursor<'a>;

    fn deref(&self) -> &Cursor<'a> {
        &self.cursor
    }
}

impl DerefMut for Parser<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.cursor
    }
}

impl<'a> Parser<'a> {
    /// Enter one more nesting level. The caller restores `depth` to what
    /// it was when its construct ends.
    fn nest(&mut self) -> Result<(), ParseError> {
        if self.depth == PARSE_LIMITS.max_nesting {
            return self.err(format!(
                "query nests deeper than {} levels",
                PARSE_LIMITS.max_nesting
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            self.err(format!("expected {token:?}"))
        }
    }

    fn peek_kw(&mut self, kw: &str) -> bool {
        let save = self.pos;
        let hit = self.eat_kw(kw);
        self.pos = save;
        hit
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {kw}"))
        }
    }

    // ---- entry points -------------------------------------------------

    fn query(&mut self) -> Result<Query, ParseError> {
        loop {
            if self.eat_kw("PREFIX") {
                self.prefix_decl()?;
            } else if self.eat_kw("BASE") {
                return self.err("BASE is not supported");
            } else {
                break;
            }
        }
        self.skip_trivia();
        let form = if self.peek_kw("SELECT") {
            QueryForm::Select(self.select_query()?)
        } else if self.eat_kw("ASK") {
            // WHERE keyword optional for ASK
            self.eat_kw("WHERE");
            QueryForm::Ask(self.group_graph_pattern()?)
        } else {
            return self.err("expected SELECT or ASK");
        };
        Ok(Query {
            prefixes: std::mem::take(&mut self.prefixes),
            form,
        })
    }

    fn select_query(&mut self) -> Result<SelectQuery, ParseError> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        self.eat_kw("REDUCED"); // treated as plain SELECT

        let projection = if self.eat("*") {
            Projection::All
        } else {
            // A mixed list of plain variables and (AGG(…) AS ?v) items.
            let mut vars: Vec<Variable> = Vec::new();
            let mut aggs: Vec<AggSpec> = Vec::new();
            loop {
                if let Some(v) = self.try_var()? {
                    vars.push(v);
                } else if self.peek_is('(') {
                    aggs.push(self.agg_item()?);
                } else {
                    break;
                }
            }
            if vars.is_empty() && aggs.is_empty() {
                return self.err("expected projection variables, '*', or (AGG(...) AS ?v)");
            }
            if aggs.is_empty() {
                Projection::Vars(vars)
            } else if vars.is_empty() && aggs.len() == 1 && aggs[0].func == AggFunc::Count {
                // Kept as the dedicated Count shape; re-classified as a
                // grouped aggregate below if a GROUP BY follows.
                Projection::Count {
                    inner: aggs[0].arg.clone(),
                    distinct: aggs[0].distinct,
                    as_var: aggs[0].as_var.clone(),
                }
            } else {
                Projection::Aggregate { keys: vars, aggs }
            }
        };

        self.eat_kw("WHERE");
        let pattern = self.group_graph_pattern()?;

        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            while let Some(v) = self.try_var()? {
                group_by.push(v);
            }
            if group_by.is_empty() {
                return self.err("expected GROUP BY keys");
            }
        }
        // A grouped COUNT is an aggregate projection after all.
        let projection = match projection {
            Projection::Count {
                inner,
                distinct,
                as_var,
            } if !group_by.is_empty() => Projection::Aggregate {
                keys: group_by.clone(),
                aggs: vec![AggSpec {
                    func: AggFunc::Count,
                    arg: inner,
                    distinct,
                    as_var,
                }],
            },
            other => other,
        };

        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                if self.eat_kw("ASC") {
                    self.expect("(")?;
                    let v = self.var()?;
                    self.expect(")")?;
                    order_by.push((v, true));
                } else if self.eat_kw("DESC") {
                    self.expect("(")?;
                    let v = self.var()?;
                    self.expect(")")?;
                    order_by.push((v, false));
                } else if let Some(v) = self.try_var()? {
                    order_by.push((v, true));
                } else {
                    break;
                }
            }
            if order_by.is_empty() {
                return self.err("expected ORDER BY keys");
            }
        }

        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_kw("LIMIT") {
                limit = Some(self.count()?);
            } else if self.eat_kw("OFFSET") {
                offset = Some(self.count()?);
            } else {
                break;
            }
        }

        Ok(SelectQuery {
            distinct,
            projection,
            pattern,
            group_by,
            order_by,
            limit,
            offset,
        })
    }

    /// `(AGG([DISTINCT] * | ?v) AS ?out)`.
    fn agg_item(&mut self) -> Result<AggSpec, ParseError> {
        self.expect("(")?;
        let func = if self.eat_kw("COUNT") {
            AggFunc::Count
        } else if self.eat_kw("SUM") {
            AggFunc::Sum
        } else if self.eat_kw("AVG") {
            AggFunc::Avg
        } else if self.eat_kw("MIN") {
            AggFunc::Min
        } else if self.eat_kw("MAX") {
            AggFunc::Max
        } else {
            return self.err("expected an aggregate function (COUNT/SUM/AVG/MIN/MAX)");
        };
        self.expect("(")?;
        let distinct = self.eat_kw("DISTINCT");
        let arg = if self.eat("*") {
            if func != AggFunc::Count {
                return self.err("only COUNT accepts *");
            }
            None
        } else {
            Some(self.var()?)
        };
        self.expect(")")?;
        self.expect_kw("AS")?;
        let as_var = self.var()?;
        self.expect(")")?;
        Ok(AggSpec {
            func,
            arg,
            distinct,
            as_var,
        })
    }

    // ---- graph patterns ------------------------------------------------

    fn group_graph_pattern(&mut self) -> Result<GraphPattern, ParseError> {
        let depth = self.depth;
        let group = self.group_body();
        self.depth = depth;
        group
    }

    fn group_body(&mut self) -> Result<GraphPattern, ParseError> {
        self.nest()?;
        self.expect("{")?;
        // Sub-select?
        self.skip_trivia();
        if self.peek_kw("SELECT") {
            let sub = self.select_query()?;
            self.expect("}")?;
            return Ok(GraphPattern::SubSelect(Box::new(sub)));
        }
        let mut acc = GraphPattern::empty();
        loop {
            self.skip_trivia();
            if self.eat("}") {
                return Ok(acc);
            }
            self.nest()?;
            if self.eat_kw("FILTER") {
                self.skip_trivia();
                if self.eat_kw("NOT") {
                    self.expect_kw("EXISTS")?;
                    let inner = self.group_graph_pattern()?;
                    acc =
                        GraphPattern::Filter(Box::new(acc), Expression::NotExists(Box::new(inner)));
                } else if self.eat_kw("EXISTS") {
                    let inner = self.group_graph_pattern()?;
                    acc = GraphPattern::Filter(Box::new(acc), Expression::Exists(Box::new(inner)));
                } else {
                    let expr = self.bracketted_or_builtin_expression()?;
                    acc = GraphPattern::Filter(Box::new(acc), expr);
                }
                self.eat(".");
            } else if self.eat_kw("OPTIONAL") {
                let inner = self.group_graph_pattern()?;
                acc = GraphPattern::LeftJoin(Box::new(acc), Box::new(inner));
                self.eat(".");
            } else if self.eat_kw("MINUS") {
                let inner = self.group_graph_pattern()?;
                acc = GraphPattern::Minus(Box::new(acc), Box::new(inner));
                self.eat(".");
            } else if self.eat_kw("BIND") {
                self.expect("(")?;
                let expr = self.expression()?;
                self.expect_kw("AS")?;
                let v = self.var()?;
                self.expect(")")?;
                acc = GraphPattern::Bind(Box::new(acc), expr, v);
                self.eat(".");
            } else if self.eat_kw("VALUES") {
                let values = self.values_clause()?;
                acc = acc.join(values);
                self.eat(".");
            } else if self.peek_is('{') {
                let mut branch = self.group_graph_pattern()?;
                while self.eat_kw("UNION") {
                    self.nest()?;
                    let right = self.group_graph_pattern()?;
                    branch = GraphPattern::Union(Box::new(branch), Box::new(right));
                }
                acc = acc.join(branch);
                self.eat(".");
            } else {
                let triples = self.triples_block()?;
                acc = acc.join(GraphPattern::Bgp(triples));
            }
        }
    }

    fn values_clause(&mut self) -> Result<GraphPattern, ParseError> {
        self.skip_trivia();
        if self.peek_is('(') {
            // VALUES (?a ?b) { (x y) (UNDEF z) ... }
            self.expect("(")?;
            let mut vars = Vec::new();
            while let Some(v) = self.try_var()? {
                vars.push(v);
            }
            self.expect(")")?;
            self.expect("{")?;
            let mut rows = Vec::new();
            loop {
                self.skip_trivia();
                if self.eat("}") {
                    break;
                }
                self.expect("(")?;
                let mut row = Vec::with_capacity(vars.len());
                for _ in 0..vars.len() {
                    self.skip_trivia();
                    if self.eat_kw("UNDEF") {
                        row.push(None);
                    } else {
                        row.push(Some(self.term()?));
                    }
                }
                self.expect(")")?;
                rows.push(row);
            }
            Ok(GraphPattern::Values(vars, rows))
        } else {
            // VALUES ?v { x y z }
            let v = self.var()?;
            self.expect("{")?;
            let mut rows = Vec::new();
            loop {
                self.skip_trivia();
                if self.eat("}") {
                    break;
                }
                if self.eat_kw("UNDEF") {
                    rows.push(vec![None]);
                } else {
                    rows.push(vec![Some(self.term()?)]);
                }
            }
            Ok(GraphPattern::Values(vec![v], rows))
        }
    }

    fn triples_block(&mut self) -> Result<Vec<TriplePattern>, ParseError> {
        let mut out = Vec::new();
        loop {
            let subject = self.term_pattern()?;
            loop {
                let predicate = if self.eat_kw("a") {
                    TermPattern::iri(vocab::rdf::TYPE)
                } else {
                    self.term_pattern()?
                };
                loop {
                    let object = self.term_pattern()?;
                    out.push(TriplePattern::new(
                        subject.clone(),
                        predicate.clone(),
                        object,
                    ));
                    if !self.eat(",") {
                        break;
                    }
                }
                if self.eat(";") {
                    self.skip_trivia();
                    // allow dangling ';' before '.' or '}'
                    if self.peek_is('.') || self.peek_is('}') {
                        break;
                    }
                    continue;
                }
                break;
            }
            if !self.eat(".") {
                break;
            }
            self.skip_trivia();
            // After '.', a new triples line may start unless a keyword or
            // '}' follows.
            if self.peek_is('}')
                || self.rest().is_empty()
                || self.peek_kw("FILTER")
                || self.peek_kw("OPTIONAL")
                || self.peek_kw("MINUS")
                || self.peek_kw("BIND")
                || self.peek_kw("VALUES")
                || self.peek_is('{')
            {
                break;
            }
        }
        Ok(out)
    }

    fn peek_is(&mut self, c: char) -> bool {
        self.skip_trivia();
        self.rest().starts_with(c)
    }

    // ---- expressions ---------------------------------------------------

    fn bracketted_or_builtin_expression(&mut self) -> Result<Expression, ParseError> {
        self.skip_trivia();
        if self.peek_is('(') {
            self.expect("(")?;
            let e = self.expression()?;
            self.expect(")")?;
            Ok(e)
        } else {
            // FILTER regex(...), FILTER bound(?x), etc.
            self.unary_expression()
        }
    }

    fn expression(&mut self) -> Result<Expression, ParseError> {
        self.or_expression()
    }

    fn or_expression(&mut self) -> Result<Expression, ParseError> {
        let depth = self.depth;
        let mut left = self.and_expression()?;
        while self.eat("||") {
            self.nest()?;
            let right = self.and_expression()?;
            left = Expression::Or(Box::new(left), Box::new(right));
        }
        self.depth = depth;
        Ok(left)
    }

    fn and_expression(&mut self) -> Result<Expression, ParseError> {
        let depth = self.depth;
        let mut left = self.relational_expression()?;
        while self.eat("&&") {
            self.nest()?;
            let right = self.relational_expression()?;
            left = Expression::And(Box::new(left), Box::new(right));
        }
        self.depth = depth;
        Ok(left)
    }

    fn relational_expression(&mut self) -> Result<Expression, ParseError> {
        let left = self.additive_expression()?;
        // Order matters: multi-char operators first.
        let make = |ctor: fn(Box<Expression>, Box<Expression>) -> Expression,
                    l: Expression,
                    r: Expression| ctor(Box::new(l), Box::new(r));
        if self.eat("!=") {
            let r = self.additive_expression()?;
            return Ok(make(Expression::Ne, left, r));
        }
        if self.eat("<=") {
            let r = self.additive_expression()?;
            return Ok(make(Expression::Le, left, r));
        }
        if self.eat(">=") {
            let r = self.additive_expression()?;
            return Ok(make(Expression::Ge, left, r));
        }
        if self.eat("=") {
            let r = self.additive_expression()?;
            return Ok(make(Expression::Eq, left, r));
        }
        // '<' must not swallow an IRI '<http://...>'
        self.skip_trivia();
        if self.rest().starts_with('<') && !looks_like_iri(self.rest()) {
            self.pos += 1;
            let r = self.additive_expression()?;
            return Ok(make(Expression::Lt, left, r));
        }
        if self.rest().starts_with('>') {
            self.pos += 1;
            let r = self.additive_expression()?;
            return Ok(make(Expression::Gt, left, r));
        }
        Ok(left)
    }

    fn additive_expression(&mut self) -> Result<Expression, ParseError> {
        let depth = self.depth;
        let mut left = self.multiplicative_expression()?;
        loop {
            if self.eat("+") {
                self.nest()?;
                let r = self.multiplicative_expression()?;
                left = Expression::Add(Box::new(left), Box::new(r));
            } else if self.eat("-") {
                self.nest()?;
                let r = self.multiplicative_expression()?;
                left = Expression::Sub(Box::new(left), Box::new(r));
            } else {
                break;
            }
        }
        self.depth = depth;
        Ok(left)
    }

    fn multiplicative_expression(&mut self) -> Result<Expression, ParseError> {
        let depth = self.depth;
        let mut left = self.unary_expression()?;
        loop {
            if self.eat("*") {
                self.nest()?;
                let r = self.unary_expression()?;
                left = Expression::Mul(Box::new(left), Box::new(r));
            } else if self.eat("/") {
                self.nest()?;
                let r = self.unary_expression()?;
                left = Expression::Div(Box::new(left), Box::new(r));
            } else {
                break;
            }
        }
        self.depth = depth;
        Ok(left)
    }

    fn unary_expression(&mut self) -> Result<Expression, ParseError> {
        let depth = self.depth;
        let expr = self.nest().and_then(|()| self.unary_body());
        self.depth = depth;
        expr
    }

    fn unary_body(&mut self) -> Result<Expression, ParseError> {
        self.skip_trivia();
        if self.eat("!") {
            let inner = self.unary_expression()?;
            return Ok(Expression::Not(Box::new(inner)));
        }
        if self.eat("(") {
            let e = self.expression()?;
            self.expect(")")?;
            return Ok(e);
        }
        // Built-in calls
        if self.eat_kw("BOUND") {
            self.expect("(")?;
            let v = self.var()?;
            self.expect(")")?;
            return Ok(Expression::Bound(v));
        }
        if self.eat_kw("NOT") {
            self.expect_kw("EXISTS")?;
            let p = self.group_graph_pattern()?;
            return Ok(Expression::NotExists(Box::new(p)));
        }
        if self.eat_kw("EXISTS") {
            let p = self.group_graph_pattern()?;
            return Ok(Expression::Exists(Box::new(p)));
        }
        macro_rules! unary_builtin {
            ($kw:literal, $ctor:path) => {
                if self.eat_kw($kw) {
                    self.expect("(")?;
                    let e = self.expression()?;
                    self.expect(")")?;
                    return Ok($ctor(Box::new(e)));
                }
            };
        }
        unary_builtin!("ISIRI", Expression::IsIri);
        unary_builtin!("ISURI", Expression::IsIri);
        unary_builtin!("ISLITERAL", Expression::IsLiteral);
        unary_builtin!("ISBLANK", Expression::IsBlank);
        unary_builtin!("STR", Expression::Str);
        unary_builtin!("LANG", Expression::Lang);
        unary_builtin!("DATATYPE", Expression::Datatype);
        if self.eat_kw("REGEX") {
            self.expect("(")?;
            let text = self.expression()?;
            self.expect(",")?;
            let pattern = self.string_literal()?;
            let flags = if self.eat(",") {
                self.string_literal()?
            } else {
                String::new()
            };
            self.expect(")")?;
            return Ok(Expression::Regex(Box::new(text), pattern, flags));
        }
        if self.eat_kw("CONTAINS") {
            self.expect("(")?;
            let a = self.expression()?;
            self.expect(",")?;
            let b = self.expression()?;
            self.expect(")")?;
            return Ok(Expression::Contains(Box::new(a), Box::new(b)));
        }
        if self.eat_kw("STRSTARTS") {
            self.expect("(")?;
            let a = self.expression()?;
            self.expect(",")?;
            let b = self.expression()?;
            self.expect(")")?;
            return Ok(Expression::StrStarts(Box::new(a), Box::new(b)));
        }
        if self.eat_kw("SAMETERM") {
            self.expect("(")?;
            let a = self.expression()?;
            self.expect(",")?;
            let b = self.expression()?;
            self.expect(")")?;
            return Ok(Expression::SameTerm(Box::new(a), Box::new(b)));
        }
        if let Some(v) = self.try_var()? {
            return Ok(Expression::Var(v));
        }
        let t = self.term()?;
        Ok(Expression::Term(t))
    }

    fn string_literal(&mut self) -> Result<String, ParseError> {
        self.skip_trivia();
        match self.term()? {
            Term::Literal(l) => Ok(l.lexical.to_string()),
            other => self.err(format!("expected a string literal, found {other}")),
        }
    }

    // ---- terms -----------------------------------------------------------

    fn try_var(&mut self) -> Result<Option<Variable>, ParseError> {
        self.skip_trivia();
        let rest = self.rest();
        if rest.starts_with('?') || rest.starts_with('$') {
            let body = &rest[1..];
            let len = body
                .char_indices()
                .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_'))
                .map(|(i, _)| i)
                .unwrap_or(body.len());
            if len == 0 {
                return self.err("empty variable name");
            }
            let name = body[..len].to_string();
            self.pos += 1 + len;
            Ok(Some(Variable::new(name)))
        } else {
            Ok(None)
        }
    }

    fn var(&mut self) -> Result<Variable, ParseError> {
        match self.try_var()? {
            Some(v) => Ok(v),
            None => self.err("expected a variable"),
        }
    }

    fn term_pattern(&mut self) -> Result<TermPattern, ParseError> {
        if let Some(v) = self.try_var()? {
            return Ok(TermPattern::Var(v));
        }
        Ok(TermPattern::Term(self.term()?))
    }

    /// A LIMIT or OFFSET count: the grammar's unsigned INTEGER, so a
    /// negative one is an error rather than a count wrapped to `usize`.
    fn count(&mut self) -> Result<usize, ParseError> {
        match self.number()?.as_i64().map(usize::try_from) {
            Some(Ok(n)) => Ok(n),
            Some(Err(_)) => self.err("expected a non-negative integer"),
            None => self.err("expected an integer"),
        }
    }
}

/// Heuristic: does this `<`-prefixed text look like an IRI rather than a
/// less-than operator? IRIs contain no spaces before the closing `>`.
fn looks_like_iri(s: &str) -> bool {
    debug_assert!(s.starts_with('<'));
    match s.find('>') {
        Some(close) => !s[1..close].contains(char::is_whitespace),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_multibyte_character_inside_a_keyword_is_an_error() {
        // Each puts a character across the end of some keyword tried.
        for text in ["PRE\u{FFFD}", "P\u{FFFD}", "SE\u{e9}LECT * WHERE { }", "é"] {
            assert!(parse_query(text).is_err(), "{text}");
        }
    }

    #[test]
    fn parse_qa_from_the_paper() {
        // Figure 2 of the paper.
        let q = parse_query(
            r#"
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?S ?P ?U ?A WHERE {
  ?S ub:advisor ?P .
  ?P ub:teacherOf ?C .
  ?S ub:takesCourse ?C .
  ?P ub:PhDDegreeFrom ?U .
  ?S rdf:type ub:GraduateStudent .
  ?P rdf:type ub:AssociateProfessor .
  ?C rdf:type ub:GraduateCourse .
  ?U ub:address ?A .
}"#,
        )
        .unwrap();
        let sel = q.as_select().unwrap();
        assert_eq!(sel.projected_variables().len(), 4);
        assert_eq!(q.all_triple_patterns().len(), 8);
    }

    #[test]
    fn parse_check_query_figure5() {
        // The locality check query shape from Figure 5.
        let q = parse_query(
            r#"
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?P WHERE {
  ?P rdf:type ub:AssociateProfessor .
  ?S ub:advisor ?P .
  FILTER NOT EXISTS { SELECT ?P WHERE { ?P ub:teacherOf ?C . } }
} LIMIT 1"#,
        )
        .unwrap();
        let sel = q.as_select().unwrap();
        assert_eq!(sel.limit, Some(1));
        match &sel.pattern {
            GraphPattern::Filter(_, Expression::NotExists(inner)) => match inner.as_ref() {
                GraphPattern::SubSelect(_) => {}
                other => panic!("expected subselect, got {other:?}"),
            },
            other => panic!("expected filter-not-exists, got {other:?}"),
        }
    }

    #[test]
    fn parse_ask() {
        let q = parse_query("ASK { ?s <http://x/p> ?o }").unwrap();
        assert!(matches!(q.form, QueryForm::Ask(_)));
        assert_eq!(q.all_triple_patterns().len(), 1);
    }

    #[test]
    fn parse_shortcuts_semicolon_comma() {
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT * WHERE { ?s a e:T ; e:p ?o , ?o2 . ?o e:q ?z . }",
        )
        .unwrap();
        assert_eq!(q.all_triple_patterns().len(), 4);
    }

    #[test]
    fn parse_optional_union_filter() {
        let q = parse_query(
            r#"PREFIX e: <http://e/>
SELECT ?s ?n WHERE {
  { ?s a e:A } UNION { ?s a e:B }
  OPTIONAL { ?s e:name ?n . }
  FILTER (?s != e:bad && BOUND(?n))
}"#,
        )
        .unwrap();
        let pat = q.pattern();
        assert!(matches!(pat, GraphPattern::Filter(..)));
        assert_eq!(q.all_triple_patterns().len(), 3);
    }

    #[test]
    fn parse_values_single_and_row_forms() {
        let q = parse_query(
            "PREFIX e: <http://e/> SELECT * WHERE { ?s e:p ?o . VALUES ?s { e:a e:b } }",
        )
        .unwrap();
        let tps = q.all_triple_patterns();
        assert_eq!(tps.len(), 1);
        let q2 = parse_query(
            "PREFIX e: <http://e/> SELECT * WHERE { VALUES (?a ?b) { (e:x 1) (UNDEF \"s\") } }",
        )
        .unwrap();
        match q2.pattern() {
            GraphPattern::Values(vars, rows) => {
                assert_eq!(vars.len(), 2);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][0], None);
            }
            other => panic!("expected VALUES, got {other:?}"),
        }
    }

    #[test]
    fn parse_count_aggregate() {
        let q = parse_query("SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o }").unwrap();
        match &q.as_select().unwrap().projection {
            Projection::Count {
                inner: None,
                distinct: false,
                as_var,
            } => {
                assert_eq!(as_var.name(), "c");
            }
            other => panic!("bad projection {other:?}"),
        }
        let q = parse_query("SELECT (COUNT(DISTINCT ?s) AS ?c) WHERE { ?s ?p ?o }").unwrap();
        match &q.as_select().unwrap().projection {
            Projection::Count {
                inner: Some(v),
                distinct: true,
                ..
            } => {
                assert_eq!(v.name(), "s");
            }
            other => panic!("bad projection {other:?}"),
        }
    }

    #[test]
    fn parse_filters_with_comparisons() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x <http://e/v> ?v . FILTER(?v > 3 && ?v <= 10 || ?v = 42) }",
        )
        .unwrap();
        assert!(matches!(q.pattern(), GraphPattern::Filter(..)));
    }

    #[test]
    fn parse_filter_regex_contains() {
        let q = parse_query(
            r#"SELECT ?x WHERE { ?x <http://e/n> ?n . FILTER regex(STR(?n), "^Ab", "i") FILTER CONTAINS(?n, "x") }"#,
        )
        .unwrap();
        assert!(matches!(q.pattern(), GraphPattern::Filter(..)));
    }

    #[test]
    fn parse_order_limit_offset() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x a <http://e/T> } ORDER BY DESC(?x) LIMIT 10 OFFSET 5",
        )
        .unwrap();
        let s = q.as_select().unwrap();
        assert_eq!(s.order_by, vec![(Variable::new("x"), false)]);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(5));
    }

    #[test]
    fn negative_limit_and_offset_are_errors() {
        for text in [
            "SELECT ?x WHERE { ?x ?p ?o } LIMIT -1",
            "SELECT ?x WHERE { ?x ?p ?o } OFFSET -1",
            "SELECT ?x WHERE { ?x ?p ?o } LIMIT 2 OFFSET -3",
        ] {
            let err = parse_query(text).unwrap_err();
            assert!(err.to_string().contains("non-negative"), "{text}: {err}");
        }
        let q = parse_query("SELECT ?x WHERE { ?x ?p ?o } LIMIT 0 OFFSET 0").unwrap();
        let s = q.as_select().unwrap();
        assert_eq!((s.limit, s.offset), (Some(0), Some(0)));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_query("SELECT WHERE").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x <p> ?y } trailing").is_err());
        assert!(parse_query("SELECT ?x WHERE { nope:x <http://p> ?y }").is_err());
    }

    #[test]
    fn iri_vs_less_than() {
        let q = parse_query("SELECT ?x WHERE { ?x <http://e/v> ?v . FILTER(?v < 5) }").unwrap();
        assert!(matches!(
            q.pattern(),
            GraphPattern::Filter(_, Expression::Lt(..))
        ));
    }

    #[test]
    fn parse_group_by_aggregates() {
        let q = parse_query(
            "SELECT ?g (SUM(?x) AS ?s) (COUNT(*) AS ?c) WHERE { ?e <http://p/g> ?g . ?e <http://p/x> ?x } GROUP BY ?g",
        )
        .unwrap();
        let sel = q.as_select().unwrap();
        assert_eq!(sel.group_by, vec![Variable::new("g")]);
        match &sel.projection {
            Projection::Aggregate { keys, aggs } => {
                assert_eq!(keys, &[Variable::new("g")]);
                assert_eq!(aggs.len(), 2);
                assert_eq!(aggs[0].func, AggFunc::Sum);
                assert_eq!(aggs[1].func, AggFunc::Count);
                assert_eq!(aggs[1].arg, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn grouped_count_reclassifies() {
        let q = parse_query("SELECT (COUNT(?x) AS ?c) WHERE { ?e <http://p/x> ?x } GROUP BY ?e")
            .unwrap();
        assert!(matches!(
            q.as_select().unwrap().projection,
            Projection::Aggregate { .. }
        ));
        // Ungrouped COUNT keeps the dedicated shape.
        let q = parse_query("SELECT (COUNT(?x) AS ?c) WHERE { ?e <http://p/x> ?x }").unwrap();
        assert!(matches!(
            q.as_select().unwrap().projection,
            Projection::Count { .. }
        ));
    }

    #[test]
    fn parse_bind_and_minus() {
        let q = parse_query(
            "SELECT ?x ?y WHERE { ?x <http://p/v> ?v . BIND(?v + 1 AS ?y) MINUS { ?x <http://p/bad> ?z } }",
        )
        .unwrap();
        match q.pattern() {
            GraphPattern::Minus(inner, _) => {
                assert!(matches!(inner.as_ref(), GraphPattern::Bind(..)));
            }
            other => panic!("{other:?}"),
        }
        // MINUS binds nothing: scope comes from the left side plus BIND.
        let vars = q.pattern().in_scope_variables();
        assert!(vars.contains(&Variable::new("y")));
        assert!(!vars.contains(&Variable::new("z")));
    }

    #[test]
    fn star_only_for_count() {
        assert!(parse_query("SELECT (SUM(*) AS ?s) WHERE { ?a ?b ?c }").is_err());
    }

    #[test]
    fn parse_distinct() {
        let q = parse_query("SELECT DISTINCT ?x WHERE { ?x ?p ?o }").unwrap();
        assert!(q.as_select().unwrap().distinct);
    }
}
