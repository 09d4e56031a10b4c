//! Recursive-descent parser for the SQL subset.

use crate::ast::{
    AggregateFunc, BinaryOp, Expr, JoinClause, JoinKind, Literal, OrderItem, SelectItem,
    SelectStatement, TableRef, UnaryOp,
};
use crate::lexer::Lexer;
use crate::token::{Keyword, Token};
use std::fmt;

/// A parse error with the offending token position (token index, not byte).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Index of the offending token in the token stream.
    pub token_index: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at token {}: {}",
            self.token_index, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse one SELECT statement from SQL text.
pub fn parse(sql: &str) -> Result<SelectStatement, ParseError> {
    let tokens = Lexer::new(sql).tokenize().map_err(|e| ParseError {
        token_index: 0,
        message: e.to_string(),
    })?;
    Parser::new(tokens).parse_select_statement()
}

/// The parser over a token stream.
#[derive(Debug)]
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Create a parser over tokens (must end with [`Token::Eof`]).
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    /// Take the current token and step past it. The token is moved out,
    /// leaving `Eof` behind, so consumed tokens must never be looked at
    /// again: the parser only moves forward.
    fn advance(&mut self) -> Token {
        match self.tokens.get_mut(self.pos) {
            Some(t) => {
                self.pos += 1;
                std::mem::replace(t, Token::Eof)
            }
            None => Token::Eof,
        }
    }

    /// Take an implicit alias: the current token when it is an identifier.
    fn take_ident(&mut self) -> Option<String> {
        match self.peek() {
            Token::Ident(_) => match self.advance() {
                Token::Ident(name) => Some(name),
                _ => unreachable!("peeked an identifier"),
            },
            _ => None,
        }
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            token_index: self.pos,
            message: message.into(),
        })
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        match self.advance() {
            Token::Keyword(k) if k == kw => Ok(()),
            other => self.error(format!("expected {kw:?}, found {other}")),
        }
    }

    fn expect_token(&mut self, expected: Token) -> Result<(), ParseError> {
        let got = self.advance();
        if got == expected {
            Ok(())
        } else {
            self.error(format!("expected {expected}, found {got}"))
        }
    }

    fn consume_keyword(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek(), Token::Keyword(k) if *k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn consume_token(&mut self, tok: &Token) -> bool {
        if self.peek() == tok {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Parse a full SELECT statement and require EOF afterwards.
    pub fn parse_select_statement(&mut self) -> Result<SelectStatement, ParseError> {
        let stmt = self.parse_select()?;
        match self.peek() {
            Token::Eof => Ok(stmt),
            other => self.error(format!("unexpected trailing token {other}")),
        }
    }

    fn parse_select(&mut self) -> Result<SelectStatement, ParseError> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.consume_keyword(Keyword::Distinct);

        // Select list.
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.consume_token(&Token::Comma) {
                break;
            }
        }

        // FROM.
        self.expect_keyword(Keyword::From)?;
        let mut from = vec![self.parse_table_ref()?];
        let mut joins = Vec::new();
        loop {
            if self.consume_token(&Token::Comma) {
                from.push(self.parse_table_ref()?);
            } else if let Some(kind) = self.try_parse_join_kind() {
                let table = self.parse_table_ref()?;
                self.expect_keyword(Keyword::On)?;
                let on = self.parse_expr()?;
                joins.push(JoinClause { kind, table, on });
            } else {
                break;
            }
        }

        // WHERE.
        let where_clause = if self.consume_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        // GROUP BY.
        let mut group_by = Vec::new();
        if self.consume_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }

        // HAVING.
        let having = if self.consume_keyword(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        // ORDER BY.
        let mut order_by = Vec::new();
        if self.consume_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.consume_keyword(Keyword::Desc) {
                    true
                } else {
                    self.consume_keyword(Keyword::Asc);
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }

        // LIMIT.
        let limit = if self.consume_keyword(Keyword::Limit) {
            match self.advance() {
                Token::Number(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as u64),
                other => {
                    return self.error(format!(
                        "LIMIT expects a non-negative integer, found {other}"
                    ))
                }
            }
        } else {
            None
        };

        Ok(SelectStatement {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn try_parse_join_kind(&mut self) -> Option<JoinKind> {
        if self.consume_keyword(Keyword::Join) {
            return Some(JoinKind::Inner);
        }
        if self.consume_keyword(Keyword::Inner) {
            // INNER must be followed by JOIN.
            self.consume_keyword(Keyword::Join);
            return Some(JoinKind::Inner);
        }
        if self.consume_keyword(Keyword::Left) {
            self.consume_keyword(Keyword::Outer);
            self.consume_keyword(Keyword::Join);
            return Some(JoinKind::Left);
        }
        if self.consume_keyword(Keyword::Right) {
            self.consume_keyword(Keyword::Outer);
            self.consume_keyword(Keyword::Join);
            return Some(JoinKind::Right);
        }
        None
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        // Bare `*` select list.
        if self.peek() == &Token::Star {
            self.advance();
            return Ok(SelectItem {
                expr: Expr::Wildcard,
                alias: None,
            });
        }
        let expr = self.parse_expr()?;
        let alias = if self.consume_keyword(Keyword::As) {
            match self.advance() {
                Token::Ident(name) => Some(name),
                other => return self.error(format!("expected alias after AS, found {other}")),
            }
        } else {
            // Implicit alias: `SELECT expr alias`.
            self.take_ident()
        };
        Ok(SelectItem { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = match self.advance() {
            Token::Ident(name) => name,
            other => return self.error(format!("expected table name, found {other}")),
        };
        let alias = if self.consume_keyword(Keyword::As) {
            match self.advance() {
                Token::Ident(name) => Some(name),
                other => return self.error(format!("expected alias after AS, found {other}")),
            }
        } else {
            self.take_ident()
        };
        Ok(TableRef { table, alias })
    }

    /// Entry point for expressions: OR has the lowest precedence.
    pub fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.consume_keyword(Keyword::Or) {
            let right = self.parse_and()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.consume_keyword(Keyword::And) {
            let right = self.parse_not()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.consume_keyword(Keyword::Not) {
            let inner = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.consume_keyword(Keyword::Is) {
            let negated = self.consume_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        // [NOT] IN / [NOT] BETWEEN / [NOT] LIKE
        let negated = self.consume_keyword(Keyword::Not);
        if self.consume_keyword(Keyword::In) {
            self.expect_token(Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_additive()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.consume_keyword(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.consume_keyword(Keyword::Like) {
            let right = self.parse_additive()?;
            let like = Expr::binary(left, BinaryOp::Like, right);
            return Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(like),
                }
            } else {
                like
            });
        }
        if negated {
            return self.error("expected IN, BETWEEN or LIKE after NOT");
        }

        let op = match self.peek() {
            Token::Eq => Some(BinaryOp::Eq),
            Token::NotEq => Some(BinaryOp::NotEq),
            Token::Lt => Some(BinaryOp::Lt),
            Token::LtEq => Some(BinaryOp::LtEq),
            Token::Gt => Some(BinaryOp::Gt),
            Token::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Add,
                Token::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Mul,
                Token::Slash => BinaryOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.consume_token(&Token::Minus) {
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.advance() {
            Token::Number(n) => Ok(Expr::Literal(Literal::Number(n))),
            Token::String(s) => Ok(Expr::Literal(Literal::String(s))),
            Token::Keyword(Keyword::Null) => Ok(Expr::Literal(Literal::Null)),
            Token::LParen => {
                let inner = self.parse_expr()?;
                self.expect_token(Token::RParen)?;
                Ok(inner)
            }
            Token::Keyword(k) if k.is_aggregate() => {
                let func = match k {
                    Keyword::Sum => AggregateFunc::Sum,
                    Keyword::Count => AggregateFunc::Count,
                    Keyword::Avg => AggregateFunc::Avg,
                    Keyword::Min => AggregateFunc::Min,
                    Keyword::Max => AggregateFunc::Max,
                    _ => unreachable!("is_aggregate covers exactly these keywords"),
                };
                self.expect_token(Token::LParen)?;
                let distinct = self.consume_keyword(Keyword::Distinct);
                let arg = if self.peek() == &Token::Star {
                    self.advance();
                    Expr::Wildcard
                } else {
                    self.parse_expr()?
                };
                self.expect_token(Token::RParen)?;
                Ok(Expr::Aggregate {
                    func,
                    arg: Box::new(arg),
                    distinct,
                })
            }
            Token::Ident(first) => {
                if self.consume_token(&Token::Dot) {
                    match self.advance() {
                        Token::Ident(name) => Ok(Expr::Column {
                            qualifier: Some(first),
                            name,
                        }),
                        Token::Star => Ok(Expr::Wildcard),
                        other => self.error(format!("expected column after '.', found {other}")),
                    }
                } else {
                    Ok(Expr::Column {
                        qualifier: None,
                        name: first,
                    })
                }
            }
            other => self.error(format!("unexpected token {other} in expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_error_quotes_a_string_token_as_text_that_lexes_back() {
        let err = parse("SELECT a FROM t LIMIT 'it''s'").unwrap_err();
        let found = err.message.split("found ").nth(1).unwrap();
        assert_eq!(found, "'it''s'");
        let tokens = Lexer::new(found).tokenize().unwrap();
        assert_eq!(tokens, [Token::String("it's".into()), Token::Eof]);
    }

    #[test]
    fn parses_minimal_select() {
        let s = parse("SELECT a FROM t").unwrap();
        assert_eq!(s.items.len(), 1);
        assert_eq!(s.from.len(), 1);
        assert_eq!(s.from[0].table, "t");
        assert!(s.where_clause.is_none());
        assert_eq!(s.table_count(), 1);
    }

    #[test]
    fn parses_star_select() {
        let s = parse("SELECT * FROM orders LIMIT 10").unwrap();
        assert_eq!(s.items[0].expr, Expr::Wildcard);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn parses_aliases_and_qualified_columns() {
        let s = parse("SELECT f.amount AS amt, d.year yr FROM fact f, dim d").unwrap();
        assert_eq!(s.items[0].alias.as_deref(), Some("amt"));
        assert_eq!(s.items[1].alias.as_deref(), Some("yr"));
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].binding_name(), "f");
        assert_eq!(s.join_count(), 1);
    }

    #[test]
    fn parses_explicit_joins() {
        let s = parse(
            "SELECT x.a FROM t1 x \
             JOIN t2 y ON x.k = y.k \
             LEFT JOIN t3 z ON y.j = z.j \
             INNER JOIN t4 w ON z.m = w.m",
        )
        .unwrap();
        assert_eq!(s.joins.len(), 3);
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert_eq!(s.joins[1].kind, JoinKind::Left);
        assert_eq!(s.joins[2].kind, JoinKind::Inner);
        assert_eq!(s.table_count(), 4);
    }

    #[test]
    fn parses_where_with_precedence() {
        let s = parse("SELECT a FROM t WHERE a = 1 AND b > 2 OR c < 3").unwrap();
        // OR binds loosest: (a=1 AND b>2) OR (c<3)
        match s.where_clause.unwrap() {
            Expr::Binary {
                op: BinaryOp::Or,
                left,
                ..
            } => match *left {
                Expr::Binary {
                    op: BinaryOp::And, ..
                } => {}
                other => panic!("left of OR should be AND, got {other:?}"),
            },
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let s = parse("SELECT a FROM t WHERE a + 2 * 3 = 7").unwrap();
        let w = s.where_clause.unwrap();
        // a + (2*3) = 7
        match w {
            Expr::Binary {
                op: BinaryOp::Eq,
                left,
                ..
            } => match *left {
                Expr::Binary {
                    op: BinaryOp::Add,
                    right,
                    ..
                } => {
                    assert!(matches!(
                        *right,
                        Expr::Binary {
                            op: BinaryOp::Mul,
                            ..
                        }
                    ));
                }
                other => panic!("expected Add, got {other:?}"),
            },
            other => panic!("expected Eq, got {other:?}"),
        }
    }

    #[test]
    fn parses_in_between_like_isnull() {
        let s = parse(
            "SELECT a FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 5 AND 10 \
             AND c LIKE 'x' AND d IS NOT NULL AND e NOT IN (4)",
        )
        .unwrap();
        let w = s.where_clause.unwrap();
        let conjuncts = w.conjuncts();
        assert_eq!(conjuncts.len(), 5);
        assert!(matches!(conjuncts[0], Expr::InList { negated: false, .. }));
        assert!(matches!(conjuncts[1], Expr::Between { .. }));
        assert!(matches!(
            conjuncts[2],
            Expr::Binary {
                op: BinaryOp::Like,
                ..
            }
        ));
        assert!(matches!(conjuncts[3], Expr::IsNull { negated: true, .. }));
        assert!(matches!(conjuncts[4], Expr::InList { negated: true, .. }));
    }

    #[test]
    fn parses_aggregates_group_by_having_order_by() {
        let s = parse(
            "SELECT d.year, SUM(f.amount) AS total, COUNT(*) AS n \
             FROM fact f JOIN dim_date d ON f.date_id = d.date_key \
             WHERE f.amount > 0 \
             GROUP BY d.year \
             HAVING SUM(f.amount) > 1000 \
             ORDER BY total DESC, d.year ASC \
             LIMIT 5",
        )
        .unwrap();
        assert!(s.is_aggregation());
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some(5));
        assert!(matches!(
            s.items[2].expr,
            Expr::Aggregate {
                func: AggregateFunc::Count,
                ..
            }
        ));
    }

    #[test]
    fn parses_count_distinct() {
        let s = parse("SELECT COUNT(DISTINCT c.customer_id) FROM c").unwrap();
        assert!(matches!(
            s.items[0].expr,
            Expr::Aggregate { distinct: true, .. }
        ));
    }

    #[test]
    fn parses_select_distinct() {
        let s = parse("SELECT DISTINCT region FROM stores").unwrap();
        assert!(s.distinct);
    }

    #[test]
    fn parses_unary_minus_and_not() {
        let s = parse("SELECT a FROM t WHERE NOT a = -5").unwrap();
        assert!(matches!(
            s.where_clause.unwrap(),
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
    }

    #[test]
    fn parses_parenthesised_predicates() {
        let s = parse("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3").unwrap();
        let w = s.where_clause.unwrap();
        assert!(matches!(
            w,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse("SELECT a FROM t GARBAGE more").unwrap_err();
        assert!(err.message.contains("unexpected trailing") || err.message.contains("expected"));
    }

    #[test]
    fn rejects_missing_from() {
        assert!(parse("SELECT a WHERE x = 1").is_err());
    }

    #[test]
    fn rejects_bad_limit() {
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
        assert!(parse("SELECT a FROM t LIMIT 1.5").is_err());
    }

    #[test]
    fn rejects_unbalanced_parens() {
        assert!(parse("SELECT a FROM t WHERE (a = 1").is_err());
        assert!(parse("SELECT SUM(a FROM t").is_err());
    }

    #[test]
    fn parses_twenty_way_join() {
        // Shape of a SALES query: fact table joined to 19 dimensions.
        let mut sql = String::from("SELECT SUM(f.m0) FROM fact f");
        for i in 0..19 {
            sql.push_str(&format!(" JOIN dim{i} d{i} ON f.k{i} = d{i}.key"));
        }
        sql.push_str(" WHERE f.m0 > 0 GROUP BY f.k0");
        let s = parse(&sql).unwrap();
        assert_eq!(s.table_count(), 20);
        assert_eq!(s.join_count(), 19);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let s = parse("select a from t where a between 1 and 2 order by a desc").unwrap();
        assert!(matches!(s.where_clause.unwrap(), Expr::Between { .. }));
        assert!(s.order_by[0].desc);
    }
}
