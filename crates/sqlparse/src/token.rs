//! Tokens produced by the lexer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// SQL keywords recognised by the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Keyword {
    /// `SELECT`.
    Select,
    /// `FROM`.
    From,
    /// `WHERE`.
    Where,
    /// `JOIN`.
    Join,
    /// `INNER` (join qualifier).
    Inner,
    /// `LEFT` (join qualifier).
    Left,
    /// `RIGHT` (join qualifier).
    Right,
    /// `OUTER` (join qualifier).
    Outer,
    /// `ON` (join condition).
    On,
    /// `GROUP` (of `GROUP BY`).
    Group,
    /// `BY` (of `GROUP BY` / `ORDER BY`).
    By,
    /// `HAVING`.
    Having,
    /// `ORDER` (of `ORDER BY`).
    Order,
    /// `LIMIT`.
    Limit,
    /// `AS` (alias introducer).
    As,
    /// `AND`.
    And,
    /// `OR`.
    Or,
    /// `NOT`.
    Not,
    /// `IN`.
    In,
    /// `BETWEEN`.
    Between,
    /// `LIKE`.
    Like,
    /// `IS` (of `IS [NOT] NULL`).
    Is,
    /// `NULL`.
    Null,
    /// `DISTINCT`.
    Distinct,
    /// `ASC` (sort direction).
    Asc,
    /// `DESC` (sort direction).
    Desc,
    /// `SUM` aggregate.
    Sum,
    /// `COUNT` aggregate.
    Count,
    /// `AVG` aggregate.
    Avg,
    /// `MIN` aggregate.
    Min,
    /// `MAX` aggregate.
    Max,
}

impl Keyword {
    /// Parse an identifier into a keyword, case-insensitively. The
    /// identifier is upper-cased into a stack buffer as long as the longest
    /// keyword, so matching allocates nothing.
    pub fn from_ident(s: &str) -> Option<Keyword> {
        // The longest keyword, `DISTINCT`.
        const LONGEST: usize = 8;
        if s.len() > LONGEST {
            return None;
        }
        let mut buf = [0u8; LONGEST];
        let upper = &mut buf[..s.len()];
        upper.copy_from_slice(s.as_bytes());
        upper.make_ascii_uppercase();
        let k = match &*upper {
            b"SELECT" => Keyword::Select,
            b"FROM" => Keyword::From,
            b"WHERE" => Keyword::Where,
            b"JOIN" => Keyword::Join,
            b"INNER" => Keyword::Inner,
            b"LEFT" => Keyword::Left,
            b"RIGHT" => Keyword::Right,
            b"OUTER" => Keyword::Outer,
            b"ON" => Keyword::On,
            b"GROUP" => Keyword::Group,
            b"BY" => Keyword::By,
            b"HAVING" => Keyword::Having,
            b"ORDER" => Keyword::Order,
            b"LIMIT" => Keyword::Limit,
            b"AS" => Keyword::As,
            b"AND" => Keyword::And,
            b"OR" => Keyword::Or,
            b"NOT" => Keyword::Not,
            b"IN" => Keyword::In,
            b"BETWEEN" => Keyword::Between,
            b"LIKE" => Keyword::Like,
            b"IS" => Keyword::Is,
            b"NULL" => Keyword::Null,
            b"DISTINCT" => Keyword::Distinct,
            b"ASC" => Keyword::Asc,
            b"DESC" => Keyword::Desc,
            b"SUM" => Keyword::Sum,
            b"COUNT" => Keyword::Count,
            b"AVG" => Keyword::Avg,
            b"MIN" => Keyword::Min,
            b"MAX" => Keyword::Max,
            _ => return None,
        };
        Some(k)
    }

    /// True for the aggregate-function keywords.
    pub fn is_aggregate(self) -> bool {
        matches!(
            self,
            Keyword::Sum | Keyword::Count | Keyword::Avg | Keyword::Min | Keyword::Max
        )
    }
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Token {
    /// A keyword such as `SELECT`.
    Keyword(Keyword),
    /// An identifier (table, column or alias name), lower-cased.
    Ident(String),
    /// A numeric literal.
    Number(f64),
    /// A single-quoted string literal (quotes stripped).
    String(String),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k:?}"),
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(n) => write!(f, "{n}"),
            // Quotes doubled, as the lexer reads them and `Literal` prints.
            Token::String(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Eq => write!(f, "="),
            Token::NotEq => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::LtEq => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::GtEq => write!(f, ">="),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_parse_case_insensitively() {
        assert_eq!(Keyword::from_ident("select"), Some(Keyword::Select));
        assert_eq!(Keyword::from_ident("SELECT"), Some(Keyword::Select));
        assert_eq!(Keyword::from_ident("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::from_ident("frobnicate"), None);
    }

    #[test]
    fn aggregates_are_flagged() {
        assert!(Keyword::Sum.is_aggregate());
        assert!(Keyword::Count.is_aggregate());
        assert!(!Keyword::Select.is_aggregate());
    }

    #[test]
    fn tokens_display() {
        assert_eq!(Token::Comma.to_string(), ",");
        assert_eq!(Token::NotEq.to_string(), "<>");
        assert_eq!(Token::String("x".into()).to_string(), "'x'");
        assert_eq!(Token::String("it's".into()).to_string(), "'it''s'");
    }
}
