//! The SQL lexer.

use crate::token::{Keyword, Token};
use std::fmt;

/// An error produced while tokenizing.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub position: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for LexError {}

/// Converts SQL text into a vector of [`Token`]s.
#[derive(Debug)]
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    /// Tokenize the whole input, appending a trailing [`Token::Eof`].
    pub fn tokenize(mut self) -> Result<Vec<Token>, LexError> {
        // A token per four bytes holds every statement the workloads
        // submit without growing (SALES runs ≈ 5.4 bytes a token, the
        // densest OLTP statement ≈ 3.7, which the `+ 2` covers).
        let mut out = Vec::with_capacity(self.input.len() / 4 + 2);
        loop {
            let t = self.next_token()?;
            let done = t == Token::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn peek_next(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_whitespace_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                // `-- line comment`
                Some(b'-') if self.peek_next() == Some(b'-') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_whitespace_and_comments();
        let start = self.pos;
        let Some(c) = self.bump() else {
            return Ok(Token::Eof);
        };
        let t = match c {
            b',' => Token::Comma,
            b'.' => Token::Dot,
            b'(' => Token::LParen,
            b')' => Token::RParen,
            b'*' => Token::Star,
            b'+' => Token::Plus,
            b'-' => Token::Minus,
            b'/' => Token::Slash,
            b'=' => Token::Eq,
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    Token::LtEq
                }
                Some(b'>') => {
                    self.pos += 1;
                    Token::NotEq
                }
                _ => Token::Lt,
            },
            b'>' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    Token::GtEq
                }
                _ => Token::Gt,
            },
            b'!' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    Token::NotEq
                }
                _ => {
                    return Err(LexError {
                        position: start,
                        message: "expected '=' after '!'".to_string(),
                    })
                }
            },
            b'\'' => {
                // The text between the quotes is copied out of the input
                // whole; a doubled quote (an escaped one) ends a piece that
                // keeps its first quote.
                let mut s = String::new();
                let mut from = self.pos;
                loop {
                    match self.bump() {
                        Some(b'\'') if self.peek() == Some(b'\'') => {
                            s.push_str(&self.input[from..self.pos]);
                            self.pos += 1;
                            from = self.pos;
                        }
                        Some(b'\'') => {
                            s.push_str(&self.input[from..self.pos - 1]);
                            break;
                        }
                        Some(_) => {}
                        None => {
                            return Err(LexError {
                                position: start,
                                message: "unterminated string literal".to_string(),
                            })
                        }
                    }
                }
                Token::String(s)
            }
            c if c.is_ascii_digit() => {
                let mut seen_dot = false;
                while let Some(n) = self.peek() {
                    if n.is_ascii_digit() {
                        self.pos += 1;
                    } else if n == b'.'
                        && !seen_dot
                        && self.peek_next().is_some_and(|d| d.is_ascii_digit())
                    {
                        seen_dot = true;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let text = &self.input[start..self.pos];
                let value: f64 = text.parse().map_err(|_| LexError {
                    position: start,
                    message: format!("invalid number: {text}"),
                })?;
                Token::Number(value)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                while let Some(n) = self.peek() {
                    if n.is_ascii_alphanumeric() || n == b'_' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let text = &self.input[start..self.pos];
                match Keyword::from_ident(text) {
                    Some(k) => Token::Keyword(k),
                    None => Token::Ident(text.to_ascii_lowercase()),
                }
            }
            _ => {
                // Every token ends on an ASCII byte, so `start` begins a
                // character even when the input is not ASCII.
                let ch = self.input[start..].chars().next().expect("not at the end");
                return Err(LexError {
                    position: start,
                    message: format!("unexpected character '{ch}'"),
                });
            }
        };
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(s: &str) -> Vec<Token> {
        Lexer::new(s).tokenize().expect("lexes")
    }

    #[test]
    fn lexes_simple_select() {
        let toks = lex("SELECT a, b FROM t WHERE a = 1");
        assert_eq!(
            toks,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Ident("a".into()),
                Token::Comma,
                Token::Ident("b".into()),
                Token::Keyword(Keyword::From),
                Token::Ident("t".into()),
                Token::Keyword(Keyword::Where),
                Token::Ident("a".into()),
                Token::Eq,
                Token::Number(1.0),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let toks = lex("<= >= <> != < > = + - * /");
        assert_eq!(
            toks[..toks.len() - 1],
            vec![
                Token::LtEq,
                Token::GtEq,
                Token::NotEq,
                Token::NotEq,
                Token::Lt,
                Token::Gt,
                Token::Eq,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
            ]
        );
    }

    #[test]
    fn lexes_numbers_and_decimals() {
        let toks = lex("42 3.25 1000");
        assert_eq!(
            toks[..3],
            vec![
                Token::Number(42.0),
                Token::Number(3.25),
                Token::Number(1000.0)
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let toks = lex("'hello' 'it''s'");
        assert_eq!(
            toks[..2],
            vec![Token::String("hello".into()), Token::String("it's".into())]
        );
    }

    #[test]
    fn string_literals_keep_non_ascii_text() {
        let toks = lex("'café' 'naïve''s' '日本'");
        assert_eq!(
            toks[..3],
            vec![
                Token::String("café".into()),
                Token::String("naïve's".into()),
                Token::String("日本".into()),
            ]
        );
        assert_eq!(toks[0].to_string(), "'café'");
    }

    #[test]
    fn non_ascii_literal_round_trips_through_parse_and_display() {
        let sql = "SELECT c.name FROM customers c WHERE c.city = 'Zürich''s café'";
        let stmt = crate::parse(sql).expect("parses");
        let rendered = stmt.to_string();
        assert!(rendered.contains("'Zürich''s café'"), "{rendered}");
        assert_eq!(crate::parse(&rendered).expect("re-parses"), stmt);
    }

    #[test]
    fn skips_line_comments() {
        let toks = lex("SELECT -- the columns\n a FROM t");
        assert_eq!(toks.len(), 5);
        assert_eq!(toks[1], Token::Ident("a".into()));
    }

    #[test]
    fn identifiers_are_lowercased_keywords_detected() {
        let toks = lex("Fact_Sales JOIN Dim_Date");
        assert_eq!(toks[0], Token::Ident("fact_sales".into()));
        assert_eq!(toks[1], Token::Keyword(Keyword::Join));
        assert_eq!(toks[2], Token::Ident("dim_date".into()));
    }

    #[test]
    fn qualified_names_lex_as_ident_dot_ident() {
        let toks = lex("f.net_amount");
        assert_eq!(
            toks[..3],
            vec![
                Token::Ident("f".into()),
                Token::Dot,
                Token::Ident("net_amount".into())
            ]
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = Lexer::new("'oops").tokenize().unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn stray_character_is_an_error() {
        let err = Lexer::new("SELECT #").tokenize().unwrap_err();
        assert!(err.message.contains("unexpected character"));
        assert_eq!(err.position, 7);
    }

    #[test]
    fn stray_non_ascii_character_is_named_at_its_byte_offset() {
        let err = Lexer::new("SELECT é FROM t").tokenize().unwrap_err();
        assert_eq!(err.message, "unexpected character 'é'");
        assert_eq!(err.position, 7);
        let err = Lexer::new("SELECT 'ü', 日 FROM t").tokenize().unwrap_err();
        assert_eq!(err.message, "unexpected character '日'");
        assert_eq!(err.position, 13);
    }

    #[test]
    fn bang_without_eq_is_an_error() {
        let err = Lexer::new("a ! b").tokenize().unwrap_err();
        assert!(err.message.contains("expected '='"));
    }

    #[test]
    fn empty_input_is_just_eof() {
        assert_eq!(lex(""), vec![Token::Eof]);
        assert_eq!(lex("   \n\t "), vec![Token::Eof]);
    }
}
