//! Property test: `Keyword::from_ident`, which upper-cases into a stack
//! buffer, answers exactly as the lookup that upper-cased into a `String`
//! did. The reference below is that copying lookup, kept here.

use proptest::prelude::*;
use std::sync::OnceLock;
use throttledb_catalog::{sales_schema, tpch_schema, SalesScale};
use throttledb_sqlparse::Keyword;

fn ref_from_ident(s: &str) -> Option<Keyword> {
    let k = match s.to_ascii_uppercase().as_str() {
        "SELECT" => Keyword::Select,
        "FROM" => Keyword::From,
        "WHERE" => Keyword::Where,
        "JOIN" => Keyword::Join,
        "INNER" => Keyword::Inner,
        "LEFT" => Keyword::Left,
        "RIGHT" => Keyword::Right,
        "OUTER" => Keyword::Outer,
        "ON" => Keyword::On,
        "GROUP" => Keyword::Group,
        "BY" => Keyword::By,
        "HAVING" => Keyword::Having,
        "ORDER" => Keyword::Order,
        "LIMIT" => Keyword::Limit,
        "AS" => Keyword::As,
        "AND" => Keyword::And,
        "OR" => Keyword::Or,
        "NOT" => Keyword::Not,
        "IN" => Keyword::In,
        "BETWEEN" => Keyword::Between,
        "LIKE" => Keyword::Like,
        "IS" => Keyword::Is,
        "NULL" => Keyword::Null,
        "DISTINCT" => Keyword::Distinct,
        "ASC" => Keyword::Asc,
        "DESC" => Keyword::Desc,
        "SUM" => Keyword::Sum,
        "COUNT" => Keyword::Count,
        "AVG" => Keyword::Avg,
        "MIN" => Keyword::Min,
        "MAX" => Keyword::Max,
        _ => return None,
    };
    Some(k)
}

const KEYWORDS: [&str; 31] = [
    "select", "from", "where", "join", "inner", "left", "right", "outer", "on", "group", "by",
    "having", "order", "limit", "as", "and", "or", "not", "in", "between", "like", "is", "null",
    "distinct", "asc", "desc", "sum", "count", "avg", "min", "max",
];

/// Words that are no keyword: empty, non-ASCII look-alikes (the Kelvin
/// sign, a long s, full-width letters) and keywords grown past 8 bytes.
const STRANGERS: [&str; 9] = [
    "",
    "li\u{212A}e",
    "\u{17F}elect",
    "\u{FF33}\u{FF25}\u{FF2C}\u{FF25}\u{FF23}\u{FF34}",
    "sélect",
    "distincts",
    "betweenness",
    "selectselect",
    "日本",
];

/// Keywords, their near misses, every SALES and TPC-H-like table and
/// column name, and the strangers.
fn words() -> &'static [String] {
    static WORDS: OnceLock<Vec<String>> = OnceLock::new();
    WORDS.get_or_init(|| {
        let mut words: Vec<String> = KEYWORDS
            .iter()
            .chain(STRANGERS.iter())
            .map(|s| s.to_string())
            .collect();
        for k in KEYWORDS {
            words.push(k[..k.len() - 1].to_string());
            words.push(format!("{k}s"));
            words.push(format!("{k}é"));
        }
        for catalog in [sales_schema(SalesScale::paper()), tpch_schema(30.0)] {
            for t in catalog.tables() {
                words.push(t.name.clone());
                words.extend(t.columns.iter().map(|c| c.name.clone()));
            }
        }
        words
    })
}

/// `word` with each ASCII letter upper-cased when its bit of `mask` is set.
fn recase(word: &str, mask: u64) -> String {
    word.chars()
        .enumerate()
        .map(|(i, c)| {
            if mask >> (i % 64) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn from_ident_answers_as_the_copying_lookup(
        picks in proptest::collection::vec(0usize..8192, 1..16),
        mask in 0u64..u64::MAX,
    ) {
        let words = words();
        for (k, pick) in picks.iter().enumerate() {
            let word = recase(&words[pick % words.len()], mask.rotate_left(k as u32 * 5));
            prop_assert_eq!(Keyword::from_ident(&word), ref_from_ident(&word), "{:?}", word);
        }
    }
}

#[test]
fn every_keyword_in_every_case_is_found() {
    for word in KEYWORDS {
        for mask in [0, u64::MAX, 0b1010_1010, 0b0101_0101] {
            let word = recase(word, mask);
            assert!(Keyword::from_ident(&word).is_some(), "{word:?}");
            assert_eq!(Keyword::from_ident(&word), ref_from_ident(&word));
        }
    }
    for word in STRANGERS {
        assert_eq!(Keyword::from_ident(word), None, "{word:?}");
    }
}
