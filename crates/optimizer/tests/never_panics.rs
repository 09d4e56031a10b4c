//! The compile path never panics: whatever text arrives, lex → parse →
//! bind → optimize ends in `Ok` or a typed error.
//!
//! Two generators feed it:
//!
//! * arbitrary bytes, decoded as lossy UTF-8;
//! * word-level splices of the workload's 20 templates — delete a word,
//!   insert one taken from another template, swap two, truncate, strip a
//!   column's qualifier, or repeat a `JOIN` clause — each edit alone, and
//!   the chain of them, compiling after every step.
//!
//! Every input that parses is compiled against both the SALES and the
//! TPC-H catalog, and must also keep one contract: `optimize` fails exactly
//! when `bind` does, with the binder's error.

use proptest::collection::vec;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use throttledb_catalog::{sales_schema, tpch_schema, Catalog, SalesScale};
use throttledb_optimizer::{Binder, Optimizer};
use throttledb_sqlparse::parse;
use throttledb_workload::{oltp_templates, sales_templates, tpch_like_templates};

/// The catalogs the workload compiles against, built once.
fn catalogs() -> &'static [Catalog; 2] {
    static CATALOGS: OnceLock<[Catalog; 2]> = OnceLock::new();
    CATALOGS.get_or_init(|| [sales_schema(SalesScale::paper()), tpch_schema(30.0)])
}

/// Every template, split into words.
fn templates() -> &'static [Vec<String>] {
    static WORDS: OnceLock<Vec<Vec<String>>> = OnceLock::new();
    WORDS.get_or_init(|| {
        let all = sales_templates()
            .into_iter()
            .chain(tpch_like_templates())
            .chain(oltp_templates());
        let words = |sql: &str| sql.split_whitespace().map(str::to_string).collect();
        all.map(|t| words(&t.sql)).collect()
    })
}

/// Compile `sql` against every catalog; a panic fails the test with the
/// input that caused it.
fn compile_everywhere(sql: &str) {
    let compiled = catch_unwind(AssertUnwindSafe(|| {
        let Ok(stmt) = parse(sql) else {
            return;
        };
        for catalog in catalogs() {
            let bound = Binder::new(catalog).bind(&stmt).err();
            let optimized = Optimizer::new(catalog).optimize(&stmt).err();
            assert_eq!(optimized, bound, "optimize must fail exactly as bind does");
        }
    }));
    if let Err(panic) = compiled {
        let why = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a non-string payload");
        panic!("compiling {sql:?} panicked: {why}");
    }
}

/// One word-level edit: `(kind, at, other template, other position)`.
type Edit = (u8, usize, usize, usize);

/// Apply `edit` to `words`; positions wrap around the current length.
fn apply(words: &mut Vec<String>, (kind, at, other, from): Edit) {
    let len = words.len();
    match kind {
        0 | 1 if len > 0 => {
            words.remove(at % len);
        }
        2 | 3 => {
            let donor = &templates()[other % templates().len()];
            words.insert(at % (len + 1), donor[from % donor.len()].clone());
        }
        4 | 5 if len > 0 => words.swap(at % len, from % len),
        6 => words.truncate(at % (len + 1)),
        7 if len > 0 => {
            let word = &mut words[at % len];
            if let Some((_, column)) = word.split_once('.') {
                *word = column.to_string();
            }
        }
        8 => {
            // The first JOIN clause at or after `at`, repeated in place.
            let keyword = |w: &String, of: &[&str]| of.iter().any(|k| w.eq_ignore_ascii_case(k));
            let after = |from: usize, of: &[&str]| {
                let found = words[from..].iter().position(|w| keyword(w, of));
                found.map(|n| from + n)
            };
            let Some(start) = after(at % (len + 1), &["JOIN"]) else {
                return;
            };
            let next = after(start + 1, &["JOIN", "WHERE", "GROUP", "ORDER", "LIMIT"]);
            let end = next.unwrap_or(len);
            let clause = words[start..end].to_vec();
            words.splice(end..end, clause);
        }
        _ => {}
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(inputs in vec(vec(0u8..=255, 0..160), 1..32)) {
        for bytes in inputs {
            compile_everywhere(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn spliced_templates_never_panic(
        template in 0usize..20,
        edits in vec((0u8..9, 0usize..4096, 0usize..20, 0usize..4096), 1..8),
    ) {
        let original = &templates()[template];
        compile_everywhere(&original.join(" "));
        let mut chained = original.clone();
        for edit in edits {
            let mut alone = original.clone();
            apply(&mut alone, edit);
            compile_everywhere(&alone.join(" "));
            apply(&mut chained, edit);
            compile_everywhere(&chained.join(" "));
        }
    }
}
