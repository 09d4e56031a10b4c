//! The load generator's query uniquifier.
//!
//! §5.1: "To simulate the large number of unique query compilations, our
//! load generator modifies each base query before it is submitted to the
//! database server to make it appear unique and to defeat plan-caching
//! features in the DBMS." We do the same: parse the template, perturb every
//! numeric literal by a small deterministic amount drawn from the client's
//! RNG, and re-render. The result is semantically near-identical but textually
//! unique, so a text-keyed plan cache always misses.
//!
//! Two entry points share the exact same RNG draws:
//!
//! * [`Uniquifier::uniquify`] — parse, perturb, render to a fresh `String`
//!   (the real compile path and one-off callers);
//! * [`Uniquifier::uniquify_digest`] — the engine's hot path. It never
//!   renders: it perturbs a cached snapshot of the template's numeric
//!   literals and folds the template id, the perturbed values and the
//!   `LIMIT` tag (when the text path would add one) into a 64-bit key. Two
//!   keys are equal exactly when the two `uniquify` texts are, so a cache
//!   keyed on either behaves the same. After the first submission of each
//!   template it allocates nothing.

use crate::catalog::TemplateId;
use std::fmt::Write as _;
use throttledb_sim::SimRng;
use throttledb_sqlparse::{parse, Literal};

/// 64-bit FNV-1a over `bytes`: the workspace's cheap, stable digest (trace
/// and fingerprint digests; the uniquifier's keys fold through [`Fnv64`]).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv64::new();
    hash.update(bytes);
    hash.finish()
}

/// Incremental 64-bit FNV-1a: the streaming counterpart of [`fnv1a_64`]
/// (`Fnv64::new().update(b).finish() == fnv1a_64(b)` for any byte split).
/// The trace plane folds every encoded frame through one of these so a
/// multi-gigabyte trace gets a digest without ever being materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the FNV offset basis (the empty-input digest).
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the running digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for b in bytes {
            hash ^= *b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }

    /// The digest of everything folded so far (the hasher stays usable).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// A template's numeric literals, snapshotted once so each submission can
/// re-perturb from the original values without touching the parse tree.
#[derive(Debug, Clone)]
struct Prepared {
    /// Original numeric-literal values in visitor order.
    originals: Vec<f64>,
    /// Whether the template renders back to its own text. Only then can
    /// `uniquify` output equal the template and need its `LIMIT` tag.
    renders_verbatim: bool,
}

impl Prepared {
    fn new(sql: &str) -> Prepared {
        let mut stmt = parse(sql).expect("workload templates must parse");
        let mut originals = Vec::new();
        stmt.for_each_literal_mut(&mut |lit| {
            if let Literal::Number(n) = lit {
                originals.push(*n);
            }
        });
        Prepared {
            originals,
            renders_verbatim: stmt.to_string() == sql,
        }
    }
}

/// Rewrites query templates into unique instances.
#[derive(Debug, Default, Clone)]
pub struct Uniquifier {
    /// Cached literal snapshots, indexed by [`TemplateId`].
    prepared: Vec<Option<Prepared>>,
}

impl Uniquifier {
    /// Create a uniquifier.
    pub fn new() -> Self {
        Uniquifier::default()
    }

    /// Produce a unique instance of `template_sql`, using `rng` for the
    /// perturbations and `submission_id` as a guaranteed-unique tag.
    ///
    /// Panics if the template does not parse — templates are static assets
    /// and a non-parsing one is a bug, not an input condition.
    ///
    /// # Examples
    ///
    /// ```
    /// use throttledb_sim::SimRng;
    /// use throttledb_workload::Uniquifier;
    ///
    /// let template = "SELECT a FROM t WHERE b > 100 LIMIT 5";
    /// let mut rng = SimRng::seed_from_u64(7);
    /// let uniquifier = Uniquifier::new();
    ///
    /// // Two submissions of the same template differ textually (so a
    /// // text-keyed plan cache misses) but stay semantically close: the
    /// // numeric literals are nudged by at most a few percent.
    /// let first = uniquifier.uniquify(template, &mut rng, 0);
    /// let second = uniquifier.uniquify(template, &mut rng, 1);
    /// assert_ne!(first, second);
    /// assert!(first.contains("WHERE"));
    /// ```
    pub fn uniquify(&self, template_sql: &str, rng: &mut SimRng, submission_id: u64) -> String {
        let mut stmt = parse(template_sql).expect("workload templates must parse");
        stmt.for_each_literal_mut(&mut |lit| perturb_literal(lit, rng));
        // A trailing comment-free LIMIT-preserving tag is risky to express in
        // the SQL subset, so uniqueness is guaranteed by literal perturbation
        // plus, as a last resort, an extra predicate that is always true.
        let mut text = stmt.to_string();
        if text == template_sql {
            let _ = write!(text, " LIMIT {}", 1_000_000 + submission_id % 1_000);
        }
        text
    }

    /// Allocation-free, render-free variant for the engine's submission
    /// path: perturb template `id`'s literals (its text is `template_sql`)
    /// and return a key for the uniquified SQL instead of the text itself.
    ///
    /// Consumes exactly the RNG draws of [`Uniquifier::uniquify`], and two
    /// keys are equal exactly when the texts `uniquify` would have produced
    /// are (verified by test), so swapping the engine onto this path changes
    /// no simulation outcome.
    pub fn uniquify_digest(
        &mut self,
        id: TemplateId,
        template_sql: &str,
        rng: &mut SimRng,
        submission_id: u64,
    ) -> u64 {
        let slot = id.index();
        if slot >= self.prepared.len() {
            self.prepared.resize_with(slot + 1, || None);
        }
        let prepared = self.prepared[slot].get_or_insert_with(|| Prepared::new(template_sql));
        let mut key = Fnv64::new();
        key.update(&(slot as u64).to_le_bytes());
        // The same visit order, and therefore the same RNG draws, as
        // perturbing a fresh parse.
        let mut unchanged = true;
        for &original in &prepared.originals {
            let value = rendered_bits(perturb_value(original, rng));
            unchanged &= value == rendered_bits(original);
            key.update(&value.to_le_bytes());
        }
        // `uniquify` tags its text exactly when the rendering equals the
        // template: a verbatim-rendering template whose literals all
        // rendered unchanged.
        if prepared.renders_verbatim && unchanged {
            key.update(&[1]);
            key.update(&(submission_id % 1_000).to_le_bytes());
        }
        key.finish()
    }
}

/// A literal's value as its rendering distinguishes it: `-0` and `0` both
/// render as `0`, every other value renders uniquely.
fn rendered_bits(n: f64) -> u64 {
    if n == 0.0 {
        0
    } else {
        n.to_bits()
    }
}

/// Nudge a numeric value by up to ±3% (at least ±1) so selectivities stay
/// close to the template's but the text is unique.
fn perturb_value(n: f64, rng: &mut SimRng) -> f64 {
    let magnitude = (n.abs() * 0.03).max(1.0);
    let delta = rng.uniform_f64(0.0, magnitude * 2.0) - magnitude;
    (n + delta).round()
}

/// Perturb a numeric literal in place (see [`perturb_value`]).
fn perturb_literal(lit: &mut Literal, rng: &mut SimRng) {
    if let Literal::Number(n) = lit {
        *n = perturb_value(*n, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TemplateCatalog;
    use crate::templates::{oltp_templates, sales_templates, tpch_like_templates};
    use std::collections::{HashMap, HashSet};

    #[test]
    fn uniquified_queries_still_parse() {
        let u = Uniquifier::new();
        let mut rng = SimRng::seed_from_u64(7);
        for t in sales_templates().iter().chain(tpch_like_templates().iter()) {
            let unique = u.uniquify(&t.sql, &mut rng, 1);
            parse(&unique).unwrap_or_else(|e| panic!("{} uniquified does not parse: {e}", t.name));
        }
    }

    #[test]
    fn repeated_submissions_are_textually_distinct() {
        let u = Uniquifier::new();
        let mut rng = SimRng::seed_from_u64(11);
        let template = &sales_templates()[0].sql;
        let mut seen = HashSet::new();
        for i in 0..100 {
            seen.insert(u.uniquify(template, &mut rng, i));
        }
        assert!(
            seen.len() >= 95,
            "at least 95/100 submissions should be unique, got {}",
            seen.len()
        );
    }

    #[test]
    fn structure_is_preserved() {
        let u = Uniquifier::new();
        let mut rng = SimRng::seed_from_u64(13);
        let template = &sales_templates()[2].sql;
        let base = parse(template).unwrap();
        let unique = parse(&u.uniquify(template, &mut rng, 0)).unwrap();
        assert_eq!(base.join_count(), unique.join_count());
        assert_eq!(base.items.len(), unique.items.len());
        assert_eq!(base.group_by.len(), unique.group_by.len());
    }

    #[test]
    fn is_deterministic_per_seed() {
        let u = Uniquifier::new();
        let template = &tpch_like_templates()[1].sql;
        let a = u.uniquify(template, &mut SimRng::seed_from_u64(5), 3);
        let b = u.uniquify(template, &mut SimRng::seed_from_u64(5), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn literal_free_query_still_becomes_unique() {
        let u = Uniquifier::new();
        let mut rng = SimRng::seed_from_u64(17);
        let sql = "SELECT a FROM t";
        let one = u.uniquify(sql, &mut rng, 1);
        let two = u.uniquify(sql, &mut rng, 2);
        assert_ne!(one, sql);
        assert_ne!(one, two);
        parse(&one).unwrap();
    }

    #[test]
    fn digest_path_matches_the_allocating_path_exactly() {
        // The hot path must consume the same RNG draws as the allocating
        // path, and its keys must be equal exactly when the texts are —
        // over every template, many submissions each — so the engine can
        // switch paths without perturbing any seeded experiment or any
        // plan-cache outcome.
        let catalog = TemplateCatalog::from_templates(
            sales_templates()
                .into_iter()
                .chain(tpch_like_templates())
                .chain(oltp_templates()),
        );
        let reference = Uniquifier::new();
        let mut hot = Uniquifier::new();
        let mut rng_a = SimRng::seed_from_u64(23);
        let mut rng_b = SimRng::seed_from_u64(23);
        let mut key_of_text: HashMap<String, u64> = HashMap::new();
        let mut text_of_key: HashMap<u64, String> = HashMap::new();
        for round in 0..200u64 {
            for (id, t) in catalog.iter() {
                let sub = round * 100 + id.index() as u64;
                let text = reference.uniquify(&t.sql, &mut rng_a, sub);
                let key = hot.uniquify_digest(id, &t.sql, &mut rng_b, sub);
                let known_key = *key_of_text.entry(text.clone()).or_insert(key);
                assert_eq!(known_key, key, "one text, two keys: {text}");
                let known_text = text_of_key.entry(key).or_insert_with(|| text.clone());
                assert_eq!(
                    *known_text, text,
                    "one key, two texts ({} round {round})",
                    t.name
                );
            }
        }
        // Repeats happened, so "equal texts give equal keys" was exercised.
        assert!(key_of_text.len() < 200 * catalog.len());
        // And the RNG streams stayed in lockstep throughout.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn digest_path_tags_exactly_when_the_text_path_does() {
        // A literal of 0 perturbs to 0 or ±1, so the text of this
        // verbatim-rendering template often equals it and must be tagged;
        // the keys follow the tag's `submission_id % 1000` exactly as the
        // texts do.
        let mut catalog = TemplateCatalog::new();
        let id = catalog.intern(crate::templates::QueryTemplate {
            name: "zero".into(),
            kind: crate::templates::WorkloadKind::Oltp,
            sql: "SELECT a FROM t WHERE (b = 0)".into(),
        });
        let reference = Uniquifier::new();
        let mut hot = Uniquifier::new();
        let mut rng_a = SimRng::seed_from_u64(31);
        let mut rng_b = SimRng::seed_from_u64(31);
        let mut pairs = Vec::new();
        for sub in [5, 1005, 6, 5, 7, 1007, 5, 6, 7, 2005, 8, 9] {
            let text = reference.uniquify(catalog.sql(id), &mut rng_a, sub);
            let key = hot.uniquify_digest(id, catalog.sql(id), &mut rng_b, sub);
            pairs.push((text, key));
        }
        assert!(pairs.iter().any(|(text, _)| text.contains("LIMIT")));
        for (text_a, key_a) in &pairs {
            for (text_b, key_b) in &pairs {
                assert_eq!(text_a == text_b, key_a == key_b, "{text_a} vs {text_b}");
            }
        }
    }

    #[test]
    fn digest_path_tags_literal_free_templates() {
        let mut catalog = TemplateCatalog::new();
        let id = catalog.intern(crate::templates::QueryTemplate {
            name: "bare".into(),
            kind: crate::templates::WorkloadKind::Oltp,
            sql: "SELECT a FROM t".into(),
        });
        let mut u = Uniquifier::new();
        let mut rng = SimRng::seed_from_u64(29);
        let d1 = u.uniquify_digest(id, catalog.sql(id), &mut rng, 1);
        let d2 = u.uniquify_digest(id, catalog.sql(id), &mut rng, 2);
        assert_ne!(d1, d2, "the LIMIT tag must keep literal-free SQL unique");
        assert_ne!(d1, fnv1a_64(b"SELECT a FROM t"));
    }

    #[test]
    fn fnv_is_stable_and_content_sensitive() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"abc"), fnv1a_64(b"abc"));
        assert_ne!(fnv1a_64(b"abc"), fnv1a_64(b"abd"));
        // The incremental hasher matches the one-shot function for any
        // split of the input.
        let text = b"throttledb-trace v2 streams its digest";
        for split in 0..=text.len() {
            let mut h = Fnv64::new();
            h.update(&text[..split]);
            h.update(&text[split..]);
            assert_eq!(h.finish(), fnv1a_64(text), "split at {split}");
        }
    }
}
