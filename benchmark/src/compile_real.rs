//! `compile_real`: the real compile path, statement by statement.
//!
//! Primary operations compile one uniquified SALES statement each — the
//! paper's subject, a 15–20 join memo search that models 175–218 MB of
//! compile memory. Alt operations compile a batch of small OLTP and
//! TPC-H-like statements, where lexing, parsing and binding are about half
//! of the time, so a front-end change shows in alt and a memo change in
//! primary.

use crate::spans::Tracer;
use crate::workload::{digest_of, fold_words, Base, Extras, OpOutcome, Workload};
use std::sync::Arc;
use std::time::Instant;
use throttledb_catalog::Catalog;
use throttledb_core::{ThreadedThrottle, ThrottleConfig};
use throttledb_executor::{ExecutionModel, ExecutionProfile};
use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};
use throttledb_optimizer::{Binder, OptimizationOutcome, Optimizer, OptimizerConfig};
use throttledb_sim::SimRng;
use throttledb_sqlparse::{Lexer, Parser, SelectStatement};
use throttledb_workload::{
    fnv1a_64, oltp_templates, sales_templates, tpch_like_templates, Uniquifier,
};

/// Alt batches per pass.
const BATCHES: usize = 20;
/// Statements per alt batch.
const BATCH_STATEMENTS: usize = 1_500;
/// Every this-many-th statement of an alt batch is TPC-H-like, the rest are
/// OLTP, both cycling through their templates. One in fifty keeps lexing,
/// parsing and binding at about half of the batch's time; the fixed
/// composition keeps the batch's cost independent of the seed, which only
/// picks the literals.
const BATCH_TPCH_EVERY: usize = 50;

/// Which catalog a statement compiles against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schema {
    Sales,
    Tpch,
}

struct Statement {
    sql: String,
    schema: Schema,
}

/// The workload, set up.
pub struct CompileReal {
    base: Base,
    exec: ExecutionModel,
    primary: Vec<Statement>,
    batches: Vec<Vec<Statement>>,
    config_digest: u64,
}

/// One compiled statement's outputs.
struct Compiled {
    stmt: SelectStatement,
    outcome: OptimizationOutcome,
    profile: ExecutionProfile,
}

impl CompileReal {
    /// Generate the inputs for `seed`.
    pub fn new(base: Base, seed: u64, tracer: &Tracer) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xC0_4D11_E5EA_15ED);
        let uniquifier = Uniquifier::new();
        let mut submission = 0u64;
        let mut uniquify = |sql: &str, rng: &mut SimRng| {
            submission += 1;
            tracer.time("workload.uniquify", 1, || {
                uniquifier.uniquify(sql, rng, submission)
            })
        };

        // One instance of each of the ten SALES templates: instances of a
        // template cost the same, so further ones would only make rounds
        // longer, and a run is steadier with more rounds than with more
        // inputs.
        let sales = sales_templates();
        let primary: Vec<Statement> = sales
            .iter()
            .map(|template| Statement {
                sql: uniquify(&template.sql, &mut rng),
                schema: Schema::Sales,
            })
            .collect();

        let oltp = oltp_templates();
        let tpch = tpch_like_templates();
        let mut batches = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let mut batch = Vec::with_capacity(BATCH_STATEMENTS);
            for k in 0..BATCH_STATEMENTS {
                let (template, schema) = if k % BATCH_TPCH_EVERY == 0 {
                    (&tpch[k / BATCH_TPCH_EVERY % tpch.len()], Schema::Tpch)
                } else {
                    (&oltp[k % oltp.len()], Schema::Sales)
                };
                batch.push(Statement {
                    sql: uniquify(&template.sql, &mut rng),
                    schema,
                });
            }
            batches.push(batch);
        }

        let template_text: Vec<&str> = sales
            .iter()
            .chain(&oltp)
            .chain(&tpch)
            .map(|t| t.sql.as_str())
            .collect();
        let config_digest = fold_words(&[
            digest_of(&template_text),
            digest_of(&OptimizerConfig::default()),
            digest_of(&ExecutionModel::default()),
            digest_of(&(BATCHES, BATCH_STATEMENTS, BATCH_TPCH_EVERY)),
        ]);
        CompileReal {
            base,
            exec: ExecutionModel::default(),
            primary,
            batches,
            config_digest,
        }
    }

    fn catalog(&self, schema: Schema) -> &Catalog {
        match schema {
            Schema::Sales => &self.base.sales,
            Schema::Tpch => &self.base.tpch,
        }
    }

    /// Lex, parse, optimize and profile one statement — `parse()` and
    /// `WorkloadProfiles::characterize` spelled out so each stage gets its
    /// own span.
    fn compile(&self, statement: &Statement, tracer: &Tracer) -> Option<Compiled> {
        let catalog = self.catalog(statement.schema);
        let lex = tracer.span("sqlparse.lex", 0);
        let tokens = Lexer::new(&statement.sql).tokenize().ok()?;
        lex.set_count(tokens.len() as u64);
        drop(lex);
        let stmt = tracer.time("sqlparse.parse", 1, || {
            Parser::new(tokens).parse_select_statement().ok()
        })?;
        let outcome = tracer.time("optimizer.optimize", 1, || {
            Optimizer::new(catalog).optimize(&stmt).ok()
        })?;
        let profile = tracer.time("executor.profile", 1, || {
            self.exec.profile(&outcome.plan, catalog)
        });
        Some(Compiled {
            stmt,
            outcome,
            profile,
        })
    }

    /// After the clock has stopped: record the exact counts, and time the
    /// bind on its own so the optimizer's self time can exclude it
    /// (`Optimizer::optimize` binds internally, out of a span's reach).
    fn after_op(&self, statement: &Statement, compiled: &Compiled, tracer: &Tracer) {
        if !tracer.is_on() {
            return;
        }
        let stats = &compiled.outcome.stats;
        tracer.count("optimizer.optimize.transformations", stats.transformations);
        tracer.count("optimizer.optimize.memo_exprs", stats.memo_exprs as u64);
        tracer.count(
            "optimizer.optimize.peak_memory_bytes",
            stats.peak_memory_bytes,
        );
        let catalog = self.catalog(statement.schema);
        let bound = tracer.time("optimizer.bind", 1, || {
            Binder::new(catalog).bind(&compiled.stmt)
        });
        std::hint::black_box(bound.is_ok());
    }
}

/// Everything a compile produced, folded into one word: the counts the
/// model consumes and the plan itself.
fn fingerprint(compiled: &Compiled) -> u64 {
    let stats = &compiled.outcome.stats;
    fold_words(&[
        stats.transformations,
        stats.memo_exprs as u64,
        stats.peak_memory_bytes,
        fnv1a_64(compiled.outcome.plan.display_indented().as_bytes()),
        compiled.profile.cpu_seconds.to_bits(),
        compiled.profile.footprint_bytes,
        compiled.profile.requested_grant_bytes,
    ])
}

fn plausible(compiled: &Compiled) -> bool {
    compiled.outcome.stats.peak_memory_bytes > 0
        && compiled.outcome.plan.operator_count() > 0
        && compiled.profile.cpu_seconds > 0.0
}

impl Workload for CompileReal {
    fn primary_len(&self) -> usize {
        self.primary.len()
    }

    fn alt_len(&self) -> usize {
        self.batches.len()
    }

    fn primary(&self, i: usize, tracer: &Tracer) -> OpOutcome {
        let statement = &self.primary[i];
        let start = Instant::now();
        let compiled = self.compile(statement, tracer);
        let secs = start.elapsed().as_secs_f64();
        let Some(compiled) = compiled else {
            return OpOutcome::FAILED;
        };
        self.after_op(statement, &compiled, tracer);
        OpOutcome {
            secs,
            work: 1,
            fingerprint: fingerprint(&compiled),
            ok: plausible(&compiled),
        }
    }

    fn alt(&self, i: usize, tracer: &Tracer) -> OpOutcome {
        let batch = &self.batches[i];
        let mut compiled = Vec::with_capacity(batch.len());
        let start = Instant::now();
        for statement in batch {
            match self.compile(statement, tracer) {
                Some(c) => compiled.push(c),
                None => return OpOutcome::FAILED,
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let mut words = Vec::with_capacity(batch.len());
        let mut ok = true;
        for (statement, c) in batch.iter().zip(&compiled) {
            self.after_op(statement, c, tracer);
            words.push(fingerprint(c));
            ok &= plausible(c);
        }
        OpOutcome {
            secs,
            work: batch.len() as u64,
            fingerprint: fold_words(&words),
            ok,
        }
    }

    fn unit(&self) -> &'static str {
        "statements"
    }

    fn alt_mirrors_primary(&self) -> bool {
        false
    }

    fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// One statement per SALES template through `optimize_with_governor`
    /// — a `ThreadedThrottle` governor over a broker too large to ever
    /// constrain it, plus a broker clerk, on this one thread — against the
    /// same statements ungoverned. The plans must be identical; the time
    /// ratio is the budget for per-allocation governor cost.
    fn traced_extras(&self) -> Option<Extras> {
        let broker = MemoryBroker::new(BrokerConfig::with_total_memory(1 << 44));
        let clerk = broker.register(SubcomponentKind::Compilation);
        let throttle = Arc::new(ThreadedThrottle::new(
            ThrottleConfig::paper_machine(),
            Arc::clone(&broker),
        ));
        let optimizer = Optimizer::new(&self.base.sales);
        let mut extras = Extras::default();
        let (mut plain_secs, mut governed_secs) = (0.0, 0.0);
        for statement in &self.primary {
            extras.attempted += 1;
            let Ok(stmt) = throttledb_sqlparse::parse(&statement.sql) else {
                extras.failed += 1;
                continue;
            };
            let start = Instant::now();
            let plain = optimizer.optimize(&stmt);
            plain_secs += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let governed =
                optimizer.optimize_with_governor(&stmt, throttle.governor(), Some(clerk.clone()));
            governed_secs += start.elapsed().as_secs_f64();
            let same = match (plain, governed) {
                (Ok(p), Ok(g)) => {
                    p.stats == g.stats && p.plan.display_indented() == g.plan.display_indented()
                }
                _ => false,
            };
            extras.failed += u64::from(!same);
        }
        extras.governed_overhead_ratio = governed_secs / plain_secs;
        Some(extras)
    }
}
