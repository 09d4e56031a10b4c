//! Pins everything the rest of the system can observe about a compilation,
//! for every workload template, against values committed in
//! `golden/compile_fingerprint.txt`.
//!
//! One line per (template, governor): stage, transformation count, memo
//! size, modelled peak, the extracted plan, and — through a recording
//! [`MemoryGovernor`] and a broker clerk — the whole sequence of
//! `(used, peak)` pairs the gateway ladder would have seen plus the total
//! bytes the broker was charged. The three governors cover the normal path
//! and both early exits (best-effort above 4 MB, abort above 1 MB).
//!
//! The memo's in-memory representation is free to change; these lines are
//! not. To re-record after a *deliberate* model change, paste the "actual"
//! block the failing test prints over the golden file.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use throttledb_catalog::{sales_schema, tpch_schema, Catalog, SalesScale};
use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};
use throttledb_optimizer::{GovernorDirective, MemoryGovernor, Optimizer, OptimizerError};
use throttledb_sqlparse::parse;
use throttledb_workload::{
    fnv1a_64, oltp_templates, sales_templates, tpch_like_templates, Fnv64, QueryTemplate,
};

const GOLDEN: &str = include_str!("golden/compile_fingerprint.txt");

/// What the recording governor answers once `used` exceeds `above`.
#[derive(Clone, Copy)]
struct Limit {
    label: &'static str,
    above: u64,
    directive: GovernorDirective,
}

const LIMITS: [Limit; 3] = [
    Limit {
        label: "unlimited",
        above: u64::MAX,
        directive: GovernorDirective::Continue,
    },
    Limit {
        label: "finish>4MB",
        above: 4 << 20,
        directive: GovernorDirective::FinishWithBestPlan,
    },
    Limit {
        label: "abort>1MB",
        above: 1 << 20,
        directive: GovernorDirective::Abort,
    },
];

/// Counts the `(used, peak)` pairs it is shown and folds them into an
/// FNV-1a digest.
struct Recorder {
    limit: Limit,
    seen: Arc<Mutex<(u64, Fnv64)>>,
}

impl MemoryGovernor for Recorder {
    fn on_allocation(&mut self, used: u64, peak: u64) -> GovernorDirective {
        let mut seen = self.seen.lock().expect("no panic while recording");
        seen.0 += 1;
        seen.1.update(&used.to_le_bytes());
        seen.1.update(&peak.to_le_bytes());
        if used > self.limit.above {
            self.limit.directive
        } else {
            GovernorDirective::Continue
        }
    }
}

fn fingerprint(catalog: &Catalog, template: &QueryTemplate, limit: Limit) -> String {
    let stmt = parse(&template.sql).expect("templates parse");
    let broker = MemoryBroker::new(BrokerConfig::with_total_memory(1 << 44));
    let clerk = broker.register(SubcomponentKind::Compilation);
    let seen = Arc::new(Mutex::new((0, Fnv64::new())));
    let governor = Recorder {
        limit,
        seen: Arc::clone(&seen),
    };
    let result = Optimizer::new(catalog).optimize_with_governor(
        &stmt,
        Box::new(governor),
        Some(clerk.clone()),
    );
    assert_eq!(
        clerk.used_bytes(),
        0,
        "{}: clerk bytes leaked",
        template.name
    );

    let mut line = format!("{} {} ", template.name, limit.label);
    match result {
        Ok(out) => {
            let s = out.stats;
            let _ = write!(
                line,
                "stage={:?} transformations={} groups={} exprs={} peak={} best_effort={} plan={:016x} plan_debug={:016x}",
                s.stage,
                s.transformations,
                s.memo_groups,
                s.memo_exprs,
                s.peak_memory_bytes,
                s.finished_best_effort,
                fnv1a_64(out.plan.display_indented().as_bytes()),
                // Every name and predicate of every operator, in order.
                fnv1a_64(format!("{:?}", out.plan).as_bytes()),
            );
        }
        Err(OptimizerError::Aborted(_)) => line.push_str("aborted"),
        Err(other) => panic!("{}: unexpected error {other}", template.name),
    }
    let (charges, digest) = *seen.lock().expect("no panic while recording");
    let _ = write!(
        line,
        " charges={charges} charge_digest={:016x} broker_total={}",
        digest.finish(),
        clerk.total_allocated(),
    );
    line
}

#[test]
fn every_template_compiles_to_its_committed_fingerprint() {
    // The catalogs `WorkloadProfiles::characterize_full` compiles against.
    let sales = sales_schema(SalesScale::paper());
    let tpch = tpch_schema(30.0);
    let families: [(&Catalog, Vec<QueryTemplate>); 3] = [
        (&sales, sales_templates()),
        (&tpch, tpch_like_templates()),
        (&sales, oltp_templates()),
    ];

    let mut actual = String::new();
    for (catalog, templates) in &families {
        for template in templates {
            for limit in LIMITS {
                actual.push_str(&fingerprint(catalog, template, limit));
                actual.push('\n');
            }
        }
    }

    let mismatches: Vec<String> = GOLDEN
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n   got {got}"))
        .collect();
    assert!(
        mismatches.is_empty() && GOLDEN.lines().count() == actual.lines().count(),
        "compile fingerprints moved ({} of {} lines):\n{}\n--- actual ---\n{actual}",
        mismatches.len(),
        actual.lines().count(),
        mismatches.join("\n"),
    );
}
