//! The catalogue of every metric the benchmark reports, and how the
//! per-layer ones are derived from spans, counts and probes.
//!
//! `BENCHMARK.json` repeats the names, units and directions (a unit test
//! holds the two together); the bounds live only there.

use crate::probes;
use crate::spans::{LayerTotals, Tracer};
use crate::workload::Extras;
use std::collections::BTreeMap;

/// `(name, unit, better)` of each end-to-end metric. Every workload reports
/// all six; the work unit behind the two rates is the workload's own.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("alt_work_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_heap_mb", "MB", "lower"),
];

/// `(name, unit, better)` of each per-layer metric. A span-derived metric
/// reads 0 on a workload whose operations never call the layer.
pub const PER_LAYER: [(&str, &str, &str); 50] = [
    ("sqlparse.lex.ns_per_token", "ns/token", "lower"),
    ("sqlparse.parse.us_per_stmt", "us/stmt", "lower"),
    ("optimizer.bind.us_per_stmt", "us/stmt", "lower"),
    ("workload.uniquify.ns_per_stmt", "ns/stmt", "lower"),
    ("optimizer.optimize.ms_per_stmt", "ms/stmt", "lower"),
    (
        "optimizer.optimize.ns_per_transformation",
        "ns/transform",
        "lower",
    ),
    ("optimizer.optimize.transformations", "count", "lower"),
    ("optimizer.optimize.memo_exprs", "count", "lower"),
    ("optimizer.optimize.peak_memory_mb", "MB", "lower"),
    ("executor.profile.us_per_plan", "us/plan", "lower"),
    ("optimizer.governed.overhead_ratio", "ratio", "lower"),
    ("catalog.build.ms", "ms", "lower"),
    ("engine.characterize_full.s", "s", "lower"),
    ("engine.server_new.us", "us", "lower"),
    ("engine.begin.us", "us", "lower"),
    ("engine.run_until.ns_per_event", "ns/event", "lower"),
    ("engine.run_until.events_per_query", "events/query", "lower"),
    ("engine.finish.us", "us", "lower"),
    ("engine.sim.submitted", "count", "higher"),
    ("engine.sim.completed", "count", "higher"),
    ("engine.sim.failed", "count", "lower"),
    ("engine.sim.arrivals", "count", "higher"),
    ("engine.sim.arrivals_shed", "count", "lower"),
    ("engine.sim.events_dispatched", "count", "lower"),
    ("engine.sim.peak_queue_depth", "count", "lower"),
    ("core.ladder.task.ns_per_task", "ns/task", "lower"),
    ("governor.wait_queue.push_pop.ns_per_op", "ns/op", "lower"),
    ("governor.pool.request_release.ns_per_op", "ns/op", "lower"),
    ("membroker.recalculate.ns_per_call", "ns/call", "lower"),
    ("executor.grant.request_release.ns_per_op", "ns/op", "lower"),
    ("bufferpool.model.io_seconds.ns_per_op", "ns/op", "lower"),
    ("plancache.miss_insert.ns_per_op", "ns/op", "lower"),
    ("sim.stats.record.ns_per_op", "ns/op", "lower"),
    ("sim.event_queue.schedule_pop.ns_per_op", "ns/op", "lower"),
    ("sim.event_queue.cancel.ns_per_op", "ns/op", "lower"),
    ("sim.arrival.next_gap.ns_per_op", "ns/op", "lower"),
    ("est_share.sim.event_queue", "share", "lower"),
    ("est_share.membroker", "share", "lower"),
    ("est_share.core.ladder", "share", "lower"),
    ("est_share.executor.grant", "share", "lower"),
    ("est_share.unattributed", "share", "lower"),
    ("scenario.trace_v2.encode.ns_per_event", "ns/event", "lower"),
    ("scenario.trace_v2.decode.ns_per_event", "ns/event", "lower"),
    ("scenario.trace_v2.replay.ns_per_event", "ns/event", "lower"),
    ("scenario.trace_v2.bytes_per_event", "bytes/event", "lower"),
    ("scenario.trace_v1.encode.ns_per_event", "ns/event", "lower"),
    ("scenario.trace_v1.decode.ns_per_event", "ns/event", "lower"),
    ("scenario.trace_v1.bytes_per_event", "bytes/event", "lower"),
    ("engine.trace_sink.overhead_ratio", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
];

/// What the traced run hands over for derivation.
pub struct TracedInputs<'a> {
    /// The tracer that recorded the run.
    pub tracer: &'a Tracer,
    /// Span totals per `(section, name)`.
    pub totals: &'a BTreeMap<(&'static str, &'static str), LayerTotals>,
    /// Traced primary+alt passes the spans and counts cover.
    pub passes: u64,
    /// Probe results, by metric name.
    pub probes: &'a [(&'static str, f64)],
    /// The workload's traced-only comparisons.
    pub extras: Extras,
    /// Traced wall ÷ untraced wall over the same passes.
    pub trace_overhead_ratio: f64,
}

/// `a / b`, or 0 when the layer did no work (`b == 0`).
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// `(name, unit, value)` of every per-layer metric, in catalogue order.
pub fn derive_per_layer(input: &TracedInputs<'_>) -> Vec<(&'static str, &'static str, f64)> {
    let span = |section: &'static str, name: &'static str| {
        input
            .totals
            .get(&(section, name))
            .copied()
            .unwrap_or_default()
    };
    // Span totals over the operation passes, whichever section.
    let ops = |name: &'static str| {
        let (p, a) = (span("primary", name), span("alt", name));
        LayerTotals {
            self_ns: p.self_ns + a.self_ns,
            total_ns: p.total_ns + a.total_ns,
            count: p.count + a.count,
            calls: p.calls + a.calls,
        }
    };
    // Exact counts are per traced pass; every pass repeats the same inputs.
    let count = |section: &'static str, name: &'static str| {
        (input.tracer.counter(section, name) / input.passes) as f64
    };
    let probe = |name: &str| {
        input
            .probes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Front end: dominated by the alt batches wherever they exist.
    let lex = ops("sqlparse.lex");
    out.insert(
        "sqlparse.lex.ns_per_token",
        per(lex.self_ns as f64, lex.count as f64),
    );
    let parse = ops("sqlparse.parse");
    out.insert(
        "sqlparse.parse.us_per_stmt",
        per(parse.self_ns as f64 / 1e3, parse.count as f64),
    );
    let bind = ops("optimizer.bind");
    out.insert(
        "optimizer.bind.us_per_stmt",
        per(bind.self_ns as f64 / 1e3, bind.count as f64),
    );
    let uniquify = span("setup", "workload.uniquify");
    out.insert(
        "workload.uniquify.ns_per_stmt",
        per(uniquify.self_ns as f64, uniquify.count as f64),
    );

    // The memo search, on the primary statements only: mixing in the alt
    // batches' thousands of microsecond compiles would average it away.
    let optimize = span("primary", "optimizer.optimize");
    let primary_bind = span("primary", "optimizer.bind");
    let optimize_self = optimize.self_ns.saturating_sub(primary_bind.self_ns) as f64;
    let transformations = count("primary", "optimizer.optimize.transformations");
    out.insert(
        "optimizer.optimize.ms_per_stmt",
        per(optimize_self / 1e6, optimize.count as f64),
    );
    out.insert(
        "optimizer.optimize.ns_per_transformation",
        per(optimize_self / input.passes as f64, transformations),
    );
    out.insert("optimizer.optimize.transformations", transformations);
    out.insert(
        "optimizer.optimize.memo_exprs",
        count("primary", "optimizer.optimize.memo_exprs"),
    );
    // Modelled compile memory, as a mean over the pass's statements.
    out.insert(
        "optimizer.optimize.peak_memory_mb",
        per(
            count("primary", "optimizer.optimize.peak_memory_bytes") / 1e6,
            (optimize.count / input.passes) as f64,
        ),
    );
    let profile = span("primary", "executor.profile");
    out.insert(
        "executor.profile.us_per_plan",
        per(profile.self_ns as f64 / 1e3, profile.count as f64),
    );
    out.insert(
        "optimizer.governed.overhead_ratio",
        input.extras.governed_overhead_ratio,
    );

    // Set-up.
    out.insert(
        "catalog.build.ms",
        span("setup", "catalog.build").self_ns as f64 / 1e6,
    );
    out.insert(
        "engine.characterize_full.s",
        span("setup", "engine.characterize_full").self_ns as f64 / 1e9,
    );

    // The engine hooks, on the primary runs.
    let runs = count("primary", "engine.sim.runs") * input.passes as f64;
    for (metric, name) in [
        ("engine.server_new.us", "engine.server_new"),
        ("engine.begin.us", "engine.begin"),
        ("engine.finish.us", "engine.finish"),
    ] {
        out.insert(
            metric,
            per(span("primary", name).self_ns as f64 / 1e3, runs),
        );
    }
    let run_until = span("primary", "engine.run_until");
    out.insert(
        "engine.run_until.ns_per_event",
        per(run_until.self_ns as f64, run_until.count as f64),
    );
    let submitted = count("primary", "engine.sim.submitted");
    let events = count("primary", "engine.sim.events_dispatched");
    out.insert("engine.run_until.events_per_query", per(events, submitted));
    for (metric, counter) in [
        ("engine.sim.submitted", "engine.sim.submitted"),
        ("engine.sim.completed", "engine.sim.completed"),
        ("engine.sim.failed", "engine.sim.failed"),
        ("engine.sim.arrivals", "engine.sim.arrivals"),
        ("engine.sim.arrivals_shed", "engine.sim.arrivals_shed"),
        (
            "engine.sim.events_dispatched",
            "engine.sim.events_dispatched",
        ),
    ] {
        out.insert(metric, count("primary", counter));
    }
    // A mean over the pass's runs, not a sum.
    out.insert(
        "engine.sim.peak_queue_depth",
        per(
            count("primary", "engine.sim.peak_queue_depth"),
            count("primary", "engine.sim.runs"),
        ),
    );

    for (name, value) in input.probes {
        out.insert(name, *value);
    }

    // The ledger: probe cost × the run's own counts ÷ `run_until` wall.
    // Without a simulated run nothing is attributed.
    let wall_per_pass = run_until.self_ns as f64 / input.passes as f64;
    let share = |ns_per_op: f64, n: f64| per(ns_per_op * n, wall_per_pass);
    let shares = [
        (
            "est_share.sim.event_queue",
            share(probe("sim.event_queue.schedule_pop.ns_per_op"), events),
        ),
        (
            "est_share.membroker",
            share(
                probe("membroker.recalculate.ns_per_call"),
                count("primary", "engine.sim.broker_ticks"),
            ),
        ),
        (
            "est_share.core.ladder",
            share(
                probe("core.ladder.task.ns_per_task"),
                count("primary", "engine.sim.compilations_started"),
            ),
        ),
        (
            "est_share.executor.grant",
            share(
                probe("executor.grant.request_release.ns_per_op"),
                count("primary", "engine.sim.grant_requests"),
            ),
        ),
    ];
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    out.extend(shares);
    out.insert("est_share.unattributed", 1.0 - attributed);

    // The trace plane: v2 on the primary streams, v1 on the alt ones.
    for (metric, section, name) in [
        (
            "scenario.trace_v2.encode.ns_per_event",
            "primary",
            "scenario.trace_v2.encode",
        ),
        (
            "scenario.trace_v2.decode.ns_per_event",
            "primary",
            "scenario.trace_v2.decode",
        ),
        (
            "scenario.trace_v2.replay.ns_per_event",
            "primary",
            "scenario.trace_v2.replay",
        ),
        (
            "scenario.trace_v1.encode.ns_per_event",
            "alt",
            "scenario.trace_v1.encode",
        ),
        (
            "scenario.trace_v1.decode.ns_per_event",
            "alt",
            "scenario.trace_v1.decode",
        ),
    ] {
        let t = span(section, name);
        out.insert(metric, per(t.self_ns as f64, t.count as f64));
    }
    out.insert(
        "scenario.trace_v2.bytes_per_event",
        per(
            count("primary", "scenario.trace_v2.bytes"),
            count("primary", "scenario.trace_v2.events"),
        ),
    );
    out.insert(
        "scenario.trace_v1.bytes_per_event",
        per(
            count("alt", "scenario.trace_v1.bytes"),
            count("alt", "scenario.trace_v1.events"),
        ),
    );

    out.insert(
        "engine.trace_sink.overhead_ratio",
        input.extras.trace_sink_overhead_ratio,
    );
    out.insert("bench.trace_overhead_ratio", input.trace_overhead_ratio);

    PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, *unit, out.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// Population sizes for the probes: the traced run's own where it
/// simulated, the `sim_pipeline` shape otherwise.
pub fn probe_sizes(tracer: &Tracer) -> probes::Sizes {
    let runs = tracer.counter("primary", "engine.sim.runs");
    if runs == 0 {
        return probes::Sizes::DEFAULT;
    }
    probes::Sizes {
        concurrent: tracer.counter("primary", "engine.sim.clients") / runs,
        queue_depth: (tracer.counter("primary", "engine.sim.peak_queue_depth") / runs).max(1),
        compile_steps: tracer.counter("primary", "engine.sim.compile_steps") / runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalogue(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), catalogue(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalogue(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }

    #[test]
    fn every_per_layer_metric_is_derived_even_from_an_empty_trace() {
        let tracer = Tracer::on();
        let totals = BTreeMap::new();
        let derived = derive_per_layer(&TracedInputs {
            tracer: &tracer,
            totals: &totals,
            passes: 1,
            probes: &[("core.ladder.task.ns_per_task", 5.0)],
            extras: Extras::default(),
            trace_overhead_ratio: 1.25,
        });
        assert_eq!(derived.len(), PER_LAYER.len());
        let value = |name: &str| derived.iter().find(|(n, _, _)| *n == name).unwrap().2;
        assert_eq!(value("sqlparse.lex.ns_per_token"), 0.0);
        assert_eq!(value("core.ladder.task.ns_per_task"), 5.0);
        assert_eq!(value("bench.trace_overhead_ratio"), 1.25);
        // Nothing simulated, nothing attributed.
        assert_eq!(value("est_share.unattributed"), 1.0);
    }

    #[test]
    fn shares_and_the_unattributed_rest_sum_to_one() {
        let tracer = Tracer::on();
        tracer.enter("primary");
        tracer.count("engine.sim.runs", 1);
        tracer.count("engine.sim.events_dispatched", 1_000);
        tracer.count("engine.sim.broker_ticks", 10);
        let mut totals = BTreeMap::new();
        totals.insert(
            ("primary", "engine.run_until"),
            LayerTotals {
                self_ns: 100_000,
                total_ns: 100_000,
                count: 1_000,
                calls: 1,
            },
        );
        let derived = derive_per_layer(&TracedInputs {
            tracer: &tracer,
            totals: &totals,
            passes: 1,
            probes: &[
                ("sim.event_queue.schedule_pop.ns_per_op", 40.0),
                ("membroker.recalculate.ns_per_call", 500.0),
            ],
            extras: Extras::default(),
            trace_overhead_ratio: 1.0,
        });
        let value = |name: &str| derived.iter().find(|(n, _, _)| *n == name).unwrap().2;
        assert_eq!(value("est_share.sim.event_queue"), 0.4);
        assert_eq!(value("est_share.membroker"), 0.05);
        let sum: f64 = derived
            .iter()
            .filter(|(n, _, _)| n.starts_with("est_share."))
            .map(|(_, _, v)| v)
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(value("engine.run_until.ns_per_event"), 100.0);
    }
}
