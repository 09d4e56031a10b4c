//! `sim_pipeline` and `sim_firehose`: whole simulator runs as operations.
//!
//! Both drive `Server` through the four public hooks the scenario runner
//! uses (`new`, `begin`, `run_until` once per simulated slice, `finish`).
//! They differ in which half of the engine does the work: the pipeline
//! workload pushes every query through compile → grant → execute with the
//! gateway ladder deciding admissions; the firehose sheds more than 99 %
//! of its arrivals at the door, so the wheel, the arrival sampler and the
//! digest fold are what run.

use crate::spans::Tracer;
use crate::workload::{digest_of, fold_words, paper_machine, Base, Extras, OpOutcome, Workload};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use throttledb_core::ThrottleConfig;
use throttledb_engine::{ArrivalSourceConfig, RunMetrics, Server, ServerConfig, WorkloadProfiles};
use throttledb_scenario::TraceWriterV2;
use throttledb_sim::{ArrivalProcess, SimDuration, SimTime};

/// Simulated runs per primary pass: enough for a p90 with ten inputs
/// beyond it.
const PRIMARY_INPUTS: usize = 100;
/// Runs per alt pass.
const ALT_INPUTS: usize = 30;
/// Runs the traced extras repeat with a trace sink attached.
const SINK_INPUTS: usize = 10;

/// Which work unit an operation reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    /// Simulated queries submitted.
    Queries,
    /// Open-loop arrivals offered.
    Arrivals,
}

/// Either simulated workload, set up.
pub struct SimWorkload {
    profiles: Arc<WorkloadProfiles>,
    primary: ServerConfig,
    alt: ServerConfig,
    unit: Unit,
    alt_mirrors_primary: bool,
    seed: u64,
}

/// What one simulated run produced.
struct SimRun {
    /// Host seconds from `Server::new` to the end of `finish`.
    secs: f64,
    /// Queries submitted.
    submitted: u64,
    metrics: RunMetrics,
}

impl SimWorkload {
    /// Closed loop: the paper's machine, 20 materialized clients, gateway
    /// ladder on, 40 simulated hours — about 2.9 k queries through every
    /// stage, with the broker tick and the ladder doing the work. Alt is
    /// the same run with the throttle disabled, which bypasses
    /// `core::ladder`: a policy-layer change must move primary only.
    pub fn pipeline(base: Base, seed: u64) -> Self {
        let shape = |throttle| {
            let mut config = paper_machine(20, throttle);
            config.duration = SimDuration::from_secs(40 * 3600);
            config.slice = SimDuration::from_secs(3600);
            config
        };
        SimWorkload {
            profiles: base.profiles,
            primary: shape(ThrottleConfig::paper_machine()),
            alt: shape(ThrottleConfig::disabled(8)),
            unit: Unit::Queries,
            alt_mirrors_primary: false,
            seed,
        }
    }

    /// Open loop: 4 500 arrivals/s Poisson against a 512-slot cap on top of
    /// a cohort-compressed 64-client loop, 150 simulated seconds — the
    /// shape of the built-in `open_loop_scale` scenario. Alt is the same
    /// run at `shards = 2`, the second event loop and arrival plane, which
    /// must reproduce the single-shard digest and counters exactly.
    pub fn firehose(base: Base, seed: u64) -> Self {
        let shape = |shards| {
            let mut config = paper_machine(64, ThrottleConfig::paper_machine());
            config.duration = SimDuration::from_secs(150);
            config.slice = SimDuration::from_secs(10);
            config.cohort_compressed = true;
            config.shards = shards;
            config.arrivals = vec![ArrivalSourceConfig {
                name: "firehose".to_string(),
                process: ArrivalProcess::Poisson {
                    rate_per_sec: 4_500.0,
                },
                class: 0,
                max_in_flight: 512,
                modeled_clients: 1_000_000,
            }];
            config
        };
        SimWorkload {
            profiles: base.profiles,
            primary: shape(1),
            alt: shape(2),
            unit: Unit::Arrivals,
            alt_mirrors_primary: true,
            seed,
        }
    }

    fn op(&self, shape: &ServerConfig, i: usize, with_sink: bool, tracer: &Tracer) -> OpOutcome {
        let mut config = shape.clone();
        // Per-op seeds mixed from `(S, i)`, shared between primary and alt.
        // Not `S + i`: neighbouring run seeds would then share 99 of their
        // 100 inputs, and ten runs would look steadier than they are.
        config.seed = fold_words(&[self.seed, i as u64]);
        let run = run_once(config, &self.profiles, with_sink, tracer);
        let m = &run.metrics;
        let finished = m.completed.total() + m.failed.total();
        let work = match self.unit {
            Unit::Queries => run.submitted,
            Unit::Arrivals => m.arrivals,
        };
        OpOutcome {
            secs: run.secs,
            work,
            fingerprint: fold_words(&[
                run.submitted,
                m.completed.total(),
                m.failed.total(),
                m.events_dispatched,
                m.arrival_digest,
            ]),
            // Simulated query failures are model output, not failed ops;
            // what must hold is conservation.
            ok: work > 0
                && finished <= run.submitted
                && m.arrivals == m.arrivals_admitted + m.arrivals_shed
                && m.failed.total() == m.total_failures(),
        }
    }
}

/// One simulated run through the server's public hooks, `run_until` called
/// once per simulated slice.
fn run_once(
    config: ServerConfig,
    profiles: &Arc<WorkloadProfiles>,
    with_sink: bool,
    tracer: &Tracer,
) -> SimRun {
    let clients = config.clients;
    let slice = config.slice;
    let broker_tick = config.broker_tick;
    let compile_steps = config.compile_steps;
    let end = SimTime::ZERO + config.duration;
    let start = Instant::now();
    let mut server = tracer.time("engine.server_new", 1, || {
        Server::new(config, Arc::clone(profiles))
    });
    if with_sink {
        let writer = TraceWriterV2::new(std::io::sink(), &[], 0).expect("io::sink never fails");
        server.set_trace_sink(Rc::new(RefCell::new(writer)));
    }
    server.set_active_clients(clients);
    tracer.time("engine.begin", 1, || server.begin());
    let mut at = SimTime::ZERO;
    while at < end {
        at = (at + slice).min(end);
        let before = server.events_dispatched();
        let guard = tracer.span("engine.run_until", 0);
        server.run_until(at);
        guard.set_count(server.events_dispatched() - before);
    }
    let submitted = server.queries_submitted();
    let metrics = tracer.time("engine.finish", 1, || server.finish());
    let secs = start.elapsed().as_secs_f64();
    if tracer.is_on() {
        tracer.count("engine.sim.submitted", submitted);
        tracer.count("engine.sim.completed", metrics.completed.total());
        tracer.count("engine.sim.failed", metrics.failed.total());
        tracer.count("engine.sim.arrivals", metrics.arrivals);
        tracer.count("engine.sim.arrivals_shed", metrics.arrivals_shed);
        tracer.count("engine.sim.events_dispatched", metrics.events_dispatched);
        tracer.count(
            "engine.sim.peak_queue_depth",
            metrics.peak_queue_depth as u64,
        );
        tracer.count(
            "engine.sim.compilations_started",
            metrics.throttle.compilations_started,
        );
        let grants: u64 = metrics
            .classes
            .iter()
            .map(|c| c.grants.admitted + c.grants.degraded + c.grants.queued)
            .sum();
        tracer.count("engine.sim.grant_requests", grants);
        tracer.count(
            "engine.sim.broker_ticks",
            end.as_micros() / broker_tick.as_micros(),
        );
        tracer.count("engine.sim.clients", u64::from(clients));
        tracer.count("engine.sim.compile_steps", u64::from(compile_steps));
        tracer.count("engine.sim.runs", 1);
    }
    SimRun {
        secs,
        submitted,
        metrics,
    }
}

impl Workload for SimWorkload {
    fn primary_len(&self) -> usize {
        PRIMARY_INPUTS
    }

    fn alt_len(&self) -> usize {
        ALT_INPUTS
    }

    fn primary(&self, i: usize, tracer: &Tracer) -> OpOutcome {
        self.op(&self.primary, i, false, tracer)
    }

    fn alt(&self, i: usize, tracer: &Tracer) -> OpOutcome {
        self.op(&self.alt, i, false, tracer)
    }

    fn unit(&self) -> &'static str {
        match self.unit {
            Unit::Queries => "simulated queries",
            Unit::Arrivals => "arrivals offered",
        }
    }

    fn alt_mirrors_primary(&self) -> bool {
        self.alt_mirrors_primary
    }

    fn config_digest(&self) -> u64 {
        let mut primary = self.primary.clone();
        let mut alt = self.alt.clone();
        primary.seed = 0;
        alt.seed = 0;
        fold_words(&[
            digest_of(&primary),
            digest_of(&alt),
            digest_of(&(PRIMARY_INPUTS, ALT_INPUTS)),
        ])
    }

    /// The first few primary inputs again with a v2 trace sink writing into
    /// `io::sink()`, against the same inputs without: what recording costs
    /// the engine, and so the budget for richer trace records. Recording
    /// must not change the run.
    fn traced_extras(&self) -> Option<Extras> {
        let off = Tracer::off();
        let mut extras = Extras::default();
        let (mut plain_secs, mut sink_secs) = (0.0, 0.0);
        for i in 0..SINK_INPUTS {
            let plain = self.op(&self.primary, i, false, &off);
            let sunk = self.op(&self.primary, i, true, &off);
            plain_secs += plain.secs;
            sink_secs += sunk.secs;
            extras.attempted += 1;
            extras.failed += u64::from(!sunk.ok || sunk.fingerprint != plain.fingerprint);
        }
        extras.trace_sink_overhead_ratio = sink_secs / plain_secs;
        Some(extras)
    }
}
