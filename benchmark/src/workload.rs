//! What the four workloads share: the set-up every one of them pays for,
//! the pinned machine, and the interface the runner drives them through.

use crate::compile_real::CompileReal;
use crate::sim::SimWorkload;
use crate::spans::Tracer;
use crate::trace_plane::TracePlane;
use std::fmt::Debug;
use std::sync::Arc;
use throttledb_catalog::{sales_schema, tpch_schema, Catalog, SalesScale};
use throttledb_core::ThrottleConfig;
use throttledb_engine::{PolicyKind, ServerConfig, WorkloadProfiles};
use throttledb_membroker::BrokerConfig;
use throttledb_sim::SimDuration;
use throttledb_workload::{fnv1a_64, Fnv64};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "compile_real",
    "sim_pipeline",
    "sim_firehose",
    "trace_plane",
];

/// What one operation did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpOutcome {
    /// Host seconds the operation itself took. Generating its input and
    /// checking its output happen outside this interval.
    pub secs: f64,
    /// Work units processed (see [`Workload::unit`]).
    pub work: u64,
    /// Digest of the operation's outputs. The same input must produce the
    /// same digest in every round.
    pub fingerprint: u64,
    /// Whether the operation's own output checks passed.
    pub ok: bool,
}

impl OpOutcome {
    /// An operation that produced no output to check.
    pub const FAILED: OpOutcome = OpOutcome {
        secs: 0.0,
        work: 0,
        fingerprint: 0,
        ok: false,
    };
}

/// One benchmark workload, set up and ready to run operations.
pub trait Workload {
    /// Number of distinct primary inputs.
    fn primary_len(&self) -> usize;
    /// Number of distinct alt inputs.
    fn alt_len(&self) -> usize;
    /// Run primary input `i`.
    fn primary(&self, i: usize, tracer: &Tracer) -> OpOutcome;
    /// Run alt input `i`.
    fn alt(&self, i: usize, tracer: &Tracer) -> OpOutcome;
    /// What `work` counts, in both passes.
    fn unit(&self) -> &'static str;
    /// Whether alt input `i` must reproduce primary input `i`'s fingerprint
    /// (the two are paths the repository claims are identical).
    fn alt_mirrors_primary(&self) -> bool;
    /// Digest of everything pinned in the workload's configuration, seed
    /// excluded; printed so drift across commits is visible.
    fn config_digest(&self) -> u64;
    /// Checked operations the set-up routine itself performed, as
    /// `(attempted, failed)`.
    fn setup_checks(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Layer comparisons only the traced run makes (a governed compile, a
    /// run with a trace sink attached); `None` where the workload has none.
    fn traced_extras(&self) -> Option<Extras> {
        None
    }
}

/// Ratios a workload measures only in the traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Extras {
    /// `optimizer.governed.overhead_ratio`
    pub governed_overhead_ratio: f64,
    /// `engine.trace_sink.overhead_ratio`
    pub trace_sink_overhead_ratio: f64,
    /// Checked operations the comparison performed.
    pub attempted: u64,
    /// Those whose output check failed.
    pub failed: u64,
}

/// Set-up products every workload starts from.
pub struct Base {
    /// The SALES warehouse at paper scale.
    pub sales: Catalog,
    /// The TPC-H-like schema at scale factor 30.
    pub tpch: Catalog,
    /// Every template compiled once through the real optimizer.
    pub profiles: Arc<WorkloadProfiles>,
}

/// The shared part of set-up, built from nothing: both catalogs and the
/// full characterization that every `scenario_runner` run starts with.
fn build_base(tracer: &Tracer) -> Base {
    let (sales, tpch) = tracer.time("catalog.build", 2, || {
        (sales_schema(SalesScale::paper()), tpch_schema(30.0))
    });
    let config = paper_machine(1, ThrottleConfig::paper_machine());
    let guard = tracer.span("engine.characterize_full", 0);
    let profiles = Arc::new(WorkloadProfiles::characterize_full(&config));
    guard.set_count(profiles.len() as u64);
    drop(guard);
    Base {
        sales,
        tpch,
        profiles,
    }
}

/// The paper's machine with every calibration value the simulated
/// workloads depend on written out here, so that recalibrating
/// `ServerConfig::paper` (ROADMAP's first item) changes the model without
/// silently changing what this benchmark runs. The broker and the throttle
/// come from their own paper constructors; the config digest shows when
/// those move.
pub fn paper_machine(clients: u32, throttle: ThrottleConfig) -> ServerConfig {
    let mut config = ServerConfig::paper(clients, true);
    config.cpus = 8;
    config.broker = BrokerConfig::paper_machine();
    config.throttle = throttle;
    config.clients = clients;
    config.arrivals = Vec::new();
    config.cohort_compressed = false;
    config.warmup = SimDuration::ZERO;
    config.compile_seconds_per_transformation = 1.4e-3;
    config.compile_seconds_base = 2.0;
    config.compile_steps = 16;
    config.io_touched_fraction = 0.05;
    config.io_bandwidth_bytes_per_sec = 160.0e6;
    config.hot_working_set_bytes = 8 << 30;
    config.exec_parallelism = 4.0;
    config.exec_cpu_calibration = 0.04;
    config.grant_timeout = SimDuration::from_secs(900);
    config.broker_tick = SimDuration::from_secs(5);
    config.oltp_fraction = 0.05;
    config.policy = PolicyKind::Ladder;
    config.retry_budget = 0;
    config.query_deadline = None;
    config.shards = 1;
    config
}

/// Set up workload `name` for `seed`, from nothing.
pub fn set_up(name: &str, seed: u64, tracer: &Tracer) -> Option<Box<dyn Workload>> {
    let build: fn(Base, u64, &Tracer) -> Box<dyn Workload> = match name {
        "compile_real" => |base, seed, tracer| Box::new(CompileReal::new(base, seed, tracer)),
        "sim_pipeline" => |base, seed, _| Box::new(SimWorkload::pipeline(base, seed)),
        "sim_firehose" => |base, seed, _| Box::new(SimWorkload::firehose(base, seed)),
        "trace_plane" => |base, seed, tracer| Box::new(TracePlane::new(base, seed, tracer)),
        _ => return None,
    };
    Some(build(build_base(tracer), seed, tracer))
}

/// FNV-1a over a value's `Debug` rendering.
pub fn digest_of(value: &impl Debug) -> u64 {
    fnv1a_64(format!("{value:?}").as_bytes())
}

/// FNV-1a over a sequence of words.
pub fn fold_words(words: &[u64]) -> u64 {
    let mut hash = Fnv64::new();
    for word in words {
        hash.update(&word.to_le_bytes());
    }
    hash.finish()
}
