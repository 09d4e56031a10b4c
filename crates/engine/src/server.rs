//! The discrete-event DBMS server: event dispatch over the pipeline stages.
//!
//! The server owns the simulation state — clients, arrival sources, the
//! per-class admission policies, faults, the trace, the plan cache and the
//! event queue — and routes each popped event to the stage that handles
//! it. All compile/grant/execute *policy* lives in the [`crate::stages`]
//! modules, and the CPU, disk and memory the queries compete for live in
//! the machine's stations (`machine.rs`); what remains here is dispatch,
//! submission scheduling and fault injection.

use crate::arrival_plane::{fold_arrival_digest, ArrivalPlane, NEVER};
use crate::config::ServerConfig;
use crate::fault::{FaultKind, FaultSpec};
use crate::machine::{Admitted, Machine};
use crate::metrics::{ArrivalSourceMetrics, ClassMetrics, MetricsFold, PhaseReport, RunMetrics};
use crate::profile::WorkloadProfiles;
use crate::stages::{ClassRuntime, Query, QueryOrigin};
use crate::trace::{TraceEvent, TraceSink};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use throttledb_sim::{EventQueue, SimDuration, SimRng, SimTime, Slab, SlotRef};
use throttledb_workload::{ClientModel, TemplateId, Uniquifier, WorkloadMix};

/// Discrete events driving the simulation. A query's events name it by its
/// slot in the server's query slab, so an event outliving its query finds
/// the slot empty or reused under a newer generation, and does nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A closed-loop client submits: fresh work (`attempts == 0`) or the
    /// next retry of its current chain. The chain's state rides in the
    /// event, so a client that leaves the loop drops its chain with it.
    Submit {
        client: u32,
        attempts: u32,
        first_at: SimTime,
    },
    /// One compilation memory-growth step completes.
    CompileStep { query: SlotRef },
    /// A gateway wait reached its timeout.
    CompileTimeout { query: SlotRef, level: usize },
    /// A grant wait reached its timeout.
    GrantTimeout { query: SlotRef },
    /// A query finished executing.
    ExecFinish { query: SlotRef },
    /// An installed fault's window begins (index into the fault list).
    FaultBegin { index: u32 },
    /// An installed fault's window ends; its effects are reverted.
    FaultEnd { index: u32 },
    /// One allocation increment of an active memory-leak fault.
    LeakStep { index: u32 },
}

// Every pending event is one of these in the queue: it must not grow.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// Plan-cache key: a compact, copyable stand-in for the query text the
/// paper's text-keyed cache would hash.
///
/// Lookups key on the uniquifier's key for the submission's uniquified SQL
/// (equal exactly when the texts are; only a debug-build assertion looks
/// one up); insertions key on the (template, submission) pair that
/// produced the plan. The two variants can never collide, preserving the
/// workload's designed-in property that the uniquifier defeats the cache —
/// while the hot path never builds SQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PlanKey {
    /// Key of a submission's uniquified text (lookup side).
    Text(u64),
    /// A compiled plan's identity (insert side).
    Compiled(TemplateId, u64),
}

/// Admission accounting of one open-loop arrival source.
///
/// The whole modeled population is this struct plus the source's slot in
/// the [`ArrivalPlane`], which holds its private RNG stream, its sampler
/// and its one pending next-arrival instant.
#[derive(Default)]
pub(crate) struct SourceRuntime {
    /// Queries of this source currently in the pipeline.
    pub in_flight: u32,
    /// Total arrivals offered (admitted + shed).
    pub arrivals: u64,
    /// Arrivals admitted into the compile→grant→execute pipeline.
    pub admitted: u64,
    /// Arrivals shed at the door (concurrency cap or breaker).
    pub shed: u64,
    /// Admitted arrivals that ran to completion.
    pub completed: u64,
    /// Admitted arrivals that failed out of the pipeline (terminal — open
    /// systems do not retry).
    pub failed: u64,
}

/// The simulated server: builds the paper's machine, runs the client
/// population, and returns the run's metrics.
pub struct Server {
    pub(crate) config: ServerConfig,
    pub(crate) profiles: Arc<WorkloadProfiles>,
    /// The CPU, disk and memory stations the queries compete for.
    pub(crate) machine: Machine,
    /// One admission-policy runtime per configured workload class.
    pub(crate) classes: Vec<ClassRuntime>,
    pub(crate) uniquifier: Uniquifier,
    pub(crate) client_model: ClientModel,
    pub(crate) rng: SimRng,
    pub(crate) queue: EventQueue<Event>,
    /// The in-flight queries. Each keeps its monotonic query number
    /// (`Query::id`) for traces, so trace bytes do not depend on slot
    /// reuse.
    pub(crate) queries: Slab<Query>,
    pub(crate) next_query: u64,
    pub(crate) metrics: RunMetrics,
    /// Every event [`Server::trace_push`] emits, folded into per-phase
    /// reports and run totals; [`Server::finish`] fills the metrics' counts
    /// from it.
    pub(crate) fold: MetricsFold,
    pub(crate) now: SimTime,
    /// Number of clients currently in the closed loop (scenario phases
    /// raise and lower this between windows).
    pub(crate) active_clients: u32,
    /// The order clients are activated in when only part of the population
    /// participates: interleaves classes proportionally to their shares
    /// (see [`ServerConfig::activation_order`]).
    pub(crate) activation_order: Vec<u32>,
    /// Per-client participation flag: the first `active_clients` entries of
    /// `activation_order` are active.
    pub(crate) client_active: Vec<bool>,
    /// Per-client busy flag: true while the client has a pending submission
    /// event or an in-flight query. Prevents a re-activated client from
    /// running two closed loops at once.
    pub(crate) client_busy: Vec<bool>,
    /// The active workload mix submissions are sampled from.
    pub(crate) mix: WorkloadMix,
    /// Recorded admission/grant events, when tracing is enabled.
    pub(crate) trace: Option<Vec<TraceEvent>>,
    /// Streaming trace consumer, when installed (see
    /// [`Server::set_trace_sink`]): every recorded event is forwarded here
    /// as it happens, so a run can be serialized without buffering.
    pub(crate) trace_sink: Option<Rc<RefCell<dyn TraceSink>>>,
    /// Reused buffer for admission-policy releases (see
    /// `finish_policy_task`): the release path appends admitted tasks here
    /// instead of allocating a vector per completed query.
    pub(crate) scratch_resumed: Vec<u64>,
    /// Reused buffer for grant-pool admissions, same discipline.
    pub(crate) scratch_admitted: Admitted,
    /// Installed fault specs (see [`crate::Server::install_faults`]).
    pub(crate) faults: Vec<FaultSpec>,
    /// Per-fault active flag; effect multipliers are recomputed from the
    /// active set on every begin/end so reverting is exact.
    pub(crate) fault_active: Vec<bool>,
    /// Ballast currently allocated per memory-leak fault (freed exactly
    /// when the fault clears).
    pub(crate) leak_allocated: Vec<u64>,
    /// Dedicated RNG stream for fault-effect jitter, seeded from the run
    /// seed but independent of the workload stream — a faulted run's
    /// client behaviour stays draw-for-draw comparable to its fault-free
    /// twin until the effects themselves diverge it.
    pub(crate) fault_rng: SimRng,
    /// Number of currently active fault windows (completions during any
    /// window count toward goodput-under-fault).
    pub(crate) active_faults: u32,
    /// Runtime state of the configured open-loop arrival sources.
    pub(crate) sources: Vec<SourceRuntime>,
    /// Streaming FNV-1a digest over every arrival's admission decision
    /// (time, source, outcome code). Two runs that agree on this digest
    /// made identical shed/admit decisions at identical instants — the
    /// cheap determinism witness for runs too large to trace.
    pub(crate) arrival_digest: u64,
    /// Fenceposts of the contiguous class ranges
    /// (see [`ServerConfig::class_bounds`]): the one definition of a
    /// client's class.
    pub(crate) class_bounds: Vec<u32>,
    /// Where the sources' arrival instants come from, and their pending
    /// `(time, seq)` merge candidates (see [`crate::arrival_plane`]).
    /// Empty until [`Server::begin`].
    pub(crate) arrival_plane: ArrivalPlane,
    /// The next broker tick's `(time, seq)` merge key. The tick never sits
    /// on the event queue: its sequence number is reserved where the tick
    /// would have been scheduled, and [`Server::run_until`] merges the key
    /// like an arrival candidate. `None` before [`Server::begin`] and once
    /// the next tick would land at or after the end of the run.
    pub(crate) next_tick: Option<(SimTime, u64)>,
}

impl Server {
    /// Build a server from a configuration and pre-characterized profiles.
    pub fn new(config: ServerConfig, profiles: Arc<WorkloadProfiles>) -> Self {
        config.validate();
        let machine = Machine::new(&config);
        let compile_budget = machine.memory.compile_target();
        let total_share: f64 = config.classes.iter().map(|c| c.client_share).sum();
        let classes = config
            .classes
            .iter()
            .map(|spec| {
                let share = spec.client_share / total_share;
                ClassRuntime::new(spec.clone(), share, &config, compile_budget)
            })
            .collect();
        let class_bounds = config.class_bounds();
        let sources = config
            .arrivals
            .iter()
            .map(|_| SourceRuntime::default())
            .collect();
        let mut metrics = RunMetrics::new(
            config.slice,
            SimTime::ZERO + config.warmup,
            config.policy.levels(&config.throttle),
        );
        metrics.run_duration = config.duration;
        let mut client_model = config.client_model;
        client_model.oltp_fraction = config.oltp_fraction;
        let clients = config.clients as usize;
        Server {
            rng: SimRng::seed_from_u64(config.seed),
            profiles,
            machine,
            classes,
            uniquifier: Uniquifier::new(),
            client_model,
            queue: EventQueue::new(),
            queries: Slab::new(),
            next_query: 0,
            metrics,
            fold: MetricsFold::new(),
            now: SimTime::ZERO,
            active_clients: 0,
            activation_order: config.activation_order(),
            client_active: vec![false; clients],
            client_busy: vec![false; clients],
            mix: WorkloadMix::paper_default(config.oltp_fraction),
            trace: None,
            trace_sink: None,
            scratch_resumed: Vec::new(),
            scratch_admitted: Vec::new(),
            faults: Vec::new(),
            fault_active: Vec::new(),
            leak_allocated: Vec::new(),
            // Independent stream: derived from the run seed, but no draw is
            // taken from the workload RNG.
            fault_rng: SimRng::seed_from_u64(config.seed ^ 0xC4A0_55EED_u64),
            active_faults: 0,
            sources,
            // FNV-1a offset basis: the empty-stream digest.
            arrival_digest: 0xcbf2_9ce4_8422_2325,
            class_bounds,
            arrival_plane: ArrivalPlane::default(),
            next_tick: None,
            config,
        }
    }

    /// Run the simulation to completion and return the metrics.
    pub fn run(mut self) -> RunMetrics {
        self.set_active_clients(self.config.clients);
        self.begin();
        self.run_until(SimTime::ZERO + self.config.duration);
        self.finish()
    }

    // --- scenario runner hooks --------------------------------------------
    //
    // `run()` is built from these four public hooks so an external driver
    // (the `throttledb-scenario` runner) can interleave phase mutations with
    // simulation windows: begin once, then alternate `set_*` mutators with
    // `run_until` at phase boundaries, and `finish` at the end.

    /// Start the server's housekeeping (the periodic broker tick) and the
    /// open-loop arrival sources. Call once, after configuring the initial
    /// client population.
    pub fn begin(&mut self) {
        self.next_tick = Some((self.now, self.queue.reserve_seq()));
        // Every source gets a private stream forked off a dedicated base —
        // never off the workload RNG, so configuring sources leaves the
        // closed-loop draw sequence untouched.
        let mut source_base = SimRng::seed_from_u64(self.config.seed ^ 0xA221_4A15_0000_0001);
        let streams = self
            .config
            .arrivals
            .iter()
            .enumerate()
            .map(|(index, src)| (source_base.fork(index as u64), src.process.sampler()))
            .collect();
        self.arrival_plane = ArrivalPlane::start(
            streams,
            self.now,
            SimTime::ZERO + self.config.duration,
            || self.queue.reserve_seq(),
        );
    }

    /// Advance the simulation, processing every event scheduled strictly
    /// before `until`, then park the clock at `until`. Events at or beyond
    /// the boundary stay pending, so a later call picks up exactly where
    /// this one stopped.
    ///
    /// One loop: the event queue's head is merged with the broker tick's
    /// key and the arrival plane's per-source candidates into one global
    /// `(time, seq)` order (`arrival_plane.rs` has the protocol). The
    /// earliest of the tick, the earliest reserved arrival and the boundary
    /// bounds what the queue may pop: one queue call per event.
    pub fn run_until(&mut self, until: SimTime) {
        let boundary = (until, 0);
        loop {
            let (arrival, source) = self.arrival_plane.candidate();
            let tick = self.next_tick.unwrap_or(NEVER);
            let bound = boundary.min(arrival).min(tick);
            if let Some(ev) = self.queue.pop_before_stamp(bound) {
                self.now = ev.at;
                self.dispatch(ev.payload);
            } else if bound == boundary {
                break;
            } else if bound == tick {
                self.dispatch_broker_tick(tick.0);
            } else {
                self.dispatch_arrival(source, arrival.0, until);
            }
        }
        self.now = self.now.max(until);
    }

    /// Route one popped event to its handler.
    fn dispatch(&mut self, event: Event) {
        let counts = &mut self.metrics.dispatch;
        match event {
            Event::Submit {
                client,
                attempts,
                first_at,
            } => {
                counts.submit += 1;
                self.on_submit(client, attempts, first_at)
            }
            Event::CompileStep { query } => {
                counts.compile_step += 1;
                self.on_compile_step(query)
            }
            Event::CompileTimeout { query, level } => {
                counts.compile_timeout += 1;
                self.on_compile_timeout(query, level)
            }
            Event::GrantTimeout { query } => {
                counts.grant_timeout += 1;
                self.on_grant_timeout(query)
            }
            Event::ExecFinish { query } => {
                counts.exec_finish += 1;
                self.retire(query, Ok(()))
            }
            Event::FaultBegin { index } => {
                counts.fault_begin += 1;
                self.on_fault_begin(index)
            }
            Event::FaultEnd { index } => {
                counts.fault_end += 1;
                self.on_fault_end(index)
            }
            Event::LeakStep { index } => {
                counts.leak_step += 1;
                self.on_leak_step(index)
            }
        }
    }

    /// Fire the broker tick due at `at`. The handler reserves the next
    /// tick's sequence number last, after every event it schedules itself.
    fn dispatch_broker_tick(&mut self, at: SimTime) {
        self.now = at;
        self.next_tick = None;
        self.queue.external_pop(at);
        self.metrics.dispatch.broker_tick += 1;
        self.on_broker_tick();
    }

    /// Fire `source`'s front arrival, due at `at`: decide its admission,
    /// then reserve the next arrival's sequence number — *after* the
    /// admission pipeline's own schedules, where a queue-scheduled arrival
    /// would have scheduled its successor. An arrival that leaves the
    /// source at its concurrency cap opens a bulk-shed run.
    fn dispatch_arrival(&mut self, source: usize, at: SimTime, until: SimTime) {
        self.now = at;
        let has_next = self.arrival_plane.advance(source);
        self.queue.external_pop(self.now);
        self.metrics.dispatch.external_arrivals += 1;
        self.arrival_decision(source as u32);
        self.arrival_plane.reserved[source] = has_next.then(|| self.queue.reserve_seq());
        if self.sources[source].in_flight >= self.config.arrivals[source].max_in_flight {
            self.drain_shed(source, until);
        }
    }

    /// Bulk-shed fast path: while a source sits at its concurrency cap,
    /// its arrivals are pure sheds — a counter bump, a digest fold and
    /// seq bookkeeping, with no workload RNG draws, no trace events and no
    /// queue mutations. Every bound the merge compares against is therefore
    /// *stable* across the run except this source's own key, so the
    /// whole burst is dispatched against one precomputed bound instead
    /// of re-running the candidate selection per arrival.
    fn drain_shed(&mut self, s: usize, until: SimTime) {
        debug_assert!(
            self.sources[s].in_flight >= self.config.arrivals[s].max_in_flight,
            "drain_shed entered below the concurrency cap"
        );
        // With its reservation taken out, the source is invisible to the
        // candidate scan: what remains is everyone else's bound.
        let Some(first_seq) = self.arrival_plane.reserved[s].take() else {
            return;
        };
        let (arrival, _) = self.arrival_plane.candidate();
        let mut bound = (until, 0).min(arrival).min(self.next_tick.unwrap_or(NEVER));
        if let Some(head) = self.queue.peek_stamp() {
            bound = bound.min(head);
        }
        // The burst itself never schedules, pops or completes anything, so
        // `in_flight` stays at the cap and the queue's internal state is
        // frozen: each arrival is a digest fold plus counter bumps. The
        // per-arrival queue traffic (one `external_pop` + one
        // `reserve_seq`) collapses into a single `external_batch` because
        // the reservations a pure run takes are consecutive from
        // `peek_seq` — arrival `i > 0`'s merge key is simply
        // `(at_i, base + i - 1)`.
        let base = self.queue.peek_seq();
        let burst = self
            .arrival_plane
            .shed(s, first_seq, base, bound, &mut self.arrival_digest);
        if burst.shed == 0 {
            return;
        }
        self.now = burst.last;
        self.queue
            .external_batch(burst.shed, burst.reserved, self.now);
        self.metrics.dispatch.external_arrivals += burst.shed;
        let src = &mut self.sources[s];
        src.arrivals += burst.shed;
        src.shed += burst.shed;
    }

    /// Resize the active client population to `n` (capped at the configured
    /// maximum). Clients are (de)activated in the proportional-interleave
    /// order of [`ServerConfig::activation_order`], so a partial population
    /// covers every workload class by share instead of starving the later
    /// classes. New clients submit their first query within the next
    /// simulated minute. A removed client leaves the closed loop once its
    /// in-flight query ends or its pending submission comes due, and the
    /// retry chain it was in ends there too: re-admitted after that, it
    /// starts fresh work.
    pub fn set_active_clients(&mut self, n: u32) {
        let n = n.min(self.config.clients) as usize;
        for idx in 0..self.activation_order.len() {
            let client = self.activation_order[idx] as usize;
            let want = idx < n;
            if want && !self.client_active[client] {
                self.client_active[client] = true;
                if !self.client_busy[client] {
                    let offset = SimDuration::from_millis(self.rng.uniform_u64(0, 60_000));
                    self.queue.schedule(
                        self.now + offset,
                        Event::Submit {
                            client: client as u32,
                            attempts: 0,
                            first_at: SimTime::ZERO,
                        },
                    );
                    self.client_busy[client] = true;
                }
            } else if !want && self.client_active[client] {
                self.client_active[client] = false;
            }
        }
        self.active_clients = n as u32;
    }

    /// Decide one arrival's admission at `self.now`, update the source's
    /// counters and fold the decision into the streaming digest.
    ///
    /// Order matters for cost: the concurrency cap is checked *before* any
    /// query content is drawn, so an overloaded source sheds at a digest
    /// fold per arrival instead of paying template selection and
    /// uniquification for work it then discards.
    fn arrival_decision(&mut self, source: u32) {
        let s = source as usize;
        self.sources[s].arrivals += 1;
        let code: u8 = if self.sources[s].in_flight >= self.config.arrivals[s].max_in_flight {
            self.sources[s].shed += 1;
            1 // shed at the concurrency cap, before any draws
        } else if self.submit_query(QueryOrigin::Source { source }) {
            self.sources[s].in_flight += 1;
            self.sources[s].admitted += 1;
            0 // admitted into the pipeline
        } else {
            self.sources[s].shed += 1;
            2 // shed by the class breaker
        };
        self.arrival_digest =
            fold_arrival_digest(self.arrival_digest, self.now.as_micros(), source, code);
    }

    /// Replace the workload mix submissions are sampled from. TPC-H-like
    /// weight is only effective when the server's profiles were
    /// characterized with the TPC-H-like templates
    /// (see [`WorkloadProfiles::characterize_full`]).
    pub fn set_workload_mix(&mut self, mix: WorkloadMix) {
        mix.validate();
        self.mix = mix;
    }

    /// Override the mean think time of the client population (burst phases
    /// shorten it; recovery phases restore the configured value).
    pub fn set_mean_think_time(&mut self, mean: SimDuration) {
        assert!(!mean.is_zero(), "mean think time must be positive");
        self.client_model.mean_think_time = mean;
    }

    /// Scale every class's execution-grant budget (1.0 = configured
    /// budgets). Takes effect at the next broker tick, within one
    /// `broker_tick` interval. Scenario phases use this to model a
    /// degrading resource pool.
    pub fn set_grant_budget_scale(&mut self, scale: f64) {
        assert!(scale > 0.0, "grant budget scale must be positive");
        self.machine.memory.set_grant_budget_scale(scale);
    }

    /// Consume the server and return the run's metrics.
    pub fn finish(self) -> RunMetrics {
        self.finalize_metrics()
    }

    // --- fault injection --------------------------------------------------

    /// Install a set of timed faults (see [`FaultSpec`]). Call once, before
    /// [`Server::begin`]: each fault becomes a pair of begin/end events on
    /// the queue, so injection is part of the deterministic event order and
    /// replays byte-identically. Faults whose windows extend past the run
    /// simply never clear (their effects last to the end).
    pub fn install_faults(&mut self, faults: &[FaultSpec]) {
        if faults.is_empty() {
            return;
        }
        assert!(self.faults.is_empty(), "faults already installed");
        for (index, fault) in faults.iter().enumerate() {
            fault.validate();
            self.faults.push(*fault);
            self.fault_active.push(false);
            self.leak_allocated.push(0);
            self.queue.schedule(
                fault.start,
                Event::FaultBegin {
                    index: index as u32,
                },
            );
            self.queue.schedule(
                fault.end(),
                Event::FaultEnd {
                    index: index as u32,
                },
            );
        }
        if self
            .faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::MemoryLeak { .. }))
        {
            self.machine.memory.add_ballast();
        }
    }

    fn on_fault_begin(&mut self, index: u32) {
        let i = index as usize;
        let spec = self.faults[i];
        self.fault_active[i] = true;
        self.active_faults += 1;
        self.trace_push(TraceEvent::FaultInjected {
            at: self.now,
            fault: index,
        });
        self.recompute_fault_effects();
        match spec.kind {
            FaultKind::MemoryLeak { .. } => {
                self.queue.schedule(self.now, Event::LeakStep { index });
            }
            FaultKind::ClientSurge { extra_clients } => {
                let n = self.active_clients.saturating_add(extra_clients);
                self.set_active_clients(n);
            }
            FaultKind::CompileStall { .. }
            | FaultKind::SlotLoss { .. }
            | FaultKind::GrantCollapse { .. } => {}
        }
    }

    fn on_fault_end(&mut self, index: u32) {
        let i = index as usize;
        if !self.fault_active[i] {
            return;
        }
        let spec = self.faults[i];
        self.fault_active[i] = false;
        self.active_faults = self.active_faults.saturating_sub(1);
        self.trace_push(TraceEvent::FaultCleared {
            at: self.now,
            fault: index,
        });
        self.recompute_fault_effects();
        match spec.kind {
            FaultKind::MemoryLeak { .. } => {
                let leaked = std::mem::take(&mut self.leak_allocated[i]);
                self.machine.memory.unleak(leaked);
            }
            FaultKind::ClientSurge { extra_clients } => {
                let n = self.active_clients.saturating_sub(extra_clients);
                self.set_active_clients(n);
            }
            FaultKind::CompileStall { .. }
            | FaultKind::SlotLoss { .. }
            | FaultKind::GrantCollapse { .. } => {}
        }
    }

    fn on_leak_step(&mut self, index: u32) {
        let i = index as usize;
        if !self.fault_active[i] {
            return;
        }
        let spec = self.faults[i];
        let FaultKind::MemoryLeak { total_bytes, steps } = spec.kind else {
            return;
        };
        let per_step = (total_bytes / steps as u64).max(1);
        // Jitter each increment from the dedicated fault stream; the ramp
        // stays deterministic and never overshoots the configured total.
        let jittered = (per_step as f64 * self.fault_rng.jitter(0.25)) as u64;
        let remaining = total_bytes.saturating_sub(self.leak_allocated[i]);
        let amount = jittered.clamp(1, remaining.max(1)).min(remaining);
        if amount > 0 {
            self.machine.memory.leak(amount);
            self.leak_allocated[i] += amount;
        }
        if self.leak_allocated[i] < total_bytes {
            let interval =
                SimDuration::from_micros((spec.duration.as_micros() / steps as u64).max(1_000_000));
            let next = self.now + interval;
            if next < spec.end() {
                self.queue.schedule(next, Event::LeakStep { index });
            }
        }
    }

    /// Recompute the effect multipliers from the set of currently active
    /// faults. Doing this from scratch on every begin/end keeps reverting
    /// exact (no drifting inverse floating-point updates).
    fn recompute_fault_effects(&mut self) {
        let mut stall = 1.0;
        let mut lost: u32 = 0;
        let mut grant = 1.0;
        for (i, fault) in self.faults.iter().enumerate() {
            if !self.fault_active[i] {
                continue;
            }
            match fault.kind {
                FaultKind::CompileStall { multiplier } => stall *= multiplier,
                FaultKind::SlotLoss { slots } => lost = lost.saturating_add(slots),
                FaultKind::GrantCollapse { scale } => grant *= scale,
                FaultKind::MemoryLeak { .. } | FaultKind::ClientSurge { .. } => {}
            }
        }
        self.machine.cpu.set_faults(stall, lost);
        self.machine.memory.set_fault_grant_scale(grant);
    }

    // --- observers --------------------------------------------------------

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The metrics accumulated so far. The counts the event fold owns —
    /// failures by kind, best-effort plans, sheds, the compile-memory peak
    /// and completions after warm-up — are filled in by
    /// [`Server::finish`]; read per-phase counts from
    /// [`Server::phase_reports`].
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Total queries submitted so far.
    pub fn queries_submitted(&self) -> u64 {
        self.next_query
    }

    /// Total open-loop arrivals offered so far, across every source
    /// (admitted + shed).
    pub fn arrivals_offered(&self) -> u64 {
        self.sources.iter().map(|s| s.arrivals).sum()
    }

    /// The number of clients currently in the closed loop.
    pub fn active_clients(&self) -> u32 {
        self.active_clients
    }

    /// Total simulation events dispatched so far: queued events plus
    /// open-loop arrivals.
    pub fn events_dispatched(&self) -> u64 {
        self.queue.dispatched()
    }

    /// The most events that were ever pending at once in the event queue.
    pub fn queue_peak_depth(&self) -> usize {
        self.queue.peak_len()
    }

    // --- trace recording --------------------------------------------------

    /// Start recording the admission/grant event stream
    /// (see [`TraceEvent`]).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Install a streaming consumer that observes every recorded event as
    /// it happens (see [`TraceSink`]). A sink works with or without the
    /// buffered recording of [`Server::enable_trace`]: the v2 binary
    /// writer installs only a sink so multi-million-event runs serialize
    /// at O(1) memory, while tests install both to prove the two surfaces
    /// see the same stream.
    pub fn set_trace_sink(&mut self, sink: Rc<RefCell<dyn TraceSink>>) {
        self.trace_sink = Some(sink);
    }

    /// Take the recorded events, leaving recording enabled but empty.
    /// Returns an empty vector if tracing was never enabled.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match self.trace.as_mut() {
            Some(events) => std::mem::take(events),
            None => Vec::new(),
        }
    }

    /// Record a phase boundary: emits a [`TraceEvent::PhaseStart`], which
    /// opens a new report in [`Server::phase_reports`] whose compile-memory
    /// peak, like the [`TraceEvent::CompilePeak`] events measured against
    /// it, restarts from 0.
    pub fn trace_phase_start(&mut self, name: &str, clients: u32) {
        let at = self.now;
        self.trace_push(TraceEvent::PhaseStart {
            at,
            name: name.to_string(),
            clients,
        });
    }

    /// Record the end-of-run marker. The scenario runner calls this after
    /// the last phase so buffered and streaming consumers both observe the
    /// final [`TraceEvent::End`] at the run's closing timestamp.
    pub fn trace_end(&mut self) {
        let at = self.now;
        self.trace_push(TraceEvent::End { at });
    }

    /// Fold `event` into the run's counts, then hand it to every attached
    /// trace consumer: the streaming sink first (it observes the event by
    /// reference), then the buffered vector.
    pub(crate) fn trace_push(&mut self, event: TraceEvent) {
        self.fold.observe(&event);
        if let Some(sink) = self.trace_sink.as_ref() {
            sink.borrow_mut().event(&event);
        }
        if let Some(events) = self.trace.as_mut() {
            events.push(event);
        }
    }

    /// The per-phase reports so far, one per [`Server::trace_phase_start`].
    /// After [`Server::trace_end`] the last one ends at the run's close.
    pub fn phase_reports(&self) -> &[PhaseReport] {
        self.fold.phases()
    }

    /// Sample the aggregate compile-memory gauge: a new high since the last
    /// phase boundary is a [`TraceEvent::CompilePeak`]. Every compile-memory
    /// sample must flow through here so the peaks and the trace agree.
    pub(crate) fn record_compile_gauge(&mut self) {
        let used = self.machine.memory.compile_bytes();
        if used > self.fold.current_compile_peak() {
            self.trace_push(TraceEvent::CompilePeak {
                at: self.now,
                bytes: used,
            });
        }
    }

    // --- submission scheduling and feedback --------------------------------

    /// The class index of `client`: the contiguous range of the class
    /// bounds it falls in.
    pub(crate) fn class_of(&self, client: u32) -> usize {
        self.class_bounds.partition_point(|&b| b <= client) - 1
    }

    /// Schedule `client`'s next submission `delay` from now, carrying its
    /// retry chain (`attempts == 0` for fresh work).
    pub(crate) fn schedule_submit(
        &mut self,
        client: u32,
        attempts: u32,
        first_at: SimTime,
        delay: SimDuration,
    ) {
        let at = self.now + delay;
        // Strict bound to match run_until's exclusive boundary: an event at
        // exactly `duration` would never be popped.
        if self.client_active[client as usize] && at < SimTime::ZERO + self.config.duration {
            self.queue.schedule(
                at,
                Event::Submit {
                    client,
                    attempts,
                    first_at,
                },
            );
            self.client_busy[client as usize] = true;
        } else {
            // The client leaves the closed loop (deactivated by a scenario
            // phase, or the run is over); a later phase may re-admit it.
            self.client_busy[client as usize] = false;
        }
    }

    /// A query's attempt failed or was shed: route the setback to its
    /// origin. A closed-loop client either schedules the capped
    /// exponential-backoff retry, carrying the chain forward in its next
    /// submit event, or — when the retry budget or the total query
    /// deadline is exhausted — abandons the chain and thinks about fresh
    /// work. Open-loop arrivals never retry: the source's in-flight slot
    /// is simply released.
    pub(crate) fn reschedule_after_setback(&mut self, origin: QueryOrigin) {
        match origin {
            QueryOrigin::Client {
                client,
                attempts,
                first_at,
            } => {
                let attempts = attempts.saturating_add(1);
                let over_budget =
                    self.config.retry_budget > 0 && attempts > self.config.retry_budget;
                let over_deadline = self
                    .config
                    .query_deadline
                    .is_some_and(|d| self.now >= first_at + d);
                if over_budget || over_deadline {
                    self.metrics.retries_abandoned += 1;
                    let think = self.client_model.think_time(&mut self.rng);
                    self.schedule_submit(client, 0, SimTime::ZERO, think);
                } else {
                    let delay = self.client_model.retry_delay(&mut self.rng, attempts);
                    self.schedule_submit(client, attempts, first_at, delay);
                }
            }
            QueryOrigin::Source { source } => {
                let src = &mut self.sources[source as usize];
                src.in_flight = src
                    .in_flight
                    .checked_sub(1)
                    .expect("a source query ends only after it was admitted");
                src.failed += 1;
            }
        }
    }

    /// Consult the class breaker (if enabled) about an arrival estimated at
    /// `bytes` of compilation memory, tracing any state transition the
    /// consultation causes.
    pub(crate) fn breaker_admit(
        &mut self,
        class: usize,
        bytes: u64,
    ) -> throttledb_governor::AdmissionDecision {
        let now = self.now;
        let Some(breaker) = self.classes[class].breaker.as_mut() else {
            return throttledb_governor::AdmissionDecision::Admit { units: 1 };
        };
        let before = breaker.state();
        let decision = breaker.admit(now, bytes);
        let after = breaker.state();
        if after != before {
            self.trace_push(TraceEvent::BreakerTransition {
                at: now,
                class,
                state: after,
            });
        }
        decision
    }

    /// Feed an outcome to the class breaker (if enabled), tracing any state
    /// transition it causes.
    pub(crate) fn breaker_record(&mut self, class: usize, success: bool) {
        let now = self.now;
        let Some(breaker) = self.classes[class].breaker.as_mut() else {
            return;
        };
        let before = breaker.state();
        if success {
            breaker.record_success(now);
        } else {
            breaker.record_failure(now);
        }
        let after = breaker.state();
        if after != before {
            self.trace_push(TraceEvent::BreakerTransition {
                at: now,
                class,
                state: after,
            });
        }
    }

    /// Fold per-class results and the event fold's totals into the run
    /// metrics, then check that every count agrees.
    fn finalize_metrics(mut self) -> RunMetrics {
        self.metrics.events_dispatched = self.queue.dispatched();
        assert_eq!(
            self.metrics.dispatch.total(),
            self.metrics.events_dispatched,
            "per-kind dispatch counts must add up to the queue's dispatch count"
        );
        self.metrics.peak_queue_depth = self.queue.peak_len();
        for (src, spec) in self.sources.iter().zip(&self.config.arrivals) {
            self.metrics.arrivals += src.arrivals;
            self.metrics.arrivals_admitted += src.admitted;
            self.metrics.arrivals_shed += src.shed;
            self.metrics.arrival_sources.push(ArrivalSourceMetrics {
                name: spec.name.clone(),
                modeled_clients: spec.modeled_clients,
                arrivals: src.arrivals,
                admitted: src.admitted,
                shed: src.shed,
                completed: src.completed,
                failed: src.failed,
            });
        }
        self.metrics.arrival_digest = self.arrival_digest;
        for (idx, class) in self.classes.iter().enumerate() {
            self.metrics.throttle.merge(class.policy.stats());
            let (shed, transitions, brownout) = class
                .breaker
                .as_ref()
                .map(|b| (b.shed(), b.transitions(), b.brownout_admits()))
                .unwrap_or((0, 0, 0));
            self.metrics.breaker_transitions += transitions;
            self.metrics.brownout_admits += brownout;
            self.metrics.classes.push(ClassMetrics {
                name: class.spec.name.clone(),
                clients: self.class_bounds[idx + 1] - self.class_bounds[idx],
                completed: class.completed,
                completed_after_warmup: class.completed_after_warmup,
                failed: class.failed,
                best_effort_plans: class.best_effort_plans,
                shed,
                breaker_transitions: transitions,
                throttle: class.policy.stats().clone(),
                grants: self.machine.memory.grant_stats(idx),
            });
        }
        // Fault windows, clamped to the observation window; a fault that
        // never began contributes nothing.
        let end = SimTime::ZERO + self.config.duration;
        self.metrics.fault_windows = self
            .faults
            .iter()
            .filter(|f| f.start < end)
            .map(|f| (f.start, f.end().min(end)))
            .collect();
        let run = self.fold.totals();
        let m = &mut self.metrics;
        m.oom_failures = run.oom_failures;
        m.compile_timeouts = run.compile_timeouts;
        m.grant_timeouts = run.grant_timeouts;
        m.best_effort_plans = run.best_effort_plans;
        m.shed = run.shed;
        m.peak_compile_bytes = run.peak_compile_bytes;
        m.completed_after_warmup = m.classes.iter().map(|c| c.completed_after_warmup).sum();
        m.check_totals(&run, self.queries.len() as u64);
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> Arc<WorkloadProfiles> {
        Arc::new(WorkloadProfiles::characterize_sales(&ServerConfig::quick(
            8, true,
        )))
    }

    #[test]
    fn quick_run_completes_queries_and_is_deterministic() {
        let profiles = profiles();
        let run = |seed: u64| {
            let mut cfg = ServerConfig::quick(8, true);
            cfg.seed = seed;
            Server::new(cfg, profiles.clone()).run()
        };
        let a = run(1);
        assert!(
            a.completed.total() > 10,
            "an hour with 8 clients should complete queries, got {}",
            a.completed.total()
        );
        let b = run(1);
        assert_eq!(
            a.completed.total(),
            b.completed.total(),
            "same seed, same run"
        );
        let c = run(2);
        // A different seed gives a different (but same ballpark) run.
        assert!(c.completed.total() > 10);
    }

    #[test]
    fn throttled_run_engages_the_gateways() {
        let profiles = profiles();
        let metrics = Server::new(ServerConfig::quick(16, true), profiles).run();
        assert!(
            metrics.throttle.acquisitions.iter().sum::<u64>() > 0,
            "SALES compilations must acquire gateways"
        );
        assert!(metrics.peak_compile_bytes > 100 << 20);
    }

    #[test]
    fn unthrottled_35_clients_keep_executing() {
        // The grant-stage lost wakeup: 35 unthrottled compilations squeeze
        // the broker's execution target until every grant queues; with no
        // grant held there is no release, so only the broker tick's budget
        // raise (and a head-of-line timeout) can start anyone again.
        let cfg = ServerConfig::quick(35, false);
        let mut server = Server::new(cfg.clone(), profiles());
        server.enable_trace();
        server.set_active_clients(cfg.clients);
        server.begin();
        server.run_until(SimTime::ZERO + cfg.duration);
        let trace = server.take_trace();
        let metrics = server.finish();
        assert!(
            trace
                .iter()
                .any(|e| matches!(e, TraceEvent::ExecStarted { .. })),
            "no query ever received a grant"
        );
        assert!(
            metrics.completed_after_warmup > 0,
            "35 unthrottled clients completed nothing after warm-up"
        );
    }

    #[test]
    fn unthrottled_run_uses_more_compile_memory_at_peak() {
        let profiles = profiles();
        let throttled = Server::new(ServerConfig::quick(16, true), profiles.clone()).run();
        let unthrottled = Server::new(ServerConfig::quick(16, false), profiles).run();
        assert!(
            unthrottled.peak_compile_bytes > throttled.peak_compile_bytes,
            "throttling must cap concurrent compilation memory: {} vs {}",
            unthrottled.peak_compile_bytes,
            throttled.peak_compile_bytes
        );
        assert!(throttled.throttle.compilations_started >= throttled.completed.total());
    }

    #[test]
    fn single_class_run_reports_one_class_covering_everything() {
        let profiles = profiles();
        let metrics = Server::new(ServerConfig::quick(8, true), profiles).run();
        assert_eq!(metrics.classes.len(), 1);
        let class = &metrics.classes[0];
        assert_eq!(class.name, "default");
        assert_eq!(class.clients, 8);
        assert_eq!(class.completed, metrics.completed.total());
        assert_eq!(class.completed_after_warmup, metrics.completed_after_warmup);
        assert_eq!(class.throttle, metrics.throttle);
    }

    #[test]
    fn multi_class_run_is_deterministic_and_covers_all_classes() {
        let profiles = profiles();
        let run = || {
            let cfg = ServerConfig::quick(16, true).with_standard_classes();
            Server::new(cfg, profiles.clone()).run()
        };
        let a = run();
        assert_eq!(a.classes.len(), 3);
        let names: Vec<&str> = a.classes.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["default", "adhoc", "report"]);
        assert_eq!(a.classes.iter().map(|c| c.clients).sum::<u32>(), 16);
        // Every class makes progress...
        for class in &a.classes {
            assert!(class.completed > 0, "class {} idle", class.name);
        }
        // ...and the per-class counters add up to the run totals.
        assert_eq!(
            a.classes.iter().map(|c| c.completed).sum::<u64>(),
            a.completed.total()
        );
        assert_eq!(
            a.classes.iter().map(|c| c.failed).sum::<u64>(),
            a.failed.total()
        );
        // Seed-stable: an identical run reproduces the same per-class counts.
        let b = run();
        for (x, y) in a.classes.iter().zip(b.classes.iter()) {
            assert_eq!(x.completed, y.completed, "class {} not seed-stable", x.name);
            assert_eq!(x.failed, y.failed);
        }
    }

    #[test]
    fn partial_population_covers_every_class() {
        // A scenario phase running far fewer clients than the configured
        // maximum must still exercise every workload class (activation is
        // share-proportional, not a contiguous prefix that would starve
        // the later classes).
        let profiles = profiles();
        let cfg = ServerConfig::quick(18, true).with_standard_classes();
        let mut server = Server::new(cfg, profiles);
        server.set_active_clients(6);
        server.begin();
        server.run_until(SimTime::ZERO + SimDuration::from_secs(3600));
        let metrics = server.finish();
        assert_eq!(metrics.classes.len(), 3);
        for class in &metrics.classes {
            assert!(
                class.completed > 0,
                "class {} starved with a partial population",
                class.name
            );
        }
    }

    #[test]
    fn class_ladders_throttle_independently() {
        let profiles = profiles();
        let cfg = ServerConfig::quick(16, true).with_standard_classes();
        let metrics = Server::new(cfg, profiles).run();
        let adhoc = &metrics.classes[1];
        // The adhoc ladder's thresholds are halved, so its compilations
        // acquire gateways at sizes the default class would wave through.
        assert!(
            adhoc.throttle.acquisitions.iter().sum::<u64>() > 0,
            "adhoc class never engaged its ladder"
        );
    }

    #[test]
    fn every_policy_runs_the_quick_config_deterministically() {
        let profiles = profiles();
        for kind in crate::config::PolicyKind::all() {
            let run = || {
                let mut cfg = ServerConfig::quick(12, true);
                cfg.policy = kind;
                Server::new(cfg, profiles.clone()).run()
            };
            let a = run();
            assert!(
                a.completed.total() > 10,
                "policy {} should complete queries, got {}",
                kind.name(),
                a.completed.total()
            );
            assert_eq!(
                a.throttle.levels(),
                kind.levels(&ServerConfig::quick(12, true).throttle),
                "policy {} reports the wrong stats shape",
                kind.name()
            );
            assert!(
                a.throttle.compilations_started > 0,
                "policy {} never saw a compilation",
                kind.name()
            );
            let b = run();
            assert_eq!(
                a.completed.total(),
                b.completed.total(),
                "policy {} not seed-stable",
                kind.name()
            );
            assert_eq!(a.throttle, b.throttle, "policy {} stats drift", kind.name());
        }
    }

    use crate::config::ArrivalSourceConfig;
    use throttledb_sim::ArrivalProcess;

    fn poisson_source(rate: f64, class: usize, max_in_flight: u32) -> ArrivalSourceConfig {
        ArrivalSourceConfig {
            name: "web".to_string(),
            process: ArrivalProcess::Poisson { rate_per_sec: rate },
            class,
            max_in_flight,
            modeled_clients: 1_000_000,
        }
    }

    #[test]
    fn open_loop_source_runs_without_clients_and_accounts_exactly() {
        let profiles = profiles();
        let run = || {
            let mut cfg = ServerConfig::quick(0, true);
            cfg.arrivals = vec![poisson_source(5.0, 0, 8)];
            Server::new(cfg, profiles.clone()).run()
        };
        let a = run();
        assert!(
            a.arrivals > 1_000,
            "an hour at 5/s should offer thousands of arrivals, got {}",
            a.arrivals
        );
        assert_eq!(a.arrivals, a.arrivals_admitted + a.arrivals_shed);
        assert_eq!(a.arrival_sources.len(), 1);
        let s = &a.arrival_sources[0];
        assert_eq!(s.arrivals, a.arrivals);
        assert!(s.completed > 0, "no arrival ever completed");
        assert!(
            s.admitted >= s.completed + s.failed,
            "more terminal outcomes than admissions"
        );
        assert_ne!(
            a.arrival_digest, 0xcbf2_9ce4_8422_2325,
            "digest never folded an arrival"
        );
        // Deterministic: the replay makes identical per-arrival decisions.
        let b = run();
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.arrival_digest, b.arrival_digest);
    }

    #[test]
    fn overloaded_source_sheds_at_the_cap_cheaply() {
        // λ far above what max_in_flight = 2 can drain: almost everything
        // sheds at the door, and a cap-shed arrival counts as one event — so
        // dispatched events stay within a small multiple of the arrival
        // count instead of 18× (the admitted-query event cost).
        let profiles = profiles();
        let mut cfg = ServerConfig::quick(0, true);
        cfg.arrivals = vec![poisson_source(50.0, 0, 2)];
        let metrics = Server::new(cfg, profiles).run();
        assert!(metrics.arrivals > 100_000);
        assert!(
            metrics.arrivals_shed > metrics.arrivals_admitted * 10,
            "cap never engaged: {} shed vs {} admitted",
            metrics.arrivals_shed,
            metrics.arrivals_admitted
        );
        assert!(
            metrics.events_dispatched < metrics.arrivals * 2,
            "shed arrivals are supposed to be ~1 event each: {} events for {} arrivals",
            metrics.events_dispatched,
            metrics.arrivals
        );
    }

    #[test]
    fn mixed_cohort_and_source_run_never_reuses_a_live_query_slot() {
        // Arena safety under a high arrival count: every query id is
        // submitted exactly once and reaches at most one terminal event —
        // i.e. lazily materialized per-arrival state never lands in a slot
        // that is still live.
        let profiles = profiles();
        let mut cfg = ServerConfig::quick(8, true);
        cfg.arrivals = vec![poisson_source(50.0, 0, 256)];
        let mut server = Server::new(cfg, profiles);
        server.enable_trace();
        server.set_active_clients(8);
        server.begin();
        server.run_until(SimTime::ZERO + SimDuration::from_secs(900));
        let trace = server.take_trace();
        let mut submitted = std::collections::HashSet::new();
        let mut finished = std::collections::HashSet::new();
        for ev in &trace {
            match ev {
                TraceEvent::Submitted { query, .. } => {
                    assert!(submitted.insert(*query), "query {query} submitted twice");
                }
                TraceEvent::Completed { query, .. }
                | TraceEvent::Failed { query, .. }
                | TraceEvent::Shed { query, .. } => {
                    assert!(submitted.contains(query), "query {query} never submitted");
                    assert!(finished.insert(*query), "query {query} finished twice");
                }
                _ => {}
            }
        }
        assert!(
            submitted.len() > 100,
            "too few in-flight materializations ({}) to stress slot reuse",
            submitted.len()
        );
    }

    fn one_in_flight(process: ArrivalProcess) -> ArrivalSourceConfig {
        ArrivalSourceConfig {
            name: "far".to_string(),
            process,
            class: 0,
            max_in_flight: 1,
            modeled_clients: 1,
        }
    }

    #[test]
    fn arrival_instants_past_the_clock_exhaust_their_source() {
        // Gaps longer than the clock's ~584,000 years saturate instead of
        // wrapping: every source here draws one from its first instant on,
        // and the run starts 5 s in, where a wrapped instant would land in
        // the past (4,999,999 µs in a release build).
        let tiny = 1e-14;
        let mut cfg = ServerConfig::quick(0, true);
        cfg.duration = SimDuration::from_secs(60);
        cfg.warmup = SimDuration::ZERO;
        cfg.arrivals = [
            ArrivalProcess::Poisson { rate_per_sec: tiny },
            ArrivalProcess::BoundedPareto {
                alpha: 1.5,
                min_secs: 2e13,
                max_secs: 1e15,
            },
            ArrivalProcess::Mmpp {
                calm_rate_per_sec: tiny,
                burst_rate_per_sec: tiny,
                mean_calm_secs: 1e15,
                mean_burst_secs: 1e15,
            },
            ArrivalProcess::Diurnal {
                base_rate_per_sec: tiny,
                amplitude: 0.5,
                period_secs: 1.0,
            },
        ]
        .map(one_in_flight)
        .to_vec();
        let mut server = Server::new(cfg.clone(), profiles());
        server.run_until(SimTime::from_secs(5));
        server.begin();
        server.run_until(SimTime::ZERO + cfg.duration);
        let metrics = server.finish();
        assert_eq!(metrics.arrivals, 0);
        assert_eq!(metrics.dispatch.external_arrivals, 0);
    }

    #[test]
    fn a_gap_past_the_clock_after_live_arrivals_ends_the_source() {
        // Sources that arrive for a while and then draw a gap past the
        // clock: an MMPP whose burst state never fires, and log-uniform
        // gaps from 1 s to 10^15 s (a bounded Pareto with α → 0), an
        // eighth of which overflow the clock. At one in flight, both the
        // admitting path and the shed loop step the recurrence.
        let mut cfg = ServerConfig::quick(0, true);
        cfg.arrivals = vec![one_in_flight(ArrivalProcess::Mmpp {
            calm_rate_per_sec: 20.0,
            burst_rate_per_sec: 1e-14,
            mean_calm_secs: 5.0,
            mean_burst_secs: 1e15,
        })];
        let log_uniform = ArrivalProcess::BoundedPareto {
            alpha: 1e-6,
            min_secs: 1.0,
            max_secs: 1e15,
        };
        cfg.arrivals
            .extend((0..32).map(|_| one_in_flight(log_uniform)));
        let end = SimTime::ZERO + cfg.duration;
        let mut server = Server::new(cfg, profiles());
        server.enable_trace();
        server.begin();
        server.run_until(end);
        let mut last = SimTime::ZERO;
        for event in server.take_trace() {
            if let TraceEvent::Submitted { at, .. } = event {
                assert!(at >= last && at < end, "arrival at {at} after {last}");
                last = at;
            }
        }
        assert!(server.finish().arrivals > 0, "no source ever arrived");
    }

    #[test]
    fn shards_without_sources_are_a_true_no_op() {
        // `shards` is a no-effect field: shards = 4 runs like shards = 1.
        let profiles = profiles();
        let run = |shards: u32| {
            let mut cfg = ServerConfig::quick(8, true);
            cfg.shards = shards;
            let mut server = Server::new(cfg.clone(), profiles.clone());
            server.enable_trace();
            server.set_active_clients(cfg.clients);
            server.begin();
            server.run_until(SimTime::ZERO + cfg.duration);
            let trace = server.take_trace();
            (trace, server.finish())
        };
        let (base_trace, base) = run(1);
        let (sharded_trace, sharded) = run(4);
        assert_eq!(base_trace, sharded_trace);
        assert_eq!(base.completed.total(), sharded.completed.total());
        assert_eq!(base.events_dispatched, sharded.events_dispatched);
    }

    #[test]
    fn feedback_policies_admit_under_pressure_without_wedging() {
        // The PID and cost-based policies must keep making progress on a
        // multi-class, heavily-loaded run — queues drain, nothing deadlocks.
        let profiles = profiles();
        for kind in [
            crate::config::PolicyKind::Pid,
            crate::config::PolicyKind::CostBased,
        ] {
            let mut cfg = ServerConfig::quick(16, true).with_standard_classes();
            cfg.policy = kind;
            let metrics = Server::new(cfg, profiles.clone()).run();
            for class in &metrics.classes {
                assert!(
                    class.completed > 0,
                    "policy {} starved class {}",
                    kind.name(),
                    class.name
                );
            }
        }
    }
}
