//! The query pipeline stages and their shared state machine.
//!
//! The engine server processes every query through three stages, each in
//! its own module:
//!
//! 1. [`compile`] — submission, compilation memory growth through the
//!    class's gateway ladder, gateway timeouts;
//! 2. [`grant`] — the execution memory-grant request against the class's
//!    grant pool, grant-wait timeouts;
//! 3. [`execute`] — execution on the machine's CPU and disk, and
//!    completion.
//!
//! The stages spend the machine's resources through its stations
//! (`machine.rs`): the CPU, the disk, and memory with its broker and grant
//! pools. [`QueryLifecycle`] is the explicit state machine tying the
//! stages together; illegal transitions panic, so stage bugs surface
//! immediately in the deterministic simulation. Cross-stage policy —
//! failing a query out of any stage, resuming ladder waiters, handing the
//! broker tick's targets to the class policies and grant pools, and the
//! query laws debug builds check at every tick — lives here in the stage
//! root.

pub mod compile;
pub mod execute;
pub mod grant;

use crate::config::{PolicyKind, ServerConfig, WorkloadClassConfig};
use crate::machine::{scaled_budget, Admitted, Memory};
use crate::metrics::FailureKind;
use crate::profile::CompileProfile;
use crate::server::Server;
use crate::trace::TraceEvent;
use throttledb_core::GatewayLadder;
use throttledb_executor::GrantRequestId;
use throttledb_governor::{CircuitBreaker, CostPolicy, PidPolicy, Policy};
use throttledb_sim::{SimTime, Slab, SlotRef, SlotTable};

/// Who submitted a query — and therefore where its completion / failure
/// feedback is routed.
///
/// A closed-loop client's retry chain lives *here*, inside the query and
/// its pending submit event, never in per-client state: a chain ends when
/// its query completes, is abandoned, or its client leaves the loop.
/// Open-loop sources have no retry chain at all — a failed arrival is
/// simply gone, as in any open system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryOrigin {
    /// A closed-loop client.
    Client {
        /// Client id (its class is the class-bounds range it falls in).
        client: u32,
        /// Consecutive setbacks on the current logical query.
        attempts: u32,
        /// When the current retry chain first submitted.
        first_at: SimTime,
    },
    /// An open-loop arrival source (index into the server's source table).
    Source {
        /// Source index into `ServerConfig::arrivals`.
        source: u32,
    },
}

impl QueryOrigin {
    /// The client id recorded in traces and metrics. Source arrivals use a
    /// stable pseudo-client id above the closed-loop population
    /// (`clients + source`), so per-source streams stay distinguishable in
    /// a trace without a per-arrival id allocation.
    pub(crate) fn client_id(self, clients: u32) -> u32 {
        match self {
            QueryOrigin::Client { client, .. } => client,
            QueryOrigin::Source { source } => clients + source,
        }
    }
}

/// Where a query currently is in the compile → grant → execute pipeline.
///
/// Terminal outcomes (completion, failure) are represented by the query
/// leaving the server's query table, not by a lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryLifecycle {
    /// Holding a CPU, growing compilation memory step by step.
    Compiling,
    /// Blocked at gateway `level` of its class's ladder.
    WaitingAtGateway {
        /// The gateway level being waited for (a `u32`, so the lifecycle
        /// fits one word).
        level: u32,
    },
    /// Compiled; queued in its class's grant pool for execution memory.
    WaitingForGrant,
    /// Executing with a memory grant.
    Executing,
}

impl QueryLifecycle {
    /// Move to `next`, panicking on an illegal transition.
    pub fn advance(&mut self, next: QueryLifecycle) {
        assert!(
            self.can_advance(next),
            "illegal query lifecycle transition {self:?} -> {next:?}"
        );
        *self = next;
    }

    /// The legal transitions of the pipeline.
    fn can_advance(self, next: QueryLifecycle) -> bool {
        use QueryLifecycle::*;
        matches!(
            (self, next),
            (Compiling, WaitingAtGateway { .. })
                | (WaitingAtGateway { .. }, Compiling)
                | (Compiling, WaitingForGrant)
                | (Compiling, Executing)
                | (WaitingForGrant, Executing)
        )
    }

    /// The gateway level being waited for, if blocked at one.
    pub fn waiting_level(self) -> Option<usize> {
        match self {
            QueryLifecycle::WaitingAtGateway { level } => Some(level as usize),
            _ => None,
        }
    }

    /// True while the query occupies a CPU compiling.
    pub fn is_compiling(self) -> bool {
        matches!(self, QueryLifecycle::Compiling)
    }
}

/// One in-flight query.
#[derive(Debug)]
pub(crate) struct Query {
    /// The monotonic query number traces carry (its slot is reused).
    pub id: u64,
    pub origin: QueryOrigin,
    /// Index into the server's class table.
    pub class: usize,
    /// The interned template this submission instantiated (copy-free; the
    /// profile table and plan cache key on it directly).
    pub template: throttledb_workload::TemplateId,
    pub profile: CompileProfile,
    /// The task handle issued by the class's admission policy.
    pub task: u64,
    pub compile_step: u32,
    pub compile_bytes: u64,
    pub lifecycle: QueryLifecycle,
    pub grant_id: Option<GrantRequestId>,
    pub grant_requested: u64,
}

// A query-slab slot must stay within the 152-byte `(u64, Query)` bucket of
// the hash map it replaced, or many in-flight queries move the heap peak.
const _: () = assert!(Slab::<Query>::SLOT_BYTES <= 152);

/// The dense slot of a policy task id (a packed [`SlotRef`]).
pub(crate) fn task_slot(task: u64) -> usize {
    SlotRef::from_bits(task).index()
}

/// Runtime state of one workload class: its admission policy and breaker,
/// the tables naming the queries they hold, and counters. (Its grant pool
/// is the memory station's.)
pub(crate) struct ClassRuntime {
    pub spec: WorkloadClassConfig,
    /// This class's client share normalized over all classes: its slice
    /// of the broker's compilation target.
    pub share: f64,
    /// This class's admission policy (gateway ladder, PID controller, or
    /// cost-based reservation — per [`PolicyKind`]).
    pub policy: Box<dyn Policy>,
    /// This class's circuit breaker; `None` when disabled, so fault-free
    /// configurations pay nothing on the submit path.
    pub breaker: Option<CircuitBreaker>,
    /// Policy task slot -> the query compiling under that task, for
    /// resuming admitted waiters; set while the task is live.
    pub task_query: SlotTable<SlotRef>,
    /// Grant slot -> the query whose grant is queued there; set while the
    /// grant waits.
    pub grant_query: SlotTable<SlotRef>,
    pub completed: u64,
    pub completed_after_warmup: u64,
    pub failed: u64,
    pub best_effort_plans: u64,
}

impl ClassRuntime {
    /// Build the runtime for `spec`: an admission policy of
    /// `config.policy` over the scaled throttle parameters.
    ///
    /// A disabled throttle always runs the (inert) ladder regardless of the
    /// policy, so `throttle.enabled = false` means "no admission control"
    /// under every policy — and stats keep the monitor-count shape the
    /// metrics layer expects (see [`PolicyKind::levels`]).
    ///
    /// `share` is the class's normalized client share; its slice of the
    /// broker's `compile_budget` goes to the cost-based policy, the only
    /// one that consumes it.
    pub fn new(
        spec: WorkloadClassConfig,
        share: f64,
        config: &ServerConfig,
        compile_budget: u64,
    ) -> Self {
        let throttle = spec.scaled_throttle(&config.throttle);
        let wait_timeout = throttle
            .monitors
            .first()
            .map(|m| m.timeout)
            .unwrap_or_default();
        let policy: Box<dyn Policy> = if !throttle.enabled {
            Box::new(GatewayLadder::new(throttle))
        } else {
            match config.policy {
                PolicyKind::Ladder => Box::new(GatewayLadder::new(throttle)),
                PolicyKind::Pid => Box::new(PidPolicy::new(
                    throttle.cpus,
                    throttle.exempt_bytes,
                    wait_timeout,
                )),
                PolicyKind::CostBased => Box::new(CostPolicy::new(
                    scaled_budget(compile_budget, share),
                    throttle.exempt_bytes,
                    wait_timeout,
                )),
            }
        };
        ClassRuntime {
            spec,
            share,
            policy,
            breaker: config
                .breaker
                .enabled
                .then(|| CircuitBreaker::new(config.breaker)),
            task_query: SlotTable::new(),
            grant_query: SlotTable::new(),
            completed: 0,
            completed_after_warmup: 0,
            failed: 0,
            best_effort_plans: 0,
        }
    }
}

impl Server {
    /// Resume admission waiters of `class` admitted by a release: unblock
    /// each query and schedule its next compile step immediately.
    pub(crate) fn resume_tasks(&mut self, class: usize, resumed: &[u64]) {
        for &task in resumed {
            if let Some(&query) = self.classes[class].task_query.get(task_slot(task)) {
                if let Some(q) = self.queries.get_mut(query) {
                    q.lifecycle.advance(QueryLifecycle::Compiling);
                }
                self.machine.cpu.resume_compile();
                self.queue
                    .schedule(self.now, crate::server::Event::CompileStep { query });
            }
        }
    }

    /// Release the admission-policy holdings of `(class, task)` and resume
    /// every admitted waiter, recycling the server's scratch buffer so the
    /// per-query release path does not allocate.
    pub(crate) fn finish_policy_task(&mut self, class: usize, task: u64) {
        let mut resumed = std::mem::take(&mut self.scratch_resumed);
        resumed.clear();
        self.classes[class]
            .policy
            .finish_into(task, self.now, &mut resumed);
        self.resume_tasks(class, &resumed);
        self.scratch_resumed = resumed;
    }

    /// Run one mutation of `class`'s grant pool on the memory station — a
    /// release, a cancel, a budget change — and start every waiter it
    /// admits, recycling the server's scratch buffer.
    pub(crate) fn with_grants<R>(
        &mut self,
        class: usize,
        op: impl FnOnce(&mut Memory, SimTime, &mut Admitted) -> R,
    ) -> R {
        let mut admitted = std::mem::take(&mut self.scratch_admitted);
        admitted.clear();
        let result = op(&mut self.machine.memory, self.now, &mut admitted);
        self.start_admitted(class, &admitted);
        self.scratch_admitted = admitted;
        result
    }

    /// Release the grant held by `(class, grant_id)` and start every
    /// admitted waiter.
    pub(crate) fn release_grant(&mut self, class: usize, grant_id: GrantRequestId) {
        self.with_grants(class, |memory, now, out| {
            memory.release_grant(class, grant_id, now, out)
        });
    }

    /// Fail `query` out of whatever stage it is in: release its ladder and
    /// grant holdings (admitting waiters), record the failure, and schedule
    /// the client's retry — "those aborted queries likely need to be
    /// resubmitted to the system."
    pub(crate) fn fail_query(&mut self, query: SlotRef, kind: FailureKind) {
        let Some(q) = self.queries.remove(query) else {
            return;
        };
        self.machine.memory.free_compile(q.compile_bytes);
        // A compiled query's task id is stale, and its slot may be another
        // query's by now: clear only what still names this query.
        let class = &mut self.classes[q.class];
        class.task_query.take_if(task_slot(q.task), &query);
        if let Some(grant_id) = q.grant_id {
            class
                .grant_query
                .take_if(grant_id.slot_ref().index(), &query);
        }
        if q.lifecycle.is_compiling() {
            self.machine.cpu.end_task();
        }
        self.finish_policy_task(q.class, q.task);
        if let Some(grant_id) = q.grant_id {
            self.release_grant(q.class, grant_id);
        }
        self.metrics.failed.record(self.now);
        self.trace_push(TraceEvent::Failed {
            at: self.now,
            query: q.id,
            kind,
        });
        self.classes[q.class].failed += 1;
        self.breaker_record(q.class, false);
        self.reschedule_after_setback(q.origin);
    }

    /// Broker housekeeping: recalculate, tick every class admission policy
    /// (dynamic-threshold target, memory-pressure trend), redistribute the
    /// execution budget over the class grant pools, and squeeze the plan
    /// cache under pressure.
    pub(crate) fn on_broker_tick(&mut self) {
        #[cfg(debug_assertions)]
        self.check_query_laws();
        let reading = self.machine.memory.tick(self.now);
        // Each class throttles independently on its own compilation counts,
        // so the broker's compilation target must be split across classes
        // (by normalized client share) — handing every policy the full
        // target would let N classes admit N× the intended memory.
        let mut resumed = std::mem::take(&mut self.scratch_resumed);
        for idx in 0..self.classes.len() {
            let class = &mut self.classes[idx];
            resumed.clear();
            class.policy.tick(
                self.now,
                reading
                    .compile_target
                    .map(|t| scaled_budget(t, class.share)),
                reading.pressure,
                &mut resumed,
            );
            self.with_grants(idx, |memory, now, out| {
                memory.regrant(idx, reading.exec_target, now, out)
            });
            self.resume_tasks(idx, &resumed);
        }
        self.scratch_resumed = resumed;
        // The plan cache responds to pressure by shrinking toward its target.
        self.machine.memory.squeeze_cache(reading.cache_target);
        let next = self.now + self.config.broker_tick;
        if next < throttledb_sim::SimTime::ZERO + self.config.duration {
            self.next_tick = Some((next, self.queue.reserve_seq()));
        }
    }

    /// The query laws every broker tick checks in debug builds:
    /// - the CPU station's running-task count is the number of live queries
    ///   compiling or executing;
    /// - each class's slot tables hold exactly one entry per live query they
    ///   are for, at its own slot: the task table one per query compiling
    ///   or blocked at a gateway, under its task; the grant table one per
    ///   query waiting for a grant, under its grant. So every entry names a
    ///   live query in that state, and no query has two.
    #[cfg(debug_assertions)]
    fn check_query_laws(&self) {
        let (mut on_cpu, mut tasks, mut grants) = (0, 0, 0);
        for (slot, q) in self.queries.iter() {
            let class = &self.classes[q.class];
            let entry = match q.lifecycle {
                QueryLifecycle::Executing => {
                    on_cpu += 1;
                    continue;
                }
                QueryLifecycle::WaitingForGrant => {
                    grants += 1;
                    let grant_slot = q.grant_id.map(|g| g.slot_ref().index());
                    grant_slot.and_then(|s| class.grant_query.get(s))
                }
                lifecycle => {
                    on_cpu += u32::from(lifecycle.is_compiling());
                    tasks += 1;
                    class.task_query.get(task_slot(q.task))
                }
            };
            assert_eq!(
                entry,
                Some(&slot),
                "query {} is missing from its slot table",
                q.id
            );
        }
        self.machine.cpu.check_law(on_cpu);
        let entries = |table: fn(&ClassRuntime) -> &SlotTable<SlotRef>| -> usize {
            self.classes.iter().map(|c| table(c).values().count()).sum()
        };
        assert_eq!(
            entries(|c| &c.task_query),
            tasks,
            "a task-table entry names no query compiling under that task"
        );
        assert_eq!(
            entries(|c| &c.grant_query),
            grants,
            "a grant-table entry names no query waiting for that grant"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_permits_the_pipeline_transitions() {
        let mut l = QueryLifecycle::Compiling;
        l.advance(QueryLifecycle::WaitingAtGateway { level: 1 });
        assert_eq!(l.waiting_level(), Some(1));
        l.advance(QueryLifecycle::Compiling);
        assert!(l.is_compiling());
        l.advance(QueryLifecycle::WaitingForGrant);
        l.advance(QueryLifecycle::Executing);
        assert_eq!(l.waiting_level(), None);
    }

    #[test]
    fn lifecycle_permits_direct_compile_to_execute() {
        let mut l = QueryLifecycle::Compiling;
        l.advance(QueryLifecycle::Executing);
        assert_eq!(l, QueryLifecycle::Executing);
    }

    #[test]
    #[should_panic(expected = "illegal query lifecycle transition")]
    fn lifecycle_rejects_skipping_backwards() {
        let mut l = QueryLifecycle::Executing;
        l.advance(QueryLifecycle::Compiling);
    }

    #[test]
    #[should_panic(expected = "illegal query lifecycle transition")]
    fn lifecycle_rejects_grant_wait_from_gateway_wait() {
        let mut l = QueryLifecycle::WaitingAtGateway { level: 0 };
        l.advance(QueryLifecycle::WaitingForGrant);
    }

    /// A quick one-class server ten simulated minutes in, queries in flight.
    #[cfg(debug_assertions)]
    fn running_server() -> Server {
        use crate::profile::WorkloadProfiles;
        let config = ServerConfig::quick(8, true);
        let profiles = WorkloadProfiles::characterize_sales(&config);
        let mut server = Server::new(config, std::sync::Arc::new(profiles));
        server.set_active_clients(8);
        server.begin();
        server.run_until(SimTime::from_secs(600));
        server.check_query_laws();
        assert!(!server.queries.is_empty(), "no query in flight");
        server
    }

    /// A CPU task that no query holds breaks the CPU law at the next tick.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "running-task count disagrees")]
    fn the_cpu_law_bites_when_the_task_count_drifts() {
        let mut server = running_server();
        server.machine.cpu.resume_compile();
        server.run_until(SimTime::from_secs(610));
    }

    /// A second grant-table entry for a live query breaks the slot-table
    /// law at the next tick.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "grant-table entry names no query")]
    fn the_slot_table_law_bites_on_a_stray_entry() {
        let mut server = running_server();
        let (slot, q) = server.queries.iter().next().expect("a live query");
        let class = q.class;
        server.classes[class].grant_query.set(1 << 12, slot);
        server.run_until(SimTime::from_secs(610));
    }

    #[test]
    fn scaled_budget_is_exact_for_the_default_class() {
        assert_eq!(scaled_budget(12345, 1.0), 12345);
        assert_eq!(scaled_budget(1000, 0.25), 250);
    }
}
