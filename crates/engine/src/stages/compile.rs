//! Stage 1: submission and compilation.
//!
//! A submitted query compiles in discrete memory-growth steps; after each
//! step the accumulated bytes are reported to the query's class admission
//! policy, which answers proceed / wait / finish-best-effort. Waits are
//! realised as virtual-time timeout events; admission is signalled by the
//! policy when a holder releases.

use super::{task_slot, Query, QueryLifecycle, QueryOrigin};
use crate::metrics::FailureKind;
use crate::server::{Event, Server};
use crate::trace::TraceEvent;
use throttledb_governor::{PolicyDecision, PolicySignals};
use throttledb_sim::{SimTime, SlotRef};

impl Server {
    /// A closed-loop client submits its next query: check its participation,
    /// start a fresh chain's deadline clock, and hand off to the shared
    /// submission path.
    pub(crate) fn on_submit(&mut self, client: u32, attempts: u32, first_at: SimTime) {
        if !self.client_active[client as usize] {
            // The client was deactivated by a scenario phase after this
            // submission was scheduled; it leaves the closed loop here, and
            // its retry chain ends with this event.
            self.client_busy[client as usize] = false;
            return;
        }
        // A fresh chain (not a retry) starts its total-deadline clock here.
        let first_at = if attempts == 0 { self.now } else { first_at };
        self.submit_query(QueryOrigin::Client {
            client,
            attempts,
            first_at,
        });
    }

    /// Submit one query from any origin: choose a template, uniquify its
    /// text, and start compilation. Returns whether the query entered the
    /// pipeline (`false` = shed at the door).
    ///
    /// This is the allocation-free hot path: the template is chosen as an
    /// interned [`throttledb_workload::TemplateId`], its profile is a dense
    /// vector lookup, and the uniquifier perturbs a cached snapshot of the
    /// template's literals and hands back only a key of the unique text —
    /// no SQL is parsed, rendered or cloned per submission (the RNG draws
    /// are identical to the allocating path, so seeded runs are unchanged;
    /// see the workload crate's equivalence tests). The draw sequence is
    /// origin-independent: a retry draws exactly what fresh work does.
    pub(crate) fn submit_query(&mut self, origin: QueryOrigin) -> bool {
        let class = match origin {
            QueryOrigin::Client { client, .. } => self.class_of(client),
            QueryOrigin::Source { source } => self.config.arrivals[source as usize].class,
        };
        let profiles = &self.profiles;
        let template = self.client_model.choose_id(
            &self.mix,
            profiles.catalog(),
            profiles.template_skew(),
            &mut self.rng,
        );
        let profile = self.profiles.profile_of(template).jittered(&mut self.rng);
        let id = self.next_query;
        self.next_query += 1;
        let digest = self.uniquifier.uniquify_digest(
            template,
            self.profiles.catalog().sql(template),
            &mut self.rng,
            id,
        );
        self.trace_push(TraceEvent::Submitted {
            at: self.now,
            query: id,
            client: origin.client_id(self.config.clients),
            class,
        });

        // Circuit breaker: while the class is failing hard, large arrivals
        // are shed at the door (closed-loop clients back off as if the
        // attempt failed; open-loop arrivals are simply gone). The RNG
        // draws above happen unconditionally, so a breakered run's stream
        // stays aligned with an unbreakered one until behaviour actually
        // diverges.
        if self.breaker_admit(class, profile.peak_compile_bytes)
            == throttledb_governor::AdmissionDecision::Reject
        {
            self.trace_push(TraceEvent::Shed {
                at: self.now,
                query: id,
            });
            // A shed open-loop arrival never held an in-flight slot, so
            // there is nothing to release — the caller counts the shed.
            if !matches!(origin, QueryOrigin::Source { .. }) {
                self.reschedule_after_setback(origin);
            }
            return false;
        }

        // The uniquifier defeats the plan cache (as in the paper): text
        // keys are never inserted — plans go in under the disjoint
        // `PlanKey::Compiled` variant — so every submission compiles.
        debug_assert!(
            !self.machine.memory.plan_cached(digest),
            "a uniquified submission hit the plan cache"
        );

        let task = self.classes[class].policy.begin();
        let query = self.queries.insert(Query {
            id,
            origin,
            class,
            template,
            profile,
            task,
            compile_step: 0,
            compile_bytes: 0,
            lifecycle: QueryLifecycle::Compiling,
            grant_id: None,
            grant_requested: 0,
        });
        self.classes[class].task_query.set(task_slot(task), query);
        let step_cpu_seconds = profile.compile_cpu_seconds / self.config.compile_steps as f64;
        let step = self.machine.cpu.start_compile(step_cpu_seconds);
        self.queue
            .schedule(self.now + step, Event::CompileStep { query });
        true
    }

    /// One compilation memory-growth step: allocate the step's bytes, report
    /// the total to the class ladder, and act on its decision.
    pub(crate) fn on_compile_step(&mut self, query: SlotRef) {
        let Some(q) = self.queries.get(query) else {
            return;
        };
        if q.lifecycle.waiting_level().is_some() {
            // A stale step event for a query that has since blocked.
            return;
        }
        let id = q.id;
        let class = q.class;
        let profile = q.profile;
        let delta = (profile.peak_compile_bytes / self.config.compile_steps as u64).max(1);

        // Out-of-memory: the machine genuinely has no room for this step.
        if !self.machine.memory.grow_compile(delta) {
            self.fail_query(query, FailureKind::OutOfMemory);
            return;
        }
        let (task, bytes, step) = {
            let q = self.queries.get_mut(query).expect("query exists");
            q.compile_bytes += delta;
            q.compile_step += 1;
            (q.task, q.compile_bytes, q.compile_step)
        };
        self.record_compile_gauge();

        // Cost-based policies reserve against the template's compile
        // profile rather than the bytes committed so far.
        let signals = PolicySignals {
            estimated_peak_bytes: profile.peak_compile_bytes,
            estimated_cpu_seconds: profile.compile_cpu_seconds,
        };
        match self.classes[class]
            .policy
            .report(task, bytes, &signals, self.now)
        {
            PolicyDecision::Proceed => {
                if step >= self.config.compile_steps {
                    self.finish_compile(query);
                } else {
                    let step_cpu_seconds =
                        profile.compile_cpu_seconds / self.config.compile_steps as f64;
                    let d = self.machine.cpu.compile_step(step_cpu_seconds);
                    self.queue
                        .schedule(self.now + d, Event::CompileStep { query });
                }
            }
            PolicyDecision::Wait { level, timeout } => {
                if let Some(q) = self.queries.get_mut(query) {
                    q.lifecycle.advance(QueryLifecycle::WaitingAtGateway {
                        level: level as u32,
                    });
                }
                self.trace_push(TraceEvent::GatewayBlocked {
                    at: self.now,
                    query: id,
                    level,
                });
                self.machine.cpu.end_task();
                self.queue
                    .schedule(self.now + timeout, Event::CompileTimeout { query, level });
            }
            PolicyDecision::FinishBestEffort => {
                self.classes[class].best_effort_plans += 1;
                self.trace_push(TraceEvent::BestEffort {
                    at: self.now,
                    query: id,
                });
                self.finish_compile(query);
            }
        }
    }

    /// A gateway wait expired. If the query is still blocked at that level,
    /// abort it with a compile-timeout failure.
    pub(crate) fn on_compile_timeout(&mut self, query: SlotRef, level: usize) {
        let Some(q) = self.queries.get(query) else {
            return;
        };
        if q.lifecycle.waiting_level() != Some(level) {
            return;
        }
        self.classes[q.class].policy.timeout(q.task, self.now);
        self.fail_query(query, FailureKind::CompileTimeout);
    }

    /// Compilation produced a plan (fully or best-effort): free compile
    /// memory, release the ladder, cache the plan, and hand the query to
    /// the grant stage.
    pub(crate) fn finish_compile(&mut self, query: SlotRef) {
        let (id, class, task, compile_bytes, template, profile) = {
            let q = self.queries.get(query).expect("query exists");
            (
                q.id,
                q.class,
                q.task,
                q.compile_bytes,
                q.template,
                q.profile,
            )
        };
        // Compilation memory is freed when the plan is produced.
        self.machine.memory.free_compile(compile_bytes);
        self.record_compile_gauge();
        if let Some(q) = self.queries.get_mut(query) {
            q.compile_bytes = 0;
        }
        self.classes[class].task_query.take(task_slot(task));
        self.finish_policy_task(class, task);
        self.machine.cpu.end_task();

        // Cache the plan (uniquified submissions mean this rarely helps —
        // by design; the key is the copy-free (template, submission) pair).
        let cost = profile.compile_cpu_seconds;
        self.machine.memory.cache_plan(template, id, 96 << 10, cost);

        self.request_grant(query, profile.exec_grant_bytes);
    }
}
