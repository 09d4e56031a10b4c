//! Stage 3: execution.
//!
//! Execution is modelled analytically: CPU seconds inflated by hash spills
//! (when the grant was reduced), which the CPU station turns into service
//! time under the machine's load, plus the disk station's I/O seconds over
//! the memory the brokered subcomponents have left free.

use super::{QueryLifecycle, QueryOrigin};
use crate::server::{Event, Server};
use crate::trace::TraceEvent;
use throttledb_executor::spill_slowdown;
use throttledb_sim::{SimDuration, SimTime, SlotRef};

impl Server {
    /// Begin executing `query` with `granted_bytes` of execution memory.
    pub(crate) fn start_exec(&mut self, query: SlotRef, granted_bytes: u64) {
        let Some(q) = self.queries.get_mut(query) else {
            return;
        };
        let id = q.id;
        let class = q.class;
        let profile = q.profile;
        let requested = q.grant_requested;
        q.lifecycle.advance(QueryLifecycle::Executing);
        if let Some(grant_id) = q.grant_id {
            self.classes[class]
                .grant_query
                .take(grant_id.slot_ref().index());
        }
        self.trace_push(TraceEvent::ExecStarted {
            at: self.now,
            query: id,
            bytes: granted_bytes,
        });
        let spilled = profile.exec_cpu_seconds * spill_slowdown(granted_bytes, requested);
        let cpu_seconds = self.machine.cpu.start_exec(spilled);
        // I/O time: whatever memory is not claimed by compilation, grants and
        // caches acts as the page buffer pool.
        let free_bytes = self.machine.memory.free_bytes();
        let io_seconds = self
            .machine
            .disk
            .io_seconds(profile.exec_footprint_bytes, free_bytes);

        let duration = SimDuration::from_secs_f64((cpu_seconds + io_seconds).max(1.0));
        self.queue
            .schedule(self.now + duration, Event::ExecFinish { query });
    }

    /// A query finished executing: release its grant (starting admitted
    /// waiters), record the completion, and schedule the client's next
    /// think-time submission.
    pub(crate) fn on_exec_finish(&mut self, query: SlotRef) {
        let Some(q) = self.queries.remove(query) else {
            return;
        };
        self.machine.cpu.end_task();
        if let Some(grant_id) = q.grant_id {
            self.release_grant(q.class, grant_id);
        }
        self.metrics.completed.record(self.now);
        self.trace_push(TraceEvent::Completed {
            at: self.now,
            query: q.id,
        });
        if self.active_faults > 0 {
            self.metrics.completed_during_fault += 1;
        }
        let class = &mut self.classes[q.class];
        class.completed += 1;
        if self.now >= self.metrics.warmup {
            class.completed_after_warmup += 1;
        }
        self.breaker_record(q.class, true);
        // Success ends the retry chain: a closed-loop client thinks and
        // submits fresh work; an open-loop arrival just releases its
        // source's in-flight slot.
        match q.origin {
            QueryOrigin::Client { client, .. } => {
                let think = self.client_model.think_time(&mut self.rng);
                self.schedule_submit(client, 0, SimTime::ZERO, think);
            }
            QueryOrigin::Source { source } => {
                let src = &mut self.sources[source as usize];
                src.in_flight = src
                    .in_flight
                    .checked_sub(1)
                    .expect("a source query ends only after it was admitted");
                src.completed += 1;
            }
        }
    }
}
