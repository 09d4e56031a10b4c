//! Stage 2: the execution memory grant.
//!
//! A compiled query asks its class's grant pool for execution memory up
//! front (SQL Server's "resource semaphore"). The pool admits it in full,
//! admits it reduced (the query will spill), or queues it FIFO with a
//! deadline; a queued query that outlives the deadline fails with a
//! resource error.

use super::QueryLifecycle;
use crate::metrics::FailureKind;
use crate::server::{Event, Server};
use crate::trace::TraceEvent;
use throttledb_executor::GrantRequestId;
use throttledb_governor::AdmissionDecision;
use throttledb_sim::SlotRef;

impl Server {
    /// Ask the class grant pool for `exec_grant_bytes` of execution memory
    /// and either start execution or queue with a timeout.
    pub(crate) fn request_grant(&mut self, query: SlotRef, exec_grant_bytes: u64) {
        let Some(q) = self.queries.get(query) else {
            return;
        };
        let (id, class) = (q.id, q.class);
        let requested = exec_grant_bytes.max(1 << 20);
        let deadline = self.now + self.config.grant_timeout;
        let (grant_id, decision) = self
            .machine
            .memory
            .grants(class)
            .request_at(requested, self.now, deadline);
        if let Some(q) = self.queries.get_mut(query) {
            q.grant_id = Some(grant_id);
            q.grant_requested = requested;
        }
        match decision.units() {
            Some(bytes) => self.start_exec(query, bytes),
            None => {
                if let Some(q) = self.queries.get_mut(query) {
                    q.lifecycle.advance(QueryLifecycle::WaitingForGrant);
                }
                self.classes[class]
                    .grant_query
                    .set(grant_id.slot_ref().index(), query);
                self.trace_push(TraceEvent::GrantQueued {
                    at: self.now,
                    query: id,
                    bytes: requested,
                });
                self.queue.schedule(deadline, Event::GrantTimeout { query });
            }
        }
    }

    /// A grant wait expired. Only fires if the grant was never given
    /// (`start_exec` clears the grant's slot when it runs).
    pub(crate) fn on_grant_timeout(&mut self, query: SlotRef) {
        let Some(q) = self.queries.get(query) else {
            return;
        };
        let class = q.class;
        let Some(grant_id) = q.grant_id else { return };
        let slot = grant_id.slot_ref().index();
        if self.classes[class].grant_query.get(slot) != Some(&query) {
            return;
        }
        // Cancelling may admit the waiters queued behind this one.
        if self.with_grants(class, |grants, now, out| grants.cancel(grant_id, now, out)) {
            self.classes[class].grant_query.take(slot);
            self.fail_query(query, FailureKind::GrantTimeout);
        }
    }

    /// Start every query whose queued grant was just admitted by a release,
    /// a cancel or a budget change.
    pub(crate) fn start_admitted(
        &mut self,
        class: usize,
        admitted: &[(GrantRequestId, AdmissionDecision)],
    ) {
        for &(grant_id, decision) in admitted {
            let waiter = self.classes[class]
                .grant_query
                .get(grant_id.slot_ref().index());
            if let (Some(&query), Some(bytes)) = (waiter, decision.units()) {
                self.start_exec(query, bytes);
            }
        }
    }
}
