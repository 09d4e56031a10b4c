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

impl Server {
    /// Ask the class grant pool for `exec_grant_bytes` of execution memory
    /// and either start execution or queue with a timeout.
    pub(crate) fn request_grant(&mut self, id: u64, exec_grant_bytes: u64) {
        let Some(q) = self.queries.get(&id) else {
            return;
        };
        let class = q.class;
        let requested = exec_grant_bytes.max(1 << 20);
        let deadline = self.now + self.config.grant_timeout;
        let (grant_id, decision) = self.classes[class]
            .grants
            .request_at(requested, self.now, deadline);
        if let Some(q) = self.queries.get_mut(&id) {
            q.grant_id = Some(grant_id);
            q.grant_requested = requested;
        }
        self.grant_to_query.insert((class, grant_id), id);
        match decision.units() {
            Some(bytes) => self.start_exec(id, bytes),
            None => {
                if let Some(q) = self.queries.get_mut(&id) {
                    q.lifecycle.advance(QueryLifecycle::WaitingForGrant);
                }
                self.trace_push(TraceEvent::GrantQueued {
                    at: self.now,
                    query: id,
                    bytes: requested,
                });
                self.queue
                    .schedule(deadline, Event::GrantTimeout { query: id });
            }
        }
    }

    /// A grant wait expired. Only fires if the grant was never given
    /// (`start_exec` removes the mapping when it runs).
    pub(crate) fn on_grant_timeout(&mut self, id: u64) {
        let Some(q) = self.queries.get(&id) else {
            return;
        };
        let class = q.class;
        let Some(grant_id) = q.grant_id else { return };
        if !self.grant_to_query.contains_key(&(class, grant_id)) {
            return;
        }
        // Cancelling may admit the waiters queued behind this one.
        if self.with_grants(class, |grants, now, out| grants.cancel(grant_id, now, out)) {
            self.grant_to_query.remove(&(class, grant_id));
            self.fail_query(id, FailureKind::GrantTimeout);
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
            if let (Some(&qid), Some(bytes)) = (
                self.grant_to_query.get(&(class, grant_id)),
                decision.units(),
            ) {
                self.start_exec(qid, bytes);
            }
        }
    }
}
