//! The admission/grant event stream of a run.
//!
//! The pipeline stages emit every admission-control decision the run
//! makes: submissions, gateway blocks, best-effort finishes, grant queueing
//! and issuance, completions, failures, and the running compile-memory
//! peaks. Every event goes through the run's [`crate::metrics::MetricsFold`],
//! the one place events become counts, and then to whichever consumers are
//! attached: the buffered recording
//! ([`crate::server::Server::enable_trace`]) and a streaming [`TraceSink`].
//! The scenario subsystem (`throttledb-scenario`) serializes the stream and
//! replays it through the same fold for regression comparison — a recorded
//! trace is a golden file that a later build must reproduce byte for byte.

use crate::metrics::FailureKind;
use serde::{Deserialize, Serialize};
use throttledb_governor::BreakerState;
use throttledb_sim::SimTime;

/// One recorded admission-control event.
///
/// Events carry only policy-visible facts (virtual timestamps, query ids,
/// byte counts), never wall-clock time or host state, so a trace is stable
/// across machines and builds as long as the policy code behaves the same.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A scenario phase began. Recorded by the scenario runner at each
    /// phase boundary; segments the stream for per-phase replay.
    PhaseStart {
        /// Boundary time.
        at: SimTime,
        /// Phase name.
        name: String,
        /// Active client count for the phase.
        clients: u32,
    },
    /// A client submitted a query.
    Submitted {
        /// Submission time.
        at: SimTime,
        /// Query id (unique within the run).
        query: u64,
        /// Submitting client.
        client: u32,
        /// Workload-class index of the client.
        class: usize,
    },
    /// A compilation blocked at a gateway of its class ladder.
    GatewayBlocked {
        /// Block time.
        at: SimTime,
        /// Query id.
        query: u64,
        /// The gateway level (0-based).
        level: usize,
    },
    /// The ladder finished a compilation best-effort instead of blocking.
    BestEffort {
        /// Decision time.
        at: SimTime,
        /// Query id.
        query: u64,
    },
    /// An execution memory-grant request could not be served immediately
    /// and was queued.
    GrantQueued {
        /// Queue time.
        at: SimTime,
        /// Query id.
        query: u64,
        /// Requested grant bytes.
        bytes: u64,
    },
    /// Execution began with a memory grant.
    ExecStarted {
        /// Start time.
        at: SimTime,
        /// Query id.
        query: u64,
        /// Granted bytes (may be less than requested).
        bytes: u64,
    },
    /// The query completed successfully.
    Completed {
        /// Completion time.
        at: SimTime,
        /// Query id.
        query: u64,
    },
    /// The query failed.
    Failed {
        /// Failure time.
        at: SimTime,
        /// Query id.
        query: u64,
        /// Why it failed.
        kind: FailureKind,
    },
    /// Aggregate compilation memory reached a new high since the last
    /// phase boundary.
    CompilePeak {
        /// Sample time.
        at: SimTime,
        /// Aggregate compile bytes in use.
        bytes: u64,
    },
    /// An installed fault became active (see [`crate::fault::FaultSpec`]).
    FaultInjected {
        /// Injection time.
        at: SimTime,
        /// Index into the installed fault list.
        fault: u32,
    },
    /// An installed fault's window ended and its effects were reverted.
    FaultCleared {
        /// Clear time.
        at: SimTime,
        /// Index into the installed fault list.
        fault: u32,
    },
    /// A class circuit breaker shed an arriving query (load-shed; the
    /// client backs off and retries).
    Shed {
        /// Shed time.
        at: SimTime,
        /// Query id the arrival would have become.
        query: u64,
    },
    /// A class circuit breaker changed state.
    BreakerTransition {
        /// Transition time.
        at: SimTime,
        /// Workload-class index of the breaker.
        class: usize,
        /// The state entered.
        state: BreakerState,
    },
    /// End of the recording.
    End {
        /// Final time.
        at: SimTime,
    },
}

/// A streaming consumer of trace events.
///
/// When a sink is installed (see [`crate::Server::set_trace_sink`]) the
/// server hands every recorded event to it *as it happens*, before (and
/// independently of) the buffered [`crate::Server::take_trace`] vector.
/// This is the hook the binary `throttledb-trace v2` writer uses to record
/// multi-million-event runs at O(1) memory: the sink serializes each event
/// straight to an `io::Write` instead of materializing the stream.
///
/// Sinks must be infallible from the server's point of view; an I/O-backed
/// sink should stash its first error internally and surface it when the
/// stream is finalized.
pub trait TraceSink {
    /// Observe one recorded event, in run order.
    fn event(&mut self, event: &TraceEvent);
}

impl TraceEvent {
    /// The virtual time at which the event was recorded.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::PhaseStart { at, .. }
            | TraceEvent::Submitted { at, .. }
            | TraceEvent::GatewayBlocked { at, .. }
            | TraceEvent::BestEffort { at, .. }
            | TraceEvent::GrantQueued { at, .. }
            | TraceEvent::ExecStarted { at, .. }
            | TraceEvent::Completed { at, .. }
            | TraceEvent::Failed { at, .. }
            | TraceEvent::CompilePeak { at, .. }
            | TraceEvent::FaultInjected { at, .. }
            | TraceEvent::FaultCleared { at, .. }
            | TraceEvent::Shed { at, .. }
            | TraceEvent::BreakerTransition { at, .. }
            | TraceEvent::End { at } => *at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_extracts_the_timestamp_of_every_variant() {
        let t = SimTime::from_secs(42);
        let events = [
            TraceEvent::PhaseStart {
                at: t,
                name: "p".into(),
                clients: 4,
            },
            TraceEvent::Submitted {
                at: t,
                query: 1,
                client: 0,
                class: 0,
            },
            TraceEvent::GatewayBlocked {
                at: t,
                query: 1,
                level: 2,
            },
            TraceEvent::BestEffort { at: t, query: 1 },
            TraceEvent::GrantQueued {
                at: t,
                query: 1,
                bytes: 7,
            },
            TraceEvent::ExecStarted {
                at: t,
                query: 1,
                bytes: 7,
            },
            TraceEvent::Completed { at: t, query: 1 },
            TraceEvent::Failed {
                at: t,
                query: 1,
                kind: FailureKind::OutOfMemory,
            },
            TraceEvent::CompilePeak { at: t, bytes: 9 },
            TraceEvent::FaultInjected { at: t, fault: 0 },
            TraceEvent::FaultCleared { at: t, fault: 0 },
            TraceEvent::Shed { at: t, query: 1 },
            TraceEvent::BreakerTransition {
                at: t,
                class: 0,
                state: BreakerState::Open,
            },
            TraceEvent::End { at: t },
        ];
        for ev in events {
            assert_eq!(ev.at(), t);
        }
    }
}
