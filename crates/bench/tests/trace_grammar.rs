//! Every query's path through the trace follows the pipeline's grammar.
//!
//! Each query's events, in stream order, must spell one of these paths:
//!
//! - `Submitted` → `Shed`;
//! - `Submitted` → (`GatewayBlocked` | `BestEffort`)* → [`GrantQueued`] →
//!   `ExecStarted` → `Completed`, where a `BestEffort` plan goes straight
//!   to the grant;
//! - `Failed { OutOfMemory }` while compiling, or after a gateway wait
//!   through the admission the trace does not record;
//! - `Failed { CompileTimeout }` only from a gateway wait;
//! - `Failed { GrantTimeout }` only from the grant queue.
//!
//! A run may end with a query anywhere on its path. The engine moves a
//! query in one function per edge, so an edge that loses its event breaks
//! the grammar here.

use std::collections::HashMap;
use std::sync::Arc;
use throttledb_engine::{FailureKind, PolicyKind, TraceEvent, WorkloadProfiles};
use throttledb_scenario::{Scale, Scenario, ScenarioRunner, Trace};

/// Where a query is, as far as its events tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Submitted, compiling; nothing else yet.
    Submitted,
    /// Blocked at a gateway, or compiling again after an unrecorded admit.
    Blocked,
    /// Finished best-effort: the grant comes next.
    BestEffort,
    GrantQueued,
    Executing,
    Done,
}

/// The state `event` moves a query in `state` to, if the move is legal.
fn step(state: State, event: &TraceEvent) -> Option<State> {
    use FailureKind::*;
    use State::*;
    use TraceEvent as E;
    Some(match (state, event) {
        (Submitted, E::Shed { .. }) => Done,
        (Submitted | Blocked, E::GatewayBlocked { .. }) => Blocked,
        (Submitted | Blocked, E::BestEffort { .. }) => BestEffort,
        (Submitted | Blocked | BestEffort, E::GrantQueued { .. }) => GrantQueued,
        (Submitted | Blocked | BestEffort | GrantQueued, E::ExecStarted { .. }) => Executing,
        (Executing, E::Completed { .. }) => Done,
        (
            Submitted | Blocked,
            E::Failed {
                kind: OutOfMemory, ..
            },
        ) => Done,
        (
            Blocked,
            E::Failed {
                kind: CompileTimeout,
                ..
            },
        ) => Done,
        (
            GrantQueued,
            E::Failed {
                kind: GrantTimeout, ..
            },
        ) => Done,
        _ => return None,
    })
}

/// The query an event is about, if it is about one.
fn query_of(event: &TraceEvent) -> Option<u64> {
    use TraceEvent as E;
    match *event {
        E::Submitted { query, .. }
        | E::GatewayBlocked { query, .. }
        | E::BestEffort { query, .. }
        | E::GrantQueued { query, .. }
        | E::ExecStarted { query, .. }
        | E::Completed { query, .. }
        | E::Failed { query, .. }
        | E::Shed { query, .. } => Some(query),
        _ => None,
    }
}

/// Walk every query's path through `events`. Returns how many query
/// events were checked, or the first illegal one.
fn check(events: &[TraceEvent]) -> Result<usize, String> {
    let mut states: HashMap<u64, State> = HashMap::new();
    let mut checked = 0;
    for (index, event) in events.iter().enumerate() {
        let Some(query) = query_of(event) else {
            continue;
        };
        checked += 1;
        let state = states.get(&query).copied();
        let next = match (state, event) {
            (None, TraceEvent::Submitted { .. }) => Some(State::Submitted),
            (None, _) => None,
            (Some(state), _) => step(state, event),
        };
        let Some(next) = next else {
            return Err(format!("event {index} ({event:?}) after {state:?}"));
        };
        states.insert(query, next);
    }
    Ok(checked)
}

#[test]
fn the_checker_rejects_a_lost_or_misplaced_event() {
    use throttledb_sim::SimTime;
    let at = SimTime::ZERO;
    let submitted = TraceEvent::Submitted {
        at,
        query: 1,
        client: 0,
        class: 0,
    };
    let blocked = TraceEvent::GatewayBlocked {
        at,
        query: 1,
        level: 0,
    };
    let failed = |kind| TraceEvent::Failed { at, query: 1, kind };
    let started = TraceEvent::ExecStarted {
        at,
        query: 1,
        bytes: 1,
    };
    let completed = TraceEvent::Completed { at, query: 1 };
    let legal = [
        submitted.clone(),
        blocked.clone(),
        started,
        completed.clone(),
    ];
    assert_eq!(check(&legal), Ok(4));
    for illegal in [
        // A completion whose start lost its event.
        vec![submitted.clone(), completed],
        // A grant timeout from a gateway wait.
        vec![
            submitted.clone(),
            blocked,
            failed(FailureKind::GrantTimeout),
        ],
        // A compile timeout while compiling.
        vec![submitted.clone(), failed(FailureKind::CompileTimeout)],
        // A query submitted twice.
        vec![submitted.clone(), submitted.clone()],
        // An event for a query never submitted.
        vec![failed(FailureKind::OutOfMemory)],
    ] {
        assert!(check(&illegal).is_err(), "{illegal:?} passed");
    }
}

#[test]
fn every_builtin_under_every_policy_follows_the_grammar() {
    let mut checked = 0;
    for name in Scenario::builtin_names() {
        let scenario = Scenario::builtin(name, Scale::Quick)
            .expect("a built-in")
            .with_seed(2007);
        let config = scenario.runtime_config();
        let profiles = Arc::new(WorkloadProfiles::characterize_full(&config));
        for policy in [PolicyKind::Ladder, PolicyKind::Pid, PolicyKind::CostBased] {
            let outcome = ScenarioRunner::new(scenario.clone().with_policy(policy))
                .record_trace(true)
                .with_profiles(profiles.clone())
                .run();
            let trace = outcome.trace.expect("recording enabled");
            checked += check(trace.events())
                .unwrap_or_else(|e| panic!("{name} under {policy:?}: illegal {e}"));
        }
    }
    assert!(checked > 0);
}

#[test]
fn every_committed_golden_trace_follows_the_grammar() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../scenario/tests/golden");
    let mut goldens = 0;
    for entry in std::fs::read_dir(dir).expect("the golden directory") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|e| e == "trace") {
            let text = std::fs::read_to_string(&path).expect("a readable golden");
            let trace = Trace::decode(&text).expect("a v1 trace");
            let checked =
                check(trace.events()).unwrap_or_else(|e| panic!("{}: illegal {e}", path.display()));
            assert!(checked > 0, "{} has no query events", path.display());
            goldens += 1;
        }
    }
    assert!(goldens >= 8, "only {goldens} v1 goldens found");
}
