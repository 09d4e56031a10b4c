//! Declarative fault plans: the scenario half of the chaos layer.
//!
//! A [`FaultPlan`] is an ordered list of timed [`FaultEvent`]s attached to a
//! [`crate::Scenario`]. Times are *offsets from the run start*, so a plan is
//! portable across scales and phase schedules; the runner converts each
//! event into an absolute engine [`FaultSpec`] and installs the lot via
//! [`throttledb_engine::Server::install_faults`] before the first phase
//! begins. From there the engine treats faults as ordinary queued
//! events: same seed ⇒ byte-identical trace, including the recorded
//! `fault`/`shed`/`breaker` lines.

use serde::{Deserialize, Serialize};
use throttledb_engine::{FaultKind, FaultSpec};
use throttledb_sim::{SimDuration, SimTime};

/// One timed fault, expressed relative to the run start.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Offset from the start of the run at which the fault begins.
    pub at: SimDuration,
    /// How long the fault stays active.
    pub duration: SimDuration,
    /// What breaks (see [`FaultKind`]).
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A fault event from parts.
    pub fn new(at: SimDuration, duration: SimDuration, kind: FaultKind) -> Self {
        FaultEvent { at, duration, kind }
    }

    /// The run-relative instant the fault clears.
    pub fn end(&self) -> SimDuration {
        self.at + self.duration
    }

    /// The absolute engine spec for this event.
    fn to_spec(self) -> FaultSpec {
        FaultSpec {
            start: SimTime::ZERO + self.at,
            duration: self.duration,
            kind: self.kind,
        }
    }
}

/// The fault schedule of a scenario. Empty by default — a scenario without
/// a plan runs exactly as it did before the chaos layer existed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled fault events, in any order (the engine's event queue
    /// sequences them).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder: add one fault event.
    pub fn with(mut self, at: SimDuration, duration: SimDuration, kind: FaultKind) -> Self {
        self.events.push(FaultEvent::new(at, duration, kind));
        self
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The largest number of extra clients any [`FaultKind::ClientSurge`]
    /// event adds — the headroom [`crate::Scenario::runtime_config`] builds
    /// into the server's client table so a surge always has inactive
    /// clients to wake.
    pub fn max_surge_clients(&self) -> u32 {
        self.events
            .iter()
            .map(|e| match e.kind {
                FaultKind::ClientSurge { extra_clients } => extra_clients,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Convert to absolute engine specs, ready for
    /// [`throttledb_engine::Server::install_faults`].
    pub fn to_specs(&self) -> Vec<FaultSpec> {
        self.events.iter().map(|e| e.to_spec()).collect()
    }

    /// Panics when any event is malformed or would outlive `total` (the
    /// scenario's phase-schedule duration): a fault that starts after the
    /// run ends would silently never fire.
    pub fn validate(&self, total: SimDuration) {
        for event in &self.events {
            event.to_spec().validate();
            assert!(
                event.at < total,
                "fault at {}s starts after the {}s run ends",
                event.at.as_secs_f64(),
                total.as_secs_f64()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_convert_to_absolute_specs() {
        let plan = FaultPlan::new()
            .with(
                SimDuration::from_secs(600),
                SimDuration::from_secs(300),
                FaultKind::CompileStall { multiplier: 4.0 },
            )
            .with(
                SimDuration::from_secs(1200),
                SimDuration::from_secs(60),
                FaultKind::ClientSurge { extra_clients: 12 },
            );
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.max_surge_clients(), 12);
        plan.validate(SimDuration::from_secs(3600));
        let specs = plan.to_specs();
        assert_eq!(specs[0].start, SimTime::from_secs(600));
        assert_eq!(specs[0].end(), SimTime::from_secs(900));
        assert_eq!(specs[1].kind, FaultKind::ClientSurge { extra_clients: 12 });
    }

    #[test]
    fn empty_plan_is_the_default_and_needs_no_headroom() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.max_surge_clients(), 0);
        assert!(plan.to_specs().is_empty());
        plan.validate(SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "starts after")]
    fn events_beyond_the_run_are_rejected() {
        FaultPlan::new()
            .with(
                SimDuration::from_secs(100),
                SimDuration::from_secs(10),
                FaultKind::SlotLoss { slots: 2 },
            )
            .validate(SimDuration::from_secs(50));
    }
}
