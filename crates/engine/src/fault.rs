//! Deterministic fault injection: the engine half of the chaos layer.
//!
//! A [`FaultSpec`] describes one timed fault — a window on the virtual
//! clock during which some part of the simulated machine misbehaves. The
//! scenario crate builds these from its declarative `FaultPlan` and
//! installs them via [`crate::Server::install_faults`] before the run
//! starts; the server turns each spec into ordinary events on the event
//! queue (`FaultBegin` / `LeakStep` / `FaultEnd`), so faults replay
//! byte-identically like everything else in the simulation.
//!
//! Fault effects are applied to the machine's stations through their
//! setters (the engine's `machine` module), not painted onto the metrics:
//! a memory leak allocates real bytes from the memory station's broker
//! (through a ballast clerk the broker can see but never squeeze), a
//! compile stall multiplies the CPU station's compile service time, slot
//! loss shrinks the effective CPU count its load factor divides by, and a
//! grant collapse scales the memory station's class grant budgets at each
//! broker tick. A client surge, the one fault on the server rather than
//! the machine, genuinely enlarges the closed-loop population. The
//! admission policies and the degradation machinery (backoff, circuit
//! breaker, deadline fail-fast) then react exactly as they would in a live
//! server.

use serde::{Deserialize, Serialize};
use throttledb_sim::{SimDuration, SimTime};

/// What kind of fault a [`FaultSpec`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Leak memory: allocate `total_bytes` of ballast in `steps` equal
    /// increments spread over the fault window (each step jittered from
    /// the fault RNG stream), freed in full when the fault clears. The
    /// ballast is real brokered memory, so compilation targets shrink and
    /// out-of-memory pressure rises for the window's duration.
    MemoryLeak {
        /// Total ballast at the end of the ramp.
        total_bytes: u64,
        /// Number of allocation increments across the window.
        steps: u32,
    },
    /// Planner stall: multiply every compilation step's service time by
    /// `multiplier` (> 1) while the fault is active.
    CompileStall {
        /// Service-time multiplier (e.g. 6.0 = six times slower).
        multiplier: f64,
    },
    /// Executor slot loss: remove `slots` CPUs from the effective machine
    /// (restored when the fault clears). The load factor and execution
    /// times inflate accordingly.
    SlotLoss {
        /// CPUs lost; clamped so at least one CPU survives.
        slots: u32,
    },
    /// Grant-budget collapse: scale every class's execution-grant budget by
    /// `scale` (< 1) at each broker tick while active.
    GrantCollapse {
        /// Budget multiplier in (0, 1].
        scale: f64,
    },
    /// Thundering herd: add `extra_clients` to the active closed-loop
    /// population for the window (removed again when it clears).
    ClientSurge {
        /// Additional clients activated for the window.
        extra_clients: u32,
    },
}

/// One timed fault: a [`FaultKind`] active over `[start, start + duration)`
/// on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// When the fault begins.
    pub start: SimTime,
    /// How long it stays active.
    pub duration: SimDuration,
    /// What breaks.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Panics on inconsistent settings.
    pub fn validate(&self) {
        assert!(!self.duration.is_zero(), "fault window must be positive");
        match self.kind {
            FaultKind::MemoryLeak { total_bytes, steps } => {
                assert!(total_bytes > 0, "memory leak needs bytes to leak");
                assert!(steps > 0, "memory leak needs at least one step");
            }
            FaultKind::CompileStall { multiplier } => {
                assert!(multiplier > 1.0, "compile stall multiplier must be > 1");
            }
            FaultKind::SlotLoss { slots } => {
                assert!(slots > 0, "slot loss must lose at least one slot");
            }
            FaultKind::GrantCollapse { scale } => {
                assert!(
                    scale > 0.0 && scale <= 1.0,
                    "grant collapse scale must be in (0,1]"
                );
            }
            FaultKind::ClientSurge { extra_clients } => {
                assert!(extra_clients > 0, "client surge needs extra clients");
            }
        }
    }

    /// The instant the fault clears.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_validate_and_report_their_window() {
        let f = FaultSpec {
            start: SimTime::from_secs(100),
            duration: SimDuration::from_secs(60),
            kind: FaultKind::CompileStall { multiplier: 4.0 },
        };
        f.validate();
        assert_eq!(f.end(), SimTime::from_secs(160));
    }

    #[test]
    #[should_panic(expected = "multiplier")]
    fn stall_multiplier_below_one_rejected() {
        FaultSpec {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            kind: FaultKind::CompileStall { multiplier: 0.5 },
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn collapse_scale_above_one_rejected() {
        FaultSpec {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            kind: FaultKind::GrantCollapse { scale: 1.5 },
        }
        .validate();
    }
}
