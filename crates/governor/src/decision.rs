//! The common admission-decision vocabulary.
//!
//! The paper applies one throttling *policy* at several choke points:
//! gateway-ladder levels gate compilations, the grant queue gates
//! executions, and the memory broker gates every subcomponent's growth.
//! The grant pools and the ladder's gateways answer in it directly (both
//! are [`ResourcePool`](crate::ResourcePool)s); `LadderDecision` and broker
//! notifications translate into it.

use serde::{Deserialize, Serialize};
use std::fmt;
use throttledb_sim::SimTime;

/// What an admission point decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// Admitted with `units` of the resource (gateway slots, grant bytes).
    Admit {
        /// Units granted (1 for slot-like resources, bytes for grants).
        units: u64,
    },
    /// Admitted with degraded service: a reduced grant (the query spills),
    /// or a best-effort plan instead of further exploration.
    Degrade {
        /// Units granted, less than requested.
        units: u64,
    },
    /// Must wait; abandon the request after `deadline`.
    Wait {
        /// The instant after which waiting becomes a timeout failure.
        deadline: SimTime,
    },
    /// Refused outright (the resource cannot serve the request at all).
    Reject,
}

impl AdmissionDecision {
    /// True when the requester may proceed right now (fully or degraded).
    pub fn admitted(&self) -> bool {
        matches!(
            self,
            AdmissionDecision::Admit { .. } | AdmissionDecision::Degrade { .. }
        )
    }

    /// Units granted, if admitted.
    pub fn units(&self) -> Option<u64> {
        match self {
            AdmissionDecision::Admit { units } | AdmissionDecision::Degrade { units } => {
                Some(*units)
            }
            _ => None,
        }
    }

    /// The wait deadline, if waiting.
    pub fn deadline(&self) -> Option<SimTime> {
        match self {
            AdmissionDecision::Wait { deadline } => Some(*deadline),
            _ => None,
        }
    }
}

impl fmt::Display for AdmissionDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionDecision::Admit { units } => write!(f, "admit({units})"),
            AdmissionDecision::Degrade { units } => write!(f, "degrade({units})"),
            AdmissionDecision::Wait { deadline } => {
                write!(f, "wait(until {}s)", deadline.as_secs())
            }
            AdmissionDecision::Reject => f.write_str("reject"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admitted_covers_full_and_degraded() {
        assert!(AdmissionDecision::Admit { units: 4 }.admitted());
        assert!(AdmissionDecision::Degrade { units: 1 }.admitted());
        assert!(!AdmissionDecision::Wait {
            deadline: SimTime::MAX
        }
        .admitted());
        assert!(!AdmissionDecision::Reject.admitted());
    }

    #[test]
    fn accessors_extract_payloads() {
        assert_eq!(AdmissionDecision::Admit { units: 7 }.units(), Some(7));
        assert_eq!(AdmissionDecision::Reject.units(), None);
        let d = AdmissionDecision::Wait {
            deadline: SimTime::from_secs(30),
        };
        assert_eq!(d.deadline(), Some(SimTime::from_secs(30)));
        assert_eq!(AdmissionDecision::Reject.deadline(), None);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            AdmissionDecision::Admit { units: 2 }.to_string(),
            "admit(2)"
        );
        assert_eq!(AdmissionDecision::Reject.to_string(), "reject");
    }
}
