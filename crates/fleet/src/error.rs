//! Fleet-level error type (DESIGN.md conventions): `Fleet::try_new` and
//! `Fleet::try_run` return one for any spec or trace, never a panic; the
//! lower-level constructors assert the same checks, as documented.

use std::fmt;

/// Why a fleet could not be built or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The spec declared no lanes.
    NoLanes,
    /// The spec is invalid: a batch, autoscale or store policy fails
    /// its check, or replica bounds or store/lane wiring disagree.
    InvalidSpec {
        /// What exactly is inconsistent.
        reason: String,
    },
    /// The trace is not sorted by arrival time.
    UnsortedTrace {
        /// Index of the first out-of-order request.
        position: usize,
    },
    /// A request targets a lane the fleet does not have.
    UnknownLane {
        /// Offending request id.
        request: u64,
        /// The lane it asked for.
        lane: usize,
        /// How many lanes exist.
        lanes: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoLanes => write!(f, "a fleet needs at least one lane"),
            FleetError::InvalidSpec { reason } => write!(f, "invalid fleet spec: {reason}"),
            FleetError::UnsortedTrace { position } => {
                write!(f, "trace is not sorted by arrival time (first violation at {position})")
            }
            FleetError::UnknownLane { request, lane, lanes } => {
                write!(f, "request {request} targets lane {lane} but the fleet has {lanes}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl FleetError {
    /// `Ok` when every `(holds, rule)` check holds, else an
    /// [`FleetError::InvalidSpec`] naming `what` and the first broken rule.
    pub(crate) fn check(what: &str, checks: &[(bool, &str)]) -> Result<(), FleetError> {
        match checks.iter().find(|(holds, _)| !holds) {
            Some((_, rule)) => Err(FleetError::InvalidSpec { reason: format!("{what}: {rule}") }),
            None => Ok(()),
        }
    }
}
