//! Common vocabulary of the leader-election task.

use co_net::{NodeIndex, Outcome, RingSpec};
use std::fmt;

/// A node's decision in the leader-election task.
///
/// Exactly one node must output `Leader`; every other node must output
/// `NonLeader` (paper, Section 3).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// The elected node.
    Leader,
    /// Every other node.
    NonLeader,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Leader => f.write_str("Leader"),
            Role::NonLeader => f.write_str("Non-Leader"),
        }
    }
}

/// Why an election run failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ElectionError {
    /// The run did not reach the required outcome (e.g. budget ran out).
    BadOutcome {
        /// What the run produced.
        got: Outcome,
    },
    /// Zero or more than one node output `Leader`.
    WrongLeaderCount {
        /// Positions that claimed leadership.
        leaders: Vec<NodeIndex>,
    },
    /// A node other than the maximum-ID node was elected.
    WrongLeader {
        /// Elected position.
        got: NodeIndex,
        /// Expected position (first holder of `ID_max`).
        expected: NodeIndex,
    },
    /// A node produced no output.
    MissingOutput {
        /// The silent node.
        node: NodeIndex,
    },
    /// Orientation outputs do not form a consistent clockwise walk.
    InconsistentOrientation,
}

impl fmt::Display for ElectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElectionError::BadOutcome { got } => write!(f, "unexpected run outcome: {got}"),
            ElectionError::WrongLeaderCount { leaders } => {
                write!(f, "expected exactly one leader, got {leaders:?}")
            }
            ElectionError::WrongLeader { got, expected } => {
                write!(f, "elected node {got}, expected {expected}")
            }
            ElectionError::MissingOutput { node } => write!(f, "node {node} produced no output"),
            ElectionError::InconsistentOrientation => {
                f.write_str("ring orientation outputs are inconsistent")
            }
        }
    }
}

impl std::error::Error for ElectionError {}

/// Outcome of running one of the paper's election algorithms on a ring.
#[derive(Clone, Debug)]
pub struct ElectionReport {
    /// How the simulation ended.
    pub outcome: Outcome,
    /// Total pulses sent — the paper's message complexity of the execution.
    pub total_messages: u64,
    /// Deliveries performed.
    pub steps: u64,
    /// Position of the unique leader, if exactly one node output `Leader`.
    pub leader: Option<NodeIndex>,
    /// Every node's final role (position order).
    pub roles: Vec<Role>,
    /// The theoretical message complexity for this ring, when the paper
    /// gives an exact formula (e.g. `n(2·ID_max + 1)` for Algorithm 2) and
    /// it fits in a `u64`.
    pub predicted_messages: Option<u64>,
    /// High-water mark of queued-message storage over the run, in bytes.
    pub peak_queue_bytes: usize,
}

impl ElectionReport {
    /// Whether the run achieved the paper's *quiescent termination*.
    #[must_use]
    pub fn quiescently_terminated(&self) -> bool {
        self.outcome == Outcome::QuiescentTerminated
    }

    /// Whether the run reached quiescence (with or without termination).
    #[must_use]
    pub fn reached_quiescence(&self) -> bool {
        matches!(
            self.outcome,
            Outcome::QuiescentTerminated | Outcome::Quiescent
        )
    }

    /// Validates the election against a ring spec: exactly one leader, at the
    /// position of the maximal ID.
    ///
    /// # Errors
    ///
    /// Returns the first [`ElectionError`] found, if any.
    pub fn validate(&self, spec: &RingSpec) -> Result<(), ElectionError> {
        if !self.reached_quiescence() {
            return Err(ElectionError::BadOutcome { got: self.outcome });
        }
        let leaders: Vec<NodeIndex> = self
            .roles
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == Role::Leader)
            .map(|(i, _)| i)
            .collect();
        if leaders.len() != 1 {
            return Err(ElectionError::WrongLeaderCount { leaders });
        }
        let expected = spec.max_position();
        if leaders[0] != expected {
            return Err(ElectionError::WrongLeader {
                got: leaders[0],
                expected,
            });
        }
        Ok(())
    }
}

/// Derives the unique-leader position from a role vector, if it exists.
#[must_use]
pub fn unique_leader(roles: &[Role]) -> Option<NodeIndex> {
    let mut leaders = roles
        .iter()
        .enumerate()
        .filter(|(_, r)| **r == Role::Leader);
    match (leaders.next(), leaders.next()) {
        (Some((i, _)), None) => Some(i),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_leader_detection() {
        use Role::{Leader, NonLeader};
        assert_eq!(unique_leader(&[NonLeader, Leader, NonLeader]), Some(1));
        assert_eq!(unique_leader(&[NonLeader, NonLeader]), None);
        assert_eq!(unique_leader(&[Leader, Leader]), None);
        assert_eq!(unique_leader(&[]), None);
    }

    #[test]
    fn validate_flags_wrong_leader() {
        let spec = RingSpec::oriented(vec![5, 9, 1]);
        let report = ElectionReport {
            outcome: Outcome::Quiescent,
            total_messages: 0,
            steps: 0,
            leader: Some(0),
            roles: vec![Role::Leader, Role::NonLeader, Role::NonLeader],
            predicted_messages: None,
            peak_queue_bytes: 0,
        };
        assert_eq!(
            report.validate(&spec),
            Err(ElectionError::WrongLeader {
                got: 0,
                expected: 1
            })
        );
    }

    #[test]
    fn validate_accepts_correct_election() {
        let spec = RingSpec::oriented(vec![5, 9, 1]);
        let report = ElectionReport {
            outcome: Outcome::QuiescentTerminated,
            total_messages: 57,
            steps: 57,
            leader: Some(1),
            roles: vec![Role::NonLeader, Role::Leader, Role::NonLeader],
            predicted_messages: Some(57),
            peak_queue_bytes: 0,
        };
        assert!(report.validate(&spec).is_ok());
        assert!(report.quiescently_terminated());
    }

    #[test]
    fn validate_flags_bad_outcome() {
        let spec = RingSpec::oriented(vec![1]);
        let report = ElectionReport {
            outcome: Outcome::BudgetExhausted,
            total_messages: 0,
            steps: 0,
            leader: None,
            roles: vec![Role::NonLeader],
            predicted_messages: None,
            peak_queue_bytes: 0,
        };
        assert!(matches!(
            report.validate(&spec),
            Err(ElectionError::BadOutcome { .. })
        ));
    }

    #[test]
    fn error_display() {
        let err = ElectionError::WrongLeaderCount {
            leaders: vec![0, 2],
        };
        assert!(err.to_string().contains("exactly one leader"));
        assert!(ElectionError::InconsistentOrientation
            .to_string()
            .contains("orientation"));
    }
}
