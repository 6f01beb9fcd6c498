use ftclust_lp::LpError;
use ftclust_netsim::SimError;
use std::error::Error;
use std::fmt;

/// Errors produced by the k-MDS algorithms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum KmdsError {
    /// A node's coverage demand exceeds its closed neighborhood: under the
    /// LP `(PP)` semantics, node `v` can be covered at most
    /// `δ(v) + 1` times, so `k_v > δ(v) + 1` is infeasible.
    InfeasibleDemand {
        /// The node with the excessive demand.
        node: u32,
        /// The demanded coverage `k_v`.
        demand: u32,
        /// The size of the closed neighborhood `|N[v]| = δ(v) + 1`.
        closed_neighborhood: u32,
    },
    /// A demand vector had the wrong length.
    DemandLengthMismatch {
        /// Demands supplied.
        demands: usize,
        /// Nodes in the graph.
        nodes: usize,
    },
    /// A public entry point was called with inputs that do not fit
    /// together (e.g. a liveness mask of the wrong length, or `k = 0`).
    InvalidInput {
        /// Which input was rejected, and why.
        what: &'static str,
    },
    /// A message-passing execution failed (e.g. round limit).
    Sim(SimError),
    /// An LP solve failed.
    Lp(LpError),
    /// An algorithm exceeded its internal iteration budget — indicates a
    /// bug or an adversarial instance; never observed in the test suite.
    IterationLimit {
        /// Which stage hit the limit.
        stage: &'static str,
        /// The exhausted budget.
        limit: u64,
    },
    /// A failure model was passed to an evaluator that cannot simulate it
    /// (e.g. [`crate::fault::FailureModel::Region`] needs node positions —
    /// use [`crate::fault::regional_survivability`]).
    UnsupportedFailureModel {
        /// Why the model cannot be evaluated, and which API to use instead.
        reason: &'static str,
    },
    /// A Monte-Carlo evaluation was requested with zero trials: the
    /// aggregate statistics (means, minima) would be undefined, and
    /// pre-fix code silently returned `min = +∞` next to `mean = 0`.
    ZeroTrials {
        /// Which evaluator rejected the request.
        what: &'static str,
    },
    /// An approximation ratio was requested against a degenerate lower
    /// bound: an empty dual certificate or a zero-weight optimum yields
    /// `lower_bound ≤ 0`, and pre-fix code silently divided through to
    /// `inf`/`NaN` in reports. Use [`crate::validate::certified_ratio`],
    /// which surfaces this variant instead.
    DegenerateCertificate {
        /// The solution value whose ratio was requested.
        value: f64,
        /// The degenerate certified lower bound (`≤ 0`, or non-finite).
        lower_bound: f64,
    },
}

impl fmt::Display for KmdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KmdsError::InfeasibleDemand { node, demand, closed_neighborhood } => write!(
                f,
                "node v{node} demands coverage {demand} but has closed neighborhood of size {closed_neighborhood}"
            ),
            KmdsError::DemandLengthMismatch { demands, nodes } => {
                write!(f, "got {demands} demands for {nodes} nodes")
            }
            KmdsError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            KmdsError::Sim(e) => write!(f, "simulation failed: {e}"),
            KmdsError::Lp(e) => write!(f, "lp solve failed: {e}"),
            KmdsError::IterationLimit { stage, limit } => {
                write!(f, "{stage} exceeded its iteration budget of {limit}")
            }
            KmdsError::UnsupportedFailureModel { reason } => {
                write!(f, "unsupported failure model: {reason}")
            }
            KmdsError::ZeroTrials { what } => {
                write!(f, "{what} needs at least one trial to aggregate")
            }
            KmdsError::DegenerateCertificate { value, lower_bound } => write!(
                f,
                "cannot certify a ratio for value {value} against degenerate lower bound {lower_bound}"
            ),
        }
    }
}

impl Error for KmdsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KmdsError::Sim(e) => Some(e),
            KmdsError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for KmdsError {
    fn from(e: SimError) -> Self {
        KmdsError::Sim(e)
    }
}

impl From<LpError> for KmdsError {
    fn from(e: LpError) -> Self {
        KmdsError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = KmdsError::InfeasibleDemand {
            node: 3,
            demand: 5,
            closed_neighborhood: 2,
        };
        assert!(e.to_string().contains("v3"));
        assert!(e.source().is_none());
        let e = KmdsError::from(SimError::RoundLimitExceeded {
            limit: 1,
            round: 1,
            still_running: 1,
            in_flight: 0,
        });
        assert!(e.source().is_some());
        let e = KmdsError::from(LpError::Infeasible);
        assert!(e.to_string().contains("lp"));
        let e = KmdsError::ZeroTrials {
            what: "survivability",
        };
        assert!(e.to_string().contains("at least one trial"));
        let e = KmdsError::DegenerateCertificate {
            value: 4.0,
            lower_bound: 0.0,
        };
        assert!(e.to_string().contains("degenerate lower bound"));
        assert!(e.source().is_none());
        let e = KmdsError::InvalidInput { what: "k is 0" };
        assert_eq!(e.to_string(), "invalid input: k is 0");
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<KmdsError>();
    }
}
