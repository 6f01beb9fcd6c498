use std::error::Error;
use std::fmt;

/// Errors produced when constructing or parsing graphs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint referenced a node `>= node_count`.
    NodeOutOfRange {
        /// The offending node index.
        node: u32,
        /// The number of nodes in the graph under construction.
        node_count: u32,
    },
    /// A self-loop `(v, v)` was supplied; the clustering algorithms are
    /// defined on simple graphs.
    SelfLoop {
        /// The node with the self-loop.
        node: u32,
    },
    /// The number of positions supplied for a geometric graph did not match
    /// the node count.
    PositionCountMismatch {
        /// Number of positions supplied.
        positions: usize,
        /// Number of nodes expected.
        nodes: usize,
    },
    /// A unit disk graph was requested with a connection radius that is
    /// not strictly positive and finite.
    InvalidRadius {
        /// The rejected radius.
        radius: f64,
    },
    /// A node position of a geometric graph has a non-finite coordinate.
    NonFinitePosition {
        /// The node whose position is not finite.
        node: usize,
    },
    /// A textual graph representation could not be parsed.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// Description of what went wrong.
        reason: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(
                    f,
                    "node {node} out of range for graph with {node_count} nodes"
                )
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::PositionCountMismatch { positions, nodes } => {
                write!(f, "got {positions} positions for {nodes} nodes")
            }
            GraphError::InvalidRadius { radius } => {
                write!(f, "radius must be positive and finite, got {radius}")
            }
            GraphError::NonFinitePosition { node } => {
                write!(f, "node {node} has a non-finite position")
            }
            GraphError::Parse { line, reason } => {
                write!(f, "parse error at line {line}: {reason}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::NodeOutOfRange {
            node: 7,
            node_count: 5,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('5'));
        let e = GraphError::SelfLoop { node: 3 };
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::Parse {
            line: 2,
            reason: "bad token".into(),
        };
        assert!(e.to_string().contains("line 2"));
        let e = GraphError::InvalidRadius { radius: -1.0 };
        assert!(e.to_string().contains("-1"));
        let e = GraphError::NonFinitePosition { node: 4 };
        assert!(e.to_string().contains("node 4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
