use ftclust_graphs::NodeId;
use std::error::Error;
use std::fmt;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The protocol did not quiesce within the round limit given to
    /// [`crate::Simulator::run`].
    RoundLimitExceeded {
        /// The limit that was exceeded.
        limit: u64,
        /// The round the simulation had reached when it gave up.
        round: u64,
        /// How many nodes were still running.
        still_running: usize,
        /// Messages sent but not yet delivered when the limit hit —
        /// distinguishes a livelocked-but-chatty protocol from one that
        /// is silently spinning.
        in_flight: u64,
    },
    /// A reliable-transport link exhausted its retransmission budget: the
    /// frame `seq` from `from` to `to` was sent `attempts` times (the
    /// original send plus the retransmissions) without an acknowledgment.
    /// Raised by [`crate::transport`] when loss or an outage outlasts the
    /// configured [`crate::transport::TransportConfig::max_retransmits`].
    DeliveryFailed {
        /// The sender whose budget ran out.
        from: NodeId,
        /// The unresponsive receiver.
        to: NodeId,
        /// Sequence number of the undeliverable frame (equals the
        /// sender's logical round, see [`crate::transport`]).
        seq: u64,
        /// Total transmission attempts made for the frame.
        attempts: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RoundLimitExceeded {
                limit,
                round,
                still_running,
                in_flight,
            } => write!(
                f,
                "protocol did not halt within {limit} rounds \
                 (at round {round}: {still_running} nodes still running, \
                 {in_flight} messages in flight)"
            ),
            SimError::DeliveryFailed {
                from,
                to,
                seq,
                attempts,
            } => write!(
                f,
                "transport gave up on frame {seq} from {from} to {to} \
                 after {attempts} attempts (retransmit budget exhausted)"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_limit() {
        let e = SimError::RoundLimitExceeded {
            limit: 10,
            round: 10,
            still_running: 3,
            in_flight: 17,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains("17"));
    }

    #[test]
    fn display_delivery_failed_names_the_link() {
        let e = SimError::DeliveryFailed {
            from: NodeId::new(4),
            to: NodeId::new(9),
            seq: 12,
            attempts: 17,
        };
        let s = e.to_string();
        assert!(s.contains("v4") && s.contains("v9"));
        assert!(s.contains("12") && s.contains("17"));
    }
}
