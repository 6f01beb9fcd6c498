//! Live churn: crash **and recovery** events and random membership
//! churn.
//!
//! A [`ChurnPlan`] is the simulator's fault schedule for nodes: it says
//! which nodes are up in each round. It covers both halves of the
//! paper's motivation: crash-stop failures (crashes with no recovery),
//! and the dynamic case where nodes die *and come back* while the
//! protocol is running (the mobile/churning networks of Gao et al.'s
//! *Discrete Mobile Centers*, the basis of Algorithm 3 Part I). Failures
//! can also arrive at seeded-random rounds rather than a fixed schedule.
//! Faults of messages are not its business: i.i.d. loss is
//! [`Simulator::set_loss`](crate::Simulator::set_loss) (or
//! [`Stack::lossy`](crate::exec::Stack::lossy)), and links cut for a
//! window of rounds are
//! [`AdversaryPlan::partition`](crate::AdversaryPlan::partition)s.
//!
//! All churn decisions are made **on the simulator's sequential path**
//! (see `DESIGN.md` §8): scheduled events are applied in plan order, and
//! random churn draws one uniform per node per round from the shared
//! fault stream (the one loss draws from on the merge path) — so every
//! execution is bit-for-bit identical at every thread count.
//!
//! # Semantics
//!
//! * A node **crashed** at round `r` neither executes, sends, nor
//!   receives from the start of round `r` on; messages already in flight
//!   to it are counted as [`crate::Metrics::dead_on_arrival`].
//! * A node **recovered** at round `r` executes again from round `r`.
//!   Its protocol state persists while it is down (fail-recover with
//!   persistent memory); messages sent to it while it was down are lost.
//! * **Random churn** flips each node independently per round: an up
//!   node crashes with probability `crash_prob`, a down node recovers
//!   with probability `recover_prob`.
//!
//! # Example
//!
//! ```
//! use ftclust_graphs::NodeId;
//! use ftclust_netsim::{ChurnEvent, ChurnPlan};
//!
//! let plan = ChurnPlan::none()
//!     .crash(NodeId::new(3), 5)       // node 3 dies at round 5...
//!     .recover(NodeId::new(3), 9);    // ...and returns at round 9
//! assert_eq!(plan.scheduled_events().len(), 2);
//! assert!(plan.can_wake(NodeId::new(3), 6));
//! assert!(!plan.can_wake(NodeId::new(3), 10));
//! ```

use ftclust_graphs::NodeId;

/// One scheduled churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The node goes down at the start of the event's round.
    Crash,
    /// The node comes back up at the start of the event's round.
    Recover,
}

/// Parameters of seeded-random per-round churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomChurn {
    /// Per-round probability that an up node crashes.
    pub crash_prob: f64,
    /// Per-round probability that a down node recovers.
    pub recover_prob: f64,
}

/// A live-churn plan: scheduled crash/recovery events and seeded-random
/// churn.
///
/// Pass it to [`crate::Simulator::with_churn`], or to the executor
/// through [`crate::exec::Stack::churned`]. A crash-stop schedule is a
/// plan with crashes and no recoveries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnPlan {
    /// Scheduled events in insertion order; [`ChurnPlan::scheduled_events`]
    /// sorts them stably by round, so same-round events apply in plan
    /// order (later entries win).
    events: Vec<(u64, NodeId, ChurnEvent)>,
    random: Option<RandomChurn>,
}

impl ChurnPlan {
    /// A plan with no churn.
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// Schedules `node` to go down at the start of `round`.
    pub fn crash(mut self, node: NodeId, round: u64) -> Self {
        self.events.push((round, node, ChurnEvent::Crash));
        self
    }

    /// Schedules `node` to come back up at the start of `round`.
    pub fn recover(mut self, node: NodeId, round: u64) -> Self {
        self.events.push((round, node, ChurnEvent::Recover));
        self
    }

    /// Enables seeded-random churn: each round, every up node crashes
    /// with probability `crash_prob` and every down node recovers with
    /// probability `recover_prob` (decided on the shared fault stream, in
    /// node order — deterministic per master seed).
    ///
    /// # Panics
    ///
    /// Panics if either probability is not in `[0, 1]`.
    pub fn random_churn(mut self, crash_prob: f64, recover_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&crash_prob) && (0.0..=1.0).contains(&recover_prob),
            "churn probabilities must be in [0, 1], got {crash_prob} / {recover_prob}"
        );
        self.random = Some(RandomChurn {
            crash_prob,
            recover_prob,
        });
        self
    }

    /// The random-churn parameters, if enabled.
    pub fn random(&self) -> Option<RandomChurn> {
        self.random
    }

    /// The scheduled events, stably sorted by round (same-round events
    /// keep plan order, so the later entry wins when both hit one node).
    pub fn scheduled_events(&self) -> Vec<(u64, NodeId, ChurnEvent)> {
        let mut sorted = self.events.clone();
        sorted.sort_by_key(|&(round, _, _)| round);
        sorted
    }

    /// Returns `true` if `node`, down at `round`, could still come back:
    /// a recovery is scheduled at `round` or later, or random recovery is
    /// possible. Drives the simulator's quiescence check — a down node
    /// that can never wake is equivalent to a crash-stop failure.
    pub fn can_wake(&self, node: NodeId, round: u64) -> bool {
        if self.random.is_some_and(|rc| rc.recover_prob > 0.0) {
            return true;
        }
        self.events
            .iter()
            .any(|&(r, v, e)| v == node && e == ChurnEvent::Recover && r >= round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_has_no_churn() {
        let p = ChurnPlan::none();
        assert!(p.scheduled_events().is_empty());
        assert!(p.random().is_none());
        assert!(!p.can_wake(NodeId::new(0), 0));
    }

    #[test]
    fn events_sort_stably_by_round() {
        let p = ChurnPlan::none()
            .crash(NodeId::new(5), 7)
            .recover(NodeId::new(5), 7)
            .crash(NodeId::new(1), 2);
        let ev = p.scheduled_events();
        assert_eq!(ev[0], (2, NodeId::new(1), ChurnEvent::Crash));
        // Same-round events keep plan order: crash first, recover second.
        assert_eq!(ev[1], (7, NodeId::new(5), ChurnEvent::Crash));
        assert_eq!(ev[2], (7, NodeId::new(5), ChurnEvent::Recover));
    }

    #[test]
    fn can_wake_sees_future_recoveries_only() {
        let p = ChurnPlan::none()
            .crash(NodeId::new(1), 2)
            .recover(NodeId::new(1), 8);
        assert!(p.can_wake(NodeId::new(1), 3));
        assert!(p.can_wake(NodeId::new(1), 8));
        assert!(!p.can_wake(NodeId::new(1), 9));
        assert!(!p.can_wake(NodeId::new(2), 0));
        // Random recovery keeps everyone wakeable forever.
        let p = ChurnPlan::none().random_churn(0.0, 0.1);
        assert!(p.can_wake(NodeId::new(7), 1_000_000));
        // Random churn without recovery does not.
        let p = ChurnPlan::none().random_churn(0.1, 0.0);
        assert!(!p.can_wake(NodeId::new(7), 0));
    }

    #[test]
    #[should_panic(expected = "churn probabilities")]
    fn invalid_churn_probability_panics() {
        let _ = ChurnPlan::none().random_churn(1.5, 0.0);
    }
}
