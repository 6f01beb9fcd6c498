use serde::{Deserialize, Serialize};

/// Communication-cost metrics collected during a simulation.
///
/// These are the quantities the paper's theorems bound: round complexity
/// (Theorems 4.5 and 5.7) and message size in bits (the `O(log n)` model
/// restriction, Section 3).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Rounds executed until quiescence (or until the simulation stopped).
    pub rounds: u64,
    /// Total messages sent (dropped messages count as sent).
    pub messages: u64,
    /// Sum of [`crate::Payload::bit_size`] over all sent messages.
    pub total_bits: u64,
    /// Largest single message, in bits. `u64` like every sibling counter,
    /// so serialized `Metrics` agree across 32- and 64-bit targets.
    pub max_message_bits: u64,
    /// Messages sent per round, for time-series experiments: one entry
    /// per round.
    pub per_round_messages: Vec<u64>,
    /// Bits sent per round (the communication-volume time series).
    pub per_round_bits: Vec<u64>,
    /// Number of messages lost to fault injection (random loss or an
    /// [`AdversaryPlan::partition`](crate::AdversaryPlan::partition)
    /// cut).
    pub dropped_messages: u64,
    /// Messages handed to a live recipient's inbox. A message is counted
    /// when its delivery round starts, whether or not the recipient's
    /// logic still executes (a halted node still receives).
    pub delivered_messages: u64,
    /// Messages whose recipient was down when their delivery round
    /// started. Together with the other counters this closes the
    /// conservation law `messages == delivered_messages +
    /// dropped_messages + dead_on_arrival + in-flight`.
    pub dead_on_arrival: u64,
    /// Frames re-sent by a reliable transport ([`crate::transport`])
    /// after a timeout. Every retransmission is also an ordinary send, so
    /// it is *included* in [`Metrics::messages`]; this counter isolates
    /// the overhead.
    pub retransmits: u64,
    /// Pure acknowledgment frames sent by a reliable transport (carrying
    /// no protocol payload). Also included in [`Metrics::messages`].
    pub acks: u64,
    /// Delivered frames a reliable transport discarded as duplicates of
    /// data it had already received (the flip side of a retransmission
    /// whose original also survived, or of a network-level duplicate
    /// injected by an adversary — see [`Metrics::net_duplicated`]).
    /// Included in [`Metrics::delivered_messages`]; subtracting them
    /// yields [`Metrics::unique_delivered`].
    pub duplicates_suppressed: u64,
    /// Messages erased in flight by adversarial payload corruption
    /// ([`crate::adversary`]): the receiver's link-layer checksum detects
    /// the damage and discards the frame, so corruption behaves as loss —
    /// but it is counted separately from [`Metrics::dropped_messages`]
    /// because it is an adversary-facing fault, not a channel fault. The
    /// conservation law extends to `messages == delivered_messages +
    /// dropped_messages + dead_on_arrival + corrupted + in-flight`.
    pub corrupted: u64,
    /// Frame clones injected by adversarial network-level duplication
    /// ([`crate::adversary`]). Each clone is also an ordinary send (it is
    /// metered wire traffic, so it is *included* in [`Metrics::messages`]
    /// and flows through delivery accounting like any frame); this
    /// counter isolates the adversary's contribution, distinct from
    /// retransmit-induced duplicates. With a reliable transport in play
    /// the duplicate bound relaxes to `duplicates_suppressed <=
    /// retransmits + net_duplicated`.
    pub net_duplicated: u64,
}

impl Metrics {
    /// Mean message size in bits (0 if nothing was sent).
    pub fn mean_message_bits(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.messages as f64
        }
    }

    /// Delivered messages that were *new* to their recipient: delivered
    /// minus transport duplicates. With a reliable transport in play the
    /// conservation law refines to
    /// `messages == unique_delivered() + duplicates_suppressed +
    /// dropped_messages + dead_on_arrival + corrupted + in-flight`,
    /// with `duplicates_suppressed <= retransmits + net_duplicated`
    /// (only a retransmission or an adversary-injected clone can produce
    /// a duplicate) and `retransmits + acks <= messages` (both kinds of
    /// overhead frame are ordinary sends).
    ///
    /// Every duplicate is counted as delivered in the same round it is
    /// suppressed ([`crate::Context`]'s `note_duplicate_suppressed` is
    /// only reachable from a frame that already landed in an inbox), so
    /// `duplicates_suppressed <= delivered_messages` holds **per round**
    /// for counters this crate produced — not just at quiescence. The
    /// subtraction is therefore plain: a saturating fallback here would
    /// silently mask an accounting bug as "0 unique deliveries" instead
    /// of surfacing it. The invariant is `debug_assert`ed and pinned by
    /// a loss + churn regression test in `crates/netsim/tests`.
    pub fn unique_delivered(&self) -> u64 {
        debug_assert!(
            self.duplicates_suppressed <= self.delivered_messages,
            "more duplicates suppressed ({}) than messages delivered ({})",
            self.duplicates_suppressed,
            self.delivered_messages
        );
        self.delivered_messages - self.duplicates_suppressed
    }

    /// Folds one shard's transport counters into the totals. Sums are
    /// commutative, so accumulation order cannot perturb determinism —
    /// the simulator still merges shards in index order.
    pub(crate) fn absorb_transport(&mut self, c: &TransportCounters) {
        self.retransmits += c.retransmits;
        self.acks += c.acks;
        self.duplicates_suppressed += c.duplicates_suppressed;
    }

    /// Meters `count` messages totaling `bits`, the largest `max_bits`,
    /// all sent in the current round. Every send is metered through
    /// here: the merge folds a round's sends, so the totals, the maximum
    /// and the per-round series are exactly those of metering each
    /// message on its own.
    pub(crate) fn record_sends(&mut self, count: u64, bits: u64, max_bits: u64) {
        if count == 0 {
            return;
        }
        // A send outside any round would vanish from the per-round series
        // and break `sum(per_round_messages) == messages`.
        debug_assert!(
            self.rounds > 0,
            "record_send before begin_round loses per-round accounting"
        );
        self.messages += count;
        self.total_bits += bits;
        self.max_message_bits = self.max_message_bits.max(max_bits);
        if let Some(last) = self.per_round_messages.last_mut() {
            *last += count;
        }
        if let Some(last) = self.per_round_bits.last_mut() {
            *last += bits;
        }
    }

    pub(crate) fn begin_round(&mut self) {
        self.rounds += 1;
        self.per_round_messages.push(0);
        self.per_round_bits.push(0);
    }
}

/// Per-shard transport event counters, reported by a reliability layer
/// through [`crate::Context`]'s `note_*` methods during the parallel
/// node-logic phase and folded into [`Metrics`] on the sequential path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TransportCounters {
    pub(crate) retransmits: u64,
    pub(crate) acks: u64,
    pub(crate) duplicates_suppressed: u64,
}

impl TransportCounters {
    pub(crate) fn clear(&mut self) {
        *self = TransportCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_accumulates() {
        let mut m = Metrics::default();
        m.begin_round();
        m.record_sends(1, 10, 10);
        m.record_sends(1, 30, 30);
        assert_eq!(m.messages, 2);
        assert_eq!(m.total_bits, 40);
        assert_eq!(m.max_message_bits, 30);
        assert_eq!(m.mean_message_bits(), 20.0);
        assert_eq!(m.per_round_messages, vec![2]);
        assert_eq!(m.per_round_bits, vec![40]);
    }

    #[test]
    fn empty_metrics_mean_is_zero() {
        assert_eq!(Metrics::default().mean_message_bits(), 0.0);
    }

    #[test]
    fn mean_stays_zero_over_silent_rounds() {
        // Rounds without traffic must not divide by zero or skew the mean.
        let mut m = Metrics::default();
        m.begin_round();
        m.begin_round();
        assert_eq!(m.messages, 0);
        assert_eq!(m.mean_message_bits(), 0.0);
        assert_eq!(m.per_round_messages, vec![0, 0]);
        assert_eq!(m.per_round_bits, vec![0, 0]);
    }

    #[test]
    fn per_round_series_tracks_rounds() {
        let mut m = Metrics::default();
        m.begin_round();
        m.record_sends(1, 1, 1);
        m.begin_round();
        assert_eq!(m.rounds, 2);
        assert_eq!(m.per_round_messages, vec![1, 0]);
        assert_eq!(m.per_round_bits, vec![1, 0]);
    }

    #[test]
    fn transport_counters_fold_into_totals() {
        let mut m = Metrics::default();
        m.begin_round();
        m.record_sends(1, 4, 4);
        m.record_sends(1, 4, 4);
        m.delivered_messages = 2;
        let shard_a = TransportCounters {
            retransmits: 1,
            acks: 2,
            duplicates_suppressed: 1,
        };
        let shard_b = TransportCounters {
            retransmits: 3,
            acks: 0,
            duplicates_suppressed: 0,
        };
        m.absorb_transport(&shard_a);
        m.absorb_transport(&shard_b);
        assert_eq!(m.retransmits, 4);
        assert_eq!(m.acks, 2);
        assert_eq!(m.duplicates_suppressed, 1);
        assert_eq!(m.unique_delivered(), 1);
        let mut c = shard_a;
        c.clear();
        assert_eq!(c, TransportCounters::default());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "more duplicates suppressed")]
    fn unique_delivered_flags_inconsistent_counters() {
        // Externally constructed counters can violate the delivered >=
        // duplicates invariant; the accessor must flag the inconsistency
        // loudly instead of masking it with a saturating subtraction.
        let m = Metrics {
            delivered_messages: 3,
            duplicates_suppressed: 5,
            ..Metrics::default()
        };
        let _ = m.unique_delivered();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "record_send before begin_round")]
    fn send_before_any_round_is_rejected() {
        let mut m = Metrics::default();
        m.record_sends(1, 8, 8);
    }
}
