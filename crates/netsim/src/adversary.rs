//! Deterministic adversarial delivery layer: reordering, duplication,
//! corruption, and scheduled group partitions.
//!
//! [`ChurnPlan`](crate::ChurnPlan) models the faults the paper argues
//! about — crash-stop nodes and i.i.d. message loss. Real radio networks
//! additionally produce **reordered** frames (multipath, MAC retries),
//! **duplicated** frames (a retry whose original also arrived),
//! **corrupted** payloads (interference flipping bits), and group-level
//! **partitions** (an obstacle or a jammed region cutting every link
//! between two sides at once). An [`AdversaryPlan`] injects all four,
//! composable into any executor [`Stack`](crate::exec::Stack) via
//! [`Stack::adversarial`](crate::exec::Stack::adversarial).
//!
//! # The four fault classes
//!
//! * **Delay jitter** ([`AdversaryPlan::jitter`]): an in-flight message is
//!   held back by `1..=max_delay` extra rounds before it is staged for
//!   delivery — messages from different rounds interleave at the receiver
//!   (cross-round reordering). The reliable transport's cumulative acks
//!   and out-of-order buffer absorb the reorder window; see
//!   `DESIGN.md` §14.
//! * **Duplication** ([`AdversaryPlan::duplicate`]): the network delivers
//!   an extra copy of a frame. The clone is real metered wire traffic
//!   (counted in [`Metrics::messages`](crate::Metrics::messages) and
//!   traced as a `Send` + `NetDuplicated` pair); the transport's per-link
//!   sequence numbers suppress it on arrival, counted in
//!   `net_duplicated` distinct from retransmit-induced duplicates.
//! * **Corruption** ([`AdversaryPlan::corrupt`]): payload bits are
//!   flipped in flight. The receiver's link-layer frame checksum detects
//!   the damage and erases the frame, so corruption behaves exactly as
//!   loss — but it is accounted separately
//!   ([`Metrics::corrupted`](crate::Metrics::corrupted)), extending the
//!   conservation law to `messages = delivered + dropped + DOA +
//!   corrupted + in_flight`.
//! * **Partitions** ([`AdversaryPlan::partition`]): during a half-open
//!   round window, *every* link between a node group and its complement
//!   is cut; this is the simulator's one link-cut schedule. Cut
//!   messages count as dropped. A partition outliving the
//!   transport's retransmit budget surfaces
//!   [`SimError::DeliveryFailed`](crate::SimError::DeliveryFailed)
//!   naming the cut link — never a hang.
//!
//! # Determinism
//!
//! Every probabilistic decision draws from a **per-link RNG stream**,
//! seeded from the plan seed and the directed link endpoints
//! (`splitmix64` mixing, same construction as
//! [`node_rng`](crate::node_rng)). The streams live in one flat table
//! addressed like the graph's CSR adjacency: one entry per directed slot
//! `u → v` (see [`Graph::slot_range`]), then one self-link entry per
//! node. An entry is seeded on its link's first draw, so a stream depends
//! on its endpoints alone, never on the order links were first used.
//!
//! Streams are consumed on the simulator's sequential merge path in
//! global sender order, so a run is byte-identical at every
//! `FTCLUST_THREADS` setting, and faults on one link never perturb the
//! draws of another. The merge finds each envelope's slot with a cursor
//! over the current sender's sorted neighbour row: senders emit mostly in
//! ascending receiver order, so the cursor first tries the entry after
//! its previous hit, and binary-searches only a receiver it skipped to or
//! went back to.

use crate::message::Envelope;
use crate::sim::splitmix64;
use crate::topology::seek;
use ftclust_graphs::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::ops::Range;

/// A scheduled group partition: for every round in `rounds`, all links
/// with exactly one endpoint in `side` are cut (both directions).
#[derive(Debug, Clone, PartialEq)]
struct Partition {
    /// Sorted, deduplicated raw node ids forming one side of the cut.
    side: Vec<u32>,
    /// Half-open active window `[start, end)` in physical rounds.
    rounds: Range<u64>,
}

impl Partition {
    fn cuts(&self, from: NodeId, to: NodeId, round: u64) -> bool {
        self.rounds.contains(&round)
            && (self.side.binary_search(&from.raw()).is_ok()
                != self.side.binary_search(&to.raw()).is_ok())
    }
}

/// A seeded, deterministic adversary schedule. Pure data — clone it into
/// as many runs as needed; each run derives its own per-link RNG streams
/// from the embedded seed.
///
/// The default plan injects nothing; a [`Stack`](crate::exec::Stack)
/// carrying it is bit-identical to one without an adversary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdversaryPlan {
    seed: u64,
    delay_prob: f64,
    max_delay: u64,
    duplicate_prob: f64,
    corrupt_prob: f64,
    partitions: Vec<Partition>,
}

impl AdversaryPlan {
    /// An adversary with its own seed and no faults configured.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        AdversaryPlan {
            seed,
            ..AdversaryPlan::default()
        }
    }

    /// Delays each message with probability `p` by a uniform
    /// `1..=max_delay` extra rounds, causing cross-round reordering at
    /// the receiver.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `p > 0` with
    /// `max_delay == 0`.
    #[must_use]
    pub fn jitter(mut self, p: f64, max_delay: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "delay probability must be in [0, 1], got {p}"
        );
        assert!(
            p == 0.0 || max_delay > 0,
            "delay jitter needs max_delay >= 1"
        );
        self.delay_prob = p;
        self.max_delay = max_delay;
        self
    }

    /// Duplicates each message with probability `p`: the receiver gets an
    /// extra network-level copy in addition to the original.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn duplicate(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability must be in [0, 1], got {p}"
        );
        self.duplicate_prob = p;
        self
    }

    /// Corrupts each message's payload with probability `p`; the
    /// receiver's checksum detects the damage and the frame is erased
    /// (counted as [`Metrics::corrupted`](crate::Metrics::corrupted)).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn corrupt(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "corrupt probability must be in [0, 1], got {p}"
        );
        self.corrupt_prob = p;
        self
    }

    /// Cuts every link between `side` and its complement for each round
    /// in the half-open window `rounds` — a scheduled group partition.
    #[must_use]
    pub fn partition(mut self, side: &[NodeId], rounds: Range<u64>) -> Self {
        let mut ids: Vec<u32> = side.iter().map(|v| v.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        self.partitions.push(Partition { side: ids, rounds });
        self
    }

    /// Whether this plan can inject any fault at all. A plan that cannot
    /// lets the simulator keep its fault-free fast paths.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.delay_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.corrupt_prob > 0.0
            || !self.partitions.is_empty()
    }

    /// Whether some partition cuts the directed link `from → to` at
    /// `round`.
    #[must_use]
    pub fn cuts(&self, from: NodeId, to: NodeId, round: u64) -> bool {
        self.partitions.iter().any(|p| p.cuts(from, to, round))
    }
}

/// What the adversary decided for one in-flight message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// A partition window cuts the link: the message is dropped.
    Cut,
    /// The payload was corrupted in flight: the message is erased and
    /// counted in `Metrics::corrupted`.
    Corrupt,
    /// The message goes through; `duplicate` requests an extra
    /// network-level copy and `delay > 0` holds the original back that
    /// many extra rounds.
    Deliver {
        /// Inject a network-level duplicate alongside the original.
        duplicate: bool,
        /// Extra rounds the original is held back (0 = on time).
        delay: u64,
    },
}

/// Runtime state of an adversary inside one simulator: the per-link RNG
/// streams and the delay queue of jittered envelopes. Consumed only on
/// the sequential merge path.
#[derive(Debug)]
pub(crate) struct AdversaryState<P> {
    plan: AdversaryPlan,
    /// Per-directed-link streams, one entry per CSR slot `u → v` and then
    /// one self-link entry per node (`slot_count + u`); `None` until the
    /// link's first draw seeds it.
    streams: Vec<Option<StdRng>>,
    /// The merge's place in its current sender's neighbour row.
    cursor: SlotCursor,
    /// Jittered envelopes keyed by the physical round at whose merge
    /// they are staged for (next-round) delivery.
    delayed: BTreeMap<u64, Vec<Envelope<P>>>,
    delayed_total: u64,
}

impl<P> AdversaryState<P> {
    /// The state of a run of `plan` over `graph`.
    pub(crate) fn new(plan: AdversaryPlan, graph: &Graph) -> Self {
        let mut streams = Vec::new();
        streams.resize_with(graph.slot_count() + graph.node_count(), || None);
        AdversaryState {
            plan,
            streams,
            cursor: SlotCursor::default(),
            delayed: BTreeMap::new(),
            delayed_total: 0,
        }
    }

    /// Decides the fate of one message `from → to` on the merge path of
    /// a run over `graph` (the state's own). Partition cuts are schedule
    /// lookups (no randomness); the probabilistic draws all come from the
    /// link's stream, in merge order.
    pub(crate) fn decide(
        &mut self,
        graph: &Graph,
        from: NodeId,
        to: NodeId,
        round: u64,
    ) -> Verdict {
        if self.plan.cuts(from, to, round) {
            return Verdict::Cut;
        }
        let slot = self.cursor.slot(graph, from, to);
        let seed = self.plan.seed;
        let rng = self.streams[slot]
            .get_or_insert_with(|| StdRng::seed_from_u64(link_stream_seed(seed, from, to)));
        if self.plan.corrupt_prob > 0.0 && rng.random::<f64>() < self.plan.corrupt_prob {
            return Verdict::Corrupt;
        }
        let duplicate =
            self.plan.duplicate_prob > 0.0 && rng.random::<f64>() < self.plan.duplicate_prob;
        let delay = if self.plan.delay_prob > 0.0 && rng.random::<f64>() < self.plan.delay_prob {
            rng.random_range(1..=self.plan.max_delay)
        } else {
            0
        };
        Verdict::Deliver { duplicate, delay }
    }

    /// Queues a jittered envelope to be staged at the merge of
    /// `due_round`.
    pub(crate) fn push_delayed(&mut self, due_round: u64, env: Envelope<P>) {
        self.delayed.entry(due_round).or_default().push(env);
        self.delayed_total += 1;
    }

    /// Takes every envelope due at (or before) `round`, in staging-round
    /// then insertion order — deterministic regardless of thread count.
    pub(crate) fn take_due(&mut self, round: u64) -> Vec<Envelope<P>> {
        let mut due: Vec<Envelope<P>> = Vec::new();
        while let Some(entry) = self.delayed.first_entry() {
            if *entry.key() > round {
                break;
            }
            let batch = entry.remove();
            // Usually one batch is due: hand over its buffer uncopied.
            if due.is_empty() {
                due = batch;
            } else {
                due.extend(batch);
            }
        }
        self.delayed_total -= due.len() as u64;
        due
    }

    /// Number of jittered envelopes still held back (they are in flight
    /// for the conservation law).
    pub(crate) fn delayed_total(&self) -> u64 {
        self.delayed_total
    }
}

/// The merge's position in the neighbour row of the sender it last
/// resolved a link for. A sender's envelopes mostly arrive in ascending
/// receiver order (broadcasts, per-link transport frames), so each lookup
/// starts where the previous one ended.
#[derive(Debug, Default)]
struct SlotCursor {
    sender: NodeId,
    pos: usize,
}

impl SlotCursor {
    /// The stream-table index of the link `from → to`: its CSR slot, or
    /// `slot_count + from` for a self-send.
    fn slot(&mut self, graph: &Graph, from: NodeId, to: NodeId) -> usize {
        if to == from {
            return graph.slot_count() + from.index();
        }
        if from != self.sender {
            self.sender = from;
            self.pos = 0;
        }
        let Some(pos) = seek(graph.neighbors(from), to, self.pos) else {
            unreachable!("Context::send only accepts neighbors");
        };
        self.pos = pos;
        graph.slot_range(from).start + pos
    }
}

/// Seed of the per-link stream for the directed link `from → to`:
/// `splitmix64` finalization over the plan seed and both endpoints, so
/// adjacent links get uncorrelated streams.
fn link_stream_seed(plan_seed: u64, from: NodeId, to: NodeId) -> u64 {
    let link = (u64::from(from.raw()) << 32) | u64::from(to.raw());
    splitmix64(plan_seed ^ splitmix64(link ^ 0xADF0_ADF0_ADF0_ADF0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclust_graphs::generators;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Every test link, self-links included, exists in this graph.
    fn k10() -> Graph {
        generators::complete(10)
    }

    #[test]
    fn default_plan_is_inert() {
        let plan = AdversaryPlan::new(7);
        assert!(!plan.is_active());
        let g = k10();
        let mut state: AdversaryState<()> = AdversaryState::new(plan, &g);
        for r in 0..20 {
            assert_eq!(
                state.decide(&g, n(0), n(1), r),
                Verdict::Deliver {
                    duplicate: false,
                    delay: 0
                }
            );
        }
        assert_eq!(state.delayed_total(), 0);
    }

    #[test]
    fn partitions_cut_exactly_the_crossing_links_in_window() {
        let plan = AdversaryPlan::new(0).partition(&[n(0), n(1)], 3..6);
        assert!(plan.is_active());
        for r in 3..6 {
            assert!(plan.cuts(n(0), n(2), r), "crossing link at round {r}");
            assert!(plan.cuts(n(2), n(1), r), "cut is symmetric in sides");
            assert!(!plan.cuts(n(0), n(1), r), "intra-side link survives");
        }
        assert!(!plan.cuts(n(0), n(2), 2), "window is half-open");
        assert!(!plan.cuts(n(0), n(2), 6));
    }

    #[test]
    fn decisions_replay_identically_per_link() {
        let g = k10();
        let make = || {
            AdversaryState::<()>::new(
                AdversaryPlan::new(11)
                    .jitter(0.4, 5)
                    .duplicate(0.3)
                    .corrupt(0.2),
                &g,
            )
        };
        let (mut a, mut b) = (make(), make());
        let verdicts_a: Vec<Verdict> = (0..200).map(|r| a.decide(&g, n(2), n(5), r)).collect();
        let verdicts_b: Vec<Verdict> = (0..200).map(|r| b.decide(&g, n(2), n(5), r)).collect();
        assert_eq!(verdicts_a, verdicts_b);
        // Mixed fates at these probabilities over 200 draws.
        assert!(verdicts_a.contains(&Verdict::Corrupt));
        assert!(verdicts_a.iter().any(|v| matches!(
            v,
            Verdict::Deliver {
                duplicate: true,
                ..
            }
        )));
        assert!(verdicts_a
            .iter()
            .any(|v| matches!(v, Verdict::Deliver { delay, .. } if *delay > 0)));
    }

    #[test]
    fn link_streams_are_independent() {
        // Interleaving draws on another link must not perturb this one.
        let plan = AdversaryPlan::new(3).corrupt(0.5);
        let g = k10();
        let mut solo: AdversaryState<()> = AdversaryState::new(plan.clone(), &g);
        let mut mixed: AdversaryState<()> = AdversaryState::new(plan, &g);
        let solo_run: Vec<Verdict> = (0..64).map(|r| solo.decide(&g, n(1), n(2), r)).collect();
        let mixed_run: Vec<Verdict> = (0..64)
            .map(|r| {
                let _ = mixed.decide(&g, n(2), n(1), r); // reverse direction interleaved
                mixed.decide(&g, n(1), n(2), r)
            })
            .collect();
        assert_eq!(solo_run, mixed_run);
    }

    #[test]
    fn link_streams_do_not_depend_on_first_use_order() {
        // Shared senders, shared receivers, both directions of one link
        // and a self-link: each stream must be keyed by its endpoints
        // alone, never shared, re-seeded or keyed by insertion order.
        let links = [(4, 1), (1, 4), (4, 9), (0, 9), (3, 3), (9, 0), (4, 0)];
        let plan = AdversaryPlan::new(21)
            .jitter(0.3, 4)
            .duplicate(0.3)
            .corrupt(0.3);
        let g = k10();
        let verdicts = |order: &[usize], round_robin: bool| {
            let mut state: AdversaryState<()> = AdversaryState::new(plan.clone(), &g);
            let mut seen = vec![Vec::new(); links.len()];
            let mut draw = |i: usize, r: u64| {
                let (from, to) = links[i];
                seen[i].push(state.decide(&g, n(from), n(to), r));
            };
            if round_robin {
                for r in 0..40 {
                    order.iter().for_each(|&i| draw(i, r));
                }
            } else {
                for &i in order {
                    (0..40).for_each(|r| draw(i, r));
                }
            }
            seen
        };
        let forward: Vec<usize> = (0..links.len()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        let base = verdicts(&forward, true);
        assert_eq!(base, verdicts(&backward, true));
        assert_eq!(base, verdicts(&backward, false));
        assert_eq!(base, verdicts(&[4, 0, 6, 2, 5, 3, 1], false));
        for (i, a) in base.iter().enumerate() {
            for b in &base[i + 1..] {
                assert_ne!(a, b, "two links share one verdict stream");
            }
        }
    }

    #[test]
    fn slot_cursor_resolves_every_send_order() {
        // Ascending, descending, repeated, skipping and self-sends, with
        // senders revisited: each lookup lands on the link's CSR slot,
        // self-links after the last slot.
        let g = generators::gnp(40, 0.4, 5);
        let mut cursor = SlotCursor::default();
        for u in (0..40).chain((0..40).rev()).map(n) {
            let row = g.neighbors(u);
            let sends = row
                .iter()
                .chain(row.iter().rev())
                .chain(row.first())
                .chain(row.first())
                .chain([&u])
                .chain(row.iter().step_by(3))
                .chain(row.last());
            for &v in sends {
                let expected = if v == u {
                    g.slot_count() + u.index()
                } else {
                    g.slot_of(u, v).unwrap()
                };
                assert_eq!(cursor.slot(&g, u, v), expected, "{u} → {v}");
            }
        }
    }

    #[test]
    fn lazily_seeded_streams_replay_their_link_seed() {
        // A link's verdicts are those of a fresh stream seeded from its
        // endpoints, whatever other links drew before it.
        let plan = AdversaryPlan::new(5)
            .jitter(0.5, 3)
            .duplicate(0.4)
            .corrupt(0.3);
        let g = k10();
        let mut state: AdversaryState<()> = AdversaryState::new(plan.clone(), &g);
        for r in 0..30 {
            let _ = state.decide(&g, n(7), n(2), r);
            let _ = state.decide(&g, n(6), n(5), r);
        }
        let replay = |from: u32, to: u32| {
            let mut rng = StdRng::seed_from_u64(link_stream_seed(plan.seed, n(from), n(to)));
            (0..30)
                .map(|_| {
                    if rng.random::<f64>() < plan.corrupt_prob {
                        return Verdict::Corrupt;
                    }
                    let duplicate = rng.random::<f64>() < plan.duplicate_prob;
                    let delay = if rng.random::<f64>() < plan.delay_prob {
                        rng.random_range(1..=plan.max_delay)
                    } else {
                        0
                    };
                    Verdict::Deliver { duplicate, delay }
                })
                .collect::<Vec<_>>()
        };
        for (from, to) in [(2, 7), (6, 6), (0, 9)] {
            let drawn: Vec<Verdict> = (0..30)
                .map(|r| state.decide(&g, n(from), n(to), r))
                .collect();
            assert_eq!(drawn, replay(from, to), "link {from} → {to}");
        }
    }

    #[test]
    fn delay_queue_orders_by_due_round_and_insertion() {
        let mut state: AdversaryState<u32> = AdversaryState::new(AdversaryPlan::new(0), &k10());
        let env = |p: u32| Envelope {
            from: n(0),
            to: n(1),
            payload: p,
        };
        state.push_delayed(5, env(50));
        state.push_delayed(3, env(30));
        state.push_delayed(3, env(31));
        assert_eq!(state.delayed_total(), 3);
        assert!(state.take_due(2).is_empty());
        let due: Vec<u32> = state.take_due(3).into_iter().map(|e| e.payload).collect();
        assert_eq!(due, vec![30, 31]);
        assert_eq!(state.delayed_total(), 1);
        let due: Vec<u32> = state.take_due(9).into_iter().map(|e| e.payload).collect();
        assert_eq!(due, vec![50]);
        assert_eq!(state.delayed_total(), 0);
    }

    #[test]
    #[should_panic(expected = "delay probability")]
    fn invalid_jitter_probability_panics() {
        let _ = AdversaryPlan::new(0).jitter(1.5, 3);
    }

    #[test]
    #[should_panic(expected = "max_delay")]
    fn jitter_without_delay_budget_panics() {
        let _ = AdversaryPlan::new(0).jitter(0.5, 0);
    }
}
