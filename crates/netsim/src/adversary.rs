//! Message faults: i.i.d. loss, and the adversary's reordering,
//! duplication, corruption and scheduled group partitions.
//!
//! The paper's model has two kinds of fault: nodes that crash, scheduled
//! by a [`ChurnPlan`](crate::ChurnPlan), and messages lost on a link,
//! the raw channel's i.i.d. loss ([`Stack::lossy`](crate::exec::Stack::lossy)
//! or [`Simulator::set_loss`](crate::Simulator::set_loss)). Real radio
//! networks additionally produce **reordered** frames (multipath, MAC
//! retries), **duplicated** frames (a retry whose original also
//! arrived), **corrupted** payloads (interference flipping bits), and
//! group-level **partitions** (an obstacle or a jammed region cutting
//! every link between two sides at once). An [`AdversaryPlan`] injects
//! all four, composable into any executor [`Stack`](crate::exec::Stack)
//! via [`Stack::adversarial`](crate::exec::Stack::adversarial).
//!
//! Loss and the adversary are one runtime fault state inside the
//! simulator, which decides each envelope once, on the sequential merge
//! path: it is dropped (by loss or a cut), corrupted, or delivered,
//! perhaps with a duplicate and perhaps late.
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
//! Loss is drawn first, from the simulator's shared fault stream (the
//! one random churn also draws from), and only while the loss rate is
//! positive; a lost envelope meets no partition check and draws from no
//! link. Every other probabilistic decision draws from a **per-link RNG
//! stream**, seeded from the plan seed and the directed link endpoints
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
//! draws of another. The merge searches for no slot: while an adversary
//! runs, each sender's context records every envelope's position in the
//! sender's neighbour row (the one [`Context::send`](crate::Context::send)
//! finds to check the recipient is a neighbour), and the slot is that
//! row's first slot plus the position.

use crate::message::Envelope;
use crate::node::SELF_LINK;
use crate::sim::splitmix64;
use ftclust_graphs::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
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
    /// is not installed, so the simulator keeps its fault-free fast paths.
    pub(crate) fn is_active(&self) -> bool {
        self.delay_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.corrupt_prob > 0.0
            || !self.partitions.is_empty()
    }

    /// The verdict on a message `from → to` sent in `round` that loss
    /// spared. A partition cut is a schedule lookup (no randomness).
    /// Corruption, duplication and delay draw, in that order, from the
    /// stream in `streams` of the link at `pos` in `from`'s neighbour row
    /// of `graph` ([`Context::send`](crate::Context::send) records it).
    // Kept out of the merge loop: see `FaultState::decide`.
    #[inline(never)]
    fn decide(
        &self,
        streams: &mut [Option<StdRng>],
        graph: &Graph,
        from: NodeId,
        to: NodeId,
        pos: Option<u32>,
        round: u64,
    ) -> Verdict {
        if self.partitions.iter().any(|p| p.cuts(from, to, round)) {
            return Verdict::Drop;
        }
        let Some(pos) = pos else {
            unreachable!("sends are positioned while an adversary runs");
        };
        let rng = streams[stream_slot(graph, from, pos)]
            .get_or_insert_with(|| StdRng::seed_from_u64(link_stream_seed(self.seed, from, to)));
        if self.corrupt_prob > 0.0 && rng.random::<f64>() < self.corrupt_prob {
            return Verdict::Corrupt;
        }
        let duplicate = self.duplicate_prob > 0.0 && rng.random::<f64>() < self.duplicate_prob;
        let delay = if self.delay_prob > 0.0 && rng.random::<f64>() < self.delay_prob {
            rng.random_range(1..=self.max_delay)
        } else {
            0
        };
        Verdict::Deliver { duplicate, delay }
    }
}

/// What the fault state decided for one in-flight message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The message is lost, to i.i.d. loss or to a partition cut:
    /// counted in `Metrics::dropped_messages`.
    Drop,
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

/// Runtime fault state of one simulator: the raw channel's i.i.d. loss
/// rate, the adversary with its per-link RNG streams, and the delay queue
/// of jittered envelopes. Consumed only on the sequential merge path.
#[derive(Debug)]
pub(crate) struct FaultState<P> {
    /// Per-message loss probability, drawn from the simulator's shared
    /// fault stream.
    loss: f64,
    /// The adversary; `None` until an active plan is installed, so a
    /// loss-only run records no link positions and holds no streams.
    plan: Option<AdversaryPlan>,
    /// Per-directed-link streams, one entry per CSR slot `u → v` and then
    /// one self-link entry per node (`slot_count + u`); `None` until the
    /// link's first draw seeds it.
    streams: Vec<Option<StdRng>>,
    /// Jittered envelopes by the physical round at whose merge they are
    /// staged for (next-round) delivery: bucket `i` holds round
    /// `base + i`, in insertion order. A staged bucket goes to the back
    /// empty, so the buffers go round and round; the ring starts with
    /// one bucket and grows to the longest delay drawn.
    delayed: VecDeque<Vec<Envelope<P>>>,
    /// The round of the front bucket: the next one to be staged.
    base: u64,
    delayed_total: u64,
}

impl<P> FaultState<P> {
    /// A state that injects nothing yet, for a run whose next round is
    /// `round`.
    pub(crate) fn new(round: u64) -> Self {
        FaultState {
            loss: 0.0,
            plan: None,
            streams: Vec::new(),
            delayed: VecDeque::from([Vec::new()]),
            base: round,
            delayed_total: 0,
        }
    }

    /// Sets the i.i.d. loss probability.
    pub(crate) fn set_loss(&mut self, p: f64) {
        self.loss = p;
    }

    /// Installs `plan` over `graph` with fresh per-link streams.
    pub(crate) fn set_plan(&mut self, plan: AdversaryPlan, graph: &Graph) {
        self.streams.clear();
        self.streams
            .resize_with(graph.slot_count() + graph.node_count(), || None);
        self.plan = Some(plan);
    }

    /// Whether a decision needs each send's link position: only the
    /// adversary's per-link draws read it.
    pub(crate) fn needs_positions(&self) -> bool {
        self.plan.is_some()
    }

    /// Decides the fate of one message `from → to` sent in `round`, on
    /// the merge path. Loss comes first, drawn from the shared
    /// `fault_rng` only while the loss rate is positive; a message it
    /// spares goes to the adversary, if any ([`AdversaryPlan::decide`]).
    // Only the loss draw is inlined into the merge loop. With all of the
    // decision out of line a `lossy-chaos` solve ran 1.5% slower; with
    // all of it inline, a `udg-sensor` solve, which never calls it, did.
    #[inline]
    pub(crate) fn decide(
        &mut self,
        fault_rng: &mut StdRng,
        graph: &Graph,
        from: NodeId,
        to: NodeId,
        pos: Option<u32>,
        round: u64,
    ) -> Verdict {
        if self.loss > 0.0 && fault_rng.random::<f64>() < self.loss {
            return Verdict::Drop;
        }
        match &self.plan {
            Some(plan) => plan.decide(&mut self.streams, graph, from, to, pos, round),
            None => Verdict::Deliver {
                duplicate: false,
                delay: 0,
            },
        }
    }

    /// Queues a jittered envelope to be staged at the merge of
    /// `due_round`, a round not staged yet.
    pub(crate) fn push_delayed(&mut self, due_round: u64, env: Envelope<P>) {
        debug_assert!(due_round >= self.base, "round {due_round} was staged");
        let i = (due_round - self.base) as usize;
        if i >= self.delayed.len() {
            self.delayed.resize_with(i + 1, Vec::new);
        }
        self.delayed[i].push(env);
        self.delayed_total += 1;
    }

    /// Passes every envelope due at (or before) `round` to `stage`, in
    /// staging-round then insertion order — deterministic regardless of
    /// thread count. The simulator stages every round, so one bucket is
    /// due.
    pub(crate) fn stage_due(&mut self, round: u64, mut stage: impl FnMut(Envelope<P>)) {
        while self.base <= round {
            let Some(mut due) = self.delayed.pop_front() else {
                unreachable!("the ring always holds a bucket");
            };
            self.delayed_total -= due.len() as u64;
            due.drain(..).for_each(&mut stage);
            self.delayed.push_back(due);
            self.base += 1;
        }
    }

    /// Number of jittered envelopes still held back (they are in flight
    /// for the conservation law).
    pub(crate) fn delayed_total(&self) -> u64 {
        self.delayed_total
    }
}

/// The stream-table index of `from`'s link to its neighbour number `pos`
/// (a position in `graph.neighbors(from)`): its CSR slot, or
/// `slot_count + from` for [`SELF_LINK`], the self-link.
pub(crate) fn stream_slot(graph: &Graph, from: NodeId, pos: u32) -> usize {
    if pos == SELF_LINK {
        graph.slot_count() + from.index()
    } else {
        graph.slot_range(from).start + pos as usize
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
pub(crate) mod tests {
    use super::*;
    use ftclust_graphs::generators;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Every test link, self-links included, exists in this graph.
    fn k10() -> Graph {
        generators::complete(10)
    }

    /// A loss-free state running `plan` over `graph` from round 0.
    pub(crate) fn installed<P>(plan: AdversaryPlan, graph: &Graph) -> FaultState<P> {
        let mut state = FaultState::new(0);
        state.set_plan(plan, graph);
        state
    }

    /// `state`'s verdict on one message `from → to` of a run over
    /// `graph`, its link found by searching `from`'s neighbour row.
    pub(crate) fn decide_link<P>(
        state: &mut FaultState<P>,
        graph: &Graph,
        from: NodeId,
        to: NodeId,
        round: u64,
    ) -> Verdict {
        let pos = if from == to {
            SELF_LINK
        } else {
            let Ok(pos) = graph.neighbors(from).binary_search(&to) else {
                unreachable!("{from} → {to} is no link");
            };
            pos as u32
        };
        // A loss-free state draws nothing from the shared stream.
        let mut shared = StdRng::seed_from_u64(0);
        state.decide(&mut shared, graph, from, to, Some(pos), round)
    }

    #[test]
    fn default_plan_is_inert() {
        let plan = AdversaryPlan::new(7);
        assert!(!plan.is_active());
        let g = k10();
        let mut state: FaultState<()> = installed(plan, &g);
        for r in 0..20 {
            assert_eq!(
                decide_link(&mut state, &g, n(0), n(1), r),
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
        let cut = &plan.partitions[0];
        for r in 3..6 {
            assert!(cut.cuts(n(0), n(2), r), "crossing link at round {r}");
            assert!(cut.cuts(n(2), n(1), r), "cut is symmetric in sides");
            assert!(!cut.cuts(n(0), n(1), r), "intra-side link survives");
        }
        assert!(!cut.cuts(n(0), n(2), 2), "window is half-open");
        assert!(!cut.cuts(n(0), n(2), 6));
    }

    #[test]
    fn decisions_replay_identically_per_link() {
        let g = k10();
        let make = || {
            installed::<()>(
                AdversaryPlan::new(11)
                    .jitter(0.4, 5)
                    .duplicate(0.3)
                    .corrupt(0.2),
                &g,
            )
        };
        let (mut a, mut b) = (make(), make());
        let verdicts_a: Vec<Verdict> = (0..200)
            .map(|r| decide_link(&mut a, &g, n(2), n(5), r))
            .collect();
        let verdicts_b: Vec<Verdict> = (0..200)
            .map(|r| decide_link(&mut b, &g, n(2), n(5), r))
            .collect();
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
        let mut solo: FaultState<()> = installed(plan.clone(), &g);
        let mut mixed: FaultState<()> = installed(plan, &g);
        let solo_run: Vec<Verdict> = (0..64)
            .map(|r| decide_link(&mut solo, &g, n(1), n(2), r))
            .collect();
        let mixed_run: Vec<Verdict> = (0..64)
            .map(|r| {
                let _ = decide_link(&mut mixed, &g, n(2), n(1), r); // reverse direction interleaved
                decide_link(&mut mixed, &g, n(1), n(2), r)
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
            let mut state: FaultState<()> = installed(plan.clone(), &g);
            let mut seen = vec![Vec::new(); links.len()];
            let mut draw = |i: usize, r: u64| {
                let (from, to) = links[i];
                seen[i].push(decide_link(&mut state, &g, n(from), n(to), r));
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
    fn recorded_positions_resolve_every_send_order() {
        // Ascending, descending, repeated, skipping and self-sends, with
        // senders revisited: each recorded position lands on the link's
        // CSR slot, self-links after the last slot.
        let g = generators::gnp(40, 0.4, 5);
        for u in (0..40).chain((0..40).rev()).map(n) {
            let row = g.neighbors(u);
            let positions = (0..row.len())
                .chain((0..row.len()).rev())
                .chain([0, 0])
                .map(|p| p as u32)
                .chain([SELF_LINK])
                .chain((0..row.len()).step_by(3).map(|p| p as u32))
                .chain(row.len().checked_sub(1).map(|p| p as u32));
            for pos in positions {
                let (v, expected) = if pos == SELF_LINK {
                    (u, g.slot_count() + u.index())
                } else {
                    let v = row[pos as usize];
                    (v, g.slot_of(u, v).unwrap())
                };
                assert_eq!(stream_slot(&g, u, pos), expected, "{u} → {v}");
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
        let mut state: FaultState<()> = installed(plan.clone(), &g);
        for r in 0..30 {
            let _ = decide_link(&mut state, &g, n(7), n(2), r);
            let _ = decide_link(&mut state, &g, n(6), n(5), r);
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
                .map(|r| decide_link(&mut state, &g, n(from), n(to), r))
                .collect();
            assert_eq!(drawn, replay(from, to), "link {from} → {to}");
        }
    }

    #[test]
    fn loss_is_drawn_first_and_only_while_positive() {
        // Lost envelopes, on a cut link and an open one, advance the
        // shared stream once each and seed no link stream; without loss
        // the shared stream is left alone, and the cut still drops.
        let g = k10();
        let plan = AdversaryPlan::new(2).corrupt(0.5).partition(&[n(0)], 0..5);
        let mut state: FaultState<()> = installed(plan, &g);
        let (mut shared, mut replay) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(1));
        state.set_loss(1.0);
        for r in 0..6 {
            for (from, to, pos) in [(0, 1, 0), (1, 2, 1)] {
                let verdict = state.decide(&mut shared, &g, n(from), n(to), Some(pos), r);
                assert_eq!(verdict, Verdict::Drop, "{from} → {to} at round {r}");
                let _ = replay.random::<f64>();
            }
        }
        assert!(
            state.streams.iter().all(Option::is_none),
            "a lost envelope drew"
        );
        state.set_loss(0.0);
        let cut = state.decide(&mut shared, &g, n(0), n(1), Some(0), 4);
        assert_eq!(cut, Verdict::Drop);
        let _ = state.decide(&mut shared, &g, n(1), n(2), Some(1), 6);
        assert_eq!(shared.random::<u64>(), replay.random::<u64>());
    }

    #[test]
    fn delay_queue_orders_by_due_round_and_insertion() {
        let mut state: FaultState<u32> = FaultState::new(0);
        let env = |p: u32| Envelope {
            from: n(0),
            to: n(1),
            payload: p,
        };
        state.push_delayed(5, env(50));
        state.push_delayed(3, env(30));
        state.push_delayed(3, env(31));
        assert_eq!(state.delayed_total(), 3);
        let take_due = |state: &mut FaultState<u32>, round| {
            let mut due = Vec::new();
            state.stage_due(round, |e| due.push(e.payload));
            due
        };
        assert!(take_due(&mut state, 2).is_empty());
        let due: Vec<u32> = take_due(&mut state, 3);
        assert_eq!(due, vec![30, 31]);
        assert_eq!(state.delayed_total(), 1);
        let due: Vec<u32> = take_due(&mut state, 9);
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
