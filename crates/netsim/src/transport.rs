//! Reliable per-link transport: correct protocol execution over lossy
//! links.
//!
//! The paper's model (and [`crate::Simulator`]) assumes reliable
//! synchronous delivery, but [`crate::ChurnPlan`] and
//! [`crate::AdversaryPlan`] inject exactly the faults real sensor links
//! exhibit — i.i.d. message loss and transient partitions — under which
//! a bare protocol run silently computes a wrong (possibly infeasible)
//! result. This module closes that gap with a
//! classic ARQ layer, [`Reliable`], that wraps any [`NodeLogic`] and
//! executes it **bit-for-bit identically to a lossless run** as long as
//! every frame eventually gets through:
//!
//! * each executed round of the wrapped ("inner") logic produces one
//!   **frame** per link, tagged with a per-link sequence number (the
//!   inner round number) and a halting flag,
//! * receivers acknowledge **cumulatively**; acks piggyback on data
//!   frames and fall back to pure ack frames when a node has no data to
//!   send,
//! * senders retransmit the oldest unacknowledged frame on a
//!   deterministic timeout with bounded exponential backoff
//!   ([`TransportConfig::rto`] doubling up to
//!   [`TransportConfig::backoff_cap`]),
//! * a frame that stays unacknowledged after
//!   [`TransportConfig::max_retransmits`] retransmissions is a **delivery
//!   failure**: the node halts and [`crate::exec::Executor::run`]
//!   surfaces [`SimError::DeliveryFailed`] naming the link, the sequence
//!   number and the attempt count — loss beyond the budget is an error,
//!   never a silent wrong answer.
//!
//! Run a protocol over the transport with
//! [`crate::exec::Executor`] and a [`crate::exec::Stack`] that engages
//! it (`.transport(cfg)`, or `.lossy(p)` with `p > 0`).
//!
//! # Logical vs physical rounds
//!
//! The transport virtualizes time. The inner logic advances to logical
//! round `r` only when the round-`(r - 1)` frame from every non-halted
//! neighbor has arrived (the α-synchronizer condition, executed here on
//! the round-driven simulator so timeouts can fire); each physical
//! simulator round advances the inner logic by at most one logical round.
//! The inner context reports the **logical** round, reconstructs the
//! exact synchronous inbox (senders in id order, self-sends included —
//! self-sends never touch the wire), and hands the inner logic its
//! unchanged per-node RNG stream. Since the transport itself draws no
//! randomness, the inner execution trace — every draw, every branch,
//! every output — equals the lossless run's, at every `FTCLUST_THREADS`
//! setting. Loss only stretches physical time and adds metered overhead
//! frames.
//!
//! # Asynchronous networks
//!
//! [`Reliable`] is the repository's one α-synchronizer (Awerbuch's
//! reduction, which Section 3 of the paper invokes to carry synchronous
//! algorithms to asynchronous networks). An asynchronous network with
//! delay bound `d` is the transport with every frame delayed by a
//! random `1..=d` rounds:
//!
//! ```text
//! Stack::new()
//!     .transport(cfg)
//!     .adversarial(AdversaryPlan::new(seed).jitter(1.0, d))
//! ```
//!
//! The inner execution is that of the synchronous run, whatever the
//! delays. Only the timeout needs sizing: a frame and its ack each take
//! up to `d + 1` rounds, so a timeout of `2·(d + 1) + 1` rounds never
//! fires on a frame that is merely late:
//!
//! ```text
//! let rto = 2 * (d + 1) + 1;
//! let cfg = TransportConfig { rto, backoff_cap: rto.max(16), max_retransmits: 20 };
//! ```
//!
//! A smaller `rto` (the default is 3) still gives the same result, but
//! resends late frames spuriously. Loss, corruption, duplication,
//! partitions and tracing compose with the jitter as with any other
//! transport run.
//!
//! # Termination
//!
//! Reliable *distributed* termination over lossy links is the
//! two-generals problem: no node can ever learn for certain that its
//! final acknowledgment arrived, so any node that withdraws after a
//! finite quiet period can strand a peer whose retries all happened to
//! be lost. The transport sidesteps the dilemma by splitting the
//! decision. A node reports [`Reliable::done`] once its inner logic has
//! halted, every frame it ever sent is acknowledged, and every
//! neighbor's halting frame has been received — all facts it *knows*
//! from received frames, never inferred from timeouts — but it stays in
//! the network, re-acknowledging retransmissions indefinitely (only
//! isolated nodes halt on their own). The executor's transport path,
//! which observes every node, stops the simulation once **all** nodes
//! are done: global knowledge that no protocol frame can still be
//! needed. A frame
//! therefore fails only when its retransmit budget is genuinely
//! exhausted — reported as a (deterministic, seeded)
//! [`SimError::DeliveryFailed`] rather than a hang or a stranded peer.
//!
//! # What the transport masks
//!
//! The transport masks **message** loss (drops, partition windows); it
//! does not mask *node* crashes — a frame addressed to a crashed node that
//! never recovers exhausts its budget and fails. Run crash-tolerant
//! protocols on the surviving topology instead (see
//! `ftclust_core::repair`).
//!
//! Under an adversarial delivery layer (see [`crate::adversary`]) the
//! ARQ machinery is exactly what the faults exercise: corruption is
//! erased by the frame checksum and retransmitted like loss, network
//! duplicates are suppressed by the per-link sequence numbers (counted
//! in [`crate::Metrics::net_duplicated`]), delay jitter is absorbed by
//! the out-of-order buffer and cumulative acks, and a partition
//! outliving the retransmit budget surfaces [`SimError::DeliveryFailed`]
//! naming the cut link — never a hang.
//!
//! # CONGEST accounting
//!
//! Frames are first-class metered messages: a frame carries the bundled
//! payloads plus a header of two counters and two flags
//! ([`FrameMsg::bit_size`]), so header overhead is `O(log R)` bits for
//! `R` executed rounds — within the `O(log n)` regime for every
//! polylogarithmic-round protocol in this repository. Retransmissions,
//! pure acks and suppressed duplicates are tallied into
//! [`crate::Metrics::retransmits`], [`crate::Metrics::acks`] and
//! [`crate::Metrics::duplicates_suppressed`], refining the conservation
//! law (see [`crate::Metrics::unique_delivered`]).
//!
//! # What a frame costs
//!
//! A frame's bookkeeping is sized to what it carries:
//!
//! * its payloads travel as a [`Bundle`], which stores zero or one
//!   payload in place and allocates only for two or more, so cloning a
//!   frame on send, retransmit and receipt is usually a payload copy;
//! * whether a pass sends fresh frames is one node-level flag (the inner
//!   logic executed a round since the last pass), not a per-link queue
//!   check;
//! * only a fresh frame or a due retransmit timer takes a pass over every
//!   link. A round that owes nothing but pure acks visits just the links
//!   that received data, in ascending link order, and a round that owes
//!   nothing visits no link at all;
//! * frames are addressed by neighbor position. An arriving frame's
//!   position is looked up in the node's sorted neighbor ids, trying the
//!   one after the previous frame's first, so no edge lookup is repeated
//!   per frame. The inner logic's messages reach their link's bundle by
//!   the position its context recorded when they were sent;
//! * a link keeps its first two unacked frames and its first two
//!   received bundles in place, and while both ends run it never holds
//!   more. A node executes logical round `r` only after its peer's frame
//!   `r - 1`; the peer sent that frame after receiving the node's frame
//!   `r - 2`, so it acks everything below `r - 1`, and only frames
//!   `r - 1` and `r` stay unacked. Likewise the peer cannot send frame
//!   `s` before the node's frame `s - 1`, so while the node waits to
//!   execute round `r` at most the peer's bundles `r - 1` and `r` have
//!   arrived;
//! * the one case past two is a peer that halted: the node stops waiting
//!   for it, the peer answers with pure acks only, and when those are
//!   lost the node's frames to it pile up. They spill to a heap queue,
//!   allocated only then;
//! * once a node's inner logic has halted, an arriving frame still
//!   updates the sequence state (next expected sequence, buffered
//!   out-of-order sequence numbers, duplicate counting, the peer's
//!   halting sequence) and is acked, but its payloads are not copied:
//!   nothing reads them;
//! * a round with nothing queued, no ack owed and an inner logic that is
//!   halted or cannot execute returns [`Control::Idle`] until the
//!   earliest retransmit timer, so the simulator does not call the node
//!   again before a frame arrives or that timer is due. `can_execute`
//!   resumes its link scan where it last stopped: a link that holds what
//!   the next logical round needs keeps it until that round runs.
//!
//! None of this moves a frame: the schedule, every RNG draw and every
//! metric are those of a pass over all links in every round with `Vec`
//! bundles and heap queues.
//!
//! The lossless path is untouched: a simulation without [`Reliable`] (and
//! a [`Reliable`] one without loss) behaves exactly as before — the
//! transport is pure opt-in.

use crate::node::{Outlet, SELF_LINK};
use crate::topology::seek;
use crate::{bits_for_ids, Context, Control, Envelope, Inbox, NodeLogic, Payload, SimError};
use ftclust_graphs::NodeId;
use std::collections::VecDeque;
use std::iter::Chain;
use std::{option, vec};

/// The inner protocol messages one logical round sends over one link.
///
/// Almost every bundle of a broadcast protocol holds zero or one
/// payload, so those are stored in place; only a bundle of two or more
/// allocates. A frame is cloned on every send, receive and retransmit,
/// and for the common shapes that clone is the payload's own.
#[derive(Debug, Clone, PartialEq)]
pub struct Bundle<P>(Slots<P>);

#[derive(Debug, Clone, PartialEq)]
enum Slots<P> {
    Empty,
    One(P),
    /// Two or more payloads, in push order.
    Many(Vec<P>),
}

impl<P> Default for Bundle<P> {
    fn default() -> Self {
        Bundle(Slots::Empty)
    }
}

impl<P> Bundle<P> {
    /// Appends `payload` after the ones already in the bundle.
    pub fn push(&mut self, payload: P) {
        self.0 = match std::mem::replace(&mut self.0, Slots::Empty) {
            Slots::Empty => Slots::One(payload),
            Slots::One(first) => Slots::Many(vec![first, payload]),
            Slots::Many(mut all) => {
                all.push(payload);
                Slots::Many(all)
            }
        };
    }

    /// The payloads in push order.
    pub fn as_slice(&self) -> &[P] {
        match &self.0 {
            Slots::Empty => &[],
            Slots::One(p) => std::slice::from_ref(p),
            Slots::Many(all) => all,
        }
    }
}

impl<P> IntoIterator for Bundle<P> {
    type Item = P;
    type IntoIter = Chain<option::IntoIter<P>, vec::IntoIter<P>>;

    /// The payloads by value, in push order.
    fn into_iter(self) -> Self::IntoIter {
        let (first, rest) = match self.0 {
            Slots::Empty => (None, Vec::new()),
            Slots::One(p) => (Some(p), Vec::new()),
            Slots::Many(all) => (None, all),
        };
        first.into_iter().chain(rest)
    }
}

/// Data half of a [`FrameMsg`]: one logical round's bundle on one link.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameData<P> {
    /// Per-link sequence number — equal to the sender's logical round.
    pub seq: u64,
    /// `true` on the sender's final frame (its inner logic halted in
    /// round `seq`), so the receiver stops expecting higher sequences.
    pub halting: bool,
    /// The inner protocol messages for this link and round (possibly
    /// empty — an empty bundle is still the "round executed" beacon).
    pub payloads: Bundle<P>,
}

/// One transport frame: a cumulative acknowledgment, optionally carrying
/// a data bundle. `data: None` is a pure ack.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameMsg<P> {
    /// Cumulative ack: every frame with `seq < ack` from the addressee
    /// has been received in order.
    pub ack: u64,
    /// The data bundle, absent on pure acks.
    pub data: Option<FrameData<P>>,
}

impl<P: Payload> Payload for FrameMsg<P> {
    fn bit_size(&self) -> usize {
        // Header: data-present flag + the ack counter at its
        // self-delimiting width (a counter with value x needs
        // ceil(log2(x + 2)) bits, >= 1). Data adds the halting flag, the
        // sequence counter, and the bundled payloads at their own
        // metered sizes. Sequence numbers grow with the logical round,
        // so headers stay O(log R) bits for R-round protocols.
        let mut bits = 1 + bits_for_ids(self.ack as usize + 2);
        if let Some(d) = &self.data {
            bits += 1 + bits_for_ids(d.seq as usize + 2);
            let payloads = d.payloads.as_slice();
            bits += payloads.iter().map(Payload::bit_size).sum::<usize>();
        }
        bits
    }
}

/// Retransmission policy of the [`Reliable`] transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Initial retransmission timeout, in physical rounds (the lossless
    /// ack round-trip is 2 rounds, so values below 3 retransmit
    /// spuriously; under delay jitter up to `d` rounds it is
    /// `2·(d + 1)`, see the [module docs](self#asynchronous-networks)).
    /// Must be at least 1.
    pub rto: u64,
    /// Ceiling for the exponentially backed-off timeout. Must be at
    /// least `rto`.
    pub backoff_cap: u64,
    /// Retransmissions allowed per frame (beyond the initial send)
    /// before the link is declared failed.
    pub max_retransmits: u32,
}

impl Default for TransportConfig {
    /// `rto = 3`, `backoff_cap = 16`, `max_retransmits = 20`: a frame
    /// fails only if 21 consecutive transmission round-trips (the frame
    /// or its ack) are lost — probability below `(2p)^21` at loss rate
    /// `p`, negligible for every loss rate the experiments sweep.
    fn default() -> Self {
        TransportConfig {
            rto: 3,
            backoff_cap: 16,
            max_retransmits: 20,
        }
    }
}

impl TransportConfig {
    /// A generous physical-round ceiling for a protocol that runs
    /// `logical_rounds` inner rounds: every round may wait out a full
    /// retransmission budget. Actual lossy runs finish in a small
    /// multiple of `logical_rounds`; this is the diagnostic limit
    /// [`crate::exec::Executor::run`] applies to a transport run.
    pub fn round_budget(&self, logical_rounds: u64) -> u64 {
        logical_rounds
            .saturating_mul(u64::from(self.max_retransmits) + 1)
            .saturating_mul(self.backoff_cap.max(self.rto))
            .saturating_add(self.rto + 8)
    }

    /// Rejects a policy no transport can run: `rto == 0` or
    /// `backoff_cap < rto`.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        if self.rto >= 1 && self.backoff_cap >= self.rto {
            Ok(())
        } else {
            Err(SimError::InvalidTransportConfig {
                rto: self.rto,
                backoff_cap: self.backoff_cap,
            })
        }
    }
}

/// A recorded delivery failure: the retransmit budget for `seq` ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryFailure {
    /// The unresponsive peer.
    pub to: NodeId,
    /// Sequence number of the frame that could not be delivered.
    pub seq: u64,
    /// Transmissions attempted (initial send + retransmissions).
    pub attempts: u32,
}

impl DeliveryFailure {
    /// The failure as a [`SimError`], attributed to sender `from`.
    pub fn into_error(self, from: NodeId) -> SimError {
        SimError::DeliveryFailed {
            from,
            to: self.to,
            seq: self.seq,
            attempts: self.attempts,
        }
    }
}

/// A FIFO queue whose first two entries live in place: the per-link
/// window of unacked frames and of received bundles (see the module docs
/// on [what a frame costs](self#what-a-frame-costs)). Entries past the
/// second spill to a heap queue, allocated only when first needed.
#[derive(Debug)]
struct Window<T> {
    /// The two oldest entries; `slots[head]` is the front. The other
    /// slot is filled only when the front is.
    slots: [Option<T>; 2],
    head: usize,
    /// Entries after the two in place, oldest first.
    spill: VecDeque<T>,
}

impl<T> Default for Window<T> {
    fn default() -> Self {
        Window {
            slots: [None, None],
            head: 0,
            spill: VecDeque::new(),
        }
    }
}

impl<T> Window<T> {
    fn is_empty(&self) -> bool {
        self.slots[self.head].is_none()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.iter().flatten().count() + self.spill.len()
    }

    fn front(&self) -> Option<&T> {
        self.slots[self.head].as_ref()
    }

    fn front_mut(&mut self) -> Option<&mut T> {
        self.slots[self.head].as_mut()
    }

    fn back(&self) -> Option<&T> {
        self.spill
            .back()
            .or(self.slots[self.head ^ 1].as_ref())
            .or(self.slots[self.head].as_ref())
    }

    fn back_mut(&mut self) -> Option<&mut T> {
        let [a, b] = &mut self.slots;
        let (front, second) = if self.head == 0 { (a, b) } else { (b, a) };
        self.spill.back_mut().or(second.as_mut()).or(front.as_mut())
    }

    fn push_back(&mut self, item: T) {
        if self.slots[self.head].is_none() {
            self.slots[self.head] = Some(item);
        } else if self.slots[self.head ^ 1].is_none() {
            self.slots[self.head ^ 1] = Some(item);
        } else {
            self.spill.push_back(item);
        }
    }

    fn pop_front(&mut self) -> Option<T> {
        let item = self.slots[self.head].take()?;
        if self.slots[self.head ^ 1].is_some() {
            // The vacated slot becomes the second one.
            self.slots[self.head] = self.spill.pop_front();
            self.head ^= 1;
        }
        Some(item)
    }
}

/// An outbound frame awaiting acknowledgment.
#[derive(Debug)]
struct SentFrame<P> {
    seq: u64,
    halting: bool,
    payloads: Bundle<P>,
    /// Transmissions so far; 0 = created this round, not yet on the wire.
    attempts: u32,
}

impl<P: Clone> SentFrame<P> {
    /// The frame on the wire, piggybacking cumulative ack `ack`.
    fn carrying(&self, ack: u64) -> FrameMsg<P> {
        FrameMsg {
            ack,
            data: Some(FrameData {
                seq: self.seq,
                halting: self.halting,
                payloads: self.payloads.clone(),
            }),
        }
    }
}

/// Per-neighbor ARQ state.
#[derive(Debug)]
struct Link<P> {
    peer: NodeId,
    // --- send side ---
    /// Frames sent (or queued) but not yet cumulatively acked, oldest
    /// first. Two entries while the peer runs; more only toward a halted
    /// peer whose pure acks were lost.
    unacked: Window<SentFrame<P>>,
    /// Highest cumulative ack received from the peer.
    acked: u64,
    /// Current (backed-off) retransmission timeout.
    rto_cur: u64,
    /// Physical round at which the oldest unacked frame may be
    /// retransmitted; `u64::MAX` when nothing is outstanding.
    due: u64,
    // --- receive side ---
    /// In-order bundles not yet consumed by the inner logic; the front
    /// is sequence `consumed`. At most two entries; none is added once
    /// the inner logic has halted.
    ready: Window<Bundle<P>>,
    /// Out-of-order bundles with `seq > recv_next` (empty bundles once
    /// the inner logic has halted: only the sequence is read then).
    ooo: Vec<(u64, Bundle<P>)>,
    /// Next in-order sequence expected — also the cumulative ack we send.
    recv_next: u64,
    /// Next sequence the inner logic will consume.
    consumed: u64,
    /// Sequence of the peer's halting frame (`u64::MAX` = still active).
    peer_halt_seq: u64,
    /// A data frame (new or duplicate) arrived and deserves an ack this
    /// round.
    need_ack: bool,
}

impl<P> Link<P> {
    fn new(peer: NodeId) -> Self {
        Link {
            peer,
            unacked: Window::default(),
            acked: 0,
            rto_cur: 0,
            due: u64::MAX,
            ready: Window::default(),
            ooo: Vec::new(),
            recv_next: 0,
            consumed: 0,
            peer_halt_seq: u64::MAX,
            need_ack: false,
        }
    }

    /// Every frame we ever sent is acked, and the peer's full stream
    /// (through its halting frame) has been received.
    fn closed(&self) -> bool {
        self.unacked.is_empty()
            && self.peer_halt_seq != u64::MAX
            && self.recv_next > self.peer_halt_seq
    }
}

impl<P: Payload> Link<P> {
    /// This link's share of a send pass at physical round `now`, the
    /// link being neighbor number `pos`: at most one frame, by priority
    /// a frame's first transmission (`fresh`: the inner logic executed a
    /// round since the last pass, so every link holds a frame not yet on
    /// the wire), a timed-out retransmission, or a pure ack owed for
    /// arrived data. Errors when the oldest frame's retransmit budget is
    /// exhausted.
    fn send(
        &mut self,
        pos: usize,
        fresh: bool,
        cfg: &TransportConfig,
        now: u64,
        ctx: &mut Context<'_, FrameMsg<P>>,
    ) -> Result<(), DeliveryFailure> {
        debug_assert_eq!(
            fresh,
            self.unacked.back().is_some_and(|f| f.attempts == 0),
            "the node's queued flag disagrees with link {pos}"
        );
        let ack = self.recv_next;
        if fresh {
            // Priority 1: first transmission of a frame created this
            // round (always the newest entry).
            let front_is_new = self.unacked.front().is_some_and(|f| f.attempts == 0);
            let Some(frame) = self.unacked.back_mut() else {
                unreachable!("a fresh frame was queued on every link");
            };
            frame.attempts = 1;
            let msg = frame.carrying(ack);
            if front_is_new {
                self.rto_cur = cfg.rto;
                self.due = now + self.rto_cur;
            }
            self.need_ack = false;
            ctx.send_to_neighbor(self.peer, pos, msg);
        } else if self.due <= now {
            // Priority 2: retransmit the oldest unacked frame on timeout.
            let Some(frame) = self.unacked.front_mut() else {
                unreachable!("due is only finite with unacked frames");
            };
            if frame.attempts > cfg.max_retransmits {
                return Err(DeliveryFailure {
                    to: self.peer,
                    seq: frame.seq,
                    attempts: frame.attempts,
                });
            }
            frame.attempts += 1;
            let msg = frame.carrying(ack);
            self.rto_cur = (self.rto_cur * 2).min(cfg.backoff_cap);
            self.due = now + self.rto_cur;
            self.need_ack = false;
            ctx.note_retransmit();
            ctx.send_to_neighbor(self.peer, pos, msg);
        } else if self.need_ack {
            // Priority 3: a pure ack if data arrived and nothing else
            // carried the acknowledgment.
            self.ack(pos, ctx);
        }
        Ok(())
    }

    /// Sends the pure ack owed for data that arrived this round.
    fn ack(&mut self, pos: usize, ctx: &mut Context<'_, FrameMsg<P>>) {
        self.need_ack = false;
        ctx.note_ack();
        ctx.send_to_neighbor(
            self.peer,
            pos,
            FrameMsg {
                ack: self.recv_next,
                data: None,
            },
        );
    }
}

/// Wraps a [`NodeLogic`] in the reliable transport described in the
/// [module docs](self). `Reliable<L>` is itself a `NodeLogic` over
/// [`FrameMsg`] frames, so it runs on the ordinary [`crate::Simulator`]
/// — but connected nodes never halt on their own (see the module docs
/// on termination), so drive it through [`crate::exec::Executor`] with a
/// transport [`crate::exec::Stack`], or step the simulator manually and
/// stop once every node reports [`Reliable::done`].
#[derive(Debug)]
pub struct Reliable<L: NodeLogic> {
    inner: L,
    cfg: TransportConfig,
    /// Per-neighbor ARQ state, in `neighbors()` order; built lazily on
    /// the first round (the topology is only visible through the
    /// context).
    links: Vec<Link<L::Payload>>,
    started: bool,
    /// Next logical round the inner logic will execute.
    local_round: u64,
    inner_halted: bool,
    /// Self-addressed inner messages, keyed by sending logical round.
    pending_self: Vec<(u64, Bundle<L::Payload>)>,
    failure: Option<DeliveryFailure>,
    /// Lower bound on every link's `due`: no retransmit timer fires
    /// before this physical round.
    min_due: u64,
    /// The inner logic executed a round, so frames were queued, since
    /// the last send pass.
    queued: bool,
    /// Positions of the links that received a data frame this round and
    /// so owe an ack, in arrival order.
    owed: Vec<usize>,
    /// The inner logic may be able to execute: data arrived or a round
    /// executed since `can_execute` last said no.
    maybe_ready: bool,
    /// The links before this position hold what logical round
    /// `local_round` needs; `can_execute` resumes here.
    ready_from: usize,
    /// Recycled buffers for the inner context (its outbox and each
    /// envelope's link position) and the per-link bundles.
    inner_outbox: Vec<Envelope<L::Payload>>,
    inner_positions: Vec<u32>,
    inner_inbox: Vec<Envelope<L::Payload>>,
    bundles: Vec<Bundle<L::Payload>>,
}

impl<L: NodeLogic> Reliable<L> {
    /// Wraps `inner` with the given retransmission policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (`rto == 0` or
    /// `backoff_cap < rto`).
    pub fn new(inner: L, cfg: TransportConfig) -> Self {
        assert_eq!(cfg.validate(), Ok(()), "invalid transport config");
        Reliable {
            inner,
            cfg,
            links: Vec::new(),
            started: false,
            local_round: 0,
            inner_halted: false,
            pending_self: Vec::new(),
            failure: None,
            min_due: u64::MAX,
            queued: false,
            owed: Vec::new(),
            maybe_ready: true,
            ready_from: 0,
            inner_outbox: Vec::new(),
            inner_positions: Vec::new(),
            inner_inbox: Vec::new(),
            bundles: Vec::new(),
        }
    }

    /// The wrapped protocol state.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Unwraps the transport, returning the inner protocol state.
    pub fn into_inner(self) -> L {
        self.inner
    }

    /// Logical rounds the inner logic has executed.
    pub fn logical_rounds(&self) -> u64 {
        self.local_round
    }

    /// The delivery failure that aborted this node, if any.
    pub fn failure(&self) -> Option<DeliveryFailure> {
        self.failure
    }

    /// True once this node needs nothing more from the network: its
    /// inner logic has halted, every frame it ever sent has been
    /// acknowledged, and every neighbor's stream has been received
    /// through its halting frame. All three facts are known from
    /// received frames — never inferred from timeouts — so `done` can
    /// never falsely turn true. A done node keeps re-acknowledging peer
    /// retransmissions until the whole run stops (see the module docs on
    /// termination); the executor ends the simulation once every node is
    /// done.
    pub fn done(&self) -> bool {
        self.inner_halted && self.links.iter().all(Link::closed)
    }

    /// Can the inner logic execute logical round `local_round` now?
    /// Round 0 needs no input; round `r > 0` needs the round-`(r - 1)`
    /// bundle from every neighbor that had not already halted before
    /// `r - 1`. A link that has it keeps it until the round runs, so the
    /// check resumes at the first link that did not have it last time.
    fn can_execute(&mut self) -> bool {
        let Some(prev) = self.local_round.checked_sub(1) else {
            return true;
        };
        let waiting = self.links[self.ready_from..]
            .iter()
            .position(|l| prev <= l.peer_halt_seq && (l.consumed != prev || l.ready.is_empty()));
        match waiting {
            Some(i) => {
                self.ready_from += i;
                false
            }
            None => true,
        }
    }

    /// Reconstructs the synchronous inbox for logical round `r` into
    /// `inner_inbox`: one consumed bundle per expecting link plus the
    /// round-`(r - 1)` self-sends, envelopes grouped by sender in
    /// ascending id order — exactly the order [`crate::Simulator`]'s
    /// sequential merge produces.
    fn build_inbox(&mut self, me: NodeId, r: u64) {
        self.inner_inbox.clear();
        if r == 0 {
            return;
        }
        let prev = r - 1;
        let self_pos = self
            .pending_self
            .iter()
            .position(|(round, _)| *round == prev);
        let mut self_payloads = self_pos.map(|i| self.pending_self.swap_remove(i).1);
        let mut self_done = false;
        for link in &mut self.links {
            if prev <= link.peer_halt_seq && link.consumed == prev {
                // Self-sends sort between neighbors by id.
                if !self_done && me < link.peer {
                    if let Some(payloads) = self_payloads.take() {
                        for p in payloads {
                            self.inner_inbox.push(Envelope {
                                from: me,
                                to: me,
                                payload: p,
                            });
                        }
                    }
                    self_done = true;
                }
                let Some(payloads) = link.ready.pop_front() else {
                    unreachable!("can_execute checked ready is non-empty");
                };
                link.consumed += 1;
                for p in payloads {
                    self.inner_inbox.push(Envelope {
                        from: link.peer,
                        to: me,
                        payload: p,
                    });
                }
            } else if !self_done && me < link.peer {
                // Still emit self-sends at the right position even when
                // this link contributes nothing this round.
                if let Some(payloads) = self_payloads.take() {
                    for p in payloads {
                        self.inner_inbox.push(Envelope {
                            from: me,
                            to: me,
                            payload: p,
                        });
                    }
                }
                self_done = true;
            }
        }
        if let Some(payloads) = self_payloads.take() {
            for p in payloads {
                self.inner_inbox.push(Envelope {
                    from: me,
                    to: me,
                    payload: p,
                });
            }
        }
    }

    /// Executes the inner logic's logical round `local_round` (the
    /// caller checked [`Reliable::can_execute`]) and queues its sends:
    /// self-deliveries for the next round, and one frame per link
    /// (delivered empty bundles are the "round executed" beacon).
    fn execute_round(&mut self, me: NodeId, ctx: &mut Context<'_, FrameMsg<L::Payload>>) {
        let r = self.local_round;
        self.build_inbox(me, r);
        self.ready_from = 0;
        let mut outbox = std::mem::take(&mut self.inner_outbox);
        let inner_inbox = std::mem::take(&mut self.inner_inbox);
        outbox.clear();
        self.inner_positions.clear();
        let mut inner_ctx = Context {
            me,
            round: r,
            topo: ctx.topo,
            rng: &mut *ctx.rng,
            outbox: &mut outbox,
            outlet: Outlet::Record(&mut self.inner_positions),
            transport: &mut *ctx.transport,
            tracing: ctx.tracing,
            trace: &mut *ctx.trace,
            send_hint: 0,
        };
        let control = self
            .inner
            .on_round(Inbox::from_slice(&inner_inbox), &mut inner_ctx);
        self.inner_halted = control == Control::Halt;
        self.local_round = r + 1;
        let mut self_msgs = Bundle::default();
        self.bundles.resize_with(self.links.len(), Bundle::default);
        // The inner context recorded each envelope's link position.
        debug_assert_eq!(outbox.len(), self.inner_positions.len());
        for (env, &pos) in outbox.drain(..).zip(&self.inner_positions) {
            if pos == SELF_LINK {
                self_msgs.push(env.payload);
            } else {
                self.bundles[pos as usize].push(env.payload);
            }
        }
        if !self_msgs.as_slice().is_empty() {
            self.pending_self.push((r, self_msgs));
        }
        for (link, payloads) in self.links.iter_mut().zip(&mut self.bundles) {
            debug_assert!(link.unacked.back().is_none_or(|f| f.attempts > 0));
            link.unacked.push_back(SentFrame {
                seq: r,
                halting: self.inner_halted,
                payloads: std::mem::take(payloads),
                attempts: 0,
            });
            debug_assert!(
                link.unacked.spill.is_empty() || link.peer_halt_seq != u64::MAX,
                "more than two frames unacked by a running peer"
            );
        }
        self.inner_outbox = outbox;
        self.inner_inbox = inner_inbox;
    }
}

impl<L: NodeLogic> NodeLogic for Reliable<L> {
    type Payload = FrameMsg<L::Payload>;

    fn on_round(
        &mut self,
        inbox: Inbox<'_, FrameMsg<L::Payload>>,
        ctx: &mut Context<'_, FrameMsg<L::Payload>>,
    ) -> Control {
        let now = ctx.round();
        let me = ctx.me();
        if !self.started {
            self.started = true;
            self.links = ctx.neighbors().iter().map(|&w| Link::new(w)).collect();
        }
        debug_assert!(self.failure.is_none(), "failed node was scheduled again");

        // --- Receive: acks first, then data, per arriving frame. ---
        let neighbors = ctx.neighbors();
        let mut cursor = 0;
        self.owed.clear();
        let mut owed_in_order = true;
        for env in inbox {
            let Some(pos) = seek(neighbors, env.from, cursor) else {
                debug_assert!(false, "frame from non-neighbor {}", env.from);
                continue;
            };
            cursor = pos;
            let link = &mut self.links[pos];
            if env.payload.ack > link.acked {
                link.acked = env.payload.ack;
                while link.unacked.front().is_some_and(|f| f.seq < link.acked) {
                    link.unacked.pop_front();
                }
                // Progress: restart the timer at the base timeout.
                link.rto_cur = self.cfg.rto;
                link.due = if link.unacked.is_empty() {
                    u64::MAX
                } else {
                    now + link.rto_cur
                };
                self.min_due = self.min_due.min(link.due);
            }
            if let Some(data) = &env.payload.data {
                if !link.need_ack {
                    link.need_ack = true;
                    owed_in_order &= self.owed.last().is_none_or(|&last| last < pos);
                    self.owed.push(pos);
                }
                if data.seq < link.recv_next || link.ooo.iter().any(|(s, _)| *s == data.seq) {
                    ctx.note_duplicate_suppressed();
                    continue;
                }
                if data.halting {
                    link.peer_halt_seq = data.seq;
                }
                self.maybe_ready = true;
                // A halted inner logic reads no more bundles: keep the
                // sequence numbers only.
                let live = !self.inner_halted;
                if data.seq != link.recv_next {
                    let payloads = if live {
                        data.payloads.clone()
                    } else {
                        Bundle::default()
                    };
                    link.ooo.push((data.seq, payloads));
                    continue;
                }
                if live {
                    link.ready.push_back(data.payloads.clone());
                    debug_assert!(link.ready.spill.is_empty(), "a peer ran two rounds ahead");
                }
                link.recv_next += 1;
                // Drain buffered frames the arrival put back in order.
                while let Some(i) = link.ooo.iter().position(|(s, _)| *s == link.recv_next) {
                    let (_, payloads) = link.ooo.swap_remove(i);
                    if live {
                        link.ready.push_back(payloads);
                    }
                    link.recv_next += 1;
                }
            }
        }

        // --- Advance the inner logic by at most one logical round. ---
        if self.maybe_ready && !self.inner_halted {
            if self.can_execute() {
                self.execute_round(me, ctx);
                self.queued = true;
            } else {
                self.maybe_ready = false;
            }
        }

        // --- Send: at most one frame per link per physical round, links
        // in ascending order. A queued frame or a due timer takes a pass
        // over every link. Otherwise only pure acks can be owed, and only
        // by the links that received data, so only those are visited; a
        // round with no ack owed either visits no link at all. ---
        if self.queued || now >= self.min_due {
            let mut min_due = u64::MAX;
            for (pos, link) in self.links.iter_mut().enumerate() {
                if let Err(failure) = link.send(pos, self.queued, &self.cfg, now, ctx) {
                    // Budget exhausted: withdraw from the network. The
                    // runner surfaces this as `SimError::DeliveryFailed`.
                    self.failure = Some(failure);
                    return Control::Halt;
                }
                min_due = min_due.min(link.due);
            }
            self.min_due = min_due;
            self.queued = false;
        } else if !self.owed.is_empty() {
            // Jittered frames arrive ahead of the round's sorted traffic.
            if !owed_in_order {
                self.owed.sort_unstable();
            }
            for &pos in &self.owed {
                self.links[pos].ack(pos, ctx);
            }
        }
        debug_assert!(
            self.links.iter().all(|l| !l.need_ack),
            "a send pass left an ack unsent"
        );

        // --- Termination (see module docs). Only isolated nodes may
        // withdraw on their own: any node with neighbors must stay
        // responsive — re-acking retransmissions — until the runner
        // observes that every node is done and stops the simulation.
        // Halting unilaterally after any finite quiet period could
        // strand a peer whose retries were all lost (two generals).
        if self.inner_halted && self.links.is_empty() {
            return Control::Halt;
        }
        // Nothing is queued and no ack is owed. If the inner logic cannot
        // run either, only an arrival or the earliest retransmit timer
        // can give the next round work: until then it is idle.
        if self.inner_halted || !self.maybe_ready {
            return Control::Idle {
                until: self.min_due,
            };
        }
        Control::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, Run, Stack};
    use crate::{AdversaryPlan, ChurnPlan, Simulator, Topology};
    use ftclust_graphs::generators;
    use rand::Rng;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl Payload for Num {
        fn bit_size(&self) -> usize {
            bits_for_ids(1 << 16)
        }
    }

    /// A demanding reference protocol: every round it draws randomness,
    /// records its full inbox (sender order matters), broadcasts a mix of
    /// state, and self-sends — everything the transport must reproduce.
    #[derive(Debug, Clone, PartialEq)]
    struct Recorder {
        trace: Vec<(u64, Vec<(u32, u64)>)>,
        draws: Vec<u64>,
        best: u64,
        rounds: u64,
    }

    impl Recorder {
        fn new(v: NodeId, rounds: u64) -> Self {
            Recorder {
                trace: vec![],
                draws: vec![],
                best: v.raw() as u64,
                rounds,
            }
        }
    }

    impl NodeLogic for Recorder {
        type Payload = Num;
        fn on_round(&mut self, inbox: Inbox<'_, Num>, ctx: &mut Context<'_, Num>) -> Control {
            let seen: Vec<(u32, u64)> = inbox.iter().map(|e| (e.from.raw(), e.payload.0)).collect();
            for &(_, x) in &seen {
                self.best = self.best.max(x);
            }
            self.trace.push((ctx.round(), seen));
            self.draws.push(ctx.rng().random_range(0..1_000_000u64));
            if ctx.round() >= self.rounds {
                return Control::Halt;
            }
            ctx.broadcast(Num(self.best));
            let me = ctx.me();
            ctx.send(me, Num(self.draws[self.draws.len() - 1]));
            Control::Continue
        }
    }

    fn direct_run(g: &ftclust_graphs::Graph, seed: u64, rounds: u64) -> Vec<Recorder> {
        let topo = Topology::from_graph(g);
        let mut sim = Simulator::new(topo, |v| Recorder::new(v, rounds), seed);
        sim.run(100_000).unwrap();
        sim.into_logics()
    }

    /// Runs `Recorder`s for `rounds` rounds through the executor's
    /// transport layer under i.i.d. loss `p`.
    fn reliable_run(
        g: &ftclust_graphs::Graph,
        seed: u64,
        rounds: u64,
        p: f64,
        cfg: TransportConfig,
    ) -> Result<Run<Recorder>, SimError> {
        Executor::new(Topology::from_graph(g), |v| Recorder::new(v, rounds), seed)
            .stack(Stack::new().lossy(p).transport(cfg))
            .run(rounds + 1)
    }

    #[test]
    fn lossless_transport_reproduces_direct_run() {
        for (g, seed) in [
            (generators::gnp(24, 0.2, 3), 7u64),
            (generators::cycle(9), 1),
            (generators::star(6), 5),
        ] {
            let direct = direct_run(&g, seed, 6);
            let run = reliable_run(&g, seed, 6, 0.0, TransportConfig::default()).unwrap();
            assert_eq!(run.logics, direct, "lossless transport diverged");
            assert_eq!(run.logical_rounds, 7); // rounds 0..=6 executed
            assert_eq!(run.metrics.retransmits, 0, "spurious retransmit at p = 0");
            assert_eq!(run.metrics.duplicates_suppressed, 0);
        }
    }

    #[test]
    fn lossy_transport_reproduces_direct_run() {
        let g = generators::gnp(20, 0.25, 11);
        let direct = direct_run(&g, 13, 8);
        for p in [0.05, 0.2, 0.35] {
            let run = reliable_run(&g, 13, 8, p, TransportConfig::default())
                .unwrap_or_else(|e| panic!("run at p = {p} failed: {e}"));
            assert_eq!(run.logics, direct, "execution diverged at p = {p}");
            assert!(
                run.metrics.retransmits > 0,
                "no retransmissions at p = {p}?"
            );
        }
    }

    #[test]
    fn transient_partition_is_masked() {
        // The only edge of a path(2) is cut for 12 physical rounds —
        // shorter than the retransmit horizon, so the protocol stalls,
        // recovers, and finishes with the lossless result.
        let g = generators::path(2);
        let direct = direct_run(&g, 3, 5);
        let cut = AdversaryPlan::new(0).partition(&[NodeId::new(0)], 2..14);
        let run = Executor::new(Topology::from_graph(&g), |v| Recorder::new(v, 5), 3)
            .stack(
                Stack::new()
                    .transport(TransportConfig::default())
                    .adversarial(cut),
            )
            .run(6)
            .unwrap();
        assert_eq!(run.logics, direct);
        assert!(run.metrics.retransmits > 0);
        assert!(run.metrics.dropped_messages > 0);
        // The only pending work during the cut is the retransmit
        // timer backing off 3, 6, 12 rounds: pin the physical schedule.
        assert_eq!(
            run.metrics.per_round_messages,
            [
                2, 2, 2, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 2,
                2, 2, 2, 2, 0
            ]
        );
    }

    #[test]
    fn budget_exhaustion_surfaces_delivery_failed() {
        let g = generators::path(3);
        let cfg = TransportConfig {
            rto: 2,
            backoff_cap: 4,
            max_retransmits: 3,
        };
        let err = reliable_run(&g, 0, 5, 1.0, cfg).unwrap_err();
        match err {
            SimError::DeliveryFailed { attempts, .. } => {
                assert_eq!(attempts, cfg.max_retransmits + 1);
            }
            other => panic!("expected DeliveryFailed, got {other}"),
        }
    }

    #[test]
    fn conservation_law_extends_to_transport_counters() {
        let g = generators::gnp(18, 0.3, 2);
        let topo = Topology::from_graph(&g);
        let churn = ChurnPlan::none().drop_probability(0.25);
        let mut sim = Simulator::with_churn(
            topo,
            |v| Reliable::new(Recorder::new(v, 6), TransportConfig::default()),
            4,
            churn,
        );
        while sim.step() {
            if sim.logics().all(Reliable::done) {
                break;
            }
            assert!(sim.round() < 100_000, "run failed to converge");
        }
        let m = sim.metrics().clone();
        assert!(m.retransmits > 0);
        assert_eq!(
            m.messages,
            m.unique_delivered()
                + m.duplicates_suppressed
                + m.dropped_messages
                + m.dead_on_arrival
                + sim.in_flight_messages()
        );
        assert!(m.duplicates_suppressed <= m.retransmits);
        assert!(m.retransmits + m.acks <= m.messages);
    }

    #[test]
    fn thread_count_does_not_change_lossy_execution() {
        let g = generators::gnp(30, 0.2, 17);
        let run = |threads: usize| {
            ftclust_par::with_threads(threads, || {
                let out = reliable_run(&g, 23, 7, 0.15, TransportConfig::default()).unwrap();
                (out.logics, out.metrics, out.logical_rounds)
            })
        };
        let baseline = run(1);
        assert!(baseline.1.retransmits > 0);
        for threads in [2usize, 7] {
            assert_eq!(run(threads), baseline, "diverged at {threads} threads");
        }
    }

    fn bundle(payloads: impl IntoIterator<Item = u64>) -> Bundle<Num> {
        let mut b = Bundle::default();
        for x in payloads {
            b.push(Num(x));
        }
        b
    }

    #[test]
    fn frame_bit_size_is_logarithmic() {
        let pure_ack: FrameMsg<Num> = FrameMsg { ack: 0, data: None };
        assert_eq!(pure_ack.bit_size(), 2); // flag + 1-bit counter
        let frame = FrameMsg {
            ack: 1000,
            data: Some(FrameData {
                seq: 1000,
                halting: true,
                payloads: bundle([3, 4]),
            }),
        };
        // 1 + ceil(log2 1002) + 1 + ceil(log2 1002) + 2 * 16.
        assert_eq!(frame.bit_size(), 1 + 10 + 1 + 10 + 32);
        // Every bundle shape is metered as the header plus its payloads.
        for len in [0u64, 1, 3] {
            let frame = FrameMsg {
                ack: 5,
                data: Some(FrameData {
                    seq: 6,
                    halting: false,
                    payloads: bundle(0..len),
                }),
            };
            let header = 1 + bits_for_ids(7) + 1 + bits_for_ids(8);
            assert_eq!(frame.bit_size(), header + len as usize * 16, "len {len}");
        }
    }

    #[test]
    fn bundles_keep_push_order_in_every_shape() {
        for len in [0u64, 1, 3] {
            let b = bundle(10..10 + len);
            let expected: Vec<Num> = (10..10 + len).map(Num).collect();
            assert_eq!(b.as_slice(), &expected[..], "as_slice, len {len}");
            assert_eq!(b.clone(), b);
            let drained: Vec<Num> = b.into_iter().collect();
            assert_eq!(drained, expected, "iteration, len {len}");
        }
        // Pushing onto an emptied (taken) bundle starts over.
        let mut b = bundle([1, 2]);
        let taken = std::mem::take(&mut b);
        b.push(Num(9));
        assert_eq!(taken.as_slice(), [Num(1), Num(2)]);
        assert_eq!(b.as_slice(), [Num(9)]);
    }

    #[test]
    fn halted_receiver_keeps_acking() {
        // Node 0 halts after logical round 1 while node 1 runs on to
        // round 6: node 0 must keep acknowledging node 1's frames (so
        // node 1 finishes) and reach `done` itself.
        let g = generators::path(2);
        let mut sim = Simulator::new(
            Topology::from_graph(&g),
            |v| {
                let rounds = if v.raw() == 0 { 1 } else { 6 };
                Reliable::new(Recorder::new(v, rounds), TransportConfig::default())
            },
            5,
        );
        while sim.step() {
            if sim.logics().all(Reliable::done) {
                break;
            }
            assert!(sim.round() < 1_000, "run failed to converge");
        }
        let m = sim.metrics().clone();
        let nodes: Vec<&Reliable<Recorder>> = sim.logics().collect();
        let (halted, runner) = (nodes[0], nodes[1]);
        assert!(halted.done() && runner.done());
        assert_eq!((halted.logical_rounds(), runner.logical_rounds()), (2, 7));
        let link = &halted.links[0];
        assert_eq!(link.recv_next, 7, "every frame of the peer was received");
        assert_eq!(link.peer_halt_seq, 6);
        assert!(m.acks > 0, "the halted node answered with pure acks");
        assert_eq!(m.retransmits, 0);
    }

    /// Runs `Recorder`s for `rounds(v)` rounds each through `Reliable`
    /// under `plan`, stepping until every node is done; calls `watch`
    /// after every step.
    fn transport_run(
        g: &ftclust_graphs::Graph,
        seed: u64,
        rounds: fn(NodeId) -> u64,
        plan: AdversaryPlan,
        mut watch: impl FnMut(&Simulator<'_, Reliable<Recorder>>),
    ) -> (Vec<Recorder>, crate::Metrics) {
        let mut sim = Simulator::new(
            Topology::from_graph(g),
            |v| Reliable::new(Recorder::new(v, rounds(v)), TransportConfig::default()),
            seed,
        );
        sim.set_adversary(plan);
        while sim.step() {
            watch(&sim);
            if sim.logics().all(Reliable::done) {
                break;
            }
            assert!(sim.round() < 1_000, "run failed to converge");
        }
        let metrics = sim.metrics().clone();
        let logics = sim.into_logics().into_iter().map(Reliable::into_inner);
        (logics.collect(), metrics)
    }

    /// The lossless synchronous run of `Recorder`s for `rounds(v)` rounds.
    fn direct_run_of(
        g: &ftclust_graphs::Graph,
        seed: u64,
        rounds: fn(NodeId) -> u64,
    ) -> Vec<Recorder> {
        let mut sim = Simulator::new(
            Topology::from_graph(g),
            |v| Recorder::new(v, rounds(v)),
            seed,
        );
        sim.run(1_000).unwrap();
        sim.into_logics()
    }

    #[test]
    fn backlog_to_a_halted_peer_spills_and_drains() {
        // Node 0 halts after logical round 1; node 1 runs on to round 8
        // without waiting for it. The only link is cut both ways for
        // physical rounds 3..12, so node 0's pure acks are lost while
        // node 1 queues frames: more than the two a link keeps in place.
        let g = generators::path(2);
        let rounds = |v: NodeId| if v.raw() == 0 { 1 } else { 8 };
        let cut = AdversaryPlan::new(0).partition(&[NodeId::new(0)], 3..12);
        let mut spilled = 0;
        let (logics, m) = transport_run(&g, 5, rounds, cut, |sim| {
            let link = &sim.logic(NodeId::new(1)).links[0];
            spilled = spilled.max(link.unacked.spill.len());
        });
        assert!(
            spilled >= 3,
            "the backlog peaked at {spilled} spilled frames"
        );
        assert_eq!(
            (
                m.rounds,
                m.messages,
                m.retransmits,
                m.dropped_messages,
                m.acks
            ),
            (48, 28, 8, 8, 9),
            "the metrics of the run without the in-place windows"
        );
        assert_eq!(logics, direct_run_of(&g, 5, rounds));
    }

    #[test]
    fn frames_after_the_inner_halt_keep_sequence_state_only() {
        // The hub halts after logical round 1 while its leaves run on to
        // round 7 under jitter and network duplicates, so their frames
        // keep arriving after the hub's inner logic halted: late, out of
        // order and twice. They are counted and acked as ever, but no
        // payload is kept. A leaf sends its frame 2 only after the hub's
        // frame 1, the one its inner logic halted in.
        let g = generators::star(4);
        let rounds = |v: NodeId| if v.raw() == 0 { 1 } else { 7 };
        let plan = AdversaryPlan::new(4).jitter(0.4, 3).duplicate(0.3);
        let (logics, m) = transport_run(&g, 9, rounds, plan, |sim| {
            let hub = sim.logic(NodeId::new(0));
            for link in &hub.links {
                assert!(link.consumed + link.ready.len() as u64 <= 2);
                assert!(link
                    .ooo
                    .iter()
                    .all(|(seq, b)| *seq < 2 || b.as_slice().is_empty()));
            }
        });
        assert_eq!(logics, direct_run_of(&g, 9, rounds));
        assert_eq!(
            (
                m.rounds,
                m.messages,
                m.total_bits,
                m.retransmits,
                m.acks,
                m.duplicates_suppressed,
                m.net_duplicated
            ),
            (13, 72, 975, 3, 22, 15, 17),
            "the metrics of the run without the in-place windows"
        );
    }

    #[test]
    fn isolated_nodes_need_no_handshake() {
        let g = generators::empty(3);
        let run = reliable_run(&g, 0, 2, 0.0, TransportConfig::default()).unwrap();
        // Degree-0 nodes execute one logical round per physical round and
        // halt immediately: rounds 0..=2 and out.
        assert_eq!(run.metrics.rounds, 3);
        for l in &run.logics {
            assert_eq!(l.draws.len(), 3);
            // Self-sends were delivered: rounds 1 and 2 each saw one.
            assert_eq!(l.trace[1].1.len(), 1);
        }
    }

    #[test]
    fn round_budget_scales_with_policy() {
        let cfg = TransportConfig::default();
        assert!(cfg.round_budget(10) > 10 * (u64::from(cfg.max_retransmits) + 1));
        assert!(cfg.round_budget(0) > 0);
    }

    #[test]
    #[should_panic(expected = "backoff_cap")]
    fn invalid_config_is_rejected() {
        let cfg = TransportConfig {
            rto: 8,
            backoff_cap: 2,
            max_retransmits: 1,
        };
        let _ = Reliable::new(Recorder::new(NodeId::new(0), 1), cfg);
    }
}
