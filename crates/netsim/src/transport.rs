//! Reliable per-link transport: correct protocol execution over lossy
//! links.
//!
//! The paper's model (and [`crate::Simulator`]) assumes reliable
//! synchronous delivery, but [`crate::ChurnPlan`] injects exactly the
//! faults real sensor links exhibit — i.i.d. message loss and transient
//! outages — under which a bare protocol run silently computes a wrong
//! (possibly infeasible) result. This module closes that gap with a
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
//! The transport masks **message** loss (drops, outage windows); it does
//! not mask *node* crashes — a frame addressed to a crashed node that
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
//! The lossless path is untouched: a simulation without [`Reliable`] (and
//! a [`Reliable`] one without loss) behaves exactly as before — the
//! transport is pure opt-in.

use crate::{bits_for_ids, Context, Control, Envelope, Inbox, NodeLogic, Payload, SimError};
use ftclust_graphs::NodeId;
use std::collections::VecDeque;

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
    pub payloads: Vec<P>,
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
            bits += d.payloads.iter().map(Payload::bit_size).sum::<usize>();
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

    fn validate(&self) {
        assert!(self.rto >= 1, "rto must be at least 1 round");
        assert!(
            self.backoff_cap >= self.rto,
            "backoff_cap {} below rto {}",
            self.backoff_cap,
            self.rto
        );
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

/// An outbound frame awaiting acknowledgment.
#[derive(Debug)]
struct SentFrame<P> {
    seq: u64,
    halting: bool,
    payloads: Vec<P>,
    /// Transmissions so far; 0 = created this round, not yet on the wire.
    attempts: u32,
}

/// Per-neighbor ARQ state.
#[derive(Debug)]
struct Link<P> {
    peer: NodeId,
    // --- send side ---
    /// Frames sent (or queued) but not yet cumulatively acked, oldest
    /// first. Holds at most two entries: adjacent logical rounds.
    unacked: VecDeque<SentFrame<P>>,
    /// Highest cumulative ack received from the peer.
    acked: u64,
    /// Current (backed-off) retransmission timeout.
    rto_cur: u64,
    /// Physical round at which the oldest unacked frame may be
    /// retransmitted; `u64::MAX` when nothing is outstanding.
    due: u64,
    // --- receive side ---
    /// In-order bundles not yet consumed by the inner logic; the front
    /// is sequence `consumed`.
    ready: VecDeque<Vec<P>>,
    /// Out-of-order bundles with `seq > recv_next`.
    ooo: Vec<(u64, Vec<P>)>,
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
            unacked: VecDeque::new(),
            acked: 0,
            rto_cur: 0,
            due: u64::MAX,
            ready: VecDeque::new(),
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
    pending_self: Vec<(u64, Vec<L::Payload>)>,
    failure: Option<DeliveryFailure>,
    /// Lower bound on every link's `due`: no retransmit timer fires
    /// before this physical round.
    min_due: u64,
    /// A data frame arrived (an ack is owed) or frames were queued since
    /// the last send pass.
    send_pending: bool,
    /// The inner logic may be able to execute: data arrived or a round
    /// executed since `can_execute` last said no.
    maybe_ready: bool,
    /// Recycled buffers for the inner context and the per-link bundles.
    inner_outbox: Vec<Envelope<L::Payload>>,
    inner_inbox: Vec<Envelope<L::Payload>>,
    bundles: Vec<Vec<L::Payload>>,
}

impl<L: NodeLogic> Reliable<L> {
    /// Wraps `inner` with the given retransmission policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (`rto == 0` or
    /// `backoff_cap < rto`).
    pub fn new(inner: L, cfg: TransportConfig) -> Self {
        cfg.validate();
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
            send_pending: false,
            maybe_ready: true,
            inner_outbox: Vec::new(),
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

    /// True once the inner logic has executed its halting round.
    pub fn inner_halted(&self) -> bool {
        self.inner_halted
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

    /// Can the inner logic execute logical round `r` now? Round 0 needs
    /// no input; round `r > 0` needs the round-`(r - 1)` bundle from
    /// every neighbor that had not already halted before `r - 1`.
    fn can_execute(&self, r: u64) -> bool {
        if r == 0 {
            return true;
        }
        let prev = r - 1;
        self.links
            .iter()
            .all(|l| prev > l.peer_halt_seq || (l.consumed == prev && !l.ready.is_empty()))
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
        let mut outbox = std::mem::take(&mut self.inner_outbox);
        let inner_inbox = std::mem::take(&mut self.inner_inbox);
        outbox.clear();
        let mut inner_ctx = Context {
            me,
            round: r,
            topo: ctx.topo,
            rng: &mut *ctx.rng,
            outbox: &mut outbox,
            slot: None,
            transport: &mut *ctx.transport,
            tracing: ctx.tracing,
            trace: &mut *ctx.trace,
        };
        let control = self
            .inner
            .on_round(Inbox::from_slice(&inner_inbox), &mut inner_ctx);
        self.inner_halted = control == Control::Halt;
        self.local_round = r + 1;
        let mut self_msgs: Vec<L::Payload> = Vec::new();
        self.bundles.resize_with(self.links.len(), Vec::new);
        let mut cursor = 0;
        for env in outbox.drain(..) {
            if env.to == me {
                self_msgs.push(env.payload);
            } else {
                let Some(pos) = link_index(&self.links, env.to, cursor) else {
                    unreachable!("Context::send only accepts neighbors");
                };
                cursor = pos;
                self.bundles[pos].push(env.payload);
            }
        }
        if !self_msgs.is_empty() {
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
        let mut cursor = 0;
        for env in inbox {
            let Some(pos) = link_index(&self.links, env.from, cursor) else {
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
                link.need_ack = true;
                self.send_pending = true;
                if data.seq < link.recv_next || link.ooo.iter().any(|(s, _)| *s == data.seq) {
                    ctx.note_duplicate_suppressed();
                    continue;
                }
                if data.halting {
                    link.peer_halt_seq = data.seq;
                }
                self.maybe_ready = true;
                if data.seq != link.recv_next {
                    link.ooo.push((data.seq, data.payloads.clone()));
                    continue;
                }
                link.ready.push_back(data.payloads.clone());
                link.recv_next += 1;
                // Drain buffered frames the arrival put back in order.
                while let Some(i) = link.ooo.iter().position(|(s, _)| *s == link.recv_next) {
                    let (_, payloads) = link.ooo.swap_remove(i);
                    link.ready.push_back(payloads);
                    link.recv_next += 1;
                }
            }
        }

        // --- Advance the inner logic by at most one logical round. ---
        if self.maybe_ready && !self.inner_halted {
            if self.can_execute(self.local_round) {
                self.execute_round(me, ctx);
                self.send_pending = true;
            } else {
                self.maybe_ready = false;
            }
        }

        // --- Send: at most one frame per link per physical round. With
        // no frame queued, no ack owed and no timer due, every link would
        // stay silent, so the pass is skipped. ---
        if self.send_pending || now >= self.min_due {
            let mut min_due = u64::MAX;
            for link in &mut self.links {
                let ack = link.recv_next;
                if link.unacked.back().is_some_and(|f| f.attempts == 0) {
                    // Priority 1: first transmission of a frame created
                    // this round (always the newest entry).
                    let front_is_new = link.unacked.len() == 1;
                    let Some(frame) = link.unacked.back_mut() else {
                        unreachable!("just checked the back is non-empty");
                    };
                    frame.attempts = 1;
                    let msg = FrameMsg {
                        ack,
                        data: Some(FrameData {
                            seq: frame.seq,
                            halting: frame.halting,
                            payloads: frame.payloads.clone(),
                        }),
                    };
                    if front_is_new {
                        link.rto_cur = self.cfg.rto;
                        link.due = now + link.rto_cur;
                    }
                    link.need_ack = false;
                    ctx.send(link.peer, msg);
                } else if link.due <= now {
                    // Priority 2: retransmit the oldest unacked frame on
                    // timeout.
                    let Some(frame) = link.unacked.front_mut() else {
                        unreachable!("due is only finite with unacked frames");
                    };
                    if frame.attempts > self.cfg.max_retransmits {
                        // Budget exhausted: record the failure and
                        // withdraw from the network. The runner surfaces
                        // this as `SimError::DeliveryFailed`.
                        self.failure = Some(DeliveryFailure {
                            to: link.peer,
                            seq: frame.seq,
                            attempts: frame.attempts,
                        });
                        return Control::Halt;
                    }
                    frame.attempts += 1;
                    let msg = FrameMsg {
                        ack,
                        data: Some(FrameData {
                            seq: frame.seq,
                            halting: frame.halting,
                            payloads: frame.payloads.clone(),
                        }),
                    };
                    link.rto_cur = (link.rto_cur * 2).min(self.cfg.backoff_cap);
                    link.due = now + link.rto_cur;
                    link.need_ack = false;
                    ctx.note_retransmit();
                    ctx.send(link.peer, msg);
                } else if link.need_ack {
                    // Priority 3: a pure ack if data arrived and nothing
                    // else carried the acknowledgment.
                    link.need_ack = false;
                    ctx.note_ack();
                    ctx.send(link.peer, FrameMsg { ack, data: None });
                }
                min_due = min_due.min(link.due);
            }
            self.min_due = min_due;
            self.send_pending = false;
        }

        // --- Termination (see module docs). Only isolated nodes may
        // withdraw on their own: any node with neighbors must stay
        // responsive — re-acking retransmissions — until the runner
        // observes that every node is done and stops the simulation.
        // Halting unilaterally after any finite quiet period could
        // strand a peer whose retries were all lost (two generals).
        if self.inner_halted && self.links.is_empty() {
            return Control::Halt;
        }
        Control::Continue
    }
}

/// Position of `peer`'s link in the peer-sorted `links`. Inboxes and
/// outboxes arrive mostly in ascending peer order, so the search scans
/// forward from `hint` (the previous position) and falls back to a
/// binary search for the out-of-order rest (jittered envelopes are staged
/// ahead of the round's sorted traffic).
fn link_index<P>(links: &[Link<P>], peer: NodeId, hint: usize) -> Option<usize> {
    let ahead = links.get(hint..).unwrap_or_default();
    match ahead.iter().position(|l| l.peer >= peer) {
        Some(i) if ahead[i].peer == peer => Some(hint + i),
        _ => links.binary_search_by_key(&peer, |l| l.peer).ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, Run, Stack};
    use crate::{ChurnPlan, Simulator, Topology};
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
    /// transport layer under `churn`.
    fn reliable_run(
        g: &ftclust_graphs::Graph,
        seed: u64,
        rounds: u64,
        churn: ChurnPlan,
        cfg: TransportConfig,
    ) -> Result<Run<Recorder>, SimError> {
        Executor::new(Topology::from_graph(g), |v| Recorder::new(v, rounds), seed)
            .stack(Stack::new().churned(churn).transport(cfg))
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
            let run =
                reliable_run(&g, seed, 6, ChurnPlan::none(), TransportConfig::default()).unwrap();
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
            let run = reliable_run(
                &g,
                13,
                8,
                ChurnPlan::none().drop_probability(p),
                TransportConfig::default(),
            )
            .unwrap_or_else(|e| panic!("run at p = {p} failed: {e}"));
            assert_eq!(run.logics, direct, "execution diverged at p = {p}");
            assert!(
                run.metrics.retransmits > 0,
                "no retransmissions at p = {p}?"
            );
        }
    }

    #[test]
    fn transient_link_outage_is_masked() {
        // The only edge of a path(2) is down for 12 physical rounds —
        // shorter than the retransmit horizon, so the protocol stalls,
        // recovers, and finishes with the lossless result.
        let g = generators::path(2);
        let direct = direct_run(&g, 3, 5);
        let churn = ChurnPlan::none().link_outage(NodeId::new(0), NodeId::new(1), 2..14);
        let run = reliable_run(&g, 3, 5, churn, TransportConfig::default()).unwrap();
        assert_eq!(run.logics, direct);
        assert!(run.metrics.retransmits > 0);
        assert!(run.metrics.dropped_messages > 0);
        // The only pending work during the outage is the retransmit
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
        let err = reliable_run(&g, 0, 5, ChurnPlan::none().drop_probability(1.0), cfg).unwrap_err();
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
                let out = reliable_run(
                    &g,
                    23,
                    7,
                    ChurnPlan::none().drop_probability(0.15),
                    TransportConfig::default(),
                )
                .unwrap();
                (out.logics, out.metrics, out.logical_rounds)
            })
        };
        let baseline = run(1);
        assert!(baseline.1.retransmits > 0);
        for threads in [2usize, 7] {
            assert_eq!(run(threads), baseline, "diverged at {threads} threads");
        }
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
                payloads: vec![Num(3), Num(4)],
            }),
        };
        // 1 + ceil(log2 1002) + 1 + ceil(log2 1002) + 2 * 16.
        assert_eq!(frame.bit_size(), 1 + 10 + 1 + 10 + 32);
    }

    #[test]
    fn isolated_nodes_need_no_handshake() {
        let g = generators::empty(3);
        let run = reliable_run(&g, 0, 2, ChurnPlan::none(), TransportConfig::default()).unwrap();
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
