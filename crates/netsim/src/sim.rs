use crate::adversary::{stream_slot, AdversaryPlan, AdversaryState, Verdict};
use crate::arena::{DeliverySorter, InboxArena};
use crate::metrics::TransportCounters;
use crate::node::{Context, Outlet};
use crate::trace::{EventLog, TraceEvent};
use crate::{ChurnEvent, ChurnPlan, Control, Envelope, Metrics, NodeLogic, SimError, Topology};
use ftclust_graphs::NodeId;
use ftclust_par as par;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `SplitMix64` finalizer — mixes a master seed with a node id into an
/// independent stream seed (also the mixing primitive behind the
/// adversary's per-link streams, see [`crate::adversary`]).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic per-node random stream for a given master seed.
///
/// Both the message-passing protocols (via [`Context::rng`]) and the
/// in-memory engine implementations of the algorithms use this function, so
/// a protocol run and an engine run with the same seed draw identical
/// random numbers — experiment **E13** asserts their outputs are equal.
pub fn node_rng(master_seed: u64, node: NodeId) -> StdRng {
    StdRng::seed_from_u64(splitmix64(master_seed ^ splitmix64(node.raw() as u64 + 1)))
}

/// One worker's recycled round buffers. The simulator keeps one per
/// shard for the whole run: the thread count, and with it the shard
/// partition, is resolved once at construction.
struct ShardBuf<P> {
    /// Envelopes this shard's nodes sent this round, in node order.
    outbox: Vec<Envelope<P>>,
    /// Each `outbox` envelope's link, as a position in its sender's
    /// neighbour row ([`Outlet::Record`]); recorded only while an
    /// adversary needs it to find the link's stream.
    positions: Vec<u32>,
    /// Transport events noted by this shard's nodes; folded into
    /// [`Metrics`] sequentially after the parallel phase (sums are
    /// commutative, so the fold order cannot perturb determinism).
    counters: TransportCounters,
    /// Trace events noted by this shard's nodes; drained into the event log
    /// sequentially after the parallel phase, in shard index order —
    /// shards are contiguous ascending node ranges, so the merged stream
    /// is in node order regardless of the worker count.
    trace: Vec<TraceEvent>,
    /// Nodes this shard halted this round; folded into the simulator's
    /// running total sequentially after the parallel phase.
    halted: usize,
    /// This shard's publications this round, metered as `(messages,
    /// bits, largest message bits)`.
    published: (u64, u64, u64),
}

impl<P> ShardBuf<P> {
    fn new() -> Self {
        ShardBuf {
            outbox: Vec::new(),
            positions: Vec::new(),
            counters: TransportCounters::default(),
            trace: Vec::new(),
            halted: 0,
            published: (0, 0, 0),
        }
    }
}

/// One worker's contiguous share of a round: the node state it executes
/// (struct-of-arrays: logic, RNG, liveness and wake round live in
/// parallel slices, so the hot logic scan does not drag the cold RNG
/// state through the cache), its nodes' publication slots, and its
/// buffers.
struct StepShard<'t, L: NodeLogic> {
    start: usize,
    logics: &'t mut [L],
    rngs: &'t mut [StdRng],
    running: &'t mut [bool],
    wake: &'t mut [u64],
    slots: &'t mut [Option<L::Payload>],
    buf: &'t mut ShardBuf<L::Payload>,
}

/// Empties `v` and hands its allocation back as a vector of `U`. `Vec`'s
/// in-place `collect` keeps the buffer when `T` and `U` share a layout —
/// here they are one type at two lifetimes — so the per-round shard views
/// reuse one allocation for the whole run.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector was emptied"))
        .collect()
}

/// Executes a [`NodeLogic`] instance per node over a [`Topology`] in
/// synchronous rounds.
///
/// Messages sent in round `r` are delivered at the start of round `r + 1`.
/// The simulation is quiescent when every node has halted (or crashed).
/// See the [crate-level example](crate).
///
/// # Parallel execution
///
/// Each round, nodes are sharded into contiguous blocks executed on
/// [`ftclust_par::num_threads`] worker threads, as resolved when the
/// simulator is built (override with [`ftclust_par::with_threads`] around
/// construction or the `FTCLUST_THREADS` environment variable; `1` runs
/// fully inline). Every
/// node draws randomness only from its private stream ([`node_rng`]) and
/// reads only the previous round's frozen inboxes, and envelopes are
/// merged back **in sender order** before fault injection consumes the
/// shared fault stream — so metrics, message drops, delivery order and
/// final protocol states are **bit-for-bit identical** for every thread
/// count. See `DESIGN.md` §7.
///
/// # Fault injection and churn
///
/// A [`ChurnPlan`] drives live failures: scheduled crash/recovery events
/// and seeded-random churn are applied **at the start of each round** on
/// the sequential path (before node logic runs), and random message loss
/// is applied on the sequential merge path — so churn never perturbs
/// cross-thread determinism. Links cut for a window of rounds are an
/// [`AdversaryPlan::partition`](crate::AdversaryPlan::partition). A down
/// node neither executes nor receives; messages that arrive while it is down
/// are counted in [`Metrics::dead_on_arrival`]. A node that recovers
/// resumes with its protocol state intact (fail-recover with persistent
/// memory); a node that *halted* stays halted even if later "recovered".
///
/// # Memory layout
///
/// Node state is struct-of-arrays (`logics` / `rngs` / `running` /
/// `wake` in parallel vectors) and inboxes live in a double-buffered contiguous
/// arena indexed by a CSR-style offset table (the private `arena` module):
/// the merge phase counting-sorts each round's surviving envelopes by
/// recipient instead of pushing into per-node `Vec`s, and delivery is
/// pure slicing. A broadcast that is its sender's only output of the round
/// skips the sorter: it is published once per sender and receivers read
/// it in place through the adjacency ([`Context::broadcast`],
/// [`crate::Inbox`]). All buffers — the two arenas and their publication
/// slots, the sorter's partition blocks, the per-worker outboxes, and the
/// shard list — are
/// recycled across rounds, and the thread count is resolved once per
/// simulator, so steady-state rounds allocate nothing beyond what message
/// volume itself demands. See `DESIGN.md` §12.
pub struct Simulator<'a, L: NodeLogic> {
    topo: Topology<'a>,
    /// Per-node protocol state, indexed by node id (a structure of
    /// arrays with `rngs` and `running`).
    logics: Vec<L>,
    /// Per-node private random streams ([`node_rng`]).
    rngs: Vec<StdRng>,
    /// `running[i]` until node `i` halts (independent of liveness:
    /// a down node keeps its flag and resumes on recovery).
    running: Vec<bool>,
    /// `wake[i]`: before this round, node `i` is called only in rounds
    /// that deliver it a message ([`Control::Idle`]); 0 unless it asked.
    wake: Vec<u64>,
    /// Number of `true` entries in `running` — halting is the only
    /// transition, counted on the sequential path, so quiescence on
    /// churn-free runs is O(1).
    running_total: usize,
    /// The round currently being read: inbox slices handed to node logic.
    inbox: InboxArena<L::Payload>,
    /// Messages to deliver in the upcoming round (swapped into `inbox` at
    /// the start of the next step).
    pending: InboxArena<L::Payload>,
    /// Recycled scratch of the sorted scatter that builds `pending`.
    sorter: DeliverySorter<L::Payload>,
    /// The node range of each worker shard: [`par::split_ranges`] over
    /// the thread count [`par::num_threads`] gave at construction.
    shard_ranges: Vec<std::ops::Range<usize>>,
    /// Recycled per-shard buffers, parallel to `shard_ranges`.
    bufs: Vec<ShardBuf<L::Payload>>,
    /// The allocation phase 1 builds its shard views in (empty between
    /// rounds; see [`recycle`]).
    shard_views: Vec<StepShard<'a, L>>,
    /// The structured trace being recorded; `None` (tracing disabled)
    /// unless [`Simulator::set_event_log`] attached one.
    trace: Option<EventLog>,
    metrics: Metrics,
    churn: ChurnPlan,
    /// `churn`'s scheduled events, sorted by round; `next_event` is the
    /// cursor of the first not-yet-applied event.
    events: Vec<(u64, NodeId, ChurnEvent)>,
    next_event: usize,
    /// Current liveness of every node: `down[i]` once a crash (scheduled
    /// or random) has taken effect, cleared again on recovery.
    down: Vec<bool>,
    /// Number of `true` entries in `down`, maintained at every
    /// transition — churn-free runs skip the per-node delivery
    /// accounting scan entirely.
    down_count: usize,
    fault_rng: StdRng,
    /// Adversarial delivery faults (reorder/duplicate/corrupt/partition);
    /// `None` keeps the fault-free merge fast path. See
    /// [`Simulator::set_adversary`].
    adversary: Option<AdversaryState<L::Payload>>,
    round: u64,
    /// Cached quiescence, recomputed once per step (state only changes in
    /// [`Simulator::step`]).
    quiescent: bool,
}

impl<L: NodeLogic> std::fmt::Debug for Simulator<'_, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.logics.len())
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl<'a, L: NodeLogic> Simulator<'a, L> {
    /// Creates a simulator with one logic instance per node, built by
    /// `make_logic`, and no faults.
    ///
    /// `master_seed` drives all node-local randomness via [`node_rng`].
    pub fn new(topo: Topology<'a>, make_logic: impl FnMut(NodeId) -> L, master_seed: u64) -> Self {
        Self::with_churn(topo, make_logic, master_seed, ChurnPlan::none())
    }

    /// Creates a simulator with live churn injection: scheduled and
    /// seeded-random crash/**recovery** events and random message loss.
    pub fn with_churn(
        topo: Topology<'a>,
        mut make_logic: impl FnMut(NodeId) -> L,
        master_seed: u64,
        churn: ChurnPlan,
    ) -> Self {
        let n = topo.graph().node_count();
        let logics = (0..n).map(|i| make_logic(NodeId::new(i as u32))).collect();
        let rngs = (0..n)
            .map(|i| node_rng(master_seed, NodeId::new(i as u32)))
            .collect();
        let events = churn.scheduled_events();
        let shard_ranges = par::split_ranges(n, par::num_threads());
        let mut sim = Simulator {
            topo,
            logics,
            rngs,
            running: vec![true; n],
            wake: vec![0; n],
            running_total: n,
            inbox: InboxArena::new(n),
            pending: InboxArena::new(n),
            sorter: DeliverySorter::new(n),
            bufs: shard_ranges.iter().map(|_| ShardBuf::new()).collect(),
            shard_views: Vec::with_capacity(shard_ranges.len()),
            shard_ranges,
            trace: None,
            metrics: Metrics::default(),
            churn,
            events,
            next_event: 0,
            down: vec![false; n],
            down_count: 0,
            fault_rng: StdRng::seed_from_u64(splitmix64(master_seed ^ 0xFA17_FA17_FA17_FA17)),
            adversary: None,
            round: 0,
            quiescent: false,
        };
        // Round-0 events take effect before anything runs, so the initial
        // quiescence/liveness views already reflect them.
        sim.apply_scheduled_churn();
        sim.quiescent = sim.compute_quiescent();
        sim
    }

    /// The current round number (the next round to execute).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Returns `true` once every node has halted or gone down for good.
    ///
    /// A down node only counts as quiescent if it can never wake again
    /// ([`ChurnPlan::can_wake`]): a node with a recovery still scheduled
    /// keeps the simulation alive even while everything else is silent.
    ///
    /// O(1): the answer is cached and refreshed at the end of every
    /// [`Simulator::step`] (node and churn state only change there).
    pub fn is_quiescent(&self) -> bool {
        self.quiescent
    }

    /// The full quiescence scan backing the [`Simulator::is_quiescent`]
    /// cache. With nothing down the answer is the maintained running
    /// total; the per-node `can_wake` scan only runs under churn.
    fn compute_quiescent(&self) -> bool {
        if self.down_count == 0 {
            return self.running_total == 0;
        }
        self.running.iter().enumerate().all(|(i, &running)| {
            !running || (self.down[i] && !self.churn.can_wake(NodeId::new(i as u32), self.round))
        })
    }

    /// Number of nodes that have not halted, down ones included. O(1),
    /// and it only ever falls: a step that lowers it halted some node.
    pub(crate) fn unhalted_count(&self) -> usize {
        self.running_total
    }

    /// Number of nodes still running (not halted, not down).
    pub fn running_count(&self) -> usize {
        self.running
            .iter()
            .zip(&self.down)
            .filter(|(&running, &down)| running && !down)
            .count()
    }

    /// Current liveness of every node, indexed by node id: `true` means
    /// down. This is the ground truth distributed failure detectors are
    /// validated against in experiment E14.
    pub fn down_mask(&self) -> &[bool] {
        &self.down
    }

    /// Messages sent but not yet delivered, dropped, dead on arrival, or
    /// corrupted — the staged next-round deliveries (published broadcasts
    /// included) and envelopes an adversary is holding back as delay
    /// jitter. Closes the conservation law `messages ==
    /// delivered_messages + dropped_messages + dead_on_arrival +
    /// corrupted + in_flight_messages`.
    pub fn in_flight_messages(&self) -> u64 {
        self.pending.total()
            + self
                .adversary
                .as_ref()
                .map_or(0, AdversaryState::delayed_total)
    }

    /// Applies every scheduled churn event due at the current round.
    /// Same-round events apply in plan order (later entries win). Events
    /// naming out-of-range nodes are ignored.
    fn apply_scheduled_churn(&mut self) {
        while let Some(&(r, v, ev)) = self.events.get(self.next_event) {
            if r > self.round {
                break;
            }
            self.next_event += 1;
            if v.index() < self.down.len() {
                let now_down = ev == ChurnEvent::Crash;
                if self.down[v.index()] != now_down {
                    if let Some(log) = &mut self.trace {
                        log.record(
                            self.round,
                            if now_down {
                                TraceEvent::Crash { node: v }
                            } else {
                                TraceEvent::Recover { node: v }
                            },
                        );
                    }
                    if now_down {
                        self.down_count += 1;
                    } else {
                        self.down_count -= 1;
                    }
                }
                self.down[v.index()] = now_down;
            }
        }
    }

    /// One seeded-random churn pass: every node draws exactly one uniform
    /// from the shared fault stream (in node order), so the stream — and
    /// with it cross-thread determinism — is independent of which nodes
    /// happen to be up. No-op unless random churn is configured.
    fn apply_random_churn(&mut self) {
        let Some(rc) = self.churn.random() else {
            return;
        };
        for (i, down) in self.down.iter_mut().enumerate() {
            let draw = self.fault_rng.random::<f64>();
            let was = *down;
            if *down {
                *down = !(rc.recover_prob > 0.0 && draw < rc.recover_prob);
            } else {
                *down = rc.crash_prob > 0.0 && draw < rc.crash_prob;
            }
            if was != *down {
                if *down {
                    self.down_count += 1;
                } else {
                    self.down_count -= 1;
                }
                if let Some(log) = &mut self.trace {
                    let node = NodeId::new(i as u32);
                    log.record(
                        self.round,
                        if *down {
                            TraceEvent::Crash { node }
                        } else {
                            TraceEvent::Recover { node }
                        },
                    );
                }
            }
        }
    }

    /// Executes one synchronous round. Returns `false` if the network was
    /// already quiescent (in which case nothing happens).
    ///
    /// The round runs in four phases: (0) churn for this round is applied
    /// sequentially — scheduled events, then one random-churn draw per
    /// node — and pending deliveries to nodes that are now down are
    /// written off as dead on arrival (on churn-free untraced rounds the
    /// whole accounting collapses to one addition); (1) node logic
    /// executes on worker threads over contiguous node shards, skipping
    /// a node that went idle ([`Control::Idle`]) and has no message; each
    /// node reads its inbox in place through a view of the shared arena slice,
    /// merged, when neighbours published last round, with their
    /// publication slots in sender order; it appends
    /// envelopes to its shard's recycled outbox in node order, or, when
    /// no per-envelope layer is engaged and its only output is one
    /// broadcast, publishes that broadcast in its slot, which the shard
    /// meters; (2) a sequential merge walks the shard outboxes in node
    /// order — on the fault-free untraced fast path it batch-meters the
    /// envelopes and stages them for the sorted scatter; with tracing,
    /// loss or an adversary it traces and draws the shared fault stream
    /// per envelope, exactly in the order the serial engine used, so
    /// every thread count yields identical state, and meters the round
    /// with the same batch fold — and (3) the staged
    /// survivors are counting-sorted into the next round's contiguous
    /// inbox arena and the quiescence cache is refreshed.
    pub fn step(&mut self) -> bool {
        if self.quiescent {
            return false;
        }
        let round = self.round;
        let n = self.logics.len();
        // Hoisted once per round: every trace emission below is behind
        // this boolean or the log's `Option`, so an untraced round costs
        // one branch per event site and constructs no events.
        let tracing = self.trace.is_some();
        let (msgs_before, bits_before) = (self.metrics.messages, self.metrics.total_bits);
        if let Some(log) = &mut self.trace {
            log.record(round, TraceEvent::RoundBegin);
        }
        // Phase 0: churn. Strictly sequential and ahead of node logic, so
        // every thread sees the same frozen liveness for this round.
        self.apply_scheduled_churn();
        self.apply_random_churn();
        // Rotate arenas: `pending` (this round's deliveries) becomes the
        // read-only inbox arena; the consumed arena from last round is
        // rebuilt by the merge below, keeping its capacity.
        std::mem::swap(&mut self.pending, &mut self.inbox);
        if self.down_count == 0 && !tracing {
            // Everyone is up: every queued message is delivered.
            self.metrics.delivered_messages += self.inbox.total();
        } else {
            let graph = self.topo.graph();
            for i in 0..n {
                let node = NodeId::new(i as u32);
                let count = self.inbox.count(i, graph.neighbors(node));
                if count == 0 {
                    continue;
                }
                if self.down[i] {
                    // Receiver went down between send and delivery. Its
                    // inbox is never read (down nodes don't run).
                    self.metrics.dead_on_arrival += count;
                    if let Some(log) = &mut self.trace {
                        log.record(round, TraceEvent::DeadOnArrival { node, count });
                    }
                } else {
                    self.metrics.delivered_messages += count;
                    if let Some(log) = &mut self.trace {
                        log.record(round, TraceEvent::Deliver { node, count });
                    }
                }
            }
        }
        self.metrics.begin_round();
        // Every message stays an envelope while a layer has to see or
        // decide it one at a time; otherwise lone broadcasts are
        // published (see `Context::broadcast`).
        let envelope_free = !tracing && self.churn.drop_prob() == 0.0 && self.adversary.is_none();
        let publish = envelope_free && self.events.is_empty() && self.churn.random().is_none();
        {
            // Phase 1: execute node logic, sharded. Shared state is
            // read-only (topology, liveness, the frozen inbox arena);
            // each shard owns its slices of the SoA node state and of the
            // publication slots, and its buffers, exclusively.
            let inbox: &InboxArena<L::Payload> = &self.inbox;
            let topo = self.topo;
            let down: &[bool] = &self.down;
            let record = self.adversary.is_some();
            let mut shards: Vec<StepShard<'_, L>> = std::mem::take(&mut self.shard_views);
            let mut logics_rest: &mut [L] = &mut self.logics;
            let mut rngs_rest: &mut [StdRng] = &mut self.rngs;
            let mut running_rest: &mut [bool] = &mut self.running;
            let mut wake_rest: &mut [u64] = &mut self.wake;
            let mut slots_rest = self.pending.open_slots();
            for (r, buf) in self.shard_ranges.iter().zip(self.bufs.iter_mut()) {
                let len = r.end - r.start;
                let (logics_head, logics_tail) = logics_rest.split_at_mut(len);
                logics_rest = logics_tail;
                let (rngs_head, rngs_tail) = rngs_rest.split_at_mut(len);
                rngs_rest = rngs_tail;
                let (running_head, running_tail) = running_rest.split_at_mut(len);
                running_rest = running_tail;
                let (wake_head, wake_tail) = wake_rest.split_at_mut(len);
                wake_rest = wake_tail;
                let (slots_head, slots_tail) = slots_rest.split_at_mut(len);
                slots_rest = slots_tail;
                shards.push(StepShard {
                    start: r.start,
                    logics: logics_head,
                    rngs: rngs_head,
                    running: running_head,
                    wake: wake_head,
                    slots: slots_head,
                    buf,
                });
            }
            par::par_each_mut(&mut shards, |_, shard| {
                let buf = &mut *shard.buf;
                buf.outbox.clear();
                buf.positions.clear();
                buf.counters.clear();
                buf.trace.clear();
                buf.halted = 0;
                buf.published = (0, 0, 0);
                for j in 0..shard.logics.len() {
                    let i = shard.start + j;
                    if down[i] || !shard.running[j] {
                        continue;
                    }
                    let me = NodeId::new(i as u32);
                    let neighbors = topo.graph().neighbors(me);
                    let received = inbox.view(i, neighbors);
                    if shard.wake[j] > round && received.is_empty() {
                        // An idle round: the logic promised it would do
                        // nothing (see `NodeLogic`), so it is not called.
                        continue;
                    }
                    let mut ctx = Context {
                        me,
                        round,
                        topo,
                        rng: &mut shard.rngs[j],
                        outbox: &mut buf.outbox,
                        // A degree-0 broadcast sends nothing on either
                        // path; keeping it out of the slots makes
                        // `published_total > 0` mean "some slot is set".
                        outlet: if publish && !neighbors.is_empty() {
                            Outlet::Publish(&mut shard.slots[j])
                        } else if record {
                            Outlet::Record(&mut buf.positions)
                        } else {
                            Outlet::Envelopes
                        },
                        transport: &mut buf.counters,
                        tracing,
                        trace: &mut buf.trace,
                        send_hint: 0,
                    };
                    let control = shard.logics[j].on_round(received, &mut ctx);
                    let published = if publish {
                        shard.slots[j].as_ref()
                    } else {
                        None
                    };
                    if let Some(payload) = published {
                        // One message per neighbour, exactly as `deg`
                        // envelopes would have been metered.
                        let deg = neighbors.len() as u64;
                        let b = crate::Payload::bit_size(payload) as u64;
                        let (count, bits, max_bits) = &mut buf.published;
                        *count += deg;
                        *bits += deg * b;
                        *max_bits = (*max_bits).max(b);
                    }
                    shard.wake[j] = match control {
                        Control::Idle { until } => until,
                        _ => 0,
                    };
                    if control == Control::Halt {
                        shard.running[j] = false;
                        buf.halted += 1;
                    }
                }
            });
            self.shard_views = recycle(shards);
        }
        // Phase 2: sequential merge in sender order — metrics and the
        // shared fault stream consume envelopes exactly as the serial
        // engine did, and survivors are staged for the sorted scatter.
        // Dead-on-arrival is decided at *delivery* time (phase 0 of the
        // next round), so every sent message is accounted for.
        let mut published = (0u64, 0u64, 0u64);
        for buf in &self.bufs {
            self.running_total -= buf.halted;
            self.metrics.absorb_transport(&buf.counters);
            published.0 += buf.published.0;
            published.1 += buf.published.1;
            published.2 = published.2.max(buf.published.2);
        }
        self.pending.set_published_total(published.0);
        // Drain the per-shard trace buffers in shard index order: shards
        // are contiguous ascending node ranges, so the merged event
        // stream is in node order for every worker count.
        if let Some(log) = &mut self.trace {
            for buf in &mut self.bufs {
                for ev in buf.trace.drain(..) {
                    log.record(round, ev);
                }
            }
        }
        // Stage jittered envelopes whose hold expires this round, ahead
        // of the fresh outboxes. They were metered, traced and
        // adversary-decided at injection, so staging is a plain push;
        // delivery happens at phase 0 of the next round like any other
        // staged envelope.
        if let Some(adv) = &mut self.adversary {
            adv.stage_due(round, |env| self.sorter.push(env));
        }
        if envelope_free {
            // Fast path: no tracing and no per-envelope fault decisions —
            // meter the batch, publications included, with three integer
            // folds (identical totals to per-envelope metering) and stage
            // everything.
            let (mut count, mut bits, mut max_bits) = published;
            for buf in &mut self.bufs {
                for env in buf.outbox.drain(..) {
                    let b = crate::Payload::bit_size(&env.payload) as u64;
                    count += 1;
                    bits += b;
                    max_bits = max_bits.max(b);
                    self.sorter.push(env);
                }
            }
            self.metrics.record_sends(count, bits, max_bits);
        } else {
            debug_assert_eq!(published.0, 0, "publication outside the fast path");
            // Metered like the fast path, with one fold for the round;
            // network duplicates count as sends too.
            let (mut count, mut total_bits, mut max_bits) = (0u64, 0u64, 0u64);
            for buf in &mut self.bufs {
                // Each envelope's stream slot is read off `positions` by
                // its place in the outbox, so the two must stay in step.
                debug_assert!(
                    self.adversary.is_none() || buf.positions.len() == buf.outbox.len(),
                    "{} positions recorded for {} envelopes",
                    buf.positions.len(),
                    buf.outbox.len()
                );
                let mut positions = buf.positions.drain(..);
                for env in buf.outbox.drain(..) {
                    let pos = positions.next();
                    let bits = crate::Payload::bit_size(&env.payload) as u64;
                    count += 1;
                    total_bits += bits;
                    max_bits = max_bits.max(bits);
                    if let Some(log) = &mut self.trace {
                        log.record(
                            round,
                            TraceEvent::Send {
                                from: env.from,
                                to: env.to,
                                bits,
                            },
                        );
                    }
                    if self.churn.drop_prob() > 0.0
                        && self.fault_rng.random::<f64>() < self.churn.drop_prob()
                    {
                        self.metrics.dropped_messages += 1;
                        if let Some(log) = &mut self.trace {
                            log.record(
                                round,
                                TraceEvent::Drop {
                                    from: env.from,
                                    to: env.to,
                                },
                            );
                        }
                        continue;
                    }
                    // Adversarial delivery faults apply to the envelopes
                    // that survived churn, drawn per-link in the same
                    // global sender order.
                    if let Some(adv) = &mut self.adversary {
                        let Some(pos) = pos else {
                            unreachable!("sends are positioned while an adversary runs");
                        };
                        let slot = stream_slot(self.topo.graph(), env.from, pos);
                        match adv.decide_at(slot, env.from, env.to, round) {
                            Verdict::Cut => {
                                self.metrics.dropped_messages += 1;
                                if let Some(log) = &mut self.trace {
                                    log.record(
                                        round,
                                        TraceEvent::Drop {
                                            from: env.from,
                                            to: env.to,
                                        },
                                    );
                                }
                                continue;
                            }
                            Verdict::Corrupt => {
                                // The receiver's frame checksum detects
                                // the flipped bits and erases the frame:
                                // loss-shaped, but accounted separately.
                                self.metrics.corrupted += 1;
                                if let Some(log) = &mut self.trace {
                                    log.record(
                                        round,
                                        TraceEvent::Corrupted {
                                            from: env.from,
                                            to: env.to,
                                        },
                                    );
                                }
                                continue;
                            }
                            Verdict::Deliver { duplicate, delay } => {
                                if duplicate {
                                    // The extra copy is real metered wire
                                    // traffic; it rides on time even when
                                    // the original is jittered.
                                    let copy = env.clone();
                                    count += 1;
                                    total_bits += bits;
                                    self.metrics.net_duplicated += 1;
                                    if let Some(log) = &mut self.trace {
                                        log.record(
                                            round,
                                            TraceEvent::Send {
                                                from: copy.from,
                                                to: copy.to,
                                                bits,
                                            },
                                        );
                                        log.record(
                                            round,
                                            TraceEvent::NetDuplicated {
                                                from: copy.from,
                                                to: copy.to,
                                            },
                                        );
                                    }
                                    self.sorter.push(copy);
                                }
                                if delay > 0 {
                                    adv.push_delayed(round + delay, env);
                                    continue;
                                }
                            }
                        }
                    }
                    self.sorter.push(env);
                }
            }
            self.metrics.record_sends(count, total_bits, max_bits);
        }
        // Phase 3: counting-sort the staged survivors by recipient into
        // the next round's contiguous arena and refresh caches.
        self.sorter.finish(n, &mut self.pending);
        if let Some(log) = &mut self.trace {
            log.record(
                round,
                TraceEvent::RoundEnd {
                    messages: self.metrics.messages - msgs_before,
                    bits: self.metrics.total_bits - bits_before,
                },
            );
        }
        self.round += 1;
        self.quiescent = self.compute_quiescent();
        true
    }

    /// Runs rounds until quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimitExceeded`] if the protocol has not
    /// quiesced after `max_rounds` rounds.
    pub fn run(&mut self, max_rounds: u64) -> Result<&Metrics, SimError> {
        while self.step() {
            if self.round >= max_rounds && !self.is_quiescent() {
                return Err(self.round_limit_exceeded(max_rounds));
            }
        }
        Ok(&self.metrics)
    }

    /// The error of a run still going at round `limit`.
    pub(crate) fn round_limit_exceeded(&self, limit: u64) -> SimError {
        SimError::RoundLimitExceeded {
            limit,
            round: self.round,
            still_running: self.running_count(),
            in_flight: self.in_flight_messages(),
        }
    }

    /// The protocol state of node `v` (e.g. to read out the result after a
    /// run).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn logic(&self, v: NodeId) -> &L {
        &self.logics[v.index()]
    }

    /// Iterator over all node states in id order.
    pub fn logics(&self) -> impl Iterator<Item = &L> {
        self.logics.iter()
    }

    /// Consumes the simulator and returns the node states in id order
    /// (e.g. to unwrap [`crate::transport::Reliable`] layers after a run).
    pub fn into_logics(self) -> Vec<L> {
        self.logics
    }

    /// Communication metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Starts recording into `log`, replacing any log being recorded.
    ///
    /// Round-0 scheduled churn is applied at construction, before any
    /// log can observe it, so a baseline [`TraceEvent::Crash`] is
    /// recorded for every node that is already down — the recorded
    /// trace is self-contained.
    pub fn set_event_log(&mut self, mut log: EventLog) {
        for (i, &down) in self.down.iter().enumerate() {
            if down {
                log.record(
                    self.round,
                    TraceEvent::Crash {
                        node: NodeId::new(i as u32),
                    },
                );
            }
        }
        self.trace = Some(log);
    }

    /// Takes the recorded event log out, ending the recording (`None`
    /// when nothing was being recorded).
    pub fn take_event_log(&mut self) -> Option<EventLog> {
        self.trace.take()
    }

    /// Attaches an adversarial delivery layer (see [`crate::adversary`]):
    /// from now on every message surviving churn is additionally subject
    /// to the plan's partitions, corruption, duplication and delay
    /// jitter, decided on the sequential merge path from per-link RNG
    /// streams — determinism at every thread count is preserved.
    ///
    /// An inert plan ([`AdversaryPlan::is_active`] is `false`) is not
    /// installed at all, keeping the fault-free merge fast path.
    pub fn set_adversary(&mut self, plan: AdversaryPlan) {
        if plan.is_active() {
            self.adversary = Some(AdversaryState::new(plan, self.topo.graph(), self.round));
        }
    }

    /// Opens a named protocol phase span at the current round. Only the
    /// executor's span walker calls this, with names from a phase plan
    /// it checked against [`crate::trace::REGISTERED_SPANS`]. No-op when
    /// no log is being recorded.
    pub(crate) fn span_enter(&mut self, name: &'static str, arg: Option<u64>) {
        if let Some(log) = &mut self.trace {
            log.record(self.round, TraceEvent::SpanEnter { name, arg });
        }
    }

    /// Closes the innermost open phase span (see
    /// [`Simulator::span_enter`]); `name`/`arg` must mirror the matching
    /// enter.
    pub(crate) fn span_exit(&mut self, name: &'static str, arg: Option<u64>) {
        if let Some(log) = &mut self.trace {
            log.record(self.round, TraceEvent::SpanExit { name, arg });
        }
    }

    /// The topology the simulation runs on.
    pub fn topology(&self) -> Topology<'a> {
        self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bits_for_ids, Inbox, Payload};
    use ftclust_graphs::generators;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    struct Num(u64);
    impl Payload for Num {
        fn bit_size(&self) -> usize {
            bits_for_ids(1 << 16)
        }
    }

    /// Broadcasts its id for `rounds` rounds, accumulating the set of ids
    /// heard.
    struct Gossip {
        heard: Vec<u64>,
        rounds: u64,
    }
    impl NodeLogic for Gossip {
        type Payload = Num;
        fn on_round(&mut self, inbox: Inbox<'_, Num>, ctx: &mut Context<'_, Num>) -> Control {
            for e in inbox {
                if !self.heard.contains(&e.payload.0) {
                    self.heard.push(e.payload.0);
                }
            }
            if ctx.round() >= self.rounds {
                return Control::Halt;
            }
            ctx.broadcast(Num(ctx.me().raw() as u64));
            Control::Continue
        }
    }

    /// A message tag: sender, send round and emission index.
    #[derive(Clone, Debug, PartialEq)]
    struct Tag(u32, u64, u32);
    impl Payload for Tag {
        fn bit_size(&self) -> usize {
            1
        }
    }

    /// Sends awkwardly ordered unicasts for `send_rounds` rounds, then
    /// listens until delayed copies are in; records both sides.
    struct Scatter {
        send_rounds: u64,
        halt_round: u64,
        /// `(to, round)` of every send, in emission order.
        sent: Vec<(NodeId, u64)>,
        /// `(tag, arrival round)` of every message received.
        received: Vec<(Tag, u64)>,
    }
    impl NodeLogic for Scatter {
        type Payload = Tag;
        fn on_round(&mut self, inbox: Inbox<'_, Tag>, ctx: &mut Context<'_, Tag>) -> Control {
            let round = ctx.round();
            for e in inbox {
                self.received.push((e.payload.clone(), round));
            }
            if round >= self.halt_round {
                return Control::Halt;
            }
            if round < self.send_rounds {
                let me = ctx.me();
                let row = ctx.neighbors();
                // Descending order, a repeated unicast to the lowest
                // neighbour, a self-send, then the highest again.
                let order = row
                    .iter()
                    .rev()
                    .chain(row.first())
                    .chain(row.first())
                    .chain([&me])
                    .chain(row.last());
                for &to in order {
                    let k = self.sent.len() as u32;
                    ctx.send(to, Tag(me.raw(), round, k));
                    self.sent.push((to, round));
                }
            }
            Control::Continue
        }
    }

    #[test]
    fn chaos_verdicts_replay_each_link_stream_in_isolation() {
        let g = generators::gnp(24, 0.3, 8);
        let max_delay = 3;
        let plan = AdversaryPlan::new(17)
            .jitter(0.3, max_delay)
            .duplicate(0.3)
            .corrupt(0.2);
        let (send_rounds, halt_round) = (6, 6 + max_delay + 1);
        let mut sim = Simulator::new(
            Topology::from_graph(&g),
            |_| Scatter {
                send_rounds,
                halt_round,
                sent: Vec::new(),
                received: Vec::new(),
            },
            3,
        );
        sim.set_adversary(plan.clone());
        sim.run(halt_round + 2).unwrap();
        let m = sim.metrics();
        assert!(
            m.corrupted > 0 && m.net_duplicated > 0,
            "chaos too mild: {m:?}"
        );
        let mut delayed = false;
        for u in g.nodes() {
            let sender = sim.logic(u);
            let mut links: Vec<NodeId> = sender.sent.iter().map(|&(to, _)| to).collect();
            links.sort_unstable();
            links.dedup();
            for to in links {
                // The verdicts this link's sends met, read off what the
                // receiver got: nothing (corrupted), one or two copies,
                // the last one late by the delay.
                let inbox = &sim.logic(to).received;
                let mut seen = Vec::new();
                let mut replay: AdversaryState<Tag> = AdversaryState::new(plan.clone(), &g, 0);
                let mut expected = Vec::new();
                for (k, &(_, round)) in sender.sent.iter().enumerate().filter(|(_, s)| s.0 == to) {
                    let tag = Tag(u.raw(), round, k as u32);
                    let arrivals: Vec<u64> = inbox
                        .iter()
                        .filter(|(t, _)| *t == tag)
                        .map(|&(_, at)| at)
                        .collect();
                    seen.push(match arrivals.last() {
                        None => Verdict::Corrupt,
                        Some(&at) => Verdict::Deliver {
                            duplicate: arrivals.len() == 2,
                            delay: at - round - 1,
                        },
                    });
                    expected.push(replay.decide(&g, u, to, round));
                }
                delayed |= seen
                    .iter()
                    .any(|v| matches!(v, Verdict::Deliver { delay, .. } if *delay > 0));
                assert_eq!(seen, expected, "link {u} → {to}");
            }
        }
        assert!(delayed, "no send was delayed");
    }

    #[test]
    fn messages_delivered_next_round() {
        let g = generators::path(2);
        let topo = Topology::from_graph(&g);
        let mut sim = Simulator::new(
            topo,
            |_| Gossip {
                heard: vec![],
                rounds: 2,
            },
            0,
        );
        sim.step(); // round 0: both send, nothing received yet
        assert!(sim.logic(NodeId::new(0)).heard.is_empty());
        sim.step(); // round 1: both receive
        assert_eq!(sim.logic(NodeId::new(0)).heard, vec![1]);
        assert_eq!(sim.logic(NodeId::new(1)).heard, vec![0]);
    }

    #[test]
    fn run_reaches_quiescence_and_counts() {
        let g = generators::complete(5);
        let topo = Topology::from_graph(&g);
        let mut sim = Simulator::new(
            topo,
            |_| Gossip {
                heard: vec![],
                rounds: 3,
            },
            0,
        );
        let metrics = sim.run(100).unwrap().clone();
        // Rounds 0..=3 execute (round 3 is the halting round).
        assert_eq!(metrics.rounds, 4);
        // Each of rounds 0,1,2 sends 5*4 messages; the halting round sends 0.
        assert_eq!(metrics.messages, 3 * 20);
        assert_eq!(metrics.per_round_messages, vec![20, 20, 20, 0]);
        assert_eq!(metrics.max_message_bits, 16);
        assert_eq!(metrics.total_bits, 60 * 16);
        assert!(sim.is_quiescent());
        assert_eq!(sim.running_count(), 0);
        // Everyone heard everyone.
        for l in sim.logics() {
            assert_eq!(l.heard.len(), 4);
        }
    }

    #[test]
    fn round_limit_is_enforced() {
        struct Forever;
        impl NodeLogic for Forever {
            type Payload = Num;
            fn on_round(&mut self, _: Inbox<'_, Num>, _: &mut Context<'_, Num>) -> Control {
                Control::Continue
            }
        }
        let g = generators::path(3);
        let topo = Topology::from_graph(&g);
        let mut sim = Simulator::new(topo, |_| Forever, 0);
        let err = sim.run(5).unwrap_err();
        assert_eq!(
            err,
            SimError::RoundLimitExceeded {
                limit: 5,
                round: 5,
                still_running: 3,
                in_flight: 0
            }
        );
    }

    #[test]
    fn round_limit_error_reports_in_flight_backlog() {
        // Regression (PR 4): the error payload must carry the round and
        // the in-flight count, so a livelocked-but-chatty protocol is
        // distinguishable from a silently spinning one. `Gossip` with a
        // huge halt round keeps broadcasting: on a path of 3 nodes, 4
        // messages are in flight when the limit hits.
        let g = generators::path(3);
        let topo = Topology::from_graph(&g);
        let mut sim = Simulator::new(
            topo,
            |_| Gossip {
                heard: vec![],
                rounds: 1_000,
            },
            0,
        );
        let err = sim.run(5).unwrap_err();
        assert_eq!(
            err,
            SimError::RoundLimitExceeded {
                limit: 5,
                round: 5,
                still_running: 3,
                in_flight: 4
            }
        );
    }

    #[test]
    fn crashed_node_is_silent() {
        let g = generators::path(2);
        let topo = Topology::from_graph(&g);
        let churn = ChurnPlan::none().crash(NodeId::new(1), 0);
        let mut sim = Simulator::with_churn(
            topo,
            |_| Gossip {
                heard: vec![],
                rounds: 3,
            },
            0,
            churn,
        );
        sim.run(100).unwrap();
        // Node 0 never hears from the crashed node 1.
        assert!(sim.logic(NodeId::new(0)).heard.is_empty());
    }

    #[test]
    fn crash_mid_run_stops_participation() {
        let g = generators::path(2);
        let topo = Topology::from_graph(&g);
        // Node 1 crashes at round 1: its round-0 messages are dead on
        // arrival (receivers crashed at 1 receive them; here node 0 is fine
        // so it receives the round-0 message at round 1).
        let churn = ChurnPlan::none().crash(NodeId::new(1), 1);
        let mut sim = Simulator::with_churn(
            topo,
            |_| Gossip {
                heard: vec![],
                rounds: 5,
            },
            0,
            churn,
        );
        sim.run(100).unwrap();
        assert_eq!(sim.logic(NodeId::new(0)).heard, vec![1]);
    }

    #[test]
    fn full_message_loss_blocks_gossip() {
        let g = generators::complete(4);
        let topo = Topology::from_graph(&g);
        let churn = ChurnPlan::none().drop_probability(1.0);
        let mut sim = Simulator::with_churn(
            topo,
            |_| Gossip {
                heard: vec![],
                rounds: 2,
            },
            0,
            churn,
        );
        let m = sim.run(100).unwrap();
        assert_eq!(m.dropped_messages, m.messages);
        for l in sim.logics() {
            assert!(l.heard.is_empty());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        // A protocol that uses randomness: random gossip forwarding.
        struct RandomPick {
            picks: Vec<u64>,
        }
        impl NodeLogic for RandomPick {
            type Payload = Num;
            fn on_round(&mut self, _: Inbox<'_, Num>, ctx: &mut Context<'_, Num>) -> Control {
                if ctx.round() >= 3 {
                    return Control::Halt;
                }
                let x = ctx.rng().random_range(0..1_000_000u64);
                self.picks.push(x);
                Control::Continue
            }
        }
        let g = generators::cycle(6);
        let run = |seed| {
            let topo = Topology::from_graph(&g);
            let mut sim = Simulator::new(topo, |_| RandomPick { picks: vec![] }, seed);
            sim.run(10).unwrap();
            sim.logics().map(|l| l.picks.clone()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        // Node streams are independent: different nodes draw differently.
        let picks = run(7);
        assert_ne!(picks[0], picks[1]);
    }

    #[test]
    fn thread_count_does_not_change_execution() {
        // The full fault gauntlet — crashes, message drops, randomized
        // logic — must be bit-for-bit identical at every thread count,
        // including metrics and the drop decisions drawn from the shared
        // fault stream.
        let g = generators::gnp(40, 0.2, 11);
        let run = |threads: usize| {
            ftclust_par::with_threads(threads, || {
                let topo = Topology::from_graph(&g);
                let churn = ChurnPlan::none()
                    .crash(NodeId::new(3), 2)
                    .drop_probability(0.2);
                let mut sim = Simulator::with_churn(
                    topo,
                    |_| Gossip {
                        heard: vec![],
                        rounds: 6,
                    },
                    9,
                    churn,
                );
                sim.run(100).unwrap();
                let heard: Vec<Vec<u64>> = sim.logics().map(|l| l.heard.clone()).collect();
                (heard, sim.metrics().clone())
            })
        };
        let baseline = run(1);
        for threads in [2usize, 3, 7, 16] {
            assert_eq!(run(threads), baseline, "diverged at {threads} threads");
        }
    }

    /// Sends its id to every neighbour as separate unicasts (which are
    /// never published) for `rounds` rounds.
    struct Unicast {
        rounds: u64,
    }
    impl NodeLogic for Unicast {
        type Payload = Num;
        fn on_round(&mut self, _: Inbox<'_, Num>, ctx: &mut Context<'_, Num>) -> Control {
            if ctx.round() >= self.rounds {
                return Control::Halt;
            }
            for &w in ctx.neighbors() {
                ctx.send(w, Num(ctx.me().raw() as u64));
            }
            Control::Continue
        }
    }

    #[test]
    fn buffers_are_recycled_across_rounds() {
        // White-box: after a run the double-buffered inbox arenas exist
        // with their capacity retained (complete-graph unicast gossip
        // filled the arena every round), and nothing is left staged or in
        // flight — the halting round sends no messages.
        let g = generators::complete(6);
        let topo = Topology::from_graph(&g);
        let mut sim = Simulator::new(topo, |_| Unicast { rounds: 5 }, 0);
        sim.step();
        sim.step();
        let arena_caps = |sim: &Simulator<'_, Unicast>| {
            let mut caps = [sim.inbox.capacity(), sim.pending.capacity()];
            caps.sort_unstable();
            caps
        };
        let caps = arena_caps(&sim);
        assert!(caps[0] > 0, "both arenas were filled: {caps:?}");
        sim.step();
        sim.step();
        assert_eq!(arena_caps(&sim), caps, "steady state must not reallocate");
        sim.run(100).unwrap();
        assert_eq!(sim.pending.total(), 0);
        assert_eq!(sim.in_flight_messages(), 0);
        // Capacity was retained in at least one of the two arenas.
        assert!(sim.inbox.capacity() > 0 || sim.pending.capacity() > 0);
        // The SoA node state stayed aligned.
        assert_eq!(sim.logics.len(), 6);
        assert_eq!(sim.rngs.len(), 6);
        assert_eq!(sim.running.len(), 6);
        assert_eq!(sim.running_total, 0);

        // Broadcast gossip is published: the arenas stay empty, while the
        // publication slots and the shard views keep their allocations
        // from round to round.
        let mut sim = Simulator::new(
            topo,
            |_| Gossip {
                heard: vec![],
                rounds: 6,
            },
            0,
        );
        let buffers = |sim: &Simulator<'_, Gossip>| {
            let mut slots = [sim.inbox.slots_ptr(), sim.pending.slots_ptr()];
            slots.sort_unstable();
            (slots, sim.shard_views.as_ptr().cast::<()>())
        };
        sim.step();
        sim.step();
        let before = buffers(&sim);
        assert!(sim.shard_views.capacity() >= sim.bufs.len());
        sim.step();
        sim.step();
        assert_eq!(buffers(&sim), before, "steady state must not reallocate");
        assert_eq!(sim.inbox.capacity() + sim.pending.capacity(), 0);
        sim.run(100).unwrap();
        assert_eq!(sim.in_flight_messages(), 0);
    }

    #[test]
    fn node_rng_matches_engine_side_usage() {
        // node_rng is the public contract engines rely on.
        let mut a = node_rng(42, NodeId::new(3));
        let mut b = node_rng(42, NodeId::new(3));
        assert_eq!(a.random::<u64>(), b.random::<u64>());
        let _independent_stream = node_rng(42, NodeId::new(4));
    }

    #[test]
    fn step_on_quiescent_network_is_noop() {
        let g = generators::path(2);
        let topo = Topology::from_graph(&g);
        let mut sim = Simulator::new(
            topo,
            |_| Gossip {
                heard: vec![],
                rounds: 0,
            },
            0,
        );
        sim.run(10).unwrap();
        let rounds = sim.metrics().rounds;
        assert!(!sim.step());
        assert_eq!(sim.metrics().rounds, rounds);
    }

    #[test]
    fn empty_network_is_quiescent() {
        let g = generators::empty(0);
        let topo = Topology::from_graph(&g);
        let mut sim = Simulator::new(
            topo,
            |_| Gossip {
                heard: vec![],
                rounds: 1,
            },
            0,
        );
        assert!(sim.is_quiescent());
        assert!(sim.run(10).is_ok());
        assert_eq!(sim.metrics().rounds, 0);
    }

    /// Counts every delivered message and broadcasts until the halt round.
    struct Counter {
        seen: u64,
        rounds: u64,
    }
    impl NodeLogic for Counter {
        type Payload = Num;
        fn on_round(&mut self, inbox: Inbox<'_, Num>, ctx: &mut Context<'_, Num>) -> Control {
            self.seen += inbox.len() as u64;
            if ctx.round() >= self.rounds {
                return Control::Halt;
            }
            ctx.broadcast(Num(ctx.me().raw() as u64));
            Control::Continue
        }
    }

    #[test]
    fn dead_on_arrival_is_accounted() {
        // Regression (PR 3): every message node 0 sends to node 1 (rounds
        // 0..=4, arriving 1..=5) lands while node 1 is crashed. They used
        // to vanish with no metrics trace; now each is counted dead on
        // arrival and the conservation law closes.
        let g = generators::path(2);
        let topo = Topology::from_graph(&g);
        let churn = ChurnPlan::none().crash(NodeId::new(1), 1);
        let mut sim = Simulator::with_churn(topo, |_| Counter { seen: 0, rounds: 5 }, 0, churn);
        sim.run(100).unwrap();
        let m = sim.metrics().clone();
        assert_eq!(m.messages, 6);
        assert_eq!(m.dead_on_arrival, 5);
        assert_eq!(m.delivered_messages, 1);
        assert_eq!(m.dropped_messages, 0);
        assert_eq!(
            m.messages,
            m.delivered_messages
                + m.dropped_messages
                + m.dead_on_arrival
                + sim.in_flight_messages()
        );
    }

    #[test]
    fn published_broadcasts_are_conserved() {
        // Broadcast-only rounds are published, so the arena stays empty,
        // yet every published copy is sent, in flight and then delivered.
        let g = generators::complete(5);
        let topo = Topology::from_graph(&g);
        let mut sim = Simulator::new(topo, |_| Counter { seen: 0, rounds: 3 }, 0);
        for sent in [20, 40] {
            sim.step();
            let m = sim.metrics();
            assert_eq!(m.messages, sent);
            assert_eq!(sim.in_flight_messages(), 20);
            assert_eq!(m.messages, m.delivered_messages + sim.in_flight_messages());
            assert_eq!(sim.pending.capacity(), 0, "nothing went through the arena");
        }
        sim.run(100).unwrap();
        let m = sim.metrics();
        assert_eq!((m.messages, m.delivered_messages), (60, 60));
        assert_eq!(sim.in_flight_messages(), 0);
        assert!(sim.logics().all(|l| l.seen == 12));
    }

    #[test]
    fn tracer_attached_while_publications_pend_accounts_them() {
        // Round 0 publishes; the log attached before round 1 closes
        // the fast path, but round 0's publications must still be
        // delivered, counted and traced as envelopes would have been.
        let g = generators::gnp(20, 0.3, 5);
        let run = |attach: bool| {
            let topo = Topology::from_graph(&g);
            let mut sim = Simulator::new(topo, |_| Counter { seen: 0, rounds: 5 }, 3);
            sim.step();
            let before = sim.metrics().clone();
            assert_eq!(sim.in_flight_messages(), before.messages);
            assert_eq!(sim.pending.capacity(), 0, "round 0 was published");
            if attach {
                sim.set_event_log(EventLog::new());
            }
            sim.run(100).unwrap();
            let seen: Vec<u64> = sim.logics().map(|l| l.seen).collect();
            (seen, sim.metrics().clone(), before, sim.take_event_log())
        };
        let (seen, m, _, _) = run(false);
        let (traced_seen, traced_m, before, log) = run(true);
        assert_eq!(traced_seen, seen);
        assert_eq!(traced_m, m);
        let log = log.expect("a log was attached");
        let round1_delivered: u64 = log
            .records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Deliver { count, .. } if r.round == 1 => Some(count),
                _ => None,
            })
            .sum();
        assert_eq!(round1_delivered, before.messages);
        // The log covers everything after round 0.
        let mut since = m.clone();
        since.rounds -= before.rounds;
        since.messages -= before.messages;
        since.total_bits -= before.total_bits;
        since.delivered_messages -= before.delivered_messages;
        since
            .per_round_messages
            .drain(..before.per_round_messages.len());
        since.per_round_bits.drain(..before.per_round_bits.len());
        log.reconcile(&since).unwrap();
    }

    #[test]
    fn recovery_resumes_participation() {
        // Node 1 is down for rounds 1 and 2 and returns at round 3 with
        // its state intact. Messages that arrived while it was down are
        // dead on arrival; traffic after recovery flows normally.
        let g = generators::path(2);
        let topo = Topology::from_graph(&g);
        let churn = ChurnPlan::none()
            .crash(NodeId::new(1), 1)
            .recover(NodeId::new(1), 3);
        let mut sim = Simulator::with_churn(topo, |_| Counter { seen: 0, rounds: 6 }, 0, churn);
        sim.run(100).unwrap();
        // Node 0 broadcasts rounds 0..=5 (6 sends); node 1 only rounds
        // 0, 3, 4, 5 (4 sends).
        let m = sim.metrics().clone();
        assert_eq!(m.messages, 10);
        // Node 0's sends of rounds 0 and 1 arrive in rounds 1 and 2 — DOA.
        assert_eq!(m.dead_on_arrival, 2);
        assert_eq!(m.delivered_messages, 8);
        assert_eq!(sim.in_flight_messages(), 0);
        assert_eq!(sim.logic(NodeId::new(0)).seen, 4);
        assert_eq!(sim.logic(NodeId::new(1)).seen, 4);
        assert!(!sim.down_mask()[1]);
    }

    #[test]
    fn down_then_recovering_node_keeps_network_alive() {
        // With everything else halted, a pending recovery must block
        // quiescence (otherwise the revival could never happen), and a
        // crash with no recovery must not.
        let g = generators::path(2);
        let topo = Topology::from_graph(&g);
        let churn = ChurnPlan::none()
            .crash(NodeId::new(1), 1)
            .recover(NodeId::new(1), 6);
        let mut sim = Simulator::with_churn(topo, |_| Counter { seen: 0, rounds: 2 }, 0, churn);
        sim.run(100).unwrap();
        // Node 0 halts at round 2, node 1 is down — but rounds keep
        // ticking until the recovery at round 6, after which node 1 runs
        // its own halt round.
        assert!(sim.metrics().rounds >= 7);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn random_churn_is_deterministic_and_thread_invariant() {
        let g = generators::gnp(30, 0.25, 5);
        let run = |threads: usize| {
            ftclust_par::with_threads(threads, || {
                let topo = Topology::from_graph(&g);
                let churn = ChurnPlan::none()
                    .random_churn(0.05, 0.5)
                    .drop_probability(0.1);
                let mut sim =
                    Simulator::with_churn(topo, |_| Counter { seen: 0, rounds: 8 }, 13, churn);
                sim.run(200).unwrap();
                let seen: Vec<u64> = sim.logics().map(|l| l.seen).collect();
                (seen, sim.down_mask().to_vec(), sim.metrics().clone())
            })
        };
        let baseline = run(1);
        // Some churn actually happened (seed-dependent but fixed).
        assert!(baseline.2.dead_on_arrival > 0 || baseline.2.dropped_messages > 0);
        for threads in [2usize, 3, 7] {
            assert_eq!(run(threads), baseline, "diverged at {threads} threads");
        }
    }

    #[test]
    fn trace_reconciles_and_is_thread_invariant() {
        // Recorded traces must be a pure function of (topology, logic,
        // seed, churn): byte-identical JSONL at every worker count, and
        // every Metrics counter re-derivable from the event stream.
        let g = generators::gnp(25, 0.3, 7);
        let run = |threads: usize| {
            ftclust_par::with_threads(threads, || {
                let topo = Topology::from_graph(&g);
                let churn = ChurnPlan::none()
                    .random_churn(0.05, 0.5)
                    .drop_probability(0.1);
                let mut sim =
                    Simulator::with_churn(topo, |_| Counter { seen: 0, rounds: 8 }, 13, churn);
                sim.set_event_log(EventLog::new());
                let _ = sim.run(200);
                let m = sim.metrics().clone();
                let log = sim.take_event_log().unwrap();
                (log, m)
            })
        };
        let (log, m) = run(1);
        log.reconcile(&m).unwrap();
        assert!(log
            .records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Drop { .. } | TraceEvent::Crash { .. })));
        for threads in [2usize, 7] {
            let (l, m2) = run(threads);
            assert_eq!(l, log, "trace diverged at {threads} threads");
            assert_eq!(l.to_jsonl(), log.to_jsonl());
            assert_eq!(m2, m);
        }
    }

    #[test]
    fn tracing_does_not_perturb_execution() {
        let g = generators::gnp(20, 0.3, 3);
        let run = |traced: bool| {
            let topo = Topology::from_graph(&g);
            let churn = ChurnPlan::none()
                .crash(NodeId::new(2), 1)
                .drop_probability(0.2);
            let mut sim = Simulator::with_churn(topo, |_| Counter { seen: 0, rounds: 5 }, 4, churn);
            if traced {
                sim.set_event_log(EventLog::new());
            }
            sim.run(100).unwrap();
            let seen: Vec<u64> = sim.logics().map(|l| l.seen).collect();
            (seen, sim.metrics().clone())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn trace_records_churn_transitions_and_baseline() {
        // Node 0 is down from construction (round-0 crash): the log
        // attaches afterwards, so it must see a synthesized baseline
        // crash. Node 1 crashes at round 1 and recovers at round 3: both
        // transitions must be recorded, each exactly once.
        let g = generators::path(3);
        let topo = Topology::from_graph(&g);
        let churn = ChurnPlan::none()
            .crash(NodeId::new(0), 0)
            .crash(NodeId::new(1), 1)
            .recover(NodeId::new(1), 3);
        let mut sim = Simulator::with_churn(topo, |_| Counter { seen: 0, rounds: 5 }, 0, churn);
        sim.set_event_log(EventLog::new());
        sim.run(100).unwrap();
        let log = sim.take_event_log().unwrap();
        log.reconcile(sim.metrics()).unwrap();
        let crashes: Vec<(u64, u32)> = log
            .records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Crash { node } => Some((r.round, node.raw())),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, vec![(0, 0), (1, 1)]);
        let recovers: Vec<(u64, u32)> = log
            .records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Recover { node } => Some((r.round, node.raw())),
                _ => None,
            })
            .collect();
        assert_eq!(recovers, vec![(3, 1)]);
    }

    #[test]
    fn spans_bracket_rounds_in_the_record_stream() {
        let g = generators::complete(3);
        let topo = Topology::from_graph(&g);
        let mut sim = Simulator::new(
            topo,
            |_| Gossip {
                heard: vec![],
                rounds: 2,
            },
            0,
        );
        sim.set_event_log(EventLog::new());
        sim.span_enter("raise", Some(0));
        sim.step();
        sim.span_exit("raise", Some(0));
        sim.run(10).unwrap();
        let log = sim.take_event_log().unwrap();
        log.reconcile(sim.metrics()).unwrap();
        let rollups = log.rollups();
        assert_eq!(rollups[0].name, "raise");
        assert_eq!(rollups[0].rounds, 1);
        assert_eq!(rollups[0].messages, 6); // complete(3): 3 nodes * 2 neighbors
        let total_rounds: u64 = rollups.iter().map(|r| r.rounds).sum();
        assert_eq!(total_rounds, sim.metrics().rounds);
    }

    /// Node 0 sleeps until round 10 unless woken, runs the round after
    /// its wake-up message too, and halts at round 10; node 1 sends it
    /// that message at round 4 and halts. Both record the rounds in
    /// which they were called.
    struct Sleeper {
        calls: Vec<u64>,
    }
    impl NodeLogic for Sleeper {
        type Payload = Num;
        fn on_round(&mut self, inbox: Inbox<'_, Num>, ctx: &mut Context<'_, Num>) -> Control {
            let round = ctx.round();
            self.calls.push(round);
            if ctx.me() == NodeId::new(1) {
                if round == 4 {
                    ctx.send(NodeId::new(0), Num(4));
                    return Control::Halt;
                }
                return Control::Continue;
            }
            if round >= 10 {
                Control::Halt
            } else if inbox.is_empty() {
                Control::Idle { until: 10 }
            } else {
                Control::Continue
            }
        }
    }

    #[test]
    fn idle_nodes_run_only_on_a_message_or_at_their_wake_round() {
        let g = generators::path(2);
        let run = |threads: usize| {
            ftclust_par::with_threads(threads, || {
                let mut sim =
                    Simulator::new(Topology::from_graph(&g), |_| Sleeper { calls: vec![] }, 0);
                sim.run(100).unwrap();
                (
                    sim.logics().map(|l| l.calls.clone()).collect::<Vec<_>>(),
                    sim.metrics().clone(),
                )
            })
        };
        let (calls, metrics) = run(1);
        // Not called in rounds 1–4 (idle, nothing delivered), called in
        // round 5 (the message arrives), in round 6 (it said Continue),
        // not in rounds 7–9, and at its wake round 10.
        assert_eq!(calls[0], [0, 5, 6, 10]);
        assert_eq!(calls[1], [0, 1, 2, 3, 4]);
        assert_eq!(metrics.rounds, 11);
        assert_eq!(metrics.delivered_messages, 1);
        // The wake rounds live in the sharded node state: one node per
        // shard at two threads.
        assert_eq!(run(2), (calls, metrics));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Metrics conservation under arbitrary churn: the per-round
        /// series always sums to the totals, and every sent message is
        /// delivered, dropped, dead on arrival, or still in flight.
        #[test]
        fn metrics_conserved_under_churn(
            seed in 0u64..1_000,
            n in 2u32..24,
            drop in 0.0f64..0.5,
            crash_prob in 0.0f64..0.2,
            recover_prob in 0.0f64..0.9,
        ) {
            let g = generators::gnp(n, 0.3, seed);
            let topo = Topology::from_graph(&g);
            let churn = ChurnPlan::none()
                .random_churn(crash_prob, recover_prob)
                .drop_probability(drop)
                .crash(NodeId::new(0), 2)
                .recover(NodeId::new(0), 4);
            let mut sim = Simulator::with_churn(
                topo,
                |_| Counter { seen: 0, rounds: 6 },
                seed,
                churn,
            );
            // Random recovery keeps quiescence away; a round-limit error
            // is fine — metrics must still be conserved.
            let _ = sim.run(40);
            let m = sim.metrics().clone();
            prop_assert_eq!(m.per_round_messages.iter().sum::<u64>(), m.messages);
            prop_assert_eq!(m.per_round_bits.iter().sum::<u64>(), m.total_bits);
            prop_assert_eq!(m.per_round_messages.len() as u64, m.rounds);
            prop_assert_eq!(
                m.messages,
                m.delivered_messages + m.dropped_messages + m.dead_on_arrival
                    + sim.in_flight_messages()
            );
            let total_seen: u64 = sim.logics().map(|l| l.seen).sum();
            prop_assert!(total_seen <= m.delivered_messages);
        }
    }
}
