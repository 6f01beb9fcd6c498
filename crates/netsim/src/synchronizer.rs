//! Asynchronous execution via a simple synchronizer.
//!
//! The paper (Section 3) notes that *"at the cost of higher message
//! complexity, every synchronous message-passing algorithm can be turned
//! into an asynchronous algorithm with the same time complexity"*, citing
//! Awerbuch's synchronizers. This module demonstrates that reduction: it
//! executes any synchronous [`NodeLogic`] on an asynchronous network with
//! arbitrary bounded message delays, using an α-synchronizer-style scheme:
//!
//! * every local round, a node sends a **bundle** to *each* neighbor,
//!   containing the protocol messages destined to it this round (possibly
//!   none — an empty bundle is the "safe" beacon),
//! * a node advances to local round `r + 1` only once it has received the
//!   round-`r` bundle from every neighbor that had not halted before
//!   round `r`,
//! * halting is announced in the final bundle so neighbors stop waiting.
//!
//! Because each node sees exactly the same per-round inbox as in the
//! synchronous execution, the final protocol states are **identical** to a
//! synchronous run with the same master seed — the tests assert this
//! bit-for-bit.
//!
//! # Why this module stays single-threaded
//!
//! Unlike [`crate::Simulator`] (whose rounds are data-parallel over nodes,
//! see `DESIGN.md` §7), the synchronizer is an **event-driven** executor:
//! each [`AsyncExec::try_advance`] draws per-bundle delays from the single
//! shared `delay_rng` stream and pushes arrivals tagged with a global
//! sequence number, and which node advances next *depends on* those draws.
//! Batching independent `try_advance` calls across threads would reorder
//! the shared stream and change every delay — breaking the determinism
//! contract the tests pin down. The per-node protocol work it schedules is
//! the same work the parallel simulator covers, so the synchronizer keeps
//! the simple sequential event loop.
//!
//! # Message loss
//!
//! The α-synchronizer **assumes reliable links**: a node blocks until the
//! round-`r` bundle from every live neighbor has arrived, so a lost bundle
//! starves its recipient forever. It also cannot host the retransmitting
//! transport layer of [`crate::transport`]: that layer is driven by round
//! timeouts, but in an event-driven executor time only advances when an
//! event is processed — once the queue is empty no timer can ever fire, so
//! a retransmission that is needed precisely *because* the last in-flight
//! bundle was lost could never be scheduled. Loss tolerance therefore
//! lives under the round-driven [`crate::Simulator`] (which ticks whether
//! or not messages arrive), and the asynchronous executor **fails fast**
//! instead of livelocking: [`run_asynchronously`] detects the drained
//! queue and returns [`SimError::AsyncStalled`] naming the starved nodes
//! and the number of lost bundles. Because bundles are all-or-nothing, a
//! lossy run that *does* complete saw every inbox it needed and its result
//! is identical to the synchronous execution — loss can stall the
//! synchronizer, but it can never corrupt it. The tests pin both outcomes
//! down.

use crate::metrics::TransportCounters;
use crate::node::Context;
use crate::sim::node_rng;
use crate::trace::{EventLog, TraceEvent, Tracer};
use crate::{Control, Envelope, NodeLogic, SimError, Topology};
use ftclust_graphs::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// Statistics of an asynchronous run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsyncStats {
    /// Global delivery ticks elapsed until quiescence.
    pub ticks: u64,
    /// Bundles sent (each bundle is one wire message of the synchronizer).
    pub bundles: u64,
    /// Bundles lost to injected message loss (always 0 when the drop
    /// probability is 0).
    pub dropped_bundles: u64,
    /// The largest local round any node executed.
    pub max_local_round: u64,
}

/// Result of [`run_asynchronously`]: final protocol states plus statistics.
#[derive(Debug)]
pub struct AsyncRun<L> {
    /// Final protocol state per node, in id order.
    pub logics: Vec<L>,
    /// Run statistics.
    pub stats: AsyncStats,
}

#[derive(Debug)]
struct Bundle<P> {
    from: NodeId,
    to: NodeId,
    round: u64,
    halting: bool,
    payloads: Vec<P>,
}

/// Heap entry ordered by arrival tick, then insertion order (determinism).
struct Arrival<P> {
    at: u64,
    seq: u64,
    bundle: Bundle<P>,
}

impl<P> PartialEq for Arrival<P> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<P> Eq for Arrival<P> {}
impl<P> PartialOrd for Arrival<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Arrival<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct AsyncNode<L: NodeLogic> {
    logic: L,
    rng: StdRng,
    local_round: u64,
    halted: bool,
    /// Received bundles per neighbor position (same order as
    /// `graph.neighbors(v)`).
    received: Vec<Vec<Bundle<L::Payload>>>,
    /// Round at which each neighbor announced halting (`u64::MAX` = alive).
    neighbor_halted_at: Vec<u64>,
    /// Self-addressed messages, keyed by the round they were sent in.
    pending_self: Vec<(u64, Vec<L::Payload>)>,
}

struct AsyncExec<'a, L: NodeLogic> {
    topo: Topology<'a>,
    nodes: Vec<AsyncNode<L>>,
    heap: BinaryHeap<Arrival<L::Payload>>,
    delay_rng: StdRng,
    /// Loss draws come from their own stream, so enabling loss perturbs
    /// neither the delay sequence nor the protocol's per-node streams.
    loss_rng: StdRng,
    drop_probability: f64,
    seq: u64,
    now: u64,
    max_delay: u64,
    max_rounds: u64,
    stats: AsyncStats,
    /// Recording sink for [`TraceEvent::SynchronizerPulse`] events
    /// (`None` when the run is untraced). Pulses are stamped with the
    /// global tick `now`, the only logical clock an asynchronous
    /// execution has.
    trace: Option<EventLog>,
}

impl<'a, L: NodeLogic> AsyncExec<'a, L> {
    /// Runs local rounds at `v` while its inputs are complete.
    fn try_advance(&mut self, v: NodeId) -> Result<(), SimError> {
        let g = self.topo.graph();
        loop {
            if self.nodes[v.index()].halted {
                return Ok(());
            }
            let r = self.nodes[v.index()].local_round;
            if r >= self.max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: self.max_rounds,
                    round: r,
                    still_running: self.nodes.iter().filter(|n| !n.halted).count(),
                    in_flight: self.heap.len() as u64,
                });
            }
            // Gather round-(r-1) inputs; bail out if any are missing.
            let mut inbox: Vec<Envelope<L::Payload>> = Vec::new();
            if r > 0 {
                let prev = r - 1;
                let node = &self.nodes[v.index()];
                // (sender id, bundle index or self marker)
                let mut senders: Vec<(NodeId, Option<usize>)> = Vec::new();
                for (pos, &w) in g.neighbors(v).iter().enumerate() {
                    if node.neighbor_halted_at[pos] < prev {
                        continue; // halted before prev: nothing expected
                    }
                    match node.received[pos].iter().position(|b| b.round == prev) {
                        Some(idx) => senders.push((w, Some(idx))),
                        None => return Ok(()), // still waiting
                    }
                }
                if node.pending_self.iter().any(|(rd, _)| *rd == prev) {
                    senders.push((v, None));
                }
                // Reconstruct the synchronous inbox ordering: the
                // synchronous simulator appends in sender-id order.
                senders.sort_by_key(|&(w, _)| w);
                let node = &mut self.nodes[v.index()];
                for (w, idx) in senders {
                    let payloads = match idx {
                        Some(i) => {
                            let Ok(pos) = g.neighbors(v).binary_search(&w) else {
                                unreachable!("senders were drawn from neighbors(v)");
                            };
                            let bundle = node.received[pos].swap_remove(i);
                            bundle.payloads
                        }
                        None => {
                            let Some(i) = node.pending_self.iter().position(|(rd, _)| *rd == prev)
                            else {
                                unreachable!("self marker was pushed only after the check above");
                            };
                            node.pending_self.swap_remove(i).1
                        }
                    };
                    for p in payloads {
                        inbox.push(Envelope {
                            from: w,
                            to: v,
                            payload: p,
                        });
                    }
                }
            }
            // Execute the local round. The synchronizer assumes reliable
            // links, so no transport layer runs on top of it and the
            // counters stay at zero (see the module docs on loss).
            let mut outbox: Vec<Envelope<L::Payload>> = Vec::new();
            let mut transport = TransportCounters::default();
            let mut trace_buf = Vec::new();
            let node = &mut self.nodes[v.index()];
            let mut ctx = Context {
                me: v,
                round: r,
                topo: self.topo,
                rng: &mut node.rng,
                outbox: &mut outbox,
                transport: &mut transport,
                tracing: false,
                trace: &mut trace_buf,
            };
            let control = node.logic.on_round(&inbox, &mut ctx);
            let halting = control == Control::Halt;
            node.halted = halting;
            node.local_round = r + 1;
            self.stats.max_local_round = self.stats.max_local_round.max(r);
            if let Some(log) = &mut self.trace {
                log.record(
                    self.now,
                    TraceEvent::SynchronizerPulse {
                        node: v,
                        local_round: r,
                    },
                );
            }
            // Split sends into self-deliveries and per-neighbor bundles.
            let mut self_msgs: Vec<L::Payload> = Vec::new();
            let degree = g.degree(v);
            let mut per_neighbor: Vec<Vec<L::Payload>> = (0..degree).map(|_| Vec::new()).collect();
            for env in outbox {
                if env.to == v {
                    self_msgs.push(env.payload);
                } else {
                    let Ok(pos) = g.neighbors(v).binary_search(&env.to) else {
                        unreachable!("Context::send only accepts neighbors");
                    };
                    per_neighbor[pos].push(env.payload);
                }
            }
            if !self_msgs.is_empty() {
                self.nodes[v.index()].pending_self.push((r, self_msgs));
            }
            for (pos, &w) in g.neighbors(v).iter().enumerate() {
                let delay = self.delay_rng.random_range(1..=self.max_delay);
                self.stats.bundles += 1;
                // Loss is decided at send time on a dedicated stream; a
                // p == 0 run draws nothing and matches the lossless
                // executor bit for bit.
                if self.drop_probability > 0.0
                    && self.loss_rng.random::<f64>() < self.drop_probability
                {
                    self.stats.dropped_bundles += 1;
                    per_neighbor[pos].clear();
                    continue;
                }
                self.heap.push(Arrival {
                    at: self.now + delay,
                    seq: self.seq,
                    bundle: Bundle {
                        from: v,
                        to: w,
                        round: r,
                        halting,
                        payloads: std::mem::take(&mut per_neighbor[pos]),
                    },
                });
                self.seq += 1;
            }
            if halting {
                return Ok(());
            }
        }
    }
}

/// Executes the synchronous protocol built by `make_logic` on an
/// asynchronous network where every message is delayed by a uniform random
/// number of ticks in `1..=max_delay`, using the synchronizer described in
/// the [module docs](self). This is the synchronizer behind
/// [`crate::exec::Executor::run_async`].
///
/// The returned protocol states equal those of a synchronous
/// [`crate::Simulator`] run with the same `master_seed`.
///
/// * **Loss.** Each bundle is discarded in flight with probability
///   `drop_probability`, drawn from a dedicated stream, so
///   `drop_probability == 0.0` draws nothing and matches a lossless run
///   bit for bit. The synchronizer itself does not retransmit — see the
///   [module docs](self#message-loss) for why it *cannot* host the
///   timer-driven [`crate::transport`] layer. A run that completes is
///   exactly the synchronous execution; a run starved by loss **fails
///   fast** with [`SimError::AsyncStalled`] instead of livelocking.
/// * **Tracing.** With `traced` set, every local round executed at a node
///   becomes a [`TraceEvent::SynchronizerPulse`] stamped with the global
///   delivery tick, returned as `Some` log. The pulse stream is
///   deterministic for a given seed (the executor is sequential), so
///   traced asynchronous runs diff cleanly.
///
/// # Errors
///
/// [`SimError::RoundLimitExceeded`] if any node would exceed `max_rounds`
/// local rounds; [`SimError::AsyncStalled`] if the event queue drains
/// while nodes are still waiting for lost bundles.
///
/// # Panics
///
/// Panics if `max_delay == 0` or `drop_probability` is not in `[0, 1]`.
#[allow(clippy::too_many_arguments)]
pub fn run_asynchronously<L: NodeLogic>(
    topo: Topology<'_>,
    mut make_logic: impl FnMut(NodeId) -> L,
    master_seed: u64,
    max_delay: u64,
    max_rounds: u64,
    drop_probability: f64,
    traced: bool,
) -> Result<(AsyncRun<L>, Option<EventLog>), SimError> {
    assert!(
        (0.0..=1.0).contains(&drop_probability),
        "drop probability must be in [0, 1], got {drop_probability}"
    );
    assert!(max_delay > 0, "max_delay must be at least 1 tick");
    let g = topo.graph();
    let n = g.node_count();
    let nodes: Vec<AsyncNode<L>> = (0..n)
        .map(|i| {
            let v = NodeId::new(i as u32);
            AsyncNode {
                logic: make_logic(v),
                rng: node_rng(master_seed, v),
                local_round: 0,
                halted: false,
                received: (0..g.degree(v)).map(|_| Vec::new()).collect(),
                neighbor_halted_at: vec![u64::MAX; g.degree(v)],
                pending_self: Vec::new(),
            }
        })
        .collect();
    let mut exec = AsyncExec {
        topo,
        nodes,
        heap: BinaryHeap::new(),
        delay_rng: StdRng::seed_from_u64(master_seed ^ 0xA5A5_5A5A_0F0F_F0F0),
        loss_rng: StdRng::seed_from_u64(master_seed ^ 0x1057_B0D1_E51D_0F0F),
        drop_probability,
        seq: 0,
        now: 0,
        max_delay,
        max_rounds,
        stats: AsyncStats::default(),
        trace: traced.then(EventLog::new),
    };
    // Round 0 needs no inputs.
    for i in 0..n {
        exec.try_advance(NodeId::new(i as u32))?;
    }
    while let Some(arrival) = exec.heap.pop() {
        exec.now = arrival.at;
        exec.stats.ticks = exec.now;
        let to = arrival.bundle.to;
        let Ok(pos) = exec
            .topo
            .graph()
            .neighbors(to)
            .binary_search(&arrival.bundle.from)
        else {
            unreachable!("bundles are only addressed along graph edges");
        };
        if arrival.bundle.halting {
            let slot = &mut exec.nodes[to.index()].neighbor_halted_at[pos];
            *slot = (*slot).min(arrival.bundle.round);
        }
        exec.nodes[to.index()].received[pos].push(arrival.bundle);
        exec.try_advance(to)?;
    }
    // The queue drained. Under reliable delivery that implies quiescence;
    // with loss it can also mean starvation — nodes blocked forever on
    // bundles that no event can ever deliver. Fail fast and say so.
    let stalled = exec.nodes.iter().filter(|s| !s.halted).count();
    if stalled > 0 {
        return Err(SimError::AsyncStalled {
            stalled,
            dropped_bundles: exec.stats.dropped_bundles,
            ticks: exec.now,
        });
    }
    let AsyncExec {
        nodes,
        stats,
        trace,
        ..
    } = exec;
    Ok((
        AsyncRun {
            logics: nodes.into_iter().map(|s| s.logic).collect(),
            stats,
        },
        trace,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bits_for_ids, Payload, Simulator};
    use ftclust_graphs::generators;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl Payload for Num {
        fn bit_size(&self) -> usize {
            bits_for_ids(1 << 16)
        }
    }

    /// Flood-max with a random tiebreak draw per round (exercises RNG
    /// stream equality) and a self-send (exercises self-delivery).
    #[derive(Debug, Clone, PartialEq)]
    struct Flood {
        best: u64,
        draws: Vec<u64>,
        rounds: u64,
    }
    impl NodeLogic for Flood {
        type Payload = Num;
        fn on_round(&mut self, inbox: &[Envelope<Num>], ctx: &mut Context<'_, Num>) -> Control {
            for e in inbox {
                self.best = self.best.max(e.payload.0);
            }
            self.draws.push(ctx.rng().random_range(0..1_000u64));
            if ctx.round() >= self.rounds {
                return Control::Halt;
            }
            ctx.broadcast(Num(self.best));
            let me = ctx.me();
            ctx.send(me, Num(self.best)); // self-reminder
            Control::Continue
        }
    }

    fn flood(rounds: u64) -> impl Fn(NodeId) -> Flood + Copy {
        move |v| Flood {
            best: v.raw() as u64,
            draws: vec![],
            rounds,
        }
    }

    fn sync_run(g: &ftclust_graphs::Graph, seed: u64, rounds: u64) -> Vec<Flood> {
        let topo = Topology::from_graph(g);
        let mut sim = Simulator::new(topo, flood(rounds), seed);
        sim.run(10_000).unwrap();
        sim.logics().cloned().collect()
    }

    /// A lossless, untraced asynchronous run.
    fn async_run(
        g: &ftclust_graphs::Graph,
        seed: u64,
        rounds: u64,
        max_delay: u64,
        max_rounds: u64,
    ) -> AsyncRun<Flood> {
        let topo = Topology::from_graph(g);
        let (run, log) =
            run_asynchronously(topo, flood(rounds), seed, max_delay, max_rounds, 0.0, false)
                .unwrap();
        assert!(log.is_none(), "untraced run recorded a log");
        run
    }

    #[test]
    fn async_run_equals_sync_run() {
        for (g, seed) in [
            (generators::cycle(9), 1u64),
            (generators::gnp(25, 0.2, 3), 2),
            (generators::star(6), 3),
        ] {
            let sync = sync_run(&g, seed, 6);
            let run = async_run(&g, seed, 6, 7, 10_000); // delays up to 7 ticks
            assert_eq!(
                run.logics, sync,
                "async execution diverged from synchronous"
            );
            assert!(run.stats.bundles > 0);
            assert_eq!(run.stats.max_local_round, 6);
        }
    }

    #[test]
    fn traced_async_run_records_deterministic_pulses() {
        let g = generators::cycle(7);
        let run_traced = || {
            let topo = Topology::from_graph(&g);
            let (run, log) = run_asynchronously(topo, flood(4), 5, 3, 10_000, 0.0, true).unwrap();
            (run, log.expect("traced run records a log"))
        };
        let (run, log) = run_traced();
        // Tracing must not perturb execution.
        let untraced = async_run(&g, 5, 4, 3, 10_000);
        assert_eq!(run.logics, untraced.logics);
        // Every local round of every node pulses exactly once: 7 nodes
        // x rounds 0..=4.
        assert_eq!(log.len(), 7 * 5);
        assert!(log
            .records
            .iter()
            .all(|r| matches!(r.event, TraceEvent::SynchronizerPulse { .. })));
        // Pulse ticks never exceed the recorded tick count, and the
        // stream is reproducible.
        assert!(log.records.iter().all(|r| r.round <= run.stats.ticks));
        let (_, log2) = run_traced();
        assert_eq!(log2, log);
        assert_eq!(log2.to_jsonl(), log.to_jsonl());
    }

    #[test]
    fn async_run_is_deterministic() {
        let g = generators::gnp(20, 0.25, 9);
        let a = async_run(&g, 5, 4, 5, 1_000);
        let b = async_run(&g, 5, 4, 5, 1_000);
        assert_eq!(a.logics, b.logics);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn round_limit_propagates() {
        #[derive(Debug)]
        struct Forever;
        impl NodeLogic for Forever {
            type Payload = Num;
            fn on_round(&mut self, _: &[Envelope<Num>], ctx: &mut Context<'_, Num>) -> Control {
                ctx.broadcast(Num(0));
                Control::Continue
            }
        }
        let g = generators::path(3);
        let topo = Topology::from_graph(&g);
        let err = run_asynchronously(topo, |_| Forever, 0, 2, 5, 0.0, false).unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { limit: 5, .. }));
    }

    #[test]
    fn lossy_with_zero_probability_matches_lossless() {
        let g = generators::gnp(18, 0.3, 4);
        let run = async_run(&g, 11, 5, 4, 1_000);
        assert_eq!(run.logics, sync_run(&g, 11, 5));
        assert_eq!(run.stats.dropped_bundles, 0);
    }

    #[test]
    fn loss_either_stalls_descriptively_or_leaves_the_result_intact() {
        // The documented contract: a lossy asynchronous run either
        // completes with exactly the synchronous result (every lost
        // bundle was one nobody was waiting for) or fails fast with
        // `AsyncStalled` — never a silent livelock, never a corrupted
        // result.
        let mut stalls = 0;
        let mut completions = 0;
        for seed in 0..12u64 {
            let g = generators::gnp(14, 0.3, seed);
            let sync = sync_run(&g, seed, 5);
            let topo = Topology::from_graph(&g);
            match run_asynchronously(topo, flood(5), seed, 4, 10_000, 0.25, false) {
                Ok((run, _)) => {
                    completions += 1;
                    assert_eq!(
                        run.logics, sync,
                        "completed lossy run diverged (seed {seed})"
                    );
                }
                Err(SimError::AsyncStalled {
                    stalled,
                    dropped_bundles,
                    ..
                }) => {
                    stalls += 1;
                    assert!(stalled > 0);
                    assert!(dropped_bundles > 0, "stall without any loss (seed {seed})");
                }
                Err(other) => panic!("unexpected error under loss: {other}"),
            }
        }
        // At 25% loss over dozens of bundles, starvation dominates; the
        // seeds are fixed so this is a deterministic expectation, not a
        // flaky one.
        assert!(
            stalls > 0,
            "no stall observed across {} runs",
            stalls + completions
        );
    }

    #[test]
    fn lossy_run_is_deterministic() {
        let g = generators::gnp(16, 0.25, 2);
        let topo = Topology::from_graph(&g);
        let a = run_asynchronously(topo, flood(4), 3, 5, 10_000, 0.2, false);
        let b = run_asynchronously(topo, flood(4), 3, 5, 10_000, 0.2, false);
        match (a, b) {
            (Ok((x, _)), Ok((y, _))) => {
                assert_eq!(x.logics, y.logics);
                assert_eq!(x.stats, y.stats);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("lossy runs disagreed on success vs failure"),
        }
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn invalid_drop_probability_panics() {
        let g = generators::path(2);
        let topo = Topology::from_graph(&g);
        let _ = run_asynchronously(topo, flood(1), 0, 1, 10, 1.5, false);
    }

    #[test]
    fn isolated_nodes_run_alone() {
        let g = generators::empty(3);
        let run = async_run(&g, 0, 2, 3, 100);
        assert_eq!(run.logics.len(), 3);
        for l in &run.logics {
            assert_eq!(l.draws.len(), 3); // rounds 0, 1, 2
        }
    }
}
