//! Composable protocol executor: one driver for every layer combination.
//!
//! Historically every protocol shipped a hand-written driver per layer
//! combination (`run_*_protocol`, `run_*_lossy`, `run_*_traced`,
//! `run_*_async`), and the copies drifted: combinations nobody wrote
//! (lossy **and** traced, churned **and** lossy under trace) simply did
//! not exist, and shared round arithmetic was duplicated with subtle
//! differences. The [`Executor`] replaces that matrix with one generic
//! driver composed from orthogonal layers, selected by a [`Stack`]:
//!
//! * **transport** — wrap every node in [`Reliable`] so message loss and
//!   partition windows are masked by retransmission ([`Stack::transport`]);
//! * **loss** — i.i.d. message loss, which implies the transport
//!   ([`Stack::lossy`]);
//! * **churn** — a [`ChurnPlan`] of crashes, recoveries and random churn
//!   ([`Stack::churned`]);
//! * **tracing** — record an [`EventLog`] with per-phase spans driven by
//!   a declarative [`Phase`] plan ([`Stack::traced`]);
//! * **adversary** — an [`AdversaryPlan`] of delay jitter, duplication,
//!   corruption and scheduled partitions ([`Stack::adversarial`]).
//!
//! # Layer-composition rules
//!
//! Transport, churn, adversary and tracing compose freely: all 2⁴
//! combinations run through [`Executor::run`]. An asynchronous network
//! is one of them — the transport (the α-synchronizer, see
//! [`crate::transport`]) with every frame delayed by
//! [`AdversaryPlan::jitter`]`(1.0, max_delay)` — so loss, churn,
//! corruption, partitions and tracing compose with asynchrony too.
//!
//! # Spans
//!
//! The executor is the only code that opens and closes trace spans. One
//! walker, the span cursor, takes a traced run through its [`Phase`]
//! plan. A lossless run executes exactly like [`Simulator::run`], and
//! traced, the cursor advances before each step to the round about to
//! run, so tracing changes neither states nor metrics. A transport run
//! steps the simulator until every [`Reliable`] node is done; traced,
//! the cursor advances after each step to the transport's
//! **logical-round frontier** (the largest logical round any node has
//! completed), so per-phase rollups stay meaningful even though loss
//! stretches physical time; physical rounds after the last logical
//! boundary (ack drains, retransmission tails of the final phase) are
//! attributed to the still-open final span. A plan-less traced run
//! records an unspanned log. In debug builds every traced run checks
//! its log against its [`Metrics`] ([`EventLog::reconcile`]) before
//! returning it.

use crate::adversary::AdversaryPlan;
use crate::churn::ChurnPlan;
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::node::NodeLogic;
use crate::sim::Simulator;
use crate::topology::Topology;
use crate::trace::{EventLog, REGISTERED_SPANS};
use crate::transport::{Reliable, TransportConfig};
use ftclust_graphs::NodeId;

/// One entry of a declarative span schedule (see [`Executor::phases`]).
///
/// A plan is a sequence of phases; [`Phase::Loop`] and [`Phase::Tail`]
/// run until quiescence and must therefore be the final entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A fixed-length phase: `rounds` simulator steps under one span.
    Span {
        /// Span name, registered in [`REGISTERED_SPANS`].
        name: &'static str,
        /// Optional span argument (e.g. an iteration index).
        arg: Option<u64>,
        /// Number of rounds the phase covers.
        rounds: u64,
    },
    /// A quiescence-terminated loop of fixed-length iterations, each
    /// under a span carrying its iteration index.
    Loop {
        /// Span name, registered in [`REGISTERED_SPANS`].
        name: &'static str,
        /// Rounds per iteration.
        rounds: u64,
    },
    /// Runs to quiescence under a single span.
    Tail {
        /// Span name, registered in [`REGISTERED_SPANS`].
        name: &'static str,
    },
}

impl Phase {
    /// A fixed-length phase of `rounds` steps with no span argument.
    pub fn span(name: &'static str, rounds: u64) -> Self {
        Phase::Span {
            name,
            arg: None,
            rounds,
        }
    }

    /// A fixed-length phase of `rounds` steps carrying index `arg`.
    pub fn indexed(name: &'static str, arg: u64, rounds: u64) -> Self {
        Phase::Span {
            name,
            arg: Some(arg),
            rounds,
        }
    }

    /// A quiescence-terminated loop of `rounds`-step iterations.
    pub fn repeat(name: &'static str, rounds: u64) -> Self {
        Phase::Loop { name, rounds }
    }

    /// A run-to-quiescence tail phase.
    pub fn tail(name: &'static str) -> Self {
        Phase::Tail { name }
    }

    /// The span name of this phase.
    fn name(&self) -> &'static str {
        match *self {
            Phase::Span { name, .. } | Phase::Loop { name, .. } | Phase::Tail { name } => name,
        }
    }
}

/// Orthogonal layer selection for an [`Executor`] run: which of the
/// transport, loss, churn, adversary and tracing layers are engaged, in
/// plain-data form so callers (protocol stack runners, benches) can build
/// and pass it around without naming the node-logic type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stack {
    churn: Option<ChurnPlan>,
    loss: f64,
    transport: Option<TransportConfig>,
    traced: bool,
    adversary: Option<AdversaryPlan>,
}

impl Stack {
    /// No layers: a plain lossless, untraced, churn-free run.
    pub fn new() -> Self {
        Stack::default()
    }

    /// Engages i.i.d. message loss with probability `p`
    /// ([`Simulator::set_loss`]). A positive `p` implies the
    /// reliable-transport layer (with [`TransportConfig::default`] unless
    /// [`Stack::transport`] picked a policy); `p = 0` engages nothing, so
    /// `Stack::new().lossy(0.0) == Stack::new()`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn lossy(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0, 1], got {p}"
        );
        self.loss = p;
        self
    }

    /// Engages the churn layer with `plan`: crashes, recoveries and
    /// random churn. Lost messages are [`Stack::lossy`]; links cut for a
    /// window of rounds are an [`AdversaryPlan::partition`] on
    /// [`Stack::adversarial`].
    pub fn churned(mut self, plan: ChurnPlan) -> Self {
        self.churn = Some(plan);
        self
    }

    /// Engages the reliable-transport layer with an explicit policy —
    /// also the way to run the transport over *lossless* links (acks
    /// and logical-round accounting without any drops).
    pub fn transport(mut self, cfg: TransportConfig) -> Self {
        self.transport = Some(cfg);
        self
    }

    /// Engages the tracing layer: the run records an [`EventLog`],
    /// bracketed into spans by the executor's [`Phase`] plan.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Engages the adversarial delivery layer (see [`crate::adversary`]):
    /// the plan's delay jitter, duplication, corruption and scheduled
    /// partitions apply to every message that loss spares.
    /// Compose with [`Stack::transport`] to mask the injected faults; an
    /// inert plan leaves the run untouched.
    pub fn adversarial(mut self, plan: AdversaryPlan) -> Self {
        self.adversary = Some(plan);
        self
    }

    /// Will [`Executor::run`] wrap nodes in the reliable transport?
    pub fn engages_transport(&self) -> bool {
        self.transport.is_some() || self.loss > 0.0
    }

    /// Is the tracing layer engaged?
    pub fn is_traced(&self) -> bool {
        self.traced
    }

    /// A simulator over `topo` with this stack's churn, loss, adversary
    /// and tracing layers installed.
    fn simulator<'a, M: NodeLogic>(
        &mut self,
        topo: Topology<'a>,
        make: impl FnMut(NodeId) -> M,
        seed: u64,
    ) -> Simulator<'a, M> {
        let churn = self.churn.take().unwrap_or_default();
        let mut sim = Simulator::with_churn(topo, make, seed, churn);
        sim.set_loss(self.loss);
        if let Some(plan) = self.adversary.take() {
            sim.set_adversary(plan);
        }
        if self.traced {
            sim.set_event_log(EventLog::new());
        }
        sim
    }
}

/// Result of an [`Executor::run`]: final node states, metrics, the
/// logical-round count, and the recorded log when tracing was engaged.
#[derive(Debug)]
pub struct Run<L> {
    /// Final protocol state per node, in id order. Under the transport
    /// layer these are the *unwrapped* inner states — bit-for-bit those
    /// of a lossless run with the same seed.
    pub logics: Vec<L>,
    /// Communication metrics of the physical execution (including
    /// transport counters when that layer was engaged).
    pub metrics: Metrics,
    /// Logical protocol rounds executed: the simulator round count for
    /// a synchronous run, the transport's logical-round frontier for a
    /// transport run. Loss stretches physical rounds but never this.
    pub logical_rounds: u64,
    /// The recorded event log; `Some` iff the tracing layer was engaged.
    pub log: Option<EventLog>,
}

/// The composable protocol executor. Construct with a topology, a
/// node-logic factory and a master seed, select layers with a [`Stack`],
/// attach a span plan with [`Executor::phases`], and execute with
/// [`Executor::run`].
///
/// ```
/// use ftclust_netsim::exec::{Executor, Phase, Stack};
/// # use ftclust_netsim::{Context, Control, Inbox, NodeLogic, Payload, Topology};
/// # use ftclust_graphs::generators;
/// # #[derive(Clone, Debug)]
/// # struct Ping(u8);
/// # impl Payload for Ping { fn bit_size(&self) -> usize { 1 } }
/// # #[derive(Debug)]
/// # struct Node;
/// # impl NodeLogic for Node {
/// #     type Payload = Ping;
/// #     fn on_round(&mut self, _: Inbox<'_, Ping>, ctx: &mut Context<'_, Ping>) -> Control {
/// #         if ctx.round() >= 2 { return Control::Halt; }
/// #         ctx.broadcast(Ping(1));
/// #         Control::Continue
/// #     }
/// # }
/// let g = generators::cycle(8);
/// let run = Executor::new(Topology::from_graph(&g), |_| Node, 7)
///     .stack(Stack::new().lossy(0.1).traced())
///     .run(4)?;
/// assert!(run.log.is_some());
/// # Ok::<(), ftclust_netsim::SimError>(())
/// ```
pub struct Executor<'a, L: NodeLogic, F: FnMut(NodeId) -> L> {
    topo: Topology<'a>,
    make: F,
    seed: u64,
    stack: Stack,
    phases: Vec<Phase>,
}

impl<L: NodeLogic, F: FnMut(NodeId) -> L> std::fmt::Debug for Executor<'_, L, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("seed", &self.seed)
            .field("stack", &self.stack)
            .field("phases", &self.phases)
            .finish_non_exhaustive()
    }
}

impl<'a, L: NodeLogic, F: FnMut(NodeId) -> L> Executor<'a, L, F> {
    /// A bare executor over `topo` with per-node logic from `make` and
    /// the given master seed; no layers engaged.
    pub fn new(topo: Topology<'a>, make: F, seed: u64) -> Self {
        Executor {
            topo,
            make,
            seed,
            stack: Stack::new(),
            phases: Vec::new(),
        }
    }

    /// Replaces the whole layer selection at once (see [`Stack`]).
    pub fn stack(mut self, stack: Stack) -> Self {
        self.stack = stack;
        self
    }

    /// Attaches the declarative span plan that traced runs bracket
    /// their rounds with (an empty plan records an unspanned log).
    /// [`Executor::run`] validates the plan on every run, traced or not,
    /// so a malformed plan panics even when tracing is off.
    pub fn phases(mut self, plan: Vec<Phase>) -> Self {
        self.phases = plan;
        self
    }

    /// Executes the run with the selected layers. `logical_budget` is
    /// the protocol's logical-round ceiling: synchronous paths abort
    /// with [`SimError::RoundLimitExceeded`] past it, transport paths
    /// scale it to a physical ceiling via
    /// [`TransportConfig::round_budget`].
    ///
    /// # Errors
    ///
    /// [`SimError::RoundLimitExceeded`] past the budget;
    /// [`SimError::DeliveryFailed`] when the transport layer exhausts a
    /// retransmit budget; [`SimError::InvalidTransportConfig`] when the
    /// stack's transport policy is invalid.
    ///
    /// # Panics
    ///
    /// Panics if the phase plan is malformed: an unregistered span
    /// name, a zero-round phase, or a [`Phase::Loop`] / [`Phase::Tail`]
    /// that is not the final entry. In debug builds, also panics if a
    /// traced run's log does not reconcile with its metrics.
    pub fn run(self, logical_budget: u64) -> Result<Run<L>, SimError> {
        validate_phases(&self.phases);
        let run = if self.stack.engages_transport() {
            let cfg = self.stack.transport.unwrap_or_default();
            cfg.validate()?;
            self.run_transport(cfg, logical_budget)?
        } else {
            self.run_sync(logical_budget)?
        };
        debug_assert_eq!(
            run.log
                .as_ref()
                .map_or(Ok(()), |log| log.reconcile(&run.metrics)),
            Ok(()),
            "trace rollups diverged from Metrics"
        );
        Ok(run)
    }

    /// Synchronous path: `Simulator::run` with the span cursor advanced
    /// before each step to the round about to run.
    fn run_sync(mut self, budget: u64) -> Result<Run<L>, SimError> {
        let mut sim = self.stack.simulator(self.topo, self.make, self.seed);
        let mut cursor = self
            .stack
            .traced
            .then(|| SpanCursor::start(&self.phases, &mut sim));
        while !sim.is_quiescent() {
            if sim.round() >= budget {
                return Err(sim.round_limit_exceeded(budget));
            }
            if let Some(cursor) = &mut cursor {
                cursor.advance_to(sim.round() + 1, &mut sim);
            }
            sim.step();
        }
        if let Some(cursor) = &mut cursor {
            cursor.close(&mut sim);
        }
        let metrics = sim.metrics().clone();
        let logical_rounds = metrics.rounds;
        let log = sim.take_event_log();
        Ok(Run {
            logics: sim.into_logics(),
            metrics,
            logical_rounds,
            log,
        })
    }

    /// Transport path: every node wrapped in [`Reliable`], the simulator
    /// stepped until every node is [`Reliable::done`]. Traced, the span
    /// cursor advances after each step to the logical-round frontier,
    /// which is only computed when tracing is engaged.
    ///
    /// Neither check scans every node per round. A failing node halts,
    /// so failures are looked for only after a step that halted some
    /// node. `done` never turns false again, so the run counts the done
    /// prefix of the node ids: each round asks only the first node past
    /// it, and the run ends when the prefix covers every node.
    fn run_transport(mut self, cfg: TransportConfig, logical: u64) -> Result<Run<L>, SimError> {
        let make = &mut self.make;
        let mut sim = self
            .stack
            .simulator(self.topo, |v| Reliable::new(make(v), cfg), self.seed);
        let mut cursor = self
            .stack
            .traced
            .then(|| SpanCursor::start(&self.phases, &mut sim));
        let max_rounds = cfg.round_budget(logical);
        let mut unhalted = sim.unhalted_count();
        let n = sim.topology().graph().node_count();
        let mut done = 0;
        while sim.step() {
            // Surface a delivery failure immediately: the victim's
            // neighbors would otherwise wait for its frames until the
            // round limit and mask the root cause. Report the lowest id.
            if sim.unhalted_count() < unhalted {
                unhalted = sim.unhalted_count();
                if let Some((v, failure)) = sim
                    .logics()
                    .enumerate()
                    .find_map(|(i, l)| l.failure().map(|f| (i, f)))
                {
                    return Err(failure.into_error(NodeId::new(v as u32)));
                }
            }
            if let Some(cursor) = &mut cursor {
                let frontier = sim
                    .logics()
                    .map(Reliable::logical_rounds)
                    .max()
                    .unwrap_or(0);
                cursor.advance_to(frontier, &mut sim);
            }
            // Global termination: every node knows (from received acks
            // and halting frames) that it needs nothing more from the
            // network. Transport nodes stay responsive rather than
            // halting on their own, so this observation ends the run.
            while done < n && sim.logic(NodeId::new(done as u32)).done() {
                done += 1;
            }
            if done == n {
                break;
            }
            if sim.round() >= max_rounds && !sim.is_quiescent() {
                return Err(sim.round_limit_exceeded(max_rounds));
            }
        }
        if let Some(cursor) = &mut cursor {
            cursor.close(&mut sim);
        }
        let metrics = sim.metrics().clone();
        let logical_rounds = sim
            .logics()
            .map(Reliable::logical_rounds)
            .max()
            .unwrap_or(0);
        let log = sim.take_event_log();
        Ok(Run {
            logics: sim
                .into_logics()
                .into_iter()
                .map(Reliable::into_inner)
                .collect(),
            metrics,
            logical_rounds,
            log,
        })
    }
}

/// Rejects malformed phase plans: unregistered span names, zero-round
/// phases, or a quiescence-terminated phase that is not last.
fn validate_phases(phases: &[Phase]) {
    for (i, phase) in phases.iter().enumerate() {
        let name = phase.name();
        assert!(
            REGISTERED_SPANS.contains(&name),
            "span name {name:?} is not in trace::REGISTERED_SPANS"
        );
        match *phase {
            Phase::Span { rounds, .. } => {
                assert!(rounds > 0, "phase {name:?} covers zero rounds");
            }
            Phase::Loop { rounds, .. } => {
                assert!(rounds > 0, "phase {name:?} covers zero rounds");
                assert!(
                    i == phases.len() - 1,
                    "Loop phase {name:?} runs to quiescence and must be the final plan entry"
                );
            }
            Phase::Tail { .. } => {
                assert!(
                    i == phases.len() - 1,
                    "Tail phase {name:?} runs to quiescence and must be the final plan entry"
                );
            }
        }
    }
}

/// Walks a [`Phase`] plan along a run's rounds, opening and closing
/// every span the executor records. Each phase owns a contiguous range
/// of logical rounds; [`SpanCursor::advance_to`] exits and enters spans
/// once the round count it is given **passes** a boundary, so the final
/// span is never followed by a spurious empty one when the run ends
/// exactly on a boundary.
struct SpanCursor<'p> {
    phases: &'p [Phase],
    /// Index of the next plan entry to open; a [`Phase::Loop`] stays
    /// next while it repeats.
    next: usize,
    /// Iterations of the [`Phase::Loop`] opened so far.
    loop_iter: u64,
    /// The currently open span, if any.
    open: Option<(&'static str, Option<u64>)>,
    /// First logical round *past* the current segment (`u64::MAX` for
    /// unbounded segments: a tail, or past the end of the plan).
    end: u64,
}

impl<'p> SpanCursor<'p> {
    /// A cursor with the plan's first phase open at round 0.
    fn start<M: NodeLogic>(phases: &'p [Phase], sim: &mut Simulator<'_, M>) -> Self {
        let mut cursor = SpanCursor {
            phases,
            next: 0,
            loop_iter: 0,
            open: None,
            end: 0,
        };
        cursor.advance_to(1, sim);
        cursor
    }

    /// Advances past every segment that `rounds` logical rounds have
    /// fully left behind (strictly passed), closing and opening spans.
    fn advance_to<M: NodeLogic>(&mut self, rounds: u64, sim: &mut Simulator<'_, M>) {
        while rounds > self.end {
            self.close(sim);
            let (name, arg, len) = match self.phases.get(self.next) {
                None => {
                    self.end = u64::MAX;
                    return;
                }
                Some(&Phase::Span { name, arg, rounds }) => {
                    self.next += 1;
                    (name, arg, rounds)
                }
                Some(&Phase::Loop { name, rounds }) => {
                    self.loop_iter += 1;
                    (name, Some(self.loop_iter - 1), rounds)
                }
                Some(&Phase::Tail { name }) => {
                    self.next += 1;
                    (name, None, u64::MAX)
                }
            };
            sim.span_enter(name, arg);
            self.open = Some((name, arg));
            self.end = self.end.saturating_add(len);
        }
    }

    /// Closes the open span, if any.
    fn close<M: NodeLogic>(&mut self, sim: &mut Simulator<'_, M>) {
        if let Some((name, arg)) = self.open.take() {
            sim.span_exit(name, arg);
        }
    }
}

/// Shared logical-round → iteration-count arithmetic for the
/// quiescence-looped protocols (UDG Part II promotion, coverage
/// repair), hoisted out of the per-protocol drivers where two subtly
/// different copies of it had grown.
///
/// Model: a run executes `prelude` scheduled rounds, then `period`-round
/// iterations that perform work, then one final no-op iteration in which
/// every node observes silence and halts `trailing` rounds in
/// (`trailing == period` when nodes halt in the iteration's last round,
/// less when they halt earlier — repair halts in round 2 of its 3-round
/// cycle). The *completed* (work-performing) iteration count is
/// therefore `(logical_rounds - prelude - trailing) / period`.
///
/// `logical_rounds == 0` (the empty-graph early return) yields 0; the
/// subtraction saturates so inconsistent inputs degrade to 0 instead of
/// wrapping, with `debug_assert`s flagging them — including a
/// divisibility audit: above the floor, a well-formed run's iteration
/// body is always an exact multiple of the period.
pub fn completed_iterations(logical_rounds: u64, prelude: u64, period: u64, trailing: u64) -> u32 {
    debug_assert!(period > 0, "iteration period must be positive");
    debug_assert!(
        (1..=period).contains(&trailing),
        "trailing rounds ({trailing}) must be in 1..=period ({period})"
    );
    debug_assert!(
        logical_rounds == 0 || logical_rounds >= prelude + trailing,
        "a non-empty run executes the prelude plus at least the trailing no-op iteration \
         (logical_rounds {logical_rounds}, prelude {prelude}, trailing {trailing})"
    );
    let body = logical_rounds.saturating_sub(prelude + trailing);
    debug_assert!(
        logical_rounds == 0 || body.is_multiple_of(period),
        "iteration body of {body} rounds is not a multiple of the {period}-round period"
    );
    u32::try_from(body / period).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bits_for_ids, Context, Control, Inbox, Payload};
    use ftclust_graphs::generators;
    use rand::Rng;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl Payload for Num {
        fn bit_size(&self) -> usize {
            bits_for_ids(1 << 16)
        }
    }

    /// Min-flood with per-round randomness: demanding enough that any
    /// divergence between execution paths shows up in the final states.
    #[derive(Debug, Clone, PartialEq)]
    struct Flood {
        best: u64,
        rounds: u64,
    }

    impl NodeLogic for Flood {
        type Payload = Num;
        fn on_round(&mut self, inbox: Inbox<'_, Num>, ctx: &mut Context<'_, Num>) -> Control {
            for e in inbox {
                self.best = self.best.min(e.payload.0);
            }
            if ctx.round() == 0 {
                self.best = ctx.rng().random_range(0..1 << 16);
            }
            if ctx.round() >= self.rounds {
                return Control::Halt;
            }
            ctx.broadcast(Num(self.best));
            Control::Continue
        }
    }

    fn flood(v: NodeId) -> Flood {
        let _ = v;
        Flood { best: 0, rounds: 6 }
    }

    // --- completed_iterations: exact parity with both historical
    // formulas at the off-by-one boundaries. ---

    /// The old UDG formula: `((L - 2·p1) / 3).saturating_sub(1)`.
    fn old_udg(logical_rounds: u64, part1_rounds: u64) -> u32 {
        ((logical_rounds - 2 * part1_rounds) / 3).saturating_sub(1) as u32
    }

    /// The old repair formula: `(L / 3).saturating_sub(1)`.
    fn old_repair(logical_rounds: u64) -> u32 {
        (logical_rounds / 3).saturating_sub(1) as u32
    }

    #[test]
    fn matches_old_udg_formula_at_boundaries() {
        // Valid UDG runs have L = 2·p1 + 3·(iterations + 1); probe every
        // remainder class around each multiple as well, since the old
        // formula silently floored them.
        for p1 in [0u64, 1, 3, 7] {
            for iters in 0u64..5 {
                let exact = 2 * p1 + 3 * (iters + 1);
                assert_eq!(
                    completed_iterations(exact, 2 * p1, 3, 3),
                    old_udg(exact, p1),
                    "L={exact} p1={p1}"
                );
                assert_eq!(completed_iterations(exact, 2 * p1, 3, 3), iters as u32);
            }
        }
    }

    #[test]
    fn matches_old_repair_formula_at_boundaries() {
        // Valid repair runs have L = 1 + 3·iterations + 2 = 3·(it + 1).
        for iters in 0u64..6 {
            let exact = 3 * (iters + 1);
            assert_eq!(
                completed_iterations(exact, 1, 3, 2),
                old_repair(exact),
                "L={exact}"
            );
            assert_eq!(completed_iterations(exact, 1, 3, 2), iters as u32);
        }
    }

    #[test]
    fn empty_run_yields_zero_iterations() {
        // The empty-graph early returns pass logical_rounds = 0.
        assert_eq!(completed_iterations(0, 0, 3, 3), 0);
        assert_eq!(completed_iterations(0, 1, 3, 2), 0);
        assert_eq!(completed_iterations(0, 14, 3, 3), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not a multiple")]
    fn off_period_round_count_is_flagged() {
        // One round below the next multiple: a malformed run.
        completed_iterations(3 * 4 + 1, 1, 3, 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "prelude plus at least the trailing")]
    fn short_run_is_flagged() {
        completed_iterations(2, 10, 3, 3);
    }

    // --- layer composition ---

    #[test]
    fn plain_run_matches_simulator() {
        let g = generators::gnp(20, 0.2, 3);
        let mut sim = Simulator::new(Topology::from_graph(&g), flood, 9);
        sim.run(10).unwrap();
        let run = Executor::new(Topology::from_graph(&g), flood, 9)
            .run(10)
            .unwrap();
        assert_eq!(run.metrics, sim.metrics().clone());
        assert_eq!(run.logics, sim.into_logics());
        assert!(run.log.is_none());
    }

    #[test]
    fn transport_layer_is_loss_transparent() {
        let g = generators::gnp(20, 0.2, 3);
        let lossless = Executor::new(Topology::from_graph(&g), flood, 9)
            .run(10)
            .unwrap();
        for p in [0.0, 0.15] {
            let lossy = Executor::new(Topology::from_graph(&g), flood, 9)
                .stack(Stack::new().transport(TransportConfig::default()).lossy(p))
                .run(10)
                .unwrap();
            assert_eq!(lossy.logics, lossless.logics, "p={p}");
            assert_eq!(lossy.logical_rounds, lossless.logical_rounds, "p={p}");
        }
    }

    #[test]
    fn traced_lossy_run_reconciles_and_matches_lossless_states() {
        let g = generators::gnp(24, 0.2, 5);
        let lossless = Executor::new(Topology::from_graph(&g), flood, 2)
            .run(10)
            .unwrap();
        let run = Executor::new(Topology::from_graph(&g), flood, 2)
            .stack(Stack::new().lossy(0.2).traced())
            .run(10)
            .unwrap();
        assert_eq!(run.logics, lossless.logics);
        let log = run.log.expect("traced run records a log");
        log.reconcile(&run.metrics).expect("rollups reconcile");
    }

    #[test]
    #[should_panic(expected = "not in trace::REGISTERED_SPANS")]
    fn unregistered_phase_name_is_rejected() {
        let g = generators::cycle(4);
        let _ = Executor::new(Topology::from_graph(&g), flood, 0)
            .stack(Stack::new().traced())
            .phases(vec![Phase::span("bogus_phase", 1)])
            .run(10);
    }

    #[test]
    #[should_panic(expected = "must be the final plan entry")]
    fn non_final_loop_is_rejected() {
        let g = generators::cycle(4);
        let _ = Executor::new(Topology::from_graph(&g), flood, 0)
            .phases(vec![Phase::repeat("repair_iter", 3), Phase::tail("dyndeg")])
            .run(10);
    }

    #[test]
    fn traced_and_untraced_runs_hit_the_round_limit_alike() {
        let g = generators::cycle(6);
        let plain = Executor::new(Topology::from_graph(&g), flood, 1)
            .run(3)
            .unwrap_err();
        let traced = Executor::new(Topology::from_graph(&g), flood, 1)
            .stack(Stack::new().traced())
            .phases(vec![Phase::repeat("repair_iter", 4)])
            .run(3)
            .unwrap_err();
        assert_eq!(traced, plain);
        assert!(matches!(
            plain,
            SimError::RoundLimitExceeded { round: 3, .. }
        ));
    }

    #[test]
    fn jittered_transport_produces_synchronous_states() {
        // The asynchronous stack: every frame delayed by 1..=4 rounds,
        // the timeout sized to the delay bound.
        let g = generators::gnp(16, 0.25, 8);
        let sync = Executor::new(Topology::from_graph(&g), flood, 4)
            .run(10)
            .unwrap();
        let rto = 2 * (4 + 1) + 1;
        let cfg = TransportConfig {
            rto,
            backoff_cap: rto.max(16),
            max_retransmits: 20,
        };
        let asynced = Executor::new(Topology::from_graph(&g), flood, 4)
            .stack(
                Stack::new()
                    .transport(cfg)
                    .adversarial(AdversaryPlan::new(4).jitter(1.0, 4))
                    .traced(),
            )
            .run(10)
            .unwrap();
        assert_eq!(asynced.logics, sync.logics);
        assert_eq!(asynced.logical_rounds, sync.logical_rounds);
        assert_eq!(asynced.metrics.retransmits, 0, "timeout undersized");
        let log = asynced.log.expect("traced stack records a log");
        log.reconcile(&asynced.metrics).expect("rollups reconcile");
    }

    #[test]
    fn invalid_transport_config_is_a_typed_error() {
        let g = generators::cycle(4);
        for (rto, backoff_cap) in [(0, 16), (8, 2)] {
            let bad = TransportConfig {
                rto,
                backoff_cap,
                max_retransmits: 20,
            };
            let never_built = |_| -> Flood { unreachable!("a node was built") };
            let Err(err) = Executor::new(Topology::from_graph(&g), never_built, 0)
                .stack(Stack::new().transport(bad))
                .run(10)
            else {
                panic!("rto {rto}, backoff_cap {backoff_cap} was accepted");
            };
            assert_eq!(err, SimError::InvalidTransportConfig { rto, backoff_cap });
        }
    }

    #[test]
    fn delivery_failure_names_the_lowest_failing_node() {
        // Total loss: every linked node exhausts its budget in the same
        // round. Nodes 0, 1 and 6 are isolated and halt rounds earlier,
        // so the failure scan runs after a halt that is no failure too.
        let g = ftclust_graphs::Graph::from_edges(7, &[(2, 3), (3, 4), (5, 4)]).unwrap();
        let cfg = TransportConfig {
            rto: 2,
            backoff_cap: 4,
            max_retransmits: 3,
        };
        let err = Executor::new(Topology::from_graph(&g), flood, 4)
            .stack(Stack::new().lossy(1.0).transport(cfg))
            .run(10)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::DeliveryFailed {
                from: NodeId::new(2),
                to: NodeId::new(3),
                seq: 0,
                attempts: cfg.max_retransmits + 1,
            }
        );
    }

    #[test]
    fn zero_loss_is_no_layer() {
        let stack = Stack::new().lossy(0.0);
        assert_eq!(stack, Stack::new());
        assert!(!stack.engages_transport());
        let g = generators::gnp(20, 0.2, 3);
        let lossless = Executor::new(Topology::from_graph(&g), flood, 9)
            .run(10)
            .unwrap();
        let run = Executor::new(Topology::from_graph(&g), flood, 9)
            .stack(stack)
            .run(10)
            .unwrap();
        assert_eq!(run.metrics.dropped_messages, 0);
        assert_eq!(run.metrics, lossless.metrics);
        assert_eq!(run.logics, lossless.logics);
    }
}
