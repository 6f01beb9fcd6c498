//! Message-passing implementation of Algorithm 3 on [`ftclust_netsim`].
//!
//! **Part I** takes two simulator rounds per paper round `i`:
//!
//! * phase 0: (process last round's election messages;) active nodes draw
//!   `ID_i ∈ [1, n⁴]` and send it to every neighbor within `θ_i`
//!   (lines 5–7): those whose squared distance is at most `T_i`, the
//!   largest double whose square root is `≤ θ_i`, which selects exactly
//!   the neighbours at distance `≤ θ_i` with no square root,
//! * phase 1: active nodes elect the maximum identifier among the received
//!   ones and their own, and send `M` to the winner — possibly themselves
//!   (lines 8–9); a node that receives no `M` turns passive (lines 10–12).
//!
//! **Part II** is the promotion loop of [`crate::promotion`], seeded with
//! Part I's leaders at round `2·part1`: a status broadcast, then
//! iterations of three rounds (needy announcements, re-election, joins)
//! until no node is needy. Its join-itself rule covers the nodes that
//! Part I leaves with no leader within one hop.
//!
//! Identifier messages are metered at `4·⌈log₂ n⌉` bits — the paper's
//! `[1, n⁴]` range — plus a bit, which is [`UdgMsg::max_bits`]; everything
//! else, Part II included, is a single bit. This is the protocol whose
//! maximum message size scales visibly as `Θ(log n)` in experiment E8.
//!
//! This is the only implementation of Algorithm 3:
//! [`super::UdgAlgorithm::run`] runs it on the plain simulator.

use super::{square_limit, theta_schedule, IdMode, UdgAlgorithm, UdgRun};
use crate::promotion::{CarriesPromotion, PromotionLoop, PromotionMsg};
use crate::{DominatingSet, KmdsError};
use ftclust_graphs::{NodeId, UnitDiskGraph};
use ftclust_netsim::exec::{completed_iterations, Executor, Phase, Run, Stack};
use ftclust_netsim::{
    bits_for_ids, Context, Control, EventLog, Inbox, Metrics, NodeLogic, Payload, Topology,
};
use rand::Rng;

/// Wire messages of the UDG protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdgMsg {
    /// Part I identifier announcement; `id_bits` is the metered width of
    /// the identifier (4·⌈log₂ n⌉ for the `[1, n⁴]` range).
    Id {
        /// The round's random identifier.
        id: u64,
        /// Metered identifier width in bits.
        id_bits: u16,
    },
    /// Part I election message `M`.
    Elect,
    /// A Part II promotion-loop message.
    Loop(PromotionMsg),
}

impl UdgMsg {
    /// The CONGEST bound on every message of an `n`-node run: an
    /// identifier from the paper's `[1, n⁴]` range plus a bit. Elections
    /// and Part II messages are 1 bit.
    pub fn max_bits(n: usize) -> usize {
        1 + 4 * bits_for_ids(n)
    }
}

impl Payload for UdgMsg {
    fn bit_size(&self) -> usize {
        match self {
            UdgMsg::Id { id_bits, .. } => 1 + *id_bits as usize,
            UdgMsg::Elect => 1,
            UdgMsg::Loop(m) => m.bit_size(),
        }
    }
}

impl From<PromotionMsg> for UdgMsg {
    fn from(m: PromotionMsg) -> Self {
        UdgMsg::Loop(m)
    }
}

impl CarriesPromotion for UdgMsg {
    fn promotion(&self) -> Option<PromotionMsg> {
        match self {
            UdgMsg::Loop(m) => Some(*m),
            _ => None,
        }
    }
}

/// The u64 cap for the paper's identifier range `[1, n⁴]`.
fn id_cap(n: usize) -> u64 {
    (n.max(2) as u128).pow(4).min(u64::MAX as u128) as u64
}

/// The metered width of an identifier from `[1, n⁴]`: `4·⌈log₂ n⌉`.
fn id_bits(n: usize) -> u16 {
    (4 * bits_for_ids(n)) as u16
}

/// Per-node protocol state for Algorithm 3, borrowing the run's Part I
/// table for `'r`.
#[derive(Debug)]
pub struct UdgNode<'r> {
    id_mode: IdMode,
    /// Part I: each round's [`square_limit`] of `θ_i`, one table shared by
    /// every node of the run.
    limits: &'r [f64],
    id_cap: u64,
    id_bits: u16,
    active: bool,
    my_id: u64,
    fixed_drawn: bool,
    /// Paper round after which this node turned passive (None = leader).
    pub passive_after: Option<u32>,
    /// Part II: the promotion loop, seeded with the leaders.
    part2: PromotionLoop,
}

impl UdgNode<'_> {
    fn part1_rounds(&self) -> u64 {
        self.limits.len() as u64
    }

    /// Whether the node was still active after `i` Part I rounds
    /// (`i = 0` is the start, when every node is active).
    fn active_after(&self, i: u32) -> bool {
        self.passive_after.is_none_or(|p| p > i)
    }
}

impl NodeLogic for UdgNode<'_> {
    type Payload = UdgMsg;

    fn on_round(&mut self, inbox: Inbox<'_, UdgMsg>, ctx: &mut Context<'_, UdgMsg>) -> Control {
        let r = ctx.round();
        let base = 2 * self.part1_rounds();
        if r < base {
            let paper_round = (r / 2) as usize; // 0-based
            if r % 2 == 0 {
                // Phase 0: process last round's elections, then announce.
                if paper_round > 0 && self.active {
                    let got_m = inbox.iter().any(|e| matches!(e.payload, UdgMsg::Elect));
                    if !got_m {
                        self.active = false;
                        self.passive_after = Some(paper_round as u32);
                    }
                }
                if self.active {
                    match self.id_mode {
                        IdMode::FreshPerRound => {
                            self.my_id = ctx.rng().random_range(1..=self.id_cap);
                        }
                        IdMode::FixedAtStart => {
                            if !self.fixed_drawn {
                                self.my_id = ctx.rng().random_range(1..=self.id_cap);
                                self.fixed_drawn = true;
                            }
                        }
                    }
                    let Some(sq_distances) = ctx.sq_distances() else {
                        unreachable!("UDG topologies sense all neighbor distances");
                    };
                    let limit = self.limits[paper_round];
                    let (id, id_bits) = (self.my_id, self.id_bits);
                    for (&w, d2) in ctx.neighbors().iter().zip(sq_distances) {
                        if d2 <= limit {
                            ctx.send(w, UdgMsg::Id { id, id_bits });
                        }
                    }
                }
            } else if self.active {
                // Phase 1: elect the maximum (id, node) among A_v ∪ {me}.
                let mut best = (self.my_id, ctx.me());
                for e in inbox {
                    if let UdgMsg::Id { id, .. } = *e.payload {
                        if (id, e.from) > best {
                            best = (id, e.from);
                        }
                    }
                }
                ctx.send(best.1, UdgMsg::Elect);
            }
            return Control::Continue;
        }
        // Part II: the promotion loop, seeded with the leaders.
        let t = r - base;
        if t == 0 && self.active {
            // Final Part I election processing: survivors lead.
            if !inbox.iter().any(|e| matches!(e.payload, UdgMsg::Elect)) {
                self.active = false;
                self.passive_after = Some(self.part1_rounds() as u32);
            }
            self.part2.member = self.active;
        }
        self.part2.on_round(t, inbox, ctx)
    }
}

/// Result of a metered Algorithm 3 execution.
#[derive(Debug, Clone)]
pub struct UdgProtocolRun {
    /// The algorithm outputs, as [`UdgAlgorithm::run`] returns them.
    pub run: UdgRun,
    /// Rounds, messages and bits used.
    pub metrics: Metrics,
}

/// Algorithm 3's declarative span plan: each Part I doubling-radius
/// iteration runs under `part1_round(i)` (`i` indexes the θ schedule;
/// every iteration spans the two simulator rounds of its broadcast/decide
/// pair, Theorem 5.7's `O(log log n)` loop) and each Part II greedy step
/// under `part2_promotion(j)` (the status round, then the loop's 3-round
/// needy/re-elect/join cycles; nodes halt in a re-election round).
fn udg_phases(part1_rounds: u32) -> Vec<Phase> {
    let mut plan = Vec::with_capacity(part1_rounds as usize + 1);
    for i in 0..u64::from(part1_rounds) {
        plan.push(Phase::indexed("part1_round", i, 2));
    }
    plan.push(Phase::repeat("part2_promotion", 3));
    plan
}

/// The [`UdgProtocolRun`] of a zero-node instance, where no protocol runs.
fn empty_udg_run() -> UdgProtocolRun {
    UdgProtocolRun {
        run: UdgRun {
            set: DominatingSet::empty(0),
            leaders: DominatingSet::empty(0),
            part1_rounds: 0,
            part2_iterations: 0,
            active_history: vec![],
        },
        metrics: Metrics::default(),
    }
}

/// Runs **Algorithm 3** through the composable executor stack of
/// [`ftclust_netsim::exec`]: the reliable transport (loss masking), churn
/// and tracing layers selected by `stack` compose freely; `Stack::new()`
/// is the plain synchronous run, which [`UdgAlgorithm::run`] returns.
///
/// When the stack is traced, [`EventLog::rollups`] splits the run's cost
/// between Part I sparsification and Part II promotion via the plan
/// above. When the transport is engaged, drops and partition windows add
/// metered retransmissions but leave the computed set, leaders and
/// iteration counts seed-for-seed identical to the lossless run's
/// (asserted in debug builds, which also audit Part I); the Part II
/// iteration count is derived from the transport's **logical** round
/// count, which loss cannot inflate.
///
/// # Errors
///
/// Returns [`KmdsError::Sim`] if the round budget (`2·part1 + 3·(n+2)`)
/// is exceeded — impossible for valid unit disk graphs — or, with the
/// transport engaged, if loss exhausts a retransmit budget.
pub fn run_udg_stack(
    udg: &UnitDiskGraph,
    config: &UdgAlgorithm,
    stack: Stack,
) -> Result<(UdgProtocolRun, Option<EventLog>), KmdsError> {
    let n = udg.node_count();
    if n == 0 {
        let log = stack.is_traced().then(EventLog::new);
        return Ok((empty_udg_run(), log));
    }
    let transported = stack.engages_transport();
    let schedule = theta_schedule(n, udg.radius())?;
    let limits = square_limits(&schedule);
    let run = execute(udg, config, stack, &limits)?;
    let part1_rounds = schedule.len() as u32;
    let assembled = assemble_run(part1_rounds, run.logical_rounds, &run.logics);
    if cfg!(debug_assertions) {
        crate::audit::part1_invariants(
            udg,
            &active_masks(&run.logics, part1_rounds),
            assembled.leaders.as_members(),
            schedule.iter().sum(),
        );
        if transported {
            crate::audit::loss_transparent("Algorithm 3", &assembled, &config.run(udg)?);
        } else {
            crate::audit::congest("Algorithm 3", &run.metrics, UdgMsg::max_bits(n));
        }
    }
    Ok((
        UdgProtocolRun {
            run: assembled,
            metrics: run.metrics,
        },
        run.log,
    ))
}

/// Part I's table: the [`square_limit`] of each round's `θ_i`.
pub(crate) fn square_limits(schedule: &[f64]) -> Vec<f64> {
    schedule.iter().map(|&theta| square_limit(theta)).collect()
}

/// Executes the protocol on a non-empty deployment, with Part I's
/// [`square_limits`] table, and returns the executor's [`Run`]: the final
/// node states, metrics and log.
pub(crate) fn execute<'r>(
    udg: &UnitDiskGraph,
    config: &UdgAlgorithm,
    stack: Stack,
    limits: &'r [f64],
) -> Result<Run<UdgNode<'r>>, KmdsError> {
    let n = udg.node_count();
    let part1_rounds = limits.len() as u32;
    let cap = id_cap(n);
    let id_bits = id_bits(n);
    let budget = 2 * u64::from(part1_rounds) + 3 * (n as u64 + 2) + 8;
    let run = Executor::new(
        Topology::from_udg(udg),
        |_: NodeId| UdgNode {
            id_mode: config.id_mode,
            limits,
            id_cap: cap,
            id_bits,
            active: true,
            my_id: 0,
            fixed_drawn: false,
            passive_after: None,
            part2: PromotionLoop::new(config.k, false),
        },
        config.seed,
    )
    .stack(stack)
    .phases(udg_phases(part1_rounds))
    .run(budget)?;
    Ok(run)
}

/// Part I's active masks from the final node states: entry `i`
/// (`0 ..= part1_rounds`) marks the nodes still active after `i` rounds,
/// so entry 0 is every node and the last entry is the leaders.
pub(crate) fn active_masks(nodes: &[UdgNode<'_>], part1_rounds: u32) -> Vec<Vec<bool>> {
    (0..=part1_rounds)
        .map(|i| nodes.iter().map(|v| v.active_after(i)).collect())
        .collect()
}

/// Assembles the [`UdgRun`] from the final per-node states.
/// `logical_rounds` is the number of protocol rounds *executed by the
/// nodes* (equal to the simulator rounds in a lossless run, and to the
/// transport's logical-round count in a lossy one), from which the
/// Part II iteration count is derived.
fn assemble_run(part1_rounds: u32, logical_rounds: u64, nodes: &[UdgNode<'_>]) -> UdgRun {
    let members = nodes.iter().map(|v| v.part2.member).collect();
    let leaders = nodes.iter().map(|v| v.passive_after.is_none()).collect();
    let active_history: Vec<usize> = (1..=part1_rounds)
        .map(|i| nodes.iter().filter(|v| v.active_after(i)).count())
        .collect();
    // Part I occupies 2·part1_rounds logical rounds; Part II is the status
    // round, a 3-round cycle per iteration and a final all-quiet needy and
    // re-election round pair that merely detects termination.
    let part2_iterations = completed_iterations(logical_rounds, 2 * u64::from(part1_rounds), 3, 3);
    UdgRun {
        set: DominatingSet::from_members(members),
        leaders: DominatingSet::from_members(leaders),
        part1_rounds,
        part2_iterations,
        active_history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{is_k_dominating, Semantics};
    use ftclust_graphs::generators;
    use ftclust_netsim::transport::TransportConfig;

    /// FNV-1a over every output of a run: both member masks, both
    /// counters and the active-count series.
    fn run_digest(run: &UdgRun) -> u64 {
        let members = |s: &DominatingSet| -> Vec<u8> {
            s.as_members().iter().map(|&b| u8::from(b)).collect()
        };
        members(&run.set)
            .into_iter()
            .chain(members(&run.leaders))
            .chain(run.part1_rounds.to_le_bytes())
            .chain(run.part2_iterations.to_le_bytes())
            .chain(
                run.active_history
                    .iter()
                    .flat_map(|&a| (a as u64).to_le_bytes()),
            )
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Outputs recorded from the in-memory engine this protocol replaced
    /// (the two agreed on every case): `(|set|, |leaders|, part II
    /// iterations, run_digest)`. The two k = 3 cases on the n = 200
    /// deployment were recorded from this protocol.
    #[test]
    fn outputs_match_the_recorded_engine_runs() {
        use IdMode::{FixedAtStart as Fixed, FreshPerRound as Fresh};
        let udg = generators::random_udg(200, 9.0, 1.0, 77);
        for (k, mode, pin) in [
            (1u32, Fresh, (76, 76, 0, 0xf34c_2752_d786_7629)),
            (1, Fixed, (82, 82, 0, 0xbded_2c57_6f4a_1c89)),
            (2, Fresh, (81, 76, 1, 0x2ab5_6caf_b454_6f7b)),
            (2, Fixed, (86, 82, 1, 0xd0e1_e784_0d13_5346)),
            (3, Fresh, (104, 76, 1, 0xb0d5_0781_4b1b_13b4)),
            (3, Fixed, (100, 82, 1, 0xa2a5_a23f_b32e_e57a)),
        ] {
            let config = UdgAlgorithm::new(k).seed(5).id_mode(mode);
            let run = run_udg_stack(&udg, &config, Stack::new()).unwrap().0.run;
            let got = (
                run.set.len(),
                run.leaders.len(),
                run.part2_iterations,
                run_digest(&run),
            );
            assert_eq!(got, pin, "k={k}, {mode:?}");
        }
        for (seed, k, pin) in [
            (42u64, 1u32, (156, 156, 0, 0xe061_1fe2_1678_f937)),
            (7, 2, (173, 167, 1, 0xead6_4096_ed55_ce16)),
            (1234, 3, (190, 146, 1, 0xd822_a800_ee98_6b69)),
        ] {
            let udg = generators::random_udg(350, 9.0, 1.0, seed);
            let config = UdgAlgorithm::new(k).seed(seed ^ 0x5eed);
            let run = run_udg_stack(&udg, &config, Stack::new()).unwrap().0.run;
            let got = (
                run.set.len(),
                run.leaders.len(),
                run.part2_iterations,
                run_digest(&run),
            );
            assert_eq!(got, pin, "seed {seed}, k={k}");
        }
    }

    #[test]
    fn lossy_execution_matches_lossless() {
        let udg = generators::random_udg(120, 8.0, 1.0, 21);
        let config = UdgAlgorithm::new(2).seed(4);
        let lossless = run_udg_stack(&udg, &config, Stack::new()).unwrap().0.run;
        for p in [0.0, 0.05, 0.2] {
            let stack = Stack::new().lossy(p).transport(TransportConfig::default());
            let (run, _) = run_udg_stack(&udg, &config, stack).unwrap();
            assert_eq!(lossless, run.run, "diverged at p = {p}");
            if p == 0.0 {
                assert_eq!(run.metrics.retransmits, 0);
            } else {
                assert!(run.metrics.retransmits > 0);
            }
        }
    }

    #[test]
    fn active_masks_follow_passive_rounds() {
        let udg = generators::random_udg(200, 9.0, 1.0, 77);
        let config = UdgAlgorithm::new(1).seed(5);
        let limits = square_limits(&theta_schedule(200, 1.0).unwrap());
        let nodes = execute(&udg, &config, Stack::new(), &limits)
            .unwrap()
            .logics;
        let run = run_udg_stack(&udg, &config, Stack::new()).unwrap().0.run;
        let masks = active_masks(&nodes, run.part1_rounds);
        assert_eq!(masks.len(), run.part1_rounds as usize + 1);
        assert!(masks[0].iter().all(|&a| a));
        let counts: Vec<usize> = masks[1..]
            .iter()
            .map(|m| m.iter().filter(|&&a| a).count())
            .collect();
        assert_eq!(counts, run.active_history);
        assert_eq!(masks.last().unwrap(), run.leaders.as_members());
    }

    #[test]
    fn neighbours_exactly_at_theta_are_reached() {
        use ftclust_geometry::Point;
        use ftclust_netsim::TraceEvent;
        // Node 0 at the origin and, for every θ_i, neighbours on twelve
        // rays at distance θ_i (as computed, a hair either side or
        // exactly on it), on the axis at exactly θ_i and one double past
        // it; far-off fillers bring the count to n.
        let (n, radius) = (96usize, 0.7);
        let schedule = theta_schedule(n, radius).unwrap();
        let mut points = vec![Point::new(0.0, 0.0)];
        for &theta in &schedule {
            for j in 0..12 {
                let angle = f64::from(j) * std::f64::consts::PI / 6.0 + 0.1;
                points.push(Point::new(theta * angle.cos(), theta * angle.sin()));
            }
            points.push(Point::new(theta, 0.0));
            points.push(Point::new(0.0, -theta.next_up()));
        }
        let far = (n - points.len()) as u32;
        points.extend((0..far).map(|j| Point::new(10.0 + 2.0 * f64::from(j), 10.0)));
        let udg = UnitDiskGraph::build(points, radius).unwrap();
        let origin = NodeId::new(0);
        for &theta in &schedule {
            let at = |d: f64| {
                udg.graph()
                    .neighbors(origin)
                    .iter()
                    .any(|&w| udg.distance(origin, w) == d)
            };
            assert!(
                at(theta) && at(theta.next_up()),
                "θ = {theta} not straddled"
            );
        }
        let config = UdgAlgorithm::new(2).seed(9);
        let (run, log) = run_udg_stack(&udg, &config, Stack::new().traced()).unwrap();
        let limits = square_limits(&schedule);
        let nodes = execute(&udg, &config, Stack::new(), &limits)
            .unwrap()
            .logics;
        let masks = active_masks(&nodes, schedule.len() as u32);
        // Part I's sends, as the square-root comparison selects them.
        let mut expected = Vec::new();
        for (i, &theta) in schedule.iter().enumerate() {
            for u in udg.graph().nodes().filter(|u| masks[i][u.index()]) {
                for &w in udg.graph().neighbors(u) {
                    if udg.distance(u, w) <= theta {
                        expected.push((2 * i as u64, u, w));
                    }
                }
            }
        }
        let sent: Vec<_> = log
            .unwrap()
            .records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Send { from, to, .. }
                    if r.round % 2 == 0 && r.round < 2 * schedule.len() as u64 =>
                {
                    Some((r.round, from, to))
                }
                _ => None,
            })
            .collect();
        assert!(
            expected
                .iter()
                .any(|&(r, u, w)| udg.distance(u, w) == schedule[r as usize / 2]),
            "no send crosses a distance of exactly θ_i"
        );
        assert_eq!(sent, expected);
        assert_eq!(
            (sent.len(), run.run.leaders.len(), run.run.set.len()),
            (1655, 27, 28)
        );
    }

    #[test]
    fn id_cap_saturates() {
        assert_eq!(id_cap(2), 16);
        assert_eq!(id_cap(10), 10_000);
        assert_eq!(id_cap(100_000), u64::MAX); // 10²⁰ > u64::MAX
    }

    #[test]
    fn rounds_are_double_logarithmic_plus_constant() {
        let udg = generators::random_udg(1000, 10.0, 1.0, 3);
        let config = UdgAlgorithm::new(2).seed(1);
        let (run, _) = run_udg_stack(&udg, &config, Stack::new()).unwrap();
        let r = theta_schedule(1000, 1.0).unwrap().len() as u64;
        assert!(run.metrics.rounds >= 2 * r);
        assert!(
            run.metrics.rounds <= 2 * r + 3 * 12,
            "part II used too many rounds: {}",
            run.metrics.rounds
        );
        assert!(is_k_dominating(
            udg.graph(),
            &run.run.set,
            2,
            Semantics::Strict
        ));
    }

    #[test]
    fn message_bits_scale_as_four_log_n() {
        use PromotionMsg::{Join, Needy, Promote, Status};
        let udg = generators::random_udg(500, 8.0, 1.0, 2);
        let (run, _) = run_udg_stack(&udg, &UdgAlgorithm::new(1), Stack::new()).unwrap();
        // The identifier announcements reach the bound exactly.
        assert_eq!(run.metrics.max_message_bits, UdgMsg::max_bits(500) as u64);
        // So does every identifier the protocol would draw at a small
        // and a large n, and the other messages fit under it.
        for n in [4usize, 1 << 20] {
            let id = UdgMsg::Id {
                id: id_cap(n),
                id_bits: id_bits(n),
            };
            assert_eq!(id.bit_size(), UdgMsg::max_bits(n), "n = {n}");
            for msg in [
                UdgMsg::Elect,
                UdgMsg::Loop(Status { member: true }),
                UdgMsg::Loop(Needy),
                UdgMsg::Loop(Promote),
                UdgMsg::Loop(Join),
            ] {
                assert!(msg.bit_size() <= UdgMsg::max_bits(n), "n = {n}: {msg:?}");
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty = ftclust_graphs::UnitDiskGraph::build(vec![], 1.0).unwrap();
        let (run, _) = run_udg_stack(&empty, &UdgAlgorithm::new(2), Stack::new()).unwrap();
        assert_eq!(run.run.set.len(), 0);
        let single =
            ftclust_graphs::UnitDiskGraph::build(vec![ftclust_geometry::Point::new(0.0, 0.0)], 1.0)
                .unwrap();
        let (run, _) = run_udg_stack(&single, &UdgAlgorithm::new(3), Stack::new()).unwrap();
        assert_eq!(run.run.set.len(), 1);
    }

    #[test]
    fn traced_run_matches_untraced_and_reconciles() {
        use ftclust_netsim::trace::{REGISTERED_SPANS, UNSPANNED};
        let udg = generators::random_udg(120, 8.0, 1.0, 11);
        let config = UdgAlgorithm::new(2).seed(4);
        let (base, _) = run_udg_stack(&udg, &config, Stack::new()).unwrap();
        let (traced, log) = run_udg_stack(&udg, &config, Stack::new().traced()).unwrap();
        let log = log.expect("traced stack records a log");
        assert_eq!(base.run, traced.run);
        assert_eq!(base.metrics, traced.metrics);
        log.reconcile(&traced.metrics).unwrap();
        let rollups = log.rollups();
        for r in &rollups {
            assert!(
                r.name == UNSPANNED || REGISTERED_SPANS.contains(&r.name),
                "unregistered span {:?}",
                r.name
            );
        }
        for expected in ["part1_round", "part2_promotion"] {
            assert!(
                rollups.iter().any(|r| r.name == expected),
                "missing phase {expected}"
            );
        }
    }
}
