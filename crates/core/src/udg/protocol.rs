//! Message-passing implementation of Algorithm 3 on [`ftclust_netsim`].
//!
//! **Part I** takes two simulator rounds per paper round `i`:
//!
//! * phase 0: (process last round's election messages;) active nodes draw
//!   `ID_i ∈ [1, n⁴]` and send it to every neighbor within `θ_i`
//!   (lines 5–7),
//! * phase 1: active nodes elect the maximum identifier among the received
//!   ones and their own, and send `M` to the winner — possibly themselves
//!   (lines 8–9); a node that receives no `M` turns passive (lines 10–12).
//!
//! **Part II** runs iterations of three rounds: leader-status broadcast,
//! needy announcements (`c(v) < k`), and promotions. A node halts once
//! neither it nor any neighbor is needy; leader statuses are cached so
//! halted neighbors (whose status can no longer change) stay correctly
//! known.
//!
//! Identifier messages are metered at `4·⌈log₂ n⌉` bits — the paper's
//! `[1, n⁴]` range — plus a bit; everything else is `O(log k)` or a single
//! bit. This is the protocol whose maximum message size scales visibly as
//! `Θ(log n)` in experiment E8.
//!
//! Seed-for-seed identical to the engine ([`super::UdgAlgorithm::run`]).

use super::part1::{id_cap, theta_schedule};
use super::part2::select_promotions;
use super::{IdMode, PromotionRule, UdgAlgorithm, UdgRun};
use crate::{DominatingSet, KmdsError};
use ftclust_graphs::{NodeId, UnitDiskGraph};
use ftclust_netsim::exec::{completed_iterations, Executor, Phase, Stack};
use ftclust_netsim::{
    bits_for_ids, Context, Control, Envelope, EventLog, Metrics, NodeLogic, Payload, Topology,
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
    /// Part II leader-status broadcast.
    Status {
        /// Whether the sender is currently a leader.
        leader: bool,
    },
    /// Part II "I am needy" announcement with the sender's current
    /// coverage (needed by the `MostDeficient` promotion rule).
    Needy {
        /// Leaders currently covering the sender (`< k`).
        cov: u32,
    },
    /// Part II promotion order.
    Promote,
}

impl Payload for UdgMsg {
    fn bit_size(&self) -> usize {
        match self {
            UdgMsg::Id { id_bits, .. } => 1 + *id_bits as usize,
            UdgMsg::Elect | UdgMsg::Promote => 1,
            UdgMsg::Status { .. } => 1,
            UdgMsg::Needy { cov } => 1 + bits_for_ids(*cov as usize + 2),
        }
    }
}

/// Per-node protocol state for Algorithm 3.
#[derive(Debug)]
pub struct UdgNode {
    k: u32,
    id_mode: IdMode,
    promotion: PromotionRule,
    /// Part I: consideration radii (absolute).
    schedule: Vec<f64>,
    id_cap: u64,
    id_bits: u16,
    active: bool,
    my_id: u64,
    fixed_drawn: bool,
    /// Paper round after which this node turned passive (None = leader).
    pub passive_after: Option<u32>,
    /// Part II state.
    pub leader: bool,
    neighbor_leader: Vec<bool>,
    my_needy: bool,
}

impl UdgNode {
    fn part1_rounds(&self) -> u64 {
        self.schedule.len() as u64
    }
}

impl NodeLogic for UdgNode {
    type Payload = UdgMsg;

    fn on_round(&mut self, inbox: &[Envelope<UdgMsg>], ctx: &mut Context<'_, UdgMsg>) -> Control {
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
                    let theta = self.schedule[paper_round];
                    let (id, id_bits) = (self.my_id, self.id_bits);
                    let within: Vec<NodeId> = ctx
                        .neighbors()
                        .iter()
                        .copied()
                        .filter(|&w| match ctx.distance_to(w) {
                            Some(d) => d <= theta,
                            None => unreachable!("UDG topologies sense all neighbor distances"),
                        })
                        .collect();
                    for w in within {
                        ctx.send(w, UdgMsg::Id { id, id_bits });
                    }
                }
            } else if self.active {
                // Phase 1: elect the maximum (id, node) among A_v ∪ {me}.
                let mut best = (self.my_id, ctx.me());
                for e in inbox {
                    if let UdgMsg::Id { id, .. } = e.payload {
                        if (id, e.from) > best {
                            best = (id, e.from);
                        }
                    }
                }
                ctx.send(best.1, UdgMsg::Elect);
            }
            return Control::Continue;
        }
        // Part II.
        let phase = (r - base) % 3;
        match phase {
            0 => {
                if r == base {
                    // Final Part I election processing: survivors lead.
                    if self.active {
                        let got_m = inbox.iter().any(|e| matches!(e.payload, UdgMsg::Elect));
                        if !got_m {
                            self.active = false;
                            self.passive_after = Some(self.part1_rounds() as u32);
                        }
                    }
                    self.leader = self.active;
                    self.neighbor_leader = vec![false; ctx.degree()];
                } else {
                    // Accept promotions from the previous iteration.
                    if inbox.iter().any(|e| matches!(e.payload, UdgMsg::Promote)) {
                        self.leader = true;
                    }
                }
                ctx.broadcast(UdgMsg::Status {
                    leader: self.leader,
                });
                Control::Continue
            }
            1 => {
                // Refresh cached neighbor statuses; halted neighbors sent
                // nothing and their cached status is final.
                for e in inbox {
                    if let UdgMsg::Status { leader } = e.payload {
                        let Ok(pos) = ctx.neighbors().binary_search(&e.from) else {
                            unreachable!("inbox messages arrive only from neighbors");
                        };
                        self.neighbor_leader[pos] = leader;
                    }
                }
                let cov = u32::from(self.leader)
                    + self.neighbor_leader.iter().filter(|&&b| b).count() as u32;
                self.my_needy = !self.leader && cov < self.k;
                if self.my_needy {
                    ctx.broadcast(UdgMsg::Needy { cov });
                }
                Control::Continue
            }
            _ => {
                // Collect needy neighbors (ascending by construction).
                let needy: Vec<(NodeId, u32)> = inbox
                    .iter()
                    .filter_map(|e| match e.payload {
                        UdgMsg::Needy { cov } => Some((e.from, cov)),
                        _ => None,
                    })
                    .collect();
                if self.leader && !needy.is_empty() {
                    let ids: Vec<NodeId> = needy.iter().map(|&(v, _)| v).collect();
                    let cov_of = |v: NodeId| match needy.iter().find(|&&(w, _)| w == v) {
                        Some(&(_, c)) => c,
                        None => unreachable!("promotion candidates come from `needy`"),
                    };
                    let chosen =
                        select_promotions(&ids, cov_of, self.k as usize, self.promotion, ctx.rng());
                    for w in chosen {
                        ctx.send(w, UdgMsg::Promote);
                    }
                }
                if !self.my_needy && needy.is_empty() {
                    Control::Halt
                } else {
                    Control::Continue
                }
            }
        }
    }
}

/// Result of a metered Algorithm 3 execution.
#[derive(Debug, Clone)]
pub struct UdgProtocolRun {
    /// The algorithm outputs (identical to the engine's).
    pub run: UdgRun,
    /// Rounds, messages and bits used.
    pub metrics: Metrics,
}

/// Algorithm 3's declarative span plan: each Part I doubling-radius
/// iteration runs under `part1_round(i)` (`i` indexes the θ schedule;
/// every iteration spans the two simulator rounds of its broadcast/decide
/// pair, Theorem 5.7's `O(log log n)` loop) and each Part II greedy step
/// under `part2_promotion(j)` (the 3-round status/needy/promote cycle;
/// nodes only halt at the end of a cycle, so quiescence is always
/// observed on a cycle boundary).
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
/// and tracing layers selected by `stack` compose freely. This is the
/// canonical driver — [`run_udg_protocol`] is a thin wrapper over it on
/// the empty stack.
///
/// When the stack is traced, [`EventLog::rollups`] splits the run's cost
/// between Part I sparsification and Part II promotion via the plan
/// above. When the transport is engaged, drops and outage windows add
/// metered retransmissions but leave the computed set, leaders and
/// iteration counts seed-for-seed identical to the lossless run's
/// (asserted against the engine by the `strict-invariants` feature,
/// which also reconciles the log's rollups against the metrics); the
/// Part II iteration count is derived from the transport's **logical**
/// round count, which loss cannot inflate.
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
    let schedule = theta_schedule(n, udg.radius());
    let part1_rounds = schedule.len() as u32;
    let cap = id_cap(n);
    let id_bits = (4 * bits_for_ids(n.max(2))) as u16;
    let budget = 2 * u64::from(part1_rounds) + 3 * (n as u64 + 2) + 8;
    let _transported = stack.engages_transport();
    let run = Executor::new(
        Topology::from_udg(udg),
        |_: NodeId| UdgNode {
            k: config.k,
            id_mode: config.id_mode,
            promotion: config.promotion,
            schedule: schedule.clone(),
            id_cap: cap,
            id_bits,
            active: true,
            my_id: 0,
            fixed_drawn: false,
            passive_after: None,
            leader: false,
            neighbor_leader: Vec::new(),
            my_needy: false,
        },
        config.seed,
    )
    .stack(stack)
    .phases(udg_phases(part1_rounds))
    .run(budget)?;
    let assembled = assemble_run(part1_rounds, run.logical_rounds, run.logics.iter());
    #[cfg(feature = "strict-invariants")]
    {
        if _transported {
            crate::audit::loss_transparent("Algorithm 3", &assembled, &config.run(udg)?);
        }
        if let Some(log) = &run.log {
            if let Err(e) = log.reconcile(&run.metrics) {
                unreachable!("trace rollups diverged from Metrics: {e}");
            }
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

/// Runs **Algorithm 3** as a message-passing protocol with distance
/// sensing, collecting communication metrics.
///
/// # Errors
///
/// Returns [`KmdsError::Sim`] if the round budget (`2·part1 + 3·(n+2)`) is
/// exceeded — impossible for valid unit disk graphs.
pub fn run_udg_protocol(
    udg: &UnitDiskGraph,
    config: &UdgAlgorithm,
) -> Result<UdgProtocolRun, KmdsError> {
    run_udg_stack(udg, config, Stack::new()).map(|(run, _)| run)
}

/// Assembles the [`UdgRun`] from the final per-node states.
/// `logical_rounds` is the number of protocol rounds *executed by the
/// nodes* (equal to the simulator rounds in a lossless run, and to the
/// transport's logical-round count in a lossy one), from which the
/// Part II iteration count is derived.
fn assemble_run<'n>(
    part1_rounds: u32,
    logical_rounds: u64,
    nodes: impl Iterator<Item = &'n UdgNode>,
) -> UdgRun {
    let mut leaders = Vec::new();
    let mut members = Vec::new();
    let mut passive_after = Vec::new();
    for node in nodes {
        members.push(node.leader);
        leaders.push(node.passive_after.is_none());
        passive_after.push(node.passive_after.unwrap_or(u32::MAX));
    }
    // Reconstruct the per-round active counts: a node is active after
    // paper round i (1-based) iff passive_after > i.
    let active_history: Vec<usize> = (1..=part1_rounds)
        .map(|i| passive_after.iter().filter(|&&p| p > i).count())
        .collect();
    // Part I occupies 2·part1_rounds logical rounds, each Part II
    // iteration a 3-round cycle, and the final cycle is the all-quiet one
    // that merely detects termination.
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
    use ftclust_netsim::ChurnPlan;

    #[test]
    fn protocol_equals_engine() {
        for (k, rule) in [
            (1u32, PromotionRule::LowestId),
            (2, PromotionRule::LowestId),
            (3, PromotionRule::MostDeficient),
            (2, PromotionRule::Random),
        ] {
            for mode in [IdMode::FreshPerRound, IdMode::FixedAtStart] {
                let udg = generators::random_udg(200, 9.0, 1.0, 77);
                let config = UdgAlgorithm::new(k).seed(5).promotion(rule).id_mode(mode);
                let engine = config.run(&udg).unwrap();
                let proto = run_udg_protocol(&udg, &config).unwrap().run;
                assert_eq!(engine, proto, "divergence for k={k}, {rule:?}, {mode:?}");
            }
        }
    }

    #[test]
    fn lossy_execution_matches_engine() {
        let udg = generators::random_udg(120, 8.0, 1.0, 21);
        let config = UdgAlgorithm::new(2).seed(4);
        let engine = config.run(&udg).unwrap();
        for p in [0.0, 0.05, 0.2] {
            let stack = Stack::new()
                .churned(ChurnPlan::none().drop_probability(p))
                .transport(TransportConfig::default());
            let (run, _) = run_udg_stack(&udg, &config, stack).unwrap();
            assert_eq!(engine, run.run, "diverged at p = {p}");
            if p == 0.0 {
                assert_eq!(run.metrics.retransmits, 0);
            } else {
                assert!(run.metrics.retransmits > 0);
            }
        }
    }

    #[test]
    fn rounds_are_double_logarithmic_plus_constant() {
        let udg = generators::random_udg(1000, 10.0, 1.0, 3);
        let config = UdgAlgorithm::new(2).seed(1);
        let run = run_udg_protocol(&udg, &config).unwrap();
        let r = theta_schedule(1000, 1.0).len() as u64;
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
        let udg = generators::random_udg(500, 8.0, 1.0, 2);
        let run = run_udg_protocol(&udg, &UdgAlgorithm::new(1)).unwrap();
        let expected = 1 + 4 * bits_for_ids(500);
        assert_eq!(run.metrics.max_message_bits, expected as u64);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = ftclust_graphs::UnitDiskGraph::build(vec![], 1.0).unwrap();
        let run = run_udg_protocol(&empty, &UdgAlgorithm::new(2)).unwrap();
        assert_eq!(run.run.set.len(), 0);
        let single =
            ftclust_graphs::UnitDiskGraph::build(vec![ftclust_geometry::Point::new(0.0, 0.0)], 1.0)
                .unwrap();
        let run = run_udg_protocol(&single, &UdgAlgorithm::new(3)).unwrap();
        assert_eq!(run.run.set.len(), 1);
    }

    #[test]
    fn traced_run_matches_untraced_and_reconciles() {
        use ftclust_netsim::trace::{REGISTERED_SPANS, UNSPANNED};
        let udg = generators::random_udg(120, 8.0, 1.0, 11);
        let config = UdgAlgorithm::new(2).seed(4);
        let base = run_udg_protocol(&udg, &config).unwrap();
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
