//! Distributed coverage repair: restoring strict k-domination among the
//! survivors after a churn epoch.
//!
//! The paper's Section 1 motivation is that a k-fold dominating set keeps
//! clusters covered *when nodes fail*. This module supplies the missing
//! maintenance half of that story: after nodes crash (and possibly
//! recover — see [`ftclust_netsim::ChurnPlan`]), [`repair_coverage`]
//! re-establishes the invariant that every surviving non-member has at
//! least `k` surviving members among its neighbors
//! ([`Semantics::Strict`](crate::validate::Semantics::Strict) on the
//! surviving subgraph).
//!
//! # Protocol
//!
//! The repair is Algorithm 3's Part II run on the survivors: the
//! promotion loop of [`crate::promotion`], seeded with the surviving
//! members, so the healed set follows Part II's promotion rule. It draws
//! no randomness.
//!
//! 1. *Detection* — every survivor broadcasts its membership status; a
//!    non-member whose count of surviving dominators `c(v)` is below `k`
//!    becomes **needy** with deficit `k − c(v)`.
//! 2. *Need broadcast* — needy nodes announce that they are needy to
//!    their surviving neighbors.
//! 3. *Re-election* — a needy node with fewer than `k` surviving
//!    neighbors, or with no surviving member neighbor at all, promotes
//!    **itself** (members are exempt under strict semantics, and no
//!    neighborhood subset could ever supply its `k` dominators);
//!    meanwhile every surviving member promotes the `k` lowest-id needy
//!    neighbors (all of them if fewer).
//! 4. *Announcement* — new members announce themselves; coverage counts
//!    update and the loop repeats steps 2–4 while anyone is still needy.
//!
//! Every message is a 1-bit [`PromotionMsg`]: the repair sends the
//! promotion loop's own messages and nothing else.
//!
//! # Engine and protocol
//!
//! [`repair_coverage`] is the engine: a serial reference that evaluates
//! the rounds directly on shared state, one loop over the nodes per
//! round. It computes the outcome only; the cost of a repair is what
//! [`run_repair_stack`] meters when it executes the same rounds as real
//! message passing on [`ftclust_netsim`], under any executor stack
//! (**lossy links** behind the reliable transport of
//! [`ftclust_netsim::transport`] included). Both produce the identical
//! [`RepairOutcome`] for the same inputs; the stack driver seeds the
//! stack's own loss and churn draws with a fixed constant.
//!
//! # Continuous mode
//!
//! The epoch-based entry points above heal once, *after* a churn epoch
//! has ended. [`run_repair_continuous`] instead runs the repair as a
//! standing service **while** churn and adversarial delivery faults are
//! live: every 4-round cycle probes coverage with membership statuses,
//! records each node's observed deficit, and immediately re-elects and
//! joins replacements. The per-cycle deficit series feeds
//! [`ftclust_netsim::monitor::HealthMonitor`], which derives detection
//! latency and mean time to repair per fault burst. Continuous mode runs
//! *without* the reliable transport — ARQ cannot mask crash churn (a
//! frame addressed to a crashed node exhausts its retransmit budget) —
//! so the protocol itself is loss-tolerant: a lost or corrupted status
//! undercounts coverage, which can only cause a spurious *extra*
//! promotion, never a missed deficit.
//!
//! # Locality and termination
//!
//! Membership only ever grows, so coverage is monotone and the needy set
//! only shrinks. Every iteration with a non-empty needy set adds at least
//! one member (a needy node either self-elects or has a member neighbor,
//! and a member adjacent to needy nodes always promotes at least one), so
//! the loop terminates within `|needy|` iterations — in practice a small
//! constant. If the pre-failure set strictly k-dominated the *full*
//! graph, every needy node lost a dominator and is therefore a graph
//! neighbor of a failed node, and every added node is needy — so repair
//! **never touches a node farther than 2 hops from a failure** (debug
//! builds audit both this and the re-validation of the healed set).
//!
//! # Example
//!
//! ```
//! use ftclust_core::repair::{repair_coverage, run_repair_stack, surviving_instance};
//! use ftclust_core::udg::UdgAlgorithm;
//! use ftclust_core::validate::{is_k_dominating, Semantics};
//! use ftclust_graphs::generators;
//! use ftclust_netsim::exec::Stack;
//!
//! let udg = generators::random_udg(300, 10.0, 1.0, 7);
//! let run = UdgAlgorithm::new(2).seed(1).run(&udg)?;
//! // Kill three members, then heal.
//! let mut alive = vec![true; udg.node_count()];
//! for v in run.set.ids().take(3) {
//!     alive[v.index()] = false;
//! }
//! let out = repair_coverage(udg.graph(), &run.set, &alive, 2)?;
//! // The protocol heals identically, and every message it sends is 1 bit.
//! let (proto, _) = run_repair_stack(udg.graph(), &run.set, &alive, 2, Stack::new())?;
//! assert_eq!(proto.outcome, out);
//! assert_eq!(proto.metrics.total_bits, proto.metrics.messages);
//! let (sub, survivors) = surviving_instance(udg.graph(), &out.set, &alive)?;
//! assert!(is_k_dominating(&sub, &survivors, 2, Semantics::Strict));
//! # Ok::<(), ftclust_core::KmdsError>(())
//! ```

use crate::promotion::{select_promotions, PromotionLoop, PromotionMsg};
use crate::validate::mask_coverage;
use crate::{DominatingSet, KmdsError};
use ftclust_graphs::{Graph, NodeId};
use ftclust_netsim::exec::{completed_iterations, Executor, Phase, Stack};
use ftclust_netsim::monitor::HealthMonitor;
use ftclust_netsim::{Context, Control, EventLog, Inbox, Metrics, NodeLogic, Topology};

/// Master seed of the stack drivers' loss and churn draws. The repair
/// draws nothing itself, so the seed only picks which frames the lossy
/// layers drop; it is fixed because no caller needs another.
const STACK_SEED: u64 = 9;

/// Result of a coverage repair, the same from the engine
/// ([`repair_coverage`]) and the protocol ([`run_repair_stack`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The healed set over the full node universe. Dead members are
    /// pruned; all additions are surviving nodes.
    pub set: DominatingSet,
    /// Nodes added by the repair (self-elected or promoted), ascending.
    pub added: Vec<NodeId>,
    /// Re-election iterations executed (0 if nothing was needy).
    pub iterations: u32,
    /// Largest coverage deficit `k − c(v)` observed at detection time.
    pub peak_deficit: u32,
    /// Number of nodes below target coverage at detection time.
    pub deficit_nodes: usize,
}

/// Repairs `set` after failures so that the survivors again form a strict
/// k-fold dominating set of the surviving subgraph.
///
/// `alive[v]` tells whether node `v` survived the churn epoch; dead
/// members are pruned from the set and only surviving nodes are added.
/// See the [module docs](self) for the protocol and the locality
/// guarantee; [`run_repair_stack`] meters what it costs.
///
/// # Errors
///
/// Returns [`KmdsError::InvalidInput`] if `alive.len()` or the set
/// universe mismatch the graph, or if `k == 0`, and
/// [`KmdsError::IterationLimit`] if an iteration makes no progress —
/// impossible by the progress argument in the module docs; checked
/// defensively. Since every iteration adds a member, this check also
/// bounds the loop by `n` iterations.
pub fn repair_coverage(
    g: &Graph,
    set: &DominatingSet,
    alive: &[bool],
    k: u32,
) -> Result<RepairOutcome, KmdsError> {
    let n = g.node_count();
    check_inputs(n, set, Some(alive), Some(k))?;

    // Surviving membership: dead members are gone.
    let mut member: Vec<bool> = alive
        .iter()
        .zip(set.as_members())
        .map(|(&a, &m)| a && m)
        .collect();
    let alive_deg: Vec<u32> = g
        .nodes()
        .map(|v| g.neighbors(v).iter().filter(|w| alive[w.index()]).count() as u32)
        .collect();

    let mut added: Vec<NodeId> = Vec::new();
    let mut peak_deficit = 0u32;
    let mut deficit_nodes = 0usize;
    let mut iterations = 0u32;
    // Each member's join adds one to the coverage of its closed
    // neighborhood, so one count up front is kept current below.
    let mut cov = mask_coverage(g, &member);
    loop {
        let needy: Vec<bool> = (0..n)
            .map(|i| alive[i] && !member[i] && cov[i] < k)
            .collect();
        let needy_ids = || (0..n).filter(|&i| needy[i]);
        if iterations == 0 {
            deficit_nodes = needy_ids().count();
            peak_deficit = needy_ids().map(|i| k - cov[i]).max().unwrap_or(0);
        }
        if !needy.contains(&true) {
            break;
        }
        iterations += 1;
        // Round 2 of the iteration (round 1 announces the need):
        // self-elections and member promotions.
        let mut joins: Vec<bool> = (0..n)
            .map(|i| {
                needy[i]
                    && (alive_deg[i] < k
                        || !g
                            .neighbors(NodeId::new(i as u32))
                            .iter()
                            .any(|w| member[w.index()]))
            })
            .collect();
        let mut needy_nbrs: Vec<NodeId> = Vec::new();
        for i in (0..n).filter(|&i| member[i]) {
            needy_nbrs.clear();
            needy_nbrs.extend(
                g.neighbors(NodeId::new(i as u32))
                    .iter()
                    .copied()
                    .filter(|w| needy[w.index()]),
            );
            for w in select_promotions(&needy_nbrs, k as usize) {
                joins[w.index()] = true;
            }
        }
        // Round 3: the promoted and self-elected nodes join.
        let before = added.len();
        for i in 0..n {
            if joins[i] && !member[i] {
                member[i] = true;
                added.push(NodeId::new(i as u32));
                for w in g.closed_neighbors(NodeId::new(i as u32)) {
                    cov[w.index()] += 1;
                }
            }
        }
        if added.len() == before {
            return Err(KmdsError::IterationLimit {
                stage: "coverage repair",
                limit: u64::from(iterations),
            });
        }
    }
    added.sort_unstable();
    let outcome = RepairOutcome {
        set: DominatingSet::from_members(member),
        added,
        iterations,
        peak_deficit,
        deficit_nodes,
    };
    if cfg!(debug_assertions) {
        crate::audit::repair_postconditions(g, set, alive, k, &outcome.set, &outcome.added);
    }
    Ok(outcome)
}

/// Maps a full-universe set onto the subgraph induced by the `alive`
/// nodes, for validating repaired sets on the surviving topology.
///
/// Returns the surviving subgraph and the corresponding set in its id
/// space.
///
/// # Errors
///
/// [`KmdsError::InvalidInput`] if `alive.len()` or the set universe
/// differs from the node count.
pub fn surviving_instance(
    g: &Graph,
    set: &DominatingSet,
    alive: &[bool],
) -> Result<(Graph, DominatingSet), KmdsError> {
    check_inputs(g.node_count(), set, Some(alive), None)?;
    let keep: Vec<NodeId> = g.nodes().filter(|v| alive[v.index()]).collect();
    let (sub, old_of_new) = g.induced_subgraph(&keep);
    let members = old_of_new.iter().map(|&old| set.contains(old)).collect();
    Ok((sub, DominatingSet::from_members(members)))
}

/// Rejects repair inputs that do not fit a graph of `n` nodes, and a
/// coverage demand `k` of 0 where the entry point takes one.
fn check_inputs(
    n: usize,
    set: &DominatingSet,
    alive: Option<&[bool]>,
    k: Option<u32>,
) -> Result<(), KmdsError> {
    let what = if alive.is_some_and(|a| a.len() != n) {
        "liveness mask length differs from the node count"
    } else if set.universe() != n {
        "set universe differs from the node count"
    } else if k == Some(0) {
        "k must be at least 1"
    } else {
        return Ok(());
    };
    Err(KmdsError::InvalidInput { what })
}

/// Per-node state of the repair protocol on the **surviving subgraph** —
/// the message-passing twin of [`repair_coverage`], with the identical
/// outcome for the same inputs.
///
/// Each node runs the promotion loop from round 0, seeded with its own
/// pre-churn membership; it learns its neighbors' membership from their
/// round-0 status.
#[derive(Debug)]
pub struct RepairNode {
    promotion: PromotionLoop,
    /// Coverage deficit `k − c(v)` at detection time (0 unless needy).
    pub initial_deficit: u32,
}

impl NodeLogic for RepairNode {
    type Payload = PromotionMsg;

    fn on_round(
        &mut self,
        inbox: Inbox<'_, PromotionMsg>,
        ctx: &mut Context<'_, PromotionMsg>,
    ) -> Control {
        let r = ctx.round();
        let control = self.promotion.on_round(r, inbox, ctx);
        if r == 1 {
            self.initial_deficit = self.promotion.deficit();
        }
        control
    }
}

/// Result of a metered repair-protocol execution ([`run_repair_stack`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairProtocolRun {
    /// The outcome, identical to [`repair_coverage`]'s for the same
    /// inputs; the healed set is over the **full** node universe.
    pub outcome: RepairOutcome,
    /// Measured communication metrics of the execution (under loss they
    /// include the transport overhead).
    pub metrics: Metrics,
}

/// Maps the final per-node states back to the full universe.
fn assemble_repair(
    n_full: usize,
    old_of_new: &[NodeId],
    nodes: &[RepairNode],
    logical_rounds: u64,
    metrics: Metrics,
) -> RepairProtocolRun {
    let mut members = vec![false; n_full];
    let mut added = Vec::new();
    let mut peak_deficit = 0u32;
    let mut deficit_nodes = 0usize;
    for (node, &old) in nodes.iter().zip(old_of_new) {
        members[old.index()] = node.promotion.member;
        if node.promotion.joined {
            added.push(old);
        }
        if node.initial_deficit > 0 {
            deficit_nodes += 1;
            peak_deficit = peak_deficit.max(node.initial_deficit);
        }
    }
    added.sort_unstable();
    // Rounds: 1 detection, 3 per iteration, and a trailing no-op
    // iteration that halts in its second round (deficit silence, then
    // everyone halts) = 3·(iterations + 1) in total.
    let iterations = completed_iterations(logical_rounds, 1, 3, 2);
    RepairProtocolRun {
        outcome: RepairOutcome {
            set: DominatingSet::from_members(members),
            added,
            iterations,
            peak_deficit,
            deficit_nodes,
        },
        metrics,
    }
}

/// The coverage repair's declarative span plan: the round-0 status
/// exchange runs under a `repair_heartbeat` span and every 3-round
/// repair iteration (deficit announcement, re-election, join) under
/// `repair_iter(j)`. Nodes halt in the re-election round (the second
/// round of an iteration), so the final iteration's span may cover fewer
/// than three executed rounds — stepping a quiescent network is a no-op
/// and records nothing.
fn repair_phases() -> Vec<Phase> {
    vec![
        Phase::span("repair_heartbeat", 1),
        Phase::repeat("repair_iter", 3),
    ]
}

/// Runs the coverage repair as a **message-passing protocol** on the
/// surviving subgraph, through the composable executor stack of
/// [`ftclust_netsim::exec`], metering real rounds, messages and bits: the
/// reliable transport (loss masking), churn and tracing layers selected
/// by `stack` compose freely, and `Stack::new()` is the plain
/// synchronous run. The repair itself draws nothing; the stack's loss
/// and churn draws use a fixed master seed.
///
/// When the stack is traced, [`EventLog::rollups`] shows how the repair
/// cost is spread over iterations versus detection via the plan above.
/// When the transport is engaged, drops and partition windows add metered
/// retransmissions but leave the outcome identical to
/// [`repair_coverage`]'s for the same inputs (asserted in debug builds).
///
/// # Errors
///
/// Returns [`KmdsError::InvalidInput`] if `alive.len()` or the set
/// universe mismatch the graph, or if `k == 0`, and [`KmdsError::Sim`]
/// if the round budget is exceeded — impossible by the progress argument
/// in the [module docs](self) — or, with the transport engaged, if loss
/// exhausts a retransmit budget.
pub fn run_repair_stack(
    g: &Graph,
    set: &DominatingSet,
    alive: &[bool],
    k: u32,
    stack: Stack,
) -> Result<(RepairProtocolRun, Option<EventLog>), KmdsError> {
    let n = g.node_count();
    check_inputs(n, set, Some(alive), Some(k))?;
    let keep: Vec<NodeId> = g.nodes().filter(|v| alive[v.index()]).collect();
    let (sub, old_of_new) = g.induced_subgraph(&keep);
    if sub.node_count() == 0 {
        let log = stack.is_traced().then(EventLog::new);
        return Ok((assemble_repair(n, &[], &[], 0, Metrics::default()), log));
    }
    let transported = stack.engages_transport();
    let run = Executor::new(
        Topology::from_graph(&sub),
        |v| {
            let old = old_of_new[v.index()];
            RepairNode {
                promotion: PromotionLoop::new(k, set.contains(old)),
                initial_deficit: 0,
            }
        },
        STACK_SEED,
    )
    .stack(stack)
    .phases(repair_phases())
    .run(repair_round_budget(sub.node_count()))?;
    let out = assemble_repair(n, &old_of_new, &run.logics, run.logical_rounds, run.metrics);
    if cfg!(debug_assertions) {
        if transported {
            let engine = repair_coverage(g, set, alive, k)?;
            crate::audit::loss_transparent("coverage repair", &out.outcome, &engine);
        } else {
            crate::audit::congest("coverage repair", &out.metrics, PromotionMsg::MAX_BITS);
        }
    }
    Ok((out, run.log))
}

/// Logical-round budget of a repair run: detection + one three-round
/// iteration per survivor (the progress bound), a trailing no-op
/// iteration, and slack.
fn repair_round_budget(n_sub: usize) -> u64 {
    1 + 3 * (n_sub as u64 + 2) + 8
}

/// Per-node state of the **continuous** repair service (see the
/// [module docs](self) on continuous mode). Runs on the *full* graph
/// under live churn — liveness is whatever the simulator's churn plan
/// says at each round — in repeating 4-round cycles:
///
/// 1. *Probe* (round `4c`) — every live node broadcasts the loop's
///    [`PromotionMsg::Status`] carrying its membership.
/// 2. *Deficit* (round `4c + 1`) — each node counts the **distinct**
///    senders of a member status it heard (network duplicates must not
///    double-count coverage), records its observed deficit for the
///    monitor, and broadcasts [`PromotionMsg::Needy`] if under-covered.
/// 3. *Re-election* (round `4c + 2`) — the promotion loop's re-election
///    step: members promote up to `k` needy neighbors; a needy node that
///    heard no member status at all (or whose degree is below `k`) marks
///    itself for self-election.
/// 4. *Join* (round `4c + 3`) — the loop's join step: promoted and
///    self-elected nodes enter the set; the next cycle's probe
///    announces it.
///
/// Loss, corruption and partitions make the probe *undercount* coverage,
/// which can only trigger spurious extra promotions — the deficit probe
/// never misses a real deficit for longer than one cycle. Jittered
/// messages landing outside their cycle phase are ignored (each phase
/// reads only its own message variant), i.e. treated as loss.
#[derive(Debug)]
pub struct ContinuousRepairNode {
    promotion: PromotionLoop,
    /// Rounds this node participates in: it halts at round
    /// `4 * cycles`.
    horizon_rounds: u64,
    /// Observed `(cycle, deficit)` pairs, one per deficit round this
    /// node was alive for (a down node skips cycles, so the cycle index
    /// is recorded explicitly).
    pub deficits: Vec<(u64, u32)>,
}

impl NodeLogic for ContinuousRepairNode {
    type Payload = PromotionMsg;

    fn on_round(
        &mut self,
        inbox: Inbox<'_, PromotionMsg>,
        ctx: &mut Context<'_, PromotionMsg>,
    ) -> Control {
        let r = ctx.round();
        if r >= self.horizon_rounds {
            return Control::Halt;
        }
        let p = &mut self.promotion;
        match r % 4 {
            0 => ctx.broadcast(PromotionMsg::Status { member: p.member }),
            1 => {
                // Coverage probe readout: distinct member status senders
                // only — the adversary may deliver duplicates, and a
                // duplicated status must not count as two dominators.
                let mut members: Vec<NodeId> = inbox
                    .iter()
                    .filter(|e| *e.payload == PromotionMsg::Status { member: true })
                    .map(|e| e.from)
                    .collect();
                members.sort_unstable();
                members.dedup();
                p.cov = u32::from(p.member) + members.len() as u32;
                p.announce_need(ctx);
                self.deficits.push((r / 4, p.deficit()));
            }
            2 => {
                p.reelect(inbox, ctx);
            }
            _ => {
                p.join(inbox);
            }
        }
        Control::Continue
    }
}

/// Result of a [`run_repair_continuous`] execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousRepairRun {
    /// Final membership over the full node universe (crashed nodes keep
    /// their flag: a recovered member resumes as a member).
    pub set: DominatingSet,
    /// Nodes that joined the set at any point of the run, ascending.
    pub added: Vec<NodeId>,
    /// The per-cycle health series: the total observed coverage deficit
    /// of every probe cycle, ready for
    /// [`HealthMonitor::bursts`]/[`HealthMonitor::mttr`].
    pub monitor: HealthMonitor,
    /// Probe cycles executed.
    pub cycles: u64,
    /// Measured communication metrics of the physical execution.
    pub metrics: Metrics,
}

/// Runs the repair protocol **continuously** for `cycles` 4-round probe
/// cycles on the full graph while `stack`'s churn plan and adversary
/// inject faults live — no epochs, no global pause. Per-cycle observed
/// deficits are summed into a [`HealthMonitor`]; pair its series with
/// the burst schedule of the churn plan to get detection latency and
/// MTTR per burst. The service itself draws nothing; the stack's loss
/// and churn draws use a fixed master seed.
///
/// The tracing layer brackets the run into a `monitor` span (the
/// round-0 probe) and one `repair_continuous` span per cycle.
///
/// # Errors
///
/// Returns [`KmdsError::InvalidInput`] if the set universe mismatches the
/// graph, `k == 0`, or the stack engages the reliable transport:
/// continuous repair runs bare — ARQ cannot mask crash churn (frames to
/// crashed nodes exhaust their retransmit budget), and the protocol is
/// loss-tolerant by design (a lost status undercounts coverage, which
/// only over-promotes). Message faults reach it through
/// [`Stack::adversarial`]: corruption, partitions, duplication and
/// jitter all run without the transport. Returns [`KmdsError::Sim`] if
/// the physical-round budget (the horizon plus recovery slack) is
/// exceeded — only possible if the churn plan keeps nodes
/// down-but-wakeable long past the horizon.
pub fn run_repair_continuous(
    g: &Graph,
    set: &DominatingSet,
    k: u32,
    cycles: u64,
    stack: Stack,
) -> Result<(ContinuousRepairRun, Option<EventLog>), KmdsError> {
    let n = g.node_count();
    check_inputs(n, set, None, Some(k))?;
    if stack.engages_transport() {
        return Err(KmdsError::InvalidInput {
            what: "continuous repair runs without the transport layer (ARQ cannot mask \
                   crash churn); inject message faults via Stack::adversarial instead \
                   (corruption, partitions, duplication, jitter)",
        });
    }
    let horizon = 4 * cycles;
    let run = Executor::new(
        Topology::from_graph(g),
        |v| ContinuousRepairNode {
            promotion: PromotionLoop::new(k, set.contains(v)),
            horizon_rounds: horizon,
            deficits: Vec::new(),
        },
        STACK_SEED,
    )
    .stack(stack)
    .phases(vec![
        Phase::span("monitor", 1),
        Phase::repeat("repair_continuous", 4),
    ])
    // Physical budget: the horizon, plus slack for nodes that sit out
    // crashed past it and still owe their halting round after recovery.
    .run(horizon.saturating_mul(4).saturating_add(64))?;
    let mut members = vec![false; n];
    let mut added = Vec::new();
    let mut sums = vec![0u64; cycles as usize];
    for (i, node) in run.logics.iter().enumerate() {
        members[i] = node.promotion.member;
        if node.promotion.joined {
            added.push(NodeId::new(i as u32));
        }
        for &(c, d) in &node.deficits {
            sums[c as usize] += u64::from(d);
        }
    }
    let mut monitor = HealthMonitor::new();
    for s in sums {
        monitor.observe(s);
    }
    if cfg!(debug_assertions) {
        crate::audit::congest("continuous repair", &run.metrics, PromotionMsg::MAX_BITS);
    }
    Ok((
        ContinuousRepairRun {
            set: DominatingSet::from_members(members),
            added,
            monitor,
            cycles,
            metrics: run.metrics,
        },
        run.log,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udg::UdgAlgorithm;
    use crate::validate::{is_k_dominating, Semantics};
    use ftclust_graphs::generators;
    use ftclust_netsim::node_rng as nrng;
    use ftclust_netsim::transport::TransportConfig;
    use rand::Rng;

    /// Kill `count` members (spread across the id range) plus `count / 2`
    /// non-members, deterministically per seed.
    fn churn_mask(g: &Graph, set: &DominatingSet, count: usize, seed: u64) -> Vec<bool> {
        let mut alive = vec![true; g.node_count()];
        let mut rng = nrng(seed, NodeId::new(0));
        let members: Vec<NodeId> = set.ids().collect();
        for _ in 0..count {
            if members.is_empty() {
                break;
            }
            let idx = rng.random_range(0..members.len());
            alive[members[idx].index()] = false;
        }
        for _ in 0..count / 2 {
            let v = rng.random_range(0..g.node_count());
            alive[v] = false;
        }
        alive
    }

    #[test]
    fn heals_after_member_failures() {
        for k in [1u32, 2, 3] {
            let udg = generators::random_udg(400, 10.0, 1.0, 20 + u64::from(k));
            let g = udg.graph();
            let run = UdgAlgorithm::new(k).seed(3).run(&udg).unwrap();
            let alive = churn_mask(g, &run.set, 8, u64::from(k));
            let out = repair_coverage(g, &run.set, &alive, k).unwrap();
            let (sub, survivors) = surviving_instance(g, &out.set, &alive).unwrap();
            assert!(
                is_k_dominating(&sub, &survivors, k, Semantics::Strict),
                "not healed for k={k}"
            );
            // Dead nodes never stay in (or enter) the repaired set.
            assert!(out.set.ids().all(|v| alive[v.index()]));
        }
    }

    #[test]
    fn intact_set_needs_no_repair() {
        let udg = generators::random_udg(200, 8.0, 1.0, 4);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(1).run(&udg).unwrap();
        let alive = vec![true; g.node_count()];
        let out = repair_coverage(g, &run.set, &alive, 2).unwrap();
        assert_eq!(out.iterations, 0);
        assert_eq!(out.added, vec![]);
        assert_eq!(out.deficit_nodes, 0);
        assert_eq!(out.peak_deficit, 0);
        assert_eq!(out.set, run.set);
    }

    #[test]
    fn additions_stay_local_to_failures() {
        // With a valid pre-failure set, every added node must be within 2
        // hops of some dead node (the module-docs locality argument; the
        // debug-build audit re-checks this on every call).
        let udg = generators::random_udg(500, 12.0, 1.0, 9);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(2).run(&udg).unwrap();
        let alive = churn_mask(g, &run.set, 10, 17);
        let out = repair_coverage(g, &run.set, &alive, 2).unwrap();
        for &v in &out.added {
            let near_failure = g
                .closed_neighbors(v)
                .any(|u| !alive[u.index()] || g.neighbors(u).iter().any(|w| !alive[w.index()]));
            assert!(near_failure, "{v:?} added far from any failure");
        }
    }

    #[test]
    fn island_without_members_self_elects() {
        // Two far-apart cliques; the set lives entirely in one of them.
        // Killing it leaves an island with no member neighbors anywhere —
        // repair must still converge via self-election.
        let g = generators::gnp(6, 1.0, 0); // complete on 6 nodes
        let set = DominatingSet::from_ids(6, [NodeId::new(0), NodeId::new(1)]);
        let mut alive = vec![true; 6];
        alive[0] = false;
        alive[1] = false;
        let out = repair_coverage(&g, &set, &alive, 2).unwrap();
        let (sub, survivors) = surviving_instance(&g, &out.set, &alive).unwrap();
        assert!(is_k_dominating(&sub, &survivors, 2, Semantics::Strict));
        assert!(!out.set.is_empty());
    }

    #[test]
    fn degree_deficient_survivors_join_the_set() {
        // A path 0-1-2 where node 1 dies: nodes 0 and 2 each have 0
        // surviving neighbors, so k=1 strict domination is only possible
        // if both join the set themselves.
        let g = generators::path(3);
        let set = DominatingSet::from_ids(3, [NodeId::new(1)]);
        let alive = vec![true, false, true];
        let out = repair_coverage(&g, &set, &alive, 1).unwrap();
        assert!(out.set.contains(NodeId::new(0)));
        assert!(out.set.contains(NodeId::new(2)));
        assert_eq!(out.peak_deficit, 1);
        assert_eq!(out.deficit_nodes, 2);
    }

    #[test]
    fn heals_and_is_deterministic_across_seeds() {
        let udg = generators::random_udg(300, 10.0, 1.0, 33);
        let g = udg.graph();
        let run = UdgAlgorithm::new(3).seed(8).run(&udg).unwrap();
        for seed in [2u64, 3, 4] {
            let alive = churn_mask(g, &run.set, 6, seed);
            let a = repair_coverage(g, &run.set, &alive, 3).unwrap();
            let b = repair_coverage(g, &run.set, &alive, 3).unwrap();
            assert_eq!(a, b, "seed {seed} not deterministic");
            let (sub, survivors) = surviving_instance(g, &a.set, &alive).unwrap();
            assert!(
                is_k_dominating(&sub, &survivors, 3, Semantics::Strict),
                "seed {seed} failed to heal"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_repair() {
        let udg = generators::random_udg(600, 12.0, 1.0, 44);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(5).run(&udg).unwrap();
        let alive = churn_mask(g, &run.set, 12, 7);
        let baseline =
            ftclust_par::with_threads(1, || repair_coverage(g, &run.set, &alive, 2).unwrap());
        for threads in [2usize, 7] {
            let out = ftclust_par::with_threads(threads, || {
                repair_coverage(g, &run.set, &alive, 2).unwrap()
            });
            assert_eq!(out, baseline, "diverged at {threads} threads");
        }
    }

    /// Pins every field of the engine's outcome: a change to the engine's
    /// masks or coverage scans that moves one count moves this digest.
    #[test]
    fn repair_outcomes_are_pinned() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for seed in 0..4u64 {
            let udg = generators::random_udg(300, 12.0, 1.0, seed);
            let g = udg.graph();
            for k in [1u32, 2, 3] {
                let run = UdgAlgorithm::new(k).seed(seed).run(&udg).unwrap();
                let mut alive = vec![true; g.node_count()];
                for v in run.set.ids().step_by(5) {
                    alive[v.index()] = false;
                }
                let RepairOutcome {
                    set,
                    added,
                    iterations,
                    peak_deficit,
                    deficit_nodes,
                } = repair_coverage(g, &run.set, &alive, k).unwrap();
                fold(set.universe() as u64);
                set.ids().for_each(|v| fold(u64::from(v.raw())));
                fold(added.len() as u64);
                added.iter().for_each(|v| fold(u64::from(v.raw())));
                fold(u64::from(iterations));
                fold(u64::from(peak_deficit));
                fold(deficit_nodes as u64);
            }
        }
        assert_eq!(
            hash, 0x0add_f2c1_d11c_7e08,
            "repair outcome digest {hash:#018x}"
        );
    }

    #[test]
    fn everyone_dead_is_a_trivial_heal() {
        let g = generators::cycle(5);
        let set = DominatingSet::full(5);
        let alive = vec![false; 5];
        let out = repair_coverage(&g, &set, &alive, 2).unwrap();
        assert!(out.set.is_empty());
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn protocol_matches_engine_across_seeds() {
        let udg = generators::random_udg(300, 10.0, 1.0, 33);
        let g = udg.graph();
        let run = UdgAlgorithm::new(3).seed(8).run(&udg).unwrap();
        for seed in 2u64..8 {
            let alive = churn_mask(g, &run.set, 6, seed);
            let engine = repair_coverage(g, &run.set, &alive, 3).unwrap();
            let (proto, _) = run_repair_stack(g, &run.set, &alive, 3, Stack::new()).unwrap();
            assert_eq!(proto.outcome, engine, "seed {seed}");
            // Detection + 3 rounds per iteration + the trailing no-op
            // iteration in which everyone observes silence and halts.
            assert_eq!(
                proto.metrics.rounds,
                3 * (u64::from(engine.iterations) + 1),
                "seed {seed}: round count"
            );
        }
        // k = 2 sets of another deployment, each losing its five
        // lowest-id members.
        let udg = generators::random_udg(300, 10.0, 1.0, 77);
        let g = udg.graph();
        for seed in [9u64, 10, 11] {
            let run = UdgAlgorithm::new(2).seed(seed).run(&udg).unwrap();
            let mut alive = vec![true; g.node_count()];
            for v in run.set.ids().take(5) {
                alive[v.index()] = false;
            }
            let engine = repair_coverage(g, &run.set, &alive, 2).unwrap();
            let (proto, _) = run_repair_stack(g, &run.set, &alive, 2, Stack::new()).unwrap();
            assert_eq!(proto.outcome, engine, "k=2 seed {seed}");
        }
    }

    #[test]
    fn protocol_handles_trivial_and_islanded_cases() {
        // Nobody alive: nothing to simulate.
        let g = generators::cycle(5);
        let (out, _) =
            run_repair_stack(&g, &DominatingSet::full(5), &[false; 5], 2, Stack::new()).unwrap();
        assert!(out.outcome.set.is_empty());
        assert_eq!(out.outcome.iterations, 0);
        assert_eq!(out.metrics.messages, 0);

        // Memberless island: self-election path, including isolated nodes.
        let g = generators::path(3);
        let set = DominatingSet::from_ids(3, [NodeId::new(1)]);
        let alive = vec![true, false, true];
        let engine = repair_coverage(&g, &set, &alive, 1).unwrap();
        let (proto, _) = run_repair_stack(&g, &set, &alive, 1, Stack::new()).unwrap();
        assert_eq!(proto.outcome, engine, "severed path");
        assert!(proto.outcome.set.contains(NodeId::new(0)));
        assert!(proto.outcome.set.contains(NodeId::new(2)));
    }

    #[test]
    fn lossy_protocol_matches_engine() {
        let udg = generators::random_udg(200, 9.0, 1.0, 51);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(6).run(&udg).unwrap();
        let alive = churn_mask(g, &run.set, 6, 9);
        let engine = repair_coverage(g, &run.set, &alive, 2).unwrap();
        for p in [0.0, 0.05, 0.2] {
            let stack = Stack::new().lossy(p).transport(TransportConfig::default());
            let (proto, _) = run_repair_stack(g, &run.set, &alive, 2, stack).unwrap();
            assert_eq!(proto.outcome, engine, "p = {p}");
            if p == 0.0 {
                assert_eq!(proto.metrics.retransmits, 0, "lossless run retransmitted");
            } else {
                assert!(
                    proto.metrics.retransmits > 0,
                    "p = {p} run saw no retransmissions"
                );
            }
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_reconciles() {
        use ftclust_netsim::trace::{REGISTERED_SPANS, UNSPANNED};
        let udg = generators::random_udg(300, 10.0, 1.0, 21);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(3).run(&udg).unwrap();
        let alive = churn_mask(g, &run.set, 6, 2);
        let (base, _) = run_repair_stack(g, &run.set, &alive, 2, Stack::new()).unwrap();
        let (traced, log) =
            run_repair_stack(g, &run.set, &alive, 2, Stack::new().traced()).unwrap();
        let log = log.expect("traced stack records a log");
        assert_eq!(base, traced);
        log.reconcile(&traced.metrics).unwrap();
        let rollups = log.rollups();
        for r in &rollups {
            assert!(
                r.name == UNSPANNED || REGISTERED_SPANS.contains(&r.name),
                "unregistered span {:?}",
                r.name
            );
        }
        for expected in ["repair_heartbeat", "repair_iter"] {
            assert!(
                rollups.iter().any(|r| r.name == expected),
                "missing phase {expected}"
            );
        }
    }

    /// Alive mask for a churn plan whose crashes are never recovered.
    fn alive_after(n: usize, churn: &ftclust_netsim::ChurnPlan) -> Vec<bool> {
        use ftclust_netsim::ChurnEvent;
        let mut alive = vec![true; n];
        for (_, v, ev) in churn.scheduled_events() {
            alive[v.index()] = matches!(ev, ChurnEvent::Recover);
        }
        alive
    }

    #[test]
    fn continuous_repair_heals_scheduled_burst() {
        use ftclust_netsim::ChurnPlan;
        let udg = generators::random_udg(300, 10.0, 1.0, 33);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(4).run(&udg).unwrap();
        // Crash a slice of members at round 8 — the cycle-2 probe.
        let members: Vec<NodeId> = run.set.ids().collect();
        let mut churn = ChurnPlan::none();
        for &m in members.iter().step_by(3).take(8) {
            churn = churn.crash(m, 8);
        }
        let (out, _) =
            run_repair_continuous(g, &run.set, 2, 10, Stack::new().churned(churn.clone())).unwrap();
        assert_eq!(out.cycles, 10);
        assert_eq!(out.monitor.cycles(), 10);
        // Quiet before the burst: the initial set strictly 2-dominates.
        assert_eq!(&out.monitor.deficits()[..2], &[0, 0]);
        // The burst is detected at its own probe cycle and repaired.
        let reports = out.monitor.bursts(&[2]);
        assert_eq!(reports[0].detected_cycle, Some(2));
        let mttr = ftclust_netsim::monitor::HealthMonitor::mttr(&reports)
            .expect("burst must be repaired within the run");
        assert!(mttr >= 1.0, "repair cannot precede detection");
        assert!(!out.added.is_empty(), "healing must add replacements");
        // The healed set strictly k-dominates the survivors.
        let alive = alive_after(g.node_count(), &churn);
        let (sub, survivors) = surviving_instance(g, &out.set, &alive).unwrap();
        assert!(is_k_dominating(&sub, &survivors, 2, Semantics::Strict));
    }

    /// The continuous service on a 300-node deployment whose member slice
    /// crashes at the cycle-2 probe, under jitter, duplication and
    /// corruption. Returns the graph, the run and the churn plan.
    fn chaos_continuous_run() -> (
        ftclust_graphs::UnitDiskGraph,
        ContinuousRepairRun,
        ftclust_netsim::ChurnPlan,
    ) {
        use ftclust_netsim::{AdversaryPlan, ChurnPlan};
        let udg = generators::random_udg(300, 10.0, 1.0, 33);
        let run = UdgAlgorithm::new(2).seed(4).run(&udg).unwrap();
        let members: Vec<NodeId> = run.set.ids().collect();
        let mut churn = ChurnPlan::none();
        for &m in members.iter().step_by(3).take(8) {
            churn = churn.crash(m, 8);
        }
        // Jitter capped at 3 rounds: a delayed probe can never alias into
        // a later deficit round (that needs delay ≡ 0 mod 4), so
        // out-of-phase arrivals degrade to loss, which the protocol
        // tolerates by design.
        let plan = AdversaryPlan::new(0xC4A05)
            .jitter(0.15, 3)
            .duplicate(0.1)
            .corrupt(0.1);
        let (out, _) = run_repair_continuous(
            udg.graph(),
            &run.set,
            2,
            16,
            Stack::new().churned(churn.clone()).adversarial(plan),
        )
        .unwrap();
        (udg, out, churn)
    }

    #[test]
    fn continuous_repair_heals_under_adversarial_chaos() {
        let (udg, out, churn) = chaos_continuous_run();
        let g = udg.graph();
        assert!(out.metrics.corrupted > 0, "chaos run saw no corruption");
        assert!(
            out.metrics.net_duplicated > 0,
            "chaos run saw no duplicates"
        );
        let reports = out.monitor.bursts(&[2]);
        assert!(reports[0].detected_cycle.is_some(), "burst went undetected");
        assert!(
            reports[0].repaired_cycle.is_some(),
            "burst unrepaired under chaos: deficits {:?}",
            out.monitor.deficits()
        );
        let alive = alive_after(g.node_count(), &churn);
        let (sub, survivors) = surviving_instance(g, &out.set, &alive).unwrap();
        assert!(is_k_dominating(&sub, &survivors, 2, Semantics::Strict));
    }

    /// Pins the chaos run of the continuous service: its set, additions,
    /// deficit series, cycles and every metered count but the bits. The
    /// bits are pinned on their own, so a change to a message's size
    /// moves only that line.
    #[test]
    fn continuous_repair_is_pinned() {
        let (_, out, _) = chaos_continuous_run();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        out.set.ids().for_each(|v| fold(u64::from(v.raw())));
        fold(out.added.len() as u64);
        out.added.iter().for_each(|v| fold(u64::from(v.raw())));
        out.monitor.deficits().iter().for_each(|&d| fold(d));
        fold(out.cycles);
        let m = &out.metrics;
        for word in [
            m.messages,
            m.rounds,
            m.dropped_messages,
            m.corrupted,
            m.net_duplicated,
        ] {
            fold(word);
        }
        assert_eq!(
            hash, 0xd4e3_69e4_65e2_02c2,
            "continuous repair digest {hash:#018x}"
        );
        assert_eq!(m.total_bits, 48_051);
    }

    #[test]
    fn continuous_repair_is_thread_invariant_and_reconciles() {
        use ftclust_netsim::trace::REGISTERED_SPANS;
        use ftclust_netsim::{AdversaryPlan, ChurnPlan};
        let udg = generators::random_udg(200, 9.0, 1.0, 51);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(6).run(&udg).unwrap();
        let members: Vec<NodeId> = run.set.ids().collect();
        let mut churn = ChurnPlan::none();
        for &m in members.iter().take(4) {
            churn = churn.crash(m, 4);
        }
        let stack = || {
            Stack::new()
                .churned(churn.clone())
                .adversarial(
                    AdversaryPlan::new(7)
                        .jitter(0.2, 2)
                        .duplicate(0.1)
                        .corrupt(0.05),
                )
                .traced()
        };
        let runs: Vec<_> = [1usize, 2, 7]
            .into_iter()
            .map(|t| {
                ftclust_par::with_threads(t, || {
                    run_repair_continuous(g, &run.set, 2, 8, stack()).unwrap()
                })
            })
            .collect();
        let (base, log) = &runs[0];
        let log = log.as_ref().expect("traced run must produce a log");
        log.reconcile(&base.metrics).unwrap();
        for r in log.rollups() {
            assert!(
                REGISTERED_SPANS.contains(&r.name),
                "unregistered span {:?}",
                r.name
            );
        }
        for (t, (other, other_log)) in [2usize, 7].into_iter().zip(&runs[1..]) {
            assert_eq!(base, other, "results diverged at {t} threads");
            assert_eq!(
                log.to_jsonl(),
                other_log.as_ref().unwrap().to_jsonl(),
                "event log diverged at {t} threads"
            );
        }
    }

    #[test]
    fn continuous_repair_rejects_transport() {
        let udg = generators::random_udg(50, 5.0, 1.0, 1);
        let g = udg.graph();
        let run = UdgAlgorithm::new(1).seed(1).run(&udg).unwrap();
        let err = run_repair_continuous(
            g,
            &run.set,
            1,
            2,
            Stack::new().transport(TransportConfig::default()),
        )
        .unwrap_err();
        assert!(
            matches!(err, KmdsError::InvalidInput { what }
                if what.contains("without the transport layer") && what.contains("Stack::adversarial")),
            "{err}"
        );
    }

    /// Runs every repair entry point on `(g, set, alive, k)` and returns
    /// the error each reports; the continuous service takes no mask and
    /// `surviving_instance` (last) takes no `k`.
    fn entry_point_errors(
        g: &Graph,
        set: &DominatingSet,
        alive: &[bool],
        k: u32,
    ) -> Vec<Option<KmdsError>> {
        vec![
            repair_coverage(g, set, alive, k).err(),
            run_repair_stack(g, set, alive, k, Stack::new()).err(),
            run_repair_continuous(g, set, k, 2, Stack::new()).err(),
            surviving_instance(g, set, alive).err(),
        ]
    }

    #[test]
    fn rejects_a_liveness_mask_of_the_wrong_length() {
        let g = generators::path(4);
        let set = DominatingSet::full(4);
        let errs = entry_point_errors(&g, &set, &[true; 3], 1);
        let expected = KmdsError::InvalidInput {
            what: "liveness mask length differs from the node count",
        };
        assert_eq!(errs[..2], [Some(expected.clone()), Some(expected.clone())]);
        assert_eq!(errs[2], None, "the continuous service takes no mask");
        assert_eq!(errs[3], Some(expected));
    }

    #[test]
    fn rejects_a_set_over_another_universe() {
        let g = generators::path(4);
        let errs = entry_point_errors(&g, &DominatingSet::full(5), &[true; 4], 1);
        let expected = KmdsError::InvalidInput {
            what: "set universe differs from the node count",
        };
        assert_eq!(errs, vec![Some(expected); 4]);
    }

    #[test]
    fn rejects_zero_k() {
        let g = generators::path(4);
        let errs = entry_point_errors(&g, &DominatingSet::full(4), &[true; 4], 0);
        let expected = KmdsError::InvalidInput {
            what: "k must be at least 1",
        };
        assert_eq!(errs[..3], vec![Some(expected); 3]);
        assert_eq!(errs[3], None, "surviving_instance takes no k");
    }

    #[test]
    fn connected_orphan_cluster_joins_itself() {
        // Path 0-1-2-3 with only node 0 in the set: nodes 2 and 3 are
        // adjacent and needy, and neither has a member neighbour, so no
        // member can ever promote them; the join-itself rule must.
        let g = generators::path(4);
        let set = DominatingSet::from_ids(4, [NodeId::new(0)]);
        let (out, _) = run_repair_stack(&g, &set, &[true; 4], 1, Stack::new()).unwrap();
        assert!(is_k_dominating(&g, &out.outcome.set, 1, Semantics::Strict));
        assert!(out.outcome.set.contains(NodeId::new(3)));
        let engine = repair_coverage(&g, &set, &[true; 4], 1).unwrap();
        assert_eq!(out.outcome, engine, "orphan cluster");
    }
}
