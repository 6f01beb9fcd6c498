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
//! The repair is purely local, structured as one **detection round**
//! followed by bounded **re-election iterations** of three rounds each,
//! reusing the promotion machinery of Algorithm 3 Part II
//! (`select_promotions`, so the healed set inherits the same promotion
//! rules and randomness discipline):
//!
//! 1. *Detection* — every survivor broadcasts a heartbeat; a node whose
//!    dominator count among responders falls below `k` becomes **needy**
//!    with deficit `k − c(v)`.
//! 2. *Deficit broadcast* — needy nodes announce their deficit to their
//!    surviving neighbors.
//! 3. *Re-election* — a needy node with fewer than `k` surviving
//!    neighbors, or with no surviving member neighbor at all, promotes
//!    **itself** (members are exempt under strict semantics, and no
//!    neighborhood subset could ever supply its `k` dominators);
//!    meanwhile every surviving member promotes up to `k` of its needy
//!    neighbors, exactly as in Part II.
//! 4. *Announcement* — new members announce themselves; coverage counts
//!    update and the loop repeats while anyone is still needy.
//!
//! # Engine and protocol
//!
//! [`repair_coverage`] is the analytic engine: it evaluates the rounds
//! directly on shared state (the fast path for sweeps).
//! [`run_repair_protocol`] executes the same rounds as real message
//! passing on [`ftclust_netsim`], and [`run_repair_stack`] does so under
//! any executor stack, including **lossy links** behind the reliable
//! transport of [`ftclust_netsim::transport`]. All three produce the
//! identical healed set, additions and iteration count for the same
//! [`RepairConfig`].
//!
//! # Continuous mode
//!
//! The epoch-based entry points above heal once, *after* a churn epoch
//! has ended. [`run_repair_continuous`] instead runs the repair as a
//! standing service **while** churn and adversarial delivery faults are
//! live: every 4-round cycle probes coverage with membership beacons,
//! records each node's observed deficit, and immediately re-elects and
//! joins replacements. The per-cycle deficit series feeds
//! [`ftclust_netsim::monitor::HealthMonitor`], which derives detection
//! latency and mean time to repair per fault burst. Continuous mode runs
//! *without* the reliable transport — ARQ cannot mask crash churn (a
//! frame addressed to a crashed node exhausts its retransmit budget) —
//! so the protocol itself is loss-tolerant: a lost or corrupted beacon
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
//! **never touches a node farther than 2 hops from a failure** (the
//! `strict-invariants` feature audits both this and the re-validation of
//! the healed set).
//!
//! # Example
//!
//! ```
//! use ftclust_core::repair::{repair_coverage, RepairConfig};
//! use ftclust_core::udg::UdgAlgorithm;
//! use ftclust_core::validate::{is_k_dominating, Semantics};
//! use ftclust_graphs::generators;
//!
//! let udg = generators::random_udg(300, 10.0, 1.0, 7);
//! let run = UdgAlgorithm::new(2).seed(1).run(&udg)?;
//! // Kill three members, then heal.
//! let mut alive = vec![true; udg.node_count()];
//! for v in run.set.ids().take(3) {
//!     alive[v.index()] = false;
//! }
//! let out = repair_coverage(udg.graph(), &run.set, &alive, 2, &RepairConfig::new(9))?;
//! let keep: Vec<_> = udg.graph().nodes().filter(|v| alive[v.index()]).collect();
//! let (sub, old_ids) = udg.graph().induced_subgraph(&keep);
//! let survivors = ftclust_core::DominatingSet::from_ids(
//!     sub.node_count(),
//!     old_ids.iter().enumerate().filter(|(_, old)| out.set.contains(**old))
//!         .map(|(new, _)| ftclust_graphs::NodeId::new(new as u32)),
//! );
//! assert!(is_k_dominating(&sub, &survivors, 2, Semantics::Strict));
//! # Ok::<(), ftclust_core::KmdsError>(())
//! ```

use crate::bitset::{coverage_counts, BitSet};
use crate::udg::PromotionRule;
use crate::{DominatingSet, KmdsError};
use ftclust_graphs::{Graph, NodeId};
use ftclust_netsim::exec::{completed_iterations, Executor, Phase, Stack};
use ftclust_netsim::monitor::HealthMonitor;
use ftclust_netsim::{
    bits_for_ids, node_rng, Context, Control, EventLog, Inbox, Metrics, NodeLogic, Payload,
    Topology,
};
use ftclust_par as par;
use rand::rngs::StdRng;

/// Wire messages of the repair protocol. All `O(log k)` bits or smaller —
/// repair stays inside the paper's small-message model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairMsg {
    /// Detection-round liveness beacon.
    Heartbeat,
    /// Continuous-mode probe beacon: liveness plus current membership,
    /// so receivers can measure their live coverage every cycle (see
    /// [`run_repair_continuous`]).
    Beacon {
        /// Whether the sender is currently in the dominating set.
        member: bool,
    },
    /// "I am needy": the sender's current surviving-dominator count
    /// (`< k`; needed by the `MostDeficient` promotion rule).
    Deficit {
        /// Surviving members currently covering the sender.
        cov: u32,
    },
    /// Promotion order from a member to a needy neighbor.
    Promote,
    /// New-member announcement (self-elected or promoted).
    Join,
}

impl Payload for RepairMsg {
    fn bit_size(&self) -> usize {
        match self {
            RepairMsg::Heartbeat | RepairMsg::Promote | RepairMsg::Join => 1,
            RepairMsg::Beacon { .. } => 2,
            RepairMsg::Deficit { cov } => 1 + bits_for_ids(*cov as usize + 2),
        }
    }
}

/// Configuration of a repair run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairConfig {
    /// Master seed for the per-node random streams (only consumed by
    /// [`PromotionRule::Random`]).
    pub seed: u64,
    /// How members pick which needy neighbors to promote.
    pub rule: PromotionRule,
    /// Defensive cap on re-election iterations; the progress argument in
    /// the [module docs](self) bounds the true count by the number of
    /// initially needy nodes.
    pub max_iterations: u64,
}

impl RepairConfig {
    /// A default-rule configuration with the given seed.
    pub fn new(seed: u64) -> Self {
        RepairConfig {
            seed,
            rule: PromotionRule::default(),
            max_iterations: 10_000,
        }
    }

    /// Sets the promotion rule.
    pub fn rule(mut self, rule: PromotionRule) -> Self {
        self.rule = rule;
        self
    }
}

/// Result of a coverage repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The healed set over the full node universe. Dead members are
    /// pruned; all additions are surviving nodes.
    pub set: DominatingSet,
    /// Nodes added by the repair (self-elected or promoted), ascending.
    pub added: Vec<NodeId>,
    /// Re-election iterations executed (0 if nothing was needy).
    pub iterations: u32,
    /// Protocol rounds: 1 detection round + 3 per iteration.
    pub rounds: u64,
    /// Messages the protocol would send (heartbeats, deficit broadcasts,
    /// promotions, join announcements).
    pub messages: u64,
    /// Total bits across those messages ([`RepairMsg`] sizes).
    pub message_bits: u64,
    /// Largest coverage deficit `k − c(v)` observed at detection time.
    pub peak_deficit: u32,
    /// Number of nodes below target coverage at detection time.
    pub deficit_nodes: usize,
}

/// One worker's contiguous block of a re-election iteration: the RNG
/// streams it owns plus a local list of promotion targets, OR-merged
/// afterwards (commutative), so the outcome is identical at every thread
/// count.
struct RepairShard<'s> {
    start: usize,
    rngs: &'s mut [StdRng],
    targets: Vec<NodeId>,
    /// Per-member needy-neighbor list, reused across the shard's members
    /// so an iteration allocates at most one list per worker.
    scratch: Vec<NodeId>,
}

/// Repairs `set` after failures so that the survivors again form a strict
/// k-fold dominating set of the surviving subgraph.
///
/// `alive[v]` tells whether node `v` survived the churn epoch; dead
/// members are pruned from the set and only surviving nodes are added.
/// See the [module docs](self) for the protocol, its cost model, and the
/// locality guarantee.
///
/// # Errors
///
/// Returns [`KmdsError::IterationLimit`] if an iteration makes no
/// progress or `max_iterations` is exhausted — impossible by the progress
/// argument in the module docs; checked defensively.
///
/// # Panics
///
/// Panics if `alive.len()` or the set universe mismatch the graph, or if
/// `k == 0`.
pub fn repair_coverage(
    g: &Graph,
    set: &DominatingSet,
    alive: &[bool],
    k: u32,
    cfg: &RepairConfig,
) -> Result<RepairOutcome, KmdsError> {
    let n = g.node_count();
    assert_eq!(alive.len(), n, "liveness mask length mismatch");
    assert_eq!(set.universe(), n, "set universe mismatch");
    assert!(k >= 1, "k must be at least 1");

    // Surviving membership: dead members are gone.
    let mut member = BitSet::from_fn_par(n, |i| alive[i] && set.contains(NodeId::new(i as u32)));
    let alive_deg: Vec<u32> = par::par_map_range(n, |i| {
        g.neighbors(NodeId::new(i as u32))
            .iter()
            .filter(|w| alive[w.index()])
            .count() as u32
    });

    let mut messages = 0u64;
    let mut message_bits = 0u64;
    // Detection round: every survivor beacons to all its graph neighbors
    // (it cannot yet know which of them are alive).
    let heartbeat = RepairMsg::Heartbeat.bit_size() as u64;
    for i in 0..n {
        if alive[i] {
            let deg = g.degree(NodeId::new(i as u32)) as u64;
            messages += deg;
            message_bits += deg * heartbeat;
        }
    }
    let mut rounds = 1u64;

    let mut rngs: Vec<StdRng> =
        par::par_map_range(n, |i| node_rng(cfg.seed, NodeId::new(i as u32)));
    let mut added: Vec<NodeId> = Vec::new();
    let mut peak_deficit = 0u32;
    let mut deficit_nodes = 0usize;
    let mut iterations = 0u32;
    loop {
        let cov = coverage_counts(g, &member);
        let needy = BitSet::from_fn_par(n, |i| alive[i] && !member.get(i) && cov[i] < k);
        if iterations == 0 {
            deficit_nodes = needy.count();
            peak_deficit = needy.iter_ones().map(|i| k - cov[i]).max().unwrap_or(0);
        }
        if !needy.any() {
            break;
        }
        if u64::from(iterations) >= cfg.max_iterations {
            return Err(KmdsError::IterationLimit {
                stage: "coverage repair",
                limit: cfg.max_iterations,
            });
        }
        iterations += 1;
        rounds += 3;
        // Round 1 of the iteration: deficit broadcasts to surviving
        // neighbors.
        for i in needy.iter_ones() {
            let deg = u64::from(alive_deg[i]);
            messages += deg;
            message_bits += deg * RepairMsg::Deficit { cov: cov[i] }.bit_size() as u64;
        }
        // Round 2: self-elections and member promotions. Each member
        // draws only from its own stream; targets are OR-merged after the
        // parallel part (commutative), so sharding changes nothing.
        let self_elect = BitSet::from_fn_par(n, |i| {
            needy.get(i)
                && (alive_deg[i] < k
                    || !g
                        .neighbors(NodeId::new(i as u32))
                        .iter()
                        .any(|w| member.get(w.index())))
        });
        let mut shards: Vec<RepairShard<'_>> = Vec::new();
        let mut rngs_rest = &mut rngs[..];
        for r in par::split_ranges(n, par::num_threads()) {
            let (rngs_here, rngs_next) = rngs_rest.split_at_mut(r.len());
            rngs_rest = rngs_next;
            shards.push(RepairShard {
                start: r.start,
                rngs: rngs_here,
                targets: Vec::new(),
                scratch: Vec::new(),
            });
        }
        par::par_for_each_mut(&mut shards, |_, s| {
            for j in 0..s.rngs.len() {
                let i = s.start + j;
                if !member.get(i) {
                    continue;
                }
                let v = NodeId::new(i as u32);
                s.scratch.clear();
                s.scratch.extend(
                    g.neighbors(v)
                        .iter()
                        .copied()
                        .filter(|w| needy.get(w.index())),
                );
                if s.scratch.is_empty() {
                    continue;
                }
                let picks = crate::udg::select_promotions(
                    &s.scratch,
                    |w| cov[w.index()],
                    k as usize,
                    cfg.rule,
                    &mut s.rngs[j],
                );
                s.targets.extend(picks);
            }
        });
        let mut joins = self_elect;
        let mut promote_msgs = 0u64;
        for s in &shards {
            promote_msgs += s.targets.len() as u64;
            for w in &s.targets {
                joins.insert(w.index());
            }
        }
        messages += promote_msgs;
        message_bits += promote_msgs * RepairMsg::Promote.bit_size() as u64;
        if !joins.any_outside(&member) {
            return Err(KmdsError::IterationLimit {
                stage: "coverage repair",
                limit: u64::from(iterations),
            });
        }
        // Round 3: join announcements from the new members.
        for i in joins.iter_ones() {
            if !member.get(i) {
                member.insert(i);
                added.push(NodeId::new(i as u32));
                let deg = u64::from(alive_deg[i]);
                messages += deg;
                message_bits += deg * RepairMsg::Join.bit_size() as u64;
            }
        }
    }
    added.sort_unstable();
    let outcome = RepairOutcome {
        set: DominatingSet::from_members(member.to_bools()),
        added,
        iterations,
        rounds,
        messages,
        message_bits,
        peak_deficit,
        deficit_nodes,
    };
    #[cfg(feature = "strict-invariants")]
    crate::audit::repair_postconditions(g, set, alive, k, &outcome.set, &outcome.added);
    Ok(outcome)
}

/// Maps a full-universe set onto the subgraph induced by the `alive`
/// nodes, for validating repaired sets on the surviving topology.
///
/// Returns the surviving subgraph and the corresponding set in its id
/// space.
///
/// # Panics
///
/// Panics if `alive.len()` or the set universe mismatch the graph.
pub fn surviving_instance(
    g: &Graph,
    set: &DominatingSet,
    alive: &[bool],
) -> (Graph, DominatingSet) {
    let n = g.node_count();
    assert_eq!(alive.len(), n, "liveness mask length mismatch");
    assert_eq!(set.universe(), n, "set universe mismatch");
    let keep: Vec<NodeId> = g.nodes().filter(|v| alive[v.index()]).collect();
    let (sub, old_of_new) = g.induced_subgraph(&keep);
    let members = old_of_new.iter().map(|&old| set.contains(old)).collect();
    (sub, DominatingSet::from_members(members))
}

/// Per-node state of the repair protocol on the **surviving subgraph** —
/// the message-passing twin of [`repair_coverage`], seed-for-seed
/// identical in its healed set, additions and iteration count (message
/// counts differ: the engine also accounts heartbeats addressed to dead
/// neighbors, which the induced subgraph has no edges for).
///
/// Nodes know, from before the churn epoch, which of their neighbors were
/// members (`neighbor_member`) — set membership is established knowledge
/// by the time repair runs — and observe survival through the detection
/// round. Each node draws promotions from its own stream keyed by its
/// **original** (pre-churn) identifier, exactly like the engine.
#[derive(Debug)]
pub struct RepairNode {
    k: u32,
    rule: PromotionRule,
    /// This node's private stream, `node_rng(seed, original_id)`.
    rng: StdRng,
    member: bool,
    /// Membership of each surviving neighbor, aligned with the sorted
    /// subgraph neighbor list; updated by `Join` announcements.
    neighbor_member: Vec<bool>,
    /// Members in the closed neighborhood (the engine's `cov`).
    cov: u32,
    my_needy: bool,
    pending_join: bool,
    /// Whether this node was added by the repair.
    pub joined: bool,
    /// Coverage at detection time (for the deficit statistics).
    pub initial_cov: u32,
    /// Whether this node was needy at detection time.
    pub initial_needy: bool,
}

impl NodeLogic for RepairNode {
    type Payload = RepairMsg;

    fn on_round(
        &mut self,
        inbox: Inbox<'_, RepairMsg>,
        ctx: &mut Context<'_, RepairMsg>,
    ) -> Control {
        let r = ctx.round();
        if r == 0 {
            // Detection round: every survivor beacons. On the induced
            // surviving subgraph every neighbor responds, so the beacon's
            // role is to confirm survival (and meter the detection cost).
            self.cov =
                u32::from(self.member) + self.neighbor_member.iter().filter(|&&m| m).count() as u32;
            ctx.broadcast(RepairMsg::Heartbeat);
            return Control::Continue;
        }
        match (r - 1) % 3 {
            0 => {
                // Deficit round: absorb the joins announced last
                // iteration, then announce the (updated) deficit.
                for e in inbox {
                    if let RepairMsg::Join = e.payload {
                        let Ok(pos) = ctx.neighbors().binary_search(&e.from) else {
                            unreachable!("inbox messages arrive only from neighbors");
                        };
                        self.neighbor_member[pos] = true;
                        self.cov += 1;
                    }
                }
                self.my_needy = !self.member && self.cov < self.k;
                if r == 1 {
                    self.initial_cov = self.cov;
                    self.initial_needy = self.my_needy;
                }
                if self.my_needy {
                    ctx.broadcast(RepairMsg::Deficit { cov: self.cov });
                }
                Control::Continue
            }
            1 => {
                // Re-election round: members promote needy neighbors;
                // structurally under-covered needy nodes promote
                // themselves; a node with nothing needy in sight is done.
                let needy: Vec<(NodeId, u32)> = inbox
                    .iter()
                    .filter_map(|e| match *e.payload {
                        RepairMsg::Deficit { cov } => Some((e.from, cov)),
                        _ => None,
                    })
                    .collect();
                if self.member && !needy.is_empty() {
                    let ids: Vec<NodeId> = needy.iter().map(|&(v, _)| v).collect();
                    let cov_of = |v: NodeId| match needy.iter().find(|&&(w, _)| w == v) {
                        Some(&(_, c)) => c,
                        None => unreachable!("promotion candidates come from `needy`"),
                    };
                    let chosen = crate::udg::select_promotions(
                        &ids,
                        cov_of,
                        self.k as usize,
                        self.rule,
                        &mut self.rng,
                    );
                    for w in chosen {
                        ctx.send(w, RepairMsg::Promote);
                    }
                }
                if self.my_needy
                    && (ctx.degree() < self.k as usize || !self.neighbor_member.iter().any(|&m| m))
                {
                    self.pending_join = true;
                }
                if !self.my_needy && needy.is_empty() {
                    // Neediness only shrinks, so nothing around this node
                    // can ever change again.
                    Control::Halt
                } else {
                    Control::Continue
                }
            }
            _ => {
                // Join round: promoted and self-elected nodes enter the
                // set and announce it.
                if inbox
                    .iter()
                    .any(|e| matches!(e.payload, RepairMsg::Promote))
                {
                    self.pending_join = true;
                }
                if self.pending_join && !self.member {
                    self.member = true;
                    self.joined = true;
                    self.cov += 1;
                    ctx.broadcast(RepairMsg::Join);
                }
                self.pending_join = false;
                Control::Continue
            }
        }
    }
}

/// Result of a metered repair-protocol execution
/// ([`run_repair_protocol`] / [`run_repair_stack`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairProtocolRun {
    /// The healed set over the **full** node universe — identical to
    /// [`repair_coverage`]'s.
    pub set: DominatingSet,
    /// Nodes added by the repair, in original ids, ascending — identical
    /// to the engine's.
    pub added: Vec<NodeId>,
    /// Re-election iterations executed — identical to the engine's.
    pub iterations: u32,
    /// Largest deficit `k − c(v)` observed at detection time.
    pub peak_deficit: u32,
    /// Nodes below target coverage at detection time.
    pub deficit_nodes: usize,
    /// Measured communication metrics of the execution (unlike the
    /// engine's analytic counts, these include nothing for dead
    /// neighbors; under loss they include the transport overhead).
    pub metrics: Metrics,
}

/// Builds one node's protocol state for the surviving subgraph.
fn repair_node(
    sub: &Graph,
    old_of_new: &[NodeId],
    set: &DominatingSet,
    k: u32,
    cfg: &RepairConfig,
    v: NodeId,
) -> RepairNode {
    let old = old_of_new[v.index()];
    RepairNode {
        k,
        rule: cfg.rule,
        rng: node_rng(cfg.seed, old),
        member: set.contains(old),
        neighbor_member: sub
            .neighbors(v)
            .iter()
            .map(|&w| set.contains(old_of_new[w.index()]))
            .collect(),
        cov: 0,
        my_needy: false,
        pending_join: false,
        joined: false,
        initial_cov: 0,
        initial_needy: false,
    }
}

/// Maps the final per-node states back to the full universe.
fn assemble_repair(
    n_full: usize,
    old_of_new: &[NodeId],
    nodes: &[RepairNode],
    k: u32,
    logical_rounds: u64,
    metrics: Metrics,
) -> RepairProtocolRun {
    let mut members = vec![false; n_full];
    let mut added = Vec::new();
    let mut peak_deficit = 0u32;
    let mut deficit_nodes = 0usize;
    for (node, &old) in nodes.iter().zip(old_of_new) {
        members[old.index()] = node.member;
        if node.joined {
            added.push(old);
        }
        if node.initial_needy {
            deficit_nodes += 1;
            peak_deficit = peak_deficit.max(k - node.initial_cov);
        }
    }
    added.sort_unstable();
    // Rounds: 1 detection, 3 per iteration, and a trailing no-op
    // iteration that halts in its second round (deficit silence, then
    // everyone halts) = 3·(iterations + 1) in total.
    let iterations = completed_iterations(logical_rounds, 1, 3, 2);
    RepairProtocolRun {
        set: DominatingSet::from_members(members),
        added,
        iterations,
        peak_deficit,
        deficit_nodes,
        metrics,
    }
}

/// The coverage repair's declarative span plan: the round-0 heartbeat
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

/// Runs the coverage repair through the composable executor stack of
/// [`ftclust_netsim::exec`] on the surviving subgraph: the reliable
/// transport (loss masking), churn and tracing layers selected by
/// `stack` compose freely. This is the canonical driver —
/// [`run_repair_protocol`] is a thin wrapper over it on the empty stack.
///
/// When the stack is traced, [`EventLog::rollups`] shows how the repair
/// cost is spread over iterations versus detection via the plan above.
/// When the transport is engaged, drops and outage windows add metered
/// retransmissions but leave the healed set, additions and iteration
/// count seed-for-seed identical to [`repair_coverage`]'s (asserted by
/// the `strict-invariants` feature, which also reconciles the log's
/// rollups against the metrics).
///
/// # Errors
///
/// Returns [`KmdsError::Sim`] if the round budget is exceeded —
/// impossible by the progress argument in the [module docs](self) — or,
/// with the transport engaged, if loss exhausts a retransmit budget.
///
/// # Panics
///
/// Panics if `alive.len()` or the set universe mismatch the graph, or if
/// `k == 0`.
pub fn run_repair_stack(
    g: &Graph,
    set: &DominatingSet,
    alive: &[bool],
    k: u32,
    cfg: &RepairConfig,
    stack: Stack,
) -> Result<(RepairProtocolRun, Option<EventLog>), KmdsError> {
    let n = g.node_count();
    assert_eq!(alive.len(), n, "liveness mask length mismatch");
    assert_eq!(set.universe(), n, "set universe mismatch");
    assert!(k >= 1, "k must be at least 1");
    let keep: Vec<NodeId> = g.nodes().filter(|v| alive[v.index()]).collect();
    let (sub, old_of_new) = g.induced_subgraph(&keep);
    if sub.node_count() == 0 {
        let log = stack.is_traced().then(EventLog::new);
        return Ok((assemble_repair(n, &[], &[], k, 0, Metrics::default()), log));
    }
    let _transported = stack.engages_transport();
    let run = Executor::new(
        Topology::from_graph(&sub),
        |v| repair_node(&sub, &old_of_new, set, k, cfg, v),
        cfg.seed,
    )
    .stack(stack)
    .phases(repair_phases())
    .run(repair_round_budget(sub.node_count()))?;
    let out = assemble_repair(
        n,
        &old_of_new,
        &run.logics,
        k,
        run.logical_rounds,
        run.metrics,
    );
    #[cfg(feature = "strict-invariants")]
    {
        if _transported {
            let engine = repair_coverage(g, set, alive, k, cfg)?;
            crate::audit::loss_transparent(
                "coverage repair",
                &(
                    out.set.clone(),
                    out.added.clone(),
                    out.iterations,
                    out.peak_deficit,
                    out.deficit_nodes,
                ),
                &(
                    engine.set,
                    engine.added,
                    engine.iterations,
                    engine.peak_deficit,
                    engine.deficit_nodes,
                ),
            );
        }
        if let Some(log) = &run.log {
            if let Err(e) = log.reconcile(&out.metrics) {
                unreachable!("trace rollups diverged from Metrics: {e}");
            }
        }
    }
    Ok((out, run.log))
}

/// Runs the coverage repair as a **message-passing protocol** on the
/// surviving subgraph, metering real rounds, messages and bits. The
/// healed set, additions and iteration count are seed-for-seed identical
/// to [`repair_coverage`] with the same configuration (asserted in the
/// tests; the engine remains the fast path for sweeps).
///
/// # Errors
///
/// Returns [`KmdsError::Sim`] if the round budget is exceeded —
/// impossible by the progress argument in the [module docs](self).
///
/// # Panics
///
/// Panics if `alive.len()` or the set universe mismatch the graph, or if
/// `k == 0`.
pub fn run_repair_protocol(
    g: &Graph,
    set: &DominatingSet,
    alive: &[bool],
    k: u32,
    cfg: &RepairConfig,
) -> Result<RepairProtocolRun, KmdsError> {
    run_repair_stack(g, set, alive, k, cfg, Stack::new()).map(|(run, _)| run)
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
/// 1. *Probe* (round `4c`) — every live node broadcasts a
///    [`RepairMsg::Beacon`] carrying its membership.
/// 2. *Deficit* (round `4c + 1`) — each node counts the **distinct**
///    member beacon senders it heard (network duplicates must not
///    double-count coverage), records its observed deficit for the
///    monitor, and broadcasts [`RepairMsg::Deficit`] if under-covered.
/// 3. *Re-election* (round `4c + 2`) — members promote up to `k` needy
///    neighbors; a needy node that heard no member beacon at all (or
///    whose degree is below `k`) marks itself for self-election.
/// 4. *Join* (round `4c + 3`) — promoted and self-elected nodes enter
///    the set; the next cycle's beacon announces it.
///
/// Loss, corruption and partitions make beacons *undercount* coverage,
/// which can only trigger spurious extra promotions — the deficit probe
/// never misses a real deficit for longer than one cycle. Jittered
/// messages landing outside their cycle phase are ignored (each phase
/// reads only its own message variant), i.e. treated as loss.
#[derive(Debug)]
pub struct ContinuousRepairNode {
    k: u32,
    rule: PromotionRule,
    rng: StdRng,
    member: bool,
    /// Rounds this node participates in: it halts at round
    /// `4 * cycles`.
    horizon_rounds: u64,
    /// Did the last probe deliver any member beacon?
    heard_member_beacon: bool,
    my_needy: bool,
    pending_join: bool,
    /// Whether this node joined the set during the run.
    pub joined: bool,
    /// Observed `(cycle, deficit)` pairs, one per deficit round this
    /// node was alive for (a down node skips cycles, so the cycle index
    /// is recorded explicitly).
    pub deficits: Vec<(u64, u32)>,
}

impl NodeLogic for ContinuousRepairNode {
    type Payload = RepairMsg;

    fn on_round(
        &mut self,
        inbox: Inbox<'_, RepairMsg>,
        ctx: &mut Context<'_, RepairMsg>,
    ) -> Control {
        let r = ctx.round();
        if r >= self.horizon_rounds {
            return Control::Halt;
        }
        match r % 4 {
            0 => {
                ctx.broadcast(RepairMsg::Beacon {
                    member: self.member,
                });
                Control::Continue
            }
            1 => {
                // Coverage probe readout: distinct member beacon senders
                // only — the adversary may deliver duplicates, and a
                // duplicated beacon must not count as two dominators.
                let mut members: Vec<NodeId> = inbox
                    .iter()
                    .filter_map(|e| match *e.payload {
                        RepairMsg::Beacon { member: true } => Some(e.from),
                        _ => None,
                    })
                    .collect();
                members.sort_unstable();
                members.dedup();
                self.heard_member_beacon = !members.is_empty();
                let cov = u32::from(self.member) + members.len() as u32;
                let deficit = if self.member {
                    0
                } else {
                    self.k.saturating_sub(members.len() as u32)
                };
                self.deficits.push((r / 4, deficit));
                self.my_needy = deficit > 0;
                if self.my_needy {
                    ctx.broadcast(RepairMsg::Deficit { cov });
                }
                Control::Continue
            }
            2 => {
                let mut needy: Vec<(NodeId, u32)> = inbox
                    .iter()
                    .filter_map(|e| match *e.payload {
                        RepairMsg::Deficit { cov } => Some((e.from, cov)),
                        _ => None,
                    })
                    .collect();
                needy.sort_unstable_by_key(|&(v, _)| v);
                needy.dedup_by_key(|&mut (v, _)| v);
                if self.member && !needy.is_empty() {
                    let ids: Vec<NodeId> = needy.iter().map(|&(v, _)| v).collect();
                    let cov_of = |v: NodeId| match needy.iter().find(|&&(w, _)| w == v) {
                        Some(&(_, c)) => c,
                        None => unreachable!("promotion candidates come from `needy`"),
                    };
                    let chosen = crate::udg::select_promotions(
                        &ids,
                        cov_of,
                        self.k as usize,
                        self.rule,
                        &mut self.rng,
                    );
                    for w in chosen {
                        ctx.send(w, RepairMsg::Promote);
                    }
                }
                if self.my_needy && (ctx.degree() < self.k as usize || !self.heard_member_beacon) {
                    self.pending_join = true;
                }
                Control::Continue
            }
            _ => {
                if inbox
                    .iter()
                    .any(|e| matches!(e.payload, RepairMsg::Promote))
                {
                    self.pending_join = true;
                }
                if self.pending_join && !self.member {
                    self.member = true;
                    self.joined = true;
                }
                self.pending_join = false;
                Control::Continue
            }
        }
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
/// MTTR per burst.
///
/// The tracing layer brackets the run into a `monitor` span (the
/// round-0 probe) and one `repair_continuous` span per cycle.
///
/// # Errors
///
/// Returns [`KmdsError::Sim`] if the physical-round budget (the horizon
/// plus recovery slack) is exceeded — only possible if the churn plan
/// keeps nodes down-but-wakeable long past the horizon.
///
/// # Panics
///
/// Panics if the set universe mismatches the graph, `k == 0`, or the
/// stack engages the reliable transport: continuous repair runs bare —
/// ARQ cannot mask crash churn (frames to crashed nodes exhaust their
/// retransmit budget), and the protocol is loss-tolerant by design (a
/// lost beacon undercounts coverage, which only over-promotes).
pub fn run_repair_continuous(
    g: &Graph,
    set: &DominatingSet,
    k: u32,
    cfg: &RepairConfig,
    cycles: u64,
    stack: Stack,
) -> Result<(ContinuousRepairRun, Option<EventLog>), KmdsError> {
    let n = g.node_count();
    assert_eq!(set.universe(), n, "set universe mismatch");
    assert!(k >= 1, "k must be at least 1");
    assert!(
        !stack.engages_transport(),
        "continuous repair runs without the transport layer (ARQ cannot mask crash churn); \
         inject loss via the churn plan instead"
    );
    let horizon = 4 * cycles;
    let run = Executor::new(
        Topology::from_graph(g),
        |v| ContinuousRepairNode {
            k,
            rule: cfg.rule,
            rng: node_rng(cfg.seed, v),
            member: set.contains(v),
            horizon_rounds: horizon,
            heard_member_beacon: false,
            my_needy: false,
            pending_join: false,
            joined: false,
            deficits: Vec::new(),
        },
        cfg.seed,
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
        members[i] = node.member;
        if node.joined {
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
    #[cfg(feature = "strict-invariants")]
    if let Some(log) = &run.log {
        if let Err(e) = log.reconcile(&run.metrics) {
            unreachable!("trace rollups diverged from Metrics: {e}");
        }
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
            let out = repair_coverage(g, &run.set, &alive, k, &RepairConfig::new(5)).unwrap();
            let (sub, survivors) = surviving_instance(g, &out.set, &alive);
            assert!(
                is_k_dominating(&sub, &survivors, k, Semantics::Strict),
                "not healed for k={k}"
            );
            // Dead nodes never stay in (or enter) the repaired set.
            assert!(out.set.ids().all(|v| alive[v.index()]));
            assert_eq!(out.rounds, 1 + 3 * u64::from(out.iterations));
            assert!(out.messages > 0);
        }
    }

    #[test]
    fn intact_set_needs_no_repair() {
        let udg = generators::random_udg(200, 8.0, 1.0, 4);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(1).run(&udg).unwrap();
        let alive = vec![true; g.node_count()];
        let out = repair_coverage(g, &run.set, &alive, 2, &RepairConfig::new(0)).unwrap();
        assert_eq!(out.iterations, 0);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.added, vec![]);
        assert_eq!(out.deficit_nodes, 0);
        assert_eq!(out.peak_deficit, 0);
        assert_eq!(out.set, run.set);
    }

    #[test]
    fn additions_stay_local_to_failures() {
        // With a valid pre-failure set, every added node must be within 2
        // hops of some dead node (the module-docs locality argument; the
        // strict-invariants audit re-checks this on every call).
        let udg = generators::random_udg(500, 12.0, 1.0, 9);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(2).run(&udg).unwrap();
        let alive = churn_mask(g, &run.set, 10, 17);
        let out = repair_coverage(g, &run.set, &alive, 2, &RepairConfig::new(3)).unwrap();
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
        let out = repair_coverage(&g, &set, &alive, 2, &RepairConfig::new(0)).unwrap();
        let (sub, survivors) = surviving_instance(&g, &out.set, &alive);
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
        let out = repair_coverage(&g, &set, &alive, 1, &RepairConfig::new(0)).unwrap();
        assert!(out.set.contains(NodeId::new(0)));
        assert!(out.set.contains(NodeId::new(2)));
        assert_eq!(out.peak_deficit, 1);
        assert_eq!(out.deficit_nodes, 2);
    }

    #[test]
    fn all_rules_heal_and_are_deterministic() {
        let udg = generators::random_udg(300, 10.0, 1.0, 33);
        let g = udg.graph();
        let run = UdgAlgorithm::new(3).seed(8).run(&udg).unwrap();
        let alive = churn_mask(g, &run.set, 6, 2);
        for rule in [
            PromotionRule::LowestId,
            PromotionRule::MostDeficient,
            PromotionRule::Random,
        ] {
            let cfg = RepairConfig::new(11).rule(rule);
            let a = repair_coverage(g, &run.set, &alive, 3, &cfg).unwrap();
            let b = repair_coverage(g, &run.set, &alive, 3, &cfg).unwrap();
            assert_eq!(a, b, "{rule:?} not deterministic");
            let (sub, survivors) = surviving_instance(g, &a.set, &alive);
            assert!(
                is_k_dominating(&sub, &survivors, 3, Semantics::Strict),
                "{rule:?} failed to heal"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_repair() {
        let udg = generators::random_udg(600, 12.0, 1.0, 44);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(5).run(&udg).unwrap();
        let alive = churn_mask(g, &run.set, 12, 7);
        let cfg = RepairConfig::new(21).rule(PromotionRule::Random);
        let baseline =
            ftclust_par::with_threads(1, || repair_coverage(g, &run.set, &alive, 2, &cfg).unwrap());
        for threads in [2usize, 7] {
            let out = ftclust_par::with_threads(threads, || {
                repair_coverage(g, &run.set, &alive, 2, &cfg).unwrap()
            });
            assert_eq!(out, baseline, "diverged at {threads} threads");
        }
    }

    #[test]
    fn everyone_dead_is_a_trivial_heal() {
        let g = generators::cycle(5);
        let set = DominatingSet::full(5);
        let alive = vec![false; 5];
        let out = repair_coverage(&g, &set, &alive, 2, &RepairConfig::new(0)).unwrap();
        assert!(out.set.is_empty());
        assert_eq!(out.iterations, 0);
        assert_eq!(out.messages, 0);
    }

    /// Asserts the engine-visible fields of a protocol run against the
    /// engine outcome for the same inputs.
    fn assert_protocol_matches(proto: &RepairProtocolRun, engine: &RepairOutcome, what: &str) {
        assert_eq!(proto.set, engine.set, "{what}: set diverged");
        assert_eq!(proto.added, engine.added, "{what}: additions diverged");
        assert_eq!(
            proto.iterations, engine.iterations,
            "{what}: iteration count diverged"
        );
        assert_eq!(
            proto.peak_deficit, engine.peak_deficit,
            "{what}: peak deficit diverged"
        );
        assert_eq!(
            proto.deficit_nodes, engine.deficit_nodes,
            "{what}: deficit node count diverged"
        );
    }

    #[test]
    fn protocol_matches_engine_across_rules() {
        let udg = generators::random_udg(300, 10.0, 1.0, 33);
        let g = udg.graph();
        let run = UdgAlgorithm::new(3).seed(8).run(&udg).unwrap();
        let alive = churn_mask(g, &run.set, 6, 2);
        for rule in [
            PromotionRule::LowestId,
            PromotionRule::MostDeficient,
            PromotionRule::Random,
        ] {
            for seed in [0u64, 11] {
                let cfg = RepairConfig::new(seed).rule(rule);
                let engine = repair_coverage(g, &run.set, &alive, 3, &cfg).unwrap();
                let proto = run_repair_protocol(g, &run.set, &alive, 3, &cfg).unwrap();
                assert_protocol_matches(&proto, &engine, &format!("{rule:?} seed {seed}"));
                // Detection + 3 rounds per iteration + the trailing no-op
                // iteration in which everyone observes silence and halts.
                assert_eq!(
                    proto.metrics.rounds,
                    3 * (u64::from(engine.iterations) + 1),
                    "{rule:?} seed {seed}: round count"
                );
            }
        }
    }

    #[test]
    fn protocol_handles_trivial_and_islanded_cases() {
        // Nobody alive: nothing to simulate.
        let g = generators::cycle(5);
        let out = run_repair_protocol(
            &g,
            &DominatingSet::full(5),
            &[false; 5],
            2,
            &RepairConfig::new(0),
        )
        .unwrap();
        assert!(out.set.is_empty());
        assert_eq!(out.iterations, 0);
        assert_eq!(out.metrics.messages, 0);

        // Memberless island: self-election path, including isolated nodes.
        let g = generators::path(3);
        let set = DominatingSet::from_ids(3, [NodeId::new(1)]);
        let alive = vec![true, false, true];
        let engine = repair_coverage(&g, &set, &alive, 1, &RepairConfig::new(0)).unwrap();
        let proto = run_repair_protocol(&g, &set, &alive, 1, &RepairConfig::new(0)).unwrap();
        assert_protocol_matches(&proto, &engine, "severed path");
        assert!(proto.set.contains(NodeId::new(0)));
        assert!(proto.set.contains(NodeId::new(2)));
    }

    #[test]
    fn lossy_protocol_matches_engine() {
        use ftclust_netsim::ChurnPlan;
        let udg = generators::random_udg(200, 9.0, 1.0, 51);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(6).run(&udg).unwrap();
        let alive = churn_mask(g, &run.set, 6, 9);
        let cfg = RepairConfig::new(13).rule(PromotionRule::Random);
        let engine = repair_coverage(g, &run.set, &alive, 2, &cfg).unwrap();
        for p in [0.0, 0.05, 0.2] {
            let stack = Stack::new()
                .churned(ChurnPlan::none().drop_probability(p))
                .transport(TransportConfig::default());
            let (proto, _) = run_repair_stack(g, &run.set, &alive, 2, &cfg, stack).unwrap();
            assert_protocol_matches(&proto, &engine, &format!("p = {p}"));
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
        let cfg = RepairConfig::new(5);
        let base = run_repair_protocol(g, &run.set, &alive, 2, &cfg).unwrap();
        let (traced, log) =
            run_repair_stack(g, &run.set, &alive, 2, &cfg, Stack::new().traced()).unwrap();
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
        let cfg = RepairConfig::new(7);
        let (out, _) = run_repair_continuous(
            g,
            &run.set,
            2,
            &cfg,
            10,
            Stack::new().churned(churn.clone()),
        )
        .unwrap();
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
        let (sub, survivors) = surviving_instance(g, &out.set, &alive);
        assert!(is_k_dominating(&sub, &survivors, 2, Semantics::Strict));
    }

    #[test]
    fn continuous_repair_heals_under_adversarial_chaos() {
        use ftclust_netsim::{AdversaryPlan, ChurnPlan};
        let udg = generators::random_udg(300, 10.0, 1.0, 33);
        let g = udg.graph();
        let run = UdgAlgorithm::new(2).seed(4).run(&udg).unwrap();
        let members: Vec<NodeId> = run.set.ids().collect();
        let mut churn = ChurnPlan::none();
        for &m in members.iter().step_by(3).take(8) {
            churn = churn.crash(m, 8);
        }
        // Jitter capped at 3 rounds: a delayed probe beacon can never
        // alias into a later deficit round (that needs delay ≡ 0 mod 4),
        // so out-of-phase arrivals degrade to loss, which the protocol
        // tolerates by design.
        let plan = AdversaryPlan::new(0xC4A05)
            .jitter(0.15, 3)
            .duplicate(0.1)
            .corrupt(0.1);
        let cfg = RepairConfig::new(7);
        let (out, _) = run_repair_continuous(
            g,
            &run.set,
            2,
            &cfg,
            16,
            Stack::new().churned(churn.clone()).adversarial(plan),
        )
        .unwrap();
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
        let (sub, survivors) = surviving_instance(g, &out.set, &alive);
        assert!(is_k_dominating(&sub, &survivors, 2, Semantics::Strict));
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
        let cfg = RepairConfig::new(9);
        let runs: Vec<_> = [1usize, 2, 7]
            .into_iter()
            .map(|t| {
                par::with_threads(t, || {
                    run_repair_continuous(g, &run.set, 2, &cfg, 8, stack()).unwrap()
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
    #[should_panic(expected = "without the transport layer")]
    fn continuous_repair_rejects_transport() {
        let udg = generators::random_udg(50, 5.0, 1.0, 1);
        let g = udg.graph();
        let run = UdgAlgorithm::new(1).seed(1).run(&udg).unwrap();
        let _ = run_repair_continuous(
            g,
            &run.set,
            1,
            &RepairConfig::new(1),
            2,
            Stack::new().transport(TransportConfig::default()),
        );
    }
}
