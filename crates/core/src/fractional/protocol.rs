//! Message-passing implementation of Algorithm 1 on [`ftclust_netsim`].
//!
//! Executes the pseudocode exactly as written: each inner-loop iteration
//! takes **two rounds** (one to exchange `x_i, x_i^+, δ̃_i`, one to exchange
//! colors — the accounting used in the proof of Theorem 4.5), preceded by
//! one round to exchange initial colors (nodes with zero demand start
//! gray) and followed by two rounds to exchange the dual shares needed for
//! `z_i` (line 27). Total: `2t² + 3` rounds.
//!
//! ### Message-size accounting
//!
//! Numeric values (`x`, `x⁺`, `α`, `β`, `y`) are metered at
//! [`VALUE_BITS`] = 32 bits each — a fixed-point encoding with more
//! precision than the algorithm needs: every transmitted value is a sum of
//! at most `t²` known powers `(Δ+1)^{-q/t}`, so an index-based encoding of
//! `O(t log t + log Δ) ⊆ O(log n)` bits exists; we charge a fixed 32 bits
//! for simplicity, which dominates that bound for all tested sizes.
//! Dynamic degrees are charged their actual width, colors 1 bit. The
//! largest message is the dual exchange's three values,
//! [`LpMsg::MAX_BITS`], the bound every debug run is audited against.
//!
//! The protocol performs the same floating-point operations in the same
//! order as [`super::solve_fractional`]; their outputs are bit-identical
//! (asserted in the tests and in experiment E13).
//!
//! ### Per-node work
//!
//! Every round but the dual exchange sends one value to all neighbors
//! ([`Context::broadcast`]). The dual exchange sends each neighbor its
//! own `(α, β, y)`, which [`Context::scatter`] hands over as one row, so
//! an unlayered run gathers the round's envelopes into the receivers'
//! inboxes instead of sorting them. A node keeps `α`, `β` and the `x⁺` each neighbor
//! shared last in one allocation, made in round 0. Phase B walks the
//! share inbox once: it sums `x⁺` in sender order and files each value at
//! its sender's neighbor position, so a share that does not arrive (its
//! sender was down) leaves 0 there and credits nobody else's `α`/`β`.

use super::engine::account;
use super::{FractionalParams, FractionalSolution};
use crate::{Instance, KmdsError};
use ftclust_graphs::NodeId;
use ftclust_netsim::exec::{Executor, Phase, Stack};
use ftclust_netsim::{
    bits_for_ids, Context, Control, EventLog, Inbox, Metrics, NodeLogic, Payload, Topology,
};

/// Bits charged per transmitted numeric value (see the module docs).
pub const VALUE_BITS: usize = 32;

/// Wire messages of the LP protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum LpMsg {
    /// A node's current color (line 23).
    Color {
        /// `true` while the node is not yet fully covered.
        white: bool,
    },
    /// The per-iteration share `x_i, x_i^+, δ̃_i` (line 9).
    Share {
        /// Current LP value `x_i`.
        x: f64,
        /// This iteration's raise `x_i^+`.
        xplus: f64,
        /// Dynamic degree `δ̃_i`.
        dyndeg: u32,
    },
    /// The final dual share: node `i` sends `(α_{j,i}, β_{j,i}, y_i)` to
    /// each neighbor `j` so that `j` can evaluate line 27.
    Dual {
        /// `α_{j,i}` — recipient-specific.
        alpha: f64,
        /// `β_{j,i}` — recipient-specific.
        beta: f64,
        /// The sender's dual variable `y_i`.
        y: f64,
    },
}

impl LpMsg {
    /// The CONGEST bound on every message, at any `n`: the dual
    /// exchange's three values. A share's degree field adds
    /// `⌈log₂(δ̃ + 2)⌉ ≤ VALUE_BITS` bits to its two values.
    pub const MAX_BITS: usize = 3 * VALUE_BITS;
}

impl Payload for LpMsg {
    fn bit_size(&self) -> usize {
        match self {
            LpMsg::Color { .. } => 1,
            LpMsg::Share { dyndeg, .. } => 2 * VALUE_BITS + bits_for_ids(*dyndeg as usize + 2),
            LpMsg::Dual { .. } => 3 * VALUE_BITS,
        }
    }
}

/// The powers of `Δ+1` Algorithm 1 raises to: `(Δ+1)^{j/t}` for
/// `j ∈ 0..t` (thresholds and the Lemma 4.1 bound, which is only checked
/// after the first outer iteration, so `j = t` never occurs), then
/// `(Δ+1)^{-j/t}` for `j ∈ 0..t` (the raises) at index `t + j`. Computed
/// once per run and borrowed by every node; each entry is the `powf` the
/// engine evaluates, on the same operands, so results stay bit-identical.
fn power_table(t: u32, delta: usize) -> Vec<f64> {
    let d1 = (delta + 1) as f64;
    let up = (0..t).map(|j| d1.powf(j as f64 / t as f64));
    let down = (0..t).map(|j| d1.powf(-(j as f64) / t as f64));
    up.chain(down).collect()
}

/// Per-node protocol state for Algorithm 1, borrowing the run's table of
/// powers of `Δ+1` for `'r`.
#[derive(Debug)]
pub struct LpNode<'r> {
    k: f64,
    t: u32,
    /// The run's [`power_table`].
    powers: &'r [f64],
    x: f64,
    xplus: f64,
    cov: f64,
    white: bool,
    dyndeg: u32,
    /// Three rows of one value per neighbor, aligned with the sorted
    /// neighbor list and sized in round 0: `α_{j,me}`, then `β_{j,me}`,
    /// then the `x_j^+` of the last phase B (0 for a neighbor whose share
    /// did not arrive). `alpha_self` / `beta_self` hold `α_{me,me}` /
    /// `β_{me,me}`.
    rows: Vec<f64>,
    alpha_self: f64,
    beta_self: f64,
    y: f64,
    z: f64,
    lemma41_violations: u64,
}

impl<'r> LpNode<'r> {
    fn new(k: u32, t: u32, powers: &'r [f64]) -> Self {
        LpNode {
            k: k as f64,
            t,
            powers,
            x: 0.0,
            xplus: 0.0,
            cov: 0.0,
            white: k > 0,
            dyndeg: 0,
            rows: Vec::new(),
            alpha_self: 0.0,
            beta_self: 0.0,
            y: 0.0,
            z: 0.0,
            lemma41_violations: 0,
        }
    }

    fn update_dyndeg(&mut self, inbox: Inbox<'_, LpMsg>) {
        let mut count = u32::from(self.white);
        for env in inbox {
            match *env.payload {
                LpMsg::Color { white } => count += u32::from(white),
                _ => unreachable!("expected Color messages"),
            }
        }
        self.dyndeg = count;
    }
}

impl NodeLogic for LpNode<'_> {
    type Payload = LpMsg;

    fn on_round(&mut self, inbox: Inbox<'_, LpMsg>, ctx: &mut Context<'_, LpMsg>) -> Control {
        let r = ctx.round();
        let t = self.t as u64;
        let total_iters = t * t;
        if r == 0 {
            // Initial color exchange; also size the per-neighbor rows.
            self.rows = vec![0.0; 3 * ctx.degree()];
            ctx.broadcast_with(|| LpMsg::Color { white: self.white });
            return Control::Continue;
        }
        if r <= 2 * total_iters {
            let m = (r - 1) / 2; // inner-loop iteration index
            let p = (t - 1 - m / t) as usize;
            let q = (t - 1 - m % t) as usize;
            let threshold = self.powers[p];
            if (r - 1) % 2 == 0 {
                // Phase A: refresh δ̃ from the colors just received, then
                // raise and share.
                self.update_dyndeg(inbox);
                // Lemma 4.1 measurement at the start of each outer
                // iteration after the first.
                if m % t == 0 && m > 0 {
                    let bound = self.powers[p + 1];
                    if self.x < 1.0 - 1e-12 && self.dyndeg as f64 > bound + 1e-9 {
                        self.lemma41_violations += 1;
                    }
                }
                let inc = self.powers[t as usize + q];
                self.xplus = if self.x < 1.0 - 1e-12 && (self.dyndeg as f64) >= threshold - 1e-9 {
                    let xp = inc.min(1.0 - self.x);
                    self.x += xp;
                    if self.x > 1.0 - 1e-12 {
                        self.x = 1.0;
                    }
                    xp
                } else {
                    0.0
                };
                ctx.broadcast_with(|| LpMsg::Share {
                    x: self.x,
                    xplus: self.xplus,
                    dyndeg: self.dyndeg,
                });
            } else {
                // Phase B: dual accounting from the shares, then color.
                if self.white {
                    // One walk over the shares: sum x⁺ in sender order
                    // (the engine's order) and file each at its sender's
                    // neighbor position, so a share that did not arrive
                    // leaves 0 there and credits nobody else.
                    let neighbors = ctx.neighbors();
                    let deg = neighbors.len();
                    let (alpha, rest) = self.rows.split_at_mut(deg);
                    let (beta, xplus_row) = rest.split_at_mut(deg);
                    let mut cplus = self.xplus;
                    let mut o = 0;
                    for env in inbox {
                        let LpMsg::Share { xplus, .. } = *env.payload else {
                            unreachable!("expected Share messages")
                        };
                        cplus += xplus;
                        while o < deg && neighbors[o] < env.from {
                            xplus_row[o] = 0.0;
                            o += 1;
                        }
                        if o < deg && neighbors[o] == env.from {
                            xplus_row[o] = xplus;
                            o += 1;
                        }
                    }
                    xplus_row[o..].fill(0.0);
                    let turned_gray = account(
                        self.k,
                        threshold,
                        &mut self.cov,
                        cplus,
                        self.xplus,
                        &mut self.alpha_self,
                        &mut self.beta_self,
                        xplus_row.iter().copied(),
                        |o, da, db| {
                            alpha[o] += da;
                            beta[o] += db;
                        },
                    );
                    if let Some(y) = turned_gray {
                        self.white = false;
                        self.y = y;
                    }
                }
                ctx.broadcast_with(|| LpMsg::Color { white: self.white });
            }
            return Control::Continue;
        }
        if r == 2 * total_iters + 1 {
            // Dual exchange: send (α_{j,me}, β_{j,me}, y_me) to each j, a
            // different message per link. (The final color inbox needs no
            // processing.)
            let (deg, y) = (ctx.degree(), self.y);
            let (alpha, beta) = (&self.rows[..deg], &self.rows[deg..2 * deg]);
            ctx.scatter(alpha.iter().zip(beta).map(|(&alpha, &beta)| LpMsg::Dual {
                alpha,
                beta,
                y,
            }));
            return Control::Continue;
        }
        // Final round: assemble z (line 27) and halt. Inbox arrives in
        // ascending sender order, matching the engine's summation order.
        let mut z = self.alpha_self * self.y - self.beta_self;
        for env in inbox {
            match *env.payload {
                LpMsg::Dual { alpha, beta, y } => z += alpha * y - beta,
                _ => unreachable!("expected Dual messages"),
            }
        }
        self.z = z;
        Control::Halt
    }
}

/// The result of a protocol execution: the solution plus communication
/// metrics.
#[derive(Debug, Clone)]
pub struct FractionalProtocolRun {
    /// The computed solution (identical to the engine's).
    pub solution: FractionalSolution,
    /// Rounds, messages and bits used.
    pub metrics: Metrics,
}

/// Assembles the [`FractionalSolution`] from the final per-node states.
fn assemble_solution<'n>(
    inst: &Instance<'_>,
    t: u32,
    delta: usize,
    nodes: impl Iterator<Item = &'n LpNode<'n>>,
) -> FractionalSolution {
    let n = inst.graph().node_count();
    let mut x = vec![0.0f64; n];
    let mut y = vec![0.0f64; n];
    let mut z = vec![0.0f64; n];
    let mut lemma41_violations = 0;
    for (i, node) in nodes.enumerate() {
        x[i] = node.x;
        y[i] = node.y;
        z[i] = node.z;
        lemma41_violations += node.lemma41_violations;
    }
    let d1 = (delta + 1) as f64;
    let kappa = t as f64 * d1.powf(1.0 / t as f64);
    let dual_raw: f64 = (0..n).map(|i| inst.demands()[i] as f64 * y[i] - z[i]).sum();
    let value: f64 = x.iter().sum();
    FractionalSolution {
        x,
        y,
        z,
        kappa,
        lower_bound: (dual_raw / kappa).max(0.0),
        value,
        t,
        delta,
        lemma41_violations,
    }
}

/// Algorithm 1's declarative span plan: round 0 is `dyndeg` (the initial
/// color/dynamic-degree exchange), the `m`-th inner iteration contributes
/// `raise(m)` (phase A) and `threshold(m)` (phase B, the threshold/dual
/// accounting round), and the closing dual exchange plus assembly rounds
/// run under `dual_exchange`.
fn lp_phases(t2: u64) -> Vec<Phase> {
    let mut plan = Vec::with_capacity(2 * t2 as usize + 2);
    plan.push(Phase::span("dyndeg", 1));
    for m in 0..t2 {
        plan.push(Phase::indexed("raise", m, 1));
        plan.push(Phase::indexed("threshold", m, 1));
    }
    plan.push(Phase::tail("dual_exchange"));
    plan
}

/// Runs **Algorithm 1** through the composable executor stack of
/// [`ftclust_netsim::exec`]: the reliable transport (loss masking), churn
/// and tracing layers selected by `stack` compose freely; `Stack::new()`
/// is the plain synchronous run.
///
/// When the stack is traced, the run's [`EventLog`] attributes every
/// round, message and bit of Theorem 4.5's `O(t²)` schedule to its phase
/// via the plan above; tracing does not perturb the run, so solution and
/// metrics are identical to the untraced stack's. When the stack engages
/// the transport, drops and partitions stretch physical time and add
/// metered retransmissions but leave the solution bit-for-bit identical
/// (asserted against the engine in debug builds).
///
/// # Errors
///
/// Returns [`KmdsError::InvalidInput`] if `params` requests `TwoHopMax`
/// Δ-knowledge: the metered protocol implements global-Δ knowledge only
/// (the engine, [`super::solve_fractional`], implements both).
/// Returns [`KmdsError::Sim`] if the round budget is exceeded (cannot
/// happen for well-formed instances), or — with the transport engaged —
/// wrapping [`ftclust_netsim::SimError::DeliveryFailed`] if loss exceeds
/// a retransmit budget.
///
/// # Example
///
/// ```
/// use ftclust_core::fractional::{protocol::run_fractional_stack, FractionalParams};
/// use ftclust_core::Instance;
/// use ftclust_graphs::generators;
/// use ftclust_netsim::exec::Stack;
///
/// let g = generators::cycle(12);
/// let inst = Instance::uniform(&g, 2)?;
/// let (run, _) = run_fractional_stack(&inst, &FractionalParams::new(3), Stack::new())?;
/// assert_eq!(run.metrics.rounds, 2 * 9 + 3); // 2t² + 3
/// assert!(run.solution.is_primal_feasible(&inst, 1e-9));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_fractional_stack(
    inst: &Instance<'_>,
    params: &FractionalParams,
    stack: Stack,
) -> Result<(FractionalProtocolRun, Option<EventLog>), KmdsError> {
    if params.knowledge != super::DeltaKnowledge::Global {
        return Err(KmdsError::InvalidInput {
            what:
                "the metered protocol implements global-Δ knowledge; use the engine for TwoHopMax",
        });
    }
    let g = inst.graph();
    let t = params.t;
    let delta = params.resolve_delta(inst);
    let t2 = (t as u64) * (t as u64);
    let transported = stack.engages_transport();
    // The transport scales its physical ceiling from the exact logical
    // round count (2t² + 3); the synchronous budget carries slack.
    let budget = if transported { 2 * t2 + 3 } else { 2 * t2 + 8 };
    let powers = power_table(t, delta);
    let run = Executor::new(
        Topology::from_graph(g),
        |v: NodeId| LpNode::new(inst.demand(v), t, &powers),
        0,
    )
    .stack(stack)
    .phases(lp_phases(t2))
    .run(budget)?;
    let solution = assemble_solution(inst, t, delta, run.logics.iter());
    if cfg!(debug_assertions) {
        if transported {
            crate::audit::loss_transparent(
                "Algorithm 1",
                &solution,
                &super::solve_fractional(inst, params)?,
            );
        } else {
            crate::audit::congest("Algorithm 1", &run.metrics, LpMsg::MAX_BITS);
        }
    }
    Ok((
        FractionalProtocolRun {
            solution,
            metrics: run.metrics,
        },
        run.log,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractional::solve_fractional;
    use ftclust_graphs::generators;
    use ftclust_netsim::transport::TransportConfig;

    #[test]
    fn protocol_equals_engine_bit_for_bit() {
        // t up to 6 and the high-degree star reach every power-table
        // entry: thresholds p, Lemma 4.1 bounds p + 1 and raises q, at
        // both ends of each range.
        for (g, k) in [
            (generators::cycle(10), 2u32),
            (generators::gnp(40, 0.15, 3), 2),
            (generators::star(8), 1),
            (generators::star(40), 2),
            (generators::grid_2d(5, 4), 3),
            (generators::empty(4), 1),
        ] {
            let inst = Instance::uniform_clamped(&g, k);
            for t in 1..=6 {
                let params = FractionalParams::new(t);
                let engine = solve_fractional(&inst, &params).unwrap();
                let proto = run_fractional_stack(&inst, &params, Stack::new())
                    .unwrap()
                    .0
                    .solution;
                assert_eq!(engine, proto, "engine/protocol divergence at t={t}");
            }
        }
    }

    #[test]
    fn round_complexity_is_2t2_plus_3() {
        let g = generators::gnp(30, 0.2, 1);
        let inst = Instance::uniform_clamped(&g, 2);
        for t in [1, 2, 4] {
            let (run, _) =
                run_fractional_stack(&inst, &FractionalParams::new(t), Stack::new()).unwrap();
            assert_eq!(run.metrics.rounds, 2 * (t as u64).pow(2) + 3);
        }
    }

    #[test]
    fn message_bits_are_logarithmic() {
        let g = generators::gnp(200, 0.05, 9);
        let inst = Instance::uniform_clamped(&g, 2);
        let (run, _) =
            run_fractional_stack(&inst, &FractionalParams::new(3), Stack::new()).unwrap();
        // 2 values + a degree, or 3 values: comfortably O(log n).
        assert!(run.metrics.max_message_bits <= LpMsg::MAX_BITS as u64);
        assert!(run.metrics.messages > 0);
        // Every variant fits at a small and a large n, with the largest
        // dynamic degree (a closed neighbourhood of n nodes).
        for n in [4usize, 1 << 20] {
            let dyndeg = n as u32;
            for msg in [
                LpMsg::Color { white: true },
                LpMsg::Share {
                    x: 1.0,
                    xplus: 1.0,
                    dyndeg,
                },
                LpMsg::Dual {
                    alpha: 1.0,
                    beta: 1.0,
                    y: 1.0,
                },
            ] {
                assert!(msg.bit_size() <= LpMsg::MAX_BITS, "n = {n}: {msg:?}");
            }
        }
    }

    #[test]
    fn lossy_execution_matches_engine() {
        let g = generators::gnp(30, 0.2, 6);
        let inst = Instance::uniform_clamped(&g, 2);
        let params = FractionalParams::new(2);
        let engine = solve_fractional(&inst, &params).unwrap();
        for p in [0.0, 0.05, 0.2] {
            let stack = Stack::new().lossy(p).transport(TransportConfig::default());
            let (run, _) = run_fractional_stack(&inst, &params, stack).unwrap();
            assert_eq!(engine, run.solution, "diverged at p = {p}");
            if p == 0.0 {
                assert_eq!(run.metrics.retransmits, 0, "spurious retransmits at p = 0");
            } else {
                assert!(run.metrics.retransmits > 0, "no retransmits at p = {p}");
            }
        }
    }

    #[test]
    fn two_hop_knowledge_is_rejected_with_a_typed_error() {
        let g = generators::cycle(6);
        let inst = Instance::uniform_clamped(&g, 1);
        let params = FractionalParams::new(2).without_global_delta();
        let err = run_fractional_stack(&inst, &params, Stack::new()).unwrap_err();
        assert!(matches!(err, KmdsError::InvalidInput { .. }), "{err:?}");
        assert!(run_fractional_stack(&inst, &params, Stack::new().traced()).is_err());
    }

    #[test]
    fn phase_b_credits_each_share_to_its_sender() {
        use ftclust_graphs::Graph;
        use ftclust_netsim::{ChurnPlan, Simulator};
        // A star whose centre, node 4, has a higher id than its leaves.
        // Leaf 0 is down in round 1, phase A of the first iteration, so
        // its share is missing from the centre's phase B in round 2. With
        // t = 1 every node raises x by 1 in round 1, and λ is shared.
        let g = Graph::from_edges(5, &[(0, 4), (1, 4), (2, 4), (3, 4)]).unwrap();
        let (t, k) = (1, 2);
        let powers = power_table(t, g.max_degree());
        let churn = ChurnPlan::none()
            .crash(NodeId::new(0), 1)
            .recover(NodeId::new(0), 2);
        let mut sim = Simulator::with_churn(
            Topology::from_graph(&g),
            |_| LpNode::new(k, t, &powers),
            0,
            churn,
        );
        sim.step();
        sim.step();
        let xplus: Vec<f64> = (0..5).map(|v| sim.logic(NodeId::new(v)).xplus).collect();
        assert!(xplus[1..].iter().all(|&xp| xp > 0.0), "{xplus:?}");
        sim.step();
        let centre = sim.logic(NodeId::new(4));
        let (alpha, beta) = (&centre.rows[..4], &centre.rows[4..8]);
        assert_eq!(
            (alpha[0], beta[0]),
            (0.0, 0.0),
            "the down leaf was credited"
        );
        let cplus = xplus[4] + xplus[1] + xplus[2] + xplus[3];
        let lambda = 1.0f64.min(f64::from(k) / cplus);
        let threshold = powers[0];
        for o in 1..4 {
            assert_eq!(alpha[o], lambda * xplus[o], "α of leaf {o}");
            assert_eq!(beta[o], lambda * xplus[o] / threshold, "β of leaf {o}");
        }
        assert_eq!(&centre.rows[8..], &[0.0, xplus[1], xplus[2], xplus[3]]);
    }

    #[test]
    fn isolated_nodes_complete_locally() {
        let g = generators::empty(3);
        let inst = Instance::uniform_clamped(&g, 1);
        let (run, _) =
            run_fractional_stack(&inst, &FractionalParams::new(2), Stack::new()).unwrap();
        assert_eq!(run.solution.x, vec![1.0, 1.0, 1.0]);
        assert_eq!(run.metrics.messages, 0);
    }

    #[test]
    fn traced_run_matches_untraced_and_reconciles() {
        use ftclust_netsim::trace::{REGISTERED_SPANS, UNSPANNED};
        let g = generators::gnp(40, 0.2, 2);
        let inst = Instance::uniform_clamped(&g, 2);
        let params = FractionalParams::new(2);
        let (base, _) = run_fractional_stack(&inst, &params, Stack::new()).unwrap();
        let (traced, log) = run_fractional_stack(&inst, &params, Stack::new().traced()).unwrap();
        let log = log.expect("traced stack records a log");
        assert_eq!(base.solution, traced.solution);
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
        for expected in ["dyndeg", "raise", "threshold", "dual_exchange"] {
            assert!(
                rollups.iter().any(|r| r.name == expected),
                "missing phase {expected}"
            );
        }
    }
}
