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
//! Dynamic degrees are charged their actual width, colors 1 bit.
//!
//! The protocol performs the same floating-point operations in the same
//! order as [`super::solve_fractional`]; their outputs are bit-identical
//! (asserted in the tests and in experiment E13).

use super::engine::account;
use super::{FractionalParams, FractionalSolution};
use crate::{Instance, KmdsError};
use ftclust_graphs::NodeId;
use ftclust_netsim::exec::{Executor, Phase, Stack};
use ftclust_netsim::{
    bits_for_ids, Context, Control, EventLog, Inbox, Metrics, NodeLogic, Payload, Topology,
};
use std::sync::Arc;

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
/// once per run and shared by every node; each entry is the `powf` the
/// engine evaluates, on the same operands, so results stay bit-identical.
fn power_table(t: u32, delta: usize) -> Arc<[f64]> {
    let d1 = (delta + 1) as f64;
    let up = (0..t).map(|j| d1.powf(j as f64 / t as f64));
    let down = (0..t).map(|j| d1.powf(-(j as f64) / t as f64));
    up.chain(down).collect()
}

/// Per-node protocol state for Algorithm 1.
#[derive(Debug)]
pub struct LpNode {
    k: f64,
    t: u32,
    /// The run's [`power_table`].
    powers: Arc<[f64]>,
    x: f64,
    xplus: f64,
    cov: f64,
    white: bool,
    dyndeg: u32,
    /// `α_{j,me}` / `β_{j,me}` per neighbor, aligned with the sorted
    /// neighbor list; `_self` entries hold `α_{me,me}` / `β_{me,me}`.
    alpha: Vec<f64>,
    beta: Vec<f64>,
    alpha_self: f64,
    beta_self: f64,
    y: f64,
    z: f64,
    lemma41_violations: u64,
}

impl LpNode {
    fn new(k: u32, t: u32, powers: Arc<[f64]>) -> Self {
        LpNode {
            k: k as f64,
            t,
            powers,
            x: 0.0,
            xplus: 0.0,
            cov: 0.0,
            white: k > 0,
            dyndeg: 0,
            alpha: Vec::new(),
            beta: Vec::new(),
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

impl NodeLogic for LpNode {
    type Payload = LpMsg;

    fn on_round(&mut self, inbox: Inbox<'_, LpMsg>, ctx: &mut Context<'_, LpMsg>) -> Control {
        let r = ctx.round();
        let t = self.t as u64;
        let total_iters = t * t;
        if r == 0 {
            // Initial color exchange; also size the per-neighbor duals.
            self.alpha = vec![0.0; ctx.degree()];
            self.beta = vec![0.0; ctx.degree()];
            ctx.broadcast(LpMsg::Color { white: self.white });
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
                ctx.broadcast(LpMsg::Share {
                    x: self.x,
                    xplus: self.xplus,
                    dyndeg: self.dyndeg,
                });
            } else {
                // Phase B: dual accounting from the shares, then color.
                if self.white {
                    let mut cplus = self.xplus;
                    for env in inbox {
                        match *env.payload {
                            LpMsg::Share { xplus, .. } => cplus += xplus,
                            _ => unreachable!("expected Share messages"),
                        }
                    }
                    let neighbor_xplus = inbox.iter().map(|env| match *env.payload {
                        LpMsg::Share { xplus, .. } => xplus,
                        _ => unreachable!(),
                    });
                    let (alpha, beta) = (&mut self.alpha, &mut self.beta);
                    let turned_gray = account(
                        self.k,
                        threshold,
                        &mut self.cov,
                        cplus,
                        self.xplus,
                        &mut self.alpha_self,
                        &mut self.beta_self,
                        neighbor_xplus,
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
                ctx.broadcast(LpMsg::Color { white: self.white });
            }
            return Control::Continue;
        }
        if r == 2 * total_iters + 1 {
            // Dual exchange: send (α_{j,me}, β_{j,me}, y_me) to each j.
            // (The final color inbox needs no processing.)
            for (o, &j) in ctx.neighbors().iter().enumerate() {
                ctx.send(
                    j,
                    LpMsg::Dual {
                        alpha: self.alpha[o],
                        beta: self.beta[o],
                        y: self.y,
                    },
                );
            }
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
    nodes: impl Iterator<Item = &'n LpNode>,
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
/// and tracing layers selected by `stack` compose freely. This is the
/// canonical driver — [`run_fractional_protocol`] is a thin wrapper
/// over it on the empty stack.
///
/// When the stack is traced, the run's [`EventLog`] attributes every
/// round, message and bit of Theorem 4.5's `O(t²)` schedule to its phase
/// via the plan above; tracing does not perturb the run, so solution and
/// metrics are identical to the untraced stack's. When the stack engages
/// the transport, drops and link outages stretch physical time and add
/// metered retransmissions but leave the solution bit-for-bit identical
/// (asserted against the engine by the `strict-invariants` feature, which
/// also reconciles the log's rollups against the metrics).
///
/// # Errors
///
/// Returns [`KmdsError::Sim`] if the round budget is exceeded (cannot
/// happen for well-formed instances), or — with the transport engaged —
/// wrapping [`ftclust_netsim::SimError::DeliveryFailed`] if loss exceeds
/// a retransmit budget.
///
/// # Panics
///
/// Panics if `params` requests `TwoHopMax` Δ-knowledge: the metered
/// protocol implements global-Δ knowledge only.
pub fn run_fractional_stack(
    inst: &Instance<'_>,
    params: &FractionalParams,
    stack: Stack,
) -> Result<(FractionalProtocolRun, Option<EventLog>), KmdsError> {
    assert_eq!(
        params.knowledge,
        super::DeltaKnowledge::Global,
        "the metered protocol implements global-Δ knowledge; use the engine for TwoHopMax"
    );
    let g = inst.graph();
    let t = params.t;
    let delta = params.resolve_delta(inst);
    let t2 = (t as u64) * (t as u64);
    let _transported = stack.engages_transport();
    // The transport scales its physical ceiling from the exact logical
    // round count (2t² + 3); the synchronous budget carries slack.
    let budget = if _transported { 2 * t2 + 3 } else { 2 * t2 + 8 };
    let powers = power_table(t, delta);
    let run = Executor::new(
        Topology::from_graph(g),
        |v: NodeId| LpNode::new(inst.demand(v), t, Arc::clone(&powers)),
        0,
    )
    .stack(stack)
    .phases(lp_phases(t2))
    .run(budget)?;
    let solution = assemble_solution(inst, t, delta, run.logics.iter());
    #[cfg(feature = "strict-invariants")]
    {
        if _transported {
            crate::audit::loss_transparent(
                "Algorithm 1",
                &solution,
                &super::solve_fractional(inst, params)?,
            );
        }
        if let Some(log) = &run.log {
            if let Err(e) = log.reconcile(&run.metrics) {
                unreachable!("trace rollups diverged from Metrics: {e}");
            }
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

/// Runs Algorithm 1 as a message-passing protocol and collects metrics.
///
/// # Errors
///
/// Returns [`KmdsError::Sim`] if the simulation exceeds its round budget
/// (cannot happen for well-formed instances; the budget is `2t² + 8`).
///
/// # Example
///
/// ```
/// use ftclust_core::fractional::{protocol::run_fractional_protocol, FractionalParams};
/// use ftclust_core::Instance;
/// use ftclust_graphs::generators;
///
/// let g = generators::cycle(12);
/// let inst = Instance::uniform(&g, 2)?;
/// let run = run_fractional_protocol(&inst, &FractionalParams::new(3))?;
/// assert_eq!(run.metrics.rounds, 2 * 9 + 3); // 2t² + 3
/// assert!(run.solution.is_primal_feasible(&inst, 1e-9));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_fractional_protocol(
    inst: &Instance<'_>,
    params: &FractionalParams,
) -> Result<FractionalProtocolRun, KmdsError> {
    run_fractional_stack(inst, params, Stack::new()).map(|(run, _)| run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractional::solve_fractional;
    use ftclust_graphs::generators;
    use ftclust_netsim::transport::TransportConfig;
    use ftclust_netsim::ChurnPlan;

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
                let proto = run_fractional_protocol(&inst, &params).unwrap().solution;
                assert_eq!(engine, proto, "engine/protocol divergence at t={t}");
            }
        }
    }

    #[test]
    fn round_complexity_is_2t2_plus_3() {
        let g = generators::gnp(30, 0.2, 1);
        let inst = Instance::uniform_clamped(&g, 2);
        for t in [1, 2, 4] {
            let run = run_fractional_protocol(&inst, &FractionalParams::new(t)).unwrap();
            assert_eq!(run.metrics.rounds, 2 * (t as u64).pow(2) + 3);
        }
    }

    #[test]
    fn message_bits_are_logarithmic() {
        let g = generators::gnp(200, 0.05, 9);
        let inst = Instance::uniform_clamped(&g, 2);
        let run = run_fractional_protocol(&inst, &FractionalParams::new(3)).unwrap();
        // 2 values + a degree: comfortably O(log n).
        assert!(run.metrics.max_message_bits <= (3 * VALUE_BITS) as u64);
        assert!(run.metrics.messages > 0);
    }

    #[test]
    fn lossy_execution_matches_engine() {
        let g = generators::gnp(30, 0.2, 6);
        let inst = Instance::uniform_clamped(&g, 2);
        let params = FractionalParams::new(2);
        let engine = solve_fractional(&inst, &params).unwrap();
        for p in [0.0, 0.05, 0.2] {
            let stack = Stack::new()
                .churned(ChurnPlan::none().drop_probability(p))
                .transport(TransportConfig::default());
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
    fn isolated_nodes_complete_locally() {
        let g = generators::empty(3);
        let inst = Instance::uniform_clamped(&g, 1);
        let run = run_fractional_protocol(&inst, &FractionalParams::new(2)).unwrap();
        assert_eq!(run.solution.x, vec![1.0, 1.0, 1.0]);
        assert_eq!(run.metrics.messages, 0);
    }

    #[test]
    fn traced_run_matches_untraced_and_reconciles() {
        use ftclust_netsim::trace::{REGISTERED_SPANS, UNSPANNED};
        let g = generators::gnp(40, 0.2, 2);
        let inst = Instance::uniform_clamped(&g, 2);
        let params = FractionalParams::new(2);
        let base = run_fractional_protocol(&inst, &params).unwrap();
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
