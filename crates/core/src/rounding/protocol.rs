//! Message-passing implementation of Algorithm 2 on [`ftclust_netsim`].
//!
//! Three rounds:
//!
//! 1. draw `x'_i` with probability `min(1, x_i ln(Δ+1))`, broadcast the
//!    flag (line 3),
//! 2. compute the coverage deficit from the received flags, send `REQ` to
//!    exactly that many non-selected closed neighbors (lines 4–6),
//! 3. nodes receiving a `REQ` join (line 7); everyone halts.
//!
//! Flags cost 1 bit, `REQ`s 1 bit — far below the `O(log n)` budget.
//! Seed-for-seed identical to [`super::round_fractional`].

use super::{select_repair_targets, RepairSelection, RoundingOutcome, RoundingParams};
use crate::{DominatingSet, Instance, KmdsError};
use ftclust_graphs::NodeId;
use ftclust_netsim::exec::{Executor, Phase, Stack};
use ftclust_netsim::{Context, Control, Envelope, EventLog, Metrics, NodeLogic, Payload, Topology};
use rand::Rng;

/// Wire messages of the rounding protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundingMsg {
    /// "I selected myself" flag (line 3 sends `x'_i`).
    Flag {
        /// The value `x'_i` after the random experiment.
        selected: bool,
    },
    /// A coverage request (line 5).
    Req,
}

impl Payload for RoundingMsg {
    fn bit_size(&self) -> usize {
        1
    }
}

/// Per-node protocol state for Algorithm 2.
#[derive(Debug)]
pub struct RoundingNode {
    k: u32,
    x: f64,
    ln_d1: f64,
    selection: RepairSelection,
    repair: bool,
    /// Final membership `x'_i`.
    pub selected: bool,
    /// Whether the node joined in the random step (vs. by repair).
    pub initial: bool,
}

impl NodeLogic for RoundingNode {
    type Payload = RoundingMsg;

    fn on_round(
        &mut self,
        inbox: &[Envelope<RoundingMsg>],
        ctx: &mut Context<'_, RoundingMsg>,
    ) -> Control {
        match ctx.round() {
            0 => {
                let p = (self.x * self.ln_d1).min(1.0);
                self.selected = ctx.rng().random::<f64>() < p;
                self.initial = self.selected;
                ctx.broadcast(RoundingMsg::Flag {
                    selected: self.selected,
                });
                Control::Continue
            }
            1 => {
                if !self.repair {
                    return Control::Halt;
                }
                let mut covered = u32::from(self.selected);
                let mut zeros: Vec<NodeId> = Vec::new();
                if !self.selected {
                    zeros.push(ctx.me());
                }
                for env in inbox {
                    match env.payload {
                        RoundingMsg::Flag { selected } => {
                            if selected {
                                covered += 1;
                            } else {
                                zeros.push(env.from);
                            }
                        }
                        RoundingMsg::Req => unreachable!("no REQ in round 1"),
                    }
                }
                if covered < self.k {
                    let deficit = (self.k - covered) as usize;
                    for w in select_repair_targets(&zeros, deficit, self.selection, ctx.rng()) {
                        ctx.send(w, RoundingMsg::Req);
                    }
                }
                Control::Continue
            }
            _ => {
                if inbox.iter().any(|e| matches!(e.payload, RoundingMsg::Req)) {
                    self.selected = true;
                }
                Control::Halt
            }
        }
    }
}

/// Result of the rounding protocol: the outcome plus communication metrics.
#[derive(Debug, Clone)]
pub struct RoundingProtocolRun {
    /// The rounded set and pick statistics.
    pub outcome: RoundingOutcome,
    /// Rounds, messages and bits used.
    pub metrics: Metrics,
}

/// Runs **Algorithm 2** through the composable executor stack of
/// [`ftclust_netsim::exec`]: the reliable transport (loss masking), churn
/// and tracing layers selected by `stack` compose freely. This is the
/// canonical driver — [`run_rounding_protocol`] is a thin wrapper over
/// it on the empty stack.
///
/// When the stack is traced, each of Algorithm 2's (at most three)
/// rounds runs under a `rounding_round(r)` span — flag draw,
/// deficit/request, repair — so a composed Algorithm 1+2 trace
/// attributes the rounding tail separately from the LP phases. Tracing
/// does not perturb the run; when the transport is engaged, the rounded
/// set stays seed-for-seed identical to the lossless run's (asserted
/// against the engine by the `strict-invariants` feature, which also
/// reconciles the log's rollups against the metrics).
///
/// # Errors
///
/// Returns [`KmdsError::Sim`] if the (constant) round budget is exceeded
/// (cannot happen losslessly) or — with the transport engaged — if loss
/// exhausts a retransmit budget.
///
/// # Panics
///
/// Panics if `x.len()` differs from the node count.
pub fn run_rounding_stack(
    inst: &Instance<'_>,
    x: &[f64],
    delta: usize,
    seed: u64,
    params: &RoundingParams,
    stack: Stack,
) -> Result<(RoundingProtocolRun, Option<EventLog>), KmdsError> {
    let g = inst.graph();
    assert_eq!(
        x.len(),
        g.node_count(),
        "fractional solution length mismatch"
    );
    let ln_d1 = ((delta + 1) as f64).ln();
    let _transported = stack.engages_transport();
    // The transport scales its physical ceiling from the exact logical
    // round count (3); the synchronous budget carries slack.
    let budget = if _transported { 3 } else { 8 };
    let run = Executor::new(
        Topology::from_graph(g),
        |v: NodeId| RoundingNode {
            k: inst.demand(v),
            x: x[v.index()],
            ln_d1,
            selection: params.selection,
            repair: params.repair,
            selected: false,
            initial: false,
        },
        seed,
    )
    .stack(stack)
    .phases(vec![Phase::repeat("rounding_round", 1)])
    .run(budget)?;
    let outcome = assemble_outcome(run.logics.iter());
    #[cfg(feature = "strict-invariants")]
    {
        if _transported {
            crate::audit::loss_transparent(
                "Algorithm 2",
                &outcome,
                &super::round_fractional(inst, x, delta, seed, params),
            );
        }
        if let Some(log) = &run.log {
            if let Err(e) = log.reconcile(&run.metrics) {
                unreachable!("trace rollups diverged from Metrics: {e}");
            }
        }
    }
    Ok((
        RoundingProtocolRun {
            outcome,
            metrics: run.metrics,
        },
        run.log,
    ))
}

/// Runs **Algorithm 2** as a message-passing protocol.
///
/// # Errors
///
/// Returns [`KmdsError::Sim`] only if the (constant) round budget is
/// exceeded, which cannot happen.
///
/// # Panics
///
/// Panics if `x.len()` differs from the node count.
pub fn run_rounding_protocol(
    inst: &Instance<'_>,
    x: &[f64],
    delta: usize,
    seed: u64,
    params: &RoundingParams,
) -> Result<RoundingProtocolRun, KmdsError> {
    run_rounding_stack(inst, x, delta, seed, params, Stack::new()).map(|(run, _)| run)
}

/// Assembles the [`RoundingOutcome`] from the final per-node states.
fn assemble_outcome<'n>(nodes: impl Iterator<Item = &'n RoundingNode>) -> RoundingOutcome {
    let mut members = Vec::new();
    let mut initial_picks = 0;
    for node in nodes {
        members.push(node.selected);
        initial_picks += usize::from(node.initial);
    }
    let set = DominatingSet::from_members(members);
    let repair_picks = set.len() - initial_picks;
    RoundingOutcome {
        set,
        initial_picks,
        repair_picks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractional::{solve_fractional, FractionalParams};
    use crate::rounding::round_fractional;
    use crate::validate::{is_k_dominating_instance, Semantics};
    use ftclust_graphs::generators;
    use ftclust_netsim::transport::TransportConfig;
    use ftclust_netsim::ChurnPlan;

    #[test]
    fn protocol_equals_engine_for_both_selection_rules() {
        let g = generators::gnp(50, 0.12, 4);
        let inst = Instance::uniform_clamped(&g, 2);
        let frac = solve_fractional(&inst, &FractionalParams::new(2)).unwrap();
        for selection in [RepairSelection::LowestId, RepairSelection::Random] {
            for seed in [0u64, 1, 7, 42] {
                let params = RoundingParams {
                    repair: true,
                    selection,
                };
                let engine = round_fractional(&inst, &frac.x, frac.delta, seed, &params);
                let proto =
                    run_rounding_protocol(&inst, &frac.x, frac.delta, seed, &params).unwrap();
                assert_eq!(engine, proto.outcome, "divergence at seed {seed}");
            }
        }
    }

    #[test]
    fn constant_rounds_and_tiny_messages() {
        let g = generators::gnp(100, 0.08, 2);
        let inst = Instance::uniform_clamped(&g, 2);
        let frac = solve_fractional(&inst, &FractionalParams::new(2)).unwrap();
        let run = run_rounding_protocol(&inst, &frac.x, frac.delta, 1, &RoundingParams::default())
            .unwrap();
        assert!(run.metrics.rounds <= 3);
        assert_eq!(run.metrics.max_message_bits, 1);
        assert!(is_k_dominating_instance(
            &inst,
            &run.outcome.set,
            Semantics::CoverSelf
        ));
    }

    #[test]
    fn lossy_execution_matches_engine() {
        let g = generators::gnp(40, 0.15, 8);
        let inst = Instance::uniform_clamped(&g, 2);
        let frac = solve_fractional(&inst, &FractionalParams::new(2)).unwrap();
        let params = RoundingParams::default();
        for seed in [0u64, 9] {
            let engine = round_fractional(&inst, &frac.x, frac.delta, seed, &params);
            for p in [0.0, 0.05, 0.2] {
                let stack = Stack::new()
                    .churned(ChurnPlan::none().drop_probability(p))
                    .transport(TransportConfig::default());
                let (run, _) =
                    run_rounding_stack(&inst, &frac.x, frac.delta, seed, &params, stack).unwrap();
                assert_eq!(engine, run.outcome, "diverged at seed {seed}, p = {p}");
                if p == 0.0 {
                    assert_eq!(run.metrics.retransmits, 0);
                }
            }
        }
    }

    #[test]
    fn repair_off_halts_after_two_rounds() {
        let g = generators::cycle(10);
        let inst = Instance::uniform(&g, 1).unwrap();
        let run = run_rounding_protocol(
            &inst,
            &[0.0; 10],
            2,
            0,
            &RoundingParams {
                repair: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(run.metrics.rounds <= 2);
        assert_eq!(run.outcome.set.len(), 0);
    }

    #[test]
    fn traced_run_matches_untraced_and_reconciles() {
        use ftclust_netsim::trace::{REGISTERED_SPANS, UNSPANNED};
        let g = generators::gnp(50, 0.12, 4);
        let inst = Instance::uniform_clamped(&g, 2);
        let frac = solve_fractional(&inst, &FractionalParams::new(2)).unwrap();
        let params = RoundingParams::default();
        let base = run_rounding_protocol(&inst, &frac.x, frac.delta, 3, &params).unwrap();
        let (traced, log) = run_rounding_stack(
            &inst,
            &frac.x,
            frac.delta,
            3,
            &params,
            Stack::new().traced(),
        )
        .unwrap();
        let log = log.expect("traced stack records a log");
        assert_eq!(base.outcome, traced.outcome);
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
        assert!(rollups.iter().any(|r| r.name == "rounding_round"));
    }
}
