//! Centralized greedy `H(Δ+1)` baseline, metered for distribution.
//!
//! The engine-side [`greedy_kmds`] is the classical sequential greedy —
//! the `H(Δ + 1)`-approximation reference upper bound of the
//! leaderboard. Production would compute it at a sink and ship the
//! result, so the protocol here meters exactly that: a **two-round
//! announce/verify** run in which preloaded members broadcast a 1-bit
//! membership beacon (`greedy_announce`) and every node checks its
//! demand against the observed closed neighborhood (`greedy_verify`).
//! Rounds and bits on the leaderboard are therefore the *distribution*
//! cost of a centrally computed set — the floor any distributed
//! algorithm is competing against.

use crate::baselines::greedy_kmds;
use crate::validate::Semantics;
use crate::{DominatingSet, Instance, KmdsError};
use ftclust_netsim::exec::{Executor, Phase, Stack};
use ftclust_netsim::{Context, Control, EventLog, Inbox, NodeLogic, Payload, Topology};

use super::PortfolioRun;

/// Wire messages of the announce/verify protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreedyMsg {
    /// 1-bit membership beacon from a preloaded set member.
    Member,
}

impl GreedyMsg {
    /// The CONGEST bound on every message, at any `n`: one bit.
    pub const MAX_BITS: usize = 1;
}

impl Payload for GreedyMsg {
    fn bit_size(&self) -> usize {
        1
    }
}

/// Per-node state: the preloaded membership plus the verification
/// verdict.
#[derive(Debug)]
struct GreedyNode {
    member: bool,
    demand: u32,
    verified: bool,
}

impl NodeLogic for GreedyNode {
    type Payload = GreedyMsg;

    fn on_round(
        &mut self,
        inbox: Inbox<'_, GreedyMsg>,
        ctx: &mut Context<'_, GreedyMsg>,
    ) -> Control {
        if ctx.round() == 0 {
            if self.member {
                ctx.broadcast(GreedyMsg::Member);
            }
            return Control::Continue;
        }
        // Verify round: every inbox entry is a member beacon.
        let covered = u32::from(self.member) + inbox.len() as u32;
        self.verified = covered >= self.demand;
        Control::Halt
    }
}

/// Runs the centralized-greedy baseline through the composable executor
/// stack: [`greedy_kmds`] (under [`Semantics::CoverSelf`], so the LP
/// dual bound applies) picks the set, and the two-round announce/verify
/// protocol distributes and checks it under the selected transport,
/// churn, tracing and adversarial layers. Traced runs attribute the
/// rounds to the `greedy_announce` and `greedy_verify` spans.
///
/// # Errors
///
/// Returns [`KmdsError::Sim`] if the round budget is exceeded (cannot
/// happen), or — with the transport engaged — wrapping
/// [`ftclust_netsim::SimError::DeliveryFailed`] if loss exceeds a
/// retransmit budget.
///
/// # Example
///
/// ```
/// use ftclust_core::portfolio::run_cgreedy_stack;
/// use ftclust_core::validate::{is_k_dominating_instance, Semantics};
/// use ftclust_core::Instance;
/// use ftclust_graphs::generators;
/// use ftclust_netsim::exec::Stack;
///
/// let g = generators::gnp(40, 0.15, 7);
/// let inst = Instance::uniform_clamped(&g, 2);
/// let (run, _) = run_cgreedy_stack(&inst, Stack::new())?;
/// assert!(is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf));
/// assert_eq!(run.metrics.rounds, 2);
/// # Ok::<(), ftclust_core::KmdsError>(())
/// ```
pub fn run_cgreedy_stack(
    inst: &Instance<'_>,
    stack: Stack,
) -> Result<(PortfolioRun, Option<EventLog>), KmdsError> {
    let g = inst.graph();
    let engine_set = greedy_kmds(inst, Semantics::CoverSelf);
    let transported = stack.engages_transport();
    let run = Executor::new(
        Topology::from_graph(g),
        |v| GreedyNode {
            member: engine_set.contains(v),
            demand: inst.demand(v),
            verified: false,
        },
        0,
    )
    .stack(stack)
    .phases(vec![
        Phase::span("greedy_announce", 1),
        Phase::tail("greedy_verify"),
    ])
    .run(4)?;
    let set = DominatingSet::from_members(run.logics.iter().map(|l| l.member).collect());
    if cfg!(debug_assertions) {
        assert_eq!(
            set, engine_set,
            "centralized greedy: distribution changed the set"
        );
        for (i, node) in run.logics.iter().enumerate() {
            assert!(
                node.verified,
                "centralized greedy: node {i} failed coverage verification"
            );
        }
        if transported {
            crate::audit::loss_transparent("centralized greedy", &set, &engine_set);
        } else {
            crate::audit::congest("centralized greedy", &run.metrics, GreedyMsg::MAX_BITS);
        }
    }
    Ok((
        PortfolioRun {
            set,
            metrics: run.metrics,
            logical_rounds: run.logical_rounds,
        },
        run.log,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclust_graphs::generators;

    #[test]
    fn protocol_distributes_the_engine_set_in_two_rounds() {
        let g = generators::gnp(50, 0.15, 4);
        let inst = Instance::uniform_clamped(&g, 2);
        let engine = greedy_kmds(&inst, Semantics::CoverSelf);
        let (run, _) = run_cgreedy_stack(&inst, Stack::new()).unwrap();
        assert_eq!(run.set, engine);
        assert_eq!(run.metrics.rounds, 2);
        // Announce costs one beacon per member edge, nothing else. The
        // beacon carries no field, so its bound holds at every n.
        assert_eq!(run.metrics.max_message_bits, 1);
        assert!(GreedyMsg::Member.bit_size() <= GreedyMsg::MAX_BITS);
    }

    #[test]
    fn baseline_upper_bounds_the_distributed_protocols() {
        for seed in [2u64, 8] {
            let g = generators::gnp(70, 0.12, seed);
            let inst = Instance::uniform_clamped(&g, 2);
            let (cg, _) = run_cgreedy_stack(&inst, Stack::new()).unwrap();
            let dkm = super::super::run_dkm_stack(&inst, Stack::new()).unwrap().0;
            let pb = super::super::run_pb_stack(&inst, Stack::new()).unwrap().0;
            assert!(cg.set.len() <= dkm.set.len());
            assert!(cg.set.len() <= pb.set.len());
        }
    }

    #[test]
    fn lossy_transport_is_transparent() {
        let g = generators::gnp(40, 0.15, 11);
        let inst = Instance::uniform_clamped(&g, 2);
        let (lossless, _) = run_cgreedy_stack(&inst, Stack::new()).unwrap();
        let (lossy, _) = run_cgreedy_stack(&inst, Stack::new().lossy(0.2)).unwrap();
        assert_eq!(lossy.set, lossless.set, "loss changed the set");
        assert!(lossy.metrics.retransmits > 0, "no loss exercised");
    }
}
