//! Penso–Barbosa-style distributed k-dominating sets.
//!
//! After L. D. Penso and V. C. Barbosa, *A distributed algorithm to
//! find k-dominating sets* (Discrete Applied Mathematics, 2004). Their
//! algorithm elects rulers of growing clusters in `O(log* n)`-flavored
//! sweeps; this rendition keeps its defining trait — **membership is
//! decided by a coverage-oblivious local election**, here the
//! hashed-id minimum among candidates — on the shared cover-growth
//! skeleton of [`super`] (3-round iterations: status, candidacy,
//! election), so it composes with the executor stack and is metered
//! under the same CONGEST accounting as the paper's algorithms. The
//! generalization to per-node demands `k_v` (and to the `CoverSelf`
//! semantics, so LP dual certificates bound it) is ours.
//!
//! Expected behavior on the leaderboard: wide independent layers join
//! per iteration and candidacies are 1-bit beacons, so it posts the
//! lowest distributed message volume — but since elections ignore
//! coverage gain, the sets are measurably larger than the span-greedy
//! [`super::dkm`]'s, at comparable round counts.

use crate::{Instance, KmdsError};
use ftclust_netsim::exec::Stack;
use ftclust_netsim::EventLog;

use super::cover::{run_cover_stack, Election};
use super::PortfolioRun;

/// Runs the Penso–Barbosa-style protocol through the composable
/// executor stack: transport (loss masking), churn, tracing and
/// adversarial layers compose freely, exactly as for the paper's
/// algorithms. Traced runs attribute every round to the repeating
/// `pb_iter` span.
///
/// # Errors
///
/// Returns [`KmdsError::Sim`] if the round budget is exceeded (cannot
/// happen for well-formed instances), or — with the transport engaged —
/// wrapping [`ftclust_netsim::SimError::DeliveryFailed`] if loss
/// exceeds a retransmit budget.
///
/// # Example
///
/// ```
/// use ftclust_core::portfolio::run_pb_stack;
/// use ftclust_core::validate::{is_k_dominating_instance, Semantics};
/// use ftclust_core::Instance;
/// use ftclust_graphs::generators;
/// use ftclust_netsim::exec::Stack;
///
/// let g = generators::gnp(40, 0.15, 7);
/// let inst = Instance::uniform_clamped(&g, 2);
/// let (run, _) = run_pb_stack(&inst, Stack::new())?;
/// assert!(is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf));
/// # Ok::<(), ftclust_core::KmdsError>(())
/// ```
pub fn run_pb_stack(
    inst: &Instance<'_>,
    stack: Stack,
) -> Result<(PortfolioRun, Option<EventLog>), KmdsError> {
    run_cover_stack(
        inst,
        Election::LayeredId,
        "pb_iter",
        "Penso–Barbosa layered growth",
        stack,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{is_k_dominating_instance, Semantics};
    use ftclust_graphs::generators;

    #[test]
    fn produces_valid_cover_self_sets() {
        for (g, k) in [
            (generators::cycle(12), 2u32),
            (generators::gnp(60, 0.12, 3), 2),
            (generators::grid_2d(8, 7), 3),
            (generators::star(9), 1),
            (generators::empty(5), 1),
        ] {
            let inst = Instance::uniform_clamped(&g, k);
            let (run, _) = run_pb_stack(&inst, Stack::new()).unwrap();
            assert!(
                is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf),
                "invalid set at k={k}"
            );
            assert!(run.logical_rounds <= 3 * (g.node_count() as u64 + 2));
        }
    }

    #[test]
    fn isolated_nodes_join_themselves() {
        let g = generators::empty(4);
        let inst = Instance::uniform_clamped(&g, 1);
        let (run, _) = run_pb_stack(&inst, Stack::new()).unwrap();
        assert_eq!(run.set.len(), 4);
        assert_eq!(run.metrics.messages, 0);
    }

    #[test]
    fn zero_demand_elects_nobody() {
        let g = generators::path(6);
        let inst = Instance::uniform_clamped(&g, 0);
        let (run, _) = run_pb_stack(&inst, Stack::new()).unwrap();
        assert_eq!(run.set.len(), 0);
    }

    #[test]
    fn hashed_election_beats_sequential_ids_on_grids() {
        // Row-major grid ids are the adversarial case for raw-id
        // elections (Θ(n) sequential joins); the hashed priority keeps
        // the iteration count well below n/3.
        let g = generators::grid_2d(12, 12);
        let inst = Instance::uniform_clamped(&g, 1);
        let (run, _) = run_pb_stack(&inst, Stack::new()).unwrap();
        assert!(
            run.logical_rounds < g.node_count() as u64,
            "degenerate sequential election: {} rounds",
            run.logical_rounds
        );
    }

    #[test]
    fn lossy_transport_is_transparent() {
        let g = generators::gnp(40, 0.15, 11);
        let inst = Instance::uniform_clamped(&g, 2);
        let (lossless, _) = run_pb_stack(&inst, Stack::new()).unwrap();
        for p in [0.05, 0.2] {
            let (lossy, _) = run_pb_stack(&inst, Stack::new().lossy(p)).unwrap();
            assert_eq!(lossy.set, lossless.set, "loss changed the set at p={p}");
            assert!(lossy.metrics.retransmits > 0, "no loss exercised at p={p}");
        }
    }
}
