//! Deurer–Kuhn–Maus-style deterministic span-greedy approximation.
//!
//! After J. Deurer, F. Kuhn and Y. Maus, *Deterministic distributed
//! dominating set approximation in the CONGEST model* (PODC 2019).
//! Their algorithm rounds the greedy's "cover the most uncovered
//! elements" rule into CONGEST via ruling sets over high-span
//! candidates; this rendition keeps that defining trait — **local span
//! maxima join**, i.e. a candidate wins only if no neighboring
//! candidate covers more still-needy nodes — on the shared
//! cover-growth skeleton of [`super`] (3-round iterations: status,
//! candidacy, election), with a hashed-id tie-break for symmetry
//! breaking. Spans are recomputed every iteration from fresh residuals,
//! so the selection tracks the sequential greedy closely; the k-fold
//! per-node-demand generalization (and the `CoverSelf` semantics, so
//! LP dual certificates bound it) is ours. We trade their `poly log n`
//! round guarantee for simplicity — the span chains make the
//! worst-case round count linear, which E17 meters honestly.
//!
//! Expected behavior on the leaderboard: sets close to the centralized
//! greedy's (and measurably smaller than [`super::pb`]'s), at the cost
//! of wider candidacy bids — span values instead of 1-bit beacons.

use crate::{Instance, KmdsError};
use ftclust_netsim::exec::Stack;
use ftclust_netsim::EventLog;

use super::cover::{run_cover_stack, Election};
use super::PortfolioRun;

/// Runs the Deurer–Kuhn–Maus-style protocol through the composable
/// executor stack: transport (loss masking), churn, tracing and
/// adversarial layers compose freely, exactly as for the paper's
/// algorithms. Traced runs attribute every round to the repeating
/// `dkm_iter` span.
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
/// use ftclust_core::portfolio::run_dkm_stack;
/// use ftclust_core::validate::{is_k_dominating_instance, Semantics};
/// use ftclust_core::Instance;
/// use ftclust_graphs::generators;
/// use ftclust_netsim::exec::Stack;
///
/// let g = generators::gnp(40, 0.15, 7);
/// let inst = Instance::uniform_clamped(&g, 2);
/// let (run, _) = run_dkm_stack(&inst, Stack::new())?;
/// assert!(is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf));
/// # Ok::<(), ftclust_core::KmdsError>(())
/// ```
pub fn run_dkm_stack(
    inst: &Instance<'_>,
    stack: Stack,
) -> Result<(PortfolioRun, Option<EventLog>), KmdsError> {
    run_cover_stack(
        inst,
        Election::GreedySpan,
        "dkm_iter",
        "Deurer–Kuhn–Maus span greedy",
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
            let (run, _) = run_dkm_stack(&inst, Stack::new()).unwrap();
            assert!(
                is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf),
                "invalid set at k={k}"
            );
            assert!(run.logical_rounds <= 3 * (g.node_count() as u64 + 2));
        }
    }

    #[test]
    fn star_center_wins_the_span_election() {
        // The hub of a star has span n; the greedy election must pick
        // it alone for k = 1.
        let g = generators::star(16);
        let inst = Instance::uniform_clamped(&g, 1);
        let (run, _) = run_dkm_stack(&inst, Stack::new()).unwrap();
        assert_eq!(run.set.len(), 1, "span greedy should pick only the hub");
        assert!(run.set.contains(ftclust_graphs::NodeId::new(0)));
    }

    #[test]
    fn span_greedy_is_never_larger_than_layered_on_the_bench_families() {
        for seed in [1u64, 5, 9] {
            let g = generators::gnp(80, 0.1, seed);
            let inst = Instance::uniform_clamped(&g, 2);
            let (dkm, _) = run_dkm_stack(&inst, Stack::new()).unwrap();
            let pb = super::super::run_pb_stack(&inst, Stack::new()).unwrap().0;
            assert!(
                dkm.set.len() <= pb.set.len(),
                "span greedy ({}) beat by layered growth ({}) at seed {seed}",
                dkm.set.len(),
                pb.set.len()
            );
        }
    }

    #[test]
    fn lossy_transport_is_transparent() {
        let g = generators::gnp(40, 0.15, 11);
        let inst = Instance::uniform_clamped(&g, 2);
        let (lossless, _) = run_dkm_stack(&inst, Stack::new()).unwrap();
        for p in [0.05, 0.2] {
            let (lossy, _) = run_dkm_stack(&inst, Stack::new().lossy(p)).unwrap();
            assert_eq!(lossy.set, lossless.set, "loss changed the set at p={p}");
            assert!(lossy.metrics.retransmits > 0, "no loss exercised at p={p}");
        }
    }
}
