//! Runtime invariant audits, live in every debug build.
//!
//! Every check here is a `debug_assert!`, and every call site is
//! guarded by `cfg!(debug_assertions)`, so debug builds (every `cargo
//! test`) run the audits and their reference computations, while
//! release builds still type-check them and compile them out. The
//! audited invariants are the load-bearing claims of the paper:
//!
//! * **Algorithm 1** ([`fractional_state`], [`fractional_certificate`]) —
//!   the primal iterate stays in `[0, 1]ⁿ` with monotone coverage, and
//!   the returned `(y, z)` certificate is dual feasible after the
//!   Lemma 4.4 scaling (the premise of every reported lower bound).
//! * **Algorithm 2** ([`rounding_monotone`]) — the
//!   repair step never *decreases* any node's closed-neighborhood
//!   coverage, and with repair enabled the final set meets every demand
//!   (the deterministic-feasibility half of Theorem 4.6).
//! * **Algorithm 3, Part I** ([`part1_invariants`]) — active sets only
//!   shrink, every node keeps a leader within the telescoped chain radius
//!   `Σᵢ θᵢ` (the deterministic core of Lemma 5.1), and leader density
//!   per radius-`r/2` disk stays `O(1)` (Lemma 5.5, with a generous
//!   explicit constant). Checked at the end of every
//!   [`crate::udg::protocol::run_udg_stack`], on the active sets rebuilt
//!   from each node's `passive_after` round.
//! * **Coverage repair** ([`repair_postconditions`]) — after
//!   [`crate::repair::repair_coverage`], the healed set strictly
//!   k-dominates the surviving subgraph, contains no dead node, and —
//!   whenever the pre-failure set was itself strictly k-dominating —
//!   every added node lies within 2 hops of a failure (the locality
//!   guarantee of the repair protocol).
//!
//! The audits assume a *validated* instance (`k_i ≤ |N[i]|`), the same
//! precondition the algorithms themselves document.

use crate::fractional::FractionalSolution;
use crate::validate::{is_k_dominating, mask_coverage, Semantics};
use crate::{DominatingSet, Instance};
use ftclust_geometry::SpatialGrid;
use ftclust_graphs::{Graph, NodeId, UnitDiskGraph};

/// Tolerance for the feasibility certificates.
const CERT_TOL: f64 = 1e-7;
/// Tolerance for range checks on primal iterates.
const RANGE_TOL: f64 = 1e-12;
/// Hard cap on final leaders per radius-`r/2` disk. Lemma 5.5 bounds the
/// *expectation* by a constant; measured maxima on dense deployments stay
/// around a dozen (see `udg::analysis`), so 64 flags only catastrophic
/// sparsification failures, never statistical noise.
const LEADER_DENSITY_CAP: usize = 64;

/// Audits the per-iteration state of Algorithm 1: `x ∈ [0, 1]ⁿ`, raises
/// non-negative, and coverage counters never negative.
pub(crate) fn fractional_state(x: &[f64], xplus: &[f64], cov: &[f64]) {
    debug_assert!(
        x.iter()
            .all(|&v| (-RANGE_TOL..=1.0 + RANGE_TOL).contains(&v)),
        "primal iterate left [0, 1]"
    );
    debug_assert!(xplus.iter().all(|&v| v >= -RANGE_TOL), "negative raise x⁺");
    debug_assert!(
        cov.iter().all(|&c| c >= -RANGE_TOL),
        "negative coverage counter"
    );
}

/// Audits the solution Algorithm 1 returns: dual variables in range,
/// primal feasibility, Lemma 4.4 scaled dual feasibility, and weak
/// duality between the certified bound and the primal value.
pub(crate) fn fractional_certificate(inst: &Instance<'_>, sol: &FractionalSolution) {
    debug_assert!(
        sol.y
            .iter()
            .all(|&v| (-RANGE_TOL..=1.0 + RANGE_TOL).contains(&v)),
        "dual y outside [0, 1] — y is fixed to (Δ+1)^(-p/t)"
    );
    debug_assert!(
        sol.is_primal_feasible(inst, CERT_TOL),
        "Algorithm 1 returned a primal-infeasible x"
    );
    debug_assert!(
        sol.is_scaled_dual_feasible(inst, CERT_TOL),
        "(y/κ, z/κ) is not dual feasible — Lemma 4.4 violated"
    );
    debug_assert!(
        sol.lower_bound <= sol.value + CERT_TOL,
        "certified lower bound {} exceeds primal value {} — weak duality violated",
        sol.lower_bound,
        sol.value
    );
}

/// Audits Algorithm 2's repair step: per-node coverage is monotone
/// (repair only ever *adds* nodes), and with repair enabled the final
/// set meets every demand — the deterministic-feasibility guarantee.
/// `before` is the closed-neighborhood coverage of the random picks.
pub(crate) fn rounding_monotone(
    inst: &Instance<'_>,
    before: &[u32],
    selected: &[bool],
    repaired: bool,
) {
    let after = mask_coverage(inst.graph(), selected);
    for (i, (&b, &a)) in before.iter().zip(&after).enumerate() {
        debug_assert!(a >= b, "repair decreased node {i}'s coverage ({b} → {a})");
        if repaired {
            let k = inst.demand(NodeId::new(i as u32));
            debug_assert!(
                a >= k,
                "node {i} left with coverage {a} < demand {k} after repair"
            );
        }
    }
}

/// Audits Algorithm 3 Part I: active masks only shrink round over round,
/// every node has a final leader within `Σᵢ θᵢ` (the deterministic
/// telescoping bound behind Lemma 5.1: a node deactivated in round `i`
/// follows a leader chain of length at most `θ_i + θ_{i+1} + … + θ_R`),
/// and no radius-`r/2` disk around a leader holds more than
/// [`LEADER_DENSITY_CAP`] leaders (Lemma 5.5's `O(1)` density).
///
/// `coverage_radius` must be the sum of the round schedule. Domination at
/// graph distance 1 (the lemma's headline claim) is only guaranteed when
/// the uncapped doubling sum `2·θ_R` applies, so it is asserted by tests,
/// not here.
pub(crate) fn part1_invariants(
    udg: &UnitDiskGraph,
    masks: &[Vec<bool>],
    leaders: &[bool],
    coverage_radius: f64,
) {
    for pair in masks.windows(2) {
        debug_assert!(
            pair[0].iter().zip(&pair[1]).all(|(&was, &is)| was || !is),
            "a deactivated node became active again"
        );
    }
    let g = udg.graph();
    let leader_pos: Vec<_> = g
        .nodes()
        .filter(|v| leaders[v.index()])
        .map(|v| udg.position(v))
        .collect();
    if g.node_count() > 0 {
        let reach = coverage_radius.max(1e-12);
        let grid = SpatialGrid::build(&leader_pos, reach);
        debug_assert!(
            g.nodes().all(|v| grid.count_within(udg.position(v), reach + 1e-9) > 0),
            "a node has no leader within Σθ = {coverage_radius} — Lemma 5.1's chain argument violated"
        );
    }
    if !leader_pos.is_empty() {
        let r_half = (udg.radius() / 2.0).max(1e-12);
        let grid = SpatialGrid::build(&leader_pos, r_half);
        debug_assert!(
            leader_pos.iter().all(|&p| grid.count_within(p, r_half) <= LEADER_DENSITY_CAP),
            "more than {LEADER_DENSITY_CAP} leaders in one radius-r/2 disk — Lemma 5.5 sparsification failed"
        );
    }
}

/// Audits the transport-transparency guarantee: executing a protocol
/// over lossy links (`ftclust_netsim::transport`) must produce the exact
/// output of the lossless execution — loss may stretch physical time and
/// add retransmissions, never change a result. Called by the `run_*_stack`
/// drivers whose stack engages the transport, with the lossless
/// reference result.
pub(crate) fn loss_transparent<T: PartialEq + std::fmt::Debug>(
    what: &str,
    lossy: &T,
    lossless: &T,
) {
    debug_assert!(
        lossy == lossless,
        "{what} diverged under message loss\n lossy:    {lossy:?}\n lossless: {lossless:?}"
    );
}

/// Audits [`crate::repair::repair_coverage`]'s postconditions: the healed
/// set re-validates as strictly k-dominating on the surviving subgraph,
/// no dead node is a member, and — when the pre-failure set was valid on
/// the full graph — every added node is within 2 hops of a failed node
/// (the repair protocol's locality bound).
pub(crate) fn repair_postconditions(
    g: &Graph,
    before: &DominatingSet,
    alive: &[bool],
    k: u32,
    repaired: &DominatingSet,
    added: &[NodeId],
) {
    debug_assert!(
        repaired.ids().all(|v| alive[v.index()]),
        "a dead node is a member of the repaired set"
    );
    let healed = crate::repair::surviving_instance(g, repaired, alive)
        .is_ok_and(|(sub, survivors)| is_k_dominating(&sub, &survivors, k, Semantics::Strict));
    debug_assert!(
        healed,
        "repaired set does not strictly {k}-dominate the surviving subgraph"
    );
    // The locality bound is only promised when repair started from a set
    // that strictly k-dominated the *full* graph (pre-failure validity).
    if is_k_dominating(g, before, k, Semantics::Strict) {
        let near_failure = |v: NodeId| {
            g.closed_neighbors(v)
                .any(|u| !alive[u.index()] || g.neighbors(u).iter().any(|w| !alive[w.index()]))
        };
        debug_assert!(
            added.iter().all(|&v| near_failure(v)),
            "repair added a node farther than 2 hops from any failure"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractional::{solve_fractional, FractionalParams};
    use crate::rounding::{round_fractional, RoundingParams};
    use crate::udg::UdgAlgorithm;
    use crate::validate::{is_k_dominating_instance, Semantics};
    use ftclust_graphs::generators;

    // In debug builds the hooks inside the algorithms run on every call;
    // these tests exercise all three audited paths end to end.

    #[test]
    fn algorithm_1_passes_audits() {
        for (g, k) in [
            (generators::gnp(80, 0.1, 3), 2u32),
            (generators::cycle(15), 2),
            (generators::star(12), 1),
        ] {
            let inst = Instance::uniform_clamped(&g, k);
            for t in [1, 3] {
                let sol = solve_fractional(&inst, &FractionalParams::new(t)).unwrap();
                assert!(sol.value >= 0.0);
            }
        }
    }

    #[test]
    fn algorithm_2_passes_audits() {
        let g = generators::gnp(70, 0.09, 5);
        let inst = Instance::uniform_clamped(&g, 2);
        let sol = solve_fractional(&inst, &FractionalParams::new(2)).unwrap();
        for seed in 0..5 {
            let out = round_fractional(&inst, &sol.x, sol.delta, seed, &RoundingParams::default());
            assert!(is_k_dominating_instance(
                &inst,
                &out.set,
                Semantics::CoverSelf
            ));
        }
        // The repair-off ablation path is audited for monotonicity only.
        let no_repair = RoundingParams { repair: false };
        let _ = round_fractional(&inst, &sol.x, sol.delta, 0, &no_repair);
    }

    #[test]
    fn algorithm_3_passes_audits() {
        let udg = generators::random_udg(400, 8.0, 1.0, 11);
        let run = UdgAlgorithm::new(2).seed(6).run(&udg).unwrap();
        assert!(!run.set.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "repair decreased")]
    fn rounding_audit_catches_coverage_regression() {
        let g = generators::cycle(6);
        let inst = Instance::uniform(&g, 1).unwrap();
        // Claim full coverage beforehand while nothing is selected now:
        // the monotonicity audit must fire.
        let before = vec![3u32; 6];
        rounding_monotone(&inst, &before, &[false; 6], false);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "weak duality")]
    fn certificate_audit_catches_inflated_bound() {
        let g = generators::cycle(6);
        let inst = Instance::uniform(&g, 1).unwrap();
        let mut sol = solve_fractional(&inst, &FractionalParams::new(2)).unwrap();
        sol.lower_bound = sol.value + 1.0; // corrupt the certificate
        fractional_certificate(&inst, &sol);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "deactivated node became active")]
    fn part1_audit_catches_resurrected_nodes() {
        let udg = generators::random_udg(20, 4.0, 1.0, 2);
        let n = udg.node_count();
        let masks = vec![vec![false; n], vec![true; n]];
        part1_invariants(&udg, &masks, &vec![true; n], 1.0);
    }

    #[test]
    fn repair_passes_audits() {
        // In debug builds repair_coverage runs repair_postconditions on
        // every call; exercise the full hook end to end.
        let udg = generators::random_udg(300, 10.0, 1.0, 5);
        let run = UdgAlgorithm::new(2).seed(1).run(&udg).unwrap();
        let mut alive = vec![true; udg.node_count()];
        for v in run.set.ids().take(4) {
            alive[v.index()] = false;
        }
        let out = crate::repair::repair_coverage(udg.graph(), &run.set, &alive, 2).unwrap();
        assert!(out.set.ids().all(|v| alive[v.index()]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not strictly")]
    fn repair_audit_catches_unhealed_set() {
        // Node 1 of the path 0-1-2 dies; claiming the empty set "healed"
        // the survivors must trip the re-validation audit.
        let g = generators::path(3);
        let set = DominatingSet::from_ids(3, [NodeId::new(1)]);
        let alive = [true, false, true];
        repair_postconditions(&g, &set, &alive, 1, &DominatingSet::empty(3), &[]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dead node is a member")]
    fn repair_audit_catches_dead_member() {
        let g = generators::cycle(4);
        let set = DominatingSet::full(4);
        let alive = [true, true, false, true];
        repair_postconditions(&g, &set, &alive, 1, &set, &[]);
    }
}
