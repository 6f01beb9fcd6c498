//! Validation of k-fold domination.
//!
//! The paper uses two subtly different notions, both supported here:
//!
//! * [`Semantics::Strict`] — the Section 1 definition: *"each node
//!   `v ∈ V \ S` has at least `k` dominators in `S` in its neighborhood"*.
//!   Nodes inside `S` need no coverage. This is what the UDG algorithm
//!   (Algorithm 3) guarantees.
//! * [`Semantics::CoverSelf`] — the LP `(PP)` semantics: *every* node must
//!   have `Σ_{j ∈ N[v]} x_j ≥ k_v`, counting itself if selected. This is
//!   what the LP pipeline (Algorithms 1 + 2) guarantees. `CoverSelf`
//!   implies `Strict` for equal demands.

use crate::{DominatingSet, Instance, KmdsError};
use ftclust_graphs::{Graph, NodeId};

/// Which k-domination definition to check. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Section 1: only nodes outside the set need `k` dominators among
    /// their neighbors.
    Strict,
    /// LP `(PP)`: every node needs `k_v` selected nodes in its closed
    /// neighborhood (itself included if selected).
    CoverSelf,
}

/// Number of selected nodes in the closed neighborhood `N[v]` of every
/// node.
///
/// # Panics
///
/// Panics if the set's universe does not match the graph.
pub fn coverage(graph: &Graph, set: &DominatingSet) -> Vec<u32> {
    assert_eq!(set.universe(), graph.node_count(), "set universe mismatch");
    mask_coverage(graph, set.as_members())
}

/// Number of `mask` nodes in the closed neighborhood `N[v]` of every
/// node: the one per-node count behind [`coverage`], Algorithm 1's
/// dynamic degree δ̃ (white neighbors), Algorithm 2's deficits before
/// `REQ`, and coverage repair's `c(v)`.
pub(crate) fn mask_coverage(graph: &Graph, mask: &[bool]) -> Vec<u32> {
    debug_assert_eq!(mask.len(), graph.node_count(), "mask length mismatch");
    graph
        .nodes()
        .map(|v| {
            graph
                .closed_neighbors(v)
                .filter(|w| mask[w.index()])
                .count() as u32
        })
        .collect()
}

/// Checks whether `set` is a k-fold dominating set of `graph` with uniform
/// demand `k`, under the given semantics.
///
/// # Example
///
/// ```
/// use ftclust_core::validate::{is_k_dominating, Semantics};
/// use ftclust_core::DominatingSet;
/// use ftclust_graphs::{generators, NodeId};
///
/// let g = generators::star(4);
/// let center = DominatingSet::from_ids(4, [NodeId::new(0)]);
/// assert!(is_k_dominating(&g, &center, 1, Semantics::Strict));
/// assert!(is_k_dominating(&g, &center, 1, Semantics::CoverSelf));
/// assert!(!is_k_dominating(&g, &center, 2, Semantics::Strict));
/// ```
pub fn is_k_dominating(graph: &Graph, set: &DominatingSet, k: u32, semantics: Semantics) -> bool {
    let cov = coverage(graph, set);
    graph.nodes().all(|v| satisfied(set, &cov, v, k, semantics))
}

/// Checks an [`Instance`] (per-node demands) against a set.
pub fn is_k_dominating_instance(
    inst: &Instance<'_>,
    set: &DominatingSet,
    semantics: Semantics,
) -> bool {
    let cov = coverage(inst.graph(), set);
    inst.graph()
        .nodes()
        .all(|v| satisfied(set, &cov, v, inst.demand(v), semantics))
}

/// The nodes whose demand is violated (empty iff the set is valid).
pub fn violations(inst: &Instance<'_>, set: &DominatingSet, semantics: Semantics) -> Vec<NodeId> {
    let cov = coverage(inst.graph(), set);
    inst.graph()
        .nodes()
        .filter(|&v| !satisfied(set, &cov, v, inst.demand(v), semantics))
        .collect()
}

/// Fraction of non-set nodes that have at least `k` set members among
/// their neighbors (1.0 when every node is in the set). The health metric
/// for eroding clusterings — e.g. under mobility, where a set computed
/// earlier slowly stops dominating.
///
/// # Panics
///
/// Panics if the set universe does not match the graph.
pub fn covered_fraction(graph: &Graph, set: &DominatingSet, k: u32) -> f64 {
    assert_eq!(set.universe(), graph.node_count(), "set universe mismatch");
    let mut clients = 0usize;
    let mut covered = 0usize;
    for v in graph.nodes() {
        if set.contains(v) {
            continue;
        }
        clients += 1;
        let heads = graph
            .neighbors(v)
            .iter()
            .filter(|&&w| set.contains(w))
            .count() as u32;
        if heads >= k {
            covered += 1;
        }
    }
    if clients == 0 {
        1.0
    } else {
        covered as f64 / clients as f64
    }
}

/// The certified approximation ratio `value / lower_bound`, guarded
/// against degenerate certificates.
///
/// A dual certificate assembled from an empty solution, or an instance
/// whose optimum has zero weight (all demands zero), yields
/// `lower_bound ≤ 0`; dividing through would put `inf`/`NaN` in
/// reports, which is exactly the bug this guard retires. Such inputs —
/// as well as non-finite or negative values — surface a typed
/// [`KmdsError::DegenerateCertificate`] instead.
///
/// # Errors
///
/// [`KmdsError::DegenerateCertificate`] when `lower_bound ≤ 0`, or when
/// either argument is non-finite, or when `value < 0`.
///
/// # Example
///
/// ```
/// use ftclust_core::validate::certified_ratio;
///
/// assert_eq!(certified_ratio(6.0, 3.0)?, 2.0);
/// assert!(certified_ratio(6.0, 0.0).is_err());
/// # Ok::<(), ftclust_core::KmdsError>(())
/// ```
pub fn certified_ratio(value: f64, lower_bound: f64) -> Result<f64, KmdsError> {
    if !value.is_finite() || !lower_bound.is_finite() || value < 0.0 || lower_bound <= 0.0 {
        return Err(KmdsError::DegenerateCertificate { value, lower_bound });
    }
    Ok(value / lower_bound)
}

fn satisfied(set: &DominatingSet, cov: &[u32], v: NodeId, k: u32, semantics: Semantics) -> bool {
    match semantics {
        Semantics::CoverSelf => cov[v.index()] >= k,
        Semantics::Strict => {
            if set.contains(v) {
                true
            } else {
                // v ∉ S, so N[v] ∩ S = N(v) ∩ S.
                cov[v.index()] >= k
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclust_graphs::generators;

    #[test]
    fn coverage_counts_closed_neighborhood() {
        let g = generators::path(3);
        let s = DominatingSet::from_ids(3, [NodeId::new(1)]);
        assert_eq!(coverage(&g, &s), vec![1, 1, 1]);
        let s = DominatingSet::from_ids(3, [NodeId::new(0), NodeId::new(1)]);
        assert_eq!(coverage(&g, &s), vec![2, 2, 1]);
    }

    #[test]
    fn degree_zero_nodes_count_only_themselves() {
        let g = generators::empty(70);
        let s = DominatingSet::from_ids(70, (0..70).step_by(2).map(NodeId::new));
        for (i, &c) in coverage(&g, &s).iter().enumerate() {
            assert_eq!(c, u32::from(i % 2 == 0), "isolated node {i}");
        }
    }

    #[test]
    fn strict_ignores_set_members() {
        // Path 0-1-2: S = {0, 2}. Node 1 has 2 dominators; nodes 0 and 2
        // are in S so strict demands nothing of them, but CoverSelf sees
        // coverage 1 each.
        let g = generators::path(3);
        let s = DominatingSet::from_ids(3, [NodeId::new(0), NodeId::new(2)]);
        assert!(is_k_dominating(&g, &s, 2, Semantics::Strict));
        assert!(!is_k_dominating(&g, &s, 2, Semantics::CoverSelf));
    }

    #[test]
    fn cover_self_implies_strict() {
        let g = generators::gnp(40, 0.2, 3);
        let inst = Instance::uniform_clamped(&g, 2);
        // The full set satisfies CoverSelf wherever feasible.
        let full = DominatingSet::full(40);
        if is_k_dominating_instance(&inst, &full, Semantics::CoverSelf) {
            assert!(is_k_dominating_instance(&inst, &full, Semantics::Strict));
        }
    }

    #[test]
    fn violations_lists_uncovered_nodes() {
        let g = generators::path(4);
        let inst = Instance::uniform(&g, 1).unwrap();
        let s = DominatingSet::from_ids(4, [NodeId::new(0)]);
        // Coverage: v0:1 v1:1 v2:0 v3:0. Strict: v0 in S ok, v1 ok, v2 and
        // v3 violated.
        assert_eq!(
            violations(&inst, &s, Semantics::Strict),
            vec![NodeId::new(2), NodeId::new(3)]
        );
        assert!(violations(&inst, &DominatingSet::full(4), Semantics::Strict).is_empty());
    }

    #[test]
    fn covered_fraction_counts_clients() {
        let g = generators::path(4);
        // S = {1}: clients 0, 2, 3; nodes 0 and 2 covered, 3 not.
        let s = DominatingSet::from_ids(4, [NodeId::new(1)]);
        assert!((covered_fraction(&g, &s, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(covered_fraction(&g, &DominatingSet::full(4), 5), 1.0);
        assert_eq!(covered_fraction(&g, &DominatingSet::empty(4), 1), 0.0);
    }

    #[test]
    fn certified_ratio_divides_sound_certificates() {
        assert_eq!(certified_ratio(6.0, 2.0).unwrap(), 3.0);
        assert_eq!(certified_ratio(0.0, 1.5).unwrap(), 0.0);
    }

    /// Regression: an **empty dual certificate** (zero nodes, so the dual
    /// sum is empty and the assembled lower bound is 0) must surface a
    /// typed error, not the `inf` that `|S| / 0.0` used to print.
    #[test]
    fn certified_ratio_rejects_empty_dual_certificate() {
        use crate::fractional::{solve_fractional, FractionalParams};
        let g = generators::empty(0);
        let inst = Instance::uniform_clamped(&g, 2);
        let sol = solve_fractional(&inst, &FractionalParams::new(2)).unwrap();
        assert_eq!(sol.lower_bound, 0.0, "empty certificate has no weight");
        let err = certified_ratio(0.0, sol.lower_bound).unwrap_err();
        assert!(matches!(err, KmdsError::DegenerateCertificate { .. }));
    }

    /// Regression: a **zero-weight optimum** (all demands 0, so the LP
    /// optimum and its dual bound are both 0) must surface a typed error,
    /// not the `NaN` that `0.0 / 0.0` used to print.
    #[test]
    fn certified_ratio_rejects_zero_weight_optimum() {
        use crate::fractional::{solve_fractional, FractionalParams};
        let g = generators::path(5);
        let inst = Instance::uniform_clamped(&g, 0);
        let sol = solve_fractional(&inst, &FractionalParams::new(2)).unwrap();
        assert_eq!(sol.lower_bound, 0.0, "zero demands admit the empty set");
        let err = certified_ratio(sol.value, sol.lower_bound).unwrap_err();
        assert!(matches!(
            err,
            KmdsError::DegenerateCertificate { lower_bound, .. } if lower_bound == 0.0
        ));
    }

    #[test]
    fn certified_ratio_rejects_nonfinite_inputs() {
        assert!(certified_ratio(f64::INFINITY, 1.0).is_err());
        assert!(certified_ratio(1.0, f64::NAN).is_err());
        assert!(certified_ratio(-1.0, 1.0).is_err());
        assert!(certified_ratio(1.0, -2.0).is_err());
    }

    #[test]
    fn empty_graph_is_vacuously_dominated() {
        let g = generators::empty(0);
        let s = DominatingSet::empty(0);
        assert!(is_k_dominating(&g, &s, 3, Semantics::Strict));
        assert!(is_k_dominating(&g, &s, 3, Semantics::CoverSelf));
    }

    #[test]
    fn isolated_node_must_be_in_set() {
        let g = generators::empty(1);
        assert!(!is_k_dominating(
            &g,
            &DominatingSet::empty(1),
            1,
            Semantics::Strict
        ));
        assert!(is_k_dominating(
            &g,
            &DominatingSet::full(1),
            1,
            Semantics::Strict
        ));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// An arbitrary simple graph together with an arbitrary subset of
        /// its nodes.
        fn graph_and_set() -> impl Strategy<Value = (Graph, DominatingSet)> {
            (
                1u32..32,
                proptest::collection::vec((0u32..32, 0u32..32), 0..140),
                proptest::collection::vec(0u32..2, 32usize),
            )
                .prop_map(|(n, edges, bits)| {
                    let mut b = ftclust_graphs::GraphBuilder::new(n);
                    for (u, v) in edges {
                        if u != v && u < n && v < n {
                            let _ = b.add_edge(u, v); // duplicates rejected, fine
                        }
                    }
                    let members = (0..n as usize).map(|i| bits[i] == 1).collect();
                    (b.build(), DominatingSet::from_members(members))
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// `violations` is the *complete* explanation of infeasibility:
            /// it is empty exactly when the domination predicate holds,
            /// under both semantics, for per-node and uniform demands.
            #[test]
            fn violations_empty_iff_dominating(gs in graph_and_set(), k in 1u32..4) {
                let (g, set) = gs;
                let inst = Instance::uniform_clamped(&g, k);
                for sem in [Semantics::Strict, Semantics::CoverSelf] {
                    prop_assert_eq!(
                        violations(&inst, &set, sem).is_empty(),
                        is_k_dominating_instance(&inst, &set, sem)
                    );
                }
                // Where the uniform demand is admissible everywhere, the
                // instance check coincides with the plain-graph check.
                if let Ok(uniform) = Instance::uniform(&g, k) {
                    for sem in [Semantics::Strict, Semantics::CoverSelf] {
                        prop_assert_eq!(
                            violations(&uniform, &set, sem).is_empty(),
                            is_k_dominating(&g, &set, k, sem)
                        );
                    }
                }
            }

            /// `covered_fraction` lies in `[0, 1]`, agrees with the ratio
            /// recomputed from `coverage` counts, and saturates at 1
            /// exactly when the set strictly k-dominates.
            #[test]
            fn covered_fraction_agrees_with_coverage(gs in graph_and_set(), k in 1u32..4) {
                let (g, set) = gs;
                let cf = covered_fraction(&g, &set, k);
                prop_assert!((0.0..=1.0).contains(&cf), "fraction {} out of range", cf);
                let cov = coverage(&g, &set);
                let clients = g.nodes().filter(|&v| !set.contains(v)).count();
                let covered = g
                    .nodes()
                    .filter(|&v| !set.contains(v) && cov[v.index()] >= k)
                    .count();
                let expected =
                    if clients == 0 { 1.0 } else { covered as f64 / clients as f64 };
                prop_assert!((cf - expected).abs() < 1e-15, "{} vs {}", cf, expected);
                // Saturation ⟺ strict domination (set members are exempt,
                // and for v ∉ S closed and open coverage coincide).
                prop_assert_eq!(
                    covered == clients,
                    is_k_dominating(&g, &set, k, Semantics::Strict)
                );
            }
        }
    }
}
