//! **Algorithm 2** — distributed randomized rounding.
//!
//! Converts a feasible fractional solution `x` of `(PP)` into an integral
//! k-fold dominating set:
//!
//! 1. every node joins independently with probability
//!    `p_i = min(1, x_i · ln(Δ+1))` (line 2),
//! 2. nodes still lacking coverage request exactly their deficit from
//!    non-selected closed neighbors, the lowest ids first (`REQ`, lines
//!    4–6; the paper leaves the choice open),
//! 3. requested nodes join (line 7).
//!
//! The repair step makes the output **deterministically feasible** (the
//! zeros to request always exist because `k_i ≤ |N[i]|`), while Theorem 4.6
//! bounds its expected cost: `E[|S|] ≤ ρ·ln(Δ+1)·OPT + O(OPT)` when `x` is
//! `ρ`-approximate.
//!
//! Constant time: 3 rounds as a protocol.
//!
//! # Example
//!
//! ```
//! use ftclust_core::fractional::{solve_fractional, FractionalParams};
//! use ftclust_core::rounding::{round_fractional, RoundingParams};
//! use ftclust_core::validate::{is_k_dominating_instance, Semantics};
//! use ftclust_core::Instance;
//! use ftclust_graphs::generators;
//!
//! let g = generators::gnp(100, 0.08, 2);
//! let inst = Instance::uniform_clamped(&g, 2);
//! let frac = solve_fractional(&inst, &FractionalParams::new(3))?;
//! let out = round_fractional(&inst, &frac.x, frac.delta, 7, &RoundingParams::default());
//! assert!(is_k_dominating_instance(&inst, &out.set, Semantics::CoverSelf));
//! # Ok::<(), ftclust_core::KmdsError>(())
//! ```

pub mod protocol;

use crate::validate::mask_coverage;
use crate::{DominatingSet, Instance};
use ftclust_graphs::NodeId;
use ftclust_netsim::node_rng;
use rand::Rng;

/// Parameters of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundingParams {
    /// Whether to run the repair step (lines 4–7). Disabling it is the
    /// E13 ablation: without repair the output is only feasible with
    /// probability `1 − O(1/Δ)` per node.
    pub repair: bool,
}

impl Default for RoundingParams {
    fn default() -> Self {
        RoundingParams { repair: true }
    }
}

/// Output of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundingOutcome {
    /// The integral solution.
    pub set: DominatingSet,
    /// Nodes selected by the random experiment (the paper's `X`).
    pub initial_picks: usize,
    /// Nodes added by the repair step (the paper's `Y`).
    pub repair_picks: usize,
}

/// Runs **Algorithm 2** in memory. `x` must be feasible for `inst` when
/// `params.repair` is off; with repair on, any `x ∈ [0,1]^n` yields a
/// feasible set.
///
/// Randomness comes from per-node streams derived from `seed`
/// ([`ftclust_netsim::node_rng`]), so the in-memory run equals the
/// protocol run ([`protocol::run_rounding_protocol`]) seed-for-seed.
///
/// # Panics
///
/// Panics if `x.len()` differs from the node count.
pub fn round_fractional(
    inst: &Instance<'_>,
    x: &[f64],
    delta: usize,
    seed: u64,
    params: &RoundingParams,
) -> RoundingOutcome {
    let g = inst.graph();
    let n = g.node_count();
    assert_eq!(x.len(), n, "fractional solution length mismatch");
    let ln_d1 = ((delta + 1) as f64).ln();
    // Line 2: independent random picks, one draw from each node's private
    // stream.
    let mut selected: Vec<bool> = g
        .nodes()
        .map(|v| node_rng(seed, v).random::<f64>() < (x[v.index()] * ln_d1).min(1.0))
        .collect();
    let initial_picks = selected.iter().filter(|&&b| b).count();
    // Coverage of the random picks: the deficits below, and the audit's
    // before-snapshot.
    let coverage = mask_coverage(g, &selected);
    let mut requested = vec![false; n];
    if params.repair {
        // Lines 4–6: all deficits are computed against the same snapshot
        // and all REQs are sent simultaneously.
        for v in g.nodes() {
            let covered = coverage[v.index()];
            let k = inst.demand(v);
            if covered >= k {
                continue;
            }
            let deficit = (k - covered) as usize;
            let zeros: Vec<NodeId> = g
                .closed_neighbors(v)
                .filter(|w| !selected[w.index()])
                .collect();
            for w in select_repair_targets(zeros, deficit) {
                requested[w.index()] = true;
            }
        }
    }
    // Line 7.
    let mut repair_picks = 0;
    for i in 0..n {
        if requested[i] && !selected[i] {
            selected[i] = true;
            repair_picks += 1;
        }
    }
    if cfg!(debug_assertions) {
        crate::audit::rounding_monotone(inst, &coverage, &selected, params.repair);
    }
    RoundingOutcome {
        set: DominatingSet::from_members(selected),
        initial_picks,
        repair_picks,
    }
}

/// Picks the `deficit` lowest-id repair targets from `zeros` (the
/// non-selected closed neighbors, self included, in any order). Shared by
/// engine and protocol.
pub(crate) fn select_repair_targets(mut zeros: Vec<NodeId>, deficit: usize) -> Vec<NodeId> {
    debug_assert!(
        zeros.len() >= deficit,
        "repair impossible: {} zeros for deficit {deficit} — instance was not validated",
        zeros.len()
    );
    zeros.sort_unstable();
    zeros.truncate(deficit);
    zeros
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractional::{solve_fractional, FractionalParams};
    use crate::validate::{is_k_dominating_instance, Semantics};
    use ftclust_graphs::generators;

    fn fractional_for(inst: &Instance<'_>, t: u32) -> (Vec<f64>, usize) {
        let sol = solve_fractional(inst, &FractionalParams::new(t)).unwrap();
        (sol.x, sol.delta)
    }

    #[test]
    fn always_feasible_with_repair() {
        for seed in 0..20 {
            let g = generators::gnp(60, 0.1, seed);
            let inst = Instance::uniform_clamped(&g, 2);
            let (x, delta) = fractional_for(&inst, 2);
            let out = round_fractional(&inst, &x, delta, seed, &RoundingParams::default());
            assert!(
                is_k_dominating_instance(&inst, &out.set, Semantics::CoverSelf),
                "infeasible at seed {seed}"
            );
            assert_eq!(out.set.len(), out.initial_picks + out.repair_picks);
        }
    }

    #[test]
    fn without_repair_sometimes_infeasible_but_smaller() {
        // Low-degree graph with a barely-feasible fractional solution:
        // p_i = 0.34·ln(3) ≈ 0.37, so some node misses coverage with
        // overwhelming probability over 30 nodes. The repair ablation must
        // expose this.
        let g = generators::cycle(30);
        let inst = Instance::uniform(&g, 1).unwrap();
        let x = vec![0.34; 30];
        let no_repair = RoundingParams { repair: false };
        let mut any_infeasible = false;
        for seed in 0..30 {
            let out = round_fractional(&inst, &x, 2, seed, &no_repair);
            assert_eq!(out.repair_picks, 0);
            if !is_k_dominating_instance(&inst, &out.set, Semantics::CoverSelf) {
                any_infeasible = true;
            }
            // ... and with repair the same seed is always feasible.
            let repaired = round_fractional(&inst, &x, 2, seed, &RoundingParams::default());
            assert!(is_k_dominating_instance(
                &inst,
                &repaired.set,
                Semantics::CoverSelf
            ));
        }
        assert!(
            any_infeasible,
            "repair-off should occasionally miss coverage"
        );
    }

    #[test]
    fn expected_size_tracks_theorem_4_6() {
        let g = generators::gnp(150, 0.06, 9);
        let inst = Instance::uniform_clamped(&g, 2);
        let (x, delta) = fractional_for(&inst, 3);
        let frac_value: f64 = x.iter().sum();
        let trials = 40;
        let mean: f64 = (0..trials)
            .map(|s| {
                round_fractional(&inst, &x, delta, s, &RoundingParams::default())
                    .set
                    .len() as f64
            })
            .sum::<f64>()
            / trials as f64;
        let ln_d1 = ((delta + 1) as f64).ln();
        // E[X] = ln(Δ+1)·Σx; E[Y] small. Allow wide statistical slack.
        assert!(
            mean <= ln_d1 * frac_value * 1.3 + 5.0,
            "mean {mean} vs ln(Δ+1)·Σx = {}",
            ln_d1 * frac_value
        );
        assert!(
            mean >= 0.3 * ln_d1.min(2.0) * frac_value,
            "mean suspiciously small: {mean}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::gnp(50, 0.1, 1);
        let inst = Instance::uniform_clamped(&g, 2);
        let (x, delta) = fractional_for(&inst, 2);
        let a = round_fractional(&inst, &x, delta, 3, &RoundingParams::default());
        let b = round_fractional(&inst, &x, delta, 3, &RoundingParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn saturated_fractional_selects_everything() {
        // x ≡ 1 and ln(Δ+1) ≥ 1 → p ≡ 1 → everyone joins.
        let g = generators::complete(6);
        let inst = Instance::uniform(&g, 1).unwrap();
        let x = vec![1.0; 6];
        let out = round_fractional(&inst, &x, 5, 0, &RoundingParams::default());
        assert_eq!(out.set.len(), 6);
        assert_eq!(out.repair_picks, 0);
    }

    #[test]
    fn zero_fractional_is_fully_repaired() {
        // x ≡ 0: nothing picked initially, repair must supply all demands.
        let g = generators::star(6);
        let inst = Instance::uniform_clamped(&g, 2);
        let out = round_fractional(&inst, &[0.0; 6], 5, 0, &RoundingParams::default());
        assert_eq!(out.initial_picks, 0);
        assert!(out.repair_picks > 0);
        assert!(is_k_dominating_instance(
            &inst,
            &out.set,
            Semantics::CoverSelf
        ));
    }

    #[test]
    fn isolated_nodes_self_select() {
        let g = generators::empty(3);
        let inst = Instance::uniform_clamped(&g, 1);
        let out = round_fractional(&inst, &[0.0; 3], 0, 1, &RoundingParams::default());
        assert_eq!(out.set.len(), 3, "isolated nodes must request themselves");
    }
}
