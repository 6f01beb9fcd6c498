//! A randomized distributed baseline in the spirit of Jia, Rajaraman &
//! Suel.
//!
//! The paper's only prior distributed k-MDS reference [9] achieves an
//! expected `O(log Δ)` approximation in `O(log n log Δ log k)` rounds
//! with a *local randomized greedy* (LRG) scheme. This module implements a
//! faithful-in-spirit variant for comparison (experiments E4/E11):
//!
//! * each round, every unselected node computes its **span** (number of
//!   still-deficient closed neighbors);
//! * nodes whose span is at least half the maximum span within their
//!   2-hop neighborhood become *candidates* (the LRG "locally near-best"
//!   rule, computed with two max-flooding exchanges);
//! * a candidate `u` joins with probability
//!   `min(1, max_{v ∈ N[u], r_v > 0} r_v / s_v)`, where `s_v` counts the
//!   candidates able to cover `v` — so each deficient node receives about
//!   `r_v` new dominators in expectation, mirroring LRG's
//!   density-balanced selection;
//! * if a round selects nobody while demands remain, the lowest-id
//!   candidate is forced in (a deterministic tie-breaker that keeps the
//!   variant live without changing its behaviour on non-degenerate
//!   rounds).
//!
//! Deviations from [9] (documented for honest comparison): we use the
//! closed-neighborhood covering semantics of `(PP)`, a single candidate
//! threshold of 1/2 instead of LRG's scaling classes, and the forced
//! tie-breaker. Round counts are reported as *synchronous rounds* where
//! one LRG iteration costs 5 message exchanges (span, two max-floods,
//! candidacy density, join announcements).

use crate::validate::Semantics;
use crate::{DominatingSet, Instance};
use ftclust_netsim::node_rng;
use rand::Rng;

/// Messages exchanged per LRG iteration (for round accounting).
const EXCHANGES_PER_ITERATION: u64 = 5;

/// Result of the JRS-style baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct JrsOutcome {
    /// The computed k-fold dominating set.
    pub set: DominatingSet,
    /// LRG iterations used.
    pub iterations: u64,
    /// Equivalent synchronous message-passing rounds
    /// (`5 × iterations`).
    pub rounds: u64,
}

/// Runs the JRS-style local randomized greedy baseline: each round,
/// nodes whose span (still-deficient closed neighbours) is at least half
/// the 2-hop maximum become candidates, and each candidate joins with a
/// probability balanced against its neighbours' residual demands.
///
/// Deterministic given `seed` (per-node random streams).
pub fn jrs_kmds(inst: &Instance<'_>, semantics: Semantics, seed: u64) -> JrsOutcome {
    let g = inst.graph();
    let n = g.node_count();
    let mut residual: Vec<i64> = inst.demands().iter().map(|&k| k as i64).collect();
    let mut in_set = vec![false; n];
    let mut rngs: Vec<_> = g.nodes().map(|v| node_rng(seed, v)).collect();
    let mut iterations = 0u64;

    loop {
        let deficient: Vec<bool> = residual.iter().map(|&r| r > 0).collect();
        if !deficient.iter().any(|&d| d) {
            break;
        }
        iterations += 1;
        // Span of each unselected node.
        let span: Vec<i64> = g
            .nodes()
            .map(|v| {
                if in_set[v.index()] {
                    0
                } else {
                    g.closed_neighbors(v)
                        .filter(|w| deficient[w.index()])
                        .count() as i64
                }
            })
            .collect();
        // Two max-flood exchanges give the 2-hop maximum span.
        let hop1: Vec<i64> = g
            .nodes()
            .map(|v| {
                g.closed_neighbors(v)
                    .map(|w| span[w.index()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let hop2: Vec<i64> = g
            .nodes()
            .map(|v| {
                g.closed_neighbors(v)
                    .map(|w| hop1[w.index()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let candidate: Vec<bool> = (0..n)
            .map(|i| span[i] > 0 && 2 * span[i] >= hop2[i])
            .collect();
        // Candidate supply per deficient node.
        let supply: Vec<i64> = g
            .nodes()
            .map(|v| {
                g.closed_neighbors(v)
                    .filter(|w| candidate[w.index()])
                    .count() as i64
            })
            .collect();
        // Randomized joins.
        let mut joined_any = false;
        let mut joined = vec![false; n];
        for v in g.nodes() {
            let i = v.index();
            if !candidate[i] {
                continue;
            }
            let p = g
                .closed_neighbors(v)
                .filter(|w| deficient[w.index()] && supply[w.index()] > 0)
                .map(|w| residual[w.index()] as f64 / supply[w.index()] as f64)
                .fold(0.0f64, f64::max)
                .min(1.0);
            if rngs[i].random::<f64>() < p {
                joined[i] = true;
                joined_any = true;
            }
        }
        if !joined_any {
            // Force the lowest-id candidate to keep the variant live.
            let Some(forced) = (0..n).find(|&i| candidate[i]) else {
                unreachable!("a deficient node always has a candidate in its closed neighborhood");
            };
            joined[forced] = true;
        }
        for v in g.nodes() {
            let i = v.index();
            if !joined[i] || in_set[i] {
                continue;
            }
            in_set[i] = true;
            for w in g.closed_neighbors(v) {
                if residual[w.index()] > 0 {
                    residual[w.index()] -= 1;
                }
            }
            if semantics == Semantics::Strict {
                residual[i] = 0;
            }
        }
    }
    JrsOutcome {
        set: DominatingSet::from_members(in_set),
        iterations,
        rounds: iterations * EXCHANGES_PER_ITERATION,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::greedy_kmds;
    use crate::validate::is_k_dominating_instance;
    use ftclust_graphs::generators;

    #[test]
    fn feasible_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::gnp(70, 0.12, seed);
            let inst = Instance::uniform_clamped(&g, 2);
            for sem in [Semantics::CoverSelf, Semantics::Strict] {
                let out = jrs_kmds(&inst, sem, seed);
                assert!(
                    is_k_dominating_instance(&inst, &out.set, sem),
                    "seed {seed}"
                );
                assert!(out.iterations >= 1);
                assert_eq!(out.rounds, out.iterations * 5);
            }
        }
    }

    #[test]
    fn iteration_count_is_polylogarithmic_in_practice() {
        let g = generators::gnp(400, 0.03, 7);
        let inst = Instance::uniform_clamped(&g, 2);
        let out = jrs_kmds(&inst, Semantics::CoverSelf, 3);
        assert!(
            out.iterations <= 60,
            "LRG-style convergence too slow: {} iterations",
            out.iterations
        );
    }

    #[test]
    fn quality_is_within_log_factor_of_greedy() {
        let g = generators::gnp(200, 0.06, 11);
        let inst = Instance::uniform_clamped(&g, 2);
        let jrs = jrs_kmds(&inst, Semantics::CoverSelf, 1);
        let greedy = greedy_kmds(&inst, Semantics::CoverSelf);
        let ratio = jrs.set.len() as f64 / greedy.len() as f64;
        assert!(ratio < 4.0, "JRS-style output {ratio}× greedy");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::gnp(60, 0.1, 2);
        let inst = Instance::uniform_clamped(&g, 2);
        assert_eq!(
            jrs_kmds(&inst, Semantics::CoverSelf, 5),
            jrs_kmds(&inst, Semantics::CoverSelf, 5)
        );
    }

    #[test]
    fn zero_demand_is_instant() {
        let g = generators::path(5);
        let inst = Instance::with_demands(&g, vec![0; 5]).unwrap();
        let out = jrs_kmds(&inst, Semantics::CoverSelf, 0);
        assert_eq!(out.iterations, 0);
        assert!(out.set.is_empty());
    }
}
