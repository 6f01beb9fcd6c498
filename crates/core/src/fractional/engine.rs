//! In-memory engine for Algorithm 1.
//!
//! Executes exactly the per-round mathematics of the pseudocode on the
//! adjacency structure, without simulator overhead. The message-passing
//! implementation in [`super::protocol`] performs the same floating-point
//! operations in the same order, so both produce bit-identical results.
//!
//! The engine is a serial reference: tests compare the protocol against
//! it and the benchmark computes its reference set with it, outside any
//! timed part. Each phase is one plain loop over the nodes in id order.

use super::{DeltaKnowledge, FractionalParams, FractionalSolution};
use crate::validate::mask_coverage;
use crate::{Instance, KmdsError};

/// Tolerance for "x has reached its cap of 1".
const X_EPS: f64 = 1e-12;
/// Tolerance when comparing the integral dynamic degree to the fractional
/// threshold `(Δ+1)^{p/t}`.
const THRESH_EPS: f64 = 1e-9;
/// Tolerance for the coverage test `c_i ≥ k_i`.
const COV_EPS: f64 = 1e-9;

/// Mutable per-run state of Algorithm 1.
#[derive(Debug)]
struct AlgoState {
    x: Vec<f64>,
    xplus: Vec<f64>,
    cov: Vec<f64>,
    white: Vec<bool>,
    dyndeg: Vec<u32>,
    /// `α_{j,i}` stored at observing node `i` in slot `(i → j)`.
    alpha: Vec<f64>,
    alpha_self: Vec<f64>,
    /// `β_{j,i}`, same layout.
    beta: Vec<f64>,
    beta_self: Vec<f64>,
    y: Vec<f64>,
}

impl AlgoState {
    fn new(inst: &Instance<'_>) -> Self {
        let g = inst.graph();
        let n = g.node_count();
        // Nodes with zero demand are covered from the start: they are gray
        // immediately ("colored gray as soon as completely covered").
        let white = inst.demands().iter().map(|&d| d > 0).collect();
        let mut state = AlgoState {
            x: vec![0.0; n],
            xplus: vec![0.0; n],
            cov: vec![0.0; n],
            white,
            dyndeg: vec![0; n],
            alpha: vec![0.0; g.slot_count()],
            alpha_self: vec![0.0; n],
            beta: vec![0.0; g.slot_count()],
            beta_self: vec![0.0; n],
            y: vec![0.0; n],
        };
        state.recompute_dyndeg(inst);
        state
    }

    /// Lines 5–9 of inner iteration `q`: simultaneous raises against the
    /// dynamic degrees of the previous exchange.
    fn raise(&mut self, d1: &[f64], threshold: &[f64], q: u32, t: u32) {
        for (i, (x, xp)) in self.x.iter_mut().zip(&mut self.xplus).enumerate() {
            let inc = d1[i].powf(-(q as f64) / t as f64);
            *xp = raise_at(x, self.dyndeg[i], threshold[i], inc);
        }
    }

    /// Lines 10–22: dual accounting at white nodes, using the raises just
    /// exchanged. A node reads only its own white bit here, so it may turn
    /// gray in place.
    fn account_white(&mut self, inst: &Instance<'_>, threshold: &[f64]) {
        let g = inst.graph();
        let AlgoState {
            xplus,
            cov,
            white,
            alpha,
            alpha_self,
            beta,
            beta_self,
            y,
            ..
        } = self;
        let xplus = &xplus[..];
        let (alpha, beta) = (&mut alpha[..], &mut beta[..]);
        for v in g.nodes() {
            let i = v.index();
            if !white[i] {
                continue;
            }
            let mut cplus = xplus[i];
            for &w in g.neighbors(v) {
                cplus += xplus[w.index()];
            }
            let slot_start = g.slot_range(v).start;
            let turned_gray = account(
                inst.demand(v) as f64,
                threshold[i],
                &mut cov[i],
                cplus,
                xplus[i],
                &mut alpha_self[i],
                &mut beta_self[i],
                g.neighbors(v).iter().map(|&w| xplus[w.index()]),
                |o, da, db| {
                    alpha[slot_start + o] += da;
                    beta[slot_start + o] += db;
                },
            );
            if let Some(yv) = turned_gray {
                white[i] = false;
                y[i] = yv;
            }
        }
    }

    /// Lines 23–24: exchange colors, recompute dynamic degrees.
    fn recompute_dyndeg(&mut self, inst: &Instance<'_>) {
        self.dyndeg = mask_coverage(inst.graph(), &self.white);
    }
}

/// The raise step of inner iteration `(p, q)` at a single node
/// (lines 5–8 of the pseudocode), operating on the node's own `x` cell.
/// Returns `x_i^+`.
fn raise_at(x: &mut f64, dyndeg: u32, threshold: f64, inc: f64) -> f64 {
    if *x < 1.0 - X_EPS && (dyndeg as f64) >= threshold - THRESH_EPS {
        let xp = inc.min(1.0 - *x);
        *x += xp;
        if *x > 1.0 - X_EPS {
            *x = 1.0;
        }
        xp
    } else {
        0.0
    }
}

/// The dual-accounting arithmetic at a white node (lines 10–22), shared by
/// the engine and the protocol so both perform identical floating-point
/// operations in identical order. `cplus` must be `Σ_{j ∈ N[i]} x_j^+`
/// summed self-first then neighbors in ascending id order; `neighbor_xplus`
/// yields the neighbor raises in that same order, and `account` returns
/// `(lambda, turned_gray, y)` while writing the per-neighbor `α, β`
/// increments through the `sink` callback (called once per neighbor, in
/// order, with the increment pair).
#[allow(clippy::too_many_arguments)]
pub(crate) fn account(
    k_i: f64,
    threshold: f64,
    cov: &mut f64,
    cplus: f64,
    my_xplus: f64,
    alpha_self: &mut f64,
    beta_self: &mut f64,
    neighbor_xplus: impl Iterator<Item = f64>,
    mut sink: impl FnMut(usize, f64, f64),
) -> Option<f64> {
    let lambda = if cplus > 0.0 {
        1.0f64.min((k_i - *cov) / cplus)
    } else {
        1.0
    };
    *cov += cplus;
    *alpha_self += lambda * my_xplus;
    *beta_self += lambda * my_xplus / threshold;
    for (o, xp) in neighbor_xplus.enumerate() {
        sink(o, lambda * xp, lambda * xp / threshold);
    }
    if *cov >= k_i - COV_EPS {
        Some(1.0 / threshold) // the node turns gray and fixes y = (Δ+1)^{-p/t}
    } else {
        None
    }
}

/// Runs **Algorithm 1** on `inst` and returns the fractional solution with
/// its dual certificate.
///
/// Deterministic: Algorithm 1 uses no randomness.
///
/// # Errors
///
/// Currently infallible for validated instances (the `Result` mirrors the
/// protocol-based API); returns an error only for internal-limit breaches.
///
/// # Example
///
/// See the [module docs](super).
pub fn solve_fractional(
    inst: &Instance<'_>,
    params: &FractionalParams,
) -> Result<FractionalSolution, KmdsError> {
    let g = inst.graph();
    let n = g.node_count();
    let t = params.t;
    let delta = params.resolve_delta(inst);
    // Per-node degree knowledge: global Δ, or the 2-hop maximum degree
    // (the unknown-Δ variant of the Section 4.2 remark).
    let d1: Vec<f64> = match params.knowledge {
        DeltaKnowledge::Global => vec![(delta + 1) as f64; n],
        DeltaKnowledge::TwoHopMax => {
            let closed_max = |of: &[usize]| -> Vec<usize> {
                g.nodes()
                    .map(|v| {
                        g.closed_neighbors(v)
                            .map(|w| of[w.index()])
                            .max()
                            .unwrap_or(0)
                    })
                    .collect()
            };
            let deg: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
            let hop2 = closed_max(&closed_max(&deg));
            hop2.into_iter().map(|m| (m + 1) as f64).collect()
        }
    };
    let mut st = AlgoState::new(inst);
    let mut lemma41_violations = 0u64;
    let mut threshold = vec![0.0f64; n];

    for p in (0..t).rev() {
        for (th, d) in threshold.iter_mut().zip(&d1) {
            *th = d.powf(p as f64 / t as f64);
        }
        // Lemma 4.1, measured: entering outer iteration p (for p < t−1),
        // every node with x_i < 1 has δ̃_i ≤ (Δ_i+1)^{(p+1)/t}. (Stated by
        // the paper for global Δ; measured for whichever knowledge model
        // is in use.)
        if p + 1 < t {
            for (i, d) in d1.iter().enumerate() {
                let bound = d.powf((p + 1) as f64 / t as f64);
                if st.x[i] < 1.0 - X_EPS && (st.dyndeg[i] as f64) > bound + THRESH_EPS {
                    lemma41_violations += 1;
                }
            }
        }
        for q in (0..t).rev() {
            st.raise(&d1, &threshold, q, t);
            st.account_white(inst, &threshold);
            st.recompute_dyndeg(inst);
            if cfg!(debug_assertions) {
                crate::audit::fractional_state(&st.x, &st.xplus, &st.cov);
            }
        }
    }

    // Line 27: z_i = Σ_{j ∈ N[i]} (α_{i,j} y_j − β_{i,j}), where α_{i,j}
    // lives at node j in the reverse slot of (i → j).
    let rev = g.reverse_slots();
    let z: Vec<f64> = g
        .nodes()
        .map(|v| {
            let i = v.index();
            let mut zi = st.alpha_self[i] * st.y[i] - st.beta_self[i];
            for (o, &w) in g.neighbors(v).iter().enumerate() {
                let rs = rev[g.slot_range(v).start + o] as usize;
                zi += st.alpha[rs] * st.y[w.index()] - st.beta[rs];
            }
            zi
        })
        .collect();

    // Dual scaling: Lemma 4.4's κ under global knowledge; the measured
    // violation factor under the unknown-Δ variant (where the lemma's
    // proof does not apply, but weak duality with the measured factor
    // still certifies a valid lower bound).
    let kappa = match params.knowledge {
        DeltaKnowledge::Global => t as f64 * ((delta + 1) as f64).powf(1.0 / t as f64),
        DeltaKnowledge::TwoHopMax => g
            .nodes()
            .map(|v| {
                let colsum: f64 = g.closed_neighbors(v).map(|w| st.y[w.index()]).sum();
                colsum - z[v.index()]
            })
            .fold(1.0f64, f64::max),
    };
    let dual_raw: f64 = (0..n)
        .map(|i| inst.demands()[i] as f64 * st.y[i] - z[i])
        .sum();
    let value: f64 = st.x.iter().sum();
    let sol = FractionalSolution {
        x: st.x,
        y: st.y,
        z,
        kappa,
        lower_bound: (dual_raw / kappa).max(0.0),
        value,
        t,
        delta,
        lemma41_violations,
    };
    if cfg!(debug_assertions) {
        crate::audit::fractional_certificate(inst, &sol);
    }
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclust_graphs::generators;
    use ftclust_lp::solve as lp_solve;

    fn check_all(inst: &Instance<'_>, t: u32) -> FractionalSolution {
        let sol = solve_fractional(inst, &FractionalParams::new(t)).unwrap();
        assert!(
            sol.is_primal_feasible(inst, 1e-7),
            "primal infeasible (t={t})"
        );
        assert!(
            sol.is_scaled_dual_feasible(inst, 1e-7),
            "scaled dual infeasible (t={t}) — Lemma 4.4 violated"
        );
        assert_eq!(sol.lemma41_violations, 0, "Lemma 4.1 violated");
        // Weak duality sanity: the certified bound is consistent.
        assert!(sol.lower_bound >= -1e-9);
        assert!(sol.value >= sol.lower_bound - 1e-7);
        sol
    }

    #[test]
    fn feasible_on_standard_families() {
        for (g, k) in [
            (generators::cycle(12), 2u32),
            (generators::star(10), 1),
            (generators::complete(8), 4),
            (generators::gnp(60, 0.15, 3), 2),
            (generators::grid_2d(6, 5), 3),
            (generators::path(9), 1),
        ] {
            let inst = Instance::uniform_clamped(&g, k);
            for t in [1, 2, 4] {
                check_all(&inst, t);
            }
        }
    }

    #[test]
    fn certified_ratio_within_theorem_4_5() {
        for seed in 0..5 {
            let g = generators::gnp(80, 0.1, seed);
            let inst = Instance::uniform_clamped(&g, 2);
            for t in [1, 2, 3, 5] {
                let sol = check_all(&inst, t);
                if sol.lower_bound > 0.0 {
                    let ratio = sol.value / sol.lower_bound;
                    assert!(
                        ratio <= sol.theorem_4_5_bound() + 1e-6,
                        "ratio {ratio} exceeds bound {} (t={t}, seed={seed})",
                        sol.theorem_4_5_bound()
                    );
                }
            }
        }
    }

    #[test]
    fn tightened_lower_bound_is_valid_and_tighter() {
        let g = generators::gnp(60, 0.12, 4);
        let inst = Instance::uniform_clamped(&g, 2);
        let opt = lp_solve(&inst.to_lp()).unwrap().value;
        for t in [1, 2, 4] {
            let sol = solve_fractional(&inst, &FractionalParams::new(t)).unwrap();
            let tight = sol.tightened_lower_bound(&inst);
            assert!(
                tight <= opt + 1e-6,
                "tightened bound {tight} exceeds OPT {opt}"
            );
            assert!(
                tight >= sol.lower_bound - 1e-9,
                "tightened bound {tight} worse than κ-scaled {}",
                sol.lower_bound
            );
        }
    }

    #[test]
    fn ratio_against_exact_lp_within_bound() {
        let g = generators::gnp(40, 0.15, 7);
        let inst = Instance::uniform_clamped(&g, 2);
        let opt = lp_solve(&inst.to_lp()).unwrap().value;
        for t in [1, 2, 4, 6] {
            let sol = check_all(&inst, t);
            assert!(sol.value >= opt - 1e-7, "cannot beat the optimum");
            assert!(
                sol.value <= sol.theorem_4_5_bound() * opt + 1e-6,
                "value {} vs bound·OPT {}",
                sol.value,
                sol.theorem_4_5_bound() * opt
            );
            // The certified lower bound is indeed a lower bound on OPT.
            assert!(sol.lower_bound <= opt + 1e-6);
        }
    }

    #[test]
    fn larger_t_gives_no_worse_guarantee_in_practice() {
        // Not a theorem, but on benign instances the measured value should
        // broadly improve with t; we assert a weak monotonicity (t=6 beats
        // t=1 by some margin) to catch gross regressions.
        let g = generators::gnp(100, 0.08, 11);
        let inst = Instance::uniform_clamped(&g, 1);
        let v1 = check_all(&inst, 1).value;
        let v6 = check_all(&inst, 6).value;
        assert!(
            v6 <= v1 * 1.05 + 1.0,
            "t=6 value {v6} much worse than t=1 value {v1}"
        );
    }

    #[test]
    fn per_node_demands_are_respected() {
        let g = generators::complete(6);
        let inst = Instance::with_demands(&g, vec![0, 1, 2, 3, 4, 5]).unwrap();
        let sol = check_all(&inst, 3);
        // The hardest demand is 5: total mass in every closed neighborhood
        // (= everything, K_6) must be ≥ 5.
        assert!(sol.value >= 5.0 - 1e-7);
    }

    #[test]
    fn zero_demand_nodes_do_not_force_mass() {
        let g = generators::empty(5);
        let inst = Instance::with_demands(&g, vec![0, 0, 0, 0, 0]).unwrap();
        let sol = check_all(&inst, 2);
        assert_eq!(sol.value, 0.0);
        // Isolated nodes with demand 1 must self-cover.
        let inst = Instance::with_demands(&g, vec![1, 0, 1, 0, 0]).unwrap();
        let sol = check_all(&inst, 2);
        assert!((sol.value - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = generators::empty(0);
        let inst = Instance::uniform(&g, 1).unwrap();
        let sol = solve_fractional(&inst, &FractionalParams::new(2)).unwrap();
        assert_eq!(sol.value, 0.0);
        assert!(sol.x.is_empty());
    }

    #[test]
    fn deterministic() {
        let g = generators::gnp(50, 0.12, 5);
        let inst = Instance::uniform_clamped(&g, 2);
        let a = solve_fractional(&inst, &FractionalParams::new(3)).unwrap();
        let b = solve_fractional(&inst, &FractionalParams::new(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn delta_hint_overestimate_stays_feasible() {
        let g = generators::cycle(10);
        let inst = Instance::uniform(&g, 1).unwrap();
        let sol = solve_fractional(&inst, &FractionalParams::new(3).with_delta_hint(50)).unwrap();
        assert!(sol.is_primal_feasible(&inst, 1e-7));
        assert_eq!(sol.delta, 50);
    }

    #[test]
    fn two_hop_max_variant_is_feasible_with_valid_certificates() {
        for (g, k) in [
            (generators::gnp(60, 0.12, 3), 2u32),
            (generators::barabasi_albert(60, 2, 4), 1),
            (generators::star(20), 1),
        ] {
            let inst = Instance::uniform_clamped(&g, k);
            let opt = lp_solve(&inst.to_lp()).unwrap().value;
            for t in [1, 3] {
                let sol = solve_fractional(&inst, &FractionalParams::new(t).without_global_delta())
                    .unwrap();
                assert!(sol.is_primal_feasible(&inst, 1e-7));
                // The measured-factor dual is feasible by construction...
                assert!(sol.is_scaled_dual_feasible(&inst, 1e-7));
                // ...so the lower bound is still valid against exact OPT.
                assert!(sol.lower_bound <= opt + 1e-6);
                assert!(sol.value >= opt - 1e-6);
            }
        }
    }

    #[test]
    fn two_hop_max_tracks_global_on_regular_graphs() {
        // On a cycle the 2-hop max equals the global Δ, so both
        // knowledge models produce the same solution.
        let g = generators::cycle(24);
        let inst = Instance::uniform(&g, 1).unwrap();
        let global = solve_fractional(&inst, &FractionalParams::new(3)).unwrap();
        let local =
            solve_fractional(&inst, &FractionalParams::new(3).without_global_delta()).unwrap();
        assert_eq!(global.x, local.x);
    }

    #[test]
    fn k_equals_closed_neighborhood_forces_everything() {
        // Cycle with k = 3 = |N[v]|: the unique solution is x ≡ 1.
        let g = generators::cycle(7);
        let inst = Instance::uniform(&g, 3).unwrap();
        let sol = check_all(&inst, 2);
        assert!((sol.value - 7.0).abs() < 1e-9);
        assert!(sol.x.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }
}
