//! Exact dense two-phase simplex for covering LPs with box constraints.
//!
//! The instance
//!
//! ```text
//!     min c·x   s.t.  A x ≥ b,  0 ≤ x ≤ u
//! ```
//!
//! is brought into equality form with surplus variables `s` (covering rows
//! `A x − s = b`) and slack variables `w` (bound rows `x_j + w_j = u_j`),
//! plus one artificial variable per covering row for the phase-1 basis.
//! Bland's rule is used throughout, so the method terminates even on
//! degenerate instances (which k-domination LPs on symmetric graphs
//! frequently are).
//!
//! Intended for the experiment scales where an exact LP optimum is wanted
//! (hundreds of nodes); beyond the size budget [`solve`] returns
//! [`LpError::TooLarge`] and callers fall back to dual certificates.

use crate::{CoveringLp, LpError, LpSolution};

const PIVOT_TOL: f64 = 1e-9;
const FEAS_TOL: f64 = 1e-7;
/// Maximum number of tableau cells the dense solver will allocate.
const MAX_CELLS: usize = 64_000_000;

struct Tableau {
    /// `rows × (cols + 1)` matrix, last column is the RHS.
    t: Vec<Vec<f64>>,
    /// Reduced-cost row, length `cols + 1` (last entry = −objective).
    obj: Vec<f64>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    cols: usize,
}

impl Tableau {
    fn rhs(&self, row: usize) -> f64 {
        self.t[row][self.cols]
    }

    /// Gauss–Jordan pivot on (`pr`, `pc`).
    fn pivot(&mut self, pr: usize, pc: usize) {
        let piv = self.t[pr][pc];
        debug_assert!(piv.abs() > PIVOT_TOL, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        for v in &mut self.t[pr] {
            *v *= inv;
        }
        let pivot_row = self.t[pr].clone();
        for (r, row) in self.t.iter_mut().enumerate() {
            if r == pr {
                continue;
            }
            let factor = row[pc];
            if factor != 0.0 {
                // lint: float-eq — exact: skip rows the pivot cannot change
                for (v, p) in row.iter_mut().zip(&pivot_row) {
                    *v -= factor * p;
                }
                row[pc] = 0.0; // exact zero against drift
            }
        }
        let factor = self.obj[pc];
        if factor != 0.0 {
            // lint: float-eq — exact: skip an unchanged objective row
            for (v, p) in self.obj.iter_mut().zip(&pivot_row) {
                *v -= factor * p;
            }
            self.obj[pc] = 0.0;
        }
        self.basis[pr] = pc;
    }

    /// Runs simplex iterations until optimality.
    ///
    /// Pricing: Dantzig's rule (most negative reduced cost) for speed,
    /// switching to Bland's rule (guaranteed anti-cycling) after a run of
    /// degenerate pivots, and back once the objective moves — the standard
    /// hybrid that is fast on the highly degenerate k-domination LPs while
    /// remaining provably terminating. `allowed` limits which columns may
    /// enter.
    fn optimize(&mut self, allowed: &dyn Fn(usize) -> bool) -> Result<(), LpError> {
        const DEGENERATE_LIMIT: u32 = 64;
        let mut degenerate_run: u32 = 0;
        loop {
            let bland = degenerate_run >= DEGENERATE_LIMIT;
            let pc = if bland {
                (0..self.cols).find(|&j| allowed(j) && self.obj[j] < -PIVOT_TOL)
            } else {
                let mut best: Option<(f64, usize)> = None;
                for j in 0..self.cols {
                    if allowed(j)
                        && self.obj[j] < -PIVOT_TOL
                        && best.is_none_or(|(v, _)| self.obj[j] < v)
                    {
                        best = Some((self.obj[j], j));
                    }
                }
                best.map(|(_, j)| j)
            };
            let Some(pc) = pc else {
                return Ok(());
            };
            // Leaving: min ratio, ties by smallest basis index (Bland).
            let mut best: Option<(f64, usize, usize)> = None; // (ratio, basis, row)
            for r in 0..self.t.len() {
                let a = self.t[r][pc];
                if a > PIVOT_TOL {
                    let ratio = self.rhs(r) / a;
                    let key = (ratio, self.basis[r]);
                    if best.is_none_or(|(br, bb, _)| key < (br, bb)) {
                        best = Some((ratio, self.basis[r], r));
                    }
                }
            }
            let Some((ratio, _, pr)) = best else {
                return Err(LpError::Unbounded);
            };
            if ratio <= PIVOT_TOL {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }
            self.pivot(pr, pc);
        }
    }
}

/// Solves the covering LP exactly with a dense two-phase simplex.
///
/// # Errors
///
/// * [`LpError::Infeasible`] if no assignment satisfies all constraints
///   within the box,
/// * [`LpError::TooLarge`] if the dense tableau would exceed the size
///   budget (≈ 64 M cells),
/// * [`LpError::Unbounded`] defensively (cannot occur for non-negative
///   objectives).
///
/// # Example
///
/// ```
/// use ftclust_lp::{CoveringLp, solve};
///
/// // Path a–b–c with 2-coverage demands (closed neighborhoods):
/// //   x_a + x_b ≥ 2, x_a + x_b + x_c ≥ 2, x_b + x_c ≥ 2, x ≤ 1.
/// let mut lp = CoveringLp::new(3);
/// lp.add_constraint(vec![(0, 1.0), (1, 1.0)], 2.0)?;
/// lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], 2.0)?;
/// lp.add_constraint(vec![(1, 1.0), (2, 1.0)], 2.0)?;
/// let sol = solve(&lp)?;
/// assert!((sol.value - 3.0).abs() < 1e-7); // x = (1, 1, 1) is optimal
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve(lp: &CoveringLp) -> Result<LpSolution, LpError> {
    let n = lp.num_vars();
    let m = lp.num_constraints();
    let rows = m + n;
    // Columns: x (n) | surplus (m) | bound slack (n) | artificial (m).
    let cols = n + m + n + m;
    if rows.saturating_mul(cols + 1) > MAX_CELLS {
        return Err(LpError::TooLarge { rows, cols });
    }
    let sur0 = n;
    let slack0 = n + m;
    let art0 = n + m + n;

    let mut t = vec![vec![0.0f64; cols + 1]; rows];
    let mut basis = vec![0usize; rows];
    // Covering rows: A x − s + a = b, artificial basic.
    for i in 0..m {
        for &(j, a) in lp.row(i) {
            t[i][j] += a;
        }
        t[i][sur0 + i] = -1.0;
        t[i][art0 + i] = 1.0;
        t[i][cols] = lp.rhs(i);
        basis[i] = art0 + i;
    }
    // Bound rows: x_j + w_j = u_j, slack basic.
    for j in 0..n {
        let r = m + j;
        t[r][j] = 1.0;
        t[r][slack0 + j] = 1.0;
        t[r][cols] = lp.upper_bounds()[j];
        basis[r] = slack0 + j;
    }
    // Phase 1 objective: minimize Σ artificials. Price out the basic
    // artificials: reduced costs = −Σ covering rows (non-artificial cols).
    let mut obj = vec![0.0f64; cols + 1];
    for row in t.iter().take(m) {
        for (o, v) in obj.iter_mut().zip(row) {
            *o -= v;
        }
    }
    for i in 0..m {
        obj[art0 + i] = 0.0;
    }
    let mut tab = Tableau {
        t,
        obj,
        basis,
        cols,
    };
    tab.optimize(&|_| true)?;
    let phase1 = -tab.obj[cols];
    if phase1 > FEAS_TOL {
        return Err(LpError::Infeasible);
    }
    // Drive remaining basic artificials out (they sit at value 0), then
    // drop redundant rows.
    let mut r = 0;
    while r < tab.t.len() {
        if tab.basis[r] >= art0 {
            if let Some(pc) = (0..art0).find(|&j| tab.t[r][j].abs() > PIVOT_TOL) {
                tab.pivot(r, pc);
                r += 1;
            } else {
                // Redundant constraint: remove the row.
                tab.t.remove(r);
                tab.basis.remove(r);
            }
        } else {
            r += 1;
        }
    }
    // Phase 2: real objective (x variables only; surplus/slack cost 0).
    let mut obj = vec![0.0f64; cols + 1];
    obj[..n].copy_from_slice(lp.objective());
    tab.obj = obj;
    // Price out basic variables with nonzero cost.
    for r in 0..tab.t.len() {
        let b = tab.basis[r];
        if b < n && lp.objective()[b] != 0.0 {
            // lint: float-eq — exact: basic columns with zero cost need no correction
            let c = lp.objective()[b];
            let row = tab.t[r].clone();
            for (v, p) in tab.obj.iter_mut().zip(&row) {
                *v -= c * p;
            }
        }
    }
    tab.optimize(&|j| j < art0)?;
    // Extract the primal solution.
    let mut x = vec![0.0f64; n];
    for r in 0..tab.t.len() {
        if tab.basis[r] < n {
            x[tab.basis[r]] = tab.rhs(r).max(0.0);
        }
    }
    let value = lp.value(&x);
    debug_assert!(
        lp.is_feasible(&x, 1e-6),
        "simplex returned an infeasible point (violation {})",
        lp.max_violation(&x)
    );
    Ok(LpSolution { x, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp_from(rows: &[(&[(usize, f64)], f64)], n: usize) -> CoveringLp {
        let mut lp = CoveringLp::new(n);
        for (entries, rhs) in rows {
            lp.add_constraint(entries.to_vec(), *rhs).unwrap();
        }
        lp
    }

    #[test]
    fn single_variable() {
        let lp = lp_from(&[(&[(0, 1.0)], 0.5)], 1);
        let sol = solve(&lp).unwrap();
        assert!((sol.value - 0.5).abs() < 1e-9);
        assert!((sol.x[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn no_constraints_gives_zero() {
        let lp = CoveringLp::new(3);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.value, 0.0);
        assert_eq!(sol.x, vec![0.0; 3]);
    }

    #[test]
    fn infeasible_demand_detected() {
        // x0 <= 1 but needs >= 2.
        let lp = lp_from(&[(&[(0, 1.0)], 2.0)], 1);
        assert_eq!(solve(&lp), Err(LpError::Infeasible));
    }

    #[test]
    fn upper_bounds_bind() {
        // min x0 + x1: x0 + x1 >= 1.6 with x <= 1 forces both up.
        let lp = lp_from(&[(&[(0, 1.0), (1, 1.0)], 1.6)], 2);
        let sol = solve(&lp).unwrap();
        assert!((sol.value - 1.6).abs() < 1e-9);
        assert!(sol.x.iter().all(|&v| v <= 1.0 + 1e-9));
    }

    #[test]
    fn objective_weights_respected() {
        // Covering either variable; the cheap one should be used.
        let mut lp = lp_from(&[(&[(0, 1.0), (1, 1.0)], 1.0)], 2);
        lp.set_objective(0, 10.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.value - 1.0).abs() < 1e-9);
        assert!(sol.x[0] < 1e-9);
        assert!((sol.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn path_with_k2_demands() {
        // LP of the doc example; optimum 3 (every x at its cap).
        let lp = lp_from(
            &[
                (&[(0, 1.0), (1, 1.0)], 2.0),
                (&[(0, 1.0), (1, 1.0), (2, 1.0)], 2.0),
                (&[(1, 1.0), (2, 1.0)], 2.0),
            ],
            3,
        );
        let sol = solve(&lp).unwrap();
        assert!((sol.value - 3.0).abs() < 1e-7);
    }

    #[test]
    fn path_without_caps_prefers_center() {
        // Same rows but with upper bounds of 5: put weight 2 on the center.
        let mut lp = lp_from(
            &[
                (&[(0, 1.0), (1, 1.0)], 2.0),
                (&[(0, 1.0), (1, 1.0), (2, 1.0)], 2.0),
                (&[(1, 1.0), (2, 1.0)], 2.0),
            ],
            3,
        );
        for j in 0..3 {
            lp.set_upper_bound(j, 5.0).unwrap();
        }
        let sol = solve(&lp).unwrap();
        assert!((sol.value - 2.0).abs() < 1e-7, "value = {}", sol.value);
    }

    #[test]
    fn cycle_domination_lp_is_n_over_3() {
        // C_9, k = 1: every closed neighborhood has 3 nodes; LP optimum is
        // 9/3 = 3 (all x = 1/3).
        let n = 9usize;
        let mut lp = CoveringLp::new(n);
        for i in 0..n {
            let entries = vec![((i + n - 1) % n, 1.0), (i, 1.0), ((i + 1) % n, 1.0)];
            lp.add_constraint(entries, 1.0).unwrap();
        }
        let sol = solve(&lp).unwrap();
        assert!((sol.value - 3.0).abs() < 1e-7, "value = {}", sol.value);
    }

    #[test]
    fn complete_graph_kfold_lp_is_k() {
        // K_5 with k = 3: single repeated constraint Σ x >= 3.
        let mut lp = CoveringLp::new(5);
        for _ in 0..5 {
            lp.add_constraint((0..5).map(|j| (j, 1.0)).collect(), 3.0)
                .unwrap();
        }
        let sol = solve(&lp).unwrap();
        assert!((sol.value - 3.0).abs() < 1e-7);
    }

    #[test]
    fn star_domination_lp() {
        // Star with center 0 and 4 leaves, k = 1: center alone suffices.
        let mut lp = CoveringLp::new(5);
        lp.add_constraint((0..5).map(|j| (j, 1.0)).collect(), 1.0)
            .unwrap();
        for leaf in 1..5 {
            lp.add_constraint(vec![(0, 1.0), (leaf, 1.0)], 1.0).unwrap();
        }
        let sol = solve(&lp).unwrap();
        assert!((sol.value - 1.0).abs() < 1e-7);
    }

    #[test]
    fn zero_rhs_constraints_are_free() {
        let lp = lp_from(&[(&[(0, 1.0)], 0.0), (&[(1, 1.0)], 0.3)], 2);
        let sol = solve(&lp).unwrap();
        assert!((sol.value - 0.3).abs() < 1e-9);
    }

    #[test]
    fn duplicate_redundant_rows_are_handled() {
        // Same constraint thrice — exercises redundant-row removal.
        let lp = lp_from(
            &[
                (&[(0, 1.0), (1, 1.0)], 1.0),
                (&[(0, 1.0), (1, 1.0)], 1.0),
                (&[(0, 1.0), (1, 1.0)], 1.0),
            ],
            2,
        );
        let sol = solve(&lp).unwrap();
        assert!((sol.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solution_is_always_feasible_on_random_instances() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..30 {
            let n = rng.random_range(1..8usize);
            let m = rng.random_range(0..8usize);
            let mut lp = CoveringLp::new(n);
            for _ in 0..m {
                let mut entries: Vec<(usize, f64)> = Vec::new();
                for j in 0..n {
                    if rng.random::<f64>() < 0.6 {
                        entries.push((j, rng.random_range(0.1..2.0)));
                    }
                }
                if entries.is_empty() {
                    continue;
                }
                // Keep demands satisfiable: at most 60% of max supply.
                let max_supply: f64 = entries.iter().map(|&(_, a)| a).sum();
                lp.add_constraint(entries, 0.6 * max_supply * rng.random::<f64>())
                    .unwrap();
            }
            let sol = solve(&lp).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert!(lp.is_feasible(&sol.x, 1e-6), "case {case} infeasible");
            assert!(sol.value >= -1e-9);
        }
    }

    #[test]
    fn too_large_is_reported() {
        let lp = CoveringLp::new(10_000);
        // rows = 10_000, cols = 40_000 → 4·10⁸ cells > budget.
        assert!(matches!(solve(&lp), Err(LpError::TooLarge { .. })));
    }
}
