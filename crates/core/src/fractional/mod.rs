//! **Algorithm 1** — distributed LP approximation of fractional k-MDS.
//!
//! Computes a feasible solution `x` of the paper's covering LP `(PP)`
//!
//! ```text
//!     min Σ x_i   s.t.   Σ_{j ∈ N[i]} x_j ≥ k_i,   0 ≤ x ≤ 1
//! ```
//!
//! together with a dual solution `(y, z)` of `(DP)` that is feasible after
//! scaling by `κ = t·(Δ+1)^{1/t}` (Lemma 4.4). By Theorem 4.5 the primal
//! value is within `t·((Δ+1)^{2/t} + (Δ+1)^{1/t})` of the LP optimum, in
//! `O(t²)` communication rounds.
//!
//! The algorithm runs `t` *outer* iterations (indexed `p = t−1 … 0`) of `t`
//! *inner* iterations (indexed `q = t−1 … 0`). In inner iteration `(p, q)`,
//! every node whose **dynamic degree** `δ̃_i` (number of still-uncovered
//! nodes in its closed neighborhood) is at least `(Δ+1)^{p/t}` raises its
//! `x_i` by `(Δ+1)^{-q/t}` — a fractional, symmetric version of the greedy
//! multi-cover rule. Uncovered ("white") nodes account each raise into the
//! dual variables `α, β` (dual fitting), and a node that reaches its demand
//! turns "gray" and fixes `y_i = (Δ+1)^{-p/t}`.
//!
//! Two interchangeable implementations:
//!
//! * [`solve_fractional`] — the in-memory engine (deterministic, no
//!   simulator overhead), and
//! * [`protocol::run_fractional_stack`] — the same algorithm as a
//!   message-passing protocol on [`ftclust_netsim`], metering rounds
//!   (`2t² + 3`) and message bits.
//!
//! Both produce bit-identical results (Algorithm 1 is deterministic).
//!
//! # Example
//!
//! ```
//! use ftclust_core::fractional::{solve_fractional, FractionalParams};
//! use ftclust_core::Instance;
//! use ftclust_graphs::generators;
//!
//! let g = generators::gnp(150, 0.06, 5);
//! let inst = Instance::uniform_clamped(&g, 2);
//! let sol = solve_fractional(&inst, &FractionalParams::new(4))?;
//! assert!(sol.is_primal_feasible(&inst, 1e-9));
//! // Certified ratio: primal value over the dual lower bound.
//! assert!(sol.value / sol.lower_bound <= sol.theorem_4_5_bound() + 1e-9);
//! # Ok::<(), ftclust_core::KmdsError>(())
//! ```

mod engine;
pub mod protocol;

pub use engine::solve_fractional;

use crate::Instance;
use serde::{Deserialize, Serialize};

/// What the nodes know about the maximum degree `Δ` — the paper's
/// Section 4.2 remark: *"it is implicitly assumed that all nodes of the
/// graph know the maximum degree Δ. Using techniques described in
/// [16, 11], it is possible to get rid of this assumption."*
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DeltaKnowledge {
    /// Every node knows the global `Δ` (or the hint), as the pseudocode
    /// assumes.
    #[default]
    Global,
    /// No global knowledge: each node uses the maximum degree within its
    /// 2-hop neighborhood as its personal `Δ_v` (computable in 2 extra
    /// rounds; here provided by the engine). Primal feasibility is
    /// unaffected — the final inner iteration still saturates every
    /// uncovered neighborhood — and the dual certificate is scaled by its
    /// *measured* violation instead of the Lemma 4.4 `κ`, so the reported
    /// lower bound remains valid.
    TwoHopMax,
}

/// Parameters of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FractionalParams {
    /// The time/quality trade-off parameter `t ≥ 1`: `O(t²)` rounds for a
    /// `t·((Δ+1)^{2/t} + (Δ+1)^{1/t})` approximation.
    pub t: u32,
    /// The globally known maximum degree `Δ`. Defaults to the true maximum
    /// degree of the graph; the paper notes the assumption can be lifted
    /// with standard techniques, and any upper bound on `Δ` preserves
    /// correctness (at the cost of a weaker ratio), which experiment E13
    /// exercises.
    pub delta_hint: Option<usize>,
    /// Degree-knowledge model (engine only; the metered protocol
    /// implements [`DeltaKnowledge::Global`]).
    pub knowledge: DeltaKnowledge,
}

impl FractionalParams {
    /// Parameters with the given `t` and the true `Δ`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn new(t: u32) -> Self {
        assert!(t >= 1, "t must be at least 1");
        FractionalParams {
            t,
            delta_hint: None,
            knowledge: DeltaKnowledge::default(),
        }
    }

    /// Overrides the maximum-degree knowledge.
    pub fn with_delta_hint(mut self, delta: usize) -> Self {
        self.delta_hint = Some(delta);
        self
    }

    /// Switches to local (2-hop) degree knowledge — the unknown-Δ variant.
    pub fn without_global_delta(mut self) -> Self {
        self.knowledge = DeltaKnowledge::TwoHopMax;
        self
    }

    /// The `Δ` value the algorithm will use on `inst`.
    pub fn resolve_delta(&self, inst: &Instance<'_>) -> usize {
        self.delta_hint.unwrap_or_else(|| inst.graph().max_degree())
    }
}

/// Output of Algorithm 1: primal and dual solutions plus certificates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FractionalSolution {
    /// Primal values `x_i ∈ [0, 1]`, feasible for `(PP)`.
    pub x: Vec<f64>,
    /// Dual variables `y_i` (feasible for `(DP)` after division by
    /// [`FractionalSolution::kappa`]).
    pub y: Vec<f64>,
    /// Dual variables `z_i` (same scaling).
    pub z: Vec<f64>,
    /// The dual scaling factor that makes `(y/κ, z/κ)` feasible: Lemma
    /// 4.4's `κ = t(Δ+1)^{1/t}` under global-Δ knowledge, or the measured
    /// violation under [`DeltaKnowledge::TwoHopMax`].
    pub kappa: f64,
    /// Certified lower bound on the LP optimum:
    /// `Σ_i (k_i y_i − z_i) / κ`, by weak duality (verified against the
    /// instance LP in the tests).
    pub lower_bound: f64,
    /// Primal objective `Σ x_i`.
    pub value: f64,
    /// The `t` used.
    pub t: u32,
    /// The `Δ` used.
    pub delta: usize,
    /// Number of times the Lemma 4.1 invariant
    /// (`δ̃_i ≤ (Δ+1)^{(p+1)/t}` while `x_i < 1`) was observed violated
    /// during the run. Always 0; recorded so experiments can assert the
    /// lemma empirically rather than trust it.
    pub lemma41_violations: u64,
}

impl FractionalSolution {
    /// Theorem 4.5's approximation bound
    /// `t·((Δ+1)^{2/t} + (Δ+1)^{1/t})` for this run's `t` and `Δ`.
    pub fn theorem_4_5_bound(&self) -> f64 {
        crate::bounds::theorem_4_5_bound(self.t, self.delta)
    }

    /// Checks primal feasibility against the instance.
    ///
    /// # Panics
    ///
    /// Panics if the instance size differs from the solution size.
    pub fn is_primal_feasible(&self, inst: &Instance<'_>, tol: f64) -> bool {
        inst.to_lp().is_feasible(&self.x, tol)
    }

    /// Checks that `(y/κ, z/κ)` is dual feasible for the instance LP —
    /// Lemma 4.4, measured.
    ///
    /// # Panics
    ///
    /// Panics if the instance size differs from the solution size.
    pub fn is_scaled_dual_feasible(&self, inst: &Instance<'_>, tol: f64) -> bool {
        let ybar: Vec<f64> = self.y.iter().map(|v| v / self.kappa).collect();
        let zbar: Vec<f64> = self.z.iter().map(|v| (v / self.kappa).max(0.0)).collect();
        inst.to_lp().is_dual_feasible(&ybar, &zbar, tol)
    }

    /// A **tighter** certified lower bound than
    /// [`FractionalSolution::lower_bound`]: instead of scaling the dual by
    /// Lemma 4.4's worst-case `κ = t(Δ+1)^{1/t}`, measure the dual's
    /// *actual* largest constraint violation `f ≤ κ` and scale by that.
    /// The result is still a valid lower bound on the LP optimum by weak
    /// duality (the scaled dual is feasible by construction), and is often
    /// several times tighter — the experiments report both.
    ///
    /// # Panics
    ///
    /// Panics if the instance size differs from the solution size.
    pub fn tightened_lower_bound(&self, inst: &Instance<'_>) -> f64 {
        let g = inst.graph();
        let n = g.node_count();
        assert_eq!(self.x.len(), n, "instance size mismatch");
        // Actual violation factor: f = max_j (Σ_{i ∈ N[j]} y_i − z_j) / 1.
        let mut factor = 1.0f64;
        for v in g.nodes() {
            let colsum: f64 = g.closed_neighbors(v).map(|w| self.y[w.index()]).sum();
            factor = factor.max(colsum - self.z[v.index()]);
        }
        let dual_raw: f64 = (0..n)
            .map(|i| inst.demands()[i] as f64 * self.y[i] - self.z[i])
            .sum();
        (dual_raw / factor).max(0.0)
    }
}
