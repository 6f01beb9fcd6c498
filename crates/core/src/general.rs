//! The end-to-end general-graph pipeline: Algorithm 1 (fractional LP
//! approximation) followed by Algorithm 2 (randomized rounding).
//!
//! By Theorems 4.5 and 4.6 the result is an expected
//! `O(t Δ^{2/t} log Δ)`-approximate k-fold dominating set computed in
//! `O(t²)` rounds — the paper's headline result for general graphs.
//!
//! The pipeline has two settings, `t` and the rounding seed; it always
//! rounds with repair on ([`RoundingParams::default`]). Callers that need
//! other parameters (the E13 repair ablation) call [`solve_fractional`]
//! and [`round_fractional`] directly.

use crate::fractional::{solve_fractional, FractionalParams, FractionalSolution};
use crate::rounding::{round_fractional, RoundingOutcome, RoundingParams};
use crate::{DominatingSet, Instance, KmdsError};

/// Configuration of the combined pipeline.
///
/// # Example
///
/// ```
/// use ftclust_core::general::GeneralPipeline;
/// use ftclust_core::validate::{is_k_dominating_instance, Semantics};
/// use ftclust_core::Instance;
/// use ftclust_graphs::generators;
///
/// let g = generators::gnp(120, 0.08, 3);
/// let inst = Instance::uniform_clamped(&g, 2);
/// let run = GeneralPipeline::new(3).seed(11).run(&inst)?;
/// assert!(is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf));
/// # Ok::<(), ftclust_core::KmdsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GeneralPipeline {
    params: FractionalParams,
    seed: u64,
}

/// Result of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralRun {
    /// The integral k-fold dominating set.
    pub set: DominatingSet,
    /// The intermediate fractional solution with its dual certificate.
    pub fractional: FractionalSolution,
    /// Rounding statistics.
    pub rounding: RoundingOutcome,
}

impl GeneralRun {
    /// The certified approximation ratio against the LP lower bound
    /// (`None` when the lower bound is zero, e.g. on zero-demand
    /// instances).
    pub fn certified_ratio(&self) -> Option<f64> {
        (self.fractional.lower_bound > 0.0)
            .then(|| self.set.len() as f64 / self.fractional.lower_bound)
    }
}

impl GeneralPipeline {
    /// A pipeline with trade-off parameter `t`, seed 0 and default
    /// rounding. It runs the in-memory engines; the message-passing
    /// protocols compute the identical result and report metrics
    /// (`run_fractional_stack`, `run_rounding_stack`).
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn new(t: u32) -> Self {
        GeneralPipeline {
            params: FractionalParams::new(t),
            seed: 0,
        }
    }

    /// Sets the random seed (affects only the rounding step; Algorithm 1
    /// is deterministic).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Executes the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates [`solve_fractional`]'s errors (internal-limit breaches
    /// only; validated instances do not produce them).
    pub fn run(&self, inst: &Instance<'_>) -> Result<GeneralRun, KmdsError> {
        let fractional = solve_fractional(inst, &self.params)?;
        let rounding = round_fractional(
            inst,
            &fractional.x,
            fractional.delta,
            self.seed,
            &RoundingParams::default(),
        );
        Ok(GeneralRun {
            set: rounding.set.clone(),
            fractional,
            rounding,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractional::protocol::run_fractional_stack;
    use crate::rounding::protocol::run_rounding_stack;
    use crate::validate::{is_k_dominating_instance, Semantics};
    use ftclust_graphs::generators;
    use ftclust_netsim::exec::Stack;

    /// Runs Algorithms 1 and 2 as message-passing protocols and asserts
    /// the pipeline's engine result equals theirs.
    fn assert_matches_protocols(inst: &Instance<'_>, t: u32, seed: u64) -> GeneralRun {
        let run = GeneralPipeline::new(t).seed(seed).run(inst).unwrap();
        let (frac, _) =
            run_fractional_stack(inst, &FractionalParams::new(t), Stack::new()).unwrap();
        let (round, _) = run_rounding_stack(
            inst,
            &frac.solution.x,
            frac.solution.delta,
            seed,
            &RoundingParams::default(),
            Stack::new(),
        )
        .unwrap();
        assert_eq!(run.fractional, frac.solution);
        assert_eq!(run.set, round.outcome.set);
        assert_eq!(run.rounding, round.outcome);
        assert_eq!(frac.metrics.rounds, 2 * u64::from(t * t) + 3);
        assert!(round.metrics.rounds <= 3);
        run
    }

    #[test]
    fn engine_and_protocols_agree() {
        let g = generators::gnp(40, 0.15, 8);
        let inst = Instance::uniform_clamped(&g, 2);
        assert_matches_protocols(&inst, 2, 5);
    }

    #[test]
    fn feasible_across_k_and_t() {
        for k in [1u32, 2, 3] {
            for t in [1u32, 3] {
                let g = generators::gnp(70, 0.12, k as u64 * 10 + t as u64);
                let inst = Instance::uniform_clamped(&g, k);
                let run = GeneralPipeline::new(t).seed(1).run(&inst).unwrap();
                assert!(
                    is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf),
                    "infeasible at k={k}, t={t}"
                );
                if let Some(r) = run.certified_ratio() {
                    assert!(r >= 1.0 - 1e-9);
                }
            }
        }
    }

    #[test]
    fn protocols_agree_on_per_node_demands() {
        let g = generators::gnp(35, 0.2, 12);
        let demands: Vec<u32> = g
            .nodes()
            .map(|v| (v.raw() % 3).min(g.degree(v) as u32 + 1))
            .collect();
        let inst = Instance::with_demands(&g, demands).unwrap();
        let run = assert_matches_protocols(&inst, 2, 9);
        assert!(is_k_dominating_instance(
            &inst,
            &run.set,
            Semantics::CoverSelf
        ));
    }

    #[test]
    fn certified_ratio_none_on_zero_demand() {
        let g = generators::path(4);
        let inst = Instance::with_demands(&g, vec![0, 0, 0, 0]).unwrap();
        let run = GeneralPipeline::new(2).run(&inst).unwrap();
        assert!(run.certified_ratio().is_none());
        assert_eq!(run.set.len(), 0);
    }
}
