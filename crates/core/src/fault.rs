//! Survivability of k-fold dominating sets under node failures — the
//! paper's motivation, measured.
//!
//! A k-fold dominating set keeps every strictly-dominated node covered as
//! long as fewer than `k` of its dominators fail. This module quantifies
//! that: kill dominators (adversarially sampled or i.i.d.) and measure the
//! residual coverage of the surviving network (experiment E9).

use crate::validate::Semantics;
use crate::{DominatingSet, Instance, KmdsError};
use ftclust_graphs::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How nodes fail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureModel {
    /// Exactly `count` uniformly random *dominators* crash (the targeted /
    /// worst-placement model).
    KillDominators {
        /// Number of dominators to crash.
        count: usize,
    },
    /// Every node fails independently with probability `p` (battery
    /// exhaustion model).
    IidNodeFailure {
        /// Per-node failure probability in `[0, 1]`.
        prob: f64,
    },
    /// All nodes inside a random disaster disk die at once (fire, jamming,
    /// flooding). Requires geometry — evaluate with
    /// [`regional_survivability`]; passing it to [`survivability`] returns
    /// [`KmdsError::UnsupportedFailureModel`].
    Region {
        /// Radius of the disaster disk.
        radius: f64,
    },
}

/// Aggregated survivability statistics over the trials.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivabilityReport {
    /// The failure model evaluated.
    pub model: FailureModel,
    /// Number of Monte-Carlo trials.
    pub trials: u32,
    /// Mean fraction of surviving non-set nodes that still have ≥ 1 alive
    /// dominator ("connected to the backbone").
    pub mean_covered_fraction: f64,
    /// Worst (minimum) such fraction over the trials.
    pub min_covered_fraction: f64,
    /// Mean fraction of surviving non-set nodes still *fully* `k`-covered.
    pub mean_fully_covered_fraction: f64,
    /// Mean surviving coverage (alive dominators per surviving non-set
    /// node).
    pub mean_residual_coverage: f64,
    /// Regional failures only: mean covered fraction among the *at-risk*
    /// survivors — those within one communication radius of the disaster
    /// boundary, whose neighborhoods were partially destroyed. `None` for
    /// the non-geometric models (where every node is equally at risk).
    pub mean_at_risk_covered_fraction: Option<f64>,
}

/// Runs `trials` failure experiments against `set` and reports residual
/// coverage among the *surviving* non-set nodes.
///
/// # Errors
///
/// Returns [`KmdsError::UnsupportedFailureModel`] for
/// [`FailureModel::Region`], which needs node positions — use
/// [`regional_survivability`] instead. Returns [`KmdsError::ZeroTrials`]
/// when `trials == 0`: the aggregates would be empty folds (pre-fix code
/// reported `min_covered_fraction = +∞`).
///
/// # Panics
///
/// Panics if the set universe mismatches the graph, if
/// `KillDominators.count` exceeds the set size, or if `prob ∉ [0, 1]`.
pub fn survivability(
    inst: &Instance<'_>,
    set: &DominatingSet,
    model: FailureModel,
    trials: u32,
    seed: u64,
) -> Result<SurvivabilityReport, KmdsError> {
    if let FailureModel::Region { .. } = model {
        return Err(KmdsError::UnsupportedFailureModel {
            reason: "Region failures need geometry — use regional_survivability",
        });
    }
    if trials == 0 {
        return Err(KmdsError::ZeroTrials {
            what: "survivability",
        });
    }
    let g = inst.graph();
    assert_eq!(set.universe(), g.node_count(), "set universe mismatch");
    if let FailureModel::KillDominators { count } = model {
        assert!(
            count <= set.len(),
            "cannot kill {count} of {} dominators",
            set.len()
        );
    }
    if let FailureModel::IidNodeFailure { prob } = model {
        assert!((0.0..=1.0).contains(&prob), "prob must be in [0, 1]");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let members: Vec<NodeId> = set.ids().collect();
    let mut tally = Tally::default();
    for _ in 0..trials {
        let mut dead = vec![false; g.node_count()];
        match model {
            FailureModel::KillDominators { count } => {
                let mut pool = members.clone();
                pool.shuffle(&mut rng);
                for &v in pool.iter().take(count) {
                    dead[v.index()] = true;
                }
            }
            FailureModel::IidNodeFailure { prob } => {
                for d in &mut dead {
                    *d = rng.random::<f64>() < prob;
                }
            }
            FailureModel::Region { .. } => {
                unreachable!("Region was rejected before the trial loop");
            }
        }
        tally.trial(inst, set, &dead, |_, _| {});
    }
    Ok(tally.report(model, trials, None))
}

/// Correlated **regional** failure for geometric deployments: all nodes
/// within a random disaster disk of the given radius die at once (fire,
/// jamming, flooding — failures in sensor fields are rarely independent).
///
/// Reports the same statistics as [`survivability`], computed over
/// `trials` random disaster centers drawn uniformly from the deployment's
/// bounding box. Note the honest caveat this experiment surfaces: k-fold
/// redundancy protects against *scattered* failures, but a disaster disk
/// of radius ≥ 2·(communication radius) kills every dominator a victim
/// could have had, so coverage of nodes near the disaster edge — not
/// inside it, those are dead — is what improves with `k`.
///
/// # Errors
///
/// Returns [`KmdsError::ZeroTrials`] when `trials == 0` — the aggregates
/// would be empty folds.
///
/// # Panics
///
/// Panics if the set universe mismatches the UDG or `disaster_radius` is
/// negative/non-finite.
pub fn regional_survivability(
    udg: &ftclust_graphs::UnitDiskGraph,
    inst: &Instance<'_>,
    set: &DominatingSet,
    disaster_radius: f64,
    trials: u32,
    seed: u64,
) -> Result<SurvivabilityReport, KmdsError> {
    if trials == 0 {
        return Err(KmdsError::ZeroTrials {
            what: "regional_survivability",
        });
    }
    assert_eq!(set.universe(), udg.node_count(), "set universe mismatch");
    assert!(
        disaster_radius.is_finite() && disaster_radius >= 0.0,
        "disaster radius must be non-negative"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let (lo, hi) = udg.bounding_box().unwrap_or((
        ftclust_geometry::Point::ORIGIN,
        ftclust_geometry::Point::ORIGIN,
    ));
    let mut tally = Tally::default();
    let mut at_risk_fraction = Vec::with_capacity(trials as usize);
    for _ in 0..trials {
        let center = ftclust_geometry::Point::new(
            rng.random_range(lo.x..=hi.x.max(lo.x + f64::EPSILON)),
            rng.random_range(lo.y..=hi.y.max(lo.y + f64::EPSILON)),
        );
        let r_sq = disaster_radius * disaster_radius;
        let dead: Vec<bool> = udg
            .positions()
            .iter()
            .map(|p| p.dist_sq(center) <= r_sq)
            .collect();
        let mut at_risk = 0usize;
        let mut at_risk_covered = 0usize;
        let risk_band = disaster_radius + udg.radius();
        tally.trial(inst, set, &dead, |v, alive| {
            // Survivors close enough to the disaster that part of their
            // neighborhood may have burned.
            if udg.position(v).dist(center) <= risk_band {
                at_risk += 1;
                if alive >= 1 {
                    at_risk_covered += 1;
                }
            }
        });
        at_risk_fraction.push(if at_risk == 0 {
            1.0
        } else {
            at_risk_covered as f64 / at_risk as f64
        });
    }
    let model = FailureModel::Region {
        radius: disaster_radius,
    };
    Ok(tally.report(model, trials, Some(mean(&at_risk_fraction))))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The per-trial client statistics shared by [`survivability`] and
/// [`regional_survivability`]. A *client* is a surviving non-set node;
/// each trial records the fraction of clients with ≥ 1 alive dominator,
/// the fraction fully covered to their demand, and their mean number of
/// alive dominators.
#[derive(Default)]
struct Tally {
    covered: Vec<f64>,
    fully: Vec<f64>,
    residual: Vec<f64>,
}

impl Tally {
    /// Records one trial in which the nodes marked in `dead` failed;
    /// `on_client` sees every client with its alive-dominator count.
    fn trial(
        &mut self,
        inst: &Instance<'_>,
        set: &DominatingSet,
        dead: &[bool],
        mut on_client: impl FnMut(NodeId, usize),
    ) {
        let g = inst.graph();
        let mut clients = 0usize;
        let mut covered = 0usize;
        let mut fully = 0usize;
        let mut cov_sum = 0usize;
        for v in g.nodes() {
            if set.contains(v) || dead[v.index()] {
                continue;
            }
            clients += 1;
            let alive = g
                .neighbors(v)
                .iter()
                .filter(|&&w| set.contains(w) && !dead[w.index()])
                .count();
            cov_sum += alive;
            if alive >= 1 {
                covered += 1;
            }
            if alive as u32 >= inst.demand(v) {
                fully += 1;
            }
            on_client(v, alive);
        }
        if clients == 0 {
            self.covered.push(1.0);
            self.fully.push(1.0);
            self.residual.push(0.0);
        } else {
            self.covered.push(covered as f64 / clients as f64);
            self.fully.push(fully as f64 / clients as f64);
            self.residual.push(cov_sum as f64 / clients as f64);
        }
    }

    fn report(
        self,
        model: FailureModel,
        trials: u32,
        mean_at_risk_covered_fraction: Option<f64>,
    ) -> SurvivabilityReport {
        SurvivabilityReport {
            model,
            trials,
            mean_covered_fraction: mean(&self.covered),
            min_covered_fraction: self.covered.iter().copied().fold(f64::INFINITY, f64::min),
            mean_fully_covered_fraction: mean(&self.fully),
            mean_residual_coverage: mean(&self.residual),
            mean_at_risk_covered_fraction,
        }
    }
}

/// The deterministic guarantee: for a strict k-fold dominating set, after
/// **any** failure of fewer than `k` dominators, every surviving non-set
/// node still has an alive dominator. Verified exhaustively for small sets
/// and by sampling otherwise; returns `false` iff a counterexample was
/// found.
pub fn guarantee_holds(
    inst: &Instance<'_>,
    set: &DominatingSet,
    k: u32,
    samples: u32,
    seed: u64,
) -> bool {
    if k == 0 {
        return true;
    }
    debug_assert!(crate::validate::is_k_dominating_instance(
        inst,
        set,
        Semantics::Strict
    ));
    let g = inst.graph();
    let members: Vec<NodeId> = set.ids().collect();
    let kill = (k - 1) as usize;
    if kill == 0 {
        return true;
    }
    let check = |dead: &[NodeId]| -> bool {
        let dead_set: Vec<bool> = {
            let mut d = vec![false; g.node_count()];
            for &v in dead {
                d[v.index()] = true;
            }
            d
        };
        g.nodes().all(|v| {
            if set.contains(v) || inst.demand(v) == 0 {
                return true;
            }
            g.neighbors(v)
                .iter()
                .any(|&w| set.contains(w) && !dead_set[w.index()])
        })
    };
    // Exhaustive for tiny cases, sampled otherwise.
    if members.len() <= 16 && kill <= 2 {
        match kill {
            1 => members.iter().all(|&a| check(&[a])),
            _ => members
                .iter()
                .enumerate()
                .all(|(i, &a)| members[i + 1..].iter().all(|&b| check(&[a, b]))),
        }
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..samples).all(|_| {
            let mut pool = members.clone();
            pool.shuffle(&mut rng);
            check(&pool[..kill.min(pool.len())])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udg::UdgAlgorithm;
    use crate::validate::is_k_dominating;
    use ftclust_graphs::generators;

    #[test]
    fn guarantee_holds_for_udg_outputs() {
        for k in [1u32, 2, 3] {
            let udg = generators::random_udg(200, 10.0, 1.0, k as u64);
            let run = UdgAlgorithm::new(k).seed(2).run(&udg).unwrap();
            assert!(is_k_dominating(udg.graph(), &run.set, k, Semantics::Strict));
            let inst = Instance::uniform_clamped(udg.graph(), k);
            assert!(guarantee_holds(&inst, &run.set, k, 200, 7), "k={k}");
        }
    }

    #[test]
    fn higher_k_survives_better() {
        let udg = generators::random_udg(300, 12.0, 1.0, 5);
        let inst = Instance::uniform_clamped(udg.graph(), 1);
        let mut prev = -1.0f64;
        for k in [1u32, 2, 4] {
            let run = UdgAlgorithm::new(k).seed(1).run(&udg).unwrap();
            let rep = survivability(
                &inst,
                &run.set,
                FailureModel::IidNodeFailure { prob: 0.3 },
                50,
                3,
            )
            .unwrap();
            assert!(
                rep.mean_covered_fraction >= prev - 0.02,
                "coverage should improve with k: k={k}, {} vs {prev}",
                rep.mean_covered_fraction
            );
            prev = rep.mean_covered_fraction;
        }
        assert!(
            prev > 0.9,
            "4-fold set should survive 30% failures well: {prev}"
        );
    }

    #[test]
    fn kill_fewer_than_k_keeps_full_domination() {
        let udg = generators::random_udg(150, 9.0, 1.0, 8);
        let k = 3u32;
        let run = UdgAlgorithm::new(k).seed(0).run(&udg).unwrap();
        let inst = Instance::uniform_clamped(udg.graph(), 1); // demand 1 after failures
        let rep = survivability(
            &inst,
            &run.set,
            FailureModel::KillDominators {
                count: (k - 1) as usize,
            },
            30,
            1,
        )
        .unwrap();
        assert_eq!(
            rep.min_covered_fraction, 1.0,
            "killing k−1 dominators must never uncover"
        );
    }

    #[test]
    fn report_fields_are_consistent() {
        let g = generators::gnp(50, 0.15, 3);
        let inst = Instance::uniform_clamped(&g, 2);
        let set = crate::baselines::greedy_kmds(&inst, Semantics::CoverSelf);
        let rep = survivability(
            &inst,
            &set,
            FailureModel::IidNodeFailure { prob: 0.2 },
            20,
            4,
        )
        .unwrap();
        assert!(rep.mean_covered_fraction >= rep.mean_fully_covered_fraction - 1e-12);
        assert!(rep.min_covered_fraction <= rep.mean_covered_fraction + 1e-12);
        assert_eq!(rep.trials, 20);
    }

    #[test]
    fn regional_failures_respect_geometry() {
        let udg = generators::random_udg_in_square(600, 12.0, 1.0, 6);
        let inst = Instance::uniform_clamped(udg.graph(), 1);
        let run = UdgAlgorithm::new(3).seed(2).run(&udg).unwrap();
        // A zero-radius disaster kills (almost) nobody.
        let none = regional_survivability(&udg, &inst, &run.set, 0.0, 10, 1).unwrap();
        assert!(none.mean_covered_fraction > 0.999);
        // A big disaster hurts more than a small one.
        let small = regional_survivability(&udg, &inst, &run.set, 1.0, 40, 2).unwrap();
        let big = regional_survivability(&udg, &inst, &run.set, 4.0, 40, 2).unwrap();
        assert!(big.mean_covered_fraction <= small.mean_covered_fraction + 1e-9);
        assert_eq!(big.model, FailureModel::Region { radius: 4.0 });
        // More redundancy helps the survivors near the disaster edge.
        let run1 = UdgAlgorithm::new(1).seed(2).run(&udg).unwrap();
        let k1 = regional_survivability(&udg, &inst, &run1.set, 2.0, 40, 3).unwrap();
        let k3 = regional_survivability(&udg, &inst, &run.set, 2.0, 40, 3).unwrap();
        assert!(k3.mean_covered_fraction >= k1.mean_covered_fraction - 0.02);
    }

    #[test]
    fn zero_trials_is_rejected_not_infinite() {
        // Pre-fix, both entry points folded the empty trial list from
        // +∞ and reported `min_covered_fraction = inf` beside `mean = 0`.
        let udg = generators::random_udg_in_square(60, 8.0, 1.0, 9);
        let inst = Instance::uniform_clamped(udg.graph(), 1);
        let run = UdgAlgorithm::new(2).seed(1).run(&udg).unwrap();
        let err = survivability(
            &inst,
            &run.set,
            FailureModel::IidNodeFailure { prob: 0.1 },
            0,
            5,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                KmdsError::ZeroTrials {
                    what: "survivability"
                }
            ),
            "unexpected error: {err}"
        );
        let err = regional_survivability(&udg, &inst, &run.set, 1.0, 0, 5).unwrap_err();
        assert!(
            matches!(
                err,
                KmdsError::ZeroTrials {
                    what: "regional_survivability"
                }
            ),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("at least one trial"));
    }

    #[test]
    fn region_model_rejected_by_graph_only_api() {
        let g = generators::gnp(10, 0.5, 1);
        let inst = Instance::uniform_clamped(&g, 1);
        let set = crate::baselines::greedy_kmds(&inst, Semantics::CoverSelf);
        let err =
            survivability(&inst, &set, FailureModel::Region { radius: 1.0 }, 1, 0).unwrap_err();
        assert!(
            matches!(err, KmdsError::UnsupportedFailureModel { .. }),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("regional_survivability"));
    }

    #[test]
    fn zero_failure_probability_changes_nothing() {
        let g = generators::gnp(40, 0.2, 2);
        let inst = Instance::uniform_clamped(&g, 2);
        let set = crate::baselines::greedy_kmds(&inst, Semantics::CoverSelf);
        let rep = survivability(
            &inst,
            &set,
            FailureModel::IidNodeFailure { prob: 0.0 },
            5,
            0,
        )
        .unwrap();
        assert_eq!(rep.min_covered_fraction, 1.0);
        assert_eq!(rep.mean_fully_covered_fraction, 1.0);
    }
}
