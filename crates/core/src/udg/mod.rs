//! **Algorithm 3** — fault-tolerant clustering in unit disk graphs in
//! `O(log log n)` rounds.
//!
//! Requires nodes embedded in the plane with distance sensing (the
//! [`ftclust_graphs::UnitDiskGraph`] model of Section 5).
//!
//! **Part I** (following Gao et al.'s *Discrete Mobile Centers*): all nodes
//! start *active* with a tiny consideration radius
//! `θ₁ = (log n)^{-1/log ξ}`, `ξ = 3/2` (in units of the communication
//! radius). Each round, every active node draws a fresh random identifier
//! from `[1, n⁴]`, elects the highest identifier among the active nodes
//! within distance `θ` (possibly itself), and exactly the elected nodes
//! stay active; `θ` doubles every round. After `⌈log_ξ log n⌉` rounds
//! (when `θ` reaches `1/2`) the remaining active nodes become **leaders** —
//! a dominating set (Lemma 5.1) with `O(1)` expected leaders per
//! radius-`1/2` disk (Lemma 5.5).
//!
//! **Part II**: leaders repeatedly promote up to `k` of their
//! not-yet-`k`-covered neighbors (the lowest ids; the paper's line 20
//! leaves the choice open) until every non-leader has at least `k`
//! leader neighbors. The result is a k-fold dominating set with `O(1)`
//! expected approximation ratio (Theorem 5.7). It runs as the promotion
//! loop of [`crate::promotion`], which coverage repair shares.
//!
//! Our `θ` schedule fixes a factor-2 inconsistency in the paper (line 3 of
//! the pseudocode initializes `θ = ½(log n)^{-1/log ξ}` while the analysis
//! uses `θ_i = 2^{i-1}(log n)^{-1/log ξ}`; we use the latter, which makes
//! the final radius exactly `1/2` as the analysis requires), and caps
//! `θ ≤ 1/2` so the ceiling on the round count never pushes the
//! consideration radius beyond the communication radius.
//!
//! # Example
//!
//! ```
//! use ftclust_core::udg::UdgAlgorithm;
//! use ftclust_core::validate::{is_k_dominating, Semantics};
//! use ftclust_graphs::generators;
//!
//! let udg = generators::random_udg(500, 10.0, 1.0, 3);
//! let run = UdgAlgorithm::new(3).seed(1).run(&udg)?;
//! assert!(is_k_dominating(udg.graph(), &run.set, 3, Semantics::Strict));
//! // Part I alone already dominates (k = 1):
//! assert!(is_k_dominating(udg.graph(), &run.leaders, 1, Semantics::Strict));
//! # Ok::<(), ftclust_core::KmdsError>(())
//! ```

pub mod analysis;
pub mod protocol;

use crate::{DominatingSet, KmdsError};
use ftclust_graphs::UnitDiskGraph;
use ftclust_netsim::exec::Stack;

/// The consideration-radius schedule `θ_1, …, θ_R` in **absolute** units
/// (multiples of `radius`):
///
/// * `ξ = 3/2`, `R = max(1, ⌈log_ξ log₂ n⌉)` rounds,
/// * `θ_i = min(1/2, 2^{i-1}·(log₂ n)^{-1/log₂ ξ}) · radius`.
///
/// The final `θ_R` always equals `radius/2`, so Lemma 5.1's coverage radius
/// `2·θ_R = radius` holds exactly.
///
/// # Errors
///
/// Returns [`KmdsError::InvalidInput`] unless `radius` is positive and
/// finite, the rule [`UnitDiskGraph::build`] applies.
pub fn theta_schedule(n: usize, radius: f64) -> Result<Vec<f64>, KmdsError> {
    if !(radius.is_finite() && radius > 0.0) {
        return Err(KmdsError::InvalidInput {
            what: "theta schedule: radius must be positive and finite",
        });
    }
    let log2n = (n.max(4) as f64).log2(); // clamp so tiny n behave sanely
    let xi: f64 = 1.5;
    let rounds = ((log2n.ln() / xi.ln()).ceil() as usize).max(1);
    let theta1 = log2n.powf(-1.0 / xi.log2());
    let mut schedule: Vec<f64> = (0..rounds)
        .map(|i| (2f64.powi(i as i32) * theta1).min(0.5) * radius)
        .collect();
    // Guarantee the last round reaches exactly radius/2 (the ceiling can
    // leave it a shade below otherwise).
    if let Some(last) = schedule.last_mut() {
        *last = 0.5 * radius;
    }
    Ok(schedule)
}

/// Part I's squared limit `T` for the radius `theta`: the largest double
/// whose square root is at most `theta`. IEEE square root is correctly
/// rounded and monotone, so for every double `s ≥ 0`, `s ≤ T` holds
/// exactly when `s.sqrt() ≤ theta`: "within `θ`" is decided on the squared
/// distance, with no square root and the same answer.
pub(crate) fn square_limit(theta: f64) -> f64 {
    // `θ²` rounded is within an ulp or two of `T`.
    let mut limit = theta * theta;
    while limit.sqrt() > theta {
        limit = limit.next_down();
    }
    while limit.next_up().sqrt() <= theta {
        limit = limit.next_up();
    }
    limit
}

/// How Part I assigns the random identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdMode {
    /// Fresh identifiers every round (the paper's choice — consecutive
    /// rounds are independent, which Lemma 5.5's proof relies on).
    #[default]
    FreshPerRound,
    /// One identifier drawn at the start and kept (the E13 ablation: the
    /// independence argument breaks, and sparsification measurably
    /// degrades on adversarial layouts).
    FixedAtStart,
}

/// Builder/configuration for Algorithm 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdgAlgorithm {
    k: u32,
    seed: u64,
    id_mode: IdMode,
}

/// Result of Algorithm 3.
#[derive(Debug, Clone, PartialEq)]
pub struct UdgRun {
    /// The final k-fold dominating set (leaders of Part I plus the nodes
    /// promoted in Part II).
    pub set: DominatingSet,
    /// The leaders after Part I (a plain dominating set, Lemma 5.1).
    pub leaders: DominatingSet,
    /// Rounds executed in Part I (`⌈log_ξ log n⌉`).
    pub part1_rounds: u32,
    /// Iterations of the Part II while-loop.
    pub part2_iterations: u32,
    /// Number of active nodes after each Part I round (index 0 = after
    /// round 1) — the double-exponential decay series of Lemma 5.2 /
    /// experiment E7.
    pub active_history: Vec<usize>,
}

impl UdgAlgorithm {
    /// An instance of Algorithm 3 computing a `k`-fold dominating set,
    /// with seed 0 and default (paper-faithful) modes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "k must be at least 1");
        UdgAlgorithm {
            k,
            seed: 0,
            id_mode: IdMode::default(),
        }
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the identifier mode (E13 ablation).
    pub fn id_mode(mut self, mode: IdMode) -> Self {
        self.id_mode = mode;
        self
    }

    /// The configured `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Runs Algorithm 3 as the message-passing protocol on the plain
    /// simulator ([`protocol::run_udg_stack`] with `Stack::new()`) and
    /// returns its outputs.
    ///
    /// # Errors
    ///
    /// Returns [`KmdsError::Sim`] if the protocol exceeds its round
    /// budget — impossible, since every Part II iteration with a needy
    /// node adds a member ([`crate::promotion`]).
    pub fn run(&self, udg: &UnitDiskGraph) -> Result<UdgRun, KmdsError> {
        protocol::run_udg_stack(udg, self, Stack::new()).map(|(r, _)| r.run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{is_k_dominating, Semantics};
    use ftclust_graphs::generators;

    #[test]
    fn produces_strict_k_domination() {
        for k in [1u32, 2, 4] {
            for seed in [0u64, 9] {
                let udg = generators::random_udg(300, 12.0, 1.0, 40 + seed);
                let run = UdgAlgorithm::new(k).seed(seed).run(&udg).unwrap();
                assert!(
                    is_k_dominating(udg.graph(), &run.set, k, Semantics::Strict),
                    "not {k}-dominating (seed {seed})"
                );
                assert!(run.set.len() >= run.leaders.len());
            }
        }
    }

    #[test]
    fn part1_is_a_dominating_set() {
        let udg = generators::random_udg(400, 10.0, 1.0, 7);
        let run = UdgAlgorithm::new(1).run(&udg).unwrap();
        assert!(is_k_dominating(
            udg.graph(),
            &run.leaders,
            1,
            Semantics::Strict
        ));
    }

    #[test]
    fn rounds_grow_double_logarithmically() {
        let r100 = theta_schedule(100, 1.0).unwrap().len();
        let r10k = theta_schedule(10_000, 1.0).unwrap().len();
        let r1m = theta_schedule(1_000_000, 1.0).unwrap().len();
        assert!(r100 <= r10k && r10k <= r1m);
        // log_{1.5} log₂ 10⁶ ≈ 7.4 → 8 rounds; tiny either way.
        assert!(r1m <= 9, "r1m = {r1m}");
    }

    #[test]
    fn active_counts_decrease() {
        let udg = generators::random_udg(1000, 15.0, 1.0, 2);
        let run = UdgAlgorithm::new(1).run(&udg).unwrap();
        assert_eq!(run.active_history.len() as u32, run.part1_rounds);
        for w in run.active_history.windows(2) {
            assert!(
                w[1] <= w[0],
                "active count increased: {:?}",
                run.active_history
            );
        }
        assert_eq!(*run.active_history.last().unwrap(), run.leaders.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let udg = generators::random_udg(200, 8.0, 1.0, 5);
        let a = UdgAlgorithm::new(2).seed(3).run(&udg).unwrap();
        let b = UdgAlgorithm::new(2).seed(3).run(&udg).unwrap();
        assert_eq!(a, b);
        let c = UdgAlgorithm::new(2).seed(4).run(&udg).unwrap();
        // Different seeds may coincide on tiny graphs but not here.
        assert_ne!(a.set, c.set);
    }

    #[test]
    fn all_seeds_and_modes_stay_feasible() {
        let udg = generators::clustered_udg(300, 6, 12.0, 0.8, 1.0, 11);
        for seed in [6u64, 7, 8] {
            for mode in [IdMode::FreshPerRound, IdMode::FixedAtStart] {
                let run = UdgAlgorithm::new(2)
                    .seed(seed)
                    .id_mode(mode)
                    .run(&udg)
                    .unwrap();
                assert!(
                    is_k_dominating(udg.graph(), &run.set, 2, Semantics::Strict),
                    "infeasible for seed {seed}/{mode:?}"
                );
            }
        }
    }

    #[test]
    fn sparse_graph_promotes_everyone_where_needed() {
        // Nodes far apart: everyone must be a leader.
        let pts = (0..5)
            .map(|i| ftclust_geometry::Point::new(10.0 * i as f64, 0.0))
            .collect();
        let udg = ftclust_graphs::UnitDiskGraph::build(pts, 1.0).unwrap();
        let run = UdgAlgorithm::new(3).run(&udg).unwrap();
        assert_eq!(run.set.len(), 5);
    }

    #[test]
    fn tiny_inputs() {
        let udg =
            ftclust_graphs::UnitDiskGraph::build(vec![ftclust_geometry::Point::new(0.0, 0.0)], 1.0)
                .unwrap();
        let run = UdgAlgorithm::new(1).run(&udg).unwrap();
        assert_eq!(run.set.len(), 1);
        let udg2 = ftclust_graphs::UnitDiskGraph::build(
            vec![
                ftclust_geometry::Point::new(0.0, 0.0),
                ftclust_geometry::Point::new(0.5, 0.0),
            ],
            1.0,
        )
        .unwrap();
        let run = UdgAlgorithm::new(2).run(&udg2).unwrap();
        assert!(is_k_dominating(
            udg2.graph(),
            &run.set,
            2,
            Semantics::Strict
        ));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let _ = UdgAlgorithm::new(0);
    }

    #[test]
    fn part2_stall_seeds_end_valid() {
        // On these inputs Part I leaves a needy node whose neighbours are
        // all non-needy non-leaders, so no leader can ever promote it.
        // Without the promotion loop's join-itself rule the protocol ran
        // out of rounds.
        const STALLS: [u64; 6] = [
            10_749_453_558_406_301_921,
            17_047_879_759_299_074_604,
            11_320_426_731_161_093_830,
            355_869_313_767_018_718,
            145_965_816_974_539_237,
            10_026_404_698_645_212_708,
        ];
        // Three more stalls, found among the first 3,000 input seeds of
        // the benchmark harness's seed stream (master seed 0); the last
        // also stalls at k = 2.
        const MORE: [u64; 3] = [
            4_608_076_073_953_868_773,
            8_023_844_293_310_081_562,
            9_030_918_559_339_608_734,
        ];
        let cases = STALLS.iter().chain(&MORE).map(|&s| (1, s)).chain([
            (2, STALLS[0]),
            (2, STALLS[5]),
            (2, MORE[2]),
        ]);
        for (k, s) in cases {
            let udg = generators::random_udg(300, 12.0, 1.0, s);
            let out = UdgAlgorithm::new(k).seed(s).run(&udg);
            let run = out.unwrap_or_else(|e| panic!("k={k}, seed {s}: {e}"));
            assert!(
                is_k_dominating(udg.graph(), &run.set, k, Semantics::Strict),
                "not {k}-dominating (seed {s})"
            );
        }
    }

    #[test]
    fn schedule_rejects_radii_a_deployment_rejects() {
        for r in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(theta_schedule(100, r), Err(KmdsError::InvalidInput { .. })),
                "radius {r}"
            );
        }
    }

    /// Whether `square_limit(θ)` decides "within `θ`" as the square root
    /// does, at `T` itself, the doubles either side of it, `θ²` and the
    /// squares `(θ·u)²` and `(θ·(1 + e))²`.
    fn limit_agrees_with_sqrt(theta: f64, u: f64, e: f64) {
        let limit = square_limit(theta);
        let (a, b) = (theta * u, theta * (1.0 + e));
        for s in [
            limit,
            limit.next_up(),
            limit.next_down(),
            theta * theta,
            a * a,
            b * b,
        ] {
            assert_eq!(
                s <= limit,
                s.sqrt() <= theta,
                "θ = {theta:e}, T = {limit:e}, s = {s:e}"
            );
        }
        assert!(limit.sqrt() <= theta && limit.next_up().sqrt() > theta);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        #[test]
        fn square_limit_is_exact(
            n in 2usize..=1_000_000,
            r in 1e-3f64..1e3,
            u in 0.0f64..1.5,
            e in -1e-15f64..1e-15,
        ) {
            for n in [n, 2, 1_000_000] {
                for radius in [r, 1e-3, 0.7, 1.0, 2.5, 1e3] {
                    for theta in theta_schedule(n, radius).unwrap() {
                        limit_agrees_with_sqrt(theta, u, e);
                    }
                }
            }
        }
    }

    #[test]
    fn schedule_ends_at_half_radius() {
        for n in [1usize, 2, 10, 100, 10_000, 1_000_000] {
            for r in [1.0, 2.5] {
                let s = theta_schedule(n, r).unwrap();
                assert!(!s.is_empty());
                assert!((s.last().unwrap() - 0.5 * r).abs() < 1e-12, "n={n}");
                // Doubling until the cap.
                for w in s.windows(2) {
                    assert!(w[1] >= w[0] - 1e-12);
                    assert!(w[1] <= 2.0 * w[0] + 1e-12);
                }
                assert!(s.iter().all(|&t| t <= 0.5 * r + 1e-12));
            }
        }
    }

    #[test]
    fn dense_clique_keeps_one_leader() {
        // All nodes within θ₁ of each other: a single election winner
        // survives every round.
        let pts: Vec<_> = (0..50)
            .map(|i| ftclust_geometry::Point::new(1e-6 * i as f64, 0.0))
            .collect();
        let udg = ftclust_graphs::UnitDiskGraph::build(pts, 1.0).unwrap();
        let run = UdgAlgorithm::new(1).seed(3).run(&udg).unwrap();
        assert_eq!(run.leaders.len(), 1);
    }

    #[test]
    fn isolated_nodes_all_become_leaders() {
        let pts: Vec<_> = (0..6)
            .map(|i| ftclust_geometry::Point::new(5.0 * i as f64, 0.0))
            .collect();
        let udg = ftclust_graphs::UnitDiskGraph::build(pts, 1.0).unwrap();
        let run = UdgAlgorithm::new(1).run(&udg).unwrap();
        assert_eq!(run.leaders.len(), 6);
    }

    #[test]
    fn lemma_5_1_leaders_dominate() {
        for seed in 0..5 {
            let udg = generators::random_udg(500, 9.0, 1.0, 100 + seed);
            let run = UdgAlgorithm::new(1).seed(seed).run(&udg).unwrap();
            assert!(
                is_k_dominating(udg.graph(), &run.leaders, 1, Semantics::Strict),
                "Lemma 5.1 violated at seed {seed}"
            );
        }
    }

    #[test]
    fn sparsification_shrinks_dense_deployments() {
        // 2000 nodes in a 4×4 area (radius 1): the leader density is
        // governed by the area (Lemma 5.5: O(1) per radius-1/2 disk ⇒
        // a few dozen overall), not by n.
        let udg = generators::random_udg_in_square(2000, 4.0, 1.0, 8);
        let run = UdgAlgorithm::new(1).seed(1).run(&udg).unwrap();
        assert!(
            run.leaders.len() < 200,
            "no sparsification: {} leaders in a 16-unit² area",
            run.leaders.len()
        );
    }

    #[test]
    fn fixed_ids_still_dominate() {
        let udg = generators::random_udg(300, 10.0, 1.0, 12);
        let run = UdgAlgorithm::new(1)
            .seed(2)
            .id_mode(IdMode::FixedAtStart)
            .run(&udg)
            .unwrap();
        assert!(is_k_dominating(
            udg.graph(),
            &run.leaders,
            1,
            Semantics::Strict
        ));
    }
}
