//! Closed-form bounds from the paper's theorems, used by the experiment
//! harness to print measured-vs-predicted tables.

use ftclust_geometry::{Point, SpatialGrid};
use ftclust_graphs::UnitDiskGraph;

/// Theorem 4.5: Algorithm 1 approximates the LP `(PP)` within
/// `t·((Δ+1)^{2/t} + (Δ+1)^{1/t})`.
///
/// # Panics
///
/// Panics if `t == 0`.
pub fn theorem_4_5_bound(t: u32, delta: usize) -> f64 {
    assert!(t >= 1, "t must be at least 1");
    let d1 = (delta + 1) as f64;
    t as f64 * (d1.powf(2.0 / t as f64) + d1.powf(1.0 / t as f64))
}

/// Theorem 4.6: randomized rounding of a `ρ`-approximate fractional
/// solution yields an integral solution of expected ratio
/// `ρ·ln(Δ+1) + O(1)`. The returned value uses the additive constant
/// `c = 2`, which upper-bounds the `E[Y] = O(OPT)` term observed in all
/// experiments.
pub fn theorem_4_6_bound(rho: f64, delta: usize) -> f64 {
    rho * ((delta + 1) as f64).ln() + 2.0
}

/// The locality lower bound of Kuhn, Moscibroda & Wattenhofer (PODC 2004),
/// quoted in the paper's introduction: in `O(t)` rounds no algorithm can
/// approximate (k-)MDS better than `Ω(Δ^{1/t} / t)`. Returned with
/// constant 1 — experiment E10 plots the measured trade-off between this
/// curve and [`theorem_4_5_bound`].
///
/// # Panics
///
/// Panics if `t == 0`.
pub fn kmw_lower_bound(t: u32, delta: usize) -> f64 {
    assert!(t >= 1, "t must be at least 1");
    ((delta as f64).max(1.0)).powf(1.0 / t as f64) / t as f64
}

/// A packing lower bound for unit disk graphs, valid under **both**
/// semantics: greedily selects a set of nodes with pairwise distance
/// `> 2r` (so their radius-`r` balls are disjoint); each ball must contain
/// at least one dominator (the net point itself if it is selected,
/// otherwise one of its `≥ k ≥ 1` dominators), hence
/// `OPT ≥ net size`.
///
/// Deterministic: nodes are scanned in id order.
pub fn udg_packing_lower_bound(udg: &UnitDiskGraph) -> usize {
    let r = udg.radius();
    let pts = udg.positions();
    if pts.is_empty() {
        return 0;
    }
    let grid = SpatialGrid::build(pts, 2.0 * r);
    let mut chosen: Vec<Point> = Vec::new();
    let mut chosen_mask = vec![false; pts.len()];
    for (i, &p) in pts.iter().enumerate() {
        let mut blocked = false;
        grid.for_each_within(p, 2.0 * r, |j| {
            if chosen_mask[j as usize] {
                blocked = true;
            }
        });
        if !blocked {
            chosen_mask[i] = true;
            chosen.push(p);
        }
    }
    chosen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclust_graphs::generators;

    #[test]
    fn theorem_4_5_shapes() {
        // t = 1: (Δ+1)² + (Δ+1).
        assert_eq!(theorem_4_5_bound(1, 3), 16.0 + 4.0);
        // Large t approaches 2t (both powers → 1).
        let b = theorem_4_5_bound(1000, 10);
        assert!(b > 2000.0 && b < 2100.0);
        // Monotone decreasing in t for moderate Δ and small t.
        assert!(theorem_4_5_bound(2, 100) < theorem_4_5_bound(1, 100));
        assert!(theorem_4_5_bound(4, 100) < theorem_4_5_bound(2, 100));
    }

    #[test]
    fn theorem_4_6_grows_logarithmically() {
        let a = theorem_4_6_bound(1.0, 10);
        let b = theorem_4_6_bound(1.0, 100);
        assert!(b > a);
        assert!((a - (11f64.ln() + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn kmw_curve() {
        assert_eq!(kmw_lower_bound(1, 16), 16.0);
        assert!((kmw_lower_bound(2, 16) - 2.0).abs() < 1e-12);
        assert!(kmw_lower_bound(4, 16) < kmw_lower_bound(2, 16));
    }

    #[test]
    fn packing_bound_is_valid_on_clusters() {
        // Two far-apart cliques: net size 2; OPT (k=1) is 2.
        let pts = vec![
            ftclust_geometry::Point::new(0.0, 0.0),
            ftclust_geometry::Point::new(0.1, 0.0),
            ftclust_geometry::Point::new(10.0, 0.0),
            ftclust_geometry::Point::new(10.1, 0.0),
        ];
        let udg = ftclust_graphs::UnitDiskGraph::build(pts, 1.0).unwrap();
        assert_eq!(udg_packing_lower_bound(&udg), 2);
    }

    #[test]
    fn packing_bound_single_cluster() {
        let udg = generators::random_udg_in_square(50, 1.0, 1.0, 3);
        // Everything within distance √2 < 2r·…: with r = 1 and a unit
        // square, all points are within 2 of each other → net size 1.
        assert_eq!(udg_packing_lower_bound(&udg), 1);
    }

    #[test]
    fn packing_bound_empty() {
        let udg = ftclust_graphs::UnitDiskGraph::build(vec![], 1.0).unwrap();
        assert_eq!(udg_packing_lower_bound(&udg), 0);
    }
}
