//! Node mobility models for ad hoc networks.
//!
//! Mobility is one of the paper's three motivations for fault tolerance
//! (Section 1). The [`RandomWaypoint`] model is the standard benchmark
//! dynamic: every node walks toward a private waypoint at constant speed
//! and picks a fresh uniform waypoint on arrival. Rebuild the unit disk
//! graph with [`RandomWaypoint::udg`] whenever the topology is needed.

use crate::{GraphError, UnitDiskGraph};
use ftclust_geometry::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The random-waypoint mobility model over a square field.
///
/// Deterministic per seed. One [`RandomWaypoint::step`] moves every node
/// by at most `speed`.
///
/// # Example
///
/// ```
/// use ftclust_graphs::mobility::RandomWaypoint;
///
/// let mut world = RandomWaypoint::new(100, 10.0, 0.2, 7);
/// let before = world.positions().to_vec();
/// world.step();
/// for (a, b) in before.iter().zip(world.positions()) {
///     assert!(a.dist(*b) <= 0.2 + 1e-12);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    side: f64,
    speed: f64,
    positions: Vec<Point>,
    targets: Vec<Point>,
    rng: StdRng,
    ticks: u64,
}

impl RandomWaypoint {
    /// Scatters `n` nodes uniformly over a `side × side` field.
    ///
    /// # Panics
    ///
    /// Panics if `side` or `speed` is not positive and finite.
    pub fn new(n: u32, side: f64, speed: f64, seed: u64) -> Self {
        assert!(side.is_finite() && side > 0.0, "side must be positive");
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let rand_pt = |rng: &mut StdRng| {
            Point::new(rng.random_range(0.0..=side), rng.random_range(0.0..=side))
        };
        let positions = (0..n).map(|_| rand_pt(&mut rng)).collect();
        let targets = (0..n).map(|_| rand_pt(&mut rng)).collect();
        RandomWaypoint {
            side,
            speed,
            positions,
            targets,
            rng,
            ticks: 0,
        }
    }

    /// Current node positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Elapsed ticks.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The field's side length.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Advances every node one tick toward its waypoint (at most `speed`
    /// distance); nodes that arrive draw a fresh waypoint.
    pub fn step(&mut self) {
        for i in 0..self.positions.len() {
            let to = self.targets[i] - self.positions[i];
            let d = to.norm();
            if d <= self.speed {
                self.positions[i] = self.targets[i];
                self.targets[i] = Point::new(
                    self.rng.random_range(0.0..=self.side),
                    self.rng.random_range(0.0..=self.side),
                );
            } else {
                self.positions[i] = self.positions[i] + to * (self.speed / d);
            }
        }
        self.ticks += 1;
    }

    /// Advances `ticks` steps.
    pub fn advance(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// The unit disk graph over the current positions.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidRadius`] if `radius` is not strictly
    /// positive and finite (the waypoint positions are always finite).
    pub fn udg(&self, radius: f64) -> Result<UnitDiskGraph, GraphError> {
        UnitDiskGraph::build(self.positions.clone(), radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_stay_in_field() {
        let mut w = RandomWaypoint::new(80, 5.0, 0.7, 3);
        w.advance(200);
        for p in w.positions() {
            assert!((0.0..=5.0).contains(&p.x) && (0.0..=5.0).contains(&p.y));
        }
        assert_eq!(w.ticks(), 200);
    }

    #[test]
    fn per_tick_displacement_is_bounded_by_speed() {
        let mut w = RandomWaypoint::new(50, 8.0, 0.3, 9);
        for _ in 0..20 {
            let before = w.positions().to_vec();
            w.step();
            for (a, b) in before.iter().zip(w.positions()) {
                assert!(a.dist(*b) <= 0.3 + 1e-12);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = RandomWaypoint::new(30, 4.0, 0.5, 7);
        let mut b = RandomWaypoint::new(30, 4.0, 0.5, 7);
        a.advance(50);
        b.advance(50);
        assert_eq!(a.positions(), b.positions());
        let mut c = RandomWaypoint::new(30, 4.0, 0.5, 8);
        c.advance(50);
        assert_ne!(a.positions(), c.positions());
    }

    #[test]
    fn nodes_actually_move() {
        let mut w = RandomWaypoint::new(40, 6.0, 0.2, 1);
        let before = w.positions().to_vec();
        w.advance(30);
        let moved = before
            .iter()
            .zip(w.positions())
            .filter(|(a, b)| a.dist(**b) > 0.5)
            .count();
        assert!(moved > 30, "only {moved}/40 nodes moved significantly");
    }

    #[test]
    fn udg_rebuild_reflects_movement() {
        let mut w = RandomWaypoint::new(100, 6.0, 0.5, 2);
        let g0 = w.udg(1.0).unwrap();
        w.advance(40);
        let g1 = w.udg(1.0).unwrap();
        assert_ne!(
            g0.graph(),
            g1.graph(),
            "40 ticks should change the topology"
        );
        assert_eq!(g1.node_count(), 100);
    }
}
