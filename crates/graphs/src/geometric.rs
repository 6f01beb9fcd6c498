use crate::builder::csr_from_pairs;
use crate::{Graph, GraphError, NodeId};
use ftclust_geometry::{Point, SpatialGrid};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A unit disk graph (UDG): nodes embedded in the Euclidean plane with an
/// edge between `u` and `v` iff `dist(u, v) ≤ radius`.
///
/// This is the network model of Section 5 of the paper (with `radius = 1`
/// conventionally). Nodes can *sense distances* to their neighbors —
/// [`UnitDiskGraph::distance`] — which the UDG algorithm relies on to
/// restrict attention to neighbors within its per-round range `θ` (a
/// simulated node senses them, squared, through the simulator's
/// topology).
///
/// Construction uses a flat spatial grid, so building a UDG over `n` points
/// costs `O(n + m)` expected time rather than `O(n²)`.
///
/// # Example
///
/// ```
/// use ftclust_geometry::Point;
/// use ftclust_graphs::{NodeId, UnitDiskGraph};
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0), Point::new(5.0, 5.0)];
/// let udg = UnitDiskGraph::build(pts, 1.0)?;
/// assert!(udg.graph().has_edge(NodeId::new(0), NodeId::new(1)));
/// assert_eq!(udg.graph().degree(NodeId::new(2)), 0);
/// assert!((udg.distance(NodeId::new(0), NodeId::new(1)) - 0.8).abs() < 1e-12);
/// # Ok::<(), ftclust_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnitDiskGraph {
    graph: Graph,
    positions: Vec<Point>,
    radius: f64,
}

impl UnitDiskGraph {
    /// Builds the unit disk graph over `positions` with connection radius
    /// `radius`. Coincident points are fine: they become mutually adjacent
    /// distinct nodes.
    ///
    /// Each node `i` queries a [`SpatialGrid`] with cells of side `radius`
    /// once and emits each edge `(i, j)` with `j > i`, so every edge is
    /// found once, in ascending order of `i`, and goes straight into the
    /// CSR arrays without a global sort.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidRadius`] if `radius` is not strictly
    /// positive and finite, and [`GraphError::NonFinitePosition`] if a
    /// position has a non-finite coordinate.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` positions.
    pub fn build(positions: Vec<Point>, radius: f64) -> Result<UnitDiskGraph, GraphError> {
        if !(radius.is_finite() && radius > 0.0) {
            return Err(GraphError::InvalidRadius { radius });
        }
        if let Some(node) = positions.iter().position(|p| !p.is_finite()) {
            return Err(GraphError::NonFinitePosition { node });
        }
        let n = positions.len();
        assert!(n <= u32::MAX as usize, "too many nodes");
        let grid = SpatialGrid::build(&positions, radius);
        let mut pairs = Vec::new();
        for (i, &p) in (0u32..).zip(&positions) {
            grid.for_each_within(p, radius, |j| {
                if j > i {
                    pairs.push((i, j));
                }
            });
        }
        Ok(UnitDiskGraph {
            graph: csr_from_pairs(n, &pairs),
            positions,
            radius,
        })
    }

    /// The underlying combinatorial graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Node positions, indexed by [`NodeId::index`].
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Position of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn position(&self, v: NodeId) -> Point {
        self.positions[v.index()]
    }

    /// The connection radius.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of nodes (convenience for `graph().node_count()`).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Sensed Euclidean distance between `u` and `v` (the paper's model
    /// assumption: *"nodes can sense the distance between themselves and
    /// their neighbors"*). Defined for any pair, adjacent or not.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    #[inline]
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        self.position(u).dist(self.position(v))
    }

    /// Bounding box of the node positions as `(lower_left, upper_right)`,
    /// or `None` for an empty graph.
    pub fn bounding_box(&self) -> Option<(Point, Point)> {
        if self.positions.is_empty() {
            return None;
        }
        let mut lo = self.positions[0];
        let mut hi = self.positions[0];
        for p in &self.positions {
            lo.x = lo.x.min(p.x);
            lo.y = lo.y.min(p.y);
            hi.x = hi.x.max(p.x);
            hi.y = hi.y.max(p.y);
        }
        Some((lo, hi))
    }
}

impl fmt::Display for UnitDiskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "udg(n={}, m={}, r={})",
            self.node_count(),
            self.graph.edge_count(),
            self.radius
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    #[test]
    fn edges_iff_within_radius() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),  // exactly at radius: edge
            Point::new(0.0, 1.01), // just outside: no edge
        ];
        let udg = UnitDiskGraph::build(pts, 1.0).unwrap();
        assert!(udg.graph().has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!udg.graph().has_edge(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn coincident_points_are_adjacent_distinct_nodes() {
        let pts = vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        let udg = UnitDiskGraph::build(pts, 0.5).unwrap();
        assert_eq!(udg.node_count(), 2);
        assert!(udg.graph().has_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(udg.distance(NodeId::new(0), NodeId::new(1)), 0.0);
    }

    #[test]
    fn bounding_box_covers_all_points() {
        let pts = vec![Point::new(-1.0, 2.0), Point::new(3.0, -4.0)];
        let udg = UnitDiskGraph::build(pts, 1.0).unwrap();
        let (lo, hi) = udg.bounding_box().unwrap();
        assert_eq!((lo.x, lo.y), (-1.0, -4.0));
        assert_eq!((hi.x, hi.y), (3.0, 2.0));
        let empty = UnitDiskGraph::build(vec![], 1.0).unwrap();
        assert!(empty.bounding_box().is_none());
    }

    #[test]
    fn rejects_bad_radii() {
        for radius in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = UnitDiskGraph::build(vec![Point::ORIGIN], radius).unwrap_err();
            assert!(
                matches!(err, GraphError::InvalidRadius { radius: r } if r.to_bits() == radius.to_bits()),
                "radius {radius}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_non_finite_positions() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let pts = vec![Point::ORIGIN, Point::new(1.0, 1.0), Point::new(0.5, bad)];
            assert_eq!(
                UnitDiskGraph::build(pts, 1.0).unwrap_err(),
                GraphError::NonFinitePosition { node: 2 }
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn udg_matches_brute_force(
            coords in proptest::collection::vec((-2.5f64..2.5, -2.5f64..2.5), 0..60),
            dups in proptest::collection::vec(0usize..1000, 0..10),
            wide in 0u8..2,
            radius in 0.2f64..2.0,
        ) {
            // `wide` spreads the points over ±10⁹ with a radius of 10⁻⁶,
            // so only the copies below are close enough to be adjacent.
            let (scale, radius) = if wide == 1 { (4e8, 1e-6) } else { (1.0, radius) };
            let mut pts: Vec<Point> =
                coords.into_iter().map(|(x, y)| Point::new(x * scale, y * scale)).collect();
            if !pts.is_empty() {
                for d in dups {
                    // An exact copy and one a fraction of the radius away.
                    let p = pts[d % pts.len()];
                    pts.push(p);
                    pts.push(Point::new(p.x - 0.3 * radius, p.y + 0.3 * radius));
                }
            }
            let udg = UnitDiskGraph::build(pts.clone(), radius).unwrap();
            // The brute-force edge set, fed to `GraphBuilder` backwards:
            // both assemblies must return the same `Graph`.
            let mut b = GraphBuilder::new(pts.len() as u32);
            for i in (0..pts.len()).rev() {
                for j in 0..i {
                    if pts[i].dist_sq(pts[j]) <= radius * radius {
                        b.add_edge(i as u32, j as u32).unwrap();
                    }
                }
            }
            prop_assert_eq!(udg.graph(), &b.build());
        }
    }
}
