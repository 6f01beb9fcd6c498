use ftclust_geometry::Point;
use ftclust_graphs::{Graph, NodeId, UnitDiskGraph};

/// The network topology a [`crate::Simulator`] runs on: a graph, optionally
/// with planar node positions (for unit disk graphs with distance sensing).
///
/// Borrowed, not owned: simulations are cheap to set up over existing
/// graphs.
#[derive(Debug, Clone, Copy)]
pub struct Topology<'a> {
    graph: &'a Graph,
    positions: Option<&'a [Point]>,
}

impl<'a> Topology<'a> {
    /// A topology without geometry (general graphs, Section 4 model).
    pub fn from_graph(graph: &'a Graph) -> Self {
        Topology {
            graph,
            positions: None,
        }
    }

    /// A topology with distance sensing (unit disk graphs, Section 5
    /// model).
    pub fn from_udg(udg: &'a UnitDiskGraph) -> Self {
        Topology {
            graph: udg.graph(),
            positions: Some(udg.positions()),
        }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Node positions, if this is a geometric topology.
    #[inline]
    pub fn positions(&self) -> Option<&'a [Point]> {
        self.positions
    }

    /// The squared sensed distance from `u` to each of its neighbors, in
    /// the order of `graph().neighbors(u)`; `None` when the topology has no
    /// geometry. Its square root is exactly [`UnitDiskGraph::distance`].
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn sq_distances(&self, u: NodeId) -> Option<impl ExactSizeIterator<Item = f64> + 'a> {
        let pos = self.positions?;
        let here = pos[u.index()];
        let row = self.graph.neighbors(u);
        Some(row.iter().map(move |v| here.dist_sq(pos[v.index()])))
    }
}

/// Position of `peer` in the sorted, duplicate-free neighbour `row`, or
/// `None` when it is not there. Senders and receivers mostly walk a row in
/// ascending order, one neighbour after the other, so the search first
/// reads the entry after `hint` (the previous position) and `hint` itself
/// (a repeated peer); any other peer is binary-searched. Reading further
/// ahead does not pay: where a walk skips neighbours, the skips vary, and
/// a mispredicted scan costs more than the branch-free binary search.
#[inline]
pub(crate) fn seek(row: &[NodeId], peer: NodeId, hint: usize) -> Option<usize> {
    let next = hint.saturating_add(1);
    if row.get(next) == Some(&peer) {
        return Some(next);
    }
    if row.get(hint) == Some(&peer) {
        return Some(hint);
    }
    row.binary_search(&peer).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclust_graphs::generators;

    #[test]
    fn graph_topology_has_no_distances() {
        let g = generators::path(3);
        let t = Topology::from_graph(&g);
        assert!(t.sq_distances(NodeId::new(1)).is_none());
        assert_eq!(t.graph().node_count(), 3);
        assert!(t.positions().is_none());
    }

    #[test]
    fn udg_topology_senses_squared_distances_along_the_row() {
        let udg = generators::random_udg(40, 5.0, 1.0, 1);
        let t = Topology::from_udg(&udg);
        for u in udg.graph().nodes() {
            let row = udg.graph().neighbors(u);
            let sq: Vec<f64> = t.sq_distances(u).unwrap().collect();
            assert_eq!(sq.len(), row.len());
            for (&v, &d2) in row.iter().zip(&sq) {
                assert_eq!(d2.sqrt(), udg.distance(u, v), "{u}-{v}");
            }
        }
        assert!(t.positions().is_some());
    }

    #[test]
    fn seek_agrees_with_binary_search_from_every_hint() {
        // Empty, short and long rows, gaps included, hints past the end.
        for len in [0usize, 1, 2, 7, 8, 9, 30] {
            let row: Vec<NodeId> = (0..len as u32).map(|i| NodeId::new(3 * i + 1)).collect();
            for peer in 0..3 * len as u32 + 3 {
                let peer = NodeId::new(peer);
                let expected = row.binary_search(&peer).ok();
                for hint in 0..=len + 1 {
                    assert_eq!(
                        seek(&row, peer, hint),
                        expected,
                        "len {len} {peer} hint {hint}"
                    );
                }
            }
        }
    }
}
