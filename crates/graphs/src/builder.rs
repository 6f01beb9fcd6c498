use crate::{Graph, GraphError, NodeId};

/// Incremental, validated construction of a [`Graph`].
///
/// Edges may be added in any order and orientation; duplicates are merged at
/// [`GraphBuilder::build`] time. Self-loops and out-of-range endpoints are
/// rejected eagerly by [`GraphBuilder::add_edge`].
///
/// # Example
///
/// ```
/// use ftclust_graphs::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(2, 1)?;
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), ftclust_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: u32,
    /// Canonicalized (min, max) endpoint pairs.
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `node_count` nodes and no edges.
    pub fn new(node_count: u32) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v`, or
    /// [`GraphError::NodeOutOfRange`] if either endpoint is `≥ node_count`.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<&mut Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        for w in [u, v] {
            if w >= self.node_count {
                return Err(GraphError::NodeOutOfRange {
                    node: w,
                    node_count: self.node_count,
                });
            }
        }
        self.edges.push((u.min(v), u.max(v)));
        Ok(self)
    }

    /// Builds the graph, sorting adjacency lists and merging duplicate
    /// edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        csr_from_pairs(self.node_count as usize, &self.edges)
    }
}

/// Assembles the CSR [`Graph`] on `n` nodes from undirected pairs
/// `(u, v)` with `u < v < n`, each listed once and grouped by ascending
/// `u`: a degree count, a fill, then a per-node sort.
///
/// The grouping puts every node's lower-numbered neighbors first and in
/// ascending order, so the sort only has to order each node's own pairs
/// (and is a linear pass when they are sorted already).
pub(crate) fn csr_from_pairs(n: usize, pairs: &[(u32, u32)]) -> Graph {
    let mut offsets = vec![0usize; n + 1];
    for &(u, v) in pairs {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut targets = vec![NodeId::new(0); 2 * pairs.len()];
    for &(u, v) in pairs {
        targets[cursor[u as usize]] = NodeId::new(v);
        cursor[u as usize] += 1;
        targets[cursor[v as usize]] = NodeId::new(u);
        cursor[v as usize] += 1;
    }
    for v in 0..n {
        targets[offsets[v]..offsets[v + 1]].sort_unstable();
    }
    Graph::from_csr(offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn chaining_works() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap().add_edge(1, 2).unwrap();
        assert_eq!(b.node_count(), 4);
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn rejects_bad_edges_eagerly() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add_edge(0, 0).is_err());
        assert!(b.add_edge(0, 5).is_err());
        assert!(b.add_edge(9, 1).is_err());
        assert_eq!(b.build().edge_count(), 0);
    }

    #[test]
    fn merges_duplicates_in_both_orientations() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(2, 1).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn zero_node_graph_builds() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn built_graph_is_simple_sorted_and_symmetric(
            n in 1u32..40,
            raw_edges in proptest::collection::vec((0u32..40, 0u32..40), 0..200),
        ) {
            let mut b = GraphBuilder::new(n);
            for (u, v) in raw_edges {
                if u != v && u < n && v < n {
                    b.add_edge(u, v).unwrap();
                }
            }
            let g = b.build();
            let mut degree_sum = 0;
            for v in g.nodes() {
                let nb = g.neighbors(v);
                degree_sum += nb.len();
                // sorted and strictly increasing (no duplicates)
                prop_assert!(nb.windows(2).all(|w| w[0] < w[1]));
                // no self loops
                prop_assert!(!nb.contains(&v));
                // symmetric
                for &u in nb {
                    prop_assert!(g.has_edge(u, v));
                }
            }
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
        }
    }
}
