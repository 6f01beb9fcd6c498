use crate::{GraphBuilder, GraphError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Identifier of a node in a [`Graph`]: a dense index in `0..node_count`.
///
/// `NodeId` is a transparent `u32` newtype; convert with [`NodeId::new`],
/// [`NodeId::index`] and the `From` impls.
///
/// # Example
///
/// ```
/// use ftclust_graphs::NodeId;
///
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(u32::from(v), 3);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index as a `usize`, for array indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(i: u32) -> Self {
        NodeId(i)
    }
}

impl From<NodeId> for u32 {
    #[inline]
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A compact, immutable, simple undirected graph.
///
/// Stored in compressed-sparse-row (CSR) form with each adjacency list
/// sorted, so that:
///
/// * `neighbors(v)` is a contiguous slice,
/// * `has_edge(u, v)` is a binary search (`O(log δ(u))`),
/// * every *directed slot* `(u → v)` has a stable index in
///   `0..2·edge_count`, addressable via [`Graph::slot_range`] and invertible
///   via [`Graph::reverse_slots`]. The distributed LP algorithm uses slots
///   to store the per-neighbor dual variables `α_{j,i}` and `β_{j,i}`
///   without hashing.
///
/// Construct via [`Graph::from_edges`] or [`GraphBuilder`]. Duplicate edges
/// are merged; self-loops are rejected (the paper's model assumes simple
/// graphs, with the closed neighborhood `N_v ∋ v` handled explicitly by the
/// algorithms).
///
/// # Example
///
/// ```
/// use ftclust_graphs::{Graph, NodeId};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
/// assert_eq!(g.neighbors(NodeId::new(1)), &[NodeId::new(0), NodeId::new(2)]);
/// assert_eq!(g.max_degree(), 2);
/// # Ok::<(), ftclust_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// CSR row offsets; `offsets[v]..offsets[v+1]` indexes `targets`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    targets: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph with `node_count` nodes from an edge list.
    ///
    /// Duplicate edges (in either orientation) are merged.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] for edges `(v, v)` and
    /// [`GraphError::NodeOutOfRange`] for endpoints `≥ node_count`.
    pub fn from_edges(node_count: u32, edges: &[(u32, u32)]) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(node_count);
        for &(u, v) in edges {
            b.add_edge(u, v)?;
        }
        Ok(b.build())
    }

    /// Builds a graph with no edges.
    pub fn empty(node_count: u32) -> Graph {
        GraphBuilder::new(node_count).build()
    }

    /// Internal constructor from validated, sorted, deduplicated CSR parts.
    pub(crate) fn from_csr(offsets: Vec<usize>, targets: Vec<NodeId>) -> Graph {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets.last().copied(), Some(targets.len()));
        Graph { offsets, targets }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Iterator over all node ids, `v0, v1, …`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// The sorted open neighborhood of `v` (excluding `v` itself).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.slot_range(v)]
    }

    /// Iterator over the closed neighborhood `N_v = {v} ∪ neighbors(v)`
    /// (the paper's `N_v`), with `v` first.
    pub fn closed_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(v).chain(self.neighbors(v).iter().copied())
    }

    /// Degree of `v` (size of the open neighborhood).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// The maximum degree `Δ` over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(NodeId::new(v as u32)))
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if the undirected edge `{u, v}` exists.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Total number of directed slots (`2 · edge_count`).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.targets.len()
    }

    /// The contiguous range of directed-slot indices for edges out of `v`.
    ///
    /// Slot `slot_range(v).start + i` corresponds to the directed edge
    /// `(v → neighbors(v)[i])`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn slot_range(&self, v: NodeId) -> Range<usize> {
        self.offsets[v.index()]..self.offsets[v.index() + 1]
    }

    /// The directed-slot index of `(u → v)`, if the edge exists.
    pub fn slot_of(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let r = self.slot_range(u);
        self.neighbors(u)
            .binary_search(&v)
            .ok()
            .map(|i| r.start + i)
    }

    /// For every directed slot `(u → v)`, the index of the reverse slot
    /// `(v → u)`. The returned vector has length [`Graph::slot_count`] and
    /// is an involution.
    ///
    /// Used by the distributed LP algorithm: node `i` computes
    /// `z_i = Σ_{j∈N_i} (α_{i,j} y_j − β_{i,j})` where `α_{i,j}` is stored
    /// at node `j` in the slot `(j → i)` — the reverse of `(i → j)`.
    ///
    /// O(n + m): senders are visited in ascending id order, so the slots
    /// `(v → u)` of each receiver `v` are met in its sorted row order, and
    /// one cursor per node hands them out without a search.
    pub fn reverse_slots(&self) -> Vec<u32> {
        let mut rev = vec![0u32; self.slot_count()];
        let mut cursor: Vec<usize> = self.offsets[..self.node_count()].to_vec();
        for u in self.nodes() {
            for (forward, &v) in self.slot_range(u).zip(self.neighbors(u)) {
                let backward = cursor[v.index()];
                debug_assert_eq!(self.targets[backward], u, "CSR adjacency is symmetric");
                cursor[v.index()] += 1;
                rev[forward] = backward as u32;
            }
        }
        rev
    }

    /// The subgraph induced by `keep` (nodes not in `keep` are removed along
    /// with their edges), together with the mapping from new ids to original
    /// ids.
    ///
    /// `keep` may be in any order; duplicates are ignored. New ids are
    /// assigned in increasing order of original id.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let n = self.node_count();
        let mut selected = vec![false; n];
        for &v in keep {
            selected[v.index()] = true;
        }
        let mut old_of_new = Vec::new();
        let mut new_of_old = vec![u32::MAX; n];
        for v in 0..n {
            if selected[v] {
                new_of_old[v] = old_of_new.len() as u32;
                old_of_new.push(NodeId::new(v as u32));
            }
        }
        let mut b = GraphBuilder::new(old_of_new.len() as u32);
        for &(u, v) in self
            .edges()
            .collect::<Vec<_>>()
            .iter()
            .filter(|(u, v)| selected[u.index()] && selected[v.index()])
        {
            if b.add_edge(new_of_old[u.index()], new_of_old[v.index()])
                .is_err()
            {
                unreachable!("remapped edges stay simple and in range");
            }
        }
        (b.build(), old_of_new)
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph(n={}, m={}, Δ={})",
            self.node_count(),
            self.edge_count(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = c4();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.slot_count(), 8);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(4, &[(0, 3), (0, 1), (0, 2)]).unwrap();
        assert_eq!(
            g.neighbors(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2), NodeId::new(3)]
        );
    }

    #[test]
    fn closed_neighbors_start_with_self() {
        let g = c4();
        let cn: Vec<_> = g.closed_neighbors(NodeId::new(1)).collect();
        assert_eq!(cn, vec![NodeId::new(1), NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn duplicate_edges_are_merged() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::NodeOutOfRange {
                node: 2,
                node_count: 2
            })
        );
    }

    #[test]
    fn has_edge_both_directions() {
        let g = c4();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn edges_iterator_yields_canonical_pairs() {
        let g = c4();
        let mut edges: Vec<_> = g.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(Graph::empty(0).node_count(), 0);
    }

    #[test]
    fn reverse_slots_is_involution() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let rev = g.reverse_slots();
        assert_eq!(rev.len(), g.slot_count());
        for s in 0..rev.len() {
            assert_eq!(rev[rev[s] as usize] as usize, s);
        }
        // Check semantics on one concrete slot.
        let s01 = g.slot_of(NodeId::new(0), NodeId::new(1)).unwrap();
        let s10 = g.slot_of(NodeId::new(1), NodeId::new(0)).unwrap();
        assert_eq!(rev[s01] as usize, s10);
    }

    /// `reverse_slots` against its definition: the slot of `(u → v)` maps
    /// to `slot_of(v, u)`.
    fn assert_reverse_slots_match_slot_of(g: &Graph) {
        let rev = g.reverse_slots();
        assert_eq!(rev.len(), g.slot_count());
        for u in g.nodes() {
            for (s, &v) in g.slot_range(u).zip(g.neighbors(u)) {
                assert_eq!(
                    Some(rev[s] as usize),
                    g.slot_of(v, u),
                    "slot {s} = ({u} → {v})"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn reverse_slots_match_slot_of_on_generator_graphs(
            n in 0u32..120,
            p in 0.0f64..0.3,
            seed in 0u64..1_000,
        ) {
            use crate::generators;
            assert_reverse_slots_match_slot_of(&generators::gnp(n, p, seed));
            assert_reverse_slots_match_slot_of(&generators::barabasi_albert(n.max(3), 2, seed));
            assert_reverse_slots_match_slot_of(&generators::random_tree(n, seed));
            assert_reverse_slots_match_slot_of(&generators::watts_strogatz(n.max(5), 2, p, seed));
            assert_reverse_slots_match_slot_of(
                generators::random_udg(n.max(1), 8.0, 1.0, seed).graph(),
            );
            assert_reverse_slots_match_slot_of(&generators::grid_2d(n % 11 + 1, n % 7 + 1));
            assert_reverse_slots_match_slot_of(&generators::complete(n % 13));
            assert_reverse_slots_match_slot_of(&generators::empty(n));
        }
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = c4();
        let (sub, map) = g.induced_subgraph(&[NodeId::new(0), NodeId::new(1), NodeId::new(3)]);
        assert_eq!(sub.node_count(), 3);
        // Edges 0-1 and 3-0 survive; 1-2 and 2-3 are dropped.
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(map, vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]);
        // new id 0 = old 0, new 1 = old 1: edge exists
        assert!(sub.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(sub.has_edge(NodeId::new(0), NodeId::new(2))); // old 0-3
        assert!(!sub.has_edge(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn induced_subgraph_with_duplicates_and_empty() {
        let g = c4();
        let (sub, map) = g.induced_subgraph(&[NodeId::new(2), NodeId::new(2)]);
        assert_eq!(sub.node_count(), 1);
        assert_eq!(sub.edge_count(), 0);
        assert_eq!(map, vec![NodeId::new(2)]);
        let (sub, map) = g.induced_subgraph(&[]);
        assert_eq!(sub.node_count(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(7).to_string(), "v7");
        assert_eq!(c4().to_string(), "graph(n=4, m=4, Δ=2)");
    }

    #[test]
    fn node_id_ordering_matches_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::from(5u32).index(), 5);
    }
}
