//! Breadth-first traversal, connectivity and distances.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// BFS hop distances from `src`; `None` for unreachable nodes.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[src.index()] = Some(0);
    queue.push_back((src, 0u32));
    while let Some((u, du)) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back((v, du + 1));
            }
        }
    }
    dist
}

/// The partition of a graph's nodes into connected components.
///
/// Produced by [`connected_components`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    labels: Vec<u32>,
    count: usize,
}

impl Components {
    /// Component label of `v` (labels are dense in `0..component_count`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label(&self, v: NodeId) -> u32 {
        self.labels[v.index()]
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        self.count
    }
}

/// Computes connected components by repeated BFS.
pub fn connected_components(g: &Graph) -> Components {
    let n = g.node_count();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if labels[s] != u32::MAX {
            continue;
        }
        labels[s] = count;
        queue.push_back(NodeId::new(s as u32));
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if labels[v.index()] == u32::MAX {
                    labels[v.index()] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    Components {
        labels,
        count: count as usize,
    }
}

/// Returns `true` if the graph is connected (vacuously true for `n ≤ 1`).
pub fn is_connected(g: &Graph) -> bool {
    g.node_count() <= 1 || connected_components(g).component_count() == 1
}

/// The articulation points (cut vertices) of the graph: nodes whose
/// removal increases the number of connected components. Computed with
/// Tarjan's low-link algorithm (iterative, so deep graphs don't overflow
/// the stack), in `O(n + m)`.
///
/// Used by the backbone analysis: a *connected* backbone that still has
/// articulation points loses connectivity when a single head fails, so a
/// fault-tolerant deployment wants the backbone's articulation set small.
///
/// # Example
///
/// ```
/// use ftclust_graphs::{generators, traversal::articulation_points, NodeId};
///
/// // In a path, every interior node is an articulation point.
/// let cuts = articulation_points(&generators::path(5));
/// assert_eq!(cuts, vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
/// // A cycle has none.
/// assert!(articulation_points(&generators::cycle(5)).is_empty());
/// ```
pub fn articulation_points(g: &Graph) -> Vec<NodeId> {
    let n = g.node_count();
    let mut disc = vec![u32::MAX; n]; // discovery times
    let mut low = vec![u32::MAX; n];
    let mut parent = vec![u32::MAX; n];
    let mut is_cut = vec![false; n];
    let mut timer = 0u32;
    for root in 0..n {
        if disc[root] != u32::MAX {
            continue;
        }
        // Iterative DFS: stack of (node, index into its adjacency list).
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        let mut root_children = 0u32;
        while let Some(&mut (u, ref mut idx)) = stack.last_mut() {
            let neighbors = g.neighbors(NodeId::new(u as u32));
            if *idx < neighbors.len() {
                let v = neighbors[*idx].index();
                *idx += 1;
                if disc[v] == u32::MAX {
                    parent[v] = u as u32;
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    if u == root {
                        root_children += 1;
                    }
                    stack.push((v, 0));
                } else if v as u32 != parent[u] {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    low[p] = low[p].min(low[u]);
                    if p != root && low[u] >= disc[p] {
                        is_cut[p] = true;
                    }
                }
            }
        }
        is_cut[root] = root_children >= 2;
    }
    (0..n)
        .filter(|&v| is_cut[v])
        .map(|v| NodeId::new(v as u32))
        .collect()
}

/// Exact diameter by all-pairs BFS — `O(n·(n+m))`, intended for small
/// graphs. Returns `None` if the graph is disconnected or empty.
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.node_count() == 0 || !is_connected(g) {
        return None;
    }
    let mut best = 0;
    for v in g.nodes() {
        for d in bfs_distances(g, v).into_iter().flatten() {
            best = best.max(d);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(4);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d[2], None);
    }

    #[test]
    fn components_of_disjoint_paths() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.component_count(), 3);
        assert_eq!(c.label(NodeId::new(0)), c.label(NodeId::new(2)));
        assert_ne!(c.label(NodeId::new(0)), c.label(NodeId::new(3)));
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&generators::cycle(5)));
        assert!(!is_connected(&generators::empty(2)));
        assert!(is_connected(&generators::empty(1)));
        assert!(is_connected(&generators::empty(0)));
    }

    #[test]
    fn articulation_points_of_known_graphs() {
        use super::articulation_points;
        // Star: the center is the only cut vertex.
        assert_eq!(
            articulation_points(&generators::star(6)),
            vec![NodeId::new(0)]
        );
        // Complete graph: none.
        assert!(articulation_points(&generators::complete(6)).is_empty());
        // Two triangles sharing node 2: the shared node cuts.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]).unwrap();
        assert_eq!(articulation_points(&g), vec![NodeId::new(2)]);
        // Bridge graph: both bridge endpoints with further neighbors cut.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
            .unwrap();
        assert_eq!(
            articulation_points(&g),
            vec![NodeId::new(2), NodeId::new(3)]
        );
        // Disconnected pieces are handled independently.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        assert_eq!(
            articulation_points(&g),
            vec![NodeId::new(1), NodeId::new(4)]
        );
        assert!(articulation_points(&generators::empty(4)).is_empty());
    }

    #[test]
    fn articulation_points_match_brute_force() {
        use super::articulation_points;
        // Brute force: remove each vertex, count components among the rest.
        for seed in 0..10u64 {
            let g = generators::gnp(25, 0.12, seed);
            let base = connected_components(&g).component_count();
            let expected: Vec<NodeId> = g
                .nodes()
                .filter(|&v| {
                    let keep: Vec<NodeId> = g.nodes().filter(|&w| w != v).collect();
                    let (sub, _) = g.induced_subgraph(&keep);
                    // Removing an isolated node removes a whole component.
                    let delta = connected_components(&sub).component_count() as i64
                        - (base as i64 - i64::from(g.degree(v) == 0));
                    delta > 0
                })
                .collect();
            assert_eq!(articulation_points(&g), expected, "seed {seed}");
        }
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::path(5)), Some(4));
        assert_eq!(diameter(&generators::cycle(6)), Some(3));
        assert_eq!(diameter(&generators::complete(7)), Some(1));
        assert_eq!(diameter(&generators::star(9)), Some(2));
        assert_eq!(diameter(&generators::empty(2)), None);
        assert_eq!(diameter(&generators::empty(0)), None);
    }
}
