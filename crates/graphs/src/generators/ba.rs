use super::rng_from_seed;
use crate::{Graph, GraphBuilder};
use rand::Rng;

/// Barabási–Albert preferential-attachment graph.
///
/// Starts from a clique on `m_attach + 1` nodes; each subsequent node
/// attaches to `m_attach` distinct existing nodes chosen with probability
/// proportional to their current degree (implemented with the standard
/// repeated-endpoints urn). Produces heavy-tailed degree distributions —
/// the high-`Δ` stress case for the `O(t Δ^{2/t} log Δ)` approximation
/// bound.
///
/// # Panics
///
/// Panics if `m_attach == 0` or `n < m_attach + 1`.
///
/// # Example
///
/// ```
/// use ftclust_graphs::generators::barabasi_albert;
///
/// let g = barabasi_albert(200, 2, 13);
/// assert_eq!(g.node_count(), 200);
/// assert!(g.max_degree() >= 8); // hubs emerge
/// ```
pub fn barabasi_albert(n: u32, m_attach: u32, seed: u64) -> Graph {
    assert!(m_attach > 0, "m_attach must be positive");
    assert!(
        n > m_attach,
        "need at least m_attach + 1 = {} nodes, got {n}",
        u64::from(m_attach) + 1
    );
    let mut rng = rng_from_seed(seed);
    let mut b = GraphBuilder::new(n);
    // Urn of edge endpoints: each node appears once per incident edge.
    let mut urn: Vec<u32> = Vec::new();
    // Seed clique.
    for u in 0..=m_attach {
        for v in (u + 1)..=m_attach {
            super::add_generated_edge(&mut b, u, v);
            urn.push(u);
            urn.push(v);
        }
    }
    for v in (m_attach + 1)..n {
        let mut chosen: Vec<u32> = Vec::with_capacity(m_attach as usize);
        while chosen.len() < m_attach as usize {
            let pick = urn[rng.random_range(0..urn.len())];
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        for &u in &chosen {
            super::add_generated_edge(&mut b, u, v);
            urn.push(u);
            urn.push(v);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_edge_counts() {
        let n = 100;
        let m = 3;
        let g = barabasi_albert(n, m, 1);
        assert_eq!(g.node_count(), n as usize);
        // Clique on m+1 nodes + m edges per additional node.
        let expected = (m * (m + 1) / 2 + (n - m - 1) * m) as usize;
        assert_eq!(g.edge_count(), expected);
    }

    #[test]
    fn minimum_degree_is_m() {
        let g = barabasi_albert(150, 2, 7);
        for v in g.nodes() {
            assert!(g.degree(v) >= 2);
        }
    }

    #[test]
    fn hubs_dominate_degree_distribution() {
        let g = barabasi_albert(500, 2, 3);
        let mean = 2.0 * g.edge_count() as f64 / 500.0;
        assert!(
            g.max_degree() as f64 > 3.0 * mean,
            "Δ = {}, mean = {mean}",
            g.max_degree()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(barabasi_albert(80, 2, 5), barabasi_albert(80, 2, 5));
        assert_ne!(barabasi_albert(80, 2, 5), barabasi_albert(80, 2, 6));
    }

    #[test]
    #[should_panic(expected = "at least m_attach + 1")]
    fn too_few_nodes_panics() {
        let _ = barabasi_albert(2, 2, 0);
    }

    #[test]
    #[should_panic(expected = "need at least m_attach + 1 = 4294967296 nodes")]
    fn largest_attachment_count_panics_with_its_true_node_count() {
        let _ = barabasi_albert(u32::MAX, u32::MAX, 0);
    }
}
