use super::rng_from_seed;
use crate::{Graph, GraphBuilder};
use rand::Rng;

/// Erdős–Rényi random graph `G(n, p)`: each of the `n·(n−1)/2` possible
/// edges is present independently with probability `p`.
///
/// Runs in `O(n + m)` expected time using geometric skipping, so sparse
/// graphs with large `n` are cheap.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
///
/// # Example
///
/// ```
/// use ftclust_graphs::generators::gnp;
///
/// let g = gnp(100, 0.05, 7);
/// assert_eq!(g.node_count(), 100);
/// let again = gnp(100, 0.05, 7);
/// assert_eq!(g, again); // deterministic in the seed
/// ```
pub fn gnp(n: u32, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
    let mut b = GraphBuilder::new(n);
    if n < 2 || p == 0.0 {
        return b.build();
    }
    let mut rng = rng_from_seed(seed);
    if p >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                super::add_generated_edge(&mut b, u, v);
            }
        }
        return b.build();
    }
    // Geometric skipping over the lexicographic edge sequence
    // (Batagelj–Brandes): jump ahead by Geom(p) candidate edges each step.
    let log_q = (1.0 - p).ln();
    let total = (n as u64) * (n as u64 - 1) / 2;
    let mut idx: u64 = 0;
    // Map each linear index to its pair (u, v), u < v, row-major over u.
    // Indices only grow, so the row is found by walking forward: row u
    // holds the n-1-u indices [row_start, row_end).
    let (mut u, mut row_start, mut row_end) = (0u32, 0u64, u64::from(n - 1));
    loop {
        let r: f64 = rng.random::<f64>();
        let skip = ((1.0 - r).ln() / log_q).floor() as u64;
        idx = idx.saturating_add(skip);
        if idx >= total {
            break;
        }
        while idx >= row_end {
            u += 1;
            row_start = row_end;
            row_end += u64::from(n - 1 - u);
        }
        let v = u + 1 + (idx - row_start) as u32;
        super::add_generated_edge(&mut b, u, v);
        idx += 1;
        if idx >= total {
            break;
        }
    }
    b.build()
}

/// Erdős–Rényi random graph `G(n, m)`: exactly `m` distinct edges drawn
/// uniformly at random (rejection sampling).
///
/// # Panics
///
/// Panics if `m` exceeds the number of possible edges `n·(n−1)/2`.
pub fn gnm(n: u32, m: usize, seed: u64) -> Graph {
    let possible = (n as u64) * (n as u64).saturating_sub(1) / 2;
    assert!(
        (m as u64) <= possible,
        "m = {m} exceeds the {possible} possible edges of an {n}-node simple graph"
    );
    let mut rng = rng_from_seed(seed);
    #[expect(
        clippy::disallowed_types,
        reason = "membership test only; the set is never iterated, edges are added in draw order"
    )]
    let mut chosen = std::collections::HashSet::with_capacity(m);
    let mut b = GraphBuilder::new(n);
    while chosen.len() < m {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if chosen.insert(key) {
            super::add_generated_edge(&mut b, key.0, key.1);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_extremes() {
        let g = gnp(10, 0.0, 1);
        assert_eq!(g.edge_count(), 0);
        let g = gnp(10, 1.0, 1);
        assert_eq!(g.edge_count(), 45);
        let g = gnp(0, 0.5, 1);
        assert_eq!(g.node_count(), 0);
        let g = gnp(1, 0.5, 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn gnp_is_deterministic_per_seed() {
        assert_eq!(gnp(50, 0.1, 9), gnp(50, 0.1, 9));
        assert_ne!(gnp(50, 0.3, 9), gnp(50, 0.3, 10));
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let n = 400u32;
        let p = 0.02;
        let g = gnp(n, p, 123);
        let expected = p * (n as f64) * (n as f64 - 1.0) / 2.0;
        let m = g.edge_count() as f64;
        assert!(
            (m - expected).abs() < 5.0 * expected.sqrt() + 10.0,
            "m = {m}, expected ≈ {expected}"
        );
    }

    #[test]
    fn gnm_exact_edge_count() {
        let g = gnm(30, 50, 4);
        assert_eq!(g.edge_count(), 50);
        assert_eq!(g.node_count(), 30);
        let g = gnm(5, 10, 4); // complete graph
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    #[should_panic(expected = "possible edges")]
    fn gnm_rejects_too_many_edges() {
        let _ = gnm(4, 7, 0);
    }
}
