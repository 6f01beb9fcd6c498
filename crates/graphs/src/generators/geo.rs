use super::rng_from_seed;
use crate::UnitDiskGraph;
use ftclust_geometry::Point;
use rand::Rng;

/// Random geometric graph / unit disk graph with a target average degree.
///
/// Places `n` nodes uniformly at random in a square sized so that the
/// *expected* number of neighbors of a node in the bulk is approximately
/// `avg_degree` (boundary effects lower it slightly), then connects nodes at
/// distance ≤ `radius`.
///
/// This mirrors the sensor-network deployments the paper targets: uniform
/// random scattering with density controlled independently of `n`.
///
/// # Panics
///
/// Panics if `avg_degree` or `radius` is not strictly positive, or `n == 0`.
///
/// # Example
///
/// ```
/// use ftclust_graphs::generators::random_udg;
///
/// let udg = random_udg(500, 8.0, 1.0, 42);
/// let mean = 2.0 * udg.graph().edge_count() as f64 / 500.0;
/// assert!(mean > 4.0 && mean < 12.0);
/// ```
pub fn random_udg(n: u32, avg_degree: f64, radius: f64, seed: u64) -> UnitDiskGraph {
    assert!(n > 0, "n must be positive");
    assert!(avg_degree > 0.0, "avg_degree must be positive");
    // Expected neighbors of a bulk node = density · π r², density = n / side².
    let side = (n as f64 * std::f64::consts::PI * radius * radius / avg_degree).sqrt();
    random_udg_in_square(n, side, radius, seed)
}

/// Random geometric graph over a square of the given side length.
///
/// # Panics
///
/// Panics if `side` is negative or `radius` is not strictly positive.
pub fn random_udg_in_square(n: u32, side: f64, radius: f64, seed: u64) -> UnitDiskGraph {
    assert!(side >= 0.0, "side must be non-negative");
    let mut rng = rng_from_seed(seed);
    let pts: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.random_range(0.0..=side), rng.random_range(0.0..=side)))
        .collect();
    match UnitDiskGraph::build(pts, radius) {
        Ok(g) => g,
        Err(_) => unreachable!("finite in-square points and positive radius build a valid UDG"),
    }
}

/// Clustered sensor deployment: `clusters` Gaussian clusters of equal size
/// within a square of side `side`, with per-cluster standard deviation
/// `spread`.
///
/// Models non-uniform deployments (e.g. sensors dropped in batches), which
/// stress the UDG algorithm's per-disk analysis harder than uniform
/// placements.
///
/// # Panics
///
/// Panics if `clusters == 0`, `n == 0`, or `radius`/`side`/`spread` are not
/// positive and finite.
pub fn clustered_udg(
    n: u32,
    clusters: u32,
    side: f64,
    spread: f64,
    radius: f64,
    seed: u64,
) -> UnitDiskGraph {
    assert!(n > 0 && clusters > 0, "n and clusters must be positive");
    assert!(
        side > 0.0 && spread > 0.0 && radius > 0.0,
        "dimensions must be positive"
    );
    let mut rng = rng_from_seed(seed);
    let centers: Vec<Point> = (0..clusters)
        .map(|_| Point::new(rng.random_range(0.0..=side), rng.random_range(0.0..=side)))
        .collect();
    // Box–Muller for a deterministic normal sampler on top of `random`.
    let normal = |rng: &mut rand::rngs::StdRng| -> f64 {
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let c = centers[(i % clusters) as usize];
            let x = (c.x + spread * normal(&mut rng)).clamp(0.0, side);
            let y = (c.y + spread * normal(&mut rng)).clamp(0.0, side);
            Point::new(x, y)
        })
        .collect();
    match UnitDiskGraph::build(pts, radius) {
        Ok(g) => g,
        Err(_) => unreachable!("clamped finite points and positive radius build a valid UDG"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_udg_is_deterministic() {
        let a = random_udg(100, 6.0, 1.0, 5);
        let b = random_udg(100, 6.0, 1.0, 5);
        assert_eq!(a.graph(), b.graph());
        assert_eq!(a.positions(), b.positions());
        let c = random_udg(100, 6.0, 1.0, 6);
        assert_ne!(a.graph(), c.graph());
    }

    #[test]
    fn average_degree_tracks_target() {
        let target = 10.0;
        let udg = random_udg(2000, target, 1.0, 99);
        let mean = 2.0 * udg.graph().edge_count() as f64 / 2000.0;
        // Boundary effects lower the mean; allow a generous band.
        assert!(
            mean > 0.5 * target && mean < 1.3 * target,
            "mean degree {mean}"
        );
    }

    #[test]
    fn points_stay_in_square() {
        let udg = random_udg_in_square(200, 3.0, 0.5, 11);
        for p in udg.positions() {
            assert!((0.0..=3.0).contains(&p.x) && (0.0..=3.0).contains(&p.y));
        }
    }

    #[test]
    fn clustered_udg_is_denser_than_uniform() {
        // Same n, same square: clustering concentrates nodes, creating more
        // edges than the uniform layout.
        let uniform = random_udg_in_square(400, 20.0, 1.0, 3);
        let clustered = clustered_udg(400, 5, 20.0, 1.0, 1.0, 3);
        assert!(clustered.graph().edge_count() > uniform.graph().edge_count());
        for p in clustered.positions() {
            assert!((0.0..=20.0).contains(&p.x) && (0.0..=20.0).contains(&p.y));
        }
    }

    /// FNV-1a over the node count and every sorted adjacency list.
    fn fold_adjacency(hash: &mut u64, udg: &UnitDiskGraph) {
        let g = udg.graph();
        let words = std::iter::once(g.node_count() as u64).chain(g.nodes().flat_map(|v| {
            std::iter::once(g.degree(v) as u64)
                .chain(g.neighbors(v).iter().map(|w| u64::from(w.raw())))
        }));
        for word in words {
            for byte in word.to_le_bytes() {
                *hash ^= u64::from(byte);
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Pins the generated graphs edge for edge: a change to the spatial
    /// grid or the CSR assembly that moves one edge moves this digest.
    #[test]
    fn generated_adjacency_is_pinned() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for seed in 0..4 {
            for &(n, degree) in &[(1, 6.0), (60, 3.0), (400, 12.0), (2_500, 8.0)] {
                fold_adjacency(&mut hash, &random_udg(n, degree, 1.0, seed));
            }
            fold_adjacency(&mut hash, &random_udg_in_square(300, 4.0, 0.7, seed));
            fold_adjacency(&mut hash, &random_udg_in_square(300, 40.0, 2.5, seed));
            fold_adjacency(&mut hash, &clustered_udg(500, 5, 20.0, 1.0, 1.0, seed));
            fold_adjacency(&mut hash, &clustered_udg(800, 3, 8.0, 0.3, 0.5, seed));
        }
        assert_eq!(hash, 0xa0e4_1e05_d244_1b37, "adjacency digest {hash:#018x}");
    }

    #[test]
    fn single_node_udg() {
        let udg = random_udg(1, 5.0, 1.0, 0);
        assert_eq!(udg.node_count(), 1);
        assert_eq!(udg.graph().edge_count(), 0);
    }
}
