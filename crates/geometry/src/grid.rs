use crate::Point;

/// A uniform grid of square cells over a set of points, stored as one flat
/// table.
///
/// The grid covers the points' bounding box with cells of side
/// `cell_size`, laid out column by column. A counting sort fills one index
/// array with every cell's points, in ascending index order, and a
/// per-cell offset table marks where each cell's run starts, so the points
/// of a run of cells in one column form one contiguous slice. A range query
/// [`SpatialGrid::within`] walks one such slice per column overlapping the
/// query disk: `O(r / cell\_size + 2)` slices, so for `r ≈ cell_size` it
/// touches a constant number of cells and runs in expected `O(1)` time per
/// reported point.
///
/// The table never holds more than `4·n + 64` cells, so its memory is
/// `O(n)` for any input: when the bounding box is too large for cells of
/// side `cell_size` (a sparse or widely spread input), the side is doubled
/// until the table fits. A larger side only makes queries scan more
/// points; it never changes their result.
///
/// Cell keys are `⌊x / side⌋` saturated to `i64`, so huge coordinates share
/// the extreme keys instead of overflowing.
///
/// The grid copies the points, so it borrows nothing: queries take the
/// coordinates again and report point *indices* into the slice it was
/// built from. This lets callers keep positions in their own arrays (as
/// the unit-disk-graph builder does).
///
/// # Example
///
/// ```
/// use ftclust_geometry::{Point, SpatialGrid};
///
/// let pts = vec![Point::new(0.1, 0.1), Point::new(0.9, 0.9), Point::new(5.0, 5.0)];
/// let grid = SpatialGrid::build(&pts, 1.0);
/// let mut hits = grid.within(Point::new(0.0, 0.0), 1.5);
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    /// Cell side: `cell_size`, or a power-of-two multiple of it.
    side: f64,
    /// Key of the lowest column and of the lowest row.
    origin: (i64, i64),
    /// Number of columns and of rows (both 0 for an empty grid).
    cols: usize,
    rows: usize,
    /// Per-cell offsets into `order`/`cell_points`, indexed by
    /// `column · rows + row`, with one trailing entry.
    starts: Vec<u32>,
    /// Point indices grouped by cell.
    order: Vec<u32>,
    /// The points in `order`'s order, so a scan reads them contiguously.
    cell_points: Vec<Point>,
    /// The points in input order.
    points: Vec<Point>,
}

/// Most cells a table over `n` points may hold.
fn cell_budget(n: usize) -> i128 {
    4 * n as i128 + 64
}

impl SpatialGrid {
    /// Builds a grid over `points` with the given cell side length.
    ///
    /// For best performance choose `cell_size` close to the radius of the
    /// range queries you intend to run.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite, if any
    /// point has non-finite coordinates, or if there are more than `u32::MAX`
    /// points.
    pub fn build(points: &[Point], cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite, got {cell_size}"
        );
        assert!(
            points.len() <= u32::MAX as usize,
            "too many points for SpatialGrid"
        );
        let (mut lo, mut hi) = (
            Point::new(f64::MAX, f64::MAX),
            Point::new(f64::MIN, f64::MIN),
        );
        for (i, p) in points.iter().enumerate() {
            assert!(p.is_finite(), "point {i} has non-finite coordinates");
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let mut side = cell_size;
        let (origin, cols, rows) = if points.is_empty() {
            ((0, 0), 0, 0)
        } else {
            loop {
                let (k0, k1) = (key(lo, side), key(hi, side));
                let cols = i128::from(k1.0) - i128::from(k0.0) + 1;
                let rows = i128::from(k1.1) - i128::from(k0.1) + 1;
                // Each factor is at most 2⁶⁴, so the product may overflow
                // even an i128.
                if cols
                    .checked_mul(rows)
                    .is_some_and(|cells| cells <= cell_budget(points.len()))
                {
                    break (k0, cols as usize, rows as usize);
                }
                side *= 2.0;
            }
        };
        // Counting sort of the points by cell.
        let cell_of: Vec<usize> = points
            .iter()
            .map(|&p| {
                let (kx, ky) = key(p, side);
                kx.abs_diff(origin.0) as usize * rows + ky.abs_diff(origin.1) as usize
            })
            .collect();
        let mut starts = vec![0u32; cols * rows + 1];
        for &c in &cell_of {
            starts[c + 1] += 1;
        }
        for c in 0..cols * rows {
            starts[c + 1] += starts[c];
        }
        let mut cursor = starts.clone();
        let mut order = vec![0u32; points.len()];
        let mut cell_points = vec![Point::ORIGIN; points.len()];
        for (i, (&c, &p)) in cell_of.iter().zip(points).enumerate() {
            let at = cursor[c] as usize;
            cursor[c] += 1;
            order[at] = i as u32;
            cell_points[at] = p;
        }
        SpatialGrid {
            side,
            origin,
            cols,
            rows,
            starts,
            order,
            cell_points,
            points: points.to_vec(),
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the grid indexes no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The cell side length: the `cell_size` the grid was built with, or a
    /// power-of-two multiple of it when the points' bounding box needed
    /// more than `4·n + 64` cells of that side.
    pub fn cell_size(&self) -> f64 {
        self.side
    }

    /// Indices of all points within closed distance `radius` of `q`
    /// (including any point equal to `q`).
    ///
    /// The result order is unspecified.
    pub fn within(&self, q: Point, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_within(q, radius, |i| out.push(i));
        out
    }

    /// Calls `f(i)` for every point index `i` within closed distance
    /// `radius` of `q`. Avoids allocating when the caller only needs to
    /// fold over the result.
    pub fn for_each_within<F: FnMut(u32)>(&self, q: Point, radius: f64, mut f: F) {
        assert!(radius >= 0.0, "radius must be non-negative");
        let r_sq = radius * radius;
        let min = key(Point::new(q.x - radius, q.y - radius), self.side);
        let max = key(Point::new(q.x + radius, q.y + radius), self.side);
        // Clip the query's key box to the table, in table coordinates.
        let clip = |lo: i64, hi: i64, origin: i64, len: usize| {
            let last = origin.saturating_add(len as i64 - 1);
            let (lo, hi) = (lo.max(origin), hi.min(last));
            (lo <= hi).then(|| (lo.abs_diff(origin) as usize, hi.abs_diff(origin) as usize))
        };
        let Some((x0, x1)) = clip(min.0, max.0, self.origin.0, self.cols) else {
            return;
        };
        let Some((y0, y1)) = clip(min.1, max.1, self.origin.1, self.rows) else {
            return;
        };
        for column in x0..=x1 {
            let base = column * self.rows;
            let run = self.starts[base + y0] as usize..self.starts[base + y1 + 1] as usize;
            for (&p, &i) in self.cell_points[run.clone()].iter().zip(&self.order[run]) {
                if p.dist_sq(q) <= r_sq {
                    f(i);
                }
            }
        }
    }

    /// Counts points within closed distance `radius` of `q`.
    pub fn count_within(&self, q: Point, radius: f64) -> usize {
        let mut n = 0usize;
        self.for_each_within(q, radius, |_| n += 1);
        n
    }

    /// The point stored at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn point(&self, i: u32) -> Point {
        self.points[i as usize]
    }
}

/// The cell key of `p` for cells of side `side`: `⌊x / side⌋` and
/// `⌊y / side⌋`, saturated to `i64`. Monotone in each coordinate, so a
/// point inside a query box has a key inside the box's key range.
#[inline]
fn key(p: Point, side: f64) -> (i64, i64) {
    ((p.x / side).floor() as i64, (p.y / side).floor() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn brute_within(points: &[Point], q: Point, r: f64) -> Vec<u32> {
        let mut v: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist_sq(q) <= r * r)
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_grid_reports_nothing() {
        let grid = SpatialGrid::build(&[], 1.0);
        assert!(grid.is_empty());
        assert_eq!(grid.within(Point::ORIGIN, 10.0), Vec::<u32>::new());
    }

    #[test]
    fn finds_point_on_boundary() {
        let pts = vec![Point::new(1.0, 0.0)];
        let grid = SpatialGrid::build(&pts, 0.5);
        assert_eq!(grid.within(Point::ORIGIN, 1.0), vec![0]);
        assert_eq!(grid.count_within(Point::ORIGIN, 0.999), 0);
    }

    #[test]
    fn handles_negative_coordinates() {
        let pts = vec![Point::new(-2.5, -2.5), Point::new(-2.4, -2.4)];
        let grid = SpatialGrid::build(&pts, 1.0);
        let mut hits = grid.within(Point::new(-2.5, -2.5), 0.2);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn zero_radius_finds_coincident_points_only() {
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.1, 1.0),
        ];
        let grid = SpatialGrid::build(&pts, 0.7);
        let mut hits = grid.within(Point::new(1.0, 1.0), 0.0);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn matches_brute_force_on_random_input() {
        let mut rng = StdRng::seed_from_u64(42);
        let pts: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)))
            .collect();
        let grid = SpatialGrid::build(&pts, 0.8);
        for _ in 0..50 {
            let q = Point::new(rng.random_range(-1.0..11.0), rng.random_range(-1.0..11.0));
            let r = rng.random_range(0.0..3.0);
            let mut got = grid.within(q, r);
            got.sort_unstable();
            assert_eq!(got, brute_within(&pts, q, r));
        }
    }

    #[test]
    fn point_accessor_roundtrips() {
        let pts = vec![Point::new(3.0, 4.0)];
        let grid = SpatialGrid::build(&pts, 1.0);
        assert_eq!(grid.point(0), pts[0]);
        assert_eq!(grid.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cell_size must be positive")]
    fn zero_cell_size_panics() {
        let _ = SpatialGrid::build(&[Point::ORIGIN], 0.0);
    }

    /// Adds an exact copy and a copy moved by `nudge` of each point `dups`
    /// names (modulo the point count), so inputs have coincident and
    /// near-coincident points.
    fn with_duplicates(mut pts: Vec<Point>, dups: &[usize], nudge: f64) -> Vec<Point> {
        if !pts.is_empty() {
            for &d in dups {
                let p = pts[d % pts.len()];
                pts.push(p);
                pts.push(Point::new(p.x + nudge, p.y - nudge));
            }
        }
        pts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn grid_equals_brute_force(
            coords in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..120),
            dups in proptest::collection::vec(0usize..1000, 0..20),
            wide in 0u8..2,
            qx in -60.0f64..60.0, qy in -60.0f64..60.0,
            r in 0.0f64..20.0,
            cell in 0.1f64..5.0,
        ) {
            // `wide` spreads the points over ±10⁹ and shrinks the cell to
            // 10⁻⁶ and the radius below 2·10⁻⁶, with the query near a
            // point: cells of that side over that box would need ~10³⁰
            // table entries.
            let (scale, cell, r) = if wide == 1 { (2e7, 1e-6, r * 1e-7) } else { (1.0, cell, r) };
            let pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x * scale, y * scale)).collect();
            let pts = with_duplicates(pts, &dups, cell * 0.1);
            let q = match pts.first() {
                Some(p) if wide == 1 => Point::new(p.x + qx * 1e-8, p.y + qy * 1e-8),
                _ => Point::new(qx, qy),
            };
            let grid = SpatialGrid::build(&pts, cell);
            prop_assert!(grid.starts.len() as i128 <= cell_budget(pts.len()) + 1);
            let mut got = grid.within(q, r);
            got.sort_unstable();
            prop_assert_eq!(got, brute_within(&pts, q, r));
            for &p in &pts {
                let mut got = grid.within(p, r);
                got.sort_unstable();
                prop_assert_eq!(got, brute_within(&pts, p, r));
            }
        }
    }

    #[test]
    fn extreme_coordinates_keep_the_table_small() {
        let pts = vec![
            Point::new(-f64::MAX, f64::MAX),
            Point::new(f64::MAX, -f64::MAX),
            Point::new(0.0, 0.0),
            Point::new(1e-300, 0.0),
        ];
        let grid = SpatialGrid::build(&pts, 1e-300);
        assert!(grid.starts.len() as i128 <= cell_budget(pts.len()) + 1);
        assert!(grid.cell_size() > 1e-300);
        let mut hits = grid.within(Point::ORIGIN, 1e-300);
        hits.sort_unstable();
        assert_eq!(hits, vec![2, 3]);
        assert_eq!(grid.within(Point::new(f64::MAX, -f64::MAX), 1.0), vec![1]);
    }

    #[test]
    fn cell_size_is_kept_when_the_table_fits() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new(f64::from(i % 10), f64::from(i / 10)))
            .collect();
        let grid = SpatialGrid::build(&pts, 1.0);
        assert_eq!(grid.cell_size(), 1.0);
        assert_eq!(grid.cols * grid.rows, 100);
    }
}
