//! NOT COMPILED — lint self-test fixture that must produce zero
//! violations: floats compared through tolerances or waived; parallel
//! regions returning per-shard results; the checkers' tokens only in
//! comments, strings and tests.

/// Comparing floats through a tolerance is fine.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

/// Exact zero skip, waived with the waiver grammar below.
pub fn is_exact_zero(x: f64) -> bool {
    x == 0.0 // lint: float-eq — sparse skip of exact zeros
}

/// Mentioning `x == 0.5` in a doc comment or "a par_map_range(|i| m.lock())
/// string" is not a violation.
pub fn documented() -> &'static str {
    "x == 0.5 inside par_map_range(n, |i| total.fetch_add(i))"
}

/// Per-shard results merged by the caller in shard-index order.
pub fn doubled(n: usize) -> Vec<usize> {
    par_map_range(n, |i| i * 2)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_compare_floats_exactly() {
        assert!(super::close(0.5, 0.5) == true && 0.5 == 0.5);
    }
}
