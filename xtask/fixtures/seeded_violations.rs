//! NOT COMPILED — lint self-test fixture with deliberately seeded
//! violations. `cargo xtask lint` verifies the gate catches
//! every one of them; if a checker regresses, the self-test fails.

/// Seeded: `no-float-eq` (exact float comparison without waiver).
pub fn seeded_float_eq(x: f64) -> bool {
    x == 0.3
}

#[cfg(test)]
mod tests {
    // Exact float comparisons inside test modules are fine; the gate
    // must NOT flag this one.
    #[test]
    fn float_eq_in_tests_is_allowed() {
        assert!(0.5 * 2.0 == 1.0);
    }
}
