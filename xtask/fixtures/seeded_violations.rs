//! NOT COMPILED — lint self-test fixture with deliberately seeded
//! violations. `cargo xtask lint` verifies the gate catches
//! every one of them; if a checker regresses, the self-test fails.

/// Seeded: `no-float-eq` (exact float comparison without waiver).
pub fn seeded_float_eq(x: f64) -> bool {
    x == 0.3
}

/// Seeded: `payload-impl-required` — a protocol message type with no
/// `Payload` impl anywhere in the fixture.
pub enum OrphanedMsg {
    Hello,
}

/// Seeded: `no-width-of-type` + `quantized-floats` — charges the machine
/// width of an undocumented float.
pub enum UnboundedMsg {
    Value { v: f64 },
}

impl Payload for UnboundedMsg {
    fn bit_size(&self) -> usize {
        std::mem::size_of::<f64>() * 8
    }
}

/// Seeded: `no-flat-blob` — a fixed 4096-bit blob is not O(log n).
pub enum BlobMsg {
    Dump,
}

impl Payload for BlobMsg {
    fn bit_size(&self) -> usize {
        4096
    }
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
