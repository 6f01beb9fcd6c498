//! NOT COMPILED — lint self-test fixture seeding one violation of every
//! waiver-audit rule. `cargo xtask lint` fails if any of
//! these goes undetected.

/// Seeded: `stale-waiver` — a well-formed waiver with nothing on or
/// near its line to suppress.
pub fn seeded_stale_waiver(x: u32) -> u32 {
    // lint: merge-order — this used to sit beside a shared counter, long removed
    x + 1
}

/// Seeded: `unknown-waiver-rule` — the rule token names no known rule.
pub fn seeded_unknown_rule(x: u32) -> u32 {
    x * 2 // lint: cosmic-rays — hypothetical hardware concern
}

/// Seeded: `waiver-syntax` — marker present but no separator/reason.
pub fn seeded_bad_syntax(x: u32) -> u32 {
    x * 3 // lint: float-eq
}
