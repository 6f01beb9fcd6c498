//! NOT COMPILED — lint self-test fixture seeding one violation of every
//! waiver-audit rule. `cargo xtask lint` fails if any of
//! these goes undetected.

/// Seeded: `stale-waiver` — a well-formed waiver with nothing on or
/// near its line to suppress.
pub fn seeded_stale_waiver(x: u32) -> u32 {
    // lint: wall-clock — this used to time the hot loop, long removed
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

/// Seeded: `legacy-waiver-grammar` — the pre-unification spelling must
/// be migrated, and no longer suppresses anything.
pub fn seeded_legacy(x: f64) -> bool {
    x == 0.5 // float-eq: exact — old-style waiver
}
