//! Self-test: run the checkers against the seeded-violation fixtures.
//!
//! The gate is only as good as its checkers, and textual checkers are
//! easy to break silently (a refactor of the scrubber, a typo in a
//! needle). The fixtures under `xtask/fixtures/` pin the contract:
//!
//! * `seeded_violations.rs` must trigger `no-float-eq`, and nothing in
//!   its test module,
//! * `arena_merge_violations.rs` must trigger `merge-order` on both
//!   arena-merge misuse shapes (atomic offset allocation and a locked
//!   shared arena inside parallel call sites),
//! * `waiver_violations.rs` must trigger every waiver-audit rule
//!   (stale-waiver, unknown-waiver-rule, waiver-syntax),
//! * `clean.rs` must produce zero violations — guarding against false
//!   positives on comments, strings, waivers, clean parallel closures,
//!   and test modules.
//!
//! Every fixture runs through the *full* per-file pipeline (all passes
//! plus waiver collection and application), so the self-test also
//! exercises the suppression path end to end. Each `/// Seeded:` doc
//! marker in a fixture names its rules in backticks, and each of them
//! must fire between that marker and the next one, so one seed cannot
//! stand in for another seed of the same rule that has stopped firing.

use crate::source::SourceFile;
use crate::{float_eq, merge_order, waivers, Violation};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

/// Each fixture with the rules that must each fire at least once on it.
/// Fixtures may trigger additional rules; only the clean fixture is held
/// to an exact count.
const SEEDED_FIXTURES: &[(&str, &[&str])] = &[
    ("xtask/fixtures/seeded_violations.rs", &["no-float-eq"]),
    ("xtask/fixtures/arena_merge_violations.rs", &["merge-order"]),
    (
        "xtask/fixtures/waiver_violations.rs",
        &["stale-waiver", "unknown-waiver-rule", "waiver-syntax"],
    ),
];

/// Runs the full per-file pipeline (every checker plus the waiver
/// audit) over one fixture file.
fn check_fixture(root: &Path, rel: &str) -> Result<Vec<Violation>, String> {
    let path = root.join(rel);
    let file = SourceFile::load(&path, rel.to_owned())
        .map_err(|e| format!("cannot load fixture {rel}: {e}"))?;
    let mut v = Vec::new();
    float_eq::check(&file, &mut v);
    merge_order::check(&file, &mut v);
    let mut waiver_map = BTreeMap::new();
    let ws = waivers::collect(&file, &mut v);
    if !ws.is_empty() {
        waiver_map.insert(file.rel_path.clone(), ws);
    }
    Ok(waivers::apply(v, &mut waiver_map))
}

/// The `/// Seeded:` markers in `source`: the backticked rules each names
/// before its `—` explanation, and the 1-indexed lines it covers (up to
/// the next marker).
fn seed_markers(source: &str) -> Vec<(Vec<&str>, Range<usize>)> {
    let mut markers: Vec<(Vec<&str>, Range<usize>)> = Vec::new();
    for (i, line) in source.lines().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("/// Seeded: ") else {
            continue;
        };
        let head = rest.split(" — ").next().unwrap_or(rest);
        let rules = head.split('`').skip(1).step_by(2).collect();
        if let Some(last) = markers.last_mut() {
            last.1.end = i + 1;
        }
        markers.push((rules, i + 1..usize::MAX));
    }
    markers
}

/// Runs the self-test; `Err` describes the first failure.
pub(crate) fn run(root: &Path) -> Result<(), String> {
    let mut all_seeded = Vec::new();
    for &(rel, expected) in SEEDED_FIXTURES {
        let found = check_fixture(root, rel)?;
        if found.is_empty() {
            return Err(format!("fixture {rel} produced no violations at all"));
        }
        for rule in expected {
            if !found.iter().any(|v| v.rule == *rule) {
                return Err(format!(
                    "seeded violation for rule `{rule}` in {rel} was NOT detected — \
                     the checker has regressed (detected: {:?})",
                    found.iter().map(|v| v.rule).collect::<Vec<_>>()
                ));
            }
        }
        let source = std::fs::read_to_string(root.join(rel)).map_err(|e| e.to_string())?;
        for (rules, lines) in seed_markers(&source) {
            for rule in rules {
                if !found
                    .iter()
                    .any(|v| v.rule == rule && lines.contains(&v.line))
                {
                    return Err(format!(
                        "the `{rule}` seed at {rel}:{} was NOT detected — \
                         the checker has regressed",
                        lines.start
                    ));
                }
            }
        }
        all_seeded.extend(found);
    }

    // Test-module exemption: the fixture's #[cfg(test)] float equality
    // must not be flagged, so every hit in that file must precede the
    // module.
    let seeded_rel = "xtask/fixtures/seeded_violations.rs";
    let fixture = std::fs::read_to_string(root.join(seeded_rel)).map_err(|e| e.to_string())?;
    let test_line = fixture
        .lines()
        .position(|l| l.contains("#[cfg(test)]"))
        .map_or(usize::MAX, |p| p + 1);
    if let Some(v) = all_seeded
        .iter()
        .find(|v| v.path == seeded_rel && v.line >= test_line)
    {
        return Err(format!("flagged test-module code: {v}"));
    }

    let clean = check_fixture(root, "xtask/fixtures/clean.rs")?;
    if let Some(v) = clean.first() {
        return Err(format!("false positive on the clean fixture: {v}"));
    }

    Ok(())
}
