//! Reporting back ends: stable text / JSON rendering, the per-rule
//! baseline, and the ratchet.
//!
//! * `cargo xtask lint --format json` prints one JSON document to
//!   stdout: `schema`, per-rule `counts` (sorted by rule id), and the
//!   full `violations` list (sorted by path, line, rule). Nothing in
//!   the document depends on time, host, or iteration order, so the
//!   output is byte-stable across runs — CI can diff or archive it.
//! * `xtask/lint-baseline.json` is the checked-in per-rule debt record
//!   (same `schema`/`counts` shape, no `violations`).
//! * `--ratchet` compares current counts against the baseline: any rule
//!   whose count *grows* fails the gate; counts at or below baseline
//!   pass, so known debt can exist but never accumulate. When a count
//!   drops, the run suggests re-writing the baseline
//!   (`--write-baseline`) to lock in the progress.

use crate::Violation;
use std::collections::BTreeMap;
use std::path::Path;

/// Schema version stamped into every JSON document.
pub(crate) const SCHEMA: u64 = 1;

/// Workspace-relative path of the checked-in ratchet baseline.
pub(crate) const BASELINE_PATH: &str = "xtask/lint-baseline.json";

/// Per-rule violation counts, keyed by rule id (sorted by construction).
pub(crate) fn counts(violations: &[Violation]) -> BTreeMap<&'static str, u64> {
    let mut map = BTreeMap::new();
    for v in violations {
        *map.entry(v.rule).or_insert(0) += 1;
    }
    map
}

/// Violations in the canonical report order: (path, line, rule).
pub(crate) fn sorted(violations: &[Violation]) -> Vec<&Violation> {
    let mut out: Vec<&Violation> = violations.iter().collect();
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Renders the byte-stable JSON report.
pub(crate) fn render_json(violations: &[Violation]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {SCHEMA},\n"));
    s.push_str("  \"counts\": {");
    let counts = counts(violations);
    let mut first = true;
    for (rule, n) in &counts {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!("\n    \"{rule}\": {n}"));
    }
    s.push_str(if counts.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    s.push_str("  \"violations\": [");
    let ordered = sorted(violations);
    let mut first = true;
    for v in &ordered {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            json_escape(v.rule),
            json_escape(&v.path),
            v.line,
            json_escape(&v.message)
        ));
    }
    s.push_str(if ordered.is_empty() { "]\n" } else { "\n  ]\n" });
    s.push_str("}\n");
    s
}

/// Renders the baseline document for `--write-baseline`.
pub(crate) fn render_baseline(counts: &BTreeMap<&'static str, u64>) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {SCHEMA},\n"));
    s.push_str("  \"counts\": {");
    let mut first = true;
    for (rule, n) in counts {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!("\n    \"{rule}\": {n}"));
    }
    s.push_str(if counts.is_empty() { "}\n" } else { "\n  }\n" });
    s.push_str("}\n");
    s
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses a baseline document's `counts` table. The format is this
/// tool's own output, so the parser is a minimal scanner, but it
/// reports malformed input instead of silently returning an empty map.
pub(crate) fn parse_baseline(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let at = text
        .find("\"counts\"")
        .ok_or("baseline has no \"counts\" table")?;
    let open = at + text[at..].find('{').ok_or("baseline counts has no `{`")?;
    let close = open + text[open..].find('}').ok_or("baseline counts has no `}`")?;
    let mut map = BTreeMap::new();
    for entry in text[open + 1..close].split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed baseline entry `{entry}`"))?;
        let rule = key.trim().trim_matches('"').to_owned();
        let n: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("malformed baseline count `{}`", value.trim()))?;
        map.insert(rule, n);
    }
    Ok(map)
}

/// Loads the checked-in baseline; a missing file is an empty baseline
/// (every rule ratchets at zero).
pub(crate) fn load_baseline(root: &Path) -> Result<BTreeMap<String, u64>, String> {
    match std::fs::read_to_string(root.join(BASELINE_PATH)) {
        Ok(text) => parse_baseline(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(BTreeMap::new()),
        Err(e) => Err(format!("cannot read {BASELINE_PATH}: {e}")),
    }
}

/// The ratchet comparison: every message describes a rule whose count
/// grew past the baseline (failures), plus improvement notes for rules
/// whose count dropped. `(failures, improvements)`.
pub(crate) fn ratchet(
    current: &BTreeMap<&'static str, u64>,
    baseline: &BTreeMap<String, u64>,
) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut improvements = Vec::new();
    for (&rule, &n) in current {
        let allowed = baseline.get(rule).copied().unwrap_or(0);
        if n > allowed {
            failures.push(format!(
                "rule `{rule}`: {n} violation(s), baseline allows {allowed} — \
                 new debt is not allowed; fix or waive with a reason"
            ));
        }
    }
    for (rule, &allowed) in baseline {
        let n = current.get(rule.as_str()).copied().unwrap_or(0);
        if n < allowed {
            improvements.push(format!(
                "rule `{rule}`: {n} violation(s), baseline allows {allowed} — \
                 tighten with `cargo xtask lint --write-baseline`"
            ));
        }
    }
    (failures, improvements)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &'static str, path: &str, line: usize) -> Violation {
        Violation {
            rule,
            path: path.into(),
            line,
            message: format!("msg with \"quotes\" and `{path}`"),
        }
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let violations = vec![
            v("wall-clock", "b.rs", 9),
            v("env-read", "a.rs", 3),
            v("wall-clock", "a.rs", 1),
        ];
        let one = render_json(&violations);
        let mut shuffled = violations;
        shuffled.reverse();
        let two = render_json(&shuffled);
        assert_eq!(one, two, "JSON must not depend on discovery order");
        assert!(one.contains("\"env-read\": 1"));
        assert!(one.contains("\"wall-clock\": 2"));
        let a_pos = one.find("a.rs").unwrap_or(usize::MAX);
        let b_pos = one.find("b.rs").unwrap_or(0);
        assert!(a_pos < b_pos, "violations sorted by path");
    }

    #[test]
    fn empty_report_renders() {
        let s = render_json(&[]);
        assert!(s.contains("\"counts\": {}"), "{s}");
        assert!(s.contains("\"violations\": []"), "{s}");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn baseline_roundtrip() {
        let violations = vec![v("wall-clock", "a.rs", 1), v("wall-clock", "b.rs", 2)];
        let rendered = render_baseline(&counts(&violations));
        let parsed = parse_baseline(&rendered).unwrap();
        assert_eq!(parsed.get("wall-clock"), Some(&2));
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn empty_baseline_roundtrip() {
        let parsed = parse_baseline(&render_baseline(&BTreeMap::new())).unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn ratchet_fails_only_on_growth() {
        let current = counts(&[v("wall-clock", "a.rs", 1), v("env-read", "a.rs", 2)]);
        let mut baseline = BTreeMap::new();
        baseline.insert("wall-clock".to_owned(), 1u64);
        baseline.insert("env-read".to_owned(), 5u64);
        let (failures, improvements) = ratchet(&current, &baseline);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(improvements.len(), 1, "{improvements:?}");

        baseline.insert("wall-clock".to_owned(), 0);
        let (failures, _) = ratchet(&current, &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("wall-clock"));
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"counts\": {\"a\": x}}").is_err());
    }
}
