//! Waiver grammar and the stale-waiver audit.
//!
//! Every escape hatch for this tool's rules uses one grammar, written as
//! a plain line comment on the violating line or an adjacent one:
//!
//! ```text
//! // lint: <rule> — <reason>
//! ```
//!
//! The rule token is the violation's rule id (a leading `no-` may be
//! dropped: `float-eq` waives `no-float-eq`), and the reason is
//! mandatory — a waiver that does not say *why* the exception is sound
//! is itself a violation. Waivers are parsed from the comments-only
//! shadow of each file, so the grammar appearing inside a string
//! literal (e.g. in a diagnostic message) is never treated as a waiver.
//! Doc comments (`///`, `//!`) are excluded too: they document the
//! grammar, they don't apply it.
//!
//! Rules emitted by the audit itself:
//!
//! * **waiver-syntax** — a `// lint:` comment that does not parse
//!   (missing rule, missing `—`/`--` separator, or empty reason).
//! * **unknown-waiver-rule** — the rule token names no known rule.
//! * **stale-waiver** — the waiver suppressed nothing: its rule no
//!   longer fires on the line (or an adjacent one). Stale waivers are
//!   hard errors so escape hatches cannot outlive their justification.
//!
//! The compiler-enforced rules use `#[expect(clippy::…, reason = "…")]`
//! instead, which rustc reports as `unfulfilled_lint_expectations` once
//! it suppresses nothing.

use crate::source::SourceFile;
use crate::Violation;
use std::collections::BTreeMap;

/// Rules that may be waived with `// lint: <rule> — <reason>`.
/// Structural/meta rules (manifest audits, the waiver audit itself) are
/// deliberately absent: they cannot be waived.
pub(crate) const WAIVABLE_RULES: &[&str] = &["no-float-eq", "merge-order"];

/// One parsed waiver comment.
#[derive(Debug)]
pub(crate) struct Waiver {
    /// The rule token as written (`float-eq`, `merge-order`, …).
    pub(crate) token: String,
    /// 1-indexed line the comment sits on.
    pub(crate) line: usize,
    /// Set when the waiver suppressed at least one violation.
    pub(crate) used: bool,
}

/// Does waiver token `token` waive rule id `rule`?
fn token_matches(token: &str, rule: &str) -> bool {
    token == rule || rule.strip_prefix("no-") == Some(token)
}

/// Is `token` a valid waiver token for any known waivable rule?
fn known_token(token: &str) -> bool {
    WAIVABLE_RULES.iter().any(|r| token_matches(token, r))
}

/// The marker opening a waiver comment.
const MARKER: &str = "// lint:";

/// Parses all waivers in `file` from its comments-only shadow, emitting
/// syntax and unknown-rule violations along the way.
pub(crate) fn collect(file: &SourceFile, out: &mut Vec<Violation>) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for line_no in 1..=file.line_count() {
        let comment = file.comment_line(line_no);
        // Doc comments (`///`, `//!`) document the grammar; they are
        // never waivers themselves.
        let lead = comment.trim_start();
        if lead.starts_with("///") || lead.starts_with("//!") {
            continue;
        }
        if let Some(pos) = comment.find(MARKER) {
            let rest = &comment[pos + MARKER.len()..];
            match parse_waiver_body(rest) {
                Ok((token, _reason)) if known_token(&token) => waivers.push(Waiver {
                    token,
                    line: line_no,
                    used: false,
                }),
                Ok((token, _)) => out.push(Violation {
                    rule: "unknown-waiver-rule",
                    path: file.rel_path.clone(),
                    line: line_no,
                    message: format!(
                        "waiver names unknown rule `{token}`; waivable rules: {}",
                        WAIVABLE_RULES.join(", ")
                    ),
                }),
                Err(why) => out.push(Violation {
                    rule: "waiver-syntax",
                    path: file.rel_path.clone(),
                    line: line_no,
                    message: format!(
                        "{why}; the waiver grammar is `// lint: <rule> \u{2014} <reason>`"
                    ),
                }),
            }
        }
    }
    waivers
}

/// Splits `<rule> — <reason>` (also accepting `--` as the separator).
fn parse_waiver_body(rest: &str) -> Result<(String, String), String> {
    let (head, reason) = match rest.split_once('\u{2014}') {
        Some(pair) => pair,
        None => rest
            .split_once("--")
            .ok_or("waiver has no `\u{2014}` separator")?,
    };
    let token = head.trim();
    let reason = reason.trim();
    if token.is_empty() || token.contains(' ') {
        return Err(format!("waiver rule token `{token}` is not a rule id"));
    }
    if reason.is_empty() {
        return Err("waiver carries no reason".to_owned());
    }
    Ok((token.to_owned(), reason.to_owned()))
}

/// Applies waivers to `violations`: suppresses waived ones (same or
/// adjacent line, matching rule), then turns every unused waiver into a
/// `stale-waiver` violation. Returns the surviving violations.
pub(crate) fn apply(
    violations: Vec<Violation>,
    waivers: &mut BTreeMap<String, Vec<Waiver>>,
) -> Vec<Violation> {
    let mut kept = Vec::new();
    for v in violations {
        let mut suppressed = false;
        if WAIVABLE_RULES.contains(&v.rule) {
            if let Some(ws) = waivers.get_mut(&v.path) {
                for w in ws.iter_mut() {
                    if token_matches(&w.token, v.rule) && w.line.abs_diff(v.line) <= 1 {
                        w.used = true;
                        suppressed = true;
                    }
                }
            }
        }
        if !suppressed {
            kept.push(v);
        }
    }
    for (path, ws) in waivers.iter() {
        for w in ws.iter().filter(|w| !w.used) {
            kept.push(Violation {
                rule: "stale-waiver",
                path: path.clone(),
                line: w.line,
                message: format!(
                    "waiver for `{}` suppresses nothing — the rule does not fire on \
                     this or an adjacent line; delete the waiver",
                    w.token
                ),
            });
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("test.rs".into(), src.into())
    }

    fn violation(rule: &'static str, line: usize) -> Violation {
        Violation {
            rule,
            path: "test.rs".into(),
            line,
            message: String::new(),
        }
    }

    #[test]
    fn parses_valid_waiver() {
        let mut out = Vec::new();
        let ws = collect(
            &file("x == 0.0 // lint: float-eq \u{2014} skip exact zeros\n"),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].token, "float-eq");
        assert_eq!(ws[0].line, 1);
    }

    #[test]
    fn double_dash_separator_accepted() {
        let mut out = Vec::new();
        let ws = collect(
            &file("// lint: merge-order -- per-shard counter\n"),
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn missing_reason_is_syntax_error() {
        let mut out = Vec::new();
        let ws = collect(&file("// lint: float-eq \u{2014}   \n"), &mut out);
        assert!(ws.is_empty());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "waiver-syntax");
    }

    #[test]
    fn missing_separator_is_syntax_error() {
        let mut out = Vec::new();
        collect(&file("// lint: float-eq exact zeros\n"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "waiver-syntax");
    }

    #[test]
    fn unknown_rule_flagged() {
        let mut out = Vec::new();
        collect(&file("// lint: no-such-rule \u{2014} because\n"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "unknown-waiver-rule");
    }

    #[test]
    fn waiver_in_string_literal_ignored() {
        let mut out = Vec::new();
        let ws = collect(
            &file("let m = \"// lint: float-eq \u{2014} fake\";\n"),
            &mut out,
        );
        assert!(ws.is_empty(), "{ws:?}");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn doc_comment_grammar_mention_ignored() {
        let mut out = Vec::new();
        let ws = collect(
            &file("/// lint: float-eq \u{2014} this is documentation\nfn f() {}\n"),
            &mut out,
        );
        assert!(ws.is_empty(), "{ws:?}");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn apply_suppresses_adjacent_and_reports_stale() {
        let src = "\n// lint: float-eq \u{2014} used below\n\n\
                   // lint: merge-order \u{2014} never used\n";
        let f = file(src);
        let mut parse_errors = Vec::new();
        let ws = collect(&f, &mut parse_errors);
        assert!(parse_errors.is_empty());
        let mut by_file = BTreeMap::new();
        by_file.insert("test.rs".to_owned(), ws);
        // A no-float-eq violation on line 3 is adjacent to the line-2 waiver.
        let kept = apply(vec![violation("no-float-eq", 3)], &mut by_file);
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].rule, "stale-waiver");
        assert_eq!(kept[0].line, 4);
    }

    #[test]
    fn non_waivable_rules_cannot_be_suppressed() {
        let f = file("// lint: stale-waiver \u{2014} nice try\n");
        let mut parse_errors = Vec::new();
        collect(&f, &mut parse_errors);
        // `stale-waiver` is not waivable, so the token is unknown.
        assert_eq!(parse_errors.len(), 1);
        assert_eq!(parse_errors[0].rule, "unknown-waiver-rule");
    }
}
