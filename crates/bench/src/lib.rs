//! Shared infrastructure for the experiment harness.
//!
//! The paper (ICDCS 2006) is theory-only — it has no evaluation tables.
//! The harness therefore regenerates **one experiment per theorem, lemma
//! and modeling claim**; the mapping is documented in `DESIGN.md` §4 and
//! the measured results in `EXPERIMENTS.md`. The 17 experiments (E1–E17)
//! and the perf baseline are modules of one binary, `src/bin/exp/`:
//!
//! ```text
//! cargo run -p ftclust-bench --release --bin exp -- e1          # one experiment
//! cargo run -p ftclust-bench --release --bin exp -- all --smoke # all 17, in order
//! ```
//!
//! This library provides the pieces the experiments share: fixed-width
//! table printing, JSON string escaping for the `--json` reports, the
//! standard graph-family workloads, and small statistics helpers.

pub mod families;
pub mod stats;
pub mod table;

/// Escapes `s` for use inside a JSON string literal: quotes,
/// backslashes and control characters.
pub fn json_escape(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn json_escape_handles_quotes_backslashes_and_control_chars() {
        assert_eq!(json_escape("pb-dkm (k=2)"), "pb-dkm (k=2)");
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny\tz\r"), r"x\ny\tz\r");
        assert_eq!(json_escape("\u{1}\u{1f}"), r"\u0001\u001f");
        assert_eq!(json_escape("ü"), "ü");
    }
}
