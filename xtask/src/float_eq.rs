//! Float-equality pass over the numeric crates.
//!
//! * **no-float-eq** — in `crates/lp` and `crates/geometry`, `==`/`!=`
//!   with a floating-point literal operand is forbidden unless waived
//!   with the `float-eq` rule token, e.g. for skipping exact zeros in
//!   simplex elimination. Code after the file's `#[cfg(test)]` line is
//!   exempt.
//!
//! clippy's `float_cmp` is not a substitute: it exempts comparisons
//! against zero, which are exactly the sites this rule makes state a
//! reason.
//!
//! The rule only *emits* candidate violations; waiver suppression (same
//! or adjacent line, so rustfmt-wrapped statements keep their trailing
//! comments effective) is applied centrally by [`crate::waivers`].

use crate::source::SourceFile;
use crate::Violation;

/// Runs the no-float-eq rule over one numeric-crate source file.
pub(crate) fn check(file: &SourceFile, out: &mut Vec<Violation>) {
    let limit = file.test_code_start();
    let code = &file.scrubbed[..limit];
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = find_eq_operator(code, from) {
        from = pos + 2;
        // `==` or `!=`: inspect both operand fragments on this line.
        let line_start = bytes[..pos]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        let line_end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(code.len(), |p| pos + p);
        let left = &code[line_start..pos];
        let right = &code[pos + 2..line_end];
        if !(fragment_has_float_literal(left, true) || fragment_has_float_literal(right, false)) {
            continue;
        }
        out.push(Violation {
            rule: "no-float-eq",
            path: file.rel_path.clone(),
            line: file.line_of(pos),
            message: format!(
                "exact float equality in a numeric crate; compare against a \
                 tolerance, or waive with the `float-eq` rule token and a reason \
                 (line: `{}`)",
                file.line_text(pos)
            ),
        });
    }
}

/// Finds the next `==` or `!=` at or after `from` that is a comparison
/// operator (not `<=`, `>=`, `=>`, or part of `===`-like runs, which Rust
/// doesn't have anyway).
fn find_eq_operator(code: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut i = from;
    while i + 1 < bytes.len() {
        if bytes[i + 1] == b'=' && (bytes[i] == b'=' || bytes[i] == b'!') {
            // Exclude `<=`/`>=`-style and assignment `=`: we matched the
            // first char exactly, so `a <= b` can't land here. Exclude a
            // leading `=` that is itself preceded by `=` or `!` (already
            // consumed) or followed by another `=`.
            if bytes.get(i + 2) != Some(&b'=') && (i == 0 || bytes[i - 1] != b'=') {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Does the operand fragment next to the operator contain a float literal?
///
/// For the left fragment, the literal must be the *last* token; for the
/// right fragment, the *first*. That keeps unrelated floats elsewhere on
/// the line (array indices, earlier arguments) from triggering.
fn fragment_has_float_literal(fragment: &str, left_side: bool) -> bool {
    let token: &str = if left_side {
        fragment
            .trim_end()
            .rsplit([' ', '(', ',', '[', '{'])
            .next()
            .unwrap_or("")
    } else {
        fragment
            .trim_start()
            .split([' ', ')', ',', ']', '}', ';'])
            .next()
            .unwrap_or("")
    };
    is_float_literal(token)
        || token.ends_with("f64::EPSILON")
        || token.ends_with("f32::EPSILON")
        || token.ends_with("f64::INFINITY")
        || token.ends_with("f64::NAN")
}

/// `1.0`, `0.5f64`, `1e-9`, `2.5e3` — but not `1..n` ranges or field
/// accesses like `p.x`.
fn is_float_literal(token: &str) -> bool {
    let t = token.trim_end_matches("f64").trim_end_matches("f32");
    let mut chars = t.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    let mut seen_dot_or_exp = false;
    let mut prev = first;
    for c in chars {
        match c {
            '0'..='9' | '_' => {}
            '.' => {
                if prev == '.' {
                    return false; // `1..n` range
                }
                seen_dot_or_exp = true;
            }
            'e' | 'E' | '-' | '+' => seen_dot_or_exp = true,
            _ => return false,
        }
        prev = c;
    }
    seen_dot_or_exp && !t.ends_with('.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("test.rs".into(), src.into())
    }

    #[test]
    fn flags_float_eq() {
        let src = "fn f(x: f64) -> bool { x == 0.5 }\n";
        let mut v = Vec::new();
        check(&file(src), &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-float-eq");
    }

    #[test]
    fn waived_line_still_emits_candidate_for_central_suppression() {
        // Suppression is the waiver module's job; the checker itself
        // must keep emitting so stale-waiver detection can see usage.
        let src = "fn f(x: f64) -> bool { x == 0.0 } // lint: float-eq \u{2014} skip zeros\n";
        let mut v = Vec::new();
        check(&file(src), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn test_module_exempt() {
        let src = "fn f(x: f64) -> bool { x < 0.5 }\n#[cfg(test)]\nmod t { fn g() { assert!(f(0.1) == true && 0.5 == 0.5); } }\n";
        let mut v = Vec::new();
        check(&file(src), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn integer_eq_and_ranges_not_flagged() {
        let src = "fn f(n: usize) -> bool { n == 1 && (0..n).len() == n }\n";
        let mut v = Vec::new();
        check(&file(src), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }
}
