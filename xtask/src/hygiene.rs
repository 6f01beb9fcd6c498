//! Source-hygiene pass: forbidden macros/methods in library code and
//! float equality in the numeric crates.
//!
//! Rules (applied to library sources only — binaries, examples, tests
//! and `#[cfg(test)]` modules are exempt):
//!
//! * **no-panic-paths** — `.unwrap()`, `.expect(`, `panic!(`, `todo!(`
//!   and `unimplemented!(` are forbidden. Truly impossible states use
//!   `unreachable!` with a justification, checked invariants use
//!   `assert!`/`debug_assert!`, and everything else returns a `Result`
//!   through the crate's error type.
//! * **no-float-eq** — in `crates/lp` and `crates/geometry`, `==`/`!=`
//!   with a floating-point literal operand is forbidden unless waived
//!   with the unified grammar (rule token `float-eq`), e.g. for
//!   skipping exact zeros in simplex elimination.
//! * **driver-drift** — new `pub fn run_*_lossy` / `pub fn run_*_traced`
//!   free functions are forbidden outside the executor module. The old
//!   4×4 runner matrix drifted exactly because each layer combination
//!   was a hand-written driver; new code composes layers through
//!   `ftclust_netsim::exec::Stack` instead.
//!
//! All rules only *emit* candidate violations here; waiver suppression
//! (same or adjacent line, so rustfmt-wrapped statements keep their
//! trailing comments effective) is applied centrally by [`crate::waivers`].

use crate::source::SourceFile;
use crate::Violation;

/// Method-call / macro tokens that must not appear in library code.
const FORBIDDEN: &[(&str, &str)] = &[
    (".unwrap()", "call `.unwrap()`"),
    (".expect(", "call `.expect(…)`"),
    ("panic!(", "invoke `panic!`"),
    ("todo!(", "invoke `todo!`"),
    ("unimplemented!(", "invoke `unimplemented!`"),
];

/// Runs the no-panic-paths rule over one library source file.
pub(crate) fn check_panic_paths(file: &SourceFile, out: &mut Vec<Violation>) {
    let limit = file.test_code_start();
    let code = &file.scrubbed[..limit];
    for &(needle, what) in FORBIDDEN {
        let mut from = 0;
        while let Some(pos) = code[from..].find(needle) {
            let offset = from + pos;
            out.push(Violation {
                rule: "no-panic-paths",
                path: file.rel_path.clone(),
                line: file.line_of(offset),
                message: format!(
                    "library code must not {what}; return a Result or use \
                     `unreachable!` with a justification (line: `{}`)",
                    file.line_text(offset)
                ),
            });
            from = offset + needle.len();
        }
    }
}

/// The one module allowed to define layered `run_*` entry points: the
/// composable executor itself.
const DRIVER_HOME: &str = "crates/netsim/src/exec.rs";

/// Suffixes that mark a hand-specialized driver variant.
const DRIVER_SUFFIXES: &[&str] = &["_lossy", "_traced"];

/// Runs the driver-drift rule over one library source file: no new
/// `pub fn run_*_lossy` / `pub fn run_*_traced` free functions outside
/// the executor module.
pub(crate) fn check_driver_drift(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.rel_path == DRIVER_HOME {
        return;
    }
    let limit = file.test_code_start();
    let code = &file.scrubbed[..limit];
    const NEEDLE: &str = "pub fn run_";
    let mut from = 0;
    while let Some(pos) = code[from..].find(NEEDLE) {
        let offset = from + pos;
        let name_start = offset + "pub fn ".len();
        let name_len = code[name_start..]
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .unwrap_or(code.len() - name_start);
        let name = &code[name_start..name_start + name_len];
        from = name_start + name_len;
        if DRIVER_SUFFIXES.iter().any(|s| name.ends_with(s)) {
            out.push(Violation {
                rule: "driver-drift",
                path: file.rel_path.clone(),
                line: file.line_of(offset),
                message: format!(
                    "`{name}` re-grows the per-combination runner matrix; compose \
                     the loss/trace layers through `ftclust_netsim::exec::Stack` \
                     instead of adding a specialized driver (line: `{}`)",
                    file.line_text(offset)
                ),
            });
        }
    }
}

/// Runs the no-float-eq rule over one numeric-crate source file.
pub(crate) fn check_float_eq(file: &SourceFile, out: &mut Vec<Violation>) {
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
    fn flags_unwrap_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }\n";
        let mut v = Vec::new();
        check_panic_paths(&file(src), &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn ignores_comments_and_strings() {
        let src = "// x.unwrap()\nlet s = \"panic!(boom)\";\n";
        let mut v = Vec::new();
        check_panic_paths(&file(src), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn flags_float_eq() {
        let src = "fn f(x: f64) -> bool { x == 0.5 }\n";
        let mut v = Vec::new();
        check_float_eq(&file(src), &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-float-eq");
    }

    #[test]
    fn waived_line_still_emits_candidate_for_central_suppression() {
        // Suppression is the waiver module's job; the checker itself
        // must keep emitting so stale-waiver detection can see usage.
        let src = "fn f(x: f64) -> bool { x == 0.0 } // lint: float-eq \u{2014} skip zeros\n";
        let mut v = Vec::new();
        check_float_eq(&file(src), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn flags_specialized_drivers_outside_executor_module() {
        let src = "pub fn run_widget_lossy() {}\npub fn run_widget_traced() {}\n\
                   pub fn run_widget() {}\nfn run_private_lossy() {}\n";
        let mut v = Vec::new();
        check_driver_drift(
            &SourceFile::new("crates/core/src/widget.rs".into(), src.into()),
            &mut v,
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "driver-drift"));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn executor_module_and_test_code_exempt_from_driver_drift() {
        let src = "pub fn run_widget_lossy() {}\n";
        let mut v = Vec::new();
        check_driver_drift(
            &SourceFile::new("crates/netsim/src/exec.rs".into(), src.into()),
            &mut v,
        );
        assert!(v.is_empty(), "{v:?}");
        let test_src = "#[cfg(test)]\nmod t { pub fn run_widget_lossy() {} }\n";
        check_driver_drift(&file(test_src), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn waived_driver_still_emits_candidate_for_central_suppression() {
        let src = "pub fn run_widget_lossy() {} // lint: driver-drift \u{2014} deprecated shim\n";
        let mut v = Vec::new();
        check_driver_drift(&file(src), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn integer_eq_and_ranges_not_flagged() {
        let src = "fn f(n: usize) -> bool { n == 1 && (0..n).len() == n }\n";
        let mut v = Vec::new();
        check_float_eq(&file(src), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }
}
