//! Parallel-merge discipline: the determinism rule that no compiler
//! lint expresses.
//!
//! Every guarantee the test suite checks dynamically (bit-identical runs
//! at any `FTCLUST_THREADS`, byte-equal trace logs) depends on parallel
//! regions merging their results in a fixed order. The ambient sources
//! of nondeterminism (wall clocks, environment reads, hash-collection
//! iteration) are clippy's `disallowed_methods`/`disallowed_types`,
//! configured in `clippy.toml`; this pass keeps the one that needs to
//! know what a parallel call site is:
//!
//! * **merge-order** — inside a `par_map_range` / `par_each_mut` call
//!   site, shared-state merge primitives (`Mutex`, `RwLock`, atomics'
//!   `fetch_*`/`store`, channel sends) whose completion order depends
//!   on the scheduler. Parallel regions must return per-shard results
//!   that the caller merges in shard-index order. Code after the file's
//!   `#[cfg(test)]` line is exempt.

use crate::source::SourceFile;
use crate::Violation;

/// Is the byte before `pos` an identifier byte (making `pos` the middle
/// of a longer identifier/path segment)?
fn ident_before(code: &str, pos: usize) -> bool {
    pos > 0 && {
        let b = code.as_bytes()[pos - 1];
        b.is_ascii_alphanumeric() || b == b'_'
    }
}

/// Yields the start offset of every occurrence of `needle` in `code`
/// that starts a word. Only the leading side is checked, and not at all
/// for a method-call needle like `.lock(`, whose receiver always ends in
/// an identifier byte.
fn occurrences<'c>(code: &'c str, needle: &'c str) -> impl Iterator<Item = usize> + 'c {
    let method = needle.starts_with('.');
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(pos) = code[from..].find(needle) {
            let at = from + pos;
            from = at + needle.len();
            if method || !ident_before(code, at) {
                return Some(at);
            }
        }
        None
    })
}

/// Flags scheduler-order-dependent shared-state merges inside parallel
/// call sites.
pub(crate) fn check(file: &SourceFile, out: &mut Vec<Violation>) {
    let code = &file.scrubbed[..file.test_code_start()];
    const PAR_CALLS: &[&str] = &["par_map_range(", "par_each_mut("];
    const SHARED_MERGE: &[(&str, &str)] = &[
        (".lock(", "a `Mutex`/`RwLock` lock"),
        ("Mutex", "a `Mutex`"),
        ("RwLock", "an `RwLock`"),
        ("fetch_add(", "an atomic `fetch_add`"),
        ("fetch_sub(", "an atomic `fetch_sub`"),
        ("fetch_or(", "an atomic `fetch_or`"),
        ("fetch_and(", "an atomic `fetch_and`"),
        ("fetch_xor(", "an atomic `fetch_xor`"),
        (".store(", "an atomic `store`"),
        ("mpsc", "an `mpsc` channel"),
        (".send(", "a channel send"),
    ];
    for call in PAR_CALLS {
        for at in occurrences(code, call) {
            // Skip the definitions themselves (`fn par_map_range(`).
            if code[..at].trim_end().ends_with("fn") {
                continue;
            }
            let open = at + call.len() - 1;
            let Some(close) = matching_paren(code, open) else {
                continue;
            };
            let body = &code[open + 1..close];
            for &(needle, what) in SHARED_MERGE {
                for rel in occurrences(body, needle) {
                    let abs = open + 1 + rel;
                    out.push(Violation {
                        rule: "merge-order",
                        path: file.rel_path.clone(),
                        line: file.line_of(abs),
                        message: format!(
                            "{what} inside a `{}` call site merges shared state in \
                             scheduler order; return per-shard results and merge them \
                             in shard-index order instead (line: `{}`)",
                            call.trim_end_matches('('),
                            file.line_text(abs)
                        ),
                    });
                }
            }
        }
    }
}

/// Index of the `)` matching the `(` at `open`, or `None` if unbalanced.
fn matching_paren(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in code.bytes().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("test.rs".into(), src.into())
    }

    fn rules(src: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        check(&file(src), &mut v);
        v
    }

    #[test]
    fn merge_order_flags_atomics_in_par_closures() {
        let src = "fn f(c: &AtomicUsize) {\n\
                   par_map_range(10, |i| c.fetch_add(1, Ordering::Relaxed));\n\
                   }\n";
        let v = rules(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "merge-order");
        assert_eq!(v[0].line, 2);
        let src = "fn g(c: &AtomicUsize, s: &mut [u8]) {\n\
                   par_each_mut(s, |_, _| c.fetch_add(1, Ordering::Relaxed));\n\
                   }\n";
        let v = rules(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn merge_order_ignores_definitions_and_clean_closures() {
        let src = "pub fn par_map_range(n: usize) {}\n\
                   fn f() { let v = par_map_range(10, |i| i * 2); }\n";
        let v = rules(src);
        assert!(v.is_empty(), "{v:?}");
    }
}
