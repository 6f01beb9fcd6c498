//! Determinism auditor: static nondeterminism-source and parallel-merge
//! discipline rules.
//!
//! Every guarantee the test suite checks dynamically (bit-identical runs
//! at any `FTCLUST_THREADS`, byte-equal trace logs) depends on the code
//! never consulting an order-unstable or ambient source. These rules
//! reject the sources statically:
//!
//! * **hashmap-iteration** — order-sensitive iteration of a
//!   `HashMap`/`HashSet` (`iter`, `keys`, `values`, `drain`, `retain`,
//!   `into_iter`, `for … in map`). Keyed lookup (`get`/`insert`/
//!   `contains`/`entry`) stays legal. An iteration is allowed when the
//!   drain is visibly sorted within the next two lines (`.sort…` or a
//!   `BTree` conversion); otherwise it needs a
//!   `// lint: hashmap-iteration — <reason>` waiver.
//! * **wall-clock** — `Instant::now`, `SystemTime`, and
//!   `thread::current()` read ambient machine state that differs across
//!   runs and hosts.
//! * **env-read** — `std::env::var`-family reads outside the one
//!   sanctioned `FTCLUST_THREADS` site in `crates/par` make behavior
//!   depend on the launching shell.
//! * **unseeded-rng** — RNG construction from ambient entropy
//!   (`thread_rng`, `from_entropy`, `from_os_rng`, `OsRng`,
//!   `rand::random`) bypasses the workspace's seeded-stream discipline
//!   (`seed_from_u64` + splitmix streams).
//! * **unsafe-without-safety** — an `unsafe` token without a
//!   `// SAFETY:` justification in the preceding three lines. The
//!   workspace forbids `unsafe` crate-wide today; this rule is the
//!   guardrail for any future, explicitly relaxed crate.
//! * **merge-order** — inside a `par_map_range` / `par_each_mut` call
//!   site, shared-state merge primitives (`Mutex`, `RwLock`, atomics'
//!   `fetch_*`/`store`, channel sends) whose completion order depends
//!   on the scheduler. Parallel
//!   regions must return per-shard results that the caller merges in
//!   shard-index order.

use crate::source::SourceFile;
use crate::Violation;

/// The single sanctioned ambient-environment read: the worker-count
/// override in the parallel substrate.
pub(crate) const SANCTIONED_ENV_FILE: &str = "crates/par/src/lib.rs";

/// The sanctioned environment variable name.
pub(crate) const SANCTIONED_ENV_VAR: &str = "FTCLUST_THREADS";

/// Is the byte before `pos` an identifier byte (making `pos` the middle
/// of a longer identifier/path segment)?
fn ident_before(code: &str, pos: usize) -> bool {
    pos > 0 && {
        let b = code.as_bytes()[pos - 1];
        b.is_ascii_alphanumeric() || b == b'_'
    }
}

/// Is the byte at `pos` (one past a match) an identifier byte?
fn ident_after(code: &str, pos: usize) -> bool {
    code.as_bytes()
        .get(pos)
        .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
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

/// Flags wall-clock and ambient-identity reads.
pub(crate) fn check_wall_clock(file: &SourceFile, limit: usize, out: &mut Vec<Violation>) {
    let code = &file.scrubbed[..limit];
    const NEEDLES: &[(&str, &str)] = &[
        ("Instant::now(", "reads the wall clock (`Instant::now`)"),
        ("SystemTime", "reads the wall clock (`SystemTime`)"),
        (
            "thread::current(",
            "reads ambient thread identity (`thread::current()`)",
        ),
    ];
    for &(needle, what) in NEEDLES {
        for at in occurrences(code, needle) {
            if needle == "SystemTime" && ident_after(code, at + needle.len()) {
                continue;
            }
            out.push(Violation {
                rule: "wall-clock",
                path: file.rel_path.clone(),
                line: file.line_of(at),
                message: format!(
                    "{what}; simulation state must be a function of seeds and logical \
                     time only (line: `{}`)",
                    file.line_text(at)
                ),
            });
        }
    }
}

/// Flags runtime environment reads outside the sanctioned
/// `FTCLUST_THREADS` site.
pub(crate) fn check_env_read(file: &SourceFile, limit: usize, out: &mut Vec<Violation>) {
    let code = &file.scrubbed[..limit];
    const NEEDLES: &[&str] = &["env::var(", "env::var_os(", "env::vars(", "env::vars_os("];
    let sanctioned_file = file.rel_path == SANCTIONED_ENV_FILE;
    for needle in NEEDLES {
        for at in occurrences(code, needle) {
            if sanctioned_file && file.line_text(at).contains(SANCTIONED_ENV_VAR) {
                continue;
            }
            out.push(Violation {
                rule: "env-read",
                path: file.rel_path.clone(),
                line: file.line_of(at),
                message: format!(
                    "ambient environment read `{needle}…)`; the only sanctioned read is \
                     `{SANCTIONED_ENV_VAR}` in `{SANCTIONED_ENV_FILE}` (line: `{}`)",
                    file.line_text(at)
                ),
            });
        }
    }
}

/// Flags RNG construction from ambient entropy.
pub(crate) fn check_unseeded_rng(file: &SourceFile, limit: usize, out: &mut Vec<Violation>) {
    let code = &file.scrubbed[..limit];
    const NEEDLES: &[&str] = &[
        "thread_rng(",
        "from_entropy(",
        "from_os_rng(",
        "OsRng",
        "rand::random(",
        "getrandom",
    ];
    for needle in NEEDLES {
        for at in occurrences(code, needle) {
            if *needle == "OsRng" && ident_after(code, at + needle.len()) {
                continue;
            }
            out.push(Violation {
                rule: "unseeded-rng",
                path: file.rel_path.clone(),
                line: file.line_of(at),
                message: format!(
                    "RNG constructed from ambient entropy (`{}`); derive every stream \
                     from an explicit seed (`seed_from_u64` / per-node splitmix \
                     streams) (line: `{}`)",
                    needle.trim_end_matches('('),
                    file.line_text(at)
                ),
            });
        }
    }
}

/// Flags `unsafe` tokens without an adjacent `// SAFETY:` justification.
pub(crate) fn check_unsafe_safety(file: &SourceFile, limit: usize, out: &mut Vec<Violation>) {
    let code = &file.scrubbed[..limit];
    for at in occurrences(code, "unsafe") {
        if ident_after(code, at + "unsafe".len()) {
            continue; // `unsafe_code` in an attribute, etc.
        }
        let line = file.line_of(at);
        let justified = (line.saturating_sub(3)..=line)
            .filter(|&l| l >= 1)
            .any(|l| file.comment_line(l).contains("SAFETY:"));
        if !justified {
            out.push(Violation {
                rule: "unsafe-without-safety",
                path: file.rel_path.clone(),
                line,
                message: format!(
                    "`unsafe` without a `// SAFETY:` justification in the preceding \
                     lines (line: `{}`)",
                    file.line_text(at)
                ),
            });
        }
    }
}

/// Flags order-sensitive iteration of `HashMap`/`HashSet` values.
pub(crate) fn check_hashmap_iteration(file: &SourceFile, limit: usize, out: &mut Vec<Violation>) {
    let code = &file.scrubbed[..limit];
    let idents = hash_collection_idents(code);
    const METHODS: &[&str] = &[
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".drain(",
        ".into_iter()",
        ".into_keys()",
        ".into_values()",
        ".retain(",
    ];
    for ident in &idents {
        // Method-call iteration: `x.iter()`, `self.x.values_mut()`, …
        for method in METHODS {
            let needle = format!("{ident}{method}");
            for at in occurrences(code, &needle) {
                flag_iteration(file, at, ident, out);
            }
        }
        // `for`-loop iteration: `for k in x {`, `for k in &mut x {`.
        for at in occurrences(code, ident) {
            let after = at + ident.len();
            let rest = code[after..].trim_start();
            if !rest.starts_with('{') {
                continue;
            }
            let before = code[..at].trim_end();
            let direct = before.ends_with(" in") || before.ends_with("\tin");
            let by_ref = (before.ends_with('&') || before.ends_with("&mut"))
                && before
                    .trim_end_matches("&mut")
                    .trim_end_matches('&')
                    .trim_end()
                    .ends_with(" in");
            if direct || by_ref {
                flag_iteration(file, at, ident, out);
            }
        }
    }
}

/// Emits a hashmap-iteration violation unless the drain is visibly
/// sorted within the next two lines.
fn flag_iteration(file: &SourceFile, at: usize, ident: &str, out: &mut Vec<Violation>) {
    let line = file.line_of(at);
    let sorted_nearby = (line..=line + 2).any(|l| {
        let s = file.scrubbed_line(l);
        s.contains(".sort") || s.contains("BTree")
    });
    if sorted_nearby {
        return;
    }
    out.push(Violation {
        rule: "hashmap-iteration",
        path: file.rel_path.clone(),
        line,
        message: format!(
            "order-sensitive iteration of hash collection `{ident}`; hash iteration \
             order varies across runs — drain through a sorted Vec/BTree within two \
             lines, switch to BTreeMap/BTreeSet, or waive with a reason (line: `{}`)",
            file.line_text(at)
        ),
    });
}

/// Identifier names bound to `HashMap`/`HashSet` values in this file
/// (let bindings, struct fields, typed params). Sorted and deduplicated
/// so downstream scanning order is deterministic.
fn hash_collection_idents(code: &str) -> Vec<String> {
    let mut idents = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        for at in occurrences(code, ty) {
            // Only declarations/annotations: `x: HashMap<…>` or
            // `x = HashMap::new()`. A bare mention (e.g. a generic
            // argument deep in a type) still resolves to the nearest
            // binder on the line, which is the right owner in practice.
            let line_start = code[..at].rfind('\n').map_or(0, |p| p + 1);
            let before = &code[line_start..at];
            // Walk back to the `:` or `=` introducing the type/value,
            // skipping `::` path separators (`std::collections::HashSet`).
            let bytes = before.as_bytes();
            let mut sep = None;
            let mut i = bytes.len();
            while i > 0 {
                i -= 1;
                match bytes[i] {
                    b'=' => {
                        sep = Some(i);
                        break;
                    }
                    b':' if i > 0 && bytes[i - 1] == b':' => i -= 1,
                    b':' => {
                        sep = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            let Some(sep) = sep else {
                continue;
            };
            let ident: String = before[..sep]
                .trim_end()
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            if ident.is_empty()
                || ident.chars().next().is_some_and(|c| c.is_ascii_digit())
                || matches!(ident.as_str(), "let" | "mut" | "pub" | "in" | "for")
            {
                continue;
            }
            idents.push(ident);
        }
    }
    idents.sort_unstable();
    idents.dedup();
    idents
}

/// Flags scheduler-order-dependent shared-state merges inside parallel
/// call sites.
pub(crate) fn check_merge_order(file: &SourceFile, limit: usize, out: &mut Vec<Violation>) {
    let code = &file.scrubbed[..limit];
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

    fn rules(src: &str, f: fn(&SourceFile, usize, &mut Vec<Violation>)) -> Vec<Violation> {
        let sf = file(src);
        let mut v = Vec::new();
        f(&sf, sf.raw.len(), &mut v);
        v
    }

    #[test]
    fn wall_clock_flagged_but_not_in_comments() {
        let v = rules(
            "fn f() { let t = Instant::now(); }\n// Instant::now() in a comment\n",
            check_wall_clock,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wall-clock");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn system_time_and_thread_current_flagged() {
        let v = rules(
            "fn f() { let _ = SystemTime::now(); let _ = thread::current(); }\n",
            check_wall_clock,
        );
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn env_read_flagged_except_sanctioned_site() {
        let v = rules("fn f() { std::env::var(\"HOME\") }\n", check_env_read);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "env-read");

        let sf = SourceFile::new(
            SANCTIONED_ENV_FILE.into(),
            "fn t() { std::env::var(\"FTCLUST_THREADS\") }\n".into(),
        );
        let mut out = Vec::new();
        check_env_read(&sf, sf.raw.len(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unseeded_rng_flagged_seeded_allowed() {
        let bad = rules(
            "fn f() { let r = rand::thread_rng(); }\n",
            check_unseeded_rng,
        );
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "unseeded-rng");
        let good = rules(
            "fn f() { let r = StdRng::seed_from_u64(7); }\n",
            check_unseeded_rng,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = rules("fn f() { unsafe { go() } }\n", check_unsafe_safety);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "unsafe-without-safety");
        let good = rules(
            "// SAFETY: disjoint indices proven above.\nfn f() { unsafe { go() } }\n",
            check_unsafe_safety,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn forbid_unsafe_code_attribute_not_flagged() {
        let v = rules("#![forbid(unsafe_code)]\n", check_unsafe_safety);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hashmap_iteration_flagged_keyed_ops_legal() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n\
                   let mut m: HashMap<u32, u32> = HashMap::new();\n\
                   m.insert(1, 2);\n\
                   let _ = m.get(&1);\n\
                   for (k, v) in &m {\n\
                   }\n\
                   }\n";
        let v = rules(src, check_hashmap_iteration);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hashmap-iteration");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn qualified_path_declarations_are_recognized() {
        let src = "fn f() {\n\
                   let mut edges: std::collections::HashSet<(u32, u32)> = Default::default();\n\
                   for e in edges {\n\
                   }\n\
                   }\n";
        let v = rules(src, check_hashmap_iteration);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn sorted_drain_is_allowed() {
        let src = "fn f() {\n\
                   let mut m: HashMap<u32, u32> = HashMap::new();\n\
                   let mut pairs: Vec<(u32, u32)> = m.into_iter().collect();\n\
                   pairs.sort_unstable();\n\
                   }\n";
        let v = rules(src, check_hashmap_iteration);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn btree_collections_never_flagged() {
        let src = "fn f() {\n\
                   let mut m: BTreeMap<u32, u32> = BTreeMap::new();\n\
                   for (k, v) in &m {\n\
                   }\n\
                   }\n";
        let v = rules(src, check_hashmap_iteration);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn values_mut_on_field_flagged() {
        let src = "struct S { cells: HashMap<u64, Vec<u32>> }\n\
                   impl S {\n\
                   fn f(&mut self) {\n\
                   for b in self.cells.values_mut() {\n\
                   b.push(1);\n\
                   }\n\
                   }\n\
                   }\n";
        let v = rules(src, check_hashmap_iteration);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn merge_order_flags_atomics_in_par_closures() {
        let src = "fn f(c: &AtomicUsize) {\n\
                   par_map_range(10, |i| c.fetch_add(1, Ordering::Relaxed));\n\
                   }\n";
        let v = rules(src, check_merge_order);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "merge-order");
        assert_eq!(v[0].line, 2);
        let src = "fn g(c: &AtomicUsize, s: &mut [u8]) {\n\
                   par_each_mut(s, |_, _| c.fetch_add(1, Ordering::Relaxed));\n\
                   }\n";
        let v = rules(src, check_merge_order);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn merge_order_ignores_definitions_and_clean_closures() {
        let src = "pub fn par_map_range(n: usize) {}\n\
                   fn f() { let v = par_map_range(10, |i| i * 2); }\n";
        let v = rules(src, check_merge_order);
        assert!(v.is_empty(), "{v:?}");
    }
}
