//! A minimal Rust source scrubber for line-oriented static checks.
//!
//! The checkers in this tool are textual: they look for forbidden tokens
//! (float `==`, a `.lock(` inside a parallel call, …) in *code*, not in
//! comments, doc comments, or string literals. `scrub` produces a
//! same-length copy of the source in which every comment and literal body
//! is blanked out with spaces, so byte offsets (and therefore line
//! numbers) in the scrubbed text map 1:1 onto the original file.
//!
//! Waiver parsing needs the opposite projection: the text of *comments
//! only*, with code and string literals blanked. [`SourceFile::comments`]
//! carries that shadow, so a `// lint: …` waiver inside a string literal
//! (e.g. in this tool's own diagnostic messages) is never mistaken for a
//! real waiver.
//!
//! The scrubber is a pragmatic lexer, not a full one: it understands line
//! and nested block comments, ordinary/raw/byte string literals, char
//! literals, and the lifetime-vs-char-literal ambiguity. That covers
//! everything this workspace's style produces.

/// A loaded source file plus its scrubbed shadow copies.
#[derive(Debug)]
pub(crate) struct SourceFile {
    /// Repo-relative path, used in reports.
    pub(crate) rel_path: String,
    /// Raw file contents.
    pub(crate) raw: String,
    /// Same length as `raw`, with comments and literal bodies blanked.
    pub(crate) scrubbed: String,
    /// Same length as `raw`, with everything *except* comment text
    /// blanked — the only place waivers are parsed from.
    pub(crate) comments: String,
    /// Byte offset of the start of each line (always starts with 0);
    /// `line_of` binary-searches this instead of rescanning the prefix.
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Builds a `SourceFile` from in-memory contents.
    pub(crate) fn new(rel_path: String, raw: String) -> Self {
        let (scrubbed, comments) = scrub_with_comments(&raw);
        let mut line_starts = vec![0usize];
        line_starts.extend(
            raw.bytes()
                .enumerate()
                .filter(|&(_, b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        SourceFile {
            rel_path,
            raw,
            scrubbed,
            comments,
            line_starts,
        }
    }

    /// Loads and scrubs `abs_path`, reporting it as `rel_path`.
    pub(crate) fn load(abs_path: &std::path::Path, rel_path: String) -> std::io::Result<Self> {
        let raw = std::fs::read_to_string(abs_path)?;
        Ok(Self::new(rel_path, raw))
    }

    /// 1-indexed line number of a byte offset (`O(log n)` via the
    /// precomputed line-offset table).
    pub(crate) fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }

    /// The raw text of the line containing `offset`, trimmed.
    pub(crate) fn line_text(&self, offset: usize) -> &str {
        self.raw_line(self.line_of(offset))
    }

    /// The raw text of the 1-indexed line `line`, trimmed; empty for
    /// out-of-range line numbers.
    pub(crate) fn raw_line(&self, line: usize) -> &str {
        self.slice_line(&self.raw, line).trim()
    }

    /// The comments-only text of the 1-indexed line `line`.
    pub(crate) fn comment_line(&self, line: usize) -> &str {
        self.slice_line(&self.comments, line)
    }

    /// Total number of lines.
    pub(crate) fn line_count(&self) -> usize {
        self.line_starts.len()
    }

    fn slice_line<'t>(&self, text: &'t str, line: usize) -> &'t str {
        if line == 0 || line > self.line_starts.len() {
            return "";
        }
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(text.len(), |&next| next.saturating_sub(1));
        &text[start..end]
    }

    /// Byte offset where the test module begins (`#[cfg(test)]` before a
    /// `mod`), or the file length if the file has none. Checks that only
    /// apply to shipping code stop scanning there. A `#[cfg(test)]` on a
    /// single item does not count: shipping code may follow it. The
    /// workspace style keeps test modules at the bottom of each file,
    /// which this relies on (the conformance self-test pins the behavior).
    pub(crate) fn test_code_start(&self) -> usize {
        self.scrubbed
            .match_indices("#[cfg(test)]")
            .find(|&(at, attr)| {
                self.scrubbed[at + attr.len()..]
                    .trim_start()
                    .starts_with("mod ")
            })
            .map_or(self.raw.len(), |(at, _)| at)
    }
}

/// Blanks comments and literal bodies, preserving length and newlines.
/// Kept as the single-output entry point for tests.
#[cfg(test)]
pub(crate) fn scrub(src: &str) -> String {
    scrub_with_comments(src).0
}

/// Produces `(scrubbed, comments)` shadows: the first with comments and
/// literal bodies blanked, the second with *only* comment text preserved.
pub(crate) fn scrub_with_comments(src: &str) -> (String, String) {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    // Comments shadow: everything blank except newlines; comment bytes
    // are copied over verbatim as they are blanked from `out`.
    let mut com: Vec<u8> = bytes
        .iter()
        .map(|&b| if b == b'\n' { b'\n' } else { b' ' })
        .collect();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                // Line comment (incl. doc comments): blank to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    com[i] = bytes[i];
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                com[i] = bytes[i];
                com[i + 1] = bytes[i + 1];
                out[i] = b' ';
                out[i + 1] = b' ';
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        com[i] = bytes[i];
                        out[i] = b' ';
                        i += 1;
                        com[i] = bytes[i];
                        out[i] = b' ';
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        com[i] = bytes[i];
                        out[i] = b' ';
                        i += 1;
                        com[i] = bytes[i];
                        out[i] = b' ';
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        com[i] = bytes[i];
                    }
                    i += 1;
                }
            }
            b'"' => i = blank_string(bytes, &mut out, i),
            b'r' | b'b' if starts_raw_or_byte_literal(bytes, i) => {
                // Skip the prefix (`r`, `b`, `br`) then handle the literal.
                let mut j = i + 1;
                if bytes.get(j) == Some(&b'r') {
                    j += 1;
                }
                if bytes.get(j) == Some(&b'#') || bytes.get(j) == Some(&b'"') {
                    i = blank_raw_string(bytes, &mut out, i, j);
                } else if bytes.get(j) == Some(&b'\'') {
                    i = blank_char(bytes, &mut out, j);
                } else {
                    i = blank_string(bytes, &mut out, j);
                }
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    for k in i + 1..end {
                        if bytes[k] != b'\n' {
                            out[k] = b' ';
                        }
                    }
                    i = end;
                } // else: a lifetime — leave it alone.
                i += 1;
            }
            _ => i += 1,
        }
    }
    // Only ASCII bytes were replaced with ASCII spaces, and comment spans
    // were copied wholesale, so both shadows are still valid UTF-8.
    let scrubbed = String::from_utf8(out).unwrap_or_else(|_| unreachable!("scrub preserves UTF-8"));
    let comments = String::from_utf8(com).unwrap_or_else(|_| unreachable!("scrub preserves UTF-8"));
    (scrubbed, comments)
}

/// Does `r…` / `b…` at `i` start a literal (vs. an identifier like `radius`)?
fn starts_raw_or_byte_literal(bytes: &[u8], i: usize) -> bool {
    // Must not be the tail of an identifier.
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let mut j = i + 1;
    if bytes[i] == b'b' && bytes.get(j) == Some(&b'r') {
        j += 1;
    }
    matches!(bytes.get(j), Some(&(b'"' | b'#' | b'\''))) && {
        // `r#ident` (raw identifier) is not a string: require `#` runs to
        // end at a quote.
        let mut k = j;
        while bytes.get(k) == Some(&b'#') {
            k += 1;
        }
        bytes.get(k) == Some(&b'"') || bytes.get(j) == Some(&b'"') || bytes.get(j) == Some(&b'\'')
    }
}

/// Blanks a `"…"` literal starting at the quote; returns the index after it.
fn blank_string(bytes: &[u8], out: &mut [u8], quote: usize) -> usize {
    let mut i = quote + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                if bytes[i] != b'\n' {
                    out[i] = b' ';
                }
                i += 1;
                if i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                }
            }
            b'"' => return i + 1,
            b'\n' => {}
            _ => out[i] = b' ',
        }
        i += 1;
    }
    i
}

/// Blanks a raw string `r##"…"##` whose `#`/`"` run starts at `hashes`.
fn blank_raw_string(bytes: &[u8], out: &mut [u8], _start: usize, hashes: usize) -> usize {
    let mut n_hashes = 0;
    let mut i = hashes;
    while bytes.get(i) == Some(&b'#') {
        n_hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return i; // `r#ident`: not a string after all.
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut k = 0;
            while k < n_hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == n_hashes {
                return i + 1 + n_hashes;
            }
        }
        if bytes[i] != b'\n' {
            out[i] = b' ';
        }
        i += 1;
    }
    i
}

/// Blanks a char literal at `quote`; returns the index after it.
fn blank_char(bytes: &[u8], out: &mut [u8], quote: usize) -> usize {
    match char_literal_end(bytes, quote) {
        Some(end) => {
            for k in quote + 1..end {
                if bytes[k] != b'\n' {
                    out[k] = b' ';
                }
            }
            end + 1
        }
        None => quote + 1,
    }
}

/// If `'` at `i` opens a char literal, the index of its closing quote.
/// Returns `None` for lifetimes (`'a`, `'static`).
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i + 1) {
        Some(&b'\\') => {
            // Escaped char: scan to the closing quote (bounded lookahead —
            // the longest escape is `\u{10FFFF}`).
            (i + 2..(i + 12).min(bytes.len())).find(|&k| bytes[k] == b'\'')
        }
        Some(_) => {
            // `'x'` is a char; `'x` followed by anything else is a lifetime.
            (bytes.get(i + 2) == Some(&b'\'')).then_some(i + 2)
        }
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_preserves_length_and_newlines() {
        let src = "let x = 1; // unwrap()\nlet s = \"panic!(\";\n/* expect( */ let y = 2;\n";
        let out = scrub(src);
        assert_eq!(out.len(), src.len());
        assert_eq!(out.matches('\n').count(), src.matches('\n').count());
        assert!(!out.contains("unwrap"));
        assert!(!out.contains("panic"));
        assert!(!out.contains("expect"));
        assert!(out.contains("let x = 1;"));
        assert!(out.contains("let y = 2;"));
    }

    #[test]
    fn scrub_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(s: &'a str) { let r = r#\"unwrap()\"#; let c = '\\n'; }";
        let out = scrub(src);
        assert!(!out.contains("unwrap"));
        assert!(out.contains("fn f<'a>(s: &'a str)"));
    }

    #[test]
    fn scrub_keeps_code_with_quotes_in_chars() {
        let src = "if c == '\"' { x.unwrap() }";
        let out = scrub(src);
        assert!(out.contains("x.unwrap()"), "{out}");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner unwrap() */ still */ code()";
        let out = scrub(src);
        assert!(!out.contains("unwrap"));
        assert!(out.contains("code()"));
    }

    #[test]
    fn raw_strings_with_multiple_hashes() {
        // Regression: a multi-`#` raw string containing `"#` sequences
        // must be blanked up to (and only up to) its true terminator.
        let src = "let a = r##\"inner \"# unwrap() \"# body\"##; let b = x.unwrap();";
        let out = scrub(src);
        assert!(
            out.contains("x.unwrap()"),
            "code after the raw string must survive: {out}"
        );
        assert_eq!(out.matches("unwrap").count(), 1, "{out}");
    }

    #[test]
    fn raw_string_hash_terminator_is_not_greedy() {
        // `"#` inside an `r##"…"##` literal must not close it early.
        let src = "let s = r##\"a \"# b\"##;\nlet t = 1;\n";
        let out = scrub(src);
        assert!(out.contains("let t = 1;"), "{out}");
        assert!(!out.contains("a \"# b"), "{out}");
    }

    #[test]
    fn deeply_nested_block_comments_terminate_correctly() {
        let src = "/* l1 /* l2 /* l3 panic!() */ l2 */ l1 */ fn ok() {}";
        let out = scrub(src);
        assert!(!out.contains("panic"));
        assert!(out.contains("fn ok() {}"), "{out}");
    }

    #[test]
    fn line_of_matches_linear_scan() {
        let src = "a\nbb\n\nccc\nd";
        let f = SourceFile::new("t.rs".into(), src.into());
        for (offset, _) in src.char_indices() {
            let linear = src.as_bytes()[..offset]
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
                + 1;
            assert_eq!(f.line_of(offset), linear, "offset {offset}");
        }
        assert_eq!(f.line_count(), 5);
    }

    #[test]
    fn comment_shadow_holds_comments_only() {
        let src = "let x = \"// lint: fake — not a waiver\"; // lint: real — waiver\n";
        let f = SourceFile::new("t.rs".into(), src.into());
        assert!(f.comments.contains("// lint: real"), "{}", f.comments);
        assert!(!f.comments.contains("fake"), "{}", f.comments);
        assert!(!f.scrubbed.contains("lint:"), "{}", f.scrubbed);
    }

    #[test]
    fn test_code_starts_at_the_test_module_not_a_test_only_item() {
        let src = "struct A;\nimpl A {\n    #[cfg(test)]\n    fn probe(&self) {}\n    fn real(&self) {}\n}\n#[cfg(test)]\nmod tests {}\n";
        let f = SourceFile::new("t.rs".into(), src.into());
        assert_eq!(f.line_of(f.test_code_start()), 7);
        let f = SourceFile::new("t.rs".into(), "fn f() {}\n".into());
        assert_eq!(f.test_code_start(), f.raw.len());
    }

    #[test]
    fn line_slices_are_consistent() {
        let src = "code(); // note\nsecond\n";
        let f = SourceFile::new("t.rs".into(), src.into());
        assert_eq!(f.raw_line(1), "code(); // note");
        assert_eq!(f.raw_line(2), "second");
        assert_eq!(f.raw_line(3), "");
        assert!(f.comment_line(1).contains("// note"));
    }
}
