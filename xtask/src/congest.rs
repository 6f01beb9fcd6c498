//! CONGEST-conformance checker.
//!
//! The paper's algorithms run in the CONGEST model: every message carries
//! `O(log n)` bits (Theorems 4.5, 4.6, 5.7). The simulator meters message
//! sizes through `Payload::bit_size`, so the model guarantee holds only
//! if every `bit_size` implementation charges a genuinely bounded cost.
//! This pass statically audits those implementations:
//!
//! * **payload-impl-required** — every protocol message type (`*Msg`) in a
//!   protocol module must implement `Payload`; a message without bit
//!   accounting silently escapes the CONGEST meter.
//! * **bit-size-required** — a `Payload` impl must define `bit_size`
//!   itself (not lean on a future default) so the cost is visible at the
//!   message definition site.
//! * **no-width-of-type** — `bit_size` must not derive costs from machine
//!   type widths (`size_of`, `::BITS`): charging the in-memory width of a
//!   `u64`/`f64` meters the *representation*, not an `O(log n)` encoding.
//! * **no-flat-blob** — integer literals in `bit_size` larger than
//!   [`MAX_FLAT_BITS`] flag a fixed-width blob that cannot be justified
//!   as a header/flag cost.
//! * **quantized-floats** — if a payload type carries `f64`/`f32` fields,
//!   its `bit_size` must charge a named `*_BITS` quantization constant
//!   (or `bits_for_ids`), and the defining module must document the
//!   quantization (the word "quantiz…" or "fixed-point" in its docs), as
//!   `fractional::protocol` does for `VALUE_BITS`. A float charged at
//!   full hardware width with no note is an unbounded encoding.

use crate::source::SourceFile;
use crate::Violation;

/// Largest integer literal acceptable as a flat header/flag cost in a
/// `bit_size` body. `O(log n)` terms must come from `bits_for_ids`-style
/// calls or documented quantization constants instead.
pub(crate) const MAX_FLAT_BITS: u64 = 128;

/// A parsed `impl Payload for T` block.
#[derive(Debug)]
struct PayloadImpl {
    type_name: String,
    /// Scrubbed text of the `bit_size` body, if defined.
    bit_size_body: Option<String>,
    /// Line of the `impl` header.
    line: usize,
}

/// Runs all CONGEST rules over one file.
///
/// `protocol_module` is true for the `core` protocol modules, where every
/// `*Msg` type must have a `Payload` impl (rule payload-impl-required).
pub(crate) fn check(file: &SourceFile, protocol_module: bool, out: &mut Vec<Violation>) {
    let limit = file.test_code_start();
    let code = &file.scrubbed[..limit];
    let impls = parse_payload_impls(file, code);

    if protocol_module {
        for (name, offset) in message_types(code) {
            if !impls.iter().any(|p| p.type_name == name) {
                out.push(Violation {
                    rule: "payload-impl-required",
                    path: file.rel_path.clone(),
                    line: file.line_of(offset),
                    message: format!(
                        "protocol message type `{name}` has no `Payload` impl in its \
                         module — its messages would bypass CONGEST bit accounting"
                    ),
                });
            }
        }
    }

    for imp in &impls {
        let Some(body) = &imp.bit_size_body else {
            out.push(Violation {
                rule: "bit-size-required",
                path: file.rel_path.clone(),
                line: imp.line,
                message: format!(
                    "`impl Payload for {}` does not define `bit_size`; the message \
                     cost must be stated at the definition site",
                    imp.type_name
                ),
            });
            continue;
        };
        if body.contains("size_of") || body.contains("::BITS") {
            out.push(Violation {
                rule: "no-width-of-type",
                path: file.rel_path.clone(),
                line: imp.line,
                message: format!(
                    "`{}::bit_size` charges a machine type width (`size_of`/`::BITS`); \
                     CONGEST costs must be O(log n) encodings, not in-memory layouts",
                    imp.type_name
                ),
            });
        }
        for lit in integer_literals(body) {
            if lit > MAX_FLAT_BITS {
                out.push(Violation {
                    rule: "no-flat-blob",
                    path: file.rel_path.clone(),
                    line: imp.line,
                    message: format!(
                        "`{}::bit_size` charges a flat {lit} bits — larger than any \
                         plausible header; encode via bits_for_ids(n) or a documented \
                         quantization constant",
                        imp.type_name
                    ),
                });
            }
        }
        if type_has_float_fields(code, &imp.type_name) {
            let charges_bounded_term =
                body.contains("bits_for_ids") || references_bits_constant(body);
            let documented = file.raw[..limit].to_ascii_lowercase().contains("quantiz")
                || file.raw[..limit].contains("fixed-point");
            if !charges_bounded_term || !documented {
                out.push(Violation {
                    rule: "quantized-floats",
                    path: file.rel_path.clone(),
                    line: imp.line,
                    message: format!(
                        "`{}` carries float fields but its bit accounting is not tied to \
                         a documented quantization: charge a named *_BITS constant (or \
                         bits_for_ids) and explain the fixed-point encoding in the module \
                         docs",
                        imp.type_name
                    ),
                });
            }
        }
    }
}

/// Finds `impl Payload for <Type>` headers (plain or path-qualified) and
/// extracts each impl's `bit_size` body.
fn parse_payload_impls(file: &SourceFile, code: &str) -> Vec<PayloadImpl> {
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find("Payload for ") {
        let offset = from + pos;
        from = offset + "Payload for ".len();
        // The match must be a trait path inside an `impl` header: close to
        // a preceding `impl` with no intervening block or statement.
        let head_ok = code[..offset].rfind("impl").is_some_and(|h| {
            offset - h < 128 && !code[h..offset].contains('{') && !code[h..offset].contains(';')
        });
        if head_ok {
            let rest = &code[from..];
            let type_name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if type_name.is_empty() {
                continue;
            }
            let Some(open) = rest.find('{') else {
                continue;
            };
            let body = balanced_block(rest, open);
            let bit_size_body = body.and_then(|b| {
                b.find("fn bit_size").and_then(|p| {
                    let tail = &b[p..];
                    let open = tail.find('{')?;
                    balanced_block(tail, open).map(str::to_owned)
                })
            });
            found.push(PayloadImpl {
                type_name,
                bit_size_body,
                line: file.line_of(offset),
            });
        }
    }
    found
}

/// The text inside the balanced `{ … }` starting at `open` (exclusive of
/// the outer braces), or `None` if unbalanced.
fn balanced_block(text: &str, open: usize) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[open + 1..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// `(name, byte offset)` of every `pub enum FooMsg` / `pub struct FooMsg`
/// declaration.
fn message_types(code: &str) -> Vec<(String, usize)> {
    let mut found = Vec::new();
    for kw in ["enum ", "struct "] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(kw) {
            let offset = from + pos;
            from = offset + kw.len();
            // Must be a declaration keyword, not part of an identifier.
            if offset > 0 {
                let prev = code.as_bytes()[offset - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            let name: String = code[from..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.ends_with("Msg") {
                found.push((name, offset));
            }
        }
    }
    found
}

/// Does the definition of `type_name` in this file contain `f64`/`f32`
/// fields?
fn type_has_float_fields(code: &str, type_name: &str) -> bool {
    for kw in ["enum ", "struct "] {
        let decl = format!("{kw}{type_name}");
        if let Some(pos) = code.find(&decl) {
            if let Some(open) = code[pos..].find('{') {
                if let Some(body) = balanced_block(&code[pos..], open) {
                    return body.contains("f64") || body.contains("f32");
                }
            }
        }
    }
    false
}

/// Does the body reference a `SCREAMING_CASE` constant ending in `BITS`
/// (e.g. `VALUE_BITS`) or a field/local named `…_bits`?
fn references_bits_constant(body: &str) -> bool {
    body.contains("BITS") || body.contains("_bits")
}

/// All decimal integer literals in a scrubbed code fragment.
fn integer_literals(body: &str) -> Vec<u64> {
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit()
            && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
        {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                i += 1;
            }
            // Skip float literals and range expressions.
            if bytes.get(i) == Some(&b'.') {
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit() || bytes[i] == b'.' || bytes[i] == b'_')
                {
                    i += 1;
                }
                continue;
            }
            let digits: String = body[start..i].chars().filter(|c| *c != '_').collect();
            if let Ok(v) = digits.parse::<u64>() {
                out.push(v);
            }
            // Skip type suffixes (`u64`, `usize`).
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, protocol_module: bool) -> Vec<Violation> {
        let file = SourceFile::new("test.rs".into(), src.into());
        let mut v = Vec::new();
        check(&file, protocol_module, &mut v);
        v
    }

    const GOOD: &str = r#"
//! Values are quantized to VALUE_BITS fixed-point bits.
pub const VALUE_BITS: usize = 32;
pub enum GoodMsg { A { x: f64 }, B }
impl Payload for GoodMsg {
    fn bit_size(&self) -> usize {
        match self {
            GoodMsg::A { .. } => VALUE_BITS + bits_for_ids(7),
            GoodMsg::B => 1,
        }
    }
}
"#;

    #[test]
    fn clean_protocol_passes() {
        assert!(run(GOOD, true).is_empty(), "{:?}", run(GOOD, true));
    }

    #[test]
    fn missing_impl_flagged_in_protocol_modules_only() {
        let src = "pub enum OrphanMsg { A }\n";
        let v = run(src, true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "payload-impl-required");
        assert!(run(src, false).is_empty());
    }

    #[test]
    fn size_of_flagged() {
        let src = "pub enum M2Msg { A }\nimpl Payload for M2Msg {\n    fn bit_size(&self) -> usize { std::mem::size_of::<u64>() * 8 }\n}\n";
        let v = run(src, true);
        assert!(v.iter().any(|v| v.rule == "no-width-of-type"), "{v:?}");
    }

    #[test]
    fn flat_blob_flagged() {
        let src = "pub enum M3Msg { A }\nimpl Payload for M3Msg {\n    fn bit_size(&self) -> usize { 4096 }\n}\n";
        let v = run(src, true);
        assert!(v.iter().any(|v| v.rule == "no-flat-blob"), "{v:?}");
    }

    #[test]
    fn undocumented_float_flagged() {
        let src = "pub enum M4Msg { A { x: f64 } }\nimpl Payload for M4Msg {\n    fn bit_size(&self) -> usize { 64 }\n}\n";
        let v = run(src, true);
        assert!(v.iter().any(|v| v.rule == "quantized-floats"), "{v:?}");
    }

    #[test]
    fn integer_literal_extraction() {
        assert_eq!(integer_literals("2 * VALUE_BITS + 1_000"), vec![2, 1000]);
        assert_eq!(integer_literals("x1 + 0.5 + 3u64"), vec![3]);
    }
}
