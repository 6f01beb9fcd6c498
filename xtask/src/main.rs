//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! Two tasks:
//!
//! * `ab` ([`ab`]): paired benchmark runs of a parent and a change
//!   checkout, reported as medians, quartiles and wins per end-to-end
//!   metric;
//! * `lint`: the part of the static-analysis gate that `rustc` and
//!   `clippy` cannot express (`DESIGN.md` §6 and §11).
//!
//! The rest of this page is about `lint`.
//! Panic hygiene, wall-clock and environment reads, hash-collection
//! types and the `unsafe` ban are compiler lints, configured in the root
//! `Cargo.toml`'s `[workspace.lints]` and in `clippy.toml`. This tool is
//! self-contained (no external dependencies, no network) and runs these
//! passes:
//!
//! 1. manifest audit ([`manifest`]): every workspace member inherits
//!    `[workspace.lints]`, and the lint keys and `clippy.toml` paths
//!    that carry the toolchain-enforced rules are all present,
//! 2. float equality ([`float_eq`]): no float `==` in the numeric
//!    crates,
//! 3. merge order ([`merge_order`]): no scheduler-order shared-state
//!    merge inside a parallel call site,
//! 4. waiver audit ([`waivers`]): one `// lint: <rule> — <reason>`
//!    grammar for every escape hatch; stale waivers are hard errors.
//!
//! The source passes walk the `src/` tree of every workspace member
//! (binaries included) and stop at each file's `#[cfg(test)]` region.
//! Message sizes are not a lint: each protocol's message type states its
//! CONGEST bound beside its `bit_size`, and `ftclust-core`'s debug audit
//! checks every run against it.
//!
//! `cargo xtask lint` takes no options. It first runs the checkers
//! against the seeded-violation fixtures in `xtask/fixtures/` and fails
//! if any seeded violation goes undetected (guarding the gate itself
//! against silent regressions), then walks the workspace.
//!
//! Exit status: 0 when clean, 1 on any violation or a failed self-test,
//! 2 on any argument after `lint`.

mod ab;
mod float_eq;
mod json;
mod manifest;
mod merge_order;
mod selftest;
mod source;
mod waivers;

use source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One finding of one lint rule.
#[derive(Debug)]
pub(crate) struct Violation {
    /// Stable rule identifier (kebab-case).
    pub(crate) rule: &'static str,
    /// Workspace-relative file path.
    pub(crate) path: String,
    /// 1-indexed line.
    pub(crate) line: usize,
    /// Human-readable explanation.
    pub(crate) message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Numeric crates where float `==` is checked.
const FLOAT_EQ_TREES: &[&str] = &["crates/lp/src", "crates/geometry/src"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [task] if task == "lint" => {}
        [task, extra, ..] if task == "lint" => {
            eprintln!("`cargo xtask lint` takes no options, got `{extra}`");
            return ExitCode::from(2);
        }
        [task, rest @ ..] if task == "ab" => return ab::run(rest),
        _ => {
            eprintln!("usage: cargo xtask lint | cargo xtask ab <parent> <change> --workload W …");
            return ExitCode::from(2);
        }
    }
    let root = workspace_root();
    if let Err(msg) = selftest::run(&root) {
        eprintln!("self-test FAILED: {msg}");
        return ExitCode::from(1);
    }
    println!("self-test passed: seeded violations detected, clean fixture clean");
    run_lint(&root)
}

/// The workspace root: the parent of this crate's manifest directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .map_or(manifest.clone(), Path::to_path_buf)
}

/// Runs every pass and reports. Exit 0 iff the gate passes.
fn run_lint(root: &Path) -> ExitCode {
    let mut violations = Vec::new();
    let members = manifest::check(root, &mut violations);
    let mut waiver_map: BTreeMap<String, Vec<waivers::Waiver>> = BTreeMap::new();
    let mut files_checked = 0usize;
    for member in &members {
        let tree = if member.is_empty() {
            "src".to_owned()
        } else {
            format!("{member}/src")
        };
        for file in load_tree(root, &tree) {
            if FLOAT_EQ_TREES.iter().any(|t| file.rel_path.starts_with(t)) {
                float_eq::check(&file, &mut violations);
            }
            merge_order::check(&file, &mut violations);
            let ws = waivers::collect(&file, &mut violations);
            if !ws.is_empty() {
                waiver_map.insert(file.rel_path.clone(), ws);
            }
            files_checked += 1;
        }
    }
    let mut violations = waivers::apply(violations, &mut waiver_map);
    if violations.is_empty() {
        println!("lint clean: {files_checked} files, 0 violations");
        return ExitCode::SUCCESS;
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    for v in &violations {
        eprintln!("{v}");
    }
    eprintln!("lint FAILED: {} violation(s)", violations.len());
    ExitCode::from(1)
}

/// Loads and scrubs every `.rs` file under the directory `root/rel`,
/// sorted by path.
fn load_tree(root: &Path, rel: &str) -> Vec<SourceFile> {
    let mut out = Vec::new();
    let mut stack = vec![root.join(rel)];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel_path = path
                    .strip_prefix(root)
                    .map_or_else(|_| path.display().to_string(), |p| p.display().to_string());
                if let Ok(f) = SourceFile::load(&path, rel_path) {
                    out.push(f);
                }
            }
        }
    }
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    out
}
