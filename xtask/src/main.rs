//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! The only task so far is `lint`: the static-analysis gate described in
//! `DESIGN.md` §6 and §11. It is self-contained (no external
//! dependencies, no network) and runs these passes over the workspace:
//!
//! 1. manifest audit ([`headers::check_manifests`]) — shared
//!    `[workspace.lints]` policy and per-crate inheritance,
//! 2. crate-header audit ([`headers::check_crate_header`]) —
//!    `#![forbid(unsafe_code)]` / `#![warn(missing_docs)]`, with an
//!    explicit allowlist for any crate that relaxes the forbid,
//! 3. source hygiene ([`hygiene`]) — no panic paths in library code, no
//!    float `==` in the numeric crates,
//! 4. determinism audit ([`determinism`]) — no order-sensitive hash
//!    iteration, wall-clock/environment reads, unseeded RNGs,
//!    unjustified `unsafe`, or scheduler-order shared-state merges in
//!    parallel regions,
//! 5. CONGEST conformance ([`congest`]) — every protocol message charges
//!    an `O(log n)`-bounded `bit_size`,
//! 6. waiver audit ([`waivers`]) — one `// lint: <rule> — <reason>`
//!    grammar for every escape hatch; stale waivers are hard errors.
//!
//! The walk covers library sources, binaries (`src/bin`), integration
//! tests (`tests/`), examples, and this tool's own sources
//! (self-hosting), with per-scope rule sets: test code may `unwrap`,
//! nothing may read wall clocks.
//!
//! `cargo xtask lint` takes no options. It first runs the checkers
//! against the seeded-violation fixtures in `xtask/fixtures/` and fails
//! if any seeded violation goes undetected (guarding the gate itself
//! against silent regressions), then walks the workspace. A
//! `// lint: <rule> — <reason>` waiver is the one way to accept a
//! violation.
//!
//! Exit status: 0 when clean, 1 on any violation or a failed self-test,
//! 2 on any argument after `lint`.

mod congest;
mod determinism;
mod headers;
mod hygiene;
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

/// What kind of code a walked file is; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// Shipping library code: the full rule set.
    Lib,
    /// Binaries (`src/bin`): may panic on bad CLI input, but stay
    /// deterministic.
    Bin,
    /// Integration tests: may `unwrap`, but must not read
    /// wall clocks, the environment, or ambient entropy.
    Test,
    /// Examples: same contract as tests.
    Example,
    /// This tool's own sources (self-hosting): library rules.
    Xtask,
}

/// Workspace members whose manifests must inherit `[workspace.lints]`.
/// `""` is the root package.
const MEMBERS: &[&str] = &[
    "",
    "crates/bench",
    "crates/core",
    "crates/geometry",
    "crates/graphs",
    "crates/lp",
    "crates/netsim",
    "crates/par",
    "xtask",
];

/// Crate roots audited for the required header attributes.
const CRATE_ROOTS: &[&str] = &[
    "src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/geometry/src/lib.rs",
    "crates/graphs/src/lib.rs",
    "crates/lp/src/lib.rs",
    "crates/netsim/src/lib.rs",
    "crates/par/src/lib.rs",
];

/// Every source tree the gate walks, with its scope. Library trees skip
/// their `bin/` subtrees (walked separately under [`Scope::Bin`]).
const SCOPED_TREES: &[(&str, Scope)] = &[
    ("src", Scope::Lib),
    ("crates/bench/src", Scope::Lib),
    ("crates/core/src", Scope::Lib),
    ("crates/geometry/src", Scope::Lib),
    ("crates/graphs/src", Scope::Lib),
    ("crates/lp/src", Scope::Lib),
    ("crates/netsim/src", Scope::Lib),
    ("crates/par/src", Scope::Lib),
    ("src/bin", Scope::Bin),
    ("crates/bench/src/bin", Scope::Bin),
    ("tests", Scope::Test),
    ("examples", Scope::Example),
    ("xtask/src", Scope::Xtask),
];

/// Numeric crates where float `==` is checked.
const FLOAT_EQ_TREES: &[&str] = &["crates/lp/src", "crates/geometry/src"];

/// Trees whose code feeds the deterministic simulation: order-sensitive
/// hash iteration and scheduler-order merges are forbidden here.
const DETERMINISM_TREES: &[&str] = &[
    "src/",
    "crates/netsim/src",
    "crates/core/src",
    "crates/par/src",
    "crates/graphs/src",
    "crates/bench/src",
    "xtask/src",
];

/// Files subject to the CONGEST pass: the whole simulator crate plus the
/// core protocol modules. The `bool` marks protocol modules, where every
/// `*Msg` type must have a `Payload` impl.
const CONGEST_SCOPES: &[(&str, bool)] = &[
    ("crates/netsim/src", false),
    ("crates/netsim/src/trace.rs", true),
    ("crates/netsim/src/transport.rs", true),
    ("crates/netsim/src/adversary.rs", true),
    ("crates/core/src/fractional/protocol.rs", true),
    ("crates/core/src/rounding/protocol.rs", true),
    ("crates/core/src/udg/protocol.rs", true),
    ("crates/core/src/promotion.rs", true),
    ("crates/core/src/repair.rs", true),
    ("crates/core/src/portfolio", true),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [task] if task == "lint" => {}
        [task, extra, ..] if task == "lint" => {
            eprintln!("`cargo xtask lint` takes no options, got `{extra}`");
            return ExitCode::from(2);
        }
        _ => {
            eprintln!("usage: cargo xtask lint");
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

/// Is this file inside a determinism-scoped tree?
fn in_determinism_tree(rel_path: &str) -> bool {
    DETERMINISM_TREES.iter().any(|t| rel_path.starts_with(t))
}

/// Runs the per-file passes appropriate for `scope`.
pub(crate) fn run_scoped_passes(file: &SourceFile, scope: Scope, out: &mut Vec<Violation>) {
    let full = file.raw.len();
    let lib_limit = file.test_code_start();
    // Panic hygiene: shipping library code and the self-hosted tool.
    if matches!(scope, Scope::Lib | Scope::Xtask) {
        hygiene::check_panic_paths(file, out);
    }
    if scope == Scope::Lib && FLOAT_EQ_TREES.iter().any(|t| file.rel_path.starts_with(t)) {
        hygiene::check_float_eq(file, out);
    }
    // Driver drift: library crates must not re-grow the per-combination
    // runner matrix the executor stack replaced.
    if scope == Scope::Lib {
        hygiene::check_driver_drift(file, out);
    }
    // Ambient-nondeterminism rules hold everywhere, *including* inline
    // test modules: a wall-clock read in a test breaks replayability
    // just as surely as one in the engine.
    determinism::check_wall_clock(file, full, out);
    determinism::check_env_read(file, full, out);
    determinism::check_unseeded_rng(file, full, out);
    determinism::check_unsafe_safety(file, full, out);
    // Order-discipline rules guard simulation state; test modules may
    // iterate hash maps over their own assertions.
    if matches!(scope, Scope::Lib | Scope::Bin | Scope::Xtask)
        && in_determinism_tree(&file.rel_path)
    {
        determinism::check_hashmap_iteration(file, lib_limit, out);
        determinism::check_merge_order(file, lib_limit, out);
    }
}

/// Runs every pass and reports. Exit 0 iff the gate passes.
fn run_lint(root: &Path) -> ExitCode {
    let mut violations = Vec::new();
    headers::check_manifests(root, MEMBERS, &mut violations);
    for lib in CRATE_ROOTS {
        headers::check_crate_header(root, lib, &mut violations);
    }
    let mut waiver_map: BTreeMap<String, Vec<waivers::Waiver>> = BTreeMap::new();
    let mut files_checked = 0usize;
    for &(tree, scope) in SCOPED_TREES {
        for file in load_tree(root, tree) {
            run_scoped_passes(&file, scope, &mut violations);
            let ws = waivers::collect(&file, &mut violations);
            if !ws.is_empty() {
                waiver_map.insert(file.rel_path.clone(), ws);
            }
            files_checked += 1;
        }
    }
    for &(scope, protocol_module) in CONGEST_SCOPES {
        for file in load_tree(root, scope) {
            congest::check(&file, protocol_module, &mut violations);
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

/// Loads and scrubs every `.rs` file under `root/rel` (a directory or a
/// single file), excluding `bin/` subtrees (walked separately with
/// [`Scope::Bin`]).
pub(crate) fn load_tree(root: &Path, rel: &str) -> Vec<SourceFile> {
    let mut out = Vec::new();
    let base = root.join(rel);
    if base.is_file() {
        if let Ok(f) = SourceFile::load(&base, rel.to_owned()) {
            out.push(f);
        }
        return out;
    }
    let mut stack = vec![base];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "bin") {
                    continue; // bins are walked under their own scope
                }
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
