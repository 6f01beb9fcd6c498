//! Manifest audit: the shared lint policy is complete and reaches every
//! crate.
//!
//! Most of the workspace's rules are compiler lints switched on in
//! configuration, so a deleted line or a crate that does not opt in turns
//! a rule off without a sound. This pass checks that configuration:
//!
//! * **workspace-lints** — the root manifest sets every key in
//!   [`REQUIRED_LINTS`], and every workspace member inherits the policy
//!   with `[lints] workspace = true`. The member list is the root
//!   manifest's `members` (each `<dir>/*` pattern expanded to the
//!   directories holding a `Cargo.toml`) plus the root package, so a new
//!   crate is audited as soon as cargo builds it.
//! * **clippy-config** — the root `clippy.toml` names every path in
//!   [`DISALLOWED_PATHS`].
//!
//! Both checks test presence only: a key or path that is listed is
//! trusted to carry its rule.

use crate::Violation;
use std::path::Path;

/// Lint keys the root manifest must set, by table. Each carries a rule
/// that rustc or clippy enforces on every member.
const REQUIRED_LINTS: &[(&str, &[&str])] = &[
    ("workspace.lints.rust", &["unsafe_code", "missing_docs"]),
    (
        "workspace.lints.clippy",
        &[
            "unwrap_used",
            "expect_used",
            "panic",
            "todo",
            "unimplemented",
            "disallowed_methods",
            "disallowed_types",
        ],
    ),
];

/// Paths `clippy.toml` must list under `disallowed-methods` or
/// `disallowed-types`: the ambient sources of nondeterminism.
const DISALLOWED_PATHS: &[&str] = &[
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::thread::current",
    "std::env::var",
    "std::env::var_os",
    "std::env::vars",
    "std::env::vars_os",
    "std::time::SystemTime",
    "std::collections::HashMap",
    "std::collections::HashSet",
];

/// Runs the audit and returns the workspace members (`""` is the root
/// package), which the source passes walk.
pub(crate) fn check(root: &Path, out: &mut Vec<Violation>) -> Vec<String> {
    let Some(root_manifest) = read(root, "Cargo.toml", out) else {
        return Vec::new();
    };
    check_lint_tables(&root_manifest, out);
    if let Some(config) = read(root, "clippy.toml", out) {
        check_clippy_config(&config, out);
    }
    let members = match workspace_members(root, &root_manifest) {
        Ok(members) => members,
        Err(message) => {
            out.push(violation("workspace-lints", "Cargo.toml", message));
            return Vec::new();
        }
    };
    for member in &members {
        let rel = if member.is_empty() {
            "Cargo.toml".to_owned()
        } else {
            format!("{member}/Cargo.toml")
        };
        let Some(text) = read(root, &rel, out) else {
            continue;
        };
        if !table_entries(&text, "lints").any(|entry| entry == ("workspace", "true")) {
            out.push(violation(
                "workspace-lints",
                &rel,
                "manifest does not inherit the shared lint policy: add \
                 `[lints]\\nworkspace = true`"
                    .to_owned(),
            ));
        }
    }
    members
}

fn violation(rule: &'static str, path: &str, message: String) -> Violation {
    Violation {
        rule,
        path: path.to_owned(),
        line: 1,
        message,
    }
}

fn read(root: &Path, rel: &str, out: &mut Vec<Violation>) -> Option<String> {
    let text = std::fs::read_to_string(root.join(rel));
    if text.is_err() {
        out.push(violation("workspace-lints", rel, "not readable".to_owned()));
    }
    text.ok()
}

/// Flags every [`REQUIRED_LINTS`] key the root manifest does not set.
fn check_lint_tables(root_manifest: &str, out: &mut Vec<Violation>) {
    for &(table, keys) in REQUIRED_LINTS {
        for key in keys {
            if !table_entries(root_manifest, table).any(|(k, _)| k == *key) {
                out.push(violation(
                    "workspace-lints",
                    "Cargo.toml",
                    format!("`[{table}]` does not set `{key}`, which carries a workspace rule"),
                ));
            }
        }
    }
}

/// Flags every [`DISALLOWED_PATHS`] entry `clippy.toml` does not name.
fn check_clippy_config(config: &str, out: &mut Vec<Violation>) {
    let config: String = config.lines().map(strip_comment).collect();
    for path in DISALLOWED_PATHS {
        if !config.contains(&format!("\"{path}\"")) {
            out.push(violation(
                "clippy-config",
                "clippy.toml",
                format!("`{path}` is not disallowed; list it under `disallowed-methods` or `disallowed-types`"),
            ));
        }
    }
}

/// A manifest line without its `#` comment, trimmed.
fn strip_comment(line: &str) -> &str {
    line.split('#').next().unwrap_or("").trim()
}

/// The `key = value` entries of the manifest table `[table]`, trimmed.
fn table_entries<'t>(
    manifest: &'t str,
    table: &'t str,
) -> impl Iterator<Item = (&'t str, &'t str)> + 't {
    let mut inside = false;
    manifest.lines().filter_map(move |line| {
        let line = strip_comment(line);
        if let Some(header) = line.strip_prefix('[') {
            inside = header.strip_suffix(']') == Some(table);
            return None;
        }
        let (key, value) = line.split_once('=').filter(|_| inside)?;
        Some((key.trim(), value.trim()))
    })
}

/// The patterns of `[workspace] members`, which must be a one-line
/// array.
fn member_patterns(root_manifest: &str) -> Result<Vec<&str>, String> {
    let (_, array) = table_entries(root_manifest, "workspace")
        .find(|&(key, _)| key == "members")
        .ok_or("the root manifest names no workspace members")?;
    let inner = array
        .strip_prefix('[')
        .and_then(|a| a.strip_suffix(']'))
        .ok_or("`[workspace] members` must be a one-line array")?;
    Ok(inner
        .split(',')
        .map(|s| s.trim().trim_matches('"'))
        .filter(|s| !s.is_empty())
        .collect())
}

/// The workspace members: the root package (`""`) if the root manifest
/// has one, then each `members` pattern in order, a `<dir>/*` pattern
/// expanded to its subdirectories that hold a `Cargo.toml`, sorted.
fn workspace_members(root: &Path, root_manifest: &str) -> Result<Vec<String>, String> {
    let mut members = Vec::new();
    if root_manifest
        .lines()
        .any(|l| strip_comment(l) == "[package]")
    {
        members.push(String::new());
    }
    for pattern in member_patterns(root_manifest)? {
        let Some(dir) = pattern.strip_suffix("/*").filter(|d| !d.contains('*')) else {
            if pattern.contains('*') {
                return Err(format!(
                    "member pattern `{pattern}` is not of the form `<dir>/*`"
                ));
            }
            members.push(pattern.to_owned());
            continue;
        };
        let entries = std::fs::read_dir(root.join(dir))
            .map_err(|e| format!("member pattern `{pattern}`: {e}"))?;
        let mut found: Vec<String> = entries
            .flatten()
            .filter(|e| e.path().join("Cargo.toml").is_file())
            .filter_map(|e| e.file_name().to_str().map(|name| format!("{dir}/{name}")))
            .collect();
        found.sort();
        members.extend(found);
    }
    Ok(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_file(rel: &str) -> String {
        std::fs::read_to_string(crate::workspace_root().join(rel)).unwrap()
    }

    #[test]
    fn detects_inheritance() {
        let inherits =
            |m: &str| table_entries(m, "lints").any(|entry| entry == ("workspace", "true"));
        assert!(inherits(
            "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
        ));
        assert!(!inherits("[package]\nname = \"x\"\n"));
        assert!(!inherits("[lints]\n\n[dependencies]\nworkspace = true\n"));
    }

    #[test]
    fn members_expand_to_every_manifest_in_the_tree() {
        let root = crate::workspace_root();
        let members = workspace_members(&root, &tree_file("Cargo.toml")).unwrap();
        assert_eq!(
            members,
            [
                "",
                "crates/bench",
                "crates/core",
                "crates/geometry",
                "crates/graphs",
                "crates/lp",
                "crates/netsim",
                "crates/par",
                "xtask",
            ]
        );
        let mut out = Vec::new();
        assert_eq!(check(&root, &mut out), members);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn member_patterns_must_be_a_one_line_array_of_dir_globs() {
        let one =
            "[package]\nmembers = [\"no\"]\n[workspace]\nmembers = [\"crates/*\", \"xtask\"] # c\n";
        assert_eq!(member_patterns(one).unwrap(), ["crates/*", "xtask"]);
        let root = crate::workspace_root();
        for bad in [
            "[workspace]\nmembers = [\n  \"a\",\n]\n",
            "[workspace]\nmembers = [\"*/x\"]\n",
            "[workspace]\n",
        ] {
            assert!(workspace_members(&root, bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_missing_lint_key_fails_the_audit() {
        let manifest = tree_file("Cargo.toml");
        let mut out = Vec::new();
        check_lint_tables(&manifest, &mut out);
        assert!(out.is_empty(), "{out:?}");
        let without = manifest.replace("unwrap_used = \"warn\"\n", "");
        assert_ne!(without, manifest);
        check_lint_tables(&without, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`unwrap_used`"), "{}", out[0]);
    }

    #[test]
    fn a_missing_disallowed_path_fails_the_audit() {
        let config = tree_file("clippy.toml");
        let mut out = Vec::new();
        check_clippy_config(&config, &mut out);
        assert!(out.is_empty(), "{out:?}");
        let without: String = config
            .lines()
            .filter(|l| !l.contains("\"std::env::var_os\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_ne!(without, config);
        check_clippy_config(&without, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("std::env::var_os"), "{}", out[0]);
        let commented = config.replace("{ path = \"std::thread::current\"", "# {");
        out.clear();
        check_clippy_config(&commented, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }
}
