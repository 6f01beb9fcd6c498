//! `cargo xtask ab`: paired benchmark runs of two checkouts.
//!
//! ```text
//! cargo xtask ab <parent-checkout> <change-checkout> --workload W
//!                [--pairs 10] [--seconds 20] [--seed 1] [--builds 1]
//!                [--trace 0]
//! ```
//!
//! Pair `i` (from 0) runs each checkout's own `python3 perfbench/run.py
//! --workload W --seed S+i --seconds T --trace X`, so drift on the host
//! falls on both sides alike, the side that runs first alternates (see
//! [`order`]). Each checkout builds with `--remap-path-prefix
//! <checkout>=/ftclust` as its only compiler flag (passed as
//! `CARGO_ENCODED_RUSTFLAGS`, so a path with spaces stays one flag; a
//! `RUSTFLAGS` of the caller is not applied to either side) into its own
//! `.bench_build/`: both binaries embed the same source paths, so a
//! difference in the length of the two checkout paths cannot move the
//! code's layout.
//!
//! Code placement still moves end-to-end times by a few per cent with
//! any change to the binary. `--builds B` samples it: pair `i` runs
//! build `i mod B` of both sides, and build `b` remaps the sources to
//! `/ftclust` followed by `5b` underscores (a longer embedded path,
//! hence another layout) and builds into `.bench_build/layout-b`. The
//! report then adds each metric's per-build medians, so a difference
//! between the sides can be set against the spread between builds of
//! one side.
//!
//! The report gives, for every end-to-end metric the change checkout's
//! `BENCHMARK.json` declares (every per-layer one with `--trace 1`),
//! each side's median and quartiles, the
//! change's median over the parent's, the pairs the change won (strictly
//! better in the metric's direction) and whether the medians lie further
//! apart than the parent's interquartile range. A run that fails, prints
//! no result, or reports `"correct": false` or failed operations aborts
//! the comparison, naming the side, the pair and the seed.
//!
//! Exit status: 0 after a report, 1 when a run fails, 2 on a usage error.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Where every checkout's source paths are remapped to.
const REMAPPED_ROOT: &str = "/ftclust";

/// One side of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Parent,
    Change,
}

impl Side {
    fn name(self) -> &'static str {
        match self {
            Side::Parent => "parent",
            Side::Change => "change",
        }
    }
}

/// The options of one comparison.
#[derive(Debug, PartialEq)]
struct Plan {
    parent: PathBuf,
    change: PathBuf,
    workload: String,
    pairs: u64,
    seconds: u64,
    seed: u64,
    builds: u64,
    /// Run the harness's per-layer mode (`--trace 1`) instead of its
    /// end-to-end one.
    trace: bool,
}

impl Plan {
    fn parse(args: &[String]) -> Result<Plan, String> {
        let mut positional = Vec::new();
        let (mut workload, mut pairs, mut seconds, mut seed, mut builds) = (None, 10, 20, 1, 1);
        let mut trace = false;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                positional.push(PathBuf::from(arg));
                continue;
            };
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("--{key} takes a whole number, got `{value}`"))
            };
            match key {
                "workload" => workload = Some(value.clone()),
                "pairs" => pairs = number()?,
                "seconds" => seconds = number()?,
                "seed" => seed = number()?,
                "builds" => builds = number()?,
                "trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    }
                }
                _ => return Err(format!("unknown option --{key}")),
            }
        }
        let [parent, change] = <[PathBuf; 2]>::try_from(positional)
            .map_err(|p| format!("expected two checkouts, got {}", p.len()))?;
        if pairs == 0 || seconds == 0 || builds == 0 {
            return Err("--pairs, --seconds and --builds must be at least 1".into());
        }
        if builds > pairs {
            return Err(format!("{builds} builds need at least {builds} pairs"));
        }
        let workload = workload.ok_or("missing --workload")?;
        Ok(Plan {
            parent,
            change,
            workload,
            pairs,
            seconds,
            seed,
            builds,
            trace,
        })
    }

    /// The build that pair `i` runs, on both sides.
    fn build(&self, pair: u64) -> u64 {
        pair % self.builds
    }

    /// The list of `BENCHMARK.json` whose metrics the runs report.
    fn metric_list(&self) -> &'static str {
        if self.trace {
            "per_layer"
        } else {
            "end_to_end"
        }
    }

    /// The order in which pair `i` runs the two sides: the parent first
    /// in even rounds over the builds and the change first in odd ones,
    /// so every build runs each side first in turn.
    fn order(&self, pair: u64) -> [Side; 2] {
        order(pair / self.builds)
    }
}

/// The order of the sides in the `k`-th run of one build.
fn order(k: u64) -> [Side; 2] {
    if k.is_multiple_of(2) {
        [Side::Parent, Side::Change]
    } else {
        [Side::Change, Side::Parent]
    }
}

/// The `q`-quantile of sorted `xs`, interpolated linearly between the
/// closest ranks.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let h = (xs.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(xs.len() - 1);
    xs[lo] + (h - lo as f64) * (xs[hi] - xs[lo])
}

/// `(first quartile, median, third quartile)` of `xs`.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        quantile(&sorted, 0.25),
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.75),
    )
}

/// The metrics of one run, read from the last line `run.py` printed
/// (`"metrics": {"<name>": {"value": <x>, "unit": "<u>"}, …}`).
/// Errors when there is no result, or the run was wrong or failed some
/// operation.
fn parse_result(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no result line")?;
    let result = Json::parse(last).map_err(|e| format!("unreadable result line: {e}"))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("the run was not correct: {last}"));
    }
    if result.get("failed") != Some(&Json::Num(0.0)) {
        return Err(format!("operations failed: {last}"));
    }
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("no metrics object: {last}"));
    };
    metrics
        .iter()
        .map(|(k, v)| {
            v.get("value")
                .and_then(Json::as_f64)
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("metric {k} has no numeric value"))
        })
        .collect()
}

/// The metrics of the list `list` of `BENCHMARK.json` (`end_to_end`
/// or `per_layer`): name and whether lower is better.
fn benchmark_metrics(benchmark: &str, list: &str) -> Result<Vec<(String, bool)>, String> {
    let doc = Json::parse(benchmark)?;
    let Some(Json::Arr(metrics)) = doc.get(list) else {
        return Err(format!("no {list} list"));
    };
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            match (name, better) {
                (Some(name), Some(dir @ ("lower" | "higher"))) => {
                    Ok((name.to_owned(), dir == "lower"))
                }
                _ => Err(format!("a {list} entry lacks a name or direction")),
            }
        })
        .collect()
}

/// Where build `b` remaps the sources to: a path `5b` bytes longer
/// than build 0's, so that every build lays the code out differently.
fn remapped_root(build: u64) -> String {
    format!("{REMAPPED_ROOT}{}", "_".repeat(5 * build as usize))
}

/// Runs build `build` of one side's harness once.
fn run_once(
    checkout: &Path,
    plan: &Plan,
    seed: u64,
    build: u64,
) -> Result<Vec<(String, f64)>, String> {
    let mut cmd = Command::new("python3");
    cmd.arg("perfbench/run.py")
        .args(["--workload", &plan.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if plan.trace { "1" } else { "0" }])
        .current_dir(checkout)
        .env_remove("RUSTFLAGS")
        .env(
            "CARGO_ENCODED_RUSTFLAGS",
            format!(
                "--remap-path-prefix={}={}",
                checkout.display(),
                remapped_root(build)
            ),
        );
    if build == 0 {
        // run.py's own default, `<checkout>/.bench_build`.
        cmd.env_remove("CARGO_TARGET_DIR");
    } else {
        // A relative target directory is taken from the checkout root.
        cmd.env("CARGO_TARGET_DIR", format!(".bench_build/layout-{build}"));
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start python3: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "run.py exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    parse_result(&String::from_utf8_lossy(&out.stdout))
}

/// `x` with four decimals, or four significant digits when it is small.
fn num(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.1 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// One metric's row of the report.
fn report_row(name: &str, lower_is_better: bool, parent: &[f64], change: &[f64]) -> String {
    let (p1, pm, p3) = quartiles(parent);
    let (c1, cm, c3) = quartiles(change);
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| if lower_is_better { c < p } else { c > p })
        .count();
    let ratio = if pm == 0.0 { f64::NAN } else { cm / pm };
    let apart = (cm - pm).abs() > p3 - p1;
    let spread = |q1: f64, q3: f64| format!("[{}, {}]", num(q1), num(q3));
    format!(
        "{name:<14} {:>12} {:<26} {:>12} {:<26} {ratio:>6.4} {wins:>3}/{:<3} {}",
        num(pm),
        spread(p1, p3),
        num(cm),
        spread(c1, c3),
        parent.len(),
        if apart { "yes" } else { "no" }
    )
}

/// One metric's medians per build, parent → change.
fn build_row(name: &str, builds: u64, parent: &[f64], change: &[f64]) -> String {
    let mut row = format!("{name:<14}");
    for b in 0..builds as usize {
        let of = |xs: &[f64]| {
            let picked: Vec<f64> = xs
                .iter()
                .skip(b)
                .step_by(builds as usize)
                .copied()
                .collect();
            quartiles(&picked).1
        };
        let (p, c) = (of(parent), of(change));
        row.push_str(&format!("  b{b}: {} → {} ({:.4})", num(p), num(c), c / p));
    }
    row
}

/// `cargo xtask ab …`: the exit code of the whole comparison.
pub(crate) fn run(args: &[String]) -> ExitCode {
    let plan = match Plan::parse(args) {
        Ok(plan) => plan,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: cargo xtask ab <parent-checkout> <change-checkout> --workload W \
                 [--pairs 10] [--seconds 20] [--seed 1] [--builds 1] [--trace 0]"
            );
            return ExitCode::from(2);
        }
    };
    match compare(&plan) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("ab FAILED: {msg}");
            ExitCode::from(1)
        }
    }
}

fn compare(plan: &Plan) -> Result<String, String> {
    let canon =
        |p: &Path| std::fs::canonicalize(p).map_err(|e| format!("checkout {}: {e}", p.display()));
    let (parent, change) = (canon(&plan.parent)?, canon(&plan.change)?);
    let benchmark = std::fs::read_to_string(change.join("BENCHMARK.json"))
        .map_err(|e| format!("{}/BENCHMARK.json: {e}", change.display()))?;
    let metrics = benchmark_metrics(&benchmark, plan.metric_list())?;
    // samples[m] = (parent values, change values), one per pair.
    let mut samples = vec![(Vec::new(), Vec::new()); metrics.len()];
    for pair in 0..plan.pairs {
        let seed = plan.seed + pair;
        let build = plan.build(pair);
        for side in plan.order(pair) {
            let checkout = if side == Side::Parent {
                &parent
            } else {
                &change
            };
            let values = run_once(checkout, plan, seed, build).map_err(|e| {
                format!(
                    "{} side, pair {pair}, seed {seed}, build {build}: {e}",
                    side.name()
                )
            })?;
            for ((name, _), (p, c)) in metrics.iter().zip(&mut samples) {
                let value = values
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|&(_, x)| x)
                    .ok_or_else(|| {
                        format!(
                            "{} side, pair {pair}, seed {seed}: no metric {name}",
                            side.name()
                        )
                    })?;
                if side == Side::Parent { p } else { c }.push(value);
            }
        }
        eprintln!(
            "pair {}/{} done (seed {seed}, build {build})",
            pair + 1,
            plan.pairs
        );
    }
    let mut report = format!(
        "{} · {} · {} pairs of {} s · seeds {}..={} · {} build(s) per side\n\
         {:<14} {:>12} {:<26} {:>12} {:<26} {:>6} {:>7} {}",
        plan.workload,
        plan.metric_list(),
        plan.pairs,
        plan.seconds,
        plan.seed,
        plan.seed + plan.pairs - 1,
        plan.builds,
        "metric",
        "parent",
        "[q1, q3]",
        "change",
        "[q1, q3]",
        "ratio",
        "wins",
        "gap > parent IQR"
    );
    for ((name, lower), (p, c)) in metrics.iter().zip(&samples) {
        report.push('\n');
        report.push_str(&report_row(name, *lower, p, c));
    }
    if plan.builds > 1 {
        report.push_str("\nmedians per build, parent → change (ratio)");
        for ((name, _), (p, c)) in metrics.iter().zip(&samples) {
            report.push('\n');
            report.push_str(&build_row(name, plan.builds, p, c));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn pairs_alternate_which_side_runs_first() {
        let firsts: Vec<Side> = (0..4).map(|i| order(i)[0]).collect();
        assert_eq!(
            firsts,
            [Side::Parent, Side::Change, Side::Parent, Side::Change]
        );
        for i in 0..4 {
            let [a, b] = order(i);
            assert_ne!(a, b, "pair {i} runs one side twice");
        }
    }

    #[test]
    fn every_build_runs_each_side_first_in_turn() {
        let plan = Plan::parse(&strs(&["a", "b", "--workload", "w", "--builds", "2"])).unwrap();
        let runs: Vec<(u64, Side)> = (0..6).map(|i| (plan.build(i), plan.order(i)[0])).collect();
        assert_eq!(
            runs,
            [
                (0, Side::Parent),
                (1, Side::Parent),
                (0, Side::Change),
                (1, Side::Change),
                (0, Side::Parent),
                (1, Side::Parent),
            ]
        );
        assert_eq!(remapped_root(0), "/ftclust");
        assert_eq!(remapped_root(2), "/ftclust__________");
    }

    #[test]
    fn build_rows_take_each_builds_pairs() {
        // Pairs 0, 2, 4 ran build 0; pairs 1, 3 build 1.
        let row = build_row(
            "solve_ms",
            2,
            &[1.0, 10.0, 2.0, 20.0, 3.0],
            &[2.0, 10.0, 4.0, 20.0, 6.0],
        );
        assert_eq!(
            row,
            "solve_ms        b0: 2.0000 → 4.0000 (2.0000)  b1: 15.0000 → 15.0000 (1.0000)"
        );
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (3.25, 5.5, 7.75));
    }

    #[test]
    fn result_lines_are_read_and_checked() {
        let ok = "build noise\n{\"correct\": true, \"attempted\": 9, \"failed\": 0, \
                  \"metrics\": {\"solve_ms\": {\"value\": 12.5, \"unit\": \"ms\"}, \
                  \"heads_pct\": {\"value\": 7, \"unit\": \"%\"}}}\n\n";
        assert_eq!(
            parse_result(ok).unwrap(),
            [("solve_ms".to_owned(), 12.5), ("heads_pct".to_owned(), 7.0)]
        );
        for bad in [
            "",
            "not json",
            r#"{"correct": false, "attempted": 9, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 9, "failed": 2, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 9, "failed": 0}"#,
            r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {"x": "slow"}}"#,
            r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {"x": {"unit": "ms"}}}"#,
        ] {
            assert!(parse_result(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn benchmark_metrics_keep_their_direction() {
        let doc = r#"{"end_to_end": [
            {"name": "solve_ms", "unit": "ms", "better": "lower", "bound": 0.25},
            {"name": "nodes_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}],
            "per_layer": [{"name": "loss_goodput", "unit": "ratio", "better": "higher"}]}"#;
        assert_eq!(
            benchmark_metrics(doc, "per_layer").unwrap(),
            [("loss_goodput".to_owned(), false)]
        );
        assert_eq!(
            benchmark_metrics(doc, "end_to_end").unwrap(),
            [
                ("solve_ms".to_owned(), true),
                ("nodes_per_s".to_owned(), false)
            ]
        );
        let bad = r#"{"end_to_end": [{"name": "x", "better": "up"}]}"#;
        assert!(benchmark_metrics(bad, "end_to_end").is_err());
        assert!(benchmark_metrics(bad, "per_layer").is_err());
    }

    #[test]
    fn small_values_keep_four_significant_digits() {
        assert_eq!(num(12.43761), "12.4376");
        assert_eq!(num(0.000_113_33), "1.133e-4");
        assert_eq!(num(0.0), "0.0000");
    }

    #[test]
    fn wins_count_strictly_better_pairs() {
        let row = report_row("solve_ms", true, &[10.0, 10.0, 10.0], &[9.0, 10.0, 11.0]);
        assert!(row.contains(" 1/3 "), "{row}");
        let row = report_row("nodes_per_s", false, &[10.0, 10.0], &[11.0, 12.0]);
        assert!(row.contains(" 2/2   yes"), "{row}");
    }

    #[test]
    fn options_parse_with_defaults() {
        let plan = Plan::parse(&strs(&["a", "b", "--workload", "lossy-chaos"])).unwrap();
        assert_eq!(
            plan,
            Plan {
                parent: "a".into(),
                change: "b".into(),
                workload: "lossy-chaos".into(),
                pairs: 10,
                seconds: 20,
                seed: 1,
                builds: 1,
                trace: false,
            }
        );
        let traced = strs(&["a", "b", "--workload", "w", "--trace", "1"]);
        assert_eq!(Plan::parse(&traced).unwrap().metric_list(), "per_layer");
        for bad in [
            &["a", "--workload", "w"][..],
            &["a", "b"],
            &["a", "b", "--workload"],
            &["a", "b", "--workload", "w", "--pairs", "0"],
            &["a", "b", "--workload", "w", "--seconds", "x"],
            &["a", "b", "--workload", "w", "--trace", "2"],
            &["a", "b", "--workload", "w", "--color", "1"],
            &["a", "b", "--workload", "w", "--builds", "0"],
            &["a", "b", "--workload", "w", "--pairs", "2", "--builds", "3"],
        ] {
            assert!(Plan::parse(&strs(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
